from __future__ import annotations

import dataclasses
import hashlib
import importlib
import io
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cournotgraph import Trajectory, integrate
from cournotgraph.cli import main
from cournotgraph.reports import (pd_series_csv, sweep, sweep_csv,
                                  write_trajectory)
from cournotgraph.scenario import parse_scenario
from helpers import (as_pairs, sweep_by_analyze, sweep_verdicts,
                     trajectory_csv_by_value, written)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
STABLE = SCENARIO_DIR / "canonical_stable.scenario"
NETWORK = SCENARIO_DIR / "two_firm_network.scenario"
PD = SCENARIO_DIR / "gas_transit_pd.scenario"


def run(*argv) -> int:
    return main([str(a) for a in argv])


def csv_of(trajectory, names) -> str:
    """The CSV of ``trajectory``: the header ``t,<names>`` joined whole,
    then what ``write_trajectory`` writes for its table as a block that
    continues a CSV."""
    out = io.BytesIO()
    write_trajectory(trajectory.table, None, out)
    return "t," + ",".join(names) + "\n" + out.getvalue().decode("ascii")


class TestParser:
    @pytest.mark.parametrize("argv", [
        ("--help",), ("pd", "--help"), (), ("bogus",), ("sweep", "--scenario"),
        ("simulate", "--scenario", "x", "--out", "y", "--dt", "inf"),
        ("sweep", "--scenario", "x", "--param", "r9")])
    def test_reused_parser_prints_what_a_fresh_one_does(self, argv, tmp_path,
                                                        capsys):
        from cournotgraph import cli
        outputs = []
        for parse in (cli.build_parser().parse_args, cli.main, cli.main):
            with pytest.raises(SystemExit) as exc:
                parse(list(argv))
            outputs.append((exc.value.code, capsys.readouterr()))
            # A successful run between them leaves the parser as it was.
            assert run("pd", "--scenario", PD, "--out", tmp_path / "x.csv") == 0
            capsys.readouterr()
        assert outputs[0] == outputs[1] == outputs[2]
        assert outputs[0][0] in (0, 2)

    def test_main_builds_no_parser_of_its_own(self, monkeypatch, tmp_path):
        from cournotgraph import cli
        assert cli._parser() is cli._parser()

        def unreachable():
            raise AssertionError("parser rebuilt")
        monkeypatch.setattr(cli, "build_parser", unreachable)
        for _ in range(2):
            assert run("pd", "--scenario", PD, "--out", tmp_path / "x.csv") == 0


class TestWriters:
    def test_trajectory_rows_and_thinning(self):
        traj = Trajectory(np.array([[0.0, 1.0], [0.1, 2.0], [0.2, 3.0]]))
        text = written(write_trajectory, traj.table, ((1, 1),))
        assert text.splitlines() == ["t,q11", "0.0,1.0", "0.1,2.0", "0.2,3.0"]
        # Thinning is integrate's; the writer writes every state it keeps.
        grow = lambda q: np.ones(1)
        full = csv_of(integrate(grow, [1.0], 0.2, 0.1, "euler"), ("q11",))
        thinned = csv_of(integrate(grow, [1.0], 0.2, 0.1, "euler", thin=2),
                         ("q11",))
        header, t0, _, t2 = full.splitlines()
        assert thinned.splitlines() == [header, t0, t2]

    def test_final_step_always_kept(self):
        for thin, times in ((3, [0.0, 3.0]), (2, [0.0, 2.0, 3.0])):
            traj = integrate(lambda q: -q, [1.0], 3.0, 1.0, "euler", thin)
            lines = csv_of(traj, ("q11",)).splitlines()
            assert [float(line.split(",")[0]) for line in lines[1:]] == times

    def test_two_state_trajectory_gives_three_lines(self):
        traj = Trajectory(np.array([[0.0, 1.0], [0.1, 0.9]]))
        assert len(csv_of(traj, ("q11",)).splitlines()) == 3

    def test_thin_must_be_positive(self):
        with pytest.raises(ValueError, match="thin must be at least 1"):
            integrate(lambda q: -q, [1.0], 1.0, 0.1, "rk4", thin=0)

    def test_marginal_system_renders_marginal_verdict(self):
        from cournotgraph import AffineSystem, analyze
        from cournotgraph.reports import render_stability_report
        rotation = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0],
                             [0.0, 0.0, 1.0]])
        report = analyze(AffineSystem(constant=np.zeros(3), matrix=rotation))
        assert "verdict: MARGINAL" in render_stability_report(report)

    def test_non_cubic_system_reports_margin_only(self):
        from cournotgraph import NetworkSpec, analyze, to_affine
        from cournotgraph.reports import render_stability_report
        spec = NetworkSpec(2, 2, ((1, 1), (1, 2), (2, 1), (2, 2)),
                           alpha=(1.0, 1.0), beta=(0.2, 0.3),
                           gamma=(0.1, 0.4))
        report = analyze(to_affine(spec))
        assert report.char_coeffs is None
        lines = render_stability_report(report).splitlines()
        assert lines[5:] == [
            "characteristic coefficients (Jacobian):",
            "  Routh-Hurwitz checks: n/a (system is not cubic; verdict rests "
            "on the eigenvalue margin)",
            f"eigenvalue margin (max Re): {report.eigen_margin!r}",
            "verdict: STABLE"]

    def test_pd_series(self):
        assert written(pd_series_csv, [0.5, 0.25]) == \
            "step,coop_fraction\n0,0.5\n1,0.25\n"

    def test_sweep_error_rows_keep_grid_going(self):
        scenario = parse_scenario(STABLE.read_text(encoding="utf-8"))
        # det(A) crosses 0 at r4 = 0.14, inside the condition-number guard
        points = sweep(scenario, "r4", 0.14, 0.15, 2)
        assert sweep_verdicts(points) == ["ERROR", "UNSTABLE"]
        text = written(sweep_csv, points)
        assert text.splitlines()[1].endswith(",ERROR,nan")

    def test_sweep_grid_endpoints(self):
        scenario = parse_scenario(STABLE.read_text(encoding="utf-8"))
        points = sweep(scenario, "r3", 0.1, 1.5, 2)
        assert points.values.tolist() == [0.1, 1.5]
        assert sweep_verdicts(points) == ["UNSTABLE", "STABLE"]

    def test_sweep_rejects_bad_grid(self):
        scenario = parse_scenario(STABLE.read_text(encoding="utf-8"))
        with pytest.raises(ValueError, match="strictly less"):
            sweep(scenario, "r3", 1.0, 1.0, 2)
        with pytest.raises(ValueError, match="at least 2"):
            sweep(scenario, "r3", 0.0, 1.0, 1)
        with pytest.raises(ValueError, match="param must be one of"):
            sweep(scenario, "r6", 0.0, 1.0, 2)

    def test_sweep_agrees_with_pointwise_analyze(self):
        import dataclasses
        from cournotgraph import analyze, canonical_affine
        scenario = parse_scenario(STABLE.read_text(encoding="utf-8"))
        points = sweep(scenario, "r3", 0.05, 2.0, 7)
        for value, verdict, margin in zip(points.values.tolist(),
                                          sweep_verdicts(points),
                                          points.margins.tolist()):
            r = dataclasses.replace(scenario.r, r3=value)
            report = analyze(canonical_affine(r), r)
            assert verdict == report.verdict.value
            assert margin == report.eigen_margin
        # Dense grids over every parameter, the r4 one across det A = 0
        # at r4 = 0.14: the same bytes as one analyze per point.
        verdicts = set()
        for param, start, stop, count in (("r1", -2.0, 2.0, 2000),
                                          ("r2", 0.01, 3.0, 2001),
                                          ("r3", 0.1, 1.5, 2000),
                                          ("r4", 0.13, 0.15, 2001),
                                          ("r5", -1.0, 1.0, 2000)):
            want = written(sweep_csv,
                           sweep_by_analyze(scenario, param, start, stop, count))
            got = written(sweep_csv, sweep(scenario, param, start, stop, count))
            assert got == want, param
            verdicts.update(line.split(",")[1] for line in want.splitlines()[1:])
        assert verdicts == {"STABLE", "UNSTABLE", "ERROR"}

    def test_sweep_points_bounded_before_any_work(self, monkeypatch):
        from cournotgraph.reports import MAX_SWEEP_POINTS

        def unreachable(*args, **kwargs):
            raise AssertionError("np.arange reached")
        monkeypatch.setattr(np, "arange", unreachable)
        scenario = parse_scenario(STABLE.read_text(encoding="utf-8"))
        with pytest.raises(ValueError, match=f"at most {MAX_SWEEP_POINTS}"):
            sweep(scenario, "r3", 0.0, 1.0, MAX_SWEEP_POINTS + 1)
        with pytest.raises(AssertionError, match="np.arange reached"):
            sweep(scenario, "r3", 0.0, 1.0, MAX_SWEEP_POINTS)

    def test_sweep_with_non_finite_grid_values_is_rejected(self):
        scenario = parse_scenario(STABLE.read_text(encoding="utf-8"))
        # stop - start overflows, so the first grid value is 0 * inf
        with pytest.raises(ValueError, match="r3 must be finite, got nan"):
            sweep(scenario, "r3", -1e308, 1e308, 5)
        with pytest.raises(ValueError, match="r3 must be finite, got inf"):
            sweep(scenario, "r3", -1e300, 1.7e308, 3)

    @pytest.mark.parametrize("rows,width,thin", [(20001, 3, 1), (20001, 3, 3),
                                                 (2001, 3, 10), (1002, 3, 10),
                                                 (7, 1, 3), (3, 70000, 1)])
    def test_trajectory_csv_matches_per_value_rendering(self, rows, width, thin):
        # The per-value oracle thins the whole trajectory (with and
        # without a final row off the stride); the writer writes the
        # rows kept, some wider than one writing block.
        rng = np.random.default_rng(rows + width)
        states = rng.standard_normal((rows, width)) * 10.0 ** rng.integers(
            -300, 300, (rows, width))
        states[0, 0] = -0.0
        traj = Trajectory(np.column_stack((np.arange(rows) * 0.01, states)))
        index = sorted(set(range(0, rows, thin)) | {rows - 1})
        kept = Trajectory(traj.table[index])
        names = tuple(f"q{k}" for k in range(1, width + 1))
        assert (written(write_trajectory, kept.table, ())
                == trajectory_csv_by_value(traj, names, thin))

    def test_trajectory_csv_peak_memory_below_per_value_rendering(self,
                                                                  tmp_path):
        import tracemalloc
        rng = np.random.default_rng(5)
        traj = Trajectory(np.column_stack((np.arange(20001) * 0.01,
                                           rng.standard_normal((20001, 3)))))
        names, order = ("q11", "q22", "q21"), ((1, 1), (2, 2), (2, 1))
        peaks = []
        with (tmp_path / "t.csv").open("wb") as out:
            for render in (lambda: trajectory_csv_by_value(traj, names, 1),
                           lambda: write_trajectory(traj.table, order, out)):
                tracemalloc.start()
                try:
                    render()
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        # The writer holds one block of about 2^12 values, not the text.
        assert peaks[1] < peaks[0] / 10


class TestCommands:
    def test_simulate_reaches_reference_equilibrium(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        assert run("simulate", "--scenario", STABLE, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,q11,q22,q21"
        assert len(lines) == 2002  # header + 2001 retained rows
        final = [float(v) for v in lines[-1].split(",")[1:]]
        assert np.allclose(final, (1.13636, 0.454545, 0.772727), atol=1e-4)

    @pytest.mark.parametrize("method", ["rk4", "euler"])
    @pytest.mark.parametrize("name", ["canonical_stable", "canonical_unstable",
                                      "two_firm_network"])
    def test_short_simulate_is_a_prefix_of_the_default_run(self, name, method,
                                                           tmp_path, capsys):
        scenario = SCENARIO_DIR / f"{name}.scenario"
        short, full = tmp_path / "short.csv", tmp_path / "full.csv"
        assert run("simulate", "--scenario", scenario, "--method", method,
                   "--t-end", 0.1, "--thin", 1, "--out", short) == 0
        assert run("simulate", "--scenario", scenario, "--method", method,
                   "--thin", 1, "--out", full) == 0
        lines = short.read_text().splitlines(keepends=True)
        assert len(lines) == 12  # header and times 0, 0.01, ..., 0.1
        assert full.read_text().splitlines(keepends=True)[:12] == lines

    def test_simulate_rejects_pd_scenario(self, tmp_path, capsys):
        code = run("simulate", "--scenario", PD, "--out", tmp_path / "x.csv")
        assert code == 2
        assert "requires a [network] or [canonical]" in capsys.readouterr().err

    def test_simulate_blowup_writes_partial_and_exits_3(self, tmp_path, capsys):
        out = tmp_path / "partial.csv"
        code = run("simulate", "--scenario", STABLE, "--dt", 3.0,
                   "--t-end", 300, "--thin", 1, "--out", out)
        assert code == 3
        assert "blew up" in capsys.readouterr().err
        assert out.exists()
        assert len(out.read_text().splitlines()) >= 2

    def test_simulate_q0_past_the_state_limit_exits_2(self, tmp_path, capsys):
        # The run shrinks from there; it used to exit 3 with q0 reported as
        # the last finite state of a blow-up.
        path = tmp_path / "far.scenario"
        path.write_text(STABLE.read_text().replace("q0 = 0.1, 0.2, 0.3",
                                                   "q0 = 1e10, 0, 0"))
        out = tmp_path / "t.csv"
        assert run("simulate", "--scenario", path, "--out", out) == 2
        assert capsys.readouterr().err == (
            "error: q0 must be finite with max |q| at most 1000000000.0, "
            "got 10000000000.0\n")
        assert not out.exists()

    def test_size_limits_exit_2_before_allocating(self, monkeypatch, tmp_path,
                                                 capsys):
        from cournotgraph import scenario

        def unreachable(*args, **kwargs):
            raise AssertionError("allocation reached")
        for name in ("complete_graph", "player_graph"):
            monkeypatch.setattr(scenario, name, unreachable)
        monkeypatch.setattr(np, "empty", unreachable)
        huge = tmp_path / "huge.scenario"
        huge.write_text(PD.read_text().replace("graph = edges 0-1, 0-2",
                                               "graph = complete 100000"))
        assert run("pd", "--scenario", huge, "--out", tmp_path / "pd.csv") == 2
        assert "more than the limit of 1000000" in capsys.readouterr().err
        out = tmp_path / "x.csv"
        assert run("simulate", "--scenario", STABLE, "--t-end", 1e6,
                   "--dt", 1e-6, "--out", out) == 2
        assert "limit of 10000000 stored values" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "pd.csv").exists()

    def test_equilibrium_output(self, capsys):
        assert run("equilibrium", "--scenario", STABLE) == 0
        out = capsys.readouterr().out
        assert out.startswith("q11 = 1.136363636363636")
        assert "q21 = 0.77272727272727" in out

    def test_equilibrium_network_scenario(self, capsys):
        assert run("equilibrium", "--scenario", NETWORK) == 0
        assert capsys.readouterr().out.startswith("q11 = ")

    def test_stability_report_stable(self, capsys):
        assert run("stability", "--scenario", STABLE) == 0
        out = capsys.readouterr().out
        assert "verdict: STABLE" in out
        assert out.count("PASS") == 6  # both coefficient blocks pass
        assert "closed-form coefficients" in out

    def test_stability_report_unstable(self, capsys):
        unstable = SCENARIO_DIR / "canonical_unstable.scenario"
        assert run("stability", "--scenario", unstable) == 0
        out = capsys.readouterr().out
        assert "verdict: UNSTABLE" in out
        assert "FAIL" in out

    def test_stability_network_has_no_closed_form_block(self, capsys):
        assert run("stability", "--scenario", NETWORK) == 0
        out = capsys.readouterr().out
        assert "closed-form coefficients" not in out
        assert "verdict: STABLE" in out

    def test_singular_equilibrium_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "singular.scenario"
        bad.write_text("[canonical]\nr = 1, 1, 1, 0.5, 0.5\nq0 = 0,0,0\n")
        assert run("equilibrium", "--scenario", bad) == 3
        assert "no unique equilibrium" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert run("stability", "--scenario", "no/such/file.scenario") == 2

    def test_parse_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.scenario"
        bad.write_text("[canonical]\nr = 1\nq0 = 0,0,0\n")
        assert run("stability", "--scenario", bad) == 2
        assert "exactly 5 values" in capsys.readouterr().err

    def test_pd_command(self, tmp_path, capsys):
        out = tmp_path / "pd.csv"
        assert run("pd", "--scenario", PD, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "step,coop_fraction"
        assert len(lines) == 22  # header + steps + 1
        stdout = capsys.readouterr().out
        assert "minimum sigma for cooperate-dominance: 2.0" in stdout
        assert "with payment: C" in stdout

    def test_pd_rejects_network_scenario(self, tmp_path, capsys):
        assert run("pd", "--scenario", NETWORK, "--out", tmp_path / "x.csv") == 2

    def test_sweep_command(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--scenario", STABLE, "--param", "r3",
                   "--from", 0.1, "--to", 1.5, "--points", 2,
                   "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "value,verdict,eigen_margin"
        assert lines[1].startswith("0.1,UNSTABLE,")
        assert lines[2].startswith("1.5,STABLE,")

    def test_sweep_takes_negative_bounds_in_exponent_form(self, tmp_path):
        # argparse's own negative-number pattern has no exponent; with the
        # parser's wider one "--from -5e-1" reads as "--from=-0.5".
        spaced, joined = tmp_path / "spaced.csv", tmp_path / "joined.csv"
        for bounds, out in ((("--from", "-5e-1", "--to", "-1e-1"), spaced),
                            (("--from=-0.5", "--to=-0.1"), joined)):
            assert run("sweep", "--scenario", STABLE, "--param", "r4", *bounds,
                       "--points", 5, "--out", out) == 0
        assert spaced.read_bytes() == joined.read_bytes()
        assert spaced.read_text().splitlines()[1].startswith("-0.5,")

    def test_sweep_bad_grid_exits_2(self, tmp_path, capsys):
        code = run("sweep", "--scenario", STABLE, "--param", "r3",
                   "--from", 1.0, "--to", 1.0, "--points", 2,
                   "--out", tmp_path / "x.csv")
        assert code == 2

    def test_sweep_requires_canonical(self, tmp_path, capsys):
        code = run("sweep", "--scenario", NETWORK, "--param", "r3",
                   "--from", 0.1, "--to", 1.0, "--points", 2,
                   "--out", tmp_path / "x.csv")
        assert code == 2

    @pytest.mark.parametrize("command, scenario, sections", [
        ("simulate", PD, "[network] or [canonical]"),
        ("equilibrium", PD, "[network] or [canonical]"),
        ("stability", PD, "[network] or [canonical]"),
        ("pd", STABLE, "[pd]"), ("pd", NETWORK, "[pd]"),
        ("sweep", NETWORK, "[canonical]"), ("sweep", PD, "[canonical]")],
        ids=lambda value: getattr(value, "stem", value))
    def test_every_wrong_section_is_refused_alike(self, command, scenario,
                                                  sections, tmp_path, capsys):
        out = tmp_path / "x.csv"
        extra = {"simulate": ("--out", out), "pd": ("--out", out),
                 "sweep": ("--param", "r3", "--from", 0.1, "--to", 1.0,
                           "--points", 2, "--out", out)}.get(command, ())
        assert run(command, "--scenario", scenario, *extra) == 2
        assert capsys.readouterr() == (
            "", f"error: {command} requires a {sections} scenario\n")
        assert not out.exists()

    def test_repeated_simulate_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("simulate", "--scenario", STABLE, "--t-end", 5, "--out", a)
        run("simulate", "--scenario", STABLE, "--t-end", 5, "--out", b)
        assert a.read_bytes() == b.read_bytes()


class TestCommandRoutes:
    @pytest.fixture
    def no_analyze(self, monkeypatch):
        from cournotgraph import cli, reports, stability

        def forbidden(*args, **kwargs):
            raise AssertionError("equilibrium must not run the stability analysis")
        for module in (cli, stability):
            monkeypatch.setattr(module, "analyze", forbidden)
        # reports no longer imports analyze; patch it there all the same
        monkeypatch.setattr(reports, "analyze", forbidden, raising=False)

    def test_equilibrium_never_calls_analyze(self, no_analyze, capsys):
        assert run("equilibrium", "--scenario", STABLE) == 0
        assert capsys.readouterr().out.startswith("q11 = 1.136363636363636")
        assert run("equilibrium", "--scenario", NETWORK) == 0
        assert capsys.readouterr().out.splitlines()[0].startswith("q11 = ")

    def test_simulate_and_sweep_take_the_array_routes(self, monkeypatch,
                                                       tmp_path, capsys):
        from cournotgraph import AffineSystem, stability
        calls = []
        for owner, name in ((AffineSystem, "field_at"), (stability, "analyze"),
                            (stability, "equilibrium")):
            original = getattr(owner, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)
        assert run("simulate", "--scenario", STABLE, "--out",
                   tmp_path / "t.csv") == 0
        assert run("sweep", "--scenario", STABLE, "--param", "r4", "--from",
                   0.13, "--to", 0.15, "--points", 201, "--out",
                   tmp_path / "s.csv") == 0
        assert ",ERROR,nan" in (tmp_path / "s.csv").read_text()
        assert calls == []

    def test_simulate_blowup_prefix_matches_field_route(self, tmp_path, capsys):
        from cournotgraph import IntegrationBlowUp, canonical_affine, integrate
        scenario = parse_scenario(STABLE.read_text(encoding="utf-8"))
        out = tmp_path / "partial.csv"
        assert run("simulate", "--scenario", STABLE, "--dt", 3, "--t-end", 40,
                   "--thin", 1, "--out", out) == 3
        assert "error: state blew up at t=27.0 (max |q| = " in capsys.readouterr().err
        system = canonical_affine(scenario.r)
        with pytest.raises(IntegrationBlowUp) as info:
            integrate(system.field_at, scenario.q0, 40.0, 3.0)
        want = info.value.trajectory
        got = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        assert np.array_equal(got[:, 0], want.times)
        scale = np.maximum(1.0, np.max(np.abs(want.states), axis=1))
        gap = np.max(np.abs(got[:, 1:] - want.states), axis=1) / scale
        assert float(np.max(gap)) <= 1e-12

    def test_equilibrium_singular_still_exits_3(self, no_analyze, tmp_path, capsys):
        bad = tmp_path / "singular.scenario"
        bad.write_text("[canonical]\nr = 1, 1, 1, 0.5, 0.5\nq0 = 0,0,0\n")
        assert run("equilibrium", "--scenario", bad) == 3
        assert "no unique equilibrium" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--t-end", "--dt"])
    @pytest.mark.parametrize("value", ["inf", "nan", "-inf", "1e400"])
    def test_non_finite_time_flags_exit_2(self, flag, value, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("simulate", "--scenario", STABLE, "--out", tmp_path / "x.csv",
                f"{flag}={value}")
        assert exc.value.code == 2
        assert f"argument {flag}: must be finite" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("dt, t_end", [(0.01, 1.0), (3.0, 40.0)])
    @pytest.mark.parametrize("thin", ["0", "-2", "x"])
    def test_bad_thin_exits_2_before_integrating(self, monkeypatch, dt, t_end,
                                                 thin, tmp_path, capsys):
        # Both a converging run and one that blows up stop at parsing.
        from cournotgraph import cli

        def unreachable(*args, **kwargs):
            raise AssertionError("integrate reached")
        monkeypatch.setattr(cli, "integrate", unreachable)
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            run("simulate", "--scenario", STABLE, "--dt", dt, "--t-end", t_end,
                "--thin", thin, "--out", out)
        assert exc.value.code == 2
        assert "argument --thin: " in capsys.readouterr().err
        assert not out.exists()

    def test_huge_market_count_is_one_short_message(self, tmp_path, capsys):
        spec = tmp_path / "huge.scenario"
        spec.write_text("[network]\nmarkets = 1000000\nfirms = 2\n"
                        "edges = 1:1, 2:2\nalpha = 1, 1\nbeta = 1, 1\n"
                        "gamma = 1, 1\nq0 = 0, 0\n")
        for command in ("equilibrium", "stability"):
            assert run(command, "--scenario", spec) == 2
            err = capsys.readouterr().err
            assert len(err.encode()) < 1024
            assert "market 3 appears in no edge: 1000000 markets need at " \
                "least 1000000 edges, got 2" in err

    @pytest.mark.parametrize("values, message", [
        ("alpha = 1e200\nbeta = 1\ngamma = 1\nspeed = 1e200\n",
         "constant must be finite"),
        ("alpha = 1\nbeta = 1e200\ngamma = 1e200\nspeed = 1e200\n",
         "matrix must be finite"),
    ])
    @pytest.mark.parametrize("command", ["stability", "equilibrium", "simulate"])
    def test_overflowing_parameters_exit_2_with_one_line(self, values, message,
                                                         command, tmp_path,
                                                         capsys):
        path = tmp_path / "huge.scenario"
        path.write_text("[network]\nmarkets = 1\nfirms = 1\nedges = 1:1\n"
                        + values + "q0 = 0.1\n")
        out = tmp_path / "t.csv"
        argv = ["--out", out] if command == "simulate" else []
        # A numpy overflow warning would be raised here as an error.
        assert run(command, "--scenario", path, *argv) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not out.exists()

    def test_pd_steps_past_the_limit_exit_2_before_any_work(self, monkeypatch,
                                                            tmp_path, capsys):
        from cournotgraph import cli, scenario

        def forbidden(*args, **kwargs):
            raise AssertionError("nothing may be built or run")
        monkeypatch.setattr(scenario.PDScenario, "build_graph", forbidden)
        monkeypatch.setattr(cli, "run_spatial", forbidden)
        path = tmp_path / "long.scenario"
        path.write_text(PD.read_text().replace("steps = 20",
                                               "steps = 10000000000"))
        out = tmp_path / "pd.csv"
        assert run("pd", "--scenario", path, "--out", out) == 2
        # edges 0-1, 0-2: 3 players and 2 edges, 7 entries a step.
        reads = (7 + scenario.PD_STEP_READS) * 10_000_000_000
        assert capsys.readouterr().err == (
            f"error: line 10: steps: 10000000000 steps of 'edges 0-1, 0-2' "
            f"count as {reads} reads (up to 7 neighborhood entries and 2400 "
            f"for the fixed cost of each step), more than the limit of "
            f"{scenario.MAX_PD_READS}\n")
        assert not out.exists()

    def test_pd_reads_past_the_limit_exit_2_before_any_work(self, monkeypatch,
                                                            tmp_path, capsys):
        from cournotgraph import cli, scenario

        def forbidden(*args, **kwargs):
            raise AssertionError("nothing may be built or run")
        for name in ("complete_graph", "cycle_graph", "torus_graph",
                     "player_graph"):
            monkeypatch.setattr(scenario, name, forbidden)
        monkeypatch.setattr(cli, "run_spatial", forbidden)
        path = tmp_path / "wide.scenario"
        path.write_text(PD.read_text()
                        .replace("graph = edges 0-1, 0-2", "graph = torus 707 707")
                        .replace("steps = 20", "steps = 10000000"))
        out = tmp_path / "pd.csv"
        assert run("pd", "--scenario", path, "--out", out) == 2
        entries = 707 * 707 + 4 * 707 * 707
        reads = (entries + 2400) * 10_000_000
        assert capsys.readouterr().err == (
            f"error: line 10: steps: 10000000 steps of 'torus 707 707' count "
            f"as {reads} reads (up to {entries} neighborhood entries and 2400 "
            f"for the fixed cost of each step), more than the limit of "
            f"{scenario.MAX_PD_READS}\n")
        assert not out.exists()

    def test_pd_small_graph_pays_the_step_charge_exit_2_before_any_work(
            self, monkeypatch, tmp_path, capsys):
        # 10^7 steps of a 4 x 4 torus read only 8 * 10^8 neighborhood
        # entries, but the fixed cost of each step makes them minutes.
        from cournotgraph import cli, scenario

        def forbidden(*args, **kwargs):
            raise AssertionError("nothing may be built or run")
        for name in ("complete_graph", "cycle_graph", "torus_graph",
                     "player_graph"):
            monkeypatch.setattr(scenario, name, forbidden)
        monkeypatch.setattr(cli, "run_spatial", forbidden)
        path = tmp_path / "small.scenario"
        path.write_text(PD.read_text()
                        .replace("graph = edges 0-1, 0-2", "graph = torus 4 4")
                        .replace("steps = 20", "steps = 10000000"))
        out = tmp_path / "pd.csv"
        assert run("pd", "--scenario", path, "--out", out) == 2
        assert capsys.readouterr().err == (
            "error: line 10: steps: 10000000 steps of 'torus 4 4' count as "
            "24800000000 reads (up to 80 neighborhood entries and 2400 for "
            f"the fixed cost of each step), more than the limit of "
            f"{scenario.MAX_PD_READS}\n")
        assert not out.exists()

    def test_pd_extreme_payoffs_pay_the_ordinary_charge(self, monkeypatch,
                                                        tmp_path, capsys):
        # A step compares ranks of the exact totals, so at U = 1e-300 a
        # step of torus 707 707 costs what it does at U = 0.5: both take
        # the 1998 steps its size allows, and 1999 are refused before any
        # work with the same count of reads.
        from cournotgraph import cli, scenario

        def forbidden(*args, **kwargs):
            raise AssertionError("nothing may be built or run")
        for name in ("complete_graph", "cycle_graph", "torus_graph",
                     "player_graph"):
            monkeypatch.setattr(scenario, name, forbidden)
        monkeypatch.setattr(cli, "run_spatial", forbidden)
        path = tmp_path / "tiny_u.scenario"
        text = (PD.read_text()
                .replace("graph = edges 0-1, 0-2", "graph = torus 707 707")
                .replace("steps = 20", "steps = 1999"))
        path.write_text(text.replace("payoff = 3, 0, 5, 1",
                                     "payoff = 3, 0, 3.5, 1e-300"))
        out = tmp_path / "pd.csv"
        assert run("pd", "--scenario", path, "--out", out) == 2
        entries = 707 * 707 + 4 * 707 * 707
        reads = (entries + 2400) * 1999
        assert capsys.readouterr().err == (
            f"error: line 10: steps: 1999 steps of 'torus 707 707' count as "
            f"{reads} reads (up to {entries} neighborhood entries and 2400 "
            f"for the fixed cost of each step), more than the limit of "
            f"{scenario.MAX_PD_READS}\n")
        assert not out.exists()
        monkeypatch.undo()
        for u in ("1e-300", "0.5"):
            admitted = parse_scenario(text.replace("steps = 1999", "steps = 1998")
                                      .replace("payoff = 3, 0, 5, 1",
                                               f"payoff = 3, 0, 3.5, {u}"))
            assert admitted.steps == 1998

    def test_pd_builds_the_player_graph_once(self, monkeypatch, tmp_path, capsys):
        from cournotgraph import scenario
        builds = []
        for name in ("complete_graph", "cycle_graph", "torus_graph", "player_graph"):
            original = getattr(scenario, name)

            def counted(*args, _original=original, **kwargs):
                builds.append(_original)
                return _original(*args, **kwargs)
            monkeypatch.setattr(scenario, name, counted)
        complete = tmp_path / "complete.scenario"
        complete.write_text(PD.read_text().replace("graph = edges 0-1, 0-2",
                                                   "graph = complete 30"))
        for path in (PD, complete):
            builds.clear()
            assert run("pd", "--scenario", path, "--out", tmp_path / "pd.csv") == 0
            assert len(builds) == 1

    def test_pd_makes_no_per_player_or_per_edge_objects(self, monkeypatch,
                                                        tmp_path, capsys):
        # The tuple view is kept for the benchmark's tracer and the edge
        # array is read off the tables on demand: with both made to
        # raise, pd must still run and write the same bytes.
        from cournotgraph import pdgame

        def forbidden(self):
            raise AssertionError("pd built a per-player or per-edge view")
        text = PD.read_text()
        scenarios = []
        for graph in ("torus 30 20", "complete 60"):
            path = tmp_path / f"{graph.split()[0]}.scenario"
            path.write_text(text.replace("graph = edges 0-1, 0-2",
                                         f"graph = {graph}")
                                .replace("init = single_defector",
                                         "init = random 0.5 8"))
            scenarios.append(path)
        outputs = []
        for patched in (False, True):
            if patched:
                monkeypatch.setattr(pdgame.PlayerGraph, "neighbors",
                                    property(forbidden))
            for path in scenarios:
                out = path.with_suffix(f".{patched}.csv")
                assert run("pd", "--scenario", path, "--out", out) == 0
                outputs.append((capsys.readouterr().out, out.read_bytes()))
        assert outputs[:2] == outputs[2:]
        assert "players: 600, edges: 1200" in outputs[0][0]
        assert "players: 60, edges: 1770" in outputs[1][0]


class TestStreamedSimulate:
    """``simulate`` holds only the states it writes: ``integrate`` thins
    while marching, and the CSV is written a block at a time."""

    # sha256 of each shipped scenario's CSV, taken from the release that
    # held every state and built the whole text; flags beside --method
    # are given, the rest default.
    PINNED = {
        ("canonical_stable", "rk4"):
            "8840804ba2936710289e3fc2b56aea85415dffc37ed962eab599375641b09379",
        ("canonical_stable", "rk4", "--thin", "1"):
            "61c5ceef0e45fcf75a0dd7de559b2ef35baf06009c6b773f6adb1197ac42cc29",
        ("canonical_stable", "euler"):
            "979577f88c192718fa4154dacc4d31174f5cd2c6a3a2146b04e23b69a20ac937",
        ("canonical_stable", "euler", "--thin", "1"):
            "0ece80202fc51c1e39db032cdca8205d8fb2c6eba52024c227f86da8d789ec56",
        ("canonical_unstable", "rk4"):
            "d7dee7c0d538a0dc903da9767ec1558ff8ddc1ee42fe2b3651dd4b49ae56e2bd",
        ("canonical_unstable", "rk4", "--thin", "1"):
            "d01aba62a5bc878085590f58d434b88720c1ef474804e3e14d30a10467873ca8",
        ("canonical_unstable", "euler"):
            "a25203ca801c45d6c27a27799a89b53910b68bcce61ecec2f734344acefdf782",
        ("canonical_unstable", "euler", "--thin", "1"):
            "40e39805990d1e04bc5aabd917f4ef620282c3af9760d07d805a941a148042ca",
        ("two_firm_network", "rk4"):
            "5c02bba98ec1dcb16fb29f2d0155fab3f8c802af4407cb743d6abf108e47f9cd",
        ("two_firm_network", "rk4", "--thin", "1"):
            "8ac758424b8b8c35e7bb43d69573373a4162324275ba464659be4fcff25c3465",
        ("two_firm_network", "euler"):
            "d4268651e9d97ba510fc840bcfd5b6e99a7c7e106ba5d48cd09b103e970b55d1",
        ("two_firm_network", "euler", "--thin", "1"):
            "f1b9d55f93a20661d74bb7cc74849c41e69f304c57f8ab5238ea93bd14b8bb87",
        ("canonical_stable", "rk4", "--thin", "7"):
            "451e7a09bbc7cbdd71cf61b5b89a59b8529af786751140d67cad40cbee9d6a15",
        ("canonical_unstable", "euler", "--t-end", "199.995", "--thin", "7"):
            "aac489b2e7c917ef967a44e2cf9a3a4fbbaac33b1fe1aa62fca62311b5dba411",
        ("two_firm_network", "rk4", "--t-end", "3.333", "--thin", "7"):
            "a23cc57ecd54b7613a9ab81fa7fd3194b6b77ef5903543882984f01db075c94e",
    }

    @pytest.mark.parametrize("key", PINNED, ids="-".join)
    def test_simulate_csv_bytes_are_pinned(self, key, tmp_path, capsys):
        name, method, *flags = key
        out = tmp_path / "t.csv"
        assert run("simulate", "--scenario", SCENARIO_DIR / f"{name}.scenario",
                   "--method", method, *flags, "--out", out) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.PINNED[key]

    # sha256 of the partial CSV of canonical_stable at --dt 3 --t-end 40,
    # which blows up at step 9, by --thin; taken from the release that
    # held the times and the states as two arrays.
    BLOWUP_PINNED = {
        1: "4bb293fa469189ff8130ed6a51bfe9fb3b47273b475bdd81f622a65509b67539",
        7: "77b20cc26619009cf0382a1ce1617b63dffd67f104aca1633c2c69166df1fd96",
    }

    @pytest.mark.parametrize("thin", BLOWUP_PINNED)
    def test_blowup_csv_bytes_are_pinned(self, thin, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert run("simulate", "--scenario", STABLE, "--dt", 3, "--t-end", 40,
                   "--thin", thin, "--out", out) == 3
        assert (hashlib.sha256(out.read_bytes()).hexdigest()
                == self.BLOWUP_PINNED[thin])

    @pytest.mark.parametrize("t_end, steps", [("200", 20000), ("0.105", 11)])
    def test_stderr_counts_the_steps_taken_not_the_rows(self, t_end, steps,
                                                        tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert run("simulate", "--scenario", STABLE, "--t-end", t_end,
                   "--thin", 7, "--out", out) == 0
        assert capsys.readouterr().err == (
            f"simulate: {steps} rk4 steps to t={float(t_end)}, wrote {out}\n")
        assert len(out.read_text().splitlines()) == 2 + -(-steps // 7)

    def test_thinned_blowup_csv_ends_at_the_last_finite_state(self, tmp_path,
                                                              capsys):
        # The state of step 9 (t = 27) blows up; step 8, the last finite
        # one, is off the --thin 7 grid and still ends the partial CSV.
        texts, errors = [], []
        for thin in (1, 7):
            out = tmp_path / f"thin{thin}.csv"
            assert run("simulate", "--scenario", STABLE, "--dt", 3,
                       "--t-end", 40, "--thin", thin, "--out", out) == 3
            texts.append(out.read_text().splitlines(keepends=True))
            errors.append(capsys.readouterr().err.splitlines()[0])
        full, thinned = texts
        assert len(full) == 10
        assert thinned == [full[0], full[1], full[8], full[9]]
        assert thinned[-1].startswith("24.0,")
        assert errors[0] == errors[1]
        assert errors[0].startswith("error: state blew up at t=27.0 ")

    def test_huge_thin_keeps_the_first_and_last_rows(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert run("simulate", "--scenario", STABLE, "--t-end", 1,
                   "--thin", 10 ** 400, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert [line.split(",")[0] for line in lines] == ["t", "0.0", "1.0"]

    def test_peak_memory_is_set_by_the_rows_written(self, tmp_path, capsys):
        # 2 * 10^4 and 2 * 10^5 steps, 101 rows written by each: the
        # peaks agree to within 1536 values of 8 bytes, whatever the
        # size of a writing block.
        import tracemalloc
        out = tmp_path / "t.csv"
        # A first run leaves the one-time caches of the process behind.
        assert run("simulate", "--scenario", STABLE, "--out", out) == 0
        peaks = []
        for t_end in (200, 2000, 200, 2000):
            tracemalloc.start()
            try:
                assert run("simulate", "--scenario", STABLE, "--t-end", t_end,
                           "--thin", t_end, "--out", out) == 0
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert len(out.read_text().splitlines()) == 102
        assert max(peaks) - min(peaks) <= 12_288, peaks

    # A run of (scenario, method, t_end, dt, thin) writes ``rows`` rows;
    # simulate hands them to the CSV in buffers of R = STREAM_VALUES //
    # (1 + n) rows. Three routes: Phi_h in blocks of more than one state
    # (the shipped three-variable scenarios, R = 1024); Phi_h one state
    # at a time (rk4 on a 200-edge network, R = 20); the matrix-free
    # field (euler on the 200-edge network, R = 20, and rk4 on a 320-edge
    # one, R = 12). On each: row counts one below, at and one above a
    # multiple of R, a shortened last step, and blow-ups in the first
    # buffer, with the buffer full or just emptied, and off the thin grid.
    FLUSH_CASES = [
        ("canonical_stable", "rk4", "127.875", "0.0625", 1, 2047),
        ("canonical_stable", "rk4", "127.9375", "0.0625", 1, 2048),
        ("canonical_stable", "euler", "128", "0.0625", 1, 2049),
        ("two_firm_network", "euler", "192", "0.0625", 3, 1025),
        ("canonical_stable", "rk4", "63.96875", "0.0625", 1, 1025),
        ("canonical_stable", "rk4", "40", "3", 1, 9),
        ("canonical_stable", "rk4", "40", "3", 7, 3),
        ("two_firm_network", "rk4", "5000", "2.35306", 1, 1024),
        ("two_firm_network", "rk4", "5000", "2.35305", 1, 1025),
        ("net200", "rk4", "0.59375", "0.015625", 1, 39),
        ("net200", "rk4", "0.609375", "0.015625", 1, 40),
        ("net200", "rk4", "0.625", "0.015625", 1, 41),
        ("net200", "rk4", "0.6171875", "0.015625", 1, 41),
        ("net200", "rk4", "100", "0.25", 1, None),
        ("net200", "rk4", "100", "0.16", 2, 20),
        ("net200", "rk4", "100", "0.18", 1, 21),
        ("net200", "rk4", "100", "0.16", 7, 7),
        ("net200", "euler", "0.59375", "0.015625", 1, 39),
        ("net200", "euler", "0.625", "0.015625", 3, 15),
        ("net200", "euler", "100", "0.105", 2, 120),
        ("net200", "euler", "100", "0.105", 3, 81),
        ("net320", "rk4", "0.359375", "0.015625", 1, 24),
        ("net320", "rk4", "0.375", "0.015625", 1, 25),
        ("net320", "rk4", "0.3671875", "0.015625", 1, 25),
        ("net320", "rk4", "100", "0.2", 1, None),
        ("net320", "rk4", "100", "0.1", 2, 48),
        ("net320", "rk4", "100", "0.11", 3, 13),
    ]

    @pytest.mark.parametrize("case", FLUSH_CASES,
                             ids=lambda case: "-".join(map(str, case[:5])))
    def test_streamed_csv_is_the_csv_of_the_held_run(self, case, tmp_path,
                                                     capsys):
        from cournotgraph import (IntegrationBlowUp, NetworkScenario,
                                  NetworkSpec, canonical_affine, to_affine,
                                  variable_names)
        from cournotgraph.dynamics import (STREAM_VALUES, _affine_pays,
                                           _block_length)
        from helpers import network_spec_with_edges, render_scenario
        name, method, t_end, dt, thin, rows = case
        if name.startswith("net"):
            edges = int(name[3:])
            rng = np.random.default_rng(edges)
            markets, firms = {200: (10, 30), 320: (12, 40)}[edges]
            spec = network_spec_with_edges(rng, markets, firms, edges)
            path = tmp_path / f"{name}.scenario"
            path.write_text(render_scenario(NetworkScenario(
                spec, tuple(rng.uniform(0.0, 0.2, edges)))), encoding="utf-8")
        else:
            path = SCENARIO_DIR / f"{name}.scenario"
        scenario = parse_scenario(path.read_text(encoding="utf-8"))
        system = (to_affine(scenario.spec)
                  if isinstance(scenario, NetworkScenario)
                  else canonical_affine(scenario.r))
        names = variable_names(system.variable_order)
        assert (_affine_pays(system, method),
                _block_length(system.dimension) > 1) == {
            "net200": (method == "rk4", False),
            "net320": (False, False)}.get(name, (True, True))
        try:
            want = integrate(system, scenario.q0, float(t_end), float(dt),
                             method, thin)
        except IntegrationBlowUp as exc:
            want = exc.trajectory
        out = tmp_path / "t.csv"
        code = run("simulate", "--scenario", path, "--method", method,
                   "--t-end", t_end, "--dt", dt, "--thin", thin, "--out", out)
        assert code == (0 if want.times[-1] == float(t_end) else 3)
        assert out.read_text(encoding="ascii") == csv_of(want, names)
        if rows is None:    # a blow-up within the first buffer
            rows = len(want.times)
            assert rows < STREAM_VALUES // (1 + len(names))
        assert len(want.times) == rows

    @pytest.mark.parametrize("name, method, t_end", [
        ("canonical_unstable", "euler", 1000), ("net361", "rk4", 10)])
    def test_a_run_holds_one_buffer_of_rows(self, name, method, t_end,
                                            tmp_path, capsys):
        # Every state kept: 10^5 euler steps of canonical_unstable (a
        # table of 3.2 MB) and 1000 rk4 steps of a 361-edge network on
        # the matrix-free field (2.9 MB). Beside its scenario and system,
        # a run holds at most: the renderer of a block of B =
        # STREAM_VALUES values, 153 bytes a value (see
        # test_renderer_working_set_per_value_of_capacity); the
        # buffer of whole rows, at most B values; the march's scratch of
        # rows + 1 states, where a Psi block is one state no more rows
        # than the buffer holds; and the Psi table, m n x n matrices.
        import tracemalloc
        from cournotgraph import NetworkScenario, canonical_affine, to_affine
        from cournotgraph.dynamics import (_BLOCK_ROWS, _affine_pays,
                                           _block_length)
        from cournotgraph.dynamics import _BLOCK_VALUES as MARCH_VALUES
        from cournotgraph.dynamics import STREAM_VALUES as B
        if name == "net361":
            path = tmp_path / "net.scenario"
            _network_scenario(path, 20, 30, seed=3)
        else:
            path = SCENARIO_DIR / f"{name}.scenario"
        out = tmp_path / "t.csv"
        # A first run leaves the one-time caches of the process behind.
        assert run("simulate", "--scenario", path, "--t-end", 0.01,
                   "--out", out) == 0
        peaks = []
        for steps in (0, 100 * t_end):
            tracemalloc.start()
            try:
                if steps:
                    assert run("simulate", "--scenario", path, "--method",
                               method, "--t-end", steps / 100, "--thin", 1,
                               "--out", out) == 0
                else:
                    scenario = parse_scenario(path.read_text(encoding="utf-8"))
                    system = (to_affine(scenario.spec)
                              if isinstance(scenario, NetworkScenario)
                              else canonical_affine(scenario.r))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert len(out.read_text().splitlines()) == 2 + 100 * t_end
        n, m = system.dimension, _block_length(system.dimension)
        rows = min(_BLOCK_ROWS, MARCH_VALUES // n)
        if m == 1:
            rows = min(rows, B // (1 + n))
        psi = m * n * n if _affine_pays(system, method) else 0
        held = (153 * B + 8 * B
                + 8 * (rows + 1) * n + 8 * psi)
        assert peaks[1] <= peaks[0] + held, (peaks, held)

    def test_stored_limit_counts_the_rows_kept(self, monkeypatch, tmp_path,
                                               capsys):
        # 1001 states of 3 variables pass a limit of 1000 values; the
        # 101 rows kept at --thin 10 do not.
        from cournotgraph import dynamics
        monkeypatch.setattr(dynamics, "MAX_STORED_VALUES", 1000)
        out = tmp_path / "t.csv"
        assert run("simulate", "--scenario", STABLE, "--t-end", 10,
                   "--out", out) == 0
        assert len(out.read_text().splitlines()) == 102
        assert run("simulate", "--scenario", STABLE, "--t-end", 10,
                   "--thin", 1, "--out", tmp_path / "full.csv") == 2
        assert "limit of 1000 stored values" in capsys.readouterr().err
        assert not (tmp_path / "full.csv").exists()

    def test_marched_limit_exits_2_before_allocating(self, monkeypatch,
                                                     tmp_path, capsys):
        from cournotgraph.dynamics import MAX_MARCHED_VALUES

        def unreachable(*args, **kwargs):
            raise AssertionError("allocation reached")
        monkeypatch.setattr(np, "empty", unreachable)
        out = tmp_path / "x.csv"
        assert run("simulate", "--scenario", STABLE, "--t-end", 1e9,
                   "--dt", 1, "--thin", 10 ** 9, "--out", out) == 2
        assert (f"limit of {MAX_MARCHED_VALUES} marched values"
                in capsys.readouterr().err)
        assert not out.exists()


class TestPinnedPD:
    """``pd`` writes the same bytes as the kernel of nine passes per step
    that the one key gather and column max replaced."""

    # sha256 of the CSV and of stdout, taken from that kernel; None runs
    # the shipped gas_transit_pd.
    PINNED = {
        None: ("e4935f5236df83da8a859ad02d908f232ada42cdbba9858648f8cb90a4894db8",
               "f1b5bd8dcae7a3e9fc10c8ad7e0fabea4a7eed7ba05a09ab74fa0119f1bc00a5"),
        "payoff = 3, 0, 3.5, 0.5\ngraph = torus 100 100\ninit = random 0.5 414\n"
        "steps = 20\n":
            ("2b9114a26226ad2a6d42280a8481c955ca2e1599b26281c70da0b3e7c5d8807a",
             "5c1db3b7877da24f2fdcea4951e2078820143d60e046ac15359fbc5473ec6fdd"),
        "payoff = 0.2, 0.05, 0.3, 0.1\ngraph = torus 40 40\ninit = random 0.6 1\n"
        "steps = 30\n":
            ("bae05ffb26a77cac0bdd99d6b552fc04adfd1d02239adaa6f09c4e5bb45fa8d7",
             "8e27da097cd3c0d2ae58d3041645b7d1b7cc5e48a1456230aea07b96e23928e4"),
        "payoff = 3, 0, 5, 1\ngraph = complete 400\ninit = random 0.5 27\n"
        "steps = 5\nside_payment = 2.5\n":
            ("8efffc2542bb1d9c5a617b65f0dc6f72915f53e542852fc6cb1edb26ec5ccf7d",
             "2f931872b210cf4b5ac163605540f8d6762f45290787ec2b799a8ace03e249c0"),
    }

    @pytest.mark.parametrize("text", PINNED, ids=["gas_transit", "torus100",
                                                  "torus40", "complete400"])
    def test_pd_csv_and_stdout_bytes_are_pinned(self, text, tmp_path, capsys):
        scenario = PD
        if text is not None:
            scenario = tmp_path / "pd.scenario"
            scenario.write_text("[pd]\n" + text)
        out = tmp_path / "pd.csv"
        assert run("pd", "--scenario", scenario, "--out", out) == 0
        stdout = capsys.readouterr().out.encode()
        assert (hashlib.sha256(out.read_bytes()).hexdigest(),
                hashlib.sha256(stdout).hexdigest()) == self.PINNED[text]


class TestOutputFiles:
    @pytest.mark.parametrize("argv", [
        ("simulate", "--scenario", STABLE),
        ("simulate", "--scenario", STABLE, "--dt", 3, "--t-end", 40),
        ("sweep", "--scenario", STABLE, "--param", "r3", "--from", 0.1,
         "--to", 1.5, "--points", 5),
        ("pd", "--scenario", PD),
    ], ids=["simulate", "simulate-blowup", "sweep", "pd"])
    def test_unwritable_out_exits_2(self, argv, tmp_path, capsys):
        out = tmp_path / "missing" / "out.csv"
        assert run(*argv, "--out", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output file: ")
        assert str(out) in err


def _network_scenario(path, markets: int, firms: int, seed: int,
                      complete: bool = False):
    """Write a random [network] scenario; return its parsed form."""
    from cournotgraph import NetworkScenario, NetworkSpec
    from helpers import network_spec_of_shape, render_scenario
    rng = np.random.default_rng(seed)
    spec = network_spec_of_shape(rng, markets, firms)
    if complete:
        spec = NetworkSpec(markets, firms,
                           tuple((i, j) for i in range(1, markets + 1)
                                 for j in range(1, firms + 1)),
                           spec.alpha, spec.beta, spec.gamma, spec.speed)
    q0 = tuple(rng.uniform(0.0, 0.2, len(set(as_pairs(spec.edges)))))
    path.write_text(render_scenario(NetworkScenario(spec, q0)),
                    encoding="utf-8")
    return parse_scenario(path.read_text(encoding="utf-8"))


class TestNetworkRoutes:
    """Networks past 300 edges simulate on the incidence structure, and
    every network solves its equilibrium there; A itself is never
    filled, and the margin of a stability report fills the symmetric H,
    once, only where the network has no more edges than firms and
    markets (n <= k)."""

    def test_simulate_never_fills_the_dense_matrix(self, monkeypatch,
                                                   tmp_path, capsys):
        from cournotgraph.network import EdgeIncidence
        path = tmp_path / "net.scenario"
        scenario = _network_scenario(path, 20, 30, seed=3)
        assert len(scenario.q0) > 50  # n > k: the margin takes no H either

        def forbidden(self):
            raise AssertionError("dense matrix filled")
        monkeypatch.setattr(EdgeIncidence, "dense", forbidden)
        monkeypatch.setattr(EdgeIncidence, "dense_symmetric", forbidden)
        for method in ("rk4", "euler"):
            assert run("simulate", "--scenario", path, "--t-end", 1,
                       "--method", method, "--out", tmp_path / "t.csv") == 0
        assert run("equilibrium", "--scenario", path) == 0
        assert run("stability", "--scenario", path) == 0

    # sha256 of `stability`'s stdout on matching networks (n <= k; the
    # second has n = k = 80), taken before the margin moved to the k side
    # where k < n: a network with n <= k keeps eigvalsh of H, bit for bit.
    SMALL_PINNED = {
        (12, 3): "48ec7472a60768f04a62eaa3cd6cc1a296e15bd9f89f78890297c9e29e3191bd",
        (40, 40): "ae1347ac3674bf0ba8cd8d496d6cfd2177b283419ed22d0182ca43aa5f96e6c3",
    }

    def test_networks_up_to_k_edges_keep_their_report_bytes(self, tmp_path,
                                                           capsys):
        from cournotgraph import NetworkScenario
        from helpers import matching_spec, render_scenario
        assert run("stability", "--scenario", NETWORK) == 0
        assert capsys.readouterr().out == (
            "equilibrium:\n"
            "  q11 = 1.8305084745762707\n"
            "  q21 = 0.8474576271186445\n"
            "  q22 = 0.7457627118644067\n"
            "characteristic coefficients (Jacobian):\n"
            "  a1 = 2.2\n"
            "  a2 = 1.45\n"
            "  a3 = 0.295\n"
            "  Routh-Hurwitz checks:\n"
            "    a1 > 0       PASS\n"
            "    a3 > 0       PASS\n"
            "    a1*a2 > a3   PASS\n"
            "eigenvalue margin (max Re): -0.4199390510070074\n"
            "verdict: STABLE\n")
        rng = np.random.default_rng(74)
        for (pairs, cross), digest in self.SMALL_PINNED.items():
            spec = matching_spec(rng, pairs, cross)
            path = tmp_path / "matching.scenario"
            path.write_text(render_scenario(NetworkScenario(
                spec, (0.0,) * (pairs + cross))), encoding="utf-8")
            assert run("stability", "--scenario", path) == 0
            out = capsys.readouterr().out
            assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_past_the_dense_limit_on_the_structure(self, monkeypatch, tmp_path,
                                                   capsys):
        from cournotgraph.network import EdgeIncidence
        path = tmp_path / "big.scenario"
        _network_scenario(path, 40, 80, seed=7, complete=True)  # 3200 edges

        def forbidden(self):
            raise AssertionError("dense matrix filled")
        monkeypatch.setattr(EdgeIncidence, "dense", forbidden)
        assert run("simulate", "--scenario", path, "--t-end", 0.05,
                   "--out", tmp_path / "t.csv") == 0
        capsys.readouterr()
        assert run("equilibrium", "--scenario", path) == 0
        flows = capsys.readouterr().out.splitlines()
        assert len(flows) == 3200
        assert run("stability", "--scenario", path) == 0
        report = capsys.readouterr().out.splitlines()
        assert report[1:3201] == ["  " + line for line in flows]
        assert not any(line.startswith("  a") for line in report)
        assert report[3201:] == [
            "characteristic coefficients (Jacobian):",
            "  Routh-Hurwitz checks: n/a (system is not cubic; verdict rests "
            "on the eigenvalue margin)",
            report[-2], "verdict: STABLE"]
        assert report[-2].startswith("eigenvalue margin (max Re): -")

    def test_badly_conditioned_network_exits_3_with_no_output(self, tmp_path,
                                                             capsys):
        path = tmp_path / "ill.scenario"
        path.write_text(NETWORK.read_text().replace("beta = 0.2, 0.3",
                                                    "beta = 1e-13, 0.3"))
        for command in ("equilibrium", "stability"):
            assert run(command, "--scenario", path) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(
                "error: no unique equilibrium: matrix condition number bound ")

    @pytest.mark.parametrize("beta, gamma, reason", [
        ("1e-308", "1e308", "matrix condition number bound inf exceeds 1e+12"),
        ("5e-324", "5e-324", "solve residual nan too large")],
        ids=["bound_overflows", "refinement_goes_nan"])
    def test_extreme_one_edge_network_exits_3_with_one_error_line(
            self, beta, gamma, reason, tmp_path, capsys):
        # The bound's division overflows, or the refinement adds inf to
        # -inf; neither may print a numpy warning (tier-1 makes one an
        # error) before the refusal.
        path = tmp_path / "extreme.scenario"
        path.write_text(f"[network]\nmarkets = 1\nfirms = 1\nedges = 1:1\n"
                        f"alpha = 1\nbeta = {beta}\ngamma = {gamma}\nq0 = 0\n")
        for command in ("equilibrium", "stability"):
            assert run(command, "--scenario", path) == 3
            assert capsys.readouterr() == (
                "", f"error: no unique equilibrium: {reason}\n")

    def test_matching_network_with_spread_speeds_solves_on_s(self, monkeypatch,
                                                             tmp_path, capsys):
        # n = 43 <= k = 80, with the limit between n^2 and k^2: S is
        # factored, not A, so speeds of 1e-7 and 1e7 leave the solve
        # exact (a dense LU of A would find cond(A) past 1e12).
        from cournotgraph import NetworkScenario, network
        from helpers import (matching_spec, record_factored_sizes,
                             render_scenario, to_affine_by_loop)
        rng = np.random.default_rng(17)
        spec = matching_spec(rng, 40, speed=10.0 ** rng.choice([-7, 7], 40))
        path = tmp_path / "matching.scenario"
        path.write_text(render_scenario(NetworkScenario(spec, (0.0,) * 43)),
                        encoding="utf-8")
        monkeypatch.setattr(network, "MAX_DENSE_VALUES", 43 ** 2)
        sizes = record_factored_sizes(monkeypatch)
        assert run("equilibrium", "--scenario", path) == 0
        assert set(sizes) == {43}
        got = [float(line.split(" = ")[1])
               for line in capsys.readouterr().out.splitlines()]
        c, a = to_affine_by_loop(dataclasses.replace(spec, speed=(1.0,) * 40))
        want = np.linalg.solve(a, c)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_size_refusal_exits_2_exactly_past_the_limit(self, monkeypatch,
                                                        tmp_path, capsys):
        from cournotgraph import network
        rng = np.random.default_rng(19)
        for seed in range(8):
            markets, firms = (int(v) for v in rng.integers(1, 9, 2))
            scenario = _network_scenario(tmp_path / "net.scenario", markets,
                                         firms, seed=seed)
            n, k = len(scenario.q0), markets + firms
            for limit in (min(n, k) ** 2 - 1, min(n, k) ** 2):
                monkeypatch.setattr(network, "MAX_DENSE_VALUES", limit)
                for command in ("equilibrium", "stability"):
                    code = run(command, "--scenario", tmp_path / "net.scenario")
                    err = capsys.readouterr().err
                    assert code == (2 if min(n, k) ** 2 > limit else 0), err
                    assert (code == 2) == err.startswith(
                        f"error: a network of {n} edges and {k} firms and "
                        f"markets needs ")

    def test_ten_thousand_edges_never_fill_the_dense_matrix(self, monkeypatch,
                                                            tmp_path, capsys):
        from cournotgraph.network import EdgeIncidence
        path = tmp_path / "huge.scenario"
        _network_scenario(path, 100, 100, seed=11, complete=True)

        def forbidden(self):
            raise AssertionError("dense matrix filled")
        monkeypatch.setattr(EdgeIncidence, "dense", forbidden)
        for command in ("equilibrium", "stability"):
            assert run(command, "--scenario", path) == 0
        out = capsys.readouterr().out
        assert out.count("q100_100 = ") == 2
        assert "verdict: STABLE" in out

    def test_clustered_poles_past_the_dense_limit(self, monkeypatch, tmp_path,
                                                  capsys):
        # 3249 edges whose poles b_e beta_e are all distinct and within
        # 2e-6 of each other: the bisection factors nothing larger than
        # the 114 firms and markets.
        from cournotgraph import NetworkScenario, NetworkSpec
        from cournotgraph.network import EdgeIncidence
        from helpers import record_factored_sizes, render_scenario
        w = 57
        spec = NetworkSpec(w, w, tuple((i, j) for i in range(1, w + 1)
                                       for j in range(1, w + 1)),
                           (1.0,) * w, tuple(1.0 + 1e-6 * i / w for i in range(w)),
                           (1.0,) * w, tuple(1.0 + 1e-7 * j / w for j in range(w)))
        path = tmp_path / "cluster.scenario"
        path.write_text(render_scenario(NetworkScenario(spec, (0.0,) * w * w)),
                        encoding="utf-8")

        def forbidden(self):
            raise AssertionError("dense matrix filled")
        monkeypatch.setattr(EdgeIncidence, "dense", forbidden)
        monkeypatch.setattr(EdgeIncidence, "dense_symmetric", forbidden)
        sizes = record_factored_sizes(monkeypatch)
        for command in ("equilibrium", "stability"):
            assert run(command, "--scenario", path) == 0
        assert max(sizes) <= 2 * w
        report = capsys.readouterr().out.splitlines()
        assert report[-2].startswith("eigenvalue margin (max Re): -1.00000000")
        assert report[-1] == "verdict: STABLE"

    def test_blowup_contract_on_the_matrix_free_route(self, tmp_path, capsys):
        from cournotgraph import IntegrationBlowUp, integrate, to_affine
        from helpers import dense_field
        path = tmp_path / "net.scenario"
        scenario = _network_scenario(path, 25, 35, seed=5)
        out = tmp_path / "partial.csv"
        assert run("simulate", "--scenario", path, "--dt", 0.5, "--t-end", 50,
                   "--thin", 1, "--out", out) == 3
        system = to_affine(scenario.spec)
        assert system.dimension >= 500
        with pytest.raises(IntegrationBlowUp) as info:
            integrate(dense_field(system), scenario.q0, 50.0, 0.5)
        assert (f"error: state blew up at t={info.value.time!r} "
                in capsys.readouterr().err)
        got = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        want = info.value.trajectory
        assert np.array_equal(got[:, 0], want.times)
        assert np.all(np.isfinite(got))
        scale = np.maximum(1.0, np.max(np.abs(want.states), axis=1))
        gap = np.max(np.abs(got[:, 1:] - want.states), axis=1) / scale
        assert float(np.max(gap)) <= 1e-12

    @pytest.mark.parametrize("name", ["canonical_stable", "canonical_unstable",
                                      "two_firm_network"])
    @pytest.mark.parametrize("method", ["rk4", "euler"])
    def test_small_systems_keep_the_dense_bytes(self, name, method, tmp_path):
        # Below the size rule every system steps Phi_h on its dense
        # matrix, so its CSV equals a run of the dense system itself.
        from cournotgraph import (AffineSystem, NetworkScenario,
                                  canonical_affine, integrate, variable_names)
        from helpers import to_affine_by_loop
        path = SCENARIO_DIR / f"{name}.scenario"
        scenario = parse_scenario(path.read_text(encoding="utf-8"))
        if isinstance(scenario, NetworkScenario):
            c, a = to_affine_by_loop(scenario.spec)
            order = tuple(sorted(set(as_pairs(scenario.spec.edges))))
            system = AffineSystem(c, a, order)
        else:
            system = canonical_affine(scenario.r)
        want = csv_of(integrate(system, scenario.q0, 200.0, 0.01, method,
                                thin=10),
                      variable_names(system.variable_order))
        out = tmp_path / "t.csv"
        assert run("simulate", "--scenario", path, "--method", method,
                   "--out", out) == 0
        assert out.read_text(encoding="utf-8") == want


def _network_text(markets: int, firms: int, edge_count: int, seed: int) -> str:
    """A [network] scenario written without the library: each firm on a
    random market, each market still without an edge on a random firm,
    random edges up to the count, all listed in a shuffled order."""
    import random
    rng = random.Random(seed)
    edges = {(rng.randint(1, markets), j) for j in range(1, firms + 1)}
    for i in sorted(set(range(1, markets + 1)) - {i for i, _ in edges}):
        edges.add((i, rng.randint(1, firms)))
    while len(edges) < edge_count:
        edges.add((rng.randint(1, markets), rng.randint(1, firms)))
    edges = sorted(edges)
    rng.shuffle(edges)

    def values(count, low, high):
        return ", ".join(repr(rng.uniform(low, high)) for _ in range(count))
    return (f"[network]\nmarkets = {markets}\nfirms = {firms}\n"
            f"edges = {', '.join(f'{i}:{j}' for i, j in edges)}\n"
            f"alpha = {values(markets, 1.0, 2.0)}\n"
            f"beta = {values(markets, 0.2, 1.0)}\n"
            f"gamma = {values(firms, 0.1, 0.5)}\n"
            f"speed = {values(firms, 0.5, 1.5)}\n"
            f"q0 = {values(edge_count, 0.0, 0.1)}\n")


class TestPinnedNetwork:
    """Network outputs pinned by sha256 before a spec held its edges and
    parameters as arrays: one network of at most 300 edges (``simulate``
    steps Phi_h) and one past 300 (it steps the field)."""

    NETWORKS = {200: (12, 20, 200, 31), 340: (15, 25, 340, 32)}
    PINNED = {
        (200, "equilibrium"):
            "79e562c5bd24fb05ac18557e043dfc38c1c19bfe42957c2697c6c895b6a6d94d",
        (200, "stability"):
            "e70b773d27d3ffd8fbadd0cb55e66b2b31b32751796ceb7ac04f1f0e1a68b8cd",
        (200, "simulate"):
            "93808814232c00faed9fcbd34b1744aeeea5c53b1f716b2c5d61bfa87418e7a8",
        (340, "equilibrium"):
            "9ca674480cb29097bb79b0297c2074776ee57bcebe4c36f1091851b9c579ddfa",
        (340, "stability"):
            "fe42dad7fc5c24345fdc9b16b2e8feb9e98537d632a97e4925bd52712df3a079",
        (340, "simulate"):
            "81761895095e7794205b47324efa0c34210adbc626840e9ed8ae4a63dd5c399a",
    }

    @pytest.mark.parametrize("edges, command", list(PINNED))
    def test_network_output_bytes_are_pinned(self, edges, command, tmp_path,
                                             capsys):
        path = tmp_path / "net.scenario"
        path.write_text(_network_text(*self.NETWORKS[edges]), encoding="utf-8")
        out = tmp_path / "t.csv"
        argv = ["--t-end", 1, "--out", out] if command == "simulate" else []
        assert run(command, "--scenario", path, *argv) == 0
        data = out.read_bytes() if command == "simulate" else \
            capsys.readouterr().out.encode()
        assert hashlib.sha256(data).hexdigest() == self.PINNED[edges, command]

    # The exact stderr of one invalid [network] scenario per kind of
    # message, taken before a spec held its edges as an array.
    INVALID = {
        "edges = 1:1, 1.5:2": "error: line 4: edges: '1.5' is not an integer\n",
        "edges = 1:1, 100000000000000000000:2":
            "error: invalid [network] values: edge (100000000000000000000,2) "
            "references unknown market 100000000000000000000; market 2 appears "
            "in no edge\n",
        "edges = 1:1, 3:2":
            "error: invalid [network] values: edge (3,2) references unknown "
            "market 3; market 2 appears in no edge\n",
        "edges = 1:1, 2:3":
            "error: invalid [network] values: edge (2,3) references unknown "
            "firm 3; firm 2 appears in no edge\n",
        "edges = 1:1, 2:2, 1:1":
            "error: invalid [network] values: duplicate edge (1,1)\n",
        "edges = 1:1, 1:2":
            "error: invalid [network] values: market 2 appears in no edge\n",
        "edges = 1:1, 2:1":
            "error: invalid [network] values: firm 2 appears in no edge\n",
        "markets = 3\nedges = 1:1, 2:2":
            "error: invalid [network] values: market 3 appears in no edge: 3 "
            "markets need at least 3 edges, got 2\n",
    }

    @pytest.mark.parametrize("edit", list(INVALID))
    def test_invalid_network_stderr_is_pinned(self, edit, tmp_path, capsys):
        text = ("[network]\nmarkets = 2\nfirms = 2\nedges = 1:1, 2:2\n"
                "alpha = 1, 1\nbeta = 1, 1\ngamma = 1, 1\nq0 = 0, 0\n")
        if edit.startswith("markets"):
            text = text.replace("markets = 2\n", "").replace(
                "edges = 1:1, 2:2", edit)
        else:
            text = text.replace("edges = 1:1, 2:2", edit)
        path = tmp_path / "bad.scenario"
        path.write_text(text, encoding="utf-8")
        assert run("equilibrium", "--scenario", path) == 2
        assert capsys.readouterr().err == self.INVALID[edit]


class TestReadmeLimits:
    """README's "CLI" section quotes each limit of the commands at its
    value: every ``module.MAX_*`` it names exists and equals the number
    quoted just before the parenthesis that names it."""

    SECTION = ((SCENARIO_DIR.parent / "README.md").read_text(encoding="utf-8")
               .split("## CLI\n", 1)[1].split("\n## ", 1)[0])
    LIMITS = ("dynamics.MAX_STORED_VALUES", "dynamics.MAX_MARCHED_VALUES",
              "network.MAX_DENSE_VALUES", "reports.MAX_SWEEP_POINTS")

    def test_quotes_each_limit_at_its_value(self):
        # The parenthesis may hold text and nested parentheses before
        # the name, as in "((steps + 1) x variables, `...`)".
        quoted = re.findall(r"(\d[\d\s]*\d)\s[a-z\s-]*"
                            r"\((?:[^`()]|\([^`()]*\))*`(\w+\.MAX_\w+)`",
                            self.SECTION)
        assert sorted(name for _, name in quoted) == sorted(self.LIMITS)
        assert set(re.findall(r"`(\w+\.MAX_\w+)`", self.SECTION)) == set(self.LIMITS)
        for value, name in quoted:
            module, constant = name.split(".")
            got = getattr(importlib.import_module(f"cournotgraph.{module}"),
                          constant)
            assert int(re.sub(r"\s", "", value)) == got, name


def test_readme_cli_block_runs(tmp_path, monkeypatch, capsys):
    # Every command of README's "CLI" block, its backslash continuations
    # joined, exits 0 as written, with scenarios/ made absolute, from an
    # empty directory that takes the files it writes. One sweep has a
    # negative bound in exponent form.
    section = ((SCENARIO_DIR.parent / "README.md").read_text(encoding="utf-8")
               .split("## CLI\n", 1)[1].split("\n## ", 1)[0])
    block = section.split("```\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("cournotgraph ")]
    assert len(commands) >= 6 and any("-1e-3" in command for command in commands)
    monkeypatch.chdir(tmp_path)
    for command in commands:
        argv = [arg.replace("scenarios/", f"{SCENARIO_DIR}/", 1)
                if arg.startswith("scenarios/") else arg for arg in command[1:]]
        assert main(argv) == 0, command
    capsys.readouterr()


def test_readme_library_example_runs():
    # README's "Library" section runs as written against the package.
    from cournotgraph import Outcome, Stability
    section = ((SCENARIO_DIR.parent / "README.md").read_text(encoding="utf-8")
               .split("## Library\n", 1)[1].split("\n## ", 1)[0])
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    names: dict = {}
    exec(code, names)
    assert names["report"].verdict is Stability.STABLE
    assert names["verdict"].outcome is Outcome.CONVERGED


# Runs every command on the shipped scenarios in a fresh interpreter and
# prints the top-level modules loaded since start-up that are neither in
# the standard library nor numpy or the package itself. Modules loaded at
# start-up (site's .pth hooks) belong to the interpreter, not the package.
LOADED_MODULES = """
import json, sys
before = {name.partition(".")[0] for name in sys.modules}
from cournotgraph.cli import main
scenarios, out = sys.argv[1:]
stable, network, pd = (f"{scenarios}/{name}.scenario" for name in
                       ("canonical_stable", "two_firm_network", "gas_transit_pd"))
codes = [main(argv) for argv in (
    ["simulate", "--scenario", stable, "--t-end", "1", "--out", out],
    ["simulate", "--scenario", network, "--t-end", "1", "--out", out],
    ["equilibrium", "--scenario", network],
    ["stability", "--scenario", stable],
    ["stability", "--scenario", network],
    ["sweep", "--scenario", stable, "--param", "r3", "--from", "0.1",
     "--to", "1.5", "--points", "5", "--out", out],
    ["pd", "--scenario", pd, "--out", out])]
allowed = set(sys.stdlib_module_names) | {"numpy", "cournotgraph"}
loaded = {name.partition(".")[0] for name in sys.modules} - before
print(json.dumps({"codes": codes, "foreign": sorted(loaded - allowed)}))
"""


class TestRuntimeDependencies:
    def test_commands_load_only_the_stdlib_and_numpy(self, tmp_path):
        done = subprocess.run(
            [sys.executable, "-c", LOADED_MODULES, str(SCENARIO_DIR),
             str(tmp_path / "out.csv")],
            capture_output=True, text=True, timeout=120, cwd=tmp_path,
            env={**os.environ,
                 "PYTHONPATH": str(SCENARIO_DIR.parent / "src")})
        assert done.returncode == 0, done.stderr
        record = json.loads(done.stdout.splitlines()[-1])
        assert record == {"codes": [0] * 7, "foreign": []}

    def test_the_package_import_loads_no_command_path(self):
        # The bench's setup_s ends at ``import cournotgraph``: the library
        # modules load there, and the CLI, its writers and argparse load
        # with ``cournotgraph.cli``.
        done = subprocess.run(
            [sys.executable, "-c", "import json, sys, cournotgraph; "
             "print(json.dumps(sorted(sys.modules)))"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(SCENARIO_DIR.parent / "src")})
        assert done.returncode == 0, done.stderr
        loaded = json.loads(done.stdout)
        assert [name for name in loaded if name.startswith("cournotgraph.")] == [
            f"cournotgraph.{name}" for name in
            ("cournot", "dynamics", "network", "pdgame", "scenario", "stability")]
        assert {"numpy", "dataclasses"} <= set(loaded)
        assert "argparse" not in loaded
