"""Per-layer spans and counters, installed from outside the package.

Each wrapper replaces the binding its caller actually looks up: names
that ``cli`` and ``reports`` imported with ``from .x import f``, the
module globals that ``stability.analyze`` and ``pdgame.run_spatial``
call, ``dynamics._STEPPERS``, and the class attributes
``AffineSystem.field_at``, ``PDScenario.build_graph``,
``PDScenario.build_population`` and ``PlayerGraph.neighbors``.
A span's self time is its duration minus the time of the wrapped spans
it encloses.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

# Unit of each per-layer metric that Tracer.metrics reports.
UNITS = {
    "cli.self_s": "s", "scenario.parse_s": "s", "network.to_affine_s": "s",
    "cournot.vector_field_s": "s", "dynamics.integrate_s": "s",
    "dynamics.steps": "count", "dynamics.step_us": "us",
    "dynamics.field_evals": "count", "stability.analyze_s": "s",
    "stability.analyze_calls": "count", "stability.char_poly_s": "s",
    "stability.eigen_margin_s": "s", "stability.equilibrium_s": "s",
    "reports.write_trajectory_s": "s", "reports.sweep_self_s": "s",
    "reports.render_s": "s", "reports.bytes_out": "B",
    "pdgame.graph_build_s": "s", "pdgame.scores_s": "s",
    "pdgame.imitation_step_s": "s", "pdgame.player_updates": "count",
    "pdgame.update_ns": "ns",
}

_RENDERERS = ("render_equilibrium", "render_stability_report",
              "render_side_payment", "sweep_csv", "pd_series_csv")


class Tracer:
    def __init__(self):
        self._stack: list[list[float]] = []
        self.reset()

    def reset(self) -> None:
        self.inclusive: defaultdict[str, float] = defaultdict(float)
        self.own: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()

    def timed(self, name: str, fn):
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self.inclusive[name] += elapsed
                self.own[name] += elapsed - children[0]
                self.calls[name] += 1
                if stack:
                    stack[-1][0] += elapsed
        return span

    def counted(self, name: str, fn):
        @functools.wraps(fn)
        def count(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return count

    def metrics(self, bytes_out: int) -> dict[str, float]:
        """The per-layer metrics of everything since the last reset."""
        inc, own, counts = self.inclusive, self.own, self.counts
        steps = counts["steps"]
        updates = counts["player_updates"]
        update_s = own["imitation_step"] + own["scores"]
        return {
            "cli.self_s": own["cli"],
            "scenario.parse_s": own["parse"],
            "network.to_affine_s": inc["to_affine"],
            "cournot.vector_field_s": inc["vector_field"],
            "dynamics.integrate_s": inc["integrate"],
            "dynamics.steps": steps,
            "dynamics.step_us": inc["integrate"] / steps * 1e6 if steps else 0.0,
            "dynamics.field_evals": counts["field_evals"],
            "stability.analyze_s": inc["analyze"],
            "stability.analyze_calls": self.calls["analyze"],
            "stability.char_poly_s": inc["char_poly"],
            "stability.eigen_margin_s": inc["eigen_margin"],
            "stability.equilibrium_s": inc["equilibrium"],
            "reports.write_trajectory_s": inc["write_trajectory"],
            "reports.sweep_self_s": own["sweep"],
            "reports.render_s": inc["render"],
            "reports.bytes_out": bytes_out,
            "pdgame.graph_build_s": inc["build_graph"] + inc["neighbors"],
            "pdgame.scores_s": own["scores"],
            "pdgame.imitation_step_s": own["imitation_step"],
            "pdgame.player_updates": updates,
            "pdgame.update_ns": update_s / updates * 1e9 if updates else 0.0,
        }


def install(tracer: Tracer):
    """Wrap the package's layers; return the traced ``cli.main``."""
    from cournotgraph import (cli, cournot, dynamics, network, pdgame, reports,
                              scenario, stability)
    timed = tracer.timed

    cli.parse_scenario = timed("parse", cli.parse_scenario)
    cli.to_affine = timed("to_affine", cli.to_affine)
    cli.integrate = timed("integrate", cli.integrate)
    cli.write_trajectory = timed("write_trajectory", cli.write_trajectory)
    cli.sweep = timed("sweep", cli.sweep)
    cli.run_spatial = timed("run_spatial", cli.run_spatial)
    analyze = timed("analyze", stability.analyze)
    cli.analyze = analyze
    reports.analyze = analyze
    for name in _RENDERERS:
        setattr(cli, name, timed("render", getattr(cli, name)))
    for name in ("equilibrium", "char_poly", "eigen_margin"):
        setattr(stability, name, timed(name, getattr(stability, name)))

    for method, step in list(dynamics._STEPPERS.items()):
        dynamics._STEPPERS[method] = tracer.counted("steps", step)
    network.AffineSystem.field_at = tracer.counted(
        "field_evals", network.AffineSystem.field_at)
    cournot.vector_field = timed("vector_field", cournot.vector_field)

    scenario.PDScenario.build_graph = timed(
        "build_graph", scenario.PDScenario.build_graph)
    scenario.PDScenario.build_population = timed(
        "build_population", scenario.PDScenario.build_population)
    neighbors = functools.cached_property(
        timed("neighbors", pdgame.PlayerGraph.neighbors.func))
    neighbors.__set_name__(pdgame.PlayerGraph, "neighbors")
    pdgame.PlayerGraph.neighbors = neighbors
    imitation_step = pdgame.imitation_step

    def counted_step(state, m):
        tracer.counts["player_updates"] += state.graph.player_count
        return imitation_step(state, m)
    pdgame.imitation_step = timed("imitation_step", counted_step)
    pdgame.scores = timed("scores", pdgame.scores)
    return timed("cli", cli.main)
