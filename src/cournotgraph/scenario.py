"""Scenario files: a tiny sectioned key=value text format.

One section header per file -- ``[network]``, ``[canonical]`` or
``[pd]`` -- followed by ``key = value`` lines. ``#`` starts a comment,
lists are comma-separated. The format is deliberately minimal so that
files are bit-exact to specify and trivial to parse anywhere.

    [canonical]
    r = 0.2, 0.5, 1.5, -0.3, 0.4     # r1..r5
    q0 = 0.1, 0.2, 0.3               # q11, q22, q21

    [network]                         # q0 follows the canonical edge order
    markets = 2
    firms = 2
    edges = 1:1, 2:1, 2:2             # market:firm, 1-based
    alpha = 1, 1
    beta = 0.2, 0.3
    gamma = 0.1, 0.4
    speed = 1, 1                      # optional, defaults to 1 per firm
    q0 = 0.1, 0.3, 0.2

    [pd]                              # players are 0-based
    payoff = 3, 0, 5, 1               # R, S, T, U
    graph = torus 21 21               # complete N | cycle N | torus W H | edges i-j,...
    init = random 0.5 1               # all_c | all_d | single_defector | random FRAC SEED
    steps = 200
    side_payment = 2.5                # optional

``parse_scenario`` rejects unknown keys, duplicate keys and invariant
violations with the offending line or field named;
``render_scenario`` writes the normalized form back out. A ``[pd]``
graph with more than ``MAX_PLAYERS`` players or ``MAX_PLAYER_EDGES``
edges is rejected before it is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .network import NetworkSpec, canonical_edge_order, validate
from .pdgame import (PayoffMatrix, PlayerGraph, PopulationState,
                     all_cooperate, all_defect, complete_graph, cycle_graph,
                     player_graph, random_population, single_defector,
                     torus_graph)
from .stability import CanonicalParams


# Graph building costs Python objects per player and per edge, so the
# sizes a [pd] scenario may ask for are bounded (complete 1414 and
# torus 707 707 still fit).
MAX_PLAYERS = 1_000_000
MAX_PLAYER_EDGES = 1_000_000


class ScenarioError(ValueError):
    """Malformed or invalid scenario text."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


@dataclass(frozen=True)
class NetworkScenario:
    spec: NetworkSpec
    q0: tuple[float, ...]


@dataclass(frozen=True)
class CanonicalScenario:
    r: CanonicalParams
    q0: tuple[float, float, float]


@dataclass(frozen=True)
class PDScenario:
    payoff: PayoffMatrix
    graph: tuple          # ("complete", n) | ("cycle", n) | ("torus", w, h) | ("edges", pairs)
    init: tuple           # ("all_c",) | ("all_d",) | ("single_defector",) | ("random", frac, seed)
    steps: int
    side_payment: float | None = None

    def build_graph(self) -> PlayerGraph:
        """The scenario's player graph. It is built on the first call and
        kept on this object, so parse-time validation and the run share
        one build; equality still compares the fields only."""
        return self._player_graph

    @cached_property
    def _player_graph(self) -> PlayerGraph:
        kind = self.graph[0]
        if kind == "complete":
            return complete_graph(self.graph[1])
        if kind == "cycle":
            return cycle_graph(self.graph[1])
        if kind == "torus":
            return torus_graph(self.graph[1], self.graph[2])
        return player_graph(self.graph_size()[0], self.graph[1])

    def graph_size(self) -> tuple[int, int]:
        """(players, edges at most) of the graph form, without building
        it. Negative sizes count as 0; the builders reject them."""
        kind = self.graph[0]
        if kind == "complete":
            n = max(self.graph[1], 0)
            return n, n * (n - 1) // 2
        if kind == "cycle":
            return self.graph[1], self.graph[1]
        if kind == "torus":
            players = max(self.graph[1], 0) * max(self.graph[2], 0)
            return players, 2 * players
        pairs = self.graph[1]
        return max(max(pair) for pair in pairs) + 1, len(pairs)

    def build_population(self, graph: PlayerGraph) -> PopulationState:
        kind = self.init[0]
        if kind == "all_c":
            return all_cooperate(graph)
        if kind == "all_d":
            return all_defect(graph)
        if kind == "single_defector":
            return single_defector(graph)
        return random_population(graph, self.init[1], self.init[2])


Scenario = NetworkScenario | CanonicalScenario | PDScenario

_KEYS = {
    "network": {"markets", "firms", "edges", "alpha", "beta", "gamma",
                "speed", "q0"},
    "canonical": {"r", "q0"},
    "pd": {"payoff", "graph", "init", "steps", "side_payment"},
}
_REQUIRED = {
    "network": ("markets", "firms", "edges", "alpha", "beta", "gamma", "q0"),
    "canonical": ("r", "q0"),
    "pd": ("payoff", "graph", "init", "steps"),
}


def _float(token: str, line: int, key: str) -> float:
    try:
        v = float(token)
    except ValueError:
        raise ScenarioError(f"{key}: '{token}' is not a number", line) from None
    if not math.isfinite(v):
        raise ScenarioError(f"{key}: values must be finite, got {token}", line)
    return v


def _int(token: str, line: int, key: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ScenarioError(f"{key}: '{token}' is not an integer", line) from None


def _floats(value: str, line: int, key: str) -> tuple[float, ...]:
    return tuple(_float(t.strip(), line, key) for t in value.split(","))


def _pairs(value: str, sep: str, line: int, key: str) -> tuple[tuple[int, int], ...]:
    pairs = []
    for token in value.split(","):
        token = token.strip()
        left, found, right = token.partition(sep)
        if not found:
            raise ScenarioError(f"{key}: expected '<a>{sep}<b>', got '{token}'", line)
        pairs.append((_int(left.strip(), line, key), _int(right.strip(), line, key)))
    return tuple(pairs)


def parse_scenario(text: str) -> Scenario:
    section: str | None = None
    entries: dict[str, tuple[str, int]] = {}
    for lineno, raw in enumerate(text.lstrip("﻿").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ScenarioError("malformed section header", lineno)
            name = line[1:-1].strip()
            if name not in _KEYS:
                raise ScenarioError(f"unknown section [{name}]", lineno)
            if section is not None:
                raise ScenarioError("multiple sections in one file", lineno)
            section = name
            continue
        key, found, value = line.partition("=")
        if not found:
            raise ScenarioError("expected 'key = value'", lineno)
        if section is None:
            raise ScenarioError("key before any section header", lineno)
        key, value = key.strip(), value.strip()
        if key not in _KEYS[section]:
            raise ScenarioError(f"unknown key '{key}' in [{section}]", lineno)
        if key in entries:
            raise ScenarioError(f"duplicate key '{key}'", lineno)
        entries[key] = (value, lineno)

    if section is None:
        raise ScenarioError("no section header found")
    for key in _REQUIRED[section]:
        if key not in entries:
            raise ScenarioError(f"missing key '{key}' in [{section}]")
    builder = {"network": _build_network, "canonical": _build_canonical,
               "pd": _build_pd}[section]
    return builder(entries)


def _build_network(entries) -> NetworkScenario:
    markets = _int(*entries["markets"], "markets")
    firms = _int(*entries["firms"], "firms")
    edges = _pairs(entries["edges"][0], ":", entries["edges"][1], "edges")
    alpha = _floats(*entries["alpha"], "alpha")
    beta = _floats(*entries["beta"], "beta")
    gamma = _floats(*entries["gamma"], "gamma")
    speed = _floats(*entries["speed"], "speed") if "speed" in entries else ()
    spec = NetworkSpec(market_count=markets, firm_count=firms, edges=edges,
                       alpha=alpha, beta=beta, gamma=gamma, speed=speed)
    problems = validate(spec)
    if problems:
        raise ScenarioError("invalid [network] values: " + "; ".join(problems))
    q0 = _floats(*entries["q0"], "q0")
    expected = len(canonical_edge_order(spec))
    if len(q0) != expected:
        raise ScenarioError(
            f"q0 must have one value per edge ({expected}), got {len(q0)}",
            entries["q0"][1])
    return NetworkScenario(spec=spec, q0=q0)


def _build_canonical(entries) -> CanonicalScenario:
    r = _floats(*entries["r"], "r")
    if len(r) != 5:
        raise ScenarioError(f"r must have exactly 5 values, got {len(r)}",
                            entries["r"][1])
    q0 = _floats(*entries["q0"], "q0")
    if len(q0) != 3:
        raise ScenarioError(f"q0 must have exactly 3 values, got {len(q0)}",
                            entries["q0"][1])
    return CanonicalScenario(r=CanonicalParams(*r), q0=q0)


def _build_pd(entries) -> PDScenario:
    values = _floats(*entries["payoff"], "payoff")
    if len(values) != 4:
        raise ScenarioError(f"payoff must have exactly 4 values (R,S,T,U), "
                            f"got {len(values)}", entries["payoff"][1])
    payoff = PayoffMatrix(*values)
    if not payoff.is_strict_dilemma():
        raise ScenarioError("payoff must satisfy T > R > U > S",
                            entries["payoff"][1])

    graph_value, graph_line = entries["graph"]
    kind, _, rest = graph_value.partition(" ")
    rest = rest.strip()
    if kind == "complete":
        graph = ("complete", _int(rest, graph_line, "graph"))
    elif kind == "cycle":
        graph = ("cycle", _int(rest, graph_line, "graph"))
    elif kind == "torus":
        dims = rest.split()
        if len(dims) != 2:
            raise ScenarioError("graph: torus needs two dimensions", graph_line)
        graph = ("torus", _int(dims[0], graph_line, "graph"),
                 _int(dims[1], graph_line, "graph"))
    elif kind == "edges":
        graph = ("edges", _pairs(rest, "-", graph_line, "graph"))
    else:
        raise ScenarioError(f"graph: unknown form '{kind}' "
                            f"(expected complete, cycle, torus or edges)",
                            graph_line)

    init_value, init_line = entries["init"]
    tokens = init_value.split()
    if not tokens:
        raise ScenarioError("init: value is empty", init_line)
    if tokens[0] in ("all_c", "all_d", "single_defector") and len(tokens) == 1:
        init = (tokens[0],)
    elif tokens[0] == "random" and len(tokens) == 3:
        fraction = _float(tokens[1], init_line, "init")
        if not 0.0 <= fraction <= 1.0:
            raise ScenarioError("init: fraction must be in [0, 1]", init_line)
        init = ("random", fraction, _int(tokens[2], init_line, "init"))
    else:
        raise ScenarioError(f"init: unknown form '{init_value}'", init_line)

    steps = _int(*entries["steps"], "steps")
    if steps < 0:
        raise ScenarioError("steps must be nonnegative", entries["steps"][1])

    side_payment = None
    if "side_payment" in entries:
        side_payment = _float(*entries["side_payment"], "side_payment")
        if side_payment < 0.0:
            raise ScenarioError("side_payment must be nonnegative",
                                entries["side_payment"][1])

    scenario = PDScenario(payoff=payoff, graph=graph, init=init, steps=steps,
                          side_payment=side_payment)
    players, edges = scenario.graph_size()
    if edges > MAX_PLAYER_EDGES:
        raise ScenarioError(f"graph: '{graph_value}' has up to {edges} edges, "
                            f"more than the limit of {MAX_PLAYER_EDGES}",
                            graph_line)
    if players > MAX_PLAYERS:
        raise ScenarioError(f"graph: '{graph_value}' has {players} players, "
                            f"more than the limit of {MAX_PLAYERS}", graph_line)
    try:
        scenario.build_graph()  # surfaces range/duplicate/self-loop problems
    except ValueError as exc:
        raise ScenarioError(f"graph: {exc}", graph_line) from None
    return scenario


def _fmt(x: float) -> str:
    return repr(float(x))


def _fmt_list(values) -> str:
    return ", ".join(_fmt(v) for v in values)


def render_scenario(scenario: Scenario) -> str:
    """Normalized text form; parse(render(s)) == s."""
    if isinstance(scenario, NetworkScenario):
        spec = scenario.spec
        edges = ", ".join(f"{i}:{j}" for i, j in canonical_edge_order(spec))
        lines = ["[network]",
                 f"markets = {spec.market_count}",
                 f"firms = {spec.firm_count}",
                 f"edges = {edges}",
                 f"alpha = {_fmt_list(spec.alpha)}",
                 f"beta = {_fmt_list(spec.beta)}",
                 f"gamma = {_fmt_list(spec.gamma)}",
                 f"speed = {_fmt_list(spec.speed)}",
                 f"q0 = {_fmt_list(scenario.q0)}"]
    elif isinstance(scenario, CanonicalScenario):
        lines = ["[canonical]",
                 f"r = {_fmt_list(scenario.r.as_tuple())}",
                 f"q0 = {_fmt_list(scenario.q0)}"]
    else:
        g = scenario.graph
        if g[0] == "edges":
            graph = "edges " + ", ".join(f"{a}-{b}" for a, b in g[1])
        else:
            graph = " ".join(str(v) for v in g)
        init = scenario.init
        init_text = (f"random {_fmt(init[1])} {init[2]}"
                     if init[0] == "random" else init[0])
        m = scenario.payoff
        lines = ["[pd]",
                 f"payoff = {_fmt_list((m.R, m.S, m.T, m.U))}",
                 f"graph = {graph}",
                 f"init = {init_text}",
                 f"steps = {scenario.steps}"]
        if scenario.side_payment is not None:
            lines.append(f"side_payment = {_fmt(scenario.side_payment)}")
    return "\n".join(lines) + "\n"
