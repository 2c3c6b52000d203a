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

The format is declared once: ``_KEYS`` per section, and one ``_Form``
per ``[pd]`` graph and init form (an ``edges`` list aside), which
parsing, sizing, building and rendering all read.

``parse_scenario`` rejects unknown keys, duplicate keys and invariant
violations with the offending line or field named;
``render_scenario`` writes the normalized form back out. A
``[network]`` spec is checked once: the problem list and the canonical
edge order that q0 is counted against stay on the spec, and the
commands' ``to_affine`` reads them from there. A ``[pd]`` graph with
more than ``MAX_PLAYERS`` players or ``MAX_PLAYER_EDGES`` edges, or a
run that counts more than ``MAX_PD_READS`` reads in all (its
neighborhood entries, plus ``PD_STEP_READS`` a step for the fixed cost
of a step) is rejected before anything is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, NamedTuple

from .csvtext import fmt
from .network import NetworkSpec, canonical_edge_order, validate
from .pdgame import (PayoffMatrix, PlayerGraph, PopulationState,
                     all_cooperate, all_defect, complete_graph, cycle_graph,
                     player_graph, random_population, single_defector,
                     torus_graph)
from .stability import CanonicalParams


# A [pd] graph is held in a few arrays of its players (an edge list
# also in tables of a few intp per player and per edge), and the sizes a
# scenario may ask for are bounded so that text cannot ask for unbounded
# memory (complete 1414 and torus 707 707 still fit).
MAX_PLAYERS = 1_000_000
MAX_PLAYER_EDGES = 1_000_000
# A step is charged as its closed-neighborhood entries, players +
# 2 * edges, plus PD_STEP_READS more for the fixed cost of a step, and
# the reads of a run are bounded. An edge list's step reads every entry
# through its tables, at some 3-5 ns each (10 000 and 20 000 players of
# degree 4 on a 2-core Xeon, Python 3.11, numpy 2.4). A torus steps on
# shifted views of its state grid at some 2-4 ns an entry (100 x 100
# and 500 x 500), and a complete graph in closed form, a few arrays of
# its players, so it costs far less than its charge. A step has a fixed
# cost of about 40 us besides (a 4 x 4 torus). Both values date from
# steps several times as slow (36 ns an entry, 84 us a step, so 2 400
# entries), and are kept: a run is now bounded to a minute or two. So
# no graph runs more than about 2 * 10^6 steps, and the one cooperation
# fraction a run keeps and writes per step stays bounded too. A run
# that reaches a fixed point stops stepping there, but how soon is not
# known when the scenario is read, so the bound counts every declared
# step.
PD_STEP_READS = 2_400
MAX_PD_READS = 5_000_000_000


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
    graph: tuple          # (form, *arguments), e.g. ("torus", w, h) or ("edges", pairs)
    init: tuple           # (form, *arguments), e.g. ("all_c",) or ("random", frac, seed)
    steps: int
    side_payment: float | None = None

    def build_graph(self) -> PlayerGraph:
        """The scenario's player graph. It is built on the first call and
        kept on this object, so parse-time validation and the run share
        one build; equality still compares the fields only."""
        return self._player_graph

    @cached_property
    def _player_graph(self) -> PlayerGraph:
        kind, *args = self.graph
        if kind == "edges":
            return player_graph(self.graph_size()[0], *args)
        return _GRAPHS[kind].make(*args)

    def graph_size(self) -> tuple[int, int]:
        """(players, edges at most) of the graph form, without building
        it. Negative sizes count as 0; the builders reject them."""
        kind, *args = self.graph
        if kind == "edges":
            return max(map(max, args[0])) + 1, len(args[0])
        return _GRAPHS[kind].size(*(max(a, 0) for a in args))

    def build_population(self, graph: PlayerGraph) -> PopulationState:
        kind, *args = self.init
        return _INITS[kind].make(graph, *args)


Scenario = NetworkScenario | CanonicalScenario | PDScenario

# Each section's keys, mapped to whether they are required.
_KEYS = {
    "network": {"markets": True, "firms": True, "edges": True, "alpha": True,
                "beta": True, "gamma": True, "speed": False, "q0": True},
    "canonical": {"r": True, "q0": True},
    "pd": {"payoff": True, "graph": True, "init": True, "steps": True,
           "side_payment": False},
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


def _floats(value: str, line: int, key: str, count: int | None = None,
            what: str = "") -> tuple[float, ...]:
    """The numbers of ``value``; exactly ``count`` of them if given
    (``what`` words that count in the error)."""
    values = tuple(_float(t.strip(), line, key) for t in value.split(","))
    if count is not None and len(values) != count:
        raise ScenarioError(f"{key} must have {what or f'exactly {count} values'}"
                            f", got {len(values)}", line)
    return values


def _fraction(token: str, line: int, key: str) -> float:
    v = _float(token, line, key)
    if not 0.0 <= v <= 1.0:
        raise ScenarioError(f"{key}: fraction must be in [0, 1]", line)
    return v


def _pairs(value: str, sep: str, line: int, key: str) -> tuple[tuple[int, int], ...]:
    pairs = []
    for token in value.split(","):
        token = token.strip()
        left, found, right = token.partition(sep)
        if not found:
            raise ScenarioError(f"{key}: expected '<a>{sep}<b>', got '{token}'", line)
        pairs.append((_int(left.strip(), line, key), _int(right.strip(), line, key)))
    return tuple(pairs)


class _Form(NamedTuple):
    """A ``[pd]`` form: its arguments (name as written: token parser),
    its maker (an init form's takes the graph first), which calls the
    builder by its module name, and a graph's (players, edges at most)."""
    args: dict[str, Callable]
    make: Callable
    size: Callable | None = None


_GRAPHS = {
    "complete": _Form({"N": _int}, lambda n: complete_graph(n),
                      lambda n: (n, n * (n - 1) // 2)),
    "cycle": _Form({"N": _int}, lambda n: cycle_graph(n), lambda n: (n, n)),
    "torus": _Form({"W": _int, "H": _int}, lambda w, h: torus_graph(w, h),
                   lambda w, h: (w * h, 2 * w * h)),
}
_INITS = {
    "all_c": _Form({}, lambda graph: all_cooperate(graph)),
    "all_d": _Form({}, lambda graph: all_defect(graph)),
    "single_defector": _Form({}, lambda graph: single_defector(graph)),
    "random": _Form({"FRACTION": _fraction, "SEED": _int},
                    lambda graph, frac, seed: random_population(graph, frac, seed)),
}


def _form(forms: dict[str, _Form], kind: str, tokens, line: int, key: str):
    """(kind, *arguments), with ``tokens`` read as form ``kind`` declares."""
    args = forms[kind].args
    if len(tokens) != len(args):
        raise ScenarioError(f"{key}: expected '{' '.join((kind, *args))}'", line)
    return (kind, *(read(token, line, key)
                    for token, read in zip(tokens, args.values())))


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
    for key, required in _KEYS[section].items():
        if required and key not in entries:
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
    n = len(canonical_edge_order(spec))
    q0 = _floats(*entries["q0"], "q0", n, f"one value per edge ({n})")
    return NetworkScenario(spec=spec, q0=q0)


def _build_canonical(entries) -> CanonicalScenario:
    r = _floats(*entries["r"], "r", 5)
    q0 = _floats(*entries["q0"], "q0", 3)
    return CanonicalScenario(r=CanonicalParams(*r), q0=q0)


def _build_pd(entries) -> PDScenario:
    payoff = PayoffMatrix(*_floats(*entries["payoff"], "payoff", 4))
    if not payoff.is_strict_dilemma():
        raise ScenarioError("payoff must satisfy T > R > U > S",
                            entries["payoff"][1])

    graph_value, graph_line = entries["graph"]
    kind, _, rest = graph_value.partition(" ")
    if kind == "edges":
        graph = ("edges", _pairs(rest.strip(), "-", graph_line, "graph"))
    elif kind in _GRAPHS:
        graph = _form(_GRAPHS, kind, rest.split(), graph_line, "graph")
    else:
        raise ScenarioError(f"graph: unknown form '{kind}' (expected "
                            f"{', '.join(_GRAPHS)} or edges)", graph_line)

    init_value, init_line = entries["init"]
    kind, *tokens = init_value.split() or [""]
    if kind not in _INITS:
        raise ScenarioError(f"init: unknown form '{init_value}'" if kind
                            else "init: value is empty", init_line)
    init = _form(_INITS, kind, tokens, init_line, "init")

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
    entries_read = players + 2 * edges
    reads = (entries_read + PD_STEP_READS) * steps
    if reads > MAX_PD_READS:
        raise ScenarioError(f"steps: {steps} steps of '{graph_value}' count as "
                            f"{reads} reads (up to {entries_read} neighborhood "
                            f"entries and {PD_STEP_READS} for the fixed cost of "
                            f"each step), more than the limit of {MAX_PD_READS}",
                            entries["steps"][1])
    try:
        scenario.build_graph()  # surfaces range/duplicate/self-loop problems
    except ValueError as exc:
        raise ScenarioError(f"graph: {exc}", graph_line) from None
    return scenario


def _fmt_list(values) -> str:
    return ", ".join(map(fmt, values))


def render_scenario(scenario: Scenario) -> str:
    """Normalized text form, with a network's edges in canonical order.

    For a valid scenario, parse(render(s)) describes the same system
    and renders back to the same text. It equals s when a network's
    edges are listed in canonical order, as parsing keeps them in the
    order written; for other edge orders the two specs differ only in
    that order."""
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
        graph = scenario.graph
        if graph[0] == "edges":
            graph = ("edges", ", ".join(f"{a}-{b}" for a, b in graph[1]))
        m = scenario.payoff
        lines = ["[pd]",
                 f"payoff = {_fmt_list((m.R, m.S, m.T, m.U))}",
                 f"graph = {' '.join(map(str, graph))}",
                 f"init = {' '.join(map(str, scenario.init))}",
                 f"steps = {scenario.steps}"]
        if scenario.side_payment is not None:
            lines.append(f"side_payment = {fmt(scenario.side_payment)}")
    return "\n".join(lines) + "\n"
