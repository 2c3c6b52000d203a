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
parsing, sizing and building all read.

``parse_scenario`` rejects unknown keys, duplicate keys and invariant
violations with the offending line or field named. Number lists
and pair lists (a network's ``edges``, a ``[pd]`` ``edges`` graph) are
read into arrays by one reader, ``_numbers``: one ``int`` or ``float``
over all of their tokens, so they accept exactly what those accept,
split a slice of about ``_SLICE_CHARS`` characters at a time, so only
one slice's token strings are held beside the array. Only a list that
fails is read again token by token, to name its first bad token. Network and
``[pd]`` scenarios compare by value. A ``[network]`` spec is checked
once: the problem list and the canonical edge order that q0 is counted
against stay on the spec, and the commands' ``to_affine`` reads them
from there. A ``[pd]`` graph with more than ``MAX_PLAYERS`` players or
``MAX_PLAYER_EDGES`` edges, or a run that counts more than
``MAX_PD_READS`` reads in all (its neighborhood entries, plus
``PD_STEP_READS`` a step for the fixed cost of a step) is rejected
before anything is built. The one-time rank
table a run builds before its first step (``pdgame._KeyTable``, at
most 2 (players + 2 edges) entries) is not charged.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat
from typing import Callable, NamedTuple

import numpy as np

from .network import NetworkSpec, _equal_fields, canonical_edge_order, validate
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
# 2 * edges, plus PD_STEP_READS for its fixed cost, whatever the payoffs
# (steps compare ranks of exact totals), so a run's reads and kept
# fractions are bounded. An edge list's step reads its entries at some
# 3-5 ns each, a torus or complete graph steps for less, plus about 30 us
# a step (4 x 4 torus; 2-core Xeon). The charges date from slower steps:
# the 2 016 129 steps torus 4 4 may take ran in 83 s, the 1998 of torus
# 707 707 at payoff 3, 0, 3.5, 1e-300 in 11 s. Every declared step
# counts, as a run's fixed point is not known when the scenario is read.
# The one-time build of the rank table (pdgame._KeyTable, at most
# 2 * (players + 2 * edges) entries) is not charged: a 999 999-leaf star
# at payoff 1e200, -1e-200, 2e200, 1e-300, whose exact totals outgrow
# int64, built it in 5.6-8.2 s before its first step, against
# 0.11-0.14 s where they fit int64 (2-core host).
PD_STEP_READS = 2_400
MAX_PD_READS = 5_000_000_000
# A number or pair list is split into token strings a slice of about
# this many characters at a time, so a long q0 or edges list holds one
# slice's tokens (some 70 bytes each for a 21-character number) beside
# its array, not every token at once.
_SLICE_CHARS = 1 << 19


class ScenarioError(ValueError):
    """Malformed or invalid scenario text."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


@dataclass(frozen=True, eq=False)
class NetworkScenario:
    spec: NetworkSpec
    q0: np.ndarray

    __eq__ = _equal_fields


@dataclass(frozen=True)
class CanonicalScenario:
    r: CanonicalParams
    q0: tuple[float, float, float]


@dataclass(frozen=True, eq=False)
class PDScenario:
    payoff: PayoffMatrix
    graph: tuple          # (form, *arguments), e.g. ("torus", w, h) or ("edges", pairs)
    init: tuple           # (form, *arguments), e.g. ("all_c",) or ("random", frac, seed)
    steps: int
    side_payment: float | None = None

    __eq__ = _equal_fields

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
            return int(np.max(args[0])) + 1, len(args[0])
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


def _slices(value: str):
    """``value`` in pieces of about ``_SLICE_CHARS`` characters, each cut
    at a comma, the commas between them dropped."""
    lo = 0
    while (hi := value.find(",", lo + _SLICE_CHARS)) >= 0:
        yield value[lo:hi]
        lo = hi + 1
    yield value[lo:]


def _numbers(pieces, read: Callable, dtype, count: int) -> np.ndarray | None:
    """The ``count`` numbers of the comma lists ``pieces`` (``_slices``
    of a list, so only one slice's token strings are held), read by
    ``read`` into one ``dtype`` array that owns its data; None if a
    token or a piece fails, or a number does not fit ``dtype``."""
    with contextlib.suppress(ValueError, OverflowError):
        return np.fromiter(chain.from_iterable(
            map(read, piece.split(",")) for piece in pieces), dtype, count)
    return None


def _floats(value: str, line: int, key: str, count: int | None = None,
            what: str = "") -> np.ndarray:
    """The numbers of ``value`` as a read-only array; exactly ``count`` of
    them if given (``what`` words that count in the error). ``_numbers``
    reads them with ``float``; a list that fails or holds a number that
    is not finite is read again by ``_float``, token by token, which
    names the first bad one."""
    values = _numbers(_slices(value), float, np.float64, value.count(",") + 1)
    if values is None or not np.isfinite(values).all():
        values = np.array([_float(t.strip(), line, key)
                           for t in value.split(",")])
    values.setflags(write=False)
    if count is not None and len(values) != count:
        raise ScenarioError(f"{key} must have {what or f'exactly {count} values'}"
                            f", got {len(values)}", line)
    return values


def _fraction(token: str, line: int, key: str) -> float:
    v = _float(token, line, key)
    if not 0.0 <= v <= 1.0:
        raise ScenarioError(f"{key}: fraction must be in [0, 1]", line)
    return v


def _pair(token: str, sep: str, line: int, key: str) -> tuple[int, int]:
    token = token.strip()
    left, found, right = token.partition(sep)
    if not found:
        raise ScenarioError(f"{key}: expected '<a>{sep}<b>', got '{token}'", line)
    return _int(left.strip(), line, key), _int(right.strip(), line, key)


def _ends(piece: str, sep: str) -> str:
    """The comma list of the ends of ``piece``'s '<a><sep><b>' tokens;
    ValueError if a token holds no ``sep``, or two."""
    if set(map(str.count, piece.split(","), repeat(sep))) != {1}:
        raise ValueError(f"not one '{sep}' a token")
    return piece.replace(sep, ",")


def _pairs(value: str, sep: str, line: int, key: str) -> np.ndarray:
    """The '<a><sep><b>' pairs of ``value`` as a read-only (n, 2) array.
    ``_numbers`` reads every end of its ``_slices``, split by ``_ends``,
    with ``int`` into intp; a list that fails is read again by
    ``_pair``, token by token, which names the first bad token, into an
    object array of ints, so an end past intp keeps its value. The
    array's shape is set in place, so it still owns its data."""
    pairs = _numbers(map(_ends, _slices(value), repeat(sep)), int, np.intp,
                     2 * value.count(",") + 2)
    if pairs is None:
        pairs = np.array([_pair(t, sep, line, key) for t in value.split(",")],
                         dtype=object)
    else:
        pairs.shape = (-1, 2)
    pairs.setflags(write=False)
    return pairs


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
    markets, firms = (_int(*entries[key], key) for key in ("markets", "firms"))
    edges = _pairs(entries["edges"][0], ":", entries["edges"][1], "edges")
    spec = NetworkSpec(markets, firms, edges, *(
        _floats(*entries[key], key)
        for key in ("alpha", "beta", "gamma", "speed") if key in entries))
    problems = validate(spec)
    if problems:
        raise ScenarioError("invalid [network] values: " + "; ".join(problems))
    n = len(canonical_edge_order(spec))
    q0 = _floats(*entries["q0"], "q0", n, f"one value per edge ({n})")
    return NetworkScenario(spec=spec, q0=q0)


def _build_canonical(entries) -> CanonicalScenario:
    r = _floats(*entries["r"], "r", 5).tolist()
    q0 = tuple(_floats(*entries["q0"], "q0", 3).tolist())
    return CanonicalScenario(r=CanonicalParams(*r), q0=q0)


def _build_pd(entries) -> PDScenario:
    payoff = PayoffMatrix(*_floats(*entries["payoff"], "payoff", 4).tolist())
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
        raise ScenarioError(f"steps: {steps} steps of '{graph_value}' count as {reads} reads "
                            f"(up to {entries_read} neighborhood entries and {PD_STEP_READS} "
                            f"for the fixed cost of each step), more than the limit of "
                            f"{MAX_PD_READS}", entries["steps"][1])
    try:
        scenario.build_graph()  # surfaces range/duplicate/self-loop problems
    except ValueError as exc:
        raise ScenarioError(f"graph: {exc}", graph_line) from None
    return scenario
