"""Prisoner's dilemma between flow participants, and imitation dynamics on graphs.

Transit countries earn nothing from the flows crossing their territory
but can disrupt them, which sets up a symmetric 2x2 dilemma against the
producers and end users: R for mutual cooperation, S for cooperating
against a defector, T for defecting against a cooperator, U for mutual
defection, with T > R > U > S. Defection dominates the one-shot game,
so everybody loses; a side payment sigma added to the transit player's
cooperation payoffs makes cooperation dominant once sigma exceeds
max(T - R, U - S).

Populations placed on a graph update by synchronous imitation: every
player totals its stage payoffs against its neighbors, then adopts the
strategy of the best scorer in its closed neighborhood (ties keep the
current strategy, then go to the lowest player index). On lattices this
lets cooperator clusters survive indefinitely even though defection is
dominant; on the complete graph any mixed population collapses to
all-defect in one step, because a defector always outscores every
cooperator there.

Scores are compared exactly. A player with n_C cooperating and n_D
defecting neighbors scores R*n_C + S*n_D as a cooperator and
T*n_C + U*n_D as a defector. Every double is a dyadic rational, so in
units of the payoffs' common binary denominator these totals are
integers, and ties are ties whatever order a float sum would take.

Graphs and populations are arrays, from graph to series. A
:class:`PlayerGraph` is its players' degrees and closed neighborhoods
in padded tables, one per group of players whose closed sizes share a
ceiling of log2, padded with a sentinel player that plays D and scores
below every real total. ``torus_graph``, ``cycle_graph`` and
``complete_graph`` write their one table in place by index arithmetic;
``player_graph`` validates given pairs and lays out the runs with one
sort of the directed pairs. The tuple view ``neighbors``, kept for the
benchmark's tracer, is read off the tables on first use; building a
graph and running the dynamics never make it.
A step counts cooperating neighbors down the table rows, totals every
player at once, and takes one gather of integer keys and one maximum
down each column (see :func:`imitation_step`). A
:class:`PopulationState` holds one read-only bool array, True where the
player cooperates.

The dynamics are deterministic, so once a step returns the state it was
given (a fixed point), every later state is that one: ``run_spatial``
stops stepping there and repeats the last cooperation fraction.

Randomness enters only through the explicit seed of
:func:`random_population`.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .network import _frozen

C = "C"
D = "D"
Strategy = str


@dataclass(frozen=True)
class PayoffMatrix:
    """Row player's payoffs R=(C,C), S=(C,D), T=(D,C), U=(D,D)."""

    R: float
    S: float
    T: float
    U: float

    def is_strict_dilemma(self) -> bool:
        return self.T > self.R > self.U > self.S


def _require_dilemma(m: PayoffMatrix) -> None:
    if not m.is_strict_dilemma():
        raise ValueError(
            f"payoff matrix must satisfy T > R > U > S, got "
            f"R={m.R!r}, S={m.S!r}, T={m.T!r}, U={m.U!r}")


def payoffs(m: PayoffMatrix, a: Strategy, b: Strategy) -> tuple[float, float]:
    """Stage payoffs (player a, player b) of the symmetric game."""
    table = {(C, C): (m.R, m.R), (C, D): (m.S, m.T),
             (D, C): (m.T, m.S), (D, D): (m.U, m.U)}
    return table[(a, b)]


def dominant_strategy(m: PayoffMatrix) -> Strategy | None:
    """Strictly dominant strategy of the symmetric game, if any.

    Works on any payoff values, not just strict dilemmas -- side
    payments produce matrices outside the T > R > U > S ordering.
    """
    if m.T > m.R and m.U > m.S:
        return D
    if m.R > m.T and m.S > m.U:
        return C
    return None


def apply_side_payment(m: PayoffMatrix, sigma: float) -> PayoffMatrix:
    """The transit player's view of the game once it receives sigma for
    cooperating: both cooperate-row payoffs rise by sigma, the defect
    row is untouched. The result usually breaks the dilemma ordering --
    that is the point."""
    if not sigma >= 0.0:
        raise ValueError(f"side payment must be nonnegative, got {sigma!r}")
    return PayoffMatrix(R=m.R + sigma, S=m.S + sigma, T=m.T, U=m.U)


def min_side_payment(m: PayoffMatrix) -> float:
    """Infimum sigma* = max(T - R, U - S): every sigma strictly above it
    makes cooperation strictly dominant for the transit player."""
    _require_dilemma(m)
    return max(m.T - m.R, m.U - m.S)


@dataclass(frozen=True, eq=False)
class PlayerGraph:
    """Simple undirected graph over players 0..player_count-1: an intp
    array of their ``degrees``, and ``closed_neighborhoods``, each
    player's run [self, neighbors ascending] in padded tables, one
    ``(ids, table)`` pair per group of players whose closed sizes share
    a ceiling of log2. ``table`` is a (width, len(ids)) intp array,
    width the group's largest closed size; column j holds player ids[j]'s
    run, then pads of the sentinel index ``player_count``. The pads take
    fewer entries than the runs, so the tables hold under 2 (players +
    2 edges) entries. Players ascend within a group, groups ascend in
    size. The arrays are made read-only. The builders below make them;
    a PlayerGraph constructed directly is not checked."""

    degrees: np.ndarray
    closed_neighborhoods: tuple[tuple[np.ndarray, np.ndarray], ...]

    def __post_init__(self):
        for values in (self.degrees,
                       *itertools.chain.from_iterable(self.closed_neighborhoods)):
            values.setflags(write=False)

    @property
    def player_count(self) -> int:
        return self.degrees.size

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Each player's neighbors in ascending order."""
        runs: list[tuple[int, ...]] = [()] * self.player_count
        degrees = self.degrees.tolist()
        for ids, table in self.closed_neighborhoods:
            for p, column in zip(ids.tolist(), table[1:].T.tolist()):
                runs[p] = tuple(column[:degrees[p]])
        return tuple(runs)


def _regular(table: np.ndarray) -> PlayerGraph:
    """The regular graph whose one table is ``table``."""
    width, n = table.shape
    return PlayerGraph(np.full(n, width - 1), ((table[0], table),))


def _padded(degrees: np.ndarray, runs: np.ndarray) -> PlayerGraph:
    """The graph of ``runs``, player p's degrees[p] neighbors ascending,
    laid end to end by player. A regular graph's runs are read down its
    table's rows 1..; other runs are scattered into padded tables."""
    n = degrees.size
    degree = int(degrees[0])
    if np.all(degrees == degree):
        return _regular(np.vstack((np.arange(n), runs.reshape(n, degree).T)))
    group = np.frexp(degrees)[1]  # the bit length of the degree
    ids = np.argsort(group, kind="stable")
    start = np.cumsum(degrees) - degrees
    groups = []
    for members in np.split(ids, np.flatnonzero(np.diff(group[ids])) + 1):
        size = degrees[members]
        first = np.cumsum(size) - size
        rank = np.arange(size.sum()) - np.repeat(first, size)
        table = np.full((size.max() + 1, members.size), n, np.intp)
        table[0] = members
        table[1 + rank, np.repeat(np.arange(members.size), size)] = \
            runs[np.repeat(start[members], size) + rank]
        groups.append((members, table))
    return PlayerGraph(degrees, tuple(groups))


def player_graph(player_count: int, edges) -> PlayerGraph:
    """Build a validated PlayerGraph from (a, b) pairs of whole numbers,
    of any number type. The first pair in input order with an end that
    is not a whole number is reported; then the first pair that is a
    self-loop, has an end out of range or repeats an earlier pair
    (either way round), in that order of checks."""
    if player_count < 1:
        raise ValueError("player_count must be at least 1")
    given = np.asarray(edges)
    if given.size == 0:
        given = np.empty((0, 2), np.intp)
    if given.ndim != 2 or given.shape[1] != 2:
        raise ValueError(f"edges must be (a, b) pairs, got shape {given.shape}")
    with np.errstate(invalid="ignore"):
        whole = (given % 1 == 0).all(axis=1)  # NaN and inf fail
    if not whole.all():
        a, b = given[whole.argmin()].tolist()
        raise ValueError(f"edge {a}-{b} has an end that is not an integer")
    # Ends clipped to -1 or player_count stay out of range and fit one
    # intp array; messages name the ends given. Pair i is the directed
    # pairs 2i (a, b) and 2i + 1 (b, a). One stable sort of their keys
    # lays out every player's run, and marks every later copy of a key.
    # Keys of out-of-range pairs may collide with others, but such a pair
    # is itself an earlier or higher-ranked fault than the copy it marks.
    ends = np.clip(given, -1, player_count).astype(np.intp, copy=False)
    source, target = ends.ravel(), ends[:, ::-1].ravel()
    keys = source * player_count + target
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    repeat = np.zeros(len(ends), bool)
    repeat[order[1:][keys[1:] == keys[:-1]] // 2] = True
    a, b = ends.T
    bad = ((a == b) | (np.minimum(a, b) < 0) | (np.maximum(a, b) >= player_count)
           | repeat)
    if bad.any():
        x, y = (int(v) for v in given[bad.argmax()].tolist())
        if x == y:
            raise ValueError(f"self-loop {x}-{y} not allowed")
        if not (0 <= x < player_count and 0 <= y < player_count):
            raise ValueError(f"edge {x}-{y} out of range for {player_count} players")
        raise ValueError(f"duplicate edge {min(x, y)}-{max(x, y)}")
    return _padded(np.bincount(source, minlength=player_count), target[order])


def complete_graph(n: int) -> PlayerGraph:
    if n < 1:
        raise ValueError("player_count must be at least 1")
    table = np.empty((n, n), np.intp)
    table[0] = np.arange(n)
    # Player p's k-th neighbor is k below p and k + 1 from p on.
    k = np.arange(n - 1)[:, None]
    np.greater_equal(k, table[0], out=table[1:])
    table[1:] += k
    return _regular(table)


def cycle_graph(n: int) -> PlayerGraph:
    if n < 3:
        raise ValueError("cycle needs at least 3 players")
    return torus_graph(n, 1)


def _wrap_classes(size: int, step: int) -> list[tuple[slice, set[int]]]:
    """The first, inner and last of ``size`` positions ``step`` players
    apart on a torus axis, each with the offsets to its wrapped neighbors
    there: a wrap onto itself or its other neighbor adds none."""
    return [(part, {((i + s) % size - i) * step for s in (-1, 1)} - {0})
            for i, part in ((0, slice(0, 1)), (1, slice(1, size - 1)),
                            (size - 1, slice(max(size - 1, 1), size)))
            if part.start < part.stop]


def torus_graph(width: int, height: int) -> PlayerGraph:
    """Width x height lattice with wrap-around and 4-neighborhoods.
    Wrap duplicates at width or height <= 2 collapse to single edges."""
    if width < 1 or height < 1:
        raise ValueError("torus dimensions must be at least 1")
    rows, cols = _wrap_classes(height, width), _wrap_classes(width, 1)
    degree = len(rows[0][1]) + len(cols[0][1])
    table = np.empty((degree + 1, width * height), np.intp)
    grid = table.reshape(degree + 1, height, width)
    players = np.arange(width * height).reshape(height, width)
    for r, vertical in rows:
        for c, horizontal in cols:
            # Vertical offsets are whole rows and horizontal ones stay in
            # the row, so sorted they give the run in order.
            for row, offset in enumerate([0, *sorted(vertical | horizontal)]):
                np.add(players[r, c], offset, out=grid[row, r, c])
    return _regular(table)


@dataclass(frozen=True, eq=False)
class PopulationState:
    """Strategy assignment over a player graph: ``cooperates[p]`` is True
    where player p plays C. It is kept as a read-only bool array, by the
    rule of ``network._frozen``."""

    graph: PlayerGraph
    cooperates: np.ndarray

    def __post_init__(self):
        coop = np.asarray(self.cooperates)
        if coop.dtype != bool:
            raise ValueError(f"cooperates must be a bool array, got {coop.dtype}")
        if coop.shape != (self.graph.player_count,):
            raise ValueError(
                f"expected {self.graph.player_count} strategies, "
                f"got {coop.size}")
        object.__setattr__(self, "cooperates", _frozen(coop, bool))

    @classmethod
    def from_strategies(cls, graph: PlayerGraph, strategies) -> PopulationState:
        """The state of a sequence of 'C' and 'D', one per player."""
        strategies = tuple(strategies)
        bad = set(strategies) - {C, D}
        if bad:
            raise ValueError(f"strategies must be 'C' or 'D', got {sorted(bad)}")
        return cls(graph, [s == C for s in strategies])

    def cooperation_fraction(self) -> float:
        return int(np.count_nonzero(self.cooperates)) / self.graph.player_count


def all_cooperate(graph: PlayerGraph) -> PopulationState:
    return PopulationState(graph, np.ones(graph.player_count, bool))


def all_defect(graph: PlayerGraph) -> PopulationState:
    return PopulationState(graph, np.zeros(graph.player_count, bool))


def single_defector(graph: PlayerGraph) -> PopulationState:
    """All cooperators except player 0."""
    coop = np.ones(graph.player_count, bool)
    coop[0] = False
    return PopulationState(graph, coop)


def random_population(graph: PlayerGraph, fraction: float,
                      seed: int) -> PopulationState:
    """Each player cooperates independently with probability ``fraction``;
    fully determined by the seed. Player p cooperates when the p-th
    ``random.Random(seed).random()`` is below ``fraction``."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction!r}")
    # random() makes each double from two successive 32-bit outputs a, b
    # as ((a >> 5) * 2**26 + (b >> 6)) / 2**53, exactly; getrandbits hands
    # out the same outputs as one number, first output lowest.
    n = graph.player_count
    bits = random.Random(seed).getrandbits(64 * n).to_bytes(8 * n, "little")
    words = np.frombuffer(bits, "<u4")
    draws = ((words[0::2] >> 5) * 2.0 ** 26 + (words[1::2] >> 6)) / 2.0 ** 53
    return PopulationState(graph, draws < fraction)


def _by_player(graph: PlayerGraph, parts: list[np.ndarray]) -> np.ndarray:
    """Values given per table, in the order of its ids, in player order."""
    if len(parts) == 1:
        return parts[0]  # the one table lists every player in order
    values = np.empty(graph.player_count, parts[0].dtype)
    for (ids, _), part in zip(graph.closed_neighborhoods, parts):
        values[ids] = part
    return values


def _integer_scores(state: PopulationState,
                    m: PayoffMatrix) -> tuple[np.ndarray, int]:
    """(totals, scale): each player's exact total payoff in units of
    1/scale, where scale is the payoffs' common binary denominator, then
    the sentinel player's total, below every real one. The totals are
    int32 when the keys of ``imitation_step`` fit in int32, int64 when
    they fit in int64, and Python ints otherwise."""
    ratios = [v.as_integer_ratio() for v in (m.R, m.S, m.T, m.U)]
    scale = max(den for _, den in ratios)  # powers of two: this is the lcm
    R, S, T, U = (num * (scale // den) for num, den in ratios)
    graph = state.graph
    big = max(map(abs, (R, S, T, U)))
    degree = len(graph.closed_neighborhoods[-1][1]) - 1  # the largest
    # A key is total * 2 width + 2 (width - 1 - row) + strategy, width =
    # degree + 1, and the sentinel's total is -big * degree - 1: every
    # key, and every term summed below, lies within 2 big (degree + 2)^2.
    bound = 2 * max(big, 1) * (degree + 2) ** 2
    dtype = np.int32 if bound < 2 ** 31 else np.int64 if bound < 2 ** 63 else object
    cooperating = np.append(state.cooperates, False).view(np.int8)  # the sentinel plays D
    n_c = _by_player(graph, [cooperating[table[1:]].sum(axis=0, dtype=dtype)
                             for _, table in graph.closed_neighborhoods])
    # slope[c] * n_c + base[c] * degree with slope (T - U, R - S) and base
    # (U, S) by strategy c, taken without a branch.
    degrees = graph.degrees.astype(dtype)
    totals = n_c * (T - U) + degrees * U
    totals += (n_c * (R - S - T + U) + degrees * (S - U)) * state.cooperates
    return np.append(totals, np.array(-big * degree - 1, dtype)), scale


def scores(state: PopulationState, m: PayoffMatrix) -> list[float]:
    """Each player's total stage payoff against all of its neighbors,
    correctly rounded from the exact total."""
    totals, scale = _integer_scores(state, m)
    return (totals[:-1].astype(object) / scale).tolist()


def imitation_step(state: PopulationState, m: PayoffMatrix) -> PopulationState:
    """One synchronous update: adopt the strategy of the best scorer in
    the closed neighborhood; ties keep the current strategy, then go to
    the lowest player index. That player is the first maximum down a
    column [self, neighbors ascending, pads] of the tables, and the one
    maximum of the key total * 2 width + 2 (width - 1 - row) + strategy,
    width the largest closed size; its low bit is the strategy adopted."""
    totals, _ = _integer_scores(state, m)
    graph = state.graph
    top = 2 * len(graph.closed_neighborhoods[-1][1]) - 2  # 2 (width - 1)
    keys = totals * (top + 2)
    keys[:-1] += state.cooperates
    parts = []
    for _, table in graph.closed_neighborhoods:
        best = keys[table]
        best += np.arange(top, top - 2 * len(table), -2, dtype=keys.dtype)[:, None]
        parts.append(best.max(axis=0) & 1 == 1)
    stepped = _by_player(graph, parts)
    stepped.setflags(write=False)
    return PopulationState(graph, stepped)


def run_spatial(state: PopulationState, m: PayoffMatrix,
                steps: int) -> list[float]:
    """Cooperation fraction before the first update and after each of
    ``steps`` synchronous updates (length steps + 1).

    Once an update returns the current state (a fixed point), every
    later state is that one, and the rest of the series repeats the last
    fraction."""
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    fractions = [state.cooperation_fraction()]
    while len(fractions) <= steps:
        stepped = imitation_step(state, m)
        fractions.append(stepped.cooperation_fraction())
        if np.array_equal(stepped.cooperates, state.cooperates):
            fractions.extend(itertools.repeat(fractions[-1],
                                              steps + 1 - len(fractions)))
            break
        state = stepped
    return fractions
