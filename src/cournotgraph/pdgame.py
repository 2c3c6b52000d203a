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
:class:`PlayerGraph` holds its edges as one (edges, 2) int32 array of
(lower, higher) ends in ascending order: ``complete_graph``,
``cycle_graph`` and ``torus_graph`` build it by index arithmetic, and
``player_graph`` validates given pairs on arrays. Its closed
neighborhoods are padded tables built from the edge array on first use:
players are grouped by the ceiling of log2 of their closed size, and
each group has one (width, group size) intp table whose column j is
player ids[j]'s run [self, neighbors ascending], padded with a sentinel
player that plays D and scores below every real total. Tori, cycles and
complete graphs are one table; a star is two. A step counts each
player's cooperating neighbors down the table rows, scores every player
at once, and takes the first maximum down each column as the one
maximum of the key total * width + (width - 1 - row). A
:class:`PopulationState` holds one read-only bool array, True where the
player cooperates. The one tuple view, ``PlayerGraph.neighbors``, is
derived on first use and kept for the benchmark's tracer; building a
graph and running the dynamics never make it.

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
    """Simple undirected graph over players 0..player_count-1.

    ``ends`` is a read-only (edges, 2) int32 array with one row (lower,
    higher) per edge, rows in ascending order, held by the rule of
    ``network._frozen``. The builders below make it; the edges of a
    PlayerGraph constructed directly are not checked."""

    player_count: int
    ends: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "ends", _frozen(self.ends, np.int32))

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Each player's neighbors in ascending order."""
        runs: list[tuple[int, ...]] = [()] * self.player_count
        degrees = self._degrees.tolist()
        for ids, table in self.closed_neighborhoods:
            for p, column in zip(ids.tolist(), table[1:].T.tolist()):
                runs[p] = tuple(column[:degrees[p]])
        return tuple(runs)

    @cached_property
    def _degrees(self) -> np.ndarray:
        """Each player's neighbor count, then a 0 for the sentinel player
        ``player_count`` of ``closed_neighborhoods``: a read-only intp
        array of player_count + 1 entries."""
        n = self.player_count
        low, high = self.ends.T
        degrees = np.bincount(low, minlength=n + 1)
        degrees += np.bincount(high, minlength=n + 1)
        degrees.setflags(write=False)
        return degrees

    @cached_property
    def _max_degree(self) -> int:
        """The largest degree, which bounds every total and key."""
        return int(self._degrees.max())

    @cached_property
    def closed_neighborhoods(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """Every player's closed neighborhood -- the player itself, then
        its neighbors in ascending order -- as padded tables, one
        ``(ids, table)`` pair per group of players whose closed sizes
        share a ceiling of log2. ``table`` is a (width, len(ids)) intp
        array, width the group's largest closed size; column j holds
        player ids[j]'s run, then pads of the sentinel index
        ``player_count``. The pads take fewer entries than the runs, so
        the tables hold under 2 (players + 2 edges) entries. Players
        ascend within a group, groups ascend in size. All arrays are
        read-only."""
        n = self.player_count
        size = self._degrees[:n] + 1
        group = np.frexp(size - 1)[1]  # the bit length of size - 1
        ids = np.argsort(group, kind="stable")
        ids.setflags(write=False)
        count = np.bincount(group)
        bounds = np.cumsum(count)
        groups, stride, base = [], np.empty(n, np.intp), np.empty(n, np.intp)
        offset = 0
        for key in np.flatnonzero(count):
            stop = int(bounds[key])
            start = stop - int(count[key])
            members = ids[start:stop]
            width = int(size[members].max())
            stride[members] = stop - start
            base[members] = offset + np.arange(stop - start)
            groups.append((members, offset, width))
            offset += width * (stop - start)
        # Entry (row r, player p) lies at base[p] + r * stride[p]. Row 0 is
        # p; then come its lower neighbors, the rows ending at p, which a
        # stable sort by higher end keeps ascending by lower end; then its
        # higher neighbors, the contiguous rows starting at p. Either part,
        # laid end to end by player, puts its k-th entry in row
        # first[p] + k - start[p] of its player p's column, start[p]
        # counting the part's entries of the players before p.
        entries = np.full(offset, n, np.intp)
        entries[base] = np.arange(n)
        low, high = self.ends.T
        lower = np.bincount(high, minlength=n)
        higher = size - 1 - lower
        for count, first, member in (
                (lower, 1, low[np.argsort(high, kind="stable")]),
                (higher, 1 + lower, high)):
            start = np.cumsum(count) - count
            at = np.repeat(stride, count)
            at *= np.arange(at.size)
            at += np.repeat(base + (first - start) * stride, count)
            entries[at] = member
        entries.setflags(write=False)
        return tuple((members, entries[offset:offset + width * len(members)]
                      .reshape(width, len(members)))
                     for members, offset, width in groups)


def _keys(player_count: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each pair as the one number lower * player_count + higher."""
    return np.minimum(a, b) * player_count + np.maximum(a, b)


def _graph(player_count: int, keys: np.ndarray) -> PlayerGraph:
    """The graph whose edges are the ascending, distinct ``keys``."""
    ends = np.stack(np.divmod(keys, player_count), axis=1)
    return PlayerGraph(player_count, ends)  # which makes the int32 copy


def player_graph(player_count: int, edges) -> PlayerGraph:
    """Build a validated PlayerGraph from (a, b) pairs. The first pair in
    input order that is a self-loop, has an end out of range or repeats
    an earlier pair (either way round) is reported, in that order of
    checks."""
    if player_count < 1:
        raise ValueError("player_count must be at least 1")
    ends = np.asarray(edges)
    if ends.size == 0:
        ends = ends.reshape(0, 2)
    if ends.ndim != 2 or ends.shape[1] != 2:
        raise ValueError(f"edges must be (a, b) pairs, got shape {ends.shape}")
    a, b = ends.T
    keys = _keys(player_count, a, b)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    # A stable sort puts the first of equal keys in input order first,
    # so every later copy is marked. Keys of out-of-range pairs may
    # collide with others, but such a pair is itself an earlier or
    # higher-ranked fault than the copy it marks.
    repeat = np.zeros(keys.size, bool)
    repeat[order[1:]] = keys[1:] == keys[:-1]
    bad = ((a == b) | (np.minimum(a, b) < 0) | (np.maximum(a, b) >= player_count)
           | repeat)
    if bad.any():
        x, y = (int(v) for v in ends[bad.argmax()])
        if x == y:
            raise ValueError(f"self-loop {x}-{y} not allowed")
        if not (0 <= x < player_count and 0 <= y < player_count):
            raise ValueError(f"edge {x}-{y} out of range for {player_count} players")
        raise ValueError(f"duplicate edge {min(x, y)}-{max(x, y)}")
    return _graph(player_count, keys)


def complete_graph(n: int) -> PlayerGraph:
    if n < 1:
        raise ValueError("player_count must be at least 1")
    low, high = np.triu_indices(n, 1)
    return _graph(n, low * n + high)


def cycle_graph(n: int) -> PlayerGraph:
    if n < 3:
        raise ValueError("cycle needs at least 3 players")
    k = np.arange(n)
    return _graph(n, np.sort(_keys(n, k, (k + 1) % n)))


def torus_graph(width: int, height: int) -> PlayerGraph:
    """Width x height lattice with wrap-around and 4-neighborhoods.
    Wrap duplicates at width or height <= 2 collapse to single edges."""
    if width < 1 or height < 1:
        raise ValueError("torus dimensions must be at least 1")
    p = np.arange(width * height).reshape(height, width)
    a = np.concatenate((p, p), axis=None)
    b = np.concatenate((np.roll(p, -1, axis=1), np.roll(p, -1, axis=0)),
                       axis=None)
    keep = a != b
    # Sort and drop repeats: np.unique takes some 50 times as long here
    # (numpy 2.4, 500 x 500).
    keys = np.sort(_keys(p.size, a[keep], b[keep]))
    return _graph(p.size, keys[np.diff(keys, prepend=-1) != 0])


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


def _integer_scores(state: PopulationState,
                    m: PayoffMatrix) -> tuple[np.ndarray, int]:
    """(totals, scale): each player's exact total payoff in units of
    1/scale, where scale is the payoffs' common binary denominator, then
    the sentinel player's total, below every real one. The totals are
    int64 when the keys of ``imitation_step`` cannot overflow int64,
    Python ints otherwise."""
    ratios = [v.as_integer_ratio() for v in (m.R, m.S, m.T, m.U)]
    scale = max(den for _, den in ratios)  # powers of two: this is the lcm
    R, S, T, U = (num * (scale // den) for num, den in ratios)
    graph = state.graph
    big, degree = max(map(abs, (R, S, T, U))), graph._max_degree
    # A key is total * width + (width - 1 - row), width <= degree + 1,
    # and the sentinel's total is -big * degree - 1.
    exact = big * (degree + 2) ** 2 < 2 ** 62
    coop = np.append(state.cooperates, False)  # the sentinel plays D
    n_c = np.zeros(coop.size, np.int64)
    for ids, table in graph.closed_neighborhoods:
        n_c[ids] = np.count_nonzero(coop[table[1:]], axis=0)
    n_d = graph._degrees - n_c
    if not exact:
        n_c, n_d = n_c.astype(object), n_d.astype(object)
    totals = np.where(coop, R * n_c + S * n_d, T * n_c + U * n_d)
    totals[-1] = -big * degree - 1
    return totals, scale


def scores(state: PopulationState, m: PayoffMatrix) -> list[float]:
    """Each player's total stage payoff against all of its neighbors,
    correctly rounded from the exact total."""
    totals, scale = _integer_scores(state, m)
    return (totals[:-1].astype(object) / scale).tolist()


def imitation_step(state: PopulationState, m: PayoffMatrix) -> PopulationState:
    """One synchronous update: adopt the strategy of the best scorer in
    the closed neighborhood; ties keep the current strategy, then go to
    the lowest player index. That player is the first maximum down a
    column [self, neighbors ascending, pads] of the tables, and the key
    total * width + (width - 1 - row) makes it the one column maximum."""
    totals, _ = _integer_scores(state, m)
    coop = state.cooperates
    stepped = np.empty_like(coop)
    for ids, table in state.graph.closed_neighborhoods:
        width, size = table.shape
        keys = totals[table]
        keys *= width
        keys += np.arange(width - 1, -1, -1)[:, None]
        rows = (width - 1) - keys.max(axis=0) % width
        winners = table[rows.astype(np.intp, copy=False), np.arange(size)]
        stepped[ids] = coop[winners]
    stepped.setflags(write=False)
    return PopulationState(state.graph, stepped)


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
