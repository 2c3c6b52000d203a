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
:class:`PlayerGraph` is its players' degrees and the form its builder
knows, and a step is two primitives of that form: count each player's
cooperating neighbors, and take the best integer key (exact total, rank
in the closed neighborhood, strategy) over each closed neighborhood
(see :func:`imitation_step`). ``torus_graph`` and ``cycle_graph`` make a
torus, stepped on wrapped shifted views of its (height, width) state
grid; ``complete_graph`` makes a complete graph, stepped in closed form
from the count of cooperators and the best total. ``player_graph``
validates given pairs and lays out the closed neighborhoods in padded
tables, one per group of players whose closed sizes share a ceiling of
log2, with one sort of the directed pairs; a step gathers keys through
them. A torus or a complete graph builds such a table only when
``closed_neighborhoods`` is read, and the tuple view ``neighbors``, kept
for the benchmark's tracer, is read off the tables on first use; running
the dynamics makes neither. A :class:`PopulationState` holds one
read-only bool array, True where the player cooperates.

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
from typing import NamedTuple

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
    array of their ``degrees``, and the ``form`` its builder knows, which
    steps the dynamics: a torus (a cycle is a torus one row high), a
    complete graph, or the padded tables of an edge list. A form counts
    each player's cooperating neighbors and takes the best key over each
    closed neighborhood (see :func:`imitation_step`).

    ``closed_neighborhoods`` holds each player's run [self, neighbors
    ascending] in padded tables, one ``(ids, table)`` pair per group of
    players whose closed sizes share a ceiling of log2. ``table`` is a
    (width, len(ids)) intp array, width the group's largest closed size;
    column j holds player ids[j]'s run, then pads of the sentinel index
    ``player_count``. The pads take fewer entries than the runs, so the
    tables hold under 2 (players + 2 edges) entries. Players ascend
    within a group, groups ascend in size. An edge list is stepped on
    its tables; a torus or a complete graph builds its one table from
    the form only when it is read, and keeps it. The arrays are made
    read-only. The builders below make the forms; a PlayerGraph
    constructed directly is not checked."""

    degrees: np.ndarray
    form: _Torus | _Complete | _Tables

    def __post_init__(self):
        self.degrees.setflags(write=False)
        if isinstance(self.form, _Tables):
            self.closed_neighborhoods  # an edge list's, made read-only now

    @property
    def player_count(self) -> int:
        return self.degrees.size

    @cached_property
    def max_degree(self) -> int:
        return int(self.degrees.max())

    @cached_property
    def closed_neighborhoods(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        groups = self.form.tables()
        for values in itertools.chain.from_iterable(groups):
            values.setflags(write=False)
        return groups

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Each player's neighbors in ascending order."""
        runs: list[tuple[int, ...]] = [()] * self.player_count
        degrees = self.degrees.tolist()
        for ids, table in self.closed_neighborhoods:
            for p, column in zip(ids.tolist(), table[1:].T.tolist()):
                runs[p] = tuple(column[:degrees[p]])
        return tuple(runs)


class _Tables(NamedTuple):
    """An edge list's form: its padded closed-neighborhood tables."""

    groups: tuple[tuple[np.ndarray, np.ndarray], ...]

    def tables(self):
        return self.groups

    def _by_player(self, parts: list[np.ndarray]) -> np.ndarray:
        """Values given per table, in the order of its ids, in player order."""
        if len(parts) == 1:
            return parts[0]  # the one table lists every player in order
        values = np.empty(sum(part.size for part in parts), parts[0].dtype)
        for (ids, _), part in zip(self.groups, parts):
            values[ids] = part
        return values

    def count(self, cooperates: np.ndarray, dtype) -> np.ndarray:
        cooperating = np.append(cooperates, False).view(np.int8)  # the sentinel plays D
        return self._by_player([cooperating[table[1:]].sum(axis=0, dtype=dtype)
                                for _, table in self.groups])

    def adopt(self, keys: np.ndarray, top: int) -> np.ndarray:
        # Row k of a column is the k-th of the run and gains top - 2k.
        parts = []
        for _, table in self.groups:
            best = keys[table]
            best += np.arange(top, top - 2 * len(table), -2, dtype=keys.dtype)[:, None]
            parts.append(best.max(axis=0) & 1 == 1)
        return self._by_player(parts)


def _regular(table: np.ndarray) -> PlayerGraph:
    """The regular graph whose one table is ``table``."""
    width, n = table.shape
    return PlayerGraph(np.full(n, width - 1), _Tables(((table[0], table),)))


def _padded(degrees: np.ndarray, runs: np.ndarray) -> PlayerGraph:
    """The graph of ``runs``, player p's degrees[p] neighbors ascending,
    laid end to end by player. A regular graph's runs are read down its
    table's rows 1..; other runs are scattered into padded tables."""
    n = degrees.size
    degree = int(degrees[0])
    if np.all(degrees == degree):
        table = np.empty((degree + 1, n), np.intp)  # row-major, as gathered
        table[0], table[1:] = np.arange(n), runs.reshape(n, degree).T
        return _regular(table)
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
    return PlayerGraph(degrees, _Tables(tuple(groups)))


def _whole(end) -> bool:
    """Whether one end of an object array is a whole number; a value
    that takes no ``% 1``, such as None, is not."""
    try:
        return bool(end % 1 == 0)
    except TypeError:
        return False


def player_graph(player_count: int, edges) -> PlayerGraph:
    """Build a validated PlayerGraph from (a, b) pairs of whole numbers,
    of any number type. The first pair in input order with an end that
    is not a whole number, or not a number at all, is reported; then the
    first pair that is a self-loop, has an end out of range or repeats
    an earlier pair (either way round), in that order of checks."""
    if player_count < 1:
        raise ValueError("player_count must be at least 1")
    given = np.asarray(edges)
    if given.dtype.kind not in "biuf":  # not all numbers: keep ends as given
        given = np.asarray(edges, dtype=object)
    if given.size == 0:
        given = np.empty((0, 2), np.intp)
    if given.ndim != 2 or given.shape[1] != 2:
        raise ValueError(f"edges must be (a, b) pairs, got shape {given.shape}")
    if given.dtype == object:
        whole = np.array([_whole(a) and _whole(b) for a, b in given.tolist()],
                         bool)
    else:
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


class _Complete(NamedTuple):
    """The complete graph's form: every player sees all n players."""

    n: int

    def tables(self):
        n = self.n
        table = np.empty((n, n), np.intp)
        table[0] = np.arange(n)
        # Player p's k-th neighbor is k below p and k + 1 from p on.
        k = np.arange(n - 1)[:, None]
        np.greater_equal(k, table[0], out=table[1:])
        table[1:] += k
        return ((table[0], table),)

    def count(self, cooperates: np.ndarray, dtype) -> np.ndarray:
        return int(np.count_nonzero(cooperates)) - cooperates.astype(dtype)

    def adopt(self, keys: np.ndarray, top: int) -> np.ndarray:
        # A player whose total is the largest keeps its strategy (its own
        # key gains the most); every other player takes the strategy of
        # the first player with that total. keys >> 1 is total * width.
        totals = keys[:-1] >> 1
        first = int(np.argmax(totals))
        return np.where(totals == totals[first], keys[:-1] & 1, keys[first] & 1) == 1


def complete_graph(n: int) -> PlayerGraph:
    if n < 1:
        raise ValueError("player_count must be at least 1")
    return PlayerGraph(np.full(n, n - 1), _Complete(n))


def cycle_graph(n: int) -> PlayerGraph:
    if n < 3:
        raise ValueError("cycle needs at least 3 players")
    return torus_graph(n, 1)


def _wrap_classes(size: int) -> tuple[np.ndarray, np.ndarray]:
    """Positions 0, 1 and size - 1 of a torus axis (those that exist),
    each standing for the positions from it to the next, and the counts
    of those: the first, the inner and the last, which wrap alike."""
    first = np.array(sorted({0, min(1, size - 1), size - 1}))
    return first, np.diff(first, append=size)


class _Torus:
    """A width x height torus's form, on its (height, width) player grid.

    Each direction to a neighbor is a view of the grid copied inside a
    wrapped border (``_wrapped``), and the offset from a player to its
    neighbor that way is set by the player's wrap class, kept in
    ``offsets``. A direction that reaches the player itself (a side of
    1) or the player the opposite direction reaches (a side of 2) is
    left out, so wrap duplicates collapse to single edges. A neighbor's
    row in the closed run [self, neighbors ascending] is 1 + the number
    of smaller offsets, and ``gains`` is the player grid of the
    2 (degree - row) that its key gains."""

    def __init__(self, width: int, height: int):
        self.shape = (height, width)
        (rows, row_counts), (cols, col_counts) = _wrap_classes(height), _wrap_classes(width)
        self.counts = (row_counts, col_counts)
        rows = rows[:, None]
        directions = [((slice(1 + s, 1 + s + height), slice(1, -1)),
                       ((rows + s) % height - rows) * width)
                      for s in (-1, 1)][:height - 1]
        directions += [((slice(1, -1), slice(1 + s, 1 + s + width)),
                        (cols + s) % width - cols) for s in (-1, 1)][:width - 1]
        self.views = [view for view, _ in directions]
        self.offsets = [offset for _, offset in directions]
        self.degree = degree = len(directions)
        self.gains = [self._spread(2 * (degree - 1 - sum(o < d for o in self.offsets)),
                                   np.int32) for d in self.offsets]

    def _spread(self, values, dtype) -> np.ndarray:
        """The player grid of ``values`` given by wrap class."""
        rows, cols = self.counts
        values = np.broadcast_to(values, (rows.size, cols.size)).astype(dtype)
        return np.repeat(np.repeat(values, cols, axis=1), rows, axis=0)

    def tables(self):
        n = self.shape[0] * self.shape[1]
        table = np.empty((self.degree + 1, n), np.intp)
        table[0] = players = np.arange(n)
        for offset, gain in zip(self.offsets, self.gains):
            table[self.degree - gain.ravel() // 2, players] = \
                players + self._spread(offset, np.intp).ravel()
        return ((table[0], table),)

    def _wrapped(self, values: np.ndarray) -> np.ndarray:
        """The grid of ``values`` inside a border that repeats the
        opposite edge (corners unset)."""
        height, width = self.shape
        grid = np.empty((height + 2, width + 2), values.dtype)
        grid[1:-1, 1:-1] = values.reshape(self.shape)
        grid[0, 1:-1], grid[-1, 1:-1] = grid[-2, 1:-1], grid[1, 1:-1]
        grid[1:-1, 0], grid[1:-1, -1] = grid[1:-1, -2], grid[1:-1, 1]
        return grid

    def count(self, cooperates: np.ndarray, dtype) -> np.ndarray:
        grid = self._wrapped(cooperates.view(np.int8))
        n_c = np.zeros(self.shape, np.int8)
        for view in self.views:
            n_c += grid[view]
        return n_c.astype(dtype).ravel()

    def adopt(self, keys: np.ndarray, top: int) -> np.ndarray:
        grid = self._wrapped(keys[:-1])
        best = grid[1:-1, 1:-1] + top
        for view, gain in zip(self.views, self.gains):
            np.maximum(best, grid[view] + gain, out=best)
        return (best & 1 == 1).ravel()


def torus_graph(width: int, height: int) -> PlayerGraph:
    """Width x height lattice with wrap-around and 4-neighborhoods.
    Wrap duplicates at width or height <= 2 collapse to single edges."""
    if width < 1 or height < 1:
        raise ValueError("torus dimensions must be at least 1")
    form = _Torus(width, height)
    return PlayerGraph(np.full(width * height, form.degree), form)


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
    int32 when the keys of ``imitation_step`` fit in int32, int64 when
    they fit in int64, and Python ints otherwise."""
    ratios = [v.as_integer_ratio() for v in (m.R, m.S, m.T, m.U)]
    scale = max(den for _, den in ratios)  # powers of two: this is the lcm
    R, S, T, U = (num * (scale // den) for num, den in ratios)
    graph = state.graph
    big = max(map(abs, (R, S, T, U)))
    degree = graph.max_degree
    # A key is total * 2 width + 2 (width - 1 - row) + strategy, width =
    # degree + 1, and the sentinel's total is -big * degree - 1: every
    # key, and every term summed below, lies within 2 big (degree + 2)^2.
    bound = 2 * max(big, 1) * (degree + 2) ** 2
    dtype = np.int32 if bound < 2 ** 31 else np.int64 if bound < 2 ** 63 else object
    n_c = graph.form.count(state.cooperates, dtype)
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
    the lowest player index. That player is the first maximum of the
    closed neighborhood in the order [self, neighbors ascending], and
    the one maximum of the key total * 2 width + 2 (width - 1 - row) +
    strategy, row its place in that order and width the largest closed
    size. The graph's form takes that maximum for every player at once
    (``adopt``); its low bit is the strategy adopted."""
    totals, _ = _integer_scores(state, m)
    graph = state.graph
    top = 2 * graph.max_degree  # 2 (width - 1)
    keys = totals * (top + 2)
    keys[:-1] += state.cooperates
    stepped = graph.form.adopt(keys, top)
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
