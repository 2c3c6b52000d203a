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
integers, and ties are ties whatever order a float sum would take. A
total depends only on degree, strategy and n_C, so a graph ranks the
2 * sum(d + 1) totals of its degrees d once per payoff matrix, and a
step reads ranks (:class:`_KeyTable`; Nowak & May 1992).

Graphs and populations are arrays, from graph to series. A
:class:`PlayerGraph` is its players' degrees and the form its builder
knows, and a step is two primitives of that form: count each player's
cooperating neighbors, and take the best integer key (total's rank,
place in the closed neighborhood, strategy) over each closed neighborhood
(see :func:`imitation_step`). ``torus_graph`` and ``cycle_graph`` make a
torus, stepped on wrapped shifted views of its (height, width) state
grid; ``complete_graph`` makes a complete graph, stepped in closed form
from the count of cooperators and the best total. ``player_graph``
validates given pairs and sorts them once into each player's
neighbors, which ``_padded``, the one writer of a closed-neighborhood
table, lays out in the padded tables its steps gather through. A torus
or a complete graph hands ``_padded`` its neighbors only when
``closed_neighborhoods`` or ``neighbors`` is read, so no step builds a
padded table. A :class:`PopulationState` holds one read-only bool array.

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

from .network import _frozen, pair_ends

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
    """Simple undirected graph over players 0..player_count-1: a
    read-only intp array of their ``degrees``, held by the rule of
    ``network._frozen`` (a caller's writeable array is copied, not
    frozen), and the ``form`` its builder knows, which
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
    within a group, groups ascend in size. ``_padded`` writes every such
    table, read-only: an edge list's as it is built, to step on, and a
    torus's or a complete graph's from its form's ``runs`` when first
    read. The builders below make the forms; a PlayerGraph constructed
    directly is not checked."""

    degrees: np.ndarray
    form: _Torus | _Complete | _Tables

    def __post_init__(self):
        object.__setattr__(self, "degrees", _frozen(self.degrees, np.intp))

    @property
    def player_count(self) -> int:
        return self.degrees.size

    def _key_table(self, m: PayoffMatrix) -> _KeyTable:
        """The :class:`_KeyTable` of payoffs ``m``, kept for the next call."""
        if getattr(self, "_keys", None) is None or self._keys.payoff != m:
            object.__setattr__(self, "_keys", _KeyTable(self, m))
        return self._keys

    @cached_property
    def closed_neighborhoods(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        if isinstance(self.form, _Tables):
            return self.form.groups
        return _padded(self.degrees, self.form.runs())

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

    def _by_player(self, parts: list[np.ndarray]) -> np.ndarray:
        """Values given per table, in the order of its ids, in player order."""
        if len(parts) == 1:
            return parts[0]  # the one table lists every player in order
        values = np.empty(sum(part.size for part in parts), parts[0].dtype)
        for (ids, _), part in zip(self.groups, parts):
            values[ids] = part
        return values

    def count(self, cooperates: np.ndarray) -> np.ndarray:
        cooperating = np.append(cooperates, False).view(np.int8)  # the sentinel plays D
        return self._by_player([cooperating[table[1:]].sum(axis=0, dtype=np.intp)
                                for _, table in self.groups])

    def adopt(self, keys: np.ndarray, top: int) -> np.ndarray:
        # Row k of a column is the k-th of the run and gains top - 2k.
        keys = np.append(keys, np.array(-2 - top, keys.dtype))
        parts = []
        for _, table in self.groups:
            best = keys[table]
            best += np.arange(top, top - 2 * len(table), -2, dtype=keys.dtype)[:, None]
            parts.append(best.max(axis=0) & 1 == 1)
        return self._by_player(parts)


def _padded(degrees: np.ndarray,
            runs: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """The read-only padded tables of ``runs``, player p's degrees[p]
    neighbors ascending, laid end to end by player: the one writer of a
    closed-neighborhood table. A regular graph's runs are read down its
    one table's rows 1..; other runs are scattered into padded tables."""
    n = degrees.size
    degree = int(degrees[0])
    if np.all(degrees == degree):
        table = np.empty((degree + 1, n), np.intp)  # row-major, as gathered
        table[0], table[1:] = np.arange(n), runs.reshape(n, degree).T
        groups = [(table[0], table)]
    else:
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
    for values in itertools.chain.from_iterable(groups):
        values.setflags(write=False)
    return tuple(groups)


def player_graph(player_count: int, edges) -> PlayerGraph:
    """Build a validated PlayerGraph from (a, b) pairs of whole numbers,
    of any number type. The first pair in input order with an end that
    is not a whole number, or not a number at all, is reported; then the
    first pair that is a self-loop, has an end out of range or repeats
    an earlier pair (either way round), in that order of checks."""
    if player_count < 1:
        raise ValueError("player_count must be at least 1")
    given, whole = pair_ends(edges)
    if not whole.all():
        a, b = given[whole.all(axis=1).argmin()].tolist()
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
    degrees = np.bincount(source, minlength=player_count)
    degrees.setflags(write=False)  # handed over, so the graph holds it uncopied
    return PlayerGraph(degrees, _Tables(_padded(degrees, target[order])))


class _Complete(NamedTuple):
    """The complete graph's form: every player sees all n players."""

    n: int

    def runs(self) -> np.ndarray:
        """Every player's neighbors, all the others, laid end to end."""
        return np.nonzero(~np.eye(self.n, dtype=bool))[1]

    def count(self, cooperates: np.ndarray) -> np.ndarray:
        return np.subtract(int(np.count_nonzero(cooperates)), cooperates, dtype=np.intp)

    def adopt(self, keys: np.ndarray, top: int) -> np.ndarray:
        # A player whose total is the largest keeps its strategy (its own
        # key gains the most); every other player takes the strategy of
        # the first player with that total, whose keys reach rank * 2 width.
        best = keys >= (int(keys.max()) & ~1)
        first = int(np.argmax(best))
        return np.where(best, keys & 1 == 1, keys[first] & 1 == 1)


def complete_graph(n: int) -> PlayerGraph:
    if n < 1:
        raise ValueError("player_count must be at least 1")
    return PlayerGraph(_regular(n, n - 1), _Complete(n))


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

    def runs(self) -> np.ndarray:
        """Every player's neighbors, ascending, laid end to end."""
        n = self.shape[0] * self.shape[1]
        near = np.array([self._spread(o, np.intp).ravel() for o in self.offsets], np.intp)
        return np.sort(near.reshape(-1, n).T + np.arange(n)[:, None]).ravel()

    def _wrapped(self, values: np.ndarray) -> np.ndarray:
        """The grid of ``values`` inside a border that repeats the
        opposite edge (corners unset)."""
        height, width = self.shape
        grid = np.empty((height + 2, width + 2), values.dtype)
        grid[1:-1, 1:-1] = values.reshape(self.shape)
        grid[0, 1:-1], grid[-1, 1:-1] = grid[-2, 1:-1], grid[1, 1:-1]
        grid[1:-1, 0], grid[1:-1, -1] = grid[1:-1, -2], grid[1:-1, 1]
        return grid

    def count(self, cooperates: np.ndarray) -> np.ndarray:
        grid = self._wrapped(cooperates.view(np.int8))
        n_c = np.zeros(self.shape, np.int8)
        for view in self.views:
            n_c += grid[view]
        return n_c.astype(np.intp).ravel()

    def adopt(self, keys: np.ndarray, top: int) -> np.ndarray:
        grid = self._wrapped(keys)
        best = grid[1:-1, 1:-1] + top
        for view, gain in zip(self.views, self.gains):
            np.maximum(best, grid[view] + gain, out=best)
        return best.ravel() & 1 == 1    # owns its data: handed over uncopied


def torus_graph(width: int, height: int) -> PlayerGraph:
    """Width x height lattice with wrap-around and 4-neighborhoods.
    Wrap duplicates at width or height <= 2 collapse to single edges."""
    if width < 1 or height < 1:
        raise ValueError("torus dimensions must be at least 1")
    form = _Torus(width, height)
    return PlayerGraph(_regular(width * height, form.degree), form)


def _regular(n: int, degree: int) -> np.ndarray:
    """The degrees of n players of one degree, read-only, so that the
    PlayerGraph they are handed to holds them uncopied."""
    degrees = np.full(n, degree, np.intp)
    degrees.setflags(write=False)
    return degrees


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


def _exact_totals(m: PayoffMatrix, width: int):
    """(scale, dtype, totals): ``totals(d, s, c)`` exact in units of 1/scale, the
    payoffs' binary denominator; int64 if it fits at closed size ``width``, else object."""
    ratios = [v.as_integer_ratio() for v in (m.R, m.S, m.T, m.U)]
    scale = max(den for _, den in ratios)  # powers of two: this is the lcm
    R, S, T, U = (num * (scale // den) for num, den in ratios)
    dtype = np.int64 if 2 * max(map(abs, (R, S, T, U))) * width < 2 ** 63 else object
    slope, level = np.array([T - U, R - S], dtype), np.array([U, S], dtype)
    return scale, dtype, lambda d, s, c: c.astype(dtype, copy=False) * slope[s] + d * level[s]


class _KeyTable:
    """A graph's keys under one payoff matrix. A player of degree d,
    strategy s (1 for C) and c cooperating neighbors reads entry
    base(d) + 2 c + s of ``keys``, in blocks of 2 (d + 1) by distinct
    degree d ascending (``base``: per player, or a regular graph's), of
    rank * 2 width + s: rank the number of entries of smaller ``totals``,
    width the largest closed size; int32 while a key plus 2 (width - 1) fits."""

    def __init__(self, graph: PlayerGraph, m: PayoffMatrix):
        self.payoff, self.width = m, int(graph.degrees.max()) + 1
        self.scale, dtype, self.totals = _exact_totals(m, self.width)
        present = np.flatnonzero(np.bincount(graph.degrees))  # the distinct degrees
        end = np.cumsum(2 * present + 2)
        base, entries = end - 2 * present - 2, int(end[-1])
        piece = max(-(-entries // 32), 64)  # so the build holds little besides ranked, keys

        def pieces():
            for d, start in zip(present.tolist(), base.tolist()):
                for c in range(0, d + 1, piece):
                    count = np.arange(c, min(c + piece, d + 1))
                    for s in (0, 1):
                        at = slice(start + 2 * c + s, start + 2 * (c + count.size), 2)
                        yield at, s, self.totals(d, s, count)

        ranked = np.empty(entries, dtype)
        for at, _, totals in pieces():
            ranked[at] = totals
        ranked.sort(kind="stable")
        self.keys = np.empty(entries, np.int32 if entries * 2 * self.width <= 2 ** 31 else np.int64)
        for at, s, totals in pieces():
            self.keys[at] = ranked.searchsorted(totals) * (2 * self.width) + s
        self.base = base[np.searchsorted(present, graph.degrees) if present.size > 1 else 0]

    def index(self, state: PopulationState) -> np.ndarray:
        index = state.graph.form.count(state.cooperates)
        index <<= 1
        index += state.cooperates
        index += self.base
        return index


def scores(state: PopulationState, m: PayoffMatrix) -> list[float]:
    """Each player's total stage payoff against all of its neighbors,
    correctly rounded from the exact total."""
    degrees, form = state.graph.degrees, state.graph.form
    scale, _, exact = _exact_totals(m, int(degrees.max()) + 1)
    totals = exact(degrees, state.cooperates.view(np.int8), form.count(state.cooperates))
    return (totals.astype(object) / scale).tolist()


def imitation_step(state: PopulationState, m: PayoffMatrix) -> PopulationState:
    """One synchronous update: adopt the strategy of the best scorer in
    the closed neighborhood; ties keep the current strategy, then go to
    the lowest player index. That player is the first maximum of the
    closed neighborhood in the order [self, neighbors ascending], and
    the one maximum of the key rank * 2 width + 2 (width - 1 - row) +
    strategy (:class:`_KeyTable`), row its place in that order. The
    graph's form takes that maximum for every player at once
    (``adopt``); its low bit is the strategy adopted."""
    graph, table = state.graph, state.graph._key_table(m)
    stepped = graph.form.adopt(table.keys[table.index(state)], 2 * (table.width - 1))
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
