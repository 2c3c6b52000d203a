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

Randomness enters only through the explicit seed of
:func:`random_population`; the dynamics themselves are deterministic.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property

import numpy as np

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


@dataclass(frozen=True)
class PlayerGraph:
    """Simple undirected graph over players 0..player_count-1."""

    player_count: int
    edges: tuple[tuple[int, int], ...]

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        adjacency: list[list[int]] = [[] for _ in range(self.player_count)]
        for a, b in self.edges:
            adjacency[a].append(b)
            adjacency[b].append(a)
        return tuple(tuple(sorted(ns)) for ns in adjacency)

    @cached_property
    def closed_neighborhoods(self) -> tuple[np.ndarray, np.ndarray]:
        """(members, starts): every player's closed neighborhood -- the
        player itself, then its neighbors in ascending order -- laid end
        to end in ``members``, with player p's run beginning at
        ``starts[p]``. Its size is player_count + 2 * len(edges)."""
        n = self.player_count
        members = np.fromiter(
            itertools.chain.from_iterable(
                (p, *ns) for p, ns in enumerate(self.neighbors)),
            np.intp, n + 2 * len(self.edges))
        starts = np.zeros(n, np.intp)
        np.cumsum([len(ns) + 1 for ns in self.neighbors[:-1]], out=starts[1:])
        return members, starts


def player_graph(player_count: int, edges) -> PlayerGraph:
    """Build a validated PlayerGraph; rejects self-loops and duplicates."""
    if player_count < 1:
        raise ValueError("player_count must be at least 1")
    normalized: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for a, b in edges:
        a, b = int(a), int(b)
        if a == b:
            raise ValueError(f"self-loop {a}-{b} not allowed")
        if not (0 <= a < player_count and 0 <= b < player_count):
            raise ValueError(f"edge {a}-{b} out of range for {player_count} players")
        key = (min(a, b), max(a, b))
        if key in seen:
            raise ValueError(f"duplicate edge {key[0]}-{key[1]}")
        seen.add(key)
        normalized.append(key)
    return PlayerGraph(player_count, tuple(sorted(normalized)))


def complete_graph(n: int) -> PlayerGraph:
    return player_graph(n, [(a, b) for a in range(n) for b in range(a + 1, n)])


def cycle_graph(n: int) -> PlayerGraph:
    if n < 3:
        raise ValueError("cycle needs at least 3 players")
    return player_graph(n, [(k, (k + 1) % n) for k in range(n)])


def torus_graph(width: int, height: int) -> PlayerGraph:
    """Width x height lattice with wrap-around and 4-neighborhoods.
    Wrap duplicates at width or height <= 2 collapse to single edges."""
    if width < 1 or height < 1:
        raise ValueError("torus dimensions must be at least 1")
    edges: set[tuple[int, int]] = set()
    for row in range(height):
        for col in range(width):
            p = row * width + col
            for q in (row * width + (col + 1) % width,
                      ((row + 1) % height) * width + col):
                if q != p:
                    edges.add((min(p, q), max(p, q)))
    return player_graph(width * height, sorted(edges))


@dataclass(frozen=True)
class PopulationState:
    """Strategy assignment over a player graph."""

    graph: PlayerGraph
    strategies: tuple[Strategy, ...]

    def __post_init__(self):
        object.__setattr__(self, "strategies", tuple(self.strategies))
        if len(self.strategies) != self.graph.player_count:
            raise ValueError(
                f"expected {self.graph.player_count} strategies, "
                f"got {len(self.strategies)}")
        bad = {s for s in self.strategies if s not in (C, D)}
        if bad:
            raise ValueError(f"strategies must be 'C' or 'D', got {sorted(bad)}")

    def cooperation_fraction(self) -> float:
        return self.strategies.count(C) / self.graph.player_count


def all_cooperate(graph: PlayerGraph) -> PopulationState:
    return PopulationState(graph, (C,) * graph.player_count)


def all_defect(graph: PlayerGraph) -> PopulationState:
    return PopulationState(graph, (D,) * graph.player_count)


def single_defector(graph: PlayerGraph) -> PopulationState:
    """All cooperators except player 0."""
    return PopulationState(graph, (D,) + (C,) * (graph.player_count - 1))


def random_population(graph: PlayerGraph, fraction: float,
                      seed: int) -> PopulationState:
    """Each player cooperates independently with probability ``fraction``;
    fully determined by the seed."""
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction!r}")
    rng = random.Random(seed)
    return PopulationState(
        graph, tuple(C if rng.random() < fraction else D
                     for _ in range(graph.player_count)))


def _integer_scores(state: PopulationState,
                    m: PayoffMatrix) -> tuple[np.ndarray, int]:
    """(totals, scale): each player's exact total payoff in units of
    1/scale, where scale is the payoffs' common binary denominator. The
    totals are int64 when they cannot overflow it, Python ints otherwise."""
    ratios = [v.as_integer_ratio() for v in (m.R, m.S, m.T, m.U)]
    scale = max(den for _, den in ratios)  # powers of two: this is the lcm
    R, S, T, U = (num * (scale // den) for num, den in ratios)
    members, starts = state.graph.closed_neighborhoods
    degree = np.diff(starts, append=members.size) - 1
    bound = max(map(abs, (R, S, T, U))) * (int(degree.max()) + 1)
    dtype = np.int64 if bound < 2 ** 62 else object
    coop = np.array(state.strategies, dtype="U1") == C
    n_c = np.add.reduceat(coop[members], starts, dtype=np.intp) - coop
    n_d = (degree - n_c).astype(dtype)
    n_c = n_c.astype(dtype)
    return np.where(coop, R * n_c + S * n_d, T * n_c + U * n_d), scale


def scores(state: PopulationState, m: PayoffMatrix) -> list[float]:
    """Each player's total stage payoff against all of its neighbors,
    correctly rounded from the exact total."""
    totals, scale = _integer_scores(state, m)
    return (totals.astype(object) / scale).tolist()


def imitation_step(state: PopulationState, m: PayoffMatrix) -> PopulationState:
    """One synchronous update: adopt the strategy of the best scorer in
    the closed neighborhood; ties keep the current strategy, then go to
    the lowest player index. The first maximum of each closed-neighborhood
    run [self, neighbors ascending] is exactly that player."""
    totals, _ = _integer_scores(state, m)
    members, starts = state.graph.closed_neighborhoods
    candidates = totals[members]
    best = np.maximum.reduceat(candidates, starts)
    sizes = np.diff(starts, append=members.size)
    at_best = np.flatnonzero(candidates == np.repeat(best, sizes))
    # Every run holds its maximum, so the first match at or after a run's
    # start lies inside that run.
    winners = members[at_best[np.searchsorted(at_best, starts)]]
    strategies = np.array(state.strategies, dtype="U1")[winners]
    return PopulationState(state.graph, strategies.tolist())


def run_spatial(state: PopulationState, m: PayoffMatrix,
                steps: int) -> list[float]:
    """Cooperation fraction before the first update and after each of
    ``steps`` synchronous updates (length steps + 1)."""
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    fractions = [state.cooperation_fraction()]
    for _ in range(steps):
        state = imitation_step(state, m)
        fractions.append(state.cooperation_fraction())
    return fractions
