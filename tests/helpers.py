"""Shared generators and independent oracles for the test suite.

The oracles here deliberately re-derive quantities along a different
route than the library (literal per-equation arithmetic, finite
differences, determinant interpolation) so that agreement is evidence,
not tautology.
"""

from __future__ import annotations

import dataclasses
import io
import itertools
import math
import random
from fractions import Fraction

import numpy as np

from cournotgraph import (CanonicalParams, NetworkSpec,
                          NoUniqueEquilibriumError, analyze, canonical_affine)
from cournotgraph.dynamics import _segments
from cournotgraph.pdgame import C, D
from cournotgraph.reports import Sweep
from cournotgraph.stability import VERDICTS


def random_network_spec(rng: np.random.Generator,
                        max_markets: int = 4,
                        max_firms: int = 4) -> NetworkSpec:
    """Random valid spec: every firm and market covered, no duplicates."""
    k1 = int(rng.integers(1, max_markets + 1))
    k2 = int(rng.integers(1, max_firms + 1))
    return network_spec_of_shape(rng, k1, k2)


def network_spec_of_shape(rng: np.random.Generator, k1: int,
                          k2: int) -> NetworkSpec:
    """Random valid spec on k1 markets and k2 firms: each possible edge
    drawn with probability 0.6, then every firm and market covered."""
    edges = {(i, j) for i in range(1, k1 + 1) for j in range(1, k2 + 1)
             if rng.random() < 0.6}
    for i in range(1, k1 + 1):
        if not any(e[0] == i for e in edges):
            edges.add((i, int(rng.integers(1, k2 + 1))))
    for j in range(1, k2 + 1):
        if not any(e[1] == j for e in edges):
            edges.add((int(rng.integers(1, k1 + 1)), j))
    return NetworkSpec(
        market_count=k1, firm_count=k2, edges=tuple(sorted(edges)),
        alpha=tuple(rng.uniform(0.1, 2.0, k1)),
        beta=tuple(rng.uniform(0.1, 2.0, k1)),
        gamma=tuple(rng.uniform(0.1, 2.0, k2)),
        speed=tuple(rng.uniform(0.5, 2.0, k2)))


def network_spec_with_edges(rng: np.random.Generator, k1: int, k2: int,
                            edge_count: int) -> NetworkSpec:
    """Random valid spec on k1 markets and k2 firms with exactly
    ``edge_count`` edges, shaped as the benchmark's networks are: each
    firm on a random market, each market still without an edge on a
    random firm, then random edges up to the count; alpha in [1, 2],
    beta in [0.2, 1], gamma in [0.1, 0.5] and speeds in [0.5, 1.5]."""
    edges = {(int(rng.integers(1, k1 + 1)), j) for j in range(1, k2 + 1)}
    for i in sorted(set(range(1, k1 + 1)) - {i for i, _ in edges}):
        edges.add((i, int(rng.integers(1, k2 + 1))))
    while len(edges) < edge_count:
        edges.add((int(rng.integers(1, k1 + 1)), int(rng.integers(1, k2 + 1))))
    return NetworkSpec(
        market_count=k1, firm_count=k2, edges=tuple(sorted(edges)),
        alpha=tuple(rng.uniform(1.0, 2.0, k1)),
        beta=tuple(rng.uniform(0.2, 1.0, k1)),
        gamma=tuple(rng.uniform(0.1, 0.5, k2)),
        speed=tuple(rng.uniform(0.5, 1.5, k2)))


def matching_spec(rng: np.random.Generator, pairs: int, cross: int = 3,
                  speed=None) -> NetworkSpec:
    """Random valid spec on ``pairs`` markets and as many firms: edge
    (i, i) for each pair, then ``cross`` more distinct edges (at most
    pairs^2 - pairs). It has n = pairs + cross edges and k = 2 pairs
    firms and markets, so n <= k while cross <= pairs. ``speed`` defaults
    to random speeds in [0.5, 2]."""
    edges = {(i, i) for i in range(1, pairs + 1)}
    while len(edges) < pairs + cross:
        edges.add(tuple(int(v) for v in rng.integers(1, pairs + 1, 2)))
    if speed is None:
        speed = rng.uniform(0.5, 2.0, pairs)
    return NetworkSpec(
        market_count=pairs, firm_count=pairs, edges=tuple(sorted(edges)),
        alpha=tuple(rng.uniform(0.1, 2.0, pairs)),
        beta=tuple(rng.uniform(0.1, 2.0, pairs)),
        gamma=tuple(rng.uniform(0.1, 2.0, pairs)), speed=tuple(speed))


def to_affine_by_loop(spec: NetworkSpec) -> tuple[np.ndarray, np.ndarray]:
    """(c, A) of the flow dynamics, entry by entry: row (i, j) holds
    b_j (gamma_j + 2 beta_i) on the diagonal, b_j gamma_j for every
    other edge of firm j and b_j beta_i for every other edge into
    market i. Same products as the library, organised as a double loop
    over edges instead of incidence index arrays."""
    order = tuple(sorted(set(spec.edges)))
    n = len(order)
    c = np.zeros(n)
    a = np.zeros((n, n))
    for row, (i, j) in enumerate(order):
        b = spec.speed[j - 1]
        c[row] = b * spec.alpha[i - 1]
        a[row, row] = b * (spec.gamma[j - 1] + 2.0 * spec.beta[i - 1])
        for col, (l, k) in enumerate(order):
            if col == row:
                continue
            if k == j:
                a[row, col] = b * spec.gamma[j - 1]
            elif l == i:
                a[row, col] = b * spec.beta[i - 1]
    return c, a


def incidence_by_loop(spec: NetworkSpec) -> np.ndarray:
    """The dense n x k edge incidence U = [F | M] of a valid spec, firms
    first, entry by entry: the row of edge (i, j), in canonical order,
    holds a 1 in firm j's column j - 1 and in market i's column
    firm_count + i - 1."""
    order = sorted(set(spec.edges))
    u = np.zeros((len(order), spec.firm_count + spec.market_count))
    for row, (i, j) in enumerate(order):
        u[row, j - 1] = 1.0
        u[row, spec.firm_count + i - 1] = 1.0
    return u


def sum_in_edge_order(terms: np.ndarray) -> np.ndarray:
    """The sum of ``terms`` over its first axis, one edge's term after
    another, as ``np.bincount`` adds its weights."""
    total = np.zeros(terms.shape[1:])
    for term in terms:
        total += term
    return total


def dense_field(system):
    """The field c - A q of an affine system as one dense matrix-vector
    product on ``system.matrix``: the oracle for the matrix-free field of
    network systems."""
    c, a = system.constant, system.matrix
    return lambda q: c - a @ np.asarray(q, dtype=float)


def euler_exact(system, q0, t_end: float, dt: float) -> np.ndarray:
    """The states of an euler run of ``integrate``, q <- q + h (c - A q),
    in exact rational arithmetic from the float A, c and q0 and
    ``integrate``'s own step lengths, each state rounded once to floats:
    the trajectory with no rounding along the way. The rationals are
    ``Fraction`` values held as integer numerators over one common
    denominator, so a step takes no gcd: 556 steps of a 3-variable
    system take about 0.1 s this way and 12 s as ``Fraction`` sums."""
    q = [Fraction(x) for x in np.asarray(q0, dtype=float).tolist()]
    den = math.lcm(*(x.denominator for x in q))
    nums = [int(x * den) for x in q]
    rows = [[float(x) for x in q]]
    for h, count in _segments(t_end, dt):
        h = Fraction(h)
        ha = [[h * Fraction(x) for x in row] for row in system.matrix.tolist()]
        hc = [h * Fraction(x) for x in system.constant.tolist()]
        d = math.lcm(*(x.denominator for x in itertools.chain(hc, *ha)))
        m = [[int(x * d) for x in row] for row in ha]
        k = [int(x * d) for x in hc]
        for _ in range(count):
            nums = [ni * d + ki * den
                    - sum(mij * nj for mij, nj in zip(row, nums))
                    for ni, ki, row in zip(nums, k, m)]
            den *= d
            rows.append([ni / den for ni in nums])  # correctly rounded
    return np.array(rows)


def random_canonical(rng: np.random.Generator,
                     symmetric: bool = False) -> CanonicalParams:
    """r1, r2, r3 in (0, 2]; r4, r5 in [-1, 1]."""
    r1 = float(rng.uniform(0.0, 2.0)) or 1e-6
    r2 = r1 if symmetric else (float(rng.uniform(0.0, 2.0)) or 1e-6)
    r3 = float(rng.uniform(0.0, 2.0)) or 1e-6
    return CanonicalParams(r1, r2, r3,
                           float(rng.uniform(-1.0, 1.0)),
                           float(rng.uniform(-1.0, 1.0)))


def two_firm_rhs_literal(alpha1, alpha2, beta1, beta2, gamma1, gamma2,
                         q11, q21, q22):
    """The two-firm/two-market right-hand side written out line by line
    (unit adjustment speeds)."""
    return (alpha1 - gamma1 * (q11 + q21) - 2.0 * beta1 * q11,
            alpha2 - gamma1 * (q11 + q21) - beta2 * (2.0 * q21 + q22),
            alpha2 - gamma2 * q22 - beta2 * (2.0 * q22 + q21))


def charpoly_by_determinant(a: np.ndarray) -> np.ndarray:
    """Coefficients (a1..an) of det(lambda I + A) via interpolation:
    evaluate the determinant at n+1 integer nodes and fit the monic
    polynomial. Completely independent of the recursion under test."""
    n = a.shape[0]
    nodes = np.arange(n + 1, dtype=float)
    values = [np.linalg.det(x * np.eye(n) + a) for x in nodes]
    coeffs = np.polyfit(nodes, values, n)
    return coeffs[1:] / coeffs[0]


def central_difference(f, x: np.ndarray, k: int, h: float) -> float:
    """Central finite difference of f along coordinate k."""
    up = x.copy()
    down = x.copy()
    up[k] += h
    down[k] -= h
    return (f(up) - f(down)) / (2.0 * h)


def sweep_by_analyze(scenario, param: str, start: float, stop: float,
                     points: int):
    """The verdict map point by point: one full ``analyze`` per grid
    value, ERROR where it finds no unique equilibrium."""
    results = []
    for k in range(points):
        value = start + k * (stop - start) / (points - 1)
        r = dataclasses.replace(scenario.r, **{param: value})
        try:
            report = analyze(canonical_affine(r), r)
            results.append((value, report.verdict.value, report.eigen_margin))
        except (NoUniqueEquilibriumError, np.linalg.LinAlgError):
            results.append((value, "ERROR", math.nan))
    return sweep_of(results)


def sweep_of(rows) -> Sweep:
    """The ``Sweep`` of (value, verdict, margin) rows."""
    values, verdicts, margins = zip(*rows)
    return Sweep(np.array(values), np.array(margins),
                 np.array([VERDICTS.index(v) for v in verdicts], np.uint8))


def sweep_verdicts(result: Sweep) -> list[str]:
    """The verdict of each point of a ``Sweep``."""
    return [VERDICTS[code] for code in result.codes]


def written(write, *args) -> str:
    """The text ``write(*args, out)`` writes to a binary file."""
    out = io.BytesIO()
    write(*args, out)
    return out.getvalue().decode("ascii")


def trajectory_csv_by_value(trajectory, names, thin: int = 1) -> str:
    """Trajectory CSV one value at a time: ``repr(float(x))`` per value,
    one joined string per kept row, the final row always kept."""
    count = len(trajectory.times)
    kept = list(range(0, count, thin))
    if kept[-1] != count - 1:
        kept.append(count - 1)
    lines = ["t," + ",".join(names)]
    for k in kept:
        row = [repr(float(trajectory.times[k]))]
        row.extend(repr(float(v)) for v in trajectory.states[k])
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def pairs(graph) -> tuple[tuple[int, int], ...]:
    """A player graph's edges as (lower, higher) tuples, ascending, read
    off its closed-neighborhood tables."""
    n = graph.player_count
    return tuple(sorted((p, q) for ids, table in graph.closed_neighborhoods
                        for p, run in zip(ids.tolist(), table[1:].T.tolist())
                        for q in run if p < q < n))


def letters(state) -> tuple[str, ...]:
    """'C' or 'D' per player of a population state."""
    return tuple(C if c else D for c in state.cooperates.tolist())


def player_graph_by_loop(player_count: int, edges) -> tuple[tuple[int, int], ...]:
    """The sorted (lower, higher) edges of a player graph, validated pair
    by pair with a set of the pairs seen so far; raises the library's
    ValueError messages for the first offending pair."""
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
    return tuple(sorted(normalized))


def complete_edges_by_loop(n: int) -> tuple[tuple[int, int], ...]:
    return player_graph_by_loop(n, [(a, b) for a in range(n)
                                    for b in range(a + 1, n)])


def cycle_edges_by_loop(n: int) -> tuple[tuple[int, int], ...]:
    return player_graph_by_loop(n, [(k, (k + 1) % n) for k in range(n)])


def torus_edges_by_loop(width: int, height: int) -> tuple[tuple[int, int], ...]:
    """Right and down neighbor of every cell, wrapped, collected in a set
    so the wrap duplicates of width or height <= 2 count once."""
    edges: set[tuple[int, int]] = set()
    for row in range(height):
        for col in range(width):
            p = row * width + col
            for q in (row * width + (col + 1) % width,
                      ((row + 1) % height) * width + col):
                if q != p:
                    edges.add((min(p, q), max(p, q)))
    return player_graph_by_loop(width * height, sorted(edges))


def closed_neighborhoods_by_loop(player_count: int, edges):
    """(members, starts) from per-player adjacency lists: each player,
    then its sorted neighbors, run after run."""
    adjacency: list[list[int]] = [[] for _ in range(player_count)]
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    runs = [[p, *sorted(ns)] for p, ns in enumerate(adjacency)]
    members = list(itertools.chain.from_iterable(runs))
    starts = list(itertools.accumulate((len(r) for r in runs[:-1]), initial=0))
    return members, starts


def random_strategies_by_loop(player_count: int, fraction: float,
                              seed: int) -> tuple[str, ...]:
    """One ``random.Random(seed).random()`` draw per player, in order."""
    rng = random.Random(seed)
    return tuple(C if rng.random() < fraction else D
                 for _ in range(player_count))


def record_factored_sizes(monkeypatch) -> list[int]:
    """Patch numpy's solvers and factorisations to record the order of
    every matrix passed to them."""
    sizes: list[int] = []
    for name in ("solve", "cholesky", "inv", "eigvalsh", "eigh", "eigvals"):
        def recorded(a, *args, _call=getattr(np.linalg, name), **kwargs):
            sizes.append(np.shape(a)[-1])
            return _call(a, *args, **kwargs)
        monkeypatch.setattr(np.linalg, name, recorded)
    return sizes
