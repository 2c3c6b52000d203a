"""Shared generators and independent oracles for the test suite.

The oracles here deliberately re-derive quantities along a different
route than the library (literal per-equation arithmetic, finite
differences, determinant interpolation) so that agreement is evidence,
not tautology.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from cournotgraph import (CanonicalParams, NetworkSpec,
                          NoUniqueEquilibriumError, analyze, canonical_affine)
from cournotgraph.reports import SweepPoint


def random_network_spec(rng: np.random.Generator,
                        max_markets: int = 4,
                        max_firms: int = 4) -> NetworkSpec:
    """Random valid spec: every firm and market covered, no duplicates."""
    k1 = int(rng.integers(1, max_markets + 1))
    k2 = int(rng.integers(1, max_firms + 1))
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
            results.append(SweepPoint(value, report.verdict.value,
                                      report.eigen_margin))
        except (NoUniqueEquilibriumError, np.linalg.LinAlgError):
            results.append(SweepPoint(value, "ERROR", math.nan))
    return results


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
