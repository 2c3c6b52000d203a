"""Profit functions and gradient-adjustment dynamics on a supply network.

Firm j's profit is revenue minus production cost minus price impact:

    Pi_j = sum_i alpha_i q_ij  -  gamma_j s_j^2 / 2  -  sum_i beta_i q_ij c_i

where s_j is firm j's total output, c_i is the total supply into market
i, and both sums run only over edges present in the graph. Under
gradient adjustment each flow moves proportionally to its own marginal
profit, dq_ij/dt = b_j dPi_j/dq_ij, which expands to

    dq_ij/dt = b_j [ alpha_i - gamma_j s_j - beta_i q_ij - beta_i c_i ]

and is therefore affine in q. Every function here reads the system
that :func:`cournotgraph.network.to_affine` assembles, so each rejects
an invalid spec with its error and the spec's structure is derived only
once. :func:`vector_field` is that system's field, so the package has
one formula for it; the tests check it against a per-entry dense
matrix. The profit functions take the supplies s = F^T q and c = M^T q
(F and M the edge-firm and edge-market incidence matrices) from the
same structure.

Flows may go negative during integration: the dynamics have no
constraint mechanism, and clamping would silently change them. Negative
excursions are flagged by the long-run classifier instead of prevented.
"""

from __future__ import annotations

import numpy as np

from .network import NetworkSpec, to_affine


def _flows(q, n: int) -> np.ndarray:
    """q as a float vector, checked to have n finite entries."""
    qv = np.asarray(q, dtype=float)
    if qv.shape != (n,):
        raise ValueError(
            f"flow vector must have length {n}, got shape {qv.shape}")
    if not np.all(np.isfinite(qv)):
        raise ValueError("flow vector contains non-finite entries")
    return qv


def _supplies(spec: NetworkSpec, q):
    """(``to_affine(spec)``, checked q, its supplies s = F^T q, c = M^T q)."""
    system = to_affine(spec)
    qv = _flows(q, system.dimension)
    return (system, qv) + system.structure.supplies(qv)


def firm_supply(spec: NetworkSpec, q, j: int) -> float:
    """Total output s_j of firm j: sum of q over all of its edges."""
    if not 1 <= j <= spec.firm_count:
        raise ValueError(f"unknown firm index {j}")
    return float(_supplies(spec, q)[2][j - 1])


def market_supply(spec: NetworkSpec, q, i: int) -> float:
    """Total supply c_i into market i: sum of q over all edges into it."""
    if not 1 <= i <= spec.market_count:
        raise ValueError(f"unknown market index {i}")
    return float(_supplies(spec, q)[3][i - 1])


def profit(spec: NetworkSpec, q, j: int) -> float:
    """Firm j's profit at flow state q."""
    if not 1 <= j <= spec.firm_count:
        raise ValueError(f"unknown firm index {j}")
    system, qv, s, c = _supplies(spec, q)
    own = system.structure.firm == j - 1
    markets, q_j = system.structure.market[own], qv[own]
    sales = (np.array(spec.alpha)[markets] * q_j
             - system.structure.beta[own] * q_j * c[markets])
    s_j = float(s[j - 1])
    return -spec.gamma[j - 1] * s_j * s_j / 2.0 + float(np.sum(sales))


def marginal_profit(spec: NetworkSpec, q, i: int, j: int) -> float:
    """dPi_j/dq_ij = alpha_i - gamma_j s_j - beta_i q_ij - beta_i c_i."""
    system, qv, s, c = _supplies(spec, q)
    if (i, j) not in system.variable_order:
        raise ValueError(f"({i},{j}) is not an edge of the network")
    q_ij = qv[system.variable_order.index((i, j))]
    return float(spec.alpha[i - 1] - spec.gamma[j - 1] * s[j - 1]
                 - spec.beta[i - 1] * q_ij - spec.beta[i - 1] * c[i - 1])


def vector_field(spec: NetworkSpec, q) -> np.ndarray:
    """Right-hand side of the flow dynamics, component (i, j) being
    b_j times firm j's marginal profit on that edge: the ``field_at`` of
    ``to_affine(spec)``, bit for bit. Components follow the canonical
    edge order."""
    system = to_affine(spec)
    return system.field_at(_flows(q, system.dimension))
