"""Firm-market supply graphs and their assembly into affine flow dynamics.

A supply network is a bipartite graph between markets and firms. Each
edge (i, j) carries a flow variable q_ij, the quantity firm j ships to
market i. Market i has a demand intercept alpha_i and slope beta_i;
firm j has a production-cost curvature gamma_j and an adjustment speed
b_j. All four parameter families are strictly positive.

The gradient-adjustment dynamics over the edge flows (see
:mod:`cournotgraph.cournot`) are affine in q, so the whole system can
be assembled once into dq/dt = c - A q. ``to_affine`` builds (c, A)
explicitly in the canonical edge order, which every other module and
file format shares as its coordinate system.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

Edge = tuple[int, int]  # (market index, firm index), 1-based


def _as_float_tuple(values) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


@dataclass(frozen=True)
class NetworkSpec:
    """A firm-market supply graph with its economic parameters.

    Indices are 1-based to match the q_ij notation used in scenario
    files and reports. ``speed`` may be passed empty, in which case
    every firm gets the default adjustment speed 1.
    """

    market_count: int
    firm_count: int
    edges: tuple[Edge, ...]
    alpha: tuple[float, ...]
    beta: tuple[float, ...]
    gamma: tuple[float, ...]
    speed: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "edges",
                           tuple((int(i), int(j)) for i, j in self.edges))
        object.__setattr__(self, "alpha", _as_float_tuple(self.alpha))
        object.__setattr__(self, "beta", _as_float_tuple(self.beta))
        object.__setattr__(self, "gamma", _as_float_tuple(self.gamma))
        speed = self.speed if len(self.speed) else (1.0,) * int(self.firm_count)
        object.__setattr__(self, "speed", _as_float_tuple(speed))


@dataclass(frozen=True, eq=False)
class AffineSystem:
    """Linear flow dynamics dq/dt = constant - matrix @ q.

    ``variable_order`` records which (market, firm) edge each coordinate
    belongs to; for systems assembled from a :class:`NetworkSpec` it is
    the canonical edge order.
    """

    constant: np.ndarray
    matrix: np.ndarray
    variable_order: tuple[Edge, ...] = field(default=())

    def __post_init__(self):
        c = np.array(self.constant, dtype=float)
        a = np.array(self.matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"matrix must be square, got shape {a.shape}")
        if c.shape != (a.shape[0],):
            raise ValueError(
                f"constant has length {c.shape}, matrix is {a.shape[0]}x{a.shape[0]}")
        c.setflags(write=False)
        a.setflags(write=False)
        object.__setattr__(self, "constant", c)
        object.__setattr__(self, "matrix", a)
        object.__setattr__(self, "variable_order", tuple(self.variable_order))

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def field_at(self, q) -> np.ndarray:
        """Right-hand side c - A q at state q."""
        return self.constant - self.matrix @ np.asarray(q, dtype=float)


def validate(spec: NetworkSpec) -> list[str]:
    """Check every NetworkSpec invariant; return one message per violation.

    An empty list means the spec is valid. Messages name the offending
    field and 1-based index so they can be surfaced to scenario authors
    directly.
    """
    problems: list[str] = []
    if not isinstance(spec.market_count, int) or spec.market_count < 1:
        problems.append(f"market_count must be a positive integer, got {spec.market_count}")
    if not isinstance(spec.firm_count, int) or spec.firm_count < 1:
        problems.append(f"firm_count must be a positive integer, got {spec.firm_count}")
    if problems:
        return problems

    for name, values, count in (("alpha", spec.alpha, spec.market_count),
                                ("beta", spec.beta, spec.market_count),
                                ("gamma", spec.gamma, spec.firm_count),
                                ("speed", spec.speed, spec.firm_count)):
        if len(values) != count:
            problems.append(f"{name} must have {count} entries, got {len(values)}")
            continue
        for k, v in enumerate(values, start=1):
            if not (np.isfinite(v) and v > 0.0):
                problems.append(f"{name}[{k}] must be strictly positive, got {v}")

    seen: set[Edge] = set()
    for i, j in spec.edges:
        if not 1 <= i <= spec.market_count:
            problems.append(f"edge ({i},{j}) references unknown market {i}")
        if not 1 <= j <= spec.firm_count:
            problems.append(f"edge ({i},{j}) references unknown firm {j}")
        if (i, j) in seen:
            problems.append(f"duplicate edge ({i},{j})")
        seen.add((i, j))

    markets_used = {i for i, _ in spec.edges}
    firms_used = {j for _, j in spec.edges}
    for i in range(1, spec.market_count + 1):
        if i not in markets_used:
            problems.append(f"market {i} appears in no edge")
    for j in range(1, spec.firm_count + 1):
        if j not in firms_used:
            problems.append(f"firm {j} appears in no edge")
    return problems


def canonical_edge_order(spec: NetworkSpec) -> tuple[Edge, ...]:
    """Edges sorted by (market, firm); the shared coordinate order."""
    return tuple(sorted(set(spec.edges)))


def variable_names(order: tuple[Edge, ...]) -> tuple[str, ...]:
    """Column names q<i><j> for an edge order (q<i>_<j> past single digits)."""
    return tuple(f"q{i}{j}" if i <= 9 and j <= 9 else f"q{i}_{j}"
                 for i, j in order)


def two_firms_two_markets(alpha1: float, alpha2: float,
                          beta1: float, beta2: float,
                          gamma1: float, gamma2: float) -> NetworkSpec:
    """The smallest interesting network: firm 1 supplies both markets,
    firm 2 supplies only market 2. Adjustment speeds default to 1."""
    args = {"alpha1": alpha1, "alpha2": alpha2, "beta1": beta1,
            "beta2": beta2, "gamma1": gamma1, "gamma2": gamma2}
    bad = [name for name, v in args.items() if not (np.isfinite(v) and v > 0)]
    if bad:
        raise ValueError(f"arguments must be strictly positive: {', '.join(bad)}")
    return NetworkSpec(market_count=2, firm_count=2,
                       edges=((1, 1), (2, 1), (2, 2)),
                       alpha=(alpha1, alpha2), beta=(beta1, beta2),
                       gamma=(gamma1, gamma2))


def edge_index(spec: NetworkSpec) -> tuple[tuple[Edge, ...], np.ndarray, np.ndarray]:
    """The canonical edge order and, per edge, its 0-based market and
    firm indices: the nonzero columns of the edge-market and edge-firm
    incidence matrices M and F."""
    order = canonical_edge_order(spec)
    pairs = np.array(order, dtype=np.intp).reshape(len(order), 2) - 1
    return order, pairs[:, 0], pairs[:, 1]


def to_affine(spec: NetworkSpec) -> AffineSystem:
    """Assemble the flow dynamics into dq/dt = c - A q.

    Row (i, j): the constant is b_j alpha_i; the diagonal carries
    b_j (gamma_j + 2 beta_i); every other edge of firm j contributes
    b_j gamma_j (shared production cost) and every other edge into
    market i contributes b_j beta_i (shared demand slope). An edge can
    share a firm or a market with (i, j) but never both.

    In matrix form A = D_b (F Gamma F^T + M B M^T + diag beta_i(e)) with
    F, M the edge-firm and edge-market incidence matrices. One n x n
    buffer is filled in place from the per-edge index arrays; every
    entry is the same floating-point product as in the row-by-row
    definition above, so the matrix equals a per-entry loop bit for bit.
    """
    problems = validate(spec)
    if problems:
        raise ValueError("invalid network spec: " + "; ".join(problems))
    order, market, firm = edge_index(spec)
    b = np.array(spec.speed)[firm]
    beta = np.array(spec.beta)[market]
    gamma = np.array(spec.gamma)[firm]
    a = np.zeros((len(order), len(order)))
    np.copyto(a, gamma[:, None], where=firm[:, None] == firm[None, :])
    np.copyto(a, beta[:, None], where=market[:, None] == market[None, :])
    np.fill_diagonal(a, gamma + 2.0 * beta)
    a *= b[:, None]
    c = b * np.array(spec.alpha)[market]
    return AffineSystem(constant=c, matrix=a, variable_order=order)
