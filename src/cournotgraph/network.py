"""Firm-market supply graphs and their assembly into affine flow dynamics.

A supply network is a bipartite graph between markets and firms. Each
edge (i, j) carries a flow variable q_ij, the quantity firm j ships to
market i. Market i has a demand intercept alpha_i and slope beta_i;
firm j has a production-cost curvature gamma_j and an adjustment speed
b_j. All four parameter families are strictly positive.

The gradient-adjustment dynamics over the edge flows (see
:mod:`cournotgraph.cournot`) are affine in q, dq/dt = c - A q, and for
a network A factors through the graph's incidence structure:

    A = D_b (diag beta_i(e) + F Gamma F^T + M B M^T),

with F and M the n x k edge-firm and edge-market incidence matrices
(n edges, k firms and markets). ``to_affine`` keeps exactly that: the
per-edge market and firm indices and parameters, in an
:class:`EdgeIncidence`. Its field c - A q costs O(n + k) -- the firm
outputs F^T q and market supplies M^T q by two ``np.bincount``s, then
gathers -- so simulating a network never needs the n x n matrix A,
and neither does its equilibrium (a Cholesky solve of S, or of the
k x k capacitance matrix where k < n, :mod:`cournotgraph.stability`).
A is filled on first access and then kept. Three things still read
it: the Phi_h propagator that :mod:`cournotgraph.dynamics` uses up to
300 edges, ``char_poly`` (at most 3 edges) and the tests' oracles. The
eigenvalue margin of a ``stability`` report comes from the symmetric
H = D_b^1/2 S D_b^1/2, which ``dense_symmetric`` fills in place of A
only while n <= k; with more edges than firms and markets the margin
is computed on k x k matrices alone, as the equilibrium is. Past
``MAX_DENSE_VALUES`` entries A, S and H are refused before they are
allocated. Every
coordinate follows the canonical edge order, which every other module
and file format shares as its coordinate system.

A spec holds its network once, as read-only arrays: the (n, 2) intp
edges in the order given and the float64 parameter vectors. They are
frozen, so everything derived from them is derived once per spec
object, on first use, and kept on it: the problem list that
``validate`` returns (array masks; only flagged entries are formatted),
the canonical order (one stable argsort of the keys market (F + 1) +
firm, an (n, 2) array that systems, reports and files share), and the
O(n + k) structure and constant that every ``to_affine`` of the spec
shares. No n x n array is kept on a spec; each system fills its own.
Edge pairs are read by ``pair_ends``, which ``pdgame.player_graph``
shares.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

# Every float matrix a network route fills or factors, n x n (A, S or H)
# or k x k (k firms and markets), holds at most this many float64 values,
# 8 bytes each, and LAPACK works on a few copies of it. An n x n one is
# refused past it (more than 3162 edges) before it is allocated;
# ``stability`` fills none where n > k.
MAX_DENSE_VALUES = 10_000_000


def _equal_fields(a, b):
    """``==`` of frozen dataclasses that hold arrays: the same type and
    equal fields, arrays by shape and value and tuples entry by entry."""
    if type(b) is not type(a):
        return NotImplemented
    return all(_same(getattr(a, f.name), getattr(b, f.name)) for f in fields(a))


def _same(a, b) -> bool:
    if isinstance(a, tuple) and isinstance(b, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    return np.array_equal(a, b)


@dataclass(frozen=True, eq=False)
class NetworkSpec:
    """A firm-market supply graph with its economic parameters.

    Indices are 1-based to match the q_ij notation used in scenario
    files and reports. The fields are read-only arrays: ``edges`` an
    (n, 2) intp array of (market, firm) in the order given, and alpha,
    beta, gamma and speed float64. An end that is not a whole number
    that fits intp makes ``edges`` an object array that keeps it as
    given, for ``validate`` to name. ``speed`` may be passed empty, in
    which case every firm gets the default adjustment speed 1. Specs
    compare by value.
    """

    market_count: int
    firm_count: int
    edges: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    speed: np.ndarray = ()

    def __post_init__(self):
        object.__setattr__(self, "edges", _edge_array(self.edges))
        speed = self.speed
        # More firms than edges is invalid, and ``validate`` says so
        # without the default speeds, which would grow with the count.
        if (not len(speed) and isinstance(self.firm_count, int)
                and self.firm_count <= len(self.edges)):
            speed = np.ones(self.firm_count)
        for name, values in (("alpha", self.alpha), ("beta", self.beta),
                             ("gamma", self.gamma), ("speed", speed)):
            object.__setattr__(self, name, _frozen(values))

    __eq__ = _equal_fields

    @cached_property
    def _problems(self) -> list[str]:
        problems: list[str] = []
        if not isinstance(self.market_count, int) or self.market_count < 1:
            problems.append(f"market_count must be a positive integer, got {self.market_count}")
        if not isinstance(self.firm_count, int) or self.firm_count < 1:
            problems.append(f"firm_count must be a positive integer, got {self.firm_count}")
        if problems:
            return problems
        n = len(self.edges)
        edges, whole = self.edges, np.ones(self.edges.shape, bool)
        if edges.dtype == object:
            whole = pair_ends(edges)[1]
            edges = np.where(whole, edges, 0)
        # Ends clipped to 0 or count + 1 are out of range and fit intp;
        # messages name the ends held. An end that is not whole is 0.
        market, firm = (np.clip(edges[:, side], 0, min(count, n) + 1).astype(np.intp)
                        for side, count in enumerate((self.market_count, self.firm_count)))
        sides = (("market", self.market_count, market), ("firm", self.firm_count, firm))
        # Every market and firm needs an edge, so a count past the number of
        # edges is said once, before any work that grows with the count.
        for kind, count, ends in sides:
            if count > n:
                return [f"{kind} {_unused(ends, n + 1)[0]} appears in no edge: "
                        f"{count} {kind}s need at least {count} edges, got {n}"]

        for name, count in (("alpha", self.market_count), ("beta", self.market_count),
                            ("gamma", self.firm_count), ("speed", self.firm_count)):
            values = getattr(self, name)
            if len(values) != count:
                problems.append(f"{name} must have {count} entries, got {len(values)}")
                continue
            bad = ~(np.isfinite(values) & (values > 0.0))
            problems += [f"{name}[{k}] must be strictly positive, got {v}" for k, v
                         in zip((np.flatnonzero(bad) + 1).tolist(), values[bad].tolist())]

        inside = (whole.all(axis=1) & (market >= 1) & (market <= self.market_count)
                  & (firm >= 1) & (firm <= self.firm_count))
        # A later copy of a pair inside the counts is found by a stable
        # sort of their keys; of one outside them, by a set of those pairs.
        keys = market * (self.firm_count + 1) + firm
        rows = np.flatnonzero(inside)
        rows = rows[np.argsort(keys[rows], kind="stable")]
        repeat = np.zeros(n, bool)
        repeat[rows[1:][keys[rows[1:]] == keys[rows[:-1]]]] = True
        seen: set[tuple] = set()
        for k in np.flatnonzero(~inside | repeat).tolist():
            i, j = pair = tuple(self.edges[k].tolist())
            if not whole[k].all():
                problems.append(f"edge ({i},{j}) has an end that is not an integer")
                continue
            if not 1 <= i <= self.market_count:
                problems.append(f"edge ({i},{j}) references unknown market {i}")
            if not 1 <= j <= self.firm_count:
                problems.append(f"edge ({i},{j}) references unknown firm {j}")
            if repeat[k] or pair in seen:
                problems.append(f"duplicate edge ({i},{j})")
            seen.add(pair)
        for kind, count, ends in sides:
            problems += [f"{kind} {k} appears in no edge" for k in _unused(ends, count)]
        return problems

    @cached_property
    def _order(self) -> np.ndarray:
        keys = self.edges @ (self.firm_count + 1, 1)
        order = self.edges[np.argsort(keys, kind="stable")]
        order.setflags(write=False)
        return order

    @cached_property
    def _incidence(self) -> tuple[EdgeIncidence, np.ndarray]:
        """``to_affine``'s structure and constant; valid specs only."""
        market, firm = self._order.T - 1
        b = self.speed[firm]
        structure = EdgeIncidence(market=market, firm=firm, speed=b,
                                  beta=self.beta[market], market_beta=self.beta,
                                  firm_gamma=self.gamma)
        with np.errstate(over="ignore"):  # AffineSystem refuses an inf
            return structure, _frozen(b * self.alpha[market])


def _unused(ends: np.ndarray, count: int) -> list[int]:
    """The numbers 1..count that are not in ``ends`` (0..count + 1), ascending."""
    return (np.flatnonzero(np.bincount(ends, minlength=count + 2)[1:-1] == 0) + 1).tolist()


def _whole(end) -> bool:
    """Whether one end of an object array is a whole number; a value
    that takes no ``% 1``, such as None or a string, is not."""
    try:
        return bool(end % 1 == 0)
    except TypeError:
        return False


def pair_ends(edges) -> tuple[np.ndarray, np.ndarray]:
    """``edges`` as an (n, 2) array, and whether each of its ends is a
    whole number (NaN and inf are not). Numbers are read as numpy reads
    them; if any end is not a number, every end is kept as given, in an
    object array."""
    given = np.asarray(edges)
    if given.dtype.kind not in "biuf":
        given = np.asarray(edges, dtype=object)
    if given.size == 0:
        given = np.empty((0, 2), np.intp)
    if given.ndim != 2 or given.shape[1] != 2:
        raise ValueError(f"edges must be (a, b) pairs, got shape {given.shape}")
    with np.errstate(invalid="ignore"):
        if given.dtype == object:
            return given, np.frompyfunc(_whole, 1, 1)(given).astype(bool)
        return given, given % 1 == 0


def _edge_array(edges) -> np.ndarray:
    """``edges`` as a read-only (n, 2) intp array or, if an end is not a
    whole number that fits intp, as an object array of the ends given,
    the whole ones made ints."""
    given, whole = pair_ends(edges)
    with np.errstate(invalid="ignore"), \
            contextlib.suppress(ValueError, TypeError, OverflowError):
        ends = given.astype(np.intp, copy=False)
        if whole.all() and (ends == given).all():
            return _frozen(ends, np.intp)
    kept = np.array(edges, dtype=object)
    kept[whole] = [int(end) for end in kept[whole]]
    return _frozen(kept, object)


def _frozen(values, dtype=np.float64) -> np.ndarray:
    """A read-only ``dtype`` array of ``values``: the rule by which every
    value type of the package holds its arrays. An array of that dtype
    that owns its buffer and is already read-only is taken as it is (its
    maker handed it over); anything else, such as a writeable array or a
    view of one that a caller may still change, is copied."""
    if (isinstance(values, np.ndarray) and values.dtype == dtype
            and values.flags.owndata and not values.flags.writeable):
        return values
    copy = np.array(values, dtype=dtype)
    copy.setflags(write=False)
    return copy


def _require_finite(name: str, values: np.ndarray) -> None:
    if not np.isfinite(values).all():
        raise ValueError(f"{name} must be finite")


@dataclass(frozen=True, eq=False)
class EdgeIncidence:
    """A network's matrix A = D_b (diag beta_i(e) + F Gamma F^T + M B M^T),
    held as its per-edge structure: the 0-based ``market`` and ``firm``
    of each edge, the edge's speed b_j(e) and slope beta_i(e), and the
    per-firm gamma and per-market beta. Read-only arrays, held by the
    rule of ``_frozen``; the float ones must be finite, and so must the
    entries b_j gamma_j, b_j beta_i and b_j (gamma_j + 2 beta_i) of A.
    The network routes' products with U = [F | M] are written here once:
    ``gather``, ``spread``, ``capacitance``, ``diagonal`` and ``k_side``."""

    market: np.ndarray
    firm: np.ndarray
    speed: np.ndarray
    beta: np.ndarray
    firm_gamma: np.ndarray
    market_beta: np.ndarray

    def __post_init__(self):
        for name, values in vars(self).items():
            if name in ("market", "firm"):
                values = _frozen(values, np.intp)
            else:
                values = _frozen(values)
                _require_finite(name, values)
            object.__setattr__(self, name, values)
        with np.errstate(over="ignore"):
            entries = self.speed * np.stack((self.firm_gamma[self.firm],
                                             self.beta, self.diagonal))
        _require_finite("matrix", entries)

    @property
    def size(self) -> int:  # k, U's columns: firms, then markets
        return len(self.firm_gamma) + len(self.market_beta)

    @property
    def column(self) -> np.ndarray:  # U's column of each edge's market
        return self.market + len(self.firm_gamma)

    @property
    def diagonal(self) -> np.ndarray:  # S's: gamma_j + 2 beta_i of (i, j)
        return self.firm_gamma[self.firm] + 2.0 * self.beta

    @property
    def k_side(self) -> bool:  # k < n: the routes factor k x k, not n x n
        return self.size < len(self.speed)

    def supplies(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Firm outputs s = F^T q and market supplies c = M^T q."""
        return (np.bincount(self.firm, q, len(self.firm_gamma)),
                np.bincount(self.market, q, len(self.market_beta)))

    def gather(self, x: np.ndarray) -> np.ndarray:
        """U^T x, firms first: the ``supplies`` of x, joined."""
        return np.concatenate(self.supplies(x))

    def spread(self, z: np.ndarray, edges=slice(None)) -> np.ndarray:
        """U z, or its rows ``edges``: z_j + z_i of edge (i, j), firms first."""
        return z[self.firm[edges]] + z[self.column[edges]]

    def capacitance(self, weight: np.ndarray) -> np.ndarray:
        """K = W^-1 + U^T diag(weight) U, W = diag(gamma, beta): the k x k
        matrix of the Woodbury identity for diag(1 / weight) + U W U^T."""
        k = np.diag(self.gather(weight))  # U^T diag(weight) U's diagonal
        k[self.firm, self.column] = k[self.column, self.firm] = weight
        k.flat[::self.size + 1] += 1.0 / np.append(self.firm_gamma, self.market_beta)
        return k

    def apply(self, q: np.ndarray) -> np.ndarray:
        """A q in O(n + k): ``supplies`` s and c by ``np.bincount``, then
        row (i, j) is b_j (gamma_j s_j + beta_i c_i + beta_i q_ij)."""
        s, c = self.supplies(q)
        return self.speed * ((self.firm_gamma * s)[self.firm]
                             + (self.market_beta * c)[self.market]
                             + self.beta * q)

    def _filled(self) -> np.ndarray:
        """S = diag(beta_i(e)) + F Gamma F^T + M B M^T as a writeable
        n x n array: gamma_j + 2 beta_i on the diagonal of row (i, j),
        gamma_j for every other edge of firm j and beta_i for every other
        edge into market i (an edge can share a firm or a market with
        (i, j), never both). Refused past ``MAX_DENSE_VALUES`` entries,
        before anything is allocated."""
        n = len(self.speed)
        if n * n > MAX_DENSE_VALUES:
            raise ValueError(
                f"a network of {n} edges needs a dense {n}x{n} matrix, more "
                f"than the limit of {MAX_DENSE_VALUES} values "
                f"({MAX_DENSE_VALUES * 8 // 10**6} MB at 8 bytes each)")
        market, firm = self.market, self.firm
        gamma = self.firm_gamma[firm]
        s = np.zeros((n, n))
        np.copyto(s, gamma[:, None], where=firm[:, None] == firm[None, :])
        np.copyto(s, self.beta[:, None], where=market[:, None] == market[None, :])
        np.fill_diagonal(s, self.diagonal)
        return s

    def dense(self) -> np.ndarray:
        """A = D_b S as a read-only n x n array, S filled by ``_filled``
        and its rows scaled in place, so each entry is the same
        floating-point product as the per-entry definition b_j (gamma_j +
        2 beta_i), b_j gamma_j or b_j beta_i: it equals a per-entry loop
        bit for bit and is finite."""
        a = self._filled()
        a *= self.speed[:, None]
        a.setflags(write=False)
        return a

    def dense_symmetric(self) -> np.ndarray:
        """H = D_b^1/2 S D_b^1/2 as an n x n array: symmetric, and similar
        to A (A = D_b^1/2 H D_b^-1/2), so it has A's eigenvalues. S is
        scaled in place, so H takes one n x n buffer and A is not
        filled."""
        root = np.sqrt(self.speed)
        h = self._filled()
        h *= root[:, None]
        h *= root
        return h


@dataclass(frozen=True, eq=False, init=False)
class AffineSystem:
    """Linear flow dynamics dq/dt = constant - matrix @ q.

    Made from a dense ``matrix``, or, for a network, from its
    :class:`EdgeIncidence` ``structure``: then ``field_at`` runs on the
    structure and ``matrix`` is filled on first access. Both and the
    constant must be finite, with at least one variable. ``variable_order``,
    a read-only (n, 2) intp array, records which (market, firm) edge each
    coordinate belongs to; for
    systems assembled from a :class:`NetworkSpec` it is the canonical
    edge order.
    """

    constant: np.ndarray
    variable_order: np.ndarray
    structure: EdgeIncidence | None

    def __init__(self, constant, matrix=None, variable_order=(), *,
                 structure: EdgeIncidence | None = None):
        c = _frozen(constant)
        _require_finite("constant", c)
        if (matrix is None) == (structure is None):
            raise ValueError("an affine system takes a matrix or a structure, "
                             "exactly one of them")
        if matrix is not None:
            a = _frozen(matrix)
            if a.ndim != 2 or a.shape[0] != a.shape[1]:
                raise ValueError(f"matrix must be square, got shape {a.shape}")
            _require_finite("matrix", a)
            size = a.shape[0]
            object.__setattr__(self, "matrix", a)  # in place of the lazy fill
        else:
            size = len(structure.speed)
        if size == 0:
            raise ValueError("an affine system needs at least one variable")
        if c.shape != (size,):
            raise ValueError(
                f"constant has length {c.shape}, matrix is {size}x{size}")
        object.__setattr__(self, "constant", c)
        order = _frozen(variable_order, np.intp)
        if order.shape[1:] != (2,):  # such as the empty default
            order = _frozen(order.reshape(-1, 2), np.intp)
        object.__setattr__(self, "variable_order", order)
        object.__setattr__(self, "structure", structure)

    @cached_property
    def matrix(self) -> np.ndarray:
        """A, read-only; for a network, filled by the structure once."""
        return self.structure.dense()

    @property
    def dimension(self) -> int:
        return len(self.constant)

    def field_at(self, q) -> np.ndarray:
        """Right-hand side c - A q at state q."""
        q = np.asarray(q, dtype=float)
        if self.structure is None:
            return self.constant - self.matrix @ q
        return self.constant - self.structure.apply(q)


def validate(spec: NetworkSpec) -> list[str]:
    """Check every NetworkSpec invariant; return one message per violation.

    An empty list means the spec is valid. Messages name the offending
    field and 1-based index so they can be surfaced to scenario authors
    directly. The checks run once per spec object.
    """
    return list(spec._problems)


def canonical_edge_order(spec: NetworkSpec) -> np.ndarray:
    """Edges sorted by (market, firm), as a read-only (n, 2) array; the
    shared coordinate order."""
    return spec._order


def variable_names(order) -> tuple[str, ...]:
    """Column names q<i><j> for an (n, 2) edge order (q<i>_<j> past
    single digits)."""
    return tuple(f"q{i}{j}" if i <= 9 and j <= 9 else f"q{i}_{j}"
                 for i, j in zip(*np.reshape(order, (-1, 2)).T.tolist()))


def to_affine(spec: NetworkSpec) -> AffineSystem:
    """Assemble the flow dynamics into dq/dt = c - A q.

    Row (i, j): the constant is b_j alpha_i, and A is kept as its
    incidence structure (see :class:`EdgeIncidence`), so assembly is
    O(n + k) and the n x n matrix is filled only if it is asked for.
    """
    if spec._problems:
        raise ValueError("invalid network spec: " + "; ".join(spec._problems))
    structure, constant = spec._incidence
    return AffineSystem(constant=constant, variable_order=spec._order,
                        structure=structure)
