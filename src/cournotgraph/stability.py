"""Equilibrium and stability analysis for affine flow dynamics.

For dq/dt = c - A q the unique equilibrium solves A q = c and the
Jacobian is J = -A. One kernel (``_solve``) runs the condition guard,
the solve and the residual test on a stack of systems: ``equilibrium``
on one, ``canonical_margins`` on a sweep's grid. ``analyze`` computes
the eigenvalues of J once; their maximum real part is the "margin",
which decides the verdict, since strict inequalities mean nothing at
the boundary in floating point. The characteristic coefficients (a1..an
of det(lambda I - J) = lambda^n + a1 lambda^(n-1) + ... + an) come from
one of two routes:

* for n <= 3, from the matrix by Faddeev-LeVerrier (``char_poly``),
  independent of the eigenvalues; for cubic systems the Routh-Hurwitz
  inequalities (a1 > 0, a3 > 0, a1 a2 > a3) then decide stability a
  second way, and the two must agree away from the marginal band
  |margin| <= MARGIN_EPS;
* for n > 3, as the elementary symmetric functions of the eigenvalues
  (``np.poly``). Faddeev-LeVerrier loses all accuracy on network
  systems past about 20 flow variables, so it decides nothing there;
  coefficients that are not finite are dropped rather than reported.

The module also implements the rescaled three-variable normal form of
the two-firm, two-market network,

    dq11/dt = 1 - r1 q11 - q21
    dq22/dt = 1 - r2 q22 - q21
    dq21/dt = 1 - r3 q21 - r4 q11 - r5 q22

with equations (and coordinates) ordered (q11, q22, q21). r1..r5 are
treated as free parameters. ``closed_form_coeffs`` gives the cubic's
coefficients as explicit formulas in r; its a3 cross terms
(r1 r4 + r2 r5) differ from the Jacobian-derived polynomial
(r1 r5 + r2 r4) whenever r1 != r2, so it is exact only in the symmetric
regime r1 == r2 and ``char_poly`` stays authoritative for verdicts. In
that symmetric regime the equilibrium and its existence/stability
conditions also have closed forms (``symmetric_equilibrium``,
``symmetric_conditions``).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .network import AffineSystem, Edge

MARGIN_EPS = 1e-9       # band around 0 where the verdict is MARGINAL
CHAR_POLY_MAX_N = 3     # largest system whose coefficients char_poly gives
_COND_LIMIT = 1e12      # condition-number guard for the equilibrium solve
_SYMMETRY_TOL = 1e-12   # |r1 - r2| tolerance for the symmetric closed forms

CANONICAL_ORDER: tuple[Edge, ...] = ((1, 1), (2, 2), (2, 1))


class NoUniqueEquilibriumError(RuntimeError):
    """A q = c has no trustworthy unique solution."""


class Stability(Enum):
    STABLE = "STABLE"
    UNSTABLE = "UNSTABLE"
    MARGINAL = "MARGINAL"


@dataclass(frozen=True)
class CanonicalParams:
    """Free parameters r1..r5 of the rescaled three-variable system."""

    r1: float
    r2: float
    r3: float
    r4: float
    r5: float

    def __post_init__(self):
        for name in ("r1", "r2", "r3", "r4", "r5"):
            v = float(getattr(self, name))
            if not np.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
            object.__setattr__(self, name, v)

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.r1, self.r2, self.r3, self.r4, self.r5)


@dataclass(frozen=True, eq=False)
class StabilityReport:
    """Everything the stability command reports for one system."""

    equilibrium: np.ndarray
    char_coeffs: tuple[float, ...]
    hurwitz_pass: bool | None            # None unless the system is cubic
    closed_form: tuple[float, float, float] | None  # r-formula coefficients
    eigen_margin: float
    verdict: Stability
    variable_order: tuple[Edge, ...]

    @property
    def coeffs_from_eigenvalues(self) -> bool:
        """Whether char_coeffs come from the eigenvalues (see ``analyze``)."""
        return len(self.equilibrium) > CHAR_POLY_MAX_N


def _solve(a: np.ndarray, c: np.ndarray):
    """Guarded solves of A q = c for a (P, n, n) stack ``a`` and (P, n)
    constants ``c``: (q, ok, cond, residual), one entry per system. A
    system whose condition number is not finite or passes _COND_LIMIT is
    not solved (q and residual NaN); ``ok`` marks the solves whose
    residual max |c - A q| is within 1e-10 max |c|."""
    cond = np.linalg.cond(a)
    solved = cond <= _COND_LIMIT  # inf and NaN fail as well
    # The solvable systems are copied out only when some are not.
    a_s, c_s = (a, c) if solved.all() else (a[solved], c[solved])
    q = np.full(c.shape, np.nan)
    q[solved] = np.linalg.solve(a_s, c_s[..., None])[..., 0]
    residual = np.max(np.abs(c - (a @ q[..., None])[..., 0]), axis=-1)
    ok = residual <= 1e-10 * np.max(np.abs(c), axis=-1)  # NaN fails
    return q, ok, cond, residual


def _spectrum(a: np.ndarray):
    """(eigenvalues of J = -A, margin max Re of them), of one matrix or
    of each matrix of a stack."""
    eigvals = np.linalg.eigvals(-a)
    return eigvals, np.max(eigvals.real, axis=-1)


def _hurwitz_checks(a1: float, a2: float, a3: float):
    """The three Routh-Hurwitz inequalities of a cubic, labelled."""
    return (("a1 > 0", a1 > 0.0), ("a3 > 0", a3 > 0.0),
            ("a1*a2 > a3", a1 * a2 > a3))


def verdict_of(margin: float) -> Stability:
    """STABLE below -MARGIN_EPS, UNSTABLE above MARGIN_EPS, else MARGINAL."""
    if margin < -MARGIN_EPS:
        return Stability.STABLE
    if margin > MARGIN_EPS:
        return Stability.UNSTABLE
    return Stability.MARGINAL


def equilibrium(sys: AffineSystem) -> np.ndarray:
    """Solve A q = c with a condition-number guard and residual check."""
    q, ok, cond, residual = _solve(sys.matrix[None], sys.constant[None])
    if not ok[0]:
        reason = (f"solve residual {residual[0]:.3g} too large"
                  if cond[0] <= _COND_LIMIT else
                  f"matrix condition number {cond[0]:.3g} exceeds "
                  f"{_COND_LIMIT:.0e}")
        raise NoUniqueEquilibriumError(f"no unique equilibrium: {reason}")
    return q[0]


def char_poly(sys: AffineSystem) -> tuple[float, ...]:
    """Coefficients (a1, ..., an) of det(lambda I - J) = lambda^n
    + a1 lambda^(n-1) + ... + an for the Jacobian J = -A, by the
    Faddeev-LeVerrier recursion. It costs O(n^4) and its rounding grows
    with n, so ``analyze`` uses it only up to CHAR_POLY_MAX_N."""
    j = -sys.matrix
    n = j.shape[0]
    coeffs: list[float] = []
    m = np.eye(n)
    c = -float(np.trace(j))
    coeffs.append(c)
    for k in range(2, n + 1):
        m = j @ m + c * np.eye(n)
        c = -float(np.trace(j @ m)) / k
        coeffs.append(c)
    return tuple(coeffs)


def routh_hurwitz_cubic(a1: float, a2: float, a3: float) -> bool:
    """All roots of lambda^3 + a1 lambda^2 + a2 lambda + a3 lie strictly
    in the left half-plane iff a1 > 0, a3 > 0 and a1 a2 > a3."""
    return all(holds for _, holds in _hurwitz_checks(a1, a2, a3))


def eigen_margin(sys: AffineSystem) -> float:
    """Max real part over the eigenvalues of J = -A.

    Computed by LAPACK straight from the matrix, deliberately not via
    ``char_poly``, so the Routh-Hurwitz route and this one stay
    independent of each other.
    """
    return float(_spectrum(sys.matrix)[1])


def canonical_field(r: CanonicalParams, q) -> tuple[float, float, float]:
    """Direct evaluation of the rescaled system at q = (q11, q22, q21)."""
    q11, q22, q21 = (float(v) for v in q)
    return (1.0 - r.r1 * q11 - q21,
            1.0 - r.r2 * q22 - q21,
            1.0 - r.r3 * q21 - r.r4 * q11 - r.r5 * q22)


def _canonical_system(r) -> tuple[np.ndarray, np.ndarray]:
    """(c, A) of the rescaled system in coordinates (q11, q22, q21) for
    r1..r5 along the last axis of ``r``: c = (1, 1, 1) and A of shape
    (..., 3, 3),

        A = [[r1, 0,  1 ],
             [0,  r2, 1 ],
             [r4, r5, r3]].
    """
    r = np.asarray(r, dtype=float)
    a = np.zeros(r.shape[:-1] + (3, 3))
    a[..., 0, 2] = a[..., 1, 2] = 1.0
    for k, (i, j) in enumerate(((0, 0), (1, 1), (2, 2), (2, 0), (2, 1))):
        a[..., i, j] = r[..., k]
    return np.ones(3), a


def canonical_affine(r: CanonicalParams) -> AffineSystem:
    """The rescaled system as c - A q in coordinates (q11, q22, q21)."""
    c, a = _canonical_system(r.as_tuple())
    return AffineSystem(constant=c, matrix=a, variable_order=CANONICAL_ORDER)


def canonical_margins(r) -> np.ndarray:
    """Eigenvalue margin of the rescaled system at each row r1..r5 of
    ``r`` (shape (P, 5)), or NaN where ``equilibrium`` would find no
    unique equilibrium.

    The same solve kernel as ``equilibrium`` and the same margin as
    ``analyze``, each run on the whole (P, 3, 3) stack by one batched
    LAPACK call, so every margin equals the one ``analyze`` reports bit
    for bit.
    """
    constant, matrices = _canonical_system(r)
    _, ok, _, _ = _solve(matrices,
                         np.broadcast_to(constant, matrices.shape[:-1]))
    margins = np.full(len(matrices), np.nan)
    margins[ok] = _spectrum(matrices[ok])[1]
    return margins


def closed_form_coeffs(r: CanonicalParams) -> tuple[float, float, float]:
    """Characteristic coefficients as explicit formulas in r.

    a3 uses the cross terms r1 r4 + r2 r5, which matches the
    Jacobian-derived a3 exactly when r1 == r2 and differs otherwise;
    ``char_poly`` is the verdict authority, this form is reported
    alongside it for canonical scenarios.
    """
    a1 = r.r1 + r.r2 + r.r3
    a2 = r.r1 * r.r2 + r.r1 * r.r3 + r.r2 * r.r3 - r.r4 - r.r5
    a3 = r.r1 * r.r2 * r.r3 - r.r1 * r.r4 - r.r2 * r.r5
    return (a1, a2, a3)


def _require_symmetric(r: CanonicalParams, what: str) -> None:
    if abs(r.r1 - r.r2) > _SYMMETRY_TOL:
        raise ValueError(f"{what} requires r1 == r2, got r1={r.r1!r}, r2={r.r2!r}")
    if not r.r1 > 0.0:
        raise ValueError(f"{what} requires r1 > 0, got {r.r1!r}")


def symmetric_equilibrium(r: CanonicalParams) -> tuple[float, float, float]:
    """Closed-form equilibrium in the symmetric regime r1 == r2:

        q21 = (r1 - r4 - r5) / (r1 r3 - r4 - r5),  q11 = q22 = (1 - q21) / r1.
    """
    _require_symmetric(r, "symmetric_equilibrium")
    denominator = r.r1 * r.r3 - r.r4 - r.r5
    if denominator == 0.0:
        raise NoUniqueEquilibriumError(
            "no unique equilibrium: r1*r3 - r4 - r5 vanishes")
    q21 = (r.r1 - r.r4 - r.r5) / denominator
    q11 = (1.0 - q21) / r.r1
    return (q11, q11, q21)


def symmetric_conditions(r: CanonicalParams) -> bool:
    """Existence-and-stability conditions in the symmetric regime:
    r1 > r4 + r5 and r3 > 1, both strict."""
    _require_symmetric(r, "symmetric_conditions")
    return r.r1 > r.r4 + r.r5 and r.r3 > 1.0


def analyze(sys: AffineSystem,
            r: CanonicalParams | None = None) -> StabilityReport:
    """Bundle equilibrium, characteristic coefficients, Routh-Hurwitz
    (cubic systems only), eigenvalue margin and the verdict; for
    canonical systems pass r to include the closed-form coefficients."""
    eq = equilibrium(sys)
    eigvals, margin = _spectrum(sys.matrix)
    if sys.dimension > CHAR_POLY_MAX_N:
        with np.errstate(over="ignore", invalid="ignore"):
            coeffs = tuple(float(v) for v in np.poly(eigvals).real[1:])
        if not all(np.isfinite(coeffs)):
            coeffs = ()
    else:
        coeffs = char_poly(sys)
    hurwitz = routh_hurwitz_cubic(*coeffs) if len(coeffs) == 3 else None
    return StabilityReport(equilibrium=eq, char_coeffs=coeffs,
                           hurwitz_pass=hurwitz,
                           closed_form=closed_form_coeffs(r) if r is not None else None,
                           eigen_margin=float(margin),
                           verdict=verdict_of(margin),
                           variable_order=sys.variable_order)
