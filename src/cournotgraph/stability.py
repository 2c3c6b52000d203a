"""Equilibrium and stability analysis for affine flow dynamics.

For dq/dt = c - A q the unique equilibrium solves A q = c and the
Jacobian is J = -A. The maximum real part of J's eigenvalues is the
"margin", which decides the verdict, since strict inequalities mean
nothing at the boundary in floating point. There are two routes, one
per kind of matrix.

* A network system (``AffineSystem.structure`` set) has
  A = D_b S with S = diag(beta_i(e)) + U W U^T symmetric positive
  definite, where U = [F | M] is the n x k edge incidence matrix
  (k firms and markets) and W = diag(gamma, beta). Everything is
  computed from that :class:`~cournotgraph.network.EdgeIncidence` by
  its ``gather`` (U^T x), ``spread`` (U z), ``capacitance`` and ``k_side``:

  - The equilibrium solves S q = r, r = c / b_e = alpha_i(e), so it
    does not depend on the speeds, by Cholesky on the smaller of two
    matrices. While n <= k that is S itself, filled n x n. Otherwise it
    is the k x k capacitance matrix K = W^-1 + U^T D^-1 U, with
    D = diag(beta_e), and the Woodbury identity gives y = D^-1 r,
    K z = U^T y, q = y - D^-1 U z: O(n + k^3), with no n x n array.
    An O(n + k) bound on cond(S) (Gershgorin row sums over min beta_e)
    and the success of the Cholesky factorisation guard it. The
    residual is checked matrix-free; where it fails because a tiny
    beta_e cost the solve digits, corrections solved from it (iterative
    refinement) win them back.
  - A is similar to the symmetric H = D_b^1/2 S D_b^1/2, so its
    spectrum is real, and only the margin -lambda_min(H) is computed,
    on the smaller side, as for the equilibrium. While n <= k one
    ``eigvalsh`` of H, filled in place of A, gives it. Otherwise no
    n x n array is made. Call b_e beta_e the pole of edge e; with
    V = D_b^1/2 U, H = diag(b_e beta_e) + V W V^T. V W V^T has rank at
    most k, so lambda_min lies in [p_(1), p_(k+1)], p_(m) the m-th least
    pole, and below min b_e (gamma_j + 2 beta_i), the least diagonal
    entry of H. Whether H - lam I is positive definite, that is whether
    lam < lambda_min, is told in O(n + k^3) by an inertia test. Split
    the edges into the near ones, whose pole lies below lam or just
    above it, and the far ones, whose pole lies above. H - lam I =
    diag(b_e beta_e - lam) + V W V^T; eliminating the far edges'
    diagonal, which is positive, and then their capacitance matrix
    K_far = W^-1 + V_far^T diag(1 / (b_e beta_e - lam))_far V_far, also
    positive definite, leaves T = diag(b_e beta_e - lam)_near +
    V_near K_far^-1 V_near^T, so by Haynsworth's inertia theorem
    H - lam I is positive definite iff T is, which Cholesky tells.
    Under p_(k+1) at most k poles lie below lam, so T stays k x k.
    The bracket is first narrowed by a spectral transformation
    (Ericsson & Ruhe 1980): at the shift s = p_(1)(1 - 2^-10), below
    every pole, (H - s I)^-1 = D^-1 - D^-1 V K^-1 V^T D^-1 with
    D = diag(b_e beta_e - s) and the capacitance matrix
    K = W^-1 + V^T D^-1 V, inverted once, so inverse iteration costs
    O(n + k^2) a step. Its Rayleigh quotient theta bounds lambda_min
    above; the inertia test just below theta bounds it below, and is
    moved down toward p_(1) while it fails. Where the iteration
    converged slowly, so that bound lies far below theta, the iteration
    runs again shifted to it: H - s I stays positive definite (K and D
    need not be), so it still converges to lambda_min, and faster, the
    nearer the shift. Bisection on the inertia test closes the bracket,
    so the margin is certified to the bisection's tolerance whatever
    the iteration did.
  - Every float matrix a network route fills or factors, n x n or
    k x k, is bounded by ``network.MAX_DENSE_VALUES``, so a network is
    refused (exit 2) exactly when min(n, k)^2 passes it.

* Any other system, in particular the canonical normal form below,
  keeps dense LU and the general ``eigvals``: its matrix is not
  symmetric, nor similar to a symmetric one (r4 and r5 may be
  negative, and the spectrum complex).

The characteristic coefficients (a1..an of det(lambda I - J) =
lambda^n + a1 lambda^(n-1) + ... + an) of a system of at most 3
variables come from the matrix (``char_poly``: the trace, the sum of the
principal 2 x 2 minors and the determinant), independent of the
eigenvalues. For cubic systems the Routh-Hurwitz inequalities (a1 > 0,
a3 > 0, a1 a2 > a3) then decide stability a second way, and the two must
agree away from the marginal band |margin| <= MARGIN_EPS. Larger systems
get no coefficients: their verdict rests on the margin alone.

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

from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

from . import network
from .network import AffineSystem, EdgeIncidence, _frozen

MARGIN_EPS = 1e-9       # band around 0 where the verdict is MARGINAL
CHAR_POLY_MAX_N = 3     # largest system whose coefficients char_poly gives
_COND_LIMIT = 1e12      # condition-number guard for the equilibrium solve
_BOUND_STACK = 32       # 3 x 3 stacks this tall or more try the bound before an SVD
_REFINE_STEPS = 3       # residual corrections a network equilibrium may take
_SYMMETRY_TOL = 1e-12   # |r1 - r2| tolerance for the symmetric closed forms
_BISECT_TOL = 2.0 ** -46  # relative bracket width where the margin bisection stops
_POLE_GAP = 2.0 ** -10    # relative distance above lam within which an edge is near
_CERTIFY_GAP = 2.0 ** -40  # relative distance below theta of the first inertia test
_ITERATIONS = 256          # inverse iterations at most, per shift
_SHIFTS = 3                # shifts the inverse iteration runs at, at most

CANONICAL_ORDER = _frozen(((1, 1), (2, 2), (2, 1)), np.intp)


class NoUniqueEquilibriumError(RuntimeError):
    """A q = c has no trustworthy unique solution."""


class Stability(Enum):
    STABLE = "STABLE"
    UNSTABLE = "UNSTABLE"
    MARGINAL = "MARGINAL"


VERDICTS = (*(verdict.value for verdict in Stability), "ERROR")  # by code


@dataclass(frozen=True)
class CanonicalParams:
    """Free parameters r1..r5 of the rescaled three-variable system."""

    r1: float
    r2: float
    r3: float
    r4: float
    r5: float

    def __post_init__(self):
        for name in (field.name for field in fields(self)):
            v = float(getattr(self, name))
            if not np.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
            object.__setattr__(self, name, v)

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.r1, self.r2, self.r3, self.r4, self.r5)


@dataclass(frozen=True, eq=False)
class StabilityReport:
    """Everything the stability command reports for one system. The
    equilibrium and the order are read-only arrays, held by the rule of
    ``network._frozen``."""

    equilibrium: np.ndarray
    char_coeffs: tuple[float, ...] | None  # None past CHAR_POLY_MAX_N
    closed_form: tuple[float, float, float] | None  # r-formula coefficients
    eigen_margin: float
    verdict: Stability
    variable_order: np.ndarray  # (n, 2), as the system's

    def __post_init__(self):
        object.__setattr__(self, "equilibrium", _frozen(self.equilibrium))
        object.__setattr__(self, "variable_order",
                           _frozen(self.variable_order, np.intp))


def _condition(a: np.ndarray) -> np.ndarray:
    """cond(A) of each matrix of a (P, n, n) stack, or, for a 3 x 3
    matrix, the Frobenius bound ||A||_F ||adj A||_F / |det A| >= cond(A)
    where it is at most _COND_LIMIT / 4, so that no SVD is taken there.
    The bound is trusted only where ||A||_F^3 <= _COND_LIMIT / 4 |det A|
    too, which holds the rounding of det A, and so of the bound, under
    1e-4 of it; what passes has cond(A) <= _COND_LIMIT whichever way it
    is computed. Each matrix is scaled to entries of at most 1 first, so
    nothing overflows; a zero or non-finite one fails and gets an SVD.
    The bound costs about 70 us + 0.2 us a matrix, the SVD about 12 us +
    2.5 us a matrix (2-core Xeon, numpy 2.4), so a stack shorter than
    _BOUND_STACK (one ``equilibrium``) takes the SVD alone."""
    cond = np.full(a.shape[:-2], np.nan)
    if a.shape[-2:] == (3, 3) and len(a) >= _BOUND_STACK:
        with np.errstate(divide="ignore", invalid="ignore"):
            unit = a / np.max(np.abs(a), axis=(-2, -1), keepdims=True)
        r0, r1, r2 = rows = np.moveaxis(unit, 0, -1)  # entry (i, j) of each
        # The columns of adj A are the cross products r1 x r2, r2 x r0
        # and r0 x r1 of the rows r0, r1, r2 of A, and det A = r0 . r1 x r2.
        turn, back = [1, 2, 0], [2, 0, 1]
        adjugate = [u[turn] * v[back] - u[back] * v[turn]
                    for u, v in ((r1, r2), (r2, r0), (r0, r1))]
        det2 = np.sum(r0 * adjugate[0], axis=0) ** 2
        frob2 = np.sum(rows * rows, axis=(0, 1))
        bound2 = frob2 * sum(np.sum(column * column, axis=0) for column in adjugate)
        limit2 = (_COND_LIMIT / 4) ** 2
        fast = (bound2 <= limit2 * det2) & (frob2 ** 3 <= limit2 * det2)
        cond[fast] = np.sqrt(bound2[fast] / det2[fast])
    slow = np.isnan(cond)
    if slow.any():
        cond[slow] = np.linalg.cond(a[slow])
    return cond


def _solve(a: np.ndarray, c: np.ndarray):
    """Guarded solves of A q = c for a (P, n, n) stack ``a`` and (P, n)
    constants ``c``: (q, ok, cond, residual), one entry per system, cond
    from ``_condition``. A system whose condition number is not finite or
    passes _COND_LIMIT is not solved (q and residual NaN); ``ok`` marks
    the solves whose residual max |c - A q| is within 1e-10 max |c|."""
    cond = _condition(a)
    solved = cond <= _COND_LIMIT  # inf and NaN fail as well
    # The solvable systems are copied out only when some are not.
    a_s, c_s = (a, c) if solved.all() else (a[solved], c[solved])
    q = np.full(c.shape, np.nan)
    q[solved] = np.linalg.solve(a_s, c_s[..., None])[..., 0]
    residual = np.max(np.abs(c - (a @ q[..., None])[..., 0]), axis=-1)
    ok = residual <= 1e-10 * np.max(np.abs(c), axis=-1)  # NaN fails
    return q, ok, cond, residual


def _spectrum(a: np.ndarray):
    """The margin, max Re of the eigenvalues of J = -A, of one matrix or
    of each matrix of a stack."""
    return np.max(np.linalg.eigvals(-a).real, axis=-1)


def _s_solver(st: EdgeIncidence):
    """The solver r -> S^-1 r of the module docstring, with S (while
    n <= k) or the capacitance matrix K factored once by Cholesky;
    ``_check_size``'s ValueError when that matrix is too large,
    NoUniqueEquilibriumError when cond(S) may pass _COND_LIMIT or the
    matrix is not positive definite."""
    _check_size(st)
    firm_degree, market_degree = st.supplies(np.ones(len(st.speed)))
    # S has no negative entry, so its largest row sum bounds its largest
    # eigenvalue, and S >= diag(beta_e) bounds its smallest one below.
    # A bound past the float range is inf, and refused below.
    with np.errstate(over="ignore"):
        rows = (st.firm_gamma * firm_degree)[st.firm] + st.beta * (
            market_degree[st.market] + 1.0)
        bound = float(np.max(rows) / np.min(st.beta))
    if not bound <= _COND_LIMIT:
        raise NoUniqueEquilibriumError(
            f"no unique equilibrium: matrix condition number bound "
            f"{bound:.3g} exceeds {_COND_LIMIT:.0e}")
    try:
        lower = np.linalg.cholesky(st.capacitance(1.0 / st.beta)
                                   if st.k_side else st._filled())
    except np.linalg.LinAlgError:
        raise NoUniqueEquilibriumError(
            f"no unique equilibrium: the "
            f"{'capacitance matrix' if st.k_side else 'matrix S'} is not "
            f"positive definite") from None

    def factored(b: np.ndarray) -> np.ndarray:
        return np.linalg.solve(lower.T, np.linalg.solve(lower, b))
    if not st.k_side:
        return factored

    def solve(r: np.ndarray) -> np.ndarray:
        y = r / st.beta
        return y - st.spread(factored(st.gather(y))) / st.beta
    return solve


def _definite_below(st: EdgeIncidence, order: np.ndarray,
                    poles: np.ndarray, lam: float) -> bool:
    """Whether H - lam I is positive definite, by the Cholesky test of T
    in the module docstring, for lam below the (k + 1)-th least pole.
    ``poles`` holds the b_e beta_e in increasing order and ``order`` the
    edges they belong to. The near edges are the first ones, up to k of
    them, whose pole lies below lam(1 + _POLE_GAP): keeping an edge with
    a pole just above lam out of K_far keeps 1 / (b_e beta_e - lam),
    which would swamp the rest of K_far in rounding, out of it."""
    m = min(int(np.searchsorted(poles, lam * (1.0 + _POLE_GAP))), st.size)
    near, far = order[:m], order[m:]
    weight = np.zeros(len(order))
    weight[far] = st.speed[far] / (poles[m:] - lam)
    v = np.zeros((st.size, m))  # V_near^T
    root = np.sqrt(st.speed[near])
    v[st.firm[near], np.arange(m)] = v[st.column[near], np.arange(m)] = root
    # A beta_i below 1 / float max makes K_far's 1 / beta_i inf, whose
    # row of K_far^-1 V_near^T is then 0, as it is to rounding.
    with np.errstate(over="ignore"):
        y = np.linalg.solve(st.capacitance(weight), v)  # K_far^-1 V_near^T
    t = root[:, None] * st.spread(y, near)          # V_near K_far^-1 V_near^T
    t.flat[::m + 1] += poles[:m] - lam
    try:
        np.linalg.cholesky(t)
    except np.linalg.LinAlgError:
        return False
    return True


def _rayleigh_bound(st: EdgeIncidence, shift: float) -> tuple[float, float]:
    """(theta, tail) for a shift below lambda_min and off every pole:
    theta >= lambda_min, the Rayleigh quotient of inverse iteration on
    (H - shift I)^-1 through the Woodbury identity of the module
    docstring, and tail, an estimate of theta - lambda_min (0 where it
    has none). The iteration starts from a fixed equidistributed vector
    (a golden-ratio Weyl sequence) and stops once tail is under
    theta * _CERTIFY_GAP / 16, or after _ITERATIONS steps. The result is
    only a hint, which the inertia tests check, so rounding that leaves
    no finite quotient gives (inf, inf)."""
    root, poles = np.sqrt(st.speed), st.speed * st.beta
    weight = np.concatenate((st.firm_gamma, st.market_beta))
    x = np.arange(len(poles)) * 0.6180339887498949 % 1.0 - 0.5
    theta = step = np.nan
    with np.errstate(all="ignore"):
        diagonal = poles - shift
        try:
            inverse = np.linalg.inv(st.capacitance(st.speed / diagonal))
        except np.linalg.LinAlgError:
            return np.inf, np.inf
        for _ in range(_ITERATIONS):
            y = x / diagonal
            x = y - root * st.spread(inverse @ st.gather(root * y)) / diagonal
            x /= np.linalg.norm(x)
            v = root * st.spread(weight * st.gather(root * x))  # V W V^T x
            last, theta = theta, float(x @ (poles * x + v))
            if not theta < np.inf:
                return np.inf, np.inf
            last_step, step = step, last - theta
            if step <= 0.0:  # the quotients never rise but by rounding
                return theta, 0.0
            # They fall about geometrically, by step / last_step a step, so
            # step^2 / (last_step - step) is what is left to fall.
            fall = last_step - step
            tail = step * step / fall if fall > 0.0 else np.inf
            if tail <= _CERTIFY_GAP / 16.0 * theta:
                break
    return theta, tail if tail < np.inf else 0.0


def _lowest_eigenvalue(st: EdgeIncidence) -> float:
    """lambda_min of H = D_b^1/2 S D_b^1/2 without an n x n array, to a
    relative bracket width of _BISECT_TOL. The bracket of the module
    docstring has its top cut to the Rayleigh quotient theta of
    ``_rayleigh_bound``. Its bottom is raised to a point below theta
    that ``_definite_below`` certifies: first max(theta * _CERTIFY_GAP,
    2 tail) below it, then, while that fails, 16 times further down each
    time. Where the certified point lies more than theta * _CERTIFY_GAP
    below, the iteration runs again, shifted to it, up to _SHIFTS
    shifts in all; bisection on ``_definite_below`` closes the rest."""
    order = np.argsort(st.speed * st.beta, kind="stable")
    poles = (st.speed * st.beta)[order]
    lo, k = float(poles[0]), st.size
    hi = float(np.min(np.append(poles[k:k + 1], st.speed * st.diagonal)))
    shift = lo * (1.0 - _POLE_GAP)
    for _ in range(_SHIFTS):
        theta, tail = _rayleigh_bound(st, shift)
        if theta < hi:
            hi = max(theta, lo)
        gap = max(_CERTIFY_GAP * hi, 2.0 * tail)
        while hi - gap > lo and not _definite_below(st, order, poles, hi - gap):
            hi -= gap
            gap *= 16.0
        if not hi - gap > lo:
            break
        lo = shift = hi - gap
        if gap <= _CERTIFY_GAP * hi:
            break
    while hi - lo > _BISECT_TOL * hi:
        lam = 0.5 * (lo + hi)
        if _definite_below(st, order, poles, lam):
            lo = lam
        else:
            hi = lam
    return 0.5 * (lo + hi)


def _check_size(st: EdgeIncidence) -> None:
    """Raise ValueError for a network whose smaller matrix, n x n or
    k x k, passes ``network.MAX_DENSE_VALUES``."""
    n, k = len(st.speed), st.size
    if min(n, k) ** 2 <= network.MAX_DENSE_VALUES:
        return
    raise ValueError(
        f"a network of {n} edges and {k} firms and markets needs a dense "
        f"{n}x{n} matrix or a {k}x{k} capacitance matrix, more than the "
        f"limit of {network.MAX_DENSE_VALUES} values")


def _hurwitz_checks(a1: float, a2: float, a3: float):
    """The three Routh-Hurwitz inequalities of a cubic, labelled."""
    return (("a1 > 0", a1 > 0.0), ("a3 > 0", a3 > 0.0),
            ("a1*a2 > a3", a1 * a2 > a3))


def verdict_of(margin: float) -> Stability:
    """The verdict of one margin, read from ``verdict_codes``: STABLE
    below -MARGIN_EPS, UNSTABLE above MARGIN_EPS, else MARGINAL. A NaN
    margin has no verdict (ValueError)."""
    return Stability(VERDICTS[int(verdict_codes(np.float64(margin)))])


def verdict_codes(margins: np.ndarray) -> np.ndarray:
    """The verdict of each margin as a code into ``VERDICTS``: STABLE
    below -MARGIN_EPS, UNSTABLE above MARGIN_EPS, else MARGINAL, and
    ERROR for a NaN margin (no unique equilibrium)."""
    codes = np.full(margins.shape, VERDICTS.index("MARGINAL"), np.uint8)
    codes[margins < -MARGIN_EPS] = VERDICTS.index("STABLE")
    codes[margins > MARGIN_EPS] = VERDICTS.index("UNSTABLE")
    codes[np.isnan(margins)] = VERDICTS.index("ERROR")
    return codes


def equilibrium(sys: AffineSystem) -> np.ndarray:
    """Solve A q = c with a condition-number guard and a residual check:
    a network by the Cholesky solve of its structure (see the module
    docstring), any other system by dense LU."""
    st = sys.structure
    if st is None:
        q, ok, cond, residual = _solve(sys.matrix[None], sys.constant[None])
        if not ok[0]:
            reason = (f"solve residual {residual[0]:.3g} too large"
                      if cond[0] <= _COND_LIMIT else
                      f"matrix condition number {cond[0]:.3g} exceeds "
                      f"{_COND_LIMIT:.0e}")
            raise NoUniqueEquilibriumError(f"no unique equilibrium: {reason}")
        return q[0]
    solve, c = _s_solver(st), sys.constant
    tolerance = 1e-10 * np.max(np.abs(c))
    q = solve(c / st.speed)
    residual = c - st.apply(q)
    # A tiny beta_e makes D^-1 large, and the solve then cancels away
    # digits; corrections from the matrix-free residual win them back.
    # One that overflows leaves a non-finite residual, refused below.
    for _ in range(_REFINE_STEPS):
        if np.max(np.abs(residual)) <= tolerance:
            break
        with np.errstate(over="ignore", invalid="ignore"):
            q = q + solve(residual / st.speed)
            residual = c - st.apply(q)
    worst = float(np.max(np.abs(residual)))
    if not worst <= tolerance:  # NaN fails
        raise NoUniqueEquilibriumError(
            f"no unique equilibrium: solve residual {worst:.3g} too large")
    return q


def char_poly(sys: AffineSystem) -> tuple[float, ...]:
    """Coefficients (a1, ..., an) of det(lambda I - J) = det(lambda I + A)
    = lambda^n + a1 lambda^(n-1) + ... + an for the Jacobian J = -A of a
    system of at most CHAR_POLY_MAX_N variables: a1 is the trace, a2 the
    sum of the principal 2 x 2 minors and a3 the determinant, each by its
    explicit formula."""
    a = sys.matrix.tolist()
    n = len(a)
    if not 1 <= n <= CHAR_POLY_MAX_N:
        raise ValueError(f"char_poly takes 1 to {CHAR_POLY_MAX_N} variables, "
                         f"got {n}")

    def minor(i: int, j: int) -> float:
        return a[i][i] * a[j][j] - a[i][j] * a[j][i]
    if n == 1:
        return (a[0][0],)
    if n == 2:
        return (a[0][0] + a[1][1], minor(0, 1))
    (p, q, r), (s, t, u), (v, w, x) = a
    return (p + t + x, minor(0, 1) + minor(0, 2) + minor(1, 2),
            p * (t * x - u * w) - q * (s * x - u * v) + r * (s * w - t * v))


def eigen_margin(sys: AffineSystem) -> float:
    """Max real part over the eigenvalues of J = -A, the margin that
    decides ``analyze``'s verdict, by the route of the module docstring:
    the general ``eigvals`` of a matrix system's A; for a network,
    -lambda_min of H, from one ``eigvalsh`` while n <= k, else from the
    certified bracket of ``_lowest_eigenvalue``.

    Deliberately not via ``char_poly``, so the Routh-Hurwitz route and
    this one stay independent of each other.
    """
    st = sys.structure
    if st is None:
        return float(_spectrum(sys.matrix))
    _check_size(st)
    if not st.k_side:
        return float(-np.linalg.eigvalsh(st.dense_symmetric())[0])
    return -_lowest_eigenvalue(st)


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
    margins[ok] = _spectrum(matrices[ok])
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
    """Bundle equilibrium, characteristic coefficients (of a system of
    at most CHAR_POLY_MAX_N variables), eigenvalue margin and the verdict,
    which the margin decides; for canonical systems pass r to include the
    closed-form coefficients."""
    eq = equilibrium(sys)
    eq.setflags(write=False)  # handed over, so the report holds it uncopied
    margin = eigen_margin(sys)
    coeffs = char_poly(sys) if sys.dimension <= CHAR_POLY_MAX_N else None
    return StabilityReport(equilibrium=eq, char_coeffs=coeffs,
                           closed_form=closed_form_coeffs(r) if r is not None else None,
                           eigen_margin=margin,
                           verdict=verdict_of(margin),
                           variable_order=sys.variable_order)
