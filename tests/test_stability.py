from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from cournotgraph import (AffineSystem, CanonicalParams,
                          NoUniqueEquilibriumError, Stability, analyze,
                          canonical_affine, char_poly, closed_form_coeffs,
                          eigen_margin, equilibrium, symmetric_conditions,
                          symmetric_equilibrium, to_affine)
from cournotgraph.stability import (MARGIN_EPS, VERDICTS, _hurwitz_checks,
                                    verdict_codes, verdict_of)
from helpers import (as_pairs, canonical_field, charpoly_by_determinant,
                     matching_spec, network_spec_of_shape,
                     network_spec_with_edges, random_canonical,
                     random_network_spec, record_factored_sizes,
                     to_affine_by_loop, two_firms_two_markets)

STABLE = CanonicalParams(0.2, 0.5, 1.5, -0.3, 0.4)
UNSTABLE = CanonicalParams(0.01, 0.1, 1.1, -0.3, 0.4)
STABLE_EQUILIBRIUM = (1.13636, 0.454545, 0.772727)  # order (q11, q22, q21)


class TestEquilibrium:
    def test_identity_system(self):
        sys = AffineSystem(constant=[1.0, 2.0], matrix=np.eye(2))
        assert np.allclose(equilibrium(sys), [1.0, 2.0])

    def test_single_edge_network(self):
        from cournotgraph import NetworkSpec
        spec = NetworkSpec(1, 1, ((1, 1),), alpha=(1.0,), beta=(0.5,),
                           gamma=(1.0,))
        assert equilibrium(to_affine(spec))[0] == pytest.approx(0.5)

    def test_stable_reference_point(self):
        q = equilibrium(canonical_affine(STABLE))
        assert np.allclose(q, STABLE_EQUILIBRIUM, atol=1e-5)

    def test_singular_matrix_rejected(self):
        sys = AffineSystem(constant=[1.0, 1.0], matrix=[[1.0, 1.0], [1.0, 1.0]])
        with pytest.raises(NoUniqueEquilibriumError, match="no unique equilibrium"):
            equilibrium(sys)

    def test_non_finite_system_gets_no_verdict(self):
        # Its NaN equilibrium once passed the residual test, as STABLE.
        with pytest.raises(ValueError, match="constant must be finite"):
            analyze(AffineSystem(constant=[float("nan"), 1.0],
                                 matrix=np.eye(2)))

    def test_zero_constant_gives_origin(self):
        sys = AffineSystem(constant=np.zeros(3), matrix=np.eye(3))
        assert np.array_equal(equilibrium(sys), np.zeros(3))

    def test_residual_bound(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            r = random_canonical(rng)
            sys = canonical_affine(r)
            try:
                q = equilibrium(sys)
            except NoUniqueEquilibriumError:
                continue
            residual = np.max(np.abs(sys.constant - sys.matrix @ q))
            assert residual < 1e-9 * max(1.0, np.max(np.abs(sys.constant)))


def _with_singular_values(rng, count: int, values) -> np.ndarray:
    """(count, 3, 3) random rotations of diag(values), scaled per matrix
    by a random power of ten."""
    q1, _ = np.linalg.qr(rng.normal(size=(count, 3, 3)))
    q2, _ = np.linalg.qr(rng.normal(size=(count, 3, 3)))
    scale = 10.0 ** rng.uniform(-100, 100, (count, 1, 1))
    return scale * (q1 * np.asarray(values, float)[..., None, :]) @ q2


class TestConditionGuard:
    """``_condition`` passes well-conditioned 3 x 3 systems on a
    Frobenius bound instead of an SVD; every solved/unsolved decision
    must be the one ``np.linalg.cond(a) <= _COND_LIMIT`` makes."""

    def check(self, a: np.ndarray) -> np.ndarray:
        from cournotgraph import stability
        cond = stability._condition(a)
        svd = np.linalg.cond(a)
        limit = stability._COND_LIMIT
        assert np.array_equal(cond <= limit, svd <= limit)
        fast = cond != svd
        # Where no SVD was taken the bound stands: at least cond(A), at
        # most a quarter of the limit.
        assert np.all(cond[fast] >= svd[fast] * (1 - 1e-9))
        assert np.all(cond[fast] <= limit / 4)
        return fast

    def test_random_and_scaled_stacks(self):
        rng = np.random.default_rng(67)
        a = rng.normal(size=(4000, 3, 3))
        a *= 10.0 ** rng.uniform(-150, 150, (4000, 1, 1))
        a[:20, 1:] = 0.0  # rank 1
        a[20:40] = 0.0
        a[40:60, 2] = a[40:60, 0] + a[40:60, 1]  # rank 2
        a[60:80, 0, 0] = 1e300  # scaled down before it overflows
        fast = self.check(a)
        assert fast.mean() > 0.9 and not fast[:60].any()
        # A short stack, such as one equilibrium's, takes the SVD alone.
        from cournotgraph import stability
        short = a[60:60 + stability._BOUND_STACK - 1]
        assert np.array_equal(stability._condition(short), np.linalg.cond(short))

    def test_stacks_within_2_to_the_minus_20_of_singular(self):
        rng = np.random.default_rng(71)
        a = rng.normal(size=(3000, 3, 3))
        u, s, vt = np.linalg.svd(a)
        s[:, 2] = 0.0
        singular = (u * s[:, None, :]) @ vt
        nudge = rng.normal(size=a.shape)
        nudge *= 2.0 ** -20 * (np.linalg.norm(singular, axis=(1, 2))
                               / np.linalg.norm(nudge, axis=(1, 2)))[:, None, None]
        det = np.linalg.det(singular + nudge)
        assert np.all(np.abs(det) <= 2.0 ** -18 * np.linalg.norm(singular, axis=(1, 2)) ** 3)
        assert self.check(singular + nudge).any()

    def test_condition_numbers_at_the_limit(self):
        # Near the limit and near its quarter, with the two small singular
        # values apart and together: with both tiny, det A is below its
        # own rounding, and a bound trusted there could pass what the
        # SVD refuses.
        rng = np.random.default_rng(73)
        for kappa in (2.4e11, 2.5e11, 2.6e11, 9.9e11, 1e12, 1.01e12, 1e13):
            for middle in (0.5, 1e-3, 10.0 / kappa, 1.0 / kappa):
                self.check(_with_singular_values(rng, 400, (1.0, middle, 1.0 / kappa)))

    def test_a_canonical_sweep_takes_no_svd(self, monkeypatch):
        from cournotgraph import stability

        def refused(a, p=None):
            raise AssertionError("an SVD was taken")
        r = np.tile(STABLE.as_tuple(), (2000, 1))
        r[:, 2] = np.linspace(0.1, 1.5, 2000)
        want = stability.canonical_margins(r)
        monkeypatch.setattr(np.linalg, "cond", refused)
        assert np.array_equal(stability.canonical_margins(r), want)


class TestCharPoly:
    def test_identity_gives_cubed_root(self):
        sys = AffineSystem(constant=np.zeros(3), matrix=np.eye(3))
        assert np.allclose(char_poly(sys), (3.0, 3.0, 1.0), rtol=1e-14)

    def test_unstable_reference_coefficients(self):
        coeffs = char_poly(canonical_affine(UNSTABLE))
        assert np.allclose(coeffs, (1.21, 0.022, 0.0271), rtol=1e-12)

    def test_stable_reference_coefficients(self):
        coeffs = char_poly(canonical_affine(STABLE))
        assert np.allclose(coeffs, (2.2, 1.05, 0.22), rtol=1e-12)

    def test_matches_determinant_interpolation(self):
        rng = np.random.default_rng(4)
        for n in (1, 2, 3):
            for _ in range(20):
                a = rng.uniform(-2.0, 2.0, (n, n))
                sys = AffineSystem(constant=np.zeros(n), matrix=a)
                assert np.allclose(char_poly(sys), charpoly_by_determinant(a),
                                   rtol=1e-8, atol=1e-10)
        # Past three variables the coefficients come from the eigenvalues.
        with pytest.raises(ValueError, match="takes 1 to 3 variables, got 4"):
            char_poly(AffineSystem(constant=np.zeros(4), matrix=np.eye(4)))


class TestRouthHurwitz:
    def test_triple_root_minus_one(self):
        assert all(holds for _, holds in _hurwitz_checks(3.0, 3.0, 1.0)) is True

    def test_unstable_reference(self):
        # a1 a2 = 0.02662 < a3 = 0.0271
        assert all(holds for _, holds in _hurwitz_checks(1.21, 0.022, 0.0271)) is False

    def test_stable_reference(self):
        assert all(holds for _, holds in _hurwitz_checks(2.2, 1.05, 0.22)) is True


class TestEigenMargin:
    def test_diagonal(self):
        sys = AffineSystem(constant=np.zeros(2), matrix=np.diag([1.0, 2.0]))
        assert eigen_margin(sys) == pytest.approx(-1.0)

    def test_triangular_canonical(self):
        sys = canonical_affine(CanonicalParams(1, 1, 1, 0, 0))
        assert eigen_margin(sys) == pytest.approx(-1.0)

    def test_signs_on_reference_points(self):
        assert eigen_margin(canonical_affine(STABLE)) < 0
        assert eigen_margin(canonical_affine(UNSTABLE)) > 0

    def test_agrees_with_routh_hurwitz_on_random_draws(self):
        rng = np.random.default_rng(6)
        checked = 0
        for _ in range(1000):
            r = random_canonical(rng)
            sys = canonical_affine(r)
            margin = eigen_margin(sys)
            if abs(margin) <= 1e-6:
                continue
            checked += 1
            checks = _hurwitz_checks(*char_poly(sys))
            assert all(holds for _, holds in checks) == (margin < 0)
        assert checked > 900


class TestCanonicalSystem:
    def test_field_at_origin(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            r = random_canonical(rng)
            assert canonical_field(r, (0.0, 0.0, 0.0)) == (1.0, 1.0, 1.0)

    def test_field_vanishes_at_reference_equilibrium(self):
        residual = canonical_field(STABLE, STABLE_EQUILIBRIUM)
        assert np.max(np.abs(residual)) < 5e-6

    def test_boundary_substitution(self):
        assert canonical_field(CanonicalParams(1, 1, 1, 0, 0),
                               (0.0, 0.0, 1.0)) == (0.0, 0.0, 0.0)

    def test_affine_matches_field(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            r = random_canonical(rng)
            sys = canonical_affine(r)
            q = rng.uniform(-2.0, 2.0, 3)
            assert np.allclose(sys.field_at(q), canonical_field(r, q),
                               rtol=1e-12, atol=1e-14)

    def test_affine_is_triangular_for_unit_parameters(self):
        sys = canonical_affine(CanonicalParams(1, 1, 1, 0, 0))
        assert np.allclose(sys.matrix, np.triu(sys.matrix))
        assert np.allclose(np.diag(sys.matrix), 1.0)

    def test_equilibrium_reproduces_reference_triple(self):
        q = equilibrium(canonical_affine(STABLE))
        assert np.allclose(q, STABLE_EQUILIBRIUM, atol=1e-5)

    def test_non_finite_parameters_rejected(self):
        with pytest.raises(ValueError, match="r3 must be finite"):
            CanonicalParams(1, 1, float("inf"), 0, 0)


class TestClosedFormCoeffs:
    def test_unstable_reference(self):
        assert np.allclose(closed_form_coeffs(UNSTABLE),
                           (1.21, 0.022, -0.0359), rtol=1e-12)

    def test_stable_reference(self):
        assert np.allclose(closed_form_coeffs(STABLE), (2.2, 1.05, 0.01),
                           rtol=1e-10)

    def test_matches_char_poly_when_symmetric(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            r = random_canonical(rng, symmetric=True)
            assert np.allclose(closed_form_coeffs(r),
                               char_poly(canonical_affine(r)),
                               rtol=1e-12, atol=1e-14)

    def test_differs_from_char_poly_when_asymmetric(self):
        got = closed_form_coeffs(UNSTABLE)[2]
        jac = char_poly(canonical_affine(UNSTABLE))[2]
        assert abs(got - jac) > 1e-3


class TestSymmetricClosedForm:
    def test_hand_value(self):
        q11, q22, q21 = symmetric_equilibrium(CanonicalParams(1, 1, 2, 0.25, 0.25))
        assert q21 == pytest.approx(1.0 / 3.0)
        assert q11 == q22 == pytest.approx(2.0 / 3.0)

    def test_boundary_value(self):
        q11, q22, q21 = symmetric_equilibrium(CanonicalParams(1, 1, 1, 0, 0))
        assert (q11, q22, q21) == (0.0, 0.0, 1.0)

    def test_matches_linear_solve(self):
        rng = np.random.default_rng(14)
        for _ in range(500):
            r = random_canonical(rng, symmetric=True)
            if abs(r.r1 * r.r3 - r.r4 - r.r5) < 1e-2:
                continue  # keep the linear solve well-conditioned
            closed = np.array(symmetric_equilibrium(r))
            solved = equilibrium(canonical_affine(r))
            assert np.max(np.abs(closed - solved)) < 1e-10 * max(
                1.0, float(np.max(np.abs(solved))))

    def test_residual_vanishes(self):
        rng = np.random.default_rng(16)
        for _ in range(200):
            r = random_canonical(rng, symmetric=True)
            if abs(r.r1 * r.r3 - r.r4 - r.r5) < 1e-2:
                continue
            q = symmetric_equilibrium(r)
            assert np.max(np.abs(canonical_field(r, q))) < 1e-10 * max(
                1.0, float(np.max(np.abs(q))))

    def test_asymmetric_parameters_rejected(self):
        with pytest.raises(ValueError, match="r1 == r2"):
            symmetric_equilibrium(CanonicalParams(1, 1.5, 2, 0, 0))
        with pytest.raises(ValueError, match="requires r1 > 0, got 0"):
            symmetric_conditions(CanonicalParams(0, 0, 2, 0, 0))

    def test_zero_denominator_rejected(self):
        with pytest.raises(NoUniqueEquilibriumError):
            symmetric_equilibrium(CanonicalParams(1, 1, 1, 0.5, 0.5))


class TestSymmetricConditions:
    def test_satisfied(self):
        assert symmetric_conditions(CanonicalParams(1, 1, 2, 0.25, 0.25)) is True

    def test_boundary_r3(self):
        assert symmetric_conditions(CanonicalParams(1, 1, 1, 0, 0)) is False

    def test_first_inequality_fails(self):
        assert symmetric_conditions(CanonicalParams(0.3, 0.3, 2, 0.2, 0.2)) is False

    def test_conditions_guarantee_interior_stable_equilibrium(self):
        rng = np.random.default_rng(18)
        found = 0
        while found < 500:
            r = random_canonical(rng, symmetric=True)
            if not symmetric_conditions(r):
                continue
            found += 1
            q11, q22, q21 = symmetric_equilibrium(r)
            assert q11 > 0 and q22 > 0 and q21 > 0
            assert 0.0 < q21 < 1.0
            assert analyze(canonical_affine(r), r).verdict is Stability.STABLE


class TestAnalyze:
    def test_unstable_reference(self):
        report = analyze(canonical_affine(UNSTABLE), UNSTABLE)
        assert report.verdict is Stability.UNSTABLE
        assert all(holds for _, holds in _hurwitz_checks(*report.char_coeffs)) is False
        assert report.eigen_margin > 0
        assert report.closed_form[2] == pytest.approx(-0.0359, rel=1e-10)

    def test_stable_reference(self):
        report = analyze(canonical_affine(STABLE), STABLE)
        assert report.verdict is Stability.STABLE
        assert all(holds for _, holds in _hurwitz_checks(*report.char_coeffs)) is True
        assert np.allclose(report.equilibrium, STABLE_EQUILIBRIUM, atol=1e-5)

    def test_identity_is_stable(self):
        report = analyze(AffineSystem(constant=np.zeros(3), matrix=np.eye(3)))
        assert report.verdict is Stability.STABLE
        assert np.array_equal(report.equilibrium, np.zeros(3))
        assert report.closed_form is None

    def test_marginal_rotation(self):
        a = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        report = analyze(AffineSystem(constant=np.zeros(3), matrix=a))
        assert report.verdict is Stability.MARGINAL

    def test_verdict_codes_keep_the_band_of_verdict_of(self):
        eps = MARGIN_EPS
        margins = np.array([-np.inf, -1.0, np.nextafter(-eps, -1), -eps,
                            -0.0, 0.0, eps, np.nextafter(eps, 1), 1.0,
                            np.inf, np.nan])
        want = ["STABLE"] * 3 + ["MARGINAL"] * 4 + ["UNSTABLE"] * 3
        labels = [VERDICTS[code] for code in verdict_codes(margins)]
        assert labels == want + ["ERROR"]
        assert [verdict_of(m).value for m in margins[:-1]] == want
        # A NaN margin has no verdict: the sweep's ERROR is not a Stability.
        with pytest.raises(ValueError):
            verdict_of(np.nan)

    def test_hurwitz_agrees_with_verdict_away_from_margin(self):
        rng = np.random.default_rng(20)
        for _ in range(300):
            r = random_canonical(rng)
            sys = canonical_affine(r)
            try:
                report = analyze(sys, r)
            except NoUniqueEquilibriumError:
                continue
            if abs(report.eigen_margin) <= 1e-6:
                continue
            checks = _hurwitz_checks(*report.char_coeffs)
            assert all(holds for _, holds in checks) == \
                (report.verdict is Stability.STABLE)

    def test_network_system_of_other_dimension(self):
        spec = two_firms_two_markets(1, 1, 0.2, 0.3, 0.1, 0.4)
        sys = to_affine(spec)
        report = analyze(sys)
        assert report.verdict is Stability.STABLE
        assert len(report.char_coeffs) == 3

    def test_sweep_reference_point_r3_low(self):
        r = dataclasses.replace(STABLE, r3=0.1)
        report = analyze(canonical_affine(r), r)
        assert report.verdict is Stability.UNSTABLE


class TestCoefficientRoutes:
    def test_small_systems_keep_faddeev_leverrier(self):
        rng = np.random.default_rng(50)
        for n in (1, 2, 3):
            for _ in range(20):
                sys = AffineSystem(constant=np.ones(n),
                                   matrix=rng.uniform(-2.0, 2.0, (n, n)) + 3 * np.eye(n))
                assert analyze(sys).char_coeffs == char_poly(sys)

    def test_network_coefficients_are_eigenvalue_symmetric_functions(self):
        # Past 3 variables no coefficients are computed: the report's one
        # n/a line says the verdict rests on the margin, -lambda_min of
        # the symmetric D_b^1/2 S D_b^1/2 similar to A.
        from cournotgraph.reports import render_stability_report
        rng = np.random.default_rng(51)
        checked = 0
        for _ in range(60):
            spec = random_network_spec(rng, max_markets=7, max_firms=8)
            sys = to_affine(spec)
            if sys.dimension <= 3:
                continue
            checked += 1
            report = analyze(sys)
            assert report.char_coeffs is None
            root_b = np.sqrt([spec.speed[j - 1] for _, j in sys.variable_order])
            s = sys.matrix / (root_b * root_b)[:, None]
            mu = np.linalg.eigvalsh(root_b[:, None] * (s + s.T) / 2.0 * root_b)
            assert np.isclose(report.eigen_margin, -mu[0], rtol=1e-9, atol=0.0)
            lines = render_stability_report(report).splitlines()
            heading = lines.index("characteristic coefficients (Jacobian):")
            assert lines[heading + 1:-2] == [
                "  Routh-Hurwitz checks: n/a (system is not cubic; verdict "
                "rests on the eigenvalue margin)"]
        assert checked > 40

    def test_overflowing_coefficients_are_not_reported(self):
        # r1 r2 and r1 r2 r3 overflow: a2 and a3 are inf in both blocks,
        # and neither prints them or Routh-Hurwitz marks read from them.
        from cournotgraph.reports import render_stability_report
        r = CanonicalParams(1e200, 1e200, 1e200, 0.5, 0.5)
        report = analyze(canonical_affine(r), r)
        assert not np.all(np.isfinite(report.char_coeffs))
        assert not np.all(np.isfinite(report.closed_form))
        assert report.verdict is Stability.STABLE
        na = ("  Routh-Hurwitz checks: n/a (coefficients are not finite; "
              "verdict rests on the eigenvalue margin)")
        lines = render_stability_report(report).splitlines()
        assert lines[4:] == [
            "characteristic coefficients (Jacobian):", na,
            f"eigenvalue margin (max Re): {report.eigen_margin!r}",
            "verdict: STABLE",
            "closed-form coefficients (r-parameter formulas; exact when "
            "r1 = r2):", na]


def _network_specs(seed: int, count: int):
    """Specs from both generators: up to 8 markets and firms, then up to
    25 of each."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        if k % 2:
            yield random_network_spec(rng, max_markets=8, max_firms=8)
        else:
            yield network_spec_of_shape(rng, int(rng.integers(1, 26)),
                                        int(rng.integers(1, 26)))


def _dense_h(spec):
    """H = D_b^1/2 S D_b^1/2 from the loop-built A = D_b S."""
    _, a = to_affine_by_loop(spec)
    order = sorted(set(as_pairs(spec.edges)))
    root = np.sqrt([spec.speed[j - 1] for _, j in order])
    return a / (root * root)[:, None] * root[:, None] * root[None, :]


def _edges_and_size(spec) -> tuple[int, int]:
    """(n, k): the spec's edges, and its firms and markets."""
    return len(set(as_pairs(spec.edges))), spec.market_count + spec.firm_count


def _n_above_k(spec) -> bool:
    n, k = _edges_and_size(spec)
    return n > k


class TestNetworkRoute:
    """Network systems are solved and analysed on their incidence
    structure, on the smaller side: where n <= k, a Cholesky solve of S
    and eigvalsh of the symmetric H; where k < n, a Cholesky solve of
    the k x k capacitance matrix and a margin bracketed by inverse
    iteration and certified by inertia tests, then bisected."""

    def test_matching_spec_refuses_cross_edges_past_the_grid(self):
        # pairs markets and firms hold pairs^2 edges, pairs of them on the
        # diagonal: two pairs take at most 2 cross edges, not the default 3.
        rng = np.random.default_rng(70)
        with pytest.raises(ValueError, match="3 cross edges need more than 2 pairs"):
            matching_spec(rng, 2)
        assert len(matching_spec(rng, 2, cross=2).edges) == 4
        assert len(matching_spec(rng, 1, cross=0).edges) == 1

    def test_s_route_matches_dense_solve(self, monkeypatch):
        rng = np.random.default_rng(68)
        specs = [*(random_network_spec(rng) for _ in range(120)),
                 *_network_specs(69, 200),
                 *(matching_spec(rng, int(rng.integers(3, 40)),
                                 int(rng.integers(0, 4))) for _ in range(20))]
        specs = [spec for spec in specs
                 if _edges_and_size(spec)[0] <= _edges_and_size(spec)[1]]
        assert len(specs) >= 150
        wants = [np.linalg.solve(a, c)
                 for c, a in map(to_affine_by_loop, specs)]
        sizes = record_factored_sizes(monkeypatch)
        for spec, want in zip(specs, wants):
            sizes.clear()
            got = equilibrium(to_affine(spec))
            assert set(sizes) == {len(want)}  # S, n x n, is factored
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_woodbury_equilibrium_matches_dense_solve(self):
        for spec in _network_specs(60, 80):
            c, a = to_affine_by_loop(spec)
            want = np.linalg.solve(a, c)
            got = equilibrium(to_affine(spec))
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_equilibrium_does_not_depend_on_the_speeds(self):
        rng = np.random.default_rng(61)
        specs = [*_network_specs(62, 40),
                 *(random_network_spec(rng) for _ in range(20)),
                 *(matching_spec(rng, int(rng.integers(3, 30)))
                   for _ in range(10))]
        # Both factorings: S where n <= k, the capacitance matrix past it.
        assert {n <= k for n, k in map(_edges_and_size, specs)} == {True, False}
        for spec in specs:
            q = equilibrium(to_affine(spec))
            for speed in (np.full(spec.firm_count, 1e6),
                          np.full(spec.firm_count, 1e-6),
                          10.0 ** rng.choice([-6, 6], spec.firm_count)):
                moved = dataclasses.replace(spec, speed=tuple(spec.speed * speed))
                got = equilibrium(to_affine(moved))
                assert np.max(np.abs(got - q)) <= 1e-12 * np.max(np.abs(q))

    def test_bisection_margin_matches_dense_eigenvalues(self, monkeypatch):
        # The fallback: with no bound from the iteration, the bisection
        # runs over the whole bracket, on every shape, n <= k as well.
        from cournotgraph import stability
        specs = list(_network_specs(63, 80))
        want = [-float(np.linalg.eigvalsh(_dense_h(spec))[0]) for spec in specs]
        monkeypatch.setattr(stability, "_rayleigh_bound",
                            lambda st, shift: (np.inf, np.inf))
        for spec, margin in zip(specs, want):
            got = -stability._lowest_eigenvalue(to_affine(spec).structure)
            assert abs(got - margin) <= 1e-12 * abs(margin)

    @pytest.mark.parametrize("beta", [1e-300, 1e-310, 5e-324])
    def test_margin_at_vanishing_market_slopes(self, beta, monkeypatch):
        # A complete 2 x 6 network (12 edges, k = 8) whose first market
        # slope is tiny: its poles b_e beta_e leave the Rayleigh iteration
        # no finite quotient, so the bisection runs over the whole
        # bracket, and past 1 / float max the 1 / beta_1 of K_far is inf.
        # The margin is the dense one, with no warning.
        from cournotgraph import NetworkSpec, stability
        spec = NetworkSpec(2, 6, tuple((i, j) for i in (1, 2) for j in range(1, 7)),
                           (1.0, 1.0), (beta, 0.5),
                           (0.2, 0.3, 0.4, 0.2, 0.3, 0.4), (1.0,) * 6)
        hints, rayleigh_bound = [], stability._rayleigh_bound

        def recorded(st, shift):
            hints.append(rayleigh_bound(st, shift))
            return hints[-1]
        monkeypatch.setattr(stability, "_rayleigh_bound", recorded)
        margin = -float(np.linalg.eigvalsh(_dense_h(spec))[0])
        assert abs(eigen_margin(to_affine(spec)) - margin) <= 1e-14
        assert hints == [(np.inf, np.inf)]

    def test_no_rayleigh_hint_at_an_eigenvalue(self):
        # At a shift that is an eigenvalue of H the Woodbury matrix K of
        # (H - shift I)^-1 is singular: 1.25 for this complete 2 x 3
        # network, whose K is exactly singular in floats. The hint is
        # then none, and the margin below it still the dense one.
        from cournotgraph import NetworkSpec, stability
        spec = NetworkSpec(2, 3, tuple((i, j) for i in (1, 2) for j in range(1, 4)),
                           (1.0, 1.0), (0.25, 0.25), (0.125,) * 3, (1.0,) * 3)
        st = to_affine(spec).structure
        assert st.k_side
        spectrum = np.linalg.eigvalsh(_dense_h(spec))
        assert np.min(np.abs(spectrum - 1.25)) <= 1e-15
        assert stability._rayleigh_bound(st, 1.25) == (np.inf, np.inf)
        assert abs(eigen_margin(to_affine(spec)) + spectrum[0]) <= 1e-12 * spectrum[0]

    def test_bisection_near_repeated_poles(self):
        # Round parameters repeat the values b_e beta_e, and some sit on
        # or next to the lowest eigenvalue of H; the count keeps the edges
        # near the bisection point in its matrix instead of dividing by
        # the small differences. The default route: eigvalsh where n <= k,
        # the certified bracket where k < n.
        from cournotgraph import NetworkSpec
        rng = np.random.default_rng(64)
        specs = []
        for _ in range(60):
            shape = network_spec_of_shape(rng, int(rng.integers(1, 13)),
                                          int(rng.integers(1, 13)))
            specs.append(NetworkSpec(
                shape.market_count, shape.firm_count, shape.edges, shape.alpha,
                tuple(rng.choice([0.5, 1.0, 2.0], shape.market_count)),
                tuple(rng.choice([0.5, 1.0], shape.firm_count)),
                tuple(rng.choice([1.0, 2.0], shape.firm_count))))
        # One b_e beta_e on more edges than there are firms and markets:
        # the least pole (lambda_min is that value exactly), or one just
        # above lambda_min, which the count then meets near the pole.
        complete = tuple((i, j) for i in range(1, 7) for j in range(1, 9))
        for beta in ((0.5,) * 6, (0.999,) + (1.0,) * 5, (0.9999,) + (1.0,) * 5):
            specs.append(NetworkSpec(6, 8, complete, (1.0,) * 6, beta,
                                     tuple(rng.uniform(0.1, 2.0, 8)), (1.0,) * 8))
        assert sum(map(_n_above_k, specs)) >= 40
        want = [-float(np.linalg.eigvalsh(_dense_h(spec))[0]) for spec in specs]
        for spec, margin in zip(specs, want):
            got = eigen_margin(to_affine(spec))
            assert abs(got - margin) <= 1e-12 * abs(margin)

    def test_bisection_on_clustered_poles(self, monkeypatch):
        # Many distinct poles b_e beta_e close together: two markets whose
        # slopes differ by 1e-9 to 1e-3 on every firm (each value on fewer
        # edges than there are firms and markets), and complete networks
        # whose slopes and speeds spread by 1e-12 to 1e-3. On the default
        # route the margin stays within 1e-12 of the dense one, and no
        # matrix it factors or inverts is larger than k x k.
        from cournotgraph import NetworkSpec
        rng = np.random.default_rng(67)
        specs = []
        for _ in range(20):
            firms, spread = int(rng.integers(2, 60)), 10.0 ** rng.uniform(-9, -3)
            specs.append(NetworkSpec(
                2, firms, tuple((i, j) for i in (1, 2) for j in range(1, firms + 1)),
                (1.0, 1.0), (1.0, 1.0 + spread), tuple(rng.uniform(0.1, 2.0, firms)),
                (1.0,) * firms))
        for _ in range(20):
            m, f = int(rng.integers(1, 15)), int(rng.integers(1, 15))
            spread = 10.0 ** rng.uniform(-12, -3)
            specs.append(NetworkSpec(
                m, f, tuple((i, j) for i in range(1, m + 1) for j in range(1, f + 1)),
                (1.0,) * m, tuple(1.0 + spread * rng.uniform(0.0, 1.0, m)),
                tuple(rng.uniform(0.1, 2.0, f)),
                tuple(1.0 + spread * rng.uniform(0.0, 1.0, f))))
        assert sum(map(_n_above_k, specs)) >= 30
        want = [-float(np.linalg.eigvalsh(_dense_h(spec))[0]) for spec in specs]
        sizes = record_factored_sizes(monkeypatch)
        for spec, margin in zip(specs, want):
            sizes.clear()
            got = eigen_margin(to_affine(spec))
            assert abs(got - margin) <= 1e-12 * abs(margin)
            assert max(sizes) <= spec.market_count + spec.firm_count

    def test_margin_past_k_edges_stays_on_the_k_side(self, monkeypatch):
        # Where k < n the margin takes no eigensolver call and no matrix
        # larger than k x k: random 20 x 30 and 40 x 60 networks, and a
        # complete 57 x 57 one whose 3249 poles lie within 2e-6 of each
        # other.
        from cournotgraph import NetworkSpec
        rng = np.random.default_rng(72)
        w = 57
        specs = [*(network_spec_of_shape(rng, 20, 30) for _ in range(3)),
                 *(network_spec_of_shape(rng, 40, 60) for _ in range(2)),
                 NetworkSpec(w, w, tuple((i, j) for i in range(1, w + 1)
                                         for j in range(1, w + 1)),
                             (1.0,) * w, tuple(1.0 + 1e-6 * i / w for i in range(w)),
                             (1.0,) * w, tuple(1.0 + 1e-7 * j / w for j in range(w)))]
        want = [-float(np.linalg.eigvalsh(_dense_h(spec))[0]) for spec in specs[:-1]]

        def forbidden(*args, **kwargs):
            raise AssertionError("eigensolver called")
        sizes = record_factored_sizes(monkeypatch)
        for name in ("eigvalsh", "eigh"):
            monkeypatch.setattr(np.linalg, name, forbidden)
        for spec, margin in zip(specs, [*want, None]):
            assert _n_above_k(spec)
            sizes.clear()
            got = eigen_margin(to_affine(spec))
            assert sizes and max(sizes) <= spec.market_count + spec.firm_count
            if margin is not None:
                assert abs(got - margin) <= 1e-12 * abs(margin)
        assert -1.000001 < got < -1.0

    @staticmethod
    def _shared_least_pole(rng):
        """Two markets shared by 100 firms, every speed 1: the 100 edges
        of the cheaper market share the least pole."""
        from cournotgraph import NetworkSpec
        shape = network_spec_of_shape(rng, 2, 100)
        return NetworkSpec(2, 100, tuple((i, j) for i in (1, 2)
                                         for j in range(1, 101)),
                           shape.alpha, shape.beta, shape.gamma, (1.0,) * 100)

    @pytest.mark.parametrize("shape", ["241_edges", "960_edges",
                                       "shared_least_pole"])
    def test_inertia_tests_at_the_bench_shapes(self, shape, monkeypatch):
        # The benchmark's shapes, 20 x 30 with 241 edges and 40 x 60 with
        # 960, and one where the first iteration converges slowly, so
        # that a second one runs at the certified shift: the bracket from
        # the iteration leaves a few inertia tests where the bisection
        # over the whole bracket took about 47.
        from cournotgraph import stability
        make = {"241_edges": lambda rng: network_spec_with_edges(rng, 20, 30, 241),
                "960_edges": lambda rng: network_spec_with_edges(rng, 40, 60, 960),
                "shared_least_pole": self._shared_least_pole}[shape]
        calls = []
        test = stability._definite_below

        def counted(*args):
            calls.append(1)
            return test(*args)
        monkeypatch.setattr(stability, "_definite_below", counted)
        rng = np.random.default_rng(73)
        for _ in range(4):
            spec = make(rng)
            calls.clear()
            got = eigen_margin(to_affine(spec))
            assert 1 <= len(calls) <= 12
            want = -float(np.linalg.eigvalsh(_dense_h(spec))[0])
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_one_matrix_size_limit(self, monkeypatch):
        # Every matrix a network route fills or factors is S or H (n x n)
        # or a k x k one, under the one limit: a network is refused
        # exactly when min(n, k)^2 passes it, by each entry point.
        from cournotgraph import network
        rng = np.random.default_rng(70)
        specs = [*_network_specs(71, 30),
                 *(matching_spec(rng, int(rng.integers(3, 12))) for _ in range(6))]
        for spec in specs:
            n, k = _edges_and_size(spec)
            for limit in (min(n, k) ** 2 - 1, min(n, k) ** 2, max(n, k) ** 2):
                monkeypatch.setattr(network, "MAX_DENSE_VALUES", limit)
                message = (f"a network of {n} edges and {k} firms and markets "
                           f"needs a dense {n}x{n} matrix or a {k}x{k} "
                           f"capacitance matrix, more than the limit of "
                           f"{limit} values")
                for call in (equilibrium, analyze, eigen_margin):
                    if min(n, k) ** 2 > limit:
                        with pytest.raises(ValueError, match=f"^{message}$"):
                            call(to_affine(spec))
                    else:
                        call(to_affine(spec))

    def test_equilibrium_never_fills_the_dense_matrix(self, monkeypatch):
        from cournotgraph.network import EdgeIncidence

        def forbidden(self):
            raise AssertionError("dense matrix filled")
        monkeypatch.setattr(EdgeIncidence, "dense", forbidden)
        rng = np.random.default_rng(65)
        for markets, firms in ((1, 1), (2, 3), (20, 30), (70, 70)):
            spec = network_spec_of_shape(rng, markets, firms)
            q = equilibrium(to_affine(spec))
            assert len(q) == len(set(as_pairs(spec.edges))) and np.all(np.isfinite(q))

    def test_margin_is_the_symmetric_one(self):
        for spec in _network_specs(66, 30):
            mu = np.linalg.eigvalsh(_dense_h(spec))
            assert abs(analyze(to_affine(spec)).eigen_margin + mu[0]) <= 1e-12 * mu[0]

    @staticmethod
    def _tiny_beta_specs(beta1: float):
        """The S route (3 edges, k = 4) and the Woodbury route (a complete
        2 x 3 network, 6 edges, k = 5) with beta_1 = ``beta1``."""
        from cournotgraph import NetworkSpec
        return (two_firms_two_markets(1, 1, beta1, 0.3, 0.1, 0.4),
                NetworkSpec(2, 3, tuple((i, j) for i in (1, 2) for j in (1, 2, 3)),
                            (1.0, 1.0), (beta1, 0.3), (0.1, 0.4, 0.5)))

    def test_tiny_beta_is_refined_to_the_dense_solve(self):
        # beta_1 = 1e-11 puts 1e11 into D^-1; S itself is well conditioned.
        # On the Woodbury route the first solve misses c by 6.1e-6 (beta_1
        # = 1e-11) down to 3.9e-10 (1e-7), so refinement has to run.
        for beta1 in (1e-11, 1e-9, 1e-7):
            for spec in self._tiny_beta_specs(beta1):
                c, a = to_affine_by_loop(spec)
                want = np.linalg.solve(a, c)
                got = equilibrium(to_affine(spec))
                assert (np.max(np.abs(got - want))
                        <= 1e-10 * np.max(np.abs(want)))

    @pytest.mark.parametrize("beta1", [1e-11, 1e-9, 1e-7])
    def test_unrefined_residual_is_no_equilibrium(self, beta1, monkeypatch):
        from cournotgraph import stability
        monkeypatch.setattr(stability, "_REFINE_STEPS", 0)
        woodbury = self._tiny_beta_specs(beta1)[1]
        with pytest.raises(NoUniqueEquilibriumError,
                           match="^no unique equilibrium: solve residual "
                                 ".* too large$"):
            equilibrium(to_affine(woodbury))

    def test_badly_conditioned_network_gets_no_equilibrium(self):
        from cournotgraph import NetworkSpec
        spec = NetworkSpec(2, 2, ((1, 1), (1, 2), (2, 2)), alpha=(1.0, 1.0),
                           beta=(1e-13, 1.0), gamma=(1.0, 1.0))
        with pytest.raises(NoUniqueEquilibriumError,
                           match="condition number bound .* exceeds 1e\\+12"):
            equilibrium(to_affine(spec))
        with pytest.raises(NoUniqueEquilibriumError):
            analyze(to_affine(spec))

    def test_cholesky_failure_is_no_equilibrium(self, monkeypatch):
        from cournotgraph import NetworkSpec

        def fails(matrix):
            raise np.linalg.LinAlgError("not positive definite")
        monkeypatch.setattr(np.linalg, "cholesky", fails)
        # n = 3 <= k = 4 factors S; a complete 2 x 3 network, n = 6 > k = 5,
        # factors the capacitance matrix.
        with pytest.raises(NoUniqueEquilibriumError,
                           match="^no unique equilibrium: the matrix S is not "
                                 "positive definite$"):
            equilibrium(to_affine(two_firms_two_markets(1, 1, 0.2, 0.3, 0.1, 0.4)))
        complete = NetworkSpec(2, 3, tuple((i, j) for i in (1, 2) for j in (1, 2, 3)),
                               (1.0, 1.0), (0.2, 0.3), (0.1, 0.4, 0.5))
        with pytest.raises(NoUniqueEquilibriumError,
                           match="^no unique equilibrium: the capacitance "
                                 "matrix is not positive definite$"):
            equilibrium(to_affine(complete))
