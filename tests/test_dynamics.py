from __future__ import annotations

import math

import numpy as np
import pytest

from cournotgraph import (CanonicalParams, IntegrationBlowUp, Outcome,
                          Trajectory, canonical_affine, classify, equilibrium,
                          integrate, step_euler, step_rk4)
from cournotgraph.dynamics import MAX_STORED_VALUES

STABLE = CanonicalParams(0.2, 0.5, 1.5, -0.3, 0.4)
UNSTABLE = CanonicalParams(0.01, 0.1, 1.1, -0.3, 0.4)
Q0 = np.array([0.1, 0.2, 0.3])


def decay(q):
    return -q


class TestSteps:
    def test_rk4_matches_truncated_exponential(self):
        # One linear-decay step has the closed form 1 - h + h^2/2 - h^3/6 + h^4/24.
        h = 0.1
        expected = 1.0 - h + h**2 / 2 - h**3 / 6 + h**4 / 24
        got = step_rk4(decay, np.array([1.0]), h)
        assert got[0] == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.9048375)

    def test_zero_field_is_identity(self):
        q = np.array([1.5, -2.0])
        assert np.array_equal(step_rk4(lambda _: np.zeros(2), q, 0.3), q)
        assert np.array_equal(step_euler(lambda _: np.zeros(2), q, 0.3), q)

    def test_constant_field_is_exact(self):
        k = np.array([2.0, -1.0])
        q = np.array([0.5, 0.5])
        assert np.allclose(step_rk4(lambda _: k, q, 0.25), q + 0.25 * k,
                           rtol=1e-15)


class TestIntegrate:
    def test_exponential_endpoint(self):
        traj = integrate(decay, np.array([1.0]), 1.0, 0.001)
        assert abs(traj.states[-1][0] - math.exp(-1.0)) < 1e-9

    def test_t_end_equal_dt_gives_two_states(self):
        traj = integrate(decay, np.array([1.0]), 0.1, 0.1)
        assert len(traj.times) == 2
        assert traj.times[0] == 0.0 and traj.times[-1] == 0.1

    def test_initial_state_recorded_exactly(self):
        q0 = np.array([0.123456789, -0.5])
        traj = integrate(decay, q0, 1.0, 0.1)
        assert np.array_equal(traj.states[0], q0)

    def test_times_are_uniform_with_short_last_step(self):
        traj = integrate(decay, np.array([1.0]), 0.25, 0.1)
        assert np.allclose(traj.times, [0.0, 0.1, 0.2, 0.25])
        steps = np.diff(traj.times)
        assert np.allclose(steps[:-1], 0.1)
        assert steps[-1] == pytest.approx(0.05)

    def test_inexact_division_still_lands_on_t_end(self):
        traj = integrate(decay, np.array([1.0]), 0.3, 0.1)
        assert len(traj.times) == 4
        assert traj.times[-1] == 0.3

    def test_determinism(self):
        sys = canonical_affine(STABLE)
        a = integrate(sys.field_at, Q0, 50.0, 0.01)
        b = integrate(sys.field_at, Q0, 50.0, 0.01)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.times, b.times)

    def test_bad_arguments(self):
        with pytest.raises(ValueError, match="dt must be positive"):
            integrate(decay, np.array([1.0]), 1.0, 0.0)
        with pytest.raises(ValueError, match="exceed t_end"):
            integrate(decay, np.array([1.0]), 0.1, 0.2)
        with pytest.raises(ValueError, match="unknown method"):
            integrate(decay, np.array([1.0]), 1.0, 0.1, method="rk5")

    def test_blowup_carries_finite_prefix(self):
        grow = lambda q: q * q
        with pytest.raises(IntegrationBlowUp) as info:
            integrate(grow, np.array([2.0]), 10.0, 1.0)
        partial = info.value.trajectory
        assert len(partial.times) >= 1
        assert np.all(np.isfinite(partial.states))
        assert info.value.time > 0.0
        assert str(info.value).startswith(
            f"state blew up at t={info.value.time!r} (max |q| = ")

    def test_stored_values_bounded_before_allocating(self, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("np.empty reached")
        monkeypatch.setattr(np, "empty", unreachable)
        limit = f"limit of {MAX_STORED_VALUES} stored values"
        with pytest.raises(ValueError, match=limit):
            integrate(decay, np.zeros(3), 1e6, 1e-6)
        with pytest.raises(ValueError, match=limit):   # t_end / dt overflows
            integrate(decay, np.zeros(1), 1e10, 1e-300)
        # 960 variables x 201 rows and 3 x 100 001 stay below the limit.
        with pytest.raises(AssertionError, match="np.empty reached"):
            integrate(decay, np.zeros(960), 2.0, 0.01)
        with pytest.raises(AssertionError, match="np.empty reached"):
            integrate(decay, np.zeros(3), 1000.0, 0.01)

    def test_nan_field_detected(self):
        bad = lambda q: np.array([float("nan")])
        with pytest.raises(IntegrationBlowUp):
            integrate(bad, np.array([1.0]), 1.0, 0.1)

    def test_rk4_fourth_order(self):
        sys = canonical_affine(STABLE)
        reference = integrate(sys.field_at, Q0, 5.0, 1e-3).states[-1]
        errors = {dt: float(np.linalg.norm(
            integrate(sys.field_at, Q0, 5.0, dt).states[-1] - reference))
            for dt in (0.08, 0.04, 0.02)}
        assert 12.0 < errors[0.08] / errors[0.04] < 20.0
        assert 12.0 < errors[0.04] / errors[0.02] < 20.0

    def test_euler_and_rk4_agree_at_small_dt(self):
        sys = canonical_affine(STABLE)
        end_euler = integrate(sys.field_at, Q0, 30.0, 1e-4, "euler").states[-1]
        end_rk4 = integrate(sys.field_at, Q0, 30.0, 1e-4, "rk4").states[-1]
        assert float(np.linalg.norm(end_euler - end_rk4)) < 1e-6


class TestClassify:
    def test_stable_run_converges(self):
        sys = canonical_affine(STABLE)
        q_star = equilibrium(sys)
        traj = integrate(sys.field_at, Q0, 200.0, 0.01)
        verdict = classify(traj, sys.field_at, q_star, tol=1e-8)
        assert verdict.outcome is Outcome.CONVERGED
        assert np.allclose(verdict.limit, q_star, atol=1e-6)
        assert verdict.final_field_norm < 1e-8

    def test_unstable_run_diverges(self):
        sys = canonical_affine(UNSTABLE)
        q_star = equilibrium(sys)
        traj = integrate(sys.field_at, Q0, 20000.0, 1.0)
        verdict = classify(traj, sys.field_at, q_star, tol=1e-8)
        assert verdict.outcome is Outcome.DIVERGED

    def test_short_run_is_undecided(self):
        sys = canonical_affine(STABLE)
        q_star = equilibrium(sys)
        traj = integrate(sys.field_at, Q0, 1.0, 0.01)
        verdict = classify(traj, sys.field_at, q_star, tol=1e-8)
        assert verdict.outcome is Outcome.UNDECIDED

    def test_single_state_at_equilibrium_converges(self):
        q_star = np.array([1.0, 2.0])
        traj = Trajectory(times=np.array([0.0]), states=np.array([[1.0, 2.0]]),
                          method="rk4", step=1.0)
        verdict = classify(traj, lambda q: np.zeros(2), q_star, tol=1e-12)
        assert verdict.outcome is Outcome.CONVERGED

    def test_blew_up_flag_forces_diverged(self):
        traj = Trajectory(times=np.array([0.0]), states=np.array([[1.0]]),
                          method="rk4", step=1.0)
        verdict = classify(traj, lambda q: np.zeros(1), np.array([1.0]),
                           tol=1e-12, blew_up=True)
        assert verdict.outcome is Outcome.DIVERGED

    def test_negative_excursion_flag(self):
        states = np.array([[0.5], [0.2], [-0.1], [0.05]])
        traj = Trajectory(times=np.array([0.0, 1.0, 2.0, 3.0]), states=states,
                          method="euler", step=1.0)
        verdict = classify(traj, lambda q: np.zeros(1), np.array([0.0]),
                           tol=1e-12, blew_up=False)
        assert verdict.negative_excursion
        assert verdict.max_abs_state == 0.5


def _routes(system, q0, t_end, dt, method):
    """(affine route, field route) runs of the same system."""
    return (integrate(system, q0, t_end, dt, method),
            integrate(system.field_at, q0, t_end, dt, method))


def _rk4_gap(affine, generic) -> float:
    """Largest state difference, relative to max(1, |q|) per row."""
    scale = np.maximum(1.0, np.max(np.abs(generic.states), axis=1))
    return float(np.max(np.max(np.abs(affine.states - generic.states), axis=1)
                        / scale))


# Fixed before the affine route was written: its rk4 steps round
# differently from the four field evaluations, at about 1e-14.
RK4_TOLERANCE = 1e-12


class TestAffineRoute:
    CASES = ((STABLE, Q0, 200.0, 0.01), (UNSTABLE, Q0, 200.0, 0.01),
             (STABLE, Q0, 13.37, 0.05), (UNSTABLE, Q0, 20.0, 0.03))

    def _systems(self):
        from cournotgraph import to_affine
        from helpers import random_network_spec
        for r, q0, t_end, dt in self.CASES:
            yield canonical_affine(r), q0, t_end, dt
        rng = np.random.default_rng(6)
        spec = random_network_spec(rng, max_markets=3, max_firms=4)
        system = to_affine(spec)
        yield system, rng.uniform(0.0, 0.5, system.dimension), 30.0, 0.01
        yield system, np.zeros(system.dimension), 2.5, 0.07

    def test_euler_bytes_equal_field_route(self):
        for system, q0, t_end, dt in self._systems():
            affine, generic = _routes(system, q0, t_end, dt, "euler")
            assert np.array_equal(affine.times, generic.times)
            assert affine.states.tobytes() == generic.states.tobytes()

    def test_rk4_within_tolerance_of_field_route(self):
        for system, q0, t_end, dt in self._systems():
            affine, generic = _routes(system, q0, t_end, dt, "rk4")
            assert np.array_equal(affine.times, generic.times)
            assert affine.times[-1] == t_end
            assert _rk4_gap(affine, generic) <= RK4_TOLERANCE

    def test_blowup_matches_field_route(self):
        caught = {}
        for r, t_end, dt, method in ((STABLE, 40.0, 3.0, "rk4"),
                                     (UNSTABLE, 20000.0, 1.0, "euler")):
            system = canonical_affine(r)
            for route in (system, system.field_at):
                with pytest.raises(IntegrationBlowUp) as info:
                    integrate(route, Q0, t_end, dt, method)
                caught.setdefault(method, []).append(info.value)
        affine, generic = caught["rk4"]
        assert affine.time == generic.time == 27.0
        assert str(affine).startswith("state blew up at t=27.0 (max |q| = ")
        assert np.array_equal(affine.trajectory.times, generic.trajectory.times)
        assert np.all(np.isfinite(affine.trajectory.states))
        assert _rk4_gap(affine.trajectory, generic.trajectory) <= RK4_TOLERANCE
        affine, generic = caught["euler"]
        assert str(affine) == str(generic)
        assert affine.trajectory.states.tobytes() == \
            generic.trajectory.states.tobytes()

    def test_blowup_inside_a_block_stops_at_first_bad_state(self):
        # Growth by 1e3 per step: past STATE_LIMIT at step 4, then
        # overflow to inf and NaN before the block ends. No warning may
        # leak, and the first bad state is the one reported.
        from cournotgraph import AffineSystem
        system = AffineSystem(constant=np.zeros(2), matrix=-999.0 * np.eye(2))
        with pytest.raises(IntegrationBlowUp) as info:
            integrate(system, np.ones(2), 500.0, 1.0, "euler")
        assert info.value.time == 4.0
        assert info.value.trajectory.states[-1].tolist() == [1e9, 1e9]
        assert "max |q| = 1000000000000.0" in str(info.value)

    def test_singular_matrix_still_simulates(self):
        from cournotgraph import AffineSystem
        system = AffineSystem(constant=np.array([1.0, -2.0]),
                              matrix=np.zeros((2, 2)))
        traj = integrate(system, np.zeros(2), 10.0, 0.01)
        assert np.allclose(traj.states[-1], [10.0, -20.0], rtol=1e-12)

    def test_route_follows_size_rule(self, monkeypatch):
        from cournotgraph import AffineSystem
        calls = []
        field_at = AffineSystem.field_at

        def counted(self, q):
            calls.append(1)
            return field_at(self, q)
        monkeypatch.setattr(AffineSystem, "field_at", counted)
        system = AffineSystem(constant=np.ones(30), matrix=np.eye(30))
        integrate(system, np.zeros(30), 2.0, 0.01)       # 200 > 4 * 30 steps
        assert calls == []
        integrate(system, np.zeros(30), 1.2, 0.01)       # 120 steps: field route
        assert len(calls) == 4 * 120
        del calls[:]
        integrate(system, np.zeros(30), 1.2, 0.01, "euler")  # nothing to form
        assert calls == []
