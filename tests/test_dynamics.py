from __future__ import annotations

import math
import re

import numpy as np
import pytest

from cournotgraph import (CanonicalParams, IntegrationBlowUp, Outcome,
                          Trajectory, canonical_affine, classify, equilibrium,
                          integrate, step_euler, step_rk4, to_affine)
from cournotgraph.dynamics import (_BLOCK_ROWS, _BLOCK_VALUES, MAX_MARCHED_VALUES,
                                   MAX_STORED_VALUES, _affine_pays,
                                   _block_length)
from helpers import dense_field, euler_exact, network_spec_of_shape

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

    def test_marched_values_bounded_before_allocating(self, monkeypatch):
        # Thinning lifts the stored-values limit off long runs; the work
        # of marching is bounded on its own, before anything is built.
        def unreachable(*args, **kwargs):
            raise AssertionError("np.empty reached")
        monkeypatch.setattr(np, "empty", unreachable)
        limit = f"limit of {MAX_MARCHED_VALUES} marched values"
        with pytest.raises(ValueError, match=limit):
            integrate(decay, np.zeros(60_000), 20.0, 0.001, thin=10 ** 6)
        with pytest.raises(ValueError, match=limit):
            integrate(decay, np.zeros(3), 1e9, 1.0, thin=10 ** 9)
        # 10^4 steps of 60 000 variables kept every 1000th pass both.
        with pytest.raises(AssertionError, match="np.empty reached"):
            integrate(decay, np.zeros(60_000), 10.0, 0.001, thin=1000)

    @pytest.mark.parametrize("q0", [[1e10, 0.0, 0.0], [-1.5e9], [np.nan, 0.0],
                                    [0.0, np.inf], [-np.inf]])
    def test_q0_the_blowup_check_rejects_is_refused_before_allocating(
            self, monkeypatch, q0):
        # A run from such a q0 would report q0 itself as the last finite
        # state of a blow-up, even where the state then shrinks.
        def unreachable(*args, **kwargs):
            raise AssertionError("np.empty reached")
        monkeypatch.setattr(np, "empty", unreachable)
        peak = float(np.max(np.abs(q0)))
        with pytest.raises(ValueError, match=re.escape(
                f"q0 must be finite with max |q| at most 1000000000.0, "
                f"got {peak!r}")):
            integrate(decay, np.array(q0), 1.0, 0.1)

    @pytest.mark.parametrize("q0", [[], [[1.0, 2.0]], 1.0, np.zeros((2, 0))],
                             ids=["empty", "row", "scalar", "no_columns"])
    def test_q0_that_is_not_a_vector_is_refused_before_allocating(
            self, monkeypatch, q0):
        def unreachable(*args, **kwargs):
            raise AssertionError("np.empty reached")
        monkeypatch.setattr(np, "empty", unreachable)
        with pytest.raises(ValueError, match=re.escape(
                f"q0 must be a vector of at least one value, got shape "
                f"{np.shape(q0)}")):
            integrate(lambda q: -q, q0, 1.0, 0.1)

    def test_q0_at_the_state_limit_is_marched(self):
        got = integrate(decay, np.array([1e9, -1e9]), 1.0, 0.1)
        assert np.all(np.abs(got.states[1:]) < 1e9)

    def test_blowup_steps_at_most_one_block_past_the_first_bad_state(self):
        # Doubling per euler step passes STATE_LIMIT at step 30; the run
        # is checked a block of at most 256 steps at a time.
        calls = []

        def double(q):
            calls.append(1)
            return q
        with pytest.raises(IntegrationBlowUp) as info:
            integrate(double, np.array([1.0]), 1e5, 1.0, "euler")
        assert 30 <= len(calls) <= 30 + 256
        assert info.value.time == 30.0
        assert info.value.trajectory.states[:, 0].tolist() == \
            [2.0 ** k for k in range(30)]
        assert str(info.value) == ("state blew up at t=30.0 (max |q| = "
                                   "1073741824.0); last finite state "
                                   "[536870912.0]")

    def test_field_raising_past_the_first_bad_state_still_blows_up(self):
        def fragile(q):
            if not abs(q[0]) < 1e10:
                raise OverflowError("field undefined here")
            return q
        with pytest.raises(IntegrationBlowUp) as info:
            integrate(fragile, np.array([1.0]), 1e5, 1.0, "euler")
        assert info.value.time == 30.0
        # Before the first bad state the field's own error stands: here
        # the field is undefined at q0 itself.
        with pytest.raises(OverflowError, match="field undefined"):
            integrate(lambda q: fragile(1e3 * q), np.array([2e7]), 10.0, 1.0,
                      "euler")

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
        # The affine route, which simulate takes; the field route's order
        # of accuracy is acceptance criterion 7's.
        sys = canonical_affine(STABLE)
        end_euler = integrate(sys, Q0, 30.0, 1e-4, "euler").states[-1]
        end_rk4 = integrate(sys, Q0, 30.0, 1e-4, "rk4").states[-1]
        assert float(np.linalg.norm(end_euler - end_rk4)) < 1e-6

    def test_trajectory_copies_a_writeable_array_and_keeps_a_frozen_one(self):
        table = np.array([[0.0, 0.0], [1.0, 0.0]])
        traj = Trajectory(table, "rk4", 1.0)
        table[1, 0] = 2.0
        table[0, 1] = 1.0
        assert traj.times.tolist() == [0.0, 1.0]
        assert traj.states.tolist() == [[0.0], [0.0]]
        for values in (traj.table, traj.times, traj.states):
            assert not values.flags.writeable
        assert Trajectory(traj.table, "rk4", 1.0).table is traj.table

    def test_trajectory_columns_are_views_of_its_table(self):
        traj = integrate(decay, Q0, 1.0, 0.1, thin=3)
        assert traj.table.shape == (5, 1 + len(Q0))
        assert np.shares_memory(traj.times, traj.table)
        assert np.shares_memory(traj.states, traj.table)
        assert traj.times.tolist() == [0.1 * k for k in (0, 3, 6, 9)] + [1.0]

    @pytest.mark.parametrize("table", [
        np.zeros((0, 2)), np.zeros((2, 1)), np.zeros(3), np.zeros((1, 2, 2))],
        ids=["no_rows", "no_state_column", "one_axis", "three_axes"])
    def test_trajectory_refuses_a_table_without_rows(self, table):
        with pytest.raises(ValueError, match=re.escape(
                "table must have rows (t, q1, ...), at least one, got shape "
                f"{table.shape}")):
            Trajectory(table, "rk4", 1.0)

    def test_integrate_hands_its_states_over_uncopied(self, monkeypatch):
        from cournotgraph import dynamics
        handed = []

        class Recording(Trajectory):
            def __post_init__(self):
                handed.append(self.table)
                super().__post_init__()
        monkeypatch.setattr(dynamics, "Trajectory", Recording)
        for system in (canonical_affine(STABLE), decay):
            traj = integrate(system, Q0, 1.0, 0.1)
            given = handed.pop()
            assert given is traj.table
            assert np.shares_memory(given, traj.states)
            assert not traj.table.flags.writeable


class TestThinning:
    """``integrate(..., thin=k)`` keeps rows 0, k, 2k, ... and the last
    row of the same run at thin = 1, bit for bit, on both routes and
    with both methods; so does the partial trajectory of a blow-up,
    which ends at the last finite state."""

    THINS = (1, 7, 10)

    @staticmethod
    def _kept(count: int, thin: int) -> list[int]:
        return sorted(set(range(0, count, thin)) | {count - 1})

    @staticmethod
    def _system(route: str, method: str):
        rng = np.random.default_rng(11)
        if route == "block":
            system, q0 = canonical_affine(STABLE), Q0
        else:
            system = to_affine(network_spec_of_shape(rng, 20, 26))
            q0 = rng.uniform(0.0, 0.2, system.dimension)
        assert _affine_pays(system, method) == (route == "block")
        return system, q0

    @pytest.mark.parametrize("method", ["rk4", "euler"])
    @pytest.mark.parametrize("route", ["block", "field"])
    def test_thinned_rows_are_the_rows_of_the_full_run(self, route, method):
        system, q0 = self._system(route, method)
        dt = 0.01
        # 600 steps span several checking blocks on both routes; the
        # second run shortens its last step to land on t_end.
        for t_end in (600 * dt, 600.5 * dt):
            full = integrate(system, q0, t_end, dt, method)
            count = len(full.times)
            for thin in self.THINS + (count - 1, count + 5, 10 ** 400):
                got = integrate(system, q0, t_end, dt, method, thin)
                index = self._kept(count, thin)
                assert np.array_equal(got.times, full.times[index]), thin
                assert np.array_equal(got.states, full.states[index]), thin
                assert got.method == method and got.step == dt

    @pytest.mark.parametrize("method", ["rk4", "euler"])
    @pytest.mark.parametrize("route", ["block", "field"])
    def test_blowup_keeps_thinned_rows_and_the_last_finite_state(self, route,
                                                                 method):
        # A slowly unstable A: the run blows up at step 533 (rk4) or 542
        # (euler), past two checking blocks of 256 steps.
        from cournotgraph import AffineSystem
        rng = np.random.default_rng(3)
        system = AffineSystem(
            constant=np.ones(3),
            matrix=-0.05 * np.eye(3) + 0.02 * rng.uniform(-1.0, 1.0, (3, 3)))
        if route == "field":
            system = system.field_at
        with pytest.raises(IntegrationBlowUp) as info:
            integrate(system, Q0, 1000.0, 0.5, method)
        full = info.value
        count = len(full.trajectory.times)
        assert count > 2 * _BLOCK_ROWS
        off_grid = 0
        for thin in self.THINS + (count + 5,):
            with pytest.raises(IntegrationBlowUp) as info:
                integrate(system, Q0, 1000.0, 0.5, method, thin)
            got = info.value
            index = self._kept(count, thin)
            assert str(got) == str(full) and got.time == full.time
            assert np.array_equal(got.trajectory.times,
                                  full.trajectory.times[index])
            assert np.array_equal(got.trajectory.states,
                                  full.trajectory.states[index])
            off_grid += (count - 1) % thin != 0
        assert off_grid >= 2  # the last finite state is off the thin grid


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
        traj = Trajectory(np.array([[0.0, 1.0, 2.0]]), method="rk4", step=1.0)
        verdict = classify(traj, lambda q: np.zeros(2), q_star, tol=1e-12)
        assert verdict.outcome is Outcome.CONVERGED

    def test_blew_up_flag_forces_diverged(self):
        traj = Trajectory(np.array([[0.0, 1.0]]), method="rk4", step=1.0)
        verdict = classify(traj, lambda q: np.zeros(1), np.array([1.0]),
                           tol=1e-12, blew_up=True)
        assert verdict.outcome is Outcome.DIVERGED

    def test_negative_excursion_flag(self):
        states = np.array([[0.5], [0.2], [-0.1], [0.05]])
        traj = Trajectory(np.column_stack((np.arange(4.0), states)),
                          method="euler", step=1.0)
        verdict = classify(traj, lambda q: np.zeros(1), np.array([0.0]),
                           tol=1e-12, blew_up=False)
        assert verdict.negative_excursion
        assert verdict.max_abs_state == 0.5


def _routes(system, q0, t_end, dt, method):
    """(affine route, field route) runs of the same system; the field
    route steps c - A q on the same dense matrix (``dense_field``)."""
    return (integrate(system, q0, t_end, dt, method),
            integrate(dense_field(system), q0, t_end, dt, method))


def _record_routes(monkeypatch) -> list[str]:
    """Patch ``AffineSystem.field_at`` and ``EdgeIncidence.dense`` to
    append their names, in call order, to the list returned."""
    from cournotgraph import AffineSystem
    from cournotgraph.network import EdgeIncidence
    calls = []
    for owner, name in ((AffineSystem, "field_at"), (EdgeIncidence, "dense")):
        original = getattr(owner, name)

        def counted(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)
        monkeypatch.setattr(owner, name, counted)
    return calls


def _gap(got: np.ndarray, want: np.ndarray) -> float:
    """Largest state difference, relative to max(1, |q|) per row of want."""
    scale = np.maximum(1.0, np.max(np.abs(want), axis=1))
    return float(np.max(np.max(np.abs(got - want), axis=1) / scale))


# Fixed before the affine route was written: its rk4 steps round
# differently from the four field evaluations, at about 1e-14, and so,
# since it propagates blocks of states, do its euler steps.
RK4_TOLERANCE = 1e-12


class TestAffineRoute:
    CASES = ((STABLE, Q0, 200.0, 0.01), (UNSTABLE, Q0, 200.0, 0.01),
             (STABLE, Q0, 13.37, 0.05), (UNSTABLE, Q0, 20.0, 0.03))

    def _systems(self):
        from helpers import random_network_spec
        for r, q0, t_end, dt in self.CASES:
            yield canonical_affine(r), q0, t_end, dt
        rng = np.random.default_rng(6)
        spec = random_network_spec(rng, max_markets=3, max_firms=4)
        system = to_affine(spec)
        yield system, rng.uniform(0.0, 0.5, system.dimension), 30.0, 0.01
        yield system, np.zeros(system.dimension), 2.5, 0.07

    def test_euler_within_tolerance_of_field_route(self):
        for system, q0, t_end, dt in self._systems():
            affine, generic = _routes(system, q0, t_end, dt, "euler")
            assert np.array_equal(affine.times, generic.times)
            assert _gap(affine.states, generic.states) <= RK4_TOLERANCE

    def test_rk4_within_tolerance_of_field_route(self):
        for system, q0, t_end, dt in self._systems():
            affine, generic = _routes(system, q0, t_end, dt, "rk4")
            assert np.array_equal(affine.times, generic.times)
            assert affine.times[-1] == t_end
            assert _gap(affine.states, generic.states) <= RK4_TOLERANCE

    def test_euler_routes_within_1e14_of_the_exact_recurrence(self):
        # 556 steps: past the block edges at 256 and 512 states, then a
        # shortened last step of 0.005.
        for r in (STABLE, UNSTABLE):
            system = canonical_affine(r)
            exact = euler_exact(system, Q0, 5.555, 0.01)
            assert len(exact) == 557
            for route in (system, system.field_at):
                got = integrate(route, Q0, 5.555, 0.01, "euler")
                assert _gap(got.states, exact) <= 1e-14

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
        assert _gap(affine.trajectory.states,
                    generic.trajectory.states) <= RK4_TOLERANCE
        affine, generic = caught["euler"]
        assert affine.time == generic.time == 1828.0
        assert str(affine).startswith("state blew up at t=1828.0 (max |q| = ")
        assert len(affine.trajectory.states) == len(generic.trajectory.states)
        assert np.array_equal(affine.trajectory.times, generic.trajectory.times)
        assert _gap(affine.trajectory.states,
                    generic.trajectory.states) <= RK4_TOLERANCE

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

    def test_unstable_equilibrium_is_not_a_blowup(self):
        # Psi_j overflows within a few steps of A = -999 I; a state held
        # at the equilibrium must not meet it as inf * 0 = NaN.
        from cournotgraph import AffineSystem
        system = AffineSystem(constant=np.zeros(2), matrix=-999.0 * np.eye(2))
        for method in ("rk4", "euler"):
            traj = integrate(system, np.zeros(2), 500.0, 1.0, method)
            assert len(traj.states) == 501
            assert not np.any(traj.states)

    def test_singular_matrix_still_simulates(self):
        from cournotgraph import AffineSystem
        system = AffineSystem(constant=np.array([1.0, -2.0]),
                              matrix=np.zeros((2, 2)))
        traj = integrate(system, np.zeros(2), 10.0, 0.01)
        assert np.allclose(traj.states[-1], [10.0, -20.0], rtol=1e-12)

    def test_route_follows_size_rule(self, monkeypatch):
        # The route depends on n and the method, never on the run length.
        from cournotgraph import AffineSystem
        calls = []
        field_at = AffineSystem.field_at

        def counted(self, q):
            calls.append(1)
            return field_at(self, q)
        monkeypatch.setattr(AffineSystem, "field_at", counted)
        system = AffineSystem(constant=np.ones(30), matrix=np.eye(30))
        for t_end in (2.0, 1.2, 0.01):                   # 200, 120, 1 steps
            for method in ("rk4", "euler"):
                integrate(system, np.zeros(30), t_end, 0.01, method)
        assert calls == []                               # all on Phi_h
        # Past n = 181 a block is one step, and only euler steps the field.
        for n, method, evaluations in ((181, "euler", 0), (182, "euler", 1),
                                       (182, "rk4", 0)):
            system = AffineSystem(constant=np.ones(n), matrix=np.eye(n))
            for steps in (1, 120):
                del calls[:]
                integrate(system, np.zeros(n), steps * 0.01, 0.01, method)
                assert len(calls) == evaluations * steps

    def test_networks_past_300_edges_step_the_matrix_free_field(self,
                                                                monkeypatch):
        calls = _record_routes(monkeypatch)
        rng = np.random.default_rng(8)
        small = to_affine(network_spec_of_shape(rng, 3, 4))
        assert small.dimension <= 300
        integrate(small, np.zeros(small.dimension), 2.0, 0.01)
        integrate(small, np.zeros(small.dimension), 2.0, 0.01, "euler")
        assert calls == ["dense"]  # Phi_h, on the matrix filled once
        large = to_affine(network_spec_of_shape(rng, 20, 30))
        assert large.dimension > 300
        for method, evaluations in (("rk4", 4), ("euler", 1)):
            del calls[:]
            integrate(large, np.zeros(large.dimension), 20.0, 0.01, method)
            assert calls == ["field_at"] * (evaluations * 2000)
        assert "matrix" not in vars(large)

    def test_euler_past_181_edges_steps_the_field(self, monkeypatch):
        # Past n = 181 a block is one step, and euler's two matrix-vector
        # products cost more than one evaluation of the field.
        calls = _record_routes(monkeypatch)
        rng = np.random.default_rng(15)
        system = to_affine(network_spec_of_shape(rng, 16, 27))
        assert system.dimension == 262
        assert _block_length(262) == 1 < _block_length(181)
        q0 = rng.uniform(0.0, 0.5, system.dimension)
        got = integrate(system, q0, 0.105, 0.01, "euler")
        assert calls == ["field_at"] * 11
        assert "matrix" not in vars(system)
        del calls[:]
        integrate(system, q0, 20.0, 0.01)  # rk4 still takes Phi_h
        assert calls == ["dense"]
        assert _gap(got.states, euler_exact(system, q0, 0.105, 0.01)) <= 1e-14


class TestMatrixFreeRoute:
    """Networks past 300 edges step their matrix-free field; the dense
    field c - A q is the oracle."""

    def test_trajectory_within_1e12_of_dense_field_route(self):
        rng = np.random.default_rng(31)
        spec = network_spec_of_shape(rng, 25, 35)
        system = to_affine(spec)
        assert system.dimension >= 500
        q0 = rng.uniform(0.0, 0.2, system.dimension)
        for method, t_end, dt in (("rk4", 3.0, 0.01), ("euler", 1.0, 0.002),
                                  ("rk4", 1.234, 0.02)):
            got = integrate(system, q0, t_end, dt, method)
            want = integrate(dense_field(system), q0, t_end, dt, method)
            assert np.array_equal(got.times, want.times)
            assert _gap(got.states, want.states) <= 1e-12


class TestBlockEdges:
    """The affine route propagates m = min(256, 2^16 // n^2) states per
    stacked product. Runs ending just before, at and past a block edge,
    and runs with a shortened last step, match the dense field route."""

    @staticmethod
    def _system(n: int, seed: int):
        from cournotgraph import AffineSystem
        rng = np.random.default_rng(seed)
        matrix = np.eye(n) + rng.uniform(-1.0, 1.0, (n, n)) / n
        return (AffineSystem(constant=rng.uniform(0.5, 1.5, n), matrix=matrix),
                rng.uniform(0.0, 1.0, n))

    @pytest.mark.parametrize("n, m, method, counts", [
        (3, 256, "euler", (1, 255, 256, 257, 513)),
        (3, 256, "rk4", (255, 256, 257, 513)),
        (100, 6, "euler", (1, 5, 6, 7, 13, 513)),
        (260, 1, "rk4", (1041,)),
    ])
    def test_runs_around_block_edges_match_the_field_route(self, n, m,
                                                           method, counts):
        assert min(_BLOCK_ROWS, max(1, _BLOCK_VALUES // (n * n))) == m
        system, q0 = self._system(n, seed=n)
        dt = 0.01
        for count in counts:
            for t_end in (count * dt, (count + 0.5) * dt):
                affine, generic = _routes(system, q0, t_end, dt, method)
                assert len(affine.times) == count + 1 + (t_end != count * dt)
                assert np.array_equal(affine.times, generic.times)
                assert _gap(affine.states, generic.states) <= RK4_TOLERANCE


class TestPrefix:
    """A shorter run's states are byte for byte the leading states of a
    longer run with the same dt, on every route: the route and the Psi
    table depend on the system and the method, never on the run length."""

    # Past 2m + 1 and 4n steps for every system here, so a route that
    # switched with the run length would show.
    LONG = 1300

    @staticmethod
    def _system(kind: str, size, seed: int):
        from pathlib import Path
        from cournotgraph import AffineSystem, NetworkScenario, parse_scenario
        rng = np.random.default_rng(seed)
        if kind == "scenario":
            path = (Path(__file__).resolve().parent.parent / "scenarios"
                    / f"{size}.scenario")
            scenario = parse_scenario(path.read_text(encoding="utf-8"))
            system = (to_affine(scenario.spec)
                      if isinstance(scenario, NetworkScenario)
                      else canonical_affine(scenario.r))
            return system, np.asarray(scenario.q0, dtype=float)
        if kind == "network":
            system = to_affine(network_spec_of_shape(rng, *size))
        else:
            system = AffineSystem(
                constant=rng.uniform(0.5, 1.5, size),
                matrix=np.eye(size) + rng.uniform(-1.0, 1.0, (size, size)) / size)
        return system, rng.uniform(0.0, 0.5, system.dimension)

    @pytest.mark.parametrize("method", ["rk4", "euler"])
    @pytest.mark.parametrize("kind, size, seed, lo, hi", [
        ("scenario", "canonical_stable", 0, 3, 3),
        ("scenario", "canonical_unstable", 0, 3, 3),
        ("scenario", "two_firm_network", 0, 3, 3),
        ("network", (4, 6), 1, 2, 181),
        ("network", (10, 15), 2, 2, 181),
        ("network", (18, 22), 3, 182, 300),
        ("network", (20, 26), 2, 301, 520),
        ("dense", 7, 5, 7, 7),
        ("dense", 60, 6, 60, 60),
        ("dense", 320, 7, 320, 320),
    ])
    def test_shorter_run_is_a_byte_prefix(self, kind, size, seed, lo, hi,
                                          method):
        system, q0 = self._system(kind, size, seed)
        n, dt = system.dimension, 0.01
        assert lo <= n <= hi
        m = _block_length(n)
        long = integrate(system, q0, self.LONG * dt, dt, method).states
        for count in sorted({1, 10, m - 1, m, m + 1, 2 * m + 1} - {0}):
            got = integrate(system, q0, count * dt, dt, method).states
            assert len(got) == count + 1
            assert np.array_equal(got, long[:count + 1]), count
        # A shortened last step lands on t_end; the whole steps before it
        # are the longer run's.
        got = integrate(system, q0, (m + 1.5) * dt, dt, method).states
        assert len(got) == m + 3
        assert np.array_equal(got[:m + 2], long[:m + 2])
