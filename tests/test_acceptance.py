"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

Tolerances and runtime budgets are pinned in the assertions themselves.
Timing covers the operations, not interpreter or library start-up; a
module fixture warms the linear-algebra routines first.
"""

from __future__ import annotations

import itertools
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from cournotgraph import (CanonicalParams, Outcome, PayoffMatrix, Stability,
                          all_cooperate, all_defect, analyze,
                          apply_side_payment, canonical_affine,
                          canonical_edge_order, char_poly, classify,
                          closed_form_coeffs, complete_graph,
                          dominant_strategy, eigen_margin, equilibrium,
                          imitation_step, integrate, marginal_profit,
                          min_side_payment, payoffs, PopulationState,
                          profit, random_population, routh_hurwitz_cubic,
                          run_spatial, symmetric_conditions,
                          symmetric_equilibrium, torus_graph)
from cournotgraph.pdgame import C, D
from helpers import central_difference, random_canonical, random_network_spec

STABLE = CanonicalParams(0.2, 0.5, 1.5, -0.3, 0.4)
UNSTABLE = CanonicalParams(0.01, 0.1, 1.1, -0.3, 0.4)
REFERENCE_EQUILIBRIUM = (1.13636, 0.454545, 0.772727)  # (q11, q22, q21)
Q0 = np.array([0.1, 0.2, 0.3])

REPO = Path(__file__).resolve().parent.parent
SCENARIOS = REPO / "scenarios"


@pytest.fixture(scope="module", autouse=True)
def warm_linear_algebra():
    a = np.eye(3)
    np.linalg.solve(a, np.ones(3))
    np.linalg.eigvals(a)
    np.linalg.cond(a)
    integrate(lambda q: -q, np.ones(1), 0.01, 0.01)


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except Exception:
        print(f"\ncriterion {number:2d} [{title}]: FAIL")
        raise
    print(f"\ncriterion {number:2d} [{title}]: PASS")


def test_criterion_01_reference_equilibrium_and_verdict():
    with criterion(1, "stable equilibrium reproduced, verdict STABLE, <0.1s"):
        start = time.perf_counter()
        system = canonical_affine(STABLE)
        q = equilibrium(system)
        report = analyze(system, STABLE)
        elapsed = time.perf_counter() - start
        assert np.all(np.abs(q - REFERENCE_EQUILIBRIUM) < 1e-5)
        assert report.verdict is Stability.STABLE
        assert elapsed < 0.1


def test_criterion_02_stable_trajectory_reaches_equilibrium():
    with criterion(2, "trajectory from (0.1,0.2,0.3) lands on equilibrium, <1s"):
        system = canonical_affine(STABLE)
        start = time.perf_counter()
        trajectory = integrate(system.field_at, Q0, t_end=200.0, dt=0.01,
                               method="rk4")
        elapsed = time.perf_counter() - start
        final = trajectory.states[-1]
        assert np.all(np.abs(final - REFERENCE_EQUILIBRIUM) < 1e-4)
        assert elapsed < 1.0


def test_criterion_03_unstable_case_detected_by_all_routes():
    with criterion(3, "unstable case: Hurwitz fails, margin > 0, "
                      "run diverges, closed-form a3 < 0, <1s"):
        start = time.perf_counter()
        system = canonical_affine(UNSTABLE)
        coeffs = char_poly(system)
        margin = eigen_margin(system)
        report = analyze(system, UNSTABLE)
        assert routh_hurwitz_cubic(*coeffs) is False
        assert margin > 0
        assert report.verdict is Stability.UNSTABLE
        a3 = closed_form_coeffs(UNSTABLE)[2]
        assert a3 == pytest.approx(-0.0359, rel=1e-9)
        assert a3 < 0
        # growth rate is ~1.6e-4 per time unit, so the 10x-distance
        # criterion needs a long horizon; dt=1 is still far inside the
        # rk4 stability region for this system
        q_star = equilibrium(system)
        trajectory = integrate(system.field_at, Q0, t_end=20000.0, dt=1.0)
        verdict = classify(trajectory, system.field_at, q_star, tol=1e-8)
        assert verdict.outcome is Outcome.DIVERGED
        assert time.perf_counter() - start < 1.0


def test_criterion_04_hurwitz_and_eigenvalues_agree():
    with criterion(4, "1000 random draws: Hurwitz <=> eigenvalue sign, <5s"):
        rng = np.random.default_rng(40)
        start = time.perf_counter()
        checked = 0
        for _ in range(1000):
            r = random_canonical(rng)
            system = canonical_affine(r)
            margin = eigen_margin(system)
            if abs(margin) <= 1e-6:
                continue
            checked += 1
            assert routh_hurwitz_cubic(*char_poly(system)) == (margin < 0.0)
        assert checked >= 990
        assert time.perf_counter() - start < 5.0


def test_criterion_05_marginal_profit_matches_finite_differences():
    with criterion(5, "gradient vs central differences on 100x10 draws, <1s"):
        rng = np.random.default_rng(50)
        start = time.perf_counter()
        for _ in range(100):
            spec = random_network_spec(rng)
            order = canonical_edge_order(spec)
            for _ in range(10):
                q = rng.uniform(0.0, 2.0, len(order))
                for k, (i, j) in enumerate(order):
                    analytic = marginal_profit(spec, q, i, j)
                    numeric = central_difference(
                        lambda x, j=j: profit(spec, x, j), q, k, 1e-5)
                    scale = max(abs(analytic), abs(numeric), 1.0)
                    assert abs(analytic - numeric) < 1e-6 * scale
        assert time.perf_counter() - start < 1.0


def test_criterion_06_symmetric_closed_forms():
    with criterion(6, "symmetric closed forms: solve agreement and "
                      "sufficiency of the stability conditions, <2s"):
        rng = np.random.default_rng(60)
        start = time.perf_counter()
        matched = 0
        while matched < 500:
            r = random_canonical(rng, symmetric=True)
            if abs(r.r1 * r.r3 - r.r4 - r.r5) < 1e-2:
                continue  # keep the linear solve well-conditioned
            closed = np.array(symmetric_equilibrium(r))
            solved = equilibrium(canonical_affine(r))
            scale = max(1.0, float(np.max(np.abs(solved))))
            assert np.max(np.abs(closed - solved)) < 1e-10 * scale
            matched += 1
        satisfied = 0
        while satisfied < 500:
            r = random_canonical(rng, symmetric=True)
            if not symmetric_conditions(r):
                continue
            satisfied += 1
            q11, q22, q21 = symmetric_equilibrium(r)
            assert q11 > 0 and q22 > 0 and q21 > 0
            assert 0.0 < q21 < 1.0
            assert analyze(canonical_affine(r), r).verdict is Stability.STABLE
        assert time.perf_counter() - start < 2.0


def test_criterion_07_rk4_is_fourth_order():
    with criterion(7, "rk4 endpoint error shrinks 16x per halving"):
        # Measured over the opening transient (t_end = 10) of the
        # criterion-2 run: at the full horizon the flow has contracted
        # onto the fixed point and discretization error sits below the
        # double-precision floor, leaving nothing to measure.
        # Both routes: the field's four stages and the system's
        # one-matrix step.
        system = canonical_affine(STABLE)
        for route in (system.field_at, system):
            reference = integrate(route, Q0, 10.0, 1e-4).states[-1]
            errors = {}
            for dt in (0.04, 0.02, 0.01):
                end = integrate(route, Q0, 10.0, dt).states[-1]
                errors[dt] = float(np.linalg.norm(end - reference))
            for coarse, fine in ((0.04, 0.02), (0.02, 0.01)):
                ratio = errors[coarse] / errors[fine]
                assert 16.0 * 0.75 < ratio < 16.0 * 1.25


def test_criterion_08_dilemma_dominance_and_side_payments():
    with criterion(8, "defection dominates 100 dilemmas; sigma* brackets "
                      "the dominance flip"):
        rng = np.random.default_rng(80)
        for _ in range(100):
            s, u, r, t = np.sort(rng.uniform(-5.0, 5.0, 4))
            m = PayoffMatrix(R=r, S=s, T=t, U=u)
            assert dominant_strategy(m) == D
            threshold = min_side_payment(m)

            def cooperation_dominant(sigma: float) -> bool:
                view = apply_side_payment(m, sigma)
                return all(payoffs(view, C, b)[0] > payoffs(view, D, b)[0]
                           for b in (C, D))

            assert cooperation_dominant(threshold + 0.001)
            assert not cooperation_dominant(max(threshold - 0.001, 0.0))


def test_criterion_09_lattice_cooperation_survives():
    with criterion(9, "pinned 21x21 torus keeps cooperators alive for 200 "
                      "steps; uniform fixed points; well-mixed collapse"):
        m = PayoffMatrix(R=3, S=0, T=3.5, U=0.5)
        assert dominant_strategy(m) == D
        graph = torus_graph(21, 21)
        series = run_spatial(random_population(graph, 0.5, seed=1), m, 200)
        assert len(series) == 201
        assert series[-1] > 0.0
        assert series[-1] == pytest.approx(331 / 441)

        for state in (all_cooperate(graph), all_defect(graph)):
            assert imitation_step(state, m).strategies == state.strategies

        k6 = complete_graph(6)
        for bits in itertools.product((C, D), repeat=6):
            if C not in bits or D not in bits:
                continue
            state = PopulationState.from_strategies(k6, bits)
            for _ in range(6):
                state = imitation_step(state, m)
                if C not in state.strategies:
                    break
            assert C not in state.strategies


def _run_cli(args, cwd: Path) -> subprocess.CompletedProcess:
    # The checkout's src/ goes first as an absolute path: a relative
    # PYTHONPATH entry would not resolve from cwd, and an installed copy
    # of the package must not shadow the code under test.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "cournotgraph", *args],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          check=False)


def test_criterion_10_cli_outputs_are_byte_identical(tmp_path):
    with criterion(10, "repeated CLI commands produce byte-identical files"):
        stable = str(SCENARIOS / "canonical_stable.scenario")
        pd = str(SCENARIOS / "gas_transit_pd.scenario")
        commands = [
            ("simulate", ["simulate", "--scenario", stable,
                          "--t-end", "5", "--out"]),
            ("pd", ["pd", "--scenario", pd, "--out"]),
            ("sweep", ["sweep", "--scenario", stable, "--param", "r3",
                       "--from", "0.1", "--to", "1.5", "--points", "5",
                       "--out"]),
        ]
        for name, argv in commands:
            first = tmp_path / f"{name}_1.csv"
            second = tmp_path / f"{name}_2.csv"
            run1 = _run_cli(argv + [str(first)], tmp_path)
            run2 = _run_cli(argv + [str(second)], tmp_path)
            assert run1.returncode == 0, run1.stderr
            assert run2.returncode == 0, run2.stderr
            assert first.read_bytes() == second.read_bytes()
            assert run1.stdout == run2.stdout
