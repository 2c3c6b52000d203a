from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from cournotgraph import (NetworkSpec, canonical_edge_order, marginal_profit,
                          profit, to_affine, vector_field)
from helpers import (central_difference, random_network_spec,
                     two_firms_two_markets)


def two_firm_spec():
    return two_firms_two_markets(1.0, 1.0, 0.2, 0.3, 0.1, 0.4)


def single_edge_spec():
    return NetworkSpec(1, 1, ((1, 1),), alpha=(1.0,), beta=(0.5,), gamma=(1.0,))


class TestSupplies:
    # Flow order on the two-firm graph is (q11, q21, q22).
    def test_firm_supply(self):
        q = np.array([1.0, 2.0, 3.0])
        s, _ = to_affine(two_firm_spec()).structure.supplies(q)
        assert s[0] == 3.0
        assert s[1] == 3.0

    def test_market_supply(self):
        q = np.array([1.0, 2.0, 3.0])
        _, c = to_affine(two_firm_spec()).structure.supplies(q)
        assert c[1] == 5.0
        assert c[0] == 1.0

    def test_zero_state(self):
        q = np.zeros(3)
        s, c = to_affine(two_firm_spec()).structure.supplies(q)
        assert s[0] == 0.0
        assert c[1] == 0.0

    def test_unknown_indices_rejected(self):
        q = np.zeros(3)
        # One supply per firm and per market: there is no firm 3.
        s, c = to_affine(two_firm_spec()).structure.supplies(q)
        assert (len(s), len(c)) == (2, 2)
        with pytest.raises(ValueError, match="unknown firm index 3"):
            profit(two_firm_spec(), q, 3)

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="length 3"):
            profit(two_firm_spec(), np.zeros(2), 1)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="non-finite"):
            vector_field(two_firm_spec(), np.array([1.0, np.nan, 0.0]))


class TestProfit:
    def test_single_edge_value(self):
        # alpha q - gamma q^2/2 - beta q^2 = 0.5 - 0.125 - 0.125
        assert profit(single_edge_spec(), np.array([0.5]), 1) == pytest.approx(0.25)

    def test_zero_state_gives_zero_profit(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            spec = random_network_spec(rng)
            q = np.zeros(len(canonical_edge_order(spec)))
            for j in range(1, spec.firm_count + 1):
                assert profit(spec, q, j) == 0.0

    def test_two_firm_value_term_by_term(self):
        # Independent oracle: revenue, cost and impact computed separately.
        spec = two_firm_spec()
        q = np.array([1.0, 1.0, 1.0])
        revenue = 1.0 * 1.0 + 1.0 * 1.0          # alpha_1 q11 + alpha_2 q21
        cost = 0.1 * (1.0 + 1.0) ** 2 / 2.0       # gamma_1 s_1^2 / 2
        impact = 0.2 * 1.0 * 1.0 + 0.3 * 1.0 * 2.0  # beta_i q_i1 c_i
        assert revenue - cost - impact == pytest.approx(1.0)
        assert profit(spec, q, 1) == pytest.approx(1.0)


class TestMarginalProfit:
    def test_zero_at_single_edge_optimum(self):
        # q* = alpha / (gamma + 2 beta) = 0.5 zeroes the gradient
        assert marginal_profit(single_edge_spec(), np.array([0.5]), 1, 1) == 0.0

    def test_equals_alpha_at_origin(self):
        assert marginal_profit(single_edge_spec(), np.array([0.0]), 1, 1) == 1.0

    def test_non_edge_rejected(self):
        with pytest.raises(ValueError, match=r"\(1,2\) is not an edge"):
            marginal_profit(two_firm_spec(), np.zeros(3), 1, 2)

    def test_matches_central_finite_difference(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            spec = random_network_spec(rng)
            order = canonical_edge_order(spec)
            q = rng.uniform(0.0, 2.0, len(order))
            for k, (i, j) in enumerate(order):
                analytic = marginal_profit(spec, q, i, j)
                numeric = central_difference(
                    lambda x, j=j: profit(spec, x, j), q, k, 1e-5)
                scale = max(abs(analytic), abs(numeric), 1.0)
                assert abs(analytic - numeric) < 1e-6 * scale


class TestVectorField:
    def test_origin_value_is_speed_times_alpha(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            spec = random_network_spec(rng)
            order = canonical_edge_order(spec)
            field0 = vector_field(spec, np.zeros(len(order)))
            expected = [spec.speed[j - 1] * spec.alpha[i - 1] for i, j in order]
            assert np.allclose(field0, expected, rtol=1e-15)

    def test_affinity(self):
        # field(q1+q2) - field(q1) - field(q2) + field(0) == 0
        rng = np.random.default_rng(21)
        for _ in range(50):
            spec = random_network_spec(rng)
            n = len(canonical_edge_order(spec))
            q1 = rng.uniform(-1.0, 2.0, n)
            q2 = rng.uniform(-1.0, 2.0, n)
            residual = (vector_field(spec, q1 + q2) - vector_field(spec, q1)
                        - vector_field(spec, q2) + vector_field(spec, np.zeros(n)))
            scale = max(1.0, float(np.max(np.abs(vector_field(spec, q1)))))
            assert np.max(np.abs(residual)) < 1e-12 * scale

    def test_doubling_one_speed_doubles_only_that_firm(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            spec = random_network_spec(rng)
            j = int(rng.integers(1, spec.firm_count + 1))
            doubled_speed = tuple(2.0 * b if k == j - 1 else b
                                  for k, b in enumerate(spec.speed))
            doubled = NetworkSpec(spec.market_count, spec.firm_count,
                                  spec.edges, spec.alpha, spec.beta,
                                  spec.gamma, doubled_speed)
            order = canonical_edge_order(spec)
            q = rng.uniform(-1.0, 2.0, len(order))
            base = vector_field(spec, q)
            scaled = vector_field(doubled, q)
            for k, (_, jj) in enumerate(order):
                if jj == j:
                    assert scaled[k] == 2.0 * base[k]
                else:
                    assert scaled[k] == base[k]

    def test_keeps_no_spec_alive(self):
        spec = NetworkSpec(2, 2, ((1, 1), (2, 1), (2, 2)), alpha=(1.0, 1.25),
                           beta=(0.2, 0.3), gamma=(0.1, 0.4))
        vector_field(spec, np.ones(3))
        ref = weakref.ref(spec)
        del spec
        gc.collect()
        assert ref() is None


class TestInvalidSpecs:
    """Every function here reads the system ``to_affine`` assembles, so
    an invalid spec is refused with its message rather than summed or
    indexed as if it were valid."""

    @pytest.mark.parametrize("edges, q, problem", [
        (((1, 1), (2, 1)), [0.1, 0.2], "edge (2,1) references unknown market 2"),
        (((1, 1), (1, 1)), [0.1], "duplicate edge (1,1)"),
    ])
    def test_every_function_refuses_the_spec(self, edges, q, problem):
        spec = NetworkSpec(1, 1, edges, alpha=(1.0,), beta=(0.5,), gamma=(1.0,))
        calls = (lambda: to_affine(spec).structure.supplies(q),
                 lambda: profit(spec, q, 1),
                 lambda: marginal_profit(spec, q, 1, 1),
                 lambda: vector_field(spec, q))
        for call in calls:
            with pytest.raises(ValueError) as exc:
                call()
            assert str(exc.value).startswith("invalid network spec: ")
            assert problem in str(exc.value)
