from __future__ import annotations

import numpy as np
import pytest

from cournotgraph import (AffineSystem, NetworkSpec, canonical_edge_order,
                          to_affine, validate, variable_names, vector_field)
from helpers import (as_pairs, incidence_by_loop, network_spec_of_shape,
                     network_spec_with_edges, random_network_spec,
                     sum_in_edge_order, to_affine_by_loop,
                     two_firm_rhs_literal, two_firms_two_markets)


def two_firm_spec():
    return two_firms_two_markets(1.0, 1.0, 0.2, 0.3, 0.1, 0.4)


def single_edge_spec():
    return NetworkSpec(market_count=1, firm_count=1, edges=((1, 1),),
                       alpha=(1.0,), beta=(0.5,), gamma=(1.0,))


class TestValidate:
    def test_valid_two_firm_spec(self):
        assert validate(two_firm_spec()) == []

    def test_zero_beta_is_named(self):
        spec = NetworkSpec(2, 2, ((1, 1), (2, 1), (2, 2)),
                           alpha=(1, 1), beta=(0.0, 0.3), gamma=(0.1, 0.4))
        problems = validate(spec)
        assert len(problems) == 1
        assert "beta[1]" in problems[0]

    def test_uncovered_firm_is_named(self):
        spec = NetworkSpec(2, 2, ((1, 1), (2, 1)),
                           alpha=(1, 1), beta=(0.2, 0.3), gamma=(0.1, 0.4))
        problems = validate(spec)
        assert len(problems) == 1
        assert "firm 2" in problems[0]

    def test_uncovered_market_is_named(self):
        spec = NetworkSpec(2, 1, ((2, 1),), alpha=(1, 1), beta=(1, 1),
                           gamma=(1,))
        assert any("market 1" in p for p in validate(spec))
        # As many edges as markets: the unused market is found by the
        # per-market pass, not the count check.
        spec = NetworkSpec(2, 2, ((1, 1), (1, 2)), alpha=(1, 1), beta=(1, 1),
                           gamma=(1, 1))
        assert validate(spec) == ["market 2 appears in no edge"]

    def test_duplicate_edge(self):
        spec = NetworkSpec(1, 1, ((1, 1), (1, 1)), alpha=(1,), beta=(1,),
                           gamma=(1,))
        assert any("duplicate edge (1,1)" in p for p in validate(spec))

    def test_edge_out_of_range(self):
        spec = NetworkSpec(1, 1, ((1, 1), (2, 1)), alpha=(1,), beta=(1,),
                           gamma=(1,))
        assert any("unknown market 2" in p for p in validate(spec))
        spec = NetworkSpec(1, 2, ((1, 1), (1, 3)), alpha=(1,), beta=(1,),
                           gamma=(1, 1))
        assert "edge (1,3) references unknown firm 3" in validate(spec)

    def test_edge_end_that_is_not_an_integer_is_named(self):
        # Not truncated to the edges ((1, 1), (2, 1)): each is named, and
        # the markets are then used by no edge.
        spec = NetworkSpec(2, 1, ((1.5, 1), (2.9, 1)), (1, 1), (1, 1), (1,))
        assert validate(spec) == [
            "edge (1.5,1) has an end that is not an integer",
            "edge (2.9,1) has an end that is not an integer",
            "market 1 appears in no edge", "market 2 appears in no edge"]
        with pytest.raises(ValueError, match=r"edge \(1\.5,1\) has an end"):
            to_affine(spec)
        for end in (float("nan"), float("inf"), "1"):
            spec = NetworkSpec(1, 1, ((1, 1), (1, end)), (1,), (1,), (1,))
            assert validate(spec) == [
                f"edge (1,{end}) has an end that is not an integer"]
        # Whole numbers of any type are the ints they equal.
        spec = NetworkSpec(2, 1, ((np.float64(2.0), np.int64(1)), (1.0, 1)),
                           (1, 1), (1, 1), (1,))
        assert as_pairs(spec.edges) == ((2, 1), (1, 1))
        assert spec.edges.dtype == np.intp
        assert validate(spec) == []

    @pytest.mark.parametrize("edges, problems", [
        (((2.0, 1), (True, 2), ("1", 2)),
         ["edge (1,2) has an end that is not an integer"]),
        (((2.0, 1), (2, True), (1, 2.0), ("1", 2), (3, 1.0), (3.0, 1)),
         ["duplicate edge (2,1)",
          "edge (1,2) has an end that is not an integer",
          "edge (3,1) references unknown market 3",
          "edge (3,1) references unknown market 3",
          "duplicate edge (3,1)"]),
    ])
    def test_whole_ends_of_any_type_and_a_string_end(self, edges, problems):
        # The lists were taken before a spec held its edges as an array.
        spec = NetworkSpec(2, 2, edges, (1, 1), (1, 1), (1, 1))
        assert validate(spec) == problems

    def test_wrong_parameter_length(self):
        spec = NetworkSpec(2, 1, ((1, 1), (2, 1)), alpha=(1,), beta=(1, 1),
                           gamma=(1,))
        assert any(p.startswith("alpha must have 2 entries") for p in validate(spec))

    def test_nonpositive_counts(self):
        spec = NetworkSpec(0, 1, (), alpha=(), beta=(), gamma=(1,))
        assert any("market_count" in p for p in validate(spec))
        spec = NetworkSpec(1, 0, (), alpha=(1,), beta=(1,), gamma=())
        assert validate(spec) == ["firm_count must be a positive integer, "
                                  "got 0"]

    def test_count_that_is_not_an_integer_is_named(self):
        # The default speeds are sized from an int count only, so such a
        # count reaches validate's message instead of raising here.
        for count in ("x", None):
            spec = NetworkSpec(1, count, ((1, 1),), (1,), (1,), (1,))
            assert validate(spec) == [
                f"firm_count must be a positive integer, got {count}"]

    def test_nan_gamma_rejected(self):
        spec = NetworkSpec(1, 1, ((1, 1),), alpha=(1,), beta=(1,),
                           gamma=(float("nan"),))
        assert any("gamma[1]" in p for p in validate(spec))

    def test_count_past_the_edges_is_one_message(self):
        spec = NetworkSpec(10 ** 6, 10 ** 9, ((1, 1), (2, 2)), alpha=(1, 1),
                           beta=(1, 1), gamma=(1, 1))
        assert spec.speed.size == 0  # no default array of 10**9 speeds
        assert validate(spec) == ["market 3 appears in no edge: 1000000 "
                                  "markets need at least 1000000 edges, got 2"]
        spec = NetworkSpec(2, 5, ((1, 1), (2, 1)), alpha=(1, 1), beta=(1, 1),
                           gamma=(1,) * 5)
        assert validate(spec) == ["firm 2 appears in no edge: 5 firms need "
                                  "at least 5 edges, got 2"]


class TestCanonicalEdgeOrder:
    def test_two_firm_graph(self):
        assert as_pairs(canonical_edge_order(two_firm_spec())) == ((1, 1), (2, 1), (2, 2))

    def test_single_edge(self):
        assert as_pairs(canonical_edge_order(single_edge_spec())) == ((1, 1),)

    def test_input_order_irrelevant(self):
        spec = NetworkSpec(2, 2, ((2, 2), (1, 1), (2, 1)),
                           alpha=(1, 1), beta=(0.2, 0.3), gamma=(0.1, 0.4))
        assert as_pairs(canonical_edge_order(spec)) == ((1, 1), (2, 1), (2, 2))

    def test_variable_names(self):
        assert variable_names(((1, 1), (2, 1), (2, 2))) == ("q11", "q21", "q22")
        assert variable_names(((12, 3),)) == ("q12_3",)


class TestTwoFirmsTwoMarkets:
    def test_structure_and_default_speed(self):
        spec = two_firm_spec()
        assert spec.market_count == 2 and spec.firm_count == 2
        assert set(as_pairs(spec.edges)) == {(1, 1), (2, 1), (2, 2)}
        assert spec.speed.tolist() == [1.0, 1.0]

    def test_field_at_origin_is_alpha(self):
        q0 = np.zeros(3)
        assert np.allclose(vector_field(two_firm_spec(), q0), (1.0, 1.0, 1.0))

    def test_affine_is_three_dimensional(self):
        assert to_affine(two_firm_spec()).dimension == 3

    def test_rejects_nonpositive_argument(self):
        spec = two_firms_two_markets(1, 1, 0.0, 0.3, 0.1, 0.4)
        assert validate(spec) == ["beta[1] must be strictly positive, got 0.0"]

    def test_unit_parameters_match_literal_rhs(self):
        spec = two_firms_two_markets(1, 1, 1, 1, 1, 1)
        q = np.array([1.0, 1.0, 1.0])  # order (q11, q21, q22)
        expected = two_firm_rhs_literal(1, 1, 1, 1, 1, 1, 1.0, 1.0, 1.0)
        assert expected == (-3.0, -4.0, -3.0)
        assert np.allclose(vector_field(spec, q), expected)

    def test_random_states_match_literal_rhs(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a1, a2, b1, b2, g1, g2 = rng.uniform(0.1, 2.0, 6)
            spec = two_firms_two_markets(a1, a2, b1, b2, g1, g2)
            q11, q21, q22 = rng.uniform(-1.0, 2.0, 3)
            got = vector_field(spec, np.array([q11, q21, q22]))
            want = two_firm_rhs_literal(a1, a2, b1, b2, g1, g2, q11, q21, q22)
            assert np.allclose(got, want, rtol=1e-12)


class TestToAffine:
    def test_single_edge_assembly(self):
        sys = to_affine(single_edge_spec())
        assert np.allclose(sys.constant, [1.0])
        assert np.allclose(sys.matrix, [[2.0]])  # gamma + 2 beta

    def test_shared_market_row_structure(self):
        # Row for q21 couples to q11 through the shared firm (gamma_1)
        # and to q22 through the shared market (beta_2).
        spec = two_firm_spec()
        sys = to_affine(spec)
        assert as_pairs(sys.variable_order) == ((1, 1), (2, 1), (2, 2))
        row = sys.matrix[1]
        assert row[1] == pytest.approx(0.1 + 2 * 0.3)   # gamma_1 + 2 beta_2
        assert row[0] == pytest.approx(0.1)             # gamma_1
        assert row[2] == pytest.approx(0.3)             # beta_2
        assert sys.constant[1] == pytest.approx(1.0)

    def test_speeds_scale_rows(self):
        spec = NetworkSpec(2, 2, ((1, 1), (2, 1), (2, 2)),
                           alpha=(1, 1), beta=(0.2, 0.3), gamma=(0.1, 0.4),
                           speed=(2.0, 0.5))
        base = to_affine(two_firm_spec())
        scaled = to_affine(spec)
        assert np.allclose(scaled.matrix[0], 2.0 * base.matrix[0])
        assert np.allclose(scaled.matrix[2], 0.5 * base.matrix[2])
        assert np.allclose(scaled.constant, (2.0, 2.0, 0.5))

    def test_rejects_invalid_spec(self):
        spec = NetworkSpec(1, 1, ((1, 1),), alpha=(0.0,), beta=(1,), gamma=(1,))
        with pytest.raises(ValueError, match=r"alpha\[1\]"):
            to_affine(spec)

    def test_matches_vector_field_on_random_specs(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            spec = random_network_spec(rng)
            sys = to_affine(spec)
            q = rng.uniform(-1.0, 2.0, sys.dimension)
            assert vector_field(spec, q).tobytes() == sys.field_at(q).tobytes()

    def test_diagonal_strictly_positive(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            sys = to_affine(random_network_spec(rng))
            assert np.all(np.diag(sys.matrix) > 0)

    def test_market_relabeling_permutes_dynamics(self):
        # Swapping the two market labels (with alpha, beta) must permute
        # the coordinates without changing the dynamics.
        rng = np.random.default_rng(17)
        spec = NetworkSpec(2, 2, ((1, 1), (2, 1), (2, 2)),
                           alpha=(1.0, 1.3), beta=(0.2, 0.3),
                           gamma=(0.1, 0.4), speed=(1.0, 1.5))
        swapped = NetworkSpec(2, 2, ((2, 1), (1, 1), (1, 2)),
                              alpha=(1.3, 1.0), beta=(0.3, 0.2),
                              gamma=(0.1, 0.4), speed=(1.0, 1.5))
        order = as_pairs(canonical_edge_order(spec))
        relabel = {(i, j): (3 - i, j) for i, j in order}
        swapped_order = as_pairs(canonical_edge_order(swapped))
        perm = [swapped_order.index(relabel[e]) for e in order]
        for _ in range(20):
            q = rng.uniform(-1.0, 2.0, 3)
            q_swapped = np.empty(3)
            q_swapped[perm] = q
            f = vector_field(spec, q)
            f_swapped = vector_field(swapped, q_swapped)
            assert np.allclose(f_swapped[perm], f, rtol=1e-12)
        a = to_affine(spec)
        b = to_affine(swapped)
        p = np.asarray(perm)
        assert np.allclose(b.constant[p], a.constant, rtol=1e-15)
        assert np.allclose(b.matrix[np.ix_(p, p)], a.matrix, rtol=1e-15)


class TestIncidenceAssembly:
    def test_bit_identical_to_per_entry_loop(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            spec = random_network_spec(rng, max_markets=6, max_firms=6)
            c, a = to_affine_by_loop(spec)
            sys = to_affine(spec)
            assert np.array_equal(sys.constant, c)
            assert np.array_equal(sys.matrix, a)

    def test_speed_times_symmetric_positive_definite(self):
        # A = D_b S with S = F Gamma F^T + M B M^T + diag beta_i(e):
        # S is symmetric positive definite for every valid spec.
        rng = np.random.default_rng(43)
        for _ in range(300):
            spec = random_network_spec(rng, max_markets=6, max_firms=6)
            sys = to_affine(spec)
            b = np.array([spec.speed[j - 1] for _, j in sys.variable_order])
            s = sys.matrix / b[:, None]
            assert np.allclose(s, s.T, rtol=1e-15, atol=0.0)
            np.linalg.cholesky(s)


class TestAffineSystemStorage:
    def test_writeable_inputs_copied_handed_over_ones_kept(self):
        held = np.eye(3)
        sys = AffineSystem(constant=np.ones(3), matrix=held)
        assert not np.shares_memory(sys.matrix, held)
        held[0, 0] = 5.0
        assert sys.matrix[0, 0] == 1.0
        frozen = np.eye(3)
        frozen.setflags(write=False)
        assert np.shares_memory(AffineSystem(np.ones(3), frozen).matrix, frozen)
        # a read-only view whose base its caller can still write is copied
        view = held.view()
        view.setflags(write=False)
        assert not np.shares_memory(AffineSystem(np.ones(3), view).matrix, held)
        for kept in (sys, AffineSystem([1.0, 1.0], [[1, 0], [0, 1]])):
            assert not kept.matrix.flags.writeable
            assert not kept.constant.flags.writeable
            assert kept.matrix.dtype == np.float64

    def test_non_finite_values_rejected(self):
        import dataclasses
        nan = float("nan")
        with pytest.raises(ValueError, match="constant must be finite"):
            AffineSystem(constant=[nan, 1.0], matrix=np.eye(2))
        with pytest.raises(ValueError, match="matrix must be finite"):
            AffineSystem(constant=[0.0, 1.0],
                         matrix=[[1.0, np.inf], [0.0, 1.0]])
        structure = to_affine(two_firm_spec()).structure
        for name in ("speed", "beta", "firm_gamma", "market_beta"):
            values = getattr(structure, name).copy()
            values[-1] = -np.inf
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                dataclasses.replace(structure, **{name: values})

    def test_directly_built_structure_is_held_read_only(self):
        from cournotgraph.network import EdgeIncidence
        market, speed = np.array([0, 1]), np.ones(2)
        structure = EdgeIncidence(market=market, firm=[0, 0], speed=speed,
                                  beta=np.ones(2), firm_gamma=np.ones(1),
                                  market_beta=np.ones(2))
        market[0], speed[0] = 1, 5.0
        assert structure.market.tolist() == [0, 1]
        assert structure.speed.tolist() == [1.0, 1.0]
        assert structure.firm.dtype == np.intp
        for values in vars(structure).values():
            assert not values.flags.writeable
        # A read-only array that owns its buffer is handed over uncopied.
        again = EdgeIncidence(**vars(structure))
        assert all(getattr(again, name) is values
                   for name, values in vars(structure).items())

    def test_to_affine_fills_one_matrix_buffer(self):
        import tracemalloc
        spec = NetworkSpec(15, 20, tuple((i, j) for i in range(1, 16)
                                         for j in range(1, 21)),
                           alpha=(1.0,) * 15, beta=(0.5,) * 15,
                           gamma=(0.3,) * 20)
        matrix_bytes = 300 * 300 * 8
        to_affine(spec).matrix
        tracemalloc.start()
        try:
            sys = to_affine(spec)
            assert sys.matrix.shape == (300, 300)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the matrix plus boolean masks, without a second n x n copy
        assert peak < 1.5 * matrix_bytes


class TestMatrixFreeOperator:
    """to_affine keeps a network's incidence structure; its field is
    matrix-free and its dense matrix is filled on first access."""

    def test_field_matches_loop_oracle(self):
        rng = np.random.default_rng(47)
        specs = [random_network_spec(rng, max_markets=6, max_firms=6)
                 for _ in range(200)]
        specs += [network_spec_of_shape(rng, 12, 17) for _ in range(5)]
        for spec in specs:
            c, a = to_affine_by_loop(spec)
            q = rng.uniform(-1.0, 2.0, len(c))
            want = c - a @ q
            scale = np.abs(a) @ np.abs(q) + np.abs(c)
            got = to_affine(spec).field_at(q)
            assert np.all(np.abs(got - want) <= 1e-12 * scale)

    def test_matrix_filled_once_on_first_access(self):
        rng = np.random.default_rng(59)
        spec = random_network_spec(rng, max_markets=6, max_firms=6)
        sys = to_affine(spec)
        sys.field_at(np.ones(sys.dimension))
        assert "matrix" not in vars(sys)
        first = sys.matrix
        assert sys.matrix is first
        assert not first.flags.writeable

    def test_dense_size_bound_checked_before_the_fill(self, monkeypatch):
        from cournotgraph import network
        sys = to_affine(two_firm_spec())
        monkeypatch.setattr(network, "MAX_DENSE_VALUES", 8)
        monkeypatch.setattr(np, "zeros", None)  # nothing may be allocated
        with pytest.raises(ValueError, match=r"a network of 3 edges needs a "
                           r"dense 3x3 matrix, more than the limit of 8 values"):
            sys.matrix
        monkeypatch.undo()
        assert np.array_equal(sys.field_at(np.zeros(3)), sys.constant)

    def test_structure_arrays_are_read_only(self):
        sys = to_affine(two_firm_spec())
        for values in vars(sys.structure).values():
            assert not values.flags.writeable

    def test_takes_a_matrix_or_a_structure(self):
        sys = to_affine(two_firm_spec())
        with pytest.raises(ValueError, match="exactly one"):
            AffineSystem(np.ones(3))
        with pytest.raises(ValueError, match="exactly one"):
            AffineSystem(np.ones(3), np.eye(3), structure=sys.structure)
        with pytest.raises(ValueError, match="constant has length"):
            AffineSystem(np.ones(4), structure=sys.structure)
        with pytest.raises(ValueError,
                           match=r"matrix must be square, got shape \(2, 3\)"):
            AffineSystem(np.ones(2), np.ones((2, 3)))

    def test_zero_variables_rejected(self):
        # Refused as integrate refuses an empty q0: analyze and
        # eigen_margin have no matrix to work on.
        with pytest.raises(ValueError, match="at least one variable"):
            AffineSystem(constant=[], matrix=np.zeros((0, 0)))


class TestIncidenceOperators:
    """EdgeIncidence's products with U = [F | M] against the dense U of
    ``incidence_by_loop``, bit for bit: the oracle adds each sum over
    edges in edge order, as ``np.bincount`` does, and a row of U z has
    two nonzero terms, which add the same in any order."""

    @pytest.mark.parametrize("markets, firms, edges, k_side",
                             [(20, 30, 241, True), (4, 6, 15, True),
                              (6, 6, 9, False), (8, 12, 20, False)])
    def test_products_match_the_dense_incidence(self, markets, firms, edges,
                                                 k_side):
        rng = np.random.default_rng(83)
        for _ in range(4):
            spec = network_spec_with_edges(rng, markets, firms, edges)
            st = to_affine(spec).structure
            u = incidence_by_loop(spec)
            n, k = u.shape
            assert (st.size, st.k_side) == (k, k_side)
            assert np.array_equal(u[np.arange(n), st.column], np.ones(n))
            x, weight = rng.uniform(-1.0, 1.0, n), rng.uniform(0.1, 2.0, n)
            assert np.array_equal(st.gather(x),
                                  sum_in_edge_order(u * x[:, None]))
            z = rng.uniform(-1.0, 1.0, (k, 3))
            assert np.array_equal(st.spread(z[:, 0]), u @ z[:, 0])
            assert np.array_equal(st.spread(z), u @ z)
            near = rng.permutation(n)[:min(n, k)]
            assert np.array_equal(st.spread(z, near), u[near] @ z)
            w = np.concatenate((spec.gamma, spec.beta))
            want = sum_in_edge_order(weight[:, None, None] * u[:, :, None]
                                     * u[:, None, :]) + np.diag(1.0 / w)
            assert np.array_equal(st.capacitance(weight), want)
            _, a = to_affine_by_loop(spec)
            assert np.array_equal(st.speed * st.diagonal, np.diag(a))


class TestDerivedOncePerSpec:
    """A spec's checks, canonical order and incidence structure are
    derived on first use and kept on the spec object."""

    NETWORK_TEXT = ("[network]\nmarkets = 2\nfirms = 2\nedges = 2:2, 1:1, 2:1\n"
                    "alpha = 1, 1\nbeta = 0.2, 0.3\ngamma = 0.1, 0.4\n"
                    "q0 = 0.1, 0.3, 0.2\n")

    @pytest.fixture
    def derivations(self, monkeypatch):
        """Counts the runs of each derivation on NetworkSpec."""
        from functools import cached_property
        counts = {}
        for name in ("_problems", "_order", "_incidence"):
            func = vars(NetworkSpec)[name].func

            def counted(spec, _name=name, _func=func):
                counts[_name] = counts.get(_name, 0) + 1
                return _func(spec)
            prop = cached_property(counted)
            prop.__set_name__(NetworkSpec, name)
            monkeypatch.setattr(NetworkSpec, name, prop)
        return counts

    def test_parse_assembly_and_fields_check_and_sort_once(self, derivations):
        from cournotgraph import parse_scenario
        spec = parse_scenario(self.NETWORK_TEXT).spec
        assert derivations == {"_problems": 1, "_order": 1}
        to_affine(spec)
        for q in np.eye(3):
            vector_field(spec, q)
        assert validate(spec) == []
        assert as_pairs(canonical_edge_order(spec)) == ((1, 1), (2, 1), (2, 2))
        assert derivations == {"_problems": 1, "_order": 1, "_incidence": 1}
        # An equal spec is another object with its own derivation.
        to_affine(NetworkSpec(*(getattr(spec, f) for f in (
            "market_count", "firm_count", "edges", "alpha", "beta", "gamma"))))
        assert derivations == {"_problems": 2, "_order": 2, "_incidence": 2}

    def test_invalid_spec_is_checked_once_and_never_indexed(self, derivations):
        spec = NetworkSpec(1, 1, ((1, 1), (1, 1)), alpha=(1.0,), beta=(0.5,),
                           gamma=(1.0,))
        for _ in range(3):
            with pytest.raises(ValueError, match="duplicate edge"):
                to_affine(spec)
        problems = validate(spec)
        problems.append("changed by a caller")
        assert validate(spec) == ["duplicate edge (1,1)"]
        assert derivations == {"_problems": 1}

    def test_systems_share_the_structure_and_fill_their_own_matrix(self):
        spec = two_firm_spec()
        a, b = to_affine(spec), to_affine(spec)
        assert a is not b
        assert a.structure is b.structure and a.constant is b.constant
        a.matrix
        assert "matrix" in vars(a) and "matrix" not in vars(b)

    def test_spec_holds_no_square_array(self):
        spec = NetworkSpec(3, 4, tuple((i, j) for i in range(1, 4)
                                       for j in range(1, 5)),
                           alpha=(1.0,) * 3, beta=(0.5,) * 3, gamma=(0.3,) * 4)
        system = to_affine(spec)
        system.matrix
        seen, todo = [], list(vars(spec).values())
        while todo:
            value = todo.pop()
            if isinstance(value, np.ndarray):
                seen.append(value)
            elif isinstance(value, (tuple, list)):
                todo.extend(value)
            elif hasattr(value, "__dict__"):
                todo.extend(vars(value).values())
        # One (n, 2) array of edges, as given and in canonical order, and
        # vectors of at most n entries.
        n = len(spec.edges)
        assert seen and all(values.shape == (n, 2)
                            or (values.ndim == 1 and values.size <= n)
                            for values in seen)
        assert max(values.size for values in seen if values.ndim == 1) == n


class TestOverflow:
    """Finite parameters whose products overflow are refused with
    AffineSystem's finiteness rule, and no numpy warning escapes (the
    suite turns warnings into errors)."""

    def test_constant_overflow(self):
        spec = NetworkSpec(1, 1, ((1, 1),), alpha=(1e200,), beta=(1.0,),
                           gamma=(1.0,), speed=(1e200,))
        with pytest.raises(ValueError, match="^constant must be finite$"):
            to_affine(spec)

    def test_dense_fill_overflow(self):
        # Every parameter is finite, but the entries b_j gamma_j and
        # b_j (gamma_j + 2 beta_i) the dense fill would write overflow:
        # the structure refuses them, so neither route is made.
        spec = NetworkSpec(1, 1, ((1, 1),), alpha=(1.0,), beta=(1e200,),
                           gamma=(1e200,), speed=(1e200,))
        with pytest.raises(ValueError, match="^matrix must be finite$"):
            to_affine(spec)
        with pytest.raises(ValueError, match="^matrix must be finite$"):
            vector_field(spec, [1.0])

    def test_structure_refuses_an_overflowing_entry(self):
        # Only the diagonal entry b (gamma + 2 beta) overflows here.
        from cournotgraph.network import EdgeIncidence
        with pytest.raises(ValueError, match="^matrix must be finite$"):
            EdgeIncidence(market=[0], firm=[0], speed=[1e300], beta=[5e7],
                          firm_gamma=[1e8], market_beta=[5e7])
