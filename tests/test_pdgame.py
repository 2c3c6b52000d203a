from __future__ import annotations

import itertools
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from cournotgraph import (PayoffMatrix, PopulationState, all_cooperate,
                          all_defect, apply_side_payment, complete_graph,
                          cycle_graph, dominant_strategy, imitation_step,
                          min_side_payment, payoffs, player_graph,
                          random_population, run_spatial, scores,
                          single_defector, torus_graph)
from cournotgraph.pdgame import C, D

CLASSIC = PayoffMatrix(R=3, S=0, T=5, U=1)


def random_dilemma(rng) -> PayoffMatrix:
    """Random matrix with T > R > U > S by construction."""
    s, u, r, t = np.sort(rng.uniform(-5.0, 5.0, 4))
    if len({s, u, r, t}) < 4:
        return random_dilemma(rng)
    return PayoffMatrix(R=r, S=s, T=t, U=u)


def transit_cooperation_dominant(m: PayoffMatrix, sigma: float) -> bool:
    """Brute force over the 4 strategy pairs: does C strictly beat D for
    the transit player against either opponent strategy?"""
    v = apply_side_payment(m, sigma)
    pairs = {(a, b): payoffs(v, a, b)[0] for a in (C, D) for b in (C, D)}
    return all(pairs[(C, b)] > pairs[(D, b)] for b in (C, D))


class TestStageGame:
    def test_payoff_lookups(self):
        assert payoffs(CLASSIC, C, C) == (3, 3)
        assert payoffs(CLASSIC, C, D) == (0, 5)
        assert payoffs(CLASSIC, D, C) == (5, 0)
        assert payoffs(CLASSIC, D, D) == (1, 1)

    def test_defection_dominates_every_dilemma(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            assert dominant_strategy(random_dilemma(rng)) == D

    def test_reversed_ordering_makes_cooperation_dominant(self):
        assert dominant_strategy(PayoffMatrix(R=5, S=2, T=3, U=1)) == C

    def test_tie_has_no_dominant_strategy(self):
        assert dominant_strategy(PayoffMatrix(R=3, S=0, T=3, U=1)) is None


class TestSidePayments:
    def test_zero_payment_changes_nothing(self):
        assert apply_side_payment(CLASSIC, 0.0) == CLASSIC
        assert dominant_strategy(apply_side_payment(CLASSIC, 0.0)) == D

    def test_payment_above_threshold_flips_to_cooperation(self):
        v = apply_side_payment(CLASSIC, 2.5)
        assert (v.R, v.S, v.T, v.U) == (5.5, 2.5, 5, 1)
        assert dominant_strategy(v) == C
        assert transit_cooperation_dominant(CLASSIC, 2.5)

    def test_payment_below_threshold_does_not_flip(self):
        # 2 = T - R still beats R + sigma = 4.5 against a cooperator, so
        # cooperation is not dominant (nor is defection any longer).
        assert not transit_cooperation_dominant(CLASSIC, 1.5)
        assert dominant_strategy(apply_side_payment(CLASSIC, 1.5)) != C

    def test_negative_payment_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            apply_side_payment(CLASSIC, -0.1)

    def test_minimum_payment_values(self):
        assert min_side_payment(CLASSIC) == 2.0          # max(5-3, 1-0)
        assert min_side_payment(PayoffMatrix(3, 0, 3.5, 1)) == 1.0  # max(0.5, 1)
        eps = 1e-6
        degenerate = PayoffMatrix(R=2, S=0, T=2 + eps, U=eps / 2)
        assert min_side_payment(degenerate) == pytest.approx(eps)

    def test_minimum_payment_requires_dilemma(self):
        with pytest.raises(ValueError, match="T > R > U > S"):
            min_side_payment(PayoffMatrix(R=5, S=2, T=3, U=1))

    def test_threshold_brackets_dominance_flip(self):
        rng = np.random.default_rng(33)
        for _ in range(100):
            m = random_dilemma(rng)
            threshold = min_side_payment(m)
            assert transit_cooperation_dominant(m, threshold + 0.001)
            assert not transit_cooperation_dominant(m, max(threshold - 0.001, 0.0))


def brute_force_step(state: PopulationState, m: PayoffMatrix) -> tuple[str, ...]:
    """Re-derivation of one synchronous update from the adjacency set,
    structured differently from the library (pairwise accumulation of
    exact rational totals, so summation order cannot decide a tie)."""
    n = state.graph.player_count
    adjacency = {tuple(sorted(e)) for e in state.graph.edges}
    totals = [Fraction(0)] * n
    for a in range(n):
        for b in range(n):
            if a != b and (min(a, b), max(a, b)) in adjacency:
                totals[a] += Fraction(payoffs(m, state.strategies[a],
                                              state.strategies[b])[0])
    updated = []
    for p in range(n):
        closed = [p] + [q for q in range(n)
                        if (min(p, q), max(p, q)) in adjacency]
        best = max(totals[q] for q in closed)
        if totals[p] == best:
            updated.append(state.strategies[p])
        else:
            winner = min(q for q in closed if totals[q] == best)
            updated.append(state.strategies[winner])
    return tuple(updated)


class TestImitationDynamics:
    def test_uniform_states_are_fixed_points(self):
        rng = np.random.default_rng(35)
        graphs = [complete_graph(5), cycle_graph(6), torus_graph(4, 3)]
        for graph in graphs:
            m = random_dilemma(rng)
            for state in (all_cooperate(graph), all_defect(graph)):
                assert imitation_step(state, m).strategies == state.strategies

    def test_triangle_lone_cooperator_converts(self):
        # C scores 0 against two defectors; each D scores 5 + 1 = 6.
        graph = complete_graph(3)
        state = PopulationState(graph, (C, D, D))
        assert scores(state, CLASSIC) == [0.0, 6.0, 6.0]
        assert imitation_step(state, CLASSIC).strategies == (D, D, D)

    def test_matches_brute_force_oracle_on_random_states(self):
        rng = np.random.default_rng(37)
        graphs = [complete_graph(6), cycle_graph(8), torus_graph(4, 4),
                  player_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4),
                                   (1, 3)]),
                  # A star around player 3 plus one isolated player.
                  player_graph(9, [(3, k) for k in (0, 1, 2, 4, 5, 6, 8)])]
        for graph in graphs:
            for trial in range(25):
                m = random_dilemma(rng)
                state = random_population(graph, rng.uniform(0.2, 0.8),
                                          seed=int(rng.integers(1 << 30)))
                assert imitation_step(state, m).strategies == \
                    brute_force_step(state, m)
        # Float sums in neighbor order split ties here that exact totals keep.
        torus = torus_graph(5, 5)
        state = random_population(torus, 0.6, seed=1)
        m = PayoffMatrix(R=0.2, S=0.05, T=0.3, U=0.1)
        assert imitation_step(state, m).strategies == brute_force_step(state, m)
        # Payoffs 500 binades apart overflow int64 once scaled to integers.
        m = PayoffMatrix(R=1e200, S=-1e-200, T=2e200, U=1e-300)
        assert imitation_step(state, m).strategies == brute_force_step(state, m)

    def test_well_mixed_mixed_states_collapse_to_defection(self):
        # Exhaustive over all initial states on complete graphs up to 12
        # players: any mixed state goes all-defect within n steps. Up to
        # 6 players every step is also checked against the brute-force
        # oracle.
        rng = np.random.default_rng(39)
        for n in range(2, 13):
            graph = complete_graph(n)
            m = random_dilemma(rng)
            for bits in itertools.product((C, D), repeat=n):
                if C not in bits or D not in bits:
                    continue
                state = PopulationState(graph, bits)
                for _ in range(n):
                    stepped = imitation_step(state, m)
                    if n <= 6:
                        assert stepped.strategies == brute_force_step(state, m)
                    state = stepped
                    if C not in state.strategies:
                        break
                assert C not in state.strategies

    def test_tie_break_keeps_current_strategy(self):
        # S == T makes every score tie, so nobody moves.
        graph = cycle_graph(4)
        state = PopulationState(graph, (C, D, C, D))
        m = PayoffMatrix(R=3, S=2, T=2, U=1)
        assert scores(state, m) == [4.0, 4.0, 4.0, 4.0]
        assert imitation_step(state, m).strategies == (C, D, C, D)

    def test_tie_break_lowest_index_among_neighbors(self):
        # R == T makes the two leaves tie above the center, which then
        # copies the lower-indexed leaf.
        graph = player_graph(3, [(0, 1), (0, 2)])
        m = PayoffMatrix(R=4, S=-1, T=4, U=1)
        state = PopulationState(graph, (C, C, D))
        assert scores(state, m) == [3.0, 4.0, 4.0]
        assert imitation_step(state, m).strategies[0] == C
        swapped = PopulationState(graph, (C, D, C))
        assert imitation_step(swapped, m).strategies[0] == D

    def test_exact_totals_decide_what_floats_tie(self):
        # Player 0 (D; D, D, C, C neighbors) and player 1 (C; four C
        # neighbors) both score 0.8 in floats, from counts and from sums
        # in neighbor order, but 4 x 0.2 exceeds 2 x 0.3 + 2 x 0.1 exactly.
        # Player 4 sees both and must copy player 1, not the lower index.
        graph = player_graph(9, [(0, 2), (0, 3), (0, 4), (0, 5), (1, 4),
                                 (1, 6), (1, 7), (1, 8)])
        state = PopulationState(graph, (D, C, D, D, C, C, C, C, C))
        m = PayoffMatrix(R=0.2, S=0.05, T=0.3, U=0.1)
        assert 0.3 * 2 + 0.1 * 2 == 0.2 * 4 == 0.1 + 0.1 + 0.3 + 0.3
        assert 4 * Fraction(0.2) > 2 * Fraction(0.3) + 2 * Fraction(0.1)
        assert scores(state, m)[:2] == [0.8, 0.8]
        stepped = imitation_step(state, m).strategies
        assert stepped == brute_force_step(state, m)
        assert stepped == (D, C, D, D, C, D, C, C, C)

    def test_star_neighborhoods_take_players_plus_twice_edges(self):
        # One player of high degree must not size every player's entry:
        # the closed neighborhoods hold players + 2 * edges indices, and a
        # step allocates a small multiple of that, not players x degree
        # (which would be 3001 x 3001 x 8 bytes = 72 MB here).
        n = 3001
        graph = player_graph(n, [(0, k) for k in range(1, n)])
        graph.neighbors
        state = random_population(graph, 0.5, seed=3)
        tracemalloc.start()
        try:
            imitation_step(state, CLASSIC)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        members, starts = graph.closed_neighborhoods
        assert members.size == n + 2 * (n - 1)
        assert members[:4].tolist() == [0, 1, 2, 3]
        assert members[n:n + 4].tolist() == [1, 0, 2, 0]
        assert starts[:3].tolist() == [0, n, n + 2]
        assert peak < 100 * members.size
        # The center scores 5 per cooperating leaf, more than any leaf, so
        # as a defector it converts every leaf.
        center_d = PopulationState(graph, (D,) + state.strategies[1:])
        assert imitation_step(center_d, CLASSIC).strategies == (D,) * n


class TestRunSpatial:
    def test_zero_steps_returns_initial_fraction(self):
        graph = complete_graph(4)
        series = run_spatial(PopulationState(graph, (C, C, D, C)), CLASSIC, 0)
        assert series == [0.75]

    def test_all_defect_stays_at_zero(self):
        series = run_spatial(all_defect(cycle_graph(5)), CLASSIC, 10)
        assert series == [0.0] * 11

    def test_determinism(self):
        graph = torus_graph(8, 8)
        m = PayoffMatrix(3, 0, 3.5, 0.5)
        a = run_spatial(random_population(graph, 0.5, seed=9), m, 50)
        b = run_spatial(random_population(graph, 0.5, seed=9), m, 50)
        assert a == b

    def test_lattice_sustains_cooperation_despite_defection_dominance(self):
        # Pinned regression fixture: 21x21 torus, small temptation gap.
        m = PayoffMatrix(R=3, S=0, T=3.5, U=0.5)
        assert dominant_strategy(m) == D
        graph = torus_graph(21, 21)
        series = run_spatial(random_population(graph, 0.5, seed=1), m, 200)
        assert series[0] == pytest.approx(219 / 441)
        assert series[-1] == pytest.approx(331 / 441)
        assert series[-1] > 0.0


class TestGraphBuilders:
    def test_complete(self):
        g = complete_graph(4)
        assert len(g.edges) == 6
        assert g.neighbors[0] == (1, 2, 3)

    def test_cycle(self):
        g = cycle_graph(5)
        assert len(g.edges) == 5
        assert all(len(ns) == 2 for ns in g.neighbors)
        with pytest.raises(ValueError, match="at least 3"):
            cycle_graph(2)

    def test_torus_regular(self):
        g = torus_graph(5, 4)
        assert g.player_count == 20
        assert len(g.edges) == 40
        assert all(len(ns) == 4 for ns in g.neighbors)

    def test_torus_small_dimensions_stay_simple(self):
        g = torus_graph(2, 2)
        assert len(g.edges) == len(set(g.edges)) == 4
        assert all(a != b for a, b in g.edges)

    def test_explicit_edges_validation(self):
        with pytest.raises(ValueError, match="self-loop"):
            player_graph(3, [(0, 0)])
        with pytest.raises(ValueError, match="duplicate"):
            player_graph(3, [(0, 1), (1, 0)])
        with pytest.raises(ValueError, match="out of range"):
            player_graph(2, [(0, 2)])

    def test_population_builders(self):
        graph = cycle_graph(4)
        assert all_cooperate(graph).cooperation_fraction() == 1.0
        assert all_defect(graph).cooperation_fraction() == 0.0
        lone = single_defector(graph)
        assert lone.strategies == (D, C, C, C)
        assert random_population(graph, 0.0, seed=1).strategies == (D,) * 4
        assert random_population(graph, 1.0, seed=1).strategies == (C,) * 4

    def test_population_length_checked(self):
        with pytest.raises(ValueError, match="expected 4 strategies"):
            PopulationState(cycle_graph(4), (C, C))
