from __future__ import annotations

import itertools
import re
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from cournotgraph import (PayoffMatrix, PlayerGraph, PopulationState,
                          all_cooperate, all_defect, apply_side_payment,
                          complete_graph, cycle_graph, dominant_strategy,
                          imitation_step, min_side_payment, payoffs,
                          player_graph, random_population, run_spatial,
                          scores, single_defector, torus_graph)
from cournotgraph import pdgame
from cournotgraph.pdgame import C, D
from helpers import (closed_neighborhoods_by_loop, complete_edges_by_loop,
                     cycle_edges_by_loop, letters, pairs, player_graph_by_loop,
                     random_strategies_by_loop, torus_edges_by_loop)

CLASSIC = PayoffMatrix(R=3, S=0, T=5, U=1)

# An imitation step takes at most this many times one key gather and one
# column max over its table (test_torus_step_costs_under_a_few_table_gathers).
# On a 2-core x86-64 host the ratio of per-step minima read 2.9-3.2 for
# the kernel that gathered through the table, alone and beside two more
# such runs, and a kernel that makes nine passes over the table (counts,
# where-totals, keys, max, remainder and winner gather) read 6.6-6.9.
# Totals of whole 20-step runs, rather than per-step minima, read 2.3-9.0
# under that load.
STEP_RATIO = 4.5


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


def table_runs(graph: PlayerGraph) -> tuple[list[int], list[int]]:
    """(members, starts): the closed-neighborhood runs read from the
    padded tables and laid end to end in player order, as
    ``closed_neighborhoods_by_loop`` lays them out. Checks the layout on
    the way: ids partition the players, ascending within a group; every
    closed size in a group has the same ceiling of log2; a table is a
    read-only (width, len(ids)) intp array, width the group's largest
    closed size, each column a run then sentinel pads; and the tables
    hold fewer than 2 (players + 2 edges) entries."""
    n = graph.player_count
    runs: list[list[int] | None] = [None] * n
    entries, last_binade = 0, -1
    for ids, table in graph.closed_neighborhoods:
        assert ids.dtype == table.dtype == np.intp
        assert not ids.flags.writeable and not table.flags.writeable
        assert table.shape == (table.shape[0], ids.size) and ids.size > 0
        assert np.all(np.diff(ids) > 0)
        sizes = []
        for p, column in zip(ids.tolist(), table.T.tolist()):
            size = column.index(n) if n in column else len(column)
            assert column[size:] == [n] * (len(column) - size)
            assert runs[p] is None
            runs[p] = column[:size]
            sizes.append(size)
        binades = {(size - 1).bit_length() for size in sizes}
        assert len(binades) == 1 and binades.pop() > last_binade
        last_binade = (sizes[0] - 1).bit_length()
        assert table.shape[0] == max(sizes)
        entries += table.size
    assert entries < 2 * (n + 2 * len(pairs(graph)))
    members = [q for run in runs for q in run]
    starts = list(itertools.accumulate((len(r) for r in runs[:-1]), initial=0))
    return members, starts


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
    adjacency = set(pairs(state.graph))
    strategies = letters(state)
    totals = [Fraction(0)] * n
    for a in range(n):
        for b in range(n):
            if a != b and (min(a, b), max(a, b)) in adjacency:
                totals[a] += Fraction(payoffs(m, strategies[a],
                                              strategies[b])[0])
    updated = []
    for p in range(n):
        closed = [p] + [q for q in range(n)
                        if (min(p, q), max(p, q)) in adjacency]
        best = max(totals[q] for q in closed)
        if totals[p] == best:
            updated.append(strategies[p])
        else:
            winner = min(q for q in closed if totals[q] == best)
            updated.append(strategies[winner])
    return tuple(updated)


class TestImitationDynamics:
    def test_uniform_states_are_fixed_points(self):
        rng = np.random.default_rng(35)
        graphs = [complete_graph(5), cycle_graph(6), torus_graph(4, 3)]
        for graph in graphs:
            m = random_dilemma(rng)
            for state in (all_cooperate(graph), all_defect(graph)):
                assert letters(imitation_step(state, m)) == letters(state)

    def test_triangle_lone_cooperator_converts(self):
        # C scores 0 against two defectors; each D scores 5 + 1 = 6.
        graph = complete_graph(3)
        state = PopulationState.from_strategies(graph, (C, D, D))
        assert scores(state, CLASSIC) == [0.0, 6.0, 6.0]
        assert letters(imitation_step(state, CLASSIC)) == (D, D, D)

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
                assert letters(imitation_step(state, m)) == \
                    brute_force_step(state, m)
        # Float sums in neighbor order split ties here that exact totals keep.
        torus = torus_graph(5, 5)
        state = random_population(torus, 0.6, seed=1)
        m = PayoffMatrix(R=0.2, S=0.05, T=0.3, U=0.1)
        assert letters(imitation_step(state, m)) == brute_force_step(state, m)
        # Payoffs 500 binades apart overflow int64 once scaled to integers.
        m = PayoffMatrix(R=1e200, S=-1e-200, T=2e200, U=1e-300)
        assert letters(imitation_step(state, m)) == brute_force_step(state, m)

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
                state = PopulationState.from_strategies(graph, bits)
                for _ in range(n):
                    stepped = imitation_step(state, m)
                    if n <= 6:
                        assert letters(stepped) == brute_force_step(state, m)
                    state = stepped
                    if C not in letters(state):
                        break
                assert C not in letters(state)

    def test_tie_break_keeps_current_strategy(self):
        # S == T makes every score tie, so nobody moves.
        graph = cycle_graph(4)
        state = PopulationState.from_strategies(graph, (C, D, C, D))
        m = PayoffMatrix(R=3, S=2, T=2, U=1)
        assert scores(state, m) == [4.0, 4.0, 4.0, 4.0]
        assert letters(imitation_step(state, m)) == (C, D, C, D)

    def test_tie_break_lowest_index_among_neighbors(self):
        # R == T makes the two leaves tie above the center, which then
        # copies the lower-indexed leaf.
        graph = player_graph(3, [(0, 1), (0, 2)])
        m = PayoffMatrix(R=4, S=-1, T=4, U=1)
        state = PopulationState.from_strategies(graph, (C, C, D))
        assert scores(state, m) == [3.0, 4.0, 4.0]
        assert letters(imitation_step(state, m))[0] == C
        swapped = PopulationState.from_strategies(graph, (C, D, C))
        assert letters(imitation_step(swapped, m))[0] == D

    def test_exact_totals_decide_what_floats_tie(self):
        # Player 0 (D; D, D, C, C neighbors) and player 1 (C; four C
        # neighbors) both score 0.8 in floats, from counts and from sums
        # in neighbor order, but 4 x 0.2 exceeds 2 x 0.3 + 2 x 0.1 exactly.
        # Player 4 sees both and must copy player 1, not the lower index.
        graph = player_graph(9, [(0, 2), (0, 3), (0, 4), (0, 5), (1, 4),
                                 (1, 6), (1, 7), (1, 8)])
        state = PopulationState.from_strategies(graph, (D, C, D, D, C, C, C, C, C))
        m = PayoffMatrix(R=0.2, S=0.05, T=0.3, U=0.1)
        assert 0.3 * 2 + 0.1 * 2 == 0.2 * 4 == 0.1 + 0.1 + 0.3 + 0.3
        assert 4 * Fraction(0.2) > 2 * Fraction(0.3) + 2 * Fraction(0.1)
        assert scores(state, m)[:2] == [0.8, 0.8]
        stepped = letters(imitation_step(state, m))
        assert stepped == brute_force_step(state, m)
        assert stepped == (D, C, D, D, C, D, C, C, C)

    def test_scores_are_correctly_rounded_exact_totals(self):
        rng = np.random.default_rng(41)
        graph = torus_graph(6, 5)
        for _ in range(20):
            m = random_dilemma(rng)
            state = random_population(graph, 0.5, seed=int(rng.integers(1 << 30)))
            exact = [0] * graph.player_count
            strategies = letters(state)
            for a, b in pairs(graph):
                pa, pb = payoffs(m, strategies[a], strategies[b])
                exact[a] += Fraction(pa)
                exact[b] += Fraction(pb)
            got = scores(state, m)
            assert all(type(x) is float for x in got)
            assert got == [float(x) for x in exact]

    def test_star_neighborhoods_take_players_plus_twice_edges(self):
        # One player of high degree must not size every player's entry:
        # the star is two tables, the center's (n x 1) and the leaves'
        # (2 x n - 1), players + 2 * edges entries, and a step allocates a
        # small multiple of that, not players x degree (which would be
        # 3001 x 3001 x 8 bytes = 72 MB here).
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
        (leaves, spokes), (center, hub) = graph.closed_neighborhoods
        assert spokes.shape == (2, n - 1) and hub.shape == (n, 1)
        assert leaves.tolist() == list(range(1, n)) and center.tolist() == [0]
        assert spokes[:, :2].tolist() == [[1, 2], [0, 0]]
        assert hub[:4, 0].tolist() == [0, 1, 2, 3]
        members, starts = table_runs(graph)
        assert len(members) == n + 2 * (n - 1)
        assert members[:4] == [0, 1, 2, 3]
        assert members[n:n + 4] == [1, 0, 2, 0]
        assert starts[:3] == [0, n, n + 2]
        assert peak < 100 * len(members)
        # The center scores 5 per cooperating leaf, more than any leaf, so
        # as a defector it converts every leaf.
        center_d = PopulationState.from_strategies(graph, (D,) + letters(state)[1:])
        assert letters(imitation_step(center_d, CLASSIC)) == (D,) * n

    def test_matches_brute_force_on_graphs_of_several_tables(self):
        # Closed sizes spread over several binades: a star, a skewed
        # random graph, isolated players (closed size 1, a width-1 table)
        # and a single player.
        rng = np.random.default_rng(47)
        weights = np.array([1.0, 1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89])
        weights /= weights.sum()
        pairs = {tuple(sorted(rng.choice(12, size=2, replace=False,
                                         p=weights).tolist()))
                 for _ in range(30)}
        graphs = [player_graph(9, [(4, k) for k in range(9) if k != 4]),
                  player_graph(16, sorted(pairs)),
                  player_graph(7, [(1, 5), (5, 6), (1, 6)]),
                  player_graph(5, []),
                  complete_graph(1)]
        assert len(graphs[1].closed_neighborhoods) >= 3
        assert len(graphs[2].closed_neighborhoods) == 2
        assert graphs[3].closed_neighborhoods[0][1].shape == (1, 5)
        huge = PayoffMatrix(R=1e200, S=-1e-200, T=2e200, U=1e-300)
        for graph in graphs:
            for trial in range(20):
                m = huge if trial % 4 == 0 else random_dilemma(rng)
                state = random_population(graph, rng.uniform(0.2, 0.8),
                                          seed=int(rng.integers(1 << 30)))
                assert letters(imitation_step(state, m)) == \
                    brute_force_step(state, m)

    @pytest.mark.parametrize("m, width", [
        (PayoffMatrix(R=3, S=-2, T=7, U=1), np.int32),
        (PayoffMatrix(R=0.2, S=0.05, T=0.3, U=0.1), np.int64),
        (PayoffMatrix(R=1e200, S=-1e-200, T=2e200, U=1e-300), object)])
    def test_matches_brute_force_at_every_key_width(self, m, width):
        # Keys are int32 while 2 big (degree + 2)^2 < 2^31, int64 while
        # it is below 2^63, and Python ints past that.
        rng = np.random.default_rng(53)
        graphs = [torus_graph(5, 4), cycle_graph(7), complete_graph(6),
                  player_graph(9, [(4, k) for k in range(9) if k != 4]),
                  player_graph(8, [(0, 1), (1, 2), (2, 0), (5, 6)])]
        for graph in graphs:
            for _ in range(10):
                state = random_population(graph, rng.uniform(0.2, 0.8),
                                          seed=int(rng.integers(1 << 30)))
                assert pdgame._integer_scores(state, m)[0].dtype == width
                assert letters(imitation_step(state, m)) == \
                    brute_force_step(state, m)

    @pytest.mark.parametrize("build", [lambda: complete_graph(1000),
                                       lambda: torus_graph(300, 300)],
                             ids=["complete1000", "torus300"])
    def test_complete_and_torus_steps_build_no_table(self, build):
        # A complete graph and a torus are stepped on their own structure:
        # building one, drawing a population and one step peak at a few
        # arrays of the players (the draws alone take 16 bytes a player),
        # and the step itself at fewer. The table kernel's table alone
        # held 8 bytes a closed-neighborhood entry: 1000 a player on
        # complete_graph(1000), and 5 on a torus, where the build, draws
        # and a step peaked at 10.6 x players x 8 bytes.
        tracemalloc.start()
        try:
            graph = build()
            state = random_population(graph, 0.5, seed=5)
            built, first = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            imitation_step(state, CLASSIC)
            stepped = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = graph.player_count * 8
        assert stepped - built < 4.5 * size and max(first, stepped) < 8 * size
        run_spatial(state, CLASSIC, 10)
        assert not {"closed_neighborhoods", "neighbors"} & set(vars(graph))

    def test_torus_step_costs_under_a_few_table_gathers(self):
        # Three runs of 20 steps of a 100 x 100 torus, each step timed in
        # turn with one int32 key gather and one column max over the
        # torus's table, which the step itself never reads; the bound is
        # on the ratio of the minima over all 60.
        graph = torus_graph(100, 100)
        (_, table), = graph.closed_neighborhoods
        keys = np.arange(graph.player_count + 1, dtype=np.int32)
        m = PayoffMatrix(R=3, S=0, T=3.5, U=0.5)
        package, reference = [], []
        for _ in range(3):
            state = random_population(graph, 0.5, seed=7)
            for _ in range(20):
                start = time.perf_counter()
                state = imitation_step(state, m)
                package.append(time.perf_counter() - start)
                start = time.perf_counter()
                keys[table].max(axis=0)
                reference.append(time.perf_counter() - start)
        assert min(package) < STEP_RATIO * min(reference)


def table_twin(graph: PlayerGraph) -> PlayerGraph:
    """The same graph, stepped through its padded tables, which a torus
    or a complete graph builds only here, when they are read."""
    assert "closed_neighborhoods" not in vars(graph)
    return PlayerGraph(graph.degrees, pdgame._Tables(graph.closed_neighborhoods))


# The three key widths of test_matches_brute_force_at_every_key_width,
# then payoffs whose totals tie often. With R = T a cooperator and a
# defector of the same counts differ by S - U a defecting neighbor, so
# R = T, S = U ties them at every count; R = T = 3, S = 2, U = 1 ties
# every cooperator with every defector of a complete graph that holds
# exactly two defectors.
KERNEL_PAYOFFS = [PayoffMatrix(R=3, S=-2, T=7, U=1),
                  PayoffMatrix(R=0.2, S=0.05, T=0.3, U=0.1),
                  PayoffMatrix(R=1e200, S=-1e-200, T=2e200, U=1e-300),
                  PayoffMatrix(R=2, S=0.5, T=2, U=0.5),
                  PayoffMatrix(R=3, S=2, T=3, U=1)]


class TestStructuralKernels:
    """Tori (and cycles, tori one row high) step on shifted views of
    their state grid and complete graphs in closed form; both must agree
    with the table kernel and the brute-force rule step for step."""

    def steps_agree(self, twin, m, state, steps, brute=False):
        for _ in range(steps):
            mirrored = PopulationState(twin, state.cooperates)
            (got, scale), (want, twin_scale) = (pdgame._integer_scores(state, m),
                                                pdgame._integer_scores(mirrored, m))
            assert got.dtype == want.dtype and scale == twin_scale
            assert np.array_equal(got, want)
            stepped = imitation_step(state, m)
            assert np.array_equal(stepped.cooperates,
                                  imitation_step(mirrored, m).cooperates)
            if brute:
                assert letters(stepped) == brute_force_step(state, m)
            state = stepped

    @pytest.mark.parametrize("m", KERNEL_PAYOFFS)
    def test_small_graphs_match_tables_and_brute_force(self, m):
        rng = np.random.default_rng(59)
        graphs = [torus_graph(w, h) for w in range(1, 7) for h in range(1, 7)]
        graphs += [cycle_graph(n) for n in range(3, 10)]
        graphs += [complete_graph(n) for n in range(1, 41)]
        for graph in graphs:
            assert type(graph.form) in (pdgame._Torus, pdgame._Complete)
            twin = table_twin(graph)
            for _ in range(2):
                state = random_population(graph, rng.uniform(0.1, 0.9),
                                          seed=int(rng.integers(1 << 30)))
                self.steps_agree(twin, m, state, 3, brute=graph.player_count <= 24)

    @pytest.mark.parametrize("m", KERNEL_PAYOFFS)
    @pytest.mark.parametrize("side", [40, 100])
    def test_large_tori_match_tables(self, side, m):
        graph = torus_graph(side, side)
        twin = table_twin(graph)
        for seed, fraction in ((1, 0.6), (414, 0.5)):
            self.steps_agree(twin, m, random_population(graph, fraction, seed), 4)

    def test_uniform_and_sparse_states_on_every_form(self):
        # One or two defectors anywhere, or all alike.
        for graph in (torus_graph(5, 3), cycle_graph(4), complete_graph(7),
                      complete_graph(12), torus_graph(1, 1), complete_graph(1)):
            twin = table_twin(graph)
            n = graph.player_count
            states = [all_cooperate(graph), all_defect(graph)]
            states += [PopulationState(graph, ~np.isin(np.arange(n), pair))
                       for pair in itertools.combinations_with_replacement(range(n), 2)]
            for state in states:
                for m in KERNEL_PAYOFFS:
                    self.steps_agree(twin, m, state, 2, brute=True)

    def test_run_spatial_series_match_tables(self):
        graph = torus_graph(30, 30)
        twin = table_twin(graph)
        for m in KERNEL_PAYOFFS:
            for seed in (3, 8):
                state = random_population(graph, 0.5, seed)
                assert run_spatial(state, m, 50) == run_spatial(
                    PopulationState(twin, state.cooperates), m, 50)


class TestRunSpatial:
    def test_zero_steps_returns_initial_fraction(self):
        graph = complete_graph(4)
        state = PopulationState.from_strategies(graph, (C, C, D, C))
        series = run_spatial(state, CLASSIC, 0)
        assert series == [0.75]
        with pytest.raises(ValueError, match="steps must be nonnegative"):
            run_spatial(state, CLASSIC, -1)

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


    # A strict dilemma on five players whose 2-cycle alternates between
    # cooperation fractions 0.2 and 0.4.
    BLINKER = (player_graph(5, [(0, 3), (0, 4), (1, 3), (1, 4), (2, 4), (3, 4)]),
               PayoffMatrix(R=-1.0, S=-3.0, T=1.0, U=-2.0), "DCCDC")

    @pytest.mark.parametrize("case, steps, first", [
        ((8, 0), 30, 4), ((8, 0), 4, 4), ((8, 0), 5, 4), ((8, 0), 3, None),
        ((8, 3), 30, None), ("blinker", 12, None), ((21, 1), 60, None)])
    def test_matches_plain_stepping(self, case, steps, first, monkeypatch):
        # Runs that reach a fixed point at their last step, one step
        # before it or earlier; runs that end in a 2-cycle, which are
        # stepped to the end; and runs that do not repeat.
        if case == "blinker":
            graph, m, word = self.BLINKER
            state = PopulationState.from_strategies(graph, word)
        else:
            side, seed = case
            m = PayoffMatrix(R=3, S=0, T=3.5, U=0.5)
            state = random_population(torus_graph(side, side), 0.5, seed=seed)
        want, fixed = plain_stepping(state, m, steps)
        assert fixed == first
        calls = []
        step = pdgame.imitation_step

        def counted(state, m):
            calls.append(1)
            return step(state, m)
        monkeypatch.setattr(pdgame, "imitation_step", counted)
        got = run_spatial(state, m, steps)
        assert got == want
        assert all(type(x) is float for x in got)
        assert len(calls) == (steps if first is None else first)
        if case == "blinker":
            assert want[3:] == [0.2, 0.4] * 5

    def test_each_step_calls_the_module_imitation_step(self, monkeypatch):
        # Up to the first step that returns the state it was given, after
        # which the state stays put and no step is taken.
        graph = torus_graph(6, 6)
        state = random_population(graph, 0.5, seed=4)
        want, fixed = plain_stepping(state, CLASSIC, 9)
        calls = []
        step = pdgame.imitation_step

        def counted(state, m):
            calls.append(state.graph.player_count)
            return step(state, m)
        monkeypatch.setattr(pdgame, "imitation_step", counted)
        series = run_spatial(state, CLASSIC, 9)
        assert calls == [36] * fixed
        assert fixed < 9
        assert series == want

    def test_fixed_point_tail_is_one_reference_per_step(self):
        # The tail after a fixed point is the list's own growth, 8 bytes
        # a step, with no temporary list of the tail beside it.
        steps = 10 ** 6
        state = all_defect(complete_graph(3))
        tracemalloc.start()
        try:
            series = run_spatial(state, CLASSIC, steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(series) == steps + 1 and set(series) == {0.0}
        assert peak < 12 * steps


def plain_stepping(state: PopulationState, m: PayoffMatrix,
                   steps: int) -> tuple[list[float], int | None]:
    """(fractions, fixed): the cooperation fractions of ``steps`` updates
    made one after another, and the first update that returns the state
    it was given, or None."""
    history = [state.cooperates]
    fixed = None
    for step in range(1, steps + 1):
        state = imitation_step(state, m)
        if fixed is None and np.array_equal(state.cooperates, history[-1]):
            fixed = step
        history.append(state.cooperates)
    return [int(np.count_nonzero(c)) / c.size for c in history], fixed


def random_edge_list(rng, n: int) -> list[tuple[int, int]]:
    """Distinct pairs over n players in random order and orientation,
    with self-loops, out-of-range ends, and exact and reversed copies of
    earlier pairs injected at random positions."""
    pairs = [(a, b) if rng.random() < 0.5 else (b, a)
             for a, b in itertools.combinations(range(n), 2)
             if rng.random() < 0.5]
    rng.shuffle(pairs)
    for _ in range(int(rng.integers(0, 3))):
        k = int(rng.integers(0, len(pairs) + 1))
        kind = rng.integers(0, 4)
        if kind == 0:
            p = int(rng.integers(-1, n + 1))
            pair = (p, p)
        elif kind == 1:
            # Keys of 2 ** 62 wrap in int64; -10 ** 23 needs Python ints.
            far = (-3, -1, n, n + 2, 10 ** 12, 2 ** 62, -10 ** 23)
            pair = (int(rng.integers(0, n)), far[int(rng.integers(len(far)))])
            pair = pair if rng.random() < 0.5 else pair[::-1]
        elif not pairs[:k]:
            continue
        else:
            a, b = pairs[int(rng.integers(0, k))]
            pair = (a, b) if kind == 2 else (b, a)
        pairs.insert(k, pair)
    return pairs


class TestGraphBuilders:
    def test_player_graph_matches_loop_oracle(self):
        # Same edge order, or the same ValueError text for the same first
        # offending pair in input order.
        rng = np.random.default_rng(43)
        errors = set()
        for _ in range(600):
            n = int(rng.integers(1, 9))
            given = random_edge_list(rng, n)
            try:
                want = player_graph_by_loop(n, given)
            except ValueError as exc:
                with pytest.raises(ValueError) as got:
                    player_graph(n, given)
                assert str(got.value) == str(exc)
                errors.add(str(exc).split()[0])
                continue
            graph = player_graph(n, given)
            assert pairs(graph) == want
            assert table_runs(graph) == closed_neighborhoods_by_loop(n, want)
        assert errors == {"self-loop", "edge", "duplicate"}

    def test_builders_match_loop_oracles(self):
        # The builders write their one table by index arithmetic, and
        # player_graph lays out the same edges, given in any order and
        # either way round, by one sort and a reshape.
        rng = np.random.default_rng(51)
        cases = [(complete_graph(n), complete_edges_by_loop(n))
                 for n in (*range(1, 9), 40)]
        cases += [(cycle_graph(n), cycle_edges_by_loop(n))
                  for n in (*range(3, 9), 41)]
        cases += [(torus_graph(w, h), torus_edges_by_loop(w, h))
                  for w in (*range(1, 6), 7) for h in (*range(1, 6), 7)]
        cases += [(torus_graph(12, 10), torus_edges_by_loop(12, 10))]
        for graph, want in cases:
            assert pairs(graph) == want
            flat, runs = closed_neighborhoods_by_loop(graph.player_count, want)
            assert table_runs(graph) == (flat, runs)
            assert len(graph.closed_neighborhoods) == 1
            assert graph.neighbors == tuple(
                tuple(flat[a + 1:b]) for a, b in zip(runs, [*runs[1:], len(flat)]))
            given = [pair[::-1] if rng.random() < 0.5 else pair for pair in want]
            rng.shuffle(given)
            listed = player_graph(graph.player_count, given)
            assert np.array_equal(listed.degrees, graph.degrees)
            (ids, table), = listed.closed_neighborhoods
            assert np.array_equal(ids, graph.closed_neighborhoods[0][0])
            assert np.array_equal(table, graph.closed_neighborhoods[0][1])

    def test_graph_arrays_are_read_only(self):
        # Whole-number pairs of any number type make intp tables, which
        # table_runs checks.
        for graph in (torus_graph(4, 4), player_graph(4, [(2, 1), (0, 1)]),
                      player_graph(4, [(2.0, 1.0), (0.0, 1.0)]),
                      player_graph(3, np.array([[0, 1], [1, 2], [2, 0]], np.uint64))):
            arrays = [graph.degrees,
                      *itertools.chain.from_iterable(graph.closed_neighborhoods)]
            for values in arrays:
                with pytest.raises(ValueError, match="read-only"):
                    values[0] = 1
            assert table_runs(graph) == closed_neighborhoods_by_loop(
                graph.player_count, pairs(graph))

    def test_random_population_draws_as_random_module(self):
        for seed in (0, 1, 7, 2 ** 40 + 3, -5):
            for n in (1, 5, 1000):
                graph = player_graph(n, [])
                for fraction in (0.0, 0.3, 0.5, 1.0):
                    assert letters(random_population(graph, fraction, seed)) \
                        == random_strategies_by_loop(n, fraction, seed)

    def test_state_is_a_read_only_bool_array(self):
        graph = cycle_graph(4)
        mine = np.array([True, False, True, True])
        state = PopulationState(graph, mine)
        mine[0] = False
        assert mine.flags.writeable
        assert state.cooperates.tolist() == [True, False, True, True]
        assert not state.cooperates.flags.writeable
        assert letters(state) == (C, D, C, C)
        assert type(state.cooperation_fraction()) is float
        stepped = imitation_step(state, CLASSIC)
        assert not stepped.cooperates.flags.writeable
        # A read-only array that owns its buffer is handed over, not copied.
        assert PopulationState(graph, stepped.cooperates).cooperates \
            is stepped.cooperates
        with pytest.raises(ValueError, match="bool array"):
            PopulationState(graph, np.array([1, 0, 1, 1]))
        with pytest.raises(ValueError, match="'C' or 'D'"):
            PopulationState.from_strategies(graph, (C, D, "X", C))

    def test_complete(self):
        g = complete_graph(4)
        assert len(pairs(g)) == 6
        assert g.neighbors[0] == (1, 2, 3)
        with pytest.raises(ValueError, match="player_count must be at least 1"):
            complete_graph(0)

    def test_cycle(self):
        g = cycle_graph(5)
        assert len(pairs(g)) == 5
        assert all(len(ns) == 2 for ns in g.neighbors)
        with pytest.raises(ValueError, match="at least 3"):
            cycle_graph(2)

    def test_torus_regular(self):
        g = torus_graph(5, 4)
        assert g.player_count == 20
        assert len(pairs(g)) == 40
        assert all(len(ns) == 4 for ns in g.neighbors)
        with pytest.raises(ValueError, match="at least 1"):
            torus_graph(0, 1)

    def test_torus_small_dimensions_stay_simple(self):
        g = torus_graph(2, 2)
        assert len(pairs(g)) == len(set(pairs(g))) == 4
        assert all(a != b for a, b in pairs(g))

    def test_explicit_edges_validation(self):
        with pytest.raises(ValueError, match="self-loop"):
            player_graph(3, [(0, 0)])
        with pytest.raises(ValueError, match="duplicate"):
            player_graph(3, [(0, 1), (1, 0)])
        with pytest.raises(ValueError, match="out of range"):
            player_graph(2, [(0, 2)])
        with pytest.raises(ValueError, match="player_count must be at least 1"):
            player_graph(0, [])
        with pytest.raises(ValueError, match=r"\(a, b\) pairs, got shape \(1, 3\)"):
            player_graph(3, np.array([[0, 1, 2]]))

    def test_ends_that_are_not_integers_are_refused(self):
        # Not truncated: (0.5, 1.5) and (0.2, 1.9) would both be edge 0-1.
        # A NaN or infinite end is refused the same way, with no warning,
        # and before a fault of an earlier pair.
        for given, named in (([(0.5, 1.5), (0.2, 1.9)], "0.5-1.5"),
                             ([(0, 1), (1, np.nan)], "1.0-nan"),
                             ([(0, 1), (np.inf, 2)], "inf-2.0"),
                             ([(0, 0), (1, Fraction(5, 2))], "1-5/2")):
            with pytest.raises(ValueError, match=re.escape(
                    f"edge {named} has an end that is not an integer")):
                player_graph(3, given)

    def test_ends_that_are_not_numbers_are_refused(self):
        # A str or None end is named as given, by the first such pair in
        # input order, with the message of a fraction and not numpy's own
        # error; a fraction before it is named first.
        for given, named in (([(0, "1")], "0-1"),
                             ([(0, 1), (1, None)], "1-None"),
                             ([(0, 0), (2, "x"), (1, None)], "2-x"),
                             ([(0, 1), (0.5, 2), (None, 1)], "0.5-2")):
            with pytest.raises(ValueError, match=re.escape(
                    f"edge {named} has an end that is not an integer")):
                player_graph(3, given)

    def test_ends_past_intp_are_out_of_range(self):
        for end in (3, -10 ** 23, 10 ** 30, 1e30):
            with pytest.raises(ValueError, match=re.escape(
                    f"edge 0-{int(end)} out of range for 3 players")):
                player_graph(3, [(0, 1), (0, end)])
        with pytest.raises(ValueError, match=re.escape(
                f"edge 0-{2 ** 64 - 1} out of range for 3 players")):
            player_graph(3, np.array([[0, 1], [0, 2 ** 64 - 1]], np.uint64))
        with pytest.raises(ValueError, match=re.escape(
                f"self-loop {10 ** 30}-{10 ** 30} not allowed")):
            player_graph(3, [(10 ** 30, 10 ** 30)])

    def test_population_builders(self):
        graph = cycle_graph(4)
        assert all_cooperate(graph).cooperation_fraction() == 1.0
        assert all_defect(graph).cooperation_fraction() == 0.0
        lone = single_defector(graph)
        assert letters(lone) == (D, C, C, C)
        assert letters(random_population(graph, 0.0, seed=1)) == (D,) * 4
        assert letters(random_population(graph, 1.0, seed=1)) == (C,) * 4
        with pytest.raises(ValueError, match=r"in \[0, 1\], got 1.5"):
            random_population(graph, 1.5, seed=1)

    def test_population_length_checked(self):
        with pytest.raises(ValueError, match="expected 4 strategies"):
            PopulationState.from_strategies(cycle_graph(4), (C, C))
