from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

from cournotgraph import (CanonicalScenario, NetworkScenario, PDScenario,
                          ScenarioError, parse_scenario, scenario)
from cournotgraph.pdgame import (PayoffMatrix, all_cooperate, all_defect,
                                 complete_graph, cycle_graph, player_graph, random_population,
                                 single_defector, torus_graph)
from helpers import as_pairs, letters, pairs, render_scenario

ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = ROOT / "scenarios"

CANONICAL_TEXT = """\
# reference parameter point
[canonical]
r = 0.2, 0.5, 1.5, -0.3, 0.4
q0 = 0.1, 0.2, 0.3
"""

NETWORK_TEXT = """\
[network]
markets = 2
firms = 2
edges = 1:1, 2:1, 2:2
alpha = 1, 1
beta = 0.2, 0.3
gamma = 0.1, 0.4
q0 = 0.1, 0.3, 0.2
"""

PD_TEXT = """\
[pd]
payoff = 3, 0, 5, 1
graph = torus 4 4
init = random 0.5 42
steps = 10
side_payment = 2.5
"""


class TestParse:
    def test_canonical(self):
        sc = parse_scenario(CANONICAL_TEXT)
        assert isinstance(sc, CanonicalScenario)
        assert sc.r.as_tuple() == (0.2, 0.5, 1.5, -0.3, 0.4)
        assert sc.q0 == (0.1, 0.2, 0.3)

    def test_network_with_default_speed(self):
        sc = parse_scenario(NETWORK_TEXT)
        assert isinstance(sc, NetworkScenario)
        assert sc.spec.speed.tolist() == [1.0, 1.0]
        assert set(as_pairs(sc.spec.edges)) == {(1, 1), (2, 1), (2, 2)}
        assert sc.q0.tolist() == [0.1, 0.3, 0.2]

    def test_pd(self):
        sc = parse_scenario(PD_TEXT)
        assert isinstance(sc, PDScenario)
        assert sc.graph == ("torus", 4, 4)
        assert sc.init == ("random", 0.5, 42)
        assert sc.steps == 10
        assert sc.side_payment == 2.5
        assert sc.build_graph().player_count == 16

    def test_pd_explicit_edges(self):
        sc = parse_scenario("[pd]\npayoff = 3,0,5,1\ngraph = edges 0-1, 1-2\n"
                            "init = all_c\nsteps = 5\n")
        assert sc.graph[0] == "edges"
        assert as_pairs(sc.graph[1]) == ((0, 1), (1, 2))
        assert sc.build_graph().player_count == 3
        assert letters(sc.build_population(sc.build_graph())) == ("C",) * 3

    def test_comments_and_blank_lines_ignored(self):
        noisy = "\n# leading comment\n[canonical]\nr = 1,1,2,0,0  # inline\n\nq0 = 0,0,0\n"
        assert parse_scenario(noisy).r.r3 == 2.0

    def test_byte_order_mark_tolerated(self):
        assert parse_scenario("﻿" + CANONICAL_TEXT).r.r1 == 0.2

    def test_crlf_line_endings_tolerated(self):
        assert parse_scenario(CANONICAL_TEXT.replace("\n", "\r\n")).q0 == \
            (0.1, 0.2, 0.3)


# Every [pd] graph and init form, with the pdgame call that makes it.
GRAPH_FORMS = {
    "complete 5": lambda: complete_graph(5),
    "cycle 6": lambda: cycle_graph(6),
    "torus 3 4": lambda: torus_graph(3, 4),
    "edges 0-1, 2-1, 3-0": lambda: player_graph(4, ((0, 1), (2, 1), (3, 0))),
}
INIT_FORMS = {
    "all_c": all_cooperate,
    "all_d": all_defect,
    "single_defector": single_defector,
    "random 0.25 9": lambda graph: random_population(graph, 0.25, 9),
}


def pd_text(graph: str = "torus 4 4", init: str = "random 0.5 42",
            steps: int = 10) -> str:
    return (PD_TEXT.replace("graph = torus 4 4", f"graph = {graph}")
            .replace("init = random 0.5 42", f"init = {init}")
            .replace("steps = 10", f"steps = {steps}"))


class TestForms:
    def test_every_declared_form_is_covered(self):
        assert {g.split()[0] for g in GRAPH_FORMS} == {*scenario._GRAPHS, "edges"}
        assert {i.split()[0] for i in INIT_FORMS} == set(scenario._INITS)

    @pytest.mark.parametrize("init", INIT_FORMS)
    @pytest.mark.parametrize("graph", GRAPH_FORMS)
    def test_form_round_trips_and_builds_as_its_function(self, graph, init):
        sc = parse_scenario(pd_text(graph, init))
        assert parse_scenario(render_scenario(sc)) == sc
        expected = GRAPH_FORMS[graph]()
        built = sc.build_graph()
        assert built.player_count == expected.player_count
        assert pairs(built) == pairs(expected)
        assert np.array_equal(sc.build_population(built).cooperates,
                              INIT_FORMS[init](expected).cooperates)


class TestParseErrors:
    def test_invariant_violation_names_field(self):
        text = NETWORK_TEXT.replace("beta = 0.2, 0.3", "beta = 0, 0.3")
        with pytest.raises(ScenarioError, match=r"beta\[1\]"):
            parse_scenario(text)

    def test_unknown_key_with_line_number(self):
        with pytest.raises(ScenarioError, match="line 3: unknown key 'rr'"):
            parse_scenario("[canonical]\nr = 1,1,1,0,0\nrr = 5\nq0 = 0,0,0\n")

    def test_duplicate_key(self):
        with pytest.raises(ScenarioError, match="duplicate key 'q0'"):
            parse_scenario("[canonical]\nr = 1,1,1,0,0\nq0 = 0,0,0\nq0 = 1,1,1\n")

    def test_multiple_sections(self):
        with pytest.raises(ScenarioError, match="multiple sections"):
            parse_scenario(CANONICAL_TEXT + "\n[pd]\n")

    def test_unknown_section(self):
        with pytest.raises(ScenarioError, match=r"unknown section \[foo\]"):
            parse_scenario("[foo]\nx = 1\n")

    def test_no_section(self):
        with pytest.raises(ScenarioError, match="no section header"):
            parse_scenario("# nothing here\n")

    def test_key_before_section(self):
        with pytest.raises(ScenarioError, match="line 1: key before any section"):
            parse_scenario("r = 1,1,1,0,0\n[canonical]\n")

    def test_malformed_line(self):
        with pytest.raises(ScenarioError, match="line 2: expected 'key = value'"):
            parse_scenario("[canonical]\njust words\n")

    def test_bad_number_with_line(self):
        with pytest.raises(ScenarioError, match="line 2: r: 'abc'"):
            parse_scenario("[canonical]\nr = 1, abc, 1, 0, 0\nq0 = 0,0,0\n")

    def test_non_finite_number_rejected(self):
        with pytest.raises(ScenarioError, match="finite"):
            parse_scenario("[canonical]\nr = 1, inf, 1, 0, 0\nq0 = 0,0,0\n")

    def test_wrong_r_count(self):
        with pytest.raises(ScenarioError, match="exactly 5 values"):
            parse_scenario("[canonical]\nr = 1, 1, 1\nq0 = 0,0,0\n")

    def test_wrong_q0_length_network(self):
        text = NETWORK_TEXT.replace("q0 = 0.1, 0.3, 0.2", "q0 = 0.1, 0.3")
        with pytest.raises(ScenarioError, match="one value per edge"):
            parse_scenario(text)

    def test_missing_required_key(self):
        with pytest.raises(ScenarioError, match="missing key 'q0'"):
            parse_scenario("[canonical]\nr = 1,1,1,0,0\n")

    def test_bad_edge_token(self):
        text = NETWORK_TEXT.replace("edges = 1:1, 2:1, 2:2", "edges = 1.1, 2:1")
        with pytest.raises(ScenarioError, match="edges"):
            parse_scenario(text)

    def test_payoff_ordering_enforced(self):
        text = PD_TEXT.replace("payoff = 3, 0, 5, 1", "payoff = 3, 0, 2, 1")
        with pytest.raises(ScenarioError, match="T > R > U > S"):
            parse_scenario(text)

    @pytest.mark.parametrize("graph, init, message", [
        ("complete", "all_c", "line 3: graph: expected 'complete N'"),
        ("complete 5 6", "all_c", "line 3: graph: expected 'complete N'"),
        ("cycle", "all_c", "line 3: graph: expected 'cycle N'"),
        ("torus 4", "all_c", "line 3: graph: expected 'torus W H'"),
        ("torus 4 4", "random 0.5", "line 4: init: expected 'random FRACTION SEED'"),
        ("torus 4 4", "all_c 1", "line 4: init: expected 'all_c'"),
    ])
    def test_wrong_form_arity(self, graph, init, message):
        with pytest.raises(ScenarioError, match=f"^{re.escape(message)}$"):
            parse_scenario(pd_text(graph, init))

    def test_unknown_graph_form(self):
        text = PD_TEXT.replace("graph = torus 4 4", "graph = lattice 4 4")
        with pytest.raises(ScenarioError, match="unknown form 'lattice'"):
            parse_scenario(text)

    def test_self_loop_edges_rejected(self):
        with pytest.raises(ScenarioError, match="self-loop"):
            parse_scenario("[pd]\npayoff = 3,0,5,1\ngraph = edges 0-0\n"
                           "init = all_c\nsteps = 1\n")

    def test_bad_init_fraction(self):
        text = PD_TEXT.replace("init = random 0.5 42", "init = random 1.5 42")
        with pytest.raises(ScenarioError, match=r"fraction must be in \[0, 1\]"):
            parse_scenario(text)

    def test_negative_side_payment(self):
        text = PD_TEXT.replace("side_payment = 2.5", "side_payment = -1")
        with pytest.raises(ScenarioError, match="side_payment must be nonnegative"):
            parse_scenario(text)

    def test_empty_init_rejected(self):
        text = PD_TEXT.replace("init = random 0.5 42", "init =")
        with pytest.raises(ScenarioError, match="init: value is empty"):
            parse_scenario(text)

    def test_negative_steps(self):
        text = PD_TEXT.replace("steps = 10", "steps = -1")
        with pytest.raises(ScenarioError, match="steps must be nonnegative"):
            parse_scenario(text)

    def test_steps_bounded(self):
        # The reads bound is the one bound on steps: torus 4 4 reads up to
        # 16 + 2 * 32 entries a step and is charged 2400 more.
        steps = scenario.MAX_PD_READS // (16 + 2 * 32 + scenario.PD_STEP_READS)
        limit = PD_TEXT.replace("steps = 10", f"steps = {steps}")
        assert parse_scenario(limit).steps == steps
        for too_many in (steps + 1, 10 ** 30):
            text = PD_TEXT.replace("steps = 10", f"steps = {too_many}")
            with pytest.raises(ScenarioError, match=f"^line 5: steps: {too_many} "
                               f"steps of 'torus 4 4' count as "):
                parse_scenario(text)

    def test_reads_bounded(self):
        # torus 10 25 has 250 players and 500 edges: 1250 entries a step,
        # and each step is charged 2400 more for its fixed cost.
        assert scenario.PD_STEP_READS == 2400
        steps = scenario.MAX_PD_READS // (1250 + 2400)
        assert parse_scenario(pd_text("torus 10 25", steps=steps)).steps == steps
        reads = (1250 + 2400) * (steps + 1)
        with pytest.raises(ScenarioError, match=(
                rf"^line 5: steps: {steps + 1} steps of 'torus 10 25' count as "
                rf"{reads} reads \(up to 1250 neighborhood entries and 2400 for "
                rf"the fixed cost of each step\), more than the limit of "
                rf"{scenario.MAX_PD_READS}$")):
            parse_scenario(pd_text("torus 10 25", steps=steps + 1))

    def test_wide_payoffs_pay_the_ordinary_charge(self):
        # A step compares ranks of the exact totals, whatever their size,
        # so the payoffs do not enter the reads bound: with T = 2^58 a
        # path and a matching both take 20 000 steps of up to 8 entries
        # and 2400, about 4.8e7 reads.
        m = PayoffMatrix(R=2.0 ** 57, S=0, T=2.0 ** 58, U=1)
        for graph in ("edges 0-1, 2-3", "edges 0-1, 1-2"):
            text = pd_text(graph, init="all_c", steps=20000).replace(
                "payoff = 3, 0, 5, 1", f"payoff = {2 ** 57}, 0, {2 ** 58}, 1")
            assert parse_scenario(text).payoff == m

    @pytest.mark.parametrize("graph, steps", [  # the pd benchmark's runs
        ("torus 100 100", 20), ("torus 40 40", 30), ("complete 400", 5)])
    def test_reads_bound_admits(self, graph, steps):
        assert parse_scenario(pd_text(graph, steps=steps)).steps == steps

    def test_graph_size_limits_checked_before_building(self, monkeypatch):
        from cournotgraph import scenario
        built = []
        for name in ("complete_graph", "cycle_graph", "torus_graph",
                     "player_graph"):
            monkeypatch.setattr(scenario, name,
                                lambda *args, _name=name: built.append(_name))
        edges, players = scenario.MAX_PLAYER_EDGES, scenario.MAX_PLAYERS
        for graph, limit in (("complete 1415", edges), ("cycle 1000001", edges),
                             ("torus 1000 1000", edges),
                             ("edges 0-1000000", players)):
            text = PD_TEXT.replace("graph = torus 4 4", f"graph = {graph}")
            with pytest.raises(ScenarioError, match=f"more than the limit of {limit}"):
                parse_scenario(text)
        assert built == []
        # The largest forms at or under the limits reach their builders.
        for graph in ("complete 1414", "cycle 1000000", "torus 707 707",
                      "edges 0-999999"):
            parse_scenario(PD_TEXT.replace("graph = torus 4 4", f"graph = {graph}"))
        assert built == ["complete_graph", "cycle_graph", "torus_graph",
                         "player_graph"]


class TestRoundTrip:
    @pytest.mark.parametrize("name", ["canonical_stable", "canonical_unstable",
                                      "two_firm_network", "gas_transit_pd"])
    def test_shipped_scenarios_round_trip(self, name):
        text = (SCENARIO_DIR / f"{name}.scenario").read_text(encoding="utf-8")
        scenario = parse_scenario(text)
        rendered = render_scenario(scenario)
        assert parse_scenario(rendered) == scenario
        assert render_scenario(parse_scenario(rendered)) == rendered

    @pytest.mark.parametrize("text", [CANONICAL_TEXT, NETWORK_TEXT, PD_TEXT])
    def test_inline_scenarios_round_trip(self, text):
        scenario = parse_scenario(text)
        rendered = render_scenario(scenario)
        assert parse_scenario(rendered) == scenario
        assert render_scenario(parse_scenario(rendered)) == rendered
        # A value of another type is unequal, and comparing raises nothing.
        assert scenario != rendered and not scenario == rendered
        if isinstance(scenario, NetworkScenario):
            assert scenario.spec != scenario and scenario != scenario.spec


class TestListsAtScale:
    def test_valid_lists_make_no_per_token_call(self, monkeypatch):
        # A [network] of 200 000 edges reads and assembles with as many
        # per-token calls as one of 6 edges: the two counts alone.
        from cournotgraph import to_affine
        calls = {}
        for name in ("_int", "_float"):
            def counted(*args, _name=name, _read=getattr(scenario, name)):
                calls[_name] = calls.get(_name, 0) + 1
                return _read(*args)
            monkeypatch.setattr(scenario, name, counted)
        counts = []
        for markets, firms in ((2, 3), (400, 500)):
            n = markets * firms
            edges = ", ".join(f"{i}:{j}" for i in range(1, markets + 1)
                              for j in range(1, firms + 1))
            text = (f"[network]\nmarkets = {markets}\nfirms = {firms}\n"
                    f"edges = {edges}\nalpha = {', '.join(['1.5'] * markets)}\n"
                    f"beta = {', '.join(['0.5'] * markets)}\n"
                    f"gamma = {', '.join(['0.25'] * firms)}\n"
                    f"q0 = {', '.join(['0.1'] * n)}\n")
            calls.clear()
            assert to_affine(parse_scenario(text).spec).dimension == n
            counts.append(dict(calls))
        assert counts == [{"_int": 2}, {"_int": 2}]

    def test_a_pair_list_holds_one_list_of_strings_at_a_time(self):
        # 6·10^4 pairs of ends up to 4 digits, just over one slice of
        # _SLICE_CHARS: the peak is that slice's list of 1.2·10^5 end
        # strings with its text and the result (about 153 bytes a pair);
        # the slice's token list kept beside them would add about 64.
        import tracemalloc
        n = 60_000
        value = ", ".join(f"{k % 997 + 1}:{k % 1093 + 1}" for k in range(n))
        scenario._pairs("1:2, 3:4", ":", 1, "edges")
        tracemalloc.start()
        try:
            pairs = scenario._pairs(value, ":", 1, "edges")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pairs.shape == (n, 2) and pairs.dtype == np.intp
        assert peak < 160 * n, peak / n

    def test_a_pair_list_holds_one_slice_of_strings_at_a_time(self):
        # 2.5·10^5 pairs span four slices and a bit: the peak is the array
        # and one slice's strings, about 49 bytes a pair; holding every
        # end string at once made it about 137.
        import tracemalloc
        n = 250_000
        value = ", ".join(f"{k % 997 + 1}:{k % 1093 + 1}" for k in range(n))
        assert value.count(",", 0, 4 * scenario._SLICE_CHARS) < n - 1
        scenario._pairs("1:2, 3:4", ":", 1, "edges")
        tracemalloc.start()
        try:
            pairs = scenario._pairs(value, ":", 1, "edges")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert as_pairs(pairs) == tuple((k % 997 + 1, k % 1093 + 1)
                                        for k in range(n))
        assert peak < 64 * n, peak / n

    def test_parsed_edges_are_the_specs_own(self, monkeypatch):
        # The reader hands its (n, 2) array over, and the spec holds it
        # uncopied, by network._frozen's rule.
        read, pairs = [], scenario._pairs

        def recorded(*args):
            read.append(pairs(*args))
            return read[-1]
        monkeypatch.setattr(scenario, "_pairs", recorded)
        edges = parse_scenario(NETWORK_TEXT).spec.edges
        assert read and edges is read[0]
        assert edges.flags.owndata and not edges.flags.writeable
        assert edges.dtype == np.intp and as_pairs(edges) == ((1, 1), (2, 1), (2, 2))

    def test_a_number_list_holds_one_slice_of_strings_at_a_time(self):
        # 10^5 numbers of about 21 characters: the peak is the array and
        # one slice's token strings, about 33 bytes a value; holding every
        # token string at once made it about 86.
        import tracemalloc
        n = 100_000
        rng = np.random.default_rng(5)
        value = ", ".join(map(repr, rng.uniform(0, 0.1, n).tolist()))
        scenario._floats("1, 2", 1, "q0")
        tracemalloc.start()
        try:
            values = scenario._floats(value, 1, "q0")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert values.tolist() == [float(t) for t in value.split(",")]
        assert peak < 48 * n, peak / n

    @pytest.mark.parametrize("chars", [1, 2, 5])
    def test_a_number_list_in_short_slices_reads_as_token_by_token(
            self, monkeypatch, chars):
        # Slices of a few characters cut these lists at nearly every
        # comma: the values, and each error with its first bad token,
        # are those of the per-token oracle.
        from helpers import floats_by_token
        monkeypatch.setattr(scenario, "_SLICE_CHARS", chars)
        for value in ("0.5", "1, 2.5,3 , -4e3,0.125", "1,,2", "1, 2, abc, 4",
                      "1, 2, 3, inf", "1,2,", "", ",", " 7 ,8e-1, 1e400"):
            try:
                want = floats_by_token(value, 4, "q0")
            except ScenarioError as exc:
                with pytest.raises(ScenarioError, match=re.escape(str(exc))):
                    scenario._floats(value, 4, "q0")
            else:
                assert scenario._floats(value, 4, "q0").tolist() == list(want)


    @pytest.mark.parametrize("chars", [1, 2, 5, 64])
    def test_a_pair_list_in_short_slices_reads_as_token_by_token(
            self, monkeypatch, chars):
        # A token with no separator, one with two, an end past intp and
        # others that only the token reader refuses, each past the first
        # slice of a list of 40 pairs: the pairs, and each error with its
        # first bad token, are those of the per-token oracle.
        from helpers import pairs_by_token
        monkeypatch.setattr(scenario, "_SLICE_CHARS", chars)
        head = ", ".join(f"{k}:{k % 7 + 1}" for k in range(1, 41))
        for sep in (":", "-"):
            good = head.replace(":", sep)
            for value in (good, f"{good}, 7", f"{good}, 1{sep}2{sep}3",
                          f"{good}, 1{sep}{2 ** 70}", f"{good}, 1{sep}x",
                          f"{good},, 1{sep}2", f"{good},", f" 3 {sep} 4 ,{good}",
                          f"{good}, 1{sep}2 3", f"9{sep}9", "", ","):
                try:
                    want = pairs_by_token(value, sep, 4, "edges")
                except ScenarioError as exc:
                    with pytest.raises(ScenarioError, match=re.escape(str(exc))):
                        scenario._pairs(value, sep, 4, "edges")
                else:
                    got = scenario._pairs(value, sep, 4, "edges")
                    assert as_pairs(got) == want
                    assert got.dtype == (object if str(2 ** 70) in value
                                         else np.intp)

class TestReadme:
    """README's "Scenario files" section states the format as ``scenario``
    declares it: every section key and form, and the value of each limit."""

    SECTION = ((ROOT / "README.md").read_text(encoding="utf-8")
               .split("## Scenario files\n", 1)[1].split("\n## ", 1)[0])
    LIMITS = ("MAX_PLAYERS", "MAX_PLAYER_EDGES", "MAX_PD_READS")

    def test_names_every_key_and_form(self):
        for section, keys in scenario._KEYS.items():
            assert f"`[{section}]`" in self.SECTION
            for key in keys:
                assert f"`{key}`" in self.SECTION, key
        for kind, form in [*scenario._GRAPHS.items(), *scenario._INITS.items()]:
            assert f"`{' '.join((kind, *form.args))}`" in self.SECTION, kind

    def test_quotes_each_limit_at_its_value(self):
        quoted = re.findall(r"(\d[\d\s]*\d)\s[a-z\s-]*\(`scenario\.(MAX_\w+)`",
                            self.SECTION)
        assert sorted(name for _, name in quoted) == sorted(self.LIMITS)
        assert set(re.findall(r"scenario\.(MAX_\w+)", self.SECTION)) == set(self.LIMITS)
        for value, name in quoted:
            assert int(re.sub(r"\s", "", value)) == getattr(scenario, name), name
