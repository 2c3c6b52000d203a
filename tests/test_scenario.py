from __future__ import annotations

import re
from pathlib import Path

import numpy as np
import pytest

from cournotgraph import (CanonicalScenario, NetworkScenario, PDScenario,
                          ScenarioError, parse_scenario, render_scenario,
                          scenario)
from cournotgraph.pdgame import (all_cooperate, all_defect, complete_graph,
                                 cycle_graph, player_graph, random_population,
                                 single_defector, torus_graph)
from helpers import letters, pairs

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
        assert sc.spec.speed == (1.0, 1.0)
        assert set(sc.spec.edges) == {(1, 1), (2, 1), (2, 2)}
        assert sc.q0 == (0.1, 0.3, 0.2)

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
        assert sc.graph == ("edges", ((0, 1), (1, 2)))
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
