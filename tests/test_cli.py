from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from cournotgraph import Trajectory
from cournotgraph.cli import main
from cournotgraph.reports import (pd_series_csv, sweep, sweep_csv,
                                  write_trajectory)
from cournotgraph.scenario import parse_scenario
from helpers import sweep_by_analyze, trajectory_csv_by_value

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
STABLE = SCENARIO_DIR / "canonical_stable.scenario"
NETWORK = SCENARIO_DIR / "two_firm_network.scenario"
PD = SCENARIO_DIR / "gas_transit_pd.scenario"


def run(*argv) -> int:
    return main([str(a) for a in argv])


class TestWriters:
    def test_trajectory_rows_and_thinning(self):
        traj = Trajectory(times=np.array([0.0, 0.1, 0.2]),
                          states=np.array([[1.0], [2.0], [3.0]]),
                          method="rk4", step=0.1)
        text = write_trajectory(traj, ("q11",), thin=1)
        assert text.splitlines() == ["t,q11", "0.0,1.0", "0.1,2.0", "0.2,3.0"]
        thinned = write_trajectory(traj, ("q11",), thin=2)
        assert thinned.splitlines() == ["t,q11", "0.0,1.0", "0.2,3.0"]

    def test_final_step_always_kept(self):
        traj = Trajectory(times=np.array([0.0, 1.0, 2.0, 3.0]),
                          states=np.zeros((4, 1)), method="rk4", step=1.0)
        lines = write_trajectory(traj, ("q11",), thin=3).splitlines()
        assert lines[-1].startswith("3.0,")
        assert len(lines) == 3  # header, t=0, t=3

    def test_two_state_trajectory_gives_three_lines(self):
        traj = Trajectory(times=np.array([0.0, 0.1]),
                          states=np.array([[1.0], [0.9]]),
                          method="rk4", step=0.1)
        assert len(write_trajectory(traj, ("q11",), thin=1).splitlines()) == 3

    def test_thin_must_be_positive(self):
        traj = Trajectory(times=np.array([0.0]), states=np.zeros((1, 1)),
                          method="rk4", step=1.0)
        with pytest.raises(ValueError):
            write_trajectory(traj, ("q11",), thin=0)

    def test_marginal_system_renders_marginal_verdict(self):
        from cournotgraph import AffineSystem, analyze
        from cournotgraph.reports import render_stability_report
        rotation = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0],
                             [0.0, 0.0, 1.0]])
        report = analyze(AffineSystem(constant=np.zeros(3), matrix=rotation))
        assert "verdict: MARGINAL" in render_stability_report(report)

    def test_non_cubic_system_reports_margin_only(self):
        from cournotgraph import NetworkSpec, analyze, to_affine
        from cournotgraph.reports import render_stability_report
        spec = NetworkSpec(2, 2, ((1, 1), (1, 2), (2, 1), (2, 2)),
                           alpha=(1.0, 1.0), beta=(0.2, 0.3),
                           gamma=(0.1, 0.4))
        report = analyze(to_affine(spec))
        assert report.hurwitz_pass is None
        assert len(report.char_coeffs) == 4
        text = render_stability_report(report)
        assert "n/a" in text
        assert "verdict: STABLE" in text
        assert "a4 = " in text

    def test_pd_series(self):
        assert pd_series_csv([0.5, 0.25]) == "step,coop_fraction\n0,0.5\n1,0.25\n"

    def test_sweep_error_rows_keep_grid_going(self):
        scenario = parse_scenario(STABLE.read_text(encoding="utf-8"))
        # det(A) crosses 0 at r4 = 0.14, inside the condition-number guard
        points = sweep(scenario, "r4", 0.14, 0.15, 2)
        assert [p.verdict for p in points] == ["ERROR", "UNSTABLE"]
        text = sweep_csv(points)
        assert text.splitlines()[1].endswith(",ERROR,nan")

    def test_sweep_grid_endpoints(self):
        scenario = parse_scenario(STABLE.read_text(encoding="utf-8"))
        points = sweep(scenario, "r3", 0.1, 1.5, 2)
        assert [p.value for p in points] == [0.1, 1.5]
        assert [p.verdict for p in points] == ["UNSTABLE", "STABLE"]

    def test_sweep_rejects_bad_grid(self):
        scenario = parse_scenario(STABLE.read_text(encoding="utf-8"))
        with pytest.raises(ValueError, match="strictly less"):
            sweep(scenario, "r3", 1.0, 1.0, 2)
        with pytest.raises(ValueError, match="at least 2"):
            sweep(scenario, "r3", 0.0, 1.0, 1)
        with pytest.raises(ValueError, match="param must be one of"):
            sweep(scenario, "r6", 0.0, 1.0, 2)

    def test_sweep_agrees_with_pointwise_analyze(self):
        import dataclasses
        from cournotgraph import analyze, canonical_affine
        scenario = parse_scenario(STABLE.read_text(encoding="utf-8"))
        points = sweep(scenario, "r3", 0.05, 2.0, 7)
        for p in points:
            r = dataclasses.replace(scenario.r, r3=p.value)
            report = analyze(canonical_affine(r), r)
            assert p.verdict == report.verdict.value
            assert p.eigen_margin == report.eigen_margin
        # Dense grids over every parameter, the r4 one across det A = 0
        # at r4 = 0.14: the same bytes as one analyze per point.
        verdicts = set()
        for param, start, stop, count in (("r1", -2.0, 2.0, 2000),
                                          ("r2", 0.01, 3.0, 2001),
                                          ("r3", 0.1, 1.5, 2000),
                                          ("r4", 0.13, 0.15, 2001),
                                          ("r5", -1.0, 1.0, 2000)):
            want = sweep_csv(sweep_by_analyze(scenario, param, start, stop, count))
            got = sweep_csv(sweep(scenario, param, start, stop, count))
            assert got == want, param
            verdicts.update(line.split(",")[1] for line in want.splitlines()[1:])
        assert verdicts == {"STABLE", "UNSTABLE", "ERROR"}

    def test_sweep_points_bounded_before_any_work(self, monkeypatch):
        from cournotgraph.reports import MAX_SWEEP_POINTS

        def unreachable(*args, **kwargs):
            raise AssertionError("np.arange reached")
        monkeypatch.setattr(np, "arange", unreachable)
        scenario = parse_scenario(STABLE.read_text(encoding="utf-8"))
        with pytest.raises(ValueError, match=f"at most {MAX_SWEEP_POINTS}"):
            sweep(scenario, "r3", 0.0, 1.0, MAX_SWEEP_POINTS + 1)
        with pytest.raises(AssertionError, match="np.arange reached"):
            sweep(scenario, "r3", 0.0, 1.0, MAX_SWEEP_POINTS)

    def test_sweep_with_non_finite_grid_values_is_rejected(self):
        scenario = parse_scenario(STABLE.read_text(encoding="utf-8"))
        # stop - start overflows, so the first grid value is 0 * inf
        with pytest.raises(ValueError, match="r3 must be finite, got nan"):
            sweep(scenario, "r3", -1e308, 1e308, 5)
        with pytest.raises(ValueError, match="r3 must be finite, got inf"):
            sweep(scenario, "r3", -1e300, 1.7e308, 3)

    @pytest.mark.parametrize("rows,width,thin", [(20001, 3, 1), (20001, 3, 3),
                                                 (2001, 3, 10), (1002, 3, 10),
                                                 (7, 1, 3), (3, 70000, 1)])
    def test_trajectory_csv_matches_per_value_rendering(self, rows, width, thin):
        # Thinning with and without a final row off the stride, and rows
        # wider than one rendering block.
        rng = np.random.default_rng(rows + width)
        states = rng.standard_normal((rows, width)) * 10.0 ** rng.integers(
            -300, 300, (rows, width))
        states[0, 0] = -0.0
        traj = Trajectory(times=np.arange(rows) * 0.01, states=states,
                          method="rk4", step=0.01)
        names = tuple(f"q{k}" for k in range(width))
        assert write_trajectory(traj, names, thin) == \
            trajectory_csv_by_value(traj, names, thin)

    def test_trajectory_csv_peak_memory_below_per_value_rendering(self):
        import tracemalloc
        rng = np.random.default_rng(5)
        traj = Trajectory(times=np.arange(20001) * 0.01,
                          states=rng.standard_normal((20001, 3)),
                          method="euler", step=0.01)
        names = ("q11", "q22", "q21")
        peaks = []
        for render in (trajectory_csv_by_value, write_trajectory):
            tracemalloc.start()
            try:
                render(traj, names, 1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < peaks[0]


class TestCommands:
    def test_simulate_reaches_reference_equilibrium(self, tmp_path, capsys):
        out = tmp_path / "traj.csv"
        assert run("simulate", "--scenario", STABLE, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,q11,q22,q21"
        assert len(lines) == 2002  # header + 2001 retained rows
        final = [float(v) for v in lines[-1].split(",")[1:]]
        assert np.allclose(final, (1.13636, 0.454545, 0.772727), atol=1e-4)

    def test_simulate_rejects_pd_scenario(self, tmp_path, capsys):
        code = run("simulate", "--scenario", PD, "--out", tmp_path / "x.csv")
        assert code == 2
        assert "requires a [network] or [canonical]" in capsys.readouterr().err

    def test_simulate_blowup_writes_partial_and_exits_3(self, tmp_path, capsys):
        out = tmp_path / "partial.csv"
        code = run("simulate", "--scenario", STABLE, "--dt", 3.0,
                   "--t-end", 300, "--thin", 1, "--out", out)
        assert code == 3
        assert "blew up" in capsys.readouterr().err
        assert out.exists()
        assert len(out.read_text().splitlines()) >= 2

    def test_size_limits_exit_2_before_allocating(self, monkeypatch, tmp_path,
                                                 capsys):
        from cournotgraph import scenario

        def unreachable(*args, **kwargs):
            raise AssertionError("allocation reached")
        for name in ("complete_graph", "player_graph"):
            monkeypatch.setattr(scenario, name, unreachable)
        monkeypatch.setattr(np, "empty", unreachable)
        huge = tmp_path / "huge.scenario"
        huge.write_text(PD.read_text().replace("graph = edges 0-1, 0-2",
                                               "graph = complete 100000"))
        assert run("pd", "--scenario", huge, "--out", tmp_path / "pd.csv") == 2
        assert "more than the limit of 1000000" in capsys.readouterr().err
        out = tmp_path / "x.csv"
        assert run("simulate", "--scenario", STABLE, "--t-end", 1e6,
                   "--dt", 1e-6, "--out", out) == 2
        assert "limit of 10000000 stored values" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "pd.csv").exists()

    def test_equilibrium_output(self, capsys):
        assert run("equilibrium", "--scenario", STABLE) == 0
        out = capsys.readouterr().out
        assert out.startswith("q11 = 1.136363636363636")
        assert "q21 = 0.77272727272727" in out

    def test_equilibrium_network_scenario(self, capsys):
        assert run("equilibrium", "--scenario", NETWORK) == 0
        assert capsys.readouterr().out.startswith("q11 = ")

    def test_stability_report_stable(self, capsys):
        assert run("stability", "--scenario", STABLE) == 0
        out = capsys.readouterr().out
        assert "verdict: STABLE" in out
        assert out.count("PASS") == 6  # both coefficient blocks pass
        assert "closed-form coefficients" in out

    def test_stability_report_unstable(self, capsys):
        unstable = SCENARIO_DIR / "canonical_unstable.scenario"
        assert run("stability", "--scenario", unstable) == 0
        out = capsys.readouterr().out
        assert "verdict: UNSTABLE" in out
        assert "FAIL" in out

    def test_stability_network_has_no_closed_form_block(self, capsys):
        assert run("stability", "--scenario", NETWORK) == 0
        out = capsys.readouterr().out
        assert "closed-form coefficients" not in out
        assert "verdict: STABLE" in out

    def test_singular_equilibrium_exits_3(self, tmp_path, capsys):
        bad = tmp_path / "singular.scenario"
        bad.write_text("[canonical]\nr = 1, 1, 1, 0.5, 0.5\nq0 = 0,0,0\n")
        assert run("equilibrium", "--scenario", bad) == 3
        assert "no unique equilibrium" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert run("stability", "--scenario", "no/such/file.scenario") == 2

    def test_parse_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.scenario"
        bad.write_text("[canonical]\nr = 1\nq0 = 0,0,0\n")
        assert run("stability", "--scenario", bad) == 2
        assert "exactly 5 values" in capsys.readouterr().err

    def test_pd_command(self, tmp_path, capsys):
        out = tmp_path / "pd.csv"
        assert run("pd", "--scenario", PD, "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "step,coop_fraction"
        assert len(lines) == 22  # header + steps + 1
        stdout = capsys.readouterr().out
        assert "minimum sigma for cooperate-dominance: 2.0" in stdout
        assert "with payment: C" in stdout

    def test_pd_rejects_network_scenario(self, tmp_path, capsys):
        assert run("pd", "--scenario", NETWORK, "--out", tmp_path / "x.csv") == 2

    def test_sweep_command(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--scenario", STABLE, "--param", "r3",
                   "--from", 0.1, "--to", 1.5, "--points", 2,
                   "--out", out) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "value,verdict,eigen_margin"
        assert lines[1].startswith("0.1,UNSTABLE,")
        assert lines[2].startswith("1.5,STABLE,")

    def test_sweep_bad_grid_exits_2(self, tmp_path, capsys):
        code = run("sweep", "--scenario", STABLE, "--param", "r3",
                   "--from", 1.0, "--to", 1.0, "--points", 2,
                   "--out", tmp_path / "x.csv")
        assert code == 2

    def test_sweep_requires_canonical(self, tmp_path, capsys):
        code = run("sweep", "--scenario", NETWORK, "--param", "r3",
                   "--from", 0.1, "--to", 1.0, "--points", 2,
                   "--out", tmp_path / "x.csv")
        assert code == 2

    def test_repeated_simulate_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("simulate", "--scenario", STABLE, "--t-end", 5, "--out", a)
        run("simulate", "--scenario", STABLE, "--t-end", 5, "--out", b)
        assert a.read_bytes() == b.read_bytes()


class TestCommandRoutes:
    @pytest.fixture
    def no_analyze(self, monkeypatch):
        from cournotgraph import cli, reports, stability

        def forbidden(*args, **kwargs):
            raise AssertionError("equilibrium must not run the stability analysis")
        for module in (cli, stability):
            monkeypatch.setattr(module, "analyze", forbidden)
        # reports no longer imports analyze; patch it there all the same
        monkeypatch.setattr(reports, "analyze", forbidden, raising=False)

    def test_equilibrium_never_calls_analyze(self, no_analyze, capsys):
        assert run("equilibrium", "--scenario", STABLE) == 0
        assert capsys.readouterr().out.startswith("q11 = 1.136363636363636")
        assert run("equilibrium", "--scenario", NETWORK) == 0
        assert capsys.readouterr().out.splitlines()[0].startswith("q11 = ")

    def test_simulate_and_sweep_take_the_array_routes(self, monkeypatch,
                                                       tmp_path, capsys):
        from cournotgraph import AffineSystem, stability
        calls = []
        for owner, name in ((AffineSystem, "field_at"), (stability, "analyze"),
                            (stability, "equilibrium")):
            original = getattr(owner, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)
        assert run("simulate", "--scenario", STABLE, "--out",
                   tmp_path / "t.csv") == 0
        assert run("sweep", "--scenario", STABLE, "--param", "r4", "--from",
                   0.13, "--to", 0.15, "--points", 201, "--out",
                   tmp_path / "s.csv") == 0
        assert ",ERROR,nan" in (tmp_path / "s.csv").read_text()
        assert calls == []

    def test_simulate_blowup_prefix_matches_field_route(self, tmp_path, capsys):
        from cournotgraph import IntegrationBlowUp, canonical_affine, integrate
        scenario = parse_scenario(STABLE.read_text(encoding="utf-8"))
        out = tmp_path / "partial.csv"
        assert run("simulate", "--scenario", STABLE, "--dt", 3, "--t-end", 40,
                   "--thin", 1, "--out", out) == 3
        assert "error: state blew up at t=27.0 (max |q| = " in capsys.readouterr().err
        system = canonical_affine(scenario.r)
        with pytest.raises(IntegrationBlowUp) as info:
            integrate(system.field_at, scenario.q0, 40.0, 3.0)
        want = info.value.trajectory
        got = np.loadtxt(out, delimiter=",", skiprows=1, ndmin=2)
        assert np.array_equal(got[:, 0], want.times)
        scale = np.maximum(1.0, np.max(np.abs(want.states), axis=1))
        gap = np.max(np.abs(got[:, 1:] - want.states), axis=1) / scale
        assert float(np.max(gap)) <= 1e-12

    def test_equilibrium_singular_still_exits_3(self, no_analyze, tmp_path, capsys):
        bad = tmp_path / "singular.scenario"
        bad.write_text("[canonical]\nr = 1, 1, 1, 0.5, 0.5\nq0 = 0,0,0\n")
        assert run("equilibrium", "--scenario", bad) == 3
        assert "no unique equilibrium" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--t-end", "--dt"])
    @pytest.mark.parametrize("value", ["inf", "nan", "-inf", "1e400"])
    def test_non_finite_time_flags_exit_2(self, flag, value, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run("simulate", "--scenario", STABLE, "--out", tmp_path / "x.csv",
                f"{flag}={value}")
        assert exc.value.code == 2
        assert f"argument {flag}: must be finite" in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_pd_builds_the_player_graph_once(self, monkeypatch, tmp_path, capsys):
        from cournotgraph import scenario
        builds = []
        for name in ("complete_graph", "cycle_graph", "torus_graph", "player_graph"):
            original = getattr(scenario, name)

            def counted(*args, _original=original, **kwargs):
                builds.append(_original)
                return _original(*args, **kwargs)
            monkeypatch.setattr(scenario, name, counted)
        complete = tmp_path / "complete.scenario"
        complete.write_text(PD.read_text().replace("graph = edges 0-1, 0-2",
                                                   "graph = complete 30"))
        for path in (PD, complete):
            builds.clear()
            assert run("pd", "--scenario", path, "--out", tmp_path / "pd.csv") == 0
            assert len(builds) == 1
