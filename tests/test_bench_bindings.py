"""The benchmark's tracer (``bench/tracing.py``) wraps package functions
by name. This runs it against the checkout, so a refactor that renames
or deletes a wrapped name, or stops calling one, fails here and not only
in a traced benchmark run. It runs in a subprocess because ``install``
patches the package for the whole process."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TRACED_RUN = """
import json, sys
root, network, out = sys.argv[1:]
sys.path[:0] = [root + "/src", root + "/bench"]
import tracing
tracer = tracing.Tracer()
main = tracing.install(tracer)
scenario = root + "/scenarios/canonical_stable.scenario"
codes = [main(["stability", "--scenario", scenario]),
         main(["simulate", "--scenario", network, "--t-end", "0.05",
               "--dt", "0.01", "--out", out])]
print(json.dumps({"codes": codes, "metrics": tracer.metrics(0)}))
"""

# The network path: a network command assembles through cli.to_affine,
# and the library's field through cournot.vector_field.
TRACED_NETWORK_RUN = """
import json, sys
root = sys.argv[1]
sys.path[:0] = [root + "/src", root + "/bench"]
import tracing
tracer = tracing.Tracer()
main = tracing.install(tracer)
from cournotgraph import NetworkSpec, cournot
codes = [main(["stability", "--scenario",
               root + "/scenarios/two_firm_network.scenario"])]
spec = NetworkSpec(2, 2, ((1, 1), (2, 1), (2, 2)), (1.0, 1.0), (0.2, 0.3),
                   (0.1, 0.4))
field = cournot.vector_field(spec, [0.1, 0.3, 0.2]).tolist()
print(json.dumps({"codes": codes, "field": field,
                  "metrics": tracer.metrics(0)}))
"""


def _complete_network(markets: int, firms: int) -> str:
    """A [network] scenario on every market:firm edge, unit parameters."""
    edges = ", ".join(f"{i}:{j}" for i in range(1, markets + 1)
                      for j in range(1, firms + 1))
    return (f"[network]\nmarkets = {markets}\nfirms = {firms}\n"
            f"edges = {edges}\nalpha = {', '.join(['1'] * markets)}\n"
            f"beta = {', '.join(['1'] * markets)}\n"
            f"gamma = {', '.join(['1'] * firms)}\n"
            f"q0 = {', '.join(['0.1'] * (markets * firms))}\n")


def test_traced_stability_and_simulate_reach_the_wrapped_layers(tmp_path):
    network = tmp_path / "complete.scenario"
    network.write_text(_complete_network(16, 19), encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(ROOT), str(network),
         str(tmp_path / "x.csv")],
        capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    record = json.loads(done.stdout.splitlines()[-1])
    assert record["codes"] == [0, 0]
    metrics = record["metrics"]
    assert metrics["stability.analyze_calls"] == 1
    for name in ("cli.self_s", "scenario.parse_s", "stability.analyze_s",
                 "stability.equilibrium_s", "stability.char_poly_s",
                 "stability.eigen_margin_s", "reports.render_s",
                 "dynamics.integrate_s",
                 "reports.write_trajectory_s"):
        assert metrics[name] > 0.0, name
    # Five steps of a 304-edge network take the matrix-free field route:
    # four evaluations per rk4 step.
    assert metrics["dynamics.steps"] == 5
    assert metrics["dynamics.field_evals"] == 20


def test_traced_network_run_reaches_assembly_and_field(tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", TRACED_NETWORK_RUN, str(ROOT)],
        capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    record = json.loads(done.stdout.splitlines()[-1])
    assert record["codes"] == [0]
    assert len(record["field"]) == 3
    metrics = record["metrics"]
    assert metrics["stability.analyze_calls"] == 1
    for name in ("network.to_affine_s", "cournot.vector_field_s",
                 "stability.analyze_s", "stability.eigen_margin_s",
                 "reports.render_s"):
        assert metrics[name] > 0.0, name


# The pd path: cli.cmd_pd builds the graph through PDScenario.build_graph,
# and run_spatial calls the module-level pdgame.imitation_step each step.
TRACED_PD_RUN = """
import json, sys
root, torus, out = sys.argv[1:]
sys.path[:0] = [root + "/src", root + "/bench"]
import tracing
tracer = tracing.Tracer()
main = tracing.install(tracer)
codes = [main(["pd", "--scenario", root + "/scenarios/gas_transit_pd.scenario",
               "--out", out]),
         main(["pd", "--scenario", torus, "--out", out])]
print(json.dumps({"codes": codes, "metrics": tracer.metrics(0)}))
"""


def test_traced_pd_run_reaches_the_step_and_graph_spans(tmp_path):
    torus = tmp_path / "torus.scenario"
    torus.write_text("[pd]\npayoff = 3, 0, 5, 1\ngraph = torus 10 10\n"
                     "init = random 0.5 7\nsteps = 5\n", encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-c", TRACED_PD_RUN, str(ROOT), str(torus),
         str(tmp_path / "pd.csv")],
        capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    record = json.loads(done.stdout.splitlines()[-1])
    assert record["codes"] == [0, 0]
    metrics = record["metrics"]
    for name in ("pdgame.imitation_step_s", "pdgame.player_updates",
                 "pdgame.graph_build_s"):
        assert metrics[name] > 0, name
