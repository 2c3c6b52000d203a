"""The benchmark's oracle (``bench/oracles.py``) parses every line of a
``stability`` report and refuses one it does not know, replays the
imitation rule of every ``pd`` run in exact arithmetic, and checks each
row of a ``simulate`` CSV against its own integration. This runs the
``stability``, ``pd`` and trajectory operations of the benchmark's own
plans through the CLI and checks each output with that oracle, so a
report change the oracle refuses, a PD kernel that leaves the rule, or a
CSV that loses or moves rows fails here and not only in a benchmark run. It runs in a subprocess, as
``test_bench_bindings`` does, so that the benchmark's modules stay off
this process's import path."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

CONTRACT_RUN = """
import contextlib, io, json, sys
from pathlib import Path
root, workload, kind, work = sys.argv[1:]
sys.path[:0] = [root + "/src", root + "/bench"]
import inputs, oracles
from cournotgraph import cli
checked = {}
for op in inputs.make_plan(workload, 7, Path(root), Path(work))["ops"]:
    if not op["kind"].endswith(kind):
        continue
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(op["argv"])
    written = Path(op["out"]).read_text() if "out" in op else ""
    checked[op["name"]] = [code, err.getvalue(),
                           oracles.check(op, out.getvalue(), written)]
print(json.dumps(checked))
"""


def contract_run(workload: str, kind: str, work: Path) -> dict:
    done = subprocess.run(
        [sys.executable, "-c", CONTRACT_RUN, str(ROOT), workload, kind,
         str(work)],
        capture_output=True, text=True, timeout=120, cwd=work)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload, names", [
    ("canonical", ["stability_stable", "stability_unstable",
                   "stability_two_firm"]),
    ("network", ["stability_241"]),
])
def test_stability_reports_pass_the_bench_oracle(workload, names, tmp_path):
    checked = contract_run(workload, "_stability", tmp_path)
    assert sorted(checked) == sorted(names)
    for name, result in checked.items():
        assert result == [0, "", None], name


def test_pd_runs_pass_the_bench_oracle(tmp_path):
    # Every operation of the pd plan: both tori, the complete graph and
    # the shipped edge list, each series replayed in exact arithmetic.
    checked = contract_run("pd", "pd", tmp_path)
    assert sorted(checked) == ["pd_complete400", "pd_gas_transit",
                               "pd_torus100", "pd_torus40"]
    for name, result in checked.items():
        assert result[0] == 0 and result[2] is None, (name, result)
        assert result[1].startswith("pd: wrote "), name


@pytest.mark.parametrize("workload, names", [
    ("canonical", ["simulate_stable_rk4", "simulate_unstable_euler"]),
    ("network", ["simulate_960"]),
])
def test_trajectories_pass_the_bench_oracle(workload, names, tmp_path):
    checked = contract_run(workload, "_trajectory", tmp_path)
    assert sorted(checked) == sorted(names)
    for name, result in checked.items():
        assert result[0] == 0 and result[2] is None, (name, result)
        assert result[1].startswith("simulate: "), name
