"""The benchmark's oracle (``bench/oracles.py``) parses every line of a
``stability`` report and refuses one it does not know. This runs the
``stability`` operations of the benchmark's own plans through the CLI
and checks each report with that oracle, so a report change the oracle
refuses fails here and not only in a benchmark run. It runs in a
subprocess, as ``test_bench_bindings`` does, so that the benchmark's
modules stay off this process's import path."""

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
root, workload, work = sys.argv[1:]
sys.path[:0] = [root + "/src", root + "/bench"]
import inputs, oracles
from cournotgraph import cli
checked = {}
for op in inputs.make_plan(workload, 7, Path(root), Path(work))["ops"]:
    if not op["kind"].endswith("_stability"):
        continue
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(op["argv"])
    checked[op["name"]] = [code, err.getvalue(),
                           oracles.check(op, out.getvalue(), "")]
print(json.dumps(checked))
"""


@pytest.mark.parametrize("workload, names", [
    ("canonical", ["stability_stable", "stability_unstable",
                   "stability_two_firm"]),
    ("network", ["stability_241"]),
])
def test_stability_reports_pass_the_bench_oracle(workload, names, tmp_path):
    done = subprocess.run(
        [sys.executable, "-c", CONTRACT_RUN, str(ROOT), workload,
         str(tmp_path)],
        capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    checked = json.loads(done.stdout.splitlines()[-1])
    assert sorted(checked) == sorted(names)
    for name, result in checked.items():
        assert result == [0, "", None], name
