"""Benchmark worker: one fresh process that runs one workload's rounds.

    python3 bench/worker.py --setup     print the monotonic time at which
                                        ``import cournotgraph`` completed
    python3 bench/worker.py JOB.json    run the job ``run.py`` wrote

The worker only runs the program: an untimed warm-up round, then the
job's fixed number of timed rounds. Before each timed round it prints
``ready`` and waits for ``go`` on stdin, so ``run.py`` can time a
start-up while the worker is idle. After each round it files every
distinct output under the job's keep directory for ``run.py`` to check,
so neither checking nor input generation adds to its CPU time or its
peak resident set.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import cournotgraph  # noqa: E402,F401

IMPORTED = time.monotonic()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402
from cournotgraph import cli, cournot  # noqa: E402
from cournotgraph.network import NetworkSpec  # noqa: E402

import inputs  # noqa: E402
import tracing  # noqa: E402


class Runner:
    """Runs the plan's operations and files their outputs."""

    def __init__(self, job: dict):
        self.ops = job["plan"]["ops"]
        self.keep = Path(job["keep"])
        self.tracer = tracing.Tracer() if job["trace"] else None
        self.main = tracing.install(self.tracer) if self.tracer else cli.main
        self.kept: dict[tuple, str] = {}

    def _vf_inputs(self, op: dict, index: int):
        net = inputs.vf_network(op["net"], index)
        spec = NetworkSpec(net["markets"], net["firms"],
                           tuple(tuple(e) for e in net["edges"]), net["alpha"],
                           net["beta"], net["gamma"], net["speed"])
        return spec, [np.array(q) for q in inputs.vf_states(op["net"])]

    def _cli(self, argv: list[str]) -> dict:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.main(argv)
            except SystemExit as exc:
                rc = exc.code
            except Exception:  # recorded as a failed operation, never hidden
                rc = None
                err.write(traceback.format_exc())
        return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}

    def _vector_field(self, spec, states) -> dict:
        try:
            return {"rc": 0, "value": [cournot.vector_field(spec, q) for q in states]}
        except Exception:  # recorded as a failed operation, never hidden
            return {"rc": None, "stderr": traceback.format_exc()}

    def _file(self, op: dict, rec: dict, index: int) -> dict:
        """Keep one copy of each distinct output; return the round's record."""
        entry = {"rc": rec["rc"], "stderr": rec.get("stderr", "")[-4000:],
                 "round": index, "bytes": 0}
        if "value" in rec:
            path = self.keep / f"{op['name']}-{index}.npy"
            np.save(path, np.array(rec["value"]))
            entry["output"] = path.name
            return entry
        digest = hashlib.sha256(rec["stdout"].encode()).hexdigest()
        entry["bytes"] = len(rec["stdout"].encode())
        out = Path(op["out"]) if op.get("out") else None
        if out is not None and out.exists():
            entry["bytes"] += out.stat().st_size
            with out.open("rb") as fh:
                digest += hashlib.file_digest(fh, "sha256").hexdigest()
        key = (op["name"], digest)
        if key not in self.kept:
            stem = self.keep / f"{op['name']}-{len(self.kept)}"
            stem.with_suffix(".stdout").write_text(rec["stdout"], encoding="utf-8")
            if out is not None and out.exists():
                os.replace(out, stem.with_suffix(".out"))
            self.kept[key] = stem.name
        if out is not None and out.exists():
            out.unlink()
        entry["output"] = self.kept[key]
        return entry

    def run(self, index: int) -> dict:
        vf = {op["name"]: self._vf_inputs(op, index)
              for op in self.ops if op["kind"] == "vector_field"}
        if self.tracer:
            self.tracer.reset()
        records, stamps = [], []
        clock = time.perf_counter
        wall0, cpu0 = clock(), time.process_time()
        for op in self.ops:
            if op["kind"] == "vector_field":
                records.append(self._vector_field(*vf[op["name"]]))
            else:
                records.append(self._cli(op["argv"]))
            stamps.append(clock())
        wall, cpu = clock() - wall0, time.process_time() - cpu0
        entries = [self._file(op, rec, index) for op, rec in zip(self.ops, records)]
        layers = (self.tracer.metrics(sum(e["bytes"] for e in entries))
                  if self.tracer else None)
        op_s = [b - a for a, b in zip([wall0] + stamps, stamps)]
        return {"wall_s": wall, "cpu_s": cpu, "op_s": op_s, "layers": layers,
                "ops": entries}


def main() -> int:
    if sys.argv[1:] == ["--setup"]:
        print(repr(IMPORTED))
        return 0
    job_path = Path(sys.argv[1])
    job = json.loads(job_path.read_text(encoding="utf-8"))
    runner = Runner(job)
    warmup = runner.run(0)
    rounds = []
    for index in range(1, job["rounds"] + 1):
        # Idle between rounds while run.py times one start-up.
        print("ready", flush=True)
        if sys.stdin.readline().strip() != "go":
            return 1
        rounds.append(runner.run(index))
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"warmup": warmup, "rounds": rounds, "peak_rss_mib": peak_kib / 1024.0}
    job_path.with_name("result.json").write_text(json.dumps(result),
                                                 encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
