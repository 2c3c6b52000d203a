"""Benchmark of the cournotgraph CLI: one workload, one fresh worker process.

    python3 bench/run.py --workload canonical|network|pd --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The run writes the workload's scenario
files from the seed and starts one worker process. The worker runs an
untimed warm-up round and then a fixed number of timed rounds, about S
seconds' worth on the reference machine (``inputs.round_count``). Before
each timed round, with the worker idle, the run times one interpreter
start-up up to ``import cournotgraph`` (``setup_s``), so the start-ups
are spread over the run as the rounds are. It then checks every output
of every timed round against the benchmark's own computations
(``oracles.py``). The last line of stdout is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` -- the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced worker with
``--trace 1``. The full record goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import inputs
import oracles
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
DEADLINE_S = 170  # the worker is killed after this, and the run fails


def setup_time() -> float:
    """Seconds from launching a worker until ``import cournotgraph`` is done."""
    launched = time.monotonic()
    done = subprocess.run([sys.executable, str(WORKER), "--setup"],
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout) - launched


def run_worker(job: Path) -> list[float]:
    """Run the worker on ``job``; time one start-up before each of its
    timed rounds, while it waits. Returns the start-up times."""
    setup = []
    with subprocess.Popen([sys.executable, str(WORKER), str(job)],
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          text=True) as proc:
        watchdog = threading.Timer(DEADLINE_S, proc.kill)
        watchdog.start()
        try:
            for line in proc.stdout:
                if line.strip() == "ready":
                    setup.append(setup_time())
                    proc.stdin.write("go\n")
                    proc.stdin.flush()
        except BaseException:
            proc.kill()
            raise
        finally:
            watchdog.cancel()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return setup


def kept_output(op: dict, entry: dict, keep: Path) -> tuple:
    """The output the worker filed for one operation, as ``oracles.check``
    takes it."""
    if op["kind"] == "vector_field":
        return np.load(keep / entry["output"]), entry["round"]
    out = keep / f"{entry['output']}.out"
    return ((keep / f"{entry['output']}.stdout").read_text(encoding="utf-8"),
            out.read_text(encoding="utf-8") if out.exists() else "")


def check_rounds(plan: dict, rounds: list[dict], keep: Path) -> list[list[str | None]]:
    """For each timed round, each operation's failure reason or None."""
    verdicts: dict[str, str | None] = {}
    table = []
    for rnd in rounds:
        row = []
        for op, entry in zip(plan["ops"], rnd["ops"]):
            if entry["rc"] != 0 or "Traceback" in entry["stderr"]:
                row.append(f"exit {entry['rc']}: {entry['stderr'][-300:]}")
                continue
            name = entry["output"]
            if name not in verdicts:
                verdicts[name] = oracles.check(op, *kept_output(op, entry, keep))
            row.append(verdicts[name])
        table.append(row)
    return table


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "cournotgraph").is_dir():
        print(f"error: no cournotgraph package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = BENCH / "work" / f"{args.workload}-{args.seed}-{args.trace}-{os.getpid()}"
    try:
        (work / "keep").mkdir(parents=True)
        plan = inputs.make_plan(args.workload, args.seed, ROOT, work)
        job = work / "job.json"
        job.write_text(json.dumps({
            "plan": plan, "keep": str(work / "keep"), "trace": args.trace,
            "rounds": inputs.round_count(args.workload, args.seconds)}),
            encoding="utf-8")
        setup = run_worker(job)
        result = json.loads((work / "result.json").read_text(encoding="utf-8"))
        rounds = result["rounds"]
        table = check_rounds(plan, rounds, work / "keep")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    known, unexpected = {}, {}
    for row in table:
        for op, reason in zip(plan["ops"], row):
            if reason is not None:
                bucket = known if inputs.is_known_fault(op["name"], reason) else unexpected
                bucket.setdefault(op["name"], reason)
    correct = not unexpected
    failed = sum(reason is not None for row in table for reason in row)
    if args.trace:
        metrics = {name: metric(statistics.median(r["layers"][name] for r in rounds), unit)
                   for name, unit in tracing.UNITS.items()}
    else:
        metrics = {
            # Means over rounds, not medians: they spread less from run to
            # run on canonical and pd, and as little on network (README).
            "wall_s": metric(statistics.fmean(r["wall_s"] for r in rounds), "s"),
            "cpu_s": metric(statistics.fmean(r["cpu_s"] for r in rounds), "s"),
            "setup_s": metric(statistics.median(setup), "s"),
            "peak_rss_mib": metric(result["peak_rss_mib"], "MiB"),
        }
    summary = {"correct": correct, "attempted": len(table) * len(plan["ops"]),
               "failed": failed, "metrics": metrics}
    record = {**summary, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "known_faults": known, "check_failures": unexpected,
              "setup_s": setup,
              "round_wall_s": [r["wall_s"] for r in rounds],
              "round_cpu_s": [r["cpu_s"] for r in rounds],
              "round_op_s": [r["op_s"] for r in rounds],
              "warmup_wall_s": result["warmup"]["wall_s"],
              "peak_rss_mib": result["peak_rss_mib"],
              "layers": [r["layers"] for r in rounds] if args.trace else None}
    results = BENCH / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    for kind, failures in (("known fault", known), ("CHECK FAILED", unexpected)):
        for name, reason in failures.items():
            print(f"{kind}: {name}: {reason[:300]}", file=sys.stderr)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
