"""Self-check of the benchmark's checks: real outputs pass, corrupted ones fail.

    python3 bench/selfcheck.py

Runs one round of every workload (seed 1) in this process, then checks
each output as ``run.py`` does: every operation must pass except the
known faults, which must fail with their own reason. Each corruption
below must then be rejected, and on a known-fault operation it must
count as a check failure, not as the known fault. Exits 1 if any
expectation does not hold.
"""

from __future__ import annotations

import os
import shutil
import sys

import numpy as np

import inputs
import oracles
import run
import worker


def move_value(text: str) -> str:
    """Add 1e-6 to the first state value of the middle row of a CSV."""
    lines = text.splitlines()
    k = len(lines) // 2
    cells = lines[k].split(",")
    cells[1] = repr(float(cells[1]) + 1e-6)
    lines[k] = ",".join(cells)
    return "\n".join(lines) + "\n"


def flip_verdict(text: str) -> str:
    """Turn the first STABLE sweep row outside the marginal band UNSTABLE."""
    lines = text.splitlines()
    k = next(k for k, line in enumerate(lines)
             if ",STABLE," in line and float(line.rsplit(",", 1)[1]) < -1e-6)
    lines[k] = lines[k].replace(",STABLE,", ",UNSTABLE,")
    return "\n".join(lines) + "\n"


def change_step(text: str) -> str:
    """Move the cooperation fraction at step 3 by one player."""
    lines = text.splitlines()
    step, value = lines[4].split(",")
    lines[4] = f"{step},{float(value) + (0.0025 if float(value) < 0.5 else -0.0025)!r}"
    return "\n".join(lines) + "\n"


def flip_coefficient(text: str) -> str:
    """Flip the sign of the printed a2."""
    lines = text.splitlines()
    k = next(k for k, line in enumerate(lines) if line.startswith("  a2 = "))
    lines[k] = f"  a2 = {-float(lines[k].split(' = ')[1])!r}"
    return "\n".join(lines) + "\n"


def flip_network_verdict(text: str) -> str:
    """Turn "verdict: STABLE" into "verdict: UNSTABLE"."""
    return text.replace("verdict: STABLE", "verdict: UNSTABLE")


def change_players(text: str) -> str:
    """Change the player count on the first report line."""
    return text.replace("players: ", "players: 1", 1)


CORRUPTIONS = [
    ("canonical", "simulate_stable_rk4", "out", move_value),
    ("canonical", "simulate_unstable_euler", "out", move_value),
    ("network", "simulate_960", "out", move_value),
    ("canonical", "sweep_r3", "out", flip_verdict),
    ("pd", "pd_torus100", "out", change_step),
    ("pd", "pd_complete400", "out", change_step),
    ("canonical", "stability_stable", "stdout", flip_coefficient),
    ("canonical", "stability_two_firm", "stdout", flip_coefficient),
    ("network", "stability_241", "stdout", flip_network_verdict),
    ("pd", "pd_torus40", "stdout", change_players),
]


def one_round(workload: str) -> dict[str, tuple]:
    """Each operation's (op, *output) after one round at seed 1."""
    work = run.BENCH / "work" / f"selfcheck-{workload}-{os.getpid()}"
    try:
        (work / "keep").mkdir(parents=True)
        plan = inputs.make_plan(workload, 1, run.ROOT, work)
        keep = work / "keep"
        entries = worker.Runner({"plan": plan, "keep": str(keep), "trace": 0}).run(1)["ops"]
        return {op["name"]: (op, *run.kept_output(op, entry, keep))
                for op, entry in zip(plan["ops"], entries)}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    wrong = 0
    outputs = {w: one_round(w) for w in inputs.WORKLOADS}
    for workload, ops in outputs.items():
        for name, (op, *args) in ops.items():
            reason = oracles.check(op, *args)
            expected = name in inputs.KNOWN_FAULTS
            ok = (inputs.is_known_fault(name, reason) if expected
                  else reason is None)
            wrong += not ok
            state = "rejected (known fault)" if expected else "accepted"
            print(f"{'ok ' if ok else 'BAD'} {workload}/{name}: real output "
                  f"{state if ok else reason}")
    for workload, name, part, corrupt in CORRUPTIONS:
        op, stdout, out = outputs[workload][name]
        if part == "out":
            out = corrupt(out)
        else:
            stdout = corrupt(stdout)
        reason = oracles.check(op, stdout, out)
        ok = reason is not None and not inputs.is_known_fault(name, reason)
        wrong += not ok
        print(f"{'ok ' if ok else 'BAD'} {workload}/{name}: {corrupt.__name__} "
              f"{'rejected: ' + reason[:120] if reason else 'ACCEPTED'}")
    op, values, index = outputs["network"]["vector_field_960"]
    moved = values.copy()
    moved[1, 7] += 1e-6
    reason = oracles.check(op, moved, index)
    wrong += reason is None
    print(f"{'ok ' if reason else 'BAD'} network/vector_field_960: move_value "
          f"{'rejected: ' + reason if reason else 'ACCEPTED'}")
    from cournotgraph.network import NetworkSpec, to_affine
    for name in ("stability_241", "simulate_960"):
        net = outputs["network"][name][0]["net"]
        spec = NetworkSpec(net["markets"], net["firms"], net["edges"], net["alpha"],
                           net["beta"], net["gamma"], net["speed"])
        gap = float(np.abs(oracles.network_system(net)[0] - to_affine(spec).matrix).max())
        wrong += not gap <= 1e-12
        print(f"{'ok ' if gap <= 1e-12 else 'BAD'} network/{name}: incidence "
              f"assembly differs from to_affine by {gap:.2g}")
    print(f"selfcheck: {'FAILED' if wrong else 'passed'}")
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
