"""Workload inputs: scenario files made from the seed, and each round's operations.

Everything here is plain Python so that the parent (``run.py``) and the
worker (``worker.py``) derive the same values from the same seed. The
program under test only ever sees the scenario files written here (plus,
for the one library call, a ``NetworkSpec`` built from the same numbers).
"""

from __future__ import annotations

import random
import re
from pathlib import Path

WORKLOADS = ("canonical", "network", "pd")

# Operations whose check fails today because of a fault in the program,
# each with the one failure reason that fault gives:
# stability_241 -- stability.char_poly (Faddeev-LeVerrier) prints negative
#   coefficients for a stable 241-edge network; the check raises this only
#   after the equilibrium, margin, verdict and coefficient count passed;
# pd_torus40 -- pdgame.scores sums floats in neighbour order, so rounding
#   decides the tie rule on a 40x40 torus with payoff 0.2, 0.05, 0.3, 0.1;
#   the check raises this only after the CSV shape and report lines passed.
# Their inputs do not depend on the seed, so they fail in every round of
# every run and the failed share stays exact. Any other reason on these
# operations is a check failure like any other.
KNOWN_FAULTS = {
    "stability_241": re.compile(
        r"CheckFailed: \d+ of 241 coefficients are not finite and positive "
        r"\(first a\d+\); a stable system's are"),
    "pd_torus40": re.compile(
        r"CheckFailed: series leaves the exact imitation rule at step 1"),
}


def is_known_fault(name: str, reason: str) -> bool:
    """Whether ``reason`` is the known fault's own failure on ``name``."""
    pattern = KNOWN_FAULTS.get(name)
    return pattern is not None and pattern.fullmatch(reason) is not None


# Nominal seconds of one timed round on the reference machine (README).
# A run does round(seconds / ROUND_S) rounds, whatever the host's speed,
# so every run and every commit does the same work and peak RSS (which
# grows with the number of distinct vector_field specs) compares.
ROUND_S = {"canonical": 1.25, "network": 1.07, "pd": 1.0}


def round_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_S[workload]))


SWEEP_POINTS = 2000


def read_scenario(path: Path) -> dict[str, str]:
    """Key/value pairs of a scenario file (the benchmark's own reader)."""
    values: dict[str, str] = {}
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line and not line.startswith("["):
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


def floats(text: str) -> list[float]:
    return [float(t) for t in text.split(",")]


def _list(values) -> str:
    return ", ".join(repr(float(v)) for v in values)


def _jitter(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


def random_network(rng: random.Random, markets: int, firms: int,
                   edge_count: int) -> dict:
    """A valid supply network: every firm and market on some edge, parameters
    in ranges that keep RK4 at dt = 0.01 well inside its stability region."""
    edges = {(rng.randint(1, markets), j) for j in range(1, firms + 1)}
    for i in range(1, markets + 1):
        if not any(e[0] == i for e in edges):
            edges.add((i, rng.randint(1, firms)))
    while len(edges) < edge_count:
        edges.add((rng.randint(1, markets), rng.randint(1, firms)))
    edges = sorted(edges)
    return {"markets": markets, "firms": firms, "edges": edges,
            "alpha": [_jitter(rng, 1.0, 2.0) for _ in range(markets)],
            "beta": [_jitter(rng, 0.2, 1.0) for _ in range(markets)],
            "gamma": [_jitter(rng, 0.1, 0.5) for _ in range(firms)],
            "speed": [_jitter(rng, 0.5, 1.5) for _ in range(firms)],
            "q0": [_jitter(rng, 0.0, 0.1) for _ in edges]}


def network_text(net: dict) -> str:
    edges = ", ".join(f"{i}:{j}" for i, j in net["edges"])
    return (f"[network]\nmarkets = {net['markets']}\nfirms = {net['firms']}\n"
            f"edges = {edges}\nalpha = {_list(net['alpha'])}\n"
            f"beta = {_list(net['beta'])}\ngamma = {_list(net['gamma'])}\n"
            f"speed = {_list(net['speed'])}\nq0 = {_list(net['q0'])}\n")


def network_from_file(path: Path) -> dict:
    v = read_scenario(path)
    edges = sorted(tuple(int(x) for x in e.split(":"))
                   for e in v["edges"].split(","))
    firms = int(v["firms"])
    return {"markets": int(v["markets"]), "firms": firms, "edges": edges,
            "alpha": floats(v["alpha"]), "beta": floats(v["beta"]),
            "gamma": floats(v["gamma"]),
            "speed": floats(v["speed"]) if "speed" in v else [1.0] * firms,
            "q0": floats(v["q0"])}


def vf_network(base: dict, round_index: int) -> dict:
    """The vector_field spec of one round: the base network with every
    demand intercept shifted, so no round's spec equals an earlier one
    and every round pays the same index-map cost."""
    shift = round_index * 2.0 ** -20
    return dict(base, alpha=[a + shift for a in base["alpha"]])


def vf_states(base: dict) -> list[list[float]]:
    q0 = base["q0"]
    return [list(q0), [2.0 * x for x in q0], [0.5 * x + 0.01 for x in q0]]


def pd_text(payoff, graph: str, init: str, steps: int,
            side_payment: float | None = None) -> str:
    text = (f"[pd]\npayoff = {_list(payoff)}\ngraph = {graph}\n"
            f"init = {init}\nsteps = {steps}\n")
    if side_payment is not None:
        text += f"side_payment = {side_payment!r}\n"
    return text


def _op(name: str, argv: list[str], **info) -> dict:
    return {"name": name, "argv": argv, **info}


def make_plan(workload: str, seed: int, repo: Path, work: Path) -> dict:
    """Write the workload's scenario files under ``work`` and return the
    plan: the operations of one round, with what the checks need."""
    rng = random.Random(f"{workload}:{seed}")
    shipped = repo / "scenarios"
    ops: list[dict] = []

    def scenario(name: str, text: str) -> str:
        path = work / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def out(name: str) -> str:
        return str(work / name)

    if workload == "canonical":
        points = {}
        for point in ("stable", "unstable"):
            v = read_scenario(shipped / f"canonical_{point}.scenario")
            r = floats(v["r"])
            q0 = [round(x + rng.uniform(-0.05, 0.05), 6) for x in floats(v["q0"])]
            points[point] = {"r": r, "q0": q0}
            points[point]["path"] = scenario(
                f"canonical_{point}.scenario",
                f"[canonical]\nr = {_list(r)}\nq0 = {_list(q0)}\n")
        start = _jitter(rng, 0.1, 0.11)
        stop = _jitter(rng, 1.49, 1.5)
        stable, unstable = points["stable"], points["unstable"]
        two_firm = shipped / "two_firm_network.scenario"
        ops = [
            _op("simulate_stable_rk4",
                ["simulate", "--scenario", stable["path"], "--out", out("stable.csv")],
                kind="canonical_trajectory", r=stable["r"], q0=stable["q0"],
                method="rk4", t_end=200.0, dt=0.01, thin=10, out=out("stable.csv")),
            _op("simulate_unstable_euler",
                ["simulate", "--scenario", unstable["path"], "--method", "euler",
                 "--thin", "1", "--out", out("unstable.csv")],
                kind="canonical_trajectory", r=unstable["r"], q0=unstable["q0"],
                method="euler", t_end=200.0, dt=0.01, thin=1, out=out("unstable.csv")),
            _op("sweep_r3",
                ["sweep", "--scenario", stable["path"], "--param", "r3",
                 "--from", repr(start), "--to", repr(stop),
                 "--points", str(SWEEP_POINTS), "--out", out("sweep.csv")],
                kind="sweep", r=stable["r"], param=2, start=start, stop=stop,
                points=SWEEP_POINTS, out=out("sweep.csv")),
        ]
        for point in ("stable", "unstable"):
            p = points[point]
            ops.append(_op(f"stability_{point}",
                           ["stability", "--scenario", p["path"]],
                           kind="canonical_stability", r=p["r"]))
            ops.append(_op(f"equilibrium_{point}",
                           ["equilibrium", "--scenario", p["path"]],
                           kind="canonical_equilibrium", r=p["r"]))
        ops.append(_op("stability_two_firm",
                       ["stability", "--scenario", str(two_firm)],
                       kind="network_stability",
                       net=network_from_file(two_firm)))
    elif workload == "network":
        fixed = random_network(random.Random("network:fixed"), 20, 30, 241)
        eq_net = random_network(rng, 20, 30, 241)
        sim_net = random_network(rng, 40, 60, 960)
        ops = [
            _op("stability_241",
                ["stability", "--scenario", scenario("fixed241.scenario",
                                                     network_text(fixed))],
                kind="network_stability", net=fixed),
            _op("equilibrium_241",
                ["equilibrium", "--scenario", scenario("seeded241.scenario",
                                                       network_text(eq_net))],
                kind="network_equilibrium", net=eq_net),
            _op("simulate_960",
                ["simulate", "--scenario", scenario("seeded960.scenario",
                                                    network_text(sim_net)),
                 "--t-end", "2", "--dt", "0.01", "--out", out("net960.csv")],
                kind="network_trajectory", net=sim_net, t_end=2.0, dt=0.01,
                thin=10, out=out("net960.csv")),
            {"name": "vector_field_960", "kind": "vector_field", "net": sim_net},
        ]
    elif workload == "pd":
        torus_seed = rng.randrange(1, 10 ** 6)
        complete_seed = rng.randrange(1, 10 ** 6)
        cases = [
            ("pd_torus100", (3.0, 0.0, 3.5, 0.5), ("torus", 100, 100),
             ("random", 0.5, torus_seed), 20, None),
            # Seed-independent on purpose: this operation is a known fault.
            ("pd_torus40", (0.2, 0.05, 0.3, 0.1), ("torus", 40, 40),
             ("random", 0.6, 1), 30, None),
            ("pd_complete400", (3.0, 0.0, 5.0, 1.0), ("complete", 400),
             ("random", 0.5, complete_seed), 5, 2.5),
        ]
        for name, payoff, graph, init, steps, sigma in cases:
            path = scenario(f"{name}.scenario", pd_text(
                payoff, " ".join(str(g) for g in graph),
                " ".join(repr(x) if isinstance(x, float) else str(x) for x in init),
                steps, sigma))
            ops.append(_op(name, ["pd", "--scenario", path, "--out", out(f"{name}.csv")],
                           kind="pd", payoff=list(payoff), graph=list(graph),
                           init=list(init), steps=steps, side_payment=sigma,
                           out=out(f"{name}.csv")))
        gas = shipped / "gas_transit_pd.scenario"
        v = read_scenario(gas)
        form, _, rest = v["graph"].partition(" ")
        graph = ([form, [[int(x) for x in pair.split("-")] for pair in rest.split(",")]]
                 if form == "edges" else [form, *(int(x) for x in rest.split())])
        init = v["init"].split()
        if init[0] == "random":
            init = ["random", float(init[1]), int(init[2])]
        ops.append(_op("pd_gas_transit",
                       ["pd", "--scenario", str(gas), "--out", out("gas_transit.csv")],
                       kind="pd", payoff=floats(v["payoff"]), graph=graph,
                       init=init, steps=int(v["steps"]),
                       side_payment=(float(v["side_payment"])
                                     if "side_payment" in v else None),
                       out=out("gas_transit.csv")))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"workload": workload, "seed": seed, "ops": ops}
