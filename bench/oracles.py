"""The benchmark's own computations, and the checks of every output against them.

Nothing here imports the package under test. Each ``check_*`` takes the
operation from the plan and the program's stdout text and output-file
text, and raises :class:`CheckFailed` naming the first disagreement.
"""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction

import numpy as np

import inputs

MARGIN_BAND = 1e-9  # the program's MARGINAL band around max Re = 0


class CheckFailed(Exception):
    pass


def require(ok, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------- systems

def canonical_system(r) -> tuple[np.ndarray, np.ndarray]:
    """(A, c) of dq/dt = 1 - r1 q11 - q21, 1 - r2 q22 - q21,
    1 - r3 q21 - r4 q11 - r5 q22 in coordinates (q11, q22, q21)."""
    r1, r2, r3, r4, r5 = r
    return np.array([[r1, 0.0, 1.0], [0.0, r2, 1.0], [r4, r5, r3]]), np.ones(3)


def network_parts(net: dict):
    """Incidence form A = D_b (F diag(gamma) F' + M diag(beta) M' +
    diag(beta_i(e))) = D_b S, and c = b_j(e) alpha_i(e)."""
    edges = np.array(net["edges"]) - 1
    n = len(edges)
    firm = np.zeros((n, net["firms"]))
    firm[np.arange(n), edges[:, 1]] = 1.0
    market = np.zeros((n, net["markets"]))
    market[np.arange(n), edges[:, 0]] = 1.0
    beta = np.array(net["beta"])
    s = ((firm * np.array(net["gamma"])) @ firm.T
         + (market * beta) @ market.T + np.diag(beta[edges[:, 0]]))
    b = np.array(net["speed"])[edges[:, 1]]
    c = b * np.array(net["alpha"])[edges[:, 0]]
    return b[:, None] * s, c, s, b


def network_system(net: dict) -> tuple[np.ndarray, np.ndarray]:
    a, c, _, _ = network_parts(net)
    return a, c


def network_margin(net: dict) -> float:
    """max Re of the spectrum of -A = -D_b S, from the symmetric
    D_b^1/2 S D_b^1/2 it is similar to."""
    _, _, s, b = network_parts(net)
    root = np.sqrt(b)
    return -float(np.linalg.eigvalsh(root[:, None] * s * root[None, :])[0])


def variable_names(edges) -> list[str]:
    return [f"q{i}{j}" if i <= 9 and j <= 9 else f"q{i}_{j}" for i, j in edges]


def max_real(a: np.ndarray) -> float:
    return float(np.max(np.linalg.eigvals(-a).real))


def verdict_of(margin: float) -> str:
    if margin < -MARGIN_BAND:
        return "STABLE"
    return "UNSTABLE" if margin > MARGIN_BAND else "MARGINAL"


def cubic_coefficients(a: np.ndarray) -> list[float]:
    """det(lambda I + A) = lambda^3 + a1 lambda^2 + a2 lambda + a3:
    trace, sum of principal 2x2 minors, determinant."""
    minors = (a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]
              + a[0, 0] * a[2, 2] - a[0, 2] * a[2, 0]
              + a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
    return [float(np.trace(a)), float(minors), float(np.linalg.det(a))]


# ---------------------------------------------------------------- parsing

_VALUE = re.compile(r"^  (\w+) = (\S+)$")
_RH = re.compile(r"^    (a1 > 0|a3 > 0|a1\*a2 > a3) +(PASS|FAIL)$")


def parse_report(text: str) -> dict:
    """The sections of a ``stability`` report, in the order printed."""
    rep = {"eq": [], "coeffs": [], "rh": None, "margin": None,
           "verdict": None, "closed": [], "closed_rh": None}
    section = rh_key = None
    for line in text.splitlines():
        if line == "equilibrium:":
            section = "eq"
        elif line == "characteristic coefficients (Jacobian):":
            section, rh_key = "coeffs", "rh"
        elif line.startswith("closed-form coefficients"):
            section, rh_key = "closed", "closed_rh"
        elif line.startswith("eigenvalue margin (max Re): "):
            rep["margin"] = float(line.rsplit(" ", 1)[1])
        elif line.startswith("verdict: "):
            rep["verdict"] = line[len("verdict: "):]
        elif line == "  Routh-Hurwitz checks:":
            rep[rh_key] = []
        elif line.startswith("  Routh-Hurwitz checks: n/a"):
            rep[rh_key] = "n/a"
        elif (m := _RH.match(line)) and isinstance(rep[rh_key], list):
            rep[rh_key].append((m[1], m[2] == "PASS"))
        elif (m := _VALUE.match(line)) and section:
            rep[section].append((m[1], float(m[2])))
        else:
            raise CheckFailed(f"unexpected report line {line!r}")
    return rep


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.splitlines()
    require(lines, "empty CSV")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def close(got, want, rtol: float, atol: float = 0.0) -> bool:
    got, want = np.asarray(got, float), np.asarray(want, float)
    return got.shape == want.shape and bool(np.all(
        np.isfinite(got) & (np.abs(got - want) <= atol + rtol * np.abs(want))))


# ------------------------------------------------------------- trajectories

def step_times(t_end: float, dt: float) -> np.ndarray:
    n = round(t_end / dt)
    require(abs(n * dt - t_end) <= 1e-9, "benchmark inputs need whole steps")
    times = dt * np.arange(n + 1)
    times[-1] = t_end
    return times


def kept_rows(count: int, thin: int) -> list[int]:
    rows = list(range(0, count, thin))
    if rows[-1] != count - 1:
        rows.append(count - 1)
    return rows


def recurrence(a, c, q0, times, method: str) -> np.ndarray:
    """Every state of the fixed-step Euler or classical RK4 recurrence."""
    field = lambda q: c - a @ q  # noqa: E731
    states = np.empty((len(times), len(q0)))
    q = states[0] = np.asarray(q0, float)
    for k in range(1, len(times)):
        h = times[k] - times[k - 1]
        if method == "euler":
            q = q + h * field(q)
        else:
            k1 = field(q)
            k2 = field(q + 0.5 * h * k1)
            k3 = field(q + 0.5 * h * k2)
            k4 = field(q + h * k3)
            q = q + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states[k] = q
    return states


def exact_solution(a, c, q0, times) -> np.ndarray:
    """q* + exp(-A t)(q0 - q*) from the eigendecomposition of A."""
    q_star = np.linalg.solve(a, c)
    lam, vec = np.linalg.eig(a)
    coef = np.linalg.solve(vec, np.asarray(q0, float) - q_star)
    return q_star + ((np.exp(-np.outer(times, lam)) * coef) @ vec.T).real


def check_trajectory(text: str, names, want_times, want_states, thin: int,
                     rtol: float) -> None:
    header, rows = parse_csv(text)
    require(header == ["t", *names], f"header {header[:4]}... is not t,{names[:3]}...")
    kept = kept_rows(len(want_times), thin)
    require(len(rows) == len(kept), f"{len(rows)} rows, expected {len(kept)}")
    got = np.array(rows, dtype=float)
    require(close(got[:, 0], want_times[kept], 1e-12), "time column is off")
    want = want_states[kept]
    scale = np.maximum(1.0, np.max(np.abs(want), axis=1, keepdims=True))
    err = np.abs(got[:, 1:] - want) / scale
    require(bool(np.all(np.isfinite(got[:, 1:]))) and float(err.max()) <= rtol,
            f"state off by {float(np.nanmax(err)):.3g} (relative), "
            f"tolerance {rtol:.0e}")


def check_canonical_trajectory(op: dict, stdout: str, out: str) -> None:
    a, c = canonical_system(op["r"])
    times = step_times(op["t_end"], op["dt"])
    if op["method"] == "rk4":
        # RK4 at dt = 0.01 stays within ~1e-10 of the exact flow here.
        want, rtol = exact_solution(a, c, op["q0"], times), 1e-8
    else:
        want, rtol = recurrence(a, c, op["q0"], times, "euler"), 1e-10
    check_trajectory(out, ["q11", "q22", "q21"], times, want, op["thin"], rtol)


def check_network_trajectory(op: dict, stdout: str, out: str) -> None:
    a, c = network_system(op["net"])
    times = step_times(op["t_end"], op["dt"])
    want = recurrence(a, c, op["net"]["q0"], times, "rk4")
    check_trajectory(out, variable_names(op["net"]["edges"]), times, want,
                     op["thin"], 1e-10)


# ---------------------------------------------------------- sweep, reports

def check_sweep(op: dict, stdout: str, out: str) -> None:
    header, rows = parse_csv(out)
    require(header == ["value", "verdict", "eigen_margin"], f"header {header}")
    require(len(rows) == op["points"], f"{len(rows)} rows, expected {op['points']}")
    grid = [op["start"] + k * (op["stop"] - op["start"]) / (op["points"] - 1)
            for k in range(op["points"])]
    values = np.array([float(row[0]) for row in rows])
    require(close(values, grid, 1e-12), "grid values are off")
    stack = np.empty((len(rows), 3, 3))
    for k, v in enumerate(values):
        r = list(op["r"])
        r[op["param"]] = v
        stack[k] = canonical_system(r)[0]
    margins = np.max(np.linalg.eigvals(-stack).real, axis=1)
    for k, (row, want) in enumerate(zip(rows, margins)):
        require(len(row) == 3 and row[1] != "ERROR",
                f"row {k}: {row} for a nonsingular system")
        require(close(float(row[2]), want, 1e-9, 1e-12),
                f"row {k}: margin {row[2]}, expected {float(want)!r}")
        if abs(want) > MARGIN_BAND:
            require(row[1] == verdict_of(want),
                    f"row {k}: verdict {row[1]}, margin {float(want)!r}")
    verdicts = {row[1] for row in rows}
    require({"STABLE", "UNSTABLE"} <= verdicts,
            "the sweep no longer crosses the stability boundary")


def _check_hurwitz(marks, coeffs, what: str) -> None:
    a1, a2, a3 = coeffs
    want = [("a1 > 0", a1 > 0.0), ("a3 > 0", a3 > 0.0), ("a1*a2 > a3", a1 * a2 > a3)]
    require(marks == want, f"{what} Routh-Hurwitz lines {marks}, expected {want}")


def _check_equilibrium(pairs, a, c, names) -> None:
    require([n for n, _ in pairs] == list(names),
            f"equilibrium names {[n for n, _ in pairs][:4]}... expected {names[:4]}...")
    q = np.array([v for _, v in pairs])
    residual = np.abs(a @ q - c)
    scale = np.abs(a) @ np.abs(q) + np.abs(c)
    require(bool(np.all(np.isfinite(q))) and bool(np.all(residual <= 1e-12 * scale)),
            "printed equilibrium does not solve A q = c")


def _check_coefficients(rep: dict, a: np.ndarray) -> None:
    got = [v for _, v in rep["coeffs"]]
    require([n for n, _ in rep["coeffs"]] == [f"a{k + 1}" for k in range(len(got))],
            "coefficient names out of order")
    n = a.shape[0]
    if n == 3:
        want = cubic_coefficients(a)
        require(close(got, want, 1e-12, 1e-13 * np.abs(a).max() ** 3),
                f"coefficients {got}, expected {want}")
        _check_hurwitz(rep["rh"], got, "Jacobian")
        return
    if not got:   # no coefficients printed for a non-cubic system
        return
    require(len(got) == n, f"{len(got)} coefficients for {n} variables")
    bad = [k + 1 for k, v in enumerate(got) if not (math.isfinite(v) and v > 0.0)]
    require(not bad, f"{len(bad)} of {n} coefficients are not finite and "
                     f"positive (first a{bad[0] if bad else 0}); a stable "
                     f"system's are")
    want = np.poly(-np.linalg.eigvals(a).real)[1:]
    require(close(got, want, 1e-6), "coefficients differ from the elementary "
                                    "symmetric functions of the eigenvalues")


def check_canonical_stability(op: dict, stdout: str, out: str) -> None:
    rep = parse_report(stdout)
    a, c = canonical_system(op["r"])
    _check_equilibrium(rep["eq"], a, c, ["q11", "q22", "q21"])
    _check_coefficients(rep, a)
    margin = max_real(a)
    require(rep["margin"] is not None and close(rep["margin"], margin, 1e-9, 1e-12),
            f"margin {rep['margin']!r}, expected {margin!r}")
    require(rep["verdict"] == verdict_of(margin), f"verdict {rep['verdict']}")
    r1, r2, r3, r4, r5 = op["r"]
    closed = [r1 + r2 + r3, r1 * r2 + r1 * r3 + r2 * r3 - r4 - r5,
              r1 * r2 * r3 - r1 * r4 - r2 * r5]
    require(close([v for _, v in rep["closed"]], closed, 1e-12, 1e-15),
            "closed-form coefficients are off")
    _check_hurwitz(rep["closed_rh"], closed, "closed-form")


def check_canonical_equilibrium(op: dict, stdout: str, out: str) -> None:
    a, c = canonical_system(op["r"])
    _check_equilibrium(_equilibrium_lines(stdout), a, c, ["q11", "q22", "q21"])


def _equilibrium_lines(stdout: str):
    pairs = []
    for line in stdout.splitlines():
        name, sep, value = line.partition(" = ")
        require(sep, f"unexpected equilibrium line {line!r}")
        pairs.append((name, float(value)))
    return pairs


def check_network_stability(op: dict, stdout: str, out: str) -> None:
    rep = parse_report(stdout)
    net = op["net"]
    a, c = network_system(net)
    _check_equilibrium(rep["eq"], a, c, variable_names(net["edges"]))
    margin = network_margin(net)
    require(rep["margin"] is not None
            and close(rep["margin"], margin, 1e-9, 1e-12 * np.abs(a).max()),
            f"margin {rep['margin']!r}, expected {margin!r}")
    require(rep["verdict"] == "STABLE", f"verdict {rep['verdict']} for a network")
    require(not rep["closed"], "closed-form block printed for a network")
    _check_coefficients(rep, a)


def check_network_equilibrium(op: dict, stdout: str, out: str) -> None:
    a, c = network_system(op["net"])
    _check_equilibrium(_equilibrium_lines(stdout), a, c,
                       variable_names(op["net"]["edges"]))


def check_vector_field(op: dict, values: np.ndarray, index: int) -> None:
    net = inputs.vf_network(op["net"], index)
    a, c = network_system(net)
    states = np.array(inputs.vf_states(op["net"]))
    want = c - states @ a.T
    scale = np.abs(states) @ np.abs(a).T + np.abs(c)
    require(values.shape == want.shape, f"shape {values.shape}, expected {want.shape}")
    require(bool(np.all(np.abs(values - want) <= 1e-12 * scale)),
            "vector_field differs from c - A q")


# ------------------------------------------------------------------ pd game

def pd_neighbors(graph) -> list[list[int]]:
    kind = graph[0]
    if kind == "torus":
        w, h = graph[1], graph[2]
        return [sorted(({r * w + (col + d) % w for d in (-1, 1)}
                        | {((r + d) % h) * w + col for d in (-1, 1)}) - {r * w + col})
                for r in range(h) for col in range(w)]
    if kind == "complete":
        n = graph[1]
        return [[q for q in range(n) if q != p] for p in range(n)]
    pairs = graph[1]
    n = max(max(pair) for pair in pairs) + 1
    adjacency: list[set] = [set() for _ in range(n)]
    for x, y in pairs:
        adjacency[x].add(y)
        adjacency[y].add(x)
    return [sorted(s) for s in adjacency]


def pd_initial(init, n: int) -> np.ndarray:
    if init[0] == "random":
        rng = random.Random(init[2])
        return np.array([rng.random() < init[1] for _ in range(n)])
    require(init[0] == "single_defector", f"benchmark input: init {init}")
    return np.arange(n) > 0


def exact_series(payoff, neighbors, coop: np.ndarray, steps: int) -> list[float]:
    """Cooperation fractions under imitate-the-best with exact scores.

    The payoff doubles are scaled by a common power of two to integers, so
    equal totals tie exactly. Candidates are [self, neighbours ascending];
    argmax takes the first maximum, which is "ties keep, then lowest index".
    """
    fractions = [Fraction(x) for x in payoff]
    scale = math.lcm(*(f.denominator for f in fractions))
    R, S, T, U = (int(f * scale) for f in fractions)
    n = len(neighbors)
    width = max(len(ns) for ns in neighbors)
    degree = np.array([len(ns) for ns in neighbors])
    dtype = np.int64 if max(map(abs, (R, S, T, U))) * (width + 1) < 2 ** 62 else object
    table = np.full((n, width + 1), n)          # index n is a padding player
    table[:, 0] = np.arange(n)
    for p, ns in enumerate(neighbors):
        table[p, 1:len(ns) + 1] = ns
    floor = -(max(map(abs, (R, S, T, U))) * (width + 1)) - 1
    series = [int(coop.sum()) / n]
    for _ in range(steps):
        padded = np.append(coop, False)
        n_c = padded[table[:, 1:]].sum(axis=1).astype(dtype)
        n_d = degree.astype(dtype) - n_c
        score = np.where(coop, R * n_c + S * n_d, T * n_c + U * n_d).astype(dtype)
        candidates = np.append(score, np.array([floor], dtype=dtype))[table]
        winner = table[np.arange(n), np.argmax(candidates, axis=1)]
        coop = coop[winner]
        series.append(int(coop.sum()) / n)
    return series


def dominant(R, S, T, U) -> str:
    if T > R and U > S:
        return "D"
    return "C" if R > T and S > U else "none"


def check_pd(op: dict, stdout: str, out: str) -> None:
    neighbors = pd_neighbors(op["graph"])
    n = len(neighbors)
    edges = sum(map(len, neighbors)) // 2
    want = exact_series(op["payoff"], neighbors, pd_initial(op["init"], n), op["steps"])
    header, rows = parse_csv(out)
    require(header == ["step", "coop_fraction"], f"header {header}")
    require([row[0] for row in rows] == [str(k) for k in range(len(rows))],
            "step column is off")
    got = [float(row[1]) for row in rows]
    require(len(got) == len(want), f"{len(got)} rows, expected {len(want)}")
    require(got[0] == want[0], f"initial fraction {got[0]!r}, expected {want[0]!r}")
    if op["graph"][0] == "complete" and 0.0 < want[0] < 1.0:
        require(all(f == 0.0 for f in got[1:]), "complete graph not all-defect "
                                                "after one step")
    # The report must agree with the program's own series; the series is
    # compared with the exact rule last, so that a divergence there (the
    # known fault on pd_torus40) leaves every other part checked.
    lines = stdout.splitlines()
    expect = [f"players: {n}, edges: {edges}, steps: {op['steps']}",
              f"initial cooperation fraction: {want[0]!r}",
              f"final cooperation fraction: {got[-1]!r}"]
    sigma = op["side_payment"]
    if sigma is not None:
        R, S, T, U = op["payoff"]
        require(dominant(R, S, T, U) == "D" and dominant(R + sigma, S + sigma, T, U) == "C",
                "benchmark input: the side payment must flip D to C")
        expect += [f"side payment sigma = {sigma!r}",
                   f"minimum sigma for cooperate-dominance: {max(T - R, U - S)!r} "
                   f"(strictly above flips it)",
                   "transit dominant strategy without payment: D",
                   "transit dominant strategy with payment: C"]
    require(lines == expect, f"report {lines}, expected {expect}")
    first = next((k for k, (g, w) in enumerate(zip(got, want)) if g != w), None)
    require(first is None, f"series leaves the exact imitation rule at step {first}")


CHECKS = {
    "canonical_trajectory": check_canonical_trajectory,
    "network_trajectory": check_network_trajectory,
    "sweep": check_sweep,
    "canonical_stability": check_canonical_stability,
    "canonical_equilibrium": check_canonical_equilibrium,
    "network_stability": check_network_stability,
    "network_equilibrium": check_network_equilibrium,
    "pd": check_pd,
}


def check(op: dict, *output) -> str | None:
    """None when the operation's output passes its check, else the reason.

    ``output`` is (stdout, output-file text) for a CLI operation and
    (values, round index) for ``vector_field``."""
    fn = check_vector_field if op["kind"] == "vector_field" else CHECKS[op["kind"]]
    try:
        fn(op, *output)
    except (CheckFailed, ValueError, IndexError, TypeError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None
