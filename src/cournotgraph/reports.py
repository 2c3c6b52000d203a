"""Deterministic text outputs: trajectory CSV, stability report, PD series, sweeps.

Every number is rendered with ``repr(float(x))`` -- the shortest decimal
that round-trips to the same double -- and no output embeds timestamps,
so identical runs produce byte-identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory
from .network import variable_names
from .pdgame import PayoffMatrix, apply_side_payment, dominant_strategy, \
    min_side_payment
from .scenario import CanonicalScenario
from .stability import StabilityReport, canonical_margins, verdict_of

SWEEP_PARAMS = ("r1", "r2", "r3", "r4", "r5")
MAX_SWEEP_POINTS = 1_000_000  # grid points of one sweep, checked before any work
_BLOCK_VALUES = 1 << 14       # values per block of rendered trajectory rows


def fmt(x: float) -> str:
    return repr(float(x))


def write_trajectory(trajectory: Trajectory, names, thin: int = 1) -> str:
    """CSV with header ``t,<name1>,...``, keeping every ``thin``-th step;
    the final step is always included.

    Rows are rendered a block of about ``_BLOCK_VALUES`` values at a
    time: ``tolist`` turns a block into Python floats, whose ``repr`` is
    ``fmt``'s, and only the block's text is kept.
    """
    if thin < 1:
        raise ValueError("thin must be at least 1")
    count = len(trajectory.times)
    kept = np.arange(0, count, thin)
    if kept[-1] != count - 1:
        kept = np.append(kept, count - 1)
    rows = max(1, _BLOCK_VALUES // (trajectory.states.shape[1] + 1))
    blocks = ["t," + ",".join(names)]
    for lo in range(0, len(kept), rows):
        index = kept[lo:lo + rows]
        table = np.column_stack((trajectory.times[index],
                                 trajectory.states[index])).tolist()
        blocks.append("\n".join(",".join(map(repr, row)) for row in table))
    return "\n".join(blocks) + "\n"


def pd_series_csv(fractions) -> str:
    """CSV with header ``step,coop_fraction``."""
    lines = ["step,coop_fraction"]
    lines.extend(f"{k},{fmt(f)}" for k, f in enumerate(fractions))
    return "\n".join(lines) + "\n"


def _check_lines(a1: float, a2: float, a3: float) -> list[str]:
    marks = {True: "PASS", False: "FAIL"}
    return [f"    a1 > 0       {marks[a1 > 0.0]}",
            f"    a3 > 0       {marks[a3 > 0.0]}",
            f"    a1*a2 > a3   {marks[a1 * a2 > a3]}"]


def render_stability_report(report: StabilityReport) -> str:
    """Fixed-layout plain-text report for one analyzed system."""
    names = variable_names(report.variable_order) if report.variable_order \
        else tuple(f"q{k+1}" for k in range(len(report.equilibrium)))
    lines = ["equilibrium:"]
    lines.extend(f"  {name} = {fmt(v)}"
                 for name, v in zip(names, report.equilibrium))
    coeffs = report.char_coeffs
    lines.append("characteristic coefficients (Jacobian):")
    lines.extend(f"  a{k+1} = {fmt(c)}" for k, c in enumerate(coeffs))
    if len(coeffs) == 3:
        lines.append("  Routh-Hurwitz checks:")
        lines.extend(_check_lines(*coeffs))
    elif not report.coeffs_from_eigenvalues:
        lines.append("  Routh-Hurwitz checks: n/a (system is not cubic; "
                     "verdict rests on the eigenvalue margin)")
    else:
        route = ("coefficients are the elementary symmetric functions of "
                 "the eigenvalues" if coeffs else
                 "coefficients from the eigenvalues are not finite, none printed")
        lines.append(f"  Routh-Hurwitz checks: n/a (system is not cubic; "
                     f"{route}; verdict rests on the eigenvalue margin)")
    lines.append(f"eigenvalue margin (max Re): {fmt(report.eigen_margin)}")
    lines.append(f"verdict: {report.verdict.value}")
    if report.closed_form is not None:
        a1, a2, a3 = report.closed_form
        lines.append("closed-form coefficients (r-parameter formulas; "
                     "exact when r1 = r2):")
        lines.append(f"  a1 = {fmt(a1)}")
        lines.append(f"  a2 = {fmt(a2)}")
        lines.append(f"  a3 = {fmt(a3)}")
        lines.append("  Routh-Hurwitz checks:")
        lines.extend(_check_lines(a1, a2, a3))
    return "\n".join(lines) + "\n"


def render_equilibrium(values, order) -> str:
    """One ``name = value`` line per variable of the edge order."""
    return "".join(f"{name} = {fmt(v)}\n"
                   for name, v in zip(variable_names(order), values))


@dataclass(frozen=True)
class SweepPoint:
    value: float
    verdict: str
    eigen_margin: float


def sweep(scenario: CanonicalScenario, param: str, start: float, stop: float,
          points: int) -> list[SweepPoint]:
    """Analyze the canonical system on a uniform grid over one r parameter.

    The grid is evaluated as one stack of 3 x 3 systems
    (``stability.canonical_margins``), with the guards, margins and
    verdict band of ``analyze``. Points with no unique equilibrium (a singular
    grid value) are recorded as verdict ERROR.
    """
    if param not in SWEEP_PARAMS:
        raise ValueError(f"param must be one of {', '.join(SWEEP_PARAMS)}")
    if points < 2:
        raise ValueError("points must be at least 2")
    if points > MAX_SWEEP_POINTS:
        raise ValueError(f"points must be at most {MAX_SWEEP_POINTS}")
    if not start < stop:
        raise ValueError("sweep start must be strictly less than stop")
    # The same float operations, point by point, as
    # start + k * (stop - start) / (points - 1) in Python floats.
    with np.errstate(over="ignore", invalid="ignore"):
        values = start + np.arange(points) * (stop - start) / (points - 1)
    finite = np.isfinite(values)
    if not finite.all():
        raise ValueError(f"{param} must be finite, got {values[~finite][0]}")
    r = np.tile(scenario.r.as_tuple(), (points, 1))
    r[:, SWEEP_PARAMS.index(param)] = values
    margins = canonical_margins(r)
    return [SweepPoint(value, "ERROR" if math.isnan(margin)
                       else verdict_of(margin).value, margin)
            for value, margin in zip(values.tolist(), margins.tolist())]


def sweep_csv(points: list[SweepPoint]) -> str:
    lines = ["value,verdict,eigen_margin"]
    lines.extend(f"{fmt(p.value)},{p.verdict},{fmt(p.eigen_margin)}"
                 for p in points)
    return "\n".join(lines) + "\n"


def render_side_payment(m: PayoffMatrix, sigma: float) -> str:
    """What a side payment does to the transit player's dominance."""
    threshold = min_side_payment(m)
    before = dominant_strategy(m) or "none"
    after = dominant_strategy(apply_side_payment(m, sigma)) or "none"
    return (f"side payment sigma = {fmt(sigma)}\n"
            f"minimum sigma for cooperate-dominance: {fmt(threshold)} "
            f"(strictly above flips it)\n"
            f"transit dominant strategy without payment: {before}\n"
            f"transit dominant strategy with payment: {after}\n")
