"""Deterministic text outputs: trajectory CSV, stability report, PD series, sweeps.

Every number is written as ``repr(float(x))`` writes it -- the shortest
decimal that round-trips to the same double -- and no output embeds
timestamps, so identical runs produce byte-identical files.

Report lines format their few numbers one ``repr`` at a time
(``csvtext.fmt``). The CSV writers write ASCII bytes to a file open for
binary writing. CSV rows of floats -- trajectories, and sweeps with
their verdict label column -- are rendered by
:class:`cournotgraph.csvtext.CsvRows` without ``repr``, in flat blocks
of ``_BLOCK_VALUES`` values that may begin and end mid-row, each
written to the output file as it is made; a trajectory's blocks are
slices of its table, which holds the CSV's rows. A sweep is arrays
(values, margins, verdict codes), evaluated in chunks of
``_SWEEP_CHUNK`` grid points. A PD series is written a block of rows at
a time.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .csvtext import CsvRows, fmt
from .dynamics import Trajectory
from .network import variable_names
from .pdgame import PayoffMatrix, apply_side_payment, dominant_strategy, \
    min_side_payment
from .scenario import CanonicalScenario
from .stability import (VERDICTS, CanonicalParams, StabilityReport,
                        _hurwitz_checks, canonical_margins, verdict_codes)

SWEEP_PARAMS = tuple(field.name for field in fields(CanonicalParams))
MAX_SWEEP_POINTS = 1_000_000  # grid points of one sweep, checked before any work
_BLOCK_VALUES = 4096          # values per block of rendered CSV text
_SWEEP_CHUNK = 1 << 16        # grid points per canonical_margins call
_SERIES_ROWS = 8192           # rows per block of a PD series


def write_trajectory(trajectory: Trajectory, names, out) -> None:
    """Write the CSV of every kept state of ``trajectory`` to the binary
    file ``out``: header ``t,<name1>,...``, then the rows of its table.
    Thinning is ``integrate``'s.

    The table, read flat, is rendered and written in blocks of
    ``_BLOCK_VALUES`` values by ``CsvRows``, rows of any width filling
    whole blocks, so only one block's text is held.
    """
    width = trajectory.table.shape[1]
    flat = trajectory.table.reshape(-1)
    out.write(("t," + ",".join(names) + "\n").encode("ascii"))
    render = CsvRows(max(1, min(_BLOCK_VALUES, flat.size)))
    for lo in range(0, flat.size, _BLOCK_VALUES):
        block = flat[lo:lo + _BLOCK_VALUES]
        render.values[:block.size] = block
        out.write(render(block.size, width, lo % width))


def pd_series_csv(fractions, out) -> None:
    """Write the CSV of a cooperation-fraction series, header
    ``step,coop_fraction``, to the binary file ``out``, a block of
    ``_SERIES_ROWS`` rows at a time. A fraction that is the same float
    as the row before's (the tail after a fixed point) reuses its text."""
    out.write(b"step,coop_fraction\n")
    prev = text = None
    for lo in range(0, len(fractions), _SERIES_ROWS):
        rows = []
        for k, f in enumerate(fractions[lo:lo + _SERIES_ROWS], lo):
            if f is not prev:
                prev, text = f, fmt(f)
            rows.append(f"{k},{text}\n")
        out.write("".join(rows).encode("ascii"))


def _check_lines(a1: float, a2: float, a3: float) -> list[str]:
    return [f"    {label:<13}{'PASS' if holds else 'FAIL'}"
            for label, holds in _hurwitz_checks(a1, a2, a3)]


def render_stability_report(report: StabilityReport) -> str:
    """Fixed-layout plain-text report for one analyzed system."""
    names = variable_names(report.variable_order) if report.variable_order \
        else tuple(f"q{k+1}" for k in range(len(report.equilibrium)))
    lines = ["equilibrium:"]
    lines.extend(f"  {name} = {fmt(v)}"
                 for name, v in zip(names, report.equilibrium))
    coeffs = report.char_coeffs or ()
    lines.append("characteristic coefficients (Jacobian):")
    lines.extend(f"  a{k+1} = {fmt(c)}" for k, c in enumerate(coeffs))
    if len(coeffs) == 3:
        lines.append("  Routh-Hurwitz checks:")
        lines.extend(_check_lines(*coeffs))
    else:
        route = (f"{report.coefficient_route}; " if report.coefficient_route
                 else "")
        lines.append(f"  Routh-Hurwitz checks: n/a (system is not cubic; "
                     f"{route}verdict rests on the eigenvalue margin)")
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
class Sweep:
    """A verdict map: grid values, their eigenvalue margins (NaN where
    there is no unique equilibrium) and verdict codes into
    ``stability.VERDICTS``."""
    values: np.ndarray
    margins: np.ndarray
    codes: np.ndarray


def sweep(scenario: CanonicalScenario, param: str, start: float, stop: float,
          points: int) -> Sweep:
    """Analyze the canonical system on a uniform grid over one r parameter.

    The grid is evaluated as stacks of at most ``_SWEEP_CHUNK`` 3 x 3
    systems (``stability.canonical_margins``), with the guards, margins
    and verdict band (``stability.verdict_codes``) of ``analyze``. Points
    with no unique equilibrium (a singular grid value) get verdict ERROR.
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
    r = np.tile(scenario.r.as_tuple(), (min(points, _SWEEP_CHUNK), 1))
    margins = np.empty(points)
    for lo in range(0, points, _SWEEP_CHUNK):
        chunk = values[lo:lo + _SWEEP_CHUNK]
        r[:len(chunk), SWEEP_PARAMS.index(param)] = chunk
        margins[lo:lo + len(chunk)] = canonical_margins(r[:len(chunk)])
    return Sweep(values, margins, verdict_codes(margins))


def sweep_csv(result: Sweep, out) -> None:
    """Write the CSV of ``result``, header ``value,verdict,eigen_margin``,
    to the binary file ``out``: rows rendered by ``CsvRows`` a block
    at a time, the verdict the label of column 1."""
    out.write(b"value,verdict,eigen_margin\n")
    count, rows = len(result.values), _BLOCK_VALUES // 3
    render = CsvRows(3 * max(1, min(rows, count)), VERDICTS)
    for lo in range(0, count, rows):
        k = min(rows, count - lo)
        table = render.values[:3 * k].reshape(k, 3)
        table[:, 0] = result.values[lo:lo + k]
        table[:, 2] = result.margins[lo:lo + k]
        out.write(render(3 * k, 3, codes=result.codes[lo:lo + k]))


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
