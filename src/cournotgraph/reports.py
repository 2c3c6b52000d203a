"""Deterministic text outputs: trajectory CSV, stability report, PD series, sweeps.

Every number is written as ``repr(float(x))`` writes it -- the shortest
decimal that round-trips to the same double -- and no output embeds
timestamps, so identical runs produce byte-identical files.

Report lines format their few numbers one ``repr`` at a time
(``csvtext.fmt``). A system's variables are written as ``name = value``
lines by one writer, ``_assignments``, which ``render_equilibrium`` and
the ``equilibrium:`` block of a stability report share. One helper,
``_names``, names them for it and for a trajectory CSV's header, a
slice at a time, by their edge order, or q1 .. qn for a system without
one. The CSV writers write ASCII bytes to a file open for binary
writing. CSV rows of floats -- trajectories, and sweeps with their
verdict label column -- are rendered by
:func:`cournotgraph.csvtext.render_block`, the one writer of a CSV
double's text, in flat blocks of ``dynamics.STREAM_VALUES`` values that
may begin and end mid-row, each written to the output file as it is made;
a trajectory's blocks are slices of the rows it is given (a
Trajectory's table, or each buffer of rows that ``integrate``, sized by
the same constant, hands ``simulate`` as it marches), read and never
copied. A sweep is arrays (values, margins, verdict codes),
evaluated in chunks of ``_SWEEP_CHUNK`` grid points, and each block of
its CSV is built from them. A PD series is written a block of
``STREAM_VALUES // 2`` rows at a time, as a sweep is ``STREAM_VALUES // 3``:
one constant sizes every text block.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .csvtext import fmt, render_block
from .dynamics import STREAM_VALUES
from .network import _frozen, variable_names
from .pdgame import PayoffMatrix, apply_side_payment, dominant_strategy, \
    min_side_payment
from .scenario import CanonicalScenario
from .stability import (VERDICTS, CanonicalParams, StabilityReport,
                        _hurwitz_checks, canonical_margins, verdict_codes)

SWEEP_PARAMS = tuple(field.name for field in fields(CanonicalParams))
MAX_SWEEP_POINTS = 1_000_000  # grid points of one sweep, checked before any work
_SWEEP_CHUNK = 1 << 16        # grid points per canonical_margins call


def write_trajectory(table, order, out) -> None:
    """Write the CSV rows of ``table`` -- rows (t, q1, ..., qn), the
    ``table`` of a Trajectory or a block of them that ``integrate`` hands
    on as it marches -- to the binary file ``out``, after the header
    ``t,<name1>,...`` unless ``order`` is None (a block that continues
    a CSV). ``_names`` names the variables by their (n, 2) edge
    ``order``, or q1 .. qn where it is empty. Thinning is
    ``integrate``'s.

    The header is written a slice of names at a time. The rows, read
    flat, are rendered and written in blocks of ``STREAM_VALUES``
    values, slices of the rows themselves, rows of any width filling
    whole blocks, so only one block's text is held.
    """
    width = table.shape[1]
    flat = table.reshape(-1)
    if order is not None:
        for lo, names in _names(order, width - 1):
            out.write((("," if lo else "t,") + ",".join(names)).encode("ascii"))
        out.write(b"\n")
    for lo in range(0, flat.size, STREAM_VALUES):
        out.write(render_block(flat[lo:lo + STREAM_VALUES], width,
                               lo % width))


def pd_series_csv(fractions, out) -> None:
    """Write the CSV of a cooperation-fraction series, header
    ``step,coop_fraction``, to the binary file ``out``, a block of
    ``STREAM_VALUES // 2`` rows (two values each) at a time. A fraction
    that is the same float as the row before's (the tail after a fixed
    point) reuses its text."""
    out.write(b"step,coop_fraction\n")
    prev = text = None
    rows = STREAM_VALUES // 2
    for lo in range(0, len(fractions), rows):
        lines = []
        for k, f in enumerate(fractions[lo:lo + rows], lo):
            if f is not prev:
                prev, text = f, fmt(f)
            lines.append(f"{k},{text}\n")
        out.write("".join(lines).encode("ascii"))


def _coefficient_lines(heading: str, coeffs) -> list[str]:
    """The lines of one block of characteristic coefficients: the
    heading, a1 .. an, then a cubic's Routh-Hurwitz checks or, for any
    other system (which past 3 variables has no coefficients), an
    ``n/a`` line. A block with a coefficient that is not finite prints
    its ``n/a`` line alone."""
    if not np.all(np.isfinite(coeffs)):
        return [heading, "  Routh-Hurwitz checks: n/a (coefficients are not "
                "finite; verdict rests on the eigenvalue margin)"]
    lines = [heading, *(f"  a{k+1} = {fmt(c)}" for k, c in enumerate(coeffs))]
    if len(coeffs) != 3:
        return lines + ["  Routh-Hurwitz checks: n/a (system is not cubic; "
                        "verdict rests on the eigenvalue margin)"]
    return lines + ["  Routh-Hurwitz checks:", *(
        f"    {label:<13}{'PASS' if holds else 'FAIL'}"
        for label, holds in _hurwitz_checks(*coeffs))]


def _names(order, count: int):
    """(first index, names) of ``count`` variables, ``STREAM_VALUES``
    at a time: named by the (n, 2) edge ``order``, or q1 .. qn where the
    order is empty. The one naming route of the CSV header and the
    ``name = value`` lines, so one slice's names are held at a time."""
    for lo in range(0, count, STREAM_VALUES):
        yield lo, (variable_names(order[lo:lo + STREAM_VALUES]) if len(order) else
                   [f"q{k + 1}" for k in range(lo, min(lo + STREAM_VALUES, count))])


def _assignments(values, order, indent: str = "") -> str:
    """One ``name = value`` line per value, after ``indent``, named by
    ``_names``. The lines are made a slice of names at a time, so one
    slice's names and lines are held beside the finished slices' text."""
    return "".join("".join(f"{indent}{name} = {fmt(v)}\n"
                           for name, v in zip(names, values[lo:]))
                   for lo, names in _names(order, len(values)))


def render_stability_report(report: StabilityReport) -> str:
    """Fixed-layout plain-text report for one analyzed system."""
    lines = _coefficient_lines("characteristic coefficients (Jacobian):",
                               report.char_coeffs or ())
    lines.append(f"eigenvalue margin (max Re): {fmt(report.eigen_margin)}")
    lines.append(f"verdict: {report.verdict.value}")
    if report.closed_form is not None:
        lines.extend(_coefficient_lines(
            "closed-form coefficients (r-parameter formulas; exact when "
            "r1 = r2):", report.closed_form))
    return ("equilibrium:\n" + _assignments(report.equilibrium,
                                            report.variable_order, "  ")
            + "\n".join(lines) + "\n")


def render_equilibrium(values, order) -> str:
    """One ``name = value`` line per variable of the edge order."""
    return _assignments(values, order)


@dataclass(frozen=True)
class Sweep:
    """A verdict map: grid values, their eigenvalue margins (NaN where
    there is no unique equilibrium) and uint8 verdict codes into
    ``stability.VERDICTS``; read-only arrays, held by the rule of
    ``network._frozen``."""
    values: np.ndarray
    margins: np.ndarray
    codes: np.ndarray

    def __post_init__(self):
        for name, dtype in (("values", np.float64), ("margins", np.float64),
                            ("codes", np.uint8)):
            object.__setattr__(self, name, _frozen(getattr(self, name), dtype))


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
    codes = verdict_codes(margins)
    for array in (values, margins, codes):  # handed over uncopied
        array.setflags(write=False)
    return Sweep(values, margins, codes)


def sweep_csv(result: Sweep, out) -> None:
    """Write the CSV of ``result``, header ``value,verdict,eigen_margin``,
    to the binary file ``out``: rows rendered a block at a time, each
    block built with a placeholder 1.0 in column 1, whose text is the
    row's verdict label."""
    out.write(b"value,verdict,eigen_margin\n")
    rows = STREAM_VALUES // 3
    for lo in range(0, len(result.values), rows):
        values = result.values[lo:lo + rows]
        block = np.column_stack((values, np.ones(len(values)),
                                 result.margins[lo:lo + rows]))
        out.write(render_block(block.reshape(-1), 3,
                               codes=result.codes[lo:lo + rows],
                               labels=VERDICTS))


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
