"""Deterministic text outputs: trajectory CSV, stability report, PD series, sweeps.

Every number is written as ``repr(float(x))`` writes it -- the shortest
decimal that round-trips to the same double -- and no output embeds
timestamps, so identical runs produce byte-identical files.

Report lines format their few numbers one ``repr`` at a time (``fmt``).
CSV rows of floats (trajectories and sweeps) are rendered by
``_CsvRows`` a block of at most ``_BLOCK_VALUES`` values at a time, in
whole-array numpy steps: :mod:`cournotgraph.shortest` computes the
shortest round-trip digits of every finite nonzero normal double in the
block with Schubfach's integer arithmetic, then each value's text is
laid out as ASCII in a 32-byte slot by ``repr``'s rules (positional
when the decimal point falls at -4 < decpt <= 16, ``d.ddde+XX``
otherwise, ``.0`` on integral values), and one boolean compress drops
the slots' unused bytes. Zeros take the same route; only subnormal and
non-finite values are passed to ``repr``, one at a time. The text is
byte for byte what ``repr`` gives.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from types import SimpleNamespace

import numpy as np

from .dynamics import Trajectory
from .network import variable_names
from .pdgame import PayoffMatrix, apply_side_payment, dominant_strategy, \
    min_side_payment
from .scenario import CanonicalScenario
from .shortest import WORK_ROWS, ascii_digits, decimal_digits
from .stability import (CanonicalParams, StabilityReport, _hurwitz_checks,
                        canonical_margins, verdict_of)

SWEEP_PARAMS = tuple(field.name for field in fields(CanonicalParams))
MAX_SWEEP_POINTS = 1_000_000  # grid points of one sweep, checked before any work
_BLOCK_VALUES = 1536          # values per block of rendered CSV rows


def fmt(x: float) -> str:
    return repr(float(x))


_U64 = np.uint64
_I64 = np.int64


@functools.cache
def _layout_tables() -> SimpleNamespace:
    """The slot layout's constant tables, built on first use. ``keep`` is
    the bit mask of the slot bytes a value's text uses, by its sign, its
    head (0 none, 1..4 ``0.`` and 0..3 zeros, 5 and 6 an exponent of two
    and three digits) and its region length; ``lt``, ``gt`` and ``dot``
    are the byte masks of the region words before, after and at the
    decimal point's index p (24: no point); ``bits`` unpacks a byte into
    eight flags, lowest bit first."""
    heads = ([()] + [(3, 4, *range(5, 4 + z)) for z in range(1, 5)]
             + [(26, 27, 29, 30), (26, 27, 28, 29, 30)])
    keep = [sum(1 << b for b in (*sign, *head, *range(8, 8 + length), 31))
            for sign in ((), (2,)) for head in heads for length in range(19)]

    def words(byte):
        """Three words of byte(i, p) for region bytes i, one row per p."""
        return [[int.from_bytes(bytes(byte(i, p) for i in range(w, w + 8)),
                                "little") for p in range(25)]
                for w in (0, 8, 16)]
    return SimpleNamespace(
        keep=np.array(keep, "<u4"),
        lt=np.array(words(lambda i, p: 0xFF if i < p else 0), _U64),
        gt=np.array(words(lambda i, p: 0xFF if i > p else 0), _U64),
        dot=np.array(words(lambda i, p: 0x2E if i == p else 0), _U64),
        bits=np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1,
                           bitorder="little").view(bool))


_HEAD = _U64(int.from_bytes(b"\0\0-0.000", "little"))
_TAIL = _U64(int.from_bytes(b"\0\0e+000,", "little"))
_NEWLINE = _U64((ord(",") ^ ord("\n")) << 56)   # turns byte 31 into \n
_EXP_BYTES = _U64(0x00FFFFFFFFFF0000)   # 'e', sign and three digits of word 3


class _CsvRows:
    """Renders blocks of up to ``capacity`` float64 values as CSV text:
    each value as ``repr`` writes it, ``,`` after each value but the last
    of a row, ``\n`` after that. Its buffers are made once and reused, so
    rendering a block allocates little beyond the text.

    Every value has a 32-byte slot of four little-endian ``uint64``
    words: bytes 2-7 hold ``-0.000`` (the sign, and ``0.`` and up to three
    zeros for a value below 1), bytes 8-25 the region of 17 digits and a
    point, bytes 26-30 ``e``, the exponent's sign and three digits, byte
    31 the separator. A keep mask per slot picks the text's bytes.
    """

    def __init__(self, capacity: int):
        self._values = np.empty(capacity)
        self._slots = np.empty((capacity, 4), "<u8")
        self._slots[:, 0] = _HEAD
        self._work = np.empty((WORK_ROWS, capacity), _U64)
        self._keep_bits = np.empty(capacity, "<u4")

    def __call__(self, *columns: np.ndarray, row_ends: bool = True) -> str:
        """The text of the block that ``columns`` (2-D arrays of as many
        rows, side by side) make. Its last column ends each row unless
        ``row_ends`` is false (a piece of a row wider than a block)."""
        rows = len(columns[0])
        n = rows * sum(column.shape[1] for column in columns)
        values = np.concatenate(columns, axis=1,
                                out=self._values[:n].reshape(rows, -1))
        bits = values.reshape(-1).view(_U64)
        work = self._work[:, :n]
        flags = work[8].view(bool).reshape(8, n)
        special = flags[0]
        decimal_digits(bits, work, flags)
        digits, point = work[0], work[3].view(_I64)
        count = ascii_digits(digits, work)
        head, first, second = work[2], work[4], work[5]

        # p: index of the point in the region, 24 for none; the sign, the
        # head class and the region length pick the slot bytes kept.
        p, hc, length = work[12:15].view(_I64)
        positional, fraction, other = flags[1:4]
        np.greater(point, -4, out=positional)
        np.less(point, 17, out=fraction)
        positional &= fraction
        np.greater(point, 0, out=fraction)
        fraction &= positional          # positional, point in the region
        p.fill(24)
        np.putmask(p, fraction, point)
        np.subtract(1, point, out=hc)
        np.maximum(hc, 0, out=hc)
        slots = self._slots[:n]
        exponent = None
        if not positional.all():
            exponent = ~positional
            e = point[exponent] - 1
            magnitude = np.abs(e)
            hc[exponent] = 5 + (magnitude >= 100)
            split = exponent & (count > 1)
            p[split] = 1
            fraction |= split
            exponent_word = np.where(e < 0, ord("-") << 24, ord("+") << 24)
            exponent_word |= ord("e") << 16
            for shift, digit in ((32, magnitude // 100),
                                 (40, magnitude // 10 % 10),
                                 (48, magnitude % 10)):
                exponent_word |= (digit + ord("0")) << shift
        np.add(p, 1, out=length)
        np.maximum(length, count, out=length)
        length += 1
        np.logical_not(fraction, out=other)
        np.putmask(length, other, count)
        sign = work[6].view(_I64)
        np.right_shift(bits, _U64(63), out=work[6])
        sign *= 7 * 19
        hc *= 19
        hc += length
        hc += sign

        # The region: digits up to p, the point at p, then the digits again
        # one byte later (word by word, ``shifted``).
        region, shifted, mask = work[15:18], work[18:21], work[9:12]
        np.left_shift(first, _U64(8), out=region[0])
        region[0] |= head
        np.right_shift(first, _U64(56), out=region[1])
        np.left_shift(second, _U64(8), out=first)
        region[1] |= first
        np.right_shift(second, _U64(56), out=region[2])
        np.left_shift(region, _U64(8), out=shifted)
        np.right_shift(region[:2], _U64(56), out=mask[:2])
        shifted[1:] |= mask[:2]
        t = _layout_tables()
        np.take(t.lt, p, axis=1, out=mask, mode="clip")
        region &= mask
        np.take(t.gt, p, axis=1, out=mask, mode="clip")
        shifted &= mask
        region |= shifted
        np.take(t.dot, p, axis=1, out=mask, mode="clip")
        region |= mask
        np.copyto(slots[:, 1:].T, region)
        slots[:, 3] |= _TAIL
        if row_ends:
            slots[:, 3].reshape(rows, -1)[:, -1] ^= _NEWLINE
        if exponent is not None:
            slots[exponent, 3] = ((slots[exponent, 3] & ~_EXP_BYTES)
                                  | exponent_word.astype(_U64))

        kb = self._keep_bits[:n]
        np.take(t.keep, hc, out=kb, mode="clip")
        # One flag per slot byte: each byte of the keep bits unpacked by
        # a table lookup into work rows 0-3 (rows 4-7 hold the indexes).
        keep = work[0:4].view(bool).reshape(-1)
        index = work[4:8].view(np.intp).reshape(-1)[:4 * n]
        np.copyto(index, kb.view(np.uint8))
        np.take(t.bits, index, axis=0, out=keep.reshape(-1, 8), mode="clip")
        text = slots.view(np.uint8).reshape(-1)
        if not special.any():
            return str(text[keep], "ascii")
        # Subnormal and non-finite values: repr's text from byte 2.
        odd = np.flatnonzero(special)
        for j in odd.tolist():
            word = np.frombuffer(repr(float(values.flat[j])).encode("ascii"),
                                 np.uint8)
            keep[32 * j:32 * j + 31] = False
            keep[32 * j + 2:32 * j + 2 + len(word)] = True
            text[32 * j + 2:32 * j + 2 + len(word)] = word
        out = str(text[keep], "ascii")
        slots[odd, 0] = _HEAD
        return out


def write_trajectory(trajectory: Trajectory, names, out) -> None:
    """Write the CSV of every kept state of ``trajectory`` to the open
    text file ``out``: header ``t,<name1>,...``, then one row per state.
    Thinning is ``integrate``'s.

    Rows are rendered and written a block of at most ``_BLOCK_VALUES``
    values at a time by ``_CsvRows`` (a row wider than that in pieces),
    so only one block's text is held.
    """
    times, states = trajectory.times, trajectory.states
    width = states.shape[1] + 1
    out.write("t," + ",".join(names) + "\n")
    if width <= _BLOCK_VALUES:
        rows = _BLOCK_VALUES // width
        render = _CsvRows(min(rows, max(1, len(times))) * width)
        for lo in range(0, len(times), rows):
            out.write(render(times[lo:lo + rows, None], states[lo:lo + rows]))
        return
    render = _CsvRows(_BLOCK_VALUES)
    for k in range(len(times)):
        out.write(render(times[k:k + 1, None],
                         states[k:k + 1, :_BLOCK_VALUES - 1], row_ends=False))
        for lo in range(_BLOCK_VALUES - 1, width - 1, _BLOCK_VALUES):
            out.write(render(states[k:k + 1, lo:lo + _BLOCK_VALUES],
                             row_ends=lo + _BLOCK_VALUES >= width - 1))


def pd_series_csv(fractions) -> str:
    """CSV with header ``step,coop_fraction``."""
    lines = ["step,coop_fraction"]
    lines.extend(f"{k},{fmt(f)}" for k, f in enumerate(fractions))
    return "\n".join(lines) + "\n"


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
    """CSV with header ``value,verdict,eigen_margin``: the two numbers of
    each point rendered by ``_CsvRows`` a block at a time, the verdict
    joined in per row."""
    numbers = np.empty((len(points), 2))
    numbers[:, 0] = [p.value for p in points]
    numbers[:, 1] = [p.eigen_margin for p in points]
    rows = _BLOCK_VALUES // 2
    render = _CsvRows(2 * max(1, min(rows, len(points))))
    lines = ["value,verdict,eigen_margin\n"]
    for lo in range(0, len(points), rows):
        text = render(numbers[lo:lo + rows])
        for line, point in zip(text.splitlines(), points[lo:lo + rows]):
            value, _, margin = line.partition(",")
            lines.append(f"{value},{point.verdict},{margin}\n")
    return "".join(lines)


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
