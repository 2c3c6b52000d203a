"""CSV text of float64 values, byte for byte what ``repr`` writes.

``CsvRows`` renders a flat block of values -- a table's rows read left
to right and top to bottom, so a block may begin and end mid-row -- in
whole-array numpy steps: :mod:`cournotgraph.shortest` computes the
shortest round-trip digits of every finite nonzero normal double in the
block with Schubfach's integer arithmetic, then each value's text is
laid out as ASCII in a 32-byte slot by ``repr``'s rules (positional
when the decimal point falls at -4 < decpt <= 16, ``d.ddde+XX``
otherwise, ``.0`` on integral values), followed by the comma or newline
of its place in its row, and one boolean compress drops the slots'
unused bytes. Zeros take the same route; only subnormal and non-finite
values are passed to ``repr``, one at a time. A label column (a sweep's
verdicts) takes its text from a table. ``write_text`` hands the bytes
to a text file's binary buffer.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np

from .shortest import WORK_ROWS, ascii_digits, decimal_digits

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
    eight flags, lowest bit first. ``exponent`` holds the text of each
    exponent e = -324 .. 308 (``e``, its sign, three digits) and
    ``exponent_head`` its head class."""
    exponents = range(-324, 309)
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
                           bitorder="little").view(bool),
        exponent=np.array([list(f"e{e:+04d}".encode()) for e in exponents],
                          np.uint8),
        exponent_head=np.array([5 + (abs(e) >= 100) for e in exponents]))


def _literal(text: str) -> tuple[np.ndarray, int]:
    """A slot whose text is ``text`` (at most 29 characters, from byte
    2) and ``,``, and its keep bits."""
    slot = np.zeros(32, np.uint8)
    slot[2:2 + len(text)] = np.frombuffer(text.encode("ascii"), np.uint8)
    slot[31] = ord(",")
    return slot, (1 << 31) | ((1 << len(text)) - 1) << 2


_HEAD = _U64(int.from_bytes(b"\0\0-0.000", "little"))
_COMMA = _U64(ord(",") << 56)           # byte 31 of a slot
_NEWLINE = _U64((ord(",") ^ ord("\n")) << 56)   # turns byte 31 into \n


class CsvRows:
    """Renders flat blocks of up to ``capacity`` float64 values, the
    caller's ``values``, as CSV text: each value as ``repr`` writes it,
    then ``\\n`` if it ends its row and ``,`` if not. Its one work array
    of ``WORK_ROWS`` rows of ``capacity`` words is made once and holds
    every intermediate, so a block allocates little beyond its text.

    Every value has a 32-byte slot of four little-endian ``uint64``
    words: bytes 2-7 hold ``-0.000`` (the sign, and ``0.`` and up to three
    zeros for a value below 1), bytes 8-25 the region of 17 digits and a
    point, bytes 26-30 ``e``, the exponent's sign and three digits, byte
    31 the separator. Keep bits per slot pick the text's bytes. A literal
    slot holds its text from byte 2: ``repr``'s for subnormal and
    non-finite values, and a label of ``labels`` for column 1 of a
    sweep's rows. Slots, keep bits and the keep mask reuse work rows
    spent by then.
    """

    def __init__(self, capacity: int, labels: tuple[str, ...] = ()):
        self.values = np.empty(capacity)
        self._work = np.empty(WORK_ROWS * capacity, _U64)
        literals = [_literal(label) for label in labels]
        self._label_slots = np.array([slot for slot, _ in literals], np.uint8)
        self._label_keep = np.array([keep for _, keep in literals], "<u4")

    def __call__(self, n: int, width: int, column: int = 0,
                 codes: np.ndarray | None = None) -> np.ndarray:
        """The text, as ASCII bytes, of ``values[:n]`` in rows of
        ``width`` values, the first in ``column`` of its row. ``codes``,
        for a block of whole rows, picks each row's label."""
        values = self.values[:n]
        if codes is not None:
            values[1::width] = 1.0      # a normal value, never read
        bits = values.view(_U64)
        work = self._work[:WORK_ROWS * n].reshape(WORK_ROWS, n)
        flags = work[12].view(bool).reshape(8, n)
        special = flags[0]
        decimal_digits(bits, work, flags)
        digits, point = work[0], work[8].view(_I64)
        count = ascii_digits(digits, work)
        head, first, second = work[11], work[4], work[5]

        # p: index of the point in the region, 24 for none; the sign, the
        # head class and the region length pick the slot bytes kept.
        p, hc, length = (work[i].view(_I64) for i in (3, 7, 10))
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
        t = _layout_tables()
        exponent = None
        if not positional.all():
            exponent = ~positional
            e_row = point[exponent]     # point - 1 + 324: the exponent's row
            e_row += 323
            hc[exponent] = t.exponent_head.take(e_row, mode="clip")
            split = exponent & (count > 1)
            p[split] = 1
            fraction |= split
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
        # one byte later (word by word, ``shifted``). It is made in place
        # of the digits' words.
        region, shifted, mask = work[4:7], work[0:3], work[8:11]
        np.right_shift(second, _U64(56), out=region[2])
        second <<= _U64(8)
        np.right_shift(first, _U64(56), out=shifted[0])
        second |= shifted[0]
        first <<= _U64(8)
        first |= head
        np.left_shift(region, _U64(8), out=shifted)
        np.right_shift(region[:2], _U64(56), out=mask[:2])
        shifted[1:] |= mask[:2]
        np.take(t.lt, p, axis=1, out=mask, mode="clip")
        region &= mask
        np.take(t.gt, p, axis=1, out=mask, mode="clip")
        shifted &= mask
        region |= shifted
        np.take(t.dot, p, axis=1, out=mask, mode="clip")
        region |= mask
        slots = work[0:4].reshape(n, 4)
        np.copyto(slots[:, 1:].T, region)
        slots[:, 0] = _HEAD
        slots[:, 3] |= _COMMA
        text = slots.view(np.uint8)
        if exponent is not None:
            text[exponent, 26:31] = t.exponent.take(e_row, axis=0, mode="clip")
        keep_bits = work[4].view("<u4")[:n]     # hc to keep bits
        np.take(t.keep, hc, out=keep_bits, mode="clip")

        for j in np.flatnonzero(special).tolist():
            text[j], keep_bits[j] = _literal(repr(float(values[j])))
        if codes is not None:
            text[1::width] = self._label_slots[codes]
            keep_bits[1::width] = self._label_keep[codes]
        slots[width - 1 - column::width, 3] ^= _NEWLINE
        # One flag per slot byte: each byte of the keep bits unpacked by
        # a table lookup into rows 9-12 (rows 5-8 hold the indexes).
        keep = work[9:13].view(bool).reshape(-1, 8)
        index = work[5:9].view(np.intp).reshape(-1)
        np.copyto(index, keep_bits.view(np.uint8))
        np.take(t.bits, index, axis=0, out=keep, mode="clip")
        return text.reshape(-1)[keep.reshape(-1)]


def write_text(out, text: np.ndarray) -> None:
    """Write the ASCII bytes ``text`` to the open text file ``out``:
    straight to its binary buffer when it has one, with no str copy and
    no re-encoding."""
    buffer = getattr(out, "buffer", None)
    if buffer is None:
        out.write(str(text, "ascii"))
    else:
        out.flush()
        buffer.write(text)
