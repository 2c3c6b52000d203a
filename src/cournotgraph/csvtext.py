"""CSV text of float64 values, byte for byte what ``repr`` writes.

``render_block`` renders a caller's flat block of values -- a table's
rows read left to right and top to bottom, so a block may begin and end
mid-row -- in whole-array numpy steps on temporaries of its own, never
writing the block: :mod:`cournotgraph.shortest` computes the shortest
round-trip digits of every finite nonzero normal double in the block
with Schubfach's integer arithmetic, then each value's text is laid out
as ASCII in a 32-byte slot by ``repr``'s rules (positional when the
decimal point falls at -4 < decpt <= 16, ``d.ddde+XX`` otherwise, ``.0``
on integral values), followed by the comma or newline of its place in
its row, and one boolean compress drops the slots' unused bytes. Zeros
take the same route; only subnormal and non-finite values are passed to
``repr``, one at a time. A label column (a sweep's verdicts) takes its
text from a table. The writers pass the bytes as they are to a file
open for binary writing.

``fmt`` is the same text, one value at a time, for report and scenario
lines.
"""

from __future__ import annotations

import functools
from types import SimpleNamespace

import numpy as np

from .shortest import ascii_digits, decimal_digits

_U64 = np.uint64
_I64 = np.int64


@functools.cache
def _layout_tables() -> SimpleNamespace:
    """The slot layout's constant tables, built on first use. ``keep`` is
    the bit mask of the slot bytes a value's text uses, by its sign, its
    head (0 none, 1..4 ``0.`` and 0..3 zeros, 5 and 6 an exponent of two
    and three digits) and its region length; ``lt``, ``gt`` and ``dot``
    are the byte masks of the region words before, after and at the
    decimal point's index p (24: no point). ``exponent`` holds the text
    of each exponent e = -324 .. 308 (``e``, its sign, three digits) and
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


def fmt(x: float) -> str:
    """``repr(float(x))``: the shortest text that reads back as x."""
    return repr(float(x))


_HEAD = _U64(int.from_bytes(b"\0\0-0.000", "little"))
_COMMA = _U64(ord(",") << 56)           # byte 31 of a slot
_NEWLINE = _U64((ord(",") ^ ord("\n")) << 56)   # turns byte 31 into \n


@functools.cache
def _label_slots(labels: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """The literal slots of ``labels`` and their keep bits."""
    literals = [_literal(label) for label in labels]
    return (np.array([slot for slot, _ in literals], np.uint8),
            np.array([keep for _, keep in literals], "<u4"))


def render_block(values: np.ndarray, width: int, column: int = 0,
                 codes: np.ndarray | None = None,
                 labels: tuple[str, ...] = ()) -> np.ndarray:
    """The text, as ASCII bytes, of the flat block ``values`` (contiguous
    float64, read and never written) in rows of ``width`` values, the
    first in ``column`` of its row: each value as ``repr`` writes it,
    then ``\\n`` if it ends its row and ``,`` if not. ``codes``, for a
    block of whole rows, picks each row's label of ``labels`` for
    column 1, whose values are placeholders and not written.

    Every value has a 32-byte slot of four little-endian ``uint64``
    words: bytes 2-7 hold ``-0.000`` (the sign, and ``0.`` and up to three
    zeros for a value below 1), bytes 8-25 the region of 17 digits and a
    point, bytes 26-30 ``e``, the exponent's sign and three digits, byte
    31 the separator. Keep bits per slot pick the text's bytes. A literal
    slot holds its text from byte 2: ``repr``'s for subnormal and
    non-finite values, and a label.
    """
    bits = values.view(_U64)
    digits, point, special = decimal_digits(bits)
    head, words, count = ascii_digits(digits)
    t = _layout_tables()

    # p: index of the point in the region, 24 for none; the sign, the
    # head class and the region length pick the slot bytes kept.
    positional = (point > -4) & (point < 17)
    fraction = positional & (point > 0)     # positional, point in the region
    p = np.where(fraction, point, 24)
    hc = np.maximum(1 - point, 0)
    exponent = None
    if not positional.all():
        exponent = ~positional
        e_row = point[exponent]     # point - 1 + 324: the exponent's row
        e_row += 323
        hc[exponent] = t.exponent_head.take(e_row, mode="clip")
        split = exponent & (count > 1)
        p[split] = 1
        fraction |= split
    length = np.where(fraction, np.maximum(p + 1, count) + 1, count)
    hc *= 19
    hc += length
    hc += (bits >> _U64(63)).view(_I64) * (7 * 19)
    keep_bits = t.keep.take(hc, mode="clip")
    del hc, length

    # The region: digits up to p, the point at p, then the digits again
    # one byte later (word by word, ``shifted``).
    region = np.empty((3, values.size), _U64)
    np.right_shift(words, _U64(56), out=region[1:])
    words <<= _U64(8)
    region[1] |= words[1]
    np.bitwise_or(words[0], head, out=region[0])
    del words, head
    shifted = region << _U64(8)
    shifted[1:] |= region[:2] >> _U64(56)
    region &= t.lt.take(p, axis=1, mode="clip")
    shifted &= t.gt.take(p, axis=1, mode="clip")
    region |= shifted
    del shifted
    region |= t.dot.take(p, axis=1, mode="clip")
    del p
    slots = np.empty((values.size, 4), _U64)
    slots[:, 0] = _HEAD
    slots[:, 1:] = region.T
    del region
    slots[:, 3] |= _COMMA
    text = slots.view(np.uint8)
    if exponent is not None:
        text[exponent, 26:31] = t.exponent.take(e_row, axis=0, mode="clip")
        del exponent, e_row

    for j in np.flatnonzero(special).tolist():
        text[j], keep_bits[j] = _literal(fmt(values[j]))
    if codes is not None:
        label_slots, label_keep = _label_slots(labels)
        text[1::width] = label_slots[codes]
        keep_bits[1::width] = label_keep[codes]
    slots[width - 1 - column::width, 3] ^= _NEWLINE
    # One flag per slot byte: the keep bits unpacked, lowest bit first.
    keep = np.unpackbits(keep_bits.view(np.uint8), bitorder="little")
    return text.reshape(-1)[keep.view(bool)]
