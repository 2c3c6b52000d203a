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
its row; every other byte of a slot is NUL, and one ``translate``
deletes them. Zeros take the same route; only subnormal and non-finite
values are passed to ``repr``, one at a time. A label column (a sweep's
verdicts) takes its text from a table. The writers pass the bytes as
they are to a file open for binary writing.

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
    """The slot layout's constant tables, built on first use. ``head`` is
    a slot's first word by the value's sign (5 rows apart) and head class
    (0 none, 1..4 ``0.`` and 0..3 zeros); ``lt``, ``gt`` and ``dot`` are
    the byte masks of the region words before, after and at index p
    (24: no point). ``exponent`` holds the text of each exponent
    e = -324 .. 308: a NUL if it has two digits, ``e``, its sign and its
    digits."""
    def words(byte):
        """Three words of byte(i, p) for region bytes i, one row per p."""
        return [[int.from_bytes(bytes(byte(i, p) for i in range(w, w + 8)),
                                "little") for p in range(25)]
                for w in (0, 8, 16)]
    return SimpleNamespace(
        head=np.array([int.from_bytes(sign + head, "little")
                       for sign in (b"", b"-")
                       for head in (b"", b"0.", b"0.0", b"0.00", b"0.000")],
                      _U64),
        lt=np.array(words(lambda i, p: 0xFF if i < p else 0), _U64),
        gt=np.array(words(lambda i, p: 0xFF if i > p else 0), _U64),
        dot=np.array(words(lambda i, p: 0x2E if i == p else 0), _U64),
        exponent=np.array([list(f"e{e:+03d}".encode().rjust(5, b"\0"))
                           for e in range(-324, 309)], np.uint8))


def _literal(text: str) -> np.ndarray:
    """A slot whose text is ``text`` (at most 31 characters) and ``,``."""
    return np.frombuffer(text.encode("ascii").ljust(31, b"\0") + b",",
                         np.uint8)


def fmt(x: float) -> str:
    """``repr(float(x))``: the shortest text that reads back as x."""
    return repr(float(x))


_COMMA = _U64(ord(",") << 56)           # byte 31 of a slot
_NEWLINE = _U64((ord(",") ^ ord("\n")) << 56)   # turns byte 31 into \n


@functools.cache
def _label_slots(labels: tuple[str, ...]) -> np.ndarray:
    """The literal slots of ``labels``."""
    return np.array([_literal(label) for label in labels])


def render_block(values: np.ndarray, width: int, column: int = 0,
                 codes: np.ndarray | None = None,
                 labels: tuple[str, ...] = ()) -> bytearray:
    """The text, as ASCII bytes, of the flat block ``values`` (contiguous
    float64, read and never written) in rows of ``width`` values, the
    first in ``column`` of its row: each value as ``repr`` writes it,
    then ``\\n`` if it ends its row and ``,`` if not. ``codes``, for a
    block of whole rows, picks each row's label of ``labels`` for
    column 1, whose values are placeholders and not written.

    Every value has a 32-byte slot of four little-endian ``uint64``
    words: bytes 0-5 hold the sign and, for a value below 1, ``0.`` and
    up to three zeros; bytes 8-25 the region of 17 digits and a point,
    bytes 26-30 the exponent (``e``, its sign and two or three digits),
    byte 31 the separator. Every byte that is not text is NUL, and the
    slots' bytes are returned with NUL deleted. A literal slot holds its
    text from byte 0: ``repr``'s for subnormal and non-finite values,
    and a label.
    """
    bits = values.view(_U64)
    digits, point, special = decimal_digits(bits)
    head, words, count = ascii_digits(digits)
    t = _layout_tables()

    # p: index of the point in the region, 24 for none.
    positional = (point > -4) & (point < 17)
    fraction = positional & (point > 0)     # positional, point in the region
    p = np.where(fraction, point, 24)
    exponent = None
    if not positional.all():
        exponent = ~positional
        e_row = point[exponent]     # point - 1 + 324: the exponent's row
        e_row += 323
        split = exponent & (count > 1)
        p[split] = 1
        fraction |= split

    # The region: digits up to p, the point at p, then the digits again
    # one byte later (word by word, ``shifted``), up to the last digit
    # (or the one after the point).
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
    region &= t.lt.take(np.where(fraction, np.maximum(p + 1, count) + 1,
                                 count), axis=1, mode="clip")
    del p
    out = bytearray(32 * values.size)
    slots = np.frombuffer(out, _U64).reshape(-1, 4)
    slots[:, 1:] = region.T
    del region
    # The head: the sign, then 0. and zeros for a value below 1.
    hc = np.where(positional, np.maximum(1 - point, 0), 0)
    hc += (bits >> _U64(63)).view(_I64) * 5
    slots[:, 0] = t.head.take(hc, mode="clip")
    del hc
    slots[:, 3] |= _COMMA
    text = slots.view(np.uint8)
    if exponent is not None:
        text[exponent, 26:31] = t.exponent.take(e_row, axis=0, mode="clip")
        del exponent, e_row

    for j in np.flatnonzero(special).tolist():
        text[j] = _literal(fmt(values[j]))
    if codes is not None:
        text[1::width] = _label_slots(labels)[codes]
    slots[width - 1 - column::width, 3] ^= _NEWLINE
    return out.translate(None, b"\0")
