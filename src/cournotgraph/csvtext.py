"""CSV text of float64 values, byte for byte what ``repr`` writes.

``render_block`` renders a caller's flat block of values -- a table's
rows read left to right and top to bottom, so a block may begin and end
mid-row -- in whole-array numpy steps on temporaries of its own, never
writing the block. This module owns a double's text end to end: it
computes the digits, then lays them out.

The digits. A finite nonzero normal double is v = c 2^q with
2^52 <= c < 2^53. Its shortest decimal is the shortest D 10^e inside the
interval of reals that round to v, the one nearest v when two are, and
the even one on a tie: the digits ``repr`` prints. ``decimal_digits``
finds them for a whole array at once by Schubfach (R. Giulietti, "The
Schubfach way to render doubles", 2020), in the order and with the
truncations of its reference code, on ``uint64`` arrays: three products
of a 126-bit power of ten with 4c - 2 (4c - 1 at the bottom of a
binade), 4c and 4c + 2, each rounded to odd, decide between at most
four candidates. ``ascii_digits`` turns the 17-digit results into ASCII
eight bytes at a time. Both take their input and return their results
as ordinary arrays; an in-place step only ever writes a temporary of its
own. Every shift and product wraps on arrays, never on numpy scalars.

The layout. Each value's text is laid out as ASCII in a 32-byte slot by
``repr``'s rules (positional when the decimal point falls at
-4 < decpt <= 16, ``d.ddde+XX`` otherwise, ``.0`` on integral values),
followed by the comma or newline of its place in its row; every other
byte of a slot is NUL, and one ``translate`` deletes them. Zeros take
the same route; only subnormal and non-finite values are passed to
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

_U64 = np.uint64
_I64 = np.int64
_LOW32 = _U64(0xFFFFFFFF)
_LOW63 = _U64((1 << 63) - 1)
_K_MIN = -324                 # decimal exponents k of Schubfach's table
_K_MAX = 292


@functools.cache
def _powers_of_ten() -> np.ndarray:
    """Schubfach's table, built on first use from exact integers: for
    k = -324 .. 292, g = floor(10^-k 2^-r) + 1 with 2^125 <= g < 2^126,
    split as g = g1 2^63 + g0 and each half into 32-bit limbs: the column
    of k is (a, b, c, d) with g1 = a 2^32 + b, g0 = c 2^32 + d."""
    g = np.empty((4, _K_MAX + 1 - _K_MIN), _U64)
    for column, k in enumerate(range(_K_MIN, _K_MAX + 1)):
        p = 10 ** abs(k)
        if k <= 0:     # 10^-k = p is an integer of p.bit_length() bits
            shift = 126 - p.bit_length()
            beta = p << shift if shift >= 0 else p >> -shift
        else:
            beta = (1 << (125 + p.bit_length())) // p
        g1, g0 = divmod(beta + 1, 1 << 63)
        g[:, column] = g1 >> 32, g1 & 0xFFFFFFFF, g0 >> 32, g0 & 0xFFFFFFFF
    return g


def _round_to_odd(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """g x shifted down 127 bits and rounded to odd, for the limbs
    g = (a, b, c, d) of each value's power of ten, with the truncations
    of Schubfach's reference code: x1 = high(g0 x), y1:y0 = g1 x,
    z = (y0 >> 1) + x1, the result y1 + (z >> 63), odd when z's low 63
    bits are not zero. Every product is of two 32-bit limbs."""
    a, b, c, d = g
    hi = x >> _U64(32)
    lo = x & _LOW32
    x1 = d * lo
    x1 >>= _U64(32)
    x1 += d * hi
    x1 += c * lo
    x1 >>= _U64(32)
    x1 += c * hi
    low = b * lo
    y1 = a * lo
    del lo
    y1 += b * hi                                    # a lo + b hi
    z = y1 << _U64(32)
    z += low                                        # y0
    z >>= _U64(1)
    z += x1
    low >>= _U64(32)
    y1 += low
    del low
    y1 >>= _U64(32)
    y1 += a * hi
    y1 += z >> _U64(63)
    z &= _LOW63
    z += _LOW63
    z >>= _U64(63)
    y1 |= z
    return y1


def decimal_digits(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                              np.ndarray]:
    """Shortest round-trip digits of the doubles whose bit patterns are
    ``bits``: returns a 17-digit integer D (trailing zeros kept), the
    decimal point position d (int64), so that the magnitude is
    0.D x 10^d, the digits ``repr`` prints, and the mask of subnormal and
    non-finite values, whose D and d are not meaningful. A zero gets
    D = 0 and d = 1."""
    mag = bits & _LOW63
    special = mag - _U64(1 << 52) >= _U64(0x7FE << 52)  # wraps below 2^52
    zero = None
    if special.any():      # zero, subnormal or non-finite: work on 1.0
        zeros = mag == _U64(0)
        zero = np.flatnonzero(zeros)
        np.putmask(mag, special, _U64(0x3FF << 52))
        special &= ~zeros
    # v = c 2^q, and the interval of reals rounding to v is narrower
    # below v when c = 2^52 (and q above its minimum): irregular.
    c = mag & _U64((1 << 52) - 1)
    irregular = (c == _U64(0)) & (mag != _U64(1 << 52))
    c |= _U64(1 << 52)
    q = (mag >> _U64(52)).view(_I64) - 1075
    del mag
    # k = floor(log10(2^q)), or floor(log10(3/4 2^q)) when irregular, and
    # h = q + floor(log2(10^-k)) + 2, as fixed-point products.
    k = q * 661971961083
    k -= irregular * 274743187321
    k >>= 41
    h = k * -913124641741
    h >>= 38
    h += q
    h += 2
    del q
    g = _powers_of_ten().take(k - _K_MIN, axis=1, mode="clip")

    # vb, lower, upper: g times (4c, 4c - 2 or 4c - 1, 4c + 2) << h.
    shift = h.view(_U64)
    c <<= _U64(2)
    vb = _round_to_odd(g, c << shift)
    lower = _round_to_odd(g, (c - _U64(2) + irregular) << shift)
    upper = _round_to_odd(g, (c + _U64(2)) << shift)
    del g, c, h, shift, irregular

    # The shortest digits: one of s' 10 or t' 10 = s' 10 + 10 if exactly
    # one lies in the interval (s' = floor(s / 10)), else one of
    # s = vb >> 2 and t = s + 1 if exactly one does, else the one nearer
    # v, s on a tie when s is even. Bounds are inclusive when c is even.
    odd = bits & _U64(1)                        # the low bit of c
    lower += odd
    upper -= odd
    s = vb >> _U64(2)
    s10 = s // _U64(10)
    w = s10 * _U64(40)
    upin = lower <= w
    w += _U64(40)
    wpin = w <= upper
    s4 = s << _U64(2)
    uin = lower <= s4
    s4 += _U64(4)
    win = s4 <= upper
    s4 -= _U64(2)                                   # 4s + 2: the midpoint
    up = vb > s4
    up |= (vb == s4) & (s & _U64(1) != _U64(0))
    np.putmask(up, uin != win, win)
    digits = s + up
    s10 *= _U64(10)
    s10 += wpin * _U64(10)
    np.putmask(digits, upin != wpin, s10)

    # 16 or 17 digits: scale to 17, and d = k + 17 or k + 16.
    if zero is not None:
        digits[zero] = 0
    big = digits >= _U64(10 ** 16)
    point = k + 16
    point += big
    np.putmask(digits, ~big, digits * _U64(10))
    if zero is not None:
        point[zero] = 1
    return digits, point, special


def ascii_digits(digits: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                              np.ndarray]:
    """ASCII of the 17-digit integers ``digits``: returns the first
    digit's character, the next eight and the last eight as two words
    (rows of one array, first character in the lowest byte), and the
    count of digits up to the last nonzero one (1 for zero), int64."""
    first = digits // _U64(10 ** 16)
    rest = digits - first * _U64(10 ** 16)
    high = rest // _U64(10 ** 8)
    eights = np.stack((high, rest - high * _U64(10 ** 8)))
    # Eight digits x to eight bytes, halving the width of the lanes:
    # 4-digit halves in 32-bit lanes, 2-digit quarters in 16-bit lanes,
    # digits in bytes; x // 100 = (x * 10486) >> 20 for x < 10^4 and
    # x // 10 = (x * 103) >> 10 for x < 100.
    t = eights // _U64(10 ** 4)
    eights -= t * _U64(10 ** 4)
    eights <<= _U64(32)
    eights |= t
    t = eights * _U64(10486)
    t >>= _U64(20)
    t &= _U64(0x0000007F0000007F)
    eights -= t * _U64(100)
    eights <<= _U64(16)
    eights += t
    t = eights * _U64(103)
    t >>= _U64(10)
    t &= _U64(0x000F000F000F000F)
    eights -= t * _U64(10)
    eights <<= _U64(8)
    eights += t
    # The count: one bit per nonzero digit byte (a multiply gathers a
    # word's eight into one byte), then the bit length of 2 m + 1 read
    # off the exponent of its float64.
    t = eights >> _U64(1)
    t |= eights
    t |= t >> _U64(2)
    t &= _U64(0x0101010101010101)
    t *= _U64(0x0102040810204080)
    t >>= _U64(56)
    nonzero = t[1] << _U64(8)
    nonzero |= t[0]
    nonzero <<= _U64(1)
    nonzero += _U64(1)
    count = (nonzero.astype(np.float64).view(_U64) >> _U64(52)).view(_I64)
    count -= 1022
    eights += _U64(0x3030303030303030)
    first += _U64(0x30)
    return first, eights, count


@functools.cache
def _layout_tables() -> SimpleNamespace:
    """The slot layout's constant tables, built on first use. ``head`` is
    a slot's first word by the value's sign (5 rows apart) and head class
    (0 none, 1..4 ``0.`` and 0..3 zeros); ``lt``, ``gt`` and ``dot`` are
    the byte masks of the region words before, after and at index p
    (24: no point). ``exponent`` holds the text of each exponent
    e = -324 .. 308: a NUL if it has two digits, ``e``, its sign and its
    digits."""
    i, p = np.arange(24), np.arange(25)[:, None]

    def words(mask, byte):
        """The three little-endian words of the region bytes i where
        ``mask`` holds (``byte``) and NUL elsewhere, a column per p."""
        return (mask * np.uint8(byte)).view("<u8").T.copy()
    return SimpleNamespace(
        head=np.array([int.from_bytes(sign + head, "little")
                       for sign in (b"", b"-")
                       for head in (b"", b"0.", b"0.0", b"0.00", b"0.000")],
                      _U64),
        lt=words(i < p, 0xFF), gt=words(i > p, 0xFF), dot=words(i == p, 0x2E),
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
