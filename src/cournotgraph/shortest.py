"""Shortest round-trip decimal digits of float64 arrays, as ``repr`` prints.

A finite nonzero normal double is v = c 2^q with 2^52 <= c < 2^53. Its
shortest decimal is the shortest D 10^e inside the interval of reals that
round to v, the one nearest v when two are, and the even one on a tie:
the digits ``repr`` prints. ``decimal_digits`` finds them for a whole
array at once by Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020), in the order and with the truncations of its reference
code, on ``uint64`` arrays: three products of a 126-bit power of ten
with 4c - 2 (4c - 1 at the bottom of a binade), 4c and 4c + 2, each
rounded to odd, decide between at most four candidates. ``ascii_digits``
turns the 17-digit results into ASCII eight bytes at a time.

Both take their input and return their results as ordinary arrays; an
in-place step only ever writes a temporary of its own. Every shift and
product wraps on arrays, never on numpy scalars.
"""

from __future__ import annotations

import functools

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
