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

Both work in place on the rows of a caller's ``uint64`` work array of
``WORK_ROWS`` rows, so a block of values allocates nothing that grows
with it. Every shift and product wraps on arrays, never on numpy scalars.
"""

from __future__ import annotations

import functools

import numpy as np

WORK_ROWS = 13                # rows of the work array the functions use

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
    split as g = g1 2^63 + g0 and each half into 32-bit limbs: the row
    of k is (a, b, c, d) with g1 = a 2^32 + b, g0 = c 2^32 + d."""
    g = np.empty((_K_MAX + 1 - _K_MIN, 4), _U64)
    for row, k in enumerate(range(_K_MIN, _K_MAX + 1)):
        p = 10 ** abs(k)
        if k <= 0:     # 10^-k = p is an integer of p.bit_length() bits
            shift = 126 - p.bit_length()
            beta = p << shift if shift >= 0 else p >> -shift
        else:
            beta = (1 << (125 + p.bit_length())) // p
        g1, g0 = divmod(beta + 1, 1 << 63)
        g[row] = g1 >> 32, g1 & 0xFFFFFFFF, g0 >> 32, g0 & 0xFFFFFFFF
    return g


def decimal_digits(bits: np.ndarray, work: np.ndarray,
                   flags: np.ndarray) -> None:
    """Shortest round-trip digits of the doubles whose bit patterns are
    ``bits``: work[0] gets a 17-digit integer D (trailing zeros kept) and
    work[8] the decimal point position d (int64), so that the magnitude
    is 0.D x 10^d, the digits ``repr`` prints. A zero gets D = 0 and
    d = 1; ``flags[0]`` marks subnormal and non-finite values, whose D
    and d are not meaningful. Uses work rows 0-11, and ``flags`` (8 rows
    of bools, the bytes of work row 12)."""
    n = bits.size
    h, mag, k = work[0].view(_I64), work[1], work[8].view(_I64)
    limbs = work[4:8].reshape(n, 4)
    a, b, c_hi, d = limbs.T
    special, irregular, upin, wpin, uin, win, up, diff = flags
    c, cp = work[9], work[9:12]
    # Rows 0-3 (h, mag) are spent once cp is made: the products' scratch.
    hi, acc, tmp, low = work[0:4]

    np.bitwise_and(bits, _LOW63, out=mag)
    np.subtract(mag, _U64(1 << 52), out=c)          # wraps below 2^52
    np.greater_equal(c, _U64(0x7FE << 52), out=special)
    zero = None
    if special.any():      # zero, subnormal or non-finite: work on 1.0
        np.equal(mag, _U64(0), out=irregular)
        zero = np.flatnonzero(irregular)
        np.putmask(mag, special, _U64(0x3FF << 52))
        special &= ~irregular
    # v = c 2^q, and the interval of reals rounding to v is narrower
    # below v when c = 2^52 (and q above its minimum): irregular.
    np.bitwise_and(mag, _U64((1 << 52) - 1), out=c)
    np.equal(c, _U64(0), out=irregular)
    np.not_equal(mag, _U64(1 << 52), out=up)
    irregular &= up
    c |= _U64(1 << 52)
    q = a.view(_I64)
    np.right_shift(mag, _U64(52), out=a)
    q -= 1075
    # k = floor(log10(2^q)), or floor(log10(3/4 2^q)) when irregular, and
    # h = q + floor(log2(10^-k)) + 2, as fixed-point products.
    np.multiply(q, 661971961083, out=k)
    np.multiply(irregular, 274743187321, out=h)
    k -= h
    k >>= 41
    np.multiply(k, -913124641741, out=h)
    h >>= 38
    h += q
    h += 2
    index = mag.view(_I64)
    np.add(k, -_K_MIN, out=index)
    np.take(_powers_of_ten(), index, axis=0, out=limbs, mode="clip")

    # vb, lower, upper: g times cp = (4c, 4c - 2 or 4c - 1, 4c + 2) << h,
    # shifted down 127 bits and rounded to odd, with the truncations of
    # Schubfach's reference code: x1 = high(g0 cp), y1:y0 = g1 cp,
    # z = (y0 >> 1) + x1, v = y1 + (z >> 63), odd when z's low 63 bits
    # are not zero. Every product is of two 32-bit limbs.
    c <<= _U64(2)
    np.subtract(cp[0], _U64(2), out=cp[1])
    cp[1] += irregular
    np.add(cp[0], _U64(2), out=cp[2])
    cp <<= h.view(_U64)
    for v in cp:                        # each in place, four scratch rows
        np.right_shift(v, _U64(32), out=hi)
        v &= _LOW32                                 # v is now its low limb
        np.multiply(d, v, out=acc)
        acc >>= _U64(32)
        np.multiply(d, hi, out=tmp)
        acc += tmp
        np.multiply(c_hi, v, out=tmp)
        acc += tmp
        acc >>= _U64(32)
        np.multiply(c_hi, hi, out=tmp)
        acc += tmp                                  # x1
        np.multiply(b, v, out=low)                  # b lo
        np.multiply(a, v, out=tmp)
        np.multiply(b, hi, out=v)
        tmp += v                                    # a lo + b hi
        np.left_shift(tmp, _U64(32), out=v)
        v += low                                    # y0
        v >>= _U64(1)
        v += acc                                    # z
        low >>= _U64(32)
        tmp += low
        tmp >>= _U64(32)
        np.multiply(a, hi, out=acc)
        tmp += acc                                  # y1
        np.right_shift(v, _U64(63), out=acc)
        tmp += acc
        v &= _LOW63
        v += _LOW63
        v >>= _U64(63)
        v |= tmp
    vb, lower, upper = cp

    # The shortest digits: one of s' 10 or t' 10 = s' 10 + 10 if exactly
    # one lies in the interval (s' = floor(s / 10)), else one of
    # s = vb >> 2 and t = s + 1 if exactly one does, else the one nearer
    # v, s on a tie when s is even. Bounds are inclusive when c is even.
    s, s10, w, s4, odd = work[0:5]
    np.bitwise_and(bits, _U64(1), out=odd)     # the low bit of c
    np.right_shift(vb, _U64(2), out=s)
    lower += odd
    upper -= odd
    np.floor_divide(s, _U64(10), out=s10)
    np.multiply(s10, _U64(40), out=w)
    np.less_equal(lower, w, out=upin)
    w += _U64(40)
    np.less_equal(w, upper, out=wpin)
    np.left_shift(s, _U64(2), out=s4)
    np.less_equal(lower, s4, out=uin)
    s4 += _U64(4)
    np.less_equal(s4, upper, out=win)
    s4 -= _U64(2)                                   # 4s + 2: the midpoint
    np.greater(vb, s4, out=up)
    np.equal(vb, s4, out=diff)
    np.bitwise_and(s, _U64(1), out=odd)
    np.not_equal(odd, _U64(0), out=irregular)
    diff &= irregular
    up |= diff
    np.not_equal(uin, win, out=diff)
    np.putmask(up, diff, win)
    digits = s
    digits += up
    np.not_equal(upin, wpin, out=diff)
    np.multiply(wpin, _U64(10), out=w)
    s10 *= _U64(10)
    s10 += w
    np.putmask(digits, diff, s10)

    # 16 or 17 digits: scale to 17, and d = k + 17 or k + 16.
    if zero is not None:
        digits[zero] = 0
    big = up
    np.greater_equal(digits, _U64(10 ** 16), out=big)
    k += 16
    k += big
    np.multiply(digits, _U64(10), out=s10)
    np.invert(big, out=diff)
    np.putmask(digits, diff, s10)
    if zero is not None:
        k[zero] = 1


def ascii_digits(digits: np.ndarray, work: np.ndarray) -> np.ndarray:
    """ASCII of the 17-digit integers ``digits`` (work[0], consumed):
    work[11] gets the first digit's character, work[4] and work[5] the
    next eight and the last eight, first character in the lowest byte.
    Returns the count of digits up to the last nonzero one (1 for zero),
    an int64 view of work[9]. Uses work rows 0, 2-7 and 9-11."""
    first = work[11]
    eights = work[4:6]
    t1, t2 = work[2:4], work[6:8]
    scratch = work[10]
    np.floor_divide(digits, _U64(10 ** 16), out=first)
    np.multiply(first, _U64(10 ** 16), out=scratch)
    digits -= scratch
    np.floor_divide(digits, _U64(10 ** 8), out=eights[0])
    np.multiply(eights[0], _U64(10 ** 8), out=scratch)
    np.subtract(digits, scratch, out=eights[1])
    # Eight digits x to eight bytes, halving the width of the lanes:
    # 4-digit halves in 32-bit lanes, 2-digit quarters in 16-bit lanes,
    # digits in bytes; x // 100 = (x * 10486) >> 20 for x < 10^4 and
    # x // 10 = (x * 103) >> 10 for x < 100.
    np.floor_divide(eights, _U64(10 ** 4), out=t1)
    np.multiply(t1, _U64(10 ** 4), out=t2)
    eights -= t2
    eights <<= _U64(32)
    eights |= t1
    np.multiply(eights, _U64(10486), out=t1)
    t1 >>= _U64(20)
    t1 &= _U64(0x0000007F0000007F)
    np.multiply(t1, _U64(100), out=t2)
    eights -= t2
    eights <<= _U64(16)
    eights += t1
    np.multiply(eights, _U64(103), out=t1)
    t1 >>= _U64(10)
    t1 &= _U64(0x000F000F000F000F)
    np.multiply(t1, _U64(10), out=t2)
    eights -= t2
    eights <<= _U64(8)
    eights += t1
    # The count: one bit per nonzero digit byte (a multiply gathers a
    # word's eight into one byte), then the bit length of 2 m + 1 read
    # off the exponent of its float64.
    np.right_shift(eights, _U64(1), out=t1)
    t1 |= eights
    np.right_shift(t1, _U64(2), out=t2)
    t1 |= t2
    t1 &= _U64(0x0101010101010101)
    t1 *= _U64(0x0102040810204080)
    t1 >>= _U64(56)
    nonzero = t1[0]
    t1[1] <<= _U64(8)
    nonzero |= t1[1]
    nonzero <<= _U64(1)
    nonzero += _U64(1)
    np.copyto(t2[0].view(np.float64), nonzero, casting="unsafe")
    count = work[9]
    np.right_shift(t2[0], _U64(52), out=count)
    count = count.view(_I64)
    count -= 1022
    eights += _U64(0x3030303030303030)
    first += _U64(0x30)
    return count
