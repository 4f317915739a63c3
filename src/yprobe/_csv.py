"""CSV text of float tables, byte-equal to formatting every value with "{:.17g}".

Python formats each float on its own, on an exact bignum path.  Here numpy
finds the 17 significant digits of a whole block of values at once.  For
|x| with k = floor(log10|x|), x * 10**(16 - k) is formed as a double-double:
x times a (hi, lo) power of ten, with x*hi made exact by Dekker's splitting
(numpy has no fused multiply-add).  Its relative error is about 2**-104, so
the rounded 17-digit integer D is certain unless the fraction lies within
1e-9 of one half.  Those values, values where 10**16 <= D < 10**17 fails (a
log10 one off), zeros, NaN, infinities and magnitudes outside the table are
formatted by format() one at a time.  The digits are then laid out by the
rules of "g" at precision 17: fixed notation for -4 <= k < 17, exponent
notation (at least two exponent digits) otherwise, trailing zeros and a bare
point stripped.
"""

from __future__ import annotations

import numpy as np

_K_LO, _K_HI = -280, 280  # decimal exponents k with a table entry
_SPLIT = 134217729.0  # 2**27 + 1: splits a double into two 26-bit halves
_WIDTH = 25  # output bytes per value: the longest text (24) and its separator
_BLOCK = 2048  # values per block, which bounds the temporaries


def _split(a):
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _pow10_table():
    """hi, its two halves and lo, with hi + lo = 10**(16 - k) to about 2**-106."""
    hi, lo = [], []
    for n in range(16 - _K_LO, 16 - _K_HI, -1):
        num, den = (10 ** n, 1) if n >= 0 else (1, 10 ** -n)
        h = num / den  # int / int is correctly rounded
        a, b = h.as_integer_ratio()
        hi.append(h)
        lo.append((num * b - a * den) / (den * b))
    hi = np.array(hi)
    return hi, *_split(hi), np.array(lo)


_P_HI, _P_HH, _P_HL, _P_LO = _pow10_table()

# Each value's text is gathered from 32 source bytes, built as 8 uint32 words:
#   0-2 NUL, 3 the first digit, 4-19 the other 16 digits (trailing zeros past
#   the point masked to NUL), 20 ".", 21 "0", 22 "-", 23 the separator,
#   24-25 NUL, 26 "e", 27 the exponent sign, 28-31 the exponent digits
#   behind NULs.
# A layout row lists the source byte of each output byte; NULs are dropped
# from the joined text.
_DOT, _ZERO, _MINUS, _SEP = 20, 21, 22, 23


def _quad_tables():
    """The 4 digits of 0..9999 (one row each), and how many of them are trailing zeros.

    Built from bytes: numpy arithmetic on small dtypes here would page in
    numpy code that nothing else runs, about 0.3 MB of resident memory.
    """
    trailing = bytearray(1)
    for j in range(1, 5):  # from j digits to j + 1; 0 has j trailing zeros
        trailing = trailing * 10
        trailing[0] = j
    columns = [b"".join(bytes([48 + v]) * 10 ** (3 - j) for v in range(10)) * 10 ** j
               for j in range(4)]
    digits = np.frombuffer(b"".join(columns), np.uint8).reshape(4, 10000).T.copy()
    return digits, np.frombuffer(trailing, np.uint8)


_DIGITS4, _TRAILING = _quad_tables()
_QUAD = _DIGITS4.view(np.uint32).ravel()  # the 4 digits of 0..9999 as one word


def _words(*texts):
    return np.frombuffer("".join(texts).encode("latin-1"), np.uint32)


_LEAD = _words(*(f"\0\0\0{i}" for i in range(10)))
_MARKS = _words(".0-,", ".0-\n")
_E_SIGN = _words("\0\0e+", "\0\0e-")
_EXPONENT = _DIGITS4[:1000].copy()
_EXPONENT[:, 0] = 0
_EXPONENT[:100, 1] = 0
_EXPONENT = _EXPONENT.view(np.uint32).ravel()
_N_FIXED = 21  # layouts of fixed notation, k = -4 .. 16; exponent notation is next


def _layouts():
    digits = range(3, 20)
    rows = [[_ZERO, _DOT, *[_ZERO] * (-k - 1), *digits] for k in range(-4, 0)]
    rows += [[*digits[:k + 1], _DOT, *digits[k + 1:]] for k in range(17)]
    rows.append([3, _DOT, *digits[1:], 26, 27, 29, 30, 31])
    table = np.zeros((2, len(rows), _WIDTH), dtype=np.intp)
    for r, row in enumerate(rows):
        table[0, r, :len(row) + 1] = [*row, _SEP]
        table[1, r, :len(row) + 2] = [_MINUS, *row, _SEP]
    return table.reshape(-1, _WIDTH)


def _keep_masks():
    """Source masks by cut + 18 * dot: digits from index cut on, and the point unless dot, go."""
    keep = np.full((2, 18, 32), 255, np.uint8)
    keep[:, :, :3] = 0
    for cut in range(18):
        keep[:, cut, 3 + cut:20] = 0
    keep[0, :, _DOT] = 0
    return keep.reshape(36, 32).view(np.uint64)


_LAYOUT = _layouts()
_KEEP = _keep_masks()


def _digits(x):
    """(D, k, ok): the 17-digit integer and decimal exponent, ok where both are certain."""
    ax = np.abs(x)
    ok = (ax >= 10.0 ** (_K_LO + 1)) & (ax < 10.0 ** (_K_HI - 1))
    ax = np.where(ok, ax, 1.0)
    k = np.floor(np.log10(ax)).astype(np.intp)
    i = k - _K_LO
    p = ax * _P_HI.take(i)
    ah, al = _split(ax)
    bh, bl = _P_HH.take(i), _P_HL.take(i)
    t = ((ah * bh - p) + ah * bl + al * bh) + al * bl  # ax*hi - p, exactly
    t += ax * _P_LO.take(i)
    f = np.floor(t)
    t -= f
    d = p.astype(np.int64) + f.astype(np.int64)  # floor of ax * 10**(16 - k)
    ok &= (np.abs(t - 0.5) > 1e-9) & (d >= 10 ** 16)
    d += t > 0.5
    ok &= d < 10 ** 17
    return np.where(ok, d, 10 ** 16), k, ok


def _format_block(x, ncols):
    """Text of a C-ordered block of whole rows, values joined by "," and rows by "\\n"."""
    n = x.size
    d, k, ok = _digits(x)
    words = np.empty((n, 8), np.uint32)
    lead = d // 10 ** 16
    words[:, 0] = _LEAD.take(lead)
    d -= lead * 10 ** 16
    quads = np.empty((n, 2, 2), np.intp)  # the other 16 digits in groups of 4
    quads[:, 0, 1] = d // 10 ** 8
    quads[:, 1, 1] = d - quads[:, 0, 1] * 10 ** 8
    quads[:, :, 0] = quads[:, :, 1] // 10 ** 4
    quads[:, :, 1] -= quads[:, :, 0] * 10 ** 4
    quads = quads.reshape(n, 4)
    words[:, 1:5] = _QUAD.take(quads)
    marks = words[:, 5].reshape(-1, ncols)
    marks[:, :-1], marks[:, -1] = _MARKS
    words[:, 6] = _E_SIGN.take(k < 0)
    words[:, 7] = _EXPONENT.take(np.abs(k))

    # Digits kept: all but the trailing zeros, and at least the q before the point.
    tz = _TRAILING.take(quads)
    zero = quads == 0
    nd = 17 - (tz[:, 3] + zero[:, 3] * (tz[:, 2] + zero[:, 2] * (tz[:, 1] + zero[:, 1] * tz[:, 0])))
    del quads, tz, zero
    fixed = (k >= -4) & (k < 17)
    q = np.where(fixed, np.maximum(k + 1, 0), 1)
    source = words.view(np.uint64)
    source &= _KEEP.take(np.maximum(nd, q) + 18 * (nd > q), axis=0)
    source = words.view(np.uint8)

    row = (np.where(fixed, k + 4, _N_FIXED) + (_N_FIXED + 1) * np.signbit(x)).astype(np.int8)
    present = np.zeros(len(_LAYOUT), bool)
    present[row] = True
    out = np.empty((n, _WIDTH), np.uint8)
    for r in np.flatnonzero(present):
        idx = np.flatnonzero(row == r)
        out[idx] = source.take(idx, axis=0)[:, _LAYOUT[r]]
    for i in np.flatnonzero(~ok):
        text = format(float(x[i]), ".17g") + ("\n" if i % ncols == ncols - 1 else ",")
        out[i] = np.frombuffer(text.encode().ljust(_WIDTH, b"\0"), np.uint8)
    out = out.ravel()
    return out.compress(out != 0)


def write_csv(path, header, columns) -> None:
    """Write a header row and equal-length columns (1-d, or 2-d blocks of columns) as CSV."""
    step = max(1, _BLOCK // len(header))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, len(columns[0]), step):
            block = np.column_stack([c[start:start + step] for c in columns])
            fh.write(_format_block(block.astype(float, copy=False).ravel(), len(header)))
