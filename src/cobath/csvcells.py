"""Python's ``repr`` of every cell of a float table, computed as arrays.

``rows_bytes(table)`` is the CSV body of a 2-D float64 table: each cell as
``repr(float(v))`` writes it, cells joined by ``,`` and each row ended by
``\\n``.  ``repr`` writes the shortest decimal that reads back as the same
double, and of those the one nearest it (Steele & White; Gay's dtoa, mode
0).  Here those digits come from whole-array arithmetic, as in Grisu and
Ryu (Loitsch, PLDI 2010; Adams, PLDI 2018):

* ``|x|`` in [10^k, 10^(k+1)) is scaled by 10^(16-k) to N in [1e16, 1e17).
  10^(16-k) is a table pair hi + lo of doubles; ``|x| * hi`` is split
  into a double and its exact error (Dekker's two-product), so N is known
  exactly when 10^(16-k) is a double (0 <= 16-k <= 22) and to within 1e-14
  (bounded by ``_EPS``) otherwise.  k is corrected from N, not from hi
  alone.
* Every decimal inside x's rounding interval (half a gap either side, the
  gap below a power of two being half the gap above) reads back as x.
  Scaled, that interval holds the integers A..B.  The digits are the
  multiple of 10^j in A..B for the largest such j, the one nearest N when
  two or three qualify.
* A cell whose decision cannot be made from its bound (an interval end
  within the bound of an integer, N within it of an integer or of a tie
  between candidates), or which is not finite or out of the table's
  range, is formatted by ``repr`` itself.  Zeros are written directly.

The bytes are then gathered per cell from a source row (sign, the 17
digits from 4-digit word tables, the exponent text, the separator) through
one byte template per (digit count, notation), a block of rows at a time,
and written together; the NUL bytes of a row (a positive cell's sign, the
padding) are dropped.  A cell written by ``repr`` has its text copied into
its source row and is gathered by a template of its length.
"""

from __future__ import annotations

from functools import cache

import numpy as np

__all__ = ["rows_bytes"]

# cells with 10^_K_MIN <= |x| < 10^_K_MAX take the array path: inside it the
# two-product's split neither overflows nor loses bits to underflow
_K_MIN, _K_MAX = -280, 280
_K_LOW = _K_MIN - 2  # the power table runs over k in [_K_LOW, _K_MAX + 2]
_EPS = 1e-12  # bound on the error of N and of the interval ends, with margin
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitter for 53-bit doubles
_BLOCK = 1 << 13  # cells per pass; bounds the temporaries

# the source row of a cell, in bytes: the sign ("-" or NUL), "0.e", the
# digits d1..d17 at 7..23, the exponent's sign and three digits at 24..27,
# the separator at 28, and NUL at 29..31
_SIGN, _ZERO, _POINT, _E, _EXP, _SEP = 0, 1, 2, 3, 24, 28
_WIDTH = 25  # longest cell text with its separator: "-d.(16 digits)e-ddd,"
_MODES = 22  # the value is 0.d1d2... * 10^dec: dec -3..16, then two exponent widths
_LITERAL = 17 * _MODES  # key of a cell written as its repr, plus its length


@cache
def _template(key: int) -> np.ndarray:
    """Source-row indices of the text of the cells of one key."""
    if key >= _LITERAL:
        return np.array([*range(key - _LITERAL), _SEP], dtype=np.uint8)
    n, mode = key // _MODES + 1, key % _MODES  # n significant digits
    digits = [6 + i for i in range(1, n + 1)]
    out = [_SIGN]
    if mode >= 20:  # d[.ddd]e±dd[d]
        out += digits[:1] + ([_POINT] + digits[1:] if n > 1 else [])
        out += [_E, _EXP] + ([_EXP + 1] if mode == 21 else []) + [_EXP + 2, _EXP + 3]
    else:
        dec = mode - 3
        if dec <= 0:
            out += [_ZERO, _POINT] + [_ZERO] * -dec + digits
        elif dec < n:
            out += digits[:dec] + [_POINT] + digits[dec:]
        else:
            out += digits + [_ZERO] * (dec - n) + [_POINT, _ZERO]
    return np.array([*out, _SEP], dtype=np.uint8)


def _power_pair(s: int) -> tuple[float, float]:
    """10^s as hi + lo: hi correctly rounded, lo the rounded remainder."""
    if s >= 0:
        hi = float(10**s)
        return hi, float(10**s - int(hi))
    q = 10**-s
    hi = 1 / q  # int true division is correctly rounded
    num, den = hi.as_integer_ratio()
    return hi, (den - num * q) / (den * q)


@cache
def _tables():
    """The power pairs and the 4-byte words of the digits and exponents."""
    ks = np.arange(_K_LOW, _K_MAX + 3)
    hi, lo = np.array([_power_pair(16 - k) for k in ks.tolist()]).T
    hh = hi * _SPLIT
    hh -= hh - hi
    powers = {"hi": hi, "hh": hh, "hl": hi - hh, "lo": lo, "eps": np.where(lo == 0.0, 0.0, _EPS)}
    digits = np.frombuffer(b"0123456789", np.uint8)
    words = np.stack(np.meshgrid(*[digits] * 4, indexing="ij"), axis=-1)  # "0000".."9999"
    exps = np.frombuffer("".join(f"{k:+04d}" for k in ks.tolist()).encode(), np.uint32)
    return powers, words.view(np.uint32).ravel(), exps


def _scaled(a: np.ndarray, i: np.ndarray, powers: dict):
    """a * 10^(16 - k) as p + r, p a double and |r| < 20, for table index i;
    also the pair hi + lo of 10^(16 - k)."""
    hi, lo = powers["hi"][i], powers["lo"][i]
    hh, hl = powers["hh"][i], powers["hl"][i]
    p = a * hi
    ah = a * _SPLIT
    ah -= ah - a
    al = a - ah
    r = ((p - ah * hh) - al * hh) - ah * hl
    r = al * hl - r  # a * hi = p + r exactly
    r += a * lo
    return p, r, hi, lo


def _mod(v: np.ndarray, m: float) -> np.ndarray:
    """v mod m, exactly, for integer-valued doubles |v| < 2^53."""
    return v - np.floor(v / m) * m


def _trailing_zeros(m: np.ndarray) -> np.ndarray:
    """The count of trailing decimal zeros of each integer-valued double
    0 < m < 2^53, exactly."""
    count = np.zeros(m.shape)
    for step in (8, 4, 2, 1):
        q = np.floor(m / 10.0**step)
        whole = q * 10.0**step == m
        count += whole * step
        m = m + whole * (q - m)
    return count


def _shortest(a: np.ndarray, powers: dict):
    """Shortest round-trip digits of each a in [10^_K_MIN, 10^_K_MAX).

    Returns (hi, lo, k, n, undecided): the digits are the 17-digit integer
    hi * 10^8 + lo (hi and lo integer-valued doubles), of which the first n
    are significant, and the decimal is that integer times 10^(k - 16).
    ``undecided`` marks the cells whose digits the arithmetic could not
    decide.  The integers near N are carried as offsets from p, small
    doubles, so that only p meets 64-bit integer arithmetic.
    """
    k = np.floor(np.log10(a)).astype(np.intp)
    p, r, hi, lo = _scaled(a, k - _K_LOW, powers)
    # log10 may be one off next to a power of ten: move such cells into
    # [1e16, 1e17) by the exact sign of N - 1e16 and of N - 1e17.  A cell
    # whose N is within the bound of either is undecided by f below.
    shift = ((p - 1e17) + r >= 0.0).astype(np.intp) - ((p - 1e16) + r < 0.0)
    moved = np.flatnonzero(shift)
    if moved.size:
        k[moved] += shift[moved]
        p[moved], r[moved], hi[moved], lo[moved] = _scaled(a[moved], k[moved] - _K_LOW, powers)
    eps = powers["eps"][k - _K_LOW]
    q = np.floor(r)
    f = r - q  # N = p + q + f with 0 <= f < 1
    undecided = (f < eps) | (f > 1.0 - eps)
    # the integers strictly inside the rounding interval are p + lo .. p + hi:
    # half a gap up, and down half a gap or, below a power of two, a quarter
    top = (a.view(np.uint64) & np.uint64(0x7FF0000000000000)).view(np.float64)
    up = top * 2.0**-53
    ends = []
    for half, sign in ((up, 1.0), (up - (a == top) * (up * 0.5), -1.0)):
        h_hi, h_lo = half * hi, half * lo
        h_int = np.floor(h_hi)
        end = (f + sign * (h_hi - h_int)) + sign * h_lo
        floor = np.floor(end)
        frac = end - floor
        undecided |= (frac <= eps) | (frac >= 1.0 - eps)
        ends.append(q + sign * h_int + floor)
    hi, lo = ends
    lo += 1.0
    width = hi - lo + 1.0
    # p = 10^8 * p_hi + p_lo, and the last two digits of p + hi
    p_int = p.astype(np.int64)
    p_hi = p_int // 10**8
    p_lo = (p_int - p_hi * 10**8).astype(np.float64)
    p_100 = _mod(p_lo, 100.0)
    hi_100 = _mod(p_100 + hi, 100.0)
    # the digits: the one multiple of 10^j inside for the largest j >= 2;
    # failing that the multiple of 10 (one) or the integer nearest N
    one = _mod(hi_100, 10.0) < width
    q_10 = _mod(p_100 + q, 10.0)
    c_10 = q - q_10
    up_10 = (c_10 < lo) | ((q_10 >= 5.0) & (c_10 + 10.0 <= hi))
    undecided |= one & (q_10 == 5.0) & (f == 0.0) & (c_10 >= lo) & (c_10 + 10.0 <= hi)
    undecided |= (np.abs(f - 0.5) <= eps) & ~one
    c = q + (f > 0.5)
    c += one * ((c_10 + 10.0 * up_10) - c)
    n = 17 - one
    big = np.flatnonzero(hi_100 < width)
    if big.size:
        c[big] = hi[big] - hi_100[big]
        hundreds = p_hi[big] * 1e6 + np.floor((p_lo[big] + hi[big]) / 100.0)
        n[big] = 15 - _trailing_zeros(hundreds)
    lo = p_lo + c
    carry = np.floor(lo / 1e8)
    lo -= carry * 1e8
    hi = p_hi + carry.astype(np.int64)
    top = hi == 10**9  # the digits are 10^17: one digit, a decade up
    hi[top] = 10**8
    k += top
    n[top] = 1
    return hi.astype(np.float64), lo, k, n, undecided


def _fill(x: np.ndarray, src: np.ndarray, key: np.ndarray, tables) -> np.ndarray:
    """Fill the source rows (words 0..6) and the template keys of the cells
    x; returns the indices of the cells to be written as their repr."""
    _, words, exps = tables
    a = np.abs(x)
    zero = np.flatnonzero(a == 0.0)
    outside = ~((a >= 10.0**_K_MIN) & (a < 10.0**_K_MAX))
    a[outside] = 1.0
    outside[zero] = False  # written directly, as 0.0
    hi, lo, k, n, undecided = _shortest(a, tables[0])
    literal = np.flatnonzero(outside | undecided)
    hi[zero] = lo[zero] = 0.0
    k[zero], n[zero] = 0, 1
    hi[literal] = lo[literal] = 0.0
    plus, minus = np.frombuffer(b"\0" b"0.e-0.e", np.uint32).tolist()
    src[:, 0] = plus + np.signbit(x).astype(np.uint32) * (minus - plus)
    lead = np.floor(hi / 1e8)
    src[:, 1] = words[lead.astype(np.intp)]
    for w, v in ((2, hi - lead * 1e8), (4, lo)):
        head = np.floor(v / 1e4)
        src[:, w] = words[head.astype(np.intp)]
        src[:, w + 1] = words[(v - head * 1e4).astype(np.intp)]
    src[:, 6] = exps[k - _K_LOW]
    positional = (k >= -4) & (k <= 15)
    key[:] = (n - 1) * _MODES + positional * (k + 4) + ~positional * (20 + (np.abs(k) >= 100))
    return literal


def _text(x: np.ndarray, seps: np.ndarray, tables) -> bytes:
    """The text of the cells x (whole rows of len(seps) cells), separators included."""
    c = x.size
    src = np.empty((c, 8), dtype=np.uint32)
    key = np.empty(c, dtype=np.uint16)
    literal = _fill(x, src, key, tables)
    src.reshape(-1, seps.size, 8)[:, :, 7] = seps
    src8 = src.view(np.uint8)
    if literal.size:
        texts = [repr(v) for v in x[literal].tolist()]
        key[literal] = [_LITERAL + len(t) for t in texts]
        pad = "".join(t.ljust(_WIDTH - 1, "\0") for t in texts).encode("ascii")
        src8[literal, : _WIDTH - 1] = np.frombuffer(pad, np.uint8).reshape(-1, _WIDTH - 1)
    # gather each key's cells with its template, in key order, then put
    # the rows back in cell order
    order = np.argsort(key, kind="stable")
    sorted_keys = key[order]
    starts = (np.flatnonzero(np.diff(sorted_keys)) + 1).tolist()
    rows = src8.take(order, axis=0)
    out = np.zeros((c, _WIDTH), dtype=np.uint8)
    for lo, hi in zip([0, *starts], [*starts, c]):
        template = _template(int(sorted_keys[lo]))
        out[lo:hi, : template.size] = rows[lo:hi].take(template, axis=1)
    place = np.empty(c, dtype=np.intp)
    place[order] = np.arange(c)
    out = out.take(place, axis=0)
    return out[out != 0].tobytes()


def rows_bytes(table: np.ndarray) -> bytes:
    """The CSV rows of a 2-D float table, each cell ``repr(float(v))``,
    cells joined by "," and every row ended by a newline."""
    rows, cols = table.shape
    x = np.ascontiguousarray(table, dtype=np.float64).ravel()
    tables = _tables()
    seps = np.frombuffer(b",\0\0\0" * (cols - 1) + b"\n\0\0\0", np.uint32)
    step = cols * max(1, _BLOCK // cols)
    return b"".join(_text(x[lo : lo + step], seps, tables) for lo in range(0, x.size, step))
