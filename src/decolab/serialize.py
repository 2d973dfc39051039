"""Deterministic text, JSON, and hashing helpers shared by the emitters.

Floats are printed with 17 significant digits (FLOAT_FIELD, ``%.17g``) so
that every emitted value round-trips to the exact double it came from.
Every CSV table is written by :func:`csv_text` from typed columns: one
``%`` template per table, whose fields follow each column's numpy dtype.
The one exception is the Wigner CSV, which ``wigner.wigner_csv_chunks``
produces in byte chunks, one q column each, from :func:`float_texts`: the
FLOAT_FIELD bytes of a whole float64 array, computed with numpy integer
arithmetic rather than one ``%`` call per value, so its digits match.
:func:`dumps_list_chunks` writes a JSON list one item at a time, with the
bytes :func:`dumps` gives the whole list.
"""

from __future__ import annotations

import functools
import json
from hashlib import sha256

import numpy as np


# The longest text fmt gives a finite double: a sign, 17 digits, the point
# and a three-digit exponent, as in "-2.2250738585072014e-308".
MAX_FMT_LEN = 24


# The text of one float: ``"%.17g" % x`` prints the same bytes as
# ``format(x, ".17g")``, since both go through PyOS_double_to_string.
FLOAT_FIELD = "%.17g"

# The field of a CSV column, by the kind of its numpy dtype.
_CSV_FIELDS = {"f": FLOAT_FIELD, "i": "%d", "u": "%d", "U": "%s"}


def fmt(x: float) -> str:
    return FLOAT_FIELD % float(x)


# ---- float_texts: FLOAT_FIELD for a whole array at once ----
#
# Each value is printed from its 17 significant digits d (an integer in
# [10**16, 10**17)) and decimal exponent k: |x| rounds to d * 10**(k - 16).

# The powers 10**q that _scaled may multiply by: q = 16 - k for the decimal
# exponents k of finite doubles (-324 to 308), one more each side for the
# correction of k.
_POW10_MIN, _POW10_MAX = -293, 341

# How far the computed fraction word may fall below the exact one, in units
# of its last bit, rounded up from the bound of 1.25 shown in _decimal.
_FRACTION_ERROR = 2

_LOW32 = np.uint64(0xFFFFFFFF)
_HALF = np.uint64(1 << 63)
_E16 = np.uint64(10**16)
_E17 = np.uint64(10**17)

# The two ASCII digits of each of 0 to 99, as one uint16.
_DIGIT_PAIRS = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), np.uint16)

# Columns of the source row each text is laid out from: the 17 digits, the
# bytes of _SOURCE_TAIL, the exponent's sign, three places for its digits
# (two-digit exponents take the first two), then a NUL for padding.
_ZERO, _POINT, _MINUS, _E, _EXP_SIGN, _EXP_DIGITS, _NUL = 17, 18, 19, 20, 21, 22, 25
_SOURCE_TAIL = b"0.-e"


@functools.cache
def _pow10_table() -> tuple[np.ndarray, np.ndarray]:
    """(limbs, exps): for q = _POW10_MIN + i, 10**q lies in [T, T + 1) *
    2**exps[i], where 2**127 <= T < 2**128 is held as four 32-bit limbs,
    lowest first, in limbs[:, i]."""
    qs = range(_POW10_MIN, _POW10_MAX + 1)
    limbs = np.empty((4, len(qs)), np.uint64)
    exps = np.empty(len(qs), np.int64)
    for i, q in enumerate(qs):
        if q >= 0:
            s = (10**q).bit_length() - 128
            t = 10**q >> s if s >= 0 else 10**q << -s
        else:
            s = -127 - (10**-q).bit_length()
            t = (1 << -s) // 10**-q
        limbs[:, i] = [(t >> (32 * j)) & 0xFFFFFFFF for j in range(4)]
        exps[i] = s
    return limbs, exps


def _scaled(m: np.ndarray, e2: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The integer part of V = m * 2**(e2 - 53) * 10**(16 - k) and the 64
    bits below its point, for 53-bit integers m, computed as m * T.

    The product, up to 181 bits, is summed in 32-bit columns.  V is the
    product shifted right by 53 - e2 - exps, which lies in [119, 132] while
    V lies in [10**15, 10**18), so the integer part and the fraction word
    are read from its bits 117 and up (top) and 53 to 116 (rest).
    """
    limbs, exps = _pow10_table()
    i = 16 - k - _POW10_MIN
    t = np.take(limbs, i, axis=1)
    low, high = t * (m & _LOW32), t * (m >> np.uint64(32))
    cols = np.zeros((6, m.size), np.uint64)
    cols[:4] += low & _LOW32
    cols[1:5] += (low >> np.uint64(32)) + (high & _LOW32)
    cols[2:] += high >> np.uint64(32)
    for j in range(5):
        cols[j + 1] += cols[j] >> np.uint64(32)
        cols[j] &= _LOW32
    p1, p2, p3, p4, p5 = cols[1:]
    top = (p3 >> np.uint64(21)) | (p4 << np.uint64(11)) | (p5 << np.uint64(43))
    rest = (p1 >> np.uint64(21)) | (p2 << np.uint64(11)) | (p3 << np.uint64(43))
    sh = (53 - 117 - e2 - exps[i]).astype(np.uint64)
    return top >> sh, (top << (np.uint64(64) - sh)) | (rest >> sh)


def _decimal(mag: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(d, k) for positive finite doubles: the 17-digit integer d, rounded
    half to even, and the decimal exponent k with mag ~ d * 10**(k - 16).

    k is estimated from log10 and corrected once where the integer part of
    the scaled value falls outside [10**16, 10**17); a value just short of
    10**16 after that rounds up to it.  The table's T is below 10**q * 2**-exps
    by less than 1, so the product is short by less than m < 2**53, at most
    1/4 of the fraction word's last bit for a shift of 119 or more; the
    bits dropped below the word cost less than one more.  So a word that is
    not within _FRACTION_ERROR below one half rounds the right way, and the
    rest are rounded exactly in Python integers.
    """
    mantissa, e2 = np.frexp(mag)
    m = (mantissa * 2.0**53).astype(np.uint64)
    k = np.floor(np.log10(mag)).astype(np.int64)
    d, word = _scaled(m, e2, k)
    off = (d < _E16) | (d >= _E17)
    if off.any():
        k[off] += np.where(d[off] < _E16, -1, 1)
        d[off], word[off] = _scaled(m[off], e2[off], k[off])
    d += word >> np.uint64(63)
    for i in np.flatnonzero(_HALF - word <= np.uint64(_FRACTION_ERROR)):
        num, den = float(mag[i]).as_integer_ratio()
        q = 16 - int(k[i])
        num, den = num * 10 ** max(q, 0), den * 10 ** max(-q, 0)
        whole, rest = divmod(num, den)
        d[i] = whole + (2 * rest > den or (2 * rest == den and whole & 1))
    carry = d == _E17
    d[carry] = _E16
    k[carry] += 1
    return d, k


@functools.cache
def _layouts() -> np.ndarray:
    """The source column of each output byte, one row per layout code
    (cls * 17 + digits - 1) * 2 + negative.

    cls is the decimal exponent plus 4 for fixed notation (exponents -4 to
    16), 21 for scientific notation with a two-digit exponent and 22 with a
    three-digit one; digits counts the significant digits, 1 to 17.
    """
    grids = np.meshgrid(np.arange(23), np.arange(1, 18), np.arange(2), indexing="ij")
    cls, nd, neg = (g.reshape(-1, 1) for g in grids)
    sci = cls >= 21
    x = cls - 4
    ip = np.where(sci | (x < 0), 1, x + 1)  # places before the point
    z = np.where(sci | (x >= 0), 0, -x)  # zeros before the first digit
    nf = np.maximum(z + nd - ip, 0)  # places after the point
    end = ip + nf + (nf > 0)  # the end of the number before any exponent
    r = np.arange(MAX_FMT_LEN) - neg  # the place in the number, after any minus sign
    digit = r - (r > ip) - z
    idx = np.where(digit < 0, _ZERO, digit)
    idx = np.where(r == ip, _POINT, idx)
    idx = np.where((r >= 0) & (r < end), idx, _NUL)
    idx = np.where(r < 0, _MINUS, idx)
    t = r - end  # the place in the exponent's "e-308"
    return np.where(sci & (t >= 0) & (t < cls - 17), _E + t, idx).astype(np.uint8)


def _source_rows(d: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, digits): the source row of each text, with the _SOURCE_TAIL
    bytes and the exponent k's sign and digits after the 17 digits of d,
    and the count of its significant digits, up to the last nonzero one."""
    n = d.size
    src = np.empty((n, _NUL + 1), np.uint8)
    # d = first * 10**16 + upper half * 10**8 + lower half; each half splits
    # into two 4-digit quarters, each quarter into two pairs.
    upper = d // np.uint64(10**8)
    first = upper // np.uint64(10**8)
    src[:, 0] = first + np.uint64(ord("0"))
    halves = np.empty((n, 2), np.uint32)
    halves[:, 0] = upper - first * np.uint64(10**8)
    halves[:, 1] = d - upper * np.uint64(10**8)
    quarters = np.empty((n, 4), np.uint32)
    quarters[:, 0::2] = halves // 10**4
    quarters[:, 1::2] = halves - quarters[:, 0::2] * 10**4
    pairs = np.empty((n, 8), np.intp)
    pairs[:, 0::2] = quarters // 100
    pairs[:, 1::2] = quarters - pairs[:, 0::2] * 100
    digits = np.take(_DIGIT_PAIRS, pairs)
    src[:, 1:17] = digits.view(np.uint8)
    src[:, _ZERO:_EXP_SIGN] = np.frombuffer(_SOURCE_TAIL, np.uint8)
    exp = np.abs(k)
    three = exp >= 100
    pair = np.take(_DIGIT_PAIRS, exp % 100).view(np.uint8).reshape(n, 2)
    src[:, _EXP_SIGN] = np.where(k < 0, ord("-"), ord("+"))
    src[:, _EXP_DIGITS] = np.where(three, exp // 100 + ord("0"), pair[:, 0])
    src[:, _EXP_DIGITS + 1] = np.where(three, pair[:, 0], pair[:, 1])
    src[:, _EXP_DIGITS + 2] = pair[:, 1]
    src[:, _NUL] = 0
    # Digits 1-8 and 9-16, read as little-endian words less "00000000", hold
    # each nonzero digit as a byte of 1 to 9, so a word whose top nonzero
    # byte is byte b has the binary exponent 8b + 1 to 8b + 4, which float
    # conversion cannot round past.
    words = digits.view("<u8") ^ np.uint64(0x3030303030303030)
    top = (np.frexp(words.astype(np.float64))[1] + 7) // 8  # b + 1, or 0 for a zero word
    return src, np.where(words[:, 1] != 0, 9 + top[:, 1], 1 + top[:, 0])


def float_texts(values) -> np.ndarray:
    """The FLOAT_FIELD texts of an array of floats, as an ``S24`` array of
    the same shape: element i is ``(FLOAT_FIELD % float(values[i])).encode()``.

    The digits follow the fixed-precision method of Adams, "Ryu revisited:
    printf floating point conversion" (OOPSLA 2019), in its simplest form:
    a 128-bit table of powers of ten, and an exact route near ties (see
    _decimal).  The layout is that of ``%g``: fixed notation for decimal
    exponents -4 to 16, else scientific with an exponent of at least two
    digits, trailing zeros and a bare point stripped.  Non-finite values
    raise ValueError.
    """
    x = np.asarray(values, dtype=np.float64)
    if not np.isfinite(x).all():
        raise ValueError("float_texts takes finite values only")
    flat = x.ravel()
    zero = flat == 0
    d, k = _decimal(np.where(zero, 1.0, np.abs(flat)))
    d[zero] = 0
    k[zero] = 0
    src, nd = _source_rows(d, k)
    nd[zero] = 1
    cls = np.where((k < -4) | (k >= 17), 21 + (np.abs(k) >= 100), k + 4)
    code = (cls * 17 + nd - 1) * 2 + np.signbit(flat)
    index = np.arange(0, src.size, src.shape[1])[:, None] + np.take(_layouts(), code, axis=0)
    return np.take(src.ravel(), index).view(f"S{MAX_FMT_LEN}").reshape(x.shape)


def complex_pairs(vec: np.ndarray) -> list[list[float]]:
    """Flatten a complex vector to [[re, im], ...]."""
    return np.ascontiguousarray(vec, np.complex128).view(np.float64).reshape(-1, 2).tolist()


def pairs_to_complex(pairs) -> np.ndarray:
    out = np.empty(len(pairs), dtype=np.complex128)
    for i, pair in enumerate(pairs):
        re, im = pair
        out[i] = complex(float(re), float(im))
    return out


def matrix_pairs(mat: np.ndarray) -> list[list[list[float]]]:
    m = np.ascontiguousarray(mat, np.complex128)
    return m.view(np.float64).reshape(*m.shape, 2).tolist()


def pairs_to_matrix(rows) -> np.ndarray:
    out = np.empty((len(rows), len(rows[0])), dtype=np.complex128)
    for i, row in enumerate(rows):
        for j, pair in enumerate(row):
            re, im = pair
            out[i, j] = complex(float(re), float(im))
    return out


def dumps(obj) -> str:
    """Canonical JSON: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def dumps_list_chunks(items):
    """The UTF-8 bytes of ``dumps(list(items))``, one chunk per item, so an
    item is encoded only when it is reached: each item's text indented by
    two spaces inside ``[`` and ``]`` lines, or ``[]`` for none."""
    sep = b"[\n  "
    for item in items:
        yield sep + dumps(item)[:-1].replace("\n", "\n  ").encode("utf-8")
        sep = b",\n  "
    yield b"[]\n" if sep == b"[\n  " else b"\n]\n"


def sha256_hex(data: bytes) -> str:
    return sha256(data).hexdigest()


def csv_text(header: list[str], *columns) -> str:
    """A CSV table with LF line endings: the header, then one line per row
    of the equal-length ``columns``.

    Each column is read as a numpy array and printed by its dtype kind:
    FLOAT_FIELD for floats, ``%d`` for integers and ``%s`` for text.  Any
    other kind raises TypeError.
    """
    arrays = [np.asarray(c) for c in columns]
    if len(arrays) != len(header):
        raise ValueError(f"{len(arrays)} columns for {len(header)} header fields")
    if len({a.shape for a in arrays}) > 1 or arrays[0].ndim != 1:
        raise ValueError(f"columns of shapes {[a.shape for a in arrays]}, expected equal lengths")
    fields = []
    for name, a in zip(header, arrays):
        if a.dtype.kind not in _CSV_FIELDS:
            raise TypeError(f"column {name!r} has unsupported dtype {a.dtype}")
        fields.append(_CSV_FIELDS[a.dtype.kind])
    template = ",".join(fields) + "\n"
    rows = zip(*(a.tolist() for a in arrays))
    return ",".join(header) + "\n" + "".join(map(template.__mod__, rows))
