"""Deterministic text, JSON, and hashing helpers shared by the emitters.

Floats are printed with 17 significant digits (FLOAT_FIELD, ``%.17g``) so
that every emitted value round-trips to the exact double it came from.
Every CSV table is written by :func:`csv_text` from typed columns: one
``%`` template per table, whose fields follow each column's numpy dtype.
The one exception is the Wigner CSV, which ``wigner.wigner_csv_chunks``
produces in byte chunks, one q column each, from :func:`float_texts`: the
FLOAT_FIELD bytes of a whole float64 array, computed with numpy integer
arithmetic rather than one ``%`` call per value, so its digits match.  It
takes each value's 17 digits from a 128-bit product with a power of ten,
splits them into ASCII uint64 words by multiply-shift-mask, and builds a
scientific-notation text as three uint64 words; only fixed-notation texts
are gathered byte by byte.
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
# The shifts that split 53-bit integers into their two 32-bit halves.
_HALVES = np.array([[0], [32]], np.uint64)
_HALF = np.uint64(1 << 63)
_E16 = np.uint64(10**16)
_E17 = np.uint64(10**17)

# The decimal exponents of finite doubles, from 5e-324 to 1.8e308.
_EXP_MIN, _EXP_MAX = -324, 308

# The word offsets, in bits, of a text's three little-endian uint64 words.
_WORD_BITS = np.array([[0], [64], [128]], np.uint64)

# ASCII "0" in each byte of a word of eight digits.
_ASCII_ZEROS = np.uint64(0x3030303030303030)

# Columns of the source row a fixed-notation text is laid out from: the 17
# digits, then the bytes of _SOURCE_TAIL, the last a NUL for padding.
_ZERO, _POINT, _MINUS, _NUL = 17, 18, 19, 20
_SOURCE_TAIL = b"0.-\0"


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

    The product, up to 181 bits, is summed in 32-bit columns; its lowest
    column is the low word of one 64-bit partial product, so it never
    carries and is not kept.  V is the product shifted right by
    53 - e2 - exps, which lies in [119, 132] while V lies in [10**15, 10**18),
    so the integer part and the fraction word are read from its bits 117 and
    up (top) and 53 to 116 (rest).
    """
    limbs, exps = _pow10_table()
    i = (16 - _POW10_MIN) - k
    # partial[h, j]: 32-bit half h of m times limb j of T, whose low word
    # falls in column h + j and high word in column h + j + 1.
    partial = np.take(limbs, i, axis=1) * ((m >> _HALVES) & _LOW32)[:, None]
    high = partial >> np.uint64(32)
    partial &= _LOW32
    cols = high[0]  # columns 1 to 4
    cols[:3] += partial[0, 1:]
    cols += partial[1]
    cols[1:] += high[1, :3]
    p5 = high[1, 3]
    for j in range(3):
        cols[j + 1] += cols[j] >> np.uint64(32)
    p5 += cols[3] >> np.uint64(32)
    cols &= _LOW32
    p1, p2, p3, p4 = cols
    top = (p3 >> np.uint64(21)) | (p4 << np.uint64(11)) | (p5 << np.uint64(43))
    rest = (p1 >> np.uint64(21)) | (p2 << np.uint64(11)) | (p3 << np.uint64(43))
    sh = (-64 - e2 - exps[i]).astype(np.uint64)
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


def _digit_words(d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(first, words): the first of the 17 digits of d, and the other 16 as
    the little-endian words[0] (digits 2-9) and words[1] (digits 10-17),
    one digit value 0-9 per byte, the earlier digit in the lower byte.

    Each word is split by multiply-shift-mask (SWAR) into two 4-digit
    halves in its 32-bit lanes, then 2-digit quarters in 16-bit lanes, then
    digits: x // 10**4 is (x * 109951163) >> 40 for x < 10**8, a lane's
    x // 100 is (x * 10486) >> 20 for x < 10**4, and x // 10 is
    (x * 103) >> 10 for x < 100.  No lane's product reaches the next lane.
    """
    first = d // _E16
    d = d - first * _E16
    words = np.empty((2, d.size), np.uint64)
    words[0] = d // np.uint64(10**8)
    words[1] = d - words[0] * np.uint64(10**8)
    for mul, shift, mask, base, lane in (
        (109951163, 40, 0xFFFFFFFF, 10**4, 32),
        (10486, 20, 0x0000007F0000007F, 100, 16),
        (103, 10, 0x000F000F000F000F, 10, 8),
    ):
        high = ((words * np.uint64(mul)) >> np.uint64(shift)) & np.uint64(mask)
        words -= high * np.uint64(base)
        words <<= np.uint64(lane)
        words |= high
    return first, words


def _significant_digits(words: np.ndarray) -> np.ndarray:
    """The count of significant digits, 1 to 17, up to the last nonzero one.

    A word whose top nonzero byte is byte b holds a byte of 1 to 9 there, so
    it has the binary exponent 8b + 1 to 8b + 4, which float conversion
    cannot round past.
    """
    top = (np.frexp(words.astype(np.float64))[1] + 7) >> 3  # b + 1, or 0 for a zero word
    return np.where(words[1] != 0, 9 + top[1], 1 + top[0])


@functools.cache
def _exponent_words() -> np.ndarray:
    """The text of each decimal exponent _EXP_MIN + i, such as "e-05" or
    "e+308", as a little-endian uint64 padded with NULs."""
    texts = (b"e%+03d" % k for k in range(_EXP_MIN, _EXP_MAX + 1))
    return np.frombuffer(b"".join(t.ljust(8, b"\0") for t in texts), "<u8").astype(np.uint64)


@functools.cache
def _scientific_marks() -> tuple[np.ndarray, np.ndarray]:
    """(marks, ends) by code digits * 2 + negative: the three words of the
    bytes a scientific text adds to its digit values (any minus sign, the
    "0" of each significant digit and the point after the first, if more
    follow), and the bit at which its exponent starts."""
    marks = np.zeros((3, 36), np.uint64)
    ends = np.zeros(36, np.uint64)
    for nd in range(1, 18):
        for neg in range(2):
            text = b"-" * neg + b"0" + b"." * (nd > 1) + b"0" * (nd - 1)
            marks[:, nd * 2 + neg] = np.frombuffer(text.ljust(24, b"\0"), "<u8")
            ends[nd * 2 + neg] = 8 * len(text)
    return marks, ends


def _scientific(first, words, nd, k, negative) -> np.ndarray:
    """The scientific texts of every row, as three uint64 words each in a
    (3, n) array: a minus sign if negative, the first digit, the point and
    the digits up to the last significant one, then the exponent."""
    marks, ends = _scientific_marks()
    code = nd * 2 + negative
    sign = negative.astype(np.uint64) << np.uint64(3)  # 8 bits for a minus sign
    out = np.empty((3, first.size), np.uint64)
    # digit values: the first at byte 0, the others from byte 2, all one
    # byte later after a minus sign; the bytes after the last significant
    # digit are zero
    out[0] = first << sign
    shift = sign + np.uint64(16)
    out[0] |= words[0] << shift
    out[1] = words[1] << shift
    shift = np.uint64(64) - shift
    out[1] |= words[0] >> shift
    out[2] = words[1] >> shift
    out |= np.take(marks, code, axis=1)
    # the exponent word at bit `end`, across the word boundaries: a shift
    # count past 63, including a wrapped negative one, gives 0 in numpy
    end = np.take(ends, code)
    exponent = np.take(_exponent_words(), k - _EXP_MIN)
    out |= exponent << (end - _WORD_BITS)
    out |= exponent >> (_WORD_BITS - end)
    return out


@functools.cache
def _layouts() -> np.ndarray:
    """The source column of each output byte of a fixed-notation text, one
    row per layout code ((k + 4) * 17 + digits - 1) * 2 + negative, for
    decimal exponents k from -4 to 16 and 1 to 17 significant digits."""
    grids = np.meshgrid(np.arange(-4, 17), np.arange(1, 18), np.arange(2), indexing="ij")
    x, nd, neg = (g.reshape(-1, 1) for g in grids)
    ip = np.where(x < 0, 1, x + 1)  # places before the point
    z = np.maximum(-x, 0)  # zeros before the first digit
    nf = np.maximum(z + nd - ip, 0)  # places after the point
    end = ip + nf + (nf > 0)  # the end of the number
    r = np.arange(MAX_FMT_LEN) - neg  # the place in the number, after any minus sign
    digit = r - (r > ip) - z
    idx = np.where(digit < 0, _ZERO, digit)
    idx = np.where(r == ip, _POINT, idx)
    idx = np.where((r >= 0) & (r < end), idx, _NUL)
    return np.where(r < 0, _MINUS, idx).astype(np.uint8)


def _fixed(first, words, nd, k, negative) -> np.ndarray:
    """The fixed-notation texts of rows with decimal exponents -4 to 16, as
    an (n, MAX_FMT_LEN) uint8 array gathered from per-row source bytes."""
    n = first.size
    src = np.empty((n, _NUL + 1), np.uint8)
    src[:, 0] = first + np.uint64(ord("0"))
    digits = np.empty((n, 2), "<u8")
    digits[...] = words.T
    digits |= _ASCII_ZEROS
    src[:, 1:17] = digits.view(np.uint8)
    src[:, _ZERO:] = np.frombuffer(_SOURCE_TAIL, np.uint8)
    code = ((k + 4) * 17 + nd - 1) * 2 + negative
    index = np.arange(0, src.size, src.shape[1])[:, None] + np.take(_layouts(), code, axis=0)
    return np.take(src.ravel(), index)


def float_texts(values) -> np.ndarray:
    """The FLOAT_FIELD texts of an array of floats, as an ``S24`` array of
    the same shape: element i is ``(FLOAT_FIELD % float(values[i])).encode()``.

    The digits follow the fixed-precision method of Adams, "Ryu revisited:
    printf floating point conversion" (OOPSLA 2019), in its simplest form:
    a 128-bit table of powers of ten, and an exact route near ties (see
    _decimal).  The layout is that of ``%g``: fixed notation for decimal
    exponents -4 to 16, else scientific with an exponent of at least two
    digits, trailing zeros and a bare point stripped.  Scientific texts are
    assembled as uint64 words (_scientific), fixed ones gathered byte by
    byte (_fixed); a route with no rows is not run.  Non-finite values
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
    first, words = _digit_words(d)
    nd = _significant_digits(words)
    negative = np.signbit(flat)
    fixed = (k >= -4) & (k < 17)
    if fixed.all():
        out = _fixed(first, words, nd, k, negative)
    else:
        out = np.empty((flat.size, 3), "<u8")
        out[...] = _scientific(first, words, nd, k, negative).T
        if fixed.any():
            rows = np.flatnonzero(fixed)
            out[rows] = _fixed(first[rows], words[:, rows], nd[rows], k[rows], negative[rows]).view("<u8")
    return out.view(f"S{MAX_FMT_LEN}").reshape(x.shape)


def complex_pairs(vec: np.ndarray) -> list[list[float]]:
    """Flatten a complex vector to [[re, im], ...]."""
    return np.ascontiguousarray(vec, np.complex128).view(np.float64).reshape(-1, 2).tolist()


def matrix_pairs(mat: np.ndarray) -> list[list[list[float]]]:
    m = np.ascontiguousarray(mat, np.complex128)
    return m.view(np.float64).reshape(*m.shape, 2).tolist()


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
