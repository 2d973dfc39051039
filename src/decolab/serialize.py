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
splits them into uint64 words of digit values by multiply-shift-mask, and
builds every text, fixed or scientific notation, as three uint64 words from
one table of layouts.

Every JSON artifact is printed by one writer, :func:`json_chunks`: it yields,
block by block, the bytes of ``json.dumps(doc, sort_keys=True, indent=2)``
and a line feed, for documents whose leaves may also be numpy float and
complex arrays (a complex value printed as an [re, im] pair) and iterators
(printed as lists, one item at a time).  It walks the document once, and
prints each block of JSON_BLOCK_VALUES floats of an array with
``float.__repr__``, the text json gives a finite float, laid into one fixed
%r template; so a run holds one block's text, not the artifact's.
:func:`dumps` is its joined text.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterator
from hashlib import sha256
from json.encoder import encode_basestring_ascii

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
def _layout_table() -> np.ndarray:
    """The layout of each code ((L * 17 + digits - 1) * 2 + negative, with
    L = k + 4 for fixed-notation decimal exponents k from -4 to 16 and 21 for
    scientific notation, as eight uint64 rows:

    0: the bit at which the 17 digit values are placed: after any minus
       sign and, when k < 0, after the "0" and the -k - 1 leading zeros of
       the text, which the move of rows 1-3 splits with the point;
    1-3: the three words of a mask of the bytes at and above the point,
       which move up one byte to make room for it;
    4-6: the three words of the marks: any minus sign, "0" in each digit's
       byte ("0" | d is the digit d in ASCII) and in the "0.000" before the
       first digit, and the point if a digit follows it;
    7: the bit at which the exponent word goes: past bit 191 for fixed
       notation, so that every shift of it gives 0.

    A scientific text is laid out as one with k = 0, then given its exponent.
    """
    table = np.zeros((8, 22 * 17 * 2), np.uint64)
    for code in range(table.shape[1]):
        notation, nd, neg = code // 34, code // 2 % 17 + 1, code % 2
        k = notation - 4 if notation < 21 else 0
        after = nd - 1 - k  # digit places after the point
        marks = b"-" * neg + b"0" * (max(k, 0) + 1) + (b"." + b"0" * after if after > 0 else b"")
        upper = (1 << 192) - (1 << 8 * (neg + max(k, 0) + 1))
        table[:, code] = [
            8 * (neg + max(-k, 0)),
            *((upper >> shift) & (2**64 - 1) for shift in (0, 64, 128)),
            *np.frombuffer(marks.ljust(24, b"\0"), "<u8"),
            8 * len(marks) if notation == 21 else 192,
        ]
    return table


def _layout(first, words, code, k) -> np.ndarray:
    """The texts of every value, as three little-endian uint64 words each in
    a (3, n) array, from its digits, its layout code and its decimal
    exponent k (see _layout_table)."""
    table = _layout_table()
    at = np.take(table[0], code)
    # the digit values: the first at bit `at`, the other 16 after it
    out = np.empty((3, first.size), np.uint64)
    out[0] = first << at
    shift = at + np.uint64(8)
    out[0] |= words[0] << shift
    out[1] = words[1] << shift
    shift = np.uint64(56) - at
    out[1] |= words[0] >> shift
    out[2] = words[1] >> shift
    # the bytes at and above the point up one byte, across word boundaries
    high = np.take(table[1:4], code, axis=1)
    high &= out
    out ^= high
    out[1:] |= high[:2] >> np.uint64(56)
    high <<= np.uint64(8)
    out |= high
    out |= np.take(table[4:7], code, axis=1)
    # the exponent word at bit `end`: a shift count past 63, including a
    # wrapped negative one, gives 0 in numpy
    end = np.take(table[7], code)
    exponent = np.take(_exponent_words(), k - _EXP_MIN)
    out |= exponent << (end - _WORD_BITS)
    out |= exponent >> (_WORD_BITS - end)
    return out


def float_texts(values) -> np.ndarray:
    """The FLOAT_FIELD texts of an array of floats, as an ``S24`` array of
    the same shape: element i is ``(FLOAT_FIELD % float(values[i])).encode()``.

    The digits follow the fixed-precision method of Adams, "Ryu revisited:
    printf floating point conversion" (OOPSLA 2019), in its simplest form:
    a 128-bit table of powers of ten, and an exact route near ties (see
    _decimal).  The layout is that of ``%g``: fixed notation for decimal
    exponents -4 to 16, else scientific with an exponent of at least two
    digits, trailing zeros and a bare point stripped.  Every text, fixed or
    scientific, is assembled as three uint64 words by one layout step
    (_layout) from a table indexed by its layout code.  Non-finite values
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
    notation = np.where((k >= -4) & (k < 17), k + 4, 21)
    code = (notation * 17 + _significant_digits(words) - 1) * 2 + np.signbit(flat)
    out = np.empty((flat.size, 3), "<u8")
    out[...] = _layout(first, words, code, k).T
    return out.view(f"S{MAX_FMT_LEN}").reshape(x.shape)


# ---- JSON: one writer for every document ----
#
# json.dumps with an indent runs its pure-Python encoder, one generator step
# per value, and needs the arrays as lists of Python floats; json_chunks
# prints the same bytes from the arrays themselves.

# Floats per block of an array's text.
JSON_BLOCK_VALUES = 1024

# Bytes of text json_chunks gathers before it yields them as one chunk.
JSON_CHUNK_BYTES = 1 << 16

_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(x: float) -> str:
    text = float.__repr__(x)
    return _NON_FINITE.get(text, text)


def _walk(obj, ind: str, parts: list, tasks: list) -> None:
    """Append the text of ``obj`` to ``parts``, its nested lines indented by
    ``ind`` (a line feed and the spaces of its own level) and two spaces
    per level below.  A numpy array or an iterator is left to a task, (place
    in parts, texts, obj, ind), whose text is made only when it is reached."""
    if isinstance(obj, str):
        parts.append(encode_basestring_ascii(obj))
    elif obj is None:
        parts.append("null")
    elif obj is True:
        parts.append("true")
    elif obj is False:
        parts.append("false")
    elif isinstance(obj, int):
        parts.append(int.__repr__(obj))
    elif isinstance(obj, float):
        parts.append(_float_text(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        inner = ind + "  "
        sep = "[" + inner
        for value in obj:
            parts.append(sep)
            _walk(value, inner, parts, tasks)
            sep = "," + inner
        parts.append(ind + "]")
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        inner = ind + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            parts.append(sep + encode_basestring_ascii(key) + ": ")
            _walk(value, inner, parts, tasks)
            sep = "," + inner
        parts.append(ind + "}")
    elif isinstance(obj, np.ndarray):
        tasks.append((len(parts), _array_texts, obj, ind))
    elif isinstance(obj, Iterator):
        tasks.append((len(parts), _iterator_texts, obj, ind))
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _texts(parts: list, tasks: list):
    """The text of a walk: its parts, joined between the tasks' texts."""
    start = 0
    for end, texts, obj, ind in tasks:
        yield "".join(parts[start:end])
        yield from texts(obj, ind)
        start = end
    yield "".join(parts[start:])


def _iterator_texts(items, ind: str):
    """A JSON list of the iterator's items, each walked when it is reached."""
    inner = ind + "  "
    sep = "[" + inner
    for item in items:
        parts, tasks = [sep], []
        _walk(item, inner, parts, tasks)
        yield from _texts(parts, tasks)
        sep = "," + inner
    yield "[]" if sep[0] == "[" else ind + "]"


def _item_template(shape: tuple, ind: str) -> str:
    """The template of one array of ``shape`` whose own line is indented by
    ``ind``: a %r field per value, laid out as json lays out nested lists."""
    if not shape:
        return "%r"
    if shape[0] == 0:
        return "[]"
    inner = ind + "  "
    return "[" + ",".join([inner + _item_template(shape[1:], inner)] * shape[0]) + ind + "]"


def _array_texts(a: np.ndarray, ind: str):
    """A float array as nested lists, a complex one with an [re, im] pair
    for each value, whose elements are Python floats (dtype characters "e",
    "f" and "d", and "F" and "D" for complex).

    The text is made a block of rows at a time, as many rows of the first
    axis as hold JSON_BLOCK_VALUES floats and at least one, by one ``%`` call
    on a template of %r fields.  The repr of a finite float has no "n", so a
    block whose text has one holds a nan or inf, and is printed again as
    json prints those.
    """
    if a.ndim == 0 or a.dtype.char not in "efdFD":
        raise TypeError(f"an array of {a.ndim} dimensions and dtype {a.dtype} is not a JSON array")
    if a.dtype.kind == "c":
        a = np.ascontiguousarray(a)
        a = a.view(a.real.dtype).reshape(a.shape + (2,))
    if a.shape[0] == 0:
        yield "[]"
        return
    inner = ind + "  "
    item = inner + _item_template(a.shape[1:], inner)
    step = max(1, JSON_BLOCK_VALUES // max(math.prod(a.shape[1:]), 1))
    template = ",".join([item] * min(step, a.shape[0]))
    sep = "["
    for start in range(0, a.shape[0], step):
        block = a[start : start + step]
        if len(block) < step and start:
            template = ",".join([item] * len(block))
        values = tuple(block.ravel().tolist())
        text = template % values
        if "n" in text:
            text = template.replace("%r", "%s") % tuple(map(_float_text, values))
        yield sep + text
        sep = ","
    yield ind + "]"


def json_chunks(doc):
    """The bytes of ``json.dumps(doc, sort_keys=True, indent=2) + "\\n"``,
    in chunks of about JSON_CHUNK_BYTES.

    ``doc`` is made of dicts with str keys, lists, tuples, strings, ints,
    floats, booleans and None, as json takes them, and two more leaves:
    numpy float and complex arrays, printed as the nested lists of their
    values with an [re, im] pair for each complex value, and iterators,
    printed as lists whose items are walked one at a time.
    """
    parts: list = []
    tasks: list = []
    _walk(doc, "\n", parts, tasks)
    parts.append("\n")
    pending, size = [], 0
    for text in _texts(parts, tasks):
        pending.append(text)
        size += len(text)
        if size >= JSON_CHUNK_BYTES:
            yield "".join(pending).encode()
            pending, size = [], 0
    if pending:
        yield "".join(pending).encode()


def dumps(doc) -> str:
    """Canonical JSON: sorted keys, two-space indent, trailing newline; the
    joined text of :func:`json_chunks`."""
    return b"".join(json_chunks(doc)).decode()


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
