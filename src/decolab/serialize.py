"""Deterministic text, JSON, and hashing helpers shared by the emitters.

Floats are printed with 17 significant digits (FLOAT_FIELD, ``%.17g``) so
that every emitted value round-trips to the exact double it came from.
Every CSV table is written by :func:`csv_text` from typed columns: one
``%`` template per table, whose fields follow each column's numpy dtype.
The one exception is the Wigner CSV, which ``wigner.wigner_csv_chunks``
produces in chunks, one q column each, with the q and p texts formatted
once; it uses the same FLOAT_FIELD, so its digits match.
"""

from __future__ import annotations

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
