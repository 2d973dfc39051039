"""Deterministic text, JSON, and hashing helpers shared by the emitters.

Floats are printed with 17 significant digits so that every emitted value
round-trips to the exact double it came from.  Large tables apply the same
format as a ``%.17g`` template instead of calling fmt per value:
``"%.17g" % x`` and ``format(x, ".17g")`` both go through CPython's
PyOS_double_to_string and print the same bytes.  The Wigner CSV is
produced that way in chunks, one q column each, which the runner writes
and hashes as they arrive.
"""

from __future__ import annotations

import json
from hashlib import sha256

import numpy as np


# The longest text fmt gives a finite double: a sign, 17 digits, the point
# and a three-digit exponent, as in "-2.2250738585072014e-308".
MAX_FMT_LEN = 24


def fmt(x: float) -> str:
    return format(float(x), ".17g")


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


def csv_text(header: list[str], rows) -> str:
    """Rows of already-formatted strings joined with LF line endings."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
