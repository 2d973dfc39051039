"""Phase-space representation of one continuous degree of freedom on a grid.

Conventions (hbar = 1):

    W(p, q) = (1/pi) * integral dx  exp(2 i p x) rho(q + x, q - x)

sampled on q_j = q_min + j dq, j = 0..N-1, with dq = (q_max - q_min)/N and
N a power of two.  The x integral runs over the same lattice, so the
conjugate momentum grid is p_m = (m - N/2) dp with dp = pi/(N dq); with
that pairing the double Riemann sum of W over phase space telescopes to the
trace exactly.  States far narrower or wider than the grid are rejected
through a boundary-amplitude check instead of silently wrapping.

The transform is also expressible as the trace against a phase-point
kernel, a Kronecker comb standing in for the delta on the midpoint lattice;
:func:`wigner_via_kernel` contracts it directly, without the FFT, as an
independent route to the same surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import serialize
from .errors import ValidationError
from .hilbert import _check_hermitian

BOUNDARY_FLOOR = 1e-8
NORMALIZATION_ATOL = 1e-6
IMAG_RESIDUE_ATOL = 1e-10


def _check_points(n_points: int) -> None:
    if n_points < 2 or n_points & (n_points - 1):
        raise ValidationError(f"n_points must be a power of two, got {n_points}")


def _check_range(q_min: float, q_max: float) -> None:
    if not q_max > q_min:
        raise ValidationError("q_max must exceed q_min")


def _check_grid(q_min: float, q_max: float, n_points: int) -> None:
    _check_points(n_points)
    _check_range(q_min, q_max)


def grid_points(q_min: float, q_max: float, n_points: int) -> np.ndarray:
    dq = (q_max - q_min) / n_points
    return q_min + dq * np.arange(n_points)


@dataclass(frozen=True, eq=False)
class GridState:
    """Wavefunction samples (1d) or density-matrix samples (2d) on the q grid."""

    q_min: float
    q_max: float
    n_points: int
    values: np.ndarray

    def __post_init__(self):
        n = int(self.n_points)
        _check_grid(self.q_min, self.q_max, n)
        if np.shape(self.values) == (n, n):
            v = _check_hermitian(self.values, n, "density sample matrix")
            total = float(np.trace(v).real * self.dq)
        else:
            v = np.array(self.values, dtype=np.complex128, copy=True)
            if v.shape != (n,):
                raise ValidationError(f"values shape {v.shape} incompatible with {n} grid points")
            if not np.all(np.isfinite(v.view(np.float64))):
                raise ValidationError("non-finite grid sample")
            total = float((np.abs(v) ** 2).sum() * self.dq)
        if abs(total - 1.0) > NORMALIZATION_ATOL:
            raise ValidationError(f"grid normalization is {total:.8g}, expected 1")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "n_points", n)
        object.__setattr__(self, "q_min", float(self.q_min))
        object.__setattr__(self, "q_max", float(self.q_max))

    @property
    def dq(self) -> float:
        return (self.q_max - self.q_min) / self.n_points

    def density_samples(self) -> np.ndarray:
        """rho(z, z') = psi(z) conj(psi(z')) for pure input, or the matrix itself."""
        if self.values.ndim == 1:
            return np.outer(self.values, self.values.conj())
        return self.values

    def boundary_magnitude(self) -> float:
        if self.values.ndim == 1:
            return float(max(abs(self.values[0]), abs(self.values[-1])))
        edges = [self.values[0, :], self.values[-1, :], self.values[:, 0], self.values[:, -1]]
        return float(max(np.abs(e).max() for e in edges))


@dataclass(frozen=True, eq=False)
class WignerGrid:
    """Real phase-space samples W[m, j] = W(p_m, q_j)."""

    q_min: float
    q_max: float
    n_points: int
    values: np.ndarray

    def __post_init__(self):
        n = int(self.n_points)
        _check_grid(self.q_min, self.q_max, n)
        v = np.array(self.values, dtype=np.float64, copy=True)
        if v.shape != (n, n):
            raise ValidationError(f"values shape {v.shape}, expected {(n, n)}")
        if not np.all(np.isfinite(v)):
            raise ValidationError("non-finite phase-space sample")
        total = float(v.sum() * self.dq * self.dp)
        if abs(total - 1.0) > NORMALIZATION_ATOL:
            raise ValidationError(f"phase-space normalization is {total:.8g}, expected 1")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "n_points", n)
        object.__setattr__(self, "q_min", float(self.q_min))
        object.__setattr__(self, "q_max", float(self.q_max))

    @property
    def dq(self) -> float:
        return (self.q_max - self.q_min) / self.n_points

    @property
    def dp(self) -> float:
        return math.pi / (self.n_points * self.dq)

    @property
    def q_grid(self) -> np.ndarray:
        return grid_points(self.q_min, self.q_max, self.n_points)

    @property
    def p_grid(self) -> np.ndarray:
        return (np.arange(self.n_points) - self.n_points // 2) * self.dp


def _offset_indices(n: int) -> np.ndarray:
    k = np.arange(n)
    return np.where(k < n // 2, k, k - n)


def _shear_samples(rho: np.ndarray, n: int) -> np.ndarray:
    """T[k', j] = rho(q_j + x_k, q_j - x_k) with out-of-range samples zero.

    rho[j + k, j - k] lies at j(n + 1) + k(n - 1) in rho.ravel(), so the
    in-range samples of offset k (j from |k| to n - |k|) are one slice of
    stride n + 1.
    """
    flat = rho.ravel()
    t = np.zeros((n, n), np.complex128)
    for row, k in enumerate(_offset_indices(n).tolist()):
        lo, hi = abs(k), n - abs(k)
        if lo < hi:
            start = lo * (n + 1) + k * (n - 1)
            t[row, lo:hi] = flat[start : start + (hi - lo - 1) * (n + 1) + 1 : n + 1]
    return t


def _real_part(w: np.ndarray, route: str) -> np.ndarray:
    """The real part of a route's complex surface, refused if any part of
    it is not finite or its imaginary residue exceeds IMAG_RESIDUE_ATOL."""
    if not np.isfinite(w).all():
        raise ValidationError(f"non-finite value in the {route}")
    residue = float(np.abs(w.imag).max())
    if residue > IMAG_RESIDUE_ATOL:
        raise ValidationError(f"imaginary residue {residue:.3e} in the {route}")
    return w.real


def wigner_transform(state: GridState) -> WignerGrid:
    """Fourier transform of the sheared density samples; exact trace pairing."""
    if state.boundary_magnitude() >= BOUNDARY_FLOOR:
        raise ValidationError(
            f"grid too narrow: boundary amplitude {state.boundary_magnitude():.3e}"
        )
    n = state.n_points
    rho = state.density_samples()
    t = _shear_samples(rho, n)
    # Signed and scaled in place, each operand order as in the product
    # (-1)**k * t and scale * ifft, so that every value is the same complex
    # product: the transform holds the sheared samples and the FFT output.
    signs = np.where(_offset_indices(n) % 2 == 0, 1.0, -1.0)[:, None]
    np.multiply(signs, t, out=t)
    del signs
    w_complex = np.fft.ifft(t, axis=0)
    del t
    np.multiply((state.dq / math.pi) * n, w_complex, out=w_complex)
    return WignerGrid(state.q_min, state.q_max, n, _real_part(w_complex, "transform"))


def marginals(w: WignerGrid) -> tuple[np.ndarray, np.ndarray]:
    """(position density, momentum density): sums over the conjugate axis."""
    pos = w.values.sum(axis=0) * w.dp
    mom = w.values.sum(axis=1) * w.dq
    return pos, mom


def wigner_via_kernel(state: GridState) -> np.ndarray:
    """Contract the phase-point kernel against the density samples directly.

    The (z, z') double sum collapses on the midpoint comb to the pairs
    (q + k dq, q - k dq); the change of variables to midpoint and offset
    carries a Jacobian factor 2, so each pair enters with measure 2 dq^2.
    No FFT is used; this is the cross-check route for wigner_transform.
    """
    if state.boundary_magnitude() >= BOUNDARY_FLOOR:
        raise ValidationError(
            f"grid too narrow: boundary amplitude {state.boundary_magnitude():.3e}"
        )
    n = state.n_points
    dq = state.dq
    dp = math.pi / (n * dq)
    rho = state.density_samples()
    kk = _offset_indices(n)
    # rho(z', z) for the pairs z = q_j + k dq, z' = q_j - k dq.
    j = np.arange(n)
    ip = j[None, :] + kk[:, None]
    im = j[None, :] - kk[:, None]
    valid = (ip >= 0) & (ip < n) & (im >= 0) & (im < n)
    t = np.where(valid, rho[im.clip(0, n - 1), ip.clip(0, n - 1)], 0.0)
    p_vals = (np.arange(n) - n // 2) * dp
    phases = np.exp(1j * 2.0 * dq * np.outer(p_vals, kk))
    kernel_scale = 1.0 / (2.0 * math.pi * dq)
    w = (phases @ t) * kernel_scale * 2.0 * dq * dq
    return _real_part(w, "kernel contraction")


def oscillator_state(
    n: int, q_min: float = -8.0, q_max: float = 8.0, n_points: int = 256
) -> GridState:
    """Unit-frequency oscillator eigenstate, renormalized on the grid."""
    if n < 0:
        raise ValidationError("quantum number must be nonnegative")
    _check_grid(q_min, q_max, n_points)
    q = grid_points(q_min, q_max, n_points)
    coeffs = np.zeros(n + 1)
    coeffs[n] = 1.0
    herm = np.polynomial.hermite.hermval(q, coeffs)
    psi = herm * np.exp(-0.5 * q * q)
    dq = (q_max - q_min) / n_points
    psi = psi / math.sqrt(float((np.abs(psi) ** 2).sum() * dq))
    return GridState(q_min, q_max, n_points, psi)


def gaussian_packet_samples(
    center: float, momentum: float, width: float, q: np.ndarray
) -> np.ndarray:
    return np.exp(-((q - center) ** 2) / (2.0 * width**2) + 1j * momentum * q)


def two_packet_superposition(
    center: float,
    momentum: float = 0.0,
    width: float = 1.0,
    q_min: float = -12.0,
    q_max: float = 12.0,
    n_points: int = 256,
) -> GridState:
    """Coherent sum of two packets at +/- center; shows interference fringes."""
    _check_grid(q_min, q_max, n_points)
    q = grid_points(q_min, q_max, n_points)
    psi = gaussian_packet_samples(center, momentum, width, q) + gaussian_packet_samples(
        -center, -momentum, width, q
    )
    dq = (q_max - q_min) / n_points
    psi = psi / math.sqrt(float((np.abs(psi) ** 2).sum() * dq))
    return GridState(q_min, q_max, n_points, psi)


def two_packet_mixture(
    center: float,
    momentum: float = 0.0,
    width: float = 1.0,
    q_min: float = -12.0,
    q_max: float = 12.0,
    n_points: int = 256,
) -> GridState:
    """Equal-weight incoherent mixture of the same two packets; no fringes."""
    _check_grid(q_min, q_max, n_points)
    q = grid_points(q_min, q_max, n_points)
    dq = (q_max - q_min) / n_points
    rho = np.zeros((n_points, n_points), dtype=np.complex128)
    for sign in (+1.0, -1.0):
        psi = gaussian_packet_samples(sign * center, sign * momentum, width, q)
        psi = psi / math.sqrt(float((np.abs(psi) ** 2).sum() * dq))
        rho += 0.5 * np.outer(psi, psi.conj())
    return GridState(q_min, q_max, n_points, rho)


# Values whose texts wigner_csv_chunks takes from serialize.float_texts at
# once: whole q columns, as many as fit (one if a column is longer).
_CSV_BLOCK_VALUES = 8192

# Bytes float_texts holds while it prints one such block, rounded up from
# the 385 per value measured on a block of fixed-notation values, the
# kind that takes the byte gather (tracemalloc; the blocks of the
# benchmark's Wigner grids, over 90% scientific, peak at 237).
CSV_BLOCK_BYTES = _CSV_BLOCK_VALUES * 400


def wigner_csv_chunks(w: WignerGrid):
    """Long-format (q, p, w) table, q outer loop: the header, then one chunk
    of bytes per q column.

    Each column fills one line template that already holds the q and p
    texts, with ``%b`` for w, so q and p are printed once each rather than
    once per line.  Every text comes from :func:`serialize.float_texts`:
    the p and q texts from one call, the w texts a block of whole q columns
    at a time.
    """
    n = w.n_points
    axes = serialize.float_texts(np.concatenate([w.p_grid, w.q_grid])).tolist()
    p_lines = [b"," + p + b",%b\n" for p in axes[:n]]
    q_texts = axes[n:]
    yield b"q,p,w\n"
    step = max(1, _CSV_BLOCK_VALUES // n)
    for start in range(0, n, step):
        texts = serialize.float_texts(w.values[:, start : start + step].T)
        for q, column in zip(q_texts[start : start + step], texts):
            yield (q + q.join(p_lines)) % tuple(column.tolist())


def wigner_binary(w: WignerGrid) -> tuple[bytes, str]:
    """Row-major little-endian float64 dump plus the text of its JSON metadata."""
    data = np.ascontiguousarray(w.values, dtype="<f8").tobytes()
    meta = {
        "dtype": "<f8",
        "order": "C",
        "rows": "p",
        "cols": "q",
        "shape": [w.n_points, w.n_points],
        "q_min": w.q_min,
        "q_max": w.q_max,
        "dq": w.dq,
        "dp": w.dp,
        "p_min": float(w.p_grid[0]),
    }
    return data, serialize.dumps(meta)
