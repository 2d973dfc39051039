"""Bipartite structure of pure states and entropy measures.

A pure state on a bipartitioned space has a biorthogonal expansion with
nonnegative coefficients sqrt(p_k); the p_k are simultaneously the spectra
of both reduced density operators.  Entropies are returned in nats
(Boltzmann constant k = 1); divide by ln 2 via :func:`entropy_bits` for bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .hilbert import DensityOperator, StateVector, TensorSpace
from .hilbert import _check_orthonormal_complete, _split_axes

SCHMIDT_CUTOFF = 1e-12
DEGENERACY_ATOL = 1e-10


@dataclass(frozen=True, eq=False)
class SchmidtDecomposition:
    """Coefficients and paired orthonormal factors of a bipartite pure state.

    The factors are two read-only stacks, as the SVD returns them: the
    system's as the columns of ``system_factors`` (d_A, r), the
    environment's as the rows of ``environment_factors`` (r, d_B), each
    indexed by the flattened order of its side's labels.
    """

    space: TensorSpace
    system_labels: tuple[str, ...]
    environment_labels: tuple[str, ...]
    coefficients: np.ndarray
    system_factors: np.ndarray
    environment_factors: np.ndarray
    degenerate: bool

    @property
    def probabilities(self) -> np.ndarray:
        return self.coefficients**2

    def reconstruct(self) -> StateVector:
        """Sum of coefficient times system factor times environment factor,
        as the one product (U c) Vh."""
        order = self.system_labels + self.environment_labels
        tens = (self.system_factors * self.coefficients) @ self.environment_factors
        tens = tens.reshape([self.space.dim_of(label) for label in order])
        perm = [order.index(label) for label in self.space.labels]
        return StateVector(self.space, tens.transpose(perm).reshape(-1))

    def to_json_obj(self) -> dict:
        """Each factor is listed as the document of a state on its side."""

        def states(labels, rows):
            side = self.space.subspace(labels).to_json_obj()
            return [{"space": side, "amplitudes": row} for row in rows]

        return {
            "space": self.space.to_json_obj(),
            "system_labels": list(self.system_labels),
            "environment_labels": list(self.environment_labels),
            "coefficients": self.coefficients,
            "system_vectors": states(self.system_labels, self.system_factors.T),
            "environment_vectors": states(self.environment_labels, self.environment_factors),
            "degenerate": bool(self.degenerate),
        }


def schmidt_decompose(psi: StateVector, system_labels) -> SchmidtDecomposition:
    """Biorthogonal decomposition across the named bipartition.

    Coefficients are sorted descending and truncated below SCHMIDT_CUTOFF.
    Individual factor phases are not unique; a degenerate spectrum (equal
    p_k within DEGENERACY_ATOL) additionally allows basis rotations, which
    the ``degenerate`` flag records.
    """
    space = psi.space
    sys_axes, env_axes = _split_axes(space, system_labels)
    sys_space = space.subspace([space.labels[i] for i in sys_axes])
    env_space = space.subspace([space.labels[i] for i in env_axes])
    mat = psi.amplitudes.reshape(space.dims).transpose(sys_axes + env_axes)
    u, s, vh = np.linalg.svd(mat.reshape(sys_space.total_dim, -1), full_matrices=False)
    r = int(np.count_nonzero(s > SCHMIDT_CUTOFF))  # s is sorted descending
    s, u, vh = s[:r], u[:, :r], vh[:r]
    for a in (s, u, vh):
        a.setflags(write=False)
    degenerate = bool(np.any(np.abs(np.diff(s**2)) < DEGENERACY_ATOL))
    return SchmidtDecomposition(
        space=space,
        system_labels=sys_space.labels,
        environment_labels=env_space.labels,
        coefficients=s,
        system_factors=u,
        environment_factors=vh,
        degenerate=degenerate,
    )


def linear_entropy(rho: DensityOperator) -> float:
    """trace(rho - rho^2); zero exactly on pure states, 1 - 1/d when mixed flat."""
    val = float(np.trace(rho.matrix).real) - rho.purity()
    return max(0.0, val)


def ensemble_entropy(rho: DensityOperator) -> float:
    """von Neumann entropy -trace(rho ln rho) in nats."""
    w = np.clip(rho.eigenvalues(), 0.0, 1.0)
    w = w[w > 0.0]
    return float(-(w * np.log(w)).sum()) + 0.0  # normalize -0.0


def entropy_bits(nats: float) -> float:
    return nats / math.log(2.0)


def shannon_entropy(p) -> float:
    """-sum p ln p for a classical distribution, in nats."""
    arr = np.asarray(p, dtype=np.float64).reshape(-1)
    if arr.min() < -1e-12 or abs(arr.sum() - 1.0) > 1e-8:
        raise ValidationError("not a probability distribution")
    arr = arr[arr > 0.0]
    return float(-(arr * np.log(arr)).sum()) + 0.0  # normalize -0.0


def decoherence_factor(rho: DensityOperator, basis) -> tuple[np.ndarray, np.ndarray]:
    """Off-diagonal magnitudes |<m|rho|n>| and populations in the given basis.

    Returns (offdiag, populations); offdiag has an exactly zero diagonal.
    """
    basis = tuple(basis)
    _check_orthonormal_complete(basis, rho.space)
    cols = np.column_stack([b.amplitudes for b in basis])
    mat = cols.conj().T @ rho.matrix @ cols
    off = np.abs(mat)
    np.fill_diagonal(off, 0.0)
    return off, np.real(np.diag(mat)).copy()

