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
from .hilbert import DensityOperator, StateVector, TensorSpace, _check_orthonormal_complete

SCHMIDT_CUTOFF = 1e-12
DEGENERACY_ATOL = 1e-10


@dataclass(frozen=True, eq=False)
class SchmidtDecomposition:
    """Coefficients and paired orthonormal factors of a bipartite pure state."""

    space: TensorSpace
    system_labels: tuple[str, ...]
    environment_labels: tuple[str, ...]
    coefficients: np.ndarray
    system_vectors: tuple[StateVector, ...]
    environment_vectors: tuple[StateVector, ...]
    degenerate: bool

    @property
    def probabilities(self) -> np.ndarray:
        return self.coefficients**2

    def reconstruct(self) -> StateVector:
        """Sum of coefficient times system-vector times environment-vector."""
        sys_dims = self.system_vectors[0].space.dims
        env_dims = self.environment_vectors[0].space.dims
        tens = np.zeros(sys_dims + env_dims, dtype=np.complex128)
        for c, u, v in zip(self.coefficients, self.system_vectors, self.environment_vectors):
            tens += c * np.tensordot(
                u.amplitudes.reshape(sys_dims), v.amplitudes.reshape(env_dims), axes=0
            )
        order = list(self.system_labels) + list(self.environment_labels)
        perm = [order.index(label) for label in self.space.labels]
        return StateVector(self.space, tens.transpose(perm).reshape(-1))

    def to_json_obj(self) -> dict:
        return {
            "space": self.space.to_json_obj(),
            "system_labels": list(self.system_labels),
            "environment_labels": list(self.environment_labels),
            "coefficients": [float(c) for c in self.coefficients],
            "system_vectors": [v.to_json_obj() for v in self.system_vectors],
            "environment_vectors": [v.to_json_obj() for v in self.environment_vectors],
            "degenerate": bool(self.degenerate),
        }


def schmidt_decompose(psi: StateVector, system_labels) -> SchmidtDecomposition:
    """Biorthogonal decomposition across the named bipartition.

    Coefficients are sorted descending and truncated below SCHMIDT_CUTOFF.
    Individual factor phases are not unique; a degenerate spectrum (equal
    p_k within DEGENERACY_ATOL) additionally allows basis rotations, which
    the ``degenerate`` flag records.
    """
    if isinstance(system_labels, str):
        system_labels = [system_labels]
    space = psi.space
    wanted = set(system_labels)
    for name in wanted:
        space.axis(name)
    sys_axes = [i for i, l in enumerate(space.labels) if l in wanted]
    env_axes = [i for i, l in enumerate(space.labels) if l not in wanted]
    if not sys_axes or not env_axes:
        raise ValidationError("bipartition must split the space into two nonempty parts")
    dims = space.dims
    dk = int(np.prod([dims[i] for i in sys_axes]))
    de = int(np.prod([dims[i] for i in env_axes]))
    mat = psi.amplitudes.reshape(dims).transpose(sys_axes + env_axes).reshape(dk, de)
    u, s, vh = np.linalg.svd(mat, full_matrices=False)
    kept = s > SCHMIDT_CUTOFF
    s = s[kept]
    u = u[:, kept]
    vh = vh[kept, :]
    sys_space = space.subspace([space.labels[i] for i in sys_axes])
    env_space = space.subspace([space.labels[i] for i in env_axes])
    probs = s**2
    degenerate = bool(np.any(np.abs(np.diff(probs)) < DEGENERACY_ATOL)) if s.size > 1 else False
    coeffs = np.array(s, dtype=np.float64)
    coeffs.setflags(write=False)
    return SchmidtDecomposition(
        space=space,
        system_labels=tuple(sys_space.labels),
        environment_labels=tuple(env_space.labels),
        coefficients=coeffs,
        system_vectors=tuple(StateVector(sys_space, u[:, k]) for k in range(s.size)),
        environment_vectors=tuple(StateVector(env_space, vh[k, :]) for k in range(s.size)),
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

