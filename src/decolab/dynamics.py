"""Unitary time evolution and state reduction.

Units: hbar = 1.  The default propagator diagonalizes the Hamiltonian once,
which is exact up to rounding.  For larger problems a fixed-step Cayley
integrator is available; each step is exactly unitary with local error
O(dt^3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import serialize
from .errors import (
    MIN_BRANCH_PROBABILITY,
    SpaceMismatchError,
    ValidationError,
    ZeroProbabilityError,
    VALIDITY_ATOL,
)
from .hilbert import (
    DensityOperator,
    StateVector,
    TensorSpace,
    _check_hermitian,
    _check_orthonormal_complete,
)


@dataclass(frozen=True, eq=False)
class Hamiltonian:
    space: TensorSpace
    matrix: np.ndarray
    note: str | None = None

    def __post_init__(self):
        mat = _check_hermitian(self.matrix, self.space.total_dim, "Hamiltonian")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)


def propagator(hamiltonian: Hamiltonian, t: float) -> np.ndarray:
    """exp(-i H t) via eigendecomposition."""
    w, v = np.linalg.eigh(hamiltonian.matrix)
    phases = np.exp(-1j * w * float(t))
    return (v * phases) @ v.conj().T


def _cayley_step_matrix(hamiltonian: Hamiltonian, dt: float) -> np.ndarray:
    h = hamiltonian.matrix
    eye = np.eye(h.shape[0], dtype=np.complex128)
    return np.linalg.solve(eye + 0.5j * dt * h, eye - 0.5j * dt * h)


def schrodinger_evolve(
    hamiltonian: Hamiltonian,
    psi: StateVector,
    t: float,
    method: str = "eigen",
    steps: int | None = None,
) -> StateVector:
    """Evolve a pure state for time ``t``.

    method "eigen" is exact; "cayley" takes ``steps`` fixed unitary steps
    (default chosen so dt is about 0.01).
    """
    if hamiltonian.space != psi.space:
        raise SpaceMismatchError("Hamiltonian and state live on different spaces")
    if method == "eigen":
        return StateVector(psi.space, propagator(hamiltonian, t) @ psi.amplitudes)
    if method == "cayley":
        n = steps if steps is not None else max(1, math.ceil(abs(t) / 0.01))
        step = _cayley_step_matrix(hamiltonian, t / n)
        amps = psi.amplitudes
        for _ in range(n):
            amps = step @ amps
        return StateVector(psi.space, amps)
    raise ValidationError(f"unknown method {method!r}")


def von_neumann_evolve(
    hamiltonian: Hamiltonian,
    rho: DensityOperator,
    t: float,
    method: str = "eigen",
    steps: int | None = None,
) -> DensityOperator:
    """Evolve a density operator: rho -> U rho U+."""
    if hamiltonian.space != rho.space:
        raise SpaceMismatchError("Hamiltonian and state live on different spaces")
    if method == "eigen":
        u = propagator(hamiltonian, t)
    elif method == "cayley":
        n = steps if steps is not None else max(1, math.ceil(abs(t) / 0.01))
        step = _cayley_step_matrix(hamiltonian, t / n)
        u = np.linalg.matrix_power(step, n)
    else:
        raise ValidationError(f"unknown method {method!r}")
    return DensityOperator(rho.space, u @ rho.matrix @ u.conj().T)


@dataclass(frozen=True, eq=False)
class CollapseRecord:
    """Outcome of one stochastic reduction, replayable from its seed."""

    outcome_index: int
    outcome_probability: float
    pre_state: StateVector
    post_state: StateVector
    rng_seed: int

    def to_json_obj(self) -> dict:
        return {
            "outcome_index": self.outcome_index,
            "outcome_probability": self.outcome_probability,
            "rng_seed": self.rng_seed,
            "pre_state": self.pre_state.to_json_obj(),
            "post_state": self.post_state.to_json_obj(),
        }

    def to_json(self) -> str:
        return serialize.dumps(self.to_json_obj())


def born_weights(psi: StateVector, basis=None) -> np.ndarray:
    """|<b|psi>|^2 / <psi|psi> over ``basis`` (None: the computational one,
    whose overlaps are the amplitudes exactly), one scalar abs per entry:
    numpy's array abs can differ from it in the last place."""
    nrm = psi.norm()
    if nrm == 0.0:
        raise ValidationError("cannot collapse a zero-norm state")
    amps = psi.amplitudes / nrm
    overlaps = amps if basis is None else [np.vdot(b.amplitudes, amps) for b in basis]
    return np.array([abs(z) ** 2 for z in overlaps])


def sample_outcomes(probs: np.ndarray, seeds) -> np.ndarray:
    """The outcome each of the sequence ``seeds`` draws from the Born table
    ``probs``: one fresh generator per seed, outcomes below
    MIN_BRANCH_PROBABILITY excluded."""
    keep = np.flatnonzero(probs >= MIN_BRANCH_PROBABILITY)
    if keep.size == 0:
        raise ValidationError("no outcome has weight above the sampling floor")
    cum = np.cumsum(probs[keep])
    draws = np.fromiter((np.random.default_rng(s).random() for s in seeds), np.float64, len(seeds))
    draws *= cum[-1]
    return keep[np.searchsorted(cum, draws, side="right").clip(0, keep.size - 1)]


def collapse(psi: StateVector, basis, seed: int) -> CollapseRecord:
    """Sample one outcome from the squared-amplitude distribution.

    The replacement is discontinuous and seeded (see sample_outcomes).  The
    post state is the basis vector exactly as supplied (its stored phase is
    the caller's convention).
    """
    basis = tuple(basis)
    _check_orthonormal_complete(basis, psi.space)
    probs = born_weights(psi, basis)
    outcome = int(sample_outcomes(probs, (seed,))[0])
    return CollapseRecord(outcome, float(probs[outcome]), psi, basis[outcome], int(seed))


def _check_projector(p: np.ndarray, dim: int) -> np.ndarray:
    p = _check_hermitian(p, dim, "projector")
    if np.abs(p @ p - p).max() > VALIDITY_ATOL:
        raise ValidationError("projector is not idempotent")
    return p


def luders_project(state, projector: np.ndarray):
    """Project onto a subspace and renormalize; returns (state, probability).

    Pure states map to P|psi>/||P|psi>||, density operators to
    P rho P / trace(P rho P).  A probability at or below
    MIN_BRANCH_PROBABILITY raises ZeroProbabilityError.
    """
    dim = state.space.total_dim
    p = _check_projector(projector, dim)
    if isinstance(state, StateVector):
        vec = p @ state.amplitudes
        prob = float(np.vdot(vec, vec).real) / float(np.vdot(state.amplitudes, state.amplitudes).real)
        if prob <= MIN_BRANCH_PROBABILITY:
            raise ZeroProbabilityError(f"projection probability {prob:.3e}")
        return StateVector(state.space, vec / math.sqrt(prob) / state.norm()), prob
    sub = p @ state.matrix @ p
    prob = float(np.trace(sub).real)
    if prob <= MIN_BRANCH_PROBABILITY:
        raise ZeroProbabilityError(f"projection probability {prob:.3e}")
    return DensityOperator(state.space, sub / prob), prob
