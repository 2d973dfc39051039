"""State vectors and density operators on labeled tensor spaces.

Subsystems are declared as an ordered list of (label, dimension) pairs.  The
flattened index runs row-major over that order, first-listed subsystem
slowest-varying, so ``basis_state(space, (1, 0))`` on a (2, 3) space sits at
flat index 3.  Global phase is physically irrelevant but is stored as given;
use :func:`ray_equal` for phase-insensitive comparison.

All values are immutable after construction (frozen dataclasses wrapping
read-only arrays) and safe to share between threads.  States and densities
are written as JSON (``to_json``) but never read back: scenarios give their
states as plain amplitude lists.  Every Hermitian check (densities,
Hamiltonians, projectors and a Wigner grid's density samples) is
:func:`_check_hermitian`, which takes the deviation one block of rows at a
time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import serialize
from .errors import SpaceMismatchError, ValidationError, VALIDITY_ATOL


@dataclass(frozen=True)
class TensorSpace:
    """Ordered collection of labeled finite-dimensional subsystems."""

    subsystems: tuple[tuple[str, int], ...]

    def __post_init__(self):
        subs = tuple((str(label), int(dim)) for label, dim in self.subsystems)
        if not subs:
            raise ValidationError("a tensor space needs at least one subsystem")
        labels = [label for label, _ in subs]
        if len(set(labels)) != len(labels):
            raise ValidationError(f"label collision in {labels}")
        for label, dim in subs:
            if dim < 1:
                raise ValidationError(f"subsystem {label!r} has dimension {dim} < 1")
        object.__setattr__(self, "subsystems", subs)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(label for label, _ in self.subsystems)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(dim for _, dim in self.subsystems)

    @property
    def total_dim(self) -> int:
        out = 1
        for _, dim in self.subsystems:
            out *= dim
        return out

    def axis(self, label: str) -> int:
        for i, (name, _) in enumerate(self.subsystems):
            if name == label:
                return i
        raise ValidationError(f"unknown label {label!r}; space has {self.labels}")

    def dim_of(self, label: str) -> int:
        return self.subsystems[self.axis(label)][1]

    def subspace(self, labels: Iterable[str]) -> TensorSpace:
        """Subsystems restricted to ``labels``, kept in this space's order."""
        wanted = set(labels)
        for name in wanted:
            self.axis(name)
        return TensorSpace(tuple(s for s in self.subsystems if s[0] in wanted))

    def concat(self, other: TensorSpace) -> TensorSpace:
        return TensorSpace(self.subsystems + other.subsystems)

    def flatten(self, multi: Sequence[int]) -> int:
        return int(np.ravel_multi_index(tuple(multi), self.dims))

    def to_json_obj(self) -> list:
        return [[label, dim] for label, dim in self.subsystems]


@dataclass(frozen=True, eq=False)
class StateVector:
    """Pure state; amplitudes indexed by the flattened space convention."""

    space: TensorSpace
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.array(self.amplitudes, dtype=np.complex128, copy=True).reshape(-1)
        if amps.size != self.space.total_dim:
            raise SpaceMismatchError(
                f"{amps.size} amplitudes for a space of dimension {self.space.total_dim}"
            )
        if not np.all(np.isfinite(amps.view(np.float64))):
            raise ValidationError("non-finite amplitude")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def is_normalized(self, atol: float = VALIDITY_ATOL) -> bool:
        return abs(self.norm() ** 2 - 1.0) <= atol

    def inner(self, other: StateVector) -> complex:
        """<self|other> with conjugation on self."""
        _check_same_space(self.space, other.space)
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def ray_equal(self, other: StateVector, atol: float = VALIDITY_ATOL) -> bool:
        """Equality up to global phase."""
        _check_same_space(self.space, other.space)
        na, nb = self.norm(), other.norm()
        if na == 0.0 or nb == 0.0:
            raise ValidationError("ray comparison with a zero-norm state")
        return abs(self.inner(other)) / (na * nb) >= 1.0 - atol

    def density(self) -> DensityOperator:
        a = self.amplitudes
        return DensityOperator(self.space, np.outer(a, a.conj()))

    def to_json_obj(self) -> dict:
        return {
            "space": self.space.to_json_obj(),
            "amplitudes": serialize.complex_pairs(self.amplitudes),
        }

    def to_json(self) -> str:
        return serialize.dumps(self.to_json_obj())


@dataclass(frozen=True, eq=False)
class DensityOperator:
    """Hermitian, unit-trace, positive-semidefinite operator."""

    space: TensorSpace
    matrix: np.ndarray

    def __post_init__(self):
        mat = _check_hermitian(self.matrix, self.space.total_dim, "matrix")
        tr = complex(np.trace(mat))
        if abs(tr - 1.0) > VALIDITY_ATOL:
            raise ValidationError(f"trace is {tr:.15g}, expected 1")
        w = np.linalg.eigvalsh(mat)
        if w.min() < -VALIDITY_ATOL:
            raise ValidationError(f"negative eigenvalue {w.min():.3e}")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    def purity(self) -> float:
        return float(np.vdot(self.matrix, self.matrix).real)

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)

    def to_json_obj(self) -> dict:
        return {
            "space": self.space.to_json_obj(),
            "matrix": serialize.matrix_pairs(self.matrix),
        }

    def to_json(self) -> str:
        return serialize.dumps(self.to_json_obj())


# Entries per row block of the Hermitian check: it holds one block's
# conjugate transpose, difference and magnitudes, never the whole matrix's.
_HERMITIAN_BLOCK = 1 << 16


def _check_hermitian(mat, dim: int, what: str) -> np.ndarray:
    """A (dim, dim) complex128 copy of ``mat``, finite and Hermitian within
    VALIDITY_ATOL.  The deviation is the largest |M - M^dagger| entry, taken
    one block of rows at a time: the same maximum as over the whole matrix."""
    mat = np.array(mat, dtype=np.complex128, copy=True)
    if mat.shape != (dim, dim):
        raise SpaceMismatchError(f"{what} shape {mat.shape} for dimension {dim}")
    if not np.all(np.isfinite(mat.view(np.float64))):
        raise ValidationError(f"non-finite {what} entry")
    rows = max(1, _HERMITIAN_BLOCK // dim)
    dev = 0.0
    for i in range(0, dim, rows):
        dev = max(dev, np.abs(mat[i : i + rows] - mat[:, i : i + rows].conj().T).max())
    if dev > VALIDITY_ATOL:
        raise ValidationError(f"{what} is not Hermitian (deviation {dev:.3e})")
    return mat


def _check_same_space(a: TensorSpace, b: TensorSpace) -> None:
    if a != b:
        raise SpaceMismatchError(f"spaces differ: {a.subsystems} vs {b.subsystems}")


def basis_state(space: TensorSpace, index) -> StateVector:
    """Computational basis vector; ``index`` is flat or a per-subsystem tuple."""
    flat = space.flatten(index) if isinstance(index, (tuple, list)) else int(index)
    if not 0 <= flat < space.total_dim:
        raise ValidationError(f"basis index {flat} outside dimension {space.total_dim}")
    amps = np.zeros(space.total_dim, dtype=np.complex128)
    amps[flat] = 1.0
    return StateVector(space, amps)


def computational_basis(space: TensorSpace) -> tuple[StateVector, ...]:
    return tuple(basis_state(space, i) for i in range(space.total_dim))


def random_state(space: TensorSpace, rng: np.random.Generator) -> StateVector:
    """Haar-distributed pure state from a seeded generator."""
    d = space.total_dim
    z = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return StateVector(space, z / np.linalg.norm(z))


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Product state on the concatenated space (label collision rejected)."""
    return StateVector(a.space.concat(b.space), np.kron(a.amplitudes, b.amplitudes))


def tensor_many(*states: StateVector) -> StateVector:
    out = states[0]
    for s in states[1:]:
        out = tensor(out, s)
    return out


def _check_orthonormal_complete(basis: Sequence[StateVector], space: TensorSpace) -> None:
    d = space.total_dim
    if len(basis) != d:
        raise ValidationError(f"{len(basis)} basis vectors for dimension {d}")
    mat = np.column_stack([b.amplitudes for b in basis])
    gram = mat.conj().T @ mat
    dev = np.abs(gram - np.eye(d)).max()
    if dev > VALIDITY_ATOL:
        raise ValidationError(f"basis is not orthonormal (deviation {dev:.3e})")


def _split_axes(space: TensorSpace, keep) -> tuple[list[int], list[int]]:
    if isinstance(keep, str):
        keep = [keep]
    wanted = set(keep)
    if not wanted:
        raise ValidationError("keep set is empty")
    for name in wanted:
        space.axis(name)
    keep_axes = [i for i, l in enumerate(space.labels) if l in wanted]
    env_axes = [i for i, l in enumerate(space.labels) if l not in wanted]
    if not env_axes:
        raise ValidationError("keep set covers the whole space; nothing to trace out")
    return keep_axes, env_axes


def partial_trace(state, keep) -> DensityOperator:
    """Reduced density operator over the subsystems named in ``keep``.

    The retained subsystems keep their order from the parent space.  Accepts
    a StateVector or a DensityOperator.
    """
    space = state.space
    keep_axes, env_axes = _split_axes(space, keep)
    dims = space.dims
    dk = int(np.prod([dims[i] for i in keep_axes]))
    de = int(np.prod([dims[i] for i in env_axes]))
    sub = space.subspace([space.labels[i] for i in keep_axes])
    if isinstance(state, StateVector):
        t = state.amplitudes.reshape(dims).transpose(keep_axes + env_axes)
        m = t.reshape(dk, de)
        return DensityOperator(sub, m @ m.conj().T)
    n = len(dims)
    t = state.matrix.reshape(dims + dims)
    perm = keep_axes + env_axes + [n + i for i in keep_axes] + [n + i for i in env_axes]
    t = t.transpose(perm).reshape(dk, de, dk, de)
    return DensityOperator(sub, np.trace(t, axis1=1, axis2=3))


def _front_axes(sub: TensorSpace, full: TensorSpace) -> list[int]:
    """Axis order of ``full`` with ``sub``'s labels first, in ``sub``'s order.

    Each of ``sub``'s labels must carry the same dimension in ``full``.
    """
    for label, dim in sub.subsystems:
        if full.dim_of(label) != dim:
            raise SpaceMismatchError(
                f"label {label!r} has dimension {dim} in the operand "
                f"but {full.dim_of(label)} in the target space"
            )
    front = [full.axis(label) for label in sub.labels]
    return front + [i for i in range(len(full.dims)) if i not in front]


def _local_operand(mat, sub: TensorSpace) -> np.ndarray:
    """``mat`` as a complex128 (d_sub, d_sub) array."""
    mat = np.asarray(mat, dtype=np.complex128)
    d_sub = sub.total_dim
    if mat.shape != (d_sub, d_sub):
        raise SpaceMismatchError(f"matrix shape {mat.shape} for dimension {d_sub}")
    return mat


def apply_local(
    amplitudes: np.ndarray, op: np.ndarray, sub: TensorSpace, full: TensorSpace
) -> np.ndarray:
    """``embed_matrix(op, sub, full) @ amplitudes`` without forming the D x D matrix.

    The ``sub`` axes of the amplitude tensor are moved to the front (in
    ``sub``'s order), contracted with ``op`` and moved back: O(D * d_sub)
    work and O(D) memory instead of O(D^2).
    """
    perm = _front_axes(sub, full)
    op = _local_operand(op, sub)
    t = np.asarray(amplitudes, dtype=np.complex128).reshape(full.dims).transpose(perm)
    out = (op @ t.reshape(sub.total_dim, -1)).reshape(t.shape)
    return out.transpose(np.argsort(perm)).reshape(-1)


def embed_matrix(mat: np.ndarray, sub: TensorSpace, full: TensorSpace) -> np.ndarray:
    """Lift an operator on ``sub`` to ``full`` by tensoring identity elsewhere.

    Handles arbitrary label positions; ``sub``'s labels may appear anywhere
    in ``full`` but must carry the same dimensions.  To act on a state,
    :func:`apply_local` gives the same result without the D x D matrix.
    """
    front = _front_axes(sub, full)
    big = _local_operand(mat, sub)
    for axis in front[len(sub.dims) :]:
        big = np.kron(big, np.eye(full.dims[axis], dtype=np.complex128))
    dims = [full.dims[axis] for axis in front]
    perm = list(np.argsort(front))
    n = len(front)
    t = big.reshape(dims + dims).transpose(perm + [n + p for p in perm])
    d = full.total_dim
    return np.ascontiguousarray(t.reshape(d, d))


def ray_equal(a: StateVector, b: StateVector, atol: float = VALIDITY_ATOL) -> bool:
    return a.ray_equal(b, atol=atol)
