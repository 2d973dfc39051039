"""Dense reference routes for the register kinds: pointer devices, record
chains and the branch / recohere cycle, applied to the joint state tensor.

The package computes every value the register kinds write from the closed
form ``decolab.measurement.Decoherence``.  The routes here build the joint
state itself, so tests can check that closed form against it.

A device register starts in a ready state and is driven by a controlled
shift: the unitary acts as |n> x V_n where V_n carries the ready state to
the n-th pointer state.  ``ApparatusModel`` holds a register as its ready
state and one n x d stack of pointer states, row n for outcome n.  Chains
tensor several such registers onto one system and activate them in index
order, the observer register last.  Everything here is globally unitary;
apparent irreversibility enters only through which registers are later
ignored.  ``premeasure`` appends the ready device to the bare system and
takes any measured basis; ``chain_propagate`` and ``branch_and_recohere``
measure in the computational basis.  ``embed_matrix`` lifts an operator on
some subsystems to the whole space, and ``apply_local`` applies one to a
state without that D x D matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from decolab.errors import VALIDITY_ATOL, SpaceMismatchError, ValidationError
from decolab.hilbert import (
    StateVector,
    TensorSpace,
    _check_orthonormal_complete,
    basis_state,
    computational_basis,
    tensor,
)
from decolab.measurement import check_register, record_states_with_overlap


# ---- operators on subsystems of a tensor space ----


def tensor_many(*states: StateVector) -> StateVector:
    out = states[0]
    for s in states[1:]:
        out = tensor(out, s)
    return out


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


# ---- registers and their controlled shifts ----


def _complete_orthonormal(seeds: list[np.ndarray]) -> np.ndarray:
    """Extend orthonormal ``seeds`` to a full basis, columns of the result.

    The seeds stay the first columns exactly.  The complement is the tail of
    the complete Householder QR of the seeds, so the result is deterministic.
    """
    cols = np.column_stack(seeds).astype(np.complex128, copy=False)
    dev = np.abs(cols.conj().T @ cols - np.eye(cols.shape[1])).max()
    if dev > VALIDITY_ATOL:
        raise ValidationError(f"seed vectors are not orthonormal (deviation {dev:.3e})")
    q, _ = np.linalg.qr(cols, mode="complete")
    q[:, : cols.shape[1]] = cols
    return q


def _transport_unitary(src: list[np.ndarray], dst: list[np.ndarray]) -> np.ndarray:
    """Unitary taking each src vector to the matching dst vector.

    Both families must be orthonormal; the complement is fixed by the
    completion on each side.
    """
    return _complete_orthonormal(dst) @ _complete_orthonormal(src).conj().T


@dataclass(frozen=True, eq=False)
class ApparatusModel:
    """Single device register: a ready state and the (n, d) stack of its
    pointer states, row n the pointer of outcome n, held as a read-only copy."""

    space: TensorSpace
    pointer_ready: StateVector
    pointers: np.ndarray

    def __post_init__(self):
        if self.pointer_ready.space != self.space:
            raise SpaceMismatchError("ready state lives off the device space")
        x = np.array(self.pointers, dtype=np.complex128)
        if x.ndim != 2 or x.shape[1] != self.space.total_dim:
            raise SpaceMismatchError(
                f"a pointer stack of shape {x.shape} on a device of dimension {self.space.total_dim}"
            )
        # written so that a NaN or infinite norm fails too
        norms = np.append(np.linalg.norm(x, axis=1), self.pointer_ready.norm()) ** 2
        if not np.all(np.abs(norms - 1.0) <= VALIDITY_ATOL):
            raise ValidationError("a pointer or the ready state is not normalized")
        x.setflags(write=False)
        object.__setattr__(self, "pointers", x)

    @property
    def n_outcomes(self) -> int:
        return self.pointers.shape[0]

    @classmethod
    def ideal(cls, label: str, n_outcomes: int, dim: int | None = None) -> ApparatusModel:
        """Orthonormal pointer states on basis indices 1..n, ready at 0."""
        d = dim if dim is not None else n_outcomes + 1
        check_register(n_outcomes, 0.0, d)
        space = TensorSpace(((label, d),))
        return cls(space, basis_state(space, 0), np.eye(n_outcomes, d, 1, dtype=np.complex128))

    @classmethod
    def with_overlap(
        cls, label: str, n_outcomes: int, overlap: float, dim: int | None = None
    ) -> ApparatusModel:
        """Pointer states with constant pairwise overlap; 0 recovers ``ideal``."""
        d = dim if dim is not None else n_outcomes + 1
        space = TensorSpace(((label, d),))
        return cls(space, basis_state(space, 0), record_states_with_overlap(n_outcomes, overlap, d))

    def shift_unitaries(self) -> list[np.ndarray]:
        """One unitary per outcome, carrying the ready state to that pointer:
        the pointer's completed basis times the adjoint of the ready state's."""
        ready = _complete_orthonormal([self.pointer_ready.amplitudes]).conj().T
        return [_complete_orthonormal([p]) @ ready for p in self.pointers]


def _checked_shifts(
    basis: Sequence[StateVector], app: ApparatusModel
) -> tuple[np.ndarray, np.ndarray]:
    """(B, V): the basis vectors as the columns of B and the shifts V_n stacked.

    B must be orthonormal and complete, with one vector per pointer state,
    and every V_n unitary (n d^3 work for n shifts of side d); together they
    make the controlled shift unitary.
    """
    basis = tuple(basis)
    _check_orthonormal_complete(basis, basis[0].space)
    if len(basis) != app.n_outcomes:
        raise ValidationError(
            f"{len(basis)} outcomes but {app.n_outcomes} pointer states"
        )
    shifts = np.stack(app.shift_unitaries())
    dev = np.abs(shifts.conj().transpose(0, 2, 1) @ shifts - np.eye(shifts.shape[1])).max()
    if dev > VALIDITY_ATOL:
        raise ValidationError(f"controlled shift is not unitary (deviation {dev:.3e})")
    return np.column_stack([b.amplitudes for b in basis]), shifts


def measurement_unitary(basis: Sequence[StateVector], app: ApparatusModel) -> np.ndarray:
    """Controlled shift sum(|n><n| x V_n) on system x device, as a dense matrix:
    the reference for the slice-by-slice route of ``_controlled_shift``."""
    b, shifts = _checked_shifts(basis, app)
    ds, da = b.shape[0], shifts.shape[1]
    u = np.zeros((ds * da, ds * da), dtype=np.complex128)
    for vec, v_n in zip(b.T, shifts):
        u += np.kron(np.outer(vec, vec.conj()), v_n)
    return u


def _controlled_shift(
    state: StateVector, basis: Sequence[StateVector], app: ApparatusModel
) -> StateVector:
    """``state`` after the controlled shift sum(|n><n| x V_n) of ``app``.

    The system and device axes of the amplitude tensor move to the front,
    the system axis turns into the measured basis (B^dagger), slice n takes
    V_n on the device axis, and the system axis turns back (B).  No operator
    on system x device is formed: n d^2 + n^2 values besides the state.
    """
    b, shifts = _checked_shifts(basis, app)
    full = state.space
    perm = _front_axes(basis[0].space.concat(app.space), full)
    t = state.amplitudes.reshape(full.dims).transpose(perm)
    shape = t.shape
    ds, da = b.shape[0], shifts.shape[1]
    out = b.conj().T @ t.reshape(ds, -1)
    out = shifts @ out.reshape(ds, da, -1)
    out = (b @ out.reshape(ds, -1)).reshape(shape).transpose(np.argsort(perm)).reshape(-1)
    # A sum of zero terms can come out as -0.0; adding 0.0 makes it +0.0 and
    # changes no other value.
    out += 0.0
    return StateVector(full, out)


def premeasure(
    system: StateVector, app: ApparatusModel, basis: Sequence[StateVector]
) -> StateVector:
    """Entangle a device with the system without selecting an outcome.

    The ready device is appended to ``system``.  Eigenstates of the measured
    basis come out as product states with the matching pointer;
    superpositions come out entangled, component by component.
    """
    return _controlled_shift(tensor(system, app.pointer_ready), basis, app)


@dataclass(frozen=True, eq=False)
class ChainSpec:
    """System space, a row of record registers, and a final observer register."""

    system_space: TensorSpace
    links: tuple[ApparatusModel, ...]
    observer: ApparatusModel

    def __post_init__(self):
        n = self.system_space.total_dim
        for link in self.links + (self.observer,):
            if link.n_outcomes != n:
                raise ValidationError("every register needs one pointer state per outcome")
        labels = [l.space.labels[0] for l in self.links] + [self.observer.space.labels[0]]
        if len(set(labels)) != len(labels):
            raise ValidationError(f"label collision among registers: {labels}")

    def joint_space(self) -> TensorSpace:
        space = self.system_space
        for link in self.links:
            space = space.concat(link.space)
        return space.concat(self.observer.space)

    @classmethod
    def from_scenario(cls, doc: dict) -> ChainSpec:
        """Build from a plain dict: system_dim and links, each with an
        overlap; every register has width system_dim + 1."""
        n = int(doc["system_dim"])
        links = tuple(
            ApparatusModel.with_overlap(f"link{i}", n, float(link_doc.get("overlap", 0.0)))
            for i, link_doc in enumerate(doc.get("links", []))
        )
        return cls(TensorSpace((("system", n),)), links, ApparatusModel.ideal("observer", n))


def chain_propagate(spec: ChainSpec, initial_system: StateVector) -> list[StateVector]:
    """Activate each link in order, then the observer.

    Returns the joint state before any step and after every step:
    ``len(links) + 2`` entries.  With no links this reduces to a single
    premeasurement by the observer.
    """
    if initial_system.space != spec.system_space:
        raise SpaceMismatchError("initial state lives off the chain's system space")
    joint = initial_system
    for link in spec.links:
        joint = tensor(joint, link.pointer_ready)
    joint = tensor(joint, spec.observer.pointer_ready)
    states = [joint]
    basis = computational_basis(spec.system_space)
    for app in spec.links + (spec.observer,):
        states.append(_controlled_shift(states[-1], basis, app))
    return states


@dataclass(frozen=True, eq=False)
class BranchingModel:
    """Registers and unitaries for the branch / decohere / reset cycle.

    Step 1 entangles the apparatus with the system; step 2 writes a record
    of each branch into one environment register; step 3 resets the
    apparatus to its ready state while depositing a second record in a
    separate environment register.  After step 3 the apparatus factors out
    exactly, yet the branches stay orthogonal through their records, so no
    recoherence of the system ever occurs.
    """

    system_space: TensorSpace
    apparatus: ApparatusModel
    env_record: ApparatusModel
    env_reset: ApparatusModel

    def __post_init__(self):
        n = self.system_space.total_dim
        for reg in (self.apparatus, self.env_record, self.env_reset):
            if reg.n_outcomes != n:
                raise ValidationError("every register needs one pointer state per outcome")

    @classmethod
    def ideal(cls, amplitude_count: int, env_dim: int | None = None) -> BranchingModel:
        n = amplitude_count
        d_env = env_dim if env_dim is not None else n + 1
        return cls(
            system_space=TensorSpace((("system", n),)),
            apparatus=ApparatusModel.ideal("apparatus", n),
            env_record=ApparatusModel.ideal("env_record", n, dim=d_env),
            env_reset=ApparatusModel.ideal("env_reset", n, dim=d_env),
        )

    def joint_space(self) -> TensorSpace:
        space = self.system_space.concat(self.apparatus.space)
        return space.concat(self.env_record.space).concat(self.env_reset.space)

    def ready_joint(self, system: StateVector) -> StateVector:
        return tensor_many(
            system,
            self.apparatus.pointer_ready,
            self.env_record.pointer_ready,
            self.env_reset.pointer_ready,
        )

    def reset_unitary(self) -> np.ndarray:
        """Step 3 on apparatus x env_reset: |pointer_n>|ready> -> |ready>|record_n>."""
        src = [np.kron(p, self.env_reset.pointer_ready.amplitudes) for p in self.apparatus.pointers]
        dst = [np.kron(self.apparatus.pointer_ready.amplitudes, r) for r in self.env_reset.pointers]
        return _transport_unitary(src, dst)


def branch_and_recohere(
    initial: StateVector, model: BranchingModel
) -> tuple[StateVector, StateVector, StateVector]:
    """Run the three-step cycle; returns the state after each step.

    The third step recoheres the apparatus (it returns to the ready state
    with unit fidelity) while the branch records migrate into the
    environment registers.
    """
    full = model.joint_space()
    if initial.space != full:
        raise SpaceMismatchError("initial state lives off the model's joint space")
    basis = computational_basis(model.system_space)
    s1 = _controlled_shift(initial, basis, model.apparatus)
    s2 = _controlled_shift(s1, basis, model.env_record)
    reset = model.apparatus.space.concat(model.env_reset.space)
    s3 = StateVector(full, apply_local(s2.amplitudes, model.reset_unitary(), reset, full))
    return s1, s2, s3
