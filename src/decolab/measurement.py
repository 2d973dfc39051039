"""Unitary measurement models: pointer devices, record chains, recoherence.

A device register starts in a ready state and is driven by a controlled
shift: the unitary acts as |n> x V_n where V_n carries the ready state to
the n-th pointer state.  ``ApparatusModel`` holds a register as its ready
state and one n x d stack of pointer states, row n for outcome n.  Chains
tensor several such registers onto one system and activate them in index
order, the observer register last.  Everything here is globally unitary;
apparent irreversibility enters only through which registers are later
ignored.

The models measure the system in its computational basis |n>, and no step
is followed by a map on the system, so each state they produce is
sum_n a_n |n> (x)_j |x_j(n)>, a_n = <n|psi> the system's amplitudes.  Every
register a scenario builds has pointer states of one constant overlap c_j
(0 for ideal records, 1 while it is ready), so its system density is
(1 - gamma) diag(|a|^2) + gamma a a^dagger with gamma = prod_j c_j: the
closed form ``Decoherence`` that the register kinds of the CLI and the
ledgers run on, in O(n) work.  The dense reference for that route applies
the shifts to the joint state tensor: ``premeasure`` (which appends the
ready device to the bare system and takes any measured basis),
``chain_propagate`` and ``branch_and_recohere``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import SpaceMismatchError, ValidationError, VALIDITY_ATOL
from .hilbert import (
    StateVector,
    TensorSpace,
    _check_orthonormal_complete,
    _front_axes,
    apply_local,
    basis_state,
    computational_basis,
    tensor,
    tensor_many,
)


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


def check_register(n_outcomes: int, overlap: float, dim: int) -> None:
    """Refuse a register of width ``dim`` whose n_outcomes records cannot
    have the constant pairwise overlap ``overlap`` beside a ready state."""
    if dim < n_outcomes + 1:
        raise ValidationError(f"dimension {dim} too small for {n_outcomes} records plus ready state")
    # Two or more records with overlap 1 coincide: their Gram matrix is
    # singular and has no Cholesky factor.
    lower = -1.0 / max(1, n_outcomes - 1)
    if not (lower < overlap < 1.0 or (overlap == 1.0 and n_outcomes == 1)):
        raise ValidationError(
            f"overlap {overlap} outside the positive-definite range "
            f"(-1/(n-1), 1) for n = {n_outcomes} records"
        )


def record_states_with_overlap(n_outcomes: int, overlap: float, dim: int) -> np.ndarray:
    """Unit record vectors with constant pairwise inner product ``overlap``,
    the rows of an (n_outcomes, dim) stack.

    Built from the Cholesky factor of the Gram matrix, supported on basis
    indices 1..n so index 0 stays free for a ready state.
    """
    check_register(n_outcomes, overlap, dim)
    gram = np.full((n_outcomes, n_outcomes), float(overlap))
    np.fill_diagonal(gram, 1.0)
    out = np.zeros((n_outcomes, dim), dtype=np.complex128)
    out[:, 1 : 1 + n_outcomes] = np.linalg.cholesky(gram)
    return out


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
    """Controlled shift sum(|n><n| x V_n) on system x device, as a dense matrix.

    Runs apply the shift to a state one outcome slice at a time, without
    this matrix; it is the dense reference for that route.
    """
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




# ---- the closed form: what the register kinds run on ----

# The overlap of each register of the branch cycle across branches, in the
# order apparatus, env_record, env_reset, for the ready state and after each
# step of ``branch_and_recohere``: 1 while the register is ready in every
# branch, 0 once it holds an ideal record.
BRANCH_CYCLE = ((1.0, 1.0, 1.0), (0.0, 1.0, 1.0), (0.0, 0.0, 1.0), (1.0, 0.0, 0.0))


@dataclass(frozen=True, eq=False)
class Decoherence:
    """The system density of sum_n a_n |n> (x)_j |x_j(n)> in closed form.

    Every register the register kinds model, ``ApparatusModel.ideal`` or
    ``with_overlap`` on the dense routes, has the Gram matrix
    G_j = (1 - c_j) I + c_j J: c_j = 0 for ideal records, and c_j = 1 while
    the register is ready in every branch.  The system density is (a a^dagger) o prod_j G_j^T, and a
    Hadamard product of such matrices is another one, with c the product of
    the c's, so

        rho = (1 - gamma) diag(p) + gamma a a^dagger,  gamma = prod_j c_j,

    with p = |a|^2 and gamma the decoherence factor of Joos and Zeh (Z. Phys.
    B 59, 223 (1985)).  This keeps the sums of the n >= 2 amplitudes that
    rho's values need; each method takes one gamma or an array of them.
    """

    populations: np.ndarray  # p, the diagonal of rho for every gamma
    trace: float  # sum p
    square_sum: float  # sum p^2
    top_pair: float  # the product of the two largest |a_n|
    support: int  # the number of nonzero amplitudes

    @classmethod
    def from_amplitudes(cls, amplitudes) -> Decoherence:
        a = np.asarray(amplitudes).reshape(-1)
        mags = np.abs(a)
        p = (a * a.conj()).real
        top = np.partition(mags, mags.size - 2)[-2:]
        return cls(p, float(p.sum()), float(p @ p), float(top[0] * top[1]), int(np.count_nonzero(mags)))

    def off_diagonal_max(self, gamma):
        """The largest |rho_nm|, n != m: |gamma| times the two largest |a_n|."""
        return np.abs(gamma) * self.top_pair

    def purity(self, gamma):
        """tr rho^2 = sum p^2 + gamma^2 ((sum p)^2 - sum p^2)."""
        return self.square_sum + gamma * gamma * (self.trace * self.trace - self.square_sum)

    def linear_entropy(self, gamma):
        """tr rho - tr rho^2, clipped at 0 as ``entanglement.linear_entropy`` is."""
        return np.maximum(0.0, self.trace - self.purity(gamma))

    def check(self, gammas, first_step: int = 0) -> None:
        """Refuse a density that is not one, naming the first step at fault.

        The global state is pure, so its purity (tr rho)^2 = |psi|^4 must
        stay within 1e-10 of 1, which holds the trace within 5e-11 of 1.  As
        rho = diag(a) G diag(a)^dagger with G = (1 - gamma) I + gamma J,
        Sylvester's law of inertia makes rho positive semidefinite exactly
        when G is on the n' nonzero amplitudes: when 1 - gamma >= 0 and
        1 + (n' - 1) gamma >= 0.
        """
        purity = self.trace**2
        if not abs(purity - 1.0) <= 1e-10:
            raise ValidationError(f"global purity drifted to {purity!r}")
        g = np.asarray(gammas, dtype=np.float64).reshape(-1)
        bad = ~((1.0 - g >= 0.0) & (1.0 + (self.support - 1) * g >= 0.0))
        if bad.any():
            i = int(np.argmax(bad))
            raise ValidationError(
                f"system density not positive semidefinite at step {first_step + i}: "
                f"decoherence factor {float(g[i])!r} for {self.support} nonzero amplitudes"
            )
