"""Unitary measurement models: pointer devices, record chains, recoherence.

A device register starts in a ready state and is driven by a controlled
shift: the unitary acts as |n> x V_n where V_n carries the ready state to
the n-th pointer state.  Chains tensor several such registers onto one
system and activate them in order, the observer register last.  Everything
here is globally unitary; apparent irreversibility enters only through
which registers are later ignored.

Since every step is controlled on the measured basis, each state these
models produce is sum_n a_n |b_n> (x)_j |x_j(n)>.  ``BranchForm`` stores it
as n coefficients and one n x d_j stack of pointer vectors per register, and
``premeasure_form``, ``chain_forms`` and ``branch_forms`` build it step by
step; the register kinds of the CLI and the ledgers run on it.
``premeasure``, ``chain_propagate`` and ``branch_and_recohere`` apply the
shifts to the joint state tensor and are the dense reference for that route.
"""

from __future__ import annotations

import functools
import math
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
    partial_trace,
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


def record_states_with_overlap(n_outcomes: int, overlap: float, dim: int) -> list[np.ndarray]:
    """Unit record vectors with constant pairwise inner product ``overlap``.

    Built from the Cholesky factor of the Gram matrix, supported on basis
    indices 1..n so index 0 stays free for a ready state.
    """
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
    gram = np.full((n_outcomes, n_outcomes), float(overlap))
    np.fill_diagonal(gram, 1.0)
    chol = np.linalg.cholesky(gram)
    out = []
    for i in range(n_outcomes):
        vec = np.zeros(dim, dtype=np.complex128)
        vec[1 : 1 + n_outcomes] = chol[i, :]
        out.append(vec)
    return out


@dataclass(frozen=True, eq=False)
class ApparatusModel:
    """Single device register: ready state plus one pointer state per outcome."""

    space: TensorSpace
    pointer_ready: StateVector
    pointer_states: tuple[StateVector, ...]

    def __post_init__(self):
        if self.pointer_ready.space != self.space:
            raise SpaceMismatchError("ready state lives off the device space")
        if not self.pointer_ready.is_normalized():
            raise ValidationError("ready state is not normalized")
        for p in self.pointer_states:
            if p.space != self.space:
                raise SpaceMismatchError("pointer state lives off the device space")
            if not p.is_normalized():
                raise ValidationError("pointer state is not normalized")

    @functools.cached_property
    def overlap_matrix(self) -> np.ndarray:
        """<pointer_i|pointer_j> for every pair of pointer states."""
        n = len(self.pointer_states)
        ov = np.empty((n, n), dtype=np.complex128)
        for i, a in enumerate(self.pointer_states):
            for j, b in enumerate(self.pointer_states):
                ov[i, j] = a.inner(b)
        ov.setflags(write=False)
        return ov

    @property
    def n_outcomes(self) -> int:
        return len(self.pointer_states)

    @classmethod
    def ideal(cls, label: str, n_outcomes: int, dim: int | None = None) -> ApparatusModel:
        """Orthonormal pointer states on basis indices 1..n, ready at 0."""
        d = dim if dim is not None else n_outcomes + 1
        space = TensorSpace(((label, d),))
        if d < n_outcomes + 1:
            raise ValidationError(f"dimension {d} too small for {n_outcomes} pointers plus ready state")
        return cls(
            space=space,
            pointer_ready=basis_state(space, 0),
            pointer_states=tuple(basis_state(space, i + 1) for i in range(n_outcomes)),
        )

    @classmethod
    def with_overlap(
        cls, label: str, n_outcomes: int, overlap: float, dim: int | None = None
    ) -> ApparatusModel:
        """Pointer states with constant pairwise overlap; 0 recovers ``ideal``."""
        d = dim if dim is not None else n_outcomes + 1
        space = TensorSpace(((label, d),))
        recs = record_states_with_overlap(n_outcomes, overlap, d)
        return cls(
            space=space,
            pointer_ready=basis_state(space, 0),
            pointer_states=tuple(StateVector(space, r) for r in recs),
        )

    def shift_unitaries(self) -> list[np.ndarray]:
        """One unitary per outcome, carrying the ready state to that pointer:
        the pointer's completed basis times the adjoint of the ready state's."""
        ready = _complete_orthonormal([self.pointer_ready.amplitudes]).conj().T
        return [_complete_orthonormal([p.amplitudes]) @ ready for p in self.pointer_states]


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


def _device_ready_weight(joint: StateVector, app: ApparatusModel) -> float:
    rho_dev = partial_trace(joint, list(app.space.labels))
    r = app.pointer_ready.amplitudes
    return float(np.vdot(r, rho_dev.matrix @ r).real)


def premeasure(
    system: StateVector,
    app: ApparatusModel,
    basis: Sequence[StateVector],
    post_maps: Sequence[np.ndarray] | None = None,
) -> StateVector:
    """Entangle a device with the system without selecting an outcome.

    ``system`` may be the bare system state (the ready device is appended)
    or a joint state already containing the device register, which must
    then actually hold the ready state.  Eigenstates of the measured basis
    come out as product states with the matching pointer; superpositions
    come out entangled, component by component.

    ``post_maps`` optionally applies a unitary to the system conditioned on
    each pointer outcome (a disturbing measurement).  This requires
    orthogonal pointer states.
    """
    if app.space.labels[0] in system.space.labels:
        joint = system
        if _device_ready_weight(joint, app) < 1.0 - VALIDITY_ATOL:
            raise ValidationError("apparatus is not in its ready state")
    else:
        joint = tensor(system, app.pointer_ready)
    out = _controlled_shift(joint, basis, app)
    if post_maps is not None:
        out = _apply_post_maps(out, app, basis, post_maps)
    return out


def _apply_post_maps(joint, app, basis, post_maps):
    if len(post_maps) != app.n_outcomes:
        raise ValidationError("one post map per outcome required")
    ident = np.eye(app.space.total_dim, dtype=np.complex128)
    pointer_gram = np.abs(app.overlap_matrix - np.eye(app.n_outcomes)).max()
    if pointer_gram > VALIDITY_ATOL:
        raise ValidationError("post maps require orthogonal pointer states")
    sys_space = basis[0].space
    ds = sys_space.total_dim
    u = np.zeros((ds * app.space.total_dim,) * 2, dtype=np.complex128)
    rest = ident.copy()
    for w, pointer in zip(post_maps, app.pointer_states):
        w = np.asarray(w, dtype=np.complex128)
        if np.abs(w.conj().T @ w - np.eye(ds)).max() > VALIDITY_ATOL:
            raise ValidationError("post map is not unitary")
        pp = np.outer(pointer.amplitudes, pointer.amplitudes.conj())
        u += np.kron(w, pp)
        rest -= pp
    u += np.kron(np.eye(ds), rest)
    local = sys_space.concat(app.space)
    return StateVector(joint.space, apply_local(joint.amplitudes, u, local, joint.space))


@dataclass(frozen=True, eq=False)
class ChainSpec:
    """System basis, a row of record registers, and a final observer register."""

    system_basis: tuple[StateVector, ...]
    links: tuple[ApparatusModel, ...]
    observer: ApparatusModel
    activation_order: tuple[int, ...] | None = None

    def __post_init__(self):
        order = self.activation_order
        if order is None:
            order = tuple(range(len(self.links)))
        order = tuple(int(i) for i in order)
        if sorted(order) != list(range(len(self.links))):
            raise ValidationError(
                f"activation order {order} must visit each link exactly once"
            )
        object.__setattr__(self, "activation_order", order)
        n = len(self.system_basis)
        for link in self.links + (self.observer,):
            if link.n_outcomes != n:
                raise ValidationError("every register needs one pointer state per outcome")
        labels = [l.space.labels[0] for l in self.links] + [self.observer.space.labels[0]]
        if len(set(labels)) != len(labels):
            raise ValidationError(f"label collision among registers: {labels}")

    @property
    def system_space(self) -> TensorSpace:
        return self.system_basis[0].space

    def joint_space(self) -> TensorSpace:
        space = self.system_space
        for link in self.links:
            space = space.concat(link.space)
        return space.concat(self.observer.space)

    @classmethod
    def from_scenario(cls, doc: dict) -> ChainSpec:
        """Build from a plain dict: system_dim, links (dim/overlap), observer, order."""
        n = int(doc["system_dim"])
        sys_space = TensorSpace((("system", n),))
        basis = computational_basis(sys_space)
        links = []
        for i, link_doc in enumerate(doc.get("links", [])):
            dim = int(link_doc.get("dim", n + 1))
            g = float(link_doc.get("overlap", 0.0))
            links.append(ApparatusModel.with_overlap(f"link{i}", n, g, dim=dim))
        obs_doc = doc.get("observer", {})
        observer = ApparatusModel.ideal(
            "observer", n, dim=int(obs_doc.get("dim", n + 1))
        )
        order = doc.get("order")
        return cls(
            system_basis=basis,
            links=tuple(links),
            observer=observer,
            activation_order=tuple(order) if order is not None else None,
        )


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
    registers = [spec.links[idx] for idx in spec.activation_order] + [spec.observer]
    for app in registers:
        states.append(_controlled_shift(states[-1], spec.system_basis, app))
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

    system_basis: tuple[StateVector, ...]
    apparatus: ApparatusModel
    env_decohere: ApparatusModel
    env_reset: ApparatusModel

    def __post_init__(self):
        n = len(self.system_basis)
        for reg in (self.apparatus, self.env_decohere, self.env_reset):
            if reg.n_outcomes != n:
                raise ValidationError("every register needs one pointer state per outcome")

    @classmethod
    def ideal(cls, amplitude_count: int, env_dim: int | None = None) -> BranchingModel:
        n = amplitude_count
        d_env = env_dim if env_dim is not None else n + 1
        if d_env < n + 1:
            raise ValidationError(
                f"env_dim {d_env} too small: need {n} records plus a ready state"
            )
        sys_space = TensorSpace((("system", n),))
        return cls(
            system_basis=computational_basis(sys_space),
            apparatus=ApparatusModel.ideal("apparatus", n),
            env_decohere=ApparatusModel.ideal("env_record", n, dim=d_env),
            env_reset=ApparatusModel.ideal("env_reset", n, dim=d_env),
        )

    def joint_space(self) -> TensorSpace:
        return (
            self.system_basis[0]
            .space.concat(self.apparatus.space)
            .concat(self.env_decohere.space)
            .concat(self.env_reset.space)
        )

    def ready_joint(self, system: StateVector) -> StateVector:
        return tensor_many(
            system,
            self.apparatus.pointer_ready,
            self.env_decohere.pointer_ready,
            self.env_reset.pointer_ready,
        )

    def reset_unitary(self) -> np.ndarray:
        """Step 3 on apparatus x env_reset: |pointer_n>|ready> -> |ready>|record_n>."""
        src = [
            np.kron(p.amplitudes, self.env_reset.pointer_ready.amplitudes)
            for p in self.apparatus.pointer_states
        ]
        dst = [
            np.kron(self.apparatus.pointer_ready.amplitudes, r.amplitudes)
            for r in self.env_reset.pointer_states
        ]
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
    s1 = _controlled_shift(initial, model.system_basis, model.apparatus)
    s2 = _controlled_shift(s1, model.system_basis, model.env_decohere)
    reset = model.apparatus.space.concat(model.env_reset.space)
    s3 = StateVector(full, apply_local(s2.amplitudes, model.reset_unitary(), reset, full))
    return s1, s2, s3


# ---- the branch form: what the register kinds run on ----


def _gram_factor(gram: np.ndarray) -> np.ndarray:
    """L (n x r) with L L^dagger = ``gram``, a positive semidefinite n x n matrix.

    Cholesky with diagonal pivoting: each pivot column is divided out and its
    row and column of the residual are set to zero, and the loop stops once no
    residual diagonal entry exceeds n eps times the largest diagonal entry
    (Higham, "Accuracy and Stability of Numerical Algorithms", ch. 10.3).  The
    identity and all-ones Gram matrices of ideal and ready registers leave an
    exactly zero residual, so their factors come out with entries 0 and 1 and
    with exact rank n and 1, where an eigendecomposition would leave round-off
    eigenvalues.
    """
    res = np.array(gram, dtype=np.complex128)
    n = res.shape[0]
    diag = res.diagonal().real  # a view: it follows the residual
    tol = n * np.finfo(np.float64).eps * diag.max(initial=0.0)
    cols = []
    while len(cols) < n:
        p = int(diag.argmax())
        if diag[p] <= tol:
            break
        col = res[:, p] / math.sqrt(diag[p])
        res -= col[:, None] * col.conj()
        res[p, :] = 0.0
        res[:, p] = 0.0
        cols.append(col)
    return np.column_stack(cols) if cols else np.zeros((n, 0), dtype=np.complex128)


@dataclass(frozen=True, eq=False)
class BranchForm:
    """The state sum_n a_n |b_n> (x)_j |x_j(n)>, stored as its branches.

    Every register step is controlled on the system's measured basis b, so
    each state the chain, branch and premeasurement models produce has this
    form.  It keeps the n coefficients a_n = <b_n|psi> and, per register j,
    the n x d_j stack whose row n is x_j(n): n + sum_j n d_j values where the
    joint state has n prod_j d_j amplitudes.  Everything the register kinds
    report comes from the n x n Gram matrices G_j[n, m] = <x_j(n)|x_j(m)>.
    """

    coefficients: np.ndarray
    stacks: tuple[np.ndarray, ...]

    def __post_init__(self):
        n = self.coefficients.shape[0]
        for x in self.stacks:
            if x.ndim != 2 or x.shape[0] != n:
                raise SpaceMismatchError(f"a stack of shape {x.shape} for {n} coefficients")

    def grams(self) -> list[np.ndarray]:
        """G_j[n, m] = <x_j(n)|x_j(m)> for each register j, in order."""
        return [x.conj() @ x.T for x in self.stacks]

    def system_density(self) -> np.ndarray:
        """(a a^dagger) o prod_j G_j^T: the system density in the measured
        basis, rho_nm prod_j <x_j(m)|x_j(n)>, the decoherence factor of Joos
        and Zeh (Z. Phys. B 59, 223 (1985)).  Its trace is |psi|^2."""
        a = self.coefficients
        m = np.outer(a, a.conj())
        for g in self.grams():
            m *= g.T
        return m

    def schmidt_values(self, k: int | None = None) -> np.ndarray:
        """The Schmidt coefficients of register k (of the system for None)
        against the rest of the state, from n x n matrices.

        Register k's density is X_k^T Q X_k^* with Q = (a a^dagger) o
        prod_{j != k} G_j^T, the product running over the system too, whose
        Gram matrix is the identity.  So Q = diag(w)^2 with w_n = |a_n|
        prod_{j != k} G_j[n, n]^(1/2), and its nonzero spectrum is that of
        diag(w) G_k diag(w): the squared singular values of H^dagger diag(w)
        for G_k = H H^dagger.  The system's density is (a a^dagger) o C with
        C = prod_j G_j^T = L L^dagger, that is F F^dagger for F = diag(a) L.
        H and L come from _gram_factor and the rank-one a a^dagger is never
        factored, so ideal and ready registers give the exact rank.
        """
        grams = self.grams()
        a = self.coefficients
        if k is None:
            c = np.ones((a.size, a.size), dtype=np.complex128)
            for g in grams:
                c *= g.T
            return np.linalg.svd(a[:, None] * _gram_factor(c), compute_uv=False)
        w = np.abs(a)
        for j, g in enumerate(grams):
            if j != k:
                w = w * np.sqrt(g.diagonal().real)
        return np.linalg.svd(_gram_factor(grams[k]).conj().T * w, compute_uv=False)

    def joint_amplitudes(self) -> np.ndarray:
        """The n prod_j d_j amplitudes of the joint state, flattened with the
        system axis (in the measured basis) first and the registers after it
        in order; a sum of zero terms is stored as +0.0."""
        out = self.coefficients[:, None]
        for x in self.stacks:
            out = (out[:, :, None] * x[:, None, :]).reshape(out.shape[0], -1)
        return out.reshape(-1) + 0.0


def _coefficients(system: StateVector, basis: Sequence[StateVector]) -> np.ndarray:
    """<b_n|system> over the measured basis, which must be orthonormal and
    complete on the system's space."""
    basis = tuple(basis)
    if system.space != basis[0].space:
        raise SpaceMismatchError("system state lives off the measured basis's space")
    _check_orthonormal_complete(basis, system.space)
    return np.column_stack([b.amplitudes for b in basis]).conj().T @ system.amplitudes


def _ready_rows(app: ApparatusModel, n: int) -> np.ndarray:
    """The stack of a register that still holds its ready state in every branch."""
    return np.repeat(app.pointer_ready.amplitudes[None, :], n, axis=0)


def _pointer_rows(app: ApparatusModel, n: int) -> np.ndarray:
    """The stack of a register after its step: pointer state n in branch n."""
    if app.n_outcomes != n:
        raise ValidationError(f"{n} outcomes but {app.n_outcomes} pointer states")
    return np.stack([p.amplitudes for p in app.pointer_states])


def premeasure_form(
    system: StateVector, app: ApparatusModel, basis: Sequence[StateVector]
) -> tuple[BranchForm, BranchForm]:
    """The ready state and the state after ``premeasure(system, app, basis)``
    (no post maps), as branch forms."""
    a = _coefficients(system, basis)
    return BranchForm(a, (_ready_rows(app, a.size),)), BranchForm(a, (_pointer_rows(app, a.size),))


def chain_forms(spec: ChainSpec, initial_system: StateVector) -> list[BranchForm]:
    """``chain_propagate`` as branch forms: the state before any step and
    after every step, with one stack per link and the observer's last.  A
    link's stack goes from its ready state to its pointer states when the
    activation order reaches it."""
    a = _coefficients(initial_system, spec.system_basis)
    registers = spec.links + (spec.observer,)
    stacks = [_ready_rows(app, a.size) for app in registers]
    forms = [BranchForm(a, tuple(stacks))]
    for k in spec.activation_order + (len(spec.links),):
        stacks[k] = _pointer_rows(registers[k], a.size)
        forms.append(BranchForm(a, tuple(stacks)))
    return forms


def branch_forms(model: BranchingModel, system: StateVector) -> list[BranchForm]:
    """``branch_and_recohere`` on ``model.ready_joint(system)`` as branch
    forms: the ready state and the state after each of the three steps, with
    the apparatus, env_record and env_reset stacks in that order.

    The reset takes |pointer_n>|ready> to |ready>|record_n> in every branch.
    It extends to a unitary only if it preserves inner products, that is if
    the apparatus pointers and the env_reset records have the same Gram
    matrix; a difference over VALIDITY_ATOL is refused.
    """
    a = _coefficients(system, model.system_basis)
    registers = (model.apparatus, model.env_decohere, model.env_reset)
    ready = [_ready_rows(reg, a.size) for reg in registers]
    app, record, reset = (_pointer_rows(reg, a.size) for reg in registers)
    dev = np.abs(app.conj() @ app.T - reset.conj() @ reset.T).max()
    if dev > VALIDITY_ATOL:
        raise ValidationError(
            f"reset is not an isometry: apparatus pointer and env_reset record "
            f"Gram matrices differ by {dev:.3e}"
        )
    stacks = (tuple(ready), (app, ready[1], ready[2]), (app, record, ready[2]), (ready[0], record, reset))
    return [BranchForm(a, s) for s in stacks]
