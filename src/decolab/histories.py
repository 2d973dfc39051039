"""Coarse-grained descriptions: sector decoherence, rate equations,
time-ordered history probabilities, and deviant-branch weights.

Every history output is read off the class operators
C = P_k(t_k) ... P_1(t_1), built from Heisenberg-picture projectors: the
two-sided probability trace(C rho C^dagger), the single-sided trace
trace(C rho) that it reduces to for exactly consistent sets, and the
decoherence functional D(a, b) = trace(C_a rho C_b^dagger) whose off-diagonal
real parts give the consistency defect.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dynamics import Hamiltonian, _check_projector, propagator
from .errors import SpaceMismatchError, ValidationError, VALIDITY_ATOL
from .hilbert import DensityOperator, StateVector, TensorSpace


@dataclass(frozen=True, eq=False)
class ProjectorSet:
    """Exhaustive family of mutually orthogonal projectors."""

    space: TensorSpace
    projectors: tuple[np.ndarray, ...]

    def __post_init__(self):
        d = self.space.total_dim
        mats = []
        for p in self.projectors:
            p = _check_projector(p, d)
            p.setflags(write=False)
            mats.append(p)
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                if np.abs(mats[i] @ mats[j]).max() > VALIDITY_ATOL:
                    raise ValidationError(f"projectors {i} and {j} are not orthogonal")
        total = sum(mats)
        if np.abs(total - np.eye(d)).max() > VALIDITY_ATOL:
            raise ValidationError("projectors do not resolve the identity")
        object.__setattr__(self, "projectors", tuple(mats))

    def __len__(self) -> int:
        return len(self.projectors)

    def __getitem__(self, i: int) -> np.ndarray:
        return self.projectors[i]

    @classmethod
    def from_basis(cls, basis: Sequence[StateVector]) -> ProjectorSet:
        space = basis[0].space
        return cls(space, tuple(np.outer(b.amplitudes, b.amplitudes.conj()) for b in basis))

    @classmethod
    def from_index_blocks(cls, space: TensorSpace, blocks) -> ProjectorSet:
        d = space.total_dim
        mats = []
        for block in blocks:
            p = np.zeros((d, d), dtype=np.complex128)
            for i in block:
                p[int(i), int(i)] = 1.0
            mats.append(p)
        return cls(space, tuple(mats))


def decohere_projectors(rho: DensityOperator, pset: ProjectorSet) -> DensityOperator:
    """Keep each sector, drop all cross terms: sum of P rho P."""
    if rho.space != pset.space:
        raise SpaceMismatchError("state and projectors live on different spaces")
    out = np.zeros_like(rho.matrix)
    for p in pset.projectors:
        out = out + p @ rho.matrix @ p
    return DensityOperator(rho.space, out)


@dataclass(frozen=True, eq=False)
class RateMatrix:
    """Nonnegative transition rates with zero diagonal, in 1/time."""

    matrix: np.ndarray

    def __post_init__(self):
        a = np.array(self.matrix, dtype=np.float64, copy=True)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValidationError(f"rate matrix must be square, got {a.shape}")
        if a.min() < 0.0:
            raise ValidationError(f"negative rate {a.min()}")
        if np.abs(np.diag(a)).max() > 0.0:
            raise ValidationError("rate matrix diagonal must be zero")
        a.setflags(write=False)
        object.__setattr__(self, "matrix", a)

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def generator(self) -> np.ndarray:
        """Linear generator of dp_n/dt = sum_m A_nm (p_m - p_n)."""
        return self.matrix - np.diag(self.matrix.sum(axis=1))


def pauli_master_evolve(p0, rates: RateMatrix, t: float) -> np.ndarray:
    """Propagate occupation probabilities by the exact matrix exponential.

    The gain/loss form conserves total probability only when each index
    has equal row and column rate sums; anything else is rejected because
    the result would leave the simplex.  Negative times are rejected: the
    equation is not time-reversal invariant.
    """
    p = np.asarray(p0, dtype=np.float64).reshape(-1)
    if p.size != rates.size:
        raise SpaceMismatchError(f"{p.size} probabilities for {rates.size} states")
    if p.min() < -1e-12 or abs(p.sum() - 1.0) > VALIDITY_ATOL:
        raise ValidationError("initial occupations are not a probability distribution")
    if t < 0.0:
        raise ValidationError("negative time rejected for the rate equation")
    a = rates.matrix
    imbalance = np.abs(a.sum(axis=0) - a.sum(axis=1)).max()
    if imbalance > 1e-12:
        raise ValidationError(
            "rate matrix row and column sums differ; the gain/loss form "
            f"would not conserve probability (imbalance {imbalance:.3e})"
        )
    # Imported here: scipy.linalg is about half the import time of the
    # package, and only the master kind needs it.
    from scipy.linalg import expm

    return expm(rates.generator() * float(t)) @ p


@dataclass(frozen=True, eq=False)
class HistorySpec:
    """Initial state, Hamiltonian, and one projector family per time slice."""

    hamiltonian: Hamiltonian
    initial_state: DensityOperator
    times: tuple[float, ...]
    projector_sets: tuple[ProjectorSet, ...]
    t0: float = 0.0

    def __post_init__(self):
        times = tuple(float(t) for t in self.times)
        if len(times) != len(self.projector_sets):
            raise ValidationError("one projector family per time slice required")
        if not times:
            raise ValidationError("at least one time slice required")
        prev = float(self.t0)
        for t in times:
            if t <= prev:
                raise ValidationError(f"slice times must increase strictly after t0, got {times}")
            prev = t
        space = self.initial_state.space
        if self.hamiltonian.space != space:
            raise SpaceMismatchError("Hamiltonian lives off the state space")
        for pset in self.projector_sets:
            if pset.space != space:
                raise SpaceMismatchError("projector family lives off the state space")
        object.__setattr__(self, "times", times)

    def outcome_counts(self) -> tuple[int, ...]:
        return tuple(len(p) for p in self.projector_sets)

    @functools.cached_property
    def heisenberg_families(self) -> tuple[tuple[np.ndarray, ...], ...]:
        """Per slice, each projector P in the Heisenberg picture, u^dagger P u."""
        out = []
        for t, pset in zip(self.times, self.projector_sets):
            u = propagator(self.hamiltonian, t - self.t0)
            out.append(tuple(u.conj().T @ p @ u for p in pset.projectors))
        return tuple(out)

    @functools.cached_property
    def class_operators(self) -> np.ndarray:
        """The class operator of every history, stacked in enumeration order."""
        d = self.initial_state.space.total_dim
        out = np.empty((math.prod(self.outcome_counts()), d, d), dtype=np.complex128)
        for a, history in enumerate(enumerate_histories(self)):
            out[a] = _class_operator(self, history)
        out.setflags(write=False)
        return out


def _class_operator(spec: HistorySpec, history: Sequence[int]) -> np.ndarray:
    """C = P_k(t_k) ... P_1(t_1) for one outcome sequence."""
    chain = None
    for family, n in zip(spec.heisenberg_families, history):
        ph = family[n]
        chain = ph if chain is None else ph @ chain
    return chain


def _history_index(spec: HistorySpec, history: Sequence[int]) -> int:
    """Position of one outcome sequence in enumeration order."""
    counts = spec.outcome_counts()
    if len(history) != len(counts):
        raise ValidationError(f"history length {len(history)} for {len(counts)} slices")
    index = 0
    for i, n in enumerate(history):
        n = int(n)
        if not 0 <= n < counts[i]:
            raise ValidationError(f"outcome {n} out of range at slice {i}")
        index = index * counts[i] + n
    return index


def history_probability(spec: HistorySpec, history: Sequence[int]) -> float:
    """Two-sided projected probability of one outcome sequence."""
    chain = spec.class_operators[_history_index(spec, history)]
    return float(np.trace(chain @ spec.initial_state.matrix @ chain.conj().T).real)


def history_trace_single_sided(spec: HistorySpec, history: Sequence[int]) -> complex:
    """Raw trace(P_k ... P_1 rho); complex unless the family decoheres."""
    chain = spec.class_operators[_history_index(spec, history)]
    return complex(np.trace(chain @ spec.initial_state.matrix))


def enumerate_histories(spec: HistorySpec):
    """All outcome tuples in lexicographic order."""
    return itertools.product(*(range(n) for n in spec.outcome_counts()))


def decoherence_functional(spec: HistorySpec) -> np.ndarray:
    """D(a, b) = trace(C_a rho C_b^dagger) over histories in enumeration order.

    The diagonal holds the history probabilities and row a sums to the
    single-sided trace of history a; D is Hermitian.
    """
    c = spec.class_operators
    return np.einsum("aij,bij->ab", c @ spec.initial_state.matrix, c.conj())


# Subset sums are formed for this many (context, subset, outcome) entries at
# a time, so memory stays near one slice's subset masks.
_SUBSET_BATCH = 1 << 20


def consistency_defect(spec: HistorySpec) -> float:
    """Worst additivity failure over coarse-grainings.

    For every slice, every union S of two or more outcomes there, and every
    assignment of outcomes to the other slices, the probability of the
    union differs from the sum over its members by exactly the sum of
    Re D(a, b) over ordered pairs a != b in S.  Zero certifies that the
    family's probabilities obey the classical sum rule.
    """
    counts = spec.outcome_counts()
    re_d = decoherence_functional(spec).real
    index = np.arange(re_d.shape[0]).reshape(counts)
    worst = 0.0
    for i, n in enumerate(counts):
        # rows[c] lists the histories that agree off slice i in context c.
        rows = np.moveaxis(index, i, -1).reshape(-1, n)
        blocks = re_d[rows[:, :, None], rows[:, None, :]]
        blocks[:, np.arange(n), np.arange(n)] = 0.0
        masks = ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1).astype(np.float64)
        step = max(1, _SUBSET_BATCH // masks.size)
        for lo in range(0, len(blocks), step):
            excess = np.einsum("csa,sa->cs", masks @ blocks[lo : lo + step], masks)
            worst = max(worst, float(np.abs(excess).max()))
    return worst


_MULTINOMIAL_TERM_CAP = 2_000_000
_EXACT_N_CAP = 1000


def _multinomial_terms(n: int, m: int) -> int:
    """C(n + m - 1, m - 1), the compositions of n trials into m outcome
    counts; refused above the enumeration cap."""
    terms = math.comb(n + m - 1, m - 1)
    if terms > _MULTINOMIAL_TERM_CAP:
        raise ValidationError(
            f"{m} outcomes over {n} trials give {terms} multinomial terms, "
            f"over the cap of {_MULTINOMIAL_TERM_CAP}"
        )
    return terms


def _binomial_deviant_weight(p1: float, n: int, epsilon: float) -> float:
    ks = np.arange(n + 1)
    deviant = np.abs(ks / n - p1) >= epsilon
    if not deviant.any():
        return 0.0
    if p1 == 0.0 or p1 == 1.0:
        certain = int(round(n * p1))
        return float(abs(certain / n - p1) >= epsilon)
    if n <= _EXACT_N_CAP:
        total = 0.0
        for k in ks[deviant]:
            total += math.comb(n, int(k)) * p1 ** int(k) * (1.0 - p1) ** int(n - k)
        return float(total)
    logs = (
        math.lgamma(n + 1)
        - np.array([math.lgamma(k + 1) + math.lgamma(n - k + 1) for k in ks[deviant]])
        + ks[deviant] * math.log(p1)
        + (n - ks[deviant]) * math.log1p(-p1)
    )
    peak = logs.max()
    return float(math.exp(peak) * np.exp(logs - peak).sum())


def graham_deviant_norm(born_p, n_trials: int, epsilon: float) -> float:
    """Total weight of branches with deviant relative frequencies.

    A length-``n_trials`` outcome sequence is deviant when any outcome's
    relative frequency differs from its squared amplitude by ``epsilon``
    or more.  The weight of a branch is the multinomial coefficient times
    the product of squared amplitudes, so the result equals the exact
    binomial (or multinomial) tail probability.  It vanishes as n_trials
    grows: branches that would contradict the squared-amplitude statistics
    carry no weight in the limit.
    """
    p = np.asarray(born_p, dtype=np.float64).reshape(-1)
    if p.size < 2:
        raise ValidationError("need at least two outcomes")
    if p.min() < -1e-12 or abs(p.sum() - 1.0) > 1e-10:
        raise ValidationError("born_p is not a probability distribution")
    n = int(n_trials)
    if n < 1:
        raise ValidationError("n_trials must be at least 1")
    eps = float(epsilon)
    if eps <= 0.0:
        raise ValidationError("epsilon must be positive")
    if eps > 1.0:
        return 0.0
    p = np.clip(p, 0.0, 1.0)
    if p.size == 2:
        return _binomial_deviant_weight(float(p[0]), n, eps)
    m = p.size
    _multinomial_terms(n, m)
    log_p = np.where(p > 0.0, np.log(np.where(p > 0.0, p, 1.0)), 0.0)
    lgamma = np.array([math.lgamma(k + 1) for k in range(n + 1)])
    # Each term keeps the rounding of a sum over one composition at a time:
    # log n!/prod c! adds the lgamma values left to right from 0, each row
    # product sums on its own, and the terms accumulate in lexicographic
    # order.  graham.csv stays reproducible to the last bit.
    total = 0.0
    for prefix, parts in _composition_blocks(n, m):
        counts = _compositions(n, m, parts, prefix)
        deviant = np.abs(counts / n - p).max(axis=1) >= eps
        possible = ~((counts > 0) & (p == 0.0)).any(axis=1)
        counts = counts[deviant & possible]
        # lgamma(1) = lgamma(2) = 0, so a part that stays below 2 throughout
        # the block adds exact zeros: its column is skipped.
        below = n - sum(prefix) - parts[0]  # bounds every part after the head
        tops = (*prefix, parts[-1]) + (below,) * (m - len(prefix) - 1)
        log_multinomial = np.zeros(len(counts))
        for j, top in enumerate(tops):
            if top > 1:
                log_multinomial += lgamma[counts[:, j]]
        log_w = lgamma[n] - log_multinomial + (counts * log_p).sum(axis=1)
        for x in log_w.tolist():
            total += math.exp(x)
    return total


# Compositions are enumerated and weighed in blocks of about this many
# entries.  A block's arrays take a few hundred KiB; the whole enumeration at
# m = 3, n = 300 would take about 3.5 MB at once and raise the peak RSS of a
# run by as much.
_COMPOSITION_BLOCK = 1 << 13


def _composition_blocks(n: int, m: int):
    """(prefix, parts) pairs that cut the compositions of n into m parts into
    blocks of about _COMPOSITION_BLOCK entries, in lexicographic order.

    A block holds the compositions that start with the parts ``prefix`` and
    then a part in the range ``parts``.  A part whose compositions alone
    exceed the block is split on the part after it, down to single rows, so
    no block holds more than max(_COMPOSITION_BLOCK, m) entries.
    """
    # A depth-first walk over prefixes.  frames[d] is (what the prefix of
    # length d leaves to place, the next part to take), so a popped frame's
    # prefix is prefix[:len(frames)].
    prefix: list[int] = []
    frames = [(n, 0)]
    while frames:
        left, start = frames.pop()
        del prefix[len(frames) :]
        free = m - len(prefix)  # parts still to place, the next one included
        entries = 0
        for part in range(start, left + 1):
            size = m * math.comb(left - part + free - 2, free - 2)
            if size > _COMPOSITION_BLOCK and free > 2:
                if entries:
                    yield tuple(prefix), range(start, part)
                frames += [(left, part + 1), (left - part, 0)]
                prefix.append(part)
                break
            if entries and entries + size > _COMPOSITION_BLOCK:
                yield tuple(prefix), range(start, part)
                start, entries = part, 0
            entries += size
        else:
            if entries:
                yield tuple(prefix), range(start, left + 1)


def _compositions(n: int, m: int, parts: range, prefix: tuple = ()) -> np.ndarray:
    """Every composition of n into m nonnegative parts that starts with the
    parts ``prefix`` and then a part in ``parts``, one per row, in
    lexicographic order; at least two parts follow the prefix.

    The parts are placed one at a time: a row that leaves r to place splits
    into r + 1 rows whose next part is 0, 1, ..., r.  Once no row leaves
    anything to place, every later part is 0.
    """
    head = np.asarray(parts, dtype=np.int64)
    comp = head[:, None]
    rest = n - sum(prefix) - head
    for _ in range(m - len(prefix) - 2):
        if not rest.any():
            break
        width = rest + 1
        part = np.arange(width.sum()) - np.repeat(np.cumsum(width) - width, width)
        comp = np.column_stack((np.repeat(comp, width, axis=0), part))
        rest = np.repeat(rest, width) - part
    out = np.zeros((rest.size, m), dtype=np.int64)
    out[:, : len(prefix)] = prefix
    out[:, len(prefix) : len(prefix) + comp.shape[1]] = comp
    out[:, -1] = rest
    return out
