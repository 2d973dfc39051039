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

import bisect
import functools
import itertools
import math
import operator
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
    """Propagate occupation probabilities by the exact matrix exponential:
    row 0 of ``pauli_master_table(p0, rates, [t])``."""
    return pauli_master_table(p0, rates, [t])[0]


def pauli_master_table(p0, rates: RateMatrix, times) -> np.ndarray:
    """Occupations exp(G t) p0 at each of ``times``, one row per time.

    The gain/loss form conserves total probability only when each index
    has equal row and column rate sums; anything else is rejected because
    the result would leave the simplex.  Negative times are rejected: the
    equation is not time-reversal invariant.  The exponentials are taken a
    block of at most max(1, _MASTER_BLOCK // n^2) times at once, and a
    row's bits depend only on (G, t, p0), not on the other times.
    """
    p = np.asarray(p0, dtype=np.float64).reshape(-1)
    if p.size != rates.size:
        raise SpaceMismatchError(f"{p.size} probabilities for {rates.size} states")
    if p.min() < -1e-12 or abs(p.sum() - 1.0) > VALIDITY_ATOL:
        raise ValidationError("initial occupations are not a probability distribution")
    t = np.asarray(times, dtype=np.float64).reshape(-1)
    if t.size and t.min() < 0.0:
        raise ValidationError("negative time rejected for the rate equation")
    a = rates.matrix
    imbalance = np.abs(a.sum(axis=0) - a.sum(axis=1)).max()
    if imbalance > 1e-12:
        raise ValidationError(
            "rate matrix row and column sums differ; the gain/loss form "
            f"would not conserve probability (imbalance {imbalance:.3e})"
        )
    g = rates.generator()
    table = np.empty((t.size, p.size))
    step = max(1, _MASTER_BLOCK // g.size)
    for lo in range(0, t.size, step):
        table[lo : lo + step] = _expm_stack(g * t[lo : lo + step, None, None]) @ p
    return table


# Values of the (k, n, n) stack pauli_master_table hands _expm_stack at once.
_MASTER_BLOCK = 1 << 16

# Padé 13 of exp (Higham, "The scaling and squaring method for the matrix
# exponential revisited", SIAM J. Matrix Anal. Appl. 26, 2005): the
# coefficients of p_13(x) = sum_j b_j x^j over b_0, with q_13(x) = p_13(-x),
# and the largest 1-norm theta_13 at which r_13 = p_13 / q_13 meets exp to
# double precision.  With b_0 scaled to 1, q_13(0) = I and exp(0) = I exactly.
_PADE13 = tuple(
    b / 64764752532480000.0
    for b in (
        64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
        1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
        33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
    )
)
_THETA13 = 5.371920351148152


def _expm_stack(a: np.ndarray) -> np.ndarray:
    """exp of each slice of a real (k, n, n) stack, by Padé 13 with scaling
    and squaring.  Each slice is scaled by its own 2^-s, s the least with
    ||a / 2^s||_1 <= theta_13, and squared s times; every step works slice by
    slice, so a slice's bits do not depend on the rest of the stack.  Each
    stack is dropped as soon as it is used: cli.MASTER_ENTRY_BYTES is fitted
    to the peak this leaves."""
    norms = np.abs(a).sum(axis=1).max(axis=1, initial=0.0)
    s = np.zeros(len(a), dtype=np.int64)
    over = norms > _THETA13
    s[over] = np.ceil(np.log2(norms[over] / _THETA13))
    a = np.ldexp(a, -s[:, None, None])
    a2 = a @ a
    a4 = a2 @ a2
    a6 = a2 @ a4
    u, v = (_pade_half(a2, a4, a6, j) for j in (1, 0))
    del a2, a4, a6
    u = a @ u
    del a
    q = v - u
    v += u
    del u
    e = np.linalg.solve(q, v)
    del q, v
    for j in range(int(s.max(initial=0))):
        rows = np.flatnonzero(s > j)
        m = e[rows]
        e[rows] = m @ m
    return e


def _pade_half(a2, a4, a6, j: int) -> np.ndarray:
    """a6 (b_{12+j} a6 + b_{10+j} a4 + b_{8+j} a2) + b_{6+j} a6 + b_{4+j} a4
    + b_{2+j} a2 + b_j I: the odd part of p_13 over a for j = 1, its even
    part for j = 0.  Summed in place, one scaled power at a time."""
    b = _PADE13
    inner = b[12 + j] * a6
    inner += b[10 + j] * a4
    inner += b[8 + j] * a2
    out = a6 @ inner
    del inner
    out += b[6 + j] * a6
    out += b[4 + j] * a4
    out += b[2 + j] * a2
    k, n = out.shape[:2]
    out.reshape(k, n * n)[:, :: n + 1] += b[j]
    return out


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
    def heisenberg_families(self) -> tuple[np.ndarray, ...]:
        """Per slice, the stack of its projectors P in the Heisenberg
        picture, u^dagger P u."""
        out = []
        for t, pset in zip(self.times, self.projector_sets):
            u = propagator(self.hamiltonian, t - self.t0)
            family = np.stack([u.conj().T @ p @ u for p in pset.projectors])
            family.setflags(write=False)
            out.append(family)
        return tuple(out)

    @functools.cached_property
    def class_operators(self) -> np.ndarray:
        """The class operator of every history, stacked in enumeration order."""
        out = _class_operators(self.heisenberg_families)
        out.setflags(write=False)
        return out

    @functools.cached_property
    def history_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """Per history in enumeration order, the two-sided probability
        trace(C rho C^dagger) and the single-sided trace trace(C rho)."""
        c = self.class_operators
        rho = self.initial_state.matrix
        probabilities = np.empty(len(c))
        single_sided = np.empty(len(c), dtype=np.complex128)
        # A block of histories at a time: its products with rho, its conjugate
        # copy and the two-sided products are the only temporaries, at most
        # max(_TABLE_BATCH, dim^2) values each.  Each history gets the same
        # matrix products and diagonal sums as alone, so the tables are bit
        # for bit the per-history traces.
        step = max(1, _TABLE_BATCH // rho.size)
        for lo in range(0, len(c), step):
            block = c[lo : lo + step]
            c_rho = block @ rho
            single_sided[lo : lo + step] = np.trace(c_rho, axis1=1, axis2=2)
            both = c_rho @ block.conj().transpose(0, 2, 1)
            probabilities[lo : lo + step] = np.trace(both, axis1=1, axis2=2).real
        probabilities.setflags(write=False)
        single_sided.setflags(write=False)
        return probabilities, single_sided


# The history tables take the products of this many class-operator entries
# at a time.
_TABLE_BATCH = 1 << 15


def _class_operators(families) -> np.ndarray:
    """C = P_k(t_k) ... P_1(t_1) for every outcome sequence, in enumeration
    order: the stacked family of each slice times the stack of the slices
    before it, one batched product per slice.  Each entry is the matrix
    product the left fold P_k @ (... @ P_1) takes, so it is bit for bit the
    same."""
    stack = families[0]
    d = stack.shape[-1]
    for family in families[1:]:
        # Entry (a, n) is P_n @ C_a: outcome n of this slice after history a.
        stack = np.matmul(family[None], stack[:, None]).reshape(-1, d, d)
    return stack


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
    return float(spec.history_tables[0][_history_index(spec, history)])


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


def _deviant_ranges(p1: float, n: int, epsilon: float) -> tuple[range, range]:
    """The success counts k whose frequency misses p1 by epsilon or more,
    abs(k / n - p1) >= epsilon, as a head [0, lo) and a tail [hi, n].

    k / n - p1 rounds monotonically in k, so the deviant counts are those at
    or below -epsilon followed by those at or above epsilon, and two
    bisections over the same float expression find both ends.
    """
    def miss(k):
        return k / n - p1

    ks = range(n + 1)
    lo = bisect.bisect_right(ks, -epsilon, key=miss)
    hi = bisect.bisect_left(ks, epsilon, lo, key=miss)
    return range(lo), range(hi, n + 1)


# The log-domain binomial route fills its weights this many counts at a time.
_LOG_BLOCK = 1 << 14


def _binomial_deviant_weight(p1: float, n: int, epsilon: float) -> float:
    head, tail = _deviant_ranges(p1, n, epsilon)
    if not head and not tail:
        return 0.0
    if p1 == 0.0 or p1 == 1.0:
        certain = int(round(n * p1))
        return float(abs(certain / n - p1) >= epsilon)
    if n <= _EXACT_N_CAP:
        # C(n, k) for every k from one recurrence, filled from both ends.
        comb = [1] * (n + 1)
        for k in range(n // 2):
            comb[k + 1] = comb[n - k - 1] = comb[k] * (n - k) // (k + 1)
        q = 1.0 - p1
        total = 0.0
        for k in itertools.chain(head, tail):
            total += comb[k] * p1**k * q ** (n - k)
        return total
    # log C(n, k) p1^k q^(n-k), rounded as lgamma(n+1) - (lgamma(k+1) +
    # lgamma(n-k+1)) + k log p1 + (n-k) log q, one float64 value per deviant
    # k and nothing else of that size.
    log_n, log_p, log_q = math.lgamma(n + 1), math.log(p1), math.log1p(-p1)
    logs = np.empty(len(head) + len(tail))
    at = 0
    for part in (head, tail):
        for lo in range(part.start, part.stop, _LOG_BLOCK):
            hi = min(lo + _LOG_BLOCK, part.stop)
            k = np.arange(lo, hi, dtype=np.float64)
            pair = np.fromiter(
                map(operator.add, map(math.lgamma, range(lo + 1, hi + 1)),
                    map(math.lgamma, range(n - lo + 1, n - hi + 1, -1))),
                dtype=np.float64, count=hi - lo,
            )
            logs[at : at + hi - lo] = log_n - pair + k * log_p + (n - k) * log_q
            at += hi - lo
    peak = logs.max()
    logs -= peak
    np.exp(logs, out=logs)
    return float(math.exp(peak) * logs.sum())


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
    # log n!/prod c! adds the lgamma values left to right from 0, each
    # composition's sum of c log p is numpy's sum over one row, and the
    # terms accumulate in lexicographic order.  graham.csv stays reproducible
    # to the last bit.  The blocks are worked on column by column, one
    # outcome's counts in each row of ``cols``.
    total = 0.0
    for prefix, parts in _composition_blocks(n, m):
        cols = _compositions(n, m, parts, prefix).T
        deviant = (np.abs(cols / n - p[:, None]) >= eps).any(axis=0)
        possible = ~(cols[p == 0.0] > 0).any(axis=0)
        cols = cols[:, deviant & possible]
        # lgamma(1) = lgamma(2) = 0, so a part that stays below 2 throughout
        # the block adds exact zeros: its counts are skipped.
        below = n - sum(prefix) - parts[0]  # bounds every part after the head
        tops = (*prefix, parts[-1]) + (below,) * (m - len(prefix) - 1)
        log_multinomial = np.zeros(cols.shape[1])
        for col, top in zip(cols, tops):
            if top > 1:
                log_multinomial += lgamma[col]
        log_w = lgamma[n] - log_multinomial + _row_sums(cols * log_p[:, None])
        for x in log_w.tolist():
            total += math.exp(x)
    return total


def _row_sums(terms: np.ndarray) -> np.ndarray:
    """Sum over axis 0 of ``terms``, each column added in the order numpy's
    sum takes one contiguous row: left to right below 8 entries, pairwise
    from 8 on."""
    if len(terms) >= 8:
        return np.ascontiguousarray(terms.T).sum(axis=1)
    out = terms[0].copy()
    for row in terms[1:]:
        out += row
    return out


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
    # Stored one part after another, so that each part's column is contiguous.
    out = np.zeros((m, rest.size), dtype=np.int64)
    out[: len(prefix)] = np.reshape(prefix, (-1, 1))
    out[len(prefix) : len(prefix) + comp.shape[1]] = comp.T
    out[-1] = rest
    return out.T
