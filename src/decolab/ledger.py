"""Entropy bookkeeping for measurement and reset cycles.

Three ledgers track the same cycle under different dynamics: a classical
probability table, a quantum model with a stochastic reduction, and a fully
unitary branching model.  Each row reports

* ``s_ensemble``: entropy of the complete description, conditioned on
  whatever the observer knows at that point (branch rows are
  probability-weighted averages);
* ``s_physical``: sum of subsystem marginal entropies over the declared
  partition, i.e. the ensemble entropy after declaring all correlations
  irrelevant;
* ``information``: what the observer gained by reading the record;
* ``s_physical_record_only``: the same marginal sum without the measured
  variable itself, for the accounting convention that treats the
  microscopic ensemble as controllable rather than thermal.

Entropies are in nats (k = 1).  ``s_physical >= s_ensemble`` holds for the
full-partition column; the record-only column may start below it, which is
exactly the bit the two conventions disagree about.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entanglement import SCHMIDT_CUTOFF, shannon_entropy
from .errors import MIN_BRANCH_PROBABILITY, ValidationError
from .measurement import BRANCH_CYCLE, Decoherence, check_register

_AXES = ("system", "memory", "environment")


@dataclass(frozen=True, eq=False)
class LedgerRow:
    step: str
    s_ensemble: float
    s_physical: float
    information: float
    s_physical_record_only: float

    def __post_init__(self):
        if self.s_physical < self.s_ensemble - 1e-12:
            raise ValidationError(
                f"step {self.step!r}: marginal entropy sum {self.s_physical} "
                f"below ensemble entropy {self.s_ensemble}"
            )
        if self.information < -1e-12:
            raise ValidationError(f"step {self.step!r}: negative information")


@dataclass(frozen=True, eq=False)
class ClassicalJoint:
    """Probability table over (system value, memory slot, environment slot)."""

    system_values: tuple[str, ...]
    memory_values: tuple[str, ...]
    environment_values: tuple[str, ...]
    table: np.ndarray

    def __post_init__(self):
        shape = (len(self.system_values), len(self.memory_values), len(self.environment_values))
        t = np.array(self.table, dtype=np.float64, copy=True)
        if t.shape != shape:
            raise ValidationError(f"table shape {t.shape}, labels imply {shape}")
        if t.min() < -1e-15:
            raise ValidationError(f"negative probability {t.min()}")
        if abs(t.sum() - 1.0) > 1e-12:
            raise ValidationError(f"table sums to {t.sum()}, expected 1")
        t.setflags(write=False)
        object.__setattr__(self, "table", t)

    def _axis(self, name: str) -> int:
        try:
            return _AXES.index(name)
        except ValueError:
            raise ValidationError(f"unknown axis {name!r}; have {_AXES}") from None

    def marginal(self, name: str) -> np.ndarray:
        ax = self._axis(name)
        keep = self.table
        for other in reversed(range(3)):
            if other != ax:
                keep = keep.sum(axis=other)
        return keep

    def entropy(self) -> float:
        flat = self.table.reshape(-1)
        flat = flat[flat > 0.0]
        return float(-(flat * np.log(flat)).sum())

    def marginal_entropy(self, name: str) -> float:
        return shannon_entropy(self.marginal(name))

    def physical_entropy(self, include_system: bool = True) -> float:
        names = _AXES if include_system else _AXES[1:]
        return float(sum(self.marginal_entropy(n) for n in names))

    def condition_on_memory(self, index: int) -> tuple[float, ClassicalJoint]:
        prob = float(self.table[:, index, :].sum())
        if prob <= MIN_BRANCH_PROBABILITY:
            raise ValidationError(f"memory value {index} has probability {prob}")
        t = np.zeros_like(self.table)
        t[:, index, :] = self.table[:, index, :] / prob
        return prob, ClassicalJoint(
            self.system_values, self.memory_values, self.environment_values, t
        )


def initial_classical_joint(p_system) -> ClassicalJoint:
    p = np.asarray(p_system, dtype=np.float64).reshape(-1)
    if p.min() < -1e-12 or abs(p.sum() - 1.0) > 1e-10:
        raise ValidationError("p_system is not a probability distribution")
    if (p > 0.0).sum() < 2:
        raise ValidationError("need at least two outcomes with positive probability")
    n = p.size
    sys_names = tuple(f"v{i}" for i in range(n))
    mem_names = ("ready",) + tuple(f"rec{i}" for i in range(n))
    env_names = ("blank",) + tuple(f"eff{i}" for i in range(n))
    table = np.zeros((n, n + 1, n + 1))
    table[:, 0, 0] = p
    return ClassicalJoint(sys_names, mem_names, env_names, table)


def copy_to_memory(joint: ClassicalJoint) -> ClassicalJoint:
    """Deterministic record step: memory slot i+1 receives system value i.

    A permutation of configurations, so the full-table entropy is exactly
    conserved.  Requires the memory to be in its ready slot.
    """
    if abs(joint.marginal("memory")[0] - 1.0) > 1e-12:
        raise ValidationError("memory is not in its ready slot")
    t = np.zeros_like(joint.table)
    n = len(joint.system_values)
    for s in range(n):
        t[s, s + 1, :] = joint.table[s, 0, :]
    return ClassicalJoint(joint.system_values, joint.memory_values, joint.environment_values, t)


def reset_memory(joint: ClassicalJoint) -> ClassicalJoint:
    """Deterministic erasure: record i moves to environment slot i.

    Again a permutation of configurations; the cost shows up as environment
    marginal entropy, not as a change of the full-table entropy.  Requires
    a blank environment wherever a record is held.
    """
    t = np.array(joint.table, copy=True)
    n = len(joint.system_values)
    moved = np.zeros_like(t)
    for m in range(1, n + 1):
        held = t[:, m, :]
        if held[:, 1:].sum() > 1e-15:
            raise ValidationError("environment slot already occupied before reset")
        moved[:, 0, m] += held[:, 0]
        t[:, m, :] = 0.0
    moved[:, 0, :] += t[:, 0, :]
    return ClassicalJoint(
        joint.system_values, joint.memory_values, joint.environment_values, moved
    )


def classical_ledger(p_system) -> list[LedgerRow]:
    """Measurement-and-reset cycle on a classical probability table.

    Rows: initial, deterministic copy (before reading), reading the record,
    and reset.  Reading subtracts exactly the information gained; reset
    moves that entropy into the environment marginal, leaving the cycle
    ready to repeat.
    """
    j0 = initial_classical_joint(p_system)
    rows = [
        LedgerRow(
            "initial",
            j0.entropy(),
            j0.physical_entropy(),
            0.0,
            j0.physical_entropy(include_system=False),
        )
    ]
    j1 = copy_to_memory(j0)
    rows.append(
        LedgerRow(
            "copied",
            j1.entropy(),
            j1.physical_entropy(),
            0.0,
            j1.physical_entropy(include_system=False),
        )
    )
    mem_marginal = j1.marginal("memory")
    s_cond = 0.0
    s_phys_cond = 0.0
    s_rec_cond = 0.0
    for m in np.flatnonzero(mem_marginal > MIN_BRANCH_PROBABILITY):
        prob, branch = j1.condition_on_memory(int(m))
        s_cond += prob * branch.entropy()
        s_phys_cond += prob * branch.physical_entropy()
        s_rec_cond += prob * branch.physical_entropy(include_system=False)
    info = j1.entropy() - s_cond
    rows.append(LedgerRow("read", s_cond, s_phys_cond, info, s_rec_cond))
    j2 = reset_memory(j1)
    rows.append(
        LedgerRow(
            "reset",
            j2.entropy(),
            j2.physical_entropy(),
            0.0,
            j2.physical_entropy(include_system=False),
        )
    )
    return rows


def _validated_amplitudes(c) -> np.ndarray:
    c = np.asarray(c, dtype=np.complex128).reshape(-1)
    if c.size < 2:
        raise ValidationError("need at least two amplitudes")
    nrm = np.linalg.norm(c)
    if nrm == 0.0:
        raise ValidationError("zero amplitude vector")
    if abs(nrm - 1.0) > 1e-6:
        raise ValidationError(f"amplitudes have norm {nrm:.6g}, expected 1")
    return c / nrm


def _spectrum_entropy(c: np.ndarray) -> float:
    """The entropy of the spectrum p = |c|^2 that an ideal register, and
    the system it decohered, carry in a pure global state: the squares of
    the |c_n| above SCHMIDT_CUTOFF, largest first, normalized, as the
    Schmidt coefficients of the joint state give it."""
    s = np.sort(np.abs(c))[::-1]
    p = s[s > SCHMIDT_CUTOFF] ** 2
    return shannon_entropy(p / p.sum())


def _pure_rows(c: np.ndarray, h: float, steps) -> list[LedgerRow]:
    """The rows of a normalized global state vector sum_n c_n |n> (x)_j
    |x_j(n)>, one per (name, overlaps) step, with one overlap per register.

    Every register is ideal (overlap 0) or ready (overlap 1), so each
    marginal spectrum is p = |c|^2, of entropy ``h``, or {1} for a ready
    register and for a system that no register decohered, of entropy
    exactly 0.  The state is pure, so the ensemble entropy is exactly 0 and
    no information fires.  Its normalization, the same at every step, is
    checked once.
    """
    steps = list(steps)
    Decoherence.from_amplitudes(c).check([math.prod(overlaps) for _, overlaps in steps])
    rows = []
    for name, overlaps in steps:
        marginals = [0.0 if math.prod(overlaps) == 1.0 else h] + [0.0 if g == 1.0 else h for g in overlaps]
        rows.append(LedgerRow(name, 0.0, float(sum(marginals)), 0.0, float(sum(marginals[1:]))))
    return rows


def quantum_collapse_ledger(amplitudes) -> list[LedgerRow]:
    """Measurement cycle with a stochastic reduction.

    The global state starts pure, so the first row sits below the classical
    ledger by exactly the information capacity of the superposition.  The
    reduction is modeled in two moves: sector decoherence turns the
    entangled superposition into the matching mixture (ensemble entropy
    rises to the classical starting value), then reading one outcome
    removes what it delivered.

    An ideal pointer register of width n + 1 records the system.  Pointer
    sector j + 1 holds the branch c_j |j> (x) |j + 1> and sector 0 nothing.
    The sectors are orthogonal, so the mixture's ensemble entropy is the
    Shannon entropy of p = |c|^2, its marginals are the entangled system
    marginal and diag(p), and every Luders branch is a pure product state
    whose entropies are exactly 0.
    """
    c = _validated_amplitudes(amplitudes)
    s_sys = _spectrum_entropy(c)
    rows = _pure_rows(c, s_sys, (("initial", (1.0,)), ("entangled", (0.0,))))
    s_mix = shannon_entropy(np.abs(c) ** 2)
    rows.append(LedgerRow("mixture", s_mix, s_sys + s_mix, 0.0, s_mix))
    rows.append(LedgerRow("reduction", 0.0, 0.0, s_mix, 0.0))
    return rows


def branching_ledger(amplitudes, env_dim: int | None = None) -> list[LedgerRow]:
    """Fully unitary cycle: entangle, decohere into records, reset.

    The global state stays pure at every row, so the ensemble entropy never
    moves from zero; only the marginal sum grows as correlations are
    declared irrelevant.  No information row ever fires because nothing is
    read out.  The zero is exact: every row's state is a normalized state
    vector (checked), whose density has entropy 0 by construction.  The
    environment registers, of width ``env_dim`` (n + 1 by default), hold
    ideal records, so their width changes no entropy.
    """
    c = _validated_amplitudes(amplitudes)
    check_register(c.size, 0.0, c.size + 1 if env_dim is None else env_dim)
    names = ("initial", "apparatus_entangled", "environment_recorded", "apparatus_reset")
    return _pure_rows(c, _spectrum_entropy(c), zip(names, BRANCH_CYCLE))
