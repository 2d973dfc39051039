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


# Seeds whose draws one array pass replays: its uint32 and uint64
# temporaries take about 2 MB (cli.REPLAY_SEED_BYTES per seed).
_REPLAY_BLOCK = 8192

# Fewest seeds a block replays.  A replay pass and its guard generator cost
# 0.19-0.25 ms whatever the block's size, and a generator per seed about
# 20 us each; the two routes cross between 10 and 12 seeds (2 CPUs, numpy
# 2.4.6).  Smaller blocks take one generator per seed.
_REPLAY_MIN = 12

_MASK32 = 0xFFFFFFFF
_MASK64 = (1 << 64) - 1


def _hash_columns(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The xor and multiplier columns, one row per hash, of ``count``
    successive seed_seq_fe hashes.  Each hash xors the value with the hash
    constant, multiplies the constant by ``mult`` and the value by the new
    constant; the constants start at ``init`` and do not depend on the data."""
    h = np.array([init * pow(mult, k, 1 << 32) & _MASK32 for k in range(count + 1)], dtype=np.uint32)
    return h[:-1, None], h[1:, None]


# numpy's SeedSequence (O'Neill's seed_seq_fe) with its pool of four words:
# the four seed words hashed in, then each word hashed into the other three
# (the twelve cross-mixes, in numpy's order), then eight words hashed out.
_POOL_XOR, _POOL_MULT = _hash_columns(0x43B0D7E5, 0x931E8875, 16)
_HASH_IN = _POOL_XOR[:4], _POOL_MULT[:4]
_CROSS_MIXES = [
    (src, np.array([d for d in range(4) if d != src]), (xor, mult))
    for src, xor, mult in zip(range(4), _POOL_XOR[4:].reshape(4, 3, 1), _POOL_MULT[4:].reshape(4, 3, 1))
]
_HASH_OUT = _hash_columns(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
# PCG64's 128-bit LCG multiplier, in uint64 limbs and the 32-bit halves of
# its low limb for the 64 x 64 -> 128 product.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_HI, _MULT_LO = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & _MASK64)
_MULT_LO_0, _MULT_LO_1 = np.uint64(_PCG_MULT & _MASK32), np.uint64(_PCG_MULT >> 32 & _MASK32)
_LOW32 = np.uint64(_MASK32)
_U1, _U11, _U32, _U58, _U63, _U64 = (np.uint64(k) for k in (1, 11, 32, 58, 63, 64))


def _hash(x: np.ndarray, columns) -> np.ndarray:
    xor, mult = columns
    x = (x ^ xor) * mult
    return x ^ (x >> _XSHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * _MIX_L - y * _MIX_R
    return r ^ (r >> _XSHIFT)


def _lcg_step(hi: np.ndarray, lo: np.ndarray, inc_hi: np.ndarray, inc_lo: np.ndarray):
    """state * _PCG_MULT + inc mod 2**128, on uint64 limbs."""
    lo0, lo1 = lo & _LOW32, lo >> _U32
    p00, p01, p10 = lo0 * _MULT_LO_0, lo0 * _MULT_LO_1, lo1 * _MULT_LO_0
    mid = (p00 >> _U32) + (p01 & _LOW32) + (p10 & _LOW32)
    prod_hi = lo1 * _MULT_LO_1 + (p01 >> _U32) + (p10 >> _U32) + (mid >> _U32)
    new_lo = lo * _MULT_LO + inc_lo
    new_hi = prod_hi + lo * _MULT_HI + hi * _MULT_LO + inc_hi + (new_lo < inc_lo)
    return new_hi, new_lo


def _seed_words(seeds) -> np.ndarray:
    """The four little-endian uint32 words of each seed, all in [0, 2**128),
    one row per word: a range's from array arithmetic, other sequences' one
    seed at a time."""
    if isinstance(seeds, range) and seeds.step == 1:
        base = np.uint64(seeds.start & _MASK64)
        lo = np.arange(len(seeds), dtype=np.uint64) + base  # wraps past 2**64
        hi = (lo < base).astype(np.uint64) + np.uint64(seeds.start >> 64)
        return np.stack((lo, lo >> _U32, hi, hi >> _U32)).astype(np.uint32)  # mod 2**32
    data = b"".join(int(s).to_bytes(16, "little") for s in seeds)
    return np.frombuffer(data, dtype="<u4").reshape(-1, 4).T


def _replay_draws(seeds) -> np.ndarray:
    """np.random.default_rng(s).random() for each of ``seeds`` (all in
    [0, 2**128)), in one array pass: numpy's SeedSequence hash of the seed's
    four words (a missing word hashes like a zero one), PCG64 seeded from its
    four uint64 outputs, then that generator's first double, from one more
    LCG step and the XSL-RR output (O'Neill, HMC-CS-2014-0905)."""
    pool = _hash(_seed_words(seeds), _HASH_IN)
    for src, dst, columns in _CROSS_MIXES:  # the three mixes of one source are independent
        pool[dst] = _mix(pool[dst], _hash(pool[src], columns))
    words = _hash(np.concatenate((pool, pool)), _HASH_OUT).astype(np.uint64)
    a, b, c, d = words[0::2] | words[1::2] << _U32
    # initstate = a:b and inc = (c:d << 1) | 1; from state 0: step (the state
    # becomes inc), add initstate, step, and step once more for the output
    inc_hi, inc_lo = c << _U1 | d >> _U63, d << _U1 | _U1
    lo = inc_lo + b
    hi = inc_hi + a + (lo < b)
    hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
    hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
    x, rot = hi ^ lo, hi >> _U58
    x = x >> rot | x << ((_U64 - rot) & _U63)
    return (x >> _U11).astype(np.float64) * 2.0**-53


def _replayable(seeds) -> bool:
    """Whether every seed is an integer in [0, 2**128), the seeds one
    four-word hash covers; a range's ends bound it."""
    ends = (seeds[0], seeds[-1]) if isinstance(seeds, range) else seeds
    return all(isinstance(s, (int, np.integer)) and 0 <= s < 1 << 128 for s in ends)


def _draws(seeds) -> np.ndarray:
    """np.random.default_rng(s).random() for each of ``seeds``: replayed when
    there are _REPLAY_MIN or more, all in [0, 2**128), and the first replayed
    draw equals default_rng's bit for bit; otherwise one generator per seed."""
    if len(seeds) >= _REPLAY_MIN and _replayable(seeds):
        draws = _replay_draws(seeds)
        if draws[0] == np.random.default_rng(seeds[0]).random():
            return draws
    return np.fromiter((np.random.default_rng(s).random() for s in seeds), np.float64, len(seeds))


def sample_outcomes(probs: np.ndarray, seeds) -> np.ndarray:
    """The outcome each of the sequence ``seeds`` draws from the Born table
    ``probs``, outcomes below MIN_BRANCH_PROBABILITY excluded.

    Seed s draws np.random.default_rng(s).random().  The seeds go through in
    blocks of _REPLAY_BLOCK, and a block of _REPLAY_MIN or more seeds, all
    integers in [0, 2**128), replays its draws in one array pass
    (_replay_draws).  Its first draw is checked against default_rng: on a
    numpy whose stream differs every block fails that check and builds one
    generator per seed, as does a block holding a seed of 2**128 or more and
    a block of fewer seeds, where one generator per seed is faster.
    """
    keep = np.flatnonzero(probs >= MIN_BRANCH_PROBABILITY)
    if keep.size == 0:
        raise ValidationError("no outcome has weight above the sampling floor")
    cum = np.cumsum(probs[keep])
    outcomes = np.empty(len(seeds), dtype=np.intp)
    for start in range(0, len(seeds), _REPLAY_BLOCK):
        draws = _draws(seeds[start : start + _REPLAY_BLOCK]) * cum[-1]
        found = np.searchsorted(cum, draws, side="right").clip(0, keep.size - 1)
        outcomes[start : start + _REPLAY_BLOCK] = keep[found]
    return outcomes


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
