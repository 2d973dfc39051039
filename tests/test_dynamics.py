"""Unitary evolution, collapse sampling, Lüders projection."""

import numpy as np
import pytest

from decolab import dynamics
from decolab.dynamics import (
    CollapseRecord,
    Hamiltonian,
    born_weights,
    collapse,
    luders_project,
    propagator,
    sample_outcomes,
    schrodinger_evolve,
    von_neumann_evolve,
)
from decolab.errors import MIN_BRANCH_PROBABILITY, ValidationError, ZeroProbabilityError
from decolab.hilbert import (
    StateVector,
    TensorSpace,
    basis_state,
    computational_basis,
    random_state,
)

RNG = np.random.default_rng(414243)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def _qubit():
    return TensorSpace((("s", 2),))


def test_hamiltonian_must_be_hermitian():
    with pytest.raises(ValidationError):
        Hamiltonian(_qubit(), np.array([[0, 1], [0, 0]], dtype=complex))


def test_propagator_unitary_random():
    for _ in range(10):
        d = int(RNG.integers(2, 9))
        sp = TensorSpace((("s", d),))
        m = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
        h = Hamiltonian(sp, (m + m.conj().T) / 2)
        u = propagator(h, float(RNG.normal()))
        assert np.abs(u @ u.conj().T - np.eye(d)).max() < 1e-12


def test_rabi_flip():
    """H = sigma_x takes |0> to |1> at t = pi/2 up to phase."""
    sp = _qubit()
    h = Hamiltonian(sp, SX)
    out = schrodinger_evolve(h, basis_state(sp, 0), np.pi / 2)
    assert abs(out.amplitudes[1]) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_evolution_composes():
    sp = TensorSpace((("s", 3),))
    m = RNG.normal(size=(3, 3)) + 1j * RNG.normal(size=(3, 3))
    h = Hamiltonian(sp, (m + m.conj().T) / 2)
    psi = random_state(sp, RNG)
    one = schrodinger_evolve(h, schrodinger_evolve(h, psi, 0.4), 0.7)
    two = schrodinger_evolve(h, psi, 1.1)
    assert np.abs(one.amplitudes - two.amplitudes).max() < 1e-12


def test_cayley_matches_eigen_route():
    sp = _qubit()
    h = Hamiltonian(sp, 0.8 * SX + 0.3 * SZ)
    psi = random_state(sp, RNG)
    exact = schrodinger_evolve(h, psi, 2.0)
    approx = schrodinger_evolve(h, psi, 2.0, method="cayley", steps=20000)
    assert abs(approx.norm() - 1.0) < 1e-12
    assert np.abs(approx.amplitudes - exact.amplitudes).max() < 1e-6


def test_cayley_exactly_unitary_even_at_coarse_step():
    sp = _qubit()
    h = Hamiltonian(sp, SX)
    psi = basis_state(sp, 0)
    out = schrodinger_evolve(h, psi, 5.0, method="cayley", steps=7)
    assert abs(out.norm() - 1.0) < 1e-12


def test_von_neumann_matches_vector_route():
    sp = TensorSpace((("s", 4),))
    m = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
    h = Hamiltonian(sp, (m + m.conj().T) / 2)
    psi = random_state(sp, RNG)
    rho_t = von_neumann_evolve(h, psi.density(), 0.9)
    psi_t = schrodinger_evolve(h, psi, 0.9)
    assert np.abs(rho_t.matrix - psi_t.density().matrix).max() < 1e-12


def test_von_neumann_preserves_spectrum():
    sp = TensorSpace((("s", 3),))
    h = Hamiltonian(sp, np.diag([0.0, 1.0, 2.5]).astype(complex))
    rho0 = np.diag([0.5, 0.3, 0.2]).astype(complex)
    from decolab.hilbert import DensityOperator

    rho_t = von_neumann_evolve(h, DensityOperator(sp, rho0), 3.0)
    assert np.abs(np.sort(rho_t.eigenvalues()) - [0.2, 0.3, 0.5]).max() < 1e-12


def test_collapse_reproducible_and_recorded():
    sp = TensorSpace((("s", 4),))
    psi = StateVector(sp, np.array([0.5, 0.5, 0.5, 0.5], dtype=complex))
    basis = computational_basis(sp)
    rec1 = collapse(psi, basis, seed=5)
    rec2 = collapse(psi, basis, seed=5)
    assert rec1.outcome_index == rec2.outcome_index
    assert rec1.rng_seed == 5
    assert rec1.outcome_probability == pytest.approx(0.25)
    assert np.array_equal(rec1.post_state.amplitudes, basis[rec1.outcome_index].amplitudes)


def test_collapse_frequencies_follow_born_weights():
    sp = TensorSpace((("s", 2),))
    psi = StateVector(sp, np.array([np.sqrt(0.9), np.sqrt(0.1)], dtype=complex))
    basis = computational_basis(sp)
    hits = sum(collapse(psi, basis, seed=s).outcome_index for s in range(2000))
    assert 140 < hits < 260  # ~N(200, 13^2)


def test_collapse_excludes_negligible_branches():
    sp = TensorSpace((("s", 2),))
    psi = StateVector(sp, np.array([1.0, 1e-9], dtype=complex)).normalized()
    basis = computational_basis(sp)
    outcomes = {collapse(psi, basis, seed=s).outcome_index for s in range(200)}
    assert outcomes == {0}


def test_collapse_record_serializes():
    sp = TensorSpace((("s", 2),))
    psi = StateVector(sp, np.array([0.6, 0.8], dtype=complex))
    rec = collapse(psi, computational_basis(sp), seed=1)
    doc = rec.to_json_obj()
    assert set(doc) >= {"outcome_index", "outcome_probability", "rng_seed"}
    assert isinstance(rec.to_json(), str)
    assert isinstance(rec, CollapseRecord)


def test_collapse_requires_orthonormal_basis():
    sp = TensorSpace((("s", 2),))
    psi = basis_state(sp, 0)
    skew = [psi, StateVector(sp, np.array([1.0, 1.0]) / np.sqrt(2))]
    with pytest.raises(ValidationError):
        collapse(psi, skew, seed=0)


def test_born_table_matches_the_scalar_overlap_formula_bitwise():
    sp = TensorSpace((("s", 61),))
    amps = RNG.normal(size=61) + 1j * RNG.normal(size=61)
    amps[::7] = 0.0
    amps[3::11] = amps[3::11].real
    psi = StateVector(sp, amps / np.linalg.norm(amps))
    unit = psi.amplitudes / psi.norm()
    rotated = tuple(StateVector(sp, v) for v in np.linalg.qr(RNG.normal(size=(61, 61)))[0].T)
    for basis in (computational_basis(sp), rotated):
        want = np.array([abs(np.vdot(b.amplitudes, unit)) ** 2 for b in basis])
        assert born_weights(psi, basis).tobytes() == want.tobytes()
    want = np.array([abs(np.vdot(b.amplitudes, unit)) ** 2 for b in computational_basis(sp)])
    assert born_weights(psi).tobytes() == want.tobytes()


def test_sampler_draws_each_seed_from_its_own_generator():
    probs = np.array([0.3, 0.0, 1e-15, 0.45, 0.25])
    keep = np.array([0, 3, 4])
    cum = np.cumsum(probs[keep])
    seeds = [0, 1, 17, 2**32 - 1, 2**32, 2**40 + 3, 2**64 + 9]
    want = [
        keep[np.searchsorted(cum, np.random.default_rng(s).random() * cum[-1], side="right").clip(0, 2)]
        for s in seeds
    ]
    assert sample_outcomes(probs, seeds).tolist() == want
    with pytest.raises(ValidationError):
        sample_outcomes(np.array([1e-15, 0.0]), [0])


def _generator_draws(seeds):
    return np.array([np.random.default_rng(s).random() for s in seeds])


def _per_seed_outcomes(probs, seeds):
    keep = np.flatnonzero(probs >= MIN_BRANCH_PROBABILITY)
    cum = np.cumsum(probs[keep])
    found = np.searchsorted(cum, _generator_draws(seeds) * cum[-1], side="right")
    return keep[found.clip(0, keep.size - 1)]


SAMPLER_PROBS = np.array([0.2, 0.0, 0.05, 0.5, 0.25])


def test_seed_replay_matches_default_rng_bitwise():
    rng = np.random.default_rng(77)
    words = [rng.integers(0, 2**32, size=(10_000, k), dtype=np.uint64) for k in (3, 4)]
    runs = [
        range(0, 50_000),
        range(2**32 - 10_000, 2**32 + 10_000),  # two words from 2**32
        range(2**64 - 5_000, 2**64 + 5_000),  # three from 2**64
        range(2**128 - 1_000, 2**128),  # the last four-word seeds
        range(7, 3_000, 3),
        [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96, 2**128 - 1],
    ] + [[sum(int(w) << 32 * j for j, w in enumerate(row)) for row in block] for block in words]
    for seeds in runs:
        assert dynamics._replay_draws(seeds).tobytes() == _generator_draws(seeds).tobytes(), seeds[0]
    # a range's words come from array arithmetic, a list's one seed at a time
    seeds = range(2**64 - 500, 2**64 + 500)
    assert dynamics._replay_draws(list(seeds)).tobytes() == dynamics._replay_draws(seeds).tobytes()


def test_seeds_outside_the_four_word_hash_take_one_generator_each(monkeypatch):
    for seeds in ([2**128, 2**128 + 5, 2**200], [5, 2**128, 7], range(2**128 - 2, 2**128 + 2)):
        assert not dynamics._replayable(seeds)
        assert sample_outcomes(SAMPLER_PROBS, seeds).tolist() == _per_seed_outcomes(SAMPLER_PROBS, seeds).tolist()
    with pytest.raises(ValueError):
        sample_outcomes(SAMPLER_PROBS, [3, -1])
    # blocks of four, replayed from two seeds: the first is replayed, the
    # second holds 2**128
    monkeypatch.setattr(dynamics, "_REPLAY_BLOCK", 4)
    monkeypatch.setattr(dynamics, "_REPLAY_MIN", 2)
    seeds = [5, 6, 2**64, 8, 2**128, 9, 10]
    assert sample_outcomes(SAMPLER_PROBS, seeds).tolist() == _per_seed_outcomes(SAMPLER_PROBS, seeds).tolist()


def test_sampler_guard_falls_back_when_the_replay_stream_differs(monkeypatch):
    calls = []

    def stale(seeds):
        calls.append(len(seeds))
        return np.full(len(seeds), 0.999)

    monkeypatch.setattr(dynamics, "_replay_draws", stale)
    monkeypatch.setattr(dynamics, "_REPLAY_BLOCK", 64)
    seeds = range(2**32 - 50, 2**32 + 50)
    assert sample_outcomes(SAMPLER_PROBS, seeds).tolist() == _per_seed_outcomes(SAMPLER_PROBS, seeds).tolist()
    assert calls == [64, 36]  # every block checked, and refused
    # one seed: one generator, and no replay
    calls.clear()
    assert sample_outcomes(SAMPLER_PROBS, (2**40,)).tolist() == _per_seed_outcomes(SAMPLER_PROBS, [2**40]).tolist()
    assert calls == []


def test_blocks_on_both_sides_of_the_replay_crossover_draw_the_same_outcomes(monkeypatch):
    replayed = []
    real = dynamics._replay_draws
    monkeypatch.setattr(dynamics, "_replay_draws", lambda seeds: replayed.append(len(seeds)) or real(seeds))
    k = dynamics._REPLAY_MIN
    for seeds in (range(2**32 - 6, 2**32 - 6 + k - 1), range(2**32 - 6, 2**32 - 6 + k), range(40, 40 + k + 1)):
        want = _generator_draws(seeds)
        assert dynamics._draws(seeds).tobytes() == want.tobytes()
        assert dynamics._draws(list(seeds)).tobytes() == want.tobytes()
        assert sample_outcomes(SAMPLER_PROBS, seeds).tolist() == _per_seed_outcomes(SAMPLER_PROBS, seeds).tolist()
    # below the crossover one generator per seed, from it on the replay
    assert replayed == [k, k, k, k + 1, k + 1, k + 1]


def test_sampler_crosses_replay_blocks_and_takes_empty_seeds():
    seeds = range(2**64 - 100, 2**64 - 100 + dynamics._REPLAY_BLOCK + 200)
    want = _per_seed_outcomes(SAMPLER_PROBS, seeds).tolist()
    assert sample_outcomes(SAMPLER_PROBS, seeds).tolist() == want
    assert sample_outcomes(SAMPLER_PROBS, list(seeds)).tolist() == want
    empty = sample_outcomes(SAMPLER_PROBS, range(5, 5))
    assert empty.dtype == np.intp and empty.shape == (0,)


def test_luders_pure_state():
    sp = TensorSpace((("s", 2),))
    plus = StateVector(sp, np.array([1.0, 1.0]) / np.sqrt(2))
    p0 = np.array([[1, 0], [0, 0]], dtype=complex)
    out, prob = luders_project(plus, p0)
    assert prob == pytest.approx(0.5)
    assert abs(out.amplitudes[0]) == pytest.approx(1.0)


def test_luders_density_and_zero_branch():
    sp = TensorSpace((("s", 2),))
    rho = basis_state(sp, 0).density()
    p1 = np.array([[0, 0], [0, 1]], dtype=complex)
    with pytest.raises(ZeroProbabilityError):
        luders_project(rho, p1)
    p0 = np.eye(2, dtype=complex) - p1
    out, prob = luders_project(rho, p0)
    assert prob == pytest.approx(1.0)
    assert np.abs(out.matrix - rho.matrix).max() < 1e-15


def test_luders_rejects_non_projector():
    sp = TensorSpace((("s", 2),))
    with pytest.raises(ValidationError):
        luders_project(basis_state(sp, 0), 0.5 * np.eye(2, dtype=complex))
