"""Projector families, master equation, history chains, deviant-branch norms."""

import itertools
import json
import math

import numpy as np
import pytest
import scipy.stats

import decolab.histories
from decolab import cli
from decolab.dynamics import Hamiltonian, luders_project, propagator
from decolab.errors import ValidationError
from decolab.hilbert import (
    DensityOperator,
    StateVector,
    TensorSpace,
    basis_state,
    computational_basis,
    random_state,
)
from decolab.histories import (
    HistorySpec,
    ProjectorSet,
    RateMatrix,
    _compositions,
    consistency_defect,
    decoherence_functional,
    decohere_projectors,
    enumerate_histories,
    graham_deviant_norm,
    history_probability,
    pauli_master_evolve,
    pauli_master_table,
)

RNG = np.random.default_rng(60601)

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def _qubit():
    return TensorSpace((("s", 2),))


# ---- projector sets ----


def test_projector_set_from_basis():
    sp = TensorSpace((("s", 3),))
    pset = ProjectorSet.from_basis(computational_basis(sp))
    assert len(pset.projectors) == 3
    total = sum(pset.projectors)
    assert np.abs(total - np.eye(3)).max() < 1e-12


def test_projector_set_blocks_and_union():
    sp = TensorSpace((("s", 4),))
    pset = ProjectorSet.from_index_blocks(sp, [[0, 1], [2], [3]])
    assert pset.projectors[0][0, 0] == 1.0


def test_projector_set_rejects_incomplete_family():
    sp = TensorSpace((("s", 3),))
    p0 = np.diag([1.0, 0, 0]).astype(complex)
    p1 = np.diag([0, 1.0, 0]).astype(complex)
    with pytest.raises(ValidationError):
        ProjectorSet(sp, (p0, p1))


def test_decohere_projectors_kills_cross_terms():
    sp = TensorSpace((("s", 2),))
    plus = StateVector(sp, np.array([1.0, 1.0]) / np.sqrt(2))
    pset = ProjectorSet.from_basis(computational_basis(sp))
    rho = decohere_projectors(plus.density(), pset)
    assert abs(rho.matrix[0, 1]) < 1e-15
    assert rho.matrix[0, 0].real == pytest.approx(0.5)


# ---- master equation ----


def test_rate_matrix_validation():
    with pytest.raises(ValidationError):
        RateMatrix(np.array([[0.0, -1.0], [1.0, 0.0]]))
    with pytest.raises(ValidationError):
        RateMatrix(np.array([[0.5, 1.0], [1.0, 0.0]]))


def test_generator_rows_sum_to_zero():
    a = RNG.uniform(size=(4, 4))
    np.fill_diagonal(a, 0.0)
    g = RateMatrix(a).generator()
    assert np.abs(g.sum(axis=1)).max() < 1e-12


def test_two_state_analytic_solution():
    gamma = 0.8
    rates = RateMatrix(np.array([[0.0, gamma], [gamma, 0.0]]))
    p0 = np.array([0.95, 0.05])
    for t in np.linspace(0.0, 3.0, 10):
        p = pauli_master_evolve(p0, rates, float(t))
        exact = 0.5 + (p0[0] - 0.5) * math.exp(-2 * gamma * t)
        assert abs(p[0] - exact) < 1e-12


def test_master_equation_requires_balance():
    rates = RateMatrix(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(ValidationError, match="balance"):
        pauli_master_evolve(np.array([0.5, 0.5]), rates, 1.0)


def test_master_equation_rejects_negative_time():
    rates = RateMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValidationError):
        pauli_master_evolve(np.array([0.5, 0.5]), rates, -0.1)


def test_master_equation_uniform_fixed_point():
    a = RNG.uniform(0.1, 1.0, size=(5, 5))
    a = (a + a.T) / 2
    np.fill_diagonal(a, 0.0)
    rates = RateMatrix(a)
    uniform = np.full(5, 0.2)
    out = pauli_master_evolve(uniform, rates, 7.3)
    assert np.abs(out - uniform).max() < 1e-12


def test_master_equation_semigroup():
    a = np.array([[0.0, 0.4, 0.1], [0.4, 0.0, 0.7], [0.1, 0.7, 0.0]])
    rates = RateMatrix(a)
    p0 = np.array([0.7, 0.2, 0.1])
    one = pauli_master_evolve(pauli_master_evolve(p0, rates, 0.6), rates, 0.9)
    two = pauli_master_evolve(p0, rates, 1.5)
    assert np.abs(one - two).max() < 1e-12


def _balanced_rates(rng, i):
    """Seeded balanced rates over n = 2-8 states, between 1e-3 and 1e3:
    symmetric for even i, one cycle of a single rate for odd i."""
    n = int(rng.integers(2, 9))
    if i % 2 == 0:
        r = 10.0 ** rng.uniform(-3, 3, size=(n, n))
        r = (r + r.T) / 2
        np.fill_diagonal(r, 0.0)
    else:
        r = np.zeros((n, n))
        r[np.arange(n), (np.arange(n) + 1) % n] = 10.0 ** rng.uniform(-3, 3)
    return RateMatrix(r)


def _master_deviation(rates, p0, times):
    """The largest deviation of pauli_master_table from scipy.linalg.expm
    over ``times``, in units of eps max(1, ||G t||_1)."""
    from scipy.linalg import expm

    g = rates.generator()
    worst = 0.0
    for t, row in zip(times, pauli_master_table(p0, rates, times)):
        want = expm(g * t) @ p0
        scale = np.finfo(float).eps * max(1.0, np.abs(g * t).sum(axis=0).max())
        worst = max(worst, float(np.abs(row - want).max()) / scale)
    return worst


def test_master_table_at_time_zero_and_at_zero_rates_is_p0_bitwise():
    for i in range(40):
        rates = _balanced_rates(RNG, i)
        p0 = RNG.dirichlet(np.ones(rates.size))
        p0[i % rates.size] = 0.0
        p0 /= p0.sum()
        times = [0.0, 0.3, 0.0, 17.0]
        table = pauli_master_table(p0, rates, times)
        assert table[0].tobytes() == table[2].tobytes() == p0.tobytes()
        still = pauli_master_table(p0, RateMatrix(np.zeros((rates.size, rates.size))), times)
        assert all(row.tobytes() == p0.tobytes() for row in still)


def test_master_table_rows_do_not_depend_on_their_block(monkeypatch):
    # n states take 64 // n^2 times a block at _MASTER_BLOCK = 64 (one for
    # n > 5), so 30 times span several blocks; t up to 1e3 takes scaling
    # exponents from 0 to about 20
    rng = np.random.default_rng(7)
    exponents = set()
    for i in range(6):
        rates = _balanced_rates(rng, i)
        p0 = rng.dirichlet(np.ones(rates.size))
        times = [0.0] + list(10.0 ** rng.uniform(-3, 3, size=29))
        norms = np.abs(rates.generator()).sum(axis=0).max() * np.array(times) / decolab.histories._THETA13
        exponents.update(np.ceil(np.log2(norms[norms > 1.0])))
        whole = pauli_master_table(p0, rates, times)
        with monkeypatch.context() as m:
            m.setattr(decolab.histories, "_MASTER_BLOCK", 64)
            blocked = pauli_master_table(p0, rates, times)
        assert blocked.tobytes() == whole.tobytes()
        for t, row in zip(times, whole):
            assert pauli_master_table(p0, rates, [t])[0].tobytes() == row.tobytes()
            assert pauli_master_evolve(p0, rates, t).tobytes() == row.tobytes()
    assert len(exponents) > 5, exponents


def test_master_table_matches_scipy_expm():
    rng = np.random.default_rng(11)
    worst = 0.0
    for i in range(200):
        rates = _balanced_rates(rng, i)
        p0 = rng.dirichlet(np.ones(rates.size))
        worst = max(worst, _master_deviation(rates, p0, 10.0 ** rng.uniform(-3, 2, size=4)))
    assert worst <= 64.0, worst


def test_master_table_checks_its_inputs():
    rates = RateMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValidationError, match="negative time"):
        pauli_master_table([0.5, 0.5], rates, [1.0, -0.1])
    with pytest.raises(ValidationError, match="probability distribution"):
        pauli_master_table([0.5, 0.6], rates, [1.0])
    assert pauli_master_table([0.5, 0.5], rates, []).shape == (0, 2)


# ---- histories ----


def _three_slice_spec(times=(0.3, 0.8, 1.4)):
    sp = _qubit()
    h = Hamiltonian(sp, SX)
    pset = ProjectorSet.from_basis(computational_basis(sp))
    return HistorySpec(
        hamiltonian=h,
        initial_state=basis_state(sp, 0).density(),
        times=tuple(times),
        projector_sets=(pset,) * len(times),
    )


def test_history_times_must_increase():
    with pytest.raises(ValidationError):
        _three_slice_spec(times=(0.5, 0.5, 1.0))
    with pytest.raises(ValidationError):
        _three_slice_spec(times=(-0.5, 0.5, 1.0))


def test_histories_sum_to_one():
    spec = _three_slice_spec()
    total = sum(history_probability(spec, h) for h in enumerate_histories(spec))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_history_outside_the_family_is_rejected():
    # each would index some other history of the stacked class operators
    spec = _three_slice_spec()
    for bad in ((0, 1), (0, 1, 2), (0, -1, 0), (0, 0, 0, 0)):
        with pytest.raises(ValidationError):
            history_probability(spec, bad)


def test_history_against_sequential_oracle():
    """Lüders chain equals evolve-project-renormalize bookkeeping."""
    spec = _three_slice_spec()
    sp = spec.hamiltonian.space
    basis = computational_basis(sp)
    for hist in enumerate_histories(spec):
        # oracle: carry the state through, multiplying branch probabilities
        rho = spec.initial_state
        weight = 1.0
        t_prev = 0.0
        dead = False
        for t, n in zip(spec.times, hist):
            u = propagator(spec.hamiltonian, t - t_prev)
            rho = DensityOperator(sp, u @ rho.matrix @ u.conj().T)
            proj = np.outer(basis[n].amplitudes, basis[n].amplitudes.conj())
            prob = np.trace(proj @ rho.matrix).real
            if prob < 1e-14:
                dead = True
                break
            rho = DensityOperator(sp, proj @ rho.matrix @ proj / prob)
            weight *= prob
            t_prev = t
        expected = 0.0 if dead else weight
        assert abs(history_probability(spec, hist) - expected) < 1e-12


def test_single_sided_trace_agrees_when_consistent():
    sp = _qubit()
    h = Hamiltonian(sp, np.zeros((2, 2), dtype=complex))
    pset = ProjectorSet.from_basis(computational_basis(sp))
    spec = HistorySpec(
        hamiltonian=h,
        initial_state=DensityOperator(sp, np.eye(2) / 2),
        times=(1.0, 2.0),
        projector_sets=(pset, pset),
    )
    for raw, hist in zip(spec.history_tables[1], enumerate_histories(spec), strict=True):
        assert abs(raw.imag) < 1e-14
        assert abs(raw.real - history_probability(spec, hist)) < 1e-12


def test_interfering_spec_has_large_defect():
    sp = _qubit()
    h = Hamiltonian(sp, SX)
    pset = ProjectorSet.from_basis(computational_basis(sp))
    spec = HistorySpec(
        hamiltonian=h,
        initial_state=basis_state(sp, 0).density(),
        times=(np.pi / 4, np.pi / 2),
        projector_sets=(pset, pset),
    )
    assert consistency_defect(spec) == pytest.approx(0.5, abs=1e-12)


def test_trivial_spec_has_zero_defect():
    sp = _qubit()
    h = Hamiltonian(sp, np.diag([0.0, 1.0]).astype(complex))
    pset = ProjectorSet.from_basis(computational_basis(sp))
    spec = HistorySpec(
        hamiltonian=h,
        initial_state=DensityOperator(sp, np.diag([0.7, 0.3]).astype(complex)),
        times=(0.5, 1.5),
        projector_sets=(pset, pset),
    )
    assert consistency_defect(spec) < 1e-12


def test_history_probability_matches_luders_module():
    spec = _three_slice_spec(times=(0.4, 1.0, 1.6))
    sp = spec.hamiltonian.space
    hist = (0, 1, 0)
    # same chain via the dynamics-module projection primitive
    rho = spec.initial_state
    weight = 1.0
    t_prev = 0.0
    for t, n in zip(spec.times, hist):
        u = propagator(spec.hamiltonian, t - t_prev)
        rho = DensityOperator(sp, u @ rho.matrix @ u.conj().T)
        proj = np.zeros((2, 2), dtype=complex)
        proj[n, n] = 1.0
        rho, prob = luders_project(rho, proj)
        weight *= prob
        t_prev = t
    assert abs(history_probability(spec, hist) - weight) < 1e-12


def _reference_defect(spec):
    """Nested-loop defect: rebuild the chain of every union and every member."""
    us = [propagator(spec.hamiltonian, t - spec.t0) for t in spec.times]

    def chain_probability(mats):
        chain = np.eye(spec.initial_state.space.total_dim)
        for u, m in zip(us, mats):
            chain = (u.conj().T @ m @ u) @ chain
        return np.trace(chain @ spec.initial_state.matrix @ chain.conj().T).real

    counts = spec.outcome_counts()
    worst = 0.0
    for i, n in enumerate(counts):
        others = [j for j in range(len(counts)) if j != i]
        for r in range(2, n + 1):
            for subset in itertools.combinations(range(n), r):
                union = sum(spec.projector_sets[i][m] for m in subset)
                for ctx in itertools.product(*(range(counts[j]) for j in others)):
                    mats = [spec.projector_sets[j][c] for j, c in zip(others, ctx)]
                    mats.insert(i, union)
                    p_sum = 0.0
                    for m in subset:
                        mats[i] = spec.projector_sets[i][m]
                        p_sum += chain_probability(mats)
                    mats[i] = union
                    worst = max(worst, abs(chain_probability(mats) - p_sum))
    return worst


def _random_family(sp, rng):
    """Computational basis, a random block partition, or a rotated basis."""
    d = sp.total_dim
    choice = rng.integers(3)
    if choice == 0:
        return ProjectorSet.from_basis(computational_basis(sp))
    if choice == 1:
        cuts = sorted(rng.choice(np.arange(1, d), size=rng.integers(1, d), replace=False))
        order = rng.permutation(d)
        return ProjectorSet.from_index_blocks(sp, np.split(order, cuts))
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return ProjectorSet.from_basis([StateVector(sp, q[:, k]) for k in range(d)])


def _random_spec(rng, dim, slices, consistent):
    sp = TensorSpace((("s", dim),))
    if consistent:
        # Diagonal dynamics, a diagonal state and diagonal families commute.
        h = Hamiltonian(sp, np.diag(rng.normal(size=dim)).astype(complex))
        p = rng.dirichlet(np.ones(dim))
        rho = DensityOperator(sp, np.diag(p).astype(complex))
        psets = [ProjectorSet.from_basis(computational_basis(sp))]
        for _ in range(slices - 1):
            cuts = sorted(rng.choice(np.arange(1, dim), size=rng.integers(1, dim), replace=False))
            psets.append(ProjectorSet.from_index_blocks(sp, np.split(np.arange(dim), cuts)))
    else:
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = Hamiltonian(sp, (a + a.conj().T) / 2)
        rho = random_state(sp, rng).density()
        psets = [_random_family(sp, rng) for _ in range(slices)]
    times = tuple(np.cumsum(rng.uniform(0.2, 1.0, size=slices)))
    return HistorySpec(
        hamiltonian=h, initial_state=rho, times=times, projector_sets=tuple(psets)
    )


def test_defect_matches_nested_loop_reference(monkeypatch):
    rng = np.random.default_rng(4242)
    cases = [(dim, slices, consistent)
             for slices, dims in ((1, (3, 4)), (2, (2, 4)), (3, (2, 3)), (4, (2, 3)))
             for dim in dims for consistent in (False, True)]
    interfering = 0
    for dim, slices, consistent in cases:
        spec = _random_spec(rng, dim, slices, consistent)
        ref = _reference_defect(spec)
        assert abs(consistency_defect(spec) - ref) < 1e-12
        with monkeypatch.context() as m:
            m.setattr(decolab.histories, "_SUBSET_BATCH", 1)  # one context per batch
            assert abs(consistency_defect(spec) - ref) < 1e-12
        if consistent:
            assert ref < 1e-12
        else:
            interfering += ref > 1e-3
    assert interfering >= 6


def test_decoherence_functional_reductions():
    rng = np.random.default_rng(7)
    for dim, slices in ((2, 3), (3, 2), (4, 1)):
        spec = _random_spec(rng, dim, slices, consistent=False)
        d = decoherence_functional(spec)
        hists = list(enumerate_histories(spec))
        assert d.shape == (len(hists), len(hists))
        assert np.abs(d - d.conj().T).max() < 1e-12
        for a, hist in enumerate(hists):
            assert abs(d[a, a].real - history_probability(spec, hist)) < 1e-12
            assert abs(d[a].sum() - spec.history_tables[1][a]) < 1e-12


def test_propagator_runs_once_per_slice(monkeypatch):
    calls = []

    def counting(hamiltonian, t):
        calls.append(t)
        return propagator(hamiltonian, t)

    monkeypatch.setattr(decolab.histories, "propagator", counting)
    spec = _random_spec(np.random.default_rng(11), 3, 3, consistent=False)
    consistency_defect(spec)
    for hist in enumerate_histories(spec):
        history_probability(spec, hist)
    assert len(calls) == len(spec.times)


def _sequential_class_operator(spec, history):
    """C = P_k(t_k) ... P_1(t_1) for one outcome sequence, as a left fold."""
    chain = None
    for family, n in zip(spec.heisenberg_families, history):
        chain = family[n] if chain is None else family[n] @ chain
    return chain


def _seeded_specs():
    """Interfering and consistent specs of one to four slices, dim 2-12."""
    rng = np.random.default_rng(8128)
    for dim, slices in ((2, 1), (9, 1), (12, 1), (2, 4), (3, 3), (4, 2), (8, 2), (10, 2)):
        for consistent in (False, True):
            yield _random_spec(rng, dim, slices, consistent)


def test_class_operators_match_the_sequential_fold_bitwise():
    for spec in _seeded_specs():
        c = spec.class_operators
        hists = list(enumerate_histories(spec))
        assert c.shape == (len(hists),) + spec.initial_state.matrix.shape
        for a, hist in enumerate(hists):
            assert c[a].tobytes() == _sequential_class_operator(spec, hist).tobytes()


def test_history_tables_match_per_history_traces_bitwise(monkeypatch):
    for batch in (1, 1 << 15):  # one history per block at 1
        monkeypatch.setattr(decolab.histories, "_TABLE_BATCH", batch)
        for spec in _seeded_specs():
            rho = spec.initial_state.matrix
            hists = list(enumerate_histories(spec))
            chains = [_sequential_class_operator(spec, hist) for hist in hists]
            want_p = np.array([float(np.trace(c @ rho @ c.conj().T).real) for c in chains])
            want_s = np.array([complex(np.trace(c @ rho)) for c in chains])
            probabilities, single_sided = spec.history_tables
            assert probabilities.tobytes() == want_p.tobytes()
            assert single_sided.tobytes() == want_s.tobytes()
            lookups = [history_probability(spec, h) for h in hists]
            assert np.array(lookups).tobytes() == want_p.tobytes()


def test_class_operators_are_built_once_per_run(monkeypatch, tmp_path):
    builds, products = [], []
    build, matmul = decolab.histories._class_operators, np.matmul

    def counting_build(families):
        builds.append(len(families))
        return build(families)

    def counting_matmul(a, b, *args, **kwargs):
        products.append(a.shape)
        return matmul(a, b, *args, **kwargs)

    monkeypatch.setattr(decolab.histories, "_class_operators", counting_build)
    doc = {"schema": "decolab/scenario/v1", "kind": "histories", "seed": 0, "params": {
        "dim": 3, "hamiltonian": {"name": "diagonal", "entries": [0.0, 1.0, 2.5]},
        "times": [0.5, 1.0, 1.5], "projectors": {"type": "computational"},
        "initial": {"amplitudes": [[0.6, 0.0], [0.0, 0.8], 0.0]},
    }}
    path = tmp_path / "h.json"
    path.write_text(json.dumps(doc))
    with monkeypatch.context() as m:
        m.setattr(decolab.histories.np, "matmul", counting_matmul)
        assert cli.run(str(path), out_dir=str(tmp_path / "out")) == 0
    # one build of 27 operators: one batched product for each slice after the first
    assert builds == [3]
    assert products == [(1, 3, 3, 3)] * 2


# ---- deviant-branch norms ----


def test_graham_exact_small_case():
    assert graham_deviant_norm([0.5, 0.5], 4, 0.3) == 0.125


def test_graham_epsilon_above_one():
    assert graham_deviant_norm([0.5, 0.5], 10, 1.5) == 0.0


def test_graham_matches_binomial_tail():
    for n in (10, 37, 200, 1000):
        for p1 in (0.5, 0.3):
            for eps in (0.05, 0.15):
                k = np.arange(n + 1)
                mask = np.abs(k / n - p1) >= eps
                oracle = float(scipy.stats.binom.pmf(k[mask], n, p1).sum())
                ours = graham_deviant_norm([p1, 1 - p1], n, eps)
                assert abs(ours - oracle) < 1e-12


def test_graham_log_domain_path():
    # beyond the exact-enumeration cap
    val = graham_deviant_norm([0.5, 0.5], 4000, 0.05)
    k = np.arange(4001)
    mask = np.abs(k / 4000 - 0.5) >= 0.05
    oracle = float(scipy.stats.binom.pmf(k[mask], 4000, 0.5).sum())
    assert abs(val - oracle) < 1e-10


def test_graham_multinomial_reduces_to_binomial():
    # three outcomes, one with zero weight
    a = graham_deviant_norm([0.6, 0.4, 0.0], 40, 0.2)
    b = graham_deviant_norm([0.6, 0.4], 40, 0.2)
    assert abs(a - b) < 1e-12


def test_graham_three_outcome_oracle():
    """Brute-force multinomial sum over all compositions."""
    p = np.array([0.5, 0.3, 0.2])
    n, eps = 12, 0.25
    total = 0.0
    for k1 in range(n + 1):
        for k2 in range(n - k1 + 1):
            k3 = n - k1 - k2
            kvec = np.array([k1, k2, k3])
            if np.abs(kvec / n - p).max() >= eps:
                coeff = math.comb(n, k1) * math.comb(n - k1, k2)
                total += coeff * float(np.prod(p**kvec))
    assert abs(graham_deviant_norm(p, n, eps) - total) < 1e-12


def _reference_compositions(n, m):
    if m == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _reference_compositions(n - first, m - 1):
            yield (first,) + rest


def _reference_graham(born_p, n, eps):
    """Multinomial deviant weight, one composition at a time."""
    if eps > 1.0:
        return 0.0
    p = np.clip(np.asarray(born_p, dtype=np.float64), 0.0, 1.0)
    log_p = np.where(p > 0.0, np.log(np.where(p > 0.0, p, 1.0)), 0.0)
    total = 0.0
    lg_n = math.lgamma(n + 1)
    for counts in _reference_compositions(n, p.size):
        counts_arr = np.array(counts, dtype=np.float64)
        if np.abs(counts_arr / n - p).max() < eps:
            continue
        if any(c > 0 and p[i] == 0.0 for i, c in enumerate(counts)):
            continue
        # left to right from 0, as `sum` adds floats before Python 3.12
        log_multinomial = 0
        for c in counts:
            log_multinomial += math.lgamma(c + 1)
        total += math.exp(lg_n - log_multinomial + float((counts_arr * log_p).sum()))
    return total


def test_compositions_are_all_of_them_in_lexicographic_order(monkeypatch):
    for n, m in ((0, 3), (1, 3), (6, 3), (5, 4), (3, 7), (2, 12), (40, 3)):
        comp = _compositions(n, m, range(n + 1))
        assert comp.shape == (math.comb(n + m - 1, m - 1), m)
        every = [c for c in itertools.product(range(n + 1), repeat=m) if sum(c) == n]
        assert [tuple(row) for row in comp.tolist()] == every
        for block in (1, 64, 1 << 13):
            monkeypatch.setattr(decolab.histories, "_COMPOSITION_BLOCK", block)
            cuts = list(decolab.histories._composition_blocks(n, m))
            blocks = [_compositions(n, m, parts, prefix) for prefix, parts in cuts]
            assert all(len(parts) > 0 for _prefix, parts in cuts)
            assert max(b.size for b in blocks) <= max(block, m)
            assert np.array_equal(np.concatenate(blocks), comp)


# p and epsilon of the graham_m3 scenario of perfbench's histories workload
# at seed 0.
_GRAHAM_M3_SEED0 = [0.3522140957260531, 0.2704954408791542, 0.37729046339479266]
_GRAHAM_M3_SEED0_EPS = 0.0687507715727785


def test_graham_multinomial_matches_composition_loop_bitwise(monkeypatch):
    rng = np.random.default_rng(31337)
    largest_n = {3: 250, 4: 30, 5: 15, 6: 10, 7: 8, 8: 7, 9: 6, 10: 5, 11: 5, 12: 4}
    cases = [(3, n) for n in (1, 2, 3, 7, 20, 64, 150, 250)]
    cases += [(m, int(rng.integers(1, largest_n[m] + 1))) for m in range(4, 13) for _ in range(2)]
    cases += [(m, largest_n[m]) for m in range(4, 13)]
    drawn = []
    for m, n in cases:
        p = rng.dirichlet(np.ones(m))
        if rng.random() < 0.4:
            p[rng.choice(m, size=int(rng.integers(1, m - 1)), replace=False)] = 0.0
            p /= p.sum()
        drawn += [(p, n, eps) for eps in (float(rng.uniform(0.02, 0.4)), 0.9, 1.5)]
    # terms skipped as too small to move the sum: the seed-0 graham_m3
    # workload case, most of whose terms are skipped at n = 300; outcomes
    # far apart in probability; and terms that underflow to 0.0
    drawn += [
        (_GRAHAM_M3_SEED0, 300, _GRAHAM_M3_SEED0_EPS),
        ([0.98, 0.01, 0.01], 200, 1e-3),
        ([1.0 - 2e-6, 1e-6, 1e-6], 250, 0.05),
    ]
    for p, n, eps in drawn:
        ref = _reference_graham(p, n, eps)
        assert graham_deviant_norm(p, n, eps) == ref
        with monkeypatch.context() as mp:
            mp.setattr(decolab.histories, "_COMPOSITION_BLOCK", 1)  # one row per block
            assert graham_deviant_norm(p, n, eps) == ref
    # epsilon hit exactly by a relative frequency: 6/8 - 1/2 == 1/4
    p, n, eps = [0.5, 0.25, 0.25], 8, 0.25
    assert np.abs(_compositions(n, 3, range(n + 1)) / n - p).max(axis=1).tolist().count(eps) > 0
    assert graham_deviant_norm(p, n, eps) == _reference_graham(p, n, eps)
    assert graham_deviant_norm(p, n, eps) > graham_deviant_norm(p, n, np.nextafter(eps, 1.0))


def test_graham_takes_exp_only_of_terms_that_can_move_the_sum(monkeypatch):
    # 44 190 of the 45 451 compositions of 300 into three parts are deviant;
    # most of them lie too far below an earlier term to change the sum
    calls = []

    class CountingMath:
        def __getattr__(self, name):
            return getattr(math, name)

        @staticmethod
        def exp(x):
            calls.append(x)
            return math.exp(x)

    want = graham_deviant_norm(_GRAHAM_M3_SEED0, 300, _GRAHAM_M3_SEED0_EPS)
    monkeypatch.setattr(decolab.histories, "math", CountingMath())
    assert graham_deviant_norm(_GRAHAM_M3_SEED0, 300, _GRAHAM_M3_SEED0_EPS) == want
    assert 0 < len(calls) < 44_190 // 2


def _reference_binomial(p1, n, eps):
    """Binomial deviant weight, one math.comb per deviant success count."""
    ks = np.arange(n + 1)
    deviant = np.abs(ks / n - p1) >= eps
    if not deviant.any():
        return 0.0
    if p1 == 0.0 or p1 == 1.0:
        return float(abs(round(n * p1) / n - p1) >= eps)
    total = 0.0
    for k in ks[deviant].tolist():
        total += math.comb(n, k) * p1**k * (1.0 - p1) ** (n - k)
    return total


def _reference_log_binomial(p1, n, eps):
    """Binomial deviant weight from one list of lgamma sums over the deviant counts."""
    ks = np.arange(n + 1)
    deviant = ks[np.abs(ks / n - p1) >= eps]
    logs = (
        math.lgamma(n + 1)
        - np.array([math.lgamma(k + 1) + math.lgamma(n - k + 1) for k in deviant.tolist()])
        + deviant * math.log(p1)
        + (n - deviant) * math.log1p(-p1)
    )
    peak = logs.max()
    return float(math.exp(peak) * np.exp(logs - peak).sum())


def test_graham_binomial_matches_the_comb_loop_bitwise():
    # 0.25 and 0.5 - 0.25 are hit exactly by relative frequencies k / n
    # (every n up to 1000 at more pairs is the CI graham soak)
    for n in range(1, 1001):
        assert graham_deviant_norm([0.5, 0.5], n, 0.25) == _reference_binomial(0.5, n, 0.25)
    pairs = ((0.3, 0.05), (0.123, 0.1), (0.999, 0.0005), (0.0, 0.5), (1.0, 0.01))
    for i, (p1, eps) in enumerate(pairs):
        for n in (*range(1 + i, 1001, 29), 999, 1000):
            assert graham_deviant_norm([p1, 1.0 - p1], n, eps) == _reference_binomial(p1, n, eps)
    assert graham_deviant_norm([0.5, 0.5], 8, 0.25) > graham_deviant_norm([0.5, 0.5], 8, np.nextafter(0.25, 1.0))


def test_graham_log_route_matches_the_lgamma_list_bitwise(monkeypatch):
    # deviant counts on both sides, only below, only above, and at p = 1/2
    cases = ((0.3, 1e-4, 200_000), (0.9, 0.3, 5000), (0.1, 0.3, 5000), (0.5, 0.05, 4000), (0.37, 0.01, 1001))
    for p1, eps, n in cases:
        ref = _reference_log_binomial(p1, n, eps)
        assert graham_deviant_norm([p1, 1.0 - p1], n, eps) == ref
        with monkeypatch.context() as mp:
            mp.setattr(decolab.histories, "_LOG_BLOCK", 7)  # blocks that end off the seams
            if n < 10_000:
                assert graham_deviant_norm([p1, 1.0 - p1], n, eps) == ref
    assert graham_deviant_norm([0.5, 0.5], 4000, 0.6) == 0.0


def test_graham_log_route_reads_mirrored_lgamma_sums_bitwise():
    # the route computes lgamma(k+1) + lgamma(n-k+1) once for k and n - k,
    # the same float since addition commutes: every bit of the formula stays
    # whether the deviant counts lie on both sides of n / 2, below it only,
    # or above it only, with p1 on either side of 1/2
    cases = [(n, p1, eps) for n in (1001, 10**5) for p1, eps in (
        (0.3, 1e-3), (0.7, 1e-3), (0.45, 0.2), (0.55, 0.2), (0.9, 0.3), (0.1, 0.3), (0.5, 0.01),
    )]
    cases += [(10**6, 0.3, 1e-4), (10**6, 0.8, 0.25), (10**6, 0.2, 0.25)]
    for n, p1, eps in cases:
        want = _reference_log_binomial(p1, n, eps)
        assert graham_deviant_norm([p1, 1.0 - p1], n, eps).hex() == want.hex(), (n, p1, eps)


def test_row_sums_add_in_numpy_row_order_bitwise():
    rng = np.random.default_rng(5)
    for m in (1, 2, 3, 5, 7, 8, 9, 16, 130):
        for rows in (1, 2, 37, 200):
            terms = rng.normal(size=(m, rows)) * 10.0 ** rng.integers(-8, 9, size=(m, rows))
            want = np.ascontiguousarray(terms.T).sum(axis=1)
            assert decolab.histories._row_sums(terms).tobytes() == want.tobytes()


def test_graham_decreases_with_n():
    values = [graham_deviant_norm([0.5, 0.5], 25 * 4**j, 0.1) for j in range(5)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_graham_input_validation():
    with pytest.raises(ValidationError):
        graham_deviant_norm([0.5, 0.6], 10, 0.1)
    with pytest.raises(ValidationError):
        graham_deviant_norm([0.5, 0.5], 0, 0.1)
    with pytest.raises(ValidationError):
        graham_deviant_norm([0.5, 0.5], 10, 0.0)


def test_operator_checks_reject_non_finite_entries():
    sp = TensorSpace((("q", 2),))
    bad = np.array([[np.nan, 0.0], [0.0, 1.0]], dtype=complex)
    for make in (Hamiltonian, DensityOperator, lambda space, m: ProjectorSet(space, (m,))):
        with pytest.raises(ValidationError, match="non-finite"):
            make(sp, bad)
