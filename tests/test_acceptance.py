"""Acceptance suite: one test per published criterion, stated tolerances only.

Each test prints one `[acceptance] criterion NN PASS/FAIL` line; `pytest -v`
additionally shows one PASSED/FAILED row per criterion.
"""

import csv
import json
import math
from contextlib import contextmanager

import numpy as np
import scipy.stats

from decolab import cli
from decolab.dynamics import Hamiltonian, collapse, propagator, schrodinger_evolve, von_neumann_evolve
from decolab.entanglement import (
    decoherence_factor,
    ensemble_entropy,
    linear_entropy,
    schmidt_decompose,
    shannon_entropy,
)
from decolab.hilbert import (
    DensityOperator,
    StateVector,
    TensorSpace,
    basis_state,
    computational_basis,
    partial_trace,
    random_state,
)
from decolab.histories import (
    HistorySpec,
    ProjectorSet,
    RateMatrix,
    consistency_defect,
    enumerate_histories,
    graham_deviant_norm,
    history_probability,
    pauli_master_evolve,
)
from decolab.ledger import (
    branching_ledger,
    classical_ledger,
    copy_to_memory,
    initial_classical_joint,
    quantum_collapse_ledger,
    reset_memory,
)
from decolab.wigner import marginals, oscillator_state, wigner_transform, wigner_via_kernel
from dense_registers import (
    ApparatusModel,
    BranchingModel,
    ChainSpec,
    branch_and_recohere,
    chain_propagate,
    embed_matrix,
    premeasure,
)

RNG = np.random.default_rng(20240401)
LN2 = math.log(2.0)


@contextmanager
def criterion(num, title):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num:02d} FAIL {title}")
        raise
    print(f"[acceptance] criterion {num:02d} PASS {title}")


def _random_hermitian(d):
    m = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
    return (m + m.conj().T) / 2


def _random_unitary(d):
    m = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
    q, r = np.linalg.qr(m)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _uniform(space):
    d = space.total_dim
    return StateVector(space, np.ones(d, dtype=complex) / math.sqrt(d))


def _run_table(tmp_path, kind, params, table):
    """The rows of ``table``, as dicts of floats, written by ``decolab run``
    on a scenario of ``kind``."""
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps({"schema": "decolab/scenario/v1", "kind": kind, "params": params}))
    out = tmp_path / kind
    assert cli.run(str(path), out_dir=str(out)) == 0
    with open(out / table, newline="") as fh:
        return [{key: float(value) for key, value in row.items()} for row in csv.DictReader(fh)]


def test_criterion_01_unitarity_and_purity():
    with criterion(1, "norm and purity conserved across all unitary operations"):
        scenarios = 0

        # closed evolution, state-vector and density routes
        for _ in range(120):
            d = int(RNG.integers(2, 65))
            sp = TensorSpace((("s", d),))
            h = Hamiltonian(sp, _random_hermitian(d))
            psi = random_state(sp, RNG)
            t = float(RNG.normal(scale=2.0))
            psi_t = schrodinger_evolve(h, psi, t)
            assert abs(psi_t.norm() - 1.0) <= 1e-10
            rho_t = von_neumann_evolve(h, psi.density(), t)
            assert abs(rho_t.purity() - 1.0) <= 1e-10
            scenarios += 1

        # entangling measurement interaction
        for _ in range(40):
            d = int(RNG.integers(2, 8))
            sp = TensorSpace((("system", d),))
            g = float(RNG.uniform(0.0, 0.9))
            app = ApparatusModel.with_overlap("ptr", d, g)
            joint = premeasure(random_state(sp, RNG), app, computational_basis(sp))
            assert abs(joint.norm() - 1.0) <= 1e-10
            assert abs(joint.norm() ** 4 - 1.0) <= 1e-10
            scenarios += 1

        # observation chains
        for _ in range(25):
            k = int(RNG.integers(1, 3))
            spec = ChainSpec.from_scenario(
                {
                    "system_dim": 2,
                    "links": [{"overlap": float(RNG.uniform(0, 0.95))} for _ in range(k)],
                    "observer": {},
                }
            )
            for state in chain_propagate(spec, random_state(spec.system_space, RNG)):
                assert abs(state.norm() - 1.0) <= 1e-10
            scenarios += 1

        # branch and recohere cycle
        model = BranchingModel.ideal(2)
        sys_space = model.system_space
        for _ in range(15):
            initial = model.ready_joint(random_state(sys_space, RNG))
            for state in branch_and_recohere(initial, model):
                assert abs(state.norm() - 1.0) <= 1e-10
            scenarios += 1

        assert scenarios >= 200


def test_criterion_02_partial_trace_contract():
    with criterion(2, "reduced states reproduce lifted local expectations"):
        sp = TensorSpace((("a", 2), ("b", 2), ("c", 2)))
        keeps = (("a",), ("b",), ("c",), ("a", "c"))
        for _ in range(8):
            psi = random_state(sp, RNG)
            for keep in keeps:
                sub = sp.subspace(keep)
                rho = partial_trace(psi, keep)
                for _ in range(16):
                    a = _random_hermitian(sub.total_dim)
                    lifted = embed_matrix(a, sub, sp)
                    lhs = float(np.trace(rho.matrix @ a).real)
                    rhs = float(np.vdot(psi.amplitudes, lifted @ psi.amplitudes).real)
                    assert abs(lhs - rhs) <= 1e-10

        bell_space = TensorSpace((("a", 2), ("b", 2)))
        bell = StateVector(bell_space, np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2))
        reduced = partial_trace(bell, "a")
        assert np.abs(reduced.matrix - np.eye(2) / 2).max() <= 1e-12
        assert abs(linear_entropy(reduced) - 0.5) <= 1e-12


def test_criterion_03_schmidt_suite():
    with criterion(3, "Schmidt reconstruction, spectrum match, local-unitary invariance"):
        for case in range(100):
            da = int(RNG.integers(2, 7))
            db = int(RNG.integers(2, 8))
            sp = TensorSpace((("a", da), ("b", db)))
            psi = random_state(sp, RNG)
            dec = schmidt_decompose(psi, ["a"])

            err = np.abs(dec.reconstruct().amplitudes - psi.amplitudes).max()
            assert err < 1e-10

            eig = np.sort(partial_trace(psi, "a").eigenvalues())[::-1]
            k = dec.probabilities.size
            assert np.abs(dec.probabilities - eig[:k]).max() <= 1e-10

            ua, ub = _random_unitary(da), _random_unitary(db)
            rotated = StateVector(sp, np.kron(ua, ub) @ psi.amplitudes)
            dec_rot = schmidt_decompose(rotated, ["a"])
            n = min(dec.coefficients.size, dec_rot.coefficients.size)
            assert np.abs(dec.coefficients[:n] - dec_rot.coefficients[:n]).max() <= 1e-10


def test_criterion_04_wigner_suite():
    with criterion(4, "Wigner peaks, positivity, marginals, kernel cross-check"):
        ground = oscillator_state(0)
        w = wigner_transform(ground)
        mid = 128
        assert abs(w.values[mid, mid] - 1 / math.pi) <= 1e-4
        assert w.values.min() >= -1e-9 * w.values.max()

        excited = oscillator_state(1)
        we = wigner_transform(excited)
        assert abs(we.values[mid, mid] + 1 / math.pi) <= 1e-4

        for state, wg in ((ground, w), (excited, we)):
            assert abs(wg.values.sum() * wg.dq * wg.dp - 1.0) <= 1e-6
            pos, mom = marginals(wg)
            assert np.abs(pos - np.abs(state.values) ** 2).max() <= 1e-6
        analytic_mom = np.exp(-w.p_grid**2) / math.sqrt(math.pi)
        assert np.abs(marginals(w)[1] - analytic_mom).max() <= 1e-6

        for state in (ground, excited):
            direct = wigner_via_kernel(state)
            assert np.abs(direct - wigner_transform(state).values).max() <= 1e-8


def test_criterion_05_decoherence_dial(tmp_path):
    with criterion(5, "chain off-diagonal equals 0.5 g^k"):
        for g in (0.0, 0.25, 0.5, 0.9):
            spec = ChainSpec.from_scenario(
                {
                    "system_dim": 2,
                    "links": [{"overlap": g}] * 5,
                    "observer": {},
                }
            )
            states = chain_propagate(spec, _uniform(spec.system_space))
            basis = computational_basis(spec.system_space)
            for k in range(1, 6):
                off, _ = decoherence_factor(partial_trace(states[k], "system"), basis)
                assert abs(off[0, 1] - 0.5 * abs(g) ** k) <= 1e-12
            # what a chain run writes: one row of chain.csv per link
            uniform = [1.0 / math.sqrt(2.0)] * 2
            rows = _run_table(tmp_path, "chain", {"amplitudes": uniform, "links": 5, "overlap": g}, "chain.csv")
            assert [row["step"] for row in rows] == [1, 2, 3, 4, 5]
            for k, row in enumerate(rows, start=1):
                assert abs(row["off_diagonal"] - 0.5 * abs(g) ** k) <= 1e-12


def test_criterion_06_recoherence(tmp_path):
    with criterion(6, "apparatus returns to ready while the system stays mixed"):
        for n in (2, 3):
            model = BranchingModel.ideal(n)
            sys_space = model.system_space
            initial = model.ready_joint(_uniform(sys_space))
            _s1, _s2, s3 = branch_and_recohere(initial, model)
            rho_app = partial_trace(s3, "apparatus")
            ready = model.apparatus.pointer_ready.amplitudes
            fidelity = float(np.vdot(ready, rho_app.matrix @ ready).real)
            assert abs(fidelity - 1.0) <= 1e-10
            rho_sys = partial_trace(s3, "system")
            assert np.abs(rho_sys.matrix - np.eye(n) / n).max() <= 1e-10
            # what a branch_recohere run writes at step 3, after the reset
            uniform = [1.0 / math.sqrt(n)] * n
            rows = _run_table(tmp_path, "branch_recohere", {"amplitudes": uniform}, "branch.csv")
            assert rows[3]["step"] == 3
            assert abs(rows[3]["apparatus_fidelity"] - 1.0) <= 1e-10
            assert abs(rows[3]["system_linear_entropy"] - (1.0 - 1.0 / n)) <= 1e-10


def test_criterion_07_master_equation_suite():
    with criterion(7, "rate dynamics: analytic match, simplex, semigroup, fixed point"):
        gamma = 0.6
        rates = RateMatrix(np.array([[0.0, gamma], [gamma, 0.0]]))
        p0 = np.array([0.85, 0.15])
        for t in np.linspace(0.0, 4.0, 20):
            p = pauli_master_evolve(p0, rates, float(t))
            exact = 0.5 + (p0[0] - 0.5) * math.exp(-2 * gamma * float(t))
            assert abs(p[0] - exact) <= 1e-10
            assert p.min() >= -1e-10
            assert abs(p.sum() - 1.0) <= 1e-10

        a = RNG.uniform(0.1, 1.0, size=(4, 4))
        a = (a + a.T) / 2
        np.fill_diagonal(a, 0.0)
        sym = RateMatrix(a)
        q0 = np.array([0.4, 0.3, 0.2, 0.1])
        two_step = pauli_master_evolve(pauli_master_evolve(q0, sym, 0.7), sym, 0.5)
        one_step = pauli_master_evolve(q0, sym, 1.2)
        assert np.abs(two_step - one_step).max() <= 1e-10

        uniform = np.full(4, 0.25)
        assert np.abs(pauli_master_evolve(uniform, sym, 9.0) - uniform).max() <= 1e-10


def test_criterion_08_histories_suite():
    with criterion(8, "history chains: normalization, oracle match, interference defect"):
        sp = TensorSpace((("s", 2),))
        basis = computational_basis(sp)
        pset = ProjectorSet.from_basis(basis)

        for _ in range(10):
            h = Hamiltonian(sp, _random_hermitian(2))
            amps = random_state(sp, RNG)
            times = tuple(np.sort(RNG.uniform(0.1, 3.0, size=3)))
            if len(set(times)) < 3:
                continue
            spec = HistorySpec(
                hamiltonian=h,
                initial_state=amps.density(),
                times=times,
                projector_sets=(pset, pset, pset),
            )
            total = 0.0
            for hist in enumerate_histories(spec):
                p = history_probability(spec, hist)
                total += p

                # oracle: evolve, project, renormalize, multiply branch weights
                rho = spec.initial_state.matrix
                weight, t_prev = 1.0, 0.0
                for t, n in zip(spec.times, hist):
                    u = propagator(h, t - t_prev)
                    rho = u @ rho @ u.conj().T
                    proj = np.outer(basis[n].amplitudes, basis[n].amplitudes.conj())
                    prob = float(np.trace(proj @ rho).real)
                    weight *= max(prob, 0.0)
                    if weight <= 1e-300:
                        weight = 0.0
                        break
                    rho = proj @ rho @ proj / prob
                    t_prev = t
                assert abs(p - weight) <= 1e-12
            assert abs(total - 1.0) <= 1e-10

        interfering = HistorySpec(
            hamiltonian=Hamiltonian(sp, np.array([[0, 1], [1, 0]], dtype=complex)),
            initial_state=basis_state(sp, 0).density(),
            times=(math.pi / 4, math.pi / 2),
            projector_sets=(pset, pset),
        )
        assert consistency_defect(interfering) > 0.1


def test_criterion_09_graham_suite():
    with criterion(9, "deviant-branch norms: exact value, binomial oracle, decrease"):
        assert graham_deviant_norm([0.5, 0.5], 4, 0.3) == 0.125

        for n in (3, 10, 47, 150, 512, 1000):
            for p1 in (0.5, 0.2):
                for eps in (0.05, 0.2):
                    k = np.arange(n + 1)
                    mask = np.abs(k / n - p1) >= eps
                    oracle = float(scipy.stats.binom.pmf(k[mask], n, p1).sum())
                    assert abs(graham_deviant_norm([p1, 1 - p1], n, eps) - oracle) <= 1e-12

        values = [graham_deviant_norm([0.5, 0.5], 25 * 4**j, 0.1) for j in range(5)]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_criterion_10_ledger_suite():
    with criterion(10, "entropy ledgers: classical, collapse, branching, reset bound"):
        classical = classical_ledger(np.array([0.5, 0.5]))
        assert abs(classical[0].s_ensemble - LN2) <= 1e-12
        assert abs(classical[1].s_ensemble - LN2) <= 1e-12  # deterministic copy conserves

        quantum = quantum_collapse_ledger(np.array([1.0, 1.0]) / math.sqrt(2))
        assert abs(quantum[0].s_ensemble) <= 1e-12
        assert abs((classical[0].s_ensemble - quantum[0].s_ensemble) - LN2) <= 1e-12
        assert abs(quantum[2].s_ensemble - LN2) <= 1e-12  # mixture step restores ln 2

        asym = quantum_collapse_ledger(np.array([math.sqrt(0.9), math.sqrt(0.1)]))
        rise = asym[2].s_ensemble - asym[1].s_ensemble
        assert abs(rise - shannon_entropy([0.9, 0.1])) <= 1e-12

        branching = branching_ledger(np.array([1.0, 1.0]) / math.sqrt(2))
        for row in branching:
            assert abs(row.s_ensemble) <= 1e-10
            assert row.s_physical >= row.s_ensemble - 1e-12

        for p in (np.array([0.5, 0.5]), np.array([0.3, 0.7])):
            joint0 = initial_classical_joint(p)
            recycled = reset_memory(copy_to_memory(joint0))
            gain = recycled.marginal_entropy("environment") - joint0.marginal_entropy(
                "environment"
            )
            assert abs(gain - shannon_entropy(p)) <= 1e-12
            assert recycled.marginal_entropy("memory") <= 1e-12


def test_criterion_11_collapse_statistics():
    with criterion(11, "Born-rule frequencies and repeatability"):
        sp = TensorSpace((("s", 4),))
        basis = computational_basis(sp)
        trials = 10_000
        cases = (
            np.array([0.5, 0.5, 0.5, 0.5], dtype=complex),
            np.array([math.sqrt(0.4), math.sqrt(0.3), math.sqrt(0.2), math.sqrt(0.1)],
                     dtype=complex),
        )
        for base, amps in enumerate(cases):
            psi = StateVector(sp, amps)
            born = np.abs(amps) ** 2
            counts = np.zeros(4)
            for i in range(trials):
                counts[collapse(psi, basis, seed=base * trials + i).outcome_index] += 1
            result = scipy.stats.chisquare(counts, born * trials)
            assert result.pvalue > 0.01

        psi = StateVector(sp, cases[1])
        for i in range(100):
            first = collapse(psi, basis, seed=i)
            second = collapse(first.post_state, basis, seed=10_000 + i)
            assert second.outcome_index == first.outcome_index
            assert abs(second.outcome_probability - 1.0) <= 1e-12
