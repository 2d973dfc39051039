"""Entropy bookkeeping for classical, collapse, and branching measurements."""

import math

import numpy as np
import pytest

from decolab.dynamics import luders_project
from decolab.entanglement import ensemble_entropy, shannon_entropy
from decolab import ledger
from decolab.errors import CROSS_ATOL, MIN_BRANCH_PROBABILITY, ValidationError
from decolab.hilbert import (
    StateVector,
    TensorSpace,
    computational_basis,
    embed_matrix,
    partial_trace,
    tensor,
)
from decolab.histories import ProjectorSet, decohere_projectors
from decolab.measurement import ApparatusModel, premeasure
from decolab.ledger import (
    ClassicalJoint,
    LedgerRow,
    branching_ledger,
    classical_ledger,
    copy_to_memory,
    initial_classical_joint,
    ledger_csv_text,
    quantum_collapse_ledger,
    reset_memory,
)

LN2 = math.log(2.0)


# ---- classical table machinery ----


def test_initial_joint_marginals():
    joint = initial_classical_joint(np.array([0.5, 0.5]))
    assert joint.entropy() == pytest.approx(LN2)
    assert joint.marginal_entropy("system") == pytest.approx(LN2)
    assert joint.marginal_entropy("memory") == 0.0
    assert joint.marginal_entropy("environment") == 0.0


def test_copy_is_deterministic_and_correlates():
    joint = copy_to_memory(initial_classical_joint(np.array([0.3, 0.7])))
    h = shannon_entropy([0.3, 0.7])
    # joint entropy unchanged, marginals now duplicated
    assert joint.entropy() == pytest.approx(h, abs=1e-12)
    assert joint.marginal_entropy("memory") == pytest.approx(h, abs=1e-12)
    assert joint.physical_entropy() == pytest.approx(2 * h, abs=1e-12)


def test_copy_requires_ready_memory():
    joint = copy_to_memory(initial_classical_joint(np.array([0.5, 0.5])))
    with pytest.raises(ValidationError):
        copy_to_memory(joint)


def test_conditioning_reads_out_the_record():
    joint = copy_to_memory(initial_classical_joint(np.array([0.3, 0.7])))
    prob, branch = joint.condition_on_memory(1)
    assert prob == pytest.approx(0.3)
    assert branch.entropy() == pytest.approx(0.0, abs=1e-12)
    assert branch.marginal("system")[0] == pytest.approx(1.0)


def test_reset_moves_record_to_environment():
    p = np.array([0.3, 0.7])
    joint0 = initial_classical_joint(p)
    joint2 = reset_memory(copy_to_memory(joint0))
    h = shannon_entropy(p)
    assert joint2.marginal_entropy("memory") == 0.0
    gain = joint2.marginal_entropy("environment") - joint0.marginal_entropy("environment")
    assert gain == pytest.approx(h, abs=1e-12)
    # deterministic permutation: total ensemble entropy untouched
    assert joint2.entropy() == pytest.approx(h, abs=1e-12)


def test_reset_requires_blank_environment_slot():
    joint = copy_to_memory(initial_classical_joint(np.array([0.5, 0.5])))
    again = reset_memory(joint)
    with pytest.raises(ValidationError):
        reset_memory(copy_to_memory(again))


def test_table_validation():
    bad = np.full((2, 3, 3), 0.25)
    with pytest.raises(ValidationError):
        ClassicalJoint(("a", "b"), ("r", "x", "y"), ("e", "u", "v"), bad)


# ---- ledger rows ----


def test_ledger_row_invariants():
    with pytest.raises(ValidationError):
        LedgerRow("x", s_ensemble=1.0, s_physical=0.5, information=0.0,
                  s_physical_record_only=0.0)
    with pytest.raises(ValidationError):
        LedgerRow("x", s_ensemble=0.0, s_physical=0.0, information=-0.1,
                  s_physical_record_only=0.0)


def test_classical_ledger_symmetric():
    rows = classical_ledger(np.array([0.5, 0.5]))
    steps = [r.step for r in rows]
    assert steps == ["initial", "copied", "read", "reset"]
    assert rows[0].s_ensemble == pytest.approx(LN2)
    assert rows[1].s_ensemble == pytest.approx(LN2, abs=1e-12)  # deterministic copy
    assert rows[2].s_ensemble == pytest.approx(0.0, abs=1e-12)
    assert rows[2].information == pytest.approx(LN2, abs=1e-12)
    assert rows[3].s_ensemble == pytest.approx(LN2, abs=1e-12)
    assert rows[3].information == 0.0
    for r in rows:
        assert r.s_physical >= r.s_ensemble - 1e-12


def test_classical_ledger_asymmetric():
    p = np.array([0.9, 0.1])
    h = shannon_entropy(p)
    rows = classical_ledger(p)
    assert rows[0].s_ensemble == pytest.approx(h, abs=1e-12)
    assert rows[1].s_physical == pytest.approx(2 * h, abs=1e-12)
    assert rows[2].information == pytest.approx(h, abs=1e-12)


def test_classical_ledger_rejects_sharp_distribution():
    with pytest.raises(ValidationError):
        classical_ledger(np.array([1.0, 0.0]))


def test_record_only_column_drops_system_marginal():
    rows = classical_ledger(np.array([0.5, 0.5]))
    # alternative accounting excludes the measured variable itself
    assert rows[0].s_physical_record_only == pytest.approx(0.0, abs=1e-12)
    assert rows[1].s_physical_record_only == pytest.approx(LN2, abs=1e-12)


# ---- quantum collapse ledger ----


def test_quantum_ledger_starts_one_bit_below_classical():
    rows = quantum_collapse_ledger(np.array([1.0, 1.0]) / np.sqrt(2))
    classical = classical_ledger(np.array([0.5, 0.5]))
    assert rows[0].s_ensemble == pytest.approx(0.0, abs=1e-12)
    assert classical[0].s_ensemble - rows[0].s_ensemble == pytest.approx(LN2, abs=1e-12)


def test_quantum_ledger_mixture_step_restores_classical_value():
    rows = quantum_collapse_ledger(np.array([1.0, 1.0]) / np.sqrt(2))
    steps = [r.step for r in rows]
    assert steps == ["initial", "entangled", "mixture", "reduction"]
    assert rows[1].s_ensemble == pytest.approx(0.0, abs=1e-12)  # still pure
    assert rows[2].s_ensemble == pytest.approx(LN2, abs=1e-12)
    assert rows[3].s_ensemble == pytest.approx(0.0, abs=1e-12)
    assert rows[3].information == pytest.approx(LN2, abs=1e-12)


def test_quantum_ledger_asymmetric_rise():
    amps = np.array([math.sqrt(0.9), math.sqrt(0.1)])
    rows = quantum_collapse_ledger(amps)
    rise = rows[2].s_ensemble - rows[1].s_ensemble
    assert rise == pytest.approx(shannon_entropy([0.9, 0.1]), abs=1e-12)
    assert rise == pytest.approx(0.3250829733914482, abs=1e-10)


def _reference_quantum_ledger(amplitudes):
    """(s_ensemble, s_physical, information, s_physical_record_only) per row,
    with the reduction built as D x D sector projectors on the joint space."""
    c = np.asarray(amplitudes, dtype=complex)
    n = c.size
    sys_space = TensorSpace((("system", n),))
    system = StateVector(sys_space, c)
    app = ApparatusModel.ideal("pointer", n)
    labels = ("system", "pointer")

    def marginals(state, names):
        return sum(ensemble_entropy(partial_trace(state, [l])) for l in names)

    rows = []
    for psi in (tensor(system, app.pointer_ready), premeasure(system, app, computational_basis(sys_space))):
        rows.append((0.0, marginals(psi, labels), 0.0, marginals(psi, labels[1:])))
    sector_mats = []
    for j in range(app.space.total_dim):
        local = np.zeros((app.space.total_dim,) * 2, dtype=complex)
        local[j, j] = 1.0
        sector_mats.append(embed_matrix(local, app.space, psi.space))
    rho_mix = decohere_projectors(psi.density(), ProjectorSet(psi.space, tuple(sector_mats)))
    s_mix = ensemble_entropy(rho_mix)
    rows.append((s_mix, marginals(rho_mix, labels), 0.0, marginals(rho_mix, labels[1:])))
    s_red = s_phys_red = s_rec_red = 0.0
    for proj in sector_mats:
        if np.trace(proj @ rho_mix.matrix).real <= MIN_BRANCH_PROBABILITY:
            continue
        branch, prob = luders_project(rho_mix, proj)
        s_red += prob * ensemble_entropy(branch)
        s_phys_red += prob * marginals(branch, labels)
        s_rec_red += prob * marginals(branch, labels[1:])
    rows.append((s_red, s_phys_red, s_mix - s_red, s_rec_red))
    return rows


def test_quantum_ledger_matches_the_sector_projector_route():
    rng = np.random.default_rng(11)
    cases = [np.array([0.6, 0.0, 0.8j])] + [
        rng.normal(size=n) + 1j * rng.normal(size=n) for n in (2, 3, 5, 7)
    ]
    for amps in cases:
        amps = amps / np.linalg.norm(amps)
        rows = quantum_collapse_ledger(amps)
        for row, ref in zip(rows, _reference_quantum_ledger(amps)):
            got = (row.s_ensemble, row.s_physical, row.information, row.s_physical_record_only)
            assert np.abs(np.subtract(got, ref)).max() < CROSS_ATOL, row.step
        reduction = rows[3]
        assert (reduction.s_ensemble, reduction.s_physical, reduction.s_physical_record_only) == (
            0.0, 0.0, 0.0,
        )
        assert reduction.information == rows[2].s_ensemble


def test_quantum_ledger_rejects_unnormalized():
    with pytest.raises(ValidationError):
        quantum_collapse_ledger(np.array([1.0, 1.0]))


# ---- branching ledger ----


def test_branching_ledger_stays_pure():
    rows = branching_ledger(np.array([1.0, 1.0]) / np.sqrt(2))
    for r in rows:
        assert abs(r.s_ensemble) < 1e-10
        assert r.s_physical >= r.s_ensemble - 1e-12


def test_branching_ledger_ensemble_entropy_is_exactly_zero():
    rows = branching_ledger(np.array([0.6, 0.0, 0.8j]), env_dim=5)
    assert [r.s_ensemble for r in rows] == [0.0] * 4


def test_pure_product_rows_have_exactly_zero_marginal_entropy():
    # system (x) ready apparatus (x) blank environment: every marginal is pure
    initial = branching_ledger(np.array([0.6, 0.8j]), env_dim=7)[0]
    assert (initial.s_physical, initial.s_physical_record_only) == (0.0, 0.0)
    initial = quantum_collapse_ledger(np.array([0.6, 0.8j]))[0]
    assert (initial.s_physical, initial.s_physical_record_only) == (0.0, 0.0)


def test_marginal_entropy_sum_reads_the_schmidt_spectra():
    rng = np.random.default_rng(12)
    parts = []
    for label, d in (("a", 3), ("b", 4), ("c", 5)):
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        parts.append(StateVector(TensorSpace(((label, d),)), v / np.linalg.norm(v)))
    product = tensor(tensor(parts[0], parts[1]), parts[2])
    # a rotated product state: the singular values beyond the first are
    # round-off, below SCHMIDT_CUTOFF, so the sum is an exact 0
    assert ledger._marginal_entropy_sum(product, ["a", "b", "c"]) == 0.0
    amps = rng.normal(size=60) + 1j * rng.normal(size=60)
    psi = StateVector(product.space, amps / np.linalg.norm(amps))
    want = sum(
        shannon_entropy(np.clip(partial_trace(psi, label).eigenvalues(), 0.0, None))
        for label in ("a", "c")
    )
    assert abs(ledger._marginal_entropy_sum(psi, ["a", "c"]) - want) < CROSS_ATOL


def test_quantum_ledger_pure_rows_have_exactly_zero_ensemble_entropy():
    rng = np.random.default_rng(5)
    for n in (2, 3, 4):
        amps = rng.normal(size=n) + 1j * rng.normal(size=n)
        initial, entangled = quantum_collapse_ledger(amps / np.linalg.norm(amps))[:2]
        assert (initial.s_ensemble, entangled.s_ensemble) == (0.0, 0.0)


def test_branching_ledger_refuses_an_unnormalized_state(monkeypatch):
    real = ledger.branch_and_recohere

    def leaky(initial, model):
        s1, s2, s3 = real(initial, model)
        return s1, StateVector(s2.space, 1.01 * s2.amplitudes), s3

    monkeypatch.setattr(ledger, "branch_and_recohere", leaky)
    with pytest.raises(ValidationError, match="normalization"):
        branching_ledger(np.array([1.0, 1.0]) / np.sqrt(2))


def test_branching_ledger_physical_entropy_grows_then_plateaus():
    rows = branching_ledger(np.array([1.0, 1.0]) / np.sqrt(2))
    values = [r.s_physical for r in rows]
    assert values[0] == pytest.approx(0.0, abs=1e-10)
    assert values[1] > values[0] + LN2 - 1e-6
    assert values[2] > values[1]


def test_branching_ledger_rejects_small_environment():
    with pytest.raises(ValidationError):
        branching_ledger(np.array([1.0, 1.0, 1.0]) / np.sqrt(3), env_dim=2)


# ---- CSV emitter ----


def test_ledger_csv():
    rows = classical_ledger(np.array([0.5, 0.5]))
    lines = ledger_csv_text(rows).strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == "step"
    assert "s_ensemble_nats" in header and "s_ensemble_bits" in header
    assert len(lines) == 5
    first = dict(zip(header, lines[1].split(",")))
    assert float(first["s_ensemble_bits"]) == pytest.approx(1.0)
