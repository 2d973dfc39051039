"""Entropy bookkeeping for classical, collapse, and branching measurements."""

import json
import math

import numpy as np
import pytest

from decolab.dynamics import luders_project
from decolab.entanglement import ensemble_entropy, entropy_bits, shannon_entropy
from decolab import cli, ledger, serialize
from decolab.errors import CROSS_ATOL, MIN_BRANCH_PROBABILITY, ValidationError
from decolab.entanglement import SCHMIDT_CUTOFF
from decolab.hilbert import (
    StateVector,
    TensorSpace,
    computational_basis,
    partial_trace,
    tensor,
)
from decolab.histories import ProjectorSet, decohere_projectors
from decolab.measurement import BRANCH_CYCLE
from decolab.ledger import (
    ClassicalJoint,
    LedgerRow,
    branching_ledger,
    classical_ledger,
    copy_to_memory,
    initial_classical_joint,
    quantum_collapse_ledger,
    reset_memory,
)
from dense_registers import ApparatusModel, BranchingModel, branch_and_recohere, embed_matrix, premeasure

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
    # an ideal pointer's marginal and the system's it decohered both have the
    # spectrum |c|^2: the squared Schmidt coefficients of the joint state,
    # those at or below SCHMIDT_CUTOFF dropped
    rng = np.random.default_rng(12)
    for n, tiny in ((4, False), (5, True)):
        c = rng.normal(size=n) + 1j * rng.normal(size=n)
        c[0] = 0.0
        if tiny:
            c[1] = 1e-13
        c /= np.linalg.norm(c)
        space = TensorSpace((("system", n),))
        joint = premeasure(StateVector(space, c), ApparatusModel.ideal("pointer", n), computational_basis(space))
        want = _dense_marginal_entropies(joint, ("system", "pointer"))
        assert max(abs(w - ledger._spectrum_entropy(c)) for w in want) < CROSS_ATOL
        row = quantum_collapse_ledger(c)[1]
        assert abs(row.s_physical - sum(want)) < CROSS_ATOL
    # one amplitude above the cutoff: a product state, of entropy exactly 0
    assert ledger._spectrum_entropy(np.array([1.0, 1e-13, 0.0])) == 0.0


def test_quantum_ledger_pure_rows_have_exactly_zero_ensemble_entropy():
    rng = np.random.default_rng(5)
    for n in (2, 3, 4):
        amps = rng.normal(size=n) + 1j * rng.normal(size=n)
        initial, entangled = quantum_collapse_ledger(amps / np.linalg.norm(amps))[:2]
        assert (initial.s_ensemble, entangled.s_ensemble) == (0.0, 0.0)


def test_branching_ledger_refuses_an_unnormalized_state(monkeypatch):
    real = ledger._validated_amplitudes
    monkeypatch.setattr(ledger, "_validated_amplitudes", lambda c: 1.01 * real(c))
    for build in (branching_ledger, quantum_collapse_ledger):
        with pytest.raises(ValidationError, match="global purity drifted to 1.0406"):
            build(np.array([1.0, 1.0]) / np.sqrt(2))


def test_branching_ledger_physical_entropy_grows_then_plateaus():
    rows = branching_ledger(np.array([1.0, 1.0]) / np.sqrt(2))
    values = [r.s_physical for r in rows]
    assert values[0] == pytest.approx(0.0, abs=1e-10)
    assert values[1] > values[0] + LN2 - 1e-6
    assert values[2] > values[1]


def test_branching_ledger_validates_its_amplitudes_once(tmp_path, monkeypatch):
    # the cli run writes the rows of branching_ledger, which validates its
    # amplitudes once and builds no register model
    calls = []
    real = ledger._validated_amplitudes
    monkeypatch.setattr(ledger, "_validated_amplitudes", lambda c: calls.append(1) or real(c))
    monkeypatch.setattr(BranchingModel, "ideal", None)
    rows = branching_ledger(np.array([0.6, 0.8]), env_dim=5)
    assert len(calls) == 1
    doc = {"schema": "decolab/scenario/v1", "kind": "ledger_branching", "params": {"amplitudes": [0.6, 0.8], "env_dim": 5}}
    path = tmp_path / "l.json"
    path.write_text(json.dumps(doc))
    assert cli.run(str(path), out_dir=str(tmp_path / "o")) == 0
    assert len(calls) == 2
    text = (tmp_path / "o" / "ledger.csv").read_text().split("\n")
    assert [line.split(",")[0] for line in text[1:-1]] == [r.step for r in rows]
    assert [float(line.split(",")[2]) for line in text[1:-1]] == [r.s_physical for r in rows]


def test_branching_ledger_rejects_small_environment():
    with pytest.raises(ValidationError):
        branching_ledger(np.array([1.0, 1.0, 1.0]) / np.sqrt(3), env_dim=2)


# ---- the closed form against the dense ledger ----


def _dense_marginal_entropies(state, labels):
    """The marginal entropy of each labelled register of a dense state vector,
    from the squared singular values above SCHMIDT_CUTOFF of its amplitude
    tensor with that register's axis first."""
    amps = state.amplitudes.reshape(state.space.dims)
    out = []
    for axis in map(state.space.axis, labels):
        s = np.linalg.svd(np.moveaxis(amps, axis, 0).reshape(amps.shape[axis], -1), compute_uv=False)
        p = s[s > SCHMIDT_CUTOFF] ** 2
        out.append(shannon_entropy(p / p.sum()))
    return out


def _dense_branching_entropies(amplitudes, env_dim):
    """Each row's marginal entropies (system, apparatus, env_record,
    env_reset) of the branching ledger, from the joint states of
    branch_and_recohere."""
    model = BranchingModel.ideal(len(amplitudes), env_dim=env_dim)
    initial = model.ready_joint(StateVector(model.system_space, amplitudes))
    states = (initial,) + branch_and_recohere(initial, model)
    return [_dense_marginal_entropies(state, initial.space.labels) for state in states]


def _closed_form_entropies(c, cycle):
    """Each row's marginal entropies in the closed form: the system's, then
    each register's, of the spectrum |c|^2 or, for a ready register and a
    system that no register decohered, exactly 0."""
    h = ledger._spectrum_entropy(c)
    return [[0.0 if np.prod(overlaps) == 1.0 else h] + [0.0 if g == 1.0 else h for g in overlaps] for overlaps in cycle]


def _ledger_deviation(amplitudes, env_dim):
    """The largest deviation of the branching and quantum ledgers from the
    dense route; every marginal entropy that is exactly 0 there must be
    exactly 0 here, and every ensemble entropy of a pure row exactly 0."""
    c = np.asarray(amplitudes, dtype=complex)
    system = StateVector(TensorSpace((("system", c.size),)), c)
    dense = _dense_branching_entropies(c, env_dim)
    got = _closed_form_entropies(c, BRANCH_CYCLE)
    app = ApparatusModel.ideal("pointer", c.size)
    states = (tensor(system, app.pointer_ready), premeasure(system, app, computational_basis(system.space)))
    dense += [_dense_marginal_entropies(state, ("system", "pointer")) for state in states]
    got += _closed_form_entropies(c, ((1.0,), (0.0,)))
    dev = 0.0
    for want, have in zip(dense, got, strict=True):
        for w, h in zip(want, have, strict=True):
            assert h == 0.0 or w != 0.0, (want, have)
            assert w == 0.0 or h != 0.0, (want, have)
            dev = max(dev, abs(w - h))
    rows = branching_ledger(c, env_dim=env_dim) + quantum_collapse_ledger(c)[:2]
    assert [r.s_ensemble for r in rows] == [0.0] * 6
    for row, want in zip(rows, dense, strict=True):
        dev = max(dev, abs(row.s_physical - sum(want)), abs(row.s_physical_record_only - sum(want[1:])))
    return dev


def test_ledgers_match_the_dense_route():
    rng = np.random.default_rng(13)
    for n in (2, 3, 4):
        for env_dim, zero in ((None, False), (n + 1, True), (n + 5, False)):
            c = rng.normal(size=n) + 1j * rng.normal(size=n)
            if zero:
                c[rng.integers(n)] = 0.0
            c /= np.linalg.norm(c)
            assert _ledger_deviation(c, env_dim if env_dim else n + 1) < CROSS_ATOL, (n, env_dim)


# ---- CSV emitter ----


def _reference_ledger_csv(rows):
    """The per-value route: serialize.fmt on each field, the bits per value."""
    lines = [
        "step,s_ensemble_nats,s_physical_nats,information_nats,s_physical_record_only_nats,"
        "s_ensemble_bits,s_physical_bits,information_bits"
    ]
    for r in rows:
        nats = (r.s_ensemble, r.s_physical, r.information, r.s_physical_record_only)
        bits = (entropy_bits(r.s_ensemble), entropy_bits(r.s_physical), entropy_bits(r.information))
        lines.append(",".join([r.step] + [serialize.fmt(x) for x in nats + bits]))
    return "\n".join(lines) + "\n"


def test_ledger_csv(tmp_path):
    amps = [0.6, [0.0, 0.48], [0.64, 0.0]]
    for i, (kind, params, rows) in enumerate((
        ("ledger_classical", {"p": [0.5, 0.5]}, classical_ledger(np.array([0.5, 0.5]))),
        ("ledger_classical", {"p": [0.2, 0.0, 0.8]}, classical_ledger(np.array([0.2, 0.0, 0.8]))),
        ("ledger_quantum", {"amplitudes": amps}, quantum_collapse_ledger(np.array([0.6, 0.48j, 0.64]))),
        ("ledger_branching", {"amplitudes": amps, "env_dim": 5},
         branching_ledger(np.array([0.6, 0.48j, 0.64]), env_dim=5)),
    )):
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps({"schema": "decolab/scenario/v1", "kind": kind, "params": params}))
        assert cli.run(str(path), out_dir=str(tmp_path / str(i))) == 0
        assert (tmp_path / str(i) / "ledger.csv").read_text() == _reference_ledger_csv(rows)
    lines = (tmp_path / "0" / "ledger.csv").read_text().strip().split("\n")
    header = lines[0].split(",")
    assert len(lines) == 5
    first = dict(zip(header, lines[1].split(",")))
    assert float(first["s_ensemble_bits"]) == pytest.approx(1.0)
