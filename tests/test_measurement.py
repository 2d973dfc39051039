"""Pre-measurement unitaries, observation chains, branch/recohere cycle."""

import json

import numpy as np
import pytest

from decolab import cli, measurement, serialize
from decolab.entanglement import decoherence_factor, linear_entropy
from decolab.errors import CROSS_ATOL, VALIDITY_ATOL, SpaceMismatchError, ValidationError
from decolab.hilbert import (
    DensityOperator,
    StateVector,
    TensorSpace,
    basis_state,
    computational_basis,
    embed_matrix,
    partial_trace,
    random_state,
    tensor,
    tensor_many,
)
from decolab.measurement import (
    ApparatusModel,
    BranchingModel,
    BranchForm,
    ChainSpec,
    _complete_orthonormal,
    _controlled_shift,
    _chain_densities,
    _gram_factor,
    _transport_unitary,
    branch_and_recohere,
    branch_forms,
    chain_forms,
    chain_propagate,
    measurement_unitary,
    premeasure,
    premeasure_form,
    record_states_with_overlap,
)

RNG = np.random.default_rng(1003)


def _plus(space):
    d = space.total_dim
    return StateVector(space, np.ones(d, dtype=complex) / np.sqrt(d))


def test_record_states_overlap_matrix():
    for g in (0.0, 0.25, 0.9):
        vecs = record_states_with_overlap(3, g, 5)
        for i in range(3):
            assert np.vdot(vecs[i], vecs[i]).real == pytest.approx(1.0)
            for j in range(i + 1, 3):
                assert np.vdot(vecs[i], vecs[j]) == pytest.approx(g, abs=1e-12)


def test_apparatus_overlaps_and_shifts_are_computed_on_demand():
    app = ApparatusModel.with_overlap("r", 3, 0.4, dim=6)
    # the model keeps its states only; the overlaps the register kinds read
    # are the Gram matrix of the pointer stack
    assert set(vars(app)) == {"space", "pointer_ready", "pointers"}
    assert app.pointers.shape == (3, 6) and app.n_outcomes == 3
    want = [[np.vdot(a, b) for b in app.pointers] for a in app.pointers]
    gram = measurement._gram(app.pointers)
    assert np.abs(gram - np.array(want)).max() < CROSS_ATOL
    # one completion of the ready state serves every shift, bit for bit
    ready = app.pointer_ready.amplitudes
    for v_n, p in zip(app.shift_unitaries(), app.pointers):
        assert np.array_equal(v_n, _transport_unitary([ready], [p]))
    with pytest.raises(TypeError):
        ApparatusModel(app.space, app.pointer_ready, app.pointers, np.eye(3))


def test_apparatus_checks_its_pointer_stack_and_keeps_a_copy():
    space = TensorSpace((("ptr", 4),))
    ready = basis_state(space, 0)
    stack = np.eye(3, 4, 1)
    for bad in (stack[0], stack[:, :3], np.eye(3, 5, 1)):  # 1-D, too narrow, too wide
        with pytest.raises(SpaceMismatchError, match="pointer stack"):
            ApparatusModel(space, ready, bad)
    off_norm = stack.copy()
    off_norm[1] *= 1.0 + 1e-6
    nan_row = stack.copy()
    nan_row[2, 3] = np.nan
    for bad in (off_norm, nan_row):
        with pytest.raises(ValidationError, match="not normalized"):
            ApparatusModel(space, ready, bad)
    with pytest.raises(ValidationError, match="not normalized"):
        ApparatusModel(space, StateVector(space, 0.5 * ready.amplitudes), stack)
    app = ApparatusModel(space, ready, stack)
    assert app.pointers.dtype == np.complex128 and not app.pointers.flags.writeable
    stack[0] = np.array([0.0, 0.0, 0.0, 1.0])
    assert np.array_equal(app.pointers, np.eye(3, 4, 1))


def test_record_states_reject_impossible_overlap():
    with pytest.raises(ValidationError):
        record_states_with_overlap(3, -0.9, 4)  # Gram matrix not PSD


def test_record_states_reject_coinciding_records():
    # Overlap 1 makes two or more records one vector (singular Gram matrix).
    for n in (2, 3):
        with pytest.raises(ValidationError, match="positive-definite"):
            record_states_with_overlap(n, 1.0, n + 1)
    (vec,) = record_states_with_overlap(1, 1.0, 2)
    assert np.vdot(vec, vec).real == pytest.approx(1.0)


def test_ideal_apparatus_pointers_orthogonal():
    app = ApparatusModel.ideal("ptr", 3)
    assert app.space.dim_of("ptr") == 4
    for i in range(3):
        for j in range(3):
            expected = 1.0 if i == j else 0.0
            got = np.vdot(app.pointers[i], app.pointers[j])
            assert got == pytest.approx(expected, abs=1e-12)


def test_measurement_unitary_is_unitary():
    sys_space = TensorSpace((("system", 3),))
    app = ApparatusModel.with_overlap("ptr", 3, 0.4)
    u = measurement_unitary(computational_basis(sys_space), app)
    d = u.shape[0]
    assert np.abs(u @ u.conj().T - np.eye(d)).max() < 1e-10


def test_premeasure_ideal_copies_basis_index():
    sys_space = TensorSpace((("system", 2),))
    app = ApparatusModel.ideal("ptr", 2)
    for n in range(2):
        joint = premeasure(basis_state(sys_space, n), app, computational_basis(sys_space))
        expected = np.kron(basis_state(sys_space, n).amplitudes, app.pointers[n])
        assert np.abs(joint.amplitudes - expected).max() < 1e-12


def test_premeasure_extends_linearly():
    """Superpositions entangle instead of collapsing."""
    sys_space = TensorSpace((("system", 2),))
    app = ApparatusModel.ideal("ptr", 2)
    basis = computational_basis(sys_space)
    c = np.array([0.6, 0.8j])
    psi = StateVector(sys_space, c)
    joint = premeasure(psi, app, basis)
    manual = sum(
        c[n] * np.kron(basis[n].amplitudes, app.pointers[n]) for n in range(2)
    )
    assert np.abs(joint.amplitudes - manual).max() < 1e-12
    rho = partial_trace(joint, "system")
    off, pops = decoherence_factor(rho, basis)
    assert off.max() < 1e-12
    assert np.abs(pops - [0.36, 0.64]).max() < 1e-12


def test_premeasure_rejects_busy_apparatus():
    # premeasure appends the ready device, so a state that already holds the
    # device register is refused
    sys_space = TensorSpace((("system", 2),))
    app = ApparatusModel.ideal("ptr", 2)
    joint = premeasure(_plus(sys_space), app, computational_basis(sys_space))
    with pytest.raises(ValidationError, match="label collision"):
        premeasure(joint, app, computational_basis(sys_space))


def test_premeasure_overlap_controls_offdiagonal():
    sys_space = TensorSpace((("system", 2),))
    basis = computational_basis(sys_space)
    for g in (0.0, 0.3, 0.8):
        app = ApparatusModel.with_overlap("ptr", 2, g)
        joint = premeasure(_plus(sys_space), app, basis)
        off, _ = decoherence_factor(partial_trace(joint, "system"), basis)
        assert off[0, 1] == pytest.approx(0.5 * g, abs=1e-12)


def test_chain_spec_from_scenario_reads_links_and_observer():
    spec = ChainSpec.from_scenario(
        {"system_dim": 2, "links": [{"overlap": 0.5}, {"overlap": 0.25}, {}], "observer": {}}
    )
    assert [link.space.labels for link in spec.links] == [("link0",), ("link1",), ("link2",)]
    assert [link.space.total_dim for link in spec.links] == [3, 3, 3]
    overlaps = [np.vdot(link.pointers[0], link.pointers[1]) for link in spec.links]
    assert overlaps == pytest.approx([0.5, 0.25, 0.0], abs=1e-12)
    ideal = ApparatusModel.ideal("observer", 2)
    assert spec.observer.space == ideal.space
    assert np.array_equal(spec.observer.pointers, ideal.pointers)
    assert ChainSpec.from_scenario({"system_dim": 3}).links == ()


def test_chain_offdiagonal_product_of_overlaps():
    spec = ChainSpec.from_scenario(
        {
            "system_dim": 2,
            "links": [{"overlap": 0.9}, {"overlap": 0.5}, {"overlap": 0.2}],
            "observer": {},
        }
    )
    states = chain_propagate(spec, _plus(spec.system_space))
    basis = computational_basis(spec.system_space)
    expected = 0.5
    for k, g in enumerate((0.9, 0.5, 0.2), start=1):
        expected *= g
        off, _ = decoherence_factor(partial_trace(states[k], "system"), basis)
        assert off[0, 1] == pytest.approx(expected, abs=1e-12)


def test_chain_keeps_global_purity():
    spec = ChainSpec.from_scenario(
        {
            "system_dim": 3,
            "links": [{"overlap": 0.3}, {"overlap": 0.6}],
            "observer": {},
        }
    )
    psi = random_state(spec.system_space, RNG)
    for state in chain_propagate(spec, psi):
        assert state.norm() == pytest.approx(1.0, abs=1e-12)


def test_chain_observer_registers_outcome():
    spec = ChainSpec.from_scenario(
        {"system_dim": 2, "links": [{"overlap": 0.0}], "observer": {}}
    )
    states = chain_propagate(spec, basis_state(spec.system_space, 1))
    final = states[-1]
    # sharp input: a single product component with every register on record 1
    idx = int(np.argmax(np.abs(final.amplitudes)))
    assert abs(abs(final.amplitudes[idx]) - 1.0) < 1e-12
    multi = np.unravel_index(idx, final.space.dims)
    assert multi[0] == 1
    assert all(m == 2 for m in multi[1:])  # slot 0 is ready, record n sits at n + 1


def test_branching_model_requires_room_for_records():
    with pytest.raises(ValidationError):
        BranchingModel.ideal(3, env_dim=2)


def test_branch_and_recohere_three_steps():
    model = BranchingModel.ideal(2)
    sys_space = model.system_space
    initial = model.ready_joint(_plus(sys_space))
    s1, s2, s3 = branch_and_recohere(initial, model)
    ready = model.apparatus.pointer_ready.amplitudes

    # step 1 entangles the apparatus, displacing it fully off ready
    rho1 = partial_trace(s1, "apparatus")
    assert np.vdot(ready, rho1.matrix @ ready).real == pytest.approx(0.0, abs=1e-12)
    assert linear_entropy(rho1) == pytest.approx(0.5, abs=1e-12)
    # step 2 spreads the record into the environment
    rho_env = partial_trace(s2, "env_record")
    assert linear_entropy(rho_env) > 0.4
    # step 3 returns the apparatus to ready while the system stays mixed
    rho3 = partial_trace(s3, "apparatus")
    assert np.vdot(ready, rho3.matrix @ ready).real == pytest.approx(1.0, abs=1e-12)
    rho_sys = partial_trace(s3, "system")
    assert linear_entropy(rho_sys) == pytest.approx(0.5, abs=1e-12)


def test_branch_and_recohere_unitary_throughout():
    model = BranchingModel.ideal(3)
    sys_space = model.system_space
    initial = model.ready_joint(random_state(sys_space, RNG))
    for state in branch_and_recohere(initial, model):
        assert state.norm() == pytest.approx(1.0, abs=1e-12)


def _dense_shift(basis, app, full):
    """The controlled shift as a D x D matrix on ``full``."""
    return embed_matrix(measurement_unitary(basis, app), basis[0].space.concat(app.space), full)


def _dense_steps(model):
    """The three steps of the branch cycle as D x D matrices on the joint space."""
    full = model.joint_space()
    basis = computational_basis(model.system_space)
    shifts = [_dense_shift(basis, reg, full) for reg in (model.apparatus, model.env_decohere)]
    reset = model.apparatus.space.concat(model.env_reset.space)
    return shifts + [embed_matrix(model.reset_unitary(), reset, full)]


def test_step_unitaries_are_unitary():
    model = BranchingModel.ideal(2)
    for u in _dense_steps(model):
        d = u.shape[0]
        assert np.abs(u @ u.conj().T - np.eye(d)).max() < 1e-10


def test_chain_propagate_matches_dense_unitaries():
    # registers wider than n + 1, activated in order
    links = tuple(
        ApparatusModel.with_overlap(f"link{i}", 3, g, dim=d) for i, (g, d) in enumerate(((0.4, 4), (0.7, 5), (-0.2, 4)))
    )
    spec = ChainSpec(TensorSpace((("system", 3),)), links, ApparatusModel.ideal("observer", 3, dim=5))
    psi = random_state(spec.system_space, RNG)
    states = chain_propagate(spec, psi)
    full = spec.joint_space()
    basis = computational_basis(spec.system_space)
    amps = states[0].amplitudes
    for app, state in zip(spec.links + (spec.observer,), states[1:]):
        amps = _dense_shift(basis, app, full) @ amps
        assert np.abs(state.amplitudes - amps).max() < CROSS_ATOL


def test_branch_and_recohere_matches_step_unitaries():
    model = BranchingModel.ideal(3, env_dim=6)
    initial = model.ready_joint(random_state(model.system_space, RNG))
    amps = initial.amplitudes
    for u, state in zip(_dense_steps(model), branch_and_recohere(initial, model)):
        amps = u @ amps
        assert np.abs(state.amplitudes - amps).max() < CROSS_ATOL


def _rotated_basis(space, rng):
    """An orthonormal basis of ``space`` from a random unitary: no computational vector."""
    d = space.total_dim
    q, _ = np.linalg.qr(rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d)))
    return tuple(StateVector(space, q[:, k]) for k in range(d))


def test_slice_route_matches_dense_shift_in_a_rotated_basis():
    sys_space = TensorSpace((("system", 3),))
    basis = _rotated_basis(sys_space, RNG)
    app = ApparatusModel.with_overlap("ptr", 3, 0.35, dim=5)
    other = TensorSpace((("other", 2),))
    # the device sits before the system, and the state is not ready: every
    # slice V_n acts on a full device column
    full = app.space.concat(other).concat(sys_space)
    psi = random_state(full, RNG)
    out = _controlled_shift(psi, basis, app)
    assert np.abs(out.amplitudes - _dense_shift(basis, app, full) @ psi.amplitudes).max() < CROSS_ATOL
    # a ready device through premeasure, and a chain of overlapping links
    # shifted in turn
    system = random_state(sys_space, RNG)
    joint = premeasure(system, app, basis)
    ready = tensor(system, app.pointer_ready)
    dense = _dense_shift(basis, app, ready.space) @ ready.amplitudes
    assert np.abs(joint.amplitudes - dense).max() < CROSS_ATOL
    registers = (app, ApparatusModel.with_overlap("link0", 3, -0.3), ApparatusModel.ideal("observer", 3))
    state = tensor_many(system, *(reg.pointer_ready for reg in registers))
    amps = state.amplitudes
    for reg in registers:
        state = _controlled_shift(state, basis, reg)
        amps = _dense_shift(basis, reg, state.space) @ amps
        assert np.abs(state.amplitudes - amps).max() < CROSS_ATOL


def test_premeasure_stores_no_negative_zero():
    # a slice of zero terms can sum to -0.0, which the JSON artifacts would print
    rng = np.random.default_rng(0)
    for n in (2, 3):
        sys_space = TensorSpace((("system", n),))
        for g in (0.0, 0.3, -0.2):
            c = rng.normal(size=n) + 1j * rng.normal(size=n)
            psi = StateVector(sys_space, c / np.linalg.norm(c))
            app = ApparatusModel.with_overlap("pointer", n, g)
            parts = premeasure(psi, app, computational_basis(sys_space)).amplitudes.view(float)
            assert not np.any((parts == 0.0) & np.signbit(parts)), (n, g)


def test_non_unitary_shift_is_refused(monkeypatch):
    sys_space = TensorSpace((("system", 2),))
    app = ApparatusModel.ideal("ptr", 2)
    monkeypatch.setattr(ApparatusModel, "shift_unitaries", lambda self: [np.eye(3), 2 * np.eye(3)])
    with pytest.raises(ValidationError, match="not unitary"):
        premeasure(_plus(sys_space), app, computational_basis(sys_space))


def test_complete_orthonormal_keeps_seeds_and_is_unitary():
    seeds = record_states_with_overlap(2, 0.0, 6)
    rotated = [(seeds[0] + 1j * seeds[1]) / np.sqrt(2), (seeds[0] - 1j * seeds[1]) / np.sqrt(2)]
    for family in (seeds, rotated, [basis_state(TensorSpace((("r", 4),)), 2).amplitudes]):
        b = _complete_orthonormal(family)
        assert np.array_equal(b[:, : len(family)], np.column_stack(family))
        d = b.shape[0]
        assert np.abs(b.conj().T @ b - np.eye(d)).max() < VALIDITY_ATOL
        assert np.array_equal(_complete_orthonormal(family), b)
    with pytest.raises(ValidationError, match="orthonormal"):
        _complete_orthonormal([seeds[0], seeds[0]])


def test_chain_csv_emitter(tmp_path):
    params = {"amplitudes": [0.6, [0.0, 0.48], [0.64, 0.0]], "links": 3, "overlaps": [0.0, 0.3, -0.2]}
    doc = {"schema": "decolab/scenario/v1", "kind": "chain", "params": params}
    path = tmp_path / "c.json"
    path.write_text(json.dumps(doc))
    assert cli.run(str(path), out_dir=str(tmp_path / "o")) == 0
    # the per-value reference: serialize.fmt on each field of each step
    system, spec = cli._parse_document(doc)[1][2]
    forms = chain_forms(spec, system)
    lines = ["step,off_diagonal,system_linear_entropy,global_purity"]
    for step in (1, 2, 3):
        m = forms[step].system_density()
        off = np.abs(m)
        np.fill_diagonal(off, 0.0)
        fields = (off.max(), linear_entropy(DensityOperator(system.space, m)), float(np.trace(m).real) ** 2)
        lines.append(",".join([str(step)] + [serialize.fmt(x) for x in fields]))
    assert (tmp_path / "o" / "chain.csv").read_text() == "\n".join(lines) + "\n"


# ---- the branch form against the dense routes ----


def _random_system(rng, n, zero=False):
    """A random system state on n outcomes; ``zero`` sets one amplitude to 0."""
    c = rng.normal(size=n) + 1j * rng.normal(size=n)
    if zero:
        c[rng.integers(n)] = 0.0
    return StateVector(TensorSpace((("system", n),)), c / np.linalg.norm(c))


def _random_apparatus(rng, label, n, dim):
    """A register whose ready and pointer states are random complex unit
    vectors: complex overlaps, and a ready state off every basis vector."""
    space = TensorSpace(((label, dim),))

    def unit():
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        return v / np.linalg.norm(v)

    return ApparatusModel(space, StateVector(space, unit()), np.array([unit() for _ in range(n)]))


def _random_chain(rng, n, links, extra=2):
    """``links`` links with register dimensions from n + 1 to n + 1 +
    ``extra``: every other link on average has real pointer overlaps of
    either sign, the rest random complex ready and pointer states."""
    lower = -1.0 / (n - 1)
    apps = []
    for i in range(links):
        dim = n + 1 + int(rng.integers(0, extra + 1))
        if rng.random() < 0.5:
            apps.append(ApparatusModel.with_overlap(f"link{i}", n, float(rng.uniform(0.9 * lower, 0.9)), dim=dim))
        else:
            apps.append(_random_apparatus(rng, f"link{i}", n, dim))
    observer = ApparatusModel.ideal("observer", n, dim=n + 1 + int(rng.integers(0, extra + 1)))
    return ChainSpec(TensorSpace((("system", n),)), tuple(apps), observer)


def _dense_schmidt(state, label):
    """The Schmidt coefficients of subsystem ``label`` against the rest of ``state``."""
    amps = state.amplitudes.reshape(state.space.dims)
    axis = state.space.axis(label)
    return np.linalg.svd(np.moveaxis(amps, axis, 0).reshape(amps.shape[axis], -1), compute_uv=False)


def _form_deviation(state, form, labels):
    """The largest difference between a dense joint state and its branch form:
    the system density, its off-diagonal magnitudes and populations
    (decoherence_factor of partial_trace), its linear entropy, the joint
    amplitudes, and the Schmidt coefficients of the system and of each
    register."""
    rho = partial_trace(state, "system")
    off, pops = decoherence_factor(rho, computational_basis(rho.space))
    m = form.system_density()
    form_off = np.abs(m)
    np.fill_diagonal(form_off, 0.0)
    devs = [
        np.abs(rho.matrix - m).max(),
        np.abs(off - form_off).max(),
        np.abs(pops - m.diagonal().real).max(),
        abs(linear_entropy(rho) - linear_entropy(DensityOperator(rho.space, m))),
        np.abs(form.joint_amplitudes() - state.amplitudes).max(),
    ]
    for k, label in enumerate(["system"] + list(labels)):
        dense = np.sort(_dense_schmidt(state, label))[::-1]
        got = np.sort(form.schmidt_values(None if k == 0 else k - 1))[::-1]
        size = max(dense.size, got.size)
        devs.append(np.abs(np.pad(dense, (0, size - dense.size)) - np.pad(got, (0, size - got.size))).max())
    return float(max(devs))


def _chain_deviation(spec, system):
    """The largest deviation of chain_forms from chain_propagate, over every step."""
    labels = [link.space.labels[0] for link in spec.links] + [spec.observer.space.labels[0]]
    pairs = zip(chain_propagate(spec, system), chain_forms(spec, system), strict=True)
    return max(_form_deviation(state, form, labels) for state, form in pairs)


def _branch_deviation(model, system):
    """The largest deviation of branch_forms from branch_and_recohere, over every step."""
    initial = model.ready_joint(system)
    states = (initial,) + branch_and_recohere(initial, model)
    labels = ("apparatus", "env_record", "env_reset")
    pairs = zip(states, branch_forms(model, system), strict=True)
    return max(_form_deviation(state, form, labels) for state, form in pairs)


def test_chain_forms_match_the_dense_chain():
    rng = np.random.default_rng(1201)
    for n in (2, 3, 4):
        for links, zero in ((0, False), (1, True), (2, False), (3, True)):
            spec = _random_chain(rng, n, links)
            assert _chain_deviation(spec, _random_system(rng, n, zero)) < CROSS_ATOL, (n, links)


def test_chain_densities_are_the_forms_densities_one_gram_per_step(monkeypatch):
    # each density the running product of one Gram matrix per step, with the
    # values of system_density()
    rng = np.random.default_rng(1207)
    grams = []
    real = measurement._gram
    monkeypatch.setattr(measurement, "_gram", lambda x: grams.append(x.shape) or real(x))
    for n in (2, 3, 5):
        for links in (0, 1, 4, 30):
            overlaps = rng.uniform(-0.9 / (n - 1), 0.9, size=links)
            apps = tuple(ApparatusModel.with_overlap(f"link{i}", n, float(g)) for i, g in enumerate(overlaps))
            spec = ChainSpec(TensorSpace((("system", n),)), apps, ApparatusModel.ideal("observer", n))
            system = _random_system(rng, n, zero=links == 1)
            grams.clear()
            densities = list(_chain_densities(spec, system))
            assert len(grams) == links + 1
            forms = chain_forms(spec, system)
            assert len(densities) == len(forms) - 1
            for m, form in zip(densities, forms[1:]):
                assert np.array_equal(m, form.system_density())
    # random complex ready states: every entry of a ready Gram matrix is
    # |r|^2, 1 only within round-off, and so are the densities
    for _ in range(10):
        spec = _random_chain(rng, 3, 4)
        system = _random_system(rng, 3)
        for m, form in zip(_chain_densities(spec, system), chain_forms(spec, system)[1:], strict=True):
            assert np.abs(m - form.system_density()).max() < CROSS_ATOL


def test_chain_forms_give_the_decoherence_dial():
    # 0.5 g^k after k links of overlap g, as acceptance criterion 5 states
    n, g = 2, 0.6
    links = tuple(ApparatusModel.with_overlap(f"link{i}", n, g) for i in range(10))
    spec = ChainSpec(TensorSpace((("system", n),)), links, ApparatusModel.ideal("observer", n))
    forms = chain_forms(spec, _plus(spec.system_space))
    for k, form in enumerate(forms[:-1]):
        assert abs(form.system_density()[0, 1] - 0.5 * g**k) < CROSS_ATOL
    assert np.abs(forms[-1].system_density() - 0.5 * np.eye(2)).max() < CROSS_ATOL


def test_branch_forms_match_branch_and_recohere():
    rng = np.random.default_rng(1202)
    for n in (2, 3, 4):
        for env_dim, zero in ((n + 1, False), (n + 4, True)):
            model = BranchingModel.ideal(n, env_dim=env_dim)
            assert _branch_deviation(model, _random_system(rng, n, zero)) < CROSS_ATOL, (n, env_dim)


def test_premeasure_form_joint_amplitudes_are_the_dense_state_bitwise():
    # joint_state.json is unchanged: a_n times the pointer entries, as the shift gives them
    rng = np.random.default_rng(1203)
    for n in (2, 3, 5):
        sys_space = TensorSpace((("system", n),))
        basis = computational_basis(sys_space)
        for app in (ApparatusModel.ideal("pointer", n), ApparatusModel.with_overlap("pointer", n, 0.3)):
            system = _random_system(rng, n, zero=n == 3)
            _ready, form = premeasure_form(system, app)
            assert form.joint_amplitudes().tobytes() == premeasure(system, app, basis).amplitudes.tobytes()


def test_form_builders_read_the_system_on_the_model_space():
    # the coefficients are a copy of the amplitudes; a state on another space,
    # or a register with another outcome count, is refused
    spec = ChainSpec.from_scenario({"system_dim": 2, "links": [{}]})
    model = BranchingModel.ideal(2)
    system = _plus(spec.system_space)
    forms = chain_forms(spec, system) + branch_forms(model, system)
    assert not any(np.shares_memory(f.coefficients, system.amplitudes) for f in forms)
    other = _plus(TensorSpace((("other", 2),)))
    for build in (chain_forms, lambda *a: list(_chain_densities(*a))):
        with pytest.raises(SpaceMismatchError, match="system space"):
            build(spec, other)
    with pytest.raises(SpaceMismatchError, match="system space"):
        branch_forms(model, other)
    with pytest.raises(SpaceMismatchError, match="stack"):
        premeasure_form(_plus(TensorSpace((("system", 3),))), ApparatusModel.ideal("p", 2))


def test_gram_factor_keeps_the_exact_rank_of_ideal_and_ready_registers():
    for n in (1, 2, 5):
        ones = _gram_factor(np.ones((n, n)))
        assert ones.shape == (n, 1) and np.array_equal(ones, np.ones((n, 1)))
        eye = _gram_factor(np.eye(n))
        assert np.array_equal(eye, np.eye(n))
        assert _gram_factor(np.zeros((n, n))).shape == (n, 0)
    rng = np.random.default_rng(1204)
    x = rng.normal(size=(4, 3)) + 1j * rng.normal(size=(4, 3))
    gram = x.conj() @ x.T  # rank 3
    f = _gram_factor(gram)
    assert f.shape == (4, 3)
    assert np.abs(f @ f.conj().T - gram).max() < CROSS_ATOL


def test_schmidt_values_of_a_product_form_are_one_exact_value():
    # every register ready: the system is in a product with all of them
    rng = np.random.default_rng(1205)
    system = _random_system(rng, 3)
    spec = _random_chain(rng, 3, 2)
    ready = chain_forms(spec, system)[0]
    for k in (None, 0, 1, 2):
        s = ready.schmidt_values(k)
        assert np.count_nonzero(s) == 1 and abs(s.max() - 1.0) < CROSS_ATOL, k


def test_branch_reset_with_unequal_grams_is_refused(tmp_path, capsys, monkeypatch):
    def skewed(n, env_dim=None):
        model = _ideal_branching(n, env_dim=env_dim)
        d = model.env_reset.space.total_dim
        reset = ApparatusModel.with_overlap("env_reset", n, 0.3, dim=d)
        return BranchingModel(model.system_space, model.apparatus, model.env_decohere, reset)

    _ideal_branching = BranchingModel.ideal
    model = skewed(2)
    with pytest.raises(ValidationError, match="isometry"):
        branch_forms(model, _plus(model.system_space))
    monkeypatch.setattr(BranchingModel, "ideal", staticmethod(skewed))
    for kind in ("branch_recohere", "ledger_branching"):
        doc = {"schema": "decolab/scenario/v1", "kind": kind, "params": {"amplitudes": [0.6, 0.8]}}
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(doc))
        assert cli.run(str(path), out_dir=str(tmp_path / kind)) == 3
        assert "isometry" in capsys.readouterr().err


def test_unnormalized_stacks_match_the_dense_state():
    # rows of every norm, so each Gram diagonal enters the fidelity and the
    # Schmidt values
    rng = np.random.default_rng(1206)
    n, dims = 3, (4, 2, 5)
    stacks = tuple(rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d)) for d in dims)
    a = rng.normal(size=n) + 1j * rng.normal(size=n)
    form = BranchForm(a / np.sqrt(np.trace(BranchForm(a, stacks).system_density()).real), stacks)
    space = TensorSpace((("system", n),) + tuple((f"r{k}", d) for k, d in enumerate(dims)))
    psi = StateVector(space, form.joint_amplitudes())
    assert np.abs(form.system_density() - partial_trace(psi, "system").matrix).max() < CROSS_ATOL
    for k, d in enumerate(dims):
        ready = rng.normal(size=d) + 1j * rng.normal(size=d)
        want = np.vdot(ready, partial_trace(psi, f"r{k}").matrix @ ready).real
        assert abs(cli._ready_fidelity(form, k, ready) - want) < CROSS_ATOL * abs(want)
        dense = np.sort(_dense_schmidt(psi, f"r{k}"))[::-1][:n]
        assert np.abs(np.sort(form.schmidt_values(k))[::-1] - dense).max() < CROSS_ATOL


def test_register_runs_refuse_a_state_that_lost_its_norm(tmp_path, capsys, monkeypatch):
    def leaky(builder):
        def build(*args):
            forms = builder(*args)
            return [BranchForm(1.01 * f.coefficients, f.stacks) for f in forms]
        return build

    def leaky_densities(*args):
        return (1.01**2 * m for m in _chain_densities(*args))

    monkeypatch.setattr(cli, "premeasure_form", leaky(premeasure_form))
    monkeypatch.setattr(cli, "_chain_densities", leaky_densities)
    monkeypatch.setattr(cli, "branch_forms", leaky(branch_forms))
    for kind, params in (
        ("premeasurement", {"amplitudes": [0.6, 0.8]}),
        ("chain", {"amplitudes": [0.6, 0.8], "links": 2}),
        ("branch_recohere", {"amplitudes": [0.6, 0.8]}),
    ):
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps({"schema": "decolab/scenario/v1", "kind": kind, "params": params}))
        assert cli.run(str(path), out_dir=str(tmp_path / kind)) == 3
        assert "global purity drifted to 1.0406" in capsys.readouterr().err


def test_register_runs_apply_no_shift(tmp_path, monkeypatch):
    calls = []

    def counted(name, func):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return func(*args, **kwargs)
        return wrapper

    for name in ("_controlled_shift", "_complete_orthonormal"):
        monkeypatch.setattr(measurement, name, counted(name, getattr(measurement, name)))
    monkeypatch.setattr(
        ApparatusModel, "shift_unitaries", counted("shift_unitaries", ApparatusModel.shift_unitaries)
    )
    amps = [0.6, [0.0, 0.48], [0.64, 0.0]]
    scenarios = {
        "premeasurement": {"amplitudes": amps, "pointer_overlap": 0.3},
        "chain": {"amplitudes": amps, "links": 3, "overlaps": [0.2, -0.3, 0.5]},
        "branch_recohere": {"amplitudes": amps, "env_dim": 6},
        "ledger_quantum": {"amplitudes": amps},
        "ledger_branching": {"amplitudes": amps, "env_dim": 6},
    }
    for kind, params in scenarios.items():
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps({"schema": "decolab/scenario/v1", "kind": kind, "params": params}))
        assert cli.run(str(path), out_dir=str(tmp_path / kind)) == 0
    assert calls == []
    # the wrappers do count: the dense route goes through them
    premeasure(_plus(TensorSpace((("system", 2),))), ApparatusModel.ideal("p", 2),
               computational_basis(TensorSpace((("system", 2),))))
    assert {"_controlled_shift", "shift_unitaries", "_complete_orthonormal"} <= set(calls)
