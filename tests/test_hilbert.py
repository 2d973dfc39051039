"""Tensor-space bookkeeping, state algebra, partial trace."""

import json
import re
import tracemalloc

import numpy as np
import pytest

from decolab import hilbert
from decolab.errors import CROSS_ATOL, SpaceMismatchError, ValidationError
from decolab.hilbert import (
    DensityOperator,
    StateVector,
    TensorSpace,
    apply_local,
    basis_state,
    computational_basis,
    embed_matrix,
    partial_trace,
    random_state,
    ray_equal,
    tensor,
    tensor_many,
)

RNG = np.random.default_rng(20210907)


def test_space_basics():
    sp = TensorSpace((("a", 2), ("b", 3), ("c", 4)))
    assert sp.labels == ("a", "b", "c")
    assert sp.dims == (2, 3, 4)
    assert sp.total_dim == 24
    assert sp.axis("b") == 1
    assert sp.dim_of("c") == 4


def test_space_rejects_bad_input():
    with pytest.raises(ValidationError):
        TensorSpace((("a", 2), ("a", 3)))
    with pytest.raises(ValidationError):
        TensorSpace((("a", 0),))
    with pytest.raises(ValidationError):
        TensorSpace(())


def test_flatten_unflatten_bijection():
    sp = TensorSpace((("x", 3), ("y", 2), ("z", 5)))
    for flat in range(sp.total_dim):
        multi = np.unravel_index(flat, sp.dims)
        assert sp.flatten(multi) == flat
    # first-listed subsystem varies slowest
    assert sp.flatten((1, 0, 0)) == 10
    assert sp.flatten((0, 1, 0)) == 5
    assert sp.flatten((0, 0, 1)) == 1


def test_subspace_keeps_parent_order():
    sp = TensorSpace((("a", 2), ("b", 3), ("c", 4)))
    sub = sp.subspace(["c", "a"])
    assert sub.labels == ("a", "c")


def test_concat_collision():
    sp = TensorSpace((("a", 2),))
    with pytest.raises(ValidationError):
        sp.concat(TensorSpace((("a", 5),)))


def test_basis_state_indexing():
    sp = TensorSpace((("a", 2), ("b", 3)))
    psi = basis_state(sp, (1, 2))
    assert psi.amplitudes[sp.flatten((1, 2))] == 1.0
    assert basis_state(sp, 5).amplitudes[5] == 1.0
    with pytest.raises(ValidationError):
        basis_state(sp, 6)


def test_computational_basis_orthonormal():
    sp = TensorSpace((("a", 2), ("b", 2)))
    basis = computational_basis(sp)
    gram = np.array([[u.inner(v) for v in basis] for u in basis])
    assert np.abs(gram - np.eye(4)).max() < 1e-15


def test_state_vector_validation():
    sp = TensorSpace((("a", 2),))
    with pytest.raises(SpaceMismatchError):
        StateVector(sp, np.ones(3, dtype=complex))
    with pytest.raises(ValidationError):
        StateVector(sp, np.array([np.nan, 0.0], dtype=complex))
    psi = StateVector(sp, np.array([3.0, 4.0], dtype=complex))
    assert psi.norm() == pytest.approx(5.0)
    assert not psi.is_normalized()
    assert StateVector(sp, psi.amplitudes / psi.norm()).is_normalized()


def test_amplitudes_read_only():
    sp = TensorSpace((("a", 2),))
    psi = basis_state(sp, 0)
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 0.0


def test_global_phase_stored_but_ray_equal():
    sp = TensorSpace((("a", 2),))
    psi = basis_state(sp, 0)
    phi = StateVector(sp, np.exp(0.3j) * psi.amplitudes)
    assert not np.allclose(psi.amplitudes, phi.amplitudes)
    assert ray_equal(psi, phi)
    assert psi.ray_equal(phi)
    assert not psi.ray_equal(basis_state(sp, 1))


def test_inner_conjugates_first_argument():
    sp = TensorSpace((("a", 2),))
    u = StateVector(sp, np.array([1.0, 1.0j]) / np.sqrt(2))
    v = basis_state(sp, 1)
    assert u.inner(v) == pytest.approx(-1.0j / np.sqrt(2))


def test_tensor_products():
    a = basis_state(TensorSpace((("a", 2),)), 1)
    b = basis_state(TensorSpace((("b", 3),)), 2)
    ab = tensor(a, b)
    assert ab.space.labels == ("a", "b")
    assert ab.amplitudes[1 * 3 + 2] == 1.0
    abc = tensor_many(a, b, basis_state(TensorSpace((("c", 2),)), 0))
    assert abc.space.total_dim == 12


def test_density_operator_validation():
    sp = TensorSpace((("a", 2),))
    with pytest.raises(ValidationError):
        DensityOperator(sp, np.array([[0.5, 0.5], [0.2, 0.5]], dtype=complex))
    with pytest.raises(ValidationError):
        DensityOperator(sp, np.array([[1.5, 0.0], [0.0, -0.5]], dtype=complex))
    rho = DensityOperator(sp, np.eye(2) / 2)
    assert rho.purity() == pytest.approx(0.5)


def test_hermitian_check_takes_the_deviation_one_row_block_at_a_time(monkeypatch):
    # the largest |M - M^dagger| entry, bit for bit the whole matrix's, for
    # blocks of one row, of a few rows, and of the whole matrix
    rng = np.random.default_rng(31)
    for d in (1, 2, 7, 33):
        mat = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        want = np.abs(mat - mat.conj().T).max()
        for block in (1, 3 * d, d * d):
            monkeypatch.setattr(hilbert, "_HERMITIAN_BLOCK", block)
            if want > 0.0:
                with pytest.raises(ValidationError, match=re.escape(f"deviation {want:.3e}")):
                    hilbert._check_hermitian(mat, d, "matrix")
            herm = (mat + mat.conj().T) / 2
            assert np.array_equal(hilbert._check_hermitian(herm, d, "matrix"), herm)
    # the check holds the copy, its finiteness mask and one block's
    # temporaries: no matrix-sized conjugate transpose or difference
    monkeypatch.undo()
    d = 1024
    herm = np.eye(d, dtype=complex)
    tracemalloc.start()
    try:
        hilbert._check_hermitian(herm, d, "matrix")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * d * d * 1.5, peak / (16 * d * d)


def test_partial_trace_pure_bell():
    sp = TensorSpace((("a", 2), ("b", 2)))
    bell = StateVector(sp, np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))
    rho = partial_trace(bell, "a")
    assert np.abs(rho.matrix - np.eye(2) / 2).max() < 1e-15


def test_partial_trace_matches_density_route():
    for _ in range(20):
        sp = TensorSpace((("a", 2), ("b", 3), ("c", 2)))
        psi = random_state(sp, RNG)
        keep = ["a", "c"]
        via_vec = partial_trace(psi, keep).matrix
        via_rho = partial_trace(psi.density(), keep).matrix
        assert np.abs(via_vec - via_rho).max() < 1e-12


def test_partial_trace_noncontiguous_keep():
    sp = TensorSpace((("a", 2), ("b", 2), ("c", 2)))
    psi = random_state(sp, RNG)
    rho = partial_trace(psi, ["a", "c"])
    assert rho.space.labels == ("a", "c")
    # tracing everything out is not a partial trace
    with pytest.raises(ValidationError):
        partial_trace(psi, ["a", "b", "c"])


def test_partial_trace_expectation_contract():
    """tr(rho_sub A) equals the lifted expectation on the joint state."""
    sp = TensorSpace((("a", 2), ("b", 3), ("c", 2)))
    sub = sp.subspace(["a", "c"])
    for _ in range(10):
        psi = random_state(sp, RNG)
        m = RNG.normal(size=(4, 4)) + 1j * RNG.normal(size=(4, 4))
        a = (m + m.conj().T) / 2
        lifted = embed_matrix(a, sub, sp)
        lhs = np.trace(partial_trace(psi, ["a", "c"]).matrix @ a).real
        rhs = np.vdot(psi.amplitudes, lifted @ psi.amplitudes).real
        assert abs(lhs - rhs) < 1e-12


def test_embed_matrix_middle_subsystem():
    sp = TensorSpace((("a", 2), ("b", 2), ("c", 2)))
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    full = embed_matrix(x, sp.subspace(["b"]), sp)
    expected = np.kron(np.kron(np.eye(2), x), np.eye(2))
    assert np.abs(full - expected).max() < 1e-15


@pytest.mark.parametrize(
    "labels",
    [
        ("env_reset", "apparatus"),
        ("system", "env_record"),
        ("env_record",),
        ("env_reset", "system", "apparatus"),
    ],
)
def test_apply_local_matches_embedded_matrix(labels):
    sp = TensorSpace((("system", 2), ("apparatus", 3), ("env_record", 4), ("env_reset", 5)))
    sub = TensorSpace(tuple((label, sp.dim_of(label)) for label in labels))
    d = sub.total_dim
    op = RNG.normal(size=(d, d)) + 1j * RNG.normal(size=(d, d))
    amps = random_state(sp, RNG).amplitudes
    out = apply_local(amps, op, sub, sp)
    assert out.shape == (sp.total_dim,)
    assert np.abs(out - embed_matrix(op, sub, sp) @ amps).max() < CROSS_ATOL


def test_apply_local_rejects_mismatched_operand():
    sp = TensorSpace((("a", 2), ("b", 3)))
    amps = random_state(sp, RNG).amplitudes
    with pytest.raises(SpaceMismatchError):
        apply_local(amps, np.eye(2), TensorSpace((("b", 2),)), sp)
    with pytest.raises(SpaceMismatchError):
        apply_local(amps, np.eye(2), sp.subspace(["b"]), sp)


def test_json_round_trip_exact():
    # every double of the [re, im] pairs reads back to itself
    sp = TensorSpace((("a", 2), ("b", 3)))
    psi = random_state(sp, RNG)
    doc = json.loads(psi.to_json())
    assert TensorSpace(tuple(map(tuple, doc["space"]))) == psi.space
    assert np.array_equal(np.array(doc["amplitudes"]).view(complex)[:, 0], psi.amplitudes)
    rho = partial_trace(psi, "b")
    doc = json.loads(rho.to_json())
    assert np.array_equal(np.array(doc["matrix"]).view(complex)[..., 0], rho.matrix)


def test_random_state_normalized():
    sp = TensorSpace((("a", 5), ("b", 7)))
    for _ in range(5):
        assert random_state(sp, RNG).is_normalized(atol=1e-12)
