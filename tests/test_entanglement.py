"""Schmidt decomposition, entropies, decoherence diagnostics."""

import json

import numpy as np
import pytest

from decolab import cli, serialize
from decolab.entanglement import (
    DEGENERACY_ATOL,
    SCHMIDT_CUTOFF,
    decoherence_factor,
    ensemble_entropy,
    entropy_bits,
    linear_entropy,
    schmidt_decompose,
    shannon_entropy,
)
from decolab.errors import CROSS_ATOL, ValidationError
from decolab.hilbert import (
    DensityOperator,
    StateVector,
    TensorSpace,
    computational_basis,
    partial_trace,
    random_state,
    tensor,
)

RNG = np.random.default_rng(77)


def _bell():
    sp = TensorSpace((("a", 2), ("b", 2)))
    return StateVector(sp, np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))


def _reference_reconstruct(dec):
    """The state summed one outer product per Schmidt term, each factor
    reshaped to its side's dims, then permuted to the space's label order."""
    sys_dims = dec.space.subspace(dec.system_labels).dims
    env_dims = dec.space.subspace(dec.environment_labels).dims
    tens = np.zeros(sys_dims + env_dims, dtype=np.complex128)
    for c, u, v in zip(dec.coefficients, dec.system_factors.T, dec.environment_factors):
        tens += c * np.tensordot(u.reshape(sys_dims), v.reshape(env_dims), axes=0)
    order = list(dec.system_labels) + list(dec.environment_labels)
    perm = [order.index(label) for label in dec.space.labels]
    return StateVector(dec.space, tens.transpose(perm).reshape(-1))


def _reference_document(psi, system):
    """schmidt.json's document, but its reconstruction_error, as built from
    a separate SVD with one StateVector per Schmidt factor."""
    space = psi.space
    sys_axes = [i for i, label in enumerate(space.labels) if label in system]
    env_axes = [i for i, label in enumerate(space.labels) if label not in system]
    sys_space = space.subspace([space.labels[i] for i in sys_axes])
    env_space = space.subspace([space.labels[i] for i in env_axes])
    mat = psi.amplitudes.reshape(space.dims).transpose(sys_axes + env_axes)
    u, s, vh = np.linalg.svd(mat.reshape(sys_space.total_dim, env_space.total_dim), full_matrices=False)
    kept = s > SCHMIDT_CUTOFF
    s, u, vh = s[kept], u[:, kept], vh[kept, :]
    probs = s**2
    return {
        "space": space.to_json_obj(),
        "system_labels": list(sys_space.labels),
        "environment_labels": list(env_space.labels),
        "coefficients": np.array(s, dtype=np.float64),
        "system_vectors": [StateVector(sys_space, u[:, k]).to_json_obj() for k in range(s.size)],
        "environment_vectors": [StateVector(env_space, vh[k, :]).to_json_obj() for k in range(s.size)],
        "degenerate": bool(np.any(np.abs(np.diff(probs)) < DEGENERACY_ATOL)) if s.size > 1 else False,
    }


def test_bell_schmidt():
    dec = schmidt_decompose(_bell(), ["a"])
    assert dec.coefficients.shape == (2,)
    assert np.abs(dec.coefficients - 1 / np.sqrt(2)).max() < 1e-12
    assert dec.degenerate
    err = np.abs(dec.reconstruct().amplitudes - _bell().amplitudes).max()
    assert err < 1e-12


def test_product_state_has_single_term():
    a = StateVector(TensorSpace((("a", 2),)), np.array([0.6, 0.8], dtype=complex))
    b = StateVector(TensorSpace((("b", 3),)), np.array([1, 1, 1], dtype=complex) / np.sqrt(3))
    dec = schmidt_decompose(tensor(a, b), ["a"])
    assert dec.coefficients.shape == (1,)
    assert dec.coefficients[0] == pytest.approx(1.0)
    assert not dec.degenerate


def test_schmidt_probabilities_match_reduced_spectrum():
    sp = TensorSpace((("a", 3), ("b", 4)))
    for _ in range(20):
        psi = random_state(sp, RNG)
        dec = schmidt_decompose(psi, ["a"])
        eig = np.sort(partial_trace(psi, "a").eigenvalues())[::-1]
        k = dec.probabilities.size
        assert np.abs(dec.probabilities - eig[:k]).max() < 1e-10
        assert dec.probabilities.sum() == pytest.approx(1.0, abs=1e-10)


def test_schmidt_coefficients_descending():
    sp = TensorSpace((("a", 4), ("b", 4)))
    psi = random_state(sp, RNG)
    c = schmidt_decompose(psi, ["a"]).coefficients
    assert np.all(np.diff(c) <= 1e-15)


def test_schmidt_multipartite_split():
    sp = TensorSpace((("a", 2), ("b", 2), ("c", 3)))
    psi = random_state(sp, RNG)
    dec = schmidt_decompose(psi, ["a", "c"])
    err = np.abs(dec.reconstruct().amplitudes - psi.amplitudes).max()
    assert err < 1e-10


def test_schmidt_rejects_trivial_split():
    psi = random_state(TensorSpace((("a", 2), ("b", 2))), RNG)
    with pytest.raises(ValidationError):
        schmidt_decompose(psi, ["a", "b"])
    with pytest.raises(ValidationError):
        schmidt_decompose(psi, [])


def test_linear_entropy_range():
    sp = TensorSpace((("a", 2),))
    pure = StateVector(sp, np.array([1.0, 0.0], dtype=complex)).density()
    assert linear_entropy(pure) == pytest.approx(0.0, abs=1e-15)
    mixed = DensityOperator(sp, np.eye(2) / 2)
    assert linear_entropy(mixed) == pytest.approx(0.5)


def test_ensemble_entropy_values():
    sp = TensorSpace((("a", 2),))
    assert ensemble_entropy(DensityOperator(sp, np.eye(2) / 2)) == pytest.approx(np.log(2))
    diag = DensityOperator(sp, np.diag([0.9, 0.1]).astype(complex))
    assert ensemble_entropy(diag) == pytest.approx(shannon_entropy([0.9, 0.1]))


def test_entropy_bits_conversion():
    assert entropy_bits(np.log(2)) == pytest.approx(1.0)
    assert entropy_bits(2 * np.log(2)) == pytest.approx(2.0)


def test_shannon_entropy_edge_cases():
    assert shannon_entropy([1.0, 0.0]) == 0.0
    assert shannon_entropy([0.5, 0.5]) == pytest.approx(np.log(2))
    with pytest.raises(ValidationError):
        shannon_entropy([0.5, 0.6])
    with pytest.raises(ValidationError):
        shannon_entropy([1.2, -0.2])


def test_decoherence_factor_reports_offdiagonals():
    sp = TensorSpace((("a", 2),))
    rho = DensityOperator(sp, np.array([[0.5, 0.2], [0.2, 0.5]], dtype=complex))
    off, pops = decoherence_factor(rho, computational_basis(sp))
    assert off[0, 1] == pytest.approx(0.2)
    assert off[0, 0] == 0.0
    assert np.abs(pops - 0.5).max() < 1e-12


def test_reconstruct_matches_the_outer_product_sum():
    cases = [
        ((("a", 3), ("b", 4)), ["a"]),
        ((("a", 2), ("b", 3), ("c", 2)), ["c", "a"]),
        ((("a", 3), ("b", 1), ("c", 2)), ["b"]),
        ((("a", 40), ("b", 70)), ["b"]),
    ]
    for dims, system in cases:
        psi = random_state(TensorSpace(dims), RNG)
        dec = schmidt_decompose(psi, system)
        got = dec.reconstruct().amplitudes
        assert np.abs(got - _reference_reconstruct(dec).amplitudes).max() < CROSS_ATOL
        assert np.abs(got - psi.amplitudes).max() < CROSS_ATOL


def test_schmidt_json_keeps_the_per_vector_document(tmp_path):
    a = np.array([0.6, 0.8j])
    b = np.array([1.0, 1.0j, -1.0]) / np.sqrt(3)
    product = [[float(z.real), float(z.imag)] for z in np.kron(a, b)]
    cases = [
        {"dims": [["a", 2], ["b", 3]], "system": ["b"]},
        {"dims": [["a", 2], ["b", 2], ["c", 3]], "system": ["c", "a"]},
        {"dims": [["a", 3], ["b", 1], ["c", 2]], "system": ["b", "a"]},
        {"dims": [["a", 2], ["b", 3]], "system": ["a"], "state": {"amplitudes": product}},
        {"dims": [["a", 2], ["b", 2]], "system": ["b"], "state": {"amplitudes": [0.6, 0, [0, 0.48], -0.64]}},
    ]
    for i, params in enumerate(cases):
        path = tmp_path / f"{i}.json"
        path.write_text(json.dumps({"schema": "decolab/scenario/v1", "kind": "schmidt", "seed": i, "params": params}))
        assert cli.run(str(path), out_dir=str(tmp_path / str(i))) == 0
        text = (tmp_path / str(i) / "schmidt.json").read_text()
        psi, system = cli._parse_schmidt(params, i, [])
        want = _reference_document(psi, system)
        want["reconstruction_error"] = json.loads(text)["reconstruction_error"]
        assert text == serialize.dumps(want), params
    # the product state has one term
    assert len(json.loads((tmp_path / "3" / "schmidt.json").read_text())["system_vectors"]) == 1
    dec = schmidt_decompose(psi, system)
    for stack in (dec.system_factors, dec.environment_factors, dec.coefficients):
        assert not stack.flags.writeable
        with pytest.raises(ValueError):
            stack[0] = 0.0


def test_schmidt_builds_no_state_per_factor(monkeypatch):
    psi = random_state(TensorSpace((("a", 40), ("b", 70))), RNG)
    built = []
    post_init = StateVector.__post_init__

    def counting(self):
        built.append(self.space)
        post_init(self)

    monkeypatch.setattr(StateVector, "__post_init__", counting)
    dec = schmidt_decompose(psi, ["a"])
    assert built == []
    assert dec.system_factors.shape == (40, 40)
    assert dec.environment_factors.shape == (40, 70)
