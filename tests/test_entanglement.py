"""Schmidt decomposition, entropies, decoherence diagnostics."""

import numpy as np
import pytest

from decolab.entanglement import (
    decoherence_factor,
    ensemble_entropy,
    entropy_bits,
    linear_entropy,
    schmidt_decompose,
    shannon_entropy,
)
from decolab.errors import ValidationError
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
