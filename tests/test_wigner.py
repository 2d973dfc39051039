"""Phase-space transform on uniform grids."""

import json
import math
import tracemalloc

import numpy as np
import pytest

from decolab import cli, serialize, wigner
from decolab.errors import ValidationError
from decolab.wigner import (
    GridState,
    WignerGrid,
    gaussian_packet_samples,
    grid_points,
    marginals,
    oscillator_state,
    two_packet_mixture,
    two_packet_superposition,
    wigner_binary,
    wigner_csv_chunks,
    wigner_transform,
    wigner_via_kernel,
)


def test_grid_points_spacing():
    q = grid_points(-8.0, 8.0, 256)
    assert q[0] == -8.0
    assert q.size == 256
    assert np.abs(np.diff(q) - 16.0 / 256).max() < 1e-15


def test_grid_state_requires_power_of_two():
    q = grid_points(-8.0, 8.0, 100)
    vals = gaussian_packet_samples(0.0, 0.0, 1.0, q)
    vals /= np.sqrt((np.abs(vals) ** 2).sum() * (16.0 / 100))
    with pytest.raises(ValidationError):
        GridState(-8.0, 8.0, 100, vals)


def test_grid_state_requires_normalization():
    q = grid_points(-8.0, 8.0, 128)
    with pytest.raises(ValidationError):
        GridState(-8.0, 8.0, 128, 3.0 * gaussian_packet_samples(0.0, 0.0, 1.0, q))


def test_density_samples_take_the_shared_hermitian_check(monkeypatch):
    n = 1024
    rho = two_packet_mixture(3.0, n_points=n).values
    skew = np.array(rho)
    skew[0, 1] += 1e-6
    with pytest.raises(ValidationError, match="density sample matrix is not Hermitian"):
        GridState(-12.0, 12.0, n, skew)
    # the state's copy, its finiteness mask and one row block of the check:
    # no grid-sized conjugate transpose or difference
    tracemalloc.start()
    try:
        GridState(-12.0, 12.0, n, rho)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 16 * n * n, peak / (16 * n * n)
    calls = []
    real = wigner._check_hermitian
    monkeypatch.setattr(wigner, "_check_hermitian", lambda *args: calls.append(args[1:]) or real(*args))
    GridState(-12.0, 12.0, n, rho)
    assert calls == [(n, "density sample matrix")]


def test_constructors_check_the_grid_before_normalizing():
    with pytest.raises(ValidationError, match="q_max"):
        oscillator_state(0, q_min=8.0, q_max=-8.0, n_points=64)
    with pytest.raises(ValidationError, match="q_max"):
        two_packet_mixture(3.0, q_min=12.0, q_max=-12.0, n_points=64)
    with np.errstate(all="ignore"), pytest.raises(ValidationError, match="non-finite"):
        two_packet_superposition(3.0, width=0.0, n_points=64)


def test_oscillator_states_orthogonal_on_grid():
    states = [oscillator_state(n) for n in range(4)]
    dq = states[0].dq
    for i in range(4):
        for j in range(4):
            ip = np.vdot(states[i].values, states[j].values) * dq
            assert abs(ip - (1.0 if i == j else 0.0)) < 1e-10


def test_ground_state_wigner_peak():
    w = wigner_transform(oscillator_state(0))
    i0 = 128  # q = 0, p = 0
    assert w.values[i0, i0] == pytest.approx(1 / np.pi, abs=1e-6)
    assert w.values.min() >= -1e-9 * w.values.max()


def test_first_excited_wigner_negative_at_origin():
    w = wigner_transform(oscillator_state(1))
    assert w.values[128, 128] == pytest.approx(-1 / np.pi, abs=1e-6)


def test_wigner_normalization_and_marginals():
    state = oscillator_state(0)
    w = wigner_transform(state)
    assert w.values.sum() * w.dq * w.dp == pytest.approx(1.0, abs=1e-12)
    pos, mom = marginals(w)
    assert np.abs(pos - np.abs(state.values) ** 2).max() < 1e-12
    analytic = np.exp(-w.p_grid**2) / np.sqrt(np.pi)
    assert np.abs(mom - analytic).max() < 1e-6


def test_wigner_rejects_leaky_grid():
    # packet centered at the boundary
    q = grid_points(-8.0, 8.0, 256)
    vals = gaussian_packet_samples(7.5, 0.0, 1.0, q)
    vals /= np.sqrt((np.abs(vals) ** 2).sum() * (16.0 / 256))
    state = GridState(-8.0, 8.0, 256, vals)
    with pytest.raises(ValidationError, match="narrow"):
        wigner_transform(state)


def test_two_packet_interference_fringes():
    w = wigner_transform(two_packet_superposition(3.0))
    assert w.values.min() < -0.1  # negativity between the packets
    mid = np.abs(w.q_grid).argmin()
    fringe = w.values[:, mid]
    assert fringe.max() > 0.25  # oscillation amplitude near 1/pi


def test_two_packet_mixture_stays_positive():
    w = wigner_transform(two_packet_mixture(3.0))
    assert w.values.min() >= -1e-12


def test_mixture_equals_average_of_packet_wigners():
    mix = wigner_transform(two_packet_mixture(3.0))
    q = grid_points(-12.0, 12.0, 256)
    dq = 24.0 / 256
    parts = []
    for center in (3.0, -3.0):
        vals = gaussian_packet_samples(center, 0.0, 1.0, q)
        vals /= np.sqrt((np.abs(vals) ** 2).sum() * dq)
        parts.append(wigner_transform(GridState(-12.0, 12.0, 256, vals)).values)
    avg = (parts[0] + parts[1]) / 2
    assert np.abs(mix.values - avg).max() < 1e-10


def test_kernel_pathway_matches_transform():
    for state in (oscillator_state(0, n_points=64), oscillator_state(2, n_points=64)):
        w = wigner_transform(state)
        wk = wigner_via_kernel(state)
        assert np.abs(wk - w.values).max() < 1e-10


def test_kernel_pathway_on_density_input():
    state = two_packet_mixture(2.5, n_points=64)
    w = wigner_transform(state)
    wk = wigner_via_kernel(state)
    assert np.abs(wk - w.values).max() < 1e-10


@pytest.mark.parametrize("part", ["real", "imag"])
def test_a_nan_in_the_transform_exits_3_before_any_csv(tmp_path, capsys, monkeypatch, part):
    ifft = np.fft.ifft

    def nan_ifft(a, axis):
        out = ifft(a, axis=axis)
        getattr(out, part)[3, 5] = np.nan
        return out

    monkeypatch.setattr(np.fft, "ifft", nan_ifft)
    doc = {"schema": "decolab/scenario/v1", "kind": "wigner", "seed": 0,
           "params": {"state": {"kind": "oscillator", "n": 1}, "n_points": 64}}
    path = tmp_path / "w.json"
    path.write_text(json.dumps(doc))
    assert cli.run(str(path), out_dir=str(tmp_path / "o")) == 3
    assert "non-finite value in the transform" in capsys.readouterr().err
    assert not (tmp_path / "o" / "wigner.csv").exists()


def test_both_routes_refuse_a_non_finite_value_in_either_part():
    # scaling spreads a NaN from the real part into the imaginary one, so
    # the check is also taken on surfaces where only one part is non-finite
    for part in ("real", "imag"):
        for bad in (np.nan, np.inf):
            w = np.zeros((4, 4), dtype=np.complex128)
            getattr(w, part)[1, 2] = bad
            with pytest.raises(ValidationError, match="non-finite value in the transform"):
                wigner._real_part(w, "transform")


def test_a_nan_in_the_kernel_contraction_is_refused(monkeypatch):
    outer = np.outer

    def nan_outer(a, b):
        out = outer(a, b)
        out[2, 7] = np.nan
        return out

    state = two_packet_mixture(2.5, n_points=64)  # density samples: no outer product of psi
    monkeypatch.setattr(np, "outer", nan_outer)
    with pytest.raises(ValidationError, match="non-finite value in the kernel contraction"):
        wigner_via_kernel(state)


def _reference_shear_samples(rho, n):
    """The index-array route: T[k', j] = rho[j + k, j - k], zero out of range."""
    kk = wigner._offset_indices(n)
    j = np.arange(n)
    ip = j[None, :] + kk[:, None]
    im = j[None, :] - kk[:, None]
    valid = (ip >= 0) & (ip < n) & (im >= 0) & (im < n)
    return np.where(valid, rho[ip.clip(0, n - 1), im.clip(0, n - 1)], 0.0)


def test_shear_samples_match_the_index_array_route_bitwise():
    rng = np.random.default_rng(30)
    for n in (2**p for p in range(1, 11)):
        # non-Hermitian samples with signed zeros in either part
        rho = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        rho.real[rng.random((n, n)) < 0.1] = -0.0
        rho.imag[rng.random((n, n)) < 0.1] = -0.0
        assert wigner._shear_samples(rho, n).tobytes() == _reference_shear_samples(rho, n).tobytes(), n


def test_transform_holds_two_grid_arrays():
    # the sheared samples and their FFT output, signed and scaled in place;
    # np.fft adds about 1.5 KB of Python objects whatever the size
    n = 512
    state = two_packet_mixture(3.0, n_points=n)
    wigner_transform(state)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        wigner_transform(state)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 16 * n * n + 4096, peak / (16 * n * n)


def test_wigner_grid_validates_normalization():
    w = wigner_transform(oscillator_state(0))
    with pytest.raises(ValidationError):
        WignerGrid(w.q_min, w.q_max, w.n_points, 2.0 * w.values)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_wigner_grid_refuses_a_non_finite_sample(bad):
    # a NaN total would pass the normalization test
    with pytest.raises(ValidationError, match="non-finite"):
        WignerGrid(-12.0, 12.0, 4, np.full((4, 4), bad))
    w = wigner_transform(oscillator_state(0))
    values = w.values.copy()
    values[3, 5] = bad
    with pytest.raises(ValidationError, match="non-finite"):
        WignerGrid(w.q_min, w.q_max, w.n_points, values)


def test_wigner_grid_refuses_a_reversed_or_non_power_of_two_grid():
    # each of these keeps dq * dp = pi / n, so the normalization alone passes
    for q_min, q_max, n, match in ((12.0, -12.0, 4, "q_max"), (-12.0, 12.0, 3, "power of two"),
                                   (12.0, -12.0, 3, "power of two")):
        with pytest.raises(ValidationError, match=match):
            WignerGrid(q_min, q_max, n, np.full((n, n), 1.0 / (n * math.pi)))
    w = WignerGrid(-12, 12, 4, np.full((4, 4), 1.0 / (4 * math.pi)))
    assert type(w.q_min) is float and type(w.q_max) is float


def _run_wigner(w, out_dir, monkeypatch):
    """The runner's artifacts for the grid ``w``: its transform step returns ``w``."""
    monkeypatch.setattr(cli, "wigner_transform", lambda state: w)
    out_dir.mkdir()
    cli._run_wigner(cli._Emitter(str(out_dir)), None)
    return out_dir


def test_csv_and_binary_emitters(tmp_path, monkeypatch):
    w = wigner_transform(oscillator_state(0, n_points=64))
    out = _run_wigner(w, tmp_path / "o", monkeypatch)
    lines = (out / "wigner.csv").read_text().strip().split("\n")
    assert lines[0] == "q,p,w"
    assert len(lines) == 1 + 64 * 64

    lines = (out / "marginals.csv").read_text().strip().split("\n")
    assert lines[0] == "q,position_density,p,momentum_density"
    assert len(lines) == 1 + 64

    raw, meta_text = wigner_binary(w)
    meta = json.loads(meta_text)
    data = np.frombuffer(raw, dtype=np.float64).reshape(meta["shape"])
    assert np.array_equal(data, w.values)
    assert meta["dtype"] == "<f8"
    assert meta["q_min"] == -8.0


def _reference_wigner_csv_text(w):
    """The per-value route: serialize.fmt on every value, joined line by line."""
    ps = [serialize.fmt(pv) for pv in w.p_grid]
    lines = ["q,p,w"]
    for qv, column in zip(w.q_grid, w.values.T):
        q_text = serialize.fmt(qv)
        for p_text, value in zip(ps, column):
            lines.append(",".join([q_text, p_text, serialize.fmt(value)]))
    return "\n".join(lines) + "\n"


def _reference_marginals_csv_text(w):
    pos, mom = marginals(w)
    lines = ["q,position_density,p,momentum_density"] + [
        ",".join(serialize.fmt(x) for x in (w.q_grid[i], pos[i], w.p_grid[i], mom[i]))
        for i in range(w.n_points)
    ]
    return "\n".join(lines) + "\n"


def test_csv_templates_match_the_per_value_route_byte_for_byte(tmp_path, monkeypatch):
    grids = [
        wigner_transform(oscillator_state(3, n_points=64)),
        wigner_transform(two_packet_superposition(2.5, momentum=0.7, n_points=64)),
        wigner_transform(two_packet_mixture(3.0, width=0.9, n_points=128)),
    ]
    # a signed zero and a subnormal, with the normalizing weight in one cell
    values = np.zeros((4, 4))
    values[0, 0] = -0.0
    values[1, 2] = 5e-324
    values[2, 1] = 4.0 / math.pi  # 1 / (dq dp) on a 4-point grid
    odd = WignerGrid(-12.0, 12.0, 4, values)
    for i, w in enumerate(grids + [odd]):
        chunks = list(wigner_csv_chunks(w))
        assert len(chunks) == 1 + w.n_points
        assert b"".join(chunks).decode() == _reference_wigner_csv_text(w)
        out = _run_wigner(w, tmp_path / str(i), monkeypatch)
        assert (out / "wigner.csv").read_text() == _reference_wigner_csv_text(w)
        assert (out / "marginals.csv").read_text() == _reference_marginals_csv_text(w)
    text = b"".join(wigner_csv_chunks(odd)).decode()
    assert ",-0\n" in text and ",4.9406564584124654e-324\n" in text
    # the p and q texts in one call, then one call per block
    calls = []
    real = serialize.float_texts
    monkeypatch.setattr(serialize, "float_texts", lambda x: calls.append(np.shape(x)) or real(x))
    assert b"".join(wigner_csv_chunks(grids[2])).decode() == _reference_wigner_csv_text(grids[2])
    assert calls == [(256,), (64, 128), (64, 128)]
    monkeypatch.setattr(serialize, "float_texts", real)
    # blocks of one q column each, as for grids longer than a block
    monkeypatch.setattr(wigner, "_CSV_BLOCK_VALUES", 1)
    assert b"".join(wigner_csv_chunks(grids[0])).decode() == _reference_wigner_csv_text(grids[0])
