"""Scenario runner: schemas, artifacts, determinism, exit codes."""

import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decolab import cli, serialize
from decolab.dynamics import collapse
from decolab.hilbert import StateVector, computational_basis

R2 = 1.0 / math.sqrt(2.0)


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def _scenario(kind, params, seed=0):
    return {"schema": "decolab/scenario/v1", "kind": kind, "seed": seed, "params": params}


def _wigner(kind, n_points):
    return _scenario("wigner", {"state": {"kind": kind, "center": 3.0}, "n_points": n_points,
                                "q_min": -12.0, "q_max": 12.0})


def _read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


# ---- serialization helpers ----


def test_fmt_round_trips_doubles():
    rng = np.random.default_rng(5)
    for x in rng.normal(size=50):
        assert float(serialize.fmt(float(x))) == float(x)


def test_dumps_is_stable():
    out = serialize.dumps({"b": 1, "a": [1.5, 2]})
    assert out.startswith('{\n  "a"')
    assert out.endswith("\n")


def test_pairs_match_the_per_element_loop_text():
    rng = np.random.default_rng(8)
    z = rng.normal(size=(25, 40)) + 1j * rng.normal(size=(25, 40))
    z[0, :4] = [0.0, complex(-0.0, 0.0), complex(0.0, -0.0), complex(5e-324, -1e300)]
    loop = [[[float(x.real), float(x.imag)] for x in row] for row in z]
    assert serialize.dumps(serialize.matrix_pairs(z)) == serialize.dumps(loop)
    assert serialize.dumps(serialize.matrix_pairs(z.T)) == serialize.dumps([list(c) for c in zip(*loop)])
    assert serialize.dumps(serialize.complex_pairs(z[:, 3])) == serialize.dumps([r[3] for r in loop])
    assert serialize.dumps(serialize.complex_pairs(z)) == serialize.dumps([p for r in loop for p in r])


def test_csv_text_picks_each_field_from_the_column_dtype():
    floats = np.array([-0.0, 1e-300, 2.0])
    text = serialize.csv_text(
        ["k", "x", "y", "name"],
        np.arange(3, dtype=np.int32),
        floats,
        floats.astype(np.float32),
        ["a", "b|c", ""],
    )
    lines = ["k,x,y,name"] + [
        ",".join([str(k), serialize.fmt(x), serialize.fmt(np.float32(x)), name])
        for k, x, name in zip(range(3), floats, ["a", "b|c", ""])
    ]
    assert text == "\n".join(lines) + "\n"
    assert text.split("\n")[1:4] == ["0,-0,-0,a", "1,1e-300,0,b|c", "2,2,2,"]
    assert serialize.csv_text(["n"], np.array([2**63 - 1], dtype=np.uint64)) == "n\n9223372036854775807\n"
    # zero rows: the header alone, for every field kind
    assert serialize.csv_text(["k", "x", "name"], np.arange(0), np.zeros(0), np.array([], dtype=str)) == "k,x,name\n"
    for bad in (np.array([1j]), np.array([True]), np.array([None]), np.array(["2020"], dtype="datetime64[D]")):
        with pytest.raises(TypeError, match="unsupported dtype"):
            serialize.csv_text(["v"], bad)
    with pytest.raises(ValueError, match="equal lengths"):
        serialize.csv_text(["a", "b"], [1, 2], [1.0])
    with pytest.raises(ValueError, match="header fields"):
        serialize.csv_text(["a", "b"], [1, 2])


# ---- float_texts: FLOAT_FIELD for whole arrays ----


def _assert_float_texts(x):
    x = np.asarray(x, dtype=np.float64)
    got = serialize.float_texts(x)
    assert got.dtype == np.dtype(f"S{serialize.MAX_FMT_LEN}") and got.shape == x.shape
    want = [(serialize.FLOAT_FIELD % v).encode() for v in x.ravel().tolist()]
    bad = [(v, g, w) for v, g, w in zip(x.ravel().tolist(), got.ravel().tolist(), want) if g != w]
    assert not bad, bad[:5]


def _tie_family(rng, size):
    """Odd m in [2**51, 2**53) over 4, 8 and 16, of both signs: exact
    quarters, eighths and sixteenths, many of them exact 17-digit ties."""
    m = rng.integers(2**50, 2**52, size=size) * 2 + 1
    return np.concatenate([s * m / div for div in (4, 8, 16) for s in (1, -1)])


def test_float_texts_match_the_float_field_on_random_bit_patterns():
    rng = np.random.default_rng(20)
    size = 10**6
    fields = rng.integers(0, 2047, size=size, dtype=np.uint64)  # every finite exponent
    bits = (rng.integers(0, 2, size=size, dtype=np.uint64) << np.uint64(63)) | (fields << np.uint64(52))
    bits |= rng.integers(0, 2**52, size=size, dtype=np.uint64)
    assert np.unique(fields).size == 2047
    for block in np.split(bits.view(np.float64), 10):  # 10**5 values: about 30 MB of kernel arrays
        _assert_float_texts(block)


def test_float_texts_match_the_float_field_on_ties_and_powers_of_ten():
    rng = np.random.default_rng(21)
    _assert_float_texts(_tie_family(rng, 20000))
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    _assert_float_texts(np.concatenate([tens, np.nextafter(tens, 0), np.nextafter(tens, np.inf), -tens]))
    edges = [0.0, -0.0, 5e-324, -5e-324, sys.float_info.max, -sys.float_info.max, 2.2250738585072014e-308,
             1e-5, 1e-4, 1e16, 1e17, 99999999999999999.0, 0.1, 1 / 3, 9007199254740993.0]
    _assert_float_texts(edges)
    # any shape, empty and zero-dimensional arrays included
    _assert_float_texts(np.array(edges[:12]).reshape(3, 4))
    _assert_float_texts(np.zeros(0))
    _assert_float_texts(np.float64(-2.5))


def test_float_texts_exact_route_matches_the_float_field(monkeypatch):
    # every value rounded in Python integers, not only those near one half
    rng = np.random.default_rng(22)
    bits = rng.integers(0, 2**64, size=5000, dtype=np.uint64).view(np.float64)
    monkeypatch.setattr(serialize, "_FRACTION_ERROR", 2**64 - 1)
    _assert_float_texts(np.concatenate([bits[np.isfinite(bits)], _tie_family(rng, 500), [5e-324, 1e23]]))


def test_float_texts_fraction_word_is_within_its_error_bound():
    # the table's scaled value is never above V and short of it by less
    # than _FRACTION_ERROR units of the fraction word's last bit
    rng = np.random.default_rng(23)
    x = np.abs(rng.integers(0, 2**64, size=4000, dtype=np.uint64).view(np.float64))
    x = np.concatenate([x[np.isfinite(x) & (x > 0)], np.abs(_tie_family(rng, 100)), [5e-324, 1e22, 1e23]])
    mantissa, e2 = np.frexp(x)
    k = np.floor(np.log10(x)).astype(np.int64)
    d, word = serialize._scaled((mantissa * 2.0**53).astype(np.uint64), e2, k)
    for v, kv, dv, wv in zip(x.tolist(), k.tolist(), d.tolist(), word.tolist()):
        num, den = v.as_integer_ratio()
        exact = (num * 10 ** max(16 - kv, 0) << 64) // (den * 10 ** max(kv - 16, 0))
        assert 0 <= exact - (dv << 64 | wv) < serialize._FRACTION_ERROR, v


def _layout_value(rng, exponents, digits):
    """A positive double whose FLOAT_FIELD text has one of the decimal
    ``exponents`` and exactly ``digits`` significant digits."""
    for _ in range(10**4):
        k = int(rng.choice(exponents))
        middle = rng.integers(0, 10, max(digits - 2, 0))
        text = "".join(map(str, [rng.integers(1, 10), *middle, *rng.integers(1, 10, min(digits - 1, 1))]))
        value = float(f"{text[0]}.{text[1:]}e{k}")
        printed = Decimal(serialize.FLOAT_FIELD % value).normalize()
        if len(printed.as_tuple().digits) == digits and printed.adjusted() == k:
            return value
    raise AssertionError(f"no double prints {digits} digits at exponents {exponents}")


def test_float_texts_match_the_float_field_on_every_layout_code():
    # one value per layout code: 21 fixed-notation exponents (-4 to 16) and
    # scientific notation with two- and three-digit exponents, times 1 to 17
    # significant digits, times the sign
    rng = np.random.default_rng(24)
    classes = [[k] for k in range(-4, 17)]
    classes.append([*range(-99, -4), *range(17, 100)])
    classes.append([*range(-307, -99), *range(100, 309)])
    values = []
    for exponents in classes:
        for digits in range(1, 18):
            value = _layout_value(rng, exponents, digits)
            values += [value, -value]
    values = np.array(values)
    assert values.size == 23 * 17 * 2
    fixed = (np.abs(values) >= 1e-4) & (np.abs(values) < 1e17)
    assert fixed.sum() == 21 * 17 * 2
    # both routes in one call, and each alone
    for x in (values, values[fixed], values[~fixed]):
        _assert_float_texts(x)


def test_float_texts_run_only_the_routes_their_rows_take(monkeypatch):
    calls = []
    for route in ("_fixed", "_scientific"):
        real = getattr(serialize, route)
        monkeypatch.setattr(serialize, route, lambda *a, real=real, route=route: calls.append(route) or real(*a))
    for x, routes in (([-12.0], ["_fixed"]), ([1e-20], ["_scientific"]), ([0.5, -1e300], ["_scientific", "_fixed"])):
        calls.clear()
        _assert_float_texts(x)
        assert calls == routes, x


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40))
def test_float_texts_property(values):
    _assert_float_texts(values)


def test_float_texts_refuse_non_finite_values():
    for bad in ([np.inf], [1.0, -np.inf], [0.5, np.nan]):
        with pytest.raises(ValueError, match="finite"):
            serialize.float_texts(np.array(bad))


# ---- validate ----


def test_validate_ok(tmp_path, capsys):
    path = _write(tmp_path, "g.json", _scenario("graham", {"p": 0.5, "epsilon": 0.3, "n": 4}))
    assert cli.validate(path) == 0
    assert capsys.readouterr().out.strip() == "OK"


def test_validate_rejects_wrong_schema_id(tmp_path, capsys):
    doc = _scenario("graham", {"p": 0.5, "epsilon": 0.3, "n": 4})
    doc["schema"] = "decolab/scenario/v0"
    assert cli.validate(_write(tmp_path, "g.json", doc)) == 2
    assert "schema" in capsys.readouterr().out


def test_validate_unknown_kind(tmp_path, capsys):
    doc = _scenario("frobnicate", {})
    assert cli.validate(_write(tmp_path, "g.json", doc)) == 2
    assert "kind" in capsys.readouterr().out


def test_validate_names_offending_field(tmp_path, capsys):
    doc = _scenario(
        "master",
        {"p0": [0.5, 0.5], "rates": [[0.0, -2.0], [2.0, 0.0]], "times": [1.0]},
    )
    assert cli.validate(_write(tmp_path, "m.json", doc)) == 2
    assert "params.rates[0][1]" in capsys.readouterr().out


def test_validate_reports_measured_norm(tmp_path, capsys):
    doc = _scenario("premeasurement", {"amplitudes": [0.9, 0.1]})
    assert cli.validate(_write(tmp_path, "p.json", doc)) == 2
    out = capsys.readouterr().out
    assert "norm" in out and "0.90553" in out


def test_validate_missing_file():
    assert cli.validate("/nonexistent/nope.json") == 4


def test_validate_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.validate(str(path)) == 2


# ---- run: artifacts and values ----


def test_run_chain_emits_expected_column(tmp_path):
    doc = _scenario("chain", {"amplitudes": [R2, R2], "links": 3, "overlap": 0.5})
    path = _write(tmp_path, "chain.json", doc)
    out = tmp_path / "out"
    assert cli.run(path, out_dir=str(out)) == 0
    rows = _read_csv(out / "chain.csv")
    got = [float(r["off_diagonal"]) for r in rows]
    assert np.abs(np.array(got) - [0.25, 0.125, 0.0625]).max() < 1e-12
    summary = json.loads((out / "summary.json").read_text())
    assert summary["max_population_deviation"] < 1e-10


def test_run_graham_exact_value(tmp_path):
    path = _write(tmp_path, "g.json", _scenario("graham", {"p": 0.5, "epsilon": 0.3, "n": 4}))
    out = tmp_path / "out"
    assert cli.run(path, out_dir=str(out)) == 0
    rows = _read_csv(out / "graham.csv")
    assert float(rows[0]["deviant_norm"]) == 0.125


def test_run_ledger_classical_first_row(tmp_path):
    path = _write(tmp_path, "l.json", _scenario("ledger_classical", {"p": [0.5, 0.5]}))
    out = tmp_path / "out"
    assert cli.run(path, out_dir=str(out)) == 0
    rows = _read_csv(out / "ledger.csv")
    assert float(rows[0]["s_ensemble_nats"]) == pytest.approx(math.log(2), abs=1e-15)


def test_run_histories_interfering(tmp_path):
    doc = _scenario(
        "histories",
        {
            "dim": 2,
            "hamiltonian": {"name": "sigma_x"},
            "times": [math.pi / 4, math.pi / 2],
            "projectors": {"type": "computational"},
            "initial": {"amplitudes": [1.0, 0.0]},
        },
    )
    out = tmp_path / "out"
    assert cli.run(_write(tmp_path, "h.json", doc), out_dir=str(out)) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["total_probability"] == pytest.approx(1.0, abs=1e-10)
    assert summary["consistency_defect"] == pytest.approx(0.5, abs=1e-10)


def test_run_schmidt_with_explicit_state(tmp_path):
    amps = [R2, 0.0, 0.0, R2]
    doc = _scenario(
        "schmidt",
        {"dims": [["a", 2], ["b", 2]], "system": ["a"], "state": {"amplitudes": amps}},
    )
    out = tmp_path / "out"
    assert cli.run(_write(tmp_path, "s.json", doc), out_dir=str(out)) == 0
    rows = _read_csv(out / "coefficients.csv")
    assert len(rows) == 2
    assert float(rows[0]["probability"]) == pytest.approx(0.5, abs=1e-12)
    blob = json.loads((out / "schmidt.json").read_text())
    assert blob["reconstruction_error"] < 1e-10


def test_run_wigner_artifacts(tmp_path):
    doc = _scenario("wigner", {"state": {"kind": "oscillator", "n": 0}, "n_points": 64})
    out = tmp_path / "out"
    assert cli.run(_write(tmp_path, "w.json", doc), out_dir=str(out)) == 0
    meta = json.loads((out / "wigner.meta.json").read_text())
    data = np.fromfile(out / "wigner.bin", dtype=np.float64).reshape(meta["shape"])
    peak = data.max()
    assert peak == pytest.approx(1 / math.pi, abs=1e-4)
    assert (out / "marginals.csv").exists()


def test_run_premeasurement_summary(tmp_path):
    doc = _scenario("premeasurement", {"amplitudes": [R2, R2], "pointer_overlap": 0.25})
    out = tmp_path / "out"
    assert cli.run(_write(tmp_path, "p.json", doc), out_dir=str(out)) == 0
    row = _read_csv(out / "summary.csv")[0]
    assert float(row["off_diagonal_max"]) == pytest.approx(0.125, abs=1e-12)
    assert float(row["global_purity"]) == pytest.approx(1.0, abs=1e-12)


def test_premeasurement_of_signed_zero_amplitudes_prints_no_negative_zero(tmp_path):
    # the density's zero entries are products with a_1 = -0.0 - 0.0j, and
    # with a negative overlap products such as 0 x (-0.2) = -0.0
    for overlap in (0.0, -0.2):
        doc = _scenario("premeasurement", {"amplitudes": [[0, -1], [-0.0, -0.0]], "pointer_overlap": overlap})
        out = tmp_path / f"out{overlap}"
        assert cli.run(_write(tmp_path, "p.json", doc), out_dir=str(out)) == 0
        for name in ("system_density.json", "joint_state.json"):
            assert "-0.0" not in (out / name).read_text(), (overlap, name)


def test_run_branch_recohere_rows(tmp_path):
    doc = _scenario("branch_recohere", {"amplitudes": [R2, R2]})
    out = tmp_path / "out"
    assert cli.run(_write(tmp_path, "b.json", doc), out_dir=str(out)) == 0
    rows = _read_csv(out / "branch.csv")
    assert len(rows) == 4
    assert float(rows[0]["apparatus_fidelity"]) == pytest.approx(1.0, abs=1e-12)
    # step 1 displaces the apparatus fully off its ready state
    assert float(rows[1]["apparatus_fidelity"]) == pytest.approx(0.0, abs=1e-12)
    assert float(rows[3]["apparatus_fidelity"]) == pytest.approx(1.0, abs=1e-10)
    assert float(rows[3]["system_linear_entropy"]) == pytest.approx(0.5, abs=1e-10)


# ---- manifest ----


def test_manifest_hashes_every_artifact(tmp_path):
    master = _scenario("master", {
        "p0": [0.9, 0.1], "rates": [[0.0, 0.7], [0.7, 0.0]], "times": [0.0, 1.0],
    })
    # wigner.csv is written and hashed one q column at a time
    for i, doc in enumerate((master, _wigner("mixture", 64))):
        out = tmp_path / f"out{i}"
        assert cli.run(_write(tmp_path, f"{i}.json", doc), out_dir=str(out)) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["schema"] == "decolab/manifest/v1"
        names = {entry["name"] for entry in manifest["files"]}
        on_disk = {p.name for p in out.iterdir()}
        assert names == on_disk - {"manifest.json"}
        for entry in manifest["files"]:
            blob = (out / entry["name"]).read_bytes()
            assert hashlib.sha256(blob).hexdigest() == entry["sha256"]
            assert len(blob) == entry["bytes"]


# ---- determinism ----


def test_reruns_are_byte_identical(tmp_path):
    doc = _scenario(
        "collapse_mc", {"amplitudes": [0.5, 0.5, 0.5, 0.5], "trials": 300}, seed=42
    )
    path = _write(tmp_path, "c.json", doc)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.run(path, out_dir=str(out_a)) == 0
    assert cli.run(path, out_dir=str(out_b)) == 0
    for p in sorted(out_a.iterdir()):
        assert p.read_bytes() == (out_b / p.name).read_bytes()


def test_seed_flag_overrides_scenario(tmp_path):
    doc = _scenario("collapse_mc", {"amplitudes": [R2, R2], "trials": 50}, seed=1)
    path = _write(tmp_path, "c.json", doc)
    out_a, out_b, out_c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    assert cli.run(path, out_dir=str(out_a)) == 0
    assert cli.run(path, out_dir=str(out_b), seed=900) == 0
    assert cli.run(path, out_dir=str(out_c), seed=1) == 0
    assert (out_a / "collapse.csv").read_bytes() == (out_c / "collapse.csv").read_bytes()
    assert (out_a / "records.json").read_bytes() != (out_b / "records.json").read_bytes()


def _reference_collapse_mc(psi, trials, limit, seed):
    """collapse.csv and records.json from one collapse() call per trial."""
    basis = computational_basis(psi.space)
    counts = np.zeros(len(basis), dtype=np.int64)
    records = []
    for i in range(trials):
        rec = collapse(psi, basis, seed + i)
        counts[rec.outcome_index] += 1
        if i < limit:
            records.append(rec.to_json_obj())
    born = np.abs(psi.amplitudes) ** 2
    lines = ["outcome,born_probability,count,frequency"] + [
        ",".join([str(i), serialize.fmt(born[i]), str(int(counts[i])), serialize.fmt(counts[i] / trials)])
        for i in range(len(basis))
    ]
    return "\n".join(lines) + "\n", serialize.dumps(records)


def test_collapse_mc_matches_one_collapse_per_trial(tmp_path):
    rng = np.random.default_rng(11)
    for i, (seed, trials, limit) in enumerate(
        [(0, 1, 5), (3, 257, 0), (2**32 - 2, 300, 4), (2**40, 64, 64), (2**63 + 5, 9, 20)]
    ):
        n = 2 + i
        amps = rng.normal(size=n) + 1j * rng.normal(size=n)
        amps[(2 * i + 1) % n] = 0.0
        amps /= np.linalg.norm(amps)
        params = {"amplitudes": [[z.real, z.imag] for z in amps], "trials": trials, "record_limit": limit}
        doc = _scenario("collapse_mc", params, seed=seed)
        out = tmp_path / str(i)
        assert cli.run(_write(tmp_path, f"{i}.json", doc), out_dir=str(out)) == 0
        psi = cli._parse_document(doc)[1][2][0]
        csv_text, records_text = _reference_collapse_mc(psi, trials, limit, seed)
        assert (out / "collapse.csv").read_text() == csv_text
        assert (out / "records.json").read_text() == records_text


def test_records_json_is_written_one_record_at_a_time(tmp_path):
    amps = _random_amplitudes(3, seed=4)
    for limit in (0, 1, 5):
        doc = _scenario("collapse_mc", {"amplitudes": amps, "trials": 7, "record_limit": limit}, seed=9)
        out = tmp_path / f"r{limit}"
        assert cli.run(_write(tmp_path, f"r{limit}.json", doc), out_dir=str(out)) == 0
        psi = cli._parse_document(doc)[1][2][0]
        records = [collapse(psi, computational_basis(psi.space), 9 + i).to_json_obj() for i in range(limit)]
        assert (out / "records.json").read_bytes() == serialize.dumps(records).encode()
    # 2000 amplitudes: ten records peak within one record's charge of one
    # record, where the whole list held them all (17.8 MB against 1.9 MB)
    amps = _random_amplitudes(2000)
    peaks = []
    for limit in (1, 10):
        doc = _scenario("collapse_mc", {"amplitudes": amps, "trials": 10, "record_limit": limit})
        path = _write(tmp_path, f"big{limit}.json", doc)
        tracemalloc.start()
        try:
            assert cli.run(path, out_dir=str(tmp_path / f"big{limit}")) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < peaks[0] + 2 * 2000 * cli.RECORD_AMPLITUDE_BYTES, peaks


# ---- exit codes ----


def test_run_schema_violation_is_exit_2(tmp_path):
    doc = _scenario("graham", {"p": 0.5, "epsilon": -1.0, "n": 4})
    assert cli.run(_write(tmp_path, "g.json", doc), out_dir=str(tmp_path / "o")) == 2


def test_run_invariant_violation_is_exit_3(tmp_path):
    # passes schema checks, fails conservation inside the run
    doc = _scenario(
        "master",
        {"p0": [0.5, 0.5], "rates": [[0.0, 1.0], [3.0, 0.0]], "times": [1.0]},
    )
    assert cli.run(_write(tmp_path, "m.json", doc), out_dir=str(tmp_path / "o")) == 3


def test_run_missing_file_is_exit_4():
    assert cli.run("/nonexistent/nope.json") == 4


def test_run_unwritable_output_is_exit_4(tmp_path):
    doc = _scenario("graham", {"p": 0.5, "epsilon": 0.3, "n": 4})
    path = _write(tmp_path, "g.json", doc)
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory")
    assert cli.run(path, out_dir=str(blocker / "sub")) == 4


# ---- entry point ----


def test_main_dispatch(tmp_path, capsys):
    path = _write(tmp_path, "g.json", _scenario("graham", {"p": 0.5, "epsilon": 0.3, "n": 4}))
    assert cli.main(["validate", path]) == 0
    capsys.readouterr()
    assert cli.main(["run", path, "--out", str(tmp_path / "o")]) == 0


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0
    assert "decolab" in capsys.readouterr().out


def test_console_script_installed(tmp_path):
    doc = _scenario("graham", {"p": 0.5, "epsilon": 0.3, "n": 4})
    path = _write(tmp_path, "g.json", doc)
    res = subprocess.run(
        [sys.executable, "-m", "decolab.cli", "run", path, "--out", str(tmp_path / "o")],
        capture_output=True,
        text=True,
    )
    assert res.returncode == 0
    assert (tmp_path / "o" / "manifest.json").exists()


def test_python_dash_m_decolab(tmp_path):
    ok = _write(tmp_path, "g.json", _scenario("graham", {"p": 0.5, "epsilon": 0.3, "n": 4}))
    bad = _write(tmp_path, "b.json", _scenario("graham", {"p": 0.5, "epsilon": 0.3, "n": 0}))
    for path, code in ((ok, 0), (bad, 2)):
        res = subprocess.run(
            [sys.executable, "-m", "decolab", "validate", path], capture_output=True, text=True
        )
        assert res.returncode == code


# One small scenario of each kind, as in the CI emit smoke test.
SMOKE = {
    "premeasurement": {"amplitudes": [0.6, [0.0, 0.8]], "pointer_overlap": 0.3},
    "chain": {"amplitudes": [0.6, [0.0, 0.8]], "links": 3, "overlaps": [0.0, 0.3, -0.2]},
    "branch_recohere": {"amplitudes": [0.6, [0.0, 0.8]], "env_dim": 4},
    "collapse_mc": {"amplitudes": [0.6, [0.0, 0.0], [0.0, 0.8]], "trials": 4000, "record_limit": 5},
    "wigner": {"state": {"kind": "mixture", "center": 3.0}, "n_points": 64, "q_min": -12.0, "q_max": 12.0},
    "schmidt": {"dims": [["a", 2], ["b", 3]], "system": ["a"], "state": {"kind": "random"}},
    "master": {"p0": [1.0, 0.0, 0.0], "rates": [[0, 1, 0.5], [1, 0, 2], [0.5, 2, 0]], "times": [0.0, 0.5, 2.0]},
    "histories": {"dim": 2, "hamiltonian": {"name": "sigma_x"}, "times": [0.3, 0.9], "initial": {"amplitudes": [1.0, 0.0]}},
    "graham": {"p": [0.2, 0.3, 0.5], "epsilon": 0.1, "n_values": [1, 4, 9]},
    "ledger_classical": {"p": [0.25, 0.75]},
    "ledger_quantum": {"amplitudes": [0.6, [0.0, 0.8]]},
    "ledger_branching": {"amplitudes": [0.6, [0.0, 0.8]], "env_dim": 4},
}


def test_importing_the_cli_leaves_scipy_linalg_unloaded(tmp_path):
    # no kind needs scipy: importing the cli and running one scenario of each
    # kind loads no scipy module
    assert set(SMOKE) == set(cli.KINDS)
    paths = [_write(tmp_path, f"{kind}.json", _scenario(kind, params)) for kind, params in SMOKE.items()]
    code = (
        "import sys, decolab.cli\n"
        "for path in sys.argv[1:]:\n"
        "    assert decolab.cli.run(path, out_dir=path[:-5]) == 0, path\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    res = subprocess.run([sys.executable, "-c", code, *paths], capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]"


# ---- one parse for validate and run ----

R3 = 1.0 / math.sqrt(3.0)
NAN = float("nan")

SCHEMA_DEFECTS = [
    ("premeasurement", {"amplitudes": [R2, R2], "pointer_overlap": 1.0}, "params.pointer_overlap"),
    ("premeasurement", {"amplitudes": [R3, R3, R3], "pointer_overlap": -0.6}, "params.pointer_overlap"),
    ("chain", {"amplitudes": [1, 0], "links": 1, "overlap": 2.0}, "params.overlap"),
    ("chain", {"amplitudes": [1, 0], "links": 1, "overlaps": [NAN]}, "params.overlaps"),
    ("graham", {"p": 0.5, "epsilon": NAN, "n": 4}, "params.epsilon"),
    ("graham", {"p": 0.5, "epsilon": float("inf"), "n": 4}, "params.epsilon"),
    ("schmidt", {"dims": [["a", True], ["b", 2]], "system": ["a"]}, "params.dims"),
    ("schmidt", {"dims": [["a", 2], ["a", 2]], "system": ["a"]}, "params.dims"),
    (
        "histories",
        {
            "dim": 2,
            "hamiltonian": {"name": "sigma_x"},
            "times": [0.5, 1.0],
            "projectors": [{"type": "computational"}],
            "initial": {"amplitudes": [1.0, 0.0]},
        },
        "params.times",
    ),
    (
        "histories",
        {
            "dim": 2,
            "hamiltonian": {"name": "sigma_x", "scale": NAN},
            "times": [0.5],
            "initial": {"amplitudes": [1.0, 0.0]},
        },
        "params.hamiltonian.scale",
    ),
    ("master", {"p0": [0.5, 0.5], "rates": [[0.0, NAN], [1.0, 0.0]], "times": [1.0]}, "params.rates[0][1]"),
    ("collapse_mc", {"amplitudes": [NAN, 1.0], "trials": 10}, "params.amplitudes[0]"),
    ("wigner", {"state": {"kind": "oscillator"}, "n_points": 100}, "params.n_points: n_points must be a power of two"),
    ("wigner", {"state": {"kind": "oscillator"}, "q_min": 3, "q_max": -3}, "params.q_max: q_max must exceed q_min"),
]


def _both_reject(path, out_dir, capsys, field):
    assert cli.validate(path) == 2
    assert field in capsys.readouterr().out
    assert cli.run(path, out_dir=str(out_dir)) == 2
    assert field in capsys.readouterr().err
    assert not (out_dir / "manifest.json").exists()


@pytest.mark.parametrize("kind,params,field", SCHEMA_DEFECTS)
def test_schema_defects_exit_2_from_validate_and_run(tmp_path, capsys, kind, params, field):
    path = _write(tmp_path, "s.json", _scenario(kind, params))
    _both_reject(path, tmp_path / "out", capsys, field)


def test_non_utf8_file_is_a_schema_violation(tmp_path, capsys):
    path = tmp_path / "s.json"
    path.write_bytes(b'{"schema": "\xff\xfe"}')
    _both_reject(str(path), tmp_path / "out", capsys, "schema: not valid UTF-8")


def test_memory_cap_rejects_before_allocating(tmp_path, capsys, monkeypatch):
    # one link over the cap, and n=58 at the cap, whose 5001 registers of
    # width 59 are charged over 1 GiB: both refused before any register is built
    built = []
    for name in ("ideal", "with_overlap"):
        monkeypatch.setattr(cli.ApparatusModel, name, staticmethod(lambda *args, **kwargs: built.append(args)))
    for n, links in ((2, 5001), (58, 5000)):
        doc = _scenario("chain", {"amplitudes": [1.0 / math.sqrt(n)] * n, "links": links})
        path = _write(tmp_path, "c.json", doc)
        start = time.perf_counter()
        _both_reject(path, tmp_path / "out", capsys, "params.links")
        assert time.perf_counter() - start < 1.0
    assert built == []
    monkeypatch.undo()
    for n in (2, 57):
        doc = _scenario("chain", {"amplitudes": [1.0 / math.sqrt(n)] * n, "links": 5000})
        assert cli.validate_document(doc) == []
    wide = _scenario("wigner", {"state": {"kind": "oscillator"}, "n_points": 16384})
    assert any("params.n_points" in d for d in cli.validate_document(wide))
    # the largest benchmark rung (n=3 with 4 links, D=3072) stays accepted
    largest = _scenario("chain", {"amplitudes": [R3, R3, R3], "links": 4})
    assert cli.validate_document(largest) == []


def test_chain_parse_builds_one_state_vector_per_register(monkeypatch):
    # a register is a ready state and one pointer stack, and the system is
    # read as its amplitudes: chain n=57 at MAX_LINKS links builds a
    # StateVector for the system state and one for each ready state, none
    # per pointer or system basis vector
    n, links = 57, cli.MAX_LINKS
    built = []
    post_init = StateVector.__post_init__
    monkeypatch.setattr(StateVector, "__post_init__", lambda self: built.append(1) or post_init(self))
    doc = _scenario("chain", {"amplitudes": [1.0 / math.sqrt(n)] * n, "links": links})
    assert cli.validate_document(doc) == []
    assert len(built) <= links + 2


def _histories(dim, slices, **extra):
    return _scenario("histories", {
        "dim": dim,
        "hamiltonian": {"name": "diagonal", "entries": list(range(dim))},
        "times": [0.5 * (k + 1) for k in range(slices)],
        "initial": {"diagonal": [1.0 / dim] * dim},
        **extra,
    })


def test_histories_cap_charges_class_operators_and_subset_masks(tmp_path, capsys):
    # dim 8 with 6 slices: H = 8^6 = 262144 histories, D alone holds H^2 entries
    # dim 24 in one slice: the subset masks hold 2^24 x 24 entries
    for doc, field in ((_histories(8, 6), "params.times"), (_histories(24, 1), "params.projectors")):
        path = _write(tmp_path, "h.json", doc)
        start = time.perf_counter()
        _both_reject(path, tmp_path / "out", capsys, field)
        assert time.perf_counter() - start < 1.0
    # a long times list is charged without forming dim^slices
    assert any("params.times" in d for d in cli.validate_document(_histories(2, 100_000)))
    # the histories benchmark rungs stay accepted
    for dim, slices in ((2, 6), (3, 4), (5, 3), (6, 2)):
        assert cli.validate_document(_histories(dim, slices)) == []


def test_graham_cap_charges_multinomial_terms_and_arrays(tmp_path, capsys):
    # 3 outcomes at n=3000: C(3002, 2) = 4504501 terms, over the term cap
    # 1000 outcomes at n=2: 500500 terms, but 5e8 entries in the arrays
    uniform = [1.0 / 1000] * 1000
    for params, field in (
        ({"p": [0.2, 0.3, 0.5], "epsilon": 0.1, "n": 3000}, "params.n"),
        ({"p": uniform, "epsilon": 0.1, "n_values": [1, 2]}, "params.n_values"),
    ):
        path = _write(tmp_path, "g.json", _scenario("graham", params))
        start = time.perf_counter()
        _both_reject(path, tmp_path / "out", capsys, field)
        assert time.perf_counter() - start < 1.0
    # epsilon > 1 enumerates nothing; two outcomes take the binomial route
    for params in (
        {"p": [0.2, 0.3, 0.5], "epsilon": 1.5, "n": 3000},
        {"p": 0.3, "epsilon": 0.1, "n": 3000},
        {"p": [0.2, 0.3, 0.5], "epsilon": 0.1, "n_values": [100, 200, 300]},
    ):
        assert cli.validate_document(_scenario("graham", params)) == []


def _random_amplitudes(n, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return [[float(z.real), float(z.imag)] for z in v / np.linalg.norm(v)]


def test_parse_charges_bound_the_measured_peak(tmp_path, monkeypatch):
    rungs = [
        _scenario("premeasurement", {"amplitudes": _random_amplitudes(40), "pointer_overlap": 0.3}),
        _scenario("ledger_quantum", {"amplitudes": _random_amplitudes(30)}),
        _scenario("chain", {"amplitudes": _random_amplitudes(2), "links": 6, "overlap": 0.4}),
        _scenario("branch_recohere", {"amplitudes": _random_amplitudes(3), "env_dim": 12}),
        _scenario("ledger_branching", {"amplitudes": _random_amplitudes(2), "env_dim": 60}),
        _histories(8, 3),
        # two blocks over dim 48: the class operators outweigh the functional
        _histories(48, 6, projectors={"type": "blocks", "blocks": [list(range(24)), list(range(24, 48))]}),
        # one first part holds 135 751 of the 1 221 759 compositions
        _scenario("graham", {"p": [1.0 / 6] * 6, "epsilon": 0.2, "n": 40}),
        # the log-domain binomial route: one float per deviant count
        _scenario("graham", {"p": 0.3, "epsilon": 1e-4, "n": 200_000}),
        _wigner("mixture", 256),
        # at the parent: 3.9 s and 339 MiB, a Gram matrix of the basis per trial
        _scenario("collapse_mc", {"amplitudes": _random_amplitudes(2000), "trials": 3, "record_limit": 5}),
        # ten records of 2000 amplitudes, charged for one at a time
        _scenario("collapse_mc", {"amplitudes": _random_amplitudes(2000), "trials": 10, "record_limit": 10}),
        # the outcome array and one block of the seed replay
        _scenario("collapse_mc", {"amplitudes": _random_amplitudes(3), "trials": 10**5}),
        # schmidt.json's 32 x (32 + 512) vector amplitudes
        _schmidt(32, 512),
        # one 200 x 200 slice a block, and 20 000 times of 4 states in blocks
        # of 4096: the kernel's stacks, then master.csv's table
        _master(200, [0.5, 3.0]),
        _master(4, [0.01 * i for i in range(20_000)]),
    ]
    # The register kinds at their limits, where the charge is also at most 4x
    # the peak: chain n=2 at MAX_LINKS, the branch kinds at n=2 with the
    # largest env_dim (about 950 MB each).  premeasurement at n=1276 and
    # ledger_quantum at n=2271 take 25 s and 4 min even untraced, so they
    # stand in at n=120 and n=300, where the charge/peak ratios (1.30, 1.57)
    # are already those at the limits (1.29, 1.62).
    frontier = [
        _scenario("chain", {"amplitudes": _random_amplitudes(2), "links": 5000, "overlap": 0.4}),
        _scenario("branch_recohere", {"amplitudes": _random_amplitudes(2), "env_dim": 3728131}),
        _scenario("ledger_branching", {"amplitudes": _random_amplitudes(2), "env_dim": 3728131}),
        _scenario("premeasurement", {"amplitudes": _random_amplitudes(120), "pointer_overlap": 0.3}),
        _scenario("ledger_quantum", {"amplitudes": _random_amplitudes(300)}),
    ]
    charged = []
    real = cli._fits

    def recording(entries, field, diags):
        charged.append(entries)
        return real(entries, field, diags)

    monkeypatch.setattr(cli, "_fits", recording)
    for i, doc in enumerate(rungs + frontier):
        charged.clear()
        path = _write(tmp_path, f"{i}.json", doc)
        tracemalloc.start()
        try:
            code = cli.run(path, out_dir=str(tmp_path / str(i)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 16 * sum(charged), (doc["kind"], peak, charged)
        if i >= len(rungs):
            assert 16 * sum(charged) <= 4 * peak, (doc["kind"], peak, charged)


def test_wigner_charge_covers_the_csv_text_blocks(tmp_path, monkeypatch):
    # grids of up to 128 points print their whole wigner.csv in one or two
    # blocks of float texts, each larger than the grid's own arrays
    charged = []
    real = cli._fits
    monkeypatch.setattr(cli, "_fits", lambda entries, field, diags: charged.append(entries) or real(entries, field, diags))
    for n in (8, 32, 64, 128):
        charged.clear()
        path = _write(tmp_path, f"{n}.json", _wigner("mixture", n))
        tracemalloc.start()
        try:
            code = cli.run(path, out_dir=str(tmp_path / str(n)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 16 * sum(charged), (n, peak, charged)


def test_wigner_text_is_bounded_in_the_parse(tmp_path, capsys):
    # 2048 points: wigner.csv is at most 2048^2 lines of 75 bytes (315 MB)
    assert cli.validate_document(_wigner("mixture", 2048)) == []
    # 4096 points: up to 1.26 GB of text, over the artifact cap
    path = _write(tmp_path, "w.json", _wigner("mixture", 4096))
    start = time.perf_counter()
    _both_reject(path, tmp_path / "out", capsys, "params.n_points")
    assert time.perf_counter() - start < 1.0
    assert any("artifact cap" in d for d in cli.validate_document(_wigner("superposition", 4096)))


def test_collapse_mc_trials_and_records_are_charged(tmp_path, capsys):
    amps = _random_amplitudes(2000)
    assert cli.validate_document(_scenario("collapse_mc", {"amplitudes": amps, "trials": 10**6})) == []
    # records of 2 x 2000 amplitudes, 1.8 MB of JSON lists each, are written
    # one at a time, so memory admits any number of them (the text of
    # records.json is bounded on its own)
    for trials, limit in ((10**6, 595), (595, 10**6)):
        doc = _scenario("collapse_mc", {"amplitudes": amps, "trials": trials, "record_limit": limit})
        assert cli.validate_document(doc) == []
    path = _write(tmp_path, "c.json", _scenario("collapse_mc", {"amplitudes": amps, "trials": 10**6 + 1}))
    start = time.perf_counter()
    _both_reject(path, tmp_path / "out", capsys, "params.trials")
    assert time.perf_counter() - start < 1.0
    # 800 000 amplitudes: one record's pre and post states are over the cap,
    # the Born table and collapse.csv alone are not
    amps = [1.0] + [0.0] * 799_999
    diags = cli.validate_document(_scenario("collapse_mc", {"amplitudes": amps, "trials": 1, "record_limit": 1}))
    assert len(diags) == 1 and diags[0].startswith("params.amplitudes:") and "cap" in diags[0]
    assert cli.validate_document(_scenario("collapse_mc", {"amplitudes": amps, "trials": 1, "record_limit": 0})) == []


def test_records_json_text_is_bounded_in_the_parse(tmp_path, capsys):
    # min(record_limit, trials) records of 2 x 2000 amplitudes, at most
    # 368 519 bytes of text each: 2913 fit under the artifact cap, 2914 do not
    amps = _random_amplitudes(2000)
    for trials, limit in ((10**6, 2913), (2913, 10**6)):
        doc = _scenario("collapse_mc", {"amplitudes": amps, "trials": trials, "record_limit": limit})
        assert cli.validate_document(doc) == []
    for trials, limit in ((10**6, 2914), (2914, 10**6)):
        path = _write(tmp_path, "c.json", _scenario("collapse_mc", {"amplitudes": amps, "trials": trials, "record_limit": limit}))
        start = time.perf_counter()
        _both_reject(path, tmp_path / "out", capsys, "params.record_limit")
        assert time.perf_counter() - start < 1.0
    # 10^5 amplitudes in 10^6 records would print about 2 * 10^13 bytes
    doc = _scenario("collapse_mc", {"amplitudes": [1.0] + [0.0] * 99_999, "trials": 10**6, "record_limit": 10**6})
    assert any(d.startswith("params.record_limit:") and "artifact cap" in d for d in cli.validate_document(doc))
    # the bound holds for the longest texts: 24-byte floats and a long seed
    tiny = -2.2250738585072014e-308
    for n in (2, 3):
        amps = [[tiny, tiny]] * (n - 1) + [1.0]
        for seed in (0, 10**40):
            doc = _scenario("collapse_mc", {"amplitudes": amps, "trials": 4, "record_limit": 3}, seed=seed)
            assert cli.run(_write(tmp_path, "t.json", doc), out_dir=str(tmp_path / "t")) == 0
            size = (tmp_path / "t" / "records.json").stat().st_size
            record = 2 * n * cli.RECORD_PAIR_TEXT_BYTES + cli.RECORD_TEXT_BYTES + len(str(seed + 4))
            assert size <= 3 * record, (n, seed, size, record)


def _schmidt(d_a, d_b):
    return _scenario("schmidt", {"dims": [["a", d_a], ["b", d_b]], "system": ["a"]})


def test_schmidt_json_is_charged(tmp_path, capsys):
    # schmidt.json lists min(d_A, d_B) (d_A + d_B) amplitudes: 927 x 927 fits
    # the cap at SCHMIDT_AMPLITUDE_BYTES each, with SCHMIDT_STATE_BYTES per
    # amplitude of the state, and 928 x 928 does not
    assert cli.validate_document(_schmidt(927, 927)) == []
    for doc in (_schmidt(928, 928), _schmidt(4096, 4096)):
        path = _write(tmp_path, "s.json", doc)
        start = time.perf_counter()
        _both_reject(path, tmp_path / "out", capsys, "params.dims")
        assert time.perf_counter() - start < 1.0
    # a bad system label is refused before any state is drawn, whatever its size
    path = _write(tmp_path, "s.json", _scenario("schmidt", {"dims": [["a", 8192], ["b", 8192]], "system": ["c"]}))
    start = time.perf_counter()
    _both_reject(path, tmp_path / "out", capsys, "params.system")
    assert time.perf_counter() - start < 1.0
    # d_A and d_B are the products of the dims on each side of the cut
    for d, ok in ((927, True), (928, False)):
        doc = _scenario("schmidt", {"dims": [["a", d], ["b", 1], ["c", d]], "system": ["c", "b"]})
        diags = cli.validate_document(doc)
        assert diags == [] if ok else diags[0].startswith("params.dims:"), (d, diags)


def _master(n, times, seed=0):
    rates = np.random.default_rng(seed).uniform(0.1, 1.0, size=(n, n))
    rates = (rates + rates.T) / 2.0
    np.fill_diagonal(rates, 0.0)
    return _scenario("master", {"p0": [1.0 / n] * n, "rates": rates.tolist(), "times": times})


def test_master_is_charged_by_its_block_and_table(tmp_path, capsys):
    # at 10^4 times, one n x n slice a block and the 10^4 x (n + 1) table:
    # n = 962 fits the cap at MASTER_ENTRY_BYTES and MASTER_VALUE_BYTES, and
    # n = 963 is refused before the rate matrix is built
    def zero_rates(n):
        return _scenario("master", {"p0": [1.0] + [0.0] * (n - 1), "rates": [[0] * n] * n, "times": [1.0] * 10**4})

    assert cli.validate_document(zero_rates(962)) == []
    path = _write(tmp_path, "m.json", zero_rates(963))
    start = time.perf_counter()
    _both_reject(path, tmp_path / "out", capsys, "params.rates")
    assert time.perf_counter() - start < 1.0


def test_premeasurement_is_charged_for_the_slice_route(tmp_path, capsys):
    # n=100: D = 10100, whose D x D matrix alone would be 1.6 GB
    doc = _scenario("premeasurement", {"amplitudes": _random_amplitudes(100), "pointer_overlap": 0.2})
    assert cli.validate_document(doc) == []
    assert cli.run(_write(tmp_path, "p.json", doc), out_dir=str(tmp_path / "o")) == 0
    # n=5000: joint_state.json alone would take 5000 x 5001 amplitudes at
    # RECORD_AMPLITUDE_BYTES each (11 GB)
    doc = _scenario("premeasurement", {"amplitudes": _random_amplitudes(5000)})
    path = _write(tmp_path, "big.json", doc)
    start = time.perf_counter()
    _both_reject(path, tmp_path / "out", capsys, "params.amplitudes")
    assert time.perf_counter() - start < 1.0
    # the limits the README states
    refused = []
    for kind, n in (("premeasurement", 1276), ("ledger_quantum", 2271)):
        assert cli.validate_document(_scenario(kind, {"amplitudes": [1.0 / math.sqrt(n)] * n})) == []
        refused.append((kind, {"amplitudes": [1.0 / math.sqrt(n + 1)] * (n + 1)}, "params.amplitudes"))
    assert cli.validate_document(_scenario("ledger_branching", {"amplitudes": [R2, R2], "env_dim": 3728131})) == []
    for kind in ("branch_recohere", "ledger_branching"):
        refused.append((kind, {"amplitudes": [R2, R2], "env_dim": 3728132}, "params.env_dim"))
    for kind, params, field in refused:
        path = _write(tmp_path, f"{kind}.json", _scenario(kind, params))
        start = time.perf_counter()
        _both_reject(path, tmp_path / "out", capsys, field)
        assert time.perf_counter() - start < 1.0


def test_chain_beyond_a_dense_unitary_validates_and_runs(tmp_path, capsys):
    # n=2 with 7 links: D = 13122, whose dense unitary alone would be 2.75 GB
    doc = _scenario("chain", {"amplitudes": [R2, R2], "links": 7})
    assert cli.validate_document(doc) == []
    path = _write(tmp_path, "c.json", doc)
    assert cli.run(path, out_dir=str(tmp_path / "o")) == 0
    assert (tmp_path / "o" / "manifest.json").exists()


def test_decode_factor_bounds_the_measured_peak():
    # [re, im] pairs, bare reals, lists of empty lists and nested empty lists
    for item in ("[0.5,-0.25]", "[0.0,0.0]", "0.0", "0.12345678901234567", "[]", "[" * 50 + "]" * 50):
        raw = json.dumps(_scenario("collapse_mc", {"trials": 1})).encode()
        raw = raw.replace(b'"trials"', b'"amplitudes": [' + ",".join([item] * (100_000 // len(item))).encode() + b'], "trials"')
        tracemalloc.start()
        try:
            json.loads(raw.decode("utf-8"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < cli.DECODE_BYTES_PER_BYTE * len(raw), (item, peak / len(raw))


def test_scenario_file_size_is_bounded_before_decoding(tmp_path, capsys):
    doc = json.dumps(_scenario("ledger_classical", {"p": [0.5, 0.5]}))
    path = tmp_path / "pad.json"
    path.write_text(doc + " " * (cli.MAX_SCENARIO_BYTES - len(doc)))
    assert cli.validate(str(path)) == 0
    # one byte more, as [re, im] pairs: refused before any decoding
    pair = "[0.0, 0.0], "
    head = '{"schema": "decolab/scenario/v1", "kind": "collapse_mc", "params": {"trials": 1, "amplitudes": ['
    tail = "[1.0, 0.0]]}}"
    count, rest = divmod(cli.MAX_SCENARIO_BYTES + 1 - len(head) - len(tail), len(pair))
    path.write_text(head + " " * rest + pair * count + tail)
    assert path.stat().st_size == cli.MAX_SCENARIO_BYTES + 1
    start = time.perf_counter()
    _both_reject(str(path), tmp_path / "out", capsys, "scenario: file over")
    assert time.perf_counter() - start < 1.0


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_scenario_from_a_pipe_is_bounded_before_decoding(tmp_path, capsys):
    # a pipe has no size to check before reading: the length read is checked
    fifo = str(tmp_path / "pipe.json")
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as fh:
            fh.write(b" " * (cli.MAX_SCENARIO_BYTES + 1))

    for command in (lambda: cli.validate(fifo), lambda: cli.run(fifo, out_dir=str(tmp_path / "o"))):
        writer = threading.Thread(target=feed, daemon=True)
        writer.start()
        assert command() == 2
        writer.join(timeout=10)
        assert not writer.is_alive()
        out, err = capsys.readouterr()
        assert "scenario: file over" in out + err


def test_deeply_nested_json_is_a_schema_violation(tmp_path, capsys):
    depth = 100_000
    text = (
        '{"schema": "decolab/scenario/v1", "kind": "chain", "params": '
        + "[" * depth + "]" * depth + "}"
    )
    path = tmp_path / "s.json"
    path.write_text(text)
    _both_reject(str(path), tmp_path / "out", capsys, "schema: JSON nested too deeply")


def test_unexpected_failure_is_one_line_exit_3(tmp_path, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(cli, "schmidt_decompose", broken)
    doc = _scenario("schmidt", {"dims": [["a", 2], ["b", 2]], "system": ["a"]})
    assert cli.run(_write(tmp_path, "s.json", doc), out_dir=str(tmp_path / "o")) == 3
    assert capsys.readouterr().err == "error: LinAlgError: SVD did not converge\n"


# Near-valid values per kind and field; a document then loses or junks up
# to two fields.
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.sampled_from([NAN, float("inf"), -float("inf"), 1e300, -1, 0, "1", [], {}, [[1]]]),
    st.integers(-2, 5),
    st.floats(-2.0, 2.0),
)
_AMPS = st.sampled_from([[R2, R2], [0.6, [0.0, 0.8]], [R3, R3, R3], [1.0, 0.0], [0.5, 0.5]])
_PROBS = st.sampled_from([[0.5, 0.5], [0.9, 0.1], [0.2, 0.3, 0.5], [1.0, 0.0]])
_OVERLAP = st.floats(-0.45, 0.95)
_TIMES = st.lists(st.floats(0.1, 1.0), min_size=1, max_size=2).map(lambda d: list(np.cumsum(d)))
_FIELDS = {
    "premeasurement": {"amplitudes": _AMPS, "pointer_overlap": _OVERLAP},
    "chain": {"amplitudes": _AMPS, "links": st.integers(0, 3), "overlap": _OVERLAP},
    "branch_recohere": {"amplitudes": _AMPS, "env_dim": st.integers(3, 5)},
    "collapse_mc": {"amplitudes": _AMPS, "trials": st.integers(1, 30), "record_limit": st.integers(0, 3)},
    "wigner": {
        "state": st.fixed_dictionaries(
            {"kind": st.sampled_from(["oscillator", "superposition", "mixture"])},
            optional={"n": st.integers(0, 3), "center": st.floats(0.5, 3.0), "width": st.floats(0.7, 1.3)},
        ),
        "n_points": st.sampled_from([16, 32, 64]),
        "q_min": st.sampled_from([-8.0, -12.0]),
        "q_max": st.sampled_from([8.0, 12.0]),
    },
    "schmidt": {
        "dims": st.sampled_from([[["a", 2], ["b", 2]], [["a", 2], ["b", 3], ["c", 1]]]),
        "system": st.sampled_from([["a"], ["b", "c"], ["a", "b"]]),
        "state": st.one_of(st.just({"kind": "random"}), st.fixed_dictionaries({"amplitudes": _AMPS})),
    },
    "master": {
        "p0": _PROBS,
        "rates": st.floats(0.0, 2.0).map(lambda r: [[0.0, r], [r, 0.0]]),
        "times": _TIMES,
    },
    "histories": {
        "dim": st.just(2),
        "hamiltonian": st.sampled_from(
            [
                {"name": "sigma_x", "scale": 0.7},
                {"name": "zero"},
                {"name": "diagonal", "entries": [0.0, 1.0]},
                {"name": "matrix", "entries": [[[1, 0], [0, 1]], [[0, -1], [0, 0]]]},
            ]
        ),
        "times": _TIMES,
        "projectors": st.sampled_from([{"type": "computational"}, {"type": "blocks", "blocks": [[0], [1]]}]),
        "initial": st.one_of(st.fixed_dictionaries({"amplitudes": _AMPS}), st.fixed_dictionaries({"diagonal": _PROBS})),
    },
    "graham": {
        "p": st.one_of(st.floats(0.05, 0.95), _PROBS),
        "epsilon": st.floats(0.05, 0.5),
        "n_values": st.lists(st.integers(1, 30), max_size=3),
    },
    "ledger_classical": {"p": _PROBS},
    "ledger_quantum": {"amplitudes": _AMPS},
    "ledger_branching": {"amplitudes": _AMPS, "env_dim": st.integers(3, 5)},
}

_NESTED_KEYS = ["kind", "n", "center", "width", "name", "scale", "entries", "type", "blocks", "amplitudes", "diagonal"]


@st.composite
def _documents(draw):
    kind = draw(st.sampled_from(sorted(_FIELDS)))
    fields = _FIELDS[kind]
    params = {key: draw(good) for key, good in fields.items()}
    for key in draw(st.sets(st.sampled_from(sorted(fields)), max_size=2)):
        if draw(st.booleans()):
            del params[key]
        else:
            params[key] = draw(_JUNK)
    nested = sorted(key for key, val in params.items() if isinstance(val, dict))
    if nested and draw(st.booleans()):
        key = draw(st.sampled_from(nested))
        params[key] = {**params[key], draw(st.sampled_from(_NESTED_KEYS)): draw(_JUNK)}
    doc = _scenario(kind, params, seed=draw(st.integers(0, 3)))
    for key in draw(st.sets(st.sampled_from(["schema", "kind", "seed", "params"]), max_size=1)):
        doc[key] = draw(_JUNK)
    return doc


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(doc=_documents())
def test_fuzzed_documents_never_escape_and_validate_agrees_with_run(doc):
    sink = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(sink), redirect_stderr(sink):
        path = os.path.join(tmp, "s.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        code = cli.run(path, out_dir=os.path.join(tmp, "out"))
        assert code in (0, 2, 3, 4)
        # exit 3 here is a checked invariant, never the catch-all handler
        assert code != 3 or "invariant violation" in sink.getvalue()
        assert (cli.validate(path) == 2) == (code == 2)
