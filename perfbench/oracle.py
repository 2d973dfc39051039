"""Independent correctness checks on decolab artifacts.

Nothing here imports decolab.  Each check recomputes an expected value
from the scenario document the benchmark generated, with numpy or math,
and compares it with what the program wrote.  ``check`` returns a list of
problems; an empty list means the artifacts passed.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os

import numpy as np

TOL = 1e-10
# CSV columns that hold integers or labels rather than formatted floats.
_NON_FLOAT_COLUMNS = {"step", "outcome", "count", "k", "n", "history"}


def _amps(pairs) -> np.ndarray:
    v = np.array([complex(re, im) for re, im in pairs])
    return v / np.linalg.norm(v)


def _csv(out_dir: str, name: str) -> list[dict]:
    with open(os.path.join(out_dir, name), newline="") as fh:
        return list(csv.DictReader(fh))


def _column(rows: list[dict], key: str) -> np.ndarray:
    return np.array([float(r[key]) for r in rows])


def _shannon(p) -> float:
    p = np.asarray(p, dtype=np.float64)
    p = p[p > 0.0]
    return float(-(p * np.log(p)).sum())


def _close(problems: list, what: str, got, want, atol: float = TOL, rtol: float = 0.0) -> None:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        problems.append(f"{what}: shape {got.shape}, expected {want.shape}")
        return
    err = np.abs(got - want)
    if not np.all(err <= atol + rtol * np.abs(want)):
        problems.append(f"{what}: off by {float(err.max()):.3e}")


def hash_artifacts(out_dir: str) -> tuple[bytes, dict, list]:
    """Manifest bytes, independent sha256 per listed file, and problems."""
    problems: list[str] = []
    with open(os.path.join(out_dir, "manifest.json"), "rb") as fh:
        manifest_bytes = fh.read()
    digests = {}
    for entry in json.loads(manifest_bytes)["files"]:
        with open(os.path.join(out_dir, entry["name"]), "rb") as fh:
            data = fh.read()
        digest = hashlib.sha256(data).hexdigest()
        digests[entry["name"]] = digest
        if digest != entry["sha256"] or len(data) != entry["bytes"]:
            problems.append(f"{entry['name']}: content does not match its manifest entry")
    return manifest_bytes, digests, problems


def _premeasurement(params, out_dir, problems):
    c = _amps(params["amplitudes"])
    g = float(params.get("pointer_overlap", 0.0))
    row = _csv(out_dir, "summary.csv")[0]
    _close(problems, "global_purity", float(row["global_purity"]), 1.0)
    mags = np.abs(c)
    outer = np.outer(mags, mags)
    np.fill_diagonal(outer, 0.0)
    _close(problems, "off_diagonal_max", float(row["off_diagonal_max"]), abs(g) * outer.max())


def _chain(params, out_dir, problems):
    c = _amps(params["amplitudes"])
    rows = _csv(out_dir, "chain.csv")
    if len(rows) != int(params["links"]):
        problems.append(f"chain.csv: {len(rows)} rows for {params['links']} links")
    _close(problems, "global_purity", _column(rows, "global_purity"), np.ones(len(rows)))
    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    _close(problems, "final_populations", summary["final_populations"], np.abs(c) ** 2)


def _branch_recohere(params, out_dir, problems):
    p = np.abs(_amps(params["amplitudes"])) ** 2
    rows = _csv(out_dir, "branch.csv")
    _close(problems, "global_purity", _column(rows, "global_purity"), np.ones(len(rows)))
    _close(problems, "final apparatus_fidelity", float(rows[-1]["apparatus_fidelity"]), 1.0)
    _close(
        problems,
        "final system_linear_entropy",
        float(rows[-1]["system_linear_entropy"]),
        1.0 - float((p * p).sum()),
    )


def _collapse_mc(params, out_dir, problems):
    born = np.abs(_amps(params["amplitudes"])) ** 2
    trials = int(params["trials"])
    rows = _csv(out_dir, "collapse.csv")
    counts = np.array([int(r["count"]) for r in rows])
    if counts.sum() != trials:
        problems.append(f"collapse.csv: counts sum to {counts.sum()}, expected {trials}")
    _close(problems, "born_probability", _column(rows, "born_probability"), born, atol=1e-12)
    sigma = np.sqrt(born * (1.0 - born) / trials)
    freq = counts / trials
    if np.any(np.abs(freq - born) > 5.0 * sigma + 1e-12):
        problems.append("collapse.csv: a frequency lies more than 5 sigma from its Born weight")
    with open(os.path.join(out_dir, "records.json")) as fh:
        records = json.load(fh)
    if len(records) != min(int(params.get("record_limit", 5)), trials):
        problems.append(f"records.json: {len(records)} records")


def _line_count(path: str) -> int:
    with open(path, "rb") as fh:
        return fh.read().count(b"\n")


def _wigner(params, out_dir, problems):
    n = int(params.get("n_points", 256))
    q_min = float(params.get("q_min", -8.0))
    q_max = float(params.get("q_max", 8.0))
    dq = (q_max - q_min) / n
    dp = math.pi / (n * dq)
    w = np.fromfile(os.path.join(out_dir, "wigner.bin"), dtype="<f8")
    if w.size != n * n or not np.all(np.isfinite(w)):
        problems.append(f"wigner.bin: {w.size} values, expected {n * n} finite ones")
        return
    _close(problems, "wigner.bin integral", float(w.sum() * dq * dp), 1.0, atol=1e-6)
    if _line_count(os.path.join(out_dir, "wigner.csv")) != n * n + 1:
        problems.append("wigner.csv: wrong number of lines")
    if _line_count(os.path.join(out_dir, "marginals.csv")) != n + 1:
        problems.append("marginals.csv: wrong number of lines")


def _schmidt(params, out_dir, problems):
    labels = [d[0] for d in params["dims"]]
    dims = [int(d[1]) for d in params["dims"]]
    sys_axes = [i for i, label in enumerate(labels) if label in params["system"]]
    env_axes = [i for i, label in enumerate(labels) if label not in params["system"]]
    amps = _amps(params["state"]["amplitudes"])
    mat = amps.reshape(dims).transpose(sys_axes + env_axes)
    mat = mat.reshape(int(np.prod([dims[i] for i in sys_axes])), -1)
    s = np.linalg.svd(mat, compute_uv=False)
    s = s[s > 1e-12]
    rows = _csv(out_dir, "coefficients.csv")
    _close(problems, "schmidt coefficients", _column(rows, "coefficient"), s)


def _master(params, out_dir, problems):
    rates = np.array(params["rates"], dtype=np.float64)
    p0 = np.array(params["p0"], dtype=np.float64)
    gen = rates - np.diag(rates.sum(axis=1))
    w, v = np.linalg.eigh(gen)  # symmetric rates give a symmetric generator
    rows = _csv(out_dir, "master.csv")
    cols = [f"p{i}" for i in range(p0.size)]
    got = np.array([[float(r[c]) for c in cols] for r in rows])
    _close(problems, "master row sums", got.sum(axis=1), np.ones(len(rows)))
    want = np.array([v @ (np.exp(w * float(t)) * (v.T @ p0)) for t in params["times"]])
    _close(problems, "master occupations", got, want, atol=1e-9)


def _hamiltonian(doc) -> np.ndarray:
    """The two Hamiltonian forms the workloads generate."""
    if doc["name"] == "sigma_x":
        return float(doc["scale"]) * np.array([[0, 1], [1, 0]], dtype=complex)
    return np.array([[complex(re, im) for re, im in row] for row in doc["entries"]])


def _projectors(params, dim: int) -> list:
    """One projector family, used at every slice, as the workloads generate."""
    doc = params.get("projectors", {"type": "computational"})
    blocks = doc["blocks"] if doc["type"] == "blocks" else [[i] for i in range(dim)]
    family = []
    for block in blocks:
        p = np.zeros((dim, dim))
        p[block, block] = 1.0
        family.append(p)
    return family


def _histories(params, out_dir, problems):
    dim = int(params["dim"])
    times = [float(t) for t in params["times"]]
    w, v = np.linalg.eigh(_hamiltonian(params["hamiltonian"]))
    initial = params["initial"]
    if "amplitudes" in initial:
        psi = _amps(initial["amplitudes"])
        rho0 = np.outer(psi, psi.conj())
    else:
        rho0 = np.diag(np.array(initial["diagonal"], dtype=complex))
    steps = []
    prev = 0.0
    for t in times:
        steps.append((v * np.exp(-1j * w * (t - prev))) @ v.conj().T)
        prev = t
    family = _projectors(params, dim)
    rows = _csv(out_dir, "histories.csv")
    expected_rows = len(family) ** len(times)
    if len(rows) != expected_rows:
        problems.append(f"histories.csv: {len(rows)} rows, expected {expected_rows}")
    got = _column(rows, "probability")
    _close(problems, "history probability sum", float(got.sum()), 1.0)
    want = []
    for row in rows:
        rho = rho0
        for step, idx in zip(steps, row["history"].split("|")):
            proj = family[int(idx)]
            rho = proj @ step @ rho @ step.conj().T @ proj
        want.append(float(np.trace(rho).real))
    _close(problems, "history probabilities", got, want, atol=1e-9)


def _binomial_tail(p1: float, n: int, eps: float) -> float:
    total = 0.0
    for k in range(n + 1):
        if abs(k / n - p1) >= eps:
            total += math.comb(n, k) * p1**k * (1.0 - p1) ** (n - k)
    return total


def _trinomial_tail(p, n: int, eps: float) -> float:
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, n + 1)))])
    k1, k2 = np.meshgrid(np.arange(n + 1), np.arange(n + 1), indexing="ij")
    k3 = n - k1 - k2
    ok = k3 >= 0
    k1, k2, k3 = k1[ok], k2[ok], k3[ok]
    dev = np.maximum.reduce(
        [np.abs(k1 / n - p[0]), np.abs(k2 / n - p[1]), np.abs(k3 / n - p[2])]
    )
    keep = dev >= eps
    k1, k2, k3 = k1[keep], k2[keep], k3[keep]
    log_w = (
        log_fact[n] - log_fact[k1] - log_fact[k2] - log_fact[k3]
        + k1 * math.log(p[0]) + k2 * math.log(p[1]) + k3 * math.log(p[2])
    )
    return float(np.exp(log_w).sum())


def _graham(params, out_dir, problems):
    p = params["p"]
    eps = float(params["epsilon"])
    rows = _csv(out_dir, "graham.csv")
    for row in rows:
        n = int(row["n"])
        if isinstance(p, list):
            want = _trinomial_tail([float(x) for x in p], n, eps)
            _close(problems, f"graham n={n}", float(row["deviant_norm"]), want, atol=1e-14, rtol=1e-8)
        else:
            want = _binomial_tail(float(p), n, eps)
            _close(problems, f"graham n={n}", float(row["deviant_norm"]), want, atol=1e-15, rtol=1e-12)
    n_values = params.get("n_values", [params.get("n")])
    if [int(r["n"]) for r in rows] != [int(n) for n in n_values]:
        problems.append("graham.csv: rows do not match the requested n values")


def _ledger(out_dir) -> dict:
    return {r["step"]: r for r in _csv(out_dir, "ledger.csv")}


def _ledger_classical(params, out_dir, problems):
    h = _shannon(params["p"])
    rows = _ledger(out_dir)
    _close(problems, "initial s_ensemble", float(rows["initial"]["s_ensemble_nats"]), h)
    _close(problems, "read information", float(rows["read"]["information_nats"]), h)


def _ledger_quantum(params, out_dir, problems):
    p = np.abs(_amps(params["amplitudes"])) ** 2
    rows = _ledger(out_dir)
    _close(problems, "initial s_ensemble", float(rows["initial"]["s_ensemble_nats"]), 0.0, atol=1e-9)
    _close(problems, "mixture s_ensemble", float(rows["mixture"]["s_ensemble_nats"]), _shannon(p), atol=1e-9)


def _ledger_branching(params, out_dir, problems):
    rows = _csv(out_dir, "ledger.csv")
    if len(rows) != 4:
        problems.append(f"ledger.csv: {len(rows)} rows, expected 4")
    s = _column(rows, "s_ensemble_nats")
    _close(problems, "s_ensemble of a pure global state", s, np.zeros(s.size), atol=1e-9)


_CHECKS = {
    "premeasurement": _premeasurement,
    "chain": _chain,
    "branch_recohere": _branch_recohere,
    "collapse_mc": _collapse_mc,
    "wigner": _wigner,
    "schmidt": _schmidt,
    "master": _master,
    "histories": _histories,
    "graham": _graham,
    "ledger_classical": _ledger_classical,
    "ledger_quantum": _ledger_quantum,
    "ledger_branching": _ledger_branching,
}


def check(doc: dict, out_dir: str) -> list[str]:
    """Problems found in one scenario's artifacts; empty when they are right."""
    problems: list[str] = []
    try:
        _CHECKS[doc["kind"]](doc["params"], out_dir, problems)
    except (OSError, KeyError, ValueError, IndexError, json.JSONDecodeError) as exc:
        problems.append(f"unreadable artifact: {type(exc).__name__}: {exc}")
    return problems


def count_emitted(out_dir: str) -> tuple[int, int, int]:
    """(files, bytes, floats formatted) written into one output directory.

    Floats are counted from the CSV artifacts: every data cell except those
    in the integer or label columns below.  Each such cell came from one
    call of the program's float formatter.
    """
    files = bytes_ = floats = 0
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        files += 1
        bytes_ += os.path.getsize(path)
        if name.endswith(".csv"):
            with open(path, "rb") as fh:
                data = fh.read()
            header = next(csv.reader(io.StringIO(data[: data.index(b"\n")].decode())))
            float_cols = sum(1 for h in header if h not in _NON_FLOAT_COLUMNS)
            floats += (data.count(b"\n") - 1) * float_cols
    return files, bytes_, floats

