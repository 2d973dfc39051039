"""Seeded scenario generators, one per benchmark workload.

Each generator turns a workload seed into an ordered list of
``(name, scenario document)`` pairs.  The same seed always yields the same
documents, byte for byte once serialized.  Random draws only choose
amplitudes, Hamiltonians, overlaps and similar values; the sizes of every
rung are fixed, so the work per pass does not depend on the seed.  Why
each workload exists is recorded in ``BENCHMARK.json`` and the README.
"""

from __future__ import annotations

import numpy as np

SCHEMA = "decolab/scenario/v1"

def _doc(kind: str, params: dict, seed: int = 0) -> dict:
    return {"schema": SCHEMA, "kind": kind, "seed": int(seed), "params": params}


def _pairs(vec: np.ndarray) -> list:
    return [[float(z.real), float(z.imag)] for z in vec]


def _amplitudes(rng: np.random.Generator, n: int) -> list:
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return _pairs(v / np.linalg.norm(v))


def _probabilities(rng: np.random.Generator, n: int, floor: float = 0.05) -> list:
    """A distribution whose entries all exceed ``floor``."""
    while True:
        p = rng.dirichlet(np.ones(n))
        if p.min() > floor:
            return [float(x) for x in p]


def _hermitian(rng: np.random.Generator, d: int) -> list:
    a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    h = (a + a.conj().T) / 2.0
    return [_pairs(row) for row in h]


def _times(rng: np.random.Generator, slices: int) -> list:
    return [float(t) for t in np.cumsum(rng.uniform(0.2, 1.0, size=slices))]


def _rates(rng: np.random.Generator, n: int) -> list:
    """Symmetric rates, so row and column sums agree as the master kind needs."""
    r = rng.uniform(0.1, 1.0, size=(n, n))
    r = (r + r.T) / 2.0
    np.fill_diagonal(r, 0.0)
    return r.tolist()


def _seed(rng: np.random.Generator) -> int:
    return int(rng.integers(0, 2**31 - 1))


def registers(rng: np.random.Generator) -> list:
    out = []
    for n, max_links in ((2, 5), (3, 4)):
        for links in range(1, max_links + 1):
            out.append((f"chain_n{n}_l{links}", _doc("chain", {
                "amplitudes": _amplitudes(rng, n),
                "links": links,
                "overlaps": [float(g) for g in rng.uniform(0.0, 0.6, size=links)],
            })))
    for n in range(2, 6):
        out.append((f"branch_n{n}", _doc("branch_recohere", {"amplitudes": _amplitudes(rng, n)})))
    # ledger_branching n=5 (about 2 s) and n=6 (about 18 s) would leave too
    # few passes in a run; they wait for a longer ladder.
    for n in range(2, 5):
        out.append((f"ledger_branching_n{n}", _doc("ledger_branching", {"amplitudes": _amplitudes(rng, n)})))
    for n in range(2, 5):
        out.append((f"ledger_quantum_n{n}", _doc("ledger_quantum", {"amplitudes": _amplitudes(rng, n)})))
    for n in range(2, 5):
        out.append((f"premeasurement_n{n}", _doc("premeasurement", {
            "amplitudes": _amplitudes(rng, n),
            "pointer_overlap": float(rng.uniform(0.0, 0.8)),
        })))
    return out


def histories(rng: np.random.Generator) -> list:
    out = []
    # consistency_defect costs about slices^2 * dim^(slices-1) * (dim/2+1) * 2^dim
    # propagator calls; these rungs make about 38k per pass.
    for dim, slices in ((2, 6), (3, 4), (5, 3), (6, 2)):
        out.append((f"histories_d{dim}_s{slices}", _doc("histories", {
            "dim": dim,
            "hamiltonian": {"name": "matrix", "entries": _hermitian(rng, dim)},
            "times": _times(rng, slices),
            "initial": {"amplitudes": _amplitudes(rng, dim)},
        })))
    out.append(("graham_m3", _doc("graham", {
        "p": _probabilities(rng, 3, floor=0.1),
        "epsilon": float(rng.uniform(0.05, 0.15)),
        "n_values": [100, 300],
    })))
    out.append(("graham_m2", _doc("graham", {
        "p": float(rng.uniform(0.2, 0.8)),
        "epsilon": float(rng.uniform(0.02, 0.1)),
        "n_values": [100, 300, 1000],
    })))
    out.append(("master_s4_t50", _doc("master", {
        "p0": _probabilities(rng, 4),
        "rates": _rates(rng, 4),
        "times": [0.1 * i for i in range(50)],
    })))
    return out


def _wigner_state(rng: np.random.Generator, kind: str) -> tuple[dict, dict]:
    """State document and grid range for one Wigner scenario."""
    if kind == "oscillator":
        return {"kind": "oscillator", "n": int(rng.integers(0, 5))}, {"q_min": -8.0, "q_max": 8.0}
    return {
        "kind": kind,
        "center": float(rng.uniform(2.5, 4.0)),
        "momentum": float(rng.uniform(-1.0, 1.0)),
        "width": float(rng.uniform(0.8, 1.2)),
    }, {"q_min": -12.0, "q_max": 12.0}


def phase_space(rng: np.random.Generator) -> list:
    out = []
    # One 512 grid: its density samples and sheared copy (4 MB each) exceed
    # the L2 cache.  More 512 grids, or a 1024 grid (about 5 s), would leave
    # too few passes in a run.
    for kind, n_points in (("oscillator", 256), ("superposition", 256), ("mixture", 256),
                           ("mixture", 512)):
        state, grid = _wigner_state(rng, kind)
        out.append((f"wigner_{kind}_{n_points}", _doc("wigner", {
            "state": state, "n_points": n_points, **grid,
        })))
    return out


def _small_histories(rng: np.random.Generator, i: int) -> dict:
    if i % 3 == 0:
        return {
            "dim": 2,
            "hamiltonian": {"name": "sigma_x", "scale": float(rng.uniform(0.5, 2.0))},
            "times": _times(rng, 3),
            "initial": {"amplitudes": _amplitudes(rng, 2)},
        }
    if i % 3 == 1:
        return {
            "dim": 2,
            "hamiltonian": {"name": "matrix", "entries": _hermitian(rng, 2)},
            "times": _times(rng, 2),
            "initial": {"diagonal": _probabilities(rng, 2)},
        }
    return {
        "dim": 3,
        "hamiltonian": {"name": "matrix", "entries": _hermitian(rng, 3)},
        "times": _times(rng, 2),
        "projectors": {"type": "blocks", "blocks": [[0], [1, 2]]},
        "initial": {"amplitudes": _amplitudes(rng, 3)},
    }


_SCHMIDT_DIMS = (
    ([["A", 2], ["B", 2]], ["A"]),
    ([["A", 2], ["B", 3]], ["B"]),
    ([["A", 2], ["B", 2], ["C", 2]], ["A", "C"]),
)


def small_scenarios(rng: np.random.Generator) -> list:
    out = []
    for i in range(12):
        n = 2 + i % 2
        out.append((f"premeasurement_{i}", _doc("premeasurement", {
            "amplitudes": _amplitudes(rng, n),
            "pointer_overlap": float(rng.uniform(0.0, 0.8)),
        })))
        out.append((f"chain_{i}", _doc("chain", {
            "amplitudes": _amplitudes(rng, 2),
            "links": 1 + i % 3,
            "overlap": float(rng.uniform(0.0, 0.6)),
        })))
        out.append((f"branch_{i}", _doc("branch_recohere", {"amplitudes": _amplitudes(rng, 2)})))
        out.append((f"collapse_{i}", _doc("collapse_mc", {
            "amplitudes": _amplitudes(rng, 2 + i % 3),
            "trials": 100,
            "record_limit": 3,
        }, seed=_seed(rng))))
        state, grid = _wigner_state(rng, ("oscillator", "superposition", "mixture")[i % 3])
        out.append((f"wigner_{i}", _doc("wigner", {
            "state": state, "n_points": 32 if i % 2 else 64, **grid,
        })))
        dims, system = _SCHMIDT_DIMS[i % 3]
        total = int(np.prod([d for _, d in dims]))
        out.append((f"schmidt_{i}", _doc("schmidt", {
            "dims": dims,
            "system": system,
            "state": {"amplitudes": _amplitudes(rng, total)},
        })))
        out.append((f"master_{i}", _doc("master", {
            "p0": _probabilities(rng, 3),
            "rates": _rates(rng, 3),
            "times": [0.0, 0.5, 1.0, 2.0, 4.0],
        })))
        out.append((f"histories_{i}", _doc("histories", _small_histories(rng, i))))
        if i % 3:
            graham = {"p": float(rng.uniform(0.2, 0.8)), "n": 40}
        else:
            graham = {"p": _probabilities(rng, 3, floor=0.1), "n": 10}
        graham["epsilon"] = float(rng.uniform(0.05, 0.2))
        out.append((f"graham_{i}", _doc("graham", graham)))
        out.append((f"ledger_classical_{i}", _doc("ledger_classical", {
            "p": _probabilities(rng, 2 + i % 3),
        })))
        out.append((f"ledger_quantum_{i}", _doc("ledger_quantum", {"amplitudes": _amplitudes(rng, n)})))
        out.append((f"ledger_branching_{i}", _doc("ledger_branching", {"amplitudes": _amplitudes(rng, 2)})))
    # Trial counts at or above 256 take the collapse_mc thread-pool path.
    for i in range(2):
        out.append((f"collapse_large_{i}", _doc("collapse_mc", {
            "amplitudes": _amplitudes(rng, 3),
            "trials": 4000,
            "record_limit": 5,
        }, seed=_seed(rng))))
    return out


GENERATORS = {
    "registers": registers,
    "histories": histories,
    "phase_space": phase_space,
    "small_scenarios": small_scenarios,
}


def generate(workload: str, seed: int) -> list:
    """Ordered ``(name, document)`` pairs for one workload and seed."""
    rng = np.random.default_rng([int(seed), sorted(GENERATORS).index(workload)])
    return GENERATORS[workload](rng)
