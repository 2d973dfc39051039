"""Scenario runner: validate and execute JSON scenario files.

Commands:

    decolab run <scenario.json> [--out DIR] [--seed N]
    decolab validate <scenario.json>
    decolab --version

Every artifact is a pure function of (scenario, seed): reruns are
byte-identical.  Every artifact and manifest.json take one write path
(_Emitter._write): the file is opened with os.open, its chunks are gathered
into blocks of WRITE_BLOCK_BYTES, each written with os.write (again on a
short write) and hashed on the way, and the file is closed whatever fails.
Each artifact is written as it is produced: wigner.csv one q column at a
time, and every JSON artifact (joint_state.json, system_density.json,
records.json, schmidt.json, both summary.json files, wigner.meta.json and
the manifest) by the one JSON writer, serialize.json_chunks, a block of
floats at a time, from the arrays the objects hand it.  manifest.json
records each artifact's sha256 and size.  Exit codes: 0 success, 2 schema
violation, 3 numerical invariant violation during the run (or any other
failure, reported in one line), 4 I/O failure.

``validate`` and ``run`` apply the same parse: one function per kind reads
the parameters, fills in defaults and builds the library objects the run
needs, so a scenario that validates never fails the run on a schema
problem.  Every schema problem exits 2 with a diagnostic that names the
field.  Rejected are: files over MAX_SCENARIO_BYTES, whose decoding could
take DECODE_BYTES_PER_BYTE bytes of memory per byte, over MAX_DENSE_BYTES
(checked before the file is decoded, under "scenario"), files that are not
UTF-8 JSON or are nested too deeply for the JSON decoder, non-finite
numbers (NaN, Infinity), booleans given as numbers or integers, values the
library constructors refuse (such as a pointer overlap outside
(-1/(n-1), 1) for n outcomes, duplicate subsystem labels or a Hamiltonian
that is not Hermitian), and any scenario whose memory would exceed
MAX_DENSE_BYTES (1 GiB of complex128 values), estimated from the parsed
sizes before anything is allocated.

The register kinds (premeasurement, chain, branch_recohere, ledger_quantum,
ledger_branching) run on one decoherence factor per register
(measurement.Decoherence): every register they model has pointer states of
one constant overlap c_j, 1 while it is ready, so the system density is
(1 - gamma) diag(p) + gamma a a^dagger with gamma = prod_j c_j and p = |a|^2,
and every value they write follows from the n amplitudes in O(n).  No run
builds a register model, and only premeasurement forms its pointer rows and
n x n density, for joint_state.json and system_density.json.  Charged are:

* every register kind, from its n amplitudes (_fits_registers, filed under
  params.amplitudes and checked before they are parsed by one type scan and
  one numpy conversion): REGISTER_AMPLITUDE_BYTES each,
  REGISTER_RUN_BYTES, REGISTER_BYTES per chain link, for premeasurement
  PREMEASURE_SQUARES n x n arrays, and for chain and premeasurement
  JSON_TEXT_BYTES for the JSON writer, which holds one block of floats and
  its text whatever the artifact's size.  Accepted are ledger_quantum,
  branch_recohere and ledger_branching up to n = 3355340 at any env_dim,
  chain at MAX_LINKS links up to n = 3344064, and premeasurement up to
  n = 2270; more links are refused under params.links;
* histories: the Heisenberg projector families, the H class operators,
  their products with rho and a conjugate copy (3 H dim^2 values, H the
  product of the outcome counts) plus the H x H decoherence functional,
  filed under params.times, and the 2^n x n subset masks of the largest
  outcome count n with their product over a batch of contexts, filed under
  params.projectors;
* graham with m >= 3 outcomes: the C(n + m - 1, m - 1) compositions of
  the largest n, refused above 2 000 000 terms, and the integer and float
  arrays over them (2 x terms x m values), both filed under params.n_values
  or params.n;
* wigner: GRID_TEMPORARIES grid-sized arrays of n_points^2 values plus
  the CSV_BLOCK_BYTES that printing a block of wigner.csv takes, and the
  text of wigner.csv, n_points^2 lines of at most 75 bytes, against
  MAX_ARTIFACT_BYTES (1 GiB): 2048 points are accepted and 4096 refused,
  both filed under params.n_points;
* collapse_mc: one value per trial for its outcome, one block of the seed
  replay at REPLAY_SEED_BYTES per seed, COLLAPSE_OUTCOME_BYTES per outcome,
  one record's pre and post states at RECORD_AMPLITUDE_BYTES per amplitude
  (records.json is printed one record and one block of floats at a time)
  and JSON_TEXT_BYTES, filed under params.amplitudes (2095103 outcomes are
  accepted with a record, 2793471 without); more than MAX_TRIALS trials are
  refused under params.trials; and the text of records.json,
  min(record_limit, trials) records of 2 n amplitudes at
  RECORD_PAIR_TEXT_BYTES each plus RECORD_TEXT_BYTES and the seed's digits,
  against MAX_ARTIFACT_BYTES, filed under params.record_limit (at 2000
  amplitudes, 3190 records are accepted and 3191 refused);
* schmidt: the state's d_A d_B amplitudes at SCHMIDT_STATE_BYTES each, the
  min(d_A, d_B) (d_A + d_B) amplitudes of schmidt.json's vectors at
  SCHMIDT_AMPLITUDE_BYTES each and JSON_TEXT_BYTES, filed under
  params.dims: 2188 x 2188 is accepted and 2189 x 2189 refused;
* master: for n states and T times, the k = min(T, max(1, 2^16 / n^2)) times
  of a block at once, k + 1 n x n shares at MASTER_ENTRY_BYTES per entry,
  and the T (n + 1) values of master.csv at MASTER_VALUE_BYTES each, filed
  under params.rates: at one time the charge accepts n = 2590 and refuses
  2591, at 10^4 times n = 962 and 963.  Only short rate texts reach 2590:
  with 17-digit rates MAX_SCENARIO_BYTES refuses the file from about
  n = 1050;
* a histories dim above 406 (its projector family holds dim^3 values), or a
  graham n of 2^26 or more.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys

import numpy as np

from . import __version__, serialize
from .dynamics import _REPLAY_BLOCK, CollapseRecord, Hamiltonian, born_weights, sample_outcomes
from .entanglement import entropy_bits, schmidt_decompose
from .errors import DecolabError, SpaceMismatchError, ValidationError
from .hilbert import (
    DensityOperator,
    StateVector,
    TensorSpace,
    basis_state,
    computational_basis,
    partial_trace,  # no runner calls it; perfbench's tracer test reads cli.partial_trace
    random_state,
)
from .histories import (
    HistorySpec,
    ProjectorSet,
    RateMatrix,
    _MASTER_BLOCK,
    _SUBSET_BATCH,
    _multinomial_terms,
    consistency_defect,
    enumerate_histories,
    graham_deviant_norm,
    pauli_master_table,
)
from .ledger import branching_ledger, classical_ledger, quantum_collapse_ledger
from .measurement import BRANCH_CYCLE, Decoherence, check_register, record_states_with_overlap
from .wigner import (
    CSV_BLOCK_BYTES,
    _check_points,
    _check_range,
    marginals,
    oscillator_state,
    two_packet_mixture,
    two_packet_superposition,
    wigner_binary,
    wigner_csv_chunks,
    wigner_transform,
)

SCENARIO_SCHEMA = "decolab/scenario/v1"
MANIFEST_SCHEMA = "decolab/manifest/v1"

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_NUMERIC = 3
EXIT_IO = 4

KINDS = (
    "premeasurement",
    "chain",
    "branch_recohere",
    "collapse_mc",
    "wigner",
    "schmidt",
    "master",
    "histories",
    "graham",
    "ledger_classical",
    "ledger_quantum",
    "ledger_branching",
)

# Dense arrays a scenario may make the run hold at once, counted as
# complex128 values: as many as one 8192 x 8192 matrix.
MAX_DENSE_BYTES = 1 << 30

# Bytes one artifact may take, bounded from the parsed sizes before the run.
MAX_ARTIFACT_BYTES = 1 << 30

# Peak bytes the JSON decoder may take per byte of scenario file, rounded up
# from the worst shape measured (tracemalloc, Python 3.11): nested empty
# lists, 44.9; lists of empty lists 22.4, [re, im] pairs of short numbers
# 15.4 and of 17-digit ones 4.4, bare numbers 9.1.  Longer files are refused
# before they are decoded.
DECODE_BYTES_PER_BYTE = 48
MAX_SCENARIO_BYTES = MAX_DENSE_BYTES // DECODE_BYTES_PER_BYTE

# collapse_mc trials one scenario may ask for: their draws are replayed a
# block of seeds per array pass, and the cap runs in 0.5-0.7 s as one fresh
# `decolab run`, about 0.35 s of it start-up (2 CPUs, numpy 2.4.6).
MAX_TRIALS = 10**6

# Bytes the JSON writer and the write path hold while one artifact is
# printed, whatever its size: a block of serialize.JSON_BLOCK_VALUES floats
# and their texts, the text gathered into a chunk, and the chunks gathered
# for one write call.  370-550 kB measured under tracemalloc (Python 3.11)
# for arrays of 10^6 values of 24-byte floats, rounded up.
JSON_TEXT_BYTES = 1 << 20

# Bytes a collapse_mc run takes per outcome, and per amplitude of a record
# while records.json is printed, rounded up from tracemalloc peaks of whole
# runs (Python 3.11, numpy 2.4.6).  An outcome is its decoded [re, im] pair,
# the parsed amplitude, the Born table and its line of collapse.csv: 305 B
# at 200 000 outcomes of 17-digit pairs, whatever the record limit.  A
# record's amplitude is its post state's basis vector and StateVector copy,
# 32 B; its pre state is the system's.
COLLAPSE_OUTCOME_BYTES = 384
RECORD_AMPLITUDE_BYTES = 64

# Bytes of records.json text, at most, per amplitude and per record besides
# its amplitudes and seed.  An amplitude is an [re, im] pair of two floats of
# up to MAX_FMT_LEN bytes at eight spaces of indent, in brackets at six, with
# its commas and line feeds; the rest of a record, its keys, outcome,
# probability, space, indent and braces, measured 391 bytes at most (floats
# of 24 bytes, an n of eight digits), rounded up.
RECORD_PAIR_TEXT_BYTES = 2 * serialize.MAX_FMT_LEN + 36
RECORD_TEXT_BYTES = 512

# Bytes a schmidt run takes per amplitude of the vectors schmidt.json lists
# and per amplitude of the state, rounded up from the peak RSS of fresh runs
# (d_A x d_B = 700 x 700, 1000 x 1000, 1400 x 1400 and 16 x 60000; Python
# 3.11, numpy 2.4.6): 46 and 43, besides 44 MiB for the interpreter, so that
# a run at the limit stays under 1 GiB.  A vector amplitude is its SVD
# column and its StateVector copy; schmidt.json is printed a block at a
# time.  A state amplitude is the state, its reshaped copy and the SVD's
# work.
SCHMIDT_AMPLITUDE_BYTES = 64
SCHMIDT_STATE_BYTES = 96

# Bytes one seed of a replay block takes while sample_outcomes draws its
# outcome: 258 measured under tracemalloc (Python 3.11, numpy 2.4.6),
# rounded up.
REPLAY_SEED_BYTES = 320

# chain links one scenario may ask for: memory hardly binds them, since the
# run holds one overlap and one row of chain.csv per link, and the cap runs
# in 0.2-0.4 s as one fresh `decolab run` at n = 2, nearly all of it
# start-up (2 CPUs, numpy 2.4.6).
MAX_LINKS = 5000

# Bytes a register run takes whatever its size, per chain link, and per
# amplitude, rounded up from tracemalloc peaks of whole runs (Python 3.11,
# numpy 2.4.6).  A run with n = 2 and no link peaks at 12-17 kB, and each
# link adds about 300 B: its overlap and its row of chain.csv.  An amplitude
# takes up to 242 B when it is written as an [re, im] pair of 17-digit
# floats: the file's text, the decoded pair, and the parsed amplitudes and
# the closed form's arrays, which alone take 50-70 B.
REGISTER_RUN_BYTES = 32 * 1024
REGISTER_BYTES = 512
REGISTER_AMPLITUDE_BYTES = 320

# n x n complex arrays a premeasurement run is charged: the density and its
# DensityOperator copy, the Gram matrix, the pointer rows and joint
# amplitudes, and eigvalsh's workspace, with room for what tracemalloc does
# not see.  Fresh runs peak at about 44 MiB plus 83 B per n^2 (n = 1275,
# 1800 and 2600: 171, 298 and 578 MiB), and 68 B per n^2 under tracemalloc.
PREMEASURE_SQUARES = 13


# Bytes a master run takes per rate-matrix entry and time of a block, and
# per value of master.csv's T x (n + 1) table, rounded up from tracemalloc
# peaks (Python 3.11, numpy 2.4.6).  A block of k times holds 57-60 B per
# entry and time in histories._expm_stack (the scaled stack, its powers, the
# Padé terms and the solve), besides the solve's two LAPACK copies, 16 B that
# tracemalloc does not see.  One more share per entry covers the decoded
# rates (32 B as Python floats), the rate matrix and its generator (16 B).
# The table, its float texts and master.csv take 77-80 B per value from about
# 4000 values up.
MASTER_ENTRY_BYTES = 80
MASTER_VALUE_BYTES = 96

# Grid-sized complex arrays a Wigner run holds at once, with room to spare:
# the samples or a wavefunction's outer product, and two more in the
# transform, the sheared samples and their FFT output, which it signs and
# scales in place.  The CSV text takes no grid-sized array: it is printed
# one block of q columns at a time, charged as CSV_BLOCK_BYTES.
GRID_TEMPORARIES = 6


def thread_cap() -> int:
    """Worker threads a run uses: always 1, since collapse_mc dropped its
    thread pool.  Kept because the benchmark's environment record reads it."""
    return 1


# ---- parse: one function per kind, shared by validate and run ----
#
# Each _parse_<kind>(params, seed, diags) appends a diagnostic per schema
# problem and returns the arguments of _run_<kind>; the return value is
# discarded whenever a diagnostic was filed.


def _is_number(x) -> bool:
    """A finite JSON number; booleans are not numbers here."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    try:
        return math.isfinite(x)
    except OverflowError:  # an integer beyond the float range
        return False


def _is_int(x, minimum: int) -> bool:
    return isinstance(x, int) and not isinstance(x, bool) and x >= minimum


def _number(doc: dict, key: str, path: str, diags: list[str], default=None) -> float | None:
    val = doc.get(key, default)
    if not _is_number(val):
        diags.append(f"{path}.{key}: expected a finite number, got {val!r}")
        return None
    return float(val)


def _integer(doc: dict, key: str, path: str, diags: list[str], minimum: int, default=None):
    val = doc.get(key, default)
    if not _is_int(val, minimum):
        diags.append(f"{path}.{key}: expected an integer >= {minimum}, got {val!r}")
        return None
    return val


def _numbers(raw, field: str, diags: list[str], min_len: int = 0) -> list[float] | None:
    if not isinstance(raw, list) or not all(_is_number(x) for x in raw):
        diags.append(f"{field}: expected a list of finite numbers")
        return None
    if len(raw) < min_len:
        diags.append(f"{field}: expected at least {min_len} entries, got {len(raw)}")
        return None
    return [float(x) for x in raw]


def _complex(item) -> complex | None:
    """A number or an [re, im] pair of numbers."""
    if _is_number(item):
        return complex(item)
    if isinstance(item, list) and len(item) == 2 and all(_is_number(x) for x in item):
        return complex(item[0], item[1])
    return None


def _build(diags: list[str], field: str, factory, *args, **kwargs):
    """factory(*args, **kwargs), or None with its complaint filed under ``field``."""
    try:
        return factory(*args, **kwargs)
    except (ValidationError, SpaceMismatchError) as exc:
        diags.append(f"{field}: {exc}")
        return None


def _fits(entries: int, field: str, diags: list[str]) -> bool:
    """Whether dense arrays of ``entries`` complex128 values in all stay under the cap."""
    if 16 * entries <= MAX_DENSE_BYTES:
        return True
    diags.append(
        f"{field}: needs dense arrays of {entries} complex values, "
        f"over the {MAX_DENSE_BYTES >> 30} GiB cap"
    )
    return False


def _fits_registers(n: int, diags: list[str], links: int = 0, square: int = 0, json_bytes: int = 0) -> bool:
    """Whether a register run on n amplitudes fits, filed under
    params.amplitudes: REGISTER_RUN_BYTES, REGISTER_BYTES per chain link,
    REGISTER_AMPLITUDE_BYTES per amplitude, ``square`` n x n arrays, and
    ``json_bytes`` for the printing of a JSON artifact."""
    extra = REGISTER_RUN_BYTES + REGISTER_BYTES * links + REGISTER_AMPLITUDE_BYTES * n + json_bytes
    return _fits(square * n * n + extra // 16, "params.amplitudes", diags)


def _number_types(types) -> bool:
    """Whether values of these types are numbers, as _is_number takes them
    before their finiteness is checked."""
    return all(issubclass(t, (int, float)) and not issubclass(t, bool) for t in types)


def _amplitude_array(raw: list) -> np.ndarray | None:
    """The complex values of a list of numbers and [re, im] pairs, from one
    numpy conversion after a scan of the entries' types; None if any entry
    is not a finite number or a pair of them (a boolean is not a number)."""
    types = set(map(type, raw))
    pairs = not _number_types(types)
    if pairs:
        lists = {t for t in types if issubclass(t, list)}
        if not _number_types(types - lists):
            return None
        if types != lists:
            raw = [x if isinstance(x, list) else (x, 0) for x in raw]
        if set(map(len, raw)) != {2} or not _number_types(set(map(type, itertools.chain.from_iterable(raw)))):
            return None
    try:
        if pairs:
            values = np.fromiter(itertools.chain.from_iterable(raw), np.float64, 2 * len(raw))
        else:
            values = np.fromiter(raw, np.float64, len(raw))
    except OverflowError:  # an integer beyond the float range
        return None
    if not np.isfinite(values).all():
        return None
    return values.view(np.complex128) if pairs else values.astype(np.complex128)


def _parse_amplitudes(raw, diags: list[str], field: str) -> np.ndarray | None:
    if not isinstance(raw, list) or len(raw) < 2:
        diags.append(f"{field}: expected a list of two or more amplitudes")
        return None
    out = _amplitude_array(raw)
    if out is None:
        i = next(i for i, item in enumerate(raw) if _complex(item) is None)
        diags.append(f"{field}[{i}]: expected a number or an [re, im] pair")
        return None
    norm = float(np.linalg.norm(out))
    if abs(norm - 1.0) > 1e-6:
        diags.append(f"{field}: amplitudes are not normalized (norm {norm:.12g})")
        return None
    return out / norm


def _parse_probabilities(raw, diags: list[str], field: str) -> np.ndarray | None:
    p = _numbers(raw, field, diags, min_len=2)
    if p is None:
        return None
    p = np.asarray(p, dtype=np.float64)
    if p.min() < 0.0:
        diags.append(f"{field}: negative entry {p.min()}")
        return None
    if abs(p.sum() - 1.0) > 1e-8:
        diags.append(f"{field}: entries sum to {p.sum():.12g}, expected 1")
        return None
    return p


def _system_state(params: dict, diags: list[str]) -> StateVector | None:
    amps = _parse_amplitudes(params.get("amplitudes"), diags, "params.amplitudes")
    if amps is None:
        return None
    return StateVector(TensorSpace((("system", amps.size),)), amps)


def _amplitude_count(params: dict) -> int:
    """How many entries params.amplitudes lists, 0 for a value that is no
    list: read before they are parsed, so that the charge comes first."""
    raw = params.get("amplitudes")
    return len(raw) if isinstance(raw, list) else 0


def _parse_ledger_quantum(params, seed, diags):
    if not _fits_registers(_amplitude_count(params), diags):
        return None
    return (_parse_amplitudes(params.get("amplitudes"), diags, "params.amplitudes"),)


def _parse_premeasurement(params, seed, diags):
    # joint_state.json and system_density.json print the joint amplitudes
    # and the density, which are among the squares, a block at a time.
    n = _amplitude_count(params)
    if not _fits_registers(n, diags, square=PREMEASURE_SQUARES, json_bytes=JSON_TEXT_BYTES):
        return None
    system = _system_state(params, diags)
    g = _number(params, "pointer_overlap", "params", diags, default=0.0)
    if diags:
        return None
    pointers = _build(diags, "params.pointer_overlap", record_states_with_overlap, n, g, n + 1)
    return system, g, pointers


def _parse_chain(params, seed, diags):
    k = _integer(params, "links", "params", diags, minimum=0)
    if k is not None and k > MAX_LINKS:
        diags.append(f"params.links: {k} links, over the cap of {MAX_LINKS}")
    if diags:
        return None
    # summary.json prints two arrays of n floats, a block at a time
    n = _amplitude_count(params)
    if not _fits_registers(n, diags, links=k, json_bytes=JSON_TEXT_BYTES):
        return None
    amps = _parse_amplitudes(params.get("amplitudes"), diags, "params.amplitudes")
    if params.get("overlaps") is None:
        field = "params.overlap"
        overlaps = [_number(params, "overlap", "params", diags, default=0.0)] * k
    else:
        field = "params.overlaps"
        overlaps = _numbers(params["overlaps"], field, diags)
        if overlaps is not None and len(overlaps) != k:
            diags.append(f"{field}: expected one overlap per link, got {len(overlaps)} for {k}")
    if diags:
        return None
    for g in overlaps:  # every link has width n + 1, as the observer has
        _build(diags, field, check_register, n, g, n + 1)
        if diags:
            return None
    return amps, np.array(overlaps, dtype=np.float64)


def _parse_branch(params, seed, diags):
    if not _fits_registers(_amplitude_count(params), diags):
        return None
    amps = _parse_amplitudes(params.get("amplitudes"), diags, "params.amplitudes")
    if amps is None:
        return None
    # the env registers hold ideal records, so their width costs nothing
    env_dim = _integer(params, "env_dim", "params", diags, minimum=1, default=amps.size + 1)
    if env_dim is not None:
        _build(diags, "params.env_dim", check_register, amps.size, 0.0, env_dim)
    return (amps,)


def _parse_collapse_mc(params, seed, diags):
    system = _system_state(params, diags)
    trials = _integer(params, "trials", "params", diags, minimum=1)
    limit = _integer(params, "record_limit", "params", diags, minimum=0, default=5)
    if trials is not None and trials > MAX_TRIALS:
        diags.append(f"params.trials: {trials} trials, over the cap of {MAX_TRIALS}")
    if diags:
        return None
    # Each outcome's share, and one record's pre and post states of n
    # amplitudes while records.json is printed.
    n = system.space.total_dim
    outcomes = n * COLLAPSE_OUTCOME_BYTES + 2 * min(limit, 1) * n * RECORD_AMPLITUDE_BYTES + JSON_TEXT_BYTES
    replay = min(trials, _REPLAY_BLOCK) * REPLAY_SEED_BYTES
    _fits(trials + (replay + outcomes) // 16, "params.amplitudes", diags)
    # records.json: each record's pre and post states of n amplitudes.
    record_bytes = 2 * n * RECORD_PAIR_TEXT_BYTES + RECORD_TEXT_BYTES + len(str(seed + trials))
    text_bytes = min(limit, trials) * record_bytes
    if text_bytes > MAX_ARTIFACT_BYTES:
        diags.append(
            f"params.record_limit: records.json would take up to {text_bytes} bytes, "
            f"over the {MAX_ARTIFACT_BYTES >> 30} GiB artifact cap"
        )
    return system, trials, limit, seed


def _parse_wigner(params, seed, diags):
    state = params.get("state")
    if not isinstance(state, dict):
        diags.append("params.state: required object")
        return None
    n_points = _integer(params, "n_points", "params", diags, minimum=1, default=256)
    q_range = (
        _number(params, "q_min", "params", diags, default=-8.0),
        _number(params, "q_max", "params", diags, default=8.0),
    )
    kind = state.get("kind")
    if kind == "oscillator":
        factory = oscillator_state
        n = _integer(state, "n", "params.state", diags, minimum=0, default=0)
        if n is not None:  # one Hermite coefficient per level
            _fits(n + 1, "params.state.n", diags)
        args = (n,)
    elif kind in ("superposition", "mixture"):
        factory = two_packet_superposition if kind == "superposition" else two_packet_mixture
        center = _number(state, "center", "params.state", diags)
        if center is not None and center <= 0.0:
            diags.append(f"params.state.center: expected a positive number, got {center!r}")
        momentum = _number(state, "momentum", "params.state", diags, default=0.0)
        width = _number(state, "width", "params.state", diags, default=1.0)
        args = (center, momentum, width)
    else:
        diags.append(f"params.state.kind: unknown kind {kind!r}")
    if diags:
        return None
    _build(diags, "params.n_points", _check_points, n_points)
    _build(diags, "params.q_max", _check_range, *q_range)
    # wigner.csv: n^2 lines of three values, two commas and a line feed.
    csv_bytes = n_points * n_points * (3 * serialize.MAX_FMT_LEN + 3)
    if csv_bytes > MAX_ARTIFACT_BYTES:
        diags.append(
            f"params.n_points: wigner.csv would take up to {csv_bytes} bytes, "
            f"over the {MAX_ARTIFACT_BYTES >> 30} GiB artifact cap"
        )
    grid_values = GRID_TEMPORARIES * n_points * n_points + CSV_BLOCK_BYTES // 16
    if diags or not _fits(grid_values, "params.n_points", diags):
        return None
    return (_build(diags, "params.state", factory, *args, *q_range, n_points),)


def _parse_schmidt(params, seed, diags):
    dims = params.get("dims")
    if not isinstance(dims, list) or not all(
        isinstance(d, list) and len(d) == 2 and isinstance(d[0], str) and _is_int(d[1], 1)
        for d in dims
    ):
        diags.append('params.dims: expected [["label", dim], ...] with integer dims >= 1')
        return None
    space = _build(diags, "params.dims", TensorSpace, tuple((d[0], d[1]) for d in dims))
    if space is None:
        return None
    system = params.get("system")
    if (
        not isinstance(system, list)
        or not system
        or not all(isinstance(s, str) and s in space.labels for s in system)
        or len(set(system)) >= len(space.labels)
    ):
        diags.append("params.system: expected a proper nonempty subset of the labels")
        return None
    # schmidt.json lists r = min(d_A, d_B) vectors on each side: r (d_A + d_B)
    # amplitudes, besides the state's d_A d_B.  No state is built before this.
    d_a = math.prod(space.dim_of(label) for label in set(system))
    d_b = space.total_dim // d_a
    vectors = min(d_a, d_b) * (d_a + d_b) * SCHMIDT_AMPLITUDE_BYTES + JSON_TEXT_BYTES
    if not _fits((vectors + space.total_dim * SCHMIDT_STATE_BYTES) // 16, "params.dims", diags):
        return None
    state = params.get("state", {"kind": "random"})
    if isinstance(state, dict) and "amplitudes" in state:
        field = "params.state.amplitudes"
        amps = _parse_amplitudes(state["amplitudes"], diags, field)
        psi = None if amps is None else _build(diags, field, StateVector, space, amps)
    elif isinstance(state, dict) and state.get("kind") == "random":
        psi = random_state(space, np.random.default_rng(seed))
    else:
        diags.append('params.state: expected {"kind": "random"} or explicit amplitudes')
        psi = None
    return psi, system


def _parse_master(params, seed, diags):
    p0 = _parse_probabilities(params.get("p0"), diags, "params.p0")
    rates = params.get("rates")
    if not isinstance(rates, list) or not rates or not all(
        isinstance(row, list) and len(row) == len(rates) for row in rates
    ):
        diags.append("params.rates: expected a square matrix")
        return None
    for i, row in enumerate(rates):
        for j, val in enumerate(row):
            # Checked entry by entry so the diagnostic names the entry.
            if not _is_number(val) or val < 0:
                diags.append(f"params.rates[{i}][{j}]: expected a finite rate >= 0, got {val!r}")
    if p0 is not None and p0.size != len(rates):
        diags.append(f"params.p0: {p0.size} entries for a {len(rates)}-state rate matrix")
    times = _numbers(params.get("times"), "params.times", diags, min_len=1)
    if times is not None and min(times) < 0.0:
        diags.append("params.times: negative time rejected for the rate equation")
    if diags:
        return None
    # The run takes a block of k times at once, k n x n slices besides the
    # rates' own share, and master.csv holds the T x (n + 1) table; the rate
    # matrix is built after the charge.
    n = len(rates)
    k = min(len(times), max(1, _MASTER_BLOCK // (n * n)))
    charge = MASTER_ENTRY_BYTES * (k + 1) * n * n + MASTER_VALUE_BYTES * len(times) * (n + 1)
    if not _fits(charge // 16, "params.rates", diags):
        return None
    matrix = _build(diags, "params.rates", RateMatrix, np.asarray(rates, dtype=np.float64))
    return p0, matrix, times


_PAULI = {
    "sigma_x": np.array([[0, 1], [1, 0]], dtype=np.complex128),
    "sigma_y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "sigma_z": np.array([[1, 0], [0, -1]], dtype=np.complex128),
}


def _named_hamiltonian(dim: int, doc, diags) -> np.ndarray | None:
    """The Hamiltonian matrix a scenario names; Hamiltonian() checks it."""
    if not isinstance(doc, dict):
        diags.append("params.hamiltonian: required object")
        return None
    name = doc.get("name")
    scale = _number(doc, "scale", "params.hamiltonian", diags, default=1.0)
    if scale is None:
        return None
    if name == "zero":
        return np.zeros((dim, dim), dtype=np.complex128)
    if isinstance(name, str) and name in _PAULI:
        return scale * _PAULI[name]
    entries = doc.get("entries")
    if name == "diagonal":
        values = _numbers(entries, "params.hamiltonian.entries", diags)
        return None if values is None else np.diag(np.asarray(values, dtype=np.complex128))
    if name == "matrix":
        mat = None
        if isinstance(entries, list) and all(
            isinstance(row, list) and len(row) == len(entries) for row in entries
        ):
            mat = [[_complex(z) for z in row] for row in entries]
        if not mat or any(z is None for row in mat for z in row):
            diags.append("params.hamiltonian.entries: expected a square matrix of [re, im] pairs")
            return None
        return np.array(mat, dtype=np.complex128)
    diags.append(f"params.hamiltonian.name: unknown name {name!r}")
    return None


def _parse_projectors(space: TensorSpace, doc, field: str, diags) -> ProjectorSet | None:
    dim = space.total_dim
    if not isinstance(doc, dict):
        diags.append(f"{field}: expected an object")
    elif doc.get("type") == "computational":
        return ProjectorSet.from_basis(computational_basis(space))
    elif doc.get("type") == "blocks":
        blocks = doc.get("blocks")
        if isinstance(blocks, list) and all(
            isinstance(block, list) and all(_is_int(b, 0) and b < dim for b in block)
            for block in blocks
        ):
            return _build(diags, f"{field}.blocks", ProjectorSet.from_index_blocks, space, blocks)
        diags.append(f"{field}.blocks: expected lists of indices in [0, {dim})")
    else:
        diags.append(f"{field}.type: unknown type {doc.get('type')!r}")
    return None


def _parse_histories(params, seed, diags):
    dim = _integer(params, "dim", "params", diags, minimum=2)
    # A computational projector family holds dim matrices of dim x dim.
    if dim is None or not _fits(dim**3, "params.dim", diags):
        return None
    space = TensorSpace((("system", dim),))
    hmat = _named_hamiltonian(dim, params.get("hamiltonian"), diags)
    hamiltonian = None if hmat is None else _build(diags, "params.hamiltonian", Hamiltonian, space, hmat)
    t0 = _number(params, "t0", "params", diags, default=0.0)
    times = _numbers(params.get("times"), "params.times", diags)
    proj_doc = params.get("projectors", {"type": "computational"})
    if isinstance(proj_doc, list):
        psets = [
            _parse_projectors(space, pd, f"params.projectors[{i}]", diags)
            for i, pd in enumerate(proj_doc)
        ]
    else:
        psets = [_parse_projectors(space, proj_doc, "params.projectors", diags)] * len(times or ())
    initial = params.get("initial")
    rho = None
    if not isinstance(initial, dict):
        diags.append("params.initial: required object")
    elif "amplitudes" in initial:
        field = "params.initial.amplitudes"
        amps = _parse_amplitudes(initial["amplitudes"], diags, field)
        psi = None if amps is None else _build(diags, field, StateVector, space, amps)
        rho = None if psi is None else psi.density()
    elif "diagonal" in initial:
        field = "params.initial.diagonal"
        p = _parse_probabilities(initial["diagonal"], diags, field)
        if p is not None:
            rho = _build(diags, field, DensityOperator, space, np.diag(p.astype(np.complex128)))
    else:
        diags.append("params.initial: expected amplitudes or diagonal")
    if diags:
        return None
    # The run holds the Heisenberg projector families, the H class operators,
    # their products with rho and a conjugate copy, dim x dim each, and the
    # H x H decoherence functional; the count saturates, since any H past the
    # cap is refused alike.  The class operators grow from the previous
    # slice's stack (2 H dim^2 at most), and the history tables take a block
    # of histories at a time, three arrays of at most
    # max(histories._TABLE_BATCH, dim^2) values; neither outweighs this share
    # past a few MiB.
    histories = 1
    for pset in psets:
        histories = min(histories * len(pset), MAX_DENSE_BYTES)
    projectors = sum(map(len, psets))
    if not _fits((3 * histories + projectors) * dim * dim + histories**2, "params.times", diags):
        return None
    # The defect sums over all subsets of one slice's n outcomes: 2^n x n
    # masks, and their product with a batch of at most H / n contexts.
    n = max(map(len, psets), default=0)
    product = min(histories << n, max(_SUBSET_BATCH, n << n))
    if not _fits((n << n) + product, "params.projectors", diags):
        return None
    spec = _build(
        diags, "params.times", HistorySpec,
        hamiltonian=hamiltonian, initial_state=rho, times=tuple(times),
        projector_sets=tuple(psets), t0=t0,
    )
    return (spec,)


def _parse_graham(params, seed, diags):
    p = params.get("p")
    if _is_number(p):
        born = [float(p), 1.0 - float(p)]
        if not 0.0 <= p <= 1.0:
            diags.append(f"params.p: probability out of range: {p}")
    else:
        probs = _parse_probabilities(p, diags, "params.p")
        born = None if probs is None else [float(x) for x in probs]
    eps = _number(params, "epsilon", "params", diags)
    if eps is not None and eps <= 0.0:
        diags.append(f"params.epsilon: expected a positive number, got {eps!r}")
    n_values = params.get("n_values")
    field = "params.n_values"
    if n_values is None:
        field = "params.n"
        n = _integer(params, "n", "params", diags, minimum=1)
        n_values = [] if n is None else [n]
    elif not isinstance(n_values, list) or not all(_is_int(n, 1) for n in n_values):
        diags.append(f"{field}: expected a list of integers >= 1")
        n_values = []
    if not n_values:
        return born, eps, n_values
    # The binomial route holds one float per deviant count, n + 1 at most.
    n = max(n_values)
    if not _fits(n + 1, field, diags):
        return None
    # Three or more outcomes enumerate every composition of n into m parts,
    # unless epsilon > 1 leaves no deviant branch.  They are weighed in blocks
    # of bounded size, from per-outcome tables of about 3 m (n + 1) values,
    # fewer than the m C(n + m - 1, m - 1) entries of the enumeration.  The
    # charge stays at the integer and float arrays of the whole enumeration,
    # two complex values per entry, which bounds the tables and the work.
    m = len(born or ())
    if m >= 3 and (eps is None or eps <= 1.0):
        terms = _build(diags, field, _multinomial_terms, n, m)
        if terms is None or not _fits(2 * terms * m, field, diags):
            return None
    return born, eps, n_values


def _parse_ledger_classical(params, seed, diags):
    p = _parse_probabilities(params.get("p"), diags, "params.p")
    if p is not None and (p > 0).sum() < 2:
        diags.append("params.p: need at least two outcomes with positive probability")
    return (p,)


def _parse_document(doc, seed: int | None = None):
    """(diagnostics, (kind, seed, runner arguments) or None) for a scenario document."""
    if not isinstance(doc, dict):
        return ["scenario: expected a JSON object"], None
    diags: list[str] = []
    schema = doc.get("schema")
    if schema != SCENARIO_SCHEMA:
        diags.append(f"schema: expected {SCENARIO_SCHEMA!r}, got {schema!r}")
    kind = doc.get("kind")
    if kind not in KINDS:
        diags.append(f"kind: unknown kind {kind!r}; expected one of {', '.join(KINDS)}")
        return diags, None
    if seed is None:
        seed = doc.get("seed", 0)
    if not _is_int(seed, 0):
        diags.append(f"seed: expected a nonnegative integer, got {seed!r}")
        seed = 0
    params = doc.get("params")
    if not isinstance(params, dict):
        diags.append("params: required object")
        return diags, None
    args = _HANDLERS[kind][0](params, seed, diags)
    return diags, None if diags else (kind, seed, args)


def validate_document(doc) -> list[str]:
    """Schema-level diagnostics for a parsed scenario document."""
    return _parse_document(doc)[0]


# ---- run: one function per kind, taking only what its parse built ----


# Bytes of chunks an artifact gathers before it makes one write call.
WRITE_BLOCK_BYTES = 1 << 16


def _write_block(fd: int, digest, chunks: list) -> int:
    """Write the chunks as one block, repeating the call on a short write,
    hash them, and return their size."""
    block = memoryview(b"".join(chunks))
    digest.update(block)
    size = len(block)
    while block:
        block = block[os.write(fd, block) :]
    return size


class _Emitter:
    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.entries: list[dict] = []

    def _write(self, name: str, chunks) -> dict:
        """Write the byte chunks to ``name`` as they arrive, on the raw file
        descriptor, and hash them on the way: the one path every artifact
        and the manifest take.  Chunks are gathered until they hold
        WRITE_BLOCK_BYTES, then written with one call, repeated on a short
        write."""
        digest = serialize.sha256()
        size = 0
        fd = os.open(os.path.join(self.out_dir, name), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
        try:
            pending, held = [], 0
            for chunk in chunks:
                pending.append(chunk)
                held += len(chunk)
                if held >= WRITE_BLOCK_BYTES:
                    size += _write_block(fd, digest, pending)
                    pending, held = [], 0
            size += _write_block(fd, digest, pending)
        finally:
            os.close(fd)
        return {"name": name, "sha256": digest.hexdigest(), "bytes": size}

    def write_chunks(self, name: str, chunks) -> None:
        """Write an artifact from its byte chunks and list it with its sha256
        and size."""
        self.entries.append(self._write(name, chunks))

    def write_text(self, name: str, text: str) -> None:
        self.write_chunks(name, (text.encode("utf-8"),))

    def write_json(self, name: str, doc) -> None:
        self.write_chunks(name, serialize.json_chunks(doc))

    def manifest(self, kind: str, seed: int, raw_bytes: bytes) -> None:
        doc = {
            "schema": MANIFEST_SCHEMA,
            "kind": kind,
            "seed": seed,
            "scenario_sha256": serialize.sha256_hex(raw_bytes),
            "files": sorted(self.entries, key=lambda e: e["name"]),
        }
        self._write("manifest.json", serialize.json_chunks(doc))


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise ValidationError(message)


def _run_premeasurement(emit: _Emitter, system: StateVector, overlap: float, pointers: np.ndarray) -> None:
    dec = Decoherence.from_amplitudes(system.amplitudes)
    dec.check(overlap)
    # The joint amplitudes a_n x(n) and the density (a a^dagger) o G^T, G
    # the Gram matrix of the pointer states x(n); each zero as +0.0.
    a = system.amplitudes
    m = np.outer(a, a.conj())
    m *= (pointers.conj() @ pointers.T).T
    m += 0.0
    rho_sys = DensityOperator(system.space, m)
    pointer_space = TensorSpace((("pointer", pointers.shape[1]),))
    joint = StateVector(system.space.concat(pointer_space), (a[:, None] * pointers).reshape(-1) + 0.0)
    emit.write_json("joint_state.json", joint.to_json_obj())
    emit.write_json("system_density.json", rho_sys.to_json_obj())
    header = ["off_diagonal_max", "system_linear_entropy", "global_purity"]
    row = [dec.off_diagonal_max(overlap)], [dec.linear_entropy(overlap)], [dec.trace**2]
    emit.write_text("summary.csv", serialize.csv_text(header, *row))


def _run_chain(emit: _Emitter, amplitudes: np.ndarray, overlaps: np.ndarray) -> None:
    dec = Decoherence.from_amplitudes(amplitudes)
    # step k after link k, then the observer's ideal records: gamma 0
    gammas = np.cumprod(overlaps)
    dec.check(np.append(gammas, 0.0), first_step=1)
    header = ["step", "off_diagonal", "system_linear_entropy", "global_purity"]
    columns = dec.off_diagonal_max(gammas), dec.linear_entropy(gammas), np.full(gammas.size, dec.trace**2)
    emit.write_text("chain.csv", serialize.csv_text(header, range(1, gammas.size + 1), *columns))
    pops = dec.populations
    born = np.abs(amplitudes) ** 2
    _check(
        float(np.abs(pops - born).max()) <= 1e-10,
        "final populations deviate from the squared amplitudes",
    )
    summary = {
        "final_populations": pops,
        "born_probabilities": born,
        "max_population_deviation": float(np.abs(pops - born).max()),
    }
    emit.write_json("summary.json", summary)


def _run_branch_recohere(emit: _Emitter, amplitudes: np.ndarray) -> None:
    dec = Decoherence.from_amplitudes(amplitudes)
    gammas = np.array([math.prod(overlaps) for overlaps in BRANCH_CYCLE])
    dec.check(gammas)
    # <ready|rho_apparatus|ready>: sum p while the apparatus is ready, and 0
    # once it points, its pointer states being orthogonal to the ready state
    fidelity = [dec.trace if overlaps[0] == 1.0 else 0.0 for overlaps in BRANCH_CYCLE]
    header = ["step", "apparatus_fidelity", "system_linear_entropy", "global_purity"]
    columns = fidelity, dec.linear_entropy(gammas), np.full(gammas.size, dec.trace**2)
    emit.write_text("branch.csv", serialize.csv_text(header, range(gammas.size), *columns))


def _run_collapse_mc(emit: _Emitter, psi: StateVector, trials: int, limit: int, seed: int) -> None:
    n = psi.space.total_dim
    probs = born_weights(psi)
    outcomes = sample_outcomes(probs, range(seed, seed + trials))
    counts = np.bincount(outcomes, minlength=n)
    born = np.abs(psi.amplitudes) ** 2  # numpy array abs: may differ from probs in the last place
    header = ["outcome", "born_probability", "count", "frequency"]
    emit.write_text("collapse.csv", serialize.csv_text(header, range(n), born, counts, counts / trials))
    records = (
        CollapseRecord(int(k), float(probs[k]), psi, basis_state(psi.space, k), seed + i).to_json_obj()
        for i, k in enumerate(outcomes[:limit])
    )
    emit.write_json("records.json", records)


def _run_wigner(emit: _Emitter, state) -> None:
    w = wigner_transform(state)
    emit.write_chunks("wigner.csv", wigner_csv_chunks(w))
    data, meta = wigner_binary(w)
    emit.write_chunks("wigner.bin", (data,))
    emit.write_json("wigner.meta.json", meta)
    pos, mom = marginals(w)
    header = ["q", "position_density", "p", "momentum_density"]
    emit.write_text("marginals.csv", serialize.csv_text(header, w.q_grid, pos, w.p_grid, mom))


def _run_schmidt(emit: _Emitter, psi: StateVector, system: list[str]) -> None:
    dec = schmidt_decompose(psi, system)
    err = float(np.abs(dec.reconstruct().amplitudes - psi.amplitudes).max())
    _check(err <= 1e-10, f"reconstruction error {err!r}")
    doc = dec.to_json_obj()
    doc["reconstruction_error"] = err
    emit.write_json("schmidt.json", doc)
    c = np.asarray(dec.coefficients, dtype=np.float64)
    header = ["k", "coefficient", "probability"]
    emit.write_text("coefficients.csv", serialize.csv_text(header, range(c.size), c, c * c))


def _run_master(emit: _Emitter, p0: np.ndarray, rates: RateMatrix, times: list[float]) -> None:
    table = pauli_master_table(p0, rates, times)
    low, total = table.min(axis=1), table.sum(axis=1)
    bad = ~(low >= -1e-12) | ~(np.abs(total - 1.0) <= 1e-10)
    if bad.any():  # the first time at fault, named as the check fails
        i = int(np.argmax(bad))
        _check(low[i] >= -1e-12, f"occupation {low[i]!r} below zero at t={times[i]}")
        _check(abs(total[i] - 1.0) <= 1e-10, f"occupations sum to {total[i]!r} at t={times[i]}")
    header = ["t"] + [f"p{i}" for i in range(rates.size)]
    emit.write_text("master.csv", serialize.csv_text(header, times, *table.T))


def _run_histories(emit: _Emitter, spec: HistorySpec) -> None:
    defect = consistency_defect(spec)
    probs, raws = spec.history_tables
    total = 0.0
    for p in probs.tolist():
        total += p
    _check(abs(total - 1.0) <= 1e-10, f"history probabilities sum to {total!r}")
    names = ["|".join(map(str, hist)) for hist in enumerate_histories(spec)]
    header = ["history", "probability", "single_sided_real", "single_sided_imag", "consistency_defect"]
    text = serialize.csv_text(header, names, probs, raws.real, raws.imag, [defect] * len(names))
    emit.write_text("histories.csv", text)
    emit.write_json("summary.json", {"total_probability": total, "consistency_defect": defect})


def _run_graham(emit: _Emitter, born: list[float], eps: float, n_values: list[int]) -> None:
    norms = [graham_deviant_norm(born, n, eps) for n in n_values]
    header = ["n", "epsilon", "deviant_norm"]
    emit.write_text("graham.csv", serialize.csv_text(header, n_values, [eps] * len(n_values), norms))


def _write_ledger(emit: _Emitter, rows) -> None:
    """ledger.csv: each row's entropies in nats, then the first three in bits."""
    nats = np.array(
        [(r.s_ensemble, r.s_physical, r.information, r.s_physical_record_only) for r in rows],
        dtype=np.float64,
    )
    header = ["step", "s_ensemble_nats", "s_physical_nats", "information_nats"]
    header += ["s_physical_record_only_nats", "s_ensemble_bits", "s_physical_bits", "information_bits"]
    bits = entropy_bits(nats[:, :3])
    emit.write_text("ledger.csv", serialize.csv_text(header, [r.step for r in rows], *nats.T, *bits.T))


def _run_ledger_classical(emit: _Emitter, p: np.ndarray) -> None:
    _write_ledger(emit, classical_ledger(p))


def _run_ledger_quantum(emit: _Emitter, amplitudes: np.ndarray) -> None:
    _write_ledger(emit, quantum_collapse_ledger(amplitudes))


def _run_ledger_branching(emit: _Emitter, amplitudes: np.ndarray) -> None:
    _write_ledger(emit, branching_ledger(amplitudes))


_HANDLERS = {
    "premeasurement": (_parse_premeasurement, _run_premeasurement),
    "chain": (_parse_chain, _run_chain),
    "branch_recohere": (_parse_branch, _run_branch_recohere),
    "collapse_mc": (_parse_collapse_mc, _run_collapse_mc),
    "wigner": (_parse_wigner, _run_wigner),
    "schmidt": (_parse_schmidt, _run_schmidt),
    "master": (_parse_master, _run_master),
    "histories": (_parse_histories, _run_histories),
    "graham": (_parse_graham, _run_graham),
    "ledger_classical": (_parse_ledger_classical, _run_ledger_classical),
    "ledger_quantum": (_parse_ledger_quantum, _run_ledger_quantum),
    "ledger_branching": (_parse_branch, _run_ledger_branching),
}


def _read_scenario(path: str, seed: int | None, out):
    """(exit code, parsed scenario, raw bytes); diagnostics are printed to ``out``."""
    try:
        with open(path, "rb") as fh:
            # A longer regular file is refused below without being read.
            raw = fh.read() if os.fstat(fh.fileno()).st_size <= MAX_SCENARIO_BYTES else None
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return EXIT_IO, None, None
    parsed = None
    if raw is None or len(raw) > MAX_SCENARIO_BYTES:
        diags = [
            f"scenario: file over {MAX_SCENARIO_BYTES} bytes, whose decoding may take "
            f"{DECODE_BYTES_PER_BYTE} bytes per byte, over the {MAX_DENSE_BYTES >> 30} GiB cap"
        ]
    else:
        try:
            doc = json.loads(raw.decode("utf-8"))
        except UnicodeDecodeError:
            diags = ["schema: not valid UTF-8"]
        except json.JSONDecodeError as exc:
            diags = [f"schema: not valid JSON: {exc}"]
        except RecursionError:
            diags = ["schema: JSON nested too deeply"]
        else:
            diags, parsed = _parse_document(doc, seed)
    for d in diags:
        print(d, file=out)
    return (EXIT_SCHEMA if diags else EXIT_OK), parsed, raw


def _unexpected(exc: Exception) -> int:
    print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
    return EXIT_NUMERIC


def run(scenario_path: str, out_dir: str | None = None, seed: int | None = None) -> int:
    """Execute one scenario; returns the process exit code."""
    try:
        code, parsed, raw = _read_scenario(scenario_path, seed, sys.stderr)
        if code != EXIT_OK:
            return code
        kind, seed, args = parsed
        if out_dir is None:
            stem = os.path.splitext(os.path.basename(scenario_path))[0]
            out_dir = f"{stem}_out"
        os.makedirs(out_dir, exist_ok=True)
        emit = _Emitter(out_dir)
        _HANDLERS[kind][1](emit, *args)
        emit.manifest(kind, seed, raw)
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except DecolabError as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except Exception as exc:  # anything else: one line, no traceback
        return _unexpected(exc)
    return EXIT_OK


def validate(scenario_path: str) -> int:
    """Print diagnostics for a scenario file; exit 0 iff clean."""
    try:
        code = _read_scenario(scenario_path, None, sys.stdout)[0]
    except Exception as exc:  # anything else: one line, no traceback
        return _unexpected(exc)
    if code == EXIT_OK:
        print("OK")
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="decolab", description="Run or validate decolab scenario files."
    )
    parser.add_argument("--version", action="version", version=f"decolab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a scenario and write artifacts")
    p_run.add_argument("scenario")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_val = sub.add_parser("validate", help="check a scenario without running it")
    p_val.add_argument("scenario")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.scenario, out_dir=args.out, seed=args.seed)
    return validate(args.scenario)


if __name__ == "__main__":
    sys.exit(main())
