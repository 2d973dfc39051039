"""Span tracing of decolab from outside the package.

``Tracer.install`` wraps every public function of every decolab module,
plus ``DensityOperator.__post_init__``, and rebinds each wrapper in every
module namespace that holds the original: ``cli`` and ``ledger`` import
most functions by name, and a call through an unpatched binding would go
unseen.  ``Tracer.uninstall`` restores the originals.

A span is ``(id, parent, scenario, function, start_ns, end_ns, size)``.
Spans stay in memory until ``write_spans``.  The parent is the innermost
open span on the calling thread; a span opened on a worker thread with an
empty stack (the collapse_mc thread pool) is parented to the open
top-level span of the main thread.  Self time is a span's duration minus
the union of its children's intervals, so overlapping children from two
threads are not subtracted twice.  Wrappers re-raise whatever the wrapped
call raised, unchanged.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
import time
from collections import defaultdict

import numpy as np

MODULES = (
    "cli",
    "dynamics",
    "entanglement",
    "hilbert",
    "histories",
    "ledger",
    "measurement",
    "serialize",
    "wigner",
)

# serialize.fmt runs about a million times per Wigner grid; wrapping it would
# measure the tracer.  emit.floats_formatted counts its calls from the
# artifacts instead.
SKIP = {"serialize.fmt"}

DENSITY_CHECK = "hilbert.DensityOperator.__post_init__"


def _matrix_dim(args, kwargs, result) -> int:
    return int(result.shape[0])


def _history_count(args, kwargs, result) -> int:
    return int(np.prod(args[0].outcome_counts()))


def _grid_points(args, kwargs, result) -> int:
    return int(result.values.size)


def _density_dim(args, kwargs, result) -> int:
    return int(args[0].space.total_dim)


# What a span of each function adds to its ``size`` field.
SIZERS = {
    "measurement.measurement_unitary": _matrix_dim,
    "hilbert.embed_matrix": _matrix_dim,
    "histories.enumerate_histories": _history_count,
    "wigner.wigner_transform": _grid_points,
    DENSITY_CHECK: _density_dim,
}

# Per-layer time metrics: the summed self time of the listed functions.
TIME_METRICS = {
    "measurement.unitary_s": ["measurement.measurement_unitary"],
    "measurement.propagate_s": [
        "measurement.premeasure",
        "measurement.chain_propagate",
        "measurement.branch_and_recohere",
    ],
    "hilbert.embed_s": ["hilbert.embed_matrix"],
    "hilbert.density_check_s": [DENSITY_CHECK],
    "hilbert.partial_trace_s": ["hilbert.partial_trace"],
    "entanglement.entropy_s": [
        "entanglement.ensemble_entropy",
        "entanglement.linear_entropy",
        "entanglement.shannon_entropy",
    ],
    "entanglement.schmidt_s": ["entanglement.schmidt_decompose"],
    "ledger.self_s": ["ledger.*"],
    "dynamics.propagator_s": ["dynamics.propagator"],
    "dynamics.collapse_s": ["dynamics.collapse"],
    "histories.defect_s": ["histories.consistency_defect"],
    "histories.probability_s": [
        "histories.history_probability",
        "histories.history_trace_single_sided",
    ],
    "histories.graham_s": ["histories.graham_deviant_norm"],
    "histories.master_s": ["histories.pauli_master_evolve"],
    "wigner.transform_s": ["wigner.wigner_transform"],
    "wigner.write_csv_s": ["wigner.write_wigner_csv"],
    "wigner.write_marginals_s": ["wigner.write_marginals_csv"],
    "wigner.write_binary_s": ["wigner.write_wigner_binary"],
    "cli.validate_s": ["cli.validate_document"],
    "cli.run_self_s": ["cli.run"],
    "serialize.csv_text_s": ["serialize.csv_text"],
    "serialize.dumps_s": ["serialize.dumps"],
    "serialize.sha256_s": ["serialize.sha256_hex"],
}

# Per-layer counters: (functions, how spans combine).  "calls" counts spans,
# "sum" adds their size fields, "max" keeps the largest size, and
# "matrix_bytes" adds the computed D*D*16 bytes of each returned D x D
# complex matrix.
COUNT_METRICS = {
    "measurement.unitary_calls": (["measurement.measurement_unitary"], "calls"),
    "measurement.unitary_bytes": (["measurement.measurement_unitary"], "matrix_bytes"),
    "measurement.joint_dim_max": (["measurement.measurement_unitary"], "max"),
    "hilbert.embed_calls": (["hilbert.embed_matrix"], "calls"),
    "hilbert.embed_bytes": (["hilbert.embed_matrix"], "matrix_bytes"),
    "hilbert.density_checks": ([DENSITY_CHECK], "calls"),
    "hilbert.density_dim_max": ([DENSITY_CHECK], "max"),
    "hilbert.partial_trace_calls": (["hilbert.partial_trace"], "calls"),
    "entanglement.entropy_calls": (TIME_METRICS["entanglement.entropy_s"], "calls"),
    "dynamics.propagator_calls": (["dynamics.propagator"], "calls"),
    "dynamics.collapse_calls": (["dynamics.collapse"], "calls"),
    "histories.count": (["histories.enumerate_histories"], "sum"),
    "wigner.grid_points": (["wigner.wigner_transform"], "sum"),
}


class Tracer:
    """Records spans around decolab calls while installed."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.scenario = -1
        self._root = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.main_thread().ident
        self._modules = [importlib.import_module(f"decolab.{m}") for m in MODULES]
        self._patches = self._build_patches()

    def _wrap(self, fn, name: str):
        index = len(self.names)
        self.names.append(name)
        sizer = SIZERS.get(name)
        spans = self.spans
        clock = time.perf_counter_ns
        local = self._local
        ids = self._ids
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            sid = next(ids)
            if stack:
                parent = stack[-1]
            elif threading.get_ident() == tracer._main:
                parent = -1
                tracer._root = sid
            else:
                parent = tracer._root
            scenario = tracer.scenario
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans.append((sid, parent, scenario, index, start, clock(), 0))
                stack.pop()
                raise
            end = clock()
            stack.pop()
            size = sizer(args, kwargs, result) if sizer is not None else 0
            spans.append((sid, parent, scenario, index, start, end, size))
            return result

        return traced

    def _build_patches(self) -> list[tuple]:
        """(owner, attribute, original, wrapper) for every binding to patch."""
        wrappers = {}
        for mod in self._modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and name not in SKIP
                ):
                    wrappers[obj] = self._wrap(obj, name)
        patches = []
        for mod in [importlib.import_module("decolab")] + self._modules:
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj in wrappers:
                    patches.append((mod, attr, obj, wrappers[obj]))
        cls = importlib.import_module("decolab.hilbert").DensityOperator
        original = cls.__dict__["__post_init__"]
        patches.append((cls, "__post_init__", original, self._wrap(original, DENSITY_CHECK)))
        return patches

    def install(self) -> None:
        for owner, attr, _original, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in self._patches:
            setattr(owner, attr, original)

    def self_times(self) -> list[int]:
        """Self time in ns of each span, in the order of ``self.spans``."""
        children = defaultdict(list)
        for sid, parent, _sc, _fn, start, end, _size in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        out = []
        for sid, _parent, _sc, _fn, start, end, _size in self.spans:
            covered = 0
            kids = children.get(sid)
            if kids:
                kids.sort()
                lo, hi = kids[0]
                for s, e in kids[1:]:
                    if s > hi:
                        covered += hi - lo
                        lo, hi = s, e
                    elif e > hi:
                        hi = e
                covered += hi - lo
            out.append(end - start - covered)
        return out

    def _matches(self, patterns: list[str]) -> set[int]:
        out = set()
        for i, name in enumerate(self.names):
            for pat in patterns:
                if name == pat or (pat.endswith(".*") and name.startswith(pat[:-1])):
                    out.add(i)
        return out

    def layer_metrics(self, scenario_pass: dict[int, int]) -> dict[int, dict]:
        """Per-layer metrics for each traced pass.

        ``scenario_pass`` maps a scenario id to its pass number; spans of
        other scenarios are ignored.
        """
        by_fn = defaultdict(list)
        for metric, patterns in TIME_METRICS.items():
            for fn in self._matches(patterns):
                by_fn[fn].append((metric, "time"))
        for metric, (patterns, how) in COUNT_METRICS.items():
            for fn in self._matches(patterns):
                by_fn[fn].append((metric, how))
        per_pass: dict[int, dict] = {}
        for span, self_ns in zip(self.spans, self.self_times()):
            pass_no = scenario_pass.get(span[2])
            if pass_no is None:
                continue
            acc = per_pass.get(pass_no)
            if acc is None:
                acc = per_pass[pass_no] = dict.fromkeys(list(TIME_METRICS) + list(COUNT_METRICS), 0)
            size = span[6]
            for metric, how in by_fn.get(span[3], ()):
                if how == "time":
                    acc[metric] += self_ns
                elif how == "calls":
                    acc[metric] += 1
                elif how == "sum":
                    acc[metric] += size
                elif how == "max":
                    acc[metric] = max(acc[metric], size)
                else:  # "matrix_bytes": size is the side D of a complex128 matrix
                    acc[metric] += 16 * size * size
        for acc in per_pass.values():
            for metric in TIME_METRICS:
                acc[metric] /= 1e9
        return per_pass

    def write_spans(self, path: str) -> None:
        selfs = self.self_times()
        with open(path, "w") as fh:
            fh.write("span,parent,scenario,function,start_ns,end_ns,self_ns,size\n")
            for (sid, parent, sc, fn, start, end, size), self_ns in zip(self.spans, selfs):
                fh.write(f"{sid},{parent},{sc},{self.names[fn]},{start},{end},{self_ns},{size}\n")
