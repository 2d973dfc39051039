"""Run one workload in a fresh process and print its measurements as JSON.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 \
        --workdir DIR [--setup-only]

The process imports ``decolab.cli`` from the checkout's ``src``, writes the
workload's scenario files and prints ``ready``; ``perfbench/run.py`` times
the launch up to that line as set-up.  With ``--setup-only`` it stops
there.  Otherwise it makes one warm-up pass, checks every artifact with
the independent oracle, then repeats passes for about ``--seconds``.  The
loop is closed: one caller, and each ``cli.run`` starts when the previous
one has returned.  Only the ``cli.run`` calls are timed; clearing output
directories and checking artifacts happen between calls.  With
``--trace 1`` untraced and traced passes alternate, so the tracing
overhead is measured in the same process.  The last line of output is one
JSON object.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 2
REFERENCE_DIR = os.path.join(HERE, "reference")


def prepare(workload: str, seed: int, workdir: str) -> list[tuple]:
    """Write the scenario files; returns (name, doc, path, out_dir) per scenario."""
    scen_dir = os.path.join(workdir, "scenarios")
    os.makedirs(scen_dir, exist_ok=True)
    out = []
    for i, (name, doc) in enumerate(workloads.generate(workload, seed)):
        path = os.path.join(scen_dir, f"{i:03d}_{name}.json")
        with open(path, "w") as fh:
            fh.write(json.dumps(doc, sort_keys=True))
        out.append((name, doc, path, os.path.join(workdir, "out", name)))
    return out


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, if it can be asked."""
    import numpy

    pattern = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(pattern):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment(cli) -> dict:
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "DECOLAB_THREADS": os.environ.get("DECOLAB_THREADS", "unset"),
        "collapse_workers": cli.thread_cap(),
        "platform": platform.platform(),
    }


def load_reference(workload: str, seed: int) -> dict | None:
    path = os.path.join(REFERENCE_DIR, f"{workload}.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        ref = json.load(fh)
    return ref["artifacts"] if ref["seed"] == seed else None


def artifacts_changed(reference: dict, digests: dict) -> int:
    changed = 0
    for name in set(reference) | set(digests):
        ref = reference.get(name, {})
        got = digests.get(name, {})
        changed += sum(1 for f in set(ref) | set(got) if ref.get(f) != got.get(f))
    return changed


class Runner:
    """Runs passes over the scenario set and keeps the failure count."""

    def __init__(self, cli, scenarios: list[tuple]):
        self.cli = cli
        self.scenarios = scenarios
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.manifests: dict[str, bytes] = {}
        self.digests: dict[str, dict] = {}
        self.rejected: set[str] = set()  # scenarios whose warm-up artifacts failed

    def _fail(self, name: str, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(f"{name}: {message}")

    def run_pass(self, first: bool, tracer=None, scenario_base: int = 0) -> list[float]:
        """One pass; returns the wall time of each cli.run call."""
        times = []
        for i, (name, doc, path, out_dir) in enumerate(self.scenarios):
            shutil.rmtree(out_dir, ignore_errors=True)
            if tracer is not None:
                tracer.scenario = scenario_base + i
            self.attempted += 1
            start = time.perf_counter()
            try:
                code = self.cli.run(path, out_dir=out_dir)
            except Exception as exc:  # an escaped traceback counts as a failed run
                times.append(time.perf_counter() - start)
                self._fail(name, f"raised {type(exc).__name__}: {exc}")
                continue
            times.append(time.perf_counter() - start)
            if code != 0:
                self._fail(name, f"exit code {code}")
                continue
            self._check(name, doc, out_dir, first)
        return times

    def _check(self, name: str, doc: dict, out_dir: str, first: bool) -> None:
        try:
            manifest, digests, problems = oracle.hash_artifacts(out_dir)
        except (OSError, ValueError, KeyError) as exc:
            self._fail(name, f"unreadable manifest: {exc}")
            return
        if first:
            problems += oracle.check(doc, out_dir)
            self.manifests[name] = manifest
            self.digests[name] = digests
            if problems:
                self.rejected.add(name)
        elif manifest != self.manifests.get(name):
            problems.append("manifest differs from the warm-up pass")
        elif name in self.rejected:
            problems.append("same artifacts as the rejected warm-up pass")
        if problems:
            self._fail(name, "; ".join(problems))


def quartiles(values: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": q2, "q1": q1, "q3": q3, "n": len(values)}


def scenario_percentiles(call_times: list[list[float]]) -> dict:
    """p50 and p90 over the scenario set of each scenario's median call time.

    Taking each scenario's median over passes first keeps a percentile that
    falls between two rungs of a ladder from jumping with per-call noise.
    """
    medians = [statistics.median(samples) for samples in call_times]
    return {
        "p50": statistics.median(medians),
        "p90": statistics.quantiles(medians, n=10, method="inclusive")[8],
        "n": len(medians),
    }


def measure(cli, scenarios: list[tuple], args) -> dict:
    runner = Runner(cli, scenarios)
    runner.run_pass(first=True)
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    call_times: list[list[float]] = [[] for _ in scenarios]
    scenario_pass: dict[int, int] = {}
    n = len(scenarios)
    start = time.perf_counter()
    deadline = start + args.seconds
    while True:
        trace_this = tracer is not None and len(traced) < len(untraced)
        t0 = time.perf_counter()
        if trace_this:
            base = len(traced) * n
            scenario_pass.update({base + i: len(traced) for i in range(n)})
            tracer.install()
            try:
                times = runner.run_pass(first=False, tracer=tracer, scenario_base=base)
            finally:
                tracer.uninstall()
            traced.append(sum(times))
        else:
            times = runner.run_pass(first=False)
            untraced.append(sum(times))
            for samples, t in zip(call_times, times):
                samples.append(t)
        elapsed = time.perf_counter() - t0
        enough = len(untraced) >= MIN_PASSES and (tracer is None or len(traced) >= MIN_PASSES)
        if enough and time.perf_counter() + elapsed > deadline:
            break
    window = time.perf_counter() - start

    reference = load_reference(args.workload, args.seed)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems,
        "scenarios": n,
        "window_s": window,
        "sweep_s": quartiles(untraced),
        "pass_times_s": untraced,
        "scenario_s": scenario_percentiles(call_times),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "artifacts_changed": None if reference is None else artifacts_changed(reference, runner.digests),
        "env": {
            **environment(cli),
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "passes": {"warm_up": 1, "untraced": len(untraced), "traced": len(traced)},
        },
        "digests": runner.digests,
    }
    if tracer is not None:
        layers, result["unstable_counters"] = layer_summary(tracer, scenario_pass, scenarios)
        layers["emit.artifacts_changed"] = result["artifacts_changed"] or 0
        layers["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
        result["layers"] = layers
        result["traced_sweep_s"] = quartiles(traced)
        result["spans"] = len(tracer.spans)
        tracer.write_spans(os.path.join(args.workdir, "spans.csv"))
    return result


def layer_summary(tracer, scenario_pass: dict, scenarios: list[tuple]) -> tuple[dict, list]:
    """Median per-layer times over traced passes, exact counters, emit counts.

    Also returns the counters that differed between traced passes; there
    should be none.
    """
    import tracing

    per_pass = tracer.layer_metrics(scenario_pass)
    passes = [per_pass[k] for k in sorted(per_pass)]
    out = {}
    unstable = []
    for metric in tracing.TIME_METRICS:
        out[metric] = statistics.median(p[metric] for p in passes)
    for metric in tracing.COUNT_METRICS:
        values = {p[metric] for p in passes}
        if len(values) != 1:
            unstable.append(metric)
        out[metric] = max(values)
    files = bytes_ = floats = 0
    for _name, _doc, _path, out_dir in scenarios:
        f, b, fl = oracle.count_emitted(out_dir)
        files, bytes_, floats = files + f, bytes_ + b, floats + fl
    out.update({"emit.files": files, "emit.bytes": bytes_, "emit.floats_formatted": floats})
    return out, unstable


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from decolab import cli

    src = os.path.join(ROOT, "src")
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"decolab was imported from {cli.__file__}, not from {src}", file=sys.stderr)
        return 2
    scenarios = prepare(args.workload, args.seed, args.workdir)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    print(json.dumps(measure(cli, scenarios, args)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
