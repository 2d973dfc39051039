"""decolab scenario-sweep benchmark.

    python3 perfbench/run.py --workload registers --seed 0 --seconds 20 --trace 0

Run from the root of a checkout.  For each workload the benchmark
generates scenario documents from ``--seed``, runs them in order through
``decolab.cli.run`` in one fresh worker process, and checks every artifact
with an independent oracle (see ``oracle.py``).  ``--trace 0`` reports the
end-to-end metrics and ``--trace 1`` the per-layer metrics of a traced run
(see ``tracing.py``).  Human-readable lines come first; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  A full record of the run,
including its environment, is written to ``.perfbench_work/``.

``--write-reference`` records the artifact digests of this run as the
reference that ``emit.artifacts_changed`` is counted against.  Use it only
when an output change is intended, and name that change.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

WORKLOADS = ("registers", "histories", "phase_space", "small_scenarios")
# Set-up is timed in this many extra fresh processes, plus the measuring one.
SETUP_PROBES = 5
# Every run must end within this many seconds of its start.
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _worker_cmd(args, workdir: str, setup_only: bool) -> list[str]:
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", workdir,
    ]
    return cmd + ["--setup-only"] if setup_only else cmd


def launch(cmd: list[str], deadline: float) -> tuple[float, str]:
    """Run one worker; returns (seconds from launch to 'ready', the rest of stdout)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker did not finish in time") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode} before finishing")
    return ready, rest


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def report(result: dict, setup: list[float], trace: int) -> dict:
    """Print the human-readable lines; returns the metrics object."""
    w = result["workload"]
    p = result["env"]["passes"]
    print(
        f"workload {w} seed {result['seed']}: {result['scenarios']} scenarios per pass, "
        f"closed loop with one caller; passes: {p['warm_up']} warm-up, "
        f"{p['untraced']} untraced, {p['traced']} traced"
    )
    print(
        f"failed_frac {result['failed']}/{result['attempted']} = "
        f"{result['failed'] / result['attempted']:.6g} (ratio)"
    )
    for problem in result["problems"]:
        print(f"  failure: {problem}")
    changed = result["artifacts_changed"]
    print(
        "emit.artifacts_changed "
        + (f"{changed} (count, against the reference digests)" if changed is not None
           else f"not counted: no reference digests for seed {result['seed']}")
    )
    if trace:
        if result["unstable_counters"]:
            print(f"  counters that differed between traced passes: {result['unstable_counters']}")
        metrics = {}
        for spec in _bench_spec()["per_layer"]:
            metrics[spec["name"]] = {"value": result["layers"][spec["name"]], "unit": spec["unit"]}
            print(f"{spec['name']} {_fmt(result['layers'][spec['name']])} {spec['unit']}")
        print(f"spans recorded: {result['spans']} (written to .perfbench_work/{w}/spans.csv)")
        return metrics
    sweep = result["sweep_s"]
    scen = result["scenario_s"]
    setup_q = statistics.quantiles(setup, n=4, method="inclusive")
    print(f"sweep_s median {_fmt(sweep['median'])} s, q1 {_fmt(sweep['q1'])}, "
          f"q3 {_fmt(sweep['q3'])}, n={sweep['n']} passes")
    print(f"scenario_p50_s {_fmt(scen['p50'])} s, scenario_p90_s {_fmt(scen['p90'])} s, "
          f"over the median call time of each of {scen['n']} scenarios, "
          f"{sweep['n']} calls each")
    print(f"peak_rss_mb {_fmt(result['peak_rss_mib'])} MiB")
    print(f"setup_s median {_fmt(setup_q[1])} s, q1 {_fmt(setup_q[0])}, "
          f"q3 {_fmt(setup_q[2])}, n={len(setup)} launches")
    values = {
        "sweep_s": sweep["median"],
        "scenario_p50_s": scen["p50"],
        "scenario_p90_s": scen["p90"],
        "peak_rss_mb": result["peak_rss_mib"],
        "setup_s": setup_q[1],
    }
    return {
        spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]}
        for spec in _bench_spec()["end_to_end"]
    }


def _bench_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="decolab scenario-sweep benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "decolab", "cli.py")):
        print(f"no decolab sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_LIMIT_S
    workdir = os.path.join(ROOT, ".perfbench_work", args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        setup = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setup.append(launch(_worker_cmd(args, workdir, True), deadline)[0])
        ready, out = launch(_worker_cmd(args, workdir, False), deadline)
        setup.append(ready)
        result = json.loads(out.strip().splitlines()[-1])
    except (BenchError, json.JSONDecodeError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    result["setup_s"] = setup
    metrics = report(result, setup, args.trace)
    print("env " + json.dumps(result["env"], sort_keys=True))
    digests = result.pop("digests")
    with open(os.path.join(workdir, f"result-seed{args.seed}-trace{args.trace}.json"), "w") as fh:
        json.dump({**result, "metrics": metrics}, fh, indent=1, sort_keys=True)
    if args.write_reference:
        if result["failed"]:
            print("not writing reference digests: the run had failures", file=sys.stderr)
            return 1
        os.makedirs(os.path.join(HERE, "reference"), exist_ok=True)
        with open(os.path.join(HERE, "reference", f"{args.workload}.json"), "w") as fh:
            json.dump({"seed": args.seed, "artifacts": digests}, fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
