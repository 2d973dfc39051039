"""Tests of the benchmark itself: inputs, oracle, tracing and exact counters.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from decolab import cli, hilbert  # noqa: E402
from decolab.errors import ValidationError  # noqa: E402

COUNT_UNITS = {"count", "dim", "B", "B-computed"}


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), *args],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )


def _write(tmp_path, doc: dict) -> str:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_inputs_depend_only_on_the_seed(workload):
    first = json.dumps(workloads.generate(workload, 4))
    assert json.dumps(workloads.generate(workload, 4)) == first
    assert json.dumps(workloads.generate(workload, 5)) != first
    names = [name for name, _doc in workloads.generate(workload, 4)]
    assert len(set(names)) == len(names)


def test_small_scenarios_cover_every_kind():
    kinds = {doc["kind"] for _name, doc in workloads.generate("small_scenarios", 0)}
    assert kinds == set(cli.KINDS)


def test_oracle_accepts_good_and_flags_corrupted_artifacts(tmp_path):
    doc = dict(workloads.generate("registers", 0))["chain_n2_l3"]
    out = tmp_path / "out"
    assert cli.run(_write(tmp_path, doc), out_dir=str(out)) == 0
    assert oracle.check(doc, str(out)) == []
    assert oracle.hash_artifacts(str(out))[2] == []
    summary = json.loads((out / "summary.json").read_text())
    summary["final_populations"] = summary["final_populations"][::-1]
    (out / "summary.json").write_text(json.dumps(summary))
    assert any("final_populations" in p for p in oracle.check(doc, str(out)))
    assert any("summary.json" in p for p in oracle.hash_artifacts(str(out))[2])


def test_tracer_covers_by_name_imports_and_restores_them():
    originals = (cli.run, cli.partial_trace, hilbert.partial_trace)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.partial_trace is hilbert.partial_trace
        assert cli.partial_trace is not originals[1]
        assert hilbert.DensityOperator.__post_init__.__name__ == "__post_init__"
    finally:
        tracer.uninstall()
    assert (cli.run, cli.partial_trace, hilbert.partial_trace) == originals


def test_wrappers_reraise_unchanged_and_keep_exit_code_3(tmp_path):
    state = hilbert.StateVector(hilbert.TensorSpace((("a", 2), ("b", 2))), np.eye(4)[0])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with pytest.raises(ValidationError, match="keep set is empty"):
            hilbert.partial_trace(state, [])
        doc = {"schema": cli.SCENARIO_SCHEMA, "kind": "chain",
               "params": {"amplitudes": [1, 0], "links": 1, "overlap": 2.0}}
        code = cli.run(_write(tmp_path, doc), out_dir=str(tmp_path / "out"))
    finally:
        tracer.uninstall()
    assert code == cli.EXIT_NUMERIC
    names = [tracer.names[span[3]] for span in tracer.spans]
    assert "hilbert.partial_trace" in names
    assert "measurement.record_states_with_overlap" in names


def test_self_time_subtracts_the_union_of_overlapping_children():
    tracer = tracing.Tracer()
    tracer.spans.extend([
        (0, -1, 0, 0, 0, 100, 0),   # parent: 100 ns
        (1, 0, 0, 0, 10, 50, 0),    # child on one thread
        (2, 0, 0, 0, 30, 70, 0),    # overlapping child on another thread
        (3, 0, 0, 0, 80, 90, 0),
    ])
    assert tracer.self_times() == [100 - 60 - 10, 40, 40, 10]


def test_counters_repeat_exactly_between_runs_of_one_seed():
    runs = []
    for _ in range(2):
        proc = _bench("--workload", "small_scenarios", "--seed", "3", "--seconds", "1", "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        runs.append(result["metrics"])
    counts = {k: v["value"] for k, v in runs[0].items() if v["unit"] in COUNT_UNITS}
    assert counts["dynamics.collapse_calls"] > 0 and counts["emit.files"] > 0
    assert counts == {k: v["value"] for k, v in runs[1].items() if v["unit"] in COUNT_UNITS}


def test_run_fails_without_decolab_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "registers", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
