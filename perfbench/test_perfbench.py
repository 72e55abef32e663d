"""Self-tests for the benchmark: python3 -m pytest -q perfbench"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import tracing  # noqa: E402
import workloads  # noqa: E402
from stochdet import detector  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, out: Path, workload: str, trace: int, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--out", str(out), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric(tmp_path, workload, trace):
    proc = run_bench(ROOT, tmp_path, workload, trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    if not trace:  # tiny models may flag nothing, so only costs must be positive
        costs = [v["value"] for v in result["metrics"].values() if v["unit"] in ("s", "ms", "1/s", "MB")]
        assert len(costs) == 5 and all(c > 0 for c in costs)


def test_corrupted_verdict_is_counted(tmp_path, monkeypatch):
    original = detector.stochastic_inference
    calls = []

    def corrupting(*args, **kwargs):
        verdict = original(*args, **kwargs)
        calls.append(1)
        if len(calls) == 5:
            verdict.label = "benign" if verdict.label == "adversarial" else "adversarial"
        return verdict

    monkeypatch.setattr(detector, "stochastic_inference", corrupting)
    tally = workloads.Tally()
    workloads.detect_online(3, 0.5, False, True, tmp_path, tally)
    assert tally.failed == 1
    assert tally.failed / tally.attempted > 0
    assert "request 4" in tally.failures[0]


def test_rederive_rejects_each_mismatch():
    th = detector.DetectionThresholds(0.01, 0.5, 0.05, 0.3)
    rec = {"label": "adversarial", "runs_used": 3, "terminated_by": "cap", "l1_history": [0.2, 0.2, 0.2]}
    assert workloads.rederive_ok(rec, th, 3)
    for key, bad in (("label", "benign"), ("runs_used", 2), ("terminated_by", "average")):
        assert not workloads.rederive_ok({**rec, key: bad}, th, 3)
    assert not workloads.rederive_ok({**rec, "l1_history": [0.2, 0.2]}, th, 3)


def test_self_time_subtracts_children():
    t = tracing.Tracer()
    t.add_span("outer", 0, 100, -1)
    t.add_span("inner", 10, 40, 0)
    t.add_span("inner", 50, 60, 0)
    tot = t.totals()
    assert tot["outer"] == {"calls": 1, "ns": 100, "self_ns": 60}
    assert tot["inner"]["calls"] == 2 and tot["inner"]["ns"] == 40


def test_install_patches_import_sites_and_restores():
    import stochdet.cli
    import stochdet.pipeline
    import stochdet.rng

    before = stochdet.rng.derive_seed
    tracer = tracing.Tracer()
    inst = tracing.install(tracer, [("stochdet.rng", "derive_seed", "rng.derive_seed", None)])
    try:
        assert stochdet.cli.derive_seed is stochdet.rng.derive_seed is stochdet.pipeline.derive_seed
        assert stochdet.rng.derive_seed is not before
        stochdet.cli.derive_seed(1, "x")
    finally:
        inst.remove()
    assert stochdet.rng.derive_seed is before and stochdet.cli.derive_seed is before
    assert tracer.totals()["rng.derive_seed"]["calls"] == 1
    with pytest.raises(AttributeError):
        tracing.install(tracer, [("stochdet.rng", "no_such_function", "x", None)])


def test_fails_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench(tmp_path, tmp_path / "out", "detect-online", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
