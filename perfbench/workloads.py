"""The benchmark workloads.

Each workload sets up (several times, for a median set-up time), runs its
operations for the requested seconds, checks every output, and returns
the end-to-end metrics. The system is driven only through
``stochastic_inference`` and the ``stochdet`` CLI subcommands, called in
process through ``stochdet.cli.main``.

Seeds: the workload seed generates the online request stream and its
benign pool. The detection model itself is trained in set-up from a
fixed config, so every seed measures the same model and the quality
metrics estimate the same quantities.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import layers
from tracing import Tracer, install
from stochdet.cli import main as cli_main
from stochdet import detector
from stochdet.detector import DetectionThresholds, DetectorConfig, decide
from stochdet.model import ThresholdTable, load_model
from stochdet.attacks import load_adversarial_set_with_meta
from stochdet.data import synth_dataset
from stochdet.pipeline import load_dataset_spec, read_json_artifact
from stochdet.sparsify import NoiseConfig, confidence, noise_budget

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
# detect-online: share of requests that are adversarial. Verdict latency is
# trimodal (one, two or three passes). At a 0.3 share 48% of requests finish
# in one pass and 6% in two, so the median fell in the thin two-pass band; at
# 0.1, 52% finish in one pass and the median sits at the top of that mode.
# A change to the exit mix (see mean_runs) still moves op_p50_ms by more than
# the work it adds.
ADVERSARIAL_SHARE = 0.1
ITERATIVE_KINDS = ("cw_l2", "defense_aware")
MAX_RUNS = 3

# detect-online's model: the fixture architecture and image size, trained on
# fewer samples so set-up stays a few seconds.
ONLINE_CONFIG = {
    "base_seed": 7,
    "dataset": "synth:7",
    "image_size": 18,
    "train_count": 800,
    "test_count": 540,
    "train": {"lr": 0.15, "epochs": 4, "seed": 11, "batch_size": 16, "weight_decay": 1e-4},
    "detector": {"max_runs": MAX_RUNS, "target_fpr": 0.05, "calibration_passes": 8},
    "attacks": [
        {"kind": "cw_l2", "target_mode": "next", "k": 2.0},
        {"kind": "defense_aware", "target_mode": "next", "k": 2.0, "beta": 0.1},
    ],
    "calib_count": 100,
    "benign_eval_count": 400,  # attack sources start after calibration and eval slices
    "attack_count": 12,
}

# A reduced copy of the default experiment: same architecture, image size,
# attack kinds and 300 descent steps; fewer training samples, epochs and
# attack sources, and calibration shrunk with the rest.
EXPERIMENT_CONFIG = {
    "base_seed": 7,
    "dataset": "synth:7",
    "image_size": 18,
    "train_count": 400,
    "test_count": 320,
    "train": {"lr": 0.15, "epochs": 3, "seed": 11, "batch_size": 16, "weight_decay": 1e-4},
    "detector": {"max_runs": MAX_RUNS, "target_fpr": 0.05, "calibration_passes": 4},
    "attacks": [
        {"kind": "fgsm", "eps": 0.15},
        {"kind": "cw_l2", "target_mode": "next", "k": 0.0},
        {"kind": "cw_l2", "target_mode": "next", "k": 2.0},
        {"kind": "cw_l2", "target_mode": "next", "k": 5.0},
        {"kind": "defense_aware", "target_mode": "next", "k": 2.0, "beta": 1e-4},
        {"kind": "defense_aware", "target_mode": "next", "k": 2.0, "beta": 1e-1},
    ],
    "calib_count": 100,
    "benign_eval_count": 200,
    "attack_count": 2,
    "simulate_count": 20,
}

# Tiny sizes for the self-tests: every code path, seconds instead of minutes.
TINY = {
    "train_count": 120,
    "test_count": 200,
    "train": {"lr": 0.15, "epochs": 1, "seed": 11, "batch_size": 16, "weight_decay": 1e-4},
    "detector": {"max_runs": MAX_RUNS, "target_fpr": 0.05, "calibration_passes": 4},
    "calib_count": 30,
    "benign_eval_count": 40,
    "attack_count": 2,
    "simulate_count": 4,
}
TINY_ATTACK_STEPS = 100

# operations replayed untraced, then traced, in --trace 1 runs
TRACE_OPS = {"detect-online": 1500, "experiment": 1}
TINY_TRACE_OPS = {"detect-online": 60, "experiment": 1}

END_TO_END = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("benign_fpr", "share"),
    ("detection_rate", "share"),
    ("mean_runs", "passes"),
    ("attack_success_rate", "share"),
    ("peak_rss_mb", "MB"),
]


class CheckFailed(RuntimeError):
    pass


@dataclass
class Tally:
    """Operations attempted and failed; every failed check is one failure."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def op(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok


class StampedWriter(io.TextIOBase):
    """stdout replacement that remembers when each line was written."""

    def __init__(self) -> None:
        self.lines: list[tuple[int, str]] = []

    def write(self, s: str) -> int:
        now = time.perf_counter_ns()
        for line in s.splitlines():
            if line:
                self.lines.append((now, line))
        return len(s)

    def text(self) -> str:
        return "\n".join(line for _, line in self.lines)


@dataclass
class CliResult:
    rc: int
    out: StampedWriter
    err: str
    start_ns: int
    end_ns: int


def cli(argv: list[str]) -> CliResult:
    out, err = StampedWriter(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter_ns()
        try:
            rc = cli_main(argv)
        except SystemExit as exc:  # argparse rejects bad flags this way
            rc = exc.code if isinstance(exc.code, int) else 2
        end = time.perf_counter_ns()
    return CliResult(rc, out, err.getvalue(), start, end)


def cli_op(tally: Tally, argv: list[str]) -> CliResult:
    res = cli(argv)
    tally.op(res.rc == 0, f"stochdet {argv[0]} exited {res.rc}: {res.err.strip()[-300:]}")
    return res


def scaled(config: dict, tiny: bool) -> dict:
    cfg = json.loads(json.dumps(config))
    if tiny:
        cfg.update(json.loads(json.dumps(TINY)))
        for spec in cfg["attacks"]:
            if spec["kind"] != "fgsm":
                spec["steps"] = TINY_ATTACK_STEPS
    return cfg


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile_ms(samples_ns: list[int], q: float) -> float:
    return float(np.percentile(np.asarray(samples_ns, dtype=np.float64), q)) / 1e6


# ---------------------------------------------------------------------------
# output checks


def rederive_ok(rec: dict, thresholds: DetectionThresholds, max_runs: int) -> bool:
    """Replay the decision loop on a verdict's own L1 history."""
    history = rec["l1_history"]
    try:
        label, runs, replayed, reason = decide(lambda i: history[i - 1], thresholds, max_runs)
    except IndexError:  # the verdict stopped before its history allows
        return False
    return (
        label == rec["label"]
        and runs == rec["runs_used"]
        and reason == rec["terminated_by"]
        and replayed == list(history)
    )


def verify_ok(tally: Tally, run_dir: Path) -> None:
    res = cli(["verify", str(run_dir)])
    tally.op(res.rc == 0 and "TAMPERED" not in res.out.text(), f"verify {run_dir.name}: {res.out.text()[-300:]}")


def read_verdict_logs(run_dir: Path) -> dict[str, list[dict]]:
    logs = {}
    for path in sorted(run_dir.glob("verdicts_*.jsonl")):
        lines = path.read_text(encoding="utf-8").splitlines()[1:]
        logs[path.stem.removeprefix("verdicts_")] = [json.loads(line) for line in lines]
    return logs


def check_verdict_logs(tally: Tally, run_dir: Path, logs: dict[str, list[dict]]) -> None:
    _, payload = read_json_artifact(run_dir / "thresholds.json")
    thresholds = DetectionThresholds.from_json(payload["thresholds"])
    for name, records in logs.items():
        for rec in records:
            tally.op(rederive_ok(rec, thresholds, MAX_RUNS), f"{name} verdict {rec.get('input_id')} does not re-derive")


def reissue_benign_ok(tally: Tally, run_dir: Path, common: list[str], base_seed: int) -> None:
    """Re-run the benign set through `stochdet detect`; it must match eval's log."""
    res = cli_op(
        tally,
        ["detect", *common, "--thresholds", str(run_dir / "thresholds.json"),
         "--base-seed", str(base_seed), "--name", "reissue"],
    )
    if res.rc != 0:
        return
    # the header line holds provenance, which differs with the command line
    again = run_dir / "verdicts_reissue.jsonl"
    same = again.read_text().splitlines()[1:] == (run_dir / "verdicts_benign.jsonl").read_text().splitlines()[1:]
    again.unlink()
    tally.op(same, f"re-issued benign verdicts differ in {run_dir.name}")


def new_counts() -> dict[str, int]:
    return {"benign": 0, "benign_flagged": 0, "adv": 0, "adv_flagged": 0, "runs": 0, "verdicts": 0,
            "exit.greedy": 0, "exit.average": 0, "exit.cap": 0}


def count_verdict(q: dict[str, int], adversarial_input: bool, rec: dict) -> None:
    side = "adv" if adversarial_input else "benign"
    q[side] += 1
    q[f"{side}_flagged"] += rec["label"] == "adversarial"
    q["runs"] += rec["runs_used"]
    q["verdicts"] += 1
    q[f"exit.{rec['terminated_by']}"] += 1


def count_logs(q: dict[str, int], logs: dict[str, list[dict]]) -> None:
    for name, records in logs.items():
        for rec in records:
            count_verdict(q, name != "benign", rec)


def quality(q: dict[str, int]) -> dict[str, float]:
    return {
        "benign_fpr": q["benign_flagged"] / max(1, q["benign"]),
        "detection_rate": q["adv_flagged"] / max(1, q["adv"]),
        "mean_runs": q["runs"] / max(1, q["verdicts"]),
    }


def workload_properties(q: dict[str, int]) -> dict:
    n = max(1, q["verdicts"])
    return {
        "verdicts": q["verdicts"],
        "adversarial_share": q["adv"] / n,
        "exit_mix": {r: q[f"exit.{r}"] / n for r in ("greedy", "average", "cap")},
    }


def adversarial_sets(run_dir: Path) -> tuple[list[np.ndarray], float]:
    """Successful perturbed inputs on disk, and the success rate pooled over
    the iterative attack sets."""
    inputs, ok, n = [], 0, 0
    for path in sorted(run_dir.glob("adv_*.bin")):
        samples, meta = load_adversarial_set_with_meta(path.read_bytes())
        inputs += [s.perturbed for s in samples if s.success]
        if meta.get("kind") in ITERATIVE_KINDS:
            ok += sum(1 for s in samples if s.success)
            n += len(samples)
    return inputs, ok / max(1, n)


def saturated_share(model, inputs) -> float:
    noise = NoiseConfig()
    hits = sum(
        noise_budget(confidence(model.predict(x)), noise) >= noise.sr_hi - layers.SATURATION_EPS for x in inputs
    )
    return hits / len(inputs) if inputs else 0.0


# ---------------------------------------------------------------------------
# shared set-up


def write_config(path: Path, cfg: dict) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(cfg, indent=1), encoding="utf-8")
    return path


def model_args(run_dir: Path) -> list[str]:
    return ["--model", str(run_dir / "model.bin"), "--table", str(run_dir / "threshold_table.json")]


def online_setup(tally: Tally, work: Path, cfg: dict) -> tuple[Path, list[float]]:
    """train/profile/attack/calibrate SETUP_REPEATS times into one directory.

    Artifacts embed the config hash, which covers the output path, so every
    repetition writes to the same place and must write the same bytes.
    """
    run_dir = work / "setup"
    conf = write_config(work / "online-config.json", cfg)
    common = ["--config", str(conf), "--out", str(run_dir)]
    steps = [["train", *common], ["profile", *common, "--model", str(run_dir / "model.bin")],
             ["attack", *common, "--model", str(run_dir / "model.bin")],
             ["calibrate", *common, *model_args(run_dir)]]
    times, models = [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(run_dir, ignore_errors=True)
        start = time.perf_counter()
        for argv in steps:
            if cli_op(tally, argv).rc != 0:
                raise CheckFailed(f"set-up step {argv[0]} failed: {tally.failures[-1]}")
        times.append(time.perf_counter() - start)
        models.append((run_dir / "model.bin").read_bytes())
    tally.op(all(m == models[0] for m in models), "set-up is not deterministic: model.bin differs")
    verify_ok(tally, run_dir)
    return run_dir, times


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Run:
    """What one workload run hands back to the runner."""

    metrics: dict[str, float] = field(default_factory=dict)
    per_layer: dict[str, float] = field(default_factory=dict)
    properties: dict = field(default_factory=dict)


def _traced_phase(tracer: Tracer, body):
    inst = install(tracer, layers.targets(NoiseConfig().sr_hi))
    try:
        return body()
    finally:
        inst.remove()


def detect_online(seed: int, seconds: float, trace: bool, tiny: bool, work: Path, tally: Tally) -> Run:
    cfg = scaled(ONLINE_CONFIG, tiny)
    # set-up: CLI train/profile/attack/calibrate, then load what the loop needs
    run_dir, setup_times = online_setup(tally, work, cfg)
    start = time.perf_counter()
    model = load_model((run_dir / "model.bin").read_bytes())
    table = ThresholdTable.from_json(read_json_artifact(run_dir / "threshold_table.json")[1])
    thresholds = DetectionThresholds.from_json(read_json_artifact(run_dir / "thresholds.json")[1]["thresholds"])
    adversarial, success_rate = adversarial_sets(run_dir)
    rng = np.random.default_rng([seed, 0x0B])
    benign = synth_dataset(int(rng.integers(2**31)), 64 if tiny else 4096, cfg["image_size"]).images
    load_s = time.perf_counter() - start
    setup_times = [t + load_s for t in setup_times]
    if not adversarial:
        raise CheckFailed("set-up produced no successful adversarial sample")
    noise = NoiseConfig()

    reissue_share = 0.25 if tiny else 0.01
    q = new_counts()
    latencies: list[int] = []
    reissue: list[tuple] = []

    def requests(count: int):
        is_adv = rng.random(count) < ADVERSARIAL_SHARE
        pick = rng.random(count)
        seeds = rng.integers(0, 2**63 - 1, size=count)
        again = rng.random(count) < reissue_share
        for a, p, s, r in zip(is_adv, pick, seeds, again):
            pool = adversarial if a else benign
            yield bool(a), pool[int(p * len(pool))], DetectorConfig(thresholds, MAX_RUNS, noise, int(s)), bool(r)

    def settle(n: int, is_adv: bool, x, det, again: bool, v, dt: int) -> None:
        """Check one verdict and fold it into the counts; keeps no per-request objects."""
        if isinstance(v, Exception):
            tally.op(False, f"request {n} raised {type(v).__name__}: {v}")
            return
        rec = v.to_json()
        if not tally.op(rederive_ok(rec, thresholds, MAX_RUNS), f"request {n}: verdict does not re-derive"):
            return
        if again:
            reissue.append((n, x, det, rec))
        latencies.append(dt)
        count_verdict(q, is_adv, rec)

    def serve(reqs, deadline: float | None, check: bool, first: int = 0) -> tuple[int, int]:
        """Closed loop, one client: the next request goes out when a verdict is back.

        Returns (requests served, ns spent inside the calls); the client's
        own checks between calls are not counted.
        """
        served = busy = 0
        for is_adv, x, det, again in reqs:
            t0 = time.perf_counter_ns()
            try:
                v = detector.stochastic_inference(model, table, x, det)  # module lookup, so tracing sees it
            except Exception as exc:  # a failed request is counted, not fatal
                v = exc
            t1 = time.perf_counter_ns()
            if check:
                settle(first + served, is_adv, x, det, again, v, t1 - t0)
            served += 1
            busy += t1 - t0
            if deadline is not None and t1 / 1e9 >= deadline:
                break
        return served, busy

    if trace:
        reqs = list(requests((TINY_TRACE_OPS if tiny else TRACE_OPS)["detect-online"]))
        served, busy = serve(reqs, None, check=True)
        tracer = Tracer()
        with tracer.span("op.verdicts"):
            _, traced_busy = _traced_phase(tracer, lambda: serve(reqs, None, check=False))
        untraced_s, traced_s = busy / 1e9, traced_busy / 1e9
    else:
        served = busy = 0
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            n, ns = serve(requests(2048), deadline, check=True, first=served)
            served, busy = served + n, busy + ns

    # a seeded sample, re-issued after the loop, must come back bit-identical
    for n, x, det, rec in reissue:
        again = detector.stochastic_inference(model, table, x, det).to_json()
        tally.op(again == rec, f"request {n}: re-issued verdict differs")
    run = Run()
    run.properties = {
        "requests": served,
        "reissued": len(reissue),
        **workload_properties(q),
        "budget_saturated_share": saturated_share(model, benign + adversarial),
        "latency_samples": len(latencies),
        "latency_ms": {f"p{q:g}": percentile_ms(latencies, q) for q in (50, 90, 99, 99.9)} if latencies else {},
        "benign_pool": len(benign),
        "adversarial_pool": len(adversarial),
        "clients": 1,
    }
    if trace:
        run.per_layer = finish_trace(tracer, work, untraced_s, traced_s, len(reqs))
        return run
    run.metrics = {
        "setup_s": statistics.median(setup_times),
        "op_p50_ms": percentile_ms(latencies, 50),
        "op_p90_ms": percentile_ms(latencies, 90),
        "ops_per_s": served / (busy / 1e9),
        **quality(q),
        "attack_success_rate": success_rate,
        "peak_rss_mb": peak_rss_mb(),
    }
    return run


def cold_start_s() -> float:
    """Interpreter start plus package import, in a fresh process."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import stochdet.cli"], env=env, check=True, timeout=60)
    return time.perf_counter() - start


def stage_seconds(res: CliResult) -> dict[str, float]:
    """Wall time per `run` stage, from the time each '[pipeline] <stage>' line was written."""
    marks = [(ns, line.split()[1]) for ns, line in res.out.lines if line.startswith("[pipeline] ")]
    stages = {}
    for (t0, name), (t1, _) in zip(marks, marks[1:]):
        stages[name] = (t1 - t0) / 1e9
    missing = [s for s in layers.PIPELINE_STAGES if s not in stages]
    if missing:
        raise CheckFailed(f"`stochdet run` printed no stage marker for {missing}")
    return stages


def experiment(seed: int, seconds: float, trace: bool, tiny: bool, work: Path, tally: Tally) -> Run:
    """`stochdet run` of one fixed reduced config, repeated.

    The experiment's eval sets are small, so a seed-dependent detector seed
    would make its quality metrics noisy; every repetition runs the config
    as written, and each must reproduce the first one's artifacts.
    """
    cfg = scaled(EXPERIMENT_CONFIG, tiny)
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        conf = write_config(work / "config.json", cfg)
        setup_times.append(time.perf_counter() - start + cold_start_s())
    run_dir = work / "run"
    argv = ["run", "--config", str(conf), "--out", str(run_dir)]
    totals = new_counts()
    rep_ns: list[int] = []
    stage_times: dict[str, list[float]] = {}
    first_artifacts: dict[str, bytes] = {}

    def rep() -> CliResult:
        shutil.rmtree(run_dir, ignore_errors=True)
        res = cli_op(tally, argv)
        if res.rc == 0:
            rep_ns.append(res.end_ns - res.start_ns)
            for name, s in stage_seconds(res).items():
                stage_times.setdefault(name, []).append(s)
        return res

    def check() -> None:
        verify_ok(tally, run_dir)
        logs = read_verdict_logs(run_dir)
        check_verdict_logs(tally, run_dir, logs)
        artifacts = {p.name: p.read_bytes() for p in sorted(run_dir.iterdir())}
        if not first_artifacts:
            first_artifacts.update(artifacts)
            reissue_benign_ok(tally, run_dir, ["--config", str(conf), "--out", str(run_dir), *model_args(run_dir)],
                              cfg["base_seed"])
        else:
            tally.op(artifacts == first_artifacts, "a repeated `stochdet run` wrote different artifacts")
        count_logs(totals, logs)

    run = Run()
    if trace:
        t0 = time.perf_counter()
        rep()
        untraced_s = time.perf_counter() - t0
        check()
        untraced_stages = {k: v[0] for k, v in stage_times.items()}
        tracer = Tracer()
        t0 = time.perf_counter()

        def traced():
            shutil.rmtree(run_dir, ignore_errors=True)
            with tracer.span("op.run"):
                with tracer.span("cli.run") as parent:
                    res = cli_op(tally, argv)
            marks = [(ns, line.split()[1]) for ns, line in res.out.lines if line.startswith("[pipeline] ")]
            for (a, name), (b, _) in zip(marks, marks[1:]):
                tracer.add_span(f"pipeline.{name}", a, b, parent)

        _traced_phase(tracer, traced)
        traced_s = time.perf_counter() - t0
        run.per_layer = finish_trace(tracer, work, untraced_s, traced_s, 1)
        for name in layers.PIPELINE_STAGES:
            run.per_layer[f"pipeline.{name}.s"] = untraced_stages[name]
    else:
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            if rep().rc != 0:
                break
            check()
    if not rep_ns:
        raise CheckFailed("no `stochdet run` completed")
    _, success_rate = adversarial_sets(run_dir)
    model = load_model((run_dir / "model.bin").read_bytes())
    test = load_dataset_spec(cfg["dataset"], cfg["test_count"], cfg["image_size"], "test")
    cal, ev = cfg["calib_count"], cfg["benign_eval_count"]
    run.properties = {
        "runs": len(rep_ns),
        "run_ms": [ns / 1e6 for ns in rep_ns],
        **workload_properties(totals),
        "budget_saturated_share": saturated_share(model, test.images[cal : cal + ev]),
        "stage_median_s": {k: statistics.median(v) for k, v in stage_times.items()},
    }
    if trace:
        return run
    run.metrics = {
        "setup_s": statistics.median(setup_times),
        "op_p50_ms": percentile_ms(rep_ns, 50),
        "op_p90_ms": percentile_ms(rep_ns, 90),
        "ops_per_s": len(rep_ns) / (sum(rep_ns) / 1e9),
        **quality(totals),
        "attack_success_rate": success_rate,
        "peak_rss_mb": peak_rss_mb(),
    }
    return run


def finish_trace(tracer: Tracer, work: Path, untraced_s: float, traced_s: float, ops: int) -> dict[str, float]:
    tracer.write(work.parent.parent / "spans" / f"{work.name}.tsv")
    v = {name: 0.0 for name, _, _ in layers.METRICS}
    v.update(layers.derive(tracer))
    v["trace.ops"] = float(ops)
    v["trace.untraced_s"] = untraced_s
    v["trace.traced_s"] = traced_s
    v["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
    return v


WORKLOADS = {
    "detect-online": detect_online,
    "experiment": experiment,
}
