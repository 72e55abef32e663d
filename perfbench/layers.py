"""Which calls into each stochdet module are traced, and the per-layer
metrics derived from their spans.

Layers are the package modules. Every metric below is emitted on every
workload; a layer the measured phase does not call reads 0, which is the
"flat" prediction for that workload (see README.md).
"""

from __future__ import annotations

from tracing import Tracer

SATURATION_EPS = 2e-4  # a budget this close to sr_hi counts as saturated

NN_OPS = ("conv2d", "relu", "maxpool2d", "dense")
PIPELINE_STAGES = ("data", "train", "profile", "attack", "calibrate", "eval", "simulate", "report")
IO_FUNCTIONS = (
    ("stochdet.model", "load_model"),
    ("stochdet.model", "save_model"),
    ("stochdet.pipeline", "read_json_artifact"),
    ("stochdet.pipeline", "write_json_artifact"),
    ("stochdet.pipeline", "write_csv_artifact"),
    ("stochdet.attacks", "save_adversarial_set"),
    ("stochdet.attacks", "load_adversarial_set"),
    ("stochdet.attacks", "load_adversarial_set_with_meta"),
)


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


def _on_train(c, args, kwargs, result):
    c["train.samples"] += len(_arg(args, kwargs, 0, "dataset")) * _arg(args, kwargs, 2, "hyper").epochs


def _on_draw_plan(sr_hi: float):
    def hook(c, args, kwargs, plan):
        c["plans"] += 1
        c["plans.sparsity"] += plan.achieved_sparsity()
        c["plans.saturated"] += plan.max_rate >= sr_hi - SATURATION_EPS

    return hook


def _on_verdict(c, args, kwargs, verdict):
    c["noisy_passes"] += verdict.runs_used
    c[f"exit.{verdict.terminated_by}"] += 1


def _on_attack(c, args, kwargs, sample):
    cfg = _arg(args, kwargs, 2, "cfg")
    c["attack.steps"] += 1 if cfg.kind == "fgsm" else cfg.steps
    c["attack.successes"] += bool(sample.success)


def _on_simulate(c, args, kwargs, report):
    c["sim.sparse_cycles"] += report.sparse_cycles
    c["sim.stall_cycles"] += report.stall_cycles
    c["sim.idle_mac_slots"] += report.idle_mac_slots


def _on_synth(c, args, kwargs, dataset):
    c["synth.images"] += len(dataset)


def targets(sr_hi: float) -> list[tuple]:
    out = []
    for op in NN_OPS:
        out.append(("stochdet.nn", f"{op}_forward", f"nn.{op}_forward", None))
        out.append(("stochdet.nn", f"{op}_backward", f"nn.{op}_backward", None))
    out += [
        ("stochdet.nn", "softmax", "nn.softmax", None),
        ("stochdet.model", "Model.predict", "model.predict", None),
        ("stochdet.model", "Model.forward_trace", "model.forward_trace", None),
        ("stochdet.model", "Trace.backward", "model.backward", None),
        ("stochdet.model", "train", "model.train", _on_train),
        ("stochdet.model", "profile_thresholds", "model.profile_thresholds", None),
        ("stochdet.rng", "derive_seed", "rng.derive_seed", None),
        ("stochdet.rng", "substream", "rng.substream", None),
        ("stochdet.sparsify", "draw_plan", "sparsify.draw_plan", _on_draw_plan(sr_hi)),
        ("stochdet.sparsify", "noisy_forward", "sparsify.noisy_forward", None),
        ("stochdet.detector", "stochastic_inference", "detector.stochastic_inference", _on_verdict),
        ("stochdet.detector", "calibration_distances", "detector.calibration_distances", None),
        ("stochdet.detector", "l1_distance", "detector.l1_distance", None),
        ("stochdet.attacks", "run_attack", "attacks.run_attack", _on_attack),
        ("stochdet.accelsim", "simulate_model", "accelsim.simulate_model", _on_simulate),
        ("stochdet.accelsim", "mask_stream_trace", "accelsim.mask_stream_trace", None),
        ("stochdet.data", "synth_dataset", "data.synth_dataset", _on_synth),
        ("stochdet.pipeline", "load_dataset_spec", "cli.dataset_regen", None),
    ]
    out += [(mod, fn, f"io.{fn}", None) for mod, fn in IO_FUNCTIONS]
    return out


# (name, unit, better) of every per-layer metric, in output order
METRICS: list[tuple[str, str, str]] = []
for _op in NN_OPS:
    METRICS += [(f"nn.{_op}_forward.calls", "count", "lower"), (f"nn.{_op}_forward.us", "us", "lower")]
METRICS += [("nn.softmax.calls", "count", "lower"), ("nn.softmax.us", "us", "lower")]
for _op in NN_OPS:
    METRICS += [(f"nn.{_op}_backward.calls", "count", "lower"), (f"nn.{_op}_backward.us", "us", "lower")]
METRICS += [
    ("model.predict.calls", "count", "lower"),
    ("model.predict.us", "us", "lower"),
    ("model.forward_trace.calls", "count", "lower"),
    ("model.forward_trace.self_us", "us", "lower"),
    ("model.backward.calls", "count", "lower"),
    ("model.backward.self_us", "us", "lower"),
    ("model.train.samples_per_s", "1/s", "higher"),
    ("model.profile_thresholds.s", "s", "lower"),
    ("rng.derive_seed.calls", "count", "lower"),
    ("rng.derive_seed.us", "us", "lower"),
    ("rng.substream.calls", "count", "lower"),
    ("rng.substream.us", "us", "lower"),
    ("sparsify.draw_plan.calls", "count", "lower"),
    ("sparsify.draw_plan.us", "us", "lower"),
    ("sparsify.noisy_forward.calls", "count", "lower"),
    ("sparsify.noisy_forward.self_us", "us", "lower"),
    ("sparsify.achieved_sparsity", "share", "higher"),
    ("sparsify.budget_saturated_share", "share", "lower"),
    ("detector.stochastic_inference.calls", "count", "lower"),
    ("detector.stochastic_inference.us", "us", "lower"),
    ("detector.noisy_passes", "count", "lower"),
    ("detector.exit.greedy", "count", "higher"),
    ("detector.exit.average", "count", "lower"),
    ("detector.exit.cap", "count", "lower"),
    ("detector.calibration_distances.s", "s", "lower"),
    ("detector.l1_distance.us", "us", "lower"),
    ("attacks.run_attack.calls", "count", "lower"),
    ("attacks.run_attack.ms", "ms", "lower"),
    ("attacks.step_us", "us", "lower"),
    ("attacks.success_ratio", "share", "higher"),
    ("accelsim.simulate_model.calls", "count", "lower"),
    ("accelsim.simulate_model.ms", "ms", "lower"),
    ("accelsim.mask_stream_trace.calls", "count", "lower"),
    ("accelsim.mask_stream_trace.self_us", "us", "lower"),
    ("accelsim.host_ns_per_sim_cycle", "ns", "lower"),
    ("accelsim.sparse_cycles", "cycles", "lower"),
    ("accelsim.stall_cycles", "cycles", "lower"),
    ("accelsim.idle_mac_slots", "count", "lower"),
    ("data.synth_dataset.s", "s", "lower"),
    ("data.images_per_s", "1/s", "higher"),
]
METRICS += [(f"pipeline.{s}.s", "s", "lower") for s in PIPELINE_STAGES]
METRICS += [("cli.artifact_io.s", "s", "lower"), ("cli.dataset_regen.s", "s", "lower")]
METRICS += [
    ("trace.ops", "count", "higher"),
    ("trace.spans", "count", "lower"),
    ("trace.untraced_s", "s", "lower"),
    ("trace.traced_s", "s", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive(tracer: Tracer) -> dict[str, float]:
    """Per-layer values from the spans and counters of one traced phase.

    Times are totals over the phase; ``.us``/``.ms``/``.s`` are inclusive,
    ``.self_us`` excludes time in traced callees.
    """
    tot = tracer.totals()
    c = tracer.counters

    def calls(name):
        return float(tot.get(name, {}).get("calls", 0))

    def ns(name, key="ns"):
        return float(tot.get(name, {}).get(key, 0))

    v: dict[str, float] = {}
    for op in NN_OPS:
        for d in ("forward", "backward"):
            v[f"nn.{op}_{d}.calls"] = calls(f"nn.{op}_{d}")
            v[f"nn.{op}_{d}.us"] = ns(f"nn.{op}_{d}") / 1e3
    v["nn.softmax.calls"] = calls("nn.softmax")
    v["nn.softmax.us"] = ns("nn.softmax") / 1e3
    v["model.predict.calls"] = calls("model.predict")
    v["model.predict.us"] = ns("model.predict") / 1e3
    for name in ("forward_trace", "backward"):
        v[f"model.{name}.calls"] = calls(f"model.{name}")
        v[f"model.{name}.self_us"] = ns(f"model.{name}", "self_ns") / 1e3
    v["model.train.samples_per_s"] = _ratio(c["train.samples"], ns("model.train") / 1e9)
    v["model.profile_thresholds.s"] = ns("model.profile_thresholds") / 1e9
    for name in ("derive_seed", "substream"):
        v[f"rng.{name}.calls"] = calls(f"rng.{name}")
        v[f"rng.{name}.us"] = ns(f"rng.{name}") / 1e3
    v["sparsify.draw_plan.calls"] = calls("sparsify.draw_plan")
    v["sparsify.draw_plan.us"] = ns("sparsify.draw_plan") / 1e3
    v["sparsify.noisy_forward.calls"] = calls("sparsify.noisy_forward")
    v["sparsify.noisy_forward.self_us"] = ns("sparsify.noisy_forward", "self_ns") / 1e3
    v["sparsify.achieved_sparsity"] = _ratio(c["plans.sparsity"], c["plans"])
    v["sparsify.budget_saturated_share"] = _ratio(c["plans.saturated"], c["plans"])
    v["detector.stochastic_inference.calls"] = calls("detector.stochastic_inference")
    v["detector.stochastic_inference.us"] = ns("detector.stochastic_inference") / 1e3
    v["detector.noisy_passes"] = float(c["noisy_passes"])
    for reason in ("greedy", "average", "cap"):
        v[f"detector.exit.{reason}"] = float(c[f"exit.{reason}"])
    v["detector.calibration_distances.s"] = ns("detector.calibration_distances") / 1e9
    v["detector.l1_distance.us"] = ns("detector.l1_distance") / 1e3
    v["attacks.run_attack.calls"] = calls("attacks.run_attack")
    v["attacks.run_attack.ms"] = ns("attacks.run_attack") / 1e6
    v["attacks.step_us"] = _ratio(ns("attacks.run_attack") / 1e3, c["attack.steps"])
    v["attacks.success_ratio"] = _ratio(c["attack.successes"], calls("attacks.run_attack"))
    v["accelsim.simulate_model.calls"] = calls("accelsim.simulate_model")
    v["accelsim.simulate_model.ms"] = ns("accelsim.simulate_model") / 1e6
    v["accelsim.mask_stream_trace.calls"] = calls("accelsim.mask_stream_trace")
    v["accelsim.mask_stream_trace.self_us"] = ns("accelsim.mask_stream_trace", "self_ns") / 1e3
    v["accelsim.host_ns_per_sim_cycle"] = _ratio(ns("accelsim.simulate_model"), c["sim.sparse_cycles"])
    v["accelsim.sparse_cycles"] = float(c["sim.sparse_cycles"])
    v["accelsim.stall_cycles"] = float(c["sim.stall_cycles"])
    v["accelsim.idle_mac_slots"] = float(c["sim.idle_mac_slots"])
    v["data.synth_dataset.s"] = ns("data.synth_dataset") / 1e9
    v["data.images_per_s"] = _ratio(c["synth.images"], ns("data.synth_dataset") / 1e9)
    # IO spans nest only inside other IO spans, so their self times do not overlap
    v["cli.artifact_io.s"] = sum(ns(f"io.{fn}", "self_ns") for _, fn in IO_FUNCTIONS) / 1e9
    v["cli.dataset_regen.s"] = ns("cli.dataset_regen") / 1e9
    v["trace.spans"] = float(len(tracer.span_start))
    return v
