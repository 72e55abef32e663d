"""CLI subcommands, exit codes, artifact provenance, and determinism."""

import argparse
import json
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from stochdet import pipeline
from stochdet.cli import _load_config, build_parser, main
from stochdet.data import load_idx_dataset, serialize_idx
from stochdet.detector import l1_distance
from stochdet.model import TrainConfig
from stochdet.pipeline import (
    DetectorSettings,
    ExperimentConfig,
    HISTOGRAM_BINS,
    RunState,
    artifact_kind,
    artifact_payload,
    config_hash,
    read_json_artifact,
    run_pipeline,
    stage_simulate,
    verify_artifact,
    write_json_artifact,
)
from stochdet.sparsify import noisy_forward


def tiny_config(out_dir: Path, /, **overrides) -> dict:
    cfg = {
        "base_seed": 7,
        "dataset": "synth:7",
        "image_size": 18,
        "train_count": 400,
        "test_count": 300,
        "out_dir": str(out_dir),
        "train": {"lr": 0.15, "epochs": 2, "seed": 7, "batch_size": 16},
        "detector": {"max_runs": 5, "target_fpr": 0.05},
        "calib_count": 120,
        "benign_eval_count": 60,
        "attack_count": 10,
        "simulate_count": 5,
        "attacks": [
            {"kind": "cw_l2", "target_mode": "next", "k": 0.0, "steps": 60},
            {"kind": "defense_aware", "target_mode": "next", "k": 0.0, "beta": 1e-1, "steps": 60},
        ],
    }
    cfg.update(overrides)
    return cfg


def write_config(tmp_path: Path, **overrides) -> Path:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(tiny_config(tmp_path / "run", **overrides)))
    return path


def artifact_payloads(run_dir: Path) -> dict[str, bytes]:
    """Every artifact's payload bytes, provenance left out, by file name."""
    return {p.name: artifact_payload(p)[1] for p in sorted(run_dir.iterdir()) if artifact_kind(p.name)}


def payload_lines(path: Path) -> list[str]:
    """The lines of a text artifact's payload: a CSV's rows, a verdict log's records."""
    return artifact_payload(path)[1].decode().splitlines()


@pytest.fixture(scope="module")
def pipeline_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline")
    cfg = ExperimentConfig.from_json(tiny_config(out / "run"))
    result = run_pipeline(cfg, log=lambda *_: None)
    return cfg, result


def test_run_produces_all_artifacts(pipeline_run):
    cfg, result = pipeline_run
    out = Path(cfg.out_dir)
    expected = [
        "model.bin",
        "train_report.json",
        "threshold_table.json",
        "thresholds.json",
        "metrics.json",
        "metrics.csv",
        "k_sweep.csv",
        "beta_sweep.csv",
        "cycles.json",
        "cycles.csv",
        "l1_histograms.json",
        "verdicts_benign.jsonl",
    ]
    for name in expected:
        assert (out / name).exists(), name


def test_artifacts_embed_config_hash(pipeline_run):
    cfg, _ = pipeline_run
    out = Path(cfg.out_dir)
    expected_hash = config_hash(cfg)
    prov = artifact_payload(out / "metrics.json")[0]
    assert prov["config_hash"] == expected_hash
    assert prov["base_seed"] == cfg.base_seed
    assert "tool_version" in prov
    assert artifact_payload(out / "metrics.csv")[0]["config_hash"] == expected_hash
    assert artifact_payload(out / "model.bin")[0]["config_hash"] == expected_hash


def test_verify_passes_on_untampered_run(pipeline_run, capsys):
    cfg, _ = pipeline_run
    out = Path(cfg.out_dir)
    for artifact in out.iterdir():
        ok, detail = verify_artifact(artifact)
        assert ok, f"{artifact}: {detail}"
    assert main(["verify", str(out)]) == 0
    status = {Path(line.split()[1]).name: line.split()[0] for line in capsys.readouterr().out.splitlines()}
    assert status["model.bin"] == status["adv_cw_l2_next_k0.bin"] == status["metrics.csv"] == "ok"
    assert set(status.values()) == {"ok"}, status


def test_verify_flags_tampering(pipeline_run, tmp_path):
    run_dir = Path(pipeline_run[0].out_dir)
    (tmp_path / "metrics.csv").write_text((run_dir / "metrics.csv").read_text().replace("cw_l2", "cw_l3", 1))
    model = bytearray((run_dir / "model.bin").read_bytes())
    model[-1] ^= 1  # one bit of the last weight
    (tmp_path / "model.bin").write_bytes(model)
    for tampered in (tmp_path / "metrics.csv", tmp_path / "model.bin"):
        ok, detail = verify_artifact(tampered)
        assert not ok and "mismatch" in detail, tampered.name
        assert main(["verify", str(tampered)]) == 3


# each bad file carries an artifact's name, since verify recognises artifacts by name alone
@pytest.mark.parametrize(
    "name, content",
    [
        ("verdicts_x.jsonl", ""),
        ("metrics.json", "[1, 2]"),
        ("metrics.json", '{"provenance": "x", "payload": {}}'),
        ("metrics.json", '{"provenance": {"payload_sha256": 5}, "payload": {}}'),
        ("metrics.csv", "# base_seed=7\nattack,kind\ncw_l2_next_k0,cw_l2\n"),
        ("model.bin", lambda run: (run / "model.bin").read_bytes()[:-8]),
        ("adv_x.bin", lambda run: b"SDMODEL2" + (run / "model.bin").read_bytes()[8:]),
        ("metrics.json", lambda run: json.dumps({"payload": read_json_artifact(run / "metrics.json")[1]}).encode()),
    ],
    ids=[
        "empty-jsonl", "list-root", "non-dict-provenance", "non-string-hash", "csv-without-hash",
        "truncated-container", "bad-magic-container", "stripped-provenance",
    ],
)
def test_verify_flags_unreadable_provenance_and_goes_on(pipeline_run, tmp_path, capsys, name, content):
    run_dir = Path(pipeline_run[0].out_dir)
    bad, good = tmp_path / "a" / name, tmp_path / "b" / "metrics.csv"  # apart, so that two names never collide
    bad.parent.mkdir()
    bad.write_bytes(content(run_dir) if callable(content) else content.encode())
    good.parent.mkdir()
    shutil.copy(run_dir / "metrics.csv", good)  # checked after the bad file
    (tmp_path / "c_notes.txt").write_text("not an artifact")
    ok, detail = verify_artifact(bad)
    assert not ok and "unreadable provenance" in detail
    assert main(["verify", str(tmp_path)]) == 3
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("TAMPERED") and str(bad) in out[0] and "unreadable provenance" in out[0]
    assert out[1].startswith("ok") and str(good) in out[1]
    assert out[2].startswith("skipped") and "c_notes.txt" in out[2] and "not an artifact" in out[2]


def test_verify_skips_json_files_a_run_does_not_write(pipeline_run, tmp_path, capsys):
    """A copy of the config, or notes, in a run directory are not artifacts, whatever their suffix."""
    out = tmp_path / "run"
    shutil.copytree(Path(pipeline_run[0].out_dir), out)
    write_config(out)
    (out / "notes.json").write_text('{"note": "not an artifact"}')
    assert main(["verify", str(out)]) == 0
    status = {Path(line.split()[1]).name: line.split()[0] for line in capsys.readouterr().out.splitlines()}
    assert status.pop("config.json") == status.pop("notes.json") == "skipped"
    assert set(status.values()) == {"ok"}, status


@pytest.mark.parametrize("name", ["out_dir", "model_path"])
def test_a_non_string_path_field_is_a_config_error(tmp_path, capsys, name):
    cfg_path = write_config(tmp_path, **{name: 5})
    assert main(["profile", "--config", str(cfg_path)]) == 2
    assert name in capsys.readouterr().err


def test_histogram_bins_sum_to_sample_count(pipeline_run):
    cfg, _ = pipeline_run
    payload = read_json_artifact(Path(cfg.out_dir) / "l1_histograms.json")[1]
    assert len(payload["bin_edges"]) == len(HISTOGRAM_BINS)
    for name, entry in payload["sets"].items():
        assert sum(entry["counts"]) == entry["count"], name


def first_passes(run_dir: Path, name: str) -> np.ndarray:
    return np.array([json.loads(line)["l1_history"][0] for line in payload_lines(run_dir / f"verdicts_{name}.jsonl")])


def test_histograms_are_the_verdicts_first_passes(pipeline_run):
    cfg, _ = pipeline_run
    out = Path(cfg.out_dir)
    sets = read_json_artifact(out / "l1_histograms.json")[1]["sets"]
    logged = {p.stem.removeprefix("verdicts_") for p in out.glob("verdicts_*.jsonl")}
    assert set(sets) == {name for name in logged if first_passes(out, name).size}
    for name, entry in sets.items():
        d = first_passes(out, name)
        assert entry == {
            "count": d.size,
            "mean": float(d.mean()),
            "std": float(d.std()),
            "counts": np.histogram(d, bins=HISTOGRAM_BINS)[0].tolist(),
        }, name


def test_simulated_plans_are_the_detectors_first_passes(pipeline_run, tmp_path, monkeypatch):
    cfg, result = pipeline_run
    plans, simulate = [], pipeline.simulate_model

    def recording(model, plan, acfg):
        plans.append(plan)
        return simulate(model, plan, acfg)

    monkeypatch.setattr(pipeline, "simulate_model", recording)
    state = RunState(replace(cfg, out_dir=str(tmp_path)))
    for name in ("model", "table", "benign_eval"):
        state[name] = result[name]
    stage_simulate(state)
    assert len(plans) == cfg.simulate_count
    logged = first_passes(Path(cfg.out_dir), "benign")
    for i, (x, plan) in enumerate(zip(result["benign_eval"], plans)):
        d = l1_distance(noisy_forward(result["model"], plan, x), result["model"].predict(x))
        assert d == logged[i], i


def test_report_reads_only_metrics_and_cycles(pipeline_run, tmp_path, capsys):
    run_dir, out = Path(pipeline_run[0].out_dir), tmp_path / "copy"
    shutil.copytree(run_dir, out)
    for path in [*out.glob("*.csv"), *out.glob("*.bin")]:
        path.unlink()
    cfg_path = write_config(tmp_path)
    assert main(["report", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert artifact_payloads(out) == {n: p for n, p in artifact_payloads(run_dir).items() if not n.endswith(".bin")}
    for extra in (["--model", str(run_dir / "model.bin")], ["--base-seed", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(["report", "--config", str(cfg_path), "--out", str(out), *extra])
        assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize("content", ["{}", "not json"], ids=["empty-object", "not-json"])
@pytest.mark.parametrize(
    "command,corrupt",
    [
        ("calibrate", "table"),
        ("eval", "thresholds"),
        ("detect", "adversarial-set"),
        ("report", "metrics"),
        ("report", "cycles"),
    ],
)
def test_corrupt_table_or_thresholds_is_a_config_error(pipeline_run, tmp_path, capsys, command, corrupt, content):
    run_dir, out = Path(pipeline_run[0].out_dir), tmp_path / "out"
    bad = tmp_path / "corrupt.json"
    given = {"model": run_dir / "model.bin", "table": run_dir / "threshold_table.json"}
    if command in ("eval", "detect"):
        given["thresholds"] = run_dir / "thresholds.json"
    if command == "report":  # report reads metrics.json and cycles.json from --out
        given, bad = {}, out / f"{corrupt}.json"
        shutil.copytree(run_dir, out)
    else:
        given[corrupt] = bad
    bad.write_text(content)
    argv = [command, "--config", str(write_config(tmp_path)), "--out", str(out)]
    argv += [arg for name, path in given.items() for arg in (f"--{name}", str(path))]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(bad) in err


@pytest.mark.parametrize("command", ["eval", "report"])
def test_a_missing_run_file_names_itself_and_the_stage_that_writes_it(pipeline_run, tmp_path, capsys, command):
    cfg = pipeline_run[0]
    run_dir, out = Path(cfg.out_dir), tmp_path / "empty"
    argv = [command, "--config", str(write_config(tmp_path)), "--out", str(out)]
    if command == "eval":
        argv += ["--model", str(run_dir / "model.bin"), "--table", str(run_dir / "threshold_table.json")]
        argv += ["--thresholds", str(run_dir / "thresholds.json")]
    missing, stage = {"eval": (f"adv_{cfg.attacks[0].name}.bin", "attack"), "report": ("metrics.json", "eval")}[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"no {missing} in {out}" in err and f"run `{stage}` first" in err


@pytest.mark.parametrize(
    "name,payload", [("metrics", [1]), ("cycles", {"first_report": {}})], ids=["metrics-list", "cycles-no-per-layer"]
)
def test_report_refuses_a_wrong_shaped_payload(pipeline_run, tmp_path, capsys, name, payload):
    """A readable envelope around a payload report cannot read is a config error that names the file."""
    out = tmp_path / "out"
    shutil.copytree(Path(pipeline_run[0].out_dir), out)
    bad = out / f"{name}.json"
    write_json_artifact(bad, payload, pipeline_run[0])
    assert main(["report", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(bad) in err


@pytest.mark.parametrize("mismatch", ["fingerprint", "rate-grid", "grid-columns", "missing-layer"])
def test_table_that_does_not_fit_the_model_is_a_config_error(pipeline_run, tmp_path, capsys, mismatch):
    run_dir = Path(pipeline_run[0].out_dir)
    table = read_json_artifact(run_dir / "threshold_table.json")[1]
    if mismatch == "fingerprint":
        table["model_fingerprint"] = "0" * 64
    elif mismatch == "rate-grid":
        table["rate_grid"] = [r / 2 for r in table["rate_grid"]]
    elif mismatch == "grid-columns":
        table["thresholds"] = {k: [row[:16] for row in v] for k, v in table["thresholds"].items()}
    else:
        del table["thresholds"]["3"]
    write_json_artifact(tmp_path / "table.json", table, pipeline_run[0])
    argv = ["calibrate", "--config", str(write_config(tmp_path)), "--out", str(tmp_path / "out")]
    argv += ["--model", str(run_dir / "model.bin"), "--table", str(tmp_path / "table.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "table.json" in err


@pytest.mark.parametrize(
    "edit", [lambda p: p.update(model_fingerprint="0" * 64), lambda p: p.pop("model_fingerprint")],
    ids=["another-model", "no-fingerprint"],
)
def test_thresholds_for_another_model_are_a_config_error(pipeline_run, tmp_path, capsys, monkeypatch, edit):
    """detect refuses thresholds calibrated for another model, or naming none, before it computes a verdict."""
    run_dir = Path(pipeline_run[0].out_dir)
    payload = read_json_artifact(run_dir / "thresholds.json")[1]
    edit(payload)
    bad = tmp_path / "thresholds.json"
    write_json_artifact(bad, payload, pipeline_run[0])
    monkeypatch.setattr("stochdet.cli.detect_set", lambda *_: pytest.fail("detect computed verdicts"))
    argv = ["detect", "--config", str(write_config(tmp_path)), "--out", str(tmp_path / "out")]
    argv += ["--model", str(run_dir / "model.bin"), "--table", str(run_dir / "threshold_table.json")]
    assert main([*argv, "--thresholds", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(bad) in err and "not made for this model" in err


@pytest.mark.parametrize("command", ["eval", "detect"])
def test_truncated_adversarial_set_is_a_config_error(pipeline_run, tmp_path, capsys, command):
    cfg = pipeline_run[0]
    run_dir, out = Path(cfg.out_dir), tmp_path / "out"
    out.mkdir()
    for spec in cfg.attacks:
        shutil.copy(run_dir / f"adv_{spec.name}.bin", out)
    bad = out / f"adv_{cfg.attacks[0].name}.bin"
    bad.write_bytes(bad.read_bytes()[:100])
    argv = [command, "--config", str(write_config(tmp_path)), "--out", str(out), "--model", str(run_dir / "model.bin")]
    argv += ["--table", str(run_dir / "threshold_table.json"), "--thresholds", str(run_dir / "thresholds.json")]
    if command == "detect":
        argv += ["--adversarial-set", str(bad)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err and bad.name in err


def test_thresholds_missing_a_field_is_a_config_error(pipeline_run, tmp_path, capsys):
    run_dir = Path(pipeline_run[0].out_dir)
    payload = read_json_artifact(run_dir / "thresholds.json")[1]
    del payload["thresholds"]["t2_avg"]
    bad = tmp_path / "thresholds.json"
    write_json_artifact(bad, payload, pipeline_run[0])
    argv = ["detect", "--config", str(write_config(tmp_path)), "--out", str(tmp_path / "out")]
    argv += ["--model", str(run_dir / "model.bin"), "--table", str(run_dir / "threshold_table.json")]
    assert main([*argv, "--thresholds", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and str(bad) in err and "t2_avg" in err


@pytest.mark.parametrize("name", ["a/b", "../x"])
def test_detect_name_with_a_path_separator_is_a_config_error(pipeline_run, tmp_path, capsys, monkeypatch, name):
    """--name is refused before the model loads, so no verdict is computed and nothing is written."""
    run_dir, out = Path(pipeline_run[0].out_dir), tmp_path / "out"
    monkeypatch.setattr(pipeline, "load_model", lambda *_: pytest.fail("detect loaded the model"))
    argv = ["detect", "--config", str(write_config(tmp_path)), "--out", str(out), "--name", name]
    argv += ["--model", str(run_dir / "model.bin"), "--table", str(run_dir / "threshold_table.json")]
    argv += ["--thresholds", str(run_dir / "thresholds.json")]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "--name" in err
    assert not out.exists()


def test_metrics_csv_schema_and_order(pipeline_run):
    cfg, _ = pipeline_run
    lines = payload_lines(Path(cfg.out_dir) / "metrics.csv")
    header = lines[0].split(",")
    assert header[:3] == ["attack", "kind", "param"]
    kinds = [l.split(",")[1] for l in lines[1:]]
    assert kinds == sorted(kinds)  # stable order: sorted by kind then param


def test_beta_sweep_columns(pipeline_run):
    cfg, _ = pipeline_run
    lines = payload_lines(Path(cfg.out_dir) / "beta_sweep.csv")
    assert lines[0].split(",") == [
        "beta",
        "mean_confidence",
        "mean_l1_to_target",
        "mean_l2_distortion",
        "detection_rate",
    ]
    assert len(lines) == 2  # one configured beta


def test_rerun_bitwise_identical_metrics(tmp_path):
    cfg_a = ExperimentConfig.from_json(tiny_config(tmp_path / "a"))
    cfg_b = ExperimentConfig.from_json(tiny_config(tmp_path / "b"))
    run_pipeline(cfg_a, log=lambda *_: None)
    run_pipeline(cfg_b, log=lambda *_: None)
    for name in ("metrics.csv", "k_sweep.csv", "beta_sweep.csv", "cycles.csv"):
        # identical configs except out_dir, which only the provenance records
        assert artifact_payload(tmp_path / "a" / name)[1] == artifact_payload(tmp_path / "b" / name)[1], name


def test_missing_model_path_is_config_error(tmp_path, capsys):
    cfg_path = write_config(tmp_path)
    code = main(["profile", "--config", str(cfg_path), "--model", str(tmp_path / "nope.bin")])
    assert code == 2
    assert "'model'" in capsys.readouterr().err


def test_invalid_config_json_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["train", "--config", str(bad)]) == 2
    assert "config" in capsys.readouterr().err


def test_unknown_config_field_rejected(tmp_path, capsys):
    path = tmp_path / "config.json"
    cfg = tiny_config(tmp_path / "run")
    cfg["mystery_knob"] = 3
    path.write_text(json.dumps(cfg))
    assert main(["train", "--config", str(path)]) == 2
    assert "mystery_knob" in capsys.readouterr().err


def test_partial_sections_keep_experiment_defaults():
    cfg = ExperimentConfig.from_json({"detector": {"max_runs": 3}})
    assert cfg.detector.max_runs == 3 and cfg.detector.target_fpr == 0.05
    cfg = ExperimentConfig.from_json({"train": {"epochs": 2}})
    assert cfg.train.epochs == 2 and cfg.train.lr == 0.15


# each case, in order (its id is override<index>), and the field its message must name
BAD_CONFIGS = [
    ({"attacks": [{"kind": "pgd"}]}, "attacks[0].kind"),
    ({"attacks": [{"kind": "cw_l2", "seed": 3}]}, "attacks[0].seed"),
    ({"detector": {"max_run": 3}}, "detector.max_run"),
    ({"noise": {"mode": "activation"}}, "noise.mode"),
    ({"train": {"batch_size": 0}}, "train.batch_size"),
    ({"train": {"epochs": "3"}}, "train.epochs"),
    ({"benign_eval_count": 0}, "benign_eval_count"),
    ({"calib_count": 3}, "calib_count"),
    ({"simulate_count": 0}, "simulate_count"),
    ({"simulate_count": 61}, "simulate_count"),
    ({"calib_count": 250}, "calib_count"),
    ({"train_count": 4.5}, "train_count"),
    ({"detector": {"calibration_passes": 2.5}}, "detector.calibration_passes"),
    ({"noise": {"sr_lo": 0.9, "sr_hi": 0.2}}, "noise.sr_lo"),
    ([], "JSON object"),
    ([["base_seed", 3]], "JSON object"),
    ({"attacks": [{"kind": "fgsm", "eps": 1.5}]}, "attacks[0].eps"),
    ({"attacks": [{"kind": "cw_l2", "steps": 2.5}]}, "attacks[0].steps"),
    ({"attacks": [{"kind": "cw_l2", "step_size": 0.0}]}, "attacks[0].step_size"),
    ({"accelerator": {"group_size": 2.5}}, "accelerator.group_size"),
    ({"accelerator": {"lookahead": 1.5}}, "accelerator.lookahead"),
    ({"kernel": 2.5}, "kernel"),
    ({"image_size": 0}, "image_size"),
    ({"arch_channels": [0]}, "arch_channels"),
    ({"dataset": "synth:x"}, "dataset"),
    ({"base_seed": 1.5}, "base_seed"),
    ({"base_seed": "7"}, "base_seed"),
    ({"arch_channels": []}, "arch_channels"),
    ({"kernel": 9}, "kernel"),
    ({"image_size": 10}, "image_size"),
    ({"dataset": "idx:images.idx"}, "dataset"),
    ({"train": {"epochs": True}}, "train.epochs"),
    ({"train": {"seed": True}}, "train.seed"),
    ({"train": {"batch_size": True}}, "train.batch_size"),
    ({"detector": {"max_runs": True}}, "detector.max_runs"),
    ({"detector": {"calibration_passes": True}}, "detector.calibration_passes"),
    ({"accelerator": {"group_size": True}}, "accelerator.group_size"),
    ({"attacks": [{"kind": "cw_l2", "steps": True}]}, "attacks[0].steps"),
    ({"noise": {"gamma": True}}, "noise.gamma"),
    ({"noise": {"gamma": float("nan")}}, "noise.gamma"),
    ({"noise": {"sr_lo": False}}, "noise.sr_lo"),
    ({"train": {"lr": True}}, "train.lr"),
    ({"train": {"lr": float("inf")}}, "train.lr"),
    ({"train": {"weight_decay": True}}, "train.weight_decay"),
    ({"attacks": [{"kind": "cw_l2", "k": float("nan")}]}, "attacks[0].k"),
    ({"attacks": [{"kind": "cw_l2", "c": True}]}, "attacks[0].c"),
    ({"attacks": [{"kind": "cw_l2", "step_size": float("inf")}]}, "attacks[0].step_size"),
    ({"attacks": [{"kind": "defense_aware", "beta": float("nan")}]}, "attacks[0].beta"),
    ({"attacks": [{"kind": "fgsm", "eps": False}]}, "attacks[0].eps"),
    ({"detector": {"target_fpr": True}}, "detector.target_fpr"),
    ({"out_dir": 5}, "out_dir"),
    ({"model_path": 5}, "model_path"),
    ({"arch_channels": [8, True]}, "arch_channels"),
    ({"attacks": [{"kind": 3}]}, "attacks[0].kind"),
]


@pytest.mark.parametrize("override, field", BAD_CONFIGS, ids=[f"override{i}" for i in range(len(BAD_CONFIGS))])
def test_bad_section_fails_before_any_stage(tmp_path, capsys, override, field):
    if isinstance(override, dict):
        cfg_path = write_config(tmp_path, **override)
    else:  # a config whose root is not a JSON object
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(override))
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "run")]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and field in err
    assert not (tmp_path / "run" / "model.bin").exists()


def test_readme_config_block_states_the_defaults():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("```json\n", 1)[1].split("```", 1)[0]
    assert ExperimentConfig.from_json(json.loads(block)) == ExperimentConfig(out_dir="runs/demo")
    assert TrainConfig() == ExperimentConfig().train


def test_readme_import_block_names_only_exports():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    library_use = readme.split("## Library use", 1)[1].split("```python\n", 1)[1]
    statement = library_use[library_use.index("from stochdet import (") :].split(")", 1)[0] + ")"
    exec(statement, {})  # an ImportError names the export README promises and the package lost


def test_run_without_a_config_file_uses_the_defaults(tmp_path, monkeypatch):
    monkeypatch.delenv("STOCHDET_OUT_DIR", raising=False)
    (tmp_path / "empty.json").write_text("{}")
    (tmp_path / "no_attacks.json").write_text(json.dumps({"base_seed": 7, "train": {"epochs": 16}}))
    configs = [
        _load_config(build_parser().parse_args(["run", *extra]))
        for extra in ([], ["--config", str(tmp_path / "empty.json")], ["--config", str(tmp_path / "no_attacks.json")])
    ]
    assert configs[0] == configs[1] == configs[2] == ExperimentConfig()
    assert len(configs[0].attacks) == 6


def test_train_command_refuses_a_config_model(tmp_path, capsys):
    cfg_path = write_config(tmp_path, model_path=str(tmp_path / "elsewhere.bin"))
    assert main(["train", "--config", str(cfg_path)]) == 2
    assert "model_path" in capsys.readouterr().err
    assert not (tmp_path / "run" / "train_report.json").exists()


def test_cli_stage_chain(tmp_path, capsys, pipeline_run):
    """Every stage as its own subcommand, consuming the previous artifacts."""
    cfg_path = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg_path)]) == 0
    model = out / "model.bin"
    assert model.exists()
    assert main(["profile", "--config", str(cfg_path), "--model", str(model)]) == 0
    table = out / "threshold_table.json"
    assert main(["calibrate", "--config", str(cfg_path), "--model", str(model), "--table", str(table)]) == 0
    thresholds = out / "thresholds.json"
    assert main(["attack", "--config", str(cfg_path), "--model", str(model)]) == 0
    assert (out / "adv_cw_l2_next_k0.bin").exists()
    assert main(
        ["simulate", "--config", str(cfg_path), "--model", str(model), "--table", str(table)]
    ) == 0
    assert main(
        [
            "detect",
            "--config",
            str(cfg_path),
            "--model",
            str(model),
            "--table",
            str(table),
            "--thresholds",
            str(thresholds),
        ]
    ) == 0
    assert (out / "verdicts_benign.jsonl").exists()
    assert main(
        [
            "eval",
            "--config",
            str(cfg_path),
            "--model",
            str(model),
            "--table",
            str(table),
            "--thresholds",
            str(thresholds),
        ]
    ) == 0
    assert (out / "metrics.json").exists()
    assert main(["simulate", "--config", str(cfg_path), "--model", str(model), "--table", str(table)]) == 0
    assert main(["report", "--config", str(cfg_path)]) == 0
    assert (out / "metrics.csv").exists()
    assert (out / "l1_histograms.json").exists()
    capsys.readouterr()
    # the subcommands run the same stage code as `run`, so every payload matches
    chain, run = artifact_payloads(out), artifact_payloads(Path(pipeline_run[0].out_dir))
    assert sorted(chain) == sorted(run)
    for name in run:
        assert chain[name] == run[name], name


def write_idx_pair(directory, count: int, size: int) -> str:
    """An IDX dataset of `count` distinct size x size images; returns its spec."""
    images = np.stack([np.full((size, size), i / 100) for i in range(count)])
    (directory / "images.idx").write_bytes(serialize_idx(images))
    (directory / "labels.idx").write_bytes(serialize_idx(np.arange(count) % 4))
    return f"idx:{directory / 'images.idx'}:{directory / 'labels.idx'}"


def test_idx_splits_are_disjoint_slices_in_order(tmp_path):
    spec = write_idx_pair(tmp_path, 50, 18)
    cfg = ExperimentConfig(
        dataset=spec, train_count=10, test_count=5, calib_count=2, benign_eval_count=2, simulate_count=1,
        detector=DetectorSettings(calibration_passes=50), out_dir=str(tmp_path / "run"),
    )
    state = RunState(cfg)
    train, test = state["train_set"], state["test_set"]
    full = load_idx_dataset((tmp_path / "images.idx").read_bytes(), (tmp_path / "labels.idx").read_bytes())
    assert (len(train), len(test)) == (10, 5)
    assert all(np.array_equal(a, b) for a, b in zip(train.images + test.images, full.images[:15]))
    assert train.labels + test.labels == full.labels[:15]
    assert not {img.tobytes() for img in train.images} & {img.tobytes() for img in test.images}


# image_size 22 fits the architecture, so the mismatch with the files' 18x18 images is what fails
@pytest.mark.parametrize("override", [{"train_count": 46}, {"image_size": 22}], ids=["too-few-images", "image-size"])
def test_idx_dataset_that_cannot_fill_the_splits_fails_before_training(tmp_path, capsys, override):
    spec = write_idx_pair(tmp_path, 50, 18)
    sizes = {"train_count": 10, "test_count": 5, "calib_count": 2, "benign_eval_count": 2, "simulate_count": 1}
    cfg_path = write_config(tmp_path, dataset=spec, detector={"calibration_passes": 50}, **{**sizes, **override})
    assert main(["train", "--config", str(cfg_path)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "run" / "model.bin").exists()


def test_corrupt_idx_file_is_a_config_error(tmp_path, capsys):
    spec = write_idx_pair(tmp_path, 50, 18)
    # an 8-byte image header whose rank byte claims 3 extents
    (tmp_path / "images.idx").write_bytes(bytes([0, 0, 0x08, 3]) + (50).to_bytes(4, "big"))
    assert main(["train", "--config", str(write_config(tmp_path, dataset=spec))]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "images.idx" in err
    assert not (tmp_path / "run" / "model.bin").exists()


def test_out_dir_env_override(tmp_path, monkeypatch):
    cfg_path = write_config(tmp_path)
    env_out = tmp_path / "env_out"
    monkeypatch.setenv("STOCHDET_OUT_DIR", str(env_out))
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert (env_out / "model.bin").exists()


def test_each_subcommand_takes_only_paths():
    """The config file sets every experiment value; only detect's --base-seed re-rolls the noise."""
    paths = {"--config", "--out"}
    expected = {
        "run": paths | {"--model"},
        "train": paths,
        "profile": paths | {"--model"},
        "attack": paths | {"--model"},
        "calibrate": paths | {"--model", "--table"},
        "detect": paths | {"--model", "--table", "--thresholds", "--adversarial-set", "--base-seed", "--name"},
        "eval": paths | {"--model", "--table", "--thresholds"},
        "simulate": paths | {"--model", "--table"},
        "report": paths,
        "verify": set(),
    }
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {name: {o for a in p._actions for o in a.option_strings} for name, p in sub.choices.items()}
    assert options == {name: flags | {"-h", "--help"} for name, flags in expected.items()}


@pytest.mark.parametrize(
    "argv", [["train", "--sr-lo", "0.9"], ["simulate", "--window", "2"]], ids=["train-sr-lo", "simulate-window"]
)
def test_value_flags_are_rejected(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--config", str(write_config(tmp_path))])
    assert exc.value.code == 2
    assert not (tmp_path / "run" / "model.bin").exists()


def test_default_config_hash_stable():
    a, b = ExperimentConfig(), ExperimentConfig()
    assert config_hash(a) == config_hash(b)
    b.base_seed = 8
    assert config_hash(a) != config_hash(b)
