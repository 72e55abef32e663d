"""Byte identity as a test: every payload `stochdet run` writes, against a golden file.

`tests/golden/payloads.json` holds, per config, the sha256 of the payload
bytes of every file a run writes, as `pipeline.artifact_payload` derives
them from the file: the bytes its declared `payload_sha256` covers, which
`verify` also checks. Provenance itself is left out: its `config_hash`
covers the output directory. The file also records the numpy and BLAS
build the hashes were taken on, so a mismatch on another build can be
told from a moved payload.

A change that moves payloads on purpose re-records the file in the same
commit: `PYTHONPATH=src python tests/test_golden.py` runs both configs.
The default config is checked inside criterion 9's first run
(`tests/test_acceptance.py`), so it costs no run of its own.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from stochdet.pipeline import ExperimentConfig, artifact_payload, run_pipeline, verify_artifact

GOLDEN = Path(__file__).resolve().parent / "golden" / "payloads.json"

# the values of perfbench's EXPERIMENT_CONFIG: every stage, about a second and a half
FAST_CONFIG = {
    "base_seed": 7,
    "dataset": "synth:7",
    "image_size": 18,
    "train_count": 400,
    "test_count": 320,
    "train": {"lr": 0.15, "epochs": 3, "seed": 11, "batch_size": 16, "weight_decay": 1e-4},
    "detector": {"max_runs": 3, "target_fpr": 0.05, "calibration_passes": 4},
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


def payload_hash(path: Path) -> str:
    """The sha256 of one artifact's payload bytes, provenance left out."""
    return hashlib.sha256(artifact_payload(path)[1]).hexdigest()


def payload_hashes(run_dir: Path) -> dict[str, str]:
    return {p.name: payload_hash(p) for p in sorted(run_dir.iterdir()) if p.is_file()}


def machine_facts() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": blas.get("openblas configuration") or f"{blas.get('name')} {blas.get('version')}",
        "machine": platform.machine(),
    }


def check_golden(name: str, run_dir: Path) -> None:
    """Fail, naming each moved file and both machines, unless run_dir's payloads are the golden ones and verify."""
    unverified = {p.name: detail for p in sorted(run_dir.iterdir()) if (detail := verify_artifact(p)[1]) != "ok"}
    assert not unverified, f"{name} config: files that do not verify ok: {unverified}"
    golden = json.loads(GOLDEN.read_text())
    want, got = golden["configs"][name], payload_hashes(run_dir)
    moved = sorted(f for f in set(want) | set(got) if want.get(f) != got.get(f))
    assert not moved, (
        f"{name} config: payloads moved in {moved}\n"
        f"  recorded on {golden['machine']}\n  running on  {machine_facts()}"
    )


def test_fast_config_payloads_match_golden(tmp_path):
    cfg = ExperimentConfig.from_json({**FAST_CONFIG, "out_dir": str(tmp_path / "run")})
    run_pipeline(cfg, log=lambda *_: None)
    check_golden("fast", tmp_path / "run")


def record() -> None:
    configs = {}
    for name, obj in (("fast", FAST_CONFIG), ("default", {})):
        with tempfile.TemporaryDirectory() as tmp:
            run_pipeline(ExperimentConfig.from_json({**obj, "out_dir": tmp}), log=lambda *_: None)
            configs[name] = payload_hashes(Path(tmp))
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({"machine": machine_facts(), "configs": configs}, indent=1, sort_keys=True) + "\n")
    print(f"recorded {sum(map(len, configs.values()))} payload hashes -> {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    record()
