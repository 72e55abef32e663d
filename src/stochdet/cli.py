"""Command-line driver.

Subcommands mirror the pipeline stages (train, profile, attack,
calibrate, eval, simulate, report) plus `detect` for one set, `run` for
the whole experiment and `verify` to re-derive artifact hashes. Each
stage subcommand runs the same stage function as `run`, reading the
artifacts earlier stages left in --out. Every experiment value comes from
one JSON config file; flags give paths, and `detect --base-seed` re-rolls
the detection noise. All outputs land in --out (or $STOCHDET_OUT_DIR).

Exit codes: 0 success, 2 config error, 3 stage failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .detector import detect_set
from .model import ModelFormatError
from .pipeline import (
    STAGES,
    ConfigError,
    ExperimentConfig,
    RunState,
    StageError,
    run_pipeline,
    stage_train,
    verify_artifact,
    write_verdict_log,
)
from .rng import derive_seed  # noqa: F401 -- perfbench's tracing self-test patches it at this import site

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_STAGE = 3


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file does not exist: {path}")
        try:
            cfg = ExperimentConfig.from_json(json.loads(path.read_text()))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    # detect's noise re-roll
    if getattr(args, "base_seed", None) is not None:
        cfg.base_seed = args.base_seed
    out = getattr(args, "out", None) or os.environ.get("STOCHDET_OUT_DIR")
    if out:
        cfg.out_dir = out
    if getattr(args, "model", None):
        cfg.model_path = args.model
    return cfg


def _state(args: argparse.Namespace) -> RunState:
    return RunState(
        _load_config(args),
        table_path=getattr(args, "table", None) or "",
        thresholds_path=getattr(args, "thresholds", None) or "",
    )


def cmd_run(args) -> int:
    cfg = _load_config(args)
    run_pipeline(cfg)
    print(f"pipeline complete: {cfg.out_dir}")
    return EXIT_OK


def _stage_command(stage):
    def cmd(args) -> int:
        print(stage(_state(args)))
        return EXIT_OK

    return cmd


def cmd_train(args) -> int:
    cfg = _load_config(args)
    if cfg.model_path:
        raise ConfigError(f"train always trains a new model; the config names model_path {cfg.model_path!r}")
    print(stage_train(RunState(cfg)))
    return EXIT_OK


def cmd_detect(args) -> int:
    if {"/", os.sep} & set(args.name or ""):
        raise ConfigError(f"--name is a verdict log name suffix, not a path: got {args.name!r}")
    state = _state(args)
    if args.adversarial_set:
        inputs = [s.perturbed for s in state.read_adversarial_set(Path(args.adversarial_set))]
        tag = "adversarial"
    else:
        inputs, tag = state["benign_eval"], "benign"
    verdicts = detect_set(state["model"], state["table"], state.detector_config(), inputs, tag)
    path = state.path("verdicts", args.name or tag)
    write_verdict_log(path, verdicts, state.cfg)
    flagged = sum(1 for v in verdicts if v.label == "adversarial")
    print(f"{flagged}/{len(verdicts)} flagged adversarial -> {path}")
    return EXIT_OK


def cmd_verify(args) -> int:
    root = Path(args.path)
    if not root.exists():
        raise ConfigError(f"verify path does not exist: {root}")
    files = [f for f in sorted(root.rglob("*")) if f.is_file()] if root.is_dir() else [root]
    bad = 0
    for f in files:
        ok, detail = verify_artifact(f)
        # a passing detail is "ok" or "skipped (not an artifact)"
        print(f"{detail.split()[0] if ok else 'TAMPERED':9} {f} ({detail})")
        bad += not ok
    if bad:
        raise StageError("verify", f"{bad} artifact(s) failed hash verification")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochdet",
        description="Stochastic-inference adversarial input detection: train, attack, calibrate, detect, simulate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, model=False, table=False, thresholds=False):
        p.add_argument("--config", help="experiment config JSON")
        p.add_argument("--out", help="output directory (or $STOCHDET_OUT_DIR)")
        if model:
            p.add_argument("--model", help="path to a model container")
        if table:
            p.add_argument("--table", help="path to threshold_table.json")
        if thresholds:
            p.add_argument("--thresholds", help="path to thresholds.json")

    common(sub.add_parser("run", help="full pipeline"), model=True)
    common(sub.add_parser("train", help="train the fixture model"))
    common(sub.add_parser("profile", help="build the per-filter threshold table"), model=True)
    common(sub.add_parser("attack", help="generate the configured adversarial sets"), model=True)
    common(sub.add_parser("calibrate", help="benign-quantile threshold calibration"), model=True, table=True)

    p_detect = sub.add_parser("detect", help="run the detector over a set")
    common(p_detect, model=True, table=True, thresholds=True)
    p_detect.add_argument("--adversarial-set", help="adversarial container to detect instead of benign data")
    p_detect.add_argument("--base-seed", type=int, dest="base_seed", help="re-roll the detection noise")
    p_detect.add_argument("--name", help="verdict log name suffix")

    common(
        sub.add_parser("eval", help="detection metrics and L1 histograms over the saved adversarial sets"),
        model=True,
        table=True,
        thresholds=True,
    )

    common(sub.add_parser("simulate", help="accelerator cycle model"), model=True, table=True)
    common(sub.add_parser("report", help="emit metric CSVs from the metrics and cycles artifacts"))

    p_verify = sub.add_parser("verify", help="re-derive artifact hashes")
    p_verify.add_argument("path", help="artifact file or run directory")

    return parser


_COMMANDS = {
    "run": cmd_run,
    "detect": cmd_detect,
    "verify": cmd_verify,
    **{name: _stage_command(stage) for name, stage in STAGES if name not in ("data", "train")},
    "train": cmd_train,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, ModelFormatError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except StageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_STAGE
    except Exception as exc:  # any uncaught failure is a stage failure
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_STAGE


if __name__ == "__main__":
    sys.exit(main())
