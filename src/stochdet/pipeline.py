"""End-to-end experiment driver.

One JSON config describes a full run: dataset, training, noise, detector,
attack sweep, and accelerator parameters. Stages write machine-readable
artifacts into the output directory and every artifact embeds the config
hash, the base seed, and the tool version, so a rerun with the same
config reproduces every metric file byte for byte.

Randomness discipline: the dataset spec and train.seed fix the model;
base_seed drives everything stochastic downstream (noisy passes, per-
input detector streams). Changing only base_seed therefore re-rolls the
detector's noise but not the model or the attacks.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import time
from dataclasses import asdict, dataclass, replace
from fnmatch import fnmatchcase
from pathlib import Path

import numpy as np

from . import __version__
from .accelsim import AcceleratorConfig, LayerCycleReport, simulate_model
from .attacks import (
    SET_MAGIC,
    AttackConfig,
    AttackError,
    AdversarialSample,
    attack_sets,
    load_adversarial_set,
    pick_exemplars,
    save_adversarial_set,
)
from .data import DEFAULT_IMAGE_SIZE, MIN_SYNTH_IMAGE_SIZE, Dataset, IdxFormatError, load_idx_dataset, synth_dataset
from .detector import (
    MIN_CALIBRATION_SAMPLES,
    DetectionThresholds,
    DetectionVerdict,
    DetectorConfig,
    calibrate,
    calibration_distances,
    detect_set,
    input_seed,
    noisy_passes,
)
from .model import MODEL_MAGIC, canonical_json, container_payload, read_container
from .model import (
    Model,
    TrainConfig,
    _propagate_shapes,
    check_settings,
    conv_pool_arch,
    load_model,
    profile_thresholds,
    save_model,
    setting,
    ThresholdTable,
    train,
)
from .rng import derive_seed
from .sparsify import NoiseConfig, PlanMismatch, rate_bank

HISTOGRAM_BINS = np.round(np.arange(0.0, 2.0 + 1e-9, 0.05), 10)


class ConfigError(ValueError):
    """Bad experiment configuration (exit code 2)."""


class StageError(RuntimeError):
    """A pipeline stage failed (exit code 3)."""

    def __init__(self, stage: str, cause: str):
        super().__init__(f"stage {stage!r} failed: {cause}")
        self.stage = stage


@dataclass
class DetectorSettings:
    """The experiment's detector knobs; thresholds come from calibration."""

    max_runs: int = setting(3, int, ge=1)
    target_fpr: float = setting(0.05, float, gt=0, lt=1)
    calibration_passes: int = setting(24, int, ge=1)

    def __post_init__(self) -> None:
        check_settings(self, ValueError)


def _default_attacks() -> list[AttackConfig]:
    return [
        AttackConfig(kind="fgsm", eps=0.15),
        AttackConfig(kind="cw_l2", target_mode="next", k=0.0),
        AttackConfig(kind="cw_l2", target_mode="next", k=2.0),
        AttackConfig(kind="cw_l2", target_mode="next", k=5.0),
        AttackConfig(kind="defense_aware", target_mode="next", k=2.0, beta=1e-4),
        AttackConfig(kind="defense_aware", target_mode="next", k=2.0, beta=1e-1),
    ]


def parse_dataset_spec(spec: str) -> tuple:
    """('synth', seed) for 'synth:<seed>', ('idx', images_path, labels_path) for 'idx:<images>:<labels>'."""
    kind, *args = spec.split(":")
    if kind == "idx" and len(args) == 2:
        return "idx", Path(args[0]), Path(args[1])
    try:
        if kind == "synth" and len(args) == 1:
            return "synth", int(args[0])
    except ValueError:
        pass
    raise ConfigError(f"dataset must be synth:<integer seed> or idx:<images>:<labels>, got {spec!r}")


@dataclass
class ExperimentConfig:
    """The experiment; its field declarations are the only statement of its values and their rules."""

    base_seed: int = setting(7, int)
    dataset: str = setting("synth:7", str)
    image_size: int = setting(DEFAULT_IMAGE_SIZE, int, ge=1)
    train_count: int = setting(4000, int, ge=1)
    test_count: int = setting(1000, int, ge=1)
    out_dir: str = setting("runs/fixture", str)
    model_path: str = setting("", str)  # reuse an existing model instead of training
    arch_channels: list[int] = setting(lambda: [8, 16], int, ge=1, items=1)
    kernel: int = setting(3, int, ge=1)
    train: TrainConfig = setting(TrainConfig, TrainConfig)
    noise: NoiseConfig = setting(NoiseConfig, NoiseConfig)
    detector: DetectorSettings = setting(DetectorSettings, DetectorSettings)
    attacks: list[AttackConfig] = setting(_default_attacks, AttackConfig, items=0)
    accelerator: AcceleratorConfig = setting(AcceleratorConfig, AcceleratorConfig)
    # slices of the test set, in order: calibration, benign evaluation, attack sources
    calib_count: int = setting(300, int, ge=1)
    benign_eval_count: int = setting(300, int, ge=1)
    attack_count: int = setting(230, int, ge=0)
    simulate_count: int = setting(20, int, ge=1)  # inputs simulated, from the benign-eval slice

    def __post_init__(self) -> None:
        """Each field's rule, then the rules across fields that would make a later stage fail."""
        check_settings(self, ValueError)
        if parse_dataset_spec(self.dataset)[0] == "synth" and self.image_size < MIN_SYNTH_IMAGE_SIZE:
            raise ValueError(f"synthetic images need image_size >= {MIN_SYNTH_IMAGE_SIZE}, got {self.image_size}")
        try:  # the class count does not change any shape before the dense head
            arch = conv_pool_arch(tuple(self.arch_channels), self.kernel, class_count=1)
            _propagate_shapes(arch, (1, self.image_size, self.image_size))
        except ValueError as exc:
            raise ValueError(f"arch_channels and kernel do not fit image_size {self.image_size}: {exc}") from exc
        if self.calib_count + self.benign_eval_count > self.test_count:
            raise ValueError(
                f"calib_count + benign_eval_count ({self.calib_count} + {self.benign_eval_count}) "
                f"exceeds test_count {self.test_count}"
            )
        if self.simulate_count > self.benign_eval_count:
            raise ValueError(f"simulate_count {self.simulate_count} exceeds benign_eval_count {self.benign_eval_count}")
        if self.calib_count * self.detector.calibration_passes < MIN_CALIBRATION_SAMPLES:
            raise ValueError(
                f"calib_count x calibration_passes ({self.calib_count} x {self.detector.calibration_passes}) "
                f"gives fewer than the {MIN_CALIBRATION_SAMPLES} samples calibration needs"
            )

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "ExperimentConfig":
        """A config from JSON; each section overrides only the keys it names.

        Every message names its field by its path, as `train.lr` or `attacks[1].steps`.
        """
        if not isinstance(obj, dict):
            raise ConfigError(f"config must be a JSON object, got {type(obj).__name__}")
        defaults, fields = cls(), dict(obj)
        for name in ("train", "noise", "detector", "accelerator"):
            if isinstance(fields.get(name), dict):
                fields[name] = _override(name, getattr(defaults, name), fields[name])
        if isinstance(fields.get("attacks"), list):
            fields["attacks"] = [
                _override(f"attacks[{i}]", AttackConfig(), a) if isinstance(a, dict) else a
                for i, a in enumerate(fields["attacks"])
            ]
        return _override("", defaults, fields)


def _override(path: str, base, values: dict):
    """base with the given values; an unknown key or a bad value is a ConfigError naming path.field."""
    prefix = f"{path}." if path else ""
    unknown = sorted(prefix + k for k in set(values) - set(base.__dataclass_fields__))
    if unknown:
        raise ConfigError(f"unknown config fields: {unknown}")
    try:
        return replace(base, **values)
    except ValueError as exc:  # AttackError is a ValueError
        raise ConfigError(f"invalid config: {prefix}{exc}") from exc


def config_hash(cfg: ExperimentConfig) -> str:
    return hashlib.sha256(canonical_json(cfg.to_json()).encode()).hexdigest()[:16]


def provenance(cfg: ExperimentConfig) -> dict:
    return {"config_hash": config_hash(cfg), "base_seed": cfg.base_seed, "tool_version": __version__}


# ---------------------------------------------------------------------------
# artifacts: each kind's writer, and the one reader of what its payload_sha256 covers


def _write_artifact(path: Path, cfg: ExperimentConfig, payload_text: str, frame) -> None:
    """path holds frame(provenance), where the provenance declares the sha256 of payload_text."""
    prov = {**provenance(cfg), "payload_sha256": hashlib.sha256(payload_text.encode()).hexdigest()}
    path.write_text(frame(prov), encoding="utf-8")


def write_json_artifact(path: Path, payload, cfg: ExperimentConfig) -> None:
    doc = lambda prov: json.dumps({"provenance": prov, "payload": payload}, sort_keys=True, indent=1) + "\n"
    _write_artifact(path, cfg, canonical_json(payload), doc)


def read_json_artifact(path: Path) -> tuple[dict, dict]:
    doc = json.loads(path.read_text(encoding="utf-8"))
    return doc["provenance"], doc["payload"]


def write_csv_artifact(path: Path, header: list[str], rows: list[list], cfg: ExperimentConfig) -> None:
    """CSV with '# key=value' provenance comments before the header row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([header, *rows])
    body = buf.getvalue()
    _write_artifact(path, cfg, body, lambda prov: "".join(f"# {k}={v}\n" for k, v in sorted(prov.items())) + body)


def write_verdict_log(path: Path, verdicts, cfg: ExperimentConfig) -> None:
    lines = [canonical_json(v.to_json(input_id=i)) for i, v in enumerate(verdicts)]
    log = lambda prov: "\n".join([canonical_json({"provenance": prov}), *lines]) + "\n"
    _write_artifact(path, cfg, "\n".join(lines), log)


# What a run writes: kind -> (file name, the stage that writes it). "{}" in a name stands for a set
# name, an attack's for adv_{}.bin and a verdict set's for verdicts_{}.jsonl. A file is an artifact
# by its name alone, so a copy of the config in a run directory is not one.
RUN_FILES = {
    "model": ("model.bin", "train"),
    "train_report": ("train_report.json", "train"),
    "table": ("threshold_table.json", "profile"),
    "adv_set": ("adv_{}.bin", "attack"),
    "thresholds": ("thresholds.json", "calibrate"),
    "verdicts": ("verdicts_{}.jsonl", "eval"),
    "histograms": ("l1_histograms.json", "eval"),
    "metrics": ("metrics.json", "eval"),
    "cycles": ("cycles.json", "simulate"),
    "metrics_csv": ("metrics.csv", "report"),
    "k_sweep": ("k_sweep.csv", "report"),
    "beta_sweep": ("beta_sweep.csv", "report"),
    "cycles_csv": ("cycles.csv", "report"),
}


def artifact_kind(name: str) -> str | None:
    """The RUN_FILES kind of a file name, or None for a file that no run writes."""
    return next((k for k, (f, _) in RUN_FILES.items() if fnmatchcase(name, f.replace("{}", "?*"))), None)


def artifact_payload(path: Path) -> tuple[dict, bytes]:
    """The provenance an artifact declares and the payload bytes its payload_sha256 covers.

    Its name gives its kind and its suffix the format. A file that cannot hold them raises
    KeyError, TypeError or ValueError."""
    kind = artifact_kind(path.name)
    if kind is None:
        raise ValueError(f"{path.name} is not an artifact")
    if path.suffix == ".bin":
        manifest, blob = read_container(path.read_bytes(), MODEL_MAGIC if kind == "model" else SET_MAGIC, ValueError)
        return manifest.pop("provenance"), container_payload(manifest, blob)
    if path.suffix == ".json":
        prov, payload = read_json_artifact(path)
        return prov, canonical_json(payload).encode()
    lines = path.read_text(encoding="utf-8").splitlines(keepends=path.suffix == ".csv")
    if path.suffix == ".jsonl":
        first, *rest = lines  # an empty log raises ValueError
        return json.loads(first)["provenance"], "\n".join(rest).encode()
    prov = dict(l[2:].rstrip("\n").split("=", 1) for l in lines if l.startswith("# "))
    return prov, "".join(l for l in lines if not l.startswith("# ")).encode()


def verify_artifact(path: Path) -> tuple[bool, str]:
    """Re-derive the payload hash an artifact declares; flag tampering."""
    if artifact_kind(path.name) is None:
        return True, "skipped (not an artifact)"
    try:
        prov, payload = artifact_payload(path)
        declared, actual = prov["payload_sha256"], hashlib.sha256(payload).hexdigest()
        if not isinstance(declared, str):
            raise TypeError(f"payload_sha256 is {declared!r}, not a string")
    except (KeyError, TypeError, ValueError) as exc:  # a wrong root or field type, bad JSON, an empty file
        return False, f"unreadable provenance: {exc!r}"
    if declared != actual:
        return False, f"hash mismatch: declared {declared[:12]}.., derived {actual[:12]}.."
    return True, "ok"


# ---------------------------------------------------------------------------
# stages


def load_dataset_spec(spec: str, count: int, image_size: int, sub: str, start: int = 0) -> Dataset:
    """`count` images of the `sub` split of 'synth:<seed>' or 'idx:<images_path>:<labels_path>'.

    A synthetic split is its own stream. IDX files hold one sequence of
    images, which the splits cut in order: the split takes the `count`
    images from index `start`, so a test split starting at the train
    count shares no image with the train split.
    """
    kind, *args = parse_dataset_spec(spec)
    if kind == "synth":
        return synth_dataset(derive_seed(args[0], sub), count, image_size)
    images_path, labels_path = args
    for p, what in ((images_path, "images"), (labels_path, "labels")):
        if not p.exists():
            raise ConfigError(f"dataset {what} path does not exist: {p}")
    try:
        full = load_idx_dataset(images_path.read_bytes(), labels_path.read_bytes())
    except IdxFormatError as exc:
        raise ConfigError(f"dataset {images_path} and {labels_path} are not a valid IDX pair: {exc}") from exc
    end = start + count
    if len(full) < end:
        raise ConfigError(f"the {sub} split needs images [{start}, {end}) but {images_path} holds {len(full)}")
    if full.images[0].shape != (1, image_size, image_size):
        raise ConfigError(f"{images_path} holds {full.images[0].shape[1:]} images but image_size is {image_size}")
    return Dataset(full.images[start:end], full.labels[start:end], full.class_count)


def _fitted_table(payload: dict, model: Model) -> ThresholdTable:
    """The table in payload; rate_bank refuses one that does not fit the model with PlanMismatch."""
    table = ThresholdTable.from_json(payload)
    rate_bank(model, table)
    return table


def _model_thresholds(payload: dict, model: Model) -> DetectionThresholds:
    """The thresholds in payload; ones calibrated for another model, or for none named, raise PlanMismatch."""
    if payload.get("model_fingerprint") != model.fingerprint():
        raise PlanMismatch(f"calibrated for model_fingerprint {payload.get('model_fingerprint')}")
    return DetectionThresholds.from_json(payload["thresholds"])


class RunState:
    """The config, the output directory and the artifacts of one run so far.

    Stages store what they produce here, so `run` hands every object on in
    memory. An artifact that no earlier stage produced is resolved on first
    use by its LOADERS entry: the model, table and thresholds from their
    given paths, the configured attack sets, metrics and cycles from their
    RUN_FILES names in the output directory, and the datasets by loading
    them. Each loader looks its functions up in this module when it runs.
    """

    LOADERS = {
        "train_set": lambda s: load_dataset_spec(s.cfg.dataset, s.cfg.train_count, s.cfg.image_size, "train"),
        "test_set": lambda s: load_dataset_spec(
            s.cfg.dataset, s.cfg.test_count, s.cfg.image_size, "test", start=s.cfg.train_count
        ),
        "benign_eval": lambda s: s["test_set"].images[s.cfg.calib_count : s.cfg.calib_count + s.cfg.benign_eval_count],
        "model": lambda s: load_model(s._given_path("model").read_bytes()),
        "table": lambda s: s._read_json("table", _fitted_table),
        "thresholds": lambda s: s._read_json("thresholds", _model_thresholds),
        "adv_sets": lambda s: {
            spec.name: s.read_adversarial_set(s._run_file("adv_set", spec.name)) for spec in s.cfg.attacks
        },
        "metrics": lambda s: s._read_json("metrics", lambda p, _: (_attack_tables(p), p)[1]),
        "cycles": lambda s: s._read_json("cycles", lambda p, _: (_cycle_table(p), p)[1]),
    }

    def __init__(self, cfg: ExperimentConfig, table_path: str = "", thresholds_path: str = ""):
        self.cfg = cfg
        self.out = Path(cfg.out_dir)
        self.out.mkdir(parents=True, exist_ok=True)
        self.paths = {"model": cfg.model_path, "table": table_path, "thresholds": thresholds_path}
        self.artifacts: dict = {}

    def __getitem__(self, name: str):
        if name not in self.artifacts:
            self.artifacts[name] = self.LOADERS[name](self)
        return self.artifacts[name]

    def __setitem__(self, name: str, value) -> None:
        self.artifacts[name] = value

    def detector_config(self) -> DetectorConfig:
        return DetectorConfig(
            thresholds=self["thresholds"],
            max_runs=self.cfg.detector.max_runs,
            noise=self.cfg.noise,
            base_seed=self.cfg.base_seed,
        )

    def path(self, kind: str, set_name: str = "") -> Path:
        """Where in the output directory a run writes its `kind` file (of set `set_name`, for a family)."""
        return self.out / RUN_FILES[kind][0].format(set_name)

    def _run_file(self, kind: str, set_name: str = "") -> Path:
        path = self.path(kind, set_name)
        if not path.exists():
            raise ConfigError(f"no {path.name} in {self.out}; run `{RUN_FILES[kind][1]}` first")
        return path

    def _given_path(self, name: str) -> Path:
        if not self.paths[name]:
            raise ConfigError(f"the '{name}' field is required for this command (--{name})")
        path = Path(self.paths[name])
        if not path.exists():
            raise ConfigError(f"config field '{name}' points to a missing path: {path}")
        return path

    def _read_json(self, name: str, parse):
        """parse(payload, model) of the `name` JSON artifact: the given file, else the one in --out.

        A given file is read against the model, which loads first; others get None. A corrupt
        file, or one that parse refuses as made for another model, is a ConfigError naming it.
        """
        path, model = (self._given_path(name), self["model"]) if name in self.paths else (self._run_file(name), None)
        try:
            return parse(read_json_artifact(path)[1], model)
        except PlanMismatch as exc:
            raise ConfigError(f"{path} was not made for this model: {exc}") from exc
        except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
            raise ConfigError(f"{path} is not a valid {name} artifact: {exc!r}") from exc

    def read_adversarial_set(self, path: Path) -> list[AdversarialSample]:
        """The samples of the adversarial set at path; a missing or corrupt one is a ConfigError."""
        try:
            return load_adversarial_set(path.read_bytes())
        except (OSError, AttackError) as exc:
            raise ConfigError(f"{path} is not a readable adversarial set: {exc}") from exc


# Each stage reads its inputs from the run state, stores and writes what it
# produces, and returns a one-line summary for the CLI.


def stage_data(state: RunState) -> str:
    return f"{len(state['train_set'])} train and {len(state['test_set'])} test samples"


def stage_train(state: RunState) -> str:
    cfg = state.cfg
    if cfg.model_path:
        state["model"]  # loads, and so checks, the given model
        report = {"reused": str(Path(cfg.model_path))}
        summary = f"reused {cfg.model_path}"
    else:
        train_set = state["train_set"]
        arch = conv_pool_arch(tuple(cfg.arch_channels), cfg.kernel, class_count=train_set.class_count)
        result = train(train_set, arch, cfg.train, test_dataset=state["test_set"])
        state["model"] = result.model
        report = {
            "train_accuracy": result.train_accuracy,
            "test_accuracy": result.test_accuracy,
            "epoch_losses": result.epoch_losses,
        }
        state.path("model").write_bytes(save_model(result.model, provenance(cfg)))
        summary = f"trained: test accuracy {result.test_accuracy:.3f} -> {state.path('model')}"
    write_json_artifact(state.path("train_report"), report, cfg)
    return summary


def stage_profile(state: RunState) -> str:
    table = state["table"] = profile_thresholds(state["model"])
    write_json_artifact(state.path("table"), table.to_json(), state.cfg)
    return f"profiled {sum(t.shape[0] for t in table.thresholds.values())} filters -> {state.path('table')}"


def stage_attack(state: RunState) -> str:
    cfg, model, test_set = state.cfg, state["model"], state["test_set"]
    probs = model.predict_batch(test_set.images).probs  # one forward picks exemplars and sources
    exemplars = pick_exemplars(test_set, probs)
    # the first attack_count images after the calibration and benign slices that the model gets right
    start, hits = cfg.calib_count + cfg.benign_eval_count, probs.argmax(axis=1) == np.asarray(test_set.labels)
    sources = [img for img, hit in zip(test_set.images[start:], hits[start:]) if hit][: cfg.attack_count]
    adv_sets, lines = {}, []
    for spec, samples in zip(cfg.attacks, attack_sets(model, sources, cfg.attacks, exemplars)):
        adv_sets[spec.name] = samples
        path = state.path("adv_set", spec.name)
        meta = {"name": spec.name, "kind": spec.kind, "param": spec.param}
        path.write_bytes(save_adversarial_set(samples, provenance(cfg), attack_meta=meta))
        lines.append(f"{spec.name}: {sum(s.success for s in samples)}/{len(samples)} successful -> {path}")
    state["adv_sets"] = adv_sets
    return "\n".join(lines) or "no attacks configured"


def stage_calibrate(state: RunState) -> str:
    cfg = state.cfg
    inputs = state["test_set"].images[: cfg.calib_count]
    # detection thresholds are deployment constants of the trained model,
    # like the threshold table: their sampling keys off the training
    # identity so reseeding the detector never re-rolls the operating point
    distances = calibration_distances(
        state["model"],
        state["table"],
        inputs,
        cfg.noise,
        derive_seed(cfg.train.seed, "calibrate"),
        passes=cfg.detector.calibration_passes,
    )
    thresholds = state["thresholds"] = calibrate(distances, cfg.detector.target_fpr)
    payload = {"thresholds": thresholds.to_json(), "target_fpr": cfg.detector.target_fpr}
    write_json_artifact(state.path("thresholds"), {**payload, "model_fingerprint": state["model"].fingerprint()}, cfg)
    return f"calibrated on {len(inputs)} benign inputs -> {state.path('thresholds')}"


def stage_eval(state: RunState) -> str:
    """Detection metrics for the benign-eval set and each configured attack set.

    Only the successful samples of each attack set face the detector,
    matching how the reference results score attacks. The benign side is
    shared, so it runs once. It writes a verdict log per set,
    l1_histograms.json from their first passes, and metrics.json.
    """
    cfg, model, table, det_cfg = state.cfg, state["model"], state["table"], state.detector_config()
    benign_eval, adv_sets = state["benign_eval"], state["adv_sets"]
    benign_verdicts = detect_set(model, table, det_cfg, benign_eval, "benign")
    benign_fpr = sum(1 for v in benign_verdicts if v.label == "adversarial") / len(benign_verdicts)
    benign_runs = [v.runs_used for v in benign_verdicts]
    verdict_sets = {"benign": benign_verdicts}
    metrics: dict[str, dict] = {}
    for spec in cfg.attacks:
        samples = adv_sets[spec.name]
        successful = [s for s in samples if s.success]
        adv_verdicts = detect_set(model, table, det_cfg, [s.perturbed for s in successful], "adversarial")
        confidences = model.predict_batch([s.perturbed for s in successful]).probs.max(axis=1) if successful else []
        l1_to_target = [s.attack_l1_to_target for s in successful if s.attack_l1_to_target is not None]
        metrics[spec.name] = {
            "attack": spec.name,
            "kind": spec.kind,
            "param": spec.param,
            "sources": len(samples),
            "successes": len(successful),
            "success_rate": len(successful) / len(samples) if samples else 0.0,
            "mean_l2_distortion": _mean([s.l2_distortion for s in successful]),
            "mean_confidence": _mean(confidences),
            "mean_l1_to_target": _mean(l1_to_target),
            "metrics": {
                "detection_rate": _mean([v.label == "adversarial" for v in adv_verdicts]),
                "fpr": benign_fpr,
                "mean_runs": _mean(benign_runs + [v.runs_used for v in adv_verdicts]),
                "benign_count": len(benign_verdicts),
                "adversarial_count": len(adv_verdicts),
            },
            "mean_runs_adversarial": _mean([v.runs_used for v in adv_verdicts]),
        }
        verdict_sets[spec.name] = adv_verdicts
    for name, verdicts in verdict_sets.items():
        write_verdict_log(state.path("verdicts", name), verdicts, cfg)
    write_json_artifact(state.path("histograms"), build_histograms(verdict_sets), cfg)
    state["metrics"] = metrics
    write_json_artifact(state.path("metrics"), metrics, cfg)
    return f"benign FPR {benign_fpr:.3f}; metrics for {len(metrics)} attack set(s) -> {state.path('metrics')}"


def stage_simulate(state: RunState) -> str:
    """Cycle reports for the plans eval's detector drew for its first pass over benign input i."""
    cfg, model, table = state.cfg, state["model"], state["table"]
    reports = []
    for i, x in enumerate(state["benign_eval"][: cfg.simulate_count]):
        plan = noisy_passes(model, table, x, cfg.noise)[1](input_seed(cfg.base_seed, "benign", i), 1)
        reports.append(simulate_model(model, plan, cfg.accelerator))
    summary = state["cycles"] = {
        "inputs": len(reports),
        "mean_speedup": float(np.mean([r.speedup for r in reports])),
        "mean_eligible_speedup": float(np.mean([r.eligible_speedup() for r in reports])),
        "first_report": reports[0].to_json(),
    }
    write_json_artifact(state.path("cycles"), summary, cfg)
    return (
        f"simulated {summary['inputs']} plans: mean speedup {summary['mean_speedup']:.3f} "
        f"(eligible layers {summary['mean_eligible_speedup']:.3f}) -> {state.path('cycles')}"
    )


def stage_report(state: RunState) -> str:
    """Metric CSVs and sweep tables from the metrics and cycles artifacts."""
    tables = {**_attack_tables(state["metrics"]), "cycles_csv": _cycle_table(state["cycles"])}
    for kind, (columns, rows) in tables.items():
        write_csv_artifact(state.path(kind), columns, rows, state.cfg)
    return f"report CSVs -> {state.out}"


STAGES = (
    ("data", stage_data),
    ("train", stage_train),
    ("profile", stage_profile),
    ("attack", stage_attack),
    ("calibrate", stage_calibrate),
    ("eval", stage_eval),
    ("simulate", stage_simulate),
    ("report", stage_report),
)


def run_pipeline(cfg: ExperimentConfig, log=print) -> RunState:
    """Every stage in order; each hands its artifacts on to the next in memory."""
    state = RunState(cfg)
    started = time.monotonic()
    for name, stage in STAGES:
        log(f"[pipeline] {name} (+{time.monotonic() - started:.1f}s)")
        try:
            stage(state)
        except ConfigError:
            raise
        except Exception as exc:
            raise StageError(name, str(exc)) from exc
    log(f"[pipeline] done (+{time.monotonic() - started:.1f}s)")
    return state


def _mean(values) -> float | None:
    """The mean of a sequence as a float, or None for an empty one."""
    return float(np.mean(values)) if len(values) else None


def build_histograms(verdict_sets: dict[str, list[DetectionVerdict]]) -> dict:
    """Histograms of each non-empty verdict set's first-pass L1, fixed 0.05 bins over [0, 2]."""
    payload = {"bin_edges": HISTOGRAM_BINS.tolist(), "sets": {}}
    for name, verdicts in verdict_sets.items():
        if verdicts:
            d = np.array([v.l1_history[0] for v in verdicts])
            counts, _ = np.histogram(d, bins=HISTOGRAM_BINS)
            payload["sets"][name] = {
                "count": int(d.size),
                "mean": float(d.mean()),
                "std": float(d.std()),
                "counts": counts.astype(int).tolist(),
            }
    return payload


# Each attack CSV as (RUN_FILES kind, the attack kind it keeps or None for all, sort key, columns). A column
# names a field of an attack's metrics record or of its "metrics"; "k" and "beta" name its swept param.
REPORT_CSVS = (
    ("metrics_csv", None, "kind param attack", "attack kind param sources successes success_rate "
     "mean_l2_distortion mean_confidence mean_l1_to_target detection_rate fpr mean_runs"),
    ("k_sweep", "cw_l2", "param", "k mean_l2_distortion detection_rate"),
    ("beta_sweep", "defense_aware", "param", "beta mean_confidence mean_l1_to_target mean_l2_distortion "
     "detection_rate"),
)


def _attack_tables(metrics_by_attack) -> dict[str, tuple[list[str], list[list]]]:
    """Each REPORT_CSVS kind's (columns, rows) of the attack records; a wrong shape raises TypeError or KeyError."""
    if not isinstance(metrics_by_attack, dict):
        raise TypeError(f"need an object of attack records, got {type(metrics_by_attack).__name__}")
    tables = {}
    for name, kind, key, columns in REPORT_CSVS:
        records = [{**r, **r["metrics"], "k": r["param"], "beta": r["param"]} for r in metrics_by_attack.values()]
        records = sorted((r for r in records if kind in (None, r["kind"])), key=lambda r: [r[c] for c in key.split()])
        tables[name] = columns.split(), [[r[c] for c in columns.split()] for r in records]
    return tables


def _cycle_table(sim_summary) -> tuple[list[str], list[list]]:
    """cycles.csv's (columns, rows): the first simulated plan's per-layer report."""
    columns = [*LayerCycleReport.__dataclass_fields__, "speedup"]
    return columns, [[layer[c] for c in columns] for layer in sim_summary["first_report"]["per_layer"]]
