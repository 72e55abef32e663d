"""Stochastic-inference detection.

One mask-free reference pass fixes the output distribution P_ref and the
noise budget. Noisy passes then re-run the input under random weight
sparsification, each starting from the reference pass's input to its
first masked layer, and the L1 distance between each noisy output and
P_ref drives a small state machine:

  pass 1:   d < t1_greedy  -> benign       d > t2_greedy -> adversarial
  any pass: mean(d_1..d_i) < t1_avg -> benign, > t2_avg -> adversarial
  cap:      adversarial iff the mean exceeds the (t1_avg + t2_avg)/2
            midpoint; exact ties stay benign.

Benign outputs barely move under the noise, adversarial ones scatter, so
most inputs resolve on the first pass. Thresholds come from benign-only
quantile calibration; adversarial data is never needed to deploy.
No pass here runs a backward, so none fills layer caches.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields, replace
from typing import Callable, Iterable

import numpy as np

from .model import Model, ThresholdTable
from .nn import ProbVector
from .rng import derive_seed
from .sparsify import NoiseConfig, SparsificationPlan, confidence, draw_plan, noise_budget, noisy_forward, rate_bank

# benign first-pass distances calibrate needs for stable upper quantiles
MIN_CALIBRATION_SAMPLES = 100


def l1_distance(p: ProbVector | np.ndarray, q: ProbVector | np.ndarray) -> float:
    """Sum of absolute pairwise differences between two probability vectors."""
    pv = p.probs if isinstance(p, ProbVector) else np.asarray(p, dtype=np.float64)
    qv = q.probs if isinstance(q, ProbVector) else np.asarray(q, dtype=np.float64)
    if pv.shape != qv.shape:
        raise ValueError(f"length mismatch: {pv.shape} vs {qv.shape}")
    return float(np.abs(pv - qv).sum())


@dataclass
class DetectionThresholds:
    t1_greedy: float
    t2_greedy: float
    t1_avg: float
    t2_avg: float

    def __post_init__(self) -> None:
        ordered = self.t1_greedy <= self.t1_avg <= self.t2_avg <= self.t2_greedy
        if not ordered:
            raise ValueError(
                "thresholds must satisfy t1_greedy <= t1_avg <= t2_avg <= t2_greedy, got "
                f"({self.t1_greedy}, {self.t1_avg}, {self.t2_avg}, {self.t2_greedy})"
            )
        for v in (self.t1_greedy, self.t1_avg, self.t2_avg, self.t2_greedy):
            if not 0.0 <= v <= 2.0:
                raise ValueError(f"threshold {v} outside [0, 2]")

    def to_json(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json(cls, obj: dict) -> "DetectionThresholds":
        return cls(**{f.name: obj[f.name] for f in fields(cls)})


@dataclass
class DetectorConfig:
    thresholds: DetectionThresholds
    max_runs: int
    noise: NoiseConfig
    base_seed: int

    def __post_init__(self) -> None:
        if self.max_runs < 1:
            raise ValueError(f"max_runs must be at least 1, got {self.max_runs}")


@dataclass
class DetectionVerdict:
    label: str  # "benign" | "adversarial"
    runs_used: int
    l1_history: list[float]
    final_class: int
    terminated_by: str  # "greedy" | "average" | "cap"

    def to_json(self, input_id: str | int | None = None) -> dict:
        return asdict(self) if input_id is None else {"input_id": input_id, **asdict(self)}


def _mean(history: list[float], total: float) -> float:
    """np.mean(history), given total, the sum of history added in order from 0.0.

    Below 8 values numpy's pairwise sum adds them one by one from 0.0, so
    total / n is np.mean bit for bit.
    """
    n = len(history)
    return total / n if n < 8 else float(np.mean(history))


def decide(
    distances: Callable[[int], float],
    thresholds: DetectionThresholds,
    max_runs: int,
) -> tuple[str, int, list[float], str]:
    """The pure decision loop; distances(i) yields pass i's L1 distance.

    Only as many passes as the verdict needs are requested, so callers can
    hand in a lazily-evaluated source of real noisy passes. Greedy
    thresholds apply to the first pass only; every completed pass's
    distance joins the running average.
    """
    history: list[float] = []
    total = 0.0
    for i in range(1, max_runs + 1):
        d = float(distances(i))
        history.append(d)
        total += d
        if i == 1:
            if d < thresholds.t1_greedy:
                return "benign", i, history, "greedy"
            if d > thresholds.t2_greedy:
                return "adversarial", i, history, "greedy"
        mean = _mean(history, total)
        if mean < thresholds.t1_avg:
            return "benign", i, history, "average"
        if mean > thresholds.t2_avg:
            return "adversarial", i, history, "average"
    mean = _mean(history, total)
    midpoint = 0.5 * (thresholds.t1_avg + thresholds.t2_avg)
    label = "adversarial" if mean > midpoint else "benign"  # ties stay benign
    return label, max_runs, history, "cap"


def input_seed(base_seed: int, tag: str, index: int) -> int:
    """The base seed of input `index` of the set tagged `tag` (see detect_set)."""
    return derive_seed(base_seed, tag, index)


def noisy_passes(
    model: Model, table: ThresholdTable, x: np.ndarray, noise: NoiseConfig
) -> tuple[ProbVector, Callable[[int, int], SparsificationPlan], Callable[[int, int], float]]:
    """The reference output of x, and the plan and L1 distance of its noisy pass (base_seed, i).

    The reference pass and the noise budget are computed once for every
    pass; pass seeds derive from (base_seed, i) alone. Each noisy pass
    starts at the first masked layer, from the reference trace's
    (read-only) input to it, which the layers before would recompute bit
    for bit, and a conv2d there reads that input's columns, gathered once.
    """
    trace = model.forward_trace(np.asarray(x)[None])
    for shared in trace.inputs[1:-1]:  # inputs[0] is the caller's x, inputs[-1] the logits
        shared.flags.writeable = False
    ref = trace.output[0]
    budget = noise_budget(confidence(ref), noise)
    start = min(rate_bank(model, table), default=0)
    cols = model.layer_columns(start, trace.inputs[start])

    def plan(base_seed: int, i: int) -> SparsificationPlan:
        return draw_plan(model, table, budget, derive_seed(base_seed, "pass", i))

    def distance(base_seed: int, i: int) -> float:
        return l1_distance(noisy_forward(model, plan(base_seed, i), trace.inputs[start][0], start, cols), ref)

    return ref, plan, distance


def stochastic_inference(
    model: Model, table: ThresholdTable, x: np.ndarray, cfg: DetectorConfig
) -> DetectionVerdict:
    """Full detection for one input."""
    ref, _, distance = noisy_passes(model, table, x, cfg.noise)
    label, runs, history, reason = decide(lambda i: distance(cfg.base_seed, i), cfg.thresholds, cfg.max_runs)
    return DetectionVerdict(
        label=label,
        runs_used=runs,
        l1_history=history,
        final_class=ref.top_class,
        terminated_by=reason,
    )


def detect_set(
    model: Model, table: ThresholdTable, cfg: DetectorConfig, inputs: Iterable[np.ndarray], tag: str
) -> list[DetectionVerdict]:
    """stochastic_inference over a set, one derived base seed per input.

    Each input runs under input_seed(cfg.base_seed, tag, i), so one
    unlucky plan cannot correlate errors across the whole set and a set
    re-run under the same tag reproduces every verdict.
    """
    return [
        stochastic_inference(model, table, x, replace(cfg, base_seed=input_seed(cfg.base_seed, tag, i)))
        for i, x in enumerate(inputs)
    ]


# ---------------------------------------------------------------------------
# calibration


def first_pass_distances(
    model: Model,
    table: ThresholdTable,
    inputs: Iterable[np.ndarray],
    noise: NoiseConfig,
    base_seeds: list[int],
) -> np.ndarray:
    """One row per base seed of the d_1 that detect_set(..., tag="input") observes; one reference pass per input."""
    columns = []
    for i, x in enumerate(inputs):
        distance = noisy_passes(model, table, x, noise)[2]
        columns.append([distance(input_seed(seed, "input", i), 1) for seed in base_seeds])
    return np.array(columns, dtype=np.float64).reshape(len(columns), len(base_seeds)).T


def calibration_distances(
    model: Model,
    table: ThresholdTable,
    inputs: list[np.ndarray],
    noise: NoiseConfig,
    base_seed: int,
    passes: int,
) -> np.ndarray:
    """Several independent first-pass distances per calibration input, round-major.

    Benign distances are heavy-tailed (rare large spikes over a tiny bulk),
    so the upper quantiles of a single-draw sample move a lot from seed to
    seed and drag the detector's operating point with them. Repeated draws
    per input tighten the quantile estimates without needing more data.
    """
    if passes < 1:
        raise ValueError(f"passes must be at least 1, got {passes}")
    round_seeds = [derive_seed(base_seed, "round", r) for r in range(passes)]
    return first_pass_distances(model, table, inputs, noise, round_seeds).ravel()


def calibrate(benign_l1_samples: np.ndarray, target_fpr: float) -> DetectionThresholds:
    """Thresholds from benign-only first-pass distance quantiles.

    t2_avg is the (1 - fpr) quantile, t1_avg the median, t2_greedy the
    (1 - fpr/4) quantile, t1_greedy the 10th percentile; the ordering
    invariant is enforced by clamping and everything is clipped to [0, 2].
    """
    samples = np.asarray(benign_l1_samples, dtype=np.float64).ravel()
    if samples.size < MIN_CALIBRATION_SAMPLES:
        raise ValueError(f"calibration needs at least {MIN_CALIBRATION_SAMPLES} benign samples, got {samples.size}")
    if not 0.0 < target_fpr < 1.0:
        raise ValueError(f"target_fpr must be in (0, 1), got {target_fpr}")
    t2_avg = float(np.quantile(samples, 1.0 - target_fpr))
    t1_avg = float(np.quantile(samples, 0.5))
    t2_greedy = float(np.quantile(samples, 1.0 - target_fpr / 4.0))
    t1_greedy = float(np.quantile(samples, 0.10))
    t1_avg = min(t1_avg, t2_avg)
    t1_greedy = min(t1_greedy, t1_avg)
    t2_greedy = max(t2_greedy, t2_avg)
    clip = lambda v: float(np.clip(v, 0.0, 2.0))
    return DetectionThresholds(clip(t1_greedy), clip(t2_greedy), clip(t1_avg), clip(t2_avg))
