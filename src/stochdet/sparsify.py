"""Confidence-adaptive model noise.

The reference pass's classification confidence sets a noise budget; the
budget caps per-filter sparsification rates drawn independently for each
noisy pass. Rates snap down to the profiled grid, map to a magnitude
threshold, and weights strictly below the threshold are dropped for that
pass. High-confidence inputs get more noise: confident benign inputs
tolerate it, while confidently misclassified adversarial inputs do not.

The study function `noisy_activation_forward` perturbs relu outputs
multiplicatively instead of dropping weights, with one flat level for every input. Ranked by
detection at a matched benign FPR and by AUROC, adaptive sparsification
beats strong (0.9) flat activation noise but not weak (0.1) flat noise.
On the acceptance-suite fixture (criterion 7) every benign input is
confident, so weak flat noise leaves its output still, while CW inputs
that stop just past the decision boundary move. Adaptive sparsification runs those confident
inputs at the budget cap and leaves a benign tail of larger distances.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .model import Model, RATE_GRID_STEPS, ThresholdTable, check_settings, setting
from .nn import ProbVector
from .rng import substream


class PlanMismatch(ValueError):
    """Plan or table built for a different model."""


@dataclass
class NoiseConfig:
    sr_lo: float = setting(0.1, float, ge=0, lt=1)
    sr_hi: float = setting(0.8, float, ge=0, lt=1)
    gamma: float = setting(4.0, float, gt=0)

    def __post_init__(self) -> None:
        check_settings(self, ValueError)
        if self.sr_lo > self.sr_hi:
            raise ValueError(f"sr_lo must be <= sr_hi, got {self.sr_lo!r} > {self.sr_hi!r}")


def confidence(ref: ProbVector) -> float:
    """Top-2 probability margin of the reference classification."""
    p = ref.probs
    if p.size < 2:
        raise ValueError("confidence needs at least two classes")
    top2 = np.partition(p, -2)[-2:]
    return float(top2[1] - top2[0])


def noise_budget(conf: float, cfg: NoiseConfig) -> float:
    """Maximum sparsification rate for a given confidence.

    Saturating exponential with endpoints pinned: budget(0) = sr_lo,
    budget(1) = sr_hi, strictly increasing in between.
    """
    conf = min(max(float(conf), 0.0), 1.0)
    rise = (1.0 - np.exp(-cfg.gamma * conf)) / (1.0 - np.exp(-cfg.gamma))
    return cfg.sr_lo + (cfg.sr_hi - cfg.sr_lo) * float(rise)


@dataclass
class SparsificationPlan:
    """The active-weight masks of one noisy pass, keyed by layer index."""

    pass_seed: int
    max_rate: float
    model_fingerprint: str
    masks: dict[int, np.ndarray] = field(default_factory=dict)  # (n_filters, wpf) bool

    def nnz(self, layer_idx: int) -> np.ndarray:
        return self.masks[layer_idx].sum(axis=1)

    def achieved_sparsity(self) -> float:
        """Dropped fraction over all weights covered by the plan."""
        total = sum(m.size for m in self.masks.values())
        kept = sum(int(m.sum()) for m in self.masks.values())
        return 1.0 - kept / total if total else 0.0


def draw_plan(
    model: Model, table: ThresholdTable, max_rate: float, pass_seed: int
) -> SparsificationPlan:
    """Random sparsification plan for one noisy pass.

    Each noise-eligible filter draws rate ~ Uniform(0, max_rate) from a
    stream keyed by (pass_seed, layer, filter), snaps down to the grid,
    and drops weights strictly below the looked-up threshold.
    """
    fp = model.fingerprint()
    if table.model_fingerprint != fp:
        raise PlanMismatch("threshold table was profiled for a different model")
    if not 0.0 <= max_rate < 1.0:
        raise ValueError(f"max_rate must be in [0, 1), got {max_rate}")
    plan = SparsificationPlan(pass_seed=pass_seed, max_rate=max_rate, model_fingerprint=fp)
    for idx in model.parametric_layers():
        if not model.layers[idx].noise_eligible:
            continue
        filters = model.filter_matrix(idx)
        n_filters = filters.shape[0]
        rates = substream(pass_seed, "rates", idx).uniform(0.0, max_rate, size=n_filters)
        grid_idx = np.floor(rates * RATE_GRID_STEPS).astype(int)
        taus = table.thresholds[idx][np.arange(n_filters), grid_idx]
        plan.masks[idx] = np.abs(filters) >= taus[:, None]
    return plan


def noisy_forward(model: Model, plan: SparsificationPlan, x: np.ndarray, start: int = 0) -> ProbVector:
    """Forward pass of one input with the plan's masks on every noise-eligible layer.

    x is one input to layer `start` (a row of Model.forward_trace's batch),
    so a pass can begin at its first masked layer from a reference trace's
    input to it; starting after a masked layer is refused. It runs as a
    batch of one.
    """
    if plan.model_fingerprint != model.fingerprint():
        raise PlanMismatch("plan was drawn for a different model")
    if start > min(plan.masks, default=start):
        raise ValueError(f"a pass starting at layer {start} would skip masked layer {min(plan.masks)}")
    return model.forward_trace(np.asarray(x)[None], masks=plan.masks, start=start).output[0]


def noisy_activation_forward(
    model: Model, level: float, x: np.ndarray, pass_seed: int
) -> ProbVector:
    """Study mode, one input: each eligible relu output v becomes v*(1+d), d~U(-a, a)."""
    if not 0.0 <= level < 1.0:
        raise ValueError(f"activation noise level must be in [0, 1), got {level}")
    factors: dict[int, np.ndarray] = {}
    if level > 0.0:
        for idx, spec in enumerate(model.layers):
            if spec.kind == "relu" and spec.noise_eligible:
                shape = model.layer_input_shapes[idx]  # relu preserves shape
                delta = substream(pass_seed, "act", idx).uniform(-level, level, size=shape)
                factors[idx] = 1.0 + delta
    return model.forward_trace(np.asarray(x)[None], act_factors=factors).output[0]
