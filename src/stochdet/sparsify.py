"""Confidence-adaptive model noise.

The reference pass's classification confidence sets a noise budget; the
budget caps per-filter sparsification rates drawn independently for each
noisy pass. Rates snap down to the profiled grid, and weights strictly
below the grid rate's magnitude threshold are dropped for that pass: it
gathers each filter's mask and masked weights at its rate from a bank of
every grid rate (`rate_bank`). High-confidence inputs get more noise:
confident benign inputs tolerate it, while confidently misclassified
adversarial inputs do not.

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

from .model import Model, RATE_GRID, RATE_GRID_STEPS, ThresholdTable, check_settings, setting
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
    """The active-weight masks of one noisy pass, and the weights they leave, keyed by layer index."""

    pass_seed: int
    max_rate: float
    model_fingerprint: str
    masks: dict[int, np.ndarray] = field(default_factory=dict)  # (n_filters, wpf) bool
    weights: dict[int, np.ndarray] = field(default_factory=dict)  # w * mask, in the layer's weight shape

    def nnz(self, layer_idx: int) -> np.ndarray:
        return self.masks[layer_idx].sum(axis=1)

    def achieved_sparsity(self) -> float:
        """Dropped fraction over all weights covered by the plan."""
        total = sum(m.size for m in self.masks.values())
        kept = sum(int(m.sum()) for m in self.masks.values())
        return 1.0 - kept / total if total else 0.0


def rate_bank(model: Model, table: ThresholdTable) -> dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Each noise-eligible layer's (row offsets, masks, masked weights) at every grid rate.

    masks and weights hold n_filters * RATE_GRID_STEPS rows, a filter's flattened mask or its
    weights: row offsets[f] + g is filter f at grid rate g, as the mask |w| >= tau_g and the
    product w * mask. Built on first use and kept on the table (models and tables are fixed once
    made, as Model.fingerprint assumes). It holds RATE_GRID_STEPS times the eligible weights as
    float64 plus bool: 0.5 MB on an (8, 16)-channel, 4-class model at 18x18.

    This is the one check that a table fits a model: its fingerprint, on every call, and, before
    the bank is built, every parametric layer's (filters, RATE_GRID_STEPS) thresholds and RATE_GRID.
    A table that fails it raises PlanMismatch.
    """
    if table.model_fingerprint != model.fingerprint():
        raise PlanMismatch("threshold table was profiled for a different model")
    bank = table.__dict__.get("_bank")
    if bank is None:
        layers = model.parametric_layers()
        if sorted(table.thresholds) != layers:
            raise PlanMismatch(f"threshold table covers layers {sorted(table.thresholds)}, the model's are {layers}")
        for idx in layers:
            shape = table.thresholds[idx].shape
            if shape != (model.params[idx]["w"].shape[0], RATE_GRID_STEPS):
                raise PlanMismatch(f"layer {idx} has thresholds of shape {shape}, not one grid row per filter")
        if not np.array_equal(table.rate_grid, RATE_GRID):
            raise PlanMismatch("threshold table was profiled on a rate grid other than RATE_GRID")
        bank = {}
        for idx in (i for i in layers if model.layers[i].noise_eligible):
            filters, taus = model.filter_matrix(idx), table.thresholds[idx]
            mask = np.abs(filters)[:, None, :] >= taus[:, :, None]
            weights = (filters[:, None, :] * mask.astype(np.float64)).reshape(-1, *model.params[idx]["w"].shape[1:])
            bank[idx] = (np.arange(len(filters)) * RATE_GRID_STEPS, mask.reshape(len(weights), -1), weights)
        table._bank = bank  # only once whole: a refused table stays refused
    return bank


def draw_plan(
    model: Model, table: ThresholdTable, max_rate: float, pass_seed: int
) -> SparsificationPlan:
    """Random sparsification plan for one noisy pass.

    Each noise-eligible filter draws rate ~ Uniform(0, max_rate) from a
    stream keyed by (pass_seed, layer, filter), snaps down to the grid,
    and drops weights strictly below the looked-up threshold. The rates are
    random() * max_rate, the doubles uniform(0, max_rate) returns.
    """
    bank = rate_bank(model, table)
    if not 0.0 <= max_rate < 1.0:
        raise ValueError(f"max_rate must be in [0, 1), got {max_rate}")
    plan = SparsificationPlan(pass_seed=pass_seed, max_rate=max_rate, model_fingerprint=table.model_fingerprint)
    for idx, (offsets, masks, weights) in bank.items():
        rates = substream(pass_seed, "rates", idx).random(len(offsets)) * max_rate
        rows = (rates * RATE_GRID_STEPS).astype(np.intp)  # truncation is the floor: rates are never negative
        rows += offsets
        plan.masks[idx] = masks.take(rows, axis=0)
        plan.weights[idx] = weights.take(rows, axis=0)
    return plan


def noisy_forward(model: Model, plan: SparsificationPlan, x: np.ndarray, start: int = 0, cols=None) -> ProbVector:
    """Forward pass of one input with the plan's weights on every noise-eligible layer.

    x is one input to layer `start` (a row of Model.forward_trace's batch), so a pass can begin
    at its first masked layer from a reference trace's input to it; starting after a masked layer
    is refused. cols, when given, are x's columns for a conv2d layer `start` (nn.conv2d_columns),
    gathered once for every pass over x. It runs as a batch of one.
    """
    if plan.model_fingerprint != model.fingerprint():
        raise PlanMismatch("plan was drawn for a different model")
    if start > min(plan.weights, default=start):
        raise ValueError(f"a pass starting at layer {start} would skip masked layer {min(plan.weights)}")
    return model.run_layers(np.asarray(x, dtype=np.float64)[None], start, plan.weights, cols)[0]


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
    return model.run_layers(model.checked_inputs(np.asarray(x)[None]), act_factors=factors)[0]
