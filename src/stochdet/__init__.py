"""Stochastic-inference adversarial input detection for small CNNs.

The defense runs one clean reference pass, then re-runs the input under
confidence-adaptive random weight sparsification and compares output
distributions; adversarial inputs destabilize far more than benign ones.
Ships with white-box attack generators (including a defense-aware one)
and a cycle model of the dynamically sparsified accelerator.
"""

__version__ = "0.1.0"

from .nn import ProbVector, ShapeError
from .data import Dataset, synth_dataset, parse_idx, serialize_idx
from .model import (
    LayerSpec,
    Model,
    ThresholdTable,
    TrainConfig,
    conv_pool_arch,
    input_gradient,
    load_model,
    profile_thresholds,
    save_model,
    train,
)
from .sparsify import (
    NoiseConfig,
    SparsificationPlan,
    confidence,
    draw_plan,
    noise_budget,
    noisy_activation_forward,
    noisy_forward,
)
from .detector import (
    DetectionThresholds,
    DetectionVerdict,
    DetectorConfig,
    calibrate,
    detect_set,
    l1_distance,
    stochastic_inference,
)
from .attacks import (
    AdversarialSample,
    AttackConfig,
    attack_sets,
    pick_exemplars,
    run_attack,
    select_target,
)
from .accelsim import (
    AcceleratorConfig,
    CycleReport,
    group_filters,
    mask_stream_trace,
    simulate_layer,
    simulate_model,
)

__all__ = [
    "__version__",
    "ProbVector",
    "ShapeError",
    "Dataset",
    "synth_dataset",
    "parse_idx",
    "serialize_idx",
    "LayerSpec",
    "Model",
    "ThresholdTable",
    "TrainConfig",
    "conv_pool_arch",
    "input_gradient",
    "load_model",
    "profile_thresholds",
    "save_model",
    "train",
    "NoiseConfig",
    "SparsificationPlan",
    "confidence",
    "draw_plan",
    "noise_budget",
    "noisy_activation_forward",
    "noisy_forward",
    "DetectionThresholds",
    "DetectionVerdict",
    "DetectorConfig",
    "calibrate",
    "detect_set",
    "l1_distance",
    "stochastic_inference",
    "AdversarialSample",
    "AttackConfig",
    "attack_sets",
    "pick_exemplars",
    "run_attack",
    "select_target",
    "AcceleratorConfig",
    "CycleReport",
    "group_filters",
    "mask_stream_trace",
    "simulate_layer",
    "simulate_model",
]
