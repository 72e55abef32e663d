"""Stochastic-inference adversarial input detection for small CNNs.

The defense runs one clean reference pass, then re-runs the input under
confidence-adaptive random weight sparsification and compares output
distributions; adversarial inputs destabilize far more than benign ones.
Ships with white-box attack generators (including a defense-aware one)
and a cycle model of the dynamically sparsified accelerator.
"""

__version__ = "0.1.0"

from types import ModuleType as _Module

# every name imported below is the package's API, and __all__ lists them all
from .nn import ProbVector, ShapeError
from .data import Dataset, synth_dataset, parse_idx, serialize_idx
from .model import LayerSpec, Model, ThresholdTable, TrainConfig, conv_pool_arch, load_model, profile_thresholds
from .model import save_model, train
from .sparsify import NoiseConfig, SparsificationPlan, confidence, draw_plan, noise_budget
from .sparsify import noisy_activation_forward, noisy_forward
from .detector import DetectionThresholds, DetectionVerdict, DetectorConfig, calibrate, detect_set, l1_distance
from .detector import stochastic_inference
from .attacks import AdversarialSample, AttackConfig, attack_sets, pick_exemplars, run_attack, select_target
from .accelsim import AcceleratorConfig, CycleReport, group_filters, mask_stream_trace, simulate_layer, simulate_model

__all__ = ["__version__"] + [n for n, v in list(globals().items()) if n[0] != "_" and not isinstance(v, _Module)]
