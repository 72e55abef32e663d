"""Shared fixtures: the trained fixture model and derived artifacts.

Training and attack generation are expensive, so everything heavy is
session-scoped and derived deterministically from FIXTURE_SEED.
"""

from __future__ import annotations

import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from stochdet.attacks import AttackConfig, attack_sets, pick_exemplars
from stochdet.data import synth_dataset
from stochdet.detector import calibrate, calibration_distances
from stochdet.model import Model, TrainConfig, conv_pool_arch, loss_gradients, profile_thresholds, train
from stochdet.pipeline import artifact_payload, verify_artifact
from stochdet.rng import derive_seed
from stochdet.sparsify import NoiseConfig

FIXTURE_SEED = 7
TRAIN_SEED = 11  # picked alongside the epoch count when the fixture gates were frozen
TRAIN_EPOCHS = 16
IMAGE_SIZE = 18
TRAIN_COUNT = 4000
TEST_COUNT = 1000
# test-set slices: [0, 300) calibration, [300, 600) benign eval, [600, ...) attack sources
CALIB_SLICE = slice(0, 300)
BENIGN_SLICE = slice(300, 600)
ATTACK_START = 600

CW_STEPS = 300
CW_STEP_SIZE = 0.02
DETECTOR_MAX_RUNS = 3  # the experiment's value, as in pipeline.DetectorSettings


@pytest.fixture(scope="session")
def fixture_data():
    train_set = synth_dataset(derive_seed(FIXTURE_SEED, "train"), TRAIN_COUNT, IMAGE_SIZE)
    test_set = synth_dataset(derive_seed(FIXTURE_SEED, "test"), TEST_COUNT, IMAGE_SIZE)
    return train_set, test_set


@pytest.fixture(scope="session")
def fixture_result(fixture_data):
    train_set, test_set = fixture_data
    arch = conv_pool_arch((8, 16), 3, class_count=4)
    return train(
        train_set,
        arch,
        TrainConfig(lr=0.15, epochs=TRAIN_EPOCHS, seed=TRAIN_SEED, batch_size=16, weight_decay=1e-4),
        test_dataset=test_set,
    )


@pytest.fixture(scope="session")
def fixture_model(fixture_result):
    return fixture_result.model


@pytest.fixture(scope="session")
def fixture_table(fixture_model):
    return profile_thresholds(fixture_model)


@pytest.fixture(scope="session")
def fixture_noise():
    return NoiseConfig()


@pytest.fixture(scope="session")
def benign_eval_inputs(fixture_data):
    _, test_set = fixture_data
    return test_set.images[BENIGN_SLICE]


@pytest.fixture(scope="session")
def calibrated_thresholds(fixture_model, fixture_table, fixture_data, fixture_noise):
    _, test_set = fixture_data
    # thresholds are offline deployment constants of the trained model, so
    # their sampling keys off the training identity, not the detector seed
    distances = calibration_distances(
        fixture_model,
        fixture_table,
        test_set.images[CALIB_SLICE],
        fixture_noise,
        derive_seed(TRAIN_SEED, "calibrate"),
        passes=24,
    )
    return calibrate(distances, 0.05)


@pytest.fixture(scope="session")
def attack_sources(fixture_model, fixture_data):
    """Correctly classified test samples reserved for attack generation."""
    _, test_set = fixture_data
    out = []
    for i in range(ATTACK_START, len(test_set)):
        img, lab = test_set.images[i], test_set.labels[i]
        if fixture_model.predict(img).top_class == lab:
            out.append(img)
    return out


@pytest.fixture(scope="session")
def fixture_exemplars(fixture_model, fixture_data):
    _, test_set = fixture_data
    return pick_exemplars(test_set, fixture_model.predict_batch(test_set.images).probs)


def _cw_set(model, sources, k, count):
    cfg = AttackConfig(kind="cw_l2", target_mode="next", k=k, steps=CW_STEPS, step_size=CW_STEP_SIZE)
    return attack_sets(model, sources[:count], [cfg])[0]


@pytest.fixture(scope="session")
def cw_sets(fixture_model, attack_sources):
    """CW-L2 sweep k in {0, 2, 5}, 230 sources each."""
    return {k: _cw_set(fixture_model, attack_sources, k, 230) for k in (0.0, 2.0, 5.0)}


@pytest.fixture(scope="session")
def defense_aware_sets(fixture_model, attack_sources, fixture_exemplars):
    """Defense-aware sweep beta in {1e-4, 1e-1}, k=2."""
    sets = {}
    for beta in (1e-4, 1e-1):
        cfg = AttackConfig(
            kind="defense_aware", target_mode="next", k=2.0, beta=beta,
            steps=CW_STEPS, step_size=CW_STEP_SIZE,
        )
        sets[beta] = attack_sets(fixture_model, attack_sources[:120], [cfg], fixture_exemplars)[0]
    return sets


def successful_inputs(samples):
    return [s.perturbed for s in samples if s.success]


def clone_with_zeroed(model: Model, masks: dict[int, np.ndarray]) -> Model:
    """Copy of the model with masked weights physically set to zero: the reference for a masked pass."""
    params = {i: {"w": p["w"].copy(), "b": p["b"].copy()} for i, p in model.params.items()}
    for idx, mask in masks.items():
        params[idx]["w"] = params[idx]["w"] * np.asarray(mask, dtype=np.float64).reshape(params[idx]["w"].shape)
    return Model(
        layers=[replace(s) for s in model.layers],
        params=params,
        class_count=model.class_count,
        input_shape=model.input_shape,
    )


def input_gradient(model, x, loss) -> np.ndarray:
    """d(loss)/d(input) of one input x for the mask-free model."""
    return loss_gradients(model, np.asarray(x, dtype=np.float64)[None], loss, param_grads=False)[2][0]


def loss_value(model, x, loss) -> float:
    """The loss of one mask-free forward of one input x, with no backward pass."""
    batch = np.asarray(x, dtype=np.float64)[None]
    trace = model.forward_trace(batch)
    values, _, _ = loss.value_and_grads(trace.logits, trace.probs, batch)
    return float(values[0])


def verified_payload(data: bytes, name: str = "model.bin") -> bytes | None:
    """The payload bytes of a container that `verify` calls ok as the run file `name`, or None for one it does not."""
    with tempfile.TemporaryDirectory() as tmp:  # hypothesis refuses the function-scoped tmp_path
        path = Path(tmp) / name
        path.write_bytes(data)
        return artifact_payload(path)[1] if verify_artifact(path)[0] else None
