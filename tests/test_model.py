"""Training, inference, persistence, and threshold-table profiling."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochdet import nn
from stochdet.data import synth_dataset
from stochdet.rng import substream
from stochdet.model import (
    LayerSpec,
    MODEL_MAGIC,
    Model,
    ModelFormatError,
    RATE_GRID,
    TrainConfig,
    TrainingDiverged,
    conv_pool_arch,
    filter_thresholds,
    init_model,
    load_model,
    loss_gradients,
    save_model,
    train,
)
from tests.conftest import clone_with_zeroed, verified_payload

def small_sets():
    return synth_dataset(21, 300), synth_dataset(22, 120)


# ---------------------------------------------------------------------------
# training


def test_fixture_training_reaches_accuracy_gate(fixture_result):
    assert fixture_result.test_accuracy >= 0.95
    assert fixture_result.train_accuracy >= 0.95


def test_zero_epochs_returns_initialized_model():
    train_set, _ = small_sets()
    arch = conv_pool_arch((4, 8), 3, 4)
    result = train(train_set, arch, TrainConfig(epochs=0, seed=5))
    fresh = init_model(arch, train_set.images[0].shape, 4, seed=5)
    for idx in fresh.parametric_layers():
        np.testing.assert_array_equal(result.model.params[idx]["w"], fresh.params[idx]["w"])
        np.testing.assert_array_equal(result.model.params[idx]["b"], fresh.params[idx]["b"])


def test_training_deterministic_in_seed():
    train_set, _ = small_sets()
    arch = conv_pool_arch((4, 8), 3, 4)
    a = train(train_set, arch, TrainConfig(epochs=2, seed=9))
    b = train(train_set, arch, TrainConfig(epochs=2, seed=9))
    for idx in a.model.parametric_layers():
        np.testing.assert_array_equal(a.model.params[idx]["w"], b.model.params[idx]["w"])


def _train_one_sample_at_a_time(dataset, arch, hyper):
    """Oracle: minibatch SGD with one forward and backward per sample, gradients summed in sample order."""
    model = init_model(arch, dataset.images[0].shape, dataset.class_count, hyper.seed)
    epoch_losses = []
    for epoch in range(hyper.epochs):
        order = substream(hyper.seed, "shuffle", epoch).permutation(len(dataset))
        total = 0.0
        for start in range(0, len(dataset), hyper.batch_size):
            batch = order[start : start + hyper.batch_size]
            acc, batch_loss = {}, 0.0
            for i in batch:
                loss = nn.CrossEntropyLoss(dataset.labels[i])
                _, values, _, grads = loss_gradients(model, dataset.images[i][None], loss)
                batch_loss += float(values[0])
                for idx, g in grads.items():
                    if idx not in acc:
                        acc[idx] = {"w": g["w"][0].copy(), "b": g["b"][0].copy()}
                    else:
                        acc[idx]["w"] += g["w"][0]
                        acc[idx]["b"] += g["b"][0]
            for idx, g in acc.items():
                model.params[idx]["w"] -= hyper.lr / len(batch) * g["w"]
                if hyper.weight_decay:
                    model.params[idx]["w"] -= hyper.lr * hyper.weight_decay * model.params[idx]["w"]
                model.params[idx]["b"] -= hyper.lr / len(batch) * g["b"]
            total += batch_loss
        epoch_losses.append(total / len(dataset))
    return model, epoch_losses


@pytest.mark.parametrize("batch_size", [1, 7, 16])
def test_batched_training_equals_the_per_sample_oracle_bytewise(batch_size):
    train_set = synth_dataset(23, 45)
    arch = conv_pool_arch((4, 8), 3, 4)
    hyper = TrainConfig(epochs=2, seed=3, batch_size=batch_size)
    result = train(train_set, arch, hyper)
    oracle, losses = _train_one_sample_at_a_time(train_set, arch, hyper)
    assert result.epoch_losses == losses
    for idx in oracle.parametric_layers():
        for name in ("w", "b"):
            assert result.model.params[idx][name].tobytes() == oracle.params[idx][name].tobytes()


def test_divergence_aborts_with_report():
    train_set, _ = small_sets()
    arch = conv_pool_arch((4, 8), 3, 4)
    with np.errstate(all="ignore"), pytest.raises(TrainingDiverged, match="epoch 0"):
        train(train_set, arch, TrainConfig(lr=1e308, epochs=1, seed=1))


def test_arch_must_end_in_softmax():
    with pytest.raises(ModelFormatError, match="softmax"):
        init_model([LayerSpec("dense", out_features=4)], (1, 4, 4), 4, 0)


# ---------------------------------------------------------------------------
# predict


def test_uniform_output_when_final_dense_zeroed(fixture_model):
    model = clone_with_zeroed(fixture_model, {})
    dense_idx = model.parametric_layers()[-1]
    model.params[dense_idx]["w"][:] = 0.0
    model.params[dense_idx]["b"][:] = 0.0
    pv = model.predict(np.full(model.input_shape, 0.3))
    np.testing.assert_allclose(pv.probs, 0.25, atol=1e-15)


def test_forward_reads_reassigned_and_in_place_parameters(fixture_model):
    """Bound layer calls read the parameters on every call, as training and tests update them."""
    model = clone_with_zeroed(fixture_model, {})
    x = np.full(model.input_shape, 0.3)
    dense_idx = model.parametric_layers()[-1]

    def fresh():  # a new Model over the current parameter arrays
        return Model(model.layers, {i: dict(p) for i, p in model.params.items()}, model.class_count, model.input_shape)

    before = model.predict(x)
    model.params[dense_idx]["w"] = model.params[dense_idx]["w"] * 0.5  # reassigned
    reassigned = model.predict(x)
    assert reassigned.probs.tobytes() == fresh().predict(x).probs.tobytes() != before.probs.tobytes()
    model.params[dense_idx]["b"] += 1.0  # in place
    model.params[0]["w"] *= 0.5
    in_place = model.predict(x)
    assert in_place.logits.tobytes() == fresh().predict(x).logits.tobytes() != reassigned.logits.tobytes()


def test_predict_equals_manual_layer_composition(fixture_model, fixture_data):
    _, test_set = fixture_data
    x = test_set.images[0]
    out = x[None]
    for idx, spec in enumerate(fixture_model.layers):
        if spec.kind == "conv2d":
            p = fixture_model.params[idx]
            out = nn.conv2d_forward(out, p["w"], p["b"], spec.stride)
        elif spec.kind == "relu":
            out = nn.relu_forward(out)
        elif spec.kind == "maxpool2d":
            out = nn.maxpool2d_forward(out)
        elif spec.kind == "dense":
            p = fixture_model.params[idx]
            out = nn.dense_forward(out, p["w"], p["b"])
        elif spec.kind == "softmax":
            out = nn.softmax(out).probs
    np.testing.assert_array_equal(fixture_model.predict(x).probs, out[0])


def test_fixture_accuracy_gate_on_predictions(fixture_model, fixture_data):
    _, test_set = fixture_data
    hits = sum(
        1
        for img, lab in zip(test_set.images, test_set.labels)
        if fixture_model.predict(img).top_class == lab
    )
    assert hits / len(test_set) >= 0.95


def test_predict_referentially_transparent(fixture_model, fixture_data):
    _, test_set = fixture_data
    x = test_set.images[5]
    np.testing.assert_array_equal(fixture_model.predict(x).probs, fixture_model.predict(x).probs)


def test_predict_rejects_wrong_shape(fixture_model):
    with pytest.raises(nn.ShapeError, match="does not match model input"):
        fixture_model.predict(np.zeros((1, 4, 4)))


# ---------------------------------------------------------------------------
# persistence


def test_save_load_roundtrip_bitwise(fixture_model):
    blob = save_model(fixture_model)
    assert verified_payload(blob) is not None  # saved without provenance, it still declares its payload hash
    loaded = load_model(blob)
    assert loaded.class_count == fixture_model.class_count
    assert loaded.input_shape == fixture_model.input_shape
    for idx in fixture_model.parametric_layers():
        np.testing.assert_array_equal(loaded.params[idx]["w"], fixture_model.params[idx]["w"])
        np.testing.assert_array_equal(loaded.params[idx]["b"], fixture_model.params[idx]["b"])
        assert loaded.layers[idx].noise_eligible == fixture_model.layers[idx].noise_eligible
    # behavioral identity
    x = np.full(fixture_model.input_shape, 0.4)
    np.testing.assert_array_equal(loaded.predict(x).probs, fixture_model.predict(x).probs)


def test_truncated_blob_rejected(fixture_model):
    blob = save_model(fixture_model)
    with pytest.raises(ModelFormatError, match="blob has"):
        load_model(blob[:-16])


def test_corrupt_manifest_names_offending_layer(fixture_model):
    data = save_model(fixture_model)
    (manifest_len,) = struct.unpack_from("<Q", data, len(MODEL_MAGIC))
    start = len(MODEL_MAGIC) + 8
    manifest = json.loads(data[start : start + manifest_len])
    # claim a conv weight shape inconsistent with the blob
    conv_entry = next(e for e in manifest["layers"] if e["kind"] == "conv2d")
    conv_entry["w_shape"] = [512, 512, 9, 9]
    raw = json.dumps(manifest, sort_keys=True).encode()
    corrupted = MODEL_MAGIC + struct.pack("<Q", len(raw)) + raw + data[start + manifest_len :]
    with pytest.raises(ModelFormatError, match=r"layer 0 \(conv2d\)"):
        load_model(corrupted)


def test_unknown_layer_kind_rejected(fixture_model):
    data = save_model(fixture_model)
    (manifest_len,) = struct.unpack_from("<Q", data, len(MODEL_MAGIC))
    start = len(MODEL_MAGIC) + 8
    manifest = json.loads(data[start : start + manifest_len])
    manifest["layers"][1]["kind"] = "batchnorm"
    raw = json.dumps(manifest, sort_keys=True).encode()
    corrupted = MODEL_MAGIC + struct.pack("<Q", len(raw)) + raw + data[start + manifest_len :]
    with pytest.raises(ModelFormatError, match="unknown layer kind"):
        load_model(corrupted)


def test_bad_magic_rejected():
    with pytest.raises(ModelFormatError, match="bad magic"):
        load_model(b"NOTAMODEL" + bytes(64))


def _tiny_container() -> bytes:
    arch = [LayerSpec("conv2d", out_channels=2, kernel=3), LayerSpec("relu"), LayerSpec("maxpool2d")]
    arch += [LayerSpec("dense", out_features=3), LayerSpec("softmax")]
    return save_model(init_model(arch, (1, 6, 6), 3, seed=4))


def _model_with_manifest(manifest: bytes, blob: bytes = b"") -> bytes:
    return MODEL_MAGIC + struct.pack("<Q", len(manifest)) + manifest + blob


def _edit_manifest(data: bytes, edit) -> bytes:
    (manifest_len,) = struct.unpack_from("<Q", data, len(MODEL_MAGIC))
    start = len(MODEL_MAGIC) + 8
    manifest = json.loads(data[start : start + manifest_len])
    edit(manifest)
    return _model_with_manifest(json.dumps(manifest).encode(), data[start + manifest_len :])


def _tiny_without(layer: int, key: str) -> bytes:
    return _edit_manifest(_tiny_container(), lambda m: m["layers"][layer].pop(key))


def _dense_softmax_dense_softmax() -> bytes:
    """A well-formed container, but for a softmax between its two dense layers."""
    arch = [LayerSpec("dense", out_features=3), LayerSpec("dense", out_features=3), LayerSpec("softmax")]
    data = save_model(init_model(arch, (1, 2, 2), 3, seed=4))
    return _edit_manifest(data, lambda m: m["layers"].insert(1, {"kind": "softmax", "noise_eligible": True}))


@pytest.mark.parametrize(
    "data, match",
    [
        (_model_with_manifest(b"{}"), "blob_bytes"),
        (_model_with_manifest(b"[1]"), "mistypes"),
        (_model_with_manifest(b'{"blob_bytes": 0}'), "layers"),
        (_tiny_without(3, "w_offset"), "w_offset"),
        (_tiny_without(0, "kernel"), "conv2d layer sizes"),
        (_dense_softmax_dense_softmax(), "softmax may only be the last layer"),
    ],
    ids=["empty-object", "root-list", "no-layers", "dense-without-w_offset", "conv-without-kernel", "inner-softmax"],
)
def test_load_model_typed_errors(data, match):
    with pytest.raises(ModelFormatError, match=match):
        load_model(data)


def _overwrite_model(at: int, patch: bytes) -> bytes:
    data = _tiny_container()
    return data[:at] + patch + data[at + len(patch) :]


@given(
    st.one_of(
        st.binary(max_size=200),
        st.binary(max_size=200).map(_model_with_manifest),
        st.builds(_overwrite_model, st.integers(0, 700), st.binary(min_size=1, max_size=4)),
        st.builds(_overwrite_model, st.integers(0, 700), st.sampled_from([b"0", b"9", b"-", b"[", b'"', b"1.5"])),
        st.integers(0, 1200).map(lambda n: _tiny_container()[:n]),
    )
)
@settings(max_examples=300, deadline=None)
def test_load_model_fuzz_yields_typed_error_or_model(data):
    # verify never raises, and passes only a container whose payload is the one saved
    assert verified_payload(data) in (None, verified_payload(_tiny_container()))
    try:
        model = load_model(data)
    except ModelFormatError:
        return
    # whatever loads is self-consistent: it saves and reloads to the same model
    assert model.layer_input_shapes[-1] == (model.class_count,)
    assert load_model(save_model(model)).fingerprint() == model.fingerprint()


# ---------------------------------------------------------------------------
# threshold profiling


def test_filter_thresholds_order_statistic_by_hand():
    taus = filter_thresholds(np.array([1.0, 2.0, 3.0, 4.0]))
    r_half = int(np.argwhere(np.isclose(RATE_GRID, 0.5))[0][0])
    assert 2.0 < taus[r_half] < 3.0  # drops {1, 2}, keeps {3, 4}
    dropped = (np.abs([1.0, 2.0, 3.0, 4.0]) < taus[r_half]).sum()
    assert dropped == 2


def test_rate_zero_drops_nothing():
    taus = filter_thresholds(np.array([0.5, 1.5, 2.5]))
    assert taus[0] == 0.0


def test_equal_magnitudes_never_dropped():
    taus = filter_thresholds(np.array([2.0, -2.0, 2.0, 2.0]))
    assert (taus == 0.0).all()  # ties are kept: no achievable cut below rate 1


def test_threshold_monotone_in_rate(fixture_table):
    for layer_taus in fixture_table.thresholds.values():
        diffs = np.diff(layer_taus, axis=1)
        assert (diffs >= 0).all()
        assert (layer_taus[:, 0] == 0.0).all()


def test_achieved_rate_bound_against_sort_oracle(fixture_model, fixture_table):
    for idx in fixture_model.parametric_layers():
        filters = fixture_model.filter_matrix(idx)
        taus = fixture_table.thresholds[idx]
        for f in range(filters.shape[0]):
            mags = np.sort(np.abs(filters[f]))
            n = mags.size
            for gi, rate in enumerate(RATE_GRID):
                drop = int((np.abs(filters[f]) < taus[f, gi]).sum())
                assert drop / n <= rate + 1e-12
                # maximality: the oracle walks achievable counts from floor(r*n) down
                k = int(np.floor(rate * n + 1e-12))
                k = min(k, n - 1)
                while k > 0 and not (mags[k] > mags[k - 1]):
                    k -= 1
                assert drop == k


@given(
    st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=40),
    st.floats(0, 0.97),
)
@settings(max_examples=80)
def test_threshold_rule_property(weights, rate):
    mags = np.array(weights)
    grid_idx = int(np.floor(rate * 32))
    taus = filter_thresholds(mags)
    tau = taus[grid_idx]
    dropped = np.abs(mags) < tau
    # never drops more than the snapped rate allows, never drops a tie group partially
    assert dropped.sum() <= np.floor(RATE_GRID[grid_idx] * mags.size) + 1e-9
    kept_mags = np.abs(mags)[~dropped]
    if dropped.any() and kept_mags.size:
        assert np.abs(mags)[dropped].max() < kept_mags.min()


def test_profile_covers_all_parametric_layers(fixture_model, fixture_table):
    assert set(fixture_table.thresholds) == set(fixture_model.parametric_layers())
    for idx in fixture_model.parametric_layers():
        n_filters = fixture_model.filter_matrix(idx).shape[0]
        assert fixture_table.thresholds[idx].shape == (n_filters, 32)


def test_table_json_roundtrip(fixture_table):
    from stochdet.model import ThresholdTable

    restored = ThresholdTable.from_json(fixture_table.to_json())
    assert restored.model_fingerprint == fixture_table.model_fingerprint
    for idx, taus in fixture_table.thresholds.items():
        np.testing.assert_array_equal(restored.thresholds[idx], taus)
