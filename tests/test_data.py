"""Synthetic corpus and IDX format tests."""

import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stochdet.data import (
    Dataset,
    IdxFormatError,
    load_idx_dataset,
    parse_idx,
    serialize_idx,
    synth_dataset,
)
from stochdet.pipeline import load_dataset_spec


def test_same_seed_bitwise_identical():
    a = synth_dataset(99, 50)
    b = synth_dataset(99, 50)
    assert a.labels == b.labels
    for ia, ib in zip(a.images, b.images):
        np.testing.assert_array_equal(ia, ib)


def test_class_frequencies_balanced():
    ds = synth_dataset(7, 4000)
    counts = np.bincount(ds.labels, minlength=4)
    for c in counts:
        assert 0.20 <= c / 4000 <= 0.30


def test_pixels_clipped_to_unit_interval():
    ds = synth_dataset(3, 100)
    for img in ds.images:
        assert img.min() >= 0.0 and img.max() <= 1.0
        assert img.shape == (1, 18, 18)


def test_rejects_bad_arguments():
    with pytest.raises(ValueError, match="count"):
        synth_dataset(1, 0)
    with pytest.raises(ValueError, match="image_size"):
        synth_dataset(1, 10, image_size=11)


def test_split_by_seed_partition_is_disjoint():
    train = load_dataset_spec("synth:7", 200, 18, "train")
    test = load_dataset_spec("synth:7", 100, 18, "test")
    train_keys = {img.tobytes() for img in train.images}
    assert not any(img.tobytes() in train_keys for img in test.images)


def test_classes_are_visually_distinct():
    ds = synth_dataset(5, 400)
    means = {}
    for img, lab in zip(ds.images, ds.labels):
        means.setdefault(lab, []).append(img.mean())
    # filled square carries far more foreground mass than the stripe
    assert np.mean(means[0]) > np.mean(means[3]) + 0.05


def test_dataset_validates_labels():
    with pytest.raises(ValueError, match="label"):
        Dataset(images=[np.zeros((1, 4, 4))], labels=[9], class_count=4)
    with pytest.raises(ValueError, match="images"):
        Dataset(images=[np.zeros((1, 4, 4))], labels=[0, 1], class_count=4)


# ---------------------------------------------------------------------------
# IDX


def test_parse_label_file():
    data = bytes([0, 0, 8, 1, 0, 0, 0, 3, 7, 2, 9])
    labels = parse_idx(data)
    assert labels.dtype == np.int64
    np.testing.assert_array_equal(labels, [7, 2, 9])


def test_parse_image_file_normalizes_by_255():
    data = bytes([0, 0, 8, 3]) + (1).to_bytes(4, "big") + (2).to_bytes(4, "big") + (2).to_bytes(4, "big")
    data += bytes([0, 255, 51, 102])
    t = parse_idx(data)
    np.testing.assert_allclose(t, [[[0.0, 1.0], [0.2, 0.4]]], atol=1e-12)


def test_truncated_stream_rejected():
    with pytest.raises(IdxFormatError, match="shorter than the IDX magic"):
        parse_idx(bytes([0, 0, 8]))
    data = bytes([0, 0, 8, 1, 0, 0, 0, 9, 1, 2])
    with pytest.raises(IdxFormatError, match="truncated payload"):
        parse_idx(data)


def test_bad_magic_and_type_code_are_distinct_errors():
    with pytest.raises(IdxFormatError, match="bad magic"):
        parse_idx(bytes([1, 0, 8, 1, 0, 0, 0, 0]))
    with pytest.raises(IdxFormatError, match="unsupported type code"):
        parse_idx(bytes([0, 0, 13, 1, 0, 0, 0, 0]))


def test_roundtrip_reproduces_stream():
    original = bytes([0, 0, 8, 3]) + b"".join(n.to_bytes(4, "big") for n in (2, 3, 3))
    original += bytes(range(18))
    assert serialize_idx(parse_idx(original)) == original
    labels = bytes([0, 0, 8, 1, 0, 0, 0, 4, 3, 1, 0, 2])
    assert serialize_idx(parse_idx(labels)) == labels


def test_load_idx_dataset():
    images = serialize_idx(np.stack([np.full((4, 4), i / 10) for i in range(3)]))
    labels = serialize_idx(np.array([0, 1, 2]))
    ds = load_idx_dataset(images, labels)
    assert len(ds) == 3 and ds.class_count == 3
    assert ds.images[0].shape == (1, 4, 4)
    with pytest.raises(IdxFormatError, match="images but"):
        load_idx_dataset(images, serialize_idx(np.array([0, 1])))


def test_rank_zero_stream_rejected():
    with pytest.raises(IdxFormatError, match="rank 0"):
        parse_idx(bytes([0, 0, 8, 0]))


def test_extents_whose_product_wraps_int64_rejected():
    # 2**24 cubed is 2**72, which a 64-bit product would wrap to 0 = the empty payload
    header = bytes([0, 0, 8, 3]) + (2**24).to_bytes(4, "big") * 3
    with pytest.raises(IdxFormatError, match="truncated payload"):
        parse_idx(header)


def _idx_header(ndim: int, extents: list[int]) -> bytes:
    return bytes([0, 0, 8, ndim]) + b"".join(e.to_bytes(4, "big") for e in extents)


@given(
    st.one_of(
        st.binary(max_size=64),
        st.builds(
            lambda ndim, extents, payload: _idx_header(ndim, extents) + payload,
            st.integers(0, 4),
            st.lists(st.integers(0, 2**32 - 1) | st.integers(0, 4), max_size=4),
            st.binary(max_size=64),
        ),
    )
)
@example(bytes([0, 0, 8, 4]) + struct.pack(">4I", 0, 2**20, 2**20, 2**20))  # empty, yet too big for float64
@settings(max_examples=300, deadline=None)
def test_parse_idx_fuzz_yields_typed_error_or_array(data):
    try:
        arr = parse_idx(data)
    except IdxFormatError:
        return
    assert isinstance(arr, np.ndarray) and arr.ndim == data[3]
