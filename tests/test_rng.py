"""Determinism and independence of the keyed random streams."""

import numpy as np
import pytest

from stochdet.rng import _label_words, _seed_sequence, derive_seed, substream


def test_substream_reproducible():
    a = substream(42, "plan", 3, 1).uniform(size=16)
    b = substream(42, "plan", 3, 1).uniform(size=16)
    np.testing.assert_array_equal(a, b)


def test_substream_order_independent():
    # opening other streams in between must not perturb a stream's output
    first = substream(42, "a").uniform(size=4)
    substream(42, "b").uniform(size=100)
    again = substream(42, "a").uniform(size=4)
    np.testing.assert_array_equal(first, again)


def test_substream_distinct_paths_differ():
    a = substream(42, "pass", 1).uniform(size=8)
    b = substream(42, "pass", 2).uniform(size=8)
    c = substream(43, "pass", 1).uniform(size=8)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_string_labels_stable_across_processes():
    # blake2b-backed labels, not the salted builtin hash
    assert derive_seed(7, "calibrate") == derive_seed(7, "calibrate")
    assert derive_seed(7, "calibrate") != derive_seed(7, "detect")


def test_derive_seed_is_64_bit():
    seeds = {derive_seed(1, "x", i) for i in range(64)}
    assert len(seeds) == 64
    assert all(0 <= s < 2**64 for s in seeds)


def test_int_and_string_labels_do_not_collide_trivially():
    assert derive_seed(7, 1) != derive_seed(7, "1")


BASE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, -1, -(2**40) + 3, np.uint64(2**63 + 5)]
PATHS = [(), ("pass",), (0,), ("pass", 1), ("rates", 3, "input", 2**32, 2**64 - 1, -7, "round", 0, "x" * 50)]


@pytest.mark.parametrize("base_seed", BASE_SEEDS, ids=str)
@pytest.mark.parametrize("path", PATHS, ids=str)
def test_preassembled_entropy_matches_numpy_spawn_key(base_seed, path):
    # the sequence numpy builds from (entropy, spawn_key), which the streams were defined by
    key = tuple(w for label in path for w in _label_words(label))
    expected = np.random.SeedSequence(entropy=int(base_seed) & 0xFFFFFFFFFFFFFFFF, spawn_key=key)
    np.testing.assert_array_equal(_seed_sequence(base_seed, path).generate_state(8), expected.generate_state(8))


def test_preassembled_entropy_matches_numpy_on_random_cases():
    rng = np.random.default_rng(3)
    labels = ["pass", "rates", "input", "", "benign"]
    for _ in range(2000):
        base_seed = int(rng.integers(-(2**63), 2**63)) >> int(rng.integers(0, 64))
        path = tuple(
            labels[int(rng.integers(len(labels)))] if rng.random() < 0.5 else int(rng.integers(0, 2**63))
            for _ in range(int(rng.integers(0, 7)))
        )
        key = tuple(w for label in path for w in _label_words(label))
        expected = np.random.SeedSequence(entropy=base_seed & 0xFFFFFFFFFFFFFFFF, spawn_key=key)
        np.testing.assert_array_equal(_seed_sequence(base_seed, path).generate_state(4), expected.generate_state(4))


@pytest.mark.parametrize("base_seed", [1.5, 7.0, "7", True, None])
def test_non_integer_base_seed_is_rejected(base_seed):
    with pytest.raises(TypeError, match="base seed must be an integer"):
        derive_seed(base_seed, "a")
    with pytest.raises(TypeError, match="base seed must be an integer"):
        substream(base_seed)


EDGE_RATES = [0.0, 5e-324, 0.8, float(np.nextafter(1.0, 0.0))]


def test_rate_draw_equals_uniform_bytewise():
    """draw_plan's rates, random(n) * m, are the doubles uniform(0.0, m, n) returns."""
    rng = np.random.default_rng(8)
    cases = [(int(seed), m) for seed in BASE_SEEDS for m in EDGE_RATES]
    for _ in range(20_000):
        seed = int(rng.integers(-(2**63), 2**63)) >> int(rng.integers(0, 64))
        cases.append((seed, EDGE_RATES[int(rng.integers(4))] if rng.random() < 0.2 else float(rng.random())))
    for seed, m in cases:
        n, layer = 1 + seed % 24, seed % 9
        got = substream(seed, "rates", layer).random(n) * m
        assert got.tobytes() == substream(seed, "rates", layer).uniform(0.0, m, n).tobytes(), (seed, m)
