"""Cost-model hand examples, grouping optimality, and replay oracles."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochdet.accelsim import (
    AcceleratorConfig,
    group_filters,
    mask_stream_trace,
    simulate_layer,
    simulate_model,
)
from stochdet.rng import derive_seed, substream
from stochdet.sparsify import draw_plan


def prefix_masks(nnz_list, length):
    """Masks whose active weights sit at the lowest indices (lockstep-friendly)."""
    return [np.array([1] * n + [0] * (length - n)) for n in nnz_list]


# ---------------------------------------------------------------------------
# grouping


def test_group_filters_sorts_descending_and_chunks(fixture_model, fixture_table):
    plan = draw_plan(fixture_model, fixture_table, 0.7, pass_seed=derive_seed(1, "g"))
    layer = next(iter(plan.masks))
    cfg = AcceleratorConfig(group_size=4)
    groups = group_filters(plan, layer, cfg)
    nnz = plan.nnz(layer)
    flat = [n for g in groups for _, n in g]
    assert flat == sorted(nnz.tolist(), reverse=True)
    assert all(len(g) <= 4 for g in groups)
    assert sorted(fid for g in groups for fid, _ in g) == list(range(nnz.size))


def test_group_hand_example_2_3_4_5():
    # nnz [2,3,4,5] with group size 2 -> [5,4], [3,2]
    masks = np.array(prefix_masks([2, 3, 4, 5], 6))
    plan = _FakePlan({0: masks})
    groups = group_filters(plan, 0, AcceleratorConfig(group_size=2))
    assert [[n for _, n in g] for g in groups] == [[5, 4], [3, 2]]


def test_single_group_when_group_size_large():
    masks = np.array(prefix_masks([1, 2, 3], 4))
    plan = _FakePlan({0: masks})
    assert len(group_filters(plan, 0, AcceleratorConfig(group_size=16))) == 1


class _FakePlan:
    """Just enough of SparsificationPlan for grouping/replay tests."""

    def __init__(self, masks):
        self.masks = {k: np.asarray(v, dtype=bool) for k, v in masks.items()}

    def nnz(self, layer_idx):
        return self.masks[layer_idx].sum(axis=1)


# ---------------------------------------------------------------------------
# mask stream replay


def test_identical_masks_never_stall():
    masks = [np.array([1, 0, 1, 1, 0, 1])] * 4
    for w in (1, 2, 8):
        stalls, cycles, _ = mask_stream_trace(masks, w)
        assert stalls == 0
        assert cycles == 4


def test_window_at_least_mask_length_never_stalls():
    rng = substream(3, "m")
    for _ in range(20):
        masks = [(rng.uniform(size=9) > 0.5).astype(int) for _ in range(3)]
        if not any(m.sum() for m in masks):
            continue
        stalls, cycles, _ = mask_stream_trace(masks, 9)
        assert stalls == 0
        assert cycles == max(m.sum() for m in masks)


def test_disjoint_prefix_suffix_masks_replay():
    # lane A needs inputs 0-3, lane B needs 4-8; with W=1 lane B waits
    # until A's stream position reaches 3. Hand replay: B stalls in
    # cycles 1-3, pairs with A at cycle 4, finishes alone by cycle 8.
    a = np.array([1, 1, 1, 1, 0, 0, 0, 0, 0])
    b = np.array([0, 0, 0, 0, 1, 1, 1, 1, 1])
    stalls, cycles, trace = mask_stream_trace([a, b], 1)
    assert cycles == 8
    assert stalls == 8 - 5  # max nnz is 5
    consumed_b = [row[1] for row in trace if row[1] is not None]
    assert len(consumed_b) == 5


def test_stall_count_non_increasing_in_window():
    a = np.array([1, 1, 1, 1, 0, 0, 0, 0, 0])
    b = np.array([0, 0, 0, 0, 1, 1, 1, 1, 1])
    stalls = [mask_stream_trace([a, b], w)[0] for w in range(1, 10)]
    assert stalls == sorted(stalls, reverse=True)
    assert stalls[0] == 3 and stalls[-1] == 0


@given(
    st.lists(
        st.lists(st.integers(0, 1), min_size=8, max_size=8),
        min_size=2,
        max_size=4,
    ),
    st.integers(1, 10),
)
@settings(max_examples=150)
def test_replay_work_conservation_and_monotonicity(masks, window):
    masks = [np.array(m) for m in masks]
    stalls, cycles, trace = mask_stream_trace(masks, window)
    # work conservation: every active weight consumed exactly once
    for lane, m in enumerate(masks):
        consumed = [row[lane] for row in trace if row[lane] is not None]
        assert len(consumed) == m.sum()
    assert cycles <= 8  # never slower than the dense stream
    wider_stalls, _, _ = mask_stream_trace(masks, window + 1)
    assert wider_stalls <= stalls


def test_mux_trace_offsets_within_window():
    rng = substream(4, "m")
    masks = [(rng.uniform(size=10) > 0.4).astype(int) for _ in range(4)]
    window = 3
    stalls, cycles, trace = mask_stream_trace(masks, window)
    for row in trace:
        for offset in row:
            if offset is not None:
                assert 0 <= offset <= window


# ---------------------------------------------------------------------------
# layer simulation


def _layer_fixture(fixture_model, fixture_table, max_rate=0.7, seed_label="sim"):
    plan = draw_plan(fixture_model, fixture_table, max_rate, pass_seed=derive_seed(2, seed_label))
    layer = next(iter(plan.masks))
    return plan, layer


def test_dense_plan_simulation_degenerate(fixture_model, fixture_table):
    plan, layer = _layer_fixture(fixture_model, fixture_table, max_rate=0.0)
    cfg = AcceleratorConfig()
    report = simulate_layer(fixture_model, layer, plan, cfg)
    assert report.sparse_cycles == report.dense_cycles
    assert report.idle_mac_slots == 0
    assert report.stall_cycles == 0
    assert report.speedup == 1.0


def test_idle_slot_hand_example():
    # one group, nnz [3,5,2,4], one output position, W >= 5:
    # cycles = 5 (group max), idle = (5-3)+(5-5)+(5-2)+(5-4) = 6
    masks = prefix_masks([3, 5, 2, 4], 5)
    stalls, cycles, _ = mask_stream_trace(masks, 5)
    assert cycles == 5
    assert stalls == 0
    group_max = 5
    idle = sum(group_max - n for n in (3, 5, 2, 4))
    assert idle == 6


def test_sorted_grouping_beats_adversarial_pairing():
    # nnz [2,3,4,5]: sorted ([5,4],[3,2]) costs 5+3=8; pairing ([5,2],[4,3]) costs 5+4=9
    masks = np.array(prefix_masks([2, 3, 4, 5], 6))
    plan = _FakePlan({0: masks})
    cfg = AcceleratorConfig(group_size=2, lookahead=6)

    def total_cycles(groups):
        total = 0
        for g in groups:
            lane_masks = [masks[fid] for fid in g]
            _, cycles, _ = mask_stream_trace(lane_masks, cfg.lookahead)
            total += cycles
        return total

    sorted_cost = total_cycles([[3, 2], [1, 0]])
    adversarial_cost = total_cycles([[3, 0], [2, 1]])
    assert sorted_cost == 8
    assert adversarial_cost == 9
    assert total_cycles([[fid for fid, _ in g] for g in group_filters(plan, 0, cfg)]) == 8


def test_sorted_chunking_exhaustively_optimal_small():
    rng = substream(5, "opt")
    for trial in range(6):
        nnz = rng.integers(1, 9, size=rng.integers(4, 9))
        k = int(rng.integers(2, 4))
        groups_cost = lambda perm: sum(
            max(nnz[f] for f in perm[i : i + k]) for i in range(0, len(perm), k)
        )
        sorted_perm = sorted(range(nnz.size), key=lambda f: -nnz[f])
        best = min(groups_cost(p) for p in itertools.permutations(range(nnz.size)))
        assert groups_cost(sorted_perm) == best


def test_sorted_chunking_beats_random_chunkings():
    rng = substream(6, "rand")
    nnz = rng.integers(1, 40, size=16)
    k = 4
    cost = lambda perm: sum(max(nnz[f] for f in perm[i : i + k]) for i in range(0, len(perm), k))
    sorted_cost = cost(sorted(range(16), key=lambda f: -nnz[f]))
    for _ in range(1000):
        assert sorted_cost <= cost(rng.permutation(16))


def test_layer_work_conservation(fixture_model, fixture_table):
    plan, layer = _layer_fixture(fixture_model, fixture_table)
    cfg = AcceleratorConfig()
    # replay each group and count consumed weights against the plan
    masks = plan.masks[layer]
    consumed_total = 0
    for g in group_filters(plan, layer, cfg):
        lane_masks = [masks[fid] for fid, _ in g]
        _, _, trace = mask_stream_trace(lane_masks, cfg.lookahead)
        consumed_total += sum(1 for row in trace for v in row if v is not None)
    assert consumed_total == int(plan.nnz(layer).sum())


# ---------------------------------------------------------------------------
# model simulation


def test_zero_noise_model_speedup_is_one(fixture_model, fixture_table):
    plan = draw_plan(fixture_model, fixture_table, 0.0, pass_seed=1)
    report = simulate_model(fixture_model, plan, AcceleratorConfig())
    assert report.speedup == 1.0
    assert report.sparse_cycles == report.dense_cycles


def test_report_totals_equal_layer_sums(fixture_model, fixture_table):
    plan = draw_plan(fixture_model, fixture_table, 0.7, pass_seed=7)
    report = simulate_model(fixture_model, plan, AcceleratorConfig())
    assert report.dense_cycles == sum(r.dense_cycles for r in report.per_layer)
    assert report.sparse_cycles == sum(r.sparse_cycles for r in report.per_layer)
    assert report.idle_mac_slots == sum(r.idle_mac_slots for r in report.per_layer)
    assert report.stall_cycles == sum(r.stall_cycles for r in report.per_layer)


def test_model_speedup_bounds(fixture_model, fixture_table):
    plan = draw_plan(fixture_model, fixture_table, 0.7, pass_seed=8)
    report = simulate_model(fixture_model, plan, AcceleratorConfig())
    assert report.sparse_cycles <= report.dense_cycles
    assert report.speedup >= 1.0
    # zero-idle lower bound on eligible-layer cycles: group count divides
    # evenly on the fixture (16 conv filters, 4 dense rows, k_g=4)
    s = plan.achieved_sparsity()
    assert report.eligible_speedup() <= 1.0 / (1.0 - s) + 1e-9


def test_eligible_speedup_in_analytic_band(fixture_model, fixture_table):
    # band: [1/(1-s+0.15), 1/(1-s-0.05)] at the plan's achieved sparsity
    for seed in range(5):
        plan = draw_plan(fixture_model, fixture_table, 0.6, pass_seed=derive_seed(9, seed))
        report = simulate_model(fixture_model, plan, AcceleratorConfig())
        s = plan.achieved_sparsity()
        speedup = report.eligible_speedup()
        assert 1.0 / (1.0 - s + 0.15) <= speedup <= 1.0 / (1.0 - s - 0.05)


def test_report_json_schema(fixture_model, fixture_table):
    plan = draw_plan(fixture_model, fixture_table, 0.5, pass_seed=10)
    doc = simulate_model(fixture_model, plan, AcceleratorConfig()).to_json()
    assert {"dense_cycles", "sparse_cycles", "idle_mac_slots", "stall_cycles", "speedup", "per_layer"} <= set(doc)
    assert all({"layer", "kind", "eligible"} <= set(l) for l in doc["per_layer"])
