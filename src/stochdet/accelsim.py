"""Cycle-approximate model of the dynamically sparsified accelerator.

The model reads only a plan's masks. simulate_layer groups the filters
that share an input stream by active-weight count (group_filters: sorted
descending, chunked) so lanes in a group finish together. Per
output position a group costs max-nnz cycles plus any look-ahead stalls;
a lane with fewer active weights than its group's densest filter sits
idle for the difference. The dense baseline pays the full weight count
per filter per output position with zero idle.

Look-ahead: lanes consume their active weights in index order and may
run up to W input positions ahead of the group's slowest lane. A lane
whose next active index is out of the window waits; each extra cycle
beyond the ideal max-nnz count is charged as one stall cycle while the
window slides forward.

The model abstracts MAC lanes to one active weight per lane-cycle; no
memory hierarchy, no energy. It exists to account idle slots and
relative speedup, not absolute latency.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .model import Model, check_settings, setting
from .sparsify import SparsificationPlan


class ScheduleError(ValueError):
    pass


@dataclass
class AcceleratorConfig:
    group_size: int = setting(4, int, ge=1)
    lookahead: int = setting(4, int, ge=1)

    def __post_init__(self) -> None:
        check_settings(self, ValueError)


# the cycle counts of a layer, which a whole-network report totals
CYCLE_COUNTS = ("dense_cycles", "sparse_cycles", "idle_mac_slots", "stall_cycles")


@dataclass
class LayerCycleReport:
    layer: int
    kind: str
    eligible: bool
    dense_cycles: int
    sparse_cycles: int
    idle_mac_slots: int
    stall_cycles: int

    @property
    def speedup(self) -> float:
        return self.dense_cycles / self.sparse_cycles

    def to_json(self) -> dict:
        return {**asdict(self), "speedup": self.speedup}


@dataclass
class CycleReport:
    """A whole-network report; each of CYCLE_COUNTS is an attribute holding its total over per_layer."""

    per_layer: list[LayerCycleReport]

    def __post_init__(self) -> None:
        for name in CYCLE_COUNTS:
            setattr(self, name, sum(getattr(r, name) for r in self.per_layer))

    speedup = LayerCycleReport.speedup  # dense over sparse cycles, of the totals

    def eligible_speedup(self) -> float:
        dense = sum(r.dense_cycles for r in self.per_layer if r.eligible)
        sparse = sum(r.sparse_cycles for r in self.per_layer if r.eligible)
        return dense / sparse if sparse else 1.0

    def to_json(self) -> dict:
        totals = {name: getattr(self, name) for name in CYCLE_COUNTS}
        return {**totals, "speedup": self.speedup, "per_layer": [r.to_json() for r in self.per_layer]}


def group_filters(
    plan: SparsificationPlan, layer_idx: int, cfg: AcceleratorConfig
) -> list[list[tuple[int, int]]]:
    """Chunk a layer's filters into groups of similar active-weight count.

    Sort by nnz descending (ties by filter id for determinism) and cut
    into consecutive groups of group_size; the last group may be smaller.
    Each group lists its filters as (filter_id, nnz), in lane order.
    """
    if layer_idx not in plan.masks:
        raise ScheduleError(f"plan has no masks for layer {layer_idx}")
    nnz = plan.nnz(layer_idx)
    order = sorted(range(nnz.size), key=lambda f: (-int(nnz[f]), f))
    return [
        [(f, int(nnz[f])) for f in order[i : i + cfg.group_size]]
        for i in range(0, len(order), cfg.group_size)
    ]


def mask_stream_trace(
    masks: list[np.ndarray] | np.ndarray, lookahead: int
) -> tuple[int, int, list[list[int | None]]]:
    """Replay one group's lanes consuming their active weights.

    masks are equal-length 0/1 vectors, one per lane. Returns
    (stall_cycles, total_cycles, trace) where trace[cycle][lane] is the
    input offset the lane's mux selected relative to the window base, or
    None when the lane did nothing that cycle. stall_cycles is the
    cycle count beyond the ideal (max nnz) schedule.
    """
    mask_arr = [np.asarray(m).astype(bool).ravel() for m in masks]
    length = mask_arr[0].size
    for m in mask_arr:
        if m.size != length:
            raise ScheduleError("all masks in a group must have equal length")
    active = [np.flatnonzero(m) for m in mask_arr]
    ptr = [0] * len(active)
    consumed = [0] * len(active)
    trace: list[list[int | None]] = []
    cycles = 0
    while any(ptr[l] < active[l].size for l in range(len(active))):
        pending = [int(active[l][ptr[l]]) for l in range(len(active)) if ptr[l] < active[l].size]
        base = min(pending)
        row: list[int | None] = []
        for l in range(len(active)):
            if ptr[l] >= active[l].size:
                row.append(None)  # lane finished: idle slot
                continue
            nxt = int(active[l][ptr[l]])
            if nxt <= base + lookahead:
                row.append(nxt - base)
                ptr[l] += 1
                consumed[l] += 1
            else:
                row.append(None)  # out of window: lane waits
        trace.append(row)
        cycles += 1
    max_nnz = max((a.size for a in active), default=0)
    for l, a in enumerate(active):
        assert consumed[l] == a.size, "replay must consume every active weight exactly once"
    return cycles - max_nnz, cycles, trace


def _group_cost(group: list[tuple[int, int]], masks: np.ndarray, lookahead: int) -> tuple[int, int, int]:
    """(cycles, idle_slots, stalls) for one group at one output position."""
    if not group:
        return 0, 0, 0
    lane_masks = [masks[fid] for fid, _ in group]
    nnz = [n for _, n in group]
    group_max = max(nnz)
    stalls, cycles, _ = mask_stream_trace(lane_masks, lookahead)
    idle = sum(group_max - n for n in nnz)
    return cycles, idle, stalls


def simulate_layer(
    model: Model, layer_idx: int, plan: SparsificationPlan, cfg: AcceleratorConfig
) -> LayerCycleReport:
    """Exact cycle counts for one sparsified layer, grouped by group_filters, under the cost model."""
    groups = group_filters(plan, layer_idx, cfg)
    masks = plan.masks[layer_idx]
    weights_per_filter = masks.shape[1]
    positions = model.output_positions(layer_idx)
    cycles_per_pos = 0
    idle_per_pos = 0
    stalls_per_pos = 0
    for group in groups:
        c, i, s = _group_cost(group, masks, cfg.lookahead)
        cycles_per_pos += c
        idle_per_pos += i
        stalls_per_pos += s
    return LayerCycleReport(
        layer=layer_idx,
        kind=model.layers[layer_idx].kind,
        eligible=True,
        dense_cycles=positions * len(groups) * weights_per_filter,
        sparse_cycles=positions * cycles_per_pos,
        idle_mac_slots=positions * idle_per_pos,
        stall_cycles=positions * stalls_per_pos,
    )


def _dense_layer_report(model: Model, layer_idx: int, cfg: AcceleratorConfig) -> LayerCycleReport:
    filters = model.filter_matrix(layer_idx)
    n_groups = -(-filters.shape[0] // cfg.group_size)
    cycles = model.output_positions(layer_idx) * n_groups * filters.shape[1]
    return LayerCycleReport(
        layer=layer_idx,
        kind=model.layers[layer_idx].kind,
        eligible=False,
        dense_cycles=cycles,
        sparse_cycles=cycles,
        idle_mac_slots=0,
        stall_cycles=0,
    )


def simulate_model(model: Model, plan: SparsificationPlan, cfg: AcceleratorConfig) -> CycleReport:
    """Whole-network cycle report: sparse pass vs. dense baseline.

    Noise-eligible conv/dense layers run under the plan's masks; the
    rest execute dense on both sides of the comparison.
    """
    return CycleReport(
        [
            simulate_layer(model, idx, plan, cfg)
            if model.layers[idx].noise_eligible and idx in plan.masks
            else _dense_layer_report(model, idx, cfg)
            for idx in model.parametric_layers()
        ]
    )
