"""Confidence mapping, noise budget, plan drawing, and noisy passes."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stochdet.nn import ProbVector, ShapeError, softmax
from stochdet.model import RATE_GRID, RATE_GRID_STEPS
from stochdet.rng import derive_seed, substream
from stochdet.sparsify import (
    NoiseConfig,
    PlanMismatch,
    confidence,
    draw_plan,
    noise_budget,
    noisy_activation_forward,
    noisy_forward,
)
from stochdet.detector import l1_distance
from tests.conftest import clone_with_zeroed


def pv(probs):
    probs = np.asarray(probs, dtype=np.float64)
    return ProbVector(probs=probs, logits=np.log(probs))


# ---------------------------------------------------------------------------
# confidence and budget


def test_confidence_uniform_is_zero():
    assert confidence(pv([0.25, 0.25, 0.25, 0.25])) == 0.0


def test_confidence_one_hot_is_one():
    assert confidence(softmax(np.array([1e3, 0.0, 0.0]))) == pytest.approx(1.0, abs=1e-9)


def test_confidence_top_two_margin():
    assert confidence(pv([0.7, 0.2, 0.1])) == pytest.approx(0.5, abs=1e-12)


def test_budget_endpoints():
    cfg = NoiseConfig()
    assert noise_budget(0.0, cfg) == pytest.approx(cfg.sr_lo, abs=1e-12)
    assert noise_budget(1.0, cfg) == pytest.approx(cfg.sr_hi, abs=1e-12)


def test_budget_midpoint_closed_form():
    # 0.1 + 0.7 * (1 - e^-2) / (1 - e^-4)
    expected = 0.1 + 0.7 * (1 - np.exp(-2)) / (1 - np.exp(-4))
    assert noise_budget(0.5, NoiseConfig()) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(0.717, abs=5e-4)


@given(st.floats(0, 1), st.floats(0, 1))
def test_budget_monotone(c1, c2):
    cfg = NoiseConfig()
    lo, hi = min(c1, c2), max(c1, c2)
    assert noise_budget(lo, cfg) <= noise_budget(hi, cfg) + 1e-15


def test_noise_config_validation():
    with pytest.raises(ValueError):
        NoiseConfig(sr_lo=0.5, sr_hi=0.2)
    with pytest.raises(ValueError):
        NoiseConfig(sr_hi=1.0)
    with pytest.raises(ValueError):
        NoiseConfig(gamma=0.0)


# ---------------------------------------------------------------------------
# plans


def test_zero_budget_plan_is_dense(fixture_model, fixture_table):
    plan = draw_plan(fixture_model, fixture_table, 0.0, pass_seed=1)
    for idx, mask in plan.masks.items():
        assert mask.all()
    assert plan.achieved_sparsity() == 0.0


def test_plan_deterministic(fixture_model, fixture_table):
    a = draw_plan(fixture_model, fixture_table, 0.6, pass_seed=77)
    b = draw_plan(fixture_model, fixture_table, 0.6, pass_seed=77)
    for idx in a.masks:
        np.testing.assert_array_equal(a.masks[idx], b.masks[idx])


def test_plans_differ_across_seeds(fixture_model, fixture_table):
    differing = 0
    for s in range(100):
        a = draw_plan(fixture_model, fixture_table, 0.6, pass_seed=derive_seed(5, s))
        b = draw_plan(fixture_model, fixture_table, 0.6, pass_seed=derive_seed(5, s) + 1)
        if any(not np.array_equal(a.masks[i], b.masks[i]) for i in a.masks):
            differing += 1
    assert differing >= 99


def test_plan_covers_only_eligible_layers(fixture_model, fixture_table):
    plan = draw_plan(fixture_model, fixture_table, 0.5, pass_seed=3)
    eligible = {
        i for i in fixture_model.parametric_layers() if fixture_model.layers[i].noise_eligible
    }
    assert set(plan.masks) == eligible
    first_conv = fixture_model.parametric_layers()[0]
    assert first_conv not in plan.masks  # protected by default


def test_plan_soundness_strict_below_tau(fixture_model, fixture_table):
    plan = draw_plan(fixture_model, fixture_table, 0.7, pass_seed=11)
    for idx, mask in plan.masks.items():
        filters = fixture_model.filter_matrix(idx)
        # the plan's rates, redrawn from its stream, and the table's cut at each snapped rate
        rates = substream(plan.pass_seed, "rates", idx).uniform(0.0, plan.max_rate, size=filters.shape[0])
        grid_idx = np.floor(rates * RATE_GRID_STEPS).astype(int)
        taus = fixture_table.thresholds[idx][np.arange(filters.shape[0]), grid_idx]
        for f in range(filters.shape[0]):
            mags = np.abs(filters[f])
            assert (mags[~mask[f]] < taus[f]).all()
            assert (mags[mask[f]] >= taus[f]).all()
            # drop fraction bounded by the assigned (pre-snap) rate
            assert (~mask[f]).sum() / mags.size <= rates[f] + 1e-12


def test_no_filter_fully_dropped(fixture_model, fixture_table):
    for s in range(20):
        plan = draw_plan(fixture_model, fixture_table, 0.79, pass_seed=derive_seed(6, s))
        for idx in plan.masks:
            assert (plan.nnz(idx) >= 1).all()


def test_plan_rejects_foreign_table(fixture_model, fixture_table):
    import dataclasses

    bad = dataclasses.replace(fixture_table, model_fingerprint="0" * 64)
    with pytest.raises(PlanMismatch):
        draw_plan(fixture_model, bad, 0.5, pass_seed=1)


def test_drop_fraction_matches_expectation_oracle(fixture_model, fixture_table):
    """Monte-Carlo mean achieved drop fraction vs. exact grid expectation."""
    max_rate = 0.6
    idx = [i for i in fixture_model.parametric_layers() if fixture_model.layers[i].noise_eligible][0]
    filters = fixture_model.filter_matrix(idx)
    n_filters, n_weights = filters.shape

    # brute-force oracle: E[achieved fraction] under rate ~ U(0, 0.6) snapped
    # down to the grid; snapping makes the rate distribution piecewise uniform
    taus = fixture_table.thresholds[idx]
    exact = np.zeros(n_filters)
    for gi, grid_rate in enumerate(RATE_GRID):
        lo = grid_rate
        hi = min(RATE_GRID[gi + 1] if gi + 1 < len(RATE_GRID) else 1.0, max_rate)
        if hi <= lo:
            continue
        p_cell = (hi - lo) / max_rate
        for f in range(n_filters):
            frac = (np.abs(filters[f]) < taus[f, gi]).sum() / n_weights
            exact[f] += p_cell * frac

    draws = np.zeros(n_filters)
    n_trials = 1000
    for t in range(n_trials):
        plan = draw_plan(fixture_model, fixture_table, max_rate, pass_seed=derive_seed(8, t))
        draws += 1.0 - plan.masks[idx].sum(axis=1) / n_weights
    mc = draws / n_trials
    assert np.abs(mc - exact).max() <= 0.05


# ---------------------------------------------------------------------------
# noisy forward passes


def test_all_ones_plan_is_identity(fixture_model, fixture_table, fixture_data):
    _, test_set = fixture_data
    plan = draw_plan(fixture_model, fixture_table, 0.0, pass_seed=2)
    x = test_set.images[0]
    noisy = noisy_forward(fixture_model, plan, x)
    ref = fixture_model.predict(x)
    np.testing.assert_array_equal(noisy.probs, ref.probs)
    np.testing.assert_array_equal(noisy.logits, ref.logits)


def test_noisy_forward_equals_zeroed_clone(fixture_model, fixture_table, fixture_data):
    _, test_set = fixture_data
    plan = draw_plan(fixture_model, fixture_table, 0.7, pass_seed=9)
    x = test_set.images[1]
    noisy = noisy_forward(fixture_model, plan, x)
    zeroed = clone_with_zeroed(
        fixture_model, {idx: m.astype(np.float64) for idx, m in plan.masks.items()}
    )
    np.testing.assert_array_equal(noisy.probs, zeroed.predict(x).probs)


def test_noisy_forward_rejects_foreign_plan(fixture_model, fixture_table):
    plan = draw_plan(fixture_model, fixture_table, 0.5, pass_seed=4)
    plan.model_fingerprint = "f" * 64
    with pytest.raises(PlanMismatch):
        noisy_forward(fixture_model, plan, np.zeros(fixture_model.input_shape))


def test_benign_argmax_stable_under_default_budget(
    fixture_model, fixture_table, fixture_data, fixture_noise
):
    from stochdet.sparsify import confidence as conf_fn

    _, test_set = fixture_data
    stable = total = 0
    for i, (x, lab) in enumerate(zip(test_set.images[:200], test_set.labels[:200])):
        ref = fixture_model.predict(x)
        if ref.top_class != lab:
            continue
        budget = noise_budget(conf_fn(ref), fixture_noise)
        plan = draw_plan(fixture_model, fixture_table, budget, pass_seed=derive_seed(14, i))
        total += 1
        stable += noisy_forward(fixture_model, plan, x).top_class == ref.top_class
    assert total >= 150
    assert stable / total >= 0.90


# ---------------------------------------------------------------------------
# activation-noise study mode


def test_activation_level_zero_is_identity(fixture_model, fixture_data):
    _, test_set = fixture_data
    x = test_set.images[2]
    out = noisy_activation_forward(fixture_model, 0.0, x, pass_seed=5)
    np.testing.assert_array_equal(out.probs, fixture_model.predict(x).probs)


def test_activation_noise_deterministic(fixture_model, fixture_data):
    _, test_set = fixture_data
    x = test_set.images[3]
    a = noisy_activation_forward(fixture_model, 0.5, x, pass_seed=6)
    b = noisy_activation_forward(fixture_model, 0.5, x, pass_seed=6)
    np.testing.assert_array_equal(a.probs, b.probs)


def test_activation_noise_level_ordering(fixture_model, fixture_data):
    _, test_set = fixture_data
    inputs = test_set.images[:200]
    means = {}
    for level in (0.1, 0.9):
        ds = []
        for i, x in enumerate(inputs):
            ref = fixture_model.predict(x)
            out = noisy_activation_forward(fixture_model, level, x, pass_seed=derive_seed(15, i))
            ds.append(l1_distance(out, ref))
        means[level] = np.mean(ds)
    assert means[0.9] > means[0.1]


def test_activation_level_validation(fixture_model):
    with pytest.raises(ValueError, match="level"):
        noisy_activation_forward(fixture_model, 1.0, np.zeros(fixture_model.input_shape), 0)
    c, h, w = fixture_model.input_shape
    with pytest.raises(ShapeError, match="does not match model input"):
        noisy_activation_forward(fixture_model, 0.1, np.zeros((c, h, w + 1)), 0)
