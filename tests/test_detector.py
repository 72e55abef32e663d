"""L1 metric, detection state machine, calibration, and set evaluation."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochdet.detector import (
    DetectionThresholds,
    DetectorConfig,
    _mean,
    calibrate,
    calibration_distances,
    decide,
    detect_set,
    first_pass_distances,
    l1_distance,
    noisy_passes,
    stochastic_inference,
)
from stochdet.model import RATE_GRID_STEPS, conv_pool_arch, init_model, profile_thresholds
from stochdet.attacks import AttackConfig
from stochdet.nn import ProbVector
from stochdet.pipeline import DetectorSettings, ExperimentConfig, RunState, stage_eval
from stochdet.rng import derive_seed, substream
from stochdet.sparsify import NoiseConfig, PlanMismatch, confidence, draw_plan, noise_budget, noisy_forward, rate_bank
from tests.conftest import DETECTOR_MAX_RUNS, clone_with_zeroed, successful_inputs


def pv(probs):
    probs = np.asarray(probs, dtype=np.float64)
    return ProbVector(probs=probs, logits=np.log(np.maximum(probs, 1e-300)))


THRESH = DetectionThresholds(t1_greedy=0.1, t2_greedy=1.9, t1_avg=0.75, t2_avg=1.25)


def run(distances, thresholds=THRESH, max_runs=5):
    seq = list(distances)

    def source(i):
        return seq[i - 1]

    return decide(source, thresholds, max_runs)


# ---------------------------------------------------------------------------
# l1 metric


def test_l1_identical_vectors():
    assert l1_distance(pv([0.5, 0.5]), pv([0.5, 0.5])) == 0.0


def test_l1_disjoint_one_hots_is_two():
    assert l1_distance(pv([1.0, 0.0]), pv([0.0, 1.0])) == pytest.approx(2.0, abs=1e-12)


def test_l1_hand_summed():
    assert l1_distance(pv([0.7, 0.2, 0.1]), pv([0.5, 0.3, 0.2])) == pytest.approx(0.4, abs=1e-12)


def test_l1_rejects_length_mismatch():
    with pytest.raises(ValueError, match="length mismatch"):
        l1_distance(pv([0.5, 0.5]), pv([0.4, 0.3, 0.3]))


@given(
    st.lists(st.floats(0.01, 1), min_size=3, max_size=3),
    st.lists(st.floats(0.01, 1), min_size=3, max_size=3),
)
def test_l1_bounded_by_two(a, b):
    a = np.array(a) / np.sum(a)
    b = np.array(b) / np.sum(b)
    assert 0.0 <= l1_distance(pv(a), pv(b)) <= 2.0 + 1e-12


# ---------------------------------------------------------------------------
# state machine: table-driven branch coverage


STATE_MACHINE_CASES = [
    # (distances, expected_label, runs, reason) under THRESH, max_runs 5
    ([0.05], "benign", 1, "greedy"),  # greedy-benign on pass 1
    ([1.95], "adversarial", 1, "greedy"),  # greedy-adversarial on pass 1
    ([0.5], "benign", 1, "average"),  # pass-1 mean below t1_avg
    ([1.5], "adversarial", 1, "average"),  # pass-1 mean above t2_avg
    ([1.0, 0.3], "benign", 2, "average"),  # spec hand-trace: mean 0.65 < 0.75
    ([1.0, 1.6], "adversarial", 2, "average"),  # mean 1.3 > 1.25
    ([1.0, 1.0, 1.0, 1.0, 1.0], "benign", 5, "cap"),  # exact midpoint tie -> benign
    ([1.1, 1.1, 1.1, 1.1, 1.1], "adversarial", 5, "cap"),  # mean 1.1 > midpoint 1.0
    ([0.9, 0.9, 0.9, 0.9, 0.9], "benign", 5, "cap"),  # mean 0.9 < midpoint
    ([1.0, 1.2, 0.8, 1.05, 0.95], "benign", 5, "cap"),  # wobbling, mean 1.0 tie
    ([1.2, 1.2, 1.2, 0.2, 0.2], "benign", 5, "cap"),  # late drop, mean 0.8 < 1.0
    ([1.0, 1.2, 1.2, 1.8], "adversarial", 4, "average"),  # mean crosses 1.25 late
]


@pytest.mark.parametrize("distances,label,runs,reason", STATE_MACHINE_CASES)
def test_state_machine_table(distances, label, runs, reason):
    got_label, got_runs, history, got_reason = run(distances)
    assert got_label == label
    assert got_runs == runs
    assert got_reason == reason
    assert history == distances[:runs]


def test_greedy_applies_only_to_first_pass():
    # 0.05 < t1_greedy on pass 2 must NOT trigger the greedy rule
    label, runs, _, reason = run([1.0, 0.05])
    assert (label, runs, reason) == ("benign", 2, "average")  # mean 0.525 < 0.75
    label, runs, _, reason = run([1.0, 1.95, 1.95, 1.95, 1.95])
    assert reason != "greedy"


def test_max_runs_one_goes_straight_to_cap():
    label, runs, _, reason = run([1.0], max_runs=1)
    assert (label, runs, reason) == ("benign", 1, "cap")


def test_lazy_distance_source_not_overconsumed():
    calls = []

    def source(i):
        calls.append(i)
        return 0.01

    decide(source, THRESH, max_runs=5)
    assert calls == [1]  # greedy-benign stops after one pass


def test_threshold_ordering_enforced():
    with pytest.raises(ValueError, match="t1_greedy <= t1_avg"):
        DetectionThresholds(t1_greedy=0.8, t2_greedy=1.9, t1_avg=0.5, t2_avg=1.2)
    with pytest.raises(ValueError, match="outside"):
        DetectionThresholds(t1_greedy=0.1, t2_greedy=2.5, t1_avg=0.5, t2_avg=1.2)


def test_thresholds_json_names_each_field():
    """from_json reads each field by name, whatever the key order; a missing one raises KeyError."""
    doc = THRESH.to_json()
    assert DetectionThresholds.from_json(dict(reversed(doc.items()))) == THRESH
    del doc["t1_avg"]
    with pytest.raises(KeyError, match="t1_avg"):
        DetectionThresholds.from_json(doc)


def test_raising_t2_never_flips_benign_to_adversarial():
    history = [1.0, 1.2, 1.3]
    base = DetectionThresholds(0.1, 1.9, 0.75, 1.25)
    raised = DetectionThresholds(0.1, 1.9, 0.75, 1.45)
    label_base, *_ = run(history, thresholds=base, max_runs=len(history))
    label_raised, *_ = run(history, thresholds=raised, max_runs=len(history))
    if label_base == "benign":
        assert label_raised == "benign"


@given(st.lists(st.floats(0, 2), min_size=1, max_size=5))
@settings(max_examples=200)
def test_monotone_rule_soundness(distances):
    lo = DetectionThresholds(0.1, 1.9, 0.75, 1.25)
    hi = DetectionThresholds(0.1, 1.9, 0.75, 1.6)
    label_lo, *_ = run(distances, thresholds=lo, max_runs=len(distances))
    label_hi, *_ = run(distances, thresholds=hi, max_runs=len(distances))
    if label_lo == "benign":
        assert label_hi == "benign"


def np_mean_decide(distances, thresholds, max_runs):
    """decide as first written, with np.mean over the history at every pass."""
    history = []
    for i in range(1, max_runs + 1):
        history.append(float(distances[i - 1]))
        if i == 1 and history[0] < thresholds.t1_greedy:
            return "benign", i, history, "greedy"
        if i == 1 and history[0] > thresholds.t2_greedy:
            return "adversarial", i, history, "greedy"
        mean = float(np.mean(history))
        if mean < thresholds.t1_avg:
            return "benign", i, history, "average"
        if mean > thresholds.t2_avg:
            return "adversarial", i, history, "average"
    mean = float(np.mean(history))
    label = "adversarial" if mean > 0.5 * (thresholds.t1_avg + thresholds.t2_avg) else "benign"
    return label, max_runs, history, "cap"


def test_running_mean_is_np_mean_bitwise():
    rng = np.random.default_rng(8)
    for n in range(1, 11):
        for _ in range(2000):
            # magnitudes spread over many binades, so rounding order shows
            history = (rng.uniform(0, 2, n) * 10.0 ** rng.integers(-12, 1, n)).tolist()
            total = 0.0
            for d in history:
                total += d
            assert _mean(history, total) == float(np.mean(history))


def test_decide_matches_np_mean_decide_at_exact_ties():
    rng = np.random.default_rng(9)
    for _ in range(3000):
        n = int(rng.integers(1, 11))
        history = (rng.uniform(0, 2, n) * 10.0 ** rng.integers(-3, 1, n)).tolist()
        # thresholds placed exactly on prefix means, where one ulp flips a branch
        means = sorted(float(np.mean(history[:k])) for k in rng.integers(1, n + 1, size=2))
        greedy = sorted(rng.uniform(0, 2, 2))
        th = DetectionThresholds(min(greedy[0], means[0]), max(greedy[1], means[1]), means[0], means[1])
        assert run(history, thresholds=th, max_runs=n) == np_mean_decide(history, th, n)


def random_detector_model(seed: int, first_conv_noisy: bool):
    arch = conv_pool_arch((4, 6), 3, class_count=4)
    arch[0].noise_eligible = first_conv_noisy
    model = init_model(arch, (1, 18, 18), 4, seed)
    return model, profile_thresholds(model)


@pytest.mark.parametrize("first_conv_noisy,start", [(False, 3), (True, 0)])
def test_noisy_pass_from_the_prefix_equals_a_full_masked_forward(first_conv_noisy, start):
    model, table = random_detector_model(21, first_conv_noisy)
    rng = np.random.default_rng(22)
    for trial in range(30):
        x = rng.uniform(0, 1, (1, 18, 18))
        reference = model.forward_trace(x[None])
        prefix = [a.copy() for a in reference.inputs]
        plan = draw_plan(model, table, float(rng.uniform(0, 0.95)), int(rng.integers(2**63)))
        assert min(plan.masks) == start
        from_prefix = noisy_forward(model, plan, reference.inputs[start][0], start)
        full = clone_with_zeroed(model, plan.masks).forward_trace(x[None])
        assert from_prefix.probs.tobytes() == full.probs[0].tobytes()
        assert from_prefix.logits.tobytes() == full.logits[0].tobytes()
        assert all(a.tobytes() == b.tobytes() for a, b in zip(reference.inputs, prefix))
        # the detector's own passes: the same distances as full masked forwards
        ref, plan_of, distance = noisy_passes(model, table, x, NoiseConfig())
        for i in (1, 2, 3):
            expected = l1_distance(clone_with_zeroed(model, plan_of(trial, i).masks).predict(x), ref)
            assert distance(trial, i) == expected
    with pytest.raises(ValueError, match="would skip masked layer"):
        noisy_forward(model, plan, full.inputs[start + 1][0], start + 1)


def test_calibration_distances_keep_the_round_major_order():
    model, table = random_detector_model(23, False)
    inputs = list(np.random.default_rng(24).uniform(0, 1, (7, 1, 18, 18)))
    got = calibration_distances(model, table, inputs, NoiseConfig(), 5, passes=3)
    seeds = [derive_seed(5, "round", r) for r in range(3)]
    rounds = [first_pass_distances(model, table, inputs, NoiseConfig(), [seed])[0] for seed in seeds]
    assert got.tobytes() == np.concatenate(rounds).tobytes()


# ---------------------------------------------------------------------------
# live detector


def test_zero_noise_degeneracy(fixture_model, fixture_table, fixture_data):
    _, test_set = fixture_data
    cfg = DetectorConfig(
        thresholds=DetectionThresholds(0.1, 1.9, 0.75, 1.25),
        max_runs=5,
        noise=NoiseConfig(sr_lo=0.0, sr_hi=0.0),
        base_seed=3,
    )
    for x in test_set.images[:10]:
        verdict = stochastic_inference(fixture_model, fixture_table, x, cfg)
        assert verdict.label == "benign"
        assert verdict.terminated_by == "greedy"
        assert verdict.runs_used == 1
        assert verdict.l1_history == [0.0]


def test_detector_deterministic(fixture_model, fixture_table, fixture_data, calibrated_thresholds):
    _, test_set = fixture_data
    cfg = DetectorConfig(thresholds=calibrated_thresholds, max_runs=5, noise=NoiseConfig(), base_seed=17)
    x = test_set.images[42]
    a = stochastic_inference(fixture_model, fixture_table, x, cfg)
    b = stochastic_inference(fixture_model, fixture_table, x, cfg)
    assert a.label == b.label
    assert a.l1_history == b.l1_history
    assert a.runs_used == b.runs_used
    assert a.terminated_by == b.terminated_by


def test_history_bounded_and_consistent(fixture_model, fixture_table, fixture_data, calibrated_thresholds):
    _, test_set = fixture_data
    cfg = DetectorConfig(thresholds=calibrated_thresholds, max_runs=5, noise=NoiseConfig(), base_seed=23)
    for x in test_set.images[:20]:
        v = stochastic_inference(fixture_model, fixture_table, x, cfg)
        assert v.runs_used == len(v.l1_history)
        assert all(0.0 <= d <= 2.0 for d in v.l1_history)
        assert v.terminated_by in ("greedy", "average", "cap")
        assert v.final_class == fixture_model.predict(x).top_class


def test_verdict_json_record(fixture_model, fixture_table, fixture_data, calibrated_thresholds):
    _, test_set = fixture_data
    cfg = DetectorConfig(thresholds=calibrated_thresholds, max_runs=5, noise=NoiseConfig(), base_seed=29)
    v = stochastic_inference(fixture_model, fixture_table, test_set.images[0], cfg)
    rec = v.to_json(input_id=7)
    assert set(rec) == {"input_id", "label", "final_class", "runs_used", "l1_history", "terminated_by"}


# ---------------------------------------------------------------------------
# calibration


def test_calibrate_constant_samples_degenerate_but_ordered():
    th = calibrate(np.full(150, 0.2), target_fpr=0.05)
    assert th.t1_greedy == th.t1_avg == th.t2_avg == th.t2_greedy == pytest.approx(0.2)


def test_calibrate_quantiles_on_known_sequence():
    samples = np.arange(1, 101) / 100.0
    th = calibrate(samples, target_fpr=0.05)
    assert th.t2_avg == pytest.approx(np.quantile(samples, 0.95), abs=1e-12)
    assert th.t1_avg == pytest.approx(np.quantile(samples, 0.5), abs=1e-12)
    assert th.t2_greedy == pytest.approx(np.quantile(samples, 1 - 0.05 / 4), abs=1e-12)
    assert th.t1_greedy == pytest.approx(np.quantile(samples, 0.10), abs=1e-12)


def test_calibrate_needs_enough_samples():
    with pytest.raises(ValueError, match="at least 100"):
        calibrate(np.ones(99), 0.05)


def test_first_pass_distance_is_the_detectors_first_pass(
    fixture_model, fixture_table, fixture_noise, calibrated_thresholds, benign_eval_inputs
):
    """Calibration samples exactly the d_1 that detection observes, one row per base seed."""
    inputs = benign_eval_inputs[:5]
    seeds = [derive_seed(5, "first-pass", r) for r in range(3)]
    rows = first_pass_distances(fixture_model, fixture_table, inputs, fixture_noise, seeds)
    assert rows.shape == (len(seeds), len(inputs))
    for seed, row in zip(seeds, rows):
        cfg = DetectorConfig(calibrated_thresholds, max_runs=3, noise=fixture_noise, base_seed=seed)
        verdicts = detect_set(fixture_model, fixture_table, cfg, inputs, tag="input")
        assert row.tolist() == [v.l1_history[0] for v in verdicts]


def test_calibrated_fpr_on_holdout(
    fixture_model, fixture_table, fixture_noise, calibrated_thresholds, benign_eval_inputs
):
    """Held-out benign first-pass distances against the calibrated cuts."""
    target = 0.05
    d = first_pass_distances(
        fixture_model,
        fixture_table,
        benign_eval_inputs,
        fixture_noise,
        [derive_seed(99, "holdout")],
    )[0]
    measured = float(np.mean(d > calibrated_thresholds.t2_avg))
    assert measured <= 1.5 * target


# ---------------------------------------------------------------------------
# set evaluation


def eval_metrics(tmp_path, model, table, thresholds, benign_eval, attack, base_seed) -> dict:
    """stage_eval's metrics for benign_eval and an empty set of `attack`, from in-memory artifacts."""
    cfg = ExperimentConfig(
        base_seed=base_seed, detector=DetectorSettings(max_runs=5), attacks=[attack], out_dir=str(tmp_path)
    )
    state = RunState(cfg)
    artifacts = {"model": model, "table": table, "thresholds": thresholds, "benign_eval": benign_eval}
    for name, value in {**artifacts, "adv_sets": {attack.name: []}}.items():
        state[name] = value
    stage_eval(state)
    return state["metrics"]


def test_evaluate_empty_adversarial_reports_not_applicable(
    fixture_model, fixture_table, fixture_data, calibrated_thresholds, tmp_path
):
    _, test_set = fixture_data
    attack = AttackConfig(kind="cw_l2")
    metrics = eval_metrics(
        tmp_path, fixture_model, fixture_table, calibrated_thresholds, test_set.images[:3], attack, base_seed=31
    )
    rec = metrics[attack.name]["metrics"]
    assert rec["detection_rate"] is None
    assert rec["adversarial_count"] == 0
    assert rec["mean_runs"] >= 1.0


def test_evaluate_single_benign(fixture_model, fixture_table, fixture_data, calibrated_thresholds, tmp_path):
    _, test_set = fixture_data
    cfg = DetectorConfig(thresholds=calibrated_thresholds, max_runs=5, noise=NoiseConfig(), base_seed=37)
    (verdict,) = detect_set(fixture_model, fixture_table, cfg, [test_set.images[0]], "benign")
    # per-input seeds are keyed by (base_seed, tag, index)
    alone = replace(cfg, base_seed=derive_seed(37, "benign", 0))
    assert verdict == stochastic_inference(fixture_model, fixture_table, test_set.images[0], alone)
    attack = AttackConfig(kind="cw_l2")
    metrics = eval_metrics(
        tmp_path, fixture_model, fixture_table, calibrated_thresholds, [test_set.images[0]], attack, base_seed=37
    )
    fpr = metrics[attack.name]["metrics"]["fpr"]
    assert fpr == (1.0 if verdict.label == "adversarial" else 0.0)


# ---------------------------------------------------------------------------
# the rate bank against the computation it replaced


def old_plan_masks(model, table, max_rate, pass_seed):
    """A plan's masks as drawn before the rate bank: |filters| >= each filter's looked-up threshold."""
    masks = {}
    for idx in model.parametric_layers():
        if model.layers[idx].noise_eligible:
            filters = model.filter_matrix(idx)
            rates = substream(pass_seed, "rates", idx).uniform(0.0, max_rate, size=len(filters))
            taus = table.thresholds[idx][np.arange(len(filters)), np.floor(rates * RATE_GRID_STEPS).astype(int)]
            masks[idx] = np.abs(filters) >= taus[:, None]
    return masks


def old_verdict(model, table, x, cfg):
    """stochastic_inference as it ran before the rate bank: each pass a full forward of a zeroed copy."""
    ref = model.predict(x)
    budget = noise_budget(confidence(ref), cfg.noise)

    def distance(i):
        masks = old_plan_masks(model, table, budget, derive_seed(cfg.base_seed, "pass", i))
        return l1_distance(clone_with_zeroed(model, masks).predict(x), ref)

    return decide(distance, cfg.thresholds, cfg.max_runs), ref.top_class


def test_verdicts_equal_the_old_computation_bytewise(
    fixture_model, fixture_table, calibrated_thresholds, benign_eval_inputs, cw_sets
):
    adversarial = [x for k in sorted(cw_sets) for x in successful_inputs(cw_sets[k])]
    inputs = list(benign_eval_inputs[:150]) + adversarial[:: max(1, len(adversarial) // 50)][:50]
    assert len(inputs) == 200
    seen = set()
    for i, x in enumerate(inputs):
        cfg = DetectorConfig(calibrated_thresholds, 3, NoiseConfig(), derive_seed(31, "old", i))
        (label, runs, history, reason), top_class = old_verdict(fixture_model, fixture_table, x, cfg)
        v = stochastic_inference(fixture_model, fixture_table, x, cfg)
        assert np.array(v.l1_history).tobytes() == np.array(history).tobytes()
        assert (v.label, v.runs_used, v.terminated_by, v.final_class) == (label, runs, reason, top_class)
        seen.add((label, reason))
    assert len(seen) >= 3  # both labels and more than one exit reason were exercised


def test_rate_bank_refuses_a_table_of_another_model(fixture_model, fixture_table):
    other, _ = random_detector_model(25, False)
    with pytest.raises(PlanMismatch, match="different model"):
        rate_bank(other, fixture_table)
    with pytest.raises(PlanMismatch, match="different model"):
        rate_bank(fixture_model, replace(fixture_table, model_fingerprint="0" * 64))
    half_grid = replace(fixture_table, thresholds={i: t[:, ::2] for i, t in fixture_table.thresholds.items()})
    for _ in range(2):  # a refused table keeps no partial bank
        with pytest.raises(PlanMismatch, match="one grid row per filter"):
            rate_bank(fixture_model, half_grid)


@pytest.mark.parametrize("misfit", ["rate-grid", "no-layer-0"])
def test_a_table_that_does_not_fit_is_refused_before_any_pass(
    fixture_model, fixture_table, calibrated_thresholds, benign_eval_inputs, misfit
):
    """rate_bank, and so stochastic_inference, refuses a table the model's layers and RATE_GRID do not fit."""
    if misfit == "rate-grid":
        table = replace(fixture_table, rate_grid=fixture_table.rate_grid / 2)
    else:  # layer 0 takes no noise, so the bank never reads its thresholds
        assert not fixture_model.layers[0].noise_eligible
        table = replace(fixture_table, thresholds={i: t for i, t in fixture_table.thresholds.items() if i != 0})
    with pytest.raises(PlanMismatch):
        rate_bank(fixture_model, table)
    cfg = DetectorConfig(calibrated_thresholds, DETECTOR_MAX_RUNS, NoiseConfig(), 41)
    with pytest.raises(PlanMismatch):
        stochastic_inference(fixture_model, table, benign_eval_inputs[0], cfg)
