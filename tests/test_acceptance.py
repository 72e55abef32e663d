"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the PASS/FAIL lines.
Every tolerance is pinned here; nothing defers to later calibration.
"""

import itertools
import time

import numpy as np
import pytest

from stochdet import nn
from stochdet.accelsim import AcceleratorConfig, group_filters, mask_stream_trace, simulate_model
from stochdet.detector import (
    DetectionThresholds,
    DetectorConfig,
    calibrate,
    decide,
    first_pass_distances,
)
from stochdet.model import LayerSpec, RATE_GRID, init_model
from stochdet.pipeline import ExperimentConfig, artifact_payload, read_json_artifact, run_pipeline
from stochdet.rng import derive_seed, substream
from stochdet.sparsify import draw_plan, noisy_activation_forward, noisy_forward
from tests.conftest import (
    DETECTOR_MAX_RUNS,
    FIXTURE_SEED,
    clone_with_zeroed,
    input_gradient,
    loss_value,
    successful_inputs,
)
from tests.test_golden import check_golden
from tests.test_nn import assert_gradients_close, fd_probe_is_smooth, finite_difference


class Criterion:
    """Prints the one-line verdict whether the body passes or fails."""

    def __init__(self, number: int, title: str, budget_s: float):
        self.number = number
        self.title = title
        self.budget_s = budget_s

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        status = "PASS" if exc_type is None else "FAIL"
        print(f"[criterion {self.number}] {status} ({elapsed:.1f}s / budget {self.budget_s:.0f}s): {self.title}")
        if exc_type is None:
            assert elapsed < self.budget_s, f"criterion {self.number} exceeded its runtime budget"
        return False


# ---------------------------------------------------------------------------


def test_criterion_1_numerical_core():
    with Criterion(1, "loss gradients match finite differences; ProbVectors normalized", 60):
        arch = [
            LayerSpec("conv2d", out_channels=3, kernel=3),
            LayerSpec("relu"),
            LayerSpec("maxpool2d"),
            LayerSpec("dense", out_features=4),
            LayerSpec("softmax"),
        ]
        rng = substream(1001, "pairs")
        checked = 0
        for pair in range(20):
            model = init_model(arch, (1, 8, 8), 4, seed=2000 + pair)
            x0 = rng.uniform(0.05, 0.95, (1, 8, 8))
            p_ref = nn.softmax(rng.normal(size=4)).probs
            losses = [
                nn.CrossEntropyLoss(label=pair % 4),
                nn.MarginLoss(target=(pair + 1) % 4, k=1.5),
                nn.CompositeLoss(
                    target=(pair + 2) % 4, k=1.0, c=2.0, beta=0.25, target_probs=p_ref, x0=x0
                ),
            ]
            for _ in range(60):  # draw probes until one is kink-free
                x = rng.uniform(0.05, 0.95, (1, 8, 8))
                if fd_probe_is_smooth(model, x, losses):
                    break
            else:
                pytest.fail(f"no smooth finite-difference probe found for pair {pair}")
            for loss in losses:
                analytic = input_gradient(model, x, loss)
                numeric = finite_difference(lambda t: loss_value(model, t, loss), x)
                assert_gradients_close(analytic, numeric)
            checked += 1
            pv = model.predict(x)
            assert abs(pv.probs.sum() - 1.0) < 1e-9
        assert checked >= 20
        for _ in range(200):
            pv = nn.softmax(rng.normal(scale=20, size=6))
            assert abs(pv.probs.sum() - 1.0) < 1e-9


def test_criterion_2_sparsification_soundness(fixture_model, fixture_table):
    with Criterion(2, "threshold monotonicity, mask rule, masked==zeroed, determinism", 60):
        # threshold-table monotonicity
        for taus in fixture_table.thresholds.values():
            assert (np.diff(taus, axis=1) >= 0).all()
            assert (taus[:, 0] == 0.0).all()
        # strict-below-tau rule against a per-filter sort oracle
        for idx in fixture_model.parametric_layers():
            filters = fixture_model.filter_matrix(idx)
            taus = fixture_table.thresholds[idx]
            for f in range(filters.shape[0]):
                mags = np.sort(np.abs(filters[f]))
                n = mags.size
                for gi, rate in enumerate(RATE_GRID):
                    drop = int((np.abs(filters[f]) < taus[f, gi]).sum())
                    k = min(int(np.floor(rate * n + 1e-12)), n - 1)
                    while k > 0 and not (mags[k] > mags[k - 1]):
                        k -= 1
                    assert drop == k
                    assert drop / n <= rate + 1e-12
        # masked forward bitwise-equals zeroed-weights forward
        x = np.clip(substream(1002, "x").normal(0.5, 0.2, fixture_model.input_shape), 0, 1)
        plan = draw_plan(fixture_model, fixture_table, 0.7, pass_seed=derive_seed(1002, "plan"))
        masked = noisy_forward(fixture_model, plan, x)
        zeroed = clone_with_zeroed(
            fixture_model, {i: m.astype(np.float64) for i, m in plan.masks.items()}
        ).predict(x)
        np.testing.assert_array_equal(masked.probs, zeroed.probs)
        np.testing.assert_array_equal(masked.logits, zeroed.logits)
        # plan determinism under fixed seeds
        for s in range(10):
            a = draw_plan(fixture_model, fixture_table, 0.6, pass_seed=derive_seed(1003, s))
            b = draw_plan(fixture_model, fixture_table, 0.6, pass_seed=derive_seed(1003, s))
            for i in a.masks:
                np.testing.assert_array_equal(a.masks[i], b.masks[i])


def test_criterion_3_state_machine_oracle():
    with Criterion(3, "detector state machine: every branch and the midpoint tie", 60):
        th = DetectionThresholds(t1_greedy=0.1, t2_greedy=1.9, t1_avg=0.75, t2_avg=1.25)
        cases = [
            ([0.05], "benign", 1, "greedy"),
            ([1.95], "adversarial", 1, "greedy"),
            ([0.5], "benign", 1, "average"),
            ([1.5], "adversarial", 1, "average"),
            ([1.0, 0.3], "benign", 2, "average"),
            ([1.0, 1.6], "adversarial", 2, "average"),
            ([1.0, 1.2, 1.2, 1.8], "adversarial", 4, "average"),
            ([1.1, 1.1, 1.1, 1.1, 1.1], "adversarial", 5, "cap"),
            ([0.9, 0.9, 0.9, 0.9, 0.9], "benign", 5, "cap"),
            ([1.0, 1.0, 1.0, 1.0, 1.0], "benign", 5, "cap"),  # exact midpoint tie
        ]
        covered = set()
        for distances, label, runs, reason in cases:
            seq = list(distances)
            got_label, got_runs, history, got_reason = decide(
                lambda i: seq[i - 1], th, max_runs=5
            )
            assert (got_label, got_runs, got_reason) == (label, runs, reason), distances
            assert history == distances[:runs]
            covered.add((got_label, got_reason))
        # all six decision branches exercised
        assert covered == {
            ("benign", "greedy"),
            ("adversarial", "greedy"),
            ("benign", "average"),
            ("adversarial", "average"),
            ("benign", "cap"),
            ("adversarial", "cap"),
        }


@pytest.fixture(scope="session")
def benign_first_pass(fixture_model, fixture_table, benign_eval_inputs, fixture_noise):
    return first_pass_distances(
        fixture_model,
        fixture_table,
        benign_eval_inputs,
        fixture_noise,
        [derive_seed(FIXTURE_SEED, "acceptance-benign")],
    )[0]


@pytest.fixture(scope="session")
def adv_first_pass_k2(fixture_model, fixture_table, cw_sets, fixture_noise):
    inputs = successful_inputs(cw_sets[2.0])
    return first_pass_distances(
        fixture_model,
        fixture_table,
        inputs,
        fixture_noise,
        [derive_seed(FIXTURE_SEED, "acceptance-adv")],
    )[0]


def separation_statistic(adv_d: np.ndarray, ben_d: np.ndarray) -> float:
    """Criterion 4's gate statistic: adversarial mean shift in benign-std units.

    Not fit to rank noise sources against each other: dividing by the
    benign std rewards a mode whose benign distances barely move, so it
    measures noise strength as much as separation. Criterion 7 ranks by
    detection_at_matched_fpr and auroc instead.
    """
    return float((adv_d.mean() - ben_d.mean()) / ben_d.std())


def detection_at_matched_fpr(adv_d: np.ndarray, ben_d: np.ndarray) -> float:
    """Share of adversarial distances above the benign 0.95 quantile.

    The cut is the t2_avg that `calibrate` sets at a 5% target FPR, taken
    from the same mode's own benign distances.
    """
    return float((adv_d > calibrate(ben_d, 0.05).t2_avg).mean())


def auroc(adv_d: np.ndarray, ben_d: np.ndarray) -> float:
    """P(adversarial distance > benign distance) over all pairs, ties as 1/2."""
    diff = adv_d[:, None] - ben_d[None, :]
    return float((diff > 0).mean() + 0.5 * (diff == 0).mean())


def test_criterion_4_separation(fixture_result, benign_first_pass, adv_first_pass_k2):
    with Criterion(4, "CW k=2 first-pass L1 exceeds benign mean by >= 2 benign stds", 300):
        assert fixture_result.test_accuracy >= 0.95
        assert benign_first_pass.size >= 200
        assert adv_first_pass_k2.size >= 200
        assert adv_first_pass_k2.mean() >= benign_first_pass.mean() + 2 * benign_first_pass.std()


@pytest.fixture(scope="session")
def detection_results(
    fixture_model, fixture_table, fixture_data, fixture_noise, calibrated_thresholds,
    benign_eval_inputs, cw_sets, defense_aware_sets,
):
    """Detector verdicts for the benign eval set and every attack set."""
    from stochdet.detector import detect_set

    det_cfg = DetectorConfig(
        thresholds=calibrated_thresholds,
        max_runs=DETECTOR_MAX_RUNS,
        noise=fixture_noise,
        base_seed=FIXTURE_SEED,
    )
    out = {"benign": detect_set(fixture_model, fixture_table, det_cfg, benign_eval_inputs, "benign")}
    for k, samples in cw_sets.items():
        out[f"cw_k{k:g}"] = detect_set(
            fixture_model, fixture_table, det_cfg, successful_inputs(samples), "adversarial"
        )
    for beta, samples in defense_aware_sets.items():
        out[f"da_beta{beta:g}"] = detect_set(
            fixture_model, fixture_table, det_cfg, successful_inputs(samples), "adversarial"
        )
    return out


def detection_rate(verdicts) -> float:
    return sum(1 for v in verdicts if v.label == "adversarial") / len(verdicts)


def test_criterion_5_detection_gate(detection_results):
    with Criterion(5, "FPR <= 10% at 5% target; CW k in {0,2,5} detection >= 70%, k-trend", 600):
        fpr = detection_rate(detection_results["benign"])
        assert fpr <= 0.10, f"measured benign FPR {fpr:.3f}"
        rates = {k: detection_rate(detection_results[f"cw_k{k:g}"]) for k in (0.0, 2.0, 5.0)}
        for k, rate in rates.items():
            assert rate >= 0.70, f"detection at k={k} is {rate:.3f}"
        assert abs(rates[5.0] - rates[0.0]) <= 0.15, (
            f"k=5 detection {rates[5.0]:.3f} not within 15pp of k=0 {rates[0.0]:.3f}"
        )


def test_criterion_6_adaptive_attack_tradeoff(defense_aware_sets, detection_results):
    with Criterion(6, "beta sweep: lower L1-to-target, higher L2, lower detection at 1e-1", 600):
        stats = {}
        for beta, samples in defense_aware_sets.items():
            ok = [s for s in samples if s.success]
            assert len(ok) >= 50, f"only {len(ok)} successful samples at beta={beta}"
            stats[beta] = (
                float(np.mean([s.attack_l1_to_target for s in ok])),
                float(np.mean([s.l2_distortion for s in ok])),
            )
        l1_lo, d_lo = stats[1e-4]
        l1_hi, d_hi = stats[1e-1]
        assert l1_hi < l1_lo, f"mean L1-to-target {l1_hi:.4f} !< {l1_lo:.4f}"
        assert d_hi > d_lo, f"mean L2 {d_hi:.3f} !> {d_lo:.3f}"
        det_lo = detection_rate(detection_results["da_beta0.0001"])
        det_hi = detection_rate(detection_results["da_beta0.1"])
        assert det_lo > det_hi, f"detection {det_lo:.3f} !> {det_hi:.3f}"


@pytest.fixture(scope="session")
def activation_distances(fixture_model, benign_eval_inputs, cw_sets):
    """First-pass L1 under flat activation noise at levels 0.1 and 0.9.

    Scores the same inputs as benign_first_pass and adv_first_pass_k2.
    """
    from stochdet.detector import l1_distance

    benign = benign_eval_inputs
    adversarial = successful_inputs(cw_sets[2.0])
    out = {}
    for level in (0.1, 0.9):
        for tag, inputs in (("benign", benign), ("adversarial", adversarial)):
            ds = []
            for i, x in enumerate(inputs):
                ref = fixture_model.predict(x)
                noisy = noisy_activation_forward(
                    fixture_model, level, x, derive_seed(FIXTURE_SEED, "act", tag, i)
                )
                ds.append(l1_distance(noisy, ref))
            out[(level, tag)] = np.array(ds)
    return out


def test_criterion_7_activation_noise_study(
    activation_distances, benign_first_pass, adv_first_pass_k2
):
    with Criterion(7, "activation study: 0.9 > 0.1 shift; adaptive beats 0.9, not 0.1", 300):
        # level ordering holds for both benign and adversarial sets
        assert activation_distances[(0.9, "benign")].mean() > activation_distances[(0.1, "benign")].mean()
        assert (
            activation_distances[(0.9, "adversarial")].mean()
            > activation_distances[(0.1, "adversarial")].mean()
        )
        # Rank adaptive sparsification against flat activation noise on the
        # same inputs, by detection at a matched 5% benign FPR and by AUROC.
        # NOTE: weak flat noise separates at least as well as adaptive
        # sparsification on this fixture. Its benign inputs are all
        # confident, so 10% activation noise leaves their outputs still,
        # while the CW adversarials sit within a logit margin of ~2 of the
        # boundary and move. Adaptive sparsification runs benign inputs at
        # the ~0.8 budget cap and leaves a benign tail. Strong (0.9) flat
        # noise moves benign outputs too, and there adaptive wins. A
        # detector change that beats level 0.1 fails this test on purpose:
        # update the finding and the docs with it.
        adaptive = (
            detection_at_matched_fpr(adv_first_pass_k2, benign_first_pass),
            auroc(adv_first_pass_k2, benign_first_pass),
        )
        for level in (0.1, 0.9):
            adv_d = activation_distances[(level, "adversarial")]
            ben_d = activation_distances[(level, "benign")]
            act = (detection_at_matched_fpr(adv_d, ben_d), auroc(adv_d, ben_d))
            msg = (
                f"detection@5%FPR / AUROC: adaptive {adaptive[0]:.3f} / {adaptive[1]:.4f}"
                f" vs activation({level}) {act[0]:.3f} / {act[1]:.4f}"
            )
            if level == 0.9:
                assert adaptive[0] > act[0] and adaptive[1] > act[1], msg
            else:
                assert act[0] >= adaptive[0] and act[1] >= adaptive[1], msg


def test_criterion_8_simulator_correctness(fixture_model, fixture_table):
    with Criterion(8, "cost-model hand examples, grouping optimality, stalls, conservation", 120):
        prefix = lambda ns, L: [np.array([1] * n + [0] * (L - n)) for n in ns]
        # 6-idle-slot hand example
        stalls, cycles, _ = mask_stream_trace(prefix([3, 5, 2, 4], 5), 5)
        assert cycles == 5 and stalls == 0
        assert sum(5 - n for n in (3, 5, 2, 4)) == 6
        # 8-vs-9-cycle grouping example
        masks = np.array(prefix([2, 3, 4, 5], 6))
        cost = lambda groups: sum(mask_stream_trace([masks[f] for f in g], 6)[1] for g in groups)
        assert cost([[3, 2], [1, 0]]) == 8
        assert cost([[3, 0], [2, 1]]) == 9
        # sorted chunking beats or ties 1000 random chunkings
        rng = substream(1004, "chunk")
        nnz = rng.integers(1, 40, size=16)
        chunk_cost = lambda perm: sum(
            max(nnz[f] for f in perm[i : i + 4]) for i in range(0, 16, 4)
        )
        sorted_cost = chunk_cost(sorted(range(16), key=lambda f: -nnz[f]))
        for _ in range(1000):
            assert sorted_cost <= chunk_cost(rng.permutation(16))
        # exhaustively optimal among chunkings for <= 8 filters
        for trial in range(4):
            small = rng.integers(1, 9, size=int(rng.integers(4, 9)))
            k = int(rng.integers(2, 4))
            c = lambda perm: sum(max(small[f] for f in perm[i : i + k]) for i in range(0, len(perm), k))
            best = min(c(p) for p in itertools.permutations(range(small.size)))
            assert c(sorted(range(small.size), key=lambda f: -small[f])) == best
        # stall count non-increasing in W
        a = np.array([1, 1, 1, 1, 0, 0, 0, 0, 0])
        b = np.array([0, 0, 0, 0, 1, 1, 1, 1, 1])
        stalls = [mask_stream_trace([a, b], w)[0] for w in range(1, 10)]
        assert stalls == sorted(stalls, reverse=True)
        # work conservation on every simulated layer of a real plan
        plan = draw_plan(fixture_model, fixture_table, 0.7, pass_seed=derive_seed(1005, "w"))
        cfg = AcceleratorConfig()
        for layer in plan.masks:
            consumed = 0
            for g in group_filters(plan, layer, cfg):
                _, _, trace = mask_stream_trace([plan.masks[layer][f] for f, _ in g], cfg.lookahead)
                consumed += sum(1 for row in trace for v in row if v is not None)
            assert consumed == int(plan.nnz(layer).sum())
        report = simulate_model(fixture_model, plan, cfg)
        assert report.sparse_cycles <= report.dense_cycles


def test_criterion_9_end_to_end_determinism(tmp_path):
    with Criterion(9, "pipeline reruns bitwise identical; seed change bounded", 1800):
        out_a = tmp_path / "run_a"
        cfg = ExperimentConfig(out_dir=str(out_a))
        run_pipeline(cfg, log=lambda *_: None)
        check_golden("default", out_a)  # every payload as recorded in tests/golden/payloads.json
        csv_names = ("metrics.csv", "k_sweep.csv", "beta_sweep.csv", "cycles.csv")
        snapshot = {n: (out_a / n).read_bytes() for n in csv_names}
        metrics_a = read_json_artifact(out_a / "metrics.json")[1]
        verdicts_a = artifact_payload(out_a / "verdicts_benign.jsonl")[1]

        # identical config, rerun in place: every metric CSV byte-identical
        run_pipeline(cfg, log=lambda *_: None)
        for n in csv_names:
            assert (out_a / n).read_bytes() == snapshot[n], f"{n} changed across reruns"

        # change only base_seed: verdict logs differ, aggregates stay close
        out_b = tmp_path / "run_b"
        cfg_b = ExperimentConfig(out_dir=str(out_b), base_seed=8)
        run_pipeline(cfg_b, log=lambda *_: None)
        verdicts_b = artifact_payload(out_b / "verdicts_benign.jsonl")[1]
        assert verdicts_a != verdicts_b, "per-sample verdict logs identical across seeds"
        metrics_b = read_json_artifact(out_b / "metrics.json")[1]
        for name in ("cw_l2_next_k0", "cw_l2_next_k2", "cw_l2_next_k5"):
            da = metrics_a[name]["metrics"]
            db = metrics_b[name]["metrics"]
            assert abs(da["fpr"] - db["fpr"]) <= 0.05
            assert abs(da["detection_rate"] - db["detection_rate"]) <= 0.05
