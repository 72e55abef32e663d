"""Target selection, FGSM, CW-L2, the defense-aware attack, and containers."""

import dataclasses
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochdet.attacks import (
    AdversarialSample,
    AttackConfig,
    AttackError,
    attack_sets,
    l2_distortion,
    load_adversarial_set,
    run_attack,
    save_adversarial_set,
    select_target,
)
from stochdet.nn import CompositeLoss, ProbVector
from tests.conftest import input_gradient, loss_value, verified_payload
from tests.test_nn import finite_difference


def pv(probs):
    probs = np.asarray(probs, dtype=np.float64)
    return ProbVector(probs=probs, logits=np.log(probs))


CW_CFG = AttackConfig(kind="cw_l2", k=0.0, steps=300, step_size=0.02)


# ---------------------------------------------------------------------------
# target selection


def test_select_target_next():
    assert select_target(pv([0.7, 0.2, 0.1]), "next") == 1


def test_select_target_least_likely():
    assert select_target(pv([0.7, 0.2, 0.1]), "least_likely") == 2


def test_select_target_tie_lowest_index():
    assert select_target(pv([0.5, 0.25, 0.25]), "least_likely") == 1
    assert select_target(pv([0.5, 0.25, 0.25]), "next") == 1


def test_attack_config_validation():
    with pytest.raises(AttackError):
        AttackConfig(kind="jsma")
    with pytest.raises(AttackError):
        AttackConfig(target_mode="random")
    with pytest.raises(AttackError):
        AttackConfig(steps=0)
    with pytest.raises(AttackError):
        AttackConfig(k=-1.0)


# ---------------------------------------------------------------------------
# fgsm


def test_fgsm_zero_eps_is_identity(fixture_model, fixture_data):
    _, test_set = fixture_data
    x, lab = test_set.images[0], test_set.labels[0]
    assert fixture_model.predict(x).top_class == lab
    sample = run_attack(fixture_model, x, AttackConfig(kind="fgsm", eps=0.0))
    np.testing.assert_array_equal(sample.perturbed, x)
    assert not sample.success
    assert sample.l2_distortion == 0.0


def test_fgsm_perturbation_is_eps_except_clipped(fixture_model, fixture_data):
    _, test_set = fixture_data
    x = test_set.images[1]
    eps = 0.12
    sample = run_attack(fixture_model, x, AttackConfig(kind="fgsm", eps=eps))
    delta = np.abs(sample.perturbed - x)
    interior = (x > eps) & (x < 1 - eps) & (delta > 0)
    np.testing.assert_allclose(delta[interior], eps, atol=1e-12)
    assert sample.perturbed.min() >= 0.0 and sample.perturbed.max() <= 1.0


def test_fgsm_flip_rate_gate(fixture_model, fixture_data):
    """Fixture statistic, gate frozen at the first measured level (~25%)."""
    _, test_set = fixture_data
    flips = total = 0
    for x, lab in zip(test_set.images[:150], test_set.labels[:150]):
        if fixture_model.predict(x).top_class != lab:
            continue
        total += 1
        flips += run_attack(fixture_model, x, AttackConfig(kind="fgsm", eps=0.15)).success
    assert total >= 100
    assert flips / total >= 0.20


# ---------------------------------------------------------------------------
# cw_l2


def test_cw_success_flag_matches_prediction(fixture_model, attack_sources):
    for x in attack_sources[:8]:
        target = select_target(fixture_model.predict(x), "next")
        s = run_attack(fixture_model, x, CW_CFG)
        assert s.target_class == target
        assert s.success == (fixture_model.predict(s.perturbed).top_class == target)


def test_cw_margin_at_k_zero(fixture_model, attack_sources):
    # at k=0 a successful sample's target logit tops every other logit
    x = attack_sources[0]
    s = run_attack(fixture_model, x, CW_CFG)
    assert s.success
    logits = fixture_model.predict(s.perturbed).logits
    others = np.delete(logits, s.target_class)
    assert logits[s.target_class] >= others.max()


def test_cw_box_and_distortion_accounting(fixture_model, attack_sources):
    for x in attack_sources[:6]:
        s = run_attack(fixture_model, x, CW_CFG)
        assert s.perturbed.min() >= 0.0 and s.perturbed.max() <= 1.0
        assert s.l2_distortion == pytest.approx(l2_distortion(s.perturbed, s.original), abs=1e-9)


def test_cw_distortion_grows_with_k(cw_sets):
    """Desk-scale analog of the reported strength-vs-distortion trend."""
    mean_l2 = {}
    common = None
    for k, samples in cw_sets.items():
        ok = {i for i, s in enumerate(samples) if s.success}
        common = ok if common is None else (common & ok)
    assert len(common) >= 100
    for k, samples in cw_sets.items():
        mean_l2[k] = np.mean([samples[i].l2_distortion for i in sorted(common)])
    assert mean_l2[0.0] <= mean_l2[2.0] <= mean_l2[5.0]


def test_cw_determinism(fixture_model, attack_sources):
    x = attack_sources[3]
    a = run_attack(fixture_model, x, CW_CFG)
    b = run_attack(fixture_model, x, CW_CFG)
    np.testing.assert_array_equal(a.perturbed, b.perturbed)


# ---------------------------------------------------------------------------
# defense-aware attack


def test_defense_aware_beta_zero_matches_cw_family(fixture_model, attack_sources, fixture_exemplars):
    # with beta=0 the objective degenerates to cw_l2's
    x = attack_sources[1]
    cfg = AttackConfig(kind="defense_aware", k=0.0, beta=0.0, steps=300, step_size=0.02)
    s = run_attack(fixture_model, x, cfg, fixture_exemplars)
    c = run_attack(fixture_model, x, CW_CFG)
    np.testing.assert_allclose(s.perturbed, c.perturbed, atol=1e-12)


def test_defense_aware_records_l1_to_target(fixture_model, attack_sources, fixture_exemplars):
    x = attack_sources[2]
    cfg = AttackConfig(kind="defense_aware", k=2.0, beta=1e-2, steps=300, step_size=0.02)
    s = run_attack(fixture_model, x, cfg, fixture_exemplars)
    expected = np.abs(
        fixture_model.predict(s.perturbed).probs
        - fixture_model.predict(fixture_exemplars[s.target_class]).probs
    ).sum()
    assert s.attack_l1_to_target == pytest.approx(expected, abs=1e-9)


def test_defense_aware_beta_tradeoff(defense_aware_sets):
    """Higher beta buys output mimicry at the price of distortion."""
    stats = {}
    for beta, samples in defense_aware_sets.items():
        ok = [s for s in samples if s.success]
        assert len(ok) >= 50
        stats[beta] = (
            np.mean([s.attack_l1_to_target for s in ok]),
            np.mean([s.l2_distortion for s in ok]),
        )
    l1_lo, d_lo = stats[1e-4]
    l1_hi, d_hi = stats[1e-1]
    assert l1_hi < l1_lo
    assert d_hi > d_lo


def test_composite_objective_gradient_finite_difference(fixture_model, attack_sources, fixture_exemplars):
    """Composite-loss gradient vs. central differences on the real fixture.

    A trained-scale model always has a few units within finite-difference
    reach of a relu/maxpool kink (the exhaustive every-coordinate check
    lives in the acceptance suite on kink-free toy probes), so this test
    demands the acceptance tolerance on >= 98% of coordinates, plus a global
    direction check: a wrong gradient formula breaks every coordinate,
    a crossed kink only the ones routed through it (with unbounded local
    error, so those few coordinates get no per-coordinate bound).
    """
    from stochdet.rng import substream

    x = attack_sources[4]
    target = select_target(fixture_model.predict(x), "next")
    p_ref = fixture_model.predict(fixture_exemplars[target]).probs
    loss = CompositeLoss(target=target, k=2.0, c=1.0, beta=0.05, target_probs=p_ref, x0=x)
    jitter = substream(77, "fd-probe").uniform(0.0, 0.03, x.shape)  # breaks flat-region pool ties
    probe = np.clip(x + 0.01 + jitter, 0.0, 0.97)
    analytic = input_gradient(fixture_model, probe, loss).ravel()
    numeric = finite_difference(lambda t: loss_value(fixture_model, t, loss), probe).ravel()
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    rel = np.abs(analytic - numeric) / denom
    assert np.mean(rel <= 1e-3) >= 0.98, f"only {np.mean(rel <= 1e-3):.3f} of coordinates meet 1e-3"
    cosine = float(analytic @ numeric / (np.linalg.norm(analytic) * np.linalg.norm(numeric)))
    assert cosine >= 0.999, f"gradient direction off: cosine {cosine:.6f}"


def test_run_attack_dispatch(fixture_model, attack_sources, fixture_exemplars):
    x = attack_sources[5]
    s = run_attack(fixture_model, x, AttackConfig(kind="fgsm", eps=0.1))
    assert s.kind == "fgsm"
    s = run_attack(fixture_model, x, CW_CFG)
    assert s.kind == "cw_l2"
    cfg = AttackConfig(kind="defense_aware", beta=1e-3, steps=50, step_size=0.02)
    with pytest.raises(AttackError, match="exemplar"):
        run_attack(fixture_model, x, cfg, exemplars=None)
    s = run_attack(fixture_model, x, cfg, exemplars=fixture_exemplars)
    assert s.kind == "defense_aware"


def test_run_attack_refuses_a_target_equal_to_the_source(fixture_model, attack_sources):
    # with every parameter zero all classes tie, and select_target's least
    # likely class is the source class itself
    zeroed = {i: {name: np.zeros_like(w) for name, w in p.items()} for i, p in fixture_model.params.items()}
    model = dataclasses.replace(fixture_model, params=zeroed)
    cfg = AttackConfig(kind="cw_l2", target_mode="least_likely", steps=5)
    with pytest.raises(AttackError, match="source class"):
        run_attack(model, attack_sources[0], cfg)


def test_run_attack_refuses_an_exemplar_of_another_class(fixture_model, attack_sources, fixture_exemplars):
    x = attack_sources[5]
    target = select_target(fixture_model.predict(x), "next")
    other = next(c for c in fixture_exemplars if c != target)
    cfg = AttackConfig(kind="defense_aware", beta=1e-3, steps=5)
    with pytest.raises(AttackError, match="exemplar"):
        run_attack(fixture_model, x, cfg, exemplars={target: fixture_exemplars[other]})


# ---------------------------------------------------------------------------
# container round-trip


def test_adversarial_set_roundtrip(fixture_model, attack_sources):
    samples = [
        run_attack(fixture_model, attack_sources[6], CW_CFG),
        run_attack(fixture_model, attack_sources[7], AttackConfig(kind="fgsm", eps=0.1)),
    ]
    blob = save_adversarial_set(samples, provenance={"config_hash": "abc"})
    restored = load_adversarial_set(blob)
    assert len(restored) == 2
    for orig, back in zip(samples, restored):
        np.testing.assert_array_equal(orig.perturbed, back.perturbed)
        np.testing.assert_array_equal(orig.original, back.original)
        assert orig.success == back.success
        assert orig.kind == back.kind
        assert orig.l2_distortion == back.l2_distortion


def test_adversarial_set_rejects_garbage():
    with pytest.raises(AttackError, match="bad magic"):
        load_adversarial_set(b"garbage" + bytes(32))


def _one_sample_set() -> bytes:
    x = np.linspace(0.0, 1.0, 4).reshape(1, 2, 2)
    sample = AdversarialSample(
        original=x, perturbed=1.0 - x, target_class=1, success=True, l2_distortion=0.5,
        kind="cw_l2", source_class=0,
    )
    return save_adversarial_set([sample], attack_meta={"name": "cw_l2_next_k0"})


def _with_manifest(manifest: bytes, blob: bytes = b"") -> bytes:
    return b"SDADVS01" + struct.pack("<Q", len(manifest)) + manifest + blob


@pytest.mark.parametrize(
    "data, match",
    [
        (_with_manifest(b"{not json"), "not valid JSON"),
        (_with_manifest(b"\xff\xfe"), "not valid JSON"),
        (_with_manifest(b'{"samples": []}'), "blob_bytes"),
        (_with_manifest(b"[1, 2]"), "mistypes"),
        (b"SDADVS01" + struct.pack("<Q", 99) + b"{}", "truncated"),
    ],
)
def test_adversarial_set_typed_errors(data, match):
    with pytest.raises(AttackError, match=match):
        load_adversarial_set(data)


def test_adversarial_set_rejects_out_of_range_offset():
    blob = _one_sample_set()
    bad = blob.replace(b'"pert_offset": 32', b'"pert_offset": 33')
    assert bad != blob
    with pytest.raises(AttackError, match="blob has only"):
        load_adversarial_set(bad)


def _overwrite(at: int, patch: bytes) -> bytes:
    blob = _one_sample_set()
    return blob[:at] + patch + blob[at + len(patch) :]


@given(
    st.one_of(
        st.binary(max_size=200),
        st.binary(max_size=200).map(_with_manifest),
        st.builds(_overwrite, st.integers(0, 400), st.binary(min_size=1, max_size=4)),
        st.integers(0, 400).map(lambda n: _one_sample_set()[:n]),
    )
)
@settings(max_examples=300, deadline=None)
def test_adversarial_set_fuzz_yields_typed_error_or_samples(data):
    # verify never raises, and passes only a container whose payload is the one saved
    assert verified_payload(data, "adv_x.bin") in (None, verified_payload(_one_sample_set(), "adv_x.bin"))
    try:
        samples = load_adversarial_set(data)
    except AttackError:
        return
    assert isinstance(samples, list)
    assert all(isinstance(s, AdversarialSample) for s in samples)


@pytest.mark.parametrize(
    "cfg",
    [
        AttackConfig(kind="fgsm", eps=0.1),
        AttackConfig(kind="cw_l2", k=2.0, steps=40, step_size=0.02),
        AttackConfig(kind="defense_aware", k=2.0, beta=0.1, steps=40, step_size=0.02),
    ],
    ids=lambda cfg: cfg.kind,
)
def test_attack_set_equals_run_attack_per_source_bytewise(fixture_model, attack_sources, fixture_exemplars, cfg):
    sources = attack_sources[:6]
    batched = attack_sets(fixture_model, sources, [cfg], fixture_exemplars)[0]
    assert len(batched) == len(sources)
    for x, b in zip(sources, batched):
        one = run_attack(fixture_model, x, cfg, fixture_exemplars)
        assert b.original.tobytes() == one.original.tobytes()
        assert b.perturbed.tobytes() == one.perturbed.tobytes()
        rest = ("target_class", "success", "l2_distortion", "kind", "source_class", "attack_l1_to_target")
        assert [getattr(b, f) for f in rest] == [getattr(one, f) for f in rest]
    assert attack_sets(fixture_model, [], [cfg], fixture_exemplars)[0] == []


def test_attack_sets_mixes_attacks_in_blocks_bytewise(fixture_model, attack_sources, fixture_exemplars):
    # 5 sources x 3 descents of 30 steps span blocks of BATCH_ROWS rows that mix cw_l2 and
    # defense_aware rows; the 20-step attack runs apart, and the fgsm rows share one gradient
    cfgs = [
        AttackConfig(kind="fgsm", eps=0.1),
        AttackConfig(kind="cw_l2", k=2.0, steps=30, step_size=0.02),
        AttackConfig(kind="defense_aware", k=2.0, beta=0.1, steps=30, step_size=0.03),
        AttackConfig(kind="cw_l2", target_mode="least_likely", k=0.0, c=2.0, steps=30),
        AttackConfig(kind="cw_l2", k=5.0, steps=20),
    ]
    sources = attack_sources[:5]
    results = attack_sets(fixture_model, sources, cfgs, fixture_exemplars)
    assert [len(r) for r in results] == [len(sources)] * len(cfgs)
    for cfg, samples in zip(cfgs, results):
        for x, b in zip(sources, samples):
            one = run_attack(fixture_model, x, cfg, fixture_exemplars)
            assert b.perturbed.tobytes() == one.perturbed.tobytes()
            assert (b.target_class, b.success, b.l2_distortion, b.attack_l1_to_target) == (
                one.target_class, one.success, one.l2_distortion, one.attack_l1_to_target
            )


def test_attack_set_applies_the_per_source_rules(fixture_model, attack_sources, fixture_exemplars):
    cfg = AttackConfig(kind="defense_aware", k=2.0, beta=0.1, steps=5)
    with pytest.raises(AttackError, match="benign exemplar"):
        attack_sets(fixture_model, attack_sources[:4], [cfg], exemplars=None)[0]
