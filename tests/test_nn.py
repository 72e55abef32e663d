"""Layer-level oracles and gradient checks for the numerical core."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from stochdet import nn
from stochdet.model import LayerSpec, Model, conv_pool_arch, init_model, loss_gradients
from stochdet.rng import substream
from tests.conftest import clone_with_zeroed, input_gradient, loss_value

# gradient checks: relative tolerance with a small absolute floor, since
# central differences carry O(h^2) truncation error around 1e-8
GRAD_RTOL = 1e-3
GRAD_ATOL = 1e-6
FD_STEP = 1e-4


def finite_difference(f, x, h=FD_STEP):
    """Central-difference gradient of scalar f at x, coordinate by coordinate."""
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    flat = x.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = f(x)
        flat[i] = orig - h
        down = f(x)
        flat[i] = orig
        gflat[i] = (up - down) / (2 * h)
    return g


def assert_gradients_close(analytic, numeric):
    analytic = np.asarray(analytic).ravel()
    numeric = np.asarray(numeric).ravel()
    denom = np.maximum(np.abs(analytic), np.abs(numeric))
    err = np.abs(analytic - numeric)
    ok = err <= GRAD_ATOL + GRAD_RTOL * denom
    worst = np.argmax(err - GRAD_RTOL * denom)
    assert ok.all(), (
        f"gradient mismatch at flat index {worst}: "
        f"analytic={analytic[worst]:.6e} numeric={numeric[worst]:.6e}"
    )


def fd_probe_is_smooth(model, x, losses, margin=5e-3):
    """True when no relu/maxpool/margin kink sits within the FD interval.

    Central differences are only an oracle at locally smooth points; a
    probe whose +-h wiggle crosses an activation boundary or a loss clamp
    compares a one-sided slope against the analytic subgradient.
    """
    trace = model.forward_trace(x[None])
    for idx, spec in enumerate(model.layers):
        if spec.kind == "relu":
            if np.abs(trace.inputs[idx]).min() < margin:
                return False
        elif spec.kind == "maxpool2d":
            v = trace.inputs[idx][0]
            c, h, w = v.shape
            windows = v.reshape(c, h // 2, 2, w // 2, 2).transpose(0, 1, 3, 2, 4).reshape(-1, 4)
            top2 = np.sort(windows, axis=1)[:, -2:]
            # a near-tie matters only at a positive maximum; ties between
            # relu-zeroed entries are already covered by the relu check
            contested = (top2[:, 1] - top2[:, 0] < margin) & (top2[:, 1] > margin)
            if contested.any():
                return False
    logits = trace.logits[0]
    for loss in losses:
        target = getattr(loss, "target", None)
        if target is None:
            continue
        others = np.delete(logits, target)
        gap = float(others.max() - logits[target])
        if abs(gap + loss.k) < margin:  # clamp boundary of max(gap, -k)
            return False
        if others.size >= 2 and np.diff(np.sort(others)[-2:])[0] < margin:
            return False  # runner-up argmax about to switch
        p_ref = getattr(loss, "target_probs", None)
        if p_ref is not None and p_ref.size:
            # an |.| kink only matters where some probability mass sits:
            # softmax tail components carry ~p_i-scale gradients either side
            live = (trace.probs[0] > 1e-3) | (p_ref > 1e-3)
            if live.any() and np.abs(trace.probs[0] - p_ref)[live].min() < 1e-3:
                return False
    return True



# ---------------------------------------------------------------------------
# conv2d


def test_conv2d_scalar_scaling():
    x = np.ones((1, 3, 3))
    w = np.full((1, 1, 1, 1), 2.0)
    y = nn.conv2d_forward(x[None], w, np.zeros(1))[0]
    assert y.shape == (1, 3, 3)
    np.testing.assert_array_equal(y, np.full((1, 3, 3), 2.0))


def test_conv2d_all_zero_mask_gives_bias():
    rng = substream(1, "conv")
    x = rng.normal(size=(2, 5, 5))
    w = rng.normal(size=(3, 2, 3, 3))
    b = np.array([1.5, -2.0, 0.25])
    # a mask is applied by substituting the masked weights, w * mask
    y = nn.conv2d_forward(x[None], w * np.zeros(w.shape), b)[0]
    for c in range(3):
        np.testing.assert_array_equal(y[c], np.full((3, 3), b[c]))


def test_conv2d_hand_computed_sliding_sums():
    x = np.arange(1.0, 10.0).reshape(1, 3, 3)
    w = np.ones((1, 1, 2, 2))
    y = nn.conv2d_forward(x[None], w, np.zeros(1))[0]
    np.testing.assert_array_equal(y[0], [[12.0, 16.0], [24.0, 28.0]])


def test_conv2d_rejects_shape_mismatch_with_dimension_report():
    with pytest.raises(nn.ShapeError, match="2 channels but weights expect 3"):
        nn.conv2d_forward(np.ones((1, 2, 4, 4)), np.ones((1, 3, 2, 2)), np.zeros(1))
    with pytest.raises(nn.ShapeError, match="does not fit"):
        nn.conv2d_forward(np.ones((1, 1, 2, 2)), np.ones((1, 1, 3, 3)), np.zeros(1))


def test_conv2d_stride_2_matches_naive_loops():
    rng = substream(2, "conv")
    x = rng.normal(size=(2, 7, 7))
    w = rng.normal(size=(3, 2, 3, 3))
    b = rng.normal(size=3)
    y = nn.conv2d_forward(x[None], w, b, stride=2)[0]
    expected = np.zeros_like(y)
    for f in range(3):
        for oh in range(3):
            for ow in range(3):
                patch = x[:, 2 * oh : 2 * oh + 3, 2 * ow : 2 * ow + 3]
                expected[f, oh, ow] = (patch * w[f]).sum() + b[f]
    np.testing.assert_allclose(y, expected, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "shape,kernel,stride", [((1, 18, 18), 3, 1), ((8, 8, 8), 3, 1), ((2, 9, 9), 3, 2), ((2, 10, 7), 4, 3)]
)
def test_conv2d_backward_dx_sums_in_kernel_offset_order(shape, kernel, stride):
    # each input position must add its contributions in (kernel row, kernel
    # col) order from 0.0, so gradients stay bit-identical across rewrites
    rng = substream(5, "col2im")
    x = rng.normal(size=shape)
    w = rng.normal(size=(3, shape[0], kernel, kernel))
    y = nn.conv2d_forward(x[None], w, np.zeros(3), stride=stride)[0]
    dy = rng.normal(size=y.shape) * 10.0 ** rng.integers(-8, 9, size=y.shape)
    dx = nn.conv2d_backward(dy[None], x[None], w, stride)[0][0]
    dcols = (w.reshape(3, -1).T @ dy.reshape(3, -1)).reshape(shape[0], kernel, kernel, *y.shape[1:])
    expected = np.zeros(shape)
    h_out, w_out = y.shape[1:]
    for i in range(kernel):
        for j in range(kernel):
            expected[:, i : i + stride * h_out : stride, j : j + stride * w_out : stride] += dcols[:, i, j]
    assert dx.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# relu / maxpool


def test_relu_definition():
    np.testing.assert_array_equal(nn.relu_forward(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])


def test_relu_all_negative_is_zero():
    x = -np.abs(substream(3, "r").normal(size=(2, 4, 4))) - 0.1
    assert (nn.relu_forward(x) == 0).all()


@given(arrays(np.float64, (3, 4), elements=st.floats(-10, 10)))
def test_relu_idempotent(x):
    once = nn.relu_forward(x)
    np.testing.assert_array_equal(nn.relu_forward(once), once)


def test_maxpool_constant_tensor():
    y = nn.maxpool2d_forward(np.full((1, 2, 4, 6), 3.25))
    np.testing.assert_array_equal(y, np.full((1, 2, 2, 3), 3.25))


def test_maxpool_single_window():
    y = nn.maxpool2d_forward(np.array([[[[1.0, 2.0], [3.0, 4.0]]]]))
    np.testing.assert_array_equal(y, [[[[4.0]]]])


def test_maxpool_matches_bruteforce_windows():
    x = substream(4, "p").normal(size=(3, 4, 4))
    y = nn.maxpool2d_forward(x[None])[0]
    for c in range(3):
        for i in range(2):
            for j in range(2):
                assert y[c, i, j] == x[c, 2 * i : 2 * i + 2, 2 * j : 2 * j + 2].max()


def test_maxpool_gradient_goes_to_the_first_maximum():
    x = np.array([[[[1.0, 1.0, 0.0, 2.0], [1.0, 1.0, 2.0, 1.0]]]])
    cache = {}
    y = nn.maxpool2d_forward(x, cache=cache)
    np.testing.assert_array_equal(y, [[[[1.0, 2.0]]]])
    dx = nn.maxpool2d_backward(np.array([[[[5.0, 7.0]]]]), x, cache)
    np.testing.assert_array_equal(dx, [[[[5.0, 0.0, 0.0, 7.0], [0.0, 0.0, 0.0, 0.0]]]])


@pytest.mark.parametrize("values", [(-0.0, 0.0), (-0.0, 0.0, -1.0), (1.0, 2.0, -0.0, 0.0, 2.0), (np.inf, -np.inf, 3.0)])
def test_cacheless_maxpool_is_the_first_maximum_bytewise(values):
    # every window drawn from few values, so most hold ties, and +0 and -0 compare equal
    rng = substream(5, "ties", len(values))
    for shape in [(1, 1, 2, 2), (1, 3, 4, 6), (1, 8, 16, 16), (1, 2, 18, 2)]:
        for _ in range(20):
            x = np.asarray(values)[rng.integers(0, len(values), size=shape)]
            cached = nn.maxpool2d_forward(x, cache={})
            cacheless = nn.maxpool2d_forward(x)
            assert cacheless.shape == cached.shape
            assert cacheless.tobytes() == cached.tobytes()


def three_comparison_maxpool(x: np.ndarray) -> np.ndarray:
    """The cacheless maxpool as three comparisons, each later window slice folded into the first."""
    out = np.maximum(x[..., ::2, 1::2], x[..., ::2, ::2])
    np.maximum(x[..., 1::2, ::2], out, out=out)
    return np.maximum(x[..., 1::2, 1::2], out, out=out)


POOL_VALUES = [0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1.0, -1.0, 5e-324, 2.0]


@settings(max_examples=300, deadline=None)
@given(
    rows=st.integers(1, 8),
    channels=st.integers(1, 3),
    half_h=st.integers(1, 4),
    half_w=st.integers(1, 4),
    data=st.data(),
)
def test_two_comparison_maxpool_equals_three_comparisons_bytewise(rows, channels, half_h, half_w, data):
    """Columns, then rows, keep the first maximum as the three-comparison form does: ties, +-0, NaN, +-inf."""
    shape = (rows, channels, 2 * half_h, 2 * half_w)
    values = st.one_of(st.sampled_from(POOL_VALUES), st.floats(allow_nan=True, allow_infinity=True))
    x = data.draw(arrays(np.float64, shape, elements=values))
    assert nn.maxpool2d_forward(x).tobytes() == three_comparison_maxpool(x).tobytes()


def test_two_comparison_maxpool_on_20000_tied_windows():
    """8 rows of 2,500 windows each, drawn from few values, so that most windows hold ties."""
    x = np.asarray(POOL_VALUES)[substream(6, "pool").integers(0, len(POOL_VALUES), size=(8, 50, 10, 20))]
    assert nn.maxpool2d_forward(x).tobytes() == three_comparison_maxpool(x).tobytes()


def test_maxpool_rejects_odd_extent():
    with pytest.raises(nn.ShapeError, match="even extents"):
        nn.maxpool2d_forward(np.ones((1, 1, 3, 4)))


# ---------------------------------------------------------------------------
# dense / softmax


def test_dense_identity():
    x = np.array([1.0, -2.0, 3.0])
    y = nn.dense_forward(x[None], np.eye(3), np.zeros(3))[0]
    np.testing.assert_array_equal(y, x)


def test_dense_all_zero_mask_gives_bias():
    w = substream(5, "d").normal(size=(2, 4))
    b = np.array([0.5, -0.5])
    y = nn.dense_forward(np.ones((1, 4)), w * np.zeros(w.shape), b)[0]
    np.testing.assert_array_equal(y, b)


def test_dense_matches_loop_oracle():
    rng = substream(6, "d")
    x = rng.normal(size=4)
    w = rng.normal(size=(3, 4))
    b = rng.normal(size=3)
    y = nn.dense_forward(x[None], w, b)[0]
    for m in range(3):
        assert y[m] == pytest.approx(sum(w[m, n] * x[n] for n in range(4)) + b[m], abs=1e-12)


def test_dense_rejects_mismatch():
    with pytest.raises(nn.ShapeError, match="5 values but weights expect 4"):
        nn.dense_forward(np.ones((1, 5)), np.ones((3, 4)), np.zeros(3))


def test_softmax_uniform_on_zeros():
    pv = nn.softmax(np.zeros(4))
    np.testing.assert_allclose(pv.probs, 0.25, atol=1e-15)


def test_softmax_closed_form():
    pv = nn.softmax(np.array([np.log(2.0), 0.0]))
    np.testing.assert_allclose(pv.probs, [2 / 3, 1 / 3], atol=1e-12)


@given(
    arrays(np.float64, 5, elements=st.floats(-50, 50)),
    st.floats(-100, 100),
)
def test_softmax_shift_invariance(z, c):
    np.testing.assert_allclose(nn.softmax(z + c).probs, nn.softmax(z).probs, atol=1e-12)


def test_softmax_survives_large_logits():
    pv = nn.softmax(np.array([1000.0, 0.0, -1000.0]))
    assert pv.probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.isfinite(pv.probs).all()


@given(arrays(np.float64, 6, elements=st.floats(-30, 30)))
def test_probvector_sums_to_one(z):
    pv = nn.softmax(z)
    assert abs(pv.probs.sum() - 1.0) < 1e-9
    assert (pv.probs > 0).all()


# ---------------------------------------------------------------------------
# gradients


def tiny_model(seed: int) -> Model:
    arch = [
        LayerSpec("conv2d", out_channels=3, kernel=3),
        LayerSpec("relu"),
        LayerSpec("maxpool2d"),
        LayerSpec("dense", out_features=4),
        LayerSpec("softmax"),
    ]
    return init_model(arch, (1, 8, 8), 4, seed)


def test_constant_loss_zero_gradient():
    class ConstantLoss:
        def value_and_grads(self, logits, probs, x):
            return 1.0, np.zeros_like(logits), None

    model = tiny_model(0)
    g = input_gradient(model, substream(7, "x").uniform(0, 1, (1, 8, 8)), ConstantLoss())
    np.testing.assert_array_equal(g, np.zeros((1, 8, 8)))


def test_linear_layer_gradient_is_weight_row():
    # dense+softmax model; seed the backward with a one-hot at logit j
    arch = [LayerSpec("dense", out_features=3), LayerSpec("softmax")]
    model = init_model(arch, (1, 2, 2), 3, seed=1)
    x = substream(8, "x").normal(size=(1, 2, 2))
    trace = model.forward_trace(x[None], cache=True)
    for j in range(3):
        seed_grad = np.zeros((1, 3))
        seed_grad[0, j] = 1.0
        dx, _ = trace.backward(seed_grad)
        np.testing.assert_allclose(dx.ravel(), model.params[0]["w"][j], atol=1e-12)


def test_cross_entropy_gradient_matches_finite_differences():
    model = tiny_model(3)
    x = substream(9, "x").uniform(0.05, 0.95, (1, 8, 8))
    loss = nn.CrossEntropyLoss(label=2)
    analytic = input_gradient(model, x, loss)
    numeric = finite_difference(lambda t: loss_value(model, t, loss), x)
    assert_gradients_close(analytic, numeric)


def test_margin_loss_gradient_matches_finite_differences():
    model = tiny_model(4)
    x = substream(10, "x").uniform(0.05, 0.95, (1, 8, 8))
    loss = nn.MarginLoss(target=1, k=2.0)
    analytic = input_gradient(model, x, loss)
    numeric = finite_difference(lambda t: loss_value(model, t, loss), x)
    assert_gradients_close(analytic, numeric)


def test_composite_loss_gradient_matches_finite_differences():
    model = tiny_model(5)
    rng = substream(11, "x")
    x = rng.uniform(0.05, 0.95, (1, 8, 8))
    x0 = rng.uniform(0.05, 0.95, (1, 8, 8))
    p_ref = nn.softmax(rng.normal(size=4)).probs
    loss = nn.CompositeLoss(target=0, k=1.0, c=2.0, beta=0.5, target_probs=p_ref, x0=x0)
    analytic = input_gradient(model, x, loss)
    numeric = finite_difference(lambda t: loss_value(model, t, loss), x)
    assert_gradients_close(analytic, numeric)


def stride2_model(seed: int) -> Model:
    arch = [
        LayerSpec("conv2d", out_channels=2, kernel=3, stride=2),
        LayerSpec("relu"),
        LayerSpec("maxpool2d"),
        LayerSpec("dense", out_features=3),
        LayerSpec("softmax"),
    ]
    return init_model(arch, (2, 9, 9), 3, seed)


@pytest.mark.parametrize("make_model,shape", [(tiny_model, (1, 8, 8)), (stride2_model, (2, 9, 9))])
def test_param_gradients_match_finite_differences(make_model, shape):
    model = make_model(15)
    x = substream(15, "x").uniform(0.05, 0.95, shape)
    loss = nn.CrossEntropyLoss(label=1)
    # a weight nudge of FD_STEP moves each conv output by at most FD_STEP * max|x| < 2 * FD_STEP
    assert fd_probe_is_smooth(model, x, [loss], margin=2 * FD_STEP)
    _, _, _, param_grads = loss_gradients(model, x[None], loss)
    assert sorted(param_grads) == model.parametric_layers()
    for idx in model.parametric_layers():
        for name in ("w", "b"):
            # finite_difference perturbs the array it is given in place, so
            # the model under test sees each nudged copy of the parameter
            original = model.params[idx][name]
            model.params[idx][name] = original.copy()
            numeric = finite_difference(lambda _: loss_value(model, x, loss), model.params[idx][name])
            model.params[idx][name] = original
            assert param_grads[idx][name].shape == (1, *original.shape)
            assert_gradients_close(param_grads[idx][name][0], numeric)


def test_loss_rejects_out_of_range_class():
    model = tiny_model(6)
    x = np.full((1, 8, 8), 0.5)
    with pytest.raises(ValueError, match="out of range"):
        input_gradient(model, x, nn.CrossEntropyLoss(label=7))
    with pytest.raises(ValueError, match="out of range"):
        input_gradient(model, x, nn.MarginLoss(target=4))


def test_masked_forward_equals_zeroed_weights_bitwise():
    model = tiny_model(7)
    rng = substream(12, "m")
    x = rng.uniform(0, 1, (1, 8, 8))
    masks = {
        idx: (rng.uniform(size=model.params[idx]["w"].shape) > 0.4).astype(np.float64)
        for idx in model.parametric_layers()
    }
    masked = model.run_layers(x[None], weights={idx: model.params[idx]["w"] * m for idx, m in masks.items()})
    zeroed = clone_with_zeroed(model, masks).forward_trace(x[None])
    np.testing.assert_array_equal(masked.probs, zeroed.probs)
    np.testing.assert_array_equal(masked.logits, zeroed.logits)


def test_forward_is_deterministic():
    model = tiny_model(8)
    x = substream(13, "x").uniform(0, 1, (1, 8, 8))
    a = model.predict(x)
    b = model.predict(x)
    np.testing.assert_array_equal(a.probs, b.probs)
    np.testing.assert_array_equal(a.logits, b.logits)


def test_cacheless_and_suffix_forwards_equal_the_full_cached_forward():
    model = tiny_model(9)
    x = substream(14, "x").uniform(0, 1, (1, 8, 8))[None]
    full = model.forward_trace(x, cache=True)
    cacheless = model.forward_trace(x)
    assert cacheless.caches is None
    assert cacheless.probs.tobytes() == full.probs.tobytes()
    assert cacheless.logits.tobytes() == full.logits.tobytes()
    for start in range(1, len(model.layers)):
        inputs: list = []
        suffix = model.run_layers(full.inputs[start], start, inputs=inputs)
        assert len(inputs) == len(model.layers) - start
        assert suffix.probs.tobytes() == full.probs.tobytes()
    # the model's own weights, substituted, and all-ones activation factors leave every byte as it is
    weights = {idx: model.params[idx]["w"].copy() for idx in model.parametric_layers()}
    relu = next(i for i, spec in enumerate(model.layers) if spec.kind == "relu")
    factors = {relu: np.ones(model.layer_input_shapes[relu])}
    for kwargs in ({"weights": weights}, {"act_factors": factors}):
        assert model.run_layers(x, **kwargs).probs.tobytes() == full.probs.tobytes()
    with pytest.raises(nn.ShapeError, match="does not match model input"):
        model.forward_trace(full.inputs[3])


def test_backward_refuses_a_cacheless_trace():
    model = tiny_model(10)
    x = substream(15, "x").uniform(0, 1, (1, 8, 8))[None]
    full = model.forward_trace(x, cache=True)
    dlogits = np.ones((1, 4))
    with pytest.raises(ValueError, match="backward needs"):
        model.forward_trace(x).backward(dlogits)
    full.backward(dlogits)


# ---------------------------------------------------------------------------
# batch invariance: every row of a batch is its batch-of-one run, byte for byte

# few-valued inputs make maxpool windows tie and mix +0.0 with -0.0; relu
# zeroes whole regions, so dense inputs hold exact zeros, and a negative
# dlogits row multiplies them into -0.0 weight gradients
PALETTES = [None, (-0.0, 0.0), (-0.0, 0.0, 1.0), (0.5, -0.0, 2.0, 0.5), (-1.0, 0.0)]


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 17),
    seed=st.integers(0, 2**32 - 1),
    palette=st.sampled_from(PALETTES),
    negative_seed=st.booleans(),
)
def test_batch_rows_equal_batch_of_one_runs_bytewise(n, seed, palette, negative_seed):
    rng = np.random.default_rng(seed)
    model = init_model(conv_pool_arch((8, 16), 3, 4), (1, 18, 18), 4, seed % 1000)
    shape = (n, 1, 18, 18)
    x = rng.normal(size=shape) if palette is None else np.asarray(palette)[rng.integers(0, len(palette), shape)]
    dlogits = -np.abs(rng.normal(size=(n, 4))) if negative_seed else rng.normal(size=(n, 4))
    batch = model.forward_trace(x, cache=True)
    dx, grads = batch.backward(dlogits)
    cacheless = model.forward_trace(x)
    only_dx, no_grads = batch.backward(dlogits, param_grads=False)
    no_dx, only_grads = batch.backward(dlogits, input_grad=False)
    assert no_grads == {} and no_dx is None
    for r in range(n):
        single = model.forward_trace(x[r : r + 1], cache=True)
        dx1, grads1 = single.backward(dlogits[r : r + 1])
        assert batch.logits[r].tobytes() == single.logits[0].tobytes()
        assert batch.probs[r].tobytes() == single.probs[0].tobytes()
        assert cacheless.probs[r].tobytes() == single.probs[0].tobytes()
        assert model.predict(x[r]).logits.tobytes() == single.logits[0].tobytes()
        assert dx[r].tobytes() == dx1[0].tobytes() == only_dx[r].tobytes()
        assert sorted(grads) == sorted(grads1) == model.parametric_layers()
        for idx in grads:
            for name in ("w", "b"):
                assert grads[idx][name][r].tobytes() == grads1[idx][name][0].tobytes()
                assert only_grads[idx][name][r].tobytes() == grads1[idx][name][0].tobytes()


@settings(max_examples=30, deadline=None)
@given(n=st.integers(1, 17), seed=st.integers(0, 2**32 - 1), c=st.sampled_from([2, 4, 10]))
def test_batched_losses_equal_row_by_row_losses_bytewise(n, seed, c):
    rng = np.random.default_rng(seed)
    logits = rng.normal(scale=5.0, size=(n, c))
    probs = nn.softmax(logits).probs
    x = rng.uniform(size=(n, 1, 3, 3))
    labels = rng.integers(0, c, size=n)
    p_ref = nn.softmax(rng.normal(size=(n, c))).probs
    losses = [
        lambda rows: nn.CrossEntropyLoss(labels[rows]),
        lambda rows: nn.MarginLoss(labels[rows], k=1.5),
        lambda rows: nn.CompositeLoss(labels[rows], k=1.0, c=2.0, beta=0.7, target_probs=p_ref[rows], x0=x[rows] / 2),
    ]
    for make in losses:
        values, dlogits, dx = make(slice(None)).value_and_grads(logits, probs, x)
        for r in range(n):
            row = slice(r, r + 1)
            v1, d1, dx1 = make(row).value_and_grads(logits[row], probs[row], x[row])
            assert values[r].tobytes() == v1[0].tobytes()
            assert dlogits[r].tobytes() == d1[0].tobytes()
            assert dx is None or dx[r].tobytes() == dx1[0].tobytes()
        assert nn.softmax(logits[0]).probs.tobytes() == probs[0].tobytes()
