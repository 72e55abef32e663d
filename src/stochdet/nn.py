"""Dense tensor layers and reverse-mode gradients.

Tensors are plain ``numpy.ndarray`` in float64, row-major. Convolutions
are valid (no padding); pooling is a fixed 2x2/stride-2 max. Every layer
has a forward function and a matching backward that propagates gradients
to the input. ``relu_backward`` and ``maxpool2d_backward`` return ``dx``;
``conv2d_backward`` and ``dense_backward`` return ``(dx, {"w": dw, "b": db})``,
the form ``model.Trace.backward`` stores.

Weight masks: ``conv2d_forward`` and ``dense_forward`` accept an optional
0/1 mask over the weight tensor. Masking is implemented by multiplying
the weights by the mask before use, so a masked pass is bitwise equal to
a dense pass over a copy of the model whose masked weights are zero.
Masked passes never run a backward, so the backward functions take no
mask; only a cached forward (training and attack gradients) feeds them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np


class ShapeError(ValueError):
    """An operation was given tensors with incompatible extents."""


def _as_f64(x: np.ndarray) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _apply_mask(w: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    if mask is None:
        return w
    m = np.asarray(mask)
    if m.size != w.size:
        raise ShapeError(f"mask has {m.size} entries for a weight tensor of {w.size}")
    return w * m.reshape(w.shape).astype(np.float64)


# ---------------------------------------------------------------------------
# convolution


def conv2d_forward(
    x: np.ndarray,
    w: np.ndarray,
    b: np.ndarray,
    stride: int = 1,
    mask: np.ndarray | None = None,
    cache: dict | None = None,
) -> np.ndarray:
    """Valid cross-correlation of x[C_in,H,W] with w[C_out,C_in,kH,kW]."""
    x, w, b = _as_f64(x), _as_f64(w), _as_f64(b)
    if x.ndim != 3 or w.ndim != 4:
        raise ShapeError(f"conv2d expects 3-d input and 4-d weights, got {x.shape} and {w.shape}")
    c_in, h, wd = x.shape
    c_out, c_in_w, kh, kw = w.shape
    if c_in != c_in_w:
        raise ShapeError(f"conv2d input has {c_in} channels but weights expect {c_in_w}")
    if b.shape != (c_out,):
        raise ShapeError(f"conv2d bias shape {b.shape} does not match {c_out} filters")
    if stride < 1:
        raise ShapeError(f"conv2d stride must be positive, got {stride}")
    h_out = (h - kh) // stride + 1
    w_out = (wd - kw) // stride + 1
    if h - kh < 0 or wd - kw < 0:
        raise ShapeError(f"conv2d kernel {kh}x{kw} does not fit input {h}x{wd}")

    cols = _im2col(x, kh, kw, stride, h_out, w_out)
    w_eff = _apply_mask(w, mask)
    y = w_eff.reshape(c_out, -1) @ cols + b[:, None]
    if cache is not None:
        cache["cols"] = cols
    return y.reshape(c_out, h_out, w_out)


@lru_cache(maxsize=64)
def _patch_index(x_shape: tuple, kh: int, kw: int, stride: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices into x of every (channel, kernel row, kernel col, output position).

    Returns (gather, scatter): gather is laid out as the im2col matrix,
    rows in (channel, row, col) order; scatter lists the same indices with
    the kernel offset outermost, the order in which _col2im sums them.
    """
    c_in, h, wd = x_shape
    h_out = (h - kh) // stride + 1
    w_out = (wd - kw) // stride + 1
    rows = np.arange(kh)[:, None, None, None] + stride * np.arange(h_out)[None, None, :, None]
    cols = np.arange(kw)[None, :, None, None] + stride * np.arange(w_out)[None, None, None, :]
    idx = (np.arange(c_in)[:, None, None, None, None] * (h * wd) + rows * wd + cols).reshape(
        c_in, kh, kw, h_out, w_out
    )
    gather = idx.reshape(c_in * kh * kw, h_out * w_out)
    scatter = idx.transpose(1, 2, 0, 3, 4).ravel()
    gather.flags.writeable = scatter.flags.writeable = False
    return gather, scatter


def _im2col(x: np.ndarray, kh: int, kw: int, stride: int, h_out: int, w_out: int) -> np.ndarray:
    gather, _ = _patch_index(x.shape, kh, kw, stride)
    return x.ravel()[gather]


def conv2d_backward(
    dy: np.ndarray,
    x: np.ndarray,
    w: np.ndarray,
    stride: int,
    cache: dict,
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Gradients (dx, {"w": dw, "b": db}) of the mask-free conv2d_forward call that filled cache."""
    dy = _as_f64(dy)
    c_out, c_in, kh, kw = w.shape
    h_out, w_out = dy.shape[1], dy.shape[2]
    cols = cache["cols"]
    dy_flat = dy.reshape(c_out, -1)
    dw = (dy_flat @ cols.T).reshape(w.shape)
    db = dy_flat.sum(axis=1)
    dcols = _as_f64(w).reshape(c_out, -1).T @ dy_flat
    dx = _col2im(dcols, x.shape, kh, kw, stride, h_out, w_out)
    return dx, {"w": dw, "b": db}


def _col2im(
    dcols: np.ndarray, x_shape: tuple, kh: int, kw: int, stride: int, h_out: int, w_out: int
) -> np.ndarray:
    """Sum each column entry back onto the input position it was read from.

    Every input position adds its contributions in kernel-offset order,
    starting from 0.0, as a loop of one strided add per offset would.
    """
    c_in = x_shape[0]
    _, scatter = _patch_index(x_shape, kh, kw, stride)
    per_offset = dcols.reshape(c_in, kh * kw, h_out * w_out).transpose(1, 0, 2).ravel()
    return np.bincount(scatter, weights=per_offset, minlength=math.prod(x_shape)).reshape(x_shape)


# ---------------------------------------------------------------------------
# activation / pooling


def relu_forward(x: np.ndarray) -> np.ndarray:
    return np.maximum(_as_f64(x), 0.0)


def relu_backward(dy: np.ndarray, x: np.ndarray) -> np.ndarray:
    return _as_f64(dy) * (x > 0)


@lru_cache(maxsize=64)
def _pool_index(x_shape: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices into x of each 2x2 window, one row per output, and the offsets within a row."""
    c, h, w = x_shape
    windows = np.arange(c * h * w).reshape(c, h // 2, 2, w // 2, 2).transpose(0, 1, 3, 2, 4).reshape(-1, 4)
    offsets = np.array([0, 1, w, w + 1])
    windows.flags.writeable = offsets.flags.writeable = False
    return windows, offsets


def maxpool2d_forward(x: np.ndarray, cache: dict | None = None) -> np.ndarray:
    """2x2 max pooling with stride 2; extents must be even.

    Each output is its window's first maximum in (row, col) order. With a
    cache, the positions backward needs are recorded as well.
    """
    x = _as_f64(x)
    if x.ndim != 3:
        raise ShapeError(f"maxpool2d expects a 3-d tensor, got shape {x.shape}")
    c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2d needs even extents, got {h}x{w}")
    if cache is None:
        # np.maximum returns its second operand on ties, so folding each later
        # window slice in as the first operand keeps the first maximum (+0 vs -0)
        out = np.maximum(x[:, ::2, 1::2], x[:, ::2, ::2])
        np.maximum(x[:, 1::2, ::2], out, out=out)
        return np.maximum(x[:, 1::2, 1::2], out, out=out)
    windows, offsets = _pool_index(x.shape)
    flat = x.ravel()
    # the first maximum of each window, as argmax picks it
    pos = cache["pos"] = windows[:, 0] + offsets[flat[windows].argmax(axis=1)]
    return flat[pos].reshape(c, h // 2, w // 2)


def maxpool2d_backward(dy: np.ndarray, x: np.ndarray, cache: dict) -> np.ndarray:
    """Gradient of the maxpool2d_forward call that filled cache."""
    dx = np.zeros(x.size, dtype=np.float64)
    dx[cache["pos"]] = _as_f64(dy).ravel()
    return dx.reshape(x.shape)


# ---------------------------------------------------------------------------
# dense


def dense_forward(
    x: np.ndarray, w: np.ndarray, b: np.ndarray, mask: np.ndarray | None = None
) -> np.ndarray:
    """Affine map w @ x + b for x flattened row-major to a vector."""
    x, w, b = _as_f64(x).ravel(), _as_f64(w), _as_f64(b)
    m, n = w.shape
    if x.size != n:
        raise ShapeError(f"dense input has {x.size} values but weights expect {n}")
    if b.shape != (m,):
        raise ShapeError(f"dense bias shape {b.shape} does not match {m} outputs")
    return _apply_mask(w, mask) @ x + b


def dense_backward(dy: np.ndarray, x: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Gradients (dx, {"w": dw, "b": db}) of a mask-free dense_forward."""
    dy = _as_f64(dy)
    x_flat = _as_f64(x).ravel()
    dw = np.outer(dy, x_flat)
    db = dy.copy()
    dx = _as_f64(w).T @ dy
    return dx.reshape(np.shape(x)), {"w": dw, "b": db}


# ---------------------------------------------------------------------------
# softmax and probability vectors


@dataclass
class ProbVector:
    """Classification output: normalized probabilities plus raw logits."""

    probs: np.ndarray
    logits: np.ndarray

    def __post_init__(self) -> None:
        self.probs = _as_f64(self.probs)
        self.logits = _as_f64(self.logits)
        if self.probs.shape != self.logits.shape or self.probs.ndim != 1:
            raise ShapeError(
                f"probs {self.probs.shape} and logits {self.logits.shape} must be equal-length vectors"
            )
        total = float(self.probs.sum())
        if not np.isfinite(total) or abs(total - 1.0) > 1e-9:
            raise ValueError(f"probabilities sum to {total!r}, not 1")

    @property
    def top_class(self) -> int:
        return int(np.argmax(self.probs))


def softmax(logits: np.ndarray) -> ProbVector:
    """Max-stabilized softmax; survives the large logits CW-style attacks produce."""
    z = _as_f64(logits).ravel()
    if not np.all(np.isfinite(z)):
        raise ValueError("softmax requires finite logits")
    e = np.exp(z - z.max())
    return ProbVector(probs=e / e.sum(), logits=z)


def softmax_vjp(probs: np.ndarray, dprobs: np.ndarray) -> np.ndarray:
    """dlogits for a given dprobs through p = softmax(z)."""
    p = _as_f64(probs)
    d = _as_f64(dprobs)
    return p * (d - float(d @ p))


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = _as_f64(logits).ravel()
    shifted = z - z.max()
    return shifted - np.log(np.exp(shifted).sum())


# ---------------------------------------------------------------------------
# losses (all differentiable w.r.t. the network input)
#
# Each loss exposes value_and_grads(logits, probs, x) -> (value, dlogits, dx)
# where dlogits seeds the network backward pass and dx is any extra gradient
# contribution applied directly to the input (input-space penalty terms).


def _check_class(index: int, n_classes: int, what: str) -> int:
    index = int(index)
    if not 0 <= index < n_classes:
        raise ValueError(f"{what} {index} out of range for {n_classes} classes")
    return index


@dataclass
class CrossEntropyLoss:
    """Negative log-likelihood of a reference label."""

    label: int

    def value_and_grads(
        self, logits: np.ndarray, probs: np.ndarray, x: np.ndarray
    ) -> tuple[float, np.ndarray, np.ndarray | None]:
        y = _check_class(self.label, logits.size, "label")
        value = -float(log_softmax(logits)[y])
        dlogits = probs.copy()
        dlogits[y] -= 1.0
        return value, dlogits, None


@dataclass
class MarginLoss:
    """Targeted logit margin max(max_{i != t} Z_i - Z_t, -k).

    Zero gradient once the target logit clears every other logit by at
    least k, which is what lets the distortion term take over.
    """

    target: int
    k: float = 0.0

    def value_and_grads(
        self, logits: np.ndarray, probs: np.ndarray, x: np.ndarray
    ) -> tuple[float, np.ndarray, np.ndarray | None]:
        t = _check_class(self.target, logits.size, "target")
        others = logits.copy()
        others[t] = -np.inf
        runner_up = int(np.argmax(others))
        gap = float(logits[runner_up] - logits[t])
        dlogits = np.zeros_like(logits)
        if gap > -self.k:
            dlogits[runner_up] = 1.0
            dlogits[t] = -1.0
        return max(gap, -self.k), dlogits, None


@dataclass
class CompositeLoss:
    """Defense-aware attack objective:

        c * margin(x, t) + beta * ||p(x) - p_ref||_1 + ||x - x0||_2^2

    ``p_ref`` is the (constant) output distribution of a benign exemplar
    of the target class; the L1 term pulls the attack's output toward it.
    Subgradient of |.| is taken as 0 at exact zeros.
    """

    target: int
    k: float = 0.0
    c: float = 1.0
    beta: float = 0.0
    target_probs: np.ndarray = field(default_factory=lambda: np.array([]))
    x0: np.ndarray = field(default_factory=lambda: np.array([]))

    def value_and_grads(
        self, logits: np.ndarray, probs: np.ndarray, x: np.ndarray
    ) -> tuple[float, np.ndarray, np.ndarray | None]:
        margin = MarginLoss(self.target, self.k)
        m_val, m_dlogits, _ = margin.value_and_grads(logits, probs, x)
        p_ref = _as_f64(self.target_probs)
        if p_ref.shape != probs.shape:
            raise ShapeError(f"target_probs shape {p_ref.shape} does not match {probs.shape}")
        diff = probs - p_ref
        l1 = float(np.abs(diff).sum())
        dlogits = self.c * m_dlogits + self.beta * softmax_vjp(probs, np.sign(diff))
        delta = _as_f64(x) - _as_f64(self.x0)
        value = self.c * m_val + self.beta * l1 + float((delta * delta).sum())
        return value, dlogits, 2.0 * delta
