"""Dense tensor layers and reverse-mode gradients, batch-first.

Tensors are plain ``numpy.ndarray`` in float64, row-major, with a leading
batch axis: every layer maps x[N, ...] to one output row per input row, and
one input is a batch of one. Convolutions are valid (no padding); pooling
is a fixed 2x2/stride-2 max. Every layer has a forward and a backward that
propagates gradients to the input. ``relu_backward`` and
``maxpool2d_backward`` return ``dx``; ``conv2d_backward`` and
``dense_backward`` return ``(dx, {"w": dw, "b": db})`` with one gradient row
per sample, skipping ``dx`` or the parameter gradients (None) on request.
``conv2d_backward`` gathers its input columns again rather than have the
forward keep them, which holds a training step's memory down.

Byte identity: each row of a batch is, byte for byte, that row run alone.
conv2d runs the stacked per-row matmuls ``W @ cols[N,K,P]``,
``dy[N] @ cols[N].T`` and ``W.T @ dy[N]``, and dense the stacked gemv
``W @ h[N,n,1]``: one BLAS call per row, as a batch of one makes. A flat
GEMM over the batch (``W @ cols[K, N*P]``, ``h @ W.T``) changes the
summation order with N, and so does ``np.sum`` over the batch axis; callers
sum per-row parameter gradients in sample order (``acc = g[0].copy();
acc += g[r]``). Every other reduction runs along a row's own last axis.

Weight substitution: a noisy pass hands ``conv2d_forward`` and
``dense_forward`` the masked weights ``w * mask`` themselves (formed once
per filter and grid rate by :mod:`stochdet.sparsify`), so it is bitwise a
dense pass over a copy of the model whose masked weights are zero. Noisy
passes never run a backward. Forwards take float64 arrays as they are and
check every extent; passes over one conv input share its ``cols``.
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


# ---------------------------------------------------------------------------
# convolution


def conv2d_forward(
    x: np.ndarray,
    w: np.ndarray,
    b: np.ndarray,
    stride: int = 1,
    cols: np.ndarray | None = None,
) -> np.ndarray:
    """Valid cross-correlation of each x[n] in x[N,C_in,H,W] with w[C_out,C_in,kH,kW].

    cols, when given, is conv2d_columns(x, kH, kW, stride), gathered once for several w.
    """
    if x.ndim != 4 or w.ndim != 4:
        raise ShapeError(f"conv2d expects a 4-d input batch and 4-d weights, got {x.shape} and {w.shape}")
    n, c_in, h, wd = x.shape
    c_out, c_in_w, kh, kw = w.shape
    if c_in != c_in_w:
        raise ShapeError(f"conv2d input has {c_in} channels but weights expect {c_in_w}")
    if b.shape != (c_out,):
        raise ShapeError(f"conv2d bias shape {b.shape} does not match {c_out} filters")
    if stride < 1:
        raise ShapeError(f"conv2d stride must be positive, got {stride}")
    if h - kh < 0 or wd - kw < 0:
        raise ShapeError(f"conv2d kernel {kh}x{kw} does not fit input {h}x{wd}")

    y = w.reshape(c_out, -1) @ (conv2d_columns(x, kh, kw, stride) if cols is None else cols)
    y += b[:, None]
    return y.reshape(n, c_out, (h - kh) // stride + 1, (wd - kw) // stride + 1)


def conv2d_columns(x: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """(N, C_in*kH*kW, positions), C-contiguous so that each row's matmul is one BLAS call."""
    return x.ravel()[_batch_patch_index(x.shape, kh, kw, stride)]


@lru_cache(maxsize=64)
def _patch_index(x_shape: tuple, kh: int, kw: int, stride: int) -> np.ndarray:
    """Flat indices into one row x[C,H,W] of every (channel, kernel row, kernel col, output position).

    Laid out as the im2col matrix, (C*kH*kW, positions), rows in (channel,
    row, col) order.
    """
    c_in, h, wd = x_shape
    h_out = (h - kh) // stride + 1
    w_out = (wd - kw) // stride + 1
    rows = np.arange(kh)[:, None, None, None] + stride * np.arange(h_out)[None, None, :, None]
    cols = np.arange(kw)[None, :, None, None] + stride * np.arange(w_out)[None, None, None, :]
    idx = (np.arange(c_in)[:, None, None, None, None] * (h * wd) + rows * wd + cols).reshape(
        c_in * kh * kw, h_out * w_out
    )
    idx.flags.writeable = False
    return idx


@lru_cache(maxsize=16)
def _batch_patch_index(x_shape: tuple, kh: int, kw: int, stride: int) -> np.ndarray:
    """_patch_index of every row of a batch x[N,C,H,W] as flat indices into x: (N, C*kH*kW, positions)."""
    idx = np.arange(x_shape[0])[:, None, None] * math.prod(x_shape[1:]) + _patch_index(x_shape[1:], kh, kw, stride)
    idx.flags.writeable = False
    return idx


def conv2d_backward(
    dy: np.ndarray,
    x: np.ndarray,
    w: np.ndarray,
    stride: int,
    *,
    input_grad: bool = True,
    param_grads: bool = True,
) -> tuple[np.ndarray | None, dict[str, np.ndarray] | None]:
    """Gradients (dx, {"w": dw[N,...], "b": db[N,C_out]}) of a mask-free conv2d_forward of x."""
    dy = _as_f64(dy)
    n = dy.shape[0]
    c_out, _, kh, kw = w.shape
    dy_flat = dy.reshape(n, c_out, -1)
    dw = (dy_flat @ conv2d_columns(x, kh, kw, stride).transpose(0, 2, 1)).reshape(n, *w.shape) if param_grads else None
    dx = _col2im(_as_f64(w).reshape(c_out, -1).T @ dy_flat, x.shape, kh, kw, stride) if input_grad else None
    return dx, ({"w": dw, "b": dy_flat.sum(axis=2)} if param_grads else None)


def _col2im(dcols: np.ndarray, x_shape: tuple, kh: int, kw: int, stride: int) -> np.ndarray:
    """Sum each column entry back onto the input position it was read from.

    bincount adds in array order, where each position's entries come in
    kernel-offset order: every position sums from 0.0 in that order, as a
    loop of one strided add per offset would.
    """
    index = _batch_patch_index(x_shape, kh, kw, stride).ravel()
    return np.bincount(index, weights=dcols.ravel(), minlength=math.prod(x_shape)).reshape(x_shape)


# ---------------------------------------------------------------------------
# activation / pooling


def relu_forward(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def relu_backward(dy: np.ndarray, x: np.ndarray) -> np.ndarray:
    return _as_f64(dy) * (x > 0)


@lru_cache(maxsize=4)
def _pool_index(x_shape: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices into x[N,C,H,W] of each 2x2 window, one row per output, and the offsets within a window."""
    n, c, h, w = x_shape
    windows = np.arange(n * c * h * w).reshape(n * c, h // 2, 2, w // 2, 2).transpose(0, 1, 3, 2, 4).reshape(-1, 4)
    offsets = np.array([0, 1, w, w + 1])
    windows.flags.writeable = offsets.flags.writeable = False
    return windows, offsets


def maxpool2d_forward(x: np.ndarray, cache: dict | None = None) -> np.ndarray:
    """2x2 max pooling with stride 2 over x[N,C,H,W]; extents must be even.

    Each output is its window's first maximum in (row, col) order. With a
    cache, the positions backward needs are recorded as well.
    """
    if x.ndim != 4:
        raise ShapeError(f"maxpool2d expects a 4-d input batch, got shape {x.shape}")
    h, w = x.shape[2:]
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2d needs even extents, got {h}x{w}")
    if cache is None:
        # np.maximum returns its second operand on ties, so passing the later column,
        # then the later row, as the first operand keeps the first maximum (+0 vs -0)
        pairs = np.maximum(x[..., 1::2], x[..., ::2])
        return np.maximum(pairs[..., 1::2, :], pairs[..., ::2, :])
    windows, offsets = _pool_index(x.shape)
    flat = x.ravel()
    # the first maximum of each window, as argmax picks it
    pos = cache["pos"] = windows[:, 0] + offsets[flat[windows].argmax(axis=1)]
    return flat[pos].reshape(x.shape[0], x.shape[1], h // 2, w // 2)


def maxpool2d_backward(dy: np.ndarray, x: np.ndarray, cache: dict) -> np.ndarray:
    """Gradient of the maxpool2d_forward call that filled cache."""
    dx = np.zeros(x.size, dtype=np.float64)
    dx[cache["pos"]] = _as_f64(dy).ravel()
    return dx.reshape(x.shape)


# ---------------------------------------------------------------------------
# dense


def dense_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Affine map w @ x[n] + b for each row of x[N, ...], flattened row-major: y[N, m]."""
    m, n_in = w.shape
    if math.prod(x.shape[1:]) != n_in:
        raise ShapeError(f"dense input has {math.prod(x.shape[1:])} values but weights expect {n_in}")
    if b.shape != (m,):
        raise ShapeError(f"dense bias shape {b.shape} does not match {m} outputs")
    return (w @ x.reshape(x.shape[0], n_in, 1))[:, :, 0] + b


def dense_backward(
    dy: np.ndarray, x: np.ndarray, w: np.ndarray, *, input_grad: bool = True, param_grads: bool = True
) -> tuple[np.ndarray | None, dict[str, np.ndarray] | None]:
    """Gradients (dx, {"w": dw[N,m,n], "b": db[N,m]}) of a mask-free dense_forward."""
    dy = _as_f64(dy)
    # one outer product per row, as np.outer forms it
    grads = {"w": dy[:, :, None] * _as_f64(x).reshape(len(dy), 1, -1), "b": dy.copy()} if param_grads else None
    dx = (_as_f64(w).T @ dy[:, :, None]).reshape(np.shape(x)) if input_grad else None
    return dx, grads


# ---------------------------------------------------------------------------
# softmax and probability vectors


@dataclass
class ProbVector:
    """Classification output: normalized probabilities plus raw logits.

    probs and logits are (C,) for one input or (N, C) for a batch, one row
    per input; indexing a batch gives one input's ProbVector.
    """

    probs: np.ndarray
    logits: np.ndarray

    def __post_init__(self) -> None:
        self.probs = _as_f64(self.probs)
        self.logits = _as_f64(self.logits)
        if self.probs.shape != self.logits.shape or self.probs.ndim not in (1, 2):
            raise ShapeError(
                f"probs {self.probs.shape} and logits {self.logits.shape} must be equal-length vectors or batches"
            )
        totals = np.atleast_1d(self.probs.sum(axis=-1))
        bad = ~(np.abs(totals - 1.0) <= 1e-9)  # NaN totals fail too
        if bad.any():
            raise ValueError(f"probabilities sum to {float(totals[bad][0])!r}, not 1")

    @classmethod
    def _checked(cls, probs: np.ndarray, logits: np.ndarray) -> "ProbVector":
        """A ProbVector of rows known to be normalized, without __post_init__'s checks."""
        out = object.__new__(cls)
        out.probs, out.logits = probs, logits
        return out

    def __getitem__(self, i: int) -> "ProbVector":
        return ProbVector._checked(self.probs[i], self.logits[i])

    @property
    def top_class(self) -> int:
        return int(self.probs.argmax())


def softmax(logits: np.ndarray) -> ProbVector:
    """Max-stabilized softmax along the last axis; survives the large logits CW-style attacks produce."""
    if not np.isfinite(logits).all():
        raise ValueError("softmax requires finite logits")
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    # finite logits put a 1 in every row of e, so each row sums to 1 within rounding
    return ProbVector._checked(e / e.sum(axis=-1, keepdims=True), logits)


def softmax_vjp(probs: np.ndarray, dprobs: np.ndarray) -> np.ndarray:
    """dlogits for a given dprobs through p = softmax(z), row by row."""
    p = _as_f64(probs)
    d = _as_f64(dprobs)
    # a stacked (1,C) @ (C,1) matmul per row: the BLAS dot that d @ p runs on one row
    return p * (d - (d[..., None, :] @ p[..., :, None])[..., 0])


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = _as_f64(logits)
    shifted = z - z.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


# ---------------------------------------------------------------------------
# losses (all differentiable w.r.t. the network input)
#
# Each loss exposes value_and_grads(logits, probs, x) -> (values, dlogits, dx)
# over a batch: logits and probs are (N, C) and x is (N, ...); values holds
# one loss per row, dlogits seeds the network backward pass, and dx is any
# extra gradient contribution applied directly to the input (input-space
# penalty terms). A label or target is one class for every row or one per row.


def _check_class(index, n_classes: int, what: str) -> np.ndarray:
    index = np.asarray(index)
    if index.dtype.kind not in "iu" or index.ndim > 1:
        raise ValueError(f"{what} must be one class index or one per row, got {index!r}")
    if index.size and not 0 <= index.min() <= index.max() < n_classes:
        bad = index.min() if index.min() < 0 else index.max()
        raise ValueError(f"{what} {bad} out of range for {n_classes} classes")
    return index


@dataclass
class CrossEntropyLoss:
    """Negative log-likelihood of a reference label."""

    label: int | np.ndarray

    def value_and_grads(
        self, logits: np.ndarray, probs: np.ndarray, x: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        y = _check_class(self.label, logits.shape[-1], "label")
        rows = np.arange(len(logits))
        values = -log_softmax(logits)[rows, y]
        dlogits = probs.copy()
        dlogits[rows, y] -= 1.0
        return values, dlogits, None


@dataclass
class MarginLoss:
    """Targeted logit margin max(max_{i != t} Z_i - Z_t, -k).

    Zero gradient once the target logit clears every other logit by at
    least k, which is what lets the distortion term take over. k is one
    value for every row or one per row.
    """

    target: int | np.ndarray
    k: float = 0.0

    def value_and_grads(
        self, logits: np.ndarray, probs: np.ndarray, x: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        rows = np.arange(len(logits))
        t = _check_class(self.target, logits.shape[-1], "target")
        others = logits.copy()
        others[rows, t] = -np.inf
        runner_up = np.argmax(others, axis=-1)
        gap = logits[rows, runner_up] - logits[rows, t]
        live = gap > -self.k
        dlogits = np.zeros_like(logits)
        dlogits[rows, runner_up] = live  # 1.0 where the margin is live, else 0.0
        dlogits[rows, t] -= live
        return np.maximum(gap, -self.k), dlogits, None


@dataclass
class CompositeLoss:
    """Defense-aware attack objective:

        c * margin(x, t) + beta * ||p(x) - p_ref||_1 + ||x - x0||_2^2

    ``p_ref`` is the (constant) output distribution of a benign exemplar
    of the target class; the L1 term pulls the attack's output toward it.
    k, c, beta, p_ref and x0 are each one value for every row or one per
    row. Subgradient of |.| is taken as 0 at exact zeros.
    """

    target: int | np.ndarray
    k: float = 0.0
    c: float = 1.0
    beta: float = 0.0
    target_probs: np.ndarray = field(default_factory=lambda: np.array([]))
    x0: np.ndarray = field(default_factory=lambda: np.array([]))

    def value_and_grads(
        self, logits: np.ndarray, probs: np.ndarray, x: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        c, beta = _as_f64(self.c), _as_f64(self.beta)
        m_val, m_dlogits, _ = MarginLoss(self.target, self.k).value_and_grads(logits, probs, x)
        values, dlogits = c * m_val, c[..., None] * m_dlogits
        # a zero beta adds only signed zeros, which leave every byte of values and dlogits as it is
        if beta.any():
            p_ref = _as_f64(self.target_probs)
            if p_ref.shape not in (probs.shape, probs.shape[1:]):
                raise ShapeError(f"target_probs shape {p_ref.shape} does not match {probs.shape}")
            diff = probs - p_ref
            values = values + beta * np.abs(diff).sum(axis=-1)
            dlogits = dlogits + beta[..., None] * softmax_vjp(probs, np.sign(diff))
        delta = _as_f64(x) - _as_f64(self.x0)
        return values + (delta * delta).reshape(len(delta), -1).sum(axis=1), dlogits, 2.0 * delta
