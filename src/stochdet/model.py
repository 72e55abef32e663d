"""Model definition, training, persistence, and threshold profiling.

A model is an ordered list of layer specs plus the weight tensors of its
parametric layers. Inference and gradients are composed from the layer
functions in :mod:`stochdet.nn` and are batch-first like them:
``forward_trace``, ``Trace.backward`` and ``loss_gradients`` run x[N, ...]
and each row is byte for byte that input run as a batch of one.
``predict`` takes one input;
``predict_batch``, ``train`` and the attack descents run their rows in
blocks of ``BATCH_ROWS``. Every pass runs one loop, ``run_layers``, over
layer calls bound once per model; they read the parameters on each call.
``forward_trace`` is its one checked form, over model inputs. Noisy passes
call ``run_layers`` with sparsified weights from the reference trace's input
to their first masked layer, or with activation noise factors. Only the
forward of a backward (``loss_gradients``: training and attack gradients)
fills the layer caches (``cache=True``).

The container format is a JSON manifest (architecture, shapes, byte
offsets) followed by a little-endian float64 weight blob.

Filter granularity for profiling and sparsification: one output channel's
3-d kernel for conv layers, one output row for dense layers.
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass, field, fields

import numpy as np

from . import nn
from .data import Dataset
from .rng import substream

PARAMETRIC_KINDS = ("conv2d", "dense")
LAYER_KINDS = ("conv2d", "relu", "maxpool2d", "dense", "softmax")
# the LayerSpec fields that size each kind of layer; the other kinds have none
LAYER_SIZES = {"conv2d": ("out_channels", "kernel", "stride"), "dense": ("out_features",)}

RATE_GRID_STEPS = 32
RATE_GRID = np.arange(RATE_GRID_STEPS) / RATE_GRID_STEPS

# rows per batched forward and backward: predict_batch, a training minibatch and an
# attack descent run blocks of this many. Past a few rows the layer intermediates
# outgrow what malloc keeps for reuse, and each call maps and faults in fresh pages:
# on 2 cores at 18x18, a descent step costs about 115 µs per row at 2 rows, 70 at 6
# and 100 at 10, and a training step 57 µs per sample at 8 and 91 at 16
BATCH_ROWS = 6

MODEL_MAGIC = b"SDMODEL1"


class ModelFormatError(ValueError):
    """Corrupt or inconsistent model container."""


class TrainingDiverged(RuntimeError):
    """Loss became non-finite during training."""


@dataclass
class LayerSpec:
    kind: str
    out_channels: int = 0  # conv2d
    kernel: int = 0  # conv2d (square kernels)
    stride: int = 1  # conv2d
    out_features: int = 0  # dense
    noise_eligible: bool = True

    def __post_init__(self) -> None:
        if self.kind not in LAYER_KINDS:
            raise ModelFormatError(f"unknown layer kind {self.kind!r}")
        sizes = tuple(getattr(self, name) for name in LAYER_SIZES.get(self.kind, ()))
        if not all(type(v) is int and v >= 1 for v in sizes):
            raise ModelFormatError(f"{self.kind} layer sizes must be positive integers, got {sizes}")


def conv_pool_arch(channels: tuple[int, ...], kernel: int, class_count: int) -> list[LayerSpec]:
    """conv/relu/pool blocks followed by dense+softmax.

    The first conv is excluded from noise by default: it feeds every later
    feature, and keeping it intact holds benign false positives down. The
    flag stays configurable per layer.
    """
    layers: list[LayerSpec] = []
    for i, ch in enumerate(channels):
        layers.append(LayerSpec("conv2d", out_channels=ch, kernel=kernel, noise_eligible=(i > 0)))
        layers.append(LayerSpec("relu"))
        layers.append(LayerSpec("maxpool2d"))
    layers.append(LayerSpec("dense", out_features=class_count))
    layers.append(LayerSpec("softmax"))
    return layers


@dataclass
class Model:
    layers: list[LayerSpec]
    params: dict[int, dict[str, np.ndarray]]  # layer index -> {"w":..., "b":...}
    class_count: int
    input_shape: tuple[int, int, int]
    layer_input_shapes: list[tuple] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.layer_input_shapes:
            self.layer_input_shapes = _propagate_shapes(self.layers, self.input_shape)
        self._calls = [_FORWARD[spec.kind](spec) for spec in self.layers]

    # ---- inference -------------------------------------------------

    def forward_trace(self, x: np.ndarray, *, cache: bool = False) -> "Trace":
        """Run the network over a batch of model inputs x[N, ...], keeping per-layer inputs.

        x is only read, so a pass may share the trace's layer inputs. cache=True also keeps what
        backward needs; the outputs are the same bytes.
        """
        inputs: list[np.ndarray] = []
        caches: list[dict] | None = [] if cache else None
        out = self.run_layers(self.checked_inputs(x), inputs=inputs, caches=caches)
        return Trace(model=self, inputs=inputs, caches=caches, output=out)

    def checked_inputs(self, x) -> np.ndarray:
        """x as a float64 batch of model inputs; a wrong shape raises nn.ShapeError."""
        x, shape = np.asarray(x, dtype=np.float64), self.layer_input_shapes[0]
        if x.ndim == 0 or x.shape[1:] != shape:
            raise nn.ShapeError(f"input batch {x.shape} does not match model input {shape} per row")
        return x

    def run_layers(self, x, start=0, weights=None, cols=None, *, inputs=None, caches=None, act_factors=None):
        """The one forward loop: the float64 batch x[N, ...], unchecked, through the layers from `start`.

        weights replace conv/dense weights and act_factors multiply layer outputs, by layer index;
        cols are x's columns for a conv2d layer `start` (nn.conv2d_columns). inputs and caches, when
        given, collect each layer's input and backward cache. Returns the softmax's ProbVector.
        """
        params, weights, act_factors = self.params, weights or {}, act_factors or {}
        cache = None
        for idx in range(start, len(self._calls)):
            if inputs is not None:
                inputs.append(x)
            if caches is not None:
                cache = {}
                caches.append(cache)
            x = self._calls[idx](x, params.get(idx), weights.get(idx), cache, cols)
            cols = None
            if idx in act_factors:
                x = x * act_factors[idx]
        return x

    def predict(self, x: np.ndarray) -> nn.ProbVector:
        """Mask-free reference pass of one input; repeated calls agree bitwise."""
        return self.forward_trace(np.asarray(x, dtype=np.float64)[None]).output[0]

    def predict_batch(self, xs) -> nn.ProbVector:
        """Reference passes of a list or stack of inputs: row i is predict(xs[i]), byte for byte."""
        starts = range(0, max(len(xs), 1), BATCH_ROWS)  # an empty set runs one empty forward
        blocks = [np.asarray(xs[i : i + BATCH_ROWS], dtype=np.float64).reshape(-1, *self.input_shape) for i in starts]
        outs = [self.forward_trace(b).output for b in blocks]
        return nn.ProbVector._checked(np.concatenate([o.probs for o in outs]), np.concatenate([o.logits for o in outs]))

    # ---- structure helpers ------------------------------------------

    def parametric_layers(self) -> list[int]:
        return [i for i, s in enumerate(self.layers) if s.kind in PARAMETRIC_KINDS]

    def filter_matrix(self, layer_idx: int) -> np.ndarray:
        """Weights of one layer as (n_filters, weights_per_filter)."""
        w = self.params[layer_idx]["w"]
        return w.reshape(w.shape[0], -1)

    def layer_columns(self, layer_idx: int, x: np.ndarray) -> np.ndarray | None:
        """The columns conv2d layer `layer_idx` reads from its input batch x (None for other kinds)."""
        spec = self.layers[layer_idx]
        return nn.conv2d_columns(x, spec.kernel, spec.kernel, spec.stride) if spec.kind == "conv2d" else None

    def output_positions(self, layer_idx: int) -> int:
        """Spatial output positions a filter is applied at (1 for dense)."""
        return math.prod(self.layer_input_shapes[layer_idx + 1][1:])

    def fingerprint(self) -> str:
        # models are immutable once trained or loaded, so cache after first use
        cached = getattr(self, "_fingerprint", None)
        if cached is not None:
            return cached
        h = hashlib.sha256()
        h.update(json.dumps(_arch_manifest(self.layers), sort_keys=True).encode())
        for idx in self.parametric_layers():
            h.update(self.params[idx]["w"].astype("<f8").tobytes())
            h.update(self.params[idx]["b"].astype("<f8").tobytes())
        object.__setattr__(self, "_fingerprint", h.hexdigest())
        return self._fingerprint


@dataclass
class Trace:
    """The layer inputs of one batched forward, and its output.

    inputs[i] is the batch input to layer i; output holds one probability
    row per input. caches is None for a cache-less forward.
    """

    model: Model
    inputs: list[np.ndarray]
    caches: list[dict] | None
    output: nn.ProbVector

    @property
    def probs(self) -> np.ndarray:
        return self.output.probs

    @property
    def logits(self) -> np.ndarray:
        return self.output.logits

    def backward(self, dlogits: np.ndarray, *, input_grad: bool = True, param_grads: bool = True):
        """Propagate a gradient seeded at the logits dlogits[N, C] back to the input.

        Returns (dx, param_grads): dx[N, ...] (None when input_grad is
        false), and param_grads mapping each parametric layer index to its
        per-row {"w": dw[N, ...], "b": db[N, ...]} (empty when param_grads
        is false). Needs a cached forward (forward_trace(cache=True)).
        """
        if self.caches is None:
            raise ValueError("backward needs a forward_trace with caches")
        grads: dict[int, dict[str, np.ndarray]] = {}
        d = np.asarray(dlogits, dtype=np.float64)
        m = self.model
        # losses seed the gradient at the logits, the input of the last layer (softmax)
        for idx in range(len(m.layers) - 2, -1, -1):
            spec = m.layers[idx]
            d = d.reshape(len(d), *m.layer_input_shapes[idx + 1])  # this layer's output shape
            d, g = _BACKWARD[spec.kind](
                spec, m.params.get(idx), d, self.inputs[idx], self.caches[idx], idx > 0 or input_grad, param_grads
            )
            if g is not None:
                grads[idx] = g
        return d, grads


# Each layer kind's forward bound to its spec, (x, params, w or None, cache, cols) -> y, and backward,
# (spec, params, dy, x, cache, input_grad, param_grads) -> (dx or None, {"w": dw, "b": db} or None).
# Entries look `nn.<fn>` up when called, so a patched module attribute (a tracer's wrapper) is what runs.
_FORWARD = {
    "conv2d": lambda s: lambda x, p, w, c, cols, stride=s.stride: nn.conv2d_forward(
        x, p["w"] if w is None else w, p["b"], stride, cols=cols
    ),
    "relu": lambda s: lambda x, p, w, c, cols: nn.relu_forward(x),
    "maxpool2d": lambda s: lambda x, p, w, c, cols: nn.maxpool2d_forward(x, cache=c),
    "dense": lambda s: lambda x, p, w, c, cols: nn.dense_forward(x, p["w"] if w is None else w, p["b"]),
    "softmax": lambda s: lambda x, p, w, c, cols: nn.softmax(x),
}
_BACKWARD = {
    "conv2d": lambda s, p, d, x, c, dx, pg: nn.conv2d_backward(d, x, p["w"], s.stride, input_grad=dx, param_grads=pg),
    "relu": lambda s, p, d, x, c, dx, pg: (nn.relu_backward(d, x) if dx else None, None),
    "maxpool2d": lambda s, p, d, x, c, dx, pg: (nn.maxpool2d_backward(d, x, cache=c) if dx else None, None),
    "dense": lambda s, p, d, x, c, dx, pg: nn.dense_backward(d, x, p["w"], input_grad=dx, param_grads=pg),
}


def loss_gradients(model: Model, x: np.ndarray, loss, *, input_grad: bool = True, param_grads: bool = True):
    """One noise-free forward of the batch x, the loss and one backward: (trace, values, dx, param_grads).

    values holds one loss per row. dx is d(loss)/d(input) per row, the
    loss's direct input term included, or None when input_grad is false;
    param_grads holds per-row gradients, or nothing when param_grads is false.
    """
    trace = model.forward_trace(x, cache=True)
    values, dlogits, dx_direct = loss.value_and_grads(trace.logits, trace.probs, x)
    dx, grads = trace.backward(dlogits, input_grad=input_grad, param_grads=param_grads)
    if dx is not None and dx_direct is not None:
        dx = dx + dx_direct
    return trace, values, dx, grads


# ---------------------------------------------------------------------------
# construction / training


def _propagate_shapes(layers: list[LayerSpec], input_shape: tuple) -> list[tuple]:
    """The input shape of every layer; the one place layer shapes are derived."""
    if not layers or layers[-1].kind != "softmax":
        raise ModelFormatError("architecture must end in softmax")
    if any(spec.kind == "softmax" for spec in layers[:-1]):
        # backward seeds gradients at the logits and so treats softmax as the identity
        raise ModelFormatError("softmax may only be the last layer")
    shape = tuple(input_shape)
    if len(shape) != 3 or not all(type(v) is int and v >= 1 for v in shape):
        raise nn.ShapeError(f"input shape must be three positive integers, got {shape}")
    shapes = []
    for idx, spec in enumerate(layers):
        shapes.append(shape)
        if spec.kind in ("conv2d", "maxpool2d") and len(shape) != 3:
            raise nn.ShapeError(f"layer {idx}: {spec.kind} needs a (C, H, W) input, got {shape}")
        if spec.kind == "conv2d":
            c, h, w = shape
            if h < spec.kernel or w < spec.kernel:
                raise nn.ShapeError(f"layer {idx}: conv kernel {spec.kernel} does not fit input {h}x{w}")
            shape = (
                spec.out_channels,
                (h - spec.kernel) // spec.stride + 1,
                (w - spec.kernel) // spec.stride + 1,
            )
        elif spec.kind == "maxpool2d":
            c, h, w = shape
            if h % 2 or w % 2:
                raise nn.ShapeError(f"layer {idx}: maxpool2d needs even extents, got {h}x{w}")
            shape = (c, h // 2, w // 2)
        elif spec.kind == "dense":
            shape = (spec.out_features,)
    return shapes


def _param_shapes(spec: LayerSpec, in_shape: tuple) -> tuple[tuple, tuple]:
    """(weight, bias) shapes of a conv2d or dense layer fed in_shape."""
    if spec.kind == "conv2d":
        return (spec.out_channels, in_shape[0], spec.kernel, spec.kernel), (spec.out_channels,)
    return (spec.out_features, math.prod(in_shape)), (spec.out_features,)


def init_model(
    arch: list[LayerSpec], input_shape: tuple[int, int, int], class_count: int, seed: int
) -> Model:
    """He-initialized weights, deterministic in the seed."""
    shapes = _propagate_shapes(arch, input_shape)
    params: dict[int, dict[str, np.ndarray]] = {}
    for idx, spec in enumerate(arch):
        if spec.kind in PARAMETRIC_KINDS:
            w_shape, b_shape = _param_shapes(spec, shapes[idx])
            gain = 2.0 if spec.kind == "conv2d" else 1.0
            w = substream(seed, "init", idx).normal(0.0, np.sqrt(gain / math.prod(w_shape[1:])), size=w_shape)
            params[idx] = {"w": w, "b": np.zeros(b_shape)}
    return Model(
        layers=arch, params=params, class_count=class_count, input_shape=tuple(input_shape), layer_input_shapes=shapes
    )


def setting(default, kind: type, *, ge=None, gt=None, lt=None, choices=None, items=None):
    """A config field with its rule beside its default; `check_settings` enforces the rule.

    `kind` is int, float (a finite int or float), str or a config class, and
    never a bool. `ge`, `gt` and `lt` bound a number, `choices` lists the
    values allowed, and `items=n` makes the field a list of at least n such
    values. A callable default is a default factory.
    """
    rule = {"kind": kind, "ge": ge, "gt": gt, "lt": lt, "choices": choices, "items": items}
    if callable(default):
        return field(default_factory=default, metadata={"rule": rule})
    return field(default=default, metadata={"rule": rule})


def _admits(v, kind, ge, gt, lt, choices, items) -> bool:
    if items is not None:
        listed = isinstance(v, (list, tuple)) and len(v) >= items
        return listed and all(_admits(x, kind, ge, gt, lt, choices, None) for x in v)
    typed = isinstance(v, (int, float) if kind is float else kind) and not isinstance(v, bool)
    if not typed or (isinstance(v, float) and not math.isfinite(v)):
        return False
    bounds = (ge is None or v >= ge) and (gt is None or v > gt) and (lt is None or v < lt)
    return bounds and (choices is None or v in choices)


def _rule_text(kind, ge, gt, lt, choices, items) -> str:
    names = {int: "an integer", float: "a finite number", str: "a string"}
    text = f"one of {choices}" if choices else names.get(kind, f"a {kind.__name__}")
    text += "".join(f" {op} {bound}" for op, bound in ((">=", ge), (">", gt), ("<", lt)) if bound is not None)
    if items is None:
        return text
    return f"a list of at least {items}, each {text}" if items else f"a list, each {text}"


def check_settings(obj, error: type[Exception]) -> None:
    """Raise error("<field> must be <rule>, got <value>") at obj's first field that breaks its `setting` rule."""
    for f in fields(obj):
        rule, value = f.metadata.get("rule"), getattr(obj, f.name)
        if rule is not None and not _admits(value, **rule):
            raise error(f"{f.name} must be {_rule_text(**rule)}, got {value!r}")


@dataclass
class TrainConfig:
    """The experiment's training settings."""

    lr: float = setting(0.15, float, gt=0)
    epochs: int = setting(16, int, ge=0)
    seed: int = setting(11, int)
    batch_size: int = setting(16, int, ge=1)
    weight_decay: float = setting(1e-4, float, ge=0)  # L2 on weights only; biases stay unregularized

    def __post_init__(self) -> None:
        check_settings(self, ValueError)


@dataclass
class TrainResult:
    model: Model
    train_accuracy: float
    test_accuracy: float | None
    epoch_losses: list[float]


def train(
    dataset: Dataset,
    arch: list[LayerSpec],
    hyper: TrainConfig,
    test_dataset: Dataset | None = None,
) -> TrainResult:
    """Minibatch SGD on cross-entropy; deterministic given hyper.seed.

    A minibatch runs as blocks of up to BATCH_ROWS samples, one forward and
    one backward each; losses and per-sample gradients are summed in sample
    order, as a per-sample loop sums them.
    """
    model = init_model(arch, dataset.images[0].shape, dataset.class_count, hyper.seed)
    labels = np.asarray(dataset.labels)
    n = len(dataset)
    epoch_losses: list[float] = []
    for epoch in range(hyper.epochs):
        order = substream(hyper.seed, "shuffle", epoch).permutation(n)
        total_loss = 0.0
        for start in range(0, n, hyper.batch_size):
            batch = order[start : start + hyper.batch_size]
            values, grads = [], []
            try:
                for b in range(0, len(batch), BATCH_ROWS):
                    rows = batch[b : b + BATCH_ROWS]
                    x = np.stack([dataset.images[i] for i in rows])
                    _, v, _, g = loss_gradients(model, x, nn.CrossEntropyLoss(labels[rows]), input_grad=False)
                    values += v.tolist()
                    grads.append(g)
            except ValueError as exc:  # non-finite logits surface in softmax
                raise TrainingDiverged(
                    f"forward pass diverged at epoch {epoch}, batch starting {start}: {exc}"
                ) from exc
            batch_loss = 0.0
            for value in values:
                batch_loss += value
            if not np.isfinite(batch_loss):
                raise TrainingDiverged(
                    f"loss became {batch_loss!r} at epoch {epoch}, batch starting {start}"
                )
            scale = hyper.lr / len(batch)
            for idx in grads[0]:
                g = {name: np.concatenate([block[idx][name] for block in grads]) for name in ("w", "b")}
                model.params[idx]["w"] -= scale * _sum_rows(g["w"])
                if hyper.weight_decay:
                    model.params[idx]["w"] -= hyper.lr * hyper.weight_decay * model.params[idx]["w"]
                model.params[idx]["b"] -= scale * _sum_rows(g["b"])
            total_loss += batch_loss
        epoch_losses.append(total_loss / n)
    return TrainResult(
        model=model,
        train_accuracy=accuracy(model, dataset),
        test_accuracy=accuracy(model, test_dataset) if test_dataset is not None else None,
        epoch_losses=epoch_losses,
    )


def _sum_rows(g: np.ndarray) -> np.ndarray:
    """Sum of g[0], g[1], ... added in that order (np.sum over axis 0 pairs them differently)."""
    acc = g[0].copy()
    for row in g[1:]:
        acc += row
    return acc


def accuracy(model: Model, dataset: Dataset) -> float:
    hits = model.predict_batch(dataset.images).probs.argmax(axis=1) == np.asarray(dataset.labels)
    return int(hits.sum()) / len(dataset)


# ---------------------------------------------------------------------------
# persistence


def _arch_manifest(layers: list[LayerSpec]) -> list[dict]:
    """Each layer's kind, noise flag and the size fields of its kind."""
    return [
        {"kind": s.kind, "noise_eligible": s.noise_eligible, **{k: getattr(s, k) for k in LAYER_SIZES.get(s.kind, ())}}
        for s in layers
    ]


def save_model(model: Model, provenance: dict | None = None) -> bytes:
    blob = bytearray()
    layer_entries = _arch_manifest(model.layers)
    for idx in model.parametric_layers():
        p = model.params[idx]
        entry = layer_entries[idx]
        entry["w_shape"] = list(p["w"].shape)
        entry["w_offset"] = len(blob)
        blob.extend(p["w"].astype("<f8").tobytes())
        entry["b_shape"] = list(p["b"].shape)
        entry["b_offset"] = len(blob)
        blob.extend(p["b"].astype("<f8").tobytes())
    manifest = {"format": "stochdet-model", "version": 1, "class_count": model.class_count,
                "input_shape": list(model.input_shape), "layers": layer_entries}
    return write_container(MODEL_MAGIC, manifest, blob, provenance)


def canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def container_payload(manifest: dict, blob: bytes) -> bytes:
    """The bytes a container's payload_sha256 covers: its manifest, provenance left out, then its blob."""
    return canonical_json(manifest).encode() + bytes(blob)


def write_container(magic: bytes, manifest: dict, blob: bytes, provenance: dict | None = None) -> bytes:
    """The container `read_container` reads; sets blob_bytes and the provenance, which declares payload_sha256."""
    manifest = {**manifest, "blob_bytes": len(blob)}
    digest = hashlib.sha256(container_payload(manifest, blob)).hexdigest()
    manifest["provenance"] = {**(provenance or {}), "payload_sha256": digest}
    manifest_bytes = json.dumps(manifest, sort_keys=True).encode("utf-8")
    return magic + struct.pack("<Q", len(manifest_bytes)) + manifest_bytes + bytes(blob)


def read_container(data: bytes, magic: bytes, error: type[Exception]) -> tuple[dict, bytes]:
    """Manifest and blob of a container: magic, u64 manifest length, JSON manifest, blob.

    Every framing fault raises `error`, the caller's typed exception.
    """
    header_end = len(magic) + 8
    if len(data) < header_end or data[: len(magic)] != magic:
        raise error(f"not a {magic.decode()} container (bad magic)")
    (manifest_len,) = struct.unpack_from("<Q", data, len(magic))
    if len(data) < header_end + manifest_len:
        raise error("truncated manifest")
    try:
        manifest = json.loads(data[header_end : header_end + manifest_len])
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise error(f"manifest is not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise error(f"manifest mistypes its root: need a JSON object, got {type(manifest).__name__}")
    blob = data[header_end + manifest_len :]
    if manifest.get("blob_bytes") != len(blob):
        raise error(f"blob has {len(blob)} bytes, manifest declares blob_bytes={manifest.get('blob_bytes')!r}")
    return manifest, blob


def read_blob_array(blob: bytes, offset, shape, error: type[Exception]) -> np.ndarray:
    """The float64 array of `shape` at byte `offset`; a bad or out-of-range field raises `error`."""
    shape_ok = isinstance(shape, (list, tuple)) and all(type(d) is int and d >= 0 for d in shape)
    if type(offset) is not int or not shape_ok:
        raise error(f"bad array offset {offset!r} or shape {shape!r}")
    count = math.prod(shape)
    end = offset + count * 8
    if offset < 0 or end > len(blob):
        raise error(f"array needs bytes [{offset}, {end}) but the blob has only {len(blob)}")
    return np.frombuffer(blob, dtype="<f8", count=count, offset=offset).reshape(shape).copy()


def load_model(data: bytes) -> Model:
    """Model from a container; a corrupt or inconsistent one raises ModelFormatError."""
    manifest, blob = read_container(data, MODEL_MAGIC, ModelFormatError)
    try:
        # a field the entry leaves out takes its LayerSpec default
        names = [f.name for f in fields(LayerSpec)]
        layers = [LayerSpec(**{k: e[k] for k in names if k in e}) for e in manifest["layers"]]
        input_shape, class_count = tuple(manifest["input_shape"]), manifest["class_count"]
        shapes = _propagate_shapes(layers, input_shape)
        if type(class_count) is not int or shapes[-1] != (class_count,):
            raise ModelFormatError(f"class_count {class_count!r} does not match the output shape {shapes[-1]}")
        params: dict[int, dict[str, np.ndarray]] = {}
        for idx, spec in enumerate(layers):
            if spec.kind not in PARAMETRIC_KINDS:
                continue
            entry, params[idx] = manifest["layers"][idx], {}
            for name, shape in zip(("w", "b"), _param_shapes(spec, shapes[idx])):
                if entry[f"{name}_shape"] != list(shape):
                    raise ModelFormatError(
                        f"layer {idx} ({spec.kind}): {name}_shape {entry[f'{name}_shape']} does not match "
                        f"the architecture's {list(shape)}"
                    )
                params[idx][name] = read_blob_array(blob, entry[f"{name}_offset"], shape, ModelFormatError)
    except (KeyError, TypeError, nn.ShapeError) as exc:
        raise ModelFormatError(f"bad manifest field: {exc!r}") from exc
    return Model(
        layers=layers, params=params, class_count=class_count, input_shape=input_shape, layer_input_shapes=shapes
    )


# ---------------------------------------------------------------------------
# threshold profiling


@dataclass
class ThresholdTable:
    """Per-filter magnitude thresholds for each grid sparsification rate.

    thresholds[layer][f, i] is the cut tau such that dropping |w| < tau
    removes the largest achievable fraction of filter f's weights that is
    <= RATE_GRID[i]. Equal-magnitude ties are kept, never dropped, so tau
    sits strictly between the largest dropped and smallest kept magnitude
    (0 when nothing can be dropped).
    """

    rate_grid: np.ndarray
    thresholds: dict[int, np.ndarray]
    model_fingerprint: str

    def to_json(self) -> dict:
        return {
            "rate_grid": self.rate_grid.tolist(),
            "thresholds": {str(k): v.tolist() for k, v in self.thresholds.items()},
            "model_fingerprint": self.model_fingerprint,
        }

    @classmethod
    def from_json(cls, obj: dict) -> "ThresholdTable":
        return cls(
            rate_grid=np.asarray(obj["rate_grid"], dtype=np.float64),
            thresholds={int(k): np.asarray(v, dtype=np.float64) for k, v in obj["thresholds"].items()},
            model_fingerprint=obj["model_fingerprint"],
        )


def filter_thresholds(magnitudes: np.ndarray, rate_grid: np.ndarray = RATE_GRID) -> np.ndarray:
    """Threshold per grid rate for one filter's weight magnitudes."""
    mags = np.sort(np.abs(np.asarray(magnitudes, dtype=np.float64).ravel()))
    n = mags.size
    # achievable[k] is true when exactly k weights can be dropped under a
    # strict |w| < tau rule (no tie straddles the cut)
    achievable = np.empty(n, dtype=bool)
    achievable[0] = True
    achievable[1:] = mags[1:] > mags[:-1]
    out = np.empty(rate_grid.size, dtype=np.float64)
    for i, r in enumerate(rate_grid):
        k = int(np.floor(r * n + 1e-12))
        k = min(k, n - 1)
        while k > 0 and not achievable[k]:
            k -= 1
        out[i] = 0.0 if k == 0 else 0.5 * (mags[k - 1] + mags[k])
    return out


def profile_thresholds(model: Model) -> ThresholdTable:
    thresholds: dict[int, np.ndarray] = {}
    for idx in model.parametric_layers():
        filters = model.filter_matrix(idx)
        thresholds[idx] = np.stack([filter_thresholds(f) for f in filters])
    return ThresholdTable(
        rate_grid=RATE_GRID.copy(), thresholds=thresholds, model_fingerprint=model.fingerprint()
    )
