"""White-box adversarial example generation.

Three attacks against the dense model. attack_sets runs several attacks
over a set of sources as batches: each (attack, source) pair is one row,
and one forward and backward per descent step serves a block of rows.
run_attack is attack_sets for one attack on one source. Each row is
byte for byte what its source gives attacked alone:

* fgsm -- single-step untargeted baseline, mostly for calibration.
* cw_l2 -- targeted gradient-descent attack minimizing
  ||x' - x||_2^2 + c * max(max_{i!=t} Z_i - Z_t, -k) in a tanh
  reparameterization of the [0,1] box. The confidence margin k trades
  distortion for attack strength.
* defense_aware -- adds beta * ||y(x') - y(x_t)||_1 to the cw_l2
  objective, pulling the attack's output distribution toward that of a
  benign exemplar x_t of the target class so the perturbed input reacts
  to model noise the way a legitimate image would.

All attacks clip or reparameterize into [0,1]^n and are deterministic;
they take no seed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .model import (
    BATCH_ROWS,
    Model,
    check_settings,
    loss_gradients,
    read_blob_array,
    read_container,
    setting,
    write_container,
)
from .nn import CompositeLoss, CrossEntropyLoss, ProbVector

_ATANH_CLIP = 1.0 - 1e-6  # keeps atanh finite for pixels at exactly 0 or 1


class AttackError(ValueError):
    pass


@dataclass
class AttackConfig:
    kind: str = setting("cw_l2", str, choices=("fgsm", "cw_l2", "defense_aware"))
    target_mode: str = setting("next", str, choices=("next", "least_likely"))
    k: float = setting(0.0, float, ge=0)
    c: float = setting(1.0, float, gt=0)
    beta: float = setting(0.0, float, ge=0)
    steps: int = setting(300, int, ge=1)
    step_size: float = setting(0.02, float, gt=0)
    eps: float = setting(0.15, float, ge=0, lt=1)  # fgsm only

    def __post_init__(self) -> None:
        check_settings(self, AttackError)

    @property
    def name(self) -> str:
        if self.kind == "fgsm":
            return f"fgsm_eps{self.eps:g}"
        if self.kind == "cw_l2":
            return f"cw_l2_{self.target_mode}_k{self.k:g}"
        return f"defense_aware_{self.target_mode}_k{self.k:g}_beta{self.beta:g}"

    @property
    def param(self) -> float:
        """The swept parameter: eps for fgsm, k for cw_l2, beta for defense_aware."""
        return self.beta if self.kind == "defense_aware" else (self.eps if self.kind == "fgsm" else self.k)


@dataclass
class AdversarialSample:
    original: np.ndarray
    perturbed: np.ndarray
    target_class: int
    success: bool
    l2_distortion: float
    kind: str
    source_class: int
    attack_l1_to_target: float | None = None  # defense_aware only


def select_target(ref: ProbVector, mode: str) -> int:
    """Attack target from the reference distribution; ties take the lowest index."""
    p = ref.probs
    if p.size < 2:
        raise AttackError("target selection needs at least two classes")
    if mode == "least_likely":
        return int(np.argmin(p))
    if mode == "next":
        masked = p.copy()
        masked[int(np.argmax(p))] = -np.inf
        return int(np.argmax(masked))
    raise AttackError(f"unknown target mode {mode!r}")


def l2_distortion(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.sqrt(((a - b) ** 2).sum()))


def _to_tanh_space(x: np.ndarray) -> np.ndarray:
    return np.arctanh(np.clip(2.0 * x - 1.0, -_ATANH_CLIP, _ATANH_CLIP))


def _from_tanh_space(w: np.ndarray) -> np.ndarray:
    return (np.tanh(w) + 1.0) / 2.0


def _targeted_descent(model: Model, x0: np.ndarray, row: dict[str, np.ndarray], steps: int) -> np.ndarray:
    """Shared gradient-descent loop of cw_l2 and defense_aware over a block of rows; returns the chosen inputs.

    attack_sets is the entry point: row is its per-row table sliced to the
    block, so row x0[i] descends for `steps` steps with its own k[i], c[i],
    step_size[i], beta[i] and checked target[i], and p_ref[i] is its
    exemplar output (beta and p_ref are zero but for defense_aware).

    Tracks, per row, the best full-margin iterate (target logit clear of
    all others by k) by the attack's own distance objective; falls back
    to the best argmax-only success when the margin is never reached, and
    to the last iterate when neither occurs.
    """
    n, target, k, beta, p_ref = len(x0), row["target"], row["k"], row["beta"], row["p_ref"]
    loss = CompositeLoss(target=target, k=k, c=row["c"], beta=beta, target_probs=p_ref, x0=x0)

    rows, per_row = np.arange(n), (n,) + (1,) * (x0.ndim - 1)
    step_size = row["step_size"].reshape(per_row)
    w = _to_tanh_space(x0)
    # per row: whether a candidate is kept, its score and its input
    best = [np.zeros(n, dtype=bool), np.zeros(n), np.empty_like(x0)]
    fallback = [np.zeros(n, dtype=bool), np.zeros(n), np.empty_like(x0)]

    def keep(kept: list, take: np.ndarray, score: np.ndarray, x_adv: np.ndarray) -> None:
        kept[0] |= take
        np.copyto(kept[1], score, where=take)
        np.copyto(kept[2], x_adv, where=take.reshape(per_row))

    def consider(x_adv: np.ndarray, logits: np.ndarray, probs: np.ndarray) -> None:
        others = logits.copy()
        others[rows, target] = -np.inf
        margin_ok = logits[rows, target] - others.max(axis=1) >= k
        arg_ok = np.argmax(probs, axis=1) == target
        dist = np.sqrt(((x_adv - x0) ** 2).reshape(n, -1).sum(axis=1))
        score = dist * dist
        if beta.any():  # a zero beta adds +0.0 to a score >= 0: no byte changes
            score = beta * np.abs(probs - p_ref).sum(axis=1) + score
        take_best = margin_ok & (~best[0] | (score < best[1]))
        keep(best, take_best, score, x_adv)
        keep(fallback, ~take_best & arg_ok & (~fallback[0] | (score < fallback[1])), score, x_adv)

    for _ in range(steps):
        tanh_w = np.tanh(w)
        x_adv = (tanh_w + 1.0) / 2.0
        trace, _, dx, _ = loss_gradients(model, x_adv, loss, param_grads=False)
        consider(x_adv, trace.logits, trace.probs)
        # chain through x = (tanh(w) + 1) / 2
        dw = dx * (1.0 - tanh_w**2) / 2.0
        w = w - step_size * dw
    x_adv = _from_tanh_space(w)
    trace = model.forward_trace(x_adv)
    consider(x_adv, trace.logits, trace.probs)

    return np.where(best[0].reshape(per_row), best[2], np.where(fallback[0].reshape(per_row), fallback[2], x_adv))


def attack_sets(
    model: Model,
    sources: list[np.ndarray],
    cfgs: list[AttackConfig],
    exemplars: dict[int, np.ndarray] | None = None,
) -> list[list[AdversarialSample]]:
    """Every attack of cfgs on every source: result[j][i] is cfgs[j] on sources[i].

    FGSM escapes each source's predicted class. cw_l2 and defense_aware
    descend toward select_target's target, which must differ from the
    source's class; defense_aware also needs exemplars[target], a benign
    input classified as the target (see pick_exemplars), to anchor its L1
    term. A source that breaks either rule raises AttackError.

    One forward predicts the sources. The FGSM rows, and the descent rows
    of one step count, run BATCH_ROWS at a time, whatever attack each row
    belongs to.
    """
    n = len(sources)
    if n == 0 or not cfgs:
        return [[] for _ in cfgs]
    x = np.stack([np.asarray(s, dtype=np.float64) for s in sources])
    ref = model.predict_batch(x)
    src = np.argmax(ref.probs, axis=1)
    row_cfgs = [cfg for cfg in cfgs for _ in range(n)]  # attack-major: row j * n + i
    x0, src_rows = np.concatenate([x] * len(cfgs)), np.tile(src, len(cfgs))
    target, p_ref = src_rows.copy(), np.zeros((len(x0), model.class_count))  # fgsm: the class being escaped
    for j, cfg in enumerate(cfgs):
        if cfg.kind == "fgsm":
            continue
        t = np.array([select_target(ref[i], cfg.target_mode) for i in range(n)])
        if (t == src).any():
            raise AttackError(f"every class ties, so no target differs from the source class {src[t == src][0]}")
        if cfg.kind == "defense_aware":
            # one forward over each row's exemplar; a missing or misclassified one fails its row
            found = exemplars is not None and all(c in exemplars for c in t.tolist())
            anchors = model.predict_batch([exemplars[c] for c in t.tolist()]).probs if found else None
            wrong = t if anchors is None else t[np.argmax(anchors, axis=1) != t]
            if len(wrong):
                raise AttackError(f"defense_aware needs a benign exemplar classified as target class {wrong[0]}")
            p_ref[j * n : (j + 1) * n] = anchors
        target[j * n : (j + 1) * n] = t
    # one table of per-row arrays, sliced per block. The L1 penalty competes with a squared distance
    # that grows with input size, so beta is scaled by pixel count to keep one beta range meaningful
    # across image sizes: unscaled, its pull is ~1% at small images and the attack ignores it.
    table = {name: np.array([getattr(c, name) for c in row_cfgs]) for name in ("k", "c", "step_size", "eps")}
    table.update(beta=np.array([c.beta * x[0].size if c.kind == "defense_aware" else 0.0 for c in row_cfgs]))
    table.update(target=target, p_ref=p_ref)

    # fgsm rows form one group, descent rows one group per step count
    groups: dict[str | int, list[int]] = {}
    for i, cfg in enumerate(row_cfgs):
        groups.setdefault("fgsm" if cfg.kind == "fgsm" else cfg.steps, []).append(i)
    perturbed = np.empty_like(x0)
    for key, rows in groups.items():
        for b in range(0, len(rows), BATCH_ROWS):
            block = rows[b : b + BATCH_ROWS]
            row = {name: column[block] for name, column in table.items()}
            if key == "fgsm":
                dx = loss_gradients(model, x0[block], CrossEntropyLoss(row["target"]), param_grads=False)[2]
                eps = row["eps"].reshape(-1, *(1,) * (x0.ndim - 1))
                perturbed[block] = np.clip(x0[block] + eps * np.sign(dx), 0.0, 1.0)
            else:
                perturbed[block] = _targeted_descent(model, x0[block], row, key)

    final = model.predict_batch(perturbed)
    top = np.argmax(final.probs, axis=1)
    samples = [
        AdversarialSample(
            original=x0[i].copy(),
            perturbed=perturbed[i],
            target_class=int(target[i]),
            success=bool(top[i] != src_rows[i] if cfg.kind == "fgsm" else top[i] == target[i]),
            l2_distortion=l2_distortion(perturbed[i], x0[i]),
            kind=cfg.kind,
            source_class=int(src_rows[i]),
            attack_l1_to_target=(
                float(np.abs(final.probs[i] - p_ref[i]).sum()) if cfg.kind == "defense_aware" else None
            ),
        )
        for i, cfg in enumerate(row_cfgs)
    ]
    return [samples[j * n : (j + 1) * n] for j in range(len(cfgs))]


def run_attack(
    model: Model,
    x: np.ndarray,
    cfg: AttackConfig,
    exemplars: dict[int, np.ndarray] | None = None,
) -> AdversarialSample:
    """Attack one source x as cfg says: attack_sets for one attack on a set of one."""
    return attack_sets(model, [x], [cfg], exemplars)[0][0]


def pick_exemplars(dataset, probs: np.ndarray) -> dict[int, np.ndarray]:
    """Highest-confidence correctly-classified sample of each class; probs[i] is the model's output on image i.

    The most stably classified exemplar is the natural anchor for the
    defense_aware L1 term.
    """
    best: dict[int, tuple[float, np.ndarray]] = {}
    for img, lab, p in zip(dataset.images, dataset.labels, probs):
        if int(np.argmax(p)) != lab:
            continue
        conf = float(p[lab])
        if lab not in best or conf > best[lab][0]:
            best[lab] = (conf, img)
    return {lab: img for lab, (conf, img) in best.items()}


# ---------------------------------------------------------------------------
# adversarial-set container (same style as the model container)

SET_MAGIC = b"SDADVS01"
# the AdversarialSample fields a manifest entry holds: all but the two arrays, which go in the blob
_SAMPLE_FIELDS = tuple(f.name for f in fields(AdversarialSample) if f.name not in ("original", "perturbed"))


def save_adversarial_set(
    samples: list[AdversarialSample],
    provenance: dict | None = None,
    attack_meta: dict | None = None,
) -> bytes:
    blob = bytearray()
    entries = []
    for s in samples:
        entry = {name: getattr(s, name) for name in _SAMPLE_FIELDS}
        entry.update(shape=list(s.original.shape), orig_offset=len(blob))
        blob.extend(s.original.astype("<f8").tobytes())
        entry["pert_offset"] = len(blob)
        blob.extend(s.perturbed.astype("<f8").tobytes())
        entries.append(entry)
    manifest = {"format": "stochdet-adversarial-set", "version": 1, "samples": entries}
    if attack_meta:
        manifest["attack"] = attack_meta
    return write_container(SET_MAGIC, manifest, blob, provenance)


def load_adversarial_set_with_meta(data: bytes) -> tuple[list[AdversarialSample], dict]:
    manifest, blob = read_container(data, SET_MAGIC, AttackError)
    try:
        samples = [
            AdversarialSample(
                original=read_blob_array(blob, e["orig_offset"], e["shape"], AttackError),
                perturbed=read_blob_array(blob, e["pert_offset"], e["shape"], AttackError),
                **{name: e[name] for name in _SAMPLE_FIELDS},
            )
            for e in manifest["samples"]
        ]
        return samples, manifest.get("attack", {})
    except (KeyError, TypeError) as exc:
        raise AttackError(f"manifest lacks or mistypes a field: {exc!r}") from exc


def load_adversarial_set(data: bytes) -> list[AdversarialSample]:
    return load_adversarial_set_with_meta(data)[0]
