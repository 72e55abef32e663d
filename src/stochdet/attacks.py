"""White-box adversarial example generation.

Three attacks against the dense model, each run on one source through
run_attack, the one entry point:

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

from dataclasses import dataclass

import numpy as np

from .model import Model, finite_reals, input_gradient, loss_gradients, read_blob_array, read_container, write_container
from .nn import CompositeLoss, CrossEntropyLoss, ProbVector

_ATANH_CLIP = 1.0 - 1e-6  # keeps atanh finite for pixels at exactly 0 or 1


class AttackError(ValueError):
    pass


@dataclass
class AttackConfig:
    kind: str = "cw_l2"  # fgsm | cw_l2 | defense_aware
    target_mode: str = "next"  # next | least_likely
    k: float = 0.0
    c: float = 1.0
    beta: float = 0.0
    steps: int = 300
    step_size: float = 0.02
    eps: float = 0.15  # fgsm only

    def __post_init__(self) -> None:
        if self.kind not in ("fgsm", "cw_l2", "defense_aware"):
            raise AttackError(f"unknown attack kind {self.kind!r}")
        if self.target_mode not in ("next", "least_likely"):
            raise AttackError(f"unknown target mode {self.target_mode!r}")
        if not finite_reals(self.k, self.c, self.beta, self.step_size, self.eps):
            raise AttackError(f"k, c, beta, step_size and eps must be finite numbers; got {self!r}")
        if not (type(self.steps) is int and self.steps >= 1 and self.step_size > 0):
            raise AttackError(f"need integer steps >= 1 and step_size > 0; got ({self.steps!r}, {self.step_size!r})")
        if not 0.0 <= self.eps < 1.0:
            raise AttackError(f"eps must be in [0, 1), got {self.eps}")
        if self.k < 0 or self.c <= 0 or self.beta < 0:
            raise AttackError(f"need k >= 0, c > 0, beta >= 0; got k={self.k} c={self.c} beta={self.beta}")

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


def _targeted_descent(
    model: Model, x0: np.ndarray, target: int, cfg: AttackConfig, target_probs: np.ndarray | None
) -> np.ndarray:
    """Shared gradient-descent loop of cw_l2 and defense_aware; returns the chosen input.

    run_attack is the entry point: it predicts the source x0, picks and
    checks the target and, for defense_aware, the exemplar's target_probs.

    Tracks the best full-margin iterate (target logit clear of all others
    by k) by the attack's own distance objective; falls back to the best
    argmax-only success when the margin is never reached, and to the last
    iterate when neither occurs.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    # The L1 penalty competes with a squared-distance term that scales with
    # input dimension, so its weight is normalized by pixel count to keep
    # one beta range meaningful across image sizes. Without this, beta's
    # pull is a ~1% perturbation at small image sizes and the converged
    # attack ignores it entirely.
    beta = cfg.beta * x0.size if cfg.kind == "defense_aware" else 0.0
    p_ref = target_probs if target_probs is not None else np.zeros(model.class_count)
    loss = CompositeLoss(target=target, k=cfg.k, c=cfg.c, beta=beta, target_probs=p_ref, x0=x0)

    w = _to_tanh_space(x0)
    best: tuple[float, np.ndarray] | None = None  # (score, x)
    fallback: tuple[float, np.ndarray] | None = None

    def consider(x_adv: np.ndarray, logits: np.ndarray, probs: np.ndarray) -> None:
        nonlocal best, fallback
        others = logits.copy()
        others[target] = -np.inf
        margin_ok = logits[target] - others.max() >= cfg.k
        arg_ok = int(np.argmax(probs)) == target
        dist = l2_distortion(x_adv, x0)
        score = beta * float(np.abs(probs - p_ref).sum()) + dist * dist
        if margin_ok and (best is None or score < best[0]):
            best = (score, x_adv)
        elif arg_ok and (fallback is None or score < fallback[0]):
            fallback = (score, x_adv)

    for _ in range(cfg.steps):
        tanh_w = np.tanh(w)
        x_adv = (tanh_w + 1.0) / 2.0
        trace, _, dx, _ = loss_gradients(model, x_adv, loss)
        consider(x_adv, trace.logits, trace.probs)
        # chain through x = (tanh(w) + 1) / 2
        dw = dx * (1.0 - tanh_w**2) / 2.0
        w = w - cfg.step_size * dw
    x_adv = _from_tanh_space(w)
    trace = model.forward_trace(x_adv)
    consider(x_adv, trace.logits, trace.probs)

    chosen = best if best is not None else fallback
    return chosen[1] if chosen is not None else x_adv


def run_attack(
    model: Model,
    x: np.ndarray,
    cfg: AttackConfig,
    exemplars: dict[int, np.ndarray] | None = None,
) -> AdversarialSample:
    """Attack one source x as cfg says; the one entry point of every attack kind.

    FGSM escapes the source's predicted class. cw_l2 and defense_aware
    descend toward select_target's target, which must differ from it;
    defense_aware also needs exemplars[target], a benign input classified
    as the target (see pick_exemplars), to anchor its L1 term.
    """
    x = np.asarray(x, dtype=np.float64)
    ref = model.predict(x)
    src = target = ref.top_class
    target_probs = None
    if cfg.kind == "fgsm":
        perturbed = np.clip(x + cfg.eps * np.sign(input_gradient(model, x, CrossEntropyLoss(src))), 0.0, 1.0)
    else:
        target = select_target(ref, cfg.target_mode)
        if target == src:
            raise AttackError(f"every class ties, so no target differs from the source class {src}")
        if cfg.kind == "defense_aware":
            anchor = model.predict(exemplars[target]) if exemplars and target in exemplars else None
            if anchor is None or anchor.top_class != target:
                raise AttackError(f"defense_aware needs a benign exemplar classified as target class {target}")
            target_probs = anchor.probs
        perturbed = _targeted_descent(model, x, target, cfg, target_probs)
    final = model.predict(perturbed)
    return AdversarialSample(
        original=x.copy(),
        perturbed=perturbed,
        target_class=target,  # for fgsm, the class being escaped
        success=final.top_class != src if cfg.kind == "fgsm" else final.top_class == target,
        l2_distortion=l2_distortion(perturbed, x),
        kind=cfg.kind,
        source_class=src,
        attack_l1_to_target=None if target_probs is None else float(np.abs(final.probs - target_probs).sum()),
    )


def pick_exemplars(model: Model, dataset) -> dict[int, np.ndarray]:
    """Highest-confidence correctly-classified sample of each class.

    The most stably classified exemplar is the natural anchor for the
    defense_aware L1 term.
    """
    best: dict[int, tuple[float, np.ndarray]] = {}
    for img, lab in zip(dataset.images, dataset.labels):
        out = model.predict(img)
        if out.top_class != lab:
            continue
        conf = float(out.probs[lab])
        if lab not in best or conf > best[lab][0]:
            best[lab] = (conf, img)
    return {lab: img for lab, (conf, img) in best.items()}


# ---------------------------------------------------------------------------
# adversarial-set container (same style as the model container)

_SET_MAGIC = b"SDADVS01"


def save_adversarial_set(
    samples: list[AdversarialSample],
    provenance: dict | None = None,
    attack_meta: dict | None = None,
) -> bytes:
    blob = bytearray()
    entries = []
    for s in samples:
        entry = {
            "kind": s.kind,
            "target_class": s.target_class,
            "source_class": s.source_class,
            "success": s.success,
            "l2_distortion": s.l2_distortion,
            "attack_l1_to_target": s.attack_l1_to_target,
            "shape": list(s.original.shape),
            "orig_offset": len(blob),
        }
        blob.extend(s.original.astype("<f8").tobytes())
        entry["pert_offset"] = len(blob)
        blob.extend(s.perturbed.astype("<f8").tobytes())
        entries.append(entry)
    manifest = {
        "format": "stochdet-adversarial-set",
        "version": 1,
        "samples": entries,
    }
    if provenance:
        manifest["provenance"] = provenance
    if attack_meta:
        manifest["attack"] = attack_meta
    return write_container(_SET_MAGIC, manifest, blob)


def load_adversarial_set_with_meta(data: bytes) -> tuple[list[AdversarialSample], dict]:
    manifest, blob = read_container(data, _SET_MAGIC, AttackError)
    try:
        samples = [
            AdversarialSample(
                original=read_blob_array(blob, e["orig_offset"], e["shape"], AttackError),
                perturbed=read_blob_array(blob, e["pert_offset"], e["shape"], AttackError),
                target_class=e["target_class"],
                success=e["success"],
                l2_distortion=e["l2_distortion"],
                kind=e["kind"],
                source_class=e["source_class"],
                attack_l1_to_target=e["attack_l1_to_target"],
            )
            for e in manifest["samples"]
        ]
        return samples, manifest.get("attack", {})
    except (KeyError, TypeError) as exc:
        raise AttackError(f"manifest lacks or mistypes a field: {exc!r}") from exc


def load_adversarial_set(data: bytes) -> list[AdversarialSample]:
    return load_adversarial_set_with_meta(data)[0]
