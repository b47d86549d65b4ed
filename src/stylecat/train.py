"""End-to-end orchestration: config, optimizer, training loops, evaluation,
ablation sweeps, checkpoint assembly, and the finite-difference audit."""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import tensor as T
from .backbone import CODE_SCALE, FILLER_SCALE, PROJ_NOISE, SEED as BACKBONE_SEED, WORD_NOISE
from .backbone import FrozenWeights, Vocab, embed_captions, embed_image
from .captions import CategoryLexicon, split_caption
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .datagen import DatasetError, SyntheticSpec, build_mixture, prototype_grids
from .diffusion import (
    DenoiserParams,
    DiffusionSchedule,
    GuidanceCondition,
    _TrainBuffers,
    condition_for_caption,
    ddpm_train_step,
    noise_regression_loss,
    oracle_classify_batch,
    predict_noise,
    sample,
)
from .encoders import PROMPT_TEMPLATES, AdapterParams, EncoderBundle, adapt, adapt_array, blend
from .losses import (
    ADVERSARIAL_MODES,
    ConfigError,
    category_labeled_loss,
    category_triplet_loss,
    ce_loss,
    class_logits,
    confusion_loss,
    style_labeled_loss,
    style_triplet_loss,
)
from .tensor import Tensor, backward, finite_diff_grad, no_grad, relative_error

SEED_ENV_VAR = "CCLIP_SEED"

METRICS_COLUMNS = (
    "epoch", "split", "style_top1", "category_top1", "style_loss", "category_loss",
    "alpha_style", "alpha_category", "lambda1", "lambda2", "seed",
)

_KINDS = ("style", "category")


class NumericalError(RuntimeError):
    """Non-finite value produced during training or a failed gradient audit."""


@dataclass
class TrainConfig:
    mode: str = "labeled"
    lr: float = 1e-3
    epochs: int = 30
    batch_size: int = 32
    seed: int = 0
    shots: int | None = None
    lambda1: float = 0.2   # style encoder: weight of its category-confusion term
    lambda2: float = 0.3   # category encoder: weight of its style-confusion term
    margin1: float = 0.3
    margin2: float = 0.3
    adversarial_mode: str = "uniform-kl"
    logit_scale: float = 20.0
    alpha_style: float = 0.8
    alpha_category: float = 0.4
    generation_alpha: float = 0.1
    dim: int = 32
    diffusion_steps: int = 3000
    diffusion_batch: int = 256
    timesteps: int = 200

    def __post_init__(self):
        for f in fields(self):  # types first: the range checks below compare numbers
            v = getattr(self, f.name)
            if f.type == "int | None" and v is None:
                continue
            if f.type in ("int", "int | None") and (isinstance(v, bool) or not isinstance(v, int)):
                raise ConfigError(f"{f.name} must be an integer, got {v!r}")
            if f.type == "float" and (isinstance(v, bool) or not isinstance(v, (int, float))
                                      or not -math.inf < v < math.inf):
                raise ConfigError(f"{f.name} must be a finite number, got {v!r}")
        if self.mode not in ("labeled", "unlabeled"):
            raise ConfigError(f"mode must be 'labeled' or 'unlabeled', got {self.mode!r}")
        if self.epochs < 0 or self.batch_size < 1:
            raise ConfigError("epochs must be >= 0 and batch_size >= 1")
        if self.lr <= 0:
            raise ConfigError("lr must be > 0")
        if self.shots is not None and self.shots < 1:
            raise ConfigError("shots must be >= 1 when given")
        for name in ("alpha_style", "alpha_category", "generation_alpha"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {v}")
        if self.dim < 2 or self.timesteps < 2:
            raise ConfigError("dim and timesteps must be >= 2")
        if self.diffusion_steps < 1 or self.diffusion_batch < 1:
            raise ConfigError("diffusion_steps and diffusion_batch must be >= 1")
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ConfigError("lambda weights must be >= 0")
        if self.margin1 < 0 or self.margin2 < 0:
            raise ConfigError("margins must be >= 0")
        if self.adversarial_mode not in ADVERSARIAL_MODES:
            raise ConfigError(f"adversarial_mode must be one of {ADVERSARIAL_MODES}")
        if self.logit_scale <= 0:
            raise ConfigError("logit_scale must be > 0")

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, obj: dict) -> "TrainConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(obj) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**obj)

    @classmethod
    def from_file(cls, path) -> "TrainConfig":
        try:
            obj = json.loads(Path(path).read_text(encoding="utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError) as e:
            raise ConfigError(f"config {path} is not valid JSON: {e}") from e
        if not isinstance(obj, dict):
            raise ConfigError(f"config {path} must be a JSON object")
        return cls.from_dict(obj)


def apply_seed_env(config: TrainConfig, env=os.environ) -> TrainConfig:
    """CCLIP_SEED, when set, overrides every other seed source."""
    raw = env.get(SEED_ENV_VAR)
    if raw is None:
        return config
    try:
        return replace(config, seed=int(raw))
    except ValueError as e:
        raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from e


class Adam:
    """Standard bias-corrected Adam over one ``ParamGroup``.

    ``step`` reads the group's ``flat_grad`` and updates ``m``, ``v`` and
    the group's ``flat`` values in place, elementwise over the whole
    buffers. It leaves ``flat_grad`` as it is, so the gradients stay
    readable after the step. A tensor that the loss does not reach has a
    zero gradient and is updated with g = 0.
    """

    BETA1 = 0.9
    BETA2 = 0.999
    EPS = 1e-8

    def __init__(self, group: T.ParamGroup, lr: float):
        self.group = group
        self.lr = lr
        self.m = np.zeros_like(group.flat)
        self.v = np.zeros_like(group.flat)
        self._update = np.zeros_like(group.flat)
        self._tmp = np.zeros_like(group.flat)
        self.t = 0

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.BETA1**self.t
        bc2 = 1.0 - self.BETA2**self.t
        g, update, tmp, m, v = self.group.flat_grad, self._update, self._tmp, self.m, self.v
        # m = BETA1 * m + (1 - BETA1) * g and v = BETA2 * v + (1 - BETA2) * g * g, in place
        np.multiply(g, 1 - self.BETA1, out=tmp)
        m *= self.BETA1
        m += tmp
        np.multiply(g, 1 - self.BETA2, out=tmp)
        tmp *= g
        v *= self.BETA2
        v += tmp
        # p -= lr * (m / bc1) / (sqrt(v / bc2) + EPS)
        np.divide(m, bc1, out=update)
        update *= self.lr
        np.divide(v, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += self.EPS
        update /= tmp
        self.group.flat -= update


# ---------------------------------------------------------------------------
# backbone / bundle construction

def build_backbone(spec: SyntheticSpec, config: TrainConfig) -> FrozenWeights:
    texts = [spec.caption(i, j) for i in range(spec.n_styles) for j in range(spec.n_categories)]
    texts += [PROMPT_TEMPLATES["style"].format(name) for name in spec.style_names]
    texts += [PROMPT_TEMPLATES["category"].format(name) for name in spec.category_names]
    vocab = Vocab.from_texts(texts)
    return FrozenWeights.build(vocab, spec.style_names, spec.category_names, prototype_grids(spec),
                               dim=config.dim)


def fresh_bundle(spec: SyntheticSpec, config: TrainConfig, backbone: FrozenWeights | None = None) -> EncoderBundle:
    backbone = backbone if backbone is not None else build_backbone(spec, config)
    return EncoderBundle.fresh(backbone, spec.style_names, spec.category_names, seed=config.seed)


# ---------------------------------------------------------------------------
# evaluation helpers

def _features(samples, backbone: FrozenWeights) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """(n, D) frozen image features of the samples, from one ``embed_image`` call, and labels by kind."""
    f_i = embed_image(np.stack([s.grid for s in samples]), backbone)
    return f_i, {kind: np.array([getattr(s, kind) for s in samples]) for kind in _KINDS}


def _top1(bundle: EncoderBundle, f_i: np.ndarray, labels, alpha_style: float, alpha_category: float,
          logit_scale: float) -> tuple[float, float]:
    """Top-1 accuracy of image feature rows against each factor's blended prototypes."""
    accuracy = []
    for kind, alpha in (("style", alpha_style), ("category", alpha_category)):
        frozen = bundle.prompt_features[kind]
        protos = blend(bundle.adapt_feature(frozen, kind), frozen, alpha)
        logits = logit_scale * (f_i @ protos.T)
        accuracy.append(float((logits.argmax(axis=1) == labels[kind]).mean()))
    return tuple(accuracy)


def evaluate_classification(bundle: EncoderBundle, samples, alpha_style: float,
                            alpha_category: float, logit_scale: float):
    """Top-1 accuracy for both factors under the blended prototypes; ``samples`` must not be empty."""
    if not samples:
        raise DatasetError("no samples to evaluate")
    return _top1(bundle, *_features(samples, bundle.backbone), alpha_style, alpha_category, logit_scale)


# ---------------------------------------------------------------------------
# encoder training

def subsample_shots(samples, shots: int | None):
    """First ``shots`` samples of every (style, category) cell."""
    if shots is None:
        return list(samples)
    kept, counts = [], {}
    for s in samples:
        key = (s.style, s.category)
        if counts.get(key, 0) < shots:
            counts[key] = counts.get(key, 0) + 1
            kept.append(s)
    return kept


def _check_finite(value: float, context: str) -> float:
    if not np.isfinite(value):
        raise NumericalError(f"non-finite loss in {context}: {value}")
    return value


def train_encoders(config: TrainConfig, spec: SyntheticSpec, train_samples,
                   lexicon: CategoryLexicon | None = None,
                   backbone: FrozenWeights | None = None):
    """Train both adapters; returns (bundle, metrics_rows).

    Labeled mode alternates a style step and a category step per batch on
    the cross-entropy/confusion objectives; unlabeled mode runs the two
    triplet objectives over decomposed captions.
    """
    if config.mode == "unlabeled" and lexicon is None:
        raise ConfigError("unlabeled mode requires a category lexicon")
    data = subsample_shots(train_samples, config.shots)
    if not data:
        raise ConfigError("training set is empty")

    bundle = fresh_bundle(spec, config, backbone)
    opt_style = Adam(bundle.style_adapter, config.lr)
    opt_cat = Adam(bundle.category_adapter, config.lr)
    rng = np.random.default_rng([config.seed, 11])

    # Frozen features are constants of the data: embedded once per run.
    f_all, labels = _features(data, bundle.backbone)
    if config.mode == "unlabeled":
        pairs = [split_caption(s.caption, lexicon) for s in data]
        texts = list(dict.fromkeys(text for pair in pairs for text in pair))
        frozen_text = dict(zip(texts, embed_captions(texts, bundle.backbone)))
        style_text, category_text = (np.stack([frozen_text[pair[k]] for pair in pairs]) for k in (0, 1))

    rows = []
    for epoch in range(config.epochs):
        order = rng.permutation(len(data))
        style_losses, cat_losses = [], []
        for start in range(0, len(data), config.batch_size):
            idx = order[start : start + config.batch_size]
            f_i = f_all[idx]

            if config.mode == "labeled":
                batch_labels = {kind: y[idx] for kind, y in labels.items()}
                loss_s = style_labeled_loss(f_i, batch_labels, bundle, config)
            else:
                t_s, t_c = style_text[idx], category_text[idx]
                f_c = adapt_array(t_c, bundle.category_adapter)[0]
                loss_s = style_triplet_loss(t_s, bundle.style_adapter, f_i, f_c, config.margin1)
            bundle.style_adapter.zero_grad()
            backward(loss_s)
            opt_style.step()
            style_losses.append(_check_finite(loss_s.item(), "style step"))

            if config.mode == "labeled":
                loss_c = category_labeled_loss(f_i, batch_labels, bundle, config)
            else:
                f_s = adapt_array(t_s, bundle.style_adapter)[0]
                loss_c = category_triplet_loss(t_c, bundle.category_adapter, f_i, f_s, config.margin2)
            bundle.category_adapter.zero_grad()
            backward(loss_c)
            opt_cat.step()
            cat_losses.append(_check_finite(loss_c.item(), "category step"))

        s_top1, c_top1 = _top1(bundle, f_all, labels, config.alpha_style, config.alpha_category, config.logit_scale)
        rows.append(_metrics_row(epoch, "train", s_top1, c_top1,
                                 float(np.mean(style_losses)), float(np.mean(cat_losses)), config))
    return bundle, rows


def _metrics_row(epoch, split, style_top1, category_top1, style_loss, category_loss, config: TrainConfig):
    """One ``METRICS_COLUMNS`` row; the last five columns are config fields."""
    values = (epoch, split, style_top1, category_top1, style_loss, category_loss)
    return {**dict(zip(METRICS_COLUMNS, values)), **{k: getattr(config, k) for k in METRICS_COLUMNS[6:]}}


def write_metrics_csv(rows, path, columns=METRICS_COLUMNS) -> None:
    """Deterministic CSV: fixed column order, repr-formatted floats."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in (row.get(c, "") for c in columns)])


# ---------------------------------------------------------------------------
# sweeps

ALPHA_GRID = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
LAMBDA_GRID = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5)


def alpha_sweep(bundle: EncoderBundle, testset, config: TrainConfig, grid=ALPHA_GRID):
    """Evaluate one trained bundle across the blending grid."""
    rows = []
    for a in grid:
        cfg = replace(config, alpha_style=a, alpha_category=a)
        s_top1, c_top1 = evaluate_classification(bundle, testset, cfg.alpha_style, cfg.alpha_category,
                                                 cfg.logit_scale)
        rows.append(_metrics_row(cfg.epochs, "test", s_top1, c_top1, "", "", cfg))
    return rows


def lambda_sweep(config: TrainConfig, spec: SyntheticSpec, train_samples, testset,
                 grid=LAMBDA_GRID, lexicon=None):
    """Retrain per grid point with a fixed seed, then evaluate."""
    rows = []
    for lam in grid:
        cfg = replace(config, lambda1=lam, lambda2=lam)
        bundle, _ = train_encoders(cfg, spec, train_samples, lexicon=lexicon)
        s_top1, c_top1 = evaluate_classification(
            bundle, testset, cfg.alpha_style, cfg.alpha_category, cfg.logit_scale
        )
        rows.append(_metrics_row(cfg.epochs, "test", s_top1, c_top1, "", "", cfg))
    return rows


# ---------------------------------------------------------------------------
# diffusion training and guided-generation evaluation

def train_diffusion(config: TrainConfig, points, bundle: EncoderBundle):
    """Train the denoiser on captioned points; returns (params, schedule, rows).

    The points are stacked into one (N, 2) array, which must be finite,
    and each caption's condition is built once, before the first step, and
    stacked into one ``GuidanceCondition`` with a row per caption.
    Whenever a loss row is logged, every parameter must still be finite:
    a NaN parameter stays NaN under Adam, so one check per row suffices.
    """
    if not points:
        raise DatasetError("diffusion dataset is empty; need at least one captioned point")
    schedule = DiffusionSchedule.make(config.timesteps)
    params = DenoiserParams.init(dim=config.dim, steps=config.timesteps, seed=config.seed)
    opt = Adam(params, config.lr)
    rng = np.random.default_rng([config.seed, 21])
    caption_idx = {c: i for i, c in enumerate(dict.fromkeys(p.caption for p in points))}
    conditions = GuidanceCondition.stack([condition_for_caption(c, bundle, config.generation_alpha)
                                          for c in caption_idx])
    xy = np.array([[p.x, p.y] for p in points])
    bad = np.flatnonzero(~np.isfinite(xy).all(axis=1))
    if bad.size:
        raise DatasetError(f"diffusion point {bad[0]} is not finite: {points[bad[0]]}")
    cond_idx = np.array([caption_idx[p.caption] for p in points])
    batch = min(config.diffusion_batch, len(points))
    buffers = _TrainBuffers(schedule, params, conditions, batch)
    rows = []
    for step in range(config.diffusion_steps):
        batch_idx = rng.integers(0, len(points), size=batch)
        loss = ddpm_train_step(xy[batch_idx], cond_idx[batch_idx], conditions, schedule, params, rng,
                               buffers=buffers)
        params.zero_grad()
        backward(loss)
        opt.step()
        value = _check_finite(loss.item(), f"diffusion step {step}")
        if step % 100 == 0 or step == config.diffusion_steps - 1:
            bad = [name for name, arr in params.arrays().items() if not np.isfinite(arr).all()]
            if bad:
                raise NumericalError(f"non-finite denoiser parameters {bad} at diffusion step {step}")
            rows.append({"step": step, "loss": value})
    return params, schedule, rows


def guidance_eval(bundle: EncoderBundle, params: DenoiserParams, schedule: DiffusionSchedule,
                  spec: SyntheticSpec, alpha: float, n_per_cell: int, seed: int):
    """Oracle accuracy of each (style, category) cell's samples on that cell.

    Conditions are built from decomposed captions, so the condition of one
    cell's style with another cell's category is exactly the condition of a
    third cell: matched accuracy over all cells already tests composition.
    """
    if n_per_cell < 1:
        raise ConfigError(f"guidance_eval: n_per_cell must be >= 1, got {n_per_cell}")
    mixture = build_mixture(spec)
    rows = []
    for i in range(spec.n_styles):
        for j in range(spec.n_categories):
            cond = condition_for_caption(spec.caption(i, j), bundle, alpha)
            pts = sample(n_per_cell, cond, schedule, params, seed=seed + i * spec.n_categories + j)
            s_hat, c_hat = oracle_classify_batch(pts, mixture)
            rows.append({"style": spec.style_names[i], "category": spec.category_names[j],
                         "matched_accuracy": float(((s_hat == i) & (c_hat == j)).mean())})
    return rows


# ---------------------------------------------------------------------------
# checkpoint assembly

def bundle_arrays(bundle: EncoderBundle) -> dict:
    out = {}
    for prefix, adapter in (("style_adapter", bundle.style_adapter),
                            ("category_adapter", bundle.category_adapter)):
        for name, arr in adapter.arrays().items():
            out[f"{prefix}.{name}"] = arr
    return out


def save_encoder_checkpoint(path, bundle: EncoderBundle, config: TrainConfig, spec: SyntheticSpec,
                            denoiser: DenoiserParams | None = None) -> None:
    arrays = bundle_arrays(bundle)
    if denoiser is not None:
        arrays.update({f"denoiser.{name}": arr for name, arr in denoiser.arrays().items()})
    meta = {"kind": "encoders" if denoiser is None else "diffusion",
            "config": config.to_json(), "dataset_spec": spec.to_json()}
    save_checkpoint(path, arrays, meta)


# The backbone's and Adam's options, retired from TrainConfig: a checkpoint may
# hold them only at the values of the constants the code now uses.
RETIRED_CONSTANT_KEYS = {"backbone_seed": BACKBONE_SEED, "word_noise": WORD_NOISE,
                         "filler_scale": FILLER_SCALE, "proj_noise": PROJ_NOISE, "code_scale": CODE_SCALE,
                         "beta1": Adam.BETA1, "beta2": Adam.BETA2, "adam_eps": Adam.EPS}
# Config keys still present in checkpoints written before their removal: those of the contrastive
# warm-up, the adapter width (now dim // 4, enforced by the array shapes) and the options above.
RETIRED_CONFIG_KEYS = ("pretrain_contrastive", "contrastive_steps", "contrastive_temperature", "hidden",
                       *RETIRED_CONSTANT_KEYS)
# Arrays of the softmax-attention denoiser (its query, key and output projections and
# its per-token condition offsets), which no current denoiser can be rebuilt from.
RETIRED_DENOISER_ARRAYS = {"wq", "wk", "wo", "cond_offsets"}


def _stored_config(path, meta) -> tuple[TrainConfig, SyntheticSpec]:
    """The training config and dataset spec of a checkpoint's metadata; CheckpointError if malformed."""
    if not (isinstance(meta, dict) and isinstance(meta.get("config"), dict)
            and isinstance(meta.get("dataset_spec"), dict)):
        raise CheckpointError(f"{path}: metadata must be an object with 'config' and 'dataset_spec' objects")
    stored = meta["config"]
    if stored.get("pretrain_contrastive"):
        raise CheckpointError(f"{path}: trained on a contrastively warmed-up backbone, which the "
                              "checkpoint does not hold; retrain without the warm-up")
    changed = {k: stored[k] for k, v in RETIRED_CONSTANT_KEYS.items() if k in stored and stored[k] != v}
    if changed:
        raise CheckpointError(f"{path}: trained with {changed}, which can no longer be set")
    try:
        config = TrainConfig.from_dict({k: v for k, v in stored.items() if k not in RETIRED_CONFIG_KEYS})
        return config, SyntheticSpec.from_json(meta["dataset_spec"])
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: bad config or dataset spec: {e}") from e


def load_encoder_checkpoint(path):
    """Rebuild (bundle, config, spec, denoiser-or-None) from a checkpoint."""
    arrays, meta = load_checkpoint(path)
    config, spec = _stored_config(path, meta)
    groups: dict[str, dict] = {"style_adapter": {}, "category_adapter": {}}
    for name, arr in arrays.items():
        prefix, _, short = name.partition(".")
        groups.setdefault(prefix, {})[short] = arr
    unknown = sorted(set(groups) - {"style_adapter", "category_adapter", "denoiser"})
    if unknown:
        raise CheckpointError(f"{path}: unknown array groups {unknown}")

    def rebuild(cls, prefix, like):
        try:
            return cls.from_arrays(groups[prefix], like)
        except CheckpointError as e:
            raise CheckpointError(f"{path}: {prefix}: {e}") from e

    adapter = AdapterParams.init(config.dim)
    style_adapter = rebuild(AdapterParams, "style_adapter", adapter)
    category_adapter = rebuild(AdapterParams, "category_adapter", adapter)
    denoiser = None
    if "denoiser" in groups:
        attention = sorted(set(groups["denoiser"]) & RETIRED_DENOISER_ARRAYS)
        if attention:
            raise CheckpointError(f"{path}: denoiser holds the retired attention weights {attention}; "
                                  "re-run train-diffusion to train the current denoiser")
        like = DenoiserParams.init(dim=config.dim, steps=config.timesteps)
        denoiser = rebuild(DenoiserParams, "denoiser", like)
    bundle = EncoderBundle(build_backbone(spec, config), style_adapter, category_adapter,
                           spec.style_names, spec.category_names)
    return bundle, config, spec, denoiser


# ---------------------------------------------------------------------------
# finite-difference audit

def _ad_grads(loss_fn, params):
    """Reverse-mode gradients of loss_fn() w.r.t. each tensor in params."""
    for p in params:
        p.zero_grad()
    backward(loss_fn())
    return [p.grad.copy() for p in params]


def _random_adapter(rng, dim: int, hidden: int) -> AdapterParams:
    return AdapterParams(
        w1=Tensor(0.5 * rng.standard_normal((dim, hidden)), requires_grad=True),
        b1=Tensor(0.1 * rng.standard_normal(hidden), requires_grad=True),
        w2=Tensor(0.5 * rng.standard_normal((hidden, dim)), requires_grad=True),
        b2=Tensor(0.1 * rng.standard_normal(dim), requires_grad=True),
    )


def _unit_rows(rng, n, d) -> np.ndarray:
    m = rng.standard_normal((n, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


_OTHER = {"style": "category", "category": "style"}


class _AuditWorld(EncoderBundle):
    """One random miniature encoder bundle for the gradient audit.

    Rejection-samples until no ReLU pre-activation or hinge argument sits
    near its kink, so central differences stay valid, and until each kind's
    hinge has an active row, so its audit checks a nonzero gradient. The
    prompt features are random unit rows and there is no backbone;
    adapters, prompt features and labels are keyed by kind, "style" or
    "category". The first row of each triplet's positive equals its anchor
    row, so the audit meets the zero distance, whose gradient is taken to
    be zero.
    """

    DIM = 8
    HIDDEN = 3
    K = 3
    BATCH = 4
    LAMBDA = {"style": 0.2, "category": 0.3}
    LOGIT_SCALE = 10.0

    def __init__(self, seed: int):
        attempt = 0
        while True:
            rng = np.random.default_rng([seed, attempt, 101])
            self.style_adapter, self.category_adapter = (_random_adapter(rng, self.DIM, self.HIDDEN)
                                                         for _ in _KINDS)
            self.f_i = _unit_rows(rng, self.BATCH, self.DIM)
            self.prompt_features = {kind: _unit_rows(rng, self.K, self.DIM) for kind in _KINDS}
            self.labels = {kind: rng.integers(0, self.K, self.BATCH) for kind in _KINDS}
            self.margin = 0.3
            self.adapted = {kind: adapt_array(self.f_i, self.adapter(kind))[0] for kind in _KINDS}
            self.positive = {kind: np.concatenate([f[:1], self.f_i[1:]]) for kind, f in self.adapted.items()}
            if self._clean():
                break
            attempt += 1

    def _clean(self, threshold: float = 1e-3) -> bool:
        feats = np.concatenate([self.f_i, *self.prompt_features.values()])
        for kind in _KINDS:
            p = self.adapter(kind)
            if np.abs(feats @ p.w1.data + p.b1.data).min() < threshold:
                return False
            f = self.adapted[kind]
            d_pos = np.linalg.norm(f - self.positive[kind], axis=1)
            d_neg = np.linalg.norm(f - self.adapted[_OTHER[kind]], axis=1)
            pre = d_pos - d_neg + self.margin
            if np.abs(pre).min() < threshold or not (pre > 0).any():
                return False
        return True

    # loss closures of the ``kind`` adapter; each reads the live adapter tensors

    def ce(self, kind: str):
        protos = adapt(Tensor(self.prompt_features[kind]), self.adapter(kind))
        return ce_loss(class_logits(Tensor(self.f_i), protos, self.LOGIT_SCALE), self.labels[kind])

    def confusion(self, kind: str):
        other = _OTHER[kind]
        protos = adapt(Tensor(self.prompt_features[other]), self.adapter(kind))
        return confusion_loss(class_logits(Tensor(self.f_i), protos, self.LOGIT_SCALE), self.labels[other],
                              "uniform-kl")

    def labeled(self, kind: str, mode: str = "uniform-kl"):
        cfg = TrainConfig(lambda1=self.LAMBDA["style"], lambda2=self.LAMBDA["category"],
                          logit_scale=self.LOGIT_SCALE, adversarial_mode=mode)
        loss = style_labeled_loss if kind == "style" else category_labeled_loss
        return loss(self.f_i, self.labels, self, cfg)

    def labeled_negated_ce(self, kind: str):
        return self.labeled(kind, "negated-ce")

    def triplet(self, kind: str):
        loss = style_triplet_loss if kind == "style" else category_triplet_loss
        return loss(self.f_i, self.adapter(kind), self.positive[kind], self.adapted[_OTHER[kind]], self.margin)


def _adapter_world(seed: int, kind: str, part: str):
    world = _AuditWorld(seed)
    return partial(getattr(world, part.replace("-", "_")), kind), world.adapter(kind).tensors()


def _denoiser_world(seed: int, groups: int = 1, rows: int = 4, one_timestep: bool = False):
    """Full denoiser loss; with ``groups`` > 1, rows of every group share one forward.

    The last row repeats the first row's timestep, and with ``rows`` > ``groups``
    some condition index repeats too, so the scatter-add of both row gathers
    meets a collision on every seed. With ``one_timestep`` the call has the
    sampler's shape: one integer timestep and one condition for every row.
    """
    rng = np.random.default_rng([seed, 103])
    dim = 8
    steps = 6
    params = DenoiserParams.init(dim=dim, steps=steps, seed=seed + 13)
    # randomize biases so every parameter has signal
    params.mlp_b1.data[:] = 0.3 * rng.standard_normal(dim)
    params.in_b.data[:] = 0.3 * rng.standard_normal(dim)
    z_t = rng.standard_normal((rows, 2))
    t_idx = rng.integers(0, steps, rows)
    t_idx[-1] = t_idx[0]
    if one_timestep:
        t_idx[:] = t_idx[0]
    eps = rng.standard_normal((rows, 2))
    cond = GuidanceCondition.stack([GuidanceCondition(tau_style=_unit_rows(rng, 1, dim),
                                                      tau_category=_unit_rows(rng, 1, dim))
                                    for _ in range(groups)])
    cond_idx = rng.permutation(np.arange(rows) % groups)
    call = (int(t_idx[0]), cond, None) if one_timestep else (t_idx, cond, cond_idx)

    def loss_fn():
        return noise_regression_loss(predict_noise(params, z_t, *call), eps)

    # keep clear of the MLP ReLU kink
    values = cond.tau_style @ params.ws.data + cond.tau_category @ params.wv.data
    a = z_t @ params.in_w.data + params.in_b.data + params.time_embed.data[t_idx] + values[cond_idx]
    pre = a @ params.mlp_w1.data + params.mlp_b1.data
    if np.abs(pre).min() < 1e-3:
        return _denoiser_world(seed + 1000, groups, rows, one_timestep)
    return loss_fn, params.tensors()


def _denoiser_train_world(seed: int):
    """``ddpm_train_step``'s one node through a workspace; each call re-seeds the step's draws.

    Every evaluation draws the same timesteps and noise, so the loss is a
    function of the parameters alone. Six rows share three conditions, so
    the condition scatter meets a collision on every seed.
    """
    rng = np.random.default_rng([seed, 107])
    dim, steps, rows, groups = 8, 6, 6, 3
    params = DenoiserParams.init(dim=dim, steps=steps, seed=seed + 17)
    params.mlp_b1.data[:] = 0.3 * rng.standard_normal(dim)
    params.in_b.data[:] = 0.3 * rng.standard_normal(dim)
    schedule = DiffusionSchedule.make(steps)
    points = rng.standard_normal((rows, 2))
    cond = GuidanceCondition.stack([GuidanceCondition(tau_style=_unit_rows(rng, 1, dim),
                                                      tau_category=_unit_rows(rng, 1, dim))
                                    for _ in range(groups)])
    cond_idx = rng.permutation(np.arange(rows) % groups)
    buffers = _TrainBuffers(schedule, params, cond, rows)

    def loss_fn():
        draws = np.random.default_rng([seed, 109])
        return ddpm_train_step(points, cond_idx, cond, schedule, params, draws, buffers=buffers)

    with no_grad():
        loss_fn()
    # keep clear of the MLP ReLU kink
    if np.abs(buffers.a @ params.mlp_w1.data + params.mlp_b1.data).min() < 1e-3:
        return _denoiser_train_world(seed + 1000)
    return loss_fn, params.tensors()


def gradcheck_suite(n_seeds: int = 20, tol: float = 1e-4, eps: float = 1e-5):
    """Check every loss, the denoiser and its training step against central differences.

    Returns a list of (component, worst_relative_error, passed) triples.
    ConfigError unless ``n_seeds`` >= 1 and ``tol`` is a positive finite number.
    """
    if n_seeds < 1 or not (math.isfinite(tol) and tol > 0):
        raise ConfigError(f"gradcheck needs n_seeds >= 1 and a positive finite tol, got {n_seeds} and {tol}")
    parts = [(kind, part) for kind in _KINDS for part in ("ce", "confusion", "labeled", "labeled-negated-ce")]
    parts += [(kind, "triplet") for kind in _KINDS]
    components = [(f"{kind}-{part}", partial(_adapter_world, kind=kind, part=part)) for kind, part in parts]
    components += [("denoiser-step", _denoiser_world),
                   ("denoiser-grouped", partial(_denoiser_world, groups=3, rows=6)),
                   ("denoiser-one-timestep", partial(_denoiser_world, one_timestep=True)),
                   ("denoiser-train-step", _denoiser_train_world)]
    results = []
    for name, world_fn in components:
        worst = 0.0
        for seed in range(n_seeds):
            loss_fn, params = world_fn(seed)
            ad = _ad_grads(loss_fn, params)
            for p, g in zip(params, ad):
                fd = finite_diff_grad(lambda _: loss_fn(), p, eps=eps)
                worst = max(worst, float(np.nan_to_num(relative_error(g, fd), nan=np.inf)))  # NaN fails
        results.append((name, worst, worst < tol))
    return results
