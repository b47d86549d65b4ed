"""End-to-end orchestration: config, optimizer, training loops, evaluation,
ablation sweeps, checkpoint assembly, and the finite-difference audit."""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import tensor as T
from .backbone import FrozenWeights, Vocab, embed_caption, embed_image
from .captions import CategoryLexicon, decompose
from .checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from .datagen import DatasetError, SyntheticSpec, build_mixture, prototype_grids
from .diffusion import (
    DenoiserParams,
    DiffusionSchedule,
    GuidanceCondition,
    condition_for_caption,
    ddpm_train_step,
    noise_regression_loss,
    oracle_classify_batch,
    predict_noise,
    sample,
    split_cross_attention,
)
from .encoders import PROMPT_TEMPLATES, AdapterParams, EncoderBundle, adapter_forward, blend
from .losses import (
    ConfigError,
    LossConfig,
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


class NumericalError(RuntimeError):
    """Non-finite value produced during training or a failed gradient audit."""


@dataclass
class TrainConfig:
    mode: str = "labeled"
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    epochs: int = 30
    batch_size: int = 32
    seed: int = 0
    shots: int | None = None
    lambda1: float = 0.2
    lambda2: float = 0.3
    margin1: float = 0.3
    margin2: float = 0.3
    adversarial_mode: str = "uniform-kl"
    logit_scale: float = 20.0
    alpha_style: float = 0.8
    alpha_category: float = 0.4
    generation_alpha: float = 0.1
    dim: int = 32
    hidden: int | None = None
    backbone_seed: int = 0
    word_noise: float = 0.10
    filler_scale: float = 0.15
    proj_noise: float = 0.01
    code_scale: float = 0.30
    diffusion_steps: int = 3000
    diffusion_batch: int = 256
    timesteps: int = 200

    def __post_init__(self):
        if self.mode not in ("labeled", "unlabeled"):
            raise ConfigError(f"mode must be 'labeled' or 'unlabeled', got {self.mode!r}")
        if self.epochs < 0 or self.batch_size < 1:
            raise ConfigError("epochs must be >= 0 and batch_size >= 1")
        if self.lr <= 0 or not (0 <= self.beta1 < 1) or not (0 <= self.beta2 < 1) or self.adam_eps <= 0:
            raise ConfigError("invalid optimizer hyperparameters")
        if self.shots is not None and self.shots < 1:
            raise ConfigError("shots must be >= 1 when given")
        for name in ("alpha_style", "alpha_category", "generation_alpha"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1], got {v}")
        if self.dim < 2 or self.timesteps < 2:
            raise ConfigError("dim and timesteps must be >= 2")
        if self.diffusion_steps < 0 or self.diffusion_batch < 1:
            raise ConfigError("invalid diffusion training sizes")
        self.loss_config()  # validates the loss block

    def loss_config(self) -> LossConfig:
        return LossConfig(
            lambda1=self.lambda1,
            lambda2=self.lambda2,
            margin1=self.margin1,
            margin2=self.margin2,
            adversarial_mode=self.adversarial_mode,
            logit_scale=self.logit_scale,
        )

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
        except json.JSONDecodeError as e:
            raise ConfigError(f"config {path} is not valid JSON: {e}") from e
        if not isinstance(obj, dict):
            raise ConfigError(f"config {path} must be a JSON object")
        return cls.from_dict(obj)

    def override(self, **kwargs) -> "TrainConfig":
        updates = {k: v for k, v in kwargs.items() if v is not None}
        return replace(self, **updates) if updates else self


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
    """Standard bias-corrected Adam over a fixed tensor list."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.t = 0

    @classmethod
    def from_config(cls, params, cfg: TrainConfig) -> "Adam":
        return cls(params, lr=cfg.lr, beta1=cfg.beta1, beta2=cfg.beta2, eps=cfg.adam_eps)

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()

    def step(self):
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                continue
            self.m[i] = self.beta1 * self.m[i] + (1 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1 - self.beta2) * g * g
            p.data = p.data - self.lr * (self.m[i] / bc1) / (np.sqrt(self.v[i] / bc2) + self.eps)


# ---------------------------------------------------------------------------
# backbone / bundle construction

def build_backbone(spec: SyntheticSpec, config: TrainConfig) -> FrozenWeights:
    texts = [spec.caption(i, j) for i in range(spec.n_styles) for j in range(spec.n_categories)]
    texts += [PROMPT_TEMPLATES["style"].format(name) for name in spec.style_names]
    texts += [PROMPT_TEMPLATES["category"].format(name) for name in spec.category_names]
    vocab = Vocab.from_texts(texts)
    return FrozenWeights.build(
        vocab,
        spec.style_names,
        spec.category_names,
        prototype_grids(spec),
        dim=config.dim,
        seed=config.backbone_seed,
        word_noise=config.word_noise,
        filler_scale=config.filler_scale,
        proj_noise=config.proj_noise,
        code_scale=config.code_scale,
    )


def fresh_bundle(spec: SyntheticSpec, config: TrainConfig, backbone: FrozenWeights | None = None) -> EncoderBundle:
    backbone = backbone if backbone is not None else build_backbone(spec, config)
    return EncoderBundle.fresh(
        backbone,
        spec.style_names,
        spec.category_names,
        hidden=config.hidden,
        seed=config.seed,
        alpha=config.generation_alpha,
    )


# ---------------------------------------------------------------------------
# evaluation helpers

def prediction_logits(bundle: EncoderBundle, samples, adapter_kind: str, prompt_kind: str,
                      alpha: float, logit_scale: float = 20.0) -> np.ndarray:
    """Image features scored against blended prototypes; (n, K) array."""
    with no_grad():
        f_i = np.stack([embed_image(s.grid, bundle.backbone).data for s in samples])
        adapted = bundle.adapted_prototypes(adapter_kind, prompt_kind)
        frozen = bundle.frozen_prototypes(prompt_kind)
        protos = blend(adapted, frozen, alpha).data
    return logit_scale * (f_i @ protos.T)


def evaluate_classification(bundle: EncoderBundle, samples, alpha_style: float,
                            alpha_category: float, logit_scale: float = 20.0):
    """Top-1 accuracy for both factors under the blended prototypes."""
    style_logits = prediction_logits(bundle, samples, "style", "style", alpha_style, logit_scale)
    cat_logits = prediction_logits(bundle, samples, "category", "category", alpha_category, logit_scale)
    y_s = np.array([s.style for s in samples])
    y_c = np.array([s.category for s in samples])
    return (
        float((style_logits.argmax(axis=1) == y_s).mean()),
        float((cat_logits.argmax(axis=1) == y_c).mean()),
    )


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


def _decompose_batch(samples, lexicon: CategoryLexicon):
    pairs = []
    for s in samples:
        d = decompose(s.caption, lexicon)
        if not d.style_text or not d.category_text:
            raise ConfigError(
                f"caption {s.caption!r} does not decompose into non-empty style and category text"
            )
        pairs.append((d.style_text, d.category_text))
    return pairs


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
    cfg = config.loss_config()
    opt_style = Adam.from_config(bundle.style_adapter.tensors(), config)
    opt_cat = Adam.from_config(bundle.category_adapter.tensors(), config)
    rng = np.random.default_rng([config.seed, 11])

    decomposed = _decompose_batch(data, lexicon) if config.mode == "unlabeled" else []
    frozen_text = {text: embed_caption(text, bundle.backbone).data for pair in decomposed for text in pair}

    rows = []
    for epoch in range(config.epochs):
        order = rng.permutation(len(data))
        style_losses, cat_losses = [], []
        for start in range(0, len(data), config.batch_size):
            idx = order[start : start + config.batch_size]
            batch = [data[i] for i in idx]

            if config.mode == "labeled":
                loss_s = style_labeled_loss(batch, bundle, cfg)
            else:
                f_i = Tensor(np.stack([embed_image(s.grid, bundle.backbone).data for s in batch]))
                style_frozen = Tensor(np.stack([frozen_text[decomposed[i][0]] for i in idx]))
                cat_frozen = Tensor(np.stack([frozen_text[decomposed[i][1]] for i in idx]))
                f_s = bundle.adapt_feature(style_frozen, "style")
                with no_grad():
                    f_c = bundle.adapt_feature(cat_frozen, "category")
                loss_s = style_triplet_loss(f_s, f_i, f_c, cfg.margin1)
            opt_style.zero_grad()
            backward(loss_s)
            opt_style.step()
            style_losses.append(_check_finite(loss_s.item(), "style step"))

            if config.mode == "labeled":
                loss_c = category_labeled_loss(batch, bundle, cfg)
            else:
                with no_grad():
                    f_s_const = bundle.adapt_feature(style_frozen, "style")
                f_c = bundle.adapt_feature(cat_frozen, "category")
                loss_c = category_triplet_loss(f_c, f_i, f_s_const, cfg.margin2)
            opt_cat.zero_grad()
            backward(loss_c)
            opt_cat.step()
            cat_losses.append(_check_finite(loss_c.item(), "category step"))

        s_top1, c_top1 = evaluate_classification(
            bundle, data, config.alpha_style, config.alpha_category, cfg.logit_scale
        )
        rows.append(_metrics_row(epoch, "train", s_top1, c_top1,
                                 float(np.mean(style_losses)), float(np.mean(cat_losses)), config))
    return bundle, rows


def _metrics_row(epoch, split, style_top1, category_top1, style_loss, category_loss,
                 config: TrainConfig, alpha_style=None, alpha_category=None):
    return {
        "epoch": epoch,
        "split": split,
        "style_top1": style_top1,
        "category_top1": category_top1,
        "style_loss": style_loss,
        "category_loss": category_loss,
        "alpha_style": config.alpha_style if alpha_style is None else alpha_style,
        "alpha_category": config.alpha_category if alpha_category is None else alpha_category,
        "lambda1": config.lambda1,
        "lambda2": config.lambda2,
        "seed": config.seed,
    }


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
        s_top1, c_top1 = evaluate_classification(bundle, testset, a, a, config.logit_scale)
        rows.append(_metrics_row(config.epochs, "test", s_top1, c_top1, "", "",
                                 config, alpha_style=a, alpha_category=a))
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

    The points are stacked into one (N, 2) array and each caption's
    condition is built once, before the first step.
    """
    if not points:
        raise DatasetError("diffusion dataset is empty; need at least one captioned point")
    schedule = DiffusionSchedule.make(config.timesteps)
    params = DenoiserParams.init(dim=config.dim, steps=config.timesteps, seed=config.seed)
    opt = Adam.from_config(params.tensors(), config)
    rng = np.random.default_rng([config.seed, 21])
    caption_idx = {c: i for i, c in enumerate(dict.fromkeys(p.caption for p in points))}
    conditions = [condition_for_caption(c, bundle, config.generation_alpha) for c in caption_idx]
    xy = np.array([[p.x, p.y] for p in points])
    cond_idx = np.array([caption_idx[p.caption] for p in points])
    rows = []
    for step in range(config.diffusion_steps):
        batch_idx = rng.integers(0, len(points), size=min(config.diffusion_batch, len(points)))
        loss = ddpm_train_step(xy[batch_idx], cond_idx[batch_idx], conditions, schedule, params, rng)
        opt.zero_grad()
        backward(loss)
        opt.step()
        value = _check_finite(loss.item(), f"diffusion step {step}")
        if step % 100 == 0 or step == config.diffusion_steps - 1:
            rows.append({"step": step, "loss": value})
    return params, schedule, rows


def guidance_eval(bundle: EncoderBundle, params: DenoiserParams, schedule: DiffusionSchedule,
                  spec: SyntheticSpec, alpha: float = 0.1, n_per_cell: int = 200, seed: int = 0):
    """Matched vs deliberately mismatched oracle accuracy per condition cell."""
    mixture = build_mixture(spec)
    rows = []
    for i in range(spec.n_styles):
        for j in range(spec.n_categories):
            cond = condition_for_caption(spec.caption(i, j), bundle, alpha)
            pts = sample(n_per_cell, cond, schedule, params, seed=seed + i * spec.n_categories + j)
            s_hat, c_hat = oracle_classify_batch(pts, mixture)
            matched = float(((s_hat == i) & (c_hat == j)).mean())
            mi, mj = (i + 1) % spec.n_styles, (j + 1) % spec.n_categories
            mismatched = float(((s_hat == mi) & (c_hat == mj)).mean())
            rows.append({
                "style": spec.style_names[i],
                "category": spec.category_names[j],
                "matched_accuracy": matched,
                "mismatched_style": spec.style_names[mi],
                "mismatched_category": spec.category_names[mj],
                "mismatched_accuracy": mismatched,
            })
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


# Config keys of the removed contrastive backbone warm-up, still present in
# checkpoints written before its removal.
RETIRED_CONFIG_KEYS = ("pretrain_contrastive", "contrastive_steps", "contrastive_temperature")


def load_encoder_checkpoint(path):
    """Rebuild (bundle, config, spec, denoiser-or-None) from a checkpoint."""
    arrays, meta = load_checkpoint(path)
    stored = dict(meta["config"])
    if stored.get("pretrain_contrastive"):
        raise CheckpointError(f"{path}: trained on a contrastively warmed-up backbone, which the "
                              "checkpoint does not hold; retrain without the warm-up")
    config = TrainConfig.from_dict({k: v for k, v in stored.items() if k not in RETIRED_CONFIG_KEYS})
    spec = SyntheticSpec.from_json(meta["dataset_spec"])
    groups: dict[str, dict] = {"style_adapter": {}, "category_adapter": {}}
    for name, arr in arrays.items():
        prefix, _, short = name.partition(".")
        groups.setdefault(prefix, {})[short] = arr
    unknown = sorted(set(groups) - {"style_adapter", "category_adapter", "denoiser"})
    if unknown:
        raise CheckpointError(f"{path}: unknown array groups {unknown}")

    def rebuild(cls, prefix):
        try:
            return cls.from_arrays(groups[prefix])
        except CheckpointError as e:
            raise CheckpointError(f"{path}: {prefix}: {e}") from e

    bundle = EncoderBundle(
        build_backbone(spec, config),
        rebuild(AdapterParams, "style_adapter"),
        rebuild(AdapterParams, "category_adapter"),
        spec.style_names,
        spec.category_names,
        alpha=config.generation_alpha,
    )
    denoiser = rebuild(DenoiserParams, "denoiser") if "denoiser" in groups else None
    return bundle, config, spec, denoiser


# ---------------------------------------------------------------------------
# finite-difference audit

def _ad_grads(loss_fn, params):
    """Reverse-mode gradients of loss_fn() w.r.t. each tensor in params."""
    for p in params:
        p.zero_grad()
    backward(loss_fn())
    return [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]


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


def _kink_margin_adapter(features: np.ndarray, p: AdapterParams) -> float:
    pre = features @ p.w1.data + p.b1.data
    return float(np.abs(pre).min())


_KINDS = ("style", "category")
_OTHER = {"style": "category", "category": "style"}


class _AuditWorld:
    """One random miniature configuration for the gradient audit.

    Rejection-samples until no ReLU pre-activation or hinge argument sits
    near its kink, so central differences stay valid. Adapters, prototypes
    and labels are keyed by kind, "style" or "category".
    """

    DIM = 8
    HIDDEN = 3
    K = 3
    BATCH = 4
    LAMBDA = {"style": 0.2, "category": 0.3}

    def __init__(self, seed: int):
        attempt = 0
        while True:
            rng = np.random.default_rng([seed, attempt, 101])
            self.adapter = {kind: _random_adapter(rng, self.DIM, self.HIDDEN) for kind in _KINDS}
            self.f_i = _unit_rows(rng, self.BATCH, self.DIM)
            self.protos = {kind: _unit_rows(rng, self.K, self.DIM) for kind in _KINDS}
            self.labels = {kind: rng.integers(0, self.K, self.BATCH) for kind in _KINDS}
            self.margin = 0.3
            if self._clean():
                break
            attempt += 1

    def _clean(self, threshold: float = 1e-3) -> bool:
        feats = np.concatenate([self.f_i, *self.protos.values()])
        if any(_kink_margin_adapter(feats, p) < threshold for p in self.adapter.values()):
            return False
        with no_grad():
            f = {kind: self._adapt(Tensor(self.f_i), p).data for kind, p in self.adapter.items()}
        for kind in _KINDS:
            d_pos = np.linalg.norm(f[kind] - self.f_i, axis=1)
            d_neg = np.linalg.norm(f[kind] - f[_OTHER[kind]], axis=1)
            if np.abs(d_pos - d_neg + self.margin).min() < threshold:
                return False
        return True

    @staticmethod
    def _adapt(f: Tensor, p: AdapterParams) -> Tensor:
        return T.normalize(T.add(f, adapter_forward(f, p)))

    # loss closures of the ``kind`` adapter; each reads the live adapter tensors

    def ce(self, kind: str):
        protos = self._adapt(Tensor(self.protos[kind]), self.adapter[kind])
        return ce_loss(class_logits(Tensor(self.f_i), protos, 10.0), self.labels[kind])

    def confusion(self, kind: str):
        other = _OTHER[kind]
        protos = self._adapt(Tensor(self.protos[other]), self.adapter[kind])
        return confusion_loss(class_logits(Tensor(self.f_i), protos, 10.0), self.labels[other], "uniform-kl")

    def labeled(self, kind: str):
        return T.add(self.ce(kind), T.scale(self.confusion(kind), self.LAMBDA[kind]))

    def triplet(self, kind: str):
        anchor = self._adapt(Tensor(self.f_i), self.adapter[kind])
        with no_grad():
            negative = self._adapt(Tensor(self.f_i), self.adapter[_OTHER[kind]])
        loss = style_triplet_loss if kind == "style" else category_triplet_loss
        return loss(anchor, Tensor(self.f_i), negative, self.margin)


def _adapter_world(seed: int, kind: str, part: str):
    world = _AuditWorld(seed)
    return partial(getattr(world, part), kind), world.adapter[kind].tensors()


def _attention_world(seed: int):
    rng = np.random.default_rng([seed, 102])
    dim = 8
    params = DenoiserParams.init(dim=dim, steps=6, seed=seed + 7, n_cond_tokens=2)
    z = Tensor(rng.standard_normal((3, dim)))
    cond = GuidanceCondition(tau_style=_unit_rows(rng, 1, dim), tau_category=_unit_rows(rng, 1, dim))

    def loss_fn():
        out = split_cross_attention(z, cond, params)
        return T.tensor_sum(T.mul(out, out))

    check = [params.wq, params.wk, params.wv, params.wo, params.cond_offsets]
    return loss_fn, check


def _denoiser_world(seed: int, groups: int = 1, n_cond_tokens: int = 1, rows: int = 4):
    """Full denoiser loss; with ``groups`` > 1, rows of every group share one block-masked forward."""
    rng = np.random.default_rng([seed, 103])
    dim = 8
    steps = 6
    params = DenoiserParams.init(dim=dim, steps=steps, seed=seed + 13, n_cond_tokens=n_cond_tokens)
    # randomize biases so every parameter has signal
    params.mlp_b1.data = 0.3 * rng.standard_normal(dim)
    params.in_b.data = 0.3 * rng.standard_normal(dim)
    z_t = rng.standard_normal((rows, 2))
    t_idx = rng.integers(0, steps, rows)
    eps = rng.standard_normal((rows, 2))
    conds = [GuidanceCondition(tau_style=_unit_rows(rng, 1, dim), tau_category=_unit_rows(rng, 1, dim))
             for _ in range(groups)]
    cond_idx = rng.permutation(np.arange(rows) % groups)

    def loss_fn():
        return noise_regression_loss(predict_noise(params, z_t, t_idx, conds, cond_idx), eps)

    # keep clear of the MLP ReLU kink
    with no_grad():
        h = np.atleast_2d(z_t) @ params.in_w.data + params.in_b.data + params.time_embed.data[t_idx]
        a = split_cross_attention(Tensor(h), conds, params, cond_idx).data
        pre = a @ params.mlp_w1.data + params.mlp_b1.data
    if np.abs(pre).min() < 1e-3:
        return _denoiser_world(seed + 1000, groups, n_cond_tokens, rows)
    return loss_fn, params.tensors()


def gradcheck_suite(n_seeds: int = 20, tol: float = 1e-4, eps: float = 1e-5):
    """Check every loss and the attention block against central differences.

    Returns a list of (component, worst_relative_error, passed) triples.
    """
    parts = [(kind, part) for kind in _KINDS for part in ("ce", "confusion", "labeled")]
    parts += [(kind, "triplet") for kind in _KINDS]
    components = [(f"{kind}-{part}", partial(_adapter_world, kind=kind, part=part)) for kind, part in parts]
    components += [("cross-attention", _attention_world), ("denoiser-step", _denoiser_world),
                   ("denoiser-grouped", partial(_denoiser_world, groups=3, n_cond_tokens=2, rows=6))]
    results = []
    for name, world_fn in components:
        worst = 0.0
        for seed in range(n_seeds):
            loss_fn, params = world_fn(seed)
            ad = _ad_grads(loss_fn, params)
            for p, g in zip(params, ad):
                fd = finite_diff_grad(lambda _: loss_fn(), p, eps=eps).data
                worst = max(worst, relative_error(g, fd))
        results.append((name, worst, worst < tol))
    return results
