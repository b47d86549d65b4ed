"""End-to-end orchestration: config, optimizer, training loops, evaluation,
ablation sweeps, checkpoint assembly, and the finite-difference audit."""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import tensor as T
from .backbone import FrozenWeights, Vocab, embed_captions, embed_image
from .captions import CategoryLexicon, decompose
from .checkpoint import CheckpointError, check_types, from_fields, load_checkpoint, read_object, save_checkpoint
from .datagen import DatasetError, SyntheticSpec, build_mixture, prototype_grids
from .diffusion import (
    DenoiserParams,
    DiffusionSchedule,
    GuidanceCondition,
    _TrainBuffers,
    condition_for_caption,
    ddpm_train_step,
    oracle_classify_batch,
    sample,
)
from .encoders import _KINDS, PROMPT_TEMPLATES, AdapterParams, EncoderBundle, adapt_array, blend
from .losses import (
    ADVERSARIAL_MODES,
    ConfigError,
    _LabeledRun,
    _TripletRun,
    _labeled_forward,
    _triplet_forward,
    style_labeled_loss,
    style_triplet_loss,
)
from .tensor import Tensor, finite_diff_grad, relative_error

SEED_ENV_VAR = "CCLIP_SEED"

# The TrainConfig fields that take one of a few values: the training mode (by class labels, or by decomposed
# captions) and the form of the adversarial confusion term.
CHOICES = {"mode": ("labeled", "unlabeled"), "adversarial_mode": ADVERSARIAL_MODES}

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
        check_types(self, ConfigError)  # types first: the range checks below compare numbers
        for name, choices in CHOICES.items():
            if (v := getattr(self, name)) not in choices:
                raise ConfigError(f"{name} must be {' or '.join(map(repr, choices))}, got {v!r}")
        if self.epochs < 0 or self.batch_size < 1:
            raise ConfigError("epochs must be >= 0 and batch_size >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
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
        if self.logit_scale <= 0:
            raise ConfigError("logit_scale must be > 0")

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, obj: dict) -> "TrainConfig":
        return from_fields(cls, obj, "config", ConfigError)

    @classmethod
    def from_file(cls, path) -> "TrainConfig":
        """The config in the JSON file ``path``; ConfigError naming it for anything that ``checkpoint.read_object``
        (not UTF-8 JSON, not an object, a repeated key) or ``from_dict`` (an unknown key, a bad value) refuses."""
        obj = read_object(Path(path).read_bytes(), f"config {path}", ConfigError)
        try:
            return cls.from_dict(obj)
        except ConfigError as e:
            raise ConfigError(f"config {path}: {e}") from e


def apply_seed_env(config: TrainConfig, env=os.environ) -> TrainConfig:
    """CCLIP_SEED, when set, overrides every other seed source."""
    raw = env.get(SEED_ENV_VAR)
    if raw is None:
        return config
    try:
        seed = int(raw)
    except ValueError as e:
        raise ConfigError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from e
    return replace(config, seed=seed)


class Adam:
    """Standard bias-corrected Adam over one ``ParamGroup``.

    ``step`` reads the group's ``flat_grad`` and updates ``m``, ``v`` and
    the group's ``flat`` values in place, elementwise over the whole
    buffers. It leaves ``flat_grad`` as it is, so the gradients stay
    readable after the step. A tensor that the loss does not reach has a
    zero gradient and is updated with g = 0. From t = 356 the bias
    correction ``1 - BETA1**t`` is exactly 1.0, so the step skips ``m / 1.0``.
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
        if bc1 == 1.0:
            np.multiply(m, self.lr, out=update)
        else:
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
    """A bundle with new adapters, seeded ``config.seed`` (style) and ``config.seed + 1`` (category)."""
    backbone = backbone if backbone is not None else build_backbone(spec, config)
    return EncoderBundle(backbone, AdapterParams.init(backbone.dim, seed=config.seed),
                         AdapterParams.init(backbone.dim, seed=config.seed + 1),
                         spec.style_names, spec.category_names)


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
    if not math.isfinite(value):
        raise NumericalError(f"non-finite loss in {context}: {value}")
    return value


def train_encoders(config: TrainConfig, spec: SyntheticSpec, train_samples,
                   lexicon: CategoryLexicon | None = None):
    """Train both adapters; returns (bundle, metrics_rows).

    The run's one ``_LabeledRun`` (labeled mode) or ``_TripletRun`` (over
    captions decomposed with ``spec.lexicon``, of its category names, as
    generation decomposes them, each distinct caption once) holds the bundle and
    the checked constants, and selects each batch. A batch is one step of both
    adapters, in either mode: its objective on the run, which leaves both
    adapters' gradients in the ``flat_grad`` of ``bundle.adapters``, and one
    Adam step over that stacked group, as in ``train_diffusion``. In labeled
    mode the two objectives read disjoint parameters, so each adapter gets the
    bits of a step of its own. In unlabeled mode each kind's hinge takes the
    other adapter's feature of the other half caption as its negative, and
    both read the adapters as they stood before the batch: the category
    hinge's negative is the style adapter's output before that batch's style
    update, where a step per kind, style first, read it after.

    ``lexicon``, if given, must be that same lexicon (ConfigError
    otherwise): no other lexicon splits captions.
    """
    if lexicon not in (None, spec.lexicon):
        raise ConfigError(f"captions are split by the spec's category names {sorted(spec.lexicon.words)}, "
                          f"not by the lexicon {sorted(lexicon.words)}")
    data = subsample_shots(train_samples, config.shots)
    if not data:
        raise ConfigError("training set is empty")

    bundle = fresh_bundle(spec, config)
    rng = np.random.default_rng([config.seed, 11])

    # Frozen features are constants of the data: embedded once per run.
    f_all, labels = _features(data, bundle.backbone)
    # The objective is looked up in the module per run, so that a replaced objective is the one each step calls.
    if config.mode == "labeled":
        objective, run = style_labeled_loss, _LabeledRun(f_all, labels, bundle)
    else:
        split = {caption: decompose(caption, spec.lexicon) for caption in dict.fromkeys(s.caption for s in data)}
        pairs = [split[s.caption] for s in data]
        texts = list(dict.fromkeys(text for pair in split.values() for text in pair))
        frozen_text = dict(zip(texts, embed_captions(texts, bundle.backbone)))
        text = np.stack([frozen_text[pair[k]] for k in range(len(_KINDS)) for pair in pairs])
        objective, run = style_triplet_loss, _TripletRun(f_all, text.reshape(len(_KINDS), len(pairs), -1), bundle)
    opt = Adam(bundle.adapters, config.lr)

    rows = []
    for epoch in range(config.epochs):
        order = rng.permutation(len(data))
        losses = {kind: [] for kind in _KINDS}
        for start in range(0, len(data), config.batch_size):
            run.select(order[start : start + config.batch_size])
            objective(run, config)
            opt.step()
            for kind in _KINDS:
                losses[kind].append(_check_finite(run.values[kind], f"{kind} step"))

        top1 = _top1(bundle, f_all, labels, config.alpha_style, config.alpha_category, config.logit_scale)
        rows.append(_metrics_row(epoch, "train", *top1, *(float(np.mean(losses[kind])) for kind in _KINDS), config))
    return bundle, rows


def _metrics_row(epoch, split, style_top1, category_top1, style_loss, category_loss, config: TrainConfig):
    """One ``METRICS_COLUMNS`` row; the last five columns are config fields."""
    values = (epoch, split, style_top1, category_top1, style_loss, category_loss)
    return {**dict(zip(METRICS_COLUMNS, values)), **{k: getattr(config, k) for k in METRICS_COLUMNS[6:]}}


def eval_row(bundle: EncoderBundle, testset, config: TrainConfig) -> dict:
    """The "test" metrics row of ``bundle`` on ``testset``, at the config's alphas and epoch ``config.epochs``."""
    top1 = evaluate_classification(bundle, testset, config.alpha_style, config.alpha_category, config.logit_scale)
    return _metrics_row(config.epochs, "test", *top1, "", "", config)


def write_metrics_csv(rows, path, columns=METRICS_COLUMNS) -> None:
    """Deterministic CSV: fixed column order, repr-formatted floats."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in (row.get(c, "") for c in columns)])


# ---------------------------------------------------------------------------
# sweeps

# Per sweep axis, the config fields that a grid value sets, and the default grid.
SWEEPS = {"alpha": (("alpha_style", "alpha_category"), (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)),
          "lambda": (("lambda1", "lambda2"), (0.0, 0.1, 0.2, 0.3, 0.4, 0.5))}


def sweep(axis: str, grid, config: TrainConfig, testset, bundle: EncoderBundle | None = None,
          spec: SyntheticSpec | None = None, train_samples=None):
    """One "test" row per value of ``grid`` (None: the axis's default), with the axis's fields set to it.

    The alpha axis evaluates the trained ``bundle``; the lambda axis retrains
    on ``spec`` and ``train_samples`` at the config's seed, splitting the
    captions by ``spec``'s category names as ``train_encoders`` does.
    """
    names, default = SWEEPS[axis]
    rows = []
    for value in default if grid is None else grid:
        cfg = replace(config, **dict.fromkeys(names, value))
        trained = bundle if axis == "alpha" else train_encoders(cfg, spec, train_samples)[0]
        rows.append(eval_row(trained, testset, cfg))
    return rows


# ---------------------------------------------------------------------------
# diffusion training and guided-generation evaluation

def train_diffusion(config: TrainConfig, points, bundle: EncoderBundle):
    """Train the denoiser on captioned points; returns (params, schedule, rows).

    Each caption's condition is built once, before the first step, and
    stacked into one ``GuidanceCondition`` with a row per caption. The
    run's ``_TrainBuffers``, built once from it, the denoiser, the schedule
    and the points with their captions' rows, checks the points once
    (``DatasetError`` naming the first that is not finite) and is every
    step's workspace. Each step is one ``ddpm_train_step``, which draws its
    batch and leaves its gradients in ``flat_grad``, and one
    ``Adam.step``. A row, every 100 steps and at the
    last, holds the step, its loss and ``grad_norm``, the L2 norm of that
    step's ``flat_grad``. Whenever a row is logged, every parameter must
    still be finite: a NaN parameter stays NaN under Adam, so one check per
    row suffices.
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
    buffers = _TrainBuffers(schedule, params, conditions, [[p.x, p.y] for p in points],
                            [caption_idx[p.caption] for p in points], min(config.diffusion_batch, len(points)))
    rows = []
    for step in range(config.diffusion_steps):
        loss = ddpm_train_step(buffers, rng)
        opt.step()
        _check_finite(loss, f"diffusion step {step}")
        if step % 100 == 0 or step == config.diffusion_steps - 1:
            bad = [name for name, arr in params.arrays().items() if not np.isfinite(arr).all()]
            if bad:
                raise NumericalError(f"non-finite denoiser parameters {bad} at diffusion step {step}")
            rows.append({"step": step, "loss": loss, "grad_norm": float(np.linalg.norm(params.flat_grad))})
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

def _groups(bundle: EncoderBundle, denoiser: DenoiserParams | None = None) -> dict[str, T.ParamGroup]:
    """A checkpoint's parameter groups by array-name prefix: the adapters, style first, then any denoiser."""
    groups = {f"{kind}_adapter": bundle.adapter(kind) for kind in _KINDS}
    return groups if denoiser is None else {**groups, "denoiser": denoiser}


def bundle_arrays(bundle: EncoderBundle, denoiser: DenoiserParams | None = None) -> dict:
    """The arrays of ``_groups(bundle, denoiser)``, each named ``<prefix>.<field>``."""
    return {f"{prefix}.{name}": arr
            for prefix, group in _groups(bundle, denoiser).items() for name, arr in group.arrays().items()}


def save_encoder_checkpoint(path, bundle: EncoderBundle, config: TrainConfig, spec: SyntheticSpec,
                            denoiser: DenoiserParams | None = None) -> None:
    meta = {"kind": "encoders" if denoiser is None else "diffusion",
            "config": config.to_json(), "dataset_spec": spec.to_json()}
    save_checkpoint(path, bundle_arrays(bundle, denoiser), meta)


def load_encoder_checkpoint(path):
    """(bundle, config, spec, denoiser-or-None) of a checkpoint, its models built as training builds them, by
    ``fresh_bundle`` and, for a stored denoiser, ``DenoiserParams.init``; ``ParamGroup.load`` then writes the
    stored arrays into them. Every refusal is a CheckpointError naming the file."""
    arrays, meta = load_checkpoint(path)
    prefixes = {name.partition(".")[0] for name in arrays}
    try:
        config, spec = TrainConfig.from_dict(meta.get("config")), SyntheticSpec.from_json(meta.get("dataset_spec"))
        bundle = fresh_bundle(spec, config)
        denoiser = DenoiserParams.init(config.dim, config.timesteps, config.seed) if "denoiser" in prefixes else None
    except (TypeError, ValueError) as e:
        raise CheckpointError(f"{path}: bad config or dataset spec: {e}") from e
    groups = _groups(bundle, denoiser)
    if unknown := sorted(prefixes - set(groups)):
        raise CheckpointError(f"{path}: unknown array groups {unknown}")
    for prefix, group in groups.items():
        try:
            group.load({short: arr for name, arr in arrays.items()
                        for p, _, short in [name.partition(".")] if p == prefix})
        except ValueError as e:
            raise CheckpointError(f"{path}: {prefix}: {e}") from e
    return bundle, config, spec, denoiser


# ---------------------------------------------------------------------------
# finite-difference audit

def _ad_grads(step, params):
    """Copies of the gradients of each tensor in params that one training step, step(), leaves in its ``grad``."""
    step()
    return [p.grad.copy() for p in params]


def _forward_value(forward, run, cfg, kind: str | None = None) -> float:
    """What an audit differences: the ``kind`` value of ``forward(run, cfg)``, the step's forward without
    its backward, or with no kind the sum of both, as the step returns it."""
    values = forward(run, cfg)[0]
    return float(values[0] + values[1] if kind is None else values[_KINDS.index(kind)])


def _random_adapter(rng, dim: int, hidden: int) -> AdapterParams:
    return AdapterParams(
        w1=Tensor(0.5 * rng.standard_normal((dim, hidden)), requires_grad=True),
        b1=Tensor(0.1 * rng.standard_normal(hidden), requires_grad=True),
        w2=Tensor(0.5 * rng.standard_normal((hidden, dim)), requires_grad=True),
        b2=Tensor(0.1 * rng.standard_normal(dim), requires_grad=True),
    )


# The triplet audits' config: ``_AuditWorld`` keeps its hinge arguments clear of the kink at its margins.
TRIPLET_AUDIT = TrainConfig()


class _AuditWorld(EncoderBundle):
    """One random miniature encoder bundle for the gradient audit, and the runs its objectives take.

    Rejection-samples until no ReLU pre-activation or hinge argument sits
    near its kink, so central differences stay valid, and until each kind's
    hinge has an active row that carries a gradient, so its audit checks a
    nonzero one. The prompt features are random unit rows and there is no
    backbone. ``run`` is the labeled run of the image rows ``f_i``;
    ``triplet_run`` has ``f_i`` as both kinds' text rows and ``positive``,
    which both kinds share, as its image rows. Row 0 of the positive is the
    style anchor's row 0 and row 1 the category anchor's row 1, so each kind
    meets the zero distance, whose gradient is taken to be zero. At the
    other of those two rows a kind's positive is its negative: its hinge
    argument is its margin, and its gradient zero.
    """

    DIM = 8
    HIDDEN = 3
    K = 3
    BATCH = 4

    def __init__(self, seed: int):
        attempt = 0
        while True:
            rng = np.random.default_rng([seed, attempt, 101])
            self.style_adapter, self.category_adapter = (_random_adapter(rng, self.DIM, self.HIDDEN)
                                                         for _ in _KINDS)
            self.adapters = AdapterParams.stack(self.style_adapter, self.category_adapter)
            self.f_i = T._unit_rows(rng.standard_normal((self.BATCH, self.DIM)))[0]
            self.prompt_features = {kind: T._unit_rows(rng.standard_normal((self.K, self.DIM)))[0]
                                    for kind in _KINDS}
            self.labels = {kind: rng.integers(0, self.K, self.BATCH) for kind in _KINDS}
            self.text = np.stack([self.f_i, self.f_i])
            self.adapted = adapt_array(self.text, self.adapters)[0]  # the triplet step's (2, BATCH, DIM) pass
            self.positive = np.concatenate([self.adapted[0, :1], self.adapted[1, 1:2], self.f_i[2:]])
            if self._clean():
                break
            attempt += 1
        self.run = _LabeledRun(self.f_i, self.labels, self)  # as train_encoders passes it, built once
        self.triplet_run = _TripletRun(self.positive, self.text, self)

    def _clean(self, threshold: float = 1e-3) -> bool:
        feats = np.concatenate([self.f_i, *self.prompt_features.values()])
        for kind in _KINDS:
            p = self.adapter(kind)
            if np.abs(feats @ p.w1.data + p.b1.data).min() < threshold:
                return False
        f = self.adapted
        pre = (np.linalg.norm(f - self.positive, axis=-1) - np.linalg.norm(f - f[::-1], axis=-1)
               + np.array([[TRIPLET_AUDIT.margin1], [TRIPLET_AUDIT.margin2]]))
        carries = pre > 0
        carries[0, 1] = carries[1, 0] = False  # positive on the negative: an active row without a gradient
        return np.abs(pre).min() >= threshold and carries.any(axis=1).all()


# The labeled configurations that training steps, by audit component: both adversarial modes at the
# default lambdas, and lambda = 0.
LABELED_AUDITS = {name: TrainConfig(logit_scale=10.0, **overrides) for name, overrides in (
    ("labeled", {}), ("labeled-negated-ce", {"adversarial_mode": "negated-ce"}),
    ("labeled-lambda0", {"lambda1": 0.0, "lambda2": 0.0}))}


def _denoiser_train_world(seed: int):
    """``ddpm_train_step`` through a workspace, its loss and gradients; each call re-seeds the step's draws.

    Every evaluation draws the same batch, timesteps and noise, so the loss
    is a function of the parameters alone. Each batch draws six rows over
    three conditions, so the condition scatter meets a collision on every seed.
    """
    rng = np.random.default_rng([seed, 107])
    dim, steps, rows, groups = 8, 6, 6, 3
    params = DenoiserParams.init(dim=dim, steps=steps, seed=seed + 17)
    params.mlp_b1.data[:] = 0.3 * rng.standard_normal(dim)
    params.in_b.data[:] = 0.3 * rng.standard_normal(dim)
    schedule = DiffusionSchedule.make(steps)
    points = rng.standard_normal((rows, 2))
    cond = GuidanceCondition.stack([GuidanceCondition(*T._unit_rows(rng.standard_normal((2, 1, dim)))[0])
                                    for _ in range(groups)])
    cond_idx = rng.permutation(np.arange(rows) % groups)
    buffers = _TrainBuffers(schedule, params, cond, points, cond_idx, rows)

    def loss_fn():
        return ddpm_train_step(buffers, np.random.default_rng([seed, 109]))

    loss_fn()
    # keep clear of the MLP ReLU kink
    if np.abs(buffers.a @ params.mlp_w1.data + params.mlp_b1.data).min() < 1e-3:
        return _denoiser_train_world(seed + 1000)
    return loss_fn, params.tensors()


def gradcheck_suite(n_seeds: int = 20, tol: float = 1e-4, eps: float = 1e-5):
    """Check the objectives that training steps, and the denoiser's, against central differences.

    Each check compares the gradients that one training step writes with the
    central differences of that step's forward (``_forward_value``), which
    computes the values alone. The stacked labeled step under each
    ``LABELED_AUDITS`` config (both adversarial modes, and lambda = 0) is
    audited at each adapter's half of its gradient (``style-labeled``,
    ``category-labeled``, ...), differencing the sum of both kinds' values, as
    the step returns it: the adapters share no parameter, so the differences
    at one half are those of that kind's own. Then the stacked triplet step
    under ``TRIPLET_AUDIT``, at each adapter's half (``style-triplet``,
    ``category-triplet``), differencing that kind's hinge alone: through the
    other hinge's negative, which the step holds constant, the sum reaches
    the parameters too. All run on one ``_AuditWorld`` per seed. The denoiser
    is audited once, through the gradients that ``ddpm_train_step`` writes
    (``denoiser-train-step``), differencing the loss that step returns: the
    layered forward has one input form, n timesteps and n condition indices,
    so that step runs all of its forward and backward. Returns a list of
    (component, worst_relative_error, passed) triples. ConfigError unless
    ``n_seeds`` >= 1 and ``tol`` is a positive finite number.
    """
    if n_seeds < 1 or not (math.isfinite(tol) and tol > 0):
        raise ConfigError(f"gradcheck needs n_seeds >= 1 and a positive finite tol, got {n_seeds} and {tol}")
    worst = {}
    for seed in range(n_seeds):
        world = _AuditWorld(seed)
        checks = [(f"{kind}-{name}", partial(style_labeled_loss, world.run, cfg),
                   partial(_forward_value, _labeled_forward, world.run, cfg), world.adapter(kind).tensors())
                  for kind in _KINDS for name, cfg in LABELED_AUDITS.items()]
        checks += [(f"{kind}-triplet", partial(style_triplet_loss, world.triplet_run, TRIPLET_AUDIT),
                    partial(_forward_value, _triplet_forward, world.triplet_run, TRIPLET_AUDIT, kind),
                    world.adapter(kind).tensors()) for kind in _KINDS]
        step, params = _denoiser_train_world(seed)
        checks.append(("denoiser-train-step", step, step, params))
        for name, step, value, params in checks:
            ad = _ad_grads(step, params)
            for p, g in zip(params, ad):
                fd = finite_diff_grad(lambda _: value(), p, eps=eps)
                error = float(np.nan_to_num(relative_error(g, fd), nan=np.inf))  # NaN fails
                worst[name] = max(worst.get(name, 0.0), error)
    return [(name, w, w < tol) for name, w in worst.items()]
