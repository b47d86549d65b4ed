"""Command-line entry point.

Exit codes: 0 success, 1 validation/config error, 2 numerical failure
(non-finite loss or a failed gradient audit).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from .captions import CategoryLexicon, LexiconError, batch_decompose
from .checkpoint import CheckpointError
from .datagen import DatasetError, SyntheticSpec, load, read_spec, write_dataset_dir
from .diffusion import condition_for_caption, oracle_classify_batch, sample as ddpm_sample
from .diffusion import DiffusionSchedule
from .datagen import build_mixture
from .losses import ConfigError
from .train import (
    ALPHA_GRID,
    LAMBDA_GRID,
    NumericalError,
    TrainConfig,
    _metrics_row,
    alpha_sweep,
    apply_seed_env,
    evaluate_classification,
    gradcheck_suite,
    guidance_eval,
    lambda_sweep,
    load_encoder_checkpoint,
    save_encoder_checkpoint,
    train_diffusion,
    train_encoders,
    write_metrics_csv,
)

VALIDATION_ERRORS = (ConfigError, DatasetError, LexiconError, CheckpointError, ValueError, FileNotFoundError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; keep 2 for numerics only
        self.print_usage(sys.stderr)
        raise ConfigError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="stylecat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate the synthetic datasets")
    p.add_argument("--out", required=True)
    p.add_argument("--styles", type=int, default=3)
    p.add_argument("--categories", type=int, default=4)
    p.add_argument("--train-per-cell", type=int, default=64)
    p.add_argument("--test-per-cell", type=int, default=32)
    p.add_argument("--noise", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("decompose", help="split captions into style/category text")
    p.add_argument("--captions", required=True)
    p.add_argument("--lexicon", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("train-encoders", help="train the two adapters")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--metrics")
    p.add_argument("--mode", choices=["labeled", "unlabeled"])
    p.add_argument("--epochs", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--shots", type=int)
    p.add_argument("--lambda1", type=float)
    p.add_argument("--lambda2", type=float)
    p.add_argument("--margin1", type=float)
    p.add_argument("--margin2", type=float)
    p.add_argument("--adversarial-mode", choices=["uniform-kl", "negated-ce"])
    p.add_argument("--logit-scale", type=float)

    p = sub.add_parser("eval-classify", help="blended-prototype classification accuracy")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--alpha-style", type=float)
    p.add_argument("--alpha-category", type=float)
    p.add_argument("--out")

    p = sub.add_parser("sweep", help="alpha or lambda ablation grid")
    p.add_argument("--axis", choices=["alpha", "lambda"], required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--checkpoint", help="required for the alpha axis")
    p.add_argument("--config")
    p.add_argument("--grid", help="comma-separated values overriding the default grid")
    p.add_argument("--seed", type=int)

    p = sub.add_parser("train-diffusion", help="train the conditional denoiser")
    p.add_argument("--data", required=True)
    p.add_argument("--encoders", required=True, help="encoder checkpoint to condition on")
    p.add_argument("--out", required=True)
    p.add_argument("--metrics")
    p.add_argument("--steps", type=int)
    p.add_argument("--batch-size", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--timesteps", type=int)

    p = sub.add_parser("sample", help="draw conditioned samples from a trained model")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--style", required=True)
    p.add_argument("--category", required=True)
    p.add_argument("-n", "--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha", type=float)
    p.add_argument("--out", required=True)

    p = sub.add_parser("guidance-eval", help="matched vs mismatched oracle accuracy")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--n-per-cell", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha", type=float)

    p = sub.add_parser("gradcheck", help="finite-difference audit of all gradients")
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--tol", type=float, default=1e-4)

    return parser


def _load_config(args, **overrides) -> TrainConfig:
    config = TrainConfig.from_file(args.config) if getattr(args, "config", None) else TrainConfig()
    config = config.override(**{k: v for k, v in overrides.items() if v is not None})
    return apply_seed_env(config)


def _load_dataset_dir(data_dir):
    spec = read_spec(data_dir)
    root = Path(data_dir)
    train = load(root / "clf_train.jsonl")
    test = load(root / "clf_test.jsonl")
    points = load(root / "diff_train.jsonl")
    lexicon = CategoryLexicon.from_file(root / "lexicon.txt")
    return spec, train, test, points, lexicon


def _cmd_gen_data(args) -> int:
    spec = SyntheticSpec(
        n_styles=args.styles,
        n_categories=args.categories,
        style_names=_default_names(args.styles, "style"),
        category_names=_default_names(args.categories, "category"),
        n_train=args.train_per_cell,
        n_test=args.test_per_cell,
        noise=args.noise,
        seed=args.seed,
    )
    counts = write_dataset_dir(spec, args.out)
    print(f"wrote {counts['train']} train / {counts['test']} test grids, "
          f"{counts['points']} points, {counts['lexicon']} lexicon nouns to {args.out}")
    return 0


def _default_names(n: int, kind: str):
    banks = {
        "style": ("sketch", "neon", "pastel", "mosaic", "chalk", "glitch", "inkwash", "vapor"),
        "category": ("cat", "dog", "car", "tree", "boat", "bird", "lamp", "kite"),
    }
    bank = banks[kind]
    if n <= len(bank):
        return bank[:n]
    return bank + tuple(f"{kind}{i}" for i in range(len(bank), n))


def _cmd_decompose(args) -> int:
    lexicon = CategoryLexicon.from_file(args.lexicon)
    n = batch_decompose(args.captions, lexicon, args.out)
    print(f"decomposed {n} captions into {args.out}")
    return 0


def _cmd_train_encoders(args) -> int:
    config = _load_config(
        args,
        mode=args.mode, epochs=args.epochs, batch_size=args.batch_size, lr=args.lr,
        seed=args.seed, shots=args.shots, lambda1=args.lambda1, lambda2=args.lambda2,
        margin1=args.margin1, margin2=args.margin2, adversarial_mode=args.adversarial_mode,
        logit_scale=args.logit_scale,
    )
    spec, train, test, _, lexicon = _load_dataset_dir(args.data)
    started = time.perf_counter()
    bundle, rows = train_encoders(config, spec, train, lexicon=lexicon)
    s_top1, c_top1 = evaluate_classification(bundle, test, config.alpha_style,
                                             config.alpha_category, config.logit_scale)
    rows.append(_metrics_row(config.epochs, "test", s_top1, c_top1, "", "", config))
    save_encoder_checkpoint(args.out, bundle, config, spec)
    if args.metrics:
        write_metrics_csv(rows, args.metrics)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    print(f"trained {config.mode} encoders in {elapsed_ms:.0f} ms; "
          f"test style_top1={s_top1:.4f} category_top1={c_top1:.4f}; saved {args.out}")
    return 0


def _cmd_eval_classify(args) -> int:
    bundle, config, spec, _ = load_encoder_checkpoint(args.checkpoint)
    alpha_style = config.alpha_style if args.alpha_style is None else args.alpha_style
    alpha_category = config.alpha_category if args.alpha_category is None else args.alpha_category
    _, _, test, _, _ = _load_dataset_dir(args.data)
    s_top1, c_top1 = evaluate_classification(bundle, test, alpha_style, alpha_category, config.logit_scale)
    print(f"style_top1={s_top1:.6f} category_top1={c_top1:.6f} "
          f"(alpha_style={alpha_style}, alpha_category={alpha_category})")
    if args.out:
        row = _metrics_row(config.epochs, "test", s_top1, c_top1, "", "", config,
                           alpha_style=alpha_style, alpha_category=alpha_category)
        write_metrics_csv([row], args.out)
    return 0


def _parse_grid(raw: str | None, default):
    if raw is None:
        return default
    try:
        return tuple(float(v) for v in raw.split(","))
    except ValueError as e:
        raise ConfigError(f"bad grid value: {e}") from e


def _cmd_sweep(args) -> int:
    spec, train, test, _, lexicon = _load_dataset_dir(args.data)
    if args.axis == "alpha":
        if not args.checkpoint:
            raise ConfigError("alpha sweep requires --checkpoint")
        bundle, config, _, _ = load_encoder_checkpoint(args.checkpoint)
        config = apply_seed_env(config.override(seed=args.seed))
        rows = alpha_sweep(bundle, test, config, grid=_parse_grid(args.grid, ALPHA_GRID))
    else:
        config = _load_config(args, seed=args.seed)
        rows = lambda_sweep(config, spec, train, test,
                            grid=_parse_grid(args.grid, LAMBDA_GRID), lexicon=lexicon)
    write_metrics_csv(rows, args.out)
    print(f"wrote {len(rows)} sweep rows to {args.out}")
    return 0


def _cmd_train_diffusion(args) -> int:
    bundle, config, spec, _ = load_encoder_checkpoint(args.encoders)
    config = config.override(
        diffusion_steps=args.steps, diffusion_batch=args.batch_size, lr=args.lr,
        seed=args.seed, generation_alpha=args.alpha, timesteps=args.timesteps,
    )
    config = apply_seed_env(config)
    points = load(Path(args.data) / "diff_train.jsonl")
    started = time.perf_counter()
    params, _, rows = train_diffusion(config, points, bundle)
    save_encoder_checkpoint(args.out, bundle, config, spec, denoiser=params)
    if args.metrics:
        write_metrics_csv(rows, args.metrics, ("step", "loss"))
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    print(f"trained denoiser for {config.diffusion_steps} steps in {elapsed_ms:.0f} ms; "
          f"final loss {rows[-1]['loss']:.4f}; saved {args.out}")
    return 0


def _cmd_sample(args) -> int:
    bundle, config, spec, denoiser = load_encoder_checkpoint(args.checkpoint)
    if denoiser is None:
        raise ConfigError("checkpoint has no denoiser parameters; run train-diffusion first")
    if args.style not in spec.style_names or args.category not in spec.category_names:
        raise ConfigError(
            f"unknown style/category; expected one of {spec.style_names} x {spec.category_names}"
        )
    alpha = config.generation_alpha if args.alpha is None else args.alpha
    schedule = DiffusionSchedule.make(config.timesteps)
    caption = spec.caption(spec.style_names.index(args.style), spec.category_names.index(args.category))
    cond = condition_for_caption(caption, bundle, alpha)
    pts = ddpm_sample(args.count, cond, schedule, denoiser, seed=args.seed)
    mixture = build_mixture(spec)
    s_hat, c_hat = oracle_classify_batch(pts, mixture) if len(pts) else (np.array([], dtype=int),) * 2
    rows = [
        {
            "x": float(p[0]),
            "y": float(p[1]),
            "style_prompt": args.style,
            "category_prompt": args.category,
            "oracle_style": spec.style_names[s_hat[i]],
            "oracle_category": spec.category_names[c_hat[i]],
        }
        for i, p in enumerate(pts)
    ]
    write_metrics_csv(rows, args.out, ("x", "y", "style_prompt", "category_prompt", "oracle_style", "oracle_category"))
    print(f"wrote {len(rows)} samples to {args.out}")
    return 0


def _cmd_guidance_eval(args) -> int:
    bundle, config, spec, denoiser = load_encoder_checkpoint(args.checkpoint)
    if denoiser is None:
        raise ConfigError("checkpoint has no denoiser parameters; run train-diffusion first")
    alpha = config.generation_alpha if args.alpha is None else args.alpha
    schedule = DiffusionSchedule.make(config.timesteps)
    rows = guidance_eval(bundle, denoiser, schedule, spec, alpha=alpha,
                         n_per_cell=args.n_per_cell, seed=args.seed)
    write_metrics_csv(rows, args.out, ("style", "category", "matched_accuracy",
                                       "mismatched_style", "mismatched_category", "mismatched_accuracy"))
    matched = float(np.mean([r["matched_accuracy"] for r in rows]))
    mismatched = float(np.mean([r["mismatched_accuracy"] for r in rows]))
    print(f"matched accuracy {matched:.4f}, mismatched accuracy {mismatched:.4f} "
          f"over {len(rows)} condition cells")
    return 0


def _cmd_gradcheck(args) -> int:
    results = gradcheck_suite(n_seeds=args.seeds, tol=args.tol)
    failed = False
    for name, worst, ok in results:
        print(f"{name:20s} worst_rel_err={worst:.3e} {'ok' if ok else 'FAIL'}")
        failed |= not ok
    if failed:
        raise NumericalError("gradient audit failed")
    print(f"all {len(results)} components within tolerance {args.tol}")
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "decompose": _cmd_decompose,
    "train-encoders": _cmd_train_encoders,
    "eval-classify": _cmd_eval_classify,
    "sweep": _cmd_sweep,
    "train-diffusion": _cmd_train_diffusion,
    "sample": _cmd_sample,
    "guidance-eval": _cmd_guidance_eval,
    "gradcheck": _cmd_gradcheck,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 2
    except VALIDATION_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
