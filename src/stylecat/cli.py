"""Command-line entry point.

Exit codes: 0 success, 1 validation/config error, 2 numerical failure
(non-finite loss or a failed gradient audit).
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .captions import CategoryLexicon, LexiconError, batch_decompose, split_caption
from .checkpoint import CheckpointError
from .datagen import DatasetError, SyntheticSpec, build_mixture, load, read_spec, write_dataset_dir
from .diffusion import DiffusionSchedule, condition_for_caption, oracle_classify_batch, sample as ddpm_sample
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
    p.add_argument("--steps", type=int, dest="diffusion_steps")
    p.add_argument("--batch-size", type=int, dest="diffusion_batch")
    p.add_argument("--lr", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--alpha", type=float, dest="generation_alpha")
    p.add_argument("--timesteps", type=int)

    p = sub.add_parser("sample", help="draw conditioned samples from a trained model")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--style", required=True)
    p.add_argument("--category", required=True)
    p.add_argument("-n", "--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0, dest="sample_seed", help="sampling seed")
    p.add_argument("--alpha", type=float, dest="generation_alpha")
    p.add_argument("--out", required=True)

    p = sub.add_parser("guidance-eval", help="oracle accuracy of every (style, category) cell's samples")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--n-per-cell", type=int, default=200)
    p.add_argument("--seed", type=int, default=0, dest="sample_seed", help="sampling seed")
    p.add_argument("--alpha", type=float, dest="generation_alpha")

    p = sub.add_parser("gradcheck", help="finite-difference audit of all gradients")
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--tol", type=float, default=1e-4)

    return parser


def _load_config(args, config: TrainConfig | None = None) -> TrainConfig:
    """``config`` (else ``--config``, else the defaults) overridden by every flag whose dest
    names a TrainConfig field, then by CCLIP_SEED."""
    if config is None:
        config = TrainConfig.from_file(args.config) if getattr(args, "config", None) else TrainConfig()
    overrides = {f.name: v for f in fields(TrainConfig) if (v := getattr(args, f.name, None)) is not None}
    return apply_seed_env(replace(config, **overrides))


def _load_dataset_dir(data_dir, mode: str):
    """Spec, classification splits and lexicon of a dataset directory; the lexicon is
    read only for the unlabeled ``mode``, which alone uses it, and is None otherwise.
    LexiconError naming both files if the lexicon does not split every training caption."""
    spec = read_spec(data_dir)
    root = Path(data_dir)
    train = load(root / "clf_train.jsonl", "grid", spec)
    test = load(root / "clf_test.jsonl", "grid", spec)
    if mode != "unlabeled":
        return spec, train, test, None
    lexicon_path = root / "lexicon.txt"
    lexicon = CategoryLexicon.from_file(lexicon_path)
    try:
        for s in train:
            split_caption(s.caption, lexicon)
    except ConfigError as e:
        raise LexiconError(f"lexicon file {lexicon_path} does not fit {root / 'clf_train.jsonl'}: {e}") from e
    return spec, train, test, lexicon


def _load_generator(args):
    """(bundle, spec, denoiser, alpha, schedule) of ``--checkpoint``, which must hold a denoiser."""
    bundle, config, spec, denoiser = load_encoder_checkpoint(args.checkpoint)
    if denoiser is None:
        raise ConfigError("checkpoint has no denoiser parameters; run train-diffusion first")
    config = _load_config(args, config)
    return bundle, spec, denoiser, config.generation_alpha, DiffusionSchedule.make(config.timesteps)


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
    bank = {
        "style": ("sketch", "neon", "pastel", "mosaic", "chalk", "glitch", "inkwash", "vapor"),
        "category": ("cat", "dog", "car", "tree", "boat", "bird", "lamp", "kite"),
    }[kind]
    return bank[:n] + tuple(f"{kind}{i}" for i in range(len(bank), n))


def _cmd_decompose(args) -> int:
    lexicon = CategoryLexicon.from_file(args.lexicon)
    n = batch_decompose(args.captions, lexicon, args.out)
    print(f"decomposed {n} captions into {args.out}")
    return 0


def _cmd_train_encoders(args) -> int:
    config = _load_config(args)
    spec, train, test, lexicon = _load_dataset_dir(args.data, config.mode)
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
    config = _load_config(args, config)
    test = load(Path(args.data) / "clf_test.jsonl", "grid", spec)
    s_top1, c_top1 = evaluate_classification(bundle, test, config.alpha_style, config.alpha_category,
                                             config.logit_scale)
    print(f"style_top1={s_top1:.6f} category_top1={c_top1:.6f} "
          f"(alpha_style={config.alpha_style}, alpha_category={config.alpha_category})")
    if args.out:
        write_metrics_csv([_metrics_row(config.epochs, "test", s_top1, c_top1, "", "", config)], args.out)
    return 0


def _parse_grid(raw: str | None, default):
    if raw is None:
        return default
    try:
        return tuple(float(v) for v in raw.split(","))
    except ValueError as e:
        raise ConfigError(f"bad grid value: {e}") from e


def _cmd_sweep(args) -> int:
    if args.axis == "alpha":
        if not args.checkpoint:
            raise ConfigError("alpha sweep requires --checkpoint")
        bundle, config, spec, _ = load_encoder_checkpoint(args.checkpoint)
        config = _load_config(args, config)
        test = load(Path(args.data) / "clf_test.jsonl", "grid", spec)
        rows = alpha_sweep(bundle, test, config, grid=_parse_grid(args.grid, ALPHA_GRID))
    else:
        config = _load_config(args)
        spec, train, test, lexicon = _load_dataset_dir(args.data, config.mode)
        rows = lambda_sweep(config, spec, train, test,
                            grid=_parse_grid(args.grid, LAMBDA_GRID), lexicon=lexicon)
    write_metrics_csv(rows, args.out)
    print(f"wrote {len(rows)} sweep rows to {args.out}")
    return 0


def _cmd_train_diffusion(args) -> int:
    bundle, config, spec, _ = load_encoder_checkpoint(args.encoders)
    config = _load_config(args, config)
    points = load(Path(args.data) / "diff_train.jsonl", "point", spec)
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
    bundle, spec, denoiser, alpha, schedule = _load_generator(args)
    if args.style not in spec.style_names or args.category not in spec.category_names:
        raise ConfigError(
            f"unknown style/category; expected one of {spec.style_names} x {spec.category_names}"
        )
    caption = spec.caption(spec.style_names.index(args.style), spec.category_names.index(args.category))
    cond = condition_for_caption(caption, bundle, alpha)
    pts = ddpm_sample(args.count, cond, schedule, denoiser, seed=args.sample_seed)
    s_hat, c_hat = oracle_classify_batch(pts, build_mixture(spec))
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
    bundle, spec, denoiser, alpha, schedule = _load_generator(args)
    rows = guidance_eval(bundle, denoiser, schedule, spec, alpha=alpha,
                         n_per_cell=args.n_per_cell, seed=args.sample_seed)
    write_metrics_csv(rows, args.out, ("style", "category", "matched_accuracy"))
    matched = float(np.mean([r["matched_accuracy"] for r in rows]))
    print(f"matched accuracy {matched:.4f} over {len(rows)} condition cells")
    return 0


def _cmd_gradcheck(args) -> int:
    results = gradcheck_suite(n_seeds=args.seeds, tol=args.tol)
    failed = False
    for name, worst, ok in results:
        print(f"{name:28s} worst_rel_err={worst:.3e} {'ok' if ok else 'FAIL'}")
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
