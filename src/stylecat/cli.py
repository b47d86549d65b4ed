"""Command-line entry point.

Exit codes: 0 success, 1 validation/config error, a path that cannot be
read or written, or a request too large for memory (say ``sample -n``
10**12), 2 numerical failure (non-finite loss or a failed gradient audit).
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .datagen import DATASET_FILES, SyntheticSpec, build_mixture, default_names, load, read_spec, write_dataset_dir
from .diffusion import DiffusionSchedule, condition_for_caption, oracle_classify_batch, sample as ddpm_sample
from .losses import ConfigError
from .train import (
    CHOICES,
    SWEEPS,
    NumericalError,
    TrainConfig,
    apply_seed_env,
    eval_row,
    gradcheck_suite,
    guidance_eval,
    load_encoder_checkpoint,
    save_encoder_checkpoint,
    sweep,
    train_diffusion,
    train_encoders,
    write_metrics_csv,
)

# Each typed error of the package (ConfigError, DatasetError, CheckpointError) is a ValueError; an
# OSError names a path that the command could not open, read or write; numpy's MemoryError names
# the array, too large for this host, that a count such as ``sample -n`` asked for.
VALIDATION_ERRORS = (ValueError, OSError, MemoryError)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; keep 2 for numerics only
        self.print_usage(sys.stderr)
        raise ConfigError(message)


# The parser type of an option by the annotation of the field that it sets, as ``checkpoint.check_types`` reads it.
_PARSER_TYPES = {"int": int, "int | None": int, "float": float, "str": None}


def _build_parser() -> _Parser:
    def grid(raw: str) -> tuple:  # named, so that argparse's "invalid grid value" error names the option
        return tuple(float(v) for v in raw.split(","))

    annotations = {f.name: f.type for cls in (TrainConfig, SyntheticSpec) for f in fields(cls)}

    def field_options(p, *flags, **kwargs):
        """One option per flag, ``--name`` or ``--name=dest``, that sets the TrainConfig or SyntheticSpec field
        ``dest`` (else the flag's name), typed by its annotation and offered ``CHOICES[dest]``. It defaults to
        None, so that the field keeps its value unless the option is given (``_given``)."""
        for flag, _, dest in (option.partition("=") for option in flags):
            dest = dest or flag[2:].replace("-", "_")
            p.add_argument(flag, dest=dest, type=_PARSER_TYPES[annotations[dest]], choices=CHOICES.get(dest), **kwargs)

    parser = _Parser(prog="stylecat", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate the synthetic datasets")
    p.add_argument("--out", required=True)
    field_options(p, "--styles=n_styles", "--categories=n_categories", "--train-per-cell=n_train",
                  "--test-per-cell=n_test", "--noise", "--seed")

    p = sub.add_parser("train-encoders", help="train the two adapters")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--config")
    p.add_argument("--metrics")
    field_options(p, "--mode", "--epochs", "--batch-size", "--lr", "--seed", "--shots", "--lambda1", "--lambda2",
                  "--margin1", "--margin2", "--adversarial-mode", "--logit-scale")

    p = sub.add_parser("eval-classify", help="blended-prototype classification accuracy")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    field_options(p, "--alpha-style", "--alpha-category")
    p.add_argument("--out")

    p = sub.add_parser("sweep", help="alpha or lambda ablation grid")
    p.add_argument("--axis", choices=tuple(SWEEPS), required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--checkpoint", help="the alpha axis's trained encoders; required there, refused on lambda")
    p.add_argument("--config", help="lambda axis only")
    p.add_argument("--grid", type=grid, help="comma-separated values overriding the default grid")
    field_options(p, "--seed", help="lambda axis only")

    p = sub.add_parser("train-diffusion", help="train the conditional denoiser")
    p.add_argument("--data", required=True)
    p.add_argument("--encoders", required=True, help="encoder checkpoint to condition on")
    p.add_argument("--out", required=True)
    p.add_argument("--metrics")
    field_options(p, "--steps=diffusion_steps", "--batch-size=diffusion_batch", "--lr", "--seed",
                  "--alpha=generation_alpha", "--timesteps")

    p = sub.add_parser("sample", help="draw conditioned samples from a trained model")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--style", required=True)
    p.add_argument("--category", required=True)
    p.add_argument("-n", "--count", type=int, default=100)
    p.add_argument("--seed", type=int, default=0, dest="sample_seed", help="sampling seed")
    field_options(p, "--alpha=generation_alpha")
    p.add_argument("--out", required=True)

    p = sub.add_parser("guidance-eval", help="oracle accuracy of every (style, category) cell's samples")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--n-per-cell", type=int, default=200)
    p.add_argument("--seed", type=int, default=0, dest="sample_seed", help="sampling seed")
    field_options(p, "--alpha=generation_alpha")

    p = sub.add_parser("gradcheck", help="finite-difference audit of all gradients")
    p.add_argument("--seeds", type=int, default=20)
    p.add_argument("--tol", type=float, default=1e-4)

    return parser


def _given(args, cls) -> dict:
    """The value of every option given whose dest names a field of the dataclass ``cls``."""
    return {f.name: v for f in fields(cls) if (v := getattr(args, f.name, None)) is not None}


def _load_config(args, config: TrainConfig | None = None, env=os.environ) -> TrainConfig:
    """``config`` (else ``--config``, else the defaults) overridden by every flag whose dest names a
    TrainConfig field, then by CCLIP_SEED in ``env``, which is empty for a checkpoint only evaluated."""
    if config is None:
        config = TrainConfig.from_file(args.config) if getattr(args, "config", None) else TrainConfig()
    return apply_seed_env(replace(config, **_given(args, TrainConfig)), env)


def _load_dataset_dir(data_dir):
    """Spec and classification splits of a dataset directory. Training splits their captions by the spec's
    category names, as ``load`` checks them."""
    spec = read_spec(data_dir)
    root = Path(data_dir)
    return spec, load(root / DATASET_FILES["train"], "grid", spec), load(root / DATASET_FILES["test"], "grid", spec)


# The options that name a file a command reads; ``--data`` names a directory of ``DATASET_FILES``.
_INPUT_FILES = ("checkpoint", "encoders", "config")


def _check_writable(args) -> None:
    """OSError naming the first of ``--out`` and ``--metrics`` that is a directory, whose parent is
    not an existing, writable directory, or that names the same file as an input (``_INPUT_FILES``,
    or a dataset file under ``--data``) or an earlier output: run before a command's work, so that
    neither its result nor an input is lost at the write."""
    seen = {Path(path).resolve() for name in _INPUT_FILES if (path := getattr(args, name, None))}
    if data := getattr(args, "data", None):
        seen.update((Path(data) / name).resolve() for name in DATASET_FILES.values())
    for path in filter(None, (getattr(args, "out", None), getattr(args, "metrics", None))):
        if Path(path).is_dir() or not Path(path).parent.is_dir() or not os.access(Path(path).parent, os.W_OK):
            raise OSError(f"cannot write {path}: it must be a file in an existing, writable directory")
        if Path(path).resolve() in seen:
            raise OSError(f"cannot write {path}: an input or another output names the same file")
        seen.add(Path(path).resolve())


def _load_generator(args):
    """(bundle, spec, denoiser, alpha, schedule) of ``--checkpoint``, which must hold a denoiser."""
    bundle, config, spec, denoiser = load_encoder_checkpoint(args.checkpoint)
    if denoiser is None:
        raise ConfigError("checkpoint has no denoiser parameters; run train-diffusion first")
    config = _load_config(args, config)
    return bundle, spec, denoiser, config.generation_alpha, DiffusionSchedule.make(config.timesteps)


def _cmd_gen_data(args) -> int:
    """Writes ``SyntheticSpec()`` with the options given replaced, and the default names for its factor counts."""
    given = {name: getattr(SyntheticSpec, name) for name in ("n_styles", "n_categories")} | _given(args, SyntheticSpec)
    spec = SyntheticSpec(**given, style_names=default_names(given["n_styles"], "style"),
                         category_names=default_names(given["n_categories"], "category"))
    counts = write_dataset_dir(spec, args.out)
    print(f"wrote {counts['train']} train / {counts['test']} test grids, {counts['points']} points to {args.out}")
    return 0


def _cmd_train_encoders(args) -> int:
    config = _load_config(args)
    spec, train, test = _load_dataset_dir(args.data)
    started = time.perf_counter()
    bundle, rows = train_encoders(config, spec, train)
    test_row = eval_row(bundle, test, config)
    rows.append(test_row)
    save_encoder_checkpoint(args.out, bundle, config, spec)
    if args.metrics:
        write_metrics_csv(rows, args.metrics)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    print(f"trained {config.mode} encoders in {elapsed_ms:.0f} ms; "
          f"test style_top1={test_row['style_top1']:.4f} category_top1={test_row['category_top1']:.4f}; "
          f"saved {args.out}")
    return 0


def _cmd_eval_classify(args) -> int:
    bundle, config, spec, _ = load_encoder_checkpoint(args.checkpoint)
    config = _load_config(args, config, env={})
    test = load(Path(args.data) / DATASET_FILES["test"], "grid", spec)
    row = eval_row(bundle, test, config)
    print(f"style_top1={row['style_top1']:.6f} category_top1={row['category_top1']:.6f} "
          f"(alpha_style={config.alpha_style}, alpha_category={config.alpha_category})")
    if args.out:
        write_metrics_csv([row], args.out)
    return 0


def _cmd_sweep(args) -> int:
    if args.axis == "alpha":
        if not args.checkpoint:
            raise ConfigError("alpha sweep requires --checkpoint")
        if args.config or args.seed is not None:
            raise ConfigError("alpha sweep evaluates the checkpoint's stored config; it takes no --config or --seed")
        bundle, config, spec, _ = load_encoder_checkpoint(args.checkpoint)
        test = load(Path(args.data) / DATASET_FILES["test"], "grid", spec)
        rows = sweep("alpha", args.grid, config, test, bundle)
    else:
        if args.checkpoint:
            raise ConfigError("lambda sweep retrains from --config; it takes no --checkpoint")
        config = _load_config(args)
        spec, train, test = _load_dataset_dir(args.data)
        rows = sweep("lambda", args.grid, config, test, spec=spec, train_samples=train)
    write_metrics_csv(rows, args.out)
    print(f"wrote {len(rows)} sweep rows to {args.out}")
    return 0


def _cmd_train_diffusion(args) -> int:
    bundle, config, spec, _ = load_encoder_checkpoint(args.encoders)
    config = _load_config(args, config)
    points = load(Path(args.data) / DATASET_FILES["points"], "point", spec)
    started = time.perf_counter()
    params, _, rows = train_diffusion(config, points, bundle)
    save_encoder_checkpoint(args.out, bundle, config, spec, denoiser=params)
    if args.metrics:
        write_metrics_csv(rows, args.metrics, ("step", "loss", "grad_norm"))
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
        if args.command != "gen-data":  # whose --out is a directory
            _check_writable(args)
        return _COMMANDS[args.command](args)
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 2
    except VALIDATION_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
