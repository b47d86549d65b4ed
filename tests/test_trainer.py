"""Trainer orchestration and the CLI surface: config validation,
determinism, checkpoints, sweeps, and exit codes."""

import argparse
import json
import os
import re
from dataclasses import fields, make_dataclass
from pathlib import Path

import numpy as np
import pytest

import stylecat.cli as cli_mod
import stylecat.train as train_mod
from stylecat.captions import CategoryLexicon
from stylecat.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from stylecat.cli import main
from stylecat.datagen import DatasetError, SyntheticSpec, generate_classification_dataset, write_dataset_dir
from stylecat.diffusion import DenoiserParams, DiffusionSchedule
from stylecat.losses import ConfigError
from stylecat.tensor import ParamGroup, Tensor, _node, backward
from stylecat.train import (
    Adam,
    TrainConfig,
    alpha_sweep,
    apply_seed_env,
    bundle_arrays,
    evaluate_classification,
    fresh_bundle,
    guidance_eval,
    lambda_sweep,
    load_encoder_checkpoint,
    save_encoder_checkpoint,
    subsample_shots,
    train_encoders,
    write_metrics_csv,
)

FAST = dict(epochs=3, shots=8)


@pytest.fixture(scope="module")
def spec():
    return SyntheticSpec()


@pytest.fixture(scope="module")
def dataset(spec):
    return generate_classification_dataset(spec)


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory, spec):
    out = tmp_path_factory.mktemp("data")
    write_dataset_dir(spec, out)
    return out


class TestConfig:
    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError, match="unknown"):
            TrainConfig.from_dict({"learning_rate": 0.1})

    def test_invalid_values_rejected(self):
        for bad in (dict(mode="both"), dict(epochs=-1), dict(lr=0.0),
                    dict(alpha_style=1.5), dict(shots=0), dict(adversarial_mode="x")):
            with pytest.raises(ConfigError):
                TrainConfig(**bad)

    def test_json_file_roundtrip(self, tmp_path):
        cfg = TrainConfig(epochs=7, lambda1=0.5)
        p = tmp_path / "c.json"
        p.write_text(json.dumps(cfg.to_json()))
        assert TrainConfig.from_file(p) == cfg

    def test_non_object_config_rejected(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text("[1, 2]")
        with pytest.raises(ConfigError):
            TrainConfig.from_file(p)

    def test_env_seed_overrides_everything(self):
        cfg = apply_seed_env(TrainConfig(seed=5), env={"CCLIP_SEED": "99"})
        assert cfg.seed == 99
        with pytest.raises(ConfigError):
            apply_seed_env(TrainConfig(), env={"CCLIP_SEED": "abc"})

    def test_non_finite_and_mistyped_values_rejected(self):
        for bad in (dict(lr=float("nan")), dict(margin2=float("inf")), dict(lr="0.1"), dict(alpha_style=None),
                    dict(epochs=1.5), dict(epochs=True), dict(shots=2.0), dict(dim="32")):
            with pytest.raises(ConfigError, match=next(iter(bad))):
                TrainConfig(**bad)
        assert TrainConfig(lr=1, logit_scale=20).lr == 1  # an int is a number

    def test_defaults_match_protocol(self):
        cfg = TrainConfig()
        assert cfg.epochs == 30 and cfg.batch_size == 32
        assert cfg.lr == 1e-3 and Adam.BETA1 == 0.9 and Adam.BETA2 == 0.999 and Adam.EPS == 1e-8
        assert cfg.alpha_style == 0.8 and cfg.alpha_category == 0.4


class ReferenceAdam:
    """Per-tensor Adam, one new array per update: the reference for the flat-buffer optimizer."""

    def __init__(self, group, lr: float):
        self.params = group.tensors()
        self.lr = lr
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.t = 0

    def step(self):
        self.t += 1
        bc1 = 1.0 - Adam.BETA1**self.t
        bc2 = 1.0 - Adam.BETA2**self.t
        for i, p in enumerate(self.params):
            g = p.grad
            self.m[i] = Adam.BETA1 * self.m[i] + (1 - Adam.BETA1) * g
            self.v[i] = Adam.BETA2 * self.v[i] + (1 - Adam.BETA2) * g * g
            p.data[...] = p.data - self.lr * (self.m[i] / bc1) / (np.sqrt(self.v[i] / bc2) + Adam.EPS)


def free_group(*arrays):
    """A ParamGroup of one trainable tensor per array, fields p0, p1, ..."""
    cls = make_dataclass("FreeGroup", [(f"p{i}", Tensor) for i in range(len(arrays))], bases=(ParamGroup,))
    return cls(*(Tensor(x, requires_grad=True) for x in arrays))


class TestAdam:
    def test_moves_toward_minimum(self):
        group = free_group(np.array([5.0, -3.0]))
        (x,) = group.tensors()
        opt = Adam(group, lr=0.1)
        for _ in range(300):
            loss = _node(np.asarray((x.data * x.data).sum()), (x,), lambda g: (2.0 * float(g) * x.data,))
            group.zero_grad()
            backward(loss)
            opt.step()
        assert np.abs(x.data).max() < 1e-3

    def test_flat_buffer_matches_per_tensor_reference(self):
        """Five steps over one group equal per-tensor Adam bit for bit, and leave the gradients readable."""
        rng = np.random.default_rng(17)
        init = [rng.standard_normal(shape) for shape in [(3, 4), (5,), (), (2, 2)]]
        flat, ref = free_group(*init), free_group(*init)
        opts = Adam(flat, lr=0.05), ReferenceAdam(ref, lr=0.05)
        for step in range(5):
            grads = rng.standard_normal(flat.flat_grad.shape)
            flat.flat_grad[:] = grads
            ref.flat_grad[:] = grads
            for opt in opts:
                opt.step()
            assert np.array_equal(flat.flat_grad, grads), step
            for f, r in zip(flat.tensors(), ref.tensors()):
                assert f.data.shape == r.data.shape and np.array_equal(f.data, r.data), step

    def test_trained_denoiser_is_read_back_and_survives_checkpoint(self, spec, dataset, tmp_path, monkeypatch):
        from stylecat.datagen import generate_diffusion_dataset

        config = TrainConfig(epochs=0, diffusion_steps=5, diffusion_batch=16, timesteps=20)
        bundle = fresh_bundle(spec, config)
        points, _ = generate_diffusion_dataset(spec, n_per_cell=4)
        params, _, _ = train_mod.train_diffusion(config, points, bundle)
        monkeypatch.setattr(train_mod, "Adam", ReferenceAdam)
        expected = train_mod.train_diffusion(config, points, bundle)[0].arrays()
        init = DenoiserParams.init(dim=config.dim, steps=config.timesteps, seed=config.seed).arrays()
        trained = params.arrays()
        for name, arr in expected.items():
            assert np.array_equal(trained[name], arr) and not np.array_equal(arr, init[name]), name
        path = tmp_path / "diff.cclp"
        save_encoder_checkpoint(path, bundle, config, spec, denoiser=params)
        loaded = load_encoder_checkpoint(path)[3].arrays()
        for name, arr in expected.items():
            assert np.array_equal(loaded[name], arr.astype(np.float32).astype(np.float64)), name


class TestShots:
    def test_subsample_counts(self, dataset):
        train, _ = dataset
        kept = subsample_shots(train, 16)
        assert len(kept) == 16 * 3 * 4
        counts = {}
        for s in kept:
            counts[(s.style, s.category)] = counts.get((s.style, s.category), 0) + 1
        assert set(counts.values()) == {16}

    def test_none_keeps_all(self, dataset):
        train, _ = dataset
        assert len(subsample_shots(train, None)) == len(train)


class TestTrainEncoders:
    def test_zero_epochs_equals_initialization(self, spec, dataset):
        train, _ = dataset
        config = TrainConfig(epochs=0)
        bundle, rows = train_encoders(config, spec, train)
        init = fresh_bundle(spec, config)
        for a, b in zip(bundle_arrays(bundle).values(), bundle_arrays(init).values()):
            assert np.array_equal(a, b)
        assert rows == []

    def test_final_loss_below_initial(self, spec, dataset):
        train, _ = dataset
        bundle, rows = train_encoders(TrainConfig(epochs=5, shots=8), spec, train)
        assert rows[-1]["style_loss"] < rows[0]["style_loss"]
        assert rows[-1]["category_loss"] < rows[0]["category_loss"]

    def test_unlabeled_requires_lexicon(self, spec, dataset):
        train, _ = dataset
        with pytest.raises(ConfigError, match="lexicon"):
            train_encoders(TrainConfig(mode="unlabeled"), spec, train)

    def test_identical_runs_produce_identical_metrics_csv(self, spec, dataset, tmp_path):
        train, _ = dataset
        paths = []
        for name in ("a.csv", "b.csv"):
            _, rows = train_encoders(TrainConfig(**FAST), spec, train)
            p = tmp_path / name
            write_metrics_csv(rows, p)
            paths.append(p)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_different_seed_changes_outcome(self, spec, dataset):
        train, _ = dataset
        a, _ = train_encoders(TrainConfig(**FAST, seed=0), spec, train)
        b, _ = train_encoders(TrainConfig(**FAST, seed=1), spec, train)
        assert not np.array_equal(a.style_adapter.w1.data, b.style_adapter.w1.data)

    @staticmethod
    def _count_calls(monkeypatch, names):
        counts = dict.fromkeys(names, 0)
        for name in names:
            def counted(*args, _name=name, _real=getattr(train_mod, name), **kwargs):
                counts[_name] += 1
                return _real(*args, **kwargs)
            monkeypatch.setattr(train_mod, name, counted)
        return counts

    def test_unlabeled_run_calls_each_triplet_once_per_batch(self, spec, dataset, monkeypatch):
        train, _ = dataset
        config = TrainConfig(mode="unlabeled", epochs=1, shots=4)
        counts = self._count_calls(monkeypatch, ("style_triplet_loss", "category_triplet_loss"))
        _, rows = train_encoders(config, spec, train, lexicon=CategoryLexicon.from_words(spec.category_names))
        batches = -(-len(subsample_shots(train, 4)) // config.batch_size)
        assert counts == {"style_triplet_loss": batches, "category_triplet_loss": batches}
        assert len(rows) == 1
        assert np.isfinite([rows[0]["style_loss"], rows[0]["category_loss"]]).all()

    def test_labeled_run_calls_style_loss_once_per_batch(self, spec, dataset, monkeypatch):
        train, _ = dataset
        config = TrainConfig(epochs=1, shots=4)
        counts = self._count_calls(monkeypatch, ("style_labeled_loss", "category_labeled_loss"))
        train_encoders(config, spec, train)
        batches = -(-len(subsample_shots(train, 4)) // config.batch_size)
        assert counts == {"style_labeled_loss": batches, "category_labeled_loss": batches}


class TestCheckpointRoundtrip:
    def test_bundle_survives_checkpoint(self, spec, dataset, tmp_path):
        train, test = dataset
        config = TrainConfig(**FAST)
        bundle, _ = train_encoders(config, spec, train)
        path = tmp_path / "enc.cclp"
        save_encoder_checkpoint(path, bundle, config, spec)
        loaded, config2, spec2, denoiser = load_encoder_checkpoint(path)
        assert denoiser is None and spec2 == spec and config2 == config
        # float32 storage: accuracies must match exactly, parameters near-exactly
        a = evaluate_classification(bundle, test, 0.8, 0.4, config.logit_scale)
        b = evaluate_classification(loaded, test, 0.8, 0.4, config.logit_scale)
        assert a == b
        for x, y in zip(bundle_arrays(bundle).values(), bundle_arrays(loaded).values()):
            assert np.abs(x - y).max() < 1e-6

    def test_save_load_save_byte_identical(self, spec, dataset, tmp_path):
        train, _ = dataset
        config = TrainConfig(**FAST)
        bundle, _ = train_encoders(config, spec, train)
        p1, p2 = tmp_path / "a.cclp", tmp_path / "b.cclp"
        save_encoder_checkpoint(p1, bundle, config, spec)
        loaded, config2, spec2, _ = load_encoder_checkpoint(p1)
        save_encoder_checkpoint(p2, loaded, config2, spec2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.fixture
    def saved(self, spec, tmp_path):
        config = TrainConfig(epochs=0)
        bundle = fresh_bundle(spec, config)
        path = tmp_path / "enc.cclp"
        save_encoder_checkpoint(path, bundle, config, spec)
        return path, load_checkpoint(path)

    @pytest.mark.parametrize("retired", [{}, {"pretrain_contrastive": False, "contrastive_steps": 100,
                                              "contrastive_temperature": 0.07},
                                         {"backbone_seed": 0, "word_noise": 0.10, "filler_scale": 0.15,
                                          "proj_noise": 0.01, "code_scale": 0.30},
                                         {"beta1": 0.9, "beta2": 0.999, "adam_eps": 1e-8, "hidden": None}])
    def test_checkpoint_from_before_warmup_removal_loads(self, saved, tmp_path, retired):
        path, (arrays, meta) = saved
        meta["config"].update(retired)
        old = tmp_path / "old.cclp"
        save_checkpoint(old, arrays, meta)
        bundle, config, _, _ = load_encoder_checkpoint(old)
        assert config == TrainConfig(epochs=0)
        assert bundle_arrays(bundle).keys() == arrays.keys()

    def test_warmed_up_checkpoint_rejected(self, saved, tmp_path):
        path, (arrays, meta) = saved
        meta["config"].update(pretrain_contrastive=True, contrastive_steps=100, contrastive_temperature=0.07)
        save_checkpoint(path, arrays, meta)
        with pytest.raises(CheckpointError, match="warmed-up"):
            load_encoder_checkpoint(path)

    @pytest.mark.parametrize("retired", [{"backbone_seed": 3}, {"word_noise": 0.2}, {"beta1": 0.5}])
    def test_checkpoint_of_other_backbone_rejected(self, saved, data_dir, retired):
        path, (arrays, meta) = saved
        meta["config"].update(retired)
        save_checkpoint(path, arrays, meta)
        with pytest.raises(CheckpointError, match="no longer"):
            load_encoder_checkpoint(path)
        assert main(["eval-classify", "--checkpoint", str(path), "--data", str(data_dir)]) == 1

    @pytest.mark.parametrize("edit", ["not-a-dict", "no-config", "config-not-a-dict", "no-spec",
                                      "config-type", "spec-type"])
    def test_malformed_metadata_rejected(self, saved, data_dir, edit):
        path, (arrays, meta) = saved
        if edit == "not-a-dict":
            meta = [meta]
        elif edit == "no-config":
            meta = {"kind": "encoders"}
        elif edit == "config-not-a-dict":
            meta["config"] = "labeled"
        elif edit == "no-spec":
            del meta["dataset_spec"]
        elif edit == "config-type":
            meta["config"]["epochs"] = "3"
        else:
            meta["dataset_spec"]["n_styles"] = "3"
        save_checkpoint(path, arrays, meta)
        with pytest.raises(CheckpointError, match=re.escape(str(path))):
            load_encoder_checkpoint(path)
        assert main(["eval-classify", "--checkpoint", str(path), "--data", str(data_dir)]) == 1

    def test_damaged_spec_rejected(self, saved):
        path, (arrays, meta) = saved
        meta["dataset_spec"]["style_names"] = ["sketch", "Sketch", "neon"]
        save_checkpoint(path, arrays, meta)
        with pytest.raises(CheckpointError, match=re.escape(f"{path}: bad config or dataset spec: "
                                                            "style_names and category_names repeat ['sketch']")):
            load_encoder_checkpoint(path)

    @pytest.mark.parametrize("edit", ["wrong-rank", "wrong-width", "retired-hidden"])
    def test_wrong_array_shapes_rejected(self, saved, data_dir, edit):
        path, (arrays, meta) = saved
        if edit == "wrong-rank":
            arrays["category_adapter.b2"] = np.zeros((1, 32))
        elif edit == "wrong-width":
            meta["config"]["dim"] = 16  # adapters of width 32 stored against dim 16
        else:  # trained with the retired TrainConfig(hidden=16); adapters are now dim // 4 = 8 wide
            meta["config"]["hidden"] = 16
            for prefix in ("style_adapter", "category_adapter"):
                arrays.update({f"{prefix}.w1": np.zeros((32, 16)), f"{prefix}.b1": np.zeros(16),
                               f"{prefix}.w2": np.zeros((16, 32)), f"{prefix}.b2": np.zeros(32)})
        save_checkpoint(path, arrays, meta)
        group, array = ("category_adapter", "b2") if edit == "wrong-rank" else ("style_adapter", "w1")
        with pytest.raises(CheckpointError, match=rf"{re.escape(str(path))}: {group}: .*array {array} has shape"):
            load_encoder_checkpoint(path)
        assert main(["eval-classify", "--checkpoint", str(path), "--data", str(data_dir)]) == 1

    def test_attention_denoiser_checkpoint_rejected(self, saved, tmp_path, capsys):
        """A denoiser saved with the retired attention weights is refused; its encoders alone still load."""
        path, (arrays, meta) = saved
        dim, steps = 32, meta["config"]["timesteps"]
        rng = np.random.default_rng(0)
        attention = {"time_embed": (steps, dim), "in_w": (2, dim), "in_b": (dim,), "wq": (dim, dim),
                     "wk": (dim, dim), "wv": (dim, dim), "wo": (dim, dim), "mlp_w1": (dim, dim),
                     "mlp_b1": (dim,), "mlp_w2": (dim, 2), "mlp_b2": (2,)}
        old = tmp_path / "old-diffusion.cclp"
        save_checkpoint(old, {**arrays, **{f"denoiser.{k}": rng.standard_normal(v) for k, v in attention.items()}},
                        {**meta, "kind": "diffusion"})
        with pytest.raises(CheckpointError, match=rf"{re.escape(str(old))}: .*re-run train-diffusion"):
            load_encoder_checkpoint(old)
        assert main(["sample", "--checkpoint", str(old), "--style", "sketch", "--category", "cat",
                     "--out", str(tmp_path / "s.csv")]) == 1
        assert "re-run train-diffusion" in capsys.readouterr().err
        bundle = load_encoder_checkpoint(path)[0]
        assert all(np.array_equal(bundle_arrays(bundle)[k], arrays[k]) for k in arrays)

    @pytest.mark.parametrize("tokens", [1, 3])
    def test_condition_offsets_need_two_or_more_rows(self, saved, tokens):
        """The attention denoiser's condition offsets (it needed two or more rows) are refused at any count."""
        path, (arrays, meta) = saved
        denoiser = DenoiserParams.init(dim=32, steps=meta["config"]["timesteps"])
        arrays.update({f"denoiser.{k}": v for k, v in denoiser.arrays().items()})
        arrays["denoiser.cond_offsets"] = np.random.default_rng(tokens).standard_normal((tokens, 32))
        save_checkpoint(path, arrays, meta)
        with pytest.raises(CheckpointError, match=r"retired attention weights \['cond_offsets'\]; re-run"):
            load_encoder_checkpoint(path)
        del arrays["denoiser.cond_offsets"]
        save_checkpoint(path, arrays, meta)
        assert load_encoder_checkpoint(path)[3].arrays().keys() == denoiser.arrays().keys()

    @pytest.mark.parametrize("edit", ["missing", "extra", "unknown-group"])
    def test_wrong_array_names_rejected(self, saved, data_dir, edit):
        path, (arrays, meta) = saved
        if edit == "missing":
            del arrays["style_adapter.w1"]
        elif edit == "extra":
            arrays["category_adapter.w3"] = np.zeros(2)
        else:
            arrays["decoder.w1"] = np.zeros(2)
        save_checkpoint(path, arrays, meta)
        with pytest.raises(CheckpointError):
            load_encoder_checkpoint(path)
        assert main(["eval-classify", "--checkpoint", str(path), "--data", str(data_dir)]) == 1


@pytest.fixture(scope="module")
def trained(spec, dataset):
    train, test = dataset
    config = TrainConfig(shots=16)
    bundle, _ = train_encoders(config, spec, train)
    return config, bundle, test


class TestSweeps:
    def test_default_grid_has_six_rows(self, trained):
        config, bundle, test = trained
        rows = alpha_sweep(bundle, test, config)
        assert len(rows) == 6
        assert [r["alpha_style"] for r in rows] == [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]

    def test_single_point_grid(self, trained):
        config, bundle, test = trained
        rows = alpha_sweep(bundle, test, config, grid=(0.4,))
        assert len(rows) == 1

    def test_alpha_zero_row_equals_zero_shot_baseline(self, spec, trained):
        config, bundle, test = trained
        row = alpha_sweep(bundle, test, config, grid=(0.0,))[0]
        init = fresh_bundle(spec, config)
        zs = evaluate_classification(init, test, 0.0, 0.0, config.logit_scale)
        assert (row["style_top1"], row["category_top1"]) == zs

    def test_lambda_sweep_retrains_per_grid_point(self, spec, dataset):
        train, test = dataset
        rows = lambda_sweep(TrainConfig(epochs=1, shots=4), spec, train, test, grid=(0.0, 0.3))
        assert [(r["lambda1"], r["lambda2"]) for r in rows] == [(0.0, 0.0), (0.3, 0.3)]
        assert np.isfinite([(r["style_top1"], r["category_top1"]) for r in rows]).all()


def test_evaluate_classification_needs_samples(spec):
    with pytest.raises(DatasetError, match="no samples"):
        evaluate_classification(fresh_bundle(spec, TrainConfig()), [], 0.8, 0.4, 20.0)


def test_guidance_eval_needs_one_sample_per_cell(spec):
    config = TrainConfig(epochs=0, timesteps=4)
    with pytest.raises(ConfigError, match="n_per_cell must be >= 1"):
        guidance_eval(fresh_bundle(spec, config), DenoiserParams.init(dim=config.dim, steps=4),
                      DiffusionSchedule.make(4), spec, alpha=0.1, n_per_cell=0, seed=0)


@pytest.fixture(scope="module")
def generator(tmp_path_factory):
    """A CLI-trained diffusion checkpoint on a small dataset."""
    root = tmp_path_factory.mktemp("generator")
    data, enc, diff = root / "data", root / "enc.cclp", root / "diff.cclp"
    assert main(["gen-data", "--out", str(data), "--train-per-cell", "4", "--test-per-cell", "2"]) == 0
    assert main(["train-encoders", "--data", str(data), "--out", str(enc), "--epochs", "0"]) == 0
    assert main(["train-diffusion", "--data", str(data), "--encoders", str(enc), "--out", str(diff),
                 "--steps", "2", "--timesteps", "4"]) == 0
    return diff


# Commands that read their TrainConfig through cli._load_config, and the
# dests of their options that are not TrainConfig fields.
CONFIG_COMMANDS = ("train-encoders", "eval-classify", "sweep", "train-diffusion", "sample", "guidance-eval")
NON_FIELD_DESTS = {"help", "data", "out", "config", "metrics", "checkpoint", "encoders", "axis", "grid",
                   "style", "category", "count", "sample_seed", "n_per_cell"}


def _command_options():
    parser = cli_mod._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    for command in CONFIG_COMMANDS:
        for action in sub.choices[command]._actions:
            yield pytest.param(sub.choices[command], action, id=f"{command}{action.option_strings[-1]}")


@pytest.mark.parametrize("parser, action", _command_options())
def test_flag_overrides_its_config_field(monkeypatch, parser, action):
    """A flag whose dest names a TrainConfig field overrides that field; a misspelled dest fails here."""
    field_names = {f.name for f in fields(TrainConfig)}
    if action.dest not in field_names:
        assert action.dest in NON_FIELD_DESTS
        return
    monkeypatch.delenv("CCLIP_SEED", raising=False)
    default = getattr(TrainConfig(), action.dest)
    if action.choices:
        value = next(c for c in action.choices if c != default)
    else:
        value = {int: 3, float: 0.5}[action.type]
    assert value != default
    required = [arg for a in parser._actions if a.required
                for arg in (a.option_strings[-1], a.choices[0] if a.choices else "x")]
    args = parser.parse_args([*required, action.option_strings[-1], str(value)])
    assert getattr(cli_mod._load_config(args), action.dest) == value


class TestCli:
    def run(self, *argv):
        return main(list(argv))

    def test_gen_decompose_train_eval_flow(self, tmp_path):
        data = tmp_path / "data"
        assert self.run("gen-data", "--out", str(data), "--train-per-cell", "8",
                        "--test-per-cell", "4") == 0
        caps = tmp_path / "caps.txt"
        caps.write_text("a neon style cat\n", encoding="utf-8")
        dec = tmp_path / "dec.jsonl"
        assert self.run("decompose", "--captions", str(caps), "--lexicon",
                        str(data / "lexicon.txt"), "--out", str(dec)) == 0
        assert json.loads(dec.read_text())["category_text"] == "cat"

        ckpt = tmp_path / "enc.cclp"
        metrics = tmp_path / "m.csv"
        assert self.run("train-encoders", "--data", str(data), "--out", str(ckpt),
                        "--epochs", "2", "--shots", "4", "--metrics", str(metrics)) == 0
        assert ckpt.exists()
        header = metrics.read_text().splitlines()[0]
        assert header.startswith("epoch,split,style_top1,category_top1")

        assert self.run("eval-classify", "--checkpoint", str(ckpt), "--data", str(data)) == 0

        sweep_csv = tmp_path / "s.csv"
        assert self.run("sweep", "--axis", "alpha", "--checkpoint", str(ckpt),
                        "--data", str(data), "--out", str(sweep_csv), "--grid", "0.0,0.8") == 0
        assert len(sweep_csv.read_text().splitlines()) == 3

    def test_eval_and_alpha_sweep_read_only_the_test_split(self, spec, data_dir, tmp_path):
        only_test = tmp_path / "only-test"
        only_test.mkdir()
        (only_test / "clf_test.jsonl").write_bytes((data_dir / "clf_test.jsonl").read_bytes())
        ckpt = tmp_path / "enc.cclp"
        save_encoder_checkpoint(ckpt, fresh_bundle(spec, TrainConfig(epochs=0)), TrainConfig(epochs=0), spec)
        assert self.run("eval-classify", "--checkpoint", str(ckpt), "--data", str(only_test)) == 0
        assert self.run("sweep", "--axis", "alpha", "--checkpoint", str(ckpt), "--data", str(only_test),
                        "--out", str(tmp_path / "s.csv"), "--grid", "0.0") == 0

    def test_validation_errors_exit_one(self, tmp_path):
        assert self.run("train-encoders", "--data", str(tmp_path / "missing"),
                        "--out", str(tmp_path / "x.cclp")) == 1
        bad_cfg = tmp_path / "bad.json"
        bad_cfg.write_text('{"bogus_key": 1}')
        data = tmp_path / "d"
        write_dataset_dir(SyntheticSpec(n_train=2, n_test=1), data)
        assert self.run("train-encoders", "--data", str(data), "--out",
                        str(tmp_path / "x.cclp"), "--config", str(bad_cfg)) == 1

    def test_unknown_flag_exits_one(self, capsys):
        assert self.run("gen-data", "--nope") == 1

    def test_truncated_checkpoint_exits_one(self, tmp_path, data_dir):
        ckpt = tmp_path / "short.cclp"
        ckpt.write_bytes(b"CCLP\x01\x00")
        assert self.run("eval-classify", "--checkpoint", str(ckpt), "--data", str(data_dir)) == 1

    def test_gradcheck_passes_and_mutation_fails(self, monkeypatch, capsys):
        assert self.run("gradcheck", "--seeds", "2") == 0
        out = capsys.readouterr().out
        names = [line.split()[0] for line in out.splitlines() if line.endswith(" ok")]
        assert names == ["style-ce", "style-confusion", "style-labeled", "style-labeled-negated-ce",
                         "category-ce", "category-confusion", "category-labeled", "category-labeled-negated-ce",
                         "style-triplet", "category-triplet", "denoiser-step", "denoiser-grouped",
                         "denoiser-one-timestep"]

        import stylecat.train as train_mod

        real = train_mod._ad_grads

        def flipped(loss_fn, params):
            return [-g for g in real(loss_fn, params)]

        monkeypatch.setattr(train_mod, "_ad_grads", flipped)
        assert self.run("gradcheck", "--seeds", "2") == 2

    def test_gradcheck_meets_the_triplet_zero_distance(self, monkeypatch, capsys):
        """Each triplet world holds a zero anchor-positive distance, so a hinge without its
        ``d > 0`` guard divides 0 by 0 there and fails both triplet audits, and only those."""
        import stylecat.losses as losses_mod

        real = losses_mod._hinge

        def unguarded(anchor, positive, negative, margin):
            value, _ = real(anchor, positive, negative, margin)
            diff_pos, diff_neg = anchor - positive, anchor - negative
            d_pos = np.linalg.norm(diff_pos, axis=1, keepdims=True)
            d_neg = np.linalg.norm(diff_neg, axis=1, keepdims=True)
            active = (d_pos - d_neg + margin > 0) / len(d_pos)

            def grad(g):
                u_pos = diff_pos / d_pos * (float(g) * active)
                return u_pos - diff_neg / d_neg * (float(g) * active), -u_pos

            return value, grad

        monkeypatch.setattr(losses_mod, "_hinge", unguarded)
        with np.errstate(invalid="ignore"):
            assert self.run("gradcheck", "--seeds", "2") == 2
        failed = [line.split()[0] for line in capsys.readouterr().out.splitlines() if line.endswith("inf FAIL")]
        assert failed == ["style-triplet", "category-triplet"]

    @pytest.mark.parametrize("argv", [["--seeds", "0"], ["--seeds", "-3"], ["--tol", "nan"], ["--tol", "0"],
                                      ["--tol", "inf"]], ids=["seeds-0", "seeds-minus-3", "tol-nan", "tol-0", "tol-inf"])
    def test_vacuous_gradcheck_exits_one(self, capsys, argv):
        assert self.run("gradcheck", *argv) == 1
        captured = capsys.readouterr()
        assert "within tolerance" not in captured.out and "Traceback" not in captured.err

    @pytest.mark.parametrize("flags, config, message", [
        (["--lr", "nan"], None, "lr must be a finite number, got nan"),
        (["--lambda1", "nan"], None, "lambda1 must be a finite number, got nan"),
        (["--logit-scale", "inf"], None, "logit_scale must be a finite number, got inf"),
        ([], {"lr": "0.1"}, "lr must be a finite number, got '0.1'"),
        ([], {"epochs": 1.5}, "epochs must be an integer, got 1.5"),
    ], ids=["lr-nan", "lambda1-nan", "logit-scale-inf", "lr-string", "epochs-float"])
    def test_non_finite_or_mistyped_config_exits_one(self, data_dir, tmp_path, capsys, flags, config, message):
        if config is not None:
            (tmp_path / "c.json").write_text(json.dumps(config))
            flags = ["--config", str(tmp_path / "c.json")]
        assert self.run("train-encoders", "--data", str(data_dir), "--out", str(tmp_path / "e.cclp"), *flags) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not (tmp_path / "e.cclp").exists()

    @pytest.mark.parametrize("edit, message", [
        ({"n_styles": "3"}, "n_styles must be an integer, got '3'"),
        ({"n_categories": 4.0}, "n_categories must be an integer, got 4.0"),
        ({"n_train": True}, "n_train must be an integer, got True"),
        ({"n_test": 2.5}, "n_test must be an integer, got 2.5"),
        ({"seed": 1.5}, "seed must be an integer, got 1.5"),
        ({"seed": "x"}, "seed must be an integer, got 'x'"),
        ({"style_names": [5, "neon", "pastel"]}, "style_names must be a list of one-word names, got [5, "),
        ({"category_names": ["cat", "hot dog", "car", "tree"]}, "category_names must be a list of one-word "
                                                                "names, got ['cat', 'hot dog', 'car', 'tree']"),
        ({"style_names": ["sketch", "sketch", "neon"]}, "repeat ['sketch']"),
        ({"category_names": ["cat", "Neon", "car", "tree"]}, "repeat ['neon']"),
    ], ids=["n-styles-string", "n-categories-float", "n-train-bool", "n-test-float", "seed-float", "seed-string",
            "name-int", "name-two-words", "names-repeat", "names-repeat-across-factors"])
    def test_damaged_spec_exits_one(self, tmp_path, capsys, edit, message):
        data = tmp_path / "d"
        write_dataset_dir(SyntheticSpec(n_train=2, n_test=1), data)
        spec = json.loads((data / "spec.json").read_text(encoding="utf-8"))
        (data / "spec.json").write_text(json.dumps({**spec, **edit}), encoding="utf-8")
        assert self.run("train-encoders", "--data", str(data), "--out", str(tmp_path / "e.cclp"),
                        "--epochs", "1") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err
        assert not (tmp_path / "e.cclp").exists()

    @pytest.mark.parametrize("noise", ["nan", "inf", "-0.1"])
    def test_bad_noise_exits_one(self, tmp_path, capsys, noise):
        assert self.run("gen-data", "--out", str(tmp_path / "d"), "--noise", noise) == 1
        err = capsys.readouterr().err
        assert "noise must be a finite number >= 0" in err and "Traceback" not in err

    def test_empty_test_split_exits_one(self, spec, tmp_path, capsys):
        data = tmp_path / "data"
        data.mkdir()
        (data / "clf_test.jsonl").write_text("")
        ckpt = tmp_path / "enc.cclp"
        save_encoder_checkpoint(ckpt, fresh_bundle(spec, TrainConfig(epochs=0)), TrainConfig(epochs=0), spec)
        assert self.run("eval-classify", "--checkpoint", str(ckpt), "--data", str(data)) == 1
        err = capsys.readouterr().err
        assert "no samples to evaluate" in err and "Traceback" not in err

    def test_sample_count_and_determinism(self, tmp_path):
        data = tmp_path / "data"
        self.run("gen-data", "--out", str(data), "--train-per-cell", "8", "--test-per-cell", "4")
        enc = tmp_path / "enc.cclp"
        self.run("train-encoders", "--data", str(data), "--out", str(enc),
                 "--epochs", "1", "--shots", "2")
        diff = tmp_path / "diff.cclp"
        assert self.run("train-diffusion", "--data", str(data), "--encoders", str(enc),
                        "--out", str(diff), "--steps", "30", "--timesteps", "20") == 0
        s1, s2 = tmp_path / "s1.csv", tmp_path / "s2.csv"
        for out in (s1, s2):
            assert self.run("sample", "--checkpoint", str(diff), "--style", "sketch",
                            "--category", "cat", "-n", "9", "--seed", "5", "--out", str(out)) == 0
        assert len(s1.read_text().splitlines()) == 10  # header + 9 samples
        assert s1.read_bytes() == s2.read_bytes()

    def test_train_diffusion_zero_steps_exits_one(self, generator, tmp_path, capsys):
        data = generator.parent / "data"
        assert self.run("train-diffusion", "--data", str(data), "--encoders", str(generator.parent / "enc.cclp"),
                        "--out", str(tmp_path / "d.cclp"), "--steps", "0") == 1
        err = capsys.readouterr().err
        assert "diffusion_steps and diffusion_batch must be >= 1" in err and "Traceback" not in err
        assert not (tmp_path / "d.cclp").exists()

    def test_guidance_eval_writes_one_matched_accuracy_per_cell(self, generator, tmp_path, capsys):
        out = tmp_path / "g.csv"
        assert self.run("guidance-eval", "--checkpoint", str(generator), "--out", str(out), "--n-per-cell", "2") == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "style,category,matched_accuracy" and len(lines) == 1 + 12
        assert "matched accuracy" in capsys.readouterr().out

    def test_sample_zero_writes_header_only(self, generator, tmp_path):
        out = tmp_path / "s.csv"
        assert self.run("sample", "--checkpoint", str(generator), "--style", "sketch", "--category", "cat",
                        "-n", "0", "--out", str(out)) == 0
        assert out.read_text() == "x,y,style_prompt,category_prompt,oracle_style,oracle_category\n"

    @pytest.mark.parametrize("command", ["sample", "guidance-eval"])
    def test_sampling_seed_stays_out_of_config(self, monkeypatch, command):
        monkeypatch.delenv("CCLIP_SEED", raising=False)
        required = ["--style", "x", "--category", "x"] if command == "sample" else []
        args = cli_mod._build_parser().parse_args([command, "--checkpoint", "x", "--out", "x", *required,
                                                   "--seed", "5"])
        assert args.sample_seed == 5 and cli_mod._load_config(args).seed == TrainConfig().seed

    @pytest.mark.parametrize("argv, message", [
        (["sample", "--style", "sketch", "--category", "cat", "-n", "-3"], "n must be >= 0, got -3"),
        (["guidance-eval", "--n-per-cell", "0"], "n_per_cell must be >= 1, got 0"),
        (["guidance-eval", "--n-per-cell", "-2"], "n_per_cell must be >= 1, got -2"),
    ], ids=["sample-n-minus-3", "n-per-cell-0", "n-per-cell-minus-2"])
    def test_bad_sample_counts_exit_one(self, generator, tmp_path, capsys, argv, message):
        assert self.run(*argv, "--checkpoint", str(generator), "--out", str(tmp_path / "s.csv")) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("split, edit", [("clf_test", "point"), ("diff_train", "grid"), ("clf_test", "four-rows"),
                                             ("clf_test", "style-9"), ("clf_test", "value-2")])
    def test_damaged_dataset_exits_one(self, spec, data_dir, tmp_path, capsys, split, edit):
        grid = json.loads((data_dir / "clf_test.jsonl").read_text().splitlines()[0])
        record = {"point": json.loads((data_dir / "diff_train.jsonl").read_text().splitlines()[0]), "grid": grid,
                  "four-rows": {**grid, "grid": grid["grid"][:4]}, "style-9": {**grid, "style": 9},
                  "value-2": {**grid, "grid": (np.array(grid["grid"]) + 1.0).tolist()}}[edit]
        data = tmp_path / "data"
        data.mkdir()
        path = data / f"{split}.jsonl"
        lines = (data_dir / path.name).read_text().splitlines()
        path.write_text("\n".join([*lines, json.dumps(record)]) + "\n")
        ckpt = tmp_path / "enc.cclp"
        save_encoder_checkpoint(ckpt, fresh_bundle(spec, TrainConfig(epochs=0)), TrainConfig(epochs=0), spec)
        if split == "clf_test":
            argv = ["eval-classify", "--checkpoint", str(ckpt), "--data", str(data)]
        else:
            argv = ["train-diffusion", "--encoders", str(ckpt), "--data", str(data), "--out", str(tmp_path / "d")]
        assert self.run(*argv) == 1
        err = capsys.readouterr().err
        assert f"error: {path}: " in err and f"line {len(lines) + 1}" in err and "Traceback" not in err

    def test_lambda_sweep_cli_writes_one_row_per_grid_point(self, data_dir, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"epochs": 1, "shots": 4}))
        out = tmp_path / "s.csv"
        assert self.run("sweep", "--axis", "lambda", "--data", str(data_dir), "--config", str(config),
                        "--grid", "0.0,0.3", "--out", str(out)) == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 3
        assert [r.split(",")[8:10] for r in rows[1:]] == [["0.0", "0.0"], ["0.3", "0.3"]]

    def test_sample_refuses_nan_checkpoint(self, generator, tmp_path, capsys):
        """A NaN weight would be mapped to 0 by the ReLU and sample finite points; the load refuses it."""
        arrays, meta = load_checkpoint(generator)
        sentinel = np.float32(1234.5)
        arrays["denoiser.mlp_w1"][0, 0] = sentinel
        path = tmp_path / "nan.cclp"
        save_checkpoint(path, arrays, meta)
        blob = path.read_bytes()
        assert blob.count(sentinel.tobytes()) == 1
        path.write_bytes(blob.replace(sentinel.tobytes(), np.float32(np.nan).tobytes()))
        out = tmp_path / "s.csv"
        assert self.run("sample", "--checkpoint", str(path), "--style", "sketch", "--category", "cat",
                        "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert f"error: {path}: array denoiser.mlp_w1 holds a non-finite value" in err and "Traceback" not in err
        assert not out.exists()

    def test_sample_requires_denoiser(self, tmp_path):
        data = tmp_path / "data"
        self.run("gen-data", "--out", str(data), "--train-per-cell", "4", "--test-per-cell", "2")
        enc = tmp_path / "enc.cclp"
        self.run("train-encoders", "--data", str(data), "--out", str(enc),
                 "--epochs", "0")
        assert self.run("sample", "--checkpoint", str(enc), "--style", "sketch",
                        "--category", "cat", "--out", str(tmp_path / "s.csv")) == 1

    def test_env_seed_override(self, tmp_path, monkeypatch):
        data = tmp_path / "data"
        self.run("gen-data", "--out", str(data), "--train-per-cell", "4", "--test-per-cell", "2")
        out1, out2 = tmp_path / "a.cclp", tmp_path / "b.cclp"
        monkeypatch.setenv("CCLIP_SEED", "7")
        self.run("train-encoders", "--data", str(data), "--out", str(out1),
                 "--epochs", "1", "--seed", "0")
        monkeypatch.delenv("CCLIP_SEED")
        self.run("train-encoders", "--data", str(data), "--out", str(out2),
                 "--epochs", "1", "--seed", "7")
        assert out1.read_bytes() == out2.read_bytes()
