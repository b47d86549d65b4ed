"""Trainer orchestration and the CLI surface: config validation,
determinism, checkpoints, sweeps, and exit codes."""

import argparse
import hashlib
import json
import os
import re
import shutil
from dataclasses import fields, make_dataclass, replace
from pathlib import Path

import numpy as np
import pytest

import stylecat.cli as cli_mod
import stylecat.tensor as tensor_mod
import stylecat.train as train_mod
from stylecat.backbone import embed_captions
from stylecat.captions import CategoryLexicon, decompose
from stylecat.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from stylecat.cli import main
from stylecat.datagen import (
    DATASET_FILES,
    DatasetError,
    SyntheticSpec,
    generate_classification_dataset,
    read_spec,
    write_dataset_dir,
)
from stylecat.diffusion import DenoiserParams, DiffusionSchedule
from stylecat.encoders import AdapterParams, adapt_array
from stylecat.losses import ConfigError
from stylecat.tensor import ParamGroup, Tensor, _node, backward
from stylecat.train import (
    Adam,
    TrainConfig,
    apply_seed_env,
    bundle_arrays,
    evaluate_classification,
    fresh_bundle,
    guidance_eval,
    load_encoder_checkpoint,
    save_encoder_checkpoint,
    subsample_shots,
    sweep,
    train_encoders,
    write_metrics_csv,
)

from layered_ops import adapt, layered_labeled, triplet_hinge

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
        for bad in (dict(epochs=-1), dict(lr=0.0), dict(alpha_style=1.5), dict(shots=0)):
            with pytest.raises(ConfigError):
                TrainConfig(**bad)
        with pytest.raises(ConfigError, match=r"^mode must be 'labeled' or 'unlabeled', got 'both'$"):
            TrainConfig(mode="both")
        with pytest.raises(ConfigError, match=r"^adversarial_mode must be 'uniform-kl' or 'negated-ce', got 'x'$"):
            TrainConfig(adversarial_mode="x")
        with pytest.raises(ConfigError, match=r"^seed must be >= 0, got -1$"):  # not numpy's nameless refusal
            TrainConfig(seed=-1)

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
        with pytest.raises(ConfigError, match=r"^seed must be >= 0, got -3$"):
            apply_seed_env(TrainConfig(), env={"CCLIP_SEED": "-3"})

    def test_non_finite_and_mistyped_values_rejected(self):
        for bad in (dict(lr=float("nan")), dict(margin2=float("inf")), dict(lr="0.1"), dict(alpha_style=None),
                    dict(epochs=1.5), dict(epochs=True), dict(shots=2.0), dict(dim="32"), dict(lr=10**400),
                    dict(margin1=-10**400)):
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
        """Over 420 steps, past t = 356 where ``1 - BETA1**t`` is 1.0, one group's values and moments equal
        per-tensor Adam byte for byte, from t = 1, through all-zero gradients and -0.0 entries; and
        the gradients stay readable."""
        rng = np.random.default_rng(17)
        init = [rng.standard_normal(shape) for shape in [(3, 4), (5,), (), (2, 2)]]
        flat, ref = free_group(*init), free_group(*init)
        opts = Adam(flat, lr=0.05), ReferenceAdam(ref, lr=0.05)
        assert 1.0 - Adam.BETA1**355 != 1.0 and 1.0 - Adam.BETA1**356 == 1.0
        for step in range(1, 421):
            grads = rng.standard_normal(flat.flat_grad.shape)
            grads[rng.random(grads.shape) < 0.3] = -0.0
            if step in (2, 355, 356, 357) or step % 50 == 0:
                grads[:] = -0.0 if step % 100 == 0 else 0.0
            flat.flat_grad[:] = grads
            ref.flat_grad[:] = grads
            for opt in opts:
                opt.step()
            assert flat.flat_grad.tobytes() == grads.tobytes(), step
            for f, r in zip(flat.tensors(), ref.tensors()):
                assert f.data.shape == r.data.shape and f.data.tobytes() == r.data.tobytes(), step
            for mine, theirs in ((opts[0].m, opts[1].m), (opts[0].v, opts[1].v)):
                assert mine.tobytes() == np.concatenate([x.ravel() for x in theirs]).tobytes(), step

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

    @pytest.mark.parametrize("mode", ["unlabeled", "labeled"])
    def test_lexicon_keyword_takes_only_the_category_names(self, spec, dataset, mode):
        """Captions split by the spec's category names: passing that lexicon changes nothing, another one
        (here with a style name added) is refused in either mode."""
        train, _ = dataset
        config = TrainConfig(mode=mode, epochs=1, shots=2)
        plain = bundle_arrays(train_encoders(config, spec, train)[0])
        names = CategoryLexicon.from_words(spec.category_names)
        same = bundle_arrays(train_encoders(config, spec, train, lexicon=names)[0])
        assert all(plain[k].tobytes() == same[k].tobytes() for k in plain) and plain.keys() == same.keys()
        other = CategoryLexicon.from_words([*spec.category_names, "neon"])
        message = ("captions are split by the spec's category names ['car', 'cat', 'dog', 'tree'], "
                   "not by the lexicon ['car', 'cat', 'dog', 'neon', 'tree']")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            train_encoders(config, spec, train, lexicon=other)

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

    def test_unlabeled_run_calls_the_triplet_step_once_per_batch(self, spec, dataset, monkeypatch):
        """An unlabeled batch is one step of both adapters, entered once through ``style_triplet_loss``."""
        train, _ = dataset
        config = TrainConfig(mode="unlabeled", epochs=1, shots=4)
        counts = self._count_calls(monkeypatch, ("style_triplet_loss",))
        _, rows = train_encoders(config, spec, train, lexicon=CategoryLexicon.from_words(spec.category_names))
        batches = -(-len(subsample_shots(train, 4)) // config.batch_size)
        assert counts == {"style_triplet_loss": batches}
        assert not hasattr(train_mod, "category_triplet_loss")
        assert len(rows) == 1
        assert np.isfinite([rows[0]["style_loss"], rows[0]["category_loss"]]).all()

    def test_unlabeled_batch_runs_one_stacked_adapter_pass(self, spec, dataset, monkeypatch):
        """A batch adapts both kinds' text rows in one stacked (2, n, D) pass, and each epoch's evaluation
        adds one pass per kind. 2 epochs of 3 batches: 2 * (3 + 2) = 10."""
        import stylecat.encoders as encoders_mod
        import stylecat.losses as losses_mod

        shapes = []

        def counted(x, p, _real=encoders_mod.adapt_array):
            shapes.append(x.shape)
            return _real(x, p)

        for module in (encoders_mod, losses_mod, train_mod):
            monkeypatch.setattr(module, "adapt_array", counted)
        train, _ = dataset
        config = TrainConfig(mode="unlabeled", epochs=2, shots=8)
        assert -(-len(subsample_shots(train, 8)) // config.batch_size) == 3
        train_encoders(config, spec, train, lexicon=CategoryLexicon.from_words(spec.category_names))
        assert len(shapes) == 10
        assert sum(len(shape) == 3 and shape[0] == 2 for shape in shapes) == 6

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("mode", ["unlabeled", "labeled"])
    def test_run_equals_the_layered_reference_loop(self, spec, dataset, mode, seed):
        """Both adapters and the loss rows equal a loop that back-propagates the composition of the
        single-layer ops on every step, to the bit; unlabeled, active or not."""
        train, _ = dataset
        config = TrainConfig(mode=mode, epochs=3, seed=seed)
        lexicon = CategoryLexicon.from_words(spec.category_names)
        bundle, rows = train_encoders(config, spec, train, lexicon=lexicon)
        ref_bundle, ref_losses, active = reference_run(config, spec, train, lexicon)
        assert [(r["style_loss"], r["category_loss"]) for r in rows] == ref_losses
        for kind in ("style", "category"):
            assert bundle.adapter(kind).flat.tobytes() == ref_bundle.adapter(kind).flat.tobytes()
        assert (any(active) and not all(active)) if mode == "unlabeled" else all(active)

    def test_a_bad_label_fails_before_the_first_objective(self, spec, dataset, monkeypatch):
        """The run checks every label once, before its first step, with the objectives' error."""
        train, _ = dataset
        config = TrainConfig(epochs=1, shots=4)
        data = subsample_shots(train, 4)
        data[5] = replace(data[5], style=spec.n_styles)
        counts = self._count_calls(monkeypatch, ("style_labeled_loss",))
        with pytest.raises(ValueError, match=rf"labels must lie in \[0, {spec.n_styles}\)"):
            train_encoders(config, spec, data)
        assert counts == {"style_labeled_loss": 0}

    def test_labeled_run_calls_style_loss_once_per_batch(self, spec, dataset, monkeypatch):
        """A labeled batch is one step of both adapters, entered once through ``style_labeled_loss``."""
        train, _ = dataset
        config = TrainConfig(epochs=1, shots=4)
        counts = self._count_calls(monkeypatch, ("style_labeled_loss",))
        _, rows = train_encoders(config, spec, train)
        batches = -(-len(subsample_shots(train, 4)) // config.batch_size)
        assert counts == {"style_labeled_loss": batches}
        assert not hasattr(train_mod, "category_labeled_loss")
        assert np.isfinite([rows[0]["style_loss"], rows[0]["category_loss"]]).all()

    def test_labeled_run_enters_no_backward_and_no_zero_grad(self, spec, dataset, monkeypatch):
        """A labeled step's gradients come from ``style_labeled_loss`` alone: no tape walk, no zeroing."""
        def never(*args, **kwargs):
            raise AssertionError("labeled train_encoders entered backward or zero_grad")

        for owner, name in ((tensor_mod, "backward"), (ParamGroup, "zero_grad"), (Tensor, "zero_grad")):
            monkeypatch.setattr(owner, name, never)
        _, rows = train_encoders(TrainConfig(epochs=2, shots=4), spec, dataset[0])
        assert len(rows) == 2 and np.isfinite([[r["style_loss"], r["category_loss"]] for r in rows]).all()


def reference_run(config, spec, train, lexicon):
    """``train_encoders``' loop with each kind's objective the composition of the single-layer ops and
    each kind's own Adam. Labeled, as it was before a batch became one stacked step: one step per kind,
    style then category, of ``layered_ops.layered_labeled``. Unlabeled, one step of both: both layered
    hinges, ``triplet_hinge(adapt(...))``, built from the batch's parameters before either Adam steps,
    then both Adams. Returns (bundle, per-epoch mean style and category losses, whether each kind's loss
    of each batch was positive)."""
    data = subsample_shots(train, config.shots)
    bundle = fresh_bundle(spec, config)
    opts = {kind: Adam(bundle.adapter(kind), config.lr) for kind in ("style", "category")}
    rng = np.random.default_rng([config.seed, 11])
    f_all, labels = train_mod._features(data, bundle.backbone)
    if config.mode == "unlabeled":
        pairs = [decompose(s.caption, lexicon) for s in data]
        unique = list(dict.fromkeys(text for pair in pairs for text in pair))
        frozen = dict(zip(unique, embed_captions(unique, bundle.backbone)))
        texts = {kind: np.stack([frozen[pair[k]] for pair in pairs]) for k, kind in enumerate(("style", "category"))}
    steps = (("style", "category", config.margin1), ("category", "style", config.margin2))
    losses, active = [], []
    for _ in range(config.epochs):
        order = rng.permutation(len(data))
        epoch = {"style": [], "category": []}
        for start in range(0, len(data), config.batch_size):
            idx = order[start : start + config.batch_size]
            if config.mode == "unlabeled":
                hinges = {kind: triplet_hinge(adapt(Tensor(texts[kind][idx]), bundle.adapter(kind)), Tensor(f_all[idx]),
                                              Tensor(adapt_array(texts[other][idx], bundle.adapter(other))[0]), margin)
                          for kind, other, margin in steps}
            for kind, _, _ in steps:
                if config.mode == "labeled":
                    loss = layered_labeled(f_all[idx], {k: y[idx] for k, y in labels.items()}, bundle, config, kind)
                else:
                    loss = hinges[kind]
                bundle.adapter(kind).zero_grad()
                backward(loss)
                if config.mode == "labeled":
                    opts[kind].step()
                epoch[kind].append(loss.item())
                active.append(loss.item() > 0)
            if config.mode == "unlabeled":
                for opt in opts.values():
                    opt.step()
        losses.append((float(np.mean(epoch["style"])), float(np.mean(epoch["category"]))))
    return bundle, losses, active


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
        # rebuilt by training's constructor, then holding the stored adapters bit for bit
        stored, fresh = load_checkpoint(path)[0], fresh_bundle(spec, config)
        assert loaded.backbone.checksum() == fresh.backbone.checksum()
        assert loaded.prompt_features.keys() == fresh.prompt_features.keys()
        assert all(np.array_equal(loaded.prompt_features[k], v) for k, v in fresh.prompt_features.items())
        assert bundle_arrays(loaded).keys() == stored.keys()
        assert all(bundle_arrays(loaded)[k].tobytes() == v.tobytes() for k, v in stored.items())

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
        """Only a config without the retired keys loads: a retired key is unknown even at its old default."""
        path, (arrays, meta) = saved
        meta["config"].update(retired)
        old = tmp_path / "old.cclp"
        save_checkpoint(old, arrays, meta)
        if retired:
            unknown = re.escape(f"{old}: bad config or dataset spec: unknown config keys: {sorted(retired)}")
            with pytest.raises(CheckpointError, match=unknown):
                load_encoder_checkpoint(old)
            return
        bundle, config, _, _ = load_encoder_checkpoint(old)
        assert config == TrainConfig(epochs=0)
        assert bundle_arrays(bundle).keys() == arrays.keys()

    def test_warmed_up_checkpoint_rejected(self, saved, tmp_path):
        path, (arrays, meta) = saved
        meta["config"].update(pretrain_contrastive=True, contrastive_steps=100, contrastive_temperature=0.07)
        save_checkpoint(path, arrays, meta)
        unknown = "['contrastive_steps', 'contrastive_temperature', 'pretrain_contrastive']"
        with pytest.raises(CheckpointError, match=re.escape(f"{path}: bad config or dataset spec: "
                                                            f"unknown config keys: {unknown}")):
            load_encoder_checkpoint(path)

    @pytest.mark.parametrize("retired", [{"backbone_seed": 3}, {"word_noise": 0.2}, {"beta1": 0.5}])
    def test_checkpoint_of_other_backbone_rejected(self, saved, data_dir, retired):
        path, (arrays, meta) = saved
        meta["config"].update(retired)
        save_checkpoint(path, arrays, meta)
        with pytest.raises(CheckpointError, match=re.escape(f"{path}: bad config or dataset spec: "
                                                            f"unknown config keys: {sorted(retired)}")):
            load_encoder_checkpoint(path)
        assert main(["eval-classify", "--checkpoint", str(path), "--data", str(data_dir)]) == 1

    @pytest.mark.parametrize("edit", ["not-a-dict", "no-config", "config-not-a-dict", "no-spec",
                                      "config-type", "spec-type", "dim-3", "dim-8"])
    def test_malformed_metadata_rejected(self, saved, data_dir, capsys, edit):
        """Refused with the file named, also a config whose dim training's constructors refuse: dim 3
        leaves the adapters no hidden unit, and dim 8 fits its adapters but not the spec's factor codes."""
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
        elif edit == "spec-type":
            meta["dataset_spec"]["n_styles"] = "3"
        else:
            meta["config"]["dim"] = int(edit[-1])
            if edit == "dim-8":
                arrays = {f"{kind}_adapter.{k}": v for kind in ("style", "category")
                          for k, v in AdapterParams.init(8).arrays().items()}
        save_checkpoint(path, arrays, meta)
        with pytest.raises(CheckpointError, match=re.escape(str(path))):
            load_encoder_checkpoint(path)
        assert main(["eval-classify", "--checkpoint", str(path), "--data", str(data_dir)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and "Traceback" not in err

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
        if edit == "retired-hidden":  # its config is refused before any array is read
            match = re.escape(f"{path}: bad config or dataset spec: unknown config keys: ['hidden']")
        else:
            group, array = ("category_adapter", "b2") if edit == "wrong-rank" else ("style_adapter", "w1")
            match = rf"{re.escape(str(path))}: {group}: .*array {array} has shape"
        with pytest.raises(CheckpointError, match=match):
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
        refusal = f"{old}: denoiser: DenoiserParams: missing arrays ['ws'], unknown arrays ['wk', 'wo', 'wq']"
        with pytest.raises(CheckpointError, match=re.escape(refusal)):
            load_encoder_checkpoint(old)
        assert main(["sample", "--checkpoint", str(old), "--style", "sketch", "--category", "cat",
                     "--out", str(tmp_path / "s.csv")]) == 1
        assert f"error: {refusal}" in capsys.readouterr().err
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
        with pytest.raises(CheckpointError, match=re.escape(f"{path}: denoiser: DenoiserParams: missing arrays [], "
                                                            "unknown arrays ['cond_offsets']")):
            load_encoder_checkpoint(path)
        del arrays["denoiser.cond_offsets"]
        save_checkpoint(path, arrays, meta)
        assert load_encoder_checkpoint(path)[3].arrays().keys() == denoiser.arrays().keys()

    @pytest.mark.parametrize("edit", ["missing", "extra", "bare-prefix", "unknown-group"])
    def test_wrong_array_names_rejected(self, saved, data_dir, edit):
        path, (arrays, meta) = saved
        if edit == "missing":
            del arrays["style_adapter.w1"]
        elif edit == "extra":
            arrays["category_adapter.w3"] = np.zeros(2)
        elif edit == "bare-prefix":
            arrays["style_adapter"] = np.zeros(2)
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
        rows = sweep("alpha", None, config, test, bundle)
        assert len(rows) == 6
        assert [r["alpha_style"] for r in rows] == [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]

    def test_single_point_grid(self, trained):
        config, bundle, test = trained
        rows = sweep("alpha", (0.4,), config, test, bundle)
        assert len(rows) == 1

    def test_alpha_zero_row_equals_zero_shot_baseline(self, spec, trained):
        config, bundle, test = trained
        row = sweep("alpha", (0.0,), config, test, bundle)[0]
        init = fresh_bundle(spec, config)
        zs = evaluate_classification(init, test, 0.0, 0.0, config.logit_scale)
        assert (row["style_top1"], row["category_top1"]) == zs

    def test_lambda_sweep_retrains_per_grid_point(self, spec, dataset):
        train, test = dataset
        rows = sweep("lambda", (0.0, 0.3), TrainConfig(epochs=1, shots=4), test, spec=spec, train_samples=train)
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


# Every option of every command: its strings, parser type, choices, and whether it is required.
OPTION_TABLE = {
    "gen-data": ["--out required", "--styles int", "--categories int", "--train-per-cell int",
                 "--test-per-cell int", "--noise float", "--seed int"],
    "train-encoders": ["--data required", "--out required", "--config", "--metrics",
                       "--mode {labeled,unlabeled}", "--epochs int", "--batch-size int", "--lr float",
                       "--seed int", "--shots int", "--lambda1 float", "--lambda2 float", "--margin1 float",
                       "--margin2 float", "--adversarial-mode {uniform-kl,negated-ce}", "--logit-scale float"],
    "eval-classify": ["--checkpoint required", "--data required", "--alpha-style float", "--alpha-category float",
                      "--out"],
    "sweep": ["--axis {alpha,lambda} required", "--data required", "--out required", "--checkpoint", "--config",
              "--grid grid", "--seed int"],
    "train-diffusion": ["--data required", "--encoders required", "--out required", "--metrics", "--steps int",
                        "--batch-size int", "--lr float", "--seed int", "--alpha float", "--timesteps int"],
    "sample": ["--checkpoint required", "--style required", "--category required", "-n/--count int",
               "--seed int", "--alpha float", "--out required"],
    "guidance-eval": ["--checkpoint required", "--out required", "--n-per-cell int", "--seed int", "--alpha float"],
    "gradcheck": ["--seeds int", "--tol float"],
}


def test_option_table_is_pinned(tmp_path):
    """No option is lost, added or retyped; and ``gen-data`` with no option writes the default spec."""
    def describe(action):
        choices = "{" + ",".join(action.choices) + "}" if action.choices else None
        parts = ("/".join(action.option_strings), action.type and action.type.__name__, choices,
                 action.required and "required")
        return " ".join(filter(None, parts))

    sub = next(a for a in cli_mod._build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    table = {command: [describe(a) for a in parser._actions if a.dest != "help"]
             for command, parser in sub.choices.items()}
    assert table == OPTION_TABLE
    assert main(["gen-data", "--out", str(tmp_path / "d")]) == 0
    assert read_spec(tmp_path / "d") == SyntheticSpec()


class TestCli:
    def run(self, *argv):
        return main(list(argv))

    def test_gen_train_eval_flow(self, tmp_path):
        data = tmp_path / "data"
        assert self.run("gen-data", "--out", str(data), "--train-per-cell", "8",
                        "--test-per-cell", "4") == 0
        assert sorted(path.name for path in data.iterdir()) == sorted(DATASET_FILES.values())

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

    def test_validation_errors_exit_one(self, tmp_path, capsys):
        assert self.run("train-encoders", "--data", str(tmp_path / "missing"),
                        "--out", str(tmp_path / "x.cclp")) == 1
        bad_cfg = tmp_path / "bad.json"
        bad_cfg.write_text('{"bogus_key": 1}')
        data = tmp_path / "d"
        write_dataset_dir(SyntheticSpec(n_train=2, n_test=1), data)
        assert self.run("train-encoders", "--data", str(data), "--out",
                        str(tmp_path / "x.cclp"), "--config", str(bad_cfg)) == 1
        # a directory where a file is expected: an OSError, reported with its path
        folder = tmp_path / "folder"
        folder.mkdir()
        capsys.readouterr()
        assert self.run("train-encoders", "--data", str(data), "--out", str(folder), "--epochs", "1") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(folder) in err

    def test_unwritable_out_fails_before_training(self, spec, data_dir, tmp_path, monkeypatch, capsys):
        """An --out that is a directory, or whose directory is missing, exits 1 before training starts."""
        def never(*args, **kwargs):
            raise AssertionError("training started")
        monkeypatch.setattr(cli_mod, "train_encoders", never)
        monkeypatch.setattr(cli_mod, "train_diffusion", never)
        enc = tmp_path / "enc.cclp"
        save_encoder_checkpoint(enc, fresh_bundle(spec, TrainConfig(epochs=0)), TrainConfig(epochs=0), spec)
        folder = tmp_path / "folder"
        folder.mkdir()
        capsys.readouterr()
        for out in (folder, tmp_path / "missing" / "x.cclp"):
            for argv in (("train-encoders", "--data", str(data_dir)),
                         ("train-diffusion", "--data", str(data_dir), "--encoders", str(enc))):
                assert self.run(*argv, "--out", str(out)) == 1
                err = capsys.readouterr().err
                assert err.startswith("error: ") and str(out) in err
        assert not (tmp_path / "missing").exists()

    @pytest.mark.parametrize("argv", [
        "sweep --axis lambda --data {data} --out {folder}",
        "sweep --axis alpha --checkpoint {ckpt} --data {data} --out {folder}",
        "eval-classify --checkpoint {ckpt} --data {data} --out {folder}",
        "guidance-eval --checkpoint {ckpt} --n-per-cell 1 --out {folder}",
        "sample --checkpoint {ckpt} --style neon --category cat --out {folder}",
        "train-encoders --data {data} --out {tmp}/x.cclp --metrics {tmp}/./x.cclp",
        "train-diffusion --data {data} --encoders {ckpt} --out {tmp}/x.cclp --metrics {tmp}/./x.cclp",
    ], ids=["sweep-lambda", "sweep-alpha", "eval-classify", "guidance-eval", "sample",
            "train-encoders-metrics", "train-diffusion-metrics"])
    def test_unwritable_outputs_fail_before_any_work(self, spec, data_dir, tmp_path, monkeypatch, capsys, argv):
        """An --out that is a directory, or --out and --metrics naming one file, exits 1 with a
        "cannot write" line before the command reads, trains, samples or prints anything."""
        def never(*args, **kwargs):
            raise AssertionError("the command started its work")
        for name in ("sweep", "eval_row", "guidance_eval", "ddpm_sample", "train_encoders", "train_diffusion"):
            monkeypatch.setattr(cli_mod, name, never)
        config = TrainConfig(epochs=0, timesteps=4)
        ckpt = tmp_path / "gen.cclp"
        save_encoder_checkpoint(ckpt, fresh_bundle(spec, config), config, spec,
                                denoiser=DenoiserParams.init(dim=config.dim, steps=config.timesteps))
        (tmp_path / "folder").mkdir()
        capsys.readouterr()
        assert self.run(*argv.format(data=data_dir, ckpt=ckpt, folder=tmp_path / "folder", tmp=tmp_path).split()) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot write ") and "Traceback" not in captured.err
        assert not (tmp_path / "x.cclp").exists()

    @pytest.mark.parametrize("argv", [
        "eval-classify --checkpoint {ckpt} --data {data} --out {ckpt}",
        "sweep --axis alpha --checkpoint {ckpt} --data {data} --out {tmp}/./gen.cclp",
        "sample --checkpoint {ckpt} --style neon --category cat --out {ckpt}",
        "guidance-eval --checkpoint {ckpt} --n-per-cell 1 --out {ckpt}",
        "train-diffusion --data {data} --encoders {ckpt} --out {ckpt} --steps 2",
        "train-diffusion --data {data} --encoders {ckpt} --out {tmp}/d.cclp --metrics {ckpt} --steps 2",
        "train-encoders --data {data} --config {ckpt} --out {ckpt}",
        "eval-classify --checkpoint {ckpt} --data {data} --out {data}/clf_test.jsonl",
        "train-encoders --data {data} --out {tmp}/d.cclp --metrics {data}/clf_train.jsonl",
        "train-diffusion --data {data} --encoders {ckpt} --out {data}/diff_train.jsonl --steps 2",
        "sweep --axis lambda --data {data} --out {data}/./spec.json",
    ], ids=["eval-classify", "sweep-alpha", "sample", "guidance-eval", "train-diffusion",
            "train-diffusion-metrics", "train-encoders-config", "eval-classify-data",
            "train-encoders-metrics-data", "train-diffusion-data", "sweep-lambda-data"])
    def test_an_output_naming_an_input_is_refused(self, spec, data_dir, tmp_path, monkeypatch, capsys, argv):
        """An --out or --metrics that names a file the command reads, by its resolved path, or a file
        of the --data directory, exits 1 with a "cannot write" line before any work, and leaves the
        checkpoint's and the dataset's bytes as they were."""
        def never(*args, **kwargs):
            raise AssertionError("the command started its work")
        for name in ("sweep", "eval_row", "guidance_eval", "ddpm_sample", "train_encoders", "train_diffusion"):
            monkeypatch.setattr(cli_mod, name, never)
        config = TrainConfig(epochs=0, timesteps=4)
        ckpt = tmp_path / "gen.cclp"
        save_encoder_checkpoint(ckpt, fresh_bundle(spec, config), config, spec,
                                denoiser=DenoiserParams.init(dim=config.dim, steps=config.timesteps))
        before = ckpt.read_bytes()
        dataset = {path.name: path.read_bytes() for path in data_dir.iterdir()}
        capsys.readouterr()
        assert self.run(*argv.format(data=data_dir, ckpt=ckpt, tmp=tmp_path).split()) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert captured.err.startswith("error: cannot write ") and "names the same file" in captured.err
        assert ckpt.read_bytes() == before and not (tmp_path / "d.cclp").exists()
        assert {path.name: path.read_bytes() for path in data_dir.iterdir()} == dataset

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
        assert names == ["style-labeled", "style-labeled-negated-ce", "style-labeled-lambda0", "category-labeled",
                         "category-labeled-negated-ce", "category-labeled-lambda0", "style-triplet",
                         "category-triplet", "denoiser-train-step"]

        import stylecat.train as train_mod

        real = train_mod._ad_grads

        def flipped(loss_fn, params):
            return [-g for g in real(loss_fn, params)]

        monkeypatch.setattr(train_mod, "_ad_grads", flipped)
        assert self.run("gradcheck", "--seeds", "2") == 2

    @pytest.mark.parametrize("mutation, failing", [
        ("confusion-sign", ["style-labeled", "category-labeled"]),
        ("ce-times-batch", [f"{kind}-labeled{mode}" for kind in ("style", "category")
                            for mode in ("", "-negated-ce", "-lambda0")]),
    ], ids=["confusion-sign", "ce-times-batch"])
    def test_gradcheck_catches_a_labeled_head_mutation(self, monkeypatch, capsys, mutation, failing):
        """A uniform-kl confusion backward with its sign flipped fails the two uniform-kl labeled
        audits, and only those; a cross-entropy backward scaled by the batch size fails all six
        labeled audits, negated-ce and lambda = 0 included, and nothing else."""
        import stylecat.losses as losses_mod

        real_confusion, real_ce = losses_mod._confusion, losses_mod._ce

        def flipped_confusion(logits, labels, mode):
            value, grad = real_confusion(logits, labels, mode)
            return value, (lambda g: -grad(g)) if mode == "uniform-kl" else grad

        def scaled_ce(logits, labels):
            value, grad = real_ce(logits, labels)
            return value, lambda g: grad(g) * len(labels)

        if mutation == "confusion-sign":
            monkeypatch.setattr(losses_mod, "_confusion", flipped_confusion)
        else:
            monkeypatch.setattr(losses_mod, "_ce", scaled_ce)
        assert self.run("gradcheck", "--seeds", "2") == 2
        failed = [line.split()[0] for line in capsys.readouterr().out.splitlines() if line.endswith(" FAIL")]
        assert failed == failing

    def test_gradcheck_catches_a_colliding_denoiser_scatter(self, monkeypatch, capsys):
        """A row gather's gradient that keeps only the last row of each target fails the one
        denoiser audit, and only it: its condition scatter meets a collision on every seed."""
        import stylecat.diffusion as diffusion_mod

        def last_write_wins(self, g, table, rows):
            out = np.zeros(table.shape)
            out[rows] = g
            return out

        monkeypatch.setattr(diffusion_mod._TrainBuffers, "_scatter", last_write_wins)
        assert self.run("gradcheck", "--seeds", "2") == 2
        failed = [line.split()[0] for line in capsys.readouterr().out.splitlines() if line.endswith(" FAIL")]
        assert failed == ["denoiser-train-step"]

    def test_gradcheck_catches_a_doubled_time_embedding_gradient(self, monkeypatch, capsys):
        """The denoiser audit reads the gradients that the fused step writes into ``flat_grad``:
        doubling the time-embedding one fails ``denoiser-train-step``, and only it."""
        import stylecat.diffusion as diffusion_mod

        real_grads = diffusion_mod._TrainBuffers._grads

        def doubled(self, g):
            real_grads(self, g)
            self.params.time_embed.grad *= 2.0

        monkeypatch.setattr(diffusion_mod._TrainBuffers, "_grads", doubled)
        assert self.run("gradcheck", "--seeds", "2") == 2
        failed = [line.split()[0] for line in capsys.readouterr().out.splitlines() if line.endswith(" FAIL")]
        assert failed == ["denoiser-train-step"]

    def test_gradcheck_meets_the_triplet_zero_distance(self, monkeypatch, capsys):
        """The triplet world's shared positive holds a zero anchor-positive distance for each kind, so a
        hinge without its ``d > 0`` guard divides 0 by 0 there and fails both triplet audits, and only those."""
        import stylecat.losses as losses_mod

        real = losses_mod._hinge

        def unguarded(anchor, positive, negative, margin):
            value, _, any_active = real(anchor, positive, negative, margin)
            diff_pos, diff_neg = anchor - positive, anchor - negative
            d_pos = np.linalg.norm(diff_pos, axis=-1, keepdims=True)
            d_neg = np.linalg.norm(diff_neg, axis=-1, keepdims=True)
            active = (d_pos - d_neg + np.asarray(margin)[..., None] > 0) / d_pos.shape[-2]

            def grad(g):
                u_pos = diff_pos / d_pos * (np.asarray(g)[..., None, None] * active)
                return u_pos - diff_neg / d_neg * (np.asarray(g)[..., None, None] * active), -u_pos

            return value, grad, any_active

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
        # integers that no float holds: let through, they overflow in Adam.step or the logits, or are saved as they are
        ([], {"epochs": 1, "lr": 10**400}, f"lr must be a finite number, got {10**400}"),
        ([], {"epochs": 1, "logit_scale": 10**400}, f"logit_scale must be a finite number, got {10**400}"),
        ([], {"epochs": 1, "margin1": 10**400}, f"margin1 must be a finite number, got {10**400}"),
    ], ids=["lr-nan", "lambda1-nan", "logit-scale-inf", "lr-string", "epochs-float", "lr-huge-int",
            "logit-scale-huge-int", "margin1-huge-int"])
    def test_non_finite_or_mistyped_config_exits_one(self, data_dir, tmp_path, capsys, flags, config, message):
        if config is not None:
            (tmp_path / "c.json").write_text(json.dumps(config))
            flags = ["--config", str(tmp_path / "c.json")]
        assert self.run("train-encoders", "--data", str(data_dir), "--out", str(tmp_path / "e.cclp"), *flags) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert config is None or err == f"error: config {tmp_path / 'c.json'}: {message}\n"
        assert not (tmp_path / "e.cclp").exists()

    @pytest.mark.parametrize("command", ["train-encoders", "sweep --axis lambda"])
    @pytest.mark.parametrize("config, message", [
        ({"epochs": 1, "foo": 2}, "unknown config keys: ['foo']"),
        ({"lr": "0.1"}, "lr must be a finite number, got '0.1'"),
    ], ids=["unknown-key", "lr-string"])
    def test_config_file_errors_name_the_file(self, data_dir, tmp_path, capsys, command, config, message):
        path = tmp_path / "c.json"
        path.write_text(json.dumps(config))
        assert self.run(*command.split(), "--data", str(data_dir), "--config", str(path),
                        "--out", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err == f"error: config {path}: {message}\n"
        assert not (tmp_path / "out").exists()

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
        ({"noise": 10**400}, f"noise must be a finite number >= 0, got {10**400}"),
        ({"style_names": ["cats", "neon", "pastel"]}, "category_names match ['cats']"),
    ], ids=["n-styles-string", "n-categories-float", "n-train-bool", "n-test-float", "seed-float", "seed-string",
            "name-int", "name-two-words", "names-repeat", "names-repeat-across-factors", "noise-huge-int",
            "style-name-a-category-plural"])
    def test_damaged_spec_exits_one(self, tmp_path, capsys, edit, message):
        data = tmp_path / "d"
        write_dataset_dir(SyntheticSpec(n_train=2, n_test=1), data)
        spec = json.loads((data / "spec.json").read_text(encoding="utf-8"))
        (data / "spec.json").write_text(json.dumps({**spec, **edit}), encoding="utf-8")
        assert self.run("train-encoders", "--data", str(data), "--out", str(tmp_path / "e.cclp"),
                        "--epochs", "1") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {data / 'spec.json'}: ") and message in err and "Traceback" not in err
        assert not (tmp_path / "e.cclp").exists()

    @pytest.mark.parametrize("styles, categories", [("4", "4"), ("9", "2")])
    def test_a_spec_the_backbone_cannot_represent_exits_one(self, tmp_path, capsys, styles, categories):
        assert self.run("gen-data", "--out", str(tmp_path / "d"), "--styles", styles, "--categories", categories) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {styles} styles and {categories} categories: at most 3 styles")
        assert not (tmp_path / "d").exists()

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

    def test_train_diffusion_metrics_log_the_gradient_norm(self, generator, tmp_path):
        """``--metrics`` writes a ``step,loss,grad_norm`` row at step 0 and at the last step."""
        metrics = tmp_path / "m.csv"
        assert self.run("train-diffusion", "--data", str(generator.parent / "data"), "--encoders",
                        str(generator.parent / "enc.cclp"), "--out", str(tmp_path / "d.cclp"), "--steps", "3",
                        "--timesteps", "4", "--metrics", str(metrics)) == 0
        lines = metrics.read_text().splitlines()
        assert lines[0] == "step,loss,grad_norm" and [line.split(",")[0] for line in lines[1:]] == ["0", "2"]
        assert all(float(line.split(",")[2]) > 0 for line in lines[1:])

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

    @pytest.mark.parametrize("argv, env, message", [
        (["train-encoders", "--epochs", "0", "--seed", "-1"], None, "seed must be >= 0, got -1"),
        (["train-encoders", "--epochs", "0"], "-3", "seed must be >= 0, got -3"),
        (["sample", "--style", "sketch", "--category", "cat", "--seed", "-1"], None, "seed must be >= 0, got -1"),
        (["guidance-eval", "--n-per-cell", "1", "--seed", "-5"], None, "seed must be >= 0, got -5"),
    ], ids=["train-encoders", "train-encoders-env", "sample", "guidance-eval"])
    def test_negative_seed_exits_one_naming_it(self, generator, data_dir, tmp_path, capsys, monkeypatch,
                                                argv, env, message):
        """Each command refuses a negative seed with one ``error:`` line that names the seed, and writes nothing."""
        monkeypatch.delenv("CCLIP_SEED", raising=False)
        if env is not None:
            monkeypatch.setenv("CCLIP_SEED", env)
        source = ["--data", str(data_dir)] if argv[0] == "train-encoders" else ["--checkpoint", str(generator)]
        out = tmp_path / "out"
        capsys.readouterr()
        assert self.run(*argv, *source, "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["sample", "--style", "sketch", "--category", "cat", "-n", "1000000000000"],
                                      ["guidance-eval", "--n-per-cell", "1000000000000"]],
                             ids=["sample", "guidance-eval"])
    def test_a_count_too_large_for_memory_exits_one(self, generator, tmp_path, capsys, monkeypatch, argv):
        """The sampler's allocation fails as numpy's would; no real array of that size is asked for."""
        def out_of_memory(n, *args, **kwargs):
            raise MemoryError(f"Unable to allocate an array with shape ({n}, 2) and data type float64")

        monkeypatch.setattr(cli_mod, "ddpm_sample", out_of_memory)
        monkeypatch.setattr(train_mod, "sample", out_of_memory)
        assert self.run(*argv, "--checkpoint", str(generator), "--out", str(tmp_path / "s.csv")) == 1
        assert capsys.readouterr().err == ("error: Unable to allocate an array with shape (1000000000000, 2) "
                                           "and data type float64\n")
        assert not (tmp_path / "s.csv").exists()

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

    @pytest.mark.parametrize("lexicon", ["stale", "blank", "extra-style-name", "garbage"])
    def test_no_training_run_reads_the_lexicon(self, spec, data_dir, tmp_path, lexicon):
        """A ``lexicon.txt`` left in a dataset directory by an older ``gen-data``, one category noun a line,
        is read by no command: as written, blank, with a style name added (which would split "a neon style
        cat" into "style" and "neon cat") or not even UTF-8 text, it leaves every training run's output
        byte-identical to the one from the directory as ``gen-data`` writes it, without that file."""
        stale = "".join(f"{name}\n" for name in spec.category_names)
        content = {"stale": stale.encode(), "blank": b"\n  \n", "extra-style-name": f"{stale}neon\n".encode(),
                   "garbage": b"\xff\xfe\x00cat\r\n\x0c"}[lexicon]
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"mode": "unlabeled", "epochs": 1, "shots": 2}))
        outputs = {}
        for name in ("plain", lexicon):
            data = tmp_path / name
            shutil.copytree(data_dir, data)
            if name == lexicon:
                (data / "lexicon.txt").write_bytes(content)
            for mode in ("unlabeled", "labeled"):
                assert self.run("train-encoders", "--data", str(data), "--config", str(config), "--mode", mode,
                                "--out", str(tmp_path / f"{name}-{mode}.cclp")) == 0
            assert self.run("sweep", "--axis", "lambda", "--data", str(data), "--config", str(config),
                            "--grid", "0.0", "--out", str(tmp_path / f"{name}.csv")) == 0
            outputs[name] = [(tmp_path / f"{name}{suffix}").read_bytes()
                             for suffix in ("-unlabeled.cclp", "-labeled.cclp", ".csv")]
        assert outputs[lexicon] == outputs["plain"]

    @pytest.mark.parametrize("caption", ["a neon style", "cat"], ids=["no-category", "no-style"])
    @pytest.mark.parametrize("split", ["clf_train", "clf_test", "diff_train"])
    def test_unsplittable_caption_exits_one(self, spec, data_dir, tmp_path, capsys, split, caption):
        """A record whose caption the spec's category names do not split into a style half and a category
        half stops every command that reads its file, in either training mode, naming the file and line."""
        data = tmp_path / "data"
        shutil.copytree(data_dir, data)
        path = data / f"{split}.jsonl"
        lines = path.read_text().splitlines()
        lines[1] = json.dumps({**json.loads(lines[1]), "caption": caption})
        path.write_text("\n".join(lines) + "\n")
        ckpt = tmp_path / "enc.cclp"
        save_encoder_checkpoint(ckpt, fresh_bundle(spec, TrainConfig(epochs=0)), TrainConfig(epochs=0), spec)
        (tmp_path / "c.json").write_text(json.dumps({"mode": "unlabeled", "epochs": 1}))
        config, out = ("--config", str(tmp_path / "c.json")), ("--out", str(tmp_path / "out"))
        commands = {
            "clf_train": [("train-encoders", "--data", str(data), *config, *out, "--mode", mode)
                          for mode in ("labeled", "unlabeled")]
            + [("sweep", "--axis", "lambda", "--data", str(data), "--grid", "0.0", *config, *out)],
            "clf_test": [("eval-classify", "--checkpoint", str(ckpt), "--data", str(data)),
                         ("sweep", "--axis", "alpha", "--checkpoint", str(ckpt), "--data", str(data), *out)],
            "diff_train": [("train-diffusion", "--encoders", str(ckpt), "--data", str(data), *out)],
        }[split]
        for argv in commands:
            capsys.readouterr()
            assert self.run(*argv) == 1, argv
            assert capsys.readouterr().err == (f"error: {path}: invalid record at line 2: caption {caption!r} "
                                               "does not decompose into non-empty style and category text\n")
            assert not (tmp_path / "out").exists()

    def test_default_sweep_csvs_are_pinned(self, tmp_path, monkeypatch):
        """The default-grid alpha and lambda sweeps of a small run write these exact bytes."""
        monkeypatch.delenv("CCLIP_SEED", raising=False)
        data, config, ckpt = tmp_path / "data", tmp_path / "c.json", tmp_path / "enc.cclp"
        assert self.run("gen-data", "--out", str(data), "--train-per-cell", "8", "--test-per-cell", "4") == 0
        # Trained this little, each axis's rows differ: they score the adapters, not a saturated 1.0.
        config.write_text(json.dumps({"epochs": 6, "lr": 0.003, "alpha_style": 0.2, "alpha_category": 0.2, "seed": 3}))
        assert self.run("train-encoders", "--data", str(data), "--config", str(config), "--out", str(ckpt)) == 0
        digests = {}
        for axis, source in (("alpha", ("--checkpoint", str(ckpt))), ("lambda", ("--config", str(config)))):
            out = tmp_path / f"{axis}.csv"
            assert self.run("sweep", "--axis", axis, "--data", str(data), *source, "--out", str(out)) == 0
            digests[axis] = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digests == {"alpha": "adb69510170ddbbe6ec6fd6c3df7b7d5a08be43d93e2f8737ad1397ebd0ac894",
                           "lambda": "955eae3a5af2de19391732c006e3f65ef207cfe98b58865d4f430b77e037e53a"}

    @pytest.mark.parametrize("flags, message", [
        ("--axis alpha --checkpoint {ckpt} --seed 5", "alpha sweep evaluates the checkpoint's stored config"),
        ("--axis alpha --checkpoint {ckpt} --config {config}", "alpha sweep evaluates the checkpoint's stored config"),
        ("--axis lambda --checkpoint {ckpt} --config {config}", "lambda sweep retrains from --config"),
    ], ids=["alpha-seed", "alpha-config", "lambda-checkpoint"])
    def test_sweep_refuses_the_other_axis_inputs(self, spec, data_dir, tmp_path, monkeypatch, capsys, flags, message):
        """An option the axis would ignore, or write into its rows though it did not act, exits 1."""
        def never(*args, **kwargs):
            raise AssertionError("the sweep started")
        monkeypatch.setattr(cli_mod, "sweep", never)
        ckpt, config = tmp_path / "enc.cclp", tmp_path / "c.json"
        save_encoder_checkpoint(ckpt, fresh_bundle(spec, TrainConfig(epochs=0)), TrainConfig(epochs=0), spec)
        config.write_text(json.dumps({"epochs": 1, "lambda1": 0.5}))
        argv = ["sweep", "--data", str(data_dir), "--out", str(tmp_path / "s.csv"),
                *flags.format(ckpt=ckpt, config=config).split()]
        capsys.readouterr()
        assert self.run(*argv) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("command", ["eval-classify", "sweep --axis alpha"])
    def test_evaluating_a_checkpoint_keeps_its_stored_seed(self, spec, data_dir, tmp_path, monkeypatch, command):
        """CCLIP_SEED names the seed of a run that trains; a command that only evaluates a checkpoint
        writes the seed its encoders were trained with."""
        ckpt, out = tmp_path / "enc.cclp", tmp_path / "s.csv"
        save_encoder_checkpoint(ckpt, fresh_bundle(spec, TrainConfig(epochs=0, seed=3)),
                                TrainConfig(epochs=0, seed=3), spec)
        monkeypatch.setenv("CCLIP_SEED", "9")
        assert self.run(*command.split(), "--checkpoint", str(ckpt), "--data", str(data_dir), "--out", str(out)) == 0
        rows = out.read_text().splitlines()
        assert len(rows) > 1 and all(row.split(",")[-1] == "3" for row in rows[1:])

    def test_lambda_sweep_cli_writes_one_row_per_grid_point(self, data_dir, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"epochs": 1, "shots": 4}))
        out = tmp_path / "s.csv"
        assert self.run("sweep", "--axis", "lambda", "--data", str(data_dir), "--config", str(config),
                        "--grid", "0.0,0.3", "--out", str(out)) == 0
        rows = out.read_text().splitlines()
        assert len(rows) == 3
        assert [r.split(",")[8:10] for r in rows[1:]] == [["0.0", "0.0"], ["0.3", "0.3"]]

    @pytest.mark.parametrize("grid", ["abc", "0.1,,0.3"])
    def test_unparsable_grid_is_named(self, data_dir, tmp_path, capsys, grid):
        assert self.run("sweep", "--axis", "lambda", "--data", str(data_dir), "--grid", grid,
                        "--out", str(tmp_path / "s.csv")) == 1
        err = capsys.readouterr().err
        assert f"error: argument --grid: invalid grid value: '{grid}'" in err and "Traceback" not in err
        assert not (tmp_path / "s.csv").exists()

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
