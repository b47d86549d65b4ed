"""Trainer orchestration and the CLI surface: config validation,
determinism, checkpoints, sweeps, and exit codes."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

import stylecat.train as train_mod
from stylecat.captions import CategoryLexicon
from stylecat.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from stylecat.cli import main
from stylecat.datagen import SyntheticSpec, generate_classification_dataset, write_dataset_dir
from stylecat.losses import ConfigError
from stylecat.train import (
    Adam,
    TrainConfig,
    alpha_sweep,
    apply_seed_env,
    bundle_arrays,
    evaluate_classification,
    fresh_bundle,
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

    def test_defaults_match_protocol(self):
        cfg = TrainConfig()
        assert cfg.epochs == 30 and cfg.batch_size == 32
        assert cfg.lr == 1e-3 and cfg.beta1 == 0.9 and cfg.beta2 == 0.999 and cfg.adam_eps == 1e-8
        assert cfg.alpha_style == 0.8 and cfg.alpha_category == 0.4


class TestAdam:
    def test_moves_toward_minimum(self):
        from stylecat import tensor as T
        from stylecat.tensor import Tensor, backward

        x = Tensor([5.0, -3.0], requires_grad=True)
        opt = Adam([x], lr=0.1)
        for _ in range(300):
            loss = T.tensor_sum(T.mul(x, x))
            opt.zero_grad()
            backward(loss)
            opt.step()
        assert np.abs(x.data).max() < 1e-3


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
        for a, b in zip(bundle.trainable_tensors(), init.trainable_tensors()):
            assert np.array_equal(a.data, b.data)
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
        a = evaluate_classification(bundle, test, 0.8, 0.4)
        b = evaluate_classification(loaded, test, 0.8, 0.4)
        assert a == b
        for x, y in zip(bundle.trainable_tensors(), loaded.trainable_tensors()):
            assert np.abs(x.data - y.data).max() < 1e-6

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
                                              "contrastive_temperature": 0.07}])
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
        for name in ("style-ce", "style-confusion", "style-labeled", "category-ce",
                     "category-confusion", "category-labeled", "style-triplet",
                     "category-triplet", "cross-attention", "denoiser-step", "denoiser-grouped"):
            assert name in out

        import stylecat.train as train_mod

        real = train_mod._ad_grads

        def flipped(loss_fn, params):
            return [-g for g in real(loss_fn, params)]

        monkeypatch.setattr(train_mod, "_ad_grads", flipped)
        assert self.run("gradcheck", "--seeds", "2") == 2

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
