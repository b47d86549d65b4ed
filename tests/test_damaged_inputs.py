"""Damaged input files: every reader either loads them or raises its module's typed error naming the file.

Each small valid file is damaged twice per seed: one byte set to 0xff (never
valid UTF-8) and the file cut short at a random offset. A JSONL error must
also name the damaged line. The damaged file then goes through the
``stylecat`` command that reads it, which must exit 0, or exit 1 with an
``error:`` line naming the file; a raised exception fails the test.
"""

import json
import re

import numpy as np
import pytest

from stylecat.captions import CategoryLexicon, LexiconError
from stylecat.cli import main
from stylecat.datagen import DatasetError, SyntheticSpec, load, read_spec, write_dataset_dir
from stylecat.losses import ConfigError
from stylecat.train import TrainConfig

SPEC = SyntheticSpec(n_train=1, n_test=1)
TINY = TrainConfig(epochs=1, diffusion_steps=1, diffusion_batch=4, timesteps=2)

# file kind -> (file name, reader of the file's path, the reader's typed error, whether it is JSONL)
READERS = {
    "grid": ("clf_test.jsonl", lambda path: load(path, "grid", SPEC), DatasetError, True),
    "point": ("diff_train.jsonl", lambda path: load(path, "point", SPEC), DatasetError, True),
    "spec": ("spec.json", lambda path: read_spec(path.parent), DatasetError, False),
    "config": ("config.json", TrainConfig.from_file, ConfigError, False),
    "lexicon": ("lexicon.txt", CategoryLexicon.from_file, LexiconError, False),
}

# file kind -> the commands that read it, given the directory holding it and the other (valid) files
TRAIN_ENCODERS = ["train-encoders", "--data", "{dir}", "--config", "{dir}/tiny.json", "--out", "{dir}/out.cclp"]
COMMANDS = {
    "grid": [TRAIN_ENCODERS],
    "point": [["train-diffusion", "--data", "{dir}", "--encoders", "{dir}/encoders.cclp", "--out", "{dir}/out.cclp"]],
    "spec": [TRAIN_ENCODERS],
    "config": [["train-encoders", "--data", "{dir}", "--config", "{dir}/config.json", "--out", "{dir}/out.cclp"]],
    "lexicon": [["decompose", "--captions", "{dir}/captions.txt", "--lexicon", "{dir}/lexicon.txt",
                 "--out", "{dir}/out.jsonl"], TRAIN_ENCODERS + ["--mode", "unlabeled"]],
}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """The bytes of a small valid dataset directory, with a config, a tiny config, captions and encoders."""
    root = tmp_path_factory.mktemp("valid")
    write_dataset_dir(SPEC, root)
    (root / "config.json").write_text(json.dumps(TrainConfig(epochs=3).to_json()), encoding="utf-8")
    (root / "tiny.json").write_text(json.dumps(TINY.to_json()), encoding="utf-8")
    captions = [SPEC.caption(i, j) for i in range(SPEC.n_styles) for j in range(SPEC.n_categories)]
    (root / "captions.txt").write_text("\n".join(captions) + "\n", encoding="utf-8")
    assert main(["train-encoders", "--data", str(root), "--config", str(root / "tiny.json"),
                 "--out", str(root / "encoders.cclp")]) == 0
    return {path.name: path.read_bytes() for path in root.iterdir()}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("damage", ["byte-0xff", "truncate"])
@pytest.mark.parametrize("kind", list(READERS))
def test_damaged_file_loads_or_raises_typed_error(tmp_path, capsys, valid_files, kind, damage, seed):
    name, read, error, jsonl = READERS[kind]
    raw = valid_files[name]
    rng = np.random.default_rng([seed, list(READERS).index(kind)])
    at = int(rng.integers(1, len(raw) - 1))
    damaged = raw[:at] + b"\xff" + raw[at + 1:] if damage == "byte-0xff" else raw[:at]
    for other, data in valid_files.items():
        (tmp_path / other).write_bytes(data)
    path = tmp_path / name
    path.write_bytes(damaged)
    line = raw[:at].count(b"\n") + 1
    try:
        read(path)
    except error as e:
        assert str(path) in str(e)
        if jsonl:
            assert re.search(rf"\bline {line}\b", str(e))
    else:
        assert damage == "truncate"  # a 0xff byte is never valid UTF-8

    for argv in COMMANDS[kind]:
        capsys.readouterr()
        code = main([arg.format(dir=tmp_path) for arg in argv])
        err = capsys.readouterr().err
        assert code == 0 or (code == 1 and any(e.startswith("error: ") and str(path) in e
                                               for e in err.splitlines())), (argv[0], code, err)
