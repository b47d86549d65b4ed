"""Damaged input files: every reader either loads them or raises its module's typed error naming the file.

Each small valid file is damaged twice per seed: one byte set to 0xff (never
valid UTF-8) and the file cut short at a random offset. A JSONL error must
also name the damaged line.
"""

import json
import re

import numpy as np
import pytest

from stylecat.captions import CategoryLexicon, LexiconError
from stylecat.datagen import DatasetError, SyntheticSpec, load, read_spec, write_dataset_dir
from stylecat.losses import ConfigError
from stylecat.train import TrainConfig

SPEC = SyntheticSpec(n_train=1, n_test=1)

# file kind -> (file name, reader of the file's path, the reader's typed error, whether it is JSONL)
READERS = {
    "grid": ("clf_test.jsonl", lambda path: load(path, "grid", SPEC), DatasetError, True),
    "point": ("diff_train.jsonl", lambda path: load(path, "point", SPEC), DatasetError, True),
    "spec": ("spec.json", lambda path: read_spec(path.parent), DatasetError, False),
    "config": ("config.json", TrainConfig.from_file, ConfigError, False),
    "lexicon": ("lexicon.txt", CategoryLexicon.from_file, LexiconError, False),
}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """The bytes of one small valid file of each kind."""
    root = tmp_path_factory.mktemp("valid")
    write_dataset_dir(SPEC, root)
    (root / "config.json").write_text(json.dumps(TrainConfig(epochs=3).to_json()), encoding="utf-8")
    return {kind: (root / name).read_bytes() for kind, (name, *_) in READERS.items()}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("damage", ["byte-0xff", "truncate"])
@pytest.mark.parametrize("kind", list(READERS))
def test_damaged_file_loads_or_raises_typed_error(tmp_path, valid_files, kind, damage, seed):
    name, read, error, jsonl = READERS[kind]
    raw = valid_files[kind]
    rng = np.random.default_rng([seed, list(READERS).index(kind)])
    at = int(rng.integers(1, len(raw) - 1))
    damaged = raw[:at] + b"\xff" + raw[at + 1:] if damage == "byte-0xff" else raw[:at]
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
