"""Damaged input files: every reader either loads them or raises its module's typed error naming the file.

Each small valid file is damaged twice per seed: one byte set to 0xff and
the file cut short at a random offset. A 0xff byte is never valid UTF-8, so
a damaged text file never loads; a damaged checkpoint may, when the byte
falls in its float data. A JSONL error must also name the damaged line. The
damaged file then goes through the ``stylecat`` command that reads it,
which must exit 0, or exit 1 with an ``error:`` line naming the file; a
raised exception fails the test. Every JSON object a reader takes must
also not repeat a key.
"""

import json
import re
import sys

import numpy as np
import pytest

from stylecat.checkpoint import CheckpointError
from stylecat.cli import main
from stylecat.datagen import DatasetError, SyntheticSpec, load, read_spec, write_dataset_dir
from stylecat.losses import ConfigError
from stylecat.train import TrainConfig, load_encoder_checkpoint

SPEC = SyntheticSpec(n_train=1, n_test=1)
TINY = TrainConfig(epochs=1, diffusion_steps=1, diffusion_batch=4, timesteps=2)

# file kind -> (file name, reader of the file's path, the reader's typed error, form: "jsonl", "text" or "binary")
READERS = {
    "grid": ("clf_test.jsonl", lambda path: load(path, "grid", SPEC), DatasetError, "jsonl"),
    "point": ("diff_train.jsonl", lambda path: load(path, "point", SPEC), DatasetError, "jsonl"),
    "spec": ("spec.json", lambda path: read_spec(path.parent), DatasetError, "text"),
    "config": ("config.json", TrainConfig.from_file, ConfigError, "text"),
    "checkpoint": ("encoders.cclp", load_encoder_checkpoint, CheckpointError, "binary"),
}

# file kind -> the commands that read it, given the directory holding it and the other (valid) files
TRAIN_ENCODERS = ["train-encoders", "--data", "{dir}", "--config", "{dir}/tiny.json", "--out", "{dir}/out.cclp"]
COMMANDS = {
    "grid": [TRAIN_ENCODERS],
    "point": [["train-diffusion", "--data", "{dir}", "--encoders", "{dir}/encoders.cclp", "--out", "{dir}/out.cclp"]],
    "spec": [TRAIN_ENCODERS],
    "config": [["train-encoders", "--data", "{dir}", "--config", "{dir}/config.json", "--out", "{dir}/out.cclp"]],
    "checkpoint": [["eval-classify", "--checkpoint", "{dir}/encoders.cclp", "--data", "{dir}"]],
}


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """The bytes of a small valid dataset directory, with a config, a tiny config and encoders."""
    root = tmp_path_factory.mktemp("valid")
    write_dataset_dir(SPEC, root)
    (root / "config.json").write_text(json.dumps(TrainConfig(epochs=3).to_json()), encoding="utf-8")
    (root / "tiny.json").write_text(json.dumps(TINY.to_json()), encoding="utf-8")
    assert main(["train-encoders", "--data", str(root), "--config", str(root / "tiny.json"),
                 "--out", str(root / "encoders.cclp")]) == 0
    return {path.name: path.read_bytes() for path in root.iterdir()}


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("damage", ["byte-0xff", "truncate"])
@pytest.mark.parametrize("kind", list(READERS))
def test_damaged_file_loads_or_raises_typed_error(tmp_path, capsys, valid_files, kind, damage, seed):
    name, read, error, form = READERS[kind]
    raw = valid_files[name]
    rng = np.random.default_rng([seed, list(READERS).index(kind)])
    at = int(rng.integers(1, len(raw) - 1))
    damaged = raw[:at] + b"\xff" + raw[at + 1:] if damage == "byte-0xff" else raw[:at]
    path = write_files(tmp_path, valid_files, name, damaged)
    line = raw[:at].count(b"\n") + 1
    try:
        read(path)
    except error as e:
        assert str(path) in str(e)
        if form == "jsonl":
            assert re.search(rf"\bline {line}\b", str(e))
    else:
        assert damage == "truncate" or form == "binary"  # a 0xff byte is never valid UTF-8
    run_commands(kind, tmp_path, path, capsys, may_pass=True)


def write_files(directory, valid_files, name, data):
    """The path of ``name`` in ``directory``, written with ``data``, next to the other valid files."""
    for other, valid in valid_files.items():
        (directory / other).write_bytes(valid)
    (directory / name).write_bytes(data)
    return directory / name


def run_commands(kind, directory, path, capsys, may_pass):
    """Each command that reads ``kind`` exits 1 with an ``error:`` line naming ``path``, or 0 if ``may_pass``."""
    for argv in COMMANDS[kind]:
        capsys.readouterr()
        code = main([arg.format(dir=directory) for arg in argv])
        err = capsys.readouterr().err
        assert (code == 0 and may_pass) or (code == 1 and any(e.startswith("error: ") and str(path) in e
                                                              for e in err.splitlines())), (argv[0], code, err)


# The first key of an object is repeated at its front; without the refusal its last value, the file's own, would win.
FIRST_KEY = re.compile(rb'\{\s*("[^"]*")\s*:')


@pytest.mark.parametrize("kind", list(READERS))
def test_repeated_key_is_refused(tmp_path, capsys, valid_files, kind):
    """In a JSONL file the second line's object repeats a key, in a checkpoint its metadata's nested config."""
    name, read, error, form = READERS[kind]
    raw = valid_files[name]
    if form == "binary":
        start = raw.rindex(b'{"config": ') + len(b'{"config": ')
    else:
        start = raw.index(b"\n") + 1 if form == "jsonl" else 0
    key = FIRST_KEY.match(raw, start)
    assert key, raw[start:start + 40]
    path = write_files(tmp_path, valid_files, name, raw[:start + 1] + key[1] + b": 0, " + raw[start + 1:])
    with pytest.raises(error, match=re.escape(f"repeats the keys [{key[1].decode()[1:-1]!r}]")) as e:
        read(path)
    assert str(path) in str(e.value) and (form != "jsonl" or re.search(r"\bline 2\b", str(e.value)))
    run_commands(kind, tmp_path, path, capsys, may_pass=False)


def refuse_first_value(tmp_path, capsys, valid_files, kind, value: bytes, problem: str):
    """``value``, put first in the object that a reader takes (a JSONL file's second line, a checkpoint's
    metadata), is refused by the reader's typed error naming the file (and line) and ``problem``."""
    name, read, error, form = READERS[kind]
    raw = valid_files[name]
    if form == "binary":
        start = raw.rindex(b'{"config": ')
    else:
        start = raw.index(b"\n") + 1 if form == "jsonl" else 0
    assert raw[start:start + 1] == b"{"
    path = write_files(tmp_path, valid_files, name, raw[:start + 1] + b'"x": ' + value + b", " + raw[start + 1:])
    with pytest.raises(error, match=f"cannot be read as UTF-8 JSON: {problem}") as e:
        read(path)
    assert str(path) in str(e.value) and (form != "jsonl" or re.search(r"\bline 2\b", str(e.value)))
    run_commands(kind, tmp_path, path, capsys, may_pass=False)


@pytest.mark.parametrize("kind", list(READERS))
def test_integer_beyond_the_digit_limit_is_refused(tmp_path, capsys, valid_files, kind):
    """An integer of more digits than Python converts."""
    huge = b"1" + b"0" * sys.get_int_max_str_digits()
    refuse_first_value(tmp_path, capsys, valid_files, kind, huge, "Exceeds the limit")


NESTED = b"[" * 5000 + b"]" * 5000  # deeper than Python's recursion limit


@pytest.mark.parametrize("kind", list(READERS))
def test_deeply_nested_json_is_refused(tmp_path, capsys, valid_files, kind):
    """Arrays nested deeper than the recursion limit, which the JSON decoder descends."""
    refuse_first_value(tmp_path, capsys, valid_files, kind, NESTED, "maximum recursion depth exceeded")


def test_deeply_nested_config_is_one_error_line(tmp_path, capsys, valid_files):
    """``train-encoders --config`` on nothing but nested arrays exits 1 with one ``error:`` line, no traceback."""
    path = write_files(tmp_path, valid_files, "deep.json", NESTED)
    code = main(["train-encoders", "--data", str(tmp_path), "--config", str(path), "--out", str(tmp_path / "o.cclp")])
    err = capsys.readouterr().err.splitlines()
    assert code == 1 and len(err) == 1, (code, err)
    assert err[0].startswith(f"error: config {path} cannot be read as UTF-8 JSON: maximum recursion depth exceeded")
