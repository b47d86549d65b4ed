"""Binary checkpoint format: round trips and error contracts."""

import struct

import numpy as np
import pytest

from stylecat.checkpoint import MAX_RANK, CheckpointError, load_checkpoint, read_object, save_checkpoint


@pytest.fixture
def arrays():
    rng = np.random.default_rng(0)
    return {
        "style_adapter.w1": rng.standard_normal((4, 2)),
        "style_adapter.b1": rng.standard_normal(2),
        "denoiser.time_embed": rng.standard_normal((6, 4)),
    }


def test_load_reproduces_float32_exactly(tmp_path, arrays):
    path = tmp_path / "c.cclp"
    save_checkpoint(path, arrays, {"kind": "test"})
    loaded, meta = load_checkpoint(path)
    assert meta == {"kind": "test"}
    assert list(loaded) == list(arrays)
    for name, arr in arrays.items():
        assert loaded[name].shape == arr.shape
        assert np.array_equal(loaded[name], arr.astype(np.float32).astype(np.float64))


def test_save_load_save_byte_identical(tmp_path, arrays):
    p1, p2 = tmp_path / "a.cclp", tmp_path / "b.cclp"
    meta = {"kind": "test", "config": {"seed": 3}}
    save_checkpoint(p1, arrays, meta)
    loaded, meta2 = load_checkpoint(p1)
    save_checkpoint(p2, loaded, meta2)
    assert p1.read_bytes() == p2.read_bytes()


def test_magic_bytes_checked(tmp_path):
    path = tmp_path / "bad.cclp"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(path)


def test_version_checked(tmp_path):
    path = tmp_path / "bad.cclp"
    path.write_bytes(b"CCLP" + struct.pack("<I", 999) + struct.pack("<I", 0) + b"{}")
    with pytest.raises(CheckpointError, match="version"):
        load_checkpoint(path)


def test_truncated_file_rejected(tmp_path, arrays):
    path = tmp_path / "t.cclp"
    save_checkpoint(path, arrays, {"kind": "test"})
    blob = path.read_bytes()
    for size in range(len(blob)):
        path.write_bytes(blob[:size])
        with pytest.raises(CheckpointError):
            load_checkpoint(path)


def test_metadata_blob_roundtrip_unicode(tmp_path):
    path = tmp_path / "u.cclp"
    meta = {"note": "ünïcode ✓", "nested": {"x": [1, 2.5]}}
    save_checkpoint(path, {"a": np.zeros(1)}, meta)
    _, loaded = load_checkpoint(path)
    assert loaded == meta


SENTINEL = np.float32(1234.5)  # exact in float32; its four bytes occur once in the files below


def write_with_value(path, arrays, name, value):
    """A checkpoint of ``arrays`` whose ``name`` array holds ``value`` at its first element.

    ``save_checkpoint`` refuses a non-finite array, so the file is saved
    with a finite sentinel that is then overwritten in place.
    """
    arrays = {k: v.copy() for k, v in arrays.items()}
    arrays[name].flat[0] = SENTINEL
    save_checkpoint(path, arrays, {"kind": "test"})
    blob = path.read_bytes()
    assert blob.count(SENTINEL.tobytes()) == 1
    path.write_bytes(blob.replace(SENTINEL.tobytes(), np.float32(value).tobytes()))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "minus-inf"])
def test_non_finite_array_refused_on_load(tmp_path, arrays, value):
    path = tmp_path / "n.cclp"
    write_with_value(path, arrays, "denoiser.time_embed", value)
    with pytest.raises(CheckpointError, match=r"n\.cclp: array denoiser\.time_embed holds a non-finite value"):
        load_checkpoint(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, 1e39], ids=["nan", "inf", "above-float32-max"])
def test_non_finite_array_refused_on_save(tmp_path, arrays, value):
    """A finite float64 above the float32 maximum overflows in the cast and is refused too."""
    path = tmp_path / "n.cclp"
    arrays["style_adapter.b1"][1] = value
    with pytest.raises(CheckpointError, match=r"array style_adapter\.b1 holds a non-finite value"):
        save_checkpoint(path, arrays, {"kind": "test"})
    assert not path.exists()


def test_repeated_array_name_refused(tmp_path, arrays):
    """A second array under a name already read is refused, not kept in place of the first."""
    path = tmp_path / "d.cclp"
    save_checkpoint(path, arrays, {"kind": "test"})
    blob = path.read_bytes()
    assert blob.count(b"style_adapter.b1") == 1
    path.write_bytes(blob.replace(b"style_adapter.b1", b"style_adapter.w1"))
    with pytest.raises(CheckpointError, match=r"d\.cclp: array style_adapter\.w1 appears twice"):
        load_checkpoint(path)


@pytest.mark.parametrize("rank", [33, 129, 255])
def test_rank_above_the_limit_refused(tmp_path, rank):
    """Zero dims after a damaged rank make an empty array that numpy cannot reshape to that many dimensions."""
    path = tmp_path / "r.cclp"
    save_checkpoint(path, {"probe": np.zeros(2), "zeros": np.zeros(300)}, {"kind": "test"})
    blob = path.read_bytes()
    field = b"probe" + struct.pack("<I", 1)
    assert blob.count(field) == 1
    path.write_bytes(blob.replace(field, b"probe" + struct.pack("<I", rank)))
    with pytest.raises(CheckpointError, match=rf"r\.cclp: array probe has rank {rank}, above {MAX_RANK}"):
        load_checkpoint(path)


@pytest.mark.parametrize("raw, message", [
    (b'{"a": 1, "a": 2}', "meta repeats the keys ['a']"),
    (b'{"a": 1' + b"0" * 5000 + b"}", "meta cannot be read as UTF-8 JSON: Exceeds the limit (4300 digits)"),
    (b'{"a": 1', "meta cannot be read as UTF-8 JSON: Expecting ',' delimiter"),
], ids=["repeated-key", "5001-digit-integer", "not-json"])
def test_read_object_names_where_once(raw, message):
    """Each refusal names ``where`` once: the repeated-key one of the hook is not wrapped a second time."""
    with pytest.raises(CheckpointError) as e:
        read_object(raw, "meta", CheckpointError)
    assert str(e.value).startswith(message) and str(e.value).count("meta") == 1
