"""Versioned binary checkpoints.

Layout: magic ``CCLP``, u32 format version, u32 array count, then per
array a u32 name length + UTF-8 name, u32 rank, u32 dims, and raw 32-bit
little-endian float data; a UTF-8 JSON metadata blob trails the arrays.
All integers are little-endian. Saving is order-preserving, so
save -> load -> save is byte-identical. Every array is finite: a NaN or an
infinity is refused on save (after the float32 cast, so an overflow is
refused too) and on load, and its rank is at most ``MAX_RANK``.

The package's one policy for a JSON object read from outside lives here too,
with ``ConfigError``, which ``captions`` and ``losses`` raise: ``read_object``
refuses a repeated key, ``from_fields`` an unknown one, and ``check_types`` a
field value that its annotation refuses.
"""

from __future__ import annotations

import json
import math
import struct
import sys
from dataclasses import fields

import numpy as np

MAGIC = b"CCLP"
VERSION = 1
MAX_RANK = 32  # numpy 1's limit on an array's dimensions (numpy 2 allows 64)


class CheckpointError(ValueError):
    """Corrupt or incompatible checkpoint file."""


class ConfigError(ValueError):
    """Invalid hyperparameter or mode configuration."""


def read_object(raw: bytes, where: str, error: type[ValueError]) -> dict:
    """The JSON object in the bytes ``raw``; ``error`` naming ``where`` (a file, or a file and line) if they
    are not UTF-8 JSON, hold an integer of more digits than Python converts or a nesting deeper than its
    recursion limit, or are not an object, or an object in them repeats a key, whose last value would win."""
    def unique(pairs):
        keys = [k for k, _ in pairs]
        if len(set(keys)) < len(keys):
            raise error(f"{where} repeats the keys {sorted({k for k in keys if keys.count(k) > 1})}")
        return dict(pairs)

    try:
        obj = json.loads(raw.decode("utf-8"), object_pairs_hook=unique)
    except error:  # the refusal of ``unique``, which names ``where`` already
        raise
    except (ValueError, RecursionError) as e:  # not UTF-8, not JSON, too many digits, or nested too deep
        raise error(f"{where} cannot be read as UTF-8 JSON: {e}") from e
    if not isinstance(obj, dict):
        raise error(f"{where} must be a JSON object, got {type(obj).__name__}")
    return obj


def from_fields(cls, obj, what: str, error: type[ValueError]):
    """``cls(**obj)``; ``error`` unless ``obj`` is a dict whose keys all name fields of the dataclass ``cls``."""
    if not isinstance(obj, dict):
        raise error(f"{what} must be a JSON object, got {type(obj).__name__}")
    if unknown := set(obj) - {f.name for f in fields(cls)}:
        raise error(f"unknown {what} keys: {sorted(unknown)}")
    return cls(**obj)


def finite_number(v) -> bool:
    """Whether ``v`` is an int or a float, not a bool, that a finite float holds: NaN, the infinities and an
    integer beyond the largest float are not."""
    return not isinstance(v, bool) and isinstance(v, (int, float)) and abs(v) <= sys.float_info.max


def check_types(record, error: type[ValueError]) -> None:
    """``error`` naming the first field of the dataclass ``record`` that its annotation refuses: ``int`` takes
    an integer, ``int | None`` also None, ``float`` a ``finite_number``, and a bool is none of them."""
    for f in fields(record):
        v = getattr(record, f.name)
        if f.type == "int" or (f.type == "int | None" and v is not None):
            if isinstance(v, bool) or not isinstance(v, int):
                raise error(f"{f.name} must be an integer, got {v!r}")
        if f.type == "float" and not finite_number(v):
            raise error(f"{f.name} must be a finite number, got {v!r}")


def _check_finite(path, name: str, data: np.ndarray) -> None:
    if not np.isfinite(data).all():
        raise CheckpointError(f"{path}: array {name} holds a non-finite value")


def save_checkpoint(path, arrays: dict, meta: dict) -> None:
    """Writes ``arrays`` as float32 and ``meta`` as JSON.

    ``CheckpointError``, before the file is opened, if an array is not
    finite once cast to float32.
    """
    with np.errstate(over="ignore"):  # a float32 overflow is refused below as an infinity
        cast = {name: np.ascontiguousarray(arr, dtype="<f4") for name, arr in arrays.items()}
    for name, data in cast.items():
        _check_finite(path, name, data)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<I", len(cast)))
        for name, data in cast.items():
            encoded = name.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(struct.pack("<I", data.ndim))
            fh.write(struct.pack(f"<{data.ndim}I", *data.shape))
            fh.write(data.tobytes())
        fh.write(json.dumps(meta, sort_keys=True, ensure_ascii=False).encode("utf-8"))


def load_checkpoint(path):
    """Returns (arrays, meta); arrays come back as float32-valued float64.

    Every read is bound-checked, so a truncated or corrupt file raises
    ``CheckpointError`` and nothing else; so does an array holding a NaN or
    an infinity, which would otherwise load and, through a ReLU that maps
    NaN to 0, give finite but wrong results, a rank above ``MAX_RANK``, a
    name that a second array repeats, whose last copy would otherwise win,
    and metadata that ``read_object`` refuses, a repeated key included.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != MAGIC:
        raise CheckpointError(f"{path}: bad magic bytes {blob[:4]!r}")
    offset = 4

    def take(n: int) -> int:
        """Offset of the next ``n`` bytes of the blob, which must all be there."""
        nonlocal offset
        if n > len(blob) - offset:
            raise CheckpointError(f"{path}: truncated checkpoint: {n} bytes wanted at offset "
                                  f"{offset} of {len(blob)}")
        offset += n
        return offset - n

    def u32s(n: int = 1) -> tuple[int, ...]:
        return struct.unpack_from(f"<{n}I", blob, take(4 * n))

    (version,) = u32s()
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    (count,) = u32s()
    arrays: dict[str, np.ndarray] = {}
    try:
        for _ in range(count):
            (name_len,) = u32s()
            start = take(name_len)
            name = blob[start:offset].decode("utf-8")
            if name in arrays:
                raise CheckpointError(f"{path}: array {name} appears twice")
            (rank,) = u32s()
            if rank > MAX_RANK:
                raise CheckpointError(f"{path}: array {name} has rank {rank}, above {MAX_RANK}")
            shape = u32s(rank)
            n = math.prod(shape)
            data = np.frombuffer(blob, dtype="<f4", count=n, offset=take(4 * n)).reshape(shape)
            _check_finite(path, name, data)
            arrays[name] = data.astype(np.float64)
    except UnicodeDecodeError as e:
        raise CheckpointError(f"{path}: corrupt checkpoint: {e}") from e
    return arrays, read_object(blob[offset:], f"{path}: metadata", CheckpointError)
