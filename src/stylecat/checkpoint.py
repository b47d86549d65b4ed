"""Versioned binary checkpoints.

Layout: magic ``CCLP``, u32 format version, u32 array count, then per
array a u32 name length + UTF-8 name, u32 rank, u32 dims, and raw 32-bit
little-endian float data; a UTF-8 JSON metadata blob trails the arrays.
All integers are little-endian. Saving is order-preserving, so
save -> load -> save is byte-identical. Every array is finite: a NaN or an
infinity is refused on save (after the float32 cast, so an overflow is
refused too) and on load.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

MAGIC = b"CCLP"
VERSION = 1


class CheckpointError(ValueError):
    """Corrupt or incompatible checkpoint file."""


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
    NaN to 0, give finite but wrong results.
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
            shape = u32s(u32s()[0])
            n = math.prod(shape)
            data = np.frombuffer(blob, dtype="<f4", count=n, offset=take(4 * n)).reshape(shape)
            _check_finite(path, name, data)
            arrays[name] = data.astype(np.float64)
        meta = json.loads(blob[offset:].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: corrupt checkpoint: {e}") from e
    return arrays, meta
