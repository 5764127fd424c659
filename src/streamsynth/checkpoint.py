"""Length-prefixed little-endian checkpoint files.

Layout: magic ``SSYN``, u32 format version, u32 metadata byte length,
metadata as UTF-8 ``key=value`` lines (module name plus one ``shape.<name>``
entry per parameter, in ``parameters()`` order), then each parameter as a u64
element count followed by raw float64 little-endian values.
"""

from __future__ import annotations

import math
import struct
from typing import Sequence

import numpy as np

from .fileio import read_bytes, write_bytes

MAGIC = b"SSYN"
VERSION = 1


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, module: str, named_arrays: Sequence[tuple[str, np.ndarray]],
                    extra_meta: dict[str, str] | None = None) -> None:
    lines = [f"module={module}"]
    for key, value in (extra_meta or {}).items():
        if "=" in key or "\n" in key or "\n" in str(value):
            raise CheckpointError(f"illegal metadata key/value: {key!r}")
        lines.append(f"{key}={value}")
    arrays = []
    for name, arr in named_arrays:
        arr = np.asarray(arr, dtype=np.float64)
        lines.append(f"shape.{name}=" + ",".join(str(d) for d in arr.shape))
        arrays.append((name, arr))
    meta = ("\n".join(lines) + "\n").encode("utf-8")

    blob = bytearray()
    blob += MAGIC
    blob += struct.pack("<I", VERSION)
    blob += struct.pack("<I", len(meta))
    blob += meta
    for _, arr in arrays:
        flat = np.ascontiguousarray(arr, dtype="<f8").reshape(-1)
        blob += struct.pack("<Q", flat.size)
        blob += flat.tobytes()
    write_bytes(path, bytes(blob))


def load_checkpoint(path):
    """Returns (module_name, {param_name: array}, metadata dict)."""
    raw = read_bytes(path, CheckpointError)
    if len(raw) < 12 or raw[:4] != MAGIC:
        raise CheckpointError(f"{path}: not a SSYN checkpoint")
    version = struct.unpack_from("<I", raw, 4)[0]
    if version != VERSION:
        raise CheckpointError(f"{path}: unsupported format version {version}")
    meta_len = struct.unpack_from("<I", raw, 8)[0]
    if 12 + meta_len > len(raw):
        raise CheckpointError(f"{path}: truncated inside the metadata")
    try:
        meta_raw = raw[12 : 12 + meta_len].decode("utf-8")
    except UnicodeDecodeError:
        raise CheckpointError(f"{path}: metadata is not UTF-8") from None
    offset = 12 + meta_len

    meta: dict[str, str] = {}
    order: list[tuple[str, tuple[int, ...]]] = []
    for line in meta_raw.splitlines():
        if not line:
            continue
        key, _, value = line.partition("=")
        meta[key] = value
        if key.startswith("shape."):
            dims = value.split(",") if value else []
            if not all(d.isdecimal() for d in dims):
                raise CheckpointError(f"{path}: {key}={value!r} is not a shape")
            order.append((key[len("shape."):], tuple(int(d) for d in dims)))
    if "module" not in meta:
        raise CheckpointError(f"{path}: metadata lacks module name")

    params: dict[str, np.ndarray] = {}
    for name, shape in order:
        if offset + 8 > len(raw):
            raise CheckpointError(f"{path}: truncated before parameter {name}")
        count = struct.unpack_from("<Q", raw, offset)[0]
        offset += 8
        expected = math.prod(shape)
        if count != expected:
            raise CheckpointError(f"{path}: {name} count {count} != shape {shape}")
        if offset + 8 * count > len(raw):
            raise CheckpointError(f"{path}: truncated inside parameter {name}")
        arr = np.frombuffer(raw, dtype="<f8", count=count, offset=offset).copy()
        offset += 8 * count
        params[name] = arr.reshape(shape)
    if offset != len(raw):
        raise CheckpointError(f"{path}: {len(raw) - offset} trailing bytes")
    return meta["module"], params, meta
