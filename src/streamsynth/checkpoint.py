"""Length-prefixed little-endian checkpoint files.

Layout: magic ``SSYN``, u32 format version, u32 metadata byte length,
metadata as UTF-8 ``key=value`` lines (module name plus one ``shape.<name>``
entry per parameter, in ``parameters()`` order), then each parameter as a u64
element count followed by raw float64 little-endian values.

Both directions hold one copy of the parameters. ``save_checkpoint`` writes
the head and then each array's count and values straight from the array
(``fileio.write_parts``). ``open_checkpoint`` reads in this order: the
12-byte head, the metadata, then each parameter's count, checking the whole
layout (magic, version, counts against shapes, truncation, trailing bytes)
against the file's size before it reads a single value. Only then does
``Checkpoint.read`` fill an array the caller allocated, so a bad file costs
no more memory than its metadata, and ``persist`` reads each parameter into
the model it built.
"""

from __future__ import annotations

import math
import os
import struct
from contextlib import contextmanager
from typing import BinaryIO, Iterator, Sequence

import numpy as np

from .fileio import read_binary, write_parts

MAGIC = b"SSYN"
VERSION = 1
F8 = np.dtype("<f8")


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, module: str, named_arrays: Sequence[tuple[str, np.ndarray]],
                    extra_meta: dict[str, str] | None = None) -> None:
    lines = [f"module={module}"]
    for key, value in (extra_meta or {}).items():
        if "=" in key or "\n" in key or "\n" in str(value):
            raise CheckpointError(f"illegal metadata key/value: {key!r}")
        lines.append(f"{key}={value}")
    values = []
    for name, arr in named_arrays:
        arr = np.asarray(arr, dtype=F8)
        lines.append(f"shape.{name}=" + ",".join(str(d) for d in arr.shape))
        values += [struct.pack("<Q", arr.size), np.ascontiguousarray(arr)]
    meta = ("\n".join(lines) + "\n").encode("utf-8")
    write_parts(path, [MAGIC + struct.pack("<II", VERSION, len(meta)) + meta, *values])


class Checkpoint:
    """An open checkpoint whose layout fits its file: its ``module`` name,
    its ``meta`` entries and each parameter's shape in ``shapes``, in file
    order (a repeated name keeps its last entry)."""

    def __init__(self, path, f: BinaryIO):
        self.path, self._file = path, f
        size = os.fstat(f.fileno()).st_size
        head = f.read(12)
        if len(head) < 12 or head[:4] != MAGIC:
            raise CheckpointError(f"{path}: not a SSYN checkpoint")
        version, meta_len = struct.unpack_from("<II", head, 4)
        if version != VERSION:
            raise CheckpointError(f"{path}: unsupported format version {version}")
        if 12 + meta_len > size:
            raise CheckpointError(f"{path}: truncated inside the metadata")
        try:
            meta_raw = f.read(meta_len).decode("utf-8")
        except UnicodeDecodeError:
            raise CheckpointError(f"{path}: metadata is not UTF-8") from None
        offset = 12 + meta_len

        self.meta: dict[str, str] = {}
        order: list[tuple[str, tuple[int, ...]]] = []
        for line in meta_raw.splitlines():
            if not line:
                continue
            key, _, value = line.partition("=")
            self.meta[key] = value
            if key.startswith("shape."):
                dims = value.split(",") if value else []
                if not all(d.isdecimal() for d in dims):
                    raise CheckpointError(f"{path}: {key}={value!r} is not a shape")
                order.append((key[len("shape."):], tuple(int(d) for d in dims)))
        if "module" not in self.meta:
            raise CheckpointError(f"{path}: metadata lacks module name")
        self.module = self.meta["module"]

        self.shapes: dict[str, tuple[int, ...]] = {}
        self._offsets: dict[str, int] = {}
        for name, shape in order:
            if offset + 8 > size:
                raise CheckpointError(f"{path}: truncated before parameter {name}")
            f.seek(offset)
            count = struct.unpack("<Q", f.read(8))[0]
            offset += 8
            if count != math.prod(shape):
                raise CheckpointError(f"{path}: {name} count {count} != shape {shape}")
            if offset + 8 * count > size:
                raise CheckpointError(f"{path}: truncated inside parameter {name}")
            self.shapes[name], self._offsets[name] = shape, offset
            offset += 8 * count
        if offset != size:
            raise CheckpointError(f"{path}: {size - offset} trailing bytes")

    def read(self, name: str, out: np.ndarray) -> np.ndarray:
        """Fill ``out``, a C-contiguous ``<f8`` array of the parameter's
        shape, with its saved values, and return it; any other array is a
        ``TypeError``, so no value is read with the wrong byte order or
        layout."""
        if out.dtype != F8 or not out.flags.c_contiguous or out.shape != self.shapes[name]:
            raise TypeError(f"{name} reads into a C-contiguous {F8.str} array "
                            f"of shape {self.shapes[name]}")
        self._file.seek(self._offsets[name])
        if self._file.readinto(out) != out.nbytes:
            raise CheckpointError(f"{self.path}: truncated inside parameter {name}")
        return out


@contextmanager
def open_checkpoint(path) -> Iterator[Checkpoint]:
    """The checkpoint at ``path``, open for ``Checkpoint.read`` until the
    block ends; a file whose layout does not fit raises ``CheckpointError``."""
    with read_binary(path, CheckpointError) as f:
        yield Checkpoint(path, f)


def load_checkpoint(path):
    """Returns (module_name, {param_name: array}, metadata dict)."""
    with open_checkpoint(path) as ckpt:
        params = {name: ckpt.read(name, np.empty(shape, F8))
                  for name, shape in ckpt.shapes.items()}
    return ckpt.module, params, ckpt.meta
