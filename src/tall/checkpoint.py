"""Bit-exact binary persistence for parameter stores.

Layout (little-endian, no padding):

    magic   4 bytes  "TLCP"
    version u32      1
    meta    u32 length + UTF-8 JSON document (config echo, seed, step)
    count   u32 number of tensors, then per tensor:
        name  u16 length + UTF-8 bytes
        dtype u8   1 = float64, the only code
        rank  u8
        dims  rank x u32
        data  raw row-major values

Round trips are bit-identical: metadata is serialized canonically
(sorted keys, no whitespace) and tensors keep store order.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

from .nn import ParamStore

MAGIC = b"TLCP"
VERSION = 1

_FLOAT64 = np.dtype("<f8")
_FLOAT64_CODE = 1


class CheckpointError(RuntimeError):
    """Base class for malformed or mismatched checkpoint files."""


class BadMagicError(CheckpointError):
    pass


class VersionMismatchError(CheckpointError):
    pass


class TruncatedCheckpointError(CheckpointError):
    pass


class MetadataMismatchError(CheckpointError):
    pass


def _canonical_meta(meta: dict) -> bytes:
    return json.dumps(meta, sort_keys=True, separators=(",", ":")).encode("utf-8")


def save_checkpoint(store: ParamStore | dict, meta: dict, path) -> None:
    parts = [MAGIC, struct.pack("<I", VERSION)]
    meta_bytes = _canonical_meta(meta)
    parts.append(struct.pack("<I", len(meta_bytes)))
    parts.append(meta_bytes)
    parts.append(struct.pack("<I", len(store)))
    for name, t in store.items():
        name_bytes = name.encode("utf-8")
        arr = t.data
        parts.append(struct.pack("<H", len(name_bytes)))
        parts.append(name_bytes)
        parts.append(struct.pack("<BB", _FLOAT64_CODE, arr.ndim))
        parts.append(struct.pack(f"<{arr.ndim}I", *arr.shape))
        parts.append(arr.astype(_FLOAT64, copy=False).tobytes())
    Path(path).write_bytes(b"".join(parts))


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.blob):
            raise TruncatedCheckpointError(
                f"checkpoint truncated while reading {what} "
                f"(need {n} bytes at offset {self.pos}, have {len(self.blob)})"
            )
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out

    def text(self, n: int, what: str) -> str:
        try:
            return self.take(n, what).decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CheckpointError(f"{what} is not UTF-8: {exc}")

    def u8(self, what: str) -> int:
        return self.take(1, what)[0]

    def u16(self, what: str) -> int:
        return struct.unpack("<H", self.take(2, what))[0]

    def u32(self, what: str) -> int:
        return struct.unpack("<I", self.take(4, what))[0]


def load_checkpoint(path, expect_meta: dict | None = None
                    ) -> tuple[ParamStore, dict]:
    """Load a checkpoint; all entries come back trainable (caller freezes).

    ``expect_meta`` entries, when given, must match the stored metadata
    exactly; a mismatch (typically the config echo or hash) is an error
    rather than a silent misload.
    """
    r = _Reader(Path(path).read_bytes())
    if r.take(4, "magic") != MAGIC:
        raise BadMagicError(f"{path}: bad magic, not a checkpoint file")
    version = r.u32("version")
    if version != VERSION:
        raise VersionMismatchError(
            f"{path}: unsupported checkpoint version {version}, expected {VERSION}"
        )
    try:
        meta = json.loads(r.text(r.u32("metadata length"), "metadata"))
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"{path}: metadata is not JSON: {exc}")
    if not isinstance(meta, dict):
        raise CheckpointError(f"{path}: metadata is a JSON "
                              f"{type(meta).__name__}, not an object")
    store = ParamStore()
    for i in range(r.u32("tensor count")):
        what = f"tensor {i}"
        name = r.text(r.u16(what), f"{what} name")
        if name in store:
            raise CheckpointError(f"{path}: duplicate tensor name {name!r}")
        dtype_code = r.u8(f"{what} dtype")
        if dtype_code != _FLOAT64_CODE:
            raise CheckpointError(f"{path}: unknown dtype code {dtype_code}")
        rank = r.u8(f"{what} rank")
        dims = struct.unpack(f"<{rank}I", r.take(4 * rank, f"{what} dims"))
        nbytes = math.prod(dims) * _FLOAT64.itemsize
        arr = np.frombuffer(r.take(nbytes, f"{what} data"), dtype=_FLOAT64)
        store.add(name, arr.reshape(dims).copy())
    if r.pos != len(r.blob):
        raise CheckpointError(
            f"{path}: {len(r.blob) - r.pos} trailing bytes after tensor table"
        )
    if expect_meta:
        for key, expected in expect_meta.items():
            if meta.get(key) != expected:
                raise MetadataMismatchError(
                    f"{path}: metadata {key!r} is {meta.get(key)!r}, "
                    f"expected {expected!r}"
                )
    return store, meta
