import struct

import numpy as np
import pytest

from tall.checkpoint import (
    MAGIC,
    VERSION,
    BadMagicError,
    CheckpointError,
    MetadataMismatchError,
    TruncatedCheckpointError,
    VersionMismatchError,
    load_checkpoint,
    save_checkpoint,
)
from tall.nn import ParamStore


def random_store(rng, n_tensors=None):
    store = ParamStore()
    n = int(rng.integers(1, 8)) if n_tensors is None else n_tensors
    for i in range(n):
        rank = int(rng.integers(0, 4))
        shape = tuple(int(d) for d in rng.integers(1, 5, size=rank))
        store.add(f"module{i}.weight", rng.standard_normal(shape))
    return store


def test_save_load_save_idempotent(tmp_path):
    rng = np.random.default_rng(0)
    store = random_store(rng)
    meta = {"seed": 7, "step": 12, "config": {"d_model": 8}}
    p1, p2 = tmp_path / "a.tlcp", tmp_path / "b.tlcp"
    save_checkpoint(store, meta, p1)
    loaded, meta2 = load_checkpoint(p1)
    assert meta2 == meta
    save_checkpoint(loaded, meta2, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_fuzz_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    for i in range(100):
        store = random_store(rng)
        path = tmp_path / f"fuzz{i}.tlcp"
        save_checkpoint(store, {"i": i}, path)
        loaded, _ = load_checkpoint(path)
        assert loaded.names() == store.names()
        for name, t in store.items():
            other = loaded[name]
            assert other.data.dtype == t.data.dtype
            assert other.data.shape == t.data.shape
            assert other.data.tobytes() == t.data.tobytes()


def test_bad_magic(tmp_path):
    path = tmp_path / "x.tlcp"
    store = random_store(np.random.default_rng(2), 1)
    save_checkpoint(store, {}, path)
    blob = bytearray(path.read_bytes())
    blob[0] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(BadMagicError):
        load_checkpoint(path)


def test_version_mismatch(tmp_path):
    path = tmp_path / "x.tlcp"
    save_checkpoint(random_store(np.random.default_rng(3), 1), {}, path)
    blob = bytearray(path.read_bytes())
    blob[4] = 99
    path.write_bytes(bytes(blob))
    with pytest.raises(VersionMismatchError):
        load_checkpoint(path)


def test_truncated_tensor_table(tmp_path):
    path = tmp_path / "x.tlcp"
    save_checkpoint(random_store(np.random.default_rng(4), 3), {}, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 5])
    with pytest.raises(TruncatedCheckpointError):
        load_checkpoint(path)


def test_metadata_echo_mismatch(tmp_path):
    path = tmp_path / "x.tlcp"
    save_checkpoint(random_store(np.random.default_rng(5), 1),
                    {"config_hash": "abc"}, path)
    store, _ = load_checkpoint(path, expect_meta={"config_hash": "abc"})
    with pytest.raises(MetadataMismatchError):
        load_checkpoint(path, expect_meta={"config_hash": "other"})


def test_scalar_tensor_roundtrip(tmp_path):
    store = ParamStore()
    store.add("s", np.float64(3.25))
    path = tmp_path / "s.tlcp"
    save_checkpoint(store, {}, path)
    loaded, _ = load_checkpoint(path)
    assert loaded["s"].data.shape == ()
    assert float(loaded["s"].data) == 3.25


def _blob(meta: bytes, tensors: list[tuple[bytes, int]]) -> bytes:
    """A checkpoint file written by hand: ``meta`` as the metadata bytes,
    then one [2] tensor of zeros per (name bytes, dtype code)."""
    parts = [MAGIC, struct.pack("<II", VERSION, len(meta)), meta,
             struct.pack("<I", len(tensors))]
    for name, code in tensors:
        parts += [struct.pack("<H", len(name)), name,
                  struct.pack("<BBI", code, 1, 2), bytes(16)]
    return b"".join(parts)


@pytest.mark.parametrize("blob, message", [
    (_blob(b"{}", [(b"w", 1), (b"w", 1)]), "duplicate tensor name 'w'"),
    (_blob(b"{}", [(b"\xff\xfe", 1)]), "tensor 0 name is not UTF-8"),
    (_blob(b"\xff", []), "metadata is not UTF-8"),
    (_blob(b"{seed: 1}", []), "metadata is not JSON"),
    (_blob(b"[1, 2]", []), "metadata is a JSON list, not an object"),
    (_blob(b"{}", [(b"w", 0)]), "unknown dtype code 0"),
    # 2**64 elements, whose int64 byte count wraps round to 0
    (_blob(b"{}", [])[:-4] + struct.pack("<IH", 1, 1) + b"w"
     + struct.pack("<BB4I", 1, 4, *[2 ** 16] * 4), "truncated"),
], ids=["duplicate_name", "name_not_utf8", "meta_not_utf8", "meta_not_json",
        "meta_a_list", "float32_code", "dims_overflow"])
def test_a_malformed_file_is_a_checkpoint_error(tmp_path, blob, message):
    path = tmp_path / "x.tlcp"
    path.write_bytes(blob)
    with pytest.raises(CheckpointError, match=message):
        load_checkpoint(path, expect_meta={"kind": "causal-lm"})
