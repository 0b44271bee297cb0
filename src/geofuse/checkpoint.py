"""Versioned binary checkpoints.

Layout: 8-byte magic, uint32 format version, uint64 header length, JSON
header (config snapshot + ordered param manifest with shapes), the raw
little-endian float64 payload of every param in manifest order, then a
32-byte SHA-256 of every byte before it.  The manifest follows store order,
so the payload is the store's flat vector (`ParamSet.flat`) as it lies in
memory: `save_checkpoint` writes it with one `tobytes` and the file with
one write; `load_checkpoint` reads the file with one read, checks the
digest before it parses the header, and fills the vector with one copy.
Round trips are bit-exact.
"""
from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from .config import ExperimentConfig
from .errors import CheckpointError
from .runner import build_policy

MAGIC = b"GFCKPT01"
VERSION = 2
_FIXED = len(MAGIC) + 12  # magic, version, header length
_DIGEST = 32  # SHA-256 trailer


def save_checkpoint(policy, config: ExperimentConfig, path) -> None:
    manifest = [{"id": p.id, "shape": list(p.value.data.shape)} for p in policy.store]
    header = json.dumps({"config": config.to_dict(), "params": manifest},
                        sort_keys=True).encode()
    payload = policy.store.flat().astype("<f8", copy=False).tobytes()
    body = b"".join([MAGIC, struct.pack("<IQ", VERSION, len(header)), header, payload])
    Path(path).write_bytes(body + hashlib.sha256(body).digest())


def _is_entry(m) -> bool:
    return (isinstance(m, dict) and isinstance(m.get("id"), str)
            and isinstance(m.get("shape"), list)
            and all(type(n) is int and n >= 0 for n in m["shape"]))


def load_checkpoint(path):
    """Rebuild the policy named in the header and restore every param
    bit-exactly, each param's data a view into the store's flat vector."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise CheckpointError(f"checkpoint {path}: cannot open ({exc})") from exc
    if raw[:len(MAGIC)] != MAGIC:
        raise CheckpointError(f"bad magic {raw[:len(MAGIC)]!r}: not a checkpoint file")
    if len(raw) < _FIXED + _DIGEST:
        raise CheckpointError("truncated checkpoint header")
    version, hlen = struct.unpack_from("<IQ", raw, len(MAGIC))
    if version != VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    end = len(raw) - _DIGEST
    if hashlib.sha256(memoryview(raw)[:end]).digest() != raw[end:]:
        raise CheckpointError("checkpoint digest mismatch: the file is corrupt")
    if hlen > end - _FIXED:
        raise CheckpointError("truncated checkpoint header")
    try:
        header = json.loads(raw[_FIXED:_FIXED + hlen].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError("corrupt checkpoint header") from exc
    if not isinstance(header, dict) or not {"config", "params"} <= header.keys():
        raise CheckpointError("checkpoint header lacks a config or a param manifest")
    if not isinstance(header["config"], dict):
        raise CheckpointError("checkpoint config is not a key/value map")
    manifest = header["params"]
    if not isinstance(manifest, list) or not all(map(_is_entry, manifest)):
        raise CheckpointError("checkpoint param manifest needs a list of {id, shape} entries")
    config = ExperimentConfig.from_dict(header["config"])
    policy = build_policy(config)
    listed = [m["id"] for m in manifest]
    actual = policy.store.ids()
    if listed != actual:
        raise CheckpointError(
            f"param manifest mismatch: file lists {len(listed)} params, "
            f"model has {len(actual)}"
        )
    for m, p in zip(manifest, policy.store):
        if tuple(m["shape"]) != p.value.data.shape:
            raise CheckpointError(
                f"shape mismatch for {m['id']}: file {tuple(m['shape'])}, "
                f"model {p.value.data.shape}"
            )
    offset = _FIXED + hlen
    flat = policy.store.flat()
    need = 8 * flat.size
    if end - offset < need:
        raise CheckpointError(f"truncated payload: {end - offset} bytes, manifest needs {need}")
    if end - offset > need:
        raise CheckpointError("trailing bytes after checkpoint payload")
    flat[:] = np.frombuffer(raw, dtype="<f8", count=flat.size, offset=offset)
    return policy, config
