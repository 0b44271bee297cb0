"""Versioned binary checkpoints.

Layout: 8-byte magic, uint32 format version, uint64 header length, JSON
header (config snapshot + ordered param manifest with shapes), then the
raw little-endian float64 payload of every param in manifest order.
Round trips are bit-exact.
"""
from __future__ import annotations

import json
import os
import struct

import numpy as np

from .config import ExperimentConfig
from .errors import CheckpointError
from .runner import build_policy

MAGIC = b"GFCKPT01"
VERSION = 1


def save_checkpoint(policy, config: ExperimentConfig, path) -> None:
    manifest = [{"id": p.id, "shape": list(p.value.data.shape)} for p in policy.store]
    header = json.dumps({"config": config.to_dict(), "params": manifest},
                        sort_keys=True).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for p in policy.store:
            fh.write(np.ascontiguousarray(p.value.data, dtype="<f8").tobytes())


def read_header(path) -> tuple[dict, int]:
    """Parse and validate the header; returns (header, payload offset)."""
    try:
        fh = open(path, "rb")
    except OSError as exc:
        raise CheckpointError(f"checkpoint {path}: cannot open ({exc})") from exc
    with fh:
        magic = fh.read(len(MAGIC))
        if magic != MAGIC:
            raise CheckpointError(f"bad magic {magic!r}: not a checkpoint file")
        fixed = fh.read(12)
        if len(fixed) != 12:
            raise CheckpointError("truncated checkpoint header")
        version, hlen = struct.unpack("<IQ", fixed)
        if version != VERSION:
            raise CheckpointError(f"unsupported checkpoint version {version}")
        # checked before reading, so a corrupt length never sizes a buffer
        if hlen > os.fstat(fh.fileno()).st_size - fh.tell():
            raise CheckpointError("truncated checkpoint header")
        raw = fh.read(hlen)
        offset = fh.tell()
    try:
        header = json.loads(raw.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError("corrupt checkpoint header") from exc
    if not isinstance(header, dict) or not {"config", "params"} <= header.keys():
        raise CheckpointError("checkpoint header lacks a config or a param manifest")
    if not isinstance(header["config"], dict):
        raise CheckpointError("checkpoint config is not a key/value map")
    if not isinstance(header["params"], list) or not all(map(_is_entry, header["params"])):
        raise CheckpointError("checkpoint param manifest needs a list of {id, shape} entries")
    return header, offset


def _is_entry(m) -> bool:
    return (isinstance(m, dict) and isinstance(m.get("id"), str)
            and isinstance(m.get("shape"), list)
            and all(type(n) is int and n >= 0 for n in m["shape"]))


def load_checkpoint(path):
    """Rebuild the policy named in the header and restore every param bit-exactly."""
    header, offset = read_header(path)
    config = ExperimentConfig.from_dict(header["config"])
    policy = build_policy(config)
    manifest = header["params"]
    listed = [m["id"] for m in manifest]
    actual = policy.store.ids()
    if listed != actual:
        raise CheckpointError(
            f"param manifest mismatch: file lists {len(listed)} params, "
            f"model has {len(actual)}"
        )
    with open(path, "rb") as fh:
        fh.seek(0, 2)
        total = fh.tell()
        fh.seek(offset)
        for m in manifest:
            p = policy.store[m["id"]]
            shape = tuple(m["shape"])
            if shape != p.value.data.shape:
                raise CheckpointError(
                    f"shape mismatch for {m['id']}: file {shape}, "
                    f"model {p.value.data.shape}"
                )
            nbytes = int(np.prod(shape, dtype=np.int64)) * 8 if shape else 8
            buf = fh.read(nbytes)
            if len(buf) != nbytes:
                raise CheckpointError(f"truncated payload at param {m['id']}")
            p.value.data = np.frombuffer(buf, dtype="<f8").reshape(shape).copy()
        if fh.tell() != total:
            raise CheckpointError("trailing bytes after checkpoint payload")
    return policy, config
