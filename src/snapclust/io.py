"""SSCW binary container for encoder snapshots.

Layout (all little-endian):
  magic[4] | version u16 | layer_count u32
  per layer: rows u32 | cols u32 | f64 weights row-major | f64 biases[cols]
  meta_len u32 | UTF-8 JSON metadata
"""

from __future__ import annotations

import json
import struct

import numpy as np

from .datasets import _read_bytes
from .errors import DataError

SNAPSHOT_MAGIC = b"SSCW"
CONTAINER_VERSION = 1


def write_container(path, magic: bytes, layers, meta: dict) -> None:
    blob = bytearray()
    blob += magic
    blob += struct.pack("<HI", CONTAINER_VERSION, len(layers))
    for W, b in layers:
        W = np.ascontiguousarray(W, dtype="<f8")
        b = np.ascontiguousarray(b, dtype="<f8")
        blob += struct.pack("<II", W.shape[0], W.shape[1])
        blob += W.tobytes()
        blob += b.tobytes()
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    blob += struct.pack("<I", len(meta_bytes))
    blob += meta_bytes
    with open(path, "wb") as fh:
        fh.write(bytes(blob))


def read_container(path, magic: bytes):
    data = _read_bytes(path)
    if len(data) < 10 or data[:4] != magic:
        raise DataError(f"{path}: bad magic, expected {magic!r}")
    version, layer_count = struct.unpack_from("<HI", data, 4)
    if version != CONTAINER_VERSION:
        raise DataError(f"{path}: unsupported container version {version}")
    offset = 10
    layers = []
    for _ in range(layer_count):
        if offset + 8 > len(data):
            raise DataError(f"{path}: truncated layer header")
        rows, cols = struct.unpack_from("<II", data, offset)
        offset += 8
        need = 8 * (rows * cols + cols)
        if offset + need > len(data):
            raise DataError(f"{path}: truncated layer payload")
        W = np.frombuffer(data, dtype="<f8", count=rows * cols, offset=offset)
        W = W.reshape(rows, cols).copy()
        offset += 8 * rows * cols
        b = np.frombuffer(data, dtype="<f8", count=cols, offset=offset).copy()
        offset += 8 * cols
        layers.append((W, b))
    if offset + 4 > len(data):
        raise DataError(f"{path}: truncated metadata length")
    (meta_len,) = struct.unpack_from("<I", data, offset)
    offset += 4
    if offset + meta_len > len(data):
        raise DataError(f"{path}: truncated metadata")
    try:
        meta = json.loads(data[offset : offset + meta_len].decode("utf-8"))
    except ValueError as exc:
        raise DataError(f"{path}: metadata is not UTF-8 JSON: {exc}") from None
    return layers, meta
