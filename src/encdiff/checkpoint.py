"""Versioned binary checkpoint container.

Layout: 4-byte magic, little-endian uint32 header length, UTF-8 JSON header,
then the concatenated tensor payload as little-endian float64, row-major.
The header records the format version, schedule endpoints, encoder kind, step
counter, config hash/text and one (name, shape, offset) entry per tensor, so a
save → load round-trip reproduces every array bit-exactly.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError
from .io_utils import atomic_write_bytes

MAGIC = b"ENC1"
FORMAT_VERSION = 1
_REQUIRED_KEYS = ("format_version", "lambda_max", "lambda_min", "encoder_kind", "step",
                  "tensors")


@dataclass
class Checkpoint:
    """In-memory image of a checkpoint file."""

    lambda_max: float
    lambda_min: float
    encoder_kind: str
    step: int
    arrays: dict[str, np.ndarray]
    config_hash: str = ""
    config_text: str = ""
    meta: dict = field(default_factory=dict)


def save(path: str, ckpt: Checkpoint) -> None:
    names = list(ckpt.arrays.keys())
    tensors = []
    offset = 0
    blobs = []
    for name in names:
        arr = np.ascontiguousarray(ckpt.arrays[name], dtype=np.float64)
        blob = arr.astype("<f8", copy=False).tobytes()
        tensors.append({"name": name, "shape": list(arr.shape), "offset": offset})
        blobs.append(blob)
        offset += len(blob)
    header = {
        "format_version": FORMAT_VERSION,
        "lambda_max": ckpt.lambda_max,
        "lambda_min": ckpt.lambda_min,
        "encoder_kind": ckpt.encoder_kind,
        "step": ckpt.step,
        "config_hash": ckpt.config_hash,
        "config_text": ckpt.config_text,
        "meta": ckpt.meta,
        "tensors": tensors,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    payload = MAGIC + struct.pack("<I", len(header_bytes)) + header_bytes + b"".join(blobs)
    atomic_write_bytes(path, payload)


def load(path: str) -> Checkpoint:
    """Read a checkpoint; any malformed content raises ConfigError."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != MAGIC:
        raise ConfigError(f"not a checkpoint file (bad magic {raw[:4]!r}): {path}")
    if len(raw) < 8:
        raise ConfigError(f"truncated checkpoint: {len(raw)} bytes, no header length: {path}")
    (header_len,) = struct.unpack("<I", raw[4:8])
    base = 8 + header_len
    if base > len(raw):
        raise ConfigError(f"truncated checkpoint: header ends at byte {base} but file has "
                          f"{len(raw)}: {path}")
    try:
        header = json.loads(raw[8:base].decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError and JSONDecodeError
        raise ConfigError(f"corrupt checkpoint header ({exc}): {path}") from None
    if not isinstance(header, dict) or any(key not in header for key in _REQUIRED_KEYS):
        raise ConfigError(f"checkpoint header lacks one of {_REQUIRED_KEYS}: {path}")
    if header["format_version"] != FORMAT_VERSION:
        raise ConfigError(f"unsupported checkpoint format version {header['format_version']}")
    arrays: dict[str, np.ndarray] = {}
    size = base
    try:
        for entry in header["tensors"]:
            shape = tuple(entry["shape"])
            count = int(np.prod(shape)) if shape else 1
            start = base + entry["offset"]
            end = start + count * 8
            if start < base or end > len(raw):
                raise ConfigError(f"truncated checkpoint: tensor '{entry['name']}' spans bytes "
                                  f"{start}..{end} but file has {len(raw)}: {path}")
            values = np.frombuffer(raw[start:end], dtype="<f8")
            arrays[entry["name"]] = values.reshape(shape).copy()
            size = max(size, end)
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed tensor entry in checkpoint header ({exc!r}): {path}") from None
    if size != len(raw):
        raise ConfigError(f"checkpoint has {len(raw) - size} bytes after its last tensor: {path}")
    return Checkpoint(
        lambda_max=header["lambda_max"],
        lambda_min=header["lambda_min"],
        encoder_kind=header["encoder_kind"],
        step=header["step"],
        arrays=arrays,
        config_hash=header.get("config_hash", ""),
        config_text=header.get("config_text", ""),
        meta=header.get("meta", {}),
    )
