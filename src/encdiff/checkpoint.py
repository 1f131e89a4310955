"""Versioned binary checkpoint container.

Layout: 4-byte magic, little-endian uint32 header length, UTF-8 JSON header,
then the concatenated tensor payload as little-endian float64, row-major.
The header records the format version, the step counter, the run's config
text and its hash, and one (name, shape, offset) entry per tensor, so a
save → load round-trip reproduces every array bit-exactly.  The config text is
the only description of the run: schedule endpoints, encoder kind and network
widths are read from it, and the data dimension from the arrays' shapes.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .io_utils import atomic_write_bytes

MAGIC = b"ENC1"
FORMAT_VERSION = 2
_REQUIRED_KEYS = ("format_version", "step", "config_hash", "config_text", "tensors")


@dataclass
class Checkpoint:
    """In-memory image of a checkpoint file."""

    step: int
    arrays: dict[str, np.ndarray]
    config_text: str
    config_hash: str


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
        "step": ckpt.step,
        "config_hash": ckpt.config_hash,
        "config_text": ckpt.config_text,
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
    # type(), not isinstance: JSON true/false load as bools, which are ints
    if type(header["step"]) is not int or header["step"] < 0:
        raise ConfigError(f"checkpoint header 'step' is not a non-negative integer: "
                          f"{header['step']!r}: {path}")
    for key in ("config_hash", "config_text"):
        if type(header[key]) is not str:
            raise ConfigError(f"checkpoint header '{key}' is not a string: {path}")
    arrays: dict[str, np.ndarray] = {}
    end = base
    try:
        for entry in header["tensors"]:
            name, shape = entry["name"], entry["shape"]
            if name in arrays:
                raise ConfigError(f"checkpoint has two tensors named '{name}': {path}")
            # tensors lie back to back: each starts where the one before it ends
            if entry["offset"] != end - base:
                raise ConfigError(f"checkpoint tensor '{name}' has offset {entry['offset']!r}, "
                                  f"expected {end - base}: {path}")
            if any(type(n) is not int or n < 0 for n in shape):
                raise ConfigError(f"checkpoint tensor '{name}' has shape {shape!r}, not a "
                                  f"list of non-negative ints: {path}")
            start, end = end, end + 8 * math.prod(shape)
            if end > len(raw):
                raise ConfigError(f"truncated checkpoint: tensor '{name}' spans bytes "
                                  f"{start}..{end} but file has {len(raw)}: {path}")
            arrays[name] = np.frombuffer(raw[start:end], dtype="<f8").reshape(shape).copy()
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"malformed tensor entry in checkpoint header ({exc!r}): {path}") from None
    if end != len(raw):
        raise ConfigError(f"checkpoint has {len(raw) - end} bytes after its last tensor: {path}")
    return Checkpoint(step=header["step"], arrays=arrays, config_text=header["config_text"],
                      config_hash=header["config_hash"])
