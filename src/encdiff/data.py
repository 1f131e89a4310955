"""Dataset ingestion and synthesis.

Image corpora arrive as big-endian IDX files (unsigned-byte rank-3, the
MNIST-style container); synthetic datasets are isotropic 2-D Gaussians with
their generating parameters recorded for oracle comparisons.  Pixels map to
the (−1, 1) convention via v -> 2v/255 − 1.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

IDX_U8_RANK3_MAGIC = 0x00000803

PIXELS = "pixels"
REAL = "real"


@dataclass
class Dataset:
    """Immutable-after-load collection of same-shaped items."""

    items: np.ndarray  # (N, d) uint8 pixels or float64 vectors
    dims: tuple  # per-item shape before flattening, e.g. (28, 28) or (2,)
    name: str
    kind: str  # PIXELS or REAL
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in (PIXELS, REAL):
            raise ConfigError(f"unknown dataset kind '{self.kind}'")
        if self.kind == PIXELS:
            if self.items.min() < 0 or self.items.max() > 255:
                raise ConfigError("pixel datasets must have values in {0..255}")

    def __len__(self) -> int:
        return self.items.shape[0]

    @property
    def d(self) -> int:
        return int(np.prod(self.dims))


def scale_pixels(v) -> np.ndarray:
    """Map an array of integer pixel values {0..255} to the symmetric range [−1, 1]."""
    arr = np.asarray(v)
    if arr.min() < 0 or arr.max() > 255:
        raise ValueError("pixel values must lie in {0..255}")
    return 2.0 * arr.astype(np.float64) / 255.0 - 1.0


def unscale_pixels(x) -> np.ndarray:
    """Nearest pixel level {0..255} of each value, clipped to [−1, 1]; inverts scale_pixels."""
    return np.rint((np.clip(x, -1.0, 1.0) + 1.0) * 255.0 / 2.0).astype(np.uint8)


def load_idx(path: str) -> Dataset:
    """Parse a big-endian IDX file holding unsigned-byte rank-3 image data."""
    with open(path, "rb") as f:
        raw = f.read()
    if len(raw) < 4:
        raise ConfigError(f"truncated IDX file (only {len(raw)} bytes): {path}")
    (magic,) = struct.unpack(">I", raw[:4])
    if magic != IDX_U8_RANK3_MAGIC:
        raise ConfigError(
            f"bad IDX magic 0x{magic:08x} at byte 0 (expected 0x{IDX_U8_RANK3_MAGIC:08x}): {path}"
        )
    header_end = 4 + 3 * 4
    if len(raw) < header_end:
        raise ConfigError(f"truncated IDX header at byte {len(raw)}: {path}")
    n, rows, cols = struct.unpack(">III", raw[4:header_end])
    if not n * rows * cols:
        raise ConfigError(f"empty IDX file ({n} images of {rows}x{cols} pixels): {path}")
    expected = header_end + n * rows * cols
    if len(raw) < expected:
        raise ConfigError(
            f"truncated IDX payload at byte {len(raw)} (expected {expected}): {path}"
        )
    if len(raw) > expected:
        raise ConfigError(f"IDX file has {len(raw)} bytes, {len(raw) - expected} after its "
                          f"payload (expected {expected}): {path}")
    items = np.frombuffer(raw[header_end:expected], dtype=np.uint8).reshape(n, rows * cols).copy()
    return Dataset(items=items, dims=(rows, cols), name=path, kind=PIXELS)


def write_idx(path: str, dataset: Dataset) -> None:
    """Write a pixel dataset as big-endian IDX (u8, rank 3); inverse of load_idx."""
    if dataset.kind != PIXELS:
        raise ConfigError("only pixel datasets can be written as IDX")
    rows, cols = dataset.dims
    header = struct.pack(">IIII", IDX_U8_RANK3_MAGIC, len(dataset), rows, cols)
    with open(path, "wb") as f:
        f.write(header)
        f.write(dataset.items.astype(np.uint8).tobytes())


def synth_gaussian2d(n: int, mean, cov_scale: float, seed: int) -> Dataset:
    """n i.i.d. draws from N(mean, cov_scale·I) in 2-D, parameters kept in metadata."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if cov_scale < 0:
        raise ValueError(f"cov_scale must be nonnegative, got {cov_scale}")
    mean = np.asarray(mean, dtype=np.float64)
    if mean.shape != (2,):
        raise ValueError(f"mean must be a 2-vector, got shape {mean.shape}")
    rng = np.random.default_rng(seed)
    items = mean[None, :] + np.sqrt(cov_scale) * rng.standard_normal((n, 2))
    return Dataset(
        items=items,
        dims=(2,),
        name=f"gaussian2d(n={n})",
        kind=REAL,
        metadata={"mean": mean.tolist(), "cov_scale": float(cov_scale), "seed": int(seed)},
    )


def batches(items: np.ndarray, batch_size: int, rng: np.random.Generator):
    """Yield index-permuted batches of an (N, d) array, every item exactly once per epoch."""
    order = rng.permutation(items.shape[0])
    for start in range(0, items.shape[0], batch_size):
        idx = order[start : start + batch_size]
        yield items[idx]


def real_items(dataset: Dataset) -> np.ndarray:
    """Items as float64 in model space: pixels scaled to (−1, 1), real data as-is."""
    if dataset.kind == PIXELS:
        return scale_pixels(dataset.items)
    return np.asarray(dataset.items, dtype=np.float64)
