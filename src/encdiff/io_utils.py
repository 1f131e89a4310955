"""File output helpers: atomic writes, stamped CSV, and PGM images.

Every artifact carries the run's config hash: CSV files in a leading comment
line, PGM files in a format comment after the magic.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np


def atomic_write_bytes(path: str, payload: bytes) -> None:
    """Write path through a temporary file and a rename, with the mode open() would give."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(payload)
            # mkstemp creates the file as 0600 whatever the umask
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(f.fileno(), 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str, header: list[str], rows: list[tuple], config_hash: str) -> None:
    lines = [f"# config_hash={config_hash}", ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("utf-8"))


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def write_pgm(path: str, image: np.ndarray, config_hash: str) -> None:
    """Binary PGM (P5) writer for a 2-D uint8 array."""
    image = np.asarray(image)
    if image.ndim != 2 or image.dtype != np.uint8:
        raise ValueError("write_pgm expects a 2-D uint8 array")
    h, w = image.shape
    header = f"P5\n# config_hash={config_hash}\n{w} {h}\n255\n".encode("ascii")
    atomic_write_bytes(path, header + image.tobytes())


def tile_grid(images: np.ndarray, n_cols: int) -> np.ndarray:
    """Arrange (N, H, W) images into one (rows·H, cols·W) grid, zero-padded."""
    n, h, w = images.shape
    n_rows = (n + n_cols - 1) // n_cols
    grid = np.zeros((n_rows * h, n_cols * w), dtype=images.dtype)
    for k in range(n):
        r, c = divmod(k, n_cols)
        grid[r * h : (r + 1) * h, c * w : (c + 1) * w] = images[k]
    return grid
