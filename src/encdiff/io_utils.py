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


def write_csv(path: str, header: list[str], rows: list[tuple], config_hash: str = "") -> None:
    lines = []
    if config_hash:
        lines.append(f"# config_hash={config_hash}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    atomic_write_bytes(path, ("\n".join(lines) + "\n").encode("utf-8"))


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def read_csv(path: str) -> tuple[list[str], list[list[str]], str]:
    """Read back a stamped CSV; returns (header, rows, config_hash)."""
    config_hash = ""
    header: list[str] = []
    rows: list[list[str]] = []
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("#"):
                if "config_hash=" in line:
                    config_hash = line.split("config_hash=", 1)[1].strip()
                continue
            if not header:
                header = line.split(",")
            elif line:
                rows.append(line.split(","))
    return header, rows, config_hash


def write_pgm(path: str, image: np.ndarray, config_hash: str = "") -> None:
    """Binary PGM (P5) writer for a 2-D uint8 array."""
    image = np.asarray(image)
    if image.ndim != 2 or image.dtype != np.uint8:
        raise ValueError("write_pgm expects a 2-D uint8 array")
    h, w = image.shape
    comment = f"# config_hash={config_hash}\n" if config_hash else ""
    header = f"P5\n{comment}{w} {h}\n255\n".encode("ascii")
    atomic_write_bytes(path, header + image.tobytes())


def read_pgm(path: str) -> tuple[np.ndarray, str]:
    """Read back a P5 file written by write_pgm; returns (image, config_hash)."""
    with open(path, "rb") as f:
        raw = f.read()
    if not raw.startswith(b"P5"):
        raise ValueError(f"not a binary PGM file: {path}")
    config_hash = ""
    pos = 2
    tokens: list[bytes] = []
    while len(tokens) < 3:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if raw[pos : pos + 1] == b"#":
            end = raw.index(b"\n", pos)
            comment = raw[pos:end].decode("ascii")
            if "config_hash=" in comment:
                config_hash = comment.split("config_hash=", 1)[1].strip()
            pos = end + 1
            continue
        end = pos
        while end < len(raw) and not raw[end : end + 1].isspace():
            end += 1
        tokens.append(raw[pos:end])
        pos = end
    pos += 1  # single whitespace after maxval
    w, h, maxval = (int(t) for t in tokens)
    if maxval != 255:
        raise ValueError("only 8-bit PGM supported")
    image = np.frombuffer(raw[pos : pos + w * h], dtype=np.uint8).reshape(h, w).copy()
    return image, config_hash


def tile_grid(images: np.ndarray, n_cols: int) -> np.ndarray:
    """Arrange (N, H, W) images into one (rows·H, cols·W) grid, zero-padded."""
    n, h, w = images.shape
    n_rows = (n + n_cols - 1) // n_cols
    grid = np.zeros((n_rows * h, n_cols * w), dtype=images.dtype)
    for k in range(n):
        r, c = divmod(k, n_cols)
        grid[r * h : (r + 1) * h, c * w : (c + 1) * w] = images[k]
    return grid
