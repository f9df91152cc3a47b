"""On-disk formats: LCF1 binary matrices, CSV tables, PGM heatmaps.

All text output is deterministic: floats are rendered with repr (shortest
round-trip form), so reruns of the same computation produce byte-identical
files.
"""

from __future__ import annotations

import hashlib
import json
import struct
from pathlib import Path

import numpy as np

__all__ = [
    "write_lcf",
    "read_lcf",
    "write_csv",
    "write_pgm",
    "sha256_file",
]

LCF_MAGIC = b"LCF1"
LCF_DTYPE_F64 = 1  # little-endian float64; the only code defined so far


def _format_column(col: np.ndarray) -> list:
    """Shortest round-trip text of every entry: integers plain, everything
    else as the repr of a float.  Formatting Python scalars from `tolist`
    is about twice as fast as numpy scalars."""
    values = col.tolist()
    if col.dtype.kind in "iu":
        return list(map(str, values))
    return [repr(float(x)) for x in values]


def write_lcf(path, values: np.ndarray) -> Path:
    """Write a 2-D float64 matrix: 16-byte header (magic 'LCF1', u32 n_q,
    u32 n_p, u32 dtype code) then row-major little-endian values."""
    path = Path(path)
    a = np.ascontiguousarray(values, dtype="<f8")
    if a.ndim != 2:
        raise ValueError(f"LCF1 stores 2-D matrices, got shape {a.shape}")
    with open(path, "wb") as fh:
        fh.write(LCF_MAGIC)
        fh.write(struct.pack("<III", a.shape[0], a.shape[1], LCF_DTYPE_F64))
        fh.write(a.tobytes())
    return path


def read_lcf(path) -> np.ndarray:
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < 16 or raw[:4] != LCF_MAGIC:
        raise ValueError(f"{path}: not an LCF1 file")
    n_q, n_p, code = struct.unpack("<III", raw[4:16])
    if code != LCF_DTYPE_F64:
        raise ValueError(f"{path}: unknown dtype code {code}")
    expect = 16 + 8 * n_q * n_p
    if len(raw) != expect:
        raise ValueError(f"{path}: size {len(raw)} != expected {expect}")
    return np.frombuffer(raw[16:], dtype="<f8").reshape(n_q, n_p).copy()


def write_csv(path, header, columns) -> Path:
    """Write columns (equal-length sequences) under a comma-joined header."""
    path = Path(path)
    cols = [np.asarray(c) for c in columns]
    n = cols[0].shape[0]
    if any(c.shape != (n,) for c in cols):
        raise ValueError("CSV columns must be 1-D and equal length")
    cells = [_format_column(c) for c in cols]
    lines = [",".join(header)]
    lines.extend(map(",".join, zip(*cells)))
    path.write_text("\n".join(lines) + "\n")
    return path


def write_pgm(path, values: np.ndarray, mask: np.ndarray | None) -> list[Path]:
    """8-bit grayscale PGM heatmap plus a JSON sidecar with the scale.

    Valid cells (all of them for mask None) are scaled linearly from
    [min, max] to pixel [1, 255]; masked-out cells get pixel 0.  The
    sidecar records the mapping so the image can be recolored or inverted
    downstream.  Rows run along q, columns along p.
    """
    path = Path(path)
    a = np.asarray(values, dtype=float)
    if a.ndim != 2:
        raise ValueError(f"heatmap needs a 2-D array, got shape {a.shape}")
    if mask is None:
        mask = np.ones(a.shape, dtype=bool)
    mask = np.asarray(mask, dtype=bool)
    pix = np.zeros(a.shape, dtype=np.uint8)
    if mask.any():
        lo = float(a[mask].min())
        hi = float(a[mask].max())
        span = hi - lo
        if span > 0.0:
            scaled = 1.0 + 254.0 * (a[mask] - lo) / span
        else:
            scaled = np.full(int(mask.sum()), 255.0)
        pix[mask] = np.rint(scaled).astype(np.uint8)
    else:
        lo = hi = float("nan")
    with open(path, "wb") as fh:
        fh.write(f"P5\n{a.shape[1]} {a.shape[0]}\n255\n".encode())
        fh.write(pix.tobytes())
    sidecar = path.with_suffix(path.suffix + ".json")
    meta = {
        "format": "pgm-linear-v1",
        "rows": "q",
        "cols": "p",
        "min": None if np.isnan(lo) else lo,
        "max": None if np.isnan(hi) else hi,
        "pixel_lo": 1,
        "pixel_hi": 255,
        "masked_pixel": 0,
    }
    sidecar.write_text(json.dumps(meta, indent=1, sort_keys=True) + "\n")
    return [path, sidecar]


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
