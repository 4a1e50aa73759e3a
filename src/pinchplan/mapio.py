"""Export of per-grid SNR fields to CSV and plain PGM images.

CSV rows run u-major (x outer, y inner) with header x,y,snr_db,valid and 9
significant digits, so a reader recovers the field to well under 1e-6 dB.
The package writes maps only; the test suite carries the CSV reader.
PGM output is a plain (P2) top-view image, one pixel per grid cell, with the
dB window used for the 0..255 mapping recorded in a comment; cells inside
obstacle footprints are painted 0.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .geometry import GridSpec

MAP_FORMATS = ("csv", "pgm")


def _field_db(snr_field: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return 10.0 * np.log10(snr_field)


def export_map(
    snr_field: np.ndarray,
    valid: np.ndarray,
    grid: GridSpec,
    path: str | Path,
    fmt: str = "csv",
) -> None:
    """Write one SNR field (linear input, dB output) as csv or pgm."""
    if snr_field.shape != (grid.nx, grid.ny) or valid.shape != (grid.nx, grid.ny):
        raise ValueError("field and validity mask must match the grid shape")
    if fmt not in MAP_FORMATS:
        raise ValueError(f"unknown map format {fmt!r}; expected one of {MAP_FORMATS}")
    db = _field_db(snr_field)
    if fmt == "csv":
        _write_csv(db, valid, grid, path)
    else:
        _write_pgm(db, valid, grid, path)


def _write_csv(db: np.ndarray, valid: np.ndarray, grid: GridSpec, path) -> None:
    # '%.9g' % x formats exactly like f"{x:.9g}"; each coordinate is formatted
    # once, and each grid row is one '%' over a template that already holds
    # its x and y texts (neither can contain a '%')
    xs = ["%.9g" % x for x in grid.x_centers().tolist()]
    tails = [",%.9g,%%.9g,%%d\n" % y for y in grid.y_centers().tolist()]
    cells = [None] * (2 * grid.ny)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,y,snr_db,valid\n")
        for x, db_row, valid_row in zip(xs, db.tolist(), valid.tolist()):
            cells[0::2] = db_row
            cells[1::2] = valid_row
            fh.write((x + x.join(tails)) % tuple(cells))


def _write_pgm(db, valid, grid: GridSpec, path) -> None:
    # the window spans the valid cells, less any zero-SNR cell (-inf dB), which would stretch it to -inf
    vals = db[valid & np.isfinite(db)]
    if vals.size == 0:
        raise ValueError("cannot derive a dB window: no valid cell has a finite dB value")
    lo, hi = float(vals.min()), float(vals.max())
    span = hi - lo
    if span > 0:
        scaled = np.clip(np.rint((db - lo) / span * 255.0), 0, 255)
    else:
        scaled = np.full_like(db, 255.0)
    pixels = np.where(valid, scaled, 0.0).astype(int)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("P2\n")
        fh.write(f"# snr_db window min={lo:.9g} max={hi:.9g}\n")
        fh.write(f"{grid.nx} {grid.ny}\n255\n")
        # image rows top to bottom = y decreasing, so +y prints at the top
        for row in pixels.T[::-1]:
            fh.write(" ".join(map(str, row.tolist())))
            fh.write("\n")
