"""Per-element reference writers for the LP, CSV, PGM and npz products.

These format one value per Python call, in the order the file is laid out,
and are the specification the streaming writers in `pinchplan` must match
byte for byte (see test_writers.py). They are not used by the package.
"""

import io
import zipfile

import numpy as np


def _lp_terms(parts, per_line):
    return [" ".join(parts[i : i + per_line]) for i in range(0, len(parts), per_line)]


def emit_milp(gain_map, params, threshold, out):
    n_wg, n_tap = gain_map.n_waveguides, gain_map.n_taps
    rho = params.snr_scale
    valid_idx = np.argwhere(gain_map.valid)

    w = out.write
    w("\\ tap-activation coverage MILP\n")
    w("Maximize\n")
    cell_vars = [f"c_{u + 1}_{v + 1}" for u, v in valid_idx]
    obj = [cell_vars[0]] + [f"+ {name}" for name in cell_vars[1:]]
    for line in _lp_terms(["covered:"] + obj, per_line=8):
        w(f" {line}\n")
    w("Subject To\n")
    for (u, v), cvar in zip(valid_idx, cell_vars):
        parts = [f"snr_{u + 1}_{v + 1}:"]
        for n in range(n_wg):
            for m in range(n_tap):
                parts.append(f"+ {rho * gain_map.gains[n, m, u, v]:.17g} a_{n + 1}_{m + 1}")
        parts.append(f"- {threshold:.17g} {cvar}")
        parts.append(">= 0")
        for line in _lp_terms(parts, per_line=4):
            w(f" {line}\n")
    for n in range(n_wg):
        parts = [f"pick_{n + 1}:", f"a_{n + 1}_1"]
        parts += [f"+ a_{n + 1}_{m + 1}" for m in range(1, n_tap)]
        parts.append("= 1")
        for line in _lp_terms(parts, per_line=8):
            w(f" {line}\n")
    w("Binaries\n")
    tap_vars = [f"a_{n + 1}_{m + 1}" for n in range(n_wg) for m in range(n_tap)]
    for line in _lp_terms(tap_vars + cell_vars, per_line=10):
        w(f" {line}\n")
    w("End\n")


def write_csv(db, valid, grid, path):
    xs = grid.x_centers()
    ys = grid.y_centers()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("x,y,snr_db,valid\n")
        for u in range(grid.nx):
            for v in range(grid.ny):
                fh.write(f"{xs[u]:.9g},{ys[v]:.9g},{db[u, v]:.9g},{int(valid[u, v])}\n")


def write_pgm(db, valid, grid, path):
    vals = db[valid]
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
        for v in range(grid.ny - 1, -1, -1):
            fh.write(" ".join(str(pixels[u, v]) for u in range(grid.nx)))
            fh.write("\n")


def write_npz(path, arrays):
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED) as zf:
        for name in sorted(arrays):
            buf = io.BytesIO()
            np.lib.format.write_array(buf, np.ascontiguousarray(arrays[name]))
            info = zipfile.ZipInfo(f"{name}.npy", date_time=(1980, 1, 1, 0, 0, 0))
            zf.writestr(info, buf.getvalue())
