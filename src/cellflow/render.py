"""Raster rendering of 2D frames to portable pixmaps (PPM, P6).

Cell coloring follows the band figure scheme: deep cells dark blue, band
interface yellow, surface green, the rest of the band light blue; walls and
obstacles gray/red; particles drawn as dots on top.
"""
from __future__ import annotations

import numpy as np

from . import grid as G
from .errors import InputError

SCALE = 8

COLORS = {
    G.RASTER_EMPTY: (255, 255, 255),
    G.RASTER_WALL: (90, 90, 90),
    G.RASTER_OBSTACLE: (200, 60, 50),
    G.RASTER_SURFACE: (120, 200, 120),
    G.RASTER_INNER: (150, 190, 235),
    G.RASTER_IN_BAND: (165, 205, 240),
    G.RASTER_INTERFACE: (235, 210, 90),
    G.RASTER_DEEP: (40, 70, 160),
}
PARTICLE_COLOR = (20, 40, 140)


def render_frame_2d(cells: G.CellGrid, record, out_path) -> None:
    """Write one frame as a PPM image at ``out_path``; refuses 3D scenes. The
    band classes come from the record's raster."""
    if cells.d != 2:
        raise InputError("rendering supports 2D scenes only; 3D export is the particle dump")
    nx, ny = cells.dims
    raster = record.raster.reshape(cells.dims)
    img = np.zeros((ny * SCALE, nx * SCALE, 3), dtype=np.uint8)
    for code, rgb in COLORS.items():
        mask = (raster == code)
        if not mask.any():
            continue
        big = np.kron(mask, np.ones((SCALE, SCALE), dtype=bool))
        # transpose grid (x, y) into image rows (y up -> row down)
        img[np.flipud(big.T)] = rgb

    pos = np.asarray(record.positions, dtype=np.float64)
    if len(pos):
        px = (pos[:, 0] * SCALE).astype(np.int64)
        py = (pos[:, 1] * SCALE).astype(np.int64)
        rows = img.shape[0] - 1 - py
        cols = px
        for dr in (0, 1):
            for dc in (0, 1):
                r = np.clip(rows + dr, 0, img.shape[0] - 1)
                c = np.clip(cols + dc, 0, img.shape[1] - 1)
                img[r, c] = PARTICLE_COLOR

    with open(out_path, "wb") as fh:
        fh.write(f"P6 {img.shape[1]} {img.shape[0]} 255\n".encode("ascii"))
        fh.write(img.tobytes())
