"""Regular cell grid: markings, depth, clearing distance, discrete volume.

Coordinates are kept in cell units everywhere: cell (i, j) spans [i, i+1)
per axis and its center sits at i + 0.5. World scaling belongs to I/O only.
Tank walls are a one-cell solid layer on every side of the box; wall cells
carry the domain-boundary flag so they never trigger surface classification.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import product

import numpy as np

from .errors import InputError, IntegrityError

log = logging.getLogger(__name__)

# Cell marking codes. Fluid cells are SURFACE or INNER; the band's classes
# (interface, deep, in-band) are derived from the depth by band_classes.
EMPTY = 0
SOLID = 1
SURFACE = 2
INNER = 3


def von_neumann_offsets(d: int) -> np.ndarray:
    """Axis-order unit offsets: +x, +y, (+z), -x, -y, (-z)."""
    eye = np.eye(d, dtype=np.int64)
    return np.vstack([eye, -eye])


def moore_offsets(d: int) -> np.ndarray:
    """All nonzero offsets at Chebyshev distance 1, lexicographic order."""
    return np.array([o for o in product((-1, 0, 1), repeat=d) if any(o)], dtype=np.int64)


def _shift_slices(off):
    """Slices (src, dst) so that dst_array[dst] sees src_array at +off."""
    src, dst = [], []
    for o in off:
        if o > 0:
            src.append(slice(1, None))
            dst.append(slice(None, -1))
        elif o < 0:
            src.append(slice(None, -1))
            dst.append(slice(1, None))
        else:
            src.append(slice(None))
            dst.append(slice(None))
    return tuple(src), tuple(dst)


def _any_neighbor(mask_nd: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Boolean grid: cell has some neighbor (among offsets) set in mask_nd."""
    out = np.zeros_like(mask_nd)
    for off in offsets:
        src, dst = _shift_slices(off)
        out[dst] |= mask_nd[src]
    return out


@dataclass
class GridSnapshot:
    """Markings, depth and per-cell particle counts of a completed step."""

    marking: np.ndarray
    depth: np.ndarray
    counts: np.ndarray


@dataclass
class VolumeReport:
    """Discrete fluid volume, in cell units.

    ``filled`` is the integer numerator of the alternative (overflow-only)
    measure: sum over cells of min(mu, count). Exact comparisons against the
    expected particle budget should use it rather than the float fields.
    """

    V: float
    V_star: float
    percent: float
    alt_percent: float
    filled: int
    per_cell: np.ndarray | None = None


class CellGrid:
    """Regular 2D/3D grid with marking, depth and count bookkeeping.

    Per-cell particle counts are derived from positions by
    :meth:`rebuild_counts`; ``prev`` holds the snapshot of the previous
    completed step used by the correction constraints.
    """

    def __init__(self, dims):
        dims = tuple(int(n) for n in dims)
        if len(dims) not in (2, 3):
            raise InputError(f"grid must be 2D or 3D, got dims={dims}")
        if any(n < 3 for n in dims):
            raise InputError("each grid axis needs at least 3 cells (walls + interior)")
        self.dims = dims
        self.d = len(dims)
        self.ncells = int(np.prod(dims))

        wall = np.zeros(dims, dtype=bool)
        for a in range(self.d):
            sl = [slice(None)] * self.d
            sl[a] = 0
            wall[tuple(sl)] = True
            sl[a] = dims[a] - 1
            wall[tuple(sl)] = True
        self.wall = wall.reshape(-1)
        self.domain_boundary = self.wall.copy()

        self.marking = np.full(self.ncells, EMPTY, dtype=np.uint8)
        self.marking[self.wall] = SOLID
        self.depth = np.ones(self.ncells, dtype=np.int32)
        self.counts = np.zeros(self.ncells, dtype=np.int64)
        self.prev: GridSnapshot | None = None
        self._vn_table = self._build_vn_table()

    # ------------------------------------------------------------------
    # indexing helpers

    def flat(self, cells) -> np.ndarray:
        cells = np.asarray(cells, dtype=np.int64)
        single = cells.ndim == 1
        pts = cells.reshape(-1, self.d)
        out = np.ravel_multi_index(tuple(pts[:, k] for k in range(self.d)), self.dims)
        return int(out[0]) if single else out

    def unflat(self, flat) -> np.ndarray:
        flat = np.asarray(flat, dtype=np.int64)
        coords = np.unravel_index(flat, self.dims)
        return np.stack(coords, axis=-1)

    def cell_of(self, positions) -> np.ndarray:
        """Flat cell index of each position (positions must lie in the grid)."""
        pos = np.asarray(positions, dtype=np.float64).reshape(-1, self.d)
        cells = np.floor(pos).astype(np.int64)
        return np.ravel_multi_index(tuple(cells[:, k] for k in range(self.d)), self.dims)

    def vn_neighbors_flat(self, flat: int) -> np.ndarray:
        """Precomputed von Neumann neighbors, -1 where out of bounds."""
        return self._vn_table[flat]

    def _build_vn_table(self) -> np.ndarray:
        idx = np.arange(self.ncells, dtype=np.int64).reshape(self.dims)
        table = np.full((self.ncells, 2 * self.d), -1, dtype=np.int64)
        for col, off in enumerate(von_neumann_offsets(self.d)):
            shifted = np.full(self.dims, -1, dtype=np.int64)
            src, dst = _shift_slices(off)
            shifted[dst] = idx[src]
            table[:, col] = shifted.reshape(-1)
        return table

    # ------------------------------------------------------------------
    # particle membership

    def rebuild_counts(self, positions) -> np.ndarray:
        flat = self.cell_of(positions)
        self.counts = np.bincount(flat, minlength=self.ncells).astype(np.int64)
        return self.counts

    def snapshot(self) -> GridSnapshot:
        self.prev = GridSnapshot(self.marking.copy(), self.depth.copy(), self.counts.copy())
        return self.prev

    # masks used across modules
    def fluid_mask(self) -> np.ndarray:
        return (self.marking == SURFACE) | (self.marking == INNER)

    def solid_mask(self) -> np.ndarray:
        return self.marking == SOLID


def band_classes(cells, R: int) -> dict[str, np.ndarray]:
    """The band's cell classes of a marking and depth, for band thickness R.

    ``cells`` is a :class:`GridSnapshot` or the :class:`CellGrid` itself.
    The interface is the fluid at depth -R and the deep lies below it; the
    region is both together, the part of the fluid the grid owns. Inner
    cells above the interface are in the band, and the layer above is the
    fluid at depth 1 - R. Every comparison of depth with R is made here.
    """
    fluid = (cells.marking == SURFACE) | (cells.marking == INNER)
    return {
        "surface": cells.marking == SURFACE,
        "interface": fluid & (cells.depth == -R),
        "in_band_inner": (cells.marking == INNER) & (cells.depth > -R),
        "deep": fluid & (cells.depth < -R),
        "region": fluid & (cells.depth <= -R),
        "layer_above": fluid & (cells.depth == 1 - R),
        "empty": cells.marking == EMPTY,
    }


def box_cells(lo, hi) -> np.ndarray:
    """Integer cells with lo <= cell < hi per axis, as (k, d) rows in C order."""
    ranges = [np.arange(a, b) for a, b in zip(lo, hi)]
    mesh = np.meshgrid(*ranges, indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


def face_mask(dims, a: int, cells_flat: np.ndarray) -> np.ndarray:
    """Axis-a faces of the MAC grid adjacent to at least one masked cell."""
    cells = cells_flat.reshape(dims)
    d = len(dims)
    shape = tuple(n + 1 if k == a else n for k, n in enumerate(dims))
    out = np.zeros(shape, dtype=bool)
    lo = [slice(None)] * d
    hi = [slice(None)] * d
    lo[a] = slice(None, -1)
    hi[a] = slice(1, None)
    out[tuple(lo)] |= cells
    out[tuple(hi)] |= cells
    return out


def classify_cells(grid: CellGrid, particles, obstacles=(), classes: dict | None = None) -> np.ndarray:
    """Recompute cell markings from particle positions and solid occupancy.

    Solid cells are tank walls plus obstacle-occupied cells. Fluid cells are
    the non-solid cells holding at least one particle; with the band method
    active (``classes``, the band classes of the previous step), the band
    region stays fluid: deep cells lost their particles, and an interface
    cell, capped but not floored by the correction, may have been emptied by
    it. Were it marked empty, the deep cells behind it would turn SURFACE
    and the depth collapse.
    A fluid cell is SURFACE when some Moore neighbor is non-fluid and not a
    tank wall, INNER otherwise.
    """
    x = getattr(particles, "x", particles)
    solid = grid.wall.copy()
    for obs in obstacles:
        solid[obs.occupied_flat(grid)] = True

    if x is None or len(x) == 0:
        counts = np.zeros(grid.ncells, dtype=np.int64)
    else:
        counts = np.bincount(grid.cell_of(x), minlength=grid.ncells).astype(np.int64)
    bad = solid & (counts > 0)
    if bad.any():
        where = grid.unflat(np.flatnonzero(bad)[0])
        raise IntegrityError(f"particle inside solid cell {tuple(where)}; correction step is broken")

    fluid = (counts > 0) & ~solid
    if classes is not None:
        fluid |= classes["region"] & ~solid

    trigger = (~fluid) & (~grid.domain_boundary)
    near = _any_neighbor(trigger.reshape(grid.dims), moore_offsets(grid.d)).reshape(-1)
    marking = np.full(grid.ncells, EMPTY, dtype=np.uint8)
    marking[solid] = SOLID
    marking[fluid] = INNER
    marking[fluid & near] = SURFACE

    grid.marking = marking
    grid.counts = counts
    return marking


def assign_depth(grid: CellGrid) -> bool:
    """BFS depth from the surface: surface 0, inward -1, -2, ...; non-fluid +1.

    Returns False when fluid exists but no surface does (sealed tank); all
    fluid cells then get depth -1 and a diagnostic warning is recorded.
    """
    depth = np.ones(grid.ncells, dtype=np.int32)
    fluid_nd = grid.fluid_mask().reshape(grid.dims)
    surface_nd = (grid.marking == SURFACE).reshape(grid.dims)

    had_surface = True
    if fluid_nd.any() and not surface_nd.any():
        depth[grid.fluid_mask()] = -1
        grid.depth = depth
        log.warning("no surface cell exists; all fluid cells assigned depth -1")
        return False

    depth_nd = depth.reshape(grid.dims)
    depth_nd[surface_nd] = 0
    assigned = surface_nd.copy()
    frontier = surface_nd
    level = 0
    offs = von_neumann_offsets(grid.d)
    while True:
        nxt = _any_neighbor(frontier, offs) & fluid_nd & ~assigned
        if not nxt.any():
            break
        level -= 1
        depth_nd[nxt] = level
        assigned |= nxt
        frontier = nxt

    orphan = fluid_nd & ~assigned
    if orphan.any():
        # sealed pocket with no surface of its own
        depth_nd[orphan] = -1
        log.warning("%d fluid cells unreachable from any surface; assigned depth -1", int(orphan.sum()))
        had_surface = False
    grid.depth = depth_nd.reshape(-1)
    return had_surface


def clearing_distance(grid: CellGrid, new_solid) -> np.ndarray:
    """BFS distance of prospective solid cells from an escape cell.

    Cells of new_solid adjacent (von Neumann) to a non-solid cell outside
    new_solid get 1; their unassigned neighbors 2, and so on. Solid cells are
    ignored as escapes. Walled-off cells get a sentinel of grid.ncells.
    Returns a full per-cell int array, 0 outside new_solid.
    """
    new_mask = np.zeros(grid.ncells, dtype=bool)
    idx = np.asarray(list(new_solid) if not isinstance(new_solid, np.ndarray) else new_solid, dtype=np.int64)
    dist = np.zeros(grid.ncells, dtype=np.int64)
    if idx.size == 0:
        return dist
    new_mask[idx] = True
    escape = ~new_mask & (grid.marking != SOLID)

    offs = von_neumann_offsets(grid.d)
    new_nd = new_mask.reshape(grid.dims)
    dist_nd = dist.reshape(grid.dims)
    frontier = _any_neighbor(escape.reshape(grid.dims), offs) & new_nd
    assigned = frontier.copy()
    level = 1
    dist_nd[frontier] = level
    while (new_nd & ~assigned).any():
        nxt = _any_neighbor(frontier, offs) & new_nd & ~assigned
        if not nxt.any():
            dist_nd[new_nd & ~assigned] = grid.ncells
            break
        level += 1
        dist_nd[nxt] = level
        assigned |= nxt
        frontier = nxt
    return dist_nd.reshape(-1)


def volume_report(grid: CellGrid, mu: int, v_star: float, per_cell: bool = False) -> VolumeReport:
    """Total discrete volume plus the overflow-only alternative measure."""
    if v_star <= 0:
        raise InputError(f"V_star must be positive, got {v_star}")
    if mu < 1:
        raise InputError(f"mu must be >= 1, got {mu}")
    fluid = grid.fluid_mask()
    near = fluid & (grid.depth >= -1)
    deep = fluid & (grid.depth < -1)
    near_filled = int(np.minimum(grid.counts[near], mu).sum())
    V = float(deep.sum()) + near_filled / mu

    nonsolid = grid.marking != SOLID
    filled = int(np.minimum(grid.counts[nonsolid], mu).sum())
    alt = filled / mu

    cells = None
    if per_cell:
        cells = np.zeros(grid.ncells, dtype=np.float64)
        cells[deep] = 1.0
        cells[near] = np.minimum(grid.counts[near], mu) / mu
    return VolumeReport(
        V=V,
        V_star=float(v_star),
        percent=100.0 * V / v_star,
        alt_percent=100.0 * alt / v_star,
        filled=filled,
        per_cell=cells,
    )


# Raster codes for the marking/depth dump (one byte per cell).
RASTER_EMPTY = 0
RASTER_WALL = 1
RASTER_OBSTACLE = 2
RASTER_SURFACE = 3
RASTER_INNER = 4
RASTER_IN_BAND = 5
RASTER_INTERFACE = 6
RASTER_DEEP = 7


def marking_raster(grid: CellGrid, band_R: int | None = None) -> np.ndarray:
    """Combined marking/band-class codes, row-major over grid.dims."""
    out = np.full(grid.ncells, RASTER_EMPTY, dtype=np.uint8)
    out[grid.marking == SOLID] = RASTER_OBSTACLE
    out[grid.wall] = RASTER_WALL
    out[grid.marking == SURFACE] = RASTER_SURFACE
    out[grid.marking == INNER] = RASTER_INNER
    if band_R is not None:
        classes = band_classes(grid, band_R)
        out[classes["in_band_inner"]] = RASTER_IN_BAND
        out[classes["interface"]] = RASTER_INTERFACE
        out[classes["deep"]] = RASTER_DEEP
    return out
