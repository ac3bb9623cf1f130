"""Regular cell grid: markings, depth, clearing distance, discrete volume.

Coordinates are kept in cell units everywhere: cell (i, j) spans [i, i+1)
per axis and its center sits at i + 0.5. World scaling belongs to I/O only.
Tank walls are a one-cell solid layer on every side of the box; wall cells
never trigger surface classification.
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

# Particles and landing points keep at least this far inside their cell.
MARGIN = 0.01


def von_neumann_offsets(d: int) -> np.ndarray:
    """Unit offsets, positive then negative: +x, +y, (+z), -x, -y, (-z)."""
    eye = np.eye(d, dtype=np.int64)
    return np.vstack([eye, -eye])


def moore_offsets(d: int) -> np.ndarray:
    """All nonzero offsets at Chebyshev distance 1, lexicographic order."""
    return np.array([o for o in product((-1, 0, 1), repeat=d) if any(o)], dtype=np.int64)


def _any_neighbor(mask: np.ndarray, shifts) -> np.ndarray:
    """Flat boolean mask: cell c has mask set at c + s for some flat shift s,
    the flat shifts of a set of neighbor offsets.

    Exact on every cell when no set cell lies on the grid's outer layer, the
    tank wall: a shift that would leave the grid along some axis lands on
    that layer or off the array, never on a set cell.
    """
    out = np.zeros_like(mask)
    for s in shifts:
        if s > 0:
            out[:-s] |= mask[s:]
        else:
            out[-s:] |= mask[:s]
    return out


@dataclass
class VolumeReport:
    """Discrete fluid volume, in cell units.

    ``filled`` is the integer numerator of the alternative (overflow-only)
    measure: sum over cells of min(mu, count). Exact comparisons against the
    expected particle budget should use it rather than the float fields.
    """

    V: float
    percent: float
    alt_percent: float
    filled: int
    per_cell: np.ndarray | None = None


class CellGrid:
    """Regular 2D/3D grid with marking, depth and count bookkeeping.

    Per-cell particle counts are derived from positions by
    :meth:`rebuild_counts`. Until the markings stage of a substep runs, the
    markings, depth and counts are those of the previous step, the state
    the correction constrains against.
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
        # flat index of every cell, and the flat shift of each neighbor offset;
        # the von Neumann shifts go by axis, + before -: +x, -x, +y, -y, ...
        self.index = np.arange(self.ncells, dtype=np.int64).reshape(dims)
        strides = np.array([int(np.prod(dims[k + 1:])) for k in range(self.d)], dtype=np.int64)
        self.vn_shifts = [s for stride in strides.tolist() for s in (stride, -stride)]
        self.moore_shifts = (moore_offsets(self.d) @ strides).tolist()

        wall = np.zeros(dims, dtype=bool)
        for a in range(self.d):
            sl = [slice(None)] * self.d
            sl[a] = 0
            wall[tuple(sl)] = True
            sl[a] = dims[a] - 1
            wall[tuple(sl)] = True
        self.wall = wall.reshape(-1)

        self.marking = np.full(self.ncells, EMPTY, dtype=np.uint8)
        self.marking[self.wall] = SOLID
        self.depth = np.ones(self.ncells, dtype=np.int32)
        self.counts = np.zeros(self.ncells, dtype=np.int64)

    # ------------------------------------------------------------------
    # indexing helpers

    def unflat(self, flat) -> np.ndarray:
        flat = np.asarray(flat, dtype=np.int64)
        coords = np.unravel_index(flat, self.dims)
        return np.stack(coords, axis=-1)

    def cell_of(self, positions) -> np.ndarray:
        """Flat cell index of each position (positions must lie in the grid)."""
        pos = np.asarray(positions, dtype=np.float64).reshape(-1, self.d)
        cells = np.floor(pos).astype(np.int64)
        return np.ravel_multi_index(tuple(cells[:, k] for k in range(self.d)), self.dims)

    # ------------------------------------------------------------------
    # particle membership

    def rebuild_counts(self, positions) -> np.ndarray:
        flat = self.cell_of(positions)
        self.counts = np.bincount(flat, minlength=self.ncells).astype(np.int64)
        return self.counts

    # masks used across modules
    def fluid_mask(self) -> np.ndarray:
        return (self.marking == SURFACE) | (self.marking == INNER)

    def solid_mask(self) -> np.ndarray:
        return self.marking == SOLID


def band_classes(grid: CellGrid, R: int) -> dict[str, np.ndarray]:
    """The band's cell classes of the grid's marking and depth, for band
    thickness R.

    The interface is the fluid at depth -R and the deep lies below it; the
    region is both together, the part of the fluid the grid owns. Inner
    cells above the interface are in the band, and the layer above is the
    fluid at depth 1 - R. Every comparison of depth with R is made here.
    """
    fluid = grid.fluid_mask()
    return {
        "surface": grid.marking == SURFACE,
        "interface": fluid & (grid.depth == -R),
        "in_band_inner": (grid.marking == INNER) & (grid.depth > -R),
        "deep": fluid & (grid.depth < -R),
        "region": fluid & (grid.depth <= -R),
        "layer_above": fluid & (grid.depth == 1 - R),
        "empty": grid.marking == EMPTY,
    }


def box_flat(grid: CellGrid, lo, hi) -> np.ndarray:
    """Flat indices of the cells the box [lo, hi] overlaps, in C order,
    clipped to the grid. An edge within 1e-9 of a cell face claims no cell
    beyond that face."""
    lo = np.maximum(np.floor(np.asarray(lo) + 1e-9).astype(np.int64), 0)
    hi = np.minimum(np.ceil(np.asarray(hi) - 1e-9).astype(np.int64), grid.dims)
    return grid.index[tuple(map(slice, lo, np.maximum(hi, lo)))].flatten()


def fill_cells(grid: CellGrid, flat, room, rng: np.random.Generator,
               limit: int | None = None) -> np.ndarray:
    """Uniform random positions for new particles, as (k, d) rows.

    Visits the flat cells in the given order and places up to ``room``
    particles in each (room below zero counts as none) until ``limit`` are
    placed. Each position lies at least MARGIN inside its cell. One
    ``rng.uniform`` call draws them all, the same doubles as one call per
    particle in placement order.
    """
    room = np.maximum(room, 0)
    if limit is not None:
        room = np.diff(np.minimum(np.cumsum(room), limit), prepend=0)
    at = np.repeat(flat, room)
    return grid.unflat(at) + rng.uniform(MARGIN, 1 - MARGIN, size=(len(at), grid.d))


def rank_in_cell(flat: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The stable order of ``flat`` by cell, and each entry's rank among its
    cell's entries in index order; ``counts`` is ``flat``'s bincount."""
    # a key of at most 16 bits sorts by radix, in the same stable order
    order = np.argsort(flat.astype(np.min_scalar_type(len(counts))), kind="stable")
    rank = np.empty(len(flat), dtype=np.int64)
    rank[order] = np.arange(len(flat)) - np.repeat(np.cumsum(counts) - counts, counts)
    return order, rank


def face_shape(dims, a: int) -> tuple:
    """Shape of the MAC grid's axis-a faces: one more than the cells along a."""
    return tuple(n + 1 if k == a else n for k, n in enumerate(dims))


def face_mask(dims, a: int, cells_flat: np.ndarray) -> np.ndarray:
    """Axis-a faces of the MAC grid adjacent to at least one masked cell."""
    cells = cells_flat.reshape(dims)
    d = len(dims)
    out = np.zeros(face_shape(dims, a), dtype=bool)
    lo = [slice(None)] * d
    hi = [slice(None)] * d
    lo[a] = slice(None, -1)
    hi[a] = slice(1, None)
    out[tuple(lo)] |= cells
    out[tuple(hi)] |= cells
    return out


def classify_cells(grid: CellGrid, x: np.ndarray, obstacles=(), classes: dict | None = None) -> np.ndarray:
    """Recompute cell markings from particle positions and solid occupancy.

    Solid cells are tank walls plus obstacle-occupied cells. Fluid cells are
    the non-solid cells holding at least one particle; with the band method
    active (``classes``, the band classes of the previous step), the band
    region stays fluid: deep cells lost their particles, and an interface
    cell, capped but not floored by the correction, may have been emptied by
    it. Were it marked empty, the deep cells behind it would turn SURFACE
    and the depth collapse.
    A fluid cell is SURFACE when some Moore neighbor is non-fluid and not a
    tank wall, INNER otherwise; those triggers are off the wall layer, as
    the flat-shift dilation needs.
    """
    solid = grid.wall.copy()
    for obs in obstacles:
        solid[obs.occupied_flat(grid)] = True

    counts = np.bincount(grid.cell_of(x), minlength=grid.ncells).astype(np.int64)
    bad = solid & (counts > 0)
    if bad.any():
        where = grid.unflat(np.flatnonzero(bad)[0])
        raise IntegrityError(f"particle inside solid cell {tuple(where)}; correction step is broken")

    fluid = (counts > 0) & ~solid
    if classes is not None:
        fluid |= classes["region"] & ~solid

    trigger = (~fluid) & (~grid.wall)
    near = _any_neighbor(trigger, grid.moore_shifts)
    marking = np.full(grid.ncells, EMPTY, dtype=np.uint8)
    marking[solid] = SOLID
    marking[fluid] = INNER
    marking[fluid & near] = SURFACE

    grid.marking = marking
    grid.counts = counts
    return marking


def _hops(grid: CellGrid, seed: np.ndarray, allowed: np.ndarray) -> np.ndarray:
    """Von Neumann hop count of every cell from the seed cells, stepping
    through allowed cells only (flat boolean masks): 0 on the seed, -1 where
    no path reaches. Seed and allowed cells lie off the grid's outer layer,
    so the flat shifts reach true neighbors only."""
    hops = np.where(seed, 0, -1)
    frontier, unreached, level = seed, allowed & ~seed, 0
    while frontier.any():
        level += 1
        frontier = _any_neighbor(frontier, grid.vn_shifts) & unreached
        hops[frontier] = level
        unreached &= ~frontier
    return hops


def assign_depth(grid: CellGrid) -> bool:
    """BFS depth from the surface: surface 0, inward -1, -2, ...; non-fluid +1.

    Returns False when some fluid is unreachable from any surface (a sealed
    tank or pocket); that fluid gets depth -1 and a warning is logged.
    """
    fluid = grid.fluid_mask()
    hops = _hops(grid, grid.marking == SURFACE, fluid)
    orphan = fluid & (hops < 0)
    grid.depth = np.where(fluid, -np.abs(hops), 1).astype(np.int32)  # orphans: hops -1
    if orphan.any():
        log.warning("%d fluid cells unreachable from any surface; assigned depth -1", int(orphan.sum()))
    return not orphan.any()


def clearing_distance(grid: CellGrid, new_solid) -> np.ndarray:
    """BFS distance of prospective solid cells from an escape cell.

    Cells of new_solid adjacent (von Neumann) to a non-solid cell outside
    new_solid get 1; their unassigned neighbors 2, and so on. Solid cells are
    ignored as escapes. Walled-off cells get a sentinel of grid.ncells.
    Returns a full per-cell int array, 0 outside new_solid.
    """
    new = np.zeros(grid.ncells, dtype=bool)
    new[np.asarray(new_solid, dtype=np.int64)] = True
    escape = ~new & (grid.marking != SOLID)
    hops = _hops(grid, escape, new)
    return np.where(new, np.where(hops < 0, grid.ncells, hops), 0)


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


def marking_raster(grid: CellGrid, band_R: int | None) -> np.ndarray:
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
