"""FLIP/PIC core: particle set, MAC grid, transfers, pressure, advection.

Velocity components live on cell faces (MAC layout): component a has one
extra sample along axis a, at integer coordinates on that axis and cell
centers on the others. Transfers use the multilinear hat kernel on each
face lattice. All quantities are in cell units per time unit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import grid as G
from .errors import SolverError

# Particles are kept at least this far inside cells and away from walls.
WALL_MARGIN = 0.01


@dataclass
class ParticleSet:
    """Positions across the step (previous, ideal advected, corrected)."""

    x_prev: np.ndarray
    x_ideal: np.ndarray
    x: np.ndarray
    vel: np.ndarray
    alive: np.ndarray

    @classmethod
    def empty(cls, d: int) -> "ParticleSet":
        z = np.zeros((0, d))
        return cls(x_prev=z.copy(), x_ideal=z.copy(), x=z.copy(), vel=z.copy(),
                   alive=np.zeros(0, dtype=bool))

    @classmethod
    def from_positions(cls, x: np.ndarray, vel: np.ndarray | None = None) -> "ParticleSet":
        x = np.asarray(x, dtype=np.float64)
        if vel is None:
            vel = np.zeros_like(x)
        return cls(x_prev=x.copy(), x_ideal=x.copy(), x=x.copy(),
                   vel=np.asarray(vel, dtype=np.float64).copy(),
                   alive=np.ones(len(x), dtype=bool))

    @property
    def n(self) -> int:
        return len(self.x)

    @property
    def d(self) -> int:
        return self.x.shape[1]

    def append(self, x: np.ndarray, vel: np.ndarray) -> None:
        self.x = np.vstack([self.x, x])
        self.x_prev = np.vstack([self.x_prev, x])
        self.x_ideal = np.vstack([self.x_ideal, x])
        self.vel = np.vstack([self.vel, vel])
        self.alive = np.concatenate([self.alive, np.ones(len(x), dtype=bool)])

    def compact(self) -> None:
        """Drop dead particles, preserving index order of the survivors."""
        if self.alive.all():
            return
        keep = self.alive
        self.x = self.x[keep]
        self.x_prev = self.x_prev[keep]
        self.x_ideal = self.x_ideal[keep]
        self.vel = self.vel[keep]
        self.alive = np.ones(len(self.x), dtype=bool)


class MacGrid:
    """Staggered velocity grid plus pressure scratch."""

    def __init__(self, dims):
        self.dims = tuple(int(v) for v in dims)
        self.d = len(self.dims)
        self.vel = [np.zeros(self._face_shape(a)) for a in range(self.d)]
        self.pressure = np.zeros(self.dims)

    def _face_shape(self, a: int) -> tuple:
        return tuple(n + 1 if k == a else n for k, n in enumerate(self.dims))

    def copy_velocity(self) -> list[np.ndarray]:
        return [u.copy() for u in self.vel]

    def max_speed(self) -> float:
        return max(float(np.abs(u).max()) if u.size else 0.0 for u in self.vel)

    def face_offset(self, a: int) -> np.ndarray:
        off = np.full(self.d, 0.5)
        off[a] = 0.0
        return off


def _stencil(mac: MacGrid, a: int, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flat index into component a's faces and multilinear weight of each
    corner of the face cell around each position, as (2**d, n) arrays with
    the corners in C order. Built one axis at a time from positions[:, k]."""
    shape = mac.vel[a].shape
    n = len(positions)
    idx = np.zeros((1, n), dtype=np.int64)
    w = np.ones((1, n))
    for k in range(mac.d):
        q = positions[:, k] - (0.0 if k == a else 0.5)
        base = np.clip(np.floor(q).astype(np.int64), 0, shape[k] - 2)
        frac = np.clip(q - base, 0.0, 1.0)
        idx = (idx[:, None] * shape[k] + (base, base + 1)).reshape(2 ** (k + 1), n)
        w = (w[:, None] * (1.0 - frac, frac)).reshape(2 ** (k + 1), n)
    return idx, w


def _gather(u: np.ndarray, stencil: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Interpolate the flat face values u through a stencil, corner by corner."""
    idx, w = stencil
    out = np.zeros(idx.shape[1])
    for w_c, u_c in zip(w, u[idx]):
        out += w_c * u_c
    return out


def velocity_at(mac: MacGrid, positions: np.ndarray) -> np.ndarray:
    positions = np.asarray(positions, dtype=np.float64)
    return np.stack([_gather(mac.vel[a].ravel(), _stencil(mac, a, positions))
                     for a in range(mac.d)], axis=1)


def transfer_p2g(particles: ParticleSet, mac: MacGrid,
                 write_cells: np.ndarray | None = None) -> list[tuple[np.ndarray, np.ndarray]]:
    """Kernel-weighted particle velocities onto faces.

    Faces with zero accumulated weight keep their current value. When
    write_cells (flat bool mask) is given, only faces adjacent to at least
    one cell in the mask are overwritten; the band method passes the cells
    it owns with particles (everything shallower than the band interface).
    Returns each component's stencil at x_prev, for transfer_g2p.
    """
    stencils = [_stencil(mac, a, particles.x_prev) for a in range(mac.d)]
    for a, (idx, w) in enumerate(stencils):
        u = mac.vel[a]
        # corner-major: each face sums its particles in a fixed order
        num = np.bincount(idx.ravel(), (w * particles.vel[:, a]).ravel(), u.size).reshape(u.shape)
        den = np.bincount(idx.ravel(), w.ravel(), u.size).reshape(u.shape)
        mask = den > 0
        if write_cells is not None:
            mask &= G.face_mask(mac.dims, a, write_cells)
        u[mask] = num[mask] / den[mask]
    return stencils


def apply_forces(mac: MacGrid, gravity, dt: float) -> None:
    """u += g * dt on every face; the pressure step re-imposes solid faces."""
    g = np.asarray(gravity, dtype=np.float64)
    for a in range(mac.d):
        if g[a] != 0.0:
            mac.vel[a] += g[a] * dt


def transfer_g2p(mac: MacGrid, saved_vel: list[np.ndarray], particles: ParticleSet,
                 stencils: list[tuple[np.ndarray, np.ndarray]], flip_ratio: float,
                 max_speed: float | None = None) -> np.ndarray:
    """FLIP/PIC blend back to particles, then clamp to the scene speed bound.

    stencils are transfer_p2g's, at the unchanged x_prev. Returns the PIC
    field (the new grid velocity at x_prev), advect_particles' first stage.
    """
    pic = np.stack([_gather(mac.vel[a].ravel(), st) for a, st in enumerate(stencils)], axis=1)
    delta = np.stack([_gather((mac.vel[a] - saved_vel[a]).ravel(), st)
                      for a, st in enumerate(stencils)], axis=1)
    particles.vel = flip_ratio * (particles.vel + delta) + (1.0 - flip_ratio) * pic
    if max_speed is not None and particles.n:
        peak = np.abs(particles.vel).max(axis=1)
        scale = np.where(peak > max_speed, max_speed / np.maximum(peak, 1e-30), 1.0)
        particles.vel *= scale[:, None]
    return pic


def clamp_positions(positions: np.ndarray, dims, home_cells: np.ndarray | None = None) -> np.ndarray:
    """Keep positions inside the non-wall interior, and when home cells are
    given also inside their Moore neighborhood."""
    dims = np.asarray(dims, dtype=np.float64)
    lo = np.full_like(dims, 1.0 + WALL_MARGIN)
    hi = dims - 1.0 - WALL_MARGIN
    out = np.clip(positions, lo, hi)
    if home_cells is not None:
        out = np.clip(out, home_cells - 1.0 + WALL_MARGIN, home_cells + 2.0 - WALL_MARGIN)
    return out


def advect_particles(particles: ParticleSet, mac: MacGrid, dt: float, v1: np.ndarray) -> None:
    """RK2 midpoint advection of particle positions through the grid field.

    v1 is the field at x_prev, the first stage. The result is clamped so
    each particle stays within the Moore neighborhood of its previous cell
    and inside the non-wall interior.
    """
    x0 = particles.x_prev
    mid = clamp_positions(x0 + 0.5 * dt * v1, mac.dims)
    v2 = velocity_at(mac, mid)
    home = np.floor(x0)
    particles.x_ideal = clamp_positions(x0 + dt * v2, mac.dims, home_cells=home)


def advect_grid_velocity(mac: MacGrid, dt: float, face_masks: list[np.ndarray]) -> None:
    """Semi-Lagrangian backtrace of the face velocities under face_masks
    (the faces of the band's grid-owned region)."""
    old = MacGrid(mac.dims)
    old.vel = mac.copy_velocity()
    for a in range(mac.d):
        shape = mac.vel[a].shape
        pos = G.box_cells((0,) * mac.d, shape) + mac.face_offset(a)
        vel = velocity_at(old, pos)
        back = pos - dt * vel
        new_vals = _gather(old.vel[a].ravel(), _stencil(old, a, back)).reshape(shape)
        mac.vel[a][face_masks[a]] = new_vals[face_masks[a]]


def clamp_dt(mac: MacGrid, dt_request: float, obstacle_speed: float = 0.0) -> float:
    """Largest dt <= request moving nothing more than one cell.

    Uses the current maximum face speed and the fastest obstacle; with
    everything at rest the request is returned unchanged.
    """
    dt = float(dt_request)
    peak = mac.max_speed()
    if peak > 0:
        dt = min(dt, 1.0 / peak)
    if obstacle_speed > 0:
        dt = min(dt, 1.0 / obstacle_speed)
    return dt


# ----------------------------------------------------------------------
# pressure projection

@dataclass
class PressureStats:
    iterations: int
    residual: float
    tolerance: float


def _divergence(mac: MacGrid) -> np.ndarray:
    """Net outflow of every cell, from its face velocities."""
    div = np.zeros(mac.dims)
    for a in range(mac.d):
        div += np.diff(mac.vel[a], axis=a)
    return div


def solve_pressure(mac: MacGrid, cells: G.CellGrid, solid_vel: list[np.ndarray] | None = None,
                   tol: float = 1e-6, max_iter: int = 2000) -> PressureStats:
    """MAC pressure projection by conjugate gradients on the fluid cells.

    Free-surface (empty) cells hold zero pressure; faces adjacent to solid
    cells are first forced to the solid's normal velocity and are not
    touched by the gradient update, so u . n = u_solid . n holds exactly.
    Each dot product is summed over a full-grid array that is zero off the
    fluid cells, so numpy's pairwise sum rounds it as it would the same CG
    over every cell with the identity off the fluid.
    Raises SolverError when CG fails to reach tolerance, or as soon as its
    residual is not finite.
    """
    d = mac.d
    dims = cells.dims
    fluid = cells.fluid_mask().reshape(dims)
    solid = cells.solid_mask().reshape(dims)

    impose_solid_faces(mac, cells, solid_vel)
    rhs = -_divergence(mac)[fluid]

    # number the fluid cells; slot nf of the padded vector holds 0 and stands
    # for every air, solid or out-of-grid neighbour
    nf = len(rhs)
    number = np.pad(np.full(dims, nf), 1, constant_values=nf)
    number[(slice(1, -1),) * d][fluid] = np.arange(nf)
    # one row per neighbour, in the order apply_A subtracts them: +x, -x, +y, ...
    steps = np.concatenate([[e, -e] for e in np.eye(d, dtype=np.int64)])
    nb_at = tuple(np.moveaxis(np.argwhere(fluid) + 1 + steps[:, None], 2, 0))
    nb_slot = number[nb_at]
    diag = np.pad(~solid, 1)[nb_at].sum(axis=0, dtype=np.float64)  # non-solid neighbours
    padded = np.zeros(nf + 1)

    def apply_A(x):
        padded[:nf] = x
        out = diag * x
        for x_nb in padded[nb_slot]:
            out -= x_nb
        return out

    products = np.zeros(dims)
    fluid_products = products.reshape(-1)  # a view, written at the fluid cells only
    cell = np.flatnonzero(fluid)

    def dot(x, y):
        fluid_products[cell] = x * y
        return float(products.sum())

    scale = float(np.abs(rhs).max(initial=0.0))
    p = np.zeros(nf)
    stats = PressureStats(iterations=0, residual=0.0, tolerance=tol)
    if scale > 0:
        tol_abs = tol * scale
        r = rhs - apply_A(p)
        z = r.copy()
        rs = dot(r, r)
        it = 0
        while not (res := float(np.abs(r).max())) <= tol_abs:
            if not math.isfinite(res):
                raise SolverError(f"pressure CG failed: residual {res} after {it} iterations")
            if it >= max_iter:
                raise SolverError(
                    f"pressure CG failed: residual {res:.3e} "
                    f"> {tol_abs:.3e} after {max_iter} iterations")
            Az = apply_A(z)
            denom = dot(z, Az)
            if denom <= 0:
                break
            alpha = rs / denom
            p += alpha * z
            r -= alpha * Az
            rs_new = dot(r, r)
            z = r + (rs_new / rs) * z
            rs = rs_new
            it += 1
        stats = PressureStats(iterations=it, residual=res, tolerance=tol_abs)

    mac.pressure = np.zeros(dims)
    mac.pressure[fluid] = p

    # subtract the gradient on faces between non-solid cells touching fluid
    for a in range(d):
        lo, hi, inner = ([slice(None)] * d for _ in range(3))
        lo[a], hi[a], inner[a] = slice(None, -1), slice(1, None), slice(1, -1)
        lo, hi = tuple(lo), tuple(hi)
        open_face = (fluid[hi] | fluid[lo]) & ~(solid[hi] | solid[lo])
        mac.vel[a][tuple(inner)] -= np.where(open_face, np.diff(mac.pressure, axis=a), 0.0)
    return stats


def impose_solid_faces(mac: MacGrid, cells: G.CellGrid, solid_vel: list[np.ndarray] | None) -> None:
    """Force faces adjacent to solid cells to the solid's normal velocity."""
    solid = cells.solid_mask().reshape(cells.dims)
    for a in range(mac.d):
        mask = G.face_mask(mac.dims, a, solid.reshape(-1))
        vals = solid_vel[a] if solid_vel is not None else 0.0
        if np.isscalar(vals):
            mac.vel[a][mask] = vals
        else:
            mac.vel[a][mask] = vals[mask]
