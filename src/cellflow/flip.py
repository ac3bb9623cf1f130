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


@dataclass
class ParticleSet:
    """Particle positions and velocities."""

    x: np.ndarray
    vel: np.ndarray

    @classmethod
    def from_positions(cls, x: np.ndarray) -> "ParticleSet":
        """Particles at rest at ``x``."""
        x = np.array(x, dtype=np.float64)
        return cls(x=x, vel=np.zeros_like(x))

    @property
    def n(self) -> int:
        return len(self.x)

    @property
    def d(self) -> int:
        return self.x.shape[1]

    def append(self, x: np.ndarray, vel: np.ndarray) -> None:
        self.x = np.vstack([self.x, x])
        self.vel = np.vstack([self.vel, vel])

    def keep(self, mask: np.ndarray) -> None:
        """Drop the particles where mask is False, preserving index order of
        the survivors."""
        self.x = self.x[mask]
        self.vel = self.vel[mask]


class MacGrid:
    """Staggered velocity grid plus pressure scratch."""

    def __init__(self, dims):
        self.dims = tuple(int(v) for v in dims)
        self.d = len(self.dims)
        self.vel = [np.zeros(G.face_shape(self.dims, a)) for a in range(self.d)]
        self.pressure = np.zeros(self.dims)

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
    Returns each component's stencil at the positions, for transfer_g2p.
    """
    stencils = [_stencil(mac, a, particles.x) for a in range(mac.d)]
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
                 max_speed: float) -> np.ndarray:
    """FLIP/PIC blend back to particles, then clamp to the scene speed bound.

    stencils are transfer_p2g's, at the unchanged positions. Returns the PIC
    field there (the new grid velocity), advect_particles' first stage.
    """
    pic = np.stack([_gather(mac.vel[a].ravel(), st) for a, st in enumerate(stencils)], axis=1)
    delta = np.stack([_gather((mac.vel[a] - saved_vel[a]).ravel(), st)
                      for a, st in enumerate(stencils)], axis=1)
    particles.vel = flip_ratio * (particles.vel + delta) + (1.0 - flip_ratio) * pic
    peak = np.abs(particles.vel).max(axis=1)
    scale = np.where(peak > max_speed, max_speed / np.maximum(peak, 1e-30), 1.0)
    particles.vel *= scale[:, None]
    return pic


def clamp_positions(positions: np.ndarray, dims, home_cells: np.ndarray | None = None) -> np.ndarray:
    """Keep positions inside the non-wall interior, and when home cells are
    given also inside their Moore neighborhood."""
    dims = np.asarray(dims, dtype=np.float64)
    lo = np.full_like(dims, 1.0 + G.MARGIN)
    hi = dims - 1.0 - G.MARGIN
    out = np.clip(positions, lo, hi)
    if home_cells is not None:
        out = np.clip(out, home_cells - 1.0 + G.MARGIN, home_cells + 2.0 - G.MARGIN)
    return out


def advect_particles(particles: ParticleSet, mac: MacGrid, dt: float, v1: np.ndarray) -> np.ndarray:
    """RK2 midpoint advection of particle positions through the grid field.

    v1 is the field at the positions, the first stage. Returns the ideal
    positions, clamped so each particle stays within the Moore neighborhood
    of its cell and inside the non-wall interior; the particles keep theirs.
    """
    x0 = particles.x
    mid = clamp_positions(x0 + 0.5 * dt * v1, mac.dims)
    v2 = velocity_at(mac, mid)
    home = np.floor(x0)
    return clamp_positions(x0 + dt * v2, mac.dims, home_cells=home)


def advect_grid_velocity(mac: MacGrid, dt: float, face_masks: list[np.ndarray]) -> None:
    """Semi-Lagrangian backtrace of the face velocities under face_masks
    (the faces of the band's grid-owned region); every axis reads the field
    as it stood before the step."""
    old = MacGrid(mac.dims)
    old.vel = mac.copy_velocity()
    for a in range(mac.d):
        pos = np.argwhere(face_masks[a]) + mac.face_offset(a)
        back = pos - dt * velocity_at(old, pos)
        mac.vel[a][face_masks[a]] = _gather(old.vel[a].ravel(), _stencil(old, a, back))


def clamp_dt(mac: MacGrid, dt_request: float, obstacle_speed: float) -> float:
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

PRESSURE_ITERATIONS = 2000  # CG iterations before solve_pressure gives up


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


def solve_pressure(mac: MacGrid, cells: G.CellGrid, solid_vel: list[np.ndarray],
                   tol: float) -> PressureStats:
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
    dims = cells.dims
    fluid = cells.fluid_mask()
    solid = cells.solid_mask()
    cell = np.flatnonzero(fluid)

    impose_solid_faces(mac, cells, solid_vel)
    rhs = -_divergence(mac).reshape(-1)[cell]

    # number the fluid cells; slot nf of the padded vector holds 0 and stands
    # for every air or solid neighbour. Fluid never lies on the wall layer,
    # so each flat shift reaches a true neighbour in the grid.
    nf = len(cell)
    number = np.full(cells.ncells, nf)
    number[cell] = np.arange(nf)
    # one row per neighbour, in the order apply_A subtracts them: +x, -x, +y, ...
    nb = cell + np.array(cells.vn_shifts)[:, None]
    nb_slot = number[nb]
    diag = (~solid)[nb].sum(axis=0, dtype=np.float64)  # non-solid neighbours
    padded = np.zeros(nf + 1)

    def apply_A(x):
        padded[:nf] = x
        out = diag * x
        for x_nb in padded[nb_slot]:
            out -= x_nb
        return out

    products = np.zeros(dims)
    fluid_products = products.reshape(-1)  # a view, written at the fluid cells only

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
            if it >= PRESSURE_ITERATIONS:
                raise SolverError(
                    f"pressure CG failed: residual {res:.3e} "
                    f"> {tol_abs:.3e} after {PRESSURE_ITERATIONS} iterations")
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
    mac.pressure.reshape(-1)[cell] = p

    # subtract the gradient on faces between non-solid cells touching fluid
    for a in range(mac.d):
        open_face = G.face_mask(dims, a, fluid) & ~G.face_mask(dims, a, solid)
        grad = np.diff(mac.pressure, axis=a, prepend=0.0, append=0.0)
        mac.vel[a][open_face] -= grad[open_face]
    return stats


def impose_solid_faces(mac: MacGrid, cells: G.CellGrid, solid_vel: list[np.ndarray]) -> None:
    """Force faces adjacent to solid cells to the solid's normal velocity."""
    solid = cells.solid_mask()
    for a in range(mac.d):
        mask = G.face_mask(mac.dims, a, solid)
        mac.vel[a][mask] = solid_vel[a][mask]
