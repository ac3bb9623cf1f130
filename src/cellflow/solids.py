"""One-way solid coupling: obstacles, penalty objective, motion gating.

Obstacles are axis-aligned boxes voxelized onto whole grid cells. Their
motion is proposed per substep; the correction's solid objective penalizes
particles sitting in the cells the obstacle wants, graded by clearing
distance, and the obstacle advances only once those cells are particle
free. Fluid feels the solid through the pressure boundary condition.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import grid as G
from .flip import ParticleSet


class Kinematics(Enum):
    SCRIPTED = "scripted"
    FREE_FALL = "free_fall"


@dataclass
class Obstacle:
    """Axis-aligned solid box in cell units.

    pos is the lower corner; extent the integer cell size per axis. Scripted
    obstacles keep their configured velocity; free-fall obstacles integrate
    gravity while they actually move and retain their velocity while held.
    """

    pos: np.ndarray
    extent: np.ndarray
    velocity: np.ndarray
    kinematics: Kinematics = Kinematics.SCRIPTED
    zero_bc: bool = False
    name: str = "obstacle"

    def __post_init__(self):
        self.pos = np.asarray(self.pos, dtype=np.float64)
        self.extent = np.asarray(self.extent, dtype=np.float64)
        self.velocity = np.asarray(self.velocity, dtype=np.float64)

    def cells_at(self, pos: np.ndarray, grid: G.CellGrid) -> np.ndarray:
        """Flat indices of the cells intersected by the box at pos."""
        lo = np.floor(pos + 1e-9).astype(np.int64)
        hi = np.ceil(pos + self.extent - 1e-9).astype(np.int64)
        lo = np.maximum(lo, 0)
        hi = np.minimum(hi, np.asarray(grid.dims))
        if np.any(hi <= lo):
            return np.zeros(0, dtype=np.int64)
        return grid.flat(G.box_cells(lo, hi))

    def occupied_flat(self, grid: G.CellGrid) -> np.ndarray:
        return self.cells_at(self.pos, grid)


@dataclass
class MotionProposal:
    candidate: np.ndarray   # occupancy after the move
    new_solid: np.ndarray   # cells claimed beyond the current occupancy
    wall_blocked: bool      # move would intersect a tank wall


def propose_motion(obstacle: Obstacle, grid: G.CellGrid, dt: float) -> MotionProposal:
    """Candidate occupancy after moving for dt, and the newly claimed cells.

    Motion into tank walls is blocked outright: the proposal collapses to the
    current occupancy with an empty new-cell set and the wall flag raised.
    """
    new_pos = obstacle.pos + obstacle.velocity * dt
    candidate = obstacle.cells_at(new_pos, grid)
    if grid.wall[candidate].any():
        return MotionProposal(candidate=obstacle.occupied_flat(grid),
                              new_solid=np.zeros(0, dtype=np.int64), wall_blocked=True)
    current = obstacle.occupied_flat(grid)
    new_solid = np.setdiff1d(candidate, current, assume_unique=False)
    return MotionProposal(candidate=candidate, new_solid=new_solid, wall_blocked=False)


@dataclass
class SolidObjective:
    """Clearing-distance-graded penalty for prospective solid cells."""

    lambda_penalty: float
    cdist: np.ndarray       # per-cell clearing distance, 0 outside new_solid
    new_solid: np.ndarray   # flat indices


def build_solid_objective(grid: G.CellGrid, new_solid: np.ndarray,
                          lambda_penalty: float) -> SolidObjective | None:
    if len(new_solid) == 0:
        return None
    cdist = G.clearing_distance(grid, new_solid)
    return SolidObjective(lambda_penalty=lambda_penalty, cdist=cdist, new_solid=np.asarray(new_solid))


def override_costs(candidates, so: SolidObjective | None) -> np.ndarray:
    """Candidate cost table with the solid objective applied."""
    cost = candidates.cost.copy()
    if so is None:
        return cost
    in_new = np.isin(candidates.target_flat, so.new_solid)
    penal = so.lambda_penalty * so.cdist[np.where(in_new, candidates.target_flat, 0)]
    cost = np.where(in_new & candidates.valid, penal, cost)
    return cost


def gate_motion(obstacle: Obstacle, grid: G.CellGrid, particles: ParticleSet,
                proposal: MotionProposal, dt: float) -> bool:
    """Advance the obstacle iff no corrected particle occupies a claimed cell.

    Returns True when the obstacle moved. A held obstacle keeps its position
    and retains its velocity.
    """
    if proposal.wall_blocked:
        return False
    if len(proposal.new_solid):
        if len(particles.x):
            occupied = np.bincount(grid.cell_of(particles.x), minlength=grid.ncells)
            if occupied[proposal.new_solid].any():
                return False
    obstacle.pos = obstacle.pos + obstacle.velocity * dt
    return True


def solid_face_velocities(grid: G.CellGrid, mac_dims, obstacles) -> list[np.ndarray]:
    """Per-axis face arrays holding each solid's normal velocity.

    Wall faces carry zero. Faces of a zero-BC obstacle carry zero as well,
    which exercises the no-repulsion experiment.
    """
    d = grid.d
    vals = []
    for a in range(d):
        shape = tuple(n + 1 if k == a else n for k, n in enumerate(grid.dims))
        arr = np.zeros(shape)
        for obs in obstacles:
            v = 0.0 if obs.zero_bc else float(obs.velocity[a])
            if v == 0.0:
                continue
            mask = np.zeros(grid.ncells, dtype=bool)
            mask[obs.occupied_flat(grid)] = True
            face = G.face_mask(grid.dims, a, mask)
            arr[face] = v
        vals.append(arr)
    return vals


def integrate_free_fall(obstacle: Obstacle, gravity, dt: float, moved: bool,
                        max_speed: float | None = None) -> None:
    """Accumulate gravity into a free-fall obstacle only while it moves."""
    if obstacle.kinematics is not Kinematics.FREE_FALL or not moved:
        return
    obstacle.velocity = obstacle.velocity + np.asarray(gravity, dtype=np.float64) * dt
    if max_speed is not None:
        peak = float(np.abs(obstacle.velocity).max())
        if peak > max_speed:
            obstacle.velocity = obstacle.velocity * (max_speed / peak)
