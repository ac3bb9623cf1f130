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


class Obstacle:
    """A scene obstacle in motion: its ObstacleConfig plus what moves, the
    lower corner pos and the velocity, and its size per axis, extent.

    Scripted obstacles keep their configured velocity; free-fall obstacles
    integrate gravity while they actually move and retain their velocity
    while held.
    """

    def __init__(self, cfg):
        self.cfg = cfg
        self.pos = np.asarray(cfg.box.lo, dtype=np.float64)
        self.extent = np.asarray(cfg.box.hi, dtype=np.float64) - self.pos
        self.velocity = np.asarray(cfg.velocity, dtype=np.float64)

    def cells_at(self, pos: np.ndarray, grid: G.CellGrid) -> np.ndarray:
        """Flat indices of the cells intersected by the box at pos."""
        return G.box_flat(grid, pos, pos + self.extent)

    def occupied_flat(self, grid: G.CellGrid) -> np.ndarray:
        return self.cells_at(self.pos, grid)


@dataclass
class MotionProposal:
    new_solid: np.ndarray   # cells claimed beyond the current occupancy
    wall_blocked: bool      # move would intersect a tank wall


def propose_motion(obstacle: Obstacle, grid: G.CellGrid, dt: float) -> MotionProposal:
    """The cells the obstacle would newly claim by moving for dt.

    Motion into tank walls is blocked outright: the proposal claims no cell
    and raises the wall flag.
    """
    new_pos = obstacle.pos + obstacle.velocity * dt
    candidate = obstacle.cells_at(new_pos, grid)
    if grid.wall[candidate].any():
        return MotionProposal(new_solid=np.zeros(0, dtype=np.int64), wall_blocked=True)
    held = np.zeros(grid.ncells, dtype=bool)
    held[obstacle.occupied_flat(grid)] = True
    return MotionProposal(new_solid=candidate[~held[candidate]], wall_blocked=False)


def build_solid_objective(grid: G.CellGrid, new_solid: np.ndarray,
                          lambda_penalty: float) -> np.ndarray:
    """Per-cell penalty of the claimed cells, graded by clearing distance;
    0 outside them."""
    return lambda_penalty * G.clearing_distance(grid, new_solid)


def override_costs(candidates, penalty: np.ndarray) -> None:
    """Write the solid penalty into the candidate table's costs.

    The penalty is positive exactly on the claimed cells. An invalid
    candidate's target is -1, so it reads the last cell's penalty, which the
    validity mask then discards."""
    cost = penalty[candidates.target_flat]
    np.copyto(candidates.cost, cost, where=candidates.valid & (cost > 0))


def gate_motion(obstacle: Obstacle, grid: G.CellGrid, particles: ParticleSet,
                proposal: MotionProposal, dt: float) -> bool:
    """Advance the obstacle iff no corrected particle occupies a claimed cell.

    Returns True when the obstacle moved. A held obstacle keeps its position
    and retains its velocity.
    """
    if proposal.wall_blocked:
        return False
    if len(proposal.new_solid):
        claimed = np.zeros(grid.ncells, dtype=bool)
        claimed[proposal.new_solid] = True
        if claimed[grid.cell_of(particles.x)].any():
            return False
    obstacle.pos = obstacle.pos + obstacle.velocity * dt
    return True


def solid_face_velocities(grid: G.CellGrid, mac_dims, obstacles) -> list[np.ndarray]:
    """Per-axis face arrays holding each solid's normal velocity.

    Wall faces carry zero. Faces of a zero-BC obstacle carry zero as well,
    which exercises the no-repulsion experiment.
    """
    vals = []
    for a in range(grid.d):
        arr = np.zeros(G.face_shape(grid.dims, a))
        for obs in obstacles:
            v = 0.0 if obs.cfg.zero_bc else float(obs.velocity[a])
            if v == 0.0:
                continue
            mask = np.zeros(grid.ncells, dtype=bool)
            mask[obs.occupied_flat(grid)] = True
            face = G.face_mask(grid.dims, a, mask)
            arr[face] = v
        vals.append(arr)
    return vals


def integrate_free_fall(obstacle: Obstacle, gravity, dt: float, moved: bool,
                        max_speed: float) -> None:
    """Accumulate gravity into a free-fall obstacle only while it moves."""
    if obstacle.cfg.kinematics is not Kinematics.FREE_FALL or not moved:
        return
    obstacle.velocity = obstacle.velocity + np.asarray(gravity, dtype=np.float64) * dt
    peak = float(np.abs(obstacle.velocity).max())
    if peak > max_speed:
        obstacle.velocity = obstacle.velocity * (max_speed / peak)
