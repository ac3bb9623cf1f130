"""Simulation driver: seeding, the per-step pipeline, emitters, run loop.

A frame advances in substeps sized so nothing crosses more than one cell.
Each substep runs the fixed stage order (stage names are recorded for the
ordering tests): emit, p2g, forces, pressure, g2p, [grid_advect], advect,
correct, gate, markings, [band_maintain]. The grid snapshot taken at the
end of a substep supplies the constraint state of the next one.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import band as B
from . import correction as C
from . import flip as F
from . import grid as G
from . import solids as S
from . import solvers as V
from .errors import IntegrityError, SolverError
from .scene import SceneConfig
from .solids import Obstacle

MAX_SUBSTEPS = 10_000


@dataclass
class FrameRecord:
    step: int
    time: float
    positions: np.ndarray
    velocities: np.ndarray
    raster: np.ndarray
    volume: G.VolumeReport
    band: dict
    solver: dict
    substeps: int


@dataclass
class StepChecks:
    """Per-step invariant witnesses collected when checking is enabled."""

    max_cheb_ideal: int = 0
    max_manhattan_corrected: int = 0
    cap_violations: int = 0
    solid_violations: int = 0
    div_residual: float = 0.0
    div_tolerance: float = 0.0


class Emitter:
    def __init__(self, cfg):
        self.cfg = cfg
        self.acc = 0.0
        self.spawned = 0
        self.deferred = 0

    def active(self, t: float) -> bool:
        if self.cfg.total is not None and self.spawned >= self.cfg.total:
            return False
        return t >= self.cfg.start

    def want(self, dt: float) -> int:
        self.acc += self.cfg.rate * dt
        k = int(self.acc)
        self.acc -= k
        k += self.deferred
        self.deferred = 0
        if self.cfg.total is not None:
            k = min(k, self.cfg.total - self.spawned)
        return k


class Simulation:
    """Owns all mutable state of one run and advances it frame by frame."""

    def __init__(self, cfg: SceneConfig, check_invariants: bool = False):
        cfg.validate()
        self.cfg = cfg
        self.check_invariants = check_invariants
        self.rng = np.random.default_rng(cfg.seed)
        self.grid = G.CellGrid(cfg.dims)
        self.mac = F.MacGrid(cfg.dims)
        self.dirs = C.direction_set(self.grid.d)
        self.obstacles = [
            Obstacle(pos=np.asarray(ob.box.lo, dtype=np.float64),
                     extent=np.asarray(ob.box.hi, dtype=np.float64) - np.asarray(ob.box.lo),
                     velocity=np.asarray(ob.velocity, dtype=np.float64),
                     kinematics=ob.kinematics, zero_bc=ob.zero_bc, name=ob.name)
            for ob in cfg.obstacles
        ]
        self.emitters = [Emitter(e) for e in cfg.emitters]
        self.band = B.BandState(R=cfg.band.R, strategy=cfg.band.strategy) if cfg.band.enabled else None
        self.time = 0.0
        self.step_index = 0
        self.last_stage_trace: list[str] = []
        self.last_checks = StepChecks()

        self.particles = self._seed_particles()
        self.total_budget = self.particles.n  # live + n_deep + future emissions
        G.classify_cells(self.grid, self.particles, self.obstacles)
        G.assign_depth(self.grid)
        if self.band is not None:
            B.maintain_band(self.grid, self.particles, self.band, cfg.mu, self.rng, self.mac)
        self.grid.snapshot()

    # ------------------------------------------------------------------

    def _seed_particles(self) -> F.ParticleSet:
        cfg = self.cfg
        d = self.grid.d
        seeded = np.zeros(self.grid.ncells, dtype=np.int64)
        positions = []
        for region in cfg.fluids:
            ppc = cfg.mu if region.ppc is None else min(region.ppc, cfg.mu)
            lo = np.floor(np.asarray(region.box.lo)).astype(np.int64)
            hi = np.ceil(np.asarray(region.box.hi)).astype(np.int64)
            cells = G.box_cells(lo, hi)
            flat = self.grid.flat(cells)
            for cell, c in zip(cells, flat):
                room = min(ppc, cfg.mu - seeded[c])
                if room <= 0 or self.grid.wall[c]:
                    continue
                pts = cell + self.rng.uniform(0.01, 0.99, size=(room, d))
                positions.append(pts)
                seeded[c] += room
        if positions:
            return F.ParticleSet.from_positions(np.vstack(positions))
        return F.ParticleSet.empty(d)

    @property
    def v_star(self) -> float:
        return self.total_budget / self.cfg.mu

    def live_plus_deep(self) -> int:
        return self.particles.n + (self.band.n_deep if self.band else 0)

    # ------------------------------------------------------------------

    def step(self) -> FrameRecord:
        """Advance one frame (substepping until frame_dt is consumed)."""
        cfg = self.cfg
        remaining = cfg.frame_dt
        substeps = 0
        trace: list[str] = []
        solver_stats = {"searches": 0, "drains": 0, "objective": 0.0,
                        "pressure_iterations": 0, "solve_time": 0.0}
        band_diag = {"n_deep": self.band.n_deep if self.band else 0, "n_excess": 0,
                     "n_move": 0, "paths": 0, "find_calls": 0}
        self.last_checks = StepChecks()
        while remaining > 1e-12:
            obstacle_speed = max((float(np.abs(o.velocity).max()) for o in self.obstacles),
                                 default=0.0)
            dt = F.clamp_dt(self.mac, remaining, obstacle_speed)
            if dt <= 0:
                raise SolverError("time step collapsed to zero")
            self._substep(dt, trace, solver_stats, band_diag)
            remaining -= dt
            substeps += 1
            if substeps > MAX_SUBSTEPS:
                raise SolverError(f"frame exceeded {MAX_SUBSTEPS} substeps")
        self.step_index += 1
        self.last_stage_trace = trace
        if self.band:
            band_diag["n_deep"] = self.band.n_deep
        vol = G.volume_report(self.grid, cfg.mu, self.v_star)
        return FrameRecord(
            step=self.step_index,
            time=self.time,
            positions=self.particles.x.astype(np.float32),
            velocities=self.particles.vel.astype(np.float32),
            raster=G.marking_raster(self.grid, self.band.R if self.band else None),
            volume=vol,
            band=dict(band_diag),
            solver=dict(solver_stats),
            substeps=substeps,
        )

    def initial_frame(self) -> FrameRecord:
        vol = G.volume_report(self.grid, self.cfg.mu, self.v_star)
        return FrameRecord(
            step=0, time=0.0,
            positions=self.particles.x.astype(np.float32),
            velocities=self.particles.vel.astype(np.float32),
            raster=G.marking_raster(self.grid, self.band.R if self.band else None),
            volume=vol,
            band={"n_deep": self.band.n_deep if self.band else 0, "n_excess": 0,
                  "n_move": 0, "paths": 0, "find_calls": 0},
            solver={}, substeps=0,
        )

    # ------------------------------------------------------------------

    def _substep(self, dt: float, trace: list, solver_stats: dict, band_diag: dict) -> None:
        cfg = self.cfg
        grid = self.grid
        mac = self.mac
        particles = self.particles
        band = self.band

        self._emit(dt)
        trace.append("emit")

        # the band's classes of the previous step, built once per substep
        classes = G.band_classes(grid.prev, band.R) if band else None
        write_cells = B.band_write_cells(grid, classes["region"]) if band else None
        stencils = F.transfer_p2g(particles, mac, write_cells)
        saved_vel = mac.copy_velocity()
        trace.append("p2g")

        F.apply_forces(mac, cfg.gravity, dt)
        trace.append("forces")

        solid_vel = S.solid_face_velocities(grid, mac.dims, self.obstacles)
        pstats = F.solve_pressure(mac, grid, solid_vel, tol=cfg.pressure_tol)
        solver_stats["pressure_iterations"] += pstats.iterations
        if self.check_invariants:
            self.last_checks.div_residual = max(self.last_checks.div_residual, pstats.residual)
            self.last_checks.div_tolerance = max(self.last_checks.div_tolerance, pstats.tolerance)
        # scene speed bound: projection can spike faces near degenerate
        # configurations; the correction owns incompressibility, so capping
        # here costs nothing and keeps the substep count bounded
        for a in range(mac.d):
            np.clip(mac.vel[a], -cfg.max_speed, cfg.max_speed, out=mac.vel[a])
        trace.append("pressure")

        v1 = F.transfer_g2p(mac, saved_vel, particles, stencils, cfg.flip_ratio, cfg.max_speed)
        trace.append("g2p")

        if band:
            F.advect_grid_velocity(mac, dt, B.band_grid_faces(mac, classes["region"]))
            v1 = F.velocity_at(mac, particles.x_prev)  # the field g2p read has moved
            trace.append("grid_advect")

        F.advect_particles(particles, mac, dt, v1)
        trace.append("advect")
        if self.check_invariants and particles.n:
            prev_cells = np.floor(particles.x_prev).astype(np.int64)
            ideal_cells = np.floor(particles.x_ideal).astype(np.int64)
            cheb = int(np.abs(ideal_cells - prev_cells).max())
            self.last_checks.max_cheb_ideal = max(self.last_checks.max_cheb_ideal, cheb)
            if cheb > 1:
                raise IntegrityError("advected position left the Moore neighborhood")

        proposals = self._correct(dt, classes, solver_stats, band_diag)
        trace.append("correct")
        if self.check_invariants and particles.n:
            prev_cells = np.floor(particles.x_prev).astype(np.int64)
            new_cells = np.floor(particles.x).astype(np.int64)
            manh = int(np.abs(new_cells - prev_cells).sum(axis=1).max())
            self.last_checks.max_manhattan_corrected = max(
                self.last_checks.max_manhattan_corrected, manh)
            if manh > 1:
                raise IntegrityError("corrected position left the von Neumann neighborhood")

        for obs, proposal in zip(self.obstacles, proposals):
            moved = S.gate_motion(obs, grid, particles, proposal, dt)
            S.integrate_free_fall(obs, cfg.gravity, dt, moved, cfg.max_speed)
        trace.append("gate")

        G.classify_cells(grid, particles, self.obstacles, classes)
        G.assign_depth(grid)
        trace.append("markings")

        if band:
            maint = B.maintain_band(grid, particles, band, cfg.mu, self.rng, mac)
            band_diag["n_excess"] += maint["n_excess"]
            trace.append("band_maintain")

        particles.x_prev = particles.x.copy()
        particles.x_ideal = particles.x.copy()
        grid.snapshot()  # counts from classify_cells, or maintain_band's recount
        self.time += dt

        if self.check_invariants:
            self._check()

    def _emit(self, dt: float) -> None:
        cfg = self.cfg
        grid = self.grid
        d = grid.d
        for em in self.emitters:
            if not em.active(self.time):
                continue
            k = em.want(dt)
            if k <= 0:
                continue
            counts = (np.bincount(grid.cell_of(self.particles.x), minlength=grid.ncells)
                      if self.particles.n else np.zeros(grid.ncells, dtype=np.int64))
            lo = np.floor(np.asarray(em.cfg.box.lo)).astype(np.int64)
            hi = np.ceil(np.asarray(em.cfg.box.hi)).astype(np.int64)
            cells = G.box_cells(lo, hi)
            flat = grid.flat(cells)
            ok = ~grid.wall[flat] & (grid.marking[flat] != G.SOLID)
            cells, flat = cells[ok], flat[ok]
            placed_pos = []
            placed = 0
            for cell, c in zip(cells, flat):
                while counts[c] < cfg.mu and placed < k:
                    placed_pos.append(cell + self.rng.uniform(0.01, 0.99, size=d))
                    counts[c] += 1
                    placed += 1
                if placed == k:
                    break
            if placed < k:
                em.deferred += k - placed
            if placed_pos:
                pos = np.asarray(placed_pos)
                vel = np.tile(np.asarray(em.cfg.velocity, dtype=np.float64), (placed, 1))
                self.particles.append(pos, vel)
                em.spawned += placed
                self.total_budget += placed

    def _correct(self, dt: float, classes: dict | None, solver_stats: dict,
                 band_diag: dict) -> list:
        """Build and solve the correction problem, apply new positions.

        ``classes`` are the band classes of the previous step (None without
        the band). Both band strategies end with the band row attached to the
        problem, so one apply checks it under invariant checking. Returns the
        per-obstacle motion proposals so gating can reuse them.
        """
        cfg = self.cfg
        grid = self.grid
        particles = self.particles
        band = self.band

        proposals = []
        new_solid_all = []
        for obs in self.obstacles:
            proposal = S.propose_motion(obs, grid, dt)
            proposals.append(proposal)
            if len(proposal.new_solid):
                new_solid_all.append(proposal.new_solid)
        solid_obj = None
        if new_solid_all:
            union = np.unique(np.concatenate(new_solid_all))
            solid_obj = S.build_solid_objective(grid, union, cfg.lambda_penalty)

        if particles.n == 0:
            return proposals

        candidates = C.build_candidates(particles, grid, self.dirs)
        solid_cost = S.override_costs(candidates, solid_obj) if solid_obj else None
        problem = C.build_problem(grid, candidates, cfg.mu, classes, solid_cost)

        if band is not None:
            B.compute_alphas(grid, classes, band, cfg.mu)
            if band.strategy is B.BandStrategy.FULL:  # the balance row joins the solve
                B.attach_region(problem, classes, band.alpha_le)

        assignment, stats = self._solve(problem)
        solver_stats["searches"] += stats.searches
        solver_stats["drains"] += stats.drains
        solver_stats["objective"] += stats.objective
        solver_stats["solve_time"] += stats.wall_time
        if band is not None:
            if band.strategy is B.BandStrategy.FLOW_PATHS:  # repair the plain solve's choice
                diag = B.correct_band_flow(grid, problem, assignment.choice, classes, band, cfg.mu)
                for key in ("n_move", "paths", "find_calls"):
                    band_diag[key] += diag[key]
            band.last_s_in, band.last_s_out = B.region_slack(problem, assignment.choice)
        C.apply_solution(problem, assignment, particles, verify=self.check_invariants)
        return proposals

    @staticmethod
    def _solve(problem: C.CorrectionProblem):
        """The flow solve. An IntegrityError carries the problem as its
        ``problem`` attribute, so that run() can write a replay file."""
        try:
            return V.solve_problem(problem)
        except IntegrityError as exc:
            exc.problem = problem
            raise

    # ------------------------------------------------------------------

    def _check(self) -> None:
        grid = self.grid
        particles = self.particles
        checks = self.last_checks
        if particles.n:
            # positions of the step that just completed: x against the
            # previous substep's cells is no longer available here, so the
            # locality witnesses are collected inside advect/correct instead.
            flat = grid.cell_of(particles.x)
            if grid.wall[flat].any():
                raise IntegrityError("particle inside a wall cell")
            solid_counts = grid.counts[grid.solid_mask()]
            if solid_counts.any():
                checks.solid_violations += int((solid_counts > 0).sum())
                raise IntegrityError("particles left inside solid cells")
            nonsolid = ~grid.solid_mask()
            over = grid.counts[nonsolid] > self.cfg.mu
            if over.any():
                checks.cap_violations += int(over.sum())
                raise IntegrityError("cell capacity exceeded after maintenance")


def run(cfg: SceneConfig, out_dir, render: bool = False, check_invariants: bool = False) -> int:
    """Run a configured scene, writing frames, volume CSV and the manifest.

    If the flow solve fails, its problem is written to ``failed_problem.txt``
    in the run directory for ``cellflow oracle-check`` to replay.
    """
    from . import outputs as O

    sim = Simulation(cfg, check_invariants=check_invariants)
    out = O.RunWriter(out_dir, cfg, render=render)
    try:
        out.write_manifest()
        record = sim.initial_frame()
        out.write_frame(sim, record)
        for _ in range(cfg.frames):
            try:
                record = sim.step()
            except IntegrityError as exc:
                if not hasattr(exc, "problem"):
                    raise
                replay = Path(out_dir) / "failed_problem.txt"
                replay.write_text(C.dump_problem(exc.problem), encoding="utf-8")
                raise IntegrityError(f"flow solve failed at seed {cfg.seed}, step "
                                     f"{sim.step_index + 1}: {exc} (problem written to {replay})"
                                     ) from exc
            out.write_frame(sim, record)
    finally:
        out.close()
    return 0
