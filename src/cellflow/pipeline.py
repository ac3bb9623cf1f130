"""Simulation driver: seeding, the per-step pipeline, emitters, run loop.

A frame advances in substeps sized so nothing crosses more than one cell.
Each substep runs the fixed stage order (stage names are recorded for the
ordering tests): emit, p2g, forces, pressure, g2p, [grid_advect], advect,
correct, gate, markings, [band_maintain]. The markings stage runs after
correct, so the correction reads the previous step's markings, depth and
counts from the grid as they stand.
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
from .errors import IntegrityError, NoPathError, SolverError
from .scene import SceneConfig

MAX_SUBSTEPS = 10_000
# a frame's band counters, summed over its substeps; records add n_deep
BAND_COUNTERS = ("n_excess", "n_move", "paths", "find_calls")


@dataclass
class FrameRecord:
    step: int
    positions: np.ndarray
    velocities: np.ndarray
    raster: np.ndarray
    volume: G.VolumeReport
    band: dict
    substeps: int


@dataclass
class StepChecks:
    """Per-step invariant witnesses, collected on every substep."""

    max_cheb_ideal: int = 0
    max_manhattan_corrected: int = 0
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

    def __init__(self, cfg: SceneConfig):
        cfg.validate()
        self.cfg = cfg
        self.rng = np.random.default_rng(cfg.seed)
        self.grid = G.CellGrid(cfg.dims)
        self.mac = F.MacGrid(cfg.dims)
        self.obstacles = [S.Obstacle(ob) for ob in cfg.obstacles]
        self.emitters = [Emitter(e) for e in cfg.emitters]
        self.band = B.BandState(R=cfg.band.R) if cfg.band.enabled else None
        self.time = 0.0
        self.step_index = 0
        self.last_stage_trace: list[str] = []
        self.last_checks = StepChecks()

        self.particles = self._seed_particles()
        self.total_budget = self.particles.n  # live + n_deep + future emissions
        G.classify_cells(self.grid, self.particles.x, self.obstacles)
        G.assign_depth(self.grid)
        if self.band is not None:  # no seeded cell holds more than mu
            B.maintain_band(self.grid, self.particles, self.band,
                            G.band_classes(self.grid, self.band.R), cfg.mu, self.rng, self.mac)

    # ------------------------------------------------------------------

    def _seed_particles(self) -> F.ParticleSet:
        cfg = self.cfg
        grid = self.grid
        seeded = np.zeros(grid.ncells, dtype=np.int64)
        positions = [np.zeros((0, grid.d))]
        for region in cfg.fluids:
            ppc = cfg.mu if region.ppc is None else region.ppc
            flat = G.box_flat(grid, region.box.lo, region.box.hi)
            room = np.where(grid.wall[flat], 0, np.minimum(ppc, cfg.mu - seeded[flat])).clip(0)
            positions.append(G.fill_cells(grid, flat, room, self.rng))
            seeded[flat] += room
        return F.ParticleSet.from_positions(np.vstack(positions))

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
        band_diag = dict.fromkeys(BAND_COUNTERS, 0)
        self.last_checks = StepChecks()
        while remaining > 1e-12:
            obstacle_speed = max((float(np.abs(o.velocity).max()) for o in self.obstacles),
                                 default=0.0)
            dt = F.clamp_dt(self.mac, remaining, obstacle_speed)
            if dt <= 0:
                raise SolverError("time step collapsed to zero")
            self._substep(dt, trace, band_diag)
            remaining -= dt
            substeps += 1
            if substeps > MAX_SUBSTEPS:
                raise SolverError(f"frame exceeded {MAX_SUBSTEPS} substeps")
        self.step_index += 1
        self.last_stage_trace = trace
        return self._record(band_diag, substeps)

    def initial_frame(self) -> FrameRecord:
        return self._record(dict.fromkeys(BAND_COUNTERS, 0), 0)

    def _record(self, band_diag: dict, substeps: int) -> FrameRecord:
        """The frame record of the state as it stands, with n_deep read off
        the band state. A frame whose budget is 0 (an emitter-only scene
        before its first emission) holds no fluid and has lost none: 100%."""
        volume = (G.volume_report(self.grid, self.cfg.mu, self.v_star) if self.total_budget
                  else G.VolumeReport(V=0.0, percent=100.0, alt_percent=100.0, filled=0))
        return FrameRecord(
            step=self.step_index,
            positions=self.particles.x.astype(np.float32),
            velocities=self.particles.vel.astype(np.float32),
            raster=G.marking_raster(self.grid, self.band.R if self.band else None),
            volume=volume,
            band={"n_deep": self.band.n_deep if self.band else 0, **band_diag},
            substeps=substeps,
        )

    # ------------------------------------------------------------------

    def _substep(self, dt: float, trace: list, band_diag: dict) -> None:
        cfg = self.cfg
        grid = self.grid
        mac = self.mac
        particles = self.particles
        band = self.band

        self._emit(dt)
        trace.append("emit")
        x_start = particles.x  # apply_solution replaces the array, never writes it

        # the band's classes of the previous step, built once per substep
        classes = G.band_classes(grid, band.R) if band else None
        # p2g may overwrite the faces of non-solid cells outside the band region
        write_cells = ~classes["region"] & ~grid.solid_mask() if band else None
        stencils = F.transfer_p2g(particles, mac, write_cells)
        saved_vel = mac.copy_velocity()
        trace.append("p2g")

        F.apply_forces(mac, cfg.gravity, dt)
        trace.append("forces")

        solid_vel = S.solid_face_velocities(grid, mac.dims, self.obstacles)
        pstats = F.solve_pressure(mac, grid, solid_vel, tol=cfg.pressure_tol)
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
            # the faces touching the band region, the fluid the grid owns
            F.advect_grid_velocity(mac, dt, [G.face_mask(mac.dims, a, classes["region"])
                                             for a in range(mac.d)])
            v1 = F.velocity_at(mac, x_start)  # the field g2p read has moved
            trace.append("grid_advect")

        x_ideal = F.advect_particles(particles, mac, dt, v1)
        trace.append("advect")
        prev_cells = np.floor(x_start).astype(np.int64)
        ideal_cells = np.floor(x_ideal).astype(np.int64)
        cheb = int(np.abs(ideal_cells - prev_cells).max(initial=0))
        self.last_checks.max_cheb_ideal = max(self.last_checks.max_cheb_ideal, cheb)
        if cheb > 1:
            raise IntegrityError("advected position left the Moore neighborhood")

        proposals = self._correct(dt, x_ideal, classes, band_diag)
        trace.append("correct")
        new_cells = np.floor(particles.x).astype(np.int64)
        manh = int(np.abs(new_cells - prev_cells).sum(axis=1).max(initial=0))
        self.last_checks.max_manhattan_corrected = max(
            self.last_checks.max_manhattan_corrected, manh)
        if manh > 1:
            raise IntegrityError("corrected position left the von Neumann neighborhood")

        for obs, proposal in zip(self.obstacles, proposals):
            moved = S.gate_motion(obs, grid, particles, proposal, dt)
            S.integrate_free_fall(obs, cfg.gravity, dt, moved, cfg.max_speed)
        trace.append("gate")

        G.classify_cells(grid, particles.x, self.obstacles, classes)
        G.assign_depth(grid)
        trace.append("markings")

        if band:
            maint = B.maintain_band(grid, particles, band, classes, cfg.mu, self.rng, mac)
            band_diag["n_excess"] += maint["n_excess"]
            trace.append("band_maintain")

        self.time += dt
        self._check()

    def _emit(self, dt: float) -> None:
        cfg = self.cfg
        grid = self.grid
        for em in self.emitters:
            if not em.active(self.time):
                continue
            k = em.want(dt)
            if k <= 0:
                continue
            counts = np.bincount(grid.cell_of(self.particles.x), minlength=grid.ncells)
            flat = G.box_flat(grid, em.cfg.box.lo, em.cfg.box.hi)
            room = np.where(grid.solid_mask()[flat], 0, cfg.mu - counts[flat])
            pos = G.fill_cells(grid, flat, room, self.rng, limit=k)
            placed = len(pos)
            em.deferred += k - placed
            vel = np.tile(np.asarray(em.cfg.velocity, dtype=np.float64), (placed, 1))
            self.particles.append(pos, vel)
            em.spawned += placed
            self.total_budget += placed

    def _correct(self, dt: float, x_ideal: np.ndarray, classes: dict | None,
                 band_diag: dict) -> list:
        """Build and solve the correction problem toward the advected
        positions ``x_ideal``, apply new positions.

        ``classes`` are the band classes of the previous step (None without
        the band). Both band strategies end with the band row attached to the
        problem, so the one apply checks it. Where
        flow-paths finds no path, the row-attached problem is solved exactly
        instead. Any other IntegrityError from the solve, the band repair or
        the apply's check of the choice carries the problem, band row
        included, as its ``problem`` attribute, so that run() can write a
        replay file. Returns the per-obstacle motion proposals so gating can
        reuse them.
        """
        cfg = self.cfg
        grid = self.grid
        particles = self.particles
        band = self.band

        proposals = [S.propose_motion(obs, grid, dt) for obs in self.obstacles]
        if particles.n == 0:
            return proposals

        candidates = C.build_candidates(particles.x, x_ideal, grid)
        claimed = np.zeros(grid.ncells, dtype=bool)
        for proposal in proposals:
            claimed[proposal.new_solid] = True
        if claimed.any():
            S.override_costs(candidates, S.build_solid_objective(
                grid, np.flatnonzero(claimed), cfg.lambda_penalty))
        problem = C.build_problem(grid, candidates, cfg.mu, classes)

        flow_paths = band is not None and cfg.band.strategy is B.BandStrategy.FLOW_PATHS
        if band is not None:
            B.compute_alphas(grid, classes, band, cfg.mu)
            if not flow_paths:  # the balance row joins the solve
                B.attach_region(problem, classes, band.alpha_le)

        try:
            choice = V.solve_problem(problem)[0]
            if flow_paths:  # repair the plain solve's choice
                try:
                    diag = B.correct_band_flow(grid, problem, choice, classes, band)
                except NoPathError:  # the exact solve meets the row it attached
                    choice = V.solve_problem(problem)[0]
                else:
                    for key in ("n_move", "paths", "find_calls"):
                        band_diag[key] += diag[key]
            C.apply_solution(problem, choice, particles, x_ideal)
        except IntegrityError as exc:
            exc.problem = problem
            raise
        if band is not None:
            band.last_s_in, band.last_s_out = B.region_slack(problem, choice)
        return proposals

    # ------------------------------------------------------------------

    def _check(self) -> None:
        grid = self.grid
        particles = self.particles
        # positions of the step that just completed: x against the previous
        # substep's cells is no longer available here, so the locality
        # witnesses are collected inside advect/correct instead.
        flat = grid.cell_of(particles.x)
        if grid.wall[flat].any():
            raise IntegrityError("particle inside a wall cell")
        if grid.counts[grid.solid_mask()].any():
            raise IntegrityError("particles left inside solid cells")
        if (grid.counts[~grid.solid_mask()] > self.cfg.mu).any():
            raise IntegrityError("cell capacity exceeded after maintenance")


def run(cfg: SceneConfig, out_dir, render: bool = False) -> int:
    """Run a configured scene, writing frames, volume CSV and the manifest.

    If the correction fails (the flow solve, the flow-paths band repair or
    the check of the applied choice), its problem's arrays are written to
    ``failed_problem.npz`` in the run directory for ``cellflow oracle-check``
    to replay.
    """
    from . import outputs as O

    sim = Simulation(cfg)
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
                replay = Path(out_dir) / "failed_problem.npz"
                np.savez(replay, **C.dump_problem(exc.problem))
                raise IntegrityError(f"correction failed at seed {cfg.seed}, step "
                                     f"{sim.step_index + 1}: {exc} (problem written to {replay})"
                                     ) from exc
            out.write_frame(sim, record)
    finally:
        out.close()
    return 0
