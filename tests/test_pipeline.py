"""Pipeline: stage ordering, hydrostatics, emitters, outputs, determinism."""
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import read_particle_dump

from cellflow import band as B
from cellflow import cli
from cellflow import correction as C
from cellflow import grid as G
from cellflow import outputs as O
from cellflow import solvers as V
from cellflow.scene import BandStrategy
from cellflow.errors import IntegrityError, NoPathError
from cellflow.pipeline import Simulation, run
from cellflow.scene import (BandConfig, Box, EmitterConfig, FluidRegion, ObstacleConfig,
                            SceneConfig, builtin_scene, scene_to_text)

FLIP_STAGES = ["emit", "p2g", "forces", "pressure", "g2p", "advect", "correct",
               "gate", "markings"]
BAND_STAGES = ["emit", "p2g", "forces", "pressure", "g2p", "grid_advect", "advect",
               "correct", "gate", "markings", "band_maintain"]


def small_scene(**kw):
    base = dict(name="small", dims=(16, 16), mu=4, frames=3,
                fluids=[FluidRegion(Box((1, 1), (8, 10)))])
    base.update(kw)
    return SceneConfig(**base)


def overfill(solve_problem):
    """``solve_problem`` with its choice edited to overfill one capped cell."""
    def solve(problem):
        choice, stats = solve_problem(problem)
        reach = np.bincount(problem.target_flat[problem.valid], minlength=len(problem.cap))
        cell = np.flatnonzero(reach > problem.cap)[0]
        i, j = np.nonzero(problem.valid & (problem.target_flat == cell))
        choice[j] = i
        return choice, stats
    return solve


def invalid_pick(solve_problem):
    """``solve_problem`` with its choice edited to pick one invalid
    candidate, whose target is -1."""
    def solve(problem):
        choice, stats = solve_problem(problem)
        i, j = np.argwhere(~problem.valid)[0]
        choice[j] = i
        return choice, stats
    return solve


def assert_band_classes_agree(sim, record):
    """band_classes of the grid at the end of a frame against the cells each
    consumer marks: the raster's band codes, build_problem's caps and floors,
    and the cells classify_cells keeps fluid when every particle has gone."""
    grid = sim.grid
    classes = G.band_classes(grid, sim.band.R)
    assert np.array_equal(record.raster == G.RASTER_IN_BAND, classes["in_band_inner"])
    assert np.array_equal(record.raster == G.RASTER_INTERFACE, classes["interface"])
    assert np.array_equal(record.raster == G.RASTER_DEEP, classes["deep"])
    x = sim.particles.x
    problem = C.build_problem(grid, C.build_candidates(x, x, grid), sim.cfg.mu, classes)
    assert problem.n > sim.cfg.mu
    assert np.array_equal(problem.cap == problem.n, classes["deep"])
    floored = classes["in_band_inner"]
    assert np.array_equal(problem.floor[floored], grid.counts[floored])
    assert not problem.floor[~floored].any()
    emptied = G.CellGrid(grid.dims)
    G.classify_cells(emptied, np.zeros((0, grid.d)), sim.obstacles, classes)
    assert np.array_equal(emptied.fluid_mask(), classes["region"])


class TestStageOrder:
    def test_flip_order(self):
        sim = Simulation(small_scene())
        sim.step()
        per_substep = len(FLIP_STAGES)
        trace = sim.last_stage_trace
        assert len(trace) % per_substep == 0
        for k in range(0, len(trace), per_substep):
            assert trace[k:k + per_substep] == FLIP_STAGES

    def test_band_order(self):
        sim = Simulation(small_scene(band=BandConfig(enabled=True, R=2)))
        sim.step()
        per_substep = len(BAND_STAGES)
        trace = sim.last_stage_trace
        assert len(trace) % per_substep == 0
        for k in range(0, len(trace), per_substep):
            assert trace[k:k + per_substep] == BAND_STAGES


class TestHydrostatic:
    def test_still_pool_stays_put(self):
        # a resting pool under gravity: projection balances the body force and
        # positions change by at most numerical noise across a frame
        cfg = small_scene(fluids=[FluidRegion(Box((1, 1), (15, 7)))], frames=3)
        sim = Simulation(cfg)
        x0 = sim.particles.x.copy()
        for _ in range(3):
            sim.step()
        drift = np.abs(sim.particles.x - x0).max()
        assert drift < 2e-3

    def test_divergence_residual_bounded(self):
        cfg = small_scene()
        sim = Simulation(cfg)
        for _ in range(3):
            sim.step()
        assert sim.last_checks.div_residual <= sim.last_checks.div_tolerance + 1e-15


class TestInvariants:
    def test_dam_step_invariants(self):
        sim = Simulation(small_scene(frames=8))
        for _ in range(8):
            sim.step()
        assert sim.last_checks.max_cheb_ideal <= 1
        assert sim.last_checks.max_manhattan_corrected <= 1
        counts = sim.grid.counts
        assert (counts[~sim.grid.solid_mask()] <= 4).all()
        assert counts[sim.grid.solid_mask()].sum() == 0

    def test_plain_run_checks_the_applied_choice(self, monkeypatch):
        # every run is checked: a solve whose choice overfills a cell is
        # refused before the particles move
        monkeypatch.setattr(V, "solve_problem", overfill(V.solve_problem))
        sim = Simulation(small_scene())
        x0 = sim.particles.x.copy()
        with pytest.raises(IntegrityError, match="assignment violates correction constraints"):
            sim.step()
        assert np.array_equal(sim.particles.x, x0)

    @pytest.mark.parametrize("edit", [overfill, invalid_pick], ids=["overfill", "invalid_pick"])
    def test_refused_choice_leaves_a_replay_file(self, edit, tmp_path, monkeypatch, capsys):
        # the apply's check fails inside the correction, on an overfilled
        # cell or on a pick with no target alike, so the run writes the
        # problem, which the honest solve then certifies
        monkeypatch.setattr(V, "solve_problem", edit(V.solve_problem))
        with pytest.raises(IntegrityError, match="failed_problem.npz") as caught:
            run(small_scene(), tmp_path, render=False)
        assert "assignment violates correction constraints" in str(caught.value)
        monkeypatch.undo()
        assert cli.main(["oracle-check", str(tmp_path / "failed_problem.npz")]) == 0
        assert "OK: certified optimal" in capsys.readouterr().out

    def test_cost_bound_leaves_a_replay_file(self, tmp_path, monkeypatch, capsys):
        # a solid penalty that lifts n x the largest cost to 2^29 is refused
        # by the solve, and the run writes the problem, which oracle-check
        # refuses for the same bound
        from cellflow import solids as S
        monkeypatch.setattr(S, "build_solid_objective",
                            lambda grid, new_solid, lam: np.full(grid.ncells, 2.0 ** 29))
        cfg = small_scene(obstacles=[ObstacleConfig(Box((10, 12), (13, 14)),
                                                    velocity=(0.0, -2.0))])
        with pytest.raises(IntegrityError, match="failed_problem.npz") as caught:
            run(cfg, tmp_path, render=False)
        assert "reaches 2^29" in str(caught.value)
        problem = C.load_problem(np.load(tmp_path / "failed_problem.npz"))
        assert (problem.cost[problem.valid] == 2.0 ** 29).any()
        assert cli.main(["oracle-check", str(tmp_path / "failed_problem.npz")]) == 2
        assert "reaches 2^29" in capsys.readouterr().err

    @pytest.mark.parametrize("name", ["falling_obs", "compress"])
    def test_run_leaves_its_scene_record_as_it_was(self, name):
        # a free fall and a scripted press move their obstacles, not the config
        cfg = builtin_scene(name)
        before = scene_to_text(cfg)
        sim = Simulation(cfg)
        for _ in range(40):
            sim.step()
        assert not np.array_equal(sim.obstacles[0].pos, cfg.obstacles[0].box.lo)
        assert scene_to_text(cfg) == before

    def test_band_bookkeeping(self):
        sim = Simulation(small_scene(band=BandConfig(enabled=True, R=2), frames=8))
        total0 = sim.live_plus_deep()
        for _ in range(8):
            sim.step()
            assert sim.live_plus_deep() == total0
            assert sim.band.n_deep >= 0
            assert sim.band.last_s_in >= 0 and sim.band.last_s_out >= 0

    def test_band_with_descending_obstacle(self):
        # a box sinks into a band pool: flow-paths repairs the interface while
        # the correction problem carries the obstacle's solid penalty
        sim = Simulation(small_scene(
            fluids=[FluidRegion(Box((1, 1), (15, 9)))],
            obstacles=[ObstacleConfig(Box((6, 10), (9, 12)), velocity=(0.0, -3.0))],
            band=BandConfig(enabled=True, R=2), frames=10))
        total0 = sim.live_plus_deep()
        y0 = float(sim.obstacles[0].pos[1])
        moves = 0
        for _ in range(10):
            record = sim.step()
            moves += record.band["n_move"]
            counts = np.bincount(sim.grid.cell_of(sim.particles.x), minlength=sim.grid.ncells)
            assert (counts[~sim.grid.solid_mask()] <= 4).all()
            assert sim.live_plus_deep() == total0
            assert sim.band.last_s_in >= 0 and sim.band.last_s_out >= 0
            assert counts[sim.obstacles[0].occupied_flat(sim.grid)].sum() == 0
        assert float(sim.obstacles[0].pos[1]) < 9.0 < y0
        assert moves > 0

    def test_band_dam_keeps_emptied_interface_fluid(self):
        # band dam R=6 at seed 20: the collapse empties band-interface cells.
        # Marked empty, they would expose the deep cells behind them as
        # surface, and maintain_band could not absorb the deep region's loss.
        # Every frame's end state also checks that one set of band
        # classes serves the raster, the correction problem and the markings
        cfg = builtin_scene("dam")
        cfg.seed = 20
        cfg.band = BandConfig(enabled=True, R=6)
        sim = Simulation(cfg)
        total0 = sim.live_plus_deep()
        for _ in range(24):
            record = sim.step()
            assert sim.live_plus_deep() == total0
            assert sim.band.last_s_in >= 0 and sim.band.last_s_out >= 0
            assert_band_classes_agree(sim, record)

    def test_flow_paths_without_a_path_falls_back_to_exact_solve(self, monkeypatch):
        # flow-paths is a heuristic: it can find no path while the band row
        # is feasible, and the substep then solves the row-attached problem
        # exactly. Here the first repair that moves particles raises, after
        # editing the choice, as if it had found no path.
        correct_band_flow, solve_problem = B.correct_band_flow, V.solve_problem
        raised, exact_slacks = [], []

        def no_path_once(grid, problem, choice, classes, state):
            diag = correct_band_flow(grid, problem, choice, classes, state)
            if diag["n_move"] and not raised:
                raised.append(diag["n_move"])
                raise NoPathError("flow-paths found no path")
            return diag

        def solve(problem):
            choice, stats = solve_problem(problem)
            if problem.region.any():  # a flow run attaches the row after its plain solve
                exact_slacks.append(B.region_slack(problem, choice))
            return choice, stats

        monkeypatch.setattr(B, "correct_band_flow", no_path_once)
        monkeypatch.setattr(V, "solve_problem", solve)
        cfg = builtin_scene("dam")
        cfg.band = BandConfig(enabled=True, R=6)
        sim = Simulation(cfg)
        total0 = sim.live_plus_deep()
        for _ in range(10):
            sim.step()
            assert sim.live_plus_deep() == total0
            assert sim.band.last_s_in >= 0 and sim.band.last_s_out >= 0
        assert raised and len(exact_slacks) == 1
        s_in, s_out = exact_slacks[0]
        assert s_in >= 0 and s_out >= 0

    @pytest.mark.parametrize("scene, R, frames", [
        ("dam_emit", None, 53),  # the emitter starts at frame 50
        ("dam", 6, 8),
        ("falling_obs", None, 20),
    ], ids=["dam_emit", "band_dam", "falling_obs"])
    def test_no_stage_before_correct_writes_the_grid_state(self, monkeypatch, scene, R, frames):
        # the correction constrains against the previous step's markings,
        # depth and counts, which the grid holds until the markings stage:
        # build_problem must see them as they stood when the substep began
        at_start, checked = [], []
        substep, build_problem = Simulation._substep, C.build_problem

        def recorded_substep(sim, *args):
            at_start.append([a.copy() for a in (sim.grid.marking, sim.grid.depth,
                                                 sim.grid.counts)])
            substep(sim, *args)

        def checked_build_problem(cells, *args):
            seen = (cells.marking, cells.depth, cells.counts)
            assert all(np.array_equal(a, b) for a, b in zip(at_start[-1], seen))
            checked.append(len(at_start))
            return build_problem(cells, *args)

        monkeypatch.setattr(Simulation, "_substep", recorded_substep)
        monkeypatch.setattr(C, "build_problem", checked_build_problem)
        cfg = builtin_scene(scene)
        if R is not None:
            cfg.band = BandConfig(enabled=True, R=R)
        sim = Simulation(cfg)
        for _ in range(frames):
            sim.step()
        assert checked == list(range(1, len(at_start) + 1))  # once in every substep
        assert all(em.spawned > 0 for em in sim.emitters)

    def test_band_full_strategy_runs(self):
        # band dam R=6 at scene scale: the exact solve keeps the interface
        # balance in every substep, with no repair afterwards
        cfg = builtin_scene("dam")
        cfg.seed = 7
        cfg.band = BandConfig(enabled=True, R=6, strategy=BandStrategy.FULL)
        sim = Simulation(cfg)
        total0 = sim.live_plus_deep()
        for _ in range(20):
            record = sim.step()
            assert sim.live_plus_deep() == total0
            assert sim.band.last_s_in >= 0 and sim.band.last_s_out >= 0
            assert record.band["n_move"] == 0


class TestEmitter:
    def _cfg(self, rate=40.0, total=24, start=0.0):
        return small_scene(
            fluids=[FluidRegion(Box((1, 1), (15, 4)))],
            emitters=[EmitterConfig(Box((6, 12), (10, 14)), rate=rate,
                                    velocity=(0.0, -2.0), total=total, start=start)],
            frames=10)

    def test_rate_zero_emits_nothing(self):
        sim = Simulation(self._cfg(rate=0.0, total=None))
        n0 = sim.particles.n
        sim.step()
        assert sim.particles.n == n0

    def test_total_reached_exactly(self):
        sim = Simulation(self._cfg())
        n0 = sim.particles.n
        for _ in range(10):
            sim.step()
        assert sim.particles.n == n0 + 24
        assert sim.v_star == pytest.approx((n0 + 24) / 4)

    def test_start_delay(self):
        sim = Simulation(self._cfg(start=0.35))
        n0 = sim.particles.n
        sim.step()  # frame time 0.1 < start
        assert sim.particles.n == n0

    def test_blocked_spawn_deferred(self):
        cfg = small_scene(
            fluids=[FluidRegion(Box((1, 1), (15, 14)))],  # tank almost full
            emitters=[EmitterConfig(Box((6, 12), (8, 14)), rate=100.0,
                                    velocity=(0.0, 0.0), total=50)],
            frames=2)
        sim = Simulation(cfg)
        sim.step()
        assert sim.emitters[0].spawned < 50
        assert sim.emitters[0].deferred + sim.emitters[0].spawned >= 10


class TestVStarAccounting:
    def test_alt_measure_tracks_budget(self):
        sim = Simulation(small_scene(frames=6))
        for _ in range(6):
            rec = sim.step()
            assert rec.volume.filled == sim.total_budget  # exact integer match


class TestRunOutputs:
    def test_run_writes_files(self, tmp_path):
        cfg = small_scene(frames=2)
        out = tmp_path / "run"
        assert run(cfg, out, render=False) == 0
        assert (out / "manifest.txt").exists()
        assert (out / "volume.csv").exists()
        for i in range(3):
            assert (out / f"frame_{i:06d}.cprt").exists()
            assert (out / f"grid_{i:06d}.cgrd").exists()
        data = O.read_volume_csv(out / "volume.csv")
        assert len(data["step"]) == 3

    def test_zero_frames_writes_initial_only(self, tmp_path):
        cfg = small_scene(frames=0)
        out = tmp_path / "zero"
        run(cfg, out, render=False)
        assert (out / "frame_000000.cprt").exists()
        assert not (out / "frame_000001.cprt").exists()

    def test_particle_dump_round_trip(self, tmp_path):
        cfg = small_scene(frames=1)
        out = tmp_path / "rt"
        run(cfg, out, render=False)
        pos, vel = read_particle_dump(out / "frame_000001.cprt")
        assert pos.shape == vel.shape
        assert pos.shape[1] == 2
        assert len(pos) > 0

    def test_grid_raster_header(self, tmp_path):
        cfg = small_scene(frames=0)
        out = tmp_path / "hdr"
        run(cfg, out, render=False)
        raw = (out / "grid_000000.cgrd").read_bytes()
        assert raw[:4] == b"CGRD"
        assert len(raw) == 16 + 16 * 16

    def test_render_writes_ppm(self, tmp_path):
        cfg = small_scene(frames=1)
        out = tmp_path / "render"
        run(cfg, out, render=True)
        raw = (out / "frame_000001.ppm").read_bytes()
        assert raw.startswith(b"P6")

    def test_determinism_byte_identical(self, tmp_path):
        cfg = small_scene(frames=3)
        run(cfg, tmp_path / "a", render=False)
        run(cfg, tmp_path / "b", render=False)
        for i in range(4):
            fa = (tmp_path / "a" / f"frame_{i:06d}.cprt").read_bytes()
            fb = (tmp_path / "b" / f"frame_{i:06d}.cprt").read_bytes()
            assert fa == fb


class TestCompressScene:
    def test_obstacle_never_overlaps(self):
        cfg = builtin_scene("compress")
        cfg.frames = 12
        sim = Simulation(cfg)
        for _ in range(12):
            sim.step()
            occupied = sim.obstacles[0].occupied_flat(sim.grid)
            counts = np.bincount(sim.grid.cell_of(sim.particles.x),
                                 minlength=sim.grid.ncells)
            assert counts[occupied].sum() == 0


class Test3DSmoke:
    def test_tiny_3d_step(self):
        cfg = SceneConfig(name="cube", dims=(8, 8, 8), mu=2, frames=2,
                          gravity=(0.0, -9.8, 0.0),
                          fluids=[FluidRegion(Box((1, 1, 1), (7, 4, 7)))])
        sim = Simulation(cfg)
        for _ in range(2):
            rec = sim.step()
        assert rec.volume.percent >= 100.0 - 1e-9


STEP_IMPORTS = """
import sys
from cellflow.pipeline import Simulation
from cellflow.scene import builtin_scene
sim = Simulation(builtin_scene(sys.argv[1]))
before = set(sys.modules)
for _ in range(3):
    sim.step()
print(" ".join(sorted(set(sys.modules) - before)))
"""


@pytest.mark.parametrize("scene", ["falling_obs", "dam"])
def test_stepping_imports_no_module(scene):
    """Once the simulation is set up, stepping imports nothing: a module that
    the step path first imports (numpy.ma, which np.unique pulls in) costs
    its import time and memory inside a frame. A fresh process, since this
    one has imported everything already."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", STEP_IMPORTS, scene], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []
