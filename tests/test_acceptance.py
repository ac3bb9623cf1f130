"""Acceptance suite: one test per exit criterion, each printing a verdict.

The long runs (300-frame dam variants) are shared module-scoped fixtures;
every criterion asserts at its stated tolerance with nothing deferred.
"""
import time

import numpy as np
import pytest

import conftest
from conftest import random_band_instance, random_problem, read_particle_dump
from oracles import (brute_force_ilp, build_one_way, compute_io, gamma_io_masks,
                     objective_of, tu_sample_check, with_region)

from cellflow import band as B
from cellflow import correction as C
from cellflow import grid as G
from cellflow import solvers as V
from cellflow.errors import IntegrityError
from cellflow.pipeline import Simulation, run as run_scene
from cellflow.scene import BandConfig, builtin_scene
from test_band import fig_path_state


def check(num: int, ok: bool, description: str, detail: str = "") -> None:
    verdict = "PASS" if ok else "FAIL"
    line = f"criterion {num:02d} {verdict}: {description}"
    if detail:
        line += f" [{detail}]"
    conftest.ACCEPTANCE_RESULTS.append(line)
    assert ok, line


def collect_run(name: str, band_R: int | None = None, frames: int = 300,
                sample_per_cell: int = 10) -> dict:
    cfg = builtin_scene(name)
    cfg.frames = frames
    if band_R is not None:
        cfg.band = BandConfig(enabled=True, R=band_R)
    sim = Simulation(cfg)
    out = {
        "name": name, "mu": cfg.mu, "sim": sim, "frames": [],
        "frame_times": [], "max_cheb": 0, "max_manh": 0,
        "deep_credit_ok": True, "overlap_free": True,
        "initial_total": sim.live_plus_deep(),
    }
    for k in range(frames):
        t0 = time.perf_counter()
        rec = sim.step()
        out["frame_times"].append(time.perf_counter() - t0)
        counts = sim.grid.counts
        nonsolid = ~sim.grid.solid_mask()
        frame = {
            "percent": rec.volume.percent,
            "filled": rec.volume.filled,
            "budget": sim.total_budget,
            "live": sim.particles.n,
            "n_deep": sim.band.n_deep if sim.band else 0,
            "s_in": sim.band.last_s_in if sim.band else 0,
            "s_out": sim.band.last_s_out if sim.band else 0,
            "max_count": int(counts[nonsolid].max()) if nonsolid.any() else 0,
            "solid_count": int(counts[sim.grid.solid_mask()].sum()),
        }
        out["frames"].append(frame)
        out["max_cheb"] = max(out["max_cheb"], sim.last_checks.max_cheb_ideal)
        out["max_manh"] = max(out["max_manh"], sim.last_checks.max_manhattan_corrected)
        for obs in sim.obstacles:
            if counts[obs.occupied_flat(sim.grid)].sum() > 0:
                out["overlap_free"] = False
        if k % sample_per_cell == 0:
            rep = G.volume_report(sim.grid, cfg.mu, sim.v_star, per_cell=True)
            deep = sim.grid.fluid_mask() & (sim.grid.depth < -1)
            if deep.any() and not np.all(rep.per_cell[deep] == 1.0):
                out["deep_credit_ok"] = False
    return out


@pytest.fixture(scope="module")
def dam_run():
    return collect_run("dam", frames=300)


@pytest.fixture(scope="module")
def band_dam_run():
    return collect_run("dam", band_R=6, frames=300)


@pytest.fixture(scope="module")
def dam_1ppc_run():
    return collect_run("dam_1ppc", frames=300)


@pytest.fixture(scope="module")
def scene_sweep():
    runs = [collect_run(name, frames=40)
            for name in ("drop", "dam_emit", "spiral", "falling_obs", "large_falling_obs")]
    return runs


def test_criterion_01_strict_capacity(dam_run):
    mu = dam_run["mu"]
    worst = max(f["max_count"] for f in dam_run["frames"])
    solid = max(f["solid_count"] for f in dam_run["frames"])
    mean_time = float(np.mean(dam_run["frame_times"]))
    ok = worst <= mu and solid == 0 and mean_time < 2.0
    check(1, ok, "2D dam 300 frames: counts <= mu, solids empty, < 2 s/frame",
          f"max count {worst}/{mu}, solid {solid}, {mean_time:.3f} s/frame")


def test_criterion_02_alt_measure_exact(dam_run):
    devs = [abs(f["filled"] - f["budget"]) for f in dam_run["frames"]]
    ok = max(devs) == 0
    check(2, ok, "overflow-only volume measure equals the particle budget exactly",
          f"max deviation {max(devs)} particles")


def test_criterion_03_one_ppc_exact(dam_1ppc_run):
    percents = [f["percent"] for f in dam_1ppc_run["frames"]]
    ok = all(p == 100.0 for p in percents)
    check(3, ok, "1 ppc dam: volume percent exactly 100.0 at every step",
          f"range {min(percents)}..{max(percents)}")


def test_criterion_04_volume_lower_bound(dam_run, band_dam_run, dam_1ppc_run, scene_sweep):
    runs = [dam_run, band_dam_run, dam_1ppc_run] + scene_sweep
    worst = min(min(f["percent"] for f in r["frames"]) for r in runs)
    credit_ok = all(r["deep_credit_ok"] for r in runs)
    cap_ok = all(f["max_count"] <= r["mu"] for r in runs for f in r["frames"])
    ok = worst >= 100.0 - 1e-9 and credit_ok and cap_ok
    check(4, ok, "every scene: percent >= 100, slack only at surface, no compression",
          f"min percent {worst:.9f}")


def test_criterion_05_lp_ilp_equivalence():
    rng = np.random.default_rng(5005)
    t0 = time.perf_counter()
    worst_gap = 0.0
    count = 0
    while count < 200:
        problem, grid, particles = random_problem(
            rng, dims=(6, 6) if count % 2 else (7, 7), n_max=12)
        assignment, stats = V.solve_problem(problem)
        problem.check_feasible(assignment)
        oracle_a, oracle_obj = brute_force_ilp(problem)
        problem.check_feasible(oracle_a)
        worst_gap = max(worst_gap, abs(stats.objective - oracle_obj))
        count += 1
    elapsed = time.perf_counter() - t0
    ok = worst_gap < 1e-9 and elapsed < 60.0
    check(5, ok, "flow solver matches brute force on 200 random instances",
          f"worst gap {worst_gap:.2e}, {elapsed:.1f} s")


def test_criterion_06_tu_sampling():
    rng = np.random.default_rng(6006)
    trials_per_instance = 50
    all_ok = True
    for _ in range(10):
        problem, grid, particles = random_problem(rng, dims=(7, 7), n_max=10)
        if not tu_sample_check(problem, trials=trials_per_instance, max_k=7, rng=rng):
            all_ok = False
    check(6, all_ok, "500 sampled minors of 10 instances all have det in {-1,0,1}")


def test_criterion_07_band_bookkeeping(band_dam_run):
    frames = band_dam_run["frames"]
    s_ok = all(f["s_in"] >= 0 and f["s_out"] >= 0 for f in frames)
    deep_ok = all(f["n_deep"] >= 0 for f in frames)
    conserved = all(f["live"] + f["n_deep"] == band_dam_run["initial_total"] for f in frames)
    ok = s_ok and deep_ok and conserved
    check(7, ok, "band dam R=6: slacks nonnegative, live+deep conserved 300 frames",
          f"final deep {frames[-1]['n_deep']}")


def test_criterion_08_fig_path_reproduction():
    grid, particles, state, x_ideal = fig_path_state()
    table = C.build_candidates(particles.x, x_ideal, grid)
    cls = G.band_classes(grid, state.R)
    problem = C.build_problem(grid, table, mu=1, classes=cls)
    in_mask, out_mask = gamma_io_masks(problem, particles.x, grid, cls)
    assignment, _ = V.solve_problem(problem)
    n_in, n_out, s_in, s_out = compute_io(assignment, in_mask, out_mask,
                                          state.alpha_le)
    first_ok = (n_in, n_out, s_in, s_out) == (1, 0, -1, 1)
    diag = B.correct_band_flow(grid, problem, assignment, cls, state)
    C.apply_solution(problem, assignment, particles, x_ideal)
    flow_ok = diag["n_move"] == 1 and diag["s_in"] == 0
    check(8, first_ok and flow_ok,
          "hand-built band instance: n_in=1, n_out=0, s_in=-1, s_out=1, one path restores",
          f"paths applied {diag['n_move']}, find calls {diag['find_calls']}")


def test_criterion_09_oneway_vs_flowpaths():
    """The one-way problem freezes the lighter direction of the first solve's
    interface crossings and keeps exactly n_out + alpha (draining) or n_in
    (refilling) of the heavy side's, as a region count pinned to F + alpha or
    F. Flow-paths crosses the interface only by returning a heavy-side
    crosser to its previous-step cell, so every applied path reverts exactly
    one heavy-side crossing and never touches the lighter direction; its
    result therefore lies in the one-way feasible set, and the exact one-way
    optimum can cost no more. The other half, full-band-row optimum <= both,
    is asserted on the same instances. Both exact optima come from brute
    force.
    """
    rng = np.random.default_rng(9009)
    corrected = 0
    attempts = 0
    violations = []
    while corrected < 50 and attempts < 4000:
        attempts += 1
        inst = random_band_instance(rng)
        if inst is None:
            continue
        grid, particles, state, x_ideal = inst
        table = C.build_candidates(particles.x, x_ideal, grid)
        cls = G.band_classes(grid, state.R)
        problem = C.build_problem(grid, table, mu=1, classes=cls)
        in_mask, out_mask = gamma_io_masks(problem, particles.x, grid, cls)
        assignment, _ = V.solve_problem(problem)
        n_in, n_out, s_in, s_out = compute_io(assignment, in_mask, out_mask,
                                              state.alpha_le)
        if s_in >= 0 and s_out >= 0:
            continue
        full_row = with_region(problem, grid, state.R, state.alpha_le)
        constrained = build_one_way(full_row, assignment, in_mask, out_mask,
                                    state.alpha_le)
        fixed, oneway_obj = brute_force_ilp(constrained)
        io_fixed = compute_io(fixed, in_mask, out_mask, state.alpha_le)
        assert io_fixed[2] >= 0 and io_fixed[3] >= 0

        _, full_obj = brute_force_ilp(full_row)

        diag = B.correct_band_flow(grid, problem, assignment, cls, state)
        C.apply_solution(problem, assignment, particles, x_ideal)
        assert diag["s_in"] >= 0 and diag["s_out"] >= 0
        # the particles moved by the choice's unrounded costs; brute force
        # optimises the problems' costs, rounded to multiples of 2^-24
        moved = float(((particles.x - x_ideal) ** 2).sum())
        assert abs(moved - float(table.cost[assignment, np.arange(problem.n)].sum())) < 1e-9
        flow_obj = objective_of(problem, assignment)
        # sound direction: the flow result is feasible for the full band row
        assert full_obj <= flow_obj + 1e-9
        assert full_obj <= oneway_obj + 1e-9
        if oneway_obj > flow_obj + 1e-9:
            violations.append((oneway_obj, flow_obj))
        corrected += 1
    ok = corrected >= 50 and not violations
    check(9, ok, "one-way exact optimum <= flow-paths cost on 50 corrected toys",
          f"{corrected} corrected, {len(violations)} counterexamples where flow "
          f"uses an out-move the one-way rows forbid; full-row optimum <= both held")


def test_criterion_10_compress_scene():
    cfg = builtin_scene("compress")
    cfg.frames = 220
    sim = Simulation(cfg)
    mu = cfg.mu
    overlap_free = True
    positions = []
    for _ in range(cfg.frames):
        sim.step()
        obs = sim.obstacles[0]
        positions.append(float(obs.pos[1]))
        counts = sim.grid.counts
        if counts[obs.occupied_flat(sim.grid)].sum() > 0:
            overlap_free = False
    held = len({round(p, 9) for p in positions[-30:]}) == 1
    fluid = sim.grid.fluid_mask()
    inner = fluid & (sim.grid.marking == G.INNER)
    inner_exact = bool((sim.grid.counts[inner] == mu).all())
    descended = positions[-1] < positions[0] - 20
    ok = overlap_free and held and inner_exact and descended
    check(10, ok, "compress: obstacle packs the fluid to mu everywhere, then holds",
          f"final y {positions[-1]:.2f}, inner cells exact {inner_exact}")


def test_criterion_11_zero_bc_falling_obstacle():
    cfg = builtin_scene("falling_obs_zero_bc")
    cfg.frames = 300
    sim = Simulation(cfg)
    overlap_free = True
    reached_at = None
    for k in range(cfg.frames):
        sim.step()
        obs = sim.obstacles[0]
        counts = sim.grid.counts
        if counts[obs.occupied_flat(sim.grid)].sum() > 0:
            overlap_free = False
        # the tank floor is interior row 1: reaching it means the obstacle's
        # voxel occupancy includes that row (the wall blocks anything lower)
        if reached_at is None and int(np.floor(obs.pos[1] + 1e-9)) <= 1:
            reached_at = k + 1
    ok = overlap_free and reached_at is not None
    check(11, ok, "zero-BC obstacle reaches the tank floor with no overlaps",
          f"floor row reached at frame {reached_at}, final y {float(sim.obstacles[0].pos[1]):.2f}")


def test_criterion_12_locality(dam_run, band_dam_run, dam_1ppc_run, scene_sweep):
    runs = [dam_run, band_dam_run, dam_1ppc_run] + scene_sweep
    cheb = max(r["max_cheb"] for r in runs)
    manh = max(r["max_manh"] for r in runs)
    ok = cheb <= 1 and manh <= 1
    check(12, ok, "advection within Moore 1, correction within von Neumann 1",
          f"max Chebyshev {cheb}, max Manhattan {manh}")


def test_criterion_13_determinism(tmp_path):
    identical = True
    for name in ("dam", "falling_obs_zero_bc"):
        cfg = builtin_scene(name)
        cfg.frames = 10
        run_scene(cfg, tmp_path / f"{name}_a", render=False)
        cfg2 = builtin_scene(name)
        cfg2.frames = 10
        run_scene(cfg2, tmp_path / f"{name}_b", render=False)
        for i in range(11):
            fa = (tmp_path / f"{name}_a" / f"frame_{i:06d}.cprt").read_bytes()
            fb = (tmp_path / f"{name}_b" / f"frame_{i:06d}.cprt").read_bytes()
            if fa != fb:
                identical = False
    check(13, identical, "same seed reruns produce byte-identical particle dumps")
