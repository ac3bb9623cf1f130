"""Command-line interface: run, oracle-check, volume; the comparison scripts."""
import importlib.util
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cellflow import cli
from cellflow import correction as C
from cellflow import grid as G
from cellflow import solvers as V
from cellflow.band import BandStrategy
from cellflow.scene import (BandConfig, Box, FluidRegion, SceneConfig, scene_to_text,
                             builtin_scene)

from conftest import random_band_instance, random_problem
from oracles import with_region


def test_run_builtin(tmp_path, capsys):
    out = tmp_path / "mini"
    code = cli.main(["run", "dam", "--out", str(out), "--frames", "2", "--seed", "3"])
    assert code == 0
    assert (out / "volume.csv").exists()
    assert (out / "frame_000002.cprt").exists()
    assert "run complete" in capsys.readouterr().out


def test_run_config_file(tmp_path):
    cfg = SceneConfig(name="tiny", dims=(20, 20), mu=2, frames=1,
                      fluids=[FluidRegion(Box((1, 1), (10, 8)))])
    path = tmp_path / "tiny.scene"
    path.write_text(scene_to_text(cfg), encoding="utf-8")
    code = cli.main(["run", str(path), "--out", str(tmp_path / "out")])
    assert code == 0


def test_run_band_flags(tmp_path):
    code = cli.main(["run", "dam", "--out", str(tmp_path / "b"), "--frames", "1",
                     "--band", "3", "--strategy", "flow"])
    assert code == 0


def test_run_unknown_scene(tmp_path, capsys):
    code = cli.main(["run", "nope", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_oracle_check_ok(tmp_path, rng, capsys):
    problem, grid, particles = random_problem(rng, n_max=6)
    dump = tmp_path / "problem.txt"
    dump.write_text(C.dump_problem(problem), encoding="utf-8")
    code = cli.main(["oracle-check", str(dump)])
    out = capsys.readouterr().out
    assert code == 0
    assert "OK" in out


def test_band_problem_dump_round_trip(tmp_path, capsys):
    # a toy band problem keeps its region and bounds through the dump, and
    # oracle-check solves that constrained problem
    rng = np.random.default_rng(4242)
    while True:
        inst = random_band_instance(rng)
        if inst is None:
            continue
        grid, particles, state = inst
        plain = C.build_problem(grid, C.build_candidates(particles, grid), mu=1,
                                classes=G.band_classes(grid.prev, state.R))
        problem = with_region(plain, grid, state.R, state.alpha_le)
        if V.solve_problem(problem)[1].objective > V.solve_problem(plain)[1].objective + 1e-9:
            break  # the region binds
    text = C.dump_problem(problem)
    loaded = C.load_problem(text)
    assert np.array_equal(loaded.region, problem.region)
    assert loaded.region_bounds == problem.region_bounds
    assert C.dump_problem(loaded) == text
    assert "region" not in C.dump_problem(plain)
    assert C.load_problem(C.dump_problem(plain)).region is None
    dump = tmp_path / "band.txt"
    dump.write_text(text, encoding="utf-8")
    assert cli.main(["oracle-check", str(dump)]) == 0
    out = capsys.readouterr().out
    assert "OK" in out and f"objective {V.solve_problem(problem)[1].objective:.9f}" in out


def test_oracle_check_large_instance(tmp_path, capsys):
    rng = np.random.default_rng(99)
    problem = None
    while problem is None or problem.n < 7:
        problem, grid, particles = random_problem(rng, dims=(10, 10), n_max=10)
    # widen beyond the brute-force limit by doubling particles
    import cellflow.correction as CC
    t = problem.candidates
    wide = CC.CandidateTable(
        xi=np.concatenate([t.xi, t.xi], axis=1),
        cost=np.concatenate([t.cost, t.cost], axis=1),
        target_flat=np.concatenate([t.target_flat, t.target_flat], axis=1),
        valid=np.concatenate([t.valid, t.valid], axis=1),
        dirs=t.dirs)
    big = CC.CorrectionProblem(
        candidates=wide, mu=problem.mu,
        cap=np.where(problem.cap >= 0, problem.cap * 2, problem.cap),
        floor=problem.floor * 2,
        cost=np.concatenate([problem.cost, problem.cost], axis=1), dims=problem.dims)
    dump = tmp_path / "big.txt"
    dump.write_text(C.dump_problem(big), encoding="utf-8")
    code = cli.main(["oracle-check", str(dump)])
    assert code == 0
    assert "too large for brute force" in capsys.readouterr().out


def _replay_third_solve(tmp_path, monkeypatch, capsys, cfg):
    """Run ``cfg`` with its third flow solve failing: the run writes that
    problem as its replay file, which oracle-check then solves. Returns the
    failed problem."""
    from cellflow.errors import IntegrityError
    path = tmp_path / "tiny.scene"
    path.write_text(scene_to_text(cfg), encoding="utf-8")
    solve, seen = V.solve_problem, []

    def fail_third(problem):
        seen.append(problem)
        if len(seen) == 3:
            raise IntegrityError("injected")
        return solve(problem)

    monkeypatch.setattr(V, "solve_problem", fail_third)
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    step = len(list(out.glob("frame_*.cprt")))  # frames 0 .. step - 1 were written
    assert f"seed {cfg.seed}, step {step}: injected" in err
    replay = out / "failed_problem.txt"
    assert replay.read_text(encoding="utf-8") == C.dump_problem(seen[2])
    assert seen[2].n <= 12  # small enough for oracle-check's brute force
    monkeypatch.undo()
    assert cli.main(["oracle-check", str(replay)]) == 0
    assert "OK" in capsys.readouterr().out
    return seen[2]


def test_run_writes_replay_on_solver_failure(tmp_path, monkeypatch, capsys):
    cfg = SceneConfig(name="tiny", dims=(8, 8), mu=2, frames=4, seed=5,
                      fluids=[FluidRegion(Box((1, 1), (4, 3)))])
    _replay_third_solve(tmp_path, monkeypatch, capsys, cfg)


def test_full_band_replay_carries_region(tmp_path, monkeypatch, capsys):
    # a failed full-strategy solve replays against the same constrained problem
    cfg = SceneConfig(name="tiny", dims=(8, 8), mu=1, frames=4, seed=5,
                      fluids=[FluidRegion(Box((1, 1), (4, 5)))],
                      band=BandConfig(enabled=True, R=1, strategy=BandStrategy.FULL))
    problem = _replay_third_solve(tmp_path, monkeypatch, capsys, cfg)
    assert problem.region is not None
    assert C.load_problem(C.dump_problem(problem)).region_bounds == problem.region_bounds


def test_volume_summary(tmp_path, capsys):
    out = tmp_path / "v"
    cli.main(["run", "dam", "--out", str(out), "--frames", "2"])
    capsys.readouterr()
    code = cli.main(["volume", str(out)])
    text = capsys.readouterr().out
    assert code == 0
    assert "volume percent range" in text
    assert "100.00" in text


def test_compare_objectives_script(tmp_path, monkeypatch, capsys):
    """scripts/compare_objectives.py records every problem of a run with its
    solver work; the same solver re-solving them, here three times over,
    gives no gap, identical choices, the same work per solve and the fastest
    pass's CPU time. A recording without a counter prints it as -, and a
    doctored objective makes it exit 1."""
    import importlib.util

    path = Path(__file__).resolve().parent.parent / "scripts" / "compare_objectives.py"
    spec = importlib.util.spec_from_file_location("compare_objectives", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    scene = tmp_path / "tiny.scene"
    scene.write_text(scene_to_text(SceneConfig(
        name="tiny", dims=(20, 20), mu=2, frames=1,
        fluids=[FluidRegion(Box((1, 1), (10, 8)))])), encoding="utf-8")
    a, b = tmp_path / "a.npz", tmp_path / "b.npz"

    def run(*argv):
        monkeypatch.setattr(sys, "argv", ["compare_objectives.py", *argv])
        return script.main()

    assert run("--scene", str(scene), "--frames", "2", "--out", str(a)) == 0
    recorded = dict(np.load(a))
    assert len(recorded["objective"]) > 0
    assert recorded["pops"].sum() > 0
    assert recorded["scans"].sum() >= recorded["tables"].sum() > 0
    assert run("--against", str(a), "--out", str(b), "--repeat", "3") == 0
    out = capsys.readouterr().out
    assert "largest relative objective gap 0," in out
    assert "(100%)" in out
    assert re.search(r"CPU per solve_mcf, fastest of 3 passes: \d+\.\d\d ms", out)
    per = len(recorded["objective"])
    for name in ("searches", "drains", "pops", "scans", "tables"):
        assert len(recorded[name]) == per
        mean = f"{recorded[name].sum() / per:.1f}"
        assert f"{name} {mean} -> {mean}" in out

    del recorded["tables"]
    np.savez(a, **recorded)
    assert run("--against", str(a), "--out", str(b)) == 0
    mean = f"{np.load(b)['tables'].sum() / per:.1f}"
    assert f"tables - -> {mean}" in capsys.readouterr().out

    recorded["objective"] = recorded["objective"] * 1.01
    np.savez(a, **recorded)
    assert run("--against", str(a), "--out", str(b)) == 1


def test_compare_dumps_script(tmp_path, monkeypatch):
    """The same tree twice writes identical dumps; two seeds make them differ.
    --band and --strategy reach ``cellflow run``, and a band run with the
    full strategy compares the same way."""
    root = Path(__file__).resolve().parents[1]
    scene = tmp_path / "tiny.scene"
    scene.write_text(scene_to_text(SceneConfig(
        name="tiny", dims=(12, 12), mu=2, frames=1,
        fluids=[FluidRegion(Box((1, 1), (6, 8)))])), encoding="utf-8")

    def run(*seeds, extra=()):
        return subprocess.run(
            [sys.executable, str(root / "scripts" / "compare_dumps.py"), str(root), str(root),
             "--scenes", f"{scene},{scene}", "--frames", "2", "--seed", *seeds, *extra],
            capture_output=True, text=True)

    same = run("3")
    assert same.returncode == 0, same.stderr
    assert same.stdout.splitlines() == [f"{scene}: identical"] * 2
    differ = run("3", "4")
    assert differ.returncode == 1, differ.stderr
    assert f"{scene}: differ at frame_000000.cprt" in differ.stdout
    full = run("3", extra=("--band", "2", "--strategy", "full"))
    assert full.returncode == 0, full.stderr
    assert full.stdout.splitlines() == [f"{scene}: identical"] * 2

    spec = importlib.util.spec_from_file_location("compare_dumps", root / "scripts" / "compare_dumps.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    commands = []
    monkeypatch.setattr(script.subprocess, "run",
                        lambda cmd, **kw: commands.append(cmd) or subprocess.CompletedProcess(cmd, 0))
    script.run(root, "dam", tmp_path / "out", 2, 3, 2, "full")
    script.run(root, "dam", tmp_path / "out", 2, 3, None, None)
    assert commands[0][-4:] == ["--band", "2", "--strategy", "full"]
    assert "--band" not in commands[1] and "--strategy" not in commands[1]
