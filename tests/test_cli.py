"""Command-line interface: run, oracle-check, volume; the comparison scripts."""
import importlib.util
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cellflow import band as B
from cellflow import cli
from cellflow import correction as C
from cellflow import grid as G
from cellflow import solvers as V
from cellflow.scene import BandStrategy
from cellflow.outputs import VOLUME_COLUMNS
from cellflow.scene import (BandConfig, Box, FluidRegion, SceneConfig, scene_to_text,
                             builtin_scene)

from conftest import assert_same_problem, random_band_instance, random_problem, replayed
from oracles import BRUTE_FORCE_LIMIT, with_region


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
    # --band and --strategy each turn the band on; the other keeps the
    # scene's value (dam: R = 3, flow-paths)
    cases = [(["--band", "3", "--strategy", "flow"], "R = 3\nstrategy = flow"),
             (["--band", "3", "--strategy", "full"], "R = 3\nstrategy = full"),
             (["--strategy", "full"], "R = 3\nstrategy = full"),
             (["--band", "5"], "R = 5\nstrategy = flow")]
    for k, (flags, band) in enumerate(cases):
        out = tmp_path / f"b{k}"
        code = cli.main(["run", "dam", "--out", str(out), "--frames", "1", *flags])
        assert code == 0
        manifest = (out / "manifest.txt").read_text(encoding="utf-8")
        assert f"[band]\nenabled = true\n{band}\n" in manifest


def test_run_unknown_scene(tmp_path, capsys):
    code = cli.main(["run", "nope", "--out", str(tmp_path / "x")])
    assert code == 2
    assert "error" in capsys.readouterr().err


def assert_input_error(argv, capsys, *names):
    """The command exits 2 with one 'error:' line naming each of names."""
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err and all(name in err for name in names), err


def test_run_uncreatable_out(tmp_path, capsys):
    (tmp_path / "file").write_text("", encoding="utf-8")
    out = tmp_path / "file" / "x"  # a directory under a regular file
    assert_input_error(["run", "dam", "--out", str(out), "--frames", "1"], capsys, str(out))


def test_run_negative_seed(tmp_path, capsys):
    assert_input_error(["run", "dam", "--out", str(tmp_path / "o"), "--frames", "1",
                        "--seed", "-1"], capsys, "seed must be >= 0")


def test_run_negative_max_speed(tmp_path, capsys):
    path = tmp_path / "fast.scene"
    path.write_text("version = 1\ndims = 10 10\nmax_speed = -1\n", encoding="utf-8")
    assert_input_error(["run", str(path), "--out", str(tmp_path / "o"), "--frames", "1"],
                       capsys, "max_speed must be positive")


@pytest.mark.parametrize("text, message", [
    ("gravity = nan -9.8\n", "gravity must be finite"),
    ("[obstacle]\nbox = 6 6 8 8\nvelocity = nan 0\n", "obstacle velocity must be finite"),
    ("[fluid]\nbox = 1 1 nan 5\n", "fluid box must be finite"),
], ids=["gravity", "obstacle_velocity", "fluid_box"])
def test_run_non_finite_input(tmp_path, capsys, text, message):
    path = tmp_path / "nan.scene"
    path.write_text("version = 1\ndims = 10 10\n" + text, encoding="utf-8")
    assert_input_error(["run", str(path), "--out", str(tmp_path / "o"), "--frames", "1"],
                       capsys, message)


def test_run_obstacle_on_wall_layer(tmp_path, capsys):
    # such an obstacle could never move: every proposal claims a wall cell
    path = tmp_path / "stuck.scene"
    path.write_text("version = 1\ndims = 20 20\n[obstacle]\nbox = 0 12 6 16\n"
                    "velocity = 0 -2\n", encoding="utf-8")
    assert_input_error(["run", str(path), "--out", str(tmp_path / "o"), "--frames", "5"],
                       capsys, "obstacle box (0.0, 12.0)..(6.0, 16.0) leaves the non-wall domain")


def test_run_emitter_only_scene(tmp_path, capsys):
    # the budget is 0 until the first emission; such a frame reads 100%
    path = tmp_path / "emit_only.scene"
    path.write_text("version = 1\nname = emit_only\ndims = 20 20\nframes = 3\n[emitter]\n"
                    "box = 8 15 12 17\nrate = 40\nvelocity = 0 -2\n", encoding="utf-8")
    out = tmp_path / "o"
    assert cli.main(["run", str(path), "--out", str(out), "--frames", "10"]) == 0
    rows = (out / "volume.csv").read_text(encoding="utf-8").splitlines()
    assert len(rows) == 12 and rows[1].startswith("0,0.0,100.0,100.0,")
    capsys.readouterr()
    assert cli.main(["volume", str(out)]) == 0
    assert "frames: 11" in capsys.readouterr().out


def test_run_render_3d_refused_before_writing(tmp_path, capsys):
    out = tmp_path / "o"
    scene = Path(__file__).resolve().parent.parent / "scripts" / "scenes" / "obstacle3d.scene"
    assert_input_error(["run", str(scene), "--out", str(out), "--frames", "1", "--render"],
                       capsys, "rendering supports 2D scenes only")
    assert not out.exists()


@pytest.mark.parametrize("log, where", [
    (None, "volume.csv"),
    ("1,100.0,100.0\n", "line 2: malformed row"),
    ("", "no frames"),
], ids=["missing_dir", "short_row", "no_rows"])
def test_volume_bad_log(tmp_path, capsys, log, where):
    if log is not None:
        (tmp_path / "volume.csv").write_text(VOLUME_COLUMNS + "\n" + log, encoding="utf-8")
    run_dir = tmp_path if log is not None else tmp_path / "nope"
    assert_input_error(["volume", str(run_dir)], capsys, where)


def test_oracle_check_missing_file(tmp_path, capsys):
    assert_input_error(["oracle-check", str(tmp_path / "nope.npz")], capsys, "nope.npz")


def put(array, index, value):
    """A copy of ``array`` with ``value`` at ``index``."""
    array = array.copy()
    array[index] = value
    return array


@pytest.mark.parametrize("edit, where", [
    (lambda a: {"target_flat": put(a["target_flat"], (-1, 0), 10**6)},
     "array 'target_flat' index (4, 0): a target off the grid, got 1000000"),
    (lambda a: {"dims": np.array([3, -3])}, "array 'dims' index 1: a grid size below 1, got -3"),
    (lambda a: {"target_flat": a["target_flat"][:, 1:]}, "array 'target_flat' has shape (5, "),
    (lambda a: {"target_flat": a["target_flat"][1:]}, "array 'target_flat' has shape (4, "),
    (lambda a: {"cost": np.zeros((9,) + a["cost"].shape[1:])}, "array 'cost' has shape (9, "),
    (lambda a: {"target_flat": put(a["target_flat"], (-1, 0), -2)},
     "array 'target_flat' index (4, 0): a target off the grid, got -2"),
    (lambda a: {"cap": put(a["cap"], 8, -2)},
     "array 'cap' index 8: a cap below 0, got -2"),
    (lambda a: {"cost": put(a["cost"], (-1, 0), np.nan)},
     "array 'cost' index (4, 0): a valid candidate's cost must be finite, got nan"),
    (lambda a: {"cost": put(a["cost"], (-1, 0), np.inf)},
     "array 'cost' index (4, 0): a valid candidate's cost must be finite, got inf"),
    (lambda a: {"cost": put(a["cost"], (-1, 0), -np.inf)},
     "array 'cost' index (4, 0): a valid candidate's cost must be finite, got -inf"),
    (lambda a: {"cost": put(a["cost"], (-1, 0), 0.1)},
     "array 'cost' index (4, 0): a valid candidate's cost must be a multiple of 2^-24, got 0.1"),
    (lambda a: {"floor": put(a["floor"], 8, -3)}, "array 'floor' index 8: a floor below 0, got -3"),
    (lambda a: {"cap": put(a["cap"], 8, 1), "floor": put(a["floor"], 8, 5)},
     "array 'floor' index 8: a floor above its cap, got 5"),
    (lambda a: {"region_bounds": np.array([3, 1])},
     "array 'region_bounds' is an empty interval [3, 1]"),
    (lambda a: {"cap": put(a["cap"], 0, 1), "floor": put(a["floor"], 0, 1),
                "region": put(np.zeros(len(a["cap"]), dtype=bool), 0, True),
                "region_bounds": np.array([0, 5])},
     "array 'region' index 0: a region cell with a floor, got 1"),
    (lambda a: {"cap": None}, "no array 'cap'"),
    (lambda a: {"region_bounds": None}, "no array 'region_bounds'"),
    (lambda a: {"region": None}, "no array 'region'"),
    (lambda a: {"cap": a["cap"].astype(np.float64)}, "array 'cap' must hold int64, got float64"),
    (lambda a: {"cap": put(a["cap"], 8, -1)}, "array 'cap' index 8: a cap below 0, got -1"),
    (lambda a: {"region": None, "region_bounds": None}, "no array 'region'"),
], ids=["particle_out_of_range", "negative_dims", "negative_n", "negative_m", "m_not_2d_plus_1",
        "target_below_minus_one", "cap_below_minus_one", "cost_nan", "cost_inf", "cost_minus_inf",
        "cost_not_dyadic", "floor_negative", "floor_above_cap", "empty_region", "floored_region_cell", "no_cap",
        "region_without_bounds", "bounds_without_region", "cap_as_floats", "cap_minus_one",
        "no_band_row"])
def test_oracle_check_malformed_dump(tmp_path, rng, capsys, edit, where):
    # each edit of a sound problem's arrays is refused, naming the array
    problem, _, _ = random_problem(rng, n_max=6)
    arrays = C.dump_problem(problem)
    arrays.update(edit(arrays))
    dump = tmp_path / "bad.npz"
    np.savez(dump, **{key: a for key, a in arrays.items() if a is not None})
    assert_input_error(["oracle-check", str(dump)], capsys, "bad.npz", where)


@pytest.mark.parametrize("kind", ["text", "bare_npy", "empty"])
def test_oracle_check_not_an_archive(tmp_path, capsys, kind):
    dump = tmp_path / "problem.npz"
    if kind == "bare_npy":
        with open(dump, "wb") as fh:  # a path would gain the suffix .npy
            np.save(fh, np.arange(3))
    else:
        dump.write_text("xi = 1\n" if kind == "text" else "", encoding="utf-8")
    assert_input_error(["oracle-check", str(dump)], capsys, "problem.npz", "not a .npz archive")


@pytest.mark.parametrize("command", ["run", "volume", "oracle-check"])
def test_non_utf8_file_is_refused(tmp_path, capsys, command):
    # 300 bytes that no UTF-8 reader accepts: the file is named, not traced
    path = tmp_path / {"run": "junk.scene", "volume": "volume.csv"}.get(command, "junk.npz")
    path.write_bytes(b"\x80" + np.random.default_rng(300).bytes(299))
    argv = {"run": ["run", str(path), "--out", str(tmp_path / "o")],
            "volume": ["volume", str(tmp_path)]}.get(command, ["oracle-check", str(path)])
    assert_input_error(argv, capsys, path.name)


def test_oracle_check_ok(tmp_path, rng, capsys):
    problem, grid, particles = random_problem(rng, n_max=6)
    dump = tmp_path / "problem.npz"
    np.savez(dump, **C.dump_problem(problem))
    code = cli.main(["oracle-check", str(dump)])
    out = capsys.readouterr().out
    assert code == 0
    assert "OK" in out


def test_band_problem_dump_round_trip(tmp_path, capsys):
    # a toy band problem keeps every field, region and bounds included,
    # through its replay file, and oracle-check solves that constrained problem
    rng = np.random.default_rng(4242)
    while True:
        inst = random_band_instance(rng)
        if inst is None:
            continue
        grid, particles, state, x_ideal = inst
        plain = C.build_problem(grid, C.build_candidates(particles.x, x_ideal, grid), mu=1,
                                classes=G.band_classes(grid, state.R))
        problem = with_region(plain, grid, state.R, state.alpha_le)
        if V.solve_problem(problem)[1].objective > V.solve_problem(plain)[1].objective + 1e-9:
            break  # the region binds
    dump = tmp_path / "band.npz"
    assert_same_problem(replayed(problem, dump), problem)
    assert not C.dump_problem(plain)["region"].any()
    assert_same_problem(replayed(plain, tmp_path / "plain.npz"), plain)
    assert cli.main(["oracle-check", str(dump)]) == 0
    out = capsys.readouterr().out
    assert "OK" in out and f"objective {V.solve_problem(problem)[1].objective:.9f}" in out


def test_oracle_check_large_instance(tmp_path, capsys):
    rng = np.random.default_rng(99)
    problem = None
    while problem is None or problem.n < 7:
        problem, grid, particles = random_problem(rng, dims=(10, 10), n_max=10)
    # widen beyond the brute-force oracle's limit by doubling particles
    big = replace(problem, cap=problem.cap * 2, floor=problem.floor * 2,
                  **{key: np.concatenate([getattr(problem, key)] * 2, axis=1)
                     for key in ("cost", "target_flat")})
    dump = tmp_path / "big.npz"
    np.savez(dump, **C.dump_problem(big))
    code = cli.main(["oracle-check", str(dump)])
    assert code == 0
    assert f"OK: certified optimal (n={big.n};" in capsys.readouterr().out


def _replay_third_solve(tmp_path, monkeypatch, capsys, cfg):
    """Run ``cfg`` with its third flow solve failing: the run writes that
    problem as its replay file, which oracle-check then solves. Returns the
    problem read back from that file."""
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
    replay = out / "failed_problem.npz"
    problem = C.load_problem(np.load(replay))
    assert_same_problem(problem, seen[2])
    assert problem.n <= 12  # a toy problem
    monkeypatch.undo()
    assert cli.main(["oracle-check", str(replay)]) == 0
    assert "OK" in capsys.readouterr().out
    return problem


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
    assert problem.region.any()


def test_flow_paths_failure_writes_replay(tmp_path, monkeypatch, capsys):
    # a flow-paths repair that fails (other than by finding no path, which
    # falls back to the exact solve) leaves its problem, band row included,
    # and oracle-check replays it against the exact row
    from cellflow.errors import IntegrityError
    cfg = SceneConfig(name="tiny", dims=(8, 8), mu=1, frames=4, seed=11,
                      fluids=[FluidRegion(Box((1, 1), (4, 5)))],
                      band=BandConfig(enabled=True, R=1, strategy=BandStrategy.FLOW_PATHS))
    path = tmp_path / "tiny.scene"
    path.write_text(scene_to_text(cfg), encoding="utf-8")

    def broken_update(*args):
        raise IntegrityError("injected")

    monkeypatch.setattr(B, "update_path", broken_update)
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    step = len(list(out.glob("frame_*.cprt")))  # frames 0 .. step - 1 were written
    assert f"correction failed at seed 11, step {step}: injected" in err
    replay = out / "failed_problem.npz"
    problem = C.load_problem(np.load(replay))
    assert problem.region.any()
    assert problem.n <= BRUTE_FORCE_LIMIT
    monkeypatch.undo()
    assert cli.main(["oracle-check", str(replay)]) == 0
    assert "OK" in capsys.readouterr().out


def test_flow_paths_without_a_path_completes_the_run(tmp_path, monkeypatch, capsys):
    # every repair finds no path: each falls back to the exact solve
    cfg = SceneConfig(name="tiny", dims=(8, 8), mu=1, frames=4, seed=11,
                      fluids=[FluidRegion(Box((1, 1), (4, 5)))],
                      band=BandConfig(enabled=True, R=1, strategy=BandStrategy.FLOW_PATHS))
    path = tmp_path / "tiny.scene"
    path.write_text(scene_to_text(cfg), encoding="utf-8")
    calls = []
    monkeypatch.setattr(B, "find_paths", lambda *args: calls.append(1) or ([], None))
    out = tmp_path / "out"
    assert cli.main(["run", str(path), "--out", str(out)]) == 0
    assert calls and not (out / "failed_problem.npz").exists()
    assert len(list(out.glob("frame_*.cprt"))) == 5


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
    final potentials and solver work; the same solver re-solving them, here
    three times over, gives no gap, identical choices, potentials and work on
    every problem, the same work per solve, the fastest pass's CPU time and a
    certified optimum of each. One problem's potentials or one counter off
    counts that problem out, with exit status 0. A recording without a
    counter prints it as -, as it prints the identical work, and one without
    potentials, or with fewer than one per grid cell, prints their count
    as -. An objective one ulp off or a
    doctored re-solve dual makes it exit 1; unrounded costs are refused. The
    committed full-strategy band scene records problems with the band's
    region, and their re-solves certify too."""
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
    assert f"certified optimal: {per} of {per}" in out
    assert f"identical potentials {per} of {per}, identical work {per} of {per}" in out
    for name in ("searches", "drains", "pops", "scans", "tables"):
        assert len(recorded[name]) == per
        mean = f"{recorded[name].sum() / per:.1f}"
        assert f"{name} {mean} -> {mean}" in out
    assert all(f"pi_{i}" in recorded for i in range(per))

    doctored = dict(recorded, pi_0=recorded["pi_0"] + 1.0, pops=recorded["pops"].copy())
    doctored["pops"][-1] += 1
    np.savez(a, **doctored)
    assert run("--against", str(a), "--out", str(b)) == 0
    out = capsys.readouterr().out
    assert f"identical potentials {per - 1} of {per}, identical work {per - 1} of {per}" in out

    # potentials of the reached cells only, as a solve that ranked them recorded
    np.savez(a, **dict(recorded, pi_0=recorded["pi_0"][1:]))
    assert run("--against", str(a), "--out", str(b)) == 0
    out = capsys.readouterr().out
    assert f"identical potentials - of {per}, identical work {per} of {per}" in out

    del recorded["tables"], recorded["pi_0"]
    np.savez(a, **recorded)
    assert run("--against", str(a), "--out", str(b)) == 0
    mean = f"{np.load(b)['tables'].sum() / per:.1f}"
    out = capsys.readouterr().out
    assert f"tables - -> {mean}" in out
    assert f"identical potentials - of {per}, identical work - of {per}" in out

    solve = V.solve_mcf

    def sink_dual_raised(net):  # leaves each cell with room a negative reduced cost
        choice, stats = solve(net)
        stats.pi[len(net.cap)] += 1.0
        return choice, stats

    monkeypatch.setattr(V, "solve_mcf", sink_dual_raised)
    assert run("--against", str(a), "--out", str(b)) == 1
    out = capsys.readouterr().out
    assert "largest relative objective gap 0," in out and f"certified optimal: 0 of {per}" in out
    monkeypatch.setattr(V, "solve_mcf", solve)

    # exact solves agree to the last bit: one ulp off one objective fails
    objective = recorded["objective"].copy()
    recorded["objective"][0] = np.nextafter(objective[0], np.inf)
    np.savez(a, **recorded)
    assert run("--against", str(a), "--out", str(b)) == 1
    capsys.readouterr()

    # a recording of unrounded costs is refused, naming the array
    recorded["objective"] = objective
    cost = recorded["problem_0/cost"].copy()
    recorded["problem_0/cost"] = np.where(recorded["problem_0/target_flat"] >= 0, cost + 0.1, cost)
    np.savez(a, **recorded)
    with pytest.raises(SystemExit) as exited:
        run("--against", str(a), "--out", str(b))
    assert exited.value.code == 2
    assert "array 'cost' index" in capsys.readouterr().err

    # the committed full-strategy band scene records band problems, each
    # stored with its region, and every re-solve certifies
    band = Path(__file__).resolve().parent.parent / "scripts" / "scenes" / "dam_band6_full.scene"
    assert run("--scene", str(band), "--frames", "3", "--out", str(a)) == 0
    recorded = np.load(a)
    per = len(recorded["objective"])
    assert per > 0
    assert all(recorded[f"problem_{i}/region"].any() for i in range(per))
    assert run("--against", str(a), "--out", str(b)) == 0
    assert f"certified optimal: {per} of {per}" in capsys.readouterr().out


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


def test_obstacle_suite_script(monkeypatch, capsys):
    """scripts/run_obstacle_suite.py runs every solid-coupling scene, here for
    two frames, and prints one summary line per scene: its volume range and
    its obstacles' heights."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "run_obstacle_suite.py"
    spec = importlib.util.spec_from_file_location("run_obstacle_suite", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "argv", ["run_obstacle_suite.py", "--frames", "2"])
    assert script.main() == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines] == script.SCENES
    for line in lines:
        assert re.search(r": volume \d+\.\d\d\.\.\d+\.\d\d %  obstacle y: \d+\.\d\d", line), line
