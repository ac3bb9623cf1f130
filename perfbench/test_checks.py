"""Each check of checks.py passes on clean outputs and fails on a doctored one.

Run with: python3 -m pytest perfbench
"""
import itertools
import json
import struct
from pathlib import Path

import numpy as np

import checks
from workloads import END_TO_END, PER_LAYER, WORKLOADS

MU = 2
PARTICLES = 6
VOLUME_HEADER = "step,V,percent,alt_percent,n_deep,n_excess,n_move,paths,find_calls"


def raster(obstacle=()):
    """A 4x4 tank: wall ring (code 1) around four inner cells (code 4)."""
    codes = np.ones((4, 4), dtype=np.uint8)
    codes[1:3, 1:3] = 4
    for cell in obstacle:
        codes[cell] = 2
    return codes


def clean_positions():
    """Two particles in each of three inner cells: every cell at mu."""
    cells = [(1, 1), (1, 1), (1, 2), (1, 2), (2, 1), (2, 1)]
    return np.asarray(cells, dtype=np.float32) + np.float32(0.5)


def write_run(path: Path, frames, percents):
    """Dumps in cellflow's documented layout; frames is a list of
    (positions, raster) pairs, frame 0 first, with their volume percents."""
    rows = [VOLUME_HEADER]
    for i, ((pos, codes), percent) in enumerate(zip(frames, percents)):
        n, d = pos.shape
        (path / f"frame_{i:06d}.cprt").write_bytes(
            b"CPRT" + struct.pack("<III", 1, n, d) + pos.astype("<f4").tobytes()
            + np.zeros_like(pos, dtype="<f4").tobytes())
        (path / f"grid_{i:06d}.cgrd").write_bytes(
            b"CGRD" + struct.pack("<HH4H", 1, 2, *codes.shape, 0, 0) + codes.tobytes())
        rows.append(f"{i},{n / MU!r},{percent!r},{percent!r},0,0,0,0,0")
    (path / "volume.csv").write_text("\n".join(rows) + "\n", encoding="utf-8")


def faults_of(tmp_path, last, percent=100.0):
    """Frame faults of a two-frame run whose second frame is ``last``."""
    write_run(tmp_path, [(clean_positions(), raster()), last], [100.0, percent])
    first, frames = checks.check_run(tmp_path, 1, MU, PARTICLES)
    assert first == []
    return frames[0]


def test_clean_run_passes(tmp_path):
    assert faults_of(tmp_path, (clean_positions(), raster())) == []


def test_cell_over_mu_fails(tmp_path):
    pos = clean_positions()
    pos[5] = pos[0]  # a third particle in cell (1, 1)
    found = faults_of(tmp_path, (pos, raster()))
    assert any("more than mu=2" in f for f in found)


def test_particle_in_obstacle_cell_fails(tmp_path):
    pos = clean_positions()
    pos[4:6] = np.float32(2.5)  # cell (2, 2), which an obstacle now holds
    found = faults_of(tmp_path, (pos, raster(obstacle=[(2, 2)])))
    assert any("wall or obstacle" in f for f in found)


def test_particle_in_wall_cell_fails(tmp_path):
    pos = clean_positions()
    pos[5] = np.float32(0.5)
    found = faults_of(tmp_path, (pos, raster()))
    assert any("wall or obstacle" in f for f in found)


def test_lost_particle_fails(tmp_path):
    found = faults_of(tmp_path, (clean_positions()[:-1], raster()))
    assert any("5 live + 0 deep" in f for f in found)


def test_volume_loss_fails(tmp_path):
    found = faults_of(tmp_path, (clean_positions(), raster()), percent=99.99)
    assert any("below 100%" in f for f in found)


def small_problem():
    """Three particles, three directions, cells 0..2; cell 0 takes at most
    one particle and cell 2 keeps at least one."""
    cost = np.array([[0.1, 0.2, 0.9],
                     [0.5, 0.4, 0.3],
                     [0.7, 0.8, 0.6]])
    target = np.array([[0, 0, 0], [1, 1, 1], [2, 2, 2]])
    return {"cost": cost, "valid": np.ones((3, 3), dtype=bool), "target": target,
            "cap": np.array([1, 3, -1]), "floor": np.array([0, 0, 1])}


def brute_force(p):
    best = np.inf
    for choice in itertools.product(range(3), repeat=3):
        cells = np.bincount([p["target"][i, j] for j, i in enumerate(choice)], minlength=3)
        capped = p["cap"] >= 0
        if (cells[capped] <= p["cap"][capped]).all() and (cells >= p["floor"]).all():
            best = min(best, sum(p["cost"][i, j] for j, i in enumerate(choice)))
    return best


def test_optimal_objective_passes():
    p = small_problem()
    p["objective"] = brute_force(p)
    assert checks.optimality_faults(p) == []


def test_wrong_objective_fails():
    p = small_problem()
    p["objective"] = brute_force(p) + 1e-3
    assert checks.optimality_faults(p)


def test_benchmark_json_names_every_metric():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER

