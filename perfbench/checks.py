"""Checks of a run's outputs, made apart from the program.

Nothing here imports cellflow. The dumps are parsed from their documented
byte layout, and optimality is checked against an LP solved by scipy's
HiGHS. Each check returns a list of faults; an empty list is a pass.
"""
from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

WALL, OBSTACLE = 1, 2  # raster codes of cells that hold no particles
VOLUME_FLOOR = 100.0 - 1e-9
OBJECTIVE_RTOL = 1e-6


def read_particles(path: Path) -> np.ndarray:
    """Positions (n, d) from a .cprt dump: magic, u32 version, n, d, then
    n*d float32 positions and n*d float32 velocities, little-endian."""
    raw = Path(path).read_bytes()
    if raw[:4] != b"CPRT":
        raise ValueError(f"{path}: not a particle dump")
    _, n, d = struct.unpack("<III", raw[4:16])
    if len(raw) != 16 + 8 * n * d:
        raise ValueError(f"{path}: {len(raw)} bytes, expected {16 + 8 * n * d}")
    return np.frombuffer(raw, dtype="<f4", count=n * d, offset=16).reshape(n, d)


def read_raster(path: Path) -> np.ndarray:
    """Cell codes from a .cgrd dump: magic, u16 version, u16 ndim, four u16
    dims, then one byte per cell in C order."""
    raw = Path(path).read_bytes()
    if raw[:4] != b"CGRD":
        raise ValueError(f"{path}: not a grid dump")
    _, ndim, *dims4 = struct.unpack("<HH4H", raw[4:16])
    dims = tuple(dims4[:ndim])
    if len(raw) != 16 + int(np.prod(dims)):
        raise ValueError(f"{path}: size does not match dims {dims}")
    return np.frombuffer(raw, dtype=np.uint8, offset=16).reshape(dims)


def read_volume(path: Path) -> dict[int, tuple[float, int]]:
    """step -> (percent, n_deep) from volume.csv."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    cols = lines[0].split(",")
    step, percent, deep = cols.index("step"), cols.index("percent"), cols.index("n_deep")
    out = {}
    for line in lines[1:]:
        row = line.split(",")
        out[int(row[step])] = (float(row[percent]), int(float(row[deep])))
    return out


def frame_faults(positions: np.ndarray, raster: np.ndarray, mu: int) -> list[str]:
    """No non-solid cell holds more than mu particles; walls and obstacles
    hold none; every particle lies on the grid."""
    dims = raster.shape
    cells = np.floor(positions).astype(np.int64)
    inside = np.all((cells >= 0) & (cells < np.asarray(dims)), axis=1)
    faults = []
    if not inside.all():
        faults.append(f"{int((~inside).sum())} particles off the grid")
    flat = np.ravel_multi_index(tuple(cells[inside].T), dims)
    counts = np.bincount(flat, minlength=raster.size)
    codes = raster.reshape(-1)
    solid = (codes == WALL) | (codes == OBSTACLE)
    if counts[solid].any():
        faults.append(f"{int(counts[solid].sum())} particles in wall or obstacle cells")
    over = ~solid & (counts > mu)
    if over.any():
        faults.append(f"{int(over.sum())} cells hold more than mu={mu} "
                      f"(max {int(counts[over].max())})")
    return faults


def check_run(run_dir: Path, frames: int, mu: int, particles: int) -> tuple[list[str], list[list[str]]]:
    """Faults of frame 0 and of each frame 1..frames that has dumps.

    Particle conservation: live particles plus volume.csv's n_deep equal
    ``particles`` on every frame (n_deep is 0 without the band). Volume: the
    percent column never drops below 100.
    """
    if not (run_dir / "frame_000000.cprt").exists():
        return ["no dumps"], []
    volume = read_volume(run_dir / "volume.csv")
    per_frame = []
    for i in range(frames + 1):
        part = run_dir / f"frame_{i:06d}.cprt"
        if not part.exists():
            break
        positions = read_particles(part)
        faults = frame_faults(positions, read_raster(run_dir / f"grid_{i:06d}.cgrd"), mu)
        if i not in volume:
            faults.append("no volume.csv row")
        else:
            percent, n_deep = volume[i]
            if len(positions) + n_deep != particles:
                faults.append(f"{len(positions)} live + {n_deep} deep particles, "
                              f"expected {particles}")
            if not percent >= VOLUME_FLOOR:
                faults.append(f"volume {percent!r}% below 100%")
        per_frame.append(faults)
    return per_frame[0], per_frame[1:]


def lp_objective(cost: np.ndarray, valid: np.ndarray, target: np.ndarray,
                 cap: np.ndarray, floor: np.ndarray) -> float:
    """Optimum of the correction problem's LP relaxation, by HiGHS.

    One variable per valid (direction i, particle j) pair in [0, 1]; each
    particle picks one direction in total; each cell c receives at most
    cap[c] (no bound where cap < 0) and at least floor[c].
    """
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix, vstack

    ii, jj = np.nonzero(valid)
    nvar, n = len(ii), valid.shape[1]
    cols = np.arange(nvar)
    a_eq = csr_matrix((np.ones(nvar), (jj, cols)), shape=(n, nvar))
    used, row = np.unique(target[ii, jj], return_inverse=True)
    unreached = np.setdiff1d(np.flatnonzero(floor > 0), used)
    if unreached.size:
        raise ValueError(f"floored cells no candidate reaches: {unreached[:4].tolist()}")
    incidence = csr_matrix((np.ones(nvar), (row, cols)), shape=(len(used), nvar))
    capped = cap[used] >= 0
    floored = floor[used] > 0
    a_ub = vstack([incidence[capped], -incidence[floored]])
    b_ub = np.concatenate([cap[used][capped], -floor[used][floored]]).astype(np.float64)
    res = linprog(cost[ii, jj], A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=np.ones(n),
                  bounds=(0, 1), method="highs")
    if res.status != 0:
        raise ValueError(f"HiGHS: {res.message}")
    return float(res.fun)


def optimality_faults(problem: dict) -> list[str]:
    """The program's objective matches the LP optimum within 1e-6 relative."""
    keys = ("cost", "valid", "target", "cap", "floor")
    try:
        best = lp_objective(*(problem[k] for k in keys))
    except ValueError as exc:
        return [str(exc)]
    got = float(problem["objective"])
    if abs(got - best) > OBJECTIVE_RTOL * max(1.0, abs(best)):
        return [f"objective {got!r} differs from the LP optimum {best!r}"]
    return []
