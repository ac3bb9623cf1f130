"""Shared fixtures and generators for the test suite."""
import struct
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from cellflow import band as B
from cellflow import correction as C
from cellflow import grid as G
from cellflow.errors import InputError
from cellflow.flip import MacGrid, ParticleSet, clamp_positions
from cellflow.outputs import FORMAT_VERSION, PART_MAGIC


class StaticCells:
    """Minimal obstacle stand-in: a fixed set of solid cells."""

    zero_bc = False
    velocity = np.zeros(2)

    def __init__(self, flats):
        self._flats = np.asarray(flats, dtype=np.int64)

    def occupied_flat(self, grid):
        return self._flats


def flat_index(grid, cells):
    """Flat index of one cell, as an int, or of (k, d) rows of cells."""
    cells = np.asarray(cells, dtype=np.int64)
    out = np.ravel_multi_index(tuple(cells.reshape(-1, grid.d).T), grid.dims)
    return int(out[0]) if cells.ndim == 1 else out


def random_state(rng, dims=(6, 6), mu=None, n_max=10, solid_prob=0.12):
    """Random but fully consistent grid state, particle set and ideal positions.

    Particles are placed with at most mu per non-solid interior cell; the
    markings and counts are set exactly as the pipeline would, so floors,
    caps and the all-stay assignment are all coherent.
    """
    grid = G.CellGrid(dims)
    d = grid.d
    if mu is None:
        mu = int(rng.integers(1, 5))

    interior = np.flatnonzero(~grid.wall)
    solid = interior[rng.random(len(interior)) < solid_prob]
    free = np.setdiff1d(interior, solid)

    n = int(rng.integers(1, n_max + 1))
    counts = {}
    placements = []
    for _ in range(n):
        for _attempt in range(50):
            c = int(rng.choice(free))
            if counts.get(c, 0) < mu:
                counts[c] = counts.get(c, 0) + 1
                cell = grid.unflat(c).astype(float)
                placements.append(cell + rng.uniform(0.05, 0.95, size=d))
                break
    x = np.asarray(placements)
    n = len(x)

    obstacles = [StaticCells(solid)] if len(solid) else []
    G.classify_cells(grid, x, obstacles)
    G.assign_depth(grid)
    grid.rebuild_counts(x)

    particles = ParticleSet.from_positions(x)
    ideal = x + rng.uniform(-1.4, 1.4, size=(n, d))
    return grid, particles, clamp_positions(ideal, dims, home_cells=np.floor(x)), mu


def random_problem(rng, dims=(6, 6), mu=None, n_max=10, solid_prob=0.12):
    grid, particles, x_ideal, mu = random_state(rng, dims, mu, n_max, solid_prob)
    table = C.build_candidates(particles.x, x_ideal, grid)
    problem = C.build_problem(grid, table, mu)
    return problem, grid, particles


def replayed(problem, path):
    """``problem`` through its replay file: dump_problem, np.savez to
    ``path``, np.load and load_problem."""
    np.savez(path, **C.dump_problem(problem))
    with np.load(path, allow_pickle=False) as arrays:
        return C.load_problem(dict(arrays))


def assert_same_problem(a, b):
    """Every field of two correction problems is equal, array dtypes too."""
    for field in fields(C.CorrectionProblem):
        x, y = getattr(a, field.name), getattr(b, field.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and np.array_equal(x, y), field.name
        else:
            assert x == y, field.name


def stay_choice(problem):
    """The all-stay choice vector: every particle takes the last direction."""
    return np.full(problem.n, problem.m - 1, dtype=np.int64)


def random_band_instance(rng, push=-1.0):
    """Random toy band state (1 ppc, tiny tank) with a vertical push: down by
    default, up for push=+1. Returns the grid, the particles, the band state
    and the ideal positions, or None for an empty or too large toy."""
    R = int(rng.integers(1, 3))
    width = int(rng.integers(2, 4))
    dims = (width + 2, 10)
    grid = G.CellGrid(dims)
    pts = []
    for i in range(1, 1 + width):
        h = int(rng.integers(R + 1, R + 4))
        for j in range(1, 1 + h):
            pts.append([i + rng.uniform(0.2, 0.8), j + rng.uniform(0.2, 0.8)])
    x = np.asarray(pts)
    G.classify_cells(grid, x)
    G.assign_depth(grid)
    grid.rebuild_counts(x)
    particles = ParticleSet.from_positions(x)
    state = B.BandState(R=R)
    B.maintain_band(grid, particles, state, G.band_classes(grid, R), mu=1, rng=rng,
                    mac=MacGrid(dims))
    if particles.n == 0 or particles.n > 10:
        return None
    grid.rebuild_counts(particles.x)
    B.compute_alphas(grid, G.band_classes(grid, R), state, mu=1)
    drift = rng.normal(0.0, 0.5, size=particles.x.shape)
    drift[:, 1] += push * rng.uniform(0.2, 1.0)
    x_ideal = clamp_positions(particles.x + drift, dims, home_cells=np.floor(particles.x))
    return grid, particles, state, x_ideal


def read_particle_dump(path) -> tuple[np.ndarray, np.ndarray]:
    """Positions and velocities of a ``.cprt`` particle dump."""
    raw = Path(path).read_bytes()
    if raw[:4] != PART_MAGIC:
        raise InputError(f"{path}: not a particle dump")
    version, n, d = struct.unpack("<III", raw[4:16])
    if version != FORMAT_VERSION:
        raise InputError(f"{path}: unsupported dump version {version}")
    floats = np.frombuffer(raw[16:], dtype="<f4")
    pos = floats[: n * d].reshape(n, d).copy()
    vel = floats[n * d: 2 * n * d].reshape(n, d).copy()
    return pos, vel


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


# One line per acceptance criterion, printed at the end of the session.
ACCEPTANCE_RESULTS: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_RESULTS:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_RESULTS):
            terminalreporter.write_line(line)
