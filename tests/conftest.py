"""Shared fixtures and generators for the test suite."""
import numpy as np
import pytest

from cellflow import band as B
from cellflow import correction as C
from cellflow import grid as G
from cellflow.flip import ParticleSet, clamp_positions


class StaticCells:
    """Minimal obstacle stand-in: a fixed set of solid cells."""

    zero_bc = False
    velocity = np.zeros(2)

    def __init__(self, flats):
        self._flats = np.asarray(flats, dtype=np.int64)

    def occupied_flat(self, grid):
        return self._flats


def random_state(rng, dims=(6, 6), mu=None, n_max=10, solid_prob=0.12):
    """Random but fully consistent grid snapshot + particle set.

    Particles are placed with at most mu per non-solid interior cell; the
    snapshot is taken exactly as the pipeline would, so floors, caps and the
    all-stay assignment are all coherent.
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
    grid.snapshot()

    particles = ParticleSet.from_positions(x)
    ideal = x + rng.uniform(-1.4, 1.4, size=(n, d))
    particles.x_ideal = clamp_positions(ideal, dims, home_cells=np.floor(x))
    return grid, particles, mu


def random_problem(rng, dims=(6, 6), mu=None, n_max=10, solid_prob=0.12):
    grid, particles, mu = random_state(rng, dims, mu, n_max, solid_prob)
    table = C.build_candidates(particles, grid)
    problem = C.build_problem(grid, table, mu)
    return problem, grid, particles


def random_band_instance(rng, push=-1.0):
    """Random toy band state (1 ppc, tiny tank) with a vertical push: down by
    default, up for push=+1."""
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
    B.maintain_band(grid, particles, state, mu=1, rng=rng)
    if particles.n == 0 or particles.n > 10:
        return None
    grid.rebuild_counts(particles.x)
    grid.snapshot()
    B.compute_alphas(grid, G.band_classes(grid.prev, R), state, mu=1)
    drift = rng.normal(0.0, 0.5, size=particles.x_prev.shape)
    drift[:, 1] += push * rng.uniform(0.2, 1.0)
    particles.x_ideal = clamp_positions(particles.x_prev + drift, dims,
                                        home_cells=np.floor(particles.x_prev))
    return grid, particles, state


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
