"""Benchmark the flow solver against instance size and verify the oracle.

Usage: python scripts/solver_bench.py [--sizes 500 2000 5000]
"""
import argparse
import sys
import time

import numpy as np

from cellflow import correction as C
from cellflow import grid as G
from cellflow import solvers as V
from cellflow.flip import ParticleSet, clamp_positions


def dam_like_instance(rng, side, mu=4):
    grid = G.CellGrid((side, side))
    cells = [(i, j) for i in range(1, side - 1) for j in range(1, (side - 1) // 2)]
    pts = []
    for cell in cells:
        pts.extend(np.asarray(cell) + rng.uniform(0.05, 0.95, size=(mu, 2)))
    x = np.asarray(pts)
    G.classify_cells(grid, x)
    G.assign_depth(grid)
    grid.rebuild_counts(x)
    grid.snapshot()
    p = ParticleSet.from_positions(x)
    p.x_ideal = clamp_positions(x + rng.uniform(-0.8, 0.8, x.shape), grid.dims,
                                home_cells=np.floor(x))
    return C.build_problem(grid, C.build_candidates(p, grid), mu)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--sizes", type=int, nargs="+", default=[16, 30, 50])
    args = parser.parse_args()
    rng = np.random.default_rng(0)
    for side in args.sizes:
        problem = dam_like_instance(rng, side)
        t0 = time.perf_counter()
        assignment, stats = V.solve_problem(problem)
        dt = time.perf_counter() - t0
        print(f"grid {side}x{side}: n={problem.n} solve {dt*1e3:.1f} ms "
              f"({stats.searches} searches, {stats.pops} pops, objective {stats.objective:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
