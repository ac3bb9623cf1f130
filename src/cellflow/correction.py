"""Grid-movement correction problem: candidate positions, costs, constraints.

Each particle may move to the cell it occupied at the end of the previous
step or one of its von Neumann neighbors (plus staying). For every such
candidate cell we precompute the position inside the cell closest to the
particle's ideal advected position, and the squared-distance cost of it.
The correction problem then selects one candidate per particle under
per-cell capacity and lower-bound constraints.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grid as G
from .errors import InputError, IntegrityError

# Margin keeping candidate positions strictly inside their cell.
EPS = 0.01


@dataclass
class DirectionSet:
    """Unit grid moves: positive axes, negative axes, then the zero (stay) move."""

    dirs: np.ndarray  # (m, d) int
    m: int
    d: int


def direction_set(d: int) -> DirectionSet:
    if d not in (2, 3):
        raise InputError(f"dimension must be 2 or 3, got {d}")
    eye = np.eye(d, dtype=np.int64)
    dirs = np.vstack([eye, -eye, np.zeros((1, d), dtype=np.int64)])
    return DirectionSet(dirs=dirs, m=2 * d + 1, d=d)


def phi_close(q, c) -> np.ndarray:
    """Point of cell c closest to q, kept a small margin inside the cell.

    Componentwise: q itself where q already lies across the cell's span
    (nudged to EPS/2 off the faces), else the near face offset inward by EPS.
    """
    q = np.asarray(q, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    center = c + 0.5
    v = q - center
    out = np.where(v >= 0.5, center + 0.5 - EPS, np.where(v <= -0.5, center - 0.5 + EPS, q))
    return np.clip(out, c + EPS / 2, c + 1 - EPS / 2)


@dataclass
class CandidateTable:
    """Per-direction, per-particle candidate placements.

    xi[i, j] is the landing position of particle j under direction i,
    cost[i, j] its squared distance to the ideal position. Candidates whose
    target cell is off-grid or a tank wall are invalid and dropped from the
    optimization entirely.
    """

    xi: np.ndarray           # (m, n, d) float
    cost: np.ndarray         # (m, n) float
    target_flat: np.ndarray  # (m, n) int64, -1 where invalid
    valid: np.ndarray        # (m, n) bool
    dirs: DirectionSet

    @property
    def m(self) -> int:
        return self.xi.shape[0]

    @property
    def n(self) -> int:
        return self.xi.shape[1]


def build_candidates(particles, cells: G.CellGrid, dirs: DirectionSet | None = None) -> CandidateTable:
    """Candidate positions and costs for every particle/direction pair."""
    x_prev = np.asarray(particles.x_prev, dtype=np.float64)
    x_ideal = np.asarray(particles.x_ideal, dtype=np.float64)
    n, d = x_prev.shape
    if dirs is None:
        dirs = direction_set(d)
    m = dirs.m

    # one axis at a time on (m, n) arrays; cost sums the axes left to right,
    # as np.sum over a length-d axis does
    xi = np.empty((m, n, d))
    flat = np.zeros((m, n), dtype=np.int64)
    in_bounds = np.ones((m, n), dtype=bool)
    for k in range(d):
        target = np.floor(x_prev[:, k]).astype(np.int64) + dirs.dirs[:, k, None]
        in_bounds &= (target >= 0) & (target < cells.dims[k])
        flat = flat * cells.dims[k] + target
        xi[:, :, k] = xk = phi_close(x_ideal[:, k], target)
        sq = (xk - x_ideal[:, k]) ** 2
        cost = sq if k == 0 else cost + sq
    valid = in_bounds & ~cells.wall[np.where(in_bounds, flat, 0)]
    flat = np.where(valid, flat, -1)
    cost = np.where(valid, cost, np.inf)

    return CandidateTable(xi=xi, cost=cost, target_flat=flat, valid=valid, dirs=dirs)


@dataclass
class CorrectionProblem:
    """One-direction-per-particle selection under per-cell count bounds.

    cap[c] is the admissible particle count of cell c (-1 means no bound;
    used for deep cells in band mode), floor[c] the mandatory minimum.
    Costs may be overridden by the solid-coupling objective. The all-stay
    assignment is feasible by construction and is asserted on build. The
    band's balance constraint, when attached, bounds the total count of the
    cells in ``region`` to ``region_bounds`` = (lo, hi).
    """

    candidates: CandidateTable
    mu: int
    cap: np.ndarray     # (ncells,) int64
    floor: np.ndarray   # (ncells,) int64
    cost: np.ndarray    # (m, n) float64, includes any solid override
    dims: tuple
    valid: np.ndarray | None = None  # working validity incl. one-way fixes
    region: np.ndarray | None = None  # (ncells,) bool, cells whose total count is bounded
    region_bounds: tuple[int, int] = (0, 0)

    def __post_init__(self):
        if self.valid is None:
            self.valid = self.candidates.valid.copy()

    @property
    def n(self) -> int:
        return self.candidates.n

    @property
    def m(self) -> int:
        return self.candidates.m

    @property
    def target_flat(self) -> np.ndarray:
        return self.candidates.target_flat

    def counts_of(self, choice: np.ndarray) -> np.ndarray:
        cells = self.target_flat[choice, np.arange(self.n)]
        return np.bincount(cells, minlength=int(np.prod(self.dims))).astype(np.int64)

    def check_feasible(self, choice: np.ndarray, strict: bool = True) -> bool:
        n = self.n
        ar = np.arange(n)
        ok = bool(self.valid[choice, ar].all()) if n else True
        counts = self.counts_of(choice) if n else np.zeros(int(np.prod(self.dims)), dtype=np.int64)
        capped = self.cap >= 0
        ok = ok and bool((counts[capped] <= self.cap[capped]).all())
        ok = ok and bool((counts >= self.floor).all())
        if self.region is not None:
            lo, hi = self.region_bounds
            ok = ok and lo <= int(counts[self.region].sum()) <= hi
        if strict and not ok:
            raise IntegrityError("assignment violates correction constraints")
        return ok


@dataclass
class Assignment:
    """Selected direction index per particle."""

    choice: np.ndarray  # (n,) int64


def stay_assignment(problem: CorrectionProblem) -> Assignment:
    stay = problem.m - 1
    return Assignment(choice=np.full(problem.n, stay, dtype=np.int64))


def build_problem(
    cells: G.CellGrid,
    candidates: CandidateTable,
    mu: int,
    classes: dict | None = None,
    solid_cost: np.ndarray | None = None,
) -> CorrectionProblem:
    """Assemble caps/floors from the previous step's markings.

    Previously empty or surface cells take at most mu particles; previously
    inner cells additionally must keep their previous count. Cells solid in
    the snapshot (walls and obstacles) take none. With the band active
    (``classes``, the band classes of the snapshot), the band interface joins
    the cap-only group, only strictly-in-band cells keep floors, and deep
    cells are unconstrained (their particles are deleted right after the
    correction).
    """
    if cells.prev is None:
        raise IntegrityError("build_problem requires a previous-step snapshot")
    prev = cells.prev
    ncells = cells.ncells

    cap = np.full(ncells, mu, dtype=np.int64)
    floor = np.zeros(ncells, dtype=np.int64)

    floored = (prev.marking == G.INNER) if classes is None else classes["in_band_inner"]
    floor[floored] = prev.counts[floored]
    if classes is not None:
        cap[classes["deep"]] = -1
    solid = prev.marking == G.SOLID
    cap[solid] = 0
    floor[solid] = 0

    if (floor > np.where(cap < 0, np.iinfo(np.int64).max, cap)).any():
        raise IntegrityError("cell lower bound exceeds capacity; snapshot corrupt")

    cost = candidates.cost if solid_cost is None else solid_cost
    problem = CorrectionProblem(
        candidates=candidates,
        mu=mu,
        cap=cap,
        floor=floor,
        cost=np.where(candidates.valid, cost, np.inf),
        dims=cells.dims,
    )
    stay = stay_assignment(problem)
    if problem.n and not problem.check_feasible(stay.choice, strict=False):
        raise IntegrityError("all-stay assignment infeasible; state snapshot is inconsistent")
    return problem


def apply_solution(problem: CorrectionProblem, assignment: Assignment, particles, verify: bool = True) -> None:
    """Move every particle to its selected candidate position."""
    choice = assignment.choice
    if verify:
        problem.check_feasible(choice)
    ar = np.arange(problem.n)
    particles.x = problem.candidates.xi[choice, ar, :].copy()


# ----------------------------------------------------------------------
# textual debug dump, consumed by the offline oracle tool

DUMP_MAGIC = "cellflow-problem"


def dump_problem(problem: CorrectionProblem) -> str:
    lines = [f"{DUMP_MAGIC} 1"]
    lines.append("dims " + " ".join(str(v) for v in problem.dims))
    lines.append(f"mu {problem.mu}")
    lines.append(f"n {problem.n}")
    lines.append(f"m {problem.m}")
    used = set()
    for j in range(problem.n):
        for i in np.flatnonzero(problem.valid[:, j]):
            c = int(problem.target_flat[i, j])
            used.add(c)
            lines.append(f"cand {j} {int(i)} {c} {float(problem.cost[i, j])!r}")
    for c in sorted(used):
        lines.append(f"cell {c} {int(problem.cap[c])} {int(problem.floor[c])}")
    if problem.region is not None:  # optional: lo, hi, then the region's cells
        lo, hi = problem.region_bounds
        lines.append(" ".join(str(v) for v in ["region", lo, hi, *np.flatnonzero(problem.region)]))
    return "\n".join(lines) + "\n"


def load_problem(text: str) -> CorrectionProblem:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith(DUMP_MAGIC):
        raise InputError("not a cellflow problem dump")
    header = {}
    cands = []
    cells = {}
    for ln in lines[1:]:
        parts = ln.split()
        key = parts[0]
        if key == "cand":
            cands.append((int(parts[1]), int(parts[2]), int(parts[3]), float(parts[4])))
        elif key == "cell":
            cells[int(parts[1])] = (int(parts[2]), int(parts[3]))
        else:
            header[key] = parts[1:]
    dims = tuple(int(v) for v in header["dims"])
    mu = int(header["mu"][0])
    n = int(header["n"][0])
    m = int(header["m"][0])
    ncells = int(np.prod(dims))

    d = len(dims)
    xi = np.zeros((m, n, d))
    cost = np.full((m, n), np.inf)
    flat = np.full((m, n), -1, dtype=np.int64)
    valid = np.zeros((m, n), dtype=bool)
    for j, i, c, sigma in cands:
        cost[i, j] = sigma
        flat[i, j] = c
        valid[i, j] = True
    cap = np.full(ncells, -1, dtype=np.int64)
    floor = np.zeros(ncells, dtype=np.int64)
    for c, (cp, fl) in cells.items():
        cap[c] = cp
        floor[c] = fl
    table = CandidateTable(xi=xi, cost=cost, target_flat=flat, valid=valid, dirs=direction_set(d))
    problem = CorrectionProblem(candidates=table, mu=mu, cap=cap, floor=floor, cost=cost, dims=dims)
    if "region" in header:
        lo, hi, *region = (int(v) for v in header["region"])
        problem.region = np.zeros(ncells, dtype=bool)
        problem.region[region] = True
        problem.region_bounds = (lo, hi)
    return problem
