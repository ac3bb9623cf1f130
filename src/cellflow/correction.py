"""Grid-movement correction problem: candidate moves, costs, constraints.

Each particle may move to the cell it occupied at the end of the previous
step or one of its von Neumann neighbors (plus staying). For every such
candidate cell we precompute the squared distance from the particle's ideal
advected position to the closest point of the cell. The correction problem
then selects one candidate per particle under per-cell capacity and
lower-bound constraints, and the apply places each particle at that point
of its chosen cell.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import grid as G
from .errors import InputError, IntegrityError


def direction_set(d: int) -> np.ndarray:
    """The (2d + 1, d) unit grid moves: positive axes, negative axes, then
    the zero (stay) move."""
    if d not in (2, 3):
        raise InputError(f"dimension must be 2 or 3, got {d}")
    return np.vstack([G.von_neumann_offsets(d), np.zeros((1, d), dtype=np.int64)])


def phi_close(q, c) -> np.ndarray:
    """Point of cell c closest to q, kept a small margin inside the cell.

    Componentwise: q itself where q already lies across the cell's span
    (nudged to MARGIN/2 off the faces), else the near face offset inward by
    MARGIN.
    """
    q = np.asarray(q, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    center = c + 0.5
    v = q - center
    margin = G.MARGIN
    out = np.where(v >= 0.5, center + 0.5 - margin, np.where(v <= -0.5, center - 0.5 + margin, q))
    return np.clip(out, c + margin / 2, c + 1 - margin / 2)


@dataclass
class CandidateTable:
    """Per-direction, per-particle candidate moves.

    target_flat[i, j] is the flat index of particle j's target cell under
    direction i, and cost[i, j] the squared distance from its ideal position
    to the closest point of that cell. Candidates whose target cell is
    off-grid or a tank wall are invalid: their target is -1 and their cost
    inf, and the optimization drops them entirely.
    """

    cost: np.ndarray         # (m, n) float, inf where invalid
    target_flat: np.ndarray  # (m, n) int64, -1 where invalid

    @property
    def valid(self) -> np.ndarray:
        """(m, n) bool, a fresh array: which candidates have a target."""
        return self.target_flat >= 0

    @property
    def m(self) -> int:
        return self.cost.shape[0]

    @property
    def n(self) -> int:
        return self.cost.shape[1]


def build_candidates(x_start: np.ndarray, x_ideal: np.ndarray, cells: G.CellGrid) -> CandidateTable:
    """Candidate targets and costs for every particle/direction pair, from
    the positions at the start of the substep and the ideal advected ones."""
    n, d = x_start.shape
    dirs = direction_set(d)
    m = len(dirs)

    # one axis at a time on (m, n) arrays; cost sums the axes left to right,
    # as np.sum over a length-d axis does
    flat = np.zeros((m, n), dtype=np.int64)
    in_bounds = np.ones((m, n), dtype=bool)
    for k in range(d):
        target = np.floor(x_start[:, k]).astype(np.int64) + dirs[:, k, None]
        in_bounds &= (target >= 0) & (target < cells.dims[k])
        flat = flat * cells.dims[k] + target
        sq = (phi_close(x_ideal[:, k], target) - x_ideal[:, k]) ** 2
        cost = sq if k == 0 else cost + sq
    valid = in_bounds & ~cells.wall[np.where(in_bounds, flat, 0)]
    return CandidateTable(cost=np.where(valid, cost, np.inf), target_flat=np.where(valid, flat, -1))


@dataclass
class CorrectionProblem(CandidateTable):
    """One-direction-per-particle selection under per-cell count bounds.

    The candidate table's ``cost`` holds the solid penalty, if any; the
    problem holds it rounded to the nearest multiple of 2^-24, so that float
    sums of costs are exact within the bound ``reduce_to_flow`` checks.
    cap[c] is the admissible particle count of cell c (n, which never binds,
    on the band's deep cells), floor[c] the mandatory minimum; dims, the
    grid's shape, gives a target's cell coordinates. The all-stay
    assignment is feasible by construction and is asserted on
    build. The band row bounds the total count of the cells in ``region`` to
    ``region_bounds`` = (lo, hi): the band's balance constraint, or on a
    plain problem no cell with bounds (0, 0), which never binds.
    """

    cap: np.ndarray     # (ncells,) int64
    floor: np.ndarray   # (ncells,) int64
    dims: tuple
    region: np.ndarray  # (ncells,) bool, cells whose total count is bounded
    region_bounds: tuple[int, int]

    def __post_init__(self) -> None:  # a new array; inf stays inf
        self.cost = np.ldexp(np.round(np.ldexp(self.cost, 24)), -24)

    @property
    def n_arcs(self) -> int:
        """Arcs of the textbook transportation network: source -> particle, one
        per valid candidate, reached cell -> sink or hub, hub -> sink if the row has a cell."""
        targets = self.target_flat[self.valid]
        reached = int(np.count_nonzero(np.bincount(targets)))
        return self.n + len(targets) + reached + bool(self.region.any())

    def counts_of(self, choice: np.ndarray) -> np.ndarray:
        cells = self.target_flat[choice, np.arange(self.n)]
        return np.bincount(cells, minlength=len(self.cap)).astype(np.int64)

    def check_feasible(self, choice: np.ndarray) -> np.ndarray:
        """The per-cell counts of ``choice``; IntegrityError unless it picks a
        valid candidate of every particle and meets every count bound."""
        if (self.target_flat[choice, np.arange(self.n)] >= 0).all():
            counts = self.counts_of(choice)
            lo, hi = self.region_bounds
            if ((counts <= self.cap).all() and (counts >= self.floor).all()
                    and lo <= counts[self.region].sum() <= hi):
                return counts
        raise IntegrityError("assignment violates correction constraints")

    def certify(self, choice: np.ndarray, duals: np.ndarray) -> None:
        """Raise IntegrityError unless ``duals``, per grid cell, then the sink's
        and the hub's, prove the feasible ``choice`` optimal: every residual arc
        of the transportation network (Ahuja, Magnanti & Orlin, *Network Flows*,
        1993, ch. 9) has reduced cost >= 0, and a NaN fails. A cell
        passes its units above its floor up to the sink, or to the hub if in the
        region, with room below its cap; the hub passes those above max(lo, 0)
        on, with room below hi; each pick minimises cost - y."""
        counts = self.check_feasible(choice)
        ncells, n = len(self.cap), self.n
        held, (lo, hi) = counts[self.region].sum(), self.region_bounds
        gap = duals[:ncells] - duals[ncells + self.region]
        hub_gap = duals[ncells + 1:] - duals[ncells]
        arcs = [("cell {} -> sink or hub", gap, counts < self.cap),
                ("sink or hub -> cell {}", -gap, counts > self.floor),
                ("hub -> sink", hub_gap, held < hi), ("sink -> hub", -hub_gap, held > max(lo, 0))]
        price = np.where(self.valid, self.cost - duals[self.target_flat], np.inf)
        arcs.append(("particle {}'s pick -> its cheapest candidate",
                     price.min(axis=0) - price[choice, np.arange(n)], True))
        for name, reduced, residual in arcs:
            wrong = np.flatnonzero(~(reduced >= 0) & residual)
            if wrong.size:
                k = wrong[0]
                raise IntegrityError(f"optimality check failed: reduced cost {reduced[k]:.3g} "
                                     f"on {name.format(k)}")


def build_problem(cells: G.CellGrid, candidates: CandidateTable, mu: int,
                  classes: dict | None) -> CorrectionProblem:
    """Assemble caps/floors from the previous step's markings, which the
    grid holds until the markings stage of the substep.

    Previously empty or surface cells take at most mu particles; previously
    inner cells additionally must keep their previous count. Solid cells
    (walls and obstacles) take none. With the band active (``classes``, the
    band classes of the grid), the band interface joins the cap-only group,
    only the band's inner cells keep floors, and deep cells take up to all n
    particles, a cap that never binds (their particles are deleted right
    after the correction). Its band row is empty until ``attach_region``.
    """
    ncells = cells.ncells

    cap = np.full(ncells, mu, dtype=np.int64)
    floor = np.zeros(ncells, dtype=np.int64)

    floored = (cells.marking == G.INNER) if classes is None else classes["in_band_inner"]
    floor[floored] = cells.counts[floored]
    if classes is not None:
        cap[classes["deep"]] = candidates.n
    solid = cells.marking == G.SOLID
    cap[solid] = 0
    floor[solid] = 0

    problem = CorrectionProblem(**vars(candidates), cap=cap, floor=floor, dims=cells.dims,
                                region=np.zeros(ncells, dtype=bool), region_bounds=(0, 0))
    problem.check_feasible(np.full(problem.n, problem.m - 1, dtype=np.int64))
    return problem


def apply_solution(problem: CorrectionProblem, choice: np.ndarray, particles,
                   x_ideal: np.ndarray) -> None:
    """Move every particle to the point of its chosen cell closest to its
    ideal position ``x_ideal``, the point whose distance the candidate's
    cost holds; ``choice`` holds each particle's direction index."""
    problem.check_feasible(choice)
    cells = problem.target_flat[choice, np.arange(problem.n)]
    particles.x = phi_close(x_ideal, np.column_stack(np.unravel_index(cells, problem.dims)))


# ----------------------------------------------------------------------
# replay file: the problem's own arrays, which ``np.savez`` writes and the
# offline oracle tool reads back

def dump_problem(problem: CorrectionProblem) -> dict[str, np.ndarray]:
    """The problem's fields as arrays for ``np.savez``: ``cost``,
    ``target_flat``, ``cap``, ``floor``, ``dims`` and the band row's
    ``region`` and ``region_bounds``, empty on a plain problem."""
    return {key: np.asarray(getattr(problem, key)) for key in
            ("cost", "target_flat", "cap", "floor", "dims", "region", "region_bounds")}


def load_problem(arrays) -> CorrectionProblem:
    """Rebuild a :func:`dump_problem` problem from a mapping of its arrays,
    such as an ``np.load`` archive. A missing, mistyped, misshapen or
    out-of-range array raises InputError naming the array and its first bad
    index; so an older file, with a ``cap`` of -1 or without the band row,
    is refused."""

    def get(key: str, dtype, shape: tuple) -> np.ndarray:
        if key not in arrays:
            raise InputError(f"no array {key!r}")
        a = np.asarray(arrays[key])
        if a.dtype != dtype:
            raise InputError(f"array {key!r} must hold {np.dtype(dtype)}, got {a.dtype}")
        if a.ndim != len(shape) or any(s not in (None, t) for s, t in zip(shape, a.shape)):
            want = ", ".join("any" if s is None else str(s) for s in shape)
            raise InputError(f"array {key!r} has shape {a.shape}, expected ({want})")
        return a

    def refuse(key: str, bad: np.ndarray, what: str, values: np.ndarray) -> None:
        if bad.any():
            at = tuple(int(k) for k in np.argwhere(bad)[0])
            raise InputError(f"array {key!r} index {at[0] if len(at) == 1 else at}: "
                             f"{what}, got {values[at]}")

    dims = get("dims", np.int64, (None,))
    if len(dims) not in (2, 3):
        raise InputError(f"array 'dims' must give 2 or 3 sizes, got {len(dims)}")
    refuse("dims", dims < 1, "a grid size below 1", dims)
    ncells = int(np.prod(dims))
    cost = get("cost", np.float64, (len(direction_set(len(dims))), None))
    target = get("target_flat", np.int64, cost.shape)
    refuse("target_flat", (target < -1) | (target >= ncells), "a target off the grid", target)
    valid = target >= 0
    refuse("cost", valid & ~np.isfinite(cost), "a valid candidate's cost must be finite", cost)
    cap, floor = get("cap", np.int64, (ncells,)), get("floor", np.int64, (ncells,))
    refuse("cap", cap < 0, "a cap below 0", cap)
    refuse("floor", floor < 0, "a floor below 0", floor)
    refuse("floor", floor > cap, "a floor above its cap", floor)
    region, (lo, hi) = get("region", bool, (ncells,)), get("region_bounds", np.int64, (2,))
    if hi < max(lo, 0):
        raise InputError(f"array 'region_bounds' is an empty interval [{lo}, {hi}]")
    refuse("region", region & (floor > 0), "a region cell with a floor", floor)
    problem = CorrectionProblem(cost=cost, target_flat=target, cap=cap, floor=floor,
                                dims=tuple(int(v) for v in dims), region=region,
                                region_bounds=(int(lo), int(hi)))
    refuse("cost", valid & (problem.cost != cost), "a valid candidate's cost must be a "
           "multiple of 2^-24", cost)
    return problem
