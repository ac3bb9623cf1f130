"""Exact oracles and reference constructions that only tests use.

Interface crossing masks, the band's one-way problem, the sampled total
unimodularity check of the sparse problem's constraint matrix, a choice's
objective, the discrete divergence left after a projection, and the
exhaustive search that is the reference optimum of small problems.
"""
from dataclasses import replace

import numpy as np

from cellflow import band as B
from cellflow import grid as G
from cellflow.correction import CorrectionProblem
from cellflow.flip import MacGrid
from cellflow.errors import InputError, IntegrityError


def gamma_io_masks(problem: CorrectionProblem, x_start: np.ndarray, cells: G.CellGrid,
                   classes: dict[str, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Candidate masks for movements into / out of the band interface, for
    particles at x_start."""
    src = cells.cell_of(x_start)
    target = problem.target_flat
    safe = np.where(problem.valid, target, 0)
    in_mask = classes["layer_above"][src][None, :] & classes["interface"][safe] & problem.valid
    out_mask = classes["interface"][src][None, :] & classes["layer_above"][safe] & problem.valid
    return in_mask, out_mask


def compute_io(choice: np.ndarray, in_mask: np.ndarray, out_mask: np.ndarray,
               alpha_le: int) -> tuple[int, int, int, int]:
    """Selected interface crossings and the remaining slack on each side."""
    ar = np.arange(len(choice))
    n_in = int(in_mask[choice, ar].sum()) if len(choice) else 0
    n_out = int(out_mask[choice, ar].sum()) if len(choice) else 0
    s_in = n_out - n_in + alpha_le
    s_out = n_in - n_out
    return n_in, n_out, s_in, s_out


def with_region(problem: CorrectionProblem, cells: G.CellGrid, R: int,
                alpha_le: int) -> CorrectionProblem:
    """A copy of the band problem with the full band row attached as its region."""
    full = replace(problem)
    B.attach_region(full, G.band_classes(cells, R), alpha_le)
    return full


def objective_of(problem: CorrectionProblem, choice: np.ndarray) -> float:
    """Total cost of the selected candidates."""
    return float(problem.cost[choice, np.arange(problem.n)].sum())


def divergence_residual(mac: MacGrid, cells: G.CellGrid) -> float:
    """Max discrete divergence (net face outflow) over the fluid cells."""
    fluid = cells.fluid_mask().reshape(cells.dims)
    if not fluid.any():
        return 0.0
    div = sum(np.diff(mac.vel[a], axis=a) for a in range(mac.d))
    return float(np.abs(div[fluid]).max())


def build_one_way(problem: CorrectionProblem, choice: np.ndarray, in_mask: np.ndarray,
                  out_mask: np.ndarray, alpha_le: int) -> CorrectionProblem:
    """One-way variant of a full band problem: freeze the lighter direction.

    ``problem`` carries the region with bounds [F, F + alpha]. With too many
    entrants (s_in < 0) every crossing out of the interface is fixed as
    solved, the entrants not selected are blocked, and the region's count is
    pinned to F + alpha, which keeps exactly n_out + alpha of the selected
    entrants. Symmetric when too many leave, with the count pinned to F.
    """
    n_in, n_out, s_in, s_out = compute_io(choice, in_mask, out_mask, alpha_le)
    if s_in >= 0 and s_out >= 0:
        raise InputError("one-way constraint requested but no slack is negative")
    lo, hi = problem.region_bounds
    ar = np.arange(len(choice))
    sel = np.zeros_like(in_mask)
    if len(choice):
        sel[choice, ar] = True
    fixed, blocked = (out_mask, in_mask) if s_in < 0 else (in_mask, out_mask)

    valid = problem.valid & ~(fixed & ~sel) & ~(blocked & ~sel)
    forced = (fixed & sel).any(axis=0)
    valid[:, forced] &= sel[:, forced]
    point = hi if s_in < 0 else lo
    return replace(problem, cost=np.where(valid, problem.cost, np.inf),
                   target_flat=np.where(valid, problem.target_flat, -1),
                   region_bounds=(point, point))


def canonical_matrix(problem: CorrectionProblem) -> np.ndarray:
    """Inequality-form constraint matrix of the sparse problem.

    Columns are valid candidates ordered by (particle, direction). Rows:
    variable upper/lower bounds, the choose-one equality split into two
    inequalities, then per-cell capacity and (negated) floor rows.
    """
    if problem.region is not None:
        raise InputError("canonical matrix requires a problem without a region")
    cols = [(j, int(i)) for j in range(problem.n) for i in np.flatnonzero(problem.valid[:, j])]
    col_of = {ji: k for k, ji in enumerate(cols)}
    ncols = len(cols)
    rows = []

    for k in range(ncols):  # b <= 1
        r = np.zeros(ncols, dtype=np.int8)
        r[k] = 1
        rows.append(r)
    for k in range(ncols):  # -b <= 0
        r = np.zeros(ncols, dtype=np.int8)
        r[k] = -1
        rows.append(r)
    for j in range(problem.n):  # choose-one as two inequalities
        r = np.zeros(ncols, dtype=np.int8)
        for i in np.flatnonzero(problem.valid[:, j]):
            r[col_of[(j, int(i))]] = 1
        rows.append(r)
        rows.append(-r)
    used = np.unique(problem.target_flat[problem.valid]) if ncols else np.array([], dtype=np.int64)
    for c in used:
        r = np.zeros(ncols, dtype=np.int8)
        for j in range(problem.n):
            for i in np.flatnonzero(problem.valid[:, j]):
                if problem.target_flat[i, j] == c:
                    r[col_of[(j, int(i))]] = 1
        rows.append(r)
        if problem.floor[c] > 0:
            rows.append(-r)
    return np.array(rows, dtype=np.int8)


def tu_sample_check(problem: CorrectionProblem, trials: int = 500, max_k: int = 7,
                    rng: np.random.Generator | None = None) -> bool:
    """Sample square submatrices of the canonical matrix; all determinants
    must be exactly -1, 0 or 1."""
    if rng is None:
        rng = np.random.default_rng(0)
    A = canonical_matrix(problem)
    nr, nc = A.shape
    if nr == 0 or nc == 0:
        return True
    for _ in range(trials):
        k = int(rng.integers(1, min(max_k, nr, nc) + 1))
        ri = rng.choice(nr, size=k, replace=False)
        ci = rng.choice(nc, size=k, replace=False)
        det = float(np.linalg.det(A[np.ix_(ri, ci)].astype(np.float64)))
        nearest = round(det)
        if abs(det - nearest) > 1e-6 or nearest not in (-1, 0, 1):
            return False
    return True


BRUTE_FORCE_LIMIT = 12


def brute_force_ilp(problem: CorrectionProblem) -> tuple[np.ndarray, float]:
    """Exhaustive search over all candidate selections (n <= 12).

    Depth-first enumeration over per-particle candidates with sound pruning
    only (capacity, floor reachability, admissible cost bound), so the result
    is the exact global optimum; a region's count bound is tested on each
    complete selection. Fully independent of the flow solver.
    """
    n = problem.n
    if n > BRUTE_FORCE_LIMIT:
        raise InputError(f"brute force refused for n={n} > {BRUTE_FORCE_LIMIT}")
    if n == 0:
        return np.zeros(0, dtype=np.int64), 0.0

    cands = []
    for j in range(n):
        lst = [(float(problem.cost[i, j]), int(i), int(problem.target_flat[i, j]))
               for i in np.flatnonzero(problem.valid[:, j])]
        lst.sort(key=lambda t: (t[0], t[1]))
        if not lst:
            raise IntegrityError(f"particle {j} has no admissible candidate")
        cands.append(lst)

    # admissible bound: cheapest remaining candidate per particle
    suffix_min = np.zeros(n + 1)
    for j in range(n - 1, -1, -1):
        suffix_min[j] = suffix_min[j + 1] + cands[j][0][0]

    ncells = int(np.prod(problem.dims))
    counts = np.zeros(ncells, dtype=np.int64)
    cap = problem.cap
    floor = problem.floor
    floor_cells = np.flatnonzero(floor > 0)
    total_floor = int(floor[floor_cells].sum())

    best_obj = np.inf
    best_choice: np.ndarray | None = None
    choice = np.zeros(n, dtype=np.int64)

    lo, hi = problem.region_bounds

    def region_ok() -> bool:
        return problem.region is None or lo <= int(counts[problem.region].sum()) <= hi

    def dfs(j: int, partial: float, deficit: int) -> None:
        nonlocal best_obj, best_choice
        if partial + suffix_min[j] >= best_obj - 1e-12:
            return
        if deficit > n - j:
            return
        if j == n:
            if deficit == 0 and region_ok():
                best_obj = partial
                best_choice = choice.copy()
            return
        for cost, i, c in cands[j]:
            if counts[c] >= cap[c]:
                continue
            counts[c] += 1
            d2 = deficit - 1 if (floor[c] > 0 and counts[c] <= floor[c]) else deficit
            choice[j] = i
            dfs(j + 1, partial + cost, d2)
            counts[c] -= 1

    dfs(0, 0.0, total_floor)
    if best_choice is None:
        raise IntegrityError("brute force found no feasible assignment")
    return best_choice, float(best_obj)
