"""Incompressible band method: bookkeeping, balance constraint, flow along paths.

Only cells within R levels of the surface carry particles; deeper fluid is
simulated on the grid alone. An imaginary particle count n_deep tracks what
was deleted below the band. The net particle flux into the band interface
must lie between zero and the air available at or below it, a bound on
the particle count of the interface and the deep together (see
:func:`attach_region`; the cell classes are :func:`grid.band_classes`). The
full strategy attaches that bound before the flow solve, which meets it
exactly. The flow-paths strategy attaches it after the plain solve and
repairs the solve's choice vector by pushing particles along grid paths.
"""
from __future__ import annotations

import heapq
from bisect import insort
from dataclasses import dataclass

import numpy as np

from . import grid as G
from .correction import CorrectionProblem, direction_set
from .errors import IntegrityError, NoPathError
from .flip import velocity_at

ROOT = -2
NONE = -1


@dataclass
class BandState:
    R: int
    n_deep: int = 0
    alpha_le: int = 0  # air in the band interface and the deep together
    # diagnostics of the latest step
    last_s_in: int = 0
    last_s_out: int = 0


def compute_alphas(cells: G.CellGrid, classes: dict[str, np.ndarray], state: BandState,
                   mu: int) -> None:
    """Set ``state.alpha_le`` to the air available in the band interface and
    the deep together, from the band classes and counts of the previous
    step; IntegrityError if either part is negative."""
    iface = classes["interface"]
    a_int = mu * int(iface.sum()) - int(cells.counts[iface].sum())
    a_deep = mu * int(classes["deep"].sum()) - state.n_deep
    if a_int < 0 or a_deep < 0:
        raise IntegrityError(f"negative band air: alpha_interface={a_int}, alpha_deep={a_deep}")
    state.alpha_le = a_int + a_deep


def attach_region(problem: CorrectionProblem, classes: dict[str, np.ndarray],
                  alpha_le: int) -> None:
    """Attach the band row 0 <= n_in - n_out <= alpha as a count on the region.

    The region is the band interface and the deep, from the previous
    markings. Depth is a von Neumann distance inside the fluid, so a region
    cell borders only region cells, layer-above cells and walls, and every
    move changes the region's count by [target in region] - [prev in region]
    = [in] - [out]. With F particles starting in the region (each particle's
    previous cell is its stay target), the row reads F <= count(region) <=
    F + alpha. The identity is checked on every valid candidate into a cell
    that can hold particles.
    """
    region, iface, above = classes["region"], classes["interface"], classes["layer_above"]
    prev_cells = problem.target_flat[-1]
    target = np.maximum(problem.target_flat, 0)  # an invalid candidate's -1 reads cell 0
    live = problem.valid & (problem.cap[target] != 0)
    src = prev_cells[None, :]
    delta = region[target].astype(np.int64) - region[src]
    io = (above[src] & iface[target]).astype(np.int64) - (iface[src] & above[target])
    bad = live & (delta != io)
    if bad.any():
        i, j = np.argwhere(bad)[0]
        raise IntegrityError(f"band region misses a crossing: particle {j} from cell "
                             f"{prev_cells[j]} to cell {problem.target_flat[i, j]}")
    start = int(region[prev_cells].sum())
    problem.region = region
    problem.region_bounds = (start, start + alpha_le)


def region_slack(problem: CorrectionProblem, choice: np.ndarray) -> tuple[int, int]:
    """(s_in, s_out) of a choice: the room left under the region's upper
    bound and over its lower one. As the region's count moves by n_in - n_out,
    s_out = count(region) - F = n_in - n_out and s_in = alpha - s_out."""
    lo, hi = problem.region_bounds
    count = int(problem.region[problem.target_flat[choice, np.arange(problem.n)]].sum())
    return hi - count, count - lo


# ----------------------------------------------------------------------
# flow along paths

class CellMembers:
    """Mutable per-cell particle membership, kept sorted for determinism.

    ``flat`` is each particle's cell, ``target_flat[choice, j]`` of an
    assignment."""

    def __init__(self, flat: np.ndarray, ncells: int):
        self.counts = np.bincount(flat, minlength=ncells).astype(np.int64)
        self.lists: dict[int, list[int]] = {}
        for j, c in enumerate(flat):
            self.lists.setdefault(int(c), []).append(j)

    def members(self, c: int) -> list[int]:
        return self.lists.get(int(c), [])

    def move(self, j: int, src: int, dst: int) -> None:
        self.lists[int(src)].remove(j)
        insort(self.lists.setdefault(int(dst), []), j)
        self.counts[src] -= 1
        self.counts[dst] += 1


class EdgeCost:
    """sigma_edge: the correction problem's cost of a particle's move into the
    next cell minus the cost of the move that put it where it stands.

    ``current`` is the assignment's choice vector, which flow-paths edits in
    place, and both costs are read from the problem's candidate table, so the
    solid penalty is the one the solver saw. A cell is priced by its offset
    from the particle's previous-step cell ``home`` (the table's stay
    target); flow-paths only asks about such candidate cells. A wall cell
    costs inf. ``cap`` is the problem's per-cell capacity: n, which never
    binds, on the deep.
    """

    def __init__(self, problem: CorrectionProblem, choice: np.ndarray):
        self.cost = problem.cost
        self.target = problem.target_flat
        self.home = problem.target_flat[-1]
        self.cap = problem.cap
        offsets = direction_set(len(problem.dims)) @ G.c_strides(problem.dims)
        self.offset_dir = {int(off): i for i, off in enumerate(offsets)}
        self.current = choice

    def direction(self, j: int, c_flat: int) -> int:
        return self.offset_dir[int(c_flat) - int(self.home[j])]

    def __call__(self, j: int, c_flat: int) -> float:
        return float(self.cost[self.direction(j, c_flat), j] - self.cost[self.current[j], j])


def best_edge(c: int, c_next: int, members: CellMembers, edge_cost: EdgeCost,
              crossing: tuple[np.ndarray, np.ndarray]) -> tuple[int, float] | None:
    """Cheapest particle of cell c able to move into c_next, with its edge cost.

    Particles whose previous-step cell is neither c nor c_next would end
    farther than one cell from where they started and are skipped.
    ``crossing`` is the (from, to) pair of class masks of the heavy side's
    interface crossing: a move that way takes only particles returning to
    their previous-step cell c_next, and a move the opposite way is refused.
    """
    back_from, back_to = crossing
    if back_to[c] and back_from[c_next]:
        return None
    returning_only = bool(back_from[c] and back_to[c_next])
    home = edge_cost.home
    best_j = None
    best_sigma = np.inf
    for j in members.members(c):
        pc = int(home[j])
        if c_next != pc and (returning_only or c != pc):
            continue
        s = edge_cost(j, c_next)
        if best_j is None or s < best_sigma:
            best_j, best_sigma = j, s
    return None if best_j is None else (best_j, best_sigma)


def find_paths(cells: G.CellGrid, members: CellMembers, sources: np.ndarray,
               sinks: np.ndarray, edge_cost: EdgeCost,
               crossing: tuple[np.ndarray, np.ndarray]) -> tuple[list[tuple[int, int]], np.ndarray]:
    """Multi-source Dijkstra for cell-disjoint particle-push chains.

    Non-empty source cells seed the queue at cost zero. Dequeued cells are
    claimed by the first path reaching them; a sink with space under the
    problem's cap (always in the deep, whose cap is n: a path reaches a cell
    only by a move from another, so the cell holds fewer) completes its root's
    path as an (edge, sink) pair: the particle carrying the final move and
    the sink cell. Interface crossings follow ``crossing``, see
    :func:`best_edge`. Edge costs may be negative (the search is kept
    verbatim from the push-chain formulation), so results can be suboptimal
    but stay valid. Neighbours are reached by the grid's flat shifts: every
    dequeued cell is a fluid source or was reached at a finite edge cost,
    and a wall cell costs inf, so no dequeued cell lies on the wall layer.
    """
    J = np.full(cells.ncells, NONE, dtype=np.int64)
    sigma = np.full(cells.ncells, np.inf)
    b_fin: dict[int, bool] = {}
    heap: list[tuple[float, int, int, int, int]] = []
    seq = 0
    for c in np.sort(np.asarray(sources, dtype=np.int64)):
        c = int(c)
        if members.counts[c] == 0:
            continue
        J[c] = ROOT
        sigma[c] = 0.0
        heapq.heappush(heap, (0.0, seq, c, ROOT, c))
        seq += 1

    sink_mask = np.zeros(cells.ncells, dtype=bool)
    sink_mask[np.asarray(sinks, dtype=np.int64)] = True
    cap = edge_cost.cap
    paths: list[tuple[int, int]] = []

    while heap:
        cost, _, c, edge, root = heapq.heappop(heap)
        if b_fin.get(root, False):
            continue
        if edge != ROOT:
            if J[c] != NONE:
                continue
            J[c] = edge
            if sink_mask[c] and members.counts[c] < cap[c]:
                b_fin[root] = True
                paths.append((edge, c))
                continue
        for shift in cells.vn_shifts:
            c_next = c + shift
            if J[c_next] != NONE:
                continue
            edge = best_edge(c, c_next, members, edge_cost, crossing)
            if edge is None:
                continue
            j, s = edge
            t = cost + s
            if t >= sigma[c_next]:
                continue
            sigma[c_next] = t
            heapq.heappush(heap, (t, seq, c_next, j, root))
            seq += 1
    return paths, J


def update_path(path: tuple[int, int], J: np.ndarray, members: CellMembers,
                edge_cost: EdgeCost) -> None:
    """Move the chain of particles along a completed (edge, sink) path, sink
    first, by editing their entries of the choice vector ``edge_cost.current``.

    Every cell the path passes keeps its count and the sink gains one. A cell
    above its cap is an error; a deep cell's cap is n, so it may legally
    hold more than mu after the plain solve, and a refill path may end in one
    that is already full.
    """
    j, sink = path
    before_sink = int(members.counts[sink])
    c = sink
    cap = edge_cost.cap
    root = None
    while j != ROOT:
        src = int(edge_cost.target[edge_cost.current[j], j])
        edge_cost.current[j] = edge_cost.direction(j, c)
        members.move(j, src, c)
        if cap[c] < members.counts[c]:
            raise IntegrityError(f"cell {c} overfilled while updating a path")
        j, c = int(J[src]), src
        root = src
    if int(members.counts[sink]) != before_sink + 1:
        raise IntegrityError("path update did not add exactly one particle to the sink")
    if root is None:
        raise IntegrityError("degenerate path with no moves")


def correct_band_flow(cells: G.CellGrid, problem: CorrectionProblem, choice: np.ndarray,
                      classes: dict[str, np.ndarray], state: BandState) -> dict:
    """Restore interface balance by pushing particles along grid paths.

    ``choice`` is the plain solve of ``problem``; this attaches the band row
    to ``problem`` (:func:`attach_region`), reads the slacks off the region's
    count, and edits ``choice`` in place until it meets the row. Path edges
    are priced from the problem's candidate table, and cells hold at most
    their cap in the problem. Returns the diagnostics; raises NoPathError
    when a search finds no path while moves are still owed.
    Finds and applies paths, recalling the search on the residual state,
    until the negative slack is repaid. Draining (s_in < 0) runs from the interface up;
    refilling (s_out < 0) runs from the surface down. A path crosses the
    interface only by returning one heavy-side crosser of the first solve to
    its previous-step cell (interface -> layer above when draining, layer
    above -> interface when refilling), and the lighter direction never
    changes. Each applied path therefore reverts exactly one heavy-side
    crossing, so the result stays inside the one-way problem: the full
    problem with the lighter side's crossings frozen, the heavy side's
    unselected crossings blocked, and the region count fixed to the end of
    its interval that the heavy side overran.
    """
    attach_region(problem, classes, state.alpha_le)
    s_in, s_out = region_slack(problem, choice)
    diag = {"n_move": 0, "paths": 0, "find_calls": 0, "s_in": s_in, "s_out": s_out}
    if s_in >= 0 and s_out >= 0:
        return diag

    interface, above = classes["interface"], classes["layer_above"]
    if s_in < 0:  # drain: interface -> shallower band
        n_move = -s_in
        sources = np.flatnonzero(interface)
        sinks = np.flatnonzero(classes["surface"] | classes["in_band_inner"] | classes["empty"])
        crossing = (interface, above)
    else:  # refill the interface from above
        n_move = -s_out
        sources = np.flatnonzero(classes["surface"])
        sinks = np.flatnonzero(interface | classes["deep"])
        crossing = (above, interface)

    members = CellMembers(problem.target_flat[choice, np.arange(problem.n)], cells.ncells)
    edge_cost = EdgeCost(problem, choice)

    applied = 0
    calls = 0
    total_paths = 0
    while applied < n_move:
        paths, J = find_paths(cells, members, sources, sinks, edge_cost, crossing)
        calls += 1
        if not paths:
            raise NoPathError(f"flow-paths found no path with {n_move - applied} moves outstanding")
        total_paths += len(paths)
        for path in paths:
            if applied == n_move:
                break
            update_path(path, J, members, edge_cost)
            applied += 1

    s_in, s_out = region_slack(problem, choice)
    if s_in < 0 or s_out < 0:
        raise IntegrityError(f"band slack still negative after correction: {s_in}, {s_out}")
    diag.update({"n_move": n_move, "paths": total_paths, "find_calls": calls,
                 "s_in": s_in, "s_out": s_out})
    return diag


# ----------------------------------------------------------------------
# particle bookkeeping at the end of a band step

def maintain_band(cells: G.CellGrid, particles, state: BandState, former: dict[str, np.ndarray],
                  mu: int, rng: np.random.Generator, mac) -> dict:
    """Delete particles that reached the deep, reseed the excess into the band.

    Runs after the marking update; ``former`` are the band classes the
    correction saw, those of the markings before the update. Particles below
    depth -R are removed into n_deep; when n_deep exceeds the deep capacity,
    band-interface cells are visited in seeded-random order and filled to mu
    with new particles at uniform-random positions, velocities interpolated
    from the grid.

    The interface balance constraints guarantee interface space only against
    the markings the correction saw; the marking update that just ran can
    shift the depth classes by a few cells, so any remainder spills into the
    shallower band cells (and the surface as a last resort) before the state
    is declared corrupt.
    """
    classes = G.band_classes(cells, state.R)
    deep_cells = classes["deep"]

    # cells the correction treated as deep (former depth) may have been
    # reclassified shallower by the marking update; their legal overflow
    # still counts as particles that reached the deep and is removed with
    # the deep residents, keeping each cell's mu earliest residents
    flat = cells.cell_of(particles.x)
    counts = np.bincount(flat, minlength=cells.ncells)
    over = (counts > mu) & ~deep_cells & ~cells.solid_mask()
    if not former["deep"][over].all():
        raise IntegrityError("overfull cell outside the former deep region")
    kill = deep_cells[flat] | (over[flat] & (G.rank_in_cell(flat, counts)[1] >= mu))
    particles.keep(~kill)
    removed = int(kill.sum())
    state.n_deep += removed

    n_excess = state.n_deep - mu * int(deep_cells.sum())
    added = 0
    if n_excess > 0:
        counts = np.bincount(flat[~kill], minlength=cells.ncells)
        new_pos = []
        for name in ("interface", "in_band_inner", "surface"):  # disjoint classes
            if added < n_excess:
                visit = rng.permutation(np.flatnonzero(classes[name]))
                new_pos.append(G.fill_cells(cells, visit, mu - counts[visit], rng,
                                            limit=n_excess - added))
                added += len(new_pos[-1])
        if added < n_excess:
            raise IntegrityError(
                f"band cannot absorb {n_excess} excess particles (placed {added})")
        pos = np.vstack(new_pos)
        particles.append(pos, velocity_at(mac, pos))
        state.n_deep -= added

    cells.rebuild_counts(particles.x)
    return {"removed": removed, "reseeded": added, "n_excess": max(n_excess, 0)}

