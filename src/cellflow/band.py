"""Incompressible band method: bookkeeping, balance constraint, flow along paths.

Only cells within R levels of the surface carry particles; deeper fluid is
simulated on the grid alone. An imaginary particle count n_deep tracks what
was deleted below the band. The net particle flux into the band interface
must lie between zero and the air available at or below it. The full
strategy states that as a bound on the particle count of the interface and
the deep together, which the flow solve meets exactly (see
:func:`attach_region`). The flow-paths strategy applies the plain solve and
then repairs the balance by pushing particles along grid paths.
"""
from __future__ import annotations

import heapq
from bisect import insort
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import grid as G
from .correction import CorrectionProblem
from .errors import IntegrityError

ROOT = -2
NONE = -1


class BandStrategy(Enum):
    FULL = "full"
    FLOW_PATHS = "flow"


@dataclass
class BandState:
    R: int
    n_deep: int = 0
    strategy: BandStrategy = BandStrategy.FLOW_PATHS
    alpha_interface: int = 0
    alpha_deep: int = 0
    # diagnostics of the latest step
    last_s_in: int = 0
    last_s_out: int = 0

    @property
    def alpha_le(self) -> int:
        return self.alpha_interface + self.alpha_deep


def band_classes(prev: G.GridSnapshot, R: int) -> dict[str, np.ndarray]:
    """Previous-step cell classes used by every band constraint."""
    fluid = (prev.marking == G.SURFACE) | (prev.marking == G.INNER)
    return {
        "surface": prev.marking == G.SURFACE,
        "interface": fluid & (prev.depth == -R),
        "in_band_inner": (prev.marking == G.INNER) & (prev.depth > -R) & (prev.depth < 0),
        "deep": fluid & (prev.depth < -R),
        "region": fluid & (prev.depth <= -R),  # interface and deep
        "layer_above": fluid & (prev.depth == 1 - R),
        "empty": prev.marking == G.EMPTY,
    }


def compute_alphas(cells: G.CellGrid, state: BandState, mu: int) -> tuple[int, int]:
    """Air available in the band interface and in the deep."""
    if cells.prev is None:
        raise IntegrityError("band alphas need a previous-step snapshot")
    cls = band_classes(cells.prev, state.R)
    a_int = mu * int(cls["interface"].sum()) - int(cells.prev.counts[cls["interface"]].sum())
    a_deep = mu * int(cls["deep"].sum()) - state.n_deep
    if a_int < 0 or a_deep < 0:
        raise IntegrityError(f"negative band air: alpha_interface={a_int}, alpha_deep={a_deep}")
    state.alpha_interface = a_int
    state.alpha_deep = a_deep
    return a_int, a_deep


def attach_region(problem: CorrectionProblem, classes: dict[str, np.ndarray],
                  prev_cells: np.ndarray, alpha_le: int) -> None:
    """Attach the band row 0 <= n_in - n_out <= alpha as a count on the region.

    The region is the band interface and the deep, from the previous
    markings. Depth is a von Neumann distance inside the fluid, so a region
    cell borders only region cells, layer-above cells and walls, and every
    move changes the region's count by [target in region] - [prev in region]
    = [in] - [out]. With F particles starting in the region, the row reads
    F <= count(region) <= F + alpha. The identity is checked on every valid
    candidate into a cell that can hold particles.
    """
    region, iface, above = classes["region"], classes["interface"], classes["layer_above"]
    target = np.where(problem.valid, problem.target_flat, 0)
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


# ----------------------------------------------------------------------
# flow along paths

@dataclass
class Path:
    edge: int   # particle carrying the final move into the sink
    sink: int   # flat cell index


class CellMembers:
    """Mutable per-cell particle membership, kept sorted for determinism."""

    def __init__(self, cells: G.CellGrid, x: np.ndarray):
        flat = cells.cell_of(x) if len(x) else np.zeros(0, dtype=np.int64)
        self.counts = np.bincount(flat, minlength=cells.ncells).astype(np.int64)
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

    Both costs and the landing point are read from the problem's candidate
    table, so the solid penalty is the one the solver saw. A cell is priced
    by its offset from the particle's previous-step cell (the table's stay
    target); flow-paths only asks about such candidate cells. A wall cell
    costs inf.
    """

    def __init__(self, problem: CorrectionProblem, cells: G.CellGrid, x: np.ndarray):
        self.cost = problem.cost
        self.xi = problem.candidates.xi
        self.home = problem.target_flat[-1]
        strides = np.array([int(np.prod(cells.dims[k + 1:])) for k in range(cells.d)])
        self.offset_dir = {int(off): i for i, off in enumerate(problem.candidates.dirs.dirs @ strides)}
        hit = problem.target_flat == cells.cell_of(x)[None, :]
        if not hit.any(axis=0).all():
            raise IntegrityError("a particle stands outside its candidate cells")
        self.current = hit.argmax(axis=0)

    def direction(self, j: int, c_flat: int) -> int:
        return self.offset_dir[int(c_flat) - int(self.home[j])]

    def landing(self, j: int, c_flat: int) -> np.ndarray:
        return self.xi[self.direction(j, c_flat), j]

    def move(self, j: int, c_flat: int) -> np.ndarray:
        """Record particle j as moved into c_flat; returns its landing point."""
        self.current[j] = self.direction(j, c_flat)
        return self.xi[self.current[j], j]

    def __call__(self, j: int, c_flat: int) -> float:
        return float(self.cost[self.direction(j, c_flat), j] - self.cost[self.current[j], j])


@dataclass
class PathRule:
    """What a flow-paths push may do in one repair mode.

    A move from a ``back_from`` cell into a ``back_to`` cell crosses the band
    interface in the heavy side's direction: interface -> layer above when
    draining (too many entrants), layer above -> interface when refilling
    (too many leavers). Such a move is open only to a particle returning to
    its previous-step cell, so it reverts one first-solve crossing of the
    heavy side; a move the opposite way would add a crossing the one-way
    problem freezes and is refused. ``uncapped`` marks the cells without a
    particle cap, the deep cells as in the correction problem; every other
    cell holds at most mu.
    """

    back_from: np.ndarray  # (ncells,) bool
    back_to: np.ndarray    # (ncells,) bool
    uncapped: np.ndarray   # (ncells,) bool


def path_rule(classes: dict[str, np.ndarray], drain: bool) -> PathRule:
    """The crossing and capacity rule of the drain or the refill mode."""
    interface, above = classes["interface"], classes["layer_above"]
    if drain:
        return PathRule(back_from=interface, back_to=above, uncapped=classes["deep"])
    return PathRule(back_from=above, back_to=interface, uncapped=classes["deep"])


def best_edge(c: int, c_next: int, members: CellMembers, x_prev_cells: np.ndarray,
              edge_cost: EdgeCost, rule: PathRule) -> tuple[int, float] | None:
    """Cheapest particle of cell c able to move into c_next, with its edge cost.

    Particles whose previous-step cell is neither c nor c_next would end
    farther than one cell from where they started and are skipped. A move in
    the rule's heavy-side crossing direction takes only particles returning
    to their previous-step cell c_next; a move the opposite way across the
    interface is refused.
    """
    if rule.back_to[c] and rule.back_from[c_next]:
        return None
    returning_only = bool(rule.back_from[c] and rule.back_to[c_next])
    best_j = None
    best_sigma = np.inf
    for j in members.members(c):
        pc = int(x_prev_cells[j])
        if c_next != pc and (returning_only or c != pc):
            continue
        s = edge_cost(j, c_next)
        if best_j is None or s < best_sigma:
            best_j, best_sigma = j, s
    return None if best_j is None else (best_j, best_sigma)


def find_paths(cells: G.CellGrid, members: CellMembers, x_prev_cells: np.ndarray,
               sources: np.ndarray, sinks: np.ndarray, mu: int,
               edge_cost: EdgeCost, rule: PathRule) -> tuple[list[Path], np.ndarray]:
    """Multi-source Dijkstra for cell-disjoint particle-push chains.

    Non-empty source cells seed the queue at cost zero. Dequeued cells are
    claimed by the first path reaching them; a sink with space completes its
    root's path. Space follows the correction problem's caps: a cell holds at
    most mu, except that the rule's uncapped (deep) cells always have space.
    Interface crossings follow the rule, see :func:`best_edge`. Edge costs
    may be negative (the search is kept verbatim from the push-chain
    formulation), so results can be suboptimal but stay valid.
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
    paths: list[Path] = []

    while heap:
        cost, _, c, edge, root = heapq.heappop(heap)
        if b_fin.get(root, False):
            continue
        if edge != ROOT:
            if J[c] != NONE:
                continue
            J[c] = edge
            if sink_mask[c] and (members.counts[c] < mu or rule.uncapped[c]):
                b_fin[root] = True
                paths.append(Path(edge=edge, sink=c))
                continue
        for c_next in cells.vn_neighbors_flat(c):
            c_next = int(c_next)
            if c_next < 0 or J[c_next] != NONE:
                continue
            edge = best_edge(c, c_next, members, x_prev_cells, edge_cost, rule)
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


def update_path(path: Path, J: np.ndarray, cells: G.CellGrid, particles,
                members: CellMembers, edge_cost: EdgeCost, mu: int,
                rule: PathRule) -> None:
    """Move the chain of particles along a completed path, sink first.

    Every cell the path passes keeps its count and the sink gains one. A cell
    above mu is an error unless the rule leaves it uncapped; a deep cell may
    legally hold more than mu after the plain solve, and a refill path may
    end in one that is already full.
    """
    before_sink = int(members.counts[path.sink])
    j, c = path.edge, path.sink
    root = None
    while j != ROOT:
        src = int(cells.cell_of(particles.x[j:j + 1])[0])
        particles.x[j] = edge_cost.move(j, c)
        members.move(j, src, c)
        if members.counts[c] > mu and not rule.uncapped[c]:
            raise IntegrityError(f"cell {c} overfilled while updating a path")
        j, c = int(J[src]), src
        root = src
    if int(members.counts[path.sink]) != before_sink + 1:
        raise IntegrityError("path update did not add exactly one particle to the sink")
    if root is None:
        raise IntegrityError("degenerate path with no moves")


def io_from_positions(cells: G.CellGrid, x_prev: np.ndarray, x: np.ndarray,
                      classes: dict[str, np.ndarray], alpha_le: int) -> tuple[int, int, int, int]:
    """Interface crossings measured directly from positions."""
    if len(x) == 0:
        return 0, 0, alpha_le, 0
    src = cells.cell_of(x_prev)
    dst = cells.cell_of(x)
    n_in = int((classes["layer_above"][src] & classes["interface"][dst]).sum())
    n_out = int((classes["interface"][src] & classes["layer_above"][dst]).sum())
    return n_in, n_out, n_out - n_in + alpha_le, n_in - n_out


def correct_band_flow(cells: G.CellGrid, particles, state: BandState, mu: int,
                      problem: CorrectionProblem) -> dict:
    """Restore interface balance by pushing particles along grid paths.

    Requires the plain solve of ``problem`` already applied to particle
    positions; path edges are priced and placed from its candidate table.
    Finds and applies paths, recalling the search on the residual state,
    until the negative slack is repaid. Draining (s_in < 0) runs from the interface up;
    refilling (s_out < 0) runs from the surface down. The mode's
    :class:`PathRule` lets a path cross the interface only by returning one
    heavy-side crosser of the first solve to its previous-step cell, and the
    lighter direction never changes. Each applied path therefore reverts
    exactly one heavy-side crossing, so the result stays inside the one-way
    problem: the full problem with the lighter side's crossings frozen, the
    heavy side's unselected crossings blocked, and the region count fixed
    to the end of its interval that the heavy side overran. Deep cells are
    uncapped as in the correction problem; every other cell holds at most mu.
    """
    if cells.prev is None:
        raise IntegrityError("band correction needs a previous-step snapshot")
    classes = band_classes(cells.prev, state.R)
    alpha_le = state.alpha_le
    n_in, n_out, s_in, s_out = io_from_positions(cells, particles.x_prev, particles.x, classes, alpha_le)
    diag = {"n_move": 0, "paths": 0, "find_calls": 0, "s_in": s_in, "s_out": s_out}
    if s_in >= 0 and s_out >= 0:
        return diag

    drain = s_in < 0
    if drain:  # interface -> shallower band
        n_move = -s_in
        sources = np.flatnonzero(classes["interface"])
        sinks = np.flatnonzero(classes["surface"] | classes["in_band_inner"] | classes["empty"])
    else:  # refill the interface from above
        n_move = -s_out
        sources = np.flatnonzero(classes["surface"])
        sinks = np.flatnonzero(classes["interface"] | classes["deep"])
    rule = path_rule(classes, drain)

    members = CellMembers(cells, particles.x)
    x_prev_cells = cells.cell_of(particles.x_prev)
    edge_cost = EdgeCost(problem, cells, particles.x)

    applied = 0
    calls = 0
    total_paths = 0
    while applied < n_move:
        paths, J = find_paths(cells, members, x_prev_cells, sources, sinks, mu, edge_cost, rule)
        calls += 1
        if not paths:
            raise IntegrityError(
                f"flow-paths found no path with {n_move - applied} moves outstanding")
        total_paths += len(paths)
        for path in paths:
            if applied == n_move:
                break
            update_path(path, J, cells, particles, members, edge_cost, mu, rule)
            applied += 1

    n_in, n_out, s_in, s_out = io_from_positions(cells, particles.x_prev, particles.x, classes, alpha_le)
    if s_in < 0 or s_out < 0:
        raise IntegrityError(f"band slack still negative after correction: {s_in}, {s_out}")
    diag.update({"n_move": n_move, "paths": total_paths, "find_calls": calls,
                 "s_in": s_in, "s_out": s_out})
    return diag


# ----------------------------------------------------------------------
# particle bookkeeping at the end of a band step

def maintain_band(cells: G.CellGrid, particles, state: BandState, mu: int,
                  rng: np.random.Generator, mac=None) -> dict:
    """Delete particles that reached the deep, reseed the excess into the band.

    Runs after the marking update. Particles below depth -R are removed into
    n_deep; when n_deep exceeds the deep capacity, band-interface cells are
    visited in seeded-random order and filled to mu with new particles at
    uniform-random positions, velocities interpolated from the grid.

    The interface balance constraints guarantee interface space only against
    the markings the correction saw; the marking update that just ran can
    shift the depth classes by a few cells, so any remainder spills into the
    shallower band cells (and the surface as a last resort) before the state
    is declared corrupt.
    """
    fluid = cells.fluid_mask()
    deep_cells = fluid & (cells.depth < -state.R)
    interface_cells = np.flatnonzero(fluid & (cells.depth == -state.R))
    in_band_cells = np.flatnonzero(fluid & (cells.depth > -state.R) & (cells.depth < 0))
    surface_cells = np.flatnonzero(fluid & (cells.depth == 0))

    removed = 0
    if particles.n:
        flat = cells.cell_of(particles.x)
        kill = deep_cells[flat]
        removed = int(kill.sum())
        if removed:
            particles.alive[kill] = False
            particles.compact()
            state.n_deep += removed

    # cells the correction treated as deep (snapshot depth) may have been
    # reclassified shallower by the marking update; their legal overflow
    # still counts as particles that reached the deep and is removed here
    if particles.n:
        flat = cells.cell_of(particles.x)
        counts = np.bincount(flat, minlength=cells.ncells)
        over = np.flatnonzero((counts > mu) & ~cells.solid_mask())
        if len(over):
            if cells.prev is not None:
                prev_fluid = (cells.prev.marking == G.SURFACE) | (cells.prev.marking == G.INNER)
                prev_deep = prev_fluid & (cells.prev.depth < -state.R)
                if not prev_deep[over].all():
                    raise IntegrityError("overfull cell outside the former deep region")
            kill = np.zeros(particles.n, dtype=bool)
            for c in over:
                residents = np.flatnonzero(flat == c)
                kill[residents[mu:]] = True  # keep the mu earliest residents
            particles.alive[kill] = False
            particles.compact()
            removed += int(kill.sum())
            state.n_deep += int(kill.sum())

    n_excess = state.n_deep - mu * int(deep_cells.sum())
    added = 0
    if n_excess > 0:
        counts = (np.bincount(cells.cell_of(particles.x), minlength=cells.ncells)
                  if particles.n else np.zeros(cells.ncells, dtype=np.int64))
        new_pos = []

        def fill_from(candidates) -> None:
            nonlocal added
            for c in rng.permutation(candidates):
                space = mu - int(counts[c])
                while space > 0 and added < n_excess:
                    lo = cells.unflat(int(c)).astype(np.float64)
                    new_pos.append(lo + rng.uniform(0.01, 0.99, size=cells.d))
                    counts[c] += 1
                    space -= 1
                    added += 1
                if added == n_excess:
                    return

        fill_from(interface_cells)
        if added < n_excess:
            fill_from(in_band_cells)
        if added < n_excess:
            fill_from(surface_cells)
        if added < n_excess:
            raise IntegrityError(
                f"band cannot absorb {n_excess} excess particles (placed {added})")
        if new_pos:
            pos = np.asarray(new_pos)
            if mac is not None:
                from .flip import velocity_at
                vel = velocity_at(mac, pos)
            else:
                vel = np.zeros_like(pos)
            particles.append(pos, vel)
            state.n_deep -= added

    cells.rebuild_counts(particles.x)
    return {"removed": removed, "reseeded": added, "n_excess": max(n_excess, 0)}


def band_write_cells(cells: G.CellGrid, R: int) -> np.ndarray:
    """Cells whose faces the particle-to-grid transfer may overwrite: all
    non-solid cells shallower than the band interface (air included)."""
    fluid = cells.fluid_mask()
    grid_owned = fluid & (cells.depth <= -R)
    return ~grid_owned & ~cells.solid_mask()


def band_grid_faces(cells: G.CellGrid, mac, R: int) -> list[np.ndarray]:
    """Faces advected semi-Lagrangian: those touching grid-owned fluid."""
    fluid = cells.fluid_mask()
    grid_owned = fluid & (cells.depth <= -R)
    return [G.face_mask(mac.dims, a, grid_owned) for a in range(mac.d)]
