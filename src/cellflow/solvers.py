"""Solvers for the correction problem.

The sparse problem (no dense rows) is a transportation problem (Ahuja,
Magnanti & Orlin, *Network Flows*, 1993, ch. 9). Each particle holds one unit,
which goes to one of its candidate cells at that candidate's cost. Cell u
takes floor[u]..cap[u] units and passes those above its floor on to a sink,
whose deficit is n - sum(floor). Its LP relaxation is integral, so it is
solved exactly by successive shortest paths with cell potentials. Routing
starts from a greedy pseudo-flow built in numpy: every particle on its
cheapest candidate, each cell accepting the first cap of the particles that
picked it, and every potential 0. Successive shortest paths may start there:
no count exceeds its cap, and every residual arc has reduced cost >= 0, since
moving an accepted particle to another candidate costs the difference from
its cheapest, and the arcs between the cells and the sink cost 0. So only the
rejected particles are searched, and a start that rejects none and leaves no
cell below its floor is optimal as it stands. The searches run on the cell
graph, where moving a particle of cell u to its candidate v is an arc u -> v.
Of the parallel arcs between two cells, one per member of the tail cell, only
the cheapest can lie on a shortest path, and augmenting along it leaves the
others' reduced costs nonnegative; so a search relaxes one cached arc per
neighbour cell, while the final optimality check still covers every candidate.
A unit that reaches the sink stays there even once the sink's deficit is met:
successive shortest paths may end an augmentation at any node of a shortest
path, so reduced costs stay nonnegative and the sink just ends the routing
with excess. That excess is drained into the cells still below their floor by
Dijkstra searches run backward from each such cell until they pop the sink;
raising every popped node's potential by its distance short of the sink's
keeps each reduced cost nonnegative and zeroes those on the path. The drain
thus reaches those few cells directly instead of relaxing the sink's
zero-cost arcs into nearly every cell on the way. Dense band rows break that
structure; they go through a small branch-and-bound over the row's candidate
variables with the flow solve as relaxation bound. A pruned exhaustive search
doubles as an independent oracle for both.
"""
from __future__ import annotations

import heapq
import time
from dataclasses import dataclass

import numpy as np

from .correction import Assignment, CorrectionProblem
from .errors import InputError, IntegrityError

# Enables O(E) per-iteration reduced-cost assertions inside solve_mcf.
CHECK_POTENTIALS = False


@dataclass
class FlowNetwork:
    """Transportation network of a sparse correction problem, in cell terms.

    Each particle holds one unit, which goes to one of its candidates. The
    cells are those some candidate reaches, ranked in grid order; cell u takes
    floor[u]..cap[u] units, and the sink takes the rest, a deficit of
    n - sum(floor).
    """

    n_particles: int
    cand_j: np.ndarray     # particle per candidate, ordered by (particle, direction)
    cand_i: np.ndarray     # direction per candidate
    cand_cell: np.ndarray  # cell per candidate
    cand_cost: np.ndarray  # cost per candidate
    cap: np.ndarray        # per cell; n where the problem leaves the cell uncapped
    floor: np.ndarray      # per cell

    @property
    def n_arcs(self) -> int:
        """Arcs of the textbook network: source -> particle, candidates, cell -> sink."""
        return self.n_particles + len(self.cand_j) + len(self.cap)


@dataclass
class SolveStats:
    objective: float
    wall_time: float
    searches: int = 0  # forward Dijkstra runs, one per particle the greedy start rejected
    pops: int = 0      # nodes finalized over all searches, forward and backward
    scans: int = 0     # arc-table entries read at popped cells
    drains: int = 0    # backward Dijkstra runs, one per unit of floor the routing left


def reduce_to_flow(problem: CorrectionProblem) -> FlowNetwork:
    """Build the transportation network of the sparse correction problem."""
    if problem.dense_rows:
        raise InputError("problem has dense rows; use branch_and_bound")
    n = problem.n
    # candidates ordered by (particle, direction)
    jj, ii = np.nonzero(problem.valid.T)
    cand_grid = problem.target_flat[ii, jj]
    # the grid cells some candidate reaches, in grid order, and their ranks
    reached = np.bincount(cand_grid, minlength=len(problem.cap)) > 0
    used = np.flatnonzero(reached)

    floored = np.flatnonzero(problem.floor > 0)
    missing = floored[~reached[floored]]
    if missing.size:
        raise IntegrityError(f"floored cells unreachable by any candidate: {missing[:4].tolist()}")

    cap = problem.cap[used]
    cap = np.where(cap < 0, n, cap)
    floor = problem.floor[used]
    if (floor > cap).any():
        raise IntegrityError("cell floor exceeds capacity")

    return FlowNetwork(
        n_particles=n,
        cand_j=jj.astype(np.int64),
        cand_i=ii.astype(np.int64),
        cand_cell=(np.cumsum(reached) - 1)[cand_grid],
        cand_cost=problem.cost[ii, jj],
        cap=cap, floor=floor,
    )


def solve_mcf(net: FlowNetwork) -> tuple[Assignment, SolveStats]:
    """Integral min-cost flow by successive shortest paths on the cell graph.

    Each particle holds one unit of excess; cell u has a deficit of floor[u]
    and room up to cap[u], and the sink a deficit of n - sum(floor). Node
    potentials pi are kept per cell and for the sink.

    The routing starts from a greedy pseudo-flow, computed in numpy: each
    particle picks its first cheapest candidate, and each cell accepts the
    first cap[v] of the particles that picked it, in index order. At pi = 0
    this start leaves every residual arc with reduced cost >= 0: moving an
    accepted particle to another candidate costs that candidate's cost less
    the cheapest, and the cell -> sink arcs with room and the sink -> cell
    arcs above the floor cost 0. No count exceeds its cap. Successive
    shortest paths may start from any such pseudo-flow, so if no particle is
    rejected and no cell is below its floor the start is optimal and is
    returned as it is. Otherwise the rejected particles, whose cheapest cell
    is full, are routed in index order to the nearest cell below its floor
    or to the sink, by Dijkstra over reduced costs, and potentials of
    finalized nodes are updated after every augmentation.

    The searches run on cells. A particle p in cell u may move to its
    candidate v, an arc u -> v of reduced cost
    cost[v, p] - cost[u, p] + pi[u] - pi[v]. This is the textbook network with
    each assigned particle's node contracted, which is exact: that node's
    only incoming residual arc is from u, and reduced costs add along
    u -> p -> v, where p's potential cancels. Shortest paths, potentials and
    the optimality test are thus those of the network with particle nodes.

    Only the cheapest of the parallel arcs u -> v (one per member of u) can
    lie on a shortest path, and augmenting along it leaves the others' reduced
    costs, no smaller, nonnegative. So a popped cell reads a table of its
    cheapest arc per neighbour, dropped whenever the cell's members change.
    The final check still tests every candidate.

    A unit that reaches the sink stays there even once the sink's deficit is
    used up. Successive shortest paths may move excess to any node of a
    shortest path, so reduced costs stay nonnegative; the sink merely ends
    the routing with excess, one unit per unit of floor still missing. Each
    such unit is then drained by a Dijkstra search backward from a cell below
    its floor over in-arcs, stopped when it pops the sink at distance D;
    every popped node u gains D - d[u], which keeps every reduced cost
    nonnegative and zeroes those along the path. Every particle is routed
    before a drain raises a potential, so an unrouted particle's arcs, priced
    at potential 0, never turn negative. The in-arc tables, each cell's
    cheapest in-arc per predecessor cell, are built only if the sink ends
    with excess, and a moving particle drops those of its candidate cells.
    """
    t0 = time.perf_counter()
    n = net.n_particles
    K = len(net.cap)  # cells; the sink is node K
    sink = K
    if int(net.floor.sum()) > n:
        raise IntegrityError("min-cost flow infeasible: floors exceed the particle count")

    # candidate indices per particle, in direction order
    starts = np.searchsorted(net.cand_j, np.arange(n + 1))
    sizes = np.diff(starts)
    if (sizes == 0).any():
        raise IntegrityError("min-cost flow infeasible: some particle has no candidate")

    # greedy start: each particle's first cheapest candidate; each cell
    # accepts the first cap of the particles that picked it, in index order
    cheapest = np.minimum.reduceat(net.cand_cost, starts[:-1])
    at_min = np.flatnonzero(net.cand_cost == np.repeat(cheapest, sizes))
    pick = at_min[np.searchsorted(at_min, starts[:-1])]
    pick_cell = net.cand_cell[pick]
    picked = np.bincount(pick_cell, minlength=K)
    order = np.argsort(pick_cell, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n) - np.repeat(np.cumsum(picked) - picked, picked)
    accepted = rank < net.cap[pick_cell]
    count_np = np.minimum(picked, net.cap)
    if accepted.all() and (count_np >= net.floor).all():
        _check_reduced_costs(net, pick, np.zeros(K + 1), count_np)
        return Assignment(choice=net.cand_i[pick]), SolveStats(
            objective=float(net.cand_cost[pick].sum()), wall_time=time.perf_counter() - t0)

    starts = starts.tolist()
    spans = [range(starts[p], starts[p + 1]) for p in range(n)]
    cand_cell, cand_cost = net.cand_cell.tolist(), net.cand_cost.tolist()
    cand_p = net.cand_j.tolist()
    cap, floor = net.cap.tolist(), net.floor.tolist()

    count = count_np.tolist()
    kept, ends = order[accepted[order]].tolist(), np.cumsum(count_np).tolist()
    members = [kept[e - c:e] for c, e in zip(count, ends)]  # per cell, in index order
    table: list[dict | None] = [None] * K  # per cell: {v: (cost, candidate)}
    intab: list[dict | None] | None = None  # per cell: {u: (cost, candidate)}, drains only
    assigned = pick.tolist()  # candidate index per particle; a rejected one's is set when routed
    pi = [0.0] * (K + 1)
    dist = [0.0] * (K + 1)
    stamp = [0] * (K + 1)
    prev = [-1] * (K + 1)  # next node toward the search's root, -1 for the root
    via = [-1] * (K + 1)   # candidate moved along that arc, -1 for a sink arc
    check = CHECK_POTENTIALS
    run = pops = scans = drains = 0
    heappush, heappop = heapq.heappush, heapq.heappop

    def reach(v: int, d: float, rc: float, u: int, k: int) -> None:
        """Relax the arc between u and v (reduced cost rc) at distance d from u."""
        if check and rc < -1e-9:
            raise IntegrityError(f"negative reduced cost {rc} into node {v}")
        nd = d + rc
        if stamp[v] != run or nd < dist[v]:
            dist[v] = nd
            stamp[v] = run
            prev[v] = u
            via[v] = k
            heappush(heap, (nd, v))

    def place(p: int, u: int, k: int) -> None:
        """Move particle p from cell u (-1 if unrouted) into candidate k; drop its tables."""
        if u >= 0:
            members[u].remove(p)
            count[u] -= 1
            table[u] = None
        members[cand_cell[k]].append(p)
        count[cand_cell[k]] += 1
        table[cand_cell[k]] = None
        assigned[p] = k
        if intab is not None:
            for c in spans[p]:
                intab[cand_cell[c]] = None

    for q in np.flatnonzero(~accepted).tolist():  # an unrouted particle has pi = 0
        run += 1
        heap = []
        for k in spans[q]:
            reach(cand_cell[k], 0.0, cand_cost[k] - pi[cand_cell[k]], -1, k)
        popped: list[int] = []
        target = -1
        while heap:
            d, u = heappop(heap)
            if stamp[u] != run or d > dist[u]:
                continue
            stamp[u] = -run  # finalized
            popped.append(u)
            if u == sink or count[u] < floor[u]:
                target = u
                break
            arcs = table[u]
            if arcs is None:  # the cheapest arc u -> v over the members of u, per v
                arcs = table[u] = {}
                for p in members[u]:
                    cu = cand_cost[assigned[p]]
                    for k in spans[p]:
                        v = cand_cell[k]
                        c = cand_cost[k] - cu
                        if v != u and (v not in arcs or c < arcs[v][0]):
                            arcs[v] = (c, k)
            scans += len(arcs)
            base = d + pi[u]
            for v, (c, k) in arcs.items():
                if stamp[v] == -run:
                    continue
                nd = base + c - pi[v]
                if check and nd - d < -1e-9:
                    raise IntegrityError(f"negative reduced cost {nd - d} into node {v}")
                if stamp[v] != run or nd < dist[v]:
                    dist[v] = nd
                    stamp[v] = run
                    prev[v] = u
                    via[v] = k
                    heappush(heap, (nd, v))
            if count[u] < cap[u] and stamp[sink] != -run:
                reach(sink, d, pi[u] - pi[sink], u, -1)
        if target < 0:
            raise IntegrityError("min-cost flow infeasible; snapshot corruption suspected")
        pops += len(popped)
        dstar = dist[target]
        for u in popped:
            pi[u] += dist[u] - dstar
        v = target
        while v >= 0:
            k = via[v]
            u = prev[v]
            if k >= 0:  # a particle moves from u (none for q) into v
                place(cand_p[k], u, k)
            v = u

    # drain the sink's excess into the cells still below their floor
    short = [t for t in range(K) if count[t] < floor[t]]
    if short:
        order = np.argsort(net.cand_cell, kind="stable")
        bounds = np.searchsorted(net.cand_cell[order], np.arange(K + 1)).tolist()
        order = order.tolist()
        intab = [None] * K
    for t in short:
        while count[t] < floor[t]:
            run += 1
            drains += 1
            heap = []
            reach(t, 0.0, 0.0, -1, -1)
            popped = []
            while heap:
                d, v = heappop(heap)
                if stamp[v] != run or d > dist[v]:
                    continue
                stamp[v] = -run
                popped.append(v)
                if v == sink:
                    break
                arcs = intab[v]
                if arcs is None:  # the cheapest arc u -> v over the particles in u, per u
                    arcs = intab[v] = {}
                    for k in order[bounds[v]:bounds[v + 1]]:
                        a = assigned[cand_p[k]]
                        u = cand_cell[a]
                        c = cand_cost[k] - cand_cost[a]
                        if u != v and (u not in arcs or c < arcs[u][0]):
                            arcs[u] = (c, k)
                scans += len(arcs)
                for u, (c, k) in arcs.items():
                    if stamp[u] != -run:
                        reach(u, d, c + pi[u] - pi[v], v, k)
                if count[v] > floor[v] and stamp[sink] != -run:
                    reach(sink, d, pi[sink] - pi[v], v, -1)
            if stamp[sink] != -run:
                raise IntegrityError("min-cost flow infeasible: a floor cannot be met")
            pops += len(popped)
            dstar = dist[sink]
            for u in popped:
                pi[u] += dstar - dist[u]
            v = sink
            while v != t:  # the sink gives up a unit, each particle on the path moves on
                u = prev[v]
                if via[v] >= 0:
                    place(cand_p[via[v]], v, via[v])
                v = u

    chosen = np.asarray(assigned, dtype=np.int64)
    _check_reduced_costs(net, chosen, np.asarray(pi), np.asarray(count, dtype=np.int64))
    stats = SolveStats(objective=float(net.cand_cost[chosen].sum()), searches=run - drains,
                       pops=pops, scans=scans, drains=drains,
                       wall_time=time.perf_counter() - t0)
    return Assignment(choice=net.cand_i[chosen]), stats


def _check_reduced_costs(net: FlowNetwork, chosen: np.ndarray, pi: np.ndarray,
                         counts: np.ndarray) -> None:
    """Final safety: every residual arc has nonnegative reduced cost.

    chosen holds each particle's candidate and counts each cell's units; pi
    holds the cell potentials, then the sink's. Residual are the candidate
    arcs u -> v (via the particle at u), cell -> sink with room, and sink ->
    cell with units above the floor.
    """
    K = len(counts)
    home = net.cand_cell[chosen]
    red = (net.cand_cost - net.cand_cost[chosen][net.cand_j]
           + pi[home][net.cand_j] - pi[net.cand_cell])
    red = np.concatenate([red, pi[:K][counts < net.cap] - pi[K],
                          pi[K] - pi[:K][counts > net.floor]])
    if red.size and red.min() < -1e-6:
        raise IntegrityError(f"optimality check failed: reduced cost {red.min()}")


def solve_problem(problem: CorrectionProblem) -> tuple[Assignment, SolveStats]:
    """Convenience wrapper: reduce to flow and solve."""
    return solve_mcf(reduce_to_flow(problem))


# ----------------------------------------------------------------------
# exhaustive oracle

BRUTE_FORCE_LIMIT = 12


def brute_force_ilp(problem: CorrectionProblem) -> tuple[Assignment, float]:
    """Exhaustive search over all candidate selections (n <= 12).

    Depth-first enumeration over per-particle candidates with sound pruning
    only (capacity, floor reachability, admissible cost bound), so the result
    is the exact global optimum. Fully independent of the flow solver.
    """
    n = problem.n
    if n > BRUTE_FORCE_LIMIT:
        raise InputError(f"brute force refused for n={n} > {BRUTE_FORCE_LIMIT}")
    if n == 0:
        return Assignment(choice=np.zeros(0, dtype=np.int64)), 0.0

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

    def rows_ok() -> bool:
        return all(row.holds(choice) for row in problem.dense_rows)

    def dfs(j: int, partial: float, deficit: int) -> None:
        nonlocal best_obj, best_choice
        if partial + suffix_min[j] >= best_obj - 1e-12:
            return
        if deficit > n - j:
            return
        if j == n:
            if deficit == 0 and rows_ok():
                best_obj = partial
                best_choice = choice.copy()
            return
        for cost, i, c in cands[j]:
            if cap[c] >= 0 and counts[c] >= cap[c]:
                continue
            counts[c] += 1
            d2 = deficit - 1 if (floor[c] > 0 and counts[c] <= floor[c]) else deficit
            choice[j] = i
            dfs(j + 1, partial + cost, d2)
            counts[c] -= 1

    dfs(0, 0.0, total_floor)
    if best_choice is None:
        raise IntegrityError("brute force found no feasible assignment")
    return Assignment(choice=best_choice), float(best_obj)


# ----------------------------------------------------------------------
# branch and bound for dense band rows

BNB_MAX_N = 5000
BNB_MAX_DENSE = 64


BNB_NODE_BUDGET = 50_000


def _pick_branch_var(problem, row, choice, vv, decided):
    """Variable whose flip moves the row toward feasibility at least regret.

    Flipping a selected variable off costs at least the gap to the particle's
    next-best candidate; flipping one on costs the gap from its current pick.
    Deterministic: ties resolve to the lowest (particle, direction).
    """
    v = row.value(choice)
    if v > row.hi:
        toward = [(i, j, True) for (i, j) in row.plus] + [(i, j, False) for (i, j) in row.minus]
    else:
        toward = [(i, j, False) for (i, j) in row.plus] + [(i, j, True) for (i, j) in row.minus]
    best = None
    for (i, j, want_off) in toward:
        if (j, i) in decided or not vv[i, j]:
            continue
        selected = choice[j] == i
        if want_off != selected:
            continue
        if want_off:
            others = [problem.cost[k, j] for k in np.flatnonzero(vv[:, j]) if k != i]
            if not others:
                continue
            regret = min(others) - problem.cost[i, j]
        else:
            regret = problem.cost[i, j] - problem.cost[choice[j], j]
        key = (regret, j, i)
        if best is None or key < best[0]:
            best = (key, (j, i), want_off)
    return best


def branch_and_bound(problem: CorrectionProblem) -> tuple[Assignment, float]:
    """Exact optimum of a correction problem with dense rows.

    Relaxation: drop the dense rows and solve the flow problem (always
    integral). Branching fixes dense-row candidates to 0/1 until every row is
    satisfied; a node whose relaxation already satisfies the rows is optimal
    for its subtree and closes it. Children that reduce the violation are
    explored first, picking the candidate with the smallest reselection
    regret, which finds a good incumbent after about |violation| nodes.
    """
    if not problem.dense_rows:
        assn, stats = solve_problem(problem)
        return assn, stats.objective
    row_vars: list[tuple[int, int]] = []
    seen = set()
    for row in problem.dense_rows:
        for (i, j) in list(row.plus) + list(row.minus):
            if (j, i) not in seen:
                seen.add((j, i))
                row_vars.append((j, i))
    row_vars.sort()
    if problem.n > BNB_MAX_N or len(row_vars) > BNB_MAX_DENSE:
        raise InputError(
            f"branch and bound refused (n={problem.n}, dense candidates={len(row_vars)}); "
            "use the flow-paths strategy at this scale"
        )

    base_valid = problem.valid.copy()
    best_obj = np.inf
    best_choice: np.ndarray | None = None
    nodes = 0

    def node_valid(fixes) -> np.ndarray | None:
        vv = base_valid.copy()
        for (j, i, kind) in fixes:
            if kind:
                keep = np.zeros(problem.m, dtype=bool)
                keep[i] = True
                vv[:, j] &= keep
            else:
                vv[i, j] = False
            if not vv[:, j].any():
                return None
        return vv

    stack: list[tuple] = [()]
    while stack:
        fixes = stack.pop()
        vv = node_valid(fixes)
        if vv is None:
            continue
        nodes += 1
        if nodes > BNB_NODE_BUDGET:
            raise InputError(
                f"branch and bound exceeded {BNB_NODE_BUDGET} nodes; "
                "use the flow-paths strategy for this instance")
        sub = CorrectionProblem(
            candidates=problem.candidates, mu=problem.mu, cap=problem.cap,
            floor=problem.floor, cost=problem.cost, dims=problem.dims,
            dense_rows=[], valid=vv,
        )
        try:
            assn, stats = solve_problem(sub)
        except IntegrityError:
            continue
        if stats.objective >= best_obj - 1e-12:
            continue
        violated = [row for row in problem.dense_rows if not row.holds(assn.choice)]
        if not violated:
            best_obj = stats.objective
            best_choice = assn.choice.copy()
            continue
        decided = {(j, i) for (j, i, _) in fixes}
        pick = _pick_branch_var(problem, violated[0], assn.choice, vv, decided)
        if pick is None:
            continue  # no undecided variable can move the row; subtree is dead
        _, (j, i), want_off = pick
        reduce_first = 0 if want_off else 1
        stack.append(fixes + ((j, i, 1 - reduce_first),))
        stack.append(fixes + ((j, i, reduce_first),))

    if best_choice is None:
        raise IntegrityError("branch and bound found no feasible assignment")
    return Assignment(choice=best_choice), float(best_obj)


# ----------------------------------------------------------------------
# total unimodularity sampling

def canonical_matrix(problem: CorrectionProblem) -> np.ndarray:
    """Inequality-form constraint matrix of the sparse problem.

    Columns are valid candidates ordered by (particle, direction). Rows:
    variable upper/lower bounds, the choose-one equality split into two
    inequalities, then per-cell capacity and (negated) floor rows.
    """
    if problem.dense_rows:
        raise InputError("canonical matrix requires a sparse problem")
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
        if problem.cap[c] >= 0:
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
