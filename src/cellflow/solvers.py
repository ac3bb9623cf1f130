"""Solvers for the correction problem.

The correction problem is a transportation problem (Ahuja, Magnanti &
Orlin, *Network Flows*, 1993, ch. 9). Each particle holds one unit,
which goes to one of its candidate cells at that candidate's cost. Cell u
takes floor[u]..cap[u] units and passes those above its floor on to a sink,
whose deficit is n - sum(floor). Its LP relaxation is integral, so it is
solved exactly by successive shortest paths with cell potentials, from a
greedy start, on the graph of cells; ``solve_mcf`` gives the details. The
costs are multiples of 2^-24, so below the bound ``reduce_to_flow`` checks,
float64 sums of them are exact: the certificate needs no tolerance, and how
a search groups a key changes no choice.

The band's balance constraint bounds the total count of one region of cells
to [lo, hi]. The family of sets "one cell", "the region" and "all cells" is
laminar, so the problem stays a network and its LP stays integral (ibid.;
Schrijver, *Combinatorial Optimization*, 2003, on network matrices): the
region's cells, which carry no floors, pass their units to a hub node, which
takes lo..hi units and passes those above lo on to the sink.

The network's nodes are the grid's cells, then the sink and the hub, so the
final potentials, the duals of an optimum, are read as they are by
``CorrectionProblem.certify``, which reads only the problem: a fault in the
reduction or the solve cannot certify itself.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from . import grid as G
from .correction import CorrectionProblem
from .errors import InputError, IntegrityError


@dataclass
class FlowNetwork:
    """Transportation network of a correction problem, in cell terms.

    Each particle holds one unit, which goes to one of its candidates. The
    cells are the grid's, by flat index; cell u takes floor[u]..cap[u] units,
    and the sink takes the rest, a deficit of n - sum(floor) - hub_floor. With
    a region, the cells where hub_cell is set pass their units to a hub
    instead, which takes hub_floor..hub_cap.
    """

    n_particles: int
    cand_j: np.ndarray     # particle per candidate, ordered by (particle, direction)
    cand_i: np.ndarray     # direction per candidate
    cand_cell: np.ndarray  # flat grid cell per candidate
    cand_cost: np.ndarray  # cost per candidate
    cap: np.ndarray        # per grid cell, the problem's own array
    floor: np.ndarray      # per grid cell
    hub_cell: np.ndarray | None = None  # per grid cell, True in the region; None without one
    hub_floor: int = 0
    hub_cap: int = 0

    @property
    def n_arcs(self) -> int:
        """Arcs of the textbook network: source -> particle, candidates,
        reached cell -> sink or hub, and hub -> sink."""
        reached = int(np.count_nonzero(np.bincount(self.cand_cell)))
        return self.n_particles + len(self.cand_j) + reached + (self.hub_cell is not None)


@dataclass
class SolveStats:
    objective: float
    pi: np.ndarray     # final potentials: per grid cell, then the sink's and the hub's
    searches: int = 0  # searches from a particle the greedy start rejected
    pops: int = 0      # nodes finalized over all searches and drains
    scans: int = 0     # arc entries read at popped nodes, the sink or hub arcs too
    drains: int = 0    # searches on the reverse graph, one per unit of floor the routing left
    tables: int = 0    # cells' arc tables built, forward and in-arc


def reduce_to_flow(problem: CorrectionProblem) -> FlowNetwork:
    """Build the transportation network of the correction problem. A path of
    the cell graph moves each particle at most once, so a solve's keys and
    potentials stay within about n x the largest cost; at 2^29 or more, sums
    of multiples of 2^-24 may round, and IntegrityError is raised."""
    n = problem.n
    # candidates ordered by (particle, direction)
    jj, ii = np.nonzero(problem.valid.T)
    cand_cell = problem.target_flat[ii, jj]
    reached = np.bincount(cand_cell, minlength=len(problem.cap)) > 0
    floored = np.flatnonzero(problem.floor > 0)
    missing = floored[~reached[floored]]
    if missing.size:
        raise IntegrityError(f"floored cells unreachable by any candidate: {missing[:4].tolist()}")

    if (problem.floor > problem.cap).any():
        raise IntegrityError("cell floor exceeds capacity")

    cand_cost = problem.cost[ii, jj]
    if n * (top := float(np.abs(cand_cost).max(initial=0.0))) >= 2.0 ** 29:
        raise IntegrityError(f"n x the largest cost, {n} x {top:.6g}, reaches 2^29: "
                             "float sums of costs may round")
    net = FlowNetwork(
        n_particles=n,
        cand_j=jj.astype(np.int64),
        cand_i=ii.astype(np.int64),
        cand_cell=cand_cell,
        cand_cost=cand_cost,
        cap=problem.cap, floor=problem.floor,
    )
    if problem.region is not None:
        # a floored region cell short of its floor would have to pass units
        # it lacks; the band's region (interface and deep) has no floors
        if problem.floor[problem.region].any():
            raise InputError("region cells must not carry floors")
        lo, hi = problem.region_bounds
        if hi < max(lo, 0):
            raise IntegrityError(f"empty region interval [{lo}, {hi}]")
        net.hub_cell, net.hub_floor, net.hub_cap = problem.region, max(lo, 0), hi
    return net


def solve_mcf(net: FlowNetwork) -> tuple[np.ndarray, SolveStats]:
    """Integral min-cost flow by successive shortest paths on the cell graph.

    Each particle holds one unit of excess; cell u has a deficit of floor[u]
    and room up to cap[u], and the sink a deficit of n - sum(floor). Node
    potentials pi are kept per grid cell and for the sink.

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

    With a region, its cells pass their units to the hub, node K + 1, which
    keeps count[hub] = count(region) and passes the units above hub_floor to
    the sink. The greedy start also rejects the region's particles beyond
    hub_cap, the last in index order. A hub below its floor is a target like
    a cell below its floor, and a drain fills it; a popped hub relaxes its
    arc to the sink while it has room and, free of charge, its reverse arcs
    back to the region cells it holds units of.

    Only the cheapest of the parallel arcs u -> v (one per member of u) can
    lie on a shortest path, and augmenting along it leaves the others' reduced
    costs, no smaller, nonnegative. So a popped cell reads a table of its
    cheapest arc per neighbour, dropped whenever the cell's members change.
    The certificate in solve_problem still tests every candidate.

    A unit that reaches the sink stays there even once the sink's deficit is
    used up. Successive shortest paths may move excess to any node of a
    shortest path, so reduced costs stay nonnegative; the sink merely ends the
    routing with excess, one unit per unit of floor still missing. Each such
    unit is drained by the same search loop run on the reverse graph, from a
    node below its floor to the sink, with the potentials negated once
    (ibid., ch. 9): the reverse of an arc keeps its reduced cost under -pi,
    so the key, the potential update and the path walk are the forward
    search's. Only the target, the arc tables, the arcs to and from the sink
    or hub and the direction a particle moves differ. Sums and negation are
    exact, so a drain makes the choices of a backward search on pi, and it
    reaches a short node directly, not through the sink's arcs into every
    cell. Every particle is routed before a drain raises a potential, so an
    unrouted particle's arcs, priced at potential 0, never turn negative.
    The in-arc tables, each cell's cheapest in-arc per predecessor cell, are
    built only if the routing ends with excess, and a moving particle drops
    those of its candidate cells. A cell's arc table, like the hub's dict
    built at each pop, also holds the zero-cost arc to the node it passes
    units to while it has room; its in-arc table holds the arc from that
    node while it holds units above its floor. Its count changes only when
    one of its particles moves, which drops both tables, so the entries stay
    exact.
    """
    n = net.n_particles
    K = len(net.cap)  # grid cells; the sink is node K, the hub node K + 1
    sink, hub = K, K + 1
    if int(net.floor.sum()) + net.hub_floor > n:
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
    order, rank = G.rank_in_cell(pick_cell, picked)
    accepted = rank < net.cap[pick_cell]
    count_np = np.minimum(picked, net.cap)
    feeds, in_hub = [False] * K, 0
    if net.hub_cell is not None:  # the hub accepts the first hub_cap of the region's units
        held = np.flatnonzero(accepted & net.hub_cell[pick_cell])
        accepted[held[net.hub_cap:]] = False
        count_np = np.bincount(pick_cell[accepted], minlength=K)
        feeds, in_hub = net.hub_cell.tolist(), min(len(held), net.hub_cap)
    if accepted.all() and (count_np >= net.floor).all() and in_hub >= net.hub_floor:
        return net.cand_i[pick], SolveStats(objective=float(net.cand_cost[pick].sum()),
                                            pi=np.zeros(K + 2))

    starts = starts.tolist()
    spans = list(map(range, starts[:-1], starts[1:]))
    cand_cell, cand_cost = net.cand_cell.tolist(), net.cand_cost.tolist()
    cand_p = net.cand_j.tolist()
    cap = net.cap.tolist() + [0, net.hub_cap]  # cells, then the sink's unused slot and the hub
    floor = net.floor.tolist() + [0, net.hub_floor]
    reached = np.bincount(net.cand_cell, minlength=K) > 0
    cells = np.flatnonzero(reached).tolist()  # those some candidate reaches, all a search visits
    hubbed = [u for u in cells if feeds[u]]  # the region's: a drain from the hub pops no other
    up = [sink] * (K + 2)  # where a node passes its units above the floor
    for u in hubbed:
        up[u] = hub

    count = count_np.tolist() + [0, in_hub]
    kept, ends = order[accepted[order]].tolist(), np.cumsum(count_np)[cells].tolist()
    members: list[list | None] = [None] * K  # per reached cell, its particles in index order
    for u, e in zip(cells, ends):
        members[u] = kept[e - count[u]:e]
    table: list[dict | None] = [None] * (K + 2)  # per cell u: {v: (cost, candidate)}, arcs u -> v
    assigned = pick.tolist()  # candidate index per particle; a rejected one's is set when routed
    pi = [0.0] * (K + 2)
    dist = [0.0] * (K + 2)
    stamp = [0] * (K + 2)  # run while a node is reached in search run, -run once finalized
    prev = [-1] * (K + 2)  # next node toward the search's root, -1 for the root
    via = [-1] * (K + 2)   # candidate moved along that arc, -1 for a sink or hub arc
    intab: list[dict | None] | None = None  # the same for arcs v -> u, once drains begin
    run = pops = scans = tables = 0
    heappush, heappop = heapq.heappush, heapq.heappop

    def move(k: int, u: int, v: int) -> None:
        """Move candidate k's particle from cell u (from nowhere if u < 0)
        into v, k's cell, and drop the arc tables that the move changes."""
        p = cand_p[k]
        if u >= 0:
            members[u].remove(p)
            count[u] -= 1
            count[hub] -= feeds[u]
            table[u] = None
        members[v].append(p)
        count[v] += 1
        count[hub] += feeds[v]
        table[v] = None
        assigned[p] = k
        if intab is not None:
            for c in spans[p]:
                intab[cand_cell[c]] = None

    rejected = np.flatnonzero(~accepted).tolist()
    searches = len(rejected)
    fwd, tab = True, table
    lim = floor[:sink] + [1, floor[hub]]  # a target has count < lim; the sink's count stays 0
    while True:
        # routing done: drain the floor it left on the reverse graph, one unit per run
        if run == searches and (short := [t for t in cells + [hub] if count[t] < floor[t]]):
            order = np.argsort(net.cand_cell.astype(np.min_scalar_type(K)), kind="stable")
            bounds = np.searchsorted(net.cand_cell[order], np.arange(K + 1)).tolist()
            order = order.tolist()
            fwd, tab = False, (intab := [None] * (K + 2))
            lim = [0] * sink + [1, 0]
            for u in cells + [sink, hub]:  # in place, since a new list fragments the heap
                pi[u] = 0.0 - pi[u]  # not -pi[u]: a zero stays +0.0, as in every sum
        # a rejected particle, or the first node still below its floor
        root = rejected[run] if run < searches else next(
            (t for t in short if count[t] < floor[t]), -1)
        if root < 0:
            break
        run += 1
        done = -run
        if fwd:  # from particle root, unrouted and so at potential 0, into each candidate cell
            heap = []
            for k in spans[root]:
                v = cand_cell[k]
                rc = cand_cost[k] - pi[v]
                if stamp[v] != run or rc < dist[v]:
                    dist[v] = rc
                    stamp[v] = run
                    prev[v] = -1
                    via[v] = k
                    heappush(heap, (rc, v))
        else:  # from the short node root, at distance 0
            dist[root], stamp[root], prev[root], via[root] = 0.0, run, -1, -1
            heap = [(0.0, root)]
        popped: list[int] = []
        target = -1
        while heap:
            d, u = heappop(heap)
            if stamp[u] != run or d > dist[u]:
                continue
            stamp[u] = done
            popped.append(u)
            if count[u] < lim[u]:
                target = u
                break
            arcs = tab[u]
            if arcs is None:
                if u == hub:  # to the region cells that passed it units, or from those with room
                    if fwd:
                        arcs = dict.fromkeys(filter(count.__getitem__, hubbed), (0.0, -1))
                    else:
                        arcs = {v: (0.0, -1) for v in hubbed if count[v] < cap[v]}
                else:  # the cheapest arc u -> v over the members of u, or v -> u into u, per v
                    arcs = tab[u] = {}
                    get = arcs.get
                    tables += 1
                    if fwd:
                        for p in members[u]:
                            cu = cand_cost[assigned[p]]
                            for k in spans[p]:
                                v = cand_cell[k]
                                if v != u:
                                    c = cand_cost[k] - cu
                                    old = get(v)
                                    if old is None or c < old[0]:
                                        arcs[v] = (c, k)
                    else:
                        for k in order[bounds[u]:bounds[u + 1]]:
                            a = assigned[cand_p[k]]
                            v = cand_cell[a]
                            if v != u:
                                c = cand_cost[k] - cand_cost[a]
                                old = get(v)
                                if old is None or c < old[0]:
                                    arcs[v] = (c, k)
                # to the sink or hub, which takes u's units, while u has room;
                # from it, which holds u's surplus, while u is above its floor
                if count[u] < cap[u] if fwd else count[u] > floor[u]:
                    arcs[up[u]] = (0.0, -1)
            scans += len(arcs)
            base = d + pi[u]
            for v, (c, k) in arcs.items():
                s = stamp[v]
                if s == done:
                    continue
                nd = base + c - pi[v]
                if s != run or nd < dist[v]:
                    dist[v] = nd
                    stamp[v] = run
                    prev[v] = u
                    via[v] = k
                    heappush(heap, (nd, v))
        if target < 0:
            raise IntegrityError("min-cost flow infeasible: " + (
                "grid state corruption suspected" if fwd else "a floor cannot be met"))
        pops += len(popped)
        dstar = dist[target]
        for u in popped:
            pi[u] += dist[u] - dstar
        v = target
        while v >= 0:  # each particle on the path moves on, into k's cell
            u = prev[v]
            if (k := via[v]) >= 0:
                if fwd:  # from u (from nowhere for the root particle) into v
                    move(k, u, v)
                else:  # against the search, from v into u
                    move(k, v, u)
            v = u

    chosen = np.asarray(assigned, dtype=np.int64)
    duals = np.asarray(pi) if fwd else 0.0 - np.asarray(pi)  # drains ran on -pi
    # a cell no candidate reaches takes the potential of the node it passes units to
    idle = np.flatnonzero(~reached)
    duals[idle] = duals[sink + (0 if net.hub_cell is None else net.hub_cell[idle])]
    stats = SolveStats(objective=float(net.cand_cost[chosen].sum()), pi=duals,
                       searches=searches, pops=pops, scans=scans, tables=tables,
                       drains=run - searches)
    return net.cand_i[chosen], stats


def solve_problem(problem: CorrectionProblem) -> tuple[np.ndarray, SolveStats]:
    """Reduce to flow, solve, and certify the choice against the problem."""
    net = reduce_to_flow(problem)
    choice, stats = solve_mcf(net)
    problem.certify(choice, stats.pi)
    return choice, stats
