"""Flow solver vs brute force and HiGHS, TU sampling."""
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cellflow import correction as C
from cellflow import grid as G
from cellflow import solvers as V
from cellflow.errors import InputError, IntegrityError

from conftest import flat_index, random_band_instance, random_problem, stay_choice
from oracles import (BRUTE_FORCE_LIMIT, brute_force_ilp, canonical_matrix, objective_of,
                     tu_sample_check, with_region)


class TestReduceToFlow:
    def test_network_shape_single_particle(self, rng):
        # the nodes are the grid's cells; the arcs up to the sink count only
        # the cells some candidate reaches
        problem, grid, particles = random_problem(rng, n_max=1)
        net = V.reduce_to_flow(problem)
        n_cands = int(problem.valid.sum())
        n_cells = len(np.unique(problem.target_flat[problem.valid]))
        assert net.n_particles == 1 and len(net.cand_j) == n_cands
        assert len(net.cap) == len(net.floor) == len(problem.cap)
        assert net.n_arcs == 1 + n_cands + n_cells

    def test_solid_cell_arc_capacity_zero(self, rng):
        # the cap of each grid cell; solid cells, reached ones too, keep cap 0
        solid_seen = False
        for _ in range(20):
            problem, grid, particles = random_problem(rng, solid_prob=0.3)
            net = V.reduce_to_flow(problem)
            used = np.unique(problem.target_flat[problem.valid])
            assert np.array_equal(net.cap, problem.cap)
            solid_seen |= bool((net.cap[used] == 0).any())
        assert solid_seen

    def test_lower_bounds_forwarded(self, rng):
        # the floor of each grid cell
        floor_seen = False
        for _ in range(20):
            problem, grid, particles = random_problem(rng, dims=(8, 8), mu=4, n_max=80)
            net = V.reduce_to_flow(problem)
            assert np.array_equal(net.floor, problem.floor)
            floor_seen |= bool((net.floor > 0).any())
        assert floor_seen

    def test_matches_sorted_construction(self):
        # np.nonzero on the transposed mask lists the candidates in the order
        # of a sort by (particle, direction), so every array is the sorted one
        rng = np.random.default_rng(3)
        for _ in range(40):
            dims = tuple(int(v) for v in rng.integers(4, 10, size=2))
            problem, grid, particles = random_problem(rng, dims=dims, n_max=16,
                                                      solid_prob=rng.uniform(0.0, 0.3))
            net, ref = V.reduce_to_flow(problem), _sorted_network(problem)
            assert net.n_particles == ref.n_particles
            for name in ("cand_j", "cand_i", "cand_cell", "cand_cost", "cap", "floor"):
                got, want = getattr(net, name), getattr(ref, name)
                assert got.dtype == want.dtype and np.array_equal(got, want), name
            # source -> particle, candidate and reached cell -> sink arcs
            reached = len(np.unique(problem.target_flat[problem.valid]))
            assert net.n_arcs == ref.n_arcs == problem.n + int(problem.valid.sum()) + reached

    def test_unreachable_floor_refused(self, rng):
        problem, grid, particles = random_problem(rng, n_max=4)
        unreached = np.setdiff1d(np.flatnonzero(~grid.wall), problem.target_flat[problem.valid])
        problem.floor[unreached[0]] = 1
        with pytest.raises(IntegrityError, match="unreachable"):
            V.reduce_to_flow(problem)


def _sorted_network(problem):
    """The flow network with its candidates sorted by (particle, direction)."""
    ii, jj = np.nonzero(problem.valid)
    order = np.lexsort((ii, jj))
    ii, jj = ii[order].astype(np.int64), jj[order].astype(np.int64)
    return V.FlowNetwork(
        n_particles=problem.n, cand_j=jj, cand_i=ii, cand_cell=problem.target_flat[ii, jj],
        cand_cost=problem.cost[ii, jj], cap=problem.cap, floor=problem.floor)


class TestSolveMcf:
    def test_single_particle_picks_zero_cost(self, rng):
        # one particle, empty neighborhood: lands exactly on its ideal spot
        problem, grid, particles = random_problem(rng, dims=(8, 8), mu=4, n_max=1,
                                                  solid_prob=0.0)
        assignment, stats = V.solve_problem(problem)
        best = problem.cost[problem.valid[:, 0], 0].min()
        assert stats.objective == pytest.approx(best, abs=1e-12)

    def test_matches_brute_force_randomized(self):
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(60):
            problem, grid, particles = random_problem(rng, n_max=8)
            assignment, stats = V.solve_problem(problem)
            problem.check_feasible(assignment)
            _, oracle = brute_force_ilp(problem)
            assert abs(stats.objective - oracle) < 1e-9
            checked += 1
        assert checked == 60

    def test_full_block_permutations_only(self):
        # 2x2 inner block, mu=1, floors pin every cell: objective equals the
        # sum over particles of their stay-candidate costs (enumerated oracle)
        rng = np.random.default_rng(11)
        import cellflow.grid as G
        from cellflow.flip import clamp_positions
        grid = G.CellGrid((6, 6))
        cells = [(2, 2), (2, 3), (3, 2), (3, 3)]
        x = np.array([[c[0] + 0.5, c[1] + 0.5] for c in cells])
        G.classify_cells(grid, x)
        G.assign_depth(grid)
        grid.rebuild_counts(x)
        # force the block to be inner-like: floors equal to counts
        grid.marking[grid.fluid_mask()] = G.INNER
        ideal = x + rng.uniform(-0.9, 0.9, size=x.shape)
        ideal = clamp_positions(ideal, grid.dims, home_cells=np.floor(x))
        problem = C.build_problem(grid, C.build_candidates(x, ideal, grid), mu=1)
        assignment, stats = V.solve_problem(problem)
        _, oracle = brute_force_ilp(problem)
        assert abs(stats.objective - oracle) < 1e-9
        counts = problem.counts_of(assignment)
        for c in cells:
            assert counts[flat_index(grid, c)] == 1

    def test_monotone_in_capacity(self):
        # relaxing every cap from mu to mu+1 never increases the optimum
        rng = np.random.default_rng(23)
        for _ in range(20):
            problem, grid, particles = random_problem(rng, mu=2, n_max=8)
            _, s1 = V.solve_problem(problem)
            relaxed = replace(problem, cap=np.where(problem.cap > 0, problem.cap + 1, problem.cap))
            _, s2 = V.solve_problem(relaxed)
            assert s2.objective <= s1.objective + 1e-9

    def test_objective_not_worse_than_stay(self, rng):
        for _ in range(10):
            problem, grid, particles = random_problem(rng)
            assignment, stats = V.solve_problem(problem)
            stay = stay_choice(problem)
            assert stats.objective <= objective_of(problem, stay) + 1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        problem, grid, particles = random_problem(rng, n_max=10)
        a1, s1 = V.solve_problem(problem)
        a2, s2 = V.solve_problem(problem)
        assert (a1 == a2).all()
        assert s1.objective == s2.objective

    def test_empty_problem(self):
        import cellflow.grid as G
        grid = G.CellGrid((5, 5))
        G.classify_cells(grid, np.zeros((0, 2)))
        G.assign_depth(grid)
        none = np.zeros((0, 2))
        problem = C.build_problem(grid, C.build_candidates(none, none, grid), mu=4)
        assignment, stats = V.solve_problem(problem)
        assert stats.objective == 0.0
        assert len(assignment) == 0

    def test_particle_without_candidate_refused(self, rng):
        problem, grid, particles = random_problem(rng, n_max=6)
        problem.target_flat[:, 0], problem.cost[:, 0] = -1, np.inf
        with pytest.raises(IntegrityError):
            V.solve_problem(problem)

    def test_potentials_stay_valid(self, rng):
        # solve_problem certifies the potentials of every solve
        for _ in range(10):
            problem, grid, particles = random_problem(rng, n_max=10)
            V.solve_problem(problem)


def _pinned_floors(problem, rng, slack):
    """The problem with floors equal to the counts of a random choice within
    the caps, less ``slack`` units, so the floors sum to n - slack."""
    for _ in range(50):
        choice = np.array([rng.choice(np.flatnonzero(problem.valid[:, j]))
                           for j in range(problem.n)])
        floor = problem.counts_of(choice)
        if (floor <= problem.cap).all():
            break
    else:
        return None
    for c in rng.choice(np.flatnonzero(floor), size=slack, replace=False):
        floor[c] -= 1
    return replace(problem, floor=floor)


class TestDrain:
    """Floors summing to n leave the sink full from the start; summing to
    n - 1 it fills after one unit. Units that reach the full sink stay there
    as excess, and backward searches later drain them into the cells still
    below their floor."""

    # _tie_problem seeds whose solve drains more than once, where a later
    # drain reads the in-arc table of a cell that an earlier drain's move
    # must have dropped; a stale table moves a particle that is no longer in
    # the cell, or fails the final optimality check
    DRAIN_INTO_DROPPED_TABLE = (459, 1262, 1907, 1920, 1978)

    @pytest.mark.parametrize("slack", [0, 1])
    def test_matches_brute_force(self, slack):
        rng = np.random.default_rng(41 + slack)
        checked = drained = 0
        for _ in range(40):
            problem, grid, particles = random_problem(rng, n_max=8)
            pinned = _pinned_floors(problem, rng, slack)
            if pinned is None:
                continue
            assert int(pinned.floor.sum()) == pinned.n - slack
            assignment, stats = V.solve_problem(pinned)
            pinned.check_feasible(assignment)
            assert stats.objective == pytest.approx(objective_of(pinned, assignment),
                                                    abs=1e-12)
            _, oracle = brute_force_ilp(pinned)
            assert abs(stats.objective - oracle) < 1e-9
            checked += 1
            drained += stats.drains > 0
        assert checked >= 30
        assert drained > checked // 2

    @pytest.mark.parametrize("seed", DRAIN_INTO_DROPPED_TABLE)
    def test_drain_into_dropped_table(self, seed):
        problem = _tie_problem(np.random.default_rng(seed))
        assignment, stats = V.solve_problem(problem)
        assert stats.drains >= 2
        problem.check_feasible(assignment)
        _, oracle = brute_force_ilp(problem)
        assert abs(stats.objective - oracle) < 1e-9


def _tie_problem(rng, dims=(6, 6)):
    """Toy problem rich in equal costs: particles at cell centres or a quarter
    cell off, ideal positions half-cell steps away, so many moves cost alike."""
    import cellflow.grid as G
    from cellflow.flip import clamp_positions
    grid = G.CellGrid(dims)
    mu = int(rng.integers(1, 4))
    slots = np.repeat(np.flatnonzero(~grid.wall), mu)
    n = int(rng.integers(1, BRUTE_FORCE_LIMIT + 1))
    x = grid.unflat(rng.choice(slots, size=n, replace=False)) + 0.5
    x += rng.choice([-0.25, 0.0, 0.25], size=x.shape)
    G.classify_cells(grid, x)
    G.assign_depth(grid)
    grid.rebuild_counts(x)
    ideal = x + rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=x.shape)
    ideal = clamp_positions(ideal, dims, home_cells=np.floor(x))
    return C.build_problem(grid, C.build_candidates(x, ideal, grid), mu)


def _greedy_rejects(problem):
    """Particles the greedy start rejects: each picks its first cheapest
    valid candidate, and a cell takes them in index order up to its cap."""
    picks = np.argmin(np.where(problem.valid, problem.cost, np.inf), axis=0)
    cells = problem.target_flat[picks, np.arange(problem.n)]
    taken = np.zeros(len(problem.cap), dtype=np.int64)
    rejected = 0
    for c in cells:
        if problem.cap[c] <= taken[c]:
            rejected += 1
        else:
            taken[c] += 1
    return picks, rejected


class TestGreedyStart:
    """solve_mcf starts with every particle on its first cheapest candidate,
    each cell keeping the first cap of them in index order. With room in
    every cell and no floor, that start is the optimum and needs no search."""

    @staticmethod
    def _roomy(problem):
        """The problem with no floors and room for every particle in each cell."""
        return replace(problem, cap=np.where(problem.cap == 0, 0, problem.n),
                       floor=np.zeros_like(problem.floor))

    def test_roomy_problem_needs_no_search(self):
        for seed in range(60):
            problem = self._roomy(_tie_problem(np.random.default_rng(seed)))
            assignment, stats = V.solve_problem(problem)
            assert (stats.searches, stats.drains, stats.pops, stats.scans) == (0, 0, 0, 0)
            picks, rejected = _greedy_rejects(problem)
            assert rejected == 0
            assert (assignment == picks).all()  # the first of equal costs
            _, oracle = brute_force_ilp(problem)
            assert abs(stats.objective - oracle) < 1e-9

    def test_reduced_cost_check(self):
        # the start ends the solve with every dual 0, which certifies its
        # choice; a feasible choice that moves one particle into a dearer
        # candidate with room leaves it off its cheapest, and certify refuses it
        for seed in range(60):
            problem = self._roomy(_tie_problem(np.random.default_rng(seed)))
            assignment, stats = V.solve_mcf(V.reduce_to_flow(problem))
            assert stats.searches == stats.drains == 0
            duals = np.zeros(len(problem.cap) + 2)
            problem.certify(assignment, duals)
            counts = problem.counts_of(assignment)
            picked = problem.cost[assignment, np.arange(problem.n)]
            room = counts[problem.target_flat] < problem.cap[problem.target_flat]
            jj, ii = np.nonzero((problem.valid & (problem.cost > picked) & room).T)
            choice = assignment.copy()
            choice[jj[0]] = ii[0]
            problem.check_feasible(choice)
            with pytest.raises(IntegrityError, match="optimality check"):
                problem.certify(choice, duals)


class TestArcTables:
    """solve_mcf caches each cell's cheapest arc per neighbour; a cached
    table must be dropped whenever the cell's members change. Tie-heavy
    instances reach the rarer changes, checked against brute force."""

    # _tie_problem seeds where an augmenting path ends in a cell whose table
    # an earlier search built; a stale table there fails the optimality check
    PATH_INTO_BUILT_TABLE = (474, 530, 854, 1318, 4298)

    def _check(self, problem):
        assignment, stats = V.solve_problem(problem)
        problem.check_feasible(assignment)
        _, oracle = brute_force_ilp(problem)
        assert abs(stats.objective - oracle) < 1e-9
        return stats

    @pytest.mark.parametrize("seed", PATH_INTO_BUILT_TABLE)
    def test_path_into_built_table(self, seed):
        assert self._check(_tie_problem(np.random.default_rng(seed))).searches >= 2

    def test_ties_match_brute_force(self):
        # also: the greedy start rejects some particles, and only those are searched
        rejecting = 0
        for seed in range(400):
            problem = _tie_problem(np.random.default_rng(seed))
            _, rejected = _greedy_rejects(problem)
            assert self._check(problem).searches == rejected
            rejecting += rejected > 0
        assert 40 < rejecting < 360


def _band_toy_problem(rng):
    """The full band problem of a random_band_instance toy, or None."""
    inst = random_band_instance(rng)
    if inst is None:
        return None
    grid, particles, state, x_ideal = inst
    problem = C.build_problem(grid, C.build_candidates(particles.x, x_ideal, grid), mu=1,
                              classes=G.band_classes(grid, state.R))
    return with_region(problem, grid, state.R, state.alpha_le)


def _solve_with_duals(problem):
    """The flow solve's choice and its potentials: per grid cell, then the
    sink's and the hub's."""
    choice, stats = V.solve_mcf(V.reduce_to_flow(problem))
    return choice, stats.pi


class TestCertify:
    """CorrectionProblem.certify reads only the problem: it accepts each
    solve's choice with its duals, and refuses a dual moved one cost quantum
    past the slack of one residual arc: costs and duals are exact multiples of
    2^-24, so the certificate has no tolerance."""

    QUANTUM = 2.0 ** -24

    def test_candidate_arc(self):
        # raising the dual of a reached cell at or below its floor lowers the
        # price of its candidates only; the first that undercuts a pick by one
        # cost quantum is refused, one that ties it is not
        moved = 0
        for seed in TestDrain.DRAIN_INTO_DROPPED_TABLE:
            problem = _tie_problem(np.random.default_rng(seed))
            choice, duals = _solve_with_duals(problem)
            problem.certify(choice, duals)
            counts = problem.counts_of(choice)
            price = np.where(problem.valid, problem.cost - duals[problem.target_flat], np.inf)
            picked = price[choice, np.arange(problem.n)]
            for v in np.unique(problem.target_flat[problem.valid]):
                into = problem.valid & (problem.target_flat == v)
                into[choice, np.arange(problem.n)] = False
                if counts[v] > problem.floor[v] or not into.any():
                    continue
                slack = float((price - picked)[into].min())
                for step, ok in ((slack, True), (slack + self.QUANTUM, False)):
                    doctored = duals.copy()
                    doctored[v] += step
                    if ok:
                        problem.certify(choice, doctored)
                    else:
                        with pytest.raises(IntegrityError, match="on particle"):
                            problem.certify(choice, doctored)
                moved += 1
        assert moved >= 20

    def test_cell_arc(self):
        # lowering the dual of an empty cell with room raises the price of its
        # candidates only, and turns its arc up to the sink negative
        moved = 0
        for seed in TestDrain.DRAIN_INTO_DROPPED_TABLE:
            problem = _tie_problem(np.random.default_rng(seed))
            choice, duals = _solve_with_duals(problem)
            counts = problem.counts_of(choice)
            sink = len(problem.cap)
            for u in np.flatnonzero((counts == 0) & (problem.cap > 0)):
                slack = duals[u] - duals[sink]
                doctored = duals.copy()
                doctored[u] -= slack
                problem.certify(choice, doctored)
                doctored[u] -= self.QUANTUM
                with pytest.raises(IntegrityError, match=f"on cell {u} -> sink or hub"):
                    problem.certify(choice, doctored)
                moved += 1
        assert moved >= 20

    def test_floor_arc(self):
        # a cell above its floor may pass a unit back: its dual raised just
        # above the sink's turns the arc from the sink negative
        moved = 0
        for seed in TestDrain.DRAIN_INTO_DROPPED_TABLE:
            problem = _tie_problem(np.random.default_rng(seed))
            choice, duals = _solve_with_duals(problem)
            sink = len(problem.cap)
            for u in np.flatnonzero(problem.counts_of(choice) > problem.floor):
                doctored = duals.copy()
                doctored[u] = duals[sink] + self.QUANTUM
                with pytest.raises(IntegrityError, match=f"on sink or hub -> cell {u}$"):
                    problem.certify(choice, doctored)
                moved += 1
        assert moved >= 20

    def test_unreached_cell_duals(self):
        # a cell no candidate reaches takes the potential of the node it
        # passes units to: the hub's in the region, else the sink's. Band toy
        # solves whose hub potential is nonzero and not the sink's tell the
        # two apart from each other and from an unset 0
        rng = np.random.default_rng(1618)
        told = 0
        for _ in range(200):
            full = _band_toy_problem(rng)
            if full is None:
                continue
            choice, duals = _solve_with_duals(full)
            full.certify(choice, duals)
            sink, hub = len(full.cap), len(full.cap) + 1
            unreached = np.ones(sink, dtype=bool)
            unreached[full.target_flat[full.valid]] = False
            assert (duals[:sink][unreached & full.region] == duals[hub]).all()
            assert (duals[:sink][unreached & ~full.region] == duals[sink]).all()
            told += bool((unreached & full.region).any() and 0 != duals[hub] != duals[sink])
        assert told >= 10

    def test_nan_fails(self):
        # a NaN dual or cost fails every comparison it enters
        problem = _tie_problem(np.random.default_rng(TestDrain.DRAIN_INTO_DROPPED_TABLE[0]))
        choice, duals = _solve_with_duals(problem)
        doctored = duals.copy()
        doctored[len(problem.cap)] = np.nan  # the sink
        with pytest.raises(IntegrityError, match=r"reduced cost nan on cell \d+ -> sink or hub"):
            problem.certify(choice, doctored)
        problem.cost[choice[0], 0] = np.nan
        with pytest.raises(IntegrityError, match="reduced cost nan on particle 0's pick"):
            problem.certify(choice, duals)

    def test_hub_arcs_and_uncapped_cell(self):
        # band toys whose interval is widened around the optimum's region
        # count: both hub arcs are residual, so the hub's dual must equal the
        # sink's; moving the hub and its cells together either way is refused.
        # An empty deep cell, whose cap n never binds, has room, so its arc
        # up to the hub is checked too.
        rng = np.random.default_rng(2718)
        hubs = deeps = 0
        for _ in range(150):
            problem = _band_toy_problem(rng)
            if problem is None:
                continue
            optimum, _ = V.solve_problem(problem)
            held = int(problem.counts_of(optimum)[problem.region].sum())
            problem.region_bounds = (held - 1, held + 1)
            choice, duals = _solve_with_duals(problem)
            problem.certify(choice, duals)
            counts = problem.counts_of(choice)
            if not max(held - 1, 0) < counts[problem.region].sum() < held + 1:
                continue
            sink, hub = len(problem.cap), len(problem.cap) + 1
            for step, arc in ((self.QUANTUM, "on sink -> hub"), (-self.QUANTUM, "on hub -> sink")):
                doctored = duals.copy()
                doctored[hub] += step
                doctored[:sink][problem.region] += step
                with pytest.raises(IntegrityError, match=arc):
                    problem.certify(choice, doctored)
            hubs += 1
            reached = np.zeros(len(problem.cap), dtype=bool)
            reached[problem.target_flat[problem.valid]] = True
            assert problem.n > 1  # mu is 1, so cap n marks the deep cells alone
            for u in np.flatnonzero(reached & (problem.cap == problem.n) & (counts == 0)):
                doctored = duals.copy()
                doctored[u] = duals[hub if problem.region[u] else sink] - self.QUANTUM
                with pytest.raises(IntegrityError, match=f"on cell {u} -> sink or hub"):
                    problem.certify(choice, doctored)
                deeps += 1
        assert hubs >= 20 and deeps >= 5


class TestExactCosts:
    """A problem holds its costs rounded to multiples of 2^-24. Below the
    bound n x the largest cost < 2^29, every sum the solve forms is exact."""

    @staticmethod
    def _problem(x, ideal, mu):
        """The candidate table and problem of particles ``x`` on a 6 x 6 grid."""
        grid = G.CellGrid((6, 6))
        G.classify_cells(grid, x)
        G.assign_depth(grid)
        grid.rebuild_counts(x)
        table = C.build_candidates(x, ideal, grid)
        return table, C.build_problem(grid, table, mu)

    def test_costs_are_rounded_once(self):
        # the candidate table keeps its float costs; the problem's are the
        # nearest multiples of 2^-24, and inf (a move into the wall) stays inf
        x = np.array([[1.5, 2.5], [3.5, 2.5]])
        ideal = x + np.random.default_rng(29).uniform(-0.4, 0.4, size=x.shape)
        table, problem = self._problem(x, ideal, mu=2)
        valid = problem.valid
        scaled = np.ldexp(problem.cost[valid], 24)
        assert np.array_equal(scaled, np.round(scaled))
        assert not np.array_equal(problem.cost[valid], table.cost[valid])
        assert (np.abs(problem.cost[valid] - table.cost[valid]) <= 2.0 ** -25).all()
        assert (~valid).any() and np.isinf(problem.cost[~valid]).all()

    def test_cost_bound(self):
        # four particles at cell centres, each ideal on its start: a largest
        # cost of 2^27 reaches the bound, one cost quantum less solves and
        # certifies with no tolerance
        x = np.array([[1.5, 1.5], [1.5, 3.5], [3.5, 1.5], [3.5, 3.5]])
        _, problem = self._problem(x, x, mu=1)
        for top, ok in ((2.0 ** 27 - 2.0 ** -24, True), (2.0 ** 27, False)):
            cost = problem.cost.copy()
            cost[-1, 0] = top  # particle 0's stay
            big = replace(problem, cost=cost)
            if ok:
                choice, stats = V.solve_problem(big)
                assert choice[0] != problem.m - 1 and stats.objective < top
            else:
                with pytest.raises(IntegrityError, match=r"4 x 1\.34218e\+08, reaches 2\^29:"):
                    V.solve_problem(big)

    @staticmethod
    def _regrouped_solve_mcf():
        """A copy of solve_mcf whose one search key, forward and in the
        drains, groups its sum otherwise; with exact sums it makes the same
        choices."""
        import inspect
        source = inspect.getsource(V.solve_mcf)
        old, new = "nd = base + c - pi[v]", "nd = d + (c + (pi[u] - pi[v]))"
        assert source.count(old) == 1, old
        source = source.replace(old, new)
        namespace = dict(vars(V))
        exec(source, namespace)
        return namespace["solve_mcf"]

    def test_dam_solves_are_exact(self, monkeypatch):
        # every potential and objective of a seeded dam run is a multiple of
        # 2^-24, the certificate holds at tolerance 0, and regrouped keys
        # make the same choices (with float costs, solve 12 differs)
        from cellflow.pipeline import Simulation
        from cellflow.scene import builtin_scene

        cfg = builtin_scene("dam")
        cfg.seed = 7
        sim = Simulation(cfg)
        solved, solve = [], V.solve_problem

        def capture(problem):
            result = solve(problem)
            solved.append((problem, result))
            return result

        monkeypatch.setattr(V, "solve_problem", capture)
        for _ in range(12):
            sim.step()
        assert sum(stats.searches > 0 for _, (_, stats) in solved) >= 5
        assert any(stats.drains > 0 for _, (_, stats) in solved)
        solve_regrouped = self._regrouped_solve_mcf()
        for problem, (choice, stats) in solved:
            for value in (stats.pi, stats.objective):
                scaled = np.ldexp(value, 24)
                assert np.array_equal(scaled, np.round(scaled))
            problem.certify(choice, stats.pi)
            regrouped, other = solve_regrouped(V.reduce_to_flow(problem))
            assert np.array_equal(regrouped, choice) and other.objective == stats.objective


def _scene_problem(monkeypatch, scene, frame, band=None):
    """The first correction problem of ``frame`` of a builtin scene at seed 7,
    with the flow solver's result and whether solid penalties entered it."""
    from cellflow import solids as S
    from cellflow.pipeline import Simulation
    from cellflow.scene import builtin_scene

    cfg = builtin_scene(scene)
    cfg.seed = 7
    if band is not None:
        cfg.band = band
    sim = Simulation(cfg)
    for _ in range(frame - 1):
        sim.step()
    captured, penalised = [], []
    solve, override = V.solve_problem, S.override_costs

    def capture(problem):
        result = solve(problem)
        captured.append((problem, result))
        return result

    def record_override(*args, **kwargs):
        penalised.append(True)
        return override(*args, **kwargs)

    monkeypatch.setattr(V, "solve_problem", capture)
    monkeypatch.setattr(S, "override_costs", record_override)
    sim.step()
    problem, (assignment, stats) = captured[0]
    return problem, assignment, stats, bool(penalised)


def _highs_objective(problem):
    """Optimum of the problem's LP relaxation by scipy's HiGHS. Its feasibility
    tolerances are tightened to 1e-10: at the defaults its optimum can lie
    9.4e-10 relative from the exact one (a band-dam problem), close to the
    1e-9 the tests assert."""
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix, vstack

    ii, jj = np.nonzero(problem.valid)
    cols = np.arange(len(ii))
    used, row = np.unique(problem.target_flat[ii, jj], return_inverse=True)
    incidence = csr_matrix((np.ones(len(ii)), (row, cols)), shape=(len(used), len(ii)))
    capped = problem.cap[used] >= 0
    floored = problem.floor[used] > 0
    rows = [incidence[capped], -incidence[floored]]
    bounds = [problem.cap[used][capped], -problem.floor[used][floored]]
    if problem.region is not None:  # lo <= count(region) <= hi as two rows
        inside = csr_matrix(problem.region[problem.target_flat[ii, jj]].astype(float))
        lo, hi = problem.region_bounds
        rows += [inside, -inside]
        bounds += [[hi], [-lo]]
    lp = linprog(problem.cost[ii, jj], A_ub=vstack(rows), b_ub=np.concatenate(bounds),
                 A_eq=csr_matrix((np.ones(len(ii)), (jj, cols)), shape=(problem.n, len(ii))),
                 b_eq=np.ones(problem.n), bounds=(0, 1), method="highs",
                 options={"primal_feasibility_tolerance": 1e-10,
                          "dual_feasibility_tolerance": 1e-10})
    assert lp.status == 0, lp.message
    return lp.fun


def test_dam_problem_matches_highs(monkeypatch):
    """Scene scale: the correction problem of the dam at seed 7, frame 12
    (mid-collapse, n = 3456), against scipy's HiGHS on its LP relaxation."""
    pytest.importorskip("scipy")
    problem, assignment, stats, _ = _scene_problem(monkeypatch, "dam", 12)
    assert problem.n == 3456
    assert stats.drains > 0
    problem.check_feasible(assignment)
    optimum = _highs_objective(problem)
    assert abs(stats.objective - optimum) <= 1e-9 * abs(optimum)


def test_oracle_check_certifies_dam_problem(monkeypatch, tmp_path, capsys):
    """oracle-check proves the dam's seed-7 frame-12 problem (n = 3456)
    optimal from its dump, at a size no exhaustive search reaches, and
    prints README's line: the objective and the solve's work. The golden
    digests cannot see a change in work, so the counts are pinned here."""
    from cellflow import cli

    problem, _, stats, _ = _scene_problem(monkeypatch, "dam", 12)
    dump = tmp_path / "dam12.npz"
    np.savez(dump, **C.dump_problem(problem))
    monkeypatch.undo()
    assert cli.main(["oracle-check", str(dump)]) == 0
    out = capsys.readouterr().out
    line = "flow solve: objective 168.574134886, 306 searches, 3 drains, 20208 pops"
    assert f"flow solve: objective {stats.objective:.9f}," in out
    assert line in out.splitlines()
    assert line in (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    assert "OK: certified optimal (n=3456;" in out


def test_falling_obs_problem_matches_highs(monkeypatch):
    """Scene scale after impact: falling_obs at seed 7, frame 44, where the
    box presses into the pool and solid penalties enter the costs. The
    solve's work is pinned too."""
    pytest.importorskip("scipy")
    problem, assignment, stats, penalised = _scene_problem(monkeypatch, "falling_obs", 44)
    assert penalised
    assert ((stats.searches, stats.drains, stats.pops, stats.scans, stats.tables)
            == (260, 14, 2923, 16750, 1348))
    problem.check_feasible(assignment)
    optimum = _highs_objective(problem)
    assert abs(stats.objective - optimum) <= 1e-9 * abs(optimum)


def _band_problem_matches_highs(monkeypatch, scene, frame, R):
    """The full-strategy band problem of ``frame``, solved through the hub:
    feasible, and equal to HiGHS on its LP relaxation with the region's two
    rows. Returns where the plain optimum's region count lies against the
    interval (-1 below, 1 above), whether solid penalties entered, and the
    solve's stats."""
    from cellflow.band import BandStrategy
    from cellflow.scene import BandConfig

    band = BandConfig(enabled=True, R=R, strategy=BandStrategy.FULL)
    problem, assignment, stats, penalised = _scene_problem(monkeypatch, scene, frame, band)
    problem.check_feasible(assignment)
    optimum = _highs_objective(problem)
    assert abs(stats.objective - optimum) <= 1e-9 * abs(optimum)
    plain = replace(problem, region=None)
    plain_choice, _ = V.solve_problem(plain)
    held = problem.counts_of(plain_choice)[problem.region].sum()
    lo, hi = problem.region_bounds
    return int(held > hi) - int(held < lo), penalised, stats


def test_band_dam_problem_matches_highs(monkeypatch):
    """Band dam R=6 at seed 7, frame 12 (mid-collapse), where the plain
    optimum moves too many particles into the interface and the deep. The
    solve's work through the hub is pinned too."""
    pytest.importorskip("scipy")
    side, _, stats = _band_problem_matches_highs(monkeypatch, "dam", 12, R=6)
    assert side == 1
    assert ((stats.searches, stats.drains, stats.pops, stats.scans, stats.tables)
            == (96, 2, 7693, 42353, 721))


def test_band_falling_obs_problem_matches_highs(monkeypatch):
    """falling_obs with band R=4 at seed 7, frame 44, after the box has hit
    the pool: solid penalties enter the costs, and the plain optimum moves
    too many particles out of the interface. The solve's work is pinned: its
    drains reach the hub, which must offer them only the region cells some
    candidate reaches."""
    pytest.importorskip("scipy")
    side, penalised, stats = _band_problem_matches_highs(monkeypatch, "falling_obs", 44, R=4)
    assert side == -1 and penalised
    assert ((stats.searches, stats.drains, stats.pops, stats.scans, stats.tables)
            == (139, 15, 2350, 13753, 792))


class TestBruteForce:
    def test_refuses_large(self, rng):
        problem, grid, particles = random_problem(rng, n_max=1)
        big_n = BRUTE_FORCE_LIMIT + 1
        # fabricate a wide problem by tiling the candidate arrays
        wide_problem = replace(problem, **{key: np.repeat(getattr(problem, key), big_n, axis=1)
                                           for key in ("cost", "target_flat")})
        with pytest.raises(InputError):
            brute_force_ilp(wide_problem)

    def test_objective_at_most_stay(self, rng):
        for _ in range(10):
            problem, grid, particles = random_problem(rng, n_max=6)
            _, obj = brute_force_ilp(problem)
            stay = stay_choice(problem)
            assert obj <= objective_of(problem, stay) + 1e-12

    def test_two_particles_one_cell(self):
        # both ideals in one cell of capacity 1: exactly one enters, the other
        # takes its next-cheapest candidate
        import cellflow.grid as G
        grid = G.CellGrid((7, 7))
        x = np.array([[2.5, 3.5], [4.5, 3.5]])
        G.classify_cells(grid, x)
        G.assign_depth(grid)
        grid.rebuild_counts(x)
        ideal = np.array([[3.4, 3.5], [3.6, 3.5]])  # both want cell (3, 3)
        problem = C.build_problem(grid, C.build_candidates(x, ideal, grid), mu=1)
        assignment, obj = brute_force_ilp(problem)
        counts = problem.counts_of(assignment)
        assert counts[flat_index(grid, (3, 3))] == 1
        flow_assignment, stats = V.solve_problem(problem)
        assert abs(stats.objective - obj) < 1e-9


class TestTU:
    def test_entries_pm_one(self, rng):
        problem, grid, particles = random_problem(rng, n_max=6)
        A = canonical_matrix(problem)
        assert set(np.unique(A)) <= {-1, 0, 1}

    def test_duplicate_rows_singular(self, rng):
        problem, grid, particles = random_problem(rng, mu=3, n_max=6)
        A = canonical_matrix(problem)
        # the choose-one rows come in +/- pairs: their 2x stack is singular
        n_cands = int(problem.valid.sum())
        r = A[2 * n_cands]
        s = A[2 * n_cands + 1]
        two = np.stack([r[:2], s[:2]]) if n_cands >= 2 else None
        if two is not None and two.shape[1] == 2:
            assert abs(np.linalg.det(two.astype(float))) < 1e-9

    def test_sampled_minors(self):
        rng = np.random.default_rng(31)
        for _ in range(10):
            problem, grid, particles = random_problem(rng, n_max=10)
            assert tu_sample_check(problem, trials=100, max_k=6, rng=rng)
