"""Flow solver vs brute force and HiGHS, TU sampling."""
import numpy as np
import pytest

from cellflow import correction as C
from cellflow import solvers as V
from cellflow.errors import InputError, IntegrityError

from conftest import random_problem
from oracles import canonical_matrix, objective_of, tu_sample_check


class TestReduceToFlow:
    def test_network_shape_single_particle(self, rng):
        problem, grid, particles = random_problem(rng, n_max=1)
        net = V.reduce_to_flow(problem)
        n_cands = int(problem.valid.sum())
        n_cells = len(np.unique(problem.target_flat[problem.valid]))
        assert net.n_particles == 1 and len(net.cand_j) == n_cands
        assert len(net.cap) == len(net.floor) == n_cells
        assert net.n_arcs == 1 + n_cands + n_cells

    def test_solid_cell_arc_capacity_zero(self, rng):
        # the cap of each reached cell, in grid order; solid cells keep cap 0
        solid_seen = False
        for _ in range(20):
            problem, grid, particles = random_problem(rng, solid_prob=0.3)
            net = V.reduce_to_flow(problem)
            used = np.unique(problem.target_flat[problem.valid])
            assert np.array_equal(net.cap, problem.cap[used])
            solid_seen |= bool((net.cap == 0).any())
        assert solid_seen

    def test_lower_bounds_forwarded(self, rng):
        # the floor of each reached cell, in grid order
        floor_seen = False
        for _ in range(20):
            problem, grid, particles = random_problem(rng, dims=(8, 8), mu=4, n_max=80)
            net = V.reduce_to_flow(problem)
            used = np.unique(problem.target_flat[problem.valid])
            assert np.array_equal(net.floor, problem.floor[used])
            floor_seen |= bool((net.floor > 0).any())
        assert floor_seen

    def test_matches_sorted_construction(self):
        # the bincount remap numbers the reached cells in grid order, as
        # np.unique(return_inverse=True) does, so every array is unchanged
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
            # source -> particle, candidate and cell -> sink arcs
            assert net.n_arcs == problem.n + int(problem.valid.sum()) + len(ref.cap)

    def test_unreachable_floor_refused(self, rng):
        problem, grid, particles = random_problem(rng, n_max=4)
        unreached = np.setdiff1d(np.flatnonzero(~grid.wall), problem.target_flat[problem.valid])
        problem.floor[unreached[0]] = 1
        with pytest.raises(IntegrityError, match="unreachable"):
            V.reduce_to_flow(problem)


def _sorted_network(problem):
    """The flow network with its cells numbered by sorting (np.unique)."""
    jj, ii = np.nonzero(problem.valid.T)
    used, cell = np.unique(problem.target_flat[ii, jj], return_inverse=True)
    cap = problem.cap[used]
    return V.FlowNetwork(
        n_particles=problem.n, cand_j=jj.astype(np.int64), cand_i=ii.astype(np.int64),
        cand_cell=cell.astype(np.int64), cand_cost=problem.cost[ii, jj],
        cap=np.where(cap < 0, problem.n, cap), floor=problem.floor[used])


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
            problem.check_feasible(assignment.choice)
            _, oracle = V.brute_force_ilp(problem)
            assert abs(stats.objective - oracle) < 1e-9
            checked += 1
        assert checked == 60

    def test_full_block_permutations_only(self):
        # 2x2 inner block, mu=1, floors pin every cell: objective equals the
        # sum over particles of their stay-candidate costs (enumerated oracle)
        rng = np.random.default_rng(11)
        import cellflow.grid as G
        from cellflow.flip import ParticleSet, clamp_positions
        grid = G.CellGrid((6, 6))
        cells = [(2, 2), (2, 3), (3, 2), (3, 3)]
        x = np.array([[c[0] + 0.5, c[1] + 0.5] for c in cells])
        G.classify_cells(grid, x)
        G.assign_depth(grid)
        grid.rebuild_counts(x)
        # force the block to be inner-like: floors equal to counts
        grid.marking[grid.fluid_mask()] = G.INNER
        grid.snapshot()
        p = ParticleSet.from_positions(x)
        ideal = x + rng.uniform(-0.9, 0.9, size=x.shape)
        p.x_ideal = clamp_positions(ideal, grid.dims, home_cells=np.floor(x))
        problem = C.build_problem(grid, C.build_candidates(p, grid), mu=1)
        assignment, stats = V.solve_problem(problem)
        _, oracle = V.brute_force_ilp(problem)
        assert abs(stats.objective - oracle) < 1e-9
        counts = problem.counts_of(assignment.choice)
        for c in cells:
            assert counts[grid.flat(c)] == 1

    def test_monotone_in_capacity(self):
        # relaxing every cap from mu to mu+1 never increases the optimum
        rng = np.random.default_rng(23)
        for _ in range(20):
            problem, grid, particles = random_problem(rng, mu=2, n_max=8)
            _, s1 = V.solve_problem(problem)
            relaxed = C.CorrectionProblem(
                candidates=problem.candidates, mu=problem.mu,
                cap=np.where(problem.cap > 0, problem.cap + 1, problem.cap),
                floor=problem.floor, cost=problem.cost, dims=problem.dims,
                valid=problem.valid.copy())
            _, s2 = V.solve_problem(relaxed)
            assert s2.objective <= s1.objective + 1e-9

    def test_objective_not_worse_than_stay(self, rng):
        for _ in range(10):
            problem, grid, particles = random_problem(rng)
            assignment, stats = V.solve_problem(problem)
            stay = C.stay_assignment(problem)
            assert stats.objective <= objective_of(problem, stay.choice) + 1e-9

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        problem, grid, particles = random_problem(rng, n_max=10)
        a1, s1 = V.solve_problem(problem)
        a2, s2 = V.solve_problem(problem)
        assert (a1.choice == a2.choice).all()
        assert s1.objective == s2.objective

    def test_empty_problem(self):
        import cellflow.grid as G
        from cellflow.flip import ParticleSet
        grid = G.CellGrid((5, 5))
        G.classify_cells(grid, np.zeros((0, 2)))
        G.assign_depth(grid)
        grid.snapshot()
        p = ParticleSet.empty(2)
        problem = C.build_problem(grid, C.build_candidates(p, grid), mu=4)
        assignment, stats = V.solve_problem(problem)
        assert stats.objective == 0.0
        assert len(assignment.choice) == 0

    def test_particle_without_candidate_refused(self, rng):
        problem, grid, particles = random_problem(rng, n_max=6)
        problem.valid[:, 0] = False
        with pytest.raises(IntegrityError):
            V.solve_problem(problem)

    def test_potentials_stay_valid(self, rng, monkeypatch):
        # per-iteration reduced-cost assertion enabled
        monkeypatch.setattr(V, "CHECK_POTENTIALS", True)
        for _ in range(10):
            problem, grid, particles = random_problem(rng, n_max=10)
            V.solve_problem(problem)


def _pinned_floors(problem, rng, slack):
    """The problem with floors equal to the counts of a random choice within
    the caps, less ``slack`` units, so the floors sum to n - slack."""
    capped = problem.cap >= 0
    for _ in range(50):
        choice = np.array([rng.choice(np.flatnonzero(problem.valid[:, j]))
                           for j in range(problem.n)])
        floor = problem.counts_of(choice)
        if (floor[capped] <= problem.cap[capped]).all():
            break
    else:
        return None
    for c in rng.choice(np.flatnonzero(floor), size=slack, replace=False):
        floor[c] -= 1
    return C.CorrectionProblem(
        candidates=problem.candidates, mu=problem.mu, cap=problem.cap, floor=floor,
        cost=problem.cost, dims=problem.dims, valid=problem.valid.copy())


class TestDrain:
    """Floors summing to n leave the sink full from the start; summing to
    n - 1 it fills after one unit. Units that reach the full sink stay there
    as excess, and backward searches later drain them into the cells still
    below their floor."""

    # _tie_problem seeds whose solve drains more than once, where a later
    # drain reads the in-arc table of a cell that an earlier drain's move
    # must have dropped; a stale table moves a particle that is no longer in
    # the cell, or fails the final optimality check
    DRAIN_INTO_DROPPED_TABLE = (459, 1244, 1262, 1907, 1920)

    @pytest.mark.parametrize("slack", [0, 1])
    def test_matches_brute_force(self, slack, monkeypatch):
        monkeypatch.setattr(V, "CHECK_POTENTIALS", True)
        rng = np.random.default_rng(41 + slack)
        checked = drained = 0
        for _ in range(40):
            problem, grid, particles = random_problem(rng, n_max=8)
            pinned = _pinned_floors(problem, rng, slack)
            if pinned is None:
                continue
            assert int(pinned.floor.sum()) == pinned.n - slack
            assignment, stats = V.solve_problem(pinned)
            pinned.check_feasible(assignment.choice)
            assert stats.objective == pytest.approx(objective_of(pinned, assignment.choice),
                                                    abs=1e-12)
            _, oracle = V.brute_force_ilp(pinned)
            assert abs(stats.objective - oracle) < 1e-9
            checked += 1
            drained += stats.drains > 0
        assert checked >= 30
        assert drained > checked // 2

    @pytest.mark.parametrize("seed", DRAIN_INTO_DROPPED_TABLE)
    def test_drain_into_dropped_table(self, seed, monkeypatch):
        monkeypatch.setattr(V, "CHECK_POTENTIALS", True)
        problem = _tie_problem(np.random.default_rng(seed))
        assignment, stats = V.solve_problem(problem)
        assert stats.drains >= 2
        problem.check_feasible(assignment.choice)
        _, oracle = V.brute_force_ilp(problem)
        assert abs(stats.objective - oracle) < 1e-9


def _tie_problem(rng, dims=(6, 6)):
    """Toy problem rich in equal costs: particles at cell centres or a quarter
    cell off, ideal positions half-cell steps away, so many moves cost alike."""
    import cellflow.grid as G
    from cellflow.flip import ParticleSet, clamp_positions
    grid = G.CellGrid(dims)
    mu = int(rng.integers(1, 4))
    slots = np.repeat(np.flatnonzero(~grid.wall), mu)
    n = int(rng.integers(1, V.BRUTE_FORCE_LIMIT + 1))
    x = grid.unflat(rng.choice(slots, size=n, replace=False)) + 0.5
    x += rng.choice([-0.25, 0.0, 0.25], size=x.shape)
    G.classify_cells(grid, x)
    G.assign_depth(grid)
    grid.rebuild_counts(x)
    grid.snapshot()
    particles = ParticleSet.from_positions(x)
    ideal = x + rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], size=x.shape)
    particles.x_ideal = clamp_positions(ideal, dims, home_cells=np.floor(x))
    return C.build_problem(grid, C.build_candidates(particles, grid), mu)


def _greedy_rejects(problem):
    """Particles the greedy start rejects: each picks its first cheapest
    valid candidate, and a cell takes them in index order up to its cap."""
    picks = np.argmin(np.where(problem.valid, problem.cost, np.inf), axis=0)
    cells = problem.target_flat[picks, np.arange(problem.n)]
    taken = np.zeros(len(problem.cap), dtype=np.int64)
    rejected = 0
    for c in cells:
        if 0 <= problem.cap[c] <= taken[c]:
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
        return C.CorrectionProblem(
            candidates=problem.candidates, mu=problem.mu,
            cap=np.where(problem.cap == 0, 0, problem.n), floor=np.zeros_like(problem.floor),
            cost=problem.cost, dims=problem.dims, valid=problem.valid.copy())

    def test_roomy_problem_needs_no_search(self, monkeypatch):
        monkeypatch.setattr(V, "CHECK_POTENTIALS", True)
        for seed in range(60):
            problem = self._roomy(_tie_problem(np.random.default_rng(seed)))
            assignment, stats = V.solve_problem(problem)
            assert (stats.searches, stats.drains, stats.pops, stats.scans) == (0, 0, 0, 0)
            picks, rejected = _greedy_rejects(problem)
            assert rejected == 0
            assert (assignment.choice == picks).all()  # the first of equal costs
            _, oracle = V.brute_force_ilp(problem)
            assert abs(stats.objective - oracle) < 1e-9

    def test_reduced_cost_check(self):
        # the start ends the solve with pi = 0, which certifies its choice; a
        # feasible choice that moves one particle into a dearer candidate with
        # room leaves the arc back to its cheapest a negative reduced cost
        for seed in range(60):
            problem = self._roomy(_tie_problem(np.random.default_rng(seed)))
            net = V.reduce_to_flow(problem)
            assignment, stats = V.solve_mcf(net)
            assert stats.searches == stats.drains == 0
            chosen = np.flatnonzero(net.cand_i == assignment.choice[net.cand_j])
            counts = np.bincount(net.cand_cell[chosen], minlength=len(net.cap))
            pi = np.zeros(len(net.cap) + 1)
            V._check_reduced_costs(net, chosen, pi, counts)
            dearer = np.flatnonzero((net.cand_cost > net.cand_cost[chosen][net.cand_j])
                                    & (counts[net.cand_cell] < net.cap[net.cand_cell]))
            k = dearer[0]
            p = net.cand_j[k]
            counts[net.cand_cell[chosen[p]]] -= 1
            counts[net.cand_cell[k]] += 1
            chosen[p] = k
            problem.check_feasible(net.cand_i[chosen])
            with pytest.raises(IntegrityError, match="optimality check"):
                V._check_reduced_costs(net, chosen, pi, counts)


class TestArcTables:
    """solve_mcf caches each cell's cheapest arc per neighbour; a cached
    table must be dropped whenever the cell's members change. Tie-heavy
    instances reach the rarer changes, checked against brute force."""

    # _tie_problem seeds where an augmenting path ends in a cell whose table
    # an earlier search built; a stale table there fails the optimality check
    PATH_INTO_BUILT_TABLE = (474, 530, 854, 1318, 4298)

    def _check(self, problem):
        assignment, stats = V.solve_problem(problem)
        problem.check_feasible(assignment.choice)
        _, oracle = V.brute_force_ilp(problem)
        assert abs(stats.objective - oracle) < 1e-9
        return stats

    @pytest.mark.parametrize("seed", PATH_INTO_BUILT_TABLE)
    def test_path_into_built_table(self, seed, monkeypatch):
        monkeypatch.setattr(V, "CHECK_POTENTIALS", True)
        assert self._check(_tie_problem(np.random.default_rng(seed))).searches >= 2

    def test_ties_match_brute_force(self, monkeypatch):
        # also: the greedy start rejects some particles, and only those are searched
        monkeypatch.setattr(V, "CHECK_POTENTIALS", True)
        rejecting = 0
        for seed in range(400):
            problem = _tie_problem(np.random.default_rng(seed))
            _, rejected = _greedy_rejects(problem)
            assert self._check(problem).searches == rejected
            rejecting += rejected > 0
        assert 40 < rejecting < 360


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
    problem.check_feasible(assignment.choice)
    optimum = _highs_objective(problem)
    assert abs(stats.objective - optimum) <= 1e-9 * abs(optimum)


def test_falling_obs_problem_matches_highs(monkeypatch):
    """Scene scale after impact: falling_obs at seed 7, frame 44, where the
    box presses into the pool and solid penalties enter the costs."""
    pytest.importorskip("scipy")
    problem, assignment, stats, penalised = _scene_problem(monkeypatch, "falling_obs", 44)
    assert penalised
    assert stats.searches > 0
    assert stats.drains > 0
    problem.check_feasible(assignment.choice)
    optimum = _highs_objective(problem)
    assert abs(stats.objective - optimum) <= 1e-9 * abs(optimum)


def _band_problem_matches_highs(monkeypatch, scene, frame, R):
    """The full-strategy band problem of ``frame``, solved through the hub:
    feasible, and equal to HiGHS on its LP relaxation with the region's two
    rows. Returns where the plain optimum's region count lies against the
    interval (-1 below, 1 above) and whether solid penalties entered."""
    from cellflow.band import BandStrategy
    from cellflow.scene import BandConfig

    band = BandConfig(enabled=True, R=R, strategy=BandStrategy.FULL)
    problem, assignment, stats, penalised = _scene_problem(monkeypatch, scene, frame, band)
    problem.check_feasible(assignment.choice)
    optimum = _highs_objective(problem)
    assert abs(stats.objective - optimum) <= 1e-9 * abs(optimum)
    plain = C.CorrectionProblem(
        candidates=problem.candidates, mu=problem.mu, cap=problem.cap, floor=problem.floor,
        cost=problem.cost, dims=problem.dims, valid=problem.valid)
    plain_choice, _ = V.solve_problem(plain)
    held = problem.counts_of(plain_choice.choice)[problem.region].sum()
    lo, hi = problem.region_bounds
    return int(held > hi) - int(held < lo), penalised


def test_band_dam_problem_matches_highs(monkeypatch):
    """Band dam R=6 at seed 7, frame 12 (mid-collapse), where the plain
    optimum moves too many particles into the interface and the deep."""
    pytest.importorskip("scipy")
    side, _ = _band_problem_matches_highs(monkeypatch, "dam", 12, R=6)
    assert side == 1


def test_band_falling_obs_problem_matches_highs(monkeypatch):
    """falling_obs with band R=4 at seed 7, frame 44, after the box has hit
    the pool: solid penalties enter the costs, and the plain optimum moves
    too many particles out of the interface."""
    pytest.importorskip("scipy")
    side, penalised = _band_problem_matches_highs(monkeypatch, "falling_obs", 44, R=4)
    assert side == -1 and penalised


class TestBruteForce:
    def test_refuses_large(self, rng):
        problem, grid, particles = random_problem(rng, n_max=1)
        problem.candidates.xi = np.repeat(problem.candidates.xi, 1, axis=1)
        big = C.CorrectionProblem(
            candidates=problem.candidates, mu=problem.mu, cap=problem.cap,
            floor=problem.floor, cost=problem.cost, dims=problem.dims)
        big_n = V.BRUTE_FORCE_LIMIT + 1
        # fabricate a wide problem by tiling the candidate arrays
        table = problem.candidates
        wide = C.CandidateTable(
            xi=np.repeat(table.xi, big_n, axis=1),
            cost=np.repeat(table.cost, big_n, axis=1),
            target_flat=np.repeat(table.target_flat, big_n, axis=1),
            valid=np.repeat(table.valid, big_n, axis=1),
            dirs=table.dirs)
        wide_problem = C.CorrectionProblem(
            candidates=wide, mu=problem.mu, cap=problem.cap, floor=problem.floor,
            cost=np.repeat(problem.cost, big_n, axis=1), dims=problem.dims)
        with pytest.raises(InputError):
            V.brute_force_ilp(wide_problem)

    def test_objective_at_most_stay(self, rng):
        for _ in range(10):
            problem, grid, particles = random_problem(rng, n_max=6)
            _, obj = V.brute_force_ilp(problem)
            stay = C.stay_assignment(problem)
            assert obj <= objective_of(problem, stay.choice) + 1e-12

    def test_two_particles_one_cell(self):
        # both ideals in one cell of capacity 1: exactly one enters, the other
        # takes its next-cheapest candidate
        import cellflow.grid as G
        from cellflow.flip import ParticleSet
        grid = G.CellGrid((7, 7))
        x = np.array([[2.5, 3.5], [4.5, 3.5]])
        G.classify_cells(grid, x)
        G.assign_depth(grid)
        grid.rebuild_counts(x)
        grid.snapshot()
        p = ParticleSet.from_positions(x)
        p.x_ideal = np.array([[3.4, 3.5], [3.6, 3.5]])  # both want cell (3, 3)
        problem = C.build_problem(grid, C.build_candidates(p, grid), mu=1)
        assignment, obj = V.brute_force_ilp(problem)
        counts = problem.counts_of(assignment.choice)
        assert counts[grid.flat((3, 3))] == 1
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
