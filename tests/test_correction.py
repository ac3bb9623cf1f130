"""Correction problem: directions, closest positions, candidates, constraints."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cellflow import correction as C
from cellflow import grid as G
from cellflow import solvers as V
from cellflow.errors import InputError, IntegrityError
from cellflow.flip import ParticleSet

from conftest import (assert_same_problem, flat_index, random_band_instance, random_problem,
                      replayed, stay_choice)


class TestDirections:
    def test_2d(self):
        ds = C.direction_set(2)
        assert len(ds) == 5
        expected = [(1, 0), (0, 1), (-1, 0), (0, -1), (0, 0)]
        assert [tuple(v) for v in ds] == expected

    def test_3d_count(self):
        ds = C.direction_set(3)
        assert len(ds) == 7
        assert (ds[-1] == 0).all()

    def test_zero_vector_last_and_unique(self):
        for d in (2, 3):
            ds = C.direction_set(d)
            zero_rows = [i for i, v in enumerate(ds) if not v.any()]
            assert zero_rows == [len(ds) - 1]

    def test_bad_dimension(self):
        with pytest.raises(InputError):
            C.direction_set(4)


class TestPhiClose:
    def test_inside_cell_unchanged(self):
        q = np.array([3.4, 5.6])
        assert np.allclose(C.phi_close(q, (3, 5)), q)

    def test_clamp_one_axis(self):
        # cell spans [3,4) x [5,6); q right of it clamps to the near face
        out = C.phi_close(np.array([4.7, 5.5]), (3, 5))
        assert np.allclose(out, [3.99, 5.5])

    def test_clamp_both_axes(self):
        out = C.phi_close(np.array([2.2, 4.1]), (3, 5))
        assert np.allclose(out, [3.01, 5.01])

    def test_matches_box_clamp_oracle(self):
        # direct minimization over the margin-shrunk cell box
        rng = np.random.default_rng(0)
        for _ in range(300):
            c = rng.integers(0, 6, size=2)
            q = rng.uniform(-1.5, 7.5, size=2)
            got = C.phi_close(q, c)
            oracle = np.clip(q, c + G.MARGIN, c + 1 - G.MARGIN)
            outside = (q < c) | (q >= c + 1)
            assert np.allclose(got[outside], oracle[outside])
            assert (np.floor(got) == c).all()

    def test_result_strictly_inside(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            c = rng.integers(0, 5, size=2)
            q = rng.uniform(-2, 8, size=2)
            out = C.phi_close(q, c)
            assert (out >= c + G.MARGIN / 2 - 1e-12).all()
            assert (out <= c + 1 - G.MARGIN / 2 + 1e-12).all()


def candidates_at(grid, x_start, x_ideal):
    """The candidate table of particles at x_start with the given ideal positions."""
    return C.build_candidates(np.asarray(x_start, dtype=float), np.asarray(x_ideal, dtype=float),
                              grid)


def classified_grid(dims, cells_with_counts):
    grid = G.CellGrid(dims)
    pts = []
    for cell, cnt in cells_with_counts:
        for k in range(cnt):
            pts.append(np.asarray(cell) + 0.2 + 0.6 * k / max(cnt, 1))
    x = np.asarray(pts).reshape(-1, grid.d) if pts else np.zeros((0, grid.d))
    G.classify_cells(grid, x, ())
    G.assign_depth(grid)
    grid.rebuild_counts(x)
    grid.seeded_positions = x
    return grid


class TestCandidates:
    def test_ideal_in_candidate_cell_costs_zero(self):
        grid = classified_grid((8, 8), [((4, 4), 1)])
        table = candidates_at(grid, [[4.5, 4.5]], [[5.4, 4.5]])  # ideal inside the +x cell
        assert table.target_flat[0, 0] == flat_index(grid, (5, 4))
        assert table.cost[0, 0] == 0.0

    def test_stay_candidate_always_valid(self):
        grid = classified_grid((8, 8), [((1, 1), 1)])
        table = candidates_at(grid, [[1.5, 1.5]], [[1.2, 1.8]])
        assert table.valid[table.m - 1, 0]

    def test_wall_targets_invalid(self):
        grid = classified_grid((8, 8), [((1, 1), 1)])
        table = candidates_at(grid, [[1.5, 1.5]], [[1.5, 1.5]])
        # -x and -y point into the wall layer
        assert not table.valid[2, 0]
        assert not table.valid[3, 0]
        assert table.valid[0, 0] and table.valid[1, 0]

    def test_cost_symmetry(self):
        grid = classified_grid((9, 9), [((4, 4), 1)])
        table = candidates_at(grid, [[4.5, 4.5]], [[4.5, 4.5]])  # centered ideal
        assert table.cost[0, 0] == pytest.approx(table.cost[2, 0])
        assert table.cost[1, 0] == pytest.approx(table.cost[3, 0])

    def test_targets_match_directions(self):
        grid = classified_grid((9, 9), [((4, 4), 1)])
        ideal = np.array([4.9, 4.2])
        table = candidates_at(grid, [[4.3, 4.7]], [ideal])
        for i, dvec in enumerate(C.direction_set(2)):
            if table.valid[i, 0]:
                cell = grid.unflat(table.target_flat[i, 0])
                assert (cell == np.array([4, 4]) + dvec).all()
                assert table.cost[i, 0] == pytest.approx(
                    ((C.phi_close(ideal, cell) - ideal) ** 2).sum())


def build_candidates_on_nd(x_start, x_ideal, cells):
    """Reference: the candidate table built on (m, n, d) arrays, with the
    targets flattened by np.ravel_multi_index and the cost an np.sum over d."""
    dirs = C.direction_set(x_start.shape[1])
    target = np.floor(x_start).astype(np.int64)[None, :, :] + dirs[:, None, :]
    in_bounds = np.all((target >= 0) & (target < np.asarray(cells.dims)), axis=2)
    safe = np.where(in_bounds[:, :, None], target, 0)
    flat = np.ravel_multi_index(tuple(np.moveaxis(safe, 2, 0)), cells.dims).astype(np.int64)
    valid = in_bounds & ~cells.wall[flat]
    xi = C.phi_close(x_ideal[None, :, :], target)
    cost = np.where(valid, np.sum((xi - x_ideal[None, :, :]) ** 2, axis=2), np.inf)
    return xi, cost, np.where(valid, flat, -1), valid


class TestCandidatesByAxis:
    @pytest.mark.parametrize("dims", [(11, 13), (6, 7, 8)])
    def test_matches_nd_construction_bit_for_bit(self, dims):
        """Particles anywhere in the grid, the outer layer included, so moves
        leave the grid or enter a wall; ideal positions up to 1.5 cells away,
        a fifth of their coordinates on cell faces. Half the grids have tank
        walls and a few interior walls, half only scattered walls, so that
        at the edge the grid bounds alone make a move invalid. The apply
        places each particle with a candidate at its chosen candidate's
        reference landing position, bit for bit."""
        rng = np.random.default_rng(len(dims))
        d = len(dims)
        for case in range(8):
            grid = G.CellGrid(dims)
            scattered = rng.random(grid.ncells) < 0.05
            grid.wall = scattered if case % 2 else grid.wall | scattered
            x = rng.uniform(0.0, np.asarray(dims), size=(400, d))
            x[:40] = rng.uniform(0.0, 2.0, size=(40, d))  # beside and inside the low walls
            ideal = x + rng.uniform(-1.5, 1.5, size=x.shape)
            snap = rng.random(x.shape) < 0.2
            ideal[snap] = np.round(ideal[snap])
            table = C.build_candidates(x, ideal, grid)
            xi, *want = build_candidates_on_nd(x, ideal, grid)
            for a, b in zip((table.cost, table.target_flat, table.valid), want):
                assert a.dtype == b.dtype and a.shape == b.shape
                assert a.tobytes() == b.tobytes()
            assert not table.valid.all() and table.valid.any()

            # a random valid choice of each particle that has one, under caps
            # of n that never bind
            kept = np.flatnonzero(table.valid.any(axis=0))
            valid = table.valid[:, kept]
            keys = np.random.default_rng(case).random(valid.shape)
            choice = np.argmax(np.where(valid, keys, -1.0), axis=0)
            problem = C.CorrectionProblem(
                cost=table.cost[:, kept], target_flat=table.target_flat[:, kept],
                cap=np.full(grid.ncells, len(kept), dtype=np.int64),
                floor=np.zeros(grid.ncells, dtype=np.int64), dims=grid.dims,
                region=np.zeros(grid.ncells, dtype=bool), region_bounds=(0, 0))
            particles = ParticleSet.from_positions(x[kept])
            C.apply_solution(problem, choice, particles, ideal[kept])
            landed = xi[choice, kept]
            assert particles.x.dtype == landed.dtype and particles.x.shape == landed.shape
            assert particles.x.tobytes() == landed.tobytes()
            assert (choice != problem.m - 1).any()


class TestBuildProblem:
    def test_full_inner_cells_pinned(self):
        # inner block exactly at capacity: every inner cell floor == cap == mu
        grid = classified_grid((9, 10), [((i, j), 4) for i in range(1, 8) for j in range(1, 8)])
        x = grid.seeded_positions
        table = C.build_candidates(x, x, grid)
        problem = C.build_problem(grid, table, mu=4, classes=None)
        inner = grid.marking == G.INNER
        assert (problem.floor[inner] == 4).all()
        assert (problem.cap[inner] == 4).all()

    def test_prev_surface_cap_only(self):
        grid = classified_grid((8, 8), [((4, 4), 2)])
        table = candidates_at(grid, [[4.5, 4.5]], [[4.5, 4.5]])
        problem = C.build_problem(grid, table, mu=4, classes=None)
        c = flat_index(grid, (4, 4))
        assert problem.cap[c] == 4
        assert problem.floor[c] == 0

    def test_solid_cell_cap_zero(self):
        grid = classified_grid((8, 8), [((4, 4), 1)])
        problem = C.build_problem(grid, candidates_at(grid, [[4.5, 4.5]], [[4.5, 4.5]]), mu=4,
                                  classes=None)
        assert (problem.cap[grid.wall] == 0).all()

    def test_all_stay_feasible_asserted(self):
        grid = classified_grid((8, 8), [((3, 3), 2), ((4, 3), 1)])
        table = candidates_at(grid, [[3.3, 3.5], [3.7, 3.5], [4.5, 3.5]],
                              [[3.3, 3.9], [3.7, 3.2], [4.1, 3.5]])
        problem = C.build_problem(grid, table, mu=4, classes=None)
        stay = stay_choice(problem)
        assert np.array_equal(problem.check_feasible(stay), grid.counts)

    def test_band_row_is_empty(self):
        # plain and band problems alike: no cell in the row, bounds (0, 0),
        # until attach_region replaces it; the plain network has no hub arc
        rng = np.random.default_rng(35)
        built = 0
        while built < 10:
            inst = random_band_instance(rng)
            if inst is None:
                continue
            grid, particles, state, x_ideal = inst
            table = C.build_candidates(particles.x, x_ideal, grid)
            for classes in (None, G.band_classes(grid, state.R)):
                problem = C.build_problem(grid, table, 1, classes)
                assert problem.region.dtype == bool and problem.region.shape == (grid.ncells,)
                assert not problem.region.any() and problem.region_bounds == (0, 0)
                reached = len(np.unique(problem.target_flat[problem.valid]))
                assert problem.n_arcs == problem.n + int(problem.valid.sum()) + reached
            built += 1

    def test_every_cap_is_a_count(self):
        # plain and band problems alike: mu where a cell takes particles, 0
        # on solid cells, and n on the band's deep cells, a cap that never
        # binds
        rng = np.random.default_rng(33)
        with_deep = 0
        for _ in range(40):
            inst = random_band_instance(rng)
            if inst is None:
                continue
            grid, particles, state, x_ideal = inst
            table = C.build_candidates(particles.x, x_ideal, grid)
            classes = G.band_classes(grid, state.R)
            deep = classes["deep"]
            plain = C.build_problem(grid, table, 1, None)
            band = C.build_problem(grid, table, 1, classes)
            cap = np.where(grid.marking == G.SOLID, 0, 1)
            assert np.array_equal(plain.cap, cap)
            assert np.array_equal(band.cap, np.where(deep, band.n, cap))
            with_deep += bool(deep.any())
        assert with_deep >= 10

    def test_gamma_tilde_partition(self):
        grid = classified_grid((8, 8), [((3, 3), 1), ((4, 4), 1)])
        table = candidates_at(grid, [[3.5, 3.5], [4.5, 4.5]], [[3.9, 3.5], [4.2, 4.8]])
        problem = C.build_problem(grid, table, mu=4, classes=None)
        seen = {}
        for j in range(problem.n):
            for i in np.flatnonzero(problem.valid[:, j]):
                assert (i, j) not in seen
                seen[(i, j)] = problem.target_flat[i, j]
        assert len(seen) == int(problem.valid.sum())


class TestApply:
    def test_all_stay_lands_at_phi_close(self):
        grid = classified_grid((8, 8), [((3, 3), 1)])
        p = ParticleSet.from_positions(np.array([[3.5, 3.5]]))
        problem = C.build_problem(grid, candidates_at(grid, p.x, [[4.4, 3.6]]), mu=4, classes=None)
        C.apply_solution(problem, stay_choice(problem), p, np.array([[4.4, 3.6]]))
        assert np.allclose(p.x[0], C.phi_close(np.array([4.4, 3.6]), (3, 3)))

    def test_infeasible_assignment_rejected(self):
        grid = classified_grid((8, 8), [((3, 3), 1), ((3, 4), 1)])
        p = ParticleSet.from_positions(np.array([[3.5, 3.4], [3.5, 4.5]]))
        ideal = np.array([[3.5, 4.4], [3.5, 4.6]])
        problem = C.build_problem(grid, candidates_at(grid, p.x, ideal), mu=1, classes=None)
        bad = np.array([1, 4])  # both into (3, 4), cap 1
        with pytest.raises(IntegrityError):
            C.apply_solution(problem, bad, p, ideal)

    def test_invalid_pick_rejected(self):
        # a pick of a candidate whose target is -1 fails the feasibility
        # check in each of its callers, before any count is taken
        problem, x, ideal = walled_problem()
        choice = stay_choice(problem)
        choice[0] = np.flatnonzero(~problem.valid[:, 0])[0]
        duals = np.zeros(len(problem.cap) + 2)
        p = ParticleSet.from_positions(x)
        for call in (lambda: problem.check_feasible(choice),
                     lambda: problem.certify(choice, duals),
                     lambda: C.apply_solution(problem, choice, p, ideal)):
            with pytest.raises(IntegrityError, match="assignment violates correction constraints"):
                call()
        assert np.array_equal(p.x, x)


def walled_problem():
    """A 3x3 block of single particles beside the low x wall, each pushed
    toward it: the three by the wall have a -x candidate into it, whose
    target is -1 and cost inf. Returns the problem, the particles' positions
    and their ideal positions."""
    grid = classified_grid((8, 8), [((i, j), 1) for i in (1, 2, 3) for j in (2, 3, 4)])
    x = grid.seeded_positions
    ideal = x + [-0.3, 0.1]
    return C.build_problem(grid, candidates_at(grid, x, ideal), mu=2, classes=None), x, ideal


class TestDump:
    def test_round_trip(self, tmp_path):
        # every field comes back through the replay file: the inf costs and
        # -1 targets of the wall's candidates and the caps of cells that no
        # candidate reaches
        problem, _, _ = walled_problem()
        assert (~problem.valid).sum() == 3 and np.isinf(problem.cost[~problem.valid]).all()
        reached = np.isin(np.arange(len(problem.cap)), problem.target_flat[problem.valid])
        assert (problem.cap[~reached] >= 0).all() and problem.floor.any()
        assert_same_problem(replayed(problem, tmp_path / "problem.npz"), problem)

    def test_dump_holds_only_what_the_solve_reads(self):
        # a plain problem's dump holds its empty band row, as a band one does
        problem, _, _ = walled_problem()
        keys = {"cost", "target_flat", "cap", "floor", "dims", "region", "region_bounds"}
        assert set(C.dump_problem(problem)) == keys
        problem.region = np.arange(len(problem.cap)) == 0
        problem.region_bounds = (0, 1)
        assert set(C.dump_problem(problem)) == keys

    def test_archive_with_landing_positions_and_mu_loads(self, tmp_path):
        # a replay file as written while the problem also held its landing
        # positions xi, its validity mask and mu: the loader ignores those,
        # and the problem solves to the same choice and potentials
        problem, x, ideal = walled_problem()
        xi = build_candidates_on_nd(x, ideal, G.CellGrid(problem.dims))[0]
        assert xi.shape == (problem.m, problem.n, 2)
        path = tmp_path / "old.npz"
        np.savez(path, **C.dump_problem(problem), xi=xi, valid=problem.valid, mu=np.int64(2))
        with np.load(path, allow_pickle=False) as arrays:
            assert {"xi", "valid", "mu"} <= set(arrays.files)
            loaded = C.load_problem(dict(arrays))
        assert_same_problem(loaded, problem)
        choice, stats = V.solve_problem(loaded)
        want_choice, want = V.solve_problem(problem)
        assert np.array_equal(choice, want_choice)
        assert stats.pi.tobytes() == want.pi.tobytes()
        assert (choice != problem.m - 1).any()

    def test_reject_garbage(self):
        with pytest.raises(InputError, match="no array 'dims'"):
            C.load_problem({"problem": np.array("not a dump")})


@settings(max_examples=30, deadline=None)
@given(st.floats(-2, 9), st.floats(-2, 9), st.integers(0, 5), st.integers(0, 5))
def test_phi_close_idempotent(qx, qy, cx, cy):
    out = C.phi_close(np.array([qx, qy]), (cx, cy))
    again = C.phi_close(out, (cx, cy))
    assert np.allclose(out, again)
    assert (np.floor(out) == np.array([cx, cy])).all()
