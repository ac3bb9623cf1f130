"""Solid coupling: motion proposals, penalty objective, gating, face BCs."""
import numpy as np
import pytest

from cellflow import correction as C
from cellflow import grid as G
from cellflow import solids as S
from cellflow import solvers as V
from cellflow.errors import IntegrityError
from cellflow.flip import MacGrid, ParticleSet
from cellflow.scene import SceneConfig

LAMBDA = SceneConfig.lambda_penalty


def tank(dims=(10, 10)):
    grid = G.CellGrid(dims)
    G.classify_cells(grid, np.zeros((0, 2)))
    G.assign_depth(grid)
    grid.snapshot()
    return grid


def box(pos, extent, vel=(0.0, 0.0), **kw):
    return S.Obstacle(pos=np.asarray(pos, float), extent=np.asarray(extent, float),
                      velocity=np.asarray(vel, float), **kw)


class TestProposeMotion:
    def test_stationary_empty_proposal(self):
        grid = tank()
        obs = box((4, 4), (2, 2))
        prop = S.propose_motion(obs, grid, dt=0.5)
        assert len(prop.new_solid) == 0 and not prop.wall_blocked
        assert set(prop.candidate) == set(obs.occupied_flat(grid))

    def test_down_one_cell_claims_bottom_row(self):
        grid = tank()
        obs = box((4, 4), (2, 2), vel=(0.0, -2.0))
        prop = S.propose_motion(obs, grid, dt=0.5)
        expect = {grid.flat((4, 3)), grid.flat((5, 3))}
        assert set(int(c) for c in prop.new_solid) == expect

    def test_blocked_at_floor(self):
        grid = tank()
        obs = box((4, 1), (2, 2), vel=(0.0, -2.0))
        prop = S.propose_motion(obs, grid, dt=0.5)
        assert prop.wall_blocked
        assert len(prop.new_solid) == 0
        assert set(prop.candidate) == set(obs.occupied_flat(grid))

    def test_subcell_motion_within_cells(self):
        grid = tank()
        obs = box((4.0, 4.5), (2, 2), vel=(0.0, -0.4))
        prop = S.propose_motion(obs, grid, dt=0.5)
        assert len(prop.new_solid) == 0  # moved 0.2 cells, occupancy unchanged

    def test_shrinking_occupancy_still_moves(self):
        # box at 4.2 spans rows 4..6; at 4.6 only 4..6 as well, but moving a
        # box off an integer boundary first grows then shrinks the footprint;
        # neither direction may be mistaken for a wall block
        grid = tank()
        obs = box((4.0, 4.2), (2, 2), vel=(0.0, -2.0))
        prop = S.propose_motion(obs, grid, dt=0.1)  # 4.2 -> 4.0: rows shrink
        assert not prop.wall_blocked
        moved = S.gate_motion(obs, grid, ParticleSet.empty(2), prop, dt=0.1)
        assert moved
        assert np.allclose(obs.pos, [4.0, 4.0])


def table_cost(grid, so, x_prev, x_ideal):
    """Solid-overridden candidate costs of one particle, keyed by target cell."""
    x = np.asarray([x_prev], dtype=float)
    G.classify_cells(grid, x)
    G.assign_depth(grid)
    grid.rebuild_counts(x)
    grid.snapshot()
    p = ParticleSet.from_positions(x)
    p.x_ideal = np.asarray([x_ideal], dtype=float)
    table = C.build_candidates(p, grid)
    cost = S.override_costs(table, so)
    return {int(table.target_flat[i, 0]): cost[i, 0] for i in range(table.m) if table.valid[i, 0]}


class TestSolidObjective:
    def test_outside_new_solid_squared_distance(self):
        grid = tank()
        so = S.build_solid_objective(grid, np.array([grid.flat((4, 4))]), LAMBDA)
        # the landing point in the next cell sits EPS inside its near face
        cost = table_cost(grid, so, (2.5, 2.5), (2.5, 2.5))
        assert cost[grid.flat((3, 2))] == pytest.approx((0.5 + C.EPS) ** 2)

    def test_unit_distance_penalty(self):
        grid = tank()
        so = S.build_solid_objective(grid, np.array([grid.flat((4, 4))]), LAMBDA)
        cost = table_cost(grid, so, (4.5, 4.5), (4.5, 4.5))
        assert cost[grid.flat((4, 4))] == pytest.approx(1000.0)

    def test_deeper_cells_penalized_more(self):
        grid = tank(dims=(12, 10))
        # row of prospective cells pinned on the floor, escape at the right
        row = [grid.flat((i, 1)) for i in (1, 2, 3)]
        blockers = np.zeros(grid.ncells, dtype=bool)
        for i in (1, 2, 3):
            blockers[grid.flat((i, 2))] = True
        grid.marking[blockers] = G.SOLID
        so = S.build_solid_objective(grid, np.asarray(row), LAMBDA)
        cost = table_cost(grid, so, (2.5, 1.5), (2.5, 1.5))
        p1 = cost[grid.flat((3, 1))]
        p3 = cost[grid.flat((1, 1))]
        assert p1 == pytest.approx(1000.0)
        assert p3 == pytest.approx(3000.0)
        assert p3 > p1

    def test_override_costs_matches_pointwise(self):
        grid = tank()
        x = np.array([[4.5, 3.5]])
        G.classify_cells(grid, x)
        G.assign_depth(grid)
        grid.rebuild_counts(x)
        grid.snapshot()
        p = ParticleSet.from_positions(x)
        p.x_ideal = np.array([[4.5, 4.4]])
        new_cell = grid.flat((4, 4))
        so = S.build_solid_objective(grid, np.array([new_cell]), LAMBDA)
        table = C.build_candidates(p, grid)
        cost = S.override_costs(table, so)
        for i in range(table.m):
            if not table.valid[i, 0]:
                continue
            # pointwise reference: the penalty if the landing point falls in
            # the prospective solid cell, else its squared distance to ideal
            q = table.xi[i, 0]
            if int(grid.cell_of(q.reshape(1, -1))[0]) == new_cell:
                expected = so.lambda_penalty * float(so.cdist[new_cell])
            else:
                expected = float(((q - p.x_ideal[0]) ** 2).sum())
            assert cost[i, 0] == pytest.approx(expected)

    def test_floor_row_particle_pushed_aside(self):
        # one particle on the floor under a descending obstacle: with graded
        # penalties the optimum moves it toward the escape (brute force check)
        grid = tank(dims=(10, 6))
        x = np.array([[3.5, 1.5]])
        G.classify_cells(grid, x)
        G.assign_depth(grid)
        grid.rebuild_counts(x)
        grid.snapshot()
        p = ParticleSet.from_positions(x)
        p.x_ideal = x.copy()
        row = [grid.flat((i, 1)) for i in (2, 3, 4)]
        blockers = np.zeros(grid.ncells, dtype=bool)
        for i in (2, 3, 4):
            blockers[grid.flat((i, 2))] = True
        grid.marking[blockers] = G.SOLID
        grid.snapshot()
        so = S.build_solid_objective(grid, np.asarray(row), LAMBDA)
        table = C.build_candidates(p, grid)
        problem = C.build_problem(grid, table, mu=4, solid_cost=S.override_costs(table, so))
        assignment, obj = V.brute_force_ilp(problem)
        target = grid.unflat(problem.target_flat[assignment.choice[0], 0])
        # moved one step toward lower clearing distance, not stuck in place
        assert tuple(target) in ((4, 1),)
        flow_a, stats = V.solve_problem(problem)
        assert abs(stats.objective - obj) < 1e-9


class TestGate:
    def test_moves_over_empty(self):
        grid = tank()
        obs = box((4, 4), (2, 2), vel=(0.0, -2.0))
        prop = S.propose_motion(obs, grid, dt=0.5)
        moved = S.gate_motion(obs, grid, ParticleSet.empty(2), prop, dt=0.5)
        assert moved
        assert np.allclose(obs.pos, [4.0, 3.0])

    def test_held_by_particle(self):
        grid = tank()
        obs = box((4, 4), (2, 2), vel=(0.0, -2.0))
        prop = S.propose_motion(obs, grid, dt=0.5)
        p = ParticleSet.from_positions(np.array([[4.5, 3.5]]))
        moved = S.gate_motion(obs, grid, p, prop, dt=0.5)
        assert not moved
        assert np.allclose(obs.pos, [4.0, 4.0])
        assert np.allclose(obs.velocity, [0.0, -2.0])  # velocity retained

    def test_wall_block_holds(self):
        grid = tank()
        obs = box((4, 1), (2, 2), vel=(0.0, -2.0))
        prop = S.propose_motion(obs, grid, dt=0.5)
        moved = S.gate_motion(obs, grid, ParticleSet.empty(2), prop, dt=0.5)
        assert not moved

    def test_determinism_of_reproposal(self):
        grid = tank()
        obs = box((4, 4), (2, 2), vel=(0.0, -2.0))
        p1 = S.propose_motion(obs, grid, dt=0.5)
        p2 = S.propose_motion(obs, grid, dt=0.5)
        assert np.array_equal(p1.new_solid, p2.new_solid)


class TestFreeFall:
    def test_gravity_accumulates_while_moving(self):
        obs = box((4, 6), (2, 2), vel=(0.0, 0.0), kinematics=S.Kinematics.FREE_FALL)
        S.integrate_free_fall(obs, (0.0, -10.0), dt=0.1, moved=True)
        assert np.allclose(obs.velocity, [0.0, -1.0])

    def test_velocity_retained_when_held(self):
        obs = box((4, 6), (2, 2), vel=(0.0, -3.0), kinematics=S.Kinematics.FREE_FALL)
        S.integrate_free_fall(obs, (0.0, -10.0), dt=0.1, moved=False)
        assert np.allclose(obs.velocity, [0.0, -3.0])

    def test_speed_capped(self):
        obs = box((4, 6), (2, 2), vel=(0.0, -9.9), kinematics=S.Kinematics.FREE_FALL)
        S.integrate_free_fall(obs, (0.0, -10.0), dt=1.0, moved=True, max_speed=10.0)
        assert np.abs(obs.velocity).max() <= 10.0


class TestFaceVelocities:
    def test_static_walls_zero(self):
        grid = tank()
        vals = S.solid_face_velocities(grid, grid.dims, [])
        assert all(np.allclose(v, 0.0) for v in vals)

    def test_descending_obstacle_normal_component(self):
        grid = tank()
        obs = box((4, 4), (2, 2), vel=(0.0, -1.5))
        G.classify_cells(grid, np.zeros((0, 2)), [obs])
        vals = S.solid_face_velocities(grid, grid.dims, [obs])
        assert vals[1][4, 4] == pytest.approx(-1.5)  # bottom face of (4,4)
        assert vals[1][5, 6] == pytest.approx(-1.5)  # top face of (5,5)
        assert np.allclose(vals[0], 0.0)  # no horizontal motion

    def test_zero_bc_mode(self):
        grid = tank()
        obs = box((4, 4), (2, 2), vel=(0.0, -1.5), zero_bc=True)
        vals = S.solid_face_velocities(grid, grid.dims, [obs])
        assert all(np.allclose(v, 0.0) for v in vals)
