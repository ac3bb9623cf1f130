"""Solid coupling: motion proposals, penalty objective, gating, face BCs."""
import numpy as np
import pytest

from cellflow import correction as C
from cellflow import grid as G
from cellflow import solids as S
from cellflow import solvers as V
from cellflow.errors import IntegrityError
from cellflow.flip import MacGrid, ParticleSet
from cellflow.pipeline import Simulation
from cellflow.scene import Box, FluidRegion, ObstacleConfig, SceneConfig

from conftest import flat_index, random_state
from oracles import brute_force_ilp

LAMBDA = SceneConfig.lambda_penalty


def tank(dims=(10, 10)):
    grid = G.CellGrid(dims)
    G.classify_cells(grid, np.zeros((0, 2)), ())
    G.assign_depth(grid)
    return grid


def box(pos, extent, vel=(0.0, 0.0), **kw):
    return S.Obstacle(ObstacleConfig(Box(pos, np.add(pos, extent)), velocity=vel, **kw))


class TestProposeMotion:
    def test_stationary_empty_proposal(self):
        grid = tank()
        obs = box((4, 4), (2, 2))
        prop = S.propose_motion(obs, grid, dt=0.5)
        assert len(prop.new_solid) == 0 and not prop.wall_blocked

    def test_down_one_cell_claims_bottom_row(self):
        grid = tank()
        obs = box((4, 4), (2, 2), vel=(0.0, -2.0))
        prop = S.propose_motion(obs, grid, dt=0.5)
        expect = {flat_index(grid, (4, 3)), flat_index(grid, (5, 3))}
        assert set(int(c) for c in prop.new_solid) == expect

    def test_blocked_at_floor(self):
        grid = tank()
        obs = box((4, 1), (2, 2), vel=(0.0, -2.0))
        prop = S.propose_motion(obs, grid, dt=0.5)
        assert prop.wall_blocked
        assert len(prop.new_solid) == 0

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
        moved = S.gate_motion(obs, grid, ParticleSet.from_positions(np.zeros((0, 2))), prop, dt=0.1)
        assert moved
        assert np.allclose(obs.pos, [4.0, 4.0])


def table_cost(grid, penalty, x_start, x_ideal):
    """Solid-overridden candidate costs of one particle, keyed by target cell."""
    x = np.asarray([x_start], dtype=float)
    G.classify_cells(grid, x, ())
    G.assign_depth(grid)
    grid.rebuild_counts(x)
    table = C.build_candidates(x, np.asarray([x_ideal], dtype=float), grid)
    S.override_costs(table, penalty)
    return {int(table.target_flat[i, 0]): table.cost[i, 0]
            for i in range(table.m) if table.valid[i, 0]}


class TestSolidObjective:
    def test_outside_new_solid_squared_distance(self):
        grid = tank()
        penalty = S.build_solid_objective(grid, np.array([flat_index(grid, (4, 4))]), LAMBDA)
        # the landing point in the next cell sits MARGIN inside its near face
        cost = table_cost(grid, penalty, (2.5, 2.5), (2.5, 2.5))
        assert cost[flat_index(grid, (3, 2))] == pytest.approx((0.5 + G.MARGIN) ** 2)

    def test_unit_distance_penalty(self):
        grid = tank()
        penalty = S.build_solid_objective(grid, np.array([flat_index(grid, (4, 4))]), LAMBDA)
        cost = table_cost(grid, penalty, (4.5, 4.5), (4.5, 4.5))
        assert cost[flat_index(grid, (4, 4))] == pytest.approx(1000.0)

    def test_deeper_cells_penalized_more(self):
        grid = tank(dims=(12, 10))
        # row of prospective cells pinned on the floor, escape at the right
        row = [flat_index(grid, (i, 1)) for i in (1, 2, 3)]
        blockers = np.zeros(grid.ncells, dtype=bool)
        for i in (1, 2, 3):
            blockers[flat_index(grid, (i, 2))] = True
        grid.marking[blockers] = G.SOLID
        penalty = S.build_solid_objective(grid, np.asarray(row), LAMBDA)
        cost = table_cost(grid, penalty, (2.5, 1.5), (2.5, 1.5))
        p1 = cost[flat_index(grid, (3, 1))]
        p3 = cost[flat_index(grid, (1, 1))]
        assert p1 == pytest.approx(1000.0)
        assert p3 == pytest.approx(3000.0)
        assert p3 > p1

    def test_override_costs_matches_pointwise(self):
        grid = tank()
        x = np.array([[4.5, 3.5]])
        G.classify_cells(grid, x, ())
        G.assign_depth(grid)
        grid.rebuild_counts(x)
        ideal = np.array([[4.5, 4.4]])
        new_cell = flat_index(grid, (4, 4))
        penalty = S.build_solid_objective(grid, np.array([new_cell]), LAMBDA)
        table = C.build_candidates(x, ideal, grid)
        S.override_costs(table, penalty)
        cost = table.cost
        for i in range(table.m):
            if not table.valid[i, 0]:
                continue
            # pointwise reference: the penalty if the landing point falls in
            # the prospective solid cell, else its squared distance to ideal
            q = C.phi_close(ideal[0], np.floor(x[0]) + C.direction_set(2)[i])
            if int(grid.cell_of(q.reshape(1, -1))[0]) == new_cell:
                expected = float(penalty[new_cell])
            else:
                expected = float(((q - ideal[0]) ** 2).sum())
            assert cost[i, 0] == pytest.approx(expected)

    def test_floor_row_particle_pushed_aside(self):
        # one particle on the floor under a descending obstacle: with graded
        # penalties the optimum moves it toward the escape (brute force check)
        grid = tank(dims=(10, 6))
        x = np.array([[3.5, 1.5]])
        G.classify_cells(grid, x, ())
        G.assign_depth(grid)
        grid.rebuild_counts(x)
        row = [flat_index(grid, (i, 1)) for i in (2, 3, 4)]
        blockers = np.zeros(grid.ncells, dtype=bool)
        for i in (2, 3, 4):
            blockers[flat_index(grid, (i, 2))] = True
        grid.marking[blockers] = G.SOLID
        penalty = S.build_solid_objective(grid, np.asarray(row), LAMBDA)
        table = C.build_candidates(x, x, grid)
        S.override_costs(table, penalty)
        problem = C.build_problem(grid, table, mu=4, classes=None)
        assignment, obj = brute_force_ilp(problem)
        target = grid.unflat(problem.target_flat[assignment[0], 0])
        # moved one step toward lower clearing distance, not stuck in place
        assert tuple(target) in ((4, 1),)
        flow_a, stats = V.solve_problem(problem)
        assert abs(stats.objective - obj) < 1e-9


class TestGate:
    def test_moves_over_empty(self):
        grid = tank()
        obs = box((4, 4), (2, 2), vel=(0.0, -2.0))
        prop = S.propose_motion(obs, grid, dt=0.5)
        moved = S.gate_motion(obs, grid, ParticleSet.from_positions(np.zeros((0, 2))), prop, dt=0.5)
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
        moved = S.gate_motion(obs, grid, ParticleSet.from_positions(np.zeros((0, 2))), prop, dt=0.5)
        assert not moved

    def test_determinism_of_reproposal(self):
        grid = tank()
        obs = box((4, 4), (2, 2), vel=(0.0, -2.0))
        p1 = S.propose_motion(obs, grid, dt=0.5)
        p2 = S.propose_motion(obs, grid, dt=0.5)
        assert np.array_equal(p1.new_solid, p2.new_solid)


def override_costs_by_isin(candidates, penalty, new_solid):
    """Reference: override_costs with the claimed cells found by np.isin."""
    in_new = np.isin(candidates.target_flat, new_solid)
    penal = penalty[np.where(in_new, candidates.target_flat, 0)]
    return np.where(in_new & candidates.valid, penal, candidates.cost)


class TestClaimedCellsAgainstSetOperations:
    """The claimed cells, their union over obstacles and the penalized costs
    are found by masks over the cells; each against the set operation it
    replaced."""

    def test_proposal_matches_setdiff1d(self):
        rng = np.random.default_rng(61)
        grid = tank((13, 11))
        blocked = 0
        for _ in range(400):
            extent = rng.integers(1, 5, size=2).astype(float)
            pos = rng.uniform(0.5, np.asarray(grid.dims) - extent - 0.5)
            obs = box(pos, extent, vel=rng.uniform(-3, 3, size=2))
            dt = rng.uniform(0.05, 0.5)
            prop = S.propose_motion(obs, grid, dt)
            if prop.wall_blocked:
                blocked += 1
                assert len(prop.new_solid) == 0
                continue
            want = np.setdiff1d(obs.cells_at(obs.pos + obs.velocity * dt, grid),
                                obs.occupied_flat(grid))
            assert prop.new_solid.dtype == want.dtype and np.array_equal(prop.new_solid, want)
        assert 0 < blocked < 400

    def test_override_costs_matches_isin(self):
        """Random states, particles next to the walls among them, so that
        invalid candidates (target -1) are present."""
        rng = np.random.default_rng(62)
        invalid = 0
        for _ in range(60):
            grid, particles, x_ideal, _ = random_state(rng, dims=(7, 6), n_max=14)
            table = C.build_candidates(particles.x, x_ideal, grid)
            free = np.flatnonzero(grid.marking != G.SOLID)
            new_solid = np.sort(rng.choice(free, size=int(rng.integers(1, 6)), replace=False))
            penalty = S.build_solid_objective(grid, new_solid, LAMBDA)
            want = override_costs_by_isin(table, penalty, new_solid)
            S.override_costs(table, penalty)
            assert table.cost.tobytes() == want.tobytes()
            invalid += int((table.target_flat == -1).sum())
        assert invalid

    def test_union_matches_unique(self, monkeypatch):
        """Two pistons whose footprints share a column push down together:
        the cells the correction penalizes are np.unique of their claims."""
        cfg = SceneConfig(name="pistons", dims=(16, 16), mu=2, frames=8,
                          fluids=[FluidRegion(Box((1, 1), (15, 5)))],
                          obstacles=[ObstacleConfig(Box((2, 9), (7.5, 12)), velocity=(0.0, -3.0)),
                                     ObstacleConfig(Box((7.5, 9), (13, 12)), velocity=(0.0, -3.0))])
        claims, unions = [], []
        propose_motion, build_solid_objective = S.propose_motion, S.build_solid_objective

        def propose(obstacle, grid, dt):
            proposal = propose_motion(obstacle, grid, dt)
            claims.append(proposal.new_solid)
            return proposal

        def objective(grid, new_solid, lambda_penalty):
            unions.append((new_solid, np.unique(np.concatenate(claims[-2:]))))
            return build_solid_objective(grid, new_solid, lambda_penalty)

        sim = Simulation(cfg)
        monkeypatch.setattr(S, "propose_motion", propose)
        monkeypatch.setattr(S, "build_solid_objective", objective)
        for _ in range(cfg.frames):
            sim.step()
        assert unions
        for got, want in unions:
            assert got.dtype == want.dtype and np.array_equal(got, want)
        shared = sum(len(a) + len(b) > len(np.union1d(a, b))
                     for a, b in zip(claims[::2], claims[1::2]))
        assert shared


class TestFreeFall:
    def test_gravity_accumulates_while_moving(self):
        obs = box((4, 6), (2, 2), vel=(0.0, 0.0), kinematics=S.Kinematics.FREE_FALL)
        S.integrate_free_fall(obs, (0.0, -10.0), dt=0.1, moved=True, max_speed=np.inf)
        assert np.allclose(obs.velocity, [0.0, -1.0])

    def test_velocity_retained_when_held(self):
        obs = box((4, 6), (2, 2), vel=(0.0, -3.0), kinematics=S.Kinematics.FREE_FALL)
        S.integrate_free_fall(obs, (0.0, -10.0), dt=0.1, moved=False, max_speed=np.inf)
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
