"""Band method: air bookkeeping, the region row and its hub solve, flow along paths."""
from dataclasses import replace

import numpy as np
import pytest

from conftest import flat_index, random_band_instance, stay_choice
from oracles import (brute_force_ilp, build_one_way, compute_io, gamma_io_masks,
                     objective_of, with_region)

from cellflow import band as B
from cellflow import correction as C
from cellflow import grid as G
from cellflow import solids as S
from cellflow import solvers as V
from cellflow.errors import InputError, IntegrityError
from cellflow.flip import MacGrid, ParticleSet, clamp_positions
from cellflow.scene import SceneConfig


def column_state(width=6, height=10, R=2, mu=1, fill_to=8, dims=None):
    """Tank with a fluid column of the given height, classified and counted."""
    dims = dims or (width + 2, height + 4)
    grid = G.CellGrid(dims)
    pts = []
    for i in range(1, 1 + width):
        for j in range(1, 1 + fill_to):
            for k in range(mu):
                pts.append(np.array([i + 0.3 + 0.4 * k / max(mu, 1), j + 0.5]))
    x = np.asarray(pts)
    G.classify_cells(grid, x)
    G.assign_depth(grid)
    grid.rebuild_counts(x)
    particles = ParticleSet.from_positions(x)
    return grid, particles


class TestAlphas:
    def test_full_interface_zero_air(self):
        grid, particles = column_state(mu=2, R=2)
        state = B.BandState(R=2, n_deep=0)
        cls = G.band_classes(grid, 2)
        deep_capacity = 2 * int(cls["deep"].sum())
        state.n_deep = deep_capacity
        a_int, a_deep = B.compute_alphas(grid, cls, state, mu=2)
        assert a_int == 0
        assert a_deep == 0

    def test_missing_particles_counted(self):
        grid, particles = column_state(mu=4, R=2)
        state = B.BandState(R=2)
        cls = G.band_classes(grid, 2)
        state.n_deep = 4 * int(cls["deep"].sum())
        # hollow out three interface cells: counts 4,3,2 -> alpha = 3
        iface = np.flatnonzero(cls["interface"])[:3]
        grid.counts[iface[1]] = 3
        grid.counts[iface[2]] = 2
        a_int, _ = B.compute_alphas(grid, cls, state, mu=4)
        assert a_int == 3

    def test_negative_air_rejected(self):
        grid, particles = column_state(mu=1, R=2)
        state = B.BandState(R=2, n_deep=10_000)
        with pytest.raises(IntegrityError):
            B.compute_alphas(grid, G.band_classes(grid, 2), state, mu=1)


def solved_plain(grid, particles, x_ideal, mu, R=None):
    table = C.build_candidates(particles.x, x_ideal, grid)
    problem = C.build_problem(grid, table, mu, None if R is None else G.band_classes(grid, R))
    assignment, stats = V.solve_problem(problem)
    return problem, assignment


def push_one_entrant(grid, particles, R):
    """Ideal positions that nudge one above-interface particle a full cell
    down and give the rest of its column a slight downward preference, so the
    optimal solution is a falling chain whose middle link crosses the band
    interface."""
    cls = G.band_classes(grid, R)
    src_cells = grid.cell_of(particles.x)
    x_ideal = particles.x.copy()
    above = np.flatnonzero(cls["layer_above"][src_cells])
    j = int(above[0])
    col = int(np.floor(particles.x[j, 0]))
    same_col = np.flatnonzero(np.floor(particles.x[:, 0]).astype(int) == col)
    for k in same_col:
        if k != j:
            x_ideal[k, 1] -= 0.3
    x_ideal[j, 1] -= 1.0
    return x_ideal


class TestIO:
    def test_no_cross_movement(self):
        grid, particles = column_state(mu=1, R=2)
        problem, assignment = solved_plain(grid, particles, particles.x, mu=1)
        cls = G.band_classes(grid, 2)
        in_mask, out_mask = gamma_io_masks(problem, particles.x, grid, cls)
        n_in, n_out, s_in, s_out = compute_io(assignment, in_mask, out_mask, alpha_le=3)
        assert (n_in, n_out) == (0, 0)
        assert s_in == 3 and s_out == 0

    def test_single_entrant(self):
        grid, particles = column_state(mu=1, R=2, fill_to=8)
        x_ideal = push_one_entrant(grid, particles, R=2)
        problem, assignment = solved_plain(grid, particles, x_ideal, mu=1, R=2)
        cls = G.band_classes(grid, 2)
        in_mask, out_mask = gamma_io_masks(problem, particles.x, grid, cls)
        n_in, n_out, s_in, s_out = compute_io(assignment, in_mask, out_mask, alpha_le=0)
        assert (n_in, n_out) == (1, 0)
        assert s_in == -1 and s_out == 1


class TestOneWay:
    def test_requires_negative_slack(self):
        grid, particles = column_state(mu=1, R=2)
        problem, assignment = solved_plain(grid, particles, particles.x, mu=1)
        cls = G.band_classes(grid, 2)
        in_mask, out_mask = gamma_io_masks(problem, particles.x, grid, cls)
        with pytest.raises(InputError):
            build_one_way(problem, assignment, in_mask, out_mask, alpha_le=5)

    def test_zero_entrants_forced(self):
        # the single-entrant situation with no air: the point interval pins
        # entrants to zero and the constrained optimum keeps everyone out
        grid, particles = column_state(mu=1, R=2, fill_to=8)
        x_ideal = push_one_entrant(grid, particles, R=2)
        problem, assignment = solved_plain(grid, particles, x_ideal, mu=1, R=2)
        cls = G.band_classes(grid, 2)
        in_mask, out_mask = gamma_io_masks(problem, particles.x, grid, cls)
        full = with_region(problem, grid, R=2, alpha_le=0)
        constrained = build_one_way(full, assignment, in_mask, out_mask, alpha_le=0)
        fixed, stats = V.solve_problem(constrained)
        constrained.check_feasible(fixed)
        n_in, n_out, s_in, s_out = compute_io(fixed, in_mask, out_mask, alpha_le=0)
        assert n_in == 0
        assert s_in >= 0 and s_out >= 0

    def test_vacuous_alpha_keeps_optimum(self):
        grid, particles = column_state(mu=1, R=2, fill_to=8)
        x_ideal = push_one_entrant(grid, particles, R=2)
        problem, assignment = solved_plain(grid, particles, x_ideal, mu=1, R=2)
        cls = G.band_classes(grid, 2)
        in_mask, out_mask = gamma_io_masks(problem, particles.x, grid, cls)
        n_in, n_out, s_in, s_out = compute_io(assignment, in_mask, out_mask, alpha_le=1)
        # alpha of 1 absorbs the entrant, so the full band row is satisfied by
        # the unconstrained optimum and the hub solve reproduces it
        assert s_in >= 0
        constrained = with_region(problem, grid, R=2, alpha_le=1)
        a2, stats2 = V.solve_problem(constrained)
        _, stats = V.solve_problem(problem)
        assert abs(stats2.objective - stats.objective) < 1e-9


def table_edge_cost(grid, particles, mu=1, classes=None, x_ideal=None):
    """Edge costs read from the correction problem of the current state (the
    band problem of ``classes``, else the plain one), over the all-stay
    choice: every particle in its previous-step cell. Without ``x_ideal``
    every particle's ideal position is where it stands."""
    x_ideal = particles.x if x_ideal is None else x_ideal
    problem = C.build_problem(grid, C.build_candidates(particles.x, x_ideal, grid), mu, classes)
    return B.EdgeCost(problem, stay_choice(problem))


def members_of(grid, edge_cost):
    """Cell membership of the edge costs' choice vector."""
    choice = edge_cost.current
    return B.CellMembers(edge_cost.target[choice, np.arange(len(choice))], grid.ncells)


def cell_of_choice(edge_cost, j):
    """The cell that particle j's entry of the choice vector selects."""
    return int(edge_cost.target[edge_cost.current[j], j])


def open_rule(grid):
    """No crossing limits: the bare path mechanics."""
    none = np.zeros(grid.ncells, dtype=bool)
    return none, none


def crossing(cls, drain):
    """The heavy side's (from, to) crossing masks of the drain or the refill
    mode, as correct_band_flow picks them."""
    iface, above = cls["interface"], cls["layer_above"]
    return (iface, above) if drain else (above, iface)


class TestFindPaths:
    def test_adjacent_sink_single_step(self):
        grid, particles = column_state(mu=1, R=2, fill_to=6)
        edge_cost = table_edge_cost(grid, particles)
        members = members_of(grid, edge_cost)
        src = flat_index(grid, (3, 6))   # top fluid row (surface)
        sink = flat_index(grid, (3, 7))  # empty cell above
        paths, J = B.find_paths(grid, members, np.array([src]), np.array([sink]),
                                edge_cost=edge_cost, crossing=open_rule(grid))
        assert len(paths) == 1
        assert paths[0][1] == sink

    def test_empty_source_no_paths(self):
        grid, particles = column_state(mu=1, R=2, fill_to=4)
        edge_cost = table_edge_cost(grid, particles)
        members = members_of(grid, edge_cost)
        empty_src = flat_index(grid, (3, 8))
        paths, J = B.find_paths(grid, members, np.array([empty_src]),
                                np.array([flat_index(grid, (3, 9))]),
                                edge_cost=edge_cost, crossing=open_rule(grid))
        assert paths == []

    def test_paths_disjoint(self):
        grid, particles = column_state(width=8, mu=1, R=2, fill_to=6)
        edge_cost = table_edge_cost(grid, particles)
        members = members_of(grid, edge_cost)
        sources = np.array([flat_index(grid, (i, 6)) for i in range(1, 9)])
        sinks = np.array([flat_index(grid, (i, 7)) for i in range(1, 9)])
        paths, J = B.find_paths(grid, members, sources, sinks,
                                edge_cost=edge_cost, crossing=open_rule(grid))
        assert len(paths) >= 2
        sink_cells = [sink for _, sink in paths]
        assert len(set(sink_cells)) == len(sink_cells)

    def test_best_edge_skips_far_particles(self):
        grid, particles = column_state(mu=1, R=2, fill_to=6)
        edge_cost = table_edge_cost(grid, particles)
        members = members_of(grid, edge_cost)
        x_prev_cells = edge_cost.home
        c = flat_index(grid, (3, 3))
        c_far = flat_index(grid, (3, 5))  # two cells away from any (3,3) resident's home
        j, sigma = B.best_edge(c_far, flat_index(grid, (3, 6)), members, edge_cost, open_rule(grid))
        resident = members.members(c_far)[0]
        assert j == resident  # resident of (3,5) can move up: its home is (3,5)
        assert sigma == edge_cost(j, flat_index(grid, (3, 6)))
        # now ask for a move where neither cell is the particle's home
        moved = members_of(grid, edge_cost)
        moved.move(resident, c_far, flat_index(grid, (4, 5)))
        edge2 = B.best_edge(flat_index(grid, (4, 5)), flat_index(grid, (5, 5)), moved, edge_cost,
                            open_rule(grid))
        others = [jj for jj in moved.members(flat_index(grid, (4, 5)))
                  if x_prev_cells[jj] in (flat_index(grid, (4, 5)), flat_index(grid, (5, 5)))]
        if not others:
            assert edge2 is None or x_prev_cells[edge2[0]] in (flat_index(grid, (4, 5)), flat_index(grid, (5, 5)))

    def test_toward_ideal_negative_edge(self):
        grid, particles = column_state(mu=1, R=2, fill_to=6)
        j = 0
        src = int(grid.cell_of(particles.x[j:j + 1])[0])
        up = grid.unflat(src) + np.array([0, 1])
        x_ideal = particles.x.copy()
        x_ideal[j] = up + 0.5  # wants the cell above
        edge_cost = table_edge_cost(grid, particles, x_ideal=x_ideal)
        assert edge_cost(j, flat_index(grid, up)) < 0


class TestUpdatePath:
    def test_single_step_counts(self):
        grid, particles = column_state(mu=1, R=2, fill_to=6)
        edge_cost = table_edge_cost(grid, particles)
        members = members_of(grid, edge_cost)
        src = flat_index(grid, (3, 6))
        sink = flat_index(grid, (3, 7))
        before_src = members.counts[src]
        paths, J = B.find_paths(grid, members, np.array([src]), np.array([sink]),
                                edge_cost=edge_cost, crossing=open_rule(grid))
        B.update_path(paths[0], J, members, edge_cost)
        assert members.counts[sink] == 1
        assert members.counts[src] == before_src - 1

    def test_chain_preserves_intermediate_counts(self):
        # force a 3-cell chain: column of full cells, sink at the top
        grid, particles = column_state(width=3, mu=1, R=1, fill_to=5)
        edge_cost = table_edge_cost(grid, particles)
        members = members_of(grid, edge_cost)
        src = flat_index(grid, (2, 3))
        sink = flat_index(grid, (2, 6))  # above the column top (5)
        paths, J = B.find_paths(grid, members, np.array([src]), np.array([sink]),
                                edge_cost=edge_cost, crossing=open_rule(grid))
        assert len(paths) == 1
        mids = [flat_index(grid, (2, 4)), flat_index(grid, (2, 5))]
        before = [members.counts[c] for c in mids]
        B.update_path(paths[0], J, members, edge_cost)
        after = [members.counts[c] for c in mids]
        assert before == after
        assert members.counts[sink] == 1
        assert members.counts[src] == 0


def home_particle(grid, particles, cell):
    """The particle whose previous-step cell is `cell` (1 ppc states)."""
    return int(np.flatnonzero(grid.cell_of(particles.x) == flat_index(grid, cell))[0])


def relocate(grid, edge_cost, j, cell):
    """Select `cell` for particle j in the choice vector, as a first solve would."""
    edge_cost.current[j] = edge_cost.direction(j, flat_index(grid, cell))


class TestEdgeCost:
    """Edge costs come from the correction problem's candidate table, priced
    from the cell the choice vector selects for the particle."""

    def test_solid_penalty_from_table(self):
        grid, particles = column_state(mu=1, R=2, fill_to=6)
        j = home_particle(grid, particles, (3, 6))
        up = flat_index(grid, (3, 7))
        penalty = S.build_solid_objective(grid, np.array([up]), SceneConfig.lambda_penalty)
        table = C.build_candidates(particles.x, particles.x, grid)
        S.override_costs(table, penalty)
        problem = C.build_problem(grid, table, 1)
        edge_cost = B.EdgeCost(problem, stay_choice(problem))
        assert edge_cost(j, up) == penalty[up] - problem.cost[-1, j]

    def test_wall_cell_costs_inf(self):
        grid, particles = column_state(mu=1, R=2, fill_to=6)
        j = home_particle(grid, particles, (1, 3))
        assert table_edge_cost(grid, particles)(j, flat_index(grid, (0, 3))) == np.inf

    def test_prices_from_the_cell_moved_into(self):
        grid, particles = column_state(mu=1, R=2, fill_to=6)
        edge_cost = table_edge_cost(grid, particles)
        j = home_particle(grid, particles, (3, 6))
        home, up = flat_index(grid, (3, 6)), flat_index(grid, (3, 7))
        rise = edge_cost(j, up)
        relocate(grid, edge_cost, j, (3, 7))
        assert cell_of_choice(edge_cost, j) == up
        assert edge_cost(j, up) == 0.0
        assert edge_cost(j, home) == -rise

    def test_particle_off_its_candidates_rejected(self):
        # a particle stands in one of its candidate cells by construction (it
        # is an entry of the choice vector); a move off them has no price
        grid, particles = column_state(mu=1, R=2, fill_to=6)
        j = home_particle(grid, particles, (3, 3))
        edge_cost = table_edge_cost(grid, particles)
        with pytest.raises(KeyError):
            edge_cost(j, flat_index(grid, (3, 5)))


IFACE, ABOVE = (3, 6), (3, 7)  # interface and layer above in column_state(R=2)
MODES = pytest.mark.parametrize("drain", [True, False], ids=["drain", "refill"])


class TestCrossingRule:
    """A path crosses the band interface only by reverting one crossing of
    the heavy side; the mirrored move is refused in each mode."""

    def build(self, drain):
        grid, particles = column_state(mu=1, R=2, fill_to=8)
        cls = G.band_classes(grid, 2)
        assert cls["interface"][flat_index(grid, IFACE)] and cls["layer_above"][flat_index(grid, ABOVE)]
        heavy_from, heavy_to = (IFACE, ABOVE) if drain else (ABOVE, IFACE)
        return grid, particles, crossing(cls, drain), heavy_from, heavy_to

    def edge(self, grid, edge_cost, c, c_next, rule):
        edge = B.best_edge(flat_index(grid, c), flat_index(grid, c_next), members_of(grid, edge_cost),
                           edge_cost, rule)
        return None if edge is None else edge[0]

    @MODES
    def test_refuses_new_heavy_crossing(self, drain):
        # draining: a non-entrant leaving the interface; refilling: a
        # non-leaver entering it
        grid, particles, rule, heavy_from, heavy_to = self.build(drain)
        edge_cost = table_edge_cost(grid, particles)
        resident = home_particle(grid, particles, heavy_from)
        assert self.edge(grid, edge_cost, heavy_from, heavy_to, open_rule(grid)) == resident
        assert self.edge(grid, edge_cost, heavy_from, heavy_to, rule) is None

    @MODES
    def test_refuses_light_direction(self, drain):
        grid, particles, rule, heavy_from, heavy_to = self.build(drain)
        edge_cost = table_edge_cost(grid, particles)
        resident = home_particle(grid, particles, heavy_to)
        assert self.edge(grid, edge_cost, heavy_to, heavy_from, open_rule(grid)) == resident
        assert self.edge(grid, edge_cost, heavy_to, heavy_from, rule) is None
        # even a particle returning home that way adds to the heavy side
        crosser = home_particle(grid, particles, heavy_from)
        relocate(grid, edge_cost, crosser, heavy_to)
        assert self.edge(grid, edge_cost, heavy_to, heavy_from, rule) is None

    @MODES
    def test_allows_heavy_crosser_return(self, drain):
        # a first-solve entrant (draining) or leaver (refilling) goes back,
        # although its return costs more than the resident's move
        grid, particles, rule, heavy_from, heavy_to = self.build(drain)
        crosser = home_particle(grid, particles, heavy_to)
        step = np.subtract(heavy_to, heavy_from)
        x_ideal = particles.x.copy()
        x_ideal[crosser] = np.add(heavy_from, 0.5) - 0.9 * step
        edge_cost = table_edge_cost(grid, particles, x_ideal=x_ideal)
        relocate(grid, edge_cost, crosser, heavy_from)
        resident = home_particle(grid, particles, heavy_from)
        assert self.edge(grid, edge_cost, heavy_from, heavy_to, open_rule(grid)) == resident
        assert self.edge(grid, edge_cost, heavy_from, heavy_to, rule) == crosser


class TestPathCapacity:
    """Deep cells' caps in the correction problem are n, which never binds,
    so paths may pass through or end in deep cells that already hold mu or
    more."""

    def build(self, drain):
        # R = 1, 1 ppc: row 6 is the surface (the layer above the interface),
        # row 5 the interface, rows 1-4 deep
        grid, particles = column_state(width=3, mu=1, R=1, fill_to=6)
        return grid, particles, G.band_classes(grid, 1)

    def test_path_through_overfull_deep_cell(self):
        grid, particles, cls = self.build(drain=True)
        edge_cost = table_edge_cost(grid, particles, classes=cls)
        h = {c: home_particle(grid, particles, c)
             for c in [(1, 5), (1, 4), (2, 4), (2, 5), (2, 6)]}
        # first solve: an entrant drops from (2,6) into (2,5), whose resident
        # sinks into the deep cell (2,4), now holding 2 > mu
        relocate(grid, edge_cost, h[(2, 6)], (2, 5))
        relocate(grid, edge_cost, h[(2, 5)], (2, 4))
        # path (1,5) -> (1,4) -> (2,4) -> (2,5) -> (2,6): the entrant returns
        J = np.full(grid.ncells, B.NONE, dtype=np.int64)
        J[flat_index(grid, (1, 5))] = B.ROOT
        J[flat_index(grid, (1, 4))] = h[(1, 5)]
        J[flat_index(grid, (2, 4))] = h[(1, 4)]
        J[flat_index(grid, (2, 5))] = h[(2, 4)]
        path = (h[(2, 6)], flat_index(grid, (2, 6)))
        members = members_of(grid, edge_cost)
        B.update_path(path, J, members, edge_cost)
        assert members.counts[flat_index(grid, (2, 4))] == 2
        assert members.counts[flat_index(grid, (2, 6))] == 1
        assert members.counts[flat_index(grid, (1, 5))] == 0

    def test_refill_path_ends_in_full_deep_cell(self):
        grid, particles, cls = self.build(drain=False)
        edge_cost = table_edge_cost(grid, particles, classes=cls)
        leaver = home_particle(grid, particles, (2, 5))
        climber = home_particle(grid, particles, (2, 4))
        # first solve: the surface resident rises into the air, the interface
        # resident leaves into its place, the deep (2,4) resident rises into
        # the interface and a neighbour refills (2,4) to mu
        relocate(grid, edge_cost, home_particle(grid, particles, (2, 6)), (2, 7))
        relocate(grid, edge_cost, leaver, (2, 6))
        relocate(grid, edge_cost, climber, (2, 5))
        relocate(grid, edge_cost, home_particle(grid, particles, (1, 4)), (2, 4))
        members = members_of(grid, edge_cost)
        deep_cell = flat_index(grid, (2, 4))
        assert members.counts[deep_cell] == 1
        paths, J = B.find_paths(grid, members, np.array([flat_index(grid, (2, 6))]),
                                np.flatnonzero(cls["interface"] | cls["deep"]),
                                edge_cost=edge_cost, crossing=crossing(cls, drain=False))
        assert [sink for _, sink in paths] == [deep_cell]
        B.update_path(paths[0], J, members, edge_cost)
        assert members.counts[deep_cell] == 2
        assert cell_of_choice(edge_cost, leaver) == flat_index(grid, (2, 5))
        assert cell_of_choice(edge_cost, climber) == deep_cell


@pytest.mark.parametrize("push", [-1.0, 1.0], ids=["down-drain", "up-refill"])
def test_flow_paths_stay_in_one_way_set(push):
    """Every flow-paths result is a feasible point of the one-way problem, at
    the same objective, so the exact one-way optimum never costs more."""
    rng = np.random.default_rng(4242)
    corrected = 0
    for _ in range(400):
        inst = random_band_instance(rng, push)
        if inst is None:
            continue
        grid, particles, state, x_ideal = inst
        table = C.build_candidates(particles.x, x_ideal, grid)
        cls = G.band_classes(grid, state.R)
        problem = C.build_problem(grid, table, mu=1, classes=cls)
        in_mask, out_mask = gamma_io_masks(problem, particles.x, grid, cls)
        assignment, _ = V.solve_problem(problem)
        _, _, s_in, s_out = compute_io(assignment, in_mask, out_mask, state.alpha_le)
        if s_in >= 0 and s_out >= 0:
            continue
        full = with_region(problem, grid, state.R, state.alpha_le)
        one_way = build_one_way(full, assignment, in_mask, out_mask, state.alpha_le)
        choice = assignment
        B.correct_band_flow(grid, problem, choice, cls, state)
        C.apply_solution(problem, assignment, particles, x_ideal)  # checks the band row it carries
        one_way.check_feasible(choice)
        # the particles moved by the choice's unrounded costs; the problems
        # hold them rounded to multiples of 2^-24
        moved = float(((particles.x - x_ideal) ** 2).sum())
        assert abs(moved - float(table.cost[choice, np.arange(problem.n)].sum())) < 1e-9
        flow_obj = objective_of(problem, choice)
        assert abs(objective_of(one_way, choice) - flow_obj) < 1e-9
        corrected += 1
    assert corrected >= 30


@pytest.mark.parametrize("push", [-1.0, 1.0], ids=["down-drain", "up-refill"])
def test_flow_paths_one_move_short_fails_band_row(push, monkeypatch):
    """Flow-paths leaves the band row attached to the problem, so
    check_feasible judges its result: the whole repair passes, and the same
    choice with its last repair move left out fails on the row alone."""
    before_move = []
    update_path = B.update_path

    def recorded(path, J, members, edge_cost):
        before_move.append(edge_cost.current.copy())
        update_path(path, J, members, edge_cost)

    monkeypatch.setattr(B, "update_path", recorded)
    rng = np.random.default_rng(515)
    repaired = 0
    for _ in range(300):
        inst = random_band_instance(rng, push)
        if inst is None:
            continue
        grid, particles, state, x_ideal = inst
        cls = G.band_classes(grid, state.R)
        problem = C.build_problem(grid, C.build_candidates(particles.x, x_ideal, grid), mu=1,
                                  classes=cls)
        choice = V.solve_problem(problem)[0]
        before_move.clear()
        try:
            diag = B.correct_band_flow(grid, problem, choice, cls, state)
        except IntegrityError as exc:
            # flow-paths is a heuristic that can find no path to repay the
            # slack (one refill toy at this seed); such a toy has no result
            # to check against the row
            assert "found no path" in str(exc)
            continue
        assert problem.region is not None
        problem.check_feasible(choice)
        if diag["n_move"] == 0:
            continue
        assert len(before_move) == diag["n_move"]
        short = before_move[-1]
        with pytest.raises(IntegrityError, match="assignment violates correction constraints"):
            problem.check_feasible(short)
        replace(problem, region=None).check_feasible(short)
        repaired += 1
    assert repaired >= 20


def band_toys(push, count, seed=4242):
    """``count`` toy band problems from random_band_instance, each with its
    plain problem, its full band problem and the crossing masks."""
    rng = np.random.default_rng(seed)
    toys = []
    while len(toys) < count:
        inst = random_band_instance(rng, push)
        if inst is None:
            continue
        grid, particles, state, x_ideal = inst
        cls = G.band_classes(grid, state.R)
        problem = C.build_problem(grid, C.build_candidates(particles.x, x_ideal, grid), mu=1,
                                  classes=cls)
        full = with_region(problem, grid, state.R, state.alpha_le)
        masks = gamma_io_masks(problem, particles.x, grid, cls)
        toys.append((grid, particles, state, problem, full, masks))
    return toys


class TestHubSolve:
    """The band row as a bound on the region's count, solved through the hub,
    against brute force on the same region-carrying problems."""

    @pytest.mark.parametrize("push", [-1.0, 1.0], ids=["down-drain", "up-refill"])
    def test_matches_brute_force(self, push):
        binding = 0
        for grid, particles, state, problem, full, (in_mask, out_mask) in band_toys(push, 200):
            assignment, stats = V.solve_problem(full)
            full.check_feasible(assignment)
            _, oracle = brute_force_ilp(full)
            assert abs(stats.objective - oracle) < 1e-9
            plain, _ = V.solve_problem(problem)
            _, _, s_in, s_out = compute_io(plain, in_mask, out_mask, state.alpha_le)
            if s_in >= 0 and s_out >= 0:
                continue
            binding += 1
            one_way = build_one_way(full, plain, in_mask, out_mask, state.alpha_le)
            assignment, stats = V.solve_problem(one_way)
            one_way.check_feasible(assignment)
            _, oracle = brute_force_ilp(one_way)
            assert abs(stats.objective - oracle) < 1e-9
        assert binding >= 30

    def test_wide_intervals_match_brute_force(self):
        # the toys' air is zero, so their intervals are points; widen them
        # around F so that the hub passes units on to the sink and takes
        # them back
        rng = np.random.default_rng(77)
        solved = 0
        for push in (-1.0, 1.0):
            for grid, particles, state, problem, full, _ in band_toys(push, 100, seed=31):
                start = full.region_bounds[0]
                full.region_bounds = (start - int(rng.integers(0, 3)), start + int(rng.integers(1, 3)))
                try:
                    _, oracle = brute_force_ilp(full)
                except IntegrityError:
                    continue  # no selection meets the interval
                assignment, stats = V.solve_problem(full)
                full.check_feasible(assignment)
                assert abs(stats.objective - oracle) < 1e-9
                solved += 1
        assert solved >= 150

    def test_vacuous_interval_equals_plain_solve(self):
        for push in (-1.0, 1.0):
            for grid, particles, state, problem, full, _ in band_toys(push, 50, seed=17):
                full.region_bounds = (0, problem.n)
                _, stats = V.solve_problem(full)
                _, plain = V.solve_problem(problem)
                assert abs(stats.objective - plain.objective) < 1e-9

    def test_network_carries_the_hub(self):
        grid, particles, state, problem, full, _ = band_toys(-1.0, 1)[0]
        net, plain = V.reduce_to_flow(full), V.reduce_to_flow(problem)
        assert np.array_equal(net.hub_cell, full.region)
        assert (net.hub_floor, net.hub_cap) == full.region_bounds
        assert plain.hub_cell is None and net.n_arcs == plain.n_arcs + 1

    def test_floored_region_refused(self):
        grid, particles, state, problem, full, _ = band_toys(-1.0, 1)[0]
        full.floor = full.floor.copy()
        reached = np.unique(full.target_flat[full.valid])
        full.floor[reached[full.region[reached]][0]] = 1
        with pytest.raises(InputError, match="floors"):
            V.reduce_to_flow(full)

    def test_doctored_region_refused(self):
        # an interface cell dropped from the region: a move between it and a
        # neighbour changes the region's count without crossing the interface
        grid, particles, state, problem, full, _ = band_toys(-1.0, 1)[0]
        cls = G.band_classes(grid, state.R)
        prev_cells = grid.cell_of(particles.x)
        held = np.flatnonzero(cls["interface"] & (np.bincount(prev_cells, minlength=grid.ncells) > 0))
        cls["region"] = cls["region"].copy()
        cls["region"][held[0]] = False
        with pytest.raises(IntegrityError, match="band region"):
            B.attach_region(problem, cls, state.alpha_le)
        assert problem.region is None


class TestMaintain:
    def _band_grid(self, R=1, mu=1):
        grid, particles = column_state(width=4, mu=mu, R=R, fill_to=6)
        state = B.BandState(R=R)
        return grid, particles, state

    @staticmethod
    def _maintain(grid, particles, state, rng):
        """Band maintenance after a substep that left the markings unchanged."""
        return B.maintain_band(grid, particles, state, G.band_classes(grid, state.R), mu=1,
                               rng=rng, mac=MacGrid(grid.dims))

    def test_deep_particles_deleted(self):
        grid, particles, state = self._band_grid(R=1)
        n0 = particles.n
        rng = np.random.default_rng(0)
        out = self._maintain(grid, particles, state, rng)
        deep_cells = int((grid.fluid_mask() & (grid.depth < -1)).sum())
        assert out["removed"] == deep_cells  # 1 ppc
        assert state.n_deep == deep_cells
        assert particles.n + state.n_deep == n0

    def test_noop_when_band_balanced(self):
        grid, particles, state = self._band_grid(R=1)
        rng = np.random.default_rng(0)
        self._maintain(grid, particles, state, rng)
        n_before = particles.n
        deep_before = state.n_deep
        self._maintain(grid, particles, state, rng)
        assert particles.n == n_before
        assert state.n_deep == deep_before

    def test_excess_reseeded_into_interface(self):
        grid, particles, state = self._band_grid(R=1)
        rng = np.random.default_rng(0)
        self._maintain(grid, particles, state, rng)
        # two interface residents wander off (delete them) while two imaginary
        # deep particles surface: reseeding refills the freed interface cells
        iface = np.flatnonzero(grid.fluid_mask() & (grid.depth == -1))
        flat = grid.cell_of(particles.x)
        gone = [j for j in range(particles.n) if flat[j] in iface[:2]]
        assert len(gone) == 2
        particles.keep(~np.isin(np.arange(particles.n), gone))
        live = particles.n
        state.n_deep += 2
        out = self._maintain(grid, particles, state, rng)
        assert out["reseeded"] == 2
        assert particles.n == live + 2
        counts = np.bincount(grid.cell_of(particles.x), minlength=grid.ncells)
        assert (counts[~grid.solid_mask()] <= 1).all()

    def test_overfull_interface_rejected(self):
        grid, particles, state = self._band_grid(R=1)
        rng = np.random.default_rng(0)
        self._maintain(grid, particles, state, rng)
        state.n_deep += 2  # no space anywhere for the excess
        with pytest.raises(IntegrityError):
            self._maintain(grid, particles, state, rng)

    @staticmethod
    def _lowered_pool(extra_cell):
        """A 4-wide column of 8 rows at 2 ppc, classed at R = 2 (rows 1-5
        deep), then lowered to 5 rows and reclassified: row 4 is now in the
        band and rows 1-2 are deep. Cells (1..3, 1) lose one particle each,
        and extra_cell gains three: one before every other particle and two
        after them. Returns the grid, the positions, the extras' flags and
        the band classes before the lowering."""
        grid, particles = column_state(width=4, R=2, mu=2, fill_to=8)
        former = G.band_classes(grid, 2)
        x = particles.x
        cols, rows = np.floor(x[:, 0]).astype(int), np.floor(x[:, 1]).astype(int)
        first = [np.flatnonzero((cols == i) & (rows == 1))[0] for i in (1, 2, 3)]
        x = np.delete(x, first, axis=0)
        x = x[np.floor(x[:, 1]) <= 5]
        extra = np.asarray(extra_cell, dtype=float) + np.array([[0.5, 0.5], [0.6, 0.5], [0.7, 0.5]])
        x = np.vstack([extra[:1], x, extra[1:]])
        G.classify_cells(grid, x)
        G.assign_depth(grid)
        grid.rebuild_counts(x)
        is_extra = np.zeros(len(x), dtype=bool)
        is_extra[[0, -2, -1]] = True
        return grid, x, is_extra, former

    def test_former_deep_overflow_keeps_earliest_residents(self):
        grid, x, is_extra, former = self._lowered_pool((1, 4))
        cls = G.band_classes(grid, 2)
        c = flat_index(grid, (1, 4))
        assert cls["in_band_inner"][c] and former["deep"][c]
        flat = grid.cell_of(x)
        residents = np.flatnonzero(flat == c)
        assert len(residents) == 5 and is_extra[residents].tolist() == [True, False, False,
                                                                           True, True]
        particles = ParticleSet.from_positions(x)
        state = B.BandState(R=2)
        out = B.maintain_band(grid, particles, state, former, mu=2,
                              rng=np.random.default_rng(0), mac=MacGrid(grid.dims))
        keep = ~cls["deep"][flat]
        keep[residents[2:]] = False  # the mu = 2 earliest residents stay
        overflow = 3
        deep_residents = int(cls["deep"][flat].sum())
        assert deep_residents == 2 * int(cls["deep"].sum()) - 3
        assert out == {"removed": deep_residents + overflow, "reseeded": 0, "n_excess": 0}
        assert state.n_deep == deep_residents + overflow
        assert np.array_equal(particles.x, x[keep])
        assert grid.counts[c] == 2

    def test_overfull_cell_outside_former_deep_rejected(self):
        grid, x, _, former = self._lowered_pool((1, 6))
        assert not former["deep"][flat_index(grid, (1, 6))]
        particles = ParticleSet.from_positions(x)
        with pytest.raises(IntegrityError, match="outside the former deep region"):
            B.maintain_band(grid, particles, B.BandState(R=2), former, mu=2,
                            rng=np.random.default_rng(0), mac=MacGrid(grid.dims))

    def test_conservation_across_maintenance(self):
        grid, particles, state = self._band_grid(R=1)
        rng = np.random.default_rng(0)
        total0 = particles.n + state.n_deep
        for _ in range(3):
            self._maintain(grid, particles, state, rng)
            assert particles.n + state.n_deep == total0


def fig_path_state():
    """Hand-built single-entrant band scenario mirroring the worked example.

    1 ppc, R = 1: a 6-wide pool of height 4 with a rider on column x=2; band
    maintenance deletes the deep rows first, as the pipeline would. Only the
    x=2 column wants to fall one cell, so the plain solve sends exactly one
    particle across the band interface while the air below is zero.
    """
    grid = G.CellGrid((8, 8))
    pts = []
    for i in range(1, 7):
        for j in range(1, 5):
            pts.append([i + 0.5, j + 0.5])
    pts.append([2.5, 5.5])  # rider on top
    x = np.asarray(pts)
    G.classify_cells(grid, x)
    G.assign_depth(grid)
    grid.rebuild_counts(x)
    particles = ParticleSet.from_positions(x)
    state = B.BandState(R=1)
    B.maintain_band(grid, particles, state, G.band_classes(grid, state.R), mu=1,
                    rng=np.random.default_rng(0), mac=MacGrid(grid.dims))
    grid.rebuild_counts(particles.x)
    B.compute_alphas(grid, G.band_classes(grid, state.R), state, mu=1)
    x_ideal = particles.x.copy()
    movers = np.flatnonzero(np.floor(particles.x[:, 0]) == 2)
    x_ideal[movers, 1] -= 1.0
    x_ideal = clamp_positions(x_ideal, grid.dims, home_cells=np.floor(particles.x))
    return grid, particles, state, x_ideal


class TestFigPathScenario:
    def build(self):
        return fig_path_state()

    def test_plain_solve_violates_then_flow_restores(self):
        grid, particles, state, x_ideal = self.build()
        assert state.alpha_le == 0
        table = C.build_candidates(particles.x, x_ideal, grid)
        cls = G.band_classes(grid, state.R)
        problem = C.build_problem(grid, table, mu=1, classes=cls)
        in_mask, out_mask = gamma_io_masks(problem, particles.x, grid, cls)
        assignment, stats = V.solve_problem(problem)
        n_in, n_out, s_in, s_out = compute_io(assignment, in_mask, out_mask,
                                              state.alpha_le)
        assert (n_in, n_out) == (1, 0)
        assert (s_in, s_out) == (-1, 1)

        diag = B.correct_band_flow(grid, problem, assignment, cls, state)
        assert diag["n_move"] == 1
        assert diag["find_calls"] == 1
        assert diag["s_in"] == 0 and diag["s_out"] >= 0

    def test_flow_conserves_counts(self):
        grid, particles, state, x_ideal = self.build()
        table = C.build_candidates(particles.x, x_ideal, grid)
        cls = G.band_classes(grid, state.R)
        problem = C.build_problem(grid, table, mu=1, classes=cls)
        assignment, _ = V.solve_problem(problem)
        B.correct_band_flow(grid, problem, assignment, cls, state)
        C.apply_solution(problem, assignment, particles, x_ideal)
        counts = np.bincount(grid.cell_of(particles.x), minlength=grid.ncells)
        deep = grid.fluid_mask() & (grid.depth < -state.R)
        capped = ~grid.solid_mask() & ~deep
        assert (counts[capped] <= 1).all()
        assert counts[grid.solid_mask()].sum() == 0

    def test_flow_never_exceeds_a_problem_cap(self):
        # capacity is read from the problem: with the cell the repair fills,
        # (2, 5), capped at its plain-solve count, flow-paths must find
        # another sink or fail, never return a choice over that cap
        grid, particles, state, x_ideal = self.build()
        cls = G.band_classes(grid, state.R)
        problem = C.build_problem(grid, C.build_candidates(particles.x, x_ideal, grid), mu=1,
                                  classes=cls)
        choice, _ = V.solve_problem(problem)
        filled = flat_index(grid, (2, 5))
        problem.cap[filled] = problem.counts_of(choice)[filled]
        try:
            B.correct_band_flow(grid, problem, choice, cls, state)
        except IntegrityError:
            return
        problem.check_feasible(choice)
