"""Band method: air bookkeeping, the region row and its hub solve, flow along paths."""
from dataclasses import replace

import numpy as np
import pytest

from conftest import random_band_instance
from oracles import build_one_way, compute_io, gamma_io_masks, objective_of, with_region

from cellflow import band as B
from cellflow import correction as C
from cellflow import grid as G
from cellflow import solids as S
from cellflow import solvers as V
from cellflow.errors import InputError, IntegrityError
from cellflow.flip import ParticleSet, clamp_positions
from cellflow.scene import SceneConfig


def column_state(width=6, height=10, R=2, mu=1, fill_to=8, dims=None):
    """Tank with a fluid column of the given height, classified and snapshot."""
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
    grid.snapshot()
    particles = ParticleSet.from_positions(x)
    return grid, particles


class TestAlphas:
    def test_full_interface_zero_air(self):
        grid, particles = column_state(mu=2, R=2)
        state = B.BandState(R=2, n_deep=0)
        cls = G.band_classes(grid.prev, 2)
        deep_capacity = 2 * int(cls["deep"].sum())
        state.n_deep = deep_capacity
        a_int, a_deep = B.compute_alphas(grid, cls, state, mu=2)
        assert a_int == 0
        assert a_deep == 0

    def test_missing_particles_counted(self):
        grid, particles = column_state(mu=4, R=2)
        state = B.BandState(R=2)
        cls = G.band_classes(grid.prev, 2)
        state.n_deep = 4 * int(cls["deep"].sum())
        # hollow out three interface cells: counts 4,3,2 -> alpha = 3
        iface = np.flatnonzero(cls["interface"])[:3]
        grid.prev.counts[iface[1]] = 3
        grid.prev.counts[iface[2]] = 2
        a_int, _ = B.compute_alphas(grid, cls, state, mu=4)
        assert a_int == 3

    def test_negative_air_rejected(self):
        grid, particles = column_state(mu=1, R=2)
        state = B.BandState(R=2, n_deep=10_000)
        with pytest.raises(IntegrityError):
            B.compute_alphas(grid, G.band_classes(grid.prev, 2), state, mu=1)


def solved_plain(grid, particles, mu, R=None):
    table = C.build_candidates(particles, grid)
    problem = C.build_problem(grid, table, mu, None if R is None else G.band_classes(grid.prev, R))
    assignment, stats = V.solve_problem(problem)
    return problem, assignment


def push_one_entrant(grid, particles, R):
    """Nudge one above-interface particle a full cell down and give the rest
    of its column a slight downward preference, so the optimal solution is a
    falling chain whose middle link crosses the band interface."""
    cls = G.band_classes(grid.prev, R)
    src_cells = grid.cell_of(particles.x_prev)
    particles.x_ideal = particles.x_prev.copy()
    above = np.flatnonzero(cls["layer_above"][src_cells])
    j = int(above[0])
    col = int(np.floor(particles.x_prev[j, 0]))
    same_col = np.flatnonzero(np.floor(particles.x_prev[:, 0]).astype(int) == col)
    for k in same_col:
        if k != j:
            particles.x_ideal[k, 1] -= 0.3
    particles.x_ideal[j, 1] -= 1.0
    return j


class TestIO:
    def test_no_cross_movement(self):
        grid, particles = column_state(mu=1, R=2)
        particles.x_ideal = particles.x_prev.copy()
        problem, assignment = solved_plain(grid, particles, mu=1)
        cls = G.band_classes(grid.prev, 2)
        in_mask, out_mask = gamma_io_masks(problem, particles.x_prev, grid, cls)
        n_in, n_out, s_in, s_out = compute_io(assignment.choice, in_mask, out_mask, alpha_le=3)
        assert (n_in, n_out) == (0, 0)
        assert s_in == 3 and s_out == 0

    def test_single_entrant(self):
        grid, particles = column_state(mu=1, R=2, fill_to=8)
        push_one_entrant(grid, particles, R=2)
        problem, assignment = solved_plain(grid, particles, mu=1, R=2)
        cls = G.band_classes(grid.prev, 2)
        in_mask, out_mask = gamma_io_masks(problem, particles.x_prev, grid, cls)
        n_in, n_out, s_in, s_out = compute_io(assignment.choice, in_mask, out_mask, alpha_le=0)
        assert (n_in, n_out) == (1, 0)
        assert s_in == -1 and s_out == 1


class TestOneWay:
    def test_requires_negative_slack(self):
        grid, particles = column_state(mu=1, R=2)
        particles.x_ideal = particles.x_prev.copy()
        problem, assignment = solved_plain(grid, particles, mu=1)
        cls = G.band_classes(grid.prev, 2)
        in_mask, out_mask = gamma_io_masks(problem, particles.x_prev, grid, cls)
        with pytest.raises(InputError):
            build_one_way(problem, assignment.choice, in_mask, out_mask, alpha_le=5)

    def test_zero_entrants_forced(self):
        # the single-entrant situation with no air: the point interval pins
        # entrants to zero and the constrained optimum keeps everyone out
        grid, particles = column_state(mu=1, R=2, fill_to=8)
        push_one_entrant(grid, particles, R=2)
        problem, assignment = solved_plain(grid, particles, mu=1, R=2)
        cls = G.band_classes(grid.prev, 2)
        in_mask, out_mask = gamma_io_masks(problem, particles.x_prev, grid, cls)
        full = with_region(problem, grid, R=2, alpha_le=0)
        constrained = build_one_way(full, assignment.choice, in_mask, out_mask, alpha_le=0)
        fixed, stats = V.solve_problem(constrained)
        constrained.check_feasible(fixed.choice)
        n_in, n_out, s_in, s_out = compute_io(fixed.choice, in_mask, out_mask, alpha_le=0)
        assert n_in == 0
        assert s_in >= 0 and s_out >= 0

    def test_vacuous_alpha_keeps_optimum(self):
        grid, particles = column_state(mu=1, R=2, fill_to=8)
        push_one_entrant(grid, particles, R=2)
        problem, assignment = solved_plain(grid, particles, mu=1, R=2)
        cls = G.band_classes(grid.prev, 2)
        in_mask, out_mask = gamma_io_masks(problem, particles.x_prev, grid, cls)
        n_in, n_out, s_in, s_out = compute_io(assignment.choice, in_mask, out_mask, alpha_le=1)
        # alpha of 1 absorbs the entrant, so the full band row is satisfied by
        # the unconstrained optimum and the hub solve reproduces it
        assert s_in >= 0
        constrained = with_region(problem, grid, R=2, alpha_le=1)
        a2, stats2 = V.solve_problem(constrained)
        _, stats = V.solve_problem(problem)
        assert abs(stats2.objective - stats.objective) < 1e-9


def table_edge_cost(grid, particles, mu=1):
    """Edge costs read from the plain correction problem of the current state,
    over the all-stay choice: every particle in its previous-step cell."""
    problem = C.build_problem(grid, C.build_candidates(particles, grid), mu)
    return B.EdgeCost(problem, C.stay_assignment(problem).choice)


def members_of(grid, edge_cost):
    """Cell membership of the edge costs' choice vector."""
    choice = edge_cost.current
    return B.CellMembers(edge_cost.target[choice, np.arange(len(choice))], grid.ncells)


def cell_of_choice(edge_cost, j):
    """The cell that particle j's entry of the choice vector selects."""
    return int(edge_cost.target[edge_cost.current[j], j])


def open_rule(grid):
    """No crossing limits and no uncapped cells: the bare path mechanics."""
    none = np.zeros(grid.ncells, dtype=bool)
    return B.PathRule(back_from=none, back_to=none, uncapped=none)


class TestFindPaths:
    def test_adjacent_sink_single_step(self):
        grid, particles = column_state(mu=1, R=2, fill_to=6)
        edge_cost = table_edge_cost(grid, particles)
        members = members_of(grid, edge_cost)
        x_prev_cells = edge_cost.home
        src = grid.flat((3, 6))   # top fluid row (surface)
        sink = grid.flat((3, 7))  # empty cell above
        paths, J = B.find_paths(grid, members, x_prev_cells, np.array([src]),
                                np.array([sink]), mu=1, edge_cost=edge_cost,
                                rule=open_rule(grid))
        assert len(paths) == 1
        assert paths[0].sink == sink

    def test_empty_source_no_paths(self):
        grid, particles = column_state(mu=1, R=2, fill_to=4)
        edge_cost = table_edge_cost(grid, particles)
        members = members_of(grid, edge_cost)
        empty_src = grid.flat((3, 8))
        paths, J = B.find_paths(grid, members, grid.cell_of(particles.x_prev),
                                np.array([empty_src]), np.array([grid.flat((3, 9))]),
                                mu=1, edge_cost=edge_cost, rule=open_rule(grid))
        assert paths == []

    def test_paths_disjoint(self):
        grid, particles = column_state(width=8, mu=1, R=2, fill_to=6)
        edge_cost = table_edge_cost(grid, particles)
        members = members_of(grid, edge_cost)
        x_prev_cells = edge_cost.home
        sources = np.array([grid.flat((i, 6)) for i in range(1, 9)])
        sinks = np.array([grid.flat((i, 7)) for i in range(1, 9)])
        paths, J = B.find_paths(grid, members, x_prev_cells, sources, sinks,
                                mu=1, edge_cost=edge_cost, rule=open_rule(grid))
        assert len(paths) >= 2
        sink_cells = [p.sink for p in paths]
        assert len(set(sink_cells)) == len(sink_cells)

    def test_best_edge_skips_far_particles(self):
        grid, particles = column_state(mu=1, R=2, fill_to=6)
        edge_cost = table_edge_cost(grid, particles)
        members = members_of(grid, edge_cost)
        x_prev_cells = edge_cost.home
        c = grid.flat((3, 3))
        c_far = grid.flat((3, 5))  # two cells away from any (3,3) resident's home
        j, sigma = B.best_edge(c_far, grid.flat((3, 6)), members, x_prev_cells, edge_cost,
                               open_rule(grid))
        resident = members.members(c_far)[0]
        assert j == resident  # resident of (3,5) can move up: its home is (3,5)
        assert sigma == edge_cost(j, grid.flat((3, 6)))
        # now ask for a move where neither cell is the particle's home
        moved = members_of(grid, edge_cost)
        moved.move(resident, c_far, grid.flat((4, 5)))
        edge2 = B.best_edge(grid.flat((4, 5)), grid.flat((5, 5)), moved, x_prev_cells,
                            edge_cost, open_rule(grid))
        others = [jj for jj in moved.members(grid.flat((4, 5)))
                  if x_prev_cells[jj] in (grid.flat((4, 5)), grid.flat((5, 5)))]
        if not others:
            assert edge2 is None or x_prev_cells[edge2[0]] in (grid.flat((4, 5)), grid.flat((5, 5)))

    def test_toward_ideal_negative_edge(self):
        grid, particles = column_state(mu=1, R=2, fill_to=6)
        j = 0
        src = int(grid.cell_of(particles.x_prev[j:j + 1])[0])
        up = grid.unflat(src) + np.array([0, 1])
        particles.x_ideal[j] = up + 0.5  # wants the cell above
        edge_cost = table_edge_cost(grid, particles)
        assert edge_cost(j, grid.flat(up)) < 0


class TestUpdatePath:
    def test_single_step_counts(self):
        grid, particles = column_state(mu=1, R=2, fill_to=6)
        edge_cost = table_edge_cost(grid, particles)
        members = members_of(grid, edge_cost)
        x_prev_cells = edge_cost.home
        src = grid.flat((3, 6))
        sink = grid.flat((3, 7))
        before_src = members.counts[src]
        paths, J = B.find_paths(grid, members, x_prev_cells, np.array([src]),
                                np.array([sink]), mu=1, edge_cost=edge_cost,
                                rule=open_rule(grid))
        B.update_path(paths[0], J, members, edge_cost, mu=1, rule=open_rule(grid))
        assert members.counts[sink] == 1
        assert members.counts[src] == before_src - 1

    def test_chain_preserves_intermediate_counts(self):
        # force a 3-cell chain: column of full cells, sink at the top
        grid, particles = column_state(width=3, mu=1, R=1, fill_to=5)
        edge_cost = table_edge_cost(grid, particles)
        members = members_of(grid, edge_cost)
        x_prev_cells = edge_cost.home
        src = grid.flat((2, 3))
        sink = grid.flat((2, 6))  # above the column top (5)
        paths, J = B.find_paths(grid, members, x_prev_cells, np.array([src]),
                                np.array([sink]), mu=1, edge_cost=edge_cost,
                                rule=open_rule(grid))
        assert len(paths) == 1
        mids = [grid.flat((2, 4)), grid.flat((2, 5))]
        before = [members.counts[c] for c in mids]
        B.update_path(paths[0], J, members, edge_cost, mu=1, rule=open_rule(grid))
        after = [members.counts[c] for c in mids]
        assert before == after
        assert members.counts[sink] == 1
        assert members.counts[src] == 0


def home_particle(grid, particles, cell):
    """The particle whose previous-step cell is `cell` (1 ppc states)."""
    return int(np.flatnonzero(grid.cell_of(particles.x_prev) == grid.flat(cell))[0])


def relocate(grid, edge_cost, j, cell):
    """Select `cell` for particle j in the choice vector, as a first solve would."""
    edge_cost.current[j] = edge_cost.direction(j, grid.flat(cell))


class TestEdgeCost:
    """Edge costs come from the correction problem's candidate table, priced
    from the cell the choice vector selects for the particle."""

    def test_solid_penalty_from_table(self):
        grid, particles = column_state(mu=1, R=2, fill_to=6)
        j = home_particle(grid, particles, (3, 6))
        up = grid.flat((3, 7))
        so = S.build_solid_objective(grid, np.array([up]), SceneConfig.lambda_penalty)
        table = C.build_candidates(particles, grid)
        problem = C.build_problem(grid, table, 1, solid_cost=S.override_costs(table, so))
        edge_cost = B.EdgeCost(problem, C.stay_assignment(problem).choice)
        assert edge_cost(j, up) == so.lambda_penalty * so.cdist[up] - problem.cost[-1, j]

    def test_wall_cell_costs_inf(self):
        grid, particles = column_state(mu=1, R=2, fill_to=6)
        j = home_particle(grid, particles, (1, 3))
        assert table_edge_cost(grid, particles)(j, grid.flat((0, 3))) == np.inf

    def test_prices_from_the_cell_moved_into(self):
        grid, particles = column_state(mu=1, R=2, fill_to=6)
        edge_cost = table_edge_cost(grid, particles)
        j = home_particle(grid, particles, (3, 6))
        home, up = grid.flat((3, 6)), grid.flat((3, 7))
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
            edge_cost(j, grid.flat((3, 5)))


IFACE, ABOVE = (3, 6), (3, 7)  # interface and layer above in column_state(R=2)
MODES = pytest.mark.parametrize("drain", [True, False], ids=["drain", "refill"])


class TestCrossingRule:
    """A path crosses the band interface only by reverting one crossing of
    the heavy side; the mirrored move is refused in each mode."""

    def build(self, drain):
        grid, particles = column_state(mu=1, R=2, fill_to=8)
        particles.x_ideal = particles.x_prev.copy()
        cls = G.band_classes(grid.prev, 2)
        assert cls["interface"][grid.flat(IFACE)] and cls["layer_above"][grid.flat(ABOVE)]
        heavy_from, heavy_to = (IFACE, ABOVE) if drain else (ABOVE, IFACE)
        return grid, particles, B.path_rule(cls, drain), heavy_from, heavy_to

    def edge(self, grid, edge_cost, c, c_next, rule):
        edge = B.best_edge(grid.flat(c), grid.flat(c_next), members_of(grid, edge_cost),
                           edge_cost.home, edge_cost, rule)
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
        particles.x_ideal[crosser] = np.add(heavy_from, 0.5) - 0.9 * step
        edge_cost = table_edge_cost(grid, particles)
        relocate(grid, edge_cost, crosser, heavy_from)
        resident = home_particle(grid, particles, heavy_from)
        assert self.edge(grid, edge_cost, heavy_from, heavy_to, open_rule(grid)) == resident
        assert self.edge(grid, edge_cost, heavy_from, heavy_to, rule) == crosser


class TestPathCapacity:
    """Deep cells are uncapped in the correction problem, so paths may pass
    through or end in deep cells that already hold mu or more."""

    def build(self, drain):
        # R = 1, 1 ppc: row 6 is the surface (the layer above the interface),
        # row 5 the interface, rows 1-4 deep
        grid, particles = column_state(width=3, mu=1, R=1, fill_to=6)
        particles.x_ideal = particles.x_prev.copy()
        rule = B.path_rule(G.band_classes(grid.prev, 1), drain)
        return grid, particles, rule

    def test_path_through_overfull_deep_cell(self):
        grid, particles, rule = self.build(drain=True)
        edge_cost = table_edge_cost(grid, particles)
        h = {c: home_particle(grid, particles, c)
             for c in [(1, 5), (1, 4), (2, 4), (2, 5), (2, 6)]}
        # first solve: an entrant drops from (2,6) into (2,5), whose resident
        # sinks into the deep cell (2,4), now holding 2 > mu
        relocate(grid, edge_cost, h[(2, 6)], (2, 5))
        relocate(grid, edge_cost, h[(2, 5)], (2, 4))
        # path (1,5) -> (1,4) -> (2,4) -> (2,5) -> (2,6): the entrant returns
        J = np.full(grid.ncells, B.NONE, dtype=np.int64)
        J[grid.flat((1, 5))] = B.ROOT
        J[grid.flat((1, 4))] = h[(1, 5)]
        J[grid.flat((2, 4))] = h[(1, 4)]
        J[grid.flat((2, 5))] = h[(2, 4)]
        path = B.Path(edge=h[(2, 6)], sink=grid.flat((2, 6)))
        members = members_of(grid, edge_cost)
        B.update_path(path, J, members, edge_cost, mu=1, rule=rule)
        assert members.counts[grid.flat((2, 4))] == 2
        assert members.counts[grid.flat((2, 6))] == 1
        assert members.counts[grid.flat((1, 5))] == 0

    def test_refill_path_ends_in_full_deep_cell(self):
        grid, particles, rule = self.build(drain=False)
        edge_cost = table_edge_cost(grid, particles)
        leaver = home_particle(grid, particles, (2, 5))
        climber = home_particle(grid, particles, (2, 4))
        # first solve: the surface resident rises into the air, the interface
        # resident leaves into its place, the deep (2,4) resident rises into
        # the interface and a neighbour refills (2,4) to mu
        relocate(grid, edge_cost, home_particle(grid, particles, (2, 6)), (2, 7))
        relocate(grid, edge_cost, leaver, (2, 6))
        relocate(grid, edge_cost, climber, (2, 5))
        relocate(grid, edge_cost, home_particle(grid, particles, (1, 4)), (2, 4))
        cls = G.band_classes(grid.prev, 1)
        members = members_of(grid, edge_cost)
        deep_cell = grid.flat((2, 4))
        assert members.counts[deep_cell] == 1
        paths, J = B.find_paths(grid, members, edge_cost.home,
                                np.array([grid.flat((2, 6))]),
                                np.flatnonzero(cls["interface"] | cls["deep"]),
                                mu=1, edge_cost=edge_cost, rule=rule)
        assert [p.sink for p in paths] == [deep_cell]
        B.update_path(paths[0], J, members, edge_cost, mu=1, rule=rule)
        assert members.counts[deep_cell] == 2
        assert cell_of_choice(edge_cost, leaver) == grid.flat((2, 5))
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
        grid, particles, state = inst
        table = C.build_candidates(particles, grid)
        cls = G.band_classes(grid.prev, state.R)
        problem = C.build_problem(grid, table, mu=1, classes=cls)
        in_mask, out_mask = gamma_io_masks(problem, particles.x_prev, grid, cls)
        assignment, _ = V.solve_problem(problem)
        _, _, s_in, s_out = compute_io(assignment.choice, in_mask, out_mask, state.alpha_le)
        if s_in >= 0 and s_out >= 0:
            continue
        full = with_region(problem, grid, state.R, state.alpha_le)
        one_way = build_one_way(full, assignment.choice, in_mask, out_mask, state.alpha_le)
        choice = assignment.choice
        B.correct_band_flow(grid, problem, choice, cls, state, mu=1)
        C.apply_solution(problem, assignment, particles)  # checks the band row it carries
        assert one_way.check_feasible(choice, strict=False)
        flow_obj = float(((particles.x - particles.x_ideal) ** 2).sum())
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

    def recorded(path, J, members, edge_cost, mu, rule):
        before_move.append(edge_cost.current.copy())
        update_path(path, J, members, edge_cost, mu, rule)

    monkeypatch.setattr(B, "update_path", recorded)
    rng = np.random.default_rng(515)
    repaired = 0
    for _ in range(300):
        inst = random_band_instance(rng, push)
        if inst is None:
            continue
        grid, particles, state = inst
        cls = G.band_classes(grid.prev, state.R)
        problem = C.build_problem(grid, C.build_candidates(particles, grid), mu=1, classes=cls)
        choice = V.solve_problem(problem)[0].choice
        before_move.clear()
        try:
            diag = B.correct_band_flow(grid, problem, choice, cls, state, mu=1)
        except IntegrityError as exc:
            # flow-paths is a heuristic that can find no path to repay the
            # slack (one refill toy at this seed); such a toy has no result
            # to check against the row
            assert "found no path" in str(exc)
            continue
        assert problem.region is not None
        assert problem.check_feasible(choice, strict=False)
        if diag["n_move"] == 0:
            continue
        assert len(before_move) == diag["n_move"]
        short = before_move[-1]
        assert not problem.check_feasible(short, strict=False)
        assert replace(problem, region=None).check_feasible(short, strict=False)
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
        grid, particles, state = inst
        cls = G.band_classes(grid.prev, state.R)
        problem = C.build_problem(grid, C.build_candidates(particles, grid), mu=1, classes=cls)
        full = with_region(problem, grid, state.R, state.alpha_le)
        masks = gamma_io_masks(problem, particles.x_prev, grid, cls)
        toys.append((grid, particles, state, problem, full, masks))
    return toys


class TestHubSolve:
    """The band row as a bound on the region's count, solved through the hub,
    against brute force on the same region-carrying problems."""

    @pytest.mark.parametrize("push", [-1.0, 1.0], ids=["down-drain", "up-refill"])
    def test_matches_brute_force(self, push, monkeypatch):
        monkeypatch.setattr(V, "CHECK_POTENTIALS", True)
        binding = 0
        for grid, particles, state, problem, full, (in_mask, out_mask) in band_toys(push, 200):
            assignment, stats = V.solve_problem(full)
            full.check_feasible(assignment.choice)
            _, oracle = V.brute_force_ilp(full)
            assert abs(stats.objective - oracle) < 1e-9
            plain, _ = V.solve_problem(problem)
            _, _, s_in, s_out = compute_io(plain.choice, in_mask, out_mask, state.alpha_le)
            if s_in >= 0 and s_out >= 0:
                continue
            binding += 1
            one_way = build_one_way(full, plain.choice, in_mask, out_mask, state.alpha_le)
            assignment, stats = V.solve_problem(one_way)
            one_way.check_feasible(assignment.choice)
            _, oracle = V.brute_force_ilp(one_way)
            assert abs(stats.objective - oracle) < 1e-9
        assert binding >= 30

    def test_wide_intervals_match_brute_force(self, monkeypatch):
        # the toys' air is zero, so their intervals are points; widen them
        # around F so that the hub passes units on to the sink and takes
        # them back
        monkeypatch.setattr(V, "CHECK_POTENTIALS", True)
        rng = np.random.default_rng(77)
        solved = 0
        for push in (-1.0, 1.0):
            for grid, particles, state, problem, full, _ in band_toys(push, 100, seed=31):
                start = full.region_bounds[0]
                full.region_bounds = (start - int(rng.integers(0, 3)), start + int(rng.integers(1, 3)))
                try:
                    _, oracle = V.brute_force_ilp(full)
                except IntegrityError:
                    continue  # no selection meets the interval
                assignment, stats = V.solve_problem(full)
                full.check_feasible(assignment.choice)
                assert abs(stats.objective - oracle) < 1e-9
                solved += 1
        assert solved >= 150

    def test_vacuous_interval_equals_plain_solve(self, monkeypatch):
        monkeypatch.setattr(V, "CHECK_POTENTIALS", True)
        for push in (-1.0, 1.0):
            for grid, particles, state, problem, full, _ in band_toys(push, 50, seed=17):
                full.region_bounds = (0, problem.n)
                _, stats = V.solve_problem(full)
                _, plain = V.solve_problem(problem)
                assert abs(stats.objective - plain.objective) < 1e-9

    def test_network_carries_the_hub(self):
        grid, particles, state, problem, full, _ = band_toys(-1.0, 1)[0]
        net, plain = V.reduce_to_flow(full), V.reduce_to_flow(problem)
        used = np.unique(problem.target_flat[problem.valid])
        assert np.array_equal(net.hub_cell, full.region[used])
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
        cls = G.band_classes(grid.prev, state.R)
        prev_cells = grid.cell_of(particles.x_prev)
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

    def test_deep_particles_deleted(self):
        grid, particles, state = self._band_grid(R=1)
        n0 = particles.n
        rng = np.random.default_rng(0)
        out = B.maintain_band(grid, particles, state, mu=1, rng=rng)
        deep_cells = int((grid.fluid_mask() & (grid.depth < -1)).sum())
        assert out["removed"] == deep_cells  # 1 ppc
        assert state.n_deep == deep_cells
        assert particles.n + state.n_deep == n0

    def test_noop_when_band_balanced(self):
        grid, particles, state = self._band_grid(R=1)
        rng = np.random.default_rng(0)
        B.maintain_band(grid, particles, state, mu=1, rng=rng)
        n_before = particles.n
        deep_before = state.n_deep
        B.maintain_band(grid, particles, state, mu=1, rng=rng)
        assert particles.n == n_before
        assert state.n_deep == deep_before

    def test_excess_reseeded_into_interface(self):
        grid, particles, state = self._band_grid(R=1)
        rng = np.random.default_rng(0)
        B.maintain_band(grid, particles, state, mu=1, rng=rng)
        # two interface residents wander off (delete them) while two imaginary
        # deep particles surface: reseeding refills the freed interface cells
        iface = np.flatnonzero(grid.fluid_mask() & (grid.depth == -1))
        flat = grid.cell_of(particles.x)
        gone = [j for j in range(particles.n) if flat[j] in iface[:2]]
        assert len(gone) == 2
        particles.alive[gone] = False
        particles.compact()
        live = particles.n
        state.n_deep += 2
        out = B.maintain_band(grid, particles, state, mu=1, rng=rng)
        assert out["reseeded"] == 2
        assert particles.n == live + 2
        counts = np.bincount(grid.cell_of(particles.x), minlength=grid.ncells)
        assert (counts[~grid.solid_mask()] <= 1).all()

    def test_overfull_interface_rejected(self):
        grid, particles, state = self._band_grid(R=1)
        rng = np.random.default_rng(0)
        B.maintain_band(grid, particles, state, mu=1, rng=rng)
        state.n_deep += 2  # no space anywhere for the excess
        with pytest.raises(IntegrityError):
            B.maintain_band(grid, particles, state, mu=1, rng=rng)

    def test_conservation_across_maintenance(self):
        grid, particles, state = self._band_grid(R=1)
        rng = np.random.default_rng(0)
        total0 = particles.n + state.n_deep
        for _ in range(3):
            B.maintain_band(grid, particles, state, mu=1, rng=rng)
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
    B.maintain_band(grid, particles, state, mu=1, rng=np.random.default_rng(0))
    grid.rebuild_counts(particles.x)
    grid.snapshot()
    B.compute_alphas(grid, G.band_classes(grid.prev, state.R), state, mu=1)
    particles.x_ideal = particles.x_prev.copy()
    movers = np.flatnonzero(np.floor(particles.x_prev[:, 0]) == 2)
    particles.x_ideal[movers, 1] -= 1.0
    particles.x_ideal = clamp_positions(particles.x_ideal, grid.dims,
                                        home_cells=np.floor(particles.x_prev))
    return grid, particles, state


class TestFigPathScenario:
    def build(self):
        return fig_path_state()

    def test_plain_solve_violates_then_flow_restores(self):
        grid, particles, state = self.build()
        assert state.alpha_le == 0
        table = C.build_candidates(particles, grid)
        cls = G.band_classes(grid.prev, state.R)
        problem = C.build_problem(grid, table, mu=1, classes=cls)
        in_mask, out_mask = gamma_io_masks(problem, particles.x_prev, grid, cls)
        assignment, stats = V.solve_problem(problem)
        n_in, n_out, s_in, s_out = compute_io(assignment.choice, in_mask, out_mask,
                                              state.alpha_le)
        assert (n_in, n_out) == (1, 0)
        assert (s_in, s_out) == (-1, 1)

        diag = B.correct_band_flow(grid, problem, assignment.choice, cls, state, mu=1)
        assert diag["n_move"] == 1
        assert diag["find_calls"] == 1
        assert diag["s_in"] == 0 and diag["s_out"] >= 0

    def test_flow_conserves_counts(self):
        grid, particles, state = self.build()
        table = C.build_candidates(particles, grid)
        cls = G.band_classes(grid.prev, state.R)
        problem = C.build_problem(grid, table, mu=1, classes=cls)
        assignment, _ = V.solve_problem(problem)
        B.correct_band_flow(grid, problem, assignment.choice, cls, state, mu=1)
        C.apply_solution(problem, assignment, particles)
        counts = np.bincount(grid.cell_of(particles.x), minlength=grid.ncells)
        deep = grid.fluid_mask() & (grid.depth < -state.R)
        capped = ~grid.solid_mask() & ~deep
        assert (counts[capped] <= 1).all()
        assert counts[grid.solid_mask()].sum() == 0
