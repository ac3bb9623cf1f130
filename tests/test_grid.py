"""Grid topology: neighborhoods, classification, depth, clearing, volume."""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cellflow import grid as G
from cellflow.errors import InputError, IntegrityError


def make_grid(dims=(8, 8)):
    return G.CellGrid(dims)


def fill_cells(grid, cells, ppc=1, jitter=0.5):
    """Deterministic particle positions, ppc per listed cell."""
    pts = []
    for cell in cells:
        for k in range(ppc):
            frac = 0.2 + 0.6 * (k / max(ppc, 1))
            pts.append(np.asarray(cell, dtype=float) + frac)
    return np.asarray(pts).reshape(-1, grid.d)


def neighbor_cells(grid, cell, offsets):
    """In-grid cells at the given offsets from cell."""
    dims = np.asarray(grid.dims)
    out = [tuple(int(v) for v in np.add(cell, off)) for off in offsets]
    return [nb for nb in out if all(0 <= v < n for v, n in zip(nb, dims))]


def vn_cells(grid, cell):
    """Von Neumann neighbours from the grid's precomputed table."""
    flat = grid.vn_neighbors_flat(grid.flat(cell))
    return [tuple(int(v) for v in grid.unflat(c)) for c in flat if c >= 0]


class TestNeighbors:
    def test_interior_von_neumann_count(self):
        grid = make_grid()
        assert len(vn_cells(grid, (4, 4))) == 4

    def test_interior_moore_count(self):
        grid = make_grid()
        assert len(neighbor_cells(grid, (4, 4), G.moore_offsets(2))) == 8

    def test_corner_moore_clipped(self):
        grid = make_grid()
        assert len(neighbor_cells(grid, (0, 0), G.moore_offsets(2))) == 3

    def test_out_of_bounds_rejected(self):
        # off-grid von Neumann neighbours are marked -1 in the table
        grid = make_grid()
        corner = grid.vn_neighbors_flat(grid.flat((0, 7)))
        assert sorted(corner < 0) == [False, False, True, True]
        assert set(corner[corner >= 0]) == {grid.flat((1, 7)), grid.flat((0, 6))}

    def test_3d_counts(self):
        grid = G.CellGrid((5, 5, 5))
        assert len(vn_cells(grid, (2, 2, 2))) == 6
        assert len(neighbor_cells(grid, (2, 2, 2), G.moore_offsets(3))) == 26

    def test_moore_is_chebyshev_one(self):
        grid = make_grid()
        for nb in neighbor_cells(grid, (3, 3), G.moore_offsets(2)):
            assert max(abs(nb[0] - 3), abs(nb[1] - 3)) == 1


class TestClassify:
    def test_empty_tank(self):
        grid = make_grid()
        G.classify_cells(grid, np.zeros((0, 2)))
        assert (grid.marking[grid.wall] == G.SOLID).all()
        assert (grid.marking[~grid.wall] == G.EMPTY).all()

    def test_single_fluid_cell_is_surface(self):
        grid = make_grid()
        x = fill_cells(grid, [(4, 4)], ppc=2)
        G.classify_cells(grid, x)
        assert grid.marking[grid.flat((4, 4))] == G.SURFACE

    def test_bottom_block_only_top_row_surface(self):
        # 6x6 fluid block on the tank floor: wall-adjacent cells see only
        # domain-boundary solids, so only the exposed top row is surface
        grid = G.CellGrid((8, 9))
        cells = [(i, j) for i in range(1, 7) for j in range(1, 7)]
        G.classify_cells(grid, fill_cells(grid, cells))
        for i in range(1, 7):
            for j in range(1, 7):
                expected = G.SURFACE if j == 6 else G.INNER
                assert grid.marking[grid.flat((i, j))] == expected, (i, j)

    def test_particle_in_solid_rejected(self):
        grid = make_grid()
        x = np.array([[0.5, 4.5]])  # wall cell
        with pytest.raises(IntegrityError):
            G.classify_cells(grid, x)

    def test_partition_is_complete(self):
        grid = make_grid()
        x = fill_cells(grid, [(2, 2), (2, 3), (5, 5)])
        G.classify_cells(grid, x)
        assert set(np.unique(grid.marking)) <= {G.EMPTY, G.SOLID, G.SURFACE, G.INNER}
        fluid = grid.fluid_mask()
        assert (grid.counts[fluid] >= 1).all()
        empty = grid.marking == G.EMPTY
        assert (grid.counts[empty] == 0).all()


    def test_emptied_interface_cell_stays_fluid(self):
        # band R=2 over a pool 8 rows deep: the interface is row 6 (previous
        # depth -2), deep rows below it hold no particles. A correction that
        # empties one interface cell must not expose the deep cells behind it
        grid = G.CellGrid((10, 12))
        R = 2
        cells = [(i, j) for i in range(1, 9) for j in range(1, 9)]
        G.classify_cells(grid, fill_cells(grid, cells))
        G.assign_depth(grid)
        grid.snapshot()
        hole = grid.flat((4, 6))
        assert grid.prev.depth[hole] == -R
        kept = [(i, j) for (i, j) in cells if j >= 6 and (i, j) != (4, 6)]
        G.classify_cells(grid, fill_cells(grid, kept), classes=G.band_classes(grid.prev, R))
        assert grid.counts[hole] == 0
        assert grid.marking[hole] == G.INNER
        deep = grid.prev.depth < -R
        assert (grid.marking[deep] == G.INNER).all()  # none turned SURFACE


class TestDepth:
    def test_column_depth_monotone(self):
        # 4-wide column of fluid, open at the top: depth decreases downward
        grid = G.CellGrid((6, 8))
        cells = [(i, j) for i in range(1, 5) for j in range(1, 5)]
        G.classify_cells(grid, fill_cells(grid, cells))
        G.assign_depth(grid)
        for j in range(1, 5):
            expected = 0 if j == 4 else -(4 - j)
            for i in range(1, 5):
                assert grid.depth[grid.flat((i, j))] == expected, (i, j)

    def test_isolated_cell_depth_zero(self):
        grid = make_grid()
        G.classify_cells(grid, fill_cells(grid, [(4, 4)]))
        G.assign_depth(grid)
        assert grid.depth[grid.flat((4, 4))] == 0

    def test_non_fluid_positive(self):
        grid = make_grid()
        G.classify_cells(grid, fill_cells(grid, [(4, 4)]))
        G.assign_depth(grid)
        assert grid.depth[grid.flat((2, 2))] == 1
        assert (grid.depth[grid.wall] == 1).all()

    def test_sealed_tank_fallback(self):
        grid = G.CellGrid((4, 4))
        cells = [(i, j) for i in range(1, 3) for j in range(1, 3)]
        G.classify_cells(grid, fill_cells(grid, cells))
        had_surface = G.assign_depth(grid)
        assert not had_surface
        assert (grid.depth[grid.fluid_mask()] == -1).all()

    def test_depth_lipschitz(self):
        grid = G.CellGrid((12, 12))
        rng = np.random.default_rng(3)
        cells = [(i, j) for i in range(1, 11) for j in range(1, 11) if rng.random() < 0.7]
        if not cells:
            return
        G.classify_cells(grid, fill_cells(grid, cells))
        G.assign_depth(grid)
        fluid = grid.fluid_mask()
        for c in np.flatnonzero(fluid):
            for nb in grid.vn_neighbors_flat(int(c)):
                if nb >= 0 and fluid[nb]:
                    assert abs(int(grid.depth[c]) - int(grid.depth[nb])) <= 1


class TestClearingDistance:
    def test_open_floor_row(self):
        grid = G.CellGrid((8, 8))
        G.classify_cells(grid, np.zeros((0, 2)))
        row = [grid.flat((i, 4)) for i in range(2, 5)]
        dist = G.clearing_distance(grid, row)
        assert [dist[c] for c in row] == [1, 1, 1]

    def test_floor_pinned_row_opens_right(self):
        # row on the tank floor, escape only past the right end
        grid = G.CellGrid((6, 8))
        G.classify_cells(grid, np.zeros((0, 2)))
        row = [grid.flat((i, 1)) for i in (1, 2, 3)]
        # block everything above the row with solid cells so the only escape
        # neighbor is (4, 1) to the right
        above = np.zeros(grid.ncells, dtype=bool)
        for i in (1, 2, 3):
            above[grid.flat((i, 2))] = True
        grid.marking[above] = G.SOLID
        dist = G.clearing_distance(grid, row)
        assert [int(dist[c]) for c in row] == [3, 2, 1]

    def test_empty_set(self):
        grid = make_grid()
        dist = G.clearing_distance(grid, [])
        assert (dist == 0).all()

    def test_walled_pocket_gets_sentinel(self):
        grid = G.CellGrid((6, 6))
        G.classify_cells(grid, np.zeros((0, 2)))
        target = grid.flat((2, 2))
        for nb in grid.vn_neighbors_flat(target):
            grid.marking[nb] = G.SOLID
        dist = G.clearing_distance(grid, [target])
        assert dist[target] == grid.ncells

    def test_distance_descends_by_one(self):
        # every assigned cell at distance > 1 has a neighbor one step closer
        rng = np.random.default_rng(8)
        grid = G.CellGrid((14, 14))
        G.classify_cells(grid, np.zeros((0, 2)))
        cells = [grid.flat((i, j)) for i in range(2, 12) for j in range(2, 12)
                 if rng.random() < 0.5]
        dist = G.clearing_distance(grid, cells)
        for c in cells:
            d = dist[c]
            if d > 1 and d < grid.ncells:
                nbs = [int(dist[nb]) for nb in grid.vn_neighbors_flat(c)
                       if nb >= 0 and dist[nb] > 0]
                escape = any(dist[nb] == 0 and grid.marking[nb] != G.SOLID
                             for nb in grid.vn_neighbors_flat(c) if nb >= 0)
                assert (d - 1 in nbs) or escape


def per_cell(grid, cell, mu):
    """One cell's discrete volume from the per-cell volume report."""
    return G.volume_report(grid, mu, v_star=1.0, per_cell=True).per_cell[grid.flat(cell)]


class TestVolume:
    def _full_block(self, mu=4):
        # 10x10 exact block with one empty row of air above it
        grid = G.CellGrid((12, 13))
        cells = [(i, j) for i in range(1, 11) for j in range(1, 11)]
        x = fill_cells(grid, cells, ppc=mu)
        G.classify_cells(grid, x)
        G.assign_depth(grid)
        return grid, len(cells)

    def test_empty_cell_zero(self):
        grid = make_grid()
        G.classify_cells(grid, fill_cells(grid, [(4, 4)]))
        G.assign_depth(grid)
        assert per_cell(grid, (2, 2), mu=4) == 0.0

    def test_surface_fraction(self):
        grid = make_grid()
        G.classify_cells(grid, fill_cells(grid, [(4, 4)], ppc=2))
        G.assign_depth(grid)
        assert per_cell(grid, (4, 4), mu=4) == 0.5

    def test_deep_full_credit_despite_bubble(self):
        grid, ncells = self._full_block(mu=4)
        c = grid.flat((5, 5))
        assert grid.depth[c] <= -3
        grid.counts[c] = 2  # simulate a bubble
        assert per_cell(grid, (5, 5), mu=4) == 1.0

    def test_exact_block_is_100(self):
        grid, ncells = self._full_block(mu=4)
        rep = G.volume_report(grid, mu=4, v_star=float(ncells))
        assert rep.percent == pytest.approx(100.0, abs=1e-12)
        assert rep.alt_percent == pytest.approx(100.0, abs=1e-12)

    def test_bubble_cell_both_measures(self):
        # 100 exact cells, then one inner cell at depth <= -2 loses a particle:
        # depth-credit measure stays at 100, the alternative measure drops
        grid, ncells = self._full_block(mu=4)
        assert ncells == 100
        c = grid.flat((5, 5))
        assert grid.depth[c] <= -2
        grid.counts[c] = 3
        rep = G.volume_report(grid, mu=4, v_star=100.0)
        assert rep.percent == pytest.approx(100.0, abs=1e-12)
        assert rep.alt_percent == pytest.approx(99.75, abs=1e-12)

    def test_v_star_validation(self):
        grid, _ = self._full_block()
        with pytest.raises(InputError):
            G.volume_report(grid, mu=4, v_star=0.0)

    def test_volume_in_unit_range_and_sums(self):
        grid, ncells = self._full_block(mu=4)
        rep = G.volume_report(grid, mu=4, v_star=float(ncells), per_cell=True)
        assert (rep.per_cell >= 0).all() and (rep.per_cell <= 1).all()
        assert abs(rep.per_cell.sum() - rep.V) < 1e-9


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6))
def test_neighbors_property(i, j):
    grid = G.CellGrid((8, 8))
    vn = vn_cells(grid, (i, j))
    mo = neighbor_cells(grid, (i, j), G.moore_offsets(2))
    assert len(vn) <= 4 and len(mo) <= 8
    assert set(vn) <= set(mo)
    for nb in vn:
        assert abs(nb[0] - i) + abs(nb[1] - j) == 1


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(st.integers(1, 8), st.integers(1, 8)), min_size=1, max_size=30))
def test_classify_depth_properties(cells):
    grid = G.CellGrid((10, 10))
    x = fill_cells(grid, sorted(set(cells)))
    G.classify_cells(grid, x)
    G.assign_depth(grid)
    fluid = grid.fluid_mask()
    assert (grid.depth[fluid] <= 0).all()
    assert (grid.depth[~fluid] > 0).all()
    assert (grid.depth[grid.marking == G.SURFACE] == 0).all()
