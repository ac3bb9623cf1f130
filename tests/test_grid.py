"""Grid topology: neighborhoods, classification, depth, clearing, volume."""
import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cellflow import grid as G
from cellflow import solids as S
from cellflow.scene import Box, ObstacleConfig
from cellflow.errors import InputError, IntegrityError

from conftest import flat_index


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
    """Von Neumann neighbours of a cell off the wall layer, by the grid's
    flat shifts."""
    c = flat_index(grid, cell)
    return [tuple(int(v) for v in grid.unflat(c + s)) for s in grid.vn_shifts]


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
        G.classify_cells(grid, np.zeros((0, 2)), ())
        assert (grid.marking[grid.wall] == G.SOLID).all()
        assert (grid.marking[~grid.wall] == G.EMPTY).all()

    def test_single_fluid_cell_is_surface(self):
        grid = make_grid()
        x = fill_cells(grid, [(4, 4)], ppc=2)
        G.classify_cells(grid, x, ())
        assert grid.marking[flat_index(grid, (4, 4))] == G.SURFACE

    def test_bottom_block_only_top_row_surface(self):
        # 6x6 fluid block on the tank floor: wall-adjacent cells see only
        # domain-boundary solids, so only the exposed top row is surface
        grid = G.CellGrid((8, 9))
        cells = [(i, j) for i in range(1, 7) for j in range(1, 7)]
        G.classify_cells(grid, fill_cells(grid, cells), ())
        for i in range(1, 7):
            for j in range(1, 7):
                expected = G.SURFACE if j == 6 else G.INNER
                assert grid.marking[flat_index(grid, (i, j))] == expected, (i, j)

    def test_particle_in_solid_rejected(self):
        grid = make_grid()
        x = np.array([[0.5, 4.5]])  # wall cell
        with pytest.raises(IntegrityError):
            G.classify_cells(grid, x, ())

    def test_partition_is_complete(self):
        grid = make_grid()
        x = fill_cells(grid, [(2, 2), (2, 3), (5, 5)])
        G.classify_cells(grid, x, ())
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
        G.classify_cells(grid, fill_cells(grid, cells), ())
        G.assign_depth(grid)
        hole = flat_index(grid, (4, 6))
        assert grid.depth[hole] == -R
        deep = grid.depth < -R
        kept = [(i, j) for (i, j) in cells if j >= 6 and (i, j) != (4, 6)]
        G.classify_cells(grid, fill_cells(grid, kept), (), G.band_classes(grid, R))
        assert grid.counts[hole] == 0
        assert grid.marking[hole] == G.INNER
        assert (grid.marking[deep] == G.INNER).all()  # none turned SURFACE


class TestDepth:
    def test_column_depth_monotone(self):
        # 4-wide column of fluid, open at the top: depth decreases downward
        grid = G.CellGrid((6, 8))
        cells = [(i, j) for i in range(1, 5) for j in range(1, 5)]
        G.classify_cells(grid, fill_cells(grid, cells), ())
        G.assign_depth(grid)
        for j in range(1, 5):
            expected = 0 if j == 4 else -(4 - j)
            for i in range(1, 5):
                assert grid.depth[flat_index(grid, (i, j))] == expected, (i, j)

    def test_isolated_cell_depth_zero(self):
        grid = make_grid()
        G.classify_cells(grid, fill_cells(grid, [(4, 4)]), ())
        G.assign_depth(grid)
        assert grid.depth[flat_index(grid, (4, 4))] == 0

    def test_non_fluid_positive(self):
        grid = make_grid()
        G.classify_cells(grid, fill_cells(grid, [(4, 4)]), ())
        G.assign_depth(grid)
        assert grid.depth[flat_index(grid, (2, 2))] == 1
        assert (grid.depth[grid.wall] == 1).all()

    def test_sealed_tank_fallback(self, caplog):
        grid = G.CellGrid((4, 4))
        cells = [(i, j) for i in range(1, 3) for j in range(1, 3)]
        G.classify_cells(grid, fill_cells(grid, cells), ())
        with caplog.at_level(logging.WARNING, logger="cellflow.grid"):
            G.assign_depth(grid)
        assert "4 fluid cells unreachable from any surface" in caplog.text
        assert (grid.depth[grid.fluid_mask()] == -1).all()

    def test_depth_lipschitz(self):
        grid = G.CellGrid((12, 12))
        rng = np.random.default_rng(3)
        cells = [(i, j) for i in range(1, 11) for j in range(1, 11) if rng.random() < 0.7]
        if not cells:
            return
        G.classify_cells(grid, fill_cells(grid, cells), ())
        G.assign_depth(grid)
        fluid = grid.fluid_mask()
        for c in np.flatnonzero(fluid):
            for nb in c + np.array(grid.vn_shifts):
                if fluid[nb]:
                    assert abs(int(grid.depth[c]) - int(grid.depth[nb])) <= 1


class TestClearingDistance:
    def test_open_floor_row(self):
        grid = G.CellGrid((8, 8))
        G.classify_cells(grid, np.zeros((0, 2)), ())
        row = [flat_index(grid, (i, 4)) for i in range(2, 5)]
        dist = G.clearing_distance(grid, row)
        assert [dist[c] for c in row] == [1, 1, 1]

    def test_floor_pinned_row_opens_right(self):
        # row on the tank floor, escape only past the right end
        grid = G.CellGrid((6, 8))
        G.classify_cells(grid, np.zeros((0, 2)), ())
        row = [flat_index(grid, (i, 1)) for i in (1, 2, 3)]
        # block everything above the row with solid cells so the only escape
        # neighbor is (4, 1) to the right
        above = np.zeros(grid.ncells, dtype=bool)
        for i in (1, 2, 3):
            above[flat_index(grid, (i, 2))] = True
        grid.marking[above] = G.SOLID
        dist = G.clearing_distance(grid, row)
        assert [int(dist[c]) for c in row] == [3, 2, 1]

    def test_empty_set(self):
        grid = make_grid()
        dist = G.clearing_distance(grid, [])
        assert (dist == 0).all()

    def test_walled_pocket_gets_sentinel(self):
        grid = G.CellGrid((6, 6))
        G.classify_cells(grid, np.zeros((0, 2)), ())
        target = flat_index(grid, (2, 2))
        for s in grid.vn_shifts:
            grid.marking[target + s] = G.SOLID
        dist = G.clearing_distance(grid, [target])
        assert dist[target] == grid.ncells

    def test_distance_descends_by_one(self):
        # every assigned cell at distance > 1 has a neighbor one step closer
        rng = np.random.default_rng(8)
        grid = G.CellGrid((14, 14))
        G.classify_cells(grid, np.zeros((0, 2)), ())
        cells = [flat_index(grid, (i, j)) for i in range(2, 12) for j in range(2, 12)
                 if rng.random() < 0.5]
        dist = G.clearing_distance(grid, cells)
        for c in cells:
            d = dist[c]
            if d > 1 and d < grid.ncells:
                vn = [c + s for s in grid.vn_shifts]
                nbs = [int(dist[nb]) for nb in vn if dist[nb] > 0]
                escape = any(dist[nb] == 0 and grid.marking[nb] != G.SOLID for nb in vn)
                assert (d - 1 in nbs) or escape


class TestBoxFlat:
    def test_scene_box_and_obstacle_agree(self):
        # the seeding path and an obstacle at the same place claim one cell set
        grid = G.CellGrid((12, 10))
        lo, hi = np.array([2.0, 3.5]), np.array([6.0, 7.25])
        obs = S.Obstacle(ObstacleConfig(Box(lo, hi), velocity=(0.0, 0.0)))
        cells = G.box_flat(grid, lo, hi)
        assert np.array_equal(cells, obs.occupied_flat(grid))
        assert sorted(map(tuple, grid.unflat(cells))) == [
            (i, j) for i in range(2, 6) for j in range(3, 8)]

    def test_edge_near_face_claims_no_next_cell(self):
        grid = make_grid()
        near = G.box_flat(grid, (2 - 1e-10, 3 + 1e-10), (4 + 1e-10, 5 - 1e-10))
        assert np.array_equal(near, G.box_flat(grid, (2, 3), (4, 5)))
        past = G.box_flat(grid, (2 - 1e-6, 3), (4, 5))
        assert len(past) == 3 * 2

    def test_partly_off_grid_is_clipped(self):
        grid = make_grid()
        cells = G.box_flat(grid, (6, -2), (11, 2))
        assert sorted(map(tuple, grid.unflat(cells))) == [(i, j) for i in (6, 7) for j in (0, 1)]

    @pytest.mark.parametrize("lo, hi", [((9, 2), (12, 4)), ((-3, -3), (-1, 5)), ((2, 8), (4, 9))])
    def test_fully_off_grid_is_empty(self, lo, hi):
        cells = G.box_flat(make_grid(), lo, hi)
        assert cells.shape == (0,)


def box_flat_by_meshgrid(grid, lo, hi):
    """Reference: box_flat's cells built by meshgrid and np.ravel_multi_index."""
    lo = np.maximum(np.floor(np.asarray(lo) + 1e-9).astype(np.int64), 0)
    hi = np.minimum(np.ceil(np.asarray(hi) - 1e-9).astype(np.int64), grid.dims)
    mesh = np.meshgrid(*[np.arange(a, b) for a, b in zip(lo, hi)], indexing="ij")
    return np.ravel_multi_index(tuple(m.reshape(-1) for m in mesh), grid.dims)


def any_neighbor_nd(mask_nd, offsets):
    """Reference: the neighbor dilation on the nd grid, by slices per offset."""

    def shift_slices(off):
        """Slices (src, dst) so that dst_array[dst] sees src_array at +off."""
        src, dst = [], []
        for o in off:
            if o > 0:
                src.append(slice(1, None))
                dst.append(slice(None, -1))
            elif o < 0:
                src.append(slice(None, -1))
                dst.append(slice(1, None))
            else:
                src.append(slice(None))
                dst.append(slice(None))
        return tuple(src), tuple(dst)

    out = np.zeros_like(mask_nd)
    for off in offsets:
        src, dst = shift_slices(off)
        out[dst] |= mask_nd[src]
    return out


def hops_nd(seed, allowed):
    """Reference: the von Neumann level BFS on nd grids."""
    hops = np.where(seed, 0, -1)
    frontier, reached, level = seed, seed.copy(), 0
    while frontier.any():
        level += 1
        frontier = any_neighbor_nd(frontier, G.von_neumann_offsets(seed.ndim)) & allowed & ~reached
        hops[frontier] = level
        reached |= frontier
    return hops


class TestFlatIndexAgainstNd:
    """box_flat slices the grid's index array, and the neighbor dilation and
    level BFS shift flat masks by flat strides; each against the nd
    construction it replaced."""

    @pytest.mark.parametrize("dims", [(9, 7), (5, 6, 4)])
    def test_box_flat_matches_meshgrid(self, dims):
        rng = np.random.default_rng(sum(dims))
        grid = G.CellGrid(dims)
        size = np.asarray(dims, dtype=float)
        for case in range(300):
            lo = rng.uniform(-3, size + 1)
            hi = lo + rng.uniform(0, size / 2 + 2)
            if case % 3 == 0:  # edges within 1e-9 of a face, either side
                lo = np.round(lo) + rng.choice([-1e-10, 1e-10], size=len(dims))
                hi = np.round(hi) + rng.choice([-1e-10, 1e-10], size=len(dims))
            if case % 10 == 0:  # wholly outside, below or above
                lo = np.where(rng.random(len(dims)) < 0.5, lo - size - 5, lo + size + 1)
                hi = lo + 2
            got, want = G.box_flat(grid, lo, hi), box_flat_by_meshgrid(grid, lo, hi)
            assert got.dtype == want.dtype and np.array_equal(got, want), (lo, hi)

    @pytest.mark.parametrize("dims", [(9, 7), (6, 5, 7)])
    def test_vn_shifts_reach_axis_ordered_offsets(self, dims):
        """On every cell off the wall layer, c + vn_shifts[k] is the cell at
        the k-th von Neumann offset taken by axis, + before -: +x, -x, +y, ..."""
        grid = G.CellGrid(dims)
        d = len(dims)
        offsets = [sign * np.eye(d, dtype=np.int64)[a] for a in range(d) for sign in (1, -1)]
        assert len(grid.vn_shifts) == len(offsets) == 2 * d
        for c in np.flatnonzero(~grid.wall):
            cell = grid.unflat(c)
            for k, off in enumerate(offsets):
                want = np.ravel_multi_index(tuple(cell + off), dims)
                assert c + grid.vn_shifts[k] == want, (tuple(cell), k)

    @pytest.mark.parametrize("dims", [(9, 7), (6, 5, 7)])
    def test_dilation_and_hops_match_nd(self, dims):
        """Random seed and allowed masks off the wall layer: the flat results
        agree with the nd ones on every cell, the wall layer included."""
        rng = np.random.default_rng(len(dims))
        grid = G.CellGrid(dims)
        for _ in range(40):
            seed = (rng.random(grid.ncells) < rng.uniform(0.02, 0.3)) & ~grid.wall
            allowed = (rng.random(grid.ncells) < rng.uniform(0.3, 1.0)) & ~grid.wall
            for flat_shifts, offsets in ((grid.vn_shifts, G.von_neumann_offsets(grid.d)),
                                         (grid.moore_shifts, G.moore_offsets(grid.d))):
                want = any_neighbor_nd(seed.reshape(dims), offsets).reshape(-1)
                assert np.array_equal(G._any_neighbor(seed, flat_shifts), want)
            want = hops_nd(seed.reshape(dims), allowed.reshape(dims)).reshape(-1)
            got = G._hops(grid, seed, allowed)
            assert got.dtype == want.dtype and np.array_equal(got, want)


def reference_fill(grid, flat, room, rng, limit=None):
    """The per-particle loop fill_cells replaces: one draw per particle."""
    out = []
    for c, r in zip(flat, room):
        for _ in range(int(r)):
            if len(out) == limit:
                break
            out.append(grid.unflat(int(c)).astype(np.float64)
                       + rng.uniform(0.01, 0.99, size=grid.d))
    return np.asarray(out, dtype=np.float64).reshape(-1, grid.d)


class TestFillCells:
    @pytest.mark.parametrize("dims, flat, room, limit", [
        ((8, 8), [27, 9, 50, 10], [2, 3, 1, 4], None),      # the given order, not sorted
        ((8, 8), [27, 9, 50, 10], [2, -3, 0, 4], None),     # room below zero places none
        ((8, 8), [27, 9, 50, 10], [2, 3, 1, 4], 4),         # the limit cuts a cell short
        ((8, 8), [27, 9, 50, 10], [2, 3, 1, 4], 6),         # the limit ends on a cell
        ((8, 8), [27, 9], [2, 3], 0),                       # nothing allowed
        ((8, 8), [27, 9], [-1, 0], 5),                      # no room
        ((8, 8), [], [], 3),                                # no cells
        ((5, 6, 7), [100, 31, 57], [3, 1, 2], 5),           # 3D
    ])
    def test_matches_per_particle_loop(self, dims, flat, room, limit):
        grid = G.CellGrid(dims)
        flat = np.asarray(flat, dtype=np.int64)
        room = np.asarray(room, dtype=np.int64)
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        got = G.fill_cells(grid, flat, room, rng, limit=limit)
        want = reference_fill(grid, flat, room, ref_rng, limit)
        assert got.shape == want.shape == (len(want), grid.d)
        assert np.array_equal(got, want)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        cells = grid.cell_of(got)
        expected = np.repeat(flat, np.maximum(room, 0))[:limit]
        assert np.array_equal(cells, expected)
        frac = got - np.floor(got)
        assert ((frac >= 0.01) & (frac <= 0.99)).all()


def per_cell(grid, cell, mu):
    """One cell's discrete volume from the per-cell volume report."""
    return G.volume_report(grid, mu, v_star=1.0, per_cell=True).per_cell[flat_index(grid, cell)]


class TestVolume:
    def _full_block(self, mu=4):
        # 10x10 exact block with one empty row of air above it
        grid = G.CellGrid((12, 13))
        cells = [(i, j) for i in range(1, 11) for j in range(1, 11)]
        x = fill_cells(grid, cells, ppc=mu)
        G.classify_cells(grid, x, ())
        G.assign_depth(grid)
        return grid, len(cells)

    def test_empty_cell_zero(self):
        grid = make_grid()
        G.classify_cells(grid, fill_cells(grid, [(4, 4)]), ())
        G.assign_depth(grid)
        assert per_cell(grid, (2, 2), mu=4) == 0.0

    def test_surface_fraction(self):
        grid = make_grid()
        G.classify_cells(grid, fill_cells(grid, [(4, 4)], ppc=2), ())
        G.assign_depth(grid)
        assert per_cell(grid, (4, 4), mu=4) == 0.5

    def test_deep_full_credit_despite_bubble(self):
        grid, ncells = self._full_block(mu=4)
        c = flat_index(grid, (5, 5))
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
        c = flat_index(grid, (5, 5))
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
    G.classify_cells(grid, x, ())
    G.assign_depth(grid)
    fluid = grid.fluid_mask()
    assert (grid.depth[fluid] <= 0).all()
    assert (grid.depth[~fluid] > 0).all()
    assert (grid.depth[grid.marking == G.SURFACE] == 0).all()
