"""FLIP core: transfers, forces, pressure projection, advection, dt clamp."""
import itertools

import numpy as np
import pytest

from cellflow import flip as F
from cellflow import grid as G
from cellflow import solids as S
from cellflow.scene import Box, ObstacleConfig
from cellflow.errors import SolverError
from oracles import divergence_residual


def all_faces(mac):
    """Face masks that select every face of the MAC grid."""
    return [np.ones(v.shape, dtype=bool) for v in mac.vel]


def make_state(dims=(8, 8), cells=(), ppc=4):
    grid = G.CellGrid(dims)
    pts = []
    rng = np.random.default_rng(2)
    for cell in cells:
        pts.extend(np.asarray(cell) + rng.uniform(0.1, 0.9, size=(ppc, grid.d)))
    x = np.asarray(pts).reshape(-1, grid.d) if pts else np.zeros((0, grid.d))
    G.classify_cells(grid, x, ())
    G.assign_depth(grid)
    grid.rebuild_counts(x)
    particles = F.ParticleSet.from_positions(x)
    mac = F.MacGrid(dims)
    return grid, mac, particles


def stencils_at(mac, p):
    return [F._stencil(mac, a, p.x) for a in range(mac.d)]


def advect(p, mac, dt):
    """The ideal positions of the particles after dt in the grid field."""
    return F.advect_particles(p, mac, dt, F.velocity_at(mac, p.x))


class TestTransfers:
    def test_p2g_constant_velocity(self):
        grid, mac, p = make_state(cells=[(3, 3), (3, 4), (4, 3), (4, 4)])
        p.vel[:] = [1.5, -0.5]
        F.transfer_p2g(p, mac, None)
        for a in range(2):
            written = np.zeros_like(mac.vel[a], dtype=bool)
            q = p.x - mac.face_offset(a)
            base = np.floor(q).astype(np.int64)
            for corner in [(0, 0), (0, 1), (1, 0), (1, 1)]:
                idx = tuple(base[:, k] + corner[k] for k in range(2))
                written[idx] = True
            vals = mac.vel[a][written]
            assert np.allclose(vals, p.vel[0, a], atol=1e-12)

    def test_p2g_unwritten_faces_unchanged(self):
        grid, mac, p = make_state(cells=[(3, 3)])
        mac.vel[0][:] = 7.0
        p.vel[:] = [1.0, 0.0]
        F.transfer_p2g(p, mac, None)
        assert mac.vel[0][0, 0] == 7.0  # far corner face untouched

    def test_round_trip_uniform_exact(self):
        grid, mac, p = make_state(cells=[(3, 3), (4, 3), (3, 4), (4, 4)])
        v = np.array([0.75, -1.25])
        p.vel[:] = v
        stencils = F.transfer_p2g(p, mac, None)
        saved = mac.copy_velocity()
        F.transfer_g2p(mac, saved, p, stencils, flip_ratio=0.97, max_speed=np.inf)
        assert np.allclose(p.vel, v, atol=1e-12)

    def test_g2p_pure_pic(self):
        grid, mac, p = make_state(cells=[(3, 3)])
        for a in range(2):
            mac.vel[a][:] = 2.0 - a
        saved = mac.copy_velocity()
        p.vel[:] = [9.0, 9.0]
        F.transfer_g2p(mac, saved, p, stencils_at(mac, p), flip_ratio=0.0, max_speed=np.inf)
        assert np.allclose(p.vel, [2.0, 1.0])

    def test_g2p_pure_flip_increment(self):
        grid, mac, p = make_state(cells=[(3, 3)])
        saved = mac.copy_velocity()
        for a in range(2):
            mac.vel[a][:] = saved[a] + 0.5
        p.vel[:] = [1.0, -1.0]
        F.transfer_g2p(mac, saved, p, stencils_at(mac, p), flip_ratio=1.0, max_speed=np.inf)
        assert np.allclose(p.vel, [1.5, -0.5])

    def test_speed_clamp(self):
        grid, mac, p = make_state(cells=[(3, 3)])
        for a in range(2):
            mac.vel[a][:] = 50.0
        saved = [np.zeros_like(v) for v in mac.vel]
        F.transfer_g2p(mac, saved, p, stencils_at(mac, p), flip_ratio=0.0, max_speed=3.0)
        assert np.abs(p.vel).max() <= 3.0 + 1e-12

    def test_band_mode_deep_faces_retained(self):
        grid, mac, p = make_state(cells=[(3, 3)])
        mac.vel[1][:] = -4.0
        p.vel[:] = [0.0, 9.0]
        write_cells = np.zeros(grid.ncells, dtype=bool)  # nothing writable
        F.transfer_p2g(p, mac, write_cells)
        assert np.allclose(mac.vel[1], -4.0)


class TestForces:
    def test_zero_gravity_noop(self):
        grid, mac, p = make_state()
        before = mac.copy_velocity()
        F.apply_forces(mac, (0.0, 0.0), dt=0.1)
        assert all(np.array_equal(a, b) for a, b in zip(before, mac.vel))

    def test_gravity_arithmetic(self):
        grid, mac, p = make_state()
        F.apply_forces(mac, (0.0, -9.8), dt=0.1)
        assert np.allclose(mac.vel[1], -0.98)
        assert np.allclose(mac.vel[0], 0.0)


class TestAdvect:
    def test_zero_velocity_stays(self):
        grid, mac, p = make_state(cells=[(3, 3)])
        assert np.allclose(advect(p, mac, dt=0.5), p.x)

    def test_constant_velocity_arithmetic(self):
        grid, mac, p = make_state(dims=(8, 8))
        p.x = np.array([[2.2, 2.2]])
        p.vel = np.zeros((1, 2))
        mac.vel[0][:] = 1.0
        assert np.allclose(advect(p, mac, dt=0.5), [[2.7, 2.2]])

    def test_wall_clamp(self):
        grid, mac, p = make_state(dims=(8, 8))
        p.x = np.array([[1.5, 1.5]])
        mac.vel[0][:] = -10.0
        assert advect(p, mac, dt=1.0)[0, 0] >= 1.0 + G.MARGIN - 1e-12

    def test_moore_locality_clamp(self):
        grid, mac, p = make_state(dims=(12, 12))
        p.x = np.array([[5.5, 5.5]])
        mac.vel[0][:] = 0.0
        mac.vel[1][:] = 0.0
        # fake a huge velocity by lying to the integrator via dt
        mac.vel[0][:] = 3.0
        assert abs(int(np.floor(advect(p, mac, dt=1.0)[0, 0])) - 5) <= 1

    def test_grid_advect_uniform_unchanged(self):
        grid, mac, p = make_state(dims=(8, 8))
        for a in range(2):
            mac.vel[a][:] = 1.0 - 2 * a
        F.advect_grid_velocity(mac, dt=0.3, face_masks=all_faces(mac))
        assert np.allclose(mac.vel[0], 1.0, atol=1e-12)
        assert np.allclose(mac.vel[1], -1.0, atol=1e-12)

    def test_grid_advect_linear_shear_matches_backtrace(self):
        grid, mac, p = make_state(dims=(10, 10))
        # u_x varies linearly with y; u_y = 0: backtrace is exact for interior
        shape = mac.vel[0].shape
        ys = (np.arange(shape[1]) + 0.5)[None, :]
        mac.vel[0][:] = 0.01 * ys
        dt = 0.4
        old = [v.copy() for v in mac.vel]
        F.advect_grid_velocity(mac, dt, all_faces(mac))
        # u_y = 0 so the backtraced position shifts along x only, where the
        # field is constant, so interior values must be unchanged
        assert np.allclose(mac.vel[0][2:-2, 2:-2], old[0][2:-2, 2:-2], atol=1e-9)


class TestClampDt:
    def test_fast_fluid(self):
        grid, mac, p = make_state()
        mac.vel[0][:] = 4.0
        assert F.clamp_dt(mac, 1.0, obstacle_speed=0.0) == pytest.approx(0.25)

    def test_all_still(self):
        grid, mac, p = make_state()
        assert F.clamp_dt(mac, 0.7, obstacle_speed=0.0) == 0.7

    def test_obstacle_binds(self):
        grid, mac, p = make_state()
        mac.vel[0][:] = 1.0
        assert F.clamp_dt(mac, 1.0, obstacle_speed=2.0) == pytest.approx(0.5)


# ----------------------------------------------------------------------
# the transfers and advection with a stencil built per call on (n, d)
# arrays, kept as the reference the shared stencils must match bit for bit

def per_call_stencil(mac, a, positions):
    shape = mac.vel[a].shape
    q = positions - mac.face_offset(a)
    base = np.clip(np.floor(q).astype(np.int64), 0, np.asarray(shape) - 2)
    frac = np.clip(q - base, 0.0, 1.0)
    strides = [int(np.prod(shape[k + 1:])) for k in range(mac.d)]
    origin = sum(base[:, k] * strides[k] for k in range(mac.d))
    out = []
    for corner in itertools.product((0, 1), repeat=mac.d):
        w = np.ones(len(frac))
        for k, c in enumerate(corner):
            w = w * (frac[:, k] if c else 1.0 - frac[:, k])
        out.append((origin + sum(c * s for c, s in zip(corner, strides)), w))
    return out


def per_call_gather(mac, a, u, positions):
    out = np.zeros(len(positions))
    for idx, w in per_call_stencil(mac, a, positions):
        out += w * u.ravel()[idx]
    return out


def per_call_velocity_at(mac, positions):
    return np.stack([per_call_gather(mac, a, mac.vel[a], positions) for a in range(mac.d)],
                    axis=1)


def per_call_p2g(particles, mac, write_cells=None):
    for a in range(mac.d):
        u = mac.vel[a]
        stencil = per_call_stencil(mac, a, particles.x)
        flat = np.concatenate([idx for idx, _ in stencil])
        num = np.bincount(flat, np.concatenate([w * particles.vel[:, a] for _, w in stencil]),
                          u.size).reshape(u.shape)
        den = np.bincount(flat, np.concatenate([w for _, w in stencil]), u.size).reshape(u.shape)
        mask = den > 0
        if write_cells is not None:
            mask &= G.face_mask(mac.dims, a, write_cells)
        u[mask] = num[mask] / den[mask]


def per_call_g2p(mac, saved_vel, particles, flip_ratio, max_speed):
    x = particles.x
    pic = per_call_velocity_at(mac, x)
    delta = np.stack([per_call_gather(mac, a, mac.vel[a] - saved_vel[a], x)
                      for a in range(mac.d)], axis=1)
    particles.vel = flip_ratio * (particles.vel + delta) + (1.0 - flip_ratio) * pic
    peak = np.abs(particles.vel).max(axis=1)
    particles.vel *= np.where(peak > max_speed, max_speed / np.maximum(peak, 1e-30), 1.0)[:, None]


def per_call_advect(particles, mac, dt):
    x0 = particles.x
    mid = F.clamp_positions(x0 + 0.5 * dt * per_call_velocity_at(mac, x0), mac.dims)
    return F.clamp_positions(x0 + dt * per_call_velocity_at(mac, mid), mac.dims,
                             home_cells=np.floor(x0))


def random_flip_state(rng, dims, n=300):
    """Particles across the interior, a fifth of their coordinates snapped to
    the face lattices, random velocities, and a random face field."""
    x = rng.uniform(1.0 + G.MARGIN, np.asarray(dims) - 1.0 - G.MARGIN,
                    size=(n, len(dims)))
    snap = rng.random(x.shape) < 0.2
    x[snap] = np.round(x[snap] * 2) / 2
    particles = F.ParticleSet(x=x, vel=rng.normal(size=x.shape))
    mac = F.MacGrid(dims)
    for u in mac.vel:
        u[:] = rng.normal(size=u.shape)
    return particles, mac


def copy_state(particles, mac):
    ref = F.ParticleSet(x=particles.x.copy(), vel=particles.vel.copy())
    ref_mac = F.MacGrid(mac.dims)
    ref_mac.vel = mac.copy_velocity()
    return ref, ref_mac


class TestSharedStencils:
    @pytest.mark.parametrize("dims", [(12, 14), (7, 8, 9)])
    def test_step_matches_per_call_stencils(self, dims):
        """p2g, g2p and advection on one shared stencil leave the same bits
        as stencils built per call, and g2p's PIC field is velocity_at."""
        rng = np.random.default_rng(len(dims))
        for case in range(6):
            p, mac = random_flip_state(rng, dims)
            ref, ref_mac = copy_state(p, mac)
            write_cells = rng.random(int(np.prod(dims))) < 0.5 if case % 2 else None
            stencils = F.transfer_p2g(p, mac, write_cells)
            per_call_p2g(ref, ref_mac, write_cells)
            assert [u.tobytes() for u in mac.vel] == [u.tobytes() for u in ref_mac.vel]
            saved, ref_saved = mac.copy_velocity(), ref_mac.copy_velocity()
            for u, v in zip(mac.vel, ref_mac.vel):  # stand-in for forces and pressure
                change = rng.normal(size=u.shape)
                u += change
                v += change
            pic = F.transfer_g2p(mac, saved, p, stencils, 0.95, max_speed=1.5)
            per_call_g2p(ref_mac, ref_saved, ref, 0.95, max_speed=1.5)
            assert p.vel.tobytes() == ref.vel.tobytes()
            assert pic.tobytes() == F.velocity_at(mac, p.x).tobytes()
            assert pic.tobytes() == per_call_velocity_at(mac, p.x).tobytes()
            x_ideal = F.advect_particles(p, mac, 0.4, pic)
            assert x_ideal.tobytes() == per_call_advect(ref, ref_mac, 0.4).tobytes()

    @pytest.mark.parametrize("dims", [(12, 14), (7, 8, 9)])
    def test_velocity_at_outside_the_grid(self, dims):
        """Positions beyond the face lattices clip to the edge face cells,
        as the grid advection's backtraces need."""
        rng = np.random.default_rng(5)
        _, mac = random_flip_state(rng, dims, n=0)
        x = rng.uniform(-1.5, np.asarray(dims) + 1.5, size=(400, len(dims)))
        x[::3] = np.round(x[::3])
        assert F.velocity_at(mac, x).tobytes() == per_call_velocity_at(mac, x).tobytes()

    def test_empty_particle_set(self):
        grid, mac, p = make_state(cells=[])
        mac.vel[0][:] = 3.0
        stencils = F.transfer_p2g(p, mac, None)
        assert np.all(mac.vel[0] == 3.0)
        pic = F.transfer_g2p(mac, mac.copy_velocity(), p, stencils, 0.95, max_speed=1.0)
        assert pic.shape == (0, 2) and p.vel.shape == (0, 2)
        assert F.advect_particles(p, mac, 0.5, pic).shape == (0, 2)


def _neighbor_slices(d, a, side):
    cur = [slice(None)] * d
    nb = [slice(None)] * d
    if side > 0:
        cur[a] = slice(None, -1)
        nb[a] = slice(1, None)
    else:
        cur[a] = slice(1, None)
        nb[a] = slice(None, -1)
    return tuple(cur), tuple(nb)


def full_grid_pressure(mac, cells, solid_vel, tol=1e-6, max_iter=2000):
    """Reference: the same CG run over every cell of the grid, with the
    identity off the fluid cells, where its vectors stay zero. solve_pressure
    must match it bit for bit, which also shows that the closing
    impose_solid_faces call here, absent there, changes nothing."""
    d = mac.d
    dims = cells.dims
    fluid = cells.fluid_mask().reshape(dims)
    solid = cells.solid_mask().reshape(dims)
    F.impose_solid_faces(mac, cells, solid_vel)
    div = np.zeros(dims)
    for a in range(d):
        u = mac.vel[a]
        hi = [slice(None)] * d
        lo = [slice(None)] * d
        hi[a] = slice(1, None)
        lo[a] = slice(None, -1)
        div += u[tuple(hi)] - u[tuple(lo)]
    rhs = np.where(fluid, -div, 0.0)
    diag = np.zeros(dims)
    fluid_nb = []
    for a in range(d):
        for side in (+1, -1):
            cur, nb = _neighbor_slices(d, a, side)
            nonsolid = np.zeros(dims, dtype=bool)
            nonsolid[cur] = ~solid[nb]
            diag += np.where(fluid & nonsolid, 1.0, 0.0)
            fn = np.zeros(dims, dtype=bool)
            fn[cur] = fluid[nb]
            fluid_nb.append((cur, nb, fn & fluid))
    diag[~fluid] = 1.0

    def apply_A(p):
        out = diag * p
        for (cur, nb, mask) in fluid_nb:
            contrib = np.zeros(dims)
            contrib[cur] = p[nb]
            out -= np.where(mask, contrib, 0.0)
        return np.where(fluid, out, p)

    scale = float(np.abs(rhs).max())
    p = np.zeros(dims)
    stats = F.PressureStats(iterations=0, residual=0.0, tolerance=tol)
    if scale > 0:
        tol_abs = tol * scale
        r = rhs - apply_A(p)
        z = r.copy()
        rs = float((r * r).sum())
        it = 0
        while float(np.abs(r).max()) > tol_abs:
            if it >= max_iter:
                raise SolverError(
                    f"pressure CG failed: residual {float(np.abs(r).max()):.3e} "
                    f"> {tol_abs:.3e} after {max_iter} iterations")
            Az = apply_A(z)
            denom = float((z * Az).sum())
            if denom <= 0:
                break
            alpha = rs / denom
            p += alpha * z
            r -= alpha * Az
            rs_new = float((r * r).sum())
            z = r + (rs_new / rs) * z
            rs = rs_new
            it += 1
        stats = F.PressureStats(iterations=it, residual=float(np.abs(r).max()), tolerance=tol_abs)
    mac.pressure = np.where(fluid, p, 0.0)
    for a in range(d):
        u = mac.vel[a]
        left = [slice(None)] * d
        left[a] = slice(None, -1)
        right = [slice(None)] * d
        right[a] = slice(1, None)
        grad = mac.pressure[tuple(right)] - mac.pressure[tuple(left)]
        touch_fluid = fluid[tuple(right)] | fluid[tuple(left)]
        no_solid = ~(solid[tuple(right)] | solid[tuple(left)])
        target = [slice(None)] * d
        target[a] = slice(1, -1)
        u[tuple(target)] -= np.where(touch_fluid & no_solid, grad, 0.0)
    F.impose_solid_faces(mac, cells, solid_vel)
    return stats


def random_pressure_case(rng, dims):
    """Tank with interior cells drawn from air, solid, surface and inner
    fluid, random face velocities and random solid face velocities."""
    grid = G.CellGrid(dims)
    interior = np.flatnonzero(~grid.wall)
    grid.marking[interior] = rng.choice([G.EMPTY, G.SOLID, G.SURFACE, G.INNER],
                                        size=len(interior), p=[0.25, 0.15, 0.3, 0.3])
    mac = F.MacGrid(dims)
    for u in mac.vel:
        u[:] = rng.normal(size=u.shape)
    return grid, mac, [rng.normal(size=u.shape) for u in mac.vel]


class TestPressure:
    def _hydrostatic(self, dims=(10, 12), rows=6, mu=4):
        grid = G.CellGrid(dims)
        rng = np.random.default_rng(5)
        pts = []
        for i in range(1, dims[0] - 1):
            for j in range(1, 1 + rows):
                pts.extend(np.array([i, j]) + rng.uniform(0.1, 0.9, size=(mu, 2)))
        x = np.asarray(pts)
        G.classify_cells(grid, x, ())
        G.assign_depth(grid)
        grid.rebuild_counts(x)
        return grid, F.MacGrid(dims), F.ParticleSet.from_positions(x)

    def test_zero_field_stays_zero(self):
        grid, mac, p = self._hydrostatic()
        stats = F.solve_pressure(mac, grid, [np.zeros_like(u) for u in mac.vel], tol=1e-6)
        for a in range(2):
            assert np.allclose(mac.vel[a], 0.0)

    def test_hydrostatic_divergence_removed(self):
        grid, mac, p = self._hydrostatic()
        F.apply_forces(mac, (0.0, -9.8), dt=0.1)
        stats = F.solve_pressure(mac, grid, [np.zeros_like(u) for u in mac.vel], tol=1e-8)
        assert divergence_residual(mac, grid) <= stats.tolerance + 1e-12

    def test_solid_faces_carry_solid_velocity(self):
        grid, mac, p = self._hydrostatic(dims=(12, 12), rows=8)
        obs = S.Obstacle(ObstacleConfig(Box((5.0, 9.0), (7.0, 11.0)), velocity=(0.0, -1.5)))
        # mark obstacle cells solid the way the pipeline would
        G.classify_cells(grid, p.x, [obs])
        G.assign_depth(grid)
        solid_vel = S.solid_face_velocities(grid, mac.dims, [obs])
        F.solve_pressure(mac, grid, solid_vel, tol=1e-6)
        # bottom faces of the obstacle carry the prescribed normal velocity
        assert mac.vel[1][5, 9] == pytest.approx(-1.5)
        assert mac.vel[1][6, 9] == pytest.approx(-1.5)

    def test_nonconvergence_raises(self, monkeypatch):
        grid, mac, p = self._hydrostatic()
        F.apply_forces(mac, (0.0, -9.8), dt=0.1)
        monkeypatch.setattr(F, "PRESSURE_ITERATIONS", 1)
        with pytest.raises(SolverError):
            F.solve_pressure(mac, grid, [np.zeros_like(u) for u in mac.vel], tol=1e-14)


    @staticmethod
    def _outcome(mac, stats):
        """Every bit solve_pressure leaves behind; NaN compares by its bits."""
        return ([stats.iterations], np.array([stats.residual, stats.tolerance]).tobytes(),
                mac.pressure.tobytes(), [u.tobytes() for u in mac.vel])

    @pytest.mark.parametrize("dims", [(20, 24), (9, 10, 11)])
    def test_matches_full_grid_cg_bit_for_bit(self, dims):
        """Where the reference CG ends with a finite residual, solve_pressure
        leaves the same bits; where it ends non-finite (a walled-in fluid
        pocket can diverge), solve_pressure raises SolverError."""
        rng = np.random.default_rng(len(dims))
        converged = diverged = 0
        for _ in range(12):
            grid, mac, solid_vel = random_pressure_case(rng, dims)
            ref = F.MacGrid(dims)
            ref.vel = mac.copy_velocity()
            with np.errstate(all="ignore"):
                ref_stats = full_grid_pressure(ref, grid, solid_vel)
                if not np.isfinite(ref_stats.residual):
                    diverged += 1
                    with pytest.raises(SolverError, match="residual (nan|inf)"):
                        F.solve_pressure(mac, grid, solid_vel, tol=1e-6)
                    continue
                got = self._outcome(mac, F.solve_pressure(mac, grid, solid_vel, tol=1e-6))
            assert got == self._outcome(ref, ref_stats)
            converged += divergence_residual(mac, grid) < 1e-3
        assert converged >= 6
        assert diverged > 0

    def test_no_fluid_cells(self):
        rng = np.random.default_rng(11)
        grid, mac, solid_vel = random_pressure_case(rng, (7, 8, 6))
        interior = np.flatnonzero(~grid.wall)
        grid.marking[interior] = np.where(rng.random(len(interior)) < 0.3, G.SOLID, G.EMPTY)
        before = mac.copy_velocity()
        stats = F.solve_pressure(mac, grid, solid_vel, tol=1e-6)
        assert stats.iterations == 0 and stats.residual == 0.0
        assert not mac.pressure.any()
        for a in range(3):
            on_solid = G.face_mask(grid.dims, a, grid.solid_mask())
            assert np.array_equal(mac.vel[a][on_solid], solid_vel[a][on_solid])
            assert np.array_equal(mac.vel[a][~on_solid], before[a][~on_solid])


class TestParticleSet:
    def test_append_and_keep(self):
        p = F.ParticleSet.from_positions(np.array([[1.5, 1.5], [2.5, 2.5]]))
        p.append(np.array([[3.5, 3.5]]), np.array([[0.0, 1.0]]))
        assert p.n == 3
        p.keep(np.array([True, False, True]))
        assert p.n == 2
        assert np.allclose(p.x, [[1.5, 1.5], [3.5, 3.5]])
