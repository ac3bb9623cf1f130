"""Binary formats, volume CSV, rendering edge cases."""
import numpy as np
import pytest

from conftest import read_particle_dump

from cellflow import grid as G
from cellflow import outputs as O
from cellflow.errors import InputError
from cellflow.pipeline import Simulation
from cellflow.render import COLORS, render_frame_2d
from cellflow.scene import BandConfig, Box, FluidRegion, SceneConfig


def test_grid_raster_bytes_header():
    raster = np.arange(12, dtype=np.uint8)
    raw = O.grid_raster_bytes(raster, (3, 4))
    assert raw[:4] == b"CGRD"
    assert len(raw) == 16 + 12


def test_particle_dump_empty():
    raw = O.particle_dump_bytes(np.zeros((0, 2), dtype=np.float32),
                                np.zeros((0, 2), dtype=np.float32))
    assert len(raw) == 16


def test_read_particle_dump_rejects_garbage(tmp_path):
    path = tmp_path / "bad.cprt"
    path.write_bytes(b"NOPE" + b"\0" * 12)
    with pytest.raises(InputError):
        read_particle_dump(path)


def test_read_volume_csv_rejects_garbage(tmp_path):
    path = tmp_path / "volume.csv"
    path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
    with pytest.raises(InputError):
        O.read_volume_csv(path)


def test_render_refuses_3d(tmp_path):
    cfg = SceneConfig(name="cube", dims=(6, 6, 6), mu=1, frames=0,
                      gravity=(0.0, -9.8, 0.0),
                      fluids=[FluidRegion(Box((1, 1, 1), (5, 3, 5)))])
    sim = Simulation(cfg)
    rec = sim.initial_frame()
    with pytest.raises(InputError):
        render_frame_2d(sim.grid, rec, tmp_path / "x.ppm")


def test_render_band_colors(tmp_path):
    cfg = SceneConfig(name="pool", dims=(12, 12), mu=1, frames=0,
                      fluids=[FluidRegion(Box((1, 1), (11, 8)))],
                      band=BandConfig(enabled=True, R=2))
    sim = Simulation(cfg)
    rec = sim.initial_frame()
    render_frame_2d(sim.grid, rec, tmp_path / "f.ppm")
    raw = (tmp_path / "f.ppm").read_bytes()
    assert raw.startswith(b"P6")
    # header + exact payload size
    header, _, payload = raw.partition(b"\n")
    dims = header.split()
    assert int(dims[1]) == 12 * 8 and int(dims[2]) == 12 * 8
    assert len(payload) == 12 * 8 * 12 * 8 * 3
    # the band classes come from the record's raster
    pixels = set(map(tuple, np.frombuffer(payload, dtype=np.uint8).reshape(-1, 3).tolist()))
    for code in (G.RASTER_SURFACE, G.RASTER_IN_BAND, G.RASTER_INTERFACE, G.RASTER_DEEP):
        assert (rec.raster == code).any()
        assert COLORS[code] in pixels
