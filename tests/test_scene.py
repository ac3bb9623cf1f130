"""Scene configs: parsing, validation, builtins, text round trip."""
import numpy as np
import pytest

from cellflow.band import BandStrategy
from cellflow.errors import InputError
from cellflow.scene import (BUILTIN_SCENES, BandConfig, Box, EmitterConfig, FluidRegion,
                            ObstacleConfig, SceneConfig, builtin_scene, load_scene,
                            parse_scene, scene_to_text)
from cellflow.solids import Kinematics

MINIMAL = """
version = 1
name = test
dims = 20 20
mu = 2
frames = 5
"""


class TestParse:
    def test_minimal(self):
        cfg = parse_scene(MINIMAL)
        assert cfg.dims == (20, 20)
        assert cfg.mu == 2
        assert cfg.frames == 5
        assert not cfg.band.enabled

    @pytest.mark.parametrize("dims", [(20, 20), (8, 9, 10)])
    def test_bare_scene_takes_dataclass_defaults(self, dims):
        cfg = parse_scene(f"version = 1\ndims = {' '.join(map(str, dims))}\n")
        gravity = (0.0, -9.8) if len(dims) == 2 else (0.0, -9.8, 0.0)
        assert cfg == SceneConfig(name="scene", dims=dims, gravity=gravity)

    def test_bare_sections_take_dataclass_defaults(self):
        cfg = parse_scene(MINIMAL + """
[band]
[fluid]
box = 1 1 2 2
[emitter]
box = 1 1 2 2
rate = 1
velocity = 0 0
[obstacle]
box = 3 3 4 4
velocity = 0 0
""")
        box = Box((1, 1), (2, 2))
        assert cfg.band == BandConfig(enabled=True)  # a [band] section enables the band
        assert cfg.fluids == [FluidRegion(box)]
        assert cfg.emitters == [EmitterConfig(box, rate=1.0, velocity=(0.0, 0.0))]
        assert cfg.obstacles == [ObstacleConfig(Box((3, 3), (4, 4)), velocity=(0.0, 0.0))]

    def test_full_sections(self):
        text = MINIMAL + """
[band]
enabled = true
R = 4
strategy = full

[fluid]
box = 1 1 10 10
ppc = 2

[emitter]
box = 12 15 14 17
rate = 10
velocity = 0 -2
total = 40
start = 1.5

[obstacle]
box = 5 12 8 14
velocity = 0 -1
kinematics = free_fall
zero_bc = true
name = rock
"""
        cfg = parse_scene(text)
        assert cfg.band.enabled and cfg.band.R == 4
        assert cfg.band.strategy is BandStrategy.FULL
        assert cfg.fluids[0].ppc == 2
        assert cfg.emitters[0].total == 40
        assert cfg.emitters[0].start == 1.5
        assert cfg.obstacles[0].kinematics is Kinematics.FREE_FALL
        assert cfg.obstacles[0].zero_bc
        assert cfg.obstacles[0].name == "rock"

    def test_unknown_key_names_line(self):
        bad = MINIMAL + "\nbogus_key = 3\n"
        with pytest.raises(InputError, match="bogus_key"):
            parse_scene(bad)

    def test_bad_number_names_key_and_line(self):
        bad = MINIMAL.replace("mu = 2", "mu = two")
        with pytest.raises(InputError, match="mu"):
            parse_scene(bad)

    def test_oneway_strategy_rejected(self):
        with pytest.raises(InputError, match="unknown band strategy 'oneway'"):
            parse_scene(MINIMAL + "\n[band]\nstrategy = oneway\n")

    def test_unknown_section(self):
        with pytest.raises(InputError, match="section"):
            parse_scene(MINIMAL + "\n[warp]\nx = 1\n")

    def test_version_required(self):
        with pytest.raises(InputError, match="version"):
            parse_scene("name = x\ndims = 10 10\n")

    def test_fluid_outside_domain_rejected(self):
        bad = MINIMAL + "\n[fluid]\nbox = 0 0 10 10\n"
        with pytest.raises(InputError, match="non-wall"):
            parse_scene(bad)

    def test_round_trip(self):
        cfg = builtin_scene("dam_emit")
        text = scene_to_text(cfg)
        again = parse_scene(text)
        assert scene_to_text(again) == text


class TestBuiltins:
    def test_all_names_load(self):
        for name in BUILTIN_SCENES:
            cfg = builtin_scene(name)
            assert cfg.name == name

    def test_dam_geometry(self):
        cfg = builtin_scene("dam")
        assert cfg.dims == (50, 50)
        assert cfg.mu == 4
        box = cfg.fluids[0].box
        assert box.lo == (1, 1) and box.hi[0] == 25

    def test_dam_1ppc_is_finer(self):
        cfg = builtin_scene("dam_1ppc")
        assert cfg.dims == (100, 100)
        assert cfg.mu == 1

    def test_dam_emit_fills_half_tank(self):
        cfg = builtin_scene("dam_emit")
        box = cfg.fluids[0].box
        seeded = (box.hi[0] - box.lo[0]) * (box.hi[1] - box.lo[1]) * cfg.mu
        total = seeded + cfg.emitters[0].total
        interior = (cfg.dims[0] - 2) * (cfg.dims[1] - 2)
        assert total == interior * cfg.mu / 2

    def test_unknown_name(self):
        with pytest.raises(InputError):
            builtin_scene("tsunami")

    def test_load_scene_builtin_or_file(self, tmp_path):
        cfg = load_scene("drop")
        assert cfg.name == "drop"
        path = tmp_path / "custom.scene"
        path.write_text(scene_to_text(cfg), encoding="utf-8")
        cfg2 = load_scene(str(path))
        assert cfg2.dims == cfg.dims
        with pytest.raises(InputError):
            load_scene(str(tmp_path / "missing.scene"))


class TestValidation:
    def test_mu_positive(self):
        with pytest.raises(InputError):
            SceneConfig(name="x", dims=(10, 10), mu=0).validate()

    def test_band_R_positive(self):
        cfg = builtin_scene("dam")
        cfg.band.enabled = True
        cfg.band.R = 0
        with pytest.raises(InputError):
            cfg.validate()

    def test_box_extent_positive(self):
        with pytest.raises(InputError):
            Box((3, 3), (3, 5))
