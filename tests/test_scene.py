"""Scene configs: parsing, validation, builtins, text round trip."""
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cellflow.scene import BandStrategy
from cellflow.errors import InputError
from cellflow.scene import (BUILTIN_SCENES, BandConfig, Box, EmitterConfig, FluidRegion,
                            ObstacleConfig, SceneConfig, builtin_scene, load_scene,
                            parse_scene, scene_to_text)
from cellflow.solids import Kinematics

SCENE_FILES = {path.name: str(path)
               for path in (Path(__file__).resolve().parents[1] / "scripts" / "scenes").glob("*.scene")}

MINIMAL = """
version = 1
name = test
dims = 20 20
mu = 2
frames = 5
"""

FULL = MINIMAL + """
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
        cfg = parse_scene(FULL)
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

    def test_emitter_outside_domain_rejected(self):
        bad = MINIMAL + "\n[emitter]\nbox = 15 15 25 25\nrate = 1\nvelocity = 0 0\n"
        with pytest.raises(InputError, match="emitter box .* non-wall"):
            parse_scene(bad)

    def test_obstacle_outside_domain_rejected(self):
        # an obstacle box on the wall layer would never move
        bad = MINIMAL + "\n[obstacle]\nbox = 0 12 6 16\nvelocity = 0 -2\nname = stuck\n"
        with pytest.raises(InputError, match=r"obstacle box \(0.0, 12.0\)..\(6.0, 16.0\) "
                                             "leaves the non-wall domain"):
            parse_scene(bad)
        parse_scene(bad.replace("0 12 6 16", "1 12 6 16"))

    def test_fluid_sharing_a_cell_with_obstacle_rejected(self):
        bad = MINIMAL + ("\n[fluid]\nbox = 1 1 10 6\n"
                         "\n[obstacle]\nbox = 4 5.5 6 8\nvelocity = 0 0\nname = lid\n")
        with pytest.raises(InputError, match="shares a cell with obstacle 'lid'"):
            parse_scene(bad)
        # touching along a cell face shares no cell
        parse_scene(bad.replace("5.5", "6"))

    def test_box_dimension_must_match_dims(self):
        bad = MINIMAL.replace("dims = 20 20", "dims = 20 20 20") + (
            "\n[obstacle]\nbox = 4 4 6 6\nvelocity = 0 0 0\n")
        with pytest.raises(InputError, match="obstacle box .* does not match dims"):
            parse_scene(bad)

    @pytest.mark.parametrize("section", [
        "[obstacle]\nbox = 4 4 6 6\nvelocity = -2\n",
        "[emitter]\nbox = 4 4 6 6\nrate = 1\nvelocity = 0 -1 0\n",
    ], ids=["obstacle", "emitter"])
    def test_velocity_dimension_must_match_dims(self, section):
        with pytest.raises(InputError, match="velocity .* does not match dims"):
            parse_scene(MINIMAL + "\n" + section)

    def test_negative_seed_rejected(self):
        with pytest.raises(InputError, match="seed must be >= 0"):
            parse_scene(MINIMAL + "seed = -1\n")

    @pytest.mark.parametrize("source", [*BUILTIN_SCENES, *sorted(SCENE_FILES), "full_sections"])
    def test_round_trip(self, source):
        if source == "full_sections":
            cfg = parse_scene(FULL)
        else:
            cfg = load_scene(SCENE_FILES.get(source, source))
        text = scene_to_text(cfg)
        again = parse_scene(text)
        assert again == cfg
        assert scene_to_text(again) == text

    @pytest.mark.parametrize("text, message", [
        (MINIMAL + "mu = 3\n", "line 7: key 'mu' given again, first on line 5"),
        (MINIMAL + "[fluid]\nbox = 1 1 5 5\nbox = 1 1 8 8\n",
         "line 9: key 'box' given again, first on line 8"),
        (MINIMAL + "[band]\nR = 4\n[band]\nenabled = true\n", r"line 9: second \[band\] section"),
        (MINIMAL.replace("dims = 20 20", "dims = 20.7 20"),
         "line 4: key 'dims' expects integers, got '20.7 20'"),
        (MINIMAL + "[fluid]\nbox = 1 1 5 5\nppc = -3\n", r"fluid box .*: ppc must be >= 1, got -3"),
        (MINIMAL + "[fluid]\nbox = 1 1 5 5\nppc = 0\n", r"fluid box .*: ppc must be >= 1, got 0"),
        (MINIMAL + "[fluid]\nbox = 1 1 5 5\nppc = 7\n",
         r"fluid box .*: ppc must not exceed mu = 2, got 7"),
    ], ids=["repeated_key", "repeated_box", "second_band", "fractional_dims", "negative_ppc",
            "zero_ppc", "ppc_above_mu"])
    def test_ignored_input_rejected(self, text, message):
        with pytest.raises(InputError, match=message):
            parse_scene(text)


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

    @pytest.mark.parametrize("name", ["pool # test", "a\nb", "a\r", "a\u2028b",
                                      " pool", "pool ", "\tpool"])
    @pytest.mark.parametrize("owner", ["scene", "obstacle"])
    def test_name_that_the_scene_file_cannot_hold_rejected(self, owner, name):
        # scene_to_text writes a name on one line, where parse_scene cuts a
        # comment and strips the blanks at either end
        cfg = SceneConfig(name="x", dims=(10, 10), obstacles=[
            ObstacleConfig(Box((4, 4), (6, 6)), velocity=(0.0, 0.0), name="rock")])
        key = "'name'"
        if owner == "scene":
            cfg.name = name
        else:
            cfg.obstacles[0].name, key = name, "'name' in [obstacle]"
        with pytest.raises(InputError, match=re.escape(f"key {key} must hold no '#'")):
            cfg.validate()

    def test_band_R_positive(self):
        cfg = builtin_scene("dam")
        cfg.band.enabled = True
        cfg.band.R = 0
        with pytest.raises(InputError):
            cfg.validate()

    def test_box_extent_positive(self):
        with pytest.raises(InputError):
            Box((3, 3), (3, 5))

    @pytest.mark.parametrize("line, message", [
        ("max_speed = -1", "max_speed must be positive"),
        ("max_speed = 0", "max_speed must be positive"),
        ("pressure_tol = 0", "pressure_tol must be positive"),
        ("pressure_tol = nan", "pressure_tol must be positive"),
        ("frame_dt = nan", "frame_dt must be positive"),
        ("flip_ratio = -0.1", r"flip_ratio must lie in \[0, 1\]"),
        ("flip_ratio = 1.5", r"flip_ratio must lie in \[0, 1\]"),
        ("flip_ratio = nan", r"flip_ratio must lie in \[0, 1\]"),
        ("frame_dt = inf", "frame_dt must be positive and finite"),
        ("max_speed = inf", "max_speed must be positive and finite"),
        ("pressure_tol = inf", "pressure_tol must be positive and finite"),
        ("lambda_penalty = 0", "lambda_penalty must be positive"),
        ("lambda_penalty = -1000", "lambda_penalty must be positive"),
        ("lambda_penalty = nan", "lambda_penalty must be positive"),
        ("lambda_penalty = inf", "lambda_penalty must be positive and finite"),
        ("gravity = nan -9.8", "gravity must be finite"),
        ("gravity = 0 -inf", "gravity must be finite"),
    ])
    def test_scalar_out_of_range_rejected(self, line, message):
        with pytest.raises(InputError, match=message):
            parse_scene(MINIMAL + line + "\n")

    @pytest.mark.parametrize("section, message", [
        ("[fluid]\nbox = 1 1 8 nan", "fluid box must be finite"),
        ("[fluid]\nbox = nan nan nan nan", "fluid box must be finite"),
        ("[obstacle]\nbox = 10 10 12 inf\nvelocity = 0 0", "obstacle box must be finite"),
        ("[obstacle]\nbox = 10 10 12 12\nvelocity = nan 0", "obstacle velocity must be finite"),
        ("[emitter]\nbox = 4 4 6 6\nrate = 1\nvelocity = 0 -inf",
         "emitter velocity must be finite"),
        ("[emitter]\nbox = 4 4 6 6\nrate = inf\nvelocity = 0 0",
         "emitter rate and start must be finite"),
        ("[emitter]\nbox = 4 4 6 6\nrate = 1\nvelocity = 0 0\nstart = nan",
         "emitter rate and start must be finite"),
    ], ids=["fluid_box", "fluid_box_all_nan", "obstacle_box", "obstacle_velocity",
            "emitter_velocity", "emitter_rate", "emitter_start"])
    def test_non_finite_section_value_rejected(self, section, message):
        with pytest.raises(InputError, match=message):
            parse_scene(MINIMAL + "\n" + section + "\n")

    @pytest.mark.parametrize("keys", ["rate = -1", "rate = 1\ntotal = -5"],
                             ids=["rate", "total"])
    def test_negative_emitter_rejected(self, keys):
        section = f"\n[emitter]\nbox = 4 4 6 6\nvelocity = 0 0\n{keys}\n"
        with pytest.raises(InputError, match="emitter rate and total must be >= 0"):
            parse_scene(MINIMAL + section)


def test_scene_module_leaves_band_unloaded():
    # the scene format names the band strategies without the band solver
    src = Path(__file__).resolve().parents[1] / "src"
    probe = subprocess.run([sys.executable, "-c", "import sys, cellflow.scene; "
                            "print('cellflow.band' in sys.modules)"],
                           env={**os.environ, "PYTHONPATH": str(src)},
                           capture_output=True, text=True)
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout.strip() == "False"
