"""Scene configuration: declarative description of a simulation run.

Configs use a flat, versioned key/value text format with repeatable
[fluid] / [emitter] / [obstacle] sections. Builtin scenes mirror the 2D
benchmark suite at desk scale: breaking dam (with emitter and 1 ppc
variants), water drop, fluid compression, spiral squeeze, and the falling
obstacle family.
"""
from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from . import grid as G
from .band import BandStrategy
from .errors import InputError
from .solids import Kinematics

CONFIG_VERSION = 1
VERSION_KEY = "version"  # every scene file gives it, equal to CONFIG_VERSION

# enum-valued keys and the name their parse errors give them
ENUM_KEYS = {BandStrategy: "band strategy", Kinematics: "kinematics"}

@dataclass
class Box:
    lo: tuple
    hi: tuple

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise InputError("box lo/hi dimension mismatch")
        self.lo = tuple(float(v) for v in self.lo)
        self.hi = tuple(float(v) for v in self.hi)
        if any(h <= l for l, h in zip(self.lo, self.hi)):
            raise InputError(f"box has non-positive extent: {self.lo}..{self.hi}")


@dataclass
class FluidRegion:
    box: Box
    ppc: int | None = None  # defaults to scene mu


@dataclass
class EmitterConfig:
    box: Box
    rate: float
    velocity: tuple
    total: int | None = None
    start: float = 0.0


@dataclass
class ObstacleConfig:
    box: Box
    velocity: tuple
    kinematics: Kinematics = Kinematics.SCRIPTED
    zero_bc: bool = False
    name: str = "obstacle"


@dataclass
class BandConfig:
    enabled: bool = False
    R: int = 3
    strategy: BandStrategy = BandStrategy.FLOW_PATHS


@dataclass
class SceneConfig:
    name: str
    dims: tuple
    mu: int = 4
    gravity: tuple = (0.0, -9.8)
    frame_dt: float = 0.1
    flip_ratio: float = 0.97
    max_speed: float = 10.0
    pressure_tol: float = 1e-6
    lambda_penalty: float = 1000.0
    seed: int = 7
    frames: int = 300
    band: BandConfig = field(default_factory=BandConfig)
    fluids: list = field(default_factory=list)
    emitters: list = field(default_factory=list)
    obstacles: list = field(default_factory=list)

    def validate(self) -> "SceneConfig":
        d = len(self.dims)
        self.gravity = tuple(float(g) for g in self.gravity)
        if d not in (2, 3):
            raise InputError(f"dims must be 2D or 3D, got {self.dims}")
        if self.mu < 1:
            raise InputError(f"mu must be >= 1, got {self.mu}")
        # a name is one line of the scene file, cut at its first '#' and stripped
        names = [("'name'", self.name)] + [("'name' in [obstacle]", ob.name)
                                           for ob in self.obstacles]
        for key, name in names:
            if "#" in name or "".join(name.splitlines()).strip() != name:
                raise InputError(f"key {key} must hold no '#', line break or blank at "
                                 f"either end, got {name!r}")
        for region in self.fluids:
            if region.ppc is not None and region.ppc < 1:
                raise InputError(f"fluid box {region.box.lo}..{region.box.hi}: ppc must be >= 1, "
                                 f"got {region.ppc}")
            if region.ppc is not None and region.ppc > self.mu:
                raise InputError(f"fluid box {region.box.lo}..{region.box.hi}: ppc must not "
                                 f"exceed mu = {self.mu}, got {region.ppc}")
        if self.band.enabled and self.band.R < 1:
            raise InputError(f"band thickness R must be >= 1, got {self.band.R}")
        if len(self.gravity) != d:
            raise InputError("gravity dimension does not match dims")
        for key in ("frame_dt", "max_speed", "pressure_tol", "lambda_penalty"):
            if not 0 < getattr(self, key) < np.inf:  # NaN fails too
                raise InputError(f"{key} must be positive and finite, got {getattr(self, key)}")
        if not 0 <= self.flip_ratio <= 1:
            raise InputError(f"flip_ratio must lie in [0, 1], got {self.flip_ratio}")
        for em in self.emitters:
            if not em.rate >= 0 or (em.total is not None and em.total < 0):
                raise InputError(f"emitter rate and total must be >= 0, got rate {em.rate}, "
                                 f"total {em.total}")
        if self.frames < 0:
            raise InputError("frames must be >= 0")
        if self.seed < 0:
            raise InputError(f"seed must be >= 0, got {self.seed}")
        all_boxes = ([("fluid", r.box) for r in self.fluids]
                     + [("emitter", e.box) for e in self.emitters]
                     + [("obstacle", o.box) for o in self.obstacles])
        for what, box in all_boxes:
            if len(box.lo) != d:
                raise InputError(f"{what} box {box.lo}..{box.hi} does not match dims {self.dims}")
        moving = [("emitter", e) for e in self.emitters] + [("obstacle", o) for o in self.obstacles]
        for what, item in moving:
            if len(item.velocity) != d:
                raise InputError(f"{what} velocity {item.velocity} does not match dims {self.dims}")
        numbers = ([("gravity", self.gravity)]
                   + [(f"{what} box", box.lo + box.hi) for what, box in all_boxes]
                   + [(f"{what} velocity", item.velocity) for what, item in moving]
                   + [("emitter rate and start", (e.rate, e.start)) for e in self.emitters])
        for what, values in numbers:
            if not np.isfinite(values).all():
                raise InputError(f"{what} must be finite, got {values}")
        # an obstacle on the wall layer could never move: each of its
        # proposals would claim a wall cell
        for what, box in all_boxes:
            if any(lo < 1 or hi > n - 1 for lo, hi, n in zip(box.lo, box.hi, self.dims)):
                raise InputError(f"{what} box {box.lo}..{box.hi} leaves the non-wall domain")
        grid = G.CellGrid(self.dims)
        for region in self.fluids:
            cells = G.box_flat(grid, region.box.lo, region.box.hi)
            for ob in self.obstacles:
                if np.isin(G.box_flat(grid, ob.box.lo, ob.box.hi), cells).any():
                    raise InputError(f"fluid box {region.box.lo}..{region.box.hi} shares a "
                                     f"cell with obstacle {ob.name!r}")
        return self


# ----------------------------------------------------------------------
# text format

# the keys of each part of a scene file, in writing order, with their kinds:
# str, int, float, bool, an enum of ENUM_KEYS, or "ints", "floats" or "box"
# for a line of numbers. A key whose dataclass field has no default is
# required; a None value is not written.
TOP_KEYS = {"name": str, "dims": "ints", "mu": int, "gravity": "floats", "frame_dt": float,
            "flip_ratio": float, "max_speed": float, "pressure_tol": float,
            "lambda_penalty": float, "seed": int, "frames": int}
# section name -> (SceneConfig field, section dataclass, its keys); [band] is
# the one section that may appear at most once
SECTIONS = {
    "band": ("band", BandConfig, {"enabled": bool, "R": int, "strategy": BandStrategy}),
    "fluid": ("fluids", FluidRegion, {"box": "box", "ppc": int}),
    "emitter": ("emitters", EmitterConfig, {"box": "box", "rate": float, "velocity": "floats",
                                            "start": float, "total": int}),
    "obstacle": ("obstacles", ObstacleConfig, {"box": "box", "velocity": "floats",
                                               "kinematics": Kinematics, "zero_bc": bool,
                                               "name": str}),
}


def _format(value, kind) -> str:
    if kind == "box":
        value = value.lo + value.hi
    if kind in ("ints", "floats", "box"):
        return " ".join(str(x) if isinstance(x, int) else repr(float(x)) for x in value)
    if kind is bool:
        return "true" if value else "false"
    if kind in ENUM_KEYS:
        return value.value
    return repr(value) if kind is float else str(value)


def _key_lines(item, kinds: dict) -> list[str]:
    return [f"{key} = {_format(getattr(item, key), kind)}"
            for key, kind in kinds.items() if getattr(item, key) is not None]


def scene_to_text(cfg: SceneConfig) -> str:
    lines = ["# cellflow scene", f"{VERSION_KEY} = {CONFIG_VERSION}", *_key_lines(cfg, TOP_KEYS)]
    for section, (attr, _, kinds) in SECTIONS.items():
        items = getattr(cfg, attr)
        for item in items if isinstance(items, list) else [items]:
            lines += ["", f"[{section}]", *_key_lines(item, kinds)]
    return "\n".join(lines) + "\n"


def _parse(raw: str, ln: int, kind, key: str):
    """The value of one key's text, or InputError naming the key and line."""
    if kind is str:
        return raw
    if kind in ENUM_KEYS:
        try:
            return kind(raw)
        except ValueError:
            raise InputError(f"line {ln}: unknown {ENUM_KEYS[kind]} {raw!r}") from None
    if kind is bool:
        if raw.lower() in ("true", "1", "yes", "false", "0", "no"):
            return raw.lower() in ("true", "1", "yes")
        raise InputError(f"line {ln}: key '{key}' expects a boolean, got {raw!r}")
    try:
        if kind in (int, float):
            return kind(raw)
        vals = tuple((int if kind == "ints" else float)(tok) for tok in raw.split())
    except ValueError:
        what = {int: "an integer", float: "a number", "ints": "integers"}.get(kind, "numbers")
        raise InputError(f"line {ln}: key '{key}' expects {what}, got {raw!r}") from None
    if kind != "box":
        return vals
    if len(vals) not in (4, 6):
        raise InputError(f"line {ln}: box needs 4 (2D) or 6 (3D) numbers, got {len(vals)}")
    return Box(lo=vals[:len(vals) // 2], hi=vals[len(vals) // 2:])


def _read(cls, kinds: dict, store: dict, preset: dict, where: str = ""):
    """A ``cls`` from the keys of ``kinds`` in ``store``, each (raw text, line).
    An absent key takes its ``preset`` value, else its field's default."""
    values = dict(preset)
    required = {f.name for f in fields(cls)
                if f.default is MISSING and f.default_factory is MISSING}
    for key, kind in kinds.items():
        if key in store:
            values[key] = _parse(*store.pop(key), kind, key)
        elif key in required and key not in values:
            raise InputError(f"missing required key '{key}'{where}")
    for key, (_, ln) in store.items():
        raise InputError(f"line {ln}: unknown key '{key}'{where}")
    return cls(**values)


def parse_scene(text: str) -> SceneConfig:
    """Parse the scene text format, reporting the offending key and line."""
    top: dict = {}
    sections: list[tuple[str, dict]] = []
    store = top
    for ln, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in SECTIONS:
                raise InputError(f"line {ln}: unknown section [{name}]")
            if name == "band" and any(other == name for other, _ in sections):
                raise InputError(f"line {ln}: second [band] section")
            store = {}
            sections.append((name, store))
            continue
        if "=" not in line:
            raise InputError(f"line {ln}: expected 'key = value', got {rawline!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key in store:
            raise InputError(f"line {ln}: key '{key}' given again, first on line {store[key][1]}")
        store[key] = (raw, ln)

    if VERSION_KEY not in top:
        raise InputError(f"missing required key '{VERSION_KEY}'")
    if (version := _parse(*top.pop(VERSION_KEY), int, VERSION_KEY)) != CONFIG_VERSION:
        raise InputError(f"unsupported config version {version}")
    # the default gravity points down the second axis in 2D and 3D alike
    pad_gravity = "gravity" not in top
    cfg = _read(SceneConfig, TOP_KEYS, top, {"name": "scene"})
    if pad_gravity:
        cfg.gravity += (0.0,) * (len(cfg.dims) - 2)
    for name, store in sections:
        attr, cls, kinds = SECTIONS[name]
        # a [band] section enables the band unless it says otherwise
        item = _read(cls, kinds, store, {"enabled": True} if name == "band" else {},
                     f" in [{name}]")
        if name == "band":
            cfg.band = item
        else:
            getattr(cfg, attr).append(item)
    return cfg.validate()


def load_scene(path_or_name: str) -> SceneConfig:
    """Load a scene file, or expand a builtin scene name."""
    if path_or_name in BUILTIN_SCENES:
        return builtin_scene(path_or_name)
    try:
        with open(path_or_name, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read scene {path_or_name!r}: {exc}")
    return parse_scene(text)


# ----------------------------------------------------------------------
# builtin scenes (2D, desk scale), each made from its name

def _falling_obs(name: str) -> SceneConfig:
    """A free-fall box dropped onto a pool; a name ending in ``_zero_bc``
    sets the box's ``zero_bc``."""
    return SceneConfig(
        name=name, dims=(50, 50), mu=4, frames=300,
        fluids=[FluidRegion(Box((1, 1), (49, 13)))],
        obstacles=[ObstacleConfig(Box((21, 40), (29, 48)), velocity=(0.0, 0.0),
                                  kinematics=Kinematics.FREE_FALL,
                                  zero_bc=name.endswith("_zero_bc"), name="box")])


BUILTIN_SCENES = {
    "dam": lambda name: SceneConfig(
        name=name, dims=(50, 50), mu=4, frames=300,
        fluids=[FluidRegion(Box((1, 1), (25, 37)))]),
    "dam_emit": lambda name: SceneConfig(
        name=name, dims=(50, 50), mu=4, frames=300,
        fluids=[FluidRegion(Box((1, 1), (25, 25)))],
        emitters=[EmitterConfig(Box((40, 44), (44, 46)), rate=80.0,
                                velocity=(0.0, -4.0), total=2304, start=5.0)]),
    "dam_1ppc": lambda name: SceneConfig(
        name=name, dims=(100, 100), mu=1, frames=300,
        fluids=[FluidRegion(Box((1, 1), (49, 73)))]),
    "drop": lambda name: SceneConfig(
        name=name, dims=(50, 50), mu=4, frames=200,
        fluids=[FluidRegion(Box((1, 1), (49, 11))),
                FluidRegion(Box((20, 30), (30, 40)))]),
    "compress": lambda name: SceneConfig(
        name=name, dims=(50, 50), mu=4, frames=220,
        fluids=[FluidRegion(Box((1, 1), (49, 6))),
                FluidRegion(Box((1, 6), (49, 8)), ppc=2)],
        obstacles=[ObstacleConfig(Box((1, 40), (49, 44)), velocity=(0.0, -2.0),
                                  name="press")]),
    "spiral": lambda name: SceneConfig(
        name=name, dims=(50, 50), mu=4, frames=200,
        fluids=[FluidRegion(Box((1, 32), (49, 40)))],
        obstacles=[
            ObstacleConfig(Box((1, 30), (35, 32)), velocity=(0.0, 0.0), name="baffle_left"),
            ObstacleConfig(Box((15, 18), (49, 20)), velocity=(0.0, 0.0), name="baffle_right"),
            ObstacleConfig(Box((1, 44), (49, 46)), velocity=(0.0, -1.0), name="piston"),
        ]),
    "falling_obs": _falling_obs,
    "falling_obs_zero_bc": _falling_obs,
    "large_falling_obs": lambda name: SceneConfig(
        name=name, dims=(50, 50), mu=4, frames=300,
        fluids=[FluidRegion(Box((1, 1), (49, 13)))],
        obstacles=[ObstacleConfig(Box((13, 40), (37, 48)), velocity=(0.0, 0.0),
                                  kinematics=Kinematics.FREE_FALL, name="big_box")]),
}


def builtin_scene(name: str) -> SceneConfig:
    if name not in BUILTIN_SCENES:
        raise InputError(f"unknown builtin scene {name!r}; choices: {', '.join(BUILTIN_SCENES)}")
    return BUILTIN_SCENES[name](name).validate()
