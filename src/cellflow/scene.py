"""Scene configuration: declarative description of a simulation run.

Configs use a flat, versioned key/value text format with repeatable
[fluid] / [emitter] / [obstacle] sections. Builtin scenes mirror the 2D
benchmark suite at desk scale: breaking dam (with emitter and 1 ppc
variants), water drop, fluid compression, spiral squeeze, and the falling
obstacle family.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import grid as G
from .band import BandStrategy
from .errors import InputError
from .solids import Kinematics

CONFIG_VERSION = 1

# enum-valued keys and the name their parse errors give them
ENUM_KEYS = {BandStrategy: "band strategy", Kinematics: "kinematics"}

BUILTIN_SCENES = (
    "dam", "dam_emit", "dam_1ppc", "drop", "compress", "spiral",
    "falling_obs", "falling_obs_zero_bc", "large_falling_obs",
)


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

def _fmt_vec(v) -> str:
    return " ".join(str(x) if isinstance(x, int) else repr(float(x)) for x in v)


def scene_to_text(cfg: SceneConfig) -> str:
    lines = [
        "# cellflow scene",
        f"version = {CONFIG_VERSION}",
        f"name = {cfg.name}",
        f"dims = {_fmt_vec(cfg.dims)}",
        f"mu = {cfg.mu}",
        f"gravity = {_fmt_vec(cfg.gravity)}",
        f"frame_dt = {cfg.frame_dt!r}",
        f"flip_ratio = {cfg.flip_ratio!r}",
        f"max_speed = {cfg.max_speed!r}",
        f"pressure_tol = {cfg.pressure_tol!r}",
        f"lambda_penalty = {cfg.lambda_penalty!r}",
        f"seed = {cfg.seed}",
        f"frames = {cfg.frames}",
        "",
        "[band]",
        f"enabled = {'true' if cfg.band.enabled else 'false'}",
        f"R = {cfg.band.R}",
        f"strategy = {cfg.band.strategy.value}",
    ]
    for region in cfg.fluids:
        lines += ["", "[fluid]", f"box = {_fmt_vec(tuple(region.box.lo) + tuple(region.box.hi))}"]
        if region.ppc is not None:
            lines.append(f"ppc = {region.ppc}")
    for em in cfg.emitters:
        lines += ["", "[emitter]", f"box = {_fmt_vec(tuple(em.box.lo) + tuple(em.box.hi))}",
                  f"rate = {em.rate!r}", f"velocity = {_fmt_vec(em.velocity)}",
                  f"start = {em.start!r}"]
        if em.total is not None:
            lines.append(f"total = {em.total}")
    for ob in cfg.obstacles:
        lines += ["", "[obstacle]", f"box = {_fmt_vec(tuple(ob.box.lo) + tuple(ob.box.hi))}",
                  f"velocity = {_fmt_vec(ob.velocity)}",
                  f"kinematics = {ob.kinematics.value}",
                  f"zero_bc = {'true' if ob.zero_bc else 'false'}",
                  f"name = {ob.name}"]
    return "\n".join(lines) + "\n"


def _parse_floats(raw: str, key: str, line_no: int) -> tuple:
    try:
        return tuple(float(tok) for tok in raw.split())
    except ValueError:
        raise InputError(f"line {line_no}: cannot parse numbers for key '{key}': {raw!r}")


def _parse_box(raw: str, key: str, line_no: int) -> Box:
    vals = _parse_floats(raw, key, line_no)
    if len(vals) not in (4, 6):
        raise InputError(f"line {line_no}: box needs 4 (2D) or 6 (3D) numbers, got {len(vals)}")
    d = len(vals) // 2
    return Box(lo=vals[:d], hi=vals[d:])


def _parse_bool(raw: str, key: str, line_no: int) -> bool:
    if raw.lower() in ("true", "1", "yes"):
        return True
    if raw.lower() in ("false", "0", "no"):
        return False
    raise InputError(f"line {line_no}: key '{key}' expects a boolean, got {raw!r}")


def parse_scene(text: str) -> SceneConfig:
    """Parse the scene text format, reporting the offending key and line."""
    top: dict = {}
    sections: list[tuple[str, dict]] = []
    current: dict | None = None
    for ln, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().lower()
            if name not in ("band", "fluid", "emitter", "obstacle"):
                raise InputError(f"line {ln}: unknown section [{name}]")
            current = {}
            sections.append((name, current))
            continue
        if "=" not in line:
            raise InputError(f"line {ln}: expected 'key = value', got {rawline!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        entry = (raw, ln)
        if current is None:
            top[key] = entry
        else:
            current[key] = entry

    def want(store: dict, key: str, kind):
        if key not in store:
            raise InputError(f"missing required key '{key}'")
        raw, ln = store.pop(key)
        if kind is str:
            return raw
        if kind in ENUM_KEYS:
            try:
                return kind(raw)
            except ValueError:
                raise InputError(f"line {ln}: unknown {ENUM_KEYS[kind]} {raw!r}")
        if kind is bool:
            return _parse_bool(raw, key, ln)
        if kind is int:
            try:
                return int(raw)
            except ValueError:
                raise InputError(f"line {ln}: key '{key}' expects an integer, got {raw!r}")
        if kind is float:
            try:
                return float(raw)
            except ValueError:
                raise InputError(f"line {ln}: key '{key}' expects a number, got {raw!r}")
        if kind == "vec":
            return _parse_floats(raw, key, ln)
        if kind == "box":
            return _parse_box(raw, key, ln)
        raise AssertionError(kind)

    def given(store: dict, kinds: dict) -> dict:
        """The keys of ``kinds`` present in ``store``, parsed. The absent keys
        are left out, so they take the dataclasses' defaults."""
        return {key: want(store, key, kind) for key, kind in kinds.items() if key in store}

    version = want(top, "version", int)
    if version != CONFIG_VERSION:
        raise InputError(f"unsupported config version {version}")
    dims = tuple(int(v) for v in want(top, "dims", "vec"))
    cfg = SceneConfig(dims=dims, **{
        "name": "scene",
        # the default gravity points down the second axis in 2D and 3D alike
        "gravity": SceneConfig.gravity + (0.0,) * (len(dims) - 2),
        **given(top, {"name": str, "mu": int, "gravity": "vec", "frame_dt": float,
                      "flip_ratio": float, "max_speed": float, "pressure_tol": float,
                      "lambda_penalty": float, "seed": int, "frames": int}),
    })
    for key in top:
        raise InputError(f"line {top[key][1]}: unknown key '{key}'")

    for name, store in sections:
        if name == "band":  # a [band] section enables the band unless it says otherwise
            cfg.band = BandConfig(**{"enabled": True, **given(
                store, {"enabled": bool, "R": int, "strategy": BandStrategy})})
        elif name == "fluid":
            cfg.fluids.append(FluidRegion(box=want(store, "box", "box"),
                                          **given(store, {"ppc": int})))
        elif name == "emitter":
            cfg.emitters.append(EmitterConfig(
                box=want(store, "box", "box"),
                rate=want(store, "rate", float),
                velocity=want(store, "velocity", "vec"),
                **given(store, {"total": int, "start": float}),
            ))
        elif name == "obstacle":
            cfg.obstacles.append(ObstacleConfig(
                box=want(store, "box", "box"),
                velocity=want(store, "velocity", "vec"),
                **given(store, {"kinematics": Kinematics, "zero_bc": bool, "name": str}),
            ))
        for key in store:
            raise InputError(f"line {store[key][1]}: unknown key '{key}' in [{name}]")
    return cfg.validate()


def load_scene(path_or_name: str) -> SceneConfig:
    """Load a scene file, or expand a builtin scene name."""
    if path_or_name in BUILTIN_SCENES:
        return builtin_scene(path_or_name)
    try:
        with open(path_or_name, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read scene {path_or_name!r}: {exc}")
    return parse_scene(text)


# ----------------------------------------------------------------------
# builtin scenes (2D, desk scale)

def builtin_scene(name: str) -> SceneConfig:
    if name == "dam":
        return SceneConfig(
            name="dam", dims=(50, 50), mu=4, frames=300,
            fluids=[FluidRegion(Box((1, 1), (25, 37)))],
        ).validate()
    if name == "dam_emit":
        return SceneConfig(
            name="dam_emit", dims=(50, 50), mu=4, frames=300,
            fluids=[FluidRegion(Box((1, 1), (25, 25)))],
            emitters=[EmitterConfig(Box((40, 44), (44, 46)), rate=80.0,
                                    velocity=(0.0, -4.0), total=2304, start=5.0)],
        ).validate()
    if name == "dam_1ppc":
        return SceneConfig(
            name="dam_1ppc", dims=(100, 100), mu=1, frames=300,
            fluids=[FluidRegion(Box((1, 1), (49, 73)))],
        ).validate()
    if name == "drop":
        return SceneConfig(
            name="drop", dims=(50, 50), mu=4, frames=200,
            fluids=[FluidRegion(Box((1, 1), (49, 11))),
                    FluidRegion(Box((20, 30), (30, 40)))],
        ).validate()
    if name == "compress":
        return SceneConfig(
            name="compress", dims=(50, 50), mu=4, frames=220,
            fluids=[FluidRegion(Box((1, 1), (49, 6))),
                    FluidRegion(Box((1, 6), (49, 8)), ppc=2)],
            obstacles=[ObstacleConfig(Box((1, 40), (49, 44)), velocity=(0.0, -2.0),
                                      name="press")],
        ).validate()
    if name == "spiral":
        return SceneConfig(
            name="spiral", dims=(50, 50), mu=4, frames=200,
            fluids=[FluidRegion(Box((1, 32), (49, 40)))],
            obstacles=[
                ObstacleConfig(Box((1, 30), (35, 32)), velocity=(0.0, 0.0), name="baffle_left"),
                ObstacleConfig(Box((15, 18), (49, 20)), velocity=(0.0, 0.0), name="baffle_right"),
                ObstacleConfig(Box((1, 44), (49, 46)), velocity=(0.0, -1.0), name="piston"),
            ],
        ).validate()
    if name in ("falling_obs", "falling_obs_zero_bc"):
        return SceneConfig(
            name=name, dims=(50, 50), mu=4, frames=300,
            fluids=[FluidRegion(Box((1, 1), (49, 13)))],
            obstacles=[ObstacleConfig(Box((21, 40), (29, 48)), velocity=(0.0, 0.0),
                                      kinematics=Kinematics.FREE_FALL,
                                      zero_bc=(name == "falling_obs_zero_bc"),
                                      name="box")],
        ).validate()
    if name == "large_falling_obs":
        return SceneConfig(
            name="large_falling_obs", dims=(50, 50), mu=4, frames=300,
            fluids=[FluidRegion(Box((1, 1), (49, 13)))],
            obstacles=[ObstacleConfig(Box((13, 40), (37, 48)), velocity=(0.0, 0.0),
                                      kinematics=Kinematics.FREE_FALL, name="big_box")],
        ).validate()
    raise InputError(f"unknown builtin scene {name!r}; choices: {', '.join(BUILTIN_SCENES)}")
