"""Binary frame dumps, volume CSV and the run manifest.

Grid raster (.cgrd): 16-byte header of magic "CGRD", u16 version, u16 ndim,
four u16 dims (unused trailing zeros), then one byte per cell in C order.
Particle dump (.cprt): 16-byte header of magic "CPRT", u32 version, u32 n,
u32 d, then n*d float32 positions followed by n*d float32 velocities, all
little-endian. Dumps carry no timestamps so reruns are byte-identical.
"""
from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from . import __version__
from .errors import InputError
from .scene import SceneConfig, scene_to_text

GRID_MAGIC = b"CGRD"
PART_MAGIC = b"CPRT"
FORMAT_VERSION = 1


def grid_raster_bytes(raster: np.ndarray, dims) -> bytes:
    dims4 = tuple(dims) + (0,) * (4 - len(dims))
    header = GRID_MAGIC + struct.pack("<HH4H", FORMAT_VERSION, len(dims), *dims4)
    assert len(header) == 16
    return header + raster.astype(np.uint8).tobytes()


def particle_dump_bytes(positions: np.ndarray, velocities: np.ndarray) -> bytes:
    n, d = positions.shape
    header = PART_MAGIC + struct.pack("<III", FORMAT_VERSION, n, d)
    body = positions.astype("<f4").tobytes() + velocities.astype("<f4").tobytes()
    return header + body


def read_particle_dump(path) -> tuple[np.ndarray, np.ndarray]:
    raw = Path(path).read_bytes()
    if raw[:4] != PART_MAGIC:
        raise InputError(f"{path}: not a particle dump")
    version, n, d = struct.unpack("<III", raw[4:16])
    if version != FORMAT_VERSION:
        raise InputError(f"{path}: unsupported dump version {version}")
    floats = np.frombuffer(raw[16:], dtype="<f4")
    pos = floats[: n * d].reshape(n, d).copy()
    vel = floats[n * d: 2 * n * d].reshape(n, d).copy()
    return pos, vel


VOLUME_COLUMNS = "step,V,percent,alt_percent,n_deep,n_excess,n_move,paths,find_calls"


class RunWriter:
    """Writes the per-run output tree: manifest, volume CSV, frame dumps."""

    def __init__(self, out_dir, cfg: SceneConfig, render: bool = False):
        self.dir = Path(out_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.cfg = cfg
        self.render = render
        self.volume_path = self.dir / "volume.csv"
        self._volume = open(self.volume_path, "w", encoding="utf-8")
        self._volume.write(VOLUME_COLUMNS + "\n")

    def write_manifest(self) -> None:
        text = [
            f"cellflow {__version__}",
            f"numpy {np.__version__}",
            f"seed {self.cfg.seed}",
            "",
            scene_to_text(self.cfg),
        ]
        (self.dir / "manifest.txt").write_text("\n".join(text), encoding="utf-8")

    def write_frame(self, sim, record) -> None:
        i = record.step
        (self.dir / f"frame_{i:06d}.cprt").write_bytes(
            particle_dump_bytes(record.positions, record.velocities))
        (self.dir / f"grid_{i:06d}.cgrd").write_bytes(
            grid_raster_bytes(record.raster, self.cfg.dims))
        b = record.band
        self._volume.write(
            f"{i},{record.volume.V!r},{record.volume.percent!r},{record.volume.alt_percent!r},"
            f"{b.get('n_deep', 0)},{b.get('n_excess', 0)},{b.get('n_move', 0)},"
            f"{b.get('paths', 0)},{b.get('find_calls', 0)}\n")
        self._volume.flush()
        if self.render:
            from .render import render_frame_2d
            render_frame_2d(sim.grid, record, self.dir / f"frame_{i:06d}.ppm")

    def close(self) -> None:
        self._volume.close()


def read_volume_csv(path) -> dict[str, np.ndarray]:
    lines = Path(path).read_text(encoding="utf-8").strip().splitlines()
    if not lines or lines[0] != VOLUME_COLUMNS:
        raise InputError(f"{path}: not a cellflow volume log")
    cols = VOLUME_COLUMNS.split(",")
    data = {c: [] for c in cols}
    for ln in lines[1:]:
        for c, tok in zip(cols, ln.split(",")):
            data[c].append(float(tok))
    return {c: np.asarray(v) for c, v in data.items()}
