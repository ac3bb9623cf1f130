"""The benchmark's tracer still fits the program.

perfbench/tracing.py patches cellflow functions by name and reads fields of
their results (the solve's objective, the network's arc count, the motion
proposal's new cells, the band diagnostics, the pressure iterations). A
renamed function or a changed result shape breaks the benchmark, not the
program, so this runs the tracer on short band and obstacle runs in a fresh
process, where its patches cannot leak into other tests.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from tracing import Tracer
from workloads import PARTITION
from cellflow.pipeline import Simulation
from cellflow.scene import BandConfig, builtin_scene

tracer = Tracer()
tracer.install()
obstacle = builtin_scene("falling_obs")
band = builtin_scene("dam")
band.band = BandConfig(enabled=True, R=6, strategy=band.band.strategy)
for cfg, frames in ((obstacle, 3), (band, 4)):
    sim = Simulation(cfg)
    for _ in range(frames):
        tracer.capture = True
        sim.step()
print(json.dumps({"seconds": tracer.seconds, "counts": tracer.counts,
                  "objectives": [float(p["objective"]) for p in tracer.captured],
                  "partition": PARTITION}))
"""


def test_tracer_installs_and_every_layer_fires():
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"), str(ROOT / "src")],
        capture_output=True, text=True, timeout=300, check=False)
    assert done.returncode == 0, done.stderr
    out = json.loads(done.stdout.splitlines()[-1])
    silent = [name for name in out["partition"]
              if name != "outputs.write_frame_s" and not out["seconds"].get(name, 0.0) > 0.0]
    assert not silent, f"layers that recorded no time: {silent}"
    band_counts = {k: v for k, v in out["counts"].items() if k.startswith("band.")}
    assert len(band_counts) == 4 and all(v > 0 for v in band_counts.values()), band_counts
    for name in ("solvers.arcs", "flip.pressure_iterations", "solids.new_solid_cells"):
        assert out["counts"].get(name, 0) > 0, name
    assert len(out["objectives"]) == 7  # the first problem of each frame
    assert all(obj >= 0.0 for obj in out["objectives"])
