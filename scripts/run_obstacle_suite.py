"""Run the solid-coupling scenes (compress, spiral, falling obstacles) and
summarize volume ranges and final obstacle heights.

Usage: python scripts/run_obstacle_suite.py [out_root] [--frames N] [--render]
"""
import argparse
import sys
from pathlib import Path

from cellflow.pipeline import Simulation
from cellflow.scene import builtin_scene

SCENES = ["compress", "spiral", "falling_obs", "falling_obs_zero_bc", "large_falling_obs"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("out", nargs="?", default="out/obstacles")
    parser.add_argument("--frames", type=int, default=None)
    parser.add_argument("--render", action="store_true")
    args = parser.parse_args()

    for name in SCENES:
        cfg = builtin_scene(name)
        if args.frames:
            cfg.frames = args.frames
        sim = Simulation(cfg)
        lo = hi = 100.0
        for _ in range(cfg.frames):
            rec = sim.step()
            lo = min(lo, rec.volume.percent)
            hi = max(hi, rec.volume.percent)
        heights = [float(o.pos[1]) for o in sim.obstacles]
        print(f"{name}: volume {lo:.2f}..{hi:.2f} %  obstacle y: "
              + ", ".join(f"{h:.2f}" for h in heights))
        if args.render:
            from cellflow.render import render_frame_2d
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            render_frame_2d(sim.grid, rec, out / f"{name}_final.ppm")
    return 0


if __name__ == "__main__":
    sys.exit(main())
