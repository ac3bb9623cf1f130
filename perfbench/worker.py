"""One benchmark round in a fresh process.

Times the set-up (from before ``import cellflow`` to a Simulation ready to
step), then, unless ``--setup-only``, steps the workload's frame window back
to back, writing dumps to ``--out`` as ``cellflow run`` does, and timing
each frame including its dump. All times are CPU seconds of this process.
Between frames, and five times after set-up, it times a fixed reference
search (see ``Reference``). Writes its figures as JSON to ``--result``.
With ``--trace`` the layers are timed (see tracing.py) and the first
correction problem of each sample frame is saved as ``problem_<k>.npz`` in
``--out`` for the optimality check.

Run by run.py, which pins numerical thread pools to one thread first.
"""
from __future__ import annotations

import argparse
import heapq
import json
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class Reference:
    """A fixed pure-Python shortest-path search on a seeded random graph.

    It does the kind of work that dominates a frame (heap, list and float
    operations in the interpreter) and never changes, so its CPU time
    measures how fast this machine runs Python at the moment. run.py scales
    the program's times by it (see README.md).
    """

    def __init__(self, nodes: int = 3000, degree: int = 6):
        rng = random.Random(0)
        self.adj = [[(rng.randrange(nodes), rng.random()) for _ in range(degree)]
                    for _ in range(nodes)]

    def cpu_s(self) -> float:
        t = time.process_time()
        dist = [float("inf")] * len(self.adj)
        dist[0] = 0.0
        heap = [(0.0, 0)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, cost in self.adj[u]:
                if d + cost < dist[v]:
                    dist[v] = d + cost
                    heapq.heappush(heap, (d + cost, v))
        return time.process_time() - t


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.iterdir())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    from workloads import WORKLOADS
    w = WORKLOADS[args.workload]
    sys.path.insert(0, str(ROOT / "src"))
    reference = Reference()

    t0 = time.process_time()
    import cellflow
    from cellflow import outputs, pipeline
    from cellflow.scene import BandConfig, builtin_scene
    t_import = time.process_time()
    cfg = builtin_scene(w.scene)
    cfg.seed = args.seed
    cfg.frames = w.frames
    if w.band_R is not None:
        cfg.band = BandConfig(enabled=True, R=w.band_R, strategy=cfg.band.strategy)
    sim = pipeline.Simulation(cfg)
    t_ready = time.process_time()

    source = Path(cellflow.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise SystemExit(f"cellflow was imported from {source}, not from this checkout")
    if cfg.mu != w.mu:
        raise SystemExit(f"scene {w.scene!r} has mu={cfg.mu}, the benchmark expects {w.mu}")

    result = {"setup_s": t_ready - t0, "import_s": t_import - t0,
              "simulation_s": t_ready - t_import,
              "setup_ref_s": [reference.cpu_s() for _ in range(5)]}
    if not args.setup_only:
        result.update(run_window(sim, cfg, w, args.out, args.trace, outputs, reference))
    args.result.write_text(json.dumps(result), encoding="utf-8")
    return 0


def run_window(sim, cfg, w, out: Path, trace: bool, outputs, reference: Reference) -> dict:
    writer = outputs.RunWriter(out, cfg)
    writer.write_manifest()
    writer.write_frame(sim, sim.initial_frame())
    bytes_before = dir_bytes(out)

    tracer = None
    if trace:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    frame_cpu_s = []
    ref_cpu_s = []
    substeps = 0
    for i in range(1, cfg.frames + 1):
        if tracer is not None:
            tracer.capture = i in w.sample_frames
        t = time.process_time()
        record = sim.step()
        writer.write_frame(sim, record)
        frame_cpu_s.append(time.process_time() - t)
        substeps += record.substeps
        ref_cpu_s.append(reference.cpu_s())
    writer.close()

    result = {
        "frame_cpu_s": frame_cpu_s,
        "ref_cpu_s": ref_cpu_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "substeps": substeps,
        "bytes": dir_bytes(out) - bytes_before,
    }
    if tracer is not None:
        import numpy as np
        for k, problem in enumerate(tracer.captured):
            np.savez(out / f"problem_{k}.npz", **problem)
        result["trace"] = {"seconds": dict(tracer.seconds), "counts": dict(tracer.counts),
                           "covered_s": tracer.covered_s}
    return result


if __name__ == "__main__":
    sys.exit(main())
