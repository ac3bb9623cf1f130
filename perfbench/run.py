"""cellflow benchmark: run one workload and print its metrics as JSON.

Usage:
  python3 perfbench/run.py --workload {dam,band_dam,falling_obs}
                           [--seed N] [--seconds S] [--trace 0|1]

Each round steps the workload's frame window in a fresh single-threaded
process (see worker.py), one process at a time. Rounds repeat until
``--seconds`` have passed; at least one always runs. With ``--trace 0`` the
last line of stdout carries the end-to-end metrics; with ``--trace 1`` each
round is an untraced and a traced run at the same seed, and the last line
carries the per-layer metrics of the traced runs. Every frame of every run
is checked (checks.py); the exit code is 1 when any check fails and 2 when
the benchmark cannot run at all.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# One OpenBLAS thread: solve_mcf's np.dot otherwise wakes a worker thread
# that spins on the second core (see README.md).
os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"})

import numpy as np  # noqa: E402  (after the pins, which numpy reads on import)

import checks  # noqa: E402
from workloads import (COUNTS, DEFAULT_SEED, END_TO_END, LAYER_TIMES, LAYER_UNITS,  # noqa: E402
                       PARTITION, PER_LAYER, WORKLOADS)

SETUP_SAMPLES = 5        # set-up-only processes per run, besides the rounds' own
DEADLINE_S = 170.0       # a run ends well inside 180 s, or fails
PARTITION_RTOL = 1e-6    # layer times plus self time against the frame time
REFERENCE_S = 0.010      # the reference search's CPU time that times are scaled to
ROUND_SEEDS = 1000       # scene seeds per --seed, one per round


class BenchError(Exception):
    """The benchmark could not measure (a worker failed or ran out of time)."""


class WorkerFailed(BenchError):
    def __init__(self, out: Path, tail: str):
        super().__init__(f"worker failed:\n{tail}")
        self.out = out


class Runner:
    def __init__(self, workload, tmp: Path):
        self.w = workload
        self.tmp = tmp
        self.started = time.perf_counter()
        self.n = 0

    def worker(self, seed: int, *flags: str) -> tuple[dict, Path]:
        """Run worker.py once and return its result and output directory."""
        self.n += 1
        out = self.tmp / f"w{self.n}"
        out.mkdir()
        result = out.with_suffix(".json")
        log = out.with_suffix(".log")
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.w.name,
               "--seed", str(seed), "--out", str(out), "--result", str(result), *flags]
        left = DEADLINE_S - (time.perf_counter() - self.started)
        try:
            with open(log, "w", encoding="utf-8") as fh:
                proc = subprocess.run(cmd, cwd=ROOT, stdout=fh, stderr=subprocess.STDOUT,
                                      timeout=max(left, 1.0))
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker {' '.join(flags)} passed the {DEADLINE_S:.0f} s deadline")
        if proc.returncode != 0 or not result.exists():
            tail = log.read_text(encoding="utf-8").strip().splitlines()[-5:]
            raise WorkerFailed(out, "\n".join(tail))
        return json.loads(result.read_text(encoding="utf-8")), out


def median(values) -> float:
    return float(statistics.median(values))


def setup_scale(result: dict) -> float:
    """Factor that scales a process's set-up CPU times to a machine on which
    the reference search takes REFERENCE_S (see README.md)."""
    return REFERENCE_S / median(result["setup_ref_s"])


def window_scale(result: dict) -> float:
    """The same for the frame window, from the searches between frames."""
    return REFERENCE_S / statistics.fmean(result["ref_cpu_s"])


def window_s(result: dict) -> float:
    """Scaled CPU seconds of a round's frame window."""
    return sum(result["frame_cpu_s"]) * window_scale(result)


def check_frames(w, out: Path, faults: list[str]) -> tuple[int, int]:
    """Check a round's dumps; return (attempted, failed) frames."""
    first, frames = checks.check_run(out, w.frames, w.mu, w.particles)
    faults += [f"{out.name} frame 0: {f}" for f in first]
    failed = w.frames - len(frames)  # frames the worker never finished
    for i, found in enumerate(frames, start=1):
        faults += [f"{out.name} frame {i}: {f}" for f in found]
        failed += bool(found)
    return w.frames, failed


def run(w, seed: int, seconds: float, trace: bool, tmp: Path) -> dict:
    """Round k steps the scene at seed ``seed * ROUND_SEEDS + k``, so a run
    averages over several trajectories and two runs never share one."""
    runner = Runner(w, tmp)
    faults: list[str] = []
    attempted = failed = 0
    first_seed = seed * ROUND_SEEDS
    runner.worker(first_seed, "--setup-only")  # fills the bytecode and file caches; not timed
    setups = [runner.worker(first_seed, "--setup-only")[0] for _ in range(SETUP_SAMPLES)]
    plain, traced = [], []
    t0 = time.perf_counter()
    while not plain or time.perf_counter() - t0 < seconds:
        round_seed = first_seed + len(plain)
        kinds = [((), plain), (("--trace",), traced)] if trace else [((), plain)]
        for flags, rounds in kinds:
            try:
                result, out = runner.worker(round_seed, *flags)
            except WorkerFailed as exc:
                faults.append(str(exc))
                a, f = check_frames(w, exc.out, faults)
                return {"faults": faults, "attempted": attempted + a, "failed": failed + f}
            a, f = check_frames(w, out, faults)
            attempted, failed = attempted + a, failed + f
            rounds.append((result, out))
            setups.append(result)

    metrics = {
        "setup_s": median(s["setup_s"] * setup_scale(s) for s in setups),
        "frames_per_s": median(w.frames / window_s(r) for r, _ in plain),
        "peak_rss_mb": median(r["peak_rss_mb"] for r, _ in plain),
    }
    layers = {}
    if trace:
        layers = per_layer(w, plain, traced, setups, faults)
    return {"faults": faults, "attempted": attempted, "failed": failed,
            "end_to_end": metrics, "per_layer": layers, "frame_cpu_s": plain[0][0]["frame_cpu_s"]}


def per_layer(w, plain, traced, setups, faults: list[str]) -> dict:
    """Per-layer metrics of the traced rounds, after their own checks:
    determinism against the untraced twin, optimality of the captured
    problems, and the partition of the frame time."""
    for (_, p_out), (_, t_out) in zip(plain, traced):
        name = f"frame_{w.frames:06d}.cprt"
        if (p_out / name).read_bytes() != (t_out / name).read_bytes():
            faults.append(f"{t_out.name}: final particle dump differs from the untraced run")
    first_out = traced[0][1]
    problems = sorted(first_out.glob("problem_*.npz"))
    if len(problems) != len(w.sample_frames):
        faults.append(f"captured {len(problems)} correction problems, "
                      f"expected {len(w.sample_frames)}")
    for path in problems:
        with np.load(path) as problem:
            faults += [f"{path.name}: {f}" for f in checks.optimality_faults(dict(problem))]

    def med(f):
        return median(f(r) for r, _ in traced)

    def count(r, name):
        return r["substeps"] if name == "pipeline.substeps" else r["trace"]["counts"].get(name, 0)

    layers = {name: med(lambda r, n=name: r["trace"]["seconds"].get(n, 0.0) * window_scale(r))
              for name in LAYER_TIMES}
    layers.update({name: statistics.median_low(count(r, name) for r, _ in traced)
                   for name in COUNTS})
    frame_s = med(window_s)
    layers.update({
        "outputs.bytes": statistics.median_low(r["bytes"] for r, _ in traced),
        "pipeline.frame_s": frame_s,
        "pipeline.self_s": med(lambda r: window_s(r) - r["trace"]["covered_s"] * window_scale(r)),
        "setup.import_s": median(s["import_s"] * setup_scale(s) for s in setups),
        "setup.simulation_s": median(s["simulation_s"] * setup_scale(s) for s in setups),
        "trace.overhead_pct": 100.0 * (frame_s / median(window_s(r) for r, _ in plain) - 1.0),
    })
    for r, out in traced:
        frame = sum(r["frame_cpu_s"])
        total = sum(r["trace"]["seconds"].get(n, 0.0) for n in PARTITION)
        own = frame - r["trace"]["covered_s"]
        if own < 0 or abs(total + own - frame) > PARTITION_RTOL * frame:
            faults.append(f"{out.name}: layer times {total!r} + self {own!r} do not add up "
                          f"to the frame time {frame!r}")
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cellflow" / "__init__.py").is_file():
        print(f"error: no cellflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    scratch = HERE / "scratch"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        outcome = run(w, args.seed, args.seconds, bool(args.trace), tmp)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if not any(scratch.iterdir()):
            scratch.rmdir()

    for fault in outcome["faults"][:20]:
        print(f"FAULT {fault}", file=sys.stderr)
    correct = not outcome["faults"] and outcome["failed"] == 0
    if "end_to_end" not in outcome:
        print(json.dumps({"correct": False, "attempted": outcome["attempted"],
                          "failed": outcome["failed"], "metrics": {}}))
        return 1
    for name, value in {**outcome["end_to_end"], **outcome["per_layer"]}.items():
        unit = END_TO_END.get(name) or LAYER_UNITS[name]
        print(f"{w.name:12s} {name:32s} {value:>14.6g} {unit}", file=sys.stderr)
    profile = " ".join(f"{1000 * s:.0f}" for s in outcome["frame_cpu_s"])
    print(f"{w.name:12s} CPU ms per frame, first untraced round: {profile}", file=sys.stderr)

    units = PER_LAYER if args.trace else END_TO_END
    values = outcome["per_layer"] if args.trace else outcome["end_to_end"]
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
