"""The benchmark's workloads and the names and units of its metrics.

Each workload is a builtin scene stepped over a fixed frame window, set up
the way ``cellflow run <scene> [--band R] --frames N --seed S`` sets it up.
The constants below are the scene's make-up as the benchmark expects it; the
checks compare the dumps against them, so a changed scene fails loudly
instead of silently moving the baseline.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    scene: str            # builtin scene name
    band_R: int | None    # band thickness, None for no band
    frames: int           # frame window, frame 1 to frame `frames`
    mu: int               # particle budget per cell
    particles: int        # live plus deep particles at frame 0

    @property
    def sample_frames(self) -> tuple[int, ...]:
        """Frames whose first correction problem the traced run captures
        for the optimality check: the first, the middle and the last."""
        return (1, self.frames // 2, self.frames)


WORKLOADS = {
    w.name: w for w in (
        # 50x50 breaking dam, no band: the flow solve dominates; the window
        # covers the collapse (the costliest frames) and the settling.
        Workload("dam", scene="dam", band_R=None, frames=60, mu=4, particles=3456),
        # The same dam with the band at R=6 and flow-paths. Not listed in
        # BENCHMARK.json: at some seeds maintain_band cannot place the deep
        # excess during the collapse and the run stops (see README.md).
        Workload("band_dam", scene="dam", band_R=6, frames=30, mu=4, particles=3456),
        # A free-fall box drops through air onto a resting pool (impact near
        # frame 32) and presses into it.
        Workload("falling_obs", scene="falling_obs", band_R=None, frames=60, mu=4,
                 particles=2304),
    )
}

DEFAULT_SEED = 7  # the builtin scenes' own seed

END_TO_END = {
    "setup_s": "s",
    "frames_per_s": "frames/s",
    "peak_rss_mb": "MB",
}

# Timed layer metrics that never nest inside one another. Together with
# pipeline.self_s they add up to the traced frame time; band.find_paths_s is
# left out because it runs inside band.correct_band_flow_s.
PARTITION = (
    "solvers.reduce_to_flow_s",
    "solvers.solve_mcf_s",
    "band.correct_band_flow_s",
    "band.maintain_band_s",
    "correction.build_candidates_s",
    "correction.build_problem_s",
    "correction.apply_solution_s",
    "flip.pressure_s",
    "flip.transfer_s",
    "flip.advect_s",
    "solids.coupling_s",
    "grid.markings_s",
    "grid.volume_s",
    "outputs.write_frame_s",
)

LAYER_TIMES = PARTITION + ("band.find_paths_s",)

COUNTS = (
    "solvers.arcs",
    "band.find_paths_calls",
    "band.paths_found",
    "band.paths_applied",
    "band.edge_cost_calls",
    "flip.pressure_iterations",
    "solids.new_solid_cells",
    "solids.gate_held",
    "pipeline.substeps",
)

LAYER_UNITS = {
    **{name: "s" for name in LAYER_TIMES},
    **{name: "count" for name in COUNTS},
    "outputs.bytes": "bytes",
    "pipeline.self_s": "s",
    "pipeline.frame_s": "s",
    "setup.import_s": "s",
    "setup.simulation_s": "s",
    "trace.overhead_pct": "%",
}

# The per-layer metrics in the JSON result. The band layer runs only on
# band_dam, so its metrics appear in the printed table alone.
PER_LAYER = {name: unit for name, unit in LAYER_UNITS.items() if not name.startswith("band.")}
