"""Per-layer tracing from outside the program.

``Tracer.install`` replaces public functions of the cellflow modules with
timing wrappers. The pipeline calls them through module attributes
(``V.solve_problem``, ``B.correct_band_flow``, ...) and the modules call one
another through their globals, so every call on the step path goes through
a wrapper. Spans are summed in memory. A span that starts while another is
open is nested; only outermost spans count towards ``covered_s``, so the
frame time minus ``covered_s`` is the pipeline's own time.
"""
from __future__ import annotations

import functools
from collections import defaultdict
from time import process_time

import numpy as np


class Tracer:
    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.covered_s = 0.0
        self.depth = 0
        self.capture = False      # capture the next correction problem
        self.pending: dict | None = None
        self.captured: list[dict] = []

    def _timed(self, metric: str, fn, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.depth += 1
            t0 = process_time()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = process_time() - t0
                self.depth -= 1
                self.seconds[metric] += dt
                if self.depth == 0:
                    self.covered_s += dt
            if on_result is not None:
                on_result(args, result)
            return result
        return wrapper

    def _patch(self, owner, attr: str, metric: str, on_result=None) -> None:
        setattr(owner, attr, self._timed(metric, getattr(owner, attr), on_result))

    def install(self) -> None:
        from cellflow import band as B
        from cellflow import correction as C
        from cellflow import flip as F
        from cellflow import grid as G
        from cellflow import outputs as O
        from cellflow import solids as S
        from cellflow import solvers as V

        count = self.counts

        def on_network(args, net):
            count["solvers.arcs"] += net.n_arcs
            if self.capture:
                problem = args[0]
                self.pending = {
                    "cost": problem.cost.copy(), "valid": problem.valid.copy(),
                    "target": problem.target_flat.copy(), "cap": problem.cap.copy(),
                    "floor": problem.floor.copy(),
                }
                self.capture = False

        def on_solve(args, result):
            if self.pending is not None:
                self.pending["objective"] = np.float64(result[1].objective)
                self.captured.append(self.pending)
                self.pending = None

        def on_find_paths(args, result):
            count["band.find_paths_calls"] += 1
            count["band.paths_found"] += len(result[0])

        def on_band_flow(args, diag):
            count["band.paths_applied"] += diag["n_move"]

        def on_pressure(args, stats):
            count["flip.pressure_iterations"] += stats.iterations

        def on_proposal(args, proposal):
            count["solids.new_solid_cells"] += len(proposal.new_solid)

        def on_gate(args, moved):
            count["solids.gate_held"] += not moved

        self._patch(V, "reduce_to_flow", "solvers.reduce_to_flow_s", on_network)
        self._patch(V, "solve_mcf", "solvers.solve_mcf_s", on_solve)
        self._patch(B, "correct_band_flow", "band.correct_band_flow_s", on_band_flow)
        self._patch(B, "find_paths", "band.find_paths_s", on_find_paths)
        self._patch(B, "maintain_band", "band.maintain_band_s")
        for name in ("build_candidates", "build_problem", "apply_solution"):
            self._patch(C, name, f"correction.{name}_s")
        self._patch(F, "solve_pressure", "flip.pressure_s", on_pressure)
        for name in ("transfer_p2g", "transfer_g2p"):
            self._patch(F, name, "flip.transfer_s")
        for name in ("advect_particles", "advect_grid_velocity"):
            self._patch(F, name, "flip.advect_s")
        self._patch(S, "propose_motion", "solids.coupling_s", on_proposal)
        self._patch(S, "gate_motion", "solids.coupling_s", on_gate)
        for name in ("build_solid_objective", "override_costs", "solid_face_velocities"):
            self._patch(S, name, "solids.coupling_s")
        for name in ("classify_cells", "assign_depth"):
            self._patch(G, name, "grid.markings_s")
        for name in ("volume_report", "marking_raster"):
            self._patch(G, name, "grid.volume_s")
        self._patch(O.RunWriter, "write_frame", "outputs.write_frame_s")

        edge_cost = B.EdgeCost.__call__

        def counted_edge_cost(edge_self, j, c_flat):
            count["band.edge_cost_calls"] += 1
            return edge_cost(edge_self, j, c_flat)

        B.EdgeCost.__call__ = counted_edge_cost
