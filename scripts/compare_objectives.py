"""Check that two versions of the flow solver reach the same optima.

Record every correction problem of an N-frame run, with this tree's
objective, choice, final potentials and solver work (searches, drains, pops,
scans, tables) for each:

    python scripts/compare_objectives.py --scene dam --frames 60 --seed 5 --out a.npz

Re-solve the problems of such a file with this tree's solver, write the
results, and compare them with the file's:

    python scripts/compare_objectives.py --against a.npz --out b.npz

The comparison prints the largest relative objective gap, the share of
problems whose choices are identical, how many re-solves end on potentials
identical bit for bit and do identical work (all five counters equal), and
both files' mean work per solve. Means can hide offsetting differences; the
per-problem counts cannot. A count the file lacks the data for, or a
counter the solving tree lacks, prints as -. Potentials are compared only
where the file holds one per grid cell, then the sink's and the hub's, as
``SolveStats.pi`` does; a recording made while the solve numbered only the
reached cells holds fewer, and its potential count prints as -. A cell's
arc tables also hold its arcs to and from the sink or hub, which ``scans``
counts. Then it prints the CPU milliseconds per ``solve_mcf`` call of the
fastest of ``--repeat N`` passes (default 1) over the file's problems, and
how many re-solves certify as optimal against their problems (after the
timed passes, which time ``solve_mcf`` alone):

    python scripts/compare_objectives.py --against a.npz --out b.npz --repeat 5

cellflow is imported from PYTHONPATH, so recording with another tree's
``src`` and re-solving with this one compares the two solvers on the same
problems, whatever tie each breaks. A scene file whose ``[band]`` section
sets ``strategy = full``, such as ``scripts/scenes/dam_band6_full.scene``,
records band problems, whose band row holds the interface and the deep.
Exits 1 if some gap is not 0 or some re-solve fails its certificate. A
problem's costs are multiples of 2^-24, so two exact solves of it reach the
same optimum to the last bit, whatever tie each breaks.

Problem i is stored as the arrays of ``cellflow.correction.dump_problem``
under the key prefix ``problem_i/`` (``problem_12/cost``): ``cost``,
``target_flat``, ``cap``, ``floor``, ``dims``, ``region`` and
``region_bounds``, beside its ``choice_i`` and its final potentials
``pi_i``. A recording that also holds ``xi``, ``valid`` and ``mu`` loads,
as ``load_problem`` ignores them. Older recordings are refused, naming the
array: plain problems recorded without the band row (``region``), a ``cap``
of -1, the uncapped mark on the band's deep cells, and unrounded costs,
made before costs were multiples of 2^-24 (``cost``); so are recordings
that hold each problem as one text string.
"""
import argparse
import sys
import time

import numpy as np

from cellflow import correction as C
from cellflow import solvers as V
from cellflow.errors import InputError, IntegrityError
from cellflow.pipeline import Simulation
from cellflow.scene import load_scene

WORK = ("searches", "drains", "pops", "scans", "tables")  # SolveStats counters stored per problem


def record(scene: str, frames: int, seed: int) -> tuple[list[dict], list]:
    """Every correction problem of the run, as its arrays, and this tree's
    solve of each."""
    cfg = load_scene(scene)
    cfg.seed = seed
    sim = Simulation(cfg)
    problems, results = [], []
    solve = V.solve_problem

    def capture(problem):
        result = solve(problem)
        problems.append(C.dump_problem(problem))
        results.append(result)
        return result

    V.solve_problem = capture
    try:
        for _ in range(frames):
            sim.step()
    finally:
        V.solve_problem = solve
    return problems, results


def load(path: str) -> tuple[list[dict], np.ndarray, list[np.ndarray], list, dict]:
    """The file's problems, objectives, choices, potentials (None where it
    has none) and work counters."""
    data = np.load(path)
    count = len(data["objective"])
    problems = [{key.split("/", 1)[1]: data[key] for key in data.files
                 if key.startswith(f"problem_{i}/")} for i in range(count)]
    work = {name: data[name] for name in WORK if name in data}
    return (problems, data["objective"], [data[f"choice_{i}"] for i in range(count)],
            [data[f"pi_{i}"] if f"pi_{i}" in data else None for i in range(count)], work)


def counters(results: list) -> dict:
    """Each WORK counter per solve, for the counters the solving tree reports."""
    return {name: np.array([getattr(stats, name) for _, stats in results], dtype=np.int64)
            for name in WORK if all(hasattr(stats, name) for _, stats in results)}


def save(path: str, problems: list[dict], results: list) -> None:
    arrays = {"objective": np.array([stats.objective for _, stats in results]),
              **counters(results)}
    for i, (problem, (choice, stats)) in enumerate(zip(problems, results)):
        arrays.update({f"problem_{i}/{key}": a for key, a in problem.items()})
        arrays[f"choice_{i}"] = choice
        arrays[f"pi_{i}"] = stats.pi
    np.savez_compressed(path, **arrays)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--scene", help="builtin scene name or scene file to record")
    parser.add_argument("--frames", type=int, default=60)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--against", metavar="FILE", help="re-solve and compare with FILE")
    parser.add_argument("--repeat", type=int, default=1, metavar="N",
                        help="with --against: solve N times, print the fastest pass's CPU")
    parser.add_argument("--out", required=True, metavar="FILE", help="output .npz")
    args = parser.parse_args()
    if (args.scene is None) == (args.against is None):
        parser.error("give exactly one of --scene and --against")
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")

    if args.scene is not None:
        problems, results = record(args.scene, args.frames, args.seed)
        save(args.out, problems, results)
        print(f"{len(problems)} problems of {args.frames} frames of {args.scene!r} "
              f"at seed {args.seed} -> {args.out}")
        return 0

    problems, objective, choices, potentials, work = load(args.against)
    try:
        loaded = [C.load_problem(arrays) for arrays in problems]
    except InputError as exc:
        parser.error(f"{args.against}: {exc}")
    for problem in loaded:
        V.reduce_to_flow(problem)
    fastest = float("inf")
    for _ in range(args.repeat):
        start = time.process_time()
        results = [V.solve_mcf(problem) for problem in loaded]
        fastest = min(fastest, time.process_time() - start)
    certified = 0
    for problem, (choice, stats) in zip(loaded, results):
        try:
            problem.certify(choice, stats.pi)
        except IntegrityError:
            continue
        certified += 1
    save(args.out, problems, results)
    redone = counters(results)
    per = max(len(problems), 1)
    mine = np.array([stats.objective for _, stats in results])
    gap = np.abs(mine - objective) / np.maximum(np.abs(objective), 1e-300)
    same = sum(bool(np.array_equal(a, c)) for (a, _), c in zip(results, choices))
    worst = float(gap.max()) if len(gap) else 0.0
    print(f"{len(problems)} problems: largest relative objective gap {worst:.3g}, "
          f"identical choices {same} of {len(problems)} "
          f"({100.0 * same / per:.0f}%)")
    same_pi = same_work = "-"
    if all(pi is not None and len(pi) == len(problem.cap) + 2
           for pi, problem in zip(potentials, loaded)):
        same_pi = sum(stats.pi.tobytes() == pi.tobytes()
                      for (_, stats), pi in zip(results, potentials))
    if all(name in work and name in redone for name in WORK):
        same_work = int(np.all([work[name] == redone[name] for name in WORK], axis=0).sum())
    print(f"identical potentials {same_pi} of {len(problems)}, "
          f"identical work {same_work} of {len(problems)}")
    means = [{name: f"{c[name].sum() / per:.1f}" if name in c else "-" for name in WORK}
             for c in (work, redone)]
    print("work per solve, recorded -> re-solved: " + ", ".join(
        f"{name} {means[0][name]} -> {means[1][name]}" for name in WORK))
    print(f"CPU per solve_mcf, fastest of {args.repeat} pass{'es' * (args.repeat > 1)}: "
          f"{1e3 * fastest / per:.2f} ms")
    print(f"certified optimal: {certified} of {len(problems)}")
    return 0 if worst == 0 and certified == len(problems) else 1


if __name__ == "__main__":
    sys.exit(main())
