"""Time one perfbench stage of two checkouts in alternating fresh processes.

Usage::

    python3 scripts/ab_stage.py PARENT CHANGE --workload long-history \\
        --label train.reprec --rounds 6 [--seed 1] [--runs 10]

Each checkout must hold the run directory that
``perfbench/run.py --workload W --seed S --seconds 1 --trace 0`` leaves in
``.perfbench/<W>-s<S>-t0/plain``.  The stage is the one of that run's
``spec.json`` whose label (``analyze``, ``train.reprec``,
``eval.sonly.all``, ...) is ``--label``, with its ``{base}``, ``{data}``
and ``{cfg}`` placeholders filled in for that run directory.

A round starts one fresh process per side, the parent first in even rounds
and the change first in odd ones.  Each process imports ``fdrec`` from its
checkout's ``src``, then runs the stage ``--runs`` times in a row through
``fdrec.cli.main``, with BLAS pinned to one thread, and reports the time of
each run.  A train stage rewrites its checkpoint, with the same bytes.

It prints, for each side, every process's minimum in milliseconds, in round
order, and then the median and the quartiles of those minimums
(``statistics.quantiles``, inclusive method), and the median, minimum and
maximum of the minor page faults (``ru_minflt``) that each run of the side
took.  A stage whose speed depends on the process it lands in shows as a
spread of minimums that more runs in one process do not close.  Standard
library only; exit code 2 means a checkout lacks the run directory or the
stage, and 1 that a run failed.

A stage alone in a fresh process is not the stage as perfbench's worker
times it, after the stages before it in one process.  On a 2-vCPU VM
(OpenBLAS 0.3.31, one thread), long-history ``train.ensemble`` at seed 1
took 71.7k-77.8k minor faults a run here, with per-process minimums of
474-516 ms.  With glibc's mmap, trim and top-pad thresholds raised
(``MALLOC_MMAP_THRESHOLD_=33554432``, ``MALLOC_TRIM_THRESHOLD_=268435456``,
``MALLOC_TOP_PAD_=67108864``) it took 5.7k-6.2k faults and 384-423 ms, and
after the timed stages before it in one process, in perfbench's order,
5.3k-5.5k faults and 455-481 ms.  So compare this tool's times between its
two sides, and read a gap to perfbench against the fault counts.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

# runs in the fresh process: root, stage argv (JSON) and run count in argv
_CHILD = r"""
import contextlib, gc, io, json, os, resource, sys, time
root, argv, runs = sys.argv[1], json.loads(sys.argv[2]), int(sys.argv[3])
src = os.path.join(root, "src")
sys.path.insert(0, src)
import fdrec
from fdrec import cli
where = os.path.realpath(os.path.dirname(fdrec.__file__))
if not where.startswith(os.path.realpath(src) + os.sep):
    sys.exit(f"fdrec imported from {where}, not from {src}")
times, faults = [], []
for _ in range(runs):
    gc.collect()
    out = io.StringIO()
    f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        rc = cli.main(argv)
    times.append(time.perf_counter() - t0)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0)
    if rc != 0:
        sys.exit(f"{' '.join(argv)} exited {rc}:\n{out.getvalue()[-2000:]}")
print(json.dumps([times, faults]))
"""


def label(argv: list[str]) -> str:
    """Stage label as ``perfbench/workloads.py:label`` names it: 'analyze',
    'train.reprec', ..."""
    parts = [argv[0]]
    for flag in ("--model", "--protocol"):
        if flag in argv:
            parts.append(argv[argv.index(flag) + 1])
    return ".".join(parts)


def run_dir(checkout: str, workload: str, seed: int) -> str:
    return os.path.join(checkout, ".perfbench", f"{workload}-s{seed}-t0", "plain")


def stage(checkout: str, workload: str, seed: int, name: str) -> list[str]:
    """The filled command line of stage ``name`` in ``checkout``'s run
    directory; ``LookupError`` when there is no such directory or stage."""
    work = run_dir(checkout, workload, seed)
    spec_path = os.path.join(work, "spec.json")
    if not os.path.isfile(spec_path):
        raise LookupError(f"no {spec_path}: run perfbench/run.py --workload {workload} "
                          f"--seed {seed} --seconds 1 --trace 0 in {checkout} first")
    with open(spec_path, "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    paths = {"base": os.path.join(work, "base.cfg"), "data": os.path.join(work, "data"),
             "cfg": os.path.join(work, "data", "cfg")}
    for argv in spec["setup"] + spec["timed"]:
        if label(argv) == name:
            return [a.format(**paths) for a in argv]
    raise LookupError(f"{spec_path} has no stage labelled {name!r}")


def time_process(checkout: str, work: str, argv: list[str],
                 runs: int) -> tuple[list[float], list[int]]:
    """Seconds and minor page faults of each of ``runs`` runs of ``argv`` in
    one fresh process started in the run directory ``work``."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD, os.path.abspath(checkout), json.dumps(argv),
         str(runs)],
        cwd=work, env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {proc.stderr.strip()[-2000:]}")
    times, faults = json.loads(proc.stdout.splitlines()[-1])
    return times, faults


def schedule(rounds: int) -> list[tuple[int, int]]:
    """The side order of each round: (0, 1) in even rounds, (1, 0) in odd."""
    return [(0, 1) if r % 2 == 0 else (1, 0) for r in range(rounds)]


def summary(minimums: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) of the per-process minimums."""
    if len(minimums) == 1:
        return (minimums[0],) * 3
    q1, median, q3 = statistics.quantiles(minimums, n=4, method="inclusive")
    return q1, median, q3


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workload", required=True)
    p.add_argument("--label", required=True)
    p.add_argument("--rounds", type=int, required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--runs", type=int, default=10)
    args = p.parse_args(argv)
    if args.rounds < 1 or args.runs < 1:
        p.error("--rounds and --runs must be at least 1")
    # absolute, since each stage runs with its run directory as the cwd
    sides = [("parent", os.path.abspath(args.parent)), ("change", os.path.abspath(args.change))]
    try:
        stages = [stage(root, args.workload, args.seed, args.label) for _, root in sides]
    except LookupError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    minimums: list[list[float]] = [[], []]
    faults: list[list[int]] = [[], []]
    for order in schedule(args.rounds):
        for i in order:
            root = sides[i][1]
            work = run_dir(root, args.workload, args.seed)
            try:
                times, run_faults = time_process(root, work, stages[i], args.runs)
            except RuntimeError as err:
                print(f"error: {err}", file=sys.stderr)
                return 1
            minimums[i].append(min(times))
            faults[i].extend(run_faults)
    print(f"{args.workload} {args.label}: {args.rounds} fresh processes a side, "
          f"{args.runs} runs each, per-process minimums in ms")
    for (name, root), mins, flts in zip(sides, minimums, faults):
        q1, median, q3 = summary(mins)
        print(f"{name} {root}")
        print("  minimums " + " ".join(f"{1e3 * m:.1f}" for m in mins))
        print(f"  min {1e3 * min(mins):.1f}  q1 {1e3 * q1:.1f}  median {1e3 * median:.1f}"
              f"  q3 {1e3 * q3:.1f}")
        print(f"  minor faults a run: median {statistics.median(flts):.0f}"
              f"  min {min(flts)}  max {max(flts)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
