"""Pipeline benchmark for fdrec: ``synth -> ingest -> analyze -> train -> eval -> report``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper --seed 1 --seconds 30 --trace 0

Each pass starts ``perfbench/worker.py`` in a fresh process with the BLAS
thread count pinned to one.  The worker drives ``fdrec.cli.main`` stage by
stage.  ``--trace 0`` repeats set-up (``setup_s`` is the median), then
measures the timed stages for ``--seconds``: whole rounds first, then extra
samples of the least-measured stages.  Stage times are medians of samples
normalized by a reference kernel (see ``_normalized``).  It prints the
end-to-end metrics.  ``--trace 1`` makes one untraced pass and one traced
pass of the same stages, checks that their artifacts are byte-identical and
prints the per-layer metrics.  See README.md for the workloads and metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record,
with the environment block, goes to ``.perfbench/<run>/result.json``.
Exit code 0 means the result line was printed; without ``src/fdrec`` in the
checkout the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import LAYERS  # noqa: E402
from workloads import END_TO_END, STAGE_GROUPS, WORKLOADS, label  # noqa: E402

BLAS_THREADS = 1
SETUP_REPEATS = 3  # at least; more while set-up totals under SETUP_TARGET_S
SETUP_TARGET_S = 2.0
ROUNDS = 4  # whole rounds of the timed stages, time permitting
MAX_SAMPLES = 15  # per stage, counting extra samples
REF_NOMINAL_S = 0.0028  # median reference_seconds() on a 2-core Xeon VM
WORKER_TIMEOUT_S = 170  # all passes of one run together
PROTOCOLS = ("repeat", "exploration", "combined")
SCORED = ("hispop", "sonly", "reprec", "exprec", "ensemble")
TRAINED = ("sonly", "reprec", "exprec", "ensemble")
# Primitive autograd ops reported one by one (forward and backward time).
OPS = (
    "matmul", "getitem", "gather_rows", "sigmoid", "tanh", "softmax", "add",
    "mul", "concat", "bpr_loss",
)
# Calls grouped into one "dataio.parse" figure: every CLI command re-parses.
PARSE_FUNCS = (
    "parse_interactions", "parse_stores", "filter_users", "split_global_timeline",
)
QUALITY_REPORTS = (("reprec", "repeat"), ("exprec", "exploration"),
                   ("ensemble", "combined"))
ANALYSES = (
    "repeat_ratio_by_order_index", "explored_store_counts", "repeat_exploration_cdf",
    "historical_influence", "collaborative_influence", "emit_analysis_report",
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every metric the traced run reports, in order."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s")]
    out += [("dataio.parse.calls", "count"), ("dataio.parse.self_s", "s"),
            ("dataio.generate_synthetic.self_s", "s")]
    for fn in ("build_vocabs", "build_sequences"):
        out += [(f"features.{fn}.calls", "count"), (f"features.{fn}.self_s", "s")]
    out += [("situsim.neighbor_table.calls", "count"), ("situsim.neighbor_table.self_s", "s")]
    out += [(f"analysis.{fn}.self_s", "s") for fn in ANALYSES]
    for model in TRAINED:
        out += [(f"training.{model}.epochs", "count"), (f"training.{model}.batches", "count")]
        out += [(f"training.{model}.{part}", "s")
                for part in ("forward_s", "backward_s", "optimizer_s", "validate_s")]
    out.append(("diffcore.tape_nodes", "count"))
    for op in OPS:
        out += [(f"diffcore.op.{op}.calls", "count"), (f"diffcore.op.{op}.fwd_s", "s")]
        if op != "bpr_loss":  # composite: its backward is softplus's and sub's
            out.append((f"diffcore.op.{op}.bwd_s", "s"))
    out += [("diffcore.checkpoint.save_s", "s"), ("diffcore.checkpoint.load_s", "s"),
            ("ensemble.slates.count", "count"), ("ensemble.slates.self_s", "s")]
    out += [(f"evalharness.build_cases.{k}", "count") for k in ("calls", "cases", "candidates")]
    out.append(("evalharness.build_cases.self_s", "s"))
    for model in SCORED:
        out += [(f"evalharness.score.{model}.cases", "count"),
                (f"evalharness.score.{model}.candidates", "count"),
                (f"evalharness.score.{model}.self_s", "s")]
    out += [(f"quality.hr3.{model}.{protocol}", "ratio")
            for model, protocol in QUALITY_REPORTS]
    out += [("quality.val_hr3.exprec", "ratio"), ("quality.val_hr3.ensemble", "ratio")]
    out += [("evalharness.score.total_s", "s"),
            ("evalharness.rank_metrics.calls", "count"),
            ("evalharness.rank_metrics.self_s", "s"),
            ("trace.wall_s", "s"), ("trace.overhead_s", "s")]
    return out


# --------------------------------------------------------------------- passes

def run_worker(workload: str, seed: int, workdir: str, *, trace: bool,
               setup_repeats: int, setup_seconds: float, seconds: float,
               rounds: int, max_samples: int,
               deadline: float, fail_label: str | None = None) -> dict:
    """One pass in a fresh process; raises RuntimeError if the worker dies.

    The worker is killed (and waited for) at ``deadline``, a
    ``time.monotonic()`` value.
    """
    w = WORKLOADS[workload]
    metric_prefixes = tuple(p for group in STAGE_GROUPS.values() for p in group)
    sampled = [argv for argv in w["setup"] + w["timed"]
               if argv in w["timed"] or label(argv).startswith(metric_prefixes)]
    overrides = json.loads(json.dumps(w["overrides"]))
    overrides.setdefault("synth", {})["seed"] = seed
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    spec = {
        "root": ROOT, "workdir": workdir, "workload": workload, "seed": seed,
        "overrides": overrides, "setup": w["setup"], "timed": w["timed"],
        "setup_repeats": setup_repeats, "setup_seconds": setup_seconds,
        "seconds": seconds,
        "rounds": rounds, "max_samples": max_samples, "sampled": sampled,
        "trace": trace, "fail_label": fail_label,
    }
    spec_path = os.path.join(workdir, "spec.json")
    result_path = os.path.join(workdir, "worker.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(spec, fh)
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    log_path = os.path.join(workdir, "worker.log")
    with open(log_path, "w", encoding="utf-8") as log:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), spec_path, result_path],
            stdout=log, stderr=subprocess.STDOUT, cwd=workdir, env=env,
            timeout=max(1.0, deadline - time.monotonic()), check=False,
        )
    if proc.returncode != 0 or not os.path.isfile(result_path):
        with open(log_path, "r", encoding="utf-8", errors="replace") as fh:
            tail = fh.read()[-3000:]
        raise RuntimeError(f"worker exited with code {proc.returncode}:\n{tail}")
    with open(result_path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ------------------------------------------------------------ correctness gate

def check(res: dict) -> list[str]:
    """Problems with one pass's outputs; empty when everything holds."""
    problems = []
    for s in res["stages"]:
        if s["rc"] != 0:
            problems.append(f"stage {s['label']} ({s['phase']} {s['index']}) "
                            f"exited {s['rc']}: {(s['error'] or '').strip()[-300:]}")
    if not res["ok"]:
        return problems
    expected_files = set()
    for stage in res["stages"]:
        if stage["label"].startswith("eval."):
            _, model, protocol = stage["label"].split(".")
            for p in PROTOCOLS if protocol == "all" else (protocol,):
                expected_files.add(f"eval.{model}.{p}.json")
    for name in sorted(expected_files - set(res["reports"])):
        problems.append(f"missing eval report {name}")
    for name, report in res["reports"].items():
        for protocol, stats in report.get("protocols", {}).items():
            want = res["expected_cases"].get(protocol)
            if stats.get("n") != want:
                problems.append(f"{name}: n={stats.get('n')} but build_cases gives {want}")
            for key, value in stats.items():
                if key == "n":
                    continue
                if not (isinstance(value, (int, float)) and math.isfinite(value)
                        and 0.0 <= value <= 1.0):
                    problems.append(f"{name}: {key}={value!r} is not a finite rate in [0, 1]")
    first, *later = res["round_hashes"] or [{}]
    for i, hashes in enumerate(later, start=1):
        if hashes != first:
            problems.append(f"artifacts at snapshot {i} differ from the first round: "
                            f"{_changed(first, hashes)}")
    return problems


def _changed(a: dict[str, str], b: dict[str, str]) -> list[str]:
    return sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))[:5]


def identical(plain: dict, traced: dict) -> list[str]:
    """The traced pass must leave byte-identical artifacts."""
    a, b = plain["round_hashes"], traced["round_hashes"]
    if not a or not b:
        return ["no artifacts to compare between traced and untraced passes"]
    diff = _changed(a[-1], b[-1])
    return [f"traced artifacts differ from untraced: {diff}"] if diff else []


# ------------------------------------------------------------------- metrics

def _normalized(res: dict) -> list[float]:
    """Each stage record's seconds at the reference kernel's nominal speed.

    The machine this runs on is shared, and its speed drifts by 20 % and
    more within minutes.  A stage's seconds are scaled by the kernel's
    nominal time over the median of the kernel times taken before the
    previous stage, this stage and the next one (records are in time order).
    The raw seconds stay in the record.
    """
    stages = res["stages"]
    return [
        s["seconds"] * REF_NOMINAL_S
        / statistics.median(t["ref_s"] for t in stages[max(0, i - 1): i + 2])
        for i, s in enumerate(stages)
    ]


def _samples(res: dict) -> dict[str, list[float]]:
    """Normalized seconds of every successful run of each stage, any phase."""
    out: dict[str, list[float]] = {}
    for s, seconds in zip(res["stages"], _normalized(res)):
        if s["rc"] == 0:
            out.setdefault(s["label"], []).append(seconds)
    return out


def _stage_sum(res: dict, names) -> float:
    """Sum over the named stages of each one's median time."""
    samples = _samples(res)
    return sum(statistics.median(samples[n]) for n in names if n in samples)


def _timed_labels(res: dict) -> set[str]:
    return {s["label"] for s in res["stages"] if s["phase"] == "timed"}


def _rate(report: dict | None, protocol: str) -> float:
    stats = (report or {}).get("protocols", {}).get(protocol, {})
    return float(stats.get("hr@3", 0.0))


def end_to_end(res: dict) -> dict[str, float]:
    setups: dict[int, float] = {}
    for s, seconds in zip(res["stages"], _normalized(res)):
        if s["phase"] == "setup" and s["rc"] == 0:
            setups[s["index"]] = setups.get(s["index"], 0.0) + seconds
    m = {
        "setup_s": statistics.median(setups.values()) if setups else 0.0,
        "wall_s": _stage_sum(res, _timed_labels(res)),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    labels = _samples(res)
    for name, prefixes in STAGE_GROUPS.items():
        m[name] = _stage_sum(res, [n for n in labels if n.startswith(prefixes)])
    cases = sum(stats.get("n", 0) for r in res["reports"].values()
                for stats in r.get("protocols", {}).values())
    m["eval_cases_per_s"] = cases / m["eval_s"] if m["eval_s"] else 0.0
    return m


def quality(res: dict) -> dict[str, float]:
    """Test HR@3 from the eval reports and validation HR@3 from training."""
    reports = res["reports"]
    m = {
        f"quality.hr3.{model}.{protocol}": _rate(
            reports.get(f"eval.{model}.{protocol}.json"), protocol)
        for model, protocol in QUALITY_REPORTS
    }
    m["quality.val_hr3.exprec"] = float(
        res["train"].get("exprec", {}).get("best_metric", 0.0))
    combine = res["train"].get("ensemble", {}).get("stages", {}).get("combine", {})
    m["quality.val_hr3.ensemble"] = float(combine.get("best_metric", 0.0))
    return m


def per_layer(traced: dict, plain: dict) -> dict[str, float]:
    roll = traced.get("rollup", {}).get("timed", {})
    count = traced.get("counters", {}).get("timed", {})
    setup_roll = traced.get("rollup", {}).get("setup", {})

    def span(name: str, key: str) -> float:
        return roll.get(name, {}).get(key, 0)

    m: dict[str, float] = {}
    for layer in LAYERS:
        mine = [v for k, v in roll.items() if k.split(".", 1)[0] == layer]
        m[f"{layer}.calls"] = sum(v["calls"] for v in mine)
        m[f"{layer}.self_s"] = sum(v["self_s"] for v in mine)
    m["dataio.parse.calls"] = sum(span(f"dataio.{f}", "calls") for f in PARSE_FUNCS)
    m["dataio.parse.self_s"] = sum(span(f"dataio.{f}", "self_s") for f in PARSE_FUNCS)
    m["dataio.generate_synthetic.self_s"] = setup_roll.get(
        "dataio.generate_synthetic", {}).get("self_s", 0.0)
    for name in ("features.build_vocabs", "features.build_sequences",
                 "situsim.neighbor_table", "evalharness.build_cases",
                 "evalharness.rank_metrics"):
        m[f"{name}.calls"] = span(name, "calls")
        m[f"{name}.self_s"] = span(name, "self_s")
    for fn in ANALYSES:
        m[f"analysis.{fn}.self_s"] = span(f"analysis.{fn}", "self_s")
    for model in TRAINED:
        for part in ("epochs", "batches", "forward_s", "backward_s",
                     "optimizer_s", "validate_s"):
            m[f"training.{model}.{part}"] = count.get(f"training.{model}.{part}", 0)
    m["diffcore.tape_nodes"] = count.get("diffcore.tape_nodes", 0)
    for op in OPS:
        m[f"diffcore.op.{op}.calls"] = span(f"diffcore.{op}", "calls")
        m[f"diffcore.op.{op}.fwd_s"] = span(f"diffcore.{op}", "total_s")
        if op != "bpr_loss":
            m[f"diffcore.op.{op}.bwd_s"] = span(f"diffcore.{op}.bwd", "total_s")
    m["diffcore.checkpoint.save_s"] = span("diffcore.save_checkpoint", "total_s")
    m["diffcore.checkpoint.load_s"] = span("diffcore.load_checkpoint", "total_s")
    m["ensemble.slates.count"] = count.get("ensemble.slates.count", 0)
    m["ensemble.slates.self_s"] = count.get("ensemble.slates.self_s", 0.0)
    m["evalharness.build_cases.cases"] = count.get("evalharness.build_cases.cases", 0)
    m["evalharness.build_cases.candidates"] = count.get("evalharness.build_cases.candidates", 0)
    for model in SCORED:
        name = f"evalharness.score.{model}"
        m[f"{name}.cases"] = count.get(f"{name}.cases", 0)
        m[f"{name}.candidates"] = count.get(f"{name}.candidates", 0)
        m[f"{name}.self_s"] = span(name, "self_s")
    m["evalharness.score.total_s"] = sum(
        v["total_s"] for k, v in roll.items() if k.startswith("evalharness.score."))
    m.update(quality(traced))
    m["trace.wall_s"] = _stage_sum(traced, _timed_labels(traced))
    m["trace.overhead_s"] = m["trace.wall_s"] - _stage_sum(plain, _timed_labels(plain))
    return m


# ---------------------------------------------------------------------- main

def _metric_block(values: dict[str, float], spec: list[tuple[str, str]]) -> dict:
    return {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in spec}


def benchmark(workload: str, seed: int, seconds: float, trace: bool, workdir: str,
              fail_label: str | None = None) -> dict:
    """Runs the passes and returns the full record (``line`` is the result)."""
    deadline = time.monotonic() + WORKER_TIMEOUT_S
    if trace:
        once = dict(setup_repeats=1, setup_seconds=0, seconds=0, rounds=1,
                    max_samples=1, deadline=deadline, fail_label=fail_label)
        plain = run_worker(workload, seed, os.path.join(workdir, "plain"), trace=False, **once)
        traced = run_worker(workload, seed, os.path.join(workdir, "traced"), trace=True, **once)
        passes = [plain, traced]
        problems = check(plain) + check(traced)
        if plain["ok"] and traced["ok"]:
            problems += identical(plain, traced)
        metrics = _metric_block(per_layer(traced, plain), per_layer_metrics())
    else:
        res = run_worker(workload, seed, os.path.join(workdir, "plain"), trace=False,
                         setup_repeats=SETUP_REPEATS, setup_seconds=SETUP_TARGET_S,
                         seconds=seconds, rounds=ROUNDS, max_samples=MAX_SAMPLES,
                         deadline=deadline, fail_label=fail_label)
        passes = [res]
        problems = check(res)
        metrics = _metric_block(end_to_end(res), [(n, u) for n, u, _ in END_TO_END])
    attempted = sum(len(p["stages"]) for p in passes)
    failed = sum(1 for p in passes for s in p["stages"] if s["rc"] != 0)
    line = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return {
        "line": line,
        "problems": problems,
        "environment": passes[-1]["environment"],
        "stages": [p["stages"] for p in passes],
    }


def _parse(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds positive")
    return args


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "fdrec", "cli.py")):
        print(f"error: no fdrec sources under {ROOT}/src", file=sys.stderr)
        return 2
    workdir = os.path.join(ROOT, ".perfbench", f"{args.workload}-s{args.seed}-t{args.trace}")
    try:
        record = benchmark(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except (RuntimeError, subprocess.TimeoutExpired) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for problem in record["problems"]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps(record["line"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
