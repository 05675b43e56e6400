"""One benchmark pass: runs a workload's fdrec CLI stages in this process.

``run.py`` starts this file in a fresh process per pass, with the BLAS thread
count pinned in the environment, as::

    python3 perfbench/worker.py SPEC.json RESULT.json

The spec names the checkout root, a work directory, the config overrides,
the set-up and timed stages, how to repeat them (see ``_measure``) and
whether to trace.  Every stage calls ``fdrec.cli.main``.
The result holds each stage's time and exit status, the artifact hashes of
every round, the eval reports, the case counts ``build_cases`` gives for
them, the environment block and, when traced, the span roll-up.  Timings go
only into the result file, never into the run directory the determinism
checks compare.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback

from workloads import label

MAX_SETUP_REPEATS = 15


def _import_fdrec(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import fdrec
    from fdrec import cli

    where = os.path.realpath(os.path.dirname(fdrec.__file__))
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise RuntimeError(f"fdrec imported from {where}, not from {src}")
    return cli


def _fill(argv: list[str], paths: dict[str, str]) -> list[str]:
    return [a.format(**paths) for a in argv]


def reference_seconds() -> float:
    """Fastest of a few runs of a fixed kernel: interpreter loop plus numpy.

    It runs right before every stage.  Stage times divided by it track the
    program, not the moment-to-moment speed of a shared machine; taking the
    fastest run drops the odd interrupted one.
    """
    import numpy as np

    a = np.arange(4096, dtype=np.float64).reshape(64, 64) / 4096.0
    best = float("inf")
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(20000):
            acc += i * i
        for _ in range(100):
            np.tanh(a @ a).sum()
        best = min(best, time.perf_counter() - t0)
    return best


class StageRunner:
    def __init__(self, cli, rec=None, fail_label: str | None = None):
        self.cli = cli
        self.rec = rec
        self.fail_label = fail_label
        self.records: list[dict] = []

    def run(self, argv: list[str], phase: str, index: int) -> bool:
        name = label(argv)
        if name == self.fail_label:
            argv = argv + ["--no-such-flag"]  # injected failure (self-test)
        if self.rec is not None:
            self.rec.phase = phase
            self.rec.stage_model = argv[argv.index("--model") + 1] if "--model" in argv else None
        gc.collect()
        ref_s = reference_seconds()
        out, err = io.StringIO(), io.StringIO()
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except SystemExit as exc:  # argparse rejects a command line this way
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            rc = 1
            error = traceback.format_exc(limit=5)
        seconds = time.perf_counter() - t0
        ok = rc == 0
        if not ok and error is None:
            error = err.getvalue()[-2000:]
        self.records.append({
            "phase": phase, "index": index, "label": name,
            "seconds": seconds, "ref_s": ref_s, "rc": rc, "error": error,
        })
        return ok

    def run_all(self, stages, paths, phase: str, index: int) -> bool:
        for argv in stages:
            if not self.run(_fill(argv, paths), phase, index):
                return False
        return True


def _hash_tree(run_dir: str) -> dict[str, str]:
    hashes = {}
    for base, _, files in os.walk(run_dir):
        for name in files:
            if name == ".lock":
                continue
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                hashes[os.path.relpath(path, run_dir)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(hashes.items()))


def _read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _expected_cases(cfg_path: str, protocols: set[str]) -> dict[str, int]:
    """Case counts straight from build_cases, on the split the CLI uses."""
    from fdrec import dataio, evalharness, features
    from fdrec.config import load_config

    cfg = load_config(cfg_path)
    d = cfg.data
    log = dataio.parse_interactions(cfg.resolve(d.interactions),
                                    tz_offset_minutes=d.tz_offset_minutes)
    log = log.with_catalog(dataio.parse_stores(cfg.resolve(d.stores)))
    log = dataio.filter_users(log, d.min_orders)
    split = dataio.split_global_timeline(
        log, test_window_s=cfg.test_window_s(), valid_window_s=cfg.valid_window_s()
    )
    vocabs = features.build_vocabs(split)
    seqs = features.build_sequences(split, vocabs)
    return {
        p: len(evalharness.build_cases(split, p, seed=cfg.eval.seed,
                                       max_cases=cfg.eval.max_cases,
                                       seqs=seqs, vocabs=vocabs))
        for p in sorted(protocols)
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit(root: str) -> str | None:
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), "r", encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.isfile(loose):
            with open(loose, "r", encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), "r", encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _source_hash(root: str) -> str:
    """Digest of every file under src/fdrec: names the code without git."""
    h = hashlib.sha256()
    pkg = os.path.join(root, "src", "fdrec")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()[:16]


def _environment(root: str, spec: dict, config_hash: str | None) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except Exception:  # older numpy: no dict mode
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "workload": spec["workload"],
        "seed": spec["seed"],
        "config_hash": config_hash,
        "git_commit": _git_commit(root),
        "src_sha256": _source_hash(root),
    }


def _measure(runner: StageRunner, spec: dict, paths: dict, run_dir: str,
             round_hashes: list) -> bool:
    """Timed rounds, then extra samples of the stages measured least.

    Runs whole rounds of the timed stages until ``rounds`` are done or
    the next round would overrun ``seconds`` (at least one round).  The rest
    of the budget goes to single re-runs of the ``sampled`` stages, always
    the one with the least measured time so far, up to ``max_samples`` each.
    Every stage is deterministic, so a re-run rewrites identical artifacts;
    the run directory is hashed after each round and at the end.
    """
    t_start = time.perf_counter()

    def left() -> float:
        return spec["seconds"] - (time.perf_counter() - t_start)

    def snapshot() -> None:
        if runner.rec is not None:
            runner.rec.phase = "verify"
        round_hashes.append(_hash_tree(run_dir))

    longest = 0.0
    for i in range(spec["rounds"]):
        if i and longest > left():
            break
        t0 = time.perf_counter()
        if not runner.run_all(spec["timed"], paths, "timed", i):
            return False
        longest = max(longest, time.perf_counter() - t0)
        snapshot()

    sampled = {label(argv): argv for argv in spec["sampled"]}
    measured = {name: [] for name in sampled}
    for r in runner.records:
        if r["label"] in measured:
            measured[r["label"]].append(r["seconds"])
    extra = 0
    while True:
        open_ = [n for n, t in measured.items()
                 if len(t) < spec["max_samples"] and max(t) < left()]
        if not open_:
            break
        name = min(open_, key=lambda n: sum(measured[n]))
        if not runner.run(_fill(sampled[name], paths), "extra", extra):
            return False
        measured[name].append(runner.records[-1]["seconds"])
        extra += 1
    if extra:
        snapshot()
    return True


def run(spec: dict) -> dict:
    root = spec["root"]
    cli = _import_fdrec(root)
    from fdrec.config import load_config, write_config

    work = spec["workdir"]
    os.makedirs(work, exist_ok=True)
    paths = {
        "base": os.path.join(work, "base.cfg"),
        "data": os.path.join(work, "data"),
        "cfg": os.path.join(work, "data", "cfg"),
    }
    write_config(paths["base"], spec["overrides"])

    rec = None
    if spec["trace"]:
        from tracer import SpanRecorder, instrument

        rec = SpanRecorder()
        instrument(rec)
    runner = StageRunner(cli, rec, spec.get("fail_label"))

    ok = True
    t_setup = time.perf_counter()
    for i in range(MAX_SETUP_REPEATS):
        if i >= spec["setup_repeats"] and time.perf_counter() - t_setup >= spec["setup_seconds"]:
            break
        ok = runner.run_all(spec["setup"], paths, "setup", i)
        if not ok:
            break

    round_hashes = []
    run_dir = None
    if ok:
        run_dir = load_config(paths["cfg"]).run_dir()
        ok = _measure(runner, spec, paths, run_dir, round_hashes)

    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {
        "ok": ok,
        "stages": runner.records,
        "round_hashes": round_hashes,
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "environment": None,
        "reports": {},
        "train": {},
        "expected_cases": {},
    }
    if rec is not None:
        rec.phase = "verify"
    if ok:
        cfg = load_config(paths["cfg"])
        for name in sorted(os.listdir(run_dir)):
            path = os.path.join(run_dir, name)
            if name.startswith("eval.") and name.endswith(".json"):
                result["reports"][name] = _read_json(path)
            elif name.endswith(".train.json"):
                result["train"][name[: -len(".train.json")]] = _read_json(path)
        protocols = {p for r in result["reports"].values() for p in r.get("protocols", {})}
        result["expected_cases"] = _expected_cases(paths["cfg"], protocols)
        result["environment"] = _environment(root, spec, cfg.config_hash())
    else:
        result["environment"] = _environment(root, spec, None)
    if rec is not None:
        result["rollup"] = rec.rollup()
        result["counters"] = rec.counters
        result["spans"] = rec.dump(os.path.join(work, "spans"))
    return result


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: worker.py SPEC.json RESULT.json", file=sys.stderr)
        return 2
    spec = _read_json(argv[0])
    result = run(spec)
    with open(argv[1], "w", encoding="utf-8") as fh:
        json.dump(result, fh, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
