"""Command-line entry point: ingest, synth, analyze, train, eval, report.

Conventions shared by every subcommand:

* ``--config`` names an INI run configuration (see :mod:`fdrec.config`);
  relative paths inside it resolve against the file's own directory.
* Artifacts land in a run directory named ``<config-hash>-s<train-seed>``
  under ``[data] out``, so different configurations never collide and
  rerunning the same one reproduces byte-identical files.
* Each command but ``synth`` holds an ``flock`` on the run directory's
  ``.lock``, so two never run against it at once (see :class:`_RunDirLock`).
* ``ingest`` parses and splits the TSVs into ``data.bin``, with the neighbour
  table, the three protocols' test case sets for ``[eval] seed`` and
  ``max_cases``, and a fingerprint of the TSVs and ``[data]``.  Later stages
  load it as the :class:`fdrec.features.Dataset` every model reads, and
  fail, saying to run ``ingest`` again, if it is missing or damaged or the
  TSVs have changed.
* A checkpoint must match the data's fingerprint, which it records, and its
  vocabularies, or the stage fails and says to retrain.
* Exit codes: 0 success, 2 usage or configuration error (message on
  stderr), 1 runtime failure (full cause chain on stderr).
"""

from __future__ import annotations

import argparse
import fcntl
import hashlib
import json
import os
import sys

import numpy as np

from . import analysis, baselines, dataio, ensemble, evalharness, exprec
from . import features, reprec
from .config import ConfigError, RunConfig, load_config, write_config
from .dataio import SECONDS_PER_WEEK
from .diffcore import ModelState, load_checkpoint, save_checkpoint

__all__ = ["main"]

DATA_FILE = "data.bin"  # what ingest writes into the run directory
# each trainable model's module, which defines <model>_train and, for every
# model but the ensemble, the <model>_query forward that scores it
MODULES = {"sonly": baselines, "reprec": reprec, "exprec": exprec, "ensemble": ensemble}
TRAINABLE = tuple(MODULES)
# concat, the ensemble's unit-weight reference, scores from the two base
# checkpoints alone
EVALUABLE = ("hispop",) + TRAINABLE + ("concat",)

# Which protocols each model can answer for, its own task's first.  HisPop
# only scores previously-visited stores; the ensemble and concat need both
# kinds in one slate.  SOnly, RepRec and ExpRec score any store, so each
# task's model is also measured on the other tasks.
COMPATIBLE = {
    "hispop": ("repeat",),
    "reprec": ("repeat", "exploration", "combined"),
    "sonly": ("repeat", "exploration", "combined"),
    "exprec": ("exploration", "repeat", "combined"),
    "ensemble": ("combined",),
    "concat": ("combined",),
}


class UsageError(Exception):
    """Bad invocation or configuration: exit code 2."""


class _RunDirLock:
    """Exclusive, non-blocking ``flock`` on ``<run_dir>/.lock`` for one command.

    The kernel releases the lock when its holder exits, however it exits, so
    it never goes stale; a ``.lock`` no process holds, such as one an older
    fdrec left holding ``pid host``, is free.  The file stays behind: removing
    a file another command has already opened would let two commands lock two
    files of one name.  A child forked under the lock shares it until it exits.
    POSIX only and advisory; some network file systems do not honour it."""

    def __init__(self, run_dir: str):
        self.path = os.path.join(run_dir, ".lock")

    def __enter__(self) -> "_RunDirLock":
        fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            os.close(fd)
            raise RuntimeError(
                f"run directory is locked: another command holds {self.path}"
            ) from None
        self.fd = fd
        return self

    def __exit__(self, *exc) -> None:
        os.close(self.fd)  # releases the lock


def _prepare_run_dir(cfg: RunConfig) -> str:
    run_dir = cfg.run_dir()
    os.makedirs(run_dir, exist_ok=True)
    return run_dir


def _write_json(path: str, payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True, separators=(",", ": "))
    with dataio.atomic_open(path) as fh:
        fh.write(text + "\n")


def _data_paths(cfg: RunConfig) -> tuple[str, str]:
    d = cfg.data
    if not d.interactions or not d.stores:
        raise UsageError("[data] interactions and stores must both be set for this command")
    return cfg.resolve(d.interactions), cfg.resolve(d.stores)


def _read_tsvs(cfg: RunConfig) -> list[tuple[str, bytes]]:
    """Both TSVs' paths and bytes."""
    out = []
    for path in _data_paths(cfg):
        with open(path, "rb") as fh:
            out.append((path, fh.read()))
    return out


def _data_fingerprint(cfg: RunConfig, tsvs: list[tuple[str, bytes]]) -> str:
    """SHA-256 over the digests of both TSVs' bytes and the ``[data]`` section."""
    h = hashlib.sha256()
    for _, raw in tsvs:
        h.update(hashlib.sha256(raw).digest())
    h.update(json.dumps(cfg.to_dict()["data"], sort_keys=True).encode("utf-8"))
    return h.hexdigest()


def _load_split(cfg: RunConfig) -> tuple[dataio.DatasetSplit, str]:
    """The split of the TSVs and their fingerprint, from one read of each
    file: the bytes hashed are the bytes parsed."""
    d = cfg.data
    tsvs = _read_tsvs(cfg)
    (inter_path, inter_raw), (stores_path, stores_raw) = tsvs
    log = dataio.parse_interactions(inter_path, d.tz_offset_minutes, inter_raw)
    log = log.with_catalog(dataio.parse_stores(stores_path, stores_raw))
    log = dataio.filter_users(log, d.min_orders)
    if not len(log):
        raise RuntimeError(f"no interactions left after the min_orders={d.min_orders} filter")
    split = dataio.split_global_timeline(
        log, test_window_s=cfg.test_window_s(), valid_window_s=cfg.valid_window_s()
    )
    return split, _data_fingerprint(cfg, tsvs)


def _load_data(cfg: RunConfig, run_dir: str) -> features.Dataset:
    """The data ``ingest`` wrote, which must still match the TSVs it read."""
    tsvs = " and ".join(_data_paths(cfg))
    path = os.path.join(run_dir, DATA_FILE)
    again = f"run `fdrec ingest --config {cfg.path}`"
    try:
        data = features.load(path)
    except (OSError, ValueError) as err:
        raise RuntimeError(f"cannot read the ingested data at {path}; {again}") from err
    if data.fingerprint != _data_fingerprint(cfg, _read_tsvs(cfg)):
        raise RuntimeError(f"{tsvs} no longer match the data in {path}; {again} again")
    return data


def _checkpoint_path(run_dir: str, model: str) -> str:
    return os.path.join(run_dir, f"{model}.ckpt")


def _load_checkpoint(cfg: RunConfig, model: str, data: features.Dataset) -> ModelState:
    """The ``model`` checkpoint, which must have been trained on ``data``: a
    model indexes its tables by the codes of that data's vocabularies.  It
    must also hold the parameters, by name and shape, that this version's
    ``<model>_build`` registers for ``cfg``."""
    path = _checkpoint_path(cfg.run_dir(), model)
    retrain = f"retrain with `fdrec train --model {model}`"
    if not os.path.isfile(path):
        raise RuntimeError(
            f"no {model} checkpoint at {path}; run `fdrec train --model {model}` first"
        )
    try:
        state = load_checkpoint(path)
    except (OSError, ValueError) as err:
        raise RuntimeError(f"cannot read the {model} checkpoint at {path}; {retrain}") from err
    want = {f: getattr(data.vocabs, f) for f in ("store_ids", "location_ids", "user_ids")
            if f in state.meta}
    want["data_fingerprint"] = data.fingerprint
    differ = [f for f, value in want.items() if state.meta.get(f) != value]
    if differ:
        raise RuntimeError(
            f"checkpoint {path} does not match this run's data: its "
            f"{' and '.join(differ)} differ; {retrain}"
        )
    built = getattr(MODULES[model], f"{model}_build")(data, cfg.model, cfg.train.seed).params
    have = state.params
    stale = ([f"missing {n}" for n in built if n not in have]
             + [f"extra {n}" for n in have if n not in built]
             + [f"{n} shaped {have[n].shape} where {built[n].shape} is built"
                for n in built if n in have and have[n].shape != built[n].shape])
    if stale:
        raise RuntimeError(
            f"checkpoint {path} does not hold the parameters this version builds "
            f"for {model}: {'; '.join(stale)}; {retrain}"
        )
    return state


# ---------------------------------------------------------------------------
# subcommands


def _cmd_ingest(args) -> int:
    cfg = load_config(args.config)
    split, fingerprint = _load_split(cfg)
    data = features.Dataset(split, fingerprint)
    data.neighbors(cfg.model.k_neighbors, split.valid_boundary)
    for protocol in evalharness.PROTOCOLS:
        data.cases(protocol, cfg.eval.seed, cfg.eval.max_cases)
    run_dir = _prepare_run_dir(cfg)
    with _RunDirLock(run_dir):
        data.save(os.path.join(run_dir, DATA_FILE))
        log = split.log
        manifest = {
            "config_hash": cfg.config_hash(),
            "interactions": len(log),
            "users": len(log.user_ids),
            "stores": len(log.store_ids),
            "locations": len(log.location_ids),
            "repeat_fraction": float(split.repeat_flags.mean()),
            "valid_boundary": split.valid_boundary,
            "test_boundary": split.test_boundary,
            "partitions": {p: len(getattr(split, f"{p}_idx"))
                           for p in ("train", "valid", "test")},
        }
        path = os.path.join(run_dir, "split.json")
        _write_json(path, manifest)
    print(path)
    return 0


def _cmd_synth(args) -> int:
    if args.config is not None:
        base = load_config(args.config)
        overrides = base.to_dict()
    else:
        overrides = {}
    synth_over = dict(overrides.get("synth", {}))
    if args.seed is not None:
        synth_over["seed"] = args.seed
    overrides["synth"] = synth_over
    overrides["data"] = dict(overrides.get("data", {}))
    overrides["data"]["interactions"] = "interactions.tsv"
    overrides["data"]["stores"] = "stores.tsv"

    os.makedirs(args.out, exist_ok=True)
    cfg_path = os.path.join(args.out, "cfg")
    write_config(cfg_path, overrides)
    cfg = load_config(cfg_path)

    log, catalog = dataio.generate_synthetic(cfg.synth)
    inter_path = os.path.join(args.out, "interactions.tsv")
    stores_path = os.path.join(args.out, "stores.tsv")
    dataio.write_interactions_tsv(log, inter_path)
    dataio.write_stores_tsv(catalog, stores_path)
    for path in (inter_path, stores_path, cfg_path):
        print(path)
    return 0


def _cmd_analyze(args) -> int:
    cfg = load_config(args.config)
    run_dir = _prepare_run_dir(cfg)
    with _RunDirLock(run_dir):
        log = _load_data(cfg, run_dir).split.log
        max_n = int(np.bincount(log.users).max())
        repeat_curve = analysis.repeat_ratio_by_order_index(log, max_n)
        explored_curve = analysis.explored_store_counts(log, max_n)
        cdf_users, cdf_stores = analysis.repeat_exploration_cdf(
            log, window_s=2 * SECONDS_PER_WEEK
        )
        his = analysis.historical_influence(log)
        col = analysis.collaborative_influence(log, k=cfg.model.k_neighbors)
        out_dir = os.path.join(run_dir, "analysis")
        paths = analysis.emit_analysis_report(
            out_dir, repeat_curve, explored_curve, cdf_users, cdf_stores, his, col
        )
    for path in paths:
        print(path)
    return 0


def _train_one(cfg: RunConfig, model: str, data: features.Dataset):
    # the ensemble trains against both base checkpoints, which must exist
    frozen = ([_load_checkpoint(cfg, m, data) for m in ("reprec", "exprec")]
              if model == "ensemble" else [])
    train = getattr(MODULES[model], f"{model}_train")
    return train(data, cfg.train, cfg.model, *frozen)


def _cmd_train(args) -> int:
    cfg = load_config(args.config)
    run_dir = _prepare_run_dir(cfg)
    with _RunDirLock(run_dir):
        data = _load_data(cfg, run_dir)
        state, result = _train_one(cfg, args.model, data)
        state.meta["data_fingerprint"] = data.fingerprint
        ckpt = _checkpoint_path(run_dir, args.model)
        save_checkpoint(state, ckpt)
        summary = {
            "config_hash": cfg.config_hash(),
            "model": args.model,
            "seed": cfg.train.seed,
            "parameters": state.param_count(),
        }
        if isinstance(result, dict):
            summary["stages"] = {k: v.to_dict() for k, v in result.items()}
        else:
            summary.update(result.to_dict())
        summary_path = os.path.join(run_dir, f"{args.model}.train.json")
        _write_json(summary_path, summary)
    print(ckpt)
    print(summary_path)
    return 0


def _make_scorer(cfg: RunConfig, model: str, data: features.Dataset):
    """Returns (cases -> [N, C] scores, parameter count) for an evaluable model."""
    if model == "hispop":
        return (lambda cases: baselines.hispop_scores(data, cases)), 0
    if model not in ("ensemble", "concat"):
        state = _load_checkpoint(cfg, model, data)
        query = getattr(MODULES[model], f"{model}_query")
        return ((lambda cases: evalharness.dot_scores(state, data, cases, query)),
                state.param_count())
    rep = _load_checkpoint(cfg, "reprec", data)
    exp = _load_checkpoint(cfg, "exprec", data)
    params = rep.param_count() + exp.param_count()
    if model == "concat":
        return (lambda cases: ensemble.concat_scores(rep, exp, data, cases)), params
    ens = _load_checkpoint(cfg, "ensemble", data)
    return ((lambda cases: ensemble.ensemble_scores(ens, rep, exp, data, cases)),
            ens.param_count() + params)


def _cmd_eval(args) -> int:
    compatible = COMPATIBLE[args.model]
    if args.protocol == "all":
        protocols = compatible
    elif args.protocol in compatible:
        protocols = (args.protocol,)
    else:
        raise UsageError(
            f"model {args.model!r} does not support the {args.protocol!r} "
            f"protocol; supported: {', '.join(compatible)}"
        )
    cfg = load_config(args.config)
    run_dir = _prepare_run_dir(cfg)
    lines = []
    with _RunDirLock(run_dir):
        data = _load_data(cfg, run_dir)
        scorer, params = _make_scorer(cfg, args.model, data)
        for protocol in protocols:
            cases = data.cases(protocol, cfg.eval.seed, cfg.eval.max_cases)
            report = evalharness.evaluate(
                scorer, cases, k=cfg.eval.k, model_id=args.model,
                seed=cfg.eval.seed, param_count=params,
            )
            path = os.path.join(run_dir, f"eval.{args.model}.{protocol}.json")
            _write_json(path, report.to_dict())
            stats = report.protocols[protocol]
            k = cfg.eval.k
            lines.append(
                f"{args.model} {protocol} hr@{k}={stats[f'hr@{k}']:.6f} "
                f"ndcg@{k}={stats[f'ndcg@{k}']:.6f} n={stats['n']} -> {path}"
            )
    for line in lines:
        print(line)
    return 0


def _cmd_report(args) -> int:
    cfg = load_config(args.config)
    run_dir = cfg.run_dir()
    if not os.path.isdir(run_dir):
        raise RuntimeError(f"run directory {run_dir} does not exist; nothing to report")
    with _RunDirLock(run_dir):
        names = sorted(
            n for n in os.listdir(run_dir)
            if n.startswith("eval.") and n.endswith(".json")
        )
        if not names:
            raise RuntimeError(
                f"no evaluation reports in {run_dir}; run `fdrec eval` first"
            )
        rows = []
        for name in names:
            with open(os.path.join(run_dir, name), "r", encoding="utf-8") as fh:
                payload = json.load(fh)
            k = payload["k"]
            for protocol, stats in sorted(payload["protocols"].items()):
                rows.append((
                    payload["model"], protocol, k,
                    stats[f"hr@{k}"], stats[f"ndcg@{k}"], stats["n"],
                    payload["parameters"],
                ))
        rows.sort(key=lambda r: (r[0], r[1]))
        summary_path = os.path.join(run_dir, "summary.csv")
        with dataio.atomic_open(summary_path) as fh:
            fh.write("model,protocol,k,hr,ndcg,n,parameters\n")
            for model, protocol, k, hr, ndcg, n, params in rows:
                fh.write(f"{model},{protocol},{k},{hr!r},{ndcg!r},{n},{params}\n")

    header = ("model", "protocol", "k", "hr", "ndcg", "n", "parameters")
    table = [header] + [
        (m, p, str(k), f"{hr:.4f}", f"{ndcg:.4f}", str(n), str(params))
        for m, p, k, hr, ndcg, n, params in rows
    ]
    widths = [max(len(row[i]) for row in table) for i in range(len(header))]
    for row in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    print(summary_path)
    return 0


# ---------------------------------------------------------------------------
# parser and entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdrec",
        description="Situation-aware food-delivery recommendation toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse, filter and split the dataset once")
    p.add_argument("--config", required=True, help="run configuration file")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="generator seed")
    p.add_argument("--config", default=None,
                   help="optional base configuration to copy settings from")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("analyze", help="write dataset-analysis CSVs")
    p.add_argument("--config", required=True, help="run configuration file")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("train", help="train a model and save its checkpoint")
    p.add_argument("--config", required=True, help="run configuration file")
    p.add_argument("--model", required=True, choices=TRAINABLE)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a trained model")
    p.add_argument("--config", required=True, help="run configuration file")
    p.add_argument("--model", required=True, choices=EVALUABLE)
    p.add_argument("--protocol", required=True,
                   choices=("repeat", "exploration", "combined", "all"))
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("report", help="aggregate existing evaluation reports")
    p.add_argument("--config", required=True, help="run configuration file")
    p.set_defaults(func=_cmd_report)

    return parser


def _print_cause_chain(err: BaseException) -> None:
    print(f"error: {err}", file=sys.stderr)
    seen = {id(err)}
    cause = err.__cause__
    while cause is not None and id(cause) not in seen:
        seen.add(id(cause))
        print(f"  caused by: {type(cause).__name__}: {cause}", file=sys.stderr)
        cause = cause.__cause__


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, ConfigError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130
    except Exception as err:  # runtime failure: report the cause chain
        _print_cause_chain(err)
        return 1


if __name__ == "__main__":
    sys.exit(main())
