"""Command-line entry point: ingest, synth, analyze, train, eval, report.

Conventions shared by every subcommand:

* ``--config`` names an INI run configuration (see :mod:`fdrec.config`);
  relative paths inside it resolve against the file's own directory.
* Artifacts land in a run directory named ``<config-hash>-s<train-seed>``
  under ``[data] out``, so different configurations never collide and
  rerunning the same one reproduces byte-identical files.
* A ``.lock`` file guards the run directory against concurrent commands.
* Exit codes: 0 success, 2 usage or configuration error (message on
  stderr), 1 runtime failure (full cause chain on stderr).
* ``FDREC_THREADS`` caps worker parallelism; the numeric engine is
  single-threaded, so the value is only validated: it must be a positive
  integer.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import analysis, baselines, dataio, ensemble, evalharness, exprec
from . import features, reprec
from .config import ConfigError, RunConfig, load_config, write_config
from .dataio import SECONDS_PER_WEEK
from .diffcore import ModelState

__all__ = ["main"]

TRAINABLE = ("sonly", "reprec", "exprec", "ensemble")
EVALUABLE = ("hispop",) + TRAINABLE

# Which protocols each model can answer for.  HisPop and RepRec only rank
# previously-visited stores; ExpRec only ranks unvisited ones; the ensemble
# needs both kinds in one slate; SOnly scores any store.
COMPATIBLE = {
    "hispop": ("repeat",),
    "reprec": ("repeat",),
    "sonly": ("repeat", "exploration", "combined"),
    "exprec": ("exploration",),
    "ensemble": ("combined",),
}


class UsageError(Exception):
    """Bad invocation or configuration: exit code 2."""


def _check_threads_env() -> None:
    raw = os.environ.get("FDREC_THREADS")
    if raw is None:
        return
    try:
        n = int(raw)
    except ValueError:
        raise UsageError(f"FDREC_THREADS must be an integer, got {raw!r}") from None
    if n < 1:
        raise UsageError(f"FDREC_THREADS must be >= 1, got {n}")


class _RunDirLock:
    """Exclusive lock on a run directory via an O_EXCL-created file."""

    def __init__(self, run_dir: str):
        self.path = os.path.join(run_dir, ".lock")
        self.fd: int | None = None

    def __enter__(self) -> "_RunDirLock":
        try:
            self.fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise RuntimeError(
                f"run directory is locked ({self.path} exists); another command "
                f"may be running against it — remove the file if it is stale"
            ) from None
        os.write(self.fd, f"{os.getpid()}\n".encode("ascii"))
        return self

    def __exit__(self, *exc) -> None:
        if self.fd is not None:
            os.close(self.fd)
            os.unlink(self.path)


def _prepare_run_dir(cfg: RunConfig) -> str:
    run_dir = cfg.run_dir()
    os.makedirs(run_dir, exist_ok=True)
    return run_dir


def _write_json(path: str, payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True, separators=(",", ": "))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text + "\n")


def _load_split(cfg: RunConfig) -> dataio.DatasetSplit:
    d = cfg.data
    if not d.interactions or not d.stores:
        raise UsageError(
            "[data] interactions and stores must both be set for this command"
        )
    log = dataio.parse_interactions(
        cfg.resolve(d.interactions), tz_offset_minutes=d.tz_offset_minutes
    )
    catalog = dataio.parse_stores(cfg.resolve(d.stores))
    log = log.with_catalog(catalog)
    log = dataio.filter_users(log, d.min_orders)
    if not len(log):
        raise RuntimeError(
            f"no interactions left after the min_orders={d.min_orders} filter"
        )
    return dataio.split_global_timeline(
        log, test_window_s=cfg.test_window_s(), valid_window_s=cfg.valid_window_s()
    )


def _checkpoint_path(run_dir: str, model: str) -> str:
    return os.path.join(run_dir, f"{model}.ckpt")


def _load_checkpoint(run_dir: str, model: str) -> ModelState:
    path = _checkpoint_path(run_dir, model)
    if not os.path.isfile(path):
        raise RuntimeError(
            f"no {model} checkpoint at {path}; run `fdrec train --model {model}` first"
        )
    return ModelState.load(path)


# ---------------------------------------------------------------------------
# subcommands


def _cmd_ingest(args) -> int:
    cfg = load_config(args.config)
    split = _load_split(cfg)
    run_dir = _prepare_run_dir(cfg)
    with _RunDirLock(run_dir):
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
            "partitions": {
                "train": len(split.train_idx),
                "valid": len(split.valid_idx),
                "test": len(split.test_idx),
            },
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

    log, catalog = dataio.generate_synthetic(cfg.synth_config(), seed=cfg.synth.seed)
    inter_path = os.path.join(args.out, "interactions.tsv")
    stores_path = os.path.join(args.out, "stores.tsv")
    dataio.write_interactions_tsv(log, inter_path)
    dataio.write_stores_tsv(catalog, stores_path)
    for path in (inter_path, stores_path, cfg_path):
        print(path)
    return 0


def _cmd_analyze(args) -> int:
    cfg = load_config(args.config)
    split = _load_split(cfg)
    log = split.log
    run_dir = _prepare_run_dir(cfg)
    with _RunDirLock(run_dir):
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


def _train_one(cfg: RunConfig, run_dir: str, model: str):
    split = _load_split(cfg)
    settings = cfg.train_settings()
    m, t = cfg.model, cfg.train
    if model == "sonly":
        return baselines.sonly_train(
            split, settings, dim=m.dim, val_max_cases=t.val_max_cases
        )
    if model == "reprec":
        return reprec.reprec_train(
            split, settings, dim=m.dim, window=m.repeat_window,
            val_max_cases=t.val_max_cases,
        )
    if model == "exprec":
        return exprec.exprec_train(
            split, settings, dim=m.dim, window=m.history_window,
            k_neighbors=m.k_neighbors, val_max_cases=t.val_max_cases,
            ablation_mask=cfg.ablation_mask(),
        )
    # ensemble: both base checkpoints must exist already
    rep = _load_checkpoint(run_dir, "reprec")
    exp = _load_checkpoint(run_dir, "exprec")
    return ensemble.ensemble_train(
        split, rep, exp, settings, dim=m.dim, attn_dim=m.attn_dim,
        window=m.history_window, budget=m.budget, lam=m.intent_weight,
        max_instances=t.max_instances, val_max_cases=t.val_max_cases,
    )


def _cmd_train(args) -> int:
    cfg = load_config(args.config)
    run_dir = _prepare_run_dir(cfg)
    with _RunDirLock(run_dir):
        state, result = _train_one(cfg, run_dir, args.model)
        ckpt = _checkpoint_path(run_dir, args.model)
        state.save(ckpt)
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


def _make_scorer(run_dir: str, model: str, split, seqs, vocabs):
    """Returns (cases -> scorer, parameter count) for an evaluable model.

    ExpRec scores with the ablation mask recorded in its checkpoint.
    """
    if model == "hispop":
        return (lambda cases: baselines.hispop_scorer(split, seqs, vocabs)), 0
    if model in ("sonly", "reprec", "exprec"):
        state = _load_checkpoint(run_dir, model)
        factory = {"sonly": baselines.sonly_scorer, "reprec": reprec.reprec_scorer,
                   "exprec": exprec.exprec_scorer}[model]
        return (lambda cases: factory(state, split, cases, seqs, vocabs),
                state.param_count())
    ens = _load_checkpoint(run_dir, "ensemble")
    rep = _load_checkpoint(run_dir, "reprec")
    exp = _load_checkpoint(run_dir, "exprec")
    params = ens.param_count() + rep.param_count() + exp.param_count()
    return (lambda cases: ensemble.ensemble_scorer(ens, rep, exp, split, cases,
                                                   seqs, vocabs)), params


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
        split = _load_split(cfg)
        vocabs = features.build_vocabs(split)
        seqs = features.build_sequences(split, vocabs)
        scorer_for, params = _make_scorer(run_dir, args.model, split, seqs, vocabs)
        for protocol in protocols:
            cases = evalharness.build_cases(
                split, protocol, seed=cfg.eval.seed,
                max_cases=cfg.eval.max_cases, seqs=seqs, vocabs=vocabs,
            )
            report = evalharness.evaluate(
                scorer_for(cases), cases, k=cfg.eval.k, model_id=args.model,
                seed=cfg.eval.seed, param_count=params,
            )
            path = os.path.join(run_dir, f"eval.{args.model}.{protocol}.json")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(report.to_json() + "\n")
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
    with _RunDirLock(run_dir):
        with open(summary_path, "w", encoding="utf-8", newline="") as fh:
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

    p = sub.add_parser("ingest", help="parse, filter, and split the dataset")
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
        _check_threads_env()
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
