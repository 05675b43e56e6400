"""Command-line entry point: ingest, synth, analyze, train, eval, report.

Conventions shared by every subcommand:

* ``--config`` names an INI run configuration (see :mod:`fdrec.config`);
  relative paths inside it resolve against the file's own directory.
* Artifacts land in a run directory named ``<config-hash>-s<train-seed>``
  under ``[data] out``, so different configurations never collide and
  rerunning the same one reproduces byte-identical files.
* A ``.lock`` file guards the run directory against concurrent commands.
* ``ingest`` parses and splits the TSVs into ``data.bin``, with the neighbour
  table and a fingerprint of the TSVs and ``[data]``.  Later stages load it as
  the :class:`fdrec.features.Dataset` every model reads, and fail, saying to
  run ``ingest`` again, if it is missing or damaged or the TSVs have changed.
* A checkpoint must match the data's fingerprint, which it records, and its
  vocabularies, or the stage fails and says to retrain.
* Exit codes: 0 success, 2 usage or configuration error (message on
  stderr), 1 runtime failure (full cause chain on stderr).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
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


def _exited_here(owner: list[str]) -> bool:
    """Whether a lock's ``[pid, host]`` names an exited process of this host.
    Only POSIX can probe a pid: elsewhere ``os.kill`` would end the process."""
    if (os.name != "posix" or len(owner) != 2 or not owner[0].isdigit()
            or owner[1] != platform.node()):
        return False
    try:
        os.kill(int(owner[0]), 0)
    except ProcessLookupError:
        return True
    except PermissionError:  # alive, but not ours to signal
        pass
    return False


class _RunDirLock:
    """Exclusive lock on a run directory via an O_EXCL-created file holding
    ``pid host``; a lock whose owner on this host has exited is taken over,
    and one that vanishes before it can be read is free."""

    def __init__(self, run_dir: str):
        self.run_dir = run_dir
        self.path = os.path.join(run_dir, ".lock")
        self.fd: int | None = None

    def _unlink_if_owned_by(self, owner: list[str]) -> None:
        """Remove the lock file if it still names ``owner``.  An flock on the
        run directory serializes takeovers, so of two commands that found the
        same stale lock only one removes it, and a lock that a live command
        took in the meantime stays.  POSIX only, like the takeover itself."""
        import fcntl

        dir_fd = os.open(self.run_dir, os.O_RDONLY)
        try:
            fcntl.flock(dir_fd, fcntl.LOCK_EX)
            try:
                with open(self.path, encoding="utf-8") as fh:
                    same = fh.read().split() == owner
            except FileNotFoundError:
                same = False
            if same:
                os.unlink(self.path)
        finally:
            os.close(dir_fd)  # releases the flock

    def __enter__(self) -> "_RunDirLock":
        for retry in (False, True):
            try:
                self.fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                break
            except FileExistsError:
                try:
                    with open(self.path, encoding="utf-8") as fh:
                        owner = fh.read().split()
                except FileNotFoundError:  # the holder let go in between
                    continue
                if retry or not _exited_here(owner):
                    who = " on host ".join(owner) or "?"
                    raise RuntimeError(
                        f"run directory is locked by pid {who} ({self.path} exists); "
                        f"another command may be running against it — remove the "
                        f"file if it is stale"
                    ) from None
                self._unlink_if_owned_by(owner)
        else:
            raise RuntimeError(f"run directory lock {self.path} keeps changing hands")
        os.write(self.fd, f"{os.getpid()} {platform.node()}\n".encode())
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


def _load_checkpoint(run_dir: str, model: str, data: features.Dataset) -> ModelState:
    """The ``model`` checkpoint, which must have been trained on ``data``: a
    model indexes its tables by the codes of that data's vocabularies."""
    path = _checkpoint_path(run_dir, model)
    if not os.path.isfile(path):
        raise RuntimeError(
            f"no {model} checkpoint at {path}; run `fdrec train --model {model}` first"
        )
    try:
        state = load_checkpoint(path)
    except (OSError, ValueError) as err:
        raise RuntimeError(f"cannot read the {model} checkpoint at {path}; "
                           f"retrain with `fdrec train --model {model}`") from err
    want = {f: getattr(data.vocabs, f) for f in ("store_ids", "location_ids", "user_ids")
            if f in state.meta}
    want["data_fingerprint"] = data.fingerprint
    differ = [f for f, value in want.items() if state.meta.get(f) != value]
    if differ:
        raise RuntimeError(
            f"checkpoint {path} does not match this run's data: its "
            f"{' and '.join(differ)} differ; retrain with `fdrec train --model {model}`"
        )
    return state


# ---------------------------------------------------------------------------
# subcommands


def _cmd_ingest(args) -> int:
    cfg = load_config(args.config)
    split, fingerprint = _load_split(cfg)
    data = features.Dataset(split, fingerprint)
    data.neighbors(cfg.model.k_neighbors, split.valid_boundary)
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


def _train_one(cfg: RunConfig, run_dir: str, model: str, data: features.Dataset):
    # the ensemble trains against both base checkpoints, which must exist
    frozen = ([_load_checkpoint(run_dir, m, data) for m in ("reprec", "exprec")]
              if model == "ensemble" else [])
    train = getattr(MODULES[model], f"{model}_train")
    return train(data, cfg.train, cfg.model, *frozen)


def _cmd_train(args) -> int:
    cfg = load_config(args.config)
    run_dir = _prepare_run_dir(cfg)
    with _RunDirLock(run_dir):
        data = _load_data(cfg, run_dir)
        state, result = _train_one(cfg, run_dir, args.model, data)
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


def _make_scorer(run_dir: str, model: str, data: features.Dataset):
    """Returns (cases -> [N, C] scores, parameter count) for an evaluable model."""
    if model == "hispop":
        return (lambda cases: baselines.hispop_scores(data, cases)), 0
    if model != "ensemble":
        state = _load_checkpoint(run_dir, model, data)
        query = getattr(MODULES[model], f"{model}_query")
        return ((lambda cases: evalharness.dot_scores(state, data, cases, query)),
                state.param_count())
    ens = _load_checkpoint(run_dir, "ensemble", data)
    rep = _load_checkpoint(run_dir, "reprec", data)
    exp = _load_checkpoint(run_dir, "exprec", data)
    params = ens.param_count() + rep.param_count() + exp.param_count()
    return (lambda cases: ensemble.ensemble_scores(ens, rep, exp, data, cases)), params


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
        scorer, params = _make_scorer(run_dir, args.model, data)
        for protocol in protocols:
            cases = evalharness.build_cases(
                data.split, protocol, seed=cfg.eval.seed,
                max_cases=cfg.eval.max_cases, seqs=data.seqs, vocabs=data.vocabs,
            )
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
