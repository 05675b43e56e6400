"""Summarize a series of perfbench runs into one committed JSON file, or
compare two such files.

Usage::

    python3 scripts/bench_series.py --out BENCH_<n>.<side>.json RESULT.json...
    python3 scripts/bench_series.py --against BENCH_<n>.parent.json BENCH_<n>.change.json

Each ``RESULT.json`` is the ``result.json`` a ``perfbench/run.py`` run leaves
in ``.perfbench/<workload>-s<seed>-t<trace>/``; copy it away after each run,
since the next run of the same workload overwrites it.  The output lists,
for each run in the order given, its metrics, ``correct``, ``failed``, the
environment block and the commit; and, for each metric, the median and the
quartiles over the runs (``statistics.quantiles``, inclusive method).

``--against PARENT.json`` compares a change series file with a parent one
and writes nothing.  For each metric found on both sides it prints the
parent median, the change median, their relative change, the parent's
interquartile range and the change's wins over the pairs in run order, as
in ``-37.1 %  9/10``: run i of the change against run i of the parent, ties
counting for neither.  Whether lower or higher is better comes from
``BENCHMARK.json`` beside this script's directory; a metric it does not
name counts lower as better.  Series of different lengths are refused with
exit code 2.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

BENCHMARK = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "BENCHMARK.json")


def summarize(records: list[dict]) -> dict:
    """The series file's content for the given ``result.json`` records."""
    runs, values, units = [], {}, {}
    for record in records:
        line = record["line"]
        metrics = {name: m["value"] for name, m in line["metrics"].items()}
        for name, m in line["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        env = record.get("environment") or {}
        runs.append({
            "commit": env.get("git_commit"),
            "correct": line["correct"],
            "failed": line["failed"],
            "environment": env,
            "metrics": metrics,
        })
    summary = {}
    for name, xs in values.items():
        q1, median, q3 = (statistics.quantiles(xs, n=4, method="inclusive")
                          if len(xs) > 1 else (xs[0],) * 3)
        summary[name] = {"unit": units[name], "n": len(xs),
                         "median": median, "q1": q1, "q3": q3}
    return {"runs": runs, "metrics": summary}


def higher_is_better() -> set[str]:
    """The metrics that ``BENCHMARK.json`` marks ``"better": "higher"``."""
    if not os.path.exists(BENCHMARK):
        return set()
    bench = _load(BENCHMARK)
    return {m["name"] for key in ("end_to_end", "per_layer") for m in bench.get(key, [])
            if m.get("better") == "higher"}


def compare(parent: dict, change: dict, higher: set[str]) -> list[str]:
    """One table line per metric of both series; ``ValueError`` when the
    series hold different numbers of runs."""
    n = len(parent["runs"])
    if len(change["runs"]) != n:
        raise ValueError(f"the parent series has {n} runs and the change series "
                         f"{len(change['runs'])}; pairs need equal lengths")
    rows = [("metric", "parent", "change", "relative", "parent IQR", "wins")]
    for name in sorted(parent["metrics"].keys() & change["metrics"].keys()):
        p, c = parent["metrics"][name], change["metrics"][name]
        rel = (c["median"] - p["median"]) / p["median"] if p["median"] else float("nan")
        sign = 1.0 if name in higher else -1.0
        wins = sum(sign * (rc["metrics"][name] - rp["metrics"][name]) > 0
                   for rp, rc in zip(parent["runs"], change["runs"]))
        rows.append((name, f"{p['median']:.4g}", f"{c['median']:.4g}",
                     f"{100 * rel:+.1f} %".replace("-", "\u2212"),
                     f"{p['q3'] - p['q1']:.4g}", f"{wins}/{n}"))
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return ["  ".join(cell.ljust(w) if i == 0 else cell.rjust(w)
                      for i, (cell, w) in enumerate(zip(row, widths)))
            for row in rows]


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", help="series file to write")
    mode.add_argument("--against", metavar="PARENT.json",
                      help="parent series file to compare one change series file with")
    p.add_argument("results", nargs="+",
                   help="perfbench result.json files in run order, or with --against "
                        "the change series file")
    args = p.parse_args(argv)
    records = [_load(path) for path in args.results]
    if args.against is not None:
        if len(records) != 1 or "runs" not in records[0]:
            p.error("--against takes one change series file")
        try:
            lines = compare(_load(args.against), records[0], higher_is_better())
        except ValueError as err:
            print(f"error: {err}", file=sys.stderr)
            return 2
        print("\n".join(lines))
        return 0
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summarize(records), fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
