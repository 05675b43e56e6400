"""Summarize a series of perfbench runs into one committed JSON file.

Usage::

    python3 scripts/bench_series.py --out BENCH_<n>.<side>.json RESULT.json...

Each ``RESULT.json`` is the ``result.json`` a ``perfbench/run.py`` run leaves
in ``.perfbench/<workload>-s<seed>-t<trace>/``; copy it away after each run,
since the next run of the same workload overwrites it.  The output lists,
for each run in the order given, its metrics, ``correct``, ``failed``, the
environment block and the commit; and, for each metric, the median and the
quartiles over the runs (``statistics.quantiles``, inclusive method).
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys


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


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--out", required=True, help="series file to write")
    p.add_argument("results", nargs="+", help="perfbench result.json files, in run order")
    args = p.parse_args(argv)
    records = []
    for path in args.results:
        with open(path, encoding="utf-8") as fh:
            records.append(json.load(fh))
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summarize(records), fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
