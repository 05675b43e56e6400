"""Run the whole claims pipeline of a config file at one synth seed.

Usage::

    python3 scripts/run_claims.py --config configs/claims.cfg --seed 1 --out claims-s1

Runs, in one process, the sequence that ``configs/claims.cfg``'s header
lists: ``fdrec synth`` into ``--out``, ``ingest``, ``analyze``, ``train`` of
sonly, reprec, exprec and ensemble in that order, ``eval --protocol all`` of
every evaluable model (``concat`` included), then ``report``.  Stops at the first
stage that fails, with its exit code.  The last line printed is the run
directory, which ``scripts/compare_runs.py`` compares with another run's.
``fdrec`` is imported from this checkout's ``src/``.
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from fdrec import cli  # noqa: E402
from fdrec.config import load_config  # noqa: E402


def stages(config: str, seed: int, out: str) -> list[list[str]]:
    """The ``fdrec`` command lines of the claims pipeline, in order."""
    cfg = os.path.join(out, "cfg")
    return ([["synth", "--out", out, "--config", config, "--seed", str(seed)],
             ["ingest", "--config", cfg],
             ["analyze", "--config", cfg]]
            + [["train", "--config", cfg, "--model", m] for m in cli.TRAINABLE]
            + [["eval", "--config", cfg, "--model", m, "--protocol", "all"]
               for m in cli.EVALUABLE]
            + [["report", "--config", cfg]])


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--config", required=True, help="config file, e.g. configs/claims.cfg")
    p.add_argument("--seed", type=int, required=True, help="synth seed")
    p.add_argument("--out", required=True, help="directory for the data, config and runs")
    args = p.parse_args(argv)
    for argv_ in stages(args.config, args.seed, args.out):
        code = cli.main(argv_)
        if code != 0:
            print(f"error: `fdrec {' '.join(argv_)}` exited {code}", file=sys.stderr)
            return code
    print(load_config(os.path.join(args.out, "cfg")).run_dir())
    return 0


if __name__ == "__main__":
    sys.exit(main())
