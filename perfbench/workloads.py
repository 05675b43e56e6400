"""Workload definitions and metric names for the pipeline benchmark.

A workload is a set of ``[synth]``/``[model]``/``[train]``/``[eval]``
overrides plus two lists of ``fdrec`` CLI stages: ``setup`` (untimed for
``wall_s``; its total is ``setup_s``) and ``timed`` (repeated in rounds; its
total is ``wall_s``).  Every workload runs every stage kind once per pass, so
every end-to-end metric exists on every workload; a stage's own metric comes
from whichever phase runs it.  Stage arguments use ``{base}``, ``{data}`` and
``{cfg}`` placeholders that the worker fills in.  The synth seed is the
benchmark's ``--seed``.  ``patience >= max_epochs`` pins the epoch count.
"""

from __future__ import annotations

def label(argv: list[str]) -> str:
    """Stage label: 'analyze', 'train.exprec', 'eval.sonly.all', ..."""
    parts = [argv[0]]
    for flag in ("--model", "--protocol"):
        if flag in argv:
            parts.append(argv[argv.index(flag) + 1])
    return ".".join(parts)


SYNTH = [["synth", "--out", "{data}", "--config", "{base}"]]
INGEST = [["ingest", "--config", "{cfg}"]]
ANALYZE = [["analyze", "--config", "{cfg}"]]
REPORT = [["report", "--config", "{cfg}"]]


def train(*models: str) -> list[list[str]]:
    return [["train", "--config", "{cfg}", "--model", m] for m in models]


EVALS = [
    ["eval", "--config", "{cfg}", "--model", model, "--protocol", protocol]
    for model, protocol in (
        ("hispop", "repeat"), ("sonly", "all"), ("reprec", "repeat"),
        ("exprec", "exploration"), ("ensemble", "combined"),
    )
]
TRAIN_ALL = train("sonly", "reprec", "exprec", "ensemble")

COUPLED = {"situation_coupling": 0.6, "collab_coupling": 0.6}

WORKLOADS: dict[str, dict] = {
    "paper": {
        "why": "the default paper-shaped run end to end: every layer works, "
               "slates have <=200 candidates so per-case Python overhead "
               "dominates scoring",
        "overrides": {
            "synth": {"n_users": 220, **COUPLED},
            "model": {"dim": 64},
            "train": {"max_epochs": 2, "patience": 2, "max_instances": 800,
                      "val_max_cases": 100},
            "eval": {"max_cases": 150},
        },
        "setup": SYNTH + INGEST,
        "timed": ANALYZE + TRAIN_ALL + EVALS + REPORT,
    },
    "long-history": {
        "why": "60 orders per user fill every GRU and RepRec window: autograd "
               "forward/backward dominates training, evaluation is small",
        "overrides": {
            "synth": {"n_users": 50, "n_orders_per_user": 60,
                      "span_days": 56, **COUPLED},
            "model": {"dim": 64},
            "train": {"max_epochs": 2, "patience": 2, "max_instances": 600,
                      "val_max_cases": 30},
            "eval": {"max_cases": 40},
        },
        "setup": SYNTH + INGEST,
        "timed": ANALYZE + TRAIN_ALL + EVALS + REPORT,
    },
    "wide-catalog": {
        "why": "1200 stores fill exploration and combined slates to 1000 "
               "candidates: O(C^2) ensemble attention dominates; training "
               "happens in set-up",
        "overrides": {
            "synth": {"n_users": 400, "n_stores": 1200, "n_orders_per_user": 12,
                      **COUPLED},
            "model": {"dim": 32},
            "train": {"max_epochs": 1, "patience": 1, "max_instances": 300,
                      "val_max_cases": 30},
            "eval": {"max_cases": 200},
        },
        "setup": SYNTH + INGEST + ANALYZE + TRAIN_ALL,
        "timed": EVALS + REPORT,
    },
}

# End-to-end metrics: (name, unit, better).  Stage groups are matched on the
# stage label ("train.exprec", "eval.sonly.all", ...).
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("analyze_s", "s", "lower"),
    ("train_s", "s", "lower"),
    ("train_reprec_s", "s", "lower"),
    ("train_exprec_s", "s", "lower"),
    ("train_ensemble_s", "s", "lower"),
    ("eval_s", "s", "lower"),
    ("eval_cases_per_s", "1/s", "higher"),
    ("peak_rss_mb", "MB", "lower"),
]

STAGE_GROUPS = {
    "analyze_s": ("analyze",),
    "train_s": ("train.",),
    "train_reprec_s": ("train.reprec",),
    "train_exprec_s": ("train.exprec",),
    "train_ensemble_s": ("train.ensemble",),
    "eval_s": ("eval.",),
}
