"""Compare two fdrec run directories file by file.

Usage::

    python3 scripts/compare_runs.py RUN_A RUN_B

Prints one line per file found under either directory, in sorted order,
but for the ``.lock`` that every command leaves behind: its path relative
to the run directory and ``identical``, ``differs`` or ``only in`` the
directory that holds it.  A ``*.ckpt`` that differs also shows its largest
relative parameter difference: over every tensor, the largest ``|a - b|``
divided by the largest ``|a|`` of that tensor, and the tensor's name; or,
when the two hold different parameters, the names found on one side only.
A ``data.bin`` that differs also names the header keys and the tensors found
on one side only, and those whose values, dtypes or shapes differ, as in
``header keys only in the second run: cases; tensors only in the second
run: cases.0.cand, cases.0.rows``.  A ``*.train.json`` that differs also
shows the dotted keys whose values differ, each numeric one with its largest
relative difference ``|a - b| / max(|a|, |b|)``, lists compared element by
element, as in ``stages.intent.history max rel 2.0e-16``; an
``eval.*.json`` shows each such key with both values, as in
``protocols.combined.hr@3 0.4038 -> 0.4075``.

Exits 1 when an ``eval.*.json`` differs or a file exists on one side only,
and 0 otherwise, so checkpoints and training logs may differ while every
evaluation stays byte-identical.  Uses the standard library, numpy and
``fdrec`` (imported from this checkout's ``src/``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from fdrec import dataio, diffcore, features  # noqa: E402


def files_under(root: str) -> set[str]:
    """Every file below ``root`` but ``.lock``, as a path relative to it."""
    out = set()
    for dirpath, _, names in os.walk(root):
        for name in names:
            if name != ".lock":
                out.add(os.path.relpath(os.path.join(dirpath, name), root))
    return out


def one_sided(a: dict, b: dict) -> list[str]:
    """The keys of ``a`` or of ``b`` alone, as ``only in the first run: ...``."""
    return [f"only in the {side} run: {', '.join(sorted(names))}"
            for side, names in (("first", a.keys() - b.keys()),
                                ("second", b.keys() - a.keys())) if names]


def checkpoint_difference(path_a: str, path_b: str) -> str:
    """The largest relative parameter difference of two checkpoints."""
    a = diffcore.load_checkpoint(path_a).params
    b = diffcore.load_checkpoint(path_b).params
    if sides := one_sided(a, b):
        return "parameters " + "; ".join(sides)
    if any(a[n].shape != b[n].shape for n in a):
        return "parameters differ in shape"
    worst, where = 0.0, "-"
    for name in sorted(a):
        x, y = a[name].values, b[name].values
        scale = np.abs(x).max(initial=0.0)
        rel = np.abs(x - y).max(initial=0.0) / scale if scale else float(np.any(x != y))
        if rel > worst:
            worst, where = rel, name
    return f"max relative parameter difference {worst:.3g} ({where})"


def data_difference(path_a: str, path_b: str) -> str:
    """The header keys and tensors in which two ``data.bin`` files differ."""
    (ha, ta), (hb, tb) = (dataio.read_tensors(p, features.DATA_MAGIC)
                          for p in (path_a, path_b))
    del ha["tensors"], hb["tensors"]  # the tensors' layout, compared below
    parts = []
    for what, a, b, same in (
            ("header keys", ha, hb, lambda x, y: x == y),
            ("tensors", ta, tb, lambda x, y: x.dtype == y.dtype and np.array_equal(x, y))):
        lines = one_sided(a, b)
        differ = sorted(n for n in a.keys() & b.keys() if not same(a[n], b[n]))
        if differ:
            lines.append(f"differ: {', '.join(differ)}")
        parts += [f"{what} {line}" for line in lines]
    return "; ".join(parts)


def _flatten(value, prefix: str = "") -> dict:
    if not isinstance(value, dict):
        return {prefix: value}
    out = {}
    for key, item in value.items():
        out.update(_flatten(item, f"{prefix}.{key}" if prefix else key))
    return out


MISSING = object()


def json_differences(path_a: str, path_b: str) -> list[tuple[str, object, object]]:
    """``(dotted key, value in a, value in b)`` for every key of two JSON
    files whose values differ; a key found once has ``MISSING`` on the
    other side."""
    with open(path_a, encoding="utf-8") as fa, open(path_b, encoding="utf-8") as fb:
        a, b = _flatten(json.load(fa)), _flatten(json.load(fb))
    return [(k, a.get(k, MISSING), b.get(k, MISSING)) for k in sorted(a.keys() | b.keys())
            if a.get(k, MISSING) != b.get(k, MISSING)]


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _max_relative(x, y) -> float | None:
    """The largest relative difference of two numbers, or of two equally
    long lists of numbers element by element; None for anything else."""
    xs, ys = (x, y) if isinstance(x, list) and isinstance(y, list) else ([x], [y])
    if len(xs) != len(ys) or not all(map(_is_number, xs + ys)):
        return None
    return max((abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0
                for a, b in zip(xs, ys)), default=0.0)


def _shown(x, y) -> str:
    """``x -> y``, floats to four decimals where those tell them apart."""
    if isinstance(x, float) and isinstance(y, float) and f"{x:.4f}" != f"{y:.4f}":
        return f"{x:.4f} -> {y:.4f}"
    return " -> ".join("absent" if v is MISSING else json.dumps(v) for v in (x, y))


def compare(run_a: str, run_b: str) -> tuple[list[str], bool]:
    """The report lines, and whether the runs agree where they must."""
    in_a, in_b = files_under(run_a), files_under(run_b)
    lines, ok = [], True
    for rel in sorted(in_a | in_b):
        if rel not in in_b or rel not in in_a:
            lines.append(f"{rel} only in {run_a if rel in in_a else run_b}")
            ok = False
            continue
        path_a, path_b = os.path.join(run_a, rel), os.path.join(run_b, rel)
        with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
            if fa.read() == fb.read():
                lines.append(f"{rel} identical")
                continue
        name = os.path.basename(rel)
        detail = ""
        if name.endswith(".ckpt"):
            detail = " " + checkpoint_difference(path_a, path_b)
        elif name == "data.bin":
            detail = " " + data_difference(path_a, path_b)
        elif name.endswith(".train.json"):
            detail = " keys " + ", ".join(
                k if (most := _max_relative(x, y)) is None else f"{k} max rel {most:.1e}"
                for k, x, y in json_differences(path_a, path_b))
        elif name.startswith("eval.") and name.endswith(".json"):
            detail = " " + ", ".join(f"{k} {_shown(x, y)}"
                                     for k, x, y in json_differences(path_a, path_b))
            ok = False
        lines.append(f"{rel} differs{detail}")
    return lines, ok


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("run_a", help="first run directory")
    p.add_argument("run_b", help="second run directory")
    args = p.parse_args(argv)
    lines, ok = compare(args.run_a, args.run_b)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
