"""Descriptive analyses of repeat and exploration behavior in interaction logs.

Curves: repeat ratio by order index, distinct-store growth, and trailing-window
cumulative distributions over users and stores.  Influence statistics
correlate, per interaction, situation similarity against store similarity over
either the user's own history (historical influence) or recent interactions of
preference-similar users (collaborative influence).
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import situsim
from .dataio import SECONDS_PER_WEEK, InteractionLog, atomic_open, label_repeat_flags

HISTOGRAM_BINS = 41
CDF_GRID_POINTS = 101
MIN_EVENTS = 5
_GRID_EPS = 1e-12


@dataclass
class CurveSeries:
    """A sampled curve: grid ``x``, values ``y``, per-point sample count ``n``."""

    x: np.ndarray
    y: np.ndarray
    n: np.ndarray

    def __post_init__(self):
        if not (len(self.x) == len(self.y) == len(self.n)):
            raise ValueError("curve arrays must align")


@dataclass(frozen=True)
class InfluenceRecord:
    """Per-interaction influence; ``value`` is None when the correlation is
    undefined (constant similarity sequences)."""

    position: int
    kind: str  # "repeat" | "exploration"
    value: float | None


def repeat_ratio_by_order_index(log: InteractionLog, max_n: int) -> CurveSeries:
    """Fraction of users whose n-th order is a repeat, for n = 1..max_n.

    Users with fewer than n orders do not contribute at n; the first order is
    never a repeat.
    """
    if max_n <= 0:
        raise ValueError("max_n must be positive")
    flags = label_repeat_flags(log)
    num = np.zeros(max_n, dtype=np.float64)
    den = np.zeros(max_n, dtype=np.int64)
    for positions in log.per_user.values():
        m = min(len(positions), max_n)
        den[:m] += 1
        num[:m] += flags[positions[:m]]
    y = np.divide(num, den, out=np.zeros(max_n), where=den > 0)
    return CurveSeries(x=np.arange(1, max_n + 1), y=y, n=den)


def explored_store_counts(log: InteractionLog, max_n: int) -> CurveSeries:
    """Mean number of distinct stores seen within the first n orders."""
    if max_n <= 0:
        raise ValueError("max_n must be positive")
    flags = label_repeat_flags(log)
    num = np.zeros(max_n, dtype=np.float64)
    den = np.zeros(max_n, dtype=np.int64)
    for positions in log.per_user.values():
        m = min(len(positions), max_n)
        distinct = np.cumsum(~flags[positions[:m]])
        den[:m] += 1
        num[:m] += distinct
    y = np.divide(num, den, out=np.zeros(max_n), where=den > 0)
    return CurveSeries(x=np.arange(1, max_n + 1), y=y, n=den)


def repeat_exploration_cdf(
    log: InteractionLog, window_s: int
) -> tuple[CurveSeries, CurveSeries]:
    """Trailing-window repeat-ratio tail distributions.

    For users and stores active in the last ``window_s`` of the log, the
    curves give the fraction whose window repeat ratio is >= r over a 101-point
    grid on [0, 1] (equivalently: exploration ratio <= 1 - r).  An empty
    window yields empty series.
    """
    if window_s <= 0:
        raise ValueError("window_s must be positive")
    empty = CurveSeries(np.empty(0), np.empty(0), np.empty(0, dtype=np.int64))
    if not len(log):
        return empty, empty
    flags = label_repeat_flags(log)
    cutoff = int(log.times[-1]) - window_s
    in_window = log.times >= cutoff
    if not in_window.any():
        return empty, empty
    grid = np.linspace(0.0, 1.0, CDF_GRID_POINTS)

    def tail_curve(group: np.ndarray) -> CurveSeries:
        ids = group[in_window]
        win_flags = flags[in_window].astype(np.float64)
        sums = np.bincount(ids, weights=win_flags)
        counts = np.bincount(ids)
        active = counts > 0
        ratios = sums[active] / counts[active]
        y = (ratios[None, :] >= grid[:, None] - _GRID_EPS).mean(axis=1)
        n = np.full(CDF_GRID_POINTS, int(active.sum()), dtype=np.int64)
        return CurveSeries(x=grid.copy(), y=y, n=n)

    return tail_curve(log.users), tail_curve(log.stores)


def _store_attr_codes(log: InteractionLog) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Brand/cuisine/store-location codes aligned with the log's store codes."""
    if log.catalog is None:
        raise ValueError("influence analyses need a store catalog")

    def encode(attr: str) -> np.ndarray:
        vocab: dict[str, int] = {}
        out = np.empty(len(log.store_ids), dtype=np.int64)
        for i, sid in enumerate(log.store_ids):
            v = getattr(log.catalog[sid], attr)
            out[i] = vocab.setdefault(v, len(vocab))
        return out

    return encode("brand_id"), encode("cuisine_id"), encode("store_location_id")


def _store_similarity_arrays(
    brand: np.ndarray, cuisine: np.ndarray, sloc: np.ndarray, others: np.ndarray, s: int
) -> np.ndarray:
    return (
        (brand[others] == brand[s]).astype(np.float64)
        + (cuisine[others] == cuisine[s])
        + (sloc[others] == sloc[s])
    ) / 3.0


def historical_influence(
    log: InteractionLog, min_history: int = MIN_EVENTS
) -> list[InfluenceRecord]:
    """Correlation between situation and store similarity over own history.

    For each interaction with at least ``min_history`` earlier interactions,
    correlate the situation similarity of "now" against each past interaction
    with the store similarity of the now-store against each past store.
    """
    flags = label_repeat_flags(log)
    brand, cuisine, sloc = _store_attr_codes(log)
    day, hour, dow = log.facets
    records: list[InfluenceRecord] = []
    for positions in log.per_user.values():
        for j in range(min_history, len(positions)):
            p = int(positions[j])
            prior = positions[:j]
            sim_situ = situsim.situation_similarity_arrays(
                day[prior], hour[prior], dow[prior],
                log.locs[prior] == log.locs[p],
                int(day[p]), int(hour[p]), int(dow[p]),
            )
            sim_store = _store_similarity_arrays(
                brand, cuisine, sloc, log.stores[prior], int(log.stores[p])
            )
            value = situsim.pearson(sim_situ, sim_store)
            kind = "repeat" if flags[p] else "exploration"
            records.append(InfluenceRecord(p, kind, value))
    records.sort(key=lambda r: r.position)
    return records


def collaborative_influence(
    log: InteractionLog,
    k: int = 10,
    t_delta_s: int = SECONDS_PER_WEEK,
    min_events: int = MIN_EVENTS,
) -> list[InfluenceRecord]:
    """Correlation between situation and store similarity over neighbors'
    recent interactions.

    Neighbors are the top-``k`` preference-correlated users over the full log;
    for each interaction, their interactions inside the open window
    ``(t - t_delta_s, t)`` form the comparison set.  Interactions with fewer
    than ``min_events`` comparison events are skipped.
    """
    flags = label_repeat_flags(log)
    brand, cuisine, sloc = _store_attr_codes(log)
    day, hour, dow = log.facets
    as_of = int(log.times[-1]) + 1 if len(log) else 1
    neighbors, _ = situsim.neighbor_table(log, k, as_of)
    per_user = log.per_user
    user_times = {c: log.times[pos] for c, pos in per_user.items()}

    records: list[InfluenceRecord] = []
    for u, positions in per_user.items():
        nb_codes = [c for c in neighbors[u].tolist() if c >= 0]
        nb_pos = [per_user.get(c, np.empty(0, dtype=np.int64)) for c in nb_codes]
        nb_times = [user_times.get(c, np.empty(0, dtype=np.int64)) for c in nb_codes]
        for p in positions:
            p = int(p)
            t = int(log.times[p])
            parts = []
            for pos_v, times_v in zip(nb_pos, nb_times):
                lo = int(np.searchsorted(times_v, t - t_delta_s, side="right"))
                hi = int(np.searchsorted(times_v, t, side="left"))
                if hi > lo:
                    parts.append(pos_v[lo:hi])
            if not parts:
                continue
            events = np.concatenate(parts)
            if len(events) < min_events:
                continue
            sim_situ = situsim.situation_similarity_arrays(
                day[events], hour[events], dow[events],
                log.locs[events] == log.locs[p],
                int(day[p]), int(hour[p]), int(dow[p]),
            )
            sim_store = _store_similarity_arrays(
                brand, cuisine, sloc, log.stores[events], int(log.stores[p])
            )
            value = situsim.pearson(sim_situ, sim_store)
            kind = "repeat" if flags[p] else "exploration"
            records.append(InfluenceRecord(p, kind, value))
    records.sort(key=lambda r: r.position)
    return records


def _fmt(v) -> str:
    return repr(float(v))


def _write_curve(path: str, curve: CurveSeries) -> None:
    with atomic_open(path) as fh:
        fh.write("x,y,n\n")
        for x, y, n in zip(curve.x, curve.y, curve.n):
            fh.write(f"{_fmt(x)},{_fmt(y)},{int(n)}\n")


def _write_histogram(path: str, records: list[InfluenceRecord]) -> None:
    edges = np.linspace(-1.0, 1.0, HISTOGRAM_BINS + 1)
    counts = {}
    for kind in ("repeat", "exploration"):
        values = [r.value for r in records if r.kind == kind and r.value is not None]
        counts[kind], _ = np.histogram(values, bins=edges)
    with atomic_open(path) as fh:
        fh.write("bin_lo,bin_hi,repeat,exploration\n")
        for i in range(HISTOGRAM_BINS):
            fh.write(
                f"{_fmt(edges[i])},{_fmt(edges[i + 1])},"
                f"{int(counts['repeat'][i])},{int(counts['exploration'][i])}\n"
            )


def influence_means(records: list[InfluenceRecord]) -> dict[str, tuple[float, int, int]]:
    """Per kind: (mean over defined values, defined count, undefined count)."""
    out = {}
    for kind in ("repeat", "exploration"):
        defined = [r.value for r in records if r.kind == kind and r.value is not None]
        undefined = sum(1 for r in records if r.kind == kind and r.value is None)
        mean = float(np.mean(defined)) if defined else float("nan")
        out[kind] = (mean, len(defined), undefined)
    return out


def emit_analysis_report(
    out_dir: str,
    repeat_ratio: CurveSeries,
    explored: CurveSeries,
    cdf_users: CurveSeries,
    cdf_stores: CurveSeries,
    his_records: list[InfluenceRecord],
    col_records: list[InfluenceRecord],
) -> list[str]:
    """Write the analysis CSV set; returns the paths written."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []

    for name, curve in (
        ("repeat_ratio.csv", repeat_ratio),
        ("explored.csv", explored),
        ("cdf_users.csv", cdf_users),
        ("cdf_stores.csv", cdf_stores),
    ):
        path = os.path.join(out_dir, name)
        _write_curve(path, curve)
        paths.append(path)

    for name, records in (("inf_his.csv", his_records), ("inf_col.csv", col_records)):
        path = os.path.join(out_dir, name)
        _write_histogram(path, records)
        paths.append(path)

    summary = os.path.join(out_dir, "summary.csv")
    with atomic_open(summary) as fh:
        fh.write("metric,kind,mean,defined,undefined\n")
        for metric, records in (
            ("historical_influence", his_records),
            ("collaborative_influence", col_records),
        ):
            means = influence_means(records)
            for kind in ("repeat", "exploration"):
                mean, defined, undefined = means[kind]
                fh.write(f"{metric},{kind},{_fmt(mean)},{defined},{undefined}\n")
    paths.append(summary)
    return paths
