"""Descriptive analyses of repeat and exploration behavior in interaction logs.

Curves: repeat ratio by order index, distinct-store growth, and trailing-window
cumulative distributions over users and stores.  Influence statistics
correlate, per interaction, situation similarity against store similarity over
either the user's own history (historical influence) or recent interactions of
preference-similar users (collaborative influence).

Both influence studies are computed in segment (CSR) form, with no loop over
interactions: every (interaction, comparison event) pair is laid out at once,
each interaction's comparison events one contiguous segment, in the order a
per-interaction loop would concatenate them.  A historical segment is the
user's earlier positions.  A collaborative segment joins, neighbour slot by
neighbour slot, each neighbour's positions in the open window; one
``searchsorted`` over a (user, position) key finds every slot's window,
because in a time-sorted log a position orders like its time.  Similarities
are computed elementwise over the pairs, and
:func:`fdrec.situsim.segment_pearson` correlates every segment at once.  The
records are bit-identical to correlating each segment alone: elementwise
ufuncs round each pair as they would round it inside one segment, and
``segment_pearson`` reduces each segment in the order a 1-d computation
would.  ``tests/oracles.py`` keeps the per-interaction loops as the reference.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import situsim
from .dataio import (SECONDS_PER_WEEK, InteractionLog, _encode, atomic_open,
                     label_repeat_flags)

HISTOGRAM_BINS = 41
CDF_GRID_POINTS = 101
MIN_EVENTS = 5
# (interaction, comparison event) pairs an influence study lays out at once:
# bounds its memory whatever the history lengths
PAIR_BLOCK = 1 << 16
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
    first, index = _first_visits_by_user(log)
    return _mean_by_order_index(index, ~first, max_n)


def explored_store_counts(log: InteractionLog, max_n: int) -> CurveSeries:
    """Mean number of distinct stores seen within the first n orders."""
    first, index = _first_visits_by_user(log)
    seen = np.cumsum(first)  # first visits up to each row, over all users
    start = np.arange(len(log)) - index  # the row of the user's first order
    return _mean_by_order_index(index, seen - (seen - first)[start], max_n)


def _first_visits_by_user(log: InteractionLog) -> tuple[np.ndarray, np.ndarray]:
    """First-visit flags and each row's index in its user's history, both in
    :attr:`InteractionLog.by_user` order."""
    order, offsets = log.by_user
    return ~label_repeat_flags(log)[order], np.arange(len(log)) - offsets[log.users[order]]


def _mean_by_order_index(index: np.ndarray, values: np.ndarray, max_n: int) -> CurveSeries:
    """Mean of ``values`` at each history index below ``max_n``; the sums are
    of integers, exact in float64, so their order cannot change the result."""
    if max_n <= 0:
        raise ValueError("max_n must be positive")
    keep = index < max_n
    num = np.bincount(index[keep], weights=values[keep], minlength=max_n)
    den = np.bincount(index[keep], minlength=max_n)
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
    return tuple(_encode(getattr(log.catalog[sid], attr) for sid in log.store_ids)[1]
                 for attr in ("brand_id", "cuisine_id", "store_location_id"))


def _store_similarity_arrays(
    brand: np.ndarray, cuisine: np.ndarray, sloc: np.ndarray,
    others: np.ndarray, s: int | np.ndarray,
) -> np.ndarray:
    return (
        (brand[others] == brand[s]).astype(np.float64)
        + (cuisine[others] == cuisine[s])
        + (sloc[others] == sloc[s])
    ) / 3.0


def _check_minimum(name: str, value: int) -> None:
    if value < 2:
        raise ValueError(f"{name} must be at least 2, as a correlation needs two points; "
                         f"got {value}")


def _influence(
    log: InteractionLog, now: np.ndarray, order: np.ndarray,
    starts: np.ndarray, counts: np.ndarray,
) -> list[InfluenceRecord]:
    """Records of the interactions ``now``.  ``now[i]``'s comparison set is
    ``order[starts[i, j]:starts[i, j] + counts[i, j]]`` for each ``j`` in
    turn.  Runs over blocks of about ``PAIR_BLOCK`` pairs."""
    flags = label_repeat_flags(log)
    brand, cuisine, sloc = _store_attr_codes(log)
    day, hour, dow = log.facets
    lengths = counts.sum(axis=1)
    cuts = np.flatnonzero(np.diff((np.cumsum(lengths) - lengths) // PAIR_BLOCK)) + 1
    bounds = [0, *cuts.tolist(), len(now)]

    def block(a: int, b: int) -> np.ndarray:
        events = order[situsim.ranges(starts[a:b].ravel(), counts[a:b].ravel())]
        at = np.repeat(now[a:b], lengths[a:b])  # each pair's "now"
        sim_situ = situsim.situation_similarity_arrays(
            day[events], hour[events], dow[events], log.locs[events] == log.locs[at],
            day[at], hour[at], dow[at],
        )
        sim_store = _store_similarity_arrays(
            brand, cuisine, sloc, log.stores[events], log.stores[at])
        return situsim.segment_pearson(sim_situ, sim_store, lengths[a:b])

    values = np.concatenate([block(a, b) for a, b in zip(bounds, bounds[1:])])
    return [
        InfluenceRecord(p, "repeat" if f else "exploration", None if math.isnan(v) else v)
        for p, f, v in zip(now.tolist(), flags[now].tolist(), values.tolist())
    ]


def historical_influence(
    log: InteractionLog, min_history: int = MIN_EVENTS
) -> list[InfluenceRecord]:
    """Correlation between situation and store similarity over own history.

    For each interaction with at least ``min_history`` (>= 2) earlier
    interactions, correlate the situation similarity of "now" against each
    past interaction with the store similarity of the now-store against each
    past store.  Records are in log order.
    """
    _check_minimum("min_history", min_history)
    order, offsets = log.by_user
    index = np.empty(len(log), dtype=np.int64)  # place in the user's history
    index[order] = np.arange(len(log)) - offsets[log.users[order]]
    now = np.flatnonzero(index >= min_history)
    return _influence(log, now, order, offsets[log.users[now], None], index[now, None])


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
    ``(t - t_delta_s, t)``, neighbour by neighbour, form the comparison set.
    Interactions with fewer than ``min_events`` (>= 2) comparison events are
    skipped.  Records are in log order.
    """
    _check_minimum("min_events", min_events)
    as_of = int(log.times[-1]) + 1 if len(log) else 1
    neighbors, _ = situsim.neighbor_table(log, k, as_of)
    n = len(log)
    order, _ = log.by_user
    # The log is time-sorted, so position i is in (t - t_delta_s, t) iff
    # after <= i < before; a (user, position) key finds every slot's window.
    after = np.searchsorted(log.times, log.times - t_delta_s, side="right")
    before = np.searchsorted(log.times, log.times, side="left")
    key = log.users[order].astype(np.int64) * (n + 1) + order
    slots = neighbors[log.users]  # [N, k], -1 where unused
    base = slots * (n + 1)
    lo, hi = np.searchsorted(key, np.stack([base + after[:, None], base + before[:, None]]))
    counts = np.where(slots >= 0, hi - lo, 0)  # all <= 0 when t_delta_s <= 0
    now = np.flatnonzero(counts.sum(axis=1) >= min_events)
    return _influence(log, now, order, lo[now], counts[now])


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
