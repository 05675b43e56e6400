"""Scalar string-id transcriptions of what ``fdrec`` computes in batches.

``src/fdrec`` scores a whole protocol's cases at once: integer codes, packed
history windows and one batched forward pass per model.  The functions here
compute the same numbers one case at a time, from string ids and plain numpy,
written apart from that path.  The parity tests check each batched path
against them, and the oracles themselves against hand-worked values, so a
shared mistake has to be made twice to go unseen.  Nothing in ``src/fdrec``
imports this module.

It also keeps what only the tests run: the per-user loops that the
sequence layout and the analysis curves replaced, the padded history
windows that the packed ones replaced, ExpRec's neighbour trigger as it ran
before pooling, the ensemble's per-row slate bases and per-length training
loss as they ran before its slates were padded, a GRU step built from the
autograd primitives, the GRU op's loops as they ran in preallocated
buffers, the synthetic generator's per-order scans, the user filter's round
trip through string records, and the finite-difference gradient check.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from fdrec import diffcore as dc
from fdrec import ensemble, exprec, features, reprec, situsim
from fdrec.analysis import (MIN_EVENTS, CurveSeries, InfluenceRecord, _store_attr_codes,
                            _store_similarity_arrays)
from fdrec.dataio import (_EPOCH_WEEKDAY_SHIFT, INTERACTIONS_HEADER, SECONDS_PER_DAY,
                          SECONDS_PER_WEEK, DatasetSplit, InteractionLog, StoreMeta,
                          SynthConfig, _records, label_repeat_flags, time_facets)
from fdrec.evalharness import MetricsReport
from fdrec.exprec import _ACTIVATIONS_VAR, TRIGGERS, _check_mask, _mix
from fdrec.reprec import _NORM_EPS_SQ
from fdrec.situsim import DATE_CAP_DAYS


def _values(state: dc.ModelState) -> dict[str, np.ndarray]:
    return {name: state.value(name) for name in state.params}


# ---------------------------------------------------------------- log views


@dataclass(frozen=True)
class Interaction:
    user_id: str
    store_id: str
    time: int
    location_id: str


@dataclass(frozen=True)
class SituationFeatures:
    """Consumption situation: when (date, hour, weekday) and where (delivery location)."""

    day_index: int
    hour: int
    day_of_week: int
    location_id: str


def interaction(log: InteractionLog, i: int) -> Interaction:
    return Interaction(
        log.user_ids[log.users[i]],
        log.store_ids[log.stores[i]],
        int(log.times[i]),
        log.location_ids[log.locs[i]],
    )


def interactions(log: InteractionLog) -> list[Interaction]:
    return [interaction(log, i) for i in range(len(log))]


def situation(log: InteractionLog, i: int) -> SituationFeatures:
    day_index, hour, dow = log.facets
    return SituationFeatures(
        int(day_index[i]), int(hour[i]), int(dow[i]), log.location_ids[log.locs[i]]
    )


def history_before(log: InteractionLog, position: int) -> list[Interaction]:
    """The same user's interactions strictly before ``position``."""
    user = log.users[position]
    return [interaction(log, p) for p in range(position) if log.users[p] == user]


# ---------------------------------------------------------------- per-user loops


def per_user(log: InteractionLog) -> dict[int, np.ndarray]:
    """User code -> ascending positions of that user's interactions."""
    order = np.argsort(log.users, kind="stable")
    cuts = np.nonzero(np.diff(log.users[order]))[0] + 1
    return {int(log.users[g[0]]): g for g in np.split(order, cuts) if len(g)}


def sequences_loop(split: DatasetSplit, vocabs: features.Vocabs) -> features.UserSequences:
    """``features.build_sequences``, walking each user's rows in turn and
    tracking the stores seen so far."""
    log = split.log
    n = len(log)
    n_users = len(log.user_ids)
    order = np.argsort(log.users, kind="stable")  # stable keeps time order per user
    counts = np.bincount(log.users, minlength=n_users)
    offsets = np.zeros(n_users + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])

    store_map = np.array([vocabs.store_index[s] for s in log.store_ids], dtype=np.int64)
    loc_map = np.array(
        [vocabs.location_index.get(l, features.FALLBACK) for l in log.location_ids],
        dtype=np.int64,
    )
    day, hour, dow = log.facets
    store = store_map[log.stores[order]]
    flat_of_global = np.empty(n, dtype=np.int64)
    flat_of_global[order] = np.arange(n)

    distinct_before = np.zeros(n, dtype=np.int64)
    first_rank = np.zeros(n, dtype=np.int64)
    first_stores: list[int] = []
    first_offsets = np.zeros(n_users + 1, dtype=np.int64)
    for u in range(n_users):
        seen: dict[int, int] = {}
        for row in range(int(offsets[u]), int(offsets[u + 1])):
            s = int(store[row])
            distinct_before[row] = len(seen)
            if s not in seen:
                seen[s] = len(seen)
                first_stores.append(s)
            first_rank[row] = seen[s]
        first_offsets[u + 1] = first_offsets[u] + len(seen)

    return features.UserSequences(
        offsets=offsets,
        user=np.repeat(np.arange(n_users, dtype=np.int64), counts),
        store=store,
        hour=hour[order].astype(np.int64),
        dow=dow[order].astype(np.int64),
        day=day[order].astype(np.int64),
        loc=loc_map[log.locs[order]],
        raw_loc=log.locs[order].astype(np.int64),
        repeat=split.repeat_flags[order],
        distinct_before=distinct_before,
        first_rank=first_rank,
        first_stores=np.array(first_stores, dtype=np.int64),
        first_offsets=first_offsets,
        flat_of_global=flat_of_global,
    )


def repeat_ratio_loop(log: InteractionLog, max_n: int) -> CurveSeries:
    """``analysis.repeat_ratio_by_order_index``, one user at a time."""
    flags = label_repeat_flags(log)
    num = np.zeros(max_n, dtype=np.float64)
    den = np.zeros(max_n, dtype=np.int64)
    for positions in per_user(log).values():
        m = min(len(positions), max_n)
        den[:m] += 1
        num[:m] += flags[positions[:m]]
    y = np.divide(num, den, out=np.zeros(max_n), where=den > 0)
    return CurveSeries(x=np.arange(1, max_n + 1), y=y, n=den)


def explored_store_counts_loop(log: InteractionLog, max_n: int) -> CurveSeries:
    """``analysis.explored_store_counts``, one user at a time."""
    flags = label_repeat_flags(log)
    num = np.zeros(max_n, dtype=np.float64)
    den = np.zeros(max_n, dtype=np.int64)
    for positions in per_user(log).values():
        m = min(len(positions), max_n)
        den[:m] += 1
        num[:m] += np.cumsum(~flags[positions[:m]])
    y = np.divide(num, den, out=np.zeros(max_n), where=den > 0)
    return CurveSeries(x=np.arange(1, max_n + 1), y=y, n=den)


# ---------------------------------------------------------------- ranking


@dataclass(frozen=True)
class ScoredSlate:
    """Candidate store ids with aligned scores and their originating model."""

    candidates: tuple[str, ...]
    scores: np.ndarray
    origin: str

    def __post_init__(self):
        if len(self.candidates) != len(self.scores):
            raise ValueError("candidates and scores must align")


@dataclass(frozen=True)
class RankResult:
    rank: int
    hr: float
    ndcg: float


def rank_metrics(slate: ScoredSlate, target_id: str, k: int = 3) -> RankResult:
    """Pessimistic rank of the target: ties count against it."""
    if k <= 0:
        raise ValueError("k must be positive")
    try:
        t = slate.candidates.index(target_id)
    except ValueError:
        raise ValueError(f"target {target_id!r} not among candidates") from None
    scores = np.asarray(slate.scores, dtype=np.float64)
    ts = scores[t]
    greater = int((scores > ts).sum())
    ties = int((scores == ts).sum()) - 1
    rank = 1 + greater + ties
    hit = rank <= k
    ndcg = 1.0 / math.log2(rank + 1.0) if hit else 0.0
    return RankResult(rank, 1.0 if hit else 0.0, ndcg)


def to_json(report: MetricsReport) -> str:
    """``report.to_dict()`` as canonical JSON: sorted keys, fixed separators."""
    return json.dumps(report.to_dict(), sort_keys=True, separators=(",", ": "))


# ---------------------------------------------------------------- similarity


def situation_similarity(a: SituationFeatures, b: SituationFeatures) -> float:
    """Similarity in [0, 1]; 1 iff all four facets coincide."""
    d_date = min(abs(a.day_index - b.day_index), DATE_CAP_DAYS) / DATE_CAP_DAYS
    dh = abs(a.hour - b.hour)
    d_hour = min(dh, 24 - dh) / 12.0
    dw = abs(a.day_of_week - b.day_of_week)
    d_dow = min(dw, 7 - dw) / 3.0
    mismatch = 0.0 if a.location_id == b.location_id else 1.0
    return 1.0 - (d_date + d_hour + d_dow + mismatch) / 4.0


def store_similarity(a: StoreMeta, b: StoreMeta) -> float:
    """Fraction of matching attributes among brand, cuisine, store location."""
    matches = (
        (a.brand_id == b.brand_id)
        + (a.cuisine_id == b.cuisine_id)
        + (a.store_location_id == b.store_location_id)
    )
    return matches / 3.0


def preference_vector(history: Sequence[Interaction]) -> dict[str, float]:
    """Relative frequency of each store in the history."""
    if not history:
        raise ValueError("history must be non-empty")
    counts: dict[str, int] = {}
    for it in history:
        counts[it.store_id] = counts.get(it.store_id, 0) + 1
    n = len(history)
    return {s: c / n for s, c in counts.items()}


def _union_pearson(
    pu: dict[str, float], pv: dict[str, float]
) -> float:
    """Pearson of two preference vectors over the union of their supports.

    Missing stores count as 0.  Undefined correlations and disjoint supports
    map to similarity 0.
    """
    if not pu or not pv:
        return 0.0
    union = set(pu) | set(pv)
    m = len(union)
    if m < 2:
        return 0.0
    dot = sum(pu[s] * pv.get(s, 0.0) for s in pu)
    overlap = sum(1 for s in pu if s in pv)
    if overlap == 0:
        return 0.0
    qu = sum(w * w for w in pu.values())
    qv = sum(w * w for w in pv.values())
    # Component sums over the union are 1 by construction.
    vu = qu - 1.0 / m
    vv = qv - 1.0 / m
    if vu <= 1e-15 or vv <= 1e-15:
        return 0.0
    r = (dot - 1.0 / m) / math.sqrt(vu * vv)
    return min(1.0, max(-1.0, r))


def _histories_before(
    log: InteractionLog, as_of: int
) -> dict[int, np.ndarray]:
    """User code -> positions strictly before ``as_of``."""
    out = {}
    for code, positions in per_user(log).items():
        cut = int(np.searchsorted(log.times[positions], as_of, side="left"))
        out[code] = positions[:cut]
    return out


def neighbor_counts_loop(log: InteractionLog, as_of: int) -> np.ndarray:
    """The [U, S] count matrix of ``situsim.neighbor_table``, one user at a
    time: each user's store counts strictly before ``as_of``."""
    counts = np.zeros((len(log.user_ids), len(log.store_ids)), dtype=np.float64)
    for code, positions in _histories_before(log, as_of).items():
        if len(positions):
            np.add.at(counts[code], log.stores[positions], 1.0)
    return counts


def collaborative_users(
    target: str, log: InteractionLog, k: int, as_of: int
) -> list[tuple[str, float]]:
    """Top-``k`` users by preference-vector correlation with ``target``.

    Only interactions strictly before ``as_of`` count.  Every other user is a
    candidate; undefined or non-overlapping correlations score 0.  Sorting is
    by descending similarity, ties by ascending user id.  A target with no
    history before ``as_of`` has no neighbors.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    if target not in log.user_ids:
        raise ValueError(f"unknown user {target!r}")
    before = _histories_before(log, as_of)
    code_of = {u: i for i, u in enumerate(log.user_ids)}
    tcode = code_of[target]
    tpos = before.get(tcode, np.empty(0, dtype=np.int64))
    if not len(tpos):
        return []

    def prefs(positions: np.ndarray) -> dict[str, float]:
        if not len(positions):
            return {}
        stores, counts = np.unique(log.stores[positions], return_counts=True)
        n = len(positions)
        return {log.store_ids[s]: c / n for s, c in zip(stores, counts)}

    pt = prefs(tpos)
    scored = []
    for user in log.user_ids:
        if user == target:
            continue
        sim = _union_pearson(pt, prefs(before.get(code_of[user], np.empty(0, np.int64))))
        scored.append((user, sim))
    scored.sort(key=lambda us: (-us[1], us[0]))
    return scored[:k]


def top_neighbors_loop(
    r: np.ndarray, start: int, active: np.ndarray, rank_by_id: np.ndarray, kk: int
) -> tuple[np.ndarray, np.ndarray]:
    """``situsim._top_neighbors`` one row at a time: a partial selection of
    the ``kk`` best, the threshold ties by ascending id rank, then a sort."""
    n_users = r.shape[1]
    ids = np.full((len(r), kk), -1, dtype=np.int64)
    out_sims = np.zeros((len(r), kk))
    for row in range(len(r)):
        u = start + row
        if not active[u] or kk <= 0:
            continue
        sims = r[row].copy()
        sims[u] = -np.inf
        if kk < n_users - 1:
            top = np.argpartition(-sims, kk - 1)[:kk]
            threshold = sims[top].min()
            above = np.nonzero(sims > threshold)[0]
            need = kk - len(above)
            tied = np.nonzero(sims == threshold)[0]
            if need < len(tied):
                ranks = rank_by_id[tied]
                pick = np.argpartition(ranks, need - 1)[:need] if need else []
                tied = tied[pick]
            chosen = np.concatenate([above, tied]).astype(np.int64)
        else:
            chosen = np.nonzero(np.arange(n_users) != u)[0]
        chosen = chosen[np.lexsort((rank_by_id[chosen], -sims[chosen]))]
        ids[row, : len(chosen)] = chosen
        out_sims[row, : len(chosen)] = sims[chosen]
    return ids, out_sims


def neighbor_weights(sims: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """One row of ``exprec._neighbor_weights``: max(sim, 0) normalized over
    valid entries; uniform fallback."""
    w = np.where(valid, np.maximum(sims, 0.0), 0.0)
    total = w.sum()
    if total > 0:
        return w / total
    n = int(valid.sum())
    if n == 0:
        return np.zeros_like(w)
    return valid.astype(np.float64) / n


# ---------------------------------------------------------------- influence analyses


def pearson(x: Sequence[float], y: Sequence[float]) -> float | None:
    """Sample Pearson correlation; ``None`` when either sequence is constant.

    Raises ``ValueError`` on length mismatch or fewer than two points.
    """
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise ValueError("pearson needs two equal-length 1-d sequences")
    if len(xa) < 2:
        raise ValueError("pearson needs at least two points")
    # exact constant check: rounding in the mean must not turn an undefined
    # correlation into a spurious finite one
    if bool((xa == xa[0]).all()) or bool((ya == ya[0]).all()):
        return None
    xc = xa - xa.mean()
    yc = ya - ya.mean()
    vx = float(xc @ xc)
    vy = float(yc @ yc)
    if vx <= 0.0 or vy <= 0.0:
        return None
    r = float(xc @ yc) / math.sqrt(vx * vy)
    return min(1.0, max(-1.0, r))


def historical_influence_loop(
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
    for positions in per_user(log).values():
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
            value = pearson(sim_situ, sim_store)
            kind = "repeat" if flags[p] else "exploration"
            records.append(InfluenceRecord(p, kind, value))
    records.sort(key=lambda r: r.position)
    return records


def collaborative_influence_loop(
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
    by_code = per_user(log)
    user_times = {c: log.times[pos] for c, pos in by_code.items()}

    records: list[InfluenceRecord] = []
    for u, positions in by_code.items():
        nb_codes = [c for c in neighbors[u].tolist() if c >= 0]
        nb_pos = [by_code.get(c, np.empty(0, dtype=np.int64)) for c in nb_codes]
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
            value = pearson(sim_situ, sim_store)
            kind = "repeat" if flags[p] else "exploration"
            records.append(InfluenceRecord(p, kind, value))
    records.sort(key=lambda r: r.position)
    return records


# ---------------------------------------------------------------- HisPop, SOnly


def hispop_score(
    history: list[Interaction],
    now: SituationFeatures,
    candidates: tuple[str, ...] | list[str],
    tz_offset_minutes: int = 0,
    epoch: int = 0,
) -> ScoredSlate:
    """Sum of situation similarities of each candidate's past orders to now.

    Candidates must all appear in the history; ``epoch`` anchors day indices
    and must match the reference frame of ``now``.
    """
    times = np.array([it.time for it in history], dtype=np.int64)
    day, hour, dow = time_facets(times, tz_offset_minutes, epoch)
    loc_match = np.array(
        [it.location_id == now.location_id for it in history], dtype=bool
    )
    sims = situsim.situation_similarity_arrays(
        day, hour, dow, loc_match, now.day_index, now.hour, now.day_of_week
    )
    totals: dict[str, float] = {}
    for it, s in zip(history, sims):
        totals[it.store_id] = totals.get(it.store_id, 0.0) + float(s)
    scores = np.empty(len(candidates), dtype=np.float64)
    for i, c in enumerate(candidates):
        if c not in totals:
            raise ValueError(f"candidate {c!r} was never visited")
        scores[i] = totals[c]
    return ScoredSlate(tuple(candidates), scores, origin="hispop")


def sonly_score(
    state: dc.ModelState, now: SituationFeatures, candidates
) -> ScoredSlate:
    """Dot product between the situation vector and candidate store embeddings."""
    meta = state.meta
    loc_index = {l: i for i, l in enumerate(meta["location_ids"])}
    store_index = {s: i for i, s in enumerate(meta["store_ids"])}
    lc = loc_index.get(now.location_id, features.FALLBACK)
    situ = (
        state.value("emb.hour")[now.hour]
        + state.value("emb.dow")[now.day_of_week]
        + state.value("emb.loc")[lc]
    )
    codes = []
    for c in candidates:
        if c not in store_index:
            raise ValueError(f"unknown store {c!r}")
        codes.append(store_index[c])
    scores = state.value("emb.store")[codes] @ situ
    return ScoredSlate(tuple(candidates), scores, origin="sonly")


# ---------------------------------------------------------------- RepRec


def _cosine_rows(mu: np.ndarray, mu_now: np.ndarray) -> np.ndarray:
    """Cosine of each row of ``mu`` against ``mu_now``; zero-norm terms -> 0."""
    norms = np.linalg.norm(mu, axis=-1)
    now_norm = float(np.linalg.norm(mu_now))
    num = mu @ mu_now
    denom = norms * now_norm
    out = np.zeros_like(num)
    ok = denom > 0.0
    out[ok] = num[ok] / denom[ok]
    return out


def reprec_forward(
    state: dc.ModelState,
    history: list[Interaction],
    now: SituationFeatures,
    candidates: tuple[str, ...] | list[str],
) -> ScoredSlate:
    """Score candidates against the situation-weighted history profile.

    Every candidate must appear among the history's stores.
    """
    if not history:
        raise ValueError("history must be non-empty")
    meta = state.meta
    values = {n: state.value(n) for n in ("emb.store", "emb.hour", "emb.dow", "emb.loc")}
    store_index = {s: i for i, s in enumerate(meta["store_ids"])}
    loc_index = {l: i for i, l in enumerate(meta["location_ids"])}

    times = np.array([it.time for it in history], dtype=np.int64)
    _, hours, dows = time_facets(times, meta["tz_offset_minutes"], meta["epoch"])
    locs = np.array(
        [loc_index.get(it.location_id, features.FALLBACK) for it in history]
    )
    mu = values["emb.hour"][hours] + values["emb.dow"][dows] + values["emb.loc"][locs]
    mu_now = (
        values["emb.hour"][now.hour]
        + values["emb.dow"][now.day_of_week]
        + values["emb.loc"][loc_index.get(now.location_id, features.FALLBACK)]
    )
    w = _cosine_rows(mu, mu_now)

    visited = {it.store_id for it in history}
    stores = np.array([store_index[it.store_id] for it in history])
    profile = w @ values["emb.store"][stores]

    codes = []
    for c in candidates:
        if c not in visited:
            raise ValueError(f"candidate {c!r} does not appear in the history")
        codes.append(store_index[c])
    scores = values["emb.store"][codes] @ profile
    return ScoredSlate(tuple(candidates), scores, origin="reprec")


# ---------------------------------------------------------------- ExpRec

# ordered activation set for the conditioned user encoder
_ACTIVATIONS_NP = (
    lambda x: x,
    np.tanh,
    dc._sigmoid,
    lambda x: np.maximum(x, 0.0),
)


def _situation_np(values, hours, dows, locs) -> np.ndarray:
    return values["emb.hour"][hours] + values["emb.dow"][dows] + values["emb.loc"][locs]


def _history_codes(state: dc.ModelState, history: list[Interaction]):
    meta = state.meta
    store_index = {s: i for i, s in enumerate(meta["store_ids"])}
    loc_index = {l: i for i, l in enumerate(meta["location_ids"])}
    stores = np.array([store_index[it.store_id] for it in history], dtype=np.int64)
    times = np.array([it.time for it in history], dtype=np.int64)
    _, hours, dows = time_facets(times, meta["tz_offset_minutes"], meta["epoch"])
    locs = np.array(
        [loc_index.get(it.location_id, features.FALLBACK) for it in history],
        dtype=np.int64,
    )
    return stores, hours, dows, locs


def encode_history(
    state: dc.ModelState, history: list[Interaction], limit: int | None = None
) -> np.ndarray:
    """GRU encoding of the last ``limit`` interactions; empty history -> 0."""
    values = _values(state)
    if limit is None:
        limit = int(state.meta["window"])
    if not history:
        return np.zeros(int(state.meta["dim"]))
    tail = history[-limit:] if limit else history
    stores, hours, dows, locs = _history_codes(state, tail)
    situ = _situation_np(values, hours, dows, locs)
    xs = np.concatenate([values["emb.store"][stores], situ], axis=-1)
    p = dc.gru_leaves(state, "gru.hist")
    h = dc.Var(np.zeros((1, int(state.meta["dim"]))))
    for x in xs:
        h = gru_cell(p, x[None], h)
    return h.data[0]


def _mix_weights_np(values, situation_vec: np.ndarray) -> np.ndarray:
    return dc._softmax(situation_vec @ values["cond.w"].T + values["cond.b"], axis=-1)


def condition_user(
    state: dc.ModelState, user_vec: np.ndarray, situation_vec: np.ndarray
) -> np.ndarray:
    """Situation-gated mix of fixed activations applied to ``user_vec``."""
    values = _values(state)
    a = _mix_weights_np(values, situation_vec)
    out = np.zeros_like(user_vec, dtype=np.float64)
    for weight, act in zip(a, _ACTIVATIONS_NP):
        out = out + weight * act(user_vec)
    return out


def collaborative_embedding(
    state: dc.ModelState,
    target: str,
    neighbors: list[tuple[str, float]],
    situation_vec: np.ndarray,
) -> np.ndarray:
    """Similarity-weighted sum of neighbors' conditioned embeddings."""
    dim = int(state.meta["dim"])
    if not neighbors:
        return np.zeros(dim)
    user_index = {u: i for i, u in enumerate(state.meta["user_ids"])}
    values = _values(state)
    sims = np.array([s for _, s in neighbors], dtype=np.float64)
    w = neighbor_weights(sims, np.ones(len(neighbors), dtype=bool))
    a = _mix_weights_np(values, situation_vec)
    out = np.zeros(dim)
    for (uid, _), wk in zip(neighbors, w):
        if uid == target:
            raise ValueError("target cannot be its own neighbor")
        emb = values["emb.user"][user_index[uid]]
        cond = np.zeros(dim)
        for am, act in zip(a, _ACTIVATIONS_NP):
            cond = cond + am * act(emb)
        out = out + wk * cond
    return out


def fusion_weights(
    state: dc.ModelState,
    e_mu: np.ndarray,
    e_u_mu: np.ndarray,
    ablation_mask=None,
) -> np.ndarray:
    """Softmax trigger weights; ablated entries are exactly 0."""
    mask = _check_mask([False] * len(TRIGGERS) if ablation_mask is None else ablation_mask)
    values = _values(state)
    logits = np.concatenate([e_mu, e_u_mu]) @ values["fuse.w"].T + values["fuse.b"]
    w = np.zeros(len(TRIGGERS))
    keep = ~mask
    w[keep] = dc._softmax(logits[keep], axis=-1)
    return w


def trigger_fusion(
    state: dc.ModelState,
    e_mu: np.ndarray,
    e_h: np.ndarray,
    e_u_mu: np.ndarray,
    e_cu_mu: np.ndarray,
    ablation_mask=None,
) -> np.ndarray:
    w = fusion_weights(state, e_mu, e_u_mu, ablation_mask)
    triggers = (e_mu, e_h, e_u_mu, e_cu_mu)
    return sum(wk * t for wk, t in zip(w, triggers))


def exprec_score(
    state: dc.ModelState,
    user: str,
    history: list[Interaction],
    now: SituationFeatures,
    candidates: tuple[str, ...] | list[str],
    ablation_mask=None,
    neighbors: list[tuple[str, float]] = (),
) -> ScoredSlate:
    """Fused-trigger dot-product scores over unvisited candidates."""
    meta = state.meta
    visited = {it.store_id for it in history}
    for c in candidates:
        if c in visited:
            raise ValueError(f"candidate {c!r} was already visited")
    values = _values(state)
    store_index = {s: i for i, s in enumerate(meta["store_ids"])}
    loc_index = {l: i for i, l in enumerate(meta["location_ids"])}
    user_index = {u: i for i, u in enumerate(meta["user_ids"])}
    if user not in user_index:
        raise ValueError(f"unknown user {user!r}")

    e_mu = _situation_np(values, now.hour, now.day_of_week,
                         loc_index.get(now.location_id, features.FALLBACK))
    e_h = encode_history(state, history)
    e_u = condition_user(state, values["emb.user"][user_index[user]], e_mu)
    e_cu = collaborative_embedding(state, user, list(neighbors), e_mu)
    s_e = trigger_fusion(state, e_mu, e_h, e_u, e_cu, ablation_mask)
    codes = [store_index[c] for c in candidates]
    scores = values["emb.store"][codes] @ s_e
    return ScoredSlate(tuple(candidates), scores, origin="exprec")


# ---------------------------------------------------------------- ensemble


@dataclass(frozen=True)
class IntentEstimate:
    repeat_prob: float
    explore_prob: float

    def __post_init__(self):
        for p in (self.repeat_prob, self.explore_prob):
            if not 0.0 <= p <= 1.0:
                raise ValueError("intent probabilities must lie in [0, 1]")
        if abs(self.repeat_prob + self.explore_prob - 1.0) > 1e-9:
            raise ValueError("intent probabilities must sum to 1")


@dataclass(frozen=True)
class CombinedSlate:
    """Final slate: ``a`` repeat items followed by ``b`` exploration items.

    ``scores == weights * within`` holds exactly, element by element.
    """

    candidates: tuple[str, ...]
    a: int
    b: int
    base: np.ndarray     # normalized input scores, repeat part first
    weights: np.ndarray  # each item's part's intent probability
    within: np.ndarray   # each item's probability within its part
    scores: np.ndarray

    def __post_init__(self):
        n = self.a + self.b
        if not (len(self.candidates) == len(self.base) == len(self.weights)
                == len(self.within) == len(self.scores) == n):
            raise ValueError("slate arrays must all have length a + b")


def predict_intent(
    state: dc.ModelState,
    user: str,
    intent_history,
    now: SituationFeatures,
) -> IntentEstimate:
    """Repeat/explore probabilities from past flags, situation, and user."""
    values = _values(state)
    meta = state.meta
    window = int(meta["window"])
    user_index = {u: i for i, u in enumerate(meta["user_ids"])}
    loc_index = {l: i for i, l in enumerate(meta["location_ids"])}
    if user not in user_index:
        raise ValueError(f"unknown user {user!r}")

    p = dc.gru_leaves(state, "gru.intent")
    h = dc.Var(np.zeros((1, int(meta["dim"]))))
    for flag in list(intent_history)[-window:]:
        h = gru_cell(p, values["emb.flag"][[int(bool(flag))]], h)
    h = h.data[0]
    e_mu = _situation_np(values, now.hour, now.day_of_week,
                         loc_index.get(now.location_id, features.FALLBACK))
    u = values["emb.user"][user_index[user]]
    logits = np.concatenate([h, e_mu, u]) @ values["intent.w"].T + values["intent.b"]
    probs = dc._softmax(logits, axis=-1)
    return IntentEstimate(float(probs[0]), float(probs[1]))


def combine(
    state: dc.ModelState,
    repeat_slate: ScoredSlate | None,
    exploration_slate: ScoredSlate | None,
    intent: IntentEstimate,
) -> CombinedSlate:
    """Mix two normalized, disjoint slates into one final ranking: an item
    scores its part's intent probability times its softmax probability,
    at the part's temperature, among that part's items."""
    parts = [s for s in (repeat_slate, exploration_slate) if s is not None
             and len(s.candidates)]
    if not parts:
        raise ValueError("both slates are empty")
    for s in parts:
        if s.scores.min() < -1e-12 or s.scores.max() > 1.0 + 1e-12:
            raise ValueError("slates must be min-max normalized before combining")
    rep = repeat_slate.candidates if repeat_slate else ()
    exp = exploration_slate.candidates if exploration_slate else ()
    if set(rep) & set(exp):
        raise ValueError("repeat and exploration slates overlap")

    theta = state.value("inv_temp")
    candidates, base, weights, within = [], [], [], []
    for slate, prob, t in ((repeat_slate, intent.repeat_prob, theta[0]),
                           (exploration_slate, intent.explore_prob, theta[1])):
        if slate is None or not len(slate.candidates):
            continue
        inv_tau = max(t, 0.0) + math.log1p(math.exp(-abs(t)))  # softplus
        top = max(slate.scores)
        e = [math.exp(inv_tau * (b - top)) for b in slate.scores]
        total = sum(e)
        candidates += slate.candidates
        base += list(slate.scores)
        weights += [prob] * len(e)
        within += [x / total for x in e]
    weights, within = np.array(weights), np.array(within)
    return CombinedSlate(
        candidates=tuple(candidates), a=len(rep), b=len(exp), base=np.array(base),
        weights=weights, within=within, scores=weights * within,
    )


def _minmax(x: np.ndarray) -> np.ndarray:
    lo, hi = float(x.min()), float(x.max())
    return np.full(x.shape, 0.5) if hi == lo else (x - lo) / (hi - lo)


def slate_bases_loop(rep_state: dc.ModelState, exp_state: dc.ModelState,
                     data: features.Dataset, cases) -> list[np.ndarray]:
    """Each case's normalized frozen base scores over its real candidates,
    one row at a time: RepRec scores the first ``n_prior`` and ExpRec the
    rest, each part as its model's whole store table dotted with the case's
    query at the part's codes, and each non-empty part is min-max normalized
    alone."""
    rows = data.seqs.flat_of_global[cases.position]
    rep_q = features.query_rows(rep_state, data, rows, reprec.reprec_query)
    exp_q = features.query_rows(exp_state, data, rows, exprec.exprec_query)
    rep_store, exp_store = rep_state.value("emb.store"), exp_state.value("emb.store")
    out = []
    for i in range(len(cases)):
        a, n = int(cases.n_prior[i]), int(cases.length[i])
        codes = cases.cand[i, :n]
        base = np.empty(n)
        if a:
            base[:a] = _minmax((rep_store @ rep_q[i])[codes[:a]])
        if n > a:
            base[a:] = _minmax((exp_store @ exp_q[i])[codes[a:]])
        out.append(base)
    return out


def combined_loss_by_length(state: dc.ModelState, slates, bases, seqs, chunk,
                            rng: np.random.Generator, lam: float) -> dc.Var:
    """The ensemble's combined training loss, one intent forward and one
    unpadded mixture per slate length, in the order each length first appears
    in ``chunk``: the rank loss of each target against one uniformly drawn
    other item of its slate, plus ``lam`` times the intent cross-entropy,
    summed over groups and divided by the chunk size."""
    base, rep = bases[0], bases[1]
    by_length: dict[int, list[int]] = {}
    for i in np.asarray(chunk).tolist():
        by_length.setdefault(int(slates.length[i]), []).append(i)
    total = None
    for n, idx in by_length.items():
        g = len(idx)
        rows = seqs.flat_of_global[slates.position[idx]]
        tgt = slates.tcol[idx]
        logits = ensemble._intent_logits(state, seqs, rows)
        p = ensemble._mixture(state, dc.softmax(logits), base[idx, :n], rep[idx, :n],
                              np.ones((g, n)))
        ar = np.arange(g)
        j = rng.integers(0, n - 1, size=g)
        j = j + (j >= tgt)
        rank = dc.sum_(dc.bpr_loss(dc.getitem(p, (ar, tgt)), dc.getitem(p, (ar, j))))
        ce = dc.sum_(ensemble._intent_ce(logits, seqs.repeat[rows]))
        term = dc.add(rank, dc.mul(ce, lam))
        total = term if total is None else dc.add(total, term)
    return dc.mul(total, 1.0 / len(chunk))


# ---------------------------------------------------------------- autograd references


def gru_cell(p: dc.GRUParams, x: dc.Var, h: dc.Var) -> dc.Var:
    """One GRU step: ``h' = (1 - z) * h + z * h_cand``.

    With all-zero weights this collapses to ``0.5 * h`` (z = 0.5, candidate 0).
    """
    z = dc.sigmoid(dc.add(dc.dense(p.wz, 0.0, x), dc.dense(p.uz, p.bz, h)))
    r = dc.sigmoid(dc.add(dc.dense(p.wr, 0.0, x), dc.dense(p.ur, p.br, h)))
    cand = dc.tanh(dc.add(dc.dense(p.wh, 0.0, x), dc.dense(p.uh, p.bh, dc.mul(r, h))))
    return dc.add(dc.mul(dc.sub(1.0, z), h), dc.mul(z, cand))



def gru_sequence_in_place(p: dc.GRUParams, xs, mask) -> dc.Var:
    """:func:`fdrec.diffcore.gru_sequence` as it ran before its loops became
    whole-array expressions: each depth's gates and products written into
    views of preallocated buffers (``pz``, ``ph``, ``v1``, ``v2``, ``drh_``
    and ``pu``) through ``out=`` arguments and in-place operators.  The
    expression form keeps every operand order, so h and every gradient are
    bit-equal to this."""
    table, codes = dc._as_var(xs[0]), np.asarray(xs[1])
    keep = np.asarray(mask, dtype=bool)
    if (keep.ndim != 2 or table.data.ndim != 2 or codes.ndim != 1
            or len(codes) != keep.sum()):
        raise ValueError("a GRU run expects mask [B,L], table [M,I] and codes [mask.sum()]")
    dc._check_indices(codes, len(table.data))
    # gates stacked z, r, h: w [3D,I], u [3D,D], b [3D]
    w, u, b = (np.concatenate([getattr(p, t + g).data for g in "zrh"]) for t in "wub")
    (B, L), M = keep.shape, len(table.data)
    D = u.shape[1]
    # each row's codes left-aligned and -1 past its end, rows in lexical order
    lens = keep.sum(axis=1)
    seq = np.full((B, L), -1)
    seq[np.arange(L) < lens[:, None]] = codes
    order = np.lexsort(seq.T[::-1]) if L else np.arange(B)
    seq, lens = seq[order], lens[order]
    # a row starts a depth-t node where its first t + 1 codes differ from the
    # previous row's.  Nodes get ids 1..P depth by depth, and node id j + 1
    # sits at index j of code and parent; up[i, t] is row i's node at depth
    # t - 1, the root 0 at t = 0, so a row ends at up[i, lens[i]]
    new = np.ones((B, L), dtype=bool)
    new[1:] = seq[1:] != seq[:-1]
    new = np.logical_or.accumulate(new, axis=1) & (seq >= 0)
    up = np.hstack([np.zeros((B, 1), dtype=np.int64), np.cumsum(new.T).reshape(L, B).T])
    code, parent, end = seq.T[new.T], up[:, :-1].T[new.T], up[np.arange(B), lens]
    n = new.sum(axis=0)
    off = np.concatenate(([0], np.cumsum(n)))
    P, T, R = off[-1], int(lens.max(initial=0)), max(int(n.max(initial=0)), 2)
    # the first child of each parent, where each depth's firsts begin, and
    # the first of the rows that end at each node: equal rows are contiguous
    first = np.flatnonzero(np.diff(parent, prepend=-1))
    cut = np.searchsorted(first, off)
    tie = np.flatnonzero(np.diff(end, prepend=-1))
    xp = dc._pad_rows(table.data, 2) @ np.ascontiguousarray(w.T)
    xp += b
    xn = xp[code]
    u_zr, u_h = (np.ascontiguousarray(u[g].T) for g in (slice(2 * D), slice(2 * D, None)))
    # hn[j] is the h of node id j, 0 for the root; hs[j] is node id j + 1's
    # h before its step, its parent's, and rhs[j] its r * h.  The rows past
    # a depth are 0 or unused when a one-node depth reads two, and the
    # product buffers pz and ph hold R rows for the same reason.
    hn = np.zeros((P + 1, D))
    hs, rhs = np.zeros((P + 1, D)), np.zeros((P + 1, D))
    zrs, cs = np.empty((P, 2 * D)), np.empty((P, D))
    pz, ph = np.empty((R, 2 * D)), np.empty((R, D))
    for t in range(T):
        a, e = off[t], off[t + 1]
        k, kk = e - a, max(e - a, 2)
        xa, hp, zr, rh, c, h = xn[a:e], hs[a:e], zrs[a:e], rhs[a:e], cs[a:e], hn[1 + a : 1 + e]
        np.take(hn, parent[a:e], axis=0, out=hp)
        # zr = sigmoid(x W_zr + h U_zr), c = tanh(x W_h + (r * h) U_h)
        np.add(xa[:, : 2 * D], np.matmul(hs[a : a + kk], u_zr, out=pz[:kk])[:k], out=zr)
        dc._sigmoid(zr, out=zr)
        z = zr[:, :D]
        np.multiply(zr[:, D:], hp, out=rh)
        np.add(xa[:, 2 * D :], np.matmul(rhs[a : a + kk], u_h, out=ph[:kk])[:k], out=c)
        np.tanh(c, out=c)
        # h' = (1 - z) * h + z * c
        np.subtract(1.0, z, out=h)
        h *= hp
        h += np.multiply(z, c, out=ph[:k])
    out = np.empty((B, D))
    out[order] = hn[end]
    hs, rhs = hs[:P], rhs[:P]

    def vjp(g):
        # gh[j] is the gradient of node id j's h; the root's is dropped
        gh = np.zeros((P + 1, D))
        gh[end[tie]] = np.add.reduceat(g[order], tie, axis=0)
        dxp = np.empty((P, 3 * D))
        v1, v2 = np.empty((R, D)), np.empty((R, 2 * D))
        drh_, pu = np.empty((R, D)), np.empty((R, D))
        for t in range(T - 1, -1, -1):
            a, e = off[t], off[t + 1]
            k = e - a
            # gn becomes the gradient of each node's h before its step in place
            gn, zr, c, hp, d = gh[1 + a : 1 + e], zrs[a:e], cs[a:e], hs[a:e], dxp[a:e]
            z, r, drh = zr[:, :D], zr[:, D:], drh_[:k]
            # d_h = gn * z * (1 - c * c), drh = d_h U_h
            np.multiply(gn, z, out=d[:, 2 * D :])
            np.multiply(c, c, out=v1[:k])
            np.subtract(1.0, v1[:k], out=v1[:k])
            d[:, 2 * D :] *= v1[:k]
            np.matmul(d[:, 2 * D :], u[2 * D :], out=drh)
            # d_z = gn * (c - h), d_r = drh * h, both times zr * (1 - zr)
            np.subtract(c, hp, out=d[:, :D])
            d[:, :D] *= gn
            np.multiply(drh, hp, out=d[:, D : 2 * D])
            np.subtract(1.0, zr, out=v2[:k])
            v2[:k] *= zr
            d[:, : 2 * D] *= v2[:k]
            # gn * (1 - z) + drh * r + d_zr U_zr, summed over each parent's children
            np.subtract(1.0, z, out=v1[:k])
            gn *= v1[:k]
            drh *= r
            gn += drh
            gn += np.matmul(d[:, : 2 * D], u[: 2 * D], out=pu[:k])
            s = first[cut[t] : cut[t + 1]] - a
            gh[parent[a:e][s]] += np.add.reduceat(gn, s, axis=0)
        if M < 64:
            sums = (code == np.arange(M)[:, None]).astype(np.float64) @ dxp
        else:
            sums = dc._scatter_rows(code, dxp, (M, 3 * D))
        dw = sums.T @ table.data
        du_zr = dxp[:, : 2 * D].T @ hs
        du_h = dxp[:, 2 * D :].T @ rhs
        db = dxp.sum(axis=0)
        return (
            sums @ w,
            dw[:D], du_zr[:D], db[:D],
            dw[D : 2 * D], du_zr[D:], db[D : 2 * D],
            dw[2 * D :], du_h, db[2 * D :],
        )

    return dc.Var(out, (table, *p), vjp)


# The history windows as the query forwards laid them out before packing:
# every slot of the [B, L] grid gathered, the masked ones zeroed or dropped.
# The op is kept here so that padded_gru_sequence still reaches it while a
# test has put padded_gru_sequence in its place.
_packed_gru_sequence = dc.gru_sequence


def situation_per_slot(state: dc.ModelState, hours, dows, locs) -> dc.Var:
    """:func:`fdrec.features.situation` computed per slot: the three tables
    gathered and added at every slot, so each table's gradient is scattered
    from every slot rather than from each distinct situation's row."""
    return dc.add(
        dc.add(
            dc.gather_rows(state.leaf("emb.hour"), hours),
            dc.gather_rows(state.leaf("emb.dow"), dows),
        ),
        dc.gather_rows(state.leaf("emb.loc"), locs),
    )


def padded_window(seqs: features.UserSequences, flat_rows: np.ndarray,
                  limit: int) -> features.Window:
    """:func:`fdrec.features.gather_window` with a slot at every cell of the
    [B, L] grid, row-major; masked cells point at the user's first row."""
    user_codes = seqs.user[flat_rows]
    local = flat_rows - seqs.offsets[user_codes]
    rows, mask = features.window_rows(seqs, user_codes, local, limit)
    return features.Window(user=user_codes, mask=mask, row=None, slot=rows.ravel())


def padded_gru_sequence(p: dc.GRUParams, xs, mask) -> dc.Var:
    """:func:`fdrec.diffcore.gru_sequence` fed by ``xs = (table, codes)``
    with codes [B·L], one per grid cell in row-major order: the table's rows
    are gathered at every cell on the tape, and the run reads the real
    cells, picked by the raveled mask, so the table's gradient is scattered
    from the grid with zeros at the masked cells."""
    real = np.flatnonzero(np.asarray(mask, dtype=bool).ravel())
    return _packed_gru_sequence(p, (dc.gather_rows(*xs), real), mask)


def reprec_query_per_slot(state: dc.ModelState, data: features.Dataset,
                          rows: np.ndarray) -> dc.Var:
    """:func:`fdrec.reprec.reprec_query` with the cosine taken at every slot
    of the packed window rather than once per distinct (slot situation,
    current situation) pair: the same values and ``emb.store`` gradient, with
    each pair's gradient into the situation tables summed per slot."""
    seqs = data.seqs
    win = features.gather_window(seqs, rows, int(state.meta["window"]))
    N = len(win.slot)
    mu_u, idx = features.situations(state, seqs, np.concatenate([win.slot, rows]))
    slot_u, now_u = idx[:N], idx[N:][win.row]                           # [N], [N]

    mu = dc.gather_rows(mu_u, slot_u)                                   # [N,D]
    mu_now = dc.gather_rows(mu_u, now_u)                                # [N,D]

    num = dc.sum_(dc.mul(mu, mu_now), axis=-1)                          # [N]
    n_u = dc.sqrt(dc.add(dc.sum_(dc.mul(mu_u, mu_u), axis=-1), _NORM_EPS_SQ))
    n_hist = dc.gather_rows(n_u, slot_u)                                # [N]
    n_now = dc.gather_rows(n_u, now_u)                                  # [N]
    w = dc.div(num, dc.mul(n_hist, n_now))                              # [N]

    hist_emb = dc.gather_rows(state.leaf("emb.store"), seqs.store[win.slot])  # [N,D]
    return dc.segment_sum(dc.mul(dc.reshape(w, (N, 1)), hist_emb), win.row, len(rows))


def reprec_query_padded(state: dc.ModelState, data: features.Dataset,
                        rows: np.ndarray) -> dc.Var:
    """:func:`fdrec.reprec.reprec_query` over the padded [B, L] grid, the
    masked cells' cosines zeroed by the mask.  The grid's cells and the rows
    are embedded in one :func:`fdrec.features.situations` call, as the packed
    form embeds its N slots and the rows, and each cell reads its row's
    current situation.  The cosine is taken once per distinct (cell
    situation, current situation) pair of the grid and gathered back to the
    cells in row-major order, as the packed form gathers it to its slots; a
    masked cell's gradient is an exact zero, so the extra distinct situations
    and pairs it may add change no sum."""
    seqs = data.seqs
    win = padded_window(seqs, rows, int(state.meta["window"]))
    B, L = win.mask.shape
    mu_u, idx = features.situations(state, seqs, np.concatenate([win.slot, rows]))
    U = len(mu_u.data)
    key = idx[: B * L] * U + np.repeat(idx[B * L :], L)                 # [B·L]
    pairs, inverse = np.unique(key, return_inverse=True)
    slot_u, now_u = np.divmod(pairs, U)                                 # [Q], [Q]

    mu = dc.gather_rows(mu_u, slot_u)                                   # [Q,D]
    mu_now = dc.gather_rows(mu_u, now_u)                                # [Q,D]

    num = dc.sum_(dc.mul(mu, mu_now), axis=-1)                          # [Q]
    n_u = dc.sqrt(dc.add(dc.sum_(dc.mul(mu_u, mu_u), axis=-1), _NORM_EPS_SQ))
    n_hist = dc.gather_rows(n_u, slot_u)                                # [Q]
    n_now = dc.gather_rows(n_u, now_u)                                  # [Q]
    cos = dc.div(num, dc.mul(n_hist, n_now))                            # [Q]
    w = dc.mul(dc.gather_rows(cos, inverse.reshape(B, L)), win.mask)    # [B,L]

    hist_emb = dc.gather_rows(state.leaf("emb.store"),
                              seqs.store[win.slot].reshape(B, L))       # [B,L,D]
    return dc.sum_(dc.mul(dc.reshape(w, (B, L, 1)), hist_emb), axis=1)


def collab_trigger_dense(table: dc.Var, a: dc.Var, ids: np.ndarray,
                         weights: np.ndarray) -> dc.Var:
    """ExpRec's neighbour trigger [B, D] before pooling: every slot of the
    neighbour codes ``ids`` [B, K] (pad -1, read as row 0) activated, mixed by
    the row's ``a`` [B, M] and weighted by ``weights`` [B, K] at [B, K, D]."""
    B = len(ids)
    nb_emb = dc.gather_rows(table, np.maximum(ids, 0))                 # [B,K,D]
    terms = [dc.mul(dc.reshape(dc.getitem(a, (slice(None), slice(j, j + 1))), (B, 1, 1)),
                    act(nb_emb))
             for j, act in enumerate(_ACTIVATIONS_VAR)]
    cond = functools.reduce(dc.add, terms)
    return dc.sum_(dc.mul(cond, weights[:, :, None]), axis=1)


def exprec_query_dense(state: dc.ModelState, data: features.Dataset,
                       rows: np.ndarray) -> dc.Var:
    """:func:`fdrec.exprec.exprec_query` with :func:`collab_trigger_dense` as
    its neighbour trigger."""
    meta = state.meta
    mask = _check_mask(meta["ablate"])
    seqs = data.seqs
    win = features.gather_window(seqs, rows, int(meta["window"]))
    N = len(win.slot)
    mu_u, idx = features.situations(state, seqs, np.concatenate([win.slot, rows]))
    e_mu = dc.gather_rows(mu_u, idx[N:])
    situ_w = dc.gather_rows(mu_u, idx[:N])
    store_w = dc.gather_rows(state.leaf("emb.store"), seqs.store[win.slot])
    xs = dc.concat([store_w, situ_w], axis=-1)
    e_h = dc.gru_sequence(dc.gru_leaves(state, "gru.hist"), (xs, np.arange(N)), win.mask)
    a = dc.softmax(dc.dense(state.leaf("cond.w"), state.leaf("cond.b"), e_mu))
    u_emb = dc.gather_rows(state.leaf("emb.user"), win.user)
    e_u = _mix(a, [act(u_emb) for act in _ACTIVATIONS_VAR])
    nb_ids, nb_w = data.neighbors(meta["k_neighbors"], meta["neighbor_as_of"])
    e_cu = collab_trigger_dense(state.leaf("emb.user"), a, nb_ids[win.user], nb_w[win.user])
    logits = dc.dense(
        state.leaf("fuse.w"), state.leaf("fuse.b"), dc.concat([e_mu, e_u], axis=-1)
    )
    if mask.any():
        logits = dc.add(logits, np.where(mask, -np.inf, 0.0))
    return _mix(dc.softmax(logits, axis=-1), (e_mu, e_h, e_u, e_cu))


def adam_step_expression(state: dc.ModelState, lr: float, beta1: float = 0.9,
                         beta2: float = 0.999, eps: float = 1e-8,
                         weight_decay: float = 0.0) -> None:
    """:func:`fdrec.diffcore.adam_step` written apart from it, as whole-array
    expressions, each allocating its result, in the operand order whose bits
    the optimizer keeps."""
    state.step += 1
    t = state.step
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    for name, p in state.params.items():
        g = p.grad
        if name not in state.m:
            state.m[name], state.v[name] = np.zeros_like(g), np.zeros_like(g)
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        update = (m / c1) / (np.sqrt(v / c2) + eps)
        if weight_decay:
            p.values -= lr * weight_decay * p.values
        p.values -= lr * update
        p.grad[...] = 0.0


def zero_grads(state: dc.ModelState) -> None:
    for p in state.params.values():
        p.grad[...] = 0.0


def finite_difference_check(
    forward: Callable[[dc.ModelState], dc.Var],
    state: dc.ModelState,
    epsilon: float = 1e-5,
    num_coords: int = 150,
    rng_seed: int = 0,
    names: Sequence[str] | None = None,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``forward`` must be a deterministic scalar function of the state.  With
    ``names``, only those parameters' coordinates are sampled.  Errors
    are normalized by the largest sampled gradient magnitude so coordinates
    with negligible gradient do not dominate through rounding noise.
    """
    zero_grads(state)
    out = forward(state)
    if out.data.shape != ():
        raise ValueError("forward must return a scalar")
    if not np.isfinite(out.data):
        raise ValueError("forward produced a non-finite value")
    dc.backward(out)
    analytic = {name: p.grad.copy() for name, p in state.params.items()}
    zero_grads(state)

    coords: list[tuple[str, int]] = []
    for name, p in state.params.items():
        if names is None or name in names:
            coords.extend((name, i) for i in range(p.size))
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    if len(coords) > num_coords:
        chosen = rng.choice(len(coords), size=num_coords, replace=False)
        coords = [coords[int(i)] for i in chosen]

    flat = {name: p.values.reshape(-1) for name, p in state.params.items()}
    denom = max(max(np.abs(a).max() for a in analytic.values()), 1e-12)
    worst = 0.0
    for name, i in coords:
        theta = flat[name][i]
        h = epsilon * max(1.0, abs(theta))
        flat[name][i] = theta + h
        f_plus = float(forward(state).data)
        flat[name][i] = theta - h
        f_minus = float(forward(state).data)
        flat[name][i] = theta
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise ValueError("forward produced a non-finite value during probing")
        numeric = (f_plus - f_minus) / (2.0 * h)
        a = analytic[name].reshape(-1)[i]
        worst = max(worst, abs(a - numeric) / denom)
    return worst


def _circular(a: np.ndarray, b: int, period: int) -> np.ndarray:
    d = np.abs(a - b)
    return np.minimum(d, period - d)


def generate_synthetic_loop(cfg: SynthConfig) -> tuple[InteractionLog, dict[str, StoreMeta]]:
    """``dataio.generate_synthetic`` as it ran with per-order scans: each
    situation-matched repeat scans every past order of the user, and each
    exploration rebuilds the unvisited stores and tests them against the pool.
    It makes the same random draws in the same order.

    Raises for infeasible configurations (cannot explore enough distinct
    stores when repeats are disabled).
    """
    if cfg.n_users <= 0 or cfg.n_stores <= 0 or cfg.n_orders_per_user <= 0:
        raise ValueError("n_users, n_stores, n_orders_per_user must be positive")
    if not (0.0 <= cfg.repeat_prob <= 1.0):
        raise ValueError("repeat_prob must be within [0, 1]")
    if cfg.repeat_prob == 0.0 and cfg.n_orders_per_user > cfg.n_stores:
        raise ValueError(
            "infeasible: repeat_prob=0 needs at least as many stores as orders per user"
        )
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    sc = float(cfg.situation_coupling)
    cc = float(cfg.collab_coupling)

    width = max(4, len(str(cfg.n_stores - 1)))
    store_ids = [f"s{i:0{width}d}" for i in range(cfg.n_stores)]
    brands = rng.integers(0, cfg.n_brands, size=cfg.n_stores)
    cuisines = rng.integers(0, cfg.n_cuisines, size=cfg.n_stores)
    store_locs = rng.integers(0, cfg.n_locations, size=cfg.n_stores)
    catalog = {
        store_ids[i]: StoreMeta(
            store_ids[i], f"b{brands[i]:03d}", f"c{cuisines[i]:03d}", f"sl{store_locs[i]:03d}"
        )
        for i in range(cfg.n_stores)
    }

    n_clusters = max(1, min(cfg.n_clusters, cfg.n_users))
    # Each cluster is a community with a pool of favored stores and its own
    # situational convention: prototype situations are derived from store
    # attributes (cuisine sets the hour and weekday, the store's area the
    # delivery location) and then shifted by a per-cluster offset.  Within a
    # community, situations therefore predict store attributes — that is what
    # makes collab_coupling measurable — while the situation-to-store mapping
    # stays community-specific rather than global.
    pool_size = max(1, min(cfg.n_stores, round(cfg.n_stores * 0.035)))
    pool_members = [
        np.sort(rng.choice(cfg.n_stores, size=pool_size, replace=False))
        for _ in range(n_clusters)
    ]
    hour_off = rng.integers(0, 24, size=n_clusters)
    dow_off = rng.integers(0, 7, size=n_clusters)
    loc_off = rng.integers(0, cfg.n_locations, size=n_clusters)
    base_hour = (24 * cuisines) // cfg.n_cuisines
    base_dow = (7 * cuisines) // cfg.n_cuisines
    proto_hour = (base_hour[None, :] + hour_off[:, None]) % 24
    proto_dow = (base_dow[None, :] + dow_off[:, None]) % 7
    proto_loc = (store_locs[None, :] + loc_off[:, None]) % cfg.n_locations

    start_day = cfg.start_time // SECONDS_PER_DAY
    days_by_dow: list[np.ndarray] = []
    all_days = np.arange(cfg.span_days)
    for dow in range(7):
        match = all_days[(start_day + all_days + _EPOCH_WEEKDAY_SHIFT) % 7 == dow]
        days_by_dow.append(match if len(match) else all_days)

    n_modes = max(1, cfg.modes_per_user)

    uw = max(5, len(str(cfg.n_users - 1)))
    records: list[tuple[str, str, int, str]] = []
    for u in range(cfg.n_users):
        user_id = f"u{u:0{uw}d}"
        cluster = u % n_clusters
        pool = pool_members[cluster]
        # Personal modes are private habit situations; shared modes copy pool
        # store prototypes, so cluster-mates explore in overlapping
        # situations.  Repeat orders happen in personal modes and exploration
        # orders in shared ones, which keeps repeat habits decoupled from the
        # crowd pattern while explorations follow it.  One user sticks to few
        # shared modes (situational diversity lives across the community, not
        # within one user's own exploration history).
        personal_modes = [
            (int(rng.integers(24)), int(rng.integers(7)),
             int(rng.integers(cfg.n_locations)))
            for _ in range(n_modes)
        ]
        if len(pool):
            # anchors concentrate on a handful of pool stores so cluster-mates'
            # explorations overlap enough to make the community discoverable
            # from preferences alone
            s = int(pool[rng.integers(min(3, len(pool)))])
            shared_modes = [(int(proto_hour[cluster, s]), int(proto_dow[cluster, s]),
                             int(proto_loc[cluster, s]))]
        else:
            shared_modes = [(int(rng.integers(24)), int(rng.integers(7)),
                             int(rng.integers(cfg.n_locations)))]

        wants_repeat = rng.random(cfg.n_orders_per_user) < cfg.repeat_prob
        times = np.empty(cfg.n_orders_per_user, dtype=np.int64)
        locs = np.empty(cfg.n_orders_per_user, dtype=np.int64)
        for k in range(cfg.n_orders_per_user):
            if wants_repeat[k]:
                hour_m, dow_m, loc_m = personal_modes[int(rng.integers(n_modes))]
            else:
                hour_m, dow_m, loc_m = shared_modes[int(rng.integers(len(shared_modes)))]
            day_choices = days_by_dow[dow_m]
            day = int(day_choices[rng.integers(len(day_choices))])
            hour = int((hour_m + rng.integers(-1, 2)) % 24)
            times[k] = cfg.start_time + day * SECONDS_PER_DAY + hour * 3600 + int(
                rng.integers(3600)
            )
            locs[k] = loc_m
        order = np.argsort(times, kind="stable")
        times, locs, wants_repeat = times[order], locs[order], wants_repeat[order]
        hours = (times // 3600) % 24
        dows = ((times // SECONDS_PER_DAY) + _EPOCH_WEEKDAY_SHIFT) % 7

        visited: list[int] = []  # first-visit order
        visited_set: set[int] = set()
        # per visited store: past (hour, dow, loc) situations
        past: dict[int, list[tuple[int, int, int]]] = {}
        for k in range(cfg.n_orders_per_user):
            can_repeat = bool(visited)
            can_explore = len(visited_set) < cfg.n_stores
            if can_repeat and can_explore:
                is_repeat = bool(wants_repeat[k])
            else:
                is_repeat = can_repeat
            if is_repeat:
                # with probability sc return to the store whose past
                # situation best matches now; otherwise revisit uniformly
                if rng.random() < sc:
                    best_j = 0
                    best = -1.0
                    for j, s in enumerate(visited):
                        for (h0, w0, l0) in past[s]:
                            dh = abs(int(hours[k]) - h0)
                            d_hour = min(dh, 24 - dh) / 12.0
                            dw = abs(int(dows[k]) - w0)
                            d_dow = min(dw, 7 - dw) / 3.0
                            miss = 0.0 if int(locs[k]) == l0 else 1.0
                            sim = 1.0 - (d_hour + d_dow + miss) / 3.0
                            if sim > best:
                                best = sim
                                best_j = j
                    store = visited[best_j]
                else:
                    store = visited[int(rng.integers(len(visited)))]
            else:
                mask = np.ones(cfg.n_stores, dtype=bool)
                if visited_set:
                    mask[list(visited_set)] = False
                cand = np.nonzero(mask)[0]
                store = -1
                # with probability cc follow the crowd affinity between the
                # current situation and store prototypes; otherwise wander
                if rng.random() < cc:
                    in_pool = np.isin(cand, pool)
                    if in_pool.any():
                        ps = cand[in_pool]
                        dh = _circular(proto_hour[cluster, ps], int(hours[k]), 24) / 12.0
                        dw = _circular(proto_dow[cluster, ps], int(dows[k]), 7) / 3.0
                        miss = (proto_loc[cluster, ps] != int(locs[k])).astype(float)
                        aff = np.clip(1.0 - (dh + dw + miss) / 3.0, 0.0, 1.0) ** 8
                        total = aff.sum()
                        if total > 0:
                            pick = int(rng.choice(len(ps), p=aff / total))
                            store = int(ps[pick])
                if store < 0:
                    store = int(cand[rng.integers(len(cand))])
                visited.append(store)
                visited_set.add(store)
                past[store] = []
            past[store].append((int(hours[k]), int(dows[k]), int(locs[k])))
            records.append((user_id, store_ids[store], int(times[k]), f"l{locs[k]:03d}"))

    log = InteractionLog.from_records(records, tz_offset_minutes=0, catalog=catalog)
    return log, catalog


def write_interactions_tsv_loop(log: InteractionLog, path: str) -> None:
    """``dataio.write_interactions_tsv`` as it ran, one numpy lookup per cell."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\t".join(INTERACTIONS_HEADER) + "\n")
        for i in range(len(log)):
            fh.write(
                f"{log.user_ids[log.users[i]]}\t{log.store_ids[log.stores[i]]}"
                f"\t{int(log.times[i])}\t{log.location_ids[log.locs[i]]}\n"
            )


def filter_users_records(log: InteractionLog, min_orders: int) -> InteractionLog:
    """``dataio.filter_users`` as it ran, through string records and a
    second ``from_records``."""
    if min_orders < 0:
        raise ValueError("min_orders must be non-negative")
    counts = np.bincount(log.users, minlength=len(log.user_ids))
    keep = counts[log.users] >= min_orders
    records = [r for r, k in zip(_records(log), keep.tolist()) if k]
    catalog = None
    if log.catalog is not None:
        kept_stores = {r[1] for r in records}
        catalog = {s: m for s, m in log.catalog.items() if s in kept_stores}
    return InteractionLog.from_records(
        records, tz_offset_minutes=log.tz_offset_minutes, catalog=catalog
    )
