"""Situation similarity, Pearson correlation and preference-based user neighbors.

Situation similarity compares consumption situations on four facets (date
distance capped at 30 days, circular hour-of-day, circular day-of-week,
delivery-location mismatch), each normalized to [0, 1] and averaged.  User
neighbors are ranked by the Pearson correlation of relative store-frequency
vectors aligned on the union of both users' stores, for every user at once.
"""

from __future__ import annotations

import numpy as np

from .dataio import InteractionLog

DATE_CAP_DAYS = 30


def situation_similarity_arrays(
    day_index: np.ndarray,
    hour: np.ndarray,
    dow: np.ndarray,
    loc_match: np.ndarray,
    now_day: int | np.ndarray,
    now_hour: int | np.ndarray,
    now_dow: int | np.ndarray,
) -> np.ndarray:
    """Similarity in [0, 1] of each past situation to "now"; 1 iff all four
    facets coincide.

    ``loc_match`` is a boolean array (same delivery location as "now").  The
    "now" facets are scalars or arrays aligned with the past situations.
    """
    d_date = np.minimum(np.abs(day_index - now_day), DATE_CAP_DAYS) / DATE_CAP_DAYS
    dh = np.abs(hour - now_hour)
    d_hour = np.minimum(dh, 24 - dh) / 12.0
    dw = np.abs(dow - now_dow)
    d_dow = np.minimum(dw, 7 - dw) / 3.0
    mismatch = 1.0 - loc_match.astype(np.float64)
    return 1.0 - (d_date + d_hour + d_dow + mismatch) / 4.0


def ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``starts[i] + arange(lengths[i])`` for every ``i``, concatenated: the
    segments of a CSR layout, end to end."""
    offsets = np.cumsum(lengths) - lengths
    return np.repeat(starts - offsets, lengths) + np.arange(int(lengths.sum()))


def segment_pearson(x, y, lengths) -> np.ndarray:
    """Sample Pearson correlation of each segment of ``x`` against ``y``.

    ``x`` and ``y`` are the segments laid end to end, ``lengths`` their sizes
    (CSR form).  Returns one value per segment, NaN where it is undefined:
    either side constant, or a variance that is not positive.  Values are
    clipped to [-1, 1].  Raises ``ValueError`` on mismatched lengths or a
    segment of fewer than two points.

    Segments of one length are gathered into one ``[S, n]`` block, so each
    value has the bits a 1-d computation of that segment alone has: the row
    means reduce like ``ndarray.mean`` of the segment, and the three dot
    products are ``(1 x n) @ (n x 1)`` matmuls, the same BLAS dot as
    ``xc @ xc``.  (``np.add.reduceat`` and ``np.einsum`` sum in other orders.)
    """
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    lengths = np.asarray(lengths, dtype=np.int64)
    if (xa.shape != ya.shape or xa.ndim != 1 or lengths.ndim != 1
            or int(lengths.sum()) != len(xa)):
        raise ValueError("pearson needs equal-length 1-d sequences split by lengths")
    if (lengths < 2).any():
        raise ValueError("pearson needs at least two points")
    out = np.full(len(lengths), np.nan)
    starts = np.cumsum(lengths) - lengths
    by_length = np.argsort(lengths, kind="stable")
    sizes, firsts = np.unique(lengths[by_length], return_index=True)
    for n, rows in zip(sizes.tolist(), np.split(by_length, firsts[1:])):
        idx = starts[rows, None] + np.arange(n)
        xs, ys = xa[idx], ya[idx]
        # exact constant check: rounding in the mean must not turn an
        # undefined correlation into a spurious finite one
        varies = (xs != xs[:, :1]).any(axis=1) & (ys != ys[:, :1]).any(axis=1)
        xc = xs - xs.mean(axis=1, keepdims=True)
        yc = ys - ys.mean(axis=1, keepdims=True)
        vx, vy, cxy = (_row_dots(a, b) for a, b in ((xc, xc), (yc, yc), (xc, yc)))
        ok = varies & (vx > 0.0) & (vy > 0.0)
        r = np.divide(cxy, np.sqrt(vx * vy), out=np.full(len(rows), np.nan), where=ok)
        out[rows] = np.clip(r, -1.0, 1.0)
    return out


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a[i] @ b[i]`` for every row, each one BLAS dot of the row pair."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _counts_before(log: InteractionLog, as_of: int) -> np.ndarray:
    """[U, S] float counts of each user's orders at each store strictly
    before ``as_of``."""
    n_users, n_stores = len(log.user_ids), len(log.store_ids)
    seen = log.times < as_of
    cells = log.users[seen].astype(np.int64) * n_stores + log.stores[seen]
    return np.bincount(cells, minlength=n_users * n_stores).reshape(
        n_users, n_stores).astype(np.float64)


def neighbor_table(
    log: InteractionLog, k: int, as_of: int
) -> tuple[np.ndarray, np.ndarray]:
    """Every user's top-``k`` neighbors as user codes ``ids [U, k]`` and
    similarities ``sims [U, k]``; unused slots hold -1 and 0.

    Only interactions strictly before ``as_of`` count.  Every other user is a
    candidate; undefined or non-overlapping correlations score 0.  Rows are
    sorted by descending similarity, ties by ascending user id.  A user with
    no history before ``as_of`` has no neighbors.  Works in user blocks with
    dense linear algebra so it stays fast on logs with tens of thousands of
    users.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    n_users = len(log.user_ids)
    counts = _counts_before(log, as_of)
    totals = counts.sum(axis=1)
    active = totals > 0
    pref = np.zeros_like(counts)
    pref[active] = counts[active] / totals[active, None]
    support = counts > 0
    n_distinct = support.sum(axis=1).astype(np.float64)

    q = (pref * pref).sum(axis=1)
    # each user's place in ascending-id order, the tiebreak
    rank_by_id = np.argsort(np.argsort(np.array(log.user_ids), kind="stable"))

    ids = np.full((n_users, k), -1, dtype=np.int64)
    out_sims = np.zeros((n_users, k))
    kk = min(k, n_users - 1)
    block = max(1, min(512, n_users))
    supportf = support.astype(np.float64)
    for start in range(0, n_users, block):
        stop = min(start + block, n_users)
        dot = pref[start:stop] @ pref.T
        overlap = supportf[start:stop] @ supportf.T
        m = n_distinct[start:stop, None] + n_distinct[None, :] - overlap
        with np.errstate(divide="ignore", invalid="ignore"):
            inv_m = np.where(m > 0, 1.0 / np.maximum(m, 1.0), 0.0)
            vu = q[start:stop, None] - inv_m
            vv = q[None, :] - inv_m
            r = (dot - inv_m) / np.sqrt(np.maximum(vu, 0.0) * np.maximum(vv, 0.0))
        defined = (
            (overlap > 0)
            & (m >= 2)
            & (vu > 1e-15)
            & (vv > 1e-15)
            & active[start:stop, None]
            & active[None, :]
        )
        r = np.where(defined, np.clip(r, -1.0, 1.0), 0.0)
        ids[start:stop, :kk], out_sims[start:stop, :kk] = _top_neighbors(
            r, start, active, rank_by_id, kk
        )
    return ids, out_sims


def _top_neighbors(
    r: np.ndarray, start: int, active: np.ndarray, rank_by_id: np.ndarray, kk: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(ids, sims) [B, kk]``: the ``kk`` most similar other users of the
    block rows ``r [B, U]`` of users ``start ..`` (whose own entries become
    -inf), ties by ascending id rank; rows of inactive users hold -1 and 0."""
    rows = np.arange(len(r))
    r[rows, start + rows] = -np.inf
    top = np.lexsort((np.broadcast_to(rank_by_id, r.shape), -r), axis=1)[:, :kk]
    keep = active[start : start + len(r), None]
    return (np.where(keep, top, -1),
            np.where(keep, np.take_along_axis(r, top, axis=1), 0.0))
