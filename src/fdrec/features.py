"""Shared model plumbing: vocabularies and per-user chronological feature arrays.

Models index stores by catalog order (so never-visited stores are scoreable),
users by log order, and delivery locations by train-partition order with row 0
reserved as a fallback for values unseen during training.

The models' forward passes share the history-window gatherer, the situation
embedding and :func:`query_rows`, which runs a training forward for inference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import diffcore as dc
from .dataio import DatasetSplit

FALLBACK = 0  # reserved location row
# rows per inference forward pass; bounds the tape a scorer builds at once
QUERY_CHUNK = 128


@dataclass
class Vocabs:
    store_ids: list[str]
    location_ids: list[str]  # location_ids[0] is the fallback token
    user_ids: list[str]
    store_index: dict[str, int]
    location_index: dict[str, int]
    user_index: dict[str, int]

    def store_code(self, store_id: str) -> int:
        code = self.store_index.get(store_id)
        if code is None:
            raise KeyError(f"store {store_id!r} not in catalog")
        return code

    def location_code(self, location_id: str) -> int:
        return self.location_index.get(location_id, FALLBACK)


def build_vocabs(split: DatasetSplit) -> Vocabs:
    log = split.log
    if log.catalog is None:
        raise ValueError("split log has no store catalog attached")
    store_ids = list(log.catalog)
    train_locs = sorted({log.location_ids[log.locs[i]] for i in split.train_idx})
    location_ids = ["<other>"] + train_locs
    user_ids = list(log.user_ids)
    return Vocabs(
        store_ids=store_ids,
        location_ids=location_ids,
        user_ids=user_ids,
        store_index={s: i for i, s in enumerate(store_ids)},
        location_index={l: i for i, l in enumerate(location_ids)},
        user_index={u: i for i, u in enumerate(user_ids)},
    )


@dataclass
class UserSequences:
    """Per-user chronological rows in model-vocabulary codes (CSR layout).

    ``offsets[u] .. offsets[u + 1]`` bounds user ``u``'s rows.  ``first_*``
    holds each user's distinct stores in first-visit order so the stores
    available before local position ``j`` are
    ``first_stores[first_offsets[u] : first_offsets[u] + distinct_before[row]]``.
    """

    offsets: np.ndarray
    position: np.ndarray  # flat row -> global log position
    store: np.ndarray
    hour: np.ndarray
    dow: np.ndarray
    day: np.ndarray
    loc: np.ndarray  # model location codes (0 = fallback)
    raw_loc: np.ndarray  # log location codes, for exact-match similarity
    time: np.ndarray
    repeat: np.ndarray
    distinct_before: np.ndarray
    first_rank: np.ndarray  # rank of this row's store in the user's first-visit order
    first_stores: np.ndarray
    first_offsets: np.ndarray
    flat_of_global: np.ndarray  # global log position -> flat row
    local_of_global: np.ndarray  # global log position -> user-local index

    def user_slice(self, user_code: int) -> slice:
        return slice(int(self.offsets[user_code]), int(self.offsets[user_code + 1]))

    def prior_store_codes(self, user_code: int, local_pos: int) -> np.ndarray:
        """Distinct stores visited before user-local position ``local_pos``,
        in first-visit order; a position past the end means the full history."""
        base = int(self.first_offsets[user_code])
        length = int(self.offsets[user_code + 1] - self.offsets[user_code])
        if local_pos >= length:
            count = int(self.first_offsets[user_code + 1]) - base
        else:
            count = int(self.distinct_before[int(self.offsets[user_code]) + local_pos])
        return self.first_stores[base : base + count]


def build_sequences(split: DatasetSplit, vocabs: Vocabs) -> UserSequences:
    log = split.log
    n = len(log)
    n_users = len(log.user_ids)
    order = np.argsort(log.users, kind="stable")  # stable keeps time order per user
    counts = np.bincount(log.users, minlength=n_users)
    offsets = np.zeros(n_users + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])

    store_map = np.array(
        [vocabs.store_index[s] for s in log.store_ids], dtype=np.int64
    )
    loc_map = np.array(
        [vocabs.location_index.get(l, FALLBACK) for l in log.location_ids],
        dtype=np.int64,
    )
    day, hour, dow = log.facets

    store = store_map[log.stores[order]]
    flat_of_global = np.empty(n, dtype=np.int64)
    flat_of_global[order] = np.arange(n)
    local_of_global = np.empty(n, dtype=np.int64)
    local_of_global[order] = np.arange(n) - offsets[:-1].repeat(counts)

    distinct_before = np.zeros(n, dtype=np.int64)
    first_rank = np.zeros(n, dtype=np.int64)
    first_stores_parts: list[list[int]] = []
    first_offsets = np.zeros(n_users + 1, dtype=np.int64)
    for u in range(n_users):
        lo, hi = int(offsets[u]), int(offsets[u + 1])
        seen: dict[int, int] = {}
        firsts: list[int] = []
        for row in range(lo, hi):
            s = int(store[row])
            distinct_before[row] = len(seen)
            rank = seen.get(s)
            if rank is None:
                rank = len(seen)
                seen[s] = rank
                firsts.append(s)
            first_rank[row] = rank
        first_stores_parts.append(firsts)
        first_offsets[u + 1] = first_offsets[u] + len(firsts)
    first_stores = np.array(
        [s for part in first_stores_parts for s in part], dtype=np.int64
    )

    return UserSequences(
        offsets=offsets,
        position=order,
        store=store,
        hour=hour[order].astype(np.int64),
        dow=dow[order].astype(np.int64),
        day=day[order].astype(np.int64),
        loc=loc_map[log.locs[order]],
        raw_loc=log.locs[order].astype(np.int64),
        time=log.times[order],
        repeat=split.repeat_flags[order],
        distinct_before=distinct_before,
        first_rank=first_rank,
        first_stores=first_stores,
        first_offsets=first_offsets,
        flat_of_global=flat_of_global,
        local_of_global=local_of_global,
    )


def window_rows(
    seqs: UserSequences, user_codes: np.ndarray, local_pos: np.ndarray, limit: int
) -> tuple[np.ndarray, np.ndarray]:
    """Flat-row indices of the ``limit`` most recent rows before each position.

    Returns (rows [B, L], mask [B, L]); masked slots point at the user's first
    row and must be neutralized by the mask.  Rows are oldest to newest with
    left padding, so the last column is the most recent interaction.
    """
    L = int(min(limit, local_pos.max())) if len(local_pos) else 0
    L = max(L, 1)
    base = seqs.offsets[user_codes][:, None]
    rel = local_pos[:, None] - L + np.arange(L)[None, :]
    mask = rel >= 0
    rows = base + np.where(mask, rel, 0)
    return rows, mask


@dataclass(frozen=True)
class Window:
    """Code arrays for a batch of interactions and the rows before each.

    ``[B, L]`` fields hold the ``L`` most recent prior rows (see
    :func:`window_rows`); ``[B]`` fields describe the interactions themselves.
    """

    user: np.ndarray      # [B]
    store: np.ndarray     # [B, L]
    hour: np.ndarray      # [B, L]
    dow: np.ndarray       # [B, L]
    loc: np.ndarray       # [B, L]
    repeat: np.ndarray    # [B, L] int flags
    mask: np.ndarray      # [B, L] floats, 1 = real slot
    now_hour: np.ndarray  # [B]
    now_dow: np.ndarray   # [B]
    now_loc: np.ndarray   # [B]
    target: np.ndarray    # [B] store codes


def gather_window(seqs: UserSequences, flat_rows: np.ndarray, limit: int) -> Window:
    """Window of at most ``limit`` prior rows for each interaction at ``flat_rows``."""
    user_codes = np.searchsorted(seqs.offsets, flat_rows, side="right") - 1
    local = flat_rows - seqs.offsets[user_codes]
    rows, mask = window_rows(seqs, user_codes, local, limit)
    return Window(
        user=user_codes,
        store=seqs.store[rows],
        hour=seqs.hour[rows],
        dow=seqs.dow[rows],
        loc=seqs.loc[rows],
        repeat=seqs.repeat[rows].astype(np.int64),
        mask=mask.astype(np.float64),
        now_hour=seqs.hour[flat_rows],
        now_dow=seqs.dow[flat_rows],
        now_loc=seqs.loc[flat_rows],
        target=seqs.store[flat_rows],
    )


def situation(state: dc.ModelState, hours, dows, locs) -> dc.Var:
    """Embedded situation: hour + weekday + location vectors, any index shape."""
    return dc.add(
        dc.add(
            dc.gather_rows(state.leaf("emb.hour"), hours),
            dc.gather_rows(state.leaf("emb.dow"), dows),
        ),
        dc.gather_rows(state.leaf("emb.loc"), locs),
    )


def query_rows(forward: Callable[[np.ndarray], dc.Var], rows: np.ndarray) -> np.ndarray:
    """``forward(chunk).data`` over ``rows``, in chunks of ``QUERY_CHUNK`` rows.

    ``forward`` maps flat rows [B] to per-row vectors [B, ...]; it is the
    same forward pass a model's training loss uses.  The last chunk is padded
    with row 0, so every pass has the same shape: BLAS rounding depends on
    matrix shapes, and a row's vector must not depend on its chunk mates.
    """
    n = len(rows)
    padded = np.zeros(-(-max(n, 1) // QUERY_CHUNK) * QUERY_CHUNK, dtype=np.int64)
    padded[:n] = rows
    parts = [forward(padded[i : i + QUERY_CHUNK]).data
             for i in range(0, len(padded), QUERY_CHUNK)]
    return np.concatenate(parts)[:n]
