"""Shared model plumbing: one stage's data view and the forward-pass helpers.

A :class:`Dataset` holds the split, its vocabularies, per-user chronological
feature arrays, memoized frozen neighbour tables and test case sets, and the
fingerprint of the files it came from.  ``ingest`` writes one with
:meth:`Dataset.save`, the case sets for ``[eval]`` included; every later
stage reads it back with :func:`load`.  The vocabularies and sequences are
not stored: a dataset builds them on first use, so a stage that reads only
the split (``analyze``) never builds them, nor unpacks a stored case set.
Every builder, trainer and scorer takes that one object.  Models index
stores by catalog order (so never-visited stores are scoreable), users by
log order, and delivery locations by train-partition order with row 0
reserved as a fallback for values unseen during training.

The feature arrays (:class:`UserSequences`) lay the log out in
:attr:`~fdrec.dataio.InteractionLog.by_user` order and read each user's first
visits off the split's repeat flags, so no step walks a history in Python.

Every model builder starts from :func:`new_state`.  The models' forward
passes share the packed history-window gatherer, the situation embedding and
:func:`query_rows`, which runs a model's query forward, the one its training
loss uses, for inference: in near-equal chunks of at most ``QUERY_CHUNK``
(256) rows, taken in ascending flat-row order, nothing padded.  256 is the
largest row count the tests sweep :mod:`fdrec.diffcore`'s row rule at,
below its measured 300-row bound, so a set of up to 256 cases takes one
forward.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from . import diffcore as dc
from .dataio import (DatasetSplit, InteractionLog, StoreMeta, read_tensors,
                     write_tensors)

FALLBACK = 0  # reserved location row
# rows per inference forward pass; bounds the tape a scorer builds at once
QUERY_CHUNK = 256


@dataclass
class Vocabs:
    store_ids: list[str]
    location_ids: list[str]  # location_ids[0] is the fallback token
    user_ids: list[str]
    store_index: dict[str, int]
    location_index: dict[str, int]


def build_vocabs(split: DatasetSplit) -> Vocabs:
    log = split.log
    if log.catalog is None:
        raise ValueError("split log has no store catalog attached")
    store_ids = list(log.catalog)
    train_locs = np.unique(log.locs[split.train_idx]).tolist()
    location_ids = ["<other>"] + sorted(log.location_ids[c] for c in train_locs)
    user_ids = list(log.user_ids)
    return Vocabs(
        store_ids=store_ids,
        location_ids=location_ids,
        user_ids=user_ids,
        store_index={s: i for i, s in enumerate(store_ids)},
        location_index={l: i for i, l in enumerate(location_ids)},
    )


@dataclass
class UserSequences:
    """Per-user chronological rows in model-vocabulary codes (CSR layout).

    Rows follow :attr:`fdrec.dataio.InteractionLog.by_user`: user ``u``'s are
    ``offsets[u] .. offsets[u + 1]``, oldest first, and ``user`` maps each row
    to its user.  A row is a first visit exactly when it is not a repeat, so
    ``first_stores`` (the non-repeat rows' stores) holds each user's distinct
    stores in first-visit order, user ``u``'s from ``first_offsets[u]``.
    """

    offsets: np.ndarray
    user: np.ndarray  # flat row -> user code
    store: np.ndarray
    hour: np.ndarray
    dow: np.ndarray
    day: np.ndarray
    loc: np.ndarray  # model location codes (0 = fallback)
    raw_loc: np.ndarray  # log location codes, for exact-match similarity
    repeat: np.ndarray
    distinct_before: np.ndarray
    first_rank: np.ndarray  # rank of this row's store in the user's first-visit order
    first_stores: np.ndarray
    first_offsets: np.ndarray
    flat_of_global: np.ndarray  # global log position -> flat row

    def priors(self, row: int) -> np.ndarray:
        """Distinct stores the user of flat ``row`` visited before it, in
        first-visit order."""
        start = self.first_offsets[self.user[row]]
        return self.first_stores[start : start + self.distinct_before[row]]


def build_sequences(split: DatasetSplit, vocabs: Vocabs) -> UserSequences:
    log = split.log
    n = len(log)
    order, offsets = log.by_user

    store_map = np.array(
        [vocabs.store_index[s] for s in log.store_ids], dtype=np.int64
    )
    loc_map = np.array(
        [vocabs.location_index.get(l, FALLBACK) for l in log.location_ids],
        dtype=np.int64,
    )
    day, hour, dow = log.facets

    user = log.users[order].astype(np.int64)
    store = store_map[log.stores[order]]
    repeat = split.repeat_flags[order]
    flat_of_global = np.empty(n, dtype=np.int64)
    flat_of_global[order] = np.arange(n)

    # firsts[r]: first visits in flat rows before r, over all users
    firsts = np.concatenate([[0], np.cumsum(~repeat)])
    first_offsets = firsts[offsets]
    distinct_before = firsts[:-1] - first_offsets[user]
    # a store's rank is distinct_before at the user's first visit to it,
    # which is the first row of its (user, store) key
    _, first_row, key_of_row = np.unique(
        user * len(vocabs.store_ids) + store, return_index=True, return_inverse=True
    )
    first_rank = distinct_before[first_row][key_of_row]

    return UserSequences(
        offsets=offsets,
        user=user,
        store=store,
        hour=hour[order].astype(np.int64),
        dow=dow[order].astype(np.int64),
        day=day[order].astype(np.int64),
        loc=loc_map[log.locs[order]],
        raw_loc=log.locs[order].astype(np.int64),
        repeat=repeat,
        distinct_before=distinct_before,
        first_rank=first_rank,
        first_stores=store[~repeat],
        first_offsets=first_offsets,
        flat_of_global=flat_of_global,
    )


DATA_MAGIC = b"FDRECDATA1\n"
_LOG_ARRAYS = ("users", "stores", "times", "locs")
_SPLIT_ARRAYS = ("repeat_flags", "train_idx", "valid_idx", "test_idx")
_HEADER_KEYS = ("fingerprint", "ids", "catalog", "tz_offset_minutes", "boundaries",
                "neighbors", "cases")


@dataclass(eq=False)
class Dataset:
    """One stage's data: the split and fingerprint, and the vocabularies,
    sequences, neighbour tables and test case sets, each built on first use
    unless :func:`load` restored it."""

    split: DatasetSplit
    fingerprint: str = ""
    _neighbors: dict = field(default_factory=dict, init=False, repr=False)
    _cases: dict = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def vocabs(self) -> Vocabs:
        return build_vocabs(self.split)

    @cached_property
    def seqs(self) -> UserSequences:
        return build_sequences(self.split, self.vocabs)

    def neighbors(self, k: int, as_of: int) -> tuple[np.ndarray, np.ndarray]:
        """Frozen neighbour codes and weights from
        :func:`fdrec.exprec.neighbor_arrays`, computed once per ``(k, as_of)``."""
        key = (int(k), int(as_of))
        if key not in self._neighbors:
            from . import exprec  # exprec imports this module

            self._neighbors[key] = exprec.neighbor_arrays(self.split.log, *key)
        return self._neighbors[key]

    def cases(self, protocol: str, seed: int, max_cases: int = 0):
        """The test :class:`~fdrec.evalharness.CaseSet` that
        :func:`fdrec.evalharness.build_cases` gives, built once per ``(protocol,
        seed, max_cases)`` unless :func:`load` restored it."""
        from . import evalharness  # evalharness imports this module

        key = (protocol, int(seed), int(max_cases))
        got = self._cases.get(key)
        if got is None:
            got = evalharness.build_cases(self.split, *key, seqs=self.seqs, vocabs=self.vocabs)
        elif isinstance(got, tuple):  # as load read it: see save
            (position, length, n_prior, tcol), real = got
            cand = np.zeros((len(position), int(length.max(initial=1))), dtype=np.int64)
            cand[np.arange(cand.shape[1]) < length[:, None]] = real
            log = self.split.log
            got = evalharness.CaseSet(protocol, position, log.users[position],
                                      cand[np.arange(len(cand)), tcol], cand, length, n_prior,
                                      tcol, self.vocabs.store_ids, log.user_ids)
        self._cases[key] = got
        return got

    def save(self, path: str) -> None:
        """Write the split, fingerprint and memoized neighbours and case sets
        for :func:`load`.  A case set is stored as its [4, N] position,
        length, n_prior and tcol rows and its real candidates, in the
        narrowest integer dtype that holds every store code."""
        split, log = self.split, self.split.log
        header = {
            "fingerprint": self.fingerprint,
            "ids": [log.user_ids, log.store_ids, log.location_ids],
            "catalog": [list(vars(meta).values()) for meta in log.catalog.values()],
            "tz_offset_minutes": log.tz_offset_minutes,
            "boundaries": [split.valid_boundary, split.test_boundary],
            "neighbors": list(self._neighbors),
            "cases": list(self._cases),
        }
        tensors = {name: getattr(log, name) for name in _LOG_ARRAYS}
        tensors.update((name, getattr(split, name)) for name in _SPLIT_ARRAYS)
        for i, (ids, weights) in enumerate(self._neighbors.values()):
            tensors[f"neighbors.{i}.ids"] = ids
            tensors[f"neighbors.{i}.weights"] = weights
        code = np.min_scalar_type(len(self.vocabs.store_ids) - 1)
        for i, key in enumerate(list(self._cases)):
            c = self.cases(*key)
            tensors[f"cases.{i}.rows"] = np.stack([c.position, c.length, c.n_prior, c.tcol])
            tensors[f"cases.{i}.cand"] = c.cand[c.mask].astype(code)
        write_tensors(path, DATA_MAGIC, header, tensors)


def load(path: str) -> Dataset:
    """What :meth:`Dataset.save` wrote, neighbours and case sets memoized;
    ``ValueError`` naming any tensor missing or of another dtype kind, shape or range."""
    header, tensors = read_tensors(path, DATA_MAGIC, _HEADER_KEYS)
    again = "run `fdrec ingest` again"

    # tensors[name] of dtype ``kind`` and ``shape`` (None: any size), values in [lo, hi)
    def tensor(name: str, kind: str, shape: tuple, lo: int = 0, hi: int | None = None):
        if name not in tensors:
            raise ValueError(f"{path}: no tensor {name!r}; {again}")
        t = tensors[name]
        if (t.dtype.kind not in kind or t.ndim != len(shape)
                or any(want not in (None, got) for want, got in zip(shape, t.shape))
                or hi is not None and t.size and (t.min() < lo or t.max() >= hi)):
            raise ValueError(f"{path}: damaged tensor {name!r}; {again}")
        return t

    n, n_users = len(tensor("times", "i", (None,))), len(header["ids"][0])
    users, stores, locs = (tensor(name, "iu", (n,), 0, len(ids))
                           for name, ids in zip(("users", "stores", "locs"), header["ids"]))
    log = InteractionLog(
        *header["ids"], users, stores, tensors["times"], locs,
        tz_offset_minutes=header["tz_offset_minutes"],
        catalog={row[0]: StoreMeta(*row) for row in header["catalog"]},
    )
    split = DatasetSplit(log, *header["boundaries"], tensor("repeat_flags", "b", (n,)),
                         *(tensor(name, "iu", (None,), 0, n) for name in _SPLIT_ARRAYS[1:]))
    data = Dataset(split, header["fingerprint"])
    for i, key in enumerate(header["neighbors"]):
        ids = tensor(f"neighbors.{i}.ids", "i", (n_users, None), -1, n_users)
        data._neighbors[tuple(key)] = (ids, tensor(f"neighbors.{i}.weights", "f", ids.shape))
    for i, key in enumerate(header["cases"]):
        rows = tensor(f"cases.{i}.rows", "i", (4, None))
        real = tensor(f"cases.{i}.cand", "iu", (None,), 0, len(header["catalog"]))
        position, length, n_prior, tcol = rows
        if (rows.dtype != np.int64 or real.shape != (length.sum(),)
                or not ((0 <= position) & (position < n) & (0 <= n_prior)
                        & (n_prior <= length) & (0 <= tcol) & (tcol < length)).all()):
            raise ValueError(f"{path}: damaged case set {i}; {again}")
        data._cases[tuple(key)] = (rows, real)
    return data


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
    """Index arrays for a batch of interactions and the rows before each.

    ``mask`` [B, L] marks the real slots among the ``L`` most recent prior
    rows (see :func:`window_rows`).  The N real slots, in row-major order,
    are the flat sequence rows ``slot``; models read their codes off
    :class:`UserSequences` there.
    """

    user: np.ndarray  # [B]
    mask: np.ndarray  # [B, L] bools, True = real slot
    row: np.ndarray   # [N] batch row of each slot
    slot: np.ndarray  # [N] flat sequence row of each slot


def gather_window(seqs: UserSequences, flat_rows: np.ndarray, limit: int) -> Window:
    """Window of at most ``limit`` prior rows for each interaction at ``flat_rows``."""
    user_codes = seqs.user[flat_rows]
    local = flat_rows - seqs.offsets[user_codes]
    rows, mask = window_rows(seqs, user_codes, local, limit)
    return Window(user=user_codes, mask=mask, row=np.nonzero(mask)[0], slot=rows[mask])


def new_state(data: Dataset, name: str, seed: int, **meta) -> dc.ModelState:
    """An empty ``name`` model drawing its parameters from ``seed``.

    Its ``meta`` holds what every checkpoint records, the model name, the
    store and location vocabularies and the log's time frame, plus the
    builder's own ``meta`` keys."""
    log = data.split.log
    state = dc.ModelState(seed=seed)
    state.meta = {
        "model": name,
        "store_ids": data.vocabs.store_ids,
        "location_ids": data.vocabs.location_ids,
        "tz_offset_minutes": log.tz_offset_minutes,
        "epoch": log.epoch,
        **meta,
    }
    return state


def add_situation_tables(state: dc.ModelState, dim: int, n_locations: int) -> None:
    """Register the hour, weekday and location tables :func:`situation` reads."""
    state.add_embedding("emb.hour", 24, dim)
    state.add_embedding("emb.dow", 7, dim)
    state.add_embedding("emb.loc", n_locations, dim)


def situations(state: dc.ModelState, seqs: UserSequences,
               rows: np.ndarray) -> tuple[dc.Var, np.ndarray]:
    """Each distinct (hour, weekday, location) of the flat sequence ``rows``
    embedded once: vectors [U, D] and ``inverse``, of ``rows``' shape, such
    that ``vectors[inverse]`` is :func:`situation`.  A vector's values have
    the bits of the per-row sum, since each row's adds are row-local; the
    tables' gradients are reassociated, summed per distinct row first."""
    tables = [state.leaf(name) for name in ("emb.hour", "emb.dow", "emb.loc")]
    codes = [seqs.hour[rows], seqs.dow[rows], seqs.loc[rows]]
    # key (h·n_dow + d)·n_loc + l; a code outside its table raises ValueError
    key = np.ravel_multi_index(codes, [len(t.data) for t in tables])
    # unique on the raveled key: numpy 1.24 and 2 then shape ``inverse`` alike
    _, first, inverse = np.unique(key.ravel(), return_index=True, return_inverse=True)
    hour, dow, loc = (dc.gather_rows(t, c.ravel()[first]) for t, c in zip(tables, codes))
    return dc.add(dc.add(hour, dow), loc), inverse.reshape(key.shape)


def situation(state: dc.ModelState, seqs: UserSequences, rows: np.ndarray) -> dc.Var:
    """Embedded situation of the flat sequence ``rows``, any index shape:
    hour + weekday + location vectors.  Its values have the bits of the
    three-table sum at each row; see :func:`situations` for the gradients."""
    return dc.gather_rows(*situations(state, seqs, rows))


# a model's query forward: flat sequence rows [B] -> query vectors [B, D]
Query = Callable[[dc.ModelState, Dataset, np.ndarray], dc.Var]


def query_rows(state: dc.ModelState, data: Dataset, rows: np.ndarray,
               query: Query) -> np.ndarray:
    """``query(state, data, chunk).data`` over the ``n`` ``rows``, in
    ``ceil(n / QUERY_CHUNK)`` near-equal chunks, nothing padded, returned in
    the order of ``rows``.

    The chunks take the rows in ascending flat-row order, which is
    user-major, so a user's windows share one GRU prefix trie and one
    :func:`situations` pass: the ensemble's frozen bases over 600
    long-history slate rows, 3 chunks, took 45 ms against 57 ms in log
    order (best of 15, one BLAS thread).

    ``query`` maps flat rows [B] to per-row vectors [B, ...]; it is the same
    forward pass a model's training loss uses.  Its products keep
    :mod:`fdrec.diffcore`'s row rule, so a row's vector does not depend on
    its chunk mates.  The tests sweep the rule from 1 to 256 rows, and
    OpenBLAS keeps a dense head's row up to 300 rows and rounds it
    differently at 301: 512-row chunks gave ExpRec and intent outputs other
    than 128-row ones, while 256-row ones gave the same bytes.  So
    ``QUERY_CHUNK`` is 256, the sweep's largest row count, and goes no
    higher without a wider sweep.
    """
    order = np.argsort(rows, kind="stable")
    parts = [query(state, data, chunk).data
             for chunk in np.array_split(rows[order], max(-(-len(rows) // QUERY_CHUNK), 1))]
    return np.concatenate(parts)[np.argsort(order)]
