"""Interaction logs for food delivery: parsing, filtering, labeling, splitting, synthesis.

The on-disk format is a UTF-8, LF-terminated, tab-separated file with header
``user_id<TAB>store_id<TAB>unix_time_s<TAB>location_id``; store catalogs use
``store_id<TAB>brand_id<TAB>cuisine_id<TAB>store_location_id``.  All ids are
opaque strings.  Situation facets (day index, hour, day of week) derive
deterministically from the unix timestamp and a configured UTC offset.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import operator
import os
import struct
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

SECONDS_PER_DAY = 86400
SECONDS_PER_WEEK = 7 * SECONDS_PER_DAY
# 1970-01-01 was a Thursday; facet 0 means Monday.
_EPOCH_WEEKDAY_SHIFT = 3

INTERACTIONS_HEADER = ("user_id", "store_id", "unix_time_s", "location_id")
STORES_HEADER = ("store_id", "brand_id", "cuisine_id", "store_location_id")


@contextlib.contextmanager
def atomic_open(path: str, mode: str = "w"):
    """Write ``path`` through a temporary file in its directory that one
    ``os.replace`` moves over it when the block ends; an error inside the
    block removes the temporary file and leaves ``path`` as it was."""
    tmp = f"{path}.{os.getpid()}.tmp"
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
    try:
        with open(tmp, mode, **text) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def write_tensors(path: str, magic: bytes, header: dict, tensors: dict) -> None:
    """The package's one binary format, written atomically: ``magic``, a u64
    length, the sorted-key JSON of ``header`` plus a ``tensors`` list of each
    array's name, shape and dtype (left out for ``<f8``), then each array's
    bytes in that order, all little-endian.  Equal inputs give equal bytes."""
    specs, blobs = [], []
    with atomic_open(path, "wb") as fh:
        for name, values in tensors.items():
            dtype = values.dtype.newbyteorder("<")
            if dtype.kind not in "biuf":
                raise TypeError(f"tensor {name!r} has unsupported dtype {dtype}")
            specs.append({"name": name, "shape": list(values.shape),
                          **({} if dtype.str == "<f8" else {"dtype": dtype.str})})
            blobs.append(np.ascontiguousarray(values, dtype=dtype).tobytes())
        text = json.dumps({**header, "tensors": specs}, sort_keys=True,
                          separators=(",", ":")).encode("utf-8")
        fh.write(b"".join([magic, struct.pack("<Q", len(text)), text, *blobs]))


def read_tensors(path: str, magic: bytes,
                 keys: tuple[str, ...] = ()) -> tuple[dict, dict[str, np.ndarray]]:
    """``(header, tensors)`` of a :func:`write_tensors` file; raises
    ``ValueError`` naming ``path`` on a wrong magic string, a truncated or
    overlong file, a header without ``tensors`` or one of ``keys``, or a bad spec."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(magic):
        raise ValueError(f"{path}: not a {magic.decode().strip()} file")
    try:
        at = len(magic) + 8 + struct.unpack_from("<Q", blob, len(magic))[0]
        header = json.loads(blob[len(magic) + 8 : at])
    except (ValueError, struct.error) as err:
        raise ValueError(f"{path}: truncated ({err})") from None
    missing = [key for key in ("tensors", *keys) if key not in header]
    if missing:
        raise ValueError(f"{path}: damaged header, without {', '.join(missing)}")
    tensors = {}
    try:
        specs = [(spec["name"], np.dtype(spec.get("dtype", "<f8")),
                  tuple(operator.index(d) for d in spec["shape"]))
                 for spec in header["tensors"]]
    except (KeyError, TypeError) as err:
        raise ValueError(f"{path}: damaged tensor spec ({err!r})") from None
    for name, dtype, shape in specs:
        if min(shape, default=0) < 0:
            raise ValueError(f"{path}: damaged tensor spec (negative dimension in {name!r})")
        count = int(np.prod(shape))
        if at + count * dtype.itemsize > len(blob):
            raise ValueError(f"{path}: truncated in tensor {name!r}")
        tensors[name] = np.frombuffer(blob, dtype, count, at).reshape(shape).copy()
        at += count * dtype.itemsize
    if at < len(blob):
        raise ValueError(f"{path}: {len(blob) - at} trailing bytes after the last tensor")
    return header, tensors


class ParseError(ValueError):
    """Raised for malformed input files; carries the 1-based line number."""

    def __init__(self, path: str, line: int, message: str):
        super().__init__(f"{path}:{line}: {message}")
        self.path = path
        self.line = line


@dataclass(frozen=True)
class StoreMeta:
    store_id: str
    brand_id: str
    cuisine_id: str
    store_location_id: str


def time_facets(
    times: np.ndarray, tz_offset_minutes: int, epoch: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Derive (day_index, hour, day_of_week) arrays from unix times.

    ``day_index`` counts local calendar days since the local day of ``epoch``.
    """
    times = np.asarray(times, dtype=np.int64)
    local = times + tz_offset_minutes * 60
    epoch_day = (epoch + tz_offset_minutes * 60) // SECONDS_PER_DAY
    day = local // SECONDS_PER_DAY
    day_index = day - epoch_day
    hour = (local // 3600) % 24
    dow = (day + _EPOCH_WEEKDAY_SHIFT) % 7
    return day_index, hour, dow


def _encode(values: Iterable[str]) -> tuple[list[str], np.ndarray]:
    """First-appearance encoding: returns (vocabulary, codes)."""
    vocab: dict[str, int] = {}
    codes = []
    for v in values:
        code = vocab.get(v)
        if code is None:
            code = len(vocab)
            vocab[v] = code
        codes.append(code)
    return list(vocab), np.asarray(codes, dtype=np.int32)


class InteractionLog:
    """Time-ordered interaction log with columnar storage and per-user indices.

    Rows are globally sorted by time; ties keep input order.  Vocabularies are
    in order of first appearance after sorting.
    """

    def __init__(
        self,
        user_ids: list[str],
        store_ids: list[str],
        location_ids: list[str],
        users: np.ndarray,
        stores: np.ndarray,
        times: np.ndarray,
        locs: np.ndarray,
        tz_offset_minutes: int = 0,
        catalog: dict[str, StoreMeta] | None = None,
    ):
        self.user_ids = user_ids
        self.store_ids = store_ids
        self.location_ids = location_ids
        self.users = users
        self.stores = stores
        self.times = times
        self.locs = locs
        self.tz_offset_minutes = tz_offset_minutes
        self.catalog = catalog
        if catalog is not None:
            missing = [s for s in store_ids if s not in catalog]
            if missing:
                raise ValueError(f"stores missing from catalog: {missing[:5]}")

    @classmethod
    def from_records(
        cls,
        records: Sequence[tuple[str, str, int, str]],
        tz_offset_minutes: int = 0,
        catalog: dict[str, StoreMeta] | None = None,
    ) -> "InteractionLog":
        times = np.asarray([r[2] for r in records], dtype=np.int64)
        order = np.argsort(times, kind="stable")
        user_ids, users = _encode(records[i][0] for i in order)
        store_ids, stores = _encode(records[i][1] for i in order)
        location_ids, locs = _encode(records[i][3] for i in order)
        return cls(
            user_ids, store_ids, location_ids,
            users, stores, times[order], locs,
            tz_offset_minutes=tz_offset_minutes, catalog=catalog,
        )

    def __len__(self) -> int:
        return len(self.times)

    @property
    def epoch(self) -> int:
        """Earliest interaction time (0 for an empty log)."""
        return int(self.times[0]) if len(self.times) else 0

    @cached_property
    def facets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(day_index, hour, day_of_week) arrays aligned with the log."""
        return time_facets(self.times, self.tz_offset_minutes, self.epoch)

    @cached_property
    def by_user(self) -> tuple[np.ndarray, np.ndarray]:
        """Positions grouped by user code, ascending within each user, and CSR
        offsets: user ``u``'s positions are ``order[offsets[u]:offsets[u + 1]]``."""
        counts = np.bincount(self.users, minlength=len(self.user_ids))
        return np.argsort(self.users, kind="stable"), np.concatenate([[0], np.cumsum(counts)])

    def with_catalog(self, catalog: dict[str, StoreMeta]) -> "InteractionLog":
        return InteractionLog(
            self.user_ids, self.store_ids, self.location_ids,
            self.users, self.stores, self.times, self.locs,
            tz_offset_minutes=self.tz_offset_minutes, catalog=catalog,
        )


def _text(path: str, raw: bytes | None):
    """The file at ``path`` opened as text, or ``raw``, its bytes already read."""
    if raw is None:
        return open(path, "r", encoding="utf-8", newline="")
    return io.StringIO(raw.decode("utf-8"), newline="")


def parse_interactions(
    path: str, tz_offset_minutes: int = 0, raw: bytes | None = None
) -> InteractionLog:
    """Parse a tab-separated interaction file into a time-sorted log.

    Rejects a missing or wrong header and reports malformed rows with their
    1-based line number (the header is line 1).  ``raw``, when given, is the
    file's content, which a caller read once to both hash and parse.
    """
    records: list[tuple[str, str, int, str]] = []
    with _text(path, raw) as fh:
        header = fh.readline()
        if tuple(header.rstrip("\n").split("\t")) != INTERACTIONS_HEADER:
            raise ParseError(path, 1, "missing or malformed header")
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 4:
                raise ParseError(path, lineno, f"expected 4 fields, got {len(fields)}")
            user_id, store_id, raw_time, location_id = fields
            if not user_id or not store_id or not location_id:
                raise ParseError(path, lineno, "empty id field")
            try:
                time = int(raw_time)
            except ValueError:
                raise ParseError(path, lineno, f"bad unix_time_s {raw_time!r}") from None
            if time < 0:
                raise ParseError(path, lineno, f"negative unix_time_s {time}")
            records.append((user_id, store_id, time, location_id))
    return InteractionLog.from_records(records, tz_offset_minutes=tz_offset_minutes)


def parse_stores(path: str, raw: bytes | None = None) -> dict[str, StoreMeta]:
    """Parse a store catalog file; insertion order follows the file.  ``raw``
    is as for :func:`parse_interactions`."""
    catalog: dict[str, StoreMeta] = {}
    with _text(path, raw) as fh:
        header = fh.readline()
        if tuple(header.rstrip("\n").split("\t")) != STORES_HEADER:
            raise ParseError(path, 1, "missing or malformed header")
        for lineno, line in enumerate(fh, start=2):
            line = line.rstrip("\n")
            if not line:
                continue
            fields = line.split("\t")
            if len(fields) != 4:
                raise ParseError(path, lineno, f"expected 4 fields, got {len(fields)}")
            if any(not f for f in fields):
                raise ParseError(path, lineno, "empty field")
            if fields[0] in catalog:
                raise ParseError(path, lineno, f"duplicate store_id {fields[0]!r}")
            catalog[fields[0]] = StoreMeta(*fields)
    return catalog


def _records(log: InteractionLog) -> list[tuple[str, str, int, str]]:
    """The rows of ``log`` as (user_id, store_id, unix_time_s, location_id)."""
    u, s, loc = log.user_ids, log.store_ids, log.location_ids
    columns = (log.users, log.stores, log.times, log.locs)
    return [(u[a], s[b], t, loc[c]) for a, b, t, c in zip(*(x.tolist() for x in columns))]


def write_interactions_tsv(log: InteractionLog, path: str) -> None:
    with atomic_open(path) as fh:
        fh.write("\t".join(INTERACTIONS_HEADER) + "\n")
        fh.writelines(f"{u}\t{s}\t{t}\t{loc}\n" for u, s, t, loc in _records(log))


def write_stores_tsv(catalog: dict[str, StoreMeta], path: str) -> None:
    with atomic_open(path) as fh:
        fh.write("\t".join(STORES_HEADER) + "\n")
        for meta in catalog.values():
            fh.write(
                f"{meta.store_id}\t{meta.brand_id}\t{meta.cuisine_id}"
                f"\t{meta.store_location_id}\n"
            )


def _recode(ids: list[str], codes: np.ndarray) -> tuple[list[str], np.ndarray]:
    """The ``ids`` that ``codes`` use and the codes renumbered, both by first
    appearance, as :func:`_encode` numbers them."""
    values, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    order = np.argsort(first)  # new code -> index into values
    new_code = np.argsort(order).astype(np.int32)
    return [ids[c] for c in values[order].tolist()], new_code[inverse]


def filter_users(log: InteractionLog, min_orders: int) -> InteractionLog:
    """Keep users with at least ``min_orders`` interactions in the full log.
    The kept rows' users, stores and locations are coded by first appearance
    among them, and the catalog keeps their stores in its own order."""
    if min_orders < 0:
        raise ValueError("min_orders must be non-negative")
    counts = np.bincount(log.users, minlength=len(log.user_ids))
    keep = counts[log.users] >= min_orders
    (user_ids, users), (store_ids, stores), (location_ids, locs) = (
        _recode(ids, codes[keep]) for ids, codes in
        ((log.user_ids, log.users), (log.store_ids, log.stores), (log.location_ids, log.locs)))
    kept = set(store_ids)
    catalog = (None if log.catalog is None
               else {s: m for s, m in log.catalog.items() if s in kept})
    return InteractionLog(user_ids, store_ids, location_ids, users, stores, log.times[keep],
                          locs, tz_offset_minutes=log.tz_offset_minutes, catalog=catalog)


def label_repeat_flags(log: InteractionLog) -> np.ndarray:
    """Boolean array: True where the user ordered from that store strictly earlier.

    "Earlier" is the log's global order (time, then input order), so the flags
    are independent of any train/validation/test partitioning.
    """
    if not len(log):
        return np.zeros(0, dtype=bool)
    key = log.users.astype(np.int64) * len(log.store_ids) + log.stores
    _, first = np.unique(key, return_index=True)
    flags = np.ones(len(log), dtype=bool)
    flags[first] = False
    return flags


@dataclass
class DatasetSplit:
    """Global-timeline split; repeat flags are computed on the full log."""

    log: InteractionLog
    valid_boundary: int
    test_boundary: int
    repeat_flags: np.ndarray
    train_idx: np.ndarray
    valid_idx: np.ndarray
    test_idx: np.ndarray


def split_global_timeline(
    log: InteractionLog, test_window_s: int, valid_window_s: int
) -> DatasetSplit:
    """Split by absolute time: last ``test_window_s`` is test, the preceding
    ``valid_window_s`` is validation, the rest is train.

    User histories still cross the boundaries: repeat flags and candidate
    sets always consult the full log.
    """
    if test_window_s <= 0 or valid_window_s <= 0:
        raise ValueError("split windows must be positive")
    if not len(log):
        raise ValueError("cannot split an empty log")
    span = int(log.times[-1]) - int(log.times[0])
    if test_window_s + valid_window_s >= span:
        raise ValueError(
            f"split windows ({test_window_s + valid_window_s}s) must be smaller "
            f"than the log time span ({span}s)"
        )
    end = int(log.times[-1])
    test_boundary = end - test_window_s
    valid_boundary = test_boundary - valid_window_s
    times = log.times
    train_idx = np.nonzero(times < valid_boundary)[0]
    valid_idx = np.nonzero((times >= valid_boundary) & (times < test_boundary))[0]
    test_idx = np.nonzero(times >= test_boundary)[0]
    for name, idx in (("train", train_idx), ("valid", valid_idx), ("test", test_idx)):
        if not len(idx):
            raise ValueError(f"empty {name} partition")
    return DatasetSplit(
        log=log,
        valid_boundary=valid_boundary,
        test_boundary=test_boundary,
        repeat_flags=label_repeat_flags(log),
        train_idx=train_idx,
        valid_idx=valid_idx,
        test_idx=test_idx,
    )


@dataclass(frozen=True)
class SynthConfig:
    """Synthetic log shape and behavioral couplings.

    ``repeat_prob`` governs orders where a repeat is possible (each user's
    first order is necessarily an exploration).  ``situation_coupling`` pulls
    repeat choices toward stores previously ordered in similar situations;
    ``collab_coupling`` pulls explorations toward a situation-store affinity
    shared by the user's cluster.  ``seed`` seeds the generator.
    """

    n_users: int = 1000
    n_stores: int = 200
    n_orders_per_user: int = 15
    repeat_prob: float = 0.55
    situation_coupling: float = 0.0
    collab_coupling: float = 0.0
    n_locations: int = 20
    n_brands: int = 40
    n_cuisines: int = 12
    span_days: int = 28
    start_time: int = 1_600_041_600  # a midnight, so day boundaries are clean
    modes_per_user: int = 3
    n_clusters: int = 8
    seed: int = 0


def _check_synth(cfg: SynthConfig) -> None:
    """Raise ``ValueError`` naming the first ``[synth]`` key that
    :func:`generate_synthetic` cannot take: a non-finite float, a count below 1,
    a probability or coupling outside [0, 1], or a negative start time or seed."""
    for key, v in asdict(cfg).items():
        if isinstance(v, float) and not math.isfinite(v):
            raise ValueError(f"[synth] {key} must be finite")
    for key in ("n_users", "n_stores", "n_orders_per_user", "n_locations",
                "n_brands", "n_cuisines", "span_days", "modes_per_user",
                "n_clusters"):
        if getattr(cfg, key) < 1:
            raise ValueError(f"[synth] {key} must be >= 1")
    for key in ("repeat_prob", "situation_coupling", "collab_coupling"):
        if not 0.0 <= getattr(cfg, key) <= 1.0:
            raise ValueError(f"[synth] {key} must be within [0, 1]")
    for key in ("start_time", "seed"):
        if getattr(cfg, key) < 0:
            raise ValueError(f"[synth] {key} must be >= 0")


def _circular(a: np.ndarray, b: np.ndarray | int, period: int) -> np.ndarray:
    d = np.abs(a - b)
    return np.minimum(d, period - d)


def generate_synthetic(cfg: SynthConfig) -> tuple[InteractionLog, dict[str, StoreMeta]]:
    """Generate a deterministic synthetic log with plantable regularities.

    Raises ``ValueError`` for a config that :func:`_check_synth` rejects or that
    cannot explore enough distinct stores when repeats are disabled.

    A seed's log is fixed by the order and arguments of the scalar draws
    below, so none may be batched, reordered, added or skipped: a size-n
    ``integers`` call does not consume the stream like n scalar calls.  What
    draws nothing is computed once per user.  ``generate_synthetic_loop`` in
    ``tests/oracles.py``, the per-order scans this replaced, gives the same log.
    """
    _check_synth(cfg)
    if cfg.repeat_prob == 0.0 and cfg.n_orders_per_user > cfg.n_stores:
        raise ValueError(
            "infeasible: repeat_prob=0 needs at least as many stores as orders per user"
        )
    rng = np.random.Generator(np.random.PCG64(cfg.seed))

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

    n_clusters = min(cfg.n_clusters, cfg.n_users)
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

    n_modes = cfg.modes_per_user

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
        # anchors concentrate on a handful of pool stores so cluster-mates'
        # explorations overlap enough to make the community discoverable
        # from preferences alone
        s = int(pool[rng.integers(min(3, len(pool)))])
        shared_modes = [(int(proto_hour[cluster, s]), int(proto_dow[cluster, s]),
                         int(proto_loc[cluster, s]))]

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
        # sim[k, i]: how well order i's situation matches order k's, in the
        # float operations of the scalar rule 1 - (d_hour + d_dow + miss) / 3
        sim = 1.0 - (_circular(hours[:, None], hours, 24) / 12.0
                     + _circular(dows[:, None], dows, 7) / 3.0
                     + (locs[:, None] != locs).astype(float)) / 3.0
        # aff[k, p]: the crowd affinity of order k to pool store p
        dh = _circular(proto_hour[cluster, pool], hours[:, None], 24) / 12.0
        dw = _circular(proto_dow[cluster, pool], dows[:, None], 7) / 3.0
        miss = (proto_loc[cluster, pool] != locs[:, None]).astype(float)
        aff = np.clip(1.0 - (dh + dw + miss) / 3.0, 0.0, 1.0) ** 8

        visited: list[int] = []  # first-visit order
        rank = np.empty(cfg.n_orders_per_user, dtype=np.int64)  # each order's index in visited
        pool_left = np.ones(pool_size, dtype=bool)  # unvisited pool stores
        for k, (t, loc) in enumerate(zip(times.tolist(), locs.tolist())):
            # the first order explores; once every store is visited, all repeat
            if visited and (wants_repeat[k] or len(visited) == cfg.n_stores):
                # with probability situation_coupling return to the store whose
                # past situation best matches now, the earliest visited on a
                # tie; otherwise revisit uniformly
                if rng.random() < cfg.situation_coupling:
                    past = sim[k, :k]
                    j = int(rank[:k][past == past.max()].min())
                else:
                    j = int(rng.integers(len(visited)))
            else:
                store = -1
                # with probability collab_coupling follow the crowd affinity of
                # the current situation to the unvisited pool stores; else wander
                if rng.random() < cfg.collab_coupling and pool_left.any():
                    w = aff[k, pool_left]
                    total = w.sum()
                    if total > 0:
                        store = int(pool[pool_left][int(rng.choice(len(w), p=w / total))])
                if store < 0:
                    # the store-th unvisited store, in store order
                    store = int(rng.integers(cfg.n_stores - len(visited)))
                    for v in sorted(visited):
                        if v > store:
                            break
                        store += 1
                j = len(visited)
                visited.append(store)
                pool_left &= pool != store
            rank[k] = j
            records.append((user_id, store_ids[visited[j]], t, f"l{loc:03d}"))

    log = InteractionLog.from_records(records, tz_offset_minutes=0, catalog=catalog)
    return log, catalog
