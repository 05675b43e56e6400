import configparser
import dataclasses
import json
import os
import re
import struct

import numpy as np
import pytest

from fdrec import dataio
from fdrec.config import ConfigError, load_config, write_config
from fdrec.dataio import (
    SECONDS_PER_DAY,
    InteractionLog,
    ParseError,
    StoreMeta,
    SynthConfig,
    filter_users,
    generate_synthetic,
    label_repeat_flags,
    parse_interactions,
    parse_stores,
    split_global_timeline,
    time_facets,
    write_interactions_tsv,
    write_stores_tsv,
)
from conftest import make_log
from oracles import (filter_users_records, generate_synthetic_loop, interactions, per_user,
                     write_interactions_tsv_loop)

# 2020-09-14 00:00:00 UTC, a Monday.
MONDAY = 1_600_041_600


def test_time_facets_known_timestamp():
    t = MONDAY + 2 * SECONDS_PER_DAY + 13 * 3600  # Wednesday 13:00 UTC
    day, hour, dow = time_facets(np.array([t]), 0, epoch=MONDAY)
    assert (day[0], hour[0], dow[0]) == (2, 13, 2)


def test_time_facets_timezone_shift_crosses_midnight():
    t = MONDAY + 23 * 3600 + 1800  # 23:30 UTC
    day_utc, hour_utc, dow_utc = time_facets(np.array([t]), 0, epoch=MONDAY)
    day_east, hour_east, dow_east = time_facets(np.array([t]), 60, epoch=MONDAY)
    assert (day_utc[0], hour_utc[0], dow_utc[0]) == (0, 23, 0)
    # +60 minutes pushes the local clock into Tuesday...
    assert (hour_east[0], dow_east[0]) == (0, 1)
    # ...but the epoch day also shifts with the same offset, so day_index
    # stays anchored to the local calendar of the first interaction.
    assert day_east[0] == 1


def test_log_sorted_by_time_with_stable_ties():
    log = make_log(
        [
            ("u2", "b", 50, "l1"),
            ("u1", "a", 10, "l1"),
            ("u3", "c", 50, "l2"),
        ]
    )
    assert [i.user_id for i in interactions(log)] == ["u1", "u2", "u3"]
    assert [i.store_id for i in interactions(log)] == ["a", "b", "c"]


def test_vocabularies_first_appearance_order():
    log = make_log([("u1", "b", 1, "l2"), ("u2", "a", 2, "l1"), ("u1", "a", 3, "l2")])
    assert log.user_ids == ["u1", "u2"]
    assert log.store_ids == ["b", "a"]
    assert log.location_ids == ["l2", "l1"]


def test_parse_interactions_roundtrip(tmp_path):
    log = make_log(
        [("u1", "a", 5, "l1"), ("u2", "b", 3, "l2"), ("u1", "b", 9, "l1")]
    )
    path = tmp_path / "inter.tsv"
    write_interactions_tsv(log, str(path))
    back = parse_interactions(str(path))
    assert interactions(back) == interactions(log)


def test_parse_interactions_rejects_bad_rows(tmp_path):
    path = tmp_path / "inter.tsv"
    path.write_text("user_id\tstore_id\tunix_time_s\tlocation_id\nu1\ts1\tnope\tl1\n")
    with pytest.raises(ParseError, match=r":2: bad unix_time_s"):
        parse_interactions(str(path))
    path.write_text("wrong\theader\n")
    with pytest.raises(ParseError, match=r":1: "):
        parse_interactions(str(path))
    path.write_text(
        "user_id\tstore_id\tunix_time_s\tlocation_id\nu1\ts1\t-4\tl1\n"
    )
    with pytest.raises(ParseError, match="negative"):
        parse_interactions(str(path))


def test_parse_stores_roundtrip_and_duplicates(tmp_path):
    catalog = {
        "s1": StoreMeta("s1", "b1", "c1", "sl1"),
        "s2": StoreMeta("s2", "b2", "c1", "sl2"),
    }
    path = tmp_path / "stores.tsv"
    write_stores_tsv(catalog, str(path))
    assert parse_stores(str(path)) == catalog
    with open(path, "a") as fh:
        fh.write("s1\tb9\tc9\tsl9\n")
    with pytest.raises(ParseError, match="duplicate store_id"):
        parse_stores(str(path))


def test_catalog_must_cover_log_stores():
    with pytest.raises(ValueError, match="missing from catalog"):
        InteractionLog.from_records(
            [("u1", "s1", 1, "l1")],
            catalog={"other": StoreMeta("other", "b", "c", "sl")},
        )


def test_filter_users_keeps_full_histories():
    records = [("u1", "a", t, "l1") for t in range(5)]
    records += [("u2", "a", t, "l1") for t in range(3)]
    log = make_log(records)
    kept = filter_users(log, min_orders=5)
    assert set(i.user_id for i in interactions(kept)) == {"u1"}
    assert len(kept) == 5
    assert kept.catalog is not None and set(kept.catalog) == {"a"}


# u2's rows hold the only visit to store "b" and the only location "l9";
# u5's one row is the first to "c" and "l2", so dropping u5 moves them
# behind "a" and "l1"; "z" is in the catalog but never visited
_FILTER_LOG = [("u5", "c", 0, "l2"), ("u1", "a", 1, "l1"), ("u2", "b", 2, "l9"),
               ("u3", "c", 3, "l2"), ("u1", "c", 4, "l2"), ("u3", "a", 4, "l1"),
               ("u1", "a", 6, "l3"), ("u2", "a", 7, "l1"), ("u3", "c", 8, "l3"),
               ("u4", "d", 9, "l4")]


@pytest.mark.parametrize("records", [_FILTER_LOG, _FILTER_LOG[::-1], []],
                         ids=["time-sorted", "reversed-input", "empty"])
@pytest.mark.parametrize("min_orders", [0, 1, 2, 3, 4])
def test_filter_users_equals_the_record_round_trip(records, min_orders):
    """Re-coding by first appearance keeps the ids, codes, dtypes and catalog
    order that parsing the kept rows as records gives."""
    stores = ["z", "d", "c", "b", "a"]
    catalog = {s: StoreMeta(s, f"b{i}", "c", "sl") for i, s in enumerate(stores)}
    log = make_log(records, catalog=catalog, tz_offset_minutes=90)
    got, want = filter_users(log, min_orders), filter_users_records(log, min_orders)
    for name in ("users", "stores", "times", "locs"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        np.testing.assert_array_equal(a, b, err_msg=name)
    assert (got.user_ids, got.store_ids, got.location_ids) == (
        want.user_ids, want.store_ids, want.location_ids)
    assert list(got.catalog.items()) == list(want.catalog.items())
    assert got.tz_offset_minutes == 90
    assert filter_users(log.with_catalog(None), min_orders).catalog is None


@pytest.mark.parametrize("seed", [1, 2])
def test_filter_users_equals_the_record_round_trip_on_a_random_log(seed):
    """40 users with 1-12 orders each over 60 stores, 9 locations and tied
    times: each threshold drops some users, and with them stores and
    locations that only they used."""
    gen = np.random.default_rng(seed)
    records = [(f"u{u}", f"s{gen.integers(60)}", int(gen.integers(50)), f"l{gen.integers(9)}")
               for u in range(40) for _ in range(gen.integers(1, 13))]
    catalog = {f"s{i}": StoreMeta(f"s{i}", "b", "c", "sl") for i in gen.permutation(70)}
    log = make_log(records, catalog=catalog)
    for min_orders in (0, 4, 8, 12, 13):
        got, want = filter_users(log, min_orders), filter_users_records(log, min_orders)
        assert len(got) == len(want)
        for name in ("users", "stores", "times", "locs"):
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name))
        assert (got.user_ids, got.store_ids, got.location_ids) == (
            want.user_ids, want.store_ids, want.location_ids)
        assert list(got.catalog) == list(want.catalog)


def test_repeat_flags_first_visit_is_exploration():
    log = make_log(
        [
            ("u1", "a", 1, "l"),
            ("u1", "b", 2, "l"),
            ("u1", "a", 3, "l"),
            ("u2", "a", 4, "l"),
            ("u1", "a", 5, "l"),
        ]
    )
    assert label_repeat_flags(log).tolist() == [False, False, True, False, True]


def test_split_boundaries_and_partitions():
    records = [("u1", "a", t * SECONDS_PER_DAY, "l") for t in range(10)]
    log = make_log(records)
    split = split_global_timeline(
        log, test_window_s=2 * SECONDS_PER_DAY, valid_window_s=3 * SECONDS_PER_DAY
    )
    end = 9 * SECONDS_PER_DAY
    assert split.test_boundary == end - 2 * SECONDS_PER_DAY
    assert split.valid_boundary == split.test_boundary - 3 * SECONDS_PER_DAY
    assert len(split.train_idx) + len(split.valid_idx) + len(split.test_idx) == len(log)
    assert (log.times[split.test_idx] >= split.test_boundary).all()
    assert (log.times[split.train_idx] < split.valid_boundary).all()


def test_split_rejects_degenerate_windows():
    log = make_log([("u1", "a", t, "l") for t in range(10)])
    with pytest.raises(ValueError, match="must be positive"):
        split_global_timeline(log, test_window_s=0, valid_window_s=1)
    with pytest.raises(ValueError, match="smaller"):
        split_global_timeline(log, test_window_s=6, valid_window_s=6)


def test_split_repeat_flags_cross_boundaries():
    # u1 visits "a" in train and again in test: the test row is a repeat even
    # though its only earlier visit is outside the test partition.
    records = [("u1", "a", 0, "l"), ("u1", "b", 100, "l"), ("u1", "a", 200, "l"),
               ("u2", "c", 0, "l"), ("u2", "c", 100, "l"), ("u2", "c", 200, "l")]
    log = make_log(records)
    split = split_global_timeline(log, test_window_s=50, valid_window_s=60)
    test_pos = split.test_idx
    flags = split.repeat_flags[test_pos]
    users = [log.user_ids[log.users[p]] for p in test_pos]
    assert dict(zip(users, flags.tolist())) == {"u1": True, "u2": True}


def test_synthetic_is_deterministic_and_feasible():
    cfg = SynthConfig(n_users=20, n_stores=15, n_orders_per_user=6, seed=3)
    log_a, cat_a = generate_synthetic(cfg)
    log_b, cat_b = generate_synthetic(cfg)
    assert interactions(log_a) == interactions(log_b)
    assert cat_a == cat_b
    assert len(log_a) == 20 * 6
    assert log_a.catalog is not None
    log_c, _ = generate_synthetic(dataclasses.replace(cfg, seed=4))
    assert interactions(log_a) != interactions(log_c)


def test_synthetic_first_order_never_repeats():
    cfg = SynthConfig(n_users=30, n_stores=12, n_orders_per_user=5, repeat_prob=1.0,
                      seed=1)
    log, _ = generate_synthetic(cfg)
    flags = label_repeat_flags(log)
    for positions in per_user(log).values():
        assert not flags[positions[0]]
        # with repeat_prob=1 every later order repeats the first store
        assert flags[positions[1:]].all()


def test_synthetic_repeat_probability_is_respected():
    cfg = SynthConfig(n_users=400, n_stores=50, n_orders_per_user=12,
                      repeat_prob=0.55, seed=9)
    log, _ = generate_synthetic(cfg)
    flags = label_repeat_flags(log)
    eligible = np.ones(len(log), dtype=bool)
    for positions in per_user(log).values():
        eligible[positions[0]] = False
    ratio = flags[eligible].mean()
    assert abs(ratio - 0.55) < 0.02


def test_synthetic_rejects_infeasible_exploration():
    with pytest.raises(ValueError):
        generate_synthetic(
            SynthConfig(n_users=2, n_stores=3, n_orders_per_user=5, repeat_prob=0.0)
        )


def test_synthetic_time_span_and_store_ids():
    cfg = SynthConfig(n_users=25, n_stores=40, n_orders_per_user=8, span_days=10,
                      seed=2)
    log, catalog = generate_synthetic(cfg)
    span = int(log.times[-1]) - int(log.times[0])
    assert span <= 10 * SECONDS_PER_DAY
    assert log.times[0] >= cfg.start_time
    assert list(catalog) == [f"s{i:04d}" for i in range(40)]


_SYNTH_BASE = SynthConfig(n_users=6, n_stores=200, n_orders_per_user=20, span_days=14,
                          situation_coupling=0.6, collab_coupling=0.6)


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("overrides", [
    {"situation_coupling": 0.0, "collab_coupling": 0.0},
    {},
    {"situation_coupling": 1.0, "collab_coupling": 1.0},
    {"situation_coupling": 1.0, "collab_coupling": 0.0},
    {"situation_coupling": 0.0, "collab_coupling": 1.0},
    {"repeat_prob": 0.0, "collab_coupling": 1.0},
    {"repeat_prob": 1.0, "situation_coupling": 1.0},
    {"n_stores": 8, "repeat_prob": 0.3, "situation_coupling": 1.0, "collab_coupling": 1.0},
    {"n_stores": 1},
    {"n_clusters": 10},
    {"modes_per_user": 1, "situation_coupling": 1.0},
    {"span_days": 3, "situation_coupling": 1.0, "collab_coupling": 1.0},
], ids=["uncoupled", "coupled", "fully-coupled", "situation-only", "collab-only",
        "no-repeats", "all-repeats", "forced-repeats", "one-store", "more-clusters-than-users",
        "one-mode", "short-span"])
def test_synthetic_log_equals_the_per_order_scan(tmp_path, overrides, seed):
    """The generator draws the reference's random numbers in the same order,
    so every seed gives the same log, catalog and TSV bytes."""
    cfg = dataclasses.replace(_SYNTH_BASE, seed=seed, **overrides)
    log, catalog = generate_synthetic(cfg)
    ref, ref_catalog = generate_synthetic_loop(cfg)
    for name in ("users", "stores", "times", "locs"):
        np.testing.assert_array_equal(getattr(log, name), getattr(ref, name), err_msg=name)
    assert (log.user_ids, log.store_ids, log.location_ids) == (
        ref.user_ids, ref.store_ids, ref.location_ids)
    assert catalog == ref_catalog == log.catalog
    write_interactions_tsv(log, str(tmp_path / "new.tsv"))
    write_interactions_tsv_loop(ref, str(tmp_path / "ref.tsv"))
    assert (tmp_path / "new.tsv").read_bytes() == (tmp_path / "ref.tsv").read_bytes()


@pytest.mark.parametrize("key, value, needle", [
    ("situation_coupling", 1.5, "must be within [0, 1]"),
    ("collab_coupling", -0.5, "must be within [0, 1]"),
    ("repeat_prob", float("nan"), "must be finite"),
    ("situation_coupling", float("inf"), "must be finite"),
    *[(key, 0, "must be >= 1") for key in (
        "n_users", "n_stores", "n_orders_per_user", "n_locations", "n_brands",
        "n_cuisines", "span_days", "modes_per_user", "n_clusters")],
    ("start_time", -1, "must be >= 0"),
    ("seed", -1, "must be >= 0"),
])
def test_generate_synthetic_rejects_what_fdrec_synth_rejects(tmp_path, key, value, needle):
    """A direct call fails with the message the config loader gives, naming
    the key, before numpy sees the value."""
    message = f"[synth] {key} {needle}"
    with pytest.raises(ValueError) as direct:
        generate_synthetic(dataclasses.replace(_SYNTH_BASE, **{key: value}))
    assert str(direct.value) == message
    path = str(tmp_path / "run.cfg")
    write_config(path, {"synth": {key: value}})
    with pytest.raises(ConfigError) as loaded:
        load_config(path)
    assert str(loaded.value) == message


def test_atomic_open_error_midway_keeps_the_old_file(tmp_path):
    path = tmp_path / "out.csv"
    path.write_text("old\n")
    with pytest.raises(ZeroDivisionError):
        with dataio.atomic_open(str(path)) as fh:
            fh.write("new, half written")
            fh.flush()
            1 / 0
    assert path.read_text() == "old\n"
    assert sorted(os.listdir(tmp_path)) == ["out.csv"]
    with dataio.atomic_open(str(path)) as fh:
        fh.write("new\n")
    assert path.read_bytes() == b"new\n"
    assert sorted(os.listdir(tmp_path)) == ["out.csv"]


class _Unformattable:
    def __format__(self, spec):
        raise RuntimeError("cannot format")


def _write_failing_midway(kind, path, monkeypatch):
    """Run one artifact writer on input that fails after some rows are out."""
    if kind == "interactions":
        log = make_log([("u", "a", 1, "l0"), ("u", "b", 2, "l0"), ("u", "a", 3, "l1")])
        log.location_ids = ["l0", _Unformattable()]
        write_interactions_tsv(log, path)
    elif kind == "stores":
        write_stores_tsv({"a": StoreMeta("a", "b0", "c0", "l0"),
                          "b": StoreMeta("b", _Unformattable(), "c0", "l0")}, path)
    else:
        def half_write(parser, fh, *args):
            fh.write("[data]\n")
            raise RuntimeError("cannot format")

        monkeypatch.setattr(configparser.ConfigParser, "write", half_write)
        write_config(path)


@pytest.mark.parametrize("kind", ["interactions", "stores", "config"])
def test_writer_failing_midway_keeps_the_old_file(tmp_path, monkeypatch, kind):
    path = tmp_path / "out"
    path.write_text("old\n")
    with pytest.raises(RuntimeError, match="cannot format"):
        _write_failing_midway(kind, str(path), monkeypatch)
    assert path.read_text() == "old\n"
    assert sorted(os.listdir(tmp_path)) == ["out"]


@pytest.mark.parametrize("specs", [
    [{"shape": [2]}], [{"name": "a"}], [{"name": "a", "shape": [1.5, 2]}],
    [{"name": "a", "shape": "2"}], [{"name": "a", "shape": [2], "dtype": "<zz"}],
    [{"name": "a", "shape": [-1]}], {"a": [2]}, 5,
], ids=["no-name", "no-shape", "float-shape", "str-shape", "dtype", "negative", "dict",
        "int"])
def test_a_malformed_tensor_spec_fails_naming_the_file(tmp_path, specs):
    path = str(tmp_path / "t.bin")
    text = json.dumps({"tensors": specs}).encode()
    with open(path, "wb") as fh:
        fh.write(b"MAGIC\n" + struct.pack("<Q", len(text)) + text + bytes(16))
    with pytest.raises(ValueError, match=re.escape(f"{path}: damaged tensor spec")) as err:
        dataio.read_tensors(path, b"MAGIC\n")
    negative = specs == [{"name": "a", "shape": [-1]}]
    assert ("negative dimension in 'a'" in str(err.value)) == negative
