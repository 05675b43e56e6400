import dataclasses

import numpy as np

import oracles
from fdrec import dataio, exprec, features
from conftest import make_log, rng


def split_of(records):
    log = make_log(records)
    span = int(log.times[-1]) - int(log.times[0])
    return dataio.split_global_timeline(
        log, test_window_s=span // 4, valid_window_s=span // 4
    )


def test_sequences_mirror_log_rows():
    records = [
        ("u1", "a", 100, "l1"), ("u2", "x", 200, "l2"), ("u1", "b", 300, "l1"),
        ("u1", "a", 400, "l3"), ("u2", "x", 500, "l2"), ("u1", "b", 600, "l1"),
        ("u1", "a", 700, "l1"), ("u2", "y", 800, "l2"),
    ]
    split = split_of(records)
    vocabs = features.build_vocabs(split)
    seqs = features.build_sequences(split, vocabs)
    log = split.log
    time = np.empty(len(log), dtype=np.int64)  # flat row -> timestamp
    time[seqs.flat_of_global] = log.times
    for pos in range(len(log)):
        row = int(seqs.flat_of_global[pos])
        assert vocabs.store_ids[seqs.store[row]] == log.store_ids[log.stores[pos]]
        assert int(seqs.user[row]) == int(log.users[pos])
    # per-user rows are time-ordered and contiguous
    for code in range(len(log.user_ids)):
        lo, hi = int(seqs.offsets[code]), int(seqs.offsets[code + 1])
        assert (seqs.user[lo:hi] == code).all()
        assert (np.diff(time[lo:hi]) >= 0).all()


def test_sequences_match_the_per_user_loop(layout_split):
    vocabs = features.build_vocabs(layout_split)
    got = features.build_sequences(layout_split, vocabs)
    want = oracles.sequences_loop(layout_split, vocabs)
    for field in dataclasses.fields(features.UserSequences):
        a, b = getattr(got, field.name), getattr(want, field.name)
        assert a.dtype == b.dtype, field.name
        np.testing.assert_array_equal(a, b, err_msg=field.name)
    for row in range(len(got.store)):
        earlier = got.store[got.offsets[got.user[row]] : row]
        assert got.priors(row).tolist() == list(dict.fromkeys(earlier.tolist()))


def test_distinct_before_and_repeat_flags():
    records = [
        ("u1", "a", 1, "l"), ("u1", "b", 2, "l"), ("u1", "a", 3, "l"),
        ("u1", "c", 4, "l"), ("u1", "c", 5, "l"),
    ]
    split = split_of(records)
    vocabs = features.build_vocabs(split)
    seqs = features.build_sequences(split, vocabs)
    lo = int(seqs.offsets[0])
    assert seqs.repeat[lo:lo + 5].tolist() == [False, False, True, False, True]
    assert seqs.distinct_before[lo:lo + 5].tolist() == [0, 1, 2, 2, 3]


def test_first_stores_pool_in_first_visit_order():
    records = [
        ("u1", "b", 1, "l"), ("u1", "a", 2, "l"), ("u1", "b", 3, "l"),
        ("u1", "c", 4, "l"), ("u1", "a", 5, "l"),
    ]
    split = split_of(records)
    vocabs = features.build_vocabs(split)
    seqs = features.build_sequences(split, vocabs)
    lo, hi = int(seqs.first_offsets[0]), int(seqs.first_offsets[1])
    pool = [vocabs.store_ids[s] for s in seqs.first_stores[lo:hi]]
    assert pool == ["b", "a", "c"]


def test_unseen_location_maps_to_fallback():
    # l9 appears only in the test window, so the train vocab can't contain it
    records = [("u1", "a", t, "l1") for t in range(0, 800, 100)]
    records.append(("u1", "a", 900, "l9"))
    split = split_of(records)
    vocabs = features.build_vocabs(split)
    seqs = features.build_sequences(split, vocabs)
    assert "l9" not in vocabs.location_ids
    row = int(seqs.flat_of_global[int(np.argmax(split.log.times))])
    assert int(seqs.loc[row]) == features.FALLBACK
    assert vocabs.location_ids[features.FALLBACK] == "<other>"


def test_window_rows_right_aligned_with_mask():
    records = [("u1", "a", t, "l") for t in (1, 2, 3)] + [
        ("u2", "b", t, "l") for t in range(4, 12)
    ]
    split = split_of(records)
    vocabs = features.build_vocabs(split)
    seqs = features.build_sequences(split, vocabs)
    lo1, lo2 = int(seqs.offsets[0]), int(seqs.offsets[1])

    # batch mixing a short (2 priors) and a long (7 priors) history; the
    # window width is min(limit, longest history in the batch)
    rows, mask = features.window_rows(
        seqs, np.array([0, 1]), np.array([2, 7]), limit=5
    )
    assert rows.shape == (2, 5)
    # u1: left-padded, the two real rows sit at the right edge
    assert mask[0].tolist() == [False, False, False, True, True]
    assert rows[0, 3:].tolist() == [lo1, lo1 + 1]
    # masked slots still index rows of the same user (neutralized by mask)
    assert (rows[0, :3] == lo1).all()
    # u2: 7 priors truncated to the 5 most recent, oldest to newest
    assert mask[1].all()
    assert rows[1].tolist() == [lo2 + 2, lo2 + 3, lo2 + 4, lo2 + 5, lo2 + 6]

    # width clips to the longest history present, not the limit
    rows2, mask2 = features.window_rows(seqs, np.array([0]), np.array([2]), limit=5)
    assert rows2.shape == (1, 2)
    assert mask2.all()


def test_gather_window_packs_the_real_slots_row_major(small_data):
    """The slot fields equal the [B, L] gathers of ``window_rows`` at the
    mask, in row-major order, and ``row`` names each slot's batch row."""
    seqs = small_data.seqs
    local = np.arange(len(seqs.user)) - seqs.offsets[seqs.user]
    rows = np.concatenate([[0], rng(40).permutation(len(local))[:40], [0]])
    assert (local[rows] == 0).sum() >= 3  # rows with no real slot, first and last
    win = features.gather_window(seqs, rows, 6)
    grid, mask = features.window_rows(seqs, seqs.user[rows], local[rows], 6)
    assert win.mask.dtype == bool
    np.testing.assert_array_equal(win.mask, mask)
    np.testing.assert_array_equal(win.row, np.repeat(np.arange(len(rows)), mask.sum(axis=1)))
    for name in ("store", "hour", "dow", "loc"):
        np.testing.assert_array_equal(getattr(win, name), getattr(seqs, name)[grid][mask])
    np.testing.assert_array_equal(win.repeat, seqs.repeat[grid][mask].astype(np.int64))
    np.testing.assert_array_equal(win.user, seqs.user[rows])
    np.testing.assert_array_equal(win.now_hour, seqs.hour[rows])
    assert len(win.store) == mask.sum() < mask.size


def test_prepared_neighbors_are_memoized_neighbor_arrays(small_split):
    data = features.Dataset(small_split)
    as_of = small_split.valid_boundary
    first = data.neighbors(4, as_of)
    want = exprec.neighbor_arrays(small_split.log, 4, as_of)
    for got, exp in zip(first, want):
        np.testing.assert_array_equal(got, exp)
    assert data.neighbors(4, as_of) is first
    assert data.neighbors(3, as_of)[0].shape[1] == 3
