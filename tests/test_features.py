import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from fdrec import baselines, dataio, ensemble, evalharness, exprec, features, reprec
from fdrec import diffcore as dc
from fdrec.training import ModelSection
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
    """The window holds index arrays only: ``slot`` is ``window_rows``' grid
    at the mask, in row-major order, and ``row`` names each slot's batch row."""
    seqs = small_data.seqs
    local = np.arange(len(seqs.user)) - seqs.offsets[seqs.user]
    rows = np.concatenate([[0], rng(40).permutation(len(local))[:40], [0]])
    assert (local[rows] == 0).sum() >= 3  # rows with no real slot, first and last
    win = features.gather_window(seqs, rows, 6)
    grid, mask = features.window_rows(seqs, seqs.user[rows], local[rows], 6)
    assert [f.name for f in dataclasses.fields(win)] == ["user", "mask", "row", "slot"]
    assert win.mask.dtype == bool
    np.testing.assert_array_equal(win.mask, mask)
    np.testing.assert_array_equal(win.row, np.repeat(np.arange(len(rows)), mask.sum(axis=1)))
    np.testing.assert_array_equal(win.slot, grid[mask])
    np.testing.assert_array_equal(win.user, seqs.user[rows])
    assert len(win.slot) == mask.sum() < mask.size


def test_prepared_neighbors_are_memoized_neighbor_arrays(small_split):
    data = features.Dataset(small_split)
    as_of = small_split.valid_boundary
    first = data.neighbors(4, as_of)
    want = exprec.neighbor_arrays(small_split.log, 4, as_of)
    for got, exp in zip(first, want):
        np.testing.assert_array_equal(got, exp)
    assert data.neighbors(4, as_of) is first
    assert data.neighbors(3, as_of)[0].shape[1] == 3


@pytest.mark.parametrize("max_cases", [0, 7])
def test_saved_case_sets_load_as_build_cases_builds_them(small_split, tmp_path,
                                                         monkeypatch, max_cases):
    """A loaded set equals the built one in every field and dtype; it is
    stored with its real candidates only, as the narrowest integers that
    hold every store code, and a loaded dataset saves the same bytes."""
    data = features.Dataset(small_split)
    want = {p: evalharness.build_cases(small_split, p, 5, max_cases, seqs=data.seqs,
                                       vocabs=data.vocabs) for p in evalharness.PROTOCOLS}
    for protocol in evalharness.PROTOCOLS:
        assert data.cases(protocol, 5, max_cases) is data.cases(protocol, 5, max_cases)
    path, again = str(tmp_path / "data.bin"), str(tmp_path / "again.bin")
    data.save(path)
    header, tensors = dataio.read_tensors(path, features.DATA_MAGIC)
    assert header["cases"] == [[p, 5, max_cases] for p in evalharness.PROTOCOLS]
    for i, protocol in enumerate(evalharness.PROTOCOLS):
        assert tensors[f"cases.{i}.cand"].dtype == np.uint8  # 30 stores
        assert len(tensors[f"cases.{i}.cand"]) == want[protocol].length.sum()

    def unused(*args, **kwargs):
        raise AssertionError("a stored case set is not built again")

    monkeypatch.setattr(evalharness, "build_cases", unused)
    got = features.load(path)
    got.save(again)
    assert open(again, "rb").read() == open(path, "rb").read()
    for protocol, cases in want.items():
        loaded = got.cases(protocol, 5, max_cases)
        assert got.cases(protocol, 5, max_cases) is loaded
        assert len(loaded) == (min(len(cases), max_cases) if max_cases else len(cases)) > 0
        for f in dataclasses.fields(evalharness.CaseSet):
            a, b = getattr(loaded, f.name), getattr(cases, f.name)
            if isinstance(b, np.ndarray):
                assert a.dtype == b.dtype, f.name
                np.testing.assert_array_equal(a, b, err_msg=f.name)
            else:
                assert a == b, f.name


def situation_state():
    """Situation tables of dimension 8 with 5 locations."""
    state = dc.ModelState(seed=4)
    features.add_situation_tables(state, 8, 5)
    return state


def situation_codes(kind):
    """(hours, dows, locs) code arrays of one shape, for 5 locations."""
    gen = rng(60)
    if kind == "batch":  # [B], 40 codes over at most 30 triples
        return gen.integers(0, 3, 40), gen.integers(5, 7, 40), gen.integers(0, 5, 40)
    if kind == "grid":  # [B, L], few distinct triples
        return (gen.choice([3, 20], (6, 9)), gen.choice([0, 6], (6, 9)),
                gen.integers(0, 2, (6, 9)))
    if kind == "single":
        return np.array([23]), np.array([6]), np.array([4])
    if kind == "distinct":  # every triple differs
        return np.arange(24), np.arange(24) % 7, np.arange(24) % 5
    if kind == "empty-grid":
        return (np.zeros((3, 0), dtype=np.int64),) * 3
    return (np.zeros(0, dtype=np.int64),) * 3


def code_rows(codes):
    """A stand-in for :class:`fdrec.features.UserSequences` that holds the
    (hours, dows, locs) ``codes`` flat, and the rows, of the codes' shape,
    that read them back."""
    hours, dows, locs = (np.asarray(c).ravel() for c in codes)
    rows = np.arange(hours.size).reshape(np.shape(codes[0]))
    return SimpleNamespace(hour=hours, dow=dows, loc=locs), rows


SITUATION_KINDS = ["batch", "grid", "single", "distinct", "empty", "empty-grid"]


@pytest.mark.parametrize("kind", SITUATION_KINDS)
def test_situations_gathered_back_are_the_three_table_sum_bit_for_bit(kind):
    state = situation_state()
    codes = situation_codes(kind)
    vectors, inverse = features.situations(state, *code_rows(codes))
    want = oracles.situation_per_slot(state, *codes).data
    triples = set(zip(*(c.ravel().tolist() for c in codes)))
    assert inverse.shape == codes[0].shape
    assert vectors.data.shape == (len(triples), 8)
    got = vectors.data[inverse]
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert features.situation(state, *code_rows(codes)).data.tobytes() == want.tobytes()
    if kind in ("batch", "grid"):
        assert len(triples) < codes[0].size  # repeated triples share a row


@pytest.mark.parametrize("kind", ["batch", "grid", "distinct"])
def test_situation_table_gradients_match_the_per_slot_form(kind):
    """Summing each distinct row's gradient first reassociates the tables'
    sums: within 1e-12 of the largest magnitude of the per-slot form."""
    state = situation_state()
    codes = situation_codes(kind)
    grads = []
    for forward in (lambda s, *c: features.situation(s, *code_rows(c)),
                    oracles.situation_per_slot):
        oracles.zero_grads(state)
        out = forward(state, *codes)
        dc.backward(dc.sum_(dc.mul(out, rng(61).normal(size=out.data.shape))))
        grads.append({name: p.grad.copy() for name, p in state.params.items()})
    got, want = grads
    for name in ("emb.hour", "emb.dow", "emb.loc"):
        assert np.abs(want[name]).max() > 0.0, name
        np.testing.assert_allclose(got[name], want[name], rtol=0, err_msg=name,
                                   atol=1e-12 * np.abs(want[name]).max())


@pytest.mark.parametrize("hours, dows, locs", [
    ([1, 0], [0, 7], [0, 0]),    # weekday 7 would alias hour 1's key
    ([0, 0], [0, 0], [0, 5]),    # a location past the table
    ([24], [0], [0]),
    ([0], [-1], [0]),
])
def test_situations_reject_a_code_outside_its_table(hours, dows, locs):
    with pytest.raises(ValueError):
        features.situations(situation_state(), *code_rows((hours, dows, locs)))


@pytest.mark.parametrize("model", ["sonly", "reprec", "exprec", "intent"])
def test_a_query_row_keeps_its_bits_at_every_row_count(small_data, model):
    """The rows of an n-row forward equal the first n rows of a
    ``QUERY_CHUNK``-row one for every n from 1, so the near-equal chunks of
    :func:`features.query_rows` need no padding, not even for a lone row."""
    section = ModelSection(dim=64, repeat_window=20, history_window=10, k_neighbors=5)
    builders = {"sonly": (baselines.sonly_build, baselines.sonly_query),
                "reprec": (reprec.reprec_build, reprec.reprec_query),
                "exprec": (exprec.exprec_build, exprec.exprec_query),
                "intent": (ensemble.ensemble_build,
                           lambda st, d, r: ensemble._intent_logits(st, d.seqs, r))}
    build, query = builders[model]
    state = build(small_data, section, seed=41)
    rows = rng(42).choice(len(small_data.seqs.user), size=features.QUERY_CHUNK,
                          replace=False)
    full = query(state, small_data, rows).data
    for n in range(1, len(rows)):
        np.testing.assert_array_equal(query(state, small_data, rows[:n]).data, full[:n],
                                      err_msg=f"{n} rows")
    assert features.query_rows(state, small_data, rows[:0], query).shape == (0, full.shape[1])
