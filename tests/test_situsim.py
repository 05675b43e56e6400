
import numpy as np
import pytest
from numpy.testing import assert_array_equal
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fdrec import exprec, situsim
from fdrec.dataio import StoreMeta
from oracles import Interaction, SituationFeatures
from conftest import make_log


def situ(day=0, hour=12, dow=0, loc="l1"):
    return SituationFeatures(day, hour, dow, loc)


# ---------------------------------------------------------------------------
# situation_similarity


def test_situation_similarity_identity():
    a = situ(day=7, hour=19, dow=3, loc="home")
    assert oracles.situation_similarity(a, a) == 1.0


def test_situation_similarity_all_terms_maximal():
    a = situ(day=0, hour=0, dow=0, loc="l1")
    b = situ(day=31, hour=12, dow=3, loc="l2")
    assert oracles.situation_similarity(a, b) == 0.0


def test_situation_similarity_worked_value():
    # day gap 3 (3/30), same hour, weekday gap 3 (3/3), same location
    a = situ(day=0, hour=18, dow=0, loc="l1")
    b = situ(day=3, hour=18, dow=3, loc="l1")
    assert oracles.situation_similarity(a, b) == pytest.approx(0.725, abs=1e-12)


def test_situation_similarity_circular_hour_and_dow():
    # hour 23 vs 1 is 2 hours apart around the clock, dow 6 vs 0 is 1 apart
    a = situ(hour=23, dow=6)
    b = situ(hour=1, dow=0)
    expected = 1 - ((2 / 12) + (1 / 3)) / 4
    assert oracles.situation_similarity(a, b) == pytest.approx(expected, abs=1e-12)


def test_situation_similarity_day_gap_saturates_at_30():
    a, b = situ(day=0), situ(day=30)
    c = situ(day=500)
    assert oracles.situation_similarity(a, b) == oracles.situation_similarity(a, c)


@settings(max_examples=200, deadline=None)
@given(
    d1=st.integers(0, 400), d2=st.integers(0, 400),
    h1=st.integers(0, 23), h2=st.integers(0, 23),
    w1=st.integers(0, 6), w2=st.integers(0, 6),
    same_loc=st.booleans(),
)
def test_situation_similarity_symmetric_and_bounded(d1, d2, h1, h2, w1, w2, same_loc):
    a = situ(day=d1, hour=h1, dow=w1, loc="x")
    b = situ(day=d2, hour=h2, dow=w2, loc="x" if same_loc else "y")
    s_ab = oracles.situation_similarity(a, b)
    s_ba = oracles.situation_similarity(b, a)
    assert s_ab == s_ba
    assert 0.0 <= s_ab <= 1.0


# ---------------------------------------------------------------------------
# store_similarity


def test_store_similarity_attribute_counting():
    a = StoreMeta("s1", "b1", "c1", "sl1")
    assert oracles.store_similarity(a, a) == 1.0
    b = StoreMeta("s2", "b2", "c2", "sl2")
    assert oracles.store_similarity(a, b) == 0.0
    c = StoreMeta("s3", "b9", "c1", "sl9")  # only cuisine matches
    assert oracles.store_similarity(a, c) == pytest.approx(1 / 3, abs=1e-15)
    d = StoreMeta("s4", "b1", "c1", "sl9")
    assert oracles.store_similarity(a, d) == pytest.approx(2 / 3, abs=1e-15)
    assert oracles.store_similarity(c, a) == oracles.store_similarity(a, c)


# ---------------------------------------------------------------------------
# pearson


def pearson_one(x, y):
    """``x`` against ``y`` as one segment of :func:`situsim.segment_pearson`;
    NaN reads as undefined."""
    r = situsim.segment_pearson(x, y, [len(x)])[0]
    return None if np.isnan(r) else float(r)


def test_pearson_reference_values():
    assert pearson_one([1, 2, 3], [1, 2, 3]) == pytest.approx(1.0, abs=1e-12)
    assert pearson_one([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-12)
    assert pearson_one([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(0.8, abs=1e-12)


def test_pearson_undefined_for_constant_sequences():
    assert pearson_one([1, 1, 1], [1, 2, 3]) is None
    assert pearson_one([1, 2, 3], [5, 5, 5]) is None


def test_pearson_rejects_bad_lengths():
    with pytest.raises(ValueError):
        pearson_one([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        pearson_one([1], [2])
    with pytest.raises(ValueError):
        situsim.segment_pearson([1, 2, 3, 4], [1, 2, 3, 4], [2, 1])
    with pytest.raises(ValueError):
        situsim.segment_pearson([1, 2, 3, 4, 5], [1, 2, 3, 4, 5], [2, 2])


@settings(max_examples=100, deadline=None)
@given(
    xs=st.lists(st.integers(-50, 50), min_size=3, max_size=12),
    a=st.floats(0.1, 9.0),
    b=st.floats(-5.0, 5.0),
)
def test_pearson_positive_affine_invariance(xs, a, b):
    ys = list(np.linspace(-1.0, 1.0, len(xs)))
    r = pearson_one([float(x) for x in xs], ys)
    r_scaled = pearson_one([a * x + b for x in xs], ys)
    if r is None:
        assert r_scaled is None
    else:
        assert abs(r - r_scaled) <= 1e-9
        assert -1.0 - 1e-12 <= r <= 1.0 + 1e-12


def test_segment_pearson_equals_the_scalar_pearson_bit_for_bit():
    """Every length from 2 to 300, shuffled, some segments constant, values on
    the coarse grids similarities take and continuous ones."""
    gen = np.random.default_rng(0)
    lengths = gen.permutation(np.repeat(np.arange(2, 301), 3))
    total = int(lengths.sum())
    x = np.where(gen.random(total) < 0.5, gen.integers(0, 13, total) / 12.0, gen.random(total))
    y = gen.integers(0, 4, total) / 3.0
    starts = np.cumsum(lengths) - lengths
    for i in range(0, len(lengths), 20):  # constant runs on either side
        (x if i % 40 else y)[starts[i]:starts[i] + lengths[i]] = (0.1, 1 / 3)[i % 60 == 0]
    want = [oracles.pearson(x[a:a + n], y[a:a + n]) for a, n in zip(starts, lengths)]
    assert any(w is None for w in want)
    got = situsim.segment_pearson(x, y, lengths)
    want = np.array([np.nan if w is None else w for w in want])
    assert_array_equal(got, want)
    assert got.tobytes() == want.tobytes()  # zero signs too


# ---------------------------------------------------------------------------
# preference vectors and collaborative users


def test_preference_vector_frequencies():
    hist = [("s1",), ("s1",), ("s2",)]
    history = [Interaction("u", s[0], i, "l") for i, s in enumerate(hist)]
    vec = oracles.preference_vector(history)
    assert vec == {"s1": pytest.approx(2 / 3), "s2": pytest.approx(1 / 3)}
    with pytest.raises(ValueError):
        oracles.preference_vector([])


def test_collaborative_users_clone_is_top_neighbor():
    records = []
    for u in ("u1", "u2"):  # identical histories
        records += [(u, "a", 10, "l"), (u, "b", 20, "l"), (u, "a", 30, "l")]
    records += [("u3", "c", 10, "l"), ("u3", "c", 20, "l"), ("u3", "d", 30, "l")]
    log = make_log(records)
    neighbors = oracles.collaborative_users("u1", log, 10, as_of=100)
    assert neighbors[0][0] == "u2"
    assert neighbors[0][1] == pytest.approx(1.0, abs=1e-12)
    assert all(u != "u1" for u, _ in neighbors)
    assert len(neighbors) == 2  # K capped by population - 1


def brute_force_neighbors(target, log, k, as_of):
    """All-pairs Pearson of zero-filled preference vectors over union support."""
    hist = {}
    for i in range(len(log)):
        if int(log.times[i]) < as_of:
            u = log.user_ids[log.users[i]]
            hist.setdefault(u, []).append(log.store_ids[log.stores[i]])
    if target not in hist:
        return []
    out = []
    for other, stores in hist.items():
        if other == target:
            continue
        union = sorted(set(hist[target]) | set(stores))
        if not set(hist[target]) & set(stores) or len(union) < 2:
            out.append((other, 0.0))
            continue
        fa = [hist[target].count(s) / len(hist[target]) for s in union]
        fb = [stores.count(s) / len(stores) for s in union]
        r = oracles.pearson(fa, fb)
        out.append((other, 0.0 if r is None else min(1.0, max(-1.0, r))))
    out.sort(key=lambda t: (-t[1], t[0]))
    return out[:k]


def test_collaborative_users_matches_brute_force(tiny_split):
    log = tiny_split.log
    as_of = tiny_split.valid_boundary
    n = len(log.user_ids)
    for target in log.user_ids:
        got = oracles.collaborative_users(target, log, n, as_of)
        want = dict(brute_force_neighbors(target, log, n, as_of))
        assert {u for u, _ in got} == set(want)
        for user, sim in got:
            assert sim == pytest.approx(want[user], abs=1e-9)
        sims = [s for _, s in got]
        assert all(a >= b for a, b in zip(sims, sims[1:]))
        for (u1, s1), (u2, s2) in zip(got, got[1:]):
            if s1 == s2:
                assert u1 < u2  # deterministic tie-break


def test_collaborative_users_truncates_to_k(tiny_split):
    log = tiny_split.log
    as_of = tiny_split.valid_boundary
    full = oracles.collaborative_users("u00000", log, len(log.user_ids), as_of)
    top = oracles.collaborative_users("u00000", log, 4, as_of)
    assert top == full[:4]


def test_collaborative_users_empty_history_before_as_of():
    log = make_log([("u1", "a", 100, "l"), ("u2", "a", 5, "l"), ("u2", "b", 6, "l")])
    assert oracles.collaborative_users("u1", log, 3, as_of=50) == []


def test_collaborative_users_respects_as_of():
    # u2 matches u1 only through interactions after the cutoff
    records = [("u1", "a", 1, "l"), ("u1", "a", 2, "l"), ("u1", "b", 3, "l"),
               ("u2", "c", 3, "l"), ("u2", "d", 4, "l"),
               ("u2", "a", 100, "l"), ("u2", "a", 101, "l"), ("u2", "b", 102, "l"),
               ("u3", "a", 5, "l"), ("u3", "a", 6, "l"), ("u3", "b", 7, "l")]
    log = make_log(records)
    neighbors = oracles.collaborative_users("u1", log, 2, as_of=50)
    sims = dict(neighbors)
    assert sims["u3"] == pytest.approx(1.0, abs=1e-12)
    assert sims["u2"] == 0.0  # disjoint support before the cutoff


def test_count_matrix_matches_the_per_user_loop(small_split):
    log = small_split.log
    for as_of in (int(log.times.min()) + 1, small_split.valid_boundary,
                  small_split.test_boundary, int(log.times.max()) + 1):
        assert_array_equal(situsim._counts_before(log, as_of),
                           oracles.neighbor_counts_loop(log, as_of))


def test_neighbor_table_matches_pairwise_queries(tiny_split):
    log = tiny_split.log
    as_of = tiny_split.valid_boundary
    n = len(log.user_ids)
    ids, sims = situsim.neighbor_table(log, n, as_of)
    assert ids.shape == sims.shape == (n, n)
    for u, target in enumerate(log.user_ids):
        pairwise = dict(oracles.collaborative_users(target, log, n, as_of))
        m = len(pairwise)
        got = [log.user_ids[c] for c in ids[u, :m]]
        assert set(got) == set(pairwise)
        for user, sim in zip(got, sims[u, :m]):
            assert sim == pytest.approx(pairwise[user], abs=1e-9)
        assert all(a >= b for a, b in zip(sims[u, :m], sims[u, 1:m]))
        assert (ids[u, m:] == -1).all() and (sims[u, m:] == 0.0).all()


# a handful of values, both zeros among them, so most rows hold ties
TIED_SIMS = st.sampled_from([-1.0, -0.5, -0.0, 0.0, 0.25, 0.5, 1.0])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_top_neighbors_and_weights_match_the_row_loop(data):
    n = data.draw(st.integers(1, 12), label="users")
    b = data.draw(st.integers(1, n), label="block")
    start = data.draw(st.integers(0, n - b), label="start")
    kk = data.draw(st.integers(0, n - 1), label="kk")
    r = np.array(data.draw(st.lists(TIED_SIMS, min_size=b * n, max_size=b * n)))
    r = r.reshape(b, n)
    active = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    rank_by_id = np.array(data.draw(st.permutations(range(n))), dtype=np.int64)

    want_ids, want_sims = oracles.top_neighbors_loop(r, start, active, rank_by_id, kk)
    ids, sims = situsim._top_neighbors(r.copy(), start, active, rank_by_id, kk)
    assert_array_equal(ids, want_ids)
    assert_array_equal(sims, want_sims)
    assert_array_equal(np.signbit(sims), np.signbit(want_sims))

    want_w = np.array([oracles.neighbor_weights(s, i >= 0)
                       for s, i in zip(want_sims, want_ids)]).reshape(want_sims.shape)
    w = exprec._neighbor_weights(ids, sims)
    assert_array_equal(w, want_w)
    assert_array_equal(np.signbit(w), np.signbit(want_w))
