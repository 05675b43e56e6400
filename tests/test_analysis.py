import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from fdrec import analysis, dataio
from conftest import make_log

DAY = dataio.SECONDS_PER_DAY


def test_repeat_ratio_by_order_index_counts_by_position():
    # u1: E R R ; u2: E E R ; u3: E  (positions are per-user order indices)
    records = [
        ("u1", "a", 1, "l"), ("u1", "a", 2, "l"), ("u1", "a", 3, "l"),
        ("u2", "x", 1, "l"), ("u2", "y", 2, "l"), ("u2", "x", 3, "l"),
        ("u3", "q", 1, "l"),
    ]
    curve = analysis.repeat_ratio_by_order_index(make_log(records), max_n=3)
    assert curve.x.tolist() == [1, 2, 3]
    np.testing.assert_allclose(curve.y, [0.0, 0.5, 1.0], atol=1e-12, rtol=0)
    assert curve.n.tolist() == [3, 2, 2]


def test_explored_store_counts_mean_distinct():
    records = [
        ("u1", "a", 1, "l"), ("u1", "b", 2, "l"), ("u1", "a", 3, "l"),
        ("u2", "x", 1, "l"), ("u2", "x", 2, "l"), ("u2", "x", 3, "l"),
    ]
    curve = analysis.explored_store_counts(make_log(records), max_n=3)
    # distinct stores after n orders: u1 -> 1,2,2 ; u2 -> 1,1,1
    np.testing.assert_allclose(curve.y, [1.0, 1.5, 1.5], atol=1e-12, rtol=0)


@pytest.mark.parametrize("max_n", [1, 6, 40])
def test_order_index_curves_match_the_per_user_loops(layout_split, max_n):
    log = layout_split.log
    for curve, loop in ((analysis.repeat_ratio_by_order_index, oracles.repeat_ratio_loop),
                        (analysis.explored_store_counts, oracles.explored_store_counts_loop)):
        got, want = curve(log, max_n), loop(log, max_n)
        assert got.y.tobytes() == want.y.tobytes()
        for a, b in ((got.x, want.x), (got.n, want.n)):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)


def test_repeat_exploration_cdf_tail_semantics():
    # within the window: u1 ratio 1.0 (2 repeats), u2 ratio 0.0, u3 ratio 0.5
    records = [
        ("u1", "a", 1, "l"),
        ("u2", "p", 2, "l"), ("u3", "m", 3, "l"),
        ("u1", "a", 100, "l"), ("u1", "a", 101, "l"),
        ("u2", "q", 102, "l"),
        ("u3", "m", 103, "l"), ("u3", "n", 104, "l"),
    ]
    log = make_log(records)
    users_curve, stores_curve = analysis.repeat_exploration_cdf(log, window_s=10)
    assert users_curve.x[0] == 0.0 and users_curve.x[-1] == 1.0
    # fraction of users whose window repeat-ratio >= r
    grid = users_curve.x
    y = users_curve.y
    assert y[0] == pytest.approx(1.0)  # everyone >= 0
    assert y[np.searchsorted(grid, 0.5)] == pytest.approx(2 / 3)
    assert y[-1] == pytest.approx(1 / 3)  # only u1 at ratio 1.0
    assert (np.diff(y) <= 1e-12).all()  # tail curves never increase
    assert users_curve.n[0] == 3


def test_repeat_exploration_cdf_empty_window():
    log = make_log([("u1", "a", 1, "l")])
    users_curve, _ = analysis.repeat_exploration_cdf(log, window_s=1)
    assert len(users_curve.x) in (0, analysis.CDF_GRID_POINTS)
    with pytest.raises(ValueError):
        analysis.repeat_exploration_cdf(log, window_s=0)


def make_coupled_log(sc, cc, seed=0, n_users=60):
    cfg = dataio.SynthConfig(
        n_users=n_users, n_stores=25, n_orders_per_user=12,
        situation_coupling=sc, collab_coupling=cc,
        n_locations=5, n_brands=8, n_cuisines=4, seed=seed,
    )
    log, _ = dataio.generate_synthetic(cfg)
    return log


def test_historical_influence_separates_repeat_from_exploration():
    log = make_coupled_log(sc=0.9, cc=0.0, seed=2)
    records = analysis.historical_influence(log)
    assert records, "expected influence records"
    assert all(r.kind in ("repeat", "exploration") for r in records)
    means = analysis.influence_means(records)
    rep_mean, rep_n, _ = means["repeat"]
    exp_mean, exp_n, _ = means["exploration"]
    assert rep_n > 0 and exp_n > 0
    # situation-coupled repeats correlate situation with store similarity
    assert rep_mean > exp_mean


def test_influence_records_skip_short_histories():
    records = [("u1", "a", t, "l") for t in range(1, 5)]  # 4 < MIN_EVENTS + 1
    out = analysis.historical_influence(make_log(records))
    assert all(r.position >= analysis.MIN_EVENTS for r in out)


def test_collaborative_influence_windows_and_min_events():
    log = make_coupled_log(sc=0.0, cc=0.8, seed=3)
    records = analysis.collaborative_influence(log, k=5)
    assert records
    # every record's comparison set had enough events by construction
    assert all(r.kind in ("repeat", "exploration") for r in records)
    positions = [r.position for r in records]
    assert positions == sorted(positions)


@pytest.mark.parametrize("study, name, value", [
    (analysis.historical_influence, "min_history", 0),
    (analysis.historical_influence, "min_history", 1),
    (analysis.collaborative_influence, "min_events", 0),
    (analysis.collaborative_influence, "min_events", 1),
])
def test_influence_minimums_below_two_are_rejected(study, name, value):
    log = make_coupled_log(sc=0.5, cc=0.5, seed=1, n_users=10)
    with pytest.raises(ValueError, match=f"^{name} must be at least 2"):
        study(log, **{name: value})


def assert_same_records(got, want):
    """Same positions, kinds and value bits, ``None`` where undefined."""
    assert [(r.position, r.kind) for r in got] == [(r.position, r.kind) for r in want]
    for g, w in zip(got, want):
        if w.value is None:
            assert g.value is None, g
        else:
            assert type(g.value) is float, g
            assert np.float64(g.value).tobytes() == np.float64(w.value).tobytes(), g


@st.composite
def tie_heavy_logs(draw):
    """1-3 users and 1-4 stores on a coarse time grid, so that equal times,
    events exactly at ``t - t_delta_s`` and at ``t``, constant similarity
    runs and empty neighbour windows are all common; plus ``t_delta_s``, -1
    to 6 grid steps (no window at all up to 0)."""
    unit = draw(st.sampled_from([3600, 6 * 3600, DAY]))
    n_stores = draw(st.integers(1, 4))
    records = draw(st.lists(
        st.tuples(st.sampled_from(["u1", "u2", "u3"]),
                  st.integers(0, n_stores - 1), st.integers(0, 10),
                  st.sampled_from(["l1", "l2"])),
        min_size=1, max_size=48,
    ))
    attrs = draw(st.lists(st.tuples(*[st.sampled_from("ab")] * 3),
                          min_size=n_stores, max_size=n_stores))
    catalog = {f"s{i}": dataio.StoreMeta(f"s{i}", *a) for i, a in enumerate(attrs)}
    log = make_log([(u, f"s{s}", unit * t, loc) for u, s, t, loc in records], catalog)
    return log, unit * draw(st.integers(-1, 6))


@settings(max_examples=300, deadline=None)
@given(sample=tie_heavy_logs(), k=st.integers(1, 3), minimum=st.integers(2, 5))
def test_influence_matches_the_loops_on_tie_heavy_logs(sample, k, minimum):
    log, t_delta_s = sample
    assert_same_records(analysis.historical_influence(log, min_history=minimum),
                        oracles.historical_influence_loop(log, min_history=minimum))
    assert_same_records(
        analysis.collaborative_influence(log, k=k, t_delta_s=t_delta_s, min_events=minimum),
        oracles.collaborative_influence_loop(log, k=k, t_delta_s=t_delta_s,
                                             min_events=minimum))


def test_influence_matches_the_loops_on_dense_random_logs():
    """Denser than hypothesis draws: most of these logs have defined values."""
    gen = np.random.default_rng(3)
    defined = 0
    for _ in range(200):
        n_users, n_stores = gen.integers(2, 6), gen.integers(1, 5)
        unit = int(gen.choice([3600, 6 * 3600, DAY]))
        records = [(f"u{gen.integers(n_users)}", f"s{gen.integers(n_stores)}",
                    unit * int(gen.integers(0, 12)), f"l{gen.integers(2)}")
                   for _ in range(gen.integers(10, 60))]
        log = make_log(records)
        k, minimum = int(gen.integers(1, 4)), int(gen.integers(2, 6))
        t_delta_s = unit * int(gen.integers(1, 7))
        got = analysis.collaborative_influence(log, k, t_delta_s, minimum)
        assert_same_records(got, oracles.collaborative_influence_loop(log, k, t_delta_s, minimum))
        assert_same_records(analysis.historical_influence(log, minimum),
                            oracles.historical_influence_loop(log, minimum))
        defined += sum(r.value is not None for r in got)
    assert defined > 1000


@pytest.mark.parametrize("pair_block", [analysis.PAIR_BLOCK, 1, 7, 1000])
def test_influence_matches_the_loops_on_a_coupled_log(monkeypatch, pair_block):
    """Blocks of any size give the records of one pass."""
    monkeypatch.setattr(analysis, "PAIR_BLOCK", pair_block)
    log = make_coupled_log(sc=0.6, cc=0.6, seed=5, n_users=40)
    assert_same_records(analysis.historical_influence(log),
                        oracles.historical_influence_loop(log))
    assert_same_records(analysis.collaborative_influence(log, k=4),
                        oracles.collaborative_influence_loop(log, k=4))


def test_influence_means_counts_undefined():
    recs = [
        analysis.InfluenceRecord(0, "repeat", 0.5),
        analysis.InfluenceRecord(1, "repeat", None),
        analysis.InfluenceRecord(2, "exploration", -0.25),
    ]
    means = analysis.influence_means(recs)
    assert means["repeat"] == (pytest.approx(0.5), 1, 1)
    assert means["exploration"] == (pytest.approx(-0.25), 1, 0)


def test_emit_analysis_report_writes_csvs(tmp_path):
    log = make_coupled_log(sc=0.5, cc=0.5, seed=4, n_users=30)
    max_n = int(np.bincount(log.users).max())
    paths = analysis.emit_analysis_report(
        str(tmp_path / "out"),
        analysis.repeat_ratio_by_order_index(log, max_n),
        analysis.explored_store_counts(log, max_n),
        *analysis.repeat_exploration_cdf(log, window_s=2 * dataio.SECONDS_PER_WEEK),
        analysis.historical_influence(log),
        analysis.collaborative_influence(log, k=5),
    )
    names = sorted(p.rsplit("/", 1)[1] for p in paths)
    assert names == sorted([
        "repeat_ratio.csv", "explored.csv", "cdf_users.csv", "cdf_stores.csv",
        "inf_his.csv", "inf_col.csv", "summary.csv",
    ])
    with open(tmp_path / "out" / "repeat_ratio.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == max_n
    assert set(rows[0]) == {"x", "y", "n"}
    with open(tmp_path / "out" / "inf_his.csv") as fh:
        hist_rows = list(csv.DictReader(fh))
    assert len(hist_rows) == analysis.HISTOGRAM_BINS
    assert set(hist_rows[0]) == {"bin_lo", "bin_hi", "repeat", "exploration"}
    with open(tmp_path / "out" / "summary.csv") as fh:
        summary_rows = list(csv.DictReader(fh))
    assert {(r["metric"], r["kind"]) for r in summary_rows} == {
        ("historical_influence", "repeat"),
        ("historical_influence", "exploration"),
        ("collaborative_influence", "repeat"),
        ("collaborative_influence", "exploration"),
    }


def test_emit_analysis_report_is_byte_deterministic(tmp_path):
    log = make_coupled_log(sc=0.5, cc=0.5, seed=4, n_users=20)
    args = (
        analysis.repeat_ratio_by_order_index(log, 12),
        analysis.explored_store_counts(log, 12),
        *analysis.repeat_exploration_cdf(log, window_s=dataio.SECONDS_PER_WEEK),
        analysis.historical_influence(log),
        analysis.collaborative_influence(log, k=5),
    )
    paths_a = analysis.emit_analysis_report(str(tmp_path / "a"), *args)
    paths_b = analysis.emit_analysis_report(str(tmp_path / "b"), *args)
    for pa, pb in zip(paths_a, paths_b):
        with open(pa, "rb") as fa, open(pb, "rb") as fb:
            assert fa.read() == fb.read()
