import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdrec import baselines, ensemble, evalharness, exprec, features, reprec
from fdrec.evalharness import (
    MAX_CANDIDATES,
    EvalCase,
    MetricsReport,
    ScoredSlate,
    build_cases,
    evaluate,
    rank_metrics,
    validation_cases,
)


def prior_stores_of(split, position):
    """Distinct stores the user visited strictly before ``position``."""
    log = split.log
    user = log.users[position]
    seen = []
    for p in range(position):
        if log.users[p] == user:
            sid = log.store_ids[log.stores[p]]
            if sid not in seen:
                seen.append(sid)
    return seen


# ---------------------------------------------------------------------------
# case construction


def test_repeat_cases_candidates_are_distinct_priors(small_split):
    cases = build_cases(small_split, "repeat", seed=0)
    assert cases
    for case in cases[:25]:
        assert small_split.repeat_flags[case.position]
        want = prior_stores_of(small_split, case.position)
        assert list(case.candidates) == want
        assert case.target_id in case.candidates
        assert case.n_prior == len(case.candidates)


def test_exploration_cases_target_first_then_unvisited(small_split):
    cases = build_cases(small_split, "exploration", seed=0)
    assert cases
    for case in cases[:25]:
        assert not small_split.repeat_flags[case.position]
        assert case.candidates[0] == case.target_id
        prior = set(prior_stores_of(small_split, case.position))
        assert case.target_id not in prior
        rest = case.candidates[1:]
        assert len(set(rest)) == len(rest)
        assert not (set(rest) & prior)
        assert case.target_id not in rest
        assert case.n_prior == 0
        assert len(case.candidates) <= MAX_CANDIDATES


def test_exploration_cases_fill_to_cap_when_catalog_allows(small_split):
    n_stores = len(small_split.log.store_ids)
    cases = build_cases(small_split, "exploration", seed=0)
    for case in cases[:10]:
        prior = len(prior_stores_of(small_split, case.position))
        want = min(MAX_CANDIDATES, n_stores - prior)
        assert len(case.candidates) == want


def test_combined_cases_split_into_prior_then_unvisited(small_split):
    cases = build_cases(small_split, "combined", seed=0)
    assert cases
    for case in cases[:25]:
        prior = prior_stores_of(small_split, case.position)
        is_repeat = bool(small_split.repeat_flags[case.position])
        assert case.n_prior == len(prior)
        head = list(case.candidates[: case.n_prior])
        assert head == prior
        tail = case.candidates[case.n_prior:]
        if is_repeat:
            assert case.target_id in head
            assert case.target_id not in tail
        else:
            # unvisited target is appended right after the priors
            assert tail[0] == case.target_id
        assert len(set(case.candidates)) == len(case.candidates)
        assert len(case.candidates) <= MAX_CANDIDATES


def test_cases_are_deterministic_and_position_keyed(small_split):
    a = build_cases(small_split, "exploration", seed=7)
    b = build_cases(small_split, "exploration", seed=7)
    assert a == b
    c = build_cases(small_split, "exploration", seed=8)
    assert any(x.candidates != y.candidates for x, y in zip(a, c))
    # sampling is keyed by log position: the same case keeps its candidates
    # when other cases are dropped by max_cases subsetting
    subset = build_cases(small_split, "exploration", seed=7, max_cases=5)
    by_pos = {case.position: case for case in a}
    for case in subset:
        assert case == by_pos[case.position]


def test_max_cases_subsets_evenly(small_split):
    full = build_cases(small_split, "combined", seed=0)
    sub = build_cases(small_split, "combined", seed=0, max_cases=7)
    assert len(sub) == 7
    positions = [c.position for c in sub]
    assert positions == sorted(positions)
    assert set(positions) <= {c.position for c in full}


def test_validation_cases_use_validation_partition(small_split):
    cases = validation_cases(small_split, "repeat", seed=0)
    assert cases
    valid_set = set(int(i) for i in small_split.valid_idx)
    assert all(case.position in valid_set for case in cases)


def test_build_cases_rejects_unknown_protocol(small_split):
    with pytest.raises(ValueError, match="unknown protocol"):
        build_cases(small_split, "both", seed=0)


# ---------------------------------------------------------------------------
# ranking metrics


def slate(scores, ids=None):
    ids = ids or tuple(f"s{i}" for i in range(len(scores)))
    return ScoredSlate(tuple(ids), np.asarray(scores, dtype=np.float64), "test")


def test_rank_metrics_basic_positions():
    r = rank_metrics(slate([0.9, 0.5, 0.1]), "s0", k=3)
    assert (r.rank, r.hr, r.ndcg) == (1, 1.0, 1.0)
    r = rank_metrics(slate([0.5, 0.9, 0.1]), "s0", k=3)
    assert r.rank == 2 and r.ndcg == pytest.approx(1 / math.log2(3))
    r = rank_metrics(slate([0.0, 0.9, 0.5, 0.4]), "s0", k=3)
    assert (r.rank, r.hr, r.ndcg) == (4, 0.0, 0.0)


def test_rank_metrics_ties_count_against_target():
    r = rank_metrics(slate([0.5, 0.5, 0.5]), "s0", k=3)
    assert r.rank == 3
    r = rank_metrics(slate([0.5, 0.5, 0.5, 0.5]), "s0", k=3)
    assert (r.rank, r.hr) == (4, 0.0)


@settings(max_examples=200, deadline=None)
@given(
    scores=st.lists(st.integers(-3, 3), min_size=1, max_size=12),
    data=st.data(),
)
def test_rank_metrics_matches_brute_force_pessimistic_rank(scores, data):
    t = data.draw(st.integers(0, len(scores) - 1), label="target")
    want = 1 + sum(1 for j, s in enumerate(scores) if j != t and s >= scores[t])
    for k in (1, 2, 3, 5, 10):
        r = rank_metrics(slate(scores), f"s{t}", k=k)
        assert r.rank == want
        assert r.hr == (1.0 if want <= k else 0.0)
        assert r.ndcg == (1.0 / math.log2(want + 1.0) if want <= k else 0.0)


def test_rank_metrics_validates_inputs():
    with pytest.raises(ValueError, match="not among candidates"):
        rank_metrics(slate([1.0, 0.5]), "missing", k=3)
    with pytest.raises(ValueError, match="k must be positive"):
        rank_metrics(slate([1.0]), "s0", k=0)


# ---------------------------------------------------------------------------
# evaluate


def make_cases(n, protocol="repeat"):
    return [
        EvalCase(i, protocol, f"u{i}", "t", ("t", "x", "y", "z"), 4)
        for i in range(n)
    ]


def test_evaluate_aggregates_means():
    cases = make_cases(4)

    def scorer(case):
        # target ranks 1, 2, 3, 4 across the four cases
        scores = np.zeros(4)
        scores[0] = 1.0
        for j in range(1, case.position + 1):
            scores[j] = 2.0 + j
        return ScoredSlate(case.candidates, scores, "test")

    report = evaluate(scorer, cases, k=3, model_id="demo", seed=5, param_count=9)
    stats = report.protocols["repeat"]
    assert stats["n"] == 4
    assert stats["hr@3"] == pytest.approx(3 / 4)
    want_ndcg = (1.0 + 1 / math.log2(3) + 1 / math.log2(4) + 0.0) / 4
    assert stats["ndcg@3"] == pytest.approx(want_ndcg)
    assert report.model_id == "demo" and report.param_count == 9


def test_evaluate_wraps_scorer_errors_with_position():
    cases = make_cases(2)

    def scorer(case):
        if case.position == 1:
            raise KeyError("boom")
        return ScoredSlate(case.candidates, np.zeros(4), "test")

    with pytest.raises(RuntimeError, match="position 1") as exc_info:
        evaluate(scorer, cases)
    assert isinstance(exc_info.value.__cause__, KeyError)


def test_evaluate_rejects_mixed_protocols_and_bad_slates():
    mixed = make_cases(1) + make_cases(1, protocol="exploration")
    with pytest.raises(ValueError, match="mixed protocols"):
        evaluate(lambda c: ScoredSlate(c.candidates, np.zeros(4), "t"), mixed)
    with pytest.raises(ValueError, match="no cases"):
        evaluate(lambda c: None, [])

    def short_scorer(case):
        return ScoredSlate(case.candidates[:2], np.zeros(2), "t")

    with pytest.raises(RuntimeError, match="scorer returned"):
        evaluate(short_scorer, make_cases(1))


@pytest.mark.parametrize("bad", [0, 2], ids=["target", "other"])
def test_evaluate_rejects_non_finite_scores_with_position(bad):
    cases = make_cases(3)

    def scorer(case):
        scores = np.array([1.0, 0.0, 0.5, 0.25])
        if case.position == 2:
            scores[bad] = np.nan
        return ScoredSlate(case.candidates, scores, "test")

    with pytest.raises(RuntimeError, match="non-finite scores at position 2"):
        evaluate(scorer, cases)


def test_metrics_report_json_deterministic():
    report = MetricsReport(model_id="m", seed=1, param_count=10, k=3)
    report.protocols["repeat"] = {"hr@3": 0.5, "ndcg@3": 0.25, "n": 8}
    a = report.to_json()
    assert a == report.to_json()
    payload = json.loads(a)
    assert payload["model"] == "m"
    assert payload["protocols"]["repeat"]["hr@3"] == 0.5


def test_random_scorer_exploration_hit_rate_near_k_over_cap(small_split):
    """With 1000-candidate slates a random scorer hits HR@3 ~ 3/1000; the tiny
    fixture has fewer stores, so the expectation adapts per slate size."""
    cases = build_cases(small_split, "exploration", seed=0)
    rng = np.random.Generator(np.random.PCG64(0))

    def scorer(case):
        return ScoredSlate(
            case.candidates, rng.standard_normal(len(case.candidates)), "rand"
        )

    report = evaluate(scorer, cases, k=3)
    hr = report.protocols["exploration"]["hr@3"]
    expect = np.mean([3 / len(c.candidates) for c in cases])
    sigma = math.sqrt(expect * (1 - expect) / len(cases))
    assert abs(hr - expect) <= 4 * sigma


def _unknown_candidate_scorer(model, split, seqs, vocabs):
    protocol = "repeat" if model == "hispop" else "combined"
    cases = build_cases(split, protocol, seed=0, max_cases=3, seqs=seqs, vocabs=vocabs)
    cases[1] = dataclasses.replace(
        cases[1], candidates=cases[1].candidates[:-1] + ("no-such-store",)
    )
    if model == "hispop":
        return baselines.hispop_scorer(split, seqs, vocabs), cases
    if model == "sonly":
        state = baselines.sonly_build(split, dim=4, seed=0)
        return baselines.sonly_scorer(state, split, cases, seqs, vocabs), cases
    rep = reprec.reprec_build(split, dim=4, seed=1)
    exp = exprec.exprec_build(split, dim=4, seed=2, window=4, k_neighbors=3)
    return ensemble.concat_scorer(rep, exp, split, cases, seqs, vocabs), cases


@pytest.mark.parametrize("model", ["sonly", "hispop", "concat"])
def test_unknown_candidate_fails_with_catalog_message(small_split, small_seqs, model):
    seqs, vocabs = small_seqs
    scorer, cases = _unknown_candidate_scorer(model, small_split, seqs, vocabs)
    with pytest.raises(RuntimeError, match=f"position {cases[1].position}") as exc_info:
        evaluate(scorer, cases)
    cause = exc_info.value.__cause__
    assert isinstance(cause, KeyError)
    assert cause.args[0] == "store 'no-such-store' not in catalog"


def test_store_codes_are_catalog_positions(small_seqs):
    _, vocabs = small_seqs
    ids = (vocabs.store_ids[3], vocabs.store_ids[0], vocabs.store_ids[3])
    codes = vocabs.store_codes(ids)
    assert codes.dtype == np.int64
    np.testing.assert_array_equal(codes, [3, 0, 3])
    assert vocabs.store_codes(()).shape == (0,)
