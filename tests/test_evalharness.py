import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdrec import baselines, ensemble, evalharness, exprec, reprec
from fdrec.training import ModelSection
from fdrec.evalharness import (
    MAX_CANDIDATES,
    CaseSet,
    MetricsReport,
    build_cases,
    evaluate,
    validation_cases,
)
from oracles import ScoredSlate, rank_metrics, to_json


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
    for case in list(cases)[:25]:
        assert small_split.repeat_flags[case.position]
        want = prior_stores_of(small_split, case.position)
        assert list(case.candidates) == want
        assert case.target_id in case.candidates
        assert case.n_prior == len(case.candidates)


def test_exploration_cases_target_first_then_unvisited(small_split):
    cases = build_cases(small_split, "exploration", seed=0)
    assert cases
    for case in list(cases)[:25]:
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
    for case in list(cases)[:10]:
        prior = len(prior_stores_of(small_split, case.position))
        want = min(MAX_CANDIDATES, n_stores - prior)
        assert len(case.candidates) == want


def test_combined_cases_split_into_prior_then_unvisited(small_split):
    cases = build_cases(small_split, "combined", seed=0)
    assert cases
    for case in list(cases)[:25]:
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
    assert list(a) == list(b)
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


@pytest.mark.parametrize("protocol", ["repeat", "exploration", "combined"])
def test_capped_cases_are_the_uncapped_cases_at_linspace_indices(small_split, protocol):
    full = list(build_cases(small_split, protocol, seed=4))
    for cap in (1, 2, 7, len(full) - 1, len(full), len(full) + 5):
        capped = build_cases(small_split, protocol, seed=4, max_cases=cap)
        keep = range(len(full))
        if len(full) > cap:
            keep = np.unique(np.linspace(0, len(full) - 1, cap).astype(np.int64))
        assert list(capped) == [full[i] for i in keep]


def test_case_set_arrays_match_its_case_views(small_split, small_seqs):
    seqs, vocabs = small_seqs
    for protocol in ("repeat", "exploration", "combined"):
        cases = build_cases(small_split, protocol, seed=1, seqs=seqs, vocabs=vocabs)
        assert cases.cand.shape == (len(cases), cases.length.max())
        assert not cases.cand[~cases.mask].any()
        for i, case in enumerate(cases):
            codes = cases.cand[i, : cases.length[i]]
            assert tuple(vocabs.store_ids[c] for c in codes) == case.candidates
            assert case.candidates[cases.tcol[i]] == case.target_id


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


def case_set(scores_shape, lengths=None, tcol=None, protocol="repeat"):
    """Hand-made cases: row ``i`` at log position ``100 + i`` ranks codes
    ``0 .. lengths[i] - 1`` of catalog ``s0, s1, ...``; the target is at
    ``tcol[i]`` (default 0)."""
    n, c = scores_shape
    lengths = np.full(n, c) if lengths is None else np.asarray(lengths)
    tcol = np.zeros(n, dtype=np.int64) if tcol is None else np.asarray(tcol)
    cand = np.tile(np.arange(c), (n, 1)) * (np.arange(c) < lengths[:, None])
    return CaseSet(
        protocol, 100 + np.arange(n), np.arange(n), cand[np.arange(n), tcol], cand,
        lengths, lengths.copy(), tcol, [f"s{j}" for j in range(c)],
        [f"u{i}" for i in range(n)],
    )


def make_cases(n, protocol="repeat"):
    return case_set((n, 4), protocol=protocol)


def test_evaluate_aggregates_means():
    cases = make_cases(4)

    def scorer(cs):
        # target ranks 1, 2, 3, 4 across the four cases
        scores = np.zeros((4, 4))
        scores[:, 0] = 1.0
        for i in range(4):
            scores[i, 1 : i + 1] = 2.0 + np.arange(1, i + 1)
        return scores

    report = evaluate(scorer, cases, k=3, model_id="demo", seed=5, param_count=9)
    stats = report.protocols["repeat"]
    assert stats["n"] == 4
    assert stats["hr@3"] == pytest.approx(3 / 4)
    want_ndcg = (1.0 + 1 / math.log2(3) + 1 / math.log2(4) + 0.0) / 4
    assert stats["ndcg@3"] == pytest.approx(want_ndcg)
    assert report.model_id == "demo" and report.param_count == 9
    np.testing.assert_array_equal(report.ranks, [1, 2, 3, 4])


def test_evaluate_rejects_empty_cases_and_bad_slates():
    with pytest.raises(ValueError, match="no cases"):
        evaluate(lambda c: None, make_cases(0))
    with pytest.raises(ValueError, match="k must be positive"):
        evaluate(lambda c: np.zeros((1, 4)), make_cases(1), k=0)
    with pytest.raises(RuntimeError, match="scorer returned scores of shape"):
        evaluate(lambda c: np.zeros((1, 2)), make_cases(1))
    cases = make_cases(2)
    missing = dataclasses.replace(cases, tcol=np.array([0, 3]))  # column 3 holds s3
    with pytest.raises(RuntimeError, match="target not among candidates at position 101"):
        evaluate(lambda c: np.zeros((2, 4)), missing)


@pytest.mark.parametrize("bad", [0, 2], ids=["target", "other"])
def test_evaluate_rejects_non_finite_scores_with_position(bad):
    cases = make_cases(3)

    def scorer(cs):
        scores = np.tile([1.0, 0.0, 0.5, 0.25], (3, 1))
        scores[2, bad] = np.nan
        return scores

    with pytest.raises(RuntimeError, match="non-finite scores at position 102"):
        evaluate(scorer, cases)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_evaluate_ranks_every_row_as_scalar_rank_metrics(data):
    """Batched ranking over padded [N, C] integer scores in [-3, 3] (frequent
    ties) against the scalar oracle, row by row; pad slots may hold NaN."""
    n = data.draw(st.integers(1, 6), label="rows")
    c = data.draw(st.integers(1, 8), label="columns")
    lengths = data.draw(st.lists(st.integers(1, c), min_size=n, max_size=n))
    tcol = [data.draw(st.integers(0, m - 1)) for m in lengths]
    values = data.draw(st.lists(st.integers(-3, 3), min_size=n * c, max_size=n * c))
    pad_nan = data.draw(st.booleans(), label="NaN in pad slots")
    k = data.draw(st.sampled_from([1, 2, 3, 5, 10]), label="k")
    cases = case_set((n, c), lengths, tcol)
    scores = np.array(values, dtype=np.float64).reshape(n, c)
    if pad_nan:
        scores[~cases.mask] = np.nan
    report = evaluate(lambda cs: scores, cases, k=k)
    hr_sum = ndcg_sum = 0.0
    for i, case in enumerate(cases):
        r = rank_metrics(ScoredSlate(case.candidates, scores[i, : lengths[i]], "t"),
                         case.target_id, k=k)
        assert report.ranks[i] == r.rank
        hr_sum += r.hr
        ndcg_sum += r.ndcg
    stats = report.protocols["repeat"]
    assert stats[f"hr@{k}"] == hr_sum / n
    assert stats[f"ndcg@{k}"] == ndcg_sum / n
    # a NaN in a real slot still fails, naming that case's position
    row = data.draw(st.integers(0, n - 1), label="NaN row")
    scores[row, data.draw(st.integers(0, lengths[row] - 1), label="NaN column")] = np.nan
    with pytest.raises(RuntimeError, match=f"non-finite scores at position {100 + row}"):
        evaluate(lambda cs: scores, cases, k=k)


def test_metrics_report_json_deterministic():
    report = MetricsReport(model_id="m", seed=1, param_count=10, k=3)
    report.protocols["repeat"] = {"hr@3": 0.5, "ndcg@3": 0.25, "n": 8}
    a = to_json(report)
    assert a == to_json(report)
    payload = json.loads(a)
    assert payload["model"] == "m"
    assert payload["protocols"]["repeat"]["hr@3"] == 0.5


def test_random_scorer_exploration_hit_rate_near_k_over_cap(small_split):
    """With 1000-candidate slates a random scorer hits HR@3 ~ 3/1000; the tiny
    fixture has fewer stores, so the expectation adapts per slate size."""
    cases = build_cases(small_split, "exploration", seed=0)
    scores = np.random.Generator(np.random.PCG64(0)).standard_normal(cases.cand.shape)
    report = evaluate(lambda cs: scores, cases, k=3)
    hr = report.protocols["exploration"]["hr@3"]
    expect = np.mean([3 / len(c.candidates) for c in cases])
    sigma = math.sqrt(expect * (1 - expect) / len(cases))
    assert abs(hr - expect) <= 4 * sigma


def _unknown_candidate_scorer(model, data, code):
    protocol = "repeat" if model == "hispop" else "combined"
    cases = build_cases(data.split, protocol, seed=0, max_cases=3, seqs=data.seqs,
                        vocabs=data.vocabs)
    cand = cases.cand.copy()
    cand[1, cases.length[1] - 1] = code
    cases = dataclasses.replace(cases, cand=cand)
    if model == "hispop":
        return (lambda cs: baselines.hispop_scores(data, cs)), cases
    if model == "sonly":
        state = baselines.sonly_build(data, ModelSection(dim=4), seed=0)
        return (lambda cs: evalharness.dot_scores(state, data, cs, baselines.sonly_query)), cases
    rep = reprec.reprec_build(data, ModelSection(dim=4), seed=1)
    exp = exprec.exprec_build(data, ModelSection(dim=4, history_window=4, k_neighbors=3), seed=2)
    return (lambda cs: ensemble.concat_scores(rep, exp, data, cs)), cases


@pytest.mark.parametrize("model", ["sonly", "hispop", "concat"])
def test_unknown_candidate_fails_with_catalog_message(small_data, model):
    """A code outside the catalog fails before scoring: -1 would otherwise
    index the last store silently."""
    for code in (-1, len(small_data.vocabs.store_ids)):
        scorer, cases = _unknown_candidate_scorer(model, small_data, code)
        with pytest.raises(RuntimeError, match="candidate outside the store catalog "
                           f"at position {cases.position[1]}"):
            evaluate(scorer, cases)
