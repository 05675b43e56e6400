"""Intent-aware combination of the repeat and exploration recommenders.

A small intent network (GRU over the user's past repeat/explore flags,
concatenated with situation and user embeddings) predicts how likely the next
order is a repeat.  Both base models' slates are min-max normalized, and the
final score is RepeatNet's mixture (Ren et al., AAAI 2019)
``P(i) = P(repeat) P(i | repeat) + P(explore) P(i | explore)``: an item of
part ``k`` (repeat or explore) scores ``p_k * softmax_{j in part k}(b_j / tau_k)``.

The softmax runs within each part, not over the whole slate, so each part is
a distribution that sums to its intent probability.  A short repeat part
thus keeps its share next to a long explore part, which would drown it under
one softmax over both.  Within a part the order is the base model's.

Training is two-stage on frozen base models: the intent head first (binary
cross-entropy on repeat flags), then the two temperatures ``tau_k`` (and the
intent head with them) by a pairwise ranking loss on the mixture over
training slates of up to ``budget`` items plus the intent loss as an
auxiliary term, early-stopped on combined validation HR@3.  Each
``1 / tau_k`` is the softplus of a parameter that starts at 0, so both
temperatures start at ``1 / ln 2``.  Stage 2's frozen base scores, over its
training slates and its validation cases, depend on neither stage, so on
Linux a forked child computes them while stage 1 trains; that child's time
and memory fall outside perfbench's span roll-up and ``peak_rss_mb``.
Training slates, validation and test
cases share one padded layout, :class:`fdrec.evalharness.CaseSet`, and run
the same mixture forward over all their rows at once.
"""

from __future__ import annotations

import os
import pickle
import signal
import sys
import tempfile
from typing import Callable

import numpy as np

from . import diffcore as dc
from . import evalharness, exprec, features, reprec
from .training import (ModelSection, TrainResult, TrainSettings, run_training,
                       validation_metric, validation_set)

__all__ = [
    "ensemble_build",
    "ensemble_train",
    "ensemble_scores",
    "concat_scores",
]

def ensemble_build(data: features.Dataset, model: ModelSection, seed: int) -> dc.ModelState:
    vocabs, dim = data.vocabs, model.dim
    state = features.new_state(
        data, "ensemble", seed, dim=dim,
        window=model.history_window, budget=model.budget, user_ids=vocabs.user_ids,
    )
    features.add_situation_tables(state, dim, len(vocabs.location_ids))
    state.add_embedding("emb.user", len(vocabs.user_ids), dim)
    state.add_embedding("emb.flag", 2, dim)
    state.add_gru("gru.intent", dim, dim)
    state.add_dense("intent", 2, 3 * dim)
    # softplus of these is 1 / tau of the repeat and explore parts (ln 2 at
    # 0); a zero init draws nothing from the state's generator
    state.add_param("inv_temp", (2,), 0.0)
    return state


# ---------------------------------------------------------------- intent

def _intent_logits(state: dc.ModelState, seqs: features.UserSequences,
                   rows: np.ndarray) -> dc.Var:
    """Intent logits [B,2] (repeat, explore) for the interactions at ``rows``."""
    win = features.gather_window(seqs, rows, int(state.meta["window"]))
    flags = seqs.repeat[win.slot].astype(np.int64)
    h = dc.gru_sequence(dc.gru_leaves(state, "gru.intent"),
                        (state.leaf("emb.flag"), flags), win.mask)
    e_mu = features.situation(state, seqs, rows)
    u = dc.gather_rows(state.leaf("emb.user"), win.user)
    feats = dc.concat([h, e_mu, u], axis=-1)
    return dc.dense(state.leaf("intent.w"), state.leaf("intent.b"), feats)


def _intent_probs(state: dc.ModelState, data: features.Dataset,
                  rows: np.ndarray) -> np.ndarray:
    """(repeat_prob, explore_prob) [N,2] for the interactions at ``rows``."""
    return features.query_rows(
        state, data, rows,
        lambda st, d, chunk: dc.softmax(_intent_logits(st, d.seqs, chunk)),
    )


def _intent_ce(logits: dc.Var, repeat: np.ndarray) -> dc.Var:
    """Per-row two-class cross-entropy from logits: -log softmax_true."""
    true_col = np.where(repeat, 0, 1)
    ar = np.arange(len(repeat))
    return dc.bpr_loss(dc.getitem(logits, (ar, true_col)),
                       dc.getitem(logits, (ar, 1 - true_col)))


# ---------------------------------------------------------------- combine

def _normalized(raw: np.ndarray, parts) -> np.ndarray:
    """Each row of ``raw`` [S, C] min-max normalized to [0, 1] within each of
    the disjoint boolean masks ``parts`` [S, C]; a constant part maps to all
    0.5, and an item in no part to 0."""
    out = np.zeros(raw.shape)
    for part in parts:
        lo = raw.min(axis=1, initial=np.inf, where=part, keepdims=True)
        hi = raw.max(axis=1, initial=-np.inf, where=part, keepdims=True)
        span = hi - lo  # -inf on an empty part, where nothing is written
        np.divide(raw - lo, span, out=out, where=part & (span > 0))
        out[part & (span == 0)] = 0.5
    return out


def _mixture(state: dc.ModelState, probs: dc.Var, base: np.ndarray,
             rep: np.ndarray, real: np.ndarray) -> dc.Var:
    """Scores [G, C] of padded slates with normalized base scores ``base``
    [G, C], whose repeat items are where ``rep`` [G, C] is 1 and whose items
    are where ``real`` [G, C] is 1: each part's softmax of ``base / tau_part``,
    times that part's probability in ``probs`` [G, 2].  An empty part adds
    nothing, and a pad scores 0."""
    inv_tau = dc.softplus(state.leaf("inv_temp"))
    rep, real = np.asarray(rep, dtype=np.float64), np.asarray(real, dtype=np.float64)
    total = None
    for k, in_part in enumerate((rep, real - rep)):
        # the other part's items and the pads sit 1e9 lower, so their exp is 0
        logits = dc.add(dc.mul(dc.getitem(inv_tau, slice(k, k + 1)), base),
                        (in_part - 1.0) * 1e9)
        term = dc.mul(dc.mul(dc.softmax(logits), in_part),
                      dc.getitem(probs, (slice(None), slice(k, k + 1))))
        total = term if total is None else dc.add(total, term)
    return total


def _case_bases(rep_state, exp_state, data: features.Dataset,
                cases: evalharness.CaseSet):
    """(base, rep, real) [N, C]: each case's normalized frozen base scores,
    with its repeat and real-item masks.  RepRec scores a row's first
    ``n_prior`` candidates and ExpRec the rest, each part normalized on its
    own; pads hold 0.  Both models' queries come from one chunked forward."""
    rows = data.seqs.flat_of_global[cases.position]
    rep_q = features.query_rows(rep_state, data, rows, reprec.reprec_query)
    exp_q = features.query_rows(exp_state, data, rows, exprec.exprec_query)
    raw = evalharness.row_dots(rep_state.value("emb.store"), rep_q, cases,
                               np.zeros_like(cases.n_prior), cases.n_prior)
    evalharness.row_dots(exp_state.value("emb.store"), exp_q, cases,
                         cases.n_prior, cases.length, out=raw)
    real = cases.mask
    rep = np.arange(raw.shape[1]) < cases.n_prior[:, None]
    return _normalized(raw, (rep, real & ~rep)), rep, real


# ---------------------------------------------------------------- training

def _build_training_slates(
    data: features.Dataset, rows, budget, seed
) -> evalharness.CaseSet:
    """Combined training slates of up to ``budget`` stores for the flat
    ``rows``, as one padded case set: each row's repeat part (its latest
    prior stores, the target first when it is a repeat) then its exploration
    part (an unvisited target first, then sampled unvisited fillers).  A row
    with fewer than two items is dropped."""
    seqs = data.seqs
    n_stores = len(data.vocabs.store_ids)
    rep_cap = budget // 2
    rows = np.asarray(rows, dtype=np.int64)
    cand = np.zeros((len(rows), budget), dtype=np.int64)
    length, n_prior, tcol = (np.zeros(len(rows), dtype=np.int64) for _ in range(3))
    for i, row in enumerate(rows.tolist()):
        priors = seqs.priors(row)
        tc = int(seqs.store[row])
        is_rep = bool(seqs.repeat[row])

        if is_rep:
            others = priors[priors != tc]
            # the target plus the rep_cap - 1 latest others; others[-0:]
            # would keep them all when rep_cap is 1
            keep = others[max(len(others) - (rep_cap - 1), 0):]
            rep_part = np.concatenate([[tc], keep])
        else:
            rep_part = priors[-rep_cap:] if len(priors) > rep_cap else priors

        visited = np.zeros(n_stores, dtype=bool)
        visited[priors] = True
        visited[tc] = True  # target never doubles as a sampled filler
        pool = np.nonzero(~visited)[0]
        want = budget - len(rep_part) - (0 if is_rep else 1)
        take = min(max(want, 0), len(pool))
        picked = pool[evalharness._case_rng(seed, row).permutation(len(pool))[:take]]
        codes = np.concatenate([rep_part, picked] if is_rep else [rep_part, [tc], picked])
        cand[i, : len(codes)] = codes
        length[i], n_prior[i] = len(codes), len(rep_part)
        tcol[i] = 0 if is_rep else len(rep_part)

    kept = length >= 2  # a ranking pair needs at least two items
    rows, length = rows[kept], length[kept]
    return evalharness.CaseSet(
        "combined", data.split.log.by_user[0][rows], seqs.user[rows], seqs.store[rows],
        cand[kept, : length.max(initial=1)], length, n_prior[kept], tcol[kept],
        data.vocabs.store_ids, data.split.log.user_ids,
    )


def _combined_batch_loss(
    state: dc.ModelState,
    slates: evalharness.CaseSet,
    bases: tuple[np.ndarray, np.ndarray, np.ndarray],
    seqs: features.UserSequences,
    chunk: np.ndarray,
    rng: np.random.Generator,
    lam: float,
) -> dc.Var:
    """Mean pairwise ranking loss of the mixture, plus ``lam`` times the
    intent cross-entropy, over the slates at ``chunk`` with their ``bases``.

    Each target's negative is drawn among its slate's real items, one draw
    per slate length in the order the lengths first appear in the chunk."""
    length, tgt = slates.length[chunk], slates.tcol[chunk]
    j = np.empty(len(chunk), dtype=np.int64)
    for n in dict.fromkeys(length.tolist()):
        at = length == n
        j[at] = rng.integers(0, n - 1, size=int(at.sum()))
    j += j >= tgt

    width = int(length.max())
    base, rep, real = (x[chunk, :width] for x in bases)
    rows = seqs.flat_of_global[slates.position[chunk]]
    logits = _intent_logits(state, seqs, rows)
    p = _mixture(state, dc.softmax(logits), base, rep, real)
    ar = np.arange(len(chunk))
    rank = dc.sum_(dc.bpr_loss(dc.getitem(p, (ar, tgt)), dc.getitem(p, (ar, j))))
    ce = dc.sum_(_intent_ce(logits, seqs.repeat[rows]))
    return dc.mul(dc.add(rank, dc.mul(ce, lam)), 1.0 / len(chunk))


def _forked(fn: Callable[[], object]) -> Callable[..., object]:
    """``join``: ``join()`` returns ``fn()`` or raises its exception's type
    with its message, and ``join(kill=True)`` drops the result.

    On Linux ``fn`` runs at once in a forked child, which pickles its outcome
    into an unlinked temporary file and leaves by ``os._exit``.  A file, not
    a pipe, lets the child exit without waiting for the parent to read a
    large result; an idle forked child costs the parent copy-on-write faults.
    ``join`` reaps the child (killing it first if ``kill``) and raises
    ``RuntimeError`` naming the wait status of a child that left no result.
    Without ``os.fork``, or off Linux, where a BLAS such as macOS's
    Accelerate is not fork-safe, ``join()`` calls ``fn`` in process."""
    if not hasattr(os, "fork") or sys.platform != "linux":
        return lambda kill=False: None if kill else fn()
    out = tempfile.TemporaryFile()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            try:
                outcome = True, fn()
            except BaseException as exc:
                outcome = False, (type(exc), str(exc))
            pickle.dump(outcome, out, pickle.HIGHEST_PROTOCOL)
            out.flush()
            code = 0
        finally:
            os._exit(code)

    def join(kill: bool = False):
        with out:
            if kill:
                os.kill(pid, signal.SIGKILL)
            status = os.waitpid(pid, 0)[1]
            if kill:
                return None
            if status != 0:
                code = os.waitstatus_to_exitcode(status)
                names = {int(s): s.name for s in signal.Signals}
                why = f"exit code {code}" if code >= 0 else f"signal {names.get(-code, -code)}"
                raise RuntimeError(f"forked child {pid} left no result "
                                   f"(wait status {status}: {why})")
            out.seek(0)
            ok, value = pickle.load(out)
        if not ok:
            kind, message = value
            raise kind(message)
        return value

    return join


def ensemble_train(
    data: features.Dataset,
    settings: TrainSettings,
    model: ModelSection,
    frozen_reprec: dc.ModelState,
    frozen_exprec: dc.ModelState,
) -> tuple[dc.ModelState, dict[str, TrainResult]]:
    """Two-stage training against frozen base models.

    Stage 2's inputs, the frozen base scores of its training slates and of
    the combined validation cases, depend only on the base models and the
    data.  So the slates and cases are built first, and their bases are
    computed in a forked child (see :func:`_forked`) while stage 1 trains the
    intent head in this process.  The child runs the same code on a
    copy-on-write image of this process, so every result keeps its bytes.
    Its time and memory fall outside perfbench's span roll-up and its
    ``peak_rss_mb``, which read this process only."""
    if frozen_reprec is None or frozen_exprec is None:
        raise ValueError("ensemble training needs both frozen base models")
    seqs = data.seqs
    state = ensemble_build(data, model, settings.seed)

    train_rows = seqs.flat_of_global[data.split.train_idx]
    valid_rows = seqs.flat_of_global[data.split.valid_idx]

    # stage 2's slates and validation cases, whose frozen bases a child scores
    rows = train_rows
    cap = settings.max_instances
    if cap and len(rows) > cap:
        keep = np.unique(np.linspace(0, len(rows) - 1, cap).astype(np.int64))
        rows = rows[keep]
    slates = _build_training_slates(data, rows, model.budget, settings.seed)
    if not len(slates):
        raise ValueError("no combined training slates could be built")
    val_cases = validation_set(data, "combined", settings)
    join = _forked(lambda: tuple(_case_bases(frozen_reprec, frozen_exprec, data, cases)
                                 for cases in (slates, val_cases)))

    # stage 1: intent head, early-stopped on validation cross-entropy
    def intent_loss(st, chunk, rng):
        rows = train_rows[chunk]
        return dc.mean_(_intent_ce(_intent_logits(st, seqs, rows), seqs.repeat[rows]))

    val_rows = valid_rows[: min(len(valid_rows), 5000)]

    def intent_val(st) -> float:
        probs = _intent_probs(st, data, val_rows)
        y = seqs.repeat[val_rows]
        p_true = np.where(y, probs[:, 0], probs[:, 1])
        return float(np.log(np.clip(p_true, 1e-12, None)).mean())

    try:
        result_intent = run_training(
            state, len(train_rows), intent_loss, intent_val, settings, stream=104
        )
    except BaseException:
        join(kill=True)
        raise

    # stage 2: the mixture over padded slates, frozen base scores
    bases, val_bases = join()
    combined_val = validation_metric(
        val_cases, settings, "ensemble",
        lambda st: _mixture_scores(st, data, val_cases, val_bases),
    )

    def combined_loss(st, chunk, rng):
        return _combined_batch_loss(st, slates, bases, seqs, chunk, rng,
                                    model.intent_weight)

    result_combine = run_training(
        state, len(slates), combined_loss, combined_val, settings, stream=105
    )
    return state, {"intent": result_intent, "combine": result_combine}


# ---------------------------------------------------------------- scoring

def _mixture_scores(state: dc.ModelState, data: features.Dataset, cases,
                    bases) -> np.ndarray:
    """[N, C] mixture scores of each case's base slate ``bases``
    (see :func:`_case_bases`); pads score 0.  Rows go through the mixture in
    blocks of at most 2**15 slots, which bounds the tape's arrays on
    1000-wide slates; a row's scores do not depend on its block."""
    probs = _intent_probs(state, data, data.seqs.flat_of_global[cases.position])
    step = max((1 << 15) // cases.cand.shape[1], 1)
    return np.concatenate([
        _mixture(state, dc.Var(probs[i : i + step]), *(b[i : i + step] for b in bases)).data
        for i in range(0, max(len(cases), 1), step)
    ])


def ensemble_scores(state: dc.ModelState, rep_state: dc.ModelState,
                    exp_state: dc.ModelState, data: features.Dataset,
                    cases) -> np.ndarray:
    """[N, C] combined-protocol scores for ``cases`` from the full mixture
    pipeline."""
    return _mixture_scores(state, data, cases,
                           _case_bases(rep_state, exp_state, data, cases))


def concat_scores(rep_state: dc.ModelState, exp_state: dc.ModelState,
                  data: features.Dataset, cases) -> np.ndarray:
    """Unit-weight reference: normalized base slates concatenated as-is.

    Min-max normalization puts the top item of each part at exactly 1.0, and
    ranking is pessimistic, so a target at the top of its part ties with the
    other part's top and ranks 2, never 1.  Its HR@3 is unaffected, but its
    NDCG@3 reads low against a model that breaks the tie: compare ``concat``
    with other models on HR@3."""
    return _case_bases(rep_state, exp_state, data, cases)[0]
