import math
import os

import numpy as np
import pytest

import oracles
from fdrec import diffcore as dc
from fdrec import features
from fdrec.training import TrainSettings, pair_loss, run_training
from conftest import rng


def var(x):
    return dc.Var(np.asarray(x, dtype=np.float64))


def grad_of(expr_fn, *arrays):
    """Analytic gradients of a scalar expression of the given arrays."""
    vs = [var(a) for a in arrays]
    out = expr_fn(*vs)
    dc.backward(out)
    return out.data, [v.grad for v in vs]


def numeric_grad(expr_fn, arrays, i, epsilon=1e-6):
    """Central finite differences w.r.t. ``arrays[i]``."""
    base = [np.asarray(a, dtype=np.float64).copy() for a in arrays]
    g = np.zeros_like(base[i])
    it = np.nditer(base[i], flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        plus = [b.copy() for b in base]
        minus = [b.copy() for b in base]
        plus[i][idx] += epsilon
        minus[i][idx] -= epsilon
        f_plus = expr_fn(*[var(b) for b in plus]).data
        f_minus = expr_fn(*[var(b) for b in minus]).data
        g[idx] = (f_plus - f_minus) / (2 * epsilon)
        it.iternext()
    return g


def check_grads(expr_fn, *arrays, tol=1e-6):
    _, grads = grad_of(expr_fn, *arrays)
    for i in range(len(arrays)):
        want = numeric_grad(expr_fn, arrays, i)
        scale = max(1.0, float(np.abs(want).max()))
        np.testing.assert_allclose(grads[i], want, atol=tol * scale, rtol=0)


# ---------------------------------------------------------------------------
# forward values


def test_arithmetic_matches_numpy():
    a = rng(1).normal(size=(3, 4))
    b = rng(2).normal(size=(3, 4)) + 2.0
    np.testing.assert_array_equal(dc.add(var(a), var(b)).data, a + b)
    np.testing.assert_array_equal(dc.sub(var(a), var(b)).data, a - b)
    np.testing.assert_array_equal(dc.mul(var(a), var(b)).data, a * b)
    np.testing.assert_array_equal(dc.div(var(a), var(b)).data, a / b)


def test_softmax_known_value_and_normalization():
    out = dc.softmax(var([0.0, math.log(3.0)])).data
    np.testing.assert_allclose(out, [0.25, 0.75], atol=1e-12, rtol=0)
    x = rng(5).normal(size=(4, 7)) * 3
    rows = dc.softmax(var(x), axis=-1).data
    np.testing.assert_allclose(rows.sum(axis=-1), np.ones(4), atol=1e-12, rtol=0)
    assert (rows > 0).all()


def test_bpr_loss_is_softplus_of_margin():
    pos, neg = var([2.0, 0.5]), var([1.0, 3.0])
    want = np.log1p(np.exp(np.array([1.0, 3.0]) - np.array([2.0, 0.5])))
    np.testing.assert_allclose(dc.bpr_loss(pos, neg).data, want, atol=1e-12, rtol=0)


def test_softplus_is_stable_for_large_inputs():
    out = dc.softplus(var([-800.0, 0.0, 800.0])).data
    assert out[0] == 0.0
    assert out[1] == pytest.approx(math.log(2.0))
    assert out[2] == pytest.approx(800.0)
    assert np.isfinite(out).all()


def test_gather_rows_supports_matrix_indices():
    table = rng(6).normal(size=(9, 4))
    idx = np.array([[1, 2, 1], [0, 8, 3]])
    got = dc.gather_rows(var(table), idx).data
    np.testing.assert_array_equal(got, table[idx])


# ---------------------------------------------------------------------------
# gradients (finite differences)


def test_gradients_elementwise_chain():
    a = rng(7).normal(size=(3, 2))
    b = rng(8).normal(size=(3, 2)) + 3.0
    check_grads(lambda x, y: dc.sum_(dc.mul(dc.tanh(x), dc.div(x, y))), a, b)


def test_gradients_broadcasting_unbroadcasts():
    a = rng(9).normal(size=(4, 3))
    b = rng(10).normal(size=(3,))
    check_grads(lambda x, y: dc.sum_(dc.mul(x, y)), a, b)
    check_grads(lambda x, y: dc.mean_(dc.add(x, y)), a, b)


def test_gradients_dense_and_reshape():
    """One row and two outputs run on zero rows appended to both operands;
    the zeros take no part in any gradient."""
    for rows, outputs in ((1, 2), (3, 5)):
        w = rng(11).normal(size=(outputs, 4))
        b = rng(12).normal(size=(outputs,))
        x = rng(13).normal(size=(rows, 4))
        t = rng(14).normal(size=(rows, outputs))
        check_grads(lambda w, b, x: dc.sum_(dc.mul(dc.dense(w, b, x), t)), w, b, x)
    m = rng(15).normal(size=(3, 5))
    check_grads(lambda x: dc.sum_(dc.tanh(dc.reshape(x, (15,)))), m * 0.1)


@pytest.mark.parametrize("rows, codes, ranges", [
    (1, [0, 5, 17, 255], 1),                # its last code at a range boundary
    (1, [3, 255, 256, 511, 512, 700], 3),   # codes on both sides of each cut
    (4, [1, 256, 700], 3),
], ids=["one-range", "three-ranges", "three-ranges-4-rows"])
def test_gradients_pooled(rows, codes, ranges):
    assert len(np.unique(np.asarray(codes) // 256)) == ranges
    pool = rng(16).uniform(size=(rows, len(codes)))
    emb = rng(17).normal(size=(len(codes), 3))
    t = rng(18).normal(size=(rows, 3))
    check_grads(lambda e: dc.sum_(dc.mul(dc.pooled(pool, e, codes), t)), emb)
    np.testing.assert_allclose(dc.pooled(pool, var(emb), codes).data, pool @ emb,
                               atol=1e-12, rtol=0)


# the largest row count the row-rule sweep checks; at 301 rows OpenBLAS
# rounds a row of a dense head's product differently
SWEEP_ROWS = 256


def product_call(op: str, size: int, dim: int):
    """A ``SWEEP_ROWS``-row problem at one of the models' product shapes, as
    a function of the row count n: ``dense`` with ``size`` inputs and
    ``dim`` outputs, or ``pooled`` over ``size`` ascending codes spread over
    several ranges and a ``dim``-wide table."""
    gen = rng(60 + size + dim)
    if op == "dense":
        w, b, x = (gen.normal(size=s) for s in ((dim, size), (dim,), (SWEEP_ROWS, size)))
        return lambda n: dc.dense(var(w), var(b), var(x[:n])).data
    codes = np.sort(gen.choice(2 * size, size=size, replace=False))
    pool, emb = gen.uniform(size=(SWEEP_ROWS, size)), gen.normal(size=(size, dim))
    return lambda n: dc.pooled(pool[:n], var(emb), codes).data


# dense: cond [D, 4], fuse [2D, 4] and the intent head [3D, 2] at the models'
# dims; pooled: up to 1024 distinct neighbour codes at dims 8 and 64
@pytest.mark.parametrize("op, size, dim", [
    *(("dense", k * d, out) for d in (8, 16, 32, 64) for k, out in ((1, 4), (2, 4), (3, 2))),
    *(("pooled", u, d) for u in (1, 2, 255, 256, 257, 385, 1024) for d in (8, 64)),
])
def test_a_product_row_keeps_its_bits_at_every_row_count(op, size, dim):
    """Each row of an n-row call, n = 1 to ``SWEEP_ROWS``, equals that row of
    the full call bit for bit, so no row depends on its batch mates."""
    call = product_call(op, size, dim)
    full = call(SWEEP_ROWS)
    for n in range(1, SWEEP_ROWS):
        np.testing.assert_array_equal(call(n), full[:n], err_msg=f"{n} rows")


def test_query_chunks_stay_within_the_swept_row_counts():
    """``features.query_rows`` relies on the row rule for whole chunks, and
    the rule is checked, and holds, only up to ``SWEEP_ROWS`` rows."""
    assert 1 <= features.QUERY_CHUNK <= SWEEP_ROWS


def test_gather_rows_bincount_backward_matches_add_at():
    """Repeated indices take the bincount and distinct ones the fast path, in
    gather_rows' backward and segment_sum's forward; both give np.add.at's
    bytes, signed zeros included, which assert_array_equal would not tell apart."""
    gen = rng(40)
    table = gen.normal(size=(20, 6))
    for idx in (np.array([3, 3, 0, 19, 3]), gen.integers(0, 20, size=(7, 11)),
                gen.permutation(20), np.array([17, 2, 9, 0]),
                np.zeros(0, dtype=np.int64), gen.permutation(20)[:12].reshape(3, 4),
                np.array([[5, 5], [1, 5]])):
        g = gen.normal(size=idx.shape + (6,))
        g[..., ::2] = -0.0
        want = np.zeros_like(table)
        np.add.at(want, idx, g)
        (got,) = dc.gather_rows(var(table), idx)._vjp(g)
        assert got.tobytes() == want.tobytes()
        assert not np.signbit(got[got == 0]).any()  # 0.0 + -0.0 is 0.0
    a = gen.normal(size=(5, 6))
    a[1] = -0.0
    for seg, n in ((gen.permutation(5), 5), (np.array([6, 0, 3, 1, 4]), 8)):  # one row each
        want = np.zeros((n, 6))
        np.add.at(want, seg, a)
        assert dc.segment_sum(var(a), seg, n).data.tobytes() == want.tobytes()


def test_gradients_getitem_scatter_adds_duplicates():
    table = rng(16).normal(size=(5, 3))
    idx = np.array([1, 1, 4])  # duplicate rows must accumulate
    check_grads(lambda t: dc.sum_(dc.mul(dc.gather_rows(t, idx), idx[:, None] + 1.0)), table)
    check_grads(lambda t: dc.sum_(dc.tanh(dc.getitem(t, (slice(1, 3), slice(None))))), table)
    check_grads(lambda t: dc.sum_(dc.mul(dc.getitem(t, (idx, 2)), idx + 1.0)), table)


@pytest.mark.parametrize("key", [
    (slice(1, 4), slice(None)), (slice(None), slice(2, 3)), 2, (3, 1), (slice(None), -1),
    np.array([1, 1, 4]), (np.array([0, 2, 0]), 1), (slice(None), np.array([2, 2])),
])
def test_getitem_vjp_equals_np_add_at(key):
    """Ints and slices take a plain +=, index arrays np.add.at; both give the
    bits np.add.at gives, and a repeated index still accumulates."""
    table = rng(44).normal(size=(5, 3))
    out = dc.getitem(var(table), key)
    g = rng(45).normal(size=out.data.shape)
    want = np.zeros_like(table)
    np.add.at(want, key, g)
    (got,) = out._vjp(g)
    np.testing.assert_array_equal(got, want)
    if isinstance(key, np.ndarray):
        assert got[1].tolist() == (g[0] + g[1]).tolist()


def test_gradients_concat_and_softmax():
    a = rng(17).normal(size=(2, 3))
    b = rng(18).normal(size=(2, 2))
    check_grads(
        lambda x, y: dc.sum_(dc.mul(dc.softmax(dc.concat([x, y], axis=-1)),
                                    np.arange(5.0))),
        a, b,
    )


def test_gradients_activations():
    x = rng(19).normal(size=(4, 3))
    for op in (dc.tanh, dc.sigmoid, dc.softplus):
        check_grads(lambda v, op=op: dc.sum_(op(v)), x)
    check_grads(lambda v: dc.sum_(dc.sqrt(v)), np.abs(x) + 0.5)
    # relu is kinked at 0: keep inputs away from it
    check_grads(lambda v: dc.sum_(dc.relu(v)), x + np.sign(x) * 0.1)


def test_gradients_bpr_loss():
    pos = rng(20).normal(size=6)
    neg = rng(21).normal(size=6)
    check_grads(lambda p, n: dc.mean_(dc.bpr_loss(p, n)), pos, neg)


def test_backward_accumulates_shared_subexpression():
    x = var([2.0])
    y = dc.mul(x, x)  # x appears twice: dy/dx = 2x
    dc.backward(dc.sum_(y))
    np.testing.assert_allclose(x.grad, [4.0], atol=1e-12, rtol=0)


def test_backward_add_of_same_node_twice():
    x = var([1.0, -2.0])
    dc.backward(dc.sum_(dc.mul(dc.add(x, x), [3.0, 5.0])))
    np.testing.assert_array_equal(x.grad, [6.0, 10.0])


@pytest.mark.parametrize("a_first", [True, False])
def test_backward_add_hands_one_array_to_both_parents(a_first):
    # a later gradient for ``a`` must not leak into ``b``'s shared array
    a, b = var([1.0, 2.0]), var([3.0, 4.0])
    via_add = dc.sum_(dc.mul(dc.add(a, b), [5.0, 7.0]))
    via_a = dc.sum_(dc.mul(a, [11.0, 13.0]))
    dc.backward(dc.add(via_add, via_a) if a_first else dc.add(via_a, via_add))
    np.testing.assert_array_equal(a.grad, [16.0, 20.0])
    np.testing.assert_array_equal(b.grad, [5.0, 7.0])


def test_backward_node_shared_by_two_consumers():
    x = var([0.5, 1.5])
    y = dc.add(x, 1.0)                   # y and its grad feed two branches
    out = dc.add(dc.sum_(dc.mul(y, y)), dc.sum_(dc.mul(y, [2.0, 3.0])))
    dc.backward(out)
    np.testing.assert_allclose(x.grad, 2.0 * (x.data + 1.0) + [2.0, 3.0],
                               atol=1e-15, rtol=0)


@pytest.mark.parametrize("op", [dc.mul, dc.pooled])
def test_a_plain_array_operand_gets_no_gradient_slot(op):
    x, c = rng(40).normal(size=(3, 3)), rng(41).normal(size=(3, 3))
    g = rng(42).normal(size=(3, 3))
    if op is dc.pooled:  # the pool is always plain: the table is the one parent
        node = dc.pooled(c, var(x), np.arange(3))
        assert len(node._parents) == len(node._vjp(g)) == 1
        x_var = node._parents[0]
        dc.backward(node, g)
        np.testing.assert_array_equal(x_var.grad, c.T @ g)
        return
    for a, b in ((var(x), c), (c, var(x)), (var(x), var(c))):
        slots = op(a, b)._vjp(g)
        assert [s is None for s in slots] == [not isinstance(v, dc.Var) for v in (a, b)]
        if isinstance(a, dc.Var):  # a Var leaf still gets its gradient
            a.grad = None
            dc.backward(op(a, b), g)
            np.testing.assert_array_equal(a.grad, g * c)
    assert dc.mul(var(x), 2.0)._vjp(g)[1] is None


def test_sigmoid_saturates_exactly_without_warnings():
    with np.errstate(all="raise"):
        out = dc.sigmoid(var([-1000.0, 0.0, 1000.0])).data
    np.testing.assert_array_equal(out, [0.0, 0.5, 1.0])


# ---------------------------------------------------------------------------
# model state, dense, GRU


def test_model_state_shapes_and_init():
    state = dc.ModelState(seed=0)
    p = state.add_param("w", (20, 10), scale=0.5)
    assert p.shape == (20, 10)
    assert np.abs(p.values).max() <= 0.5
    assert np.abs(p.values).max() > 0.0
    z = state.add_param("b", (4,), scale=0.0)
    np.testing.assert_array_equal(z.values, np.zeros(4))
    e = state.add_embedding("emb", rows=11, dim=16)
    assert e.shape == (11, 16)
    assert np.abs(e.values).max() <= 1.0 / 4.0
    state.add_dense("head", out_dim=3, in_dim=16)
    assert state.value("head.w").shape == (3, 16)
    np.testing.assert_array_equal(state.value("head.b"), np.zeros(3))
    state.add_gru("g", in_dim=5, hidden=7)
    for gate in "zrh":
        assert state.value(f"g.w{gate}").shape == (7, 5)
        assert state.value(f"g.u{gate}").shape == (7, 7)
        assert state.value(f"g.b{gate}").shape == (7,)
    assert state.param_count() == sum(p.size for p in state.params.values())
    with pytest.raises(ValueError, match="duplicate"):
        state.add_param("w", (2,), scale=0.1)


def test_model_state_seed_determinism():
    a = dc.ModelState(seed=3)
    b = dc.ModelState(seed=3)
    c = dc.ModelState(seed=4)
    pa = a.add_param("w", (5, 5), scale=0.3).values
    pb = b.add_param("w", (5, 5), scale=0.3).values
    pc = c.add_param("w", (5, 5), scale=0.3).values
    np.testing.assert_array_equal(pa, pb)
    assert not np.array_equal(pa, pc)


def test_dense_handles_vectors_and_batches():
    """A lone row [1, I] and a batch, each one tape node, as numpy computes them."""
    state = dc.ModelState(seed=1)
    state.add_dense("d", out_dim=3, in_dim=4)
    w, b = state.value("d.w"), state.value("d.b")
    for x in (rng(23).normal(size=(1, 4)), rng(24).normal(size=(6, 4))):
        out = dc.dense(state.leaf("d.w"), state.leaf("d.b"), var(x))
        assert out.shape == (len(x), 3) and all(p._parents == () for p in out._parents)
        np.testing.assert_allclose(out.data, x @ w.T + b, atol=1e-12, rtol=0)


def test_gru_zero_weights_halve_state():
    state = dc.ModelState(seed=0)
    state.add_gru("g", in_dim=3, hidden=4)
    for name in list(state.params):
        state.value(name)[...] = 0.0
    h = rng(24).normal(size=(2, 4))
    x = rng(25).normal(size=(2, 3))
    out = oracles.gru_cell(dc.gru_leaves(state, "g"), var(x), var(h)).data
    np.testing.assert_allclose(out, 0.5 * h, atol=1e-12, rtol=0)


def stepwise_gru(p, xs, mask):
    """Reference masked GRU run built from one gru_cell per step."""
    B, L, _ = xs.data.shape
    h = var(np.zeros((B, p.uz.data.shape[0])))
    for t in range(L):
        h_new = oracles.gru_cell(p, dc.getitem(xs, (slice(None), t)), h)
        m = mask[:, t : t + 1]
        h = dc.add(dc.mul(h_new, m), dc.mul(h, 1.0 - m))
    return h


def gru_state(seed: int, in_dim: int, hidden: int) -> dc.ModelState:
    state = dc.ModelState(seed=seed)
    state.add_gru("g", in_dim=in_dim, hidden=hidden)
    for name in state.params:  # non-zero biases exercise every gradient
        state.value(name)[...] += rng(31).uniform(-0.3, 0.3, state.value(name).shape)
    return state


def run_gru(fn, state, xs, mask, target):
    """h, the gradient of ``xs`` [B, L, I] at the real slots [N, I] and every
    weight gradient of ``sum(tanh(h) * target)``.

    ``gru_sequence`` reads the real slots from a table of one row per slot;
    the stepwise reference reads every slot, and its gradient must be
    exactly 0 at the masked ones.
    """
    oracles.zero_grads(state)
    real = np.asarray(mask, dtype=bool)
    x = var(xs if fn is stepwise_gru else xs[real])
    h = fn(dc.gru_leaves(state, "g"), x if fn is stepwise_gru else (x, np.arange(real.sum())),
           mask)
    dc.backward(dc.sum_(dc.mul(dc.tanh(h), target)))
    gx = x.grad
    if fn is stepwise_gru:
        np.testing.assert_array_equal(gx[~real], 0.0)
        gx = gx[real]
    return h.data, gx, {n: p.grad.copy() for n, p in state.params.items()}


def left_padded(lengths, L: int) -> np.ndarray:
    """Masks [B, L] of windows whose last ``lengths`` steps are real."""
    return (np.arange(L) >= L - np.asarray(lengths)[:, None]).astype(np.float64)


@pytest.mark.parametrize("B, L", [(5, 6), (3, 1)], ids=["mixed_masks", "one_step"])
def test_gru_sequence_matches_stepwise_cells(B, L):
    state = gru_state(6, in_dim=3, hidden=5)
    xs = rng(26).normal(size=(B, L, 3))
    mask = (rng(27).uniform(size=(B, L)) > 0.4).astype(np.float64)
    mask[0] = 1.0
    mask[1] = 0.0  # a fully masked row stays at h = 0
    target = rng(28).normal(size=(B, 5))

    h_ref, gx_ref, g_ref = run_gru(stepwise_gru, state, xs, mask, target)
    h_got, gx_got, g_got = run_gru(dc.gru_sequence, state, xs, mask, target)
    np.testing.assert_allclose(h_got, h_ref, atol=1e-12, rtol=0)
    np.testing.assert_array_equal(h_got[1], np.zeros(5))
    np.testing.assert_allclose(gx_got, gx_ref, atol=1e-12, rtol=0)
    for name in g_ref:
        # one step from h = 0 never uses the reset gate or recurrent weights
        unused = L == 1 and (".u" in name or name.endswith("r"))
        assert (np.abs(g_ref[name]).max() > 0.0) != unused
        np.testing.assert_allclose(g_got[name], g_ref[name], atol=1e-12, rtol=0)


def test_gru_sequence_packs_left_padded_windows_of_every_length():
    """Windows of every real length 0..L, in shuffled rows, as the models
    build them: the packed run steps each row from its first real slot."""
    L = 7
    lengths = rng(46).permutation(np.repeat(np.arange(L + 1), 2))  # B = 2(L+1)
    state = gru_state(12, in_dim=6, hidden=5)
    xs = rng(47).normal(size=(len(lengths), L, 6))
    mask = left_padded(lengths, L)
    target = rng(48).normal(size=(len(lengths), 5))

    h_ref, gx_ref, g_ref = run_gru(stepwise_gru, state, xs, mask, target)
    h_got, gx_got, g_got = run_gru(dc.gru_sequence, state, xs, mask, target)
    np.testing.assert_allclose(h_got, h_ref, atol=1e-12, rtol=0)
    np.testing.assert_array_equal(h_got[lengths == 0], 0.0)
    np.testing.assert_allclose(gx_got, gx_ref, atol=1e-12, rtol=0)
    for name in g_ref:
        assert np.abs(g_ref[name]).max() > 0.0
        np.testing.assert_allclose(g_got[name], g_ref[name], atol=1e-12, rtol=0)


def test_gru_sequence_permuting_rows_permutes_h_and_the_xs_gradient_exactly():
    L = 9
    lengths = rng(49).integers(0, L + 1, size=40)
    perm = rng(50).permutation(len(lengths))
    state = gru_state(13, in_dim=8, hidden=6)
    xs = rng(51).normal(size=(len(lengths), L, 8))
    mask = left_padded(lengths, L)
    target = rng(52).normal(size=(len(lengths), 6))

    h, gx, _ = run_gru(dc.gru_sequence, state, xs, mask, target)
    h_p, gx_p, _ = run_gru(dc.gru_sequence, state, xs[perm], mask[perm], target[perm])
    np.testing.assert_array_equal(h_p, h[perm])
    gx_full = np.zeros_like(xs)
    gx_full[mask == 1.0] = gx
    np.testing.assert_array_equal(gx_p, gx_full[perm][mask[perm] == 1.0])


def test_gru_sequence_backward_matches_stepwise_cells_at_larger_shapes():
    """Left-padded windows at every fill from empty to full: the packed
    backward's gradients match stepping every slot up to rounding, and
    repeat bit for bit."""
    B, L, D, I = 64, 20, 16, 24
    lengths = rng(55).permutation(np.rint(np.linspace(0, L, B)).astype(int))
    state = gru_state(15, in_dim=I, hidden=D)
    xs = rng(56).normal(size=(B, L, I))
    mask = left_padded(lengths, L)
    target = rng(57).normal(size=(B, D))

    h_ref, gx_ref, g_ref = run_gru(stepwise_gru, state, xs, mask, target)
    h_got, gx_got, g_got = run_gru(dc.gru_sequence, state, xs, mask, target)
    _, gx_again, g_again = run_gru(dc.gru_sequence, state, xs, mask, target)
    np.testing.assert_allclose(h_got, h_ref, atol=1e-12 * np.abs(h_ref).max(), rtol=0)
    for got, ref in [(gx_got, gx_ref)] + [(g_got[n], g_ref[n]) for n in g_ref]:
        np.testing.assert_allclose(got, ref, atol=1e-12 * np.abs(ref).max(), rtol=0)
    np.testing.assert_array_equal(gx_again, gx_got)
    for name in g_got:
        np.testing.assert_array_equal(g_again[name], g_got[name], err_msg=name)


@pytest.mark.parametrize("D, I, form", [
    pytest.param(D, I, form, id=f"{D}-{I}" + ("-table" if form == "table" else ""))
    for form in ("rows", "table") for D, I in ((32, 64), (64, 128))
])
def test_gru_sequence_h_of_a_row_does_not_depend_on_its_batch_mates(D, I, form):
    """A row alone among empty windows, as a padded query chunk holds it,
    gets bit for bit the h it gets among windows of every length; and the
    first rows of a batch get the h they get in a batch of any size.  The
    run is fed by a two-row table, whose codes share prefixes, or by a table
    of one row per real slot."""
    B, L = 128, 20
    lengths = rng(58).integers(0, L + 1, size=B)
    state = gru_state(16, in_dim=I, hidden=D)
    p = dc.gru_leaves(state, "g")
    table = rng(71).normal(size=(2, I))
    codes = rng(61).integers(0, 2, size=(B, L))
    xs = rng(59).normal(size=(B, L, I))
    mask = left_padded(lengths, L)

    def run(m, xs=xs, codes=codes):
        real = m == 1.0
        fed = (xs[real], np.arange(real.sum())) if form == "rows" else (table, codes[real])
        return dc.gru_sequence(p, fed, m).data

    h = run(mask)
    for j in rng(60).choice(np.flatnonzero(lengths), size=19, replace=False):
        alone = np.zeros_like(mask)
        alone[j] = mask[j]
        np.testing.assert_array_equal(run(alone)[j], h[j])

    big_mask = left_padded(rng(72).integers(0, L + 1, size=256), L)
    big_xs = rng(73).normal(size=(256, L, I))
    big_codes = rng(74).integers(0, 2, size=(256, L))
    h = run(big_mask, big_xs, big_codes)
    for size in (2, 3, 7, 33, 149, 256):
        h_first = run(big_mask[:size], big_xs[:size], big_codes[:size])
        np.testing.assert_array_equal(h_first, h[:size], err_msg=f"batch of {size}")


def run_table_gru(state, table, codes, mask, target, fed=True):
    """h and the table and weight gradients of ``sum(tanh(h) * target)``
    for the run fed by ``table``, or with ``fed=False`` by a table of the
    rows ``gather_rows(table, codes)``, one per real slot."""
    oracles.zero_grads(state)
    t = var(table)
    xs = (t, codes) if fed else (dc.gather_rows(t, codes), np.arange(len(codes)))
    h = dc.gru_sequence(dc.gru_leaves(state, "g"), xs, mask)
    dc.backward(dc.sum_(dc.mul(dc.tanh(h), target)))
    return h.data, t.grad, {n: p.grad.copy() for n, p in state.params.items()}


def holed_windows(L: int, seed: int) -> np.ndarray:
    """Left-padded windows of every length 0..L in shuffled rows, and one
    more with a hole: masked slots between its first and last real ones."""
    lengths = rng(seed).permutation(np.repeat(np.arange(L + 1), 2))
    mask = np.vstack([left_padded(lengths, L), np.zeros((1, L))])
    mask[-1, [1, 2, L - 1]] = 1.0
    return mask


@pytest.mark.parametrize("M", [2, 3, 4])
@pytest.mark.parametrize("D, I", [(5, 6), (16, 24), (32, 32), (64, 64)])
def test_gru_sequence_fed_by_a_table_keeps_the_bits_of_the_gathered_rows(M, D, I):
    """Projecting the table once gives every slot the bits of projecting
    the gathered slots, so h is bit-equal.  The slots that share a code
    prefix are stepped once, so every gradient adds the same terms in
    another order, within 1e-12 of each array's largest magnitude."""
    L = 9
    mask = holed_windows(L, 62 + M)
    state = gru_state(17, in_dim=I, hidden=D)
    table = rng(63).normal(size=(M, I))
    codes = rng(64).integers(0, M, size=int(mask.sum()))
    target = rng(65).normal(size=(len(mask), D))

    h, gt, g = run_table_gru(state, table, codes, mask, target)
    h_ref, gt_ref, g_ref = run_table_gru(state, table, codes, mask, target, fed=False)
    np.testing.assert_array_equal(h, h_ref)
    np.testing.assert_array_equal(h[mask.sum(axis=1) == 0], 0.0)
    np.testing.assert_allclose(gt, gt_ref, atol=1e-12 * np.abs(gt_ref).max(), rtol=0)
    for name in g_ref:
        assert np.abs(g_ref[name]).max() > 0.0, name
        np.testing.assert_allclose(g[name], g_ref[name], rtol=0, err_msg=name,
                                   atol=1e-12 * np.abs(g_ref[name]).max())


def test_gru_sequence_fed_by_a_table_on_an_empty_window_is_zero():
    state = gru_state(18, in_dim=4, hidden=3)
    table = rng(66).normal(size=(2, 4))
    codes = np.zeros(0, dtype=np.int64)
    h, gt, grads = run_table_gru(state, table, codes, np.zeros((3, 5)),
                                 rng(67).normal(size=(3, 3)))
    np.testing.assert_array_equal(h, 0.0)
    np.testing.assert_array_equal(gt, np.zeros((2, 4)))
    for name, g in grads.items():
        np.testing.assert_array_equal(g, np.zeros_like(g), err_msg=name)


def test_gru_sequence_table_gradient_check():
    state = dc.ModelState(seed=11)
    state.add_gru("g", in_dim=3, hidden=4)
    state.add_param("t", (3, 3), scale=1.0)  # the table; probes its gradient
    mask = np.array([[1, 1, 1, 1], [0, 1, 0, 1], [0, 0, 1, 1], [0, 0, 0, 0]],
                    dtype=np.float64)
    codes = np.array([0, 2, 1, 0, 2, 2, 1, 0])
    target = rng(68).normal(size=(4, 4))

    def forward(s):
        h = dc.gru_sequence(dc.gru_leaves(s, "g"), (s.leaf("t"), codes), mask)
        diff = dc.sub(h, target)
        return dc.mean_(dc.mul(diff, diff))

    # every coordinate, the table's 9 and the 96 of W, U and b
    err = oracles.finite_difference_check(forward, state, num_coords=200, rng_seed=0)
    assert err <= 1e-4


def test_gru_sequence_a_hole_adds_nothing_to_the_table_gradient():
    """A masked slot inside a window is skipped and reads no row of the
    table: a row that no real slot reads gets exactly no gradient."""
    state = gru_state(19, in_dim=4, hidden=3)
    table = rng(69).normal(size=(3, 4))
    mask = np.array([[1, 0, 0, 1], [0, 1, 0, 1]], dtype=np.float64)
    codes = np.array([0, 1, 1, 0])  # row 2 is read by no real slot
    target = rng(70).normal(size=(2, 3))
    _, gt, _ = run_table_gru(state, table, codes, mask, target)
    _, gt_ref, _ = run_table_gru(state, table, codes, mask, target, fed=False)
    np.testing.assert_array_equal(gt[2], 0.0)
    assert np.abs(gt[:2]).min() > 0.0
    np.testing.assert_allclose(gt, gt_ref, atol=1e-12 * np.abs(gt_ref).max(), rtol=0)


@pytest.mark.parametrize("code", [-1, 2])
def test_gru_sequence_rejects_a_code_outside_the_table(code):
    state = gru_state(20, in_dim=4, hidden=3)
    codes = np.array([0, 1, code])
    with pytest.raises(ValueError, match="out of range for table with 2 rows"):
        dc.gru_sequence(dc.gru_leaves(state, "g"), (np.zeros((2, 4)), codes),
                        np.ones((1, 3)))
    with pytest.raises(ValueError, match="codes"):
        dc.gru_sequence(dc.gru_leaves(state, "g"), (np.zeros((2, 4)), codes[:2]),
                        np.ones((1, 3)))


def test_gru_sequence_fully_masked_batch_is_zero_with_zero_gradients():
    state = gru_state(14, in_dim=4, hidden=3)
    xs = rng(53).normal(size=(5, 6, 4))
    target = rng(54).normal(size=(5, 3))
    h, gx, grads = run_gru(dc.gru_sequence, state, xs, np.zeros((5, 6)), target)
    np.testing.assert_array_equal(h, np.zeros((5, 3)))
    assert gx.shape == (0, 4)
    for name, g in grads.items():
        np.testing.assert_array_equal(g, np.zeros_like(g), err_msg=name)


def test_gru_sequence_empty_run_and_mask_shape():
    state = dc.ModelState(seed=7)
    state.add_gru("g", in_dim=4, hidden=3)
    p = dc.gru_leaves(state, "g")
    empty = dc.gru_sequence(p, (np.zeros((2, 4)), np.zeros(0, dtype=int)), np.ones((2, 0)))
    np.testing.assert_array_equal(empty.data, np.zeros((2, 3)))
    mask = np.ones((6, 5))
    mask[2, :3] = 0.0
    xs, codes = rng(32).normal(size=(27, 4)), np.arange(27)
    assert dc.gru_sequence(p, (xs, codes), mask).shape == (6, 3)
    for bad_xs, bad_codes, bad_mask in [
            (xs.reshape(27, 2, 2), codes, mask), (xs, codes, mask[:, :, None]),
            (xs, codes[:-1], mask), (xs, np.append(codes, 0), mask),
            (xs, codes[:, None], mask)]:
        with pytest.raises(ValueError, match="mask"):
            dc.gru_sequence(p, (bad_xs, bad_codes), bad_mask)


def test_gru_sequence_gradient_check():
    state = dc.ModelState(seed=10)
    state.add_gru("g", in_dim=3, hidden=4)
    mask = np.array([[1, 1, 1, 1], [0, 0, 1, 1], [0, 0, 0, 0]], dtype=np.float64)
    state.add_param("xs", (6, 3), scale=1.0)  # the real slots; probes their gradient
    target = rng(34).normal(size=(3, 4))

    def forward(s):
        h = dc.gru_sequence(dc.gru_leaves(s, "g"), (s.leaf("xs"), np.arange(6)), mask)
        diff = dc.sub(h, target)
        return dc.mean_(dc.mul(diff, diff))

    err = oracles.finite_difference_check(forward, state, num_coords=80, rng_seed=0)
    assert err <= 1e-4


# windows of codes into a 5-row table, stepped as one prefix trie: duplicate
# rows, a window that is a prefix of others, the codes 1, 2 from depth 0 and
# from depth 1, an empty window, and depths 4 and 5 with a single node
TRIE_WINDOWS = [[0, 1, 2], [0, 1, 2], [0, 1], [0, 1, 2, 3], [1, 2], [1, 2, 3], [3], [],
                [4, 4, 4, 4, 4, 4], [0, 1, 2]]


def trie_batch(windows, L: int, holes: bool = False):
    """Left-padded masks [B, L] and codes of ``windows``; with ``holes``,
    each window's masked slots are spread between its real ones instead."""
    mask = np.zeros((len(windows), L))
    for i, w in enumerate(windows):
        cols = L - len(w) + np.arange(len(w))
        if holes and 1 < len(w) < L:
            cols = np.rint(np.linspace(0, L - 1, len(w))).astype(int)
        mask[i, cols] = 1.0
    return mask, np.array([c for w in windows for c in w], dtype=np.int64)


@pytest.mark.parametrize("D, I", [(5, 6), (32, 64)])
def test_gru_sequence_a_row_in_a_prefix_trie_gets_its_bits_alone(D, I):
    """Every row's h is bit for bit the h of that row run alone, whatever
    prefixes, duplicates and depths it shares with its batch mates."""
    prefixes = [{tuple(w[: t + 1]) for w in TRIE_WINDOWS if len(w) > t} for t in range(6)]
    assert [len(p) for p in prefixes] == [4, 3, 3, 2, 1, 1]  # nodes per depth
    state = gru_state(21, in_dim=I, hidden=D)
    p = dc.gru_leaves(state, "g")
    table = rng(75).normal(size=(5, I))
    mask, codes = trie_batch(TRIE_WINDOWS, 8)
    h = dc.gru_sequence(p, (table, codes), mask).data
    starts = np.concatenate(([0], np.cumsum(mask.sum(axis=1)))).astype(int)
    for j in range(len(mask)):
        alone = dc.gru_sequence(p, (table, codes[starts[j] : starts[j + 1]]), mask[j : j + 1])
        np.testing.assert_array_equal(alone.data[0], h[j], err_msg=f"row {j}")
    np.testing.assert_array_equal(h[7], 0.0)
    assert len({tuple(r) for r in h}) == len({tuple(w) for w in TRIE_WINDOWS})


def test_gru_sequence_a_window_with_holes_is_the_window_without_them():
    """A masked slot keeps h, so holes change neither h nor any gradient."""
    state = gru_state(22, in_dim=6, hidden=5)
    table = rng(76).normal(size=(5, 6))
    target = rng(77).normal(size=(len(TRIE_WINDOWS), 5))
    holed, _ = trie_batch(TRIE_WINDOWS, 8, holes=True)
    assert (np.diff(holed, axis=1) < 0).any(axis=1).sum() == 8  # masked after real
    runs = [run_table_gru(state, table, *trie_batch(TRIE_WINDOWS, 8, holes)[::-1], target)
            for holes in (False, True)]
    (h, gt, g), (h_holed, gt_holed, g_holed) = runs
    np.testing.assert_array_equal(h_holed, h)
    np.testing.assert_array_equal(gt_holed, gt)
    for name in g:
        assert np.abs(g[name]).max() > 0.0, name
        np.testing.assert_array_equal(g_holed[name], g[name], err_msg=name)


def test_gru_sequence_on_shared_prefixes_matches_stepwise_cells():
    """The trie's gradients, its children's sums added into their parents,
    match stepping every slot of the gathered windows up to rounding."""
    state = gru_state(23, in_dim=6, hidden=5)
    table = rng(78).normal(size=(5, 6))
    mask, codes = trie_batch(TRIE_WINDOWS, 8, holes=True)
    target = rng(79).normal(size=(len(mask), 5))
    xs = np.zeros(mask.shape + (6,))
    xs[mask == 1.0] = table[codes]
    h_ref, gx_ref, g_ref = run_gru(stepwise_gru, state, xs, mask, target)
    h, gt, g = run_table_gru(state, table, codes, mask, target)
    np.testing.assert_allclose(h, h_ref, atol=1e-12, rtol=0)
    gt_ref = np.zeros_like(table)
    np.add.at(gt_ref, codes, gx_ref)
    for got, ref in [(gt, gt_ref)] + [(g[n], g_ref[n]) for n in g_ref]:
        np.testing.assert_allclose(got, ref, atol=1e-12 * np.abs(ref).max(), rtol=0)


def test_gru_sequence_gradient_check_on_shared_prefixes():
    state = dc.ModelState(seed=12)
    state.add_gru("g", in_dim=3, hidden=4)
    state.add_param("t", (5, 3), scale=1.0)  # the table; probes its gradient
    mask, codes = trie_batch(TRIE_WINDOWS, 8, holes=True)
    target = rng(80).normal(size=(len(mask), 4))

    def forward(s):
        h = dc.gru_sequence(dc.gru_leaves(s, "g"), (s.leaf("t"), codes), mask)
        diff = dc.sub(h, target)
        return dc.mean_(dc.mul(diff, diff))

    # every coordinate, the table's 15 and the 96 of W, U and b
    err = oracles.finite_difference_check(forward, state, num_coords=200, rng_seed=0)
    assert err <= 1e-4


def gru_bit_batches(I: int):
    """(table, codes, mask) batches for the in-place reference: a flag-sized
    table under 64 rows fed the trie windows, with one-node depths, equal
    windows and holes; a table of one row per real slot, 64 rows or more,
    fed windows of every length and a holed one; and a fully masked batch."""
    mask, codes = trie_batch(TRIE_WINDOWS, 8, holes=True)
    slots = holed_windows(9, 81)
    n = int(slots.sum())
    assert n >= 64
    return {
        "flag-table": (rng(82).normal(size=(5, I)), codes, mask),
        "slot-table": (rng(83).normal(size=(n, I)), np.arange(n), slots),
        "all-masked": (rng(84).normal(size=(2, I)), np.zeros(0, dtype=np.int64),
                       np.zeros((4, 6))),
    }


@pytest.mark.parametrize("batch", ["flag-table", "slot-table", "all-masked"])
@pytest.mark.parametrize("D, I", [(8, 12), (32, 40), (64, 96)])
def test_gru_sequence_keeps_the_bits_of_the_in_place_loops(D, I, batch):
    """The whole-array loops give h and all ten VJP outputs, the table's
    gradient and the nine weight gradients, bit for bit as the in-place
    loops they replaced."""
    state = gru_state(24, in_dim=I, hidden=D)
    p = dc.gru_leaves(state, "g")
    table, codes, mask = gru_bit_batches(I)[batch]
    g = rng(85).normal(size=(len(mask), D))
    got = dc.gru_sequence(p, (table, codes), mask)
    want = oracles.gru_sequence_in_place(p, (table, codes), mask)
    assert got.data.tobytes() == want.data.tobytes()
    outs = list(zip(got._vjp(g), want._vjp(g)))
    assert len(outs) == 10
    for i, (a, b) in enumerate(outs):
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), i
        assert (np.abs(a).max(initial=0.0) > 0.0) != (batch == "all-masked"), i


def test_gru_gradient_check():
    state = dc.ModelState(seed=8)
    state.add_gru("g", in_dim=3, hidden=4)
    x = rng(28).normal(size=(2, 3))
    h0 = rng(29).normal(size=(2, 4))
    target = rng(30).normal(size=(2, 4))

    def forward(s):
        h = oracles.gru_cell(dc.gru_leaves(s, "g"), var(x), var(h0))
        diff = dc.sub(h, target)
        return dc.mean_(dc.mul(diff, diff))

    err = oracles.finite_difference_check(forward, state, num_coords=60, rng_seed=0)
    assert err <= 1e-4


def test_finite_difference_check_flags_wrong_gradients():
    state = dc.ModelState(seed=9)
    state.add_param("w", (4,), scale=0.5)

    def forward(s):
        out = dc.sum_(dc.mul(s.leaf("w"), s.leaf("w")))
        return out

    assert oracles.finite_difference_check(forward, state, num_coords=4) <= 1e-6

    def broken(s):
        out = forward(s)
        s.params["w"].grad += 0.5  # corrupt after the fact
        return out

    state2 = dc.ModelState(seed=9)
    state2.add_param("w", (4,), scale=0.5)
    # the checker recomputes analytic grads itself, so simulate a wrong rule
    # by comparing against a scaled loss instead
    def mismatched(s):
        v = s.leaf("w")
        wrong = dc.Var(v.data, parents=(v,), vjp=lambda g: (0.5 * g,))
        return dc.sum_(dc.mul(wrong, wrong.data))

    assert oracles.finite_difference_check(mismatched, state2, num_coords=4) > 1e-2


# ---------------------------------------------------------------------------
# optimizer


def test_adam_single_step_matches_reference():
    state = dc.ModelState(seed=0)
    p = state.add_param("w", (3,), scale=0.0)
    p.values[...] = [1.0, -2.0, 0.5]
    p.grad[...] = [0.1, -0.3, 0.0]
    g = p.grad.copy()
    w0 = p.values.copy()
    dc.adam_step(state, lr=0.01)
    m = 0.1 * g
    v = 0.001 * g * g
    mhat = m / (1 - 0.9)
    vhat = v / (1 - 0.999)
    want = w0 - 0.01 * mhat / (np.sqrt(vhat) + 1e-8)
    np.testing.assert_allclose(p.values, want, atol=1e-12, rtol=0)
    np.testing.assert_array_equal(p.grad, np.zeros(3))
    assert state.step == 1


def test_adam_weight_decay_is_decoupled():
    state = dc.ModelState(seed=0)
    p = state.add_param("w", (2,), scale=0.0)
    p.values[...] = [2.0, -2.0]
    p.grad[...] = [0.0, 0.0]
    dc.adam_step(state, lr=0.1, weight_decay=0.5)
    # zero gradient: only the decay term moves the weights
    np.testing.assert_allclose(p.values, [2.0 * 0.95, -2.0 * 0.95], atol=1e-12, rtol=0)


def test_adam_slots_are_allocated_at_the_first_step(tmp_path):
    """Building or loading a state allocates no optimizer slots; the first
    step allocates each parameter's, and they carry over to the next."""
    state = dc.ModelState(seed=0)
    state.add_embedding("emb", 5, 3)
    state.add_dense("head", 2, 3)
    path = str(tmp_path / "s.ckpt")
    dc.save_checkpoint(state, path)
    for s in (state, dc.load_checkpoint(path)):
        assert s.step == 0 and s.m == {} and s.v == {}
    state.params["emb"].grad[...] = 1.0
    dc.adam_step(state, lr=0.1)
    assert list(state.m) == list(state.v) == list(state.params)
    for name, p in state.params.items():
        assert state.m[name].shape == state.v[name].shape == p.shape
    np.testing.assert_allclose(state.m["emb"], 0.1, rtol=0, atol=1e-15)
    assert not state.m["head.w"].any()
    m = state.m["emb"]
    dc.adam_step(state, lr=0.1)
    assert state.m["emb"] is m and state.step == 2
    np.testing.assert_allclose(m, 0.09, rtol=0, atol=1e-15)


@pytest.mark.parametrize("weight_decay", [0.0, 1e-3])
def test_adam_step_matches_the_expression_form_bit_for_bit(weight_decay):
    """Several steps of ``adam_step`` against the same update written apart
    in ``oracles``: weights and both slots keep their bits."""
    states = []
    for _ in range(2):
        state = dc.ModelState(seed=12)
        state.add_embedding("emb", 40, 16)
        state.add_dense("head", 3, 16)
        state.add_param("zero", (5,), scale=0.0)
        states.append(state)
    got, want = states
    gen = rng(13)
    for step in range(6):
        for name in got.params:
            g = gen.normal(scale=10.0 ** gen.integers(-6, 2), size=got.params[name].shape)
            g[gen.random(g.shape) < 0.3] = 0.0  # rows a batch does not reach
            got.params[name].grad[...] = want.params[name].grad[...] = g
        dc.adam_step(got, lr=0.05, weight_decay=weight_decay)
        oracles.adam_step_expression(want, lr=0.05, weight_decay=weight_decay)
        for name in want.params:
            for a, b in ((got.value(name), want.value(name)),
                         (got.m[name], want.m[name]), (got.v[name], want.v[name])):
                assert a.tobytes() == b.tobytes(), (step, name)
            assert not got.params[name].grad.any()
    assert got.step == want.step == 6


def test_adam_updates_in_place():
    state = dc.ModelState(seed=0)
    p = state.add_param("w", (2,), scale=0.0)
    alias = p.values  # callers may cache this array
    p.grad[...] = [1.0, 1.0]
    dc.adam_step(state, lr=0.05)
    assert alias is p.values


# ---------------------------------------------------------------------------
# training loop


def test_pair_loss_is_mean_softplus_of_the_score_margin():
    gen = rng(50)
    state = dc.ModelState(seed=3)
    state.add_embedding("emb.store", 9, 5)
    q = gen.normal(size=(6, 5))
    pos = np.array([0, 3, 3, 8, 1, 2])
    neg = np.array([4, 3, 7, 0, 1, 5])
    table = state.value("emb.store")
    margin = (q * table[neg]).sum(axis=1) - (q * table[pos]).sum(axis=1)
    want = np.mean(np.logaddexp(0.0, margin))
    got = pair_loss(state, var(q), pos, neg).data
    np.testing.assert_allclose(got, want, atol=1e-12, rtol=0)


def test_run_training_rejects_non_finite_loss():
    state = dc.ModelState(seed=0)
    state.add_param("w", (2,), scale=0.5)
    before = state.value("w").copy()

    def batch_loss(s, chunk, gen):
        return dc.sum_(dc.mul(s.leaf("w"), np.nan))

    with pytest.raises(ValueError, match="epoch 1, batch start 0"):
        run_training(state, 4, batch_loss, lambda s: 0.0,
                     TrainSettings(batch_size=2, max_epochs=1))
    np.testing.assert_array_equal(state.value("w"), before)
    assert state.step == 0 and state.m == {} and state.v == {}


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip_and_byte_stability(tmp_path):
    state = dc.ModelState(seed=5)
    state.add_embedding("emb", 7, 4)
    state.add_dense("head", 2, 4)
    state.meta.update({"model": "demo", "dim": 4, "ids": ["a", "b"]})
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    dc.save_checkpoint(state, str(p1))
    dc.save_checkpoint(state, str(p2))
    assert p1.read_bytes() == p2.read_bytes()

    back = dc.load_checkpoint(str(p1))
    assert back.meta == state.meta
    assert list(back.params) == list(state.params)
    for name in state.params:
        np.testing.assert_array_equal(back.value(name), state.value(name))
    assert back.param_count() == state.param_count()


def test_checkpoint_rejects_foreign_files(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(ValueError):
        dc.load_checkpoint(str(path))


def test_checkpoint_write_failing_midway_keeps_the_old_file(tmp_path):
    state = dc.ModelState(seed=5)
    state.add_embedding("emb", 7, 4)
    state.add_dense("head", 2, 4)
    path = tmp_path / "m.ckpt"
    dc.save_checkpoint(state, str(path))
    before = path.read_bytes()
    # the temporary file is open when this tensor is rejected
    state.params["head.b"].values = np.array([object()], dtype=object)
    with pytest.raises(TypeError):
        dc.save_checkpoint(state, str(path))
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["m.ckpt"]
