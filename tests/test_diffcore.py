import math
import os

import numpy as np
import pytest

from fdrec import diffcore as dc
from fdrec.training import TrainSettings, run_training
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
        np.testing.assert_allclose(grads[i], want, atol=tol * scale)


# ---------------------------------------------------------------------------
# forward values


def test_arithmetic_matches_numpy():
    a = rng(1).normal(size=(3, 4))
    b = rng(2).normal(size=(3, 4)) + 2.0
    np.testing.assert_array_equal(dc.add(var(a), var(b)).data, a + b)
    np.testing.assert_array_equal(dc.sub(var(a), var(b)).data, a - b)
    np.testing.assert_array_equal(dc.mul(var(a), var(b)).data, a * b)
    np.testing.assert_array_equal(dc.div(var(a), var(b)).data, a / b)
    np.testing.assert_array_equal((-var(a)).data, -a)


def test_matmul_batch_broadcasting():
    a = rng(3).normal(size=(5, 2, 3))
    b = rng(4).normal(size=(3, 4))
    got = dc.matmul(var(a), var(b)).data
    np.testing.assert_allclose(got, np.einsum("bij,jk->bik", a, b), atol=1e-12)


def test_softmax_known_value_and_normalization():
    out = dc.softmax(var([0.0, math.log(3.0)])).data
    np.testing.assert_allclose(out, [0.25, 0.75], atol=1e-12)
    x = rng(5).normal(size=(4, 7)) * 3
    rows = dc.softmax(var(x), axis=-1).data
    np.testing.assert_allclose(rows.sum(axis=-1), np.ones(4), atol=1e-12)
    assert (rows > 0).all()


def test_bpr_loss_is_softplus_of_margin():
    pos, neg = var([2.0, 0.5]), var([1.0, 3.0])
    want = np.log1p(np.exp(np.array([1.0, 3.0]) - np.array([2.0, 0.5])))
    np.testing.assert_allclose(dc.bpr_loss(pos, neg).data, want, atol=1e-12)


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


def test_gradients_matmul_dot_transpose_reshape():
    a = rng(11).normal(size=(2, 3, 4))
    b = rng(12).normal(size=(4, 5))
    check_grads(lambda x, y: dc.sum_(dc.matmul(x, y)), a, b)
    u = rng(13).normal(size=7)
    v = rng(14).normal(size=7)
    check_grads(lambda x, y: dc.dot(x, y), u, v)
    m = rng(15).normal(size=(3, 5))
    check_grads(lambda x: dc.sum_(dc.mul(dc.transpose_last2(x), 2.0)), m)
    check_grads(lambda x: dc.sum_(dc.exp(dc.reshape(x, (15,)))), m * 0.1)


def test_gather_rows_bincount_backward_matches_add_at():
    gen = rng(40)
    table = gen.normal(size=(20, 6))
    for idx in (np.array([3, 3, 0, 19, 3]), gen.integers(0, 20, size=(7, 11))):
        g = gen.normal(size=idx.shape + (6,))
        want = np.zeros_like(table)
        np.add.at(want, idx, g)
        (got,) = dc.gather_rows(var(table), idx)._vjp(g)
        np.testing.assert_array_equal(got, want)


def test_gradients_getitem_scatter_adds_duplicates():
    table = rng(16).normal(size=(5, 3))
    idx = np.array([1, 1, 4])  # duplicate rows must accumulate
    check_grads(lambda t: dc.sum_(dc.mul(dc.gather_rows(t, idx), idx[:, None] + 1.0)), table)
    check_grads(lambda t: dc.sum_(dc.exp(dc.getitem(t, (slice(1, 3), slice(None))))), table)


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
    for op in (dc.tanh, dc.sigmoid, dc.softplus, dc.exp):
        check_grads(lambda v, op=op: dc.sum_(op(v)), x)
    check_grads(lambda v: dc.sum_(dc.log(v)), np.abs(x) + 0.5)
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
    np.testing.assert_allclose(x.grad, [4.0], atol=1e-12)


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
                               atol=1e-15)


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
    state = dc.ModelState(seed=1)
    state.add_dense("d", out_dim=3, in_dim=4)
    w, b = state.value("d.w"), state.value("d.b")
    x1 = rng(22).normal(size=4)
    out1 = dc.dense(state.leaf("d.w"), state.leaf("d.b"), var(x1)).data
    np.testing.assert_allclose(out1, x1 @ w.T + b, atol=1e-12)
    xb = rng(23).normal(size=(6, 2, 4))
    outb = dc.dense(state.leaf("d.w"), state.leaf("d.b"), var(xb)).data
    np.testing.assert_allclose(outb, xb @ w.T + b, atol=1e-12)


def test_gru_zero_weights_halve_state():
    state = dc.ModelState(seed=0)
    state.add_gru("g", in_dim=3, hidden=4)
    for name in list(state.params):
        state.value(name)[...] = 0.0
    h = rng(24).normal(size=(2, 4))
    x = rng(25).normal(size=(2, 3))
    out = dc.gru_cell(dc.gru_leaves(state, "g"), var(x), var(h)).data
    np.testing.assert_allclose(out, 0.5 * h, atol=1e-12)


def stepwise_gru(p, xs, mask):
    """Reference masked GRU run built from one gru_cell per step."""
    B, L, _ = xs.data.shape
    h = var(np.zeros((B, p.uz.data.shape[0])))
    for t in range(L):
        h_new = dc.gru_cell(p, dc.getitem(xs, (slice(None), t)), h)
        m = mask[:, t : t + 1]
        h = dc.add(dc.mul(h_new, m), dc.mul(h, 1.0 - m))
    return h


@pytest.mark.parametrize("B, L", [(5, 6), (3, 1)], ids=["mixed_masks", "one_step"])
def test_gru_sequence_matches_stepwise_cells(B, L):
    state = dc.ModelState(seed=6)
    state.add_gru("g", in_dim=3, hidden=5)
    for name in state.params:  # non-zero biases exercise every gradient
        state.value(name)[...] += rng(31).uniform(-0.3, 0.3, state.value(name).shape)
    xs = rng(26).normal(size=(B, L, 3))
    mask = (rng(27).uniform(size=(B, L)) > 0.4).astype(np.float64)
    mask[0] = 1.0
    mask[1] = 0.0  # a fully masked row stays at h = 0
    target = rng(28).normal(size=(B, 5))

    def run(fn):
        state.zero_grads()
        x = var(xs)
        h = fn(dc.gru_leaves(state, "g"), x, mask)
        dc.backward(dc.sum_(dc.mul(dc.tanh(h), target)))
        return h.data, x.grad, {n: p.grad.copy() for n, p in state.params.items()}

    h_ref, gx_ref, g_ref = run(stepwise_gru)
    h_got, gx_got, g_got = run(dc.gru_sequence)
    np.testing.assert_allclose(h_got, h_ref, atol=1e-12)
    np.testing.assert_array_equal(h_got[1], np.zeros(5))
    np.testing.assert_allclose(gx_got, gx_ref, atol=1e-12)
    for name in g_ref:
        # one step from h = 0 never uses the reset gate or recurrent weights
        unused = L == 1 and (".u" in name or name.endswith("r"))
        assert (np.abs(g_ref[name]).max() > 0.0) != unused
        np.testing.assert_allclose(g_got[name], g_ref[name], atol=1e-12)


def test_gru_sequence_empty_run_and_mask_shape():
    state = dc.ModelState(seed=7)
    state.add_gru("g", in_dim=4, hidden=3)
    p = dc.gru_leaves(state, "g")
    empty = dc.gru_sequence(p, np.zeros((2, 0, 4)), np.ones((2, 0))).data
    np.testing.assert_array_equal(empty, np.zeros((2, 3)))
    xs = rng(32).normal(size=(6, 5, 4))
    with pytest.raises(ValueError, match="mask"):
        dc.gru_sequence(p, xs, np.ones((6, 4)))


def test_gru_sequence_gradient_check():
    state = dc.ModelState(seed=10)
    state.add_gru("g", in_dim=3, hidden=4)
    state.add_param("xs", (3, 4, 3), scale=1.0)  # probes the xs gradient too
    mask = np.array([[1, 1, 1, 1], [0, 0, 1, 1], [0, 0, 0, 0]], dtype=np.float64)
    target = rng(34).normal(size=(3, 4))

    def forward(s):
        h = dc.gru_sequence(dc.gru_leaves(s, "g"), s.leaf("xs"), mask)
        diff = dc.sub(h, target)
        return dc.mean_(dc.mul(diff, diff))

    err = dc.finite_difference_check(forward, state, num_coords=80, rng_seed=0)
    assert err <= 1e-4


def test_gru_gradient_check():
    state = dc.ModelState(seed=8)
    state.add_gru("g", in_dim=3, hidden=4)
    x = rng(28).normal(size=(2, 3))
    h0 = rng(29).normal(size=(2, 4))
    target = rng(30).normal(size=(2, 4))

    def forward(s):
        h = dc.gru_cell(dc.gru_leaves(s, "g"), var(x), var(h0))
        diff = dc.sub(h, target)
        return dc.mean_(dc.mul(diff, diff))

    err = dc.finite_difference_check(forward, state, num_coords=60, rng_seed=0)
    assert err <= 1e-4


def test_finite_difference_check_flags_wrong_gradients():
    state = dc.ModelState(seed=9)
    state.add_param("w", (4,), scale=0.5)

    def forward(s):
        out = dc.sum_(dc.mul(s.leaf("w"), s.leaf("w")))
        return out

    assert dc.finite_difference_check(forward, state, num_coords=4) <= 1e-6

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

    assert dc.finite_difference_check(mismatched, state2, num_coords=4) > 1e-2


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
    np.testing.assert_allclose(p.values, want, atol=1e-12)
    np.testing.assert_array_equal(p.grad, np.zeros(3))
    assert state.step == 1


def test_adam_weight_decay_is_decoupled():
    state = dc.ModelState(seed=0)
    p = state.add_param("w", (2,), scale=0.0)
    p.values[...] = [2.0, -2.0]
    p.grad[...] = [0.0, 0.0]
    dc.adam_step(state, lr=0.1, weight_decay=0.5)
    # zero gradient: only the decay term moves the weights
    np.testing.assert_allclose(p.values, [2.0 * 0.95, -2.0 * 0.95], atol=1e-12)


def test_adam_updates_in_place():
    state = dc.ModelState(seed=0)
    p = state.add_param("w", (2,), scale=0.0)
    alias = p.values  # callers may cache this array
    p.grad[...] = [1.0, 1.0]
    dc.adam_step(state, lr=0.05)
    assert alias is p.values


# ---------------------------------------------------------------------------
# training loop


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
    assert not state.m["w"].any()


# ---------------------------------------------------------------------------
# checkpoints


def test_checkpoint_roundtrip_and_byte_stability(tmp_path):
    state = dc.ModelState(seed=5)
    state.add_embedding("emb", 7, 4)
    state.add_dense("head", 2, 4)
    state.meta.update({"model": "demo", "dim": 4, "ids": ["a", "b"]})
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    state.save(str(p1))
    state.save(str(p2))
    assert p1.read_bytes() == p2.read_bytes()

    back = dc.ModelState.load(str(p1))
    assert back.meta == state.meta
    assert list(back.params) == list(state.params)
    for name in state.params:
        np.testing.assert_array_equal(back.value(name), state.value(name))
    assert back.param_count() == state.param_count()


def test_checkpoint_rejects_foreign_files(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(ValueError):
        dc.ModelState.load(str(path))
