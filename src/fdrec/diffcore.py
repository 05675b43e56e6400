"""Minimal reverse-mode differentiation engine on float64 numpy arrays.

Every primitive carries an exact analytic vector-Jacobian product, so any
composition of these ops has exact gradients; the tests check them against
central differences.  The op set is deliberately small: enough for
embedding gathers, dense layers, attention, softmax heads, and pairwise
ranking losses, all batched over leading axes.

History windows are packed: ops read a batch's N real window slots as rows.
:func:`segment_sum` adds them back into their batch rows, or into one cell
per (batch row, distinct code) that :func:`pooled` then multiplies by the
distinct codes' table rows, so work over repeated codes is done once.  Recurrent
history encoders use one fused op, :func:`gru_sequence`: a whole masked GRU
run is a single tape node whose backward pass is hand-written
backpropagation through time.  Training and inference run the same op;
there is no tape-free twin.  It is fed by tables and one input code per
real slot, and a row's h depends only on its codes, so the op steps each
distinct prefix of the rows' codes once, as the nodes of a prefix trie, and
a masked slot is skipped.  Its products keep the row rule below, so a row's
hidden state does not depend on its batch mates or on the batch size; the
gradients equal those of stepping every slot up to rounding.  The tests
check the op against a reference GRU step built from the primitives.

The row rule.  OpenBLAS rounds a row of a product alike at any row count
from 2 to 256 if the product has four or more output columns, keeps the
operand layouts used here and adds its inner sum within one k-block (384
terms with the SkylakeX kernels); a one-row product takes the gemv path.
The bound is measured, not derived, with OpenBLAS 0.3.31 and one thread,
and it depends on the layout.  :func:`dense` multiplies through a
transposed view of ``w``, and that layout was measured row-stable only at
four outputs: at every head shape the models use (outputs × inputs 2×192,
4×128, 4×64 and 2×96, padded to four outputs) it keeps row 0's bits up to
300 rows and changes them at 301, but at 64 to 192 outputs it changed a
row's bits at row counts from 2 up to 5-18.  The contiguous ``x @ C``
layout of :func:`gru_sequence` held at 2 to 256 rows at those wider shapes
too, and at its input projections (D or 2D inputs × 3D, D = 8 to 64) up to
1,200 rows.  The tests sweep the head shapes to 256 rows and the GRU's to
1,200.  So each product op keeps the rule in its one tape node, and a query
row scores the same whatever its batch mates, in calls of at most 256 rows:
:func:`dense` appends zero rows up to two rows and four outputs, and no
model's :func:`dense` has more than four; :func:`pooled` also sums over
ascending ranges of 256 codes; and :func:`gru_sequence` runs its products on
at least two rows and projects whole tables, of up to 1,200 rows.
"""

from __future__ import annotations

import functools
from typing import NamedTuple, Sequence

import numpy as np

from .dataio import read_tensors, write_tensors

Array = np.ndarray


def _f64(x) -> Array:
    return np.asarray(x, dtype=np.float64)


class Var:
    """A node in the differentiation tape."""

    __slots__ = ("data", "grad", "_parents", "_vjp", "_param")

    def __init__(self, data, parents=(), vjp=None, param=None):
        self.data = _f64(data)
        self.grad: Array | None = None
        self._parents = parents
        self._vjp = vjp
        self._param = param

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape


def _as_var(x) -> Var:
    return x if isinstance(x, Var) else Var(x)


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Reduce a broadcast gradient back to ``shape``."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def add(a, b) -> Var:
    a, b = _as_var(a), _as_var(b)
    return Var(
        a.data + b.data,
        (a, b),
        lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape)),
    )


def sub(a, b) -> Var:
    a, b = _as_var(a), _as_var(b)
    return Var(
        a.data - b.data,
        (a, b),
        lambda g: (_unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape)),
    )


def mul(a, b) -> Var:
    """Elementwise product; a plain array or scalar operand gets no gradient."""
    grad_a, grad_b = isinstance(a, Var), isinstance(b, Var)
    a, b = _as_var(a), _as_var(b)
    return Var(
        a.data * b.data,
        (a, b),
        lambda g: (
            _unbroadcast(g * b.data, a.data.shape) if grad_a else None,
            _unbroadcast(g * a.data, b.data.shape) if grad_b else None,
        ),
    )


def div(a, b) -> Var:
    a, b = _as_var(a), _as_var(b)
    return Var(
        a.data / b.data,
        (a, b),
        lambda g: (
            _unbroadcast(g / b.data, a.data.shape),
            _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape),
        ),
    )


def reshape(a: Var, shape: tuple[int, ...]) -> Var:
    a = _as_var(a)
    old = a.data.shape
    return Var(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def getitem(a: Var, key) -> Var:
    a = _as_var(a)
    # ints and slices pick each element at most once, so a plain += scatters
    # the gradient; an index array may repeat one, which np.add.at sums
    keys = key if isinstance(key, tuple) else (key,)
    basic = all(isinstance(k, (int, np.integer, slice)) and not isinstance(k, bool)
                for k in keys)

    def vjp(g):
        out = np.zeros_like(a.data)
        if basic:
            out[key] += g
        else:
            np.add.at(out, key, g)
        return (out,)

    return Var(a.data[key], (a,), vjp)


def concat(parts: Sequence[Var], axis: int = -1) -> Var:
    parts = [_as_var(p) for p in parts]
    sizes = [p.data.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def vjp(g):
        return tuple(
            np.take(g, np.arange(offsets[i], offsets[i + 1]), axis=axis)
            for i in range(len(parts))
        )

    return Var(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), vjp)


def _scatter_rows(idx: Array, g: Array, shape: tuple[int, ...]) -> Array:
    """Rows of ``g`` added into ``zeros(shape)`` at rows ``idx``, with np.add.at's
    bits: a flat bincount, which adds in input order.  Rows of more than one
    element at distinct indices are set to ``g + 0.0`` instead (-0.0 becomes
    0.0, as in a sum); a 1-D scatter's bincount costs what that check would."""
    d = int(np.prod(shape[1:]))
    if d > 1 and np.bincount(idx.ravel(), minlength=shape[0]).max(initial=0) <= 1:
        out = np.zeros(shape)
        out[idx.ravel()] = g.reshape((-1,) + shape[1:]) + 0.0
        return out
    flat = idx.ravel() if d == 1 else (idx.reshape(-1, 1) * d + np.arange(d)).ravel()
    return np.bincount(flat, weights=g.reshape(-1), minlength=shape[0] * d).reshape(shape)


def _check_indices(idx: Array, rows: int) -> None:
    if idx.size and (idx.min() < 0 or idx.max() >= rows):
        raise ValueError(f"index out of range for table with {rows} rows")


def gather_rows(table: Var, indices) -> Var:
    """Row lookup ``table[indices]`` with scatter-add backward."""
    table = _as_var(table)
    idx = np.asarray(indices)
    _check_indices(idx, table.data.shape[0])
    return Var(table.data[idx], (table,),
               lambda g: (_scatter_rows(idx, g, table.data.shape),))


def segment_sum(a: Var, segments, n: int) -> Var:
    """Sums [n, ...] of the rows of ``a`` [N, ...] that ``segments`` [N]
    assigns to each of n segments, added in row order; empty segments are 0."""
    a = _as_var(a)
    seg = np.asarray(segments)
    return Var(_scatter_rows(seg, a.data, (n,) + a.data.shape[1:]), (a,),
               lambda g: (g[seg],))


def sum_(a: Var, axis=None, keepdims: bool = False) -> Var:
    a = _as_var(a)
    shape = a.data.shape

    def vjp(g):
        if axis is None:
            return (np.broadcast_to(g, shape).copy(),)
        g2 = g if keepdims else np.expand_dims(g, axis)
        return (np.broadcast_to(g2, shape).copy(),)

    return Var(a.data.sum(axis=axis, keepdims=keepdims), (a,), vjp)


def mean_(a: Var, axis=None, keepdims: bool = False) -> Var:
    a = _as_var(a)
    n = a.data.size if axis is None else a.data.shape[axis]
    return mul(sum_(a, axis=axis, keepdims=keepdims), 1.0 / n)


def sqrt(a: Var) -> Var:
    a = _as_var(a)
    out = np.sqrt(a.data)
    return Var(out, (a,), lambda g: (g * 0.5 / out,))


def tanh(a: Var) -> Var:
    a = _as_var(a)
    out = np.tanh(a.data)
    return Var(out, (a,), lambda g: (g * (1.0 - out * out),))


def _sigmoid(x: Array, out: Array | None = None) -> Array:
    # tanh form: one ufunc, no overflow, exactly 0 and 1 far from the origin
    out = np.multiply(x, 0.5, out=np.empty(np.shape(x)) if out is None else out)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def sigmoid(a: Var) -> Var:
    a = _as_var(a)
    out = _sigmoid(a.data)
    return Var(out, (a,), lambda g: (g * out * (1.0 - out),))


def relu(a: Var) -> Var:
    a = _as_var(a)
    mask = a.data > 0
    return Var(np.where(mask, a.data, 0.0), (a,), lambda g: (g * mask,))


def _softplus(x: Array) -> Array:
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def softplus(a: Var) -> Var:
    a = _as_var(a)
    return Var(_softplus(a.data), (a,), lambda g: (g * _sigmoid(a.data),))


def _softmax(x: Array, axis: int = -1) -> Array:
    z = x - x.max(axis=axis, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=axis, keepdims=True)


def softmax(a: Var, axis: int = -1) -> Var:
    """Numerically stable softmax along ``axis``."""
    a = _as_var(a)
    out = _softmax(a.data, axis=axis)

    def vjp(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return ((g - inner) * out,)

    return Var(out, (a,), vjp)


def bpr_loss(pos, neg) -> Var:
    """Pairwise ranking loss -ln(sigmoid(pos - neg)); elementwise on batches."""
    return softplus(sub(_as_var(neg), _as_var(pos)))


def backward(out: Var, seed: Array | None = None) -> None:
    """Accumulate gradients of ``out`` into every reachable parameter.

    Every node's gradient stays on its tape node, beside its data and VJP
    closure, until the caller drops the last reference to ``out``."""
    topo: list[Var] = []
    seen: set[int] = set()
    stack: list[tuple[Var, bool]] = [(out, False)]
    while stack:
        node, processed = stack.pop()
        if processed:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen:
                stack.append((p, False))
    out.grad = np.ones_like(out.data) if seed is None else _f64(seed)
    for node in reversed(topo):
        g = node.grad
        if g is None:
            continue
        if node._param is not None:
            node._param.grad += g
        if node._vjp is not None:
            for parent, pg in zip(node._parents, node._vjp(g)):
                if pg is None:
                    continue
                # never in place: a VJP may hand one array to several parents
                if parent.grad is None:
                    parent.grad = pg
                else:
                    parent.grad = parent.grad + pg


class ParamTensor:
    """Named trainable tensor with a persistent gradient accumulator."""

    __slots__ = ("name", "values", "grad")

    def __init__(self, name: str, values: Array):
        self.name = name
        self.values = np.ascontiguousarray(values, dtype=np.float64)
        self.grad = np.zeros_like(self.values)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def size(self) -> int:
        return self.values.size


class ModelState:
    """Ordered parameter collection plus optimizer slots and metadata.

    The first :func:`adam_step` allocates Adam's slots ``m`` and ``v``.
    ``meta`` must stay JSON-serializable; it travels with checkpoints (model
    identity, vocabularies, hyperparameters needed to score).
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.rng = np.random.Generator(np.random.PCG64(seed))
        self.params: dict[str, ParamTensor] = {}
        self.m: dict[str, Array] = {}
        self.v: dict[str, Array] = {}
        self.step = 0
        self.meta: dict = {}

    def add_param(self, name: str, shape: tuple[int, ...], scale: float) -> ParamTensor:
        """Register a tensor initialized from U(-scale, scale); 0 -> zeros."""
        if name in self.params:
            raise ValueError(f"duplicate parameter {name!r}")
        if scale == 0.0:
            values = np.zeros(shape, dtype=np.float64)
        else:
            values = self.rng.uniform(-scale, scale, size=shape)
        p = ParamTensor(name, values)
        self.params[name] = p
        return p

    def add_embedding(self, name: str, rows: int, dim: int) -> ParamTensor:
        return self.add_param(name, (rows, dim), 1.0 / np.sqrt(dim))

    def add_dense(self, name: str, out_dim: int, in_dim: int) -> None:
        scale = 1.0 / np.sqrt(in_dim)
        self.add_param(f"{name}.w", (out_dim, in_dim), scale)
        self.add_param(f"{name}.b", (out_dim,), 0.0)

    def add_gru(self, name: str, in_dim: int, hidden: int) -> None:
        sx = 1.0 / np.sqrt(in_dim)
        sh = 1.0 / np.sqrt(hidden)
        for gate in ("z", "r", "h"):
            self.add_param(f"{name}.w{gate}", (hidden, in_dim), sx)
            self.add_param(f"{name}.u{gate}", (hidden, hidden), sh)
            self.add_param(f"{name}.b{gate}", (hidden,), 0.0)

    def leaf(self, name: str) -> Var:
        p = self.params[name]
        return Var(p.values, param=p)

    def value(self, name: str) -> Array:
        return self.params[name].values

    def param_count(self) -> int:
        return sum(p.size for p in self.params.values())

    def snapshot(self) -> dict[str, Array]:
        return {name: p.values.copy() for name, p in self.params.items()}

    def restore(self, snap: dict[str, Array]) -> None:
        for name, values in snap.items():
            self.params[name].values[...] = values


class GRUParams(NamedTuple):
    wz: Var
    uz: Var
    bz: Var
    wr: Var
    ur: Var
    br: Var
    wh: Var
    uh: Var
    bh: Var


def gru_leaves(state: ModelState, name: str) -> GRUParams:
    return GRUParams(*(state.leaf(f"{name}.{t}{g}") for g in "zrh" for t in ("w", "u", "b")))


def _pad_rows(a: Array, rows: int) -> Array:
    """``a`` with zero rows appended up to ``rows`` rows."""
    return a if len(a) >= rows else np.vstack([a, np.zeros((rows - len(a),) + a.shape[1:])])


def dense(w: Var, b: Var, x: Var) -> Var:
    """``x @ w.T + b`` of ``x`` [B, I] and ``w`` [O, I] as one tape node, its
    products on zero rows appended up to 2 rows and 4 outputs (the row rule)."""
    w, b, x = _as_var(w), _as_var(b), _as_var(x)
    (n, _), m = x.data.shape, len(w.data)
    xp, wp = _pad_rows(x.data, 2), _pad_rows(w.data, 4)
    out = (xp @ wp.T)[:n, :m] + b.data

    def vjp(g):
        gp = np.pad(g, [(0, len(xp) - n), (0, len(wp) - m)])
        return (xp.T @ gp).T[:m], _unbroadcast(g, b.data.shape), (gp @ wp)[:n]

    return Var(out, (w, b, x), vjp)


def pooled(pool, emb: Var, codes) -> Var:
    """``pool @ emb`` [B, D] of ``pool`` [B, U] and ``emb`` [U, D], whose rows
    are the ascending ``codes``.  By the row rule, one product per range of
    256 codes, added in ascending order; the products, backward ones too, run
    on at least 2 rows.  A plain ``pool`` gets no gradient and ``emb`` is the
    node's one parent; a ``Var`` pool gets ``d pool = g @ emb.T``, in one
    product, since each of its cells is one dot over the D columns."""
    emb, var_pool = _as_var(emb), isinstance(pool, Var)
    a = pool.data if var_pool else pool
    n, pp = len(a), _pad_rows(a, 2)
    cuts = [0, *(np.flatnonzero(np.diff(np.asarray(codes) // 256)) + 1), len(codes)]
    spans = [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:])]
    parts = [np.ascontiguousarray(pp[:, s]) for s in spans]
    out = functools.reduce(np.add, [p @ emb.data[s] for p, s in zip(parts, spans)])

    def vjp(g):
        gp = _pad_rows(g, 2)
        d_emb = np.concatenate([p.T @ gp for p in parts])
        return ((gp @ emb.data.T)[:n], d_emb) if var_pool else (d_emb,)

    return Var(out[:n], (pool, emb) if var_pool else (emb,), vjp)


def gru_sequence(p: GRUParams, xs, mask) -> Var:
    """Final hidden state [B,D] of a masked GRU run over ``mask`` [B,L] fed
    by ``xs = (parts, codes)``: the real slot j, in row-major order, reads
    input ``codes[j]``, and input m joins, in part order, row ``index[m]``
    of each part ``(table [R,I_i], index [M])``; W's columns split alike.

    Each step is ``h' = (1 - z) * h + z * h_cand``, starting from h = 0, with
    update gate ``z``, reset gate ``r`` and candidate
    ``h_cand = tanh(W_h x + U_h (r * h) + b_h)``; where ``mask`` is 0 the
    step keeps the row's previous h, so a masked slot is the same as no slot.
    The whole run is one tape node used by training and inference alike; the
    VJP is backpropagation through time.

    The run steps each distinct input prefix once.  A row's h depends only
    on the codes of its real slots, so the rows are lexsorted by those codes,
    left-aligned, and the distinct prefixes of length t + 1 are the depth-t
    nodes of a trie: the rows through a node are contiguous, and each node
    records its code and its parent, the root (h = 0) for depth 0.  Depth t
    gathers its nodes' h from their parents and runs the gates and products
    on those nodes only; a row's output is the h of the node where its codes
    end.  Each part's whole table is projected once, through its columns of
    ``W.T`` copied contiguous: no row is copied per slot, but a catalog
    table costs R × I × 3D whatever the batch reads.  b joins the first
    part's projection, and a node's input row sums its parts' rows in part
    order.  These and the recurrent products ``h @ U`` run on at least two
    rows, by the row rule: a one-node depth also reads the next row, which
    is 0 or unused.  So a row's h has the bits of that row run alone,
    whatever its batch mates.  Each depth's whole-array expressions write its parent h,
    gates, candidate and ``r * h`` into the arrays the backward reads.

    The backward runs depth by depth on the nodes, the deepest first.  A
    node's children are contiguous, so their h gradients are added into it
    with ``np.add.reduceat``.  U's and b's gradients are products and sums
    over the nodes.  Each part sums the nodes' input gradients into ``S``
    [R, 3D] by the row each reads, by a one-hot product under 64 rows (a
    flag table) and by :func:`_scatter_rows` above, and takes its columns of
    ``dW = S.T @ table`` and ``d table = S @ W``.  These equal the gradients
    of stepping every slot up to rounding, in another order.
    """
    parts, codes = xs[0], np.asarray(xs[1])
    tables, index = [_as_var(t) for t, _ in parts], [np.asarray(i) for _, i in parts]
    keep = np.asarray(mask, dtype=bool)
    # gates stacked z, r, h: w [3D,I], u [3D,D], b [3D]
    w, u, b = (np.concatenate([getattr(p, t + g).data for g in "zrh"]) for t in "wub")
    cols = np.cumsum([0] + [t.data.shape[1] for t in tables if t.data.ndim == 2])
    M = len(index[0]) if index else 0
    if (keep.ndim != 2 or codes.ndim != 1 or len(codes) != keep.sum() or not tables
            or any(t.data.ndim != 2 or i.shape != (M,) for t, i in zip(tables, index))
            or cols[-1] != w.shape[1]):
        raise ValueError("a GRU run expects mask [B,L], codes [mask.sum()] and parts of W's width")
    for i, n in [(codes, M)] + [(i, len(t.data)) for t, i in zip(tables, index)]:
        _check_indices(i, n)
    (B, L), D = keep.shape, u.shape[1]
    # each row's codes left-aligned and -1 past its end, rows in lexical order
    lens = keep.sum(axis=1)
    seq = np.full((B, L), -1)
    seq[np.arange(L) < lens[:, None]] = codes
    order = np.lexsort(seq.T[::-1]) if L else np.arange(B)
    seq, lens = seq[order], lens[order]
    # a row starts a depth-t node where its first t + 1 codes differ from the
    # previous row's.  Nodes get ids 1..P depth by depth, and node id j + 1
    # sits at index j of code and parent; up[i, t] is row i's node at depth
    # t - 1, the root 0 at t = 0, so a row ends at up[i, lens[i]]
    new = np.ones((B, L), dtype=bool)
    new[1:] = seq[1:] != seq[:-1]
    new = np.logical_or.accumulate(new, axis=1) & (seq >= 0)
    up = np.hstack([np.zeros((B, 1), dtype=np.int64), np.cumsum(new.T).reshape(L, B).T])
    code, parent, end = seq.T[new.T], up[:, :-1].T[new.T], up[np.arange(B), lens]
    n = new.sum(axis=0)
    off = np.concatenate(([0], np.cumsum(n)))
    P, T = off[-1], int(lens.max(initial=0))
    # the first child of each parent, where each depth's firsts begin, and
    # the first of the rows that end at each node: equal rows are contiguous
    first = np.flatnonzero(np.diff(parent, prepend=-1))
    cut = np.searchsorted(first, off)
    tie = np.flatnonzero(np.diff(end, prepend=-1))
    spans = [slice(lo, hi) for lo, hi in zip(cols, cols[1:])]
    rows = [i[code] for i in index]
    xp = [_pad_rows(t.data, 2) @ np.ascontiguousarray(w[:, s].T) for t, s in zip(tables, spans)]
    xp[0] += b
    xn = functools.reduce(lambda x, y: np.add(x, y, out=x), [p_[r] for p_, r in zip(xp, rows)])
    u_zr, u_h = (np.ascontiguousarray(u[g].T) for g in (slice(2 * D), slice(2 * D, None)))
    # hn[j] is the h of node id j, 0 for the root; hs[j] is node id j + 1's
    # h before its step, its parent's, and rhs[j] its r * h.  The rows past
    # a depth are 0 or unused when a one-node depth reads two
    hn = np.zeros((P + 1, D))
    hs, rhs = np.zeros((P + 1, D)), np.zeros((P + 1, D))
    zrs, cs = np.empty((P, 2 * D)), np.empty((P, D))
    for t in range(T):
        a, e = off[t], off[t + 1]
        k, kk = e - a, max(e - a, 2)
        h = np.take(hn, parent[a:e], axis=0, out=hs[a:e])
        # zr = sigmoid(x W_zr + h U_zr), c = tanh(x W_h + (r * h) U_h)
        zr = _sigmoid(xn[a:e, : 2 * D] + (hs[a : a + kk] @ u_zr)[:k], out=zrs[a:e])
        z = zr[:, :D]
        np.multiply(zr[:, D:], h, out=rhs[a:e])
        c = np.tanh(xn[a:e, 2 * D :] + (rhs[a : a + kk] @ u_h)[:k], out=cs[a:e])
        hn[1 + a : 1 + e] = (1 - z) * h + z * c
    out = hn[end[np.argsort(order)]]

    def vjp(g):
        # gh[j] is the gradient of node id j's h; the root's is dropped
        gh = np.zeros((P + 1, D))
        gh[end[tie]] = np.add.reduceat(g[order], tie, axis=0)
        dxp = np.empty((P, 3 * D))
        for t in range(T - 1, -1, -1):
            a, e = off[t], off[t + 1]
            gn, h, c, d = gh[1 + a : 1 + e], hs[a:e], cs[a:e], dxp[a:e]
            z, r = zrs[a:e, :D], zrs[a:e, D:]
            # d_h = gn * z * (1 - c * c); d_z = gn * (c - h) and d_r = (d_h U_h) * h
            d[:, 2 * D :] = gn * z * (1 - c * c)
            drh = d[:, 2 * D :] @ u[2 * D :]
            d[:, :D] = (c - h) * gn * ((1 - z) * z)
            d[:, D : 2 * D] = drh * h * ((1 - r) * r)
            # the gradient of h before the step, summed over each parent's children
            gn = gn * (1 - z) + drh * r + d[:, : 2 * D] @ u[: 2 * D]
            s = first[cut[t] : cut[t + 1]] - a
            gh[parent[a:e][s]] += np.add.reduceat(gn, s, axis=0)
        dw, d_tables = np.empty(w.shape), []
        for t, s, r in zip(tables, spans, rows):
            R = len(t.data)
            sums = ((r == np.arange(R)[:, None]).astype(np.float64) @ dxp if R < 64
                    else _scatter_rows(r, dxp, (R, 3 * D)))
            dw[:, s] = sums.T @ t.data
            d_tables.append(sums @ w[:, s])
        du_zr = dxp[:, : 2 * D].T @ hs[:P]
        du_h = dxp[:, 2 * D :].T @ rhs[:P]
        db = dxp.sum(axis=0)
        return (
            *d_tables,
            dw[:D], du_zr[:D], db[:D],
            dw[D : 2 * D], du_zr[D:], db[D : 2 * D],
            dw[2 * D :], du_h, db[2 * D :],
        )

    return Var(out, (*tables, *p), vjp)


def adam_step(
    state: ModelState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    weight_decay: float = 0.0,
) -> None:
    """Bias-corrected Adam with decoupled weight decay, in place; zeroes grads
    after.  ``update = (m / c1) / (sqrt(v / c2) + eps)``, operands in that order."""
    state.step += 1
    t = state.step
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    for name, p in state.params.items():
        g = p.grad
        if name not in state.m:
            state.m[name], state.v[name] = np.zeros_like(g), np.zeros_like(g)
        m, v = state.m[name], state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * (g * g)
        update = (m / c1) / (np.sqrt(v / c2) + eps)
        if weight_decay:
            p.values -= lr * weight_decay * p.values
        p.values -= lr * update
        p.grad[...] = 0.0


_CKPT_MAGIC = b"FDRECKPT1\n"


def save_checkpoint(state: ModelState, path: str) -> None:
    """Self-describing binary dump; byte-stable for identical states."""
    write_tensors(
        path, _CKPT_MAGIC, {"meta": state.meta, "seed": state.seed, "step": state.step},
        {name: p.values for name, p in state.params.items()},
    )


def load_checkpoint(path: str) -> ModelState:
    header, tensors = read_tensors(path, _CKPT_MAGIC, ("meta", "seed", "step"))
    state = ModelState(seed=header["seed"])
    state.step = header["step"]
    state.meta = header["meta"]
    for name, values in tensors.items():
        state.params[name] = ParamTensor(name, values)
    return state
