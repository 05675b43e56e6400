"""Minimal reverse-mode differentiation engine on float64 numpy arrays.

Every primitive carries an exact analytic vector-Jacobian product, so any
composition of these ops has exact gradients; the tests check them against
central differences.  The op set is deliberately small: enough for
embedding gathers, dense layers, attention, softmax heads, and pairwise
ranking losses, all batched over leading axes.

History windows are packed: ops read a batch's N real window slots as rows,
and :func:`segment_sum` adds them back into their batch rows.  Recurrent
history encoders use one fused op, :func:`gru_sequence`: a whole masked GRU
run over packed slots is a single tape node whose backward pass is
hand-written backpropagation through time.  Training and inference run the
same op; there is no tape-free twin.  The models' windows are left-padded,
so the rows are sorted by their first real step, and each step projects,
multiplies, caches and backpropagates only the rows started so far.  Its
recurrent products take contiguous weights and at least two rows, where
OpenBLAS rounds a row the same whatever the row count, so a row's hidden
state does not depend on its batch mates or on the batch size; the
gradients equal those of stepping every slot up to rounding.  The tests
check the op against a reference GRU step built from the primitives.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

import numpy as np

from .dataio import read_tensors, write_tensors

Array = np.ndarray


def _f64(x) -> Array:
    a = np.asarray(x, dtype=np.float64)
    return a


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


def matmul(a, b) -> Var:
    """Matrix product, batch axes broadcast; a plain array operand gets no gradient."""
    grad_a, grad_b = isinstance(a, Var), isinstance(b, Var)
    a, b = _as_var(a), _as_var(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError("matmul operands must be at least 2-d")

    def vjp(g):
        ga = _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.data.shape) if grad_a else None
        gb = _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.data.shape) if grad_b else None
        return ga, gb

    return Var(a.data @ b.data, (a, b), vjp)


def transpose_last2(a: Var) -> Var:
    a = _as_var(a)
    return Var(
        np.swapaxes(a.data, -1, -2), (a,), lambda g: (np.swapaxes(g, -1, -2),)
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
    """Rows of ``g`` added into ``zeros(shape)`` at rows ``idx``; bincount adds
    in input order, exactly like np.add.at, but faster."""
    d = int(np.prod(shape[1:]))
    flat = (idx.reshape(-1, 1) * d + np.arange(d)).ravel()
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
    """Accumulate gradients of ``out`` into every reachable parameter."""
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

    The first :func:`adam_step` allocates Adam's slots ``m`` and ``v`` and
    its ``scratch`` buffers.
    ``meta`` must stay JSON-serializable; it travels with checkpoints (model
    identity, vocabularies, hyperparameters needed to score).
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.rng = np.random.Generator(np.random.PCG64(seed))
        self.params: dict[str, ParamTensor] = {}
        self.m: dict[str, Array] = {}
        self.v: dict[str, Array] = {}
        self.scratch: dict[str, tuple[Array, Array]] = {}
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


def dense(w: Var, b: Var | None, x: Var) -> Var:
    """Affine map ``x @ w.T + b`` for ``x`` shaped [..., in_dim]."""
    x = _as_var(x)
    squeeze = x.data.ndim == 1
    if squeeze:
        x = reshape(x, (1, x.data.shape[0]))
    out = matmul(x, transpose_last2(w))
    if b is not None:
        out = add(out, b)
    if squeeze:
        out = reshape(out, (out.data.shape[-1],))
    return out


def gru_sequence(p: GRUParams, xs, mask) -> Var:
    """Final hidden state [B,D] of a masked GRU run over ``xs`` [N,I], the
    inputs at the N real slots of ``mask`` [B,L] in row-major order.  Or
    ``xs`` is ``(table, codes)``, an embedding-fed run: the real slot j
    reads row ``codes[j]`` of ``table`` [M,I].

    Each step is ``h' = (1 - z) * h + z * h_cand``, starting from h = 0, with
    update gate ``z``, reset gate ``r`` and candidate
    ``h_cand = tanh(W_h x + U_h (r * h) + b_h)``; where ``mask`` is 0 the
    step keeps the row's previous h.  The whole run is one tape node used by
    training and inference alike; the VJP is backpropagation through time.

    The run is packed.  A row's h stays exactly 0 until its first real step,
    so the rows are stable-sorted by that step, and the rows started by step
    ``t`` are a prefix ``[:n_t]``.  Step ``t`` computes its gates, update and
    caches on that prefix only, and ``mask`` still decides which of those
    rows it updates.  The packed slots, each row's steps from its first real
    one on, sit time-major in ``[P, ·]`` arrays; a masked one reads a zero
    input.  Only they are projected, through a contiguous copy of ``W.T`` and
    with at least two rows, where OpenBLAS rounds each row as it does in the
    full-size product.

    The embedding-fed form projects the table instead, once, with a zero row
    appended for the masked slots to read, and each step gathers its slots'
    rows of ``table @ W.T``.  Each row of that product has the bits of the
    same row in the product over the gathered slots, so the run keeps the
    bits of the rows form over ``gather_rows(table, codes)``.  Its backward
    sums each code's packed input gradients into ``S`` [M, 3D], by a one-hot
    product sized for small tables such as a flag table, and takes
    ``dW = S.T @ table`` and ``d table = S @ W``: the same sums in another
    order, so only these two gradients move, in their last bits.

    The recurrent products ``h @ U`` run on the step's prefix too, through
    contiguous copies of ``U.T`` and with at least two rows: a one-row step
    also reads the next row, which is 0 or unused.  With contiguous operands
    and two or more rows, OpenBLAS rounds a row as it does at any other row
    count, so a row's h depends neither on how many of its batch mates have
    started nor on the batch size, and a query scores the same in any chunk.
    The steps write their gates, candidate and new h in place into the
    packed caches, and keep a masked row's h only on steps with a hole.  The
    backward is packed throughout: each step's products run on its prefix,
    and the gradients of W, U, b and the input are products over the P
    packed slots.  They equal those of stepping every slot up to rounding.
    """
    codes = np.asarray(xs[1]) if isinstance(xs, tuple) else None
    x = _as_var(xs if codes is None else xs[0])
    keep = np.asarray(mask, dtype=bool)
    if (keep.ndim != 2 or x.data.ndim != 2 or (codes is not None and codes.ndim != 1)
            or len(x.data if codes is None else codes) != keep.sum()):
        raise ValueError("a GRU run expects mask [B,L] and xs [mask.sum(),I] "
                         "or (table [M,I], codes [mask.sum()])")
    if codes is not None:
        _check_indices(codes, len(x.data))
    # gates stacked z, r, h: w [3D,I], u [3D,D], b [3D]
    w, u, b = (np.concatenate([getattr(p, t + g).data for g in "zrh"]) for t in "wub")
    (B, L), (M, I) = keep.shape, x.data.shape
    D = u.shape[1]
    # first real step of each row (L if none); step t runs rows order[:n[t]],
    # whose packed slots are off[t]:off[t + 1], at flat slots slot[...]
    first = (~np.logical_or.accumulate(keep, axis=1)).sum(axis=1)
    order = np.argsort(first, kind="stable")
    n = np.searchsorted(first[order], np.arange(L), side="right")
    off = np.concatenate(([0], np.cumsum(n)))
    step = np.repeat(np.arange(L), n)
    slot = order[np.arange(off[-1]) - off[step]] * L + step
    # input row of each packed slot; a masked one reads a zero row and writes
    # its (zero) gradient to an extra row N, which is dropped
    real = keep.ravel()
    N = int(real.sum())
    src = (np.cumsum(real) - 1)[slot]
    hole = np.flatnonzero(~real[slot])
    if codes is None:
        # the spare row keeps a one-slot run off BLAS's gemv path
        feed = x.data[np.append(src, src[:1])]
        feed[hole] = 0.0
    else:
        feed = np.vstack([x.data, np.zeros((1, I))])
    src[hole] = N
    xp = feed @ np.ascontiguousarray(w.T)
    xp += b
    if codes is not None:
        code = np.append(codes, M)[src]
        xt = np.empty((B, 3 * D))
    u_zr, u_h = (np.ascontiguousarray(u[g].T) for g in (slice(2 * D), slice(2 * D, None)))
    keep = keep[order]
    # steps whose started rows include a masked one: a hole in a window
    holed = ((np.arange(B)[:, None] < n) & ~keep).any(axis=0)
    # hs[off[t]:off[t + 1]] is h before step t, and step t writes its new h
    # to the first n[t] rows of the next slice; the rows' final h end up at
    # hs[P:P + B].  The rows past a slice are 0 or unused when a one-row step
    # reads two; the product buffers pz and ph hold R rows for the same reason.
    P, R = len(slot), max(B, 2)
    hs, rhs = np.zeros((P + R, D)), np.zeros((P + 1, D))
    zrs, cs = np.empty((P, 2 * D)), np.empty((P, D))
    pz, ph = np.empty((R, 2 * D)), np.empty((R, D))
    for t in range(L):
        k, a, e = n[t], off[t], off[t + 1]
        if k == 0:
            continue
        kk = max(k, 2)
        xa = xp[a:e] if codes is None else np.take(xp, code[a:e], axis=0, out=xt[:k])
        hp, zr, rh, c, hn = hs[a:e], zrs[a:e], rhs[a:e], cs[a:e], hs[e : e + k]
        # zr = sigmoid(x W_zr + h U_zr), c = tanh(x W_h + (r * h) U_h)
        np.add(xa[:, : 2 * D], np.matmul(hs[a : a + kk], u_zr, out=pz[:kk])[:k], out=zr)
        _sigmoid(zr, out=zr)
        z = zr[:, :D]
        np.multiply(zr[:, D:], hp, out=rh)
        np.add(xa[:, 2 * D :], np.matmul(rhs[a : a + kk], u_h, out=ph[:kk])[:k], out=c)
        np.tanh(c, out=c)
        # h' = (1 - z) * h + z * c, or h where the step is masked
        np.subtract(1.0, z, out=hn)
        hn *= hp
        hn += np.multiply(z, c, out=ph[:k])
        if holed[t]:
            np.copyto(hn, hp, where=~keep[:k, t, None])
    out = np.empty((B, D))
    out[order] = hs[P : P + B]
    hs, rhs = hs[:P], rhs[:P]

    def vjp(g):
        gh = g[order]
        dxp = np.empty((P, 3 * D))
        v1, v2 = np.empty((B, D)), np.empty((B, 2 * D))
        drh_, pu = np.empty((B, D)), np.empty((B, D))
        for t in range(L - 1, -1, -1):
            k, a, e = n[t], off[t], off[t + 1]
            if k == 0:
                continue
            m = keep[:k, t, None]
            # gn is gh[:k] itself, and becomes the gradient of h before step
            # t in place, unless a started row is masked at step t
            gn = np.where(m, gh[:k], 0.0) if holed[t] else gh[:k]
            zr, c, hp, d = zrs[a:e], cs[a:e], hs[a:e], dxp[a:e]
            z, r, drh = zr[:, :D], zr[:, D:], drh_[:k]
            # d_h = gn * z * (1 - c * c), drh = d_h U_h
            np.multiply(gn, z, out=d[:, 2 * D :])
            np.multiply(c, c, out=v1[:k])
            np.subtract(1.0, v1[:k], out=v1[:k])
            d[:, 2 * D :] *= v1[:k]
            np.matmul(d[:, 2 * D :], u[2 * D :], out=drh)
            # d_z = gn * (c - h), d_r = drh * h, both times zr * (1 - zr)
            np.subtract(c, hp, out=d[:, :D])
            d[:, :D] *= gn
            np.multiply(drh, hp, out=d[:, D : 2 * D])
            np.subtract(1.0, zr, out=v2[:k])
            v2[:k] *= zr
            d[:, : 2 * D] *= v2[:k]
            # gn * (1 - z) + drh * r + d_zr U_zr
            np.subtract(1.0, z, out=v1[:k])
            gn *= v1[:k]
            drh *= r
            gn += drh
            gn += np.matmul(d[:, : 2 * D], u[: 2 * D], out=pu[:k])
            if holed[t]:
                np.copyto(gh[:k], gn, where=m)
        if codes is None:
            dw = dxp.T @ feed[:P]
            dx = np.empty((N + 1, I))
            dx[src] = dxp @ w
            dx = dx[:N]
        else:
            # the masked slots read code M, which no row of the one-hot picks
            sums = (code == np.arange(M)[:, None]).astype(np.float64) @ dxp
            dw = sums.T @ x.data
            dx = sums @ w
        du_zr = dxp[:, : 2 * D].T @ hs
        du_h = dxp[:, 2 * D :].T @ rhs
        db = dxp.sum(axis=0)
        return (
            dx,
            dw[:D], du_zr[:D], db[:D],
            dw[D : 2 * D], du_zr[D:], db[D : 2 * D],
            dw[2 * D :], du_h, db[2 * D :],
        )

    return Var(out, (x, *p), vjp)


def adam_step(
    state: ModelState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    weight_decay: float = 0.0,
) -> None:
    """Bias-corrected Adam with decoupled weight decay; zeroes grads after.
    Works in place in two scratch buffers per parameter, with the operands
    of ``update = (m / c1) / (sqrt(v / c2) + eps)`` in that order."""
    state.step += 1
    t = state.step
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    for name, p in state.params.items():
        g = p.grad
        if name not in state.m:
            state.m[name], state.v[name] = np.zeros_like(g), np.zeros_like(g)
            state.scratch[name] = np.empty_like(g), np.empty_like(g)
        m, v, (a, b) = state.m[name], state.v[name], state.scratch[name]
        m *= beta1
        m += np.multiply(g, 1.0 - beta1, out=a)
        v *= beta2
        v += np.multiply(np.multiply(g, g, out=a), 1.0 - beta2, out=a)
        np.sqrt(np.divide(v, c2, out=b), out=b)
        b += eps
        update = np.divide(np.divide(m, c1, out=a), b, out=a)
        if weight_decay:
            p.values -= np.multiply(p.values, lr * weight_decay, out=b)
        p.values -= np.multiply(update, lr, out=a)
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
