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
caches and backpropagates only the rows started so far.  Only the forward's
recurrent products keep all rows, so that a row's hidden state does not
depend on how many of its batch mates have started; the gradients equal
those of stepping every slot up to rounding.  The tests check the op against
a reference GRU step built from the primitives.
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
    a, b = _as_var(a), _as_var(b)
    return Var(
        a.data * b.data,
        (a, b),
        lambda g: (
            _unbroadcast(g * b.data, a.data.shape),
            _unbroadcast(g * a.data, b.data.shape),
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
    """Matrix product; both operands at least 2-d (batch axes broadcast)."""
    a, b = _as_var(a), _as_var(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError("matmul operands must be at least 2-d")

    def vjp(g):
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        return _unbroadcast(ga, a.data.shape), _unbroadcast(gb, b.data.shape)

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


def gather_rows(table: Var, indices) -> Var:
    """Row lookup ``table[indices]`` with scatter-add backward."""
    table = _as_var(table)
    idx = np.asarray(indices)
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise ValueError(
            f"index out of range for table with {table.data.shape[0]} rows"
        )
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


def _sigmoid(x: Array) -> Array:
    # tanh form: one ufunc, no overflow, exactly 0 and 1 far from the origin
    return 0.5 * (1.0 + np.tanh(0.5 * x))


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
        self.m[name] = np.zeros(shape, dtype=np.float64)
        self.v[name] = np.zeros(shape, dtype=np.float64)
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
    inputs at the N real slots of ``mask`` [B,L] in row-major order.

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

    Only the forward's recurrent products ``h @ U`` span all B rows, in
    sorted order; the rows not yet started are 0 and are never read back.
    OpenBLAS rounds a row differently when the row count changes, so a
    prefix product would make a row's h depend on how many of its batch
    mates have started, and a query would score differently in another
    chunk.  The backward is packed throughout: each step's products run on
    its prefix, and the gradients of W, U, b and ``xs`` are products over
    the P packed slots.  They equal those of stepping every slot up to
    rounding.
    """
    xs = _as_var(xs)
    keep = np.asarray(mask, dtype=bool)
    if keep.ndim != 2 or xs.data.ndim != 2 or len(xs.data) != keep.sum():
        raise ValueError("a GRU run expects mask [B,L] and xs [mask.sum(),I]")
    # gates stacked z, r, h: w [3D,I], u [3D,D], b [3D]
    w, u, b = (np.concatenate([getattr(p, t + g).data for g in "zrh"]) for t in "wub")
    (B, L), (N, I) = keep.shape, xs.data.shape
    D = u.shape[1]
    # first real step of each row (L if none); step t runs rows order[:n[t]],
    # whose packed slots are off[t]:off[t + 1], at flat slots slot[...]
    first = (~np.logical_or.accumulate(keep, axis=1)).sum(axis=1)
    order = np.argsort(first, kind="stable")
    n = np.searchsorted(first[order], np.arange(L), side="right")
    off = np.concatenate(([0], np.cumsum(n)))
    step = np.repeat(np.arange(L), n)
    slot = order[np.arange(off[-1]) - off[step]] * L + step
    # xs row of each packed slot; a masked one reads a zero row and writes
    # its (zero) gradient to an extra row N, which is dropped
    real = keep.ravel()
    src = (np.cumsum(real) - 1)[slot]
    hole = np.flatnonzero(~real[slot])
    # the spare row keeps a one-slot run off BLAS's gemv path
    xg = xs.data[np.append(src, src[:1])]
    xg[hole] = 0.0
    src[hole] = N
    xp = xg @ np.ascontiguousarray(w.T)
    xp += b
    u_zr, u_h = u[: 2 * D].T, u[2 * D :].T
    keep = keep[order]
    h, rh = np.zeros((B, D)), np.zeros((B, D))
    P = len(slot)
    hs, rhs, cs = np.empty((3, P, D))
    zrs = np.empty((P, 2 * D))
    for t in range(L):
        k, s = n[t], slice(off[t], off[t + 1])
        zr = _sigmoid(xp[s, : 2 * D] + (h @ u_zr)[:k])
        z, hp = zr[:, :D], h[:k]
        rh[:k] = zr[:, D:] * hp
        c = np.tanh(xp[s, 2 * D :] + (rh @ u_h)[:k])
        hs[s], rhs[s], zrs[s], cs[s] = hp, rh[:k], zr, c
        h[:k] = np.where(keep[:k, t, None], (1.0 - z) * hp + z * c, hp)
    out = np.empty((B, D))
    out[order] = h

    def vjp(g):
        gh = g[order]
        dxp = np.empty((P, 3 * D))
        for t in range(L - 1, -1, -1):
            k, s = n[t], slice(off[t], off[t + 1])
            m = keep[:k, t, None]
            gn = np.where(m, gh[:k], 0.0)
            zr, c, hp, d = zrs[s], cs[s], hs[s], dxp[s]
            z, r = zr[:, :D], zr[:, D:]
            d[:, 2 * D :] = gn * z * (1.0 - c * c)
            drh = d[:, 2 * D :] @ u[2 * D :]
            d[:, :D] = gn * (c - hp)
            d[:, D : 2 * D] = drh * hp
            d[:, : 2 * D] *= zr * (1.0 - zr)
            dprev = gn * (1.0 - z) + drh * r + d[:, : 2 * D] @ u[: 2 * D]
            gh[:k] = np.where(m, dprev, gh[:k])
        dw = dxp.T @ xg[:P]
        du_zr = dxp[:, : 2 * D].T @ hs
        du_h = dxp[:, 2 * D :].T @ rhs
        db = dxp.sum(axis=0)
        dxs = np.empty((N + 1, I))
        dxs[src] = dxp @ w
        return (
            dxs[:N],
            dw[:D], du_zr[:D], db[:D],
            dw[D : 2 * D], du_zr[D:], db[D : 2 * D],
            dw[2 * D :], du_h, db[2 * D :],
        )

    return Var(out, (xs, *p), vjp)


def adam_step(
    state: ModelState,
    lr: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    weight_decay: float = 0.0,
) -> None:
    """Bias-corrected Adam with decoupled weight decay; zeroes grads after."""
    state.step += 1
    t = state.step
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    for name, p in state.params.items():
        g = p.grad
        m = state.m[name]
        v = state.v[name]
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
        state.m[name], state.v[name] = np.zeros_like(values), np.zeros_like(values)
    return state
