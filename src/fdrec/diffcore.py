"""Minimal reverse-mode differentiation engine on float64 numpy arrays.

Every primitive carries an exact analytic vector-Jacobian product, so any
composition of these ops has exact gradients; an independent central-difference
checker validates them.  The op set is deliberately small: enough for
embedding gathers, dense layers, attention, softmax heads, and pairwise
ranking losses, all batched over leading axes.

Recurrent history encoders use one fused op, :func:`gru_sequence`: a whole
masked GRU run is a single tape node whose backward pass is hand-written
backpropagation through time.  Training and inference run the same op; there
is no tape-free twin.  :func:`gru_cell` (one step built from primitives)
stays as the reference it is tested against.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

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

    # Operator sugar; constants are accepted on either side.
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, key):
        return getitem(self, key)


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


def dot(a, b) -> Var:
    """Inner product of two 1-d vectors."""
    a, b = _as_var(a), _as_var(b)
    if a.data.ndim != 1 or b.data.ndim != 1:
        raise ValueError("dot expects 1-d vectors")
    return Var(a.data @ b.data, (a, b), lambda g: (g * b.data, g * a.data))


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

    def vjp(g):
        out = np.zeros_like(a.data)
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


def gather_rows(table: Var, indices) -> Var:
    """Row lookup ``table[indices]`` with scatter-add backward."""
    table = _as_var(table)
    idx = np.asarray(indices)
    if idx.size and (idx.min() < 0 or idx.max() >= table.data.shape[0]):
        raise ValueError(
            f"index out of range for table with {table.data.shape[0]} rows"
        )

    def vjp(g):
        # bincount adds in input order, exactly like np.add.at, but faster
        n = table.data.shape[0]
        d = table.data.size // n
        flat = (idx.reshape(-1, 1) * d + np.arange(d)).ravel()
        out = np.bincount(flat, weights=g.reshape(-1), minlength=n * d)
        return (out.reshape(table.data.shape),)

    return Var(table.data[idx], (table,), vjp)


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


def exp(a: Var) -> Var:
    a = _as_var(a)
    out = np.exp(a.data)
    return Var(out, (a,), lambda g: (g * out,))


def log(a: Var) -> Var:
    a = _as_var(a)
    return Var(np.log(a.data), (a,), lambda g: (g / a.data,))


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

    def zero_grads(self) -> None:
        for p in self.params.values():
            p.grad[...] = 0.0

    def param_count(self) -> int:
        return sum(p.size for p in self.params.values())

    def snapshot(self) -> dict[str, Array]:
        return {name: p.values.copy() for name, p in self.params.items()}

    def restore(self, snap: dict[str, Array]) -> None:
        for name, values in snap.items():
            self.params[name].values[...] = values

    def save(self, path: str) -> None:
        save_checkpoint(self, path)

    @classmethod
    def load(cls, path: str) -> "ModelState":
        return load_checkpoint(path)


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


def gru_cell(p: GRUParams, x: Var, h: Var) -> Var:
    """One GRU step: ``h' = (1 - z) * h + z * h_cand``.

    With all-zero weights this collapses to ``0.5 * h`` (z = 0.5, candidate 0).
    """
    z = sigmoid(add(dense(p.wz, None, x), dense(p.uz, p.bz, h)))
    r = sigmoid(add(dense(p.wr, None, x), dense(p.ur, p.br, h)))
    cand = tanh(add(dense(p.wh, None, x), dense(p.uh, p.bh, mul(r, h))))
    return add(mul(sub(1.0, z), h), mul(z, cand))


def gru_sequence(p: GRUParams, xs, mask) -> Var:
    """Final hidden state [B,D] of a masked GRU run over ``xs`` [B,L,I].

    Same cell as :func:`gru_cell`, starting from h = 0; where ``mask`` [B,L]
    is 0 the step keeps the row's previous h.  The whole run is one tape node
    used by training and inference alike.  The input projection of every
    step is one matmul and only the recurrence loops; the forward caches, per
    step, h_prev, [z, r], r * h_prev and the candidate.  The VJP is
    backpropagation through time; the gradients of each weight matrix and of
    ``xs`` are one matmul each over all steps.
    """
    xs = _as_var(xs)
    keep = np.asarray(mask, dtype=bool)
    if xs.data.ndim != 3 or keep.shape != xs.data.shape[:2]:
        raise ValueError("a GRU run expects xs [B,L,I] and mask [B,L]")
    # gates stacked z, r, h: w [3D,I], u [3D,D], b [3D]
    w, u, b = (np.concatenate([getattr(p, t + g).data for g in "zrh"]) for t in "wub")
    B, L, I = xs.data.shape
    D = u.shape[1]
    xp = (xs.data.reshape(B * L, I) @ w.T + b).reshape(B, L, 3 * D)
    u_zr, u_h = u[: 2 * D].T, u[2 * D :].T
    h = np.zeros((B, D))
    hs, zrs, rhs, cs = (np.empty((B, L, k * D)) for k in (1, 2, 1, 1))
    for t in range(L):
        zr = _sigmoid(xp[:, t, : 2 * D] + h @ u_zr)
        z = zr[:, :D]
        rh = zr[:, D:] * h
        c = np.tanh(xp[:, t, 2 * D :] + rh @ u_h)
        hs[:, t], zrs[:, t], rhs[:, t], cs[:, t] = h, zr, rh, c
        h = np.where(keep[:, t, None], (1.0 - z) * h + z * c, h)

    def vjp(g):
        dxp = np.empty((B, L, 3 * D))
        gh = g
        for t in range(L - 1, -1, -1):
            m = keep[:, t, None]
            gn = np.where(m, gh, 0.0)
            zr, c, hp = zrs[:, t], cs[:, t], hs[:, t]
            z, r = zr[:, :D], zr[:, D:]
            dcand = gn * z * (1.0 - c * c)
            drh = dcand @ u[2 * D :]
            dxp[:, t, :D] = gn * (c - hp)
            dxp[:, t, D : 2 * D] = drh * hp
            dxp[:, t, : 2 * D] *= zr * (1.0 - zr)
            dxp[:, t, 2 * D :] = dcand
            dprev = gn * (1.0 - z) + drh * r + dxp[:, t, : 2 * D] @ u[: 2 * D]
            gh = np.where(m, dprev, gh)
        flat = dxp.reshape(B * L, 3 * D)
        dw = flat.T @ xs.data.reshape(B * L, I)
        du_zr = flat[:, : 2 * D].T @ hs.reshape(B * L, D)
        du_h = flat[:, 2 * D :].T @ rhs.reshape(B * L, D)
        db = flat.sum(axis=0)
        dxs = (flat @ w).reshape(B, L, I)
        return (
            dxs,
            dw[:D], du_zr[:D], db[:D],
            dw[D : 2 * D], du_zr[D:], db[D : 2 * D],
            dw[2 * D :], du_h, db[2 * D :],
        )

    return Var(h, (xs, *p), vjp)


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


def finite_difference_check(
    forward: Callable[[ModelState], Var],
    state: ModelState,
    epsilon: float = 1e-5,
    num_coords: int = 150,
    rng_seed: int = 0,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``forward`` must be a deterministic scalar function of the state.  Errors
    are normalized by the largest sampled gradient magnitude so coordinates
    with negligible gradient do not dominate through rounding noise.
    """
    state.zero_grads()
    out = forward(state)
    if out.data.shape != ():
        raise ValueError("forward must return a scalar")
    if not np.isfinite(out.data):
        raise ValueError("forward produced a non-finite value")
    backward(out)
    analytic = {name: p.grad.copy() for name, p in state.params.items()}
    state.zero_grads()

    coords: list[tuple[str, int]] = []
    for name, p in state.params.items():
        coords.extend((name, i) for i in range(p.size))
    rng = np.random.Generator(np.random.PCG64(rng_seed))
    if len(coords) > num_coords:
        chosen = rng.choice(len(coords), size=num_coords, replace=False)
        coords = [coords[int(i)] for i in chosen]

    flat = {name: p.values.reshape(-1) for name, p in state.params.items()}
    denom = max(max(np.abs(a).max() for a in analytic.values()), 1e-12)
    worst = 0.0
    for name, i in coords:
        theta = flat[name][i]
        h = epsilon * max(1.0, abs(theta))
        flat[name][i] = theta + h
        f_plus = float(forward(state).data)
        flat[name][i] = theta - h
        f_minus = float(forward(state).data)
        flat[name][i] = theta
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise ValueError("forward produced a non-finite value during probing")
        numeric = (f_plus - f_minus) / (2.0 * h)
        a = analytic[name].reshape(-1)[i]
        worst = max(worst, abs(a - numeric) / denom)
    return worst


_CKPT_MAGIC = b"FDRECKPT1\n"


def save_checkpoint(state: ModelState, path: str) -> None:
    """Self-describing binary dump; byte-stable for identical states."""
    tensors = [
        {"name": name, "shape": list(p.shape)} for name, p in state.params.items()
    ]
    header = json.dumps(
        {"meta": state.meta, "seed": state.seed, "step": state.step, "tensors": tensors},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_CKPT_MAGIC)
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for p in state.params.values():
            fh.write(np.ascontiguousarray(p.values).astype("<f8").tobytes())


def load_checkpoint(path: str) -> ModelState:
    with open(path, "rb") as fh:
        magic = fh.read(len(_CKPT_MAGIC))
        if magic != _CKPT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint file")
        (hlen,) = struct.unpack("<Q", fh.read(8))
        header = json.loads(fh.read(hlen).decode("utf-8"))
        state = ModelState(seed=header["seed"])
        state.step = header["step"]
        state.meta = header["meta"]
        for spec in header["tensors"]:
            shape = tuple(spec["shape"])
            n = int(np.prod(shape)) if shape else 1
            raw = fh.read(8 * n)
            if len(raw) != 8 * n:
                raise ValueError(f"{path}: truncated tensor {spec['name']}")
            values = np.frombuffer(raw, dtype="<f8").reshape(shape).copy()
            state.params[spec["name"]] = ParamTensor(spec["name"], values)
            state.m[spec["name"]] = np.zeros(shape, dtype=np.float64)
            state.v[spec["name"]] = np.zeros(shape, dtype=np.float64)
    return state
