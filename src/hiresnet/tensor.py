"""Minimal N-d tensor with reverse-mode automatic differentiation.

Tensors wrap contiguous row-major numpy buffers (float32 for training,
float64 for gradient checking). Differentiable ops record nodes on an
explicit Tape; a node's parents always precede it, so backward is a single
reverse sweep over the append order. A tape and its live tensors belong to
one logical thread; detached tensors are plain immutable data.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

DEFAULT_DTYPE = np.float32

# debug switch: verify every forward op keeps finite values
CHECK_FINITE = False


class TapeError(RuntimeError):
    pass


class ShapeError(ValueError):
    pass


_TAPES: list["Tape"] = []  # innermost active tape last


class _Node:
    __slots__ = ("parents", "backward")

    def __init__(self, parents, backward):
        self.parents = parents      # tuple of parent node indices (None = constant input)
        self.backward = backward    # fn(upstream) -> per-parent grads; None for leaves


class Tape:
    """Append-only record of differentiable ops.

    Invariant: every parent of node i has index < i, so one reverse pass over
    the append order visits each node exactly once. A tape that has run
    backward() records nothing more; each step opens a new Tape. backward()
    unhooks the leaves, so parameters that outlive a step do not keep its
    consumed tape (and every array its closures saved) alive.

    Invariant: a backward closure captures arrays, shapes, dtypes and flags,
    never a Tensor. Every recorded output holds its tape, so a captured
    Tensor would close the cycle tape -> node -> closure -> Tensor -> tape,
    and the step's saved arrays would wait for the cycle collector. Without
    it the only references into a tape are its outputs' `_tape` fields, and
    refcounting frees the tape the moment the step's outputs go out of scope.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self.leaves: dict[int, "Tensor"] = {}
        self._consumed = False

    def __enter__(self):
        _TAPES.append(self)
        return self

    def __exit__(self, *exc):
        _TAPES.pop()
        return False

    def _push(self, node):
        if self._consumed:
            raise TapeError("tape already consumed by backward(); record on a new Tape")
        self.nodes.append(node)
        return len(self.nodes) - 1


def active_tape():
    return _TAPES[-1] if _TAPES else None


class Tensor:
    """Dense N-d array with an optional handle into the active tape."""

    __slots__ = ("data", "requires_grad", "grad", "_tape", "_node")

    def __init__(self, data, requires_grad=False):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(DEFAULT_DTYPE)
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._tape = None
        self._node = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        return f"Tensor(shape={tuple(self.shape)}, dtype={self.data.dtype}, grad={self.requires_grad})"

    # arithmetic sugar
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(_coerce(other, self), self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        return div(self, other)

    def __neg__(self):
        return mul(self, -1.0)

    def __pow__(self, p):
        return pow_scalar(self, p)

    def __matmul__(self, other):
        return matmul(self, other)

    def sum(self, axis=None, keepdims=False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims=False):
        return tmean(self, axis=axis, keepdims=keepdims)

    def reshape(self, shape):
        return reshape(self, shape)

    def transpose(self, axes):
        return transpose(self, axes)


def tensor_from(shape, values, dtype=None, requires_grad=False):
    """Build a tensor of `shape` from a flat row-major value list."""
    shape = tuple(int(s) for s in shape)
    arr = np.asarray(values, dtype=dtype if dtype is not None else DEFAULT_DTYPE).reshape(-1)
    if arr.size != math.prod(shape):
        raise ShapeError(f"{arr.size} values cannot fill shape {shape}")
    return Tensor(arr.reshape(shape), requires_grad=requires_grad)


def zeros(shape, dtype=DEFAULT_DTYPE, requires_grad=False):
    return Tensor(np.zeros(shape, dtype=dtype), requires_grad=requires_grad)


def ones(shape, dtype=DEFAULT_DTYPE, requires_grad=False):
    return Tensor(np.ones(shape, dtype=dtype), requires_grad=requires_grad)


# ---------------------------------------------------------------------------
# recording machinery


def _register_leaf(t, tape):
    idx = tape._push(_Node((), None))
    tape.leaves[idx] = t
    t._tape = tape
    t._node = idx
    return idx


def _record(out_data, inputs, backward):
    if CHECK_FINITE and np.issubdtype(out_data.dtype, np.floating):
        if not np.all(np.isfinite(out_data)):
            raise FloatingPointError("non-finite value produced by forward op")
    out = Tensor(out_data)
    tape = active_tape()
    if tape is None:
        return out
    parent_idx = []
    tracked = False
    for t in inputs:
        if isinstance(t, Tensor):
            if t._tape is tape and t._node is not None:
                parent_idx.append(t._node)
                tracked = True
                continue
            if t.requires_grad:
                parent_idx.append(_register_leaf(t, tape))
                tracked = True
                continue
        parent_idx.append(None)
    if not tracked:
        return out
    out._tape = tape
    out._node = tape._push(_Node(tuple(parent_idx), backward))
    return out


def backward(loss):
    """Reverse accumulation from a scalar loss; fills .grad on leaf tensors."""
    if not isinstance(loss, Tensor) or loss._node is None or loss._tape is None:
        raise TapeError("loss is not attached to a tape")
    if loss.data.size != 1:
        raise ShapeError("backward() requires a scalar loss")
    tape = loss._tape
    if tape._consumed:
        raise TapeError("tape already consumed by backward(); record on a new Tape")
    tape._consumed = True
    grads = [None] * len(tape.nodes)
    grads[loss._node] = np.ones_like(loss.data)
    for i in range(len(tape.nodes) - 1, -1, -1):
        g = grads[i]
        if g is None:
            continue
        node = tape.nodes[i]
        if node.backward is None:
            continue  # leaf
        for pi, pg in zip(node.parents, node.backward(g)):
            if pi is None or pg is None:
                continue
            grads[pi] = pg if grads[pi] is None else grads[pi] + pg
        grads[i] = None
    for idx, leaf in tape.leaves.items():
        g = grads[idx]
        if g is not None:
            leaf.grad = g if leaf.grad is None else leaf.grad + g
        leaf._tape = None
        leaf._node = None


def _coerce(x, like):
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=like.data.dtype))


def _unbroadcast(g, shape):
    """Sum a broadcast gradient back down to `shape`."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _check_broadcast(a, b):
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"incompatible shapes {a.shape} and {b.shape}") from None


# ---------------------------------------------------------------------------
# elementwise arithmetic


def add(a, b):
    b = _coerce(b, a)
    _check_broadcast(a.data, b.data)
    out = a.data + b.data
    sa, sb = a.data.shape, b.data.shape

    def bwd(g):
        return _unbroadcast(g, sa), _unbroadcast(g, sb)

    return _record(out, (a, b), bwd)


def sub(a, b):
    b = _coerce(b, a)
    _check_broadcast(a.data, b.data)
    out = a.data - b.data
    sa, sb = a.data.shape, b.data.shape

    def bwd(g):
        return _unbroadcast(g, sa), _unbroadcast(-g, sb)

    return _record(out, (a, b), bwd)


def mul(a, b):
    b = _coerce(b, a)
    _check_broadcast(a.data, b.data)
    ad, bd = a.data, b.data
    out = ad * bd

    def bwd(g):
        return _unbroadcast(g * bd, ad.shape), _unbroadcast(g * ad, bd.shape)

    return _record(out, (a, b), bwd)


def div(a, b):
    b = _coerce(b, a)
    _check_broadcast(a.data, b.data)
    ad, bd = a.data, b.data
    out = ad / bd

    def bwd(g):
        ga = _unbroadcast(g / bd, ad.shape)
        gb = _unbroadcast(-g * ad / (bd * bd), bd.shape)
        return ga, gb

    return _record(out, (a, b), bwd)


def pow_scalar(a, p):
    p = float(p)
    ad = a.data
    out = ad ** p

    def bwd(g):
        return (g * p * ad ** (p - 1.0),)

    return _record(out, (a,), bwd)


def exp(a):
    out = np.exp(a.data)

    def bwd(g):
        return (g * out,)

    return _record(out, (a,), bwd)


def log(a):
    ad = a.data
    out = np.log(ad)

    def bwd(g):
        return (g / ad,)

    return _record(out, (a,), bwd)


def sqrt(a):
    out = np.sqrt(a.data)

    def bwd(g):
        return (g * 0.5 / out,)

    return _record(out, (a,), bwd)


# ---------------------------------------------------------------------------
# activations (exact analytic gradients; GELU uses the tanh form)

_GELU_C = math.sqrt(2.0 / math.pi)


def relu(a):
    ad = a.data
    out = np.maximum(ad, 0)

    def bwd(g):
        return (g * (ad > 0),)

    return _record(out, (a,), bwd)


def _sigmoid_np(x):
    # stable in both tails: 1 / (1 + e^-x) for x >= 0, e^x / (1 + e^x) below
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def sigmoid(a):
    out = _sigmoid_np(a.data)

    def bwd(g):
        return (g * out * (1.0 - out),)

    return _record(out, (a,), bwd)


def silu(a):
    ad = a.data
    s = _sigmoid_np(ad)
    out = ad * s

    def bwd(g):
        return (g * s * (1.0 + ad * (1.0 - s)),)

    return _record(out, (a,), bwd)


def gelu(a):
    x = a.data
    inner = _GELU_C * (x + 0.044715 * (x * x * x))  # numpy has no fast power for 3
    t = np.tanh(inner)
    out = 0.5 * x * (1.0 + t)

    def bwd(g):
        d_inner = _GELU_C * (1.0 + 3 * 0.044715 * x ** 2)
        return (g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * d_inner),)

    return _record(out, (a,), bwd)


# ---------------------------------------------------------------------------
# reductions


def _expand_reduced(g, shape, axis, keepdims):
    if axis is None:
        return np.broadcast_to(g.reshape((1,) * len(shape)), shape)
    axes = axis if isinstance(axis, tuple) else (axis,)
    axes = tuple(ax % len(shape) for ax in axes)
    if not keepdims:
        for ax in sorted(axes):
            g = np.expand_dims(g, ax)
    return np.broadcast_to(g, shape)


def tsum(a, axis=None, keepdims=False):
    out = np.sum(a.data, axis=axis, keepdims=keepdims)
    sa = a.data.shape

    def bwd(g):
        return (_expand_reduced(g, sa, axis, keepdims),)

    return _record(np.asarray(out, dtype=a.data.dtype), (a,), bwd)


def tmean(a, axis=None, keepdims=False):
    out = np.mean(a.data, axis=axis, keepdims=keepdims)
    if axis is None:
        count = a.data.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = math.prod(a.data.shape[ax % a.data.ndim] for ax in axes)
    sa = a.data.shape

    def bwd(g):
        return (_expand_reduced(g / count, sa, axis, keepdims),)

    return _record(np.asarray(out, dtype=a.data.dtype), (a,), bwd)


# ---------------------------------------------------------------------------
# softmax family (max-subtraction stabilized)


def softmax(a, axis):
    m = np.max(a.data, axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    out = e / np.sum(e, axis=axis, keepdims=True)

    def bwd(g):
        dot = np.sum(g * out, axis=axis, keepdims=True)
        return (out * (g - dot),)

    return _record(out, (a,), bwd)


# window_attention builds exp(scores) in blocks of windows of at most
# this many bytes. 1 MiB holds a whole DESK call (512 windows, 2 heads,
# 16 tokens, float32) in one block. At 256 KiB a DESK eval step took ~10x
# the minor page faults (~450 against ~45 per step over a 10 s run).
_ATTN_BLOCK_BYTES = 1 << 20


def _exp_score_blocks(lhs, rhs):
    """Yield (windows, e) with e = exp(lhs @ rhs) for consecutive slices of
    the window axis, sized to _ATTN_BLOCK_BYTES. Every e is a view of one
    buffer that the next block overwrites."""
    b, rows, _ = lhs.shape
    t = rhs.shape[2]
    dtype = np.result_type(lhs, rhs)
    step = max(1, _ATTN_BLOCK_BYTES // max(1, rows * t * dtype.itemsize))
    buf = np.empty((min(step, b), rows, t), dtype)
    for start in range(0, b, step):
        windows = slice(start, min(start + step, b))
        e = buf[:windows.stop - start]
        np.matmul(lhs[windows], rhs[windows], out=e)
        np.exp(e, out=e)
        yield windows, e


def window_attention(x, q_w, q_b, k_w, v_w, v_b, out_w, out_b, window, heads,
                     return_attn=False):
    """Window multi-head self-attention over scalar tokens, inner skip
    included, as one op: x [N, C, H, W] in, the same shape out.

    x is cut into window x window tiles, channels folded into the batch axis:
    B windows of T = window² scalar tokens. q_w, q_b, k_w, v_w, v_b and out_w
    are flat [heads·d], d = head_dim, shared across channels and windows;
    out_b is [1]. Because the tokens are scalars, this reduces exactly to four
    per-head scalars, and the [B, T, heads·d] lift is never built:

      q_i·k_j / √d = (α x_i + γ) x_j + (terms constant in j),
        α = q_w·k_w / √d,  γ = q_b·k_w / √d

    Terms constant along the softmax axis cancel, so a key bias would have
    no effect and there is none. With u = α x_i + γ, head h attends with
    P_h = softmax_j(u_i x_j); its rows sum to 1, so the op returns

      x + merge(Σ_h β_h P_h x + δ),  β = v_w·out_w,  δ = Σ v_b·out_w + out_b

    and, with return_attn, P [B, heads, T, T] beside it as a constant tensor.

    The row max is exact without scanning the scores: the larger of
    u_i max(x) and u_i min(x). Tokens are centered per window first (softmax
    is invariant to that shift), which keeps the products small. Backward
    needs only P, r = P x and q = P x² (of the centered tokens):
    du = β g (q - r²), the token gradient is one P^T [β g, u β g, u β g r]
    product plus α du, and the gradients of α, γ, β and δ (Σ g) are chained
    by hand to the seven projections.

    e = exp(scores) is built in blocks of windows (_exp_score_blocks). The
    forward keeps only the moments e @ [1, x, x²]; the backward recomputes
    each block's e from the saved rank-2 factors, so no array of B·heads·T²
    elements outlives either pass. Each window is the same matmul as when e
    is built whole, so results do not depend on the block size.
    """
    proj = [p.data for p in (q_w, q_b, k_w, v_w, v_b, out_w)]
    hd = q_w.data.size
    if {p.shape for p in proj} != {(hd,)} or heads < 1 or hd % heads or out_b.data.shape != (1,):
        raise ShapeError(f"expected six [heads*head_dim] projections for {heads} heads and "
                         f"out_b (1,), got {[p.shape for p in proj]} and {out_b.data.shape}")
    n, c, h, w = x.data.shape
    if h % window or w % window:
        raise ShapeError(f"spatial dims {h}x{w} not divisible by window {window}")
    L, gh, gw, dh = window, h // window, w // window, hd // heads

    def cut(a):  # [N, C, H, W] -> [B, T]
        return a.reshape(n, c, gh, L, gw, L).transpose(0, 1, 2, 4, 3, 5).reshape(-1, L * L)

    def merge(a):  # [B, T] -> [N, C, H, W]
        return a.reshape(n, c, gh, gw, L, L).transpose(0, 1, 2, 4, 3, 5).reshape(n, c, h, w)

    qw, qb, kw, vw, vb, ow = (p.reshape(heads, dh) for p in proj)
    scale = 1.0 / math.sqrt(dh)
    al = np.sum(qw * kw, axis=-1) * scale
    ga = np.sum(qb * kw, axis=-1) * scale
    be = np.sum(vw * ow, axis=-1)
    delta = np.sum(vb * ow) + out_b.data
    tok = cut(x.data)
    b, t = tok.shape
    x_mean = tok.mean(axis=1, keepdims=True)
    xc = tok - x_mean                                                       # [B, T]
    u = al[:, None] * tok[:, None, :] + ga[:, None]                         # [B, H, T]
    row_max = np.maximum(u * xc.max(axis=1)[:, None, None], u * xc.min(axis=1)[:, None, None])
    # scores minus the row max, u_i xc_j - row_max_i, as one rank-2 product
    lhs = np.stack([u, -row_max], axis=-1).reshape(b, heads * t, 2)
    rhs = np.stack([xc, np.ones_like(xc)], axis=1)                          # [B, 2, T]
    # one pass over e yields the row sums and both moments: e @ [1, xc, xc^2]
    powers = np.stack([np.ones_like(xc), xc, xc * xc], axis=-1)             # [B, T, 3]
    mom = np.empty((b, heads * t, 3), np.result_type(lhs, rhs))
    p_full = np.empty((b, heads * t, t), mom.dtype) if return_attn else None
    for windows, e in _exp_score_blocks(lhs, rhs):
        np.matmul(e, powers[windows], out=mom[windows])
        if return_attn:
            p_full[windows] = e
    mom = mom.reshape(b, heads, t, 3)
    z = mom[..., 0]
    r = mom[..., 1] / z                                                     # P xc
    y = np.einsum("h,bht->bt", be, r) + be.sum() * x_mean + delta

    def bwd(g):
        gt = cut(g)
        bg = be[:, None] * gt[:, None, :]                                   # [B, H, T]
        du = bg * (mom[..., 2] / z - r * r)
        ubg = u * bg
        # P^T V = e^T (V / z), contracting heads and query tokens in one matmul
        v = (np.stack([bg, ubg, ubg * r], axis=-1) / z[..., None]).reshape(b, heads * t, 3)
        pv = np.empty((b, t, 3), np.result_type(lhs, rhs, v))
        for windows, e in _exp_score_blocks(lhs, rhs):
            np.matmul(np.swapaxes(e, 1, 2), v[windows], out=pv[windows])
        gx = pv[..., 0] + xc * pv[..., 1] - pv[..., 2] + np.einsum("h,bht->bt", al, du)
        g_al = np.einsum("bht,bt->h", du, tok)[:, None] * scale
        g_ga = du.sum(axis=(0, 2))[:, None] * scale
        g_be = (np.einsum("bt,bht->h", gt, r) + np.sum(gt * x_mean))[:, None]
        g_de = np.sum(g)
        per_head = (g_al * kw, g_ga * kw, g_al * qw + g_ga * qb, g_be * ow, g_de * ow,
                    g_be * vw + g_de * vb)
        return merge(gx) + g, *(p.reshape(-1) for p in per_head), np.reshape(g_de, (1,))

    out = _record(merge(y) + x.data, (x, q_w, q_b, k_w, v_w, v_b, out_w, out_b), bwd)
    if return_attn:
        return out, Tensor(p_full.reshape(b, heads, t, t) / z[..., None])
    return out


def log_softmax(a, axis):
    m = np.max(a.data, axis=axis, keepdims=True)
    s = a.data - m
    out = s - np.log(np.sum(np.exp(s), axis=axis, keepdims=True))

    def bwd(g):
        return (g - np.exp(out) * np.sum(g, axis=axis, keepdims=True),)

    return _record(out, (a,), bwd)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a, b):
    b = _coerce(b, a)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError("matmul requires tensors of rank >= 2")
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ShapeError(f"inner dims differ: {a.data.shape} x {b.data.shape}")
    ad, bd = a.data, b.data
    out = ad @ bd

    def bwd(g):
        ga = _unbroadcast(g @ np.swapaxes(bd, -1, -2), ad.shape)
        gb = _unbroadcast(np.swapaxes(ad, -1, -2) @ g, bd.shape)
        return ga, gb

    return _record(out, (a, b), bwd)


# ---------------------------------------------------------------------------
# layout ops (pass-through gradients, bit-exact round trips)


def reshape(a, shape):
    shape = tuple(int(s) for s in shape)
    if shape.count(-1) == 1:
        known = -math.prod(shape)  # product of the fixed extents
        if known <= 0 or a.data.size % known:
            raise ShapeError(f"cannot reshape {a.data.shape} to {shape}")
        shape = tuple(a.data.size // known if s == -1 else s for s in shape)
    if math.prod(shape) != a.data.size:
        raise ShapeError(f"cannot reshape {a.data.shape} to {shape}")
    out = a.data.reshape(shape)
    sa = a.data.shape

    def bwd(g):
        return (g.reshape(sa),)

    return _record(out, (a,), bwd)


def transpose(a, axes):
    out = np.transpose(a.data, axes)  # rejects repeated and out-of-range axes
    inv = np.argsort([ax % a.data.ndim for ax in axes])

    def bwd(g):
        return (np.transpose(g, inv),)

    return _record(np.ascontiguousarray(out), (a,), bwd)


def concat(tensors, axis):
    tensors = list(tensors)
    ref = tensors[0].data.shape
    if not -len(ref) <= axis < len(ref):
        raise ShapeError(f"concat axis {axis} out of range for shape {ref}")
    axis %= len(ref)
    for t in tensors[1:]:
        s = t.data.shape
        if len(s) != len(ref) or any(i != axis and s[i] != ref[i] for i in range(len(ref))):
            raise ShapeError(f"concat shapes disagree off axis {axis}: {ref} vs {s}")
    out = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def bwd(g):
        return tuple(np.split(g, splits, axis=axis))

    return _record(out, tuple(tensors), bwd)


def slice_axis(a, axis, start, stop):
    if not -a.data.ndim <= axis < a.data.ndim:
        raise ShapeError(f"slice axis {axis} out of range for shape {a.data.shape}")
    axis %= a.data.ndim
    idx = tuple(slice(start, stop) if i == axis else slice(None) for i in range(a.data.ndim))
    out = a.data[idx]
    sa, dtype = a.data.shape, a.data.dtype

    def bwd(g):
        full = np.zeros(sa, dtype=dtype)
        full[idx] = g
        return (full,)

    return _record(np.ascontiguousarray(out), (a,), bwd)


# ---------------------------------------------------------------------------
# convolution: one patch matrix [N, groups, cg·kh·kw, Ho·Wo] per product, read
# through a strided view of the zero-framed input, meets the weight in one
# batched matmul. Forward and grad_w use the input's patches; the backward
# rebuilds them rather than keep them on the tape. At stride 1, grad_x is the
# same correlation of the upstream gradient with the spatially flipped kernel,
# in and out channels swapped within each group (Dumoulin & Visin,
# arXiv:1603.07285). At stride > 1 that form would correlate a zero-dilated
# gradient, whose patch matrix is several MB for the image conv, so grad_x
# stays one matmul and one slice-add per tap.


@dataclass(frozen=True)
class ConvSpec:
    """Grouped 2-d cross-correlation with zero padding.

    groups == in_channels == out_channels selects depth-wise convolution.
    """

    out_channels: int
    kernel: tuple
    stride: tuple = (1, 1)
    padding: tuple = (0, 0)
    groups: int = 1


def _patches(x, kernel, stride, padding, groups):
    """[N, groups, cg·kh·kw, Ho·Wo] patch matrix of x zero-padded by `padding`:
    row (ci, i, j) of group gi holds x[:, gi·cg + ci] at (i + sh·r, j + sw·s)
    in column (r, s). A copy, or a read-only view of x where the reshape needs
    none, as for a 1x1 stride-1 kernel without padding.

    The strided view [N, C, kh, kw, Ho, Wo] is made by the ndarray constructor
    on x's buffer. `np.lib.stride_tricks.as_strided` would make the same view
    through `x.__array_interface__`, at ~4 µs a call; in moco_pretrain that
    read also left one 0.9 MB Python-heap block allocated for the rest of
    the process."""
    n, c, h, w = x.shape
    (kh, kw), (sh, sw), (ph, pw) = kernel, stride, padding
    if ph or pw:
        framed = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=x.dtype)
        framed[:, :, ph:ph + h, pw:pw + w] = x
        x = framed
    else:
        x = np.ascontiguousarray(x)  # the buffer of a strided gradient is not one block
    ho = (x.shape[2] - kh) // sh + 1
    wo = (x.shape[3] - kw) // sw + 1
    sn, sc, sy, sx = x.strides
    view = np.ndarray((n, c, kh, kw, ho, wo), x.dtype, x, 0, (sn, sc, sy, sx, sh * sy, sw * sx))
    view.flags.writeable = False
    return view.reshape(n, groups, c // groups * kh * kw, ho * wo)


def conv2d(x, weight, bias, spec):
    n, c, h, w = x.data.shape
    kh, kw = spec.kernel
    sh, sw = spec.stride
    ph, pw = spec.padding
    groups = spec.groups
    oc = spec.out_channels
    if c % groups or oc % groups:
        raise ShapeError(f"channels {c}->{oc} not divisible by groups {groups}")
    cg, ocg = c // groups, oc // groups
    if weight.data.shape != (oc, cg, kh, kw):
        raise ShapeError(f"weight shape {weight.data.shape} != {(oc, cg, kh, kw)}")
    if h + 2 * ph < kh or w + 2 * pw < kw:
        raise ShapeError(f"kernel {kh}x{kw} does not fit input {h}x{w} with padding {ph},{pw}")
    # floor semantics: trailing rows/cols that do not fill a window are dropped
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (w + 2 * pw - kw) // sw + 1
    xd = x.data
    wg = weight.data.reshape(groups, ocg, cg * kh * kw)
    out = (wg @ _patches(xd, spec.kernel, spec.stride, spec.padding, groups)).reshape(n, oc, ho, wo)
    has_bias = bias is not None
    if has_bias:
        out += bias.data.reshape(1, oc, 1, 1)

    def bwd(g):
        gg = g.reshape(n, groups, ocg, ho * wo)
        grad_w = (gg @ np.swapaxes(_patches(xd, spec.kernel, spec.stride, spec.padding, groups),
                                   2, 3)).sum(axis=0).reshape(oc, cg, kh, kw)
        if sh == sw == 1:
            # a padding above k - 1 leaves a border of g that no input pixel reaches
            ch, cw = max(ph - kh + 1, 0), max(pw - kw + 1, 0)
            flipped = (wg.reshape(groups, ocg, cg, kh, kw)[..., ::-1, ::-1]
                       .swapaxes(1, 2).reshape(groups, cg, ocg * kh * kw))
            gx = (flipped @ _patches(g[:, :, ch:ho - ch, cw:wo - cw], spec.kernel, (1, 1),
                                     (kh - 1 - ph + ch, kw - 1 - pw + cw), groups)
                  ).reshape(n, c, h, w)
        else:
            gcols = (np.swapaxes(wg, 1, 2) @ gg).reshape(n, c, kh, kw, ho, wo)
            gxp = np.zeros((n, c, h + 2 * ph, w + 2 * pw), dtype=g.dtype)
            for i in range(kh):
                for j in range(kw):
                    gxp[:, :, i:i + sh * ho:sh, j:j + sw * wo:sw] += gcols[:, :, i, j]
            gx = gxp[:, :, ph:ph + h, pw:pw + w]
        return (gx, grad_w, g.sum(axis=(0, 2, 3))) if has_bias else (gx, grad_w)

    return _record(out, (x, weight, bias) if has_bias else (x, weight), bwd)


# ---------------------------------------------------------------------------
# batch normalization (per channel over N,H,W; differentiable through stats)

BN_EPS = 1e-5
BN_MOMENTUM = 0.1


def batchnorm2d(x, gamma, beta, running_mean, running_var, training):
    """running_mean / running_var are plain arrays. A training call sets each, in
    place, to (1 − BN_MOMENTUM)·old + BN_MOMENTUM·batch, for the batch mean and the
    biased batch variance (÷ N·H·W, the one that normalizes the batch; not ÷ N·H·W − 1)."""
    n, c, h, w = x.data.shape
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ShapeError(f"gamma/beta must have shape ({c},)")
    if training:
        mu = x.data.mean(axis=(0, 2, 3))
        var = x.data.var(axis=(0, 2, 3))
        running_mean *= 1.0 - BN_MOMENTUM
        running_mean += BN_MOMENTUM * mu
        running_var *= 1.0 - BN_MOMENTUM
        running_var += BN_MOMENTUM * var
    else:
        mu, var = running_mean, running_var

    inv = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (x.data - mu.reshape(1, c, 1, 1)) * inv.reshape(1, c, 1, 1)
    gm = gamma.data.reshape(1, c, 1, 1)
    out = gm * xhat + beta.data.reshape(1, c, 1, 1)

    def bwd(g):
        g_gamma = np.sum(g * xhat, axis=(0, 2, 3))
        g_beta = np.sum(g, axis=(0, 2, 3))
        dxhat = g * gm
        if training:
            m = n * h * w
            s1 = np.sum(dxhat, axis=(0, 2, 3)).reshape(1, c, 1, 1)
            s2 = np.sum(dxhat * xhat, axis=(0, 2, 3)).reshape(1, c, 1, 1)
            gx = (inv.reshape(1, c, 1, 1) / m) * (m * dxhat - s1 - xhat * s2)
        else:
            gx = dxhat * inv.reshape(1, c, 1, 1)
        return gx, g_gamma, g_beta

    return _record(out.astype(x.data.dtype, copy=False), (x, gamma, beta), bwd)


# ---------------------------------------------------------------------------
# resampling / pooling


@functools.cache
def bilinear_matrix(n_in, n_out, dtype):
    """[n_out, n_in] half-pixel (align_corners=False) interpolation weights:
    row i blends the two samples around (i + 0.5) n_in / n_out - 0.5, each
    index clamped to [0, n_in - 1], so a border row repeats its edge sample.
    Computed in float64 and cast to `dtype`. Cached and shared by every
    caller, so the array is not writable."""
    rows = np.arange(n_out)
    src = (rows + 0.5) / (n_out / n_in) - 0.5
    lo = np.floor(src).astype(np.int64)
    frac = src - lo
    a = np.zeros((n_out, n_in))
    a[rows, np.clip(lo, 0, n_in - 1)] = 1.0 - frac
    a[rows, np.clip(lo + 1, 0, n_in - 1)] += frac
    a = a.astype(dtype)
    a.setflags(write=False)
    return a


def bilinear_upsample(x, scale):
    """Separable half-pixel upsampling, A_h · x · A_wᵀ per (n, c) map."""
    scale = int(scale)
    if scale < 1:
        raise ValueError(f"scale must be >= 1, got {scale}")
    n, c, h, w = x.data.shape
    a_h = bilinear_matrix(h, h * scale, x.data.dtype)
    a_w = bilinear_matrix(w, w * scale, x.data.dtype)
    out = a_h @ x.data @ a_w.T

    def bwd(g):
        return (a_h.T @ g @ a_w,)

    return _record(out, (x,), bwd)


def global_avg_pool(x):
    return tmean(x, axis=(2, 3))
