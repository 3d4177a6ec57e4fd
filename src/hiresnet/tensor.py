"""Minimal N-d tensor with reverse-mode automatic differentiation.

Tensors wrap contiguous row-major numpy buffers (float32 for training,
float64 for gradient checking). Differentiable ops record nodes on an
explicit Tape; a node's parents always precede it, so backward is a single
reverse sweep over the append order. A tape and its live tensors belong to
one logical thread; detached tensors are plain immutable data.
"""

from __future__ import annotations

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

    def __init__(self, data, requires_grad=False, dtype=None):
        arr = np.asarray(data)
        if dtype is not None:
            arr = arr.astype(dtype, copy=False)
        elif arr.dtype not in (np.float32, np.float64):
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

    def item(self):
        return float(self.data.reshape(-1)[0])

    def detach(self):
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self):
        self.grad = None

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
    # stable in both tails
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


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
        return (_expand_reduced(g, sa, axis, keepdims) / count,)

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


def scalar_token_attention(tok, alpha, gamma, beta, return_attn=False):
    """Multi-head softmax attention over windows of scalar tokens, fused.

    tok is [B, T]; alpha, gamma, beta are per-head [H]. With u = alpha*x_i +
    gamma, head h attends with P = softmax_j(u_i x_j) and the result is
    y_i = sum_h beta_h (P x)_i, shape [B, T]. With return_attn, P
    [B, H, T, T] is returned beside y as a constant tensor.

    The row max is exact without scanning the scores: u_i max(x) when
    u_i >= 0, else u_i min(x). Tokens are centered per window first (softmax
    is invariant to that shift), which keeps the products small. Backward
    needs only P, r = P x and q = P x^2 (taken of the centered tokens):
    du = beta g (q - r^2), and dx is one P^T [beta g, u beta g, u beta g r]
    product plus alpha du.
    """
    x = tok.data
    if x.ndim != 2 or any(p.data.ndim != 1 for p in (alpha, gamma, beta)):
        raise ShapeError(f"expected tokens [B, T] and per-head vectors, got {x.shape}")
    b, t = x.shape
    heads = alpha.data.shape[0]
    if gamma.data.shape != (heads,) or beta.data.shape != (heads,):
        raise ShapeError("alpha, gamma and beta must have one entry per head")
    al, ga, be = alpha.data, gamma.data, beta.data
    x_mean = x.mean(axis=1, keepdims=True)
    xc = x - x_mean                                                         # [B, T]
    u = al[:, None] * x[:, None, :] + ga[:, None]                           # [B, H, T]
    x_sel = np.where(u >= 0, xc.max(axis=1)[:, None, None], xc.min(axis=1)[:, None, None])
    # scores minus the row max, u_i xc_j - u_i x_sel, as one rank-2 product
    lhs = np.stack([u, -u * x_sel], axis=-1).reshape(b, heads * t, 2)
    e = lhs @ np.stack([xc, np.ones_like(xc)], axis=1)                      # [B, H*T, T]
    np.exp(e, out=e)
    # one pass over e yields the row sums and both moments: e @ [1, xc, xc^2]
    mom = (e @ np.stack([np.ones_like(xc), xc, xc * xc], axis=-1)).reshape(b, heads, t, 3)
    z = mom[..., 0]
    r = mom[..., 1] / z                                                     # P xc
    out = np.einsum("h,bht->bt", be, r) + be.sum() * x_mean

    def bwd(g):
        bg = be[:, None] * g[:, None, :]                                    # [B, H, T]
        du = bg * (mom[..., 2] / z - r * r)
        ubg = u * bg
        # P^T V = e^T (V / z), contracting heads and query tokens in one matmul
        v = (np.stack([bg, ubg, ubg * r], axis=-1) / z[..., None]).reshape(b, heads * t, 3)
        pv = np.swapaxes(e, 1, 2) @ v                                       # [B, T, 3]
        gx = pv[..., 0] + xc * pv[..., 1] - pv[..., 2] + np.einsum("h,bht->bt", al, du)
        g_alpha = np.einsum("bht,bt->h", du, x)
        g_gamma = du.sum(axis=(0, 2))
        g_beta = np.einsum("bt,bht->h", g, r) + np.sum(g * x_mean)
        return gx, g_alpha, g_gamma, g_beta

    y = _record(out, (tok, alpha, gamma, beta), bwd)
    if return_attn:
        return y, Tensor(e.reshape(b, heads, t, t) / z[..., None])
    return y


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
    axes = tuple(axes)
    inv = np.argsort(axes)
    out = np.transpose(a.data, axes)

    def bwd(g):
        return (np.transpose(g, inv),)

    return _record(np.ascontiguousarray(out), (a,), bwd)


def concat(tensors, axis):
    tensors = list(tensors)
    ref = tensors[0].data.shape
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
    axis = axis % a.data.ndim
    idx = tuple(slice(start, stop) if i == axis else slice(None) for i in range(a.data.ndim))
    out = a.data[idx]
    sa, dtype = a.data.shape, a.data.dtype

    def bwd(g):
        full = np.zeros(sa, dtype=dtype)
        full[idx] = g
        return (full,)

    return _record(np.ascontiguousarray(out), (a,), bwd)


# ---------------------------------------------------------------------------
# convolution: a patch matrix [N, groups, cg·kh·kw, Ho·Wo] of the kh·kw strided
# tap views of the padded input meets the weight in one batched matmul, for
# every ConvSpec. The backward rebuilds the patch matrix for grad_w rather than
# keep it on the tape, and adds grad_x back with one slice-add per tap.


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


def conv2d(x, weight, bias, spec):
    n, c, h, w = x.data.shape
    kh, kw = spec.kernel
    sh, sw = spec.stride
    ph, pw = spec.padding
    groups = spec.groups
    oc = spec.out_channels
    if c % groups or oc % groups:
        raise ShapeError(f"channels {c}->{oc} not divisible by groups {groups}")
    if weight.data.shape != (oc, c // groups, kh, kw):
        raise ShapeError(f"weight shape {weight.data.shape} != {(oc, c // groups, kh, kw)}")
    if h + 2 * ph < kh or w + 2 * pw < kw:
        raise ShapeError(f"kernel {kh}x{kw} does not fit input {h}x{w} with padding {ph},{pw}")
    # floor semantics: trailing rows/cols that do not fill a window are dropped
    ho = (h + 2 * ph - kh) // sh + 1
    wo = (w + 2 * pw - kw) // sw + 1
    k = c // groups * kh * kw
    xp = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw))) if (ph or pw) else x.data
    wg = weight.data.reshape(groups, oc // groups, k)
    taps = [(slice(None), slice(None), slice(i, i + sh * ho, sh), slice(j, j + sw * wo, sw))
            for i in range(kh) for j in range(kw)]

    def patches():
        return np.stack([xp[t] for t in taps], axis=2).reshape(n, groups, k, ho * wo)

    out = (wg @ patches()).reshape(n, oc, ho, wo)
    has_bias = bias is not None
    if has_bias:
        out = out + bias.data.reshape(1, oc, 1, 1)

    def bwd(g):
        gg = g.reshape(n, groups, oc // groups, ho * wo)
        grad_w = (gg @ np.swapaxes(patches(), 2, 3)).sum(axis=0).reshape(oc, -1, kh, kw)
        gcols = (np.swapaxes(wg, 1, 2) @ gg).reshape(n, c, kh * kw, ho, wo)
        gxp = np.zeros(xp.shape, dtype=g.dtype)
        for ti, t in enumerate(taps):
            gxp[t] += gcols[:, :, ti]
        gx = gxp[:, :, ph:ph + h, pw:pw + w]
        return (gx, grad_w, g.sum(axis=(0, 2, 3))) if has_bias else (gx, grad_w)

    return _record(out, (x, weight, bias) if has_bias else (x, weight), bwd)


# ---------------------------------------------------------------------------
# batch normalization (per channel over N,H,W; differentiable through stats)


def batchnorm2d(x, gamma, beta, running_mean, running_var, training, eps=1e-5, momentum=0.1):
    """running_mean / running_var are plain buffers, updated in place in training mode."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    n, c, h, w = x.data.shape
    if gamma.data.shape != (c,) or beta.data.shape != (c,):
        raise ShapeError(f"gamma/beta must have shape ({c},)")
    rm = running_mean.data if isinstance(running_mean, Tensor) else running_mean
    rv = running_var.data if isinstance(running_var, Tensor) else running_var

    if training:
        mu = x.data.mean(axis=(0, 2, 3))
        var = x.data.var(axis=(0, 2, 3))
        rm *= 1.0 - momentum
        rm += momentum * mu
        rv *= 1.0 - momentum
        rv += momentum * var
    else:
        mu, var = rm, rv

    inv = 1.0 / np.sqrt(var + eps)
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


def bilinear_matrix(n_in, n_out):
    """[n_out, n_in] half-pixel (align_corners=False) interpolation weights:
    row i blends the two samples around (i + 0.5) n_in / n_out - 0.5, each
    index clamped to [0, n_in - 1], so a border row repeats its edge sample."""
    rows = np.arange(n_out)
    src = (rows + 0.5) / (n_out / n_in) - 0.5
    lo = np.floor(src).astype(np.int64)
    frac = src - lo
    a = np.zeros((n_out, n_in))
    a[rows, np.clip(lo, 0, n_in - 1)] = 1.0 - frac
    a[rows, np.clip(lo + 1, 0, n_in - 1)] += frac
    return a


def bilinear_upsample(x, scale):
    """Separable half-pixel upsampling, A_h · x · A_wᵀ per (n, c) map."""
    scale = int(scale)
    if scale < 1:
        raise ValueError(f"scale must be >= 1, got {scale}")
    n, c, h, w = x.data.shape
    a_h = bilinear_matrix(h, h * scale).astype(x.data.dtype)
    a_w = bilinear_matrix(w, w * scale).astype(x.data.dtype)
    out = a_h @ x.data @ a_w.T

    def bwd(g):
        return (a_h.T @ g @ a_w,)

    return _record(out, (x,), bwd)


def global_avg_pool(x):
    n, c, h, w = x.data.shape
    out = x.data.mean(axis=(2, 3))

    def bwd(g):
        return (np.broadcast_to(g[:, :, None, None] / (h * w), (n, c, h, w)),)

    return _record(out, (x,), bwd)
