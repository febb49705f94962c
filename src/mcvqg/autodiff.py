"""Dense float64 tensors with a reverse-mode tape.

Shape discipline is strict: binary elementwise ops demand identical shapes
and the only implicit broadcast is scalar * tensor (`scale`). Batched
variants (`affine` with a row bias, `row_softmax`, `lrt_sample`, ...) are
separate named operations so that shape bugs surface as errors instead of
silent broadcasting. Values are checked finite on construction, which makes
NaN/Inf an error at the op that produced it.

A `Tape` records one forward pass while active (`with Tape() as t:`) and is
consumed by a single `backward` call; the next forward pass gets a fresh
tape. Gradients accumulate on every requires_grad tensor touched by the
sweep — leaves and intermediates alike — which is what lets the two-pass
refinement scheme read d(loss)/d(mixed encoding) off an interior node.

Most ops record one node per output tensor. A fused op may record one node
for several outputs: `lstm_step` returns (h', c') as a single two-output
node whose hand-written backward takes both output gradients at once. Such
a node counts as one in `len(tape)`.
"""

import threading
from contextlib import contextmanager

import numpy as np

from .rng import RngStream


class ShapeError(ValueError):
    pass


class NonFiniteError(ValueError):
    """An operation produced inf/nan — the computation has left the domain
    the gradients are valid on."""


class Tensor:
    """A dense float64 array plus an optional gradient buffer.

    Data is immutable by convention once constructed (the optimizer and the
    finite-difference driver mutate parameter `.data` in place *between*
    forward passes, never during one).
    """

    __slots__ = ("data", "requires_grad", "grad")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise NonFiniteError(f"non-finite values in tensor of shape {arr.shape}")
        self.data = arr
        self.requires_grad = bool(requires_grad)
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    @property
    def size(self):
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.data.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


_LOCAL = threading.local()


def _stack():
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = []
        _LOCAL.stack = stack
    return stack


def active_tape():
    stack = _stack()
    return stack[-1] if stack else None


class Tape:
    """Ordered record of one forward pass, confined to one thread.

    Reset rule: `backward` may run once per tape; afterwards the tape is
    closed and both recording and a second backward raise. Build a new tape
    per forward pass (the two-pass refinement builds two tapes per step).

    A node is (output, backward_fn) or, for a multi-output op, (tuple of
    outputs, backward_fn). The sweep calls a single-output node's backward
    with its output's gradient, and a multi-output node's backward once
    with the list of its outputs' gradients (None for an output that got
    none), provided at least one of them is set.
    """

    def __init__(self):
        self._nodes = []
        self._closed = False

    def __enter__(self):
        _stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        stack = _stack()
        if not stack or stack[-1] is not self:
            raise RuntimeError("tape stack corrupted: exiting a tape that is not active")
        stack.pop()
        return False

    def __len__(self):
        return len(self._nodes)

    def _record(self, out, backward_fn):
        if self._closed:
            raise RuntimeError("tape already consumed by backward()")
        self._nodes.append((out, backward_fn))

    def backward(self, loss: Tensor):
        """Seed d(loss)=1 and sweep the tape once in reverse topological
        order, accumulating gradients onto every requires_grad tensor."""
        if self._closed:
            raise RuntimeError("tape already consumed by backward()")
        if loss.data.size != 1:
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
        if not loss.requires_grad:
            raise RuntimeError("backward on a detached graph: loss does not require grad")
        self._closed = True
        loss.grad = np.ones_like(loss.data)
        for out, backward_fn in reversed(self._nodes):
            if type(out) is tuple:
                grads = [o.grad for o in out]
                if any(g is not None for g in grads):
                    backward_fn(grads)
            else:
                g = out.grad
                if g is not None:
                    backward_fn(g)


@contextmanager
def no_grad():
    """Suspend recording (generation / finite-difference evaluations)."""
    _stack().append(None)
    try:
        yield
    finally:
        _stack().pop()


def _accum(t: Tensor, g):
    if not t.requires_grad:
        return
    if t.grad is None:
        # a copy, never an alias: `add` hands the same g to both inputs
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad += g


def _make(out_data, inputs, backward_fn) -> Tensor:
    out = Tensor(out_data)
    tape = active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape._record(out, backward_fn)
    return out


def _check_same_shape(name, a, b):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{name}: shapes differ: {a.data.shape} vs {b.data.shape}")


# ---------------------------------------------------------------------------
# core ops

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product for the (m,k)x(k,n), (k,)x(k,n) and (m,k)x(k,) cases."""
    ad, bd = a.data, b.data
    if ad.ndim not in (1, 2) or bd.ndim not in (1, 2) or (ad.ndim == 1 and bd.ndim == 1):
        raise ShapeError(f"matmul: unsupported ranks: {ad.shape} x {bd.shape}")
    if ad.shape[-1] != bd.shape[0]:
        raise ShapeError(f"matmul: inner extents disagree: {ad.shape} x {bd.shape}")
    out = ad @ bd

    def backward_fn(g):
        if ad.ndim == 2 and bd.ndim == 2:
            _accum(a, g @ bd.T)
            _accum(b, ad.T @ g)
        elif ad.ndim == 1:            # (k,) @ (k,n) -> (n,)
            _accum(a, bd @ g)
            _accum(b, np.outer(ad, g))
        else:                         # (m,k) @ (k,) -> (m,)
            _accum(a, np.outer(g, bd))
            _accum(b, ad.T @ g)

    return _make(out, (a, b), backward_fn)


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("add", a, b)

    def backward_fn(g):
        _accum(a, g)
        _accum(b, g)

    return _make(a.data + b.data, (a, b), backward_fn)


def sub(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("sub", a, b)

    def backward_fn(g):
        _accum(a, g)
        _accum(b, -g)

    return _make(a.data - b.data, (a, b), backward_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape("mul", a, b)

    def backward_fn(g):
        _accum(a, g * b.data)
        _accum(b, g * a.data)

    return _make(a.data * b.data, (a, b), backward_fn)


def scale(a: Tensor, c: float) -> Tensor:
    """The one scalar broadcast: c * tensor."""
    c = float(c)

    def backward_fn(g):
        _accum(a, g * c)

    return _make(a.data * c, (a,), backward_fn)


def tanh(a: Tensor) -> Tensor:
    t = np.tanh(a.data)

    def backward_fn(g):
        _accum(a, g * (1.0 - t * t))

    return _make(t, (a,), backward_fn)


def _sigmoid(x):
    """1 / (1 + e^-x) for x >= 0 and e^x / (1 + e^x) below, without overflow."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def exp(a: Tensor) -> Tensor:
    e = np.exp(a.data)

    def backward_fn(g):
        _accum(a, g * e)

    return _make(e, (a,), backward_fn)


def softplus(a: Tensor) -> Tensor:
    """log(1 + e^x), computed stably; strictly positive output."""
    x = a.data
    out = np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))
    s = _sigmoid(x)

    def backward_fn(g):
        _accum(a, g * s)

    return _make(out, (a,), backward_fn)


# ---------------------------------------------------------------------------
# batched / structural ops

def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w + b with the bias added to every row (explicit, not broadcast)."""
    xd, wd, bd = x.data, w.data, b.data
    if wd.ndim != 2 or bd.ndim != 1 or wd.shape[1] != bd.shape[0]:
        raise ShapeError(f"affine: bad weight/bias shapes {wd.shape} / {bd.shape}")
    if xd.ndim not in (1, 2) or xd.shape[-1] != wd.shape[0]:
        raise ShapeError(f"affine: input {xd.shape} does not match weight {wd.shape}")
    out = xd @ wd + bd

    def backward_fn(g):
        _accum(x, g @ wd.T)
        if xd.ndim == 2:
            _accum(w, xd.T @ g)
            _accum(b, g.sum(axis=0))
        else:
            _accum(w, np.outer(xd, g))
            _accum(b, g)

    return _make(out, (x, w, b), backward_fn)


def add_rowvec(x: Tensor, v: Tensor) -> Tensor:
    """Add a length-n vector to every row of a (B, n) matrix."""
    if x.data.ndim != 2 or v.data.ndim != 1 or x.data.shape[1] != v.data.shape[0]:
        raise ShapeError(f"add_rowvec: {x.data.shape} + {v.data.shape}")

    def backward_fn(g):
        _accum(x, g)
        _accum(v, g.sum(axis=0))

    return _make(x.data + v.data, (x, v), backward_fn)


def concat(parts, axis: int) -> Tensor:
    """Join 2-D tensors along axis 0 (stacked rows) or 1 (side-by-side
    columns); the other extent must agree."""
    parts = list(parts)
    if axis not in (0, 1):
        raise ShapeError(f"concat: axis must be 0 or 1, got {axis}")
    if not parts:
        raise ShapeError("concat: empty input")
    if any(p.data.ndim != 2 for p in parts):
        raise ShapeError("concat: all parts must be 2-D")
    other = 1 - axis
    if any(p.data.shape[other] != parts[0].data.shape[other] for p in parts):
        raise ShapeError(f"concat: extents across axis {axis} differ: "
                         f"{[p.data.shape for p in parts]}")
    bounds = np.cumsum([0] + [p.data.shape[axis] for p in parts])
    out = np.concatenate([p.data for p in parts], axis=axis)

    def backward_fn(g):
        for p, lo, hi in zip(parts, bounds[:-1], bounds[1:]):
            _accum(p, g[lo:hi] if axis == 0 else g[:, lo:hi])

    return _make(out, tuple(parts), backward_fn)


def slice_cols(x: Tensor, start: int, stop: int) -> Tensor:
    if x.data.ndim != 2 or not (0 <= start < stop <= x.data.shape[1]):
        raise ShapeError(f"slice_cols: [{start}:{stop}] of {x.data.shape}")

    def backward_fn(g):
        buf = np.zeros_like(x.data)
        buf[:, start:stop] = g
        _accum(x, buf)

    return _make(x.data[:, start:stop].copy(), (x,), backward_fn)


def reshape(x: Tensor, shape) -> Tensor:
    shape = tuple(shape)

    def backward_fn(g):
        _accum(x, g.reshape(x.data.shape))

    return _make(x.data.reshape(shape), (x,), backward_fn)


def gather_rows(table: Tensor, ids) -> Tensor:
    """Select rows of a (V, n) table by integer id — embedding lookup."""
    ids = np.asarray(ids, dtype=np.int64)
    if table.data.ndim != 2 or ids.ndim != 1:
        raise ShapeError(f"gather_rows: table {table.data.shape}, ids {ids.shape}")
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise IndexError(f"gather_rows: id out of range for table of {table.data.shape[0]} rows")

    def backward_fn(g):
        if not table.requires_grad:
            return
        if table.grad is None:
            table.grad = np.zeros_like(table.data)
        np.add.at(table.grad, ids, g)

    return _make(table.data[ids], (table,), backward_fn)


def gather_cols(x: Tensor, ids) -> Tensor:
    """Per-row column pick: out[b] = x[b, ids[b]]."""
    ids = np.asarray(ids, dtype=np.int64)
    if x.data.ndim != 2 or ids.shape != (x.data.shape[0],):
        raise ShapeError(f"gather_cols: x {x.data.shape}, ids {ids.shape}")
    rows = np.arange(x.data.shape[0])

    def backward_fn(g):
        buf = np.zeros_like(x.data)
        buf[rows, ids] = g
        _accum(x, buf)

    return _make(x.data[rows, ids], (x,), backward_fn)


def dot_rows(a: Tensor, b: Tensor) -> Tensor:
    """Row-wise inner product of two (B, n) matrices -> (B,)."""
    _check_same_shape("dot_rows", a, b)
    if a.data.ndim != 2:
        raise ShapeError(f"dot_rows: need 2-D inputs, got {a.data.shape}")

    def backward_fn(g):
        _accum(a, g[:, None] * b.data)
        _accum(b, g[:, None] * a.data)

    return _make((a.data * b.data).sum(axis=1), (a, b), backward_fn)


def colscale(x: Tensor, s: Tensor) -> Tensor:
    """Scale row b of a (B, n) matrix by scalar s[b]."""
    if x.data.ndim != 2 or s.data.shape != (x.data.shape[0],):
        raise ShapeError(f"colscale: x {x.data.shape}, s {s.data.shape}")

    def backward_fn(g):
        _accum(x, g * s.data[:, None])
        _accum(s, (g * x.data).sum(axis=1))

    return _make(x.data * s.data[:, None], (x, s), backward_fn)


def row_softmax(x: Tensor) -> Tensor:
    """Row-wise softmax with max subtraction; rows sum to 1."""
    if x.data.ndim != 2 or x.data.shape[1] == 0:
        raise ShapeError(f"row_softmax: need 2-D input with columns, got {x.data.shape}")
    z = x.data - x.data.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)

    def backward_fn(g):
        _accum(x, p * (g - (g * p).sum(axis=1, keepdims=True)))

    return _make(p, (x,), backward_fn)


def row_logsumexp(x: Tensor) -> Tensor:
    """Row-wise log-sum-exp of a (B, n) matrix -> (B,)."""
    if x.data.ndim != 2 or x.data.shape[1] == 0:
        raise ShapeError(f"row_logsumexp: need 2-D input with columns, got {x.data.shape}")
    m = x.data.max(axis=1)
    e = np.exp(x.data - m[:, None])
    s = e.sum(axis=1)
    p = e / s[:, None]

    def backward_fn(g):
        _accum(x, g[:, None] * p)

    return _make(m + np.log(s), (x,), backward_fn)


def log_mean_exp_rows(x: Tensor) -> Tensor:
    """Column-wise log((1/T) sum_t exp(x[t, :])) for a (T, B) matrix -> (B,).

    Computed as m + log(s/T) so that T identical rows give back the row
    bitwise (s/T == 1.0 exactly, log(1.0) == 0.0) — the zero-variance
    degeneracy of the MC-averaged likelihood is then exact.
    """
    if x.data.ndim != 2:
        raise ShapeError(f"log_mean_exp_rows: need 2-D input, got {x.data.shape}")
    reps = x.data.shape[0]
    m = x.data.max(axis=0)
    e = np.exp(x.data - m[None, :])
    s = e.sum(axis=0)
    w = e / s[None, :]

    def backward_fn(g):
        _accum(x, w * g[None, :])

    return _make(m + np.log(s / reps), (x,), backward_fn)


def sum_all(x: Tensor) -> Tensor:
    def backward_fn(g):
        _accum(x, np.full_like(x.data, float(g)))

    return _make(np.asarray(x.data.sum()), (x,), backward_fn)


def masked_step_sum(x: Tensor, mask) -> Tensor:
    """Masked sum of a time-major (L*B,) vector under a (B, L) 0/1 mask,
    where x[t*B + b] is step t of row b and is weighted by mask[b, t].

    Each step's B products are summed first, then the step sums are added
    in step order, which is the order of summing one step at a time.
    """
    mask = np.asarray(mask, dtype=np.float64)
    if mask.ndim != 2 or x.data.shape != (mask.size,):
        raise ShapeError(f"masked_step_sum: x {x.data.shape}, mask {mask.shape}")
    weights = np.ascontiguousarray(mask.T)
    steps = (x.data.reshape(weights.shape) * weights).sum(axis=1)

    def backward_fn(g):
        _accum(x, np.full_like(x.data, float(g)) * weights.reshape(-1))

    return _make(np.cumsum(steps)[-1], (x,), backward_fn)


def lrt_sample(y: Tensor, v: Tensor, eps) -> Tensor:
    """Logit reparameterization of T noise draws: tile(y) + eps * tile(sqrt(v)).

    y and v are (N, V) logits and variances; eps is (T*N, V) and row
    s*N + n of the result is draw s of row n. One tape node: the backward
    keeps only y's and v's data, sqrt(v) and eps. The square root's
    derivative is infinite at v = 0, so keep differentiable variances
    strictly positive (a softplus upstream does).
    """
    eps = np.asarray(eps, dtype=np.float64)
    _check_same_shape("lrt_sample", y, v)
    rows, cols = y.data.shape if y.data.ndim == 2 else (0, -1)
    if (rows == 0 or eps.ndim != 2 or eps.shape[1] != cols or not eps.shape[0]
            or eps.shape[0] % rows):
        raise ShapeError(f"lrt_sample: eps {eps.shape} is not a stack of logits "
                         f"{y.data.shape}")
    if np.any(v.data < 0):
        raise ValueError("lrt_sample: variances must be nonnegative")
    reps = eps.shape[0] // rows
    r = np.sqrt(v.data)

    def backward_fn(g):
        _accum(y, g.reshape(reps, rows, cols).sum(axis=0))
        _accum(v, (g * eps).reshape(reps, rows, cols).sum(axis=0) * 0.5 / r)

    return _make(np.tile(y.data, (reps, 1)) + eps * np.tile(r, (reps, 1)), (y, v),
                 backward_fn)


# ---------------------------------------------------------------------------
# fused LSTM step

def lstm_step(x: Tensor, h: Tensor, c: Tensor, wx: Tensor, wh: Tensor, b: Tensor,
              gate_mask=None, out_mask=None, keep=None):
    """One LSTM timestep as one two-output tape node; returns (h', c').

    pre = (x @ wx + b) + h @ wh on (B, in) / (B, n) rows, times gate_mask
    (B, 4n), with the gates packed as input, forget, output, candidate;
    c' = f*c + i*g and h' = o*tanh(c'), times out_mask (B, n). A (B, 1)
    `keep` column blends both outputs with the old state, new*keep +
    old*(1 - keep), so a row with keep 0 passes (h, c) through unchanged.
    Masks and keep are arrays without gradient; None means none. The
    forward evaluates in the order of the same step composed from single
    ops (affine, matmul, add, dropout, sigmoid, tanh, mul), and the
    backward adds into each input in that composition's sweep order, so
    values and gradients equal the composed step's bit for bit. A
    non-finite preactivation raises NonFiniteError here.
    """
    xd, hd, cd, wxd, whd, bd = x.data, h.data, c.data, wx.data, wh.data, b.data
    rows, n = hd.shape if hd.ndim == 2 else (-1, -1)
    if (xd.ndim != 2 or xd.shape[0] != rows or cd.shape != hd.shape
            or wxd.shape != (xd.shape[1], 4 * n) or whd.shape != (n, 4 * n)
            or bd.shape != (4 * n,)):
        raise ShapeError(f"lstm_step: x {xd.shape}, h {hd.shape}, c {cd.shape}, "
                         f"wx {wxd.shape}, wh {whd.shape}, b {bd.shape}")
    for name, arr, shape in (("gate_mask", gate_mask, (rows, 4 * n)),
                             ("out_mask", out_mask, hd.shape), ("keep", keep, (rows, 1))):
        if arr is not None and np.shape(arr) != shape:
            raise ShapeError(f"lstm_step: {name} {np.shape(arr)} does not match {shape}")
    pre = xd @ wxd + bd + hd @ whd
    if gate_mask is not None:
        pre = pre * gate_mask
    if not np.isfinite(pre).all():
        raise NonFiniteError(f"non-finite LSTM preactivation of shape {pre.shape}")
    s = _sigmoid(pre[:, :3 * n])
    gi, gf, go = s[:, :n], s[:, n:2 * n], s[:, 2 * n:]
    gc = np.tanh(pre[:, 3 * n:])
    c_new = gf * cd + gi * gc
    tc = np.tanh(c_new)
    h_new = go * tc
    if out_mask is not None:
        h_new = h_new * out_mask
    if keep is not None:
        keep = np.asarray(keep, dtype=np.float64)
        drop = 1.0 - keep
        h_out = h_new * keep + hd * drop
        c_out = c_new * keep + cd * drop
    else:
        h_out, c_out = h_new, c_new

    def backward_fn(grads):
        g_h, g_c = grads     # of h' and c'; None for an output that got none
        if g_c is not None and keep is not None:
            _accum(c, g_c * drop)
            g_c = g_c * keep
        if g_h is None:
            g_go = np.zeros_like(tc)
        else:
            if keep is not None:
                _accum(h, g_h * drop)
                g_h = g_h * keep
            if out_mask is not None:
                g_h = g_h * out_mask
            g_go = g_h * tc
            g_tanh = g_h * go * (1.0 - tc * tc)
            g_c = g_tanh if g_c is None else g_c + g_tanh
        # from here g_c is the gradient of the unblended c_new
        g_s = np.concatenate([g_c * gc, g_c * cd, g_go], axis=1)
        g_pre = np.concatenate([g_s * s * (1.0 - s), g_c * gi * (1.0 - gc * gc)], axis=1)
        if gate_mask is not None:
            g_pre = g_pre * gate_mask
        _accum(c, g_c * gf)
        _accum(h, g_pre @ whd.T)
        _accum(wh, hd.T @ g_pre)
        _accum(x, g_pre @ wxd.T)
        _accum(wx, xd.T @ g_pre)
        _accum(b, g_pre.sum(axis=0))

    outs = (Tensor(h_out), Tensor(c_out))
    tape = active_tape()
    if tape is not None and any(t.requires_grad for t in (x, h, c, wx, wh, b)):
        for out in outs:
            out.requires_grad = True
        tape._record(outs, backward_fn)
    return outs


# ---------------------------------------------------------------------------
# dropout

def dropout_mask(shape, p: float, kind: str, rng: RngStream):
    """Multiplicative dropout mask: inverted Bernoulli (values 0 or 1/(1-p))
    or mean-one Gaussian with variance p/(1-p)."""
    if not (0.0 <= p < 1.0):
        raise ValueError(f"dropout rate must be in [0, 1), got {p}")
    if kind == "bernoulli":
        keep = 1.0 - p
        return (rng.uniform(shape) < keep).astype(np.float64) / keep
    if kind == "gaussian":
        return 1.0 + np.sqrt(p / (1.0 - p)) * rng.normal(shape)
    raise ValueError(f"unknown dropout kind: {kind!r}")


def dropout(x: Tensor, p: float, kind: str, rng: RngStream) -> Tensor:
    """Multiplicative dropout with a fresh mask drawn from `rng`; p=0
    returns the input unchanged."""
    if not (0.0 <= p < 1.0):
        raise ValueError(f"dropout rate must be in [0, 1), got {p}")
    if p == 0.0:
        return x
    mask = dropout_mask(x.data.shape, p, kind, rng)

    def backward_fn(g):
        _accum(x, g * mask)

    return _make(x.data * mask, (x,), backward_fn)


# ---------------------------------------------------------------------------
# gradient checking

def grad_check(f, params, h: float = 1e-5, abs_floor: float = 1e-8,
               rel_floor: float = 1e-3) -> float:
    """Compare tape gradients of scalar `f()` against central differences.

    `f` must be deterministic across calls (freeze any stochasticity via
    counter-based streams before checking). Returns the worst relative error
    |fd - ad| / max(|fd|, |ad|, floor) over every coordinate of every
    parameter, with floor = max(abs_floor, rel_floor * max|grad|) guarding
    the denominator so near-zero-gradient coordinates measure against the
    gradient's overall scale instead of dividing FD noise by ~0.
    """
    if isinstance(params, Tensor):
        params = [params]
    params = list(params)
    for p in params:
        p.zero_grad()
    with Tape() as tape:
        loss = f()
    tape.backward(loss)
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in params]

    fd = [np.zeros_like(p.data) for p in params]
    with no_grad():
        for p, buf in zip(params, fd):
            flat = p.data.reshape(-1)
            out = buf.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + h
                f_plus = f().item()
                flat[i] = orig - h
                f_minus = f().item()
                flat[i] = orig
                out[i] = (f_plus - f_minus) / (2.0 * h)

    gmax = 0.0
    for a, b in zip(analytic, fd):
        if a.size:
            gmax = max(gmax, float(np.abs(a).max()), float(np.abs(b).max()))
    floor = max(abs_floor, rel_floor * gmax)

    worst = 0.0
    for a, b in zip(analytic, fd):
        if not a.size:
            continue
        denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
        worst = max(worst, float((np.abs(a - b) / denom).max()))
    return worst
