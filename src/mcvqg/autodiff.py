"""Dense float64 tensors with a reverse-mode tape.

Shape discipline is strict: binary elementwise ops demand identical shapes
and the only implicit broadcast is scalar * tensor (`scale`). Batched
variants (`affine` with a row bias, `row_softmax`, `masked_step_sum`, ...)
are separate named operations so that shape bugs surface as errors instead
of silent broadcasting. Values are not checked for finiteness here: inputs
are checked where they enter (`load_dataset`, `load_checkpoint`) and
computed losses and gradients where they would be applied (`train_model`).

A `Tape` records ops while active (`with Tape() as t:`, resumed by `with t:`)
and may be swept by `backward` more than once. Each sweep first clears the
gradients of the tape's node outputs, so an interior gradient holds the
latest sweep while leaves go on accumulating: the MUMC step reads d(loss)/
d(mixed encoding) off an interior node, extends the tape and sweeps again.

Most ops record one node per output tensor. A fused op replaces a chain
with one node and a hand-written backward: `lrt_log_likelihood` scores a
whole noise slab, `row_dots` and `weighted_sum` take every moderator cue at
once, and `lstm_step` returns (h', c') as one two-output node whose backward
takes both output gradients. It counts as one in `len(tape)`.

`lstm_sequence` runs a whole LSTM sequence as one node: the caption and tag
encoders and the teacher-forced decoder each record one, where they used to
record a gather and a step per token (and the decoder two heads per token
and two joins). It keeps the per-step (B, .) matmuls and repeats the
per-step chain's sweep, so values and gradients stay bit for bit those of
the chain. The decoder's logit and variance heads sit inside its node: each
step's hidden state sums three gradients (next step, variance head, logit
head) in that order, and a separate heads node would sum them in another
and move the last bits. `lstm_step` and `lstm_sequence` share one forward
and one backward helper, and `softplus` shares its formula with the
sequence's variance head.
"""

import threading
from contextlib import contextmanager

import numpy as np


class ShapeError(ValueError):
    pass


class Tensor:
    """A dense float64 array plus an optional gradient buffer.

    Data is immutable by convention once constructed (the optimizer and the
    finite-difference driver mutate parameter `.data` in place *between*
    forward passes, never during one). A parameter's `grad_out` is its view
    of its model's gradient vector, where a sweep puts its first gradient."""

    __slots__ = ("data", "requires_grad", "grad", "grad_out")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = self.grad_out = None

    @property
    def shape(self):
        return self.data.shape

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
    """Ordered record of a forward computation, confined to one thread.

    Reset rule: each `backward` sets `grad = None` on every recorded node
    output (each output of a tuple node too), then seeds the loss and sweeps.
    Leaves are never node outputs, so their gradients accumulate across
    sweeps. Recording may resume after a sweep (`with tape:`).

    A node is (output, backward_fn) or, for a multi-output op, (tuple of
    outputs, backward_fn). The sweep calls a single-output node's backward
    with its output's gradient, and a multi-output node's backward once
    with the list of its outputs' gradients (None for an output that got
    none), provided at least one of them is set.
    """

    def __init__(self):
        self._nodes = []

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
        self._nodes.append((out, backward_fn))

    def backward(self, loss: Tensor):
        """Clear the node outputs' gradients, seed d(loss)=1 and sweep once in
        reverse topological order, accumulating onto every requires_grad tensor."""
        if loss.data.size != 1:
            raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
        if not loss.requires_grad:
            raise RuntimeError("backward on a detached graph: loss does not require grad")
        for out, _ in self._nodes:
            for o in (out if type(out) is tuple else (out,)):
                o.grad = None
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
    if t.grad is not None:
        t.grad += g
    elif t.grad_out is None:   # a copy, never an alias: `add` hands g to both inputs
        t.grad = np.array(g, dtype=np.float64)
    else:
        t.grad_out[...] = g
        t.grad = t.grad_out


def _make(out_data, inputs, backward_fn):
    """Wrap the output array as a tensor and, while a tape records and an
    input requires grad, record it as one node. A tuple of arrays becomes a
    tuple of tensors recorded as one multi-output node."""
    multi = type(out_data) is tuple
    out = tuple(Tensor(d) for d in out_data) if multi else Tensor(out_data)
    tape = active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        for o in (out if multi else (out,)):
            o.requires_grad = True
        tape._record(out, backward_fn)
    return out


def _check_same_shape(name, a, b):
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{name}: shapes differ: {a.data.shape} vs {b.data.shape}")


# ---------------------------------------------------------------------------
# core ops

def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product of a (m, k) and a (k, n) tensor."""
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2:
        raise ShapeError(f"matmul: operands must be 2-D: {ad.shape} x {bd.shape}")
    if ad.shape[1] != bd.shape[0]:
        raise ShapeError(f"matmul: inner extents disagree: {ad.shape} x {bd.shape}")
    out = ad @ bd

    def backward_fn(g):
        _accum(a, g @ bd.T)
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

    def backward_fn(g):
        _accum(a, g * _sigmoid(x))

    return _make(_softplus(x), (a,), backward_fn)


def _softplus(x):
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


# ---------------------------------------------------------------------------
# batched / structural ops

def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """(B, k) @ (k, n) + b with the bias added to every row (explicit, not
    broadcast)."""
    xd, wd, bd = x.data, w.data, b.data
    if wd.ndim != 2 or bd.ndim != 1 or wd.shape[1] != bd.shape[0]:
        raise ShapeError(f"affine: bad weight/bias shapes {wd.shape} / {bd.shape}")
    if xd.ndim != 2 or xd.shape[1] != wd.shape[0]:
        raise ShapeError(f"affine: input {xd.shape} does not match weight {wd.shape}")
    out = xd @ wd + bd

    def backward_fn(g):
        _accum(x, g @ wd.T)
        _accum(w, xd.T @ g)
        _accum(b, g.sum(axis=0))

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


def _check_ids(op: str, ids: np.ndarray, count: int, what: str):
    """Raise IndexError unless every id is in [0, count): numpy would wrap a
    negative id to an entry from the end."""
    if ids.size and (ids.min() < 0 or ids.max() >= count):
        raise IndexError(f"{op}: id out of range for {count} {what}")


def gather_rows(table: Tensor, ids) -> Tensor:
    """Select rows of a (V, n) table by integer id: the embedding lookup of
    a step whose token is not known in advance (free-running decoding)."""
    ids = np.asarray(ids, dtype=np.int64)
    if table.data.ndim != 2 or ids.ndim != 1:
        raise ShapeError(f"gather_rows: table {table.data.shape}, ids {ids.shape}")
    _check_ids("gather_rows", ids, table.data.shape[0], "rows")

    def backward_fn(g):
        if not table.requires_grad:
            return
        if table.grad is None:
            _accum(table, np.zeros_like(table.data))
        np.add.at(table.grad, ids, g)

    return _make(table.data[ids], (table,), backward_fn)


def gather_cols(x: Tensor, ids) -> Tensor:
    """Per-row column pick: out[b] = x[b, ids[b]]."""
    ids = np.asarray(ids, dtype=np.int64)
    if x.data.ndim != 2 or ids.shape != (x.data.shape[0],):
        raise ShapeError(f"gather_cols: x {x.data.shape}, ids {ids.shape}")
    _check_ids("gather_cols", ids, x.data.shape[1], "columns")
    rows = np.arange(x.data.shape[0])

    def backward_fn(g):
        buf = np.zeros_like(x.data)
        buf[rows, ids] = g
        _accum(x, buf)

    return _make(x.data[rows, ids], (x,), backward_fn)


def _check_parts(op: str, parts, shape):
    if len(shape) != 2 or not parts or any(p.data.shape != shape for p in parts):
        raise ShapeError(f"{op}: parts {[p.data.shape for p in parts]}, expected {shape}")


def row_dots(parts, g: Tensor) -> Tensor:
    """(B, k) gate scores: column j is the row-wise inner product of the
    (B, n) matrices parts[j] and g. The backward runs from the last part to
    the first, the order in which a sweep meets k per-part nodes, so g's
    gradient sums in that order."""
    parts, gd = list(parts), g.data
    _check_parts("row_dots", parts, gd.shape)
    out = np.stack([(p.data * gd).sum(axis=1) for p in parts], axis=1)

    def backward_fn(grad):
        for j in reversed(range(len(parts))):
            _accum(parts[j], grad[:, j:j + 1] * gd)
            _accum(g, grad[:, j:j + 1] * parts[j].data)

    return _make(out, (*parts, g), backward_fn)


def weighted_sum(w: Tensor, parts) -> Tensor:
    """sum_j w[:, j] * parts[j] over (B, n) parts, added in part order. The
    backward adds into w one zero-padded column per part, last part first,
    which is how k single-column terms sum, bit for bit."""
    parts, wd = list(parts), w.data
    _check_parts("weighted_sum", parts, parts[0].data.shape if parts else ())
    if wd.shape != (parts[0].data.shape[0], len(parts)):
        raise ShapeError(f"weighted_sum: weights {wd.shape} for {len(parts)} parts")
    out = parts[0].data * wd[:, :1]
    for j in range(1, len(parts)):
        out = out + parts[j].data * wd[:, j:j + 1]

    def backward_fn(g):
        for j in reversed(range(len(parts))):
            _accum(parts[j], g * wd[:, j:j + 1])
            buf = np.zeros_like(wd)
            buf[:, j] = (g * parts[j].data).sum(axis=1)
            _accum(w, buf)

    return _make(out, (w, *parts), backward_fn)


def row_softmax(x: Tensor) -> Tensor:
    """Row-wise softmax with max subtraction; rows sum to 1."""
    if x.data.ndim != 2 or x.data.shape[1] == 0:
        raise ShapeError(f"row_softmax: need 2-D input with columns, got {x.data.shape}")
    z = x.data - x.data.max(axis=1)[:, None]
    e = np.exp(z)
    p = e / e.sum(axis=1)[:, None]

    def backward_fn(g):
        _accum(x, p * (g - (g * p).sum(axis=1)[:, None]))

    return _make(p, (x,), backward_fn)


def row_logsumexp(x: Tensor) -> Tensor:
    """Row-wise log-sum-exp of a (B, n) matrix -> (B,)."""
    if x.data.ndim != 2 or x.data.shape[1] == 0:
        raise ShapeError(f"row_logsumexp: need 2-D input with columns, got {x.data.shape}")
    m = x.data.max(axis=1)
    e = np.exp(x.data - m[:, None])
    s = e.sum(axis=1)

    def backward_fn(g):
        _accum(x, g[:, None] * (e / s[:, None]))

    return _make(m + np.log(s), (x,), backward_fn)


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


def lrt_log_likelihood(y: Tensor, v: Tensor, eps, targets) -> Tensor:
    """log((1/T) sum_s softmax(y + eps[s] * sqrt(v))[target]) per row as one
    tape node: y, v are (N, V) logits and variances, eps (T, N, V), targets (N,).

    The draws' softmax is built in their own buffer, and the backward keeps
    eps, sqrt(v), the softmax and the average's weights. The average is
    m + log(s/T), so T identical draws give the draw back bitwise (v = 0 is
    the plain log-likelihood). d sqrt(v) is infinite at v = 0, so keep
    differentiable variances positive (a softplus upstream does).
    """
    eps = np.ascontiguousarray(eps, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.int64)
    _check_same_shape("lrt_log_likelihood", y, v)
    rows = targets.shape[0] if targets.ndim == 1 else -1
    if (y.data.ndim != 2 or y.data.shape[0] != rows or not y.data.size
            or eps.ndim != 3 or not eps.shape[0] or eps.shape[1:] != y.data.shape):
        raise ShapeError(f"lrt_log_likelihood: logits {y.data.shape}, eps {eps.shape}, "
                         f"targets {targets.shape}")
    _check_ids("lrt_log_likelihood", targets, y.data.shape[1], "columns")
    if np.any(v.data < 0):
        raise ValueError("lrt_log_likelihood: variances must be nonnegative")
    reps = eps.shape[0]
    r = np.sqrt(v.data)
    idx = np.arange(rows)
    p = eps * r
    p += y.data                    # draw s of row n: y[n] + eps[s, n] * r[n]
    lp = p[:, idx, targets].copy()   # C order: the average sums axis 0 row by row
    flat = p.reshape(-1, p.shape[2])
    m = flat.max(axis=1)
    flat -= m[:, None]
    np.exp(flat, out=flat)
    s = flat.sum(axis=1)
    flat /= s[:, None]             # p is now each draw's softmax
    lp -= (m + np.log(s)).reshape(reps, rows)
    top = lp.max(axis=0)
    e = np.exp(lp - top[None, :])
    total = e.sum(axis=0)
    w = e / total[None, :]

    def backward_fn(g):
        g_lp = w * g[None, :]
        g_draws = p * (-g_lp)[:, :, None]
        g_draws += 0.0             # -0.0 to +0.0, as adding a zero buffer does
        g_draws[:, idx, targets] += g_lp
        _accum(y, g_draws.sum(axis=0))
        g_draws *= eps
        _accum(v, g_draws.sum(axis=0) * 0.5 / r)

    return _make(top + np.log(total / reps), (y, v), backward_fn)


# ---------------------------------------------------------------------------
# fused LSTM step and sequence

def _check_lstm(op, x_shape, hd, cd, wxd, whd, bd, gate_mask, out_mask):
    """Raise ShapeError unless h, c, the weights and the masks fit a step
    whose input is x_shape = (rows, width)."""
    n = hd.shape[1] if hd.ndim == 2 else -1
    if (len(x_shape) != 2 or hd.shape != (x_shape[0], n) or cd.shape != hd.shape
            or wxd.shape != (x_shape[1], 4 * n) or whd.shape != (n, 4 * n)
            or bd.shape != (4 * n,)):
        raise ShapeError(f"{op}: x {x_shape}, h {hd.shape}, c {cd.shape}, "
                         f"wx {wxd.shape}, wh {whd.shape}, b {bd.shape}")
    for name, arr, shape in (("gate_mask", gate_mask, (x_shape[0], 4 * n)),
                             ("out_mask", out_mask, hd.shape)):
        if arr is not None and np.shape(arr) != shape:
            raise ShapeError(f"{op}: {name} {np.shape(arr)} does not match {shape}")


def _lstm_forward(xd, hd, cd, wxd, whd, bd, gate_mask, out_mask):
    """One step's (h', c') and the activations (s, gc, tc) its backward reads."""
    n = hd.shape[1]
    pre = xd @ wxd + bd + hd @ whd
    if gate_mask is not None:
        pre = pre * gate_mask
    s = _sigmoid(pre[:, :3 * n])
    gc = np.tanh(pre[:, 3 * n:])
    c_new = s[:, n:2 * n] * cd + s[:, :n] * gc
    tc = np.tanh(c_new)
    h_new = s[:, 2 * n:] * tc
    if out_mask is not None:
        h_new = h_new * out_mask
    return h_new, c_new, (s, gc, tc)


def _lstm_backward(g_h, g_c, cd, acts, gate_mask, out_mask):
    """(d pre, d c) of one step from the gradients of its h' and c', either
    of which may be None, but not both."""
    s, gc, tc = acts
    n = tc.shape[1]
    if g_h is None:
        g_go = np.zeros_like(tc)
    else:
        if out_mask is not None:
            g_h = g_h * out_mask
        g_go = g_h * tc
        g_tanh = g_h * s[:, 2 * n:] * (1.0 - tc * tc)
        g_c = g_tanh if g_c is None else g_c + g_tanh
    g_s = np.concatenate([g_c * gc, g_c * cd, g_go], axis=1)
    g_pre = np.concatenate([g_s * s * (1.0 - s), g_c * s[:, :n] * (1.0 - gc * gc)], axis=1)
    if gate_mask is not None:
        g_pre = g_pre * gate_mask
    return g_pre, g_c * s[:, n:2 * n]


def lstm_step(x: Tensor, h: Tensor, c: Tensor, wx: Tensor, wh: Tensor, b: Tensor,
              gate_mask=None, out_mask=None):
    """One LSTM timestep as one two-output tape node; returns (h', c').

    pre = (x @ wx + b) + h @ wh on (B, in) / (B, n) rows, times gate_mask
    (B, 4n), with the gates packed as input, forget, output, candidate;
    c' = f*c + i*g and h' = o*tanh(c'), times out_mask (B, n). The masks
    are arrays without gradient; None means none. The forward evaluates in
    the order of the same step composed from single ops (affine, matmul,
    add, dropout, sigmoid, tanh, mul), and the backward adds into each input
    in that composition's sweep order, so values and gradients equal the
    composed step's bit for bit. A known sequence runs as one
    `lstm_sequence` node instead; this op serves the step that consumes an
    encoding and free-running decoding, whose next input is not known yet.
    """
    xd, hd, cd, wxd, whd = x.data, h.data, c.data, wx.data, wh.data
    _check_lstm("lstm_step", xd.shape, hd, cd, wxd, whd, b.data, gate_mask, out_mask)
    h_new, c_new, acts = _lstm_forward(xd, hd, cd, wxd, whd, b.data, gate_mask, out_mask)

    def backward_fn(grads):     # of h' and c'; None for an output that got none
        g_pre, g_c = _lstm_backward(*grads, cd, acts, gate_mask, out_mask)
        _accum(c, g_c)
        _accum(h, g_pre @ whd.T)
        _accum(wh, hd.T @ g_pre)
        _accum(x, g_pre @ wxd.T)
        _accum(wx, xd.T @ g_pre)
        _accum(b, g_pre.sum(axis=0))

    return _make((h_new, c_new), (x, h, c, wx, wh, b), backward_fn)


def lstm_sequence(table: Tensor, ids, wx: Tensor, wh: Tensor, b: Tensor, gate_mask=None,
                  out_mask=None, state=None, pick=None, heads=None):
    """A whole LSTM sequence as one tape node.

    Step t reads rows ids[t] of the (V, in) embedding table, for (L, B)
    time-major ids, and runs the gate math of `lstm_step` under the same
    masks at every step, from state = (h, c) tensors or from zeros. The
    node returns:
    - with heads = (w_out, b_out, w_var, b_var): (logits, variances), each
      time-major (L*B, V), row t*B + b for step t of row b: h_t @ w_out +
      b_out and softplus(h_t @ w_var + b_var), as one two-output node;
    - otherwise the (B, n) hidden state of row b after step pick[b], or
      after the last step when pick is None.

    Values and gradients equal, bit for bit, those of the composition it
    replaces: a `gather_rows` and an `lstm_step` per step, then per step an
    `affine` logit head and a softplus'd `affine` variance head joined by
    `concat` (heads), or `gather_rows` from the `concat` of the per-step
    states (pick). So the forward keeps the per-step (B, .) matmuls, and
    the backward sweeps the steps from L - 1 down to 0 as the tape sweeps
    that composition: each parameter is added into once per step, a step's
    h sums its gradients as ((next step + variance head) + logit head), the
    table gets one `np.add.at` per step, and a step that gets no gradient
    is skipped.
    """
    ids = np.asarray(ids, dtype=np.int64)
    td, wxd, whd, bd = table.data, wx.data, wh.data, b.data
    if ids.ndim != 2 or not ids.shape[0] or td.ndim != 2:
        raise ShapeError(f"lstm_sequence: table {td.shape}, ids {ids.shape}")
    steps, rows = ids.shape
    if state is None:
        n = whd.shape[0] if whd.ndim == 2 else 0
        hd, cd = np.zeros((rows, n)), np.zeros((rows, n))
    else:
        hd, cd = state[0].data, state[1].data
    _check_lstm("lstm_sequence", (rows, td.shape[1]), hd, cd, wxd, whd, bd, gate_mask,
                out_mask)
    n = hd.shape[1]
    _check_ids("lstm_sequence", ids, td.shape[0], "rows")
    if pick is not None:
        pick = np.asarray(pick, dtype=np.int64)
        if pick.shape != (rows,):
            raise ShapeError(f"lstm_sequence: pick {pick.shape} for {rows} rows")
        _check_ids("lstm_sequence", pick, steps, "steps")
    xs = td[ids]
    hs, cs, acts = [hd], [cd], []
    for x in xs:
        h, c, a = _lstm_forward(x, hs[-1], cs[-1], wxd, whd, bd, gate_mask, out_mask)
        hs.append(h)
        cs.append(c)
        acts.append(a)
    cs.pop()                   # the backward reads c_{t-1} at step t, never the last c
    if heads is not None:
        wo, bo, wv, bv = (p.data for p in heads)
        if not (wo.ndim == 2 and wo.shape[0] == n and wv.shape == wo.shape
                and bo.shape == bv.shape == (wo.shape[1],)):
            raise ShapeError(f"lstm_sequence: heads {wo.shape} {bo.shape} {wv.shape} "
                             f"{bv.shape} for hidden size {n}")
        logits, zv = (np.empty((steps * rows, wo.shape[1])) for _ in range(2))
        for t in range(steps):
            logits[t * rows:(t + 1) * rows] = hs[t + 1] @ wo + bo
            zv[t * rows:(t + 1) * rows] = hs[t + 1] @ wv + bv
        out = (logits, _softplus(zv))
    else:
        out = hs[-1] if pick is None else np.stack(hs[1:])[pick, np.arange(rows)]
        hs.pop()               # nor the last h, without heads

    def head(g_h, g, h, w, bias):
        """Add an affine head's gradient at h into g_h, and its weights'."""
        d = g @ w.data.T
        _accum(w, h.T @ g)
        _accum(bias, g.sum(axis=0))
        return d if g_h is None else g_h + d

    def backward_fn(grads):
        if pick is not None:   # as gather_rows leaves the concatenated states' gradient
            picked = np.zeros((steps, rows, n))
            np.add.at(picked, (pick, np.arange(rows)), grads)
        g_h = g_c = None       # from step t + 1
        for t in reversed(range(steps)):
            if heads is not None:
                r, (g_y, g_v) = slice(t * rows, (t + 1) * rows), grads
                if g_v is not None:
                    g_h = head(g_h, g_v[r] * _sigmoid(zv[r]), hs[t + 1], *heads[2:])
                if g_y is not None:
                    g_h = head(g_h, g_y[r], hs[t + 1], *heads[:2])
            elif pick is not None:
                g_h = picked[t] if g_h is None else g_h + picked[t]
            elif t == steps - 1:
                g_h = grads
            if g_h is None and g_c is None:
                continue
            g_pre, g_c = _lstm_backward(g_h, g_c, cs[t], acts[t], gate_mask, out_mask)
            if t:
                g_h = g_pre @ whd.T
            elif state is not None:
                _accum(state[1], g_c)
                _accum(state[0], g_pre @ whd.T)
            _accum(wh, hs[t].T @ g_pre)
            if table.requires_grad:
                if table.grad is None:
                    _accum(table, np.zeros_like(td))
                np.add.at(table.grad, ids[t], g_pre @ wxd.T)
            _accum(wx, xs[t].T @ g_pre)
            _accum(b, g_pre.sum(axis=0))

    return _make(out, (table, wx, wh, b) + tuple(state or ()) + tuple(heads or ()),
                 backward_fn)


# ---------------------------------------------------------------------------
# dropout

def dropout(x: Tensor, mask: np.ndarray) -> Tensor:
    """x times a multiplicative dropout mask of its shape: an array without
    gradient (from `nn.Dropout.mask`)."""
    if np.shape(mask) != x.data.shape:
        raise ShapeError(f"dropout: mask {np.shape(mask)} does not match {x.data.shape}")

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
