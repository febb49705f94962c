"""Bayesian building blocks: the dropout setting, MC-dropout MLPs,
variational LSTM cells, embedding tables, Monte-Carlo predictive statistics,
checkpoint I/O and the flat vectors a model's parameters live in.

A pass is stochastic exactly when it is given an `RngStream`: dropout is
then active and each call is one posterior sample. Without a stream, dropout
is off and the pass is deterministic. LSTM dropout is variational: the four
gate masks and the output mask are drawn once per sequence and reused at
every timestep.
"""

import json
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import atomic_write
from .rng import RngStream


def init_matrix(rows: int, cols: int, rng: RngStream) -> Tensor:
    """Uniform +/- 1/sqrt(fan_in); inputs arrive as row @ W so fan_in = rows."""
    bound = 1.0 / np.sqrt(rows)
    return Tensor(rng.uniform((rows, cols)) * (2 * bound) - bound, requires_grad=True)


def init_bias(n: int) -> Tensor:
    return Tensor(np.zeros(n), requires_grad=True)


DROPOUT_KINDS = ("bernoulli", "gaussian")


@dataclass
class Dropout:
    """The one dropout setting of a model, and its mask sampler.

    It is also the config file's `dropout` section. A model hands the same
    object to every component that drops, so changing its fields changes
    them all. A rate of 0 turns dropout off.
    """
    rate: float = 0.3
    kind: str = "bernoulli"

    def validate(self):
        if not (0.0 <= self.rate < 1.0):
            raise ValueError(f"dropout rate must be in [0, 1), got {self.rate}")
        if self.kind not in DROPOUT_KINDS:
            raise ValueError(f"dropout kind must be one of {DROPOUT_KINDS}")
        return self

    def active(self, rng: RngStream) -> bool:
        """Whether a pass on `rng` (None for a deterministic pass) drops."""
        return rng is not None and self.rate > 0.0

    def mask(self, shape, rng: RngStream) -> np.ndarray:
        """Multiplicative mask drawn from `rng`: inverted Bernoulli (values 0
        or 1/(1-rate)) or mean-one Gaussian with variance rate/(1-rate)."""
        self.validate()
        if self.kind == "bernoulli":
            keep = 1.0 - self.rate
            return (rng.uniform(shape) < keep).astype(np.float64) / keep
        return 1.0 + np.sqrt(self.rate / (1.0 - self.rate)) * rng.normal(shape)

    def apply(self, x: Tensor, rng: RngStream) -> Tensor:
        """x times a fresh mask from `rng`."""
        return ad.dropout(x, self.mask(x.data.shape, rng))


class BayesianMLP:
    """Linear stack with a dropout applied before every layer.

    tanh between layers, linear output. A rate of 0 collapses it to a
    plain deterministic MLP, and so does a call without a stream; two
    calls with equal RngStream state produce identical outputs (masks are
    counter-derived).
    """

    def __init__(self, widths, dropout: Dropout, rng: RngStream):
        if len(widths) < 2:
            raise ValueError("BayesianMLP needs at least input and output widths")
        self.widths = [int(w) for w in widths]
        self.dropout = dropout
        self.weights = []
        self.biases = []
        for i, (a, b) in enumerate(zip(self.widths[:-1], self.widths[1:])):
            self.weights.append(init_matrix(a, b, rng.child(("w", i))))
            self.biases.append(init_bias(b))

    def forward(self, x: Tensor, rng: RngStream = None) -> Tensor:
        if x.shape[-1] != self.widths[0]:
            raise ad.ShapeError(f"mlp: input {x.shape} does not match width {self.widths[0]}")
        use_dropout = self.dropout.active(rng)
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if use_dropout:
                h = self.dropout.apply(h, rng.child(("drop", i)))
            h = ad.affine(h, w, b)
            if i < last:
                h = ad.tanh(h)
        return h

    def named_params(self, prefix: str):
        out = {}
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            out[f"{prefix}.w{i}"] = w
            out[f"{prefix}.b{i}"] = b
        return out


@dataclass
class LstmMasks:
    """Per-sequence variational dropout masks; None means no dropout."""
    gates: np.ndarray | None   # (B, 4h), multiplies the packed gate preactivations
    out: np.ndarray | None     # (B, h), multiplies the step output


class BayesianLSTMCell:
    """LSTM cell with tied per-sequence dropout on the four gate
    preactivations (packed order: input, forget, output, candidate) and on
    the step output."""

    def __init__(self, input_size: int, hidden_size: int, dropout: Dropout,
                 rng: RngStream):
        self.hidden_size = int(hidden_size)
        self.dropout = dropout
        h = self.hidden_size
        self.wx = init_matrix(input_size, 4 * h, rng.child("wx"))
        self.wh = init_matrix(h, 4 * h, rng.child("wh"))
        self.b = init_bias(4 * h)
        # forget gate starts open so early-step inputs survive to later steps
        self.b.data[h:2 * h] = 1.0

    def sample_masks(self, batch: int, rng: RngStream = None) -> LstmMasks:
        if not self.dropout.active(rng):
            return LstmMasks(None, None)
        h = self.hidden_size
        return LstmMasks(gates=self.dropout.mask((batch, 4 * h), rng.child("gates")),
                         out=self.dropout.mask((batch, h), rng.child("out")))

    def step(self, x: Tensor, h: Tensor, c: Tensor, masks: LstmMasks):
        """One timestep; (x, h, c) are (B, *) rows, returns (h', c')."""
        return ad.lstm_step(x, h, c, self.wx, self.wh, self.b, masks.gates, masks.out)

    def initial_state(self, batch: int):
        z = np.zeros((batch, self.hidden_size))
        return Tensor(z), Tensor(z.copy())

    def sequence(self, table: Tensor, ids, rng: RngStream = None, lengths=None) -> Tensor:
        """Run the cell from zeros over the embedding rows of (L, B)
        time-major `ids`, as one `lstm_sequence` node, under one mask draw
        from `rng` (no dropout without it) tied across timesteps.

        Every row runs every step. Returns each row's hidden state after
        its own length (lengths, each in [1, L]), or after step L - 1.
        """
        ids = np.asarray(ids, dtype=np.int64)
        if ids.ndim != 2 or not ids.size:
            raise ValueError(f"lstm sequence: ids must be a nonempty (L, B) array, "
                             f"got {ids.shape}")
        masks = self.sample_masks(ids.shape[1], rng)
        pick = None if lengths is None else np.asarray(lengths, dtype=np.int64) - 1
        return ad.lstm_sequence(table, ids, self.wx, self.wh, self.b, masks.gates, masks.out,
                                pick=pick)

    def named_params(self, prefix: str):
        return {f"{prefix}.wx": self.wx, f"{prefix}.wh": self.wh, f"{prefix}.b": self.b}


class EmbeddingTable:
    """Token id -> row of a (V, dim) matrix; lookup equals one-hot matmul."""

    def __init__(self, vocab_size: int, dim: int, rng: RngStream):
        self.weight = init_matrix(vocab_size, dim, rng)

    def lookup(self, ids) -> Tensor:
        return ad.gather_rows(self.weight, ids)


@dataclass
class McStatistics:
    """Per-coordinate mean and unbiased variance of T Monte-Carlo samples."""
    count: int
    mean: np.ndarray
    variance: np.ndarray        # all 0 when count == 1


def mc_statistics(samples: np.ndarray) -> McStatistics:
    """Mean and unbiased variance over axis 0 of a (T, ...) sample stack.

    The mean is accumulated relative to the first sample, so T identical
    samples give that sample back and an exactly-zero variance.
    """
    samples = np.asarray(samples, dtype=np.float64)
    count = samples.shape[0]
    base = samples[0]
    mean = base + (samples - base).sum(axis=0) / count
    if count == 1:
        variance = np.zeros_like(base)
    else:
        d = samples - mean
        variance = (d * d).sum(axis=0) / (count - 1)
    return McStatistics(count=count, mean=mean, variance=variance)


def mc_predict(f, T: int, rng: RngStream) -> McStatistics:
    """Run stochastic `f` once for all T samples and summarize.

    f(rows) gets the T-id stream rows = rng.rows(T) and returns the T
    samples concatenated along axis 0, typically by running on T stacked
    copies of its input: every draw from `rows` gives sample t's block of
    rows what rng.child(t) alone would draw, so sample t sees the same
    masks whatever T is and in whatever order the samples are taken.
    Floats can differ from T separate runs in the last bits, because a
    batched matrix product may sum in another order.
    """
    if T < 1:
        raise ValueError(f"mc_predict needs T >= 1, got {T}")
    out = f(rng.rows(T))
    data = out.data if isinstance(out, Tensor) else np.asarray(out, dtype=np.float64)
    if data.ndim == 0 or data.shape[0] % T:
        raise ad.ShapeError(f"mc_predict: leading extent of {data.shape} is not "
                            f"a multiple of T={T}")
    return mc_statistics(data.reshape((T, -1) + data.shape[1:]))


# ---------------------------------------------------------------------------
# checkpoints

CHECKPOINT_FORMAT = "mcvqg-checkpoint-v1"


def save_checkpoint(path, params: dict, meta: dict = None):
    """Write a name -> {shape, data} map as JSON; float64 repr round-trips
    exactly, so save/load is bitwise."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "meta": meta or {},
        "params": {
            name: {"shape": list(t.data.shape), "data": t.data.ravel().tolist()}
            for name, t in params.items()
        },
    }
    with atomic_write(path) as fh:
        json.dump(payload, fh)


def load_checkpoint(path):
    """Read a checkpoint; returns (name -> ndarray, meta). A file that is
    not a checkpoint object of finite parameters raises ValueError.

    It does not check meta's vocabulary fingerprint against any dataset:
    only the CLI's `_restore_model` does. A caller restoring a model for a
    dataset compares `meta.get("vocab_fingerprint")` with
    `dataset.vocab.fingerprint()` itself."""
    with open(path) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a recognized checkpoint file: {path}")
    if not isinstance(payload.get("params"), dict):
        raise ValueError(f"checkpoint params are not a JSON object: {path}")
    arrays = {}
    for name, rec in payload["params"].items():
        try:
            arr = np.asarray(rec["data"], dtype=np.float64).reshape(rec["shape"])
        except (KeyError, TypeError, ValueError) as e:
            raise ValueError(f"checkpoint parameter {name} is malformed "
                             f"({type(e).__name__}: {e}): {path}") from None
        if not np.isfinite(arr).all():
            raise ValueError(f"checkpoint parameter {name} has non-finite values: {path}")
        arrays[name] = arr
    meta = payload.get("meta", {})
    if not isinstance(meta, dict):
        raise ValueError(f"checkpoint meta is not a JSON object: {path}")
    return arrays, meta


def restore_params(params: dict, arrays: dict):
    """Copy loaded arrays into model parameters, in place; any name or shape
    mismatch raises with a full diff of expected vs found shapes."""
    problems = []
    for name, t in params.items():
        if name not in arrays:
            problems.append(f"missing parameter {name} (expected shape {tuple(t.data.shape)})")
        elif tuple(arrays[name].shape) != tuple(t.data.shape):
            problems.append(f"{name}: expected shape {tuple(t.data.shape)}, "
                            f"found {tuple(arrays[name].shape)}")
    for name in arrays:
        if name not in params:
            problems.append(f"unexpected parameter {name} with shape {tuple(arrays[name].shape)}")
    if problems:
        raise ValueError("checkpoint does not match model:\n  " + "\n  ".join(problems))
    for name, t in params.items():
        t.data[...] = arrays[name]


def param_vectors(params: dict):
    """The float64 (values, gradients) vectors `params` live in: in dict
    order, each one's `data` is a view of the values and its `grad_out` the
    same view of the gradients. Fresh parameters (no `grad_out` yet) are
    copied into a new pair. Raises ValueError, naming the parameter, rather
    than move one that has a `grad_out` out of the pair it lives in (a
    subset or reordering of a laid-out dict, or a rebound `data`): write a
    laid-out parameter in place (`data[...] =`), never rebind."""
    tensors = list(params.values())
    starts = np.cumsum([0] + [t.data.size for t in tensors]).tolist()
    values, grads = (getattr(a, "base", None) for a in (tensors[0].data, tensors[0].grad_out))

    def at(a, vec, lo):   # a is vec[lo:lo + a.size], reshaped
        return (vec is not None and a is not None and a.base is vec
                and vec.shape == (starts[-1],) and a.flags.c_contiguous
                and a.ctypes.data == vec.ctypes.data + lo * vec.itemsize)

    if not all(at(t.data, values, lo) and at(t.grad_out, grads, lo)
               for t, lo in zip(tensors, starts)):
        laid = [name for name, t in params.items() if t.grad_out is not None]
        if laid:
            raise ValueError(f"param_vectors: parameter {laid[0]} already lives in a "
                             "vector pair; pass the whole dict it was laid out with")
        values = np.concatenate([t.data.ravel() for t in tensors])
        grads = np.zeros_like(values)
        for t, lo, hi in zip(tensors, starts, starts[1:]):
            t.data, t.grad_out = (a[lo:hi].reshape(t.data.shape) for a in (values, grads))
    return values, grads
