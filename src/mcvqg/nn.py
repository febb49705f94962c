"""Bayesian building blocks: MC-dropout MLPs, variational LSTM cells,
embedding tables, Monte-Carlo predictive statistics, and checkpoint I/O.

"Stochastic" mode keeps dropout active (each call is one posterior sample);
"deterministic" mode disables it. LSTM dropout is variational: the four gate
masks and the output mask are drawn once per sequence and reused at every
timestep.
"""

import json
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .rng import RngStream


def init_matrix(rows: int, cols: int, rng: RngStream) -> Tensor:
    """Uniform +/- 1/sqrt(fan_in); inputs arrive as row @ W so fan_in = rows."""
    bound = 1.0 / np.sqrt(rows)
    return Tensor(rng.uniform((rows, cols)) * (2 * bound) - bound, requires_grad=True)


def init_bias(n: int) -> Tensor:
    return Tensor(np.zeros(n), requires_grad=True)


def _wants_dropout(p: float, kind: str, stochastic: bool) -> bool:
    return stochastic and p > 0.0 and kind != "none"


class BayesianMLP:
    """Linear stack with a dropout applied before every layer.

    tanh between layers, linear output. p=0 (or kind "none") collapses to a
    plain deterministic MLP; two stochastic calls with equal RngStream state
    produce identical outputs (masks are counter-derived).
    """

    def __init__(self, widths, p: float, kind: str, rng: RngStream):
        if len(widths) < 2:
            raise ValueError("BayesianMLP needs at least input and output widths")
        if not (0.0 <= p < 1.0):
            raise ValueError(f"dropout rate must be in [0, 1), got {p}")
        self.widths = [int(w) for w in widths]
        self.p = float(p)
        self.kind = kind
        self.weights = []
        self.biases = []
        for i, (a, b) in enumerate(zip(self.widths[:-1], self.widths[1:])):
            self.weights.append(init_matrix(a, b, rng.child(("w", i))))
            self.biases.append(init_bias(b))

    def forward(self, x: Tensor, rng: RngStream = None, stochastic: bool = True) -> Tensor:
        if x.shape[-1] != self.widths[0]:
            raise ad.ShapeError(f"mlp: input {x.shape} does not match width {self.widths[0]}")
        use_dropout = _wants_dropout(self.p, self.kind, stochastic)
        if use_dropout and rng is None:
            raise ValueError("stochastic forward needs an RngStream")
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            if use_dropout:
                h = ad.dropout(h, self.p, self.kind, rng.child(("drop", i)))
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

    def __init__(self, input_size: int, hidden_size: int, p: float, kind: str,
                 rng: RngStream):
        if not (0.0 <= p < 1.0):
            raise ValueError(f"dropout rate must be in [0, 1), got {p}")
        self.input_size = int(input_size)
        self.hidden_size = int(hidden_size)
        self.p = float(p)
        self.kind = kind
        h = self.hidden_size
        self.wx = init_matrix(self.input_size, 4 * h, rng.child("wx"))
        self.wh = init_matrix(h, 4 * h, rng.child("wh"))
        self.b = init_bias(4 * h)
        # forget gate starts open so early-step inputs survive to later steps
        self.b.data[h:2 * h] = 1.0

    def sample_masks(self, batch: int, rng: RngStream = None,
                     stochastic: bool = True) -> LstmMasks:
        if not _wants_dropout(self.p, self.kind, stochastic):
            return LstmMasks(None, None)
        if rng is None:
            raise ValueError("stochastic masks need an RngStream")
        h = self.hidden_size
        return LstmMasks(
            gates=ad.dropout_mask((batch, 4 * h), self.p, self.kind, rng.child("gates")),
            out=ad.dropout_mask((batch, h), self.p, self.kind, rng.child("out")),
        )

    def step(self, x: Tensor, h: Tensor, c: Tensor, masks: LstmMasks, keep=None):
        """One timestep; (x, h, c) are (B, *) rows, returns (h', c'). A (B, 1)
        0/1 `keep` column holds the rows flagged 0 at (h, c)."""
        return ad.lstm_step(x, h, c, self.wx, self.wh, self.b, masks.gates, masks.out, keep)

    def initial_state(self, batch: int):
        z = np.zeros((batch, self.hidden_size))
        return Tensor(z), Tensor(z.copy())

    def sequence(self, inputs, rng: RngStream = None, stochastic: bool = True,
                 masks: LstmMasks = None, state=None, step_mask=None):
        """Run the cell over a list of (B, input) tensors with one mask draw.

        step_mask: optional (B, T) 0/1 array; steps flagged 0 leave (h, c)
        unchanged for that row, so right-padded sequences end at their true
        final state (the padded arithmetic is exact: 1*new + 0*old).
        Returns (per-step hidden states, final hidden state).
        """
        inputs = list(inputs)
        if not inputs:
            raise ValueError("lstm sequence: empty input")
        batch = inputs[0].shape[0]
        if masks is None:
            masks = self.sample_masks(batch, rng, stochastic)
        h, c = state if state is not None else self.initial_state(batch)
        outputs = []
        for t, x in enumerate(inputs):
            keep = None if step_mask is None else step_mask[:, t:t + 1]
            h, c = self.step(x, h, c, masks, keep)
            outputs.append(h)
        return outputs, h

    def named_params(self, prefix: str):
        return {f"{prefix}.wx": self.wx, f"{prefix}.wh": self.wh, f"{prefix}.b": self.b}


class EmbeddingTable:
    """Token id -> row of a (V, dim) matrix; lookup equals one-hot matmul."""

    def __init__(self, vocab_size: int, dim: int, rng: RngStream):
        self.vocab_size = int(vocab_size)
        self.dim = int(dim)
        self.weight = init_matrix(self.vocab_size, self.dim, rng)

    def lookup(self, ids) -> Tensor:
        return ad.gather_rows(self.weight, ids)

    def named_params(self, prefix: str):
        return {f"{prefix}.weight": self.weight}


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

    f(rows) gets rows = rng.rows(T) and returns the T samples concatenated
    along axis 0, typically by running on T stacked copies of its input:
    every draw from `rows` gives sample t's block of rows what rng.child(t)
    alone would draw, so sample t sees the same masks whatever T is and in
    whatever order the samples are taken. Floats can differ from T separate
    runs in the last bits, because a batched matrix product may sum in
    another order.
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
    with open(path, "w") as fh:
        json.dump(payload, fh)


def load_checkpoint(path):
    """Read a checkpoint; returns (name -> ndarray, meta)."""
    with open(path) as fh:
        payload = json.load(fh)
    if payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"not a recognized checkpoint file: {path}")
    arrays = {}
    for name, rec in payload["params"].items():
        arr = np.asarray(rec["data"], dtype=np.float64).reshape(rec["shape"])
        arrays[name] = arr
    return arrays, payload.get("meta", {})


def restore_params(params: dict, arrays: dict):
    """Copy loaded arrays into model parameters; any name or shape mismatch
    raises with a full diff of expected vs found shapes."""
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
        t.data = arrays[name].copy()
