"""Uncertainty-aware question decoder.

An LSTM consumes the mixed cue encoding at step -1 and the gold tokens under
teacher forcing; every step emits logits plus a softplus variance head. The
aleatoric loss perturbs the logits with the reparameterization trick
(y + eps*sqrt(v)) and averages the resulting likelihoods over T Monte-Carlo
draws; the distorted uncertainty loss compares it against the plain
cross-entropy; and the refinement step pushes the reversed uncertainty
gradient, weighted by each fused cue, back onto the encoding before the
second decoding pass.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import BOS, EOS, PAD
from .nn import (BayesianLSTMCell, Dropout, EmbeddingTable, init_bias, init_matrix,
                 mc_statistics)
from .rng import RngStream


@dataclass
class MumcConfig:
    """Knobs for the uncertainty objective and the two-pass refinement."""
    mc_samples: int = 20          # T logit draws inside the aleatoric loss
    alpha: float = 1.0            # exponential-branch scale of the distorted loss
    gamma: float = 1.0            # gradient-reversal scale driving the refinement
    uncertainty_weight: float = 1.0   # lambda on the distorted loss in the total

    def validate(self):
        if self.mc_samples < 1:
            raise ValueError(f"mc_samples must be >= 1, got {self.mc_samples}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be nonnegative, got {self.gamma}")
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.uncertainty_weight < 0:
            raise ValueError("uncertainty weight must be nonnegative")


class Decoder:
    """Parameters: input projection (enc dim -> embed dim), LSTM cell,
    logit head, and variance head."""

    def __init__(self, enc_dim: int, embed_dim: int, hidden_dim: int,
                 vocab_size: int, dropout: Dropout, rng: RngStream,
                 embedding: EmbeddingTable):
        self.embedding = embedding
        self.in_proj_w = init_matrix(enc_dim, embed_dim, rng.child("in_proj"))
        self.in_proj_b = init_bias(embed_dim)
        self.cell = BayesianLSTMCell(embed_dim, hidden_dim, dropout, rng.child("cell"))
        self.w_out = init_matrix(hidden_dim, vocab_size, rng.child("w_out"))
        self.b_out = init_bias(vocab_size)
        self.w_var = init_matrix(hidden_dim, vocab_size, rng.child("w_var"))
        self.b_var = init_bias(vocab_size)

    def heads(self, h: Tensor):
        """(logits, aleatoric variance) for one hidden state."""
        y = ad.affine(h, self.w_out, self.b_out)
        v = ad.softplus(ad.affine(h, self.w_var, self.b_var))
        return y, v

    def named_params(self, prefix: str = "dec"):
        out = {
            f"{prefix}.in_proj.w": self.in_proj_w,
            f"{prefix}.in_proj.b": self.in_proj_b,
            f"{prefix}.w_out": self.w_out,
            f"{prefix}.b_out": self.b_out,
            f"{prefix}.w_var": self.w_var,
            f"{prefix}.b_var": self.b_var,
        }
        out.update(self.cell.named_params(f"{prefix}.cell"))
        return out


def check_gold(gold: np.ndarray):
    gold = np.asarray(gold, dtype=np.int64)
    if gold.ndim != 2 or gold.shape[1] < 2:
        raise ValueError(f"gold must be (B, L>=2), got {gold.shape}")
    if np.any(gold[:, 0] != BOS):
        raise ValueError("gold sequences must begin with BOS")
    for row in gold:
        real = row[row != PAD]
        if real[-1] != EOS:
            raise ValueError("gold sequences must end with EOS (before padding)")
    return gold


def targets_and_mask(gold: np.ndarray):
    """Shift-by-one targets and the PAD mask (PAD steps leave both the loss
    sum and the normalizing count)."""
    gold = np.asarray(gold, dtype=np.int64)
    targets = gold[:, 1:]
    mask = (targets != PAD).astype(np.float64)
    return targets, mask


def decode_teacher_forced(dec: Decoder, g_enc: Tensor, gold: np.ndarray,
                          masks=None):
    """Step -1 consumes the encoding, step t the embedding of gold[t]; the
    hidden state after gold[t] scores gold[t+1]. The heads run once per
    step. Dropout applies the LSTM `masks` (from `dec.cell.sample_masks`),
    and is off without them. Returns (logits, variances), each one
    time-major ((L-1)*B, V) tensor: row t*B + b is step t of example b."""
    gold = check_gold(gold)
    batch, length = gold.shape
    if masks is None:
        masks = dec.cell.sample_masks(batch)
    h, c = _start(dec, g_enc, masks)
    logits, variances = [], []
    for t in range(length - 1):
        x = dec.embedding.lookup(gold[:, t])
        h, c = dec.cell.step(x, h, c, masks)
        y, v = dec.heads(h)
        logits.append(y)
        variances.append(v)
    return ad.concat(logits, axis=0), ad.concat(variances, axis=0)


def _neg_masked_mean(values: Tensor, mask: np.ndarray) -> Tensor:
    """-(masked sum of time-major (L*B,) values) / (number of unmasked steps).

    Both likelihood losses reduce through this exact code path so their
    zero-variance degeneracy is bitwise, not just close.
    """
    count = float(mask.sum())
    if count <= 0:
        raise ValueError("loss mask is empty: nothing to average")
    return ad.scale(ad.masked_step_sum(values, mask), -1.0 / count)


def gen_loss(logits: Tensor, targets: np.ndarray, mask: np.ndarray) -> Tensor:
    """Mean negative log-likelihood per unmasked token (nats/token).

    logits is time-major ((L-1)*B, V), row t*B + b scoring targets[b, t],
    as decode_teacher_forced returns it; targets and mask are (B, L-1).
    """
    ids = targets.T.reshape(-1)
    return _neg_masked_mean(ad.sub(ad.gather_cols(logits, ids), ad.row_logsumexp(logits)), mask)


def aleatoric_mc_loss(logits: Tensor, variances: Tensor, targets: np.ndarray,
                      mask: np.ndarray, T: int, rng: RngStream) -> Tensor:
    """-mean log[(1/T) sum_s softmax(y + eps_s * sqrt(v))[gold]] per token.

    logits and variances are time-major ((L-1)*B, V), row t*B + b for step
    t of example b, as decode_teacher_forced returns them. Step t draws its
    (T*B, V) noise from rng.child(("eps", t)); its row s*B + b is draw s
    of logits row t*B + b. One `lrt_log_likelihood` node scores every draw
    and averages with a log-mean-exp, so v == 0 reproduces gen_loss exactly
    (identical draws collapse without rounding).
    """
    if T < 1:
        raise ValueError(f"aleatoric loss needs T >= 1, got {T}")
    batch, steps = targets.shape
    vocab = logits.data.shape[-1]
    eps = np.empty((T, steps, batch, vocab))
    for t in range(steps):
        eps[:, t] = rng.child(("eps", t)).normal((T * batch, vocab)).reshape(T, batch, vocab)
    eps = eps.reshape(T, steps * batch, vocab)
    return _neg_masked_mean(ad.lrt_log_likelihood(logits, variances, eps, targets.T.reshape(-1)),
                            mask)


def distorted_loss(l_plain: Tensor, l_aleatoric: Tensor, alpha: float = 1.0) -> Tensor:
    """Piecewise uncertainty loss on the gap delta = L_plain - L_aleatoric:
    alpha*(exp(delta) - 1) when delta < 0, else delta (0 exactly at 0)."""
    delta = ad.sub(l_plain, l_aleatoric)
    if delta.item() < 0:
        return ad.scale(ad.sub(ad.exp(delta), Tensor(np.asarray(1.0))), alpha)
    return delta


def mumc_refine(g_enc: Tensor, mus: dict, grad_wrt_enc: np.ndarray,
                gamma: float) -> Tensor:
    """Residual refinement of the mixed encoding.

    direction = sum_B (-gamma * dLu/dg_enc) * mu_B, with the incoming
    gradient treated as a constant (stop-gradient) and the mu_B factors left
    live; returns g_enc + direction * g_enc. With no fused cues the
    refinement is inert and g_enc passes through unchanged.
    """
    if gamma < 0:
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    if not mus:
        return g_enc
    grad_wrt_enc = np.asarray(grad_wrt_enc, dtype=np.float64)
    if grad_wrt_enc.shape != g_enc.data.shape:
        raise ad.ShapeError(f"refine: grad {grad_wrt_enc.shape} does not match "
                            f"encoding {g_enc.data.shape}")
    reversed_grad = Tensor(-gamma * grad_wrt_enc)
    direction = None
    for mu in mus.values():
        term = ad.mul(reversed_grad, mu)
        direction = term if direction is None else ad.add(direction, term)
    return ad.add(g_enc, ad.mul(direction, g_enc))


# ---------------------------------------------------------------------------
# generation

@dataclass
class QuestionSample:
    """One decoded question: token ids (EOS-terminated unless cut at
    max_len) and the mean predicted variance at the chosen tokens as a
    single-pass uncertainty summary."""
    tokens: list
    predictive_uncertainty: float = 0.0


def _start(dec: Decoder, g_enc: Tensor, masks):
    """The (h, c) state after step -1 has consumed the encoding."""
    h, c = dec.cell.initial_state(g_enc.data.shape[0])
    return dec.cell.step(ad.affine(g_enc, dec.in_proj_w, dec.in_proj_b), h, c, masks)


def _decode_committees(dec: Decoder, state, masks, size: int, max_len: int):
    """Free-running decode of the batch as contiguous committees of `size`
    rows. Every step each committee feeds all its rows the argmax of their
    mean logits (ties resolve to the lowest token id) and finishes at its
    own EOS or after max_len tokens; rows of finished committees keep
    stepping until the last one finishes, and their outputs are dropped.

    Only what the callers read is kept: the first step's (rows, V) logits,
    and per step each committee's token and the logits and predicted
    variances of its rows at that token. Returns (first_logits, tokens
    (committees, steps), chosen logits and chosen variances (committees,
    size, steps), lengths (committees,)); committee k's question is
    tokens[k, :lengths[k]]."""
    if max_len < 1:
        raise ValueError(f"decoding needs max_len >= 1, got {max_len}")
    h, c = state
    rows = h.data.shape[0]
    count = rows // size
    tokens = np.full(count, BOS, dtype=np.int64)
    lengths = np.zeros(count, dtype=np.int64)
    done = np.zeros(count, dtype=bool)
    first, steps = None, []
    for _ in range(max_len):
        x = dec.embedding.lookup(np.repeat(tokens, size))
        h, c = dec.cell.step(x, h, c, masks)
        y, v = dec.heads(h)
        if first is None:
            first = y.data
        tokens = np.argmax(y.data.reshape(count, size, -1).sum(axis=1) / size, axis=1)
        picked = (np.arange(rows), np.repeat(tokens, size))
        steps.append((tokens, y.data[picked].reshape(count, size),
                       v.data[picked].reshape(count, size)))
        lengths += ~done
        done |= tokens == EOS
        if done.all():
            break
    tokens, logits, variances = (np.stack(a, axis=-1) for a in zip(*steps))
    return first, tokens, logits, variances, lengths


def _questions(decoded) -> list:
    """Each committee of one row as a decoded question."""
    _, tokens, _, variances, lengths = decoded
    return [QuestionSample(tokens=tokens[k, :n].tolist(),
                           predictive_uncertainty=float(np.mean(variances[k, 0, :n])))
            for k, n in enumerate(lengths)]


def generate_greedy(dec: Decoder, g_enc: Tensor, max_len: int = 16,
                    masks=None) -> list:
    """Argmax decoding (ties resolve to the lowest token id) of every row of
    g_enc until its EOS or max_len tokens: the free-running decode of
    committees of one, all rows stepping as one batch. Returns one
    QuestionSample per row, in row order. Dropout applies the LSTM `masks`,
    one mask row per encoding row for the whole sequence, and is off
    without them."""
    with ad.no_grad():
        if masks is None:
            masks = dec.cell.sample_masks(g_enc.data.shape[0])
        return _questions(_decode_committees(dec, _start(dec, g_enc, masks), masks, 1,
                                             max_len))


def generate_mc(dec: Decoder, enc_producer, T: int, max_len: int = 16,
                rng: RngStream = None):
    """T free-running stochastic decodes plus a committee pass, all run as
    the T rows of one batch.

    enc_producer(rows) -> (T, enc_dim) encoding, row t for sample t, where
    rows = rng.rows(T).child("enc") draws row t from rng.child(t).child("enc")
    (typically the model encoding one example stacked T times). The decoder
    masks of row t come from rng.child(t).child("dec"), so sample t sees the
    masks a batch-1 decode on stream rng.child(t) would; its floats can
    differ from such a decode in the last bits. The samples decode as T
    committees of one. The committee pass restarts from the same step -1
    state as one committee of T, whose token each step is the argmax of the
    committee-mean logits, so the per-step Monte-Carlo logit sets stay
    aligned: epistemic = mean over steps of the MC variance of the chosen
    token's logit, aleatoric = mean over steps of the MC-mean predicted
    variance at that token, predictive = epistemic + aleatoric.

    Both passes keep per step only each committee's token and its rows'
    logits and predicted variances at it; the samples' first-step (T, V)
    logits give first_step_stats. Returns (samples, first_step_stats,
    uncertainty dict, the committee's tokens under "committee_tokens").
    """
    if T < 1:
        raise ValueError(f"generate_mc needs T >= 1, got {T}")
    with ad.no_grad():
        rows = rng.rows(T)
        g_enc = enc_producer(rows.child("enc"))
        if g_enc.data.shape[0] != T:
            raise ad.ShapeError(f"generate_mc: encoding {g_enc.data.shape} needs "
                                f"one row per sample (T={T})")
        masks = dec.cell.sample_masks(T, rows.child("dec"))
        state = _start(dec, g_enc, masks)
        decoded = _decode_committees(dec, state, masks, 1, max_len)
        samples = _questions(decoded)
        first_step_stats = mc_statistics(decoded[0])

        _, (tokens,), (logits,), (variances,), _ = _decode_committees(dec, state, masks,
                                                                      T, max_len)
        epistemic = float(np.mean(mc_statistics(logits).variance))
        aleatoric = float(np.mean([np.mean(v) for v in variances.T]))
        uncertainty = {
            "epistemic": epistemic,
            "aleatoric": aleatoric,
            "predictive": epistemic + aleatoric,
            "committee_tokens": tokens.tolist(),
        }
        return samples, first_step_stats, uncertainty
