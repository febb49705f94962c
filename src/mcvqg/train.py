"""Training and evaluation harness.

The MUMC training step encodes a batch once and decodes it twice on one
tape: pass 1 computes the plain and aleatoric losses, sweeps the distorted
uncertainty loss, and reads the gradient at the mixed encoding; pass 2
refines that encoding with the reversed, cue-weighted gradient, decodes it
under the same dropout masks, and sweeps the refined cross-entropy through
the shared encoder. Parameter gradients from the two sweeps accumulate (the
uncertainty term scaled by its loss weight) and one optimizer step follows.

Everything is driven by counter-based RNG streams, so a (config, seed) pair
reproduces losses, checkpoints, and reports bitwise.
"""

import os
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .autodiff import Tape
from .config import DECISION_MODES, RunConfig, config_to_dict
from .data import EOS, Dataset, atomic_write
from .decoder import (aleatoric_mc_loss, decode_teacher_forced, distorted_loss,
                      gen_loss, generate_greedy, generate_mc, mumc_refine,
                      targets_and_mask)
from .metrics import evaluate_corpus
from .model import Batch, MultiCueModel, dropout_override, make_batch
from .nn import mc_predict, save_checkpoint
from .rng import RngStream

# examples per encode and decode in deterministic evaluation; bounds memory
EVAL_CHUNK = 256


class TrainingDiverged(RuntimeError):
    """Raised when a step produces a non-finite loss part or parameter
    gradient, before the optimizer applies it, or when a validation pass
    gives a non-finite loss."""


def check_dims(cfg: RunConfig, dataset: Dataset):
    """Raise ValueError when the config's feature widths disagree with the
    dataset header's."""
    for name in ("image_dim", "place_dim"):
        want, got = getattr(cfg, name), getattr(dataset, name)
        if want != got:
            raise ValueError(f"config {name} is {want} but the dataset header "
                             f"says {got}")


def build_model(cfg: RunConfig, dataset: Dataset, rng: RngStream = None) -> MultiCueModel:
    check_dims(cfg, dataset)
    if rng is None:
        rng = RngStream(cfg.seed).child("model")
    return MultiCueModel(
        cues=cfg.cues, combiner=cfg.combiner, image_dim=cfg.image_dim,
        place_dim=cfg.place_dim, embed_dim=cfg.embed_dim,
        enc_dim=cfg.enc_dim, hidden_dim=cfg.hidden_dim,
        vocab_size=len(dataset.vocab.tokens), dropout_rate=cfg.dropout.rate,
        dropout_kind=cfg.dropout.kind, rng=rng)


# ---------------------------------------------------------------------------
# optimizer

class AdamOptimizer:
    def __init__(self, params: dict, lr: float, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.params = params
        self.lr = float(lr)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(v.data) for k, v in params.items()}
        self.v = {k: np.zeros_like(v.data) for k, v in params.items()}

    def zero(self):
        for t in self.params.values():
            t.zero_grad()

    def step(self):
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            self.m[name] = b1 * self.m[name] + (1 - b1) * g
            self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
            m_hat = self.m[name] / (1 - b1 ** self.t)
            v_hat = self.v[name] / (1 - b2 ** self.t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


# ---------------------------------------------------------------------------
# one training step

def run_step(model: MultiCueModel, batch: Batch, cfg: RunConfig,
             rng: RngStream) -> dict:
    """Accumulate gradients for one batch; returns the step's loss parts.

    The caller zeroes gradients before and applies the optimizer after.
    One tape holds the step: it is swept for the uncertainty loss, then
    extended by the refinement and second decode of the same encoding and
    swept again for the refined loss.
    """
    targets, mask = targets_and_mask(batch.gold)
    masks = model.decoder.cell.sample_masks(batch.size, rng.child("dec_masks"))
    with Tape() as tape:
        enc = model.encode(batch, rng.child("enc"))
        logits, variances = decode_teacher_forced(model.decoder, enc.g_enc,
                                                  batch.gold, masks=masks)
        l_plain = gen_loss(logits, targets, mask)
    if not cfg.mumc_enabled:
        tape.backward(l_plain)
        value = l_plain.item()
        return {"total": value, "l_gen": value, "l_u": 0.0, "l_aleatoric": value}

    mumc = cfg.mumc
    with tape:
        l_alea = aleatoric_mc_loss(logits, variances, targets, mask,
                                   T=mumc.mc_samples, rng=rng.child("lrt"))
        l_u = distorted_loss(l_plain, l_alea, mumc.alpha)
    tape.backward(l_u)
    grad_enc = enc.g_enc.grad
    grad_enc = np.zeros_like(enc.g_enc.data) if grad_enc is None else grad_enc.copy()
    # the refinement consumes the raw uncertainty gradient; the parameter
    # gradients carry the loss weight
    lam = mumc.uncertainty_weight
    for p in model.named_params().values():
        if p.grad is not None:
            p.grad *= lam

    with tape:
        refined = mumc_refine(enc.g_enc, enc.mus, grad_enc, mumc.gamma)
        logits2, _ = decode_teacher_forced(model.decoder, refined,
                                           batch.gold, masks=masks)
        l_gen = gen_loss(logits2, targets, mask)
    tape.backward(l_gen)
    return {"total": l_gen.item() + lam * l_u.item(), "l_gen": l_gen.item(),
            "l_u": l_u.item(), "l_aleatoric": l_alea.item(),
            "l_plain": l_plain.item()}


def teacher_loss(model: MultiCueModel, batch: Batch) -> float:
    """Deterministic (dropout-off) cross-entropy in nats per token."""
    targets, mask = targets_and_mask(batch.gold)
    enc = model.encode(batch)
    logits, _ = decode_teacher_forced(model.decoder, enc.g_enc, batch.gold)
    return gen_loss(logits, targets, mask).item()


# ---------------------------------------------------------------------------
# training loop

@dataclass
class TrainResult:
    model: MultiCueModel
    curve: list                 # per-epoch dict rows
    best_epoch: int
    best_val_loss: float
    train_indices: list
    val_indices: list


def split_indices(n: int, val_fraction: float, rng: RngStream):
    """Seeded shuffle split; validation rounds down and never consumes the
    whole dataset."""
    perm = rng.shuffled(range(n))
    val_count = min(int(round(val_fraction * n)), n - 1)
    val = sorted(perm[:val_count])
    train = sorted(perm[val_count:])
    return train, val


def _epoch_mean(values, weights):
    return float(sum(v * w for v, w in zip(values, weights)) / sum(weights))


def train_model(cfg: RunConfig, dataset: Dataset, log=None) -> TrainResult:
    cfg.validate()
    root = RngStream(cfg.seed)
    model = build_model(cfg, dataset, root.child("model"))
    params = model.named_params()
    optimizer = AdamOptimizer(params, cfg.optimizer.learning_rate)
    train_idx, val_idx = split_indices(len(dataset.bundles), cfg.val_fraction,
                                       root.child("split"))
    run_rng = root.child("train")
    curve = []
    best_val = np.inf
    best_epoch = -1
    snapshot = {k: t.data.copy() for k, t in params.items()}   # at the best epoch
    batch_size = cfg.optimizer.batch_size
    for epoch in range(cfg.optimizer.epochs):
        epoch_rng = run_rng.child(("epoch", epoch))
        order = epoch_rng.child("order").shuffled(train_idx)
        qdraws = epoch_rng.child("questions").integers(0, 1 << 30, len(order))
        totals, gens, uncs, weights = [], [], [], []
        for start in range(0, len(order), batch_size):
            rows = order[start:start + batch_size]
            choice = [int(k) for k in qdraws[start:start + len(rows)]]
            batch = make_batch(dataset, rows, question_choice=choice)
            optimizer.zero()
            step = run_step(model, batch, cfg, epoch_rng.child(("step", start)))
            checked = {**step, **{k: p.grad for k, p in params.items()}}
            bad = [k for k, v in checked.items()
                   if v is not None and not np.isfinite(v).all()]
            if bad:
                raise TrainingDiverged(
                    f"non-finite values at epoch {epoch}, batch ids {batch.ids}: "
                    f"{', '.join(bad)}")
            optimizer.step()
            totals.append(step["total"])
            gens.append(step["l_gen"])
            uncs.append(step["l_u"])
            weights.append(len(rows))
        row = {
            "epoch": epoch,
            "train_loss": _epoch_mean(totals, weights),
            "val_loss": np.nan,
            "l_gen": _epoch_mean(gens, weights),
            "l_u": _epoch_mean(uncs, weights),
        }
        eval_idx = val_idx if val_idx else train_idx
        val_losses, val_weights = [], []
        for start in range(0, len(eval_idx), batch_size):
            rows = eval_idx[start:start + batch_size]
            val_losses.append(teacher_loss(model, make_batch(dataset, rows)))
            val_weights.append(len(rows))
        row["val_loss"] = _epoch_mean(val_losses, val_weights)
        if not np.isfinite(row["val_loss"]):
            raise TrainingDiverged(
                f"non-finite validation loss at epoch {epoch}: {row['val_loss']}")
        curve.append(row)
        if row["val_loss"] < best_val:
            best_val = row["val_loss"]
            best_epoch = epoch
            snapshot = {k: t.data.copy() for k, t in params.items()}
        if log is not None:
            log(f"epoch {epoch}: train {row['train_loss']:.4f} "
                f"val {row['val_loss']:.4f}")
    for name, t in params.items():
        t.data = snapshot[name]
    return TrainResult(model=model, curve=curve, best_epoch=best_epoch,
                       best_val_loss=best_val, train_indices=train_idx,
                       val_indices=val_idx)


def curve_to_csv(curve) -> str:
    cols = ["epoch", "train_loss", "val_loss", "l_gen", "l_u"]
    lines = [",".join(cols)]
    for row in curve:
        lines.append(",".join(repr(row[c]) if c != "epoch" else str(row[c])
                              for c in cols))
    return "\n".join(lines) + "\n"


def train_and_save(cfg: RunConfig, dataset: Dataset, out_dir: str,
                   log=None) -> TrainResult:
    result = train_model(cfg, dataset, log=log)
    os.makedirs(out_dir, exist_ok=True)
    meta = {"config": config_to_dict(cfg), "best_epoch": result.best_epoch,
            "best_val_loss": result.best_val_loss,
            "vocab_fingerprint": dataset.vocab.fingerprint()}
    save_checkpoint(os.path.join(out_dir, "checkpoint.json"),
                    result.model.named_params(), meta=meta)
    with atomic_write(os.path.join(out_dir, "curve.csv")) as fh:
        fh.write(curve_to_csv(result.curve))
    return result


# ---------------------------------------------------------------------------
# evaluation

def tokens_to_words(tokens, vocab) -> list:
    """Token ids up to (excluding) the first EOS, as vocabulary words."""
    words = []
    for t in tokens:
        if t == EOS:
            break
        words.append(vocab.token(int(t)))
    return words


def evaluate_model(model: MultiCueModel, dataset: Dataset, indices, *,
                   cfg: RunConfig, decision_mode: str = None,
                   rng: RngStream = None):
    """Greedy generation over `indices` followed by corpus scoring against
    each example's full reference set. Returns (EvalReport, generation
    records), one record per index in `indices` order.

    Deterministic decisions encode and greedy-decode the examples as one
    batch per EVAL_CHUNK of them, each row a committee of one. A batched
    product can round differently from a batch-1 one, so a record's
    uncertainty floats can differ from a batch-1 decode's in the last bits
    (tokens are tested equal).

    MC decisions encode and decode each example once as the T rows of one
    batch, sample t on stream rng.child(idx).child(t), so a record depends
    only on the model, the example and the stream."""
    indices = list(indices)
    if not indices:
        raise ValueError("evaluation needs at least one example")
    mode = decision_mode if decision_mode is not None else cfg.decision_mode
    if mode not in DECISION_MODES:
        raise ValueError(f"decision mode must be one of {DECISION_MODES}, "
                         f"got {mode!r}")
    if mode == "mc" and rng is None:
        rng = RngStream(cfg.seed).child("eval")
    records = []
    if mode == "deterministic":
        for start in range(0, len(indices), EVAL_CHUNK):
            chunk = indices[start:start + EVAL_CHUNK]
            enc = model.encode(make_batch(dataset, chunk))
            for idx, sample in zip(chunk, generate_greedy(model.decoder, enc.g_enc,
                                                          cfg.max_len)):
                records.append({"id": dataset.bundles[idx].id,
                                "tokens": list(sample.tokens),
                                "samples": [list(sample.tokens)],
                                "epistemic": 0.0,
                                "aleatoric": sample.predictive_uncertainty,
                                "predictive": sample.predictive_uncertainty})
    else:
        for idx in indices:
            stacked = make_batch(dataset, [idx] * cfg.eval_mc_samples)

            def producer(rows, batch=stacked):
                return model.encode(batch, rows).g_enc
            samples, _, unc = generate_mc(model.decoder, producer,
                                          T=cfg.eval_mc_samples,
                                          max_len=cfg.max_len,
                                          rng=rng.child(int(idx)))
            records.append({"id": dataset.bundles[idx].id,
                            "tokens": list(unc["committee_tokens"]),
                            "samples": [list(s.tokens) for s in samples],
                            "epistemic": unc["epistemic"],
                            "aleatoric": unc["aleatoric"],
                            "predictive": unc["predictive"]})
    vocab = dataset.vocab
    candidates, references = [], []
    for idx, record in zip(indices, records):
        record["words"] = tokens_to_words(record["tokens"], vocab)
        candidates.append(record["words"])
        references.append([tokens_to_words(q, vocab)
                           for q in dataset.bundles[idx].questions])
    report = evaluate_corpus(candidates, references)
    return report, records


# ---------------------------------------------------------------------------
# variance analysis

@dataclass
class VarianceRecord:
    """Per-example Monte-Carlo summary of the mixed encoding."""
    id: str
    mc_mean: np.ndarray
    deterministic: np.ndarray
    normalized_variance: float


def variance_records(model: MultiCueModel, dataset: Dataset, indices, *,
                     T: int, rng: RngStream, sample_rate: float = None):
    """T stochastic encodings per example vs the deterministic encoding.

    Each example is encoded as T stacked rows of one batch, sample t on
    stream rng.child(("var", idx)).child(t). The deterministic reference is
    encoded at the same T rows, because a batched product can round
    differently from a batch-1 one: a dropout-free model then gives an MC
    mean equal to the reference bit for bit and a normalized variance of
    exactly 0.

    normalized variance = mean |MC mean - deterministic| / input feature scale,
    where the scale is the mean |value| of the example's image and place
    features. The denominator is model-independent on purpose: encoder weight
    magnitudes vary wildly between combiner variants, so dividing by the
    encoding's own magnitude would make the numbers incomparable across models.
    sample_rate, when given, temporarily forces Bernoulli dropout at that
    rate on every component so no-dropout configurations still produce
    Monte-Carlo spread.
    """
    if T < 2:
        raise ValueError(f"variance analysis needs T >= 2, got {T}")
    override = (dropout_override(model, sample_rate, "bernoulli")
                if sample_rate is not None else nullcontext())
    records = []
    with override:
        for idx in indices:
            batch = make_batch(dataset, [idx] * T)
            det = model.encode(batch).g_enc.data[0].copy()
            stats = mc_predict(
                lambda r, batch=batch: model.encode(batch, r).g_enc,
                T, rng.child(("var", int(idx))))
            mc_mean = stats.mean[0]
            bundle = dataset.bundles[idx]
            feats = np.concatenate([bundle.image_feat, bundle.place_feat])
            scale = float(np.mean(np.abs(feats))) + 1e-12
            nv = float(np.mean(np.abs(mc_mean - det)) / scale)
            records.append(VarianceRecord(id=dataset.bundles[idx].id,
                                          mc_mean=mc_mean.copy(),
                                          deterministic=det,
                                          normalized_variance=nv))
    return records


def variance_csv(records) -> str:
    lines = ["id,normalized_variance"]
    lines += [f"{r.id},{r.normalized_variance!r}" for r in records]
    return "\n".join(lines) + "\n"
