"""Correctness checks on what the benchmarked calls return.

Each check compares against a value the benchmark computes itself, or
against a property the method must have, and returns a list of problems
(empty when the output is correct). None compares against stored output.
"""

import math
from collections import Counter

import numpy as np

from mcvqg.data import EOS
from mcvqg.model import dropout_override, make_batch

LOSS_PARTS = ("train_loss", "val_loss", "l_gen", "l_u")


def words(tokens, vocab) -> list:
    out = []
    for t in tokens:
        if t == EOS:
            break
        out.append(vocab.token(int(t)))
    return out


def bleu1_max(candidates, references_list) -> float:
    """BLEU-1 in "max" mode on the 0-100 scale: per example, the best over
    single references of clipped unigram precision times the brevity
    penalty, then the mean over examples."""
    scores = []
    for cand, refs in zip(candidates, references_list):
        best = 0.0
        for ref in refs:
            if not cand:
                continue
            ref_counts = Counter(ref)
            clipped = sum(min(n, ref_counts[w]) for w, n in Counter(cand).items())
            bp = 1.0 if len(cand) >= len(ref) else math.exp(1.0 - len(ref) / len(cand))
            best = max(best, bp * clipped / len(cand))
        scores.append(100.0 * best)
    return sum(scores) / len(scores)


def check_training(result, reference) -> list:
    """Finite loss parts, a falling train loss, and a bitwise repeat of
    the reference run's curve and final parameters (same config and seed)."""
    problems = []
    curve = result.curve
    for row in curve:
        bad = [k for k in LOSS_PARTS if not np.isfinite(row[k])]
        if bad:
            problems.append(f"epoch {row['epoch']}: non-finite {bad}")
    if not curve[-1]["train_loss"] < curve[0]["train_loss"]:
        problems.append(f"train loss did not fall: {curve[0]['train_loss']!r} -> "
                        f"{curve[-1]['train_loss']!r}")
    if reference is not None:
        if [repr(row) for row in curve] != [repr(row) for row in reference.curve]:
            problems.append("loss curve differs from the first run of the same seed")
        params = result.model.named_params()
        ref_params = reference.model.named_params()
        if any(params[k].data.tobytes() != ref_params[k].data.tobytes()
               for k in ref_params):
            problems.append("final parameters differ from the first run of the same seed")
    return problems


def check_eval(report, records, dataset, indices, *, max_len, mc_samples=None,
               require_eos=False) -> list:
    """Token ids in the vocabulary, EOS-terminated questions (unless cut at
    max_len; always when `require_eos`), the uncertainty identities of MC
    records when `mc_samples` is given, and BLEU-1 recomputed here."""
    problems = []
    vocab = dataset.vocab
    vsize = len(vocab)
    candidates, references = [], []
    for idx, rec in zip(indices, records):
        tokens = rec["tokens"]
        seqs = [tokens] + list(rec["samples"])
        if any(not (0 <= t < vsize) for s in seqs for t in s):
            problems.append(f"{rec['id']}: token id outside the vocabulary")
        ends = bool(tokens) and tokens[-1] == EOS
        if not ends and (require_eos or len(tokens) != max_len):
            problems.append(f"{rec['id']}: question ends without EOS at length "
                            f"{len(tokens)}")
        if mc_samples is not None:
            epi, alea, pred = rec["epistemic"], rec["aleatoric"], rec["predictive"]
            if len(rec["samples"]) != mc_samples:
                problems.append(f"{rec['id']}: {len(rec['samples'])} samples, "
                                f"expected {mc_samples}")
            if not (epi >= 0.0 and alea > 0.0):
                problems.append(f"{rec['id']}: epistemic {epi!r}, aleatoric {alea!r}")
            if abs(pred - (epi + alea)) > 1e-12 * max(1.0, abs(pred)):
                problems.append(f"{rec['id']}: predictive {pred!r} != "
                                f"epistemic + aleatoric {epi + alea!r}")
        candidates.append(words(tokens, vocab))
        references.append([words(q, vocab) for q in dataset.bundles[idx].questions])
    own = bleu1_max(candidates, references)
    if abs(own - report.bleu[1]) > 1e-9:
        problems.append(f"BLEU-1 {report.bleu[1]!r} differs from the recomputed {own!r}")
    return problems


def check_variance(model, dataset, indices, records, *, T, rate, rng) -> list:
    """Recompute each example's Monte-Carlo mean encoding from T encodes on
    the streams rng.child(("var", idx)).child(t) under the same probe rate,
    and the normalized variance from it."""
    problems = []
    for idx, rec in zip(indices, records):
        batch = make_batch(dataset, [idx])
        stream = rng.child(("var", int(idx)))
        with dropout_override(model, rate, "bernoulli"):
            draws = [model.encode(batch, stream.child(t), stochastic=True).g_enc.data[0]
                     for t in range(T)]
        mean = np.mean(np.stack(draws), axis=0)
        det = model.encode(batch, None, stochastic=False).g_enc.data[0]
        scale = np.max(np.abs(mean))
        if np.max(np.abs(mean - rec.mc_mean)) > 1e-12 * scale:
            problems.append(f"{rec.id}: mc_mean differs from the recomputed mean")
        bundle = dataset.bundles[idx]
        feat_scale = np.mean(np.abs(np.concatenate([bundle.image_feat,
                                                    bundle.place_feat]))) + 1e-12
        nv = np.mean(np.abs(mean - det)) / feat_scale
        if abs(nv - rec.normalized_variance) > 1e-12 * abs(nv):
            problems.append(f"{rec.id}: normalized variance {rec.normalized_variance!r} "
                            f"differs from the recomputed {nv!r}")
    return problems
