"""Full model assembly: shared embedding, per-cue Bayesian encoders, image-
conditioned fusion, a moderator (gated mixture) or plain mixture combiner,
and the uncertainty-aware decoder.

Cue-set semantics: a single cue decodes straight from its encoder output
(mixture weights are identically 1); two or more cues require the image cue,
whose encoding multiplies into every fused embedding and whose raw features
drive the moderator gate.
"""

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor
from .cues import CUE_NAMES, CueEncoders
from .data import BOS, PAD, Dataset
from .decoder import Decoder
from .fusion import CueFusion, MixtureCombiner, Moderator, mix_encoding
from .nn import Dropout, EmbeddingTable, param_vectors
from .rng import RngStream

COMBINERS = ("moderator", "mixture")


def check_cue_set(cues, combiner: str):
    """Raise ValueError unless the cues and combiner make a model: a
    nonempty set of known cues, the image cue among two or more, and a known
    combiner."""
    cues = set(cues)
    if not cues:
        raise ValueError("cue set must be nonempty")
    unknown = cues - set(CUE_NAMES)
    if unknown:
        raise ValueError(f"unknown cues: {sorted(unknown)}")
    if len(cues) >= 2 and "image" not in cues:
        raise ValueError("multi-cue fusion requires the image cue")
    if combiner not in COMBINERS:
        raise ValueError(f"combiner must be one of {COMBINERS}, got {combiner!r}")


@dataclass
class Batch:
    """Dense arrays for one mini-batch; text fields are right-PAD-padded."""
    ids: list
    image: np.ndarray            # (B, D_i)
    place: np.ndarray            # (B, D_p)
    caption_ids: np.ndarray      # (B, L_c)
    caption_lengths: np.ndarray  # (B,)
    tag_ids: np.ndarray          # (B, 15)
    gold: np.ndarray             # (B, L_q), BOS + question tokens + EOS

    @property
    def size(self) -> int:
        return len(self.ids)


def make_batch(dataset: Dataset, indices, question_choice=None) -> Batch:
    """Assemble a batch from dataset rows.

    question_choice: per-row index into each bundle's question list (wrapped
    by its length); defaults to the first question everywhere.
    """
    indices = list(indices)
    if not indices:
        raise ValueError("batch needs at least one example")
    bundles = [dataset.bundles[i] for i in indices]
    if question_choice is None:
        question_choice = [0] * len(bundles)
    questions = [b.questions[int(k) % len(b.questions)]
                 for b, k in zip(bundles, question_choice)]
    cap_len = max(len(b.caption) for b in bundles)
    caption_ids = np.full((len(bundles), cap_len), PAD, dtype=np.int64)
    for row, b in enumerate(bundles):
        caption_ids[row, :len(b.caption)] = b.caption
    gold_len = 1 + max(len(q) for q in questions)
    gold = np.full((len(bundles), gold_len), PAD, dtype=np.int64)
    gold[:, 0] = BOS
    for row, q in enumerate(questions):
        gold[row, 1:1 + len(q)] = q
    return Batch(
        ids=[b.id for b in bundles],
        image=np.stack([b.image_feat for b in bundles]),
        place=np.stack([b.place_feat for b in bundles]),
        caption_ids=caption_ids,
        caption_lengths=np.array([len(b.caption) for b in bundles], dtype=np.int64),
        tag_ids=np.array([b.tags.sequence() for b in bundles], dtype=np.int64),
        gold=gold,
    )


@dataclass
class FusedEncoding:
    """One encoding pass: raw cue encodings, fused per-cue embeddings,
    mixture weights (None for the concat combiner), and the mixed
    encoding."""
    g_cues: dict
    mus: dict
    pi: Tensor | None
    order: tuple
    g_enc: Tensor


class MultiCueModel:
    def __init__(self, *, cues, combiner: str, image_dim: int, place_dim: int,
                 embed_dim: int, enc_dim: int, hidden_dim: int, vocab_size: int,
                 dropout_rate: float, dropout_kind: str, rng: RngStream):
        check_cue_set(cues, combiner)
        self.cues = tuple(c for c in CUE_NAMES if c in set(cues))
        # the one setting every dropping component holds
        self.dropout = Dropout(dropout_rate, dropout_kind).validate()
        self.embedding = EmbeddingTable(vocab_size, embed_dim, rng.child("embedding"))
        self.encoders = CueEncoders(self.cues, image_dim, place_dim, embed_dim, enc_dim,
                                    self.dropout, rng.child("encoders"),
                                    embedding=self.embedding)
        self.fused_cues = tuple(c for c in self.cues if c != "image")
        self.fusion = self.moderator = self.mixture = None
        if len(self.cues) >= 2:
            self.fusion = CueFusion(enc_dim, self.fused_cues, self.dropout,
                                    rng.child("fusion"))
            if combiner == "moderator":
                self.moderator = Moderator(image_dim, enc_dim, self.dropout,
                                           rng.child("moderator"))
            else:
                self.mixture = MixtureCombiner(len(self.fused_cues), enc_dim,
                                               rng.child("mixture"))
        self.decoder = Decoder(enc_dim, embed_dim, hidden_dim, vocab_size,
                               self.dropout, rng.child("decoder"), self.embedding)
        self.param_vector, self.grad_vector = param_vectors(self.named_params())

    def encode(self, batch: Batch, rng: RngStream = None,
               stochastic: bool = True) -> FusedEncoding:
        """One encoding pass, stochastic exactly when it is given a stream.
        stochastic=False drops the stream, for callers that pass both."""
        if not stochastic:
            rng = None
        sub = (lambda tag: rng.child(tag)) if rng is not None else (lambda tag: None)
        g_cues = self.encoders.encode(batch, sub("encoders"))
        if len(self.cues) == 1:
            only = self.cues[0]
            g = g_cues[only]
            pi = Tensor(np.ones((g.data.shape[0], 1)))
            return FusedEncoding(g_cues=g_cues, mus={}, pi=pi, order=(only,), g_enc=g)
        mus = self.fusion.fuse_all(g_cues, sub("fusion"))
        if self.moderator is not None:
            pi, order = self.moderator.gate(mus, Tensor(batch.image), sub("moderator"))
            g_enc = mix_encoding(pi, mus, order)
        else:
            order = tuple(mus.keys())
            g_enc = self.mixture.combine([mus[c] for c in order])
            pi = None
        return FusedEncoding(g_cues=g_cues, mus=mus, pi=pi, order=order, g_enc=g_enc)

    def named_params(self) -> dict:
        out = {"embedding.weight": self.embedding.weight}
        out.update(self.encoders.named_params("enc"))
        if self.fusion is not None:
            out.update(self.fusion.named_params("fusion"))
        if self.moderator is not None:
            out.update(self.moderator.named_params("moderator"))
        if self.mixture is not None:
            out.update(self.mixture.named_params("mixture"))
        out.update(self.decoder.named_params("dec"))
        return out


@contextmanager
def dropout_override(model: MultiCueModel, rate: float, kind: str):
    """Temporarily force one dropout setting on the whole model — used by
    the variance analysis so configurations trained without dropout can
    still be probed with Monte-Carlo noise at a common rate. A setting that
    fails `Dropout.validate` raises before anything changes."""
    Dropout(rate, kind).validate()
    drop = model.dropout
    saved = (drop.rate, drop.kind)
    drop.rate, drop.kind = rate, kind
    try:
        yield model
    finally:
        drop.rate, drop.kind = saved
