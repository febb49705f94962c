"""Cue encoders: MC-dropout MLPs for image/place features, variational
LSTMs over caption and tag token sequences. Every encoder maps its cue into
the shared d-dimensional embedding space."""

import numpy as np

from .autodiff import Tensor
from .data import TAG_SLOTS
from .nn import BayesianLSTMCell, BayesianMLP, Dropout, EmbeddingTable
from .rng import RngStream

CUE_NAMES = ("image", "place", "caption", "tag")


def encode_caption(cell: BayesianLSTMCell, embedding: EmbeddingTable, ids: np.ndarray,
                   lengths: np.ndarray, rng: RngStream = None) -> Tensor:
    """Hidden state of each caption at its true length; `ids` is (B, L) with
    PAD right-padding and `lengths` the true lengths, each in [1, L]. Every
    row runs all L steps, and row b's state after step lengths[b] - 1 is
    picked, so padding never reaches the encoding or its gradient."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.ndim != 2 or ids.shape[1] == 0:
        raise ValueError(f"caption ids must be (B, L>=1), got {ids.shape}")
    batch, steps = ids.shape
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.shape != (batch,) or lengths.min() < 1 or lengths.max() > steps:
        raise ValueError(f"caption lengths must be {batch} values in [1, {steps}], "
                         f"got {lengths.tolist()}")
    return cell.sequence(embedding.weight, ids.T, rng, lengths)


def encode_tags(cell: BayesianLSTMCell, embedding: EmbeddingTable, tag_ids: np.ndarray,
                rng: RngStream = None) -> Tensor:
    """Final hidden state after one pass of the cell over the 15-token tag
    sequence (noun||verb||question slots, in that order)."""
    tag_ids = np.asarray(tag_ids, dtype=np.int64)
    if tag_ids.ndim != 2 or tag_ids.shape[1] != 3 * TAG_SLOTS:
        raise ValueError(f"tag ids must be (B, {3 * TAG_SLOTS}), got {tag_ids.shape}")
    return cell.sequence(embedding.weight, tag_ids.T, rng)


class CueEncoders:
    """Owns the per-cue encoder networks for the configured cue set."""

    def __init__(self, cues, image_dim: int, place_dim: int, embed_dim: int,
                 hidden_dim: int, dropout: Dropout, rng: RngStream,
                 embedding: EmbeddingTable = None):
        unknown = set(cues) - set(CUE_NAMES)
        if unknown:
            raise ValueError(f"unknown cues: {sorted(unknown)}")
        self.cues = tuple(c for c in CUE_NAMES if c in set(cues))
        self.embedding = embedding
        self.image_net = self.place_net = self.caption_cell = self.tag_cell = None
        if "image" in self.cues:
            self.image_net = BayesianMLP([image_dim, hidden_dim, hidden_dim], dropout,
                                         rng.child("image_net"))
        if "place" in self.cues:
            self.place_net = BayesianMLP([place_dim, hidden_dim, hidden_dim], dropout,
                                         rng.child("place_net"))
        needs_text = {"caption", "tag"} & set(self.cues)
        if needs_text and self.embedding is None:
            raise ValueError("caption/tag encoders need an embedding table")
        if "caption" in self.cues:
            self.caption_cell = BayesianLSTMCell(embed_dim, hidden_dim, dropout,
                                                 rng.child("caption_cell"))
        if "tag" in self.cues:
            self.tag_cell = BayesianLSTMCell(embed_dim, hidden_dim, dropout,
                                             rng.child("tag_cell"))

    def encode(self, batch, rng: RngStream = None) -> dict:
        """batch carries .image (B,Di), .place (B,Dp), .caption_ids (B,L),
        .caption_lengths (B,), .tag_ids (B,15); returns cue -> (B,d).
        Dropout is on exactly when `rng` is given."""
        sub = (lambda tag: rng.child(tag)) if rng is not None else (lambda tag: None)
        out = {}
        if self.image_net is not None:
            out["image"] = self.image_net.forward(Tensor(batch.image), sub("image"))
        if self.place_net is not None:
            out["place"] = self.place_net.forward(Tensor(batch.place), sub("place"))
        if self.caption_cell is not None:
            out["caption"] = encode_caption(self.caption_cell, self.embedding,
                                            batch.caption_ids, batch.caption_lengths,
                                            sub("caption"))
        if self.tag_cell is not None:
            out["tag"] = encode_tags(self.tag_cell, self.embedding, batch.tag_ids,
                                     sub("tag"))
        return out

    def named_params(self, prefix: str = "enc"):
        out = {}
        for cue, net in zip(CUE_NAMES, (self.image_net, self.place_net,
                                        self.caption_cell, self.tag_cell)):
            if net is not None:
                out.update(net.named_params(f"{prefix}.{cue}"))
        return out
