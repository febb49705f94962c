"""Per-cue fusion and the mixture-of-experts moderator.

Each non-image cue is fused with the image embedding,

    mu_B = dropout(tanh(W_i g_i * W_B g_B + b_B)) @ W_BB   (* elementwise),

with W_i shared across cues. The moderator scores every fused cue against a
gating embedding computed from the raw image features (one `row_dots` node),
softmaxes the scores into expert weights pi, and mixes g_enc = sum_B pi_B mu_B
(one `weighted_sum` node). A plain concatenation+projection combiner stands
in for the moderator in the mixture ablations.
"""

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .nn import BayesianMLP, Dropout, init_bias, init_matrix
from .rng import RngStream

SIMPLEX_TOL = 1e-9


class CueFusion:
    """Fusion weights for a fixed tuple of non-image cues: W_i shared by
    every cue, and W_B, b_B and W_BB owned by cue B alone."""

    def __init__(self, dim: int, cues, dropout: Dropout, rng: RngStream):
        self.cues = tuple(cues)
        self.dropout = dropout
        self.w_img = init_matrix(dim, dim, rng.child("w_img"))
        self.w_cue = {}
        self.bias = {}
        self.w_out = {}
        for cue in self.cues:
            self.w_cue[cue] = init_matrix(dim, dim, rng.child(("w", cue)))
            self.bias[cue] = init_bias(dim)
            self.w_out[cue] = init_matrix(dim, dim, rng.child(("w_out", cue)))

    def fuse(self, cue: str, g_img: Tensor, g_cue: Tensor,
             rng: RngStream = None) -> Tensor:
        """mu_B for one cue; dropout, on exactly when `rng` is given, sits
        before the output projection."""
        if cue not in self.w_cue:
            raise ValueError(f"cue {cue!r} not configured for fusion")
        joint = ad.mul(ad.matmul(g_img, self.w_img), ad.matmul(g_cue, self.w_cue[cue]))
        h = ad.tanh(ad.add_rowvec(joint, self.bias[cue]))
        if self.dropout.active(rng):
            h = self.dropout.apply(h, rng.child(("fuse", cue)))
        return ad.matmul(h, self.w_out[cue])

    def fuse_all(self, encoded: dict, rng: RngStream = None) -> dict:
        g_img = encoded["image"]
        return {cue: self.fuse(cue, g_img, encoded[cue], rng)
                for cue in self.cues if cue in encoded}

    def named_params(self, prefix: str = "fusion"):
        out = {f"{prefix}.w_img": self.w_img}
        for cue in self.cues:
            out[f"{prefix}.{cue}.w"] = self.w_cue[cue]
            out[f"{prefix}.{cue}.b"] = self.bias[cue]
            out[f"{prefix}.{cue}.w_out"] = self.w_out[cue]
        return out


class Moderator:
    """Mixture-of-experts gate: scores fused cues against a gating embedding
    derived from the raw image features, and softmaxes the raw scores into
    the expert weights."""

    def __init__(self, image_dim: int, dim: int, dropout: Dropout, rng: RngStream):
        self.gate_net = BayesianMLP([image_dim, dim, dim], dropout, rng.child("gate_net"))

    def gate(self, mus: dict, image_feats: Tensor, rng: RngStream = None):
        """Returns (pi (B,k), cue order); the scores are the inner products
        of the fused embeddings themselves with the gate net's output, whose
        dropout is on exactly when `rng` is given."""
        order = tuple(mus.keys())
        if not order:
            raise ValueError("moderator needs at least one active cue")
        g_gat = self.gate_net.forward(image_feats, rng.child("gate") if rng else None)
        return ad.row_softmax(ad.row_dots([mus[c] for c in order], g_gat)), order

    def named_params(self, prefix: str = "moderator"):
        return self.gate_net.named_params(f"{prefix}.gate")


def mix_encoding(pi: Tensor, mus: dict, order) -> Tensor:
    """g_enc = sum_B pi_B mu_B, summed in cue order; rejects weights off the
    simplex."""
    p = pi.data
    if p.ndim != 2 or p.shape[1] != len(order):
        raise ad.ShapeError(f"pi {p.shape} does not match {len(order)} cues")
    if np.any(p < -SIMPLEX_TOL) or np.any(np.abs(p.sum(axis=1) - 1.0) > SIMPLEX_TOL):
        raise ValueError(f"mixture weights violate the simplex beyond {SIMPLEX_TOL}")
    return ad.weighted_sum(pi, [mus[c] for c in order])


class MixtureCombiner:
    """Concatenation of the cue embeddings followed by a learned linear
    projection back to d — the moderator's stand-in for *Mix ablations."""

    def __init__(self, n_inputs: int, dim: int, rng: RngStream):
        self.n_inputs = int(n_inputs)
        self.w = init_matrix(n_inputs * dim, dim, rng.child("w_mix"))
        self.b = init_bias(dim)

    def combine(self, embs) -> Tensor:
        embs = list(embs)
        if len(embs) != self.n_inputs:
            raise ad.ShapeError(f"mixture expects {self.n_inputs} embeddings, got {len(embs)}")
        return ad.affine(ad.concat(embs, axis=1), self.w, self.b)

    def named_params(self, prefix: str = "mixture"):
        return {f"{prefix}.w": self.w, f"{prefix}.b": self.b}
