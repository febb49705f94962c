"""Per-cue fusion and the mixture-of-experts moderator.

Each non-image cue is fused with the image embedding,

    mu_B = dropout(tanh(W_i g_i * W_B g_B + b_B)) @ W_BB   (* elementwise),

with W_i shared across cues. The moderator scores each fused cue against a
gating embedding computed from the raw image features, softmaxes the scores
into expert weights pi, and mixes g_enc = sum_B pi_B mu_B. A plain
concatenation+projection combiner stands in for the moderator in the
mixture ablations.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .nn import BayesianMLP, init_bias, init_matrix
from .rng import RngStream

SIMPLEX_TOL = 1e-9


class CueFusion:
    """Fusion weights for a fixed tuple of non-image cues."""

    def __init__(self, dim: int, cues, p: float, kind: str, rng: RngStream,
                 share_caption_tag_out: bool = False):
        self.dim = int(dim)
        self.cues = tuple(cues)
        self.p = float(p)
        self.kind = kind
        self.w_img = init_matrix(dim, dim, rng.child("w_img"))
        self.w_cue = {}
        self.bias = {}
        self.w_out = {}
        for cue in self.cues:
            self.w_cue[cue] = init_matrix(dim, dim, rng.child(("w", cue)))
            self.bias[cue] = init_bias(dim)
            if share_caption_tag_out and cue == "tag" and "caption" in self.w_out:
                self.w_out[cue] = self.w_out["caption"]   # literal shared-matrix reading
            else:
                self.w_out[cue] = init_matrix(dim, dim, rng.child(("w_out", cue)))

    def fuse(self, cue: str, g_img: Tensor, g_cue: Tensor, rng: RngStream = None,
             stochastic: bool = True) -> Tensor:
        """mu_B for one cue; dropout sits before the output projection."""
        if cue not in self.w_cue:
            raise ValueError(f"cue {cue!r} not configured for fusion")
        joint = ad.mul(ad.matmul(g_img, self.w_img), ad.matmul(g_cue, self.w_cue[cue]))
        h = ad.tanh(ad.add_rowvec(joint, self.bias[cue]))
        if stochastic and self.p > 0 and self.kind != "none":
            if rng is None:
                raise ValueError("stochastic fusion needs an RngStream")
            h = ad.dropout(h, self.p, self.kind, rng.child(("fuse", cue)))
        return ad.matmul(h, self.w_out[cue])

    def fuse_all(self, encoded: dict, rng: RngStream = None,
                 stochastic: bool = True) -> dict:
        g_img = encoded["image"]
        return {cue: self.fuse(cue, g_img, encoded[cue], rng, stochastic)
                for cue in self.cues if cue in encoded}

    def named_params(self, prefix: str = "fusion"):
        out = {f"{prefix}.w_img": self.w_img}
        for cue in self.cues:
            out[f"{prefix}.{cue}.w"] = self.w_cue[cue]
            out[f"{prefix}.{cue}.b"] = self.bias[cue]
            key = f"{prefix}.{cue}.w_out"
            if self.w_out[cue] is self.w_out.get("caption") and cue == "tag":
                continue   # shared tensor already emitted under caption
            out[key] = self.w_out[cue]
        return out


class Moderator:
    """Mixture-of-experts gate: scores fused cues against a gating embedding
    derived from the raw image features."""

    def __init__(self, image_dim: int, dim: int, p: float, kind: str, rng: RngStream,
                 temperature: float = 1.0):
        if temperature <= 0:
            raise ValueError(f"temperature must be positive, got {temperature}")
        self.temperature = float(temperature)
        self.gate_net = BayesianMLP([image_dim, dim, dim], p, kind, rng.child("gate_net"))

    def gate(self, mus: dict, image_feats: Tensor, rng: RngStream = None,
             stochastic: bool = True):
        """Returns (pi (B,k), cue order); the scores are taken against the
        fused embeddings themselves."""
        order = tuple(mus.keys())
        if not order:
            raise ValueError("moderator needs at least one active cue")
        g_gat = self.gate_net.forward(image_feats, rng=rng.child("gate") if rng else None,
                                      stochastic=stochastic)
        cols = []
        for cue in order:
            s = ad.dot_rows(mus[cue], g_gat)
            cols.append(ad.reshape(s, (s.shape[0], 1)))
        scores = ad.concat(cols, axis=1)
        if self.temperature != 1.0:
            scores = ad.scale(scores, 1.0 / self.temperature)
        return ad.row_softmax(scores), order

    def named_params(self, prefix: str = "moderator"):
        return self.gate_net.named_params(f"{prefix}.gate")


def mix_encoding(pi: Tensor, mus: dict, order) -> Tensor:
    """g_enc = sum_B pi_B mu_B; rejects weights off the simplex."""
    p = pi.data
    if p.ndim != 2 or p.shape[1] != len(order):
        raise ad.ShapeError(f"pi {p.shape} does not match {len(order)} cues")
    if np.any(p < -SIMPLEX_TOL) or np.any(np.abs(p.sum(axis=1) - 1.0) > SIMPLEX_TOL):
        raise ValueError(f"mixture weights violate the simplex beyond {SIMPLEX_TOL}")
    g_enc = None
    for j, cue in enumerate(order):
        w = ad.reshape(ad.slice_cols(pi, j, j + 1), (p.shape[0],))
        term = ad.colscale(mus[cue], w)
        g_enc = term if g_enc is None else ad.add(g_enc, term)
    return g_enc


class MixtureCombiner:
    """Concatenation of the cue embeddings followed by a learned linear
    projection back to d — the moderator's stand-in for *Mix ablations."""

    def __init__(self, n_inputs: int, dim: int, rng: RngStream):
        self.n_inputs = int(n_inputs)
        self.dim = int(dim)
        self.w = init_matrix(n_inputs * dim, dim, rng.child("w_mix"))
        self.b = init_bias(dim)

    def combine(self, embs) -> Tensor:
        embs = list(embs)
        if len(embs) != self.n_inputs:
            raise ad.ShapeError(f"mixture expects {self.n_inputs} embeddings, got {len(embs)}")
        return ad.affine(ad.concat(embs, axis=1), self.w, self.b)

    def named_params(self, prefix: str = "mixture"):
        return {f"{prefix}.w": self.w, f"{prefix}.b": self.b}
