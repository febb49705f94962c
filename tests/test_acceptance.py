"""End-to-end acceptance gate: eight numbered criteria.

1. Gradient integrity of the full two-pass pipeline loss against central
   finite differences on a toy model (enc width 4, vocab 6).
2. Exact degeneracy identities (zero variance, zero refinement step, zero
   dropout, zero loss gap, single cue).
3. Moderator gate simplex properties and argmax invariance of the
   score-to-weight map under constant shifts.
4. BLEU-1..4 / ROUGE-L / CIDEr against brute-force definitional oracles on
   500 random cases plus five hand-computed fixtures.
5. Memorization: a single example to < 0.05 nats/token with exact greedy
   recovery, and a 50-example set to train BLEU-1 >= 90 in <= 200 epochs.
6. Mean normalized encoding variance ordered across model variants
   (3-cue moderator < 2-cue moderator < dropout-free mixture), 5-seed means.
7. Held-out BLEU-1 cue-ablation ordering with a 1-point tolerance, 5-seed
   means, including MC decisions vs deterministic decisions for the same
   Bernoulli-trained model.
8. Bitwise determinism of the gen-data / train / eval / variance CLI
   artifacts across independent reruns.

The pytest -v row is the pass/fail line per criterion; each test also prints
one `[criterion N] PASS` line with its measurements (visible with -s).
Criteria 5-7 retrain small models and carry the `slow` marker, so
`pytest -m "not slow"` skips them; their time depends on the machine (about
116-119 s, 148-151 s and 109-121 s, some 6.5 minutes together, on a 2-core
machine with Python 3.11 and numpy 2.4, where criterion 1 took 4.7-7.0 s
of its 10 s bound). Everything else finishes in seconds.
"""

import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import mcvqg
from mcvqg import autodiff as ad
from mcvqg.autodiff import Tape, Tensor, grad_check, row_softmax
from mcvqg.config import apply_overrides, config_from_dict
from mcvqg.data import BOS, PAD, synth_generate
from mcvqg.decoder import (aleatoric_mc_loss, decode_teacher_forced,
                           distorted_loss, gen_loss, generate_greedy,
                           generate_mc, mumc_refine, targets_and_mask)
from mcvqg.fusion import Moderator
from mcvqg.metrics import bleu_n, cider, rouge_l
from mcvqg.model import Batch, MultiCueModel, make_batch
from mcvqg.nn import mc_predict
from mcvqg.rng import RngStream
from mcvqg.train import (evaluate_model, run_step, teacher_loss, train_model,
                         variance_records)

# brute-force definitional oracles shared with the metrics unit tests
from test_metrics import _random_sentence, orc_bleu, orc_cider, orc_rouge

EOS = 2


def _toy_model(cues=("image", "place", "caption"), combiner="moderator",
               dropout_rate=0.2, dropout_kind="bernoulli"):
    """Smallest config that still exercises fusion, the moderator gate, the
    variance head, and the two-pass refinement: enc width 4, vocab 6."""
    return MultiCueModel(
        cues=cues, combiner=combiner, image_dim=5, place_dim=4, embed_dim=4,
        enc_dim=4, hidden_dim=5, vocab_size=6, dropout_rate=dropout_rate,
        dropout_kind=dropout_kind, rng=RngStream(3).child("model"))


def _toy_batch():
    feat_rng = np.random.default_rng(7)
    return Batch(
        ids=["a", "b"],
        image=feat_rng.normal(size=(2, 5)),
        place=feat_rng.normal(size=(2, 4)),
        caption_ids=np.array([[4, 5, 4], [5, 4, PAD]], dtype=np.int64),
        caption_lengths=np.array([3, 2], dtype=np.int64),
        tag_ids=np.array([[4, 5, 0, 0, 0, 5, 0, 0, 0, 0, 4, 0, 0, 0, 0],
                          [5, 4, 4, 0, 0, 4, 0, 0, 0, 0, 5, 0, 0, 0, 0]],
                         dtype=np.int64),
        gold=np.array([[BOS, 4, 5, EOS], [BOS, 5, EOS, PAD]], dtype=np.int64))


def _tiled(batch, T):
    """The batch stacked T times: the input of one T-sample MC pass."""
    rows = np.tile(np.arange(batch.size), T)
    return Batch(ids=[batch.ids[i] for i in rows], image=batch.image[rows],
                 place=batch.place[rows], caption_ids=batch.caption_ids[rows],
                 caption_lengths=batch.caption_lengths[rows],
                 tag_ids=batch.tag_ids[rows], gold=batch.gold[rows])


def _toy_cfg(**mumc_overrides):
    mumc = {"mc_samples": 2}
    mumc.update(mumc_overrides)
    return config_from_dict({
        "cues": ["image", "place", "caption"], "enc_dim": 4, "embed_dim": 4,
        "hidden_dim": 5, "image_dim": 5, "place_dim": 4,
        "dropout": {"rate": 0.2, "kind": "bernoulli"},
        "mumc": mumc})


def _first_pass(model, batch, cfg, rng, targets, mask):
    """Uncertainty pass of the training step; stream names match the step so
    every dropout mask and noise draw is reproduced exactly."""
    masks = model.decoder.cell.sample_masks(batch.size, rng.child("dec_masks"),
                                            stochastic=True)
    enc = model.encode(batch, rng.child("enc"), stochastic=True)
    logits, variances = decode_teacher_forced(model.decoder, enc.g_enc,
                                              batch.gold, masks=masks)
    l_plain = gen_loss(logits, targets, mask)
    l_alea = aleatoric_mc_loss(logits, variances, targets, mask,
                               T=cfg.mumc.mc_samples, rng=rng.child("lrt"))
    l_u = distorted_loss(l_plain, l_alea, cfg.mumc.alpha)
    return masks, enc, logits, l_plain, l_u


class TestAcceptance:
    def test_criterion_1_gradient_integrity_full_pipeline(self):
        """Central finite differences (h=1e-5) against the tape gradient of
        the complete loss — fused encoders, moderator gate, logit
        reparameterization, likelihood losses, piecewise uncertainty loss,
        and gradient-reversal refinement — at frozen dropout masks and noise
        draws, every coordinate of every parameter, in under 10 seconds."""
        t0 = time.monotonic()
        model = _toy_model()
        batch = _toy_batch()
        cfg = _toy_cfg()
        rng = RngStream(11).child("step")
        params = model.named_params()
        targets, mask = targets_and_mask(batch.gold)

        for p in params.values():
            p.zero_grad()
        rec = run_step(model, batch, cfg, rng)
        step_grads = {k: (p.grad.copy() if p.grad is not None
                          else np.zeros_like(p.data))
                      for k, p in params.items()}

        # The refinement direction is a stop-gradient constant inside the
        # step, so the checkable objective freezes it at the base point.
        with Tape() as tape1:
            _, enc1, _, _, l_u0 = _first_pass(model, batch, cfg, rng,
                                              targets, mask)
        tape1.backward(l_u0)
        grad_const = enc1.g_enc.grad.copy()

        def objective():
            masks, _, _, _, l_u = _first_pass(model, batch, cfg, rng,
                                              targets, mask)
            enc2 = model.encode(batch, rng.child("enc"), stochastic=True)
            refined = mumc_refine(enc2.g_enc, enc2.mus, grad_const,
                                  cfg.mumc.gamma)
            logits2, _ = decode_teacher_forced(model.decoder, refined,
                                               batch.gold, masks=masks)
            l_gen = gen_loss(logits2, targets, mask)
            return ad.add(l_gen, ad.scale(l_u, cfg.mumc.uncertainty_weight))

        with Tape():
            assert objective().item() == rec["total"]

        for p in params.values():
            p.zero_grad()
        with Tape() as tape:
            loss = objective()
        tape.backward(loss)
        joint_diff = max(
            float(np.max(np.abs((p.grad if p.grad is not None
                                 else np.zeros_like(p.data)) - step_grads[k])))
            for k, p in params.items())
        assert joint_diff <= 1e-13

        err = grad_check(objective, list(params.values()), h=1e-5)
        elapsed = time.monotonic() - t0
        n_coords = sum(p.data.size for p in params.values())
        assert err <= 1e-5
        assert elapsed < 10.0
        print(f"[criterion 1] PASS max rel grad error {err:.3e} <= 1e-5 over "
              f"{n_coords} coordinates in {len(params)} tensors "
              f"({elapsed:.1f}s < 10s)")

    def test_criterion_2_degeneracy_identities(self):
        """Five exact identities, all bitwise (== on floats/arrays)."""
        rng = RngStream(21)
        batch = _toy_batch()
        targets, mask = targets_and_mask(batch.gold)

        # v = 0: the Monte-Carlo likelihood loss collapses onto plain CE.
        draw = np.random.default_rng(5)
        # time-major: row t*2 + b is step t of example b
        logits = Tensor(np.concatenate([draw.normal(size=(2, 6)) for _ in range(3)]))
        variances = Tensor(np.zeros((3 * 2, 6)))
        l_mc = aleatoric_mc_loss(logits, variances, targets, mask, T=5,
                                 rng=rng.child("lrt"))
        l_ce = gen_loss(logits, targets, mask)
        assert l_mc.item() == l_ce.item()

        # gamma = 0: the refined pass reproduces the unrefined pass bitwise.
        model = _toy_model()
        cfg0 = _toy_cfg(gamma=0.0)
        step_rng = rng.child("step")
        with Tape() as tape:
            masks, enc1, logits1, l_plain, l_u = _first_pass(
                model, batch, cfg0, step_rng, targets, mask)
        tape.backward(l_u)
        enc2 = model.encode(batch, step_rng.child("enc"), stochastic=True)
        refined = mumc_refine(enc2.g_enc, enc2.mus, enc1.g_enc.grad, 0.0)
        logits2, _ = decode_teacher_forced(model.decoder, refined, batch.gold,
                                           masks=masks)
        assert np.array_equal(logits1.data, logits2.data)
        assert gen_loss(logits2, targets, mask).item() == l_plain.item()
        for p in model.named_params().values():
            p.zero_grad()
        rec = run_step(model, batch, cfg0, rng.child("step2"))
        assert rec["l_gen"] == rec["l_plain"]

        # p = 0: Monte-Carlo predictive variance vanishes exactly.
        det_model = _toy_model(dropout_rate=0.0, dropout_kind="bernoulli")
        stats = mc_predict(
            lambda r: det_model.encode(_tiled(batch, 6), r, stochastic=True).g_enc,
            T=6, rng=rng.child("mc"))
        assert float(np.max(stats.variance)) == 0.0
        one = Batch(ids=["a"], image=batch.image[:1], place=batch.place[:1],
                    caption_ids=batch.caption_ids[:1],
                    caption_lengths=batch.caption_lengths[:1],
                    tag_ids=batch.tag_ids[:1], gold=batch.gold[:1])
        _, _, unc = generate_mc(
            det_model.decoder,
            lambda r: det_model.encode(_tiled(one, 4), r, stochastic=True).g_enc,
            T=4, max_len=6, rng=rng.child("gen"))
        assert unc["epistemic"] == 0.0

        # delta = 0: both branch expressions of the piecewise loss are 0.
        same = Tensor(np.asarray(1.37))
        assert distorted_loss(same, Tensor(np.asarray(1.37)), 2.5).item() == 0.0
        zero_gap = ad.sub(same, Tensor(np.asarray(1.37)))
        linear_branch = zero_gap.item()
        exp_branch = ad.scale(ad.sub(ad.exp(zero_gap),
                                     Tensor(np.asarray(1.0))), 2.5).item()
        assert linear_branch == 0.0 and exp_branch == 0.0

        # single cue: the gate weight is identically (1).
        solo = _toy_model(cues=("caption",))
        enc = solo.encode(batch, rng.child("solo"), stochastic=True)
        assert enc.pi.data.shape == (2, 1)
        assert np.all(enc.pi.data == 1.0)
        mod = Moderator(image_dim=5, dim=4, p=0.3, kind="bernoulli",
                        rng=RngStream(8).child("mod"))
        pi, order = mod.gate({"caption": Tensor(draw.normal(size=(3, 4)))},
                             Tensor(draw.normal(size=(3, 5))),
                             rng=rng.child("gate"), stochastic=True)
        assert order == ("caption",)
        assert np.all(pi.data == 1.0)
        print("[criterion 2] PASS v=0, gamma=0, p=0, delta=0, single-cue "
              "identities all exact")

    def test_criterion_3_moderator_simplex_and_shift_invariance(self):
        """1000 randomized gate inputs (magnitudes up to 1e3, 1-3 cues,
        stochastic gate net) land on the probability simplex within 1e-12;
        the score-to-weight map keeps its argmax under constant shifts."""
        mod = Moderator(image_dim=6, dim=5, p=0.3, kind="bernoulli",
                        rng=RngStream(7).child("mod"))
        gate_rng = RngStream(99).child("gate")
        draw = np.random.default_rng(1234)
        for trial in range(1000):
            b = int(draw.integers(1, 5))
            k = int(draw.integers(1, 4))
            scale = 10.0 ** int(draw.integers(-2, 4))
            mus = {f"cue{j}": Tensor(draw.normal(size=(b, 5)) * scale)
                   for j in range(k)}
            feats = Tensor(draw.normal(size=(b, 6)) * scale)
            pi, order = mod.gate(mus, feats, rng=gate_rng.child(trial),
                                 stochastic=True)
            assert order == tuple(mus)
            assert pi.data.shape == (b, k)
            assert np.all(pi.data >= 0.0)
            assert float(np.max(np.abs(pi.data.sum(axis=1) - 1.0))) <= 1e-12

        for trial in range(1000):
            b = int(draw.integers(1, 5))
            k = int(draw.integers(2, 5))
            scores = draw.normal(size=(b, k)) * (10.0 ** int(draw.integers(-2, 4)))
            shift = float(draw.normal() * (10.0 ** int(draw.integers(0, 4))))
            base = row_softmax(Tensor(scores)).data
            shifted = row_softmax(Tensor(scores + shift)).data
            assert np.array_equal(np.argmax(base, axis=1),
                                  np.argmax(shifted, axis=1))
        print("[criterion 3] PASS 1000 gate draws on the simplex "
              "(sum within 1e-12) and 1000 shift-invariant argmax checks")

    def test_criterion_4_metric_brute_force_and_fixtures(self):
        """BLEU-1..4 / ROUGE-L / CIDEr equal the brute-force definitional
        computation to 1e-9 on 500 sampled cases (lengths <= 6, 10-token
        vocabulary) and five hand-computed fixtures to 1e-6."""
        rng = np.random.default_rng(42)
        cases = []
        for _ in range(500):
            cand = _random_sentence(rng, 0, 6)
            refs = [_random_sentence(rng, 1, 6)
                    for _ in range(int(rng.integers(1, 4)))]
            cases.append((cand, refs))
        worst = 0.0
        for cand, refs in cases:
            for n in range(1, 5):
                worst = max(worst, abs(bleu_n(cand, refs, n)
                                       - orc_bleu(cand, refs, n)))
            worst = max(worst, abs(rouge_l(cand, refs) - orc_rouge(cand, refs)))
        for start in range(0, 500, 20):
            chunk = cases[start:start + 20]
            cands = [c for c, _ in chunk]
            refs_list = [r for _, r in chunk]
            scores, mean = cider(cands, refs_list)
            o_scores = orc_cider(cands, refs_list)
            worst = max(worst, abs(mean - float(np.mean(o_scores))),
                        max(abs(a - b) for a, b in zip(scores, o_scores)))
        assert worst <= 1e-9

        # CIDEr by hand: idf(a)=idf(d)=log 2, idf(b)=0 (b never referenced),
        # so item 1's unigram cosine is 1/sqrt(2) and its only bigram carries
        # zero document frequency (order skipped); item 2 matches exactly.
        cider_scores, cider_mean = cider([["a", "b"], ["c"]],
                                         [[["a", "d"]], [["c"]]])
        fixture_err = max(
            abs(bleu_n(("a", "b", "c"), [("a", "b", "d")], 1) - 2.0 / 3.0),
            abs(bleu_n(("a", "b", "a", "b"), [("a", "b", "a", "c")], 2)
                - math.sqrt(0.5)),
            abs(bleu_n(("a", "b"), [("a", "b", "c", "d")], 1) - math.exp(-1.0)),
            abs(rouge_l(("a", "b", "c", "d"), [("b", "a", "c", "e")]) - 0.5),
            abs(cider_scores[0] - 10.0 / math.sqrt(2.0)),
            abs(cider_scores[1] - 10.0),
            abs(cider_mean - (10.0 / math.sqrt(2.0) + 10.0) / 2.0))
        assert fixture_err <= 1e-6
        print(f"[criterion 4] PASS 500 brute-force cases (worst gap "
              f"{worst:.2e} <= 1e-9), 5 hand fixtures (worst gap "
              f"{fixture_err:.2e} <= 1e-6)")

    @pytest.mark.slow
    def test_criterion_5_memorization_and_toy_fit(self):
        """(a) one example to < 0.05 nats/token with exact greedy recovery;
        (b) 50 examples to train BLEU-1 >= 90 within 200 epochs, < 5 min.

        (b) reads 92.19171982012871 at seed 0, only 2.2 BLEU above its
        bound, and it moves with the last bits of training. Summing the
        masked token log-likelihoods with one np.sum instead of step by
        step read 88.87; also running the output heads once over all
        stacked steps read 87.30. Two epochs of either variant on the
        benchmark's training configs left parameters within 2.1e-14 of
        these. A change that moves training bits has to rerun this
        criterion; its seed and bound stay as they are."""
        ds1 = synth_generate(1, 0, image_dim=24, place_dim=8, questions_per=1)
        cfg1 = config_from_dict({
            "cues": ["image", "caption", "tag"], "enc_dim": 12, "embed_dim": 8,
            "hidden_dim": 16, "image_dim": 24, "place_dim": 8, "seed": 0,
            "val_fraction": 0.0, "dropout": {"rate": 0.0, "kind": "none"},
            "optimizer": {"algorithm": "adam", "learning_rate": 0.1,
                          "epochs": 150, "batch_size": 1},
            "mumc": {"mc_samples": 2}})
        res1 = train_model(cfg1, ds1)
        nats = teacher_loss(res1.model, make_batch(ds1, [0]))
        enc = res1.model.encode(make_batch(ds1, [0]), None, stochastic=False)
        sample = generate_greedy(res1.model.decoder, enc.g_enc, cfg1.max_len)
        gold = list(ds1.bundles[0].questions[0])
        assert nats < 0.05
        assert sample.tokens == gold

        t0 = time.monotonic()
        ds50 = synth_generate(50, 3, image_dim=24, place_dim=8, noise=0.1,
                              questions_per=1)
        cfg50 = config_from_dict({
            "cues": ["caption"], "enc_dim": 16, "embed_dim": 12,
            "hidden_dim": 24, "image_dim": 24, "place_dim": 8, "seed": 0,
            "val_fraction": 0.0, "dropout": {"rate": 0.0, "kind": "none"},
            "optimizer": {"algorithm": "adam", "learning_rate": 0.008,
                          "epochs": 200, "batch_size": 1},
            "mumc": {"mc_samples": 2}})
        assert cfg50.optimizer.epochs <= 200
        res50 = train_model(cfg50, ds50)
        report, _ = evaluate_model(res50.model, ds50, res50.train_indices,
                                   cfg=cfg50)
        elapsed = time.monotonic() - t0
        assert report.bleu[1] >= 90.0
        assert elapsed < 300.0
        print(f"[criterion 5] PASS 1-example {nats:.4f} nats/token (< 0.05) "
              f"with exact greedy; 50-example train BLEU-1 "
              f"{report.bleu[1]:.1f} >= 90 in {elapsed:.0f}s (< 300s)")

    @pytest.mark.slow
    def test_criterion_6_variance_ordering_across_variants(self):
        """Mean normalized encoding variance over a common Bernoulli(0.3)
        probe, averaged over 5 training seeds: 3-cue moderator < 2-cue
        moderator < dropout-free mixture. Individual seeds may violate the
        ordering; the seed means must not."""
        t0 = time.monotonic()
        ds = synth_generate(500, 11, image_dim=32, place_dim=16, noise=0.1,
                            questions_per=5)

        def variant_cfg(cues, combiner, kind, seed):
            return config_from_dict({
                "cues": list(cues), "combiner": combiner,
                "enc_dim": 16, "embed_dim": 12, "hidden_dim": 24,
                "image_dim": 32, "place_dim": 16, "seed": seed,
                "val_fraction": 0.1,
                "dropout": {"rate": 0.3 if kind == "bernoulli" else 0.0,
                            "kind": kind},
                "optimizer": {"algorithm": "adam", "learning_rate": 0.01,
                              "epochs": 20, "batch_size": 25},
                "mumc": {"mc_samples": 2}})

        specs = {
            "moderator3": (("image", "caption", "tag"), "moderator", "bernoulli"),
            "moderator2": (("image", "caption"), "moderator", "bernoulli"),
            "mixture3": (("image", "caption", "tag"), "mixture", "none"),
        }
        per_seed = {name: [] for name in specs}
        for seed in range(5):
            for name, (cues, combiner, kind) in specs.items():
                cfg = variant_cfg(cues, combiner, kind, seed)
                model = train_model(cfg, ds).model
                recs = variance_records(model, ds, range(20), T=5,
                                        rng=RngStream(123).child("probe"),
                                        sample_rate=0.3,
                                        sample_kind="bernoulli")
                per_seed[name].append(
                    float(np.mean([r.normalized_variance for r in recs])))
        means = {name: float(np.mean(vals)) for name, vals in per_seed.items()}
        elapsed = time.monotonic() - t0
        assert means["moderator3"] < means["moderator2"] < means["mixture3"]
        print(f"[criterion 6] PASS mean normalized variance "
              f"{means['moderator3']:.3f} (3-cue moderator) < "
              f"{means['moderator2']:.3f} (2-cue moderator) < "
              f"{means['mixture3']:.3f} (mixture, no dropout) "
              f"over 5 seeds ({elapsed:.0f}s)")

    @pytest.mark.slow
    def test_criterion_7_cue_ablation_ordering(self):
        """Held-out BLEU-1 means over 5 seeds: the 4-cue moderator with MC
        decisions >= the 3-cue model >= the best single-cue model, and MC
        decisions >= deterministic decisions for the same Bernoulli-trained
        weights — each ordering non-strict with a 1 BLEU point tolerance."""
        t0 = time.monotonic()
        ds = synth_generate(100, 5, image_dim=32, place_dim=16, noise=0.1,
                            questions_per=5)

        def cfg_for(cues, seed):
            return config_from_dict({
                "cues": list(cues), "combiner": "moderator",
                "enc_dim": 16, "embed_dim": 12, "hidden_dim": 24,
                "image_dim": 32, "place_dim": 16, "seed": seed,
                "val_fraction": 0.25, "eval_mc_samples": 20,
                "dropout": {"rate": 0.1, "kind": "bernoulli"},
                "optimizer": {"algorithm": "adam", "learning_rate": 0.01,
                              "epochs": 40, "batch_size": 20},
                "mumc": {"mc_samples": 2}})

        cue_sets = {
            "full": ("image", "place", "caption", "tag"),
            "three": ("image", "caption", "tag"),
            "image": ("image",), "place": ("place",),
            "caption": ("caption",), "tag": ("tag",),
        }
        mc_means, det_full = {}, []
        for name, cues in cue_sets.items():
            vals = []
            for seed in range(5):
                cfg = cfg_for(cues, seed)
                res = train_model(cfg, ds)
                rep, _ = evaluate_model(res.model, ds, res.val_indices,
                                        cfg=cfg, decision_mode="mc")
                vals.append(rep.bleu[1])
                if name == "full":
                    # same weights, dropout off at decision time
                    off = apply_overrides(cfg, {"mc_inference": False})
                    rep_det, _ = evaluate_model(res.model, ds,
                                                res.val_indices, cfg=off,
                                                decision_mode="mc")
                    det_full.append(rep_det.bleu[1])
            mc_means[name] = float(np.mean(vals))
        det_mean = float(np.mean(det_full))
        best_single = max(mc_means[k]
                          for k in ("image", "place", "caption", "tag"))
        elapsed = time.monotonic() - t0
        assert mc_means["full"] >= mc_means["three"] - 1.0
        assert mc_means["three"] >= best_single - 1.0
        assert mc_means["full"] >= det_mean - 1.0
        print(f"[criterion 7] PASS held-out BLEU-1 means: 4-cue "
              f"{mc_means['full']:.2f} >= 3-cue {mc_means['three']:.2f} >= "
              f"best single {best_single:.2f} (tolerance 1.0); MC decisions "
              f"{mc_means['full']:.2f} >= deterministic {det_mean:.2f} "
              f"({elapsed:.0f}s)")

    def test_criterion_8_artifact_determinism(self, tmp_path):
        """Two independent CLI reruns of gen-data -> train -> eval ->
        variance produce byte-identical artifacts."""
        t0 = time.monotonic()
        cfg = {
            "cues": ["image", "caption"], "combiner": "moderator",
            "enc_dim": 8, "embed_dim": 6, "hidden_dim": 10,
            "image_dim": 24, "place_dim": 8, "seed": 0,
            "val_fraction": 0.25, "eval_mc_samples": 4,
            "dropout": {"rate": 0.2, "kind": "bernoulli"},
            "optimizer": {"algorithm": "adam", "learning_rate": 0.05,
                          "epochs": 2, "batch_size": 4},
            "mumc": {"mc_samples": 2},
            "dataset": "data.jsonl", "out_dir": "run"}
        commands = [
            ["gen-data", "--n", "12", "--seed", "5", "--out", "data.jsonl",
             "--image-dim", "24", "--place-dim", "8", "--questions-per", "2"],
            ["train", "--config", "config.json"],
            ["eval", "--config", "config.json", "--checkpoint",
             "run/checkpoint.json", "--split", "val", "--decision", "mc",
             "--out", "evalout"],
            ["variance", "--config", "config.json", "--checkpoint",
             "run/checkpoint.json", "--n", "8", "--mc-samples", "3",
             "--rate", "0.3", "--out", "variance.csv"],
        ]
        artifacts = ["data.jsonl", "run/checkpoint.json", "run/curve.csv",
                     "run/config.json", "evalout/report.csv",
                     "evalout/generations.jsonl", "variance.csv"]
        # The children run in their own working directory, where a relative
        # PYTHONPATH entry such as `src` points nowhere; put the imported
        # package's absolute location first so they run the code under test.
        pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(
            mcvqg.__file__)))
        env = dict(os.environ)
        inherited = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (pkg_root + os.pathsep + inherited if inherited
                             else pkg_root)
        for replica in ("a", "b"):
            workdir = tmp_path / replica
            workdir.mkdir()
            (workdir / "config.json").write_text(
                json.dumps(cfg, indent=2, sort_keys=True) + "\n")
            for argv in commands:
                proc = subprocess.run(
                    [sys.executable, "-m", "mcvqg.cli"] + argv,
                    cwd=workdir, env=env, capture_output=True, text=True)
                assert proc.returncode == 0, (argv, proc.stderr)
            for rel in artifacts:
                assert (workdir / rel).is_file(), rel
        for rel in artifacts:
            a = (tmp_path / "a" / rel).read_bytes()
            b = (tmp_path / "b" / rel).read_bytes()
            assert a == b, f"{rel} differs between reruns"
        sizes = sum(len((tmp_path / "a" / rel).read_bytes())
                    for rel in artifacts)
        print(f"[criterion 8] PASS {len(artifacts)} artifacts byte-identical "
              f"across reruns ({sizes} bytes, {time.monotonic() - t0:.0f}s)")
