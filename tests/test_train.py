"""Tests for the training harness: the two-pass uncertainty step (one
encode, one tape swept twice), the epoch loop, evaluation, and the variance
analysis."""

import re

import numpy as np
import pytest

import mcvqg.train as mtrain
from mcvqg.autodiff import Tape, Tensor
from mcvqg.config import DECISION_MODES, RunConfig, config_from_dict
from mcvqg.data import EOS, synth_generate
from mcvqg.decoder import (aleatoric_mc_loss, decode_teacher_forced, distorted_loss,
                           gen_loss, generate_greedy, mumc_refine, targets_and_mask)
from mcvqg.metrics import evaluate_corpus
from mcvqg.model import MultiCueModel, make_batch
from mcvqg.nn import load_checkpoint, restore_params
from mcvqg.rng import RngStream
from mcvqg.train import (TrainingDiverged, build_model, curve_to_csv,
                         evaluate_model, run_step, split_indices,
                         teacher_loss, tokens_to_words, train_and_save,
                         train_model, variance_csv, variance_records)

from test_model import assert_deterministic

IMAGE_DIM = 24
PLACE_DIM = 8

DS = synth_generate(10, 7, image_dim=IMAGE_DIM, place_dim=PLACE_DIM)


def tiny_config(**overrides) -> RunConfig:
    data = {"cues": ["image", "caption"], "enc_dim": 6, "embed_dim": 5,
            "hidden_dim": 7, "image_dim": IMAGE_DIM, "place_dim": PLACE_DIM,
            "seed": 3, "val_fraction": 0.2,
            "optimizer": {"epochs": 2, "batch_size": 4, "learning_rate": 0.05},
            "mumc": {"mc_samples": 3}}
    data.update(overrides)
    return config_from_dict(data)


def capture_grads(model, batch, cfg, seed=17, step=run_step):
    params = model.named_params()
    for p in params.values():
        p.zero_grad()
    losses = step(model, batch, cfg, RngStream(seed).child("step"))
    grads = {k: (None if p.grad is None else p.grad.copy())
             for k, p in params.items()}
    return losses, grads


class TestSplitIndices:
    def test_partition_covers_everything_sorted(self):
        train, val = split_indices(20, 0.25, RngStream(0).child("s"))
        assert sorted(train + val) == list(range(20))
        assert train == sorted(train) and val == sorted(val)
        assert len(val) == 5

    def test_deterministic_per_seed(self):
        a = split_indices(30, 0.2, RngStream(4).child("s"))
        b = split_indices(30, 0.2, RngStream(4).child("s"))
        c = split_indices(30, 0.2, RngStream(5).child("s"))
        assert a == b
        assert a != c

    def test_validation_never_consumes_everything(self):
        train, val = split_indices(2, 0.9, RngStream(1).child("s"))
        assert len(train) == 1 and len(val) == 1
        train, val = split_indices(1, 0.5, RngStream(1).child("s"))
        assert train == [0] and val == []

    def test_zero_fraction_gives_empty_validation(self):
        train, val = split_indices(8, 0.0, RngStream(2).child("s"))
        assert val == [] and len(train) == 8


class TestRunStep:
    def test_loss_parts_are_consistent(self):
        cfg = tiny_config()
        model = build_model(cfg, DS)
        batch = make_batch(DS, range(4))
        losses, grads = capture_grads(model, batch, cfg)
        lam = cfg.mumc.uncertainty_weight
        assert losses["total"] == losses["l_gen"] + lam * losses["l_u"]
        assert all(np.isfinite(v) for v in losses.values())
        assert all(g is not None for g in grads.values())

    def test_frozen_noise_gamma_zero_reproduces_plain_loss(self):
        # pass 2 decodes pass 1's encoding under the same dropout masks, so
        # an inert refinement must reproduce the plain cross-entropy bitwise
        cfg = tiny_config(mumc={"mc_samples": 3, "gamma": 0.0})
        model = build_model(cfg, DS)
        losses, _ = capture_grads(model, make_batch(DS, range(4)), cfg)
        assert losses["l_gen"] == losses["l_plain"]

    def test_active_refinement_changes_the_decode(self):
        cfg = tiny_config(mumc={"mc_samples": 3, "gamma": 1.0})
        model = build_model(cfg, DS)
        losses, _ = capture_grads(model, make_batch(DS, range(4)), cfg)
        assert losses["l_gen"] != losses["l_plain"]

    def test_inert_uncertainty_term_matches_single_pass_step(self):
        cfg_plain = tiny_config(mumc_enabled=False)
        cfg_inert = tiny_config(mumc={"mc_samples": 3, "gamma": 0.0,
                                      "uncertainty_weight": 0.0})
        model = build_model(cfg_plain, DS)
        batch = make_batch(DS, range(4))
        plain_losses, plain_grads = capture_grads(model, batch, cfg_plain)
        inert_losses, inert_grads = capture_grads(model, batch, cfg_inert)
        assert inert_losses["l_gen"] == plain_losses["l_gen"]
        assert inert_losses["total"] == plain_losses["total"]
        for name in plain_grads:
            if plain_grads[name] is None:
                # params only the (zero-weighted) uncertainty term touches
                assert not np.any(inert_grads[name])
            else:
                np.testing.assert_array_equal(plain_grads[name],
                                              inert_grads[name])

    def test_variance_head_gradient_rides_the_uncertainty_weight(self):
        # l_gen never touches the variance head, so its gradient exists
        # exactly when the weighted pass-1 gradient survives
        batch = make_batch(DS, range(4))
        cfg0 = tiny_config(mumc={"mc_samples": 3, "uncertainty_weight": 0.0})
        cfg1 = tiny_config(mumc={"mc_samples": 3, "uncertainty_weight": 1.0})
        model = build_model(cfg0, DS)
        w_var = [k for k in model.named_params() if k.endswith("w_var")]
        assert w_var
        _, g0 = capture_grads(model, batch, cfg0)
        _, g1 = capture_grads(model, batch, cfg1)
        for name in w_var:
            assert np.all(g0[name] == 0.0)
            assert np.any(g1[name] != 0.0)

    def test_gradients_are_affine_in_the_uncertainty_weight(self):
        batch = make_batch(DS, range(4))
        model = build_model(tiny_config(), DS)
        grads = {}
        for lam in (0.0, 1.0, 2.0):
            cfg = tiny_config(mumc={"mc_samples": 3, "uncertainty_weight": lam})
            _, grads[lam] = capture_grads(model, batch, cfg)
        for name in grads[0.0]:
            left = grads[2.0][name] - grads[0.0][name]
            right = 2.0 * (grads[1.0][name] - grads[0.0][name])
            np.testing.assert_allclose(left, right, rtol=1e-9, atol=1e-12)

    def test_same_stream_reproduces_the_step_bitwise(self):
        cfg = tiny_config()
        model = build_model(cfg, DS)
        batch = make_batch(DS, range(4))
        la, ga = capture_grads(model, batch, cfg, seed=5)
        lb, gb = capture_grads(model, batch, cfg, seed=5)
        assert la == lb
        for name in ga:
            np.testing.assert_array_equal(ga[name], gb[name])

    def test_single_pass_step_reports_zero_uncertainty(self):
        cfg = tiny_config(mumc_enabled=False)
        model = build_model(cfg, DS)
        losses, _ = capture_grads(model, make_batch(DS, range(3)), cfg)
        assert losses["l_u"] == 0.0
        assert losses["total"] == losses["l_gen"]


def two_encode_step(model, batch, cfg, rng):
    """The step as it was built before one tape could be swept twice: pass 2
    re-encodes under the same streams on a second tape. Kept as the
    reference that the one-encode `run_step` must match bit for bit."""
    targets, mask = targets_and_mask(batch.gold)
    masks = model.decoder.cell.sample_masks(batch.size, rng.child("dec_masks"))
    if not cfg.mumc_enabled:
        with Tape() as tape:
            enc = model.encode(batch, rng.child("enc"))
            logits, _ = decode_teacher_forced(model.decoder, enc.g_enc,
                                              batch.gold, masks=masks)
            loss = gen_loss(logits, targets, mask)
        tape.backward(loss)
        value = loss.item()
        return {"total": value, "l_gen": value, "l_u": 0.0, "l_aleatoric": value}
    mumc = cfg.mumc
    with Tape() as tape1:
        enc1 = model.encode(batch, rng.child("enc"))
        logits, variances = decode_teacher_forced(model.decoder, enc1.g_enc,
                                                  batch.gold, masks=masks)
        l_plain = gen_loss(logits, targets, mask)
        l_alea = aleatoric_mc_loss(logits, variances, targets, mask,
                                   T=mumc.mc_samples, rng=rng.child("lrt"))
        l_u = distorted_loss(l_plain, l_alea, mumc.alpha)
    tape1.backward(l_u)
    grad_enc = enc1.g_enc.grad
    grad_enc = np.zeros_like(enc1.g_enc.data) if grad_enc is None else grad_enc.copy()
    lam = mumc.uncertainty_weight
    for p in model.named_params().values():
        if p.grad is not None:
            p.grad *= lam
    with Tape() as tape2:
        enc2 = model.encode(batch, rng.child("enc"))
        refined = mumc_refine(enc2.g_enc, enc2.mus, grad_enc, mumc.gamma)
        logits2, _ = decode_teacher_forced(model.decoder, refined,
                                           batch.gold, masks=masks)
        l_gen = gen_loss(logits2, targets, mask)
    tape2.backward(l_gen)
    return {"total": l_gen.item() + lam * l_u.item(), "l_gen": l_gen.item(),
            "l_u": l_u.item(), "l_aleatoric": l_alea.item(),
            "l_plain": l_plain.item()}


ALL_CUES = ["image", "place", "caption", "tag"]
STEP_CONFIGS = {
    "default": {"image_dim": IMAGE_DIM, "place_dim": PLACE_DIM},
    "weighted": {"mumc": {"mc_samples": 3, "uncertainty_weight": 0.5,
                          "gamma": 0.7, "alpha": 2.0}},
    "mumc-off": {"mumc_enabled": False},
    "single-cue": {"cues": ["caption"]},
    "mixture": {"cues": ALL_CUES, "combiner": "mixture"},
    "gaussian": {"cues": ALL_CUES, "dropout": {"kind": "gaussian", "rate": 0.3}},
}


class TestOneEncodeStep:
    @pytest.mark.parametrize("name", sorted(STEP_CONFIGS))
    def test_bitwise_equal_to_the_two_encode_step(self, name):
        overrides = STEP_CONFIGS[name]
        cfg = (config_from_dict(overrides) if name == "default"
               else tiny_config(**overrides))
        model = build_model(cfg, DS)
        batch = make_batch(DS, range(4))
        losses, grads = capture_grads(model, batch, cfg, seed=11)
        ref_losses, ref_grads = capture_grads(model, batch, cfg, seed=11,
                                              step=two_encode_step)
        assert losses == ref_losses
        assert grads.keys() == ref_grads.keys()
        for key in grads:
            assert (grads[key] is None) == (ref_grads[key] is None), key
            if grads[key] is not None:
                assert grads[key].tobytes() == ref_grads[key].tobytes(), key

    @pytest.mark.parametrize("mumc_enabled", [True, False])
    def test_one_encode_per_step(self, mumc_enabled, monkeypatch):
        cfg = tiny_config(mumc_enabled=mumc_enabled)
        model = build_model(cfg, DS)
        calls = []
        original = MultiCueModel.encode

        def counting_encode(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(MultiCueModel, "encode", counting_encode)
        capture_grads(model, make_batch(DS, range(4)), cfg)
        assert len(calls) == 1


class TestOptimizers:
    def test_adam_is_selected_and_updates(self, monkeypatch):
        cfg = tiny_config(optimizer={"learning_rate": 0.01, "epochs": 1,
                                     "batch_size": 4})
        steps = []
        step = mtrain.AdamOptimizer.step
        monkeypatch.setattr(mtrain.AdamOptimizer, "step",
                            lambda self: steps.append(self.lr) or step(self))
        train_model(cfg, DS)
        assert steps == [0.01, 0.01]     # 8 training examples, batches of 4
        model = build_model(cfg, DS)
        params = model.named_params()
        opt = mtrain.AdamOptimizer(params, 0.01)
        before = {k: p.data.copy() for k, p in params.items()}
        opt.zero()
        run_step(model, make_batch(DS, range(4)), cfg, RngStream(0).child("s"))
        opt.step()
        assert any(not np.array_equal(p.data, before[k])
                   for k, p in params.items())

    def test_adam_two_steps_by_hand(self):
        # Kingma & Ba (2015), Algorithm 1, at beta1 0.9, beta2 0.999, eps 1e-8
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        opt = mtrain.AdamOptimizer({"p": p}, lr=0.1)
        g1, g2 = np.array([0.5, -1.0]), np.array([0.25, 2.0])
        p.grad = g1.copy()
        opt.step()
        # at t = 1 the bias corrections undo the (1 - beta) factors: a step of
        # lr against each gradient's sign, shrunk by eps only
        after_one = np.array([1.0 - 0.1 * 0.5 / (0.5 + 1e-8),
                              -2.0 + 0.1 * 1.0 / (1.0 + 1e-8)])
        np.testing.assert_allclose(p.data, after_one, rtol=1e-12, atol=0)
        p.grad = g2.copy()
        opt.step()
        m = 0.9 * (0.1 * g1) + 0.1 * g2
        v = 0.999 * (0.001 * g1 * g1) + 0.001 * g2 * g2
        m_hat, v_hat = m / (1 - 0.9 ** 2), v / (1 - 0.999 ** 2)
        expected = after_one - 0.1 * m_hat / (np.sqrt(v_hat) + 1e-8)
        np.testing.assert_allclose(p.data, expected, rtol=1e-12, atol=0)
        assert opt.t == 2


class TestTrainModel:
    @pytest.mark.parametrize("name", ["image_dim", "place_dim"])
    def test_feature_widths_must_match_the_dataset(self, name):
        with pytest.raises(ValueError, match=f"config {name} is 32 but the dataset"):
            build_model(tiny_config(**{name: 32}), DS)

    def test_curve_shape_and_determinism(self):
        cfg = tiny_config()
        a = train_model(cfg, DS)
        b = train_model(cfg, DS)
        assert len(a.curve) == cfg.optimizer.epochs
        assert a.curve == b.curve
        pa, pb = a.model.named_params(), b.model.named_params()
        for name in pa:
            np.testing.assert_array_equal(pa[name].data, pb[name].data)

    def test_seed_changes_the_run(self):
        a = train_model(tiny_config(seed=1), DS)
        b = train_model(tiny_config(seed=2), DS)
        assert a.curve != b.curve

    def test_best_epoch_params_are_restored(self):
        cfg = tiny_config(optimizer={"epochs": 4, "batch_size": 4,
                                     "learning_rate": 0.3})
        result = train_model(cfg, DS)
        assert result.best_val_loss == min(r["val_loss"] for r in result.curve)
        assert result.curve[result.best_epoch]["val_loss"] == result.best_val_loss
        # the model holds what a run that stops after the best epoch ends with
        assert result.best_epoch < cfg.optimizer.epochs - 1
        short = tiny_config(optimizer={"epochs": result.best_epoch + 1, "batch_size": 4,
                                       "learning_rate": 0.3})
        ended = train_model(short, DS).model.named_params()
        params = result.model.named_params()
        assert sorted(params) == sorted(ended)
        for name, t in params.items():
            assert t.data.tobytes() == ended[name].data.tobytes()
        val_losses, weights = [], []
        bs = cfg.optimizer.batch_size
        for start in range(0, len(result.val_indices), bs):
            rows = result.val_indices[start:start + bs]
            val_losses.append(teacher_loss(result.model, make_batch(DS, rows)))
            weights.append(len(rows))
        recomputed = float(sum(v * w for v, w in zip(val_losses, weights))
                           / sum(weights))
        assert recomputed == result.best_val_loss

    def test_loss_decreases_on_tiny_data(self):
        cfg = tiny_config(val_fraction=0.0,
                          optimizer={"epochs": 8, "batch_size": 5,
                                     "learning_rate": 0.3})
        result = train_model(cfg, DS)
        assert result.curve[-1]["val_loss"] < result.curve[0]["val_loss"]

    def test_exploding_learning_rate_raises_diverged(self):
        # one enormous step overflows weight products on the next forward
        cfg = tiny_config(val_fraction=0.0, mumc_enabled=False,
                          optimizer={"epochs": 3, "batch_size": 5,
                                     "learning_rate": 1e155})
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged):
            train_model(cfg, DS)

    def test_non_finite_gradient_stops_before_the_update(self, monkeypatch):
        # softplus underflows to a variance of exactly 0, so the aleatoric
        # loss stays finite while its backward divides by sqrt(0)
        built, step_ids = {}, []

        def build(cfg, dataset, rng=None):
            model = build_model(cfg, dataset, rng)
            model.decoder.b_var.data[:] = -800.0
            built["model"] = model
            built["bytes"] = {k: p.data.tobytes() for k, p in model.named_params().items()}
            return model

        def step(model, batch, cfg, rng):
            step_ids.append(batch.ids)
            return run_step(model, batch, cfg, rng)

        monkeypatch.setattr(mtrain, "build_model", build)
        monkeypatch.setattr(mtrain, "run_step", step)
        cfg = tiny_config(cues=["caption"],
                          optimizer={"algorithm": "adam", "epochs": 2,
                                     "batch_size": 4, "learning_rate": 0.05})
        with np.errstate(all="ignore"), pytest.raises(TrainingDiverged) as err:
            train_model(cfg, DS)
        assert len(step_ids) == 1
        message = str(err.value)
        assert f"epoch 0, batch ids {step_ids[0]}" in message
        assert "dec.b_var" in message and "l_gen" not in message
        for name, p in built["model"].named_params().items():
            assert p.data.tobytes() == built["bytes"][name], name

    def test_non_finite_validation_loss_raises_diverged(self, monkeypatch):
        monkeypatch.setattr(mtrain, "teacher_loss", lambda model, batch: np.inf)
        with pytest.raises(TrainingDiverged, match="validation loss at epoch 0"):
            train_model(tiny_config(), DS)


class TestCurveCsv:
    def test_header_and_rows(self):
        curve = [{"epoch": 0, "train_loss": 1.5, "val_loss": 1.25,
                  "l_gen": 1.0, "l_u": -0.125}]
        text = curve_to_csv(curve)
        lines = text.strip().split("\n")
        assert lines[0] == "epoch,train_loss,val_loss,l_gen,l_u"
        assert lines[1] == "0,1.5,1.25,1.0,-0.125"

    def test_floats_round_trip_exactly(self):
        cfg = tiny_config()
        result = train_model(cfg, DS)
        lines = curve_to_csv(result.curve).strip().split("\n")
        cols = lines[0].split(",")
        for row, line in zip(result.curve, lines[1:]):
            fields = dict(zip(cols, line.split(",")))
            assert float(fields["train_loss"]) == row["train_loss"]
            assert float(fields["val_loss"]) == row["val_loss"]

    def test_empty_curve_is_header_only(self):
        assert curve_to_csv([]) == "epoch,train_loss,val_loss,l_gen,l_u\n"


class TestTrainAndSave:
    def test_artifacts_restore_the_trained_model(self, tmp_path):
        cfg = tiny_config()
        out = tmp_path / "run"
        result = train_and_save(cfg, DS, str(out))
        assert (out / "checkpoint.json").exists()
        assert (out / "curve.csv").exists()
        arrays, meta = load_checkpoint(out / "checkpoint.json")
        assert meta["best_epoch"] == result.best_epoch
        assert meta["config"]["seed"] == cfg.seed
        clone = build_model(cfg, DS)
        restore_params(clone.named_params(), arrays)
        batch = make_batch(DS, range(4))
        assert teacher_loss(clone, batch) == teacher_loss(result.model, batch)

    def test_rerun_writes_identical_artifacts(self, tmp_path):
        cfg = tiny_config()
        train_and_save(cfg, DS, str(tmp_path / "a"))
        train_and_save(cfg, DS, str(tmp_path / "b"))
        for name in ("checkpoint.json", "curve.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()


class TestEvaluateModel:
    def test_deterministic_records(self):
        cfg = tiny_config()
        model = build_model(cfg, DS)
        report, records = evaluate_model(model, DS, [0, 1, 2], cfg=cfg)
        assert len(records) == 3
        for idx, rec in zip((0, 1, 2), records):
            assert rec["id"] == DS.bundles[idx].id
            assert rec["epistemic"] == 0.0
            assert rec["samples"] == [rec["tokens"]]
            assert rec["words"] == tokens_to_words(rec["tokens"], DS.vocab)
            assert rec["predictive"] >= 0.0
        assert 0.0 <= report.bleu[1] <= 100.0
        assert 0.0 <= report.rouge_l <= 100.0

    def test_mc_mode_draws_a_committee(self):
        cfg = tiny_config(decision_mode="mc", eval_mc_samples=3)
        model = build_model(cfg, DS)
        rng = RngStream(2).child("eval")
        _, records = evaluate_model(model, DS, [0, 1], cfg=cfg, rng=rng)
        for rec in records:
            assert len(rec["samples"]) == 3
            assert rec["epistemic"] >= 0.0
            assert rec["predictive"] == pytest.approx(
                rec["epistemic"] + rec["aleatoric"])
        _, again = evaluate_model(model, DS, [0, 1], cfg=cfg,
                                  rng=RngStream(2).child("eval"))
        assert records == again

    def test_dropout_free_mc_samples_are_identical(self):
        cfg = tiny_config(decision_mode="mc", eval_mc_samples=5,
                          dropout={"rate": 0.0})
        model = build_model(cfg, DS)
        _, records = evaluate_model(model, DS, [0, 1], cfg=cfg)
        for rec in records:
            assert rec["samples"] == [rec["samples"][0]] * 5
            assert rec["epistemic"] == 0.0

    def test_empty_indices_rejected(self):
        cfg = tiny_config()
        model = build_model(cfg, DS)
        with pytest.raises(ValueError):
            evaluate_model(model, DS, [], cfg=cfg)

    def test_unknown_decision_mode_rejected(self):
        cfg = tiny_config()
        model = build_model(cfg, DS)
        match = re.escape(str(DECISION_MODES))
        with pytest.raises(ValueError, match=match):
            evaluate_model(model, DS, [0], cfg=cfg, decision_mode="greedy")

    def test_unknown_decision_mode_rejected_with_a_stream(self):
        cfg = tiny_config()
        model = build_model(cfg, DS)
        match = re.escape(str(DECISION_MODES))
        with pytest.raises(ValueError, match=match):
            evaluate_model(model, DS, [0], cfg=cfg, decision_mode="greedy",
                           rng=RngStream(2).child("eval"))

    def test_tokens_to_words_cuts_at_eos(self):
        words = tokens_to_words([4, 5, EOS, 6], DS.vocab)
        assert words == [DS.vocab.token(4), DS.vocab.token(5)]
        assert tokens_to_words([EOS], DS.vocab) == []


def _scrambled_model(cfg, seed=7, examples=12):
    """An untrained model on a dataset with captions cut to random lengths
    in 1..7, its parameters scaled up and EOS favoured so that greedy
    questions differ between examples and end at different steps."""
    ds = synth_generate(examples, seed, image_dim=IMAGE_DIM, place_dim=PLACE_DIM)
    cut = RngStream(seed).child("ragged").integers(1, 8, examples)
    for bundle, n in zip(ds.bundles, cut):
        bundle.caption = bundle.caption[:int(n)]
    model = build_model(cfg, ds)
    for p in model.named_params().values():
        p.data *= 3.0
    model.decoder.b_out.data[EOS] += 0.7
    return model, ds


def _assert_batch1_equal(model, ds, indices, cfg):
    """Deterministic evaluation against its batch-1 oracle: one encode and
    one greedy decode per example. Tokens and the report are equal, the
    uncertainty floats within 1e-12 relative."""
    report, records = evaluate_model(model, ds, indices, cfg=cfg,
                                     decision_mode="deterministic")
    oracle = []
    for idx in indices:
        enc = model.encode(make_batch(ds, [idx]))
        sample, = generate_greedy(model.decoder, enc.g_enc, cfg.max_len)
        oracle.append(sample)
    assert [r["id"] for r in records] == [ds.bundles[i].id for i in indices]
    for rec, ref in zip(records, oracle):
        assert rec["tokens"] == ref.tokens
        for key in ("aleatoric", "predictive"):
            assert abs(rec[key] - ref.predictive_uncertainty) <= \
                1e-12 * abs(ref.predictive_uncertainty)
    words = [tokens_to_words(s.tokens, ds.vocab) for s in oracle]
    refs = [[tokens_to_words(q, ds.vocab) for q in ds.bundles[i].questions]
            for i in indices]
    assert repr(report) == repr(evaluate_corpus(words, refs))
    return records


class TestBatchedDeterministicEval:
    @pytest.mark.parametrize("overrides", [
        {},
        {"cues": ["image", "place", "caption", "tag"], "combiner": "mixture"},
        {"cues": ["caption"]},
    ], ids=["ragged-moderator", "mixture", "single-caption"])
    def test_matches_batch1_decodes(self, overrides):
        cfg = tiny_config(**overrides)
        model, ds = _scrambled_model(cfg)
        records = _assert_batch1_equal(model, ds, range(12), cfg)
        assert len({tuple(r["tokens"]) for r in records}) > 1
        assert len({len(r["tokens"]) for r in records}) > 1

    def test_chunks_and_index_order(self, monkeypatch):
        monkeypatch.setattr(mtrain, "EVAL_CHUNK", 3)
        cfg = tiny_config()
        model, ds = _scrambled_model(cfg)
        indices = [7, 2, 9, 2, 0, 5, 11, 7]
        records = _assert_batch1_equal(model, ds, indices, cfg)
        assert records[1]["tokens"] == records[3]["tokens"]
        assert records[0]["tokens"] == records[7]["tokens"]


class TestVarianceRecords:
    def test_needs_at_least_two_samples(self):
        cfg = tiny_config()
        model = build_model(cfg, DS)
        with pytest.raises(ValueError, match="T >= 2"):
            variance_records(model, DS, [0], T=1, rng=RngStream(0).child("v"))

    def test_dropout_free_model_has_exactly_zero_variance(self):
        cfg = tiny_config(dropout={"rate": 0.0})
        model = build_model(cfg, DS)
        records = variance_records(model, DS, [0, 1, 2], T=4,
                                   rng=RngStream(0).child("v"))
        assert [r.normalized_variance for r in records] == [0.0, 0.0, 0.0]
        for r in records:
            np.testing.assert_array_equal(r.mc_mean, r.deterministic)

    def test_rate_override_probes_and_restores(self):
        cfg = tiny_config(cues=ALL_CUES, dropout={"rate": 0.0, "kind": "gaussian"})
        model = build_model(cfg, DS)
        records = variance_records(model, DS, [0, 1], T=4,
                                   rng=RngStream(0).child("v"), sample_rate=0.4)
        assert all(r.normalized_variance > 0.0 for r in records)
        assert_deterministic(model, make_batch(DS, range(3)), RngStream(5))

    def test_mc_mean_matches_batch1_encodes(self):
        cfg = tiny_config()
        model = build_model(cfg, DS)
        rng = RngStream(4).child("v")
        records = variance_records(model, DS, [0, 3], T=4, rng=rng)
        for idx, rec in zip((0, 3), records):
            batch = make_batch(DS, [idx])
            stream = rng.child(("var", idx))
            draws = [model.encode(batch, stream.child(t)).g_enc.data[0]
                     for t in range(4)]
            mean = np.mean(draws, axis=0)
            assert np.max(np.abs(rec.mc_mean - mean)) <= 1e-12 * np.max(np.abs(mean))
            assert np.max(np.abs(draws[0] - mean)) > 1e-6

    def test_deterministic_per_stream(self):
        cfg = tiny_config()
        model = build_model(cfg, DS)
        a = variance_records(model, DS, [0, 1], T=3, rng=RngStream(4).child("v"))
        b = variance_records(model, DS, [0, 1], T=3, rng=RngStream(4).child("v"))
        assert [r.normalized_variance for r in a] == \
            [r.normalized_variance for r in b]

    def test_csv_round_trips(self):
        cfg = tiny_config()
        model = build_model(cfg, DS)
        records = variance_records(model, DS, [0, 1], T=3,
                                   rng=RngStream(4).child("v"))
        lines = variance_csv(records).strip().split("\n")
        assert lines[0] == "id,normalized_variance"
        for rec, line in zip(records, lines[1:]):
            rid, nv = line.split(",")
            assert rid == rec.id
            assert float(nv) == rec.normalized_variance
