"""Decoder tests: teacher forcing against a hand-rolled numpy LSTM,
likelihood losses against a per-step numpy reference and their exact
degeneracies, the distorted uncertainty loss, encoding refinement, and
greedy / Monte-Carlo generation."""

import numpy as np
import pytest

from mcvqg import autodiff as ad
from mcvqg.autodiff import ShapeError, Tape, Tensor, grad_check
from mcvqg.data import BOS, EOS, PAD
from mcvqg.decoder import (Decoder, MumcConfig, aleatoric_mc_loss,
                           decode_teacher_forced, distorted_loss, gen_loss,
                           generate_greedy, generate_mc, mumc_refine,
                           targets_and_mask)
from mcvqg.nn import EmbeddingTable
from mcvqg.rng import RngStream

VOCAB = 9
ENC = 5
EMB = 4
HID = 6


def _decoder(p=0.0, kind="bernoulli", seed=11):
    rng = RngStream(seed)
    emb = EmbeddingTable(VOCAB, EMB, rng.child("emb"))
    return Decoder(ENC, EMB, HID, VOCAB, p, kind, rng.child("dec"), emb)


def _gold():
    return np.array([
        [BOS, 5, 6, EOS, PAD],
        [BOS, 7, EOS, PAD, PAD],
        [BOS, 4, 5, 6, EOS],
    ], dtype=np.int64)


def _np_sigmoid(x):
    return np.where(x >= 0, 1.0 / (1.0 + np.exp(-x)),
                    np.exp(x) / (1.0 + np.exp(x)))


def _np_teacher_forced(dec, g_enc, gold):
    """Independent numpy replica of the deterministic decode."""
    wx, wh, b = dec.cell.wx.data, dec.cell.wh.data, dec.cell.b.data
    n = dec.hidden_dim
    h = np.zeros((gold.shape[0], n))
    c = np.zeros_like(h)

    def step(x, h, c):
        pre = x @ wx + b + h @ wh
        gi = _np_sigmoid(pre[:, :n])
        gf = _np_sigmoid(pre[:, n:2 * n])
        go = _np_sigmoid(pre[:, 2 * n:3 * n])
        gc = np.tanh(pre[:, 3 * n:])
        c2 = gf * c + gi * gc
        return go * np.tanh(c2), c2

    h, c = step(g_enc @ dec.in_proj_w.data + dec.in_proj_b.data, h, c)
    logits, variances = [], []
    for t in range(gold.shape[1] - 1):
        h, c = step(dec.embedding.weight.data[gold[:, t]], h, c)
        logits.append(h @ dec.w_out.data + dec.b_out.data)
        pre_v = h @ dec.w_var.data + dec.b_var.data
        variances.append(np.maximum(pre_v, 0.0) + np.log1p(np.exp(-np.abs(pre_v))))
    return logits, variances


def _stacked(steps):
    """Per-step (B, V) arrays as one time-major tensor, row t*B + b."""
    return Tensor(np.concatenate(steps, axis=0))


def _np_log_likelihoods(y, targets):
    m = y.max(axis=1)
    return y[np.arange(len(targets)), targets] - (m + np.log(np.exp(y - m[:, None]).sum(axis=1)))


def _np_neg_masked_mean(step_values, mask):
    """The per-step reduction: sum each step's masked (B,) values, add the
    step sums in step order, and divide by the token count."""
    total = None
    for t, vals in enumerate(step_values):
        term = (vals * mask[:, t]).sum()
        total = term if total is None else total + term
    return total * (-1.0 / float(mask.sum()))


def _np_gen_loss(logits, targets, mask):
    return _np_neg_masked_mean(
        [_np_log_likelihoods(y, targets[:, t]) for t, y in enumerate(logits)], mask)


def _np_aleatoric_loss(logits, variances, targets, mask, T, rng):
    """One step at a time: T tiled copies of the step's logits under its
    own (T*B, V) noise draw, and a log-mean-exp over the T draws."""
    batch = targets.shape[0]
    steps = []
    for t, (y, v) in enumerate(zip(logits, variances)):
        eps = rng.child(("eps", t)).normal((T * batch, y.shape[1]))
        y_hat = np.tile(y, (T, 1)) + eps * np.tile(np.sqrt(v), (T, 1))
        lp = _np_log_likelihoods(y_hat, np.tile(targets[:, t], T)).reshape(T, batch)
        m = lp.max(axis=0)
        steps.append(m + np.log(np.exp(lp - m[None, :]).sum(axis=0) / T))
    return _np_neg_masked_mean(steps, mask)


class TestTeacherForcing:
    def test_matches_numpy_replica(self):
        dec = _decoder()
        gold = _gold()
        g = RngStream(3).normal((3, ENC))
        logits, variances = decode_teacher_forced(dec, Tensor(g), gold, stochastic=False)
        ref_logits, ref_vars = _np_teacher_forced(dec, g, gold)
        steps = gold.shape[1] - 1
        assert logits.shape == variances.shape == (steps * 3, VOCAB)
        for y, ref in zip(np.split(logits.data, steps), ref_logits):
            np.testing.assert_allclose(y, ref, rtol=0, atol=1e-12)
        for v, ref in zip(np.split(variances.data, steps), ref_vars):
            np.testing.assert_allclose(v, ref, rtol=0, atol=1e-12)
            assert np.all(v > 0)

    def test_encoding_reaches_first_step(self):
        dec = _decoder()
        gold = _gold()
        a, _ = decode_teacher_forced(dec, Tensor(np.zeros((3, ENC))), gold, stochastic=False)
        b, _ = decode_teacher_forced(dec, Tensor(np.ones((3, ENC))), gold, stochastic=False)
        assert np.abs(a.data[:3] - b.data[:3]).max() > 1e-6

    def test_gold_must_begin_with_bos(self):
        dec = _decoder()
        bad = _gold()
        bad[0, 0] = 5
        with pytest.raises(ValueError, match="BOS"):
            decode_teacher_forced(dec, Tensor(np.zeros((3, ENC))), bad, stochastic=False)

    def test_gold_must_end_with_eos(self):
        dec = _decoder()
        bad = _gold()
        bad[1, 2] = 7
        with pytest.raises(ValueError, match="EOS"):
            decode_teacher_forced(dec, Tensor(np.zeros((3, ENC))), bad, stochastic=False)

    def test_targets_shift_and_pad_mask(self):
        targets, mask = targets_and_mask(_gold())
        np.testing.assert_array_equal(targets[0], [5, 6, EOS, PAD])
        np.testing.assert_array_equal(mask, [
            [1, 1, 1, 0],
            [1, 1, 0, 0],
            [1, 1, 1, 1],
        ])

    def test_stochastic_masks_are_reused_across_steps(self):
        dec = _decoder(p=0.5)
        gold = _gold()
        g = Tensor(RngStream(3).normal((3, ENC)))
        masks = dec.cell.sample_masks(3, RngStream(8), stochastic=True)
        a, _ = decode_teacher_forced(dec, g, gold, masks=masks)
        b, _ = decode_teacher_forced(dec, g, gold, masks=masks)
        np.testing.assert_array_equal(a.data, b.data)


class TestGenerationLoss:
    def test_uniform_logits_cost_log_vocab(self):
        targets, mask = targets_and_mask(_gold())
        logits = Tensor(np.zeros((3 * targets.shape[1], VOCAB)))
        loss = gen_loss(logits, targets, mask)
        np.testing.assert_allclose(loss.item(), np.log(float(VOCAB)), rtol=1e-14, atol=0)

    def test_hand_computed_single_step(self):
        y = np.array([[0.2, -1.0, 0.5]])
        loss = gen_loss(Tensor(y), np.array([[2]]), np.ones((1, 1)))
        expected = -(y[0, 2] - np.log(np.exp(y[0]).sum()))
        np.testing.assert_allclose(loss.item(), expected, rtol=0, atol=1e-12)

    def test_pad_steps_leave_sum_and_count(self):
        dec = _decoder()
        gold = _gold()
        g = RngStream(4).normal((3, ENC))
        logits, _ = decode_teacher_forced(dec, Tensor(g), gold, stochastic=False)
        targets, mask = targets_and_mask(gold)
        full = gen_loss(logits, targets, mask)
        # recombine per-example losses weighted by their token counts
        acc, count = 0.0, 0.0
        for i in range(3):
            row_logits = Tensor(logits.data[i::3])
            row_loss = gen_loss(row_logits, targets[i:i + 1], mask[i:i + 1])
            acc += row_loss.item() * mask[i].sum()
            count += mask[i].sum()
        np.testing.assert_allclose(full.item(), acc / count, rtol=0, atol=1e-12)

    def test_empty_mask_rejected(self):
        with pytest.raises(ValueError, match="mask"):
            gen_loss(Tensor(np.zeros((1, VOCAB))), np.array([[PAD]]), np.zeros((1, 1)))

    def test_bitwise_equal_to_per_step_reference(self):
        dec = _decoder()
        gold = _gold()
        logits, _ = decode_teacher_forced(dec, Tensor(RngStream(4).normal((3, ENC))), gold,
                                          stochastic=False)
        targets, mask = targets_and_mask(gold)
        ref = _np_gen_loss(np.split(logits.data, targets.shape[1]), targets, mask)
        assert gen_loss(logits, targets, mask).data.tobytes() == ref.tobytes()


class TestAleatoricLoss:
    def test_lrt_sample_formula(self):
        y = Tensor(np.array([[1.0, 2.0]]))
        variance = Tensor(np.array([[0.25, 4.0]]))     # sigma = 0.5, 2.0
        eps = np.array([[1.0, -1.0]])
        np.testing.assert_array_equal(ad.lrt_sample(y, variance, eps).data, [[1.5, 0.0]])

    def test_lrt_shape_mismatch(self):
        with pytest.raises(ShapeError):
            ad.lrt_sample(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))), np.zeros((3, 3)))

    def test_zero_variance_equals_plain_loss_bitwise(self):
        targets, mask = targets_and_mask(_gold())
        rng = RngStream(21)
        logits = _stacked([rng.child(t).normal((3, VOCAB)) for t in range(targets.shape[1])])
        variances = Tensor(np.zeros(logits.shape))
        plain = gen_loss(logits, targets, mask)
        mc = aleatoric_mc_loss(logits, variances, targets, mask, T=7, rng=RngStream(5))
        assert mc.item() == plain.item()

    def test_same_stream_reproducible(self):
        targets, mask = targets_and_mask(_gold())
        rng = RngStream(21)
        logits = _stacked([rng.child(t).normal((3, VOCAB)) for t in range(targets.shape[1])])
        variances = Tensor(np.full(logits.shape, 0.4))
        a = aleatoric_mc_loss(logits, variances, targets, mask, T=5, rng=RngStream(5))
        b = aleatoric_mc_loss(logits, variances, targets, mask, T=5, rng=RngStream(5))
        c = aleatoric_mc_loss(logits, variances, targets, mask, T=5, rng=RngStream(6))
        assert a.item() == b.item()
        assert a.item() != c.item()

    def test_noise_moves_the_loss(self):
        targets, mask = targets_and_mask(_gold())
        rng = RngStream(21)
        logits = _stacked([rng.child(t).normal((3, VOCAB)) for t in range(targets.shape[1])])
        plain = gen_loss(logits, targets, mask)
        big = Tensor(np.full(logits.shape, 4.0))
        mc = aleatoric_mc_loss(logits, big, targets, mask, T=5, rng=RngStream(5))
        assert abs(mc.item() - plain.item()) > 1e-3

    def test_needs_at_least_one_sample(self):
        targets, mask = targets_and_mask(_gold())
        with pytest.raises(ValueError, match="T >= 1"):
            logits = Tensor(np.zeros((3 * targets.shape[1], VOCAB)))
            aleatoric_mc_loss(logits, logits, targets, mask, T=0, rng=RngStream(1))

    def test_bitwise_equal_to_per_step_reference(self):
        dec = _decoder(p=0.4)
        gold = _gold()
        masks = dec.cell.sample_masks(3, RngStream(8), stochastic=True)
        logits, variances = decode_teacher_forced(dec, Tensor(RngStream(4).normal((3, ENC))),
                                                  gold, masks=masks)
        targets, mask = targets_and_mask(gold)
        steps = targets.shape[1]
        for T in (1, 3):
            got = aleatoric_mc_loss(logits, variances, targets, mask, T=T, rng=RngStream(5))
            ref = _np_aleatoric_loss(np.split(logits.data, steps),
                                     np.split(variances.data, steps), targets, mask, T,
                                     RngStream(5))
            assert got.data.tobytes() == ref.tobytes()

    def test_loss_nodes_do_not_grow_with_length(self):
        dec = _decoder(p=0.4)
        counts = set()
        for length in (3, 5, 9):
            gold = np.full((2, length), 4, dtype=np.int64)
            gold[:, 0], gold[:, -1] = BOS, EOS
            targets, mask = targets_and_mask(gold)
            g = Tensor(RngStream(4).normal((2, ENC)), requires_grad=True)
            with Tape() as tape:
                logits, variances = decode_teacher_forced(dec, g, gold, rng=RngStream(8))
                decode_nodes = len(tape)
                gen_loss(logits, targets, mask)
                aleatoric_mc_loss(logits, variances, targets, mask, T=3, rng=RngStream(5))
            counts.add(len(tape) - decode_nodes)
        assert counts == {13}


class TestDistortedLoss:
    def test_zero_gap_is_exactly_zero(self):
        l = Tensor(np.asarray(0.7))
        out = distorted_loss(l, Tensor(np.asarray(0.7)), alpha=3.0)
        assert out.item() == 0.0

    def test_negative_gap_exponential_branch(self):
        out = distorted_loss(Tensor(np.asarray(0.3)), Tensor(np.asarray(0.8)), alpha=2.0)
        np.testing.assert_allclose(out.item(), 2.0 * (np.exp(0.3 - 0.8) - 1.0),
                                   rtol=0, atol=1e-15)
        assert out.item() < 0

    def test_positive_gap_linear_branch(self):
        out = distorted_loss(Tensor(np.asarray(1.0)), Tensor(np.asarray(0.3)), alpha=2.0)
        assert out.item() == 1.0 - 0.3

    def test_gradients_on_both_branches(self):
        x = Tensor(np.array([0.4]), requires_grad=True)

        def f():
            l_plain = ad.sum_all(ad.mul(x, x))
            return distorted_loss(l_plain, Tensor(np.asarray(0.5)), alpha=1.3)

        assert grad_check(f, [x]) <= 1e-6     # 0.16 < 0.5: exponential branch
        x.data[0] = 1.2
        assert grad_check(f, [x]) <= 1e-6     # 1.44 > 0.5: linear branch


class TestRefinement:
    def _pieces(self, seed=13):
        rng = RngStream(seed)
        g = Tensor(rng.child("g").normal((2, 4)), requires_grad=True)
        mus = {
            "place": Tensor(rng.child("mp").normal((2, 4)), requires_grad=True),
            "caption": Tensor(rng.child("mc").normal((2, 4)), requires_grad=True),
        }
        grad = rng.child("grad").normal((2, 4))
        return g, mus, grad

    def test_matches_hand_formula(self):
        g, mus, grad = self._pieces()
        out = mumc_refine(g, mus, grad, gamma=0.7)
        c = -0.7 * grad
        direction = c * mus["place"].data + c * mus["caption"].data
        np.testing.assert_array_equal(out.data, g.data + direction * g.data)

    def test_gamma_zero_is_bitwise_identity(self):
        g, mus, grad = self._pieces()
        out = mumc_refine(g, mus, grad, gamma=0.0)
        np.testing.assert_array_equal(out.data, g.data)

    def test_no_fused_cues_passes_through(self):
        g, _, grad = self._pieces()
        assert mumc_refine(g, {}, grad, gamma=0.5) is g

    def test_rejects_bad_arguments(self):
        g, mus, grad = self._pieces()
        with pytest.raises(ValueError, match="nonnegative"):
            mumc_refine(g, mus, grad, gamma=-0.1)
        with pytest.raises(ShapeError):
            mumc_refine(g, mus, np.zeros((3, 4)), gamma=0.5)

    def test_gradients_flow_to_mus_and_encoding(self):
        g, mus, grad = self._pieces()
        with Tape() as tape:
            out = mumc_refine(g, mus, grad, gamma=0.7)
            loss = ad.sum_all(out)
        tape.backward(loss)
        assert g.grad is not None and np.abs(g.grad).max() > 0
        for mu in mus.values():
            assert mu.grad is not None and np.abs(mu.grad).max() > 0

    def test_fd_with_pinned_direction(self):
        g, mus, grad = self._pieces()
        params = [g, mus["place"], mus["caption"]]

        def f():
            return ad.sum_all(ad.tanh(mumc_refine(g, mus, grad, gamma=0.7)))

        assert grad_check(f, params) <= 1e-6

    def test_config_validation(self):
        MumcConfig().validate()
        with pytest.raises(ValueError, match="mc_samples"):
            MumcConfig(mc_samples=0).validate()
        with pytest.raises(ValueError, match="gamma"):
            MumcConfig(gamma=-1.0).validate()


class TestEndToEndGradients:
    def test_teacher_forced_loss_fd(self):
        dec = _decoder(p=0.4, seed=7)
        gold = _gold()[:2, :4]
        gold[0, 3] = PAD
        gold[0, 2] = EOS
        g_data = RngStream(9).normal((2, ENC))
        masks = dec.cell.sample_masks(2, RngStream(31), stochastic=True)
        targets, mask = targets_and_mask(gold)
        params = [dec.in_proj_w, dec.cell.wx, dec.w_out, dec.b_out,
                  dec.embedding.weight]

        def f():
            logits, _ = decode_teacher_forced(dec, Tensor(g_data), gold, masks=masks)
            return gen_loss(logits, targets, mask)

        assert grad_check(f, params) <= 1e-6

    def test_aleatoric_loss_fd_through_variance_head(self):
        dec = _decoder(p=0.0, seed=7)
        gold = _gold()[:2, :4]
        gold[0, 3] = PAD
        gold[0, 2] = EOS
        g_data = RngStream(9).normal((2, ENC))
        targets, mask = targets_and_mask(gold)
        params = [dec.w_var, dec.b_var, dec.w_out]

        def f():
            logits, variances = decode_teacher_forced(dec, Tensor(g_data), gold,
                                                      stochastic=False)
            return aleatoric_mc_loss(logits, variances, targets, mask, T=3,
                                     rng=RngStream(77))

        assert grad_check(f, params) <= 1e-6

    def test_uncertainty_gradient_lands_on_encoding(self):
        dec = _decoder(p=0.0, seed=7)
        gold = _gold()
        feats = Tensor(RngStream(2).normal((3, ENC)))
        w = Tensor(RngStream(3).normal((ENC, ENC)) * 0.3, requires_grad=True)
        targets, mask = targets_and_mask(gold)
        with Tape() as tape:
            g_enc = ad.tanh(ad.matmul(feats, w))
            logits, variances = decode_teacher_forced(dec, g_enc, gold,
                                                      stochastic=False)
            l_plain = gen_loss(logits, targets, mask)
            l_mc = aleatoric_mc_loss(logits, variances, targets, mask, T=4,
                                     rng=RngStream(5))
            l_u = distorted_loss(l_plain, l_mc)
        tape.backward(l_u)
        assert g_enc.grad is not None
        assert g_enc.grad.shape == (3, ENC)
        assert np.all(np.isfinite(g_enc.grad))
        assert w.grad is not None and np.abs(w.grad).max() > 0


class TestGreedyGeneration:
    def test_stops_at_eos_and_keeps_it(self):
        dec = _decoder()
        dec.b_out.data[:] = -5.0
        dec.b_out.data[EOS] = 5.0
        out = generate_greedy(dec, Tensor(np.zeros((1, ENC))), max_len=8)
        assert out.tokens == [EOS]
        assert len(out.logits) == 1 and len(out.variances) == 1
        assert out.logits[0].shape == (VOCAB,)

    def test_max_len_cutoff_without_eos(self):
        dec = _decoder()
        dec.b_out.data[:] = -5.0
        dec.b_out.data[5] = 5.0
        out = generate_greedy(dec, Tensor(np.zeros((1, ENC))), max_len=4)
        assert out.tokens == [5, 5, 5, 5]

    def test_ties_resolve_to_lowest_id(self):
        dec = _decoder()
        dec.w_out.data[:] = 0.0
        dec.b_out.data[:] = 0.0
        out = generate_greedy(dec, Tensor(np.zeros((1, ENC))), max_len=3)
        assert out.tokens == [0, 0, 0]

    def test_single_example_contract(self):
        dec = _decoder()
        with pytest.raises(ShapeError, match="batch"):
            generate_greedy(dec, Tensor(np.zeros((2, ENC))))

    def test_stochastic_decode_reproducible_by_stream(self):
        dec = _decoder(p=0.4)
        g = Tensor(RngStream(3).normal((1, ENC)))
        a = generate_greedy(dec, g, max_len=6, rng=RngStream(12), stochastic=True)
        b = generate_greedy(dec, g, max_len=6, rng=RngStream(12), stochastic=True)
        assert a.tokens == b.tokens
        for ya, yb in zip(a.logits, b.logits):
            np.testing.assert_array_equal(ya, yb)


def _close(a, b, rel=1e-12):
    return np.max(np.abs(np.asarray(a) - b)) <= rel * np.max(np.abs(b))


def _batch1_committee(dec, g, masks, max_len):
    """Reference committee pass: T batch-1 decoders, one per row of g, in
    lockstep on the argmax of their mean logits. Returns the tokens and,
    averaged over steps, the MC variance of the chosen token's logit and
    the MC-mean predicted variance at that token."""
    states = []
    for t, m in enumerate(masks):
        h, c = dec.cell.initial_state(1)
        states.append(dec.cell.step(dec.project_encoding(Tensor(g[t:t + 1])), h, c, m))
    token, tokens, epi, alea = BOS, [], [], []
    for _ in range(max_len):
        x = dec.embedding.lookup(np.array([token]))
        states = [dec.cell.step(x, h, c, m) for (h, c), m in zip(states, masks)]
        heads = [dec.heads(h) for h, _ in states]
        logits = np.concatenate([y.data for y, _ in heads])
        token = int(np.argmax(logits.mean(axis=0)))
        tokens.append(token)
        epi.append(np.var(logits[:, token], ddof=1))
        alea.append(np.mean([v.data[0, token] for _, v in heads]))
        if token == EOS:
            break
    return tokens, np.mean(epi), np.mean(alea)


class TestMcGeneration:
    def test_rows_match_batch1_decodes_under_the_same_masks(self):
        dec = _decoder(p=0.5)
        T, max_len = 6, 6
        g = RngStream(8).normal((T, ENC))
        rng = RngStream(9)
        samples, stats, unc = generate_mc(dec, lambda r: Tensor(g), T=T,
                                          max_len=max_len, rng=rng)
        masks = [dec.cell.sample_masks(1, rng.child(t).child("dec")) for t in range(T)]
        refs = [generate_greedy(dec, Tensor(g[t:t + 1]), max_len, masks=m)
                for t, m in enumerate(masks)]
        assert len({tuple(r.tokens) for r in refs}) > 1
        for s, ref in zip(samples, refs):
            assert s.tokens == ref.tokens
            assert all(_close(a, b) for a, b in zip(s.logits, ref.logits))
            assert all(_close(a, b) for a, b in zip(s.variances, ref.variances))
        first = np.stack([r.logits[0] for r in refs])
        assert _close(stats.mean, first.mean(axis=0))
        assert _close(stats.variance, first.var(axis=0, ddof=1))
        tokens, epistemic, aleatoric = _batch1_committee(dec, g, masks, max_len)
        assert all(r.tokens != tokens for r in refs)
        assert unc["committee_tokens"] == tokens
        assert _close(unc["epistemic"], epistemic)
        assert _close(unc["aleatoric"], aleatoric)

    def test_encoding_needs_one_row_per_sample(self):
        dec = _decoder(p=0.5)
        g = RngStream(3).normal((1, ENC))
        with pytest.raises(ShapeError):
            generate_mc(dec, lambda r: Tensor(g), T=3, max_len=6, rng=RngStream(9))

    def test_no_dropout_collapses_epistemic_to_exact_zero(self):
        dec = _decoder(p=0.0)
        g = RngStream(3).normal((1, ENC))
        samples, stats, unc = generate_mc(dec, lambda r: Tensor(np.tile(g, (4, 1))),
                                          T=4, max_len=6, rng=RngStream(9))
        assert len(samples) == 4
        assert all(s.tokens == samples[0].tokens for s in samples)
        assert np.all(stats.variance == 0.0)
        assert unc["epistemic"] == 0.0
        assert unc["predictive"] == unc["aleatoric"]

    def test_dropout_produces_spread(self):
        dec = _decoder(p=0.5)
        g = RngStream(3).normal((1, ENC))
        samples, stats, unc = generate_mc(dec, lambda r: Tensor(np.tile(g, (5, 1))),
                                          T=5, max_len=6, rng=RngStream(9))
        assert stats.count == 5
        assert stats.variance.max() > 0
        assert unc["epistemic"] > 0
        assert unc["aleatoric"] > 0
        assert unc["predictive"] == unc["epistemic"] + unc["aleatoric"]
        assert 1 <= len(unc["committee_tokens"]) <= 6

    def test_same_stream_bitwise_repeatable(self):
        dec = _decoder(p=0.5)
        g = RngStream(3).normal((1, ENC))
        a = generate_mc(dec, lambda r: Tensor(np.tile(g, (3, 1))), T=3, max_len=6,
                        rng=RngStream(9))
        b = generate_mc(dec, lambda r: Tensor(np.tile(g, (3, 1))), T=3, max_len=6,
                        rng=RngStream(9))
        assert a[2]["committee_tokens"] == b[2]["committee_tokens"]
        assert a[2]["epistemic"] == b[2]["epistemic"]
        np.testing.assert_array_equal(a[1].mean, b[1].mean)

    def test_single_sample_is_degenerate(self):
        dec = _decoder(p=0.5)
        g = RngStream(3).normal((1, ENC))
        _, stats, unc = generate_mc(dec, lambda r: Tensor(np.tile(g, (1, 1))),
                                    T=1, max_len=6, rng=RngStream(9))
        assert stats.count == 1
        assert np.all(stats.variance == 0.0)
        assert unc["epistemic"] == 0.0
