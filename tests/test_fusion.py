"""Cue encoders, per-cue fusion, and the mixture-of-experts moderator."""

import numpy as np
import pytest

import mcvqg.autodiff as ad
import mcvqg.cues as cues
from mcvqg.autodiff import Tensor
from mcvqg.data import PAD, synth_generate
from mcvqg.fusion import CueFusion, MixtureCombiner, Moderator, mix_encoding
from mcvqg.nn import BayesianLSTMCell, Dropout, EmbeddingTable
from mcvqg.rng import RngStream

from loss_helpers import total


class TestCueEncoders:
    def _encoders(self, p=0.0, kind="bernoulli", cue_set=("image", "place", "caption", "tag")):
        rng = RngStream(0)
        emb = EmbeddingTable(60, 6, rng.child("emb"))
        return cues.CueEncoders(cue_set, image_dim=24, place_dim=8, embed_dim=6,
                                hidden_dim=5, dropout=Dropout(p, kind),
                                rng=rng.child("enc"), embedding=emb)

    def test_caption_padding_matches_per_example(self):
        enc = self._encoders()
        ids = np.array([[5, 6, 7, PAD, PAD], [8, 9, 10, 11, 12]])
        lengths = np.array([3, 5])
        batched = cues.encode_caption(enc.caption_cell, enc.embedding, ids, lengths)
        solo = cues.encode_caption(enc.caption_cell, enc.embedding,
                                   ids[0:1, :3], np.array([3]))
        assert np.allclose(batched.data[0], solo.data[0], rtol=1e-12)

    @pytest.mark.parametrize("lengths", [[0, 5], [3, 6], [-1, 2], [3]])
    def test_caption_lengths_outside_one_to_l_rejected(self, lengths):
        enc = self._encoders()
        ids = np.array([[5, 6, 7, PAD, PAD], [8, 9, 10, 11, 12]])
        with pytest.raises(ValueError, match="caption lengths"):
            cues.encode_caption(enc.caption_cell, enc.embedding, ids, np.array(lengths))

    # rows of lengths 3, 1, 5; ids 9-11 occur only past a row's length
    RAGGED_IDS = np.array([[1, 2, 3, 9, 10], [4, 11, 9, 10, 11], [5, 6, 7, 8, 1]])
    RAGGED_LENGTHS = np.array([3, 1, 5])

    def _ragged_caption_loss(self, kind):
        cell = BayesianLSTMCell(4, 3, Dropout(0.3, kind), rng=RngStream(30))
        emb = EmbeddingTable(12, 4, RngStream(31))
        weights = Tensor(RngStream(32).normal((3, 3)))

        def f():
            # a fresh stream per call draws the same masks every time
            h = cues.encode_caption(cell, emb, self.RAGGED_IDS, self.RAGGED_LENGTHS,
                                    rng=RngStream(33))
            return total(ad.mul(h, ad.mul(h, weights)))
        return f, [emb.weight, cell.wx, cell.wh, cell.b]

    @pytest.mark.parametrize("kind", ["bernoulli", "gaussian"])
    def test_ragged_caption_gradients_match_fd(self, kind):
        f, params = self._ragged_caption_loss(kind)
        assert ad.grad_check(f, params, h=1e-5) <= 1e-6

    def test_tokens_past_a_rows_length_get_zero_gradient(self):
        f, params = self._ragged_caption_loss("bernoulli")
        emb = params[0]
        with ad.Tape() as tape:
            loss = f()
        tape.backward(loss)
        assert np.all(emb.grad[[9, 10, 11]] == 0.0)
        assert np.all(emb.grad[[0]] == 0.0)          # PAD is not read at all
        assert np.all(np.abs(emb.grad[1:9]).sum(axis=1) > 0)

    def test_all_pad_tags_encode_as_pad_sequence(self):
        enc = self._encoders()
        tag_ids = np.zeros((1, 15), dtype=np.int64)
        got = cues.encode_tags(enc.tag_cell, enc.embedding, tag_ids)
        cell = enc.tag_cell
        want, c = cell.initial_state(1)
        for _ in range(15):
            want, c = cell.step(enc.embedding.lookup(np.array([PAD])), want, c,
                                cell.sample_masks(1))
        assert np.array_equal(got.data, want.data)

    def test_encode_shapes_and_determinism(self):
        enc = self._encoders(p=0.3, kind="bernoulli")
        ds = synth_generate(3, seed=1, image_dim=24, place_dim=8)

        class B:  # minimal batch carrier
            image = np.stack([b.image_feat for b in ds.bundles])
            place = np.stack([b.place_feat for b in ds.bundles])
            caption_ids = np.stack([b.caption for b in ds.bundles])
            caption_lengths = np.array([len(b.caption) for b in ds.bundles])
            tag_ids = np.stack([b.tags.sequence() for b in ds.bundles])

        a = enc.encode(B, rng=RngStream(2, stream=5))
        b = enc.encode(B, rng=RngStream(2, stream=5))
        for cue in ("image", "place", "caption", "tag"):
            assert a[cue].shape == (3, 5)
            assert np.array_equal(a[cue].data, b[cue].data)

    def test_cue_subset_builds_only_what_it_needs(self):
        enc = self._encoders(cue_set=("image", "caption"))
        assert enc.place_net is None and enc.tag_cell is None
        names = enc.named_params()
        assert any("image" in n for n in names)
        assert not any("place" in n for n in names)

    def test_unknown_cue_rejected(self):
        with pytest.raises(ValueError):
            self._encoders(cue_set=("image", "depth"))


class TestCueFusion:
    def test_identity_weights_give_tanh_of_product(self):
        fus = CueFusion(3, ("place",), Dropout(0.0, "bernoulli"), rng=RngStream(0))
        fus.w_img.data = np.eye(3)
        fus.w_cue["place"].data = np.eye(3)
        fus.w_out["place"].data = np.eye(3)
        g_i = np.array([[0.5, -1.0, 2.0]])
        g_p = np.array([[1.5, 0.3, -0.2]])
        mu = fus.fuse("place", Tensor(g_i), Tensor(g_p))
        assert np.allclose(mu.data, np.tanh(g_i * g_p), rtol=1e-14)

    def test_zero_output_weights_give_zero(self):
        fus = CueFusion(3, ("caption",), Dropout(0.0, "bernoulli"), rng=RngStream(1))
        fus.w_out["caption"].data = np.zeros((3, 3))
        mu = fus.fuse("caption", Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))
        assert np.array_equal(mu.data, np.zeros((2, 3)))

    def test_dropout_before_output_projection(self):
        # with an all-zero dropout mask the output is exactly zero
        fus = CueFusion(2, ("place",), Dropout(0.5, "bernoulli"), rng=RngStream(2))
        g = Tensor(np.ones((1, 2)))
        seen_zero = False
        for s in range(300):
            rng = RngStream(3, stream=s)
            mask = fus.dropout.mask((1, 2), rng.child(("fuse", "place")))
            if np.all(mask == 0):
                mu = fus.fuse("place", g, g, rng=rng)
                assert np.array_equal(mu.data, np.zeros((1, 2)))
                seen_zero = True
                break
        assert seen_zero

    def test_shared_caption_tag_output_flag(self):
        # every cue owns its output projection
        separate = CueFusion(3, ("caption", "tag"), Dropout(0.0, "bernoulli"), rng=RngStream(4))
        assert separate.w_out["tag"] is not separate.w_out["caption"]

    def test_unconfigured_cue_rejected(self):
        fus = CueFusion(3, ("place",), Dropout(0.0, "bernoulli"), rng=RngStream(5))
        with pytest.raises(ValueError):
            fus.fuse("tag", Tensor(np.ones((1, 3))), Tensor(np.ones((1, 3))))


class TestModerator:
    def _setup(self, n_cues=3, batch=4, dim=5, seed=0):
        rng = RngStream(seed)
        mod = Moderator(image_dim=6, dim=dim, dropout=Dropout(0.0, "bernoulli"), rng=rng.child("mod"))
        feats = Tensor(rng.child("x").normal((batch, 6)))
        names = ("place", "caption", "tag")[:n_cues]
        mus = {c: Tensor(rng.child(c).normal((batch, dim))) for c in names}
        return mod, mus, feats

    def test_single_cue_gives_weight_one(self):
        mod, mus, feats = self._setup(n_cues=1)
        pi, order = mod.gate(mus, feats)
        assert order == ("place",)
        assert np.array_equal(pi.data, np.ones((4, 1)))

    def test_simplex_under_extreme_inputs(self):
        mod, _, _ = self._setup()
        rng = np.random.default_rng(0)
        for _ in range(1000):
            k = int(rng.integers(1, 4))
            mus = {f"c{j}": Tensor(rng.uniform(-1e3, 1e3, (2, 5))) for j in range(k)}
            feats = Tensor(rng.uniform(-1e3, 1e3, (2, 6)))
            pi, order = mod.gate(mus, feats)
            assert np.all(pi.data >= 0)
            assert np.all(np.abs(pi.data.sum(axis=1) - 1.0) <= 1e-12)

    def test_score_shift_preserves_argmax(self):
        # shifting every mu by the same multiple of g_gat shifts all scores
        # equally, which must not move the argmax
        mod, mus, feats = self._setup(seed=3)
        g_gat = mod.gate_net.forward(feats)
        pi1, order = mod.gate(mus, feats)
        denom = (g_gat.data * g_gat.data).sum(axis=1, keepdims=True)
        shift = 7.5 * g_gat.data / denom
        shifted = {c: Tensor(m.data + shift) for c, m in mus.items()}
        pi2, _ = mod.gate(shifted, feats)
        assert np.array_equal(np.argmax(pi1.data, axis=1), np.argmax(pi2.data, axis=1))
        assert np.allclose(pi1.data, pi2.data, atol=1e-9)

    def test_cue_dropping_equals_renormalization(self):
        mod, mus, feats = self._setup(n_cues=3)
        pi_full, order = mod.gate(mus, feats)
        reduced = {c: mus[c] for c in order[:2]}
        pi_red, order_red = mod.gate(reduced, feats)
        top = pi_full.data[:, :2]
        renorm = top / top.sum(axis=1, keepdims=True)
        assert np.allclose(pi_red.data, renorm, atol=1e-12)

    @pytest.mark.parametrize("n_cues", [1, 2, 3])
    def test_weights_are_the_softmax_of_the_cue_scores(self, n_cues):
        # pi = softmax_B(<mu_B, g_gat>), with no temperature or other scaling
        mod, mus, feats = self._setup(n_cues=n_cues, seed=5)
        g_gat = mod.gate_net.forward(feats).data
        pi, order = mod.gate(mus, feats)
        scores = np.stack([(mus[c].data * g_gat).sum(axis=1) for c in order], axis=1)
        e = np.exp(scores - scores.max(axis=1, keepdims=True))
        np.testing.assert_allclose(pi.data, e / e.sum(axis=1, keepdims=True),
                                   rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n_cues", [2, 3])
    def test_gate_and_mixture_record_three_nodes_beyond_the_gate_net(self, n_cues):
        # scores, softmax and mixture, whatever the number of cues
        mod, mus, feats = self._setup(n_cues=n_cues)
        for mu in mus.values():
            mu.requires_grad = True
        with ad.Tape() as net_tape:
            mod.gate_net.forward(feats)
        with ad.Tape() as tape:
            pi, order = mod.gate(mus, feats)
            mix_encoding(pi, mus, order)
        assert len(net_tape) > 0
        assert len(tape) == len(net_tape) + 3


class TestMixEncoding:
    def test_convex_combination(self):
        rng = np.random.default_rng(1)
        mus = {c: Tensor(rng.normal(size=(3, 4))) for c in ("a", "b")}
        pi = Tensor(np.array([[0.25, 0.75], [1.0, 0.0], [0.5, 0.5]]))
        g = mix_encoding(pi, mus, ("a", "b"))
        want = 0.25 * mus["a"].data + 0.75 * mus["b"].data
        assert np.allclose(g.data[0], want[0], rtol=1e-14)
        lo = np.minimum(mus["a"].data, mus["b"].data)
        hi = np.maximum(mus["a"].data, mus["b"].data)
        assert np.all(g.data >= lo - 1e-12) and np.all(g.data <= hi + 1e-12)

    def test_simplex_violation_rejected(self):
        mus = {"a": Tensor(np.ones((1, 2))), "b": Tensor(np.ones((1, 2)))}
        with pytest.raises(ValueError):
            mix_encoding(Tensor(np.array([[0.6, 0.6]])), mus, ("a", "b"))
        with pytest.raises(ValueError):
            mix_encoding(Tensor(np.array([[-0.1, 1.1]])), mus, ("a", "b"))

    def test_gradients_through_fuse_gate_mix(self):
        rng = RngStream(7)
        fus = CueFusion(4, ("place", "caption"), Dropout(0.3, "bernoulli"),
                        rng=rng.child("fus"))
        mod = Moderator(image_dim=5, dim=4, dropout=Dropout(0.3, "bernoulli"), rng=rng.child("mod"))
        g_img = Tensor(rng.child("gi").normal((2, 4)))
        g_p = Tensor(rng.child("gp").normal((2, 4)))
        g_c = Tensor(rng.child("gc").normal((2, 4)))
        feats = Tensor(rng.child("x").normal((2, 5)))

        def f():
            r = RngStream(8, stream=1)
            mus = {"place": fus.fuse("place", g_img, g_p, r.child("fp")),
                   "caption": fus.fuse("caption", g_img, g_c, r.child("fc"))}
            pi, order = mod.gate(mus, feats, rng=r.child("gate"))
            g_enc = mix_encoding(pi, mus, order)
            return total(ad.mul(g_enc, g_enc))

        params = list(fus.named_params().values()) + list(mod.named_params().values())
        assert ad.grad_check(f, params, h=1e-5) <= 1e-5


class TestMixtureCombiner:
    def test_zero_inputs_zero_bias_give_zero(self):
        mix = MixtureCombiner(3, 4, RngStream(0))
        embs = [Tensor(np.zeros((2, 4))) for _ in range(3)]
        assert np.array_equal(mix.combine(embs).data, np.zeros((2, 4)))

    def test_single_input_identity_projection(self):
        mix = MixtureCombiner(1, 3, RngStream(1))
        mix.w.data = np.eye(3)
        x = np.array([[0.1, -2.0, 3.5]])
        assert np.array_equal(mix.combine([Tensor(x)]).data, x)

    def test_arity_checked(self):
        mix = MixtureCombiner(2, 3, RngStream(2))
        with pytest.raises(ad.ShapeError):
            mix.combine([Tensor(np.zeros((1, 3)))])
