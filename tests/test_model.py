"""Tests for batch assembly and full-model encoding paths."""

import numpy as np
import pytest

from mcvqg.autodiff import Tensor
from mcvqg.data import BOS, EOS, PAD, synth_generate
from mcvqg.decoder import Decoder, decode_teacher_forced
from mcvqg.fusion import CueFusion, Moderator
from mcvqg.model import MultiCueModel, dropout_override, make_batch
from mcvqg.nn import BayesianLSTMCell, BayesianMLP, Dropout, EmbeddingTable
from mcvqg.rng import RngStream

IMAGE_DIM = 24
PLACE_DIM = 8


def small_dataset(n=6, seed=11):
    return synth_generate(n, seed, image_dim=IMAGE_DIM, place_dim=PLACE_DIM)


def small_model(cues=("image", "caption"), combiner="moderator", p=0.3,
                kind="bernoulli", seed=5, vocab_size=61, **kw):
    return MultiCueModel(cues=cues, combiner=combiner, image_dim=IMAGE_DIM,
                         place_dim=PLACE_DIM, embed_dim=5, enc_dim=6,
                         hidden_dim=7, vocab_size=vocab_size, dropout_rate=p,
                         dropout_kind=kind, rng=RngStream(seed).child("m"), **kw)


class TestMakeBatch:
    def test_shapes_and_ids(self):
        ds = small_dataset()
        batch = make_batch(ds, [0, 2, 4])
        assert batch.size == 3
        assert batch.ids == [ds.bundles[i].id for i in (0, 2, 4)]
        assert batch.image.shape == (3, IMAGE_DIM)
        assert batch.place.shape == (3, PLACE_DIM)
        assert batch.tag_ids.shape == (3, 15)
        assert batch.caption_ids.shape[0] == 3
        assert batch.gold.shape[0] == 3

    def test_gold_rows_are_bos_question_padded(self):
        ds = small_dataset()
        batch = make_batch(ds, [0, 1])
        for row, idx in enumerate((0, 1)):
            q = ds.bundles[idx].questions[0]
            assert batch.gold[row, 0] == BOS
            assert list(batch.gold[row, 1:1 + len(q)]) == list(q)
            assert q[-1] == EOS
            assert np.all(batch.gold[row, 1 + len(q):] == PAD)
        assert batch.gold.shape[1] == 1 + max(len(ds.bundles[i].questions[0])
                                              for i in (0, 1))

    def test_caption_padding_and_lengths(self):
        ds = small_dataset()
        batch = make_batch(ds, range(4))
        for row in range(4):
            n = batch.caption_lengths[row]
            assert list(batch.caption_ids[row, :n]) == list(ds.bundles[row].caption)
            assert np.all(batch.caption_ids[row, n:] == PAD)

    def test_question_choice_wraps_by_length(self):
        ds = small_dataset()
        nq = len(ds.bundles[0].questions)
        a = make_batch(ds, [0], question_choice=[1])
        b = make_batch(ds, [0], question_choice=[1 + nq])
        np.testing.assert_array_equal(a.gold, b.gold)
        q = ds.bundles[0].questions[1]
        assert list(a.gold[0, 1:1 + len(q)]) == list(q)

    def test_default_choice_is_first_question(self):
        ds = small_dataset()
        a = make_batch(ds, [3])
        b = make_batch(ds, [3], question_choice=[0])
        np.testing.assert_array_equal(a.gold, b.gold)

    def test_empty_batch_rejected(self):
        ds = small_dataset()
        with pytest.raises(ValueError):
            make_batch(ds, [])


class TestConstruction:
    def test_unknown_cue_rejected(self):
        with pytest.raises(ValueError, match="unknown cues"):
            small_model(cues=("image", "meme"))

    def test_multi_cue_requires_image(self):
        with pytest.raises(ValueError, match="image"):
            small_model(cues=("caption", "tag"))

    def test_empty_cues_rejected(self):
        with pytest.raises(ValueError):
            small_model(cues=())

    def test_bad_combiner_rejected(self):
        with pytest.raises(ValueError, match="combiner"):
            small_model(combiner="blender")

    def test_cue_order_is_canonical(self):
        m = small_model(cues=("tag", "image", "caption"))
        assert m.cues == ("image", "caption", "tag")
        assert m.fused_cues == ("caption", "tag")

    def test_single_cue_has_no_fusion_stack(self):
        m = small_model(cues=("caption",))
        assert m.fusion is None and m.moderator is None and m.mixture is None

    def test_mixture_combiner_swaps_out_moderator(self):
        m = small_model(combiner="mixture")
        assert m.moderator is None and m.mixture is not None


class TestEncode:
    def test_single_cue_weights_identically_one(self):
        ds = small_dataset()
        m = small_model(cues=("caption",))
        enc = m.encode(make_batch(ds, [0, 1]))
        np.testing.assert_array_equal(enc.pi.data, np.ones((2, 1)))
        assert enc.mus == {}
        assert enc.order == ("caption",)
        assert enc.g_enc is enc.g_cues["caption"]

    def test_moderator_weights_lie_on_simplex(self):
        ds = small_dataset()
        m = small_model(cues=("image", "caption", "tag"))
        enc = m.encode(make_batch(ds, range(4)))
        assert enc.order == ("caption", "tag")
        assert enc.pi.data.shape == (4, 2)
        assert np.all(enc.pi.data >= 0)
        np.testing.assert_allclose(enc.pi.data.sum(axis=1), 1.0, atol=1e-12)
        assert enc.g_enc.data.shape == (4, 6)

    def test_mixture_path_has_no_weights(self):
        ds = small_dataset()
        m = small_model(cues=("image", "caption", "tag"), combiner="mixture")
        enc = m.encode(make_batch(ds, [0]))
        assert enc.pi is None
        assert enc.g_enc.data.shape == (1, 6)

    def test_same_rng_child_reproduces_encoding_bitwise(self):
        ds = small_dataset()
        m = small_model()
        batch = make_batch(ds, range(3))
        root = RngStream(9)
        a = m.encode(batch, root.child("enc"))
        b = m.encode(batch, root.child("enc"))
        np.testing.assert_array_equal(a.g_enc.data, b.g_enc.data)

    def test_stochastic_pass_differs_from_deterministic(self):
        ds = small_dataset()
        m = small_model()
        batch = make_batch(ds, range(3))
        sto = m.encode(batch, RngStream(9).child("enc"))
        det = m.encode(batch)
        assert not np.allclose(sto.g_enc.data, det.g_enc.data)

    def test_zero_rate_stochastic_equals_deterministic(self):
        ds = small_dataset()
        m = small_model(p=0.0)
        batch = make_batch(ds, range(3))
        sto = m.encode(batch, RngStream(9).child("enc"))
        det = m.encode(batch)
        np.testing.assert_array_equal(sto.g_enc.data, det.g_enc.data)


def _mlp(p, kind):
    net = BayesianMLP([5, 4, 3], Dropout(p, kind), RngStream(1))
    x = Tensor(RngStream(2).normal((2, 5)))
    return lambda rng: [net.forward(x, rng).data]


def _lstm_masks(p, kind):
    cell = BayesianLSTMCell(3, 4, Dropout(p, kind), RngStream(1))

    def call(rng):
        masks = cell.sample_masks(2, rng)
        return [masks.gates, masks.out]
    return call


def _fuse(p, kind):
    fus = CueFusion(4, ("place",), Dropout(p, kind), RngStream(1))
    g_img, g_cue = (Tensor(RngStream(s).normal((2, 4))) for s in (2, 3))
    return lambda rng: [fus.fuse("place", g_img, g_cue, rng).data]


def _gate(p, kind):
    mod = Moderator(5, 4, Dropout(p, kind), RngStream(1))
    mus = {cue: Tensor(RngStream(s).normal((2, 4)))
           for s, cue in ((2, "place"), (3, "caption"))}
    feats = Tensor(RngStream(4).normal((2, 5)))
    return lambda rng: [mod.gate(mus, feats, rng)[0].data]


def _decode(p, kind):
    emb = EmbeddingTable(9, 3, RngStream(1).child("emb"))
    dec = Decoder(4, 3, 5, 9, Dropout(p, kind), RngStream(1).child("dec"), emb)
    g_enc = Tensor(RngStream(2).normal((2, 4)))
    gold = np.array([[BOS, 5, 6, EOS], [BOS, 7, EOS, PAD]])
    def call(rng):
        masks = dec.cell.sample_masks(2, rng.child("cell") if rng else None)
        return [t.data for t in decode_teacher_forced(dec, g_enc, gold, masks=masks)]
    return call


def _encode(p, kind):
    m = small_model(cues=("image", "place", "caption", "tag"), p=p, kind=kind)
    batch = make_batch(small_dataset(), range(3))
    return lambda rng: [m.encode(batch, rng).g_enc.data]


# component -> build(p, kind) -> call(rng or None) -> its output arrays
SWITCHED = {"mlp": _mlp, "lstm_masks": _lstm_masks, "fuse": _fuse, "gate": _gate,
            "decode_teacher_forced": _decode, "encode": _encode}


def _same_bytes(a, b):
    return all(x is None and y is None or
               x is not None and y is not None and x.tobytes() == y.tobytes()
               for x, y in zip(a, b))


class TestStreamIsTheSwitch:
    """A pass is stochastic exactly when it is given a stream."""

    @pytest.mark.parametrize("name", sorted(SWITCHED))
    def test_no_stream_is_the_dropout_free_pass(self, name):
        build = SWITCHED[name]
        off = build(0.0, "bernoulli")(RngStream(7))
        assert _same_bytes(build(0.3, "bernoulli")(None), off)

    @pytest.mark.parametrize("name", sorted(SWITCHED))
    def test_a_stream_turns_dropout_on(self, name):
        call = SWITCHED[name](0.3, "bernoulli")
        assert not _same_bytes(call(RngStream(7)), call(None))

    @pytest.mark.parametrize("p, kind", [(0.0, "bernoulli")])
    @pytest.mark.parametrize("name", sorted(SWITCHED))
    def test_dropout_free_component_draws_nothing(self, name, p, kind, monkeypatch):
        call = SWITCHED[name](p, kind)
        draws = []
        each_id = RngStream._each_id
        monkeypatch.setattr(RngStream, "_each_id",
                            lambda self, *args: draws.append(self) or each_id(self, *args))
        call(RngStream(7))
        assert draws == []

    def test_encode_stochastic_false_drops_the_stream(self):
        m = small_model()
        batch = make_batch(small_dataset(), range(3))
        dropped = m.encode(batch, RngStream(9), stochastic=False).g_enc.data
        assert dropped.tobytes() == m.encode(batch).g_enc.data.tobytes()


class TestNamedParams:
    def test_shared_embedding_appears_once(self):
        m = small_model()
        params = m.named_params()
        assert "embedding.weight" in params
        assert not any(k.startswith("dec.emb") for k in params)
        assert m.decoder.embedding is m.embedding

    def test_no_tensor_registered_twice(self):
        all_cues = ("image", "place", "caption", "tag")
        for kw in ({"cues": all_cues}, {"cues": all_cues, "combiner": "mixture"},
                   {"cues": ("caption",)}):
            params = small_model(**kw).named_params()
            ids = [id(t) for t in params.values()]
            assert len(set(ids)) == len(ids)

    def test_moderator_and_mixture_register_their_params(self):
        with_mod = small_model().named_params()
        with_mix = small_model(combiner="mixture").named_params()
        assert any(k.startswith("moderator") for k in with_mod)
        assert any(k.startswith("mixture") for k in with_mix)
        assert not any(k.startswith("mixture") for k in with_mod)


ALL_CUES = ("image", "place", "caption", "tag")


def dropout_sites(model, batch, rng=None) -> dict:
    """The output of every dropout site of a four-cue moderator model on
    `rng` (None: the deterministic pass): each cue encoder, fusion of each
    cue (fed the deterministic encodings), the gate net, and the decoder
    cell's gate mask (None when it draws none)."""
    sub = (lambda tag: rng.child(tag)) if rng is not None else (lambda tag: None)
    out = {f"encoder.{cue}": g.data
           for cue, g in model.encoders.encode(batch, sub("encoders")).items()}
    g_cues = model.encoders.encode(batch)
    out.update({f"fusion.{cue}": mu.data
                for cue, mu in model.fusion.fuse_all(g_cues, sub("fusion")).items()})
    out["gate_net"] = model.moderator.gate_net.forward(Tensor(batch.image),
                                                       sub("gate")).data
    out["decoder.cell"] = model.decoder.cell.sample_masks(batch.size, sub("dec")).gates
    return out


def assert_deterministic(model, batch, rng):
    """Every site, and the whole encode, gives the stream-free bytes on `rng`."""
    det = dropout_sites(model, batch)
    assert det["decoder.cell"] is None
    assert _same_bytes(dropout_sites(model, batch, rng).values(), det.values())
    assert model.encode(batch, rng).g_enc.data.tobytes() == \
        model.encode(batch).g_enc.data.tobytes()


class TestDropoutOverride:
    def _model(self):
        # rate 0, Gaussian: every site is off until the override turns it on
        m = small_model(cues=ALL_CUES, p=0.0, kind="gaussian")
        return m, make_batch(small_dataset(), range(3))

    def test_forces_and_restores_every_component(self):
        m, batch = self._model()
        rng = RngStream(3).child("e")
        assert_deterministic(m, batch, rng)
        with dropout_override(m, 0.4, "bernoulli"):
            det = dropout_sites(m, batch)
            sto = dropout_sites(m, batch, rng)
            assert sorted(sto) == sorted(
                [f"encoder.{c}" for c in ALL_CUES]
                + [f"fusion.{c}" for c in ALL_CUES[1:]] + ["gate_net", "decoder.cell"])
            for site, out in sto.items():
                if site == "decoder.cell":
                    assert out is not None and set(np.unique(out)) == {0.0, 1.0 / 0.6}
                else:
                    assert not np.allclose(out, det[site]), site
        assert_deterministic(m, batch, rng)

    def test_override_makes_dropout_free_model_stochastic(self):
        m, batch = self._model()
        rng = RngStream(3).child("e")
        with dropout_override(m, 0.4, "bernoulli"):
            assert not np.allclose(m.encode(batch, rng).g_enc.data,
                                   m.encode(batch).g_enc.data)
        assert_deterministic(m, batch, rng)

    def test_restores_after_exception(self):
        m, batch = self._model()
        rng = RngStream(4)
        with pytest.raises(RuntimeError):
            with dropout_override(m, 0.5, "gaussian"):
                raise RuntimeError("boom")
        assert_deterministic(m, batch, rng)

    @pytest.mark.parametrize("rate, kind", [(-0.1, "bernoulli"), (float("nan"), "bernoulli"),
                                            (1.0, "bernoulli"), (0.4, "dropconnect")])
    def test_bad_setting_raises_and_changes_nothing(self, rate, kind):
        m = small_model(p=0.3, kind="gaussian")
        with pytest.raises(ValueError, match="dropout (rate|kind)"):
            with dropout_override(m, rate, kind):
                pass
        assert (m.dropout.rate, m.dropout.kind) == (0.3, "gaussian")
