"""`autodiff.lstm_sequence`, the one-node LSTM sequence: values and every
gradient against the per-step composition it replaced (`gather_rows` +
`lstm_step` + `Decoder.heads` + `concat`), bit for bit, and against central
differences."""

import numpy as np
import pytest

import mcvqg.autodiff as ad
import mcvqg.cues as cues
import mcvqg.decoder as decoder
import mcvqg.train as mtrain
from mcvqg.autodiff import ShapeError, Tape, Tensor
from mcvqg.config import config_from_dict
from mcvqg.data import PAD, synth_generate
from mcvqg.model import make_batch
from mcvqg.nn import BayesianLSTMCell, Dropout, EmbeddingTable, LstmMasks
from mcvqg.rng import RngStream

from loss_helpers import total

VOCAB, EMBED, HIDDEN = 9, 3, 4


def _composed_sequence(cell, table, ids, masks, lengths=None):
    """The per-step chain `BayesianLSTMCell.sequence` replaced: one gather per
    step, then one step node per step from zeros, then the final state or
    each row's state at its length picked from the concatenated states."""
    inputs = [ad.gather_rows(table, ids[t]) for t in range(ids.shape[0])]
    h, c = cell.initial_state(ids.shape[1])
    states = []
    for x in inputs:
        h, c = cell.step(x, h, c, masks)
        states.append(h)
    if lengths is None:
        return h
    batch = ids.shape[1]
    return ad.gather_rows(ad.concat(states, axis=0), (lengths - 1) * batch + np.arange(batch))


def _composed_teacher_forced(dec, g_enc, gold, masks):
    """The per-step chain `decode_teacher_forced` replaced."""
    h, c = decoder._start(dec, g_enc, masks)
    logits, variances = [], []
    for t in range(gold.shape[1] - 1):
        h, c = dec.cell.step(dec.embedding.lookup(gold[:, t]), h, c, masks)
        y, v = dec.heads(h)
        logits.append(y)
        variances.append(v)
    return ad.concat(logits, axis=0), ad.concat(variances, axis=0)


def _masks(kind, rows, seed=5):
    if kind is None:
        return LstmMasks(None, None)
    drop = Dropout(0.4, kind)
    return LstmMasks(drop.mask((rows, 4 * HIDDEN), RngStream(seed).child("gates")),
                     drop.mask((rows, HIDDEN), RngStream(seed).child("out")))


def _cell(seed=3):
    return BayesianLSTMCell(EMBED, HIDDEN, Dropout(0.0), RngStream(seed))


def _weights(rng, shape):
    """Loss weights with zeros and both signs, so signed zeros reach the sweep."""
    return Tensor(rng.normal(size=shape) * (rng.uniform(size=shape) < 0.6))


def _leaves(cell, table, *extra):
    return [table, cell.wx, cell.wh, cell.b, *extra]


def _grads(tensors):
    return [None if t.grad is None else t.grad.tobytes() for t in tensors]


class TestCueSequences:
    """Caption (each row's state at its length) and tag (final state) runs."""

    def _run(self, fused, kind, ids, lengths, seed):
        rng = np.random.default_rng(seed)
        cell = _cell(seed)
        table = Tensor(rng.normal(size=(VOCAB, EMBED)), requires_grad=True)
        masks = _masks(kind, ids.shape[1], seed)
        weights = _weights(rng, (ids.shape[1], HIDDEN))
        with Tape() as tape:
            if fused:
                pick = None if lengths is None else lengths - 1
                h = ad.lstm_sequence(table, ids, cell.wx, cell.wh, cell.b, masks.gates,
                                     masks.out, pick=pick)
            else:
                h = _composed_sequence(cell, table, ids, masks, lengths)
            loss = ad.scale(total(ad.mul(h, weights)), float(rng.choice([1.0, -1.0])))
        tape.backward(loss)
        return [h.data.tobytes(), loss.data.tobytes()] + _grads(_leaves(cell, table))

    @pytest.mark.parametrize("kind", [None, "bernoulli", "gaussian"])
    @pytest.mark.parametrize("ragged", [False, True])
    def test_bitwise_equal_to_the_per_step_chain(self, kind, ragged):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            steps, rows = int(rng.integers(1, 7)), int(rng.integers(1, 5))
            ids = rng.integers(1, VOCAB, size=(steps, rows))
            lengths = rng.integers(1, steps + 1, size=rows) if ragged else None
            if ragged:
                ids[np.arange(steps)[:, None] >= lengths[None, :]] = PAD
            assert self._run(True, kind, ids, lengths, seed) == \
                self._run(False, kind, ids, lengths, seed)

    @pytest.mark.parametrize("kind", [None, "bernoulli"])
    def test_repeated_ids_bitwise(self, kind):
        # all-PAD tags: every step adds into the same table row
        ids = np.full((15, 2), PAD)
        assert self._run(True, kind, ids, None, 1) == self._run(False, kind, ids, None, 1)

    def test_cell_sequence_is_the_chain_under_one_mask_draw(self):
        cell = BayesianLSTMCell(EMBED, HIDDEN, Dropout(0.5, "gaussian"), RngStream(4))
        table = EmbeddingTable(VOCAB, EMBED, RngStream(5)).weight
        ids = np.array([[1, 2], [3, 3], [4, 1]])
        got = cell.sequence(table, ids, RngStream(9), lengths=np.array([3, 2]))
        want = _composed_sequence(cell, table, ids, cell.sample_masks(2, RngStream(9)),
                                  np.array([3, 2]))
        assert got.data.tobytes() == want.data.tobytes()

    @pytest.mark.parametrize("kind", ["bernoulli", "gaussian"])
    @pytest.mark.parametrize("ragged", [False, True])
    def test_grad_check(self, kind, ragged):
        rng = np.random.default_rng(7)
        cell = _cell(7)
        table = Tensor(rng.normal(size=(VOCAB, EMBED)), requires_grad=True)
        ids = np.array([[1, 2, 3], [4, 4, 0], [5, 6, 0], [7, 1, 0]])
        pick = np.array([3, 0, 0]) if ragged else None
        masks = _masks(kind, 3)
        weights = Tensor(rng.normal(size=(3, HIDDEN)))

        def f():
            h = ad.lstm_sequence(table, ids, cell.wx, cell.wh, cell.b, masks.gates, masks.out,
                                 pick=pick)
            return total(ad.mul(h, weights))

        assert ad.grad_check(f, _leaves(cell, table), h=1e-5) <= 1e-6

    def test_one_tape_node(self):
        cell = _cell()
        table = Tensor(np.ones((VOCAB, EMBED)), requires_grad=True)
        with Tape() as tape:
            cell.sequence(table, np.ones((6, 2), dtype=np.int64))
        assert len(tape) == 1

    def test_shape_and_id_errors(self):
        cell = _cell()
        table = Tensor(np.ones((VOCAB, EMBED)))
        args = (cell.wx, cell.wh, cell.b)
        with pytest.raises(ShapeError):
            ad.lstm_sequence(table, np.ones(3, dtype=np.int64), *args)
        with pytest.raises(ShapeError):
            ad.lstm_sequence(Tensor(np.ones((VOCAB, EMBED + 1))), np.ones((2, 2)), *args)
        with pytest.raises(ShapeError, match="gate_mask"):
            ad.lstm_sequence(table, np.ones((2, 2)), *args, gate_mask=np.ones((2, 3)))
        with pytest.raises(ShapeError, match="pick"):
            ad.lstm_sequence(table, np.ones((2, 2)), *args, pick=np.zeros(3))
        with pytest.raises(IndexError, match="steps"):
            ad.lstm_sequence(table, np.ones((2, 2)), *args, pick=np.array([0, 2]))
        with pytest.raises(IndexError, match="rows"):
            ad.lstm_sequence(table, np.array([[1, VOCAB]]), *args)
        with pytest.raises(ValueError, match="nonempty"):
            cell.sequence(table, np.zeros((0, 2), dtype=np.int64))


def _decoder(kind, seed):
    drop = Dropout(0.4, kind) if kind else Dropout(0.0)
    rng = RngStream(seed)
    emb = EmbeddingTable(VOCAB, EMBED, rng.child("emb"))
    dec = decoder.Decoder(5, EMBED, HIDDEN, VOCAB, drop, rng.child("dec"), emb)
    # nonzero heads biases, so that bias gradients are not the only nonzero ones
    for p in (dec.b_out, dec.b_var, dec.in_proj_b):
        p.data[...] = rng.child(("bias", p.data.size)).normal(p.data.shape)
    return dec


def _gold(rng, rows, steps):
    gold = np.full((rows, steps + 1), PAD)
    gold[:, 0] = 1
    for r in range(rows):
        n = int(rng.integers(1, steps + 1))
        gold[r, 1:n] = rng.integers(3, VOCAB, size=n - 1)
        gold[r, n] = 2
    return gold


class TestTeacherForcedSequence:
    """The decoder's node: steps and both heads."""

    def _run(self, fused, kind, seed, read):
        rng = np.random.default_rng(seed)
        rows, steps = int(rng.integers(1, 4)), int(rng.integers(1, 6))
        dec = _decoder(kind, seed)
        g_enc = Tensor(rng.normal(size=(rows, 5)), requires_grad=True)
        gold = _gold(rng, rows, steps)
        masks = dec.cell.sample_masks(rows, RngStream(seed) if kind else None)
        wy, wv = (_weights(rng, (rows * steps, VOCAB)) for _ in range(2))
        decode = decoder.decode_teacher_forced if fused else _composed_teacher_forced
        with Tape() as tape:
            y, v = decode(dec, g_enc, gold, masks)
            parts = {"logits": total(ad.mul(y, wy)), "variances": total(ad.mul(v, wv))}
            loss = parts[read] if read != "both" else ad.add(parts["logits"],
                                                             parts["variances"])
        tape.backward(loss)
        leaves = [g_enc] + list(dec.named_params().values()) + [dec.embedding.weight]
        return [y.data.tobytes(), v.data.tobytes(), loss.data.tobytes()] + _grads(leaves)

    @pytest.mark.parametrize("kind", [None, "bernoulli", "gaussian"])
    @pytest.mark.parametrize("read", ["both", "logits", "variances"])
    def test_bitwise_equal_to_the_per_step_chain(self, kind, read):
        for seed in range(4):
            assert self._run(True, kind, seed, read) == self._run(False, kind, seed, read)

    def test_unread_head_leaves_its_weights_untouched(self):
        dec = _decoder(None, 1)
        gold = _gold(np.random.default_rng(1), 2, 4)
        with Tape() as tape:
            y, _ = decoder.decode_teacher_forced(dec, Tensor(np.ones((2, 5))), gold)
            loss = total(y)
        tape.backward(loss)
        assert dec.w_var.grad is None and dec.b_var.grad is None
        assert dec.w_out.grad is not None

    @pytest.mark.parametrize("kind", ["bernoulli", "gaussian"])
    def test_grad_check(self, kind):
        rng = np.random.default_rng(3)
        dec = _decoder(kind, 3)
        g_enc = Tensor(rng.normal(size=(2, 5)), requires_grad=True)
        gold = _gold(rng, 2, 3)
        masks = dec.cell.sample_masks(2, RngStream(3))
        wy, wv = Tensor(rng.normal(size=(6, VOCAB))), Tensor(rng.normal(size=(6, VOCAB)))

        def f():
            y, v = decoder.decode_teacher_forced(dec, g_enc, gold, masks)
            return ad.add(total(ad.mul(y, wy)), total(ad.mul(v, wv)))

        leaves = [g_enc, dec.embedding.weight] + list(dec.named_params().values())
        assert ad.grad_check(f, leaves, h=1e-5) <= 1e-6

    def test_start_step_and_one_sequence_node(self):
        dec = _decoder(None, 2)
        with Tape() as tape:
            decoder.decode_teacher_forced(dec, Tensor(np.ones((2, 5)), requires_grad=True),
                                          _gold(np.random.default_rng(2), 2, 5))
        assert len(tape) == 3       # the encoding's affine, the start step, the sequence

    def test_heads_shape_errors(self):
        dec = _decoder(None, 2)
        cell = dec.cell
        state = cell.initial_state(1)
        with pytest.raises(ShapeError, match="heads"):
            ad.lstm_sequence(dec.embedding.weight, np.ones((2, 1)), cell.wx, cell.wh, cell.b,
                             state=state, heads=(dec.w_out, dec.b_out, dec.w_out,
                                                 Tensor(np.ones(2))))


class TestTrainingStep:
    """A full MUMC step, both sweeps, through the fused nodes and through
    the per-step chain."""

    @pytest.mark.parametrize("kind", ["bernoulli", "gaussian"])
    @pytest.mark.parametrize("mumc", [True, False])
    def test_run_step_bitwise(self, monkeypatch, kind, mumc):
        ds = synth_generate(8, 3, image_dim=24, place_dim=8)
        cfg = config_from_dict({
            "cues": ["image", "place", "caption", "tag"], "enc_dim": 5, "embed_dim": 4,
            "hidden_dim": 6, "image_dim": 24, "place_dim": 8, "seed": 2,
            "dropout": {"rate": 0.3, "kind": kind}, "mumc_enabled": mumc,
            "mumc": {"mc_samples": 3}})
        batch = make_batch(ds, [0, 3, 5], question_choice=[0, 1, 2])

        def step():
            model = mtrain.build_model(cfg, ds)
            parts = mtrain.run_step(model, batch, cfg, RngStream(11).child("step"))
            return parts, model.grad_vector.tobytes(), [
                p.grad is None for p in model.named_params().values()]

        fused = step()
        monkeypatch.setattr(mtrain, "decode_teacher_forced",
                            lambda dec, g, gold, masks=None: _composed_teacher_forced(
                                dec, g, decoder.check_gold(gold), masks))
        monkeypatch.setattr(cues, "encode_caption", _old_encode_caption)
        monkeypatch.setattr(cues, "encode_tags", _old_encode_tags)
        assert step() == fused


def _old_encode_caption(cell, embedding, ids, lengths, rng=None):
    return _composed_sequence(cell, embedding.weight, np.asarray(ids).T,
                              cell.sample_masks(len(ids), rng), np.asarray(lengths))


def _old_encode_tags(cell, embedding, tag_ids, rng=None):
    return _composed_sequence(cell, embedding.weight, np.asarray(tag_ids).T,
                              cell.sample_masks(len(tag_ids), rng))
