"""Bayesian blocks: MC-dropout MLP behaviour, variational LSTM tying,
embedding/one-hot equality, MC statistics, and checkpoint round-trips."""

import json

import numpy as np
import pytest

import mcvqg.autodiff as ad
import mcvqg.nn as nn
from mcvqg.autodiff import Tape, Tensor
from mcvqg.rng import RngStream

from loss_helpers import total


def manual_lstm_step(x, h, c, wx, wh, b, gmask=None, omask=None):
    """Straight-line LSTM step oracle (packed gates: i, f, o, candidate)."""
    pre = x @ wx + b + h @ wh
    if gmask is not None:
        pre = pre * gmask
    n = h.shape[1]
    sig = lambda v: 1.0 / (1.0 + np.exp(-v))
    gi = sig(pre[:, :n])
    gf = sig(pre[:, n:2 * n])
    go = sig(pre[:, 2 * n:3 * n])
    gc = np.tanh(pre[:, 3 * n:])
    c2 = gf * c + gi * gc
    h2 = go * np.tanh(c2)
    if omask is not None:
        h2 = h2 * omask
    return h2, c2


class TestBayesianMLP:
    def test_deterministic_equals_manual(self):
        rng = RngStream(0)
        net = nn.BayesianMLP([3, 4, 2], nn.Dropout(0.3, "bernoulli"), rng=rng)
        x = np.array([[0.5, -1.0, 2.0]])
        got = net.forward(Tensor(x)).data
        h = np.tanh(x @ net.weights[0].data + net.biases[0].data)
        want = h @ net.weights[1].data + net.biases[1].data
        assert np.allclose(got, want, rtol=1e-14)

    def test_p_zero_stochastic_equals_deterministic(self):
        net = nn.BayesianMLP([3, 4, 2], nn.Dropout(0.0, "bernoulli"), rng=RngStream(1))
        x = Tensor(np.ones((2, 3)))
        a = net.forward(x, rng=RngStream(5)).data
        b = net.forward(x).data
        assert np.array_equal(a, b)

    def test_same_stream_state_reproduces_stochastic_pass(self):
        net = nn.BayesianMLP([3, 8, 2], nn.Dropout(0.5, "bernoulli"), rng=RngStream(2))
        x = Tensor(np.ones((4, 3)))
        a = net.forward(x, rng=RngStream(7, stream=3)).data
        b = net.forward(x, rng=RngStream(7, stream=3)).data
        assert np.array_equal(a, b)
        c = net.forward(x, rng=RngStream(7, stream=4)).data
        assert not np.array_equal(a, c)

    def test_dropout_applied_before_first_layer(self):
        # with the input mask all-zero the first affine sees zeros exactly
        net = nn.BayesianMLP([2, 2], nn.Dropout(0.5, "bernoulli"), rng=RngStream(3))
        x = np.array([[3.0, -4.0]])
        found_zero_mask = False
        for tag in range(200):
            r = RngStream(8, stream=tag)
            mask = net.dropout.mask((1, 2), r.child(("drop", 0)))
            if np.all(mask == 0.0):
                got = net.forward(Tensor(x), rng=r).data
                assert np.allclose(got, net.biases[0].data[None, :])
                found_zero_mask = True
                break
        assert found_zero_mask

    def test_init_bounds(self):
        net = nn.BayesianMLP([100, 50], nn.Dropout(0.0, "bernoulli"), rng=RngStream(4))
        w = net.weights[0].data
        bound = 1.0 / np.sqrt(100)
        assert np.all(np.abs(w) <= bound)
        assert w.std() > bound / 4          # actually spread out, not degenerate
        assert np.array_equal(net.biases[0].data, np.zeros(50))

    def test_gradients_match_fd_with_frozen_masks(self):
        net = nn.BayesianMLP([3, 5, 2], nn.Dropout(0.4, "bernoulli"), rng=RngStream(5))
        x = Tensor(np.linspace(-1, 1, 6).reshape(2, 3))
        rng_state = (11, 9)

        def f():
            out = net.forward(x, rng=RngStream(*rng_state))
            return total(ad.mul(out, out))

        params = list(net.named_params("mlp").values())
        assert ad.grad_check(f, params, h=1e-5) <= 1e-6


class TestBayesianLSTMCell:
    def test_zero_everything_gives_zero_hidden(self):
        cell = nn.BayesianLSTMCell(2, 3, nn.Dropout(0.0, "bernoulli"), rng=RngStream(0))
        for t in (cell.wx, cell.wh, cell.b):
            t.data = np.zeros_like(t.data)
        inputs = [Tensor(np.zeros((2, 2))) for _ in range(4)]
        hs, h = cell.sequence(inputs)
        assert all(np.array_equal(s.data, np.zeros((2, 3))) for s in hs)
        assert np.array_equal(h.data, np.zeros((2, 3)))

    def test_single_step_matches_manual(self):
        cell = nn.BayesianLSTMCell(3, 4, nn.Dropout(0.0, "bernoulli"), rng=RngStream(1))
        x = np.array([[0.3, -0.7, 1.1]])
        h0 = np.array([[0.1, 0.2, -0.1, 0.0]])
        c0 = np.array([[0.05, -0.2, 0.3, 0.4]])
        got_h, got_c = cell.step(Tensor(x), Tensor(h0), Tensor(c0), nn.LstmMasks(None, None))
        want_h, want_c = manual_lstm_step(x, h0, c0, cell.wx.data, cell.wh.data, cell.b.data)
        assert np.allclose(got_h.data, want_h, rtol=1e-14)
        assert np.allclose(got_c.data, want_c, rtol=1e-14)

    def test_masks_tied_across_timesteps(self):
        cell = nn.BayesianLSTMCell(2, 5, nn.Dropout(0.5, "bernoulli"), rng=RngStream(2))
        rng = RngStream(3)
        x = np.array([[1.0, -1.0]])
        inputs = [Tensor(x) for _ in range(3)]
        _, h = cell.sequence(inputs, rng=rng)
        # oracle reuses, every step, the masks the same stream draws
        masks = cell.sample_masks(1, rng)
        hh = np.zeros((1, 5))
        cc = np.zeros((1, 5))
        for _ in range(3):
            hh, cc = manual_lstm_step(x, hh, cc, cell.wx.data, cell.wh.data, cell.b.data,
                                      gmask=masks.gates, omask=masks.out)
        assert np.allclose(h.data, hh, rtol=1e-12)

    def test_sequence_draws_masks_once_from_stream(self):
        cell = nn.BayesianLSTMCell(2, 4, nn.Dropout(0.5, "bernoulli"), rng=RngStream(4))
        inputs = [Tensor(np.ones((2, 2))) for _ in range(4)]
        _, a = cell.sequence(inputs, rng=RngStream(9, stream=1))
        _, b = cell.sequence(inputs, rng=RngStream(9, stream=1))
        assert np.array_equal(a.data, b.data)

    def test_gradients_match_fd_with_frozen_masks(self):
        cell = nn.BayesianLSTMCell(2, 3, nn.Dropout(0.3, "bernoulli"), rng=RngStream(6))
        inputs = [Tensor(np.array([[0.5, -0.2], [0.1, 0.8]])) for _ in range(3)]
        rng = RngStream(10)
        masks = cell.sample_masks(2, rng)
        assert masks.gates is not None and masks.out is not None

        def f():
            # the same stream draws the same masks on every call
            _, h = cell.sequence(inputs, rng=rng)
            return total(ad.mul(h, h))

        params = list(cell.named_params("cell").values())
        assert ad.grad_check(f, params, h=1e-5) <= 1e-6


def _lstm_operands():
    """(x, h, c, wx, wh, b) of a 3-row step, input 2, hidden 3, all requiring grad."""
    draw = RngStream(20)
    shapes = {"x": (3, 2), "h": (3, 3), "c": (3, 3), "wx": (2, 12), "wh": (3, 12),
              "b": (12,)}
    return [Tensor(draw.child(k).normal(shape) * 0.8, requires_grad=True)
            for k, shape in shapes.items()]


class TestLstmStep:
    """The fused op, against the straight-line oracle and central differences."""

    def _masks(self, kind):
        drop = nn.Dropout(0.3, kind)
        gates = drop.mask((3, 12), RngStream(21).child("gates"))
        out = drop.mask((3, 3), RngStream(21).child("out"))
        return gates, out

    def test_values_match_manual_with_masks(self):
        ops = _lstm_operands()
        gates, out = self._masks("gaussian")
        h2, c2 = ad.lstm_step(*ops, gates, out)
        want_h, want_c = manual_lstm_step(*(t.data for t in ops), gmask=gates, omask=out)
        assert np.allclose(h2.data, want_h, rtol=1e-14)
        assert np.allclose(c2.data, want_c, rtol=1e-14)

    @pytest.mark.parametrize("kind", ["bernoulli", "gaussian"])
    def test_gradients_match_fd(self, kind):
        ops = _lstm_operands()
        gates, out = self._masks(kind)
        wh_, wc_ = RngStream(22).normal((3, 3)), RngStream(23).normal((3, 3))

        def f():
            h2, c2 = ad.lstm_step(*ops, gates, out)
            return ad.add(total(ad.mul(h2, Tensor(wh_))),
                          total(ad.mul(c2, ad.mul(c2, Tensor(wc_)))))

        assert ad.grad_check(f, ops, h=1e-5) <= 1e-6

    @pytest.mark.parametrize("read", ["h", "c"])
    def test_gradients_when_the_loss_reads_one_output(self, read):
        # the other output gets no gradient: the node's backward sees None
        ops = _lstm_operands()
        gates, out = self._masks("bernoulli")

        def f():
            h2, c2 = ad.lstm_step(*ops, gates, out)
            y = h2 if read == "h" else c2
            return total(ad.mul(y, y))

        assert ad.grad_check(f, ops, h=1e-5) <= 1e-6

    def test_one_tape_node_per_step(self):
        ops = _lstm_operands()
        with Tape() as tape:
            h2, c2 = ad.lstm_step(*ops)
            assert len(tape) == 1
            ad.lstm_step(Tensor(ops[0].data), h2, c2, *ops[3:])
            assert len(tape) == 2

    def test_bad_shapes_rejected(self):
        x, h, c, wx, wh, b = _lstm_operands()
        with pytest.raises(ad.ShapeError):
            ad.lstm_step(x, h, c, wh, wx, b)
        with pytest.raises(ad.ShapeError, match="out_mask"):
            ad.lstm_step(x, h, c, wx, wh, b, out_mask=np.ones((3, 1)))
        with pytest.raises(ad.ShapeError, match="gate_mask"):
            ad.lstm_step(x, h, c, wx, wh, b, gate_mask=np.ones((3, 3)))


class TestEmbeddingTable:
    def test_lookup_equals_one_hot_matmul_exactly(self):
        emb = nn.EmbeddingTable(7, 4, RngStream(0))
        for v in range(7):
            one_hot = np.zeros(7)
            one_hot[v] = 1.0
            via_matmul = one_hot @ emb.weight.data
            assert np.array_equal(emb.lookup(np.array([v])).data[0], via_matmul)

    def test_out_of_range_rejected(self):
        emb = nn.EmbeddingTable(5, 3, RngStream(1))
        with pytest.raises(IndexError):
            emb.lookup(np.array([5]))

    def test_lookup_gradient_scatters(self):
        emb = nn.EmbeddingTable(4, 2, RngStream(2))
        with Tape() as tape:
            rows = emb.lookup(np.array([2, 2, 0]))
            loss = total(rows)
        tape.backward(loss)
        want = np.zeros((4, 2))
        want[2] = 2.0
        want[0] = 1.0
        assert np.array_equal(emb.weight.grad, want)


class TestMcPredict:
    def test_t1_degenerate(self):
        stats = nn.mc_predict(lambda r: np.array([1.0, 2.0]), 1, RngStream(0))
        assert stats.count == 1
        assert np.array_equal(stats.variance, np.zeros(2))

    def test_identical_samples_zero_variance_exact(self):
        val = np.array([0.1234567890123456, -7.89, 3.0])
        stats = nn.mc_predict(lambda r: np.tile(val, 17), 17, RngStream(1))
        assert np.array_equal(stats.mean, val)
        assert np.array_equal(stats.variance, np.zeros(3))
        assert stats.count == 17

    def test_matches_analytic_mask_variance(self):
        # f(x) = inverted-Bernoulli dropout of x: per-coord variance x^2 p/(1-p)
        p = 0.3
        x = np.array([1.0, -2.0, 0.5, 3.0])

        def f(r):
            return np.tile(x, 10000) * nn.Dropout(p, "bernoulli").mask((10000 * x.size,), r)

        stats = nn.mc_predict(f, 10000, RngStream(2))
        want = x * x * p / (1 - p)
        assert np.allclose(stats.variance, want, rtol=0.1)
        assert np.allclose(stats.mean, x, atol=0.05)

    def test_order_independent(self):
        captured = []

        def f(r):
            captured.append(r.normal((5 * 3,)))
            return captured[-1]

        nn.mc_predict(f, 5, RngStream(3))
        samples = captured[0].reshape(5, 3)
        # evaluating child streams in reverse order yields the same samples
        rev = [RngStream(3).child(t).normal((3,)) for t in reversed(range(5))]
        assert all(np.array_equal(s, t) for s, t in zip(samples, reversed(rev)))

    def test_variance_grows_with_rate(self):
        net = nn.BayesianMLP([4, 16, 4], nn.Dropout(0.1, "bernoulli"), rng=RngStream(4))
        x = Tensor(RngStream(5).normal((10, 4)))

        def run(p):
            net.dropout.rate = p
            stacked = Tensor(np.tile(x.data, (200, 1)))
            return nn.mc_predict(lambda r: net.forward(stacked, rng=r),
                                 200, RngStream(6)).variance.mean()

        v_low, v_high = run(0.1), run(0.5)
        assert v_high > 3 * v_low


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        rng = RngStream(0)
        params = {
            "a.w": Tensor(rng.normal((3, 4)), requires_grad=True),
            "b.bias": Tensor(rng.normal((5,)), requires_grad=True),
        }
        path = tmp_path / "ck.json"
        nn.save_checkpoint(path, params, meta={"note": "t"})
        arrays, meta = nn.load_checkpoint(path)
        assert meta == {"note": "t"}
        for name, t in params.items():
            assert np.array_equal(arrays[name], t.data)

    def test_restore_overwrites_values(self, tmp_path):
        src = {"w": Tensor(np.arange(6, dtype=float).reshape(2, 3), requires_grad=True)}
        path = tmp_path / "ck.json"
        nn.save_checkpoint(path, src)
        dst = {"w": Tensor(np.zeros((2, 3)), requires_grad=True)}
        arrays, _ = nn.load_checkpoint(path)
        nn.restore_params(dst, arrays)
        assert np.array_equal(dst["w"].data, src["w"].data)

    def test_shape_mismatch_reports_diff(self, tmp_path):
        src = {"w": Tensor(np.zeros((2, 3)), requires_grad=True)}
        path = tmp_path / "ck.json"
        nn.save_checkpoint(path, src)
        dst = {"w": Tensor(np.zeros((4, 3)), requires_grad=True), "extra": Tensor(np.zeros(2), requires_grad=True)}
        arrays, _ = nn.load_checkpoint(path)
        with pytest.raises(ValueError) as err:
            nn.restore_params(dst, arrays)
        msg = str(err.value)
        assert "(4, 3)" in msg and "(2, 3)" in msg and "extra" in msg

    def test_non_checkpoint_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("{}")
        with pytest.raises(ValueError):
            nn.load_checkpoint(path)

    @pytest.mark.parametrize("payload", [
        [1, 2],
        {"format": nn.CHECKPOINT_FORMAT},
        {"format": nn.CHECKPOINT_FORMAT, "params": [1]},
        {"format": nn.CHECKPOINT_FORMAT, "params": {"w": {"shape": [2]}}},
        {"format": nn.CHECKPOINT_FORMAT, "params": {"w": 1}},
        {"format": nn.CHECKPOINT_FORMAT, "params": {"w": {"shape": [3], "data": [1.0]}}},
    ], ids=["list", "no-params", "params-list", "no-data", "record-int", "bad-shape"])
    def test_malformed_checkpoint_raises_value_error(self, tmp_path, payload):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError):
            nn.load_checkpoint(path)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_nonfinite_parameter_rejected(self, tmp_path, value):
        path = tmp_path / "ck.json"
        nn.save_checkpoint(path, {"w": Tensor(np.ones((2, 3)), requires_grad=True)})
        payload = json.loads(path.read_text())
        payload["params"]["w"]["data"][4] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="w has non-finite"):
            nn.load_checkpoint(path)

    def test_failed_save_keeps_the_old_checkpoint(self, tmp_path):
        path = tmp_path / "ck.json"
        nn.save_checkpoint(path, {"w": Tensor(np.ones((2, 3)), requires_grad=True)})
        before = path.read_bytes()
        with pytest.raises(TypeError):
            # the params are written before json meets the unserializable meta
            nn.save_checkpoint(path, {"w": Tensor(np.zeros((2, 3)))},
                               meta={"z": object()})
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ck.json"]
