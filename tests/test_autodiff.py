"""Tensor core: op forward values against hand arithmetic, gradients against
central finite differences, and the dropout/softmax contracts; the row ops
are checked against numpy references."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import mcvqg.autodiff as ad
from mcvqg.autodiff import ShapeError, Tape, Tensor
from mcvqg.nn import Dropout
from mcvqg.rng import RngStream

from loss_helpers import reshaped, total


def fd_grad(f, x, h=1e-6):
    """Central-difference gradient of scalar f w.r.t. ndarray x (oracle)."""
    g = np.zeros_like(x)
    flat_x = x.reshape(-1)
    flat_g = g.reshape(-1)
    for i in range(flat_x.size):
        orig = flat_x[i]
        flat_x[i] = orig + h
        fp = f()
        flat_x[i] = orig - h
        fm = f()
        flat_x[i] = orig
        flat_g[i] = (fp - fm) / (2 * h)
    return g


def run_backward(build):
    with Tape() as tape:
        loss = build()
    tape.backward(loss)
    return loss


class TestTensor:
    def test_float64_storage(self):
        t = Tensor([[1, 2], [3, 4]])
        assert t.data.dtype == np.float64
        assert t.shape == (2, 2)

    def test_item_requires_scalar(self):
        with pytest.raises(ShapeError):
            Tensor([1.0, 2.0]).item()


class TestForwardValues:
    def test_matmul_hand_example(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        out = ad.matmul(a, b)
        assert np.array_equal(out.data, [[19.0, 22.0], [43.0, 50.0]])

    def test_matmul_shape_error_reports_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))

    @pytest.mark.parametrize("a_shape,b_shape", [((3,), (3, 2)), ((2, 3), (3,)),
                                                 ((3,), (3,)), ((1, 2, 3), (3, 2))])
    def test_matmul_takes_2d_operands_only(self, a_shape, b_shape):
        with pytest.raises(ShapeError, match="2-D"):
            ad.matmul(Tensor(np.zeros(a_shape)), Tensor(np.zeros(b_shape)))

    def test_affine_takes_a_2d_input_only(self):
        with pytest.raises(ShapeError, match="affine"):
            ad.affine(Tensor(np.zeros(3)), Tensor(np.zeros((3, 2))), Tensor(np.zeros(2)))

    def test_elementwise_requires_identical_shapes(self):
        a = Tensor(np.zeros((2, 3)))
        b = Tensor(np.zeros((3,)))
        for op in (ad.add, ad.sub, ad.mul):
            with pytest.raises(ShapeError):
                op(a, b)

    def test_scale_is_the_only_broadcast(self):
        x = Tensor([1.0, -2.0, 3.0])
        assert np.array_equal(ad.scale(x, -2.0).data, [-2.0, 4.0, -6.0])

    def test_unary_values(self):
        x = Tensor([-1.5, 0.0, 2.0])
        assert np.allclose(ad.tanh(x).data, np.tanh(x.data))
        assert np.allclose(ad._sigmoid(x.data), 1 / (1 + np.exp(-x.data)))
        assert np.allclose(ad.exp(x).data, np.exp(x.data))
        assert np.allclose(ad.softplus(x).data, np.log1p(np.exp(x.data)))

    def test_sigmoid_softplus_stable_at_extremes(self):
        x = Tensor([-1e3, 1e3])
        s = ad._sigmoid(x.data)
        assert s[0] == 0.0 and s[1] == 1.0
        sp = ad.softplus(x).data
        assert sp[0] == 0.0 and np.isclose(sp[1], 1e3)

    def test_sigmoid_bitwise_equals_two_branch_formula(self):
        def two_branch(x):
            # reference: 1/(1+e^-x) on the x >= 0 mask, e^x/(1+e^x) off it
            out = np.empty_like(x)
            pos = x >= 0
            out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
            ex = np.exp(x[~pos])
            out[~pos] = ex / (1.0 + ex)
            return out

        draw = RngStream(31)
        cases = [np.array([0.0, -0.0, 745.0, -745.0, 800.0, -800.0]),
                 draw.child("row").normal((1, 32)) * 8,
                 draw.child("batch").normal((16, 32)) * 8]
        for x in cases:
            assert ad._sigmoid(x).tobytes() == two_branch(x).tobytes()

    def test_sqrt_domain(self):
        # the square root of the variances lives in lrt_log_likelihood
        with pytest.raises(ValueError, match="nonnegative"):
            ad.lrt_log_likelihood(Tensor([[0.0]]), Tensor([[-1.0]]), np.zeros((1, 1, 1)),
                                  [0])


def _np_softmax(x):
    e = np.exp(x - x.max())
    return e / e.sum()


class TestSoftmax:
    def test_simplex_under_extreme_magnitudes(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(1, 8))
            x = Tensor(rng.uniform(-1e3, 1e3, (1, n)))
            p, lse = ad.row_softmax(x), ad.row_logsumexp(x)
            assert np.all(p.data >= 0)
            assert abs(p.data.sum() - 1.0) <= 1e-12
            assert np.isfinite(lse.data).all()

    def test_shift_invariance_of_argmax(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.normal(size=(1, 6)) * 100
            p1 = ad.row_softmax(Tensor(x)).data
            p2 = ad.row_softmax(Tensor(x + 123.456)).data
            assert np.argmax(p1) == np.argmax(p2)
            assert np.allclose(p1, p2, atol=1e-12)

    def test_logsumexp_value(self):
        x = np.array([[1.0, 2.0, 3.0]])
        got = ad.row_logsumexp(Tensor(x)).item()
        assert np.isclose(got, np.log(np.exp(x).sum()), rtol=1e-12)

    def test_row_variants_match_vector_ops(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(4, 7))
        p = ad.row_softmax(Tensor(x)).data
        l = ad.row_logsumexp(Tensor(x)).data
        for b in range(4):
            assert np.allclose(p[b], _np_softmax(x[b]), atol=1e-14)
            assert np.isclose(l[b], np.log(np.exp(x[b]).sum()), rtol=1e-14)

    def test_empty_input_rejected(self):
        for op in (ad.row_softmax, ad.row_logsumexp):
            with pytest.raises(ShapeError):
                op(Tensor(np.zeros((2, 0))))


class TestBackward:
    def test_first_gradient_is_a_copy_not_an_alias(self):
        # add hands the same upstream gradient to both inputs; later
        # gradients must land in one input's buffer only
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        g = np.array([1.0, -0.0])
        with Tape() as tape:
            s = ad.add(a, b)
            loss = total(ad.add(ad.add(ad.mul(s, Tensor([0.5, 0.5])),
                                            ad.scale(a, 2.0)), ad.scale(b, -3.0)))
        tape.backward(loss)
        np.testing.assert_array_equal(a.grad, [2.5, 2.5])
        np.testing.assert_array_equal(b.grad, [-2.5, -2.5])
        ad._accum(a, g)
        np.testing.assert_array_equal(b.grad, [-2.5, -2.5])
        assert a.grad is not b.grad
        c = Tensor([0.0, 0.0], requires_grad=True)
        ad._accum(c, g)
        assert c.grad is not g and np.signbit(c.grad[1])
        g[0] = 9.0
        assert c.grad[0] == 1.0

    def test_dot_product_gradient(self):
        x = Tensor([1.0, -2.0, 3.0], requires_grad=True)
        run_backward(lambda: total(ad.mul(x, x)))
        assert np.allclose(x.grad, 2 * x.data)

    def test_matmul_gradient_matches_fd(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        run_backward(lambda: total(ad.matmul(a, b)))
        ga = fd_grad(lambda: (a.data @ b.data).sum(), a.data)
        gb = fd_grad(lambda: (a.data @ b.data).sum(), b.data)
        assert np.allclose(a.grad, ga, rtol=1e-6, atol=1e-8)
        assert np.allclose(b.grad, gb, rtol=1e-6, atol=1e-8)

    def test_grad_accumulates_across_multiple_uses(self):
        x = Tensor([2.0], requires_grad=True)
        run_backward(lambda: total(ad.add(x, x)))
        assert np.allclose(x.grad, [2.0])

    def test_scalar_loss_required(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = ad.mul(x, x)
        with pytest.raises(ShapeError):
            tape.backward(y)

    def test_detached_graph_rejected(self):
        x = Tensor([1.0])
        with Tape() as tape:
            y = total(ad.mul(x, x))
        with pytest.raises(RuntimeError):
            tape.backward(y)

    def test_leaf_grad_sums_both_sweeps(self):
        x = Tensor([1.0, -2.0], requires_grad=True)
        with Tape() as tape:
            mid = ad.mul(x, x)
            first = total(mid)
        tape.backward(first)
        with tape:
            second = total(ad.scale(mid, 3.0))
        tape.backward(second)
        np.testing.assert_array_equal(x.grad, 2 * x.data + 3.0 * 2 * x.data)

    def test_interior_grad_holds_only_the_latest_sweep(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            mid = ad.mul(x, x)
            first = total(ad.mul(mid, mid))
        tape.backward(first)
        np.testing.assert_array_equal(mid.grad, 2 * mid.data)
        with tape:
            second = total(ad.scale(mid, 5.0))
        tape.backward(second)
        np.testing.assert_array_equal(mid.grad, [5.0, 5.0])
        assert first.grad is None

    def test_node_used_before_the_first_sweep_does_not_propagate_again(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        calls = []

        def backward_fn(g):
            calls.append(g)
            ad._accum(x, 2.0 * g)

        with Tape() as tape:
            side = Tensor(2.0 * x.data, requires_grad=True)
            tape._record(side, backward_fn)
            first = total(side)
        tape.backward(first)
        assert len(calls) == 1
        with tape:
            second = total(ad.scale(x, 7.0))
        tape.backward(second)
        assert len(calls) == 1 and side.grad is None
        np.testing.assert_array_equal(x.grad, [9.0, 9.0])

    def test_tuple_node_outputs_are_cleared(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        h = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        c = Tensor(rng.normal(size=(2, 4)), requires_grad=True)
        wx = Tensor(rng.normal(size=(3, 16)), requires_grad=True)
        wh = Tensor(rng.normal(size=(4, 16)), requires_grad=True)
        b = Tensor(np.zeros(16), requires_grad=True)
        with Tape() as tape:
            h2, c2 = ad.lstm_step(x, h, c, wx, wh, b)
            first = ad.add(total(h2), total(c2))
        tape.backward(first)
        assert h2.grad is not None and c2.grad is not None
        with tape:
            second = total(ad.scale(h2, 2.0))
        tape.backward(second)
        np.testing.assert_array_equal(h2.grad, np.full((2, 4), 2.0))
        assert c2.grad is None

    def test_second_sweep_matches_a_fresh_tape(self):
        # h's gradient after two sweeps is the first sweep's plus the second
        # loss's gradient taken on a tape of its own
        rng = np.random.default_rng(6)
        data = [rng.normal(size=s) for s in ((2, 3), (2, 4), (2, 4), (3, 16), (4, 16))]

        def leaves():
            return [Tensor(d, requires_grad=True) for d in data] + [
                Tensor(np.zeros(16), requires_grad=True)]

        shared = leaves()
        with Tape() as tape:
            h2, c2 = ad.lstm_step(*shared)
            first = total(ad.mul(c2, c2))
        tape.backward(first)
        g_first = [t.grad.copy() for t in shared]
        with tape:
            second = total(ad.mul(h2, h2))
        tape.backward(second)
        alone = leaves()
        with Tape() as fresh:
            h3, _ = ad.lstm_step(*alone)
            loss = total(ad.mul(h3, h3))
        fresh.backward(loss)
        for t, g1, ref in zip(shared, g_first, alone):
            np.testing.assert_allclose(t.grad, g1 + ref.grad, rtol=1e-12, atol=1e-14)

    def test_no_recording_outside_tape(self):
        x = Tensor([1.0], requires_grad=True)
        y = ad.mul(x, x)
        assert not y.requires_grad

    def test_no_grad_suspends_recording(self):
        x = Tensor([1.0], requires_grad=True)
        with Tape() as tape:
            with ad.no_grad():
                y = ad.mul(x, x)
            assert len(tape) == 0
        assert not y.requires_grad

    def test_intermediate_grad_available(self):
        # interior nodes keep their gradient: the refinement pass reads one
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            mid = ad.mul(x, x)
            loss = total(ad.mul(mid, mid))
        tape.backward(loss)
        assert np.allclose(mid.grad, 2 * mid.data)

    def test_two_output_node_counts_once_and_runs_once(self):
        x = Tensor([1.0, -2.0], requires_grad=True)
        calls = []

        def backward_fn(grads):
            calls.append(grads)
            ga, gb = grads
            ad._accum(x, 2.0 * ga + 3.0 * gb)

        with Tape() as tape:
            a, b = Tensor(2.0 * x.data, requires_grad=True), Tensor(3.0 * x.data, requires_grad=True)
            tape._record((a, b), backward_fn)
            assert len(tape) == 1
            loss = ad.add(total(ad.mul(a, a)), total(b))
        tape.backward(loss)
        assert len(calls) == 1
        assert np.allclose(x.grad, 2.0 * 2.0 * a.data + 3.0)

    def test_two_output_node_passes_none_for_an_unused_output(self):
        x = Tensor([1.0, -2.0], requires_grad=True)
        calls = []

        def backward_fn(grads):
            calls.append(grads)
            ad._accum(x, 2.0 * grads[0])

        with Tape() as tape:
            a, b = Tensor(2.0 * x.data, requires_grad=True), Tensor(3.0 * x.data, requires_grad=True)
            tape._record((a, b), backward_fn)
            loss = total(a)
        tape.backward(loss)
        assert len(calls) == 1 and calls[0][1] is None
        assert np.array_equal(x.grad, [2.0, 2.0])


class TestStructuralOps:
    def test_affine_and_rowvec(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=2), requires_grad=True)
        out = ad.affine(x, w, b)
        assert np.allclose(out.data, x.data @ w.data + b.data)
        run_backward(lambda: total(ad.affine(x, w, b)))
        assert np.allclose(b.grad, fd_grad(lambda: (x.data @ w.data + b.data).sum(), b.data),
                           rtol=1e-6, atol=1e-8)

    def test_structural_grads_match_fd(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        ids = np.array([1, 4, 0])

        def build():
            b = ad.concat([x, x], axis=0)
            d = ad.row_softmax(b)
            e = ad.gather_cols(x, ids)
            return ad.add(total(d), total(ad.mul(e, e)))

        run_backward(build)
        got = x.grad.copy()

        def value():
            b = np.tile(x.data, (2, 1))
            z = b - b.max(axis=1, keepdims=True)
            p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
            e = x.data[np.arange(3), ids]
            return p.sum() + (e * e).sum()

        assert np.allclose(got, fd_grad(value, x.data), rtol=1e-5, atol=1e-7)

    def test_gather_cols_rejects_ids_out_of_range(self):
        x = Tensor(np.zeros((2, 3)))
        for ids in ([-1, -2], [0, 3]):
            with pytest.raises(IndexError, match="gather_cols"):
                ad.gather_cols(x, np.array(ids))

    def test_gather_rows_scatter_adds(self):
        table = Tensor(np.arange(8, dtype=float).reshape(4, 2), requires_grad=True)
        run_backward(lambda: total(ad.gather_rows(table, np.array([1, 1, 3]))))
        expect = np.zeros((4, 2))
        expect[1] = 2.0
        expect[3] = 1.0
        assert np.array_equal(table.grad, expect)

    def test_log_mean_exp_rows_value_and_grad(self):
        # the MC average of lrt_log_likelihood: log of the mean over draws
        rng = np.random.default_rng(7)
        y = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        v = Tensor(rng.uniform(0.1, 2.0, (3, 4)), requires_grad=True)
        eps, targets = rng.normal(size=(5, 3, 4)), np.array([2, 0, 3])

        def value():
            draws = y.data + eps * np.sqrt(v.data)
            p = np.exp(draws) / np.exp(draws).sum(axis=2, keepdims=True)
            return np.log(p[:, np.arange(3), targets].mean(axis=0))

        out = ad.lrt_log_likelihood(y, v, eps, targets)
        assert np.allclose(out.data, value(), rtol=1e-12)
        run_backward(lambda: total(ad.lrt_log_likelihood(y, v, eps, targets)))
        assert np.allclose(y.grad, fd_grad(lambda: value().sum(), y.data), rtol=1e-5, atol=1e-8)
        assert np.allclose(v.grad, fd_grad(lambda: value().sum(), v.data), rtol=1e-5, atol=1e-8)

    def test_log_mean_exp_identical_rows_exact(self):
        # zero variance: 20 identical draws average back to the draw
        y = Tensor(np.array([[-1.3862943611198906, 0.1234567890123456, 7.77]]))
        v = Tensor(np.zeros(y.shape))
        eps = np.random.default_rng(8).normal(size=(20, 1, 3))
        one = ad.lrt_log_likelihood(y, v, eps[:1], [1])
        assert ad.lrt_log_likelihood(y, v, eps, [1]).data.tobytes() == one.data.tobytes()

    def test_concat_rows_and_cols(self):
        rng = np.random.default_rng(9)
        a = Tensor(rng.normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(1, 3)), requires_grad=True)
        c = Tensor(rng.normal(size=(2, 1)), requires_grad=True)
        rows = ad.concat([a, b], axis=0)
        np.testing.assert_array_equal(rows.data, np.vstack([a.data, b.data]))
        cols = ad.concat([a, c], axis=1)
        np.testing.assert_array_equal(cols.data, np.hstack([a.data, c.data]))
        w = Tensor(rng.normal(size=(5, 3)))

        def f():
            stacked = ad.concat([a, b, a], axis=0)
            return total(ad.tanh(ad.mul(stacked, w)))

        assert ad.grad_check(f, [a, b]) <= 1e-6
        assert ad.grad_check(lambda: total(ad.tanh(ad.concat([c, a], axis=1))),
                             [a, c]) <= 1e-6
        for parts, axis in (([a, c], 0), ([a, b], 1), ([], 0), ([a], 2)):
            with pytest.raises(ShapeError):
                ad.concat(parts, axis=axis)


def _np_old_masked_sum(x, mask):
    """The per-step reduction the loss used to record one node at a time."""
    batch, steps = mask.shape
    total = None
    for t in range(steps):
        term = (x[t * batch:(t + 1) * batch] * mask[:, t]).sum()
        total = term if total is None else total + term
    return total


class TestMaskedStepSum:
    def test_bitwise_equal_to_per_step_sums(self):
        rng = np.random.default_rng(10)
        for batch, steps in ((1, 1), (1, 7), (3, 4), (16, 15), (25, 9)):
            x = rng.normal(size=batch * steps) * 10 ** rng.uniform(-3, 3, batch * steps)
            mask = (rng.uniform(size=(batch, steps)) < 0.7).astype(float)
            got = ad.masked_step_sum(Tensor(x), mask)
            assert got.data.tobytes() == _np_old_masked_sum(x, mask).tobytes()

    def test_grad_check(self):
        rng = np.random.default_rng(11)
        x = Tensor(rng.normal(size=12), requires_grad=True)
        mask = np.array([[1, 1, 0, 0], [1, 1, 1, 0], [1, 1, 1, 1]], dtype=float)
        assert ad.grad_check(lambda: ad.masked_step_sum(ad.tanh(x), mask), [x]) <= 1e-6
        x.zero_grad()
        run_backward(lambda: ad.scale(ad.masked_step_sum(x, mask), 2.0))
        np.testing.assert_array_equal(x.grad, 2.0 * mask.T.reshape(-1))

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            ad.masked_step_sum(Tensor(np.zeros(5)), np.ones((2, 3)))
        with pytest.raises(ShapeError):
            ad.masked_step_sum(Tensor(np.zeros(6)), np.ones(6))


def _old_dot_rows(a, b):
    """Row-wise inner product of two (B, n) matrices -> (B,)."""
    def backward_fn(g):
        ad._accum(a, g[:, None] * b.data)
        ad._accum(b, g[:, None] * a.data)

    return ad._make((a.data * b.data).sum(axis=1), (a, b), backward_fn)


def _old_colscale(x, s):
    """Row b of a (B, n) matrix times the scalar s[b]."""
    def backward_fn(g):
        ad._accum(x, g * s.data[:, None])
        ad._accum(s, (g * x.data).sum(axis=1))

    return ad._make(x.data * s.data[:, None], (x, s), backward_fn)


def _old_slice_cols(x, start, stop):
    def backward_fn(g):
        buf = np.zeros_like(x.data)
        buf[:, start:stop] = g
        ad._accum(x, buf)

    return ad._make(x.data[:, start:stop].copy(), (x,), backward_fn)


def _old_row_dots(parts, g):
    """The per-part chain `row_dots` replaced: a dot and a reshape per part,
    then one concat."""
    cols = []
    for p in parts:
        s = _old_dot_rows(p, g)
        cols.append(reshaped(s, (s.shape[0], 1)))
    return ad.concat(cols, axis=1)


def _old_weighted_sum(w, parts):
    """The per-part chain `weighted_sum` replaced: slice, reshape and scale
    per part, then one add per part after the first."""
    out = None
    for j, p in enumerate(parts):
        term = _old_colscale(p, reshaped(_old_slice_cols(w, j, j + 1), (w.shape[0],)))
        out = term if out is None else ad.add(out, term)
    return out


class TestRowMixtureOps:
    def _inputs(self, rng, k, batch=3, dim=4, scale=1.0):
        parts = [Tensor(rng.normal(size=(batch, dim)) * scale, requires_grad=True)
                 for _ in range(k)]
        g = Tensor(rng.normal(size=(batch, dim)) * scale, requires_grad=True)
        raw = rng.uniform(0.1, 1.0, (batch, k))
        w = Tensor(raw / raw.sum(axis=1, keepdims=True), requires_grad=True)
        return parts, g, w

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_grad_check(self, k):
        rng = np.random.default_rng(20 + k)
        parts, g, w = self._inputs(rng, k)
        if k > 1:
            assert len(set(w.data[0].tolist())) == k     # unequal weights
        c = Tensor(rng.normal(size=(3, k)))
        assert ad.grad_check(lambda: total(ad.mul(ad.tanh(ad.row_dots(parts, g)), c)),
                             [*parts, g]) <= 1e-6
        d = Tensor(rng.normal(size=(3, 4)))
        assert ad.grad_check(lambda: total(ad.mul(ad.tanh(ad.weighted_sum(w, parts)), d)),
                             [w, *parts]) <= 1e-6

    @pytest.mark.parametrize("k", [1, 2, 3])
    @pytest.mark.parametrize("prefill", [False, True])
    def test_bitwise_equal_to_the_old_chain(self, k, prefill):
        # the moderator's gate and mixture, leaves prefilled or not; zeros in
        # the loss weights and a negative sign put signed zeros in the sweep
        for seed in range(6):
            rng = np.random.default_rng(100 * k + seed)
            batch, dim = int(rng.integers(1, 6)), int(rng.integers(1, 7))
            scale = 10.0 ** rng.uniform(-3, 3)
            parts0 = [rng.normal(size=(batch, dim)) * scale for _ in range(k)]
            g0 = rng.normal(size=(batch, dim)) * scale
            c = Tensor(rng.normal(size=(batch, dim)) * (rng.uniform(size=(batch, dim)) < 0.6))
            filled = [rng.normal(size=(batch, dim)) for _ in range(k + 1)]
            sign = float(rng.choice([1.0, -1.0]))
            results = []
            for scores_op, mix_op in ((_old_row_dots, _old_weighted_sum),
                                      (ad.row_dots, ad.weighted_sum)):
                parts = [Tensor(p, requires_grad=True) for p in parts0]
                g = Tensor(g0, requires_grad=True)
                if prefill:
                    for t, f in zip([*parts, g], filled):
                        t.grad = f.copy()
                with Tape() as tape:
                    pi = ad.row_softmax(scores_op(parts, g))
                    mixed = mix_op(pi, parts)
                    loss = ad.scale(total(ad.mul(mixed, c)), sign)
                tape.backward(loss)
                results.append([pi.data.tobytes(), mixed.data.tobytes(), pi.grad.tobytes()]
                               + [t.grad.tobytes() for t in (*parts, g)])
            assert results[0] == results[1]

    def test_weighted_sum_into_a_prefilled_leaf_weight(self):
        rng = np.random.default_rng(30)
        parts0 = [rng.normal(size=(2, 3)) for _ in range(3)]
        w0 = np.array([[0.2, 0.3, 0.5], [0.6, 0.1, 0.3]])
        filled = np.array([[-0.0, 1.5, -0.0], [2.0, -0.0, -0.0]])
        c = Tensor(np.array([[0.0, 0.0, 0.0], [1.0, -2.0, 0.5]]))
        results = []
        for op in (_old_weighted_sum, ad.weighted_sum):
            parts = [Tensor(p, requires_grad=True) for p in parts0]
            w = Tensor(w0, requires_grad=True)
            w.grad = filled.copy()
            run_backward(lambda: ad.scale(total(ad.mul(op(w, parts), c)), -1.0))
            results.append([w.grad.tobytes()] + [p.grad.tobytes() for p in parts])
        assert results[0] == results[1]

    def test_shape_errors(self):
        a, b = Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4)))
        for parts, g in (([], a), ([a, b], a), ([a], Tensor(np.zeros(3)))):
            with pytest.raises(ShapeError, match="row_dots"):
                ad.row_dots(parts, g)
        for w, parts in ((Tensor(np.ones((2, 1))), []),
                         (Tensor(np.ones((2, 2))), [a, b]),
                         (Tensor(np.ones((2, 1))), [a, a]),
                         (Tensor(np.ones((3, 2))), [a, a]),
                         (Tensor(np.ones(2)), [a, a])):
            with pytest.raises(ShapeError, match="weighted_sum"):
                ad.weighted_sum(w, parts)


def _old_lrt_sample(y, v, eps):
    """tile(y) + eps * tile(sqrt(v)) over (T*N, V) noise: the reparameterization
    op the aleatoric loss used before its likelihood became one node."""
    reps, rows, cols = eps.shape[0] // y.data.shape[0], *y.data.shape
    r = np.sqrt(v.data)

    def backward_fn(g):
        ad._accum(y, g.reshape(reps, rows, cols).sum(axis=0))
        ad._accum(v, (g * eps).reshape(reps, rows, cols).sum(axis=0) * 0.5 / r)

    return ad._make(np.tile(y.data, (reps, 1)) + eps * np.tile(r, (reps, 1)), (y, v),
                    backward_fn)


def _old_log_mean_exp_rows(x):
    """Column-wise log((1/T) sum_t exp(x[t, :])) of a (T, N) tensor."""
    reps = x.data.shape[0]
    m = x.data.max(axis=0)
    e = np.exp(x.data - m[None, :])
    s = e.sum(axis=0)
    w = e / s[None, :]

    def backward_fn(g):
        ad._accum(x, w * g[None, :])

    return ad._make(m + np.log(s / reps), (x,), backward_fn)


def _old_lrt_log_likelihood(y, v, eps, targets):
    """The six-node chain `lrt_log_likelihood` replaced."""
    reps, rows, cols = eps.shape
    y_hat = _old_lrt_sample(y, v, eps.reshape(reps * rows, cols))
    lp = ad.sub(ad.gather_cols(y_hat, np.tile(targets, reps)), ad.row_logsumexp(y_hat))
    return _old_log_mean_exp_rows(reshaped(lp, (reps, rows)))


class TestLrtLogLikelihood:
    def _inputs(self, seed=12, rows=3, cols=4, reps=5):
        rng = np.random.default_rng(seed)
        y = Tensor(rng.normal(size=(rows, cols)), requires_grad=True)
        v = Tensor(rng.uniform(0.1, 2.0, (rows, cols)), requires_grad=True)
        return y, v, rng.normal(size=(reps, rows, cols)), rng.integers(0, cols, rows)

    @settings(max_examples=60, deadline=None)
    @given(reps=st.integers(1, 20), lengths=st.lists(st.integers(1, 6), min_size=1, max_size=4),
           steps=st.integers(1, 6), vocab=st.integers(2, 12), seed=st.integers(0, 2**32 - 1),
           prefill=st.booleans(), sign=st.sampled_from([1.0, -1.0]))
    @example(reps=1, lengths=[1], steps=1, vocab=2, seed=0, prefill=False,
             sign=-1.0).via("T = B = 1")
    @example(reps=20, lengths=[2], steps=6, vocab=12, seed=1, prefill=False,
             sign=1.0).via("PAD tail, +0.0 upstream")
    @example(reps=3, lengths=[1, 3, 2], steps=5, vocab=7, seed=2, prefill=True,
             sign=-1.0).via("ragged, gradients filled before the sweep")
    def test_bitwise_equal_to_the_old_chain(self, reps, lengths, steps, vocab, seed, prefill,
                                            sign):
        # row lengths in 1..steps; steps past every row's length are all PAD,
        # where the upstream gradient is a zero whose sign follows the loss's
        batch = len(lengths)
        mask = (np.arange(steps)[None, :] < np.minimum(lengths, steps)[:, None]).astype(float)
        rng = np.random.default_rng(seed)
        rows = steps * batch
        y0 = rng.normal(size=(rows, vocab)) * rng.uniform(0.1, 10.0)
        v0 = rng.uniform(0.0, 3.0, (rows, vocab))
        eps = rng.normal(size=(reps, rows, vocab))
        targets = rng.integers(0, vocab, rows)
        filled = [rng.normal(size=(rows, vocab)) for _ in range(2)]
        results = []
        for op in (_old_lrt_log_likelihood, ad.lrt_log_likelihood):
            y, v = Tensor(y0, requires_grad=True), Tensor(v0, requires_grad=True)
            if prefill:
                y.grad, v.grad = filled[0].copy(), filled[1].copy()
            with Tape() as tape:
                values = op(y, v, eps, targets)
                loss = ad.scale(ad.masked_step_sum(values, mask), sign / mask.sum())
            tape.backward(loss)
            results.append([values.data.tobytes(), y.grad.tobytes(), v.grad.tobytes()])
        assert results[0] == results[1]

    def test_zero_variance_is_the_plain_log_likelihood(self):
        y, _, eps, targets = self._inputs()
        out = ad.lrt_log_likelihood(y, Tensor(np.zeros(y.shape)), eps, targets)
        plain = ad.sub(ad.gather_cols(y, targets), ad.row_logsumexp(y))
        assert out.data.tobytes() == plain.data.tobytes()

    def test_grad_check(self):
        mask = np.array([[1, 1, 0], [1, 1, 1]], dtype=float)
        for reps in (1, 3):
            y, v, eps, targets = self._inputs(rows=6, reps=reps)

            def f():
                return ad.masked_step_sum(ad.lrt_log_likelihood(y, v, eps, targets), mask)

            assert ad.grad_check(f, [y, v]) <= 1e-6

    def test_second_sweep_repeats_the_gradients(self):
        y, v, eps, targets = self._inputs()
        with Tape() as tape:
            loss = total(ad.lrt_log_likelihood(y, v, eps, targets))
        tape.backward(loss)
        first = y.grad.copy(), v.grad.copy()
        y.zero_grad(), v.zero_grad()
        tape.backward(loss)
        assert y.grad.tobytes() == first[0].tobytes()
        assert v.grad.tobytes() == first[1].tobytes()

    def test_one_tape_node(self):
        y, v, eps, targets = self._inputs()
        with Tape() as tape:
            ad.lrt_log_likelihood(y, v, eps, targets)
        assert len(tape) == 1

    def test_targets_out_of_range_rejected(self):
        y, v, eps, _ = self._inputs(rows=2, cols=3)
        for targets in ([-1, -2], [0, 3]):
            with pytest.raises(IndexError, match="lrt_log_likelihood"):
                ad.lrt_log_likelihood(y, v, eps, targets)

    def test_errors(self):
        y, v, eps, targets = self._inputs()
        for bad in (eps[:, :-1], eps[:, :, :-1], eps.reshape(-1, 4), eps[:0],
                    np.concatenate([eps, eps], axis=1)):
            with pytest.raises(ShapeError):
                ad.lrt_log_likelihood(y, v, bad, targets)
        with pytest.raises(ShapeError):
            ad.lrt_log_likelihood(y, Tensor(np.ones((3, 3))), eps, targets)
        for bad in (targets[:-1], np.tile(targets, 2), targets[None, :]):
            with pytest.raises(ShapeError):
                ad.lrt_log_likelihood(y, v, eps, bad)
        with pytest.raises(ShapeError):
            ad.lrt_log_likelihood(Tensor(np.zeros((0, 4))), Tensor(np.zeros((0, 4))),
                                  np.zeros((5, 0, 4)), [])
        negative = v.data.copy()
        negative[1, 2] = -1e-12
        with pytest.raises(ValueError, match="nonnegative"):
            ad.lrt_log_likelihood(y, Tensor(negative), eps, targets)


class TestDropout:
    """`Dropout.mask` draws the mask; `ad.dropout` multiplies by it."""

    def test_rate_zero_is_identity(self):
        x = Tensor([1.0, -2.0, 3.0])
        for kind in ("bernoulli", "gaussian"):
            drop = Dropout(0.0, kind)
            assert not drop.active(RngStream(0))
            mask = drop.mask((3,), RngStream(0))
            assert np.array_equal(mask, np.ones(3))
            assert np.array_equal(ad.dropout(x, mask).data, x.data)

    def test_rate_domain(self):
        for bad in (-0.1, 1.0, 1.5, float("nan")):
            with pytest.raises(ValueError, match="dropout rate"):
                Dropout(bad, "bernoulli").mask((1,), RngStream(0))
        with pytest.raises(ValueError, match="dropout kind"):
            Dropout(0.3, "dropconnect").mask((1,), RngStream(0))
        with pytest.raises(ShapeError, match="mask"):
            ad.dropout(Tensor(np.ones((2, 3))), np.ones((3, 2)))

    def test_bernoulli_values_and_mean(self):
        p = 0.3
        mask = Dropout(p, "bernoulli").mask((200000,), RngStream(11))
        vals = set(np.unique(mask))
        assert vals <= {0.0, 1.0 / (1 - p)}
        assert abs(mask.mean() - 1.0) < 0.01

    def test_gaussian_mean_one_variance(self):
        p = 0.4
        mask = Dropout(p, "gaussian").mask((200000,), RngStream(12))
        assert abs(mask.mean() - 1.0) < 0.01
        assert abs(mask.var() - p / (1 - p)) < 0.02

    def test_fixed_mask_reused_exactly(self):
        x = Tensor(np.ones((3, 4)))
        drop = Dropout(0.5, "bernoulli")
        mask = drop.mask((3, 4), RngStream(13))
        a = drop.apply(x, RngStream(13))
        b = drop.apply(x, RngStream(13))
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(a.data, mask)
        assert np.array_equal(ad.dropout(x, mask).data, mask)

    def test_same_stream_state_same_mask(self):
        x = Tensor(np.ones(50))
        drop = Dropout(0.5, "bernoulli")
        a = drop.apply(x, RngStream(9, stream=4))
        b = drop.apply(x, RngStream(9, stream=4))
        assert np.array_equal(a.data, b.data)

    def test_backward_scales_by_mask(self):
        x = Tensor(np.ones(6), requires_grad=True)
        mask = Dropout(0.5, "bernoulli").mask((6,), RngStream(14))
        run_backward(lambda: total(ad.dropout(x, mask)))
        assert np.array_equal(x.grad, mask)


class TestGradCheck:
    def test_quadratic_form(self):
        rng = np.random.default_rng(8)
        q = rng.normal(size=(5, 5))
        q = q + q.T
        x = Tensor(rng.normal(size=(5, 1)), requires_grad=True)

        def f():
            qx = ad.matmul(Tensor(q), x)
            return total(ad.mul(x, qx))

        err = ad.grad_check(f, [x], h=1e-5)
        assert err <= 1e-7

    def test_zero_gradient_case(self):
        x = Tensor(np.zeros(4), requires_grad=True)
        err = ad.grad_check(lambda: total(ad.mul(x, x)), [x], h=1e-5)
        assert err <= 1e-8

    def test_catches_wrong_gradient(self):
        x = Tensor(np.array([0.7, -0.3]), requires_grad=True)

        def broken(a):
            t = np.tanh(a.data)

            def backward_fn(g):
                ad._accum(a, g * (1.0 - t))  # wrong derivative on purpose

            return ad._make(t, (a,), backward_fn)

        err = ad.grad_check(lambda: total(broken(x)), [x], h=1e-5)
        assert err > 1e-2
