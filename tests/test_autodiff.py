"""Tensor core: op forward values against hand arithmetic, gradients against
central finite differences, and the dropout/softmax contracts; the row ops
are checked against numpy references."""

import numpy as np
import pytest

import mcvqg.autodiff as ad
from mcvqg.autodiff import ShapeError, Tape, Tensor
from mcvqg.rng import RngStream


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

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            Tensor([1.0, np.nan])
        with pytest.raises(ValueError):
            Tensor([np.inf])

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
        # the square root of the variances lives in lrt_sample
        with pytest.raises(ValueError, match="nonnegative"):
            ad.lrt_sample(Tensor([[0.0]]), Tensor([[-1.0]]), np.zeros((1, 1)))


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
            loss = ad.sum_all(ad.add(ad.add(ad.mul(s, Tensor([0.5, 0.5])),
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
        run_backward(lambda: ad.sum_all(ad.mul(x, x)))
        assert np.allclose(x.grad, 2 * x.data)

    def test_matmul_gradient_matches_fd(self):
        rng = np.random.default_rng(3)
        a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        run_backward(lambda: ad.sum_all(ad.matmul(a, b)))
        ga = fd_grad(lambda: (a.data @ b.data).sum(), a.data)
        gb = fd_grad(lambda: (a.data @ b.data).sum(), b.data)
        assert np.allclose(a.grad, ga, rtol=1e-6, atol=1e-8)
        assert np.allclose(b.grad, gb, rtol=1e-6, atol=1e-8)

    def test_grad_accumulates_across_multiple_uses(self):
        x = Tensor([2.0], requires_grad=True)
        run_backward(lambda: ad.sum_all(ad.add(x, x)))
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
            y = ad.sum_all(ad.mul(x, x))
        with pytest.raises(RuntimeError):
            tape.backward(y)

    def test_tape_single_use(self):
        x = Tensor([1.0], requires_grad=True)
        with Tape() as tape:
            y = ad.sum_all(x)
        tape.backward(y)
        with pytest.raises(RuntimeError):
            tape.backward(y)

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
            loss = ad.sum_all(ad.mul(mid, mid))
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
            loss = ad.add(ad.sum_all(ad.mul(a, a)), ad.sum_all(b))
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
            loss = ad.sum_all(a)
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
        run_backward(lambda: ad.sum_all(ad.affine(x, w, b)))
        assert np.allclose(b.grad, fd_grad(lambda: (x.data @ w.data + b.data).sum(), b.data),
                           rtol=1e-6, atol=1e-8)

    def test_structural_grads_match_fd(self):
        rng = np.random.default_rng(5)
        x = Tensor(rng.normal(size=(3, 5)), requires_grad=True)
        ids = np.array([1, 4, 0])

        def build():
            a = ad.slice_cols(x, 1, 4)
            b = ad.concat([a, a], axis=0)
            d = ad.row_softmax(b)
            e = ad.gather_cols(x, ids)
            return ad.add(ad.sum_all(d), ad.sum_all(ad.mul(e, e)))

        run_backward(build)
        got = x.grad.copy()

        def value():
            a = x.data[:, 1:4]
            b = np.tile(a, (2, 1))
            z = b - b.max(axis=1, keepdims=True)
            p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
            e = x.data[np.arange(3), ids]
            return p.sum() + (e * e).sum()

        assert np.allclose(got, fd_grad(value, x.data), rtol=1e-5, atol=1e-7)

    def test_gather_rows_scatter_adds(self):
        table = Tensor(np.arange(8, dtype=float).reshape(4, 2), requires_grad=True)
        run_backward(lambda: ad.sum_all(ad.gather_rows(table, np.array([1, 1, 3]))))
        expect = np.zeros((4, 2))
        expect[1] = 2.0
        expect[3] = 1.0
        assert np.array_equal(table.grad, expect)

    def test_dot_rows_and_colscale(self):
        rng = np.random.default_rng(6)
        a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        b = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        s = Tensor(rng.normal(size=4), requires_grad=True)
        run_backward(lambda: ad.sum_all(ad.colscale(ad.mul(a, b), s)))

        def value():
            return ((a.data * b.data) * s.data[:, None]).sum()

        assert np.allclose(a.grad, fd_grad(value, a.data), rtol=1e-6, atol=1e-8)
        assert np.allclose(s.grad, fd_grad(value, s.data), rtol=1e-6, atol=1e-8)

    def test_log_mean_exp_rows_value_and_grad(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
        out = ad.log_mean_exp_rows(x)
        assert np.allclose(out.data, np.log(np.exp(x.data).mean(axis=0)), rtol=1e-12)
        run_backward(lambda: ad.sum_all(ad.log_mean_exp_rows(x)))
        g = fd_grad(lambda: np.log(np.exp(x.data).mean(axis=0)).sum(), x.data)
        assert np.allclose(x.grad, g, rtol=1e-5, atol=1e-8)

    def test_log_mean_exp_identical_rows_exact(self):
        row = np.array([-1.3862943611198906, 0.1234567890123456, 7.77])
        x = Tensor(np.tile(row, (20, 1)))
        out = ad.log_mean_exp_rows(x)
        assert np.array_equal(out.data, row)

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
            return ad.sum_all(ad.tanh(ad.mul(stacked, w)))

        assert ad.grad_check(f, [a, b]) <= 1e-6
        assert ad.grad_check(lambda: ad.sum_all(ad.tanh(ad.concat([c, a], axis=1))),
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


class TestLrtSample:
    def _inputs(self, seed=12, rows=3, cols=4, reps=5):
        rng = np.random.default_rng(seed)
        y = Tensor(rng.normal(size=(rows, cols)), requires_grad=True)
        v = Tensor(rng.uniform(0.1, 2.0, (rows, cols)), requires_grad=True)
        return y, v, rng.normal(size=(reps * rows, cols))

    def test_values_bitwise_equal_to_tiled_formula(self):
        y, v, eps = self._inputs()
        ref = np.tile(y.data, (5, 1)) + eps * np.tile(np.sqrt(v.data), (5, 1))
        assert ad.lrt_sample(y, v, eps).data.tobytes() == ref.tobytes()

    def test_zero_variance_returns_tiled_logits(self):
        y, _, eps = self._inputs()
        out = ad.lrt_sample(y, Tensor(np.zeros(y.shape)), eps)
        assert out.data.tobytes() == np.tile(y.data, (5, 1)).tobytes()

    def test_grad_check(self):
        y, v, eps = self._inputs()
        w = np.random.default_rng(13).normal(size=eps.shape)

        def f():
            return ad.sum_all(ad.tanh(ad.mul(ad.lrt_sample(y, v, eps), Tensor(w))))

        assert ad.grad_check(f, [y, v]) <= 1e-6

    def test_one_tape_node(self):
        y, v, eps = self._inputs()
        with Tape() as tape:
            ad.lrt_sample(y, v, eps)
        assert len(tape) == 1

    def test_errors(self):
        y, v, eps = self._inputs()
        for bad in (eps[:-1], eps[:, :-1], eps.reshape(-1), np.zeros((0, 4))):
            with pytest.raises(ShapeError):
                ad.lrt_sample(y, v, bad)
        with pytest.raises(ShapeError):
            ad.lrt_sample(y, Tensor(np.ones((3, 3))), eps)
        with pytest.raises(ShapeError):
            ad.lrt_sample(Tensor(np.zeros((0, 4))), Tensor(np.zeros((0, 4))), eps)
        negative = v.data.copy()
        negative[1, 2] = -1e-12
        with pytest.raises(ValueError, match="nonnegative"):
            ad.lrt_sample(y, Tensor(negative), eps)


class TestDropout:
    def test_rate_zero_is_identity(self):
        x = Tensor([1.0, 2.0])
        assert ad.dropout(x, 0.0, "bernoulli", RngStream(0)) is x

    def test_rate_domain(self):
        x = Tensor([1.0])
        for bad in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                ad.dropout(x, bad, "bernoulli", RngStream(0))

    def test_bernoulli_values_and_mean(self):
        p = 0.3
        mask = ad.dropout_mask((200000,), p, "bernoulli", RngStream(11))
        vals = set(np.unique(mask))
        assert vals <= {0.0, 1.0 / (1 - p)}
        assert abs(mask.mean() - 1.0) < 0.01

    def test_gaussian_mean_one_variance(self):
        p = 0.4
        mask = ad.dropout_mask((200000,), p, "gaussian", RngStream(12))
        assert abs(mask.mean() - 1.0) < 0.01
        assert abs(mask.var() - p / (1 - p)) < 0.02

    def test_fixed_mask_reused_exactly(self):
        x = Tensor(np.ones((3, 4)))
        mask = ad.dropout_mask((3, 4), 0.5, "bernoulli", RngStream(13))
        a = ad.dropout(x, 0.5, "bernoulli", RngStream(13))
        b = ad.dropout(x, 0.5, "bernoulli", RngStream(13))
        assert np.array_equal(a.data, b.data)
        assert np.array_equal(a.data, mask)

    def test_same_stream_state_same_mask(self):
        x = Tensor(np.ones(50))
        a = ad.dropout(x, 0.5, "bernoulli", RngStream(9, stream=4))
        b = ad.dropout(x, 0.5, "bernoulli", RngStream(9, stream=4))
        assert np.array_equal(a.data, b.data)

    def test_backward_scales_by_mask(self):
        x = Tensor(np.ones(6), requires_grad=True)
        mask = ad.dropout_mask((6,), 0.5, "bernoulli", RngStream(14))
        run_backward(lambda: ad.sum_all(ad.dropout(x, 0.5, "bernoulli", RngStream(14))))
        assert np.array_equal(x.grad, mask)


class TestGradCheck:
    def test_quadratic_form(self):
        rng = np.random.default_rng(8)
        q = rng.normal(size=(5, 5))
        q = q + q.T
        x = Tensor(rng.normal(size=5), requires_grad=True)

        def f():
            qx = ad.matmul(Tensor(q), x)
            return ad.sum_all(ad.mul(x, qx))

        err = ad.grad_check(f, [x], h=1e-5)
        assert err <= 1e-7

    def test_zero_gradient_case(self):
        x = Tensor(np.zeros(4), requires_grad=True)
        err = ad.grad_check(lambda: ad.sum_all(ad.mul(x, x)), [x], h=1e-5)
        assert err <= 1e-8

    def test_catches_wrong_gradient(self):
        x = Tensor(np.array([0.7, -0.3]), requires_grad=True)

        def broken(a):
            t = np.tanh(a.data)

            def backward_fn(g):
                ad._accum(a, g * (1.0 - t))  # wrong derivative on purpose

            return ad._make(t, (a,), backward_fn)

        err = ad.grad_check(lambda: ad.sum_all(broken(x)), [x], h=1e-5)
        assert err > 1e-2
