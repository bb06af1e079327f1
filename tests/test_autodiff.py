"""Gradient and behavior checks for the tape-based autodiff core.

Every differentiable op is validated against central finite differences on
random inputs; fixed worked examples pin down conventions (clamping,
summation, tie handling) that finite differences alone would not catch.
"""

import tracemalloc

import numpy as np
import pytest

from treefuse import autodiff as ad
from treefuse.autodiff import Tape, Tensor, backward

from oracles import (
    FD_STEP,
    adam_reference,
    allocating_lstm_step,
    assert_bitwise,
    clip_reference,
    finite_difference_grad,
    max_rel_error,
    piecewise_sigmoid,
    stepwise_lstm,
)

RNG = np.random.default_rng(20240817)
TRIALS = 20
TOL = 1e-4


def run_fd_check(build, arrays, h=FD_STEP):
    """Compare tape gradients of a scalar loss against finite differences.

    build receives one Tensor per input array and must return the scalar
    loss Tensor; arrays are mutated during differencing and restored.
    """
    tensors = [Tensor(a) for a in arrays]
    with Tape() as tape:
        loss = build(*tensors)
    backward(tape, loss)

    for t, arr in zip(tensors, arrays):
        def f():
            probe = [Tensor(a) for a in arrays]
            with Tape():
                out = build(*probe)
            return float(out.data)

        fd = finite_difference_grad(f, arr, h=h)
        assert t.grad is not None
        err = max_rel_error(t.grad, fd)
        assert err < TOL, f"rel err {err:.3e} exceeds {TOL}"


def sum_all(x):
    return ad.reduce_sum(x)


class TestMatmul:
    @pytest.mark.parametrize("ta,tb", [(False, False), (True, False), (False, True), (True, True)])
    def test_fd(self, ta, tb):
        for _ in range(TRIALS):
            m, k, n = RNG.integers(1, 5, size=3)
            a = RNG.normal(size=(k, m) if ta else (m, k))
            b = RNG.normal(size=(n, k) if tb else (k, n))
            run_fd_check(lambda x, y: sum_all(ad.matmul(x, y, ta=ta, tb=tb)), [a, b])

    def test_identity(self):
        a = RNG.normal(size=(3, 3))
        out = ad.matmul(Tensor(a), Tensor(np.eye(3)))
        np.testing.assert_array_equal(out.data, a)

    def test_worked_example(self):
        a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        b = Tensor(np.array([[1.0], [1.0]]))
        out = ad.matmul(a, b)
        np.testing.assert_array_equal(out.data, [[3.0], [7.0]])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))


class TestMatmulConsistent:
    def test_fd(self):
        for _ in range(TRIALS):
            m, k, n = RNG.integers(1, 5, size=3)
            a = RNG.normal(size=(m, k))
            b = RNG.normal(size=(k, n))
            run_fd_check(lambda x, y: sum_all(ad.matmul_consistent(x, y)), [a, b])

    def test_matches_plain_matmul_closely(self):
        a = RNG.normal(size=(7, 11))
        b = RNG.normal(size=(11, 5))
        ref = ad.matmul(Tensor(a), Tensor(b)).data
        out = ad.matmul_consistent(Tensor(a), Tensor(b)).data
        assert max_rel_error(out, ref) < 1e-12

    def test_duplicate_columns_bitwise_equal(self):
        # The property plain BLAS matmul does not guarantee: identical
        # right-hand columns must produce identical output columns.
        for _ in range(50):
            m = int(RNG.integers(1, 40))
            k = int(RNG.integers(1, 200))
            n = int(RNG.integers(2, 30))
            a = RNG.normal(size=(m, k))
            col = RNG.normal(size=(k, 1))
            b = np.tile(col, (1, n))
            out = ad.matmul_consistent(Tensor(a), Tensor(b)).data
            for j in range(1, n):
                np.testing.assert_array_equal(out[:, j], out[:, 0])


class TestElementwise:
    def test_add_fd(self):
        for _ in range(TRIALS):
            shape = tuple(RNG.integers(1, 5, size=2))
            run_fd_check(lambda x, y: sum_all(ad.add(x, y)),
                         [RNG.normal(size=shape), RNG.normal(size=shape)])

    def test_add_accumulates_through_reuse(self):
        x = Tensor(np.array([1.5, -2.0]))
        with Tape() as tape:
            loss = ad.reduce_sum(ad.add(x, x))
        backward(tape, loss)
        np.testing.assert_array_equal(x.grad, [2.0, 2.0])

    def test_add_shape_mismatch(self):
        with pytest.raises(ValueError):
            ad.add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))

    def test_mul_fd(self):
        for _ in range(TRIALS):
            shape = tuple(RNG.integers(1, 5, size=2))
            run_fd_check(lambda x, y: sum_all(ad.mul(x, y)),
                         [RNG.normal(size=shape), RNG.normal(size=shape)])

    def test_sigmoid_fd(self):
        for _ in range(TRIALS):
            run_fd_check(lambda x: sum_all(ad.sigmoid(x)),
                         [RNG.normal(size=tuple(RNG.integers(1, 5, size=2)))])

    def test_sigmoid_matches_piecewise_formula(self):
        # signed zeros, subnormals, the edges of exp's underflow (exp(-745)
        # is the last nonzero), overflow-sized inputs, infinities and NaN
        special = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310,
                            2.2e-308, -2.2e-308, 708.0, -708.0, 709.0, -709.0,
                            745.0, -745.0, 746.0, -746.0, 800.0, -800.0,
                            np.inf, -np.inf, np.nan])
        x = np.concatenate(
            [special] + [RNG.normal(size=10_000) * s for s in (1.0, 5.0, 50.0)]
        )
        got = ad._sigmoid_arr(x)
        want = piecewise_sigmoid(x)
        np.testing.assert_array_equal(got, want)
        finite = ~np.isnan(want)
        np.testing.assert_array_equal(got[finite].view(np.int64), want[finite].view(np.int64))

    def test_sigmoid_known_values(self):
        out = ad.sigmoid(Tensor(np.array([0.0])))
        np.testing.assert_array_equal(out.data, [0.5])
        big = ad.sigmoid(Tensor(np.array([800.0, -800.0])))
        assert np.all(np.isfinite(big.data))
        assert big.data[0] == pytest.approx(1.0)
        assert big.data[1] == pytest.approx(0.0)

    def test_tanh_fd(self):
        for _ in range(TRIALS):
            run_fd_check(lambda x: sum_all(ad.tanh(x)),
                         [RNG.normal(size=tuple(RNG.integers(1, 5, size=2)))])


class TestSoftmax:
    @pytest.mark.parametrize("axis", [0, 1, -1])
    def test_fd(self, axis):
        for _ in range(TRIALS):
            shape = tuple(RNG.integers(2, 5, size=2))
            # Sum of softmax is constant, so weight entries to get a
            # nontrivial gradient.
            w = RNG.normal(size=shape)
            run_fd_check(
                lambda x, wt=w: sum_all(ad.mul(ad.softmax(x, axis=axis), Tensor(wt))),
                [RNG.normal(size=shape)],
            )

    def test_uniform_on_equal_inputs(self):
        out = ad.softmax(Tensor(np.zeros((1, 3))), axis=-1)
        np.testing.assert_array_equal(out.data, np.full((1, 3), 1.0 / 3.0))

    def test_large_input_stability(self):
        out = ad.softmax(Tensor(np.array([[1000.0, 0.0]])), axis=-1)
        assert np.all(np.isfinite(out.data))
        assert out.data[0, 0] == pytest.approx(1.0)

    def test_rows_sum_to_one(self):
        x = RNG.normal(size=(6, 9)) * 30.0
        out = ad.softmax(Tensor(x), axis=1)
        np.testing.assert_allclose(out.data.sum(axis=1), 1.0, atol=1e-12)

    def test_shift_invariance(self):
        x = RNG.normal(size=(4, 7))
        a = ad.softmax(Tensor(x), axis=1).data
        b = ad.softmax(Tensor(x + 123.456), axis=1).data
        np.testing.assert_allclose(a, b, atol=1e-12)


class TestShapeOps:
    def test_transpose_fd(self):
        for _ in range(TRIALS):
            shape = tuple(RNG.integers(1, 5, size=2))
            w = RNG.normal(size=shape[::-1])
            run_fd_check(
                lambda x, wt=w: sum_all(ad.mul(ad.transpose2d(x), Tensor(wt))),
                [RNG.normal(size=shape)],
            )

    @pytest.mark.parametrize("axis", [0, 1])
    def test_concat_fd(self, axis):
        for _ in range(TRIALS):
            base = [3, 4]
            shapes = []
            for _ in range(3):
                s = list(base)
                s[axis] = int(RNG.integers(1, 4))
                shapes.append(tuple(s))
            arrays = [RNG.normal(size=s) for s in shapes]
            out_shape = list(base)
            out_shape[axis] = sum(s[axis] for s in shapes)
            w = RNG.normal(size=tuple(out_shape))
            run_fd_check(
                lambda *xs: sum_all(ad.mul(ad.concat(list(xs), axis=axis), Tensor(w))),
                arrays,
            )

    def test_slice_fd(self):
        for _ in range(TRIALS):
            x = RNG.normal(size=(5, 6))
            axis = int(RNG.integers(0, 2))
            hi = x.shape[axis]
            start = int(RNG.integers(0, hi))
            stop = int(RNG.integers(start + 1, hi + 1))
            run_fd_check(lambda t: sum_all(ad.slice_axis(t, axis, start, stop)), [x])

    def test_concat_slice_roundtrip(self):
        a = RNG.normal(size=(2, 4))
        b = RNG.normal(size=(3, 4))
        joined = ad.concat([Tensor(a), Tensor(b)], axis=0)
        back = ad.slice_axis(joined, 0, 2, 5)
        np.testing.assert_array_equal(back.data, b)

    def test_repeat_rows_fd(self):
        for _ in range(TRIALS):
            v = RNG.normal(size=4)
            w = RNG.normal(size=(6, 4))
            run_fd_check(
                lambda x, wt=w: sum_all(ad.mul(ad.repeat_rows(x, 6), Tensor(wt))),
                [v],
            )

    def test_repeat_rows_grad_is_column_sum(self):
        v = Tensor(np.array([1.0, 2.0]))
        with Tape() as tape:
            loss = ad.reduce_sum(ad.repeat_rows(v, 3))
        backward(tape, loss)
        np.testing.assert_array_equal(v.grad, [3.0, 3.0])


class TestGather:
    def test_fd(self):
        for _ in range(TRIALS):
            table = RNG.normal(size=(6, 3))
            idx = RNG.integers(0, 6, size=5)
            run_fd_check(lambda t: sum_all(ad.gather(t, idx)), [table])

    def test_repeated_rows_accumulate(self):
        table = Tensor(RNG.normal(size=(4, 2)))
        with Tape() as tape:
            loss = ad.reduce_sum(ad.gather(table, np.array([1, 1, 1])))
        backward(tape, loss)
        expected = np.zeros((4, 2))
        expected[1] = 3.0
        np.testing.assert_array_equal(table.grad, expected)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            ad.gather(Tensor(np.zeros((3, 2))), np.array([3]))
        with pytest.raises(IndexError):
            ad.gather(Tensor(np.zeros((3, 2))), np.array([-1]))


class TestReductions:
    @pytest.mark.parametrize("axis", [None, 0, 1])
    def test_reduce_sum_fd(self, axis):
        for _ in range(TRIALS):
            x = RNG.normal(size=(3, 4))
            if axis is None:
                run_fd_check(lambda t: ad.reduce_sum(t), [x])
            else:
                w = RNG.normal(size=4 if axis == 0 else 3)
                run_fd_check(
                    lambda t, wt=w: ad.reduce_sum(ad.mul(ad.reduce_sum(t, axis=axis), Tensor(wt))),
                    [x],
                )

    def test_mean_cols_fd(self):
        for _ in range(TRIALS):
            x = RNG.normal(size=(5, 3))
            w = RNG.normal(size=5)
            run_fd_check(
                lambda t, wt=w: ad.reduce_sum(ad.mul(ad.mean_cols(t), Tensor(wt))),
                [x],
            )

    def test_mean_cols_value(self):
        x = np.array([[1.0, 10.0], [3.0, 20.0]])
        out = ad.mean_cols(Tensor(x))
        np.testing.assert_array_equal(out.data, [5.5, 11.5])

    def test_maxpool_cols_fd(self):
        for _ in range(TRIALS):
            # Well-separated entries so the argmax is stable under the probe.
            x = RNG.permuted(np.arange(15.0)).reshape(5, 3) * 1.7
            w = RNG.normal(size=5)
            run_fd_check(
                lambda t, wt=w: ad.reduce_sum(ad.mul(ad.maxpool_cols(t), Tensor(wt))),
                [x],
            )

    def test_maxpool_value_and_grad(self):
        x = Tensor(np.array([[1.0, 3.0, 2.0]]))
        with Tape() as tape:
            loss = ad.reduce_sum(ad.maxpool_cols(x))
        backward(tape, loss)
        np.testing.assert_array_equal(loss.data, 3.0)
        np.testing.assert_array_equal(x.grad, [[0.0, 1.0, 0.0]])

    def test_maxpool_tie_goes_to_first_column(self):
        x = Tensor(np.array([[5.0, 5.0]]))
        with Tape() as tape:
            loss = ad.reduce_sum(ad.maxpool_cols(x))
        backward(tape, loss)
        np.testing.assert_array_equal(x.grad, [[1.0, 0.0]])


class TestBCE:
    def test_fd(self):
        for _ in range(TRIALS):
            n = int(RNG.integers(1, 8))
            yhat = RNG.uniform(0.05, 0.95, size=n)
            y = RNG.integers(0, 2, size=n).astype(np.float64)
            run_fd_check(lambda p: ad.binary_cross_entropy(p, y), [yhat])

    def test_ln2_example(self):
        loss = ad.binary_cross_entropy(Tensor(np.array([0.5])), np.array([1.0]))
        assert float(loss.data) == pytest.approx(np.log(2.0), rel=1e-12)

    def test_sums_over_labels(self):
        yhat = Tensor(np.array([0.5, 0.5]))
        y = np.array([1.0, 0.0])
        loss = ad.binary_cross_entropy(yhat, y)
        assert float(loss.data) == pytest.approx(2.0 * np.log(2.0), rel=1e-12)

    def test_clamped_endpoints_finite(self):
        yhat = Tensor(np.array([0.0, 1.0]))
        y = np.array([1.0, 0.0])
        with Tape() as tape:
            loss = ad.binary_cross_entropy(yhat, y)
        assert np.isfinite(float(loss.data))
        backward(tape, loss)
        assert np.all(np.isfinite(yhat.grad))


class TestLSTM:
    def _params(self, d_in, d_hid):
        scale = 0.4
        wx = RNG.normal(size=(4 * d_hid, d_in)) * scale
        wh = RNG.normal(size=(4 * d_hid, d_hid)) * scale
        b = RNG.normal(size=4 * d_hid) * scale
        return wx, wh, b

    @pytest.mark.parametrize("reverse", [False, True])
    def test_fd(self, reverse):
        for _ in range(6):
            n = int(RNG.integers(1, 5))
            d_in, d_hid = 3, 2
            emb = RNG.normal(size=(n, d_in))
            wx, wh, b = self._params(d_in, d_hid)
            w = RNG.normal(size=(n, d_hid))
            run_fd_check(
                lambda e, x, h, bb, wt=w: ad.reduce_sum(
                    ad.mul(ad.lstm_sequence(e, x, h, bb, reverse=reverse), Tensor(wt))
                ),
                [emb, wx, wh, b],
            )

    @pytest.mark.parametrize("reverse", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_matches_stepwise_bptt(self, n, reverse):
        d_in, d_hid = 6, 5
        rng = np.random.default_rng([n, reverse])
        emb = rng.normal(size=(n, d_in))
        wx = rng.normal(size=(4 * d_hid, d_in)) * 0.4
        wh = rng.normal(size=(4 * d_hid, d_hid)) * 0.4
        b = rng.normal(size=4 * d_hid) * 0.4
        upstream = rng.normal(size=(n, d_hid))
        states, *grads = stepwise_lstm(emb, wx, wh, b, upstream, reverse=reverse)

        tensors = [Tensor(a) for a in (emb, wx, wh, b)]
        with Tape() as tape:
            out = ad.lstm_sequence(*tensors, reverse=reverse)
            loss = ad.reduce_sum(ad.mul(out, Tensor(upstream)))
        backward(tape, loss)

        np.testing.assert_array_equal(out.data, states)
        # the weight gradients are summed in another order, so entries that
        # nearly cancel differ more than 1e-12 of themselves; the bound is
        # relative to each array's largest entry
        for t, want in zip(tensors, grads):
            np.testing.assert_allclose(t.grad, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    @pytest.mark.parametrize("distinct_rows", [False, True])
    @pytest.mark.parametrize("reverse", [False, True])
    def test_scan_matches_per_document_sequence(self, reverse, distinct_rows):
        # documents repeat tokens and never hold id 0, the padding id; the
        # scan is handed either the whole table or only the distinct rows
        d_in, d_hid = 4, 3
        rng = np.random.default_rng([7, reverse, distinct_rows])
        table = rng.normal(size=(9, d_in))
        wx, wh, b = (rng.normal(size=s) * 0.4
                     for s in ((4 * d_hid, d_in), (4 * d_hid, d_hid), (4 * d_hid,)))
        lengths = np.array([7, 7, 5, 2, 1])
        docs = [rng.integers(1, 5, size=n) for n in lengths]
        ids = np.zeros((lengths[0], len(docs)), dtype=np.int64)
        for j, doc in enumerate(docs):
            ids[: lengths[j], j] = doc[::-1] if reverse else doc
        rows = table
        if distinct_rows:
            tokens, ids = np.unique(ids, return_inverse=True)
            ids = ids.reshape(lengths[0], len(docs))
            rows = table[tokens]
        # a strided view, as scoring passes one half of its output buffer
        buf = np.full((lengths[0], len(docs), 2 * d_hid), np.nan)
        out = buf[:, :, d_hid:]
        ad.lstm_scan(rows, ids, lengths, wx, wh, b, out)

        for j, doc in enumerate(docs):
            states = ad.lstm_sequence(Tensor(table[doc]), Tensor(wx), Tensor(wh),
                                      Tensor(b), reverse=reverse).data
            want = states[::-1] if reverse else states
            np.testing.assert_allclose(out[: lengths[j], j], want, rtol=1e-12, atol=0)
            assert np.isnan(out[lengths[j] :, j]).all()
        assert np.isnan(buf[:, :, :d_hid]).all()

    @pytest.mark.parametrize("aliased", [False, True])
    @pytest.mark.parametrize("width", [None, 1, 3, 40])
    def test_step_matches_allocating_reference(self, width, aliased):
        # width None is one unbatched state, as lstm_sequence steps
        d = 5
        rng = np.random.default_rng([width or 0, aliased])
        shape = () if width is None else (width,)
        z = rng.normal(size=shape + (4 * d,)) * 3.0
        # each special value lands in two random places of the packed gates
        special = [0.0, -0.0, np.inf, -np.inf, np.nan, 800.0, -800.0]
        at = rng.permutation(z.size)[: 2 * len(special)]
        z.reshape(-1)[at] = special * 2
        # unit 0 has NaN forget and cell pre-activations, so two NaNs meet
        # in its cell sum, and which one the sum returns follows the order
        # of its operands
        z[..., [d, 2 * d]] = np.nan
        c0 = rng.normal(size=shape + (d,)) * 2.0
        want = allocating_lstm_step(z, c0)
        z_before = z.copy()

        gates = np.empty_like(z)
        e, mask = np.empty_like(z), np.empty(z.shape, dtype=bool)
        ig = np.empty_like(c0)
        c = c0.copy()
        if aliased:
            # as lstm_scan calls it: the cell in place, and the hidden
            # state (a strided view) doubling as the tanh(cell) buffer
            h = np.full(shape + (2 * d,), np.nan)[..., d:]
            ad._lstm_step(z, c, gates, c, h, h, e, mask, ig)
            got = gates, c, h
            want = want[:2] + want[3:]
        else:
            c_new, tanh_c, h = (np.empty_like(c0) for _ in range(3))
            ad._lstm_step(z, c, gates, c_new, tanh_c, h, e, mask, ig)
            got = gates, c_new, tanh_c, h
            assert_bitwise(c, c0)
        for g, w in zip(got, want):
            assert_bitwise(np.ascontiguousarray(g), w)
        assert_bitwise(z, z_before)

    def test_unbatched_step_makes_no_array(self):
        # lstm_sequence's steps: one state, every gate quarter contiguous
        d = 128
        rng = np.random.default_rng(9)
        z, c = rng.normal(size=4 * d), rng.normal(size=d)
        gates, e, mask = np.empty(4 * d), np.empty(4 * d), np.empty(4 * d, dtype=bool)
        c_new, tanh_c, h, ig = (np.empty(d) for _ in range(4))
        for _ in range(2):
            tracemalloc.start()
            try:
                ad._lstm_step(z, c, gates, c_new, tanh_c, h, e, mask, ig)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # the views of the gate quarters are all it makes
            assert peak < gates.nbytes

    def test_scan_peak_memory_does_not_grow_with_steps(self):
        # buffers are made once per scan, so 80 steps trace no more memory
        # than 8 over the same table and batch width
        d_in, d_hid, n = 16, 32, 4
        rng = np.random.default_rng(8)
        table = rng.normal(size=(9, d_in))
        wx, wh, b = self._params(d_in, d_hid)
        peaks = []
        for steps in (8, 80):
            ids = rng.integers(0, len(table), size=(steps, n))
            lengths = np.array([steps, steps, steps - 1, 3])
            out = np.empty((steps, n, 2 * d_hid))
            tracemalloc.start()
            try:
                ad.lstm_scan(table, ids, lengths, wx, wh, b, out[:, :, :d_hid])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert np.isfinite(out[: lengths[-1], :, :d_hid]).all()
            peaks.append(peak)
        assert peaks[1] <= peaks[0]

    def test_scan_rejects_id_past_table(self):
        table = RNG.normal(size=(5, 3))
        wx, wh, b = self._params(3, 2)
        ids = np.array([[0, 1], [len(table), 2]])
        with pytest.raises(IndexError):
            ad.lstm_scan(table, ids, np.array([2, 2]), wx, wh, b, np.empty((2, 2, 2)))

    def test_matches_scalar_recurrence(self):
        from oracles import scalar_lstm_states

        tokens = [0.3, -1.2, 0.7, 2.0]
        wx = np.array([0.5, -0.3, 0.8, 0.1])
        wh = np.array([0.2, 0.4, -0.6, 0.9])
        b = np.array([0.05, -0.1, 0.2, 0.0])
        expected = scalar_lstm_states(tokens, wx, wh, b)

        emb = np.array(tokens).reshape(-1, 1)
        out = ad.lstm_sequence(
            Tensor(emb), Tensor(wx.reshape(4, 1)), Tensor(wh.reshape(4, 1)), Tensor(b)
        )
        np.testing.assert_allclose(out.data[:, 0], expected, atol=1e-12)

    def test_reverse_is_row_aligned_flip(self):
        # Running in reverse must equal flipping the sequence, running
        # forward, and flipping the states back.
        n, d_in, d_hid = 5, 3, 2
        emb = RNG.normal(size=(n, d_in))
        wx, wh, b = self._params(d_in, d_hid)
        fwd_on_flipped = ad.lstm_sequence(
            Tensor(emb[::-1].copy()), Tensor(wx), Tensor(wh), Tensor(b)
        ).data[::-1]
        rev = ad.lstm_sequence(
            Tensor(emb), Tensor(wx), Tensor(wh), Tensor(b), reverse=True
        ).data
        np.testing.assert_array_equal(rev, fwd_on_flipped)

    def test_single_token(self):
        emb = RNG.normal(size=(1, 3))
        wx, wh, b = self._params(3, 2)
        out = ad.lstm_sequence(Tensor(emb), Tensor(wx), Tensor(wh), Tensor(b))
        assert out.data.shape == (1, 2)
        assert np.all(np.isfinite(out.data))


class TestTapeMechanics:
    def test_backward_requires_scalar(self):
        x = Tensor(np.ones((2, 2)))
        with Tape() as tape:
            y = ad.sigmoid(x)
        with pytest.raises(ValueError):
            backward(tape, y)

    def test_no_tracking_outside_tape(self):
        x = Tensor(np.ones(3))
        y = ad.sigmoid(x)
        assert y.data.shape == (3,)

    def test_every_input_gets_its_gradient(self):
        a = Tensor(np.array([2.0, -3.0]))
        b = Tensor(np.array([5.0, 0.5]))
        with Tape() as tape:
            loss = ad.reduce_sum(ad.mul(a, b))
        backward(tape, loss)
        np.testing.assert_array_equal(a.grad, b.data)
        np.testing.assert_array_equal(b.grad, a.data)

    def test_tape_is_the_boundary(self):
        x = Tensor(np.array([0.5, -1.0]))
        y = ad.sigmoid(x)
        with Tape() as tape:
            loss = ad.reduce_sum(y)
        backward(tape, loss)
        np.testing.assert_array_equal(y.grad, [1.0, 1.0])
        assert x.grad is None

    def test_replay_is_bit_identical(self):
        def once():
            x = Tensor(np.linspace(-1.0, 1.0, 12).reshape(3, 4))
            w = Tensor(np.linspace(0.5, -0.5, 8).reshape(4, 2))
            with Tape() as tape:
                h = ad.tanh(ad.matmul(x, w))
                loss = ad.reduce_sum(ad.mul(h, h))
            backward(tape, loss)
            return loss.data.copy(), x.grad.copy(), w.grad.copy()

        l1, gx1, gw1 = once()
        l2, gx2, gw2 = once()
        np.testing.assert_array_equal(l1, l2)
        np.testing.assert_array_equal(gx1, gx2)
        np.testing.assert_array_equal(gw1, gw2)

    def test_chain_scale(self):
        x = Tensor(np.array([3.0]))
        two = Tensor(np.array([2.0]))
        with Tape() as tape:
            loss = ad.reduce_sum(ad.mul(two, x))
        backward(tape, loss)
        np.testing.assert_array_equal(x.grad, [2.0])


class TestOptimizers:
    def test_state_owns_one_zero_gradient_buffer_per_param(self):
        a = Tensor(np.ones((2, 3)))
        b = Tensor(np.ones(4))
        state = ad.AdamState([a, b], lr=1e-3)
        assert a.grad is state.grads[0] and b.grad is state.grads[1]
        for p, g in zip((a, b), state.grads):
            assert_bitwise(g, np.zeros_like(p.data))

    def test_adam_zero_grad_leaves_param_unchanged(self):
        w = Tensor(np.array([1.0, 2.0]))
        state = ad.AdamState([w], lr=1e-3)
        ad.adam_step(state)
        np.testing.assert_array_equal(w.data, [1.0, 2.0])
        assert state.step_count == 1

    def test_adam_first_step_magnitude(self):
        # With bias correction the first update is lr * sign(grad) for a
        # plain gradient (m_hat / (sqrt(v_hat) + eps) ~ sign).
        w = Tensor(np.array([0.0]))
        state = ad.AdamState([w], lr=0.1)
        state.grads[0][...] = 7.0
        ad.adam_step(state)
        assert float(w.data[0]) == pytest.approx(-0.1, rel=1e-6)

    def test_adam_converges_on_quadratic(self):
        w = Tensor(np.array([0.0]))
        state = ad.AdamState([w], lr=0.1)
        for _ in range(100):
            state.grads[0][...] = 2.0 * (w.data - 3.0)
            ad.adam_step(state)
        assert abs(float(w.data[0]) - 3.0) < 0.5

    def test_sgd_step(self):
        w = Tensor(np.array([1.0]))
        w.grad = np.array([0.25])
        ad.sgd_step([w], lr=0.5)
        np.testing.assert_array_equal(w.data, [0.875])

    def test_clip_noop_below_threshold(self):
        w = Tensor(np.array([3.0, 4.0]))
        state = ad.AdamState([w], lr=1e-3)
        state.grads[0][...] = [0.3, 0.4]
        norm = ad.clip_gradients(state, 5.0)
        assert norm == pytest.approx(0.5)
        np.testing.assert_array_equal(w.grad, [0.3, 0.4])

    def test_clip_rescales_to_threshold(self):
        w = Tensor(np.array([0.0, 0.0]))
        state = ad.AdamState([w], lr=1e-3)
        state.grads[0][...] = [30.0, 40.0]
        norm = ad.clip_gradients(state, 5.0)
        assert norm == pytest.approx(50.0)
        assert np.linalg.norm(w.grad) == pytest.approx(5.0)
        np.testing.assert_allclose(w.grad, [3.0, 4.0])

    def test_clip_global_across_params(self):
        a = Tensor(np.zeros(1))
        b = Tensor(np.zeros(1))
        state = ad.AdamState([a, b], lr=1e-3)
        state.grads[0][...] = 3.0
        state.grads[1][...] = 4.0
        ad.clip_gradients(state, 2.5)
        # Both scaled by the same global factor 0.5.
        np.testing.assert_allclose(a.grad, [1.5])
        np.testing.assert_allclose(b.grad, [2.0])


class TestInPlaceOptimizer:
    """``clip_gradients`` and ``adam_step`` against allocating references:
    tensors of different sizes share the scratch pair, one only ever has a
    zero gradient, and one gradient carries signed zeros."""

    SHAPES = [(3, 4), (9, 7), (5,), (2, 2)]
    ZERO_GRAD = 3

    def step_grads(self, rng, step):
        grads = [rng.normal(scale=0.3 if step % 2 else 3.0, size=s) for s in self.SHAPES]
        grads[2][[0, 3]] = -0.0
        grads[self.ZERO_GRAD] = None
        return grads

    def test_matches_allocating_reference_bitwise(self):
        rng = np.random.default_rng(5)
        start = [rng.normal(size=s) for s in self.SHAPES]
        params = [Tensor(a.copy()) for a in start]
        state = ad.AdamState(params, lr=0.01)
        ref_p = [a.copy() for a in start]
        ref_m = [np.zeros_like(a) for a in start]
        ref_v = [np.zeros_like(a) for a in start]
        buffers = list(state.grads)
        norms = []
        for step in range(1, 7):
            grads = self.step_grads(rng, step)
            ad.zero_grads(state)
            for p, g in zip(params, grads):
                if g is not None:
                    p.accumulate_grad(g)
            # the allocating path adds each gradient to a zero array
            ref_g = [np.zeros(s) if g is None else np.zeros_like(g) + g
                     for s, g in zip(self.SHAPES, grads)]
            norm = ad.clip_gradients(state, 4.0)
            ref_g, ref_norm = clip_reference(ref_g, 4.0)
            assert norm == ref_norm
            norms.append(norm)
            ad.adam_step(state)
            for i, g in enumerate(ref_g):
                ref_p[i], ref_m[i], ref_v[i] = adam_reference(
                    ref_p[i], g, ref_m[i], ref_v[i], step,
                    state.lr, state.BETA1, state.BETA2, state.EPS)
            for i, p in enumerate(params):
                assert_bitwise(p.data, ref_p[i])
                assert_bitwise(state.m[i], ref_m[i])
                assert_bitwise(state.v[i], ref_v[i])
                assert_bitwise(p.grad, ref_g[i])
            # zero_grads keeps the buffers: the same arrays every step
            assert all(p.grad is b for p, b in zip(params, buffers))
        assert min(norms) < 4.0 < max(norms)
        assert state.scratch.shape == (2, 63)

    def test_reserved_step_allocates_no_parameter_sized_array(self):
        rng = np.random.default_rng(6)
        params = [Tensor(rng.normal(size=s))
                  for s in ((40,), (64, 48), (48,))]
        state = ad.AdamState(params, lr=1e-3)
        for g in state.grads:
            g[...] = rng.normal(size=g.shape)
        largest = max(p.data.nbytes for p in params)
        # the first step after construction, then a repeat step
        for _ in range(2):
            tracemalloc.start()
            try:
                ad.clip_gradients(state, 1.0)
                ad.adam_step(state)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < largest
