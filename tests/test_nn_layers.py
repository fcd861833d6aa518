"""Layer forward semantics: hand-checked examples and analytic cases."""

import tracemalloc

import numpy as np
import pytest

from inertialab.nn import layers


class TestConv1d:
    def test_zero_kernels_zero_output(self):
        x = np.random.default_rng(0).normal(size=(2, 10, 3))
        out, _ = layers.conv1d_forward(x, np.zeros((4, 3, 3)), np.zeros(4), "valid")
        assert np.all(out == 0.0)

    def test_delta_kernel_identity(self):
        x = np.random.default_rng(1).normal(size=(2, 12, 1))
        kernels = np.zeros((1, 1, 3))
        kernels[0, 0, 1] = 1.0  # center tap
        out, _ = layers.conv1d_forward(x, kernels, np.zeros(1), "same")
        np.testing.assert_allclose(out, x, rtol=0, atol=1e-15)

    def test_valid_then_same_element_count(self):
        x = np.zeros((1, 4000, 1))
        out1, _ = layers.conv1d_forward(x, np.zeros((10, 1, 3)), np.zeros(10), "valid")
        assert out1.shape == (1, 3998, 10)
        out2, _ = layers.conv1d_forward(out1, np.zeros((20, 10, 3)), np.zeros(20), "same")
        assert out2.shape == (1, 3998, 20)
        assert out2[0].size == 79_960

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            layers.conv1d_forward(np.zeros((1, 10, 2)), np.zeros((4, 3, 3)), np.zeros(4), "valid")

    def test_short_input_valid(self):
        with pytest.raises(ValueError):
            layers.conv1d_forward(np.zeros((1, 2, 1)), np.zeros((1, 1, 3)), np.zeros(1), "valid")

    def test_bad_padding(self):
        with pytest.raises(ValueError):
            layers.conv1d_forward(np.zeros((1, 5, 1)), np.zeros((1, 1, 3)), np.zeros(1), "full")

    @pytest.mark.parametrize("stride", [0, 1.5])
    def test_bad_stride(self, stride):
        with pytest.raises(ValueError, match="stride"):
            layers.conv1d_forward(np.zeros((1, 5, 1)), np.zeros((1, 1, 3)), np.zeros(1),
                                  "valid", stride=stride)

    def test_rejects_non_finite(self):
        x = np.zeros((1, 5, 1))
        x[0, 0, 0] = np.nan
        with pytest.raises(FloatingPointError):
            layers.conv1d_forward(x, np.zeros((1, 1, 3)), np.zeros(1), "valid")


def reference_conv(x, kernels, bias, padding, grad):
    """The batched per-tap convolution and its backward pass.

    Each tap's product runs over the whole [B, L_out, C_in] window at once.
    Returns the output and (d_x, d_kernels, d_bias) for the upstream
    gradient ``grad``.
    """
    c_out, c_in, k = kernels.shape
    pad = (k - 1) // 2 if padding == "same" else 0
    xp = np.pad(x, ((0, 0), (pad, pad), (0, 0)))
    out_len = xp.shape[1] - k + 1
    out = np.broadcast_to(bias, (x.shape[0], out_len, c_out)).copy()
    for tap in range(k):
        out += xp[:, tap : tap + out_len, :] @ kernels[:, :, tap].T
    d_kernels = np.empty_like(kernels)
    d_xp = np.zeros_like(xp)
    flat_grad = grad.reshape(-1, c_out)
    for tap in range(k):
        window = xp[:, tap : tap + out_len, :].reshape(-1, c_in)
        d_kernels[:, :, tap] = flat_grad.T @ window
        d_xp[:, tap : tap + out_len, :] += grad @ kernels[:, :, tap]
    return out, (d_xp[:, pad : pad + x.shape[1], :], d_kernels, grad.sum(axis=(0, 1)))


def assert_same_bytes(got, want, name):
    assert got.shape == want.shape, name
    assert got.tobytes() == want.tobytes(), name


class TestConv1dMatchesReference:
    """The per-sample tap sums give the bits of the batched reference."""

    @staticmethod
    def case(batch, c_in, padding):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(batch, 300, c_in))
        kernels = rng.normal(size=(6, c_in, 5))
        bias = rng.normal(size=6)
        out_len = 300 if padding == "same" else 296
        grad = rng.normal(size=(batch, out_len, 6))
        return x, kernels, bias, grad

    @pytest.mark.parametrize("padding", ["valid", "same"])
    @pytest.mark.parametrize("batch", [1, 5])
    @pytest.mark.parametrize("c_in", [1, 3])
    def test_forward_and_backward(self, padding, batch, c_in):
        x, kernels, bias, grad = self.case(batch, c_in, padding)
        out, cache = layers.conv1d_forward(x, kernels, bias, padding)
        ref_out, ref_grads = reference_conv(x, kernels, bias, padding, grad)
        assert_same_bytes(out, ref_out, "out")
        got = layers.conv1d_backward(cache, grad)
        for name, a, want in zip(("d_x", "d_kernels", "d_bias"), got, ref_grads):
            assert_same_bytes(a, want, name)

    @pytest.mark.parametrize("padding", ["valid", "same"])
    def test_without_input_gradient(self, padding):
        x, kernels, bias, grad = self.case(5, 3, padding)
        _, cache = layers.conv1d_forward(x, kernels, bias, padding)
        d_x, d_kernels, d_bias = layers.conv1d_backward(cache, grad, input_grad=False)
        assert d_x is None
        _, (_, ref_kernels, ref_bias) = reference_conv(x, kernels, bias, padding, grad)
        assert_same_bytes(d_kernels, ref_kernels, "d_kernels")
        assert_same_bytes(d_bias, ref_bias, "d_bias")

    @pytest.mark.parametrize("padding", ["valid", "same"])
    def test_single_channel_view_input(self, padding):
        # conv1 reads a [B, L, 1] view of the batch; here a non-contiguous one
        _, kernels, bias, _ = self.case(1, 1, padding)
        batch = np.random.default_rng(8).normal(size=(9, 320))[:, 10:310]
        view = batch[1:8:3][:, :, None]
        assert view.shape == (3, 300, 1) and not view.flags.c_contiguous
        out, _ = layers.conv1d_forward(view, kernels, bias, padding)
        ref_out, _ = reference_conv(view, kernels, bias, padding,
                                    np.zeros((3, out.shape[1], 6)))
        assert_same_bytes(out, ref_out, "out")

    @pytest.mark.parametrize("padding", ["valid", "same"])
    @pytest.mark.parametrize("stride", [2, 3])
    def test_strided_keeps_every_stride_th_row(self, padding, stride):
        # the output is the full conv's rows 0, s, 2s, ... and the gradients
        # are the full backward of the zero-filled upstream gradient; c_in = 1
        # runs the single-channel path, c_in = 3 the general one
        for c_in in (1, 3):
            x, kernels, bias, full_grad = self.case(5, c_in, padding)
            grad = full_grad[:, ::stride]
            filled = np.zeros_like(full_grad)
            filled[:, ::stride] = grad
            out, cache = layers.conv1d_forward(x, kernels, bias, padding, stride=stride)
            ref_out, ref_grads = reference_conv(x, kernels, bias, padding, filled)
            assert_same_bytes(out, ref_out[:, ::stride], f"out, c_in={c_in}")
            got = layers.conv1d_backward(cache, grad)
            for name, a, want in zip(("d_x", "d_kernels", "d_bias"), got, ref_grads):
                assert a.shape == want.shape, (name, c_in)
                assert np.abs(a - want).max() <= 1e-13 * np.abs(want).max(), (name, c_in)

    @pytest.mark.parametrize("padding", ["valid", "same"])
    def test_cache_holds_the_callers_input(self, padding):
        # no padded copy: the backward reads the forward's own input array
        x, kernels, bias, _ = self.case(2, 3, padding)
        assert x.flags.c_contiguous
        assert layers.conv1d_forward(x, kernels, bias, padding)[1][0] is x

    @staticmethod
    def padded_d_input(cache, grad):
        """``d_input`` summed over a whole zero-padded buffer, then cut out."""
        x, kernels, padding, stride = cache
        k = kernels.shape[2]
        pad = (k - 1) // 2 if padding == "same" else 0
        batch, in_len, c_in = x.shape
        d_xp = np.zeros((batch, in_len + 2 * pad, c_in))
        span = d_xp.shape[1] - k + 1
        for tap in range(k):
            d_xp[:, tap : tap + span : stride] += grad @ kernels[:, :, tap]
        return d_xp[:, pad : pad + in_len]

    @pytest.mark.parametrize("padding", ["valid", "same"])
    @pytest.mark.parametrize("stride", [1, 2, 3, 8])
    def test_input_gradient_is_contiguous_and_drops_the_padding(self, padding, stride):
        # 37 * stride + 1 values put the last same-padded output row at the
        # last input row, so the taps right of centre read it from the padding
        rng = np.random.default_rng(12)
        in_len = 37 * stride + 1
        x = rng.normal(size=(3, in_len, 4))
        kernels = rng.normal(size=(6, 4, 5))
        out, cache = layers.conv1d_forward(x, kernels, rng.normal(size=6), padding,
                                           stride=stride)
        if padding == "same":
            assert (out.shape[1] - 1) * stride == in_len - 1
        grad = rng.normal(size=out.shape)
        d_x, _, _ = layers.conv1d_backward(cache, grad)
        assert d_x.flags.c_contiguous
        assert_same_bytes(d_x, self.padded_d_input(cache, grad), "d_x")


class TestRelu:
    def test_all_negative(self):
        out = layers.relu_forward(np.array([[-3.0, -0.5]]))
        assert np.all(out == 0.0)

    def test_non_negative_identity(self):
        x = np.array([[0.0, 1.0, 7.5]])
        out = layers.relu_forward(x.copy())
        np.testing.assert_array_equal(out, x)

    def test_mixed(self):
        out = layers.relu_forward(np.array([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out, [0.0, 0.0, 2.0])

    def test_subgradient_zero_at_zero(self):
        grad = layers.relu_backward(np.array([0.0]), np.array([5.0]))
        np.testing.assert_array_equal(grad, [0.0])

    @staticmethod
    def mixed_input():
        # no -0.0: IEEE 754 leaves the sign of max(-0.0, 0.0) open
        x = np.random.default_rng(4).normal(size=(3, 50, 4))
        x[0, :4, 0] = [0.0, 5e-324, -5e-324, -1e308]
        return x

    def test_rectifies_in_place(self):
        x = self.mixed_input()
        assert layers.relu_forward(x) is x

    def test_non_finite_input_left_untouched(self):
        x = self.mixed_input()
        x[2, 10, 3] = np.nan
        before = x.copy()
        with pytest.raises(FloatingPointError, match="entering relu"):
            layers.relu_forward(x)
        assert x.tobytes() == before.tobytes()

    def test_mask_is_positive_output(self):
        # the backward derives its mask from the output, and overwrites grad
        out = layers.relu_forward(self.mixed_input())
        grad = np.random.default_rng(5).normal(size=out.shape)
        grad[0, :4, 0] = -1.0  # a negative gradient on each zero output gives -0.0
        want = grad.copy() * (out > 0)
        assert layers.relu_backward(out, grad) is grad
        assert grad.tobytes() == want.tobytes()
        assert np.signbit(grad[0, 0, 0]) and grad[0, 1, 0] == -1.0

    def test_non_positive_inputs_give_positive_zero(self):
        x = self.mixed_input()
        out = layers.relu_forward(x.copy())
        zeros = out[x <= 0]
        assert zeros.size > 0
        assert np.all(zeros == 0.0) and not np.any(np.signbit(zeros))
        assert out[x > 0].tobytes() == x[x > 0].tobytes()


class TestDense:
    def test_identity(self):
        x = np.array([[1.5, -2.0]])
        out, _ = layers.dense_forward(x, np.eye(2), np.zeros(2))
        np.testing.assert_array_equal(out, x)

    def test_hand_example(self):
        out, _ = layers.dense_forward(
            np.array([[4.0, 5.0]]), np.array([[1.0, 2.0]]), np.array([3.0])
        )
        assert out[0, 0] == 17.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            layers.dense_forward(np.zeros((1, 3)), np.zeros((2, 4)), np.zeros(2))

    def test_input_gradient_over_the_cached_input(self):
        # the weight gradient reads x before grad @ W is written over it
        rng = np.random.default_rng(3)
        x, weights, grad = rng.normal(size=(4, 7)), rng.normal(size=(3, 7)), rng.normal(size=(4, 3))
        _, cache = layers.dense_forward(x.copy(), weights, np.zeros(3))
        want = layers.dense_backward(cache, grad)
        _, cache = layers.dense_forward(x.copy(), weights, np.zeros(3))
        got = layers.dense_backward(cache, grad, d_x=cache[0])
        assert np.shares_memory(got[0], cache[0])
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()


# (batch, steps, stride): the streaming pass computes its input products
# in chunks of layers.STREAM_CHUNK = 64 steps, and the training pass keeps
# one cell state per chunk, from which the backward recomputes the others
LSTM_SHAPES = {
    "contiguous": (5, 64, 1),  # exactly one chunk
    "strided": (5, 64, 3),
    "short": (5, 20, 1),  # shorter than one chunk
    "chunks": (5, 150, 1),  # two full chunks and a partial one
    "single-row": (1, 150, 1),
    "one-step": (5, 1, 1),
    "past-a-chunk": (5, 65, 1),  # one step into a second chunk
    "two-chunks": (5, 128, 1),  # exactly two chunks
}

# gate values of units 0 and 1 under each sigmoid edge case: (i, f, o) for
# "zero", (i, f, g, o) for "saturated"
EDGE_GATE_VALUES = {
    "zero": [[0.5, 0.5], [0.5, 0.5], [0.5, 0.5]],
    "saturated": [[1.0, 0.0], [1.0, 0.0], [1.0, -1.0], [1.0, 0.0]],
}


class TestLstm:
    def test_zero_weights_zero_state(self):
        x = np.random.default_rng(2).normal(size=(3, 7, 4))
        h, _ = layers.lstm_forward(x, np.zeros((4, 20)), np.zeros((5, 20)), np.zeros(20))
        assert h.shape == (3, 5)
        assert np.all(h == 0.0)

    def test_single_cell_hand_oracle(self):
        """One step, scalar input, weights [0.1, 0.2, 0.3, 0.4] on (i,f,g,o).

        Expected values frozen from an independent high-precision evaluation
        of the gate equations.
        """
        x = np.ones((1, 1, 1))
        w_in = np.array([[0.1, 0.2, 0.3, 0.4]])
        h, cache = layers.lstm_forward(x, w_in, np.zeros((1, 4)), np.zeros(4))
        cells = cache[4]  # row 0 holds the zero initial state
        assert cells[1, 0, 0] == pytest.approx(0.15293305858720352, rel=1e-14)
        assert h[0, 0] == pytest.approx(0.09085193946699145, rel=1e-14)

    def test_training_cache_keeps_no_hidden_states(self):
        # the backward recomputes h from the cells and the output gates, and
        # the cells from the one kept per layers.STREAM_CHUNK = 64 steps
        b, t_steps, units = 3, 130, 5
        rng = np.random.default_rng(4)
        x = rng.normal(size=(b, t_steps, 2))
        h, cache = layers.lstm_forward(x, rng.normal(size=(2, 4 * units)),
                                       rng.normal(size=(units, 4 * units)),
                                       np.zeros(4 * units))
        assert len(cache) == 5
        assert cache[0] is x
        gates, kept = cache[3:]
        assert [a.shape for a in cache[1:] if a.ndim == 3] == [
            (t_steps, b, 4 * units), (4, b, units)]  # cells after 0, 64, 128 and 130 steps
        assert np.all(kept[0] == 0.0)
        assert_same_bytes(np.tanh(kept[-1]) * gates[-1][:, 3 * units :], h, "h")

    def test_training_pass_keeps_no_cell_stash(self):
        # the cells recomputed per chunk take the place of the [T + 1, B, l]
        # cells the training pass used to keep; as in the model, the input
        # gradient is written over the input
        b, t_steps, d, units = 4, 1000, 3, 32
        rng = np.random.default_rng(7)
        w_in = rng.uniform(-0.6, 0.6, size=(d, 4 * units))
        w_rec = rng.uniform(-0.6, 0.6, size=(units, 4 * units))
        bias = rng.normal(scale=0.3, size=4 * units)
        grad_h = rng.normal(size=(b, units))
        tracemalloc.start()
        try:
            x = rng.normal(size=(b, t_steps, d))
            _, cache = layers.lstm_forward(x, w_in, w_rec, bias)
            layers.lstm_backward(cache, grad_h, d_x=cache[0])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        gate_bytes = t_steps * b * 4 * units * 8
        cell_stash_bytes = (t_steps + 1) * b * units * 8
        assert peak < gate_bytes + x.nbytes + cell_stash_bytes / 4

    def test_final_state_matches_manual_recurrence(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, 6, 2))
        w_in = rng.normal(scale=0.2, size=(2, 8))
        w_rec = rng.normal(scale=0.2, size=(2, 8))
        bias = rng.normal(scale=0.1, size=8)
        h, _ = layers.lstm_forward(x, w_in, w_rec, bias)

        def sigmoid(z):
            return 1.0 / (1.0 + np.exp(-z))

        hh = np.zeros(2)
        cc = np.zeros(2)
        for t in range(6):
            z = x[0, t] @ w_in + hh @ w_rec + bias
            i, f, g, o = z[:2], z[2:4], z[4:6], z[6:]
            cc = sigmoid(f) * cc + sigmoid(i) * np.tanh(g)
            hh = sigmoid(o) * np.tanh(cc)
        np.testing.assert_allclose(h[0], hh, rtol=1e-12)

    @staticmethod
    def reference_lstm(x, w_in, w_rec, bias, grad_h, sigmoid):
        """Plain per-step LSTM and its backward pass.

        Each value is formed with the operations, in the order, that the
        fused kernel uses.  Returns the final hidden state and (d_x, d_w_in,
        d_w_rec, d_bias).
        """
        b, t_steps, _ = x.shape
        units = w_rec.shape[0]
        hs, cs, acts = [np.zeros((b, units))], [np.zeros((b, units))], []
        for t in range(t_steps):
            z = x[:, t, :] @ w_in + hs[-1] @ w_rec + bias
            i, f, g, o = np.split(z, 4, axis=1)
            i, f, g, o = sigmoid(i), sigmoid(f), np.tanh(g), sigmoid(o)
            cs.append(f * cs[-1] + i * g)
            hs.append(o * np.tanh(cs[-1]))
            acts.append((i, f, g, o))
        d_x = np.zeros_like(x)
        d_w_in, d_w_rec = np.zeros_like(w_in), np.zeros_like(w_rec)
        d_bias = np.zeros_like(bias)
        d_h, d_c = grad_h.copy(), np.zeros((b, units))
        for t in reversed(range(t_steps)):
            i, f, g, o = acts[t]
            tanh_c = np.tanh(cs[t + 1])
            d_c = d_c + d_h * o * (1.0 - tanh_c**2)
            d_z = np.concatenate([
                d_c * g * i * (1.0 - i),
                d_c * cs[t] * f * (1.0 - f),
                d_c * i * (1.0 - g**2),
                d_h * tanh_c * o * (1.0 - o),
            ], axis=1)
            d_x[:, t, :] = d_z @ w_in.T
            d_w_in += x[:, t, :].T @ d_z
            d_w_rec += hs[t].T @ d_z
            d_bias += d_z.sum(axis=0)
            d_h = d_z @ w_rec.T
            d_c = d_c * f
        return hs[-1], (d_x, d_w_in, d_w_rec, d_bias)

    @staticmethod
    def set_edge_gates(edge, w_in, w_rec, bias):
        """Give units 0 and 1 the pre-activations of one sigmoid edge case.

        "zero": the i, f and o gates of both units have zero weights and
        zero bias, so their pre-activations are exactly zero while the
        candidate keeps the cell, and so h, nonzero; unit 1's zeros are
        -0.0 (the sign survives only on a BLAS that starts each sum from
        its first product rather than from +0.0).  "saturated": biases of
        +800 and -800 put every pre-activation of the two units beyond 750
        in magnitude, where exp(-|z|) underflows to 0.  Returns the columns
        of the two units, one row per gate set.
        """
        units = w_rec.shape[0]
        gates = (0, 1, 3) if edge == "zero" else (0, 1, 2, 3)
        cols = np.array([[gate * units + unit for unit in (0, 1)] for gate in gates])
        for unit, value in ((0, 0.0), (1, -0.0 if edge == "zero" else 0.0)):
            w_in[:, cols[:, unit]] = value
            w_rec[:, cols[:, unit]] = value
        bias[cols] = (0.0, -0.0) if edge == "zero" else (800.0, -800.0)
        return cols

    @pytest.mark.parametrize("batch, steps, stride, keep_cache, edge", [
        *(pytest.param(*shape, keep_cache, None,
                       id=name if keep_cache else f"{name}-stream")
          for keep_cache in (True, False)
          for name, shape in LSTM_SHAPES.items()),
        *(pytest.param(5, 20, 1, keep_cache, edge,
                       id=f"{edge}-gates" if keep_cache else f"{edge}-gates-stream")
          for keep_cache in (True, False)
          for edge in ("zero", "saturated")),
    ])
    def test_fused_kernel_matches_reference(self, batch, steps, stride, keep_cache, edge):
        rng = np.random.default_rng(5)
        units = 6
        x = rng.normal(size=(batch, steps * stride, 3))[:, ::stride, :]
        w_in = rng.uniform(-0.6, 0.6, size=(3, 4 * units))
        w_rec = rng.uniform(-0.6, 0.6, size=(units, 4 * units))
        bias = rng.normal(scale=0.3, size=4 * units)
        grad_h = rng.normal(size=(batch, units))
        if edge:
            cols = self.set_edge_gates(edge, w_in, w_rec, bias)
        h, cache = layers.lstm_forward(x, w_in, w_rec, bias, keep_cache=keep_cache)
        if keep_cache:
            if edge:
                # the cached gate values show that the edge case was reached
                acts = cache[3][:, :, cols]
                want = np.broadcast_to(EDGE_GATE_VALUES[edge], acts.shape)
                np.testing.assert_array_equal(acts, want)
            got = (h, *layers.lstm_backward(cache, grad_h))
        else:
            assert cache is None
            got = (h,)
        names = ("h", "d_x", "d_w_in", "d_w_rec", "d_bias")

        def plain(z):
            return 1.0 / (1.0 + np.exp(-z))

        if edge is None:
            ref_h, ref_grads = self.reference_lstm(x, w_in, w_rec, bias, grad_h, plain)
            for name, a, want in zip(names, got, (ref_h, *ref_grads)):
                assert a.shape == want.shape, name
                # relative to the largest value; d_w_rec is all zeros at T = 1
                err = np.max(np.abs(a - want))
                assert err == 0.0 or err < 1e-12 * np.max(np.abs(want)), (name, err)

        # with the kernel's overflow-free sigmoid the loop gives the same bits,
        # which keeps recorded training curves reproducible
        def split(z):
            e = np.exp(-np.abs(z))
            return np.where(z >= 0, 1.0, e) / (1.0 + e)

        ref_h, ref_grads = self.reference_lstm(x, w_in, w_rec, bias, grad_h, split)
        for name, a, want in zip(names, got, (ref_h, *ref_grads)):
            np.testing.assert_array_equal(a, want, err_msg=name)

    @pytest.mark.parametrize("batch, steps, stride", LSTM_SHAPES.values(), ids=list(LSTM_SHAPES))
    def test_input_gradient_over_the_cached_input(self, batch, steps, stride):
        # step t reads row t of x before it writes row t of d_x, and the
        # steps after it read only earlier rows
        rng = np.random.default_rng(6)
        units = 6
        x = rng.normal(size=(batch, steps * stride, 3))
        w_in = rng.uniform(-0.6, 0.6, size=(3, 4 * units))
        w_rec = rng.uniform(-0.6, 0.6, size=(units, 4 * units))
        bias = rng.normal(scale=0.3, size=4 * units)
        grad_h = rng.normal(size=(batch, units))
        _, cache = layers.lstm_forward(x.copy()[:, ::stride, :], w_in, w_rec, bias)
        want = layers.lstm_backward(cache, grad_h)
        _, cache = layers.lstm_forward(x.copy()[:, ::stride, :], w_in, w_rec, bias)
        got = layers.lstm_backward(cache, grad_h, d_x=cache[0])
        assert np.shares_memory(got[0], cache[0])
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("keep_cache", [True, False])
    def test_non_finite_input_rejected(self, keep_cache):
        x = np.zeros((2, 70, 3))
        x[1, 66, 0] = np.nan
        with pytest.raises(FloatingPointError):
            layers.lstm_forward(x, np.zeros((3, 8)), np.zeros((2, 8)), np.zeros(8),
                                keep_cache=keep_cache)


class TestMse:
    def test_perfect(self):
        assert layers.mse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_hand_example(self):
        assert layers.mse([3.0, 5.0], [4.0, 4.0]) == 1.0

    def test_gradient_formula(self):
        y = np.array([1.0, 2.0, 3.0])
        pred = np.array([1.5, 1.0, 3.0])
        np.testing.assert_allclose(
            layers.mse_gradient(y, pred), (2.0 / 3.0) * (pred - y), rtol=1e-15
        )

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            layers.mse([1.0], [1.0, 2.0])


class TestSgdStep:
    def test_zero_gradient(self):
        w = np.array([1.0, -2.0])
        before = w.copy()
        np.testing.assert_array_equal(layers.sgd_step(w, np.zeros(2), 0.1), before)

    def test_updates_weights_in_place(self):
        w = np.array([1.0, -2.0])
        g = np.array([2.0, 4.0])
        expected = w - 0.25 * g
        assert layers.sgd_step(w, g, 0.25) is w
        np.testing.assert_array_equal(w, expected)
        np.testing.assert_array_equal(g, [2.0, 4.0])

    def test_hand_example(self):
        assert layers.sgd_step(np.array([1.0]), np.array([2.0]), 0.1)[0] == pytest.approx(0.8)

    def test_stateless_composition(self):
        # with a fixed gradient two updates compose additively: no momentum
        w = np.array([1.0])
        g = np.array([2.0])
        twice = layers.sgd_step(layers.sgd_step(w, g, 0.1), g, 0.1)
        assert twice[0] == pytest.approx(1.0 - 2 * 0.1 * 2.0, rel=1e-15)

    def test_domain(self):
        with pytest.raises(ValueError):
            layers.sgd_step(np.ones(1), np.ones(1), 0.0)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_bits_of_the_whole_array_update(self, order):
        # 200,000 values: more than one 64 Ki-element chunk, the last partial
        rng = np.random.default_rng(13)
        shape = (5, 40_000)
        w = np.asarray(rng.normal(size=shape), order=order)
        g = np.asarray(rng.normal(size=shape), order=order)
        g_before, want = g.copy(), w - 0.37 * g
        address = w.__array_interface__["data"][0]
        assert layers.sgd_step(w, g, 0.37) is w
        assert w.__array_interface__["data"][0] == address and w.flags[order + "_CONTIGUOUS"]
        assert_same_bytes(w, want, "weights")
        assert_same_bytes(g, g_before, "grad")

    def test_no_full_size_temporary(self):
        w = np.zeros(1 << 18)
        g = np.ones_like(w)
        tracemalloc.start()
        try:
            layers.sgd_step(w, g, 0.5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < w.nbytes / 2
        assert np.all(w == -0.5)
