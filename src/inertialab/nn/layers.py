"""Differentiable building blocks: 1-D convolution, ReLU, LSTM, dense, MSE.

Everything is float64 and batch-first.  Each ``*_forward`` returns the
output plus an opaque cache; the matching ``*_backward`` consumes the cache
and the upstream gradient and returns gradients for the inputs and
parameters.  The ReLU is the exception: it rectifies its input in place and
returns no cache, and ``relu_backward`` reads the mask from that output and
overwrites ``grad``.  Non-finite values are rejected at layer boundaries.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "check_finite",
    "conv1d_forward",
    "conv1d_backward",
    "relu_forward",
    "relu_backward",
    "dense_forward",
    "dense_backward",
    "lstm_forward",
    "lstm_backward",
    "mse",
    "mse_gradient",
    "sgd_step",
]

# Steps whose input products share one GEMM when no backward cache is kept.
STREAM_CHUNK = 64


def check_finite(name, array):
    if not np.all(np.isfinite(array)):
        raise FloatingPointError(f"non-finite values entering {name}")
    return array


def conv1d_forward(x, kernels, bias, padding, stride=1):
    """Cross-correlate ``x`` [B, L, C_in] with ``kernels`` [C_out, C_in, K].

    ``padding="valid"`` spans L-K+1 positions, ``padding="same"`` zero-pads
    to span L (odd K only); only positions 0, s, 2s, … of the span are
    computed at ``stride`` s, so L_out = ceil(span / s).

    The taps are summed one sample at a time: each sample's output row
    starts at ``bias`` and adds, in tap order, each tap's product of the
    step slice ``x_row[tap : tap + span : s]`` through one [L_out, C_out]
    scratch, with each tap's [C_in, C_out] kernel made contiguous once per
    call.  These are the per-sample products that a batched product over
    the sliced [B, L_out, C_in] input makes, so the sums have the same bits.

    With ``C_in == 1`` a tap's product is one exact multiply per value, so
    the row is built channel-major instead, [C_out, L_out], with the inner
    loop along the sequence: tap 0's product, plus the bias, plus each
    later tap's product, then one transposing copy into the output.  Since
    ``p0 + bias == bias + p0``, every sum has the bits of the general path.

    Element 0 of the cache is the input as the taps read it, zero-padded
    for ``"same"``; the model reads its ReLU output back from there.
    """
    x = check_finite("conv1d", np.asarray(x, dtype=np.float64))
    kernels = np.asarray(kernels, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    c_out, c_in, k = kernels.shape
    if x.ndim != 3 or x.shape[2] != c_in:
        raise ValueError(f"expected input [B, L, {c_in}], got {x.shape}")
    if not isinstance(stride, (int, np.integer)) or stride < 1:
        raise ValueError(f"stride must be an integer >= 1, got {stride}")
    if padding == "valid":
        if x.shape[1] < k:
            raise ValueError(f"input length {x.shape[1]} below kernel size {k}")
        xp = x
    elif padding == "same":
        if k % 2 == 0:
            raise ValueError("same padding requires an odd kernel size")
        pad = (k - 1) // 2
        xp = np.pad(x, ((0, 0), (pad, pad), (0, 0)))
    else:
        raise ValueError(f"unknown padding {padding!r}")

    span = xp.shape[1] - k + 1
    out = np.empty((x.shape[0], -(-span // stride), c_out))
    out_len = out.shape[1]
    if c_in == 1:
        bias_cols = np.tile(bias[:, None], (1, out_len))
        acc, tmp = np.empty((2, c_out, out_len))
        for x_row, out_row in zip(xp[:, :, 0], out):
            np.multiply(kernels[:, 0, 0, None], x_row[None, :span:stride], out=acc)
            acc += bias_cols
            for tap in range(1, k):
                np.multiply(kernels[:, 0, tap, None],
                            x_row[None, tap : tap + span : stride], out=tmp)
                acc += tmp
            out_row[...] = acc.T
    else:
        tap_kernels = [np.ascontiguousarray(kernels[:, :, tap].T) for tap in range(k)]
        bias_rows = np.tile(bias, (out_len, 1))
        tmp = np.empty((out_len, c_out))
        for x_row, out_row in zip(xp, out):
            np.copyto(out_row, bias_rows)
            for tap, tap_kernel in enumerate(tap_kernels):
                np.matmul(x_row[tap : tap + span : stride], tap_kernel, out=tmp)
                out_row += tmp
    return out, (xp, kernels, padding, x.shape[1], span, stride)


def conv1d_backward(cache, grad, *, input_grad=True):
    """Gradients of a conv1d: (d_input, d_kernels, d_bias).

    ``d_kernels`` sums each tap's products over the whole batch in one
    product.  ``d_input`` sums its taps one sample at a time into the step
    slices the forward read, through each tap's [C_out, C_in] kernel made
    contiguous once per call; with ``input_grad=False`` it is not computed
    and comes back as ``None``.
    """
    xp, kernels, padding, in_len, span, stride = cache
    grad = np.asarray(grad, dtype=np.float64)
    c_out, c_in, k = kernels.shape
    d_bias = grad.sum(axis=(0, 1))
    d_kernels = np.empty_like(kernels)
    flat_grad = grad.reshape(-1, c_out)
    for tap in range(k):
        window = xp[:, tap : tap + span : stride, :].reshape(-1, c_in)
        d_kernels[:, :, tap] = flat_grad.T @ window
    if not input_grad:
        return None, d_kernels, d_bias
    tap_kernels = [np.ascontiguousarray(kernels[:, :, tap]) for tap in range(k)]
    d_xp = np.zeros_like(xp)
    tmp = np.empty((grad.shape[1], c_in))
    for grad_row, d_row in zip(grad, d_xp):
        for tap, tap_kernel in enumerate(tap_kernels):
            np.matmul(grad_row, tap_kernel, out=tmp)
            d_row[tap : tap + span : stride] += tmp
    pad = (k - 1) // 2 if padding == "same" else 0
    return d_xp[:, pad : pad + in_len, :], d_kernels, d_bias


def relu_forward(x):
    """``max(x, 0)`` written over ``x``, which is returned; there is no cache.

    A negative input maps to +0.0.  The backward reads the mask from this
    output, or an array with its bits; the subgradient at exactly 0 is 0.
    """
    x = check_finite("relu", np.asarray(x, dtype=np.float64))
    return np.maximum(x, 0.0, out=x)


def relu_backward(out, grad):
    """``grad * (out > 0)`` written over ``grad``, which is returned."""
    return np.multiply(grad, out > 0, out=grad)


def dense_forward(x, weights, bias):
    """Affine map ``x @ W.T + b`` with W of shape [out, in]."""
    x = check_finite("dense", np.asarray(x, dtype=np.float64))
    weights = np.asarray(weights, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != weights.shape[1]:
        raise ValueError(f"expected input [B, {weights.shape[1]}], got {x.shape}")
    return x @ weights.T + bias, (x, weights)


def dense_backward(cache, grad):
    x, weights = cache
    grad = np.asarray(grad, dtype=np.float64)
    return grad @ weights, grad.T @ x, grad.sum(axis=0)


def lstm_forward(x, w_in, w_rec, bias, keep_cache=True):
    """Run an LSTM over ``x`` [B, T, D] and return the final hidden state.

    Gate blocks are packed (input, forget, candidate, output) along the last
    axis of ``w_in`` [D, 4l], ``w_rec`` [l, 4l] and ``bias`` [4l].  Initial
    hidden and cell states are zero.

    A batched product writes ``x_t @ w_in`` for a block of steps into a
    gate buffer; each step adds ``h @ w_rec`` and then ``bias`` to its
    [B, 4l] row in place and computes the gate values on that contiguous
    row: the sigmoid of every column goes back over the row, and the
    candidate columns are then overwritten with their tanh, taken from the
    pre-activations into a [B, l] scratch first.  The two modes differ only
    in how many gate rows and state rows there are:

    * ``keep_cache=True`` (training): one product fills a [T, B, 4l] buffer,
      whose rows keep the gate values, and the cell and hidden states of
      every step are kept (row 0 is the zero initial state).  Returns
      ``(h, cache)`` for :func:`lstm_backward`.
    * ``keep_cache=False`` (inference): one product per
      ``STREAM_CHUNK`` steps fills a [STREAM_CHUNK, B, 4l] buffer, the
      states alternate between two rows and the candidate columns are not
      written back.  Returns ``(h, None)``.

    Every value comes from the same floating-point operations, in the same
    order, as a plain step-by-step loop, so both modes give the same bits.
    """
    x = check_finite("lstm", np.asarray(x, dtype=np.float64))
    if x.ndim != 3:
        raise ValueError(f"expected input [B, T, D], got {x.shape}")
    b, t_steps, _ = x.shape
    units = w_rec.shape[0]
    chunk = t_steps if keep_cache else STREAM_CHUNK
    rows = t_steps + 1 if keep_cache else 2
    bias_rows = np.tile(bias, (b, 1))
    x_steps = x.transpose(1, 0, 2)
    gates = np.empty((min(chunk, t_steps), b, 4 * units))
    cells = np.zeros((rows, b, units))
    hiddens = np.zeros((rows, b, units))
    rec, num, den, sign = np.empty((4, b, 4 * units))
    gg, ig = np.empty((2, b, units))
    i_cols, f_cols, g_cols, o_cols = (slice(k * units, (k + 1) * units) for k in range(4))
    for t in range(t_steps):
        if t % chunk == 0:
            block = x_steps[t : t + chunk]
            np.matmul(block, w_in, out=gates[: len(block)])
        z = gates[t % chunk]
        prev, cur = t % rows, (t + 1) % rows
        np.matmul(hiddens[prev], w_rec, out=rec)
        z += rec
        z += bias_rows
        # sigmoid without overflow: 1 / (1 + e^-z) for z >= 0, e^z / (1 + e^z)
        # below.  e^-|z| <= 1, so its maximum with sign(z) is the numerator:
        # 1 for z > 0, e^-|z| = 1 at z = 0 and e^z for z < 0.
        np.negative(z, out=sign)
        np.minimum(sign, z, out=num)
        np.exp(num, out=num)
        np.add(num, 1.0, out=den)
        np.sign(z, out=sign)
        np.maximum(num, sign, out=num)
        np.tanh(z[:, g_cols], out=gg)
        np.divide(num, den, out=z)
        if keep_cache:
            z[:, g_cols] = gg
        c = cells[cur]
        np.multiply(z[:, f_cols], cells[prev], out=c)
        np.multiply(z[:, i_cols], gg, out=ig)
        c += ig
        h = hiddens[cur]
        np.tanh(c, out=h)
        h *= z[:, o_cols]
    cache = (x, w_in, w_rec, gates, cells, hiddens) if keep_cache else None
    return hiddens[t_steps % rows], cache


def lstm_backward(cache, grad_h):
    """Backpropagate through time from the final-hidden-state gradient.

    Each step writes its gate gradient ``d_z`` over its gate values, which
    are dead by then, so the cache is consumed: it cannot be backpropagated
    twice.  The arithmetic, including the order in which the weight
    gradients accumulate, is that of a plain step-by-step loop.
    """
    x, w_in, w_rec, gates, cells, hiddens = cache
    t_steps, b, four_units = gates.shape
    units = four_units // 4
    d_x = np.empty_like(x)
    d_w_in = np.zeros_like(w_in)
    d_w_rec = np.zeros_like(w_rec)
    d_bias = np.zeros(four_units)
    d_h = np.asarray(grad_h, dtype=np.float64).copy()
    d_c = np.zeros((b, units))
    tanh_c, tmp, tmp2 = np.empty((3, b, units))
    slots, d_gate, slope = np.empty((3, 4, b, units))
    gi, gf, gg, go = slots
    for t in range(t_steps - 1, -1, -1):
        d_z = gates[t]
        d_z_slots = d_z.reshape(b, 4, units).transpose(1, 0, 2)
        np.copyto(slots, d_z_slots)
        np.tanh(cells[t + 1], out=tanh_c)
        np.multiply(d_h, go, out=tmp)
        np.multiply(tanh_c, tanh_c, out=tmp2)
        np.subtract(1.0, tmp2, out=tmp2)
        tmp *= tmp2
        d_c += tmp
        # gradients of the gate values: c = f*c_prev + i*g, h = o*tanh(c)
        np.multiply(d_c, gg, out=d_gate[0])
        np.multiply(d_c, cells[t], out=d_gate[1])
        np.multiply(d_c, gi, out=d_gate[2])
        np.multiply(d_h, tanh_c, out=d_gate[3])
        # times the slopes a * (1 - a) of the sigmoids and 1 - g^2 of tanh
        d_gate[:2] *= slots[:2]
        d_gate[3] *= go
        gg *= gg
        np.subtract(1.0, slots, out=slope)
        np.multiply(d_gate, slope, out=d_z_slots)
        d_w_in += x[:, t, :].T @ d_z
        d_w_rec += hiddens[t].T @ d_z
        d_bias += d_z.sum(axis=0)
        np.matmul(d_z, w_in.T, out=d_x[:, t, :])
        np.matmul(d_z, w_rec.T, out=d_h)
        d_c *= gf
    return d_x, d_w_in, d_w_rec, d_bias


def mse(targets, predictions):
    """Mean squared error between equal-length vectors."""
    targets = np.asarray(targets, dtype=np.float64)
    predictions = np.asarray(predictions, dtype=np.float64)
    if targets.shape != predictions.shape or targets.size == 0:
        raise ValueError("targets and predictions must share a non-empty shape")
    diff = predictions - targets
    return float(np.mean(diff * diff))


def mse_gradient(targets, predictions):
    """Gradient of :func:`mse` with respect to the predictions."""
    targets = np.asarray(targets, dtype=np.float64)
    predictions = np.asarray(predictions, dtype=np.float64)
    if targets.shape != predictions.shape or targets.size == 0:
        raise ValueError("targets and predictions must share a non-empty shape")
    return (2.0 / targets.size) * (predictions - targets)


def sgd_step(weights, grad, learning_rate):
    """Plain gradient-descent update ``w -= lr * grad``, in place.

    ``weights`` is overwritten and returned; ``grad`` is left unchanged.
    """
    if learning_rate <= 0:
        raise ValueError(f"learning rate must be > 0, got {learning_rate}")
    weights -= learning_rate * np.asarray(grad)
    return weights
