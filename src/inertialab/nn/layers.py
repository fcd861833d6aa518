"""Differentiable building blocks: 1-D convolution, ReLU, LSTM, dense, MSE.

Everything is float64 and batch-first.  Each ``*_forward`` returns the
output plus an opaque cache; the matching ``*_backward`` consumes the cache
and the upstream gradient and returns gradients for the inputs and
parameters.  A conv caches its input itself and never builds its padding.
The ReLU is the exception: it rectifies its input in place and returns no
cache, and ``relu_backward`` reads the mask from that output (or takes the
mask itself) and overwrites ``grad``.  The LSTM and dense backwards write
their input gradient into a ``d_x`` the caller gives, which may be the
cached input itself.  Non-finite values are rejected at layer boundaries.
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

# Steps whose input products share one GEMM when no backward cache is kept,
# and steps per kept cell state when one is.
STREAM_CHUNK = 64
# Elements per slice of an SGD update: a 512 KB temporary.
SGD_CHUNK = 1 << 16


def check_finite(name, array):
    if not np.all(np.isfinite(array)):
        raise FloatingPointError(f"non-finite values entering {name}")
    return array


def _tap_rows(k, pad, in_len, out_len, stride):
    """Each tap's (output rows, input rows) as two slices: tap t reads input
    row ``t - pad + j * stride`` for output row j, and gives nothing to an
    output row whose input row would lie in the zero padding."""
    rows = []
    for offset in range(-pad, k - pad):
        first = len(range(offset, 0, stride))
        stop = max(first, min(out_len, len(range(offset, in_len, stride))))
        rows.append((slice(first, stop),
                     slice(offset + first * stride, offset + stop * stride, stride)))
    return rows


def conv1d_forward(x, kernels, bias, padding, stride=1):
    """Cross-correlate ``x`` [B, L, C_in] with ``kernels`` [C_out, C_in, K].

    ``padding="valid"`` spans L-K+1 positions, ``padding="same"`` zero-pads
    to span L (odd K only); only positions 0, s, 2s, … of the span are
    computed at ``stride`` s, so L_out = ceil(span / s).  No padded copy is
    made: a tap skips the output rows whose input row is padding.

    The taps are summed one sample at a time: each sample's output row
    starts at ``bias`` and adds, in tap order, each tap's product over its
    rows (``_tap_rows``) through one [L_out, C_out] scratch, with each tap's
    [C_in, C_out] kernel made contiguous once per call.  These are the
    per-sample products that a batched product over the sliced, zero-padded
    [B, L_out, C_in] input makes, so the sums have the same bits.

    With ``C_in == 1`` a tap's product is one exact multiply per value, so
    the row is built channel-major instead, [C_out, L_out], with the inner
    loop along the sequence, then one transposing copy into the output.
    The cache is ``(x, kernels, padding, stride)``, ``x`` being the caller's
    float64 array itself, from which the model reads its ReLU output back.
    """
    x = check_finite("conv1d", np.asarray(x, dtype=np.float64))
    kernels = np.asarray(kernels, dtype=np.float64)
    bias = np.asarray(bias, dtype=np.float64)
    c_out, c_in, k = kernels.shape
    if x.ndim != 3 or x.shape[2] != c_in:
        raise ValueError(f"expected input [B, L, {c_in}], got {x.shape}")
    if not isinstance(stride, (int, np.integer)) or stride < 1:
        raise ValueError(f"stride must be an integer >= 1, got {stride}")
    if padding not in ("valid", "same"):
        raise ValueError(f"unknown padding {padding!r}")
    if padding == "same" and k % 2 == 0:
        raise ValueError("same padding requires an odd kernel size")
    in_len = x.shape[1]
    if padding == "valid" and in_len < k:
        raise ValueError(f"input length {in_len} below kernel size {k}")
    pad = (k - 1) // 2 if padding == "same" else 0
    out_len = -(-(in_len + 2 * pad - k + 1) // stride)
    out = np.empty((x.shape[0], out_len, c_out))
    taps = _tap_rows(k, pad, in_len, out_len, stride)
    if c_in == 1:
        bias_cols = np.tile(bias[:, None], (1, out_len))
        acc, tmp = np.empty((2, c_out, out_len))
        for x_row, out_row in zip(x[:, :, 0], out):
            np.copyto(acc, bias_cols)
            for tap, (out_rows, in_rows) in enumerate(taps):
                np.multiply(kernels[:, 0, tap, None], x_row[None, in_rows], out=tmp[:, out_rows])
                acc[:, out_rows] += tmp[:, out_rows]
            out_row[...] = acc.T
    else:
        tap_kernels = [np.ascontiguousarray(kernels[:, :, tap].T) for tap in range(k)]
        bias_rows = np.tile(bias, (out_len, 1))
        tmp = np.empty((out_len, c_out))
        for x_row, out_row in zip(x, out):
            np.copyto(out_row, bias_rows)
            for tap_kernel, (out_rows, in_rows) in zip(tap_kernels, taps):
                np.matmul(x_row[in_rows], tap_kernel, out=tmp[out_rows])
                out_row[out_rows] += tmp[out_rows]
    return out, (x, kernels, padding, stride)


def conv1d_backward(cache, grad, *, input_grad=True):
    """Gradients of a conv1d: (d_input, d_kernels, d_bias).

    ``d_kernels`` sums each tap's products over the whole batch in one
    product, with the tap's rows (``_tap_rows``) copied into one reused
    [B, L_out, C_in] window and its other rows zeroed.  ``d_input`` is a new
    C-contiguous [B, L, C_in] array: each sample's tap products, through each
    tap's [C_out, C_in] kernel made contiguous once per call, are added to
    the tap's input rows; a zero-padded buffer would get the same adds.
    The window is freed before ``d_input`` is allocated, so the two are never
    alive together.  With ``input_grad=False`` ``d_input`` is not computed
    and comes back as ``None``.
    """
    x, kernels, padding, stride = cache
    grad = np.asarray(grad, dtype=np.float64)
    c_out, c_in, k = kernels.shape
    batch, out_len = grad.shape[:2]
    pad = (k - 1) // 2 if padding == "same" else 0
    taps = _tap_rows(k, pad, x.shape[1], out_len, stride)
    d_bias = grad.sum(axis=(0, 1))
    d_kernels = np.empty_like(kernels)
    flat_grad = grad.reshape(-1, c_out)
    window = np.empty((batch, out_len, c_in))
    for tap, (out_rows, in_rows) in enumerate(taps):
        window[:, : out_rows.start] = 0.0
        np.copyto(window[:, out_rows], x[:, in_rows])
        window[:, out_rows.stop :] = 0.0
        d_kernels[:, :, tap] = flat_grad.T @ window.reshape(-1, c_in)
    del window
    if not input_grad:
        return None, d_kernels, d_bias
    tap_kernels = [np.ascontiguousarray(kernels[:, :, tap]) for tap in range(k)]
    d_input = np.zeros(x.shape)
    tmp = np.empty((out_len, c_in))
    for grad_row, d_row in zip(grad, d_input):
        for tap_kernel, (out_rows, in_rows) in zip(tap_kernels, taps):
            np.matmul(grad_row, tap_kernel, out=tmp)
            d_row[in_rows] += tmp[out_rows]
    return d_input, d_kernels, d_bias


def relu_forward(x):
    """``max(x, 0)`` written over ``x``, which is returned; there is no cache.

    A negative input maps to +0.0.  The backward reads the mask from this
    output, or an array with its bits; the subgradient at exactly 0 is 0.
    """
    x = check_finite("relu", np.asarray(x, dtype=np.float64))
    return np.maximum(x, 0.0, out=x)


def relu_backward(out, grad):
    """``grad * (out > 0)`` written over ``grad``, which is returned.

    ``out`` is the forward's output or its boolean mask ``out > 0``: the
    mask's own ``> 0`` is the mask, so a caller that must write over the
    output before this call takes the mask first and passes that.
    """
    return np.multiply(grad, out > 0, out=grad)


def dense_forward(x, weights, bias):
    """Affine map ``x @ W.T + b`` with W of shape [out, in]."""
    x = check_finite("dense", np.asarray(x, dtype=np.float64))
    weights = np.asarray(weights, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != weights.shape[1]:
        raise ValueError(f"expected input [B, {weights.shape[1]}], got {x.shape}")
    return x @ weights.T + bias, (x, weights)


def dense_backward(cache, grad, *, d_x=None):
    """Gradients of a dense layer: (d_x, d_weights, d_bias).

    ``d_x = grad @ W`` is written into ``d_x`` when one is given, else into
    a new array.  ``d_weights = grad.T @ x`` is formed first, so ``d_x`` may
    be the cached input ``x`` itself; the values are the same either way.
    """
    x, weights = cache
    grad = np.asarray(grad, dtype=np.float64)
    d_weights = grad.T @ x
    if d_x is None:
        d_x = grad @ weights
    else:
        np.matmul(grad, weights, out=d_x)
    return d_x, d_weights, grad.sum(axis=0)


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
    pre-activations into a [B, l] scratch first.  The hidden and cell
    states each alternate between two rows.  The two modes differ in how
    many gate rows there are and in what is kept:

    * ``keep_cache=True`` (training): one product fills a [T, B, 4l] buffer,
      whose rows keep the gate values, and the cell state after every
      ``STREAM_CHUNK`` steps, and after the last step, is copied into a
      [ceil(T / STREAM_CHUNK) + 1, B, l] buffer of kept cells (row 0 is the
      zero initial state, the last row the final cell).  Returns
      ``(h, (x, w_in, w_rec, gates, kept))`` for :func:`lstm_backward`,
      which recomputes the cell and hidden states it needs from those two
      buffers.
    * ``keep_cache=False`` (inference): one product per
      ``STREAM_CHUNK`` steps fills a [STREAM_CHUNK, B, 4l] buffer, and the
      candidate columns are not written back.  Returns ``(h, None)``.

    Every value comes from the same floating-point operations, in the same
    order, as a plain step-by-step loop, so both modes give the same bits.
    """
    x = check_finite("lstm", np.asarray(x, dtype=np.float64))
    if x.ndim != 3:
        raise ValueError(f"expected input [B, T, D], got {x.shape}")
    b, t_steps, _ = x.shape
    units = w_rec.shape[0]
    chunk = t_steps if keep_cache else STREAM_CHUNK
    bias_rows = np.tile(bias, (b, 1))
    x_steps = x.transpose(1, 0, 2)
    gates = np.empty((min(chunk, t_steps), b, 4 * units))
    if keep_cache:
        kept = np.zeros((-(-t_steps // STREAM_CHUNK) + 1, b, units))
    cells, hiddens = np.zeros((2, 2, b, units))
    rec, num, den, sign = np.empty((4, b, 4 * units))
    gg, ig = np.empty((2, b, units))
    i_cols, f_cols, g_cols, o_cols = (slice(k * units, (k + 1) * units) for k in range(4))
    for t in range(t_steps):
        if t % chunk == 0:
            block = x_steps[t : t + chunk]
            np.matmul(block, w_in, out=gates[: len(block)])
        z = gates[t % chunk]
        c_prev, c = cells[t % 2], cells[(t + 1) % 2]
        h_prev, h = hiddens[t % 2], hiddens[(t + 1) % 2]
        np.matmul(h_prev, w_rec, out=rec)
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
        np.multiply(z[:, f_cols], c_prev, out=c)
        np.multiply(z[:, i_cols], gg, out=ig)
        c += ig
        np.tanh(c, out=h)
        h *= z[:, o_cols]
        if keep_cache:
            z[:, g_cols] = gg
            if (t + 1) % STREAM_CHUNK == 0 or t + 1 == t_steps:
                np.copyto(kept[-(-(t + 1) // STREAM_CHUNK)], c)
    cache = (x, w_in, w_rec, gates, kept) if keep_cache else None
    return hiddens[t_steps % 2], cache


def lstm_backward(cache, grad_h, *, d_x=None):
    """Backpropagate through time from the final-hidden-state gradient.

    The cache holds one cell state per ``STREAM_CHUNK`` steps.  When the
    loop reaches the last step of a segment of ``STREAM_CHUNK`` steps, it
    recomputes the segment's cells into one [STREAM_CHUNK + 1, B, l]
    buffer, starting from the segment's kept cell: ``i * g`` for the whole
    segment in one product, then ``f * c_prev`` and its sum with ``i * g``
    step by step.  The gate rows of the segment are untouched at that
    point, and these are the forward's own operations on the forward's own
    values (the sum in the other operand order, which gives the same
    bits), so every cell has the forward's bits.

    The cache holds no hidden states either: step t recomputes the previous
    one, ``h_{t-1} = tanh(c_{t-1}) * o_{t-1}``, from the cells and the
    output-gate columns of row t - 1, which the steps so far have not
    touched (``h_{-1}`` is the zero initial state).  That tanh is the
    ``tanh(c)`` step t - 1 needs, so it is carried there: one tanh per
    step, as before.

    Each step writes its gate gradient ``d_z`` over its gate values, which
    are dead by then, so the cache is consumed: it cannot be backpropagated
    twice.  The arithmetic, including the order in which the weight
    gradients accumulate, is that of a plain step-by-step loop.

    The input gradient is written into ``d_x`` when one is given, else into
    a new array.  ``d_x`` may be the cached input ``x`` itself: step t reads
    row t of ``x`` for ``d_w_in`` before it writes row t of ``d_x``, and the
    later steps read only rows below t.
    """
    x, w_in, w_rec, gates, kept = cache
    t_steps, b, four_units = gates.shape
    units = four_units // 4
    i_cols, f_cols, g_cols, o_cols = (slice(k * units, (k + 1) * units) for k in range(4))
    if d_x is None:
        d_x = np.empty_like(x)
    d_w_in = np.zeros_like(w_in)
    d_w_rec = np.zeros_like(w_rec)
    d_bias = np.zeros(four_units)
    d_h = np.asarray(grad_h, dtype=np.float64).copy()
    d_c = np.zeros((b, units))
    tanh_c, tanh_prev, h_prev, tmp, tmp2 = np.empty((5, b, units))
    np.tanh(kept[-1], out=tanh_c)
    cells = np.empty((min(STREAM_CHUNK, t_steps) + 1, b, units))
    slots, d_gate, slope = np.empty((3, 4, b, units))
    gi, gf, gg, go = slots
    for t in range(t_steps - 1, -1, -1):
        start = t - t % STREAM_CHUNK
        if t == t_steps - 1 or t % STREAM_CHUNK == STREAM_CHUNK - 1:
            segment = gates[start : t + 1]
            np.copyto(cells[0], kept[start // STREAM_CHUNK])
            # i * g of each step, to which its f * c_prev is then added; the
            # copy of i leaves numpy one strided operand to buffer, not two
            ig = cells[1 : len(segment) + 1]
            np.copyto(ig, segment[:, :, i_cols])
            ig *= segment[:, :, g_cols]
            for s, z in enumerate(segment):
                np.multiply(z[:, f_cols], cells[s], out=tmp)
                cells[s + 1] += tmp
        c_prev = cells[t - start]
        d_z = gates[t]
        d_z_slots = d_z.reshape(b, 4, units).transpose(1, 0, 2)
        np.copyto(slots, d_z_slots)
        if t:
            np.tanh(c_prev, out=tanh_prev)
            np.multiply(tanh_prev, gates[t - 1][:, o_cols], out=h_prev)
        else:
            h_prev.fill(0.0)
        np.multiply(d_h, go, out=tmp)
        np.multiply(tanh_c, tanh_c, out=tmp2)
        np.subtract(1.0, tmp2, out=tmp2)
        tmp *= tmp2
        d_c += tmp
        # gradients of the gate values: c = f*c_prev + i*g, h = o*tanh(c)
        np.multiply(d_c, gg, out=d_gate[0])
        np.multiply(d_c, c_prev, out=d_gate[1])
        np.multiply(d_c, gi, out=d_gate[2])
        np.multiply(d_h, tanh_c, out=d_gate[3])
        # times the slopes a * (1 - a) of the sigmoids and 1 - g^2 of tanh
        d_gate[:2] *= slots[:2]
        d_gate[3] *= go
        gg *= gg
        np.subtract(1.0, slots, out=slope)
        np.multiply(d_gate, slope, out=d_z_slots)
        d_w_in += x[:, t, :].T @ d_z
        d_w_rec += h_prev.T @ d_z
        d_bias += d_z.sum(axis=0)
        np.matmul(d_z, w_in.T, out=d_x[:, t, :])
        np.matmul(d_z, w_rec.T, out=d_h)
        d_c *= gf
        tanh_c, tanh_prev = tanh_prev, tanh_c
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
    When both are C-contiguous and of one shape, the update runs over
    ``SGD_CHUNK`` elements of their flat views at a time, so the product
    ``lr * grad`` never takes a full-size temporary; the values are the same.
    """
    if learning_rate <= 0:
        raise ValueError(f"learning rate must be > 0, got {learning_rate}")
    grad = np.asarray(grad)
    if weights.flags.c_contiguous and grad.flags.c_contiguous and grad.shape == weights.shape:
        flat_w, flat_g = weights.reshape(-1), grad.reshape(-1)
        for lo in range(0, flat_w.size, SGD_CHUNK):
            flat_w[lo : lo + SGD_CHUNK] -= learning_rate * flat_g[lo : lo + SGD_CHUNK]
    else:
        weights -= learning_rate * grad
    return weights
