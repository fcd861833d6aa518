"""Finite-difference verification of every backward pass.

Each layer is checked over 20 seeded random trials: a fixed random
projection turns the layer output into a scalar, the analytic gradient is
compared against central differences (step 1e-5) within 1e-4 relative
error.  The end-to-end checks run a toy-sized model through the full
forward/backward stack.
"""

import numpy as np
import pytest

from inertialab.nn import layers
from inertialab.nn.gradcheck import max_relative_error, numeric_gradient
from inertialab.nn.model import LrcnConfig, make_model

N_TRIALS = 20
TOL = 1e-4

TOY_CONFIG = LrcnConfig(
    input_len=100,
    conv1_channels=2,
    conv2_channels=3,
    lstm_units=4,
    head_sizes=(5, 3),
    batch_size=4,
    seed=0,
    sequence_stride=7,
)


def trial_rngs():
    return [np.random.default_rng(1000 + k) for k in range(N_TRIALS)]


def check_conv1d_gradients(padding, stride):
    for rng in trial_rngs():
        x = rng.normal(size=(2, 9, 2))
        kernels = rng.normal(size=(3, 2, 3))
        bias = rng.normal(size=3)
        out, cache = layers.conv1d_forward(x, kernels, bias, padding, stride=stride)
        proj = rng.normal(size=out.shape)
        d_x, d_k, d_b = layers.conv1d_backward(cache, proj)

        def loss_x(a):
            return float(np.sum(proj * layers.conv1d_forward(a, kernels, bias, padding,
                                                             stride=stride)[0]))

        def loss_k(k):
            return float(np.sum(proj * layers.conv1d_forward(x, k, bias, padding,
                                                             stride=stride)[0]))

        def loss_b(b):
            return float(np.sum(proj * layers.conv1d_forward(x, kernels, b, padding,
                                                             stride=stride)[0]))

        assert max_relative_error(d_x, numeric_gradient(loss_x, x.copy())) < TOL
        assert max_relative_error(d_k, numeric_gradient(loss_k, kernels.copy())) < TOL
        assert max_relative_error(d_b, numeric_gradient(loss_b, bias.copy())) < TOL


@pytest.mark.parametrize("padding", ["valid", "same"])
def test_conv1d_gradients(padding):
    check_conv1d_gradients(padding, stride=1)


@pytest.mark.parametrize("padding", ["valid", "same"])
def test_strided_conv1d_gradients(padding):
    # 7 (valid) or 9 (same) positions at stride 2: 4 or 5 output rows
    check_conv1d_gradients(padding, stride=2)


def test_relu_gradients():
    for rng in trial_rngs():
        x = rng.normal(size=(3, 7))
        out = layers.relu_forward(x.copy())
        proj = rng.normal(size=out.shape)
        d_x = layers.relu_backward(out, proj.copy())

        def loss(a):
            return float(np.sum(proj * layers.relu_forward(a.copy())))

        assert max_relative_error(d_x, numeric_gradient(loss, x.copy())) < TOL


def test_dense_gradients():
    for rng in trial_rngs():
        x = rng.normal(size=(3, 5))
        w = rng.normal(size=(4, 5))
        b = rng.normal(size=4)
        out, cache = layers.dense_forward(x, w, b)
        proj = rng.normal(size=out.shape)
        d_x, d_w, d_b = layers.dense_backward(cache, proj)

        def loss_x(a):
            return float(np.sum(proj * layers.dense_forward(a, w, b)[0]))

        def loss_w(ww):
            return float(np.sum(proj * layers.dense_forward(x, ww, b)[0]))

        def loss_b(bb):
            return float(np.sum(proj * layers.dense_forward(x, w, bb)[0]))

        assert max_relative_error(d_x, numeric_gradient(loss_x, x.copy())) < 1e-6
        assert max_relative_error(d_w, numeric_gradient(loss_w, w.copy())) < 1e-6
        assert max_relative_error(d_b, numeric_gradient(loss_b, b.copy())) < 1e-6


def test_lstm_gradients_over_five_steps():
    for rng in trial_rngs():
        x = rng.normal(size=(2, 5, 3))
        w_in = rng.normal(scale=0.4, size=(3, 16))
        w_rec = rng.normal(scale=0.4, size=(4, 16))
        bias = rng.normal(scale=0.2, size=16)
        h, cache = layers.lstm_forward(x, w_in, w_rec, bias)
        proj = rng.normal(size=h.shape)
        d_x, d_w_in, d_w_rec, d_b = layers.lstm_backward(cache, proj)

        def loss_x(a):
            return float(np.sum(proj * layers.lstm_forward(a, w_in, w_rec, bias)[0]))

        def loss_w_in(w):
            return float(np.sum(proj * layers.lstm_forward(x, w, w_rec, bias)[0]))

        def loss_w_rec(w):
            return float(np.sum(proj * layers.lstm_forward(x, w_in, w, bias)[0]))

        def loss_b(b):
            return float(np.sum(proj * layers.lstm_forward(x, w_in, w_rec, b)[0]))

        assert max_relative_error(d_x, numeric_gradient(loss_x, x.copy())) < TOL
        assert max_relative_error(d_w_in, numeric_gradient(loss_w_in, w_in.copy())) < TOL
        assert max_relative_error(d_w_rec, numeric_gradient(loss_w_rec, w_rec.copy())) < TOL
        assert max_relative_error(d_b, numeric_gradient(loss_b, bias.copy())) < TOL


def test_mse_gradient_against_differences():
    # the loss is quadratic, so central differences are exact up to roundoff
    for rng in trial_rngs():
        y = rng.normal(size=6)
        pred = rng.normal(size=6)
        d_pred = layers.mse_gradient(y, pred)
        numeric = numeric_gradient(lambda p: layers.mse(y, p), pred.copy(), eps=1e-6)
        assert np.abs(d_pred - numeric).max() < 1e-8


def _relu_margins(model, batch):
    """(conv, head) smallest |pre-activation| feeding any ReLU on ``batch``.

    Central differences are meaningless across a ReLU kink.  An eps = 1e-5
    parameter perturbation shifts conv pre-activations by O(1e-5) but can
    accumulate to O(1e-3) at the dense head, so the two stages carry
    different safety margins.
    """
    p = model.params
    c1, _ = layers.conv1d_forward(batch[:, :, None], p["conv1_w"], p["conv1_b"], "valid")
    c2, _ = layers.conv1d_forward(
        layers.relu_forward(c1.copy()), p["conv2_w"], p["conv2_b"], "same")
    conv_margin = min(np.abs(c1).min(), np.abs(c2).min())
    r2 = layers.relu_forward(c2)
    if model.arch == "lrcn":
        x, _ = layers.lstm_forward(
            r2[:, :: model.config.sequence_stride, :],
            p["lstm_w_in"], p["lstm_w_rec"], p["lstm_b"],
        )
    else:
        x = r2.reshape(r2.shape[0], -1)
    head_margin = np.inf
    for idx in range(1, len(model.config.head_sizes) + 1):
        x, _ = layers.dense_forward(x, p[f"head{idx}_w"], p[f"head{idx}_b"])
        head_margin = min(head_margin, np.abs(x).min())
        x = layers.relu_forward(x)
    return conv_margin, head_margin


@pytest.mark.parametrize("arch", ["lrcn", "cnn"])
def test_end_to_end_model_gradients(arch):
    """Whole-model MSE gradient vs central differences on a toy config."""
    for trial in range(N_TRIALS):
        model = make_model(arch, LrcnConfig(
            input_len=TOY_CONFIG.input_len,
            conv1_channels=TOY_CONFIG.conv1_channels,
            conv2_channels=TOY_CONFIG.conv2_channels,
            lstm_units=TOY_CONFIG.lstm_units,
            head_sizes=TOY_CONFIG.head_sizes,
            batch_size=TOY_CONFIG.batch_size,
            seed=trial,
            sequence_stride=TOY_CONFIG.sequence_stride,
        ))
        # an eps perturbation reaches the head attenuated through the LSTM
        # but amplified through the CNN flatten, hence the split thresholds
        head_floor = 5e-4 if arch == "lrcn" else 2e-3
        batch = targets = None
        for attempt in range(200):  # deterministic redraw until clear of kinks
            rng = np.random.default_rng(5000 + 1000 * trial + attempt)
            candidate = rng.uniform(0.0, 1.0, size=(3, TOY_CONFIG.input_len))
            conv_margin, head_margin = _relu_margins(model, candidate)
            if conv_margin > 2e-4 and head_margin > head_floor:
                batch = candidate
                targets = rng.uniform(3.0, 8.0, size=3)
                break
        assert batch is not None, "no kink-free batch found"
        _, _, grads = model.forward_backward(batch, targets)

        for name in sorted(model.params):
            original = model.params[name]

            def loss(values, _name=name):
                model.params[_name] = values
                preds = model.forward(batch)
                model.params[_name] = original
                return layers.mse(targets, preds)

            numeric = numeric_gradient(loss, original.copy())
            err = max_relative_error(grads[name], numeric, floor=1e-5)
            assert err < TOL, f"{arch}/{name}: rel err {err:.2e}"
