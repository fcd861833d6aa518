"""Model structure, determinism, checkpointing and the LR schedule."""

import weakref
from dataclasses import replace

import numpy as np
import pytest

from inertialab.nn import layers
from inertialab.nn.model import (CnnModel, LrcnConfig, LrcnModel, _head_backward,
                                 _head_forward, load_model, make_model)
from inertialab.nn.schedule import ReduceLrOnPlateau
from test_nn_layers import reference_conv

SMALL = LrcnConfig(
    input_len=120,
    conv1_channels=3,
    conv2_channels=4,
    lstm_units=5,
    head_sizes=(6, 3),
    batch_size=4,
    seed=7,
    sequence_stride=5,
)


class TestStructure:
    def test_default_dimensions(self):
        cfg = LrcnConfig()
        assert cfg.input_len == 4000
        assert cfg.conv_output_len == 3998
        assert cfg.flatten_size == 79_960
        assert cfg.batch_size == 32
        assert cfg.lstm_units == 32

    def test_cnn_flatten_feeds_head(self):
        model = make_model("cnn", LrcnConfig())
        assert model.params["head1_w"].shape == (64, 79_960)

    def test_lrcn_head_reads_lstm_state(self):
        model = make_model("lrcn", LrcnConfig())
        assert model.params["head1_w"].shape == (64, 32)
        assert model.params["lstm_w_in"].shape == (20, 128)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LrcnConfig(conv1_channels=0)
        with pytest.raises(ValueError):
            LrcnConfig(input_len=2, kernel_size=3)

    @pytest.mark.parametrize("kw", [
        dict(conv1_channels=0), dict(head_sizes=(64, 0)), dict(kernel_size=4),
        dict(learning_rate=0.0), dict(learning_rate=float("nan")),
        dict(lr_factor=0.0), dict(lr_factor=1.5), dict(lr_patience=-1),
        dict(lr_min=-1e-6), dict(lr_threshold=-1.0), dict(seed=-1),
    ])
    def test_config_rejects_out_of_domain_values(self, kw):
        (name,) = kw
        with pytest.raises(ValueError, match=name):
            LrcnConfig(**kw)

    @pytest.mark.parametrize("kw", [
        dict(sequence_stride=8.0), dict(sequence_stride=True), dict(head_sizes=(64.0, 16)),
        dict(input_len=4000.0), dict(kernel_size=True), dict(batch_size="32"),
        dict(seed=1.5), dict(lr_patience=2.5), dict(seed=True),
    ])
    def test_config_rejects_non_integer_sizes(self, kw):
        (name,) = kw
        with pytest.raises(ValueError, match=name):
            LrcnConfig(**kw)

    def test_config_accepts_numpy_integer_sizes(self):
        cfg = LrcnConfig(sequence_stride=np.int64(8), head_sizes=(np.int32(64), 16))
        assert cfg == LrcnConfig(sequence_stride=8)
        assert type(cfg.sequence_stride) is int and type(cfg.head_sizes[0]) is int

    def test_config_edge_values_accepted(self):
        cfg = LrcnConfig(lr_factor=1.0, lr_patience=0, lr_min=0.0, lr_threshold=0.0)
        assert cfg.lr_factor == 1.0

    def test_unknown_arch(self):
        with pytest.raises(ValueError):
            make_model("transformer", LrcnConfig())


class TestForward:
    def test_batch_prediction_shape(self):
        model = make_model("lrcn", SMALL)
        batch = np.random.default_rng(0).uniform(size=(9, SMALL.input_len))
        assert model.forward(batch).shape == (9,)

    def test_default_size_batch(self):
        # one full-size batch through the default architecture (stride 1:
        # the LSTM walks all 3998 conv positions)
        model = make_model("lrcn", LrcnConfig())
        batch = np.random.default_rng(1).uniform(size=(32, 4000))
        assert model.forward(batch).shape == (32,)

    def test_zeroed_model_constant_predictions(self):
        for arch in ("lrcn", "cnn"):
            model = make_model(arch, SMALL)
            model.params = {k: np.zeros_like(v) for k, v in model.params.items()}
            batch = np.random.default_rng(1).uniform(size=(5, SMALL.input_len))
            preds = model.forward(batch)
            assert np.all(preds == preds[0])

    def test_deterministic_given_seed(self):
        batch = np.random.default_rng(2).uniform(size=(4, SMALL.input_len))
        a = make_model("lrcn", SMALL).forward(batch)
        b = make_model("lrcn", SMALL).forward(batch)
        np.testing.assert_array_equal(a, b)

    def test_conv_stack_positive_homogeneity(self):
        # with zero biases the ReLU conv stack is positively homogeneous
        model = make_model("lrcn", SMALL)
        model.params["conv1_b"] = np.zeros_like(model.params["conv1_b"])
        model.params["conv2_b"] = np.zeros_like(model.params["conv2_b"])
        batch = np.random.default_rng(3).uniform(size=(2, SMALL.input_len))
        seq, _ = model._conv_stack(batch)
        seq_scaled, _ = model._conv_stack(3.5 * batch)
        np.testing.assert_allclose(seq_scaled, 3.5 * seq, rtol=1e-12)
        seq_zero, _ = model._conv_stack(0.0 * batch)
        np.testing.assert_allclose(seq_zero, 0.0 * seq, atol=0.0)

    @pytest.mark.parametrize("arch, stride", [("lrcn", 1), ("lrcn", 8), ("cnn", 1)])
    def test_forward_matches_training_pass_bytes(self, arch, stride):
        # forward streams the LSTM with no backward cache; at stride 1 the
        # 198-step sequence spans several of its input-product chunks
        config = replace(SMALL, input_len=200, sequence_stride=stride)
        model = make_model(arch, config)
        rng = np.random.default_rng(6)
        batch = rng.uniform(size=(3, config.input_len))
        targets = rng.uniform(3.0, 8.0, size=3)
        pred, _, _ = model.forward_backward(batch, targets)
        assert model.forward(batch).tobytes() == pred.tobytes()

    @pytest.mark.parametrize("arch, stride", [("lrcn", 1), ("lrcn", 8), ("cnn", 1)])
    def test_pass_sizes_are_the_training_arrays(self, arch, stride):
        config = replace(SMALL, input_len=200, sequence_stride=stride)
        model = make_model(arch, config)
        batch = np.random.default_rng(6).uniform(size=(config.batch_size, config.input_len))
        _, cache = model._forward(batch, keep_cache=True)
        (_, conv2_cache), seq = cache[0], cache[1]
        arrays = {"parameters": sum(p.size for p in model.params.values()),
                  "conv1 output": conv2_cache[0].size, "conv2 output": seq.size}
        if arch == "lrcn":
            arrays["LSTM gate cache"] = cache[2][3].size
        assert type(model).pass_sizes(config) == arrays

    def test_input_length_checked(self):
        model = make_model("lrcn", SMALL)
        with pytest.raises(ValueError):
            model.forward(np.zeros((2, SMALL.input_len + 1)))


def reference_relu(x):
    """The multiplying ReLU: a negative input gives -0.0."""
    mask = x > 0
    return x * mask, mask


def reference_pass(model, batch, targets):
    """(predictions, loss, grads) through a front end of ``reference_conv``
    and ``reference_relu``, then the library's own LSTM and head."""
    p, n_hidden = model.params, len(model.config.head_sizes)
    x = batch[:, :, None]
    out_len = model.config.conv_output_len
    no_grad = [np.zeros((len(batch), out_len, p[f"conv{i}_w"].shape[0])) for i in (1, 2)]
    c1, _ = reference_conv(x, p["conv1_w"], p["conv1_b"], "valid", no_grad[0])
    r1, mask1 = reference_relu(c1)
    c2, _ = reference_conv(r1, p["conv2_w"], p["conv2_b"], "same", no_grad[1])
    r2, mask2 = reference_relu(c2)
    if model.arch == "lrcn":
        head_in, lstm_cache = layers.lstm_forward(
            r2, p["lstm_w_in"], p["lstm_w_rec"], p["lstm_b"])
    else:
        head_in = r2.reshape(len(batch), -1)
    pred, head_cache = _head_forward(p, n_hidden, head_in)
    loss = layers.mse(targets, pred)
    d_in, grads = _head_backward(head_cache, n_hidden, layers.mse_gradient(targets, pred))
    if model.arch == "lrcn":
        d_r2, grads["lstm_w_in"], grads["lstm_w_rec"], grads["lstm_b"] = (
            layers.lstm_backward(lstm_cache, d_in))
    else:
        d_r2 = d_in.reshape(r2.shape)
    _, (d_r1, grads["conv2_w"], grads["conv2_b"]) = reference_conv(
        r1, p["conv2_w"], p["conv2_b"], "same", d_r2 * mask2)
    _, (_, grads["conv1_w"], grads["conv1_b"]) = reference_conv(
        x, p["conv1_w"], p["conv1_b"], "valid", d_r1 * mask1)
    return pred, loss, grads


@pytest.mark.parametrize("arch", ["cnn", "lrcn"])
def test_training_pass_matches_reference_front_end_bytes(arch):
    # stride 1: the reference conv evaluates every row.  With no hidden layer
    # the out layer reads the head's input, so it is the layer that writes
    # the input gradient over relu2's output (CNN)
    for head_sizes in (SMALL.head_sizes, ()):
        config = replace(SMALL, input_len=200, sequence_stride=1, head_sizes=head_sizes)
        model = make_model(arch, config)
        rng = np.random.default_rng(9)
        batch = rng.uniform(-1.0, 1.0, size=(4, config.input_len))
        targets = rng.uniform(3.0, 8.0, size=4)
        pred, loss, grads = model.forward_backward(batch, targets)
        ref_pred, ref_loss, ref_grads = reference_pass(model, batch, targets)
        assert pred.tobytes() == ref_pred.tobytes(), head_sizes
        assert np.float64(loss).tobytes() == np.float64(ref_loss).tobytes(), head_sizes
        assert sorted(grads) == sorted(ref_grads) == sorted(model.params)
        for name, grad in grads.items():
            assert grad.tobytes() == ref_grads[name].tobytes(), (head_sizes, name)


def test_lstm_cache_is_freed_before_the_conv_backward(monkeypatch):
    # the gate buffer is the largest array of an LRCN pass; nothing after
    # lstm_backward reads it, so it must not be alive during conv2's backward
    gate_refs, alive_at_conv2 = [], []
    lstm_forward, conv1d_backward = layers.lstm_forward, layers.conv1d_backward

    def recording_forward(*args, **kwargs):
        h, cache = lstm_forward(*args, **kwargs)
        gate_refs.append(weakref.ref(cache[3]))
        return h, cache

    def checking_backward(cache, *args, **kwargs):
        if cache[2] == "same":
            alive_at_conv2.append(gate_refs[-1]() is not None)
        return conv1d_backward(cache, *args, **kwargs)

    monkeypatch.setattr(layers, "lstm_forward", recording_forward)
    monkeypatch.setattr(layers, "conv1d_backward", checking_backward)
    model = make_model("lrcn", SMALL)
    rng = np.random.default_rng(10)
    model.forward_backward(rng.uniform(size=(4, SMALL.input_len)), rng.uniform(size=4))
    assert alive_at_conv2 == [False]


@pytest.mark.parametrize("arch", ["cnn", "lrcn"])
def test_relu2_output_takes_the_next_layers_input_gradient(arch, monkeypatch):
    # relu2's output is dead once head1 (CNN) or the LSTM (LRCN) has read it
    # for its weight gradient, so that layer's input gradient goes over it
    outputs, input_grads = [], []
    relu_forward = layers.relu_forward
    name = "lstm_backward" if arch == "lrcn" else "dense_backward"
    backward = getattr(layers, name)

    def recording_forward(x):
        outputs.append(relu_forward(x))
        return outputs[-1]

    def recording_backward(*args, **kwargs):
        result = backward(*args, **kwargs)
        input_grads.append(result[0])
        return result

    monkeypatch.setattr(layers, "relu_forward", recording_forward)
    monkeypatch.setattr(layers, name, recording_backward)
    model = make_model(arch, SMALL)
    rng = np.random.default_rng(12)
    model.forward_backward(rng.uniform(size=(4, SMALL.input_len)), rng.uniform(size=4))
    # relu2 runs second forward; the LSTM's backward, or head1's, runs last
    assert np.shares_memory(input_grads[-1], outputs[1])


@pytest.mark.parametrize("arch", ["cnn", "lrcn"])
def test_relu1_backward_reads_relu1_output(arch, monkeypatch):
    # conv2 keeps its input itself, not a padded copy, so relu1's backward
    # gets the very array relu1's forward returned
    outputs, masks = [], []
    relu_forward, relu_backward = layers.relu_forward, layers.relu_backward

    def recording_forward(x):
        outputs.append(relu_forward(x))
        return outputs[-1]

    def recording_backward(out, grad):
        masks.append(out)
        return relu_backward(out, grad)

    monkeypatch.setattr(layers, "relu_forward", recording_forward)
    monkeypatch.setattr(layers, "relu_backward", recording_backward)
    model = make_model(arch, SMALL)
    rng = np.random.default_rng(11)
    model.forward_backward(rng.uniform(size=(4, SMALL.input_len)), rng.uniform(size=4))
    # relu1 runs first forward and last backward
    assert len(outputs) == len(masks) == 2 + len(SMALL.head_sizes)
    assert masks[-1] is outputs[0]


class TestCheckpoint:
    @pytest.mark.parametrize("arch", ["lrcn", "cnn"])
    def test_round_trip_bit_exact(self, arch, tmp_path):
        model = make_model(arch, SMALL)
        model.epoch = 17
        model.lr = 0.0025
        model.best_val_mse = 0.125
        path = tmp_path / "model.bin"
        model.save(path)
        back = load_model(path)
        assert type(back) is type(model)
        assert back.config == model.config
        assert back.epoch == 17 and back.lr == 0.0025 and back.best_val_mse == 0.125
        batch = np.random.default_rng(4).uniform(size=(3, SMALL.input_len))
        np.testing.assert_array_equal(back.forward(batch), model.forward(batch))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"NOTMODEL" + b"\0" * 32)
        with pytest.raises(ValueError):
            load_model(path)


class TestTrainingStep:
    def test_gradient_step_reduces_loss(self):
        model = make_model("lrcn", SMALL)
        rng = np.random.default_rng(5)
        batch = rng.uniform(size=(8, SMALL.input_len))
        targets = rng.uniform(3.0, 8.0, size=8)
        _, loss0, grads = model.forward_backward(batch, targets)
        model.apply_gradients(grads, 0.01)
        _, loss1, _ = model.forward_backward(batch, targets)
        assert loss1 < loss0

    def test_apply_gradients_is_plain_descent(self):
        model = make_model("cnn", SMALL)
        before = model.params["out_b"].copy()
        grads = {"out_b": np.array([2.0])}
        model.apply_gradients(grads, 0.25)
        np.testing.assert_allclose(model.params["out_b"], before - 0.5, rtol=1e-15)


class TestPlateauSchedule:
    def test_improving_history_keeps_rate(self):
        sched = ReduceLrOnPlateau(lr=0.01)
        values = [1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1, 0.05]
        for v in values:
            assert sched.update(v) == 0.01

    def test_ten_stagnant_epochs_halve(self):
        sched = ReduceLrOnPlateau(lr=0.01, patience=10)
        sched.update(1.0)  # establishes the baseline
        rates = [sched.update(1.0) for _ in range(10)]
        assert rates[-2] == 0.01
        assert rates[-1] == 0.005

    def test_thirty_stagnant_epochs_three_halvings(self):
        sched = ReduceLrOnPlateau(lr=0.01, patience=10)
        sched.update(1.0)
        rates = [sched.update(1.0) for _ in range(30)]
        assert rates[-1] == pytest.approx(0.00125)
        # halvings land exactly at stagnation counts 10, 20 and 30
        assert rates.count(0.01) == 9
        assert rates.count(0.005) == 10
        assert rates.count(0.0025) == 10
        assert rates.count(0.00125) == 1

    def test_improvement_below_threshold_counts_as_stagnant(self):
        sched = ReduceLrOnPlateau(lr=0.01, patience=2, threshold=1e-8)
        sched.update(1.0)
        sched.update(1.0 - 1e-9)  # within threshold: stagnant
        assert sched.update(1.0 - 2e-9) == 0.005

    def test_min_lr_clamp(self):
        sched = ReduceLrOnPlateau(lr=0.01, patience=1, min_lr=0.004)
        sched.update(1.0)
        assert sched.update(1.0) == 0.005
        assert sched.update(1.0) == 0.004
        assert sched.update(1.0) == 0.004
