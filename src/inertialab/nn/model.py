"""Regression networks built from the layer primitives.

Two architectures share one convolutional front end (valid conv, ReLU, same
conv, ReLU over the flattened input treated as a 1-channel sequence) and one
dense regression head:

* ``LrcnModel`` feeds the conv output sequence into an LSTM and regresses
  from the final hidden state;
* ``CnnModel`` flattens the conv output directly into the head.

With the default configuration the conv stack emits 3998 steps of 20
channels, i.e. 79,960 values, which is the flatten width of the CNN variant
and a structural diagnostic of the LRCN.
"""

from __future__ import annotations

import io
import json
import math
import struct
from dataclasses import asdict, dataclass, fields

import numpy as np

from ..checks import integer_at_least
from . import layers

__all__ = ["LrcnConfig", "LrcnModel", "CnnModel", "make_model", "load_model",
           "read_checkpoint", "read_checkpoint_header", "fits_json_kind"]

MODEL_MAGIC = b"LRCNMDL1"
# An open forget gate at init lets the final state reflect the whole
# sequence; the wide input-weight range makes that state vary strongly
# across samples, which plain gradient descent needs to train the head in
# few updates (small ranges leave the state nearly constant and the
# regression ill-conditioned).
LSTM_FORGET_BIAS = 1.0
LSTM_INIT_SCALE = 0.6


@dataclass(frozen=True)
class LrcnConfig:
    """Architecture and training hyperparameters.

    ``sequence_stride`` s evaluates the LRCN's conv2 only at positions 0, s,
    2s, … (1 = full sequence), so the LSTM reads every s-th step; it exists
    to keep backpropagation through time affordable in small-scale runs and
    is a documented deviation knob, not part of the reference architecture.
    """

    input_len: int = 4000
    conv1_channels: int = 10
    conv2_channels: int = 20
    kernel_size: int = 3
    lstm_units: int = 32
    head_sizes: tuple = (64, 16)
    batch_size: int = 32
    seed: int = 0
    learning_rate: float = 0.02
    lr_factor: float = 0.5
    lr_patience: int = 10
    lr_min: float = 1e-6
    lr_threshold: float = 1e-8
    sequence_stride: int = 1

    def __post_init__(self):
        for name in ("input_len", "conv1_channels", "conv2_channels", "kernel_size",
                     "lstm_units", "batch_size", "sequence_stride"):
            object.__setattr__(self, name, integer_at_least(name, getattr(self, name), 1))
        object.__setattr__(self, "head_sizes", tuple(
            integer_at_least(f"head_sizes[{i}]", s, 1) for i, s in enumerate(self.head_sizes)))
        for name in ("seed", "lr_patience"):
            object.__setattr__(self, name, integer_at_least(name, getattr(self, name), 0))
        if self.input_len < self.kernel_size:
            raise ValueError("input length below kernel size")
        if self.kernel_size % 2 == 0:  # the "same" conv pads (k - 1) / 2 on each side
            raise ValueError(f"kernel_size must be odd, got {self.kernel_size}")
        if not self.learning_rate > 0:  # NaN fails too
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not 0 < self.lr_factor <= 1:
            raise ValueError(f"lr_factor must be in (0, 1], got {self.lr_factor}")
        for name in ("lr_min", "lr_threshold"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")

    @property
    def conv_output_len(self):
        return self.input_len - (self.kernel_size - 1)

    @property
    def flatten_size(self):
        """Element count leaving the conv stack (valid conv then same conv)."""
        return self.conv_output_len * self.conv2_channels


def _he_uniform(rng, shape, fan_in):
    limit = np.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=shape)


def _bias_init(rng, width):
    # small nonzero offsets keep ReLU pre-activations off the exact kink
    return rng.uniform(-0.05, 0.05, size=width)


def _head_params(rng, sizes, in_dim):
    params = {}
    prev = in_dim
    for idx, width in enumerate(sizes, start=1):
        params[f"head{idx}_w"] = _he_uniform(rng, (width, prev), prev)
        params[f"head{idx}_b"] = _bias_init(rng, width)
        prev = width
    params["out_w"] = _he_uniform(rng, (1, prev), prev)
    params["out_b"] = np.zeros(1)
    return params


def _head_forward(params, n_hidden, x):
    caches = []
    for idx in range(1, n_hidden + 1):
        x, cache = layers.dense_forward(x, params[f"head{idx}_w"], params[f"head{idx}_b"])
        caches.append(cache)
        x = layers.relu_forward(x)
    out, cache = layers.dense_forward(x, params["out_w"], params["out_b"])
    caches.append(cache)
    return out[:, 0], caches


def _head_backward(caches, n_hidden, grad_out, d_x=None):
    """Input gradient and head parameter gradients; the input gradient is
    written into ``d_x`` when one is given (see ``dense_backward``) by the
    layer that reads the head's input: head1, or the out layer when there is
    no hidden layer."""
    grads = {}
    g, grads["out_w"], grads["out_b"] = layers.dense_backward(
        caches[-1], grad_out[:, None], d_x=None if n_hidden else d_x
    )
    for idx in range(n_hidden, 0, -1):
        # a hidden ReLU's output is the input the next dense layer keeps, and
        # dense_backward's product is fresh, so the ReLU may overwrite it
        g = layers.relu_backward(caches[idx][0], g)
        g, grads[f"head{idx}_w"], grads[f"head{idx}_b"] = layers.dense_backward(
            caches[idx - 1], g, d_x=d_x if idx == 1 else None
        )
    return g, grads


class _RegressionNet:
    """Shared plumbing of both architectures."""

    arch = ""

    def __init__(self, config, params, epoch=0, lr=None, best_val_mse=float("nan")):
        self.config = config
        self.params = params
        self.epoch = epoch
        self.lr = config.learning_rate if lr is None else lr
        self.best_val_mse = best_val_mse

    @classmethod
    def initialize(cls, config):
        rng = np.random.default_rng(config.seed)
        k = config.kernel_size
        params = {
            "conv1_w": _he_uniform(
                rng, (config.conv1_channels, 1, k), fan_in=k
            ),
            "conv1_b": _bias_init(rng, config.conv1_channels),
            "conv2_w": _he_uniform(
                rng,
                (config.conv2_channels, config.conv1_channels, k),
                fan_in=k * config.conv1_channels,
            ),
            "conv2_b": _bias_init(rng, config.conv2_channels),
        }
        params.update(cls._extra_params(rng, config))
        params.update(_head_params(rng, config.head_sizes, cls._head_input(config)))
        return cls(config, params)

    def _conv_stack(self, batch, stride=1):
        """relu2's output and the conv caches; the one widening of a dataset's
        float32 rows to the float64 that every layer computes in."""
        cfg = self.config
        batch = np.asarray(batch, dtype=np.float64)
        if batch.ndim != 2 or batch.shape[1] != cfg.input_len:
            raise ValueError(
                f"expected batch [B, {cfg.input_len}], got {batch.shape}"
            )
        p = self.params
        c1, cache1 = layers.conv1d_forward(batch[:, :, None], p["conv1_w"], p["conv1_b"], "valid")
        c2, cache2 = layers.conv1d_forward(
            layers.relu_forward(c1), p["conv2_w"], p["conv2_b"], "same", stride=stride)
        return layers.relu_forward(c2), (cache1, cache2)

    def _conv_stack_backward(self, cache, grad):
        """Conv parameter gradients from ``grad``, the gradient of conv2's
        output, which is overwritten.

        relu2's backward is the model's own: the layer after the conv stack
        writes its input gradient over relu2's output, so the model takes
        relu2's mask before that layer's backward and frees it after use.
        """
        cache1, cache2 = cache
        grads = {}
        g, grads["conv2_w"], grads["conv2_b"] = layers.conv1d_backward(cache2, grad)
        g = layers.relu_backward(cache2[0], g)  # conv2's input is relu1's output
        # nothing upstream of conv1 is trained, so its input gradient is skipped
        _, grads["conv1_w"], grads["conv1_b"] = layers.conv1d_backward(
            cache1, g, input_grad=False
        )
        return grads

    def forward(self, batch):
        """Predictions only: the LSTM keeps no backward cache."""
        pred, _ = self._forward(batch, keep_cache=False)
        return pred

    def forward_backward(self, batch, targets):
        """One differentiation pass: (predictions, loss, parameter grads)."""
        pred, cache = self._forward(batch, keep_cache=True)
        loss = layers.mse(targets, pred)
        grads = self._backward(cache, layers.mse_gradient(targets, pred))
        return pred, loss, grads

    def apply_gradients(self, grads, learning_rate):
        for name, grad in grads.items():
            layers.sgd_step(self.params[name], grad, learning_rate)  # in place

    def copy_params(self):
        return {name: value.copy() for name, value in self.params.items()}

    # -- checkpoint container -------------------------------------------

    def save(self, path):
        cfg = asdict(self.config)
        cfg["head_sizes"] = list(cfg["head_sizes"])
        header = json.dumps({"arch": self.arch, "config": cfg}, sort_keys=True).encode()
        with open(path, "wb") as fh:
            fh.write(MODEL_MAGIC)
            fh.write(struct.pack("<Q", len(header)))
            fh.write(header)
            fh.write(struct.pack("<I", len(self.params)))
            for name in sorted(self.params):
                arr = np.ascontiguousarray(self.params[name], dtype="<f8")
                raw = name.encode()
                fh.write(struct.pack("<H", len(raw)))
                fh.write(raw)
                fh.write(struct.pack("<B", arr.ndim))
                fh.write(struct.pack(f"<{arr.ndim}Q", *arr.shape))
                fh.write(arr)  # from the array's own buffer, with no bytes copy
            fh.write(struct.pack("<Qdd", self.epoch, self.lr, self.best_val_mse))


class LrcnModel(_RegressionNet):
    """Conv front end, LSTM over the conv sequence, dense head."""

    arch = "lrcn"

    @staticmethod
    def _head_input(config):
        return config.lstm_units

    @staticmethod
    def _extra_params(rng, config):
        scale = LSTM_INIT_SCALE
        shape_in = (config.conv2_channels, 4 * config.lstm_units)
        shape_rec = (config.lstm_units, 4 * config.lstm_units)
        bias = np.zeros(4 * config.lstm_units)
        bias[config.lstm_units : 2 * config.lstm_units] = LSTM_FORGET_BIAS
        return {
            "lstm_w_in": rng.uniform(-scale, scale, size=shape_in),
            "lstm_w_rec": rng.uniform(-scale, scale, size=shape_rec),
            "lstm_b": bias,
        }

    def _forward(self, batch, keep_cache):
        seq, conv_cache = self._conv_stack(batch, stride=self.config.sequence_stride)
        hidden, lstm_cache = layers.lstm_forward(
            seq, self.params["lstm_w_in"], self.params["lstm_w_rec"], self.params["lstm_b"],
            keep_cache=keep_cache,
        )
        pred, head_cache = _head_forward(self.params, len(self.config.head_sizes), hidden)
        # a list, so that _backward can drop the LSTM cache
        return pred, [conv_cache, seq, lstm_cache, head_cache]

    def _backward(self, cache, grad_pred):
        """Parameter gradients; the cache is consumed.

        The LSTM's input gradient is written over its input, relu2's output,
        whose mask is taken first: a training step keeps no second float
        array of the sequence's size.
        """
        conv_cache, seq, head_cache = cache[0], cache[1], cache[3]
        mask = seq > 0
        d_hidden, grads = _head_backward(head_cache, len(self.config.head_sizes), grad_pred)
        # popped, not named: the gate buffer, the pass's largest array, is
        # freed when lstm_backward returns, before the conv backward runs
        d_seq, grads["lstm_w_in"], grads["lstm_w_rec"], grads["lstm_b"] = (
            layers.lstm_backward(cache.pop(2), d_hidden, d_x=seq))
        layers.relu_backward(mask, d_seq)
        del mask  # freed before the conv backward
        grads.update(self._conv_stack_backward(conv_cache, d_seq))
        return grads


class CnnModel(_RegressionNet):
    """Same conv front end and head, with the sequence flattened instead."""

    arch = "cnn"

    @staticmethod
    def _head_input(config):
        return config.flatten_size

    @staticmethod
    def _extra_params(rng, config):
        return {}

    def _forward(self, batch, keep_cache):
        # no LSTM, so there is no cache to drop
        seq, conv_cache = self._conv_stack(batch)
        flat = seq.reshape(seq.shape[0], -1)
        pred, head_cache = _head_forward(self.params, len(self.config.head_sizes), flat)
        return pred, (conv_cache, seq, head_cache)

    def _backward(self, cache, grad_pred):
        """Parameter gradients; the cache is consumed.

        The head's input gradient is written over its input, the flattened
        view of relu2's output, whose mask is taken first: a training step
        keeps no second float array of the flatten width.
        """
        conv_cache, seq, head_cache = cache
        mask = seq > 0
        d_flat, grads = _head_backward(head_cache, len(self.config.head_sizes), grad_pred,
                                       d_x=seq.reshape(seq.shape[0], -1))
        d_seq = layers.relu_backward(mask, d_flat.reshape(seq.shape))
        del mask  # freed before the conv backward
        grads.update(self._conv_stack_backward(conv_cache, d_seq))
        return grads


_ARCHS = {"lrcn": LrcnModel, "cnn": CnnModel}


def make_model(arch, config):
    """Initialize a fresh model of the named architecture."""
    try:
        cls = _ARCHS[arch]
    except KeyError:
        raise ValueError(f"unknown architecture {arch!r}") from None
    return cls.initialize(config)


def fits_json_kind(default, value):
    """Whether the JSON ``value`` has the kind of the config ``default``.

    A float default takes any number, a list or tuple default a list whose
    items fit its first item, any other default a value of its own type; a
    boolean fits nothing.
    """
    if isinstance(value, bool):
        return False
    if isinstance(default, (list, tuple)):
        return isinstance(value, list) and all(fits_json_kind(default[0], v) for v in value)
    if isinstance(default, float):
        return isinstance(value, (int, float))
    return type(value) is type(default)


def _check_remaining(fh, n, what):
    """Reject a declared size of ``n`` bytes larger than what the seekable
    stream ``fh`` still holds, before anything is read."""
    here = fh.tell()
    if n > fh.seek(0, io.SEEK_END) - here:
        raise ValueError(f"checkpoint truncated in its {what}")
    fh.seek(here)


def _read_exact(fh, n, what):
    """The next ``n`` bytes of the seekable stream ``fh``."""
    _check_remaining(fh, n, what)
    return fh.read(n)


def read_checkpoint_header(fh):
    """Magic and JSON header (architecture, config) of a checkpoint stream.

    Rejects a header that is not a JSON object, names an unknown
    architecture, or holds a config key ``LrcnConfig`` does not have or a
    value of another JSON kind than that key's default.
    """
    magic = fh.read(len(MODEL_MAGIC))
    if magic != MODEL_MAGIC:
        raise ValueError(f"not a model checkpoint: bad magic {magic!r}")
    (header_len,) = struct.unpack("<Q", _read_exact(fh, 8, "header"))
    header = json.loads(_read_exact(fh, header_len, "header").decode())
    if not isinstance(header, dict):
        raise ValueError("checkpoint header is not a JSON object")
    if header.get("arch") not in tuple(_ARCHS):  # a tuple: no hashing of odd values
        raise ValueError(f"checkpoint names unknown architecture {header.get('arch')!r}")
    config = header.get("config")
    if not isinstance(config, dict):
        raise ValueError("checkpoint config is not a JSON object")
    defaults = {f.name: f.default for f in fields(LrcnConfig)}
    unknown = sorted(set(config) - set(defaults))
    if unknown:
        raise ValueError(f"checkpoint config has unknown keys {unknown}")
    mistyped = sorted(k for k, v in config.items() if not fits_json_kind(defaults[k], v))
    if mistyped:
        raise ValueError(f"checkpoint config has values of the wrong type for {mistyped}")
    return header


def read_checkpoint(fh):
    """Header, parameters and (epoch, lr, best_val_mse) of a checkpoint stream.

    Every declared size is checked against the bytes present: a stream that
    ends early, or holds anything after the training state, is rejected.
    Each parameter is read straight into its own new array.
    """
    header = read_checkpoint_header(fh)
    (n_params,) = struct.unpack("<I", _read_exact(fh, 4, "parameter count"))
    params = {}
    for _ in range(n_params):
        (name_len,) = struct.unpack("<H", _read_exact(fh, 2, "parameter table"))
        name = _read_exact(fh, name_len, "parameter table").decode()
        (ndim,) = struct.unpack("<B", _read_exact(fh, 1, "parameter table"))
        shape = struct.unpack(f"<{ndim}Q", _read_exact(fh, 8 * ndim, "parameter table"))
        what = f"parameter {name!r}"
        _check_remaining(fh, 8 * math.prod(shape), what)
        params[name] = np.empty(shape, dtype="<f8")
        if fh.readinto(params[name]) != params[name].nbytes:
            raise ValueError(f"checkpoint truncated in its {what}")
    trailer = struct.Struct("<Qdd")
    state = trailer.unpack(_read_exact(fh, trailer.size, "training state"))
    if fh.read(1):
        raise ValueError("checkpoint has trailing bytes after its training state")
    return header, params, state


def load_model(path):
    """Reload a checkpoint; forward passes match the saved model bit-exactly."""
    with open(path, "rb") as fh:
        header, params, (epoch, lr, best) = read_checkpoint(fh)
    cls = _ARCHS[header["arch"]]
    return cls(LrcnConfig(**header["config"]), params, epoch=epoch, lr=lr,
               best_val_mse=best)
