"""Outside-in span recorder for the traced benchmark run.

Spans are recorded around calls into the package's public functions by
replacing each function where the calling module looks it up (for example
``experiments.resample_record`` or ``layers.lstm_forward``).  Nothing in the
package itself is modified on disk.  Spans stay in memory until the run
ends; a span's self time is its duration minus the time its child spans
cover.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

_CONV = {"valid": "nn.conv1", "same": "nn.conv2"}


class Tracer:
    """In-memory spans ``[name, start_ns, end_ns, parent]`` plus counters."""

    def __init__(self):
        self.spans = []
        self.counters = Counter()
        self.expected = Counter()
        self.paused = False
        self._stack = []
        self._patched = []

    @contextmanager
    def span(self, name):
        if self.paused:
            yield
            return
        record = [name, time.perf_counter_ns(), None,
                  self._stack[-1] if self._stack else None]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self._stack.pop()
            record[2] = time.perf_counter_ns()

    @contextmanager
    def pause(self):
        """Leave output checks out of the trace."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def count(self, name, amount):
        if not self.paused:
            self.counters[name] += amount

    def expect(self, name, calls):
        self.expected[name] += calls

    # -- wrapping ---------------------------------------------------------

    def wrap(self, owner, attr, name, account=None):
        """Replace ``owner.attr`` by a spanned call.

        ``name`` is a span name or a function of the call's arguments;
        ``account(args, result)`` adds computed counts after the call.
        """
        original = getattr(owner, attr)

        def spanned(*args, **kwargs):
            label = name if isinstance(name, str) else name(args)
            with self.span(label):
                result = original(*args, **kwargs)
            if account is not None:
                account(self, args, result)
            return result

        setattr(owner, attr, spanned)
        self._patched.append((owner, attr, original))

    def install(self):
        from inertialab import experiments
        from inertialab.nn import layers, model

        ex = experiments
        for attr in ("scale_to_target_inertia", "build_reduced_network"):
            self.wrap(ex, attr, f"grid.{attr}", _count_grid)
        self.wrap(ex.DatasetBuilder, "clean_records", "dynamics.clean_records",
                  _count_traj_steps)
        for attr in ("resample_record", "add_noise", "extract_window",
                     "assemble_features", "compute_normalization",
                     "apply_normalization", "predict"):
            module = "experiments" if attr == "predict" else "signals"
            self.wrap(ex, attr, f"{module}.{attr}")

        self.wrap(layers, "conv1d_forward", lambda a: _CONV[a[3]] + ".fwd",
                  _count_conv_fwd)
        self.wrap(layers, "conv1d_backward", lambda a: _CONV[a[0][2]] + ".bwd",
                  _count_conv_bwd)
        self.wrap(layers, "relu_forward", "nn.relu.fwd")
        self.wrap(layers, "relu_backward", "nn.relu.bwd")
        self.wrap(layers, "lstm_forward", "nn.lstm.fwd", _count_lstm_fwd)
        self.wrap(layers, "lstm_backward", "nn.lstm.bwd", _count_lstm_bwd)
        self.wrap(layers, "dense_forward", "nn.dense.fwd", _count_dense_fwd)
        self.wrap(layers, "dense_backward", "nn.dense.bwd", _count_dense_bwd)
        self.wrap(layers, "mse", "nn.loss.mse")
        self.wrap(layers, "mse_gradient", "nn.loss.mse_gradient")
        self.wrap(layers, "sgd_step", "nn.sgd", _count_sgd)
        net = model._RegressionNet
        for attr in ("forward", "forward_backward"):
            self.wrap(net, attr, f"nn.model.{attr}", _count_batch)
        self.wrap(net, "apply_gradients", "nn.model.apply_gradients")

    def uninstall(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- reduction --------------------------------------------------------

    def self_times(self):
        """Self seconds and call count per span name."""
        child_ns = defaultdict(int)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        seconds = defaultdict(float)
        calls = Counter()
        for idx, (name, start, end, _) in enumerate(self.spans):
            seconds[name] += (end - start - child_ns[idx]) * 1e-9
            calls[name] += 1
        return seconds, calls

    def durations(self, name):
        return [(e - s) * 1e-9 for n, s, e, _ in self.spans if n == name]

    def completeness_errors(self):
        """Span names whose call count differs from the count expected."""
        _, calls = self.self_times()
        names = set(self.expected) | set(calls)
        return [
            f"{n}: {calls[n]} calls, expected {self.expected[n]}"
            for n in sorted(names)
            if calls[n] != self.expected[n]
        ]


# Per-layer metric -> span names whose self time it sums.
TIME_GROUPS = {
    "grid.reduce_s": ("grid.scale_to_target_inertia", "grid.build_reduced_network"),
    "dynamics.simulate_s": ("dynamics.clean_records",),
    "signals.resample_s": ("signals.resample_record",),
    "signals.noise_s": ("signals.add_noise",),
    "signals.window_s": ("signals.extract_window", "signals.assemble_features"),
    "signals.normalize_s": ("signals.compute_normalization",
                            "signals.apply_normalization"),
    "signals.serialize_s": ("signals.serialize",),
    "signals.load_s": ("signals.load",),
    "nn.conv1.fwd_s": ("nn.conv1.fwd",),
    "nn.conv1.bwd_s": ("nn.conv1.bwd",),
    "nn.conv2.fwd_s": ("nn.conv2.fwd",),
    "nn.conv2.bwd_s": ("nn.conv2.bwd",),
    "nn.relu.fwd_s": ("nn.relu.fwd",),
    "nn.relu.bwd_s": ("nn.relu.bwd",),
    "nn.lstm.fwd_s": ("nn.lstm.fwd",),
    "nn.lstm.bwd_s": ("nn.lstm.bwd",),
    "nn.dense.fwd_s": ("nn.dense.fwd",),
    "nn.dense.bwd_s": ("nn.dense.bwd",),
    "nn.loss_s": ("nn.loss.mse", "nn.loss.mse_gradient"),
    "nn.sgd_s": ("nn.sgd",),
    "nn.model.self_s": ("nn.model.forward", "nn.model.forward_backward",
                        "nn.model.apply_gradients"),
    "nn.checkpoint.save_s": ("nn.checkpoint.save",),
    "nn.checkpoint.load_s": ("nn.checkpoint.load",),
    "experiments.train.self_s": ("experiments.train",),
}
COUNTERS = ("grid.reduce_calls", "dynamics.traj_steps", "signals.dataset_bytes",
            "nn.conv.flops", "nn.lstm.flops", "nn.dense.flops", "nn.sgd.bytes",
            "nn.batches")


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith(".flops"):
        return "flop"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith("ns_per_traj_step"):
        return "ns"
    return "count"


def layer_metrics(tracer):
    """Per-layer metric name -> value, summed over the traced run."""
    seconds, _ = tracer.self_times()
    out = {
        metric: sum(seconds[n] for n in names) for metric, names in TIME_GROUPS.items()
    }
    out.update({name: tracer.counters[name] for name in COUNTERS})
    steps = tracer.counters["dynamics.traj_steps"]
    out["dynamics.ns_per_traj_step"] = (
        out["dynamics.simulate_s"] * 1e9 / steps if steps else 0.0
    )
    out["trace.spans"] = len(tracer.spans)
    return out


# -- computed counts -------------------------------------------------------


def _count_grid(tracer, args, result):
    tracer.count("grid.reduce_calls", 1)


def _count_traj_steps(tracer, args, result):
    spec = args[0].spec
    steps = (spec.sim.n_samples - 1) * spec.sim.steps_per_sample
    tracer.count("dynamics.traj_steps", spec.n_samples * steps)


def _count_conv_fwd(tracer, args, result):
    out = result[0]
    c_out, c_in, k = args[1].shape
    tracer.count("nn.conv.flops", 2 * out.shape[0] * out.shape[1] * c_out * c_in * k)


def _count_conv_bwd(tracer, args, result):
    cache, grad = args
    c_out, c_in, k = cache[1].shape
    # d_kernels and d_input each cost one forward's multiply-adds
    tracer.count("nn.conv.flops", 4 * grad.shape[0] * grad.shape[1] * c_out * c_in * k)


def _lstm_gemm_flops(x, w_rec):
    b, t_steps, d = x.shape
    units = w_rec.shape[0]
    return 2 * b * t_steps * (d + units) * 4 * units


def _count_lstm_fwd(tracer, args, result):
    tracer.count("nn.lstm.flops", _lstm_gemm_flops(args[0], args[2]))


def _count_lstm_bwd(tracer, args, result):
    cache = args[0]
    tracer.count("nn.lstm.flops", 2 * _lstm_gemm_flops(cache[0], cache[2]))


def _count_dense_fwd(tracer, args, result):
    x, weights = args[0], args[1]
    tracer.count("nn.dense.flops", 2 * x.shape[0] * weights.size)


def _count_dense_bwd(tracer, args, result):
    x, weights = args[0]
    tracer.count("nn.dense.flops", 4 * x.shape[0] * weights.size)


def _count_sgd(tracer, args, result):
    # read weights and gradient, write the update, all float64
    tracer.count("nn.sgd.bytes", 3 * 8 * result.size)


def _count_batch(tracer, args, result):
    tracer.count("nn.batches", 1)
