"""The three benchmark workloads: set-up, measured phase and output checks.

* ``corpus``: build the desk corpus (11 H x 20 amplitudes), serialize it and
  read it back, then train the flatten baseline for one epoch on it and
  predict the whole corpus from the reloaded checkpoint.
* ``train-lrcn`` / ``train-cnn``: set-up builds a 2 H x 20 amplitude corpus
  through the same serialize/read path; the measured phase trains the
  recurrent model at sequence stride 1 (or the flatten baseline), saves and
  reloads the checkpoint and predicts the whole corpus.

Iterations repeat while another one fits in the run's time budget, and
there are at least ``MIN_ITERATIONS`` of them.  A traced run makes exactly
``TRACED_ITERATIONS``, so its summed per-layer figures cover a fixed amount
of work.  Set-up runs at least ``SETUP_REPEATS`` times.  Timings are
reported as medians.
Epoch and prediction counts are sized so that an iteration takes a few
seconds and the workload's named layer dominates it.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from inertialab import InstabilityError, load_default_case
from inertialab.experiments import (
    CNN_BASELINE_LR,
    DatasetBuilder,
    DatasetSpec,
    GenerationError,
    TrainingDivergedError,
    desk_amplitude_grid,
    predict,
    split,
    train,
)
from inertialab.nn import LrcnConfig, load_model, make_model
from inertialab.signals import Dataset

SETUP_REPEATS = 3
MIN_ITERATIONS = {"corpus": 2, "train-lrcn": SETUP_REPEATS, "train-cnn": SETUP_REPEATS}
TRACED_ITERATIONS = {"corpus": 1, "train-lrcn": SETUP_REPEATS, "train-cnn": SETUP_REPEATS}
TRAIN_FRACTION = 0.8
# Relative allowance on recorded validation-MSE curves: admits the ulp-level
# drift of reordered float64 sums accumulated over a run's few updates, and
# nothing near the percent-level change a wrong gradient or layer produces.
CURVE_RTOL = 1e-8
REFERENCES = Path(__file__).with_name("references.json")

# arch, learning rate, epochs per train call, predictions per train call
TRAINING = {
    "corpus": ("cnn", CNN_BASELINE_LR, 1, 2),
    "train-lrcn": ("lrcn", LrcnConfig.learning_rate, 1, 1),
    "train-cnn": ("cnn", CNN_BASELINE_LR, 5, 10),
}


def corpus_spec(workload, seed):
    if workload == "corpus":
        return DatasetSpec(amplitudes=desk_amplitude_grid(), base_seed=seed)
    return DatasetSpec(h_values=(3.0, 8.0), amplitudes=desk_amplitude_grid(),
                       base_seed=seed)


@dataclass
class Run:
    """Samples, operation accounting and check outcomes of one run."""

    workload: str
    seed: int
    seconds: float
    tracer: object = None
    samples: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    observed: dict = field(default_factory=dict)

    def __post_init__(self):
        refs = json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}
        self.refs = refs
        self.seed_refs = refs.get("seeds", {}).get(str(self.seed), {}).get(
            self.workload, {})

    def span(self, name):
        return self.tracer.span(name) if self.tracer else nullcontext()

    def checking(self):
        return self.tracer.pause() if self.tracer else nullcontext()

    def expect(self, name, calls):
        if self.tracer:
            self.tracer.expect(name, calls)

    def add(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def ops(self, attempted, failed=0, what=None):
        self.attempted += attempted
        self.failed += failed
        if failed and what:
            self.problems.append(what)

    def check(self, name, ok):
        self.ops(1, 0 if ok else 1, f"check failed: {name}")

    def check_recorded(self, name, value, matches=None):
        """Compare with the value recorded for this seed, if there is one."""
        self.observed[name] = value
        if name in self.seed_refs:
            ref = self.seed_refs[name]
            self.check(name, matches(value, ref) if matches else value == ref)


def _curve_matches(curve, ref):
    return len(curve) == len(ref) and all(
        abs(a - b) <= CURVE_RTOL * abs(b) for a, b in zip(curve, ref)
    )


def _same_dataset(a, b):
    return (
        a.tensors.tobytes() == b.tensors.tobytes()
        and a.labels.tobytes() == b.labels.tobytes()
        and a.stats.minima.tobytes() == b.stats.minima.tobytes()
        and a.stats.maxima.tobytes() == b.stats.maxima.tobytes()
        and (a.features, tuple(a.window), a.snr_db, a.n_buses)
        == (b.features, tuple(b.window), b.snr_db, b.n_buses)
    )


# -- phases ------------------------------------------------------------------


def build_corpus(run, grid, spec):
    """Simulate, condition, serialize and read back one corpus.

    Returns (seconds, dataset read back from bytes), or None when the
    simulation failed.
    """
    n_traj = spec.n_samples
    builder = DatasetBuilder(grid, spec)
    started = time.perf_counter()
    try:
        dataset = builder.build()
        with run.span("signals.serialize"):
            blob = dataset.to_bytes()
        with run.span("signals.load"):
            back = Dataset.from_bytes(blob)
    except (GenerationError, InstabilityError) as exc:
        run.ops(n_traj, n_traj, f"corpus build failed: {exc}")
        return None
    seconds = time.perf_counter() - started
    run.ops(n_traj)
    if run.tracer:
        run.tracer.count("signals.dataset_bytes", len(blob))
    n_h = len(spec.h_values)
    for name, calls in (
        ("grid.scale_to_target_inertia", n_h),
        ("grid.build_reduced_network", n_h),
        ("dynamics.clean_records", 1),
        ("signals.resample_record", n_traj),
        ("signals.add_noise", n_traj),
        ("signals.extract_window", n_traj),
        ("signals.assemble_features", n_traj),
        ("signals.compute_normalization", 1),
        ("signals.apply_normalization", 1),
        ("signals.serialize", 1),
        ("signals.load", 1),
    ):
        run.expect(name, calls)

    with run.checking():
        run.check("dataset round trip", _same_dataset(dataset, back)
                  and back.to_bytes() == blob)
        key = "desk" if run.workload == "corpus" else "training"
        fingerprint = builder.clean_fingerprint()
        recorded = run.refs.get("clean_fingerprint", {})
        run.observed[f"clean_fingerprint.{key}"] = fingerprint
        if key in recorded:
            run.check("clean fingerprint", fingerprint == recorded[key])
        run.check_recorded("dataset_sha256", hashlib.sha256(blob).hexdigest())
    return seconds, back


def _expect_passes(run, arch, config, forward, backward):
    """Expected layer spans for ``forward`` + ``backward`` net passes."""
    passes = forward + backward
    hidden = len(config.head_sizes)
    for layer in ("nn.conv1", "nn.conv2"):
        run.expect(f"{layer}.fwd", passes)
        run.expect(f"{layer}.bwd", backward)
    run.expect("nn.relu.fwd", (2 + hidden) * passes)
    run.expect("nn.relu.bwd", (2 + hidden) * backward)
    run.expect("nn.dense.fwd", (hidden + 1) * passes)
    run.expect("nn.dense.bwd", (hidden + 1) * backward)
    if arch == "lrcn":
        run.expect("nn.lstm.fwd", passes)
        run.expect("nn.lstm.bwd", backward)
    run.expect("nn.model.forward", forward)
    run.expect("nn.model.forward_backward", backward)


def _chunks(n, batch):
    return -(-n // batch)


def train_and_predict(run, dataset, tmp, reference):
    """One measured repetition: train, checkpoint round trip, predict.

    ``reference`` holds the first repetition's outputs; later repetitions
    must reproduce them bit for bit.
    """
    arch, lr, epochs, predictions = TRAINING[run.workload]
    config = LrcnConfig(seed=run.seed, learning_rate=lr)
    train_set, val_set = split(dataset, TRAIN_FRACTION, run.seed)
    batches = epochs * _chunks(len(train_set), config.batch_size)
    try:
        started = time.perf_counter()
        with run.span("experiments.train"):
            model, report = train(config, train_set, val_set, epochs, run.seed, arch)
        train_s = time.perf_counter() - started
    except (TrainingDivergedError, FloatingPointError) as exc:
        run.ops(batches, batches, f"training failed: {exc}")
        return
    run.ops(batches)
    run.add("train_samples_per_s", epochs * len(train_set) / train_s)

    path = Path(tmp) / "model.bin"
    with run.span("nn.checkpoint.save"):
        model.save(path)
    with run.span("nn.checkpoint.load"):
        loaded = load_model(path)
    outputs = []
    for _ in range(predictions):
        started = time.perf_counter()
        outputs.append(predict(loaded, dataset))
        run.add("predict_samples_per_s", len(dataset) / (time.perf_counter() - started))

    val_chunks = _chunks(len(val_set), config.batch_size)
    n_params = len(model.params)
    _expect_passes(run, arch, config,
                   (epochs + 1) * val_chunks
                   + predictions * _chunks(len(dataset), config.batch_size),
                   batches)
    for name, calls in (
        ("experiments.train", 1),
        ("experiments.predict", epochs + 1),
        ("nn.model.apply_gradients", batches),
        ("nn.sgd", batches * n_params),
        ("nn.loss.mse", batches + epochs + 1),
        ("nn.loss.mse_gradient", batches),
        ("nn.checkpoint.save", 1),
        ("nn.checkpoint.load", 1),
    ):
        run.expect(name, calls)

    with run.checking():
        curve = [float(v) for v in report.val_curve]
        run.check("finite losses", all(
            math.isfinite(v) for v in curve + list(report.train_curve)))
        if not reference:
            reference["curve"] = curve
            reference["predictions"] = predict(model, dataset)
        run.check("repeat reproduces curve", curve == reference["curve"])
        expected = reference["predictions"].tobytes()
        run.check("reloaded predictions bit-exact",
                  all(out.tobytes() == expected for out in outputs))
        run.check_recorded("val_curve", curve, _curve_matches)


def set_up(run, spec):
    """Case load, training corpus and model initialization, timed.

    Returns (grid, dataset read back from bytes or None), or None when the
    corpus simulation failed.
    """
    arch, lr, _, _ = TRAINING[run.workload]
    started = time.perf_counter()
    grid = load_default_case()
    if run.workload == "corpus":
        DatasetBuilder(grid, spec)
        dataset = None
    else:
        built = build_corpus(run, grid, spec)
        if built is None:
            return None
        run.add("corpus_traj_per_s", spec.n_samples / built[0])
        dataset = built[1]
        make_model(arch, LrcnConfig(seed=run.seed, learning_rate=lr))
    run.add("setup_body_s", time.perf_counter() - started)
    return grid, dataset


def iterate(run, spec, grid, tmp, reference):
    """One iteration: set-up on ``train-*``, then the measured phase.

    Its data is local, so nothing outlives the iteration to raise the peak
    memory of the next one.  On ``corpus`` the peak is read right after the
    first corpus build, before the flatten-baseline arm raises it.  Returns
    False when a corpus build failed.
    """
    if run.workload == "corpus":
        built = build_corpus(run, grid, spec)
        if built is None:
            return False
        run.add("corpus_traj_per_s", spec.n_samples / built[0])
        if "peak_rss_mb" not in run.samples:
            run.add("peak_rss_mb", _peak_rss_mb())
        dataset = built[1]
    else:
        setup = set_up(run, spec)
        if setup is None:
            return False
        dataset = setup[1]
    train_and_predict(run, dataset, tmp, reference)
    return True


def run_workload(run, root):
    """Set up, measure and check ``run.workload``; fills ``run.samples``.

    Iterations repeat while another one fits in ``run.seconds``; a traced
    run makes exactly ``TRACED_ITERATIONS``.  On the ``train-*`` workloads each
    iteration sets up afresh, so set-up and measured samples interleave over
    the run; the corpus workload's set-up is cheap and is repeated
    ``SETUP_REPEATS`` times up front.
    """
    spec = corpus_spec(run.workload, run.seed)
    corpus = run.workload == "corpus"
    grid = None
    for _ in range(SETUP_REPEATS if corpus else 0):
        grid = set_up(run, spec)[0]
    minimum = (TRACED_ITERATIONS if run.tracer else MIN_ITERATIONS)[run.workload]
    reference = {}
    walls = []
    with tempfile.TemporaryDirectory(prefix=".bench_tmp-", dir=root) as tmp:
        started = time.perf_counter()
        while True:
            t = time.perf_counter()
            if not iterate(run, spec, grid, tmp, reference):
                break
            walls.append(time.perf_counter() - t)
            if len(walls) >= minimum and (
                    run.tracer or time.perf_counter() - started
                    + statistics.median(walls) > run.seconds):
                break
    if not corpus:
        run.add("peak_rss_mb", _peak_rss_mb())


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def record_references(run):
    """Store the values this run observed as the references of its seed."""
    refs = run.refs
    for name, value in run.observed.items():
        if name.startswith("clean_fingerprint."):
            refs.setdefault("clean_fingerprint", {})[name.split(".", 1)[1]] = value
        else:
            seeds = refs.setdefault("seeds", {})
            seeds.setdefault(str(run.seed), {}).setdefault(run.workload, {})[name] = value
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
