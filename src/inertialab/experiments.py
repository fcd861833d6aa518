"""Study orchestration: dataset synthesis, training runs and comparisons.

The corpus is built over a grid of (system inertia, probe amplitude) cells.
For each cell the grid is rescaled to the target inertia, reduced, simulated
under the probe, resampled to the analysis rate, noised with a per-cell
seed, windowed and flattened; the label is the system inertia constant in
seconds.  Training minimizes mean squared error with plain gradient descent
and a halve-on-plateau learning-rate schedule, and reports MSE, the
coefficient of determination and the fraction of estimates within 10 % of
the true label.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .checks import integer_at_least
from .dynamics import (
    InstabilityError,
    PmuRecordSet,
    ProbingSignal,
    SimConfig,
    _integrate_rows,
)
from .grid import build_reduced_network, scale_to_target_inertia
from .nn import layers
from .nn.model import make_model
from .nn.schedule import ReduceLrOnPlateau
from .signals import (
    Dataset,
    Feature,
    FeatureSet,
    add_noise,
    apply_normalization,
    assemble_features,
    compute_normalization,
    extract_window,
    resample_record,
)

__all__ = [
    "DatasetSpec",
    "Metrics",
    "TrainReport",
    "TrainingDivergedError",
    "InputMismatchError",
    "GenerationError",
    "DatasetBuilder",
    "SubsetScorer",
    "SelectionResult",
    "TrainPlan",
    "CNN_BASELINE_LR",
    "default_h_grid",
    "paper_amplitude_grid",
    "desk_amplitude_grid",
    "split",
    "train",
    "train_arms",
    "predict",
    "metrics_from_predictions",
    "wrapper_feature_selection",
    "exhaustive_subset_scores",
    "sha256_hex",
]


def default_h_grid():
    """Label sweep: 3.0 s to 8.0 s in 0.5 s steps (11 values)."""
    return tuple(3.0 + 0.5 * i for i in range(11))


def paper_amplitude_grid():
    """100 probe amplitudes, 0.0001 to 0.0100 p.u. in 0.0001 steps."""
    return tuple(k / 10000.0 for k in range(1, 101))


def desk_amplitude_grid():
    """Reduced 20-value grid for quick runs, 0.0005 to 0.0100 p.u."""
    return tuple(k / 2000.0 for k in range(1, 21))


class GenerationError(RuntimeError):
    """A dataset cell failed to simulate; carries the offending indices."""

    def __init__(self, h_index, amp_index, cause):
        self.h_index = h_index
        self.amp_index = amp_index
        super().__init__(
            f"simulation failed at H index {h_index}, amplitude index {amp_index}: {cause}"
        )


class InputMismatchError(ValueError):
    """A dataset's tensor length is not the model's input length."""


class TrainingDivergedError(RuntimeError):
    """A loss, or a value entering a layer, became non-finite during training.

    ``batch`` is -1 for the epoch's validation pass; ``cause`` names what
    went non-finite, such as the layer of a :class:`FloatingPointError`.
    """

    def __init__(self, epoch, batch, cause="non-finite loss"):
        self.epoch = epoch
        self.batch = batch
        super().__init__(f"{cause} at epoch {epoch}, batch {batch}")


@dataclass(frozen=True)
class DatasetSpec:
    """Corpus layout: label grid, probe amplitudes and conditioning knobs."""

    h_values: tuple = field(default_factory=default_h_grid)
    amplitudes: tuple = field(default_factory=paper_amplitude_grid)
    window: tuple = (0.0, 1.0)
    snr_db: float = 60.0
    features: FeatureSet = FeatureSet((Feature.SPEED, Feature.ROCOF))
    base_seed: int = 0
    target_rate: float = 200.0
    probe: ProbingSignal = ProbingSignal()
    sim: SimConfig = SimConfig()

    def __post_init__(self):
        for name in ("h_values", "amplitudes", "window"):
            object.__setattr__(self, name, tuple(getattr(self, name)))
        object.__setattr__(self, "features", FeatureSet(self.features))
        if len(self.window) != 2 or not 0 <= self.window[0] < self.window[1] <= self.sim.t_end:
            raise ValueError(f"window needs 0 <= start < stop <= sim t_end, got {self.window}")
        if not 0 < self.target_rate <= self.sim.pmu_rate:  # NaN fails either bound
            raise ValueError(f"target_rate must be in (0, sim pmu_rate], got {self.target_rate}")
        for name in ("h_values", "amplitudes"):
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")
        if not all(0 <= a < math.inf for a in self.amplitudes):  # NaN fails too
            raise ValueError(f"amplitudes must be finite and >= 0, got {list(self.amplitudes)}")
        if not -math.inf < self.snr_db <= math.inf:  # +inf turns noise off; NaN fails
            raise ValueError(f"snr_db must be a number or +inf, got {self.snr_db}")
        if self.snr_db < math.inf and (0 in self.amplitudes or self.probe.start >= self.sim.t_end):
            raise ValueError("a finite snr_db scales noise to each record's power, so amplitudes "
                             "must be > 0 and the probe start must lie before sim t_end")
        object.__setattr__(self, "base_seed", integer_at_least("base_seed", self.base_seed, 0))

    @property
    def n_samples(self):
        return len(self.h_values) * len(self.amplitudes)


def sha256_hex(data):
    return hashlib.sha256(data).hexdigest()


def _cell_seed(base_seed, h_index, amp_index):
    """Stable per-cell noise seed; independent of generation order."""
    ss = np.random.SeedSequence((int(base_seed), int(h_index), int(amp_index)))
    return int(ss.generate_state(1, np.uint32)[0])


# Bytes of full-rate float64 sample buffers one simulation block may hold.
_BLOCK_BYTES = 64 << 20


def _check_only_inertia_differs(nets):
    """Raise unless the reduced networks agree in everything but inertia."""
    for net in nets[1:]:
        for f in fields(net):
            if f.name != "inertia" and not np.array_equal(
                getattr(net, f.name), getattr(nets[0], f.name)
            ):
                raise ValueError(
                    f"reduced networks differ in {f.name} across H values; "
                    "only inertia may vary"
                )


class DatasetBuilder:
    """Caches the expensive simulation stage behind dataset variations.

    Clean (pre-noise) records depend only on the grid, the probe timing and
    the label/amplitude grids, so they are simulated once and reused across
    feature sets, windows and noise levels; that keeps comparative studies
    controlled, with every arm consuming identical (H, amplitude, seed)
    triples.  Only these clean records are cached; each build noises them
    anew.  ``transform`` is applied to each clean resampled record and exists
    to build control corpora (e.g. replacing a channel with noise).  A
    probe's injection bus must host a generator.

    Inertia scaling changes only the swing coefficients of the reduced
    network, so all cells share one RK4 loop per block of whole H groups,
    with the inertia carried per row.  The block's samples go into one
    full-rate float64 [row, channel, bus, sample] buffer; a block holds as
    many H groups as fit into ``_BLOCK_BYTES`` and always at least one.
    The buffer is allocated once and reused for every block: each row is
    wrapped as a :class:`PmuRecordSet` view, resampled (and transformed)
    before the next block overwrites it, so no full-rate record outlives
    its block.
    """

    def __init__(self, grid, spec, transform=None):
        probe = spec.probe
        if probe.injection_bus is None:
            probe = replace(probe, injection_bus=grid.highest_load_generator_bus())
        elif probe.injection_bus not in grid.generator_buses:
            raise ValueError(f"probe injection_bus {probe.injection_bus} hosts no generator; "
                             f"the generator buses are {list(grid.generator_buses)}")
        self.grid = grid
        self.spec = replace(spec, probe=probe)
        self.transform = transform
        self._clean = None

    def clean_records(self):
        """Resampled (and transformed) clean records in (H, amplitude) order.

        See the class docstring for the block rule.  An unstable trajectory
        raises :class:`GenerationError` with its cell indices; a block
        reports the row that first exceeds 1 p.u., at the earliest sample
        instant across the whole block, so with several unstable H values
        in one block it need not name the first of them in H order.
        """
        if self._clean is not None:
            return self._clean
        spec = self.spec
        monitored = tuple(self.grid.monitored_buses)
        nets = [
            build_reduced_network(scale_to_target_inertia(self.grid, h_target))
            for h_target in spec.h_values
        ]
        _check_only_inertia_differs(nets)
        n_amp = len(spec.amplitudes)
        row_shape = (len(PmuRecordSet.CHANNELS), len(monitored), spec.sim.n_samples)
        group_bytes = 8 * n_amp * math.prod(row_shape)
        per_block = max(1, min(len(nets), _BLOCK_BYTES // max(group_bytes, 1)))
        buffer = np.empty((per_block * n_amp, *row_shape))
        records = []
        for first in range(0, len(nets), per_block):
            block = nets[first : first + per_block]
            rows = len(block) * n_amp
            inertia = np.repeat([net.inertia for net in block], n_amp, axis=0)
            try:
                _integrate_rows(block[0], spec.probe, spec.sim, inertia,
                                spec.amplitudes * len(block), monitored, buffer[:rows])
            except InstabilityError as exc:
                offset, ai = divmod(exc.trajectory, n_amp)
                raise GenerationError(first + offset, ai, exc) from exc
            for row in range(rows):
                hi, ai = first + row // n_amp, row % n_amp
                rec = PmuRecordSet(
                    rate=float(spec.sim.pmu_rate),
                    bus_ids=monitored,
                    channels=buffer[row],
                    h_sys=spec.h_values[hi],
                    seed=_cell_seed(spec.base_seed, hi, ai),
                )
                rec = resample_record(rec, spec.target_rate)
                if self.transform is not None:
                    rec = self.transform(rec)
                records.append(rec)
        self._clean = records
        return records

    def clean_fingerprint(self):
        """Digest of the clean record payload (pre-noise, post-resample)."""
        digest = hashlib.sha256()
        for rec in self.clean_records():
            digest.update(rec.channels.tobytes())
        return digest.hexdigest()

    def build(self, features=None, snr_db=None, window=None):
        """Assemble a normalized dataset for the given conditioning choice.

        Each clean record is noised from its cell seed on its way to a row.
        """
        spec = self.spec
        features = FeatureSet(spec.features if features is None else features)
        snr_db = spec.snr_db if snr_db is None else float(snr_db)
        window = spec.window if window is None else tuple(window)

        records = self.clean_records()
        raw = np.stack([
            assemble_features(extract_window(add_noise(rec, snr_db, rec.seed), *window), features)
            for rec in records
        ])
        n_buses = len(self.grid.monitored_buses)
        stats = compute_normalization(raw, len(features) * n_buses)
        return Dataset(
            tensors=apply_normalization(raw, stats),
            labels=np.array([rec.h_sys for rec in records]),
            features=features,
            window=window,
            snr_db=snr_db,
            n_buses=n_buses,
            stats=stats,
        )


def split(dataset, train_fraction, seed):
    """Seeded shuffle-and-partition into train and validation subsets, neither empty."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train fraction must be in (0, 1), got {train_fraction}")
    n = len(dataset)
    n_train = round(train_fraction * n)
    if not 0 < n_train < n:
        raise ValueError(f"train_fraction {train_fraction} leaves an empty training or "
                         f"validation split of {n} samples")
    perm = np.random.default_rng(seed).permutation(n)
    return dataset.subset(perm[:n_train]), dataset.subset(perm[n_train:])


@dataclass(frozen=True)
class Metrics:
    mse: float
    r2: float
    acc10: float


def metrics_from_predictions(labels, predictions):
    """MSE, coefficient of determination and 10 %-tolerance accuracy.

    The accuracy tolerance is relative to the true label and inclusive at
    the boundary.  With constant labels the coefficient of determination is
    undefined and reported as NaN.
    """
    labels = np.asarray(labels, dtype=np.float64)
    predictions = np.asarray(predictions, dtype=np.float64)
    mse_value = layers.mse(labels, predictions)
    ss_tot = float(np.sum((labels - labels.mean()) ** 2))
    if ss_tot == 0.0:
        r2 = float("nan")
    else:
        r2 = 1.0 - float(np.sum((labels - predictions) ** 2)) / ss_tot
    accurate = np.abs(predictions - labels) <= 0.10 * np.abs(labels)
    return Metrics(mse=mse_value, r2=r2, acc10=float(np.mean(accurate)))


def predict(model, dataset):
    """Model predictions over a dataset, evaluated in training-size chunks
    of its float32 rows, which the model widens as they enter its conv stack."""
    if dataset.tensor_length != model.config.input_len:
        raise InputMismatchError(
            f"model expects length {model.config.input_len}, "
            f"dataset provides {dataset.tensor_length}"
        )
    chunk = model.config.batch_size
    parts = [
        model.forward(dataset.tensors[i : i + chunk])
        for i in range(0, len(dataset), chunk)
    ]
    return np.concatenate(parts)


@dataclass
class TrainReport:
    arch: str
    epochs: int
    train_curve: tuple
    val_curve: tuple
    lr_trace: tuple
    metrics: Metrics
    val_predictions: np.ndarray  # not saved; metrics are computed from it
    best_epoch: int
    best_val_mse: float
    dataset_fingerprint: str

    def curve_rows(self):
        """Per-epoch ``(epoch, train_mse, val_mse, lr)`` rows."""
        return list(zip(itertools.count(1), self.train_curve, self.val_curve, self.lr_trace))

    def save(self, path, stamp):
        """Write the report; ``stamp`` is the run's config-fingerprint line."""
        from . import plots  # here, so importing this module for a corpus build skips it

        lines = [
            "INERTIA-REPORT v1",
            f"arch {self.arch}",
            f"epochs {self.epochs}",
            f"best_epoch {self.best_epoch}",
            f"best_val_mse {self.best_val_mse!r}",
            stamp,
            f"dataset_fingerprint {self.dataset_fingerprint}",
            f"final_mse {self.metrics.mse!r}",
            f"final_r2 {self.metrics.r2!r}",
            f"final_acc10 {self.metrics.acc10!r}",
            "[CURVES]",
            "epoch,train_mse,val_mse,lr",
        ]
        lines += [plots.csv_row(row) for row in self.curve_rows()]
        lines.append("[END]")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


# Overflow is caught where it matters: check_finite and the loss test turn any
# non-finite value into TrainingDivergedError, so numpy's warnings are noise.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def train(config, train_set, val_set, epochs, seed, arch):
    """Gradient-descent training with the plateau schedule.

    Per epoch: seeded shuffle, fixed-size batches (the trailing short batch
    is kept), forward, MSE, backprop, plain descent update; then one
    validation pass drives the learning-rate schedule.  The parameters of
    the best validation epoch are retained on the returned model.  An
    improving epoch that is not the last is copied into one snapshot,
    allocated at the first such epoch and then overwritten in place.  So a
    single-epoch run copies nothing, and a run whose last improving epoch is
    its final one returns the trained parameters themselves.  The model's
    ``input_len`` is the tensor length of ``train_set``, whatever ``config``
    holds.  A non-finite loss, or a non-finite value entering any layer,
    raises :class:`TrainingDivergedError`.
    """
    if len(train_set) and config.batch_size > len(train_set):
        raise ValueError("batch size exceeds training-set size")
    config = replace(config, input_len=train_set.tensor_length)
    model = make_model(arch, config)
    schedule = ReduceLrOnPlateau(
        lr=config.learning_rate,
        factor=config.lr_factor,
        patience=config.lr_patience,
        min_lr=config.lr_min,
        threshold=config.lr_threshold,
    )
    rng = np.random.default_rng(seed)
    n = len(train_set)
    lr = config.learning_rate
    best_val = math.inf
    best_epoch = 0
    best_params = None
    train_curve, val_curve, lr_trace = [], [], []

    for epoch in range(1, epochs + 1):
        perm = rng.permutation(n)
        squared_sum = 0.0
        try:
            for batch_no, start in enumerate(range(0, n, config.batch_size), start=1):
                idx = perm[start : start + config.batch_size]
                _, loss, grads = model.forward_backward(
                    train_set.tensors[idx], train_set.labels[idx]
                )
                if not math.isfinite(loss):
                    raise TrainingDivergedError(epoch, batch_no)
                model.apply_gradients(grads, lr)
                squared_sum += loss * len(idx)
            batch_no = -1
            val_mse = layers.mse(val_set.labels, predict(model, val_set))
        except FloatingPointError as exc:  # check_finite names the layer
            raise TrainingDivergedError(epoch, batch_no, str(exc)) from exc
        if not math.isfinite(val_mse):
            raise TrainingDivergedError(epoch, -1)
        if val_mse < best_val:
            best_val = val_mse
            best_epoch = epoch
            if epoch < epochs and best_params is None:  # updates follow
                best_params = model.copy_params()
            elif epoch < epochs:
                for name, value in model.params.items():
                    np.copyto(best_params[name], value)
        lr = schedule.update(val_mse)
        train_curve.append(squared_sum / n)
        val_curve.append(val_mse)
        lr_trace.append(lr)

    if best_epoch and best_epoch != epochs:  # updates ran after the best epoch
        model.params = best_params
    model.epoch = epochs
    model.lr = lr
    model.best_val_mse = best_val if epochs else float("nan")
    val_predictions = predict(model, val_set)
    report = TrainReport(
        arch=arch,
        epochs=epochs,
        train_curve=tuple(train_curve),
        val_curve=tuple(val_curve),
        lr_trace=tuple(lr_trace),
        metrics=metrics_from_predictions(val_set.labels, val_predictions),
        val_predictions=val_predictions,
        best_epoch=best_epoch,
        best_val_mse=model.best_val_mse,
        dataset_fingerprint=sha256_hex(train_set.to_bytes()),
    )
    return model, report


# Plain descent on the flatten baseline is only stable at a rate roughly
# inversely proportional to its 79,960-wide head input; the recurrent model
# tolerates (and needs) a much larger one, so each architecture trains at
# its own stable default.
CNN_BASELINE_LR = 1e-4


@dataclass(frozen=True)
class TrainPlan:
    """How every training run splits its data and trains.

    ``arch`` is the architecture trained when no other is named;
    ``cnn_learning_rate`` replaces the model config's rate whenever the
    flatten baseline trains.  ``snr_levels`` are the noise levels a
    robustness study compares; each is a number or ``+inf`` (no noise).
    """

    epochs: int = 200
    arch: str = "lrcn"
    train_fraction: float = 0.8
    split_seed: int = 0
    train_seed: int = 0
    snr_levels: tuple = (60.0, 45.0)
    cnn_learning_rate: float = CNN_BASELINE_LR

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:  # NaN fails too
            raise ValueError(f"train_fraction must be in (0, 1), got {self.train_fraction}")
        for name in ("epochs", "split_seed", "train_seed"):
            object.__setattr__(self, name, integer_at_least(name, getattr(self, name), 0))
        if not self.cnn_learning_rate > 0:  # NaN fails too
            raise ValueError(f"cnn_learning_rate must be > 0, got {self.cnn_learning_rate}")
        object.__setattr__(self, "snr_levels", tuple(float(s) for s in self.snr_levels))
        if not all(-math.inf < s <= math.inf for s in self.snr_levels):  # NaN fails
            raise ValueError(f"snr_levels must be numbers or +inf, got {list(self.snr_levels)}")

    def fit(self, config, dataset, arch=None):
        """Split ``dataset`` and train ``arch`` (the plan's by default) on it.

        Returns the model, its :class:`TrainReport` and the validation split.
        """
        arch = arch or self.arch
        if arch == "cnn":
            config = replace(config, learning_rate=self.cnn_learning_rate)
        train_set, val_set = split(dataset, self.train_fraction, self.split_seed)
        model, report = train(config, train_set, val_set, self.epochs, self.train_seed, arch)
        return model, report, val_set


def train_arms(plan, config, arms, archs):
    """``(label, arch, report)`` for each architecture fitted on each arm.

    ``arms`` yields ``(label, dataset)`` pairs; a generator keeps one
    arm's dataset alive at a time.
    """
    return [(label, arch, plan.fit(config, dataset, arch)[1])
            for label, dataset in arms for arch in archs]


# -- wrapper feature selection ------------------------------------------


class SubsetScorer:
    """Memoized validation score of a feature subset under one training plan.

    Each subset's dataset is built by ``builder`` and fitted by ``plan`` at
    ``config``; the score is its acc10.  ``memo`` maps every scored subset,
    as a frozenset, to its score.
    """

    def __init__(self, builder, config, plan):
        self.builder = builder
        self.config = config
        self.plan = plan
        self.memo = {}

    def score(self, subset):
        key = frozenset(subset)
        if key not in self.memo:
            dataset = self.builder.build(features=FeatureSet(subset))
            self.memo[key] = self.plan.fit(self.config, dataset)[1].metrics.acc10
        return self.memo[key]


@dataclass
class SelectionResult:
    selected: FeatureSet
    rounds: tuple  # per round: {feature name: candidate-set acc10}


def wrapper_feature_selection(scorer, candidates=None):
    """Greedy forward selection driven by validation 10 %-accuracy.

    Starting from the empty set, each round adds the candidate whose
    inclusion maximizes the ``scorer``'s validation accuracy (canonical
    feature order breaks ties) and stops when no addition strictly improves
    the score.
    """
    candidates = sorted(candidates if candidates is not None else list(Feature))
    if not candidates:
        raise ValueError("need at least one candidate feature")

    current = []
    current_score = -math.inf
    rounds = []
    while True:
        remaining = [f for f in candidates if f not in current]
        if not remaining:
            break
        round_scores = {}
        best_feature = None
        best_score = current_score
        for feature in remaining:  # canonical order: strict > keeps the first max
            value = scorer.score(tuple(current + [feature]))
            round_scores[feature.channel] = value
            if value > best_score:
                best_feature, best_score = feature, value
        rounds.append(round_scores)
        if best_feature is None:
            break
        current.append(best_feature)
        current.sort()
        current_score = best_score
    return SelectionResult(selected=FeatureSet(current), rounds=tuple(rounds))


def exhaustive_subset_scores(scorer):
    """Score every non-empty feature subset (brute-force oracle)."""
    candidates = sorted(Feature)
    out = {}
    for size in range(1, len(candidates) + 1):
        for combo in itertools.combinations(candidates, size):
            out[frozenset(combo)] = scorer.score(combo)
    return out
