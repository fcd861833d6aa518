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
import json
import math
import time
import warnings
from dataclasses import dataclass, field, fields, replace

import numpy as np

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
    "GenerationError",
    "DatasetBuilder",
    "SubsetScorer",
    "SelectionResult",
    "WindowComparison",
    "ModelComparison",
    "SnrStudy",
    "CNN_BASELINE_LR",
    "configs_by_arch",
    "default_h_grid",
    "paper_amplitude_grid",
    "desk_amplitude_grid",
    "split",
    "train",
    "predict",
    "evaluate",
    "metrics_from_predictions",
    "wrapper_feature_selection",
    "exhaustive_subset_scores",
    "compare_time_windows",
    "compare_models",
    "snr_robustness_study",
    "sha256_hex",
    "config_fingerprint",
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
        if len(self.window) != 2:
            raise ValueError(f"window needs (start, stop), got {self.window}")
        for name in ("h_values", "amplitudes"):
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")
        if not all(0 <= a < math.inf for a in self.amplitudes):  # NaN fails too
            raise ValueError(f"amplitudes must be finite and >= 0, got {list(self.amplitudes)}")

    @property
    def n_samples(self):
        return len(self.h_values) * len(self.amplitudes)


def sha256_hex(data):
    return hashlib.sha256(data).hexdigest()


def config_fingerprint(arch, config, epochs, train_seed, split_seed=None):
    payload = {
        "arch": arch,
        "config": {
            k: (list(v) if isinstance(v, tuple) else v)
            for k, v in vars(config).items()
        },
        "epochs": epochs,
        "train_seed": train_seed,
        "split_seed": split_seed,
    }
    return sha256_hex(json.dumps(payload, sort_keys=True).encode())


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
    triples.  ``transform`` is applied to each clean resampled record and
    exists to build control corpora (e.g. replacing a channel with noise).

    Inertia scaling changes only the swing coefficients of the reduced
    network, so all cells share one RK4 loop per block of whole H groups,
    with the inertia carried per row.  A block holds as many H groups as
    fit their three full-rate float64 channel buffers into ``_BLOCK_BYTES``
    and always at least one.  The buffers are allocated once and reused
    for every block: each row is wrapped as a :class:`PmuRecordSet` view,
    resampled (and transformed) before the next block overwrites it, so no
    full-rate record outlives its block.
    """

    def __init__(self, grid, spec, transform=None):
        probe = spec.probe
        if probe.injection_bus is None:
            probe = replace(probe, injection_bus=grid.highest_load_generator_bus())
        self.grid = grid
        self.spec = replace(spec, probe=probe)
        self.transform = transform
        self._clean = None
        self._noisy = {}

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
        group_bytes = 3 * 8 * n_amp * len(monitored) * spec.sim.n_samples
        per_block = max(1, min(len(nets), _BLOCK_BYTES // max(group_bytes, 1)))
        buffers = [
            np.empty((per_block * n_amp, len(monitored), spec.sim.n_samples))
            for _ in PmuRecordSet.CHANNELS
        ]
        records = []
        for first in range(0, len(nets), per_block):
            block = nets[first : first + per_block]
            rows = len(block) * n_amp
            out = [buf[:rows] for buf in buffers]
            inertia = np.repeat([net.inertia for net in block], n_amp, axis=0)
            try:
                _integrate_rows(block[0], spec.probe, spec.sim, inertia,
                                spec.amplitudes * len(block), monitored, out)
            except InstabilityError as exc:
                offset, ai = divmod(exc.trajectory, n_amp)
                raise GenerationError(first + offset, ai, exc) from exc
            speed, rocof, angle = out
            for row in range(rows):
                hi, ai = first + row // n_amp, row % n_amp
                rec = PmuRecordSet(
                    rate=float(spec.sim.pmu_rate),
                    bus_ids=monitored,
                    speed=speed[row],
                    rocof=rocof[row],
                    angle=angle[row],
                    h_sys=spec.h_values[hi],
                    probe_amplitude=spec.amplitudes[ai],
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
            for name in rec.CHANNELS:
                digest.update(np.ascontiguousarray(rec.channel(name)).tobytes())
        return digest.hexdigest()

    def noisy_records(self, snr_db):
        key = float(snr_db)
        if key not in self._noisy:
            self._noisy[key] = [
                add_noise(rec, snr_db, rec.seed) for rec in self.clean_records()
            ]
        return self._noisy[key]

    def build(self, features=None, snr_db=None, window=None):
        """Assemble a normalized dataset for the given conditioning choice."""
        spec = self.spec
        features = spec.features if features is None else features
        if not isinstance(features, FeatureSet):
            features = FeatureSet(features)
        snr_db = spec.snr_db if snr_db is None else float(snr_db)
        window = spec.window if window is None else tuple(window)

        records = self.noisy_records(snr_db)
        raw = np.stack(
            [
                assemble_features(extract_window(rec, *window), features)
                for rec in records
            ]
        )
        n_buses = len(self.grid.monitored_buses)
        stats = compute_normalization(raw, len(features) * n_buses)
        tensors = apply_normalization(raw, stats)
        tensors = tensors.astype(np.float32).astype(np.float64)
        return Dataset(
            tensors=tensors,
            labels=np.array([rec.h_sys for rec in records]),
            features=features,
            window=window,
            snr_db=snr_db,
            n_buses=n_buses,
            stats=stats,
        )


def split(dataset, train_fraction=0.8, seed=0):
    """Seeded shuffle-and-partition into train and validation subsets."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train fraction must be in (0, 1), got {train_fraction}")
    n = len(dataset)
    if n < 2:
        raise ValueError("need at least 2 samples to split")
    perm = np.random.default_rng(seed).permutation(n)
    n_train = round(train_fraction * n)
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
    undefined and reported as NaN with a warning.
    """
    labels = np.asarray(labels, dtype=np.float64)
    predictions = np.asarray(predictions, dtype=np.float64)
    mse_value = layers.mse(labels, predictions)
    ss_tot = float(np.sum((labels - labels.mean()) ** 2))
    if ss_tot == 0.0:
        warnings.warn("constant labels: coefficient of determination undefined")
        r2 = float("nan")
    else:
        r2 = 1.0 - float(np.sum((labels - predictions) ** 2)) / ss_tot
    accurate = np.abs(predictions - labels) <= 0.10 * np.abs(labels)
    return Metrics(mse=mse_value, r2=r2, acc10=float(np.mean(accurate)))


def predict(model, dataset):
    """Model predictions over a dataset, evaluated in training-size chunks."""
    if dataset.tensor_length != model.config.input_len:
        raise ValueError(
            f"model expects length {model.config.input_len}, "
            f"dataset provides {dataset.tensor_length}"
        )
    chunk = model.config.batch_size
    parts = [
        model.forward(dataset.tensors[i : i + chunk])
        for i in range(0, len(dataset), chunk)
    ]
    return np.concatenate(parts)


def evaluate(model, dataset):
    return metrics_from_predictions(dataset.labels, predict(model, dataset))


@dataclass
class TrainReport:
    arch: str
    epochs: int
    train_curve: tuple
    val_curve: tuple
    lr_trace: tuple
    metrics: Metrics
    best_epoch: int
    best_val_mse: float
    wall_clock: float
    config_fingerprint: str
    dataset_fingerprint: str

    def save(self, path):
        lines = [
            "INERTIA-REPORT v1",
            f"arch {self.arch}",
            f"epochs {self.epochs}",
            f"best_epoch {self.best_epoch}",
            f"best_val_mse {self.best_val_mse!r}",
            f"wall_clock_s {self.wall_clock!r}",
            f"config_fingerprint {self.config_fingerprint}",
            f"dataset_fingerprint {self.dataset_fingerprint}",
            f"final_mse {self.metrics.mse!r}",
            f"final_r2 {self.metrics.r2!r}",
            f"final_acc10 {self.metrics.acc10!r}",
            "[CURVES]",
            "epoch,train_mse,val_mse,lr",
        ]
        for i, (tr, va, lr) in enumerate(
            zip(self.train_curve, self.val_curve, self.lr_trace), start=1
        ):
            lines.append(f"{i},{tr!r},{va!r},{lr!r}")
        lines.append("[END]")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")


def train(config, train_set, val_set, epochs, seed=0, arch="lrcn"):
    """Gradient-descent training with the plateau schedule.

    Per epoch: seeded shuffle, fixed-size batches (the trailing short batch
    is kept), forward, MSE, backprop, plain descent update; then one
    validation pass drives the learning-rate schedule.  The parameters of
    the best validation epoch are retained on the returned model.  The
    model's ``input_len`` is the tensor length of ``train_set``, whatever
    ``config`` holds.  A non-finite loss, or a non-finite value entering any
    layer, raises :class:`TrainingDivergedError`.
    """
    if len(train_set) and config.batch_size > len(train_set):
        raise ValueError("batch size exceeds training-set size")
    config = replace(config, input_len=train_set.tensor_length)
    started = time.perf_counter()
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
    best_params = model.copy_params()
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
            best_params = model.copy_params()
        lr = schedule.update(val_mse)
        train_curve.append(squared_sum / n)
        val_curve.append(val_mse)
        lr_trace.append(lr)

    model.params = best_params
    model.epoch = epochs
    model.lr = lr
    model.best_val_mse = best_val if epochs else float("nan")
    report = TrainReport(
        arch=arch,
        epochs=epochs,
        train_curve=tuple(train_curve),
        val_curve=tuple(val_curve),
        lr_trace=tuple(lr_trace),
        metrics=evaluate(model, val_set),
        best_epoch=best_epoch,
        best_val_mse=model.best_val_mse,
        wall_clock=time.perf_counter() - started,
        config_fingerprint=config_fingerprint(arch, config, epochs, seed),
        dataset_fingerprint=sha256_hex(train_set.to_bytes()),
    )
    return model, report


# -- wrapper feature selection ------------------------------------------


class SubsetScorer:
    """Memoized validation score of a feature subset under fixed seeds.

    Each subset's dataset is built by ``builder``, split, and trains an
    ``arch`` model at ``config`` for ``epochs``; the score is its acc10.
    """

    def __init__(self, builder, config, epochs, split_seed=0, train_seed=0,
                 train_fraction=0.8, arch="lrcn"):
        self.builder = builder
        self.config = config
        self.epochs = epochs
        self.split_seed = split_seed
        self.train_seed = train_seed
        self.train_fraction = train_fraction
        self.arch = arch
        self._memo = {}

    def score(self, subset, snr_db=None, window=None):
        key = (frozenset(subset), snr_db, window)
        if key not in self._memo:
            features = FeatureSet(subset)
            dataset = self.builder.build(features=features, snr_db=snr_db, window=window)
            train_set, val_set = split(dataset, self.train_fraction, self.split_seed)
            _, report = train(
                self.config, train_set, val_set, self.epochs, self.train_seed, self.arch
            )
            self._memo[key] = report.metrics.acc10
        return self._memo[key]


@dataclass
class SelectionResult:
    selected: FeatureSet
    rounds: tuple  # per round: {feature name: candidate-set acc10}
    scores: dict  # frozenset of Feature -> acc10, every evaluated subset


def wrapper_feature_selection(scorer, candidates=None, snr_db=None, window=None):
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
            value = scorer.score(tuple(current + [feature]), snr_db, window)
            round_scores[feature.channel] = value
            if value > best_score:
                best_feature, best_score = feature, value
        rounds.append(round_scores)
        if best_feature is None:
            break
        current.append(best_feature)
        current.sort()
        current_score = best_score
    return SelectionResult(
        selected=FeatureSet(current),
        rounds=tuple(rounds),
        scores={key[0]: val for key, val in scorer._memo.items()},
    )


def exhaustive_subset_scores(scorer, candidates=None, snr_db=None, window=None):
    """Score every non-empty candidate subset (brute-force oracle)."""
    candidates = sorted(candidates if candidates is not None else list(Feature))
    out = {}
    for size in range(1, len(candidates) + 1):
        for combo in itertools.combinations(candidates, size):
            out[frozenset(combo)] = scorer.score(combo, snr_db, window)
    return out


# -- comparative studies --------------------------------------------------

@dataclass
class WindowComparison:
    reports: dict  # window tuple -> TrainReport
    clean_fingerprint: str


@dataclass
class ModelComparison:
    reports: dict  # arch -> TrainReport
    dataset_fingerprint: str


@dataclass
class SnrStudy:
    rows: tuple  # (snr_db, arch, Metrics, dataset fingerprint)
    clean_fingerprint: str


def compare_time_windows(grid, spec, config, epochs, split_seed=0, train_seed=0,
                         arch="lrcn", windows=((0.0, 1.0), (0.5, 1.5)),
                         train_fraction=0.8):
    """Train identical models on two feature windows of the same records."""
    builder = DatasetBuilder(grid, spec)
    reports = {}
    for window in windows:
        dataset = builder.build(window=window)
        train_set, val_set = split(dataset, train_fraction, split_seed)
        _, report = train(config, train_set, val_set, epochs, train_seed, arch)
        reports[tuple(window)] = report
    return WindowComparison(reports=reports, clean_fingerprint=builder.clean_fingerprint())


# Plain descent on the flatten baseline is only stable at a rate roughly
# inversely proportional to its 79,960-wide head input; the recurrent model
# tolerates (and needs) a much larger one, so comparisons train each
# architecture at its own stable default.
CNN_BASELINE_LR = 1e-4


def configs_by_arch(config, archs=("lrcn", "cnn"), cnn_learning_rate=CNN_BASELINE_LR):
    """Per-architecture training configs sharing everything but the rate."""
    out = {}
    for arch in archs:
        if arch == "cnn":
            out[arch] = replace(config, learning_rate=cnn_learning_rate)
        else:
            out[arch] = config
    return out


def compare_models(grid, spec, configs, epochs, split_seed=0, train_seed=0,
                   train_fraction=0.8):
    """Train each architecture of ``configs`` (arch -> config) on one dataset."""
    dataset = DatasetBuilder(grid, spec).build()
    fingerprint = sha256_hex(dataset.to_bytes())
    train_set, val_set = split(dataset, train_fraction, split_seed)
    reports = {}
    for arch, config in configs.items():
        _, reports[arch] = train(config, train_set, val_set, epochs, train_seed, arch)
    return ModelComparison(reports=reports, dataset_fingerprint=fingerprint)


def snr_robustness_study(grid, spec, configs, epochs, snr_levels=(60.0, 45.0),
                         split_seed=0, train_seed=0, train_fraction=0.8):
    """Measure degradation under noise, reusing one set of clean records.

    ``configs`` maps each architecture to train at every level to its config.
    """
    if not snr_levels:
        raise ValueError("need at least one SNR level")
    builder = DatasetBuilder(grid, spec)
    rows = []
    for snr_db in snr_levels:
        dataset = builder.build(snr_db=snr_db)
        fingerprint = sha256_hex(dataset.to_bytes())
        train_set, val_set = split(dataset, train_fraction, split_seed)
        for arch, config in configs.items():
            _, report = train(config, train_set, val_set, epochs, train_seed, arch)
            rows.append((float(snr_db), arch, report.metrics, fingerprint))
    return SnrStudy(rows=tuple(rows), clean_fingerprint=builder.clean_fingerprint())
