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
from dataclasses import dataclass, field, replace

import numpy as np

from .dynamics import (
    InstabilityError,
    PmuRecordSet,
    ProbingSignal,
    SimConfig,
    _integrate_amplitudes,
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
    "generate_dataset",
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
    """Loss became non-finite during training."""

    def __init__(self, epoch, batch):
        self.epoch = epoch
        self.batch = batch
        super().__init__(f"non-finite loss at epoch {epoch}, batch {batch}")


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


class DatasetBuilder:
    """Caches the expensive simulation stage behind dataset variations.

    Clean (pre-noise) records depend only on the grid, the probe timing and
    the label/amplitude grids, so they are simulated once and reused across
    feature sets, windows and noise levels; that keeps comparative studies
    controlled, with every arm consuming identical (H, amplitude, seed)
    triples.  ``transform`` is applied to each clean resampled record and
    exists to build control corpora (e.g. replacing a channel with noise).
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
        if self._clean is not None:
            return self._clean
        spec = self.spec
        records = []
        for hi, h_target in enumerate(spec.h_values):
            scaled = scale_to_target_inertia(self.grid, h_target)
            net = build_reduced_network(scaled)
            try:
                speed, rocof, angle = _integrate_amplitudes(
                    net,
                    spec.probe,
                    spec.sim,
                    spec.amplitudes,
                    monitored=self.grid.monitored_buses,
                )
            except InstabilityError as exc:
                raise GenerationError(hi, exc.trajectory, exc) from exc
            for ai, amp in enumerate(spec.amplitudes):
                rec = PmuRecordSet(
                    rate=float(spec.sim.pmu_rate),
                    bus_ids=tuple(self.grid.monitored_buses),
                    speed=speed[ai],
                    rocof=rocof[ai],
                    angle=angle[ai],
                    h_sys=h_target,
                    probe_amplitude=amp,
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
            amplitudes=np.array([rec.probe_amplitude for rec in records]),
        )


def generate_dataset(grid, spec):
    """Simulate the full (inertia, amplitude) grid into a training corpus."""
    return DatasetBuilder(grid, spec).build()


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

    @classmethod
    def load(cls, path):
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.rstrip("\n") for ln in fh]
        if not lines or lines[0] != "INERTIA-REPORT v1":
            raise ValueError("not a train report file")
        kv = {}
        idx = 1
        while idx < len(lines) and lines[idx] != "[CURVES]":
            key, _, value = lines[idx].partition(" ")
            kv[key] = value
            idx += 1
        curves = []
        for ln in lines[idx + 2 :]:
            if ln == "[END]":
                break
            _, tr, va, lr = ln.split(",")
            curves.append((float(tr), float(va), float(lr)))
        return cls(
            arch=kv["arch"],
            epochs=int(kv["epochs"]),
            train_curve=tuple(c[0] for c in curves),
            val_curve=tuple(c[1] for c in curves),
            lr_trace=tuple(c[2] for c in curves),
            metrics=Metrics(
                mse=float(kv["final_mse"]),
                r2=float(kv["final_r2"]),
                acc10=float(kv["final_acc10"]),
            ),
            best_epoch=int(kv["best_epoch"]),
            best_val_mse=float(kv["best_val_mse"]),
            wall_clock=float(kv["wall_clock_s"]),
            config_fingerprint=kv["config_fingerprint"],
            dataset_fingerprint=kv["dataset_fingerprint"],
        )


def train(config, train_set, val_set, epochs, seed=0, arch="lrcn"):
    """Gradient-descent training with the plateau schedule.

    Per epoch: seeded shuffle, fixed-size batches (the trailing short batch
    is kept), forward, MSE, backprop, plain descent update; then one
    validation pass drives the learning-rate schedule.  The parameters of
    the best validation epoch are retained on the returned model.
    """
    if len(train_set) and config.batch_size > len(train_set):
        raise ValueError("batch size exceeds training-set size")
    if train_set.tensor_length != config.input_len:
        raise ValueError(
            f"config input_len {config.input_len} does not match "
            f"tensor length {train_set.tensor_length}"
        )
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
        for batch_no, start in enumerate(range(0, n, config.batch_size), start=1):
            idx = perm[start : start + config.batch_size]
            _, loss, grads = model.forward_backward(
                train_set.tensors[idx], train_set.labels[idx]
            )
            if not math.isfinite(loss):
                raise TrainingDivergedError(epoch, batch_no)
            model.apply_gradients(grads, lr)
            squared_sum += loss * len(idx)
        val_mse = layers.mse(val_set.labels, predict(model, val_set))
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
    """Memoized validation score of a feature subset under fixed seeds."""

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
            config = replace(self.config, input_len=dataset.tensor_length)
            _, report = train(
                config, train_set, val_set, self.epochs, self.train_seed, self.arch
            )
            self._memo[key] = report.metrics.acc10
        return self._memo[key]


@dataclass
class SelectionResult:
    selected: FeatureSet
    rounds: tuple  # per round: {feature name: candidate-set acc10}
    scores: dict  # frozenset of Feature -> acc10, every evaluated subset


def wrapper_feature_selection(builder, config, epochs, split_seed=0, train_seed=0,
                              candidates=None, scorer=None, snr_db=None, window=None,
                              train_fraction=0.8):
    """Greedy forward selection driven by validation 10 %-accuracy.

    Starting from the empty set, each round adds the candidate whose
    inclusion maximizes validation accuracy (canonical feature order breaks
    ties) and stops when no addition strictly improves the score.
    """
    candidates = sorted(candidates if candidates is not None else list(Feature))
    if not candidates:
        raise ValueError("need at least one candidate feature")
    if scorer is None:
        scorer = SubsetScorer(builder, config, epochs, split_seed, train_seed,
                              train_fraction)

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


def exhaustive_subset_scores(builder, config, epochs, split_seed=0, train_seed=0,
                             candidates=None, scorer=None, snr_db=None, window=None):
    """Score every non-empty candidate subset (brute-force oracle)."""
    candidates = sorted(candidates if candidates is not None else list(Feature))
    if scorer is None:
        scorer = SubsetScorer(builder, config, epochs, split_seed, train_seed)
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
    selections: dict | None = None  # snr_db -> SelectionResult


def compare_time_windows(grid, spec, config, epochs, split_seed=0, train_seed=0,
                         arch="lrcn", windows=((0.0, 1.0), (0.5, 1.5)),
                         builder=None, train_fraction=0.8):
    """Train identical models on two feature windows of the same records."""
    builder = builder or DatasetBuilder(grid, spec)
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


def compare_models(grid, spec, config, epochs, split_seed=0, train_seed=0,
                   archs=("lrcn", "cnn"), builder=None, arch_configs=None,
                   train_fraction=0.8):
    """Train the recurrent and flatten baselines on one shared dataset."""
    builder = builder or DatasetBuilder(grid, spec)
    arch_configs = arch_configs or configs_by_arch(config, archs)
    dataset = builder.build()
    fingerprint = sha256_hex(dataset.to_bytes())
    train_set, val_set = split(dataset, train_fraction, split_seed)
    reports = {}
    for arch in archs:
        _, report = train(arch_configs[arch], train_set, val_set, epochs,
                          train_seed, arch)
        reports[arch] = report
    return ModelComparison(reports=reports, dataset_fingerprint=fingerprint)


def snr_robustness_study(grid, spec, config, epochs, snr_levels=(60.0, 45.0),
                         split_seed=0, train_seed=0, archs=("lrcn", "cnn"),
                         run_feature_selection=False, builder=None,
                         arch_configs=None, train_fraction=0.8):
    """Measure degradation under noise, reusing one set of clean records."""
    if not snr_levels:
        raise ValueError("need at least one SNR level")
    builder = builder or DatasetBuilder(grid, spec)
    arch_configs = arch_configs or configs_by_arch(config, archs)
    rows = []
    selections = {} if run_feature_selection else None
    for snr_db in snr_levels:
        dataset = builder.build(snr_db=snr_db)
        fingerprint = sha256_hex(dataset.to_bytes())
        train_set, val_set = split(dataset, train_fraction, split_seed)
        for arch in archs:
            _, report = train(arch_configs[arch], train_set, val_set, epochs,
                              train_seed, arch)
            rows.append((float(snr_db), arch, report.metrics, fingerprint))
        if run_feature_selection:
            selections[float(snr_db)] = wrapper_feature_selection(
                builder, config, epochs, split_seed, train_seed, snr_db=snr_db,
                train_fraction=train_fraction,
            )
    return SnrStudy(
        rows=tuple(rows),
        clean_fingerprint=builder.clean_fingerprint(),
        selections=selections,
    )
