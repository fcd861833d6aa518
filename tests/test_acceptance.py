"""Acceptance gate: one test per criterion, one printed verdict line each.

The heavy fixtures (desk-scale corpus and training arms, selection oracle)
are module-scoped and shared across criteria.  Criterion numbering follows
the project acceptance list; every tolerance is pinned here.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from inertialab.dynamics import PmuRecordSet, ProbingSignal, SimConfig, integrate
from inertialab.experiments import (
    DatasetBuilder,
    DatasetSpec,
    SubsetScorer,
    TrainPlan,
    desk_amplitude_grid,
    exhaustive_subset_scores,
    metrics_from_predictions,
    paper_amplitude_grid,
    split,
    train,
    wrapper_feature_selection,
    CNN_BASELINE_LR,
)
from inertialab.grid import build_reduced_network, load_default_case, scale_to_target_inertia
from inertialab.nn import layers
from inertialab.nn.gradcheck import max_relative_error, numeric_gradient
from inertialab.nn.model import LrcnConfig, make_model
from inertialab.nn.schedule import ReduceLrOnPlateau
from inertialab.signals import (
    Feature,
    FeatureSet,
    add_noise,
    apply_normalization,
    compute_normalization,
    measured_snr,
    replace_with_noise,
)

H_SWEEP = tuple(3.0 + 0.5 * i for i in range(11))


def _verdict(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number:>2}: {status} - {detail}")
    assert ok, f"criterion {number}: {detail}"


# -- shared fixtures -------------------------------------------------------


@pytest.fixture(scope="module")
def grid():
    return load_default_case()


@pytest.fixture(scope="module")
def desk_arms(grid):
    """Desk-scale end-to-end runs shared by criterion 8(a)-(d).

    One simulated record set feeds four training arms: the base recurrent
    run, the shifted window, the noisier corpus and the flatten baseline.
    """
    spec = DatasetSpec(amplitudes=desk_amplitude_grid())
    builder = DatasetBuilder(grid, spec)
    config = LrcnConfig(input_len=4000, sequence_stride=8, seed=0)
    cnn_config = replace(config, learning_rate=CNN_BASELINE_LR)

    def run(dataset, cfg, arch):
        train_set, val_set = split(dataset, 0.8, seed=0)
        _, report = train(cfg, train_set, val_set, epochs=60, seed=0, arch=arch)
        return report

    started = time.perf_counter()
    base_dataset = builder.build()
    arms = {
        "base": run(base_dataset, config, "lrcn"),
        "late_window": run(builder.build(window=(0.5, 1.5)), config, "lrcn"),
        "noisy": run(builder.build(snr_db=45.0), config, "lrcn"),
        "cnn": run(base_dataset, cnn_config, "cnn"),
    }
    arms["wall_clock"] = time.perf_counter() - started
    return arms


# -- criteria --------------------------------------------------------------


def test_criterion_01_structural_fidelity():
    config = LrcnConfig()
    ok = (
        config.flatten_size == 79_960
        and config.input_len == 4000
        and config.batch_size == 32
        and config.lstm_units == 32
    )
    _verdict(1, ok, (
        f"conv stack emits {config.flatten_size} elements, input {config.input_len}, "
        f"batch {config.batch_size}, lstm {config.lstm_units}"
    ))


def test_criterion_02_gradient_suite():
    """Layer and end-to-end gradients vs central differences (1e-4, 20 trials).

    The detailed per-layer checks live in tests/test_nn_gradients.py and run
    with this suite; here a compact end-to-end pass over both architectures
    confirms the whole stack within the same tolerance.
    """
    started = time.perf_counter()
    worst = 0.0
    for arch in ("lrcn", "cnn"):
        for trial in range(20):
            config = LrcnConfig(
                input_len=40, conv1_channels=2, conv2_channels=2, lstm_units=3,
                head_sizes=(4, 2), batch_size=2, seed=trial, sequence_stride=5,
            )
            model = make_model(arch, config)
            rng = np.random.default_rng(900 + trial)
            batch = rng.uniform(0.2, 0.8, size=(2, 40))
            targets = rng.uniform(3.0, 8.0, size=2)
            _, _, grads = model.forward_backward(batch, targets)
            for name in ("conv1_w", "out_w", "lstm_w_in") if arch == "lrcn" else ("conv1_w", "out_w"):
                original = model.params[name]

                def loss(values, _name=name):
                    model.params[_name] = values
                    out = layers.mse(targets, model.forward(batch))
                    model.params[_name] = original
                    return out

                err = max_relative_error(
                    grads[name], numeric_gradient(loss, original.copy()), floor=1e-5
                )
                worst = max(worst, err)
    elapsed = time.perf_counter() - started
    ok = worst < 1e-4 and elapsed < 120.0
    _verdict(2, ok, f"worst relative error {worst:.2e} in {elapsed:.0f}s (limit 1e-4, 120s)")


def test_criterion_03_dynamics_oracle():
    from inertialab.grid import ReducedNetwork

    started = time.perf_counter()
    net = ReducedNetwork(
        buses=(1,),
        coupling=np.zeros((1, 1)),
        inertia=np.array([7.0]),
        damping=np.array([1.3]),
        injections=np.zeros(1),
    )
    probe = ProbingSignal(amplitude=0.001, injection_bus=1, duration=2.0)
    cfg = SimConfig(t_end=1.5)
    rec = integrate(net, probe, cfg)
    t = np.arange(rec.n_samples) / rec.rate
    from inertialab.dynamics import single_machine_response

    ref = single_machine_response(7.0, 1.3, 0.001, t)
    worst = float(np.abs(rec.channels[Feature.SPEED, 0] - ref).max())

    silent = integrate(net, ProbingSignal(amplitude=0.0, injection_bus=1), cfg)
    quiescent = bool(np.all(silent.channels == 0.0))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-6 and quiescent and elapsed < 10.0
    _verdict(3, ok, (
        f"closed-form deviation {worst:.2e} p.u. (limit 1e-6), "
        f"zero-probe quiescent={quiescent}, {elapsed:.1f}s"
    ))


def test_criterion_04_monotone_inertia_signal(grid):
    started = time.perf_counter()
    # sustained probe: no turn-off transient inside the record, so the peak
    # is the onset value at the injection bus and must fall as 1/m
    probe = ProbingSignal(amplitude=0.001, injection_bus=18, duration=2.0)
    cfg = SimConfig(t_end=1.5)
    peaks = []
    onset = []
    for h_target in H_SWEEP:
        net = build_reduced_network(scale_to_target_inertia(grid, h_target))
        rec = integrate(net, probe, cfg, monitored=grid.monitored_buses)
        rocof = rec.channels[Feature.ROCOF]
        peaks.append(float(np.abs(rocof).max()))
        onset.append(abs(float(rocof[rec.bus_ids.index(18), 0])))
    strictly_decreasing = all(a > b for a, b in zip(peaks, peaks[1:]))
    onset_decreasing = all(a > b for a, b in zip(onset, onset[1:]))
    elapsed = time.perf_counter() - started
    ok = strictly_decreasing and onset_decreasing and elapsed < 60.0
    _verdict(4, ok, (
        f"peak |rocof| strictly decreasing over {len(H_SWEEP)} inertia values "
        f"({peaks[0]:.2e} -> {peaks[-1]:.2e}), {elapsed:.0f}s"
    ))


def test_criterion_05_noise_calibration():
    rng = np.random.default_rng(42)
    n = 20_000
    rec = PmuRecordSet(
        rate=200.0,
        bus_ids=(1,),
        channels=np.stack([rng.normal(0.0, sd, (1, n)) for sd in (1e-4, 1e-3, 1e-2)]),
    )
    deviations = []
    for snr_db in (45.0, 60.0):
        noisy = add_noise(rec, snr_db, seed=7)
        for i in range(len(PmuRecordSet.CHANNELS)):
            observed = measured_snr(rec.channels[i, 0], noisy.channels[i, 0])
            deviations.append(abs(observed - snr_db))
    snr_ok = max(deviations) <= 0.5

    batch = rng.normal(size=(64, 3 * 50))
    normalized = apply_normalization(batch, compute_normalization(batch, n_channels=3))
    view = normalized.reshape(64, 3, 50)
    range_ok = all(
        view[:, c, :].min() == 0.0 and view[:, c, :].max() == 1.0 for c in range(3)
    )
    ok = snr_ok and range_ok
    _verdict(5, ok, (
        f"worst SNR deviation {max(deviations):.3f} dB (limit 0.5), "
        f"exact [0,1] range per channel={range_ok}"
    ))


def test_criterion_06_dataset_contract(grid):
    started = time.perf_counter()
    spec = DatasetSpec(amplitudes=paper_amplitude_grid(), base_seed=3)
    first = DatasetBuilder(grid, spec).build()
    blob_a = first.to_bytes()
    train_set, val_set = split(first, 0.8, seed=3)
    blob_b = DatasetBuilder(grid, spec).build().to_bytes()
    elapsed = time.perf_counter() - started
    ok = (
        len(first) == 1100
        and len(train_set) == 880
        and len(val_set) == 220
        and blob_a == blob_b
    )
    _verdict(6, ok, (
        f"{len(first)} samples, split {len(train_set)}/{len(val_set)}, "
        f"byte-identical regeneration={blob_a == blob_b}, {elapsed:.0f}s"
    ))


def test_criterion_07_plateau_schedule():
    sched = ReduceLrOnPlateau(lr=0.01, factor=0.5, patience=10)
    sched.update(1.0)  # establish the baseline
    rates = [sched.update(1.0) for _ in range(30)]
    halvings = sum(1 for a, b in zip([0.01] + rates, rates) if b < a)
    ok = halvings == 3 and rates[-1] == pytest.approx(0.00125)
    _verdict(7, ok, f"30 stagnant epochs -> {halvings} halvings, final lr {rates[-1]}")


def test_criterion_08a_learning_progress(desk_arms):
    report = desk_arms["base"]
    first = report.val_curve[0]
    best = report.best_val_mse
    ok = best <= 0.5 * first
    _verdict(8, ok, (
        f"(a) best val MSE {best:.4f} <= 50% of epoch-1 {first:.4f} "
        f"[desk suite {desk_arms['wall_clock']:.0f}s]"
    ))


def test_criterion_08b_window_trend(desk_arms):
    early = desk_arms["base"].metrics.acc10
    late = desk_arms["late_window"].metrics.acc10
    ok = early >= late
    _verdict(8, ok, f"(b) acc10 window[0,1)={early:.3f} >= window[0.5,1.5)={late:.3f}")


def test_criterion_08c_snr_trend(desk_arms):
    clean = desk_arms["base"].metrics.acc10
    noisy = desk_arms["noisy"].metrics.acc10
    ok = clean >= noisy
    _verdict(8, ok, f"(c) acc10 60dB={clean:.3f} >= 45dB={noisy:.3f}")


def test_criterion_08d_architecture_trend(desk_arms):
    lrcn_r2 = desk_arms["base"].metrics.r2
    cnn_r2 = desk_arms["cnn"].metrics.r2
    ok = lrcn_r2 >= cnn_r2 - 0.02
    _verdict(8, ok, f"(d) r2 lrcn={lrcn_r2:.3f} >= cnn={cnn_r2:.3f} - 0.02")


def test_criterion_09_feature_selection_oracle(grid):
    """Greedy forward selection vs brute force on a corrupted-channel corpus.

    The angle channel is replaced by pure seeded noise before the
    measurement-noise stage; the selection must exclude it, and the greedy
    path must agree with exhaustive evaluation of all 7 subsets.
    """
    started = time.perf_counter()
    spec = DatasetSpec(
        amplitudes=tuple(k / 1000.0 for k in range(1, 11)),  # 10 amplitudes
        base_seed=5,
    )
    builder = DatasetBuilder(
        grid, spec, transform=lambda rec: replace_with_noise(rec, "angle", seed=rec.seed)
    )
    config = LrcnConfig(input_len=4000, sequence_stride=8, seed=0)
    scorer = SubsetScorer(builder, config, TrainPlan(epochs=20))
    result = wrapper_feature_selection(scorer)
    everything = exhaustive_subset_scores(scorer)

    noise_excluded = Feature.ANGLE not in result.selected

    # replay the greedy policy over the brute-force table
    chosen = []
    score = -math.inf
    consistent = True
    for round_scores in result.rounds:
        best_feature, best_score = None, score
        for feature in sorted(set(Feature) - set(chosen)):
            value = everything[frozenset(chosen + [feature])]
            if value != round_scores[feature.channel]:
                consistent = False
            if value > best_score:
                best_feature, best_score = feature, value
        if best_feature is None:
            break
        chosen.append(best_feature)
        score = best_score
    consistent = consistent and FeatureSet(chosen).members == result.selected.members

    elapsed = time.perf_counter() - started
    ok = noise_excluded and consistent and elapsed < 600.0
    _verdict(9, ok, (
        f"selected {result.selected}, noise channel excluded={noise_excluded}, "
        f"greedy path matches brute force={consistent}, {elapsed:.0f}s"
    ))


def test_criterion_10_metrics_arithmetic():
    m = metrics_from_predictions([4.0, 8.0], [4.2, 9.0])
    hand = (
        m.acc10 == 0.5
        and m.mse == pytest.approx(0.52, rel=1e-12)
        and m.r2 == pytest.approx(1.0 - 1.04 / 8.0, rel=1e-12)
    )
    boundary = metrics_from_predictions([10.0], [11.0]).acc10 == 1.0
    perfect = metrics_from_predictions([3.0, 5.0, 7.0], [3.0, 5.0, 7.0])
    exact = perfect.mse == 0.0 and perfect.r2 == 1.0 and perfect.acc10 == 1.0
    mean_pred = metrics_from_predictions([2.0, 4.0, 6.0], [4.0, 4.0, 4.0]).r2 == pytest.approx(0.0, abs=1e-15)
    ok = hand and boundary and exact and mean_pred
    _verdict(10, ok, (
        f"hand example (mse 0.52, acc10 0.5), inclusive 10% boundary={boundary}, "
        f"perfect/mean-prediction cases exact"
    ))
