"""Dataset assembly, splitting, metrics, training loop and selection."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from inertialab import plots
from inertialab.dynamics import ProbingSignal
from inertialab.grid import Branch, Bus, GeneratorParams, GridModel
from inertialab.experiments import (
    DatasetBuilder,
    DatasetSpec,
    Metrics,
    SubsetScorer,
    TrainingDivergedError,
    TrainPlan,
    TrainReport,
    default_h_grid,
    desk_amplitude_grid,
    exhaustive_subset_scores,
    metrics_from_predictions,
    paper_amplitude_grid,
    predict,
    split,
    train,
    wrapper_feature_selection,
)
from inertialab.nn import layers
from inertialab.nn.model import LrcnConfig, LrcnModel
from inertialab.signals import Dataset, FeatureSet, NormalizationStats

OMEGA = 2.0 * math.pi * 60.0


def toy_dataset(n=40, length=12, seed=0, labels=None):
    rng = np.random.default_rng(seed)
    tensors = rng.uniform(0.0, 1.0, size=(n, length))
    if labels is None:
        labels = rng.uniform(3.0, 8.0, size=n)
    return Dataset(
        tensors=tensors,
        labels=np.asarray(labels, dtype=float),
        features=FeatureSet(["speed"]),
        window=(0.0, 1.0),
        snr_db=60.0,
        n_buses=2,
        stats=NormalizationStats(minima=np.zeros(2), maxima=np.ones(2)),
    )


def tiny_grid():
    gens = (
        GeneratorParams("a", 1, 2 * 4.0 * 100 / OMEGA**2, 100.0, OMEGA, 1.0),
        GeneratorParams("b", 2, 2 * 3.5 * 100 / OMEGA**2, 100.0, OMEGA, 1.0),
    )
    return GridModel(
        buses=(Bus(1, "generator", 20.0), Bus(2, "generator", 0.0), Bus(3, "load", 30.0)),
        branches=(Branch(1, 3, 2.0), Branch(2, 3, 3.0), Branch(1, 2, 1.0)),
        generators=gens,
        system_base=200.0,
        monitored_buses=(1, 2),
    )


class TestGrids:
    def test_h_grid(self):
        grid = default_h_grid()
        assert len(grid) == 11
        assert grid[0] == 3.0 and grid[-1] == 8.0

    def test_amplitude_grids(self):
        paper = paper_amplitude_grid()
        assert len(paper) == 100
        assert paper[0] == pytest.approx(0.0001)
        assert paper[-1] == pytest.approx(0.01)
        assert len(desk_amplitude_grid()) == 20

    def test_spec_sample_count(self):
        assert DatasetSpec().n_samples == 1100

    @pytest.mark.parametrize("kw, key", [
        (dict(amplitudes=(0.001, -0.001)), "amplitudes"),
        (dict(amplitudes=(float("nan"),)), "amplitudes"),
        (dict(amplitudes=(float("inf"),)), "amplitudes"),
        (dict(amplitudes=()), "amplitudes"),
        (dict(h_values=()), "h_values"),
        (dict(snr_db=float("nan")), "snr_db"),
        (dict(snr_db=-math.inf), "snr_db"),
        (dict(base_seed=-1), "base_seed"),
        (dict(base_seed=1.5), "base_seed"),
        (dict(window=(0.5, 0.2)), "window"),
        (dict(window=(0.0, 9.0)), "window"),  # past sim.t_end
        (dict(window=(float("nan"), 1.0)), "window"),
        (dict(window=(0.0, math.inf)), "window"),
        (dict(target_rate=0.0), "target_rate"),
        (dict(target_rate=float("nan")), "target_rate"),
        (dict(target_rate=5000.0), "target_rate"),  # above sim.pmu_rate
        (dict(target_rate=-200.0), "target_rate"),
        # noise at a finite SNR is scaled to a signal, so there must be one
        (dict(amplitudes=(0.0, 0.001)), "amplitudes"),
        (dict(probe=ProbingSignal(start=1.5)), "start"),
    ])
    def test_spec_rejects_bad_grids(self, kw, key):
        with pytest.raises(ValueError, match=key):
            DatasetSpec(**kw)

    @pytest.mark.parametrize("kw, key", [
        (dict(snr_levels=(60.0, float("nan"))), "snr_levels"),
        (dict(snr_levels=(60.0, -math.inf)), "snr_levels"),
        (dict(epochs=-1), "epochs"),
        (dict(split_seed=-1), "split_seed"),
        (dict(train_seed=-1), "train_seed"),
        (dict(cnn_learning_rate=0.0), "cnn_learning_rate"),
        (dict(cnn_learning_rate=float("nan")), "cnn_learning_rate"),
        (dict(epochs=2.5), "epochs"),
        (dict(epochs=True), "epochs"),
        (dict(split_seed=1.5), "split_seed"),
    ])
    def test_plan_rejects_bad_fields(self, kw, key):
        with pytest.raises(ValueError, match=key):
            TrainPlan(**kw)

    def test_numpy_integer_fields_stored_as_int(self):
        plan = TrainPlan(epochs=np.int64(3), split_seed=np.int32(1))
        spec = DatasetSpec(base_seed=np.uint8(2), probe=ProbingSignal(seed=np.int64(4)))
        assert (plan.epochs, plan.split_seed, spec.base_seed, spec.probe.seed) == (3, 1, 2, 4)
        assert all(type(v) is int for v in (plan.epochs, plan.split_seed, spec.base_seed,
                                            spec.probe.seed))

    def test_infinite_snr_means_no_noise(self):
        assert DatasetSpec(snr_db=math.inf).snr_db == math.inf
        # with no noise, a silent probe is a valid (all-zero) corpus
        assert DatasetSpec(amplitudes=(0.0,), probe=ProbingSignal(start=1.5), snr_db=math.inf)
        assert TrainPlan(snr_levels=[math.inf, 45]).snr_levels == (math.inf, 45.0)


class TestSplit:
    def test_paper_sizes(self):
        ds = toy_dataset(n=1100)
        train_set, val_set = split(ds, 0.8, seed=0)
        assert len(train_set) == 880
        assert len(val_set) == 220

    def test_even_split(self):
        ds = toy_dataset(n=10)
        a, b = split(ds, 0.5, seed=1)
        assert len(a) == 5 and len(b) == 5

    def test_seed_reproducible(self):
        ds = toy_dataset(n=30)
        a1, b1 = split(ds, 0.8, seed=3)
        a2, b2 = split(ds, 0.8, seed=3)
        np.testing.assert_array_equal(a1.labels, a2.labels)
        np.testing.assert_array_equal(b1.tensors, b2.tensors)

    def test_partition_is_exact(self):
        ds = toy_dataset(n=23)
        a, b = split(ds, 0.8, seed=5)
        merged = np.concatenate([a.labels, b.labels])
        np.testing.assert_array_equal(np.sort(merged), np.sort(ds.labels))
        assert len(a) + len(b) == len(ds)

    def test_domain(self):
        with pytest.raises(ValueError):
            split(toy_dataset(n=10), 1.5, seed=0)
        with pytest.raises(ValueError):
            split(toy_dataset(n=1), 0.5, seed=0)
        # 0.05 * 6 rounds to no training sample, 0.95 * 6 to no validation one
        for fraction in (0.05, 0.95):
            with pytest.raises(ValueError, match="train_fraction .* of 6 samples"):
                split(toy_dataset(n=6), fraction, seed=0)


class TestMetrics:
    def test_perfect_predictions(self):
        m = metrics_from_predictions([3.0, 5.0, 7.0], [3.0, 5.0, 7.0])
        assert m == Metrics(mse=0.0, r2=1.0, acc10=1.0)

    def test_mean_prediction_zero_r2(self):
        labels = np.array([2.0, 4.0, 6.0])
        m = metrics_from_predictions(labels, np.full(3, labels.mean()))
        assert m.r2 == pytest.approx(0.0, abs=1e-15)

    def test_hand_example(self):
        m = metrics_from_predictions([4.0, 8.0], [4.2, 9.0])
        assert m.acc10 == 0.5  # 0.2/4 = 5% in, 1.0/8 = 12.5% out
        assert m.mse == pytest.approx((0.04 + 1.0) / 2, rel=1e-12)
        assert m.r2 == pytest.approx(1.0 - 1.04 / 8.0, rel=1e-12)

    def test_boundary_inclusive(self):
        m = metrics_from_predictions([10.0], [11.0])
        assert m.acc10 == 1.0
        m = metrics_from_predictions([10.0], [11.0000001])
        assert m.acc10 == 0.0

    def test_constant_labels_sentinel(self):
        # NaN is the whole report: a one-sample validation split must not warn
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = metrics_from_predictions([4.0, 4.0], [4.1, 3.9])
        assert math.isnan(m.r2)


class TestTrainLoop:
    def small_config(self, length, **kw):
        base = dict(
            input_len=length,
            conv1_channels=2,
            conv2_channels=3,
            lstm_units=4,
            head_sizes=(6, 3),
            batch_size=8,
            seed=0,
            sequence_stride=4,
            learning_rate=0.02,
        )
        base.update(kw)
        return LrcnConfig(**base)

    def linear_toy(self, n=96, length=60, seed=3):
        """Labels are an affine function of the tensors: exactly learnable."""
        rng = np.random.default_rng(seed)
        tensors = rng.uniform(0.0, 1.0, size=(n, length))
        weights = rng.uniform(-1.0, 1.0, size=length)
        labels = 4.0 + tensors @ weights / length
        return toy_dataset(n=n, length=length, seed=seed, labels=labels), tensors

    def test_zero_epochs_identity(self):
        ds = toy_dataset(n=20, length=24)
        cfg = self.small_config(24)
        tr, va = split(ds, 0.8, 0)
        model, report = train(cfg, tr, va, epochs=0, seed=0, arch="lrcn")
        from inertialab.nn.model import make_model

        fresh = make_model("lrcn", cfg)
        for name in fresh.params:
            np.testing.assert_array_equal(model.params[name], fresh.params[name])
        assert report.train_curve == ()
        assert math.isnan(report.best_val_mse)

    def test_returns_best_epoch_parameters(self):
        # the update is in place, so the kept parameters must be a copy
        ds = toy_dataset(n=24, length=24)
        tr, va = split(ds, 0.8, 0)
        model, report = train(self.small_config(24), tr, va, epochs=5, seed=0, arch="lrcn")
        assert report.best_epoch < 5
        assert layers.mse(va.labels, predict(model, va)) == report.best_val_mse
        at_best, _ = train(self.small_config(24), tr, va, epochs=report.best_epoch, seed=0,
                           arch="lrcn")
        for name, value in at_best.params.items():
            np.testing.assert_array_equal(model.params[name], value, err_msg=name)

    @pytest.mark.parametrize("epochs, most", [(1, 0), (5, 1)])
    def test_one_best_epoch_snapshot_at_most(self, epochs, most, monkeypatch):
        # the snapshot is taken only at an improving epoch that another
        # epoch follows, and later ones are written into it in place
        calls = []
        copy_params = LrcnModel.copy_params
        monkeypatch.setattr(LrcnModel, "copy_params",
                            lambda model: calls.append(1) or copy_params(model))
        ds = toy_dataset(n=24, length=24)
        tr, va = split(ds, 0.8, 0)
        train(self.small_config(24), tr, va, epochs=epochs, seed=0, arch="lrcn")
        assert len(calls) <= most

    def test_curve_lengths_match_epochs(self):
        ds = toy_dataset(n=20, length=24)
        tr, va = split(ds, 0.8, 0)
        _, report = train(self.small_config(24), tr, va, epochs=3, seed=0, arch="lrcn")
        assert len(report.train_curve) == 3
        assert len(report.val_curve) == 3
        assert len(report.lr_trace) == 3

    def test_training_is_deterministic(self):
        ds = toy_dataset(n=24, length=24)
        tr, va = split(ds, 0.8, 0)
        _, r1 = train(self.small_config(24), tr, va, epochs=4, seed=9, arch="lrcn")
        _, r2 = train(self.small_config(24), tr, va, epochs=4, seed=9, arch="lrcn")
        assert r1.train_curve == r2.train_curve
        assert r1.val_curve == r2.val_curve

    def test_linear_target_convergence(self):
        ds, _ = self.linear_toy()
        tr, va = split(ds, 0.8, 0)
        cfg = self.small_config(60, learning_rate=0.05)
        model, report = train(cfg, tr, va, epochs=200, seed=0, arch="lrcn")
        assert min(report.val_curve) < 1e-3

    def test_best_checkpoint_retained(self):
        ds = toy_dataset(n=24, length=24)
        tr, va = split(ds, 0.8, 0)
        model, report = train(self.small_config(24), tr, va, epochs=5, seed=1, arch="lrcn")
        from inertialab.nn import layers

        val_mse = layers.mse(va.labels, predict(model, va))
        assert val_mse == pytest.approx(report.best_val_mse, rel=1e-12)
        assert report.best_val_mse == min(report.val_curve)

    def test_lr_trace_follows_plateau_rule(self):
        ds = toy_dataset(n=24, length=24)
        tr, va = split(ds, 0.8, 0)
        cfg = self.small_config(24, lr_patience=2)
        _, report = train(cfg, tr, va, epochs=8, seed=2, arch="lrcn")
        from inertialab.nn.schedule import ReduceLrOnPlateau

        sched = ReduceLrOnPlateau(
            lr=cfg.learning_rate, factor=cfg.lr_factor, patience=cfg.lr_patience,
            min_lr=cfg.lr_min, threshold=cfg.lr_threshold,
        )
        replay = tuple(sched.update(v) for v in report.val_curve)
        assert replay == report.lr_trace

    def test_batch_size_precondition(self):
        ds = toy_dataset(n=10, length=24)
        tr, va = split(ds, 0.5, 0)
        with pytest.raises(ValueError):
            train(self.small_config(24, batch_size=16), tr, va, epochs=1, seed=0, arch="lrcn")

    @pytest.mark.parametrize("arch", ["lrcn", "cnn"])
    def test_input_len_follows_the_data(self, arch):
        ds = toy_dataset(n=20, length=24)
        tr, va = split(ds, 0.8, 0)
        sized = self.small_config(24)
        model, report = train(self.small_config(3), tr, va, epochs=2, seed=0, arch=arch)
        want_model, want = train(sized, tr, va, epochs=2, seed=0, arch=arch)
        assert model.config == sized
        assert (report.val_curve, report.metrics) == (want.val_curve, want.metrics)
        for name, value in want_model.params.items():
            assert model.params[name].shape == value.shape, name
        assert predict(model, va).shape == (len(va),)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_detected(self):
        ds = toy_dataset(n=20, length=24)
        tr, va = split(ds, 0.8, 0)
        cfg = self.small_config(24, learning_rate=1e9)
        with pytest.raises(TrainingDivergedError):
            train(cfg, tr, va, epochs=10, seed=0, arch="lrcn")

    def test_float64_built_dataset_trains_as_its_saved_copy(self):
        # a dataset holds the float32 values its file stores, so both train
        # alike and the report's fingerprint describes what was trained on
        ds = toy_dataset(n=40, length=12)
        reports = []
        for data in (ds, Dataset.from_bytes(ds.to_bytes())):
            tr, va = split(data, 0.8, 0)
            reports.append(train(self.small_config(12), tr, va, epochs=3, seed=0,
                                 arch="lrcn")[1])
        assert reports[0].val_curve == reports[1].val_curve
        assert reports[0].dataset_fingerprint == reports[1].dataset_fingerprint

    def test_report_curve_rows_are_csv_rows(self, tmp_path):
        # numpy scalars included: the report's rows are learning_curve.csv's
        report = TrainReport(
            arch="lrcn", epochs=2, train_curve=(0.5, np.float64(0.25)),
            val_curve=(np.float64(1 / 3), 0.1), lr_trace=(0.02, np.float64(0.01)),
            metrics=Metrics(mse=0.1, r2=0.5, acc10=1.0), val_predictions=np.zeros(2),
            best_epoch=2, best_val_mse=0.1, dataset_fingerprint="00",
        )
        report.save(tmp_path / "report.txt", "config_fingerprint 00")
        plots.write_csv(tmp_path / "curve.csv", ("epoch", "train_mse", "val_mse", "lr"),
                        report.curve_rows())
        lines = (tmp_path / "report.txt").read_text().splitlines()
        curves = lines[lines.index("[CURVES]") + 1 : lines.index("[END]")]
        assert curves == (tmp_path / "curve.csv").read_text().splitlines()
        assert curves[2] == "2,0.25,0.1,0.01"

    def test_report_round_trip(self, tmp_path):
        ds = toy_dataset(n=20, length=24)
        tr, va = split(ds, 0.8, 0)
        _, report = train(self.small_config(24), tr, va, epochs=3, seed=0, arch="lrcn")
        path = tmp_path / "report.txt"
        report.save(path, "config_fingerprint 0123abcd")
        lines = path.read_text().splitlines()
        head = dict(ln.split(" ", 1) for ln in lines[1 : lines.index("[CURVES]")])
        rows = [ln.split(",") for ln in lines[lines.index("[CURVES]") + 2 : -1]]
        assert tuple(float(r[1]) for r in rows) == report.train_curve
        assert tuple(float(r[2]) for r in rows) == report.val_curve
        assert float(head["final_mse"]) == report.metrics.mse
        assert int(head["best_epoch"]) == report.best_epoch
        assert head["config_fingerprint"] == "0123abcd"


class TestDatasetGeneration:
    def spec(self, **kw):
        base = dict(
            h_values=(3.5,),
            amplitudes=(0.001,),
            window=(0.0, 1.0),
            snr_db=60.0,
            features=FeatureSet(["speed", "rocof"]),
            base_seed=1,
        )
        base.update(kw)
        return DatasetSpec(**base)

    def test_single_cell(self):
        ds = DatasetBuilder(tiny_grid(), self.spec()).build()
        assert len(ds) == 1
        assert ds.labels[0] == 3.5
        assert ds.tensor_length == 200 * 2 * 2

    def test_grid_product_count(self):
        spec = self.spec(h_values=(3.0, 4.0, 5.0), amplitudes=(0.001, 0.002))
        ds = DatasetBuilder(tiny_grid(), spec).build()
        assert len(ds) == 6
        assert sorted(set(ds.labels.tolist())) == [3.0, 4.0, 5.0]

    def test_normalized_range(self):
        spec = self.spec(h_values=(3.0, 6.0), amplitudes=(0.001, 0.005))
        ds = DatasetBuilder(tiny_grid(), spec).build()
        assert ds.tensors.min() == 0.0
        assert ds.tensors.max() == 1.0

    def test_regeneration_is_byte_identical(self):
        spec = self.spec(h_values=(3.0, 4.5), amplitudes=(0.001, 0.003))
        a = DatasetBuilder(tiny_grid(), spec).build().to_bytes()
        b = DatasetBuilder(tiny_grid(), spec).build().to_bytes()
        assert a == b

    def test_windows_share_clean_records(self):
        builder = DatasetBuilder(tiny_grid(), self.spec(h_values=(3.0, 5.0),
                                                        amplitudes=(0.002,)))
        ds_a = builder.build(window=(0.0, 1.0))
        ds_b = builder.build(window=(0.5, 1.5))
        assert len(ds_a) == len(ds_b)
        np.testing.assert_array_equal(ds_a.labels, ds_b.labels)
        assert builder.clean_fingerprint() == builder.clean_fingerprint()

    def test_build_does_not_depend_on_earlier_builds(self):
        spec = self.spec(h_values=(3.0, 5.0), amplitudes=(0.002, 0.004))
        builder = DatasetBuilder(tiny_grid(), spec)
        builder.build(snr_db=60.0)
        again = builder.build(snr_db=45.0).to_bytes()
        assert again == DatasetBuilder(tiny_grid(), spec).build(snr_db=45.0).to_bytes()

    def test_tensors_are_contiguous_float32(self):
        built = DatasetBuilder(tiny_grid(), self.spec(h_values=(3.0, 5.0))).build()
        toy = toy_dataset()  # built from float64 values
        for ds in (built, Dataset.from_bytes(built.to_bytes()), built.subset(np.array([1, 0])),
                   toy, *split(toy, 0.8, 0)):
            assert ds.tensors.dtype == np.float32 and ds.tensors.flags.c_contiguous

    def test_injection_bus_must_host_a_generator(self):
        spec = self.spec(probe=ProbingSignal(injection_bus=3))  # bus 3 is a load bus
        with pytest.raises(ValueError, match="probe injection_bus 3 hosts no generator"):
            DatasetBuilder(tiny_grid(), spec)

    def test_snr_rows_reuse_clean_records(self):
        builder = DatasetBuilder(tiny_grid(), self.spec(h_values=(3.0,),
                                                        amplitudes=(0.002, 0.004)))
        fp_before = builder.clean_fingerprint()
        builder.build(snr_db=60.0)
        builder.build(snr_db=45.0)
        assert builder.clean_fingerprint() == fp_before

    def test_instability_aborts_with_cell_index(self):
        from inertialab.experiments import GenerationError

        spec = self.spec(h_values=(3.0,), amplitudes=(0.001, 50.0))
        with pytest.raises(GenerationError) as err:
            DatasetBuilder(tiny_grid(), spec).build()
        assert err.value.h_index == 0
        assert err.value.amp_index == 1

    def test_instability_in_shared_block_maps_to_its_cell(self):
        from inertialab.experiments import GenerationError

        # one block holds both H groups; amplitude 10 destabilizes H = 3.0
        # (index 1) while H = 8.0 (index 0) stays below 1 p.u.
        spec = self.spec(h_values=(8.0, 3.0), amplitudes=(0.001, 10.0))
        with pytest.raises(GenerationError) as err:
            DatasetBuilder(tiny_grid(), spec).build()
        assert (err.value.h_index, err.value.amp_index) == (1, 1)

    def test_networks_differing_beyond_inertia_rejected(self, monkeypatch):
        from inertialab import experiments

        reduce = experiments.build_reduced_network

        def skewed(grid):  # damping that follows the label
            net = reduce(grid)
            return replace(net, damping=net.damping * grid.system_inertia)

        monkeypatch.setattr(experiments, "build_reduced_network", skewed)
        builder = DatasetBuilder(tiny_grid(), self.spec(h_values=(3.0, 5.0)))
        with pytest.raises(ValueError, match="differ in damping"):
            builder.clean_records()

    def test_blocks_match_per_h_integration(self, monkeypatch):
        from inertialab import experiments
        from inertialab.dynamics import integrate
        from inertialab.grid import build_reduced_network, scale_to_target_inertia
        from inertialab.signals import resample_record

        grid = tiny_grid()
        spec = DatasetBuilder(grid, self.spec(h_values=(3.0, 5.0, 7.0),
                                              amplitudes=(0.001, 0.004))).spec
        expected = []
        for h_target in spec.h_values:
            net = build_reduced_network(scale_to_target_inertia(grid, h_target))
            for amp in spec.amplitudes:
                rec = integrate(net, replace(spec.probe, amplitude=amp), spec.sim,
                                monitored=grid.monitored_buses, h_sys=h_target)
                expected.append(resample_record(rec, spec.target_rate))

        rows_per_loop = []
        integrate_rows = experiments._integrate_rows

        def spy(net, probe, cfg, inertia, *rest):
            rows_per_loop.append(len(inertia))
            return integrate_rows(net, probe, cfg, inertia, *rest)

        monkeypatch.setattr(experiments, "_integrate_rows", spy)
        group_bytes = 3 * 8 * 2 * len(grid.monitored_buses) * spec.sim.n_samples
        fingerprints = set()
        for groups, loops in ((1, [2, 2, 2]), (2, [4, 2]), (3, [6])):
            monkeypatch.setattr(experiments, "_BLOCK_BYTES", groups * group_bytes)
            rows_per_loop.clear()
            builder = DatasetBuilder(grid, spec)
            records = builder.clean_records()
            assert rows_per_loop == loops
            assert len(records) == len(expected)
            for got, want in zip(records, expected):
                assert got.h_sys == want.h_sys
                assert got.channels.tobytes() == want.channels.tobytes()
            fingerprints.add(builder.clean_fingerprint())
        assert len(fingerprints) == 1


class TestFeatureSelectionMachinery:
    def test_scorer_memoizes(self):
        builder = DatasetBuilder(
            tiny_grid(),
            DatasetSpec(h_values=(3.0, 5.0, 7.0), amplitudes=(0.002, 0.004),
                        base_seed=0),
        )
        config = LrcnConfig(input_len=3, conv1_channels=2, conv2_channels=2,
                            lstm_units=3, head_sizes=(4, 2), batch_size=4,
                            seed=0, sequence_stride=8)
        scorer = SubsetScorer(builder, config, TrainPlan(epochs=1))
        from inertialab.signals import Feature

        first = scorer.score((Feature.SPEED,))
        again = scorer.score((Feature.SPEED,))
        assert first == again
        assert len(scorer.memo) == 1

    def test_single_candidate_selected_over_empty_baseline(self):
        builder = DatasetBuilder(
            tiny_grid(),
            DatasetSpec(h_values=(3.0, 5.0, 7.0), amplitudes=(0.002, 0.004),
                        base_seed=0),
        )
        config = LrcnConfig(input_len=3, conv1_channels=2, conv2_channels=2,
                            lstm_units=3, head_sizes=(4, 2), batch_size=4,
                            seed=0, sequence_stride=8)
        from inertialab.signals import Feature

        result = wrapper_feature_selection(
            SubsetScorer(builder, config, TrainPlan(epochs=1)), candidates=[Feature.ROCOF]
        )
        assert result.selected.members == (Feature.ROCOF,)

    def test_greedy_path_is_non_decreasing(self):
        builder = DatasetBuilder(
            tiny_grid(),
            DatasetSpec(h_values=(3.0, 5.0, 7.0), amplitudes=(0.002, 0.004, 0.006),
                        base_seed=0),
        )
        config = LrcnConfig(input_len=3, conv1_channels=2, conv2_channels=2,
                            lstm_units=3, head_sizes=(4, 2), batch_size=4,
                            seed=0, sequence_stride=8)
        scorer = SubsetScorer(builder, config, TrainPlan(epochs=2))
        result = wrapper_feature_selection(scorer)
        scores = [max(r.values()) for r in result.rounds if r]
        picked = [s for s in scores]
        assert all(b >= a for a, b in zip(picked, picked[1:])) or len(picked) <= 1
        exhaustive = exhaustive_subset_scores(scorer)
        assert frozenset(result.selected) in exhaustive
