"""Resampling, noise calibration, windowing, normalization, tensor layout."""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inertialab.dynamics import PmuRecordSet
from inertialab.signals import (
    Dataset,
    Feature,
    FeatureSet,
    NormalizationStats,
    add_noise,
    apply_normalization,
    assemble_features,
    compute_normalization,
    extract_window,
    measured_snr,
    replace_with_noise,
    resample,
)


def normalize(batch, n_channels):
    """Scale ``batch`` by its own channel extrema."""
    return apply_normalization(batch, compute_normalization(batch, n_channels))


def make_record(n_buses=2, n_samples=300, rate=200.0, seed=0, h_sys=4.0):
    rng = np.random.default_rng(seed)
    return PmuRecordSet(
        rate=rate,
        bus_ids=tuple(range(1, n_buses + 1)),
        speed=rng.normal(0.0, 1e-4, (n_buses, n_samples)),
        rocof=rng.normal(0.0, 1e-3, (n_buses, n_samples)),
        angle=rng.normal(0.0, 1e-2, (n_buses, n_samples)),
        h_sys=h_sys,
        probe_amplitude=0.001,
        seed=seed,
    )


class TestResample:
    def test_constant_series(self):
        out = resample(np.full(2880, 3.25), 2880.0, 200.0)
        assert len(out) == 200
        np.testing.assert_allclose(out, 3.25, rtol=0, atol=1e-12)

    def test_one_second_frame_counts(self):
        assert len(resample(np.zeros(2880), 2880.0, 200.0)) == 200

    def test_affine_exactness(self):
        t = np.arange(4320) / 2880.0
        series = -0.75 + 2.5 * t
        out = resample(series, 2880.0, 200.0)
        expected = -0.75 + 2.5 * np.arange(300) / 200.0
        assert len(out) == 300
        np.testing.assert_allclose(out, expected, rtol=0, atol=1e-9)

    def test_upsampling_rejected(self):
        with pytest.raises(ValueError):
            resample(np.zeros(100), 200.0, 2880.0)

    def test_block_matches_row_by_row(self):
        block = np.random.default_rng(3).normal(size=(2, 3, 4320))
        rows = [[resample(row, 2880.0, 200.0) for row in plane] for plane in block]
        out = resample(block, 2880.0, 200.0)
        assert out.shape == (2, 3, 300)
        assert np.array_equal(out, rows)

    def test_short_series_rejected(self):
        with pytest.raises(ValueError):
            resample(np.zeros(1), 200.0, 100.0)

    def test_antialias_attenuates_near_nyquist(self):
        # a tone far above the target band should come out much smaller
        t = np.arange(2880) / 2880.0
        tone = np.sin(2 * np.pi * 1200.0 * t)
        out = resample(tone, 2880.0, 200.0)
        assert np.abs(out).max() < 0.35 * np.abs(tone).max()


class TestMeasuredSnr:
    def test_zero_residual_sentinel(self):
        x = np.ones(10)
        assert measured_snr(x, x) == math.inf

    def test_equal_power_residual(self):
        clean = np.array([1.0, -1.0, 1.0, -1.0])
        noisy = np.array([2.0, 0.0, 2.0, 0.0])
        assert measured_snr(clean, noisy) == pytest.approx(0.0, abs=1e-12)

    def test_known_variance_ratio(self):
        rng = np.random.default_rng(5)
        clean = rng.normal(0.0, 1.0, 200_000)
        noisy = clean + rng.normal(0.0, math.sqrt(1e-3), clean.size)
        assert measured_snr(clean, noisy) == pytest.approx(30.0, abs=0.5)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            measured_snr(np.zeros(4), np.zeros(5))


class TestAddNoise:
    def test_infinite_snr_identity(self):
        rec = make_record()
        assert add_noise(rec, math.inf, seed=1) is rec

    def test_sixty_db_variance(self):
        rec = make_record(n_buses=1, n_samples=100_000)
        noisy = add_noise(rec, 60.0, seed=3)
        power = np.mean(rec.speed**2)
        resid_var = np.var(noisy.speed - rec.speed)
        assert resid_var == pytest.approx(power / 1e6, rel=0.05)

    @pytest.mark.parametrize("snr_db", [45.0, 60.0])
    def test_measured_snr_within_half_db(self, snr_db):
        rec = make_record(n_buses=1, n_samples=20_000, seed=2)
        noisy = add_noise(rec, snr_db, seed=4)
        for name in PmuRecordSet.CHANNELS:
            observed = measured_snr(rec.channel(name)[0], noisy.channel(name)[0])
            assert abs(observed - snr_db) <= 0.5

    def test_deterministic_under_seed(self):
        rec = make_record()
        a = add_noise(rec, 45.0, seed=9)
        b = add_noise(rec, 45.0, seed=9)
        for name in PmuRecordSet.CHANNELS:
            np.testing.assert_array_equal(a.channel(name), b.channel(name))

    def test_memory_order_does_not_change_noise(self):
        rec = make_record(n_buses=4, n_samples=1000)
        fortran = PmuRecordSet(
            rate=rec.rate,
            bus_ids=rec.bus_ids,
            speed=np.asfortranarray(rec.speed),
            rocof=np.asfortranarray(rec.rocof),
            angle=np.asfortranarray(rec.angle),
            h_sys=rec.h_sys,
        )
        a = add_noise(rec, 45.0, seed=9)
        b = add_noise(fortran, 45.0, seed=9)
        for name in PmuRecordSet.CHANNELS:
            assert a.channel(name).tobytes() == b.channel(name).tobytes(), name

    def test_all_zero_channel_skipped_with_warning(self):
        rec = make_record(n_buses=1)
        rec = PmuRecordSet(
            rate=rec.rate,
            bus_ids=rec.bus_ids,
            speed=rec.speed,
            rocof=rec.rocof,
            angle=np.zeros_like(rec.angle),
            h_sys=rec.h_sys,
        )
        with pytest.warns(UserWarning, match="all-zero"):
            noisy = add_noise(rec, 60.0, seed=1)
        np.testing.assert_array_equal(noisy.angle, 0.0)

    def test_fully_silent_record_rejected(self):
        rec = make_record(n_buses=1)
        silent = PmuRecordSet(
            rate=rec.rate,
            bus_ids=rec.bus_ids,
            speed=np.zeros_like(rec.speed),
            rocof=np.zeros_like(rec.rocof),
            angle=np.zeros_like(rec.angle),
        )
        with pytest.raises(ValueError):
            add_noise(silent, 60.0, seed=1)


class TestExtractWindow:
    def test_first_second(self):
        rec = make_record(n_samples=300)
        out = extract_window(rec, 0.0, 1.0)
        assert out.n_samples == 200

    def test_shifted_second(self):
        rec = make_record(n_samples=300)
        out = extract_window(rec, 0.5, 1.5)
        assert out.n_samples == 200

    def test_full_duration_identity(self):
        rec = make_record(n_samples=300)
        out = extract_window(rec, 0.0, rec.duration)
        np.testing.assert_array_equal(out.speed, rec.speed)

    def test_windows_agree_on_overlap(self):
        rec = make_record(n_samples=300)
        first = extract_window(rec, 0.0, 1.0)
        second = extract_window(rec, 0.5, 1.5)
        np.testing.assert_array_equal(first.speed[:, 100:], second.speed[:, :100])

    def test_out_of_range(self):
        rec = make_record(n_samples=300)
        with pytest.raises(ValueError):
            extract_window(rec, 0.5, 2.0)
        with pytest.raises(ValueError):
            extract_window(rec, 1.0, 0.5)


class TestFeatureSet:
    def test_canonical_order(self):
        fs = FeatureSet(["angle", "speed"])
        assert fs.names() == ("speed", "angle")

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            FeatureSet(["speed", "speed"])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            FeatureSet([])

    def test_bitmask_round_trip(self):
        fs = FeatureSet([Feature.SPEED, Feature.ANGLE])
        assert FeatureSet.from_bitmask(fs.bitmask).members == fs.members


class TestAssembleFeatures:
    @pytest.mark.parametrize(
        "features,expected",
        [
            (("speed", "rocof"), 4000),
            (("speed",), 2000),
            (("speed", "rocof", "angle"), 6000),
        ],
    )
    def test_lengths(self, features, expected):
        rec = make_record(n_buses=10, n_samples=200)
        assert len(assemble_features(rec, features)) == expected

    def test_layout_feature_bus_time(self):
        rec = make_record(n_buses=3, n_samples=4)
        vec = assemble_features(rec, ("speed", "angle"))
        # second feature block, second bus, third time step
        assert vec[4 * 3 + 4 + 2] == rec.angle[1, 3 - 1]
        assert vec[0] == rec.speed[0, 0]

    def test_replace_with_noise_targets_one_channel(self):
        rec = make_record()
        out = replace_with_noise(rec, "angle", seed=3)
        np.testing.assert_array_equal(out.speed, rec.speed)
        assert not np.array_equal(out.angle, rec.angle)
        again = replace_with_noise(rec, "angle", seed=3)
        np.testing.assert_array_equal(out.angle, again.angle)


class TestNormalization:
    def test_unit_range_per_channel(self):
        rng = np.random.default_rng(0)
        batch = rng.normal(size=(16, 3 * 5))
        normalized = normalize(batch, n_channels=3)
        view = normalized.reshape(16, 3, 5)
        for c in range(3):
            assert view[:, c, :].min() == 0.0
            assert view[:, c, :].max() == 1.0

    def test_constant_channel_maps_to_zero(self):
        batch = np.ones((4, 6))
        normalized = normalize(batch, n_channels=2)
        np.testing.assert_array_equal(normalized, 0.0)

    def test_two_point_channel(self):
        batch = np.array([[2.0], [4.0]])
        normalized = normalize(batch, n_channels=1)
        np.testing.assert_array_equal(normalized.ravel(), [0.0, 1.0])

    def test_idempotent_with_own_stats(self):
        rng = np.random.default_rng(1)
        batch = rng.normal(size=(8, 12))
        normalized = normalize(batch, n_channels=4)
        stats2 = compute_normalization(normalized, 4)
        again = apply_normalization(normalized, stats2)
        np.testing.assert_allclose(again, normalized, rtol=0, atol=1e-15)

    def test_stats_reusable_on_held_out_rows(self):
        rng = np.random.default_rng(2)
        batch = rng.normal(size=(10, 8))
        stats = compute_normalization(batch[:7], 2)
        out = apply_normalization(batch[7:], stats)
        assert out.shape == (3, 8)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_deterministic(self, seed):
        batch = np.random.default_rng(seed).normal(size=(5, 6))
        a = normalize(batch, 2)
        b = normalize(batch.copy(), 2)
        np.testing.assert_array_equal(a, b)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            compute_normalization(np.empty((0, 4)), 2)


class TestDatasetContainer:
    def make_dataset(self, n=6, length=8):
        rng = np.random.default_rng(3)
        raw = rng.normal(size=(n, length))
        stats = compute_normalization(raw, n_channels=2)
        tensors = apply_normalization(raw, stats)
        return Dataset(
            tensors=tensors.astype(np.float32).astype(np.float64),
            labels=rng.uniform(3.0, 8.0, n),
            features=FeatureSet(["speed", "rocof"]),
            window=(0.0, 1.0),
            snr_db=60.0,
            n_buses=1,
            stats=stats,
        )

    def test_round_trip(self, tmp_path):
        ds = self.make_dataset()
        path = tmp_path / "data.bin"
        ds.save(path)
        back = Dataset.load(path)
        np.testing.assert_array_equal(back.tensors, ds.tensors)
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.features.members == ds.features.members
        assert back.window == ds.window
        assert back.snr_db == ds.snr_db
        np.testing.assert_array_equal(back.stats.minima, ds.stats.minima)

    def test_layout_matches_hand_packed_blob(self):
        """The writer and reader follow the documented layout field by field."""
        ds = Dataset(
            tensors=np.array([[0.25, 0.5, 1.0, 0.0], [0.0, 0.75, 0.125, 1.0]]),
            labels=np.array([3.5, 7.0]),
            features=FeatureSet(["rocof"]),
            window=(0.5, 1.5),
            snr_db=45.0,
            n_buses=2,
            stats=NormalizationStats(minima=np.array([-1.0, -2.0]),
                                     maxima=np.array([2.0, 4.0])),
        )
        blob = b"".join([
            b"INRDSET1",
            struct.pack("<QQIIdddQ", 2, 4, 0b010, 2, 0.5, 1.5, 45.0, 2),
            struct.pack("<2d", -1.0, -2.0),
            struct.pack("<2d", 2.0, 4.0),
            struct.pack("<d4f", 3.5, 0.25, 0.5, 1.0, 0.0),
            struct.pack("<d4f", 7.0, 0.0, 0.75, 0.125, 1.0),
        ])
        assert ds.to_bytes() == blob
        back = Dataset.from_bytes(blob)
        assert back.tensors.tobytes() == ds.tensors.tobytes()
        assert back.labels.tobytes() == ds.labels.tobytes()
        assert back.tensors.flags.c_contiguous and back.labels.flags.c_contiguous
        assert (back.features, back.window, back.snr_db, back.n_buses) == (
            ds.features, ds.window, ds.snr_db, ds.n_buses)
        np.testing.assert_array_equal(back.stats.maxima, ds.stats.maxima)

    def test_bytes_deterministic(self):
        assert self.make_dataset().to_bytes() == self.make_dataset().to_bytes()

    def test_header_inspection(self):
        ds = self.make_dataset()
        info = Dataset.header_from_bytes(ds.to_bytes())
        assert info["n_samples"] == 6
        assert info["tensor_length"] == 8
        assert info["features"] == "speed+rocof"

    def test_infinite_snr_survives_serialization(self, tmp_path):
        ds = self.make_dataset()
        ds.snr_db = math.inf
        path = tmp_path / "clean.bin"
        ds.save(path)
        assert Dataset.load(path).snr_db == math.inf

    def test_subset(self):
        ds = self.make_dataset()
        sub = ds.subset(np.array([0, 2]))
        assert len(sub) == 2
        np.testing.assert_array_equal(sub.labels, ds.labels[[0, 2]])

    def test_bad_magic(self):
        with pytest.raises(ValueError):
            Dataset.from_bytes(b"NOTADATA" + b"\0" * 64)
