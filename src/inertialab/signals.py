"""PMU record conditioning: resampling, noising, windowing, tensor assembly.

The conditioning chain mirrors a realistic acquisition pipeline: records are
captured at a high device rate, downsampled to the analysis rate, corrupted
with Gaussian measurement noise calibrated to a target SNR, cropped to a
feature window, flattened into fixed-layout tensors and min/max normalized
into [0, 1].

Tensor layout is feature-major, then bus, then time, so a record with 10
monitored buses, a 1 s window at 200 Hz and two selected channels flattens
to 200 * 2 * 10 = 4000 values.
"""

from __future__ import annotations

import enum
import math
import struct
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import PmuRecordSet

__all__ = [
    "Feature",
    "FeatureSet",
    "Dataset",
    "NormalizationStats",
    "resample",
    "resampled_length",
    "resample_record",
    "add_noise",
    "measured_snr",
    "window_samples",
    "extract_window",
    "assemble_features",
    "compute_normalization",
    "apply_normalization",
    "replace_with_noise",
]

DATASET_MAGIC = b"INRDSET1"
# n_samples, tensor_len, feature bitmask, n_buses, window start and stop,
# snr_db, n_channels
_DATASET_HEADER = struct.Struct("<QQIIdddQ")


class Feature(enum.IntEnum):
    """Candidate PMU channels; a value is the index on the channel axis."""

    SPEED = 0  # rotor speed deviation
    ROCOF = 1  # speed derivative
    ANGLE = 2  # voltage-phasor angle deviation

    @property
    def channel(self):
        return PmuRecordSet.CHANNELS[self.value]


_FEATURE_BY_NAME = {f.channel: f for f in Feature}


@dataclass(frozen=True)
class FeatureSet:
    """Non-empty, duplicate-free channel selection in canonical order."""

    members: tuple

    def __init__(self, members):
        feats = []
        for m in members:
            feat = m if isinstance(m, Feature) else _FEATURE_BY_NAME.get(str(m))
            if feat is None:
                raise ValueError(f"unknown feature {m!r}")
            feats.append(feat)
        if not feats:
            raise ValueError("feature set must not be empty")
        if len(set(feats)) != len(feats):
            raise ValueError(f"duplicate features in {feats}")
        object.__setattr__(self, "members", tuple(sorted(feats)))

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)

    def __contains__(self, item):
        return item in self.members

    @property
    def bitmask(self):
        return sum(1 << f.value for f in self.members)

    @classmethod
    def from_bitmask(cls, mask):
        return cls([f for f in Feature if mask & (1 << f.value)])

    def names(self):
        return tuple(f.channel for f in self.members)

    def __str__(self):
        return "+".join(self.names())


def resampled_length(n, src_rate, target_rate):
    """Samples :func:`resample` makes of ``n`` at ``src_rate``:
    ``floor(duration * target_rate)``."""
    return int(math.floor(n * float(target_rate) / float(src_rate) + 1e-12))


def resample(series, src_rate, target_rate):
    """Downsample uniform series along the last axis with a 4-tap prefilter.

    The moving-average prefilter is phase-compensated (its half-sample group
    delay is accounted for in the interpolation grid) and each series is
    extended by linear extrapolation before filtering, so affine signals are
    reproduced exactly.  Output length is ``floor(duration * target_rate)``.
    """
    series = np.asarray(series, dtype=np.float64)
    if series.ndim == 0 or series.shape[-1] < 2:
        raise ValueError("series must have at least 2 samples")
    if target_rate > src_rate:
        raise ValueError(
            f"upsampling not supported: {src_rate} Hz -> {target_rate} Hz"
        )
    n = series.shape[-1]
    first, last = series[..., :1], series[..., -1:]
    first_step = series[..., 1:2] - first
    last_step = last - series[..., -2:-1]
    padded = np.concatenate(
        (first - 2.0 * first_step, first - first_step, series, last + last_step), axis=-1
    )
    out_len = resampled_length(n, src_rate, target_rate)
    pos = np.arange(out_len) * (float(src_rate) / float(target_rate)) + 0.5
    idx = np.clip(np.floor(pos).astype(np.intp), 0, n - 2)
    frac = pos - idx
    # filtered[j] averages source samples j-2 .. j+1 (padded[j .. j+3]), centred
    # at (j - 0.5)/src; only the entries idx and idx + 1 are formed.  take()
    # returns row-major blocks, which downstream row means rely on to sum alike.
    taps = [padded.take(idx + k, axis=-1) for k in range(5)]
    below = (taps[0] + taps[1] + taps[2] + taps[3]) / 4.0
    above = (taps[1] + taps[2] + taps[3] + taps[4]) / 4.0
    return below * (1.0 - frac) + above * frac


def resample_record(record, target_rate):
    """Apply :func:`resample` to every channel of a record set."""
    channels = resample(record.channels, record.rate, target_rate)
    return replace(record, rate=float(target_rate), channels=channels)


def measured_snr(clean, noisy):
    """Observed signal-to-noise ratio in dB; +inf for a zero residual."""
    clean = np.asarray(clean, dtype=np.float64)
    noisy = np.asarray(noisy, dtype=np.float64)
    if clean.shape != noisy.shape or clean.size < 2:
        raise ValueError("series must have equal length >= 2")
    resid_power = np.mean((noisy - clean) ** 2)
    if resid_power == 0.0:
        return math.inf
    signal_power = np.mean(clean**2)
    if signal_power == 0.0:
        return -math.inf
    return 10.0 * math.log10(signal_power / resid_power)


def add_noise(record, snr_db, seed):
    """Add zero-mean Gaussian noise at ``snr_db`` to every channel.

    Noise variance is per (channel, bus) series: signal power divided by
    ``10**(snr_db / 10)``.  ``snr_db = inf`` disables noising, and a ratio
    beyond the float range gives a zero scale.  All-zero series are left
    untouched with a warning since no noise scale is definable for them; a
    scale that is not finite raises :class:`ValueError` naming ``snr_db``.
    Deterministic for a given seed.
    """
    if math.isinf(snr_db) and snr_db > 0:
        return record
    powers = np.mean(record.channels**2, axis=2)
    if not powers.any():
        raise ValueError("record has no channel with nonzero power")
    try:
        ratio = 10.0 ** (snr_db / 10.0)
    except OverflowError:
        ratio = math.inf
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        scales = np.sqrt(powers / ratio)
    if not np.isfinite(scales[powers != 0.0]).all():
        raise ValueError(f"snr_db {snr_db} gives a non-finite noise scale")
    rng = np.random.default_rng(seed)
    data = record.channels.copy()
    for (chan, row), p in np.ndenumerate(powers):
        if p == 0.0:
            warnings.warn(
                f"channel {record.CHANNELS[chan]}/bus {record.bus_ids[row]} is all-zero; "
                "noise skipped",
                stacklevel=2,
            )
            continue
        data[chan, row] += rng.normal(0.0, scales[chan, row], record.n_samples)
    return replace(record, channels=data)


def window_samples(rate, t_start, t_stop):
    """Samples a window ``[t_start, t_stop)`` holds at ``rate``."""
    return round(rate * (t_stop - t_start))


def extract_window(record, t_start, t_stop):
    """Crop all channels to ``[t_start, t_stop)``."""
    if not 0.0 <= t_start < t_stop:
        raise ValueError(f"need 0 <= t_start < t_stop, got [{t_start}, {t_stop})")
    if t_stop > record.duration + 1e-9:
        raise ValueError(
            f"window [{t_start}, {t_stop}) exceeds record duration {record.duration}"
        )
    i0 = round(record.rate * t_start)
    count = window_samples(record.rate, t_start, t_stop)
    if i0 + count > record.n_samples:
        raise ValueError("window exceeds record bounds")
    return replace(record, channels=record.channels[:, :, i0 : i0 + count].copy())


def assemble_features(record, features):
    """Flatten selected channels into one vector (feature, bus, time order)."""
    features = features if isinstance(features, FeatureSet) else FeatureSet(features)
    return record.channels[[f.value for f in features]].ravel()


def replace_with_noise(record, feature, seed):
    """Swap one channel for seeded unit-variance Gaussian noise.

    Used to build control datasets in which a candidate feature carries no
    information about the label.
    """
    feature = feature if isinstance(feature, Feature) else _FEATURE_BY_NAME[str(feature)]
    channels = record.channels.copy()
    channels[feature] = np.random.default_rng(seed).standard_normal(channels.shape[1:])
    return replace(record, channels=channels)


@dataclass(frozen=True)
class NormalizationStats:
    """Per (feature, bus) channel extrema used by min/max scaling."""

    minima: np.ndarray
    maxima: np.ndarray

    @property
    def n_channels(self):
        return len(self.minima)


def _channel_view(batch, n_channels):
    batch = np.asarray(batch, dtype=np.float64)
    if batch.ndim != 2 or batch.shape[0] == 0:
        raise ValueError("batch must be a non-empty [n_samples, length] array")
    if batch.shape[1] % n_channels:
        raise ValueError(
            f"tensor length {batch.shape[1]} not divisible into {n_channels} channels"
        )
    return batch.reshape(batch.shape[0], n_channels, -1)


def compute_normalization(batch, n_channels):
    """Channel-wise extrema over a whole batch of flattened tensors."""
    view = _channel_view(batch, n_channels)
    return NormalizationStats(
        minima=view.min(axis=(0, 2)), maxima=view.max(axis=(0, 2))
    )


def apply_normalization(batch, stats):
    """Scale each channel into [0, 1]; constant channels map to zero."""
    view = _channel_view(batch, stats.n_channels)
    span = stats.maxima - stats.minima
    safe = np.where(span > 0.0, span, 1.0)
    scaled = (view - stats.minima[None, :, None]) / safe[None, :, None]
    scaled[:, span == 0.0, :] = 0.0
    return scaled.reshape(view.shape[0], -1)


@dataclass
class Dataset:
    """Normalized training corpus: tensors, labels and pipeline provenance.

    ``tensors`` is a C-contiguous [n_samples, length] float32 array, the
    type the INRDSET1 file stores, so a dataset and its save/load copy hold
    the same values bit for bit; any other input is cast on construction.
    ``labels`` is float64, as stored.  A non-finite value, one beyond the
    float32 range included, raises :class:`ValueError`.
    """

    tensors: np.ndarray
    labels: np.ndarray
    features: FeatureSet
    window: tuple
    snr_db: float
    n_buses: int
    stats: NormalizationStats

    def __post_init__(self):
        with np.errstate(over="ignore"):  # an overflow to inf fails the check below
            self.tensors = np.ascontiguousarray(self.tensors, dtype=np.float32)
        self.labels = np.asarray(self.labels, dtype=np.float64)
        if self.tensors.shape[0] != self.labels.shape[0]:
            raise ValueError("tensors and labels disagree on sample count")
        if not (np.isfinite(self.tensors).all() and np.isfinite(self.labels).all()):
            raise ValueError("dataset holds non-finite tensor values or labels")

    def __len__(self):
        return self.tensors.shape[0]

    @property
    def tensor_length(self):
        return self.tensors.shape[1]

    def subset(self, indices):
        return replace(self, tensors=self.tensors[indices], labels=self.labels[indices])

    def to_bytes(self):
        """Serialize to the documented little-endian container."""
        head = _DATASET_HEADER.pack(
            len(self),
            self.tensor_length,
            self.features.bitmask,
            self.n_buses,
            float(self.window[0]),
            float(self.window[1]),
            float(self.snr_db),
            self.stats.n_channels,
        )
        records = np.empty(len(self), _record_dtype(self.tensor_length))
        records["label"] = self.labels
        records["row"] = self.tensors
        return b"".join([
            DATASET_MAGIC,
            head,
            np.asarray(self.stats.minima, dtype="<f8").tobytes(),
            np.asarray(self.stats.maxima, dtype="<f8").tobytes(),
            records,
        ])

    def save(self, path):
        with open(path, "wb") as fh:
            fh.write(self.to_bytes())

    @classmethod
    def header_from_bytes(cls, blob):
        head = _read_header(blob)
        return {**head, "features": str(head["features"])}

    @classmethod
    def from_bytes(cls, blob):
        head = _read_header(blob)
        n, length, n_chan = head["n_samples"], head["tensor_length"], head["n_channels"]
        off = len(DATASET_MAGIC) + _DATASET_HEADER.size
        minima = np.frombuffer(blob, dtype="<f8", count=n_chan, offset=off).copy()
        off += 8 * n_chan
        maxima = np.frombuffer(blob, dtype="<f8", count=n_chan, offset=off).copy()
        off += 8 * n_chan
        records = np.frombuffer(blob, dtype=_record_dtype(length), count=n, offset=off)
        return cls(
            tensors=records["row"].copy(),
            labels=records["label"].copy(),
            features=head["features"],
            window=head["window"],
            snr_db=head["snr_db"],
            n_buses=head["n_buses"],
            stats=NormalizationStats(minima=minima, maxima=maxima),
        )

    @classmethod
    def load(cls, path):
        with open(path, "rb") as fh:
            return cls.from_bytes(fh.read())


def _record_dtype(length):
    """One packed INRDSET1 sample: float64 label, then its float32 row."""
    return np.dtype([("label", "<f8"), ("row", "<f4", (length,))])


def _read_header(blob):
    """INRDSET1 header fields by name, after checking the magic, that the
    fields agree, and that the blob holds exactly the header, the channel
    extrema and the declared samples (label and float32 row each)."""
    if blob[: len(DATASET_MAGIC)] != DATASET_MAGIC:
        raise ValueError("not a dataset file: bad magic")
    if len(blob) < len(DATASET_MAGIC) + _DATASET_HEADER.size:
        raise ValueError("dataset header truncated")
    n, length, mask, n_buses, t0, t1, snr_db, n_chan = _DATASET_HEADER.unpack_from(
        blob, len(DATASET_MAGIC))
    if not 0 < mask < 1 << len(Feature):
        raise ValueError(f"dataset feature mask {mask} is not a non-empty set of "
                         f"the {len(Feature)} features")
    features = FeatureSet.from_bitmask(mask)
    if n_buses < 1 or n_chan != len(features) * n_buses:
        raise ValueError(f"dataset n_channels {n_chan} is not features x n_buses "
                         f"= {len(features)} x {n_buses} with n_buses >= 1")
    if length == 0 or length % n_chan:
        raise ValueError(f"dataset tensor_length {length} is not a positive multiple "
                         f"of its {n_chan} channels")
    if not 0.0 <= t0 < t1 < math.inf:  # NaN fails too
        raise ValueError(f"dataset window ({t0}, {t1}) needs finite 0 <= start < stop")
    if not -math.inf < snr_db <= math.inf:  # NaN fails too
        raise ValueError(f"dataset snr_db must be a number or +inf, got {snr_db}")
    size = len(DATASET_MAGIC) + _DATASET_HEADER.size + 16 * n_chan + n * (8 + 4 * length)
    if len(blob) != size:
        raise ValueError(f"dataset size mismatch: header declares {size} bytes, "
                         f"file has {len(blob)}")
    return {"n_samples": n, "tensor_length": length, "features": features,
            "n_buses": n_buses, "window": (t0, t1), "snr_db": snr_db, "n_channels": n_chan}
