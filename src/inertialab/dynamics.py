"""Swing-equation time simulation and synthetic PMU acquisition.

The reduced machine network is integrated with a fixed-step RK4 scheme under
a small probing-power injection, and three channels are recorded per
monitored bus at the PMU rate:

* speed deviation (p.u.),
* its time derivative (RoCoF, p.u./s), taken from the right-hand side at the
  sample instant rather than by differencing samples, and
* the voltage-phasor angle deviation from the center-of-inertia reference
  (rad); phasor magnitudes are held at their steady value in this model.

The per-machine dynamics are, in per unit on the system base,

    theta_dot_i = omega_s * dw_i
    m_i * dw_dot_i = p_in_i + u_i(t) - sum_j B_ij sin(theta_i - theta_j)
                     - d_i * dw_i

with u_i the probing injection.  The flat operating point with zero
injections is an exact equilibrium, so everything before the probe (and the
whole trajectory when the probe amplitude is zero) is identically zero.

One integrator steps any number of rows in lockstep, each with its own
swing coefficients m and probe amplitude, and writes the samples straight
into caller-provided [row, bus, sample] buffers.  :func:`integrate` runs it
on a single row; the corpus builder runs it over blocks of whole inertia
groups and reuses the buffers from block to block, so a record built on
them is a view that is only valid until the next block.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "ProbingSignal",
    "SimConfig",
    "PmuRecordSet",
    "InstabilityError",
    "swing_rhs",
    "integrate",
    "single_machine_response",
]

PMU_RECORD_MAGIC = b"PMUREC1"
_RECORD_HEADER = struct.Struct("<dIQddq")
_RECORD_FIELDS = ("rate", "n_buses", "n_samples", "h_sys", "probe_amplitude", "seed")
_RECORD_OFFSET = len(PMU_RECORD_MAGIC) + _RECORD_HEADER.size


class InstabilityError(RuntimeError):
    """A trajectory left the model's validity region (|dw| > 1 p.u. or NaN)."""

    def __init__(self, time, trajectory=0):
        self.time = time
        self.trajectory = trajectory
        super().__init__(f"speed deviation exceeded 1 p.u. or became NaN at t = {time:.6f} s")


@dataclass(frozen=True)
class ProbingSignal:
    """Small power injection used to excite measurable dynamics.

    ``kind`` is ``"step_pulse"`` (rectangular pulse of height ``amplitude``)
    or ``"prbs"`` (seeded pseudo-random +/-amplitude chips of ``prbs_chip``
    seconds).  The signal is active on ``[start, start + duration)`` and zero
    elsewhere.  Amplitude is in p.u. on the system base.
    """

    kind: str = "step_pulse"
    amplitude: float = 0.001
    injection_bus: int | None = None  # None: highest-load generator bus
    start: float = 0.0
    duration: float = 0.5
    prbs_chip: float = 0.02
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("step_pulse", "prbs"):
            raise ValueError(f"unknown probe kind {self.kind!r}")
        if self.amplitude < 0:
            raise ValueError("probe amplitude must be >= 0")
        if self.duration <= 0:
            raise ValueError("probe duration must be > 0")
        if self.start < 0:
            raise ValueError("probe start must be >= 0")
        if self.kind == "prbs" and self.prbs_chip <= 0:
            raise ValueError("prbs chip length must be > 0")


@functools.lru_cache(maxsize=64)
def _prbs_chips(seed, n_chips):
    rng = np.random.default_rng(seed)
    return rng.choice(np.array([-1.0, 1.0]), size=n_chips)


def _base_waveform(spec, t):
    """Waveform at unit amplitude: 0 outside the window, +/-1 inside."""
    if t < spec.start or t >= spec.start + spec.duration:
        return 0.0
    if spec.kind == "step_pulse":
        return 1.0
    n_chips = int(math.ceil(spec.duration / spec.prbs_chip))
    chip = int((t - spec.start) / spec.prbs_chip)
    chip = min(chip, n_chips - 1)
    return float(_prbs_chips(spec.seed, n_chips)[chip])


@dataclass(frozen=True)
class SimConfig:
    """Integration and acquisition settings.

    The integrator step must divide the PMU sample period exactly so that
    samples fall on step boundaries; the default is two steps per sample at
    2880 Hz.  ``t_end`` must cover at least 1.5 s so that both standard
    feature windows can be extracted downstream.
    """

    t_end: float = 1.5
    integrator_step: float = 1.0 / 5760.0
    pmu_rate: float = 2880.0

    def __post_init__(self):
        if self.t_end < 1.5:
            raise ValueError("t_end must be >= 1.5 s")
        if self.integrator_step > 1.0 / self.pmu_rate:
            raise ValueError("integrator step must not exceed the PMU period")
        sps = 1.0 / (self.integrator_step * self.pmu_rate)
        if abs(sps - round(sps)) > 1e-9:
            raise ValueError("PMU period must be an integer number of steps")

    @property
    def steps_per_sample(self):
        return round(1.0 / (self.integrator_step * self.pmu_rate))

    @property
    def n_samples(self):
        return round(self.pmu_rate * self.t_end)


@dataclass
class PmuRecordSet:
    """Per-bus channel series at a common sample rate, plus provenance.

    Channel arrays are stored as C-ordered float64 of shape
    [n_buses, n_samples] (C-ordered float64 input is kept, not copied), so
    row reductions such as ``add_noise``'s power sums see one memory order;
    ``bus_ids`` fixes the row order.
    """

    rate: float
    bus_ids: tuple
    speed: np.ndarray
    rocof: np.ndarray
    angle: np.ndarray
    h_sys: float = float("nan")
    probe_amplitude: float = 0.0
    seed: int = 0

    CHANNELS = ("speed", "rocof", "angle")

    def __post_init__(self):
        for name in self.CHANNELS:
            setattr(self, name, np.ascontiguousarray(getattr(self, name), dtype=np.float64))
        shapes = {self.speed.shape, self.rocof.shape, self.angle.shape}
        if len(shapes) != 1:
            raise ValueError("channel arrays must share one shape")
        if self.speed.shape[0] != len(self.bus_ids):
            raise ValueError("channel rows must match bus_ids")

    @property
    def n_samples(self):
        return self.speed.shape[1]

    @property
    def duration(self):
        return self.n_samples / self.rate

    def channel(self, name):
        return getattr(self, name)

    def save(self, path):
        """Write the documented little-endian binary container."""
        with open(path, "wb") as fh:
            fh.write(PMU_RECORD_MAGIC)
            fh.write(
                _RECORD_HEADER.pack(
                    self.rate,
                    len(self.bus_ids),
                    self.n_samples,
                    self.h_sys,
                    self.probe_amplitude,
                    self.seed,
                )
            )
            fh.write(np.asarray(self.bus_ids, dtype="<u4").tobytes())
            for name in self.CHANNELS:
                fh.write(np.ascontiguousarray(self.channel(name), dtype="<f4").tobytes())

    @classmethod
    def header_from_bytes(cls, blob):
        """Fixed header fields of a record container, after checking its size.

        The blob must hold exactly the magic, the header, the bus ids and the
        three float32 channels it declares: nothing less, nothing trailing.
        """
        magic = blob[: len(PMU_RECORD_MAGIC)]
        if magic != PMU_RECORD_MAGIC:
            raise ValueError(f"not a PMU record file: bad magic {magic!r}")
        if len(blob) < _RECORD_OFFSET:
            raise ValueError("PMU record header truncated")
        header = dict(
            zip(_RECORD_FIELDS, _RECORD_HEADER.unpack_from(blob, len(PMU_RECORD_MAGIC)))
        )
        n_values = header["n_buses"] * (1 + len(cls.CHANNELS) * header["n_samples"])
        size = _RECORD_OFFSET + 4 * n_values
        if len(blob) != size:
            raise ValueError(f"PMU record size mismatch: header declares {size} bytes, "
                             f"file has {len(blob)}")
        return header

    @classmethod
    def load(cls, path):
        with open(path, "rb") as fh:
            blob = fh.read()
        header = cls.header_from_bytes(blob)
        n_buses, n_samples = header.pop("n_buses"), header.pop("n_samples")
        bus_ids = np.frombuffer(blob, dtype="<u4", count=n_buses, offset=_RECORD_OFFSET)
        off = _RECORD_OFFSET + 4 * n_buses
        chans = {}
        for name in cls.CHANNELS:
            chans[name] = (
                np.frombuffer(blob, dtype="<f4", count=n_buses * n_samples, offset=off)
                .reshape(n_buses, n_samples)
                .astype(np.float64)
            )
            off += 4 * n_buses * n_samples
        return cls(bus_ids=tuple(bus_ids.tolist()), **header, **chans)


def _swing_derivative(net, theta, dw, injection=None):
    """Derivatives (theta_dot, dw_dot) of angle and speed rows of shape [..., n].

    ``injection`` is the probe power per machine (p.u.) broadcast against the
    rows; ``None`` means the probe is off and skips the add.
    """
    s, c = np.sin(theta), np.cos(theta)
    p_elec = s * (c @ net.coupling) - c * (s @ net.coupling)
    drive = net.injections if injection is None else net.injections + injection
    return net.sync_speed * dw, (drive - p_elec - net.damping * dw) / net.inertia


def swing_rhs(state, net, injection):
    """Time derivative of the stacked state [theta, dw] under ``injection``.

    ``injection`` is the per-machine power input (p.u.) at the evaluated
    instant.  Returns the stacked derivative [theta_dot, dw_dot].
    """
    state = np.asarray(state, dtype=np.float64)
    n = net.n
    if state.shape != (2 * n,):
        raise ValueError(f"state must have shape ({2 * n},), got {state.shape}")
    injection = np.asarray(injection, dtype=np.float64)
    if injection.shape != (n,):
        raise ValueError(f"injection must have shape ({n},), got {injection.shape}")
    return np.concatenate(_swing_derivative(net, state[:n], state[n:], injection))


def single_machine_response(inertia_coeff, damping, power_step, t):
    """Closed-form speed deviation of one machine under a constant step.

    Solves ``m * dw_dot + d * dw = dp`` from rest:
    ``dw(t) = (dp / d) * (1 - exp(-d t / m))``.  Serves as the independent
    oracle for the numerical integrator.
    """
    if inertia_coeff <= 0:
        raise ValueError("inertia coefficient must be > 0")
    if damping <= 0:
        raise ValueError("damping must be > 0")
    return (power_step / damping) * (1.0 - np.exp(-damping * np.asarray(t) / inertia_coeff))


def _injection_row(net, probe):
    """Unit-amplitude machine injection vector for the probe's target bus."""
    bus = probe.injection_bus
    if bus is None:
        raise ValueError("probe injection bus was not resolved against a grid")
    if bus not in net.buses:
        raise ValueError(f"injection bus {bus} is not a machine bus of the network")
    row = np.zeros(net.n)
    row[net.machine_index(bus)] = 1.0
    return row


def _integrate_rows(net, probe, cfg, inertia, amplitudes, monitored, out):
    """Integrate one probe shape over many rows in lockstep, into ``out``.

    Row r is the network ``net`` with swing coefficients ``inertia[r]`` (an
    array of shape [rows, n]) probed at ``amplitudes[r]``.  Rows share
    timing, coupling, damping, injections and the PRBS chip sequence, so
    they ride through the RK4 loop together.  ``out`` holds the speed, RoCoF
    and angle buffers, each C-ordered float64 of shape
    [rows, len(monitored), n_samples]; they are overwritten sample by
    sample.  A row whose speed deviation exceeds 1 p.u. or is NaN raises
    :class:`InstabilityError` at the first sample instant where any row
    does so, naming the row with the largest deviation at that instant.
    """
    amplitudes = np.asarray(amplitudes, dtype=np.float64)
    keep = np.array([net.machine_index(b) for b in monitored], dtype=np.intp)
    speed, rocof, angle = out

    inj = amplitudes[:, None] * _injection_row(net, probe)[None, :]  # [rows, n]
    m_total = inertia.sum(axis=1)
    # only the inertia differs between rows; _swing_derivative divides by it
    net = replace(net, inertia=inertia)

    n_samples = cfg.n_samples
    sps = cfg.steps_per_sample
    steps_hz = float(cfg.pmu_rate * sps)
    total_steps = (n_samples - 1) * sps

    theta = np.zeros(inj.shape)
    dw = np.zeros(inj.shape)

    def rhs(t, th, w):
        u = _base_waveform(probe, t)
        return _swing_derivative(net, th, w, u * inj if u else None)

    h = 1.0 / steps_hz
    for step in range(total_steps + 1):
        t = step / steps_hz
        k1t, k1w = rhs(t, theta, dw)
        if step % sps == 0:
            j = step // sps
            if not (np.abs(dw).max() <= 1.0):  # a NaN deviation fails too
                raise InstabilityError(t, int(np.argmax(np.abs(dw).max(axis=1))))
            speed[:, :, j] = dw[:, keep]
            rocof[:, :, j] = k1w[:, keep]
            coi = (theta * inertia).sum(axis=1) / m_total  # center-of-inertia angle
            angle[:, :, j] = theta[:, keep] - coi[:, None]
        if step == total_steps:
            break
        half = 0.5 * h
        k2t, k2w = rhs(t + half, theta + half * k1t, dw + half * k1w)
        k3t, k3w = rhs(t + half, theta + half * k2t, dw + half * k2w)
        k4t, k4w = rhs(t + h, theta + h * k3t, dw + h * k3w)
        theta = theta + (h / 6.0) * (k1t + 2.0 * k2t + 2.0 * k3t + k4t)
        dw = dw + (h / 6.0) * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)


def integrate(net, probe, cfg, monitored=None, h_sys=float("nan")):
    """Simulate the probing experiment and return the PMU record set.

    ``monitored`` restricts the recorded buses (defaults to every machine
    bus, which for the bundled case is exactly the PMU set).  ``h_sys`` is
    carried as label metadata.
    """
    monitored = net.buses if monitored is None else monitored
    speed, rocof, angle = out = [
        np.empty((1, len(monitored), cfg.n_samples)) for _ in PmuRecordSet.CHANNELS
    ]
    _integrate_rows(
        net, probe, cfg, net.inertia[None, :], [probe.amplitude], monitored, out
    )
    return PmuRecordSet(
        rate=float(cfg.pmu_rate),
        bus_ids=tuple(monitored),
        speed=speed[0],
        rocof=rocof[0],
        angle=angle[0],
        h_sys=h_sys,
        probe_amplitude=probe.amplitude,
        seed=probe.seed,
    )
