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
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ProbingSignal",
    "SimConfig",
    "PmuRecordSet",
    "InstabilityError",
    "probe_waveform",
    "swing_rhs",
    "integrate",
    "single_machine_response",
]

PMU_RECORD_MAGIC = b"PMUREC1"
_RECORD_HEADER = struct.Struct("<dIQddq")
_RECORD_FIELDS = ("rate", "n_buses", "n_samples", "h_sys", "probe_amplitude", "seed")


class InstabilityError(RuntimeError):
    """A trajectory left the model's validity region (|dw| > 1 p.u.)."""

    def __init__(self, time, trajectory=0):
        self.time = time
        self.trajectory = trajectory
        super().__init__(f"speed deviation exceeded 1 p.u. at t = {time:.6f} s")


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


def probe_waveform(spec, t):
    """Injected power (p.u.) of probe ``spec`` at time ``t >= 0``."""
    if t < 0:
        raise ValueError("time must be >= 0")
    return spec.amplitude * _base_waveform(spec, t)


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
    reference: str = "center_of_inertia"

    def __post_init__(self):
        if self.t_end < 1.5:
            raise ValueError("t_end must be >= 1.5 s")
        if self.integrator_step > 1.0 / self.pmu_rate:
            raise ValueError("integrator step must not exceed the PMU period")
        sps = 1.0 / (self.integrator_step * self.pmu_rate)
        if abs(sps - round(sps)) > 1e-9:
            raise ValueError("PMU period must be an integer number of steps")
        if self.reference != "center_of_inertia":
            raise ValueError(f"unknown angle reference {self.reference!r}")

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

    @staticmethod
    def read_header(fh):
        """Magic and fixed header of a record container, read from a binary stream."""
        magic = fh.read(len(PMU_RECORD_MAGIC))
        if magic != PMU_RECORD_MAGIC:
            raise ValueError(f"not a PMU record file: bad magic {magic!r}")
        raw = fh.read(_RECORD_HEADER.size)
        if len(raw) < _RECORD_HEADER.size:
            raise ValueError("PMU record header truncated")
        return dict(zip(_RECORD_FIELDS, _RECORD_HEADER.unpack(raw)))

    @classmethod
    def load(cls, path):
        with open(path, "rb") as fh:
            header = cls.read_header(fh)
            n_buses, n_samples = header.pop("n_buses"), header.pop("n_samples")
            bus_ids = tuple(np.frombuffer(fh.read(4 * n_buses), dtype="<u4").tolist())
            chans = {}
            for name in cls.CHANNELS:
                raw = fh.read(4 * n_buses * n_samples)
                chans[name] = (
                    np.frombuffer(raw, dtype="<f4")
                    .reshape(n_buses, n_samples)
                    .astype(np.float64)
                )
        return cls(bus_ids=bus_ids, **header, **chans)


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


def _integrate_amplitudes(net, probe, cfg, amplitudes, monitored):
    """Integrate one probe shape at several amplitudes in lockstep.

    All trajectories share timing, topology and the PRBS chip sequence; they
    differ only in the injected amplitude, so they can ride through the RK4
    loop together.  Returns one [n_traj, n_bus, n_samples] array per channel.
    """
    amplitudes = np.asarray(amplitudes, dtype=np.float64)
    k = len(amplitudes)
    n = net.n
    keep = np.array([net.machine_index(b) for b in monitored], dtype=np.intp)

    inj = amplitudes[:, None] * _injection_row(net, probe)[None, :]  # [k, n]
    m = net.inertia
    m_total = m.sum()

    n_samples = cfg.n_samples
    sps = cfg.steps_per_sample
    steps_hz = float(cfg.pmu_rate * sps)
    total_steps = (n_samples - 1) * sps

    theta = np.zeros((k, n))
    dw = np.zeros((k, n))
    speed = np.empty((n_samples, k, n))
    rocof = np.empty((n_samples, k, n))
    angle = np.empty((n_samples, k, n))

    def rhs(t, th, w):
        u = _base_waveform(probe, t)
        return _swing_derivative(net, th, w, u * inj if u else None)

    h = 1.0 / steps_hz
    for step in range(total_steps + 1):
        t = step / steps_hz
        k1t, k1w = rhs(t, theta, dw)
        if step % sps == 0:
            j = step // sps
            per_traj_peak = np.abs(dw).max(axis=1)
            if per_traj_peak.max() > 1.0:
                raise InstabilityError(t, int(np.argmax(per_traj_peak)))
            speed[j] = dw
            rocof[j] = k1w
            angle[j] = theta - ((theta * m).sum(axis=1) / m_total)[:, None]
        if step == total_steps:
            break
        half = 0.5 * h
        k2t, k2w = rhs(t + half, theta + half * k1t, dw + half * k1w)
        k3t, k3w = rhs(t + half, theta + half * k2t, dw + half * k2w)
        k4t, k4w = rhs(t + h, theta + h * k3t, dw + h * k3w)
        theta = theta + (h / 6.0) * (k1t + 2.0 * k2t + 2.0 * k3t + k4t)
        dw = dw + (h / 6.0) * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)

    # [amplitude, bus, sample] in C order, so PmuRecordSet keeps the rows
    # without a copy; filled bus by bus because take() would first copy the
    # whole strided source
    out = []
    for ch in (speed, rocof, angle):
        series = np.empty((ch.shape[1], len(keep), ch.shape[0]))
        for row, machine in enumerate(keep):
            series[:, row, :] = ch[:, :, machine].T
        out.append(series)
    return tuple(out)


def integrate(net, probe, cfg, monitored=None, h_sys=float("nan")):
    """Simulate the probing experiment and return the PMU record set.

    ``monitored`` restricts the recorded buses (defaults to every machine
    bus, which for the bundled case is exactly the PMU set).  ``h_sys`` is
    carried as label metadata.
    """
    monitored = net.buses if monitored is None else monitored
    speed, rocof, angle = _integrate_amplitudes(
        net, probe, cfg, [probe.amplitude], monitored
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
