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

One integrator steps any number of rows in lockstep as one [2, rows, n]
state (theta, dw), each row with its own swing coefficients m and probe
amplitude.  Its RK4 stages and work arrays are allocated once and written
in place, yet every element sees a plain RK4 loop's operations in order,
so the outputs keep their bits; :func:`swing_rhs` is its kernel on one row.
It writes the samples straight into one caller-provided [row, channel,
bus, sample] buffer, channels in :attr:`PmuRecordSet.CHANNELS` order.
:func:`integrate` runs it on a single row; the corpus builder runs it over
blocks of whole inertia groups and reuses the buffer from block to block,
so a record built on ``buffer[row]`` is a view valid until the next block.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .checks import integer_at_least

__all__ = [
    "ProbingSignal",
    "SimConfig",
    "PmuRecordSet",
    "InstabilityError",
    "swing_rhs",
    "integrate",
    "single_machine_response",
]


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
        object.__setattr__(self, "seed", integer_at_least("probe seed", self.seed, 0))


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

    ``channels`` is C-ordered float64 of shape [3, n_buses, n_samples]
    (C-ordered float64 input is kept, not copied), so row reductions such
    as ``add_noise``'s power sums see one memory order.  Its first axis
    follows ``CHANNELS`` and ``bus_ids`` fixes the row order.
    """

    rate: float
    bus_ids: tuple
    channels: np.ndarray
    h_sys: float = float("nan")
    seed: int = 0

    CHANNELS = ("speed", "rocof", "angle")

    def __post_init__(self):
        self.channels = np.ascontiguousarray(self.channels, dtype=np.float64)
        shape = self.channels.shape
        if len(shape) != 3 or shape[:2] != (len(self.CHANNELS), len(self.bus_ids)):
            raise ValueError(f"channels must have shape [3, {len(self.bus_ids)}, n], got {shape}")

    @property
    def n_samples(self):
        return self.channels.shape[2]

    @property
    def duration(self):
        return self.n_samples / self.rate


def _swing_kernel(net, rows):
    """The swing right-hand side as ``rhs(y, drive, out)``, allocating nothing:
    [2, rows, n] (theta, dw) to (theta_dot, dw_dot) under ``drive`` (p.u.)."""
    sc, prod = np.empty((2, 2, rows, net.n))  # [sin, cos], their products
    (s, c), (p_elec, p_damp), swapped = sc, prod, prod[::-1]

    def rhs(y, drive, out):
        theta, dw = y
        theta_dot, dw_dot = out
        np.sin(theta, out=s)
        np.cos(theta, out=c)
        np.matmul(sc, net.coupling, out=prod)  # [s @ B, c @ B]
        np.multiply(sc, swapped, out=sc)  # [s * (c @ B), c * (s @ B)]
        np.subtract(s, c, out=p_elec)
        np.subtract(drive, p_elec, out=dw_dot)
        np.multiply(net.damping, dw, out=p_damp)
        np.subtract(dw_dot, p_damp, out=dw_dot)
        np.divide(dw_dot, net.inertia, out=dw_dot)
        np.multiply(net.sync_speed, dw, out=theta_dot)

    return rhs


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
    out = np.empty((2, 1, n))
    _swing_kernel(net, 1)(state.reshape(2, 1, n), net.injections + injection, out)
    return out.reshape(2 * n)


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
    they ride through the RK4 loop together as one stacked state, with the
    drive formed once per waveform value.  ``out`` is a C-ordered float64
    buffer of shape [rows, 3, len(monitored), n_samples], channels in
    :attr:`PmuRecordSet.CHANNELS` order; it is overwritten sample by
    sample.  A row whose speed deviation exceeds 1 p.u. or is NaN raises
    :class:`InstabilityError` at the first sample instant where any row
    does so, naming the row with the largest deviation at that instant.
    """
    amplitudes = np.asarray(amplitudes, dtype=np.float64)
    keep = np.array([net.machine_index(b) for b in monitored], dtype=np.intp)

    inj = amplitudes[:, None] * _injection_row(net, probe)[None, :]  # [rows, n]
    m_total = inertia.sum(axis=1)
    # per-row damping and zero-waveform drive: a broadcast [n] operand makes
    # each ufunc loop row by row, about 5 % of a step on a 60-row desk block
    net = replace(net, inertia=inertia, damping=np.tile(net.damping, (len(inj), 1)))
    rhs = _swing_kernel(net, len(inj))
    drives = {0.0: np.tile(net.injections, (len(inj), 1))}  # a zero waveform adds nothing

    def drive(t):
        u = _base_waveform(probe, t)
        if u not in drives:
            drives[u] = net.injections + u * inj
        return drives[u]

    n_samples = cfg.n_samples
    sps = cfg.steps_per_sample
    steps_hz = float(cfg.pmu_rate * sps)
    total_steps = (n_samples - 1) * sps

    y = np.zeros((2, *inj.shape))
    theta, dw = y
    k1, k2, k3, k4 = k = np.empty((4, *y.shape))
    stage = np.empty_like(y)  # the stage state, then the RK4 increment

    h = 1.0 / steps_hz
    stages = ((k1, k2, 0.5 * h), (k2, k3, 0.5 * h), (k3, k4, h))
    for step in range(total_steps + 1):
        t = step / steps_hz
        rhs(y, drive(t), k1)
        if step % sps == 0:
            j = step // sps
            if not (np.abs(dw).max() <= 1.0):  # a NaN deviation fails too
                raise InstabilityError(t, int(np.argmax(np.abs(dw).max(axis=1))))
            out[:, 0, :, j] = dw[:, keep]
            out[:, 1, :, j] = k1[1][:, keep]
            coi = (theta * inertia).sum(axis=1) / m_total  # center-of-inertia angle
            out[:, 2, :, j] = theta[:, keep] - coi[:, None]
        if step == total_steps:
            break
        for k_in, k_out, dt in stages:  # k_out at t + dt, y + dt * k_in
            np.multiply(dt, k_in, out=stage)
            np.add(y, stage, out=stage)
            rhs(stage, drive(t + dt), k_out)
        # y += (h / 6) * (((k1 + 2 k2) + 2 k3) + k4)
        np.multiply(2.0, k[1:3], out=k[1:3])
        np.add(k1, k2, out=stage)
        np.add(stage, k3, out=stage)
        np.add(stage, k4, out=stage)
        np.multiply(h / 6.0, stage, out=stage)
        np.add(y, stage, out=y)


def integrate(net, probe, cfg, monitored=None, h_sys=float("nan")):
    """Simulate the probing experiment and return the PMU record set.

    ``monitored`` restricts the recorded buses (defaults to every machine
    bus, which for the bundled case is exactly the PMU set).  ``h_sys`` is
    carried as label metadata.
    """
    monitored = net.buses if monitored is None else monitored
    out = np.empty((1, len(PmuRecordSet.CHANNELS), len(monitored), cfg.n_samples))
    _integrate_rows(
        net, probe, cfg, net.inertia[None, :], [probe.amplitude], monitored, out
    )
    return PmuRecordSet(
        rate=float(cfg.pmu_rate),
        bus_ids=tuple(monitored),
        channels=out[0],
        h_sys=h_sys,
        seed=probe.seed,
    )
