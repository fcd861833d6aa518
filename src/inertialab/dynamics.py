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
It holds the last ``SAMPLE_CHUNK`` samples' states and RoCoF rows and
writes them, ``SAMPLE_CHUNK`` samples at a time, into one caller-provided
[row, channel, bus, sample] buffer, channels in
:attr:`PmuRecordSet.CHANNELS` order.
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

# PMU samples the integrator holds before it writes them into its output
SAMPLE_CHUNK = 64

# RK4 steps one run may take: over 100 times the 8,638 of the default SimConfig
MAX_STEPS = 1_000_000


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
        for name in ("amplitude", "start"):  # NaN fails each bound too
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"probe {name} must be finite and >= 0, got {getattr(self, name)}")
        for name in ("duration", "prbs_chip"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"probe {name} must be finite and > 0, got {getattr(self, name)}")
        object.__setattr__(self, "seed", integer_at_least("probe seed", self.seed, 0))
        if self.injection_bus is not None:
            object.__setattr__(self, "injection_bus", integer_at_least(
                "probe injection_bus", self.injection_bus, 0))


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
    feature windows can be extracted downstream, and a run may take at most
    ``MAX_STEPS`` RK4 steps, so a tiny step or a huge ``t_end`` fails here
    rather than simulating for hours.
    """

    t_end: float = 1.5
    integrator_step: float = 1.0 / 5760.0
    pmu_rate: float = 2880.0

    def __post_init__(self):
        if not 1.5 <= self.t_end < math.inf:  # NaN fails each bound too
            raise ValueError(f"sim t_end must be finite and >= 1.5 s, got {self.t_end}")
        for name in ("integrator_step", "pmu_rate"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"sim {name} must be finite and > 0, got {getattr(self, name)}")
        sps = 1.0 / self.pmu_rate / self.integrator_step  # steps per PMU sample
        if not 1 - 1e-9 <= sps < math.inf or abs(sps - round(sps)) > 1e-9:
            raise ValueError(f"sim integrator_step must divide the PMU period, got {sps} steps")
        if not self.pmu_rate * self.t_end < math.inf or self.n_steps > MAX_STEPS:
            raise ValueError(f"sim integrator_step {self.integrator_step} s over t_end "
                             f"{self.t_end} s takes more than {MAX_STEPS} RK4 steps")

    @property
    def steps_per_sample(self):
        return round(1.0 / (self.integrator_step * self.pmu_rate))

    @property
    def n_samples(self):
        return round(self.pmu_rate * self.t_end)

    @property
    def n_steps(self):
        """RK4 steps of one run: from the first PMU sample to the last."""
        return (self.n_samples - 1) * self.steps_per_sample


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
    the (theta, dw) pair ``y`` of [rows, n] arrays to the (theta_dot, dw_dot)
    pair ``out`` under ``drive`` (p.u.)."""
    sc, prod = np.empty((2, 2, rows, net.n))  # [sin, cos], their products
    (s, c), (p_elec, p_damp), cs = sc, prod, sc[::-1]
    # local names and positional outputs spare each call an attribute lookup
    # and numpy's keyword parsing, which an RK4 step pays 40 times
    coupling, damping, inertia, sync_speed = net.coupling, net.damping, net.inertia, net.sync_speed
    sin, cos, matmul, multiply, subtract, divide = (
        np.sin, np.cos, np.matmul, np.multiply, np.subtract, np.divide)

    def rhs(y, drive, out):  # each ufunc's last argument is its output
        theta, dw = y
        theta_dot, dw_dot = out
        sin(theta, s)
        cos(theta, c)
        matmul(cs, coupling, prod)  # [c @ B, s @ B]
        multiply(sc, prod, sc)  # [s * (c @ B), c * (s @ B)]
        subtract(s, c, p_elec)
        subtract(drive, p_elec, dw_dot)
        multiply(damping, dw, p_damp)
        subtract(dw_dot, p_damp, dw_dot)
        divide(dw_dot, inertia, dw_dot)
        multiply(sync_speed, dw, theta_dot)

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
    :attr:`PmuRecordSet.CHANNELS` order.  Each sample copies the state and
    the RoCoF row into a time-major [SAMPLE_CHUNK, 3, rows, n] buffer, which
    is written into ``out`` every ``SAMPLE_CHUNK`` samples and at the last
    one.  A row whose speed deviation exceeds 1 p.u. or is NaN raises
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

    # per sample: theta, dw and dw_dot; written into out by flush
    pending = np.empty((SAMPLE_CHUNK, 3, *inj.shape))
    pending_y, pending_rocof = pending[:, :2], pending[:, 2]

    def flush(j0, j1):
        """Write samples j0..j1-1, held in pending[:j1 - j0], into out."""
        chunk = pending[:j1 - j0, :, :, keep]  # [sample, (theta, dw, dw_dot), row, bus]
        coi = (pending[:j1 - j0, 0] * inertia).sum(axis=2) / m_total  # center-of-inertia angle
        np.subtract(chunk[:, 0], coi[:, :, None], out=chunk[:, 0])
        out[:, :, :, j0:j1] = chunk[:, [1, 2, 0]].transpose(2, 1, 3, 0)

    sps = cfg.steps_per_sample
    steps_hz = float(cfg.pmu_rate * sps)
    total_steps = cfg.n_steps

    y, stage = np.zeros((2, 2, *inj.shape))  # stage: the stage state, then the RK4 increment
    k = np.empty((4, *y.shape))
    k1, k2, k3, k4 = k
    k23 = k[1:3]
    # (theta, dw) views, split once: rhs unpacks a tuple faster than an array
    y_views, stage_views = tuple(y), tuple(stage)
    k1_views, k2_views, k3_views, k4_views = (tuple(ki) for ki in k)
    dw = y[1]

    h = 1.0 / steps_hz
    half, h6 = 0.5 * h, h / 6.0
    abs_dw = np.empty_like(dw)
    multiply, add, copyto = np.multiply, np.add, np.copyto
    for step in range(total_steps + 1):
        t = step / steps_hz
        rhs(y_views, drive(t), k1_views)
        if step % sps == 0:
            j = step // sps
            if not (np.abs(dw, abs_dw).max() <= 1.0):  # a NaN deviation fails too
                raise InstabilityError(t, int(np.argmax(abs_dw.max(axis=1))))
            i = j % SAMPLE_CHUNK
            copyto(pending_y[i], y)
            copyto(pending_rocof[i], k1[1])
            if i == SAMPLE_CHUNK - 1 or step == total_steps:
                flush(j - i, j + 1)
        if step == total_steps:
            break
        # stage k at t + dt from y + dt * k_prev; the midpoints share one drive
        mid = drive(t + half)
        multiply(half, k1, stage)
        add(y, stage, stage)
        rhs(stage_views, mid, k2_views)
        multiply(half, k2, stage)
        add(y, stage, stage)
        rhs(stage_views, mid, k3_views)
        multiply(h, k3, stage)
        add(y, stage, stage)
        rhs(stage_views, drive(t + h), k4_views)
        # y += (h / 6) * (((k1 + 2 k2) + 2 k3) + k4)
        multiply(2.0, k23, k23)
        add(k1, k2, stage)
        add(stage, k3, stage)
        add(stage, k4, stage)
        multiply(h6, stage, stage)
        add(y, stage, y)


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
