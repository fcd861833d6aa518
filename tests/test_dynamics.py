"""Probe waveforms, swing integration and the PMU record container."""

import math
from dataclasses import replace

import numpy as np
import pytest

from inertialab.dynamics import (
    InstabilityError,
    PmuRecordSet,
    ProbingSignal,
    SimConfig,
    _base_waveform,
    _integrate_rows,
    integrate,
    single_machine_response,
    swing_rhs,
)
from inertialab.grid import (
    ReducedNetwork,
    build_reduced_network,
    load_default_case,
    scale_to_target_inertia,
)
from inertialab.signals import Feature

SPEED, ROCOF, ANGLE = Feature.SPEED, Feature.ROCOF, Feature.ANGLE

OMEGA = 2.0 * math.pi * 60.0


def single_machine_net(m=8.0, d=1.0):
    return ReducedNetwork(
        buses=(1,),
        coupling=np.zeros((1, 1)),
        inertia=np.array([m]),
        damping=np.array([d]),
        injections=np.zeros(1),
        sync_speed=OMEGA,
    )


def two_machine_net(m=(1.0, 1.0), d=(0.1, 0.1), b=2.0):
    coupling = np.array([[-b, b], [b, -b]])
    return ReducedNetwork(
        buses=(1, 2),
        coupling=coupling,
        inertia=np.asarray(m, dtype=float),
        damping=np.asarray(d, dtype=float),
        injections=np.zeros(2),
        sync_speed=OMEGA,
    )


class TestProbeWaveform:
    def test_quiescent_before_start(self):
        spec = ProbingSignal(amplitude=0.001, injection_bus=1, start=0.25)
        assert spec.amplitude * _base_waveform(spec, 0.1) == 0.0

    def test_step_amplitude_inside_window(self):
        spec = ProbingSignal(amplitude=0.001, injection_bus=1, start=0.0, duration=0.5)
        assert spec.amplitude * _base_waveform(spec, 0.2) == 0.001

    def test_half_open_window(self):
        spec = ProbingSignal(amplitude=0.001, injection_bus=1, start=0.25, duration=0.25)
        assert spec.amplitude * _base_waveform(spec, 0.25) == 0.001
        assert spec.amplitude * _base_waveform(spec, 0.5) == 0.0

    def test_prbs_chip_values_and_mean(self):
        spec = ProbingSignal(
            kind="prbs",
            amplitude=0.002,
            injection_bus=1,
            start=0.0,
            duration=30.0,
            prbs_chip=0.02,
            seed=7,
        )
        times = (np.arange(1500) + 0.5) * 0.02  # chip centers, 1500 chips
        values = np.array([spec.amplitude * _base_waveform(spec, t) for t in times])
        assert set(np.round(np.abs(values), 12)) == {0.002}
        assert abs(values.mean()) < 0.1 * spec.amplitude

    def test_prbs_deterministic_under_seed(self):
        spec = ProbingSignal(kind="prbs", amplitude=1.0, injection_bus=1, duration=1.0,
                             prbs_chip=0.1, seed=3)
        again = ProbingSignal(kind="prbs", amplitude=1.0, injection_bus=1, duration=1.0,
                              prbs_chip=0.1, seed=3)
        ts = np.linspace(0.0, 0.99, 37)
        assert [spec.amplitude * _base_waveform(spec, t) for t in ts] == [
            again.amplitude * _base_waveform(again, t) for t in ts
        ]

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            ProbingSignal(kind="triangle")
        with pytest.raises(ValueError):
            ProbingSignal(amplitude=-1.0)
        with pytest.raises(ValueError):
            ProbingSignal(duration=0.0)
        with pytest.raises(ValueError, match="seed"):
            ProbingSignal(seed=-1)
        with pytest.raises(ValueError, match="probe seed"):
            ProbingSignal(seed=0.5)


class TestSwingRhs:
    def test_equilibrium_fixed_point(self):
        net = two_machine_net()
        state = np.zeros(4)
        deriv = swing_rhs(state, net, np.zeros(2))
        assert np.all(deriv == 0.0)

    def test_antisymmetric_perturbation(self):
        net = two_machine_net()
        state = np.array([0.01, -0.01, 0.002, -0.002])
        deriv = swing_rhs(state, net, np.zeros(2))
        assert deriv[0] == pytest.approx(-deriv[1], rel=1e-12)
        assert deriv[2] == pytest.approx(-deriv[3], rel=1e-12)

    def test_dimension_mismatch(self):
        net = two_machine_net()
        with pytest.raises(ValueError):
            swing_rhs(np.zeros(3), net, np.zeros(2))
        with pytest.raises(ValueError):
            swing_rhs(np.zeros(4), net, np.zeros(3))

    def test_energy_bookkeeping_oracle(self):
        """dE/dt from central differences matches the dissipation identity.

        E = omega_s * sum(m dw^2)/2 - sum_{i<j} B_ij cos(theta_i - theta_j);
        along trajectories dE/dt = -omega_s * sum(d dw^2) with no injection.
        """
        rng = np.random.default_rng(11)
        coupling = rng.uniform(0.5, 2.0, size=(3, 3))
        coupling = (coupling + coupling.T) / 2.0
        np.fill_diagonal(coupling, 0.0)
        np.fill_diagonal(coupling, -coupling.sum(axis=1))
        net = ReducedNetwork(
            buses=(1, 2, 3),
            coupling=coupling,
            inertia=rng.uniform(0.5, 2.0, 3),
            damping=rng.uniform(0.05, 0.2, 3),
            injections=np.zeros(3),
            sync_speed=OMEGA,
        )

        def energy(state):
            theta, dw = state[:3], state[3:]
            kinetic = 0.5 * OMEGA * float(net.inertia @ dw**2)
            potential = -sum(
                net.coupling[i, j] * math.cos(theta[i] - theta[j])
                for i in range(3)
                for j in range(i + 1, 3)
            )
            return kinetic + potential

        state = np.concatenate([rng.uniform(-0.05, 0.05, 3), rng.uniform(-1e-3, 1e-3, 3)])
        deriv = swing_rhs(state, net, np.zeros(3))
        eps = 1e-4  # large enough that the E(x+eps f) - E(x-eps f) difference
        # stays clear of float cancellation (E is O(1), dE/dt is O(1e-5))
        numeric = (energy(state + eps * deriv) - energy(state - eps * deriv)) / (2 * eps)
        expected = -OMEGA * float(net.damping @ state[3:] ** 2)
        assert numeric == pytest.approx(expected, rel=1e-4, abs=1e-12)


class TestSingleMachineResponse:
    def test_starts_at_zero(self):
        assert single_machine_response(8.0, 1.0, 0.01, 0.0) == 0.0

    def test_steady_state(self):
        m, d, dp = 6.0, 1.2, 0.02
        value = single_machine_response(m, d, dp, 50.0 * m / d)
        assert value == pytest.approx(dp / d, rel=1e-6)

    def test_arithmetic_oracle(self):
        # frozen from an independent evaluation of (dp/d)(1 - exp(-d t/m))
        assert single_machine_response(8.0, 1.0, 0.01, 4.0) == pytest.approx(
            0.003934693402873665, rel=1e-14
        )

    @pytest.mark.parametrize("m,d", [(0.0, 1.0), (1.0, 0.0), (-1.0, 1.0)])
    def test_domain(self, m, d):
        with pytest.raises(ValueError):
            single_machine_response(m, d, 0.01, 1.0)


class TestIntegrate:
    def test_zero_probe_is_quiescent(self):
        net = two_machine_net()
        probe = ProbingSignal(amplitude=0.0, injection_bus=1)
        rec = integrate(net, probe, SimConfig())
        assert np.all(rec.channels == 0.0)

    def test_matches_closed_form(self):
        net = single_machine_net(m=8.0, d=1.0)
        probe = ProbingSignal(amplitude=0.001, injection_bus=1, duration=2.0)
        cfg = SimConfig(t_end=1.5)
        rec = integrate(net, probe, cfg)
        t = np.arange(rec.n_samples) / rec.rate
        ref = single_machine_response(8.0, 1.0, 0.001, t)
        assert np.abs(rec.channels[SPEED, 0] - ref).max() < 1e-6

    def test_rocof_is_swing_rhs_at_recorded_state(self):
        """The integrator's RoCoF channel is swing_rhs itself, bit for bit."""
        net = single_machine_net(m=8.0, d=1.0)
        probe = ProbingSignal(amplitude=0.001, injection_bus=1, start=0.25, duration=0.5)
        cfg = SimConfig()
        rec = integrate(net, probe, cfg)
        steps_hz = float(cfg.pmu_rate * cfg.steps_per_sample)
        expected = [
            swing_rhs(
                [rec.channels[ANGLE, 0, j], rec.channels[SPEED, 0, j]], net,
                [probe.amplitude
                 * _base_waveform(probe, j * cfg.steps_per_sample / steps_hz)],
            )[1]
            for j in range(rec.n_samples)
        ]
        assert np.array_equal(rec.channels[ROCOF, 0], expected)
        assert rec.channels[ROCOF, 0].any() and not rec.channels[ROCOF, 0, 0]

    def test_initial_rocof_scales_inversely_with_inertia(self):
        probe = ProbingSignal(amplitude=0.004, injection_bus=1, duration=2.0)
        cfg = SimConfig(t_end=1.5)
        r1 = integrate(single_machine_net(m=2.0), probe, cfg)
        r2 = integrate(single_machine_net(m=4.0), probe, cfg)
        assert r1.channels[ROCOF, 0, 0] == pytest.approx(0.004 / 2.0, rel=1e-12)
        assert r2.channels[ROCOF, 0, 0] == pytest.approx(
            r1.channels[ROCOF, 0, 0] / 2.0, rel=1e-12
        )

    def test_pre_probe_samples_zero(self):
        net = two_machine_net()
        probe = ProbingSignal(amplitude=0.001, injection_bus=2, start=0.5, duration=0.5)
        rec = integrate(net, probe, SimConfig())
        pre = slice(0, int(0.5 * rec.rate))
        assert np.all(rec.channels[:, :, pre] == 0.0)

    def test_time_invariance_under_shift(self):
        net = two_machine_net()
        cfg = SimConfig(t_end=2.0)
        tau = 0.125  # 360 PMU periods
        base = integrate(
            net, ProbingSignal(amplitude=0.001, injection_bus=1, start=0.25), cfg
        )
        shifted = integrate(
            net, ProbingSignal(amplitude=0.001, injection_bus=1, start=0.25 + tau), cfg
        )
        lag = round(tau * cfg.pmu_rate)
        a = base.channels[:, :, : base.n_samples - lag]
        b = shifted.channels[:, :, lag:]
        np.testing.assert_array_equal(a, b)

    def test_small_signal_linearity(self):
        net = two_machine_net()
        cfg = SimConfig(t_end=1.5)
        small = integrate(net, ProbingSignal(amplitude=0.0005, injection_bus=1), cfg)
        double = integrate(net, ProbingSignal(amplitude=0.001, injection_bus=1), cfg)
        scale = np.abs(small.channels[SPEED]).max()
        err = np.abs(double.channels[SPEED] - 2.0 * small.channels[SPEED]).max()
        assert err < 0.01 * 2.0 * scale

    def test_rk4_order(self):
        net = two_machine_net(m=(0.8, 1.3), d=(0.05, 0.08), b=3.0)
        probe = ProbingSignal(amplitude=0.01, injection_bus=1, duration=2.0)
        h = 1.0 / 2880.0

        def run(step):
            cfg = SimConfig(t_end=1.5, integrator_step=step)
            return integrate(net, probe, cfg).channels[SPEED]

        ref = run(h / 8.0)
        err_h = np.abs(run(h) - ref).max()
        err_h2 = np.abs(run(h / 2.0) - ref).max()
        assert err_h / err_h2 >= 8.0

    def test_instability_reported_with_time(self):
        net = single_machine_net(m=0.05, d=0.01)
        probe = ProbingSignal(amplitude=2.0, injection_bus=1, duration=2.0)
        with pytest.raises(InstabilityError) as err:
            integrate(net, probe, SimConfig(t_end=1.5))
        assert 0.0 < err.value.time <= 1.5

    def test_nan_inertia_row_is_unstable(self):
        """A NaN swing coefficient fails the |dw| <= 1 guard at the next sample."""
        net = replace(two_machine_net(), inertia=np.array([1.0, np.nan]))
        probe = ProbingSignal(amplitude=0.001, injection_bus=1)
        cfg = SimConfig()
        with pytest.raises(InstabilityError) as err:
            integrate(net, probe, cfg)
        assert err.value.time == 1.0 / cfg.pmu_rate

    def test_monitored_subset(self):
        net = two_machine_net()
        probe = ProbingSignal(amplitude=0.001, injection_bus=1)
        rec = integrate(net, probe, SimConfig(), monitored=(2,))
        assert rec.bus_ids == (2,)
        assert rec.channels.shape[:2] == (3, 1)


def reference_rows(net, probe, cfg, inertia, amplitudes, monitored):
    """Plain RK4 over [rows, n] arrays: one tuple-returning right-hand side
    per stage, fresh arrays for every intermediate, no buffers.  The
    integrator must write exactly these bits."""
    amplitudes = np.asarray(amplitudes, dtype=np.float64)
    keep = [net.machine_index(b) for b in monitored]
    unit = np.zeros(net.n)
    unit[net.machine_index(probe.injection_bus)] = 1.0
    inj = amplitudes[:, None] * unit[None, :]

    def rhs(t, theta, dw):
        u = _base_waveform(probe, t)
        s, c = np.sin(theta), np.cos(theta)
        p_elec = s * (c @ net.coupling) - c * (s @ net.coupling)
        drive = net.injections + u * inj if u else net.injections
        return net.sync_speed * dw, (drive - p_elec - net.damping * dw) / inertia

    sps = cfg.steps_per_sample
    steps_hz = float(cfg.pmu_rate * sps)
    total_steps = (cfg.n_samples - 1) * sps
    h = 1.0 / steps_hz
    theta, dw = np.zeros(inj.shape), np.zeros(inj.shape)
    out = np.full((len(inj), 3, len(keep), cfg.n_samples), np.nan)
    for step in range(total_steps + 1):
        t = step / steps_hz
        k1t, k1w = rhs(t, theta, dw)
        if step % sps == 0:
            j = step // sps
            if not (np.abs(dw).max() <= 1.0):
                raise InstabilityError(t, int(np.argmax(np.abs(dw).max(axis=1))))
            out[:, 0, :, j] = dw[:, keep]
            out[:, 1, :, j] = k1w[:, keep]
            coi = (theta * inertia).sum(axis=1) / inertia.sum(axis=1)
            out[:, 2, :, j] = theta[:, keep] - coi[:, None]
        if step == total_steps:
            break
        k2t, k2w = rhs(t + 0.5 * h, theta + 0.5 * h * k1t, dw + 0.5 * h * k1w)
        k3t, k3w = rhs(t + 0.5 * h, theta + 0.5 * h * k2t, dw + 0.5 * h * k2w)
        k4t, k4w = rhs(t + h, theta + h * k3t, dw + h * k3w)
        theta = theta + (h / 6.0) * (k1t + 2.0 * k2t + 2.0 * k3t + k4t)
        dw = dw + (h / 6.0) * (k1w + 2.0 * k2w + 2.0 * k3w + k4w)
    return out


def assert_same_bits(a, b):
    assert a.shape == b.shape
    np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))


class TestIntegratorMatchesReference:
    """The in-place integrator against :func:`reference_rows`, bit for bit.

    Unlike a pinned digest this holds on any BLAS and CPU: both sides run
    the same products on the same machine."""

    GRID = load_default_case()
    PROBES = {
        # edges of the drive inside the run: on at 0.25 s, off at 0.75 s
        "step": ProbingSignal(injection_bus=18, start=0.25, duration=0.5),
        # 50 chips of 0.02 s, their edges between 0.1 s and 1.1 s
        "prbs": ProbingSignal(kind="prbs", injection_bus=18, start=0.1, duration=1.0,
                              prbs_chip=0.02, seed=5),
    }

    def block(self, h_values, amplitudes):
        nets = [build_reduced_network(scale_to_target_inertia(self.GRID, h))
                for h in h_values]
        inertia = np.repeat([net.inertia for net in nets], len(amplitudes), axis=0)
        return nets[0], inertia, list(amplitudes) * len(nets)

    def run_both(self, net, probe, inertia, amplitudes, monitored):
        cfg = SimConfig()
        out = np.full((len(inertia), 3, len(monitored), cfg.n_samples), np.nan)
        _integrate_rows(net, probe, cfg, inertia, amplitudes, monitored, out)
        return out, reference_rows(net, probe, cfg, inertia, amplitudes, monitored)

    @pytest.mark.parametrize("kind", ["step", "prbs"])
    def test_two_inertia_groups_three_amplitudes(self, kind):
        net, inertia, amplitudes = self.block((3.0, 6.0), (0.001, 0.004, 0.02))
        out, ref = self.run_both(net, self.PROBES[kind], inertia, amplitudes, net.buses)
        assert_same_bits(out, ref)
        assert np.all(out[:, :, :, -1] != 0.0)

    def test_monitored_subset(self):
        net, inertia, amplitudes = self.block((4.0,), (0.002, 0.01))
        monitored = (22, 2, 16)  # out of bus order
        out, ref = self.run_both(net, self.PROBES["prbs"], inertia, amplitudes, monitored)
        assert_same_bits(out, ref)

    @pytest.mark.parametrize("kind", ["step", "prbs"])
    def test_single_row_integrate(self, kind):
        net = build_reduced_network(self.GRID)
        probe = replace(self.PROBES[kind], amplitude=0.005)
        rec = integrate(net, probe, SimConfig())
        ref = reference_rows(net, probe, SimConfig(), net.inertia[None, :],
                             [probe.amplitude], net.buses)
        assert_same_bits(rec.channels, ref[0])

    def test_unstable_row_fails_at_the_same_instant(self):
        net = single_machine_net(m=8.0, d=0.01)
        inertia = np.array([[8.0], [0.08], [0.05], [8.0]])
        amplitudes = [2.0] * 4
        probe = ProbingSignal(amplitude=2.0, injection_bus=1, duration=2.0)
        errors = []
        for run in (_integrate_rows, lambda *args: reference_rows(*args[:-1])):
            with pytest.raises(InstabilityError) as err:
                run(net, probe, SimConfig(), inertia, amplitudes, (1,),
                    np.empty((4, 3, 1, SimConfig().n_samples)))
            errors.append((err.value.time, err.value.trajectory))
        assert errors[0] == errors[1]
        assert errors[0][1] == 2 and 0.0 < errors[0][0] < 1.5


class TestPmuRecordSet:
    @pytest.mark.parametrize("shape", [(2, 2, 5), (3, 3, 5), (3, 5)])
    def test_rejects_channels_of_the_wrong_shape(self, shape):
        with pytest.raises(ValueError, match="channels must have shape"):
            PmuRecordSet(rate=200.0, bus_ids=(1, 2), channels=np.zeros(shape))


class TestSimConfig:
    def test_step_must_divide_sample_period(self):
        with pytest.raises(ValueError):
            SimConfig(integrator_step=1.0 / 5000.0)

    def test_step_not_larger_than_period(self):
        with pytest.raises(ValueError):
            SimConfig(integrator_step=1.0 / 1000.0)

    def test_minimum_duration(self):
        with pytest.raises(ValueError):
            SimConfig(t_end=1.0)

    def test_sample_count(self):
        assert SimConfig(t_end=1.5).n_samples == 4320
