"""Grid model, inertia arithmetic and network reduction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from inertialab.grid import (
    Branch,
    Bus,
    CaseParseError,
    CaseValidationError,
    GeneratorParams,
    GridModel,
    build_reduced_network,
    inertia_constant,
    load_case,
    load_default_case,
    rotational_energy,
    scale_to_target_inertia,
    system_inertia_constant,
)

OMEGA = 2.0 * math.pi * 60.0


def make_gen(gid, bus, h, rated, damping=1.0):
    return GeneratorParams(
        id=gid,
        bus=bus,
        moment_of_inertia=2.0 * h * rated / OMEGA**2,
        rated_power=rated,
        nominal_speed=OMEGA,
        damping=damping,
    )


def two_bus_grid(h1=4.0, h2=3.0, s1=100.0, s2=100.0, susceptance=2.0):
    return GridModel(
        buses=(Bus(1, "generator"), Bus(2, "generator")),
        branches=(Branch(1, 2, susceptance),),
        generators=(make_gen("a", 1, h1, s1), make_gen("b", 2, h2, s2)),
        system_base=s1 + s2,
        monitored_buses=(1, 2),
    )


class TestRotationalEnergy:
    def test_unit_inputs(self):
        assert rotational_energy(2.0, 1.0) == 1.0

    def test_zero_inertia(self):
        assert rotational_energy(0.0, 377.0) == 0.0

    def test_arithmetic_oracle(self):
        # frozen from an independent high-precision evaluation of 0.5*J*w^2
        assert rotational_energy(13450.0, OMEGA) == pytest.approx(
            955772490.2014935, rel=1e-14
        )

    @pytest.mark.parametrize("j,w", [(-1.0, 10.0), (1.0, -10.0)])
    def test_domain_errors(self, j, w):
        with pytest.raises(ValueError):
            rotational_energy(j, w)


class TestInertiaConstant:
    def test_unit_inputs(self):
        assert inertia_constant(2.0, 1.0, 1.0) == 1.0

    def test_from_stored_energy(self):
        # J chosen so the stored energy is 500 MW.s; H = 500 / 100 = 5 s
        j = 1000.0 / OMEGA**2
        assert inertia_constant(j, OMEGA, 100.0) == pytest.approx(5.0, rel=1e-12)

    def test_zero_inertia(self):
        assert inertia_constant(0.0, 377.0, 100.0) == 0.0

    def test_rated_power_domain(self):
        with pytest.raises(ValueError):
            inertia_constant(1.0, 1.0, 0.0)

    @given(
        j=st.floats(1e-6, 1e3),
        w=st.floats(1e-2, 1e3),
        s=st.floats(1e-3, 1e4),
    )
    def test_consistent_with_energy(self, j, w, s):
        h = inertia_constant(j, w, s)
        assert rotational_energy(j, w) == pytest.approx(h * s, rel=1e-12)

    def test_cached_on_params(self):
        g = make_gen("g", 1, 4.5, 120.0)
        direct = inertia_constant(g.moment_of_inertia, g.nominal_speed, g.rated_power)
        assert g.inertia == pytest.approx(direct, rel=1e-12)
        assert g.inertia == pytest.approx(4.5, rel=1e-12)


class TestSystemInertia:
    def test_homogeneous_fleet(self):
        gens = [make_gen(f"g{i}", 1, 4.0, 50.0) for i in range(5)]
        assert system_inertia_constant(gens, 250.0) == pytest.approx(4.0, rel=1e-12)

    def test_weighted_average(self):
        gens = [make_gen("a", 1, 2.0, 100.0), make_gen("b", 2, 6.0, 300.0)]
        assert system_inertia_constant(gens, 400.0) == pytest.approx(5.0, rel=1e-12)

    def test_single_generator_identity(self):
        g = make_gen("a", 1, 3.7, 211.0)
        assert system_inertia_constant([g], 211.0) == pytest.approx(3.7, rel=1e-12)

    def test_empty_fleet(self):
        with pytest.raises(ValueError):
            system_inertia_constant([], 100.0)

    @given(
        hs=st.lists(st.floats(0.5, 10.0), min_size=2, max_size=8),
        cut=st.integers(1, 7),
    )
    @settings(max_examples=50)
    def test_partition_invariance(self, hs, cut):
        cut = min(cut, len(hs) - 1)
        gens = [make_gen(f"g{i}", 1, h, 100.0) for i, h in enumerate(hs)]
        base = 100.0 * len(gens)
        direct = system_inertia_constant(gens, base)
        # summing per-subset stored energies then dividing by the base
        energy = sum(
            rotational_energy(g.moment_of_inertia, g.nominal_speed) for g in gens[:cut]
        ) + sum(rotational_energy(g.moment_of_inertia, g.nominal_speed) for g in gens[cut:])
        assert direct == pytest.approx(energy / base, rel=1e-12)


class TestScaleToTarget:
    def test_identity(self):
        grid = two_bus_grid()
        scaled = scale_to_target_inertia(grid, grid.system_inertia)
        for before, after in zip(grid.generators, scaled.generators):
            assert after.moment_of_inertia == pytest.approx(
                before.moment_of_inertia, rel=1e-12
            )

    def test_hits_target(self):
        scaled = scale_to_target_inertia(two_bus_grid(), 6.0)
        assert scaled.system_inertia == pytest.approx(6.0, rel=1e-9)

    def test_uniform_ratio(self):
        grid = two_bus_grid()
        low = scale_to_target_inertia(grid, 3.0)
        high = scale_to_target_inertia(grid, 8.0)
        for g_low, g_high in zip(low.generators, high.generators):
            assert g_high.moment_of_inertia / g_low.moment_of_inertia == pytest.approx(
                8.0 / 3.0, rel=1e-12
            )

    def test_composition(self):
        grid = two_bus_grid()
        twice = scale_to_target_inertia(scale_to_target_inertia(grid, 3.5), 7.25)
        once = scale_to_target_inertia(grid, 7.25)
        for a, b in zip(twice.generators, once.generators):
            assert a.moment_of_inertia == pytest.approx(b.moment_of_inertia, rel=1e-12)

    def test_damping_untouched(self):
        grid = two_bus_grid()
        scaled = scale_to_target_inertia(grid, 5.0)
        assert [g.damping for g in scaled.generators] == [
            g.damping for g in grid.generators
        ]

    def test_domain(self):
        for target in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                scale_to_target_inertia(two_bus_grid(), target)


class TestReduction:
    def test_two_generator_line(self):
        net = build_reduced_network(two_bus_grid(susceptance=2.5))
        assert net.n == 2
        assert net.coupling[0, 1] == pytest.approx(2.5, rel=1e-12)
        assert net.coupling[1, 0] == pytest.approx(2.5, rel=1e-12)

    def test_star_network(self):
        # two legs (2.0 and 3.0) into an unloaded center: series combination
        grid = GridModel(
            buses=(Bus(1, "generator"), Bus(2, "generator"), Bus(3, "load")),
            branches=(Branch(1, 3, 2.0), Branch(2, 3, 3.0)),
            generators=(make_gen("a", 1, 4.0, 100.0), make_gen("b", 2, 3.0, 100.0)),
            system_base=200.0,
            monitored_buses=(1, 2),
        )
        net = build_reduced_network(grid)
        assert net.coupling[0, 1] == pytest.approx(1.2, rel=1e-12)

    def test_disconnected_graph(self):
        with pytest.raises(CaseValidationError):
            GridModel(
                buses=(Bus(1, "generator"), Bus(2, "generator")),
                branches=(),
                generators=(make_gen("a", 1, 4.0, 100.0), make_gen("b", 2, 4.0, 100.0)),
                system_base=200.0,
                monitored_buses=(1, 2),
            )

    def test_zero_row_sums_unloaded(self):
        grid = GridModel(
            buses=(
                Bus(1, "generator"),
                Bus(2, "generator"),
                Bus(3, "load"),
                Bus(4, "load"),
            ),
            branches=(
                Branch(1, 3, 1.5),
                Branch(2, 3, 2.5),
                Branch(3, 4, 1.0),
                Branch(1, 4, 0.5),
            ),
            generators=(make_gen("a", 1, 4.0, 100.0), make_gen("b", 2, 4.0, 100.0)),
            system_base=200.0,
            monitored_buses=(1, 2),
        )
        net = build_reduced_network(grid)
        assert np.allclose(net.coupling.sum(axis=1), 0.0, atol=1e-12)
        assert np.allclose(net.coupling, net.coupling.T)

    def test_loaded_rows_carry_shunt(self):
        grid = GridModel(
            buses=(Bus(1, "generator"), Bus(2, "generator"), Bus(3, "load", 100.0)),
            branches=(Branch(1, 3, 2.0), Branch(2, 3, 3.0)),
            generators=(make_gen("a", 1, 4.0, 100.0), make_gen("b", 2, 3.0, 100.0)),
            system_base=200.0,
            monitored_buses=(1, 2),
        )
        net = build_reduced_network(grid)
        assert (net.coupling.sum(axis=1) < 0.0).all()

    @pytest.mark.parametrize("kinds, message", [
        (("generator", "generator", "generator"), "bus 3 is marked generator but hosts no"),
        (("generator", "load", "load"), "bus 2 is marked load but hosts a generator"),
    ])
    def test_bus_kind_agrees_with_generators(self, kinds, message):
        with pytest.raises(CaseValidationError, match=message):
            GridModel(
                buses=tuple(Bus(i, kind) for i, kind in enumerate(kinds, start=1)),
                branches=(Branch(1, 3, 2.0), Branch(2, 3, 3.0)),
                generators=(make_gen("a", 1, 4.0, 100.0), make_gen("b", 2, 3.0, 100.0)),
                system_base=200.0,
                monitored_buses=(1, 2),
            )

    def test_machine_aggregation(self):
        # two units on one bus add their system-base swing coefficients
        grid = GridModel(
            buses=(Bus(1, "generator"), Bus(2, "generator")),
            branches=(Branch(1, 2, 1.0),),
            generators=(
                make_gen("a", 1, 4.0, 100.0),
                make_gen("b", 1, 6.0, 50.0),
                make_gen("c", 2, 5.0, 50.0),
            ),
            system_base=200.0,
            monitored_buses=(1, 2),
        )
        net = build_reduced_network(grid)
        assert net.inertia[0] == pytest.approx(2 * (4 * 100 + 6 * 50) / 200, rel=1e-12)
        assert net.inertia[1] == pytest.approx(2 * 5 * 50 / 200, rel=1e-12)
        assert net.inertia.sum() == pytest.approx(2 * grid.system_inertia, rel=1e-12)


class TestCaseFile:
    def test_bundled_case(self):
        grid = load_default_case()
        assert len(grid.buses) == 24
        assert len(grid.branches) == 38
        assert len(grid.generators) == 38
        assert len(grid.monitored_buses) == 10
        assert sum(1 for b in grid.buses if b.load_mw > 0) == 17
        assert set(grid.monitored_buses) <= set(grid.generator_buses)
        assert grid.system_base == sum(g.rated_power for g in grid.generators)
        assert 3.0 <= grid.system_inertia <= 8.0

    def test_minimal_case(self, tmp_path):
        text = """INERTIA-CASE v1
        [BUS]
        1 generator 0.0
        2 load 10.0
        [BRANCH]
        1 2 1.5
        [GEN]
        G1 1 0.01 376.99 100.0 1.0
        [MONITOR]
        1
        """
        path = tmp_path / "mini.case"
        path.write_text(text)
        grid = load_case(path)
        assert len(grid.buses) == 2
        assert grid.system_base == 100.0

    def test_generator_on_unknown_bus(self, tmp_path):
        text = """INERTIA-CASE v1
        [BUS]
        1 generator 0.0
        [GEN]
        G1 9 0.01 376.99 100.0 1.0
        [MONITOR]
        """
        path = tmp_path / "bad.case"
        path.write_text(text)
        with pytest.raises((CaseParseError, CaseValidationError)):
            load_case(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "noheader.case"
        path.write_text("[BUS]\n1 generator 0.0\n")
        with pytest.raises(CaseParseError) as err:
            load_case(path)
        assert err.value.line_no == 1

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.case"
        path.write_text("INERTIA-CASE v1\n[BUS]\n1 generator\n")
        with pytest.raises(CaseParseError) as err:
            load_case(path)
        assert err.value.line_no == 3

    def test_highest_load_generator_bus(self):
        grid = load_default_case()
        assert grid.highest_load_generator_bus() == 18
