"""Power network model, inertia bookkeeping and dynamic network reduction.

The grid is described at three levels:

* per-generator rotor data (``GeneratorParams``), from which the stored
  rotational energy and the inertia constant H are derived,
* the full bus/branch network (``GridModel``), loadable from a text case
  file, and
* the reduced machine network (``ReducedNetwork``) obtained by eliminating
  non-generator buses, which is what the swing-equation simulator consumes.

Unit convention: all formulas are evaluated in mutually consistent units.
With rated powers in MVA and the moment of inertia expressed so that
``0.5 * J * omega**2`` comes out in MW.s (i.e. J in units of 1e6 kg.m^2),
energies are MW.s and inertia constants are seconds.  The bundled case file
stores J in those units.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from importlib import resources

import numpy as np

__all__ = [
    "GeneratorParams",
    "Bus",
    "Branch",
    "GridModel",
    "ReducedNetwork",
    "CaseParseError",
    "CaseValidationError",
    "ReductionError",
    "rotational_energy",
    "inertia_constant",
    "system_inertia_constant",
    "scale_to_target_inertia",
    "build_reduced_network",
    "parse_case",
    "load_case",
    "load_default_case",
]


class CaseParseError(ValueError):
    """Raised when a case file does not match the documented schema."""

    def __init__(self, line_no, message):
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


class CaseValidationError(ValueError):
    """Raised when a parsed case violates a model invariant."""


class ReductionError(ValueError):
    """Raised when network reduction hits a singular elimination block."""


def rotational_energy(moment_of_inertia, speed):
    """Stored rotor energy ``0.5 * J * omega**2``.

    Output is in MW.s when ``moment_of_inertia`` is supplied in the
    consistent unit described in the module docstring.
    """
    if moment_of_inertia < 0:
        raise ValueError(f"moment of inertia must be >= 0, got {moment_of_inertia}")
    if speed < 0:
        raise ValueError(f"rotational speed must be >= 0, got {speed}")
    return 0.5 * moment_of_inertia * speed * speed


def inertia_constant(moment_of_inertia, speed, rated_power):
    """Inertia constant in seconds: stored energy per unit of rated power."""
    if rated_power <= 0:
        raise ValueError(f"rated power must be > 0, got {rated_power}")
    return rotational_energy(moment_of_inertia, speed) / rated_power


@dataclass(frozen=True)
class GeneratorParams:
    """Rotor parameters of one synchronous unit.

    ``damping`` is in per unit torque per per-unit speed deviation on the
    machine base.
    """

    id: str
    bus: int
    moment_of_inertia: float
    rated_power: float
    nominal_speed: float
    damping: float = 1.0

    def __post_init__(self):
        # written so that NaN fails each bound too
        if not 0 <= self.moment_of_inertia < np.inf:
            raise CaseValidationError(f"generator {self.id}: J must be finite and >= 0")
        if not 0 < self.rated_power < np.inf:
            raise CaseValidationError(f"generator {self.id}: rated power must be finite and > 0")
        if not 0 < self.nominal_speed < np.inf:
            raise CaseValidationError(f"generator {self.id}: nominal speed must be finite and > 0")
        if not 0 <= self.damping < np.inf:
            raise CaseValidationError(f"generator {self.id}: damping must be finite and >= 0")

    @property
    def inertia(self):
        """Inertia constant H in seconds (derived from J, omega, S)."""
        return inertia_constant(
            self.moment_of_inertia, self.nominal_speed, self.rated_power
        )


@dataclass(frozen=True)
class Bus:
    id: int
    kind: str  # "generator" or "load"
    load_mw: float = 0.0


@dataclass(frozen=True)
class Branch:
    from_bus: int
    to_bus: int
    susceptance: float  # p.u. on the system base


def system_inertia_constant(generators, system_base):
    """Rated-power-weighted average inertia constant of a generator fleet."""
    generators = list(generators)
    if not generators:
        raise ValueError("system inertia is undefined for an empty generator list")
    if system_base <= 0:
        raise ValueError(f"system base must be > 0, got {system_base}")
    return sum(g.inertia * g.rated_power for g in generators) / system_base


@dataclass(frozen=True)
class GridModel:
    """Buses, branches and generators of one study case.

    ``system_base`` is the total rated power of the fleet in MVA; branch
    susceptances and all per-unit quantities downstream refer to it.
    ``monitored_buses`` is the ordered list of generator buses whose
    synthetic PMU channels are recorded.
    """

    buses: tuple
    branches: tuple
    generators: tuple
    system_base: float
    monitored_buses: tuple

    def __post_init__(self):
        object.__setattr__(self, "buses", tuple(self.buses))
        object.__setattr__(self, "branches", tuple(self.branches))
        object.__setattr__(self, "generators", tuple(self.generators))
        object.__setattr__(self, "monitored_buses", tuple(self.monitored_buses))
        self._validate()

    def _validate(self):
        bus_ids = [b.id for b in self.buses]
        if len(set(bus_ids)) != len(bus_ids):
            raise CaseValidationError("duplicate bus ids")
        known = set(bus_ids)
        for b in self.buses:
            if not np.isfinite(b.load_mw):
                raise CaseValidationError(f"bus {b.id}: load must be finite")
        for br in self.branches:
            if br.from_bus not in known or br.to_bus not in known:
                raise CaseValidationError(
                    f"branch {br.from_bus}-{br.to_bus} references an unknown bus"
                )
            if br.from_bus == br.to_bus:
                raise CaseValidationError(f"branch {br.from_bus}-{br.to_bus} is a self-loop")
            if not 0 < br.susceptance < np.inf:
                raise CaseValidationError(
                    f"branch {br.from_bus}-{br.to_bus}: susceptance must be finite and > 0"
                )
        if not self.generators:
            raise CaseValidationError("case has no generators")
        for g in self.generators:
            if g.bus not in known:
                raise CaseValidationError(
                    f"generator {g.id} references unknown bus {g.bus}"
                )
        if not 0 < self.system_base < np.inf:
            raise CaseValidationError("system base must be finite and > 0")
        gen_buses = {g.bus for g in self.generators}
        for b in self.buses:
            hosts = b.id in gen_buses
            if b.kind != ("generator" if hosts else "load"):
                raise CaseValidationError(
                    f"bus {b.id} is marked {b.kind} but hosts {'a' if hosts else 'no'} generator")
        for b in self.monitored_buses:
            if b not in gen_buses:
                raise CaseValidationError(
                    f"monitored bus {b} does not host a generator"
                )
        if len(set(self.monitored_buses)) != len(self.monitored_buses):
            raise CaseValidationError("duplicate monitored buses")
        if not self._connected():
            raise CaseValidationError("network graph is not connected")

    def _connected(self):
        if len(self.buses) <= 1:
            return True
        adj = {b.id: set() for b in self.buses}
        for br in self.branches:
            adj[br.from_bus].add(br.to_bus)
            adj[br.to_bus].add(br.from_bus)
        seen = {self.buses[0].id}
        stack = [self.buses[0].id]
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return len(seen) == len(self.buses)

    @property
    def generator_buses(self):
        """Generator bus ids in ascending order (machine order downstream)."""
        return tuple(sorted({g.bus for g in self.generators}))

    @property
    def system_inertia(self):
        return system_inertia_constant(self.generators, self.system_base)

    def highest_load_generator_bus(self):
        """Default probe injection point: generator bus carrying most load."""
        load = {b.id: b.load_mw for b in self.buses}
        return max(self.generator_buses, key=lambda i: (load.get(i, 0.0), -i))


def scale_to_target_inertia(grid, target):
    """Return a copy of ``grid`` whose system inertia equals ``target``.

    Every generator's moment of inertia is multiplied by the same factor, so
    the heterogeneity profile of the fleet is preserved and only the label
    variable moves.  Damping is left untouched.
    """
    if not 0 < target < np.inf:  # NaN fails too
        raise ValueError(f"target inertia must be finite and > 0, got {target}")
    factor = target / grid.system_inertia
    scaled = tuple(
        replace(g, moment_of_inertia=g.moment_of_inertia * factor)
        for g in grid.generators
    )
    return replace(grid, generators=scaled)


@dataclass(frozen=True)
class ReducedNetwork:
    """Machine-level coupling network used by the swing simulator.

    ``coupling`` is the symmetric bus susceptance matrix B; the electrical
    power leaving machine i is ``sum_j B[i, j] * sin(theta_i - theta_j)``.
    Diagonal entries carry the (negated) shunt terms produced by
    constant-impedance load conversion and do not enter that sum.
    ``inertia`` holds the per-machine swing coefficients m_i = 2 H_i with H_i
    the machine inertia constant expressed on the system base, so that the
    coefficients of co-located units add and sum(m) = 2 * H_sys.
    """

    buses: tuple  # machine bus ids, ascending
    coupling: np.ndarray  # [n, n], p.u.
    inertia: np.ndarray  # m_i, seconds
    damping: np.ndarray  # d_i, p.u. on the system base
    injections: np.ndarray  # steady p_in, p.u.
    sync_speed: float = 2.0 * np.pi * 60.0  # electrical reference, rad/s

    @property
    def n(self):
        return len(self.buses)

    def machine_index(self, bus_id):
        return self.buses.index(bus_id)


def build_reduced_network(grid):
    """Eliminate non-generator buses and aggregate machines per bus.

    Loads are converted to constant-impedance shunts at the flat pre-probe
    operating point and folded into the diagonal of the full susceptance
    Laplacian before the Schur-complement elimination.  The flat point
    (all angles equal, zero injections) is an exact equilibrium of the
    reduced model, so pre-probe trajectories are identically quiescent.
    ``grid`` is connected: a ``GridModel`` is validated on construction.
    """
    order = [b.id for b in sorted(grid.buses, key=lambda b: b.id)]
    index = {bus_id: i for i, bus_id in enumerate(order)}
    n_all = len(order)

    lap = np.zeros((n_all, n_all))
    for br in grid.branches:
        i, j = index[br.from_bus], index[br.to_bus]
        lap[i, i] += br.susceptance
        lap[j, j] += br.susceptance
        lap[i, j] -= br.susceptance
        lap[j, i] -= br.susceptance
    for b in grid.buses:
        if b.load_mw:
            lap[index[b.id], index[b.id]] += b.load_mw / grid.system_base

    gen_buses = list(grid.generator_buses)
    keep = [index[b] for b in gen_buses]
    drop = [i for i in range(n_all) if i not in set(keep)]

    lgg = lap[np.ix_(keep, keep)]
    if drop:
        lgl = lap[np.ix_(keep, drop)]
        lll = lap[np.ix_(drop, drop)]
        try:
            reduced = lgg - lgl @ np.linalg.solve(lll, lgl.T)
        except np.linalg.LinAlgError as exc:
            dropped = [order[i] for i in drop]
            raise ReductionError(
                f"singular elimination block for buses {dropped}"
            ) from exc
    else:
        reduced = lgg
    coupling = -(reduced + reduced.T) / 2.0  # enforce exact symmetry

    n = len(gen_buses)
    inertia = np.zeros(n)
    damping = np.zeros(n)
    for g in grid.generators:
        k = gen_buses.index(g.bus)
        inertia[k] += 2.0 * g.inertia * g.rated_power / grid.system_base
        damping[k] += g.damping * g.rated_power / grid.system_base
    if np.any(inertia <= 0):
        bad = [gen_buses[k] for k in np.nonzero(inertia <= 0)[0]]
        raise CaseValidationError(f"zero aggregate inertia at buses {bad}")

    speeds = {g.nominal_speed for g in grid.generators}
    if max(speeds) - min(speeds) > 1e-9 * max(speeds):
        raise CaseValidationError("generators disagree on nominal speed")

    return ReducedNetwork(
        buses=tuple(gen_buses),
        coupling=coupling,
        inertia=inertia,
        damping=damping,
        injections=np.zeros(n),
        sync_speed=float(next(iter(speeds))),
    )


# --------------------------------------------------------------------------
# Case file format (INERTIA-CASE v1)
#
# Line-oriented text, '#' starts a comment, blank lines ignored.  The first
# payload line must be the header 'INERTIA-CASE v1'.  Sections:
#
#   [BUS]      id  kind(generator|load)  load_mw
#   [BRANCH]   from_bus  to_bus  susceptance_pu
#   [GEN]      id  bus  J  omega_rad_s  rated_mva  damping_pu
#   [MONITOR]  bus ids, whitespace separated, order preserved
#
# J is in units of 1e6 kg.m^2 so that 0.5*J*omega^2 is in MW.s.  The system
# base is the sum of the generator ratings (total rated power).
# --------------------------------------------------------------------------

_SECTIONS = ("BUS", "BRANCH", "GEN", "MONITOR")


def parse_case(data):
    """Parse and validate INERTIA-CASE v1 text, or its UTF-8 bytes, into a
    ``GridModel``."""
    text = data.decode("utf-8") if isinstance(data, bytes) else data
    buses, branches, gens, monitored = [], [], [], []
    section = None
    seen_header = False
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not seen_header:
            if line != "INERTIA-CASE v1":
                raise CaseParseError(line_no, f"expected 'INERTIA-CASE v1' header, got {line!r}")
            seen_header = True
            continue
        if line.startswith("[") and line.endswith("]"):
            name = line[1:-1].strip().upper()
            if name not in _SECTIONS:
                raise CaseParseError(line_no, f"unknown section [{name}]")
            section = name
            continue
        if section is None:
            raise CaseParseError(line_no, "data before any section header")
        fields = line.split()
        try:
            if section == "BUS":
                if len(fields) != 3:
                    raise CaseParseError(line_no, "BUS rows need: id kind load_mw")
                kind = fields[1].lower()
                if kind not in ("generator", "load"):
                    raise CaseParseError(line_no, f"bad bus kind {fields[1]!r}")
                buses.append(Bus(int(fields[0]), kind, float(fields[2])))
            elif section == "BRANCH":
                if len(fields) != 3:
                    raise CaseParseError(line_no, "BRANCH rows need: from to susceptance")
                branches.append(Branch(int(fields[0]), int(fields[1]), float(fields[2])))
            elif section == "GEN":
                if len(fields) != 6:
                    raise CaseParseError(
                        line_no, "GEN rows need: id bus J omega rated_mva damping"
                    )
                gens.append(
                    GeneratorParams(
                        id=fields[0],
                        bus=int(fields[1]),
                        moment_of_inertia=float(fields[2]),
                        nominal_speed=float(fields[3]),
                        rated_power=float(fields[4]),
                        damping=float(fields[5]),
                    )
                )
            elif section == "MONITOR":
                monitored.extend(int(f) for f in fields)
        except CaseParseError:
            raise
        except (ValueError, CaseValidationError) as exc:
            raise CaseParseError(line_no, str(exc)) from exc
    if not seen_header:
        raise CaseParseError(0, "empty case file")
    return GridModel(
        buses=tuple(buses),
        branches=tuple(branches),
        generators=tuple(gens),
        system_base=sum(g.rated_power for g in gens),
        monitored_buses=tuple(monitored),
    )


def load_case(path):
    """Parse and validate an INERTIA-CASE v1 file into a ``GridModel``."""
    with open(path, "rb") as fh:
        return parse_case(fh.read())


# The bundled 24-bus study case (38 branches, 38 units, 10 PMU buses).
DEFAULT_CASE = resources.files("inertialab.cases").joinpath("ieee24.case")


def load_default_case():
    """The bundled case, parsed and validated."""
    return parse_case(DEFAULT_CASE.read_bytes())
