"""Experiment configuration: a single YAML key-value tree.

The ``system`` section mirrors the physical parameter names (energy_ev,
delta_m2_ev2, big_delta_m2_ev2, theta12/13/23, delta_cp, k_ev, xi, species,
statistics, b_vector_choice); omitted entries fall back to the reference
parameter set below, so swapping the one-body coefficient vector or the
statistics is a one-key change, and ``b_vector_choice: zero`` drops the
one-body term.

This module alone turns input files into values: every number is read by
:func:`_number`, an unknown key is rejected, and a failure raises
:class:`ConfigError` naming the field path.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np
import yaml

from .aqae import AqaeConfig, clock_steps
from .basis import MAX_BASIS_DIM, BasisTag, PmnsParams, StateVector, flavor_state, mass_blocks
from .clock import Direction
from .hamiltonians import (
    B_VECTOR_CHOICES,
    Species,
    Statistics,
    SystemSpec,
    anisotropic_angles,
    b_vector_preset,
)

# Reference oscillation parameters (PDG-consistent central values) used when
# the config omits them.
DEFAULTS = {
    "energy_ev": 1.0e7,
    "delta_m2_ev2": 7.42e-5,
    "big_delta_m2_ev2": 2.44e-3,
    "theta12": 0.591667,
    "theta13": 0.148702,
    "theta23": 0.840027,
    "delta_cp": 4.36681,
    "k_ev": 1.75e-12,
    "b_vector_choice": "appendixA",
    "statistics": "dirac",
}

DEFAULT_XI = 0.9
DEFAULT_PAIR_ANGLE = math.pi / 4.0
# The least nonzero one-body coefficient or coupling.  Below it u (B . lambda) u^dag
# is rounded in subnormal steps, which no relative Hermiticity bound can hold.
MIN_COEFFICIENT = np.finfo(float).tiny / np.finfo(float).eps

SYSTEM_KEYS = (*DEFAULTS, "n_modes", "nf", "xi", "angles", "species", "b_vector")
AQAE_INTS = ("k_bits", "max_zoom", "reads", "sweeps")
AQAE_KEYS = (*AQAE_INTS, "dt")


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


def _number(value, name: str, kind: type = float, minimum=-math.inf):
    """Field ``name`` as a finite ``kind`` of at least ``minimum``;
    ``ConfigError`` naming it otherwise.  A numeric string counts (PyYAML
    reads ``1.0e12`` as one); a bool and a fractional int do not."""
    if value is None:
        raise ConfigError(f"{name}: required")
    try:
        number = kind(value)
        if number == float(value) and math.isfinite(number) and number >= minimum and not isinstance(value, bool):
            return number
    except (TypeError, ValueError, OverflowError):
        pass
    bound = f" >= {minimum}" if minimum > -math.inf else ""
    raise ConfigError(f"{name}: expected a finite {kind.__name__}{bound}, got {value!r}")


def _choice(value, name: str, choices) -> str:
    if value not in choices:
        raise ConfigError(f"{name}: expected one of {', '.join(choices)}, got {value!r}")
    return value


def _array(value, name: str) -> np.ndarray:
    """A number or a nested list of numbers, each read by :func:`_number`."""
    if not isinstance(value, list):
        return np.array(_number(value, name))
    rows = [_array(x, f"{name}[{i}]") for i, x in enumerate(value)]
    if len({row.shape for row in rows}) > 1:
        raise ConfigError(f"{name}: expected rows of equal length")
    return np.array(rows)


def _mapping(value, name: str, keys) -> dict:
    """``value`` as a mapping with no key outside ``keys``; null reads as ``{}``."""
    if value is None:
        return {}
    if not isinstance(value, dict):
        raise ConfigError(f"{name}: expected a mapping")
    for key in value:
        if key not in keys:
            where = f"{name}.{key}" if name != "top level" else str(key)
            raise ConfigError(f"{where}: unknown key; expected one of {', '.join(keys)}")
    return value


def _check_not_tiny(values, name: str) -> None:
    for value in np.ravel(values):
        if 0 < abs(value) < MIN_COEFFICIENT:
            raise ConfigError(f"{name}: nonzero {value:.6g} is below the least magnitude {MIN_COEFFICIENT:.6g}")


def _resolve_angles(system: dict, n_modes: int) -> np.ndarray:
    if "angles" in system:
        angles = _array(system["angles"], "system.angles")
        if angles.shape != (n_modes, n_modes):
            raise ConfigError(
                f"system.angles: expected an {n_modes}x{n_modes} matrix, got shape {angles.shape}"
            )
        return angles
    if "xi" in system or n_modes != 2:
        xi = _number(system.get("xi", DEFAULT_XI), "system.xi")
        try:
            # One mode has no pairs: the 1x1 corner of the two-mode matrix, [[0.0]].
            return anisotropic_angles(xi, max(n_modes, 2))[:n_modes, :n_modes]
        except ValueError as exc:
            raise ConfigError(f"system.xi: {exc}") from None
    # Two modes, nothing specified: the reference head-on pair angle.
    return np.array([[0.0, DEFAULT_PAIR_ANGLE], [DEFAULT_PAIR_ANGLE, 0.0]])


def _resolve_species(system: dict, n_modes: int) -> tuple[Species, ...]:
    raw = system.get("species")
    if raw is None:
        return (Species.NEUTRINO,) * n_modes
    if not isinstance(raw, list) or len(raw) != n_modes:
        raise ConfigError(f"system.species: expected a list of {n_modes} entries")
    names = [s.value for s in Species]
    return tuple(Species(_choice(x, f"system.species[{i}]", names)) for i, x in enumerate(raw))


def _check_clock_size(name: str, register_dim: int, t: float, dt: float | None) -> None:
    """Reject the clock of :func:`clock_steps` (t, dt) if its (steps + 1) registers of
    ``register_dim`` states exceed ``MAX_BASIS_DIM`` states in all.  A step count
    past the cap is rejected unrounded: rounding fails on infinity."""
    steps = t / dt if dt is not None and t / dt >= MAX_BASIS_DIM else clock_steps(t, dt)[0]
    if register_dim * (steps + 1) > MAX_BASIS_DIM:
        raise ConfigError(
            f"{name}: {steps:.6g} clock steps over {register_dim} states each exceed the cap of "
            f"{MAX_BASIS_DIM} clock states"
        )


def build_system_spec(system: dict) -> tuple[SystemSpec, dict]:
    """Resolve the ``system`` section into a :class:`SystemSpec`.

    Also returns the per-mode ``energy_ev``, ``delta_m2_ev2`` and
    ``big_delta_m2_ev2`` the one-body vectors are derived from; no
    Hamiltonian reads them, only the provenance header.
    """
    system = _mapping(system, "system", SYSTEM_KEYS)
    n_modes = _number(system.get("n_modes"), "system.n_modes", int, 1)
    nf = _number(system.get("nf"), "system.nf", int)
    if nf not in (2, 3):
        raise ConfigError(f"system.nf: must be 2 or 3, got {nf}")
    # Before anything sized by n_modes.  Capping the exponent keeps a huge
    # n_modes from making a huge int; nf >= 2, so the verdict is the same.
    if nf ** min(n_modes, MAX_BASIS_DIM.bit_length()) > MAX_BASIS_DIM:
        raise ConfigError(f"system.n_modes: {nf}**{n_modes} basis states exceed the cap of {MAX_BASIS_DIM}")

    def number(key: str, minimum=-math.inf) -> float:
        return _number(system.get(key, DEFAULTS[key]), f"system.{key}", float, minimum)

    energies = np.atleast_1d(_array(system.get("energy_ev", DEFAULTS["energy_ev"]), "system.energy_ev"))
    if energies.shape == (1,):
        energies = np.repeat(energies, n_modes)
    if energies.shape != (n_modes,):
        raise ConfigError(f"system.energy_ev: expected a scalar or {n_modes} values")
    if np.any(energies <= 0):
        raise ConfigError("system.energy_ev: energies must be positive")

    delta_m2 = number("delta_m2_ev2")
    big_delta_m2 = number("big_delta_m2_ev2")
    pmns = PmnsParams(
        theta12=number("theta12"),
        theta13=number("theta13"),
        theta23=number("theta23"),
        delta_cp=number("delta_cp"),
    )
    k_ev = number("k_ev", 0.0)
    _check_not_tiny(k_ev, "system.k_ev")

    statistics = system.get("statistics", DEFAULTS["statistics"])
    statistics = Statistics(_choice(statistics, "system.statistics", [s.value for s in Statistics]))
    if "b_vector" in system:
        b_rows = _array(system["b_vector"], "system.b_vector")
    else:
        choice = system.get("b_vector_choice", DEFAULTS["b_vector_choice"])
        choice = _choice(choice, "system.b_vector_choice", B_VECTOR_CHOICES)
        b_rows = np.stack(
            [b_vector_preset(choice, nf, delta_m2, big_delta_m2, e) for e in energies]
        )
    where = "system.b_vector" if "b_vector" in system else "system.energy_ev, delta_m2_ev2 or big_delta_m2_ev2"
    _check_not_tiny(b_rows, where)
    angles = _resolve_angles(system, n_modes)
    species = _resolve_species(system, n_modes)
    try:
        spec = SystemSpec(
            n_modes=n_modes,
            nf=nf,
            pmns=pmns,
            coupling_k=k_ev,
            angles=angles,
            b_vector=b_rows,
            species=species,
            statistics=statistics,
        )
    except ValueError as exc:
        raise ConfigError(f"system: {exc}") from None
    return spec, {"energy_ev": energies.tolist(), "delta_m2_ev2": delta_m2, "big_delta_m2_ev2": big_delta_m2}


def _resolve_times(raw) -> list[float]:
    if isinstance(raw, dict):
        raw = _mapping(raw, "times", ("start", "stop", "count"))
        start = _number(raw.get("start"), "times.start", float, 0.0)
        stop = _number(raw.get("stop"), "times.stop", float, 0.0)
        count = _number(raw.get("count"), "times.count", int, 1)
        return [float(t) for t in np.linspace(start, stop, count)]
    if not isinstance(raw, list):
        raise ConfigError("times: expected a list or a start/stop/count mapping")
    return [_number(t, f"times[{i}]", float, 0.0) for i, t in enumerate(raw)]


def _resolve_initial(raw, spec: SystemSpec) -> StateVector:
    if raw is None:
        raise ConfigError("initial_state: required")
    if isinstance(raw, str):
        labels = [part.strip() for part in raw.split(",")]
    elif isinstance(raw, list):
        labels = [str(part) for part in raw]
    else:
        raise ConfigError("initial_state: expected a list of flavor labels")
    if len(labels) != spec.n_modes:
        raise ConfigError(
            f"initial_state: expected {spec.n_modes} flavor labels, got {len(labels)}"
        )
    try:
        return flavor_state(labels, spec.nf)
    except ValueError as exc:
        raise ConfigError(f"initial_state: {exc}") from None


def build_aqae_config(section: dict, seed: int) -> tuple[AqaeConfig, float | None]:
    """Resolve the ``aqae`` section; returns the config and the clock dt."""
    section = _mapping(section, "aqae", AQAE_KEYS)
    dt = section.get("dt")
    if dt is not None:
        dt = _number(dt, "aqae.dt")
        if dt <= 0:
            raise ConfigError("aqae.dt: must be positive when set")
    kwargs = {key: _number(section[key], f"aqae.{key}", int) for key in AQAE_INTS if key in section}
    try:
        return AqaeConfig(seed=seed, **kwargs), dt
    except ValueError as exc:
        raise ConfigError(f"aqae: {exc}") from None


@dataclass(frozen=True)
class QuboConfig:
    """The ``qubo`` section: one clock QUBO export by ``nuanneal qubo``, with
    ``aqae.k_bits`` bits per slot and the initial register frozen."""

    time: float
    zoom: int
    direction: Direction


@dataclass(frozen=True)
class BenchConfig:
    """The ``bench`` section: infidelity over ``zooms`` x the ``axis`` setting's ``values``."""

    time: float
    axis: str
    values: tuple[int, ...]
    zooms: tuple[int, ...]


def _int_list(raw, name: str, minimum: int) -> tuple[int, ...]:
    if not isinstance(raw, list) or not raw:
        raise ConfigError(f"{name}: expected a non-empty list")
    return tuple(_number(v, f"{name}[{i}]", int, minimum) for i, v in enumerate(raw))


# nuanneal qubo and nuanneal bench build their clocks over the whole basis.
def _resolve_qubo(raw, spec: SystemSpec, dt: float | None) -> QuboConfig | None:
    section = _mapping(raw, "qubo", ("time", "zoom", "direction"))
    if not section:
        return None
    direction = _choice(section.get("direction", "forward"), "qubo.direction", [d.value for d in Direction])
    time = _number(section.get("time"), "qubo.time", float, 0.0)
    _check_clock_size("qubo.time", spec.dim, time, dt)
    return QuboConfig(time, _number(section.get("zoom", 0), "qubo.zoom", int, 0), Direction(direction))


def _resolve_bench(raw, aqae: AqaeConfig, spec: SystemSpec, dt: float | None) -> BenchConfig | None:
    section = _mapping(raw, "bench", ("time", "axis", "values", "zooms"))
    if not section:
        return None
    time = _number(section.get("time"), "bench.time", float, 0.0)
    _check_clock_size("bench.time", spec.dim, time, dt)
    axis = _choice(section.get("axis", "k_bits"), "bench.axis", ("k_bits", "sweeps", "reads"))
    least = 0 if axis == "sweeps" else 1
    values = _int_list(section.get("values"), "bench.values", least)
    zooms = _int_list(section.get("zooms", [aqae.max_zoom - 1]), "bench.zooms", 0)
    return BenchConfig(time, axis, values, zooms)


@dataclass
class ExperimentConfig:
    """Everything a command needs, resolved from one YAML document."""

    raw: dict
    seed: int
    spec: SystemSpec
    # energy_ev, delta_m2_ev2 and big_delta_m2_ev2 as resolved; only resolved() reads them.
    b_vector_inputs: dict
    initial: StateVector | None
    times: list[float]
    aqae: AqaeConfig
    aqae_dt: float | None
    qubo: QuboConfig | None
    bench: BenchConfig | None

    def resolved(self) -> dict:
        """Fully resolved configuration (defaults applied) for provenance."""
        spec = self.spec
        system = {
            "n_modes": spec.n_modes,
            "nf": spec.nf,
            **self.b_vector_inputs,
            "theta12": spec.pmns.theta12,
            "theta13": spec.pmns.theta13,
            "theta23": spec.pmns.theta23,
            "delta_cp": spec.pmns.delta_cp,
            "k_ev": spec.coupling_k,
            "angles": spec.angles.tolist(),
            "species": [s.value for s in spec.species],
            "statistics": spec.statistics.value,
            "b_vector": spec.b_vector.tolist(),
        }
        # Every AqaeConfig field but the seed (recorded once, at the top level).
        aqae = {key: v for key, v in asdict(self.aqae).items() if key != "seed"} | {"dt": self.aqae_dt}
        out = {"seed": self.seed, "system": system, "times": self.times, "aqae": aqae}
        if "initial_state" in self.raw:
            out["initial_state"] = self.raw["initial_state"]
        # The qubo and bench sections are echoed as written.
        for key in ("qubo", "bench"):
            if self.raw.get(key):
                out[key] = self.raw[key]
        return out


def load_config(path: str | Path, seed_override: int | None = None) -> ExperimentConfig:
    """Parse and validate an experiment configuration file."""
    try:
        raw = yaml.safe_load(Path(path).read_text())
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from None
    return resolve_config(raw, seed_override)


def resolve_config(raw: dict, seed_override: int | None = None) -> ExperimentConfig:
    if not isinstance(raw, dict):
        raise ConfigError("top level: expected a mapping")
    keys = ("seed", "system", "initial_state", "times", "aqae", "qubo", "bench")
    _mapping(raw, "top level", keys)
    if "system" not in raw:
        raise ConfigError("system: required")
    seed = _number(seed_override if seed_override is not None else raw.get("seed", 0), "seed", int, 0)
    spec, b_vector_inputs = build_system_spec(raw["system"])
    initial = _resolve_initial(raw["initial_state"], spec) if "initial_state" in raw else None
    times = _resolve_times(raw["times"]) if "times" in raw else []
    aqae_cfg, aqae_dt = build_aqae_config(raw.get("aqae"), seed)
    if aqae_dt is not None and times:
        # run_aqae_blocked's clock over the largest block at the last time.
        largest = max(block.size for block in mass_blocks(spec.nf, spec.n_modes))
        _check_clock_size("aqae.dt", largest, max(times), aqae_dt)
    return ExperimentConfig(
        raw=raw,
        seed=seed,
        spec=spec,
        b_vector_inputs=b_vector_inputs,
        initial=initial,
        times=times,
        aqae=aqae_cfg,
        aqae_dt=aqae_dt,
        qubo=_resolve_qubo(raw.get("qubo"), spec, aqae_dt),
        bench=_resolve_bench(raw.get("bench"), aqae_cfg, spec, aqae_dt),
    )


def load_state(path: str | Path) -> tuple[StateVector, float]:
    """Read a statevector JSON file: ``amplitudes`` as [re, im] pairs, ``nf``,
    ``n_modes``, an optional ``basis`` (flavor) and ``time`` (0).  Returns the
    state and its time; ``ConfigError`` names the field at fault."""
    try:
        data = json.loads(Path(path).read_text())
    except ValueError as exc:
        raise ConfigError(f"invalid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError("expected a JSON object")
    nf = _number(data.get("nf"), "nf", int)
    if nf not in (2, 3):
        raise ConfigError(f"nf: must be 2 or 3, got {nf}")
    n_modes = _number(data.get("n_modes"), "n_modes", int, 1)
    pairs = _array(data.get("amplitudes"), "amplitudes")
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ConfigError("amplitudes: expected a list of [re, im] pairs")
    # With nf >= 2, more modes than the amplitude count has bits means more
    # basis states than amplitudes; said without forming a huge nf**n_modes.
    if n_modes > len(pairs).bit_length():
        raise ConfigError(f"n_modes: {nf}**{n_modes} basis states, more than the {len(pairs)} amplitudes given")
    basis = BasisTag(_choice(data.get("basis", "flavor"), "basis", [b.value for b in BasisTag]))
    time = _number(data.get("time", 0.0), "time")
    try:
        return StateVector(pairs.view(complex)[:, 0], basis, nf, n_modes), time
    except ValueError as exc:
        raise ConfigError(f"amplitudes: {exc}") from None
