import math
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from nuanneal.clock import Direction
from nuanneal.config import DEFAULTS, BenchConfig, ConfigError, QuboConfig, load_config, resolve_config
from nuanneal.hamiltonians import Species, Statistics, b_vector_preset

README = Path(__file__).parent.parent / "README.md"
CONFIGS = sorted((Path(__file__).parent.parent / "configs").glob("*.yaml"))


def minimal(**extra):
    raw = {"system": {"n_modes": 2, "nf": 3}}
    raw.update(extra)
    return raw


class TestResolveConfig:
    def test_minimal_config_uses_reference_defaults(self):
        cfg = resolve_config(minimal())
        spec = cfg.spec
        assert spec.nf == 3 and spec.n_modes == 2
        assert spec.coupling_k == 1.75e-12
        assert spec.pmns.theta12 == 0.591667
        assert spec.statistics is Statistics.DIRAC
        assert all(s is Species.NEUTRINO for s in spec.species)
        # two modes default to the head-on pair angle
        assert spec.angles[0, 1] == pytest.approx(math.pi / 4)
        # one-body coefficients from the mass splittings at 10 MeV
        assert spec.b_vector[0][2] == pytest.approx(-1.855e-12, rel=1e-12)

    def test_four_modes_default_to_anisotropic_angles(self):
        cfg = resolve_config({"system": {"n_modes": 4, "nf": 3}})
        assert cfg.spec.angles[0, 3] == pytest.approx(math.acos(0.9))

    def test_explicit_angle_matrix(self):
        angles = [[0.0, 0.2], [0.2, 0.0]]
        cfg = resolve_config({"system": {"n_modes": 2, "nf": 2, "angles": angles}})
        np.testing.assert_array_equal(cfg.spec.angles, angles)

    def test_initial_state_string_form(self):
        cfg = resolve_config(minimal(initial_state="e, mu"))
        assert cfg.initial is not None
        assert cfg.initial.amplitudes[1] == 1.0

    def test_times_grid(self):
        cfg = resolve_config(minimal(times={"start": 0.0, "stop": 4.0, "count": 5}))
        assert cfg.times == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_seed_override(self):
        cfg = resolve_config(minimal(seed=3), seed_override=99)
        assert cfg.seed == 99
        assert cfg.aqae.seed == 99

    def test_zero_choice_records_a_zero_b_vector(self):
        cfg = resolve_config({"system": {"n_modes": 3, "nf": 3, "b_vector_choice": "zero"}})
        assert cfg.resolved()["system"]["b_vector"] == [[0.0] * 8] * 3

    def test_explicit_b_vector(self):
        b = [0.0, 0.0, 1e-12, 0.0, 0.0, 0.0, 0.0, 2e-12]
        cfg = resolve_config({"system": {"n_modes": 2, "nf": 3, "b_vector": b}})
        np.testing.assert_array_equal(cfg.spec.b_vector[0], b)

    def test_per_mode_energies(self):
        cfg = resolve_config({"system": {"n_modes": 2, "nf": 3, "energy_ev": [1e7, 2e7]}})
        assert cfg.spec.b_vector[1][2] == pytest.approx(cfg.spec.b_vector[0][2] / 2.0)
        # The header records the energies and splittings the vectors came from.
        system = cfg.resolved()["system"]
        dm2, big_dm2 = DEFAULTS["delta_m2_ev2"], DEFAULTS["big_delta_m2_ev2"]
        assert system["energy_ev"] == [1e7, 2e7]
        assert (system["delta_m2_ev2"], system["big_delta_m2_ev2"]) == (dm2, big_dm2)
        assert system["b_vector"] == [b_vector_preset("appendixA", 3, dm2, big_dm2, e).tolist() for e in (1e7, 2e7)]

    def test_aqae_section(self):
        cfg = resolve_config(minimal(aqae={"k_bits": 2, "max_zoom": 7, "dt": 1e11}))
        assert cfg.aqae.k_bits == 2
        assert cfg.aqae.max_zoom == 7
        assert cfg.aqae_dt == 1e11
        assert set(cfg.resolved()["aqae"]) == {"k_bits", "max_zoom", "reads", "sweeps", "dt"}


    def test_numeric_strings_are_numbers(self):
        # PyYAML reads 1.1e12 (no exponent sign) as a string.
        raw = yaml.safe_load("system: {n_modes: '2', nf: 3, k_ev: 1.75e-12}\ntimes: [1.1e12, 0]\n")
        cfg = resolve_config(raw)
        assert cfg.times == [1.1e12, 0.0]
        assert cfg.spec.n_modes == 2 and cfg.spec.coupling_k == 1.75e-12

    def test_qubo_and_bench_sections_are_typed_with_aqae_defaults(self):
        raw = minimal(
            aqae={"k_bits": 2, "max_zoom": 9},
            qubo={"time": "1.0e12"},
            bench={"time": 2e12, "axis": "sweeps", "values": [0, "16"]},
        )
        cfg = resolve_config(raw)
        assert cfg.qubo == QuboConfig(1e12, 0, Direction.FORWARD)
        assert cfg.bench == BenchConfig(2e12, "sweeps", (0, 16), (8,))
        # The header records both sections as written.
        assert cfg.resolved()["qubo"] == {"time": "1.0e12"}
        assert cfg.resolved()["bench"]["values"] == [0, "16"]

    def test_absent_qubo_and_bench_sections(self):
        cfg = resolve_config(minimal(qubo={}, bench=None))
        assert cfg.qubo is None and cfg.bench is None
        assert "qubo" not in cfg.resolved() and "bench" not in cfg.resolved()

    def test_readme_configuration_reference_resolves(self):
        # Unknown keys are rejected, so a key the README documents but the
        # code does not read (or a misspelt one) fails here.
        section = README.read_text().split("## Configuration reference", 1)[1]
        block = re.search(r"```yaml\n(.*?)```", section, re.S).group(1)
        cfg = resolve_config(yaml.safe_load(block))
        assert cfg.spec.n_modes == 4 and cfg.initial is not None
        assert cfg.qubo is not None and cfg.bench is not None
        documented = set(yaml.safe_load(block)["aqae"])
        assert documented | {"dt"} == set(cfg.resolved()["aqae"])


class TestValidationErrors:
    @pytest.mark.parametrize(
        "raw,fragment",
        [
            ({}, "system"),
            ({"system": {"n_modes": 2, "nf": 4}}, "system.nf"),
            ({"system": {"n_modes": 0, "nf": 2}}, "system.n_modes"),
            ({"system": {"n_modes": 2, "nf": 2, "k_ev": -1.0}}, "system.k_ev"),
            ({"system": {"n_modes": 2, "nf": 2, "xi": 1.5}}, "system.xi"),
            ({"system": {"n_modes": 2, "nf": 2, "statistics": "bosonic"}}, "system.statistics"),
            ({"system": {"n_modes": 2, "nf": 2, "species": ["neutrino"]}}, "system.species"),
            (
                {"system": {"n_modes": 2, "nf": 2, "species": ["neutrino", "tachyon"]}},
                "system.species[1]",
            ),
            ({"system": {"n_modes": 2, "nf": 2, "b_vector_choice": "nope"}}, "b_vector_choice"),
            ({"system": {"n_modes": 2, "nf": 2, "energy_ev": -1.0}}, "energy_ev"),
            ({"system": {"n_modes": 2, "nf": 2}, "times": [-1.0]}, "times"),
            ({"system": {"n_modes": 2, "nf": 2}, "initial_state": ["e"]}, "initial_state"),
            ({"system": {"n_modes": 2, "nf": 2}, "initial_state": ["e", "tau"]}, "initial_state"),
            ({"system": {"n_modes": 2, "nf": 2}, "seed": -1}, "seed"),
            ({"system": {"n_modes": 2, "nf": 2}, "aqae": {"max_zoom": 0}}, "aqae"),
            ({"system": {"n_modes": 2, "nf": 2}, "aqae": {"dt": -5.0}}, "aqae.dt"),
            # A 2x2 angles matrix replaces pair_angle.
            ({"system": {"n_modes": 2, "nf": 2, "pair_angle": 0.3}}, "pair_angle"),
            ({"system": {"n_modes": 2, "nf": 2, "angles": [[0, 1], [1]]}}, "system.angles: expected rows"),
            ({"system": {"n_modes": 2, "nf": 2, "energy_ev": [1e7, "x"]}}, "system.energy_ev[1]"),
            ({"system": {"n_modes": 2, "nf": 2}, "qubo": {"zoom": 2}}, "qubo.time: required"),
            ({"system": {"n_modes": 2, "nf": 2}, "qubo": {"time": 1, "direction": "up"}}, "qubo.direction"),
            ({"system": {"n_modes": 2, "nf": 2}, "bench": {"time": 1, "axis": "zoom"}}, "bench.axis"),
            ({"system": {"n_modes": 2, "nf": 2}, "bench": {"time": 1, "values": []}}, "bench.values"),
        ],
    )
    def test_field_context_in_message(self, raw, fragment):
        with pytest.raises(ConfigError, match=fragment.replace("[", "\\[")):
            resolve_config(raw)

    def test_non_mapping_top_level(self):
        with pytest.raises(ConfigError):
            resolve_config([1, 2, 3])


class TestLoadConfig:
    @pytest.mark.parametrize("path", CONFIGS, ids=[p.name for p in CONFIGS])
    def test_shipped_config_loads(self, path):
        # Unknown keys are rejected, so a key left over from a removed
        # setting fails here.
        cfg = load_config(path)
        assert cfg.initial is not None

    def test_round_trip_through_yaml(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text(
            "system:\n  n_modes: 2\n  nf: 2\n  statistics: majorana\n"
            "initial_state: [e, e]\ntimes: [1.0e11]\nseed: 5\n"
        )
        cfg = load_config(path)
        assert cfg.spec.statistics is Statistics.MAJORANA
        assert cfg.seed == 5
        assert cfg.times == [1e11]

    def test_invalid_yaml_reports_path(self, tmp_path):
        path = tmp_path / "broken.yaml"
        path.write_text("system: [unclosed\n")
        with pytest.raises(ConfigError, match="YAML"):
            load_config(path)

    def test_non_utf8_file_is_a_config_error(self, tmp_path):
        path = tmp_path / "latin1.yaml"
        path.write_bytes(b"system:\n  n_modes: 2\n  nf: 2\n  statistics: \xff\n")
        with pytest.raises(ConfigError, match="invalid YAML"):
            load_config(path)
