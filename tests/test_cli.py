import contextlib
import errno
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from helpers import BAD_QUBO_TEXTS, OVERFLOWING_QUBO_TEXTS, REFERENCE_S3, REFERENCE_TIMES

import nuanneal.cli as cli_mod
from nuanneal.annealer import exhaustive_minimum
from nuanneal.aqae import run_aqae
from nuanneal.cli import main
from nuanneal.clock import QuboProblem

REFERENCE_YAML = """\
system:
  n_modes: 4
  nf: 3
  energy_ev: 1.0e7
  delta_m2_ev2: 7.42e-5
  big_delta_m2_ev2: 2.44e-3
  theta12: 0.591667
  theta13: 0.148702
  theta23: 0.840027
  delta_cp: 4.36681
  k_ev: 1.75e-12
  xi: 0.9
initial_state: [e, e, tau, mu]
times: [1.1e12, 2.2e12, 3.3e12, 4.4e12, 5.5e12, 6.6e12, 7.7e12, 8.8e12, 9.9e12]
seed: 7
"""

BENCH_CONFIG = Path(__file__).parent.parent / "configs" / "two_mode_bench.yaml"
AQAE_CONFIG = Path(__file__).parent.parent / "configs" / "four_mode_aqae.yaml"

SMALL_YAML = """\
system:
  n_modes: 2
  nf: 2
initial_state: [e, mu]
times: [1.0e12]
seed: 3
aqae:
  k_bits: 1
  max_zoom: 10
  reads: 16
  sweeps: 32
"""


def read_csv(path):
    header = []
    rows = []
    columns = None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            header.append(line)
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return header, columns, rows


@pytest.fixture
def reference_cfg(tmp_path):
    path = tmp_path / "reference.yaml"
    path.write_text(REFERENCE_YAML)
    return path


@pytest.fixture
def small_cfg(tmp_path):
    path = tmp_path / "small.yaml"
    path.write_text(SMALL_YAML)
    return path


class TestEvolveCommand:
    def test_reference_series(self, reference_cfg, tmp_path):
        out = tmp_path / "witnesses.csv"
        assert main(["evolve", "--config", str(reference_cfg), "--out", str(out)]) == 0
        header, columns, rows = read_csv(out)
        assert any(h.startswith("# config:") for h in header)
        assert any(h.startswith("# seed:") for h in header)
        assert columns[:6] == ["time_ev_inv", "S_1", "S_2", "S_3", "S_4", "N_12"]
        assert len(columns) == 1 + 4 + 6
        assert len(rows) == 9
        s3_column = columns.index("S_3")
        for row, t, s3 in zip(rows, REFERENCE_TIMES, REFERENCE_S3):
            assert float(row[0]) == pytest.approx(t)
            assert float(row[s3_column]) == pytest.approx(s3, abs=1e-5)

    def test_reruns_are_byte_identical(self, reference_cfg, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        main(["evolve", "--config", str(reference_cfg), "--out", str(out1)])
        main(["evolve", "--config", str(reference_cfg), "--out", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_override_lands_in_header(self, reference_cfg, tmp_path):
        out = tmp_path / "c.csv"
        main(["evolve", "--config", str(reference_cfg), "--out", str(out), "--seed", "123"])
        header, _, _ = read_csv(out)
        assert "# seed: 123" in header

    def test_config_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("system:\n  n_modes: 2\n  nf: 7\n")
        assert main(["evolve", "--config", str(bad)]) == 2
        assert "system.nf" in capsys.readouterr().err

    def test_missing_file_exit_code(self, reference_cfg, tmp_path, capsys):
        missing = tmp_path / "nope.yaml"
        assert main(["evolve", "--config", str(missing)]) == 2
        assert f"cannot open {missing}" in capsys.readouterr().err
        assert main(["anneal", "--qubo", str(tmp_path / "nope.qubo")]) == 2
        # An --out into a missing directory is named as the output path.
        out = tmp_path / "missing" / "x.csv"
        assert main(["evolve", "--config", str(reference_cfg), "--out", str(out)]) == 2
        assert f"cannot open {out}: " in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["directory", "unreadable"])
    @pytest.mark.parametrize("command, flag", [("evolve", "--config"), ("witness", "--state"), ("anneal", "--qubo")])
    def test_unreadable_input_exits_2_naming_the_path(self, tmp_path, monkeypatch, capsys, command, flag, kind):
        path = tmp_path / "input"
        if kind == "directory":
            path.mkdir()
        else:
            path.write_text("")
            # Refuse the read as the OS would for a mode-000 file, which a
            # superuser could still read.
            read_text = Path.read_text

            def refuse(self, *args, **kwargs):
                if self == path:
                    raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(self))
                return read_text(self, *args, **kwargs)

            monkeypatch.setattr(Path, "read_text", refuse)
        assert main([command, flag, str(path)]) == 2
        err = capsys.readouterr().err
        assert f"cannot open {path}" in err
        assert "Traceback" not in err

    def test_free_streaming_system_has_zero_witnesses(self, tmp_path):
        cfg = tmp_path / "free.yaml"
        cfg.write_text(
            "system:\n  n_modes: 2\n  nf: 3\n  k_ev: 0.0\n  b_vector_choice: zero\n"
            "initial_state: [e, mu]\ntimes: [1.0e12, 5.0e12]\n"
        )
        out = tmp_path / "free.csv"
        main(["evolve", "--config", str(cfg), "--out", str(out)])
        _, columns, rows = read_csv(out)
        for row in rows:
            assert all(float(v) == 0.0 for v in row[1:])

    def test_one_mode_system_runs_without_angles(self, tmp_path):
        # One mode has no pairs; it used to get the two-mode default angles.
        for xi in ("", "\n  xi: 0.5"):
            cfg = tmp_path / "one.yaml"
            cfg.write_text(config_text(system="\n  n_modes: 1\n  nf: 3" + xi, initial_state=" [e]"))
            out = tmp_path / "one.csv"
            assert main(["evolve", "--config", str(cfg), "--out", str(out)]) == 0
            _, columns, rows = read_csv(out)
            assert columns == ["time_ev_inv", "S_1"] and len(rows) == 1

    def test_self_conjugate_three_flavor_entropy_ceiling(self, tmp_path):
        # Three-flavor self-conjugate dynamics climb past the two-flavor
        # entropy ceiling of 1 bit but never exceed log2(3).
        cfg = tmp_path / "major.yaml"
        cfg.write_text(
            "system:\n  n_modes: 2\n  nf: 3\n  statistics: majorana\n"
            "initial_state: [e, mu]\n"
            "times: {start: 0.0, stop: 2.0e14, count: 200}\n"
        )
        out = tmp_path / "major.csv"
        main(["evolve", "--config", str(cfg), "--out", str(out)])
        _, columns, rows = read_csv(out)
        s1 = [float(r[columns.index("S_1")]) for r in rows]
        assert max(s1) <= np.log2(3.0) + 1e-9
        assert max(s1) > 1.2


def config_text(**sections) -> str:
    """A small valid evolve config with the given top-level sections
    replaced (or added); each value is the YAML text after ``key:``."""
    body = {
        "system": "\n  n_modes: 2\n  nf: 2",
        "initial_state": " [e, mu]",
        "times": " [1.0e12]",
        **sections,
    }
    return "".join(f"{key}:{text}\n" for key, text in body.items())


SYSTEM = "\n  n_modes: 2\n  nf: 2\n  "
QUBO = "\n  time: 1.0e12\n  "
BENCH = "\n  time: 1.0e12\n  values: [1]\n  "

BAD_CONFIGS = [
    # Values that used to end in a traceback.
    ("dt-word", {"aqae": "\n  dt: abc"}, "aqae.dt: expected a finite float, got 'abc'"),
    ("times-word", {"times": " [1.0e12, abc]"}, "times[1]: expected a finite float >= 0.0, got 'abc'"),
    ("theta12-nan", {"system": SYSTEM + "theta12: .nan"}, "system.theta12: expected a finite float, got nan"),
    ("k_ev-inf", {"system": SYSTEM + "k_ev: .inf"}, "system.k_ev: expected a finite float >= 0.0, got inf"),
    ("energy-word", {"system": SYSTEM + "energy_ev: abc"}, "system.energy_ev: expected a finite float, got 'abc'"),
    ("b_vector-word", {"system": SYSTEM + "b_vector: [0, 0, x]"}, "system.b_vector[2]: expected a finite float"),
    # Values that used to be accepted and change or skip the run.
    (
        "times-negative-start",
        {"times": " {start: -1.0e12, stop: 1.0e12, count: 3}"},
        "times.start: expected a finite float >= 0.0, got '-1.0e12'",
    ),
    ("theta12-bool", {"system": SYSTEM + "theta12: true"}, "system.theta12: expected a finite float, got True"),
    # Subnormal one-body terms once failed the Hermiticity check with a traceback.
    (
        "b_vector-subnormal",
        {
            "system": "\n  n_modes: 2\n  nf: 3\n  species: [neutrino, antineutrino]\n  theta23: 2.0\n  xi: 1.0"
            "\n  b_vector: [0, 0, 2.2e-313, 0, 0, 0, 0, 2.2e-313]"
        },
        "system.b_vector: nonzero 2.2e-313 is below the least magnitude 1.00208e-292",
    ),
    (
        "energy-huge",
        {"system": SYSTEM + "energy_ev: 1.0e300"},
        "system.energy_ev, delta_m2_ev2 or big_delta_m2_ev2: nonzero -6.1e-304 is below",
    ),
    ("k_ev-tiny", {"system": SYSTEM + "k_ev: 1.0e-300"}, "system.k_ev: nonzero 1e-300 is below"),
    # A negative time used to give a zero-length clock step.
    (
        "bench-time-negative",
        {"bench": "\n  time: -1.0e12\n  values: [1]"},
        "bench.time: expected a finite float >= 0.0, got '-1.0e12'",
    ),
    ("reads-zero", {"aqae": "\n  reads: 0"}, "aqae: reads must be at least 1"),
    ("sweeps-negative", {"aqae": "\n  sweeps: -1"}, "aqae: sweeps must be non-negative"),
    ("max_rewinds-negative", {"aqae": "\n  max_rewinds: -1"}, "aqae: max_rewinds must be non-negative"),
    # Clocks too large to build: a traceback from numpy used to end aqae and qubo.
    (
        "dt-too-small",
        {"aqae": "\n  dt: 1.0"},
        "aqae.dt: 1e+12 clock steps over 2 states each exceed the cap of 59049 clock states",
    ),
    (
        "qubo-steps-too-many",
        {"times": " []", "aqae": "\n  dt: 1.0", "qubo": QUBO},
        "qubo.time: 1e+12 clock steps over 4 states each exceed the cap of 59049 clock states",
    ),
    (
        "bench-steps-too-many",
        {"times": " []", "aqae": "\n  dt: 1.0", "bench": BENCH},
        "bench.time: 1e+12 clock steps over 4 states each exceed the cap of 59049 clock states",
    ),
    # Unknown keys, including the dropped annealing knobs.
    ("top-unknown", {"sed": " 1"}, "sed: unknown key"),
    ("system-unknown", {"system": SYSTEM + "theta_12: 0.1"}, "system.theta_12: unknown key"),
    # b_vector_choice: zero is the one way to drop the one-body term.
    (
        "interaction_only-string",
        {"system": SYSTEM + 'interaction_only: "false"'},
        "system.interaction_only: unknown key",
    ),
    ("times-unknown", {"times": " {start: 0.0, stop: 1.0, count: 2, step: 1}"}, "times.step: unknown key"),
    ("aqae-unknown", {"aqae": "\n  max_zom: 5"}, "aqae.max_zom: unknown key"),
    ("qubo-unknown", {"qubo": QUBO + "zom: 1"}, "qubo.zom: unknown key"),
    # The export takes K from aqae.k_bits, its clock from aqae.dt, and always freezes.
    ("qubo-k_bits", {"qubo": QUBO + "k_bits: 1"}, "qubo.k_bits: unknown key"),
    ("qubo-steps", {"qubo": QUBO + "steps: 1"}, "qubo.steps: unknown key"),
    ("freeze_initial-string", {"qubo": QUBO + 'freeze_initial: "false"'}, "qubo.freeze_initial: unknown key"),
    ("bench-unknown", {"bench": BENCH + "zoom: [1]"}, "bench.zoom: unknown key"),
    ("penalty_weight", {"aqae": "\n  penalty_weight: 0.1"}, "aqae.penalty_weight: unknown key"),
    ("beta_start", {"aqae": "\n  beta_start: 0.1"}, "aqae.beta_start: unknown key"),
    ("beta_end", {"aqae": "\n  beta_end: 4.0"}, "aqae.beta_end: unknown key"),
    # max_rewinds: 0 is the off switch; the detector's window and threshold are fixed.
    ("rewind_enabled", {"aqae": "\n  rewind_enabled: false"}, "aqae.rewind_enabled: unknown key"),
    ("convergence_window", {"aqae": "\n  convergence_window: 8"}, "aqae.convergence_window: unknown key"),
    ("convergence_pct", {"aqae": "\n  convergence_pct: 1.0"}, "aqae.convergence_pct: unknown key"),
    ("block_size_cap", {"aqae": "\n  block_size_cap: 210"}, "aqae.block_size_cap: unknown key"),
]


@pytest.mark.parametrize(
    "sections, message", [case[1:] for case in BAD_CONFIGS], ids=[case[0] for case in BAD_CONFIGS]
)
def test_bad_config_value_exits_2_naming_the_field(tmp_path, capsys, sections, message):
    path = tmp_path / "bad.yaml"
    path.write_text(config_text(**sections))
    assert main(["evolve", "--config", str(path), "--out", str(tmp_path / "out.csv")]) == 2
    err = capsys.readouterr().err
    assert f"config error: {message}" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out.csv").exists()


class TestBlocksCommand:
    def test_census(self, reference_cfg, tmp_path):
        out = tmp_path / "blocks.csv"
        main(["blocks", "--config", str(reference_cfg), "--out", str(out)])
        text = out.read_text()
        _, columns, rows = read_csv(out)
        assert columns == ["occupation", "size"]
        sizes = sorted(int(r[1]) for r in rows)
        assert sizes == [1, 1, 1, 4, 4, 4, 4, 4, 4, 6, 6, 6, 12, 12, 12]
        assert "# total blocks: 15" in text
        assert "# total states: 81" in text


@pytest.mark.parametrize("command", ["blocks", "evolve"])
@pytest.mark.parametrize("n_modes", [11, 40])
def test_oversize_system_exits_2_naming_n_modes(tmp_path, capsys, command, n_modes):
    # 3**11 is the first basis past the cap.  Both commands used to end in a
    # traceback: blocks in mass_blocks, evolve in allocating the dense H.
    path = tmp_path / "big.yaml"
    labels = ", ".join(["e"] * n_modes)
    path.write_text(config_text(system=f"\n  n_modes: {n_modes}\n  nf: 3", initial_state=f" [{labels}]"))
    out = tmp_path / "out.csv"
    assert main([command, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"config error: system.n_modes: 3**{n_modes} basis states exceed the cap of 59049" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_largest_supported_system_passes_the_cap(tmp_path):
    path = tmp_path / "ten.yaml"
    labels = ", ".join(["e"] * 10)
    path.write_text(config_text(system="\n  n_modes: 10\n  nf: 3", initial_state=f" [{labels}]"))
    out = tmp_path / "blocks.csv"
    assert main(["blocks", "--config", str(path), "--out", str(out)]) == 0
    assert "# total states: 59049" in out.read_text()


class TestQuboAnnealRoundTrip:
    def test_export_then_anneal(self, small_cfg, tmp_path):
        qubo_path = tmp_path / "clock.qubo"
        cfg_text = small_cfg.read_text() + "qubo:\n  time: 1.0e12\n"
        small_cfg.write_text(cfg_text)
        assert main(["qubo", "--config", str(small_cfg), "--out", str(qubo_path)]) == 0

        body = "\n".join(
            ln for ln in qubo_path.read_text().splitlines() if not ln.startswith("#")
        )
        problem = QuboProblem.from_text(body)
        # 2 live registers (real+imag of the evolved state), one bit each
        assert problem.size == 8

        out = tmp_path / "result.json"
        rc = main(
            ["anneal", "--qubo", str(qubo_path), "--sweeps", "400", "--reads", "64",
             "--seed", "11", "--out", str(out)]
        )
        assert rc == 0
        payload = json.loads(out.read_text())
        _, expected = exhaustive_minimum(problem)
        assert payload["best_energy"] == pytest.approx(expected, abs=1e-12)
        assert len(payload["best_bits"]) == 8
        assert payload["read_energy_min"] <= payload["read_energy_median"]


    @pytest.mark.parametrize(
        "text, line", [case[1:3] for case in BAD_QUBO_TEXTS], ids=[c[0] for c in BAD_QUBO_TEXTS]
    )
    def test_malformed_qubo_file_exits_2_naming_file_and_line(self, tmp_path, capsys, text, line):
        path = tmp_path / "bad.qubo"
        path.write_text(text)
        assert main(["anneal", "--qubo", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"invalid QUBO file {path}: line {line}: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "text", [c[1] for c in OVERFLOWING_QUBO_TEXTS], ids=[c[0] for c in OVERFLOWING_QUBO_TEXTS]
    )
    def test_overflowing_qubo_file_exits_2(self, tmp_path, capsys, text):
        path = tmp_path / "huge.qubo"
        path.write_text(text)
        out = tmp_path / "result.json"
        assert main(["anneal", "--qubo", str(path), "--sweeps", "50", "--reads", "4", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"invalid QUBO file {path}: " in err and "overflows a double" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "text", ["qubo 2 0.0\n0 1 1e-310\n", "qubo 2 0.0\n0 0 -1.0\n0 1 1e-310\n"], ids=["subnormal", "mixed"]
    )
    def test_subnormal_qubo_without_betas_exits_2(self, tmp_path, capsys, text):
        # Its default betas overflow; the NaN ramp they once made accepted no
        # flip, and the command exited 0 with a numpy warning.
        path = tmp_path / "tiny.qubo"
        path.write_text(text)
        out = tmp_path / "result.json"
        assert main(["anneal", "--qubo", str(path), "--sweeps", "50", "--reads", "4", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"cannot anneal {path}: default betas overflow" in err
        assert "set --beta-start and --beta-end" in err and "Traceback" not in err
        assert not out.exists()
        flags = ["--beta-start", "1.0", "--beta-end", "2.0", "--out", str(out)]
        assert main(["anneal", "--qubo", str(path), "--sweeps", "50", "--reads", "4", *flags]) == 0

    def test_tiny_betas_run_without_warnings(self, tmp_path):
        # Every threshold overflows to +inf and accepts its flip.  Run in a
        # fresh process so that stderr is exactly what a user sees.
        path = tmp_path / "pair.qubo"
        path.write_text("qubo 2 0.0\n0 1 -1.0\n")
        flags = ["--sweeps", "50", "--reads", "4", "--beta-start", "1e-320", "--beta-end", "1e-320"]
        src = str(Path(cli_mod.__file__).parents[1])
        run = subprocess.run(
            [sys.executable, "-m", "nuanneal.cli", "anneal", "--qubo", str(path), *flags],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert (run.returncode, run.stderr) == (0, "")
        assert json.loads(run.stdout)["size"] == 2

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--sweeps", "-1"], "sweeps must be non-negative"),
            (["--reads", "0"], "reads must be at least 1"),
            (["--beta-start", "1.0"], "set both beta_start and beta_end or neither"),
            (["--beta-start", "2.0", "--beta-end", "1.0"], "betas must satisfy beta_end >= beta_start > 0"),
            (["--beta-start", "1", "--beta-end", "inf"], "betas must be finite"),
        ],
        ids=["sweeps-negative", "reads-zero", "beta-start-alone", "betas-reversed", "beta-end-infinite"],
    )
    def test_bad_schedule_flag_exits_2_naming_it(self, tmp_path, capsys, flags, message):
        path = tmp_path / "pair.qubo"
        path.write_text("qubo 2 0.0\n0 1 -1.0\n")
        assert main(["anneal", "--qubo", str(path), *flags]) == 2
        err = capsys.readouterr().err
        assert f"invalid annealing flags: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "text, flags",
        [
            ("qubo 2 0.0\n0 1 -1.0\n", ["--reads", "100000000000000"]),
            ("qubo 2 0.0\n0 1 -1.0\n", ["--sweeps", "100000000000000"]),
            ("qubo 10000000 0.0\n", []),
        ],
        ids=["reads", "sweeps", "header-size"],
    )
    def test_out_of_memory_input_exits_2(self, tmp_path, capsys, text, flags):
        # Each needs 0.7-1.4 PiB, beyond the 128 TiB x86-64 user address
        # space, so the allocation fails at once on any machine.
        path = tmp_path / "big.qubo"
        path.write_text(text)
        out = tmp_path / "result.json"
        assert main(["anneal", "--qubo", str(path), *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"out of memory: nuanneal anneal --qubo {path} {' '.join(flags)}" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_qubo_file_without_variables_exits_2(self, tmp_path, capsys):
        # Fixing every variable leaves a valid, empty problem that the text
        # format round-trips, but there is nothing to anneal.
        path = tmp_path / "empty.qubo"
        path.write_text("# exported\nqubo 0 0.0\n")
        assert main(["anneal", "--qubo", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"invalid QUBO file {path}: its header declares no variables" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("field, value", [("time", "two"), ("zoom", "two"), ("zoom", "1.5")])
    def test_non_numeric_qubo_field_is_a_config_error(self, small_cfg, tmp_path, capsys, field, value):
        section = {"time": "1.0e12", "zoom": "0"}
        section[field] = value
        lines = "".join(f"  {key}: {value}\n" for key, value in section.items())
        small_cfg.write_text(small_cfg.read_text() + "qubo:\n" + lines)
        assert main(["qubo", "--config", str(small_cfg), "--out", str(tmp_path / "q")]) == 2
        assert f"qubo.{field}: expected" in capsys.readouterr().err

    def test_out_of_range_qubo_field_is_a_config_error(self, small_cfg, tmp_path, capsys):
        small_cfg.write_text(small_cfg.read_text() + "qubo:\n  time: -1.0e12\n")
        assert main(["qubo", "--config", str(small_cfg)]) == 2
        assert "qubo.time: expected a finite float >= 0.0, got '-1.0e12'" in capsys.readouterr().err

    def test_export_clock_takes_its_steps_from_aqae_dt(self, tmp_path):
        # Two steps of 5e11 over nine states: 18 live slots, real and imaginary.
        raw = yaml.safe_load(BENCH_CONFIG.read_text())
        raw["aqae"]["dt"] = 5.0e11
        path = tmp_path / "bench.yaml"
        path.write_text(yaml.safe_dump(raw))
        out = tmp_path / "clock.qubo"
        assert main(["qubo", "--config", str(path), "--out", str(out)]) == 0
        assert QuboProblem.from_text(out.read_text()).size == 36


class TestWitnessCommand:
    GOOD_STATE = {"amplitudes": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]], "nf": 2, "n_modes": 2}

    @pytest.mark.parametrize(
        "change, message",
        [
            ("{not json", "invalid JSON: "),
            ({"amplitudes": None}, "amplitudes: required"),
            ({"nf": None}, "nf: required"),
            ({"nf": 1}, "nf: must be 2 or 3, got 1"),
            ({"nf": 4}, "nf: must be 2 or 3, got 4"),
            ({"n_modes": None}, "n_modes: required"),
            ({"basis": "spin"}, "basis: expected one of flavor, mass, got 'spin'"),
            ({"amplitudes": [[1.0, 0.0]] * 3}, "amplitudes: amplitude vector has shape (3,)"),
            ({"amplitudes": [[1.0, 0.0]] * 4}, "amplitudes: state norm "),
            ({"amplitudes": [[1.0, 0.0], [0.0], [0.0, 0.0], [0.0, 0.0]]}, "amplitudes: expected rows"),
            ({"amplitudes": [[1.0, 0.0], [0.0, "x"], [0.0, 0.0], [0.0, 0.0]]}, "amplitudes[1][1]: expected"),
            ({"time": "later"}, "time: expected a finite float, got 'later'"),
        ],
        ids=[
            "malformed-json", "no-amplitudes", "no-nf", "nf-one", "nf-four", "no-n_modes", "unknown-basis",
            "wrong-count", "unnormalised", "ragged", "amplitude-word", "time-word",
        ],
    )
    def test_bad_state_file_exits_2_naming_file_and_field(self, tmp_path, capsys, change, message):
        path = tmp_path / "state.json"
        if isinstance(change, str):
            path.write_text(change)
        else:
            state = {**self.GOOD_STATE, **change}
            path.write_text(json.dumps({k: v for k, v in state.items() if v is not None}))
        assert main(["witness", "--state", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"invalid state file {path}: {message}" in err
        assert "Traceback" not in err

    def test_huge_n_modes_exits_2_at_once_naming_it(self, tmp_path):
        # nf**n_modes alone would take hours to compute; the child process is
        # killed if it is not done in a minute.
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"nf": 3, "n_modes": 10**10, "amplitudes": [[1.0, 0.0]]}))
        run = subprocess.run(
            [sys.executable, "-m", "nuanneal.cli", "witness", "--state", str(path)],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(Path(cli_mod.__file__).parents[1])},
            timeout=60,
        )
        message = "n_modes: 3**10000000000 basis states, more than the 1 amplitudes given"
        assert (run.returncode, run.stderr) == (2, f"invalid state file {path}: {message}\n")

    def test_product_state_has_zero_witnesses(self, tmp_path):
        state_path = tmp_path / "state.json"
        amp = np.zeros(9)
        amp[4] = 1.0  # |mu mu>
        state_path.write_text(
            json.dumps(
                {
                    "amplitudes": [[float(a), 0.0] for a in amp],
                    "nf": 3,
                    "n_modes": 2,
                    "basis": "flavor",
                    "time": 2.5,
                }
            )
        )
        out = tmp_path / "witness.csv"
        assert main(["witness", "--state", str(state_path), "--out", str(out)]) == 0
        _, columns, rows = read_csv(out)
        assert columns == ["time_ev_inv", "S_1", "S_2", "N_12"]
        assert float(rows[0][0]) == 2.5
        assert float(rows[0][1]) == 0.0
        assert float(rows[0][3]) == 0.0


@pytest.fixture(scope="module")
def stalled_run(tmp_path_factory):
    """The shipped AQAE config with clock steps of 1.1e12, run with --oracle:
    every block converges at the first sample time (one step), most stall and
    rewind at the second (three steps).  Returns the exit code, the stderr
    text and the JSON report."""
    raw = yaml.safe_load(AQAE_CONFIG.read_text())
    raw["times"] = [1.1e12, 3.3e12]
    raw["aqae"]["dt"] = 1.1e12
    path = tmp_path_factory.mktemp("stalled") / "stalled.yaml"
    path.write_text(yaml.safe_dump(raw))
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = main(["aqae", "--config", str(path), "--oracle", "--out", str(path.with_suffix(".csv"))])
    return rc, err.getvalue(), json.loads(path.with_suffix(".json").read_text())


class TestAqaeCommand:
    def test_small_run_produces_csv_and_json(self, small_cfg, tmp_path, capsys):
        out = tmp_path / "aqae.csv"
        rc = main(["aqae", "--config", str(small_cfg), "--out", str(out), "--oracle"])
        assert rc == 0
        # Every live block converges, so no unconverged line is printed.
        assert capsys.readouterr().err == ""
        _, columns, rows = read_csv(out)
        assert columns == ["time_ev_inv", "S_1", "S_2", "N_12"]
        assert len(rows) == 1
        report = json.loads(out.with_suffix(".json").read_text())
        runs = report["blocks"][0]["block_runs"]
        assert sorted(r["size"] for r in runs) == [1, 1, 2]
        for r in runs:
            if not r["skipped"]:
                assert r["overlap"] > 1 - 1e-4

    @pytest.mark.parametrize(
        "system, field",
        [
            ("statistics: majorana", "statistics"),
            ("species: [neutrino, antineutrino]", "species"),
            ("b_vector: [1.0e-12, 0.0, -1.8e-12]", "b_vector"),
        ],
        ids=["majorana", "mixed-species", "off-diagonal-b_vector"],
    )
    def test_system_without_occupation_blocks_exits_2_naming_the_field(self, tmp_path, capsys, system, field):
        # These used to end in a ValueError traceback from run_aqae_blocked.
        path = tmp_path / "unblocked.yaml"
        path.write_text(config_text(system=SYSTEM + system))
        out = tmp_path / "aqae.csv"
        assert main(["aqae", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config error: system.{field}: blocked AQAE needs an all-neutrino Dirac system" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_run_ending_on_a_rewind_reports_its_last_pass(self, stalled_run):
        _, _, report = stalled_run
        live = [r for entry in report["blocks"] for r in entry["block_runs"] if not r["skipped"]]
        assert sum(r["rewinds"] for r in live) > 0
        assert all(isinstance(r["overlap"], float) and isinstance(r["final_energy"], float) for r in live)

    def test_unconverged_blocks_get_one_stderr_line_per_time(self, stalled_run):
        rc, err, report = stalled_run
        counts = []
        for entry in report["blocks"]:
            live = [r for r in entry["block_runs"] if not r["skipped"]]
            counts.append((sum(not r["converged"] for r in live), len(live)))
        assert rc == 0 and counts[0][0] == 0 and counts[1][0] > 0
        assert err == (
            f"{counts[1][0]} of {counts[1][1]} live blocks unconverged at time 3.3e+12; "
            "raise aqae.dt, aqae.max_zoom, aqae.reads or aqae.sweeps\n"
        )

    def test_collapsed_register_exits_2_in_one_line(self, small_cfg, capsys):
        small_cfg.write_text(
            "system: {n_modes: 2, nf: 3}\ninitial_state: [e, mu]\ntimes: [1.0e12]\n"
            "aqae: {max_zoom: 1, reads: 1, sweeps: 0}\n"
        )
        assert main(["aqae", "--config", str(small_cfg)]) == 2
        assert capsys.readouterr().err == (
            "AQAE failed on block (0, 2, 0) (size 1) at time 1e+12: AQAE final register collapsed to zero; "
            "no estimate available; raise aqae.max_zoom, aqae.reads or aqae.sweeps\n"
        )


class TestBenchCommand:
    def test_clock_takes_its_steps_from_aqae_dt(self, monkeypatch, tmp_path):
        raw = yaml.safe_load(BENCH_CONFIG.read_text())
        raw["aqae"]["dt"] = 5.0e11
        raw["bench"].update(values=[16], zooms=[3])
        path = tmp_path / "bench.yaml"
        path.write_text(yaml.safe_dump(raw))
        clocks = []

        def recording_run(h, initial, dt, cfg, steps=1, oracle=False):
            clocks.append((dt, steps))
            return run_aqae(h, initial, dt, cfg, steps, oracle)

        monkeypatch.setattr(cli_mod, "run_aqae", recording_run)
        assert main(["bench", "--config", str(path), "--out", str(tmp_path / "bench.csv")]) == 0
        assert clocks == [(5.0e11, 2)]

    def test_collapsed_register_exits_2_in_one_line(self, small_cfg, capsys):
        small_cfg.write_text(
            "system: {n_modes: 2, nf: 3}\ninitial_state: [e, mu]\naqae: {max_zoom: 2, reads: 4, sweeps: 4}\n"
            "bench: {time: 1.0e12, axis: sweeps, values: [4], zooms: [0]}\n"
        )
        assert main(["bench", "--config", str(small_cfg)]) == 2
        err = capsys.readouterr().err
        assert err == (
            "AQAE failed at time 1e+12, sweeps 4: AQAE final register collapsed to zero; no estimate "
            "available; raise bench.zooms, bench.values or aqae.reads\n"
        )

    @pytest.mark.parametrize(
        "axis, value, hint",
        [
            ("reads", 4, "bench.zooms, bench.values or aqae.sweeps"),
            ("k_bits", 1, "bench.zooms, bench.values, aqae.reads or aqae.sweeps"),
        ],
        ids=["reads", "k_bits"],
    )
    def test_collapse_hint_names_only_keys_the_bench_reads(self, small_cfg, capsys, axis, value, hint):
        # The bench overrides aqae.max_zoom with bench.zooms and the axis key with bench.values.
        small_cfg.write_text(
            "system: {n_modes: 2, nf: 3}\ninitial_state: [e, mu]\naqae: {max_zoom: 2, reads: 4, sweeps: 4}\n"
            f"bench: {{time: 1.0e12, axis: {axis}, values: [{value}], zooms: [0]}}\n"
        )
        assert main(["bench", "--config", str(small_cfg)]) == 2
        assert capsys.readouterr().err.endswith(f"no estimate available; raise {hint}\n")

    def test_zoom_dominates_infidelity(self, small_cfg, tmp_path):
        cfg_text = small_cfg.read_text() + (
            "bench:\n  time: 1.0e12\n  axis: sweeps\n  values: [64]\n  zooms: [0, 20]\n"
        )
        small_cfg.write_text(cfg_text)
        out = tmp_path / "bench.csv"
        assert main(["bench", "--config", str(small_cfg), "--out", str(out)]) == 0
        _, columns, rows = read_csv(out)
        assert columns == ["zoom", "sweeps", "infidelity"]
        values = {int(r[0]): float(r[2]) for r in rows}
        assert values[20] < values[0] / 10.0

    def test_zero_sweep_budget_is_no_better_than_random(self, small_cfg, tmp_path):
        cfg_text = small_cfg.read_text() + (
            "bench:\n  time: 1.0e12\n  axis: sweeps\n  values: [0, 64]\n  zooms: [6]\n"
        )
        small_cfg.write_text(cfg_text)
        out = tmp_path / "bench.csv"
        main(["bench", "--config", str(small_cfg), "--out", str(out)])
        _, _, rows = read_csv(out)
        values = {int(r[1]): float(r[2]) for r in rows}
        # Unoptimized reads leave the estimate far from the target while the
        # same zoom budget with real sweeps converges.
        assert values[0] > 0.05
        assert values[64] < values[0] / 10.0

    @pytest.mark.parametrize(
        "entries, message",
        [
            ("values: [64]\n  zooms: [0, five]", "bench.zooms[1]: expected a finite int >= 0, got 'five'"),
            ("values: [64]\n  zooms: [0, 1.5]", "bench.zooms[1]: expected a finite int >= 0, got 1.5"),
            ("values: [64]\n  zooms: [-1]", "bench.zooms[0]: expected a finite int >= 0, got -1"),
            ("values: [64, 1.5]", "bench.values[1]: expected a finite int >= 0, got 1.5"),
            ("values: [lots]", "bench.values[0]: expected a finite int >= 0, got 'lots'"),
            ("axis: reads\n  values: [0]", "bench.values[0]: expected a finite int >= 1, got 0"),
        ],
        ids=["zoom-word", "zoom-fraction", "zoom-negative", "value-fraction", "value-word", "reads-zero"],
    )
    def test_bad_list_entry_is_a_config_error(self, small_cfg, capsys, entries, message):
        axis = "" if "axis" in entries else "  axis: sweeps\n"
        small_cfg.write_text(small_cfg.read_text() + f"bench:\n  time: 1.0e12\n{axis}  {entries}\n")
        assert main(["bench", "--config", str(small_cfg)]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    def test_requires_two_modes(self, reference_cfg, tmp_path, capsys):
        cfg_text = reference_cfg.read_text() + "bench:\n  time: 1.0e12\n  values: [1]\n"
        reference_cfg.write_text(cfg_text)
        assert main(["bench", "--config", str(reference_cfg)]) == 2
        assert "n_modes" in capsys.readouterr().err
