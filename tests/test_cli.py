import json

import numpy as np
import pytest
from helpers import BAD_QUBO_TEXTS, REFERENCE_S3, REFERENCE_TIMES

from nuanneal.annealer import exhaustive_minimum
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

    def test_missing_file_exit_code(self, tmp_path, capsys):
        assert main(["evolve", "--config", str(tmp_path / "nope.yaml")]) == 2
        assert "missing input file" in capsys.readouterr().err
        assert main(["anneal", "--qubo", str(tmp_path / "nope.qubo")]) == 2

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


class TestQuboAnnealRoundTrip:
    def test_export_then_anneal(self, small_cfg, tmp_path):
        qubo_path = tmp_path / "clock.qubo"
        cfg_text = small_cfg.read_text() + "qubo:\n  time: 1.0e12\n  k_bits: 1\n"
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
        "field, value",
        [("time", "two"), ("steps", "two"), ("k_bits", "two"), ("zoom", "two"), ("zoom", "1.5")],
    )
    def test_non_numeric_qubo_field_is_a_config_error(self, small_cfg, tmp_path, capsys, field, value):
        section = {"time": "1.0e12", "steps": "1", "k_bits": "1", "zoom": "0"}
        section[field] = value
        lines = "".join(f"  {key}: {value}\n" for key, value in section.items())
        small_cfg.write_text(small_cfg.read_text() + "qubo:\n" + lines)
        assert main(["qubo", "--config", str(small_cfg), "--out", str(tmp_path / "q")]) == 2
        assert f"qubo.{field}: expected" in capsys.readouterr().err

    def test_out_of_range_qubo_field_is_a_config_error(self, small_cfg, tmp_path, capsys):
        small_cfg.write_text(small_cfg.read_text() + "qubo:\n  time: 1.0e12\n  steps: 0\n")
        assert main(["qubo", "--config", str(small_cfg)]) == 2
        assert "qubo.steps: expected a finite int >= 1" in capsys.readouterr().err


class TestWitnessCommand:
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


class TestAqaeCommand:
    def test_small_run_produces_csv_and_json(self, small_cfg, tmp_path):
        out = tmp_path / "aqae.csv"
        rc = main(["aqae", "--config", str(small_cfg), "--out", str(out), "--oracle"])
        assert rc == 0
        _, columns, rows = read_csv(out)
        assert columns == ["time_ev_inv", "S_1", "S_2", "N_12"]
        assert len(rows) == 1
        report = json.loads(out.with_suffix(".json").read_text())
        runs = report["blocks"][0]["block_runs"]
        assert sorted(r["size"] for r in runs) == [1, 1, 2]
        for r in runs:
            if not r["skipped"]:
                assert r["overlap"] > 1 - 1e-4


class TestBenchCommand:
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

    def test_requires_two_modes(self, reference_cfg, tmp_path, capsys):
        cfg_text = reference_cfg.read_text() + "bench:\n  time: 1.0e12\n  values: [1]\n"
        reference_cfg.write_text(cfg_text)
        assert main(["bench", "--config", str(reference_cfg)]) == 2
        assert "n_modes" in capsys.readouterr().err
