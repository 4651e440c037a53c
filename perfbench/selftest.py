"""Reduced-size self-test of the benchmark (about a minute).

Run from the repository root:

    python3 perfbench/selftest.py

It checks that BENCHMARK.json is well formed and every metric name matches
``[A-Za-z0-9_.-]+``; that every workload, at reduced size, reports exactly
the end-to-end metrics when timed and exactly the per-layer metrics when
traced, with their units; that a deliberately wrong expected value (a shifted
exhaustive minimum) raises the failure count; and that the benchmark exits
non-zero without a result when the program's sources are absent.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import run
from workloads import WORKLOADS

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SEED = 11


def check_spec(spec: dict) -> None:
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for w in spec["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names)), "metric names must be unique"
    for m in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.fullmatch(m["name"]), f"bad metric name {m['name']!r}"
        assert UNIT.fullmatch(m["unit"]), f"bad unit {m['unit']!r}"
        assert m["better"] in ("lower", "higher")
    for m in spec["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def run_cli(root: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=root, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300,
    )


def check_reports(spec: dict) -> None:
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for name in WORKLOADS:
        for trace, metrics in expected.items():
            proc = run_cli(run.ROOT, "--workload", name, "--seed", str(SEED), "--seconds", "1",
                           "--trace", str(trace), "--quick")
            assert proc.returncode == 0, proc.stderr
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(out) == {"correct", "attempted", "failed", "metrics"}
            assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1, out
            got = out["metrics"]
            assert set(got) == {m["name"] for m in metrics}, f"{name} trace={trace}: metric names differ"
            for m in metrics:
                value = got[m["name"]]["value"]
                assert got[m["name"]]["unit"] == m["unit"], m["name"]
                assert math.isfinite(value), m["name"]
                if trace == 0:
                    assert value > 0, f"{name}: {m['name']} is {value}"
            print(f"ok: {name} trace={trace} reports {len(got)} metrics")


def check_shifted_minimum() -> None:
    nu = run.import_program()
    exhaustive = nu.annealer.exhaustive_minimum

    def shifted(q, *args, **kwargs):
        bits, energy = exhaustive(q, *args, **kwargs)
        return bits, energy + 1.0

    nu.annealer.exhaustive_minimum = shifted
    try:
        result, side = run.run_timed(nu, "anneal_dense16", SEED, 0.5, quick=True)
    finally:
        nu.annealer.exhaustive_minimum = exhaustive
    assert result["failed"] == result["attempted"] and not result["correct"], result
    assert side["fail_frac"] == 1.0
    print("ok: a shifted exhaustive minimum fails every anneal_dense16 operation")


def check_bare_checkout() -> None:
    bare = run.OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = run_cli(bare, "--workload", "exact_n6", "--seed", "1", "--seconds", "1", "--trace", "0")
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc
    print(f"ok: without src/ the benchmark exits {proc.returncode} and prints no result")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    print("ok: BENCHMARK.json is well formed")
    check_reports(spec)
    check_shifted_minimum()
    check_bare_checkout()
    return 0


if __name__ == "__main__":
    sys.exit(main())
