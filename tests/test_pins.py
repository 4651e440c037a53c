"""Byte-identity pins: fixed-seed CLI outputs compared against stored files.

The files under ``tests/data/`` were written by the same commands by the
package as it stood before QUBOs became dense arrays (coefficient maps,
per-caller frozen-register code).  Any change to QUBO assembly, freezing,
the text format, the annealer or the AQAE loop that alters a single byte of
output fails here.  Regenerate them only with a change that says why the
outputs move.

One file has been regenerated since: ``two_mode_bench.anneal0.json``, at
commit f3399a0, which gave each annealing problem one random stream,
``default_rng(seed)``, in place of one stream per read.  With zero sweeps
the output scores the initial bitstrings, which come from that stream, so
it had to move; the 200-sweep and AQAE pins did not.

Four files were regenerated at the commit that cut ``AqaeConfig`` to six
fields (after 754fc52): ``aqae_small.csv``, ``aqae_small.json``,
``two_mode_bench.qubo`` and ``two_mode_bench_unfrozen.qubo``.  Their
config headers lost the ``convergence_window``, ``convergence_pct``,
``rewind_enabled`` and ``block_size_cap`` keys, and nothing else in them
changed.  The two ``two_mode_bench.anneal*.json`` files carry no config
header and were left untouched.

The same four were regenerated again when the ``system.interaction_only``
and ``system.pair_angle`` keys were removed (``b_vector_choice: zero`` and a
2 x 2 ``angles`` matrix replace them).  Each equals its previous file with
the header's ``"interaction_only":false`` entry deleted (the JSON report's
``"interaction_only": false,`` line); nothing else changed.

``aqae_skipped.csv`` and ``aqae_skipped.json`` were added later, written at
the commit before ``BlockRunReport`` gave up NaN for None.  With no mixing,
the initial state sits in one occupation block, so the JSON pins the report
of skipped blocks and, run without the oracle, a null ``overlap``.

``aqae_k2.csv`` and ``aqae_k2.json`` were added at the commit before the
frozen-register QUBO moved into ``build_qubo``: the one pin with K = 2 bits
per slot and a two-step clock (``dt`` is half the sample time).

The three AQAE JSON pins were regenerated when ``BlockRunReport`` dropped
``zoom_levels`` (``aqae.max_zoom`` for a run block, 0 for a skipped one,
which the header and ``skipped`` already say).  Each equals its previous
file loaded, with that key deleted from every block run, and dumped again
as the CLI dumps it; the CSV pins did not change.

``two_mode_bench.qubo`` was regenerated when the ``qubo`` section lost its
``k_bits``, ``steps`` and ``freeze_initial`` keys (the export takes K from
``aqae.k_bits`` and its clock from ``aqae.dt``, and always freezes the
initial register).  Its header lost the ``"freeze_initial":true`` and
``"k_bits":1`` entries, and its QUBO lines did not change.  The CLI no
longer exports an unfrozen QUBO, so ``two_mode_bench_unfrozen.qubo`` was
deleted.

The seven files of the three AQAE pins and ``two_mode_bench.qubo`` were
regenerated when the zoom loop lost its stall detector and rewinds, and the
``aqae.max_rewinds`` key with them.  Each equals its previous file with the
header's ``"max_rewinds":3,`` entry deleted, and in the JSON reports the
``"max_rewinds": 3,`` line and every block run's ``"rewinds": 0,`` line;
nothing else changed.  The two ``two_mode_bench.anneal*.json`` pins were
left untouched.

``four_mode_witnesses.csv`` and ``two_mode_majorana.csv`` pin ``nuanneal
evolve`` on the two shipped configs of those names.  They were written at
the commit before the mass-basis block split moved into one function of
``evolution.py``: the first config conserves occupations and so takes the
block-by-block path, the second (Majorana) takes the dense one.

``four_mode_aqae.csv`` and ``four_mode_aqae.json`` pin the shipped reference
run, ``nuanneal aqae --config configs/four_mode_aqae.yaml --oracle``: four
modes, three flavors, nine sample times, every live block under the oracle.
They were written at the commit before both block drivers rebuilt their
states by one rule (the initial state plus the rotated mass-basis change).
"""

import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from nuanneal.cli import main
from nuanneal.clock import QuboProblem

DATA = Path(__file__).parent / "data"
CONFIGS = Path(__file__).parent.parent / "configs"
BENCH_CONFIG = CONFIGS / "two_mode_bench.yaml"

AQAE_SMALL = {
    "seed": 5,
    "system": {"n_modes": 2, "nf": 3, "xi": 0.9},
    "initial_state": ["e", "mu"],
    "times": [1.1e12, 3.3e12],
    "aqae": {"k_bits": 1, "max_zoom": 16, "reads": 32, "sweeps": 64},
}

# No mixing: [e, mu, mu] is one mass-basis product state, so 9 of the 10
# blocks are skipped at each sample time.
AQAE_SKIPPED = {
    "seed": 3,
    "system": {"n_modes": 3, "nf": 3, "theta12": 0.0, "theta13": 0.0, "theta23": 0.0, "delta_cp": 0.0},
    "initial_state": ["e", "mu", "mu"],
    "times": [1.1e12, 2.2e12],
    "aqae": {"k_bits": 1, "max_zoom": 8, "reads": 16, "sweeps": 32},
}


# Two bits per slot and a two-step clock: the sample time is 2 dt.
AQAE_K2 = {
    "seed": 7,
    "system": {"n_modes": 2, "nf": 3, "xi": 0.9},
    "initial_state": ["e", "tau"],
    "times": [2.2e12],
    "aqae": {"k_bits": 2, "max_zoom": 10, "reads": 24, "sweeps": 48, "dt": 1.1e12},
}


def test_qubo_export(tmp_path):
    out = tmp_path / "clock.qubo"
    assert main(["qubo", "--config", str(BENCH_CONFIG), "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / "two_mode_bench.qubo").read_bytes()


# Zero sweeps scores the random initial reads, so the energies spread out and
# pin the energy arithmetic; 200 sweeps pins the annealed minimum.
@pytest.mark.parametrize("sweeps", [0, 200])
def test_anneal_of_export(tmp_path, monkeypatch, sweeps):
    # The JSON records the QUBO path as given, so run from a fixed relative name.
    monkeypatch.chdir(tmp_path)
    Path("clock.qubo").write_bytes((DATA / "two_mode_bench.qubo").read_bytes())
    args = ["anneal", "--qubo", "clock.qubo", "--sweeps", str(sweeps), "--reads", "40", "--seed", "9"]
    assert main(args + ["--out", "anneal.json"]) == 0
    pin = DATA / f"two_mode_bench.anneal{sweeps}.json"
    assert Path("anneal.json").read_bytes() == pin.read_bytes()


def test_zero_sweep_pin_scores_the_initial_bits_of_the_stream_contract():
    # Initial bits: the (size, reads) array drawn after the (empty) visit orders.
    q = QuboProblem.from_text((DATA / "two_mode_bench.qubo").read_text())
    stream = np.random.default_rng(9)
    stream.permuted(np.tile(np.arange(q.size), (0, 1)), axis=1)
    initial = stream.integers(0, 2, (q.size, 40))
    energies = np.array([q.total_energy(initial[:, r]) for r in range(40)])
    pin = json.loads((DATA / "two_mode_bench.anneal0.json").read_text())
    assert pin["best_bits"] == initial[:, int(np.argmin(energies))].tolist()
    for key, value in (("min", energies.min()), ("median", np.median(energies)), ("max", energies.max())):
        assert abs(pin[f"read_energy_{key}"] - value) < 1e-12


# The first conserves occupations (blocked path), the second is Majorana (dense).
@pytest.mark.parametrize("name", ["four_mode_witnesses", "two_mode_majorana"])
def test_evolve_of_shipped_config(tmp_path, name):
    out = tmp_path / "evolve.csv"
    assert main(["evolve", "--config", str(CONFIGS / f"{name}.yaml"), "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / f"{name}.csv").read_bytes()


def test_aqae_of_shipped_reference_config(tmp_path):
    out = tmp_path / "aqae.csv"
    assert main(["aqae", "--config", str(CONFIGS / "four_mode_aqae.yaml"), "--oracle", "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / "four_mode_aqae.csv").read_bytes()
    assert out.with_suffix(".json").read_bytes() == (DATA / "four_mode_aqae.json").read_bytes()


def _assert_aqae_pin(tmp_path: Path, raw: dict, flags: list[str], pin: str) -> None:
    cfg = tmp_path / "aqae.yaml"
    cfg.write_text(yaml.safe_dump(raw))
    out = tmp_path / "aqae.csv"
    assert main(["aqae", "--config", str(cfg), *flags, "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / f"{pin}.csv").read_bytes()
    assert out.with_suffix(".json").read_bytes() == (DATA / f"{pin}.json").read_bytes()


def test_aqae_oracle_run(tmp_path):
    _assert_aqae_pin(tmp_path, AQAE_SMALL, ["--oracle"], "aqae_small")


def test_aqae_skipped_blocks_without_oracle(tmp_path):
    _assert_aqae_pin(tmp_path, AQAE_SKIPPED, [], "aqae_skipped")


def test_aqae_two_bits_two_steps(tmp_path):
    _assert_aqae_pin(tmp_path, AQAE_K2, ["--oracle"], "aqae_k2")
