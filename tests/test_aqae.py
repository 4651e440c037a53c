import json
import multiprocessing
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from helpers import reference_config

import nuanneal.aqae as aqae_mod
from nuanneal.annealer import AnnealResult, anneal
from nuanneal.aqae import AqaeConfig, _derived_seed, run_aqae, run_aqae_blocked
from nuanneal.basis import BasisTag, StateVector, change_basis, mass_blocks
from nuanneal.cli import main
from nuanneal.clock import build_qubo, unembed_state
from nuanneal.config import load_config
from nuanneal.evolution import Evolver, propagator
from nuanneal.hamiltonians import HamiltonianMatrix, build_dirac_hamiltonian, restrict_to_block
from nuanneal.witnesses import compute_witnesses

CFG = AqaeConfig(k_bits=1, max_zoom=12, reads=32, sweeps=64, seed=5)
AQAE_CONFIG = Path(__file__).parent.parent / "configs" / "four_mode_aqae.yaml"


@pytest.fixture
def cpus(monkeypatch):
    """Set the usable-CPU count by which run_aqae_blocked sizes its worker
    pool: 1 keeps every block run in this process."""

    def set_count(n: int) -> None:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    return set_count


class TestRewindHelpers:
    def test_iteration_seeds_distinct_and_stable(self):
        seeds = {_derived_seed(7, i) for i in range(100)}
        assert len(seeds) == 100
        assert _derived_seed(7, 3) == _derived_seed(7, 3)

    def test_derived_seeds_are_pinned(self):
        # The pinned annealing outputs follow from these integers.
        assert _derived_seed(7, 3) == 2530781778362038830
        assert _derived_seed(5, 0, 2) == 5900253131158821752


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("reads", 0, "reads must be at least 1"),
        ("sweeps", -1, "sweeps must be non-negative"),
    ],
)
def test_config_rejects_out_of_range_budget(field, value, message):
    with pytest.raises(ValueError, match=message):
        AqaeConfig(**{field: value})


class TestRunAqae:
    def test_zero_hamiltonian_recovers_initial(self):
        psi0 = np.array([0.6, 0.8j], dtype=complex)
        cfg = AqaeConfig(k_bits=1, max_zoom=18, reads=32, sweeps=64, seed=5)
        res = run_aqae(HamiltonianMatrix(np.zeros((2, 2)), BasisTag.FLAVOR), psi0, dt=1.0, cfg=cfg)
        assert abs(np.vdot(psi0, res.amplitudes)) >= 1.0 - 1e-9

    def test_initial_register_is_frozen_exactly(self):
        cfg = reference_config(2, 3)
        h = build_dirac_hamiltonian(cfg.spec, BasisTag.FLAVOR)
        psi0 = np.zeros(9, dtype=complex)
        psi0[1] = 1.0
        res = run_aqae(h, psi0, dt=1e11, cfg=CFG)
        full = unembed_state(res.estimate)
        np.testing.assert_array_equal(full[:9], psi0)

    def test_deterministic_given_seed(self):
        cfg = reference_config(2, 2)
        h = build_dirac_hamiltonian(cfg.spec, BasisTag.MASS)
        psi0 = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
        a = run_aqae(h, psi0, dt=1e11, cfg=CFG)
        b = run_aqae(h, psi0, dt=1e11, cfg=CFG)
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)
        assert a.diagnostics == b.diagnostics

    def test_error_envelope_shrinks_with_zoom(self):
        h = HamiltonianMatrix(np.array([[0.3, 0.1 - 0.05j], [0.1 + 0.05j, -0.2]]), BasisTag.FLAVOR)
        psi0 = np.array([1.0, 0.0], dtype=complex)
        exact = propagator(h, 1.2) @ psi0
        for zooms in (3, 5, 7, 9):
            cfg = AqaeConfig(k_bits=1, max_zoom=zooms, reads=32, sweeps=64, seed=2)
            res = run_aqae(h, psi0, dt=1.2, cfg=cfg)
            raw_final = unembed_state(res.estimate)[2:]
            err = np.max(np.abs(raw_final - exact))
            # Cross-component couplings let the quadratic-form optimum sit a
            # bounded factor above the per-component digitization envelope.
            assert err <= 2.0 * 2.0 ** (1 - zooms)

    def test_overlap_diagnostics_track_convergence(self):
        cfg = reference_config(2, 3)
        h = build_dirac_hamiltonian(cfg.spec, BasisTag.FLAVOR)
        psi0 = np.zeros(9, dtype=complex)
        psi0[3] = 1.0
        res = run_aqae(h, psi0, dt=1e10, cfg=CFG, oracle=True)
        overlaps = [d["overlap"] for d in res.diagnostics if d["direction"] == "reverse"]
        assert overlaps[-1] > 1.0 - 1e-6
        assert res.converged
        # every per-iteration record is plain-JSON serializable
        json.dumps(res.diagnostics)

    @staticmethod
    def _stuck_anneal():
        # Moves every live slot once, then refuses all further updates: the
        # clock energy stays far above the digitization floor.
        calls = {"n": 0}

        def broken_anneal(qubo, schedule):
            value = 1 if calls["n"] == 0 else 0
            calls["n"] += 1
            bits = np.full(qubo.size, value, dtype=np.int8)
            energy = qubo.total_energy(bits)
            return AnnealResult(bits, energy, np.array([energy]))

        return broken_anneal

    def _run_stuck(self, monkeypatch):
        monkeypatch.setattr(aqae_mod, "anneal", self._stuck_anneal())
        h = HamiltonianMatrix(np.array([[0.3, 0.1], [0.1, -0.2]]), BasisTag.FLAVOR)
        psi0 = np.array([1.0, 0.0], dtype=complex)
        cfg = AqaeConfig(k_bits=1, max_zoom=10, reads=4, sweeps=8, seed=0)
        return cfg, run_aqae(h, psi0, dt=1.0, cfg=cfg)

    def test_stuck_annealer_reports_unconverged(self, monkeypatch):
        _, res = self._run_stuck(monkeypatch)
        assert not res.converged
        assert res.diagnostics[-1]["clock_energy"] > 0.0

    def test_stuck_annealer_runs_every_pass(self, monkeypatch):
        cfg, res = self._run_stuck(monkeypatch)
        assert [(d["zoom"], d["direction"]) for d in res.diagnostics] == [
            (z, direction) for z in range(cfg.max_zoom) for direction in ("forward", "reverse")
        ]

    def test_each_pass_builds_its_qubo_through_build_qubo(self, monkeypatch):
        # The benchmark tracer's clock.build_qubo span wraps this name of
        # nuanneal.aqae.
        built = []

        def counting_build(*args, **kwargs):
            built.append(args)
            return build_qubo(*args, **kwargs)

        monkeypatch.setattr(aqae_mod, "build_qubo", counting_build)
        h = HamiltonianMatrix(np.array([[0.3, 0.1], [0.1, -0.2]]), BasisTag.FLAVOR)
        cfg = AqaeConfig(k_bits=2, max_zoom=5, reads=8, sweeps=16, seed=0)
        run_aqae(h, np.array([1.0, 0.0], dtype=complex), dt=1.0, cfg=cfg)
        assert len(built) == 2 * cfg.max_zoom


class TestRunAqaeBlocked:
    def test_blocked_matches_unblocked_witnesses(self):
        cfg = reference_config(2, 3, initial=("e", "mu"), times=[1e12])
        acfg = AqaeConfig(k_bits=1, max_zoom=22, reads=48, sweeps=96, seed=4)
        blocked = run_aqae_blocked(cfg.spec, cfg.initial, None, [1e12], acfg)

        h_mass = build_dirac_hamiltonian(cfg.spec, BasisTag.MASS)
        psi_mass = change_basis(cfg.initial, BasisTag.MASS, cfg.spec.pmns)
        res = run_aqae(h_mass, psi_mass.amplitudes, 1e12, acfg)
        state = StateVector(res.amplitudes, BasisTag.MASS, 3, 2)
        unblocked = compute_witnesses(change_basis(state, BasisTag.FLAVOR, cfg.spec.pmns))

        np.testing.assert_allclose(
            blocked.reports[0].entropies, unblocked.entropies, atol=1e-6
        )
        for pair, value in blocked.reports[0].negativities.items():
            assert abs(value - unblocked.negativities[pair]) < 1e-6

    def test_blocked_matches_exact_evolution(self):
        cfg = reference_config(2, 3, initial=("e", "mu"), times=[1e12])
        acfg = AqaeConfig(k_bits=1, max_zoom=22, reads=48, sweeps=96, seed=4)
        result = run_aqae_blocked(cfg.spec, cfg.initial, None, [1e12], acfg, oracle=True)
        h_flavor = build_dirac_hamiltonian(cfg.spec, BasisTag.FLAVOR)
        exact = Evolver(h_flavor).evolve(cfg.initial.amplitudes, 1e12)
        exact_report = compute_witnesses(
            StateVector(exact, BasisTag.FLAVOR, 3, 2), 1e12
        )
        np.testing.assert_allclose(
            result.reports[0].entropies, exact_report.entropies, atol=1e-6
        )
        for rep in result.block_reports[0]:
            if not rep.skipped:
                assert rep.overlap > 1.0 - 1e-8

    def test_consumes_expected_block_census(self):
        cfg = reference_config(2, 3, initial=("e", "mu"), times=[1e11])
        acfg = AqaeConfig(k_bits=1, max_zoom=6, reads=16, sweeps=32, seed=1)
        result = run_aqae_blocked(cfg.spec, cfg.initial, None, [1e11], acfg)
        sizes = sorted(rep.size for rep in result.block_reports[0])
        assert sizes == [1, 1, 1, 2, 2, 2]

    def test_each_live_block_is_restricted_once_per_call(self, monkeypatch):
        cut = []

        def counting_restrict(h, block):
            cut.append(block.occupation)
            return restrict_to_block(h, block)

        monkeypatch.setattr(aqae_mod, "restrict_to_block", counting_restrict)
        cfg = reference_config(2, 3, initial=("e", "mu"))
        acfg = AqaeConfig(k_bits=1, max_zoom=4, reads=8, sweeps=16, seed=1)
        result = run_aqae_blocked(cfg.spec, cfg.initial, None, [1e11, 2e11, 3e11], acfg)
        live = [rep.occupation for rep in result.block_reports[0] if not rep.skipped]
        assert sorted(cut) == sorted(live) and len(live) >= 2

    @pytest.mark.parametrize("dt", [None, 1.1e12], ids=["one-step", "three-step"])
    def test_clock_energy_never_rises_from_pass_to_pass(self, monkeypatch, cpus, dt):
        # A pass can always keep its estimate, since the all-zero update costs
        # the current clock energy, so the best read never lands above it.  A
        # rise is at most the rounding of the QUBO's offset, an ulp of the
        # first pass's energy.  The reference blocks at one sample time, in
        # one clock step and in three (where 14 of the 15 do not converge).
        # Serial, so that the runs are recorded in this process.
        cpus(1)
        runs = []

        def recording_run(*args, **kwargs):
            res = run_aqae(*args, **kwargs)
            runs.append([d["clock_energy"] for d in res.diagnostics])
            return res

        monkeypatch.setattr(aqae_mod, "run_aqae", recording_run)
        cfg = load_config(AQAE_CONFIG)
        run_aqae_blocked(cfg.spec, cfg.initial, dt, [3.3e12], cfg.aqae)
        assert len(runs) == 15
        for energies in runs:
            tol = 4 * np.finfo(float).eps * energies[0]
            assert all(b <= a + tol for a, b in zip(energies, energies[1:]))

    def test_each_live_block_is_one_run_aqae_and_each_pass_one_anneal(self, monkeypatch, cpus):
        # The benchmark tracer's aqae.run and annealer.anneal spans wrap
        # these two names of nuanneal.aqae.  Serial, so that the counters
        # fill in this process.
        cpus(1)
        runs, anneals = [], []

        def counting_run(h, *args, **kwargs):
            runs.append(h.matrix.shape[0])
            return run_aqae(h, *args, **kwargs)

        def counting_anneal(q, s):
            anneals.append(q.size)
            return anneal(q, s)

        monkeypatch.setattr(aqae_mod, "run_aqae", counting_run)
        monkeypatch.setattr(aqae_mod, "anneal", counting_anneal)
        cfg = reference_config(2, 3, initial=("e", "mu"))
        acfg = AqaeConfig(k_bits=1, max_zoom=3, reads=8, sweeps=16, seed=1)
        times = [1e11, 2e11]
        result = run_aqae_blocked(cfg.spec, cfg.initial, None, times, acfg)
        live = [rep.size for rep in result.block_reports[0] if not rep.skipped]
        assert len(live) >= 2
        assert runs == live * len(times)
        assert len(anneals) == len(runs) * 2 * acfg.max_zoom

    @pytest.mark.parametrize(
        "times, dt",
        [([1.1e12, -1.0], None), ([1.1e12], 0.0), ([1.1e12], -1e11)],
        ids=["negative-time", "zero-dt", "negative-dt"],
    )
    def test_rejects_bad_times_and_dt_before_annealing(self, monkeypatch, times, dt):
        anneals = []

        def counting_anneal(q, s):
            anneals.append(q.size)
            return anneal(q, s)

        monkeypatch.setattr(aqae_mod, "anneal", counting_anneal)
        cfg = reference_config(2, 3, initial=("e", "mu"))
        with pytest.raises(ValueError, match="sample times|dt"):
            run_aqae_blocked(cfg.spec, cfg.initial, dt, times, CFG)
        assert anneals == []

    def test_norm_drift_raises_instead_of_being_renormalised(self, monkeypatch, cpus):
        # The first live block comes back with 1e-9 too much norm, far past
        # the 1e-12 bound on the reassembled state.  Serial, so that the
        # counter fills in this process.
        cpus(1)
        calls = []

        def drifting_run(*args, **kwargs):
            res = run_aqae(*args, **kwargs)
            calls.append(res)
            return replace(res, amplitudes=(1.0 + 1e-9) * res.amplitudes) if len(calls) == 1 else res

        monkeypatch.setattr(aqae_mod, "run_aqae", drifting_run)
        cfg = reference_config(2, 3, initial=("e", "mu"))
        acfg = AqaeConfig(k_bits=1, max_zoom=3, reads=8, sweeps=16, seed=1)
        with pytest.raises(ValueError, match="deviates from 1"):
            run_aqae_blocked(cfg.spec, cfg.initial, None, [1e11], acfg)
        assert len(calls) >= 2

    def test_zero_weight_blocks_skipped(self):
        # A mass-basis product state occupies exactly one block.
        cfg = reference_config(
            2, 3, initial=("e", "e"), system_extra={"theta12": 0.0, "theta13": 0.0,
                                                    "theta23": 0.0, "delta_cp": 0.0},
        )
        acfg = AqaeConfig(k_bits=1, max_zoom=6, reads=16, sweeps=32, seed=1)
        result = run_aqae_blocked(cfg.spec, cfg.initial, None, [1e11], acfg)
        skipped = [rep.skipped for rep in result.block_reports[0]]
        assert sum(1 for s in skipped if not s) == 1

    def test_rejects_mixed_species(self):
        cfg = reference_config(
            2, 3, initial=("e", "e"),
            system_extra={"species": ["neutrino", "antineutrino"]},
        )
        with pytest.raises(ValueError):
            run_aqae_blocked(cfg.spec, cfg.initial, None, [1e11], CFG)

    def test_rejects_majorana(self):
        cfg = reference_config(2, 3, initial=("e", "e"), system_extra={"statistics": "majorana"})
        with pytest.raises(ValueError):
            run_aqae_blocked(cfg.spec, cfg.initial, None, [1e11], CFG)

    def test_rejects_one_body_vector_off_the_diagonal_generators(self):
        # A lambda_1 component couples occupation blocks; every block used to
        # pass the absolute off-block check and the witnesses came out wrong.
        b = np.zeros(8)
        b[0], b[2] = 1e-12, -1.8e-12
        cfg = reference_config(4, 3, initial=("e", "e", "tau", "mu"), system_extra={"b_vector": b.tolist()})
        with pytest.raises(ValueError, match="diagonal generators"):
            run_aqae_blocked(cfg.spec, cfg.initial, None, [1e12], CFG)

    def test_matches_run_aqae_on_each_block(self):
        cfg = reference_config(2, 3, initial=("e", "mu"))
        acfg = AqaeConfig(k_bits=1, max_zoom=8, reads=16, sweeps=24, seed=3)
        t = 2e11
        blocked = run_aqae_blocked(cfg.spec, cfg.initial, None, [t], acfg, oracle=True)
        h_mass = build_dirac_hamiltonian(cfg.spec, BasisTag.MASS)
        psi_mass = change_basis(cfg.initial, BasisTag.MASS, cfg.spec.pmns).amplitudes
        ran = 0
        for b_idx, (block, rep) in enumerate(zip(mass_blocks(3, 2), blocked.block_reports[0])):
            if rep.skipped:
                continue
            sub = psi_mass[np.asarray(block.indices)]
            alone = run_aqae(
                restrict_to_block(h_mass, block),
                sub / np.linalg.norm(sub),
                t,
                replace(acfg, seed=_derived_seed(acfg.seed, 0, b_idx)),
                oracle=True,
            )
            assert rep.final_energy == alone.diagnostics[-1]["clock_energy"]
            assert rep.overlap == alone.diagnostics[-1]["overlap"]
            assert rep.converged == alone.converged
            ran += 1
        assert ran >= 2

    def test_errors_carry_block_identity(self, monkeypatch):
        def exploding_anneal(q, s):
            raise RuntimeError("annealer exploded")

        monkeypatch.setattr(aqae_mod, "anneal", exploding_anneal)
        cfg = reference_config(2, 3, initial=("e", "mu"))
        with pytest.raises(RuntimeError, match="block"):
            run_aqae_blocked(cfg.spec, cfg.initial, None, [1e11], CFG)

    def test_memory_error_passes_through_unwrapped(self, monkeypatch):
        # The CLI turns a MemoryError into exit 2; a wrapped one would be a traceback.
        def exhausted_anneal(q, s):
            raise MemoryError

        monkeypatch.setattr(aqae_mod, "anneal", exhausted_anneal)
        cfg = reference_config(2, 3, initial=("e", "mu"))
        with pytest.raises(MemoryError):
            run_aqae_blocked(cfg.spec, cfg.initial, None, [1e11], CFG)

    def test_one_failing_block_is_named(self, monkeypatch):
        # Block (1, 0, 1) fails mid-run, at its fourth pass, after the blocks
        # before it have finished.
        target = next(i for i, b in enumerate(mass_blocks(3, 2)) if b.occupation == (1, 0, 1))
        doomed = _derived_seed(CFG.seed, 0, target)
        real_seed = aqae_mod._derived_seed

        def failing_seed(*keys):
            if keys == (doomed, 3):
                raise FloatingPointError("clock energy diverged")
            return real_seed(*keys)

        monkeypatch.setattr(aqae_mod, "_derived_seed", failing_seed)
        cfg = reference_config(2, 3, initial=("e", "mu"))
        expected = "AQAE failed on block (1, 0, 1) (size 2) at time 1e+11: clock energy diverged"
        with pytest.raises(RuntimeError, match=re.escape(expected)) as info:
            run_aqae_blocked(cfg.spec, cfg.initial, None, [1e11], CFG)
        assert isinstance(info.value.__cause__, FloatingPointError)


class TestBlockRunsInWorkers:
    """Two usable CPUs fork a pool of two workers, one CPU runs in-process."""

    def test_parallel_and_serial_outputs_are_byte_identical(self, tmp_path, cpus):
        config = tmp_path / "aqae.yaml"
        config.write_text(
            "seed: 3\n"
            "system: {n_modes: 4, nf: 3, xi: 0.9}\n"
            "initial_state: [e, e, tau, mu]\n"
            "times: [1.1e12, 2.2e12]\n"
            "aqae: {k_bits: 1, max_zoom: 6, reads: 8, sweeps: 16}\n"
        )
        outputs = []
        for n in (2, 1):
            cpus(n)
            out = tmp_path / f"cpus{n}.csv"
            assert main(["aqae", "--config", str(config), "--oracle", "--out", str(out)]) == 0
            outputs.append((out.read_bytes(), out.with_suffix(".json").read_bytes()))
        assert outputs[0] == outputs[1]

    def test_no_worker_outlives_a_call(self, cpus):
        cpus(2)
        cfg = reference_config(2, 3, initial=("e", "mu"))
        acfg = AqaeConfig(k_bits=1, max_zoom=3, reads=8, sweeps=16, seed=1)
        run_aqae_blocked(cfg.spec, cfg.initial, None, [1e11, 2e11], acfg)
        assert multiprocessing.active_children() == []

    def test_a_failing_worker_names_its_block(self, monkeypatch, cpus):
        # As test_one_failing_block_is_named, with the block run in a worker.
        cpus(2)
        target = next(i for i, b in enumerate(mass_blocks(3, 2)) if b.occupation == (1, 0, 1))
        doomed = _derived_seed(CFG.seed, 0, target)
        real_seed = aqae_mod._derived_seed
        parent = os.getpid()

        def failing_seed(*keys):
            if keys == (doomed, 3) and os.getpid() != parent:
                raise FloatingPointError("clock energy diverged")
            return real_seed(*keys)

        monkeypatch.setattr(aqae_mod, "_derived_seed", failing_seed)
        cfg = reference_config(2, 3, initial=("e", "mu"))
        expected = "AQAE failed on block (1, 0, 1) (size 2) at time 1e+11: clock energy diverged"
        with pytest.raises(RuntimeError, match=re.escape(expected)) as info:
            run_aqae_blocked(cfg.spec, cfg.initial, None, [1e11], CFG)
        assert isinstance(info.value.__cause__, FloatingPointError)
        assert multiprocessing.active_children() == []

    def test_a_worker_that_dies_raises_instead_of_hanging(self):
        # In a child interpreter, so that a hang is cut by the timeout.  The
        # patched annealer ends any worker at once and raises in the caller.
        script = """
import os
import nuanneal.aqae as aqae
from nuanneal.config import resolve_config

parent = os.getpid()

def dying_anneal(q, s):
    if os.getpid() != parent:
        os._exit(3)
    raise AssertionError("annealed in the calling process")

aqae.anneal = dying_anneal
os.sched_getaffinity = lambda pid: {0, 1}
cfg = resolve_config({"system": {"n_modes": 2, "nf": 3}, "initial_state": ["e", "mu"]})
try:
    aqae.run_aqae_blocked(cfg.spec, cfg.initial, None, [1e11], aqae.AqaeConfig(max_zoom=2, reads=4, sweeps=4))
except RuntimeError as exc:
    print(type(exc.__cause__).__name__)
"""
        run = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(Path(aqae_mod.__file__).parents[1])},
            timeout=120,
        )
        assert (run.returncode, run.stdout) == (0, "BrokenProcessPool\n"), run.stderr
