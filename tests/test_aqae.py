import json
import re
from dataclasses import replace

import numpy as np
import pytest
from helpers import reference_config

import nuanneal.aqae as aqae_mod
from nuanneal.annealer import AnnealResult
from nuanneal.aqae import (
    AqaeConfig,
    _block_seed,
    _Checkpoint,
    _iteration_seed,
    _latest_non_increasing,
    converged,
    run_aqae,
    run_aqae_blocked,
)
from nuanneal.basis import BasisTag, StateVector, change_basis, mass_blocks
from nuanneal.clock import unembed_state
from nuanneal.evolution import Evolver, propagator
from nuanneal.hamiltonians import build_dirac_hamiltonian, restrict_to_block
from nuanneal.witnesses import compute_witnesses

CFG = AqaeConfig(k_bits=1, max_zoom=12, reads=32, sweeps=64, seed=5)


class TestConverged:
    def test_constant_history_converges(self):
        cfg = AqaeConfig()
        assert converged([1.0] * 9, cfg)
        assert converged([0.0] * 9, cfg)

    def test_halving_history_does_not(self):
        cfg = AqaeConfig()
        history = [2.0 ** (-k) for k in range(12)]
        assert not converged(history, cfg)

    def test_requires_full_window(self):
        cfg = AqaeConfig(convergence_window=8)
        assert not converged([1.0] * 8, cfg)
        assert converged([1.0] * 9, cfg)

    def test_single_large_step_in_window_blocks_convergence(self):
        cfg = AqaeConfig()
        history = [1.0] * 5 + [1.5] + [1.5] * 4
        assert not converged(history, cfg)

    def test_only_recent_window_counts(self):
        cfg = AqaeConfig()
        history = [100.0, 1.0] + [1.0] * 8
        assert converged(history, cfg)


class TestRewindHelpers:
    def test_latest_non_increasing(self):
        cps = [
            _Checkpoint(0, np.zeros(1), 4.0, 2),
            _Checkpoint(1, np.zeros(1), 3.0, 4),
            _Checkpoint(2, np.zeros(1), 5.0, 6),
            _Checkpoint(3, np.zeros(1), 6.0, 8),
        ]
        assert _latest_non_increasing(cps) == 1
        cps[3] = _Checkpoint(3, np.zeros(1), 1.0, 8)
        assert _latest_non_increasing(cps) == 3

    def test_all_increasing_falls_back_to_first(self):
        cps = [
            _Checkpoint(0, np.zeros(1), 1.0, 2),
            _Checkpoint(1, np.zeros(1), 2.0, 4),
        ]
        assert _latest_non_increasing(cps) == 0

    def test_iteration_seeds_distinct_and_stable(self):
        seeds = {_iteration_seed(7, i) for i in range(100)}
        assert len(seeds) == 100
        assert _iteration_seed(7, 3) == _iteration_seed(7, 3)


class TestRunAqae:
    def test_zero_hamiltonian_recovers_initial(self):
        psi0 = np.array([0.6, 0.8j], dtype=complex)
        cfg = AqaeConfig(k_bits=1, max_zoom=18, reads=32, sweeps=64, seed=5)
        res = run_aqae(np.zeros((2, 2)), psi0, dt=1.0, cfg=cfg)
        assert abs(np.vdot(psi0, res.amplitudes)) >= 1.0 - 1e-9

    def test_initial_register_is_frozen_exactly(self):
        cfg = reference_config(2, 3)
        h = build_dirac_hamiltonian(cfg.spec, BasisTag.FLAVOR).matrix
        psi0 = np.zeros(9, dtype=complex)
        psi0[1] = 1.0
        res = run_aqae(h, psi0, dt=1e11, cfg=CFG)
        full = unembed_state(res.estimate)
        np.testing.assert_array_equal(full[:9], psi0)

    def test_deterministic_given_seed(self):
        cfg = reference_config(2, 2)
        h = build_dirac_hamiltonian(cfg.spec, BasisTag.MASS).matrix
        psi0 = np.array([0.0, 1.0, 0.0, 0.0], dtype=complex)
        a = run_aqae(h, psi0, dt=1e11, cfg=CFG)
        b = run_aqae(h, psi0, dt=1e11, cfg=CFG)
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)
        assert a.energy_history == b.energy_history

    def test_error_envelope_shrinks_with_zoom(self):
        h = np.array([[0.3, 0.1 - 0.05j], [0.1 + 0.05j, -0.2]])
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
        h = build_dirac_hamiltonian(cfg.spec, BasisTag.FLAVOR).matrix
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
        # energy history plateaus far above the digitization floor.
        calls = {"n": 0}

        def broken_anneal(qubo, schedule):
            value = 1 if calls["n"] == 0 else 0
            calls["n"] += 1
            bits = np.full(qubo.size, value, dtype=np.int8)
            energy = qubo.total_energy(bits)
            return AnnealResult(bits, energy, np.array([energy]))

        return broken_anneal

    def test_stalled_annealer_triggers_rewind_and_reports(self, monkeypatch):
        monkeypatch.setattr(aqae_mod, "anneal", self._stuck_anneal())
        h = np.array([[0.3, 0.1], [0.1, -0.2]], dtype=complex)
        psi0 = np.array([1.0, 0.0], dtype=complex)
        cfg = AqaeConfig(k_bits=1, max_zoom=10, reads=4, sweeps=8, seed=0, max_rewinds=2)
        res = run_aqae(h, psi0, dt=1.0, cfg=cfg)
        assert res.rewinds == 2
        assert not res.converged
        assert any(d["direction"] == "rewind" for d in res.diagnostics)

    def test_rewind_disabled_runs_straight_through(self, monkeypatch):
        monkeypatch.setattr(aqae_mod, "anneal", self._stuck_anneal())
        h = np.array([[0.3, 0.1], [0.1, -0.2]], dtype=complex)
        psi0 = np.array([1.0, 0.0], dtype=complex)
        cfg = AqaeConfig(
            k_bits=1, max_zoom=10, reads=4, sweeps=8, seed=0, rewind_enabled=False
        )
        res = run_aqae(h, psi0, dt=1.0, cfg=cfg)
        assert res.rewinds == 0
        assert len(res.energy_history) == 20


class TestRunAqaeBlocked:
    def test_blocked_matches_unblocked_witnesses(self):
        cfg = reference_config(2, 3, initial=("e", "mu"), times=[1e12])
        acfg = AqaeConfig(k_bits=1, max_zoom=22, reads=48, sweeps=96, seed=4)
        blocked = run_aqae_blocked(cfg.spec, cfg.initial, None, [1e12], acfg)

        h_mass = build_dirac_hamiltonian(cfg.spec, BasisTag.MASS).matrix
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
        h_flavor = build_dirac_hamiltonian(cfg.spec, BasisTag.FLAVOR).matrix
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

    def test_block_size_cap_enforced(self):
        cfg = reference_config(2, 3, initial=("e", "mu"))
        acfg = AqaeConfig(k_bits=1, max_zoom=4, reads=8, sweeps=16, seed=1, block_size_cap=1)
        with pytest.raises(ValueError, match="cap"):
            run_aqae_blocked(cfg.spec, cfg.initial, None, [1e11], acfg)

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
                replace(acfg, seed=_block_seed(acfg.seed, 0, b_idx)),
                oracle=True,
            )
            assert rep.final_energy == alone.energy_history[-1]
            assert rep.overlap == alone.diagnostics[-1]["overlap"]
            assert (rep.zoom_levels, rep.rewinds, rep.converged) == (
                alone.zoom,
                alone.rewinds,
                alone.converged,
            )
            ran += 1
        assert ran >= 2

    def test_errors_carry_block_identity(self, monkeypatch):
        def exploding_anneal_many(problems, schedules):
            raise RuntimeError("annealer exploded")

        monkeypatch.setattr(aqae_mod, "anneal_many", exploding_anneal_many)
        cfg = reference_config(2, 3, initial=("e", "mu"))
        with pytest.raises(RuntimeError, match="block"):
            run_aqae_blocked(cfg.spec, cfg.initial, None, [1e11], CFG)

    def test_one_failing_block_is_named(self, monkeypatch):
        # Block (1, 0, 1) fails mid-run, after its other blocks have been
        # annealed alongside it for a few rounds.
        target = next(i for i, b in enumerate(mass_blocks(3, 2)) if b.occupation == (1, 0, 1))
        doomed = _block_seed(CFG.seed, 0, target)
        real_seed = aqae_mod._iteration_seed

        def failing_seed(base_seed, iteration):
            if base_seed == doomed and iteration == 3:
                raise FloatingPointError("clock energy diverged")
            return real_seed(base_seed, iteration)

        monkeypatch.setattr(aqae_mod, "_iteration_seed", failing_seed)
        cfg = reference_config(2, 3, initial=("e", "mu"))
        expected = "AQAE failed on block (1, 0, 1) (size 2) at time 1e+11: clock energy diverged"
        with pytest.raises(RuntimeError, match=re.escape(expected)) as info:
            run_aqae_blocked(cfg.spec, cfg.initial, None, [1e11], CFG)
        assert isinstance(info.value.__cause__, FloatingPointError)
