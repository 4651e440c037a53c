import numpy as np
import pytest
from helpers import reference_config
from scipy.integrate import solve_ivp

import nuanneal.evolution as evolution_mod
from nuanneal.basis import BasisTag, StateVector, change_basis, mass_blocks
from nuanneal.evolution import Evolver, evolve_series, propagator
from nuanneal.hamiltonians import (
    HamiltonianMatrix,
    build_dirac_hamiltonian,
    build_hamiltonian,
    restrict_to_block,
)
from nuanneal.witnesses import compute_witnesses


def ode_propagator_column(h: np.ndarray, t: float, column: int) -> np.ndarray:
    """Independent high-order integration of i dpsi/dt = H psi."""
    dim = h.shape[0]
    psi0 = np.zeros(dim, dtype=complex)
    psi0[column] = 1.0
    sol = solve_ivp(
        lambda _, y: -1j * (h @ y),
        (0.0, t),
        psi0,
        method="DOP853",
        rtol=1e-12,
        atol=1e-14,
    )
    return sol.y[:, -1]


class TestPropagator:
    def test_zero_time_is_identity(self, rng):
        m = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        h = HamiltonianMatrix(m + m.conj().T, BasisTag.FLAVOR)
        np.testing.assert_allclose(propagator(h, 0.0), np.eye(5), atol=1e-14)

    def test_diagonal_hamiltonian_analytic(self):
        u = propagator(HamiltonianMatrix(np.diag([0.7, -1.3]), BasisTag.FLAVOR), 2.5)
        np.testing.assert_allclose(
            u, np.diag([np.exp(-1j * 0.7 * 2.5), np.exp(1j * 1.3 * 2.5)]), atol=1e-14
        )

    def test_matches_ode_integration(self):
        cfg = reference_config(2, 3)
        h = build_dirac_hamiltonian(cfg.spec, BasisTag.FLAVOR)
        t = 1e12
        u = propagator(h, t)
        for column in range(9):
            expected = ode_propagator_column(h.matrix, t, column)
            np.testing.assert_allclose(u[:, column], expected, atol=1e-9)

    def test_unitarity_for_random_hamiltonians(self, rng):
        for _ in range(20):
            dim = int(rng.integers(2, 12))
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            h = HamiltonianMatrix(m + m.conj().T, BasisTag.FLAVOR)
            u = propagator(h, float(rng.uniform(0, 10)))
            assert np.max(np.abs(u.conj().T @ u - np.eye(dim))) < 1e-11


class TestEvolveSeries:
    def test_empty_times(self):
        cfg = reference_config(2, 3, initial=("e", "mu"))
        assert evolve_series(cfg.spec, cfg.initial, []) == []

    def test_repeated_times_identical_states(self):
        cfg = reference_config(2, 3, initial=("e", "mu"))
        a, b = evolve_series(cfg.spec, cfg.initial, [1e12, 1e12])
        np.testing.assert_array_equal(a.amplitudes, b.amplitudes)

    def test_rejects_negative_times(self):
        cfg = reference_config(2, 3, initial=("e", "mu"))
        with pytest.raises(ValueError):
            evolve_series(cfg.spec, cfg.initial, [-1.0])

    def test_states_stay_normalized(self):
        cfg = reference_config(4, 3, initial=("e", "e", "tau", "mu"))
        for state in evolve_series(cfg.spec, cfg.initial, [1e11, 5e12, 9.9e12]):
            assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12

    def test_energy_is_conserved(self):
        cfg = reference_config(4, 3, initial=("e", "e", "tau", "mu"))
        h = build_dirac_hamiltonian(cfg.spec, BasisTag.FLAVOR).matrix
        states = evolve_series(cfg.spec, cfg.initial, [0.0, 1e12, 3e12, 7e12])
        energies = [np.real(np.vdot(s.amplitudes, h @ s.amplitudes)) for s in states]
        scale = max(abs(e) for e in energies)
        assert max(abs(e - energies[0]) for e in energies) < 1e-10 * scale

    def test_blockwise_evolution_matches_full(self):
        cfg = reference_config(4, 3, initial=("e", "e", "tau", "mu"))
        t = 4.4e12
        h = build_dirac_hamiltonian(cfg.spec, BasisTag.MASS)
        psi_mass = change_basis(cfg.initial, BasisTag.MASS, cfg.spec.pmns)
        full = Evolver(h).evolve(psi_mass.amplitudes, t)
        assembled = np.zeros_like(full)
        for block in mass_blocks(3, 4):
            idx = np.asarray(block.indices)
            sub_h = restrict_to_block(h, block)
            assembled[idx] = Evolver(sub_h).evolve(psi_mass.amplitudes[idx], t)
        np.testing.assert_allclose(assembled, full, atol=1e-10)

    def test_witnesses_invariant_under_b_vector_choice(self):
        times = [1.1e12, 3.3e12, 6.6e12, 9.9e12]
        baseline = None
        for choice in ("appendixA", "zero", "third", "pdg_review"):
            cfg = reference_config(
                4, 3, initial=("e", "e", "tau", "mu"), times=times,
                system_extra={"b_vector_choice": choice},
            )
            reports = [
                compute_witnesses(s, t)
                for s, t in zip(evolve_series(cfg.spec, cfg.initial, times), times)
            ]
            table = np.array(
                [
                    np.concatenate([r.entropies, [r.negativities[p] for p in sorted(r.negativities)]])
                    for r in reports
                ]
            )
            if baseline is None:
                baseline = table
            else:
                np.testing.assert_allclose(table, baseline, atol=1e-9)

    def test_mass_basis_evolution_rejected_for_mixed_species(self):
        cfg = reference_config(2, 3, system_extra={"species": ["neutrino", "antineutrino"]})
        psi = StateVector(np.eye(9)[0], BasisTag.MASS, 3, 2)
        with pytest.raises(ValueError):
            evolve_series(cfg.spec, psi, [1e12])


def _evolver_sizes(monkeypatch) -> list[int]:
    """Record the dimension of every Evolver that evolve_series builds."""
    sizes = []

    class Recording(Evolver):
        def __init__(self, h):
            super().__init__(h)
            sizes.append(len(self.evals))

    monkeypatch.setattr(evolution_mod, "Evolver", Recording)
    return sizes


def _fidelity_deficit(a: np.ndarray, b: np.ndarray) -> float:
    return 1.0 - abs(np.vdot(a, b))


class TestBlockwiseSeries:
    TIMES = [0.0, 1.1e12, 4.4e12, 9.9e12]

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_flavor_initial_state_matches_dense_evolution(self, monkeypatch, rng, n):
        labels = [str(x) for x in rng.choice(["e", "mu", "tau"], n)]
        cfg = reference_config(n, 3, initial=labels, times=self.TIMES)
        dense = Evolver(build_hamiltonian(cfg.spec, BasisTag.FLAVOR))
        sizes = _evolver_sizes(monkeypatch)
        states = evolve_series(cfg.spec, cfg.initial, self.TIMES)
        assert sizes and max(sizes) < cfg.spec.dim
        for t, state in zip(self.TIMES, states):
            assert state.basis is BasisTag.FLAVOR
            want = dense.evolve(cfg.initial.amplitudes, t)
            assert _fidelity_deficit(want, state.amplitudes) <= 1e-12

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_mass_initial_state_matches_dense_evolution(self, monkeypatch, rng, n):
        cfg = reference_config(n, 3)
        amp = rng.normal(size=cfg.spec.dim) + 1j * rng.normal(size=cfg.spec.dim)
        initial = StateVector(amp / np.linalg.norm(amp), BasisTag.MASS, 3, n)
        dense = Evolver(build_hamiltonian(cfg.spec, BasisTag.MASS))
        sizes = _evolver_sizes(monkeypatch)
        states = evolve_series(cfg.spec, initial, self.TIMES)
        # A generic state carries amplitude in every block.
        assert len(sizes) == len(mass_blocks(3, n)) and max(sizes) < cfg.spec.dim
        for t, state in zip(self.TIMES, states):
            assert state.basis is BasisTag.MASS
            assert _fidelity_deficit(dense.evolve(initial.amplitudes, t), state.amplitudes) <= 1e-12

    def test_one_body_vector_off_the_diagonal_takes_the_dense_path(self, monkeypatch):
        b = np.zeros(8)
        b[0], b[2] = 1e-12, -1.8e-12
        cfg = reference_config(
            4, 3, initial=("e", "e", "tau", "mu"), system_extra={"b_vector": b.tolist()}
        )
        dense = Evolver(build_hamiltonian(cfg.spec, BasisTag.FLAVOR))
        sizes = _evolver_sizes(monkeypatch)
        states = evolve_series(cfg.spec, cfg.initial, self.TIMES)
        assert sizes == [cfg.spec.dim]
        for t, state in zip(self.TIMES, states):
            np.testing.assert_array_equal(state.amplitudes, dense.evolve(cfg.initial.amplitudes, t))

    @pytest.mark.parametrize("path", ["blocked", "dense"])
    def test_norm_drift_raises_instead_of_being_renormalised(self, monkeypatch, path):
        b = np.zeros(8)
        b[0], b[2] = 1e-12, -1.8e-12
        extra = {"b_vector": b.tolist()} if path == "dense" else None
        cfg = reference_config(3, 3, initial=("e", "mu", "tau"), system_extra=extra)
        # An evolution that gains 1e-9 of norm per call, far past the 1e-12 bound.
        evolve = Evolver.evolve
        monkeypatch.setattr(Evolver, "evolve", lambda self, amp, t: (1.0 + 1e-9) * evolve(self, amp, t))
        sizes = _evolver_sizes(monkeypatch)
        with pytest.raises(ValueError, match="deviates from 1"):
            evolve_series(cfg.spec, cfg.initial, self.TIMES)
        assert (sizes == [cfg.spec.dim]) == (path == "dense")
