"""Exact time evolution via Hermitian eigendecomposition.

The propagator exp(-i H t) is assembled from one eigendecomposition that is
reused across all sample times; with couplings of order 1e-12 eV and times of
order 1e12 /eV the accumulated phases are O(1), so there is no conditioning
concern in building the full exponential this way.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from .basis import BasisTag, StateVector, apply_mode_unitary, mass_blocks, pmns_matrix
from .hamiltonians import (
    HamiltonianMatrix, SystemSpec, build_hamiltonian, conserves_occupations, occupation_refusal, restrict_to_block,
)

# A block whose mass-basis amplitudes have at most this norm is left out.
ZERO_BLOCK_NORM = 1e-12


def _eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    try:
        return np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigendecomposition failed for {m.shape[0]}-dim Hamiltonian") from exc


def propagator(h: HamiltonianMatrix, t: float) -> np.ndarray:
    """Unitary exp(-i H t) from the eigendecomposition of H."""
    evals, evecs = _eigh(h.matrix)
    return (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T


class Evolver:
    """One eigendecomposition, arbitrarily many sample times."""

    def __init__(self, h: HamiltonianMatrix):
        self.evals, self.evecs = _eigh(h.matrix)
        self._evecs_dag = self.evecs.conj().T

    def evolve(self, amplitudes: np.ndarray, t: float) -> np.ndarray:
        coeffs = self._evecs_dag @ amplitudes
        return self.evecs @ (np.exp(-1j * self.evals * t) * coeffs)


def split_blocks(spec: SystemSpec, initial: StateVector) -> tuple[np.ndarray, list[tuple], Callable]:
    """Mass-basis occupation blocks of ``initial`` for both drivers (Pehlivan,
    Balantekin, Kajino & Yoshida, PRD 84, 065008 (2011)): (psi, parts, rebuild).

    psi is ``initial`` in the mass basis; ``parts`` holds (block, indices, weight, H) per
    :func:`mass_blocks` block, H cut once, or None at weight <= ``ZERO_BLOCK_NORM``.
    ``rebuild(change)`` writes ``initial`` plus the mass-basis ``change`` since t = 0,
    rotated back per mode (PMNS, or I for a mass state), over ``change`` and returns that
    state: amplitudes that do not move come back exactly.  A system that does not
    conserve occupations raises ValueError with the text of :func:`occupation_refusal`.
    """
    if why := occupation_refusal(spec):
        raise ValueError(why)
    u = pmns_matrix(spec.pmns, spec.nf) if initial.basis is BasisTag.FLAVOR else np.eye(spec.nf)
    psi = apply_mode_unitary(initial.amplitudes, u.conj().T, spec.nf, spec.n_modes)
    h = build_hamiltonian(spec, BasisTag.MASS)
    parts = []
    for block in mass_blocks(spec.nf, spec.n_modes):
        idx = np.asarray(block.indices)
        weight = float(np.linalg.norm(psi[idx]))
        parts.append((block, idx, weight, restrict_to_block(h, block) if weight > ZERO_BLOCK_NORM else None))

    def rebuild(change: np.ndarray) -> StateVector:
        change[:] = initial.amplitudes + apply_mode_unitary(change, u, spec.nf, spec.n_modes)
        return initial.with_amplitudes(change)

    return psi, parts, rebuild


def evolve_series(spec: SystemSpec, initial: StateVector, times: list[float]) -> list[StateVector]:
    """Exact states at the given times, in the basis of the initial state.

    A system that :func:`conserves_occupations` evolves in the mass basis,
    one eigendecomposition per live block of :func:`split_blocks`; any other
    takes one dense eigendecomposition (mixed neutrino/antineutrino and
    Majorana systems in the flavor basis only).  Nothing is renormalised:
    a state whose norm drifts from 1 by more than 1e-12 raises ValueError.
    """
    if any(t < 0 for t in times):
        raise ValueError("sample times must be non-negative")
    # The long-lived outputs are allocated before the dense Hamiltonian and
    # its eigendecomposition, not among those multi-megabyte temporaries.
    amps = np.zeros((len(times), spec.dim), dtype=complex)
    if not conserves_occupations(spec):
        evolver = Evolver(build_hamiltonian(spec, initial.basis))
        for amp, t in zip(amps, times):
            amp[:] = evolver.evolve(initial.amplitudes, t)
        return [initial.with_amplitudes(amp) for amp in amps]
    psi, parts, rebuild = split_blocks(spec, initial)
    for _, idx, _, h in parts:
        if h is not None:
            evolver = Evolver(h)
            for change, t in zip(amps, times):
                change[idx] = evolver.evolve(psi[idx], t) - psi[idx]
    return [rebuild(change) for change in amps]
