"""Exact time evolution via Hermitian eigendecomposition.

The propagator exp(-i H t) is assembled from one eigendecomposition that is
reused across all sample times; with couplings of order 1e-12 eV and times of
order 1e12 /eV the accumulated phases are O(1), so there is no conditioning
concern in building the full exponential this way.
"""

from __future__ import annotations

import numpy as np

from .basis import BasisTag, StateVector
from .hamiltonians import HamiltonianMatrix, Species, Statistics, SystemSpec, build_hamiltonian

UNITARITY_TOL = 1e-11


def _as_matrix(h: HamiltonianMatrix | np.ndarray) -> np.ndarray:
    m = h.matrix if isinstance(h, HamiltonianMatrix) else np.asarray(h, dtype=complex)
    scale = max(1.0, np.max(np.abs(m))) if m.size else 1.0
    if np.max(np.abs(m - m.conj().T)) > 1e-10 * scale:
        raise ValueError("propagator requires a Hermitian matrix")
    return m


def _eigh(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    try:
        return np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(f"eigendecomposition failed for {m.shape[0]}-dim Hamiltonian") from exc


def propagator(h: HamiltonianMatrix | np.ndarray, t: float) -> np.ndarray:
    """Unitary exp(-i H t) from the eigendecomposition of H."""
    m = _as_matrix(h)
    evals, evecs = _eigh(m)
    return (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T


class Evolver:
    """One eigendecomposition, arbitrarily many sample times."""

    def __init__(self, h: HamiltonianMatrix | np.ndarray):
        self.matrix = _as_matrix(h)
        self.evals, self.evecs = _eigh(self.matrix)

    def evolve(self, amplitudes: np.ndarray, t: float) -> np.ndarray:
        coeffs = self.evecs.conj().T @ amplitudes
        return self.evecs @ (np.exp(-1j * self.evals * t) * coeffs)


def evolve_series(spec: SystemSpec, initial: StateVector, times: list[float]) -> list[StateVector]:
    """Exact states at the given times, in the basis of the initial state.

    Mixed neutrino/antineutrino and Majorana systems only admit the flavor
    basis; all-neutrino Dirac systems evolve in whichever basis the initial
    state carries.
    """
    if any(t < 0 for t in times):
        raise ValueError("sample times must be non-negative")
    nonflavor_ok = spec.statistics is Statistics.DIRAC and all(
        s is Species.NEUTRINO for s in spec.species
    )
    if initial.basis is BasisTag.MASS and not nonflavor_ok:
        raise ValueError("this system is only defined in the flavor basis")
    h = build_hamiltonian(spec, initial.basis)
    evolver = Evolver(h)
    out = []
    for t in times:
        amp = evolver.evolve(initial.amplitudes, t)
        amp = amp / np.linalg.norm(amp)
        out.append(initial.with_amplitudes(amp))
    return out
