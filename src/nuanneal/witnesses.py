"""Entanglement witnesses: single-mode entropy and pairwise negativity.

Both witnesses are reported in bits (base-2 logarithms).  A mode's entropy is
bounded by log2(nf); the logarithmic negativity of a pair is the log2 trace
norm of the partially transposed two-mode reduced density matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import StateVector

# Partial traces in double precision leave eigenvalues a hair below zero.
EIGENVALUE_FLOOR = 1e-12


def reduced_density(state: StateVector, keep: tuple[int, ...]) -> np.ndarray:
    """Reduced density matrix of the listed modes (ascending order)."""
    n = state.n_modes
    if any(not 0 <= m < n for m in keep):
        raise ValueError(f"mode indices {keep} out of range for n_modes={n}")
    if len(set(keep)) != len(keep):
        raise ValueError("mode indices must be distinct")
    t = state.amplitudes.reshape([state.nf] * n)
    traced = [m for m in range(n) if m not in keep]
    rho = np.tensordot(t, t.conj(), axes=(traced, traced))
    d = state.nf ** len(keep)
    return rho.reshape(d, d)


def entanglement_entropy(state: StateVector, mode: int) -> float:
    """Von Neumann entropy of one mode, in bits, clamped to [0, log2(nf)]."""
    rho = reduced_density(state, (mode,))
    evals = np.linalg.eigvalsh(rho)
    if np.min(evals) < -EIGENVALUE_FLOOR:
        raise ValueError(f"reduced density matrix has eigenvalue {np.min(evals):.3e} < 0")
    evals = evals[evals > 0.0]
    s = float(-(evals * np.log2(evals)).sum())
    # max keeps its first argument on a tie, so a pure mode's -0.0 reads +0.0.
    return min(max(0.0, s), np.log2(state.nf))


def negativity(state: StateVector, mode_i: int, mode_j: int) -> float:
    """Logarithmic negativity between two modes, in bits.

    The partial transpose acts on the higher mode; transposing the other
    gives the same spectrum, so the result is symmetric under swapping the
    pair.
    """
    if mode_i == mode_j:
        raise ValueError("negativity requires two distinct modes")
    lo, hi = sorted((mode_i, mode_j))
    nf = state.nf
    rho = reduced_density(state, (lo, hi)).reshape(nf, nf, nf, nf)
    rho_pt = rho.transpose(0, 3, 2, 1)
    evals = np.linalg.eigvalsh(rho_pt.reshape(nf * nf, nf * nf))
    return float(np.log2(np.abs(evals).sum()))


@dataclass
class WitnessReport:
    """All witnesses of one state at one time."""

    time: float
    entropies: np.ndarray
    negativities: dict[tuple[int, int], float]

    @staticmethod
    def pair_order(n_modes: int) -> list[tuple[int, int]]:
        return [(i, j) for i in range(n_modes) for j in range(i + 1, n_modes)]


def compute_witnesses(state: StateVector, time: float = 0.0) -> WitnessReport:
    """Entropy of every mode and negativity of every unordered pair."""
    entropies = np.array([entanglement_entropy(state, m) for m in range(state.n_modes)])
    negativities = {
        (i, j): negativity(state, i, j) for i, j in WitnessReport.pair_order(state.n_modes)
    }
    return WitnessReport(time, entropies, negativities)

