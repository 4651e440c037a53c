"""Many-body flavor/mass basis machinery.

Enumerates the nf^N product basis of an N-mode, nf-flavor system, provides
the single-mode operator algebra (Pauli matrices for nf=2, Gell-Mann matrices
for nf=3), the PMNS mixing matrix, per-mode basis transforms, and the
decomposition of the mass basis into fixed-occupation blocks.

Conventions (fixed for reproducibility):
  * Tensor ordering is big-endian: mode 0 is the leftmost ket slot, so a
    basis index decomposes as index = sum_p digit_p * nf**(N-1-p).
  * Flavor indices (e, mu, tau) <-> (0, 1, 2); mass eigenstates (1, 2, 3)
    <-> indices (0, 1, 2).
  * Amplitude transform flavor -> mass applies U_PMNS^dagger on every mode
    (states |nu_f> = sum_i U*_fi |nu_i>).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

# Full mass-block enumeration is dense; keep dimensions bounded.
MAX_BASIS_DIM = 3**10

FLAVOR_LABELS = {2: ("e", "mu"), 3: ("e", "mu", "tau")}

PAULI = np.array(
    [
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

# Standard normalization Tr(l_a l_b) = 2 delta_ab.
_S3 = 1.0 / math.sqrt(3.0)
GELL_MANN = np.array(
    [
        [[0, 1, 0], [1, 0, 0], [0, 0, 0]],
        [[0, -1j, 0], [1j, 0, 0], [0, 0, 0]],
        [[1, 0, 0], [0, -1, 0], [0, 0, 0]],
        [[0, 0, 1], [0, 0, 0], [1, 0, 0]],
        [[0, 0, -1j], [0, 0, 0], [1j, 0, 0]],
        [[0, 0, 0], [0, 0, 1], [0, 1, 0]],
        [[0, 0, 0], [0, 0, -1j], [0, 1j, 0]],
        [[_S3, 0, 0], [0, _S3, 0], [0, 0, -2 * _S3]],
    ],
    dtype=complex,
)


def generator_vector(nf: int) -> np.ndarray:
    """SU(nf) generator stack: Pauli for nf=2, Gell-Mann for nf=3."""
    if nf == 2:
        return PAULI
    if nf == 3:
        return GELL_MANN
    raise ValueError(f"nf must be 2 or 3, got {nf}")


class BasisTag(Enum):
    FLAVOR = "flavor"
    MASS = "mass"


@dataclass(frozen=True)
class PmnsParams:
    """Mixing angles and CP phase of the lepton mixing matrix, in radians."""

    theta12: float
    theta13: float = 0.0
    theta23: float = 0.0
    delta_cp: float = 0.0

    def __post_init__(self):
        for name in ("theta12", "theta13", "theta23", "delta_cp"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"PmnsParams.{name} must be finite")


def pmns_matrix(params: PmnsParams, nf: int) -> np.ndarray:
    """Unitary nf x nf mixing matrix.

    For nf=3 this is the product of the 2-3 rotation, the 1-3 rotation
    carrying the CP phase, and the 1-2 rotation, in that order.  For nf=2 it
    is the plain 2x2 rotation by theta12 (no phase).
    """
    if nf == 2:
        c, s = math.cos(params.theta12), math.sin(params.theta12)
        return np.array([[c, s], [-s, c]], dtype=complex)
    if nf == 3:
        c12, s12 = math.cos(params.theta12), math.sin(params.theta12)
        c13, s13 = math.cos(params.theta13), math.sin(params.theta13)
        c23, s23 = math.cos(params.theta23), math.sin(params.theta23)
        phase = np.exp(1j * params.delta_cp)
        m23 = np.array([[1, 0, 0], [0, c23, s23], [0, -s23, c23]], dtype=complex)
        m13 = np.array(
            [[c13, 0, s13 / phase], [0, 1, 0], [-s13 * phase, 0, c13]], dtype=complex
        )
        m12 = np.array([[c12, s12, 0], [-s12, c12, 0], [0, 0, 1]], dtype=complex)
        return m23 @ m13 @ m12
    raise ValueError(f"nf must be 2 or 3, got {nf}")


@dataclass
class StateVector:
    """Normalized complex amplitudes over the nf^N product basis.

    Every state carries the basis it is expressed in; mixing bases in an
    operation is always a bug, never a convention question.
    """

    amplitudes: np.ndarray
    basis: BasisTag
    nf: int
    n_modes: int

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        dim = self.nf**self.n_modes
        if self.amplitudes.shape != (dim,):
            raise ValueError(
                f"amplitude vector has shape {self.amplitudes.shape}, "
                f"expected ({dim},) for nf={self.nf}, n_modes={self.n_modes}"
            )
        norm = np.linalg.norm(self.amplitudes)
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"state norm {norm!r} deviates from 1 by more than 1e-12")

    def with_amplitudes(self, amplitudes: np.ndarray) -> "StateVector":
        return StateVector(amplitudes, self.basis, self.nf, self.n_modes)


def labels_to_index(digits: tuple[int, ...] | list[int], nf: int) -> int:
    """Big-endian product-basis index of per-mode flavor/mass digits."""
    idx = 0
    for d in digits:
        if not 0 <= d < nf:
            raise ValueError(f"digit {d} out of range for nf={nf}")
        idx = idx * nf + d
    return idx


def product_state(digits: list[int] | tuple[int, ...], nf: int) -> StateVector:
    """Flavor product state |d_0 d_1 ... d_{N-1}>."""
    n_modes = len(digits)
    amp = np.zeros(nf**n_modes, dtype=complex)
    amp[labels_to_index(tuple(digits), nf)] = 1.0
    return StateVector(amp, BasisTag.FLAVOR, nf, n_modes)


def flavor_state(labels: list[str] | tuple[str, ...], nf: int) -> StateVector:
    """Flavor product state from labels such as ("e", "e", "tau", "mu")."""
    table = {lab: i for i, lab in enumerate(FLAVOR_LABELS[nf])}
    try:
        digits = [table[lab] for lab in labels]
    except KeyError as exc:
        raise ValueError(
            f"unknown flavor label {exc.args[0]!r} for nf={nf}; "
            f"valid labels: {sorted(table)}"
        ) from None
    return product_state(digits, nf)


def apply_mode_unitary(amplitudes: np.ndarray, u: np.ndarray, nf: int, n_modes: int) -> np.ndarray:
    """Apply the same single-mode unitary to every mode of a statevector."""
    t = amplitudes.reshape([nf] * n_modes)
    for mode in range(n_modes):
        t = np.tensordot(u, t, axes=([1], [mode]))
        t = np.moveaxis(t, 0, mode)
    return t.reshape(-1)


def change_basis(state: StateVector, to: BasisTag, params: PmnsParams) -> StateVector:
    """Transform a state between the flavor and mass bases.

    Flavor -> mass applies U_PMNS^dagger on every mode; mass -> flavor applies
    U_PMNS.  The round trip is the identity up to floating-point noise.
    """
    if to == state.basis:
        raise ValueError(f"state is already in the {to.value} basis")
    u = pmns_matrix(params, state.nf)
    if to == BasisTag.MASS:
        u = u.conj().T
    amp = apply_mode_unitary(state.amplitudes, u, state.nf, state.n_modes)
    # No renormalisation: StateVector rejects a norm that drifted past 1e-12.
    return StateVector(amp, to, state.nf, state.n_modes)


@dataclass(frozen=True)
class OccupationBlock:
    """Mass-basis states sharing per-eigenstate mode counts.

    ``occupation[i]`` is the number of modes sitting in mass eigenstate ``i``;
    ``indices`` lists the basis states with exactly that census.
    """

    occupation: tuple[int, ...]
    indices: tuple[int, ...] = field(repr=False)

    @property
    def size(self) -> int:
        return len(self.indices)


def mass_blocks(nf: int, n_modes: int) -> list[OccupationBlock]:
    """Partition {0 .. nf^N - 1} into fixed-occupation blocks.

    The block count is the multiset coefficient C(N + nf - 1, nf - 1).
    Blocks are returned in descending lexicographic order of occupation,
    with ascending indices inside each block.
    """
    if nf not in (2, 3):
        raise ValueError(f"nf must be 2 or 3, got {nf}")
    dim = nf**n_modes
    if dim > MAX_BASIS_DIM:
        raise ValueError(f"nf**n_modes = {dim} exceeds supported cap {MAX_BASIS_DIM}")
    groups: dict[tuple[int, ...], list[int]] = {}
    for idx, digits in enumerate(itertools.product(range(nf), repeat=n_modes)):
        occ = [0] * nf
        for d in digits:
            occ[d] += 1
        groups.setdefault(tuple(occ), []).append(idx)
    return [
        OccupationBlock(occ, tuple(groups[occ]))
        for occ in sorted(groups, reverse=True)
    ]
