"""Hamiltonian builders for dense neutrino gases.

Covers the mass- and flavor-basis forms of the neutrino-neutrino Hamiltonian
for two and three flavors, the mixed neutrino-antineutrino system, and the
Majorana variant, together with the one-body coefficient vectors derived from
the mass-squared splittings and the pairwise trajectory-angle distribution.

All couplings are in eV, times in 1/eV (hbar = 1).  Mass-squared splittings
are eV^2.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .basis import (
    BasisTag,
    OccupationBlock,
    PmnsParams,
    generator_vector,
    pmns_matrix,
)

# Both tolerances are relative to max |H|.
HERMITICITY_TOL = 1e-12
OFF_BLOCK_TOL = 1e-10


class Species(Enum):
    NEUTRINO = "neutrino"
    ANTINEUTRINO = "antineutrino"


class Statistics(Enum):
    DIRAC = "dirac"
    MAJORANA = "majorana"


def anisotropic_angles(xi: float, n_modes: int) -> np.ndarray:
    """Pairwise trajectory angles theta_ij = arccos(xi) * |i - j| / (N - 1).

    Mode labels are 1-based in the defining formula; |i - j| is the same
    either way.  The matrix is symmetric with a zero diagonal.
    """
    if abs(xi) > 1.0:
        raise ValueError(f"anisotropy parameter must satisfy |xi| <= 1, got {xi}")
    if n_modes < 2:
        raise ValueError("angle distribution needs at least 2 modes")
    idx = np.arange(n_modes)
    return math.acos(xi) * np.abs(idx[:, None] - idx[None, :]) / (n_modes - 1)


B_VECTOR_CHOICES = ("appendixA", "zero", "third", "pdg_review")


def b_vector_preset(choice: str, nf: int, delta_m2: float, big_delta_m2: float, energy: float) -> np.ndarray:
    """One of the four named one-body coefficient vectors at one energy.

    "appendixA" is the ultrarelativistic derivation.  For nf=3 only the two
    diagonal generators contribute: component 3 is -delta_m2 / (4 E) and
    component 8 is -big_delta_m2 / (2 sqrt(3) E).  For nf=2 it is
    (0, 0, -big_delta_m2 / (4 E)).  "zero" switches the one-body term off,
    "third" is "appendixA" scaled by 1/3, and "pdg_review" replaces
    component 8's 1/(2 sqrt(3)) by 1/4; for nf=2 it equals "appendixA".
    """
    if choice not in B_VECTOR_CHOICES:
        raise ValueError(f"unknown b_vector choice {choice!r}; valid: {B_VECTOR_CHOICES}")
    if energy <= 0:
        raise ValueError(f"energy must be positive, got {energy}")
    if nf == 2:
        b = np.array([0.0, 0.0, -big_delta_m2 / (4.0 * energy)])
    else:
        b = np.zeros(8)
        b[2] = -delta_m2 / (4.0 * energy)
        b[7] = -big_delta_m2 / ((4.0 if choice == "pdg_review" else 2.0 * math.sqrt(3.0)) * energy)
    if choice == "zero":
        return np.zeros_like(b)
    return b / 3.0 if choice == "third" else b


@dataclass
class SystemSpec:
    """Full physical description of an N-mode, nf-flavor system."""

    n_modes: int
    nf: int
    pmns: PmnsParams
    coupling_k: float
    angles: np.ndarray
    b_vector: np.ndarray
    species: tuple[Species, ...] = ()
    statistics: Statistics = Statistics.DIRAC

    def __post_init__(self):
        if self.nf not in (2, 3):
            raise ValueError(f"nf must be 2 or 3, got {self.nf}")
        if self.n_modes < 1:
            raise ValueError("n_modes must be positive")
        if self.coupling_k < 0:
            raise ValueError("coupling_k must be non-negative")
        if not self.species:
            self.species = (Species.NEUTRINO,) * self.n_modes
        if len(self.species) != self.n_modes:
            raise ValueError("species must list one entry per mode")
        if self.statistics is Statistics.MAJORANA and any(
            s is not Species.NEUTRINO for s in self.species
        ):
            raise ValueError("Majorana modes are self-conjugate; species must be all neutrino")
        self.angles = np.asarray(self.angles, dtype=float)
        if self.angles.shape != (self.n_modes, self.n_modes):
            raise ValueError(
                f"angles must be an {self.n_modes}x{self.n_modes} matrix, got {self.angles.shape}"
            )
        if np.any(np.abs(np.diagonal(self.angles)) > 0):
            raise ValueError("angle matrix must have a zero diagonal")
        if np.max(np.abs(self.angles - self.angles.T)) > 0:
            raise ValueError("angle matrix must be symmetric")
        n_gen = 3 if self.nf == 2 else 8
        b = np.asarray(self.b_vector, dtype=float)
        if b.shape == (n_gen,):
            b = np.tile(b, (self.n_modes, 1))
        if b.shape != (self.n_modes, n_gen):
            raise ValueError(
                f"b_vector must have shape ({n_gen},) or ({self.n_modes}, {n_gen}), got {b.shape}"
            )
        self.b_vector = b

    @property
    def dim(self) -> int:
        return self.nf**self.n_modes

    def pair_coupling(self, p: int, q: int) -> float:
        return self.coupling_k * (1.0 - math.cos(self.angles[p, q]))


def check_hermitian(m: np.ndarray, what: str) -> float:
    """Raise unless max |M - M^dag| <= HERMITICITY_TOL * max |M|; return max |M|.

    The test is relative with no floor, so it keeps its meaning at the
    ~1e-10 eV scale of the Hamiltonians here; a zero matrix passes.
    """
    scale = float(np.max(np.abs(m), initial=0.0))
    dev = float(np.max(np.abs(m - m.conj().T), initial=0.0))
    if dev > HERMITICITY_TOL * scale:
        raise ValueError(f"{what} deviates from Hermiticity by {dev:.3e}, max |M| {scale:.3e}")
    return scale


@dataclass
class HamiltonianMatrix:
    """Dense Hermitian operator on the nf^N many-body space."""

    matrix: np.ndarray
    basis: BasisTag

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError(f"matrix must be square, got shape {self.matrix.shape}")
        check_hermitian(self.matrix, "matrix")


def _add_one_body(h: np.ndarray, spec: SystemSpec, basis: BasisTag) -> None:
    """Add the sum over modes of the B-dot-generator operator into ``h``.

    In the flavor basis a neutrino mode's term is u (B.lambda) u^dag and an
    antineutrino mode's its complex conjugate, u* (B.lambda) u^T: CP takes U
    to U*, and antineutrinos sit in the conjugate representation, as in the
    mixed pair term (Balantekin & Pehlivan, J. Phys. G 34, 47 (2007)).  The
    two agree when U is real (nf=2, or delta_CP = 0).
    """
    nf, n = spec.nf, spec.n_modes
    gens = generator_vector(nf)
    u = pmns_matrix(spec.pmns, nf)
    for p in range(n):
        local = np.tensordot(spec.b_vector[p], gens, axes=([0], [0]))
        if basis is BasisTag.FLAVOR:
            rot = u.conj() if spec.species[p] is Species.ANTINEUTRINO else u
            local = rot @ local @ rot.conj().T
        left, right = nf**p, nf ** (n - p - 1)
        # A view of h with one nf x nf block per digit string of the other modes.
        blocks = np.einsum("aibajb->abij", h.reshape(left, nf, right, left, nf, right))
        blocks += local


# Pair term k_pq (x P_pq + y K_pq + z / nf) of modes p < q, as (x, y, z) by
# the kind of pair.  P_pq swaps the digits of modes p and q, and
# K_pq = sum_ab |..a..a..><..b..b..| on them.
_PAIR_FORMS = {
    # Like species (Dirac): sum_a lambda_a (x) lambda_a = 2 P - 2/nf, the same
    # in the mass and the flavor basis.
    "like": (2.0, 0.0, -2.0),
    # Mixed neutrino/antineutrino (Dirac): the lower-index mode's generators
    # are conjugated and the term picks up a factor -2,
    # -2 sum_a lambda_a* (x) lambda_a = -2 (2 K - 2/nf).  It depends on the
    # basis, so no mass-basis form exists.
    "mixed": (0.0, -4.0, 4.0),
    # Majorana (self-conjugate modes): only the antisymmetric generators
    # survive, 2 sum_a Im lambda_a (x) Im lambda_a = 2 (K - P); flavor basis
    # only.
    "majorana": (-2.0, 2.0, 0.0),
}


def _pair_kind(spec: SystemSpec, p: int, q: int) -> str:
    if spec.statistics is Statistics.MAJORANA:
        return "majorana"
    return "like" if spec.species[p] is spec.species[q] else "mixed"


def _add_pairs(h: np.ndarray, spec: SystemSpec) -> None:
    """Add sum_{p<q} k (1 - cos theta_pq) times the pair's ``_PAIR_FORMS`` term
    into ``h`` in place, pair by pair in p < q order.

    P and K are index maps over the digit table, so no pair operator is ever
    formed as a matrix.
    """
    index = np.arange(spec.dim).reshape((spec.nf,) * spec.n_modes)
    rows = index.reshape(-1)
    diagonal = np.einsum("ii->i", h)
    off_diagonal = 1.0 - np.eye(spec.nf)
    for p, q in itertools.combinations(range(spec.n_modes), 2):
        k = spec.pair_coupling(p, q)
        if k == 0.0:
            continue
        x, y, z_nf = _PAIR_FORMS[_pair_kind(spec, p, q)]
        z = z_nf / spec.nf
        partner = index.swapaxes(p, q).reshape(-1)
        fixed = partner == rows
        diagonal += np.where(fixed, k * (x + y + z), k * z)
        if x:
            h[partner[~fixed], rows[~fixed]] += k * x
        if y:
            ends = np.diagonal(index, axis1=p, axis2=q).reshape(-1, spec.nf)
            h[ends[:, :, None], ends[:, None, :]] += k * y * off_diagonal


def _is_dirac_neutrino(spec: SystemSpec) -> bool:
    return spec.statistics is Statistics.DIRAC and Species.ANTINEUTRINO not in spec.species


def build_hamiltonian(spec: SystemSpec, basis: BasisTag = BasisTag.FLAVOR) -> HamiltonianMatrix:
    """H = sum_p B_p . lambda_p + sum_{p<q} k_pq (x P_pq + y K_pq + z / nf).

    Each pair's (x, y, z) comes from ``_PAIR_FORMS`` by the spec's statistics
    and the two modes' species.  In the flavor basis the one-body term is
    rotated by the PMNS matrix U on neutrino modes and by U* on antineutrino
    modes (see ``_add_one_body``); an all-zero ``b_vector``
    (``b_vector_choice: zero``) leaves the interaction term alone.  Only an
    all-neutrino Dirac system has a mass-basis form.
    """
    if basis is not BasisTag.FLAVOR and not _is_dirac_neutrino(spec):
        raise ValueError(
            "mixed neutrino/antineutrino and Majorana Hamiltonians are only defined in the flavor basis"
        )
    h = np.zeros((spec.dim, spec.dim), dtype=complex)
    _add_one_body(h, spec, basis)
    _add_pairs(h, spec)
    return HamiltonianMatrix(h, basis)


def build_dirac_hamiltonian(spec: SystemSpec, basis: BasisTag) -> HamiltonianMatrix:
    """:func:`build_hamiltonian` for an all-neutrino Dirac system, in either basis."""
    if not _is_dirac_neutrino(spec):
        raise ValueError("build_dirac_hamiltonian requires an all-neutrino Dirac system")
    return build_hamiltonian(spec, basis)


def occupation_refusal(spec: SystemSpec, who: str = "the block split") -> str | None:
    """None when H keeps every mass-eigenstate occupation: an all-neutrino Dirac system whose
    one-body vectors vanish off the diagonal generators (lambda_3, lambda_8; sigma_3 for nf=2),
    all-zero included.  Otherwise why ``who`` cannot split H into mass-basis occupation
    blocks, naming the first field of ``spec`` at fault."""
    faults = {
        "statistics": spec.statistics is Statistics.MAJORANA,
        "species": Species.ANTINEUTRINO in spec.species,
        "b_vector": np.any(np.delete(spec.b_vector, [2] if spec.nf == 2 else [2, 7], axis=1)),
    }
    field = next((name for name, fault in faults.items() if fault), None)
    needs = "an all-neutrino Dirac system with one-body vectors on the diagonal generators"
    return field and f"system.{field}: {who} needs {needs}"


def conserves_occupations(spec: SystemSpec) -> bool:
    """Whether H splits into mass-basis occupation blocks (see :func:`occupation_refusal`)."""
    return occupation_refusal(spec) is None


def restrict_to_block(h: HamiltonianMatrix, block: OccupationBlock) -> HamiltonianMatrix:
    """Mass-basis Hamiltonian of one occupation block.

    Valid only for a system for which :func:`conserves_occupations` holds;
    an off-block coupling above ``OFF_BLOCK_TOL`` times max |H| means the
    caller picked the wrong Hamiltonian.
    """
    if h.basis is not BasisTag.MASS:
        raise ValueError("block restriction requires a mass-basis Hamiltonian")
    idx = np.asarray(block.indices)
    rows = h.matrix[idx]
    off = np.max(np.abs(np.delete(rows, idx, axis=1)), initial=0.0)
    scale = np.max(np.abs(h.matrix)) if off else 0.0
    if off > OFF_BLOCK_TOL * scale:
        raise ValueError(
            f"off-block coupling {off:.3e} exceeds {OFF_BLOCK_TOL:.0e} of max |H| {scale:.3e}: "
            "the Hamiltonian is not block-diagonal over occupation blocks"
        )
    return HamiltonianMatrix(rows[:, idx], BasisTag.MASS)
