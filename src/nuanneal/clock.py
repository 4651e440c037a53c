"""Feynman-clock encoding of time evolution and its QUBO digitization.

A clock matrix couples T+1 state registers so that its unique ground state
(up to global phase) is the concatenation of the exact trajectory
(psi, U psi, ..., U^T psi), with a penalty pinning the first register to the
initial state.  The complex matrix is embedded into a real symmetric one of
twice the dimension, amplitudes are digitized into K bits per slot with a
zoom-dependent scale, and the resulting quadratic form over bits becomes a
QUBO problem.

Digitization of one amplitude slot at zoom level z (forward direction):

    a_new = a_prior - 2^(1-z) q_K + sum_{i=1}^{K-1} q_i 2^(i-K-z)

so the most significant bit carries weight -2 at z=0 and every zoom step
halves all weights.  The reverse direction negates every weight, providing a
positive counterpart to the dominant negative digit.

Data model: a :class:`QuboProblem` is dense from build to anneal, a linear
vector ``lin``, a symmetric zero-diagonal coupling matrix ``quad`` and an
``offset``; fixing variables slices rows and columns.  Coefficient maps
(i, j) -> value exist only at the text and user boundary: the constructor,
``to_text`` and ``from_text``.  A run builds one :class:`QuboForm` (the
checked real matrix, its live slots and their coefficients per bit pair)
and each pass turns it into a problem with :func:`build_qubo`, which
multiplies the coefficients by that pass's weight products and adds the
terms of its prior.

With the initial register frozen and one clock step, the live clock is I / 2, so no coupler joins two slots.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .evolution import propagator
from .hamiltonians import HamiltonianMatrix, check_hermitian

CLOCK_PSD_TOL = 1e-10


class Direction(Enum):
    FORWARD = "forward"
    REVERSE = "reverse"


@dataclass
class ClockMatrix:
    """Hermitian clock operator over T+1 registers of dimension D."""

    matrix: np.ndarray
    n_steps: int
    register_dim: int
    initial: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        expected = self.register_dim * (self.n_steps + 1)
        if self.matrix.shape != (expected, expected):
            raise ValueError(
                f"clock matrix has shape {self.matrix.shape}, expected ({expected}, {expected})"
            )
        scale = check_hermitian(self.matrix, "clock matrix")
        lowest = float(np.linalg.eigvalsh(self.matrix)[0])
        if lowest < -CLOCK_PSD_TOL * scale:
            raise ValueError(f"clock matrix has eigenvalue {lowest:.3e} below the PSD floor")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def build_clock(
    h: HamiltonianMatrix,
    initial: np.ndarray,
    dt: float,
    steps: int = 1,
) -> ClockMatrix:
    """Clock matrix whose ground state is the exact trajectory of ``initial``.

    Each step contributes 1/2 ||a_{t+1} - U a_t||^2 to the quadratic form;
    the penalty term weight * (I - |psi0><psi0|) on the first register makes
    the trajectory the unique minimizer.  Any positive weight is correct at
    the matrix level; the weight 2 * ||C - C0||_2 keeps a healthy spectral
    gap for annealing.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1")
    psi0 = np.asarray(initial, dtype=complex)
    if psi0.ndim != 1:
        raise ValueError("initial state must be a vector")
    if abs(np.linalg.norm(psi0) - 1.0) > 1e-9:
        raise ValueError("initial state must be normalized")
    u = propagator(h, dt)
    d = psi0.shape[0]
    if u.shape != (d, d):
        raise ValueError(f"Hamiltonian dimension {u.shape[0]} != state dimension {d}")
    dim = d * (steps + 1)
    c = np.zeros((dim, dim), dtype=complex)
    eye = np.eye(d)
    for t in range(steps):
        lo, hi = t * d, (t + 1) * d
        c[lo:hi, lo:hi] += 0.5 * eye
        c[hi : hi + d, hi : hi + d] += 0.5 * eye
        c[hi : hi + d, lo:hi] += -0.5 * u
        c[lo:hi, hi : hi + d] += -0.5 * u.conj().T
    c[:d, :d] += 2.0 * float(np.linalg.norm(c, 2)) * (eye - np.outer(psi0, psi0.conj()))
    return ClockMatrix(c, steps, d, psi0)


def real_embed(c: ClockMatrix | np.ndarray) -> np.ndarray:
    """Real symmetric embedding [[Re, -Im], [Im, Re]] of a Hermitian matrix.

    For v = x + i y the quadratic form satisfies
    Re(v^dag C v) = (x; y)^T C_emb (x; y), and the embedded spectrum is the
    doubled spectrum of C.
    """
    m = c.matrix if isinstance(c, ClockMatrix) else np.asarray(c, dtype=complex)
    re, im = m.real, m.imag
    return np.block([[re, -im], [im, re]])


def embed_state(psi: np.ndarray) -> np.ndarray:
    """Real embedding (Re psi; Im psi) of a complex vector."""
    psi = np.asarray(psi, dtype=complex)
    return np.concatenate([psi.real, psi.imag])


def unembed_state(vec: np.ndarray) -> np.ndarray:
    """Inverse of :func:`embed_state`."""
    vec = np.asarray(vec, dtype=float)
    half = vec.shape[0] // 2
    return vec[:half] + 1j * vec[half:]


@dataclass(frozen=True)
class DigitizationParams:
    """Bit count, zoom level, and update direction of one digitization pass."""

    k_bits: int
    zoom: int = 0
    direction: Direction = Direction.FORWARD

    def __post_init__(self):
        if self.k_bits < 1:
            raise ValueError("k_bits must be at least 1")
        if self.zoom < 0:
            raise ValueError("zoom must be non-negative")


def digit_weights(params: DigitizationParams) -> np.ndarray:
    """Signed per-bit update weights, least significant bit first.

    Bits 1..K-1 carry 2^(i-K-z); the final bit carries -2^(1-z).  Reverse
    direction flips every sign.
    """
    k, z = params.k_bits, params.zoom
    w = np.array([2.0 ** (i - k - z) for i in range(1, k)] + [-(2.0 ** (1 - z))])
    if params.direction is Direction.REVERSE:
        w = -w
    return w


def apply_bit_updates(prior: np.ndarray, bits: np.ndarray, params: DigitizationParams) -> np.ndarray:
    """Apply slot-major bit updates to a real amplitude vector.

    ``bits`` holds K consecutive binaries per amplitude slot.
    """
    prior = np.asarray(prior, dtype=float)
    bits = np.asarray(bits, dtype=float)
    if bits.shape != (prior.shape[0] * params.k_bits,):
        raise ValueError(
            f"expected {prior.shape[0] * params.k_bits} bits for {prior.shape[0]} slots"
        )
    return prior + bits.reshape(prior.shape[0], params.k_bits) @ digit_weights(params)


def _check_term(size: int, i: int, j: int, value: float) -> None:
    if not 0 <= i <= j < size:
        raise ValueError(f"coefficient index ({i}, {j}) out of range: need 0 <= i <= j < {size}")
    if not math.isfinite(value):
        raise ValueError(f"coefficient ({i}, {j}) is not finite")


class QuboProblem:
    """Quadratic form over binary variables plus a tracked constant offset.

    ``lin[i]`` is the coefficient of x_i and ``quad`` is symmetric with a
    zero diagonal; pair i < j contributes ``quad[i, j] x_i x_j``.  The
    constructor takes the coefficient map of the text format instead: (i, j)
    with i <= j to the coefficient of x_i x_j, diagonal entries being the
    linear terms.  Annealers ignore the offset, but total energies reported
    to callers include it so that a QUBO energy equals the quadratic form it
    was derived from.
    """

    def __init__(self, size: int, coefficients: Mapping | None = None, offset: float = 0.0):
        lin, quad = np.zeros(size), np.zeros((size, size))
        for (i, j), value in (coefficients or {}).items():
            i, j, value = int(i), int(j), float(value)
            _check_term(size, i, j, value)
            if i == j:
                lin[i] = value
            else:
                quad[i, j] = quad[j, i] = value
        # A finite bound on every energy and local field the annealer and the
        # exhaustive search form, so none of them overflows.
        with np.errstate(over="ignore"):
            reach = abs(float(offset)) + np.abs(lin).sum() + np.abs(quad).sum()
        if not math.isfinite(reach):
            raise ValueError("|offset| + sum |coefficients| overflows a double")
        self.lin, self.quad, self.offset = lin, quad, float(offset)

    @classmethod
    def from_arrays(cls, lin: np.ndarray, quad: np.ndarray, offset: float) -> "QuboProblem":
        """Problem over ``lin`` and a symmetric zero-diagonal ``quad``, as given."""
        q = cls.__new__(cls)
        q.lin, q.quad, q.offset = lin, quad, float(offset)
        return q

    @property
    def size(self) -> int:
        return self.lin.shape[0]

    def energy(self, bits: np.ndarray | list[int]) -> float:
        """Quadratic-form value of a bitstring, excluding the offset.

        The selected coefficients are added left to right in row-major
        (i <= j) order, the order of the text format.
        """
        bits = np.asarray(bits)
        if bits.shape != (self.size,):
            raise ValueError(f"expected {self.size} bits, got shape {bits.shape}")
        if ((bits != 0) & (bits != 1)).any():
            raise ValueError("bits must be 0 or 1")
        on = np.flatnonzero(bits)
        k = on.size
        if not k:
            return 0.0
        terms = self.quad.take(on, 0).take(on, 1)
        terms.flat[:: k + 1] = self.lin[on]
        # A boolean mask selects in row-major order: the upper triangle, i <= j.
        return float(np.cumsum(terms[~np.tri(k, k=-1, dtype=bool)])[-1])

    def total_energy(self, bits: np.ndarray | list[int]) -> float:
        return self.energy(bits) + self.offset

    def fix_variables(self, assignments: dict[int, int]) -> tuple["QuboProblem", list[int]]:
        """Substitute constants for some variables.

        Returns the reduced problem over the remaining variables (renumbered
        in ascending original order) and the list of kept original indices.
        """
        fixed = np.zeros(self.size)
        for idx, val in assignments.items():
            if not 0 <= idx < self.size:
                raise ValueError(f"fixed variable {idx} out of range")
            if val not in (0, 1):
                raise ValueError(f"fixed value for variable {idx} must be 0 or 1")
            fixed[idx] = val
        kept = [i for i in range(self.size) if i not in assignments]
        lin = self.lin[kept] + self.quad[kept] @ fixed
        quad = self.quad[np.ix_(kept, kept)]
        return QuboProblem.from_arrays(lin, quad, self.offset + self.energy(fixed)), kept

    def to_text(self) -> str:
        """Header plus one ``i j coefficient`` line per nonzero, row-major."""
        upper = np.triu(self.quad, 1)
        upper[np.diag_indices(self.size)] = self.lin
        rows, cols = np.nonzero(upper)
        terms = zip(rows.tolist(), cols.tolist(), upper[rows, cols].tolist())
        lines = [f"{i} {j} {v!r}\n" for i, j, v in terms]
        return f"qubo {self.size} {self.offset!r}\n" + "".join(lines)

    @classmethod
    def from_text(cls, text: str) -> "QuboProblem":
        """Parse the text format, skipping blank lines and ``#`` comments.

        Raises ``ValueError`` naming the 1-based line of a bad header, of a
        malformed, non-finite or out-of-range term, or of a repeated (i, j).
        """
        size, offset, coeffs = None, 0.0, {}
        for number, line in enumerate(text.splitlines(), 1):
            fields = line.split()
            if not fields or fields[0].startswith("#"):
                continue
            try:
                if size is None:
                    if len(fields) != 3 or fields[0] != "qubo":
                        raise ValueError("expected the header 'qubo <size> <offset>'")
                    size, offset = int(fields[1]), float(fields[2])
                    if size < 0 or not math.isfinite(offset):
                        raise ValueError("the size must be non-negative and the offset finite")
                    continue
                if len(fields) != 3:
                    raise ValueError(f"expected 'i j coefficient', got {len(fields)} fields")
                key, value = (int(fields[0]), int(fields[1])), float(fields[2])
                _check_term(size, *key, value)
                if key in coeffs:
                    raise ValueError(f"coefficient {key} repeats an earlier line")
                coeffs[key] = value
            except ValueError as exc:
                raise ValueError(f"line {number}: {exc}") from None
        if size is None:
            raise ValueError("QUBO text has no 'qubo <size> <offset>' header")
        return cls(size, coeffs, offset)


class QuboForm:
    """What every pass of a run shares: ``real_c`` checked once, its ``live``
    slots (all when None) cut once, and for ``k_bits`` bits per slot the
    coefficient c[i, j] of each bit pair, the diagonal apart and the pairs
    mirrored."""

    def __init__(self, real_c: np.ndarray, k_bits: int, live: np.ndarray | None = None):
        c = np.asarray(real_c, dtype=float)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValueError(f"real_c must be square, got shape {c.shape}")
        check_hermitian(c, "real_c")
        live = np.arange(c.shape[0]) if live is None else np.asarray(live)
        # Bit i*K + a belongs to live slot i.
        slots = np.repeat(live, k_bits)
        expanded = c[np.ix_(slots, slots)]
        upper = np.triu(expanded, 1)
        self.c, self.k_bits, self.live = c, k_bits, live
        self.c_diag, self.c_pairs = np.diag(expanded).copy(), upper + upper.T


def build_qubo(form: QuboForm, params: DigitizationParams, prior: np.ndarray) -> QuboProblem:
    """Exact QUBO for the quadratic form a(q)^T C a(q) over the form's live bits.

    With a(q) = prior + M q, where M maps the K bits of each live slot
    through :func:`digit_weights` and leaves the other slots at their prior
    values, the expansion produces the bit-bit couplings, a linear coupling
    to the prior estimate, and a constant offset, so that QUBO energy +
    offset reproduces the quadratic form bit-for-bit.  Each coupling
    c[i, j] (w[a] w[b]) is rounded once, then doubled for the pairs, as the
    pass's own expansion does, subnormal couplings included: the weights are
    signed powers of two, so each product w[a] w[b] is exact.
    """
    if params.k_bits != form.k_bits:
        raise ValueError(f"params have {params.k_bits} bits per slot, the form {form.k_bits}")
    c = form.c
    prior = np.asarray(prior, dtype=float)
    if prior.shape != (c.shape[0],):
        raise ValueError(f"prior has shape {prior.shape}, expected ({c.shape[0]},)")
    c_prior, offset = (c @ prior)[form.live], float(prior @ c @ prior)
    w = digit_weights(params)
    bit_w = np.tile(w, form.live.size)
    pairs = form.c_pairs * np.outer(bit_w, bit_w)
    pairs *= 2.0
    # x_i^2 = x_i folds the diagonal into the linear terms; adding 0.0 turns
    # signed zeros into 0.0, as the mirrored sum of the pairs does.
    pairs += 0.0
    lin = form.c_diag * bit_w**2 + ((2.0 * c_prior)[:, None] * w).ravel() + 0.0
    return QuboProblem.from_arrays(lin, pairs, offset)
