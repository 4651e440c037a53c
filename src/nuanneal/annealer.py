"""Classical simulated thermal annealer for QUBO problems.

Each read starts from a random bitstring and runs Metropolis sweeps under a
geometric inverse-temperature ramp.  Single-bit flips visit the variables in
a randomized order each sweep, and flip costs come from cached local fields,
so one flip is O(n) instead of a full re-evaluation.

Acceptance uses the threshold form: a uniform draw u becomes the threshold
-ln(u)/beta, and a flip is accepted when its energy change is below it.  This
is the Metropolis test u < min(1, exp(-beta dE)) rearranged; downhill flips
always pass, and the two forms can disagree only where rounding puts u within
an ulp of exp(-beta dE).

The step loop has two implementations that agree bit for bit.  The C loop in
``_anneal_step.c`` is compiled with the ``cc`` on PATH on the first
:func:`anneal` call of a process (never at import) and loaded through
ctypes.  The numpy loop is the reference, and it runs whenever there is no
compiler or the build fails.  Both read the same visits and thresholds and do
the same arithmetic: dE = (field + lin) * spin, a flip when dE is below the
threshold, and field updates by products with a flip of -1, 0 or +1, which
are exact; the C build turns off floating-point contraction.  The C loop
updates the fields of only the reads that flip, where numpy adds quad * 0 to
the rest.  That can change only the sign of a field that is exactly zero,
and +0 and -0 give the same comparison against every threshold.

Determinism contract: a problem of size m draws everything from one
generator, ``default_rng(seed)`` of its schedule, in this order:

1. the visit orders of every sweep, from one
   ``permuted(tile(arange(m), (sweeps, 1)), axis=1)`` call (row s is the
   order of sweep s);
2. the initial bits, as one ``integers(0, 2, (m, reads))`` array (bit j of
   read r at ``[j, r]``);
3. the acceptance uniforms, with ``random``, in (sweep, visit, read) order:
   the uniform of read r at the t-th visit of sweep s is element
   ``(s * m + t) * reads + r`` of that sequence.

Uniforms are drawn a few sweeps at a time, as ``(chunk, m, reads)`` blocks
into a buffer bounded by ``_THRESHOLD_BYTES``; the flat sequence does not
depend on the chunk size.  The buffer size does not change any result,
and identical (problem, schedule) inputs give bit-identical results.
"""

from __future__ import annotations

import ctypes
import math
import shutil
import tempfile
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .clock import QuboProblem

# Cap on the buffer of acceptance thresholds: a few sweeps of every read.
_THRESHOLD_BYTES = 1 << 19

_EXHAUSTIVE_LIMIT = 24

# The compiled step loop: _UNBUILT until the first anneal call of the
# process, then the loaded C function, or None when it cannot be built (the
# numpy loop runs instead).
_UNBUILT = object()
_step_kernel = _UNBUILT


@dataclass(frozen=True)
class AnnealSchedule:
    """Sweep count, read count, inverse-temperature ramp, and RNG seed.

    ``sweeps = 0`` performs no optimization and just scores the random
    initial bitstrings (the random-sampling baseline).  Unset betas are
    derived from the problem: the hot end targets roughly 50% acceptance of
    the worst uphill flip, and the cold end pushes the acceptance of the
    smallest uphill flip below 1e-4.
    """

    sweeps: int
    reads: int
    beta_start: float | None = None
    beta_end: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.sweeps < 0:
            raise ValueError("sweeps must be non-negative")
        if self.reads < 1:
            raise ValueError("reads must be at least 1")
        if not 0 <= self.seed < 2**63:
            raise ValueError("seed must be a non-negative 63-bit integer")
        if (self.beta_start is None) != (self.beta_end is None):
            raise ValueError("set both beta_start and beta_end or neither")
        if self.beta_start is not None:
            # An infinite beta makes the geometric ramp NaN, and a NaN
            # threshold accepts no flip at all.
            if not (math.isfinite(self.beta_start) and math.isfinite(self.beta_end)):
                raise ValueError("betas must be finite")
            if not 0 < self.beta_start <= self.beta_end:
                raise ValueError("betas must satisfy beta_end >= beta_start > 0")


@dataclass
class AnnealResult:
    """Lowest-energy read plus the full per-read energy census.

    Energies include the problem offset, so they equal the quadratic form
    the QUBO was derived from.
    """

    best_bits: np.ndarray
    best_energy: float
    all_read_energies: np.ndarray


def default_beta_range(q: QuboProblem) -> tuple[float, float]:
    """Heuristic (beta_start, beta_end) from the problem's coupling scales."""
    abs_lin, abs_quad = np.abs(q.lin), np.abs(q.quad)
    reach = abs_lin + abs_quad.sum(axis=1)
    max_field = float(reach.max()) if q.size else 0.0
    # quad is symmetric with a zero diagonal, so its nonzero magnitudes are
    # those of its upper triangle.
    smallest = min(
        float(np.min(a, where=a != 0.0, initial=np.inf)) for a in (abs_lin, abs_quad)
    )
    if max_field <= 0.0 or smallest == np.inf:
        return 1.0, 1.0
    return math.log(2.0) / max_field, math.log(1e4) / smallest


def anneal(q: QuboProblem, s: AnnealSchedule) -> AnnealResult:
    """Minimize a QUBO with seeded Metropolis annealing."""
    m, sweeps, reads = q.size, s.sweeps, s.reads
    if m < 1:
        raise ValueError("QUBO must have at least one variable")
    beta_start, beta_end = (s.beta_start, s.beta_end) if s.beta_start is not None else default_beta_range(q)
    neg_betas = -np.geomspace(beta_start, beta_end, sweeps) if sweeps > 1 else np.full(sweeps, -beta_end)

    rng = np.random.default_rng(s.seed)
    visits = rng.permuted(np.tile(np.arange(m), (sweeps, 1)), axis=1)
    bits = rng.integers(0, 2, (m, reads)).astype(float)
    lin, quad = np.ascontiguousarray(q.lin, np.float64), np.ascontiguousarray(q.quad, np.float64)
    # Spins are 1 - 2 * bit.
    spins = 1.0 - 2.0 * bits
    fields = quad @ bits

    chunk = max(1, min(sweeps, _THRESHOLD_BYTES // (8 * m * reads)))
    thresholds = np.empty((chunk, m, reads))
    kernel = _native_kernel()
    for s0 in range(0, sweeps, chunk):
        s1 = min(s0 + chunk, sweeps)
        # Thresholds -ln(u)/beta; u = 0, or a beta so small that the quotient
        # overflows, gives an infinite one, always accepted.
        limits = thresholds[: s1 - s0]
        rng.random(out=limits)
        with np.errstate(divide="ignore", over="ignore"):
            np.log(limits, out=limits)
            limits /= neg_betas[s0:s1, None, None]
        # One step-loop call per chunk: compiled if it was built, else numpy.
        if kernel is None:
            _numpy_steps(limits, visits[s0:s1], lin, quad, spins, fields)
        else:
            _native_steps(kernel, limits, visits[s0:s1], lin, quad, spins, fields)

    bits = 0.5 * (1.0 - spins)
    energies = q.lin @ bits + 0.5 * np.einsum("ir,ir->r", q.quad @ bits, bits) + q.offset
    best_bits = bits[:, int(np.argmin(energies))].astype(np.int8)
    # Re-derive the reported energy term by term so that callers can
    # reproduce it exactly from best_bits.
    return AnnealResult(best_bits, q.total_energy(best_bits), energies)


def _numpy_steps(thresholds, visits, lin, quad, spins, fields) -> None:
    """Reference step loop over the sweeps of one threshold chunk.

    Step t of sweep s visits variable ``visits[s, t]`` against the per-read
    thresholds ``thresholds[s, t]``.  Updates ``spins`` and ``fields`` in
    place.
    """
    reads = spins.shape[1]
    for v, limits in zip(visits.ravel().tolist(), thresholds.reshape(-1, reads)):
        spin = spins[v]
        delta_e = fields[v] + lin[v]
        delta_e *= spin
        accept = delta_e < limits
        if np.count_nonzero(accept):
            # flip is -1, 0 or +1, so every product and difference below is
            # exact.
            flip = spin * accept
            spin -= flip
            spin -= flip
            fields += quad[v, :, None] * flip


def _native_steps(kernel, thresholds, visits, lin, quad, spins, fields) -> None:
    """:func:`_numpy_steps` in compiled code, bit for bit."""
    n, reads = spins.shape
    flipped = np.empty(reads, np.intp)
    arrays = (visits, thresholds, lin, quad, spins, fields, flipped)
    # The C loop reads raw pointers: one index array, five of doubles, and
    # the index buffer of the reads that flip at a visit.
    if [a.dtype for a in arrays] != [np.intp] + [np.float64] * 5 + [np.intp] or not all(
        a.flags.c_contiguous for a in arrays
    ):
        raise ValueError("step-loop arrays must be C-contiguous intp and float64 arrays")
    shapes = [a.shape for a in arrays]
    sweeps = len(visits)
    if shapes != [(sweeps, n), (sweeps, n, reads), (n,), (n, n), (n, reads), (n, reads), (reads,)]:
        raise ValueError("step-loop arrays disagree in shape")
    kernel(visits.size, n, reads, *(a.ctypes.data for a in arrays))


def _native_kernel():
    """The compiled step loop, built on the first call; None if unavailable."""
    global _step_kernel
    if _step_kernel is _UNBUILT:
        _step_kernel = _build_step_kernel()
    return _step_kernel


def _build_step_kernel():
    """Compile ``_anneal_step.c`` with the ``cc`` on PATH and load it.

    Returns None, without a warning, when there is no compiler or the build
    or the load fails.  The library is built in a temporary directory that
    is removed once it is loaded.
    """
    cc = shutil.which("cc")
    if cc is None:
        return None
    import subprocess  # here, so that importing nuanneal does not load it

    try:
        with tempfile.TemporaryDirectory(ignore_cleanup_errors=True) as build:
            library = str(Path(build) / "_anneal_step.so")
            with resources.as_file(resources.files(__package__) / "_anneal_step.c") as source:
                subprocess.run(
                    [cc, "-O2", "-shared", "-fPIC", "-ffp-contract=off", "-o", library, str(source)],
                    check=True,
                    capture_output=True,
                )
            kernel = ctypes.CDLL(library).anneal_steps
    except (OSError, subprocess.SubprocessError, AttributeError):
        return None
    kernel.argtypes = [ctypes.c_ssize_t] * 3 + [ctypes.c_void_p] * 7
    kernel.restype = None
    return kernel


def exhaustive_minimum(q: QuboProblem) -> tuple[np.ndarray, float]:
    """Brute-force global minimum; refuses problems beyond 2**_EXHAUSTIVE_LIMIT states."""
    if q.size > _EXHAUSTIVE_LIMIT:
        raise ValueError(f"exhaustive search over {q.size} variables refused (limit {_EXHAUSTIVE_LIMIT})")
    states = ((np.arange(2**q.size)[:, None] >> np.arange(q.size)) & 1).astype(float)
    energies = states @ q.lin + 0.5 * np.einsum("ri,ri->r", states @ q.quad, states) + q.offset
    best = int(np.argmin(energies))
    return states[best].astype(np.int8), float(energies[best])
