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
:func:`anneal_many` steps a batch of independent problems in lockstep over
zero-padded arrays; positions past the end of a smaller problem's sweep are
never stepped, so padding changes nothing.

The step loop has two implementations that agree bit for bit.  The C loop in
``_anneal_step.c`` is compiled with the ``cc`` on PATH on the first
:func:`anneal_many` call of a process (never at import) and loaded through
ctypes.  The numpy loop is the reference, and it runs whenever there is no
compiler or the build fails.  Both read the same visits and thresholds and do
the same arithmetic: dE = (field + lin) * spin, a flip when dE is below the
threshold, and field updates by products with a flip of -1, 0 or +1, which
are exact; the C build turns off floating-point contraction.

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
depend on the chunk size.  The buffer size, the batch a problem is annealed
in and its position there do not change any result, so
``anneal_many(problems, schedules)[i]`` equals
``anneal(problems[i], schedules[i])`` bit for bit, and identical
(problem, schedule) inputs give bit-identical results.
"""

from __future__ import annotations

import ctypes
import math
import shutil
import tempfile
from collections.abc import Sequence
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .clock import QuboProblem

# Cap on the buffer of acceptance thresholds: a few sweeps of every read of
# every problem in a batch.
_THRESHOLD_BYTES = 1 << 19

# The compiled step loop: _UNBUILT until the first anneal_many call of the
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
    return anneal_many([q], [s])[0]


def anneal_many(
    problems: Sequence[QuboProblem], schedules: Sequence[AnnealSchedule]
) -> list[AnnealResult]:
    """Anneal independent QUBOs in lockstep, one result per problem.

    Every schedule must share ``sweeps`` and ``reads``; sizes, betas and
    seeds may differ.  Each result equals :func:`anneal` on that problem.
    """
    if not problems:
        raise ValueError("anneal_many needs at least one problem")
    if len(problems) != len(schedules):
        raise ValueError("anneal_many needs one schedule per problem")
    sweeps, reads = schedules[0].sweeps, schedules[0].reads
    if any(s.sweeps != sweeps or s.reads != reads for s in schedules):
        raise ValueError("all schedules in a batch must share sweeps and reads")
    if any(q.size < 1 for q in problems):
        raise ValueError("QUBO must have at least one variable")

    # Largest problem first, so the problems that step at sweep position t
    # (those with more than t variables) form a prefix of the batch.  Their
    # visits and thresholds sit side by side in packed rows, position t in
    # columns starts[t]:starts[t + 1]; a problem never steps past its size.
    rank = sorted(range(len(problems)), key=lambda i: -problems[i].size)
    sizes = [problems[i].size for i in rank]
    batch, n = len(rank), sizes[0]
    starts = np.cumsum([0] + [sum(m > t for m in sizes) for t in range(n)], dtype=np.intp)
    bounds = list(zip(starts[:-1].tolist(), starts[1:].tolist()))

    # Zero-padded state, row p * n + j for variable j of problem p; spins
    # are 1 - 2 * bit.
    lin_pad = np.zeros((batch, n))
    quad_pad = np.zeros((batch, n, n))
    spins = np.ones((batch, n, reads))
    fields = np.zeros((batch, n, reads))
    visits = np.empty((sweeps, int(starts[-1])), dtype=np.intp)
    neg_betas = np.empty((batch, sweeps))
    streams: list[np.random.Generator] = []
    for p, i in enumerate(rank):
        q, s, m = problems[i], schedules[i], sizes[p]
        lin_pad[p, :m] = q.lin
        quad_pad[p, :m, :m] = q.quad
        beta_start, beta_end = (
            (s.beta_start, s.beta_end) if s.beta_start is not None else default_beta_range(q)
        )
        if sweeps > 1:
            neg_betas[p] = -np.geomspace(beta_start, beta_end, sweeps)
        else:
            neg_betas[p] = -beta_end
        rng = np.random.default_rng(s.seed)
        orders = rng.permuted(np.tile(np.arange(m), (sweeps, 1)), axis=1)
        visits[:, starts[:m] + p] = p * n + orders
        bits = rng.integers(0, 2, (m, reads)).astype(float)
        spins[p, :m] = 1.0 - 2.0 * bits
        fields[p, :m] = q.quad @ bits
        streams.append(rng)

    chunk = max(1, min(sweeps, _THRESHOLD_BYTES // (8 * visits.shape[1] * reads)))
    thresholds = np.empty((chunk, visits.shape[1], reads))
    staging = np.empty(chunk * n * reads)
    kernel = _native_kernel()
    state = (lin_pad, quad_pad, spins, fields)
    for s0 in range(0, sweeps, chunk):
        s1 = min(s0 + chunk, sweeps)
        # Thresholds -ln(u)/beta; u = 0 gives an infinite one, always accepted.
        with np.errstate(divide="ignore"):
            for p, rng in enumerate(streams):
                m = sizes[p]
                draws = staging[: (s1 - s0) * m * reads].reshape(s1 - s0, m, reads)
                rng.random(out=draws)
                np.log(draws, out=draws)
                draws /= neg_betas[p, s0:s1, None, None]
                thresholds[: s1 - s0, starts[:m] + p] = draws
        # One step-loop call per chunk: compiled if it was built, else numpy.
        if kernel is None:
            _numpy_steps(thresholds[: s1 - s0], visits[s0:s1], bounds, *state)
        else:
            _native_steps(kernel, thresholds[: s1 - s0], visits[s0:s1], starts, sizes, *state)

    results: dict[int, AnnealResult] = {}
    for p, i in enumerate(rank):
        q = problems[i]
        bits = 0.5 * (1.0 - spins[p, : sizes[p]])
        energies = q.lin @ bits + 0.5 * np.einsum("ir,ir->r", q.quad @ bits, bits) + q.offset
        best_bits = bits[:, int(np.argmin(energies))].astype(np.int8)
        # Re-derive the reported energy term by term so that callers can
        # reproduce it exactly from best_bits.
        results[i] = AnnealResult(best_bits, q.total_energy(best_bits), energies)
    return [results[i] for i in range(batch)]


def _numpy_steps(thresholds, visits, bounds, lin_pad, quad_pad, spins, fields) -> None:
    """Reference step loop: the sweeps of one threshold chunk in lockstep.

    Row s of ``visits`` and ``thresholds`` holds the packed steps of sweep s;
    position t of the sweep is columns ``bounds[t]``.  Updates ``spins`` and
    ``fields`` in place.
    """
    batch, n, reads = spins.shape
    spin_rows = spins.reshape(batch * n, reads)
    field_rows = fields.reshape(batch * n, reads)
    lin_rows = lin_pad.reshape(batch * n, 1)
    quad_rows = quad_pad.reshape(batch * n, n)
    for limits, steps in zip(thresholds, visits):
        lin_at, quad_at = lin_rows.take(steps, 0), quad_rows.take(steps, 0)
        for lo, hi in bounds:
            rows = steps[lo:hi]
            spin = spin_rows.take(rows, 0)
            delta_e = field_rows.take(rows, 0)
            delta_e += lin_at[lo:hi]
            delta_e *= spin
            accept = delta_e < limits[lo:hi]
            if np.count_nonzero(accept):
                # flip is -1, 0 or +1, so every product and difference
                # below is exact.
                flip = spin * accept
                spin -= flip
                spin -= flip
                spin_rows[rows] = spin
                fields[: hi - lo] += np.einsum("kj,kr->kjr", quad_at[lo:hi], flip)


def _native_steps(kernel, thresholds, visits, starts, sizes, lin_pad, quad_pad, spins, fields) -> None:
    """:func:`_numpy_steps` in compiled code, bit for bit.

    ``starts`` are the column bounds of the sweep positions and ``sizes`` the
    problem sizes, largest first; only a problem's own field rows change.
    """
    _, n, reads = spins.shape
    sizes, flip = np.array(sizes, dtype=np.intp), np.empty(reads)
    arrays = (starts, sizes, visits, thresholds, lin_pad, quad_pad, spins, fields, flip)
    # The C loop reads raw pointers: three index arrays, then six of doubles.
    if [a.dtype for a in arrays] != [np.intp] * 3 + [np.float64] * 6 or not all(
        a.flags.c_contiguous for a in arrays
    ):
        raise ValueError("step-loop arrays must be C-contiguous intp and float64 arrays")
    kernel(len(visits), n, visits.shape[1], reads, *(a.ctypes.data for a in arrays))


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
    kernel.argtypes = [ctypes.c_ssize_t] * 4 + [ctypes.c_void_p] * 9
    kernel.restype = None
    return kernel


def exhaustive_minimum(q: QuboProblem, limit: int = 24) -> tuple[np.ndarray, float]:
    """Brute-force global minimum; refuses problems beyond 2**limit states."""
    if q.size > limit:
        raise ValueError(f"exhaustive search over {q.size} variables refused (limit {limit})")
    states = ((np.arange(2**q.size)[:, None] >> np.arange(q.size)) & 1).astype(float)
    energies = states @ q.lin + 0.5 * np.einsum("ri,ri->r", states @ q.quad, states) + q.offset
    best = int(np.argmin(energies))
    return states[best].astype(np.int8), float(energies[best])
