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
compiler or the build fails.  Both do the same arithmetic: the threshold
ln(u) / -beta (numpy divides a chunk before its loop, C in its accept loop:
the same IEEE division), dE = (field + lin) * spin, a flip when dE is below
the threshold, and, unless no read flipped, every field updated by its
product with a flip of -1, 0 or +1, which is exact.  The C loop is
vectorised across the reads for the host: it is built with ``-O3
-march=native`` on the machine that loads it, without ``-ffast-math`` or
reciprocal math and with contraction off, so each element is the same IEEE
operation as in numpy at any vector width.  Where numpy's flip is -0 the C
flip is +0; that can change only the sign of a field that is exactly zero,
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

Threads: once the visit orders and initial bits are drawn, a helper thread
may draw the uniforms, chunk by chunk in order, one chunk ahead into the
second of two buffers, while the calling thread takes the log of the chunk
before in place, divides it (numpy loop) and steps it.  The draw, the log
and the C loop release the interpreter lock, so the two overlap.  The
helper runs only where it has something to overlap and a CPU to run on: the
C loop, at least 4 chunks, more than one usable CPU, and not in a process
that multiprocessing started, such as a blocked-AQAE worker, whose pool
already holds one process per usable CPU.  Elsewhere the calling thread
draws each chunk itself.  The helper is started and joined inside the call,
so no thread outlives it, and an exception in either thread reaches the
caller.  The draws are the same calls in the same order either way, so no
output changes.
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

# Compiler flags of the step loop.  native targets the host that builds and
# loads the library; contraction stays off so no product fuses into an add.
_STEP_CFLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-shared", "-fPIC")


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
    """Heuristic (beta_start, beta_end) from the problem's coupling scales.

    Raises ValueError when a beta overflows, as it does for subnormal
    coefficient magnitudes: an infinite beta makes the ramp NaN, and a NaN
    threshold accepts no flip at all.
    """
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
    betas = math.log(2.0) / max_field, math.log(1e4) / smallest
    if not all(map(math.isfinite, betas)):
        raise ValueError(f"default betas overflow: the smallest nonzero coefficient magnitude is {smallest!r}")
    return betas


def anneal(q: QuboProblem, s: AnnealSchedule) -> AnnealResult:
    """Minimize a QUBO with seeded Metropolis annealing."""
    m, sweeps, reads = q.size, s.sweeps, s.reads
    if m < 1:
        raise ValueError("QUBO must have at least one variable")
    beta_start, beta_end = (s.beta_start, s.beta_end) if s.beta_start is not None else default_beta_range(q)
    neg_betas = -_geomspace(beta_start, beta_end, sweeps) if sweeps > 1 else np.full(sweeps, -beta_end)

    rng = np.random.default_rng(s.seed)
    visits = rng.permuted(np.tile(np.arange(m), (sweeps, 1)), axis=1)
    bits = rng.integers(0, 2, (m, reads)).astype(float)
    lin, quad = np.ascontiguousarray(q.lin, np.float64), np.ascontiguousarray(q.quad, np.float64)
    # Spins are 1 - 2 * bit.
    spins = 1.0 - 2.0 * bits
    fields = quad @ bits

    chunk = max(1, min(sweeps, _THRESHOLD_BYTES // (8 * m * reads)))
    spans = [(s0, min(s0 + chunk, sweeps)) for s0 in range(0, sweeps, chunk)]
    kernel = _native_kernel()
    ahead = _draws_ahead(kernel, len(spans))
    # Chunk k's uniforms go to buffer k % 2 while a helper draws ahead, else
    # all to one buffer.
    log_u = np.empty((2 if ahead else 1, chunk, m, reads))
    natives = [] if kernel is None else [
        _native_steps(kernel, buffer, visits, neg_betas, lin, quad, spins, fields) for buffer in log_u
    ]
    views = [log_u[k % len(log_u), : s1 - s0] for k, (s0, s1) in enumerate(spans)]
    chunks = _uniform_chunks(rng, views, ahead)
    try:
        for k, ((s0, s1), limits) in enumerate(zip(spans, chunks)):
            # Thresholds -ln(u)/beta (the C loop divides itself); u = 0, or a
            # beta so small that the quotient overflows, gives +inf, always
            # accepted.
            with np.errstate(divide="ignore", over="ignore"):
                np.log(limits, out=limits)
                if kernel is None:
                    limits /= neg_betas[s0:s1, None, None]
            # One step-loop call per chunk: compiled if it was built, else numpy.
            if kernel is None:
                _numpy_steps(limits, visits[s0:s1], lin, quad, spins, fields)
            else:
                natives[k % len(natives)](s0, s1)
    finally:
        chunks.close()  # joins the helper, after the last chunk or a failed step

    bits = 0.5 * (1.0 - spins)
    energies = q.lin @ bits + 0.5 * np.einsum("ir,ir->r", q.quad @ bits, bits) + q.offset
    best_bits = bits[:, int(np.argmin(energies))].astype(np.int8)
    # Re-derive the reported energy term by term so that callers can
    # reproduce it exactly from best_bits.
    return AnnealResult(best_bits, q.total_energy(best_bits), energies)


def _geomspace(start: float, stop: float, num: int) -> np.ndarray:
    """``np.geomspace(start, stop, num)`` for 0 < start, stop and num >= 2, bit
    for bit, without its generic set-up; the ends are set, never powered.  The
    step is 0 only for equal logs, so linspace's zero-step case never differs."""
    log_start, log_stop = np.log10(np.array([start, stop]))
    y = np.arange(1, num - 1, dtype=np.float64)
    y *= (log_stop - log_start) / (num - 1)
    y += log_start
    ramp = np.empty(num)
    ramp[0], ramp[-1] = start, stop
    np.power(10.0, y, out=ramp[1:-1])
    return ramp


def _draws_ahead(kernel, chunks: int) -> bool:
    """Whether a helper thread draws the uniforms of an anneal ahead of its
    step loop: only where there is enough to overlap, the compiled loop
    (which releases the interpreter lock) over at least 4 chunks, and a
    spare CPU to overlap it on.  A process that multiprocessing started,
    such as a blocked-AQAE worker, draws inline, since its pool already
    holds one process per usable CPU."""
    import os
    import sys

    # On 16- and 18-variable anneals the helper's start, hand-offs and join
    # cost as much as the overlap saved at 3 chunks and more below; from 4
    # chunks on it was faster.
    if kernel is None or chunks < 4:
        return False
    # Looked up, not imported: a process that never imported multiprocessing
    # is none of its children.
    multiprocessing = sys.modules.get("multiprocessing")
    if multiprocessing is not None and multiprocessing.parent_process() is not None:
        return False
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else range(os.cpu_count() or 1)
    return len(cpus) > 1


def _uniform_chunks(rng, views, ahead: bool):
    """Generate ``views`` in order, each filled with the generator's next
    uniforms.

    Inline, each view is drawn as it is reached.  With ``ahead``, a helper
    thread draws view k + 1 while the caller works on view k, so those two
    must not share memory; an exception of a draw is raised here as it is.
    The helper is joined when the generator ends, raises or is closed.
    """
    if not ahead:
        for view in views:
            yield rng.random(out=view)
        return
    import threading
    from queue import SimpleQueue

    todo, done = SimpleQueue(), SimpleQueue()

    def draw():
        try:
            while (view := todo.get()) is not None:
                rng.random(out=view)
                done.put(None)
        except BaseException as exc:  # raised again in the caller's thread
            done.put(exc)

    helper = threading.Thread(target=draw, name="nuanneal-uniforms")
    helper.start()
    try:
        todo.put(views[0])
        for k, view in enumerate(views, 1):
            # The caller is done with the view before this one, whose buffer
            # takes the view after it.
            if k < len(views):
                todo.put(views[k])
            error = done.get()
            if error is not None:
                raise error
            yield view
    finally:
        todo.put(None)  # ends the helper
        helper.join()


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


def _native_steps(kernel, log_u, visits, neg_betas, lin, quad, spins, fields):
    """Check the arrays of one anneal for the C loop, once, and return
    ``steps(s0, s1)``: :func:`_numpy_steps` over sweeps s0 to s1 in compiled
    code, bit for bit, at thresholds ``log_u[: s1 - s0] / neg_betas[s0:s1]``."""
    n, reads = spins.shape
    flips = np.empty(reads)
    arrays = (visits, log_u, neg_betas, lin, quad, spins, fields, flips)
    # The C loop reads raw pointers: one index array, seven of doubles, the
    # last the buffer of each read's flip at a visit.
    if [a.dtype for a in arrays] != [np.intp] + [np.float64] * 7 or not all(
        a.flags.c_contiguous for a in arrays
    ):
        raise ValueError("step-loop arrays must be C-contiguous intp and float64 arrays")
    sweeps, chunk = len(visits), len(log_u)
    shapes = [(sweeps, n), (chunk, n, reads), (sweeps,), (n,), (n, n), (n, reads), (n, reads), (reads,)]
    if [a.shape for a in arrays] != shapes:
        raise ValueError("step-loop arrays disagree in shape")
    at_visits, at_log_u, at_betas, *rest = (a.ctypes.data for a in arrays)

    def steps(s0: int, s1: int) -> None:
        if not 0 <= s0 <= s1 <= min(sweeps, s0 + chunk):
            raise ValueError(f"sweeps {s0} to {s1} are outside the {sweeps} sweeps or the {chunk}-sweep buffer")
        # Reading strides through ``arrays`` keeps every pointed-to array alive.
        visits_at, betas_at = at_visits + s0 * arrays[0].strides[0], at_betas + s0 * arrays[2].strides[0]
        kernel(s1 - s0, n, reads, visits_at, at_log_u, betas_at, *rest)

    return steps


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
                    [cc, *_STEP_CFLAGS, "-o", library, str(source)],
                    check=True,
                    capture_output=True,
                )
            kernel = ctypes.CDLL(library).anneal_steps
    except (OSError, subprocess.SubprocessError, AttributeError):
        return None
    kernel.argtypes = [ctypes.c_ssize_t] * 3 + [ctypes.c_void_p] * 8
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
