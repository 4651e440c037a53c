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

Determinism contract: read r of a problem draws its initial state and then
its uniforms, sweep after sweep in visit order, from ``default_rng(seed + r)``;
the per-sweep visit orders come from the shared stream
``default_rng(seed + reads)``.  Uniforms are drawn a few sweeps at a time into
a buffer bounded by ``_THRESHOLD_BYTES``; the buffer size, the batch a
problem is annealed in and its position there do not change any result, so
``anneal_many(problems, schedules)[i]`` equals
``anneal(problems[i], schedules[i])`` bit for bit, and identical
(problem, schedule) inputs give bit-identical results.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .clock import QuboProblem

# Cap on the buffer of acceptance thresholds: a few sweeps of every read of
# every problem in a batch.
_THRESHOLD_BYTES = 1 << 19


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


def _beta_range(lin: np.ndarray, quad: np.ndarray) -> tuple[float, float]:
    reach = np.abs(lin) + np.abs(quad).sum(axis=1)
    max_field = float(reach.max()) if lin.size else 0.0
    couplings = np.concatenate([lin, quad[np.triu_indices(lin.size, 1)]])
    magnitudes = np.abs(couplings[couplings != 0.0])
    if max_field <= 0.0 or not magnitudes.size:
        return 1.0, 1.0
    return math.log(2.0) / max_field, math.log(1e4) / float(magnitudes.min())


def default_beta_range(q: QuboProblem) -> tuple[float, float]:
    """Heuristic (beta_start, beta_end) from the problem's coupling scales."""
    return _beta_range(*q.dense())


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
    starts = np.concatenate([[0], np.cumsum([sum(m > t for m in sizes) for t in range(n)])])
    bounds = list(zip(starts[:-1].tolist(), starts[1:].tolist()))
    dense = [problems[i].dense() for i in rank]

    # Zero-padded state, row p * n + j for variable j of problem p; spins
    # are 1 - 2 * bit.
    lin_pad = np.zeros((batch, n))
    quad_pad = np.zeros((batch, n, n))
    spins = np.ones((batch, n, reads))
    fields = np.zeros((batch, n, reads))
    visits = np.empty((sweeps, int(starts[-1])), dtype=np.intp)
    neg_betas = np.empty((batch, sweeps))
    streams: list[list[np.random.Generator]] = []
    for p, (i, (lin, quad)) in enumerate(zip(rank, dense)):
        m, s = sizes[p], schedules[i]
        lin_pad[p, :m] = lin
        quad_pad[p, :m, :m] = quad
        beta_start, beta_end = (
            (s.beta_start, s.beta_end) if s.beta_start is not None else _beta_range(lin, quad)
        )
        if sweeps > 1:
            neg_betas[p] = -np.geomspace(beta_start, beta_end, sweeps)
        else:
            neg_betas[p] = -beta_end
        orders = np.random.default_rng(s.seed + reads).permuted(
            np.tile(np.arange(m), (sweeps, 1)), axis=1
        )
        visits[:, starts[:m] + p] = p * n + orders
        rngs = [np.random.default_rng(s.seed + r) for r in range(reads)]
        bits = np.stack([rng.integers(0, 2, m).astype(float) for rng in rngs], axis=-1)
        spins[p, :m] = 1.0 - 2.0 * bits
        fields[p, :m] = quad @ bits
        streams.append(rngs)

    chunk = max(1, min(sweeps, _THRESHOLD_BYTES // (8 * visits.shape[1] * reads)))
    thresholds = np.empty((chunk, visits.shape[1], reads))
    staging = np.empty(chunk * n * reads)
    spin_rows = spins.reshape(batch * n, reads)
    field_rows = fields.reshape(batch * n, reads)
    lin_rows = lin_pad.reshape(batch * n, 1)
    quad_rows = quad_pad.reshape(batch * n, n, 1)
    for s0 in range(0, sweeps, chunk):
        s1 = min(s0 + chunk, sweeps)
        # Thresholds -ln(u)/beta; u = 0 gives an infinite one, always accepted.
        with np.errstate(divide="ignore"):
            for p, rngs in enumerate(streams):
                m = sizes[p]
                draws = staging[: reads * (s1 - s0) * m].reshape(reads, -1)
                for r, rng in enumerate(rngs):
                    rng.random(out=draws[r])
                draws = draws.reshape(reads, s1 - s0, m)
                np.log(draws, out=draws)
                draws /= neg_betas[p, s0:s1, None]
                thresholds[: s1 - s0, starts[:m] + p] = draws.transpose(1, 2, 0)
        for sweep in range(s0, s1):
            limits, steps = thresholds[sweep - s0], visits[sweep]
            lin_at, quad_at = lin_rows[steps], quad_rows[steps]
            for lo, hi in bounds:
                rows = steps[lo:hi]
                spin = spin_rows[rows]
                delta_e = field_rows[rows]
                delta_e += lin_at[lo:hi]
                delta_e *= spin
                accept = delta_e < limits[lo:hi]
                if np.count_nonzero(accept):
                    flip = spin * accept
                    spin_rows[rows] = spin - 2.0 * flip
                    fields[: hi - lo] += quad_at[lo:hi] * flip[:, None, :]

    results: dict[int, AnnealResult] = {}
    for p, (i, (lin, quad)) in enumerate(zip(rank, dense)):
        q = problems[i]
        bits = 0.5 * (1.0 - spins[p, : sizes[p]])
        energies = lin @ bits + 0.5 * np.einsum("ir,ir->r", quad @ bits, bits) + q.offset
        best_bits = bits[:, int(np.argmin(energies))].astype(np.int8)
        # Re-derive the reported energy from the coefficient map so that
        # callers can reproduce it exactly from best_bits.
        results[i] = AnnealResult(best_bits, q.total_energy(best_bits), energies)
    return [results[i] for i in range(batch)]


def exhaustive_minimum(q: QuboProblem, limit: int = 24) -> tuple[np.ndarray, float]:
    """Brute-force global minimum; refuses problems beyond 2**limit states."""
    if q.size > limit:
        raise ValueError(f"exhaustive search over {q.size} variables refused (limit {limit})")
    lin, quad = q.dense()
    states = ((np.arange(2**q.size)[:, None] >> np.arange(q.size)) & 1).astype(float)
    energies = states @ lin + 0.5 * np.einsum("ri,ri->r", states @ quad, states) + q.offset
    best = int(np.argmin(energies))
    return states[best].astype(np.int8), float(energies[best])
