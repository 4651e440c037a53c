"""Adaptive annealing eigensolver loop over zoom steps.

Each zoom level z digitizes a correction to the current trajectory estimate
at scale 2^(1-z), anneals the resulting QUBO, applies the best update, and
repeats once with the reverse (sign-flipped) digitization before halving the
scale.  The initial-state register is frozen: its bits are substituted out
of the QUBO as constants, so the first register can never drift off the
embedded initial state and the estimate's global phase stays pinned.

The blocked driver runs one independent AQAE run per live mass-basis
occupation block and sample time, in parallel worker processes where the
host has more than one usable CPU.
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .annealer import AnnealSchedule, _native_kernel, anneal
# change_basis, mass_blocks, build_dirac_hamiltonian and restrict_to_block stay importable
# here for perfbench/tracing.targets, until the benchmark's tracer is re-pointed.
from .basis import StateVector, change_basis, mass_blocks
from .clock import (
    ClockMatrix,
    DigitizationParams,
    Direction,
    QuboForm,
    apply_bit_updates,
    build_clock,
    build_qubo,
    embed_state,
    real_embed,
    unembed_state,
)
from .evolution import Evolver, split_blocks
from .hamiltonians import HamiltonianMatrix, SystemSpec, build_dirac_hamiltonian, restrict_to_block
from .witnesses import WitnessReport, compute_witnesses


@dataclass(frozen=True)
class AqaeConfig:
    """Digitization depth and annealer budget."""

    k_bits: int = 1
    max_zoom: int = 20
    reads: int = 64
    sweeps: int = 128
    seed: int = 0

    def __post_init__(self):
        if self.k_bits < 1:
            raise ValueError("k_bits must be at least 1")
        if self.max_zoom < 1:
            raise ValueError("max_zoom must be at least 1")
        if self.reads < 1:
            raise ValueError("reads must be at least 1")
        if self.sweeps < 0:
            raise ValueError("sweeps must be non-negative")


@dataclass
class AqaeResult:
    """Final-register estimate plus the full iteration record: the embedded
    trajectory ``estimate`` and one ``diagnostics`` entry per anneal."""

    amplitudes: np.ndarray
    estimate: np.ndarray
    converged: bool
    diagnostics: list[dict]
    # Not a field: perfbench/tracing._aqae_stats still reads it, until a
    # benchmark change re-points the tracer and drops that read.
    rewinds = 0


def _derived_seed(*keys: int) -> int:
    """Non-negative 63-bit seed drawn from the SeedSequence of ``keys``: an
    anneal's from (run seed, iteration), a block run's from (config seed,
    time index, block index)."""
    seq = np.random.SeedSequence([int(k) for k in keys])
    return int(seq.generate_state(1, dtype=np.uint64)[0] >> 1)


def initial_estimate(clock: ClockMatrix) -> np.ndarray:
    """Real-embedded trajectory of the initial state followed by zero registers."""
    return embed_state(np.concatenate([clock.initial, np.zeros(clock.dim - clock.register_dim)]))


class RegisterCollapse(RuntimeError):
    """A run's final register annealed to zero, leaving no state to normalise."""


def clock_steps(t: float, dt: float | None) -> tuple[int, float]:
    """(steps, step size) of the clock for time ``t`` >= 0: t / dt rounded to the nearest
    integer (at least 1) steps of t / steps each, or one step of ``t`` when ``dt`` is None."""
    steps = max(1, round(t / dt)) if dt is not None else 1
    return steps, t / steps if t > 0 else 0.0


def clock_qubo(clock: ClockMatrix, k_bits: int) -> QuboForm:
    """A run's :class:`QuboForm` over ``real_embed(clock)``, ``k_bits`` bits
    per slot.  The initial register's real and imaginary slots are left out
    of ``live``, so each pass's QUBO is the full QUBO with their bits fixed
    to 0, keeping their values."""
    d, half = clock.register_dim, clock.dim
    return QuboForm(real_embed(clock), k_bits, np.r_[d:half, half + d : 2 * half])


def run_aqae(
    h: HamiltonianMatrix,
    initial: np.ndarray,
    dt: float,
    cfg: AqaeConfig,
    steps: int = 1,
    oracle: bool = False,
) -> AqaeResult:
    """Recover the time-evolved state of ``initial`` by annealing.

    Runs zoom levels 0 .. max_zoom-1, each with a forward and a reverse
    digitization pass, and returns the normalized final-register amplitudes.
    With ``oracle`` enabled every iteration also records the overlap of the
    current final-register estimate with the exact evolution.
    """
    psi0 = np.asarray(initial, dtype=complex)
    clock = build_clock(h, psi0, dt, steps)

    exact_final = Evolver(h).evolve(psi0, dt * steps) if oracle else None

    estimate = initial_estimate(clock)
    form = clock_qubo(clock, cfg.k_bits)
    diagnostics: list[dict] = []
    iteration = 0
    for z in range(cfg.max_zoom):
        for direction in (Direction.FORWARD, Direction.REVERSE):
            params = DigitizationParams(cfg.k_bits, z, direction)
            qubo = build_qubo(form, params, estimate)
            schedule = AnnealSchedule(cfg.sweeps, cfg.reads, seed=_derived_seed(cfg.seed, iteration))
            result = anneal(qubo, schedule)
            estimate[form.live] = apply_bit_updates(estimate[form.live], result.best_bits, params)
            entry = {
                "iteration": iteration,
                "zoom": z,
                "direction": direction.value,
                "clock_energy": result.best_energy,
            }
            if exact_final is not None:
                entry["overlap"] = _overlap(exact_final, _final_register(clock, estimate))
            diagnostics.append(entry)
            iteration += 1

    final = _final_register(clock, estimate)
    norm = np.linalg.norm(final)
    if norm < 1e-12:
        raise RegisterCollapse("AQAE final register collapsed to zero; no estimate available")
    # Digitization floor: the residual a perfect annealer leaves at zoom z is
    # O(2^-z) per live slot, so a last pass above it at the last zoom has not
    # converged.
    floor = 16.0 * float(np.linalg.norm(form.c, 2)) * form.live.size * 4.0 ** (1 - cfg.max_zoom)
    return AqaeResult(final / norm, estimate, diagnostics[-1]["clock_energy"] <= floor, diagnostics)


def _final_register(clock: ClockMatrix, estimate: np.ndarray) -> np.ndarray:
    return unembed_state(estimate)[clock.register_dim * clock.n_steps :]


def _overlap(exact_final: np.ndarray, est: np.ndarray) -> float:
    norm = np.linalg.norm(est)
    if norm < 1e-300:
        return 0.0
    return float(abs(np.vdot(exact_final, est)) / norm)


@dataclass
class BlockRunReport:
    """Outcome of one occupation block at one sample time.  A skipped block
    keeps the run fields at their defaults; ``overlap`` is None unless the
    run had the oracle."""

    occupation: tuple[int, ...]
    size: int
    weight: float
    skipped: bool
    converged: bool = False
    final_energy: float | None = None
    overlap: float | None = None


@dataclass
class BlockedAqaeResult:
    """Witness reports and per-block diagnostics for every sample time."""

    reports: list[WitnessReport]
    block_reports: list[list[BlockRunReport]]


def _run_block(args: tuple) -> AqaeResult:
    """One block run in a worker: :func:`run_aqae` looked up by name there,
    as on the serial path."""
    return run_aqae(*args)


@contextmanager
def _block_runs(calls: dict[tuple[int, int], tuple]):
    """Yield ``result_of(t_idx, b_idx)``, which returns the :func:`run_aqae`
    result of that key's call or raises that run's exception, a
    ``BrokenProcessPool`` if a worker died first.  ``calls`` maps each key
    to the positional arguments (h, initial, dt, cfg, steps, oracle).

    The runs go to forked worker processes, one per usable CPU up to the
    number of runs, largest block size times clock steps first.  They run
    one after another in this process, in the order asked for, when one
    worker would do, off Linux, or in a daemonic process (which may not have
    children).  No worker outlives the block.
    """
    import multiprocessing

    serial = not sys.platform.startswith("linux") or multiprocessing.current_process().daemon
    workers = 1 if serial else min(len(os.sched_getaffinity(0)), len(calls))
    if workers < 2:
        yield lambda *key: run_aqae(*calls[key])
        return
    from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor

    # Built here, before the fork, so that no worker compiles the step loop.
    _native_kernel()
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    futures, unsubmitted = {}, Future()
    try:
        # Block size times clock steps, largest first; ties keep their order.
        # A worker dying mid-submission breaks the pool; the runs not yet submitted raise that error.
        try:
            for key in sorted(calls, key=lambda key: -len(calls[key][1]) * calls[key][4]):
                futures[key] = pool.submit(_run_block, calls[key])
        except BrokenExecutor as exc:
            unsubmitted.set_exception(exc)
        yield lambda *key: futures.get(key, unsubmitted).result()
    finally:
        pool.shutdown(cancel_futures=True)


def run_aqae_blocked(
    spec: SystemSpec,
    initial: StateVector,
    dt: float | None,
    times: list[float],
    cfg: AqaeConfig,
    oracle: bool = False,
) -> BlockedAqaeResult:
    """Blocked AQAE over the mass-basis occupation decomposition.

    The initial state is split into occupation blocks by :func:`split_blocks`,
    in either basis; at every sample time its live blocks are annealed
    independently and the split rebuilds the state from their change before
    the witnesses are computed.  Each live block is one :func:`run_aqae` call,
    seeded from (config seed, time index, block index), so the runs are
    independent: they fan out to worker processes (see :func:`_block_runs`)
    and are reassembled in (time, block) order, which leaves every output as a
    serial run gives it.  The first failure in that order raises a
    RuntimeError naming its block and time (a :class:`RegisterCollapse` when
    that run's final register collapsed); a MemoryError passes through
    unwrapped.  Each time's clock comes from :func:`clock_steps` at step size
    ``dt``.  A negative time, a ``dt`` that is not positive or a system that
    does not conserve occupations raises ValueError before any block is
    annealed.  :func:`run_aqae` divides each block's final register by its
    norm, so the rebuilt state's 1e-12 norm check (ValueError) sees only
    rounding, not annealing drift; no run yet bounds that drift by its clock
    energy.
    """
    if any(t < 0 for t in times):
        raise ValueError("sample times must be non-negative")
    if dt is not None and dt <= 0:
        raise ValueError(f"dt must be positive when set, got {dt}")
    # Block weights do not change in time: each live block is cut out of H
    # (and checked) once for all sample times.
    psi, parts, rebuild = split_blocks(spec, initial)
    calls: dict[tuple[int, int], tuple] = {}
    for t_idx, t in enumerate(times):
        steps, step_dt = clock_steps(t, dt)
        for b_idx, (_, idx, weight, h_block) in enumerate(parts):
            if h_block is not None:
                block_cfg = replace(cfg, seed=_derived_seed(cfg.seed, t_idx, b_idx))
                calls[t_idx, b_idx] = (h_block, psi[idx] / weight, step_dt, block_cfg, steps, oracle)

    reports: list[WitnessReport] = []
    block_reports: list[list[BlockRunReport]] = []
    with _block_runs(calls) as result_of:
        for t_idx, t in enumerate(times):
            per_block: list[BlockRunReport] = []
            change = np.zeros(spec.dim, dtype=complex)
            for b_idx, (block, idx, weight, h_block) in enumerate(parts):
                if h_block is None:
                    per_block.append(BlockRunReport(block.occupation, block.size, weight, skipped=True))
                    continue
                try:
                    res = result_of(t_idx, b_idx)
                except MemoryError:
                    raise
                except Exception as exc:
                    wrapper = RegisterCollapse if isinstance(exc, RegisterCollapse) else RuntimeError
                    raise wrapper(
                        f"AQAE failed on block {block.occupation} (size {block.size}) at time {t:g}: {exc}"
                    ) from exc
                change[idx] = weight * res.amplitudes - psi[idx]
                last = res.diagnostics[-1]
                per_block.append(
                    BlockRunReport(
                        block.occupation, block.size, weight, skipped=False, converged=res.converged,
                        final_energy=last["clock_energy"], overlap=last.get("overlap"),
                    )
                )
            reports.append(compute_witnesses(rebuild(change), time=t))
            block_reports.append(per_block)
    return BlockedAqaeResult(reports, block_reports)
