"""Adaptive annealing eigensolver loop over zoom steps.

Each zoom level z digitizes a correction to the current trajectory estimate
at scale 2^(1-z), anneals the resulting QUBO, applies the best update, and
repeats once with the reverse (sign-flipped) digitization before halving the
scale.  The initial-state register is frozen: its bits are substituted out
of the QUBO as constants, so the first register can never drift off the
embedded initial state and the estimate's global phase stays pinned.

Nonconvergence handling: a plateau of the clock energy (all adjacent-pair
percentage differences below the configured threshold across the window)
while the energy is still far above the digitization floor marks a stalled
run; the estimate is rewound to the latest checkpoint whose energy step was
non-increasing and the loop resumes from there with fresh annealer seeds.
"""

from __future__ import annotations

import math
from collections.abc import Generator
from dataclasses import dataclass, field, replace

import numpy as np

from .annealer import AnnealResult, AnnealSchedule, anneal, anneal_many
from .basis import BasisTag, OccupationBlock, StateVector, change_basis, mass_blocks
from .clock import (
    ClockMatrix,
    DigitizationParams,
    Direction,
    QuboProblem,
    apply_bit_updates,
    build_clock,
    build_qubo,
    embed_state,
    real_embed,
    unembed_state,
)
from .evolution import Evolver
from .hamiltonians import (
    HamiltonianMatrix,
    Species,
    Statistics,
    SystemSpec,
    build_dirac_hamiltonian,
    restrict_to_block,
)
from .witnesses import WitnessReport, compute_witnesses

ZERO_BLOCK_NORM = 1e-12


@dataclass(frozen=True)
class AqaeConfig:
    """Digitization depth, annealer budget, and convergence policy."""

    k_bits: int = 1
    max_zoom: int = 20
    reads: int = 64
    sweeps: int = 128
    convergence_window: int = 8
    convergence_pct: float = 1.0
    rewind_enabled: bool = True
    max_rewinds: int = 3
    seed: int = 0
    beta_start: float | None = None
    beta_end: float | None = None
    penalty_weight: float | None = None
    block_size_cap: int | None = None

    def __post_init__(self):
        if self.k_bits < 1:
            raise ValueError("k_bits must be at least 1")
        if self.max_zoom < 1:
            raise ValueError("max_zoom must be at least 1")
        if self.convergence_window < 1:
            raise ValueError("convergence_window must be at least 1")
        if self.convergence_pct <= 0:
            raise ValueError("convergence_pct must be positive")
        if self.block_size_cap is not None and self.block_size_cap < 1:
            raise ValueError("block_size_cap must be positive when set")


def converged(history: list[float], cfg: AqaeConfig) -> bool:
    """Plateau detector over the clock-energy history.

    True iff the last ``convergence_window`` adjacent-pair percentage
    differences all fall below ``convergence_pct``.
    """
    w = cfg.convergence_window
    if len(history) < w + 1:
        return False
    tail = history[-(w + 1) :]
    for a, b in zip(tail, tail[1:]):
        denom = max(abs(a), abs(b))
        if denom < 1e-300:
            continue
        if 100.0 * abs(b - a) / denom >= cfg.convergence_pct:
            return False
    return True


@dataclass
class _Checkpoint:
    zoom: int
    estimate: np.ndarray
    energy: float
    history_len: int


def _latest_non_increasing(checkpoints: list[_Checkpoint]) -> int:
    """Index of the newest checkpoint whose energy did not rise."""
    for i in range(len(checkpoints) - 1, 0, -1):
        if checkpoints[i].energy <= checkpoints[i - 1].energy:
            return i
    return 0


@dataclass
class AqaeResult:
    """Final-register estimate plus the full iteration record: the embedded
    trajectory ``estimate``, the ``zoom`` level reached and the clock energy
    of every anneal since the last rewind."""

    amplitudes: np.ndarray
    estimate: np.ndarray
    zoom: int
    energy_history: list[float]
    converged: bool
    diagnostics: list[dict]
    rewinds: int


def _iteration_seed(base_seed: int, iteration: int) -> int:
    seq = np.random.SeedSequence([int(base_seed), int(iteration)])
    return int(seq.generate_state(1, dtype=np.uint64)[0] >> 1)


def run_aqae(
    h: HamiltonianMatrix | np.ndarray,
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
    run = _aqae_run(h, initial, dt, cfg, steps, oracle)
    try:
        job = next(run)
        while True:
            job = run.send(anneal(*job))
    except StopIteration as done:
        return done.value


def initial_estimate(clock: ClockMatrix) -> np.ndarray:
    """Real-embedded trajectory of the initial state followed by zero registers."""
    return embed_state(np.concatenate([clock.initial, np.zeros(clock.dim - clock.register_dim)]))


def clock_qubo(
    clock: ClockMatrix,
    cemb: np.ndarray,
    params: DigitizationParams,
    estimate: np.ndarray,
    freeze: bool = True,
) -> tuple[QuboProblem, list[int]]:
    """QUBO of one pass around ``estimate`` over ``cemb = real_embed(clock)``,
    and the original indices of its bits.  ``freeze`` fixes the bits of the
    initial register's real and imaginary slots to 0, keeping its values."""
    problem = build_qubo(cemb, params, estimate)
    if not freeze:
        return problem, list(range(problem.size))
    d, half, k = clock.register_dim, clock.dim, params.k_bits
    slots = [*range(d), *range(half, half + d)]
    return problem.fix_variables({slot * k + b: 0 for slot in slots for b in range(k)})


def _aqae_run(
    h: HamiltonianMatrix | np.ndarray,
    initial: np.ndarray,
    dt: float,
    cfg: AqaeConfig,
    steps: int,
    oracle: bool,
) -> Generator[tuple[QuboProblem, AnnealSchedule], AnnealResult, AqaeResult]:
    """The loop of :func:`run_aqae`, with the annealer left to the caller.

    Yields the (qubo, schedule) of every anneal, takes its
    :class:`AnnealResult` back through ``send``, and returns the
    :class:`AqaeResult`, so that a driver can anneal independent runs
    together.
    """
    psi0 = np.asarray(initial, dtype=complex)
    clock = build_clock(h, psi0, dt, steps, cfg.penalty_weight)
    cemb = real_embed(clock)
    d, nreg = clock.register_dim, clock.n_steps + 1
    n_live = 2 * (clock.dim - d)
    cemb_norm = float(np.linalg.norm(cemb, 2))

    exact_final = Evolver(h).evolve(psi0, dt * steps) if oracle else None

    # Digitization floor: the residual a perfect annealer leaves at zoom z is
    # O(2^-z) per live slot; energies below floor(z) cannot be improved at
    # the current scale and do not indicate a stall.
    def floor_at(z: int) -> float:
        return 16.0 * cemb_norm * n_live * 4.0 ** (-z)

    estimate = initial_estimate(clock)
    history: list[float] = []
    diagnostics: list[dict] = []
    checkpoints: list[_Checkpoint] = []
    iteration = 0
    rewinds = 0
    z = 0
    while z < cfg.max_zoom:
        for direction in (Direction.FORWARD, Direction.REVERSE):
            params = DigitizationParams(cfg.k_bits, z, direction)
            qubo, kept = clock_qubo(clock, cemb, params, estimate)
            schedule = AnnealSchedule(
                sweeps=cfg.sweeps,
                reads=cfg.reads,
                beta_start=cfg.beta_start,
                beta_end=cfg.beta_end,
                seed=_iteration_seed(cfg.seed, iteration),
            )
            result = yield qubo, schedule
            bits = np.zeros(cemb.shape[0] * cfg.k_bits)
            bits[kept] = result.best_bits
            estimate = apply_bit_updates(estimate, bits, params)
            history.append(result.best_energy)
            entry = {
                "iteration": iteration,
                "zoom": z,
                "direction": direction.value,
                "clock_energy": result.best_energy,
            }
            if exact_final is not None:
                entry["overlap"] = _final_register_overlap(estimate, exact_final, d, nreg)
            diagnostics.append(entry)
            iteration += 1
        checkpoints.append(_Checkpoint(z, estimate.copy(), history[-1], len(history)))
        stalled = (
            cfg.rewind_enabled
            and rewinds < cfg.max_rewinds
            and converged(history, cfg)
            and history[-1] > floor_at(z)
        )
        if stalled:
            keep = _latest_non_increasing(checkpoints)
            cp = checkpoints[keep]
            estimate = cp.estimate.copy()
            history = history[: cp.history_len]
            checkpoints = checkpoints[: keep + 1]
            diagnostics.append(
                {
                    "iteration": iteration,
                    "zoom": z,
                    "direction": "rewind",
                    "clock_energy": cp.energy,
                    "rewound_to_zoom": cp.zoom,
                }
            )
            rewinds += 1
            z = cp.zoom + 1
            continue
        z += 1

    final = unembed_state(estimate)[d * clock.n_steps :]
    norm = np.linalg.norm(final)
    if norm < 1e-12:
        raise RuntimeError("AQAE final register collapsed to zero; no estimate available")
    converged_flag = history[-1] <= floor_at(cfg.max_zoom - 1)
    return AqaeResult(final / norm, estimate, z, history, converged_flag, diagnostics, rewinds)


def _final_register_overlap(estimate: np.ndarray, exact_final: np.ndarray, d: int, nreg: int) -> float:
    est = unembed_state(estimate)[d * (nreg - 1) :]
    norm = np.linalg.norm(est)
    if norm < 1e-300:
        return 0.0
    return float(abs(np.vdot(exact_final, est)) / norm)


@dataclass
class BlockRunReport:
    """Outcome of one occupation block at one sample time."""

    occupation: tuple[int, ...]
    size: int
    weight: float
    skipped: bool
    converged: bool = False
    zoom_levels: int = 0
    rewinds: int = 0
    final_energy: float = math.nan
    overlap: float = math.nan

    def to_dict(self) -> dict:
        return {
            "occupation": [int(c) for c in self.occupation],
            "size": int(self.size),
            "weight": float(self.weight),
            "skipped": bool(self.skipped),
            "converged": bool(self.converged),
            "zoom_levels": int(self.zoom_levels),
            "rewinds": int(self.rewinds),
            "final_energy": None if math.isnan(self.final_energy) else float(self.final_energy),
            "overlap": None if math.isnan(self.overlap) else float(self.overlap),
        }


@dataclass
class BlockedAqaeResult:
    """Witness reports and per-block diagnostics for every sample time."""

    reports: list[WitnessReport]
    block_reports: list[list[BlockRunReport]]
    states: list[StateVector] = field(default_factory=list)


def _block_seed(base_seed: int, time_index: int, block_index: int) -> int:
    seq = np.random.SeedSequence([int(base_seed), int(time_index), int(block_index)])
    return int(seq.generate_state(1, dtype=np.uint64)[0] >> 1)


def _run_lockstep(
    runs: dict[int, Generator], blocks: list[OccupationBlock], t: float
) -> dict[int, AqaeResult]:
    """Drive the AQAE runs of one sample time, keyed by block index, to the
    end; every round anneals the pending QUBO of each unfinished run in one
    :func:`anneal_many` batch."""
    results: dict[int, AqaeResult] = {}
    jobs: dict[int, tuple[QuboProblem, AnnealSchedule]] = {}

    def where(b_idx: int) -> str:
        block = blocks[b_idx]
        return f"block {block.occupation} (size {block.size})"

    def advance(b_idx: int, result: AnnealResult | None) -> None:
        try:
            jobs[b_idx] = runs[b_idx].send(result)
        except StopIteration as done:
            results[b_idx] = done.value
        except Exception as exc:
            raise RuntimeError(f"AQAE failed on {where(b_idx)} at time {t:g}: {exc}") from exc

    for b_idx in runs:
        advance(b_idx, None)
    while jobs:
        batch = list(jobs.items())
        jobs.clear()
        try:
            annealed = anneal_many([q for _, (q, _) in batch], [s for _, (_, s) in batch])
        except Exception as exc:
            names = ", ".join(where(b_idx) for b_idx, _ in batch)
            raise RuntimeError(f"AQAE failed annealing {names} at time {t:g}: {exc}") from exc
        for (b_idx, _), result in zip(batch, annealed):
            advance(b_idx, result)
    return results


def run_aqae_blocked(
    spec: SystemSpec,
    initial: StateVector,
    dt: float | None,
    times: list[float],
    cfg: AqaeConfig,
    oracle: bool = False,
) -> BlockedAqaeResult:
    """Blocked AQAE over the mass-basis occupation decomposition.

    For every sample time the flavor initial state is rotated to the mass
    basis and split into occupation blocks; blocks with weight above
    ``ZERO_BLOCK_NORM`` are annealed independently, reassembled, and rotated
    back before the witnesses are computed.  The blocks of one sample time
    are annealed in lockstep; each block's result is the one :func:`run_aqae`
    gives on that block alone.  ``dt`` selects the clock step size (``None``
    evolves each time in a single step).
    """
    if spec.statistics is not Statistics.DIRAC or any(
        s is not Species.NEUTRINO for s in spec.species
    ):
        raise ValueError(
            "blocked AQAE requires an all-neutrino Dirac system; "
            "mixed or Majorana interactions are not occupation-block-diagonal"
        )
    if initial.basis is not BasisTag.FLAVOR:
        raise ValueError("blocked AQAE expects a flavor-basis initial state")
    h_mass = build_dirac_hamiltonian(spec, BasisTag.MASS)
    blocks = mass_blocks(spec.nf, spec.n_modes)
    psi_mass = change_basis(initial, BasisTag.MASS, spec.pmns)

    reports: list[WitnessReport] = []
    block_reports: list[list[BlockRunReport]] = []
    states: list[StateVector] = []
    for t_idx, t in enumerate(times):
        if t < 0:
            raise ValueError("sample times must be non-negative")
        if dt is not None and dt > 0:
            steps = max(1, round(t / dt))
        else:
            steps = 1
        step_dt = t / steps if t > 0 else 0.0
        per_block: list[BlockRunReport] = []
        runs: dict[int, Generator] = {}
        for b_idx, block in enumerate(blocks):
            sub = psi_mass.amplitudes[np.asarray(block.indices)]
            weight = float(np.linalg.norm(sub))
            per_block.append(BlockRunReport(block.occupation, block.size, weight, True))
            if weight <= ZERO_BLOCK_NORM:
                continue
            if cfg.block_size_cap is not None and block.size > cfg.block_size_cap:
                raise ValueError(
                    f"block {block.occupation} has {block.size} states, "
                    f"above the configured cap {cfg.block_size_cap}"
                )
            block_cfg = replace(cfg, seed=_block_seed(cfg.seed, t_idx, b_idx))
            runs[b_idx] = _aqae_run(
                restrict_to_block(h_mass, block), sub / weight, step_dt, block_cfg, steps, oracle
            )
        assembled = np.zeros(spec.dim, dtype=complex)
        for b_idx, res in _run_lockstep(runs, blocks, t).items():
            rep = per_block[b_idx]
            assembled[np.asarray(blocks[b_idx].indices)] = rep.weight * res.amplitudes
            overlap = math.nan
            if res.diagnostics and "overlap" in res.diagnostics[-1]:
                overlap = res.diagnostics[-1]["overlap"]
            per_block[b_idx] = replace(
                rep,
                skipped=False,
                converged=res.converged,
                zoom_levels=res.zoom,
                rewinds=res.rewinds,
                final_energy=res.energy_history[-1],
                overlap=overlap,
            )
        assembled /= np.linalg.norm(assembled)
        mass_state = StateVector(assembled, BasisTag.MASS, spec.nf, spec.n_modes)
        flavor_state = change_basis(mass_state, BasisTag.FLAVOR, spec.pmns)
        reports.append(compute_witnesses(flavor_state, time=t))
        block_reports.append(per_block)
        states.append(flavor_state)
    return BlockedAqaeResult(reports, block_reports, states)
