"""Acceptance suite: one test per release criterion.

Each test prints a PASS/FAIL line (visible with ``pytest -s``) and asserts
the criterion at its stated tolerance.  Run with::

    pytest tests/test_acceptance.py -v -s
"""

import time

import numpy as np
from helpers import (
    REFERENCE_N13,
    REFERENCE_N23,
    REFERENCE_N34,
    REFERENCE_S3,
    REFERENCE_TIMES,
    reference_config,
)

from nuanneal.annealer import AnnealSchedule, anneal, exhaustive_minimum
from nuanneal.aqae import AqaeConfig, clock_qubo, initial_estimate, run_aqae, run_aqae_blocked
from nuanneal.basis import BasisTag, mass_blocks
from nuanneal.clock import (
    DigitizationParams,
    Direction,
    QuboProblem,
    build_clock,
    digit_weights,
    real_embed,
)
from nuanneal.evolution import evolve_series
from nuanneal.hamiltonians import HamiltonianMatrix, build_dirac_hamiltonian, restrict_to_block
from nuanneal.witnesses import compute_witnesses, dominant_frequency, entanglement_entropy


def _report(num: int, name: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num:2d} {name}: {status}")
    assert not failures, f"criterion {num} ({name}): " + "; ".join(failures[:10])


def _reference_witness_failures(reports, tol: float) -> list[str]:
    failures = []
    expected = zip(REFERENCE_TIMES, REFERENCE_S3, REFERENCE_N13, REFERENCE_N23, REFERENCE_N34)
    for rep, (t, s3, n13, n23, n34) in zip(reports, expected):
        checks = [
            ("S_3", rep.entropies[2], s3),
            ("N_13", rep.negativities[(0, 2)], n13),
            ("N_23", rep.negativities[(1, 2)], n23),
            ("N_34", rep.negativities[(2, 3)], n34),
        ]
        for label, got, ref in checks:
            if abs(got - ref) > tol:
                failures.append(f"{label}(t={t:.2g}) off by {abs(got - ref):.2e}")
    return failures


def _witness_table(cfg, times):
    states = evolve_series(cfg.spec, cfg.initial, times)
    rows = []
    for state, t in zip(states, times):
        rep = compute_witnesses(state, t)
        rows.append(
            np.concatenate(
                [rep.entropies, [rep.negativities[p] for p in sorted(rep.negativities)]]
            )
        )
    return np.array(rows)


def test_criterion_01_reference_table_exact_path():
    start = time.perf_counter()
    cfg = reference_config(4, 3, initial=("e", "e", "tau", "mu"), times=REFERENCE_TIMES)
    states = evolve_series(cfg.spec, cfg.initial, REFERENCE_TIMES)
    reports = [compute_witnesses(s, t) for s, t in zip(states, REFERENCE_TIMES)]
    elapsed = time.perf_counter() - start
    failures = _reference_witness_failures(reports, tol=1e-5)
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s exceeds 10s")
    _report(1, "exact evolution reproduces the reference witness table", failures)


def test_criterion_02_blocked_aqae_matches_exact():
    start = time.perf_counter()
    cfg = reference_config(4, 3, initial=("e", "e", "tau", "mu"), times=REFERENCE_TIMES)
    acfg = AqaeConfig(k_bits=1, max_zoom=22, reads=48, sweeps=96, seed=20240814)
    result = run_aqae_blocked(cfg.spec, cfg.initial, None, REFERENCE_TIMES, acfg, oracle=True)
    elapsed = time.perf_counter() - start

    failures = []
    for t, per_time in zip(REFERENCE_TIMES, result.block_reports):
        for rep in per_time:
            if rep.skipped:
                continue
            if not rep.overlap > 1.0 - 1e-8:
                failures.append(
                    f"block {rep.occupation} at t={t:.2g}: overlap deficit {1 - rep.overlap:.2e}"
                )
    failures += _reference_witness_failures(result.reports, tol=1e-5)
    if elapsed >= 1800.0:
        failures.append(f"runtime {elapsed:.0f}s exceeds 30 min")
    _report(2, "blocked annealing reproduces exact evolution and witnesses", failures)


def test_criterion_03_zoom_count_small_system():
    cfg = reference_config(2, 3, initial=("e", "mu"))
    h = build_dirac_hamiltonian(cfg.spec, BasisTag.FLAVOR)
    acfg = AqaeConfig(k_bits=1, max_zoom=35, reads=128, sweeps=128, seed=7)
    res = run_aqae(h, cfg.initial.amplitudes, 1e10, acfg, oracle=True)
    reached = None
    for entry in res.diagnostics:
        if entry["direction"] == "reverse" and entry["overlap"] >= 1.0 - 1e-8:
            reached = entry["zoom"] + 1
            break
    failures = []
    if reached is None:
        failures.append("overlap 1-1e-8 never reached within 35 zoom levels")
    elif reached > 35:
        failures.append(f"needed {reached} zoom levels")
    _report(3, "single-bit digitization converges within 35 zoom levels", failures)


def _exhaustive_failures(clock, k_bits, frozen):
    failures = []
    cemb = real_embed(clock)
    prior = initial_estimate(clock)
    n_slots = cemb.shape[0]
    for zoom in (0, 1, 2):
        for direction in (Direction.FORWARD, Direction.REVERSE):
            params = DigitizationParams(k_bits, zoom, direction)
            problem, kept = clock_qubo(clock, cemb, params, prior, freeze=frozen)
            if problem.size > 20:
                raise AssertionError(f"test instance has {problem.size} > 20 variables")
            lin, quad = problem.lin, problem.quad
            w = digit_weights(params)
            worst = 0.0
            # Enumerate in chunks so the 2^20-state instances stay in memory.
            total = 2**problem.size
            for start in range(0, total, 2**16):
                codes = np.arange(start, min(start + 2**16, total))
                states = ((codes[:, None] >> np.arange(problem.size)) & 1).astype(float)
                qubo_energy = (
                    states @ lin
                    + 0.5 * np.einsum("bi,bi->b", states @ quad, states)
                    + problem.offset
                )
                bits_full = np.zeros((states.shape[0], n_slots * k_bits))
                bits_full[:, kept] = states
                amplitudes = prior[None, :] + bits_full.reshape(-1, n_slots, k_bits) @ w
                forms = np.einsum("bi,ij,bj->b", amplitudes, cemb, amplitudes)
                worst = max(worst, float(np.max(np.abs(qubo_energy - forms))))
            if worst > 1e-12:
                failures.append(
                    f"K={k_bits} z={zoom} {direction.value} frozen={frozen}: "
                    f"max deviation {worst:.2e}"
                )
    return failures


def test_criterion_04_qubo_quadratic_form_faithfulness():
    rng = np.random.default_rng(404)
    failures = []
    instances = []

    zero = HamiltonianMatrix(np.zeros((2, 2)), BasisTag.FLAVOR)
    clock0 = build_clock(zero, np.array([1.0, 0.0], dtype=complex), dt=1.0)
    instances.append((clock0, 1))
    instances.append((clock0, 2))

    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    psi = rng.normal(size=2) + 1j * rng.normal(size=2)
    psi /= np.linalg.norm(psi)
    instances.append((build_clock(HamiltonianMatrix(m + m.conj().T, BasisTag.FLAVOR), psi, dt=0.8), 2))

    cfg = reference_config(2, 2, initial=("e", "mu"))
    h_mass = build_dirac_hamiltonian(cfg.spec, BasisTag.MASS)
    block = next(b for b in mass_blocks(2, 2) if b.size == 2)
    sub = restrict_to_block(h_mass, block)
    instances.append((build_clock(sub, np.array([1.0, 0.0], dtype=complex), dt=1e11), 2))

    m3 = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    psi3 = rng.normal(size=3) + 1j * rng.normal(size=3)
    psi3 /= np.linalg.norm(psi3)
    instances.append((build_clock(HamiltonianMatrix(m3 + m3.conj().T, BasisTag.FLAVOR), psi3, dt=0.5), 1))

    two_step = build_clock(HamiltonianMatrix(m + m.conj().T, BasisTag.FLAVOR), psi, dt=0.4, steps=2)
    instances.append((two_step, 1))

    # The largest admissible instance: 20 binary variables unfrozen.
    m5 = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
    psi5 = rng.normal(size=5) + 1j * rng.normal(size=5)
    psi5 /= np.linalg.norm(psi5)
    instances.append((build_clock(HamiltonianMatrix(m5 + m5.conj().T, BasisTag.FLAVOR), psi5, dt=0.3), 1))

    for clock, k_bits in instances:
        for frozen in (False, True):
            live_slots = 2 * clock.dim - (2 * clock.register_dim if frozen else 0)
            if live_slots * k_bits > 20:
                continue
            failures += _exhaustive_failures(clock, k_bits, frozen)
    _report(4, "QUBO energy plus offset equals the clock quadratic form", failures)


def test_criterion_05_one_body_choice_invariance():
    tables = {}
    for choice in ("appendixA", "zero", "third", "pdg_review"):
        cfg = reference_config(
            4, 3, initial=("e", "e", "tau", "mu"), times=REFERENCE_TIMES,
            system_extra={"b_vector_choice": choice},
        )
        tables[choice] = _witness_table(cfg, REFERENCE_TIMES)
    failures = []
    base = tables["appendixA"]
    for choice, table in tables.items():
        dev = float(np.max(np.abs(table - base)))
        if dev > 1e-9:
            failures.append(f"{choice}: max deviation {dev:.2e}")
    _report(5, "witness series invariant under the one-body coefficient choice", failures)


def test_criterion_06_flavor_count_equivalence():
    tables = []
    for nf in (2, 3):
        cfg = reference_config(4, nf, initial=("e", "e", "mu", "mu"), times=REFERENCE_TIMES)
        tables.append(_witness_table(cfg, REFERENCE_TIMES))
    dev = float(np.max(np.abs(tables[0] - tables[1])))
    failures = [] if dev <= 1e-9 else [f"max deviation {dev:.2e}"]
    _report(6, "two- and three-flavor witness series coincide", failures)


def test_criterion_07_block_structure():
    failures = []
    blocks = mass_blocks(3, 4)
    sizes = sorted(b.size for b in blocks)
    if sizes != [1, 1, 1, 4, 4, 4, 4, 4, 4, 6, 6, 6, 12, 12, 12]:
        failures.append(f"census {sizes}")
    cfg = reference_config(4, 3)
    h = build_dirac_hamiltonian(cfg.spec, BasisTag.MASS)
    full = np.sort(np.linalg.eigvalsh(h.matrix))
    pieces = np.sort(
        np.concatenate([np.linalg.eigvalsh(restrict_to_block(h, b).matrix) for b in blocks])
    )
    dev = float(np.max(np.abs(pieces - full)))
    if dev > 1e-9 * max(1.0, float(np.abs(full).max())):
        failures.append(f"direct-sum spectrum deviates by {dev:.2e}")
    _report(7, "mass-basis occupation blocks partition the Hamiltonian", failures)


def _entropy_series(cfg, times):
    states = evolve_series(cfg.spec, cfg.initial, list(times))
    return [(t, entanglement_entropy(s, 0)) for t, s in zip(times, states)]


def test_criterion_08_frequency_ratios():
    failures = []

    # Self-conjugate pair vs mixed particle/antiparticle pair, full dynamics.
    n = 256
    total = 6.2e13
    times = np.arange(n) * (total / n)
    major = reference_config(2, 2, initial=("e", "e"), system_extra={"statistics": "majorana"})
    mixed = reference_config(
        2, 2, initial=("e", "e"), system_extra={"species": ["neutrino", "antineutrino"]}
    )
    f_major = dominant_frequency(_entropy_series(major, times))
    f_mixed = dominant_frequency(_entropy_series(mixed, times))
    bin_width = 1.0 / total
    if abs(f_major - 0.5 * f_mixed) > bin_width:
        failures.append(
            f"self-conjugate/mixed ratio {f_major / f_mixed:.4f} not 0.5 within one bin"
        )

    # Interaction-only mixed pair: three flavors vs two flavors.
    k_pair = mixed.spec.pair_coupling(0, 1)
    total2 = 4.0 * np.pi / (2.0 * k_pair)
    times2 = np.arange(n) * (total2 / n)
    freqs = {}
    for nf in (2, 3):
        cfg = reference_config(
            2, nf, initial=("e", "e"),
            system_extra={"species": ["neutrino", "antineutrino"], "b_vector_choice": "zero"},
        )
        freqs[nf] = dominant_frequency(_entropy_series(cfg, times2))
    if abs(freqs[3] - 0.75 * freqs[2]) > 1.0 / total2:
        failures.append(
            f"interaction-only three/two flavor ratio {freqs[3] / freqs[2]:.4f} not 0.75 within one bin"
        )
    _report(8, "entropy oscillation frequency ratios", failures)


def test_criterion_09_interaction_only_selection_rule():
    failures = []
    times = list(np.linspace(1e11, 2e13, 40))
    cases = [
        (("e", "e"), ["neutrino", "neutrino"], False),
        (("e", "mu"), ["neutrino", "neutrino"], True),
        (("e", "e"), ["neutrino", "antineutrino"], True),
        (("e", "mu"), ["neutrino", "antineutrino"], False),
    ]
    for nf in (2, 3):
        for flavors, species, should_entangle in cases:
            cfg = reference_config(
                2, nf, initial=flavors,
                system_extra={"species": species, "b_vector_choice": "zero"},
            )
            peak = 0.0
            for state, t in zip(evolve_series(cfg.spec, cfg.initial, times), times):
                peak = max(peak, compute_witnesses(state, t).max_witness())
            label = f"nf={nf} {flavors}/{tuple(s[0] for s in species)}"
            if should_entangle and peak <= 1e-6:
                failures.append(f"{label}: expected entanglement, peak {peak:.2e}")
            if not should_entangle and peak >= 1e-10:
                failures.append(f"{label}: expected none, peak {peak:.2e}")
    _report(9, "interaction-only entanglement selection rule", failures)


def test_criterion_10_annealer_finds_global_minima():
    rng = np.random.default_rng(10)
    failures = []
    hits = 0
    for trial in range(100):
        coeffs = {(i, j): float(rng.normal()) for i in range(16) for j in range(i, 16)}
        q = QuboProblem(16, coeffs)
        _, expected = exhaustive_minimum(q)
        res = anneal(q, AnnealSchedule(sweeps=2000, reads=200, seed=trial))
        if res.best_energy < expected - 1e-9:
            failures.append(f"trial {trial}: energy below exhaustive minimum")
        if res.best_energy <= expected + 1e-9:
            hits += 1
    if hits < 99:
        failures.append(f"only {hits}/100 runs found the global minimum")
    _report(10, "thermal annealer matches exhaustive minima", failures)
