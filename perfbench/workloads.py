"""The benchmark's workloads.

Each workload builds its inputs from the workload seed, runs one operation
per call of ``op`` and checks that operation's outputs in ``check``, which
the driver calls after the timed region.  ``quick`` selects the reduced
sizes the self-test uses.  Every call into nuanneal goes through a module or
class attribute, so the tracer's wrappers see it.
"""

from __future__ import annotations

import math
import time
from dataclasses import replace

import numpy as np

# Sample times of the reference witness table, in 1/eV.
REFERENCE_TIMES = [1.1e12 * (i + 1) for i in range(9)]

OVERLAP_FLOOR = 1.0 - 1e-8
WITNESS_TOL = 1e-5
ENERGY_TOL = 1e-9
FIDELITY_TOL = 1e-9
CONSERVATION_TOL = 1e-9


def derive_seed(seed: int, *path: int) -> int:
    """Stable 31-bit seed for one input stream of one workload seed."""
    return int(np.random.SeedSequence([seed, *path]).generate_state(1, dtype=np.uint64)[0] >> 33)


def _witness_vector(report) -> np.ndarray:
    pairs = sorted(report.negativities)
    return np.concatenate([report.entropies, [report.negativities[p] for p in pairs]])


class AqaeBlocked:
    """``run_aqae_blocked`` on the reference system, one witness row per op."""

    name = "aqae_blocked"
    op_label = "witness row (one sample time through every occupation block)"

    def __init__(self, nu, seed: int, quick: bool):
        self.nu, self.seed = nu, seed
        n_modes, labels = (2, ["e", "mu"]) if quick else (4, ["e", "e", "tau", "mu"])
        self.cfg = nu.config.resolve_config(
            {
                "system": {"n_modes": n_modes, "nf": 3, "xi": 0.9},
                "initial_state": labels,
                "times": REFERENCE_TIMES,
                "aqae": {"k_bits": 1, "max_zoom": 22, "reads": 48, "sweeps": 96},
            }
        )

    def op(self, k: int):
        t = self.cfg.times[k % len(self.cfg.times)]
        acfg = replace(self.cfg.aqae, seed=derive_seed(self.seed, 1, k))
        result = self.nu.aqae.run_aqae_blocked(
            self.cfg.spec, self.cfg.initial, self.cfg.aqae_dt, [t], acfg, oracle=True
        )
        return result, {}

    def same(self, a, b) -> bool:
        return np.array_equal(_witness_vector(a.reports[0]), _witness_vector(b.reports[0]))

    def check(self, k: int, result) -> list[str]:
        failures = []
        t = self.cfg.times[k % len(self.cfg.times)]
        for rep in result.block_reports[0]:
            if not rep.skipped and not rep.overlap > OVERLAP_FLOOR:
                failures.append(
                    f"block {rep.occupation} at t={t:.2g}: overlap deficit {1 - rep.overlap:.2e}"
                )
        exact = self.nu.evolution.evolve_series(self.cfg.spec, self.cfg.initial, [t])[0]
        want = _witness_vector(self.nu.witnesses.compute_witnesses(exact, t))
        dev = float(np.max(np.abs(_witness_vector(result.reports[0]) - want)))
        if dev > WITNESS_TOL:
            failures.append(f"witness row at t={t:.2g} off exact evolution by {dev:.2e}")
        return failures


class AnnealDense16:
    """Dense random QUBOs through the text format and the annealer."""

    name = "anneal_dense16"
    op_label = "QuboProblem.from_text plus anneal on one problem"
    corpus_size = 256

    def __init__(self, nu, seed: int, quick: bool):
        self.nu, self.seed = nu, seed
        n, self.sweeps, self.reads = (8, 200, 20) if quick else (16, 2000, 200)
        rng = np.random.default_rng(derive_seed(seed, 0))
        qubo = nu.clock.QuboProblem
        self.problems = [
            qubo(n, {(i, j): float(rng.normal()) for i in range(n) for j in range(i, n)})
            for _ in range(self.corpus_size)
        ]
        self.texts = [q.to_text() for q in self.problems]
        # Shared by the check: exhaustive minima are computed once per problem.
        self._minima: dict[int, float] = {}

    def op(self, k: int):
        q = self.nu.clock.QuboProblem.from_text(self.texts[k % self.corpus_size])
        schedule = self.nu.annealer.AnnealSchedule(
            sweeps=self.sweeps, reads=self.reads, seed=derive_seed(self.seed, 1, k)
        )
        return self.nu.annealer.anneal(q, schedule), {}

    def same(self, a, b) -> bool:
        return a.best_energy == b.best_energy and np.array_equal(a.best_bits, b.best_bits)

    def expected_minimum(self, k: int) -> float:
        i = k % self.corpus_size
        if i not in self._minima:
            self._minima[i] = self.nu.annealer.exhaustive_minimum(self.problems[i])[1]
        return self._minima[i]

    def check(self, k: int, result) -> list[str]:
        # Compared against the problem as generated, before the text round
        # trip, so a lossy to_text/from_text shows here too.
        expected = self.expected_minimum(k)
        gap = result.best_energy - expected
        if gap < -ENERGY_TOL:
            return [f"problem {k}: best energy {gap:.3e} below the exhaustive minimum"]
        if gap > ENERGY_TOL:
            return [f"problem {k}: best energy {gap:.3e} above the exhaustive minimum"]
        return []


class ExactN6:
    """Exact witness series at N=6, nf=3: an all-neutrino Dirac system and a
    mixed neutrino/antineutrino system, one series of each per op."""

    name = "exact_n6"
    op_label = "one Dirac plus one mixed witness series over the nine reference times"
    label_sets = 64

    def __init__(self, nu, seed: int, quick: bool):
        self.nu = nu
        n_modes = 3 if quick else 6
        system = {"n_modes": n_modes, "nf": 3, "xi": 0.9}
        species = ["neutrino", "antineutrino"] * (n_modes // 2) + ["neutrino"] * (n_modes % 2)
        self.dirac = nu.config.resolve_config({"system": system, "times": REFERENCE_TIMES})
        self.mixed = nu.config.resolve_config(
            {"system": {**system, "species": species}, "times": REFERENCE_TIMES}
        )
        rng = np.random.default_rng(derive_seed(seed, 0))
        self.labels = [
            [str(x) for x in rng.choice(["e", "mu", "tau"], n_modes)]
            for _ in range(self.label_sets)
        ]
        self._gate = None

    def initial(self, k: int):
        return self.nu.basis.flavor_state(self.labels[k % self.label_sets], 3)

    def _series(self, cfg, initial):
        evo, wit = self.nu.evolution, self.nu.witnesses
        states = evo.evolve_series(cfg.spec, initial, cfg.times)
        return states, [wit.compute_witnesses(s, t) for s, t in zip(states, cfg.times)]

    def op(self, k: int):
        initial = self.initial(k)
        t0 = time.perf_counter()
        dirac = self._series(self.dirac, initial)
        t1 = time.perf_counter()
        mixed = self._series(self.mixed, initial)
        t2 = time.perf_counter()
        return (dirac, mixed), {"dirac_s": t1 - t0, "mixed_s": t2 - t1}

    def same(self, a, b) -> bool:
        return all(
            np.array_equal(_witness_vector(x), _witness_vector(y))
            for sa, sb in zip(a, b)
            for x, y in zip(sa[1], sb[1])
        )

    def _gate_operators(self):
        """Mass-basis evolver for the Dirac check; mixed H and its norm."""
        if self._gate is None:
            nu = self.nu
            h_mass = nu.hamiltonians.build_hamiltonian(self.dirac.spec, nu.basis.BasisTag.MASS)
            h_mixed = nu.hamiltonians.build_hamiltonian(self.mixed.spec).matrix
            norm = float(np.max(np.abs(np.linalg.eigvalsh(h_mixed))))
            self._gate = (nu.evolution.Evolver(h_mass), h_mixed, norm)
        return self._gate

    def check(self, k: int, result) -> list[str]:
        nu = self.nu
        tag = nu.basis.BasisTag
        evolver, h_mixed, h_norm = self._gate_operators()
        (dirac_states, _), (mixed_states, mixed_reports) = result
        failures = []

        initial = self.initial(k)
        pmns = self.dirac.spec.pmns
        psi_mass = nu.basis.change_basis(initial, tag.MASS, pmns)
        for t, state in zip(self.dirac.times, dirac_states):
            amp = evolver.evolve(psi_mass.amplitudes, t)
            back = nu.basis.change_basis(psi_mass.with_amplitudes(amp / np.linalg.norm(amp)), tag.FLAVOR, pmns)
            deficit = 1.0 - abs(np.vdot(back.amplitudes, state.amplitudes))
            if deficit > FIDELITY_TOL:
                failures.append(f"Dirac t={t:.2g}: flavor and mass-basis series differ by {deficit:.2e}")

        def energy(amplitudes):
            return float(np.vdot(amplitudes, h_mixed @ amplitudes).real)

        e0 = energy(initial.amplitudes)
        entropy_cap = math.log2(3)
        for t, state, rep in zip(self.mixed.times, mixed_states, mixed_reports):
            drift = abs(energy(state.amplitudes) - e0)
            if drift > CONSERVATION_TOL * h_norm:
                failures.append(f"mixed t={t:.2g}: <H> drifted by {drift / h_norm:.2e} of ||H||")
            lo, hi = float(rep.entropies.min()), float(rep.entropies.max())
            if lo < -CONSERVATION_TOL or hi > entropy_cap + CONSERVATION_TOL:
                failures.append(f"mixed t={t:.2g}: entropy outside [0, log2 3]: [{lo}, {hi}]")
        return failures


WORKLOADS = {w.name: w for w in (AqaeBlocked, AnnealDense16, ExactN6)}
