import warnings

import numpy as np
import pytest
from helpers import reference_anneal

import nuanneal.annealer as annealer_mod
from nuanneal.annealer import (
    AnnealSchedule,
    anneal,
    anneal_many,
    default_beta_range,
    exhaustive_minimum,
)
from nuanneal.clock import QuboProblem


def random_qubo(rng, n, scale=1.0):
    coeffs = {(i, j): float(rng.normal() * scale) for i in range(n) for j in range(i, n)}
    return QuboProblem(n, coeffs)


class TestSchedule:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            AnnealSchedule(sweeps=-1, reads=1)
        with pytest.raises(ValueError):
            AnnealSchedule(sweeps=1, reads=0)
        with pytest.raises(ValueError):
            AnnealSchedule(sweeps=1, reads=1, beta_start=2.0, beta_end=1.0)
        with pytest.raises(ValueError):
            AnnealSchedule(sweeps=1, reads=1, beta_start=1.0)
        with pytest.raises(ValueError):
            AnnealSchedule(sweeps=1, reads=1, seed=-3)

    def test_default_beta_range_ordering(self, rng):
        q = random_qubo(rng, 8)
        lo, hi = default_beta_range(q)
        assert 0 < lo <= hi

    def test_default_beta_range_values(self):
        # Hot end: ln 2 over the largest |lin| + sum |quad| row; cold end:
        # ln 1e4 over the smallest nonzero coefficient magnitude.
        q = QuboProblem(3, {(0, 0): -2.0, (0, 1): 0.5, (1, 2): -4.0, (2, 2): 0.0})
        assert default_beta_range(q) == (np.log(2.0) / 4.5, np.log(1e4) / 0.5)
        assert default_beta_range(QuboProblem(2, {(0, 1): 0.0})) == (1.0, 1.0)


class TestAnneal:
    def test_single_negative_variable(self):
        q = QuboProblem(1, {(0, 0): -1.0}, offset=0.25)
        res = anneal(q, AnnealSchedule(sweeps=10, reads=5, seed=1))
        assert res.best_bits.tolist() == [1]
        assert res.best_energy == pytest.approx(-0.75, abs=1e-15)

    def test_deterministic_given_seed(self, rng):
        q = random_qubo(rng, 10)
        s = AnnealSchedule(sweeps=200, reads=20, seed=42)
        a = anneal(q, s)
        b = anneal(q, s)
        assert np.array_equal(a.best_bits, b.best_bits)
        assert a.best_energy == b.best_energy
        assert np.array_equal(a.all_read_energies, b.all_read_energies)

    def test_chunking_does_not_change_results(self, rng, monkeypatch):
        q = random_qubo(rng, 8)
        s = AnnealSchedule(sweeps=100, reads=17, seed=9)
        full = anneal(q, s)
        monkeypatch.setattr(annealer_mod, "_THRESHOLD_BYTES", 8 * 8 * 17 * 3)  # 3 sweeps per chunk
        chunked = anneal(q, s)
        assert np.array_equal(full.best_bits, chunked.best_bits)
        assert np.array_equal(full.all_read_energies, chunked.all_read_energies)

    def test_buffer_size_does_not_change_results_at_criterion_10_size(self, monkeypatch):
        # Criterion 10's second trial: n=16, 2000 sweeps, 200 reads.  Read
        # chunking once moved some per-read energies by an ulp here.
        rng = np.random.default_rng(10)
        for _ in range(2):
            q = random_qubo(rng, 16)
        s = AnnealSchedule(sweeps=2000, reads=200, seed=1)
        full = anneal(q, s)
        monkeypatch.setattr(annealer_mod, "_THRESHOLD_BYTES", 1)  # one sweep per chunk
        chunked = anneal(q, s)
        assert np.array_equal(full.best_bits, chunked.best_bits)
        assert full.best_energy == chunked.best_energy
        assert np.array_equal(full.all_read_energies, chunked.all_read_energies)

    def test_best_energy_reproducible_from_bits(self, rng):
        q = random_qubo(rng, 12)
        res = anneal(q, AnnealSchedule(sweeps=300, reads=10, seed=3))
        assert abs(q.total_energy(res.best_bits) - res.best_energy) < 1e-12
        assert res.best_energy == pytest.approx(float(np.min(res.all_read_energies)), abs=1e-12)

    def test_finds_exhaustive_minimum_on_small_problems(self, rng):
        hits = 0
        for k in range(20):
            q = random_qubo(rng, 12)
            _, expected = exhaustive_minimum(q)
            res = anneal(q, AnnealSchedule(sweeps=1000, reads=100, seed=k))
            assert res.best_energy >= expected - 1e-9
            hits += res.best_energy <= expected + 1e-9
        assert hits >= 19

    def test_never_beats_exhaustive_minimum(self, rng):
        for k in range(10):
            n = int(rng.integers(2, 20))
            q = random_qubo(rng, n)
            _, expected = exhaustive_minimum(q)
            res = anneal(q, AnnealSchedule(sweeps=50, reads=5, seed=k))
            assert res.best_energy >= expected - 1e-9

    def test_median_energy_improves_with_sweep_budget(self, rng):
        # Doubling the sweep budget should not degrade the median best
        # energy; tolerance is 2% of the observed energy spread.
        q = random_qubo(rng, 24)
        medians = []
        for sweeps in (4, 8, 16, 32, 64, 128):
            energies = [
                anneal(q, AnnealSchedule(sweeps=sweeps, reads=2, seed=seed)).best_energy
                for seed in range(20)
            ]
            medians.append(float(np.median(energies)))
        spread = max(medians) - min(medians)
        tol = 0.02 * max(spread, 1e-12)
        for earlier, later in zip(medians, medians[1:]):
            assert later <= earlier + tol

    def test_zero_sweeps_scores_random_bitstrings(self, rng):
        q = random_qubo(rng, 10)
        res = anneal(q, AnnealSchedule(sweeps=0, reads=50, seed=0))
        assert res.all_read_energies.shape == (50,)
        # Must agree with directly evaluating each read's initial bitstring:
        # column r of the (size, reads) bits drawn after the (empty) visit orders.
        stream = np.random.default_rng(0)
        stream.permuted(np.tile(np.arange(10), (0, 1)), axis=1)
        initial = stream.integers(0, 2, (10, 50))
        for r in range(50):
            assert abs(q.total_energy(initial[:, r]) - res.all_read_energies[r]) < 1e-12
        optimized = anneal(q, AnnealSchedule(sweeps=500, reads=50, seed=0))
        assert optimized.best_energy <= res.best_energy

    def test_rejects_empty_problem(self):
        with pytest.raises(ValueError):
            anneal(QuboProblem(0, {}), AnnealSchedule(sweeps=1, reads=1))


def assert_same_result(a, b):
    assert np.array_equal(a.best_bits, b.best_bits)
    assert a.best_bits.dtype == b.best_bits.dtype
    assert a.best_energy == b.best_energy
    assert np.array_equal(a.all_read_energies, b.all_read_energies)


class TestAnnealMany:
    SIZES = (1, 2, 7, 16, 24)

    def _batch(self, rng, sweeps, reads=9):
        problems = [random_qubo(rng, n) for n in self.SIZES]
        schedules = [
            AnnealSchedule(sweeps, reads, seed=11 * k)
            if k % 2
            else AnnealSchedule(sweeps, reads, beta_start=0.05 * (k + 1), beta_end=4.0, seed=11 * k)
            for k in range(len(problems))
        ]
        return problems, schedules

    @pytest.mark.parametrize("sweeps", [0, 1, 2, 40])
    def test_matches_anneal_per_problem(self, rng, sweeps):
        problems, schedules = self._batch(rng, sweeps)
        batched = anneal_many(problems, schedules)
        assert len(batched) == len(problems)
        for q, s, res in zip(problems, schedules, batched):
            assert_same_result(res, anneal(q, s))

    def test_batch_order_does_not_matter(self, rng):
        problems, schedules = self._batch(rng, 30)
        forward = anneal_many(problems, schedules)
        backward = anneal_many(problems[::-1], schedules[::-1])[::-1]
        for a, b in zip(forward, backward):
            assert_same_result(a, b)

    def test_padding_raises_no_warnings(self, rng, monkeypatch):
        # A small buffer refills many times, so stale padded slots would be
        # revisited if the kernel touched them.
        monkeypatch.setattr(annealer_mod, "_THRESHOLD_BYTES", 1)
        problems, schedules = self._batch(rng, 12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            anneal_many(problems, schedules)

    @pytest.mark.parametrize("sweeps", [0, 1, 2, 15])
    def test_matches_scalar_reference(self, sweeps):
        rng = np.random.default_rng(100 + sweeps)
        for trial in range(12):
            problems = [random_qubo(rng, int(rng.integers(1, 7))) for _ in range(int(rng.integers(1, 5)))]
            reads = int(rng.integers(1, 5))
            schedules = [
                AnnealSchedule(sweeps, reads, seed=int(rng.integers(2**32)))
                if (trial + k) % 2
                else AnnealSchedule(sweeps, reads, 0.1 * (k + 1), 3.0, seed=int(rng.integers(2**32)))
                for k in range(len(problems))
            ]
            for q, s, res in zip(problems, schedules, anneal_many(problems, schedules)):
                energies, best_bits = reference_anneal(q, s)
                assert np.array_equal(res.all_read_energies, energies)
                assert np.array_equal(res.best_bits, best_bits)

    def test_rejects_bad_batches(self, rng):
        q = random_qubo(rng, 4)
        with pytest.raises(ValueError, match="at least one problem"):
            anneal_many([], [])
        with pytest.raises(ValueError, match="share sweeps and reads"):
            anneal_many([q, q], [AnnealSchedule(5, 3), AnnealSchedule(6, 3)])
        with pytest.raises(ValueError, match="share sweeps and reads"):
            anneal_many([q, q], [AnnealSchedule(5, 3), AnnealSchedule(5, 4)])
        with pytest.raises(ValueError, match="at least one variable"):
            anneal_many([q, QuboProblem(0, {})], [AnnealSchedule(5, 3)] * 2)
        with pytest.raises(ValueError, match="one schedule per problem"):
            anneal_many([q, q], [AnnealSchedule(5, 3)])


class TestExhaustive:
    def test_matches_manual_enumeration(self):
        q = QuboProblem(2, {(0, 0): 1.0, (1, 1): 1.0, (0, 1): -3.0}, offset=0.0)
        bits, energy = exhaustive_minimum(q)
        assert bits.tolist() == [1, 1]
        assert energy == -1.0

    def test_refuses_oversized_problems(self):
        with pytest.raises(ValueError):
            exhaustive_minimum(QuboProblem(25, {}))
