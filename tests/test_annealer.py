import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from helpers import reference_anneal

import nuanneal.annealer as annealer_mod
from nuanneal.annealer import AnnealSchedule, anneal, default_beta_range, exhaustive_minimum
from nuanneal.clock import QuboProblem


def random_qubo(rng, n, scale=1.0):
    coeffs = {(i, j): float(rng.normal() * scale) for i in range(n) for j in range(i, n)}
    return QuboProblem(n, coeffs)


def native_kernel():
    """The compiled step loop, asserting that it builds wherever ``cc`` exists."""
    if shutil.which("cc") is None:
        pytest.skip("no C compiler on PATH")
    kernel = annealer_mod._native_kernel()
    assert kernel is not None, "cc is on PATH but the C step loop did not build"
    return kernel


@pytest.fixture(params=["native", "numpy"])
def step_loop(request, monkeypatch):
    """Run a test once with the compiled step loop and once with numpy's."""
    if request.param == "native":
        native_kernel()
    else:
        monkeypatch.setattr(annealer_mod, "_step_kernel", None)
    return request.param


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

    @pytest.mark.parametrize(
        "betas",
        [(1.0, np.inf), (np.inf, np.inf), (np.nan, 1.0), (1.0, np.nan)],
        ids=["end-inf", "both-inf", "start-nan", "end-nan"],
    )
    def test_rejects_non_finite_betas(self, betas):
        # An infinite beta_end once passed and made the whole ramp NaN, so no
        # flip was ever accepted.
        with pytest.raises(ValueError, match="betas must be finite"):
            AnnealSchedule(sweeps=50, reads=4, beta_start=betas[0], beta_end=betas[1])

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

    def test_default_beta_range_matches_upper_triangle_scan(self, rng):
        # The cold end scans lin and the whole symmetric quad; its upper
        # triangle holds the same nonzero magnitudes.
        for n in (1, 2, 5, 16):
            q = random_qubo(rng, n)
            q.quad[rng.random((n, n)) < 0.3] = 0.0
            q.quad = np.triu(q.quad, 1) + np.triu(q.quad, 1).T
            q.lin[rng.random(n) < 0.3] = 0.0
            couplings = np.concatenate([q.lin, q.quad[np.triu_indices(n, 1)]])
            magnitudes = np.abs(couplings[couplings != 0.0])
            _, beta_end = default_beta_range(q)
            assert beta_end == np.log(1e4) / magnitudes.min()


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

    @pytest.mark.usefixtures("step_loop")
    def test_chunking_does_not_change_results(self, rng, monkeypatch):
        q = random_qubo(rng, 8)
        s = AnnealSchedule(sweeps=100, reads=17, seed=9)
        full = anneal(q, s)
        monkeypatch.setattr(annealer_mod, "_THRESHOLD_BYTES", 8 * 8 * 17 * 3)  # 3 sweeps per chunk
        chunked = anneal(q, s)
        assert np.array_equal(full.best_bits, chunked.best_bits)
        assert np.array_equal(full.all_read_energies, chunked.all_read_energies)

    @pytest.mark.usefixtures("step_loop")
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

    def test_tiny_betas_accept_every_flip_without_warnings(self, step_loop):
        # -ln(u) / 1e-320 overflows to +inf, a threshold that accepts the
        # flip just as u = 0 does.
        q = QuboProblem(2, {(0, 1): -1.0})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = anneal(q, AnnealSchedule(51, 4, 1e-320, 1e-320, seed=5))
        # 51 sweeps flip every bit an odd number of times, so each read ends
        # on the complement of its initial bits.
        stream = np.random.default_rng(5)
        stream.permuted(np.tile(np.arange(2), (51, 1)), axis=1)
        initial = stream.integers(0, 2, (2, 4))
        assert res.all_read_energies.tolist() == [q.total_energy(1 - initial[:, r]) for r in range(4)]


def assert_same_result(a, b):
    assert np.array_equal(a.best_bits, b.best_bits)
    assert a.best_bits.dtype == b.best_bits.dtype
    assert a.best_energy == b.best_energy
    assert np.array_equal(a.all_read_energies, b.all_read_energies)


def mixed_corpus(rng, sweeps, reads=9):
    """Problems of sizes 1 to 24, half with explicit and half with default betas."""
    problems = [random_qubo(rng, n) for n in (1, 2, 7, 16, 24)]
    schedules = [
        AnnealSchedule(sweeps, reads, seed=11 * k)
        if k % 2
        else AnnealSchedule(sweeps, reads, beta_start=0.05 * (k + 1), beta_end=4.0, seed=11 * k)
        for k in range(len(problems))
    ]
    return problems, schedules


def both_step_loops(problems, schedules, monkeypatch):
    """Results of the compiled step loop, then of the numpy one."""
    native_kernel()
    native = [anneal(q, s) for q, s in zip(problems, schedules)]
    monkeypatch.setattr(annealer_mod, "_step_kernel", None)
    return native, [anneal(q, s) for q, s in zip(problems, schedules)]


class TestStepLoops:
    @pytest.mark.usefixtures("step_loop")
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
            for q, s in zip(problems, schedules):
                res = anneal(q, s)
                energies, best_bits = reference_anneal(q, s)
                assert np.array_equal(res.all_read_energies, energies)
                assert np.array_equal(res.best_bits, best_bits)

    @pytest.mark.usefixtures("step_loop")
    @pytest.mark.parametrize("sweeps", [0, 1, 2, 40])
    def test_one_sweep_buffer_matches_default_without_warnings(self, rng, sweeps, monkeypatch):
        # Sizes 1 to 24 and both beta sources; a one-sweep buffer refills at
        # every sweep, so each refill must start from fresh thresholds.
        problems, schedules = mixed_corpus(rng, sweeps)
        expected = [anneal(q, s) for q, s in zip(problems, schedules)]
        monkeypatch.setattr(annealer_mod, "_THRESHOLD_BYTES", 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [anneal(q, s) for q, s in zip(problems, schedules)]
        for a, b in zip(got, expected):
            assert_same_result(a, b)

    @pytest.mark.usefixtures("step_loop")
    def test_results_do_not_depend_on_call_order(self, rng):
        # No state carries over from one anneal call to the next.
        problems, schedules = mixed_corpus(rng, 30)
        forward = [anneal(q, s) for q, s in zip(problems, schedules)]
        backward = [anneal(q, s) for q, s in zip(problems[::-1], schedules[::-1])][::-1]
        for a, b in zip(forward, backward):
            assert_same_result(a, b)

    @pytest.mark.parametrize(
        "spoil, message",
        [
            (lambda arrays: {**arrays, "visits": arrays["visits"].astype(np.int32)}, "C-contiguous"),
            (lambda arrays: {**arrays, "quad": np.asfortranarray(arrays["quad"])}, "C-contiguous"),
            (lambda arrays: {**arrays, "lin": arrays["lin"][:-1].copy()}, "disagree in shape"),
        ],
        ids=["int32-visits", "fortran-quad", "short-lin"],
    )
    def test_native_steps_check_arrays_before_the_call(self, rng, spoil, message):
        # The C loop reads raw pointers, so a bad array must stop before it.
        n, reads, sweeps = 4, 3, 2
        quad = rng.normal(size=(n, n))
        arrays = {
            "thresholds": rng.random((sweeps, n, reads)),
            "visits": np.tile(np.arange(n, dtype=np.intp), (sweeps, 1)),
            "lin": rng.normal(size=n),
            "quad": quad + quad.T,
            "spins": np.ones((n, reads)),
            "fields": np.zeros((n, reads)),
        }

        def kernel(*args):
            raise AssertionError("the step loop ran on unchecked arrays")

        with pytest.raises(ValueError, match=message):
            annealer_mod._native_steps(kernel, **spoil(arrays))

    def test_native_matches_numpy_on_reference_block_sizes(self, monkeypatch):
        # The occupation blocks of one reference AQAE sample time: 3 blocks
        # of 12 states, 3 of 6, 6 of 4 and 3 of 1 give these QUBO sizes.
        rng = np.random.default_rng(9)
        sizes = [24] * 3 + [12] * 3 + [8] * 6 + [2] * 3
        problems = [random_qubo(rng, n) for n in sizes]
        schedules = [
            AnnealSchedule(96, 48, seed=k) if k % 3 else AnnealSchedule(96, 48, 0.2, 6.0, seed=k)
            for k in range(len(problems))
        ]
        for a, b in zip(*both_step_loops(problems, schedules, monkeypatch)):
            assert_same_result(a, b)

    def test_native_matches_numpy_on_criterion_10_problems(self, monkeypatch):
        # The first three criterion-10 trials: n=16, 2000 sweeps, 200 reads.
        rng = np.random.default_rng(10)
        for trial in range(3):
            q = random_qubo(rng, 16)
            s = AnnealSchedule(sweeps=2000, reads=200, seed=trial)
            [native], [reference] = both_step_loops([q], [s], monkeypatch)
            monkeypatch.undo()
            assert_same_result(native, reference)

    def test_native_matches_numpy_on_n6_block_sizes(self, monkeypatch):
        # The largest QUBOs of one N=6 blocked sample time have 180 and 96
        # live bits; AQAE anneals them with 48 reads and 96 sweeps.
        rng = np.random.default_rng(6)
        problems = [random_qubo(rng, n) for n in (180, 96)]
        schedules = [AnnealSchedule(96, 48, seed=1), AnnealSchedule(96, 48, 0.2, 6.0, seed=2)]
        for a, b in zip(*both_step_loops(problems, schedules, monkeypatch)):
            assert_same_result(a, b)

    @pytest.mark.parametrize(
        "betas", [None, (1e-300, 1e-300), (1e300, 1e300)], ids=["default", "tiny", "huge"]
    )
    def test_native_matches_numpy_where_fields_are_exactly_zero(self, monkeypatch, betas):
        # The C loop leaves the fields of reads that do not flip untouched,
        # where numpy adds quad * 0 to them.  Integer couplings and some zero
        # lin[v] make fields, and so energy changes, exactly zero.
        rng = np.random.default_rng(12)
        problems = []
        for n in (3, 9, 20):
            coeffs = {(i, j): float(rng.integers(-3, 4)) for i in range(n) for j in range(i, n)}
            coeffs.update({(i, i): 0.0 for i in range(0, n, 3)})
            problems.append(QuboProblem(n, coeffs))
        schedules = [AnnealSchedule(40, 33, *(betas or (None, None)), seed=k) for k in range(len(problems))]

        # Run the numpy loop one visit at a time and record, before each
        # visit, every read's field, energy change and whether it flips.
        visits_seen = []
        numpy_steps = annealer_mod._numpy_steps

        def census_steps(thresholds, visits, lin, quad, spins, fields):
            for s, t in np.ndindex(visits.shape):
                v = visits[s, t]
                delta_e = (fields[v] + lin[v]) * spins[v]
                visits_seen.append((fields[v] == 0.0, delta_e, delta_e < thresholds[s, t]))
                one = np.s_[s : s + 1, t : t + 1]
                numpy_steps(thresholds[one], visits[one], lin, quad, spins, fields)

        monkeypatch.setattr(annealer_mod, "_numpy_steps", census_steps)
        for a, b in zip(*both_step_loops(problems, schedules, monkeypatch)):
            assert_same_result(a, b)
        zero_field, delta_e, accept = (np.concatenate(column) for column in zip(*visits_seen))
        assert np.count_nonzero(zero_field & (delta_e == 0.0)) > 0  # a zero field where lin[v] is 0
        if betas == (1e-300, 1e-300):
            assert accept.all()  # every read flips: the index buffer is full
        elif betas == (1e300, 1e300):
            assert not accept[delta_e > 0.0].any()  # only downhill and level flips
            assert accept[delta_e < 0.0].all()
            assert not accept.all()

    def test_no_compiler_falls_back_to_numpy_silently(self, rng, monkeypatch):
        problems, schedules = mixed_corpus(rng, 20)
        expected = [anneal(q, s) for q, s in zip(problems, schedules)]
        monkeypatch.setattr(annealer_mod, "_step_kernel", annealer_mod._UNBUILT)
        monkeypatch.setattr(annealer_mod.shutil, "which", lambda name: None)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [anneal(q, s) for q, s in zip(problems, schedules)]
        assert annealer_mod._step_kernel is None
        for a, b in zip(got, expected):
            assert_same_result(a, b)

    def test_failed_build_falls_back_to_numpy_silently(self, rng, monkeypatch):
        # A "compiler" that exits 1 without writing the library.
        failing = shutil.which("false")
        if failing is None:
            pytest.skip("no false(1) on PATH")
        problems, schedules = mixed_corpus(rng, 5)
        expected = [anneal(q, s) for q, s in zip(problems, schedules)]
        monkeypatch.setattr(annealer_mod, "_step_kernel", annealer_mod._UNBUILT)
        monkeypatch.setattr(annealer_mod.shutil, "which", lambda name: failing)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = [anneal(q, s) for q, s in zip(problems, schedules)]
        assert annealer_mod._step_kernel is None
        for a, b in zip(got, expected):
            assert_same_result(a, b)

    def test_native_kernel_loads_where_a_compiler_exists(self):
        kernel = native_kernel()
        assert annealer_mod._native_kernel() is kernel  # built once per process

    def test_import_builds_no_kernel(self):
        # A build at import would add the compiler run to every process
        # start, annealing or not.
        probe = (
            "import os, nuanneal, nuanneal.annealer as a\n"
            "maps = '/proc/self/maps'\n"
            "loaded = os.path.exists(maps) and '_anneal_step' in open(maps).read()\n"
            "print(a._step_kernel is a._UNBUILT, loaded)\n"
        )
        src = str(Path(annealer_mod.__file__).parents[1])
        out = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert out.stdout.split() == ["True", "False"]


class TestExhaustive:
    def test_matches_manual_enumeration(self):
        q = QuboProblem(2, {(0, 0): 1.0, (1, 1): 1.0, (0, 1): -3.0}, offset=0.0)
        bits, energy = exhaustive_minimum(q)
        assert bits.tolist() == [1, 1]
        assert energy == -1.0

    def test_refuses_oversized_problems(self):
        with pytest.raises(ValueError):
            exhaustive_minimum(QuboProblem(25, {}))
