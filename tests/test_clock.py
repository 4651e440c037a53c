import itertools

import numpy as np
import pytest
from helpers import BAD_QUBO_TEXTS, OVERFLOWING_QUBO_TEXTS, reference_config

from nuanneal.basis import BasisTag
from nuanneal.clock import (
    ClockMatrix,
    DigitizationParams,
    Direction,
    QuboForm,
    QuboProblem,
    apply_bit_updates,
    build_clock,
    build_qubo,
    digit_weights,
    embed_state,
    real_embed,
    unembed_state,
)
from nuanneal.evolution import propagator
from nuanneal.hamiltonians import HamiltonianMatrix, build_dirac_hamiltonian


def random_hermitian(rng, dim):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return m + m.conj().T


class TestBuildClock:
    def test_zero_hamiltonian_ground_state(self):
        psi0 = np.array([1.0, 0.0], dtype=complex)
        clock = build_clock(HamiltonianMatrix(np.zeros((2, 2)), BasisTag.FLAVOR), psi0, dt=1.0, steps=1)
        trajectory = np.concatenate([psi0, psi0]) / np.sqrt(2.0)
        residual = clock.matrix @ trajectory
        assert np.max(np.abs(residual)) < 1e-12
        evals = np.linalg.eigvalsh(clock.matrix)
        assert abs(evals[0]) < 1e-12

    def test_ground_state_matches_exact_trajectory(self):
        cfg = reference_config(2, 3)
        h = build_dirac_hamiltonian(cfg.spec, BasisTag.FLAVOR)
        psi0 = np.zeros(9, dtype=complex)
        psi0[1] = 1.0
        dt = 1e12
        clock = build_clock(h, psi0, dt, steps=1)
        evals, evecs = np.linalg.eigh(clock.matrix)
        ground = evecs[:, 0]
        trajectory = np.concatenate([psi0, propagator(h, dt) @ psi0]) / np.sqrt(2.0)
        assert abs(evals[0]) < 1e-10
        assert abs(np.vdot(trajectory, ground)) >= 1.0 - 1e-10

    def test_multi_step_trajectory_in_kernel(self):
        h = HamiltonianMatrix(np.array([[0.4, 0.3 - 0.2j], [0.3 + 0.2j, -0.1]]), BasisTag.FLAVOR)
        psi0 = np.array([0.6, 0.8], dtype=complex)
        dt = 0.7
        clock = build_clock(h, psi0, dt, steps=3)
        u = propagator(h, dt)
        regs = [psi0]
        for _ in range(3):
            regs.append(u @ regs[-1])
        trajectory = np.concatenate(regs) / 2.0
        assert np.max(np.abs(clock.matrix @ trajectory)) < 1e-12

    def test_hermitian_and_psd_for_random_hamiltonians(self, rng):
        for _ in range(5):
            dim = int(rng.integers(2, 5))
            h = HamiltonianMatrix(random_hermitian(rng, dim), BasisTag.FLAVOR)
            psi0 = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            psi0 /= np.linalg.norm(psi0)
            clock = build_clock(h, psi0, dt=0.3, steps=2)
            m = clock.matrix
            assert np.max(np.abs(m - m.conj().T)) < 1e-12
            assert np.linalg.eigvalsh(m)[0] > -1e-10

    def test_rejects_unnormalized_initial(self):
        with pytest.raises(ValueError):
            build_clock(HamiltonianMatrix(np.zeros((2, 2)), BasisTag.FLAVOR), np.array([1.0, 1.0]), dt=1.0)


class TestClockMatrix:
    def test_rejects_non_hermitian_matrix_at_small_scale(self):
        # A tolerance floored at 1 passed this: the defect is all of max |C|.
        m = 1e-13 * np.array([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="Hermiticity"):
            ClockMatrix(m, n_steps=1, register_dim=1, initial=np.ones(1, dtype=complex))

    def test_psd_floor_is_relative(self):
        # Eigenvalues 1e-13 and -1e-13: the negative one is all of max |C|.
        m = 1e-13 * np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="PSD"):
            ClockMatrix(m, n_steps=1, register_dim=1, initial=np.ones(1, dtype=complex))


class TestRealEmbed:
    def test_real_matrix_embeds_block_diagonally(self):
        c = np.array([[1.0, 2.0], [2.0, -1.0]], dtype=complex)
        emb = real_embed(c)
        np.testing.assert_array_equal(emb[:2, :2], c.real)
        np.testing.assert_array_equal(emb[2:, 2:], c.real)
        np.testing.assert_array_equal(emb[:2, 2:], np.zeros((2, 2)))

    def test_pauli_y_eigenvalues(self):
        c = np.array([[0.0, 1j], [-1j, 0.0]])
        emb = real_embed(c)
        np.testing.assert_allclose(np.linalg.eigvalsh(emb), [-1.0, -1.0, 1.0, 1.0], atol=1e-12)

    def test_spectrum_doubles(self, rng):
        c = random_hermitian(rng, 4)
        emb = real_embed(c)
        expected = np.sort(np.repeat(np.linalg.eigvalsh(c), 2))
        np.testing.assert_allclose(np.linalg.eigvalsh(emb), expected, atol=1e-10)

    def test_quadratic_form_preserved(self, rng):
        c = random_hermitian(rng, 5)
        emb = real_embed(c)
        for _ in range(10):
            v = rng.normal(size=5) + 1j * rng.normal(size=5)
            direct = np.real(np.vdot(v, c @ v))
            embedded = embed_state(v) @ emb @ embed_state(v)
            assert abs(direct - embedded) < 1e-12 * max(1.0, abs(direct))

    def test_embed_round_trip(self, rng):
        v = rng.normal(size=6) + 1j * rng.normal(size=6)
        np.testing.assert_array_equal(unembed_state(embed_state(v)), v)


class TestDigitization:
    # One-slot cases of apply_bit_updates: one amplitude, K bits.
    def test_all_zero_bits_keep_prior(self):
        p = DigitizationParams(k_bits=3, zoom=2)
        assert apply_bit_updates([0.375], [0, 0, 0], p).tolist() == [0.375]

    def test_two_bit_values_at_zoom_zero(self):
        p = DigitizationParams(k_bits=2, zoom=0)
        assert apply_bit_updates([0.0], [1, 0], p).tolist() == [0.5]
        assert apply_bit_updates([0.0], [0, 1], p).tolist() == [-2.0]

    def test_reverse_negates_updates(self):
        p = DigitizationParams(k_bits=2, zoom=0, direction=Direction.REVERSE)
        assert apply_bit_updates([0.0], [0, 1], p).tolist() == [2.0]
        assert apply_bit_updates([0.0], [1, 0], p).tolist() == [-0.5]

    @pytest.mark.parametrize("k", [1, 2, 4])
    def test_zoom_zero_range(self, k):
        p = DigitizationParams(k_bits=k, zoom=0)
        values = [
            apply_bit_updates([0.0], bits, p)[0]
            for bits in itertools.product((0, 1), repeat=k)
        ]
        assert min(values) == -2.0
        assert max(values) == (1.0 - 2.0 ** (1 - k) if k > 1 else 0.0)

    def test_each_zoom_halves_the_update(self):
        for z in range(5):
            w0 = digit_weights(DigitizationParams(k_bits=3, zoom=z))
            w1 = digit_weights(DigitizationParams(k_bits=3, zoom=z + 1))
            np.testing.assert_allclose(w1, w0 / 2.0, rtol=0)
            assert np.max(np.abs(w0)) == 2.0 ** (1 - z)

    def test_vector_updates(self):
        p = DigitizationParams(k_bits=2, zoom=1)
        prior = np.array([0.25, -0.5])
        bits = np.array([1, 0, 0, 1])
        got = apply_bit_updates(prior, bits, p)
        np.testing.assert_allclose(got, [0.25 + 0.25, -0.5 - 1.0], rtol=0)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            DigitizationParams(k_bits=0)
        with pytest.raises(ValueError):
            DigitizationParams(k_bits=1, zoom=-1)
        with pytest.raises(ValueError):
            apply_bit_updates([0.0], [0, 1, 0], DigitizationParams(k_bits=2))


class TestBuildQubo:
    def test_single_slot_single_bit(self):
        c = np.array([[1.5]])
        q = build_qubo(QuboForm(c, 1), DigitizationParams(k_bits=1, zoom=0), np.zeros(1))
        # amplitude -2 q gives energy 4 c q^2 = 4 c q
        assert q.size == 1
        np.testing.assert_array_equal(q.lin, [6.0])
        np.testing.assert_array_equal(q.quad, [[0.0]])
        assert q.offset == 0.0

    def test_zero_matrix_gives_no_coefficients(self):
        q = build_qubo(QuboForm(np.zeros((3, 3)), 2), DigitizationParams(k_bits=2), np.zeros(3))
        assert not q.lin.any() and not q.quad.any()
        assert q.size == 6
        assert q.to_text() == "qubo 6 0.0\n"

    @pytest.mark.parametrize("zoom", [0, 1, 2])
    @pytest.mark.parametrize("direction", [Direction.FORWARD, Direction.REVERSE])
    def test_exhaustive_faithfulness(self, rng, zoom, direction):
        for dim in (1, 2, 3):
            c = rng.normal(size=(dim, dim))
            c = c + c.T
            prior = rng.normal(size=dim)
            p = DigitizationParams(k_bits=2, zoom=zoom, direction=direction)
            q = build_qubo(QuboForm(c, 2), p, prior)
            for bits in itertools.product((0, 1), repeat=q.size):
                bits = np.array(bits, dtype=float)
                a = apply_bit_updates(prior, bits, p)
                assert abs(q.total_energy(bits) - a @ c @ a) < 1e-12

    def test_live_slots_equal_the_full_qubo_with_the_other_bits_fixed_to_0(self, rng):
        c = rng.normal(size=(5, 5))
        prior = rng.normal(size=5)
        params = DigitizationParams(k_bits=2, zoom=1, direction=Direction.REVERSE)
        # Slots 0 and 2 are left out: their bits are 0, 1, 4 and 5.
        reduced, kept = build_qubo(QuboForm(c + c.T, 2), params, prior).fix_variables({0: 0, 1: 0, 4: 0, 5: 0})
        q = build_qubo(QuboForm(c + c.T, 2, live=np.array([1, 3, 4])), params, prior)
        assert kept == [2, 3, 6, 7, 8, 9]
        np.testing.assert_array_equal(q.lin, reduced.lin)
        np.testing.assert_array_equal(q.quad, reduced.quad)
        assert q.offset == reduced.offset

    def test_rejects_params_with_other_bit_count(self):
        with pytest.raises(ValueError, match="2 bits per slot, the form 1"):
            build_qubo(QuboForm(np.eye(2), 1), DigitizationParams(k_bits=2), np.zeros(2))

    def test_rejects_non_square_matrix(self):
        with pytest.raises(ValueError, match="must be square"):
            QuboForm(np.zeros((2, 3)), 1)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            build_qubo(QuboForm(np.zeros((2, 2)), 1), DigitizationParams(k_bits=1), np.zeros(3))

    def test_rejects_asymmetric_matrix(self):
        with pytest.raises(ValueError):
            QuboForm(np.array([[0.0, 1.0], [0.0, 0.0]]), 1)

    def test_rejects_asymmetric_matrix_at_small_scale(self):
        # A tolerance floored at 1 passed this: the defect is all of max |C|.
        c = 1e-13 * np.array([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="Hermiticity"):
            QuboForm(c, 1)


class TestQuboProblem:
    def test_energy_and_offset(self):
        q = QuboProblem(2, {(0, 0): 1.0, (0, 1): -3.0, (1, 1): 2.0}, offset=0.5)
        assert q.energy([1, 1]) == 0.0
        assert q.total_energy([1, 1]) == 0.5
        assert q.total_energy([1, 0]) == 1.5

    def test_text_round_trip(self, rng):
        coeffs = {(0, 0): -1.25, (0, 2): 0.375, (1, 2): rng.normal()}
        q = QuboProblem(3, coeffs, offset=rng.normal())
        back = QuboProblem.from_text(q.to_text())
        assert back.size == q.size
        assert back.offset == q.offset
        np.testing.assert_array_equal(back.lin, q.lin)
        np.testing.assert_array_equal(back.quad, q.quad)

    def test_from_text_rejects_garbage(self):
        with pytest.raises(ValueError):
            QuboProblem.from_text("not a qubo\n")
        with pytest.raises(ValueError, match="no 'qubo <size> <offset>' header"):
            QuboProblem.from_text("# only a comment\n\n")

    @pytest.mark.parametrize(
        "text, line, fragment", [case[1:] for case in BAD_QUBO_TEXTS], ids=[c[0] for c in BAD_QUBO_TEXTS]
    )
    def test_from_text_names_the_bad_line(self, text, line, fragment):
        with pytest.raises(ValueError, match=rf"^line {line}: ") as info:
            QuboProblem.from_text(text)
        assert fragment in str(info.value)

    def test_from_text_skips_comments_and_blank_lines(self):
        q = QuboProblem.from_text("# header comment\n\nqubo 2 0.5\n# note\n0 1 -3.0\n\n1 1 2.0\n")
        np.testing.assert_array_equal(q.lin, [0.0, 2.0])
        np.testing.assert_array_equal(q.quad, [[0.0, -3.0], [-3.0, 0.0]])
        assert q.offset == 0.5

    def test_energy_equals_sequential_coefficient_loop(self, rng):
        # Reference: add coefficient * x_i * x_j left to right over i <= j in
        # row-major order, starting from 0.0; energy() must match bit for bit.
        c = rng.normal(size=(4, 4))
        full = build_qubo(QuboForm(c + c.T, 2), DigitizationParams(k_bits=2, zoom=3), rng.normal(size=4))
        reduced, _ = full.fix_variables({0: 0, 3: 0, 6: 1})
        for q in (full, reduced):
            for _ in range(200):
                bits = rng.integers(0, 2, q.size)
                total = 0.0
                for i in range(q.size):
                    for j in range(i, q.size):
                        total += (q.lin[i] if i == j else q.quad[i, j]) * bits[i] * bits[j]
                assert q.energy(bits) == total

    def test_energy_rejects_non_binary_bits(self):
        with pytest.raises(ValueError):
            QuboProblem(2, {(0, 1): 1.0}).energy([0.5, 1.0])

    def test_fix_variables_energy_consistency(self, rng):
        coeffs = {
            (i, j): float(rng.normal()) for i in range(4) for j in range(i, 4)
        }
        q = QuboProblem(4, coeffs, offset=0.25)
        fixed, kept = q.fix_variables({1: 1, 3: 0})
        assert kept == [0, 2]
        for bits in itertools.product((0, 1), repeat=2):
            full = np.zeros(4)
            full[0], full[2] = bits
            full[1] = 1.0
            assert abs(fixed.total_energy(np.array(bits)) - q.total_energy(full)) < 1e-14

    def test_fix_variables_rejects_bad_values(self):
        q = QuboProblem(2, {(0, 1): 1.0})
        with pytest.raises(ValueError):
            q.fix_variables({0: 2})
        with pytest.raises(ValueError):
            q.fix_variables({5: 0})

    def test_rejects_out_of_range_coefficient(self):
        with pytest.raises(ValueError):
            QuboProblem(2, {(0, 2): 1.0})
        with pytest.raises(ValueError):
            QuboProblem(2, {(1, 0): 1.0})

    def test_rejects_non_finite_coefficient(self):
        with pytest.raises(ValueError, match="not finite"):
            QuboProblem(2, {(0, 1): float("nan")})

    @pytest.mark.parametrize(
        "text", [c[1] for c in OVERFLOWING_QUBO_TEXTS], ids=[c[0] for c in OVERFLOWING_QUBO_TEXTS]
    )
    def test_rejects_magnitudes_that_overflow_a_double(self, text):
        with pytest.raises(ValueError, match="overflows a double"):
            QuboProblem.from_text(text)
