import numpy as np
import pytest
from helpers import (
    REFERENCE_N13,
    REFERENCE_N23,
    REFERENCE_S3,
    REFERENCE_TIMES,
    dominant_frequency,
    entropy_oracle,
    exchange_witness_oracle,
    kron_chain,
    max_witness,
    negativity_oracle,
    rdm_oracle,
    reference_config,
)
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nuanneal.basis import BasisTag, StateVector, flavor_state
from nuanneal.evolution import evolve_series
from nuanneal.witnesses import (
    compute_witnesses,
    entanglement_entropy,
    negativity,
    reduced_density,
)


def random_state(rng, nf, n_modes):
    amp = rng.normal(size=nf**n_modes) + 1j * rng.normal(size=nf**n_modes)
    amp /= np.linalg.norm(amp)
    return StateVector(amp, BasisTag.FLAVOR, nf, n_modes)


def bell_pair():
    amp = np.zeros(4, dtype=complex)
    amp[0] = amp[3] = 1.0 / np.sqrt(2.0)
    return StateVector(amp, BasisTag.FLAVOR, 2, 2)


class TestReducedDensity:
    def test_product_state_is_pure_projector(self):
        state = flavor_state(("e", "mu"), 3)
        rho = reduced_density(state, (0,))
        expected = np.zeros((3, 3))
        expected[0, 0] = 1.0
        np.testing.assert_array_equal(rho, expected)

    def test_bell_pair_is_maximally_mixed(self):
        rho = reduced_density(bell_pair(), (0,))
        np.testing.assert_allclose(rho, np.eye(2) / 2.0, atol=1e-15)

    def test_matches_index_sum_oracle(self, rng):
        for _ in range(5):
            state = random_state(rng, 3, 3)
            for mode in range(3):
                got = reduced_density(state, (mode,))
                expected = rdm_oracle(state.amplitudes, (mode,), 3, 3)
                np.testing.assert_allclose(got, expected, atol=1e-13)
                assert abs(np.trace(got) - 1.0) < 1e-12
                assert np.min(np.linalg.eigvalsh(got)) > -1e-12

    def test_rejects_bad_mode(self):
        with pytest.raises(ValueError):
            reduced_density(bell_pair(), (2,))


class TestEntanglementEntropy:
    def test_product_state_has_zero_entropy(self):
        state = flavor_state(("e", "e", "tau"), 3)
        for mode in range(3):
            assert entanglement_entropy(state, mode) == 0.0

    def test_bell_pair_has_unit_entropy(self):
        assert entanglement_entropy(bell_pair(), 0) == pytest.approx(1.0, abs=1e-12)

    def test_reference_four_mode_value(self):
        cfg = reference_config(4, 3, initial=("e", "e", "tau", "mu"))
        state = evolve_series(cfg.spec, cfg.initial, [1.1e12])[0]
        assert entanglement_entropy(state, 2) == pytest.approx(0.222927229, abs=2e-6)

    def test_mode_entropy_equals_complement_entropy(self, rng):
        for _ in range(5):
            state = random_state(rng, 3, 3)
            for mode in range(3):
                complement = tuple(m for m in range(3) if m != mode)
                rho_c = rdm_oracle(state.amplitudes, complement, 3, 3)
                assert abs(entanglement_entropy(state, mode) - entropy_oracle(rho_c)) < 1e-10

    def test_bounded_by_log2_nf(self, rng):
        for _ in range(10):
            state = random_state(rng, 3, 2)
            s = entanglement_entropy(state, 0)
            assert 0.0 <= s <= np.log2(3.0)


class TestNegativity:
    def test_product_state_zero(self):
        state = flavor_state(("e", "mu", "tau"), 3)
        assert negativity(state, 0, 2) == pytest.approx(0.0, abs=1e-12)

    def test_bell_pair_unit(self):
        assert negativity(bell_pair(), 0, 1) == pytest.approx(1.0, abs=1e-12)

    def test_reference_four_mode_values(self):
        cfg = reference_config(4, 3, initial=("e", "e", "tau", "mu"))
        state = evolve_series(cfg.spec, cfg.initial, [1.1e12])[0]
        assert negativity(state, 0, 2) == pytest.approx(0.3720986223, abs=2e-6)
        assert negativity(state, 1, 2) == pytest.approx(0.0842779937, abs=2e-6)

    def test_symmetric_in_pair_order(self, rng):
        for _ in range(5):
            state = random_state(rng, 3, 3)
            for i in range(3):
                for j in range(i + 1, 3):
                    assert abs(negativity(state, i, j) - negativity(state, j, i)) < 1e-12

    def test_matches_index_sum_oracle(self, rng):
        for _ in range(5):
            state = random_state(rng, 2, 4)
            got = negativity(state, 1, 3)
            expected = negativity_oracle(state.amplitudes, 1, 3, 2, 4)
            assert abs(got - expected) < 1e-11

    def test_rejects_equal_modes(self):
        with pytest.raises(ValueError):
            negativity(bell_pair(), 1, 1)


class TestGlobalPhaseInvariance:
    def test_witnesses_ignore_global_phase(self, rng):
        state = random_state(rng, 3, 2)
        for _ in range(5):
            phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
            rotated = state.with_amplitudes(phase * state.amplitudes)
            assert entanglement_entropy(rotated, 0) == pytest.approx(
                entanglement_entropy(state, 0), abs=1e-13
            )
            assert negativity(rotated, 0, 1) == pytest.approx(
                negativity(state, 0, 1), abs=1e-13
            )


entries = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)


@given(data=st.data(), nf=st.sampled_from([2, 3]), n_modes=st.integers(2, 4))
def test_witnesses_unchanged_by_independent_local_unitaries(data, nf, n_modes):
    amp = data.draw(arrays(complex, nf**n_modes, elements=entries).filter(lambda v: np.linalg.norm(v) > 0.1))
    state = StateVector(amp / np.linalg.norm(amp), BasisTag.FLAVOR, nf, n_modes)
    # The Q factor of any square matrix is unitary; each mode gets its own.
    unitaries = [
        np.linalg.qr(data.draw(arrays(complex, (nf, nf), elements=entries)))[0] for _ in range(n_modes)
    ]
    moved = state.with_amplitudes(kron_chain(unitaries) @ state.amplitudes)
    before, after = compute_witnesses(state), compute_witnesses(moved)
    np.testing.assert_allclose(after.entropies, before.entropies, rtol=0, atol=1e-10)
    for pair, value in before.negativities.items():
        assert abs(after.negativities[pair] - value) <= 1e-10


@given(data=st.data(), nf=st.sampled_from([2, 3]), n_modes=st.integers(2, 4), phase=st.floats(0.0, 2 * np.pi))
def test_witnesses_unchanged_by_a_global_phase(data, nf, n_modes, phase):
    amp = data.draw(arrays(complex, nf**n_modes, elements=entries).filter(lambda v: np.linalg.norm(v) > 0.1))
    state = StateVector(amp / np.linalg.norm(amp), BasisTag.FLAVOR, nf, n_modes)
    before = compute_witnesses(state)
    after = compute_witnesses(state.with_amplitudes(np.exp(1j * phase) * state.amplitudes))
    np.testing.assert_allclose(after.entropies, before.entropies, rtol=0, atol=1e-12)
    for pair, value in before.negativities.items():
        assert abs(after.negativities[pair] - value) <= 1e-12


class TestReferenceTable:
    def test_exact_series_reproduces_reference_table(self):
        cfg = reference_config(4, 3, initial=("e", "e", "tau", "mu"), times=REFERENCE_TIMES)
        states = evolve_series(cfg.spec, cfg.initial, REFERENCE_TIMES)
        for state, t, s3, n13, n23 in zip(
            states, REFERENCE_TIMES, REFERENCE_S3, REFERENCE_N13, REFERENCE_N23
        ):
            rep = compute_witnesses(state, t)
            assert rep.entropies[2] == pytest.approx(s3, abs=1e-5)
            assert rep.negativities[(0, 2)] == pytest.approx(n13, abs=1e-5)
            assert rep.negativities[(1, 2)] == pytest.approx(n23, abs=1e-5)

    def test_exact_series_matches_exchange_oracle(self):
        # The frozen table must agree with the independent exchange-operator
        # model, which never touches the generator algebra.
        cfg = reference_config(4, 3, initial=("e", "e", "tau", "mu"))
        for t, s3_ref in zip(REFERENCE_TIMES[::4], REFERENCE_S3[::4]):
            psi = exchange_witness_oracle((0, 0, 2, 1), 3, _couplings(cfg.spec), t)
            rho = rdm_oracle(psi, (2,), 3, 4)
            assert entropy_oracle(rho) == pytest.approx(s3_ref, abs=1e-5)


def _couplings(spec):
    n = spec.n_modes
    out = np.zeros((n, n))
    for p in range(n):
        for q in range(n):
            if p != q:
                out[p, q] = spec.pair_coupling(min(p, q), max(p, q))
    return out


class TestFlavorCountEquivalence:
    def test_two_and_three_flavor_witnesses_coincide(self):
        times = [1.1e12, 2.2e12, 5.5e12, 9.9e12]
        tables = []
        for nf in (2, 3):
            cfg = reference_config(4, nf, initial=("e", "e", "mu", "mu"), times=times)
            rows = []
            for state, t in zip(evolve_series(cfg.spec, cfg.initial, times), times):
                rep = compute_witnesses(state, t)
                rows.append(
                    np.concatenate(
                        [rep.entropies, [rep.negativities[p] for p in sorted(rep.negativities)]]
                    )
                )
            tables.append(np.array(rows))
        np.testing.assert_allclose(tables[0], tables[1], atol=1e-9)


class TestInteractionOnlySelectionRule:
    @pytest.mark.parametrize("nf", [2, 3])
    def test_only_two_initial_states_entangle(self, nf):
        times = list(np.linspace(1e11, 2e13, 40))
        cases = [
            (("e", "e"), ["neutrino", "neutrino"], False),
            (("e", "mu"), ["neutrino", "neutrino"], True),
            (("e", "e"), ["neutrino", "antineutrino"], True),
            (("e", "mu"), ["neutrino", "antineutrino"], False),
        ]
        for flavors, species, entangles in cases:
            cfg = reference_config(
                2,
                nf,
                initial=flavors,
                system_extra={"species": species, "b_vector_choice": "zero"},
            )
            peak = 0.0
            for state, t in zip(evolve_series(cfg.spec, cfg.initial, times), times):
                peak = max(peak, max_witness(compute_witnesses(state, t)))
            if entangles:
                assert peak > 1e-6, (flavors, species)
            else:
                assert peak < 1e-10, (flavors, species)


class TestDominantFrequency:
    def test_pure_sine_recovered_within_one_bin(self):
        n, total = 128, 16.0
        dt = total / n
        freq = 4.0 / total  # integer number of periods on the grid
        times = np.arange(n) * dt
        series = list(zip(times, np.sin(2 * np.pi * freq * times)))
        got = dominant_frequency(series)
        assert abs(got - freq) <= 1.0 / total

    def test_constant_series_reports_zero(self):
        times = np.arange(32) * 0.5
        series = list(zip(times, np.full(32, 3.7)))
        assert dominant_frequency(series) == 0.0

    def test_rejects_non_uniform_spacing(self):
        times = np.concatenate([np.arange(16) * 1.0, [17.5]])
        series = list(zip(times, np.sin(times)))
        with pytest.raises(ValueError):
            dominant_frequency(series)

    def test_rejects_short_series(self):
        series = [(float(i), 0.0) for i in range(8)]
        with pytest.raises(ValueError):
            dominant_frequency(series)

    def test_self_conjugate_to_mixed_pair_frequency_ratio(self):
        # The periodic self-conjugate entropy series oscillates at half the
        # frequency of the mixed-pair series with the same flavor content.
        n = 256
        total = 6.2e13
        times = list(np.arange(n) * (total / n))
        major = reference_config(
            2, 2, initial=("e", "e"), system_extra={"statistics": "majorana"}
        )
        mixed = reference_config(
            2, 2, initial=("e", "e"), system_extra={"species": ["neutrino", "antineutrino"]}
        )
        freqs = []
        for cfg in (major, mixed):
            states = evolve_series(cfg.spec, cfg.initial, times)
            series = [
                (t, entanglement_entropy(s, 0)) for t, s in zip(times, states)
            ]
            freqs.append(dominant_frequency(series))
        bin_width = 1.0 / total
        assert abs(freqs[0] - 0.5 * freqs[1]) <= bin_width
