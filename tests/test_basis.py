import numpy as np
import pytest
from helpers import index_to_labels, reference_config
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nuanneal.basis import (
    BasisTag,
    PmnsParams,
    StateVector,
    change_basis,
    flavor_state,
    labels_to_index,
    mass_blocks,
    pmns_matrix,
    product_state,
)

REF = PmnsParams(theta12=0.591667, theta13=0.148702, theta23=0.840027, delta_cp=4.36681)

# |U_ij|^2 at the reference parameters, evaluated factor-by-factor with
# 40-digit mpmath arithmetic and frozen here.
REF_PMNS_ABS2 = np.array(
    [
        [0.67379839485836739, 0.30425182494800393, 0.021949780193628674],
        [0.12387069637833414, 0.33378068525145111, 0.54234861837021476],
        [0.20233090876329847, 0.36196748980054496, 0.43570160143615657],
    ]
)


class TestPmnsMatrix:
    def test_zero_angles_identity(self):
        u = pmns_matrix(PmnsParams(0.0, 0.0, 0.0, 0.0), 3)
        np.testing.assert_allclose(u, np.eye(3), atol=1e-15)

    @pytest.mark.parametrize("nf", [2, 3])
    def test_reference_params_unitary(self, nf):
        u = pmns_matrix(REF, nf)
        np.testing.assert_allclose(u.conj().T @ u, np.eye(nf), atol=1e-14)

    def test_reference_moduli_match_high_precision_evaluation(self):
        u = pmns_matrix(REF, 3)
        np.testing.assert_allclose(np.abs(u) ** 2, REF_PMNS_ABS2, atol=5e-16)

    def test_frozen_moduli_regenerate_from_mpmath_oracle(self):
        # Factor-by-factor evaluation at 40 digits, independent of numpy.
        import mpmath as mp

        mp.mp.dps = 40
        t12, t13, t23, d = map(mp.mpf, ("0.591667", "0.148702", "0.840027", "4.36681"))
        c12, s12 = mp.cos(t12), mp.sin(t12)
        c13, s13 = mp.cos(t13), mp.sin(t13)
        c23, s23 = mp.cos(t23), mp.sin(t23)
        phase = mp.e ** (1j * d)
        m23 = mp.matrix([[1, 0, 0], [0, c23, s23], [0, -s23, c23]])
        m13 = mp.matrix([[c13, 0, s13 / phase], [0, 1, 0], [-s13 * phase, 0, c13]])
        m12 = mp.matrix([[c12, s12, 0], [-s12, c12, 0], [0, 0, 1]])
        u = m23 * m13 * m12
        for i in range(3):
            for j in range(3):
                assert abs(float(abs(u[i, j]) ** 2) - REF_PMNS_ABS2[i, j]) < 1e-16

    def test_unitary_for_random_parameters(self, rng):
        for _ in range(50):
            params = PmnsParams(*rng.uniform(-np.pi, np.pi, size=4))
            for nf in (2, 3):
                u = pmns_matrix(params, nf)
                assert np.max(np.abs(u.conj().T @ u - np.eye(nf))) < 1e-14

    def test_two_flavor_rotation(self):
        u = pmns_matrix(PmnsParams(theta12=0.3), 2)
        c, s = np.cos(0.3), np.sin(0.3)
        np.testing.assert_allclose(u, [[c, s], [-s, c]], atol=1e-15)

    @pytest.mark.parametrize("nf", [1, 4])
    def test_rejects_unsupported_flavor_count(self, nf):
        with pytest.raises(ValueError):
            pmns_matrix(REF, nf)


class TestStateVector:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            StateVector(np.array([1.0, 1.0]), BasisTag.FLAVOR, 2, 1)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            StateVector(np.array([1.0, 0.0]), BasisTag.FLAVOR, 3, 1)

    def test_index_round_trip(self, rng):
        for _ in range(20):
            nf = int(rng.integers(2, 4))
            n = int(rng.integers(1, 5))
            digits = tuple(int(d) for d in rng.integers(0, nf, size=n))
            assert index_to_labels(labels_to_index(digits, nf), nf, n) == digits

    def test_flavor_state_labels(self):
        state = flavor_state(("e", "e", "tau", "mu"), 3)
        assert state.amplitudes[labels_to_index((0, 0, 2, 1), 3)] == 1.0
        with pytest.raises(ValueError):
            flavor_state(("e", "tau"), 2)


class TestChangeBasis:
    def test_zero_angles_is_identity(self, rng):
        amp = rng.normal(size=9) + 1j * rng.normal(size=9)
        amp /= np.linalg.norm(amp)
        state = StateVector(amp, BasisTag.FLAVOR, 3, 2)
        out = change_basis(state, BasisTag.MASS, PmnsParams(0.0, 0.0, 0.0, 0.0))
        np.testing.assert_allclose(out.amplitudes, amp, atol=1e-14)

    def test_matches_per_mode_adjoint_oracle(self):
        state = flavor_state(("e", "mu"), 3)
        out = change_basis(state, BasisTag.MASS, REF)
        u = pmns_matrix(REF, 3)
        expected = np.kron(u.conj().T, u.conj().T) @ state.amplitudes
        np.testing.assert_allclose(out.amplitudes, expected, atol=1e-13)

    def test_round_trip_recovers_input(self, rng):
        amp = rng.normal(size=27) + 1j * rng.normal(size=27)
        amp /= np.linalg.norm(amp)
        state = StateVector(amp, BasisTag.FLAVOR, 3, 3)
        back = change_basis(change_basis(state, BasisTag.MASS, REF), BasisTag.FLAVOR, REF)
        np.testing.assert_allclose(back.amplitudes, amp, atol=1e-12)

    def test_preserves_inner_products(self, rng):
        for _ in range(10):
            a = rng.normal(size=9) + 1j * rng.normal(size=9)
            b = rng.normal(size=9) + 1j * rng.normal(size=9)
            a /= np.linalg.norm(a)
            b /= np.linalg.norm(b)
            sa = StateVector(a, BasisTag.FLAVOR, 3, 2)
            sb = StateVector(b, BasisTag.FLAVOR, 3, 2)
            ma = change_basis(sa, BasisTag.MASS, REF)
            mb = change_basis(sb, BasisTag.MASS, REF)
            assert abs(np.vdot(ma.amplitudes, mb.amplitudes) - np.vdot(a, b)) < 1e-12

    def test_rejects_same_basis(self):
        state = product_state((0, 0), 2)
        with pytest.raises(ValueError):
            change_basis(state, BasisTag.FLAVOR, REF)


entries = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
angles = st.floats(0.0, 2 * np.pi)


@given(
    data=st.data(),
    nf=st.sampled_from([2, 3]),
    n_modes=st.integers(1, 4),
    params=st.builds(PmnsParams, angles, angles, angles, angles),
)
def test_flavor_mass_flavor_round_trip(data, nf, n_modes, params):
    amp = data.draw(arrays(complex, nf**n_modes, elements=entries).filter(lambda v: np.linalg.norm(v) > 0.1))
    state = StateVector(amp / np.linalg.norm(amp), BasisTag.FLAVOR, nf, n_modes)
    mass = change_basis(state, BasisTag.MASS, params)
    back = change_basis(mass, BasisTag.FLAVOR, params)
    assert mass.basis is BasisTag.MASS and back.basis is BasisTag.FLAVOR
    assert np.max(np.abs(back.amplitudes - state.amplitudes)) <= 1e-13


class TestMassBlocks:
    def test_three_flavor_four_mode_census(self):
        blocks = mass_blocks(3, 4)
        sizes = sorted(b.size for b in blocks)
        assert sizes == [1, 1, 1, 4, 4, 4, 4, 4, 4, 6, 6, 6, 12, 12, 12]
        assert sum(sizes) == 81

    def test_two_flavor_two_mode_sizes(self):
        assert sorted(b.size for b in mass_blocks(2, 2)) == [1, 1, 2]

    def test_single_mode_blocks(self):
        blocks = mass_blocks(3, 1)
        assert [b.size for b in blocks] == [1, 1, 1]

    @pytest.mark.parametrize("nf,n", [(2, 1), (2, 4), (3, 2), (3, 5)])
    def test_blocks_partition_index_set(self, nf, n):
        blocks = mass_blocks(nf, n)
        seen = sorted(i for b in blocks for i in b.indices)
        assert seen == list(range(nf**n))
        from math import comb

        assert len(blocks) == comb(n + nf - 1, nf - 1)

    def test_occupations_match_indices(self):
        for block in mass_blocks(3, 3):
            for idx in block.indices:
                occ = [0, 0, 0]
                for d in index_to_labels(idx, 3, 3):
                    occ[d] += 1
                assert tuple(occ) == block.occupation

    def test_dimension_cap(self):
        with pytest.raises(ValueError):
            mass_blocks(3, 11)


def test_reference_config_builds(rng):
    cfg = reference_config(4, 3, initial=("e", "e", "tau", "mu"), times=[1.1e12])
    assert cfg.spec.dim == 81
    assert cfg.initial.amplitudes[labels_to_index((0, 0, 2, 1), 3)] == 1.0
