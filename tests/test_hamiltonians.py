import itertools
import math

import numpy as np
import pytest
from helpers import generator_sum_oracle, pair_embed_oracle, reference_config
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nuanneal.basis import GELL_MANN, BasisTag, mass_blocks, pmns_matrix
from nuanneal.hamiltonians import (
    B_VECTOR_CHOICES,
    HamiltonianMatrix,
    SystemSpec,
    anisotropic_angles,
    b_vector_preset,
    build_dirac_hamiltonian,
    build_hamiltonian,
    check_hermitian,
    conserves_occupations,
    restrict_to_block,
)

IM_SY = np.array([[0.0, -1.0], [1.0, 0.0]])  # elementwise imaginary part of sigma_y


class TestAnisotropicAngles:
    def test_xi_one_gives_zero_angles(self):
        np.testing.assert_array_equal(anisotropic_angles(1.0, 5), np.zeros((5, 5)))

    def test_reference_values(self):
        angles = anisotropic_angles(0.9, 4)
        assert angles[0, 3] == pytest.approx(math.acos(0.9), abs=1e-12)
        assert angles[0, 3] == pytest.approx(0.451027, abs=1e-6)
        assert angles[0, 1] == pytest.approx(math.acos(0.9) / 3.0, abs=1e-12)

    def test_symmetric_zero_diagonal(self):
        angles = anisotropic_angles(0.9, 4)
        np.testing.assert_array_equal(angles, angles.T)
        np.testing.assert_array_equal(np.diagonal(angles), np.zeros(4))

    def test_rejects_out_of_range_xi(self):
        with pytest.raises(ValueError):
            anisotropic_angles(1.2, 4)

    def test_rejects_single_mode(self):
        with pytest.raises(ValueError):
            anisotropic_angles(0.5, 1)


class TestBVector:
    def test_zero_splittings(self):
        np.testing.assert_array_equal(b_vector_preset("appendixA", 3, 0.0, 0.0, 1.0), np.zeros(8))
        np.testing.assert_array_equal(b_vector_preset("appendixA", 2, 0.0, 0.0, 1.0), np.zeros(3))

    def test_reference_components(self):
        b = b_vector_preset("appendixA", 3, 7.42e-5, 2.44e-3, 1e7)
        assert b[2] == pytest.approx(-1.855e-12, rel=1e-12)
        assert b[7] == pytest.approx(-2.44e-3 / (2.0 * math.sqrt(3.0) * 1e7), rel=1e-14)
        assert np.count_nonzero(b) == 2
        two = b_vector_preset("appendixA", 2, 7.42e-5, 2.44e-3, 1e7)
        np.testing.assert_array_equal(two, [0.0, 0.0, -2.44e-3 / (4.0 * 1e7)])

    def test_halves_when_energy_doubles(self):
        for nf in (2, 3):
            b1 = b_vector_preset("appendixA", nf, 7.42e-5, 2.44e-3, 1e7)
            b2 = b_vector_preset("appendixA", nf, 7.42e-5, 2.44e-3, 2e7)
            np.testing.assert_allclose(b2, b1 / 2.0, rtol=1e-14)

    def test_rejects_non_positive_energy(self):
        # Every choice checks the energy, "zero" included.
        for choice, nf, energy in itertools.product(B_VECTOR_CHOICES, (2, 3), (0.0, -1.0)):
            with pytest.raises(ValueError, match="energy must be positive"):
                b_vector_preset(choice, nf, 1.0, 1.0, energy)

    def test_presets(self):
        base = b_vector_preset("appendixA", 3, 7.42e-5, 2.44e-3, 1e7)
        np.testing.assert_array_equal(b_vector_preset("zero", 3, 7.42e-5, 2.44e-3, 1e7), np.zeros(8))
        np.testing.assert_allclose(
            b_vector_preset("third", 3, 7.42e-5, 2.44e-3, 1e7), base / 3.0, rtol=1e-15
        )
        pdg = b_vector_preset("pdg_review", 3, 7.42e-5, 2.44e-3, 1e7)
        assert pdg[7] == pytest.approx(-2.44e-3 / (4.0 * 1e7), rel=1e-14)
        assert pdg[2] == base[2]
        # For nf=2 the choices differ only by a scale on the z component.
        two = b_vector_preset("appendixA", 2, 7.42e-5, 2.44e-3, 1e7)
        np.testing.assert_array_equal(b_vector_preset("zero", 2, 7.42e-5, 2.44e-3, 1e7), np.zeros(3))
        np.testing.assert_array_equal(b_vector_preset("third", 2, 7.42e-5, 2.44e-3, 1e7), two / 3.0)
        np.testing.assert_array_equal(b_vector_preset("pdg_review", 2, 7.42e-5, 2.44e-3, 1e7), two)
        with pytest.raises(ValueError):
            b_vector_preset("bogus", 3, 1.0, 1.0, 1.0)


class TestSystemSpec:
    def test_rejects_asymmetric_angles(self):
        cfg = reference_config(2, 2)
        with pytest.raises(ValueError):
            SystemSpec(
                n_modes=2,
                nf=2,
                pmns=cfg.spec.pmns,
                coupling_k=1.0,
                angles=np.array([[0.0, 1.0], [0.5, 0.0]]),
                b_vector=np.zeros(3),
            )

    def test_rejects_majorana_antineutrino(self):
        with pytest.raises(ValueError):
            reference_config(
                2,
                2,
                system_extra={"statistics": "majorana", "species": ["neutrino", "antineutrino"]},
            )

    def test_rejects_negative_coupling(self):
        with pytest.raises(ValueError):
            reference_config(2, 2, system_extra={"k_ev": -1.0})


class TestDiracHamiltonian:
    def test_zero_couplings_zero_matrix(self):
        cfg = reference_config(2, 3, system_extra={"k_ev": 0.0, "b_vector_choice": "zero"})
        h = build_dirac_hamiltonian(cfg.spec, BasisTag.MASS)
        np.testing.assert_array_equal(h.matrix, np.zeros((9, 9)))

    @pytest.mark.parametrize("basis", [BasisTag.MASS, BasisTag.FLAVOR])
    def test_matches_kronecker_oracle(self, basis):
        cfg = reference_config(2, 3)
        spec = cfg.spec
        expected = generator_sum_oracle(spec, basis is BasisTag.MASS)
        got = build_dirac_hamiltonian(spec, basis)
        np.testing.assert_allclose(got.matrix, expected, atol=1e-18)

    def test_equal_energy_terms_commute(self):
        cfg = reference_config(4, 3)
        full = build_dirac_hamiltonian(cfg.spec, BasisTag.FLAVOR).matrix
        cfg_int = reference_config(4, 3, system_extra={"b_vector_choice": "zero"})
        h2 = build_dirac_hamiltonian(cfg_int.spec, BasisTag.FLAVOR).matrix
        h1 = full - h2
        comm = h1 @ h2 - h2 @ h1
        bound = 1e-9 * np.linalg.norm(h1, 2) * np.linalg.norm(h2, 2)
        assert np.linalg.norm(comm, 2) < bound

    def test_two_body_term_is_basis_invariant(self):
        cfg = reference_config(3, 3, system_extra={"b_vector_choice": "zero"})
        h_mass = build_dirac_hamiltonian(cfg.spec, BasisTag.MASS).matrix
        h_flavor = build_dirac_hamiltonian(cfg.spec, BasisTag.FLAVOR).matrix
        u = pmns_matrix(cfg.spec.pmns, 3)
        big_u = np.kron(np.kron(u, u), u)
        np.testing.assert_allclose(big_u @ h_mass @ big_u.conj().T, h_flavor, atol=1e-12)

    def test_builders_are_hermitian_for_random_specs(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 4))
            nf = int(rng.integers(2, 4))
            angles = rng.uniform(0, np.pi / 2, size=(n, n))
            angles = np.triu(angles, 1)
            angles = angles + angles.T
            extra = {
                "k_ev": float(rng.uniform(0, 1e-11)),
                "angles": angles.tolist(),
                "theta12": float(rng.uniform(0, np.pi)),
                "delta_cp": float(rng.uniform(0, 2 * np.pi)),
            }
            cfg = reference_config(n, nf, system_extra=extra)
            for basis in (BasisTag.MASS, BasisTag.FLAVOR):
                h = build_dirac_hamiltonian(cfg.spec, basis)
                assert np.max(np.abs(h.matrix - h.matrix.conj().T)) < 1e-20

    def test_rejects_antineutrino_species(self):
        cfg = reference_config(2, 2, system_extra={"species": ["neutrino", "antineutrino"]})
        with pytest.raises(ValueError):
            build_dirac_hamiltonian(cfg.spec, BasisTag.MASS)


class TestNuAntinuHamiltonian:
    def test_zero_coupling_equals_one_body(self):
        # Only the one-body terms remain: u (B.lambda) u^dag on the neutrino
        # mode and its complex conjugate on the antineutrino mode, which
        # differ at the default delta_CP.
        spec = reference_config(
            2, 3, system_extra={"k_ev": 0.0, "species": ["neutrino", "antineutrino"]}
        ).spec
        u = pmns_matrix(spec.pmns, 3)
        local = u @ np.tensordot(spec.b_vector[0], GELL_MANN, axes=1) @ u.conj().T
        assert np.max(np.abs(local.imag)) > 1e-3 * np.max(np.abs(local))
        expected = np.kron(local, np.eye(3)) + np.kron(np.eye(3), local.conj())
        np.testing.assert_allclose(build_hamiltonian(spec).matrix, expected, rtol=0, atol=1e-26)

    def test_two_modes_three_flavors_by_hand_at_nonzero_delta_cp(self):
        # A neutrino (mode 0) and an antineutrino (mode 1).  With
        # U = R23 U13(delta) R12 and D = b3 lambda3 + b8 lambda8, the
        # antineutrino's vacuum term is U* D U^T, the neutrino's at -delta.
        # The pair adds -2k (2K - 2/3), K = sum_ab |aa><bb|.
        t12, t13, t23, delta = 0.59, 0.15, 0.84, 1.2
        k_ev, angle, b3, b8 = 1.75e-12, 0.45, -1.9e-12, -3.5e-11
        b = [0.0] * 8
        b[2], b[7] = b3, b8
        system = {
            "theta12": t12, "theta13": t13, "theta23": t23, "delta_cp": delta, "k_ev": k_ev,
            "angles": [[0.0, angle], [angle, 0.0]], "b_vector": b, "species": ["neutrino", "antineutrino"],
        }
        spec = reference_config(2, 3, system_extra=system).spec
        (c12, s12), (c13, s13), (c23, s23) = [(math.cos(t), math.sin(t)) for t in (t12, t13, t23)]
        e = np.exp(1j * delta)
        u = np.array(
            [
                [c12 * c13, s12 * c13, s13 / e],
                [-s12 * c23 - c12 * s23 * s13 * e, c12 * c23 - s12 * s23 * s13 * e, s23 * c13],
                [s12 * s23 - c12 * c23 * s13 * e, -c12 * s23 - s12 * c23 * s13 * e, c23 * c13],
            ]
        )
        d = np.diag([b3 + b8 / math.sqrt(3.0), -b3 + b8 / math.sqrt(3.0), -2.0 * b8 / math.sqrt(3.0)])
        nu, nubar = u @ d @ u.conj().T, u.conj() @ d @ u.T
        k_op = np.zeros((9, 9))
        k_op[np.ix_([0, 4, 8], [0, 4, 8])] = 1.0
        k = k_ev * (1.0 - math.cos(angle))
        pair = -2.0 * k * (2.0 * k_op - 2.0 / 3.0 * np.eye(9))
        expected = np.kron(nu, np.eye(3)) + np.kron(np.eye(3), nubar) + pair
        got = build_hamiltonian(spec).matrix
        assert np.max(np.abs(got - expected)) <= 1e-14 * np.max(np.abs(expected))
        # The antineutrino term is not the neutrino's: delta_CP matters here.
        assert np.max(np.abs(nubar - nu)) > 1e-3 * np.max(np.abs(nu))

    def test_matches_conjugated_kronecker_oracle(self):
        cfg = reference_config(
            2, 2, system_extra={"species": ["neutrino", "antineutrino"]}
        )
        spec = cfg.spec
        coupling = spec.pair_coupling(0, 1)
        paulis = [np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1])]
        two_body = sum(
            -2.0 * coupling * pair_embed_oracle(p.conj(), p, 0, 1, 2) for p in paulis
        )
        u = pmns_matrix(spec.pmns, 2)
        local = [
            u @ (spec.b_vector[p][2] * np.diag([1.0, -1.0])) @ u.conj().T for p in range(2)
        ]
        one_body = np.kron(local[0], np.eye(2)) + np.kron(np.eye(2), local[1])
        got = build_hamiltonian(spec)
        np.testing.assert_allclose(got.matrix, one_body + two_body, atol=1e-18)

    def test_one_and_two_body_terms_do_not_commute_for_three_flavors(self):
        full_cfg = reference_config(2, 3, system_extra={"species": ["neutrino", "antineutrino"]})
        int_cfg = reference_config(
            2,
            3,
            system_extra={"species": ["neutrino", "antineutrino"], "b_vector_choice": "zero"},
        )
        full = build_hamiltonian(full_cfg.spec).matrix
        h2 = build_hamiltonian(int_cfg.spec).matrix
        h1 = full - h2
        comm = np.linalg.norm(h1 @ h2 - h2 @ h1, 2)
        assert comm > 1e-6 * np.linalg.norm(h1, 2) * np.linalg.norm(h2, 2)

    def test_rejects_mass_basis_request(self):
        cfg = reference_config(2, 3, system_extra={"species": ["neutrino", "antineutrino"]})
        with pytest.raises(ValueError):
            build_hamiltonian(cfg.spec, BasisTag.MASS)


class TestMajoranaHamiltonian:
    def test_zero_coupling_matches_dirac_one_body(self):
        major = reference_config(2, 3, system_extra={"statistics": "majorana", "k_ev": 0.0})
        plain = reference_config(2, 3, system_extra={"k_ev": 0.0})
        got = build_hamiltonian(major.spec)
        ref = build_dirac_hamiltonian(plain.spec, BasisTag.FLAVOR)
        np.testing.assert_allclose(got.matrix, ref.matrix, atol=1e-20)

    def test_two_flavor_interaction_structure(self):
        cfg = reference_config(
            2, 2, system_extra={"statistics": "majorana", "b_vector_choice": "zero"}
        )
        coupling = cfg.spec.pair_coupling(0, 1)
        expected = 2.0 * coupling * pair_embed_oracle(IM_SY, IM_SY, 0, 1, 2)
        got = build_hamiltonian(cfg.spec)
        np.testing.assert_allclose(got.matrix, expected, atol=1e-20)

    def test_three_flavor_interaction_has_three_generators(self):
        cfg = reference_config(
            2, 3, system_extra={"statistics": "majorana", "b_vector_choice": "zero"}
        )
        coupling = cfg.spec.pair_coupling(0, 1)
        # Only the three antisymmetric generators carry an imaginary part.
        expected = sum(
            2.0 * coupling * pair_embed_oracle(GELL_MANN[a].imag, GELL_MANN[a].imag, 0, 1, 2)
            for a in (1, 4, 6)
        )
        got = build_hamiltonian(cfg.spec)
        np.testing.assert_allclose(got.matrix, expected, atol=1e-20)
        for a in (0, 2, 3, 5, 7):
            assert np.max(np.abs(GELL_MANN[a].imag)) == 0.0

    def test_rejects_mass_basis_request(self):
        cfg = reference_config(2, 3, system_extra={"statistics": "majorana"})
        with pytest.raises(ValueError, match="flavor basis"):
            build_hamiltonian(cfg.spec, BasisTag.MASS)


class TestRestrictToBlock:
    def test_singleton_block_is_diagonal_element(self):
        cfg = reference_config(2, 3)
        h = build_dirac_hamiltonian(cfg.spec, BasisTag.MASS)
        block = next(b for b in mass_blocks(3, 2) if b.size == 1)
        sub = restrict_to_block(h, block)
        assert sub.basis is BasisTag.MASS and sub.matrix.shape == (1, 1)
        idx = block.indices[0]
        assert sub.matrix[0, 0] == h.matrix[idx, idx]

    def test_direct_sum_spectrum_matches_full(self):
        cfg = reference_config(4, 3, system_extra={"xi": 0.9})
        h = build_dirac_hamiltonian(cfg.spec, BasisTag.MASS)
        full = np.sort(np.linalg.eigvalsh(h.matrix))
        pieces = []
        for block in mass_blocks(3, 4):
            pieces.append(np.linalg.eigvalsh(restrict_to_block(h, block).matrix))
        stacked = np.sort(np.concatenate(pieces))
        np.testing.assert_allclose(stacked, full, atol=1e-9 * np.abs(full).max())

    def test_blocks_reassemble_matrix(self):
        cfg = reference_config(3, 2)
        h = build_dirac_hamiltonian(cfg.spec, BasisTag.MASS)
        rebuilt = np.zeros_like(h.matrix)
        for block in mass_blocks(2, 3):
            idx = np.asarray(block.indices)
            rebuilt[np.ix_(idx, idx)] = restrict_to_block(h, block).matrix
        np.testing.assert_array_equal(rebuilt, h.matrix)

    def test_rejects_flavor_basis(self):
        cfg = reference_config(2, 3, system_extra={"species": ["neutrino", "antineutrino"]})
        h = build_hamiltonian(cfg.spec)
        with pytest.raises(ValueError):
            restrict_to_block(h, mass_blocks(3, 2)[0])

    def test_flavor_basis_matrix_tagged_mass_is_rejected(self):
        # Its off-block coupling is a sizeable fraction of max |H| ~ 3e-10,
        # yet far below an absolute 1e-10.
        h = build_dirac_hamiltonian(reference_config(4, 3).spec, BasisTag.FLAVOR)
        tagged = HamiltonianMatrix(h.matrix, BasisTag.MASS)
        assert np.max(np.abs(h.matrix)) < 1e-9
        with pytest.raises(ValueError, match="off-block coupling"):
            for block in mass_blocks(3, 4):
                restrict_to_block(tagged, block)

    def test_off_diagonal_one_body_vector_is_rejected(self):
        b = np.zeros(8)
        b[0], b[2] = 1e-12, -1.8e-12
        spec = reference_config(4, 3, system_extra={"b_vector": b.tolist()}).spec
        h = build_dirac_hamiltonian(spec, BasisTag.MASS)
        with pytest.raises(ValueError, match="off-block coupling"):
            for block in mass_blocks(3, 4):
                restrict_to_block(h, block)

    @pytest.mark.parametrize(
        "nf, off_diagonal_b, extra",
        [
            (3, False, {}),
            (2, False, {}),
            (3, True, {}),
            (2, True, {}),
        ],
    )
    def test_conserves_occupations_agrees_with_the_block_check(self, nf, off_diagonal_b, extra):
        b = np.zeros(3 if nf == 2 else 8)
        b[2] = -1.8e-12
        if off_diagonal_b:
            b[0] = 1e-12
        spec = reference_config(4, nf, system_extra={"b_vector": b.tolist(), **extra}).spec
        h = build_dirac_hamiltonian(spec, BasisTag.MASS)
        if conserves_occupations(spec):
            for block in mass_blocks(nf, 4):
                restrict_to_block(h, block)
        else:
            with pytest.raises(ValueError, match="off-block coupling"):
                for block in mass_blocks(nf, 4):
                    restrict_to_block(h, block)
        assert conserves_occupations(spec) is not off_diagonal_b

    @pytest.mark.parametrize(
        "extra",
        [{"species": ["neutrino", "antineutrino"]}, {"statistics": "majorana"}],
    )
    def test_mixed_and_majorana_systems_do_not_conserve_occupations(self, extra):
        assert not conserves_occupations(reference_config(2, 3, system_extra=extra).spec)

    def test_rejects_non_block_diagonal_matrix(self):
        dense = np.ones((4, 4), dtype=complex)
        h = HamiltonianMatrix(dense, BasisTag.MASS)
        block = next(b for b in mass_blocks(2, 2) if b.size == 1)
        with pytest.raises(ValueError):
            restrict_to_block(h, block)


@given(data=st.data(), nf=st.sampled_from([2, 3]), n_modes=st.integers(2, 4))
def test_block_spectra_sum_to_the_dense_spectrum(data, nf, n_modes):
    # Random couplings and one-body vectors on the diagonal generators only,
    # so the mass-basis H splits into occupation blocks.  The bound is
    # relative to max |eigenvalue| (~1e-10 eV here), with no floor at 1.
    upper = np.triu(data.draw(arrays(float, (n_modes, n_modes), elements=st.floats(0.0, np.pi))), 1)
    diagonal = [2] if nf == 2 else [2, 7]
    b = np.zeros((n_modes, 3 if nf == 2 else 8))
    b[:, diagonal] = data.draw(arrays(float, (n_modes, len(diagonal)), elements=st.floats(-2e-12, 2e-12)))
    system = {
        "k_ev": data.draw(st.floats(1e-13, 1e-11)),
        "angles": (upper + upper.T).tolist(),
        "b_vector": b.tolist(),
    }
    spec = reference_config(n_modes, nf, system_extra=system).spec
    assert conserves_occupations(spec)
    h = build_dirac_hamiltonian(spec, BasisTag.MASS)
    full = np.linalg.eigvalsh(h.matrix)
    pieces = np.sort(
        np.concatenate([np.linalg.eigvalsh(restrict_to_block(h, b).matrix) for b in mass_blocks(nf, n_modes)])
    )
    assert np.max(np.abs(pieces - full)) <= 1e-12 * np.max(np.abs(full))


@given(
    data=st.data(),
    nf=st.sampled_from([2, 3]),
    species=st.lists(st.sampled_from(["neutrino", "antineutrino"]), min_size=2, max_size=4).filter(
        lambda s: len(set(s)) == 2
    ),
)
def test_mixed_hamiltonian_conserves_net_charges_in_the_mass_basis(data, nf, species):
    # Rotated to the mass basis by U on neutrino modes and U* on
    # antineutrino modes, the mixed H keeps every net charge
    # n_a(nu) - n_a(nubar): P swaps like species, K moves a nu-nubar pair
    # from |aa> to |bb>, and the one-body terms are diagonal.  The bound is
    # relative to max |H|, with no floor.
    n_modes = len(species)
    upper = np.triu(data.draw(arrays(float, (n_modes, n_modes), elements=st.floats(0.0, np.pi))), 1)
    diagonal = [2] if nf == 2 else [2, 7]
    b = np.zeros((n_modes, 3 if nf == 2 else 8))
    # Subnormal one-body values fail the Hermiticity check of the flavor H.
    one_body = st.floats(-2e-12, 2e-12, allow_subnormal=False)
    b[:, diagonal] = data.draw(arrays(float, (n_modes, len(diagonal)), elements=one_body))
    angle = st.floats(0.0, np.pi)
    system = {
        "k_ev": data.draw(st.floats(1e-13, 1e-11)),
        "angles": (upper + upper.T).tolist(),
        "b_vector": b.tolist(),
        "species": species,
        "theta12": data.draw(angle),
        "theta13": data.draw(angle),
        "theta23": data.draw(angle),
        "delta_cp": data.draw(st.floats(0.0, 2 * np.pi)),
    }
    spec = reference_config(n_modes, nf, system_extra=system).spec
    u = pmns_matrix(spec.pmns, nf)
    rotation = np.ones((1, 1))
    for s in species:
        rotation = np.kron(rotation, u if s == "neutrino" else u.conj())
    h = rotation.conj().T @ build_hamiltonian(spec).matrix @ rotation
    digits = np.indices((nf,) * n_modes).reshape(n_modes, -1)
    signs = np.array([1 if s == "neutrino" else -1 for s in species])
    charges = np.stack([signs @ (digits == a) for a in range(nf)], axis=1)
    other = np.any(charges[:, None, :] != charges[None, :, :], axis=2)
    assert np.max(np.abs(h[other])) <= 1e-12 * np.max(np.abs(h))


def _random_spec(rng, n: int, nf: int, **extra):
    """Reference config with random angles, mixing and per-mode one-body vectors."""
    angles = np.triu(rng.uniform(0, np.pi, size=(n, n)), 1)
    system = {
        "k_ev": float(rng.uniform(1e-13, 1e-11)),
        "angles": (angles + angles.T).tolist(),
        "theta12": float(rng.uniform(0, np.pi)),
        "theta13": float(rng.uniform(0, np.pi)),
        "theta23": float(rng.uniform(0, np.pi)),
        "delta_cp": float(rng.uniform(0, 2 * np.pi)),
        "b_vector": rng.normal(scale=1e-12, size=(n, 3 if nf == 2 else 8)).tolist(),
        **extra,
    }
    return reference_config(n, nf, system_extra=system).spec


class TestExchangeBuildersMatchGeneratorSums:
    """Each exchange-operator builder equals the generator-Kronecker oracle."""

    CASES = [(nf, n, seed) for nf in (2, 3) for n in (2, 3, 4) for seed in range(3)]

    @staticmethod
    def _assert_close(got, want):
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("nf, n, seed", CASES)
    @pytest.mark.parametrize("basis", [BasisTag.MASS, BasisTag.FLAVOR])
    def test_dirac(self, nf, n, seed, basis):
        spec = _random_spec(np.random.default_rng([seed, nf, n]), n, nf)
        got = build_dirac_hamiltonian(spec, basis).matrix
        self._assert_close(got, generator_sum_oracle(spec, basis is BasisTag.MASS))

    @pytest.mark.parametrize("nf, n, seed", CASES)
    def test_mixed_species(self, nf, n, seed):
        rng = np.random.default_rng([seed, nf, n, 1])
        species = ["neutrino", "antineutrino"] + [
            str(s) for s in rng.choice(["neutrino", "antineutrino"], n - 2)
        ]
        rng.shuffle(species)
        spec = _random_spec(rng, n, nf, species=species)
        self._assert_close(build_hamiltonian(spec).matrix, generator_sum_oracle(spec))

    @pytest.mark.parametrize("nf, n, seed", CASES)
    def test_majorana(self, nf, n, seed):
        spec = _random_spec(np.random.default_rng([seed, nf, n, 2]), n, nf, statistics="majorana")
        self._assert_close(build_hamiltonian(spec).matrix, generator_sum_oracle(spec))

    @pytest.mark.parametrize(
        "n, nf, basis",
        [(2, 2, BasisTag.MASS), (2, 2, BasisTag.FLAVOR), (2, 3, BasisTag.MASS),
         (2, 3, BasisTag.FLAVOR), (4, 3, BasisTag.MASS)],
    )
    def test_bit_identical_where_outputs_are_pinned(self, n, nf, basis):
        # The pinned qubo, anneal and aqae outputs are built from these
        # Hamiltonians; any rounding change here would move them.
        spec = reference_config(n, nf, system_extra={"xi": 0.9}).spec
        got = build_dirac_hamiltonian(spec, basis).matrix
        np.testing.assert_array_equal(got, generator_sum_oracle(spec, basis is BasisTag.MASS))


class TestRelativeHermiticity:
    # At its own scale (max |H| ~ 3e-10) the reference Hamiltonian passed an
    # absolute 1e-10 check with this defect; rescaled to 1e-12 it also passed
    # an absolute 1e-12 one.
    @pytest.mark.parametrize("rescale_to", [None, 1e-12])
    def test_anti_hermitian_part_at_twelve_percent_is_rejected(self, rng, rescale_to):
        h = build_dirac_hamiltonian(reference_config(4, 3).spec, BasisTag.FLAVOR).matrix
        if rescale_to is not None:
            h = h * (rescale_to / np.max(np.abs(h)))
        m = rng.normal(size=h.shape) + 1j * rng.normal(size=h.shape)
        anti = m - m.conj().T
        bad = h + anti * (0.12 * np.max(np.abs(h)) / np.max(np.abs(anti)))
        with pytest.raises(ValueError, match="Hermiticity"):
            HamiltonianMatrix(bad, BasisTag.FLAVOR)

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermiticity"):
            HamiltonianMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]), BasisTag.FLAVOR)

    def test_zero_matrix_passes(self):
        assert check_hermitian(np.zeros((3, 3)), "zero") == 0.0
        HamiltonianMatrix(np.zeros((3, 3)), BasisTag.MASS)
