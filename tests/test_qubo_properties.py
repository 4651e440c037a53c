"""Property tests of the QUBO encoding.

For random symmetric forms, priors, bit depths, zoom levels and directions,
with some variables fixed and without: QUBO energy plus offset equals the
quadratic form a^T C a of the digitized amplitudes, and the text format
returns the same arrays and offset.  For every pass of an AQAE run, the QUBO
built from the run's one form has the bytes of the reference expansion at
that pass's own digit weights.
"""

import numpy as np
from helpers import live_bits, qubo_oracle
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nuanneal.aqae import clock_qubo, initial_estimate
from nuanneal.clock import (
    DigitizationParams,
    Direction,
    QuboForm,
    QuboProblem,
    apply_bit_updates,
    build_clock,
    build_qubo,
    real_embed,
)
from nuanneal.hamiltonians import BasisTag, HamiltonianMatrix

values = st.floats(-4.0, 4.0, allow_nan=False)
complex_values = st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False)
digitizations = st.builds(
    DigitizationParams,
    k_bits=st.sampled_from([1, 2]),
    zoom=st.integers(0, 6),
    direction=st.sampled_from(list(Direction)),
)


def _assert_faithful(q: QuboProblem, kept, c, prior, params, data) -> None:
    """Energy plus offset against the quadratic form on one drawn bitstring."""
    bits = np.array(data.draw(st.lists(st.integers(0, 1), min_size=q.size, max_size=q.size)))
    fixed = np.zeros(c.shape[0] * params.k_bits)
    fixed[kept] = bits
    a = apply_bit_updates(prior, fixed, params)
    form = a @ c @ a
    scale = 1.0 + np.abs(c).sum() * max(1.0, np.abs(a).max()) ** 2
    assert abs(q.total_energy(bits) - form) <= 1e-12 * scale


def _assert_round_trip(q: QuboProblem) -> None:
    back = QuboProblem.from_text(q.to_text())
    np.testing.assert_array_equal(back.lin, q.lin)
    np.testing.assert_array_equal(back.quad, q.quad)
    assert back.offset == q.offset


@given(data=st.data(), dim=st.integers(1, 4), params=digitizations)
def test_random_form_with_and_without_fixed_bits(data, dim, params):
    m = data.draw(arrays(float, (dim, dim), elements=values))
    c = m + m.T
    prior = data.draw(arrays(float, dim, elements=values))
    full = build_qubo(QuboForm(c, params.k_bits), params, prior)
    # Fix a random subset of variables (to 0 or 1); the empty subset is the
    # unfixed problem.
    chosen = data.draw(st.lists(st.integers(0, full.size - 1), unique=True, max_size=full.size))
    assignments = {i: data.draw(st.integers(0, 1)) for i in chosen}
    q, kept = full.fix_variables(assignments)
    assert kept == [i for i in range(full.size) if i not in assignments]
    fixed_prior = apply_bit_updates(
        prior, np.array([assignments.get(i, 0) for i in range(full.size)], dtype=float), params
    )
    _assert_faithful(q, kept, c, fixed_prior, params, data)
    _assert_round_trip(q)


@given(
    data=st.data(),
    register_dim=st.integers(1, 2),
    params=digitizations,
    freeze=st.booleans(),
)
def test_clock_qubo_with_and_without_frozen_register(data, register_dim, params, freeze):
    m = data.draw(arrays(complex, (register_dim, register_dim), elements=complex_values))
    psi = data.draw(arrays(complex, register_dim, elements=complex_values).filter(lambda v: np.linalg.norm(v) > 0.1))
    clock = build_clock(HamiltonianMatrix(m + m.conj().T, BasisTag.FLAVOR), psi / np.linalg.norm(psi), dt=0.7)
    cemb = real_embed(clock)
    shift = data.draw(arrays(float, cemb.shape[0], elements=st.floats(-1.0, 1.0)))
    estimate = initial_estimate(clock) + shift
    form = clock_qubo(clock, params.k_bits) if freeze else QuboForm(cemb, params.k_bits)
    q = build_qubo(form, params, estimate)
    frozen_bits = 2 * register_dim * params.k_bits if freeze else 0
    assert q.size == cemb.shape[0] * params.k_bits - frozen_bits
    _assert_faithful(q, live_bits(form), cemb, estimate, params, data)
    _assert_round_trip(q)


@st.composite
def clock_runs(draw):
    """(m, psi, dt, steps, shift): the Hermitian H = m + m^H over 1 to 3
    modes, an initial state, a step size, 1 to 3 clock steps and a shift of
    the initial estimate."""
    register_dim, steps = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    m = draw(arrays(complex, (register_dim, register_dim), elements=complex_values))
    psi = draw(arrays(complex, register_dim, elements=complex_values).filter(lambda v: np.linalg.norm(v) > 0.1))
    dt = draw(st.floats(0.1, 2.0))
    shift = draw(arrays(float, 2 * register_dim * (steps + 1), elements=st.floats(-1.0, 1.0)))
    return m, psi, dt, steps, shift


@given(run=clock_runs(), k_bits=st.integers(1, 3))
# H = 3.7e-307 makes zoom-0 couplings subnormal at K = 3, so a coupling
# rounded at zoom 0 and scaled by a later pass's 4^-z differs from that
# pass's own expansion.
@example(run=(np.array([[1.85e-307 + 0j]]), np.array([1.0 + 0j]), 0.7, 2, np.zeros(6)), k_bits=3)
def test_every_pass_has_the_bytes_of_the_reference_expansion(run, k_bits):
    # Zoom 0 to 21 in both directions, as the blocked reference run makes
    # them: one form per run, with the initial register frozen.
    m, psi, dt, steps, shift = run
    register_dim = psi.shape[0]
    h = HamiltonianMatrix(m + m.conj().T, BasisTag.FLAVOR)
    clock = build_clock(h, psi / np.linalg.norm(psi), dt=dt, steps=steps)
    cemb = real_embed(clock)
    form = clock_qubo(clock, k_bits)
    # Every slot but the initial register's real and imaginary parts.
    live = np.r_[register_dim : clock.dim, clock.dim + register_dim : 2 * clock.dim]
    estimate = initial_estimate(clock) + shift
    for zoom in range(22):
        for direction in Direction:
            params = DigitizationParams(k_bits, zoom, direction)
            q = build_qubo(form, params, estimate)
            lin, quad, offset = qubo_oracle(cemb, params, estimate, live)
            assert q.lin.tobytes() == lin.tobytes()
            assert q.quad.tobytes() == quad.tobytes()
            assert np.float64(q.offset).tobytes() == np.float64(offset).tobytes()
