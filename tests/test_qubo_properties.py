"""Property tests of the QUBO encoding.

For random symmetric forms, priors, bit depths, zoom levels and directions,
with some variables fixed and without: QUBO energy plus offset equals the
quadratic form a^T C a of the digitized amplitudes, and the text format
returns the same arrays and offset.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nuanneal.aqae import clock_qubo, initial_estimate
from nuanneal.clock import (
    DigitizationParams,
    Direction,
    QuboProblem,
    apply_bit_updates,
    build_clock,
    build_qubo,
    real_embed,
)

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)

values = st.floats(-4.0, 4.0, allow_nan=False)
complex_values = st.complex_numbers(max_magnitude=4.0, allow_nan=False, allow_infinity=False)
digitizations = st.builds(
    DigitizationParams,
    k_bits=st.sampled_from([1, 2]),
    zoom=st.integers(0, 6),
    direction=st.sampled_from(list(Direction)),
)


def _assert_faithful(q: QuboProblem, kept: list[int], c, prior, params, data) -> None:
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


@PROPERTY_SETTINGS
@given(data=st.data(), dim=st.integers(1, 4), params=digitizations)
def test_random_form_with_and_without_fixed_bits(data, dim, params):
    m = data.draw(arrays(float, (dim, dim), elements=values))
    c = m + m.T
    prior = data.draw(arrays(float, dim, elements=values))
    full = build_qubo(c, params, prior)
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


@PROPERTY_SETTINGS
@given(
    data=st.data(),
    register_dim=st.integers(1, 2),
    params=digitizations,
    freeze=st.booleans(),
)
def test_clock_qubo_with_and_without_frozen_register(data, register_dim, params, freeze):
    m = data.draw(arrays(complex, (register_dim, register_dim), elements=complex_values))
    psi = data.draw(arrays(complex, register_dim, elements=complex_values).filter(lambda v: np.linalg.norm(v) > 0.1))
    clock = build_clock(m + m.conj().T, psi / np.linalg.norm(psi), dt=0.7)
    cemb = real_embed(clock)
    shift = data.draw(arrays(float, cemb.shape[0], elements=st.floats(-1.0, 1.0)))
    estimate = initial_estimate(clock) + shift
    q, kept = clock_qubo(clock, cemb, params, estimate, freeze)
    frozen_bits = 2 * register_dim * params.k_bits if freeze else 0
    assert q.size == cemb.shape[0] * params.k_bits - frozen_bits
    _assert_faithful(q, kept, cemb, estimate, params, data)
    _assert_round_trip(q)
