"""Shared builders and independent oracles for the test suite.

The oracles here deliberately avoid the library's construction paths:
partial traces are explicit index sums, Hamiltonians are sums of generator
Kronecker products (the library assembles exchange operators as index maps),
expected witness values for the reference four-mode system come from a
swap-operator model built from elementary-matrix Kronecker chains, and the
reference annealer steps one read and one visit at a time where the library
steps every read of a visit at once, and the reference QUBO is expanded at
each pass's own digit weights where the library scales a run's zoom-0
couplings.
"""

from __future__ import annotations

import math

import numpy as np

from nuanneal.annealer import default_beta_range
from nuanneal.basis import generator_vector, pmns_matrix
from nuanneal.clock import digit_weights
from nuanneal.config import ExperimentConfig, resolve_config
from nuanneal.hamiltonians import Species, Statistics

# ---------------------------------------------------------------------------
# Reference configurations
# ---------------------------------------------------------------------------


def reference_config(n_modes: int, nf: int, initial=None, times=None, system_extra=None, **top) -> ExperimentConfig:
    """Experiment config with the reference oscillation parameters."""
    system = {"n_modes": n_modes, "nf": nf}
    if system_extra:
        system.update(system_extra)
    raw = {"system": system}
    if initial is not None:
        raw["initial_state"] = list(initial)
    if times is not None:
        raw["times"] = list(times)
    raw.update(top)
    return resolve_config(raw)


# Frozen expected witness values for the N=4, nf=3 reference system with
# initial state (e, e, tau, mu); cross-checked in-test against the
# independent exchange-operator oracle below.
REFERENCE_TIMES = [1.1e12 * (i + 1) for i in range(9)]

REFERENCE_S3 = [
    0.222927229,
    0.623264640,
    1.0340534849,
    1.3420253885,
    1.5060393872,
    1.5718841229,
    1.5693430609,
    1.4631204675,
    1.2671452598,
]

REFERENCE_N13 = [
    0.3720986223,
    0.4868408929,
    0.5484990103,
    0.5918213991,
    0.5197404555,
    0.4301304886,
    0.4824124333,
    0.5822152101,
    0.4597905236,
]

REFERENCE_N23 = [
    0.0842779937,
    0.1291148436,
    0.2091610157,
    0.3460545631,
    0.4497961383,
    0.4458340852,
    0.3611637035,
    0.2461251687,
    0.1754865412,
]

REFERENCE_N34 = [
    0.0984672558,
    0.2787261578,
    0.4936497469,
    0.5329880752,
    0.5347131445,
    0.6025444696,
    0.5514675837,
    0.3860333315,
    0.2120581628,
]


# ---------------------------------------------------------------------------
# Independent construction oracles
# ---------------------------------------------------------------------------


def index_to_labels(index: int, nf: int, n_modes: int) -> tuple[int, ...]:
    """Per-mode digits of a big-endian product-basis index (the inverse of
    ``labels_to_index``), decoded by repeated division."""
    digits = []
    for _ in range(n_modes):
        digits.append(index % nf)
        index //= nf
    return tuple(reversed(digits))


def kron_chain(ops) -> np.ndarray:
    out = np.asarray(ops[0], dtype=complex)
    for op in ops[1:]:
        out = np.kron(out, np.asarray(op, dtype=complex))
    return out


def embed_oracle(op: np.ndarray, mode: int, n_modes: int) -> np.ndarray:
    nf = op.shape[0]
    return kron_chain([op if p == mode else np.eye(nf) for p in range(n_modes)])


def pair_embed_oracle(op_a, op_b, mode_a, mode_b, n_modes) -> np.ndarray:
    nf = np.asarray(op_a).shape[0]
    ops = [np.eye(nf)] * n_modes
    ops[mode_a] = op_a
    ops[mode_b] = op_b
    return kron_chain(ops)


def generator_sum_oracle(spec, basis_is_mass: bool = False) -> np.ndarray:
    """Generator-Kronecker construction of all three Hamiltonians.

    One-body terms are B_p . lambda embedded by Kronecker chains; in the
    flavor basis they are rotated by the PMNS matrix U on neutrino modes and
    by U* on antineutrino modes.  Every p < q pair adds k_pq times the
    generator sum: sum_a lambda_a (x) lambda_a for like-species Dirac pairs,
    -2 sum_a lambda_a* (x) lambda_a for neutrino-antineutrino pairs and
    2 sum_a Im lambda_a (x) Im lambda_a for Majorana pairs.  The generator
    sum is formed before it is scaled, as the library once did, so the
    exchange builders can be checked bit for bit where they promise it.
    """
    gens = generator_vector(spec.nf)
    u = pmns_matrix(spec.pmns, spec.nf)
    n = spec.n_modes
    h = np.zeros((spec.dim, spec.dim), dtype=complex)
    for p in range(n):
        local = np.tensordot(spec.b_vector[p], gens, axes=([0], [0]))
        if not basis_is_mass:
            rot = u.conj() if spec.species[p] is Species.ANTINEUTRINO else u
            local = rot @ local @ rot.conj().T
        h += embed_oracle(local, p, n)
    for p in range(n):
        for q in range(p + 1, n):
            if spec.statistics is Statistics.MAJORANA:
                left, right, scale = gens.imag.astype(complex), gens.imag.astype(complex), 2.0
            elif spec.species[p] is spec.species[q]:
                left, right, scale = gens, gens, 1.0
            else:
                left, right, scale = gens.conj(), gens, -2.0
            pair = np.zeros_like(h)
            for a, b in zip(left, right):
                pair += pair_embed_oracle(a, b, p, q, n)
            coupling = spec.coupling_k * (1.0 - math.cos(spec.angles[p, q]))
            h += scale * (coupling * pair)
    return h


# ---------------------------------------------------------------------------
# Reduced-density and witness oracles (index-sum form)
# ---------------------------------------------------------------------------


def rdm_oracle(amplitudes: np.ndarray, keep: tuple[int, ...], nf: int, n_modes: int) -> np.ndarray:
    """Partial trace by explicit summation over basis-index tuples."""
    digits = [np.array([(idx // nf ** (n_modes - 1 - p)) % nf for p in range(n_modes)])
              for idx in range(nf**n_modes)]
    d = nf ** len(keep)
    rho = np.zeros((d, d), dtype=complex)
    traced = [p for p in range(n_modes) if p not in keep]
    for a, da in enumerate(digits):
        for b, db in enumerate(digits):
            if all(da[p] == db[p] for p in traced):
                row = 0
                col = 0
                for p in keep:
                    row = row * nf + da[p]
                    col = col * nf + db[p]
                rho[row, col] += amplitudes[a] * np.conj(amplitudes[b])
    return rho


def exchange_witness_oracle(flavors: tuple[int, ...], nf: int, couplings: np.ndarray, t: float):
    """Witness values from the pairwise-exchange model.

    Because the generator-exchange interaction equals (up to an additive
    constant and per-mode unitaries that cannot change entanglement) a
    weighted sum of two-mode swap operators, evolving the flavor product
    state under 2 * sum_{p<q} J_pq SWAP_pq reproduces every witness of the
    full model.  This shares no code with the production Hamiltonians.
    """
    n = len(flavors)
    dim = nf**n
    h = np.zeros((dim, dim), dtype=complex)
    swap2 = np.zeros((nf * nf, nf * nf))
    for i in range(nf):
        for j in range(nf):
            swap2[j * nf + i, i * nf + j] = 1.0
    for p in range(n):
        for q in range(p + 1, n):
            h += 2.0 * couplings[p, q] * pair_embed_oracle_matrix(swap2, p, q, n, nf)
    idx = 0
    for f in flavors:
        idx = idx * nf + f
    psi0 = np.zeros(dim, dtype=complex)
    psi0[idx] = 1.0
    evals, evecs = np.linalg.eigh(h)
    psi = evecs @ (np.exp(-1j * evals * t) * (evecs.conj().T @ psi0))
    return psi


def pair_embed_oracle_matrix(two_mode_op: np.ndarray, p: int, q: int, n: int, nf: int) -> np.ndarray:
    """Embed a (nf^2 x nf^2) two-mode operator acting on adjacent slots (p, q)."""
    op = two_mode_op.reshape(nf, nf, nf, nf)
    total = np.zeros((nf**n,) * 2, dtype=complex)
    for a in range(nf):
        for b in range(nf):
            for c in range(nf):
                for d in range(nf):
                    if op[a, b, c, d] == 0:
                        continue
                    ops = [np.eye(nf)] * n
                    e_ac = np.zeros((nf, nf))
                    e_bd = np.zeros((nf, nf))
                    e_ac[a, c] = 1.0
                    e_bd[b, d] = 1.0
                    ops[p] = e_ac
                    ops[q] = e_bd
                    total += op[a, b, c, d] * kron_chain(ops)
    return total


def entropy_oracle(rho: np.ndarray) -> float:
    evals = np.linalg.eigvalsh(rho)
    evals = evals[evals > 1e-14]
    return float(-(evals * np.log2(evals)).sum())


def negativity_oracle(amplitudes: np.ndarray, i: int, j: int, nf: int, n_modes: int) -> float:
    rho = rdm_oracle(amplitudes, (i, j), nf, n_modes).reshape(nf, nf, nf, nf)
    rho_pt = rho.transpose(0, 3, 2, 1).reshape(nf * nf, nf * nf)
    sv = np.linalg.svd(rho_pt, compute_uv=False)
    return float(np.log2(sv.sum()))


# ---------------------------------------------------------------------------
# Series analysis (only tests read oscillation frequencies)
# ---------------------------------------------------------------------------


def max_witness(report) -> float:
    """Largest entropy or negativity of a :class:`WitnessReport`."""
    values = [float(np.max(report.entropies))] if len(report.entropies) else [0.0]
    values.extend(report.negativities.values())
    return max(values)


def dominant_frequency(series: list[tuple[float, float]]) -> float:
    """Frequency (cycles per 1/eV, i.e. eV) of the strongest oscillation.

    Mean-subtracts the uniformly sampled series and returns the frequency of
    the largest nonzero-frequency DFT bin, or 0.0 when no bin rises above
    1e-12 in magnitude.
    """
    arr = np.asarray(series, dtype=float)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("series must be a sequence of (time, value) pairs")
    if arr.shape[0] < 16:
        raise ValueError("series must contain at least 16 samples")
    times, values = arr[:, 0], arr[:, 1]
    steps = np.diff(times)
    dt = steps[0]
    if dt <= 0 or np.max(np.abs(steps - dt)) > 1e-9 * abs(dt):
        raise ValueError("series must be uniformly spaced in time")
    spectrum = np.abs(np.fft.rfft(values - values.mean()))
    k = int(np.argmax(spectrum[1:]) + 1)
    if spectrum[k] <= 1e-12:
        return 0.0
    return k / (len(values) * dt)


# ---------------------------------------------------------------------------
# Malformed QUBO text: (case id, text, 1-based bad line, message fragment)
# ---------------------------------------------------------------------------

BAD_QUBO_TEXTS = [
    ("no-header", "0 0 1.0\n", 1, "header"),
    ("short-header", "qubo 2\n0 0 1.0\n", 1, "header"),
    ("bad-size", "# exported\nqubo two 0.0\n", 2, "'two'"),
    ("bad-offset", "qubo 2 nan\n", 1, "offset finite"),
    ("two-fields", "qubo 2 0.0\n0 0\n", 2, "2 fields"),
    ("four-fields", "qubo 2 0.0\n0 0 1.0 2.0\n", 2, "4 fields"),
    ("non-numeric", "qubo 2 0.0\n0 0 1.0\n\n0 1 abc\n", 4, "'abc'"),
    ("non-finite", "qubo 2 0.0\n0 1 inf\n", 2, "(0, 1) is not finite"),
    ("non-integer-index", "qubo 2 0.0\n0.5 1 1.0\n", 2, "'0.5'"),
    ("out-of-range", "qubo 2 0.0\n0 2 1.0\n", 2, "(0, 2) out of range"),
    ("lower-triangle", "qubo 2 0.0\n1 0 1.0\n", 2, "(1, 0) out of range"),
    ("duplicate", "qubo 2 0.0\n0 0 1.0\n0 0 -5.0\n", 3, "(0, 0) repeats"),
]

# Well-formed QUBO texts whose |offset| + sum |coefficients| overflows a
# double: once a traceback from the beta ramp, or energies of -inf.
OVERFLOWING_QUBO_TEXTS = [
    ("infinite-reach", "qubo 2 0.0\n0 0 -1e308\n0 1 1.5e308\n1 1 -1e308\n"),
    ("infinite-energy", "qubo 2 0.0\n0 0 -1e308\n1 1 -1e308\n"),
    ("infinite-offset", "qubo 1 1e308\n0 0 1e308\n"),
]


# ---------------------------------------------------------------------------
# Scalar reference annealer
# ---------------------------------------------------------------------------


def reference_anneal(q, schedule) -> tuple[np.ndarray, np.ndarray]:
    """Anneal one read and one visit at a time; return (all_read_energies, best_bits).

    Draws from ``default_rng(schedule.seed)`` in the order the
    ``nuanneal.annealer`` docstring fixes: one ``permuted`` call for every
    sweep's visit order, one ``(size, reads)`` array of initial bits, then
    the uniforms in (sweep, visit, read) order.  A flip of variable v is
    accepted when ``(field[v] + lin[v]) * spin[v]`` is below ``-ln(u)/beta``;
    local fields are plain running sums over Python floats.  The final
    bitstrings are scored with the annealer's own matrix expression, whose
    BLAS sums group terms differently from a running sum, so that energies
    compare bit for bit.
    """
    m, sweeps, reads = q.size, schedule.sweeps, schedule.reads
    rng = np.random.default_rng(schedule.seed)
    orders = rng.permuted(np.tile(np.arange(m), (sweeps, 1)), axis=1).tolist()
    initial = rng.integers(0, 2, (m, reads)).T.tolist()
    uniforms = rng.random((sweeps, m, reads))
    if schedule.beta_start is None:
        beta_start, beta_end = default_beta_range(q)
    else:
        beta_start, beta_end = schedule.beta_start, schedule.beta_end
    betas = np.geomspace(beta_start, beta_end, sweeps) if sweeps > 1 else np.full(sweeps, beta_end)
    with np.errstate(divide="ignore"):
        thresholds = (np.log(uniforms) / -betas[:, None, None]).tolist()
    lin, quad = q.lin.tolist(), q.quad.tolist()

    finals = []
    for r in range(reads):
        spin = [1.0 - 2.0 * b for b in initial[r]]
        field = []
        for j in range(m):
            total = 0.0
            for k in range(m):
                total += quad[j][k] * initial[r][k]
            field.append(total)
        for sweep in range(sweeps):
            for t, v in enumerate(orders[sweep]):
                if (field[v] + lin[v]) * spin[v] < thresholds[sweep][t][r]:
                    for j in range(m):
                        field[j] += quad[v][j] * spin[v]
                    spin[v] = -spin[v]
        finals.append([0.5 * (1.0 - s) for s in spin])
    bits = np.array(finals).T.copy()
    energies = q.lin @ bits + 0.5 * np.einsum("ir,ir->r", q.quad @ bits, bits) + q.offset
    return energies, bits[:, int(np.argmin(energies))].astype(np.int8)


# ---------------------------------------------------------------------------
# Reference QUBO expansion
# ---------------------------------------------------------------------------


def live_bits(form) -> np.ndarray:
    """Indices in the full slot-major bit vector (K bits per slot) of a
    :class:`QuboForm`'s bits: the K bits of each of its live slots."""
    return (form.live[:, None] * form.k_bits + np.arange(form.k_bits)).ravel()


def cross_slot_couplers(q, k_bits: int) -> np.ndarray:
    """``q.quad`` with the couplers inside each slot's K bits set to 0, so
    that what is left joins two different slots."""
    n = q.size // k_bits
    cross = q.quad.reshape(n, k_bits, n, k_bits).copy()
    cross[np.arange(n), :, np.arange(n), :] = 0.0
    return cross.reshape(q.size, q.size)


def slot_minimum(q, k_bits: int) -> tuple[np.ndarray, float]:
    """Exact minimum (bits, energy with the offset) of a QUBO over K-bit
    slots that no coupler joins: all 2^K assignments of every slot are
    scored at once and each slot takes its lowest.  A cross-slot coupler
    raises ValueError."""
    if np.any(cross := cross_slot_couplers(q, k_bits)):
        raise ValueError(f"cross-slot coupler of size {np.max(np.abs(cross)):.3g}")
    n = q.size // k_bits
    states = ((np.arange(2**k_bits)[:, None] >> np.arange(k_bits)) & 1).astype(float)
    own = q.quad.reshape(n, k_bits, n, k_bits)[np.arange(n), :, np.arange(n), :]
    energies = q.lin.reshape(n, k_bits) @ states.T + 0.5 * np.einsum("sa,nab,sb->ns", states, own, states)
    best = np.argmin(energies, axis=1)
    return states[best].ravel().astype(np.int8), float(energies[np.arange(n), best].sum() + q.offset)


def qubo_oracle(real_c, params, prior, live=None) -> tuple[np.ndarray, np.ndarray, float]:
    """(lin, quad, offset) of the QUBO of a(q)^T C a(q) over the ``live``
    slots (every slot when None), expanded at the pass's own digit weights.

    ``C·prior`` and the offset are formed on the full matrix, then the live
    slots are cut; couplings are c[i, j] * (w[a] w[b]), the products np.kron
    forms, with the diagonal folded into the linear terms and the pairs
    doubled and mirrored.
    """
    c = np.asarray(real_c, dtype=float)
    prior = np.asarray(prior, dtype=float)
    c_prior, offset = c @ prior, float(prior @ c @ prior)
    if live is not None:
        c, c_prior = c[np.ix_(live, live)], c_prior[live]
    w = digit_weights(params)
    n, k = c.shape[0], w.shape[0]
    quad = (c[:, None, :, None] * np.outer(w, w)[:, None, :]).reshape(n * k, n * k)
    # Adding 0.0 turns signed zeros into 0.0, as the mirrored sum does for the pairs.
    lin = np.diag(quad) + ((2.0 * c_prior)[:, None] * w).ravel() + 0.0
    upper = np.triu(2.0 * quad, 1)
    return lin, upper + upper.T, offset
