"""Property-based invariants of the stacked analysis primitives, the
witness search's Euler-angle read-out, the standard protocol and the
corrections a basis/channel pairing implies.

Hypothesis draws the sizes, seeds and state families; every numpy draw comes
from a seeded generator. The settings are fixed and derandomized, with no
example database, so every run checks the same examples.
"""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entqc.channel import ChannelSpec, builtin_channel, dressed_channel
from entqc.entanglement import _euler_angles, _euler_columns, three_tangle, witness_state
from entqc.primitives import fidelity_pure, haar_unitaries, partial_trace
from entqc.relations import corrections_from, series_form
from entqc.teleport import (
    OUTCOMES,
    UnknownState,
    measurement_basis,
    run_protocol,
    standard_corrections,
    standard_protocol_batch,
    teleport_all_outcomes,
)
from entqc.tensor import ContractError, DensityMatrix, StateVector, haar_random_state, reduced_densities

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)
SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


@PROPERTY_SETTINGS
@given(n_qubits=st.integers(min_value=1, max_value=5), seed=SEEDS, zeros=st.integers(0, 3))
def test_reduced_densities_equal_partial_trace_of_the_projector(n_qubits, seed, zeros):
    rng = np.random.default_rng(seed)
    amps = haar_random_state(n_qubits, rng)
    # zero a few amplitudes too, for rank-deficient marginals
    amps[rng.choice(amps.size, min(zeros, amps.size - 1), replace=False)] = 0.0
    labels = tuple(f"q{i}" for i in range(n_qubits))
    state = StateVector.from_raw(labels, amps)
    projector = DensityMatrix.from_state(state)
    for k in range(1, n_qubits + 1):
        keeps = list(itertools.permutations(labels, k))
        for keep, rho in zip(keeps, reduced_densities(state, keeps), strict=True):
            assert np.abs(rho - partial_trace(projector, keep).matrix).max() <= 1e-13


def three_qubit_states(family: str, rng, n: int) -> np.ndarray:
    if family == "haar":
        return np.array([haar_random_state(3, rng) for _ in range(n)])
    states = np.zeros((n, 8), dtype=complex)
    if family == "ghz":  # cos t |000> + e^{i p} sin t |111>: tangle sin^2(2t)
        t, p = rng.uniform(0.0, np.pi, (2, n))
        states[:, 0], states[:, 7] = np.cos(t), np.exp(1j * p) * np.sin(t)
    else:  # the W class: tangle 0
        w = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
        states[:, [1, 2, 4]] = w / np.linalg.norm(w, axis=1, keepdims=True)
    return states


@PROPERTY_SETTINGS
@given(family=st.sampled_from(["haar", "ghz", "w"]), n=st.integers(1, 16), seed=SEEDS)
def test_stacked_three_tangle_is_invariant_under_local_unitaries(family, n, seed):
    rng = np.random.default_rng(seed)
    states = three_qubit_states(family, rng, n)
    u = haar_unitaries(rng.standard_normal((n, 3, 2, 2, 2)))
    local = np.einsum("nai,nbj,nck->nabcijk", u[:, 0], u[:, 1], u[:, 2]).reshape(n, 8, 8)
    rotated = np.einsum("nij,nj->ni", local, states)
    tangles = three_tangle(states)
    assert tangles.shape == (n,)
    assert np.abs(three_tangle(rotated) - tangles).max() <= 1e-12
    if family == "ghz":
        t = np.arctan2(np.abs(states[:, 7]), np.abs(states[:, 0]))
        assert np.abs(tangles - np.sin(2.0 * t) ** 2).max() <= 1e-12
    elif family == "w":
        assert tangles.max() <= 1e-12


ANGLES = st.floats(min_value=-4.0 * np.pi, max_value=4.0 * np.pi, allow_nan=False)
# b = 0 and b = pi are the Euler chart's singular points
TILTS = st.one_of(st.sampled_from([0.0, np.pi]), ANGLES)


@PROPERTY_SETTINGS
@given(angles=st.lists(st.tuples(ANGLES, TILTS, ANGLES), min_size=3, max_size=3))
def test_euler_read_out_reproduces_the_witness_state(angles):
    params = np.array(angles, dtype=float).reshape(1, 9)
    read_out = _euler_angles(_euler_columns(params))
    overlap = np.vdot(witness_state(read_out[0]), witness_state(params[0]))
    assert abs(abs(overlap) - 1.0) <= 1e-12


@PROPERTY_SETTINGS
@given(seed=SEEDS)
def test_teleport_all_outcomes_is_the_standard_protocol(seed):
    rng = np.random.default_rng(seed)
    spec = ChannelSpec(haar_unitaries(rng.standard_normal((2, 4, 4))))
    unknown = UnknownState(haar_random_state(2, rng))
    outcomes = teleport_all_outcomes(unknown, spec)
    # the same bits as the factored kernel at T = 1
    batch = [a[0] for a in standard_protocol_batch(unknown.coefficients[None], spec.dressing[None])]
    assert [out.outcome for out in outcomes] == list(OUTCOMES)
    assert np.array_equal([out.probability for out in outcomes], batch[0])
    assert np.array_equal([out.bob_state.amplitudes for out in outcomes], batch[1])
    assert np.array_equal([out.corrected_state.amplitudes for out in outcomes], batch[2])
    # the object path (checked basis, dressed channel state, sigma-pairs) sums the same
    # terms in another order: equal within 1e-15
    reference = run_protocol(unknown, measurement_basis(spec), dressed_channel(spec),
                             standard_corrections())
    for out, ref in zip(outcomes, reference, strict=True):
        assert out.outcome == ref.outcome and abs(out.probability - ref.probability) <= 1e-15
        for mine, theirs in ((out.bob_state, ref.bob_state), (out.corrected_state, ref.corrected_state)):
            assert mine.register == theirs.register
            assert np.abs(mine.amplitudes - theirs.amplitudes).max() <= 1e-15
    probabilities = np.array([out.probability for out in outcomes])
    bob = np.array([out.bob_state.amplitudes for out in outcomes])
    assert np.abs(probabilities - 1.0 / 16.0).max() <= 1e-12
    for out in outcomes:
        assert abs(fidelity_pure(out.corrected_state, unknown.as_state()) - 1.0) <= 1e-12
    # the receiver's outcome-averaged state is I/4: no signalling
    marginal = np.einsum("g,gi,gj->ij", probabilities, bob, bob.conj())
    assert np.abs(marginal - np.eye(4) / 4.0).max() <= 1e-12


@PROPERTY_SETTINGS
@given(seed=SEEDS, eps=st.floats(min_value=0.0, max_value=0.495e-12))
def test_corrections_from_returns_the_corrections_of_every_accepted_dressing(seed, eps):
    """A Haar dressing times 1 + eps J (J the all-ones matrix) is within ATOL of unitary,
    so ChannelSpec accepts it. The corrections implied by its pairings are computed from
    it, off by a few times 1e-12, and returned; a channel that is not maximally entangled
    still fails."""
    rng = np.random.default_rng(seed)
    spec = ChannelSpec(haar_unitaries(rng.standard_normal((2, 4, 4))) @ (np.eye(4) + eps * np.ones((4, 4))))
    channel, basis = dressed_channel(spec), measurement_basis(spec)
    assert np.abs(corrections_from(basis, channel).ops - standard_corrections().ops).max() <= 1e-10
    series_basis, series_corrections = series_form(spec)
    assert np.abs(corrections_from(series_basis, channel).ops - series_corrections.ops).max() <= 1e-10
    with pytest.raises(ContractError, match="correction is not unitary"):
        corrections_from(basis, builtin_channel("ghz").state)
