import warnings

import numpy as np
import pytest

from entqc import entanglement
from entqc.channel import builtin_channel, generalized_ghz
from entqc.entanglement import (
    CHANNEL_PAIRS,
    CHANNEL_TRIADS,
    MAX_RESTARTS,
    WitnessSearchResult,
    minimize_witness,
    pair_analysis,
    stacked_minimize_witness,
    stacked_pair_analysis,
    stacked_triad_analysis,
    symmetric_w_state,
    three_tangle,
    triad_analysis,
    triad_component_states,
    witness_gradient,
    witness_state,
    witness_value,
)
from entqc.primitives import haar_random_unitary, partial_transpose
from entqc.tensor import (
    ContractError,
    DensityMatrix,
    LabelError,
    QubitRegister,
    StateVector,
    haar_random_state,
    hermitian_eigenvalues,
    kron,
    reduced_density,
)

W_PAIR_EIGENVALUE = (1.0 - np.sqrt(2.0)) / 4.0

# two-qubit marginals of the reference channel on its physically paired qubits
PAIR_A1B1 = 0.25 * np.array(
    [[1, 0, 0, 1], [0, 1, -1, 0], [0, -1, 1, 0], [1, 0, 0, 1]], dtype=complex
)
PAIR_A2B2 = 0.25 * np.array(
    [[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, 1, 0], [1, 0, 0, 1]], dtype=complex
)

# rotation angles whose witness state matches the first GHZ component of the
# (A1,A2,B1) triad; found by solving the Euler factorization by hand
OPTIMAL_TRIAD_PARAMS = np.array(
    [-np.pi / 2, np.pi / 2, np.pi,
     np.pi / 2, np.pi / 2, -np.pi,
     np.pi / 2, np.pi / 2, -np.pi]
)

GHZ3 = np.zeros(8, dtype=complex)
GHZ3[0] = GHZ3[7] = 1.0 / np.sqrt(2.0)


def reference_channel():
    return builtin_channel("bell-transformed").state


# --- pairwise PT analysis ----------------------------------------------------

def test_pair_analysis_epr_channel():
    epr = builtin_channel("epr").state
    paired = pair_analysis(epr, ("A1", "B1"))
    assert paired.entangled
    assert abs(paired.min_pt_eigenvalue + 0.5) < 1e-12
    crossed = pair_analysis(epr, ("A1", "A2"))
    assert not crossed.entangled
    assert abs(crossed.min_pt_eigenvalue - 0.25) < 1e-12
    assert np.abs(crossed.reduced.matrix - np.eye(4) / 4).max() < 1e-12


def test_pair_table_of_reference_channel():
    state = reference_channel()
    expected = {("A1", "B1"): PAIR_A1B1, ("A2", "B2"): PAIR_A2B2}
    for pair in CHANNEL_PAIRS:
        rep = pair_analysis(state, pair)
        assert not rep.entangled, pair
        if pair in expected:
            assert np.abs(rep.reduced.matrix - expected[pair]).max() < 1e-12
            pt = partial_transpose(rep.reduced, (pair[1],))
            spectrum = np.sort(hermitian_eigenvalues(pt))
            assert np.abs(spectrum - [0, 0, 0.5, 0.5]).max() < 1e-10
            assert abs(rep.min_pt_eigenvalue) < 1e-10
        else:
            assert np.abs(rep.reduced.matrix - np.eye(4) / 4).max() < 1e-12


def test_single_qubit_marginals_of_reference_channel():
    state = reference_channel()
    for label in state.register.labels:
        marginal = reduced_density(state, (label,)).matrix
        assert np.abs(marginal - np.eye(2) / 2).max() < 1e-12


def test_pair_analysis_errors():
    with pytest.raises(LabelError):
        pair_analysis(reference_channel(), ("A1", "Z9"))
    bell = StateVector(
        QubitRegister(("a", "b")), np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    )
    with pytest.raises(ContractError):
        pair_analysis(bell, ("a", "b"))


@pytest.mark.parametrize("pair", [(), ("A1",), ("A1", "A1"), ("A1", "A2", "B1"), ("A1", "A2", "B1", "B2")])
def test_pair_analysis_rejects_anything_but_two_distinct_labels(pair):
    state = reference_channel()
    with pytest.raises(ContractError, match="two distinct qubit labels"):
        pair_analysis(state, pair)
    # one bad pair fails the whole stack
    with pytest.raises(ContractError, match="two distinct qubit labels"):
        stacked_pair_analysis(state, [("A1", "B1"), pair])


def test_stacked_analyses_keep_the_order_given():
    state = reference_channel()
    reduced, spectra, verdicts = stacked_pair_analysis(state, CHANNEL_PAIRS[::-1])
    assert reduced.shape == (6, 4, 4) and spectra.shape == (6, 4) and verdicts.shape == (6,)
    for pair, rho in zip(CHANNEL_PAIRS[::-1], reduced):
        assert np.array_equal(rho, reduced_density(state, pair).matrix)
    reduced, spectra, fidelities, tangles = stacked_triad_analysis(state, CHANNEL_TRIADS[::-1])
    assert reduced.shape == (4, 8, 8) and spectra.shape == (4, 8)
    assert fidelities.shape == tangles.shape == (4, 2)
    with pytest.raises(LabelError):
        stacked_triad_analysis(state, [CHANNEL_TRIADS[0], ("A1", "A2")])


def test_w_state_pairs_all_weakly_entangled():
    w = symmetric_w_state()
    for pair in CHANNEL_PAIRS:
        rep = pair_analysis(w, pair)
        assert rep.entangled, pair
        assert abs(rep.min_pt_eigenvalue - W_PAIR_EIGENVALUE) < 1e-10


# --- triad structure ----------------------------------------------------------

def test_triad_component_states_frozen_row():
    comp0, comp1 = triad_component_states(("A1", "A2", "B1"))
    expected0 = np.zeros(8, dtype=complex)
    expected0[[0b000, 0b011, 0b101, 0b110]] = [0.5, -0.5, 0.5, 0.5]
    expected1 = np.zeros(8, dtype=complex)
    expected1[[0b001, 0b010, 0b100, 0b111]] = [-0.5, 0.5, 0.5, 0.5]
    assert np.abs(comp0 - expected0).max() < 1e-15
    assert np.abs(comp1 - expected1).max() < 1e-15
    assert abs(np.vdot(comp0, comp1)) < 1e-15
    with pytest.raises(LabelError):
        triad_component_states(("A1", "A2", "Z9"))


def test_triad_components_are_maximal_ghz():
    for triad in CHANNEL_TRIADS:
        for comp in triad_component_states(triad):
            assert abs(np.linalg.norm(comp) - 1.0) < 1e-14
            assert abs(three_tangle(comp) - 1.0) < 1e-8


def test_triad_analysis_of_reference_channel():
    state = reference_channel()
    for triad in CHANNEL_TRIADS:
        rep = triad_analysis(state, triad)
        assert max(abs(f - 1.0) for f in rep.ghz_component_fidelities) < 1e-10
        assert max(abs(t - 1.0) for t in rep.three_tangles) < 1e-8
        comp0, comp1 = triad_component_states(triad)
        recon = 0.5 * np.outer(comp0, comp0.conj()) + 0.5 * np.outer(comp1, comp1.conj())
        assert np.abs(rep.reduced.matrix - recon).max() < 1e-10
        eigs = np.sort(hermitian_eigenvalues(rep.reduced.matrix))
        assert np.abs(eigs - [0, 0, 0, 0, 0, 0, 0.5, 0.5]).max() < 1e-10


def test_triad_analysis_of_canonical_ghz():
    rep = triad_analysis(generalized_ghz(), ("A1", "A2", "B1"))
    # the eigenbasis is the classical {|000>, |111>} mixture, which overlaps
    # each reference component in a single amplitude of weight 1/2
    assert max(abs(f - 0.25) for f in rep.ghz_component_fidelities) < 1e-10
    assert max(rep.three_tangles) < 1e-10
    eigs = np.sort(hermitian_eigenvalues(rep.reduced.matrix))
    assert np.abs(eigs - [0, 0, 0, 0, 0, 0, 0.5, 0.5]).max() < 1e-12


def test_triad_analysis_errors():
    with pytest.raises(LabelError):
        triad_analysis(reference_channel(), ("A1", "A2", "Z9"))


# --- three-tangle -------------------------------------------------------------

def test_three_tangle_examples():
    assert abs(three_tangle(GHZ3) - 1.0) < 1e-14
    w = np.zeros(8, dtype=complex)
    w[[0b001, 0b010, 0b100]] = 1.0 / np.sqrt(3.0)
    assert three_tangle(w) < 1e-14
    product = np.zeros(8, dtype=complex)
    product[0] = 1.0
    assert three_tangle(product) < 1e-14


def test_three_tangle_of_weighted_ghz():
    for theta in (0.1, 0.4, np.pi / 4, 1.2):
        amps = np.zeros(8, dtype=complex)
        amps[0] = np.cos(theta)
        amps[7] = np.sin(theta)
        assert abs(three_tangle(amps) - np.sin(2 * theta) ** 2) < 1e-12


def test_three_tangle_ignores_phases():
    amps = np.zeros(8, dtype=complex)
    amps[0] = 1.0 / np.sqrt(2.0)
    amps[7] = np.exp(1.3j) / np.sqrt(2.0)
    assert abs(three_tangle(amps) - 1.0) < 1e-14


def test_three_tangle_local_unitary_invariance():
    rng = np.random.default_rng(23)
    psi = haar_random_state(3, rng)
    base = three_tangle(psi)
    for _ in range(20):
        rotations = [haar_random_unitary(1, rng) for _ in range(3)]
        rotated = kron(*rotations) @ psi
        assert abs(three_tangle(rotated) - base) < 1e-9


def test_three_tangle_input_validation():
    with pytest.raises(ContractError):
        three_tangle(np.ones(8))  # unnormalized
    with pytest.raises(ContractError):
        three_tangle(GHZ3[:4])  # not three qubits
    with pytest.raises(ContractError):
        three_tangle(GHZ3.reshape(2, 2, 2))  # neither a state (8,) nor a stack (n, 8)
    with pytest.raises(ContractError):
        three_tangle(np.stack([GHZ3, np.ones(8)]))  # one unnormalized member
    assert three_tangle(np.stack([GHZ3, GHZ3])).shape == (2,)


@pytest.mark.parametrize("amps, norm", [
    ([1.5] + [0] * 7, "1.5"),
    (np.stack([GHZ3, [0, 0, 2] + [0] * 5, [3] + [0] * 7]), "2.0"),  # the first member that is off
    (np.full(8, 1e200), "inf"),
])
def test_three_tangle_writes_the_norm_as_a_plain_number(amps, norm):
    with pytest.raises(ContractError) as info:
        three_tangle(amps)
    assert str(info.value) == f"state is not normalized: |psi| = {norm}"


@pytest.mark.parametrize("amps", [np.full(8, 1e200), np.full((2, 8), 1e200 + 1e200j)])
def test_three_tangle_rejects_an_overflowing_norm_without_a_warning(amps):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractError, match="not normalized"):
            three_tangle(amps)


# --- witness values and gradient ----------------------------------------------

def triad_density():
    return reduced_density(reference_channel(), ("A1", "A2", "B1"))


def test_witness_value_on_its_own_ghz():
    rho = np.outer(GHZ3, GHZ3.conj())
    assert abs(witness_value(rho, np.zeros(9)) + 0.25) < 1e-14


def test_witness_value_on_maximally_mixed():
    rng = np.random.default_rng(24)
    flat = np.eye(8) / 8.0
    for _ in range(5):
        params = rng.uniform(0, 2 * np.pi, 9)
        assert abs(witness_value(flat, params) - 0.625) < 1e-14


def test_witness_value_at_derived_triad_optimum():
    assert abs(witness_value(triad_density(), OPTIMAL_TRIAD_PARAMS) - 0.25) < 1e-12


def test_witness_state_is_normalized_rotated_ghz():
    rng = np.random.default_rng(25)
    params = rng.uniform(0, 2 * np.pi, 9)
    phi = witness_state(params)
    assert abs(np.linalg.norm(phi) - 1.0) < 1e-14
    assert abs(three_tangle(phi) - 1.0) < 1e-10
    assert witness_state(np.zeros(9))[0] == pytest.approx(1 / np.sqrt(2))


def test_witness_value_bounded_by_largest_eigenvalue():
    rng = np.random.default_rng(26)
    rhos = [triad_density().matrix, np.eye(8) / 8.0, np.outer(GHZ3, GHZ3.conj())]
    for rho in rhos:
        floor = 0.75 - hermitian_eigenvalues(rho).max()
        for _ in range(20):
            params = rng.uniform(0, 2 * np.pi, 9)
            assert witness_value(rho, params) >= floor - 1e-12


def test_witness_rejects_bad_inputs():
    with pytest.raises(ContractError):
        witness_value(np.eye(4) / 4.0, np.zeros(9))
    for shape in [(8,), (3, 3), (2, 2, 9), (5, 8)]:
        for witness in (witness_value, witness_gradient):
            with pytest.raises(ContractError):
                witness(np.eye(8) / 8.0, np.zeros(shape))
    # an (8, 8) array is checked as a density matrix: trace 8, trace 2, not positive
    for rho in (np.eye(8), 2 * np.eye(8) / 8.0, np.diag([1, 1, 1, 1, -1, -1, 1, -1]) / 2.0):
        with pytest.raises(ContractError, match="trace is not 1|negative eigenvalue"):
            witness_value(rho, np.zeros(9))
        with pytest.raises(ContractError, match="trace is not 1|negative eigenvalue"):
            minimize_witness(rho, restarts=1)
    # one density is read as a stack of one, so these fail as for the stacked search
    two_qubit = DensityMatrix(QubitRegister(("a", "b")), np.eye(4) / 4.0)
    for rho, message in ((two_qubit, r"shape \(4, 4\)"), (np.zeros((2, 8, 8)), r"shape \(2, 8, 8\)"),
                         ([[0.5, 0.0], [0.5]], "not a numeric array")):
        for call in (lambda r: witness_value(r, np.zeros(9)), lambda r: witness_gradient(r, np.zeros(9)),
                     lambda r: minimize_witness(r, restarts=1)):
            with pytest.raises(ContractError, match=message):
                call(rho)
    # non-finite angles fail as amplitudes do, without a numpy warning
    flat = np.eye(8) / 8.0
    calls = (lambda p: witness_value(flat, p), lambda p: witness_gradient(flat, p), witness_state)
    for params in (np.full(9, np.nan), np.full(9, np.inf), np.full((2, 9), -np.inf)):
        for call in calls:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ContractError, match="non-finite"):
                    call(params)


def test_witness_gradient_matches_finite_differences():
    rho = triad_density()
    rng = np.random.default_rng(27)
    step = 1e-5
    for _ in range(20):
        params = rng.uniform(0, 2 * np.pi, 9)
        analytic = witness_gradient(rho, params)
        numeric = np.empty(9)
        for j in range(9):
            up, down = params.copy(), params.copy()
            up[j] += step
            down[j] -= step
            numeric[j] = (witness_value(rho, up) - witness_value(rho, down)) / (2 * step)
        assert np.abs(analytic - numeric).max() < 1e-6


def test_witness_gradient_vanishes_on_flat_landscape():
    grad = witness_gradient(np.eye(8) / 8.0, np.ones(9))
    assert np.abs(grad).max() < 1e-14


# --- witness minimization -------------------------------------------------------

def test_minimize_witness_on_each_triad():
    state = reference_channel()
    for triad in CHANNEL_TRIADS:
        result = minimize_witness(reduced_density(state, triad), restarts=16, seed=3)
        assert abs(result.min_value - 0.25) < 1e-3, triad
        assert result.restarts == 16
        assert len(result.parameters) == 9


def test_minimize_witness_recovers_planted_ghz():
    rng = np.random.default_rng(99)
    planted = rng.uniform(0, 2 * np.pi, 9)
    phi = witness_state(planted)
    rho = np.outer(phi, phi.conj())
    result = minimize_witness(rho, restarts=16, seed=5)
    assert abs(result.min_value + 0.25) < 1e-4
    recovered = witness_state(np.asarray(result.parameters))
    assert abs(abs(np.vdot(recovered, phi)) ** 2 - 1.0) < 1e-4


def test_minimize_witness_flat_landscape():
    result = minimize_witness(np.eye(8) / 8.0, restarts=8, seed=1)
    assert abs(result.min_value - 0.625) < 1e-6
    assert result.converged_fraction == 1.0


def test_minimize_witness_is_deterministic():
    rho = triad_density()
    a = minimize_witness(rho, restarts=6, seed=11)
    b = minimize_witness(rho, restarts=6, seed=11)
    assert a.min_value == b.min_value
    assert a.parameters == b.parameters
    assert a.converged_fraction == b.converged_fraction


def test_minimize_witness_respects_global_bound():
    rho = triad_density()
    floor = 0.75 - hermitian_eigenvalues(rho.matrix).max()
    result = minimize_witness(rho, restarts=8, seed=2)
    assert result.min_value >= floor - 1e-9


def repro_witness_cases():
    """The `repro` witness section's six inputs at seed 7: four triads, the
    planted GHZ state and I/8."""
    state = reference_channel()
    cases = [reduced_density(state, triad).matrix for triad in CHANNEL_TRIADS]
    phi = witness_state(np.random.default_rng([7, 4242]).uniform(0.0, 2.0 * np.pi, 9))
    return cases + [np.outer(phi, phi.conj()), np.eye(8) / 8.0]


def test_minimize_witness_reaches_the_certificate_below_the_sweep_cap(monkeypatch):
    sweeps, ascend = [], entanglement._ascend_batch

    def counted(m, rots):
        result = ascend(m, rots)
        sweeps.append(result[1])
        return result

    monkeypatch.setattr(entanglement, "_ascend_batch", counted)
    for rho in repro_witness_cases():
        result = minimize_witness(rho, restarts=64, seed=7)
        # 3/4 - lambda_max(rho) bounds the witness from below; all six reach it
        floor = 0.75 - np.linalg.eigvalsh(rho).max()
        assert abs(result.min_value - floor) <= 1e-12
        assert witness_value(rho, result.parameters) == result.min_value
    assert len(sweeps) == 6 and max(sweeps) < entanglement.MAX_SWEEPS


def test_a_search_that_reaches_the_sweep_cap_stops_there(monkeypatch):
    # sweep 1 always rises from -inf, so with a cap of 1 no density stops by the no-rise rule
    monkeypatch.setattr(entanglement, "MAX_SWEEPS", 1)
    rhos = np.array(repro_witness_cases())
    minima, angles, converged, sweeps = stacked_minimize_witness(rhos, restarts=4, seed=7)
    assert sweeps.tolist() == [1] * len(rhos)
    for rho, minimum, row, share in zip(rhos, minima, angles, converged, strict=True):
        result = minimize_witness(rho, restarts=4, seed=7)
        assert (result.min_value, result.parameters, result.converged_fraction) == (minimum, tuple(row.tolist()), share)


def test_minimize_witness_validates_restarts():
    for restarts in (0, MAX_RESTARTS + 1, 2.5, True):
        with pytest.raises(ContractError, match="restarts"):
            minimize_witness(np.eye(8) / 8.0, restarts=restarts, seed=0)


@pytest.mark.parametrize("seed", [-1, 1.5, True, np.bool_(False), np.float64(2.0), "3", None])
def test_witness_search_rejects_a_negative_non_integer_or_bool_seed(seed):
    flat = np.eye(8) / 8.0
    with pytest.raises(ContractError, match="seed"):
        minimize_witness(flat, restarts=2, seed=seed)
    with pytest.raises(ContractError, match="seed"):
        stacked_minimize_witness(flat[None], restarts=2, seed=seed)


def test_witness_search_takes_python_and_numpy_integer_seeds():
    flat = np.eye(8) / 8.0
    results = [minimize_witness(flat, restarts=2, seed=seed) for seed in (3, np.int64(3), np.uint8(3))]
    assert len({result.parameters for result in results}) == 1


@pytest.mark.parametrize("rhos", [
    np.zeros((0, 8, 8)),  # empty
    np.eye(8) / 8.0,  # one matrix, not a stack
    np.full((2, 4, 4), 0.25),  # two-qubit matrices
    (np.eye(8) / 8.0)[None, None],  # a stack of stacks
    [np.eye(8) / 8.0, np.eye(4) / 4.0],  # ragged
    [[["a"] * 8] * 8],  # not numeric
    np.eye(8)[None],  # trace 8: not a density matrix
    [DensityMatrix(QubitRegister(("a", "b")), np.eye(4) / 4.0)],  # a two-qubit DensityMatrix
])
def test_stacked_witness_search_rejects_an_empty_or_mis_shaped_stack(rhos):
    with pytest.raises(ContractError):
        stacked_minimize_witness(rhos, restarts=2, seed=0)


def test_stacked_witness_search_runs_a_long_stack_in_chunks(monkeypatch):
    # at most MAX_RESTARTS rows (densities x restarts) per ascent: 16 // 5 = 3 densities
    monkeypatch.setattr(entanglement, "MAX_RESTARTS", 16)
    sizes, ascend = [], entanglement._ascend_batch

    def counted(ms, rots):
        sizes.append(rots.shape[3:])
        return ascend(ms, rots)

    draws, default_rng = [], np.random.default_rng

    def counted_rng(seed):
        draws.append(seed)
        return default_rng(seed)

    rhos = np.array(repro_witness_cases() * 2)
    monkeypatch.setattr(entanglement, "_ascend_batch", counted)
    monkeypatch.setattr(np.random, "default_rng", counted_rng)
    minima, angles, converged, sweeps = stacked_minimize_witness(rhos, restarts=5, seed=7)
    assert sizes == [(3, 5)] * 4
    assert draws == [[7, i] for i in range(5)]  # the starts are drawn once for all chunks
    assert minima.shape == converged.shape == sweeps.shape == (12,) and angles.shape == (12, 9)
    for rho, minimum, row in zip(rhos, minima, angles):
        result = minimize_witness(rho, restarts=5, seed=7)
        assert (result.min_value, result.parameters) == (minimum, tuple(row.tolist()))


# --- PT criterion sweeps ---------------------------------------------------------

def _product_state(rng):
    return np.kron(haar_random_state(1, rng), haar_random_state(1, rng))


def test_ppt_sweep_separable_mixtures():
    rng = np.random.default_rng(28)
    reg = QubitRegister(("a", "b"))
    worst = np.inf
    for _ in range(500):
        k = int(rng.integers(1, 5))
        weights = rng.dirichlet(np.ones(k))
        mat = np.zeros((4, 4), dtype=complex)
        for w in weights:
            v = _product_state(rng)
            mat += w * np.outer(v, v.conj())
        pt = partial_transpose(DensityMatrix(reg, mat), ("b",))
        worst = min(worst, hermitian_eigenvalues(pt).min())
    assert worst >= -1e-10


def test_ppt_sweep_entangled_pure_states():
    rng = np.random.default_rng(29)
    reg = QubitRegister(("a", "b"))
    for _ in range(500):
        v = haar_random_state(2, rng)
        rho = DensityMatrix(reg, np.outer(v, v.conj()))
        min_eig = hermitian_eigenvalues(partial_transpose(rho, ("b",))).min()
        assert min_eig < -1e-6


def test_witness_search_result_admits_only_the_witness_range():
    # 3/4 - <phi|rho|phi> lies in [-1/4, 3/4]
    for ok in (-0.25, 0.0, 0.75):
        assert WitnessSearchResult(ok, (0.0,) * 9, 1, 1.0).min_value == ok
    for bad in (-0.26, -1.0, 0.76):
        with pytest.raises(ContractError):
            WitnessSearchResult(bad, (0.0,) * 9, 1, 1.0)
