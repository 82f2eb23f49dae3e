import warnings

import numpy as np
import pytest

from entqc.entanglement import minimize_witness, pair_analysis, stacked_minimize_witness
from entqc.primitives import (
    apply_unitary,
    fidelity_pure,
    haar_random_unitary,
    operator_schmidt_coefficients,
    operator_schmidt_rank,
    partial_inner,
    partial_trace,
    partial_transpose,
    schmidt_coefficients,
    schmidt_rank,
)
from entqc.tensor import (
    ATOL,
    ContractError,
    DensityMatrix,
    LabelError,
    QubitRegister,
    StateVector,
    _require_densities,
    haar_random_state,
    hermitian_eigenvalues,
    kron,
    reduced_densities,
    reduced_density,
    require_hermitian,
    require_unitary,
    tensor,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Z = np.diag([1.0, -1.0]).astype(complex)

BELL = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def state(labels, amps):
    return StateVector(QubitRegister(tuple(labels)), np.asarray(amps, dtype=complex))


def test_kron_matches_numpy():
    a = np.arange(4).reshape(2, 2)
    b = np.arange(4, 8).reshape(2, 2)
    c = np.eye(2)
    assert np.array_equal(kron(a, b, c), np.kron(np.kron(a, b), c))


def test_register_rejects_duplicate_labels():
    with pytest.raises(LabelError):
        QubitRegister(("a", "a"))


def test_register_axes_lookup():
    reg = QubitRegister(("a", "b", "c"))
    assert reg.axes(("c", "a")) == (2, 0)
    with pytest.raises(LabelError):
        reg.axes(("nope",))


def test_state_vector_requires_normalization():
    with pytest.raises(ContractError, match=r"^state is not normalized: \|psi\| = 1\.4142135623730951$"):
        state("ab", [1, 1, 0, 0])  # the norm as a plain number, not numpy's scalar repr
    # an overflowing norm is rejected as not normalized, without a numpy warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractError, match=r"not normalized: \|psi\| = inf$"):
            StateVector(QubitRegister(("a",)), [1e200, 0])


def test_state_from_raw_normalizes():
    s = StateVector.from_raw(("a", "b"), [3.0, 0.0, 0.0, 4.0])
    assert np.allclose(s.amplitudes, [0.6, 0.0, 0.0, 0.8])
    with pytest.raises(ContractError):
        StateVector.from_raw(("a",), [0.0, 0.0])


@pytest.mark.filterwarnings("error")  # as under -W error: a numpy overflow warning fails it
def test_state_from_raw_normalizes_large_and_small_finite_vectors():
    assert np.array_equal(StateVector.from_raw(("a",), [1e200, 0]).amplitudes, [1.0, 0.0])
    assert np.allclose(StateVector.from_raw(("a",), [3e300, 4e300j]).amplitudes, [0.6, 0.8j])
    assert np.allclose(StateVector.from_raw(("a",), [1.7e308, -1.7e308]).amplitudes, [0.5**0.5, -(0.5**0.5)])
    # the zero threshold is on the true norm, |raw| < 1e-14, not on the largest modulus
    assert np.allclose(StateVector.from_raw(("a",), [8e-15, 8e-15]).amplitudes, [0.5**0.5, 0.5**0.5])
    for raw in ([7e-15, 7e-15], [1e-200, 0.0], [5e-324, 0.0], []):
        with pytest.raises(ContractError, match="cannot normalize a zero amplitude vector"):
            StateVector.from_raw(("a",), raw)


def test_permuted_reorders_amplitudes():
    s = state("ab", [0, 1, 0, 0])  # |0_a 1_b>
    p = s.permuted(("b", "a"))
    assert p.register.labels == ("b", "a")
    assert np.allclose(p.amplitudes, [0, 0, 1, 0])  # |1_b 0_a>


def test_relabeled_keeps_amplitudes():
    s = state("ab", BELL)
    r = s.relabeled({"a": "x"})
    assert r.register.labels == ("x", "b")
    assert np.array_equal(r.amplitudes, s.amplitudes)


def test_apply_unitary_single_qubit():
    s = state("ab", [1, 0, 0, 0])
    flipped = apply_unitary(s, X, ("b",))
    assert np.allclose(flipped.amplitudes, [0, 1, 0, 0])


def test_apply_unitary_matches_dense_contraction():
    rng = np.random.default_rng(42)
    s = state("pqr", haar_random_state(3, rng))
    u = haar_random_unitary(2, rng)
    fast = apply_unitary(s, u, ("p", "r"))
    u4 = u.reshape(2, 2, 2, 2)
    ref = np.einsum("XZac,abc->XbZ", u4, s.tensor_view()).reshape(-1)
    assert np.abs(fast.amplitudes - ref).max() < 1e-14


def test_apply_unitary_rejects_bad_shapes():
    s = state("ab", BELL)
    with pytest.raises(ContractError):
        apply_unitary(s, np.eye(4), ("a",))
    with pytest.raises(LabelError):
        apply_unitary(s, np.eye(2), ("z",))


def test_partial_inner_full_overlap_is_scalar():
    bra = state("xy", BELL)
    ket = state("xy", [1, 0, 0, 0])
    ket_only, bra_only, block = partial_inner(bra, ket)
    assert ket_only == () and bra_only == ()
    assert block.shape == (1, 1)
    assert abs(block[0, 0] - 1 / np.sqrt(2)) < 1e-15


def test_partial_inner_leaves_unshared_labels():
    plus = state("x", np.array([1, 1]) / np.sqrt(2))
    ket = state("xy", BELL)
    ket_only, bra_only, block = partial_inner(plus, ket)
    assert ket_only == ("y",)
    assert np.allclose(block.reshape(-1), [0.5, 0.5])


def test_partial_inner_conjugates_bra():
    bra = state("x", np.array([1, 1j]) / np.sqrt(2))
    ket = state("x", np.array([1, 1j]) / np.sqrt(2))
    _, _, block = partial_inner(bra, ket)
    assert abs(block[0, 0] - 1.0) < 1e-15


def test_reduced_density_of_bell_is_maximally_mixed():
    rho = reduced_density(state("xy", BELL), ("x",))
    assert np.abs(rho.matrix - np.eye(2) / 2).max() < 1e-15


def test_partial_trace_matches_reduced_density():
    rng = np.random.default_rng(3)
    s = state("pqr", haar_random_state(3, rng))
    full = DensityMatrix.from_state(s)
    for keep in (("q",), ("r", "p"), ("p", "q", "r")):
        via_trace = partial_trace(full, keep)
        via_state = reduced_density(s, keep)
        assert via_trace.register.labels == tuple(keep)
        assert np.abs(via_trace.matrix - via_state.matrix).max() < 1e-13


def test_reduced_densities_stack_keeps_of_one_size():
    s = state("pqr", haar_random_state(3, np.random.default_rng(7)))
    stack = reduced_densities(s, [("q",), ("r",), ("p",)])
    assert stack.shape == (3, 2, 2) and not stack.flags.writeable
    assert np.array_equal(stack[1], reduced_density(s, ("r",)).matrix)
    with pytest.raises(ContractError):
        reduced_densities(s, [("q",), ("r", "p")])  # mixed sizes
    with pytest.raises(ContractError):
        reduced_densities(s, [])
    with pytest.raises(LabelError):
        reduced_densities(s, [("q",), ("z",)])
    with pytest.raises(LabelError):
        reduced_densities(s, [("q", "q")])


def test_marginals_of_an_edge_normalized_state_are_accepted():
    # |psi| = 1 + 0.9e-12 passes the constructor's norm check, so its
    # marginals (trace 1 + 1.8e-12) must not be rejected by a second check
    amps = haar_random_state(4, np.random.default_rng(11)) * (1.0 + 0.9e-12)
    s = state("abcd", amps)
    stack = reduced_densities(s, [("a", "b"), ("c", "d")])
    assert np.abs(np.trace(stack, axis1=1, axis2=2) - 1.0).max() > ATOL
    assert np.array_equal(reduced_density(s, ("c", "d")).matrix, stack[1])
    assert pair_analysis(s, ("a", "b")).reduced.register.labels == ("a", "b")
    # the witness search takes the triad marginals as DensityMatrix objects, as they are
    triads = [reduced_density(s, triad) for triad in [("a", "b", "c"), ("b", "c", "d")]]
    minima, angles, _, _ = stacked_minimize_witness(triads, restarts=4, seed=3)
    for rho, minimum, row in zip(triads, minima, angles):
        result = minimize_witness(rho, restarts=4, seed=3)
        assert (result.min_value, result.parameters) == (minimum, tuple(row.tolist()))


def test_partial_trace_is_trace_preserving():
    rng = np.random.default_rng(4)
    for _ in range(25):
        s = state("abc", haar_random_state(3, rng))
        rho = reduced_density(s, ("b", "c"))
        assert abs(np.trace(rho.matrix) - 1.0) < 1e-12


def test_partial_transpose_is_an_involution():
    rng = np.random.default_rng(5)
    s = state("ab", haar_random_state(2, rng))
    rho = DensityMatrix.from_state(s)
    pt = partial_transpose(rho, ("b",))
    # transposing the same subsystem again restores the original matrix
    double = pt.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)
    assert np.abs(double - rho.matrix).max() < 1e-15
    assert abs(np.trace(pt) - 1.0) < 1e-14


def test_partial_transpose_keeps_product_states_positive():
    rng = np.random.default_rng(6)
    for _ in range(50):
        a = haar_random_state(1, rng)
        b = haar_random_state(1, rng)
        s = state("ab", np.kron(a, b))
        pt = partial_transpose(DensityMatrix.from_state(s), ("b",))
        assert hermitian_eigenvalues(pt).min() > -1e-12


def test_hermitian_eigenvalues_sorted_and_validated():
    eigs = hermitian_eigenvalues(np.diag([3.0, -1.0, 2.0]))
    assert np.allclose(eigs, [-1.0, 2.0, 3.0])
    with pytest.raises(ContractError):
        hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_spectrum_invariant_under_unitary_conjugation():
    rng = np.random.default_rng(7)
    h = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
    u = haar_random_unitary(2, rng)
    conj = u @ h @ u.conj().T
    assert np.abs(hermitian_eigenvalues(conj) - [0.1, 0.2, 0.3, 0.4]).max() < 1e-14


def test_fidelity_pure_examples():
    s0 = state("ab", [1, 0, 0, 0])
    s1 = state("ab", BELL)
    assert abs(fidelity_pure(s0, s0) - 1.0) < 1e-15
    assert abs(fidelity_pure(s0, s1) - 0.5) < 1e-15
    phase = state("ab", np.exp(0.7j) * s0.amplitudes)
    assert abs(fidelity_pure(s0, phase) - 1.0) < 1e-15


def test_fidelity_requires_matching_dimension():
    with pytest.raises(ContractError):
        fidelity_pure(state("a", [1, 0]), state("ab", BELL))


def test_haar_unitary_is_unitary_and_seeded():
    u1 = haar_random_unitary(2, 11)
    u2 = haar_random_unitary(2, 11)
    u3 = haar_random_unitary(2, 12)
    assert np.abs(u1.conj().T @ u1 - np.eye(4)).max() < 1e-13
    assert np.array_equal(u1, u2)
    assert np.abs(u1 - u3).max() > 1e-3


def test_haar_unitary_accepts_generator():
    rng = np.random.default_rng(13)
    a = haar_random_unitary(1, rng)
    b = haar_random_unitary(1, rng)
    assert np.abs(a - b).max() > 1e-3  # the stream advances


def test_haar_state_normalized_and_seeded():
    v1 = haar_random_state(2, 21)
    v2 = haar_random_state(2, 21)
    assert abs(np.linalg.norm(v1) - 1.0) < 1e-13
    assert np.array_equal(v1, v2)


def test_schmidt_coefficients_of_bell_and_product():
    bell = state("ab", BELL)
    assert np.abs(schmidt_coefficients(bell, ("a",)) - np.array([1, 1]) / np.sqrt(2)).max() < 1e-15
    assert schmidt_rank(bell, ("a",)) == 2
    prod = state("ab", [0, 1, 0, 0])
    assert schmidt_rank(prod, ("a",)) == 1


def test_schmidt_split_must_be_proper():
    bell = state("ab", BELL)
    with pytest.raises(LabelError):
        schmidt_coefficients(bell, ("a", "b"))


def test_operator_schmidt_examples():
    assert operator_schmidt_rank(np.eye(4)) == 1
    cnot = np.eye(4)[[0, 1, 3, 2]]
    assert operator_schmidt_rank(cnot) == 2
    swap = np.eye(4)[[0, 2, 1, 3]]
    assert operator_schmidt_rank(swap) == 4
    coeffs = operator_schmidt_coefficients(np.eye(4))
    assert abs(coeffs[0] - 2.0) < 1e-14 and coeffs[1:].max() < 1e-14
    stack = np.stack([np.eye(4), cnot, swap])
    assert operator_schmidt_coefficients(stack).shape == (3, 4)
    assert operator_schmidt_rank(stack).tolist() == [1, 2, 4]
    for bad in (np.eye(8), np.eye(2), np.zeros((2, 2, 4, 4))):
        with pytest.raises(ContractError):
            operator_schmidt_coefficients(bad)


def test_density_matrix_validation():
    reg = QubitRegister(("a",))
    with pytest.raises(ContractError):
        DensityMatrix(reg, np.array([[0.5, 1.0], [0.0, 0.5]]))  # not hermitian
    with pytest.raises(ContractError):
        DensityMatrix(reg, np.diag([0.7, 0.7]))  # trace != 1
    with pytest.raises(ContractError):
        DensityMatrix(reg, np.diag([1.5, -0.5]))  # not positive


@pytest.mark.parametrize("bad, message", [
    (np.array([[0.5, 1.0], [0.0, 0.5]]), "not Hermitian"),
    (np.diag([0.7, 0.7]), "trace is not 1"),
    (np.diag([1.5, -0.5]), "negative eigenvalue"),
])
def test_density_checks_cover_every_member_of_a_stack(bad, message):
    # the density checks run on one matrix or on a whole stack at once
    stack = np.stack([np.eye(2) / 2.0, np.diag([1.0, 0.0]), bad]).astype(complex)
    _require_densities(stack[:2])
    with pytest.raises(ContractError, match=message):
        _require_densities(stack)


def test_tensor_requires_disjoint_labels():
    a = state("ab", BELL)
    with pytest.raises(LabelError):
        tensor(a, state("bc", BELL))


def test_require_unitary_checks_a_stack():
    stack = np.stack([haar_random_unitary(2, seed) for seed in range(5)])
    checked = require_unitary(stack)
    assert checked.shape == (5, 4, 4) and not checked.flags.writeable
    assert np.array_equal(checked, stack)
    bad = stack.copy()
    bad[3] *= 1.001
    with pytest.raises(ContractError, match="not unitary"):
        require_unitary(bad)
    with np.errstate(all="raise"):  # a NaN deviation in one member fails silently
        bad[3] = np.diag([1e308, 1.0, 1.0, 1.0])
        with pytest.raises(ContractError, match="not unitary"):
            require_unitary(bad)
    for shape in [(4,), (5, 4, 2)]:
        with pytest.raises(ContractError, match="not square"):
            require_unitary(np.ones(shape))


def test_unitary_and_hermitian_checks_fail_on_overflow_silently():
    # the deviation of this finite matrix overflows to NaN, which must fail
    nan_dev = np.eye(4, dtype=complex)
    nan_dev[:2, :2] = [[1e200, 1e200], [1e200j, -1e200j]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ContractError, match="not unitary"):
            require_unitary(nan_dev)
        with pytest.raises(ContractError, match="not unitary"):
            require_unitary(np.diag([1e308, 1.0]))
        with pytest.raises(ContractError, match="not Hermitian"):
            require_hermitian([[0.0, 1e308], [-1e308, 0.0]])
