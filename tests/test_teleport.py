import tracemalloc
import warnings

import numpy as np
import pytest

from entqc.channel import (
    ChannelSpec,
    GhzSpec,
    builtin_channel,
    dressed_channel,
    epr_pair_channel,
)
from entqc.entanglement import WitnessSearchResult, pair_analysis, triad_analysis
from entqc.primitives import (
    apply_unitary,
    fidelity_pure,
    haar_draws,
    haar_random_unitary,
    operator_schmidt_rank,
    schmidt_rank,
)
from entqc.relations import (
    BASIS_SPLITS,
    corrections_from,
    invariance_transform,
    is_separable_basis,
    partial_inner_transfer,
    povm_check,
    series_form,
)
from entqc.report import SuiteConfig
from entqc.teleport import (
    MEASURED_LABELS,
    OUTCOMES,
    CorrectionTable,
    MeasurementBasis,
    UnknownState,
    measurement_basis,
    pauli_pair,
    run_protocol,
    standard_corrections,
    standard_protocol_batch,
    teleport_all_outcomes,
)
from entqc.tensor import PAULIS, ContractError, DensityMatrix, QubitRegister, StateVector, _Frozen, tensor

SIGMA_Z = np.diag([1.0, -1.0]).astype(complex)
BELL = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def bell_pair(left, right):
    return StateVector(QubitRegister((left, right)), BELL)


def test_pauli_pair_values():
    assert np.array_equal(pauli_pair(1, 1), np.eye(4, dtype=complex))
    assert np.array_equal(pauli_pair(4, 4), np.kron(SIGMA_Z, SIGMA_Z))
    with pytest.raises(ContractError):
        pauli_pair(0, 1)
    with pytest.raises(ContractError):
        pauli_pair(1, 5)


def test_unknown_state_validation_and_builders():
    with pytest.raises(ContractError):
        UnknownState([1.0, 1.0, 0.0, 0.0])
    s = UnknownState.from_reals([1, 0, 0, 0, 0, 0, 0, 0])
    assert np.array_equal(s.coefficients, [1, 0, 0, 0])
    with pytest.raises(ContractError):
        UnknownState.from_reals([1, 0, 0])
    a = UnknownState.random(33)
    b = UnknownState.random(33)
    assert np.array_equal(a.coefficients, b.coefficients)
    assert a.as_state().register.labels == ("U1", "U2")


def test_measurement_basis_is_orthonormal_and_complete():
    for name in ("epr", "bell-transformed"):
        basis = measurement_basis(builtin_channel(name).spec)
        stack = np.stack([k.amplitudes for k in basis.kets])
        assert np.abs(stack @ stack.conj().T - np.eye(16)).max() < 1e-12
        assert np.abs(stack.T @ stack.conj() - np.eye(16)).max() < 1e-12


def test_epr_basis_kets_are_bell_products():
    basis = measurement_basis(builtin_channel("epr").spec)
    for (alpha, beta), ket in basis.items():
        # each ket is (1 (x) sigma) acting on an EPR half, pair by pair
        left = apply_unitary(bell_pair("A1", "U1"), PAULIS[alpha - 1], ("U1",))
        right = apply_unitary(bell_pair("A2", "U2"), PAULIS[beta - 1], ("U2",))
        product = tensor(left, right).permuted(MEASURED_LABELS)
        assert abs(fidelity_pure(product, ket) - 1.0) < 1e-13


def test_basis_and_table_each_hold_one_read_only_array():
    basis = measurement_basis(builtin_channel("bell-transformed").spec)
    assert basis.amplitudes.shape == (16, 16) and not basis.amplitudes.flags.writeable
    assert np.array_equal(MeasurementBasis(basis.kets).amplitudes, basis.amplitudes)
    for i, (outcome, ket) in enumerate(basis.items()):
        assert ket.register.labels == MEASURED_LABELS
        assert np.array_equal(ket.amplitudes, basis.amplitudes[i])
        assert np.array_equal(basis.ket(outcome).amplitudes, ket.amplitudes)
    table = standard_corrections()
    assert table.ops.shape == (16, 4, 4) and not table.ops.flags.writeable
    assert np.array_equal(CorrectionTable(list(table.ops)).ops, table.ops)
    # a ragged set, and ndarray stacks of the wrong member shape
    for ops in ([np.eye(4)] * 15 + [np.eye(2)], np.zeros((16, 2, 2)), np.zeros((16, 4))):
        with pytest.raises(ContractError, match=r"corrections act on two qubits \(4x4\)"):
            CorrectionTable(ops)


def test_measurement_basis_rejects_wrong_register():
    bad = [
        StateVector(QubitRegister(("A1", "A2", "U1", "X")), k.amplitudes)
        for k in measurement_basis(builtin_channel("epr").spec).kets
    ]
    with pytest.raises(ContractError):
        MeasurementBasis(tuple(bad))


def test_measurement_basis_rejects_nonorthogonal_kets():
    kets = measurement_basis(builtin_channel("epr").spec).kets
    with pytest.raises(ContractError):
        MeasurementBasis((kets[0],) * 16)
    # Gram deviations that overflow to NaN fail too, without a numpy warning
    for big in (1e200, 1e155):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ContractError, match="not orthonormal"):
                MeasurementBasis(np.full((16, 16), big + big * 1j))


def test_transfer_blocks_are_quarter_unitaries():
    for name in ("epr", "bell-transformed"):
        resolved = builtin_channel(name)
        basis = measurement_basis(resolved.spec)
        for _, ket in basis.items():
            block = partial_inner_transfer(ket, resolved.state)
            svals = np.linalg.svd(block, compute_uv=False)
            assert np.abs(svals - 0.25).max() < 1e-13


def test_epr_transfer_block_is_quarter_pauli():
    resolved = builtin_channel("epr")
    basis = measurement_basis(resolved.spec)
    for outcome, ket in basis.items():
        block = partial_inner_transfer(ket, resolved.state)
        assert np.abs(block - 0.25 * pauli_pair(*outcome).conj().T).max() < 1e-13


def test_transfer_requires_shared_registers():
    basis = measurement_basis(builtin_channel("epr").spec)
    wrong = StateVector(
        QubitRegister(("C1", "C2", "D1", "D2")), epr_pair_channel().amplitudes
    )
    with pytest.raises(ContractError):
        partial_inner_transfer(basis.ket((1, 1)), wrong)


def test_transfer_rejects_ket_off_the_measured_register():
    resolved = builtin_channel("epr")
    ket = measurement_basis(resolved.spec).ket((2, 3)).permuted(("U1", "A1", "A2", "U2"))
    with pytest.raises(ContractError):
        partial_inner_transfer(ket, resolved.state)


def test_run_protocol_rejects_channel_on_unknown_labels():
    resolved = builtin_channel("epr")
    channel = resolved.state.relabeled({"B1": "U1"})
    with pytest.raises(ContractError):
        run_protocol(
            UnknownState([1.0, 0.0, 0.0, 0.0]),
            measurement_basis(resolved.spec),
            channel,
            standard_corrections(),
        )


def test_epr_corrections_are_the_sigma_pairs():
    resolved = builtin_channel("epr")
    basis = measurement_basis(resolved.spec)
    table = corrections_from(basis, resolved.state)
    for outcome, op in table.items():
        assert np.abs(op - pauli_pair(*outcome)).max() < 1e-13


def test_standard_corrections_table():
    table = standard_corrections()
    assert np.array_equal(table.op((1, 1)), np.eye(4, dtype=complex))
    assert len(table.ops) == 16
    with pytest.raises(ContractError):
        table.op((5, 1))


def test_correction_table_rejects_nonunitary():
    ops = [np.eye(4)] * 15 + [np.ones((4, 4))]
    with pytest.raises(ContractError):
        CorrectionTable(tuple(ops))


def test_teleport_basis_state_through_epr():
    unknown = UnknownState([1, 0, 0, 0])
    outcomes = teleport_all_outcomes(unknown, builtin_channel("epr").spec)
    assert len(outcomes) == 16
    target = unknown.as_state()
    for out in outcomes:
        assert abs(out.probability - 1 / 16) < 1e-12
        assert abs(fidelity_pure(out.corrected_state, target) - 1.0) < 1e-12
        assert out.corrected_state.register.labels == ("B1", "B2")


def test_teleport_entangled_input_through_bell_channel():
    unknown = UnknownState(BELL)
    outcomes = teleport_all_outcomes(unknown, builtin_channel("bell-transformed").spec)
    target = unknown.as_state()
    for out in outcomes:
        assert abs(out.probability - 1 / 16) < 1e-12
        assert abs(fidelity_pure(out.corrected_state, target) - 1.0) < 1e-12


def test_teleport_probabilities_sum_to_one():
    unknown = UnknownState.random(2)
    outcomes = teleport_all_outcomes(unknown, builtin_channel("bell-transformed").spec)
    assert abs(sum(o.probability for o in outcomes) - 1.0) < 1e-12
    assert [o.outcome for o in outcomes] == list(OUTCOMES)


def test_teleport_no_signaling():
    rng = np.random.default_rng(14)
    for _ in range(5):
        unknown = UnknownState.random(rng)
        spec = ChannelSpec(haar_random_unitary(2, rng))
        acc = np.zeros((4, 4), dtype=complex)
        for out in teleport_all_outcomes(unknown, spec):
            amps = out.bob_state.amplitudes
            acc += out.probability * np.outer(amps, amps.conj())
        assert np.abs(acc - np.eye(4) / 4).max() < 1e-12


def test_matched_basis_cancels_the_dressing():
    # with the channel-adapted basis, plain sigma pairs already correct
    unknown = UnknownState([0, 1, 0, 0])
    resolved = builtin_channel("bell-transformed")
    basis = measurement_basis(resolved.spec)
    table = corrections_from(basis, resolved.state)
    for outcome, op in table.items():
        assert np.abs(op - pauli_pair(*outcome)).max() < 1e-12
    outcomes = run_protocol(unknown, basis, resolved.state, standard_corrections())
    fids = [fidelity_pure(o.corrected_state, unknown.as_state()) for o in outcomes]
    assert min(fids) > 1 - 1e-12


def test_run_protocol_with_wrong_corrections_breaks_fidelity():
    # against the undressed separable basis, sigma pairs are no longer enough
    unknown = UnknownState([0, 1, 0, 0])
    resolved = builtin_channel("bell-transformed")
    basis, _ = series_form(resolved.spec)
    outcomes = run_protocol(unknown, basis, resolved.state, standard_corrections())
    fids = [fidelity_pure(o.corrected_state, unknown.as_state()) for o in outcomes]
    assert min(fids) < 0.75


def test_standard_protocol_builds_no_per_trial_ket_array():
    # beyond its outputs, the kernel holds less than one (T, 16, 4, 4) stack at any time
    trials = 1002
    dressings, unknowns = haar_draws(2, [7, 1], trials, 1)
    tracemalloc.start()
    try:
        outputs = standard_protocol_batch(unknowns, dressings[:, 0])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = sum(a.nbytes for a in outputs)
    assert peak - held < trials * 16 * 4 * 4 * np.dtype(complex).itemsize


# --- invariance transform ---------------------------------------------------

def test_invariance_identity_transform_is_noop():
    resolved = builtin_channel("bell-transformed")
    basis = measurement_basis(resolved.spec)
    corrections = corrections_from(basis, resolved.state)
    t_basis, channels = invariance_transform(
        basis, corrections, np.eye(4), np.eye(4)
    )
    for ket, t_ket in zip(basis.kets, t_basis.kets):
        assert np.abs(ket.amplitudes - t_ket.amplitudes).max() < 1e-13
    assert len(channels) == 16
    for chan in channels:
        assert chan.register.labels == ("A1", "A2", "B1", "B2")


def test_invariance_preserves_transfer_blocks():
    resolved = builtin_channel("bell-transformed")
    basis = measurement_basis(resolved.spec)
    corrections = corrections_from(basis, resolved.state)
    _, base_channels = invariance_transform(basis, corrections, np.eye(4), np.eye(4))
    base_blocks = [
        partial_inner_transfer(k, c) for k, c in zip(basis.kets, base_channels)
    ]
    rng = np.random.default_rng(15)
    for _ in range(10):
        w_l = haar_random_unitary(2, rng)
        w_r = haar_random_unitary(2, rng)
        t_basis, t_channels = invariance_transform(basis, corrections, w_l, w_r)
        for ref, ket, chan in zip(base_blocks, t_basis.kets, t_channels):
            block = partial_inner_transfer(ket, chan)
            assert np.abs(block - ref).max() < 1e-12


def test_invariance_transformed_protocol_still_teleports():
    resolved = builtin_channel("bell-transformed")
    basis = measurement_basis(resolved.spec)
    corrections = corrections_from(basis, resolved.state)
    rng = np.random.default_rng(16)
    w_l = haar_random_unitary(2, rng)
    w_r = haar_random_unitary(2, rng)
    t_basis, t_channels = invariance_transform(basis, corrections, w_l, w_r)
    physical = t_channels[0]
    t_corrections = corrections_from(t_basis, physical)
    unknown = UnknownState.random(rng)
    target = unknown.as_state()
    for out in run_protocol(unknown, t_basis, physical, t_corrections):
        assert abs(out.probability - 1 / 16) < 1e-12
        assert abs(fidelity_pure(out.corrected_state, target) - 1.0) < 1e-10


def test_invariance_rejects_nonunitary_transforms():
    resolved = builtin_channel("epr")
    basis = measurement_basis(resolved.spec)
    corrections = corrections_from(basis, resolved.state)
    with pytest.raises(ContractError):
        invariance_transform(basis, corrections, np.ones((4, 4)), np.eye(4))


# --- series form and basis separability --------------------------------------

def test_series_form_of_dressed_channel():
    resolved = builtin_channel("bell-transformed")
    basis, table = series_form(resolved.spec)
    # measurement factorizes across the diagonal pairs
    for ket in basis.kets:
        assert schmidt_rank(ket, ("A1", "U1")) == 1
    # but the corrections cannot all be local
    ranks = [operator_schmidt_rank(op) for op in table.ops]
    assert max(ranks) > 1
    # and the protocol still works end to end on the unchanged channel
    unknown = UnknownState.random(17)
    target = unknown.as_state()
    for out in run_protocol(unknown, basis, resolved.state, table):
        assert abs(out.probability - 1 / 16) < 1e-12
        assert abs(fidelity_pure(out.corrected_state, target) - 1.0) < 1e-10


def test_series_form_of_epr_channel_is_fully_local():
    resolved = builtin_channel("epr")
    basis, table = series_form(resolved.spec)
    for ket in basis.kets:
        assert schmidt_rank(ket, ("A1", "U1")) == 1
    for outcome, op in table.items():
        assert operator_schmidt_rank(op) == 1
        assert np.abs(op - pauli_pair(*outcome)).max() < 1e-12


def test_is_separable_basis_verdicts():
    epr_basis = measurement_basis(builtin_channel("epr").spec)
    verdicts = is_separable_basis(epr_basis)
    assert verdicts[(("A1", "U1"), ("A2", "U2"))] is True
    assert verdicts[(("A1", "U2"), ("A2", "U1"))] is False

    bell_basis = measurement_basis(builtin_channel("bell-transformed").spec)
    assert all(v is False for v in is_separable_basis(bell_basis).values())
    assert tuple(is_separable_basis(bell_basis)) == BASIS_SPLITS


SWAP = np.eye(4)[[0, 2, 1, 3]]


def test_swap_dressed_channel_separates_only_across_the_crossed_pairing():
    # the SWAP-dressed channel is EPR pairs (A1,B2) and (A2,B1): inseparable
    # across (A1B1)|(A2B2), separable once the receiver's qubits are swapped
    spec = ChannelSpec(SWAP, name="swap")
    channel = dressed_channel(spec)
    assert schmidt_rank(channel, ("A1", "B1")) == 4
    assert schmidt_rank(channel, ("A1", "B2")) == 1
    basis = measurement_basis(spec)
    assert is_separable_basis(basis) == {BASIS_SPLITS[0]: False, BASIS_SPLITS[1]: True}
    for op in corrections_from(basis, channel).ops:
        assert operator_schmidt_rank(op) == 1
    _, series = series_form(spec)
    assert all(operator_schmidt_rank(op) == 4 for op in series.ops)
    assert operator_schmidt_rank(SWAP) == 4


# --- POVM completeness -------------------------------------------------------

def _epr_on_measured():
    return builtin_channel("epr").state.relabeled({"B1": "U1", "B2": "U2"})


def test_povm_check_accepts_sigma_pairs():
    paulis = [pauli_pair(a, b) for a, b in OUTCOMES]
    ok, dev = povm_check(paulis, _epr_on_measured())
    assert ok and dev < 1e-10


def test_povm_check_accepts_premultiplied_sigma_pairs():
    v = haar_random_unitary(2, 18)
    rotated = [pauli_pair(a, b) @ v for a, b in OUTCOMES]
    ok, dev = povm_check(rotated, _epr_on_measured())
    assert ok and dev < 1e-10


def test_povm_check_rejects_incomplete_sets():
    ok, dev = povm_check([np.eye(4)], _epr_on_measured())
    assert not ok and dev > 0.1


def test_povm_check_validates_inputs():
    with pytest.raises(ContractError):
        povm_check([], _epr_on_measured())
    ghz_like = StateVector(
        QubitRegister(MEASURED_LABELS),
        np.array([1 / np.sqrt(2), *([0.0] * 14), 1 / np.sqrt(2)], dtype=complex),
    )
    with pytest.raises(ContractError):
        povm_check([pauli_pair(a, b) for a, b in OUTCOMES], ghz_like)
    with pytest.raises(ContractError):
        povm_check([np.ones((4, 4))], _epr_on_measured())
    with pytest.raises(ContractError, match="set members must be two-qubit"):
        povm_check([np.eye(2), np.eye(4)], _epr_on_measured())


# --- equality and hashing ----------------------------------------------------

ARRAY_HOLDERS = {
    "StateVector": lambda: bell_pair("a", "b"),
    "DensityMatrix": lambda: DensityMatrix(QubitRegister(("a",)), np.eye(2) / 2.0),
    "ChannelSpec": lambda: ChannelSpec(np.eye(4)),
    "GhzSpec": lambda: GhzSpec(),
    "ResolvedChannel": lambda: builtin_channel("epr"),
    "UnknownState": lambda: UnknownState([1.0, 0.0, 0.0, 0.0]),
    "MeasurementBasis": lambda: measurement_basis(ChannelSpec(np.eye(4))),
    "CorrectionTable": lambda: CorrectionTable([pauli_pair(a, b) for a, b in OUTCOMES]),
    "TeleportOutcome": lambda: teleport_all_outcomes(
        UnknownState([1.0, 0.0, 0.0, 0.0]), ChannelSpec(np.eye(4)))[0],
    "PairReport": lambda: pair_analysis(epr_pair_channel(), ("A1", "B1")),
    "TriadReport": lambda: triad_analysis(
        builtin_channel("bell-transformed").state, ("A1", "A2", "B1")),
}


@pytest.mark.parametrize("name", ARRAY_HOLDERS)
def test_array_holders_compare_and_hash_by_identity(name):
    a, b = ARRAY_HOLDERS[name](), ARRAY_HOLDERS[name]()
    assert type(a).__name__ == name
    assert (a == b) is False  # equal content, distinct objects
    assert (a == a) is True
    assert len({a, b, a}) == 2


# --- the value classes: frozen, by-value or by-identity, with a field repr ---

VALUE_HOLDERS = {
    "QubitRegister": lambda: QubitRegister(("a", "b")),
    "SuiteConfig": lambda: SuiteConfig(seed=3),
    "WitnessSearchResult": lambda: WitnessSearchResult(0.25, (0.5,) * 9, 4, 0.75),
}
#: a value of each by-value class that differs from its holder's in one field
DIFFERENT_VALUES = {
    "QubitRegister": lambda: QubitRegister(("a", "c")),
    "SuiteConfig": lambda: SuiteConfig(seed=4),
    "WitnessSearchResult": lambda: WitnessSearchResult(0.25, (0.5,) * 9, 4, 0.5),
}

#: every value class of the package and its fields, in constructor order
FIELDS = {
    "QubitRegister": ("labels",),
    "StateVector": ("register", "amplitudes"),
    "DensityMatrix": ("register", "matrix"),
    "ChannelSpec": ("dressing", "name"),
    "GhzSpec": ("amplitudes", "local_bases"),
    "ResolvedChannel": ("name", "spec"),
    "UnknownState": ("coefficients",),
    "MeasurementBasis": ("amplitudes",),
    "CorrectionTable": ("ops",),
    "TeleportOutcome": ("outcome", "probability", "bob_state", "corrected_state"),
    "PairReport": ("pair", "reduced", "min_pt_eigenvalue", "entangled"),
    "TriadReport": ("triad", "reduced", "ghz_component_fidelities", "three_tangles"),
    "SuiteConfig": ("seed", "restarts", "tol"),
    "WitnessSearchResult": ("min_value", "parameters", "restarts", "converged_fraction"),
}


def test_every_value_class_is_pinned():
    classes, todo = set(), list(_Frozen.__subclasses__())
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        classes.add(cls.__name__)
    assert classes - {"_Value"} == set(FIELDS) == set(ARRAY_HOLDERS) | set(VALUE_HOLDERS)


@pytest.mark.parametrize("name", FIELDS)
def test_fields_cannot_be_assigned_or_deleted(name):
    obj = {**ARRAY_HOLDERS, **VALUE_HOLDERS}[name]()
    for field in (*FIELDS[name], "extra"):
        before = getattr(obj, field, None)
        with pytest.raises(AttributeError):
            setattr(obj, field, before)
        with pytest.raises(AttributeError):
            delattr(obj, field)
        assert getattr(obj, field, None) is before
    assert not hasattr(obj, "extra")


@pytest.mark.parametrize("name", FIELDS)
def test_repr_names_the_class_and_its_fields(name):
    obj = {**ARRAY_HOLDERS, **VALUE_HOLDERS}[name]()
    if name == "ResolvedChannel":
        assert obj.state is obj.state  # built on first read, then kept; not a field
    fields = ", ".join(f"{field}={getattr(obj, field)!r}" for field in FIELDS[name])
    assert repr(obj) == f"{name}({fields})"


@pytest.mark.parametrize("name", VALUE_HOLDERS)
def test_value_classes_compare_and_hash_by_value(name):
    a, b = VALUE_HOLDERS[name](), VALUE_HOLDERS[name]()
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert (a == object()) is False and a != "a"
    other = DIFFERENT_VALUES[name]()
    assert a != other and len({a, other}) == 2
