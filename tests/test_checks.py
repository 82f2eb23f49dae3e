"""Checks made once, at the boundary.

The unitarity and state checks each decide by one rule, computed once; the code
they replaced is kept here, test-only, as the oracle, and they must give its
decisions, deviations, messages and stored values. Values the library derives from
checked inputs are wrapped without a second check: they must be read-only, build
nothing through a checking constructor, hold the numbers that constructor would
store, bit for bit, and on Haar inputs still pass the checks they skip; a result
composed of inputs that each pass their check is returned, whatever deviation
they add up to. The report's float rows must equal the rows of the code they replaced.
Hypothesis settings are fixed and derandomized, with no example database.
"""
import warnings
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entqc import report
from entqc.channel import (
    BUILTIN_CHANNELS,
    CHANNEL_LABELS,
    RECEIVER_LABELS,
    ChannelSpec,
    GhzSpec,
    builtin_channel,
    dressed_channel,
    epr_pair_channel,
    generalized_ghz,
    is_valid_channel,
)
from entqc.entanglement import (
    WitnessSearchResult,
    minimize_witness,
    pair_analysis,
    stacked_minimize_witness,
    stacked_triad_analysis,
    three_tangle,
    triad_analysis,
    witness_gradient,
    witness_value,
)
from entqc.primitives import apply_unitary, haar_random_unitary, haar_unitaries, partial_inner, partial_trace
from entqc.relations import corrections_from, invariance_pairs, invariance_transform, povm_check, series_form
from entqc.teleport import (
    MEASURED_LABELS,
    CorrectionTable,
    MeasurementBasis,
    UnknownState,
    measurement_basis,
    run_protocol,
    standard_corrections,
    standard_protocol_batch,
    teleport_all_outcomes,
)
from entqc.tensor import (
    ATOL,
    ContractError,
    DensityMatrix,
    LabelError,
    QubitRegister,
    StateVector,
    _as_complex,
    _deviation,
    _require,
    haar_random_state,
    reduced_density,
    require_hermitian,
    require_unitary,
    tensor,
)


# --- test-only references: the full checks that the one-rule checks must equal ---------
def ref_require_unitary(m, *, tol=ATOL, what="matrix"):
    u = _as_complex(m, what).copy()
    if u.ndim < 2 or u.shape[-1] != u.shape[-2]:
        raise ContractError(f"{what} is not square: shape {u.shape}")
    _require(u, "unitary", tol, f"{what} is not unitary")
    u.setflags(write=False)
    return u


def ref_state_amplitudes(register, amplitudes):
    """The stored amplitudes of `StateVector(register, amplitudes)`, by the full check alone."""
    amps = _as_complex(amplitudes, "amplitudes").reshape(-1).copy()
    if amps.size != register.dim:
        raise ContractError(
            f"register {register.labels} needs {register.dim} amplitudes, got {amps.size}"
        )
    norm = float(np.sqrt(np.vdot(amps, amps).real))
    if not abs(norm - 1.0) <= ATOL:
        raise ContractError(f"state is not normalized: |psi| = {norm!r}")
    amps.setflags(write=False)
    return amps


def ref_deviation(u):
    """max |U†U - 1|, as the full check forms it."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.abs(np.swapaxes(u, -1, -2).conj() @ u - np.eye(u.shape[-1])).max(initial=0.0)


def ref_check(name, value, target=None, tolerance=None):
    """The report row as the `isinstance` chain alone builds it."""
    if isinstance(value, (bool, np.bool_)):
        value = bool(value)
        passed = None if target is None else value == bool(target)
        return {"name": name, "value": value, "target": target,
                "tolerance": None, "pass": passed}
    if isinstance(value, (int, np.integer)) and tolerance is None and target is not None:
        value = int(value)
        return {"name": name, "value": value, "target": int(target),
                "tolerance": 0, "pass": value == int(target)}
    if isinstance(value, (list, tuple)):
        return {"name": name, "value": list(value), "target": target,
                "tolerance": tolerance, "pass": None}
    value = float(value)
    passed = None
    if target is not None and tolerance is not None:
        passed = abs(value - float(target)) <= tolerance
    return {"name": name, "value": value, "target": target,
            "tolerance": tolerance, "pass": passed}


def outcome(fn, *args, **kwargs):
    """('ok', value) or ('error', message) of a call."""
    try:
        return "ok", fn(*args, **kwargs)
    except ContractError as exc:
        return "error", str(exc)


# --- the unitarity check ------------------------------------------------------
def near_unitaries(seed):
    """Haar unitaries, one 4x4 and one (16, 4, 4) stack, each perturbed by noise
    around ATOL and scaled around the check's edge."""
    rng = np.random.default_rng([seed, 13])
    for shape in [(), (16,)]:
        u = haar_unitaries(rng.standard_normal((*shape, 2, 4, 4)))
        yield u
        for eps in (1e-15, 1e-13, 3e-13, 1e-12, 1e-9, 1e-3):
            noise = rng.standard_normal((2, *u.shape))
            yield u + eps * (noise[0] + 1j * noise[1])
        for scale in (1 - 5e-13, 1 - 4.9e-13, 1 + 4.9e-13, 1 + 5e-13, 1 + 1e-12, 1.5, 1e3):
            yield u * scale


def assert_same_decision(m, tol):
    got, ref = outcome(require_unitary, m, tol=tol), outcome(ref_require_unitary, m, tol=tol)
    assert got[0] == ref[0], (got, ref)
    if got[0] == "error":
        assert got[1] == ref[1]
    else:
        assert got[1].dtype == ref[1].dtype and np.array_equal(got[1], ref[1])
        assert not got[1].flags.writeable


@pytest.mark.parametrize("tol", [ATOL, 1e-6])
@pytest.mark.parametrize("seed", range(6))
def test_unitary_check_matches_the_full_check(seed, tol):
    for m in near_unitaries(seed):
        assert_same_decision(m, tol)


@pytest.mark.parametrize("seed", range(6))
def test_unitary_check_accepts_exactly_at_the_full_checks_deviation(seed):
    # accepted at tol = the full check's deviation, rejected one ulp below:
    # the check's deviation is the full check's, bit for bit
    for m in near_unitaries(seed):
        dev = ref_deviation(m)
        if dev > 1e-3:
            continue
        assert require_unitary(m, tol=dev).shape == m.shape
        below = np.nextafter(dev, 0.0)
        with pytest.raises(ContractError) as err:
            require_unitary(m, tol=below)
        with pytest.raises(ContractError) as ref:
            ref_require_unitary(m, tol=below)
        assert str(err.value) == str(ref.value)


@pytest.mark.parametrize("tol", [ATOL, 1e-6, 10.0])
def test_unitary_check_rejects_what_the_full_check_rejects(tol):
    u = haar_random_unitary(2, 5)
    stack = np.stack([haar_random_unitary(2, seed) for seed in range(16)])
    bad = []
    for value in (np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(1.0, -np.inf), 1e200, -1e200j):
        for m in (u, stack):
            m = m.copy()
            m[..., 1, 2] = value
            bad.append(m)
    bad += [np.ones(4), np.ones((5, 4, 2)), np.ones((3, 4)), [[1.0, 0.0], [0.0]],
            [["a", 0.0], [0.0, 1.0]], None, np.diag([1e308, 1.0]), 3.0 * u, np.zeros((4, 4))]
    for m in bad:
        assert_same_decision(m, tol)
    for m in (np.eye(2), np.zeros((0, 0)), np.zeros((3, 0, 0)), [[1]], 2.0 * u):
        assert_same_decision(m, tol)
    # the Haar stack, and the diagonal unitaries of its phases (every entry of modulus 1), scaled
    # so that the largest entry lies just inside or just outside sqrt(1 + tol): no entry of an
    # input the full check accepts exceeds it
    phases = np.diagonal(stack, axis1=-2, axis2=-1)
    for m in (stack, (phases / np.abs(phases))[..., None] * np.eye(4)):
        edge = np.sqrt(1.0 + tol) / np.abs(m).max()
        for step in (-1e-9, -1e-15, -2e-16, 0.0, 2e-16, 1e-15, 1e-9):
            assert_same_decision(m * (edge * (1.0 + step)), tol)


# --- the state check -------------------------------------------------------------
REGISTERS = [QubitRegister(("a",)), QubitRegister(("a", "b")), QubitRegister(("a", "b", "c"))]
# squared norms 1 + d: the stacked test's edge is |d| = ATOL, the check's about 2 ATOL
NORM_OFFSETS = [0.0, 5e-13, 9.99e-13, 1e-12, 1.001e-12, 1.5e-12, 1.999e-12, 2e-12, 2.001e-12,
                2.5e-12, 1e-9, 1e-3]
SPECIALS = [np.nan, np.inf, -np.inf, complex(0.0, np.nan), complex(1.0, -np.inf), 1e200, -1e200j]


def assert_same_state(register, amplitudes):
    got = outcome(lambda: StateVector(register, amplitudes).amplitudes)
    ref = outcome(ref_state_amplitudes, register, amplitudes)
    assert got[0] == ref[0], (got, ref)
    if got[0] == "error":
        assert got[1] == ref[1]
    else:
        assert got[1].dtype == ref[1].dtype and got[1].tobytes() == ref[1].tobytes()
        assert got[1].shape == ref[1].shape and not got[1].flags.writeable
        if isinstance(amplitudes, np.ndarray):
            assert not np.shares_memory(got[1], amplitudes)
    return got[0]


def near_states(seed):
    """Random states of each register, scaled so their squared norms straddle 1 +- ATOL and
    1 +- 2 ATOL, as arrays, lists, transposed 2-D arrays and with one entry made special."""
    rng = np.random.default_rng([seed, 15])
    for register in REGISTERS:
        psi = haar_random_state(register.size, rng)
        for d in NORM_OFFSETS:
            for sign in (1.0, -1.0):
                v = psi * np.sqrt(1.0 + sign * d)
                yield register, v
                yield register, v.tolist()
                if register.size > 1:
                    yield register, v.reshape(2, -1).T.copy().T  # 2-D, Fortran order
        for special in SPECIALS:
            v = psi.copy()
            v[rng.integers(v.size)] = special
            yield register, v


@pytest.mark.parametrize("seed", range(4))
def test_state_check_matches_the_full_check(seed):
    decisions = [assert_same_state(register, v) for register, v in near_states(seed)]
    assert "ok" in decisions and "error" in decisions


def test_state_check_rejects_what_the_full_check_rejects():
    one, two = REGISTERS[0], REGISTERS[1]
    h = np.sqrt(0.5)
    cases = [
        (one, [1.0, 0.0, 0.0]), (one, [1.0]), (one, []), (two, [1.0, 0.0]), (two, np.eye(4)[0][None]),
        (one, [[1.0, 0.0], [0.0]]), (one, [1.0, [0.0]]), (one, ["abc", 0.0]), (one, None), (one, {"a": 1}),
        (one, ["1", "0"]), (one, ["0.6", 0.8]), (one, [b"1", b"0"]), (one, "1"), (one, [True, False]),
        (one, [1, 0]), (two, [[h, 0.0], [0.0, h]]), (two, [[h, 0.0, 0.0, h]]), (one, np.array([[1.0], [0.0]])),
        (one, np.array([1.0, 0.0], dtype=np.float32)), (one, np.array([0, 1], dtype=np.int8)),
        (one, np.array([1.0, 0.0, 0.0, 0.0])[::2]), (one, [1e200, 0.0]), (one, [1e-200, 0.0]),
        (one, [0.0, 0.0]), (one, 2.0 * np.eye(2)[0]), (one, [np.nan, 0.0]), (one, np.array([1, 0], dtype=object)),
    ]
    decisions = [assert_same_state(register, v) for register, v in cases]
    assert "ok" in decisions and "error" in decisions


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    register=st.sampled_from(REGISTERS),
    size=st.integers(0, 9),
    offset=st.floats(-3e-12, 3e-12) | st.sampled_from(NORM_OFFSETS),
    special=st.sampled_from([None, *SPECIALS]),
    form=st.sampled_from(["array", "list", "2-D"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_state_check_equals_the_full_check(register, size, offset, special, form, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    if size:
        v *= np.sqrt(1.0 + offset) / np.linalg.norm(v)
        if special is not None:
            v[rng.integers(size)] = special
    if form == "list":
        v = v.tolist()
    elif form == "2-D" and size % 2 == 0:
        v = v.reshape(2, -1)
    assert_same_state(register, v)


@pytest.mark.parametrize("build", [
    lambda big: StateVector(QubitRegister(("a",)), [big, 0]),
    lambda big: require_unitary([[big]]),
    lambda big: ChannelSpec([[big, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]),
    lambda big: DensityMatrix(QubitRegister(("a",)), [[big, 0], [0, 0]]),
], ids=["StateVector", "require_unitary", "ChannelSpec", "DensityMatrix"])
def test_an_int_beyond_float_range_is_a_contract_error(build):
    with pytest.raises(ContractError, match="an entry is out of float range"):
        build(10**400)


RHO = np.eye(8) / 8.0


@pytest.mark.parametrize("call", [
    lambda: GhzSpec((10**400, 0)),
    lambda: UnknownState.from_reals([10**400] + [0] * 7),
    lambda: witness_value(RHO, [10**400] * 9),
    lambda: witness_gradient(RHO, [10**400] * 9),
    lambda: GhzSpec(("a", "b")),
    lambda: UnknownState.from_reals(["x"] * 8),
    lambda: witness_value(RHO, ["x"] * 9),
    lambda: witness_gradient(RHO, ["x"] * 9),
], ids=[f"{name}-{entry}" for entry in ("big_int", "string")
        for name in ("GhzSpec", "from_reals", "witness_value", "witness_gradient")])
def test_real_readers_raise_contract_errors(call):
    with pytest.raises(ContractError, match="an entry is out of float range|is not a numeric array"):
        call()


TWO_QUBITS = StateVector(QubitRegister(("a", "b")), np.ones(4) / 2)


@pytest.mark.parametrize("call, error, message", [
    (lambda: QubitRegister(5), LabelError, "register labels must be an iterable of labels, got 5"),
    (lambda: QubitRegister(None), LabelError, "register labels must be an iterable of labels, got None"),
    (lambda: GhzSpec(local_bases=5), ContractError, "local bases must be four 2x2 unitaries, got 5"),
    (lambda: MeasurementBasis(5), ContractError, "basis kets must be StateVectors on"),
    (lambda: CorrectionTable(5), ContractError, "a correction table is a sequence of 16 unitaries, got 5"),
    (lambda: StateVector("x", [1]), ContractError, "a state's register must be a QubitRegister, got 'x'"),
    (lambda: DensityMatrix(None, [[1]]), ContractError,
     "a density matrix's register must be a QubitRegister, got None"),
    (lambda: dressed_channel(None), ContractError,
     "dressed_channel() argument 'spec' must be ChannelSpec, got NoneType"),
    (lambda: measurement_basis(5), ContractError,
     "measurement_basis() argument 'channel' must be ChannelSpec, got int"),
    (lambda: generalized_ghz(dressed_channel(ChannelSpec(np.eye(4)))), ContractError,
     "generalized_ghz() argument 'spec' must be GhzSpec, got StateVector"),
    (lambda: is_valid_channel(ChannelSpec(np.eye(4))), ContractError,
     "is_valid_channel() argument 'state' must be StateVector, got ChannelSpec"),
    (lambda: run_protocol(UnknownState.random(1), standard_corrections(), None, None), ContractError,
     "run_protocol() argument 'basis' must be MeasurementBasis, got CorrectionTable"),
    (lambda: teleport_all_outcomes(ChannelSpec(np.eye(4)), UnknownState.random(1)), ContractError,
     "teleport_all_outcomes() argument 'unknown' must be UnknownState, got ChannelSpec"),
    (lambda: series_form([]), ContractError, "series_form() argument 'channel' must be ChannelSpec, got list"),
    (lambda: povm_check(5, dressed_channel(ChannelSpec(np.eye(4)))), ContractError,
     "povm_check() argument 'unitary_set' must be iterable, got int"),
    # arrays of the wrong size, and states on the wrong register
    (lambda: ChannelSpec(np.eye(2)), ContractError, "channel dressing must be a two-qubit (4x4) operator"),
    (lambda: WitnessSearchResult(0.0, (0.0,) * 8, 1, 1.0), ContractError, "witness parameters are 9 rotation angles"),
    (lambda: stacked_triad_analysis(TWO_QUBITS, [("a", "b", "c")]), ContractError,
     "triad analysis expects a four-qubit state"),
    (lambda: partial_inner(TWO_QUBITS, StateVector(QubitRegister(("c",)), [1, 0])), LabelError,
     "no shared labels to contract"),
    (lambda: povm_check(standard_corrections().ops, TWO_QUBITS), ContractError,
     "povm_check expects a four-qubit state"),
    (lambda: MeasurementBasis(np.eye(4)), ContractError, "a measurement basis is 16 kets of 16 amplitudes, got (4, 4)"),
    (lambda: require_hermitian(np.ones((2, 3))), ContractError, "matrix is not square: shape (2, 3)"),
    (lambda: TWO_QUBITS.permuted(("a",)), LabelError, "permutation must mention every label exactly once"),
], ids=["QubitRegister-int", "QubitRegister-None", "GhzSpec-local_bases", "MeasurementBasis", "CorrectionTable",
        "StateVector-register", "DensityMatrix-register", "dressed_channel", "measurement_basis", "generalized_ghz",
        "is_valid_channel", "run_protocol", "teleport_all_outcomes", "series_form", "povm_check",
        "ChannelSpec-size", "WitnessSearchResult-size", "stacked_triad_analysis-size", "partial_inner-labels",
        "povm_check-size", "MeasurementBasis-size", "require_hermitian-size", "permuted-labels"])
def test_constructors_reject_inputs_of_the_wrong_kind_with_a_message(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value).startswith(message)


# --- the overflow guard -----------------------------------------------------------
def ref_require(m, of, tol, fault):
    """`_require` with its deviation always computed under np.errstate."""
    with np.errstate(over="ignore", invalid="ignore"):
        dev = _deviation(m, of)
    if not dev <= tol:
        raise ContractError(f"{fault}: deviation {dev:.3e} > {tol:g}")


@pytest.mark.parametrize("value", [1e149, 1e151, 1e200, np.nan, np.inf, -np.inf, complex(1e151, -1e151)])
@pytest.mark.parametrize("of", ["unitary", "hermitian", "trace"])
def test_checks_either_side_of_the_overflow_guard_raise_no_warning(of, value):
    register = QubitRegister(("a", "b"))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for shape in [(4, 4), (3, 4, 4)]:
            for entries in ([(1, 2)], [(1, 2), (2, 1)], [(2, 2)]):  # off the diagonal, mirrored, on it
                m = np.broadcast_to(np.eye(4, dtype=complex), shape).copy()
                for i, j in entries:
                    m[..., i, j] = value
                assert outcome(_require, m, of, ATOL, "fault") == outcome(ref_require, m, of, ATOL, "fault")
        m = np.eye(4, dtype=complex)
        m[1, 2] = value
        checks = {"unitary": require_unitary, "hermitian": require_hermitian,
                  "trace": lambda a: DensityMatrix(register, a)}
        for call in (checks[of], lambda a: StateVector(register, a[1]), lambda a: three_tangle(np.full(8, value))):
            with pytest.raises(ContractError):
                call(m)


# --- values derived from checked inputs ----------------------------------------
def test_builtin_specs_are_checked_once_and_shared():
    for name in BUILTIN_CHANNELS:
        a, b = builtin_channel(name), builtin_channel(name)
        assert a is not b and a.spec is b.spec
        if a.spec is not None:
            assert not a.spec.dressing.flags.writeable
            assert a.spec.name == name
            # the shared spec passes the checks it was built with
            assert np.array_equal(ChannelSpec(a.spec.dressing).dressing, a.spec.dressing)
    # the undressed ghz channel shares one read-only state, the default generalized GHZ state
    a, b = builtin_channel("ghz"), builtin_channel("ghz")
    assert a.state is b.state and not a.state.amplitudes.flags.writeable
    assert a.state.amplitudes.tobytes() == generalized_ghz().amplitudes.tobytes()


def wrapped_calls(spec, seed):
    """(name, call, labels, derivation) of each single state or density that the library wraps
    unchecked, on inputs built here: `derivation` writes out the numbers that the call derives,
    as the checked constructor received them before the call wrapped its result."""
    state = dressed_channel(spec)
    psi = state.tensor_view()
    rho = DensityMatrix.from_state(state)
    basis = measurement_basis(spec)
    u = haar_random_unitary(2, [seed, 20])
    unknown = UnknownState.random(seed).as_state(("X1", "X2"))
    ghz = GhzSpec((0.6, 0.8), [haar_random_unitary(1, [seed, 21, q]) for q in range(4)])
    branches = [reduce(np.kron, [b[:, k] for b in ghz.local_bases]) for k in (0, 1)]
    traced = rho.matrix.reshape((2,) * 8).transpose(2, 0, 1, 3, 6, 4, 5, 7).reshape(4, 4, 4, 4)
    return [
        ("apply_unitary", lambda: apply_unitary(state, u, ("B2", "A1")), CHANNEL_LABELS,
         lambda: np.moveaxis(np.tensordot(u.reshape(2, 2, 2, 2), psi, axes=((2, 3), (3, 0))),
                             (0, 1), (3, 0)).reshape(-1)),
        ("partial_trace", lambda: partial_trace(rho, ("B1", "A1")), ("B1", "A1"),
         lambda: np.einsum("abcb->ac", traced)),
        ("tensor", lambda: tensor(unknown, state), ("X1", "X2", *CHANNEL_LABELS),
         lambda: np.kron(unknown.amplitudes, state.amplitudes)),
        ("permuted", lambda: state.permuted(("B2", "A1", "B1", "A2")), ("B2", "A1", "B1", "A2"),
         lambda: psi.transpose(3, 0, 2, 1).reshape(-1)),
        ("DensityMatrix.from_state", lambda: DensityMatrix.from_state(state), CHANNEL_LABELS,
         lambda: np.outer(state.amplitudes, state.amplitudes.conj())),
        ("generalized_ghz", lambda: generalized_ghz(ghz), CHANNEL_LABELS,
         lambda: ghz.amplitudes[0] * branches[0] + ghz.amplitudes[1] * branches[1]),
        ("epr_pair_channel", epr_pair_channel, CHANNEL_LABELS, lambda: np.eye(4) / 2.0),
        ("MeasurementBasis.ket", lambda: basis.ket((2, 3)), MEASURED_LABELS, lambda: basis.amplitudes[6]),
    ]


def numbers(value) -> np.ndarray:
    """The array a StateVector or a DensityMatrix holds."""
    return value.amplitudes if isinstance(value, StateVector) else value.matrix


def trusted_values(spec):
    state = dressed_channel(spec)
    yield "dressed_channel", state.amplitudes, lambda a: StateVector(QubitRegister(CHANNEL_LABELS), a)
    relabeled = state.relabeled({"B1": "U1"})
    assert relabeled.register.labels == ("A1", "A2", "U1", "B2")
    yield "relabeled", relabeled.amplitudes, lambda a: StateVector(relabeled.register, a)
    yield "UnknownState.random", UnknownState.random(11).coefficients, UnknownState
    yield "measurement_basis", measurement_basis(spec).amplitudes, MeasurementBasis
    w_l, w_r = haar_random_unitary(2, [11, 18]), haar_random_unitary(2, [11, 19])
    transformed = invariance_transform(measurement_basis(spec), standard_corrections(), w_l, w_r)[0]
    yield "invariance_transform", transformed.amplitudes, MeasurementBasis
    yield "series_form", series_form(spec)[1].ops, lambda ops: require_unitary(ops)
    yield "reduced_density", reduced_density(state, ("A1", "B1")).matrix, None
    yield "pair_analysis", pair_analysis(state, ("A1", "B2")).reduced.matrix, None
    yield "triad_analysis", triad_analysis(state, ("A1", "A2", "B1")).reduced.matrix, None
    for name, call, labels, _ in wrapped_calls(spec, 11):
        value = call()
        yield name, numbers(value), lambda a, cls=type(value), labels=labels: cls(QubitRegister(labels), a)


@pytest.mark.parametrize("seed", range(4))
def test_trusted_values_are_read_only_and_pass_the_checks_they_skip(seed):
    spec = ChannelSpec(haar_random_unitary(2, [seed, 17]))
    for name, value, checked in trusted_values(spec):
        assert isinstance(value, np.ndarray) and not value.flags.writeable, name
        with pytest.raises(ValueError):
            value.reshape(-1)[0] = 0.0
        if checked is not None:
            checked(value)  # raises if the skipped check would have failed


def test_unknown_state_random_equals_the_checked_constructor():
    for seed in range(5):
        trusted = UnknownState.random(seed).coefficients
        checked = UnknownState(haar_random_state(2, seed)).coefficients
        assert trusted.dtype == checked.dtype and np.array_equal(trusted, checked)


# --- derived values: wrapped, never built through a checking constructor ---------
def count_constructor_calls(monkeypatch, *classes) -> list:
    """Patch each class's `__init__` to record the class's name, then check as before."""
    built = []
    for cls in classes:
        def counted(self, *args, check=cls.__init__, **kwargs):
            built.append(type(self).__name__)
            check(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    return built


def assert_constructor_state(value, register, row):
    """`value` is what its class's checked constructor builds from (register, row), bit for bit,
    and read-only."""
    ref = type(value)(register, row)
    got, want = numbers(value), numbers(ref)
    assert value.register == ref.register
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    assert not got.flags.writeable


def protocol_inputs(seed):
    spec = ChannelSpec(haar_random_unitary(2, [seed, 17]))
    return spec, UnknownState.random(seed), measurement_basis(spec), dressed_channel(spec), standard_corrections()


def test_derived_state_stacks_build_no_state_through_the_constructor(monkeypatch):
    spec, unknown, basis, channel, corrections = protocol_inputs(3)
    w_l, w_r = haar_random_unitary(2, [3, 18]), haar_random_unitary(2, [3, 19])
    calls = wrapped_calls(spec, 3)
    marginal = reduced_density(channel, ("A1", "A2", "B1"))
    built = count_constructor_calls(monkeypatch, StateVector, DensityMatrix, WitnessSearchResult)
    outcomes = teleport_all_outcomes(unknown, spec)
    run = run_protocol(unknown, basis, channel, corrections)
    kets = basis.kets
    _, states = invariance_transform(basis, corrections, w_l, w_r)
    singles = [call() for _, call, _, _ in calls]
    minimize_witness(marginal, restarts=2, seed=3)
    assert built == []
    assert len(outcomes) == len(run) == len(kets) == len(states) == 16
    assert len(singles) == 8


@pytest.mark.parametrize("name", ["epr", "bell-transformed", "haar"])
def test_derived_states_equal_the_constructors(name):
    spec = ChannelSpec(haar_random_unitary(2, [5, 17])) if name == "haar" else builtin_channel(name).spec
    unknown, basis, corrections = UnknownState.random(5), measurement_basis(spec), standard_corrections()
    for ket, row in zip(basis.kets, basis.amplitudes, strict=True):
        assert_constructor_state(ket, QubitRegister(MEASURED_LABELS), row)
    w_l, w_r = haar_random_unitary(2, [5, 18]), haar_random_unitary(2, [5, 19])
    transformed, states = invariance_transform(basis, corrections, w_l, w_r)
    kets, channels = invariance_pairs(basis.amplitudes.reshape(16, 4, 4), corrections.ops, w_l, w_r)
    # the transformed basis, wrapped unchecked, holds what the checked constructor stores
    assert transformed.amplitudes.tobytes() == MeasurementBasis(kets.reshape(16, 16)).amplitudes.tobytes()
    for state, row in zip(states, channels.reshape(16, 16), strict=True):
        assert_constructor_state(state, QubitRegister(CHANNEL_LABELS), row)
    receiver = QubitRegister(RECEIVER_LABELS)
    _, bob, corrected = standard_protocol_batch(unknown.coefficients[None], spec.dressing[None])
    for result, b, c in zip(teleport_all_outcomes(unknown, spec), bob[0], corrected[0], strict=True):
        assert_constructor_state(result.bob_state, receiver, b)
        assert_constructor_state(result.corrected_state, receiver, c)
    for _, call, labels, derivation in wrapped_calls(spec, 5):
        assert_constructor_state(call(), QubitRegister(labels), derivation())
    # the witness search's result equals the checked constructor's on the stacked search's row
    marginal = reduced_density(dressed_channel(spec), ("A1", "A2", "B1"))
    result = minimize_witness(marginal, restarts=2, seed=5)
    minima, angles, converged, _ = stacked_minimize_witness([marginal], 2, 5)
    ref = WitnessSearchResult(float(minima[0]), tuple(angles[0].tolist()), 2, float(converged[0]))
    assert result == ref and [type(v) for _, v in result._fields()] == [type(v) for _, v in ref._fields()]


# --- results composed of inputs that each pass their check ------------------------
#: 1 + 0.495e-12 J: max |U†U - 1| = 0.99e-12, within ATOL, for J the all-ones matrix
U_NEAR, V_NEAR = np.eye(4) + 0.495e-12 * np.ones((4, 4)), np.eye(2) + 0.495e-12 * np.ones((2, 2))
#: a Haar dressing times U_NEAR, within ATOL of unitary: its implied corrections are off by a few times 1e-12
SPEC_NEAR = ChannelSpec(haar_random_unitary(2, [0, 17]) @ U_NEAR)
#: one-qubit states of norm 1 + 0.9e-12, within ATOL
LONG = [StateVector(QubitRegister((label,)), [1.0 + 0.9e-12, 0.0]) for label in "abc"]
COMPOSED = {
    "run_protocol": lambda: run_protocol(
        UnknownState(np.ones(4) / 2), measurement_basis(ChannelSpec(np.eye(4))),
        dressed_channel(ChannelSpec(np.eye(4))), CorrectionTable([U_NEAR @ s for s in standard_corrections().ops])),
    "apply_unitary": lambda: apply_unitary(
        StateVector(QubitRegister(("a", "b")), np.ones(4) / 2), U_NEAR, ("a", "b")),
    "tensor": lambda: tensor(*LONG[:2]),
    "generalized_ghz": lambda: generalized_ghz(GhzSpec(local_bases=(V_NEAR,) * 4)),
    "DensityMatrix.from_state": lambda: DensityMatrix.from_state(LONG[0]),
    "corrections_from": lambda: corrections_from(measurement_basis(SPEC_NEAR), dressed_channel(SPEC_NEAR)),
}


@pytest.mark.parametrize("name", sorted(COMPOSED))
def test_results_composed_of_checked_inputs_are_returned(name):
    """Each input passes its constructor; the result carries the deviation they add up to,
    which a constructor would reject, and is returned without a warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = COMPOSED[name]()
    values = [r.corrected_state for r in result] if name == "run_protocol" else [result]
    decisions = [outcome(CorrectionTable, v.ops)[0] if isinstance(v, CorrectionTable)
                 else outcome(type(v), v.register, numbers(v))[0] for v in values]
    assert "error" in decisions


def test_three_tangle_uses_a_state_as_it_is_and_checks_an_array():
    state = tensor(LONG[0], tensor(LONG[1], LONG[2]))  # |psi| = (1 + 0.9e-12)^3, beyond ATOL
    assert three_tangle(state) == 0.0  # a product state
    with pytest.raises(ContractError, match="state is not normalized"):
        three_tangle(state.amplitudes)


# --- report rows ----------------------------------------------------------------
ROW_VALUES = [0.0, -0.0, 1e-11, 0.5, 1.0, 2.0, 1 / 3, np.float64(0.5), np.float32(0.25),
              1, 0, np.int64(1), True, False, np.bool_(True), [1.0, 2.0], (0.5,), None]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(ROW_VALUES[:-1]), st.sampled_from(ROW_VALUES), st.sampled_from(ROW_VALUES))
def test_check_rows_equal_the_isinstance_chain(value, target, tolerance):
    if isinstance(target, (list, tuple)) or isinstance(tolerance, (list, tuple)):
        return  # no row is built against a list target or tolerance
    got, ref = report.check("row", value, target, tolerance), ref_check("row", value, target, tolerance)
    assert got == ref
    assert [type(v) for v in got.values()] == [type(v) for v in ref.values()]

