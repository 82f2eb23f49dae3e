"""Checks made once, at the boundary.

The unitarity and state checks have fast paths; the code they replaced is kept
here, test-only, as the oracle, and they must give its decisions, deviations,
messages and stored values. Values the library derives from checked inputs are wrapped without a
second check: they must be read-only and still pass the checks they skip. The
report's float rows must equal the rows of the code they replaced.
Hypothesis settings are fixed and derandomized, with no example database.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entqc import report
from entqc.channel import (
    BUILTIN_CHANNELS,
    CHANNEL_LABELS,
    ChannelSpec,
    builtin_channel,
    dressed_channel,
    generalized_ghz,
)
from entqc.entanglement import pair_analysis, triad_analysis
from entqc.teleport import (
    MeasurementBasis,
    UnknownState,
    measurement_basis,
    series_form,
    teleport_all_outcomes,
)
from entqc.tensor import (
    ATOL,
    ContractError,
    DensityMatrix,
    QubitRegister,
    StateVector,
    _as_complex,
    _require,
    haar_random_state,
    haar_random_unitary,
    haar_unitaries,
    reduced_density,
    require_unitary,
)


# --- test-only references: the code the fast paths replaced --------------------
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
    norm = np.sqrt(np.vdot(amps, amps).real)
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
    # the lean check's deviation is the full check's, bit for bit
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


# --- the state check -------------------------------------------------------------
REGISTERS = [QubitRegister(("a",)), QubitRegister(("a", "b")), QubitRegister(("a", "b", "c"))]
# squared norms 1 + d: the lean test's edge is |d| = ATOL, the full check's about 2 ATOL
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


def trusted_values(spec):
    state = dressed_channel(spec)
    yield "dressed_channel", state.amplitudes, lambda a: StateVector(QubitRegister(CHANNEL_LABELS), a)
    relabeled = state.relabeled({"B1": "U1"})
    assert relabeled.register.labels == ("A1", "A2", "U1", "B2")
    yield "relabeled", relabeled.amplitudes, lambda a: StateVector(relabeled.register, a)
    yield "UnknownState.random", UnknownState.random(11).coefficients, UnknownState
    yield "measurement_basis", measurement_basis(spec).amplitudes, MeasurementBasis
    yield "series_form", series_form(spec)[1].ops, lambda ops: require_unitary(ops)
    yield "reduced_density", reduced_density(state, ("A1", "B1")).matrix, None
    yield "pair_analysis", pair_analysis(state, ("A1", "B2")).reduced.matrix, None
    yield "triad_analysis", triad_analysis(state, ("A1", "A2", "B1")).reduced.matrix, None


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


def test_outcome_states_are_still_checked(monkeypatch):
    built = []
    check_state = StateVector.__post_init__

    def counted(self):
        built.append(self)
        check_state(self)

    monkeypatch.setattr(StateVector, "__post_init__", counted)
    outcomes = teleport_all_outcomes(UnknownState([1.0, 0.0, 0.0, 0.0]), ChannelSpec(np.eye(4)))
    states = [s for o in outcomes for s in (o.bob_state, o.corrected_state)]
    assert len(states) == 32 and all(any(s is b for b in built) for s in states)


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

