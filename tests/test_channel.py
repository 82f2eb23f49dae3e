import json
import os
import re

import numpy as np
import pytest

from entqc.channel import (
    BUILTIN_CHANNELS,
    CHANNEL_LABELS,
    ChannelSpec,
    GhzSpec,
    _matrix_from_json,
    bell_transform_matrix,
    builtin_channel,
    dressed_channel,
    epr_pair_channel,
    generalized_ghz,
    is_valid_channel,
    load_channel_json,
    resolve_channel,
)
from entqc.primitives import apply_unitary, haar_random_unitary, schmidt_coefficients, schmidt_rank
from entqc.tensor import ContractError, QubitRegister, StateVector, reduced_density

INV_SQRT2 = 1.0 / np.sqrt(2.0)

# image of |00>, |01>, |10>, |11> under the reference dressing, columnwise
EXPECTED_BELL_MATRIX = INV_SQRT2 * np.array(
    [
        [1, 0, 0, 1],
        [0, 1, 1, 0],
        [0, -1, 1, 0],
        [-1, 0, 0, 1],
    ],
    dtype=complex,
)

# nonzero channel amplitudes |A1 A2 B1 B2> -> sign of 1/(2 sqrt 2)
EXPECTED_CHANNEL_SIGNS = {
    0b0000: +1, 0b0011: -1,
    0b0101: +1, 0b0110: -1,
    0b1001: +1, 0b1010: +1,
    0b1100: +1, 0b1111: +1,
}


def test_epr_channel_amplitudes_exact():
    amps = epr_pair_channel().amplitudes
    expected = np.zeros(16)
    expected[[0b0000, 0b0101, 0b1010, 0b1111]] = 0.5
    assert np.array_equal(amps, expected.astype(complex))


def test_epr_channel_is_valid():
    ok, dev = is_valid_channel(epr_pair_channel())
    assert ok and dev < 1e-15


def test_epr_channel_schmidt_structure():
    epr = epr_pair_channel()
    # factorizes across the two physical pairs...
    assert schmidt_rank(epr, ("A1", "B1")) == 1
    # ...and is maximally entangled between senders and receivers
    coeffs = schmidt_coefficients(epr, ("A1", "A2"))
    assert np.abs(coeffs - 0.5).max() < 1e-15


def test_bell_transform_matrix_is_frozen():
    m = bell_transform_matrix()
    assert np.abs(m - EXPECTED_BELL_MATRIX).max() < 1e-15
    assert np.abs(m.conj().T @ m - np.eye(4)).max() < 1e-15


def test_bell_transform_matrix_read_only():
    m = bell_transform_matrix()
    with pytest.raises(ValueError):
        m[0, 0] = 9.0


def test_bell_transformed_channel_amplitudes():
    state = builtin_channel("bell-transformed").state
    amp = 1.0 / (2.0 * np.sqrt(2.0))
    for idx in range(16):
        want = EXPECTED_CHANNEL_SIGNS.get(idx, 0) * amp
        got = state.amplitudes[idx]
        assert abs(got - want) <= 1e-15, f"amplitude {idx:04b}: {got} != {want}"


def test_bell_transformed_channel_is_valid_but_not_pairwise():
    state = builtin_channel("bell-transformed").state
    ok, dev = is_valid_channel(state)
    assert ok and dev < 1e-15
    assert schmidt_rank(state, ("A1", "B1")) > 1


def test_identity_dressing_reproduces_bare_channel():
    bare = dressed_channel(ChannelSpec(np.eye(4)))
    assert np.abs(bare.amplitudes - epr_pair_channel().amplitudes).max() < 1e-15


def test_dressing_composes():
    rng = np.random.default_rng(8)
    d1 = haar_random_unitary(2, rng)
    d2 = haar_random_unitary(2, rng)
    combined = dressed_channel(ChannelSpec(d2 @ d1))
    staged = apply_unitary(dressed_channel(ChannelSpec(d1)), d2, ("B1", "B2"))
    assert np.abs(combined.amplitudes - staged.amplitudes).max() < 1e-13


def test_channel_spec_rejects_nonunitary_dressing():
    with pytest.raises(ContractError):
        ChannelSpec(np.ones((4, 4)))
    nan_dev = np.eye(4, dtype=complex)
    nan_dev[:2, :2] = [[1e200, 1e200], [1e200j, -1e200j]]
    with pytest.raises(ContractError, match="not unitary"):
        ChannelSpec(nan_dev)


def test_ghz_default_is_canonical():
    state = generalized_ghz()
    expected = np.zeros(16, dtype=complex)
    expected[0] = expected[15] = INV_SQRT2
    assert np.abs(state.amplitudes - expected).max() < 1e-15
    assert state.register.labels == CHANNEL_LABELS


def test_ghz_with_custom_amplitudes():
    spec = GhzSpec(amplitudes=(0.6, 0.8))
    state = generalized_ghz(spec)
    assert abs(state.amplitudes[0] - 0.6) < 1e-15
    assert abs(state.amplitudes[15] - 0.8) < 1e-15


def test_ghz_with_local_bases():
    h = INV_SQRT2 * np.array([[1, 1], [1, -1]], dtype=complex)
    spec = GhzSpec(local_bases=(h, np.eye(2), np.eye(2), np.eye(2)))
    state = generalized_ghz(spec)
    expected = (
        INV_SQRT2 * np.kron(h[:, 0], np.array([1, 0, 0, 0, 0, 0, 0, 0]))
        + INV_SQRT2 * np.kron(h[:, 1], np.array([0, 0, 0, 0, 0, 0, 0, 1.0]))
    )
    assert np.abs(state.amplitudes - expected).max() < 1e-15


def test_ghz_spec_validation():
    with pytest.raises(ContractError):
        GhzSpec(amplitudes=(0.9, 0.9))  # not normalized
    with pytest.raises(ContractError):
        GhzSpec(amplitudes=(-0.6, 0.8))  # negative branch weight
    with pytest.raises(ContractError):
        GhzSpec(local_bases=(np.ones((2, 2)),) * 4)  # not unitary
    with pytest.raises(ContractError):
        GhzSpec(local_bases=(np.eye(2),))  # wrong count
    with pytest.raises(ContractError, match="2x2"):  # shapes are read before unitarity
        GhzSpec(local_bases=(np.eye(2),) * 3 + (np.ones((4, 4)),))


@pytest.mark.parametrize("amplitudes", [(np.nan, np.nan), (np.nan, 1.0), (1.0, np.nan),
                                        (np.inf, 0.0), (0.0, np.inf)])
def test_ghz_spec_rejects_non_finite_amplitudes(amplitudes):
    with pytest.raises(ContractError, match="l0"):
        GhzSpec(amplitudes=amplitudes)


def test_ghz_is_not_a_valid_channel():
    ok, dev = is_valid_channel(generalized_ghz())
    assert not ok
    assert abs(dev - 0.25) < 1e-12


def test_is_valid_channel_requires_four_qubits():
    two = StateVector(QubitRegister(("a", "b")), np.array([1, 0, 0, 0], dtype=complex))
    with pytest.raises(ContractError):
        is_valid_channel(two)


def test_builtin_channel_names():
    assert set(BUILTIN_CHANNELS) == {"epr", "bell-transformed", "ghz"}
    for name in ("bogus", "EPR", None, ["epr"], {"epr": 1}):  # unhashable names too
        with pytest.raises(ContractError, match="unknown channel .*; built-ins: epr, bell-transformed, ghz"):
            builtin_channel(name)


def test_valid_channel_for_any_unitary_dressing():
    rng = np.random.default_rng(9)
    for _ in range(20):
        state = dressed_channel(ChannelSpec(haar_random_unitary(2, rng)))
        ok, dev = is_valid_channel(state)
        assert ok and dev < 1e-12


# --- JSON channel files -----------------------------------------------------

def _pairs(matrix):
    return [[float(z.real), float(z.imag)] for z in np.asarray(matrix).reshape(-1)]


def test_load_channel_flat_and_nested_agree(tmp_path):
    m = bell_transform_matrix()
    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps({"dressing": _pairs(m)}))
    nested = tmp_path / "nested.json"
    nested.write_text(
        json.dumps({"dressing": [[[float(z.real), float(z.imag)] for z in row] for row in m]})
    )
    a = load_channel_json(str(flat))
    b = load_channel_json(str(nested))
    assert np.abs(a.dressing - b.dressing).max() < 1e-15
    assert a.name == "flat" and b.name == "nested"


def test_load_channel_explicit_name_wins(tmp_path):
    path = tmp_path / "whatever.json"
    path.write_text(json.dumps({"name": "mychannel", "dressing": _pairs(np.eye(4))}))
    assert load_channel_json(str(path)).name == "mychannel"


def test_load_channel_factored_form(tmp_path):
    rng = np.random.default_rng(10)
    u = haar_random_unitary(2, rng)
    v = haar_random_unitary(2, rng)
    path = tmp_path / "factored.json"
    path.write_text(json.dumps({"u": _pairs(u), "v": _pairs(v)}))
    spec = load_channel_json(str(path))
    assert np.abs(spec.dressing - v @ u.T).max() < 1e-14
    ok, _ = is_valid_channel(dressed_channel(spec))
    assert ok
    # a dressing at ChannelSpec's 1e-12 unitarity edge still gives a valid
    # channel, so a dressed channel never needs the marginal check
    edge = v * (1.0 + 4.5e-13)
    unit_dev = np.abs(edge.conj().T @ edge - np.eye(4)).max()
    assert 8e-13 < unit_dev <= 1e-12
    ok, dev = is_valid_channel(dressed_channel(ChannelSpec(edge)))
    assert ok and dev <= 1e-12


@pytest.mark.parametrize(
    "doc",
    [
        "not json at all {",
        json.dumps([1, 2, 3]),
        json.dumps({"nothing": 1}),
        json.dumps({"dressing": [[1, 0]] * 15}),
        json.dumps({"dressing": [[1, 0, 0]] * 16}),
        json.dumps({"dressing": [["a", 0]] * 16}),
        json.dumps({"dressing": [[1, 0]] * 16}),  # all-ones matrix is not unitary
        json.dumps({"name": 7, "dressing": None}),
        json.dumps({"u": [[1, 0]] * 16}),  # v missing
    ],
)
def test_load_channel_malformed_documents(tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(doc)
    with pytest.raises(ContractError):
        load_channel_json(str(path))


SHAPE_MESSAGE = r"must be 16 \[re, im\] pairs \(row-major\) or a 4x4 nesting of them"
PAIRS_MESSAGE = r"complex entries must be \[re, im\] pairs"


@pytest.mark.parametrize(
    "dressing, message",
    [
        # not an array
        ({"re": 1}, "dressing must be a JSON array"),
        ("1,0", "dressing must be a JSON array"),
        # neither 16 pairs nor 4 rows of 4
        ([[1, 0]] * 15, SHAPE_MESSAGE),
        ([[[1, 0]] * 4] * 3 + [[[1, 0]] * 3], SHAPE_MESSAGE),
        ([[[1, 0]] * 4] * 3 + [[1, 0]], SHAPE_MESSAGE),
        # pairs of anything but two JSON numbers, bools included
        ([[1, 0]] * 15 + [[1, True]], PAIRS_MESSAGE),
        ([[1, 0]] * 15 + [[1, 0, 0]], PAIRS_MESSAGE),
        ([[1, 0]] * 15 + ["ab"], PAIRS_MESSAGE),
        ([[[1, 0]] * 4] * 3 + [[[1, 0]] * 3 + [[None, 0]]], PAIRS_MESSAGE),
        # an integer beyond float range
        ([[1, 0]] * 15 + [[0, -(10**400)]], "dressing: an entry is out of float range"),
    ],
    ids=["object", "string", "15 pairs", "ragged rows", "3 rows and a pair", "bool",
         "triple", "string pair", "null", "huge int"],
)
def test_load_channel_names_each_fault_of_a_matrix(tmp_path, dressing, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"dressing": dressing}))
    with pytest.raises(ContractError, match=message):
        load_channel_json(str(path))


def test_channel_matrix_reader_takes_each_pair_as_complex_re_im():
    # ints, signed zeros and subnormals come through as complex(re, im) makes them
    entries = [[0, -0.0], [-0.0, 0], [5e-324, -1], [1, 2**60], [-3, 0.5]] * 3 + [[0.25, -0.0]]
    expected = np.array([complex(re, im) for re, im in entries]).reshape(4, 4)
    for node in (entries, [entries[4 * i: 4 * i + 4] for i in range(4)]):
        matrix = _matrix_from_json(json.loads(json.dumps(node)), "u")
        assert matrix.dtype == complex and matrix.shape == (4, 4)
        assert np.array_equal(matrix.view(float), expected.view(float))
        assert np.array_equal(np.signbit(matrix.view(float)), np.signbit(expected.view(float)))


def test_load_channel_missing_file():
    with pytest.raises(ContractError):
        load_channel_json("/nonexistent/channel.json")


def test_load_channel_takes_a_path_and_never_a_file_descriptor(tmp_path):
    document = json.dumps({"dressing": _pairs(np.eye(4))})
    (tmp_path / "pathlike.json").write_text(document)
    assert load_channel_json(tmp_path / "pathlike.json").name == "pathlike"
    # open() reads an int (or bool) as a file descriptor, and closes it when done
    with pytest.raises(ContractError, match="a channel file path must be a str or os.PathLike, got True"):
        load_channel_json(True)
    os.fstat(1)  # stdout is still open
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, document.encode())
        with pytest.raises(ContractError, match=f"must be a str or os.PathLike, got {read_end}$"):
            load_channel_json(read_end)
        os.fstat(read_end)  # still open, and still holds the whole document
        assert os.read(read_end, 2 * len(document)) == document.encode()
    finally:
        os.close(read_end)
        os.close(write_end)


def test_resolve_channel_builtin_path_and_garbage(tmp_path):
    assert resolve_channel("epr").name == "epr"
    path = tmp_path / "custom.json"
    path.write_text(json.dumps({"dressing": _pairs(np.eye(4))}))
    resolved = resolve_channel(str(path))
    assert resolved.name == "custom"
    assert np.abs(resolved.state.amplitudes - epr_pair_channel().amplitudes).max() < 1e-15
    with pytest.raises(ContractError) as err:
        resolve_channel("no-such-channel")
    assert "bell-transformed" in str(err.value)


@pytest.mark.parametrize("arg", [5, None, b"custom.json", ["epr"], True], ids=repr)
def test_resolve_channel_rejects_a_non_str_argument_with_a_message(arg):
    with pytest.raises(ContractError, match=r"a \.json path \(str\), got " + re.escape(repr(arg)) + "$"):
        resolve_channel(arg)


def test_resolved_channel_builds_its_state_on_first_read(tmp_path):
    path = tmp_path / "haar.json"
    path.write_text(json.dumps({"dressing": _pairs(haar_random_unitary(2, 11))}))
    resolved = resolve_channel(str(path))
    assert "state" not in vars(resolved)  # resolving builds no state
    state = resolved.state
    assert resolved.state is state
    ref = dressed_channel(resolved.spec)
    assert state.register == ref.register
    assert np.array_equal(state.amplitudes, ref.amplitudes)
    # the undressed GHZ channel: (|0000> + |1111>)/sqrt2, as before
    ghz = builtin_channel("ghz")
    assert ghz.spec is None and "state" not in vars(ghz)
    expected = np.zeros(16, dtype=complex)
    expected[[0, 15]] = INV_SQRT2
    assert ghz.state.register.labels == CHANNEL_LABELS
    assert np.array_equal(ghz.state.amplitudes, expected)


def test_resolved_channel_marginals_follow_dressing():
    state = builtin_channel("bell-transformed").state
    for pair in (("A1", "A2"), ("B1", "B2")):
        marginal = reduced_density(state, pair).matrix
        assert np.abs(marginal - np.eye(4) / 4).max() < 1e-15
