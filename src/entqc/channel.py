"""Four-qubit channel construction and validation.

The channel register is ordered (A1, A2, B1, B2): the first pair stays with
the sender, the second travels to the receiver. A channel is usable for
teleportation exactly when both two-qubit marginals are maximally mixed.
"""
from __future__ import annotations

import functools
import json
import os

import numpy as np

from .tensor import (
    ATOL,
    EIG_ATOL,
    ContractError,
    I2,
    QubitRegister,
    StateVector,
    _Frozen,
    _as_real,
    _require_kinds,
    _trusted,
    _unitary_stack,
    reduced_densities,
    reduced_density,  # noqa: F401  (perfbench's traced cli_mix rebinds it here)
    require_unitary,
)

CHANNEL_LABELS = ("A1", "A2", "B1", "B2")
_CHANNEL_REGISTER = QubitRegister(CHANNEL_LABELS)
SENDER_LABELS = ("A1", "A2")
RECEIVER_LABELS = ("B1", "B2")

BUILTIN_CHANNELS = ("epr", "bell-transformed", "ghz")


class ChannelSpec(_Frozen):
    """A two-qubit dressing applied to the receiver half of the EPR-pair channel.

    Only the net dressing is stored: the protocol cannot distinguish how it
    was factored.
    """

    def __init__(self, dressing, name: str = ""):
        d = require_unitary(dressing, what="channel dressing")
        if d.shape != (4, 4):
            raise ContractError("channel dressing must be a two-qubit (4x4) operator")
        self.__dict__.update(dressing=d, name=name)


def epr_pair_channel() -> StateVector:
    """Two EPR pairs, (A1,B1) and (A2,B2): amplitude matrix I/2 (see `epr_amplitudes`)."""
    amplitudes = np.eye(4, dtype=complex).reshape(-1) / 2.0
    return _trusted(StateVector, register=_CHANNEL_REGISTER, amplitudes=amplitudes)


def epr_amplitudes(ops) -> np.ndarray:
    """Amplitude matrices of (1 (x) M)|EPR pairs> for operators M (..., 4, 4):
    M on one half maps the pairs' amplitude matrix K to K M^T, so I/2 to M^T/2 (C-ordered)."""
    return np.multiply(np.swapaxes(ops, -1, -2), 0.5, order="C")


def dressed_channel(spec: ChannelSpec) -> StateVector:
    """The EPR-pair channel with `spec.dressing` D on the receiver pair, normalized as D is unitary."""
    _require_kinds("dressed_channel", ("spec", spec, ChannelSpec))
    amplitudes = epr_amplitudes(spec.dressing).reshape(-1)
    return _trusted(StateVector, register=_CHANNEL_REGISTER, amplitudes=amplitudes)


def bell_transform_matrix() -> np.ndarray:
    """The dressing that turns the product basis into the Bell basis.

    Columns send |00>, |01>, |10>, |11> to (|00>-|11>)/sqrt2, (|01>-|10>)/sqrt2,
    (|01>+|10>)/sqrt2, (|00>+|11>)/sqrt2. Dressing the EPR-pair channel with it
    yields the reference inseparable channel used throughout the test suite.
    """
    s = 1.0 / np.sqrt(2.0)
    m = np.array(
        [
            [s, 0.0, 0.0, s],
            [0.0, s, s, 0.0],
            [0.0, -s, s, 0.0],
            [-s, 0.0, 0.0, s],
        ],
        dtype=complex,
    )
    m.setflags(write=False)
    return m


class GhzSpec(_Frozen):
    """Two-branch generalized GHZ state of four qubits.

    `amplitudes` weights the two branches; `local_bases` gives one 2x2 unitary
    per qubit whose columns are that qubit's branch-0 and branch-1 kets
    (defaults to the computational basis on every qubit).
    """

    def __init__(self, amplitudes=(1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)), local_bases=()):
        lam = _as_real(amplitudes, "branch amplitudes l0, l1")
        if lam.shape != (2,) or np.any(lam < 0.0):
            raise ContractError("amplitudes must be two nonnegative reals")
        if not abs(lam[0] ** 2 + lam[1] ** 2 - 1.0) <= ATOL:
            raise ContractError("branch amplitudes must satisfy l0^2 + l1^2 = 1")
        try:
            bases = tuple(local_bases if local_bases is not None else ()) or (I2, I2, I2, I2)
        except TypeError:
            raise ContractError(f"local bases must be four 2x2 unitaries, got {local_bases!r}") from None
        if len(bases) != 4:
            raise ContractError("need one basis pair per qubit (four total)")
        bases = _unitary_stack(bases, (2, 2), "local basis pair", "local basis pairs must be 2x2")
        self.__dict__.update(amplitudes=(float(lam[0]), float(lam[1])), local_bases=tuple(bases))


def generalized_ghz(spec: GhzSpec = GhzSpec()) -> StateVector:
    """Sum of two orthogonal product branches with the spec's amplitudes."""
    _require_kinds("generalized_ghz", ("spec", spec, GhzSpec))

    def branch(k):
        # the flattened outer product of the four kets: their Kronecker
        # product, the same numbers without a kron per factor
        return functools.reduce(np.multiply.outer, [b[:, k] for b in spec.local_bases]).reshape(-1)

    amps = spec.amplitudes[0] * branch(0) + spec.amplitudes[1] * branch(1)
    return _trusted(StateVector, register=_CHANNEL_REGISTER, amplitudes=amps)


def is_valid_channel(state: StateVector) -> tuple[bool, float]:
    """Maximal-entanglement check across the sender/receiver split.

    Returns (ok, max_deviation): ok iff both two-qubit marginals equal I/4
    within EIG_ATOL (1e-10), with the worst entrywise deviation reported either way.
    """
    _require_kinds("is_valid_channel", ("state", state, StateVector))
    if state.register.size != 4:
        raise ContractError("a channel state must have exactly four qubits")
    labels = state.register.labels
    marginals = reduced_densities(state, (labels[:2], labels[2:]))
    dev = float(np.abs(marginals - np.eye(4) / 4.0).max())
    return dev <= EIG_ATOL, dev


class ResolvedChannel(_Frozen):
    """A named channel ready for use: its spec when dressed (None for the
    undressed GHZ channel, whose state is built once) and its state, built on
    first read of `state`."""

    def __init__(self, name: str, spec: ChannelSpec | None):
        self.__dict__.update(name=name, spec=spec)

    @functools.cached_property
    def state(self) -> StateVector:
        return _GHZ_STATE if self.spec is None else dressed_channel(self.spec)


#: the built-in channels' specs, each checked once (ghz is undressed), and the
#: undressed channel's state, built once
_BUILTIN_SPECS = {"epr": ChannelSpec(np.eye(4, dtype=complex), name="epr"), "ghz": None,
                  "bell-transformed": ChannelSpec(bell_transform_matrix(), name="bell-transformed")}
_GHZ_STATE = generalized_ghz()


def builtin_channel(name: str) -> ResolvedChannel:
    if name not in BUILTIN_CHANNELS:  # by ==, so an unhashable name is unknown too
        raise ContractError(f"unknown channel {name!r}; built-ins: {', '.join(BUILTIN_CHANNELS)}")
    return ResolvedChannel(name, _BUILTIN_SPECS[name])


def _matrix_from_json(node, what: str) -> np.ndarray:
    """Accept 16 [re,im] pairs row-major, or four rows of four pairs: one scan
    of the shapes and entry types (int or float, not bool), then one float
    conversion viewed as complex."""
    if not isinstance(node, list):
        raise ContractError(f"{what} must be a JSON array")
    if len(node) == 4 and all(isinstance(r, list) and len(r) == 4 for r in node):
        node = [x for row in node for x in row]
    elif len(node) != 16:
        raise ContractError(f"{what} must be 16 [re, im] pairs (row-major) or a 4x4 nesting of them")
    real = (int, float)  # the exact types of a JSON number
    if not all(isinstance(x, (list, tuple)) and len(x) == 2 and type(x[0]) in real and type(x[1]) in real
               for x in node):
        raise ContractError(f"{what}: complex entries must be [re, im] pairs")
    return _as_real(node, what).view(complex).reshape(4, 4)


def load_channel_json(path: str | os.PathLike) -> ChannelSpec:
    """Parse a channel spec document; raises ContractError on malformed input.
    `path` is a str or os.PathLike: an int would be read, and closed, as a file descriptor."""
    if not isinstance(path, (str, os.PathLike)):
        raise ContractError(f"a channel file path must be a str or os.PathLike, got {path!r}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ContractError(f"cannot read channel file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ContractError(f"channel file {path!r} is not valid JSON: {exc}") from exc
    except ValueError as exc:  # e.g. an integer past the int-string digit limit
        raise ContractError(f"channel file {path!r} cannot be parsed: {exc}") from exc
    if not isinstance(doc, dict):
        raise ContractError(f"channel file {path!r} must hold a JSON object")
    name = doc.get("name", os.path.splitext(os.path.basename(path))[0])
    if not isinstance(name, str):
        raise ContractError("channel name must be a string")
    if "dressing" in doc:
        dressing = _matrix_from_json(doc["dressing"], "dressing")
    elif "u" in doc and "v" in doc:
        # factored form: net dressing = v . u^T, multiplied out immediately
        u = _matrix_from_json(doc["u"], "u")
        v = _matrix_from_json(doc["v"], "v")
        dressing = v @ u.T
    else:
        raise ContractError(
            'channel file needs a "dressing" matrix (or factored "u" and "v")'
        )
    return ChannelSpec(dressing, name=name)


def resolve_channel(arg: str) -> ResolvedChannel:
    """Map a CLI-style channel argument (built-in name or JSON path, a str)."""
    if not isinstance(arg, str):
        raise ContractError(f"a channel argument is a built-in name or a .json path (str), got {arg!r}")
    if arg in BUILTIN_CHANNELS:
        return builtin_channel(arg)
    if arg.endswith(".json") or os.path.exists(arg):
        spec = load_channel_json(arg)
        return ResolvedChannel(spec.name, spec)
    raise ContractError(
        f"unknown channel {arg!r}; built-ins: {', '.join(BUILTIN_CHANNELS)} "
        "(or pass a .json spec file)"
    )
