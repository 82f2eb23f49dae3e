"""Four-qubit channel construction and validation.

The channel register is ordered (A1, A2, B1, B2): the first pair stays with
the sender, the second travels to the receiver. A channel is usable for
teleportation exactly when both two-qubit marginals are maximally mixed.
"""
from __future__ import annotations

import functools
import json
import os
from dataclasses import dataclass

import numpy as np

from .tensor import (
    ATOL,
    ContractError,
    I2,
    QubitRegister,
    StateVector,
    _as_complex,
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

# Looser than construction tolerance so accumulated products still validate.
VALID_CHANNEL_ATOL = 1e-10

BUILTIN_CHANNELS = ("epr", "bell-transformed", "ghz")


@dataclass(frozen=True, eq=False)
class ChannelSpec:
    """A two-qubit dressing applied to the receiver half of the EPR-pair channel.

    Only the net dressing is stored: the protocol cannot distinguish how it
    was factored.
    """

    dressing: np.ndarray
    name: str = ""

    def __post_init__(self):
        d = require_unitary(self.dressing, what="channel dressing")
        if d.shape != (4, 4):
            raise ContractError("channel dressing must be a two-qubit (4x4) operator")
        object.__setattr__(self, "dressing", d)


def epr_pair_channel() -> StateVector:
    """Two EPR pairs, (A1,B1) and (A2,B2): amplitude matrix I/2 (see `epr_amplitudes`)."""
    return StateVector(_CHANNEL_REGISTER, np.eye(4) / 2.0)


def epr_amplitudes(ops) -> np.ndarray:
    """Amplitude matrices of (1 (x) M)|EPR pairs> for operators M (..., 4, 4):
    M on one half maps the pairs' amplitude matrix K to K M^T, so I/2 to M^T/2 (C-ordered)."""
    return np.multiply(np.swapaxes(ops, -1, -2), 0.5, order="C")


def dressed_channel(spec: ChannelSpec) -> StateVector:
    """The EPR-pair channel with `spec.dressing` D on the receiver pair, normalized as D is unitary."""
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


@dataclass(frozen=True, eq=False)
class GhzSpec:
    """Two-branch generalized GHZ state of four qubits.

    `amplitudes` weights the two branches; `local_bases` gives one 2x2 unitary
    per qubit whose columns are that qubit's branch-0 and branch-1 kets
    (defaults to the computational basis on every qubit).
    """

    amplitudes: tuple[float, float] = (1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0))
    local_bases: tuple = ()

    def __post_init__(self):
        lam = np.asarray(self.amplitudes, dtype=float)
        if lam.shape != (2,) or np.any(lam < 0.0):
            raise ContractError("amplitudes must be two nonnegative reals")
        if not abs(lam[0] ** 2 + lam[1] ** 2 - 1.0) <= ATOL:  # NaN fails too
            raise ContractError("branch amplitudes must satisfy l0^2 + l1^2 = 1")
        object.__setattr__(self, "amplitudes", (float(lam[0]), float(lam[1])))
        bases = self.local_bases or (I2, I2, I2, I2)
        if len(bases) != 4:
            raise ContractError("need one basis pair per qubit (four total)")
        bases = _unitary_stack(bases, (2, 2), "local basis pair", "local basis pairs must be 2x2")
        object.__setattr__(self, "local_bases", tuple(bases))


def generalized_ghz(spec: GhzSpec = GhzSpec()) -> StateVector:
    """Sum of two orthogonal product branches with the spec's amplitudes."""
    def branch(k):
        # the flattened outer product of the four kets: their Kronecker
        # product, the same numbers without a kron per factor
        return functools.reduce(np.multiply.outer, [b[:, k] for b in spec.local_bases]).reshape(-1)

    amps = spec.amplitudes[0] * branch(0) + spec.amplitudes[1] * branch(1)
    return StateVector(_CHANNEL_REGISTER, amps)


def is_valid_channel(state: StateVector) -> tuple[bool, float]:
    """Maximal-entanglement check across the sender/receiver split.

    Returns (ok, max_deviation): ok iff both two-qubit marginals equal I/4
    within 1e-10, with the worst entrywise deviation reported either way.
    """
    if state.register.size != 4:
        raise ContractError("a channel state must have exactly four qubits")
    labels = state.register.labels
    marginals = reduced_densities(state, (labels[:2], labels[2:]))
    dev = float(np.abs(marginals - np.eye(4) / 4.0).max())
    return dev <= VALID_CHANNEL_ATOL, dev


@dataclass(frozen=True, eq=False)
class ResolvedChannel:
    """A named channel ready for use: its spec when dressed (None for the
    undressed GHZ channel) and its state, built on first read of `state`."""

    name: str
    spec: ChannelSpec | None

    @functools.cached_property
    def state(self) -> StateVector:
        return generalized_ghz() if self.spec is None else dressed_channel(self.spec)


#: the built-in channels' specs, each checked once (ghz is undressed)
_BUILTIN_SPECS = {"epr": ChannelSpec(np.eye(4, dtype=complex), name="epr"), "ghz": None,
                  "bell-transformed": ChannelSpec(bell_transform_matrix(), name="bell-transformed")}


def builtin_channel(name: str) -> ResolvedChannel:
    if name not in BUILTIN_CHANNELS:  # by ==, so an unhashable name is unknown too
        raise ContractError(f"unknown channel {name!r}; built-ins: {', '.join(BUILTIN_CHANNELS)}")
    return ResolvedChannel(name, _BUILTIN_SPECS[name])


def _complex_from_pair(node, what: str) -> complex:
    if (
        not isinstance(node, (list, tuple))
        or len(node) != 2
        or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in node)
    ):
        raise ContractError(f"{what}: complex entries must be [re, im] pairs")
    try:
        return complex(node[0], node[1])
    except OverflowError as exc:  # an integer beyond float range
        raise ContractError(f"{what}: an entry is out of float range") from exc


def _matrix_from_json(node, what: str) -> np.ndarray:
    """Accept 16 [re,im] pairs row-major, or four rows of four pairs."""
    if not isinstance(node, list):
        raise ContractError(f"{what} must be a JSON array")
    if len(node) == 16:
        flat = [_complex_from_pair(x, what) for x in node]
    elif len(node) == 4 and all(isinstance(r, list) and len(r) == 4 for r in node):
        flat = [_complex_from_pair(x, what) for row in node for x in row]
    else:
        raise ContractError(
            f"{what} must be 16 [re, im] pairs (row-major) or a 4x4 nesting of them"
        )
    return _as_complex(flat, what).reshape(4, 4)


def load_channel_json(path: str) -> ChannelSpec:
    """Parse a channel spec document; raises ContractError on malformed input."""
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
    """Map a CLI-style channel argument (built-in name or JSON path)."""
    if arg in BUILTIN_CHANNELS:
        return builtin_channel(arg)
    if arg.endswith(".json") or os.path.exists(arg):
        spec = load_channel_json(arg)
        return ResolvedChannel(spec.name, spec)
    raise ContractError(
        f"unknown channel {arg!r}; built-ins: {', '.join(BUILTIN_CHANNELS)} "
        "(or pass a .json spec file)"
    )
