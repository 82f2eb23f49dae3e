"""The standard protocol, the one `entqc teleport` runs: the sixteen-outcome
dressed joint measurement with sigma-pair corrections.

Roles by register: the unknown input lives on (U1,U2), the sender keeps
(A1,A2), the receiver holds (B1,B2). The protocol contracts each basis ket on
(A1,A2,U1,U2) against unknown (x) channel and never uses the known answer. Its
core, `run_protocol_batch`, works on (A1A2, U1U2) ket and (A1A2, receiver)
channel amplitude matrices batched over trials and outcomes;
`standard_protocol_batch` is the entry point of `entqc teleport` and `entqc
repro`, `teleport_all_outcomes` its object API. The general protocol objects
(`MeasurementBasis`, `run_protocol`, ...) are in `relations`, loaded on first use.
"""
from __future__ import annotations

import numpy as np

from .channel import RECEIVER_LABELS, ChannelSpec, epr_amplitudes
from .tensor import (
    PAULIS,
    ZERO_NORM,
    ContractError,
    QubitRegister,
    StateVector,
    _Frozen,
    _as_real,
    _moved,
    _require_kinds,
    _trusted,
    haar_random_state,
)

__getattr__ = _moved(__name__, "relations")  # `from entqc.teleport import MeasurementBasis` still works

UNKNOWN_LABELS = ("U1", "U2")
_UNKNOWN_REGISTER = QubitRegister(UNKNOWN_LABELS)
MEASURED_LABELS = ("A1", "A2", "U1", "U2")

#: outcome alphabet: (alpha, beta) with 1..4 meaning (identity, x, y, z)
OUTCOMES = tuple((a, b) for a in range(1, 5) for b in range(1, 5))


class UnknownState(_Frozen):
    """The two-qubit input to be teleported: amplitudes (c00, c01, c10, c11)."""

    def __init__(self, coefficients):
        self.__dict__["coefficients"] = StateVector(_UNKNOWN_REGISTER, coefficients).amplitudes

    @staticmethod
    def from_reals(reals) -> "UnknownState":
        """Build from 8 reals read as 4 [re, im] pairs."""
        arr = _as_real(reals, "amplitudes").reshape(-1)
        if arr.size != 8:
            raise ContractError("expected 8 reals (4 [re, im] pairs)")
        return UnknownState(arr[0::2] + 1j * arr[1::2])

    @staticmethod
    def random(seed) -> "UnknownState":
        return _trusted(UnknownState, coefficients=haar_random_state(2, seed))

    def as_state(self, labels=UNKNOWN_LABELS) -> StateVector:
        return StateVector(QubitRegister(tuple(labels)), self.coefficients)


#: the sixteen sigma-pairs in OUTCOMES order, entry [a, b, i, k, j, l] = P_a[i, j] P_b[k, l]
#: (P_a (x) P_b, as `kron` gives it), the standard corrections, and the series-form kets
#: sigma-pair^T / 2 on bare EPR pairs; read-only, checked as `relations` objects
_P = np.array(PAULIS)
_SIGMA_PAIRS = (_P[:, None, :, None, :, None] * _P[None, :, None, :, None, :]).reshape(16, 4, 4)
_SERIES_KETS = epr_amplitudes(_SIGMA_PAIRS)
_SIGMA_PAIRS.flags.writeable = _SERIES_KETS.flags.writeable = False


class TeleportOutcome(_Frozen):
    """One of the sixteen measurement results and the receiver's states."""

    def __init__(self, outcome: tuple[int, int], probability: float, bob_state: StateVector,
                 corrected_state: StateVector):
        self.__dict__.update(outcome=outcome, probability=probability, bob_state=bob_state,
                             corrected_state=corrected_state)


def _states(labels, rows) -> tuple[StateVector, ...]:
    """Read-only StateVectors on `labels` for the rows of a (n, dim) stack derived from checked inputs."""
    register = QubitRegister(tuple(labels))
    rows = np.ascontiguousarray(rows, dtype=complex)
    rows.setflags(write=False)
    return tuple(_trusted(StateVector, register=register, amplitudes=row) for row in rows)


def run_protocol_batch(unknowns, kets, channels, corrections):
    """All sixteen outcomes of T runs: inputs (T, 4), kets ([T,] 16, 4, 4),
    channels (T, 4, 4), corrections ([T,] 16, 4, 4). Returns probabilities
    (T, 16), receiver and corrected states (T, 16, 4). The kets meet the input,
    then the channel: two products per trial, none per (trial, outcome); kets
    shared by all trials meet all T inputs in one (T, 4) . (4, 64) product."""
    if kets.ndim == 3:
        sender = unknowns @ kets.reshape(64, 4).conj().T
    else:  # conj(K) c = conj(K conj(c)): only the (T, 64, 1) product is conjugated
        sender = (kets.reshape(-1, 64, 4) @ unknowns.conj()[:, :, None]).conj()
    raw = sender.reshape(-1, 16, 4) @ channels
    parts = raw.view(raw.real.dtype)
    probabilities = np.einsum("tgk,tgk->tg", parts, parts)
    if probabilities.min() < ZERO_NORM**2:  # |raw| < ZERO_NORM, as in StateVector.from_raw
        raise ContractError("cannot normalize a zero amplitude vector")
    bob = np.divide(raw, np.sqrt(probabilities)[..., None], out=raw)  # in place: one fewer (T, 16, 4)
    if corrections.ndim == 3:  # shared: one (4, 4) . (4, T) product per outcome
        corrected = np.matmul(corrections, bob.transpose(1, 2, 0)).transpose(2, 0, 1)
    else:
        corrected = np.einsum("tgij,tgj->tgi", corrections, bob)
    return probabilities, bob, corrected


def standard_protocol_batch(unknowns, dressings):
    """`run_protocol_batch` of the standard protocol on inputs (T, 4) and
    dressings D (T, 4, 4), sigma-pair corrections. The dressed ket of
    sigma-pair . D is D^T applied to the shared sigma-pair ket, so each D
    joins its channel instead, as conj(D) . channel: no per-trial ket is built."""
    channels = dressings.conj() @ epr_amplitudes(dressings)
    return run_protocol_batch(unknowns, _SERIES_KETS, channels, _SIGMA_PAIRS)


def _outcomes(labels, batch) -> list[TeleportOutcome]:
    """The sixteen TeleportOutcomes of a T = 1 `run_protocol_batch` result."""
    probabilities, bob, corrected = (a[0] for a in batch)
    states = _states(labels, np.concatenate([bob, corrected]))
    return list(map(TeleportOutcome, OUTCOMES, probabilities.tolist(), states[:16], states[16:]))


def teleport_all_outcomes(unknown: UnknownState, channel: ChannelSpec) -> list[TeleportOutcome]:
    """The standard protocol (dressed basis, dressed channel, sigma corrections):
    `standard_protocol_batch` at T = 1, on the spec's checked dressing."""
    if not (isinstance(unknown, UnknownState) and isinstance(channel, ChannelSpec)):  # builds nothing per op
        _require_kinds("teleport_all_outcomes", ("unknown", unknown, UnknownState), ("channel", channel, ChannelSpec))
    return _outcomes(RECEIVER_LABELS, standard_protocol_batch(
        unknown.coefficients[None], channel.dressing[None]))


