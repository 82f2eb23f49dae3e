"""The sixteen-outcome joint measurement and the full teleportation protocol.

Roles by register: the unknown input lives on (U1,U2), the sender keeps
(A1,A2), the receiver holds (B1,B2). Measurement bases are four-qubit states
on (A1,A2,U1,U2). The protocol contracts each basis ket against
unknown (x) channel and never uses the known answer. Its core works on
(A1A2, U1U2) ket and (A1A2, receiver) channel amplitude matrices batched over
trials and outcomes; the functions on objects are its single-trial cases.
`standard_protocol_batch` is the array entry point that `entqc teleport` and
`entqc repro` use; `teleport_all_outcomes` is the object API. The paper's
relations on these objects are in `relations`, imported on first use.
"""
from __future__ import annotations

import numpy as np

from .channel import RECEIVER_LABELS, SENDER_LABELS, ChannelSpec, epr_amplitudes
from .tensor import (
    ATOL,
    ZERO_NORM,
    ContractError,
    PAULIS,
    QubitRegister,
    StateVector,
    _Frozen,
    _as_complex,
    _as_real,
    _moved,
    _require,
    _require_kinds,
    _split_matrix,
    _trusted,
    _unitary_stack,
    haar_random_state,
)

__getattr__ = _moved(__name__, "relations")  # `from entqc.teleport import series_form` still works

UNKNOWN_LABELS = ("U1", "U2")
_UNKNOWN_REGISTER = QubitRegister(UNKNOWN_LABELS)
MEASURED_LABELS = ("A1", "A2", "U1", "U2")

#: outcome alphabet: (alpha, beta) with 1..4 meaning (identity, x, y, z)
OUTCOMES = tuple((a, b) for a in range(1, 5) for b in range(1, 5))
_OUTCOME_INDEX = {g: i for i, g in enumerate(OUTCOMES)}


def pauli_pair(alpha: int, beta: int) -> np.ndarray:
    """sigma_alpha (x) sigma_beta with indices 1..4 = (identity, x, y, z)."""
    if alpha not in (1, 2, 3, 4) or beta not in (1, 2, 3, 4):
        raise ContractError(f"outcome indices must lie in 1..4, got {(alpha, beta)}")
    return _SIGMA_PAIRS[4 * int(alpha) + int(beta) - 5].copy()


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


def _outcome_index(outcome) -> int:
    try:
        return _OUTCOME_INDEX[tuple(outcome)]
    except (KeyError, TypeError):  # TypeError: not iterable, or an index that is not hashable
        raise ContractError(f"unknown outcome {outcome!r}; both indices run 1..4") from None


class MeasurementBasis(_Frozen):
    """Sixteen joint-measurement kets on (A1,A2,U1,U2), in OUTCOMES order.

    `amplitudes` is one read-only (16, 16) array, row g the ket of outcome g;
    sixteen StateVectors on (A1,A2,U1,U2) are accepted in its place.
    """

    def __init__(self, amplitudes):
        kets = amplitudes
        if not isinstance(kets, np.ndarray):
            try:
                kets = tuple(kets)
            except TypeError:  # not iterable: fails the check below as one item
                kets = (kets,)
            if not all(isinstance(k, StateVector) and k.register.labels == MEASURED_LABELS
                       for k in kets):
                raise ContractError(f"basis kets must be StateVectors on {MEASURED_LABELS}")
            kets = [k.amplitudes for k in kets]
        amps = _as_complex(kets, "basis").copy()
        if amps.shape != (16, 16):
            raise ContractError(f"a measurement basis is 16 kets of 16 amplitudes, got {amps.shape}")
        # rows orthonormal (the Gram diagonal also checks each ket's norm) and columns
        # complete (the projectors resolve the identity): one stacked unitarity check
        _require(np.stack([amps.T, amps]), "unitary", ATOL, "basis is not orthonormal and complete")
        amps.setflags(write=False)
        self.__dict__["amplitudes"] = amps

    @property
    def kets(self) -> tuple[StateVector, ...]:
        return _states(MEASURED_LABELS, self.amplitudes)

    def ket(self, outcome) -> StateVector:
        return _trusted(StateVector, register=QubitRegister(MEASURED_LABELS),
                        amplitudes=self.amplitudes[_outcome_index(outcome)])

    def items(self):
        return zip(OUTCOMES, self.kets)


class CorrectionTable(_Frozen):
    """The receiver's per-outcome recovery unitaries, in OUTCOMES order.

    `ops` is one read-only (16, 4, 4) array; any sequence of sixteen 4x4
    unitaries is accepted in its place.
    """

    def __init__(self, ops):
        try:
            ops = ops if isinstance(ops, np.ndarray) else tuple(ops)
            count = len(ops)
        except TypeError:
            raise ContractError(f"a correction table is a sequence of 16 unitaries, got {ops!r}") from None
        if count != 16:
            raise ContractError(f"a correction table has 16 entries, got {count}")
        ops = _unitary_stack(ops, (4, 4), "correction", "corrections act on two qubits (4x4)")
        self.__dict__["ops"] = ops

    def op(self, outcome) -> np.ndarray:
        return self.ops[_outcome_index(outcome)]

    def items(self):
        return zip(OUTCOMES, self.ops)


#: the sixteen sigma-pairs in OUTCOMES order, entry [a, b, i, k, j, l] = P_a[i, j] P_b[k, l]
#: (P_a (x) P_b, as `kron` gives it): the standard correction table
_P = np.array(PAULIS)
_STANDARD_CORRECTIONS = CorrectionTable(
    (_P[:, None, :, None, :, None] * _P[None, :, None, :, None, :]).reshape(16, 4, 4))
_SIGMA_PAIRS = _STANDARD_CORRECTIONS.ops
#: the series-form basis: kets sigma-pair^T / 2 on bare EPR pairs, one for every channel
_SERIES_BASIS = MeasurementBasis(epr_amplitudes(_SIGMA_PAIRS).reshape(16, 16))
_SERIES_KETS = _SERIES_BASIS.amplitudes.reshape(16, 4, 4)


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


def _channel_matrix(channel_state: StateVector):
    """(rest, K): K is the amplitude matrix on (A1A2, rest), rest the other two qubits."""
    labels = channel_state.register.labels
    rest = tuple(lab for lab in labels if lab not in SENDER_LABELS)
    if len(labels) != 4 or len(rest) != 2 or set(rest) & set(UNKNOWN_LABELS):
        raise ContractError(f"register mismatch: channel on {labels}")
    return rest, _split_matrix(channel_state, SENDER_LABELS)


def measurement_kets(dressings) -> np.ndarray:
    """Kets (1 (x) sigma-pair . D)|EPR pairs> for dressings D (..., 4, 4): (..., 16, 4, 4),
    from one (64, 4) . (4, 4) product of the stacked sigma-pairs per D."""
    products = _SIGMA_PAIRS.reshape(64, 4) @ dressings
    return epr_amplitudes(products.reshape(*products.shape[:-2], 16, 4, 4))


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


def measurement_basis(channel: ChannelSpec) -> MeasurementBasis:
    """The 16 kets (1 (x) sigma-pair . D)|EPR pairs> on (A,U): a basis as D is unitary."""
    _require_kinds("measurement_basis", ("channel", channel, ChannelSpec))
    return _trusted(MeasurementBasis, amplitudes=measurement_kets(channel.dressing).reshape(16, 16))


def standard_corrections() -> CorrectionTable:
    """Recovery table for the dressed protocol: plain sigma-pairs."""
    return _STANDARD_CORRECTIONS


def _outcomes(labels, batch) -> list[TeleportOutcome]:
    """The sixteen TeleportOutcomes of a T = 1 `run_protocol_batch` result."""
    probabilities, bob, corrected = (a[0] for a in batch)
    states = _states(labels, np.concatenate([bob, corrected]))
    return list(map(TeleportOutcome, OUTCOMES, probabilities.tolist(), states[:16], states[16:]))


def run_protocol(
    unknown: UnknownState,
    basis: MeasurementBasis,
    channel_state: StateVector,
    corrections: CorrectionTable,
) -> list[TeleportOutcome]:
    """Simulate all sixteen outcomes of one protocol variant end to end."""
    _require_kinds("run_protocol", ("unknown", unknown, UnknownState), ("basis", basis, MeasurementBasis),
                   ("channel_state", channel_state, StateVector), ("corrections", corrections, CorrectionTable))
    rest, channel = _channel_matrix(channel_state)
    kets = basis.amplitudes.reshape(16, 4, 4)
    batch = run_protocol_batch(unknown.coefficients[None], kets, channel[None], corrections.ops)
    return _outcomes(rest, batch)


def teleport_all_outcomes(unknown: UnknownState, channel: ChannelSpec) -> list[TeleportOutcome]:
    """The standard protocol (dressed basis, dressed channel, sigma corrections):
    `standard_protocol_batch` at T = 1, on the spec's checked dressing."""
    if not (isinstance(unknown, UnknownState) and isinstance(channel, ChannelSpec)):  # builds nothing per op
        _require_kinds("teleport_all_outcomes", ("unknown", unknown, UnknownState), ("channel", channel, ChannelSpec))
    return _outcomes(RECEIVER_LABELS, standard_protocol_batch(
        unknown.coefficients[None], channel.dressing[None]))


