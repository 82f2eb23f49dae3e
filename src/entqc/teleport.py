"""The sixteen-outcome joint measurement and the full teleportation protocol.

Roles by register: the unknown input lives on (U1,U2), the sender keeps
(A1,A2), the receiver holds (B1,B2). Measurement bases are four-qubit states
on (A1,A2,U1,U2). The protocol contracts each basis ket against
unknown (x) channel, all sixteen in one batched contraction, and never uses
the known answer.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import CHANNEL_LABELS, SENDER_LABELS, ChannelSpec, dressed_channel
from .tensor import (
    ATOL,
    EIG_ATOL,
    ContractError,
    PAULIS,
    QubitRegister,
    StateVector,
    haar_random_state,
    kron,
    require_unitary,
    schmidt_rank,
)

UNKNOWN_LABELS = ("U1", "U2")
_UNKNOWN_REGISTER = QubitRegister(UNKNOWN_LABELS)
MEASURED_LABELS = ("A1", "A2", "U1", "U2")

#: outcome alphabet: (alpha, beta) with 1..4 meaning (identity, x, y, z)
OUTCOMES = tuple((a, b) for a in range(1, 5) for b in range(1, 5))
_OUTCOME_INDEX = {g: i for i, g in enumerate(OUTCOMES)}

#: the two admissible sender/input pairings for separability questions
BASIS_SPLITS = ((("A1", "U1"), ("A2", "U2")), (("A1", "U2"), ("A2", "U1")))

POVM_ATOL = 1e-10
SCHMIDT_TOL = 1e-10


def pauli_pair(alpha: int, beta: int) -> np.ndarray:
    """sigma_alpha (x) sigma_beta with indices 1..4 = (identity, x, y, z)."""
    if alpha not in (1, 2, 3, 4) or beta not in (1, 2, 3, 4):
        raise ContractError(f"outcome indices must lie in 1..4, got {(alpha, beta)}")
    return kron(PAULIS[alpha - 1], PAULIS[beta - 1])


#: the sixteen sigma-pairs stacked in OUTCOMES order, shape (16, 4, 4)
_SIGMA_PAIRS = np.stack([pauli_pair(a, b) for a, b in OUTCOMES])
_SIGMA_PAIRS.setflags(write=False)


@dataclass(frozen=True)
class UnknownState:
    """The two-qubit input to be teleported: amplitudes (c00, c01, c10, c11)."""

    coefficients: np.ndarray

    def __post_init__(self):
        state = StateVector(_UNKNOWN_REGISTER, self.coefficients)
        object.__setattr__(self, "coefficients", state.amplitudes)

    @staticmethod
    def from_reals(reals) -> "UnknownState":
        """Build from 8 reals read as 4 [re, im] pairs."""
        arr = np.asarray(reals, dtype=float).reshape(-1)
        if arr.size != 8:
            raise ContractError("expected 8 reals (4 [re, im] pairs)")
        return UnknownState(arr[0::2] + 1j * arr[1::2])

    @staticmethod
    def random(seed) -> "UnknownState":
        return UnknownState(haar_random_state(2, seed))

    def as_state(self, labels=UNKNOWN_LABELS) -> StateVector:
        return StateVector(QubitRegister(tuple(labels)), self.coefficients)


@dataclass(frozen=True)
class MeasurementBasis:
    """Sixteen joint-measurement kets on (A1,A2,U1,U2), in OUTCOMES order."""

    kets: tuple[StateVector, ...]

    def __post_init__(self):
        kets = tuple(self.kets)
        if len(kets) != 16:
            raise ContractError(f"a measurement basis has 16 kets, got {len(kets)}")
        for ket in kets:
            if ket.register.labels != MEASURED_LABELS:
                raise ContractError(
                    f"basis kets must live on {MEASURED_LABELS}, got "
                    f"{ket.register.labels}"
                )
        stack = np.stack([k.amplitudes for k in kets])
        gram_dev = np.abs(stack @ stack.conj().T - np.eye(16)).max()
        if gram_dev > ATOL:
            raise ContractError(f"basis is not orthonormal: deviation {gram_dev:.3e}")
        complete_dev = np.abs(stack.T @ stack.conj() - np.eye(16)).max()
        if complete_dev > ATOL:
            raise ContractError(
                f"basis projectors do not resolve the identity: {complete_dev:.3e}"
            )
        object.__setattr__(self, "kets", kets)

    def ket(self, outcome) -> StateVector:
        key = tuple(outcome)
        if key not in _OUTCOME_INDEX:
            raise ContractError(f"unknown outcome {key}; both indices run 1..4")
        return self.kets[_OUTCOME_INDEX[key]]

    def items(self):
        return zip(OUTCOMES, self.kets)


@dataclass(frozen=True)
class CorrectionTable:
    """The receiver's per-outcome recovery unitaries, in OUTCOMES order."""

    ops: tuple[np.ndarray, ...]

    def __post_init__(self):
        ops = tuple(self.ops)
        if len(ops) != 16:
            raise ContractError(f"a correction table has 16 entries, got {len(ops)}")
        checked = []
        for op in ops:
            u = require_unitary(op, what="correction")
            if u.shape != (4, 4):
                raise ContractError("corrections act on two qubits (4x4)")
            checked.append(u)
        object.__setattr__(self, "ops", tuple(checked))

    def op(self, outcome) -> np.ndarray:
        key = tuple(outcome)
        if key not in _OUTCOME_INDEX:
            raise ContractError(f"unknown outcome {key}; both indices run 1..4")
        return self.ops[_OUTCOME_INDEX[key]]

    def items(self):
        return zip(OUTCOMES, self.ops)


_STANDARD_CORRECTIONS = CorrectionTable(tuple(_SIGMA_PAIRS))


@dataclass(frozen=True)
class TeleportOutcome:
    """One of the sixteen measurement results and the receiver's states."""

    outcome: tuple[int, int]
    probability: float
    bob_state: StateVector
    corrected_state: StateVector


def _ket_stack(basis: MeasurementBasis) -> np.ndarray:
    """The basis kets as amplitude matrices (16, A1A2, U1U2)."""
    return np.stack([ket.amplitudes for ket in basis.kets]).reshape(16, 4, 4)


def _states(labels, rows) -> tuple[StateVector, ...]:
    register = QubitRegister(tuple(labels))
    return tuple(StateVector(register, row) for row in rows)


def _transfer_blocks(kets: np.ndarray, channel_state: StateVector):
    """Contract kets (n, A1A2, U1U2) against a channel on A1, A2 and `rest`.

    Returns (rest, blocks): each (rest, U1U2) block maps input amplitudes on
    U to receiver amplitudes on the two `rest` qubits, in register order.
    """
    labels = channel_state.register.labels
    rest = tuple(lab for lab in labels if lab not in SENDER_LABELS)
    if len(labels) != 4 or len(rest) != 2 or set(rest) & set(UNKNOWN_LABELS):
        raise ContractError(f"register mismatch: channel on {labels}")
    axes = channel_state.register.axes(SENDER_LABELS + rest)
    channel = channel_state.tensor_view().transpose(axes).reshape(4, 4)
    return rest, channel.T @ kets.conj()


def _epr_basis(ops: np.ndarray) -> MeasurementBasis:
    """Kets (1 (x) M)|EPR pairs> on (A,U): M^T / 2 (see `dressed_channel`)."""
    return MeasurementBasis(_states(MEASURED_LABELS, ops.transpose(0, 2, 1) / 2.0))


def measurement_basis(channel: ChannelSpec) -> MeasurementBasis:
    """The 16 kets (1 (x) sigma-pair . D)|EPR pairs> on (A,U), by the EPR-pair identity."""
    return _epr_basis(_SIGMA_PAIRS @ channel.dressing)


def standard_corrections() -> CorrectionTable:
    """Recovery table for the dressed protocol: plain sigma-pairs."""
    return _STANDARD_CORRECTIONS


def partial_inner_transfer(
    basis_ket: StateVector, channel_state: StateVector
) -> np.ndarray:
    """Contract a basis ket against a channel state over (A1,A2).

    The ket must live on (A1,A2,U1,U2), as every MeasurementBasis ket does;
    the channel on A1, A2 and two receiver qubits. The result is the 4x4
    block mapping input amplitudes on U to receiver amplitudes; for the
    standard protocol it equals 1/4 times the inverse correction.
    """
    if basis_ket.register.labels != MEASURED_LABELS:
        raise ContractError(f"register mismatch: ket on {basis_ket.register.labels}")
    _, blocks = _transfer_blocks(basis_ket.amplitudes.reshape(1, 4, 4), channel_state)
    return blocks[0]


def corrections_from(
    basis: MeasurementBasis, channel_state: StateVector
) -> CorrectionTable:
    """Recovery unitaries implied by a basis/channel pairing: (4 . transfer)†.

    Fails (non-unitary transfer) when the channel is not maximally entangled.
    """
    _, blocks = _transfer_blocks(_ket_stack(basis), channel_state)
    return CorrectionTable(tuple((4.0 * blocks).conj().transpose(0, 2, 1)))


def run_protocol(
    unknown: UnknownState,
    basis: MeasurementBasis,
    channel_state: StateVector,
    corrections: CorrectionTable,
) -> list[TeleportOutcome]:
    """Simulate all sixteen outcomes of one protocol variant end to end."""
    rest, blocks = _transfer_blocks(_ket_stack(basis), channel_state)
    raw = blocks @ unknown.coefficients
    probabilities = np.real(np.einsum("gr,gr->g", raw.conj(), raw))
    if probabilities.min() < 1e-28:  # |raw| < 1e-14, as in StateVector.from_raw
        raise ContractError("cannot normalize a zero amplitude vector")
    bob = raw / np.sqrt(probabilities)[:, None]
    corrected = np.einsum("gij,gj->gi", np.stack(corrections.ops), bob)
    bobs, fixed = _states(rest, bob), _states(rest, corrected)
    return list(map(TeleportOutcome, OUTCOMES, probabilities.tolist(), bobs, fixed))


def teleport_all_outcomes(
    unknown: UnknownState, channel: ChannelSpec
) -> list[TeleportOutcome]:
    """The standard protocol: dressed basis, dressed channel, sigma corrections."""
    return run_protocol(
        unknown,
        measurement_basis(channel),
        dressed_channel(channel),
        standard_corrections(),
    )


def invariance_transform(
    basis: MeasurementBasis,
    corrections: CorrectionTable,
    w_l,
    w_r,
) -> tuple[MeasurementBasis, tuple[StateVector, ...]]:
    """Conjugate every basis/channel pair by (w_r^T on the sender pair, w_l on
    the other pair).

    The sixteen channel states are generated from the corrections table as
    (1 (x) C_g)|channel>, with the bare channel read off the (1,1) basis ket;
    per-pair transfer blocks and protocol statistics are unchanged.
    """
    wl = require_unitary(w_l, what="w_l")
    wr = require_unitary(w_r, what="w_r")
    if wl.shape != (4, 4) or wr.shape != (4, 4):
        raise ContractError("w_l and w_r must be two-qubit (4x4) unitaries")
    # X on the first pair and Y on the second map an amplitude matrix K to
    # X K Y^T; the bare channel is the (1,1) ket, kets[0]
    kets = _ket_stack(basis)
    channels = wr.T @ kets[0] @ np.stack(corrections.ops).transpose(0, 2, 1) @ wl.T
    t_basis = MeasurementBasis(_states(MEASURED_LABELS, wr.T @ kets @ wl.T))
    return t_basis, _states(CHANNEL_LABELS, channels)


def series_form(channel: ChannelSpec) -> tuple[MeasurementBasis, CorrectionTable]:
    """Push the dressing out of the joint measurement into the corrections.

    The returned basis is built on bare EPR pairs (every ket is a product
    across (A1,U1)|(A2,U2)); each correction picks up the inverse dressing and
    is generally nonlocal across (B1,B2). Run against the *unchanged* dressed
    channel, the protocol still achieves unit fidelity. By the EPR-pair
    identity the kets are sigma-pair^T / 2, the corrections sigma-pair . D†.
    """
    table = CorrectionTable(tuple(_SIGMA_PAIRS @ channel.dressing.conj().T))
    return _epr_basis(_SIGMA_PAIRS), table


def is_separable_basis(basis: MeasurementBasis) -> dict:
    """Per-split verdicts: does every ket factor across that pairing?

    Keys are the two admissible splits in BASIS_SPLITS; a ket factors when its
    Schmidt coefficients beyond the first vanish (below 1e-10).
    """
    verdicts = {}
    for split in BASIS_SPLITS:
        part = split[0]
        verdicts[split] = all(
            schmidt_rank(ket, part, tol=SCHMIDT_TOL) == 1 for ket in basis.kets
        )
    return verdicts


def povm_check(unitary_set, channel_state: StateVector) -> tuple[bool, float]:
    """Does averaging (1 (x) U)|phi><phi|(1 (x) U)† over the set give 1/16?

    `channel_state` must be maximally entangled across its first-two/last-two
    split; the unitaries act on the last two qubits. Returns (ok, deviation).
    For the state's amplitude matrix K the first-two marginal is K K† and, by
    the EPR-pair identity, the twirled kets are K U^T.
    """
    if channel_state.register.size != 4:
        raise ContractError("povm_check expects a four-qubit state")
    k = channel_state.amplitudes.reshape(4, 4)
    if np.abs(k @ k.conj().T - np.eye(4) / 4.0).max() > EIG_ATOL:
        raise ContractError(
            "povm_check expects a maximally entangled state across its "
            "first-two/last-two split"
        )
    ops = [require_unitary(u, what="set member") for u in unitary_set]
    if not ops:
        raise ContractError("the unitary set must be non-empty")
    if any(u.shape != (4, 4) for u in ops):
        raise ContractError("set members must be two-qubit (4x4) unitaries")
    twirled = (k @ np.stack(ops).transpose(0, 2, 1)).reshape(len(ops), 16)
    acc = twirled.T @ twirled.conj() / len(ops)
    deviation = float(np.abs(acc - np.eye(16) / 16.0).max())
    return deviation <= POVM_ATOL, deviation
