"""The general protocol objects, any basis (`MeasurementBasis`) with any
corrections (`CorrectionTable`) run by `run_protocol`, and the paper's relations
on them, which `entqc repro` re-checks: the protocol is unchanged when a unitary
pair (w_l, w_r) transforms basis and channel together, the dressing moves from the
measurement into the corrections (`series_form`), and the basis separability and
twirl tests. `entqc teleport` never imports this module."""
from __future__ import annotations

import numpy as np

from .channel import CHANNEL_LABELS, SENDER_LABELS, ChannelSpec, epr_amplitudes
from .teleport import (
    _SERIES_KETS, _SIGMA_PAIRS, MEASURED_LABELS, OUTCOMES, UNKNOWN_LABELS, TeleportOutcome, UnknownState, _outcomes,
    _states, run_protocol_batch)
from .tensor import (
    ATOL, EIG_ATOL, ContractError, QubitRegister, StateVector, _Frozen, _as_complex, _integer, _require, _require_kinds,
    _split_matrix, _trusted, _unitary_stack, require_unitary)


def _outcome_index(outcome) -> int:
    """The position in OUTCOMES of an outcome (alpha, beta), each an integer in 1..4."""
    try:
        alpha, beta = outcome
    except (TypeError, ValueError):  # not iterable, or not a pair
        raise ContractError(f"unknown outcome {outcome!r}; both indices run 1..4") from None
    return 4 * _integer(alpha, "outcome index alpha", 1, 4) + _integer(beta, "outcome index beta", 1, 4) - 5


def pauli_pair(alpha: int, beta: int) -> np.ndarray:
    """sigma_alpha (x) sigma_beta with indices 1..4 = (identity, x, y, z)."""
    return _SIGMA_PAIRS[_outcome_index((alpha, beta))].copy()


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


#: the kernel's constants in `teleport` as checked objects: sigma-pair corrections, series-form basis
_STANDARD_CORRECTIONS = CorrectionTable(_SIGMA_PAIRS)
_SERIES_BASIS = MeasurementBasis(_SERIES_KETS.reshape(16, 16))


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


def measurement_basis(channel: ChannelSpec) -> MeasurementBasis:
    """The 16 kets (1 (x) sigma-pair . D)|EPR pairs> on (A,U): a basis as D is unitary."""
    _require_kinds("measurement_basis", ("channel", channel, ChannelSpec))
    return _trusted(MeasurementBasis, amplitudes=measurement_kets(channel.dressing).reshape(16, 16))


def standard_corrections() -> CorrectionTable:
    """Recovery table for the dressed protocol: plain sigma-pairs."""
    return _STANDARD_CORRECTIONS


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


#: the two admissible sender/input pairings for separability questions
BASIS_SPLITS = ((("A1", "U1"), ("A2", "U2")), (("A1", "U2"), ("A2", "U1")))


def _stack_last(a, ndim: int) -> np.ndarray:
    """A (..., 4, 4) stack padded to ndim axes, viewed as (4, 4, ...)."""
    a = np.asarray(a)
    return a.reshape((1,) * (ndim - a.ndim) + a.shape).transpose(ndim - 2, ndim - 1, *range(ndim - 2))


def transfer_blocks(kets, channels) -> np.ndarray:
    """Contract kets and channels over (A1,A2): blocks mapping U to the receiver,
    out[..., r, u] = sum_a channels[..., a, r] conj(kets[..., a, u]). Both are
    (..., 4, 4) stacks that broadcast against each other; the sum runs on
    C-contiguous stack-last (4, 4, N) copies, four products over rows of length N."""
    ndim = max(np.ndim(kets), np.ndim(channels))
    k_view, c_view = _stack_last(kets, ndim), _stack_last(channels, ndim)
    shape = np.broadcast(k_view, c_view).shape
    k, c = np.empty((2, *shape), dtype=complex)
    np.conjugate(k_view, out=k)
    np.copyto(c, c_view)
    out, term = c[0, :, None] * k[0, None], np.empty(shape, dtype=complex)
    for a in (1, 2, 3):
        out += np.multiply(c[a, :, None], k[a, None], out=term)
    return out.transpose(*range(2, ndim), 0, 1)


def recovery_ops(kets, channels) -> np.ndarray:
    """Recovery unitaries (4 . transfer)† of kets against channels: the transfer
    blocks with kets and channels in swapped roles."""
    return 4.0 * transfer_blocks(channels, kets)


def invariance_pairs(kets, corrections, w_l, w_r):
    """Conjugate every basis/channel pair by (w_r^T on the sender pair, w_l on
    the other pair), for kets and corrections (16, 4, 4), (w_l, w_r) (..., 4, 4).

    Channel g is (1 (x) C_g) on the bare channel, the (1,1) ket; X on the first
    pair and Y on the second map an amplitude matrix K to X K Y^T, that is
    vec K to (X (x) Y) vec K: one (32, 16) . (16, 16) product per transform.
    Each stays below OpenBLAS's threading threshold, so the time does not depend
    on the BLAS thread count; one (32, 16) . (16, 16 T) product would cross it.
    """
    stacked = np.concatenate([kets, kets[0] @ np.swapaxes(corrections, -1, -2)]).reshape(32, 16)
    w_l, w_r = np.broadcast_arrays(w_l, w_r)
    lead = w_r.shape[:-2]
    # (X (x) Y)^T [ab, ij] = X[i, a] Y[j, b] = w_r[a, i] w_l^T[b, j], one broadcast product
    kron_t = w_r[..., :, None, :, None] * np.swapaxes(w_l, -1, -2)[..., None, :, None, :]
    out = (stacked @ kron_t.reshape(*lead, 16, 16)).reshape(*lead, 2, 16, 4, 4)
    return out[..., 0, :, :, :], out[..., 1, :, :, :]


def partial_inner_transfer(basis_ket: StateVector, channel_state: StateVector) -> np.ndarray:
    """Contract a basis ket against a channel state over (A1,A2).

    The ket must live on (A1,A2,U1,U2), as every MeasurementBasis ket does;
    the channel on A1, A2 and two receiver qubits. The result is the 4x4
    block mapping input amplitudes on U to receiver amplitudes; for the
    standard protocol it equals 1/4 times the inverse correction.
    """
    _require_kinds("partial_inner_transfer", ("basis_ket", basis_ket, StateVector),
                   ("channel_state", channel_state, StateVector))
    if basis_ket.register.labels != MEASURED_LABELS:
        raise ContractError(f"register mismatch: ket on {basis_ket.register.labels}")
    _, channel = _channel_matrix(channel_state)
    return transfer_blocks(basis_ket.amplitudes.reshape(4, 4), channel)


def corrections_from(basis: MeasurementBasis, channel_state: StateVector) -> CorrectionTable:
    """Recovery unitaries implied by a basis/channel pairing: (4 . transfer)†.

    Computed from checked values, they are judged within EIG_ATOL: fails
    (non-unitary transfer) when the channel is not maximally entangled.
    """
    _require_kinds("corrections_from", ("basis", basis, MeasurementBasis), ("channel_state", channel_state, StateVector))
    _, channel = _channel_matrix(channel_state)
    ops = recovery_ops(basis.amplitudes.reshape(16, 4, 4), channel)
    return _trusted(CorrectionTable, ops=require_unitary(ops, tol=EIG_ATOL, what="correction"))


def invariance_transform(basis: MeasurementBasis, corrections: CorrectionTable,
                         w_l, w_r) -> tuple[MeasurementBasis, tuple[StateVector, ...]]:
    """`invariance_pairs` for one (w_l, w_r): the transformed basis and its
    sixteen channel states; per-pair transfer blocks and protocol statistics
    are unchanged.
    """
    _require_kinds("invariance_transform", ("basis", basis, MeasurementBasis),
                   ("corrections", corrections, CorrectionTable))
    wl, wr = _unitary_stack((w_l, w_r), (4, 4), "w_l or w_r",
                            "w_l and w_r must be two-qubit (4x4) unitaries")
    kets, channels = invariance_pairs(basis.amplitudes.reshape(16, 4, 4), corrections.ops, wl, wr)
    basis = _trusted(MeasurementBasis, amplitudes=kets.reshape(16, 16))
    return basis, _states(CHANNEL_LABELS, channels.reshape(16, 16))


def series_form(channel: ChannelSpec) -> tuple[MeasurementBasis, CorrectionTable]:
    """Push the dressing out of the joint measurement into the corrections.

    The returned basis is built on bare EPR pairs (every ket is a product
    across (A1,U1)|(A2,U2)); each correction picks up the inverse dressing and
    is generally nonlocal across (B1,B2). Run against the *unchanged* dressed
    channel, the protocol still achieves unit fidelity. By the EPR-pair
    identity the kets are sigma-pair^T / 2, the corrections sigma-pair . D†.
    """
    _require_kinds("series_form", ("channel", channel, ChannelSpec))
    return _SERIES_BASIS, _trusted(CorrectionTable, ops=_SIGMA_PAIRS @ channel.dressing.conj().T)


def split_schmidt_coefficients(basis: MeasurementBasis) -> dict:
    """Per split in BASIS_SPLITS, the (16, 4) Schmidt coefficients (descending)
    of every basis ket across that pairing, from one stacked SVD."""
    tensors = basis.amplitudes.reshape(16, 2, 2, 2, 2)
    matrices = np.stack([
        tensors.transpose(0, *(1 + MEASURED_LABELS.index(label) for label in part + rest))
        for part, rest in BASIS_SPLITS
    ]).reshape(len(BASIS_SPLITS), 16, 4, 4)
    return dict(zip(BASIS_SPLITS, np.linalg.svd(matrices, compute_uv=False)))


def is_separable_basis(basis: MeasurementBasis) -> dict:
    """Per-split verdicts: does every ket factor across that pairing?

    Keys are the two admissible splits in BASIS_SPLITS; a ket factors when its
    Schmidt coefficients beyond the first vanish (at most EIG_ATOL).
    """
    _require_kinds("is_separable_basis", ("basis", basis, MeasurementBasis))
    return {
        split: bool((coefficients[:, 1:] <= EIG_ATOL).all())
        for split, coefficients in split_schmidt_coefficients(basis).items()
    }


def povm_check(unitary_set, channel_state: StateVector) -> tuple[bool, float]:
    """Does averaging (1 (x) U)|phi><phi|(1 (x) U)† over the set give 1/16?

    `channel_state` must be maximally entangled across its first-two/last-two
    split; the unitaries act on the last two qubits. Returns (ok, deviation).
    For the state's amplitude matrix K the first-two marginal is K K† and, by
    the EPR-pair identity, the twirled kets are K U^T.
    """
    _require_kinds("povm_check", ("channel_state", channel_state, StateVector))
    if channel_state.register.size != 4:
        raise ContractError("povm_check expects a four-qubit state")
    k = channel_state.amplitudes.reshape(4, 4)
    # K K† = 1/4 exactly when 2 K^T is unitary, at 4 times the deviation
    _require(2.0 * k.T, "unitary", 4 * EIG_ATOL, "povm_check expects a maximally entangled "
             "state across its first-two/last-two split")
    try:
        members = tuple(unitary_set)
    except TypeError:
        kind = type(unitary_set).__name__
        raise ContractError(f"povm_check() argument 'unitary_set' must be iterable, got {kind}") from None
    if not members:
        raise ContractError("the unitary set must be non-empty")
    ops = _unitary_stack(members, (4, 4), "set member", "set members must be two-qubit (4x4) unitaries")
    twirled = (k @ ops.transpose(0, 2, 1)).reshape(len(ops), 16)
    acc = twirled.T @ twirled.conj() / len(ops)
    deviation = float(np.abs(acc - np.eye(16) / 16.0).max())
    return deviation <= EIG_ATOL, deviation
