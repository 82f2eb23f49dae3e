"""The analysis-only operations on `tensor`'s states: applying a unitary, partial
inner products, traces and transposes, pure-state fidelity, the Haar samplers of
unitaries, and Schmidt and operator-Schmidt decompositions. `entqc teleport` never
imports this module."""
from __future__ import annotations

import numpy as np

from .tensor import (
    EIG_ATOL, MAX_QUBITS, ContractError, DensityMatrix, LabelError, QubitRegister, StateVector, _as_complex,
    _integer, _labels, _require_kinds, _resolve_rng, _split_matrix, _trusted, require_unitary)


def apply_unitary(state: StateVector, matrix, targets) -> StateVector:
    """Apply a unitary to the named qubits, returning a new state."""
    _require_kinds("apply_unitary", ("state", state, StateVector))
    axes = state.register.axes(targets)
    k = len(axes)
    u = require_unitary(matrix, what="operator")
    if u.shape != (2**k, 2**k):
        raise ContractError(f"operator shape {u.shape} does not fit {k} qubit(s)")
    t = np.tensordot(
        u.reshape((2,) * (2 * k)), state.tensor_view(),
        axes=(tuple(range(k, 2 * k)), axes),
    )
    t = np.moveaxis(t, tuple(range(k)), axes)
    return _trusted(StateVector, register=state.register, amplitudes=t.reshape(-1))


def partial_inner(bra: StateVector, ket: StateVector):
    """Contract <bra| against |ket> over their shared labels.

    Returns (ket_only_labels, bra_only_labels, block) where block has shape
    (2**len(ket_only), 2**len(bra_only)); a 1x1 block is an ordinary inner
    product.  Ket-only rows map the bra-only columns, each in register order.
    """
    _require_kinds("partial_inner", ("bra", bra, StateVector), ("ket", ket, StateVector))
    ket_set = set(ket.register.labels)
    shared = [lab for lab in bra.register.labels if lab in ket_set]
    if not shared:
        raise LabelError("no shared labels to contract")
    bra_only = tuple(lab for lab in bra.register.labels if lab not in ket_set)
    ket_only = tuple(lab for lab in ket.register.labels if lab not in set(shared))
    letter = {}
    for lab in ket.register.labels + bra_only:
        letter[lab] = chr(ord("a") + len(letter))
    ket_sub = "".join(letter[lab] for lab in ket.register.labels)
    bra_sub = "".join(letter[lab] for lab in bra.register.labels)
    out_sub = "".join(letter[lab] for lab in ket_only + bra_only)
    block = np.einsum(
        f"{ket_sub},{bra_sub}->{out_sub}",
        ket.tensor_view(), bra.tensor_view().conj(),
    )
    return ket_only, bra_only, block.reshape(2 ** len(ket_only), 2 ** len(bra_only))


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every qubit not named in `keep`; output follows `keep` order."""
    _require_kinds("partial_trace", ("rho", rho, DensityMatrix))
    keep = _labels(keep)
    kaxes = rho.register.axes(keep)
    n = rho.register.size
    taxes = [i for i in range(n) if i not in kaxes]
    t = rho.matrix.reshape((2,) * (2 * n))
    perm = [*kaxes, *taxes, *(n + i for i in kaxes), *(n + i for i in taxes)]
    dk, dt = 2 ** len(kaxes), 2 ** len(taxes)
    t = np.transpose(t, perm).reshape(dk, dt, dk, dt)
    return _trusted(DensityMatrix, register=QubitRegister(keep), matrix=np.einsum("abcb->ac", t))


def partial_transpose(rho: DensityMatrix, part) -> np.ndarray:
    """Transpose row/column indices of the named qubits; may be non-PSD."""
    _require_kinds("partial_transpose", ("rho", rho, DensityMatrix))
    paxes = rho.register.axes(part)
    n = rho.register.size
    t = rho.matrix.reshape((2,) * (2 * n))
    perm = list(range(2 * n))
    for a in paxes:
        perm[a], perm[n + a] = perm[n + a], perm[a]
    return np.transpose(t, perm).reshape(rho.register.dim, rho.register.dim)


def fidelity_pure(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2 for equal-dimension pure states (labels may differ)."""
    if not (isinstance(a, StateVector) and isinstance(b, StateVector)):
        raise ContractError(f"fidelity_pure takes two StateVectors, got {type(a).__name__} and {type(b).__name__}")
    if a.register.dim != b.register.dim:
        raise ContractError(
            f"dimension mismatch: {a.register.labels} vs {b.register.labels}"
        )
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def haar_unitaries(normals) -> np.ndarray:
    """Haar-distributed unitaries (Ginibre QR with phase fix), one per
    standard-normal block of shape (2, dim, dim): real parts, then imaginary.

    `normals` has shape (..., 2, dim, dim); the result is (..., dim, dim).
    """
    normals = np.asarray(normals)
    z = normals[..., 0, :, :] + 1j * normals[..., 1, :, :]
    z /= np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def haar_random_unitary(n_qubits: int, seed) -> np.ndarray:
    """Haar-distributed unitary on `n_qubits`: one `haar_unitaries` draw.

    `seed` is an integer (PCG64 stream) or an existing Generator.
    """
    dim = 2 ** _integer(n_qubits, "n_qubits", 1, MAX_QUBITS)
    u = haar_unitaries(_resolve_rng(seed).standard_normal((2, dim, dim)))
    u.setflags(write=False)
    return u


def haar_draws(n_qubits: int, seed, trials: int, n_unitaries: int):
    """Per trial, `n_unitaries` Haar unitaries and a random input state on
    `n_qubits`, from one normal block drawn in the order of per-trial
    `haar_random_unitary` calls followed by a `haar_random_state` call.

    Returns unitaries (trials, n_unitaries, dim, dim) and states (trials, dim).
    The unitaries equal the per-call ones bit for bit; a state may differ
    from `haar_random_state`'s by 1 ulp, since its norm is summed over the
    stack in another order than `np.linalg.norm` sums one vector.
    """
    dim = 2**n_qubits
    normals = _resolve_rng(seed).standard_normal((trials, 2 * dim * (n_unitaries * dim + 1)))
    split = 2 * dim * dim * n_unitaries
    unitaries = haar_unitaries(normals[:, :split].reshape(trials, n_unitaries, 2, dim, dim))
    re, im = normals[:, split:].reshape(trials, 2, dim).transpose(1, 0, 2)
    states = re + 1j * im
    return unitaries, states / np.linalg.norm(states, axis=-1, keepdims=True)


def schmidt_coefficients(state: StateVector, part) -> np.ndarray:
    """Singular values (descending) across the (part | rest) bipartition."""
    _require_kinds("schmidt_coefficients", ("state", state, StateVector))
    m = _split_matrix(state, part)
    if 1 in m.shape:
        raise LabelError("a bipartition needs qubits on both sides")
    return np.linalg.svd(m, compute_uv=False)


def schmidt_rank(state: StateVector, part) -> int:
    """Schmidt coefficients above EIG_ATOL across (part | rest)."""
    _require_kinds("schmidt_rank", ("state", state, StateVector))
    return int(np.count_nonzero(schmidt_coefficients(state, part) > EIG_ATOL))


def operator_schmidt_coefficients(m) -> np.ndarray:
    """Singular values of a two-qubit operator reshuffled across its factors:
    (4) for a (4, 4) operator, (n, 4) for an (n, 4, 4) stack in one SVD.

    A product operator X (x) Y has exactly one nonzero coefficient.
    """
    m = _as_complex(m, "operator")
    if m.shape[-2:] != (4, 4) or m.ndim not in (2, 3):
        raise ContractError(f"expected a two-qubit (4x4) operator or an (n, 4, 4) stack, got {m.shape}")
    r = m.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 3, 2, 4).reshape(m.shape)
    return np.linalg.svd(r, compute_uv=False)


def operator_schmidt_rank(m):
    """Operator-Schmidt rank (coefficients above EIG_ATOL): an int for a (4, 4) operator, (n,) ints for a stack."""
    ranks = (operator_schmidt_coefficients(m) > EIG_ATOL).sum(axis=-1)
    return int(ranks) if ranks.ndim == 0 else ranks
