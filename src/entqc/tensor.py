"""Dense linear algebra over small labeled qubit registers.

Every other module leans on the conventions fixed here: slot 0 of a register
is the most significant bit of the basis-state index (so a two-qubit ket
|i,j> sits at index 2*i + j), amplitudes are dense complex128 vectors, and
the two global tolerances below are used for all algebraic checks.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

ATOL = 1e-12  # algebraic identities: norms, unitarity, hermiticity, traces
EIG_ATOL = 1e-10  # anything that passed through an eigensolver or SVD

I2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
# Single-qubit operator basis in the fixed order (identity, x, y, z); code
# elsewhere indexes outcomes 1..4 into this tuple.
PAULIS = (I2, SIGMA_X, SIGMA_Y, SIGMA_Z)


class LabelError(ValueError):
    """A qubit label is unknown, duplicated, or inconsistent between registers."""


class ContractError(ValueError):
    """An input violates a documented precondition (norm, unitarity, shape...)."""


def _as_complex(a, what: str = "array") -> np.ndarray:
    try:
        arr = np.asarray(a, dtype=complex)
    except OverflowError:  # a Python int beyond float range
        raise ContractError(f"{what}: an entry is out of float range") from None
    except (TypeError, ValueError) as exc:  # ragged nesting, non-numeric entries
        raise ContractError(f"{what} is not a numeric array: {exc}") from None
    if not np.isfinite(arr).all():
        raise ContractError(f"{what} contains non-finite entries")
    return arr


def _require(m: np.ndarray, of: str, tol: float, fault: str) -> None:
    """Raise ContractError(fault) unless max |m† m - 1| (of="unitary"), |m - m†| ("hermitian")
    or |tr m - 1| ("trace") over a matrix or a stack (..., n, n) is within `tol`. Overflow
    gives inf or NaN without a numpy warning, and `not dev <= tol` rejects both."""
    with np.errstate(over="ignore", invalid="ignore"):
        if of == "trace":
            diff = np.trace(m, axis1=-2, axis2=-1) - 1.0
        else:
            adjoint = np.swapaxes(m, -1, -2).conj()
            diff = adjoint @ m - np.eye(m.shape[-1]) if of == "unitary" else m - adjoint
        dev = np.abs(diff).max(initial=0.0)
    if not dev <= tol:
        raise ContractError(f"{fault}: deviation {dev:.3e} > {tol:g}")


def _trusted(cls, **fields):
    """A `cls` instance holding values derived from checked inputs, built without
    its constructor's checks; every array field is made read-only."""
    obj = object.__new__(cls)
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(obj, name, value)
    return obj


def kron(*factors) -> np.ndarray:
    """Kronecker product of one or more vectors/matrices, left to right."""
    if not factors:
        raise ValueError("kron needs at least one factor")
    return reduce(np.kron, (_as_complex(f) for f in factors))


def require_unitary(m, *, tol: float = ATOL, what: str = "matrix") -> np.ndarray:
    """Validate U†U = 1 within `tol`, for a matrix or a stack (..., n, n); return a read-only copy.
    No entry of a unitary within `tol` exceeds sqrt(1 + tol) in modulus, so an input with none above
    min(1 + tol, 2), where U†U cannot overflow, is accepted on its deviation alone (the full check's,
    bit for bit); any other input, and any it does not accept, gets the full check and its message."""
    try:
        u = np.array(m, dtype=complex)
        lean = (u.ndim >= 2 and u.shape[-1] == u.shape[-2]
                and np.abs(u).max(initial=0.0) <= min(1.0 + tol, 2.0))
    except (TypeError, ValueError, OverflowError):
        lean = False
    if lean:
        n = u.shape[-1]
        gram = np.swapaxes(u, -1, -2).conj() @ u
        gram.reshape(*gram.shape[:-2], n * n)[..., :: n + 1] -= 1.0  # U†U - 1, on a diagonal view
        if np.abs(gram).max(initial=0.0) <= tol:
            u.setflags(write=False)
            return u
    u = _as_complex(m, what).copy()
    if u.ndim < 2 or u.shape[-1] != u.shape[-2]:
        raise ContractError(f"{what} is not square: shape {u.shape}")
    _require(u, "unitary", tol, f"{what} is not unitary")
    u.setflags(write=False)
    return u


def _unitary_stack(ops, shape, what: str, wrong_shape: str) -> np.ndarray:
    """A checked read-only stack of unitaries, each of `shape`; shapes are read
    first, so a ragged set fails as `wrong_shape`."""
    shapes = (ops.shape[1:],) if isinstance(ops, np.ndarray) else map(np.shape, ops)
    if any(member != shape for member in shapes):
        raise ContractError(wrong_shape)
    return require_unitary(ops, what=what)


def require_hermitian(m, *, tol: float = ATOL, what: str = "matrix") -> np.ndarray:
    """Validate M = M† within `tol` and return a read-only complex copy."""
    h = _as_complex(m, what).copy()
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ContractError(f"{what} is not square: shape {h.shape}")
    _require(h, "hermitian", tol, f"{what} is not Hermitian")
    h.setflags(write=False)
    return h


@dataclass(frozen=True)
class QubitRegister:
    """An ordered collection of named qubits; order fixes bit significance."""

    labels: tuple[str, ...]

    def __post_init__(self):
        labels = tuple(str(lab) for lab in self.labels)
        object.__setattr__(self, "labels", labels)
        if not labels:
            raise LabelError("a register needs at least one qubit")
        if len(set(labels)) != len(labels):
            raise LabelError(f"duplicate qubit labels in {labels}")

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return 2 ** len(self.labels)

    def axes(self, labels) -> tuple[int, ...]:
        """Tensor-axis positions of the given labels, in the order given."""
        out = []
        for lab in labels:
            if lab not in self.labels:
                raise LabelError(
                    f"unknown qubit label {lab!r}; register has {self.labels}"
                )
            out.append(self.labels.index(lab))
        if len(set(out)) != len(out):
            raise LabelError(f"repeated qubit label in {tuple(labels)}")
        return tuple(out)


@dataclass(frozen=True, eq=False)
class StateVector:
    """A normalized pure state over a labeled register."""

    register: QubitRegister
    amplitudes: np.ndarray

    def __post_init__(self):
        # lean path: |psi|^2 within ATOL of 1 puts |psi| within ATOL / 2 of 1; NaN or inf fails it
        try:
            amps = np.array(self.amplitudes, dtype=complex).ravel()
            lean = amps.size == self.register.dim and abs(np.vdot(amps, amps).real - 1.0) <= ATOL
        except (TypeError, ValueError, OverflowError):
            lean = False
        if lean:
            amps.setflags(write=False)
            object.__setattr__(self, "amplitudes", amps)
            return
        amps = _as_complex(self.amplitudes, "amplitudes").reshape(-1).copy()
        if amps.size != self.register.dim:
            raise ContractError(
                f"register {self.register.labels} needs {self.register.dim} "
                f"amplitudes, got {amps.size}"
            )
        norm = np.sqrt(np.vdot(amps, amps).real)  # an overflowing norm is inf, without a warning
        if not abs(norm - 1.0) <= ATOL:
            raise ContractError(f"state is not normalized: |psi| = {norm!r}")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @staticmethod
    def from_raw(labels, raw) -> "StateVector":
        """Normalize a raw amplitude vector; error on a (near-)zero vector, |raw| < 1e-14."""
        parts = _as_complex(raw, "amplitudes").ravel().view(float)  # (re, im) pairs
        scale = float(np.abs(parts).max(initial=0.0))
        unit = (parts / scale if scale else parts).view(complex)  # its norm cannot overflow
        norm = float(np.linalg.norm(unit))
        if scale * norm < 1e-14:
            raise ContractError("cannot normalize a zero amplitude vector")
        return StateVector(QubitRegister(tuple(labels)), unit / norm)

    def tensor_view(self) -> np.ndarray:
        return self.amplitudes.reshape((2,) * self.register.size)

    def permuted(self, new_order) -> "StateVector":
        """Same state with register slots reordered to `new_order`."""
        axes = self.register.axes(new_order)
        if len(axes) != self.register.size:
            raise LabelError("permutation must mention every label exactly once")
        t = np.transpose(self.tensor_view(), axes)
        return StateVector(QubitRegister(tuple(new_order)), t.reshape(-1))

    def relabeled(self, mapping) -> "StateVector":
        """Rename labels without touching amplitudes."""
        labels = tuple(mapping.get(lab, lab) for lab in self.register.labels)
        return _trusted(StateVector, register=QubitRegister(labels), amplitudes=self.amplitudes)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product of two states on disjoint registers."""
    shared = set(a.register.labels) & set(b.register.labels)
    if shared:
        raise LabelError(f"registers overlap on {sorted(shared)}")
    return StateVector(
        QubitRegister(a.register.labels + b.register.labels),
        np.kron(a.amplitudes, b.amplitudes),
    )


def apply_unitary(state: StateVector, matrix, targets) -> StateVector:
    """Apply a unitary to the named qubits, returning a new state."""
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
    return StateVector(state.register, t.reshape(-1))


def partial_inner(bra: StateVector, ket: StateVector):
    """Contract <bra| against |ket> over their shared labels.

    Returns (ket_only_labels, bra_only_labels, block) where block has shape
    (2**len(ket_only), 2**len(bra_only)); a 1x1 block is an ordinary inner
    product.  Ket-only rows map the bra-only columns, each in register order.
    """
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


def _require_densities(m: np.ndarray) -> None:
    """Hermitian, unit-trace and positive-semidefinite checks of a matrix or a
    stack (..., d, d), each over the whole stack (one stacked `eigvalsh`)."""
    _require(m, "hermitian", ATOL, "density matrix is not Hermitian")
    _require(m, "trace", ATOL, "density matrix trace is not 1")
    if not np.linalg.eigvalsh(m).min() >= -EIG_ATOL:
        raise ContractError("density matrix has a negative eigenvalue")


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A unit-trace positive-semidefinite operator over a labeled register."""

    register: QubitRegister
    matrix: np.ndarray

    def __post_init__(self):
        m = _as_complex(self.matrix, "density matrix").copy()
        if m.shape != (self.register.dim, self.register.dim):
            raise ContractError(
                f"density matrix shape {m.shape} does not match register "
                f"{self.register.labels}"
            )
        _require_densities(m)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @staticmethod
    def from_state(state: StateVector) -> "DensityMatrix":
        return DensityMatrix(
            state.register, np.outer(state.amplitudes, state.amplitudes.conj())
        )


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Trace out every qubit not named in `keep`; output follows `keep` order."""
    keep = tuple(keep)
    kaxes = rho.register.axes(keep)
    n = rho.register.size
    taxes = [i for i in range(n) if i not in kaxes]
    t = rho.matrix.reshape((2,) * (2 * n))
    perm = [*kaxes, *taxes, *(n + i for i in kaxes), *(n + i for i in taxes)]
    dk, dt = 2 ** len(kaxes), 2 ** len(taxes)
    t = np.transpose(t, perm).reshape(dk, dt, dk, dt)
    return DensityMatrix(QubitRegister(keep), np.einsum("abcb->ac", t))


def reduced_densities(state: StateVector, keeps) -> np.ndarray:
    """Reduced density matrices of a pure state, one per keep (all of one size),
    as a read-only (m, d, d) stack, not checked again (the state was checked when
    built): M M† for M the state reshaped to (keep | rest), keep in the order given."""
    psi = state.tensor_view()
    blocks = []
    for keep in keeps:
        kaxes = state.register.axes(keep)
        rest = [i for i in range(state.register.size) if i not in kaxes]
        blocks.append(psi.transpose(*kaxes, *rest).reshape(2 ** len(kaxes), -1))
    if not blocks or any(b.shape != blocks[0].shape for b in blocks):
        raise ContractError("reduced_densities needs one or more keeps of one size")
    m = np.stack(blocks)
    rho = m @ np.swapaxes(m, -1, -2).conj()
    rho.setflags(write=False)
    return rho


def reduced_density(state: StateVector, keep) -> DensityMatrix:
    """Reduced density matrix of a pure state: `reduced_densities` of one keep."""
    register = QubitRegister(tuple(keep))
    return _trusted(DensityMatrix, register=register, matrix=reduced_densities(state, [register.labels])[0])


def partial_transpose(rho: DensityMatrix, part) -> np.ndarray:
    """Transpose row/column indices of the named qubits; may be non-PSD."""
    paxes = rho.register.axes(part)
    n = rho.register.size
    t = rho.matrix.reshape((2,) * (2 * n))
    perm = list(range(2 * n))
    for a in paxes:
        perm[a], perm[n + a] = perm[n + a], perm[a]
    return np.transpose(t, perm).reshape(rho.register.dim, rho.register.dim)


def hermitian_eigenvalues(m) -> np.ndarray:
    """Real eigenvalues in ascending order; input must be Hermitian."""
    return np.linalg.eigvalsh(require_hermitian(m, tol=EIG_ATOL))


def fidelity_pure(a: StateVector, b: StateVector) -> float:
    """|<a|b>|^2 for equal-dimension pure states (labels may differ)."""
    if a.register.dim != b.register.dim:
        raise ContractError(
            f"dimension mismatch: {a.register.labels} vs {b.register.labels}"
        )
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def _resolve_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


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
    dim = 2**n_qubits
    u = haar_unitaries(_resolve_rng(seed).standard_normal((2, dim, dim)))
    u.setflags(write=False)
    return u


def haar_random_state(n_qubits: int, seed) -> np.ndarray:
    """Uniformly random pure-state amplitudes on `n_qubits`."""
    rng = _resolve_rng(seed)
    dim = 2**n_qubits
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


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
    paxes = state.register.axes(part)
    rest = [i for i in range(state.register.size) if i not in paxes]
    if not paxes or not rest:
        raise LabelError("a bipartition needs qubits on both sides")
    t = np.transpose(state.tensor_view(), [*paxes, *rest])
    return np.linalg.svd(t.reshape(2 ** len(paxes), -1), compute_uv=False)


def schmidt_rank(state: StateVector, part, tol: float = EIG_ATOL) -> int:
    return int(np.count_nonzero(schmidt_coefficients(state, part) > tol))


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


def operator_schmidt_rank(m, tol: float = EIG_ATOL):
    """Operator-Schmidt rank: an int for a (4, 4) operator, (n,) ints for a stack."""
    ranks = (operator_schmidt_coefficients(m) > tol).sum(axis=-1)
    return int(ranks) if ranks.ndim == 0 else ranks
