"""Dense linear algebra over small labeled qubit registers.

Every other module leans on the conventions fixed here: slot 0 of a register
is the most significant bit of the basis-state index (so a two-qubit ket
|i,j> sits at index 2*i + j), amplitudes are dense complex128 vectors, and
the two global tolerances below are used for all algebraic checks.
"""
from __future__ import annotations

import math
from functools import reduce
from importlib import import_module

import numpy as np

ATOL = 1e-12  # a value a caller gives: its norm, unitarity, hermiticity, trace
EIG_ATOL = 1e-10  # a value computed from checked ones: eigenvalues, singular values, marginals, twirls, corrections
MAX_QUBITS = 6  # most qubits of a Haar draw: 64 dimensions, the largest object entqc handles
ZERO_NORM = 1e-14  # a vector with a smaller norm is zero: it cannot be normalized

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


def _integer(value, name: str, low: int, high: int | None = None) -> int:
    """A Python or numpy integer (not a bool) in low..high, as an int."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ContractError(f"{name} must be an integer, got {value!r}")
    if value < low or (high is not None and value > high):
        bounds = f"{low}..{high}" if high is not None else f">= {low}"
        raise ContractError(f"{name} must lie in {bounds}, got {value}")
    return int(value)


def _require_kinds(function: str, *arguments) -> None:
    """Raise ContractError, naming `function` and the class it takes, for the first
    (name, value, cls) of `arguments` whose value is not a `cls`."""
    for name, value, cls in arguments:
        if not isinstance(value, cls):
            raise ContractError(f"{function}() argument {name!r} must be {cls.__name__}, got {type(value).__name__}")


def _moved(module: str, home: str):
    """A module `__getattr__` (PEP 562) for `module`: the public names that the
    package's `_HOMES` places in `entqc.<home>` are read from there, which is
    imported on the first such read."""
    def __getattr__(name):
        if import_module("entqc")._HOMES.get(name) != home:
            raise AttributeError(f"module {module!r} has no attribute {name!r}")
        return getattr(import_module(f"entqc.{home}"), name)
    return __getattr__


__getattr__ = _moved(__name__, "primitives")  # `from entqc.tensor import apply_unitary` still works


def _labels(labels) -> tuple:
    """`labels` as a tuple, or a LabelError if it is not an iterable."""
    try:
        return tuple(labels)
    except TypeError:
        raise LabelError(f"qubit labels must be an iterable of labels, got {labels!r}") from None


def _as_complex(a, what: str = "array", dtype=complex) -> np.ndarray:
    try:
        arr = np.asarray(a, dtype=dtype)
    except OverflowError:  # a Python int beyond float range
        raise ContractError(f"{what}: an entry is out of float range") from None
    except (TypeError, ValueError) as exc:  # ragged nesting, non-numeric entries
        raise ContractError(f"{what} is not a numeric array: {exc}") from None
    if not np.isfinite(arr).all():
        raise ContractError(f"{what} contains non-finite entries")
    return arr


def _as_real(a, what: str = "array") -> np.ndarray:
    """`_as_complex` for real arrays: finite floats, or a ContractError."""
    return _as_complex(a, what, float)


def _deviation(m: np.ndarray, of: str):
    """max |m† m - 1| (of="unitary"), |m - m†| ("hermitian") or |tr m - 1| ("trace"), (..., n, n)."""
    if of == "trace":
        diff = np.trace(m, axis1=-2, axis2=-1) - 1.0
    elif of == "unitary":  # 1 taken off the diagonal through a flat view: matmul's output is C-ordered
        diff = np.swapaxes(m, -1, -2).conj() @ m
        diff.reshape(*diff.shape[:-2], -1)[..., :: m.shape[-1] + 1] -= 1.0
    else:
        diff = m - np.swapaxes(m, -1, -2).conj()
    return np.abs(diff).max(initial=0.0)


def _require(m: np.ndarray, of: str, tol: float, fault: str) -> None:
    """Raise ContractError(fault) unless `_deviation(m, of)` is within `tol`. Entries of modulus
    <= 1e150 cannot overflow it, so it is computed plainly: np.errstate slows the numpy calls after
    it. Larger entries, inf or NaN give inf or NaN under np.errstate, without a numpy warning, and
    `not dev <= tol` rejects both."""
    if np.abs(m).max(initial=0.0) <= 1e150:
        dev = _deviation(m, of)
    else:
        with np.errstate(over="ignore", invalid="ignore"):
            dev = _deviation(m, of)
    if not dev <= tol:
        raise ContractError(f"{fault}: deviation {dev:.3e} > {tol:g}")


class _Frozen:
    """Base of the value classes: `__init__` sets every field once, in its parameter
    order, and then assigning or deleting an attribute raises AttributeError.
    Equality and hashing are by identity."""

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def _fields(self) -> tuple:
        """(name, value) of each field, named by `__init__`'s parameters, in their order."""
        code = type(self).__init__.__code__
        return tuple((name, getattr(self, name)) for name in code.co_varnames[1:code.co_argcount])

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in self._fields())
        return f"{type(self).__name__}({fields})"


class _Value(_Frozen):
    """A `_Frozen` class whose instances compare and hash by their field values."""

    def __eq__(self, other):
        return self._fields() == other._fields() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._fields())


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
        raise ContractError("kron needs at least one factor")
    return reduce(np.kron, (_as_complex(f) for f in factors))


def require_unitary(m, *, tol: float = ATOL, what: str = "matrix") -> np.ndarray:
    """Validate U†U = 1 within `tol`, for a matrix or a stack (..., n, n); return a read-only copy.
    One rule decides, max |U†U - 1| <= tol."""
    try:
        u = np.array(m, dtype=complex, order="C")
        if u.ndim < 2 or u.shape[-1] != u.shape[-2]:
            raise ContractError(f"{what} is not square: shape {u.shape}")
        _require(u, "unitary", tol, f"{what} is not unitary")
    except (TypeError, ValueError, OverflowError):  # ContractError is a ValueError
        _as_complex(m, what)  # first, if `m` does not convert or has a NaN or inf entry, its message
        raise
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


class QubitRegister(_Value):
    """An ordered collection of named qubits; order fixes bit significance."""

    def __init__(self, labels):
        try:
            labels = tuple(str(lab) for lab in labels)
        except TypeError:
            raise LabelError(f"register labels must be an iterable of labels, got {labels!r}") from None
        if not labels:
            raise LabelError("a register needs at least one qubit")
        if len(set(labels)) != len(labels):
            raise LabelError(f"duplicate qubit labels in {labels}")
        self.__dict__["labels"] = labels

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        return 2 ** len(self.labels)

    def axes(self, labels) -> tuple[int, ...]:
        """Tensor-axis positions of the given labels, in the order given."""
        labels, out = _labels(labels), []
        for lab in labels:
            if lab not in self.labels:
                raise LabelError(
                    f"unknown qubit label {lab!r}; register has {self.labels}"
                )
            out.append(self.labels.index(lab))
        if len(set(out)) != len(out):
            raise LabelError(f"repeated qubit label in {labels}")
        return tuple(out)


class StateVector(_Frozen):
    """A normalized pure state over a labeled register."""

    def __init__(self, register: QubitRegister, amplitudes):
        if not isinstance(register, QubitRegister):
            raise ContractError(f"a state's register must be a QubitRegister, got {register!r}")
        # one rule: the register's size, and |psi| within ATOL of 1 (NaN or inf for a NaN or inf entry)
        try:
            amps = np.array(amplitudes, dtype=complex).ravel()
            if amps.size != register.dim:
                raise ContractError(f"register {register.labels} needs {register.dim} amplitudes, got {amps.size}")
            norm = math.sqrt(np.vdot(amps, amps).real)  # vdot does not warn when the norm overflows
            if not abs(norm - 1.0) <= ATOL:
                raise ContractError(f"state is not normalized: |psi| = {norm!r}")
        except (TypeError, ValueError, OverflowError):  # ContractError is a ValueError
            _as_complex(amplitudes, "amplitudes")  # first, if they do not convert or have a NaN or inf, its message
            raise
        amps.setflags(write=False)
        self.__dict__.update(register=register, amplitudes=amps)

    @staticmethod
    def from_raw(labels, raw) -> "StateVector":
        """Normalize a raw amplitude vector; error on a (near-)zero vector, |raw| < ZERO_NORM."""
        parts = _as_complex(raw, "amplitudes").ravel().view(float)  # (re, im) pairs
        scale = float(np.abs(parts).max(initial=0.0))
        unit = (parts / scale if scale else parts).view(complex)  # its norm cannot overflow
        norm = float(np.linalg.norm(unit))
        if scale * norm < ZERO_NORM:
            raise ContractError("cannot normalize a zero amplitude vector")
        return StateVector(QubitRegister(tuple(labels)), unit / norm)

    def tensor_view(self) -> np.ndarray:
        return self.amplitudes.reshape((2,) * self.register.size)

    def permuted(self, new_order) -> "StateVector":
        """Same state with register slots reordered to `new_order`."""
        m = _split_matrix(self, new_order)  # one column when new_order holds every label
        if m.shape[1] != 1:
            raise LabelError("permutation must mention every label exactly once")
        return _trusted(StateVector, register=QubitRegister(tuple(new_order)), amplitudes=m.ravel())

    def relabeled(self, mapping) -> "StateVector":
        """Rename labels without touching amplitudes."""
        labels = tuple(mapping.get(lab, lab) for lab in self.register.labels)
        return _trusted(StateVector, register=QubitRegister(labels), amplitudes=self.amplitudes)


def _split_matrix(state: StateVector, part) -> np.ndarray:
    """The amplitude matrix of `state` across (part | rest): rows run over `part` in the
    order given, columns over the other qubits in register order."""
    axes = state.register.axes(part)
    rest = [i for i in range(state.register.size) if i not in axes]
    return state.tensor_view().transpose(*axes, *rest).reshape(2 ** len(axes), -1)


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product of two states on disjoint registers."""
    _require_kinds("tensor", ("a", a, StateVector), ("b", b, StateVector))
    shared = set(a.register.labels) & set(b.register.labels)
    if shared:
        raise LabelError(f"registers overlap on {sorted(shared)}")
    return _trusted(StateVector, register=QubitRegister(a.register.labels + b.register.labels),
                    amplitudes=np.kron(a.amplitudes, b.amplitudes))


def _require_densities(m: np.ndarray) -> None:
    """Hermitian, unit-trace and positive-semidefinite checks of a matrix or a
    stack (..., d, d), each over the whole stack (one stacked `eigvalsh`)."""
    _require(m, "hermitian", ATOL, "density matrix is not Hermitian")
    _require(m, "trace", ATOL, "density matrix trace is not 1")
    if not np.linalg.eigvalsh(m).min() >= -EIG_ATOL:
        raise ContractError("density matrix has a negative eigenvalue")


class DensityMatrix(_Frozen):
    """A unit-trace positive-semidefinite operator over a labeled register."""

    def __init__(self, register: QubitRegister, matrix):
        if not isinstance(register, QubitRegister):
            raise ContractError(f"a density matrix's register must be a QubitRegister, got {register!r}")
        m = _as_complex(matrix, "density matrix").copy()
        if m.shape != (register.dim, register.dim):
            raise ContractError(f"density matrix shape {m.shape} does not match register {register.labels}")
        _require_densities(m)
        m.setflags(write=False)
        self.__dict__.update(register=register, matrix=m)

    @staticmethod
    def from_state(state: StateVector) -> "DensityMatrix":
        _require_kinds("DensityMatrix.from_state", ("state", state, StateVector))
        return _trusted(DensityMatrix, register=state.register,
                        matrix=np.outer(state.amplitudes, state.amplitudes.conj()))


def reduced_densities(state: StateVector, keeps) -> np.ndarray:
    """Reduced density matrices of a pure state, one per keep (all of one size),
    as a read-only (m, d, d) stack, not checked again (the state was checked when
    built): M M† for M the state reshaped to (keep | rest), keep in the order given."""
    blocks = [_split_matrix(state, keep) for keep in keeps]
    if not blocks or any(b.shape != blocks[0].shape for b in blocks):
        raise ContractError("reduced_densities needs one or more keeps of one size")
    m = np.stack(blocks)
    rho = m @ np.swapaxes(m, -1, -2).conj()
    rho.setflags(write=False)
    return rho


def reduced_density(state: StateVector, keep) -> DensityMatrix:
    """Reduced density matrix of a pure state: `reduced_densities` of one keep."""
    _require_kinds("reduced_density", ("state", state, StateVector))
    register = QubitRegister(keep)
    return _trusted(DensityMatrix, register=register, matrix=reduced_densities(state, [register.labels])[0])


def hermitian_eigenvalues(m) -> np.ndarray:
    """Real eigenvalues in ascending order; input must be Hermitian."""
    return np.linalg.eigvalsh(require_hermitian(m, tol=EIG_ATOL))


def _resolve_rng(seed) -> np.random.Generator:
    if isinstance(seed, np.random.Generator):
        return seed
    try:
        return np.random.default_rng(seed)
    except (TypeError, ValueError) as exc:  # a float, complex, bytes or negative seed
        raise ContractError(f"seed must be a non-negative integer, a sequence of them or a Generator: {exc}") from None


def haar_random_state(n_qubits: int, seed) -> np.ndarray:
    """Uniformly random pure-state amplitudes on `n_qubits`."""
    dim = 2 ** _integer(n_qubits, "n_qubits", 1, MAX_QUBITS)
    rng = _resolve_rng(seed)
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


