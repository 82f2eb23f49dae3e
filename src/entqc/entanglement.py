"""Entanglement structure of four-qubit channel states.

Pairwise positive-partial-transpose analysis, the triad decomposition into
two orthogonal maximal-GHZ components, the three-tangle, and a GHZ-witness
minimization over local rotations (multi-start, exact block-coordinate ascent
on SU(2)^3). Pair and triad analyses run on stacks; `pair_analysis`,
`triad_analysis` are n = 1 cases.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import CHANNEL_LABELS
from .tensor import (
    ATOL,
    ContractError,
    DensityMatrix,
    I2,
    LabelError,
    QubitRegister,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    StateVector,
    _as_complex,
    hermitian_eigenvalues,  # noqa: F401  (perfbench's traced cli_mix rebinds it here)
    reduced_densities,
    reduced_density,  # noqa: F401  (perfbench's traced cli_mix rebinds it here)
)

#: a pair is declared entangled iff its minimum PT eigenvalue is below this
PPT_VERDICT_TOL = -1e-10

#: branch signs (l1, l2, l3, l4) of the two GHZ components of each triad
#: marginal of the Bell-transformed reference channel
TRIAD_COMPONENT_SIGNS = {
    ("A1", "A2", "B1"): (-1, 1, -1, 1),
    ("A1", "A2", "B2"): (1, 1, -1, -1),
    ("A1", "B1", "B2"): (-1, 1, 1, -1),
    ("A2", "B1", "B2"): (-1, -1, 1, 1),
}

#: all six unordered pairs / four triads of the channel register
CHANNEL_PAIRS = (
    ("A1", "A2"), ("A1", "B1"), ("A1", "B2"),
    ("A2", "B1"), ("A2", "B2"), ("B1", "B2"),
)
CHANNEL_TRIADS = tuple(TRIAD_COMPONENT_SIGNS)

#: most witness-search restarts per call; the batch allocation grows with it
MAX_RESTARTS = 4096
#: most ascent sweeps (three exact per-qubit updates each) per witness search
MAX_SWEEPS = 1_000


@dataclass(frozen=True, eq=False)
class PairReport:
    """Two-qubit marginal with its partial-transpose verdict."""

    pair: tuple[str, str]
    reduced: DensityMatrix
    min_pt_eigenvalue: float
    entangled: bool


@dataclass(frozen=True, eq=False)
class TriadReport:
    """Three-qubit marginal matched against its two reference GHZ components."""

    triad: tuple[str, str, str]
    reduced: DensityMatrix
    ghz_component_fidelities: tuple[float, float]
    three_tangles: tuple[float, float]


@dataclass(frozen=True)
class WitnessSearchResult:
    """Best witness value found over all restarts."""

    min_value: float
    parameters: tuple[float, ...]
    restarts: int
    converged_fraction: float

    def __post_init__(self):
        # 3/4 - <phi|rho|phi> with 0 <= <phi|rho|phi> <= 1
        if not -0.25 - 1e-9 <= self.min_value <= 0.75 + 1e-9:
            raise ContractError(
                f"witness value {self.min_value} outside the admissible range"
            )
        if len(self.parameters) != 9:
            raise ContractError("witness parameters are 9 rotation angles")


def stacked_pair_analysis(state: StateVector, pairs):
    """Marginals (m, 4, 4) of the named pairs, the ascending spectra (m, 4) of
    their partial transposes on the second qubit and the PT verdicts (m,):
    one reduction, one stacked `eigvalsh`. A pair is two distinct labels."""
    if state.register.size != 4:
        raise ContractError("pair analysis expects a four-qubit state")
    pairs = [tuple(pair) for pair in pairs]
    for pair in pairs:
        if len(pair) != 2 or pair[0] == pair[1]:
            raise ContractError(f"a pair is two distinct qubit labels, got {pair}")
    reduced = reduced_densities(state, pairs)
    pt = reduced.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(-1, 4, 4)
    spectra = np.linalg.eigvalsh(pt)
    return reduced, spectra, spectra[:, 0] < PPT_VERDICT_TOL


def pair_analysis(state: StateVector, pair) -> PairReport:
    """Reduce to the named pair and apply the PT separability test."""
    pair = tuple(pair)
    reduced, spectra, entangled = stacked_pair_analysis(state, [pair])
    return PairReport(pair, DensityMatrix._checked(QubitRegister(pair), reduced[0]),
                      float(spectra[0, 0]), bool(entangled[0]))


def triad_component_states(triad) -> tuple[np.ndarray, np.ndarray]:
    """The two orthonormal GHZ-class components of a reference triad marginal."""
    key = tuple(triad)
    try:
        l1, l2, l3, l4 = TRIAD_COMPONENT_SIGNS[key]
    except KeyError:
        raise LabelError(
            f"no reference components for triad {key}; "
            f"known triads: {CHANNEL_TRIADS}"
        ) from None
    comp0 = np.zeros(8, dtype=complex)
    comp0[0b000], comp0[0b011], comp0[0b101], comp0[0b110] = 1.0, l1, 1.0, l2
    comp1 = np.zeros(8, dtype=complex)
    comp1[0b001], comp1[0b010], comp1[0b100], comp1[0b111] = l3, l4, 1.0, 1.0
    return comp0 / 2.0, comp1 / 2.0


def stacked_triad_analysis(state: StateVector, triads):
    """Reduce to the named triads and match each rank-2 leading eigenspace
    against the triad's reference GHZ components: one reduction, one stacked
    `eigh`, one stacked three-tangle.

    Returns marginals (m, 8, 8), their ascending spectra (m, 8), and per
    component (m, 2) fidelities, the weights of each reference component in
    the span of the two leading eigenvectors, and tangles of the normalized
    projections (deterministic even when the leading eigenvalue is
    degenerate; 0 below fidelity 1e-12).
    """
    if state.register.size != 4:
        raise ContractError("triad analysis expects a four-qubit state")
    triads = [tuple(triad) for triad in triads]
    refs = np.array([triad_component_states(triad) for triad in triads])
    reduced = reduced_densities(state, triads)
    spectra, vectors = np.linalg.eigh(reduced)
    top = vectors[..., -2:]
    weights = np.swapaxes(top, -1, -2).conj() @ np.swapaxes(refs, -1, -2)  # (m, 2, comp)
    fidelities = np.einsum("mkc,mkc->mc", weights.conj(), weights).real
    projections = np.swapaxes(top @ weights, -1, -2)  # (m, comp, 8)
    kept = fidelities >= 1e-12
    tangles = np.zeros(fidelities.shape)
    chosen = projections[kept]
    tangles[kept] = three_tangle(chosen / np.linalg.norm(chosen, axis=-1, keepdims=True))
    return reduced, spectra, fidelities, tangles


def triad_analysis(state: StateVector, triad) -> TriadReport:
    """Reduce to the named triad and match its rank-2 eigenspace against the
    reference GHZ components (`stacked_triad_analysis` of one triad)."""
    triad = tuple(triad)
    reduced, _, fidelities, tangles = stacked_triad_analysis(state, [triad])
    return TriadReport(triad, DensityMatrix._checked(QubitRegister(triad), reduced[0]),
                       tuple(fidelities[0].tolist()), tuple(tangles[0].tolist()))


def three_tangle(state):
    """Residual tangle of three-qubit pure states via the 2x2x2 hyperdeterminant:
    a float for one state (8,) or a StateVector, an (n,) array for a stack (n, 8).

    Equals 1 exactly for maximal GHZ states up to local unitaries and 0 for
    any state in the W class; invariant under local unitaries.
    """
    amps = state.amplitudes if isinstance(state, StateVector) else _as_complex(state, "state")
    if amps.shape[-1:] != (8,) or amps.ndim > 2:
        raise ContractError(f"three_tangle expects a state (8,) or a stack (n, 8), got {amps.shape}")
    with np.errstate(over="ignore"):  # an overflowing norm is inf, rejected below
        norms = np.linalg.norm(amps, axis=-1)
    if np.any(np.abs(norms - 1.0) > ATOL):
        raise ContractError(f"state is not normalized: |psi| = {norms!r}")
    # Cayley's hyperdeterminant is the discriminant c1^2 - 4 c0 c2 of
    # det(A0 + t A1) = c0 + c1 t + c2 t^2, for A_i the slices a[i, :, :]
    a = amps.reshape(-1, 8).T
    c0 = a[0] * a[3] - a[1] * a[2]
    c1 = a[0] * a[7] + a[4] * a[3] - a[1] * a[6] - a[5] * a[2]
    c2 = a[4] * a[7] - a[5] * a[6]
    tau = 4.0 * np.abs(c1 * c1 - 4.0 * c0 * c2)
    return float(tau[0]) if amps.ndim == 1 else tau


def symmetric_w_state(labels=CHANNEL_LABELS) -> StateVector:
    """Four-qubit single-excitation symmetric state (pairwise-entangled control)."""
    amps = np.zeros(16, dtype=complex)
    amps[[1, 2, 4, 8]] = 0.5
    return StateVector(QubitRegister(tuple(labels)), amps)


# --- GHZ witness over local rotations --------------------------------------

_HALF_Z = -0.5j * SIGMA_Z


def _angle_stack(rotation_params) -> tuple[np.ndarray, bool]:
    """Angles as an (n, 9) stack, and whether one point of shape (9,) was given."""
    params = np.asarray(rotation_params, dtype=float)
    if not np.all(np.isfinite(params)):
        raise ContractError("rotation parameters contain non-finite entries")
    if params.shape == (9,):
        return params[None, :], True
    if params.ndim != 2 or params.shape[1] != 9:
        raise ContractError(
            "expected 9 rotation parameters (3 per qubit) or a stack of shape "
            f"(n, 9), got shape {params.shape}"
        )
    return params, False


def witness_state(rotation_params) -> np.ndarray:
    """(R1 (x) R2 (x) R3)(|000> + |111>)/sqrt2 for 9 stacked Euler angles;
    angles (9,) give one state (8,), a stack (n, 9) gives (n, 8)."""
    params, single = _angle_stack(rotation_params)
    states = _batch_states(_euler_columns(params))
    return states[0] if single else states


def _density8(rho) -> np.ndarray:
    """A three-qubit DensityMatrix's matrix as it is; any other input is checked as one."""
    if not isinstance(rho, DensityMatrix):
        rho = DensityMatrix(QubitRegister(("q1", "q2", "q3")), rho)
    if rho.register.size != 3:
        raise ContractError("the witness acts on three-qubit density matrices")
    return rho.matrix


def witness_value(rho, rotation_params):
    """Witness expectation 3/4 - <phi|rho|phi> at the given finite rotation angles;
    angles (9,) give a float, a stack (n, 9) an (n,) array in one pass. `rho` is
    a three-qubit DensityMatrix or an (8, 8) array checked as a density matrix
    (Hermitian, unit trace, positive semidefinite)."""
    m = _density8(rho)
    params, single = _angle_stack(rotation_params)
    values = _batch_value(m, params)
    return float(values[0]) if single else values


def _euler_columns(params2d: np.ndarray) -> np.ndarray:
    """Z-Y-Z Euler rotations (global phase dropped): (n, 9) -> (n, 3, 2, 2)."""
    p = params2d.reshape(-1, 3, 3)
    a, b, c = p[..., 0], p[..., 1], p[..., 2]
    cb, sb = np.cos(0.5 * b), np.sin(0.5 * b)
    ea, ec = np.exp(-0.5j * a), np.exp(-0.5j * c)
    rots = np.empty(p.shape[:2] + (2, 2), dtype=complex)
    rots[..., 0, 0] = ea * ec * cb
    rots[..., 0, 1] = -ea * np.conj(ec) * sb
    rots[..., 1, 0] = np.conj(ea) * ec * sb
    rots[..., 1, 1] = np.conj(ea * ec) * cb
    return rots


def _batch_states(rots: np.ndarray) -> np.ndarray:
    """Witness states for a rotation stack: (n, 3, 2, 2) -> (n, 8)."""
    phi = np.einsum("nas,nbs,ncs->nabc", rots[:, 0], rots[:, 1], rots[:, 2])
    return phi.reshape(-1, 8) / np.sqrt(2.0)


def _states_values(m: np.ndarray, rots: np.ndarray):
    """(phi, rho.phi, witness values) for a rotation stack; rho.phi in products of 256
    rows, below OpenBLAS's threading threshold (a busy second thread costs more than it saves)."""
    phi = _batch_states(rots)
    y, cut = np.empty_like(phi), len(phi) - len(phi) % 256
    np.matmul(phi[:cut].reshape(-1, 256, 8), m.T, out=y[:cut].reshape(-1, 256, 8))
    np.matmul(phi[cut:], m.T, out=y[cut:])
    return phi, y, 0.75 - np.real(np.einsum("ni,ni->n", phi.conj(), y))


def _batch_value(m: np.ndarray, params2d: np.ndarray) -> np.ndarray:
    return _states_values(m, _euler_columns(params2d))[2]


def _batch_value_grad(m: np.ndarray, params2d: np.ndarray):
    rots = _euler_columns(params2d)
    phi, y, value = _states_values(m, rots)
    yc = y.conj().reshape(-1, 2, 2, 2)
    pt = phi.reshape(-1, 2, 2, 2)
    overlaps = (
        np.einsum("npbc,nqbc->npq", yc, pt),
        np.einsum("napc,naqc->npq", yc, pt),
        np.einsum("nabp,nabq->npq", yc, pt),
    )
    half_diag = np.array([-0.5j, 0.5j])
    grad = np.empty((params2d.shape[0], 9))
    for k in range(3):
        ov = overlaps[k]
        # left generators of the three Euler angles of qubit k
        grad[:, 3 * k] = -2.0 * np.real(np.einsum("npq,pq->n", ov, _HALF_Z))
        eia = np.exp(-1j * params2d[:, 3 * k])
        mid = ov[:, 0, 1] * (-0.5 * eia) + ov[:, 1, 0] * (0.5 * np.conj(eia))
        grad[:, 3 * k + 1] = -2.0 * np.real(mid)
        gen_c = np.einsum(
            "nps,s,nqs->npq", rots[:, k], half_diag, rots[:, k].conj()
        )
        grad[:, 3 * k + 2] = -2.0 * np.real(np.einsum("npq,npq->n", ov, gen_c))
    return value, grad


def witness_gradient(rho, rotation_params) -> np.ndarray:
    """Analytic gradient of witness_value (same `rho` and angles) in the 9 rotation
    angles: (9,) give (9,), a stack (n, 9) gives (n, 9) in one pass."""
    m = _density8(rho)
    params, single = _angle_stack(rotation_params)
    _, grad = _batch_value_grad(m, params)
    return grad[0] if single else grad


#: I, iX, iY, iZ: a qubit's rotation is U = q0 I + q1 iX + q2 iY + q3 iZ, q a unit quaternion
_QUATERNION_BASIS = np.array([I2, 1j * SIGMA_X, 1j * SIGMA_Y, 1j * SIGMA_Z])


def _ascend_batch(m: np.ndarray, rots: np.ndarray):
    """Block-coordinate ascent of <phi|rho|phi> over SU(2)^3 (the higher-order
    power method), all restarts in lock step.

    With the other two qubits fixed the overlap is q^T Q q, Q = Re(V^dag rho V)
    for V the witness states with I, iX, iY, iZ on qubit k, so the best update
    is Q's top eigenvector. Sweeps stop once no restart's overlap rises by more
    than 16 eps in a sweep, or after MAX_SWEEPS. Returns (rotations, sweeps run).
    """
    n = rots.shape[0]
    rots = rots.copy()
    overlap = np.full(n, -np.inf)
    for sweep in range(1, MAX_SWEEPS + 1):
        previous = overlap
        for k in range(3):
            trial = np.repeat(rots[:, None], 4, axis=1)
            trial[:, :, k] = _QUATERNION_BASIS
            v = _batch_states(trial.reshape(-1, 3, 2, 2)).reshape(n, 4, 8)
            q = (v.conj() @ m @ np.swapaxes(v, -1, -2)).real
            eigenvalues, vectors = np.linalg.eigh(q)
            rots[:, k] = np.einsum("nj,jab->nab", vectors[:, :, -1], _QUATERNION_BASIS)
            overlap = eigenvalues[:, -1]
        if np.all(overlap - previous <= 16 * np.finfo(float).eps):
            break
    return rots, sweep


def _euler_angles(rots: np.ndarray) -> np.ndarray:
    """Z-Y-Z Euler angles of SU(2) rotations, the inverse of `_euler_columns`:
    (n, 3, 2, 2) -> (n, 9)."""
    alpha, beta = np.angle(rots[..., 0, 0]), np.angle(rots[..., 1, 0])
    b = 2.0 * np.arctan2(np.abs(rots[..., 1, 0]), np.abs(rots[..., 0, 0]))
    return np.stack([beta - alpha, b, -alpha - beta], axis=-1).reshape(-1, 9)


def minimize_witness(rho, restarts: int = 64, seed: int = 0) -> WitnessSearchResult:
    """Multi-start block-coordinate ascent of the overlap over local rotations
    (`_ascend_batch`), read out as 9 Euler angles.

    `rho` is as for `witness_value`. Each restart draws its starting angles from
    its own stream derived from (seed, restart index), so results do not depend
    on execution order. The reported value is `witness_value` at the reported
    angles.
    """
    if not 1 <= restarts <= MAX_RESTARTS:
        raise ContractError(f"restarts must lie in 1..{MAX_RESTARTS}, got {restarts}")
    m = _density8(rho)
    starts = np.stack([np.random.default_rng([seed, i]).uniform(0.0, 2.0 * np.pi, 9)
                       for i in range(restarts)])
    ends = _euler_angles(_ascend_batch(m, _euler_columns(starts))[0])
    finals = _batch_value(m, ends)
    best = int(np.argmin(finals))
    converged = float(np.mean(finals <= finals[best] + 1e-6))
    # the best row alone, exactly as `witness_value` evaluates the reported angles
    value = float(_batch_value(m, ends[best:best + 1])[0])
    return WitnessSearchResult(value, tuple(ends[best].tolist()), int(restarts), converged)
