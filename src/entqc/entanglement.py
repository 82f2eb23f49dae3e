"""Entanglement structure of four-qubit channel states.

Pairwise positive-partial-transpose analysis, the triad decomposition into
two orthogonal maximal-GHZ components, the three-tangle, and a GHZ-witness
minimization over local rotations (multi-start, exact block-coordinate ascent
on SU(2)^3). Pair and triad analyses and the witness search run on stacks;
`pair_analysis`, `triad_analysis` and `minimize_witness` are n = 1 cases.
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
    _require_densities,
    _trusted,
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

#: most witness-search restarts per call, and most rows (densities x restarts)
#: one ascent holds: the batch allocation grows with them, so a longer stack runs in chunks
MAX_RESTARTS = 4096
#: most angle rows one pass of the witness kernels takes: a pass's temporaries then stay
#: small enough (under 128 KiB each) for the allocator to recycle, not map afresh
ROWS_PER_PASS = 512
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
    return PairReport(pair, _trusted(DensityMatrix, register=QubitRegister(pair), matrix=reduced[0]),
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
    return TriadReport(triad, _trusted(DensityMatrix, register=QubitRegister(triad), matrix=reduced[0]),
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
#
# The kernels keep the stack on the last axis: rotations (3, 2, 2, *stack),
# indexed [qubit, row, column], and states (8, *stack). Every elementwise step
# then runs over rows as long as the stack, and rho . phi is one (8, 8) . (8, n)
# product. The stack is (n,) for one density and (m, r) for m densities of r
# restarts each; public shapes stay stack-first.

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
    states = np.ascontiguousarray(_batch_states(_euler_columns(params)).T)
    return states[0] if single else states


def _witness_density(rho) -> DensityMatrix:
    """A three-qubit DensityMatrix as it is; any other input is checked as one."""
    if not isinstance(rho, DensityMatrix):
        rho = DensityMatrix(QubitRegister(("q1", "q2", "q3")), rho)
    if rho.register.size != 3:
        raise ContractError("the witness acts on three-qubit density matrices")
    return rho


def witness_value(rho, rotation_params):
    """Witness expectation 3/4 - <phi|rho|phi> at the given finite rotation angles;
    angles (9,) give a float, a stack (n, 9) an (n,) array in passes of
    ROWS_PER_PASS rows. `rho` is a three-qubit DensityMatrix or an (8, 8) array
    checked as a density matrix (Hermitian, unit trace, positive semidefinite)."""
    m = _witness_density(rho).matrix
    params, single = _angle_stack(rotation_params)
    values = np.concatenate([_batch_value(m, rows) for rows in _passes(params)])
    return float(values[0]) if single else values


def _passes(params2d: np.ndarray) -> list:
    """An angle stack cut into runs of at most ROWS_PER_PASS rows (one run if empty)."""
    return [params2d[i:i + ROWS_PER_PASS] for i in range(0, max(len(params2d), 1), ROWS_PER_PASS)]


#: each qubit's angles (a, b, c) -> (b, a + c, a - c) / 4: rows [half angle, qubit]
#: over the 9 angles
_QUARTER_ANGLES = np.einsum("ha,qr->hqra", 0.25 * np.array([[0, 1, 0], [1, 0, 1], [1, 0, -1]]),
                            np.eye(3)).reshape(9, 9)


def _euler_columns(params2d: np.ndarray) -> np.ndarray:
    """Z-Y-Z Euler rotations (global phase dropped): angles (n, 9) -> (3, 2, 2, n).
    With a, b, c one qubit's angles, R00 = e^{-i(a+c)/2} cos(b/2) = conj(R11) and
    R10 = e^{i(a-c)/2} sin(b/2) = -conj(R01). Each half angle's cosine and sine
    come from one tangent t of its half, (1 - t^2, 2t) / (1 + t^2): numpy's
    vectorized tan is several times faster than its cos and sin together."""
    t = np.tan(_QUARTER_ANGLES @ params2d.T).reshape(3, 3, -1)
    scale = 1.0 / (1.0 + t * t)
    (cb, cp, cm), (sb, sp, sm) = (1.0 - t * t) * scale, 2.0 * t * scale
    rots = np.empty((3, 2, 2, len(params2d)), dtype=complex)
    diag, low = rots[:, 0, 0], rots[:, 1, 0]
    diag.real, diag.imag = cb * cp, -cb * sp
    low.real, low.imag = sb * cm, sb * sm
    rots[:, 1, 1] = diag.conj()
    rots[:, 0, 1] = -low.conj()
    return rots


def _batch_states(rots: np.ndarray) -> np.ndarray:
    """Witness states for rotations (3, 2, 2, *stack): (8, *stack)."""
    pair = rots[0][:, None] * (rots[1] * np.sqrt(0.5))[None]  # [a, b, branch] / sqrt2
    phi = pair[:, :, None, 0] * rots[2][:, 0] + pair[:, :, None, 1] * rots[2][:, 1]
    return phi.reshape(8, *rots.shape[3:])


def _rho_dot(ms: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """rho . phi: one density (8, 8) on states (8, n), or each of m densities
    (m, 8, 8) on its own columns of states (8, m, r)."""
    if ms.ndim == 2:
        return ms @ phi
    return np.swapaxes(ms @ np.swapaxes(phi, 0, 1), 0, 1)


def _states_values(ms: np.ndarray, rots: np.ndarray):
    """(phi, rho . phi, witness values) for a rotation stack."""
    phi = _batch_states(rots)
    y = _rho_dot(ms, phi)
    return phi, y, 0.75 - (phi.conj() * y).real.sum(axis=0)


def _batch_value(m: np.ndarray, params2d: np.ndarray) -> np.ndarray:
    return _states_values(m, _euler_columns(params2d))[2]


def _batch_value_grad(m: np.ndarray, params2d: np.ndarray):
    rots = _euler_columns(params2d)
    phi, y, value = _states_values(m, rots)
    yc, pt = y.conj().reshape(2, 2, 2, -1), phi.reshape(2, 2, 2, -1)
    grad = np.empty((params2d.shape[0], 9))
    for k in range(3):
        # ov[p, q] = <y| on qubit k's row p against |phi> on its row q, summed over the others
        yk, pk = np.moveaxis(yc, k, 0).reshape(2, 4, -1), np.moveaxis(pt, k, 0).reshape(2, 4, -1)
        ov = (yk[:, None] * pk[None]).sum(axis=2)
        # -2 Re tr(ov G) for the left generators G of the three Euler angles of qubit k:
        # -iZ/2, the Y/2 rotated by the first angle, and R (-iZ/2) R^dag
        grad[:, 3 * k] = ov[1, 1].imag - ov[0, 0].imag
        eia = np.exp(-1j * params2d[:, 3 * k])
        grad[:, 3 * k + 1] = np.real(ov[0, 1] * eia - ov[1, 0] * np.conj(eia))
        r = rots[k]
        branches = (ov[:, :, None] * r[:, None] * r.conj()[None]).sum(axis=(0, 1))
        grad[:, 3 * k + 2] = (branches[1] - branches[0]).imag
    return value, grad


def witness_gradient(rho, rotation_params) -> np.ndarray:
    """Analytic gradient of witness_value (same `rho` and angles) in the 9 rotation
    angles: (9,) give (9,), a stack (n, 9) gives (n, 9) in passes of ROWS_PER_PASS rows."""
    m = _witness_density(rho).matrix
    params, single = _angle_stack(rotation_params)
    grad = np.concatenate([_batch_value_grad(m, rows)[1] for rows in _passes(params)])
    return grad[0] if single else grad


#: I, iX, iY, iZ: a qubit's rotation is U = q0 I + q1 iX + q2 iY + q3 iZ, q a unit quaternion
_QUATERNION_BASIS = np.array([I2, 1j * SIGMA_X, 1j * SIGMA_Y, 1j * SIGMA_Z])
#: Q[i, j] = Re sum conj(B_i[a, s]) M[a, s, a', t] B_j[a', t] / 2 for B the quaternion
#: basis, as one (16, 16) matrix acting on the flattened M (transposed, for M stack-first)
_QUADRATIC_FORM_T = 0.5 * np.einsum(
    "ias,jbt->asbtij", _QUATERNION_BASIS.conj(), _QUATERNION_BASIS).reshape(16, 16)


def _qubit_update(rho_k: np.ndarray, rots: np.ndarray, k: int) -> np.ndarray:
    """Set qubit k of rotations (3, 2, 2, m, r) to the top eigenvector of its
    quadratic form Q; return Q's top eigenvalues (m, r), the new overlaps.

    rho_k (m, 16, 4) is each density with qubit k first, rows (a, bc, a') and
    columns b'c'. The other two qubits' rotated branches w[bc, s] compress it to
    M[a, s, a', t] = sum conj(w[bc, s]) rho[a bc, a' b'c'] w[b'c', t], and Q is
    M read in the quaternion basis; no trial state is built.
    """
    j, l = (q for q in range(3) if q != k)
    m, r = rots.shape[3:]
    branches = (rots[j][:, None] * rots[l][None]).reshape(4, 2, m, r)  # [bc, s]
    w = np.ascontiguousarray(branches.transpose(2, 0, 1, 3))
    x = (rho_k @ w.reshape(m, 4, 2 * r)).reshape(m, 2, 4, 1, 2, 2, r)  # [a, bc, -, a', t]
    wc = w.conj()[:, None, :, :, None, None]  # [-, bc, s, -, -]
    compressed = wc[:, :, 0] * x[:, :, 0]  # [a, s, a', t], summed over bc below
    for bc in (1, 2, 3):
        compressed += wc[:, :, bc] * x[:, :, bc]
    q = (np.swapaxes(compressed.reshape(m, 16, r), 1, 2) @ _QUADRATIC_FORM_T).real
    eigenvalues, vectors = np.linalg.eigh(q.reshape(m, r, 4, 4))
    # U = sum_j q_j B_j for q the top eigenvector
    entries = vectors[..., -1] @ _QUATERNION_BASIS.reshape(4, 4)  # [m, r, (row, column)]
    rots[k] = np.moveaxis(entries, -1, 0).reshape(2, 2, m, r)
    return eigenvalues[..., -1]


def _ascend_batch(ms: np.ndarray, rots: np.ndarray):
    """Block-coordinate ascent of <phi|rho|phi> over SU(2)^3 (the higher-order
    power method) for densities ms (m, 8, 8) from rotations (3, 2, 2, m, r):
    all m x r rows in lock step.

    With the other two qubits fixed the overlap is q^T Q q, Q = Re(V^dag rho V)
    for V the witness states with I, iX, iY, iZ on qubit k, so the best update
    is Q's top eigenvector (`_qubit_update`). A density stops once none of its
    restarts' overlap rises by more than 16 eps in a sweep, or after MAX_SWEEPS,
    and leaves the stack, so each density's rows see exactly its own search.
    Returns (rotations, sweeps (m,)).
    """
    m, r = rots.shape[3:]
    rots = rots.copy()
    sweeps = np.zeros(m, dtype=int)
    # each density with qubit k first: axes (a, b, c, a', b', c') -> (a bc a', b'c')
    rho6 = ms.reshape(m, 2, 2, 2, 2, 2, 2)
    orders = ((0, 1, 2), (1, 0, 2), (2, 0, 1))
    rho_ks = [rho6.transpose(0, *(1 + i for i in o), *(4 + i for i in o)).reshape(m, 16, 4)
              for o in orders]
    active, rows, overlap = np.arange(m), rots, np.full((m, r), -np.inf)
    for sweep in range(1, MAX_SWEEPS + 1):
        previous = overlap
        for k in range(3):
            overlap = _qubit_update(rho_ks[k], rows, k)
        sweeps[active] = sweep
        done = np.all(overlap - previous <= 16 * np.finfo(float).eps, axis=1)
        if done.any():
            rots[..., active[done], :] = rows[..., done, :]
            active, rows, overlap = active[~done], rows[..., ~done, :], overlap[~done]
            rho_ks = [rho_k[~done] for rho_k in rho_ks]
            if not active.size:
                break
    else:
        rots[..., active, :] = rows
    return rots, sweeps


def _euler_angles(rots: np.ndarray) -> np.ndarray:
    """Z-Y-Z Euler angles of SU(2) rotations, the inverse of `_euler_columns`:
    (3, 2, 2, n) -> (n, 9)."""
    alpha, beta = np.angle(rots[:, 0, 0]), np.angle(rots[:, 1, 0])
    b = 2.0 * np.arctan2(np.abs(rots[:, 1, 0]), np.abs(rots[:, 0, 0]))
    return np.stack([beta - alpha, b, -alpha - beta], axis=-1).transpose(1, 0, 2).reshape(-1, 9)


def _integer(value, name: str, low: int, high: int | None = None) -> int:
    """A Python or numpy integer (not a bool) in low..high, as an int."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, (int, np.integer)):
        raise ContractError(f"{name} must be an integer, got {value!r}")
    if value < low or (high is not None and value > high):
        bounds = f"{low}..{high}" if high is not None else f">= {low}"
        raise ContractError(f"{name} must lie in {bounds}, got {value}")
    return int(value)


def _density_stack(rhos) -> np.ndarray:
    """The matrices (m, 8, 8) of a non-empty list or tuple of three-qubit
    DensityMatrix objects, used as they are, or of an array stack, each checked
    as a density matrix."""
    if isinstance(rhos, (list, tuple)) and rhos and all(isinstance(r, DensityMatrix) for r in rhos):
        return np.stack([_witness_density(rho).matrix for rho in rhos])
    ms = _as_complex(rhos, "density stack")
    if ms.ndim != 3 or ms.shape[1:] != (8, 8) or not len(ms):
        raise ContractError(
            "expected a non-empty stack (m, 8, 8) of three-qubit density matrices, "
            f"got shape {ms.shape}"
        )
    _require_densities(ms)
    return ms


def _search(ms: np.ndarray, starts: np.ndarray):
    """The ascent of densities ms (m, 8, 8) from every start (3, 2, 2, r) at once,
    read out per density: (minima, angles, converged fractions, sweeps)."""
    (m, r), one = (len(ms), starts.shape[-1]), np.arange(len(ms))
    rots, sweeps = _ascend_batch(ms, np.broadcast_to(starts[..., None, :], (3, 2, 2, m, r)))
    ends = _euler_angles(rots.reshape(3, 2, 2, -1))
    finals = _states_values(ms, _euler_columns(ends).reshape(3, 2, 2, m, r))[2]
    best = finals.argmin(axis=1)
    converged = np.mean(finals <= finals[one, best][:, None] + 1e-6, axis=1)
    angles = ends.reshape(m, r, 9)[one, best]
    # each best row alone, exactly as `witness_value` evaluates the reported angles
    minima = np.array([_batch_value(rho, angle[None])[0] for rho, angle in zip(ms, angles)])
    return minima, angles, converged, sweeps


def stacked_minimize_witness(rhos, restarts: int = 64, seed: int = 0):
    """The witness search of m three-qubit densities, all m x restarts rows of
    the ascent in lock step. `rhos` is a list or tuple of DensityMatrix objects,
    used as they are, or an (m, 8, 8) array, each matrix checked as a density
    matrix.

    Returns minima (m,), the reported angles (m, 9), converged fractions (m,)
    (the share of restarts ending within 1e-6 of the minimum) and the sweeps each
    density ran (m,). Each density stops by its own rule and every restart by
    its own stream, so row d equals `minimize_witness(rhos[d], restarts, seed)`
    bit for bit. `seed` is a non-negative integer; restarts lie in
    1..MAX_RESTARTS; a stack of more than MAX_RESTARTS rows runs in chunks of
    whole densities.
    """
    ms = _density_stack(rhos)
    restarts = _integer(restarts, "restarts", 1, MAX_RESTARTS)
    seed = _integer(seed, "seed", 0)
    # restart i draws from its own stream default_rng([seed, i]), so the starts
    # depend on (seed, restarts) alone; drawn once, shared by every chunk
    starts = _euler_columns(np.stack([np.random.default_rng([seed, i]).uniform(0.0, 2.0 * np.pi, 9)
                                      for i in range(restarts)]))
    chunk = MAX_RESTARTS // restarts
    parts = [_search(ms[i:i + chunk], starts) for i in range(0, len(ms), chunk)]
    return tuple(np.concatenate(part) for part in zip(*parts))


def minimize_witness(rho, restarts: int = 64, seed: int = 0) -> WitnessSearchResult:
    """Multi-start block-coordinate ascent of the overlap over local rotations
    (`_ascend_batch`), read out as 9 Euler angles: `stacked_minimize_witness`
    of one density.

    `rho` is as for `witness_value`. Each restart draws its starting angles from
    its own stream derived from (seed, restart index), so results do not depend
    on execution order. The reported value is `witness_value` at the reported
    angles.
    """
    minima, angles, converged, _ = stacked_minimize_witness([_witness_density(rho)], restarts, seed)
    return WitnessSearchResult(float(minima[0]), tuple(angles[0].tolist()), int(restarts),
                               float(converged[0]))
