"""Differential checks of the batched kernels against the serial code they
replaced.

The reference functions below are the per-outcome protocol loop (a six-qubit
`tensor` + `partial_inner` per outcome), the per-outcome `apply_unitary`
invariance transform, the serial Euler/`np.kron` witness, the bit-loop EPR
channel with its `apply_unitary` dressing, the series form as an invariance
transform of the dressed protocol, the per-member `apply_unitary` POVM
twirl, the report's per-trial teleport and invariance loops, its per-point
gradient check, the per-ket Schmidt decompositions of a basis, the per-draw
Haar samplers, the `isinstance`-chain JSON/text renderer (each float
formatted afresh), the protocol kernel that formed every (trial, outcome)
transfer block and the four-product invariance transform, the tensordot
reduced density, the per-pair PT and per-triad eigenspace analyses with the
expanded hyperdeterminant, the per-operator operator-Schmidt SVD, the
report's per-pair, per-triad and per-channel section bodies, the Armijo
steepest descent the witness search ran before its exact block-coordinate
ascent (its minima frozen in golden/descent_minima.json), the `np.kron` chain
that built each GHZ branch, and the stack-first kernels that the stack-last
ones replaced: the witness states, values and gradients as per-row einsums,
the transfer blocks as one small product per block and the invariance
transform as one product per transform. They are kept
here, test-only, as the oracle. The batched code sums in a different order,
so results are compared at a tolerance fixed beforehand from complex128
roundoff on 16-amplitude contractions; the renderer, the Haar unitaries and
the GHZ branches must match exactly.
"""
import collections
import contextlib
import io
import itertools
import json
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entqc import cli, report
from entqc.channel import (
    BUILTIN_CHANNELS,
    CHANNEL_LABELS,
    RECEIVER_LABELS,
    ChannelSpec,
    GhzSpec,
    bell_transform_matrix,
    builtin_channel,
    dressed_channel,
    epr_amplitudes,
    epr_pair_channel,
    generalized_ghz,
    resolve_channel,
)
from entqc.entanglement import (
    CHANNEL_PAIRS,
    CHANNEL_TRIADS,
    minimize_witness,
    pair_analysis,
    stacked_minimize_witness,
    stacked_pair_analysis,
    stacked_triad_analysis,
    symmetric_w_state,
    three_tangle,
    triad_analysis,
    triad_component_states,
    witness_gradient,
    witness_state,
    witness_value,
)
from entqc.primitives import (
    apply_unitary,
    fidelity_pure,
    haar_draws,
    haar_random_unitary,
    operator_schmidt_coefficients,
    operator_schmidt_rank,
    partial_inner,
    partial_transpose,
    schmidt_coefficients,
    schmidt_rank,
)
from entqc.relations import (
    BASIS_SPLITS,
    corrections_from,
    invariance_pairs,
    invariance_transform,
    is_separable_basis,
    measurement_kets,
    partial_inner_transfer,
    povm_check,
    recovery_ops,
    series_form,
    split_schmidt_coefficients,
    transfer_blocks,
)
from entqc.tensor import (
    EIG_ATOL,
    PAULIS,
    ContractError,
    DensityMatrix,
    QubitRegister,
    StateVector,
    haar_random_state,
    hermitian_eigenvalues,
    kron,
    reduced_densities,
    reduced_density,
    require_unitary,
    tensor,
)
from entqc.teleport import (
    OUTCOMES,
    MeasurementBasis,
    UnknownState,
    measurement_basis,
    pauli_pair,
    run_protocol,
    run_protocol_batch,
    standard_corrections,
    standard_protocol_batch,
    teleport_all_outcomes,
)

TOL = 1e-13
SEEDS = range(50)
UNKNOWN = ("U1", "U2")
PERMUTED_ORDER = ("B1", "A2", "A1", "B2")
GOLDEN_REPORT = Path(__file__).parent / "golden" / "repro_seed7.json"
DESCENT_MINIMA = Path(__file__).parent / "golden" / "descent_minima.json"


# --- test-only references: the serial implementations ------------------------

def ref_epr_pair_channel():
    amps = np.zeros(16, dtype=complex)
    for i in range(2):
        for j in range(2):
            amps[(i << 3) | (j << 2) | (i << 1) | j] = 0.5
    return StateVector(QubitRegister(CHANNEL_LABELS), amps)


def ref_generalized_ghz(spec):
    """The GHZ channel with each branch as the `np.kron` chain of its kets."""
    branches = [kron(*(b[:, k] for b in spec.local_bases)) for k in (0, 1)]
    amps = spec.amplitudes[0] * branches[0] + spec.amplitudes[1] * branches[1]
    return StateVector(QubitRegister(CHANNEL_LABELS), amps)


def ref_dressed_channel(spec):
    return apply_unitary(ref_epr_pair_channel(), spec.dressing, RECEIVER_LABELS)


def ref_series_form(spec):
    inverse = spec.dressing.conj().T
    basis, _ = invariance_transform(
        measurement_basis(spec), standard_corrections(), np.eye(4), inverse
    )
    return basis, [pauli_pair(a, b) @ inverse for a, b in OUTCOMES]


def ref_povm_check(unitary_set, channel_state):
    first = channel_state.register.labels[:2]
    marginal = reduced_density(channel_state, first).matrix
    if np.abs(marginal - np.eye(4) / 4.0).max() > 1e-10:
        raise ContractError("not maximally entangled")
    ops = [require_unitary(u) for u in unitary_set]
    if not ops:
        raise ContractError("empty set")
    last = channel_state.register.labels[2:]
    acc = np.zeros((16, 16), dtype=complex)
    for u in ops:
        twirled = apply_unitary(channel_state, u, last).amplitudes
        acc += np.outer(twirled, twirled.conj())
    acc /= len(ops)
    deviation = float(np.abs(acc - np.eye(16) / 16.0).max())
    return deviation <= 1e-10, deviation

def ref_measurement_basis(dressing):
    base = epr_pair_channel().relabeled({"B1": "U1", "B2": "U2"})
    base = apply_unitary(base, dressing, UNKNOWN)
    return [
        apply_unitary(base, kron(PAULIS[a - 1], PAULIS[b - 1]), UNKNOWN)
        for a, b in OUTCOMES
    ]


def ref_transfer(ket, channel_state):
    _, _, block = partial_inner(ket, channel_state)
    return block


def ref_run_protocol(unknown, kets, channel_state, ops):
    psi = tensor(unknown.as_state(), channel_state)
    results = []
    for outcome, ket, op in zip(OUTCOMES, kets, ops):
        rest, _, block = partial_inner(ket, psi)
        raw = block.reshape(-1)
        probability = float(np.real(np.vdot(raw, raw)))
        bob = StateVector.from_raw(rest, raw)
        corrected = apply_unitary(bob, op, rest)
        results.append((outcome, probability, bob, corrected))
    return results


def ref_invariance_transform(kets, ops, wl, wr):
    wrt = wr.T
    bare = kets[0].relabeled({"U1": "B1", "U2": "B2"})
    new_kets, new_channels = [], []
    for ket, op in zip(kets, ops):
        t_ket = apply_unitary(ket, wrt, ("A1", "A2"))
        new_kets.append(apply_unitary(t_ket, wl, UNKNOWN))
        chan = apply_unitary(bare, op, ("B1", "B2"))
        chan = apply_unitary(chan, wrt, ("A1", "A2"))
        new_channels.append(apply_unitary(chan, wl, ("B1", "B2")))
    return new_kets, new_channels


def ref_run_protocol_batch(unknowns, kets, channels, corrections):
    """The protocol kernel with a (T, 16) stack of 4x4 transfer blocks."""
    raw = (transfer_blocks(kets, channels[:, None]) @ unknowns[:, None, :, None])[..., 0]
    probabilities = np.real(np.einsum("tgr,tgr->tg", raw.conj(), raw))
    bob = raw / np.sqrt(probabilities)[..., None]
    corrected = np.einsum("...gij,...gj->...gi", corrections, bob)
    return probabilities, bob, corrected


def ref_invariance_pairs(kets, corrections, w_l, w_r):
    """X K Y^T as four stacked products per transform."""
    wr_t = np.swapaxes(w_r, -1, -2)[..., None, :, :]
    wl_t = np.swapaxes(w_l, -1, -2)[..., None, :, :]
    channels = wr_t @ kets[0] @ np.swapaxes(corrections, -1, -2) @ wl_t
    return wr_t @ kets @ wl_t, channels


def ref_transfer_blocks(kets, channels):
    """The stack-first transfer blocks: one small product per block."""
    return np.swapaxes(channels, -1, -2) @ kets.conj()


def ref_kron_invariance_pairs(kets, corrections, w_l, w_r):
    """The stack-first invariance transform: one (32, 16) . (16, 16) product per transform."""
    stacked = np.concatenate([kets, kets[0] @ np.swapaxes(corrections, -1, -2)]).reshape(32, 16)
    kron_t = np.einsum("...ai,...jb->...abij", w_r, w_l).reshape(*np.shape(w_r)[:-2], 16, 16)
    out = (stacked @ kron_t).reshape(*kron_t.shape[:-2], 2, 16, 4, 4)
    return out[..., 0, :, :, :], out[..., 1, :, :, :]


def ref_section_teleport(cfg):
    """The report's teleport rows, one `teleport_all_outcomes` call per trial."""
    rng = np.random.default_rng([cfg.seed, 1])
    max_prob_dev = max_infidelity = max_sum_dev = max_nosignal_dev = 0.0
    for _ in range(report.TELEPORT_TRIALS):
        spec = ChannelSpec(haar_random_unitary(2, rng))
        unknown = UnknownState.random(rng)
        target = unknown.as_state()
        total = 0.0
        marginal = np.zeros((4, 4), dtype=complex)
        for out in teleport_all_outcomes(unknown, spec):
            total += out.probability
            max_prob_dev = max(max_prob_dev, abs(out.probability - 1.0 / 16.0))
            max_infidelity = max(
                max_infidelity, abs(1.0 - fidelity_pure(out.corrected_state, target))
            )
            amps = out.bob_state.amplitudes
            marginal += out.probability * np.outer(amps, amps.conj())
        max_sum_dev = max(max_sum_dev, abs(total - 1.0))
        max_nosignal_dev = max(
            max_nosignal_dev, float(np.abs(marginal - np.eye(4) / 4.0).max())
        )
    fixed = []
    for dressing, amps in [
        (np.eye(4), [1.0, 0.0, 0.0, 0.0]),
        (bell_transform_matrix(), np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2.0)),
    ]:
        unknown = UnknownState(amps)
        outs = teleport_all_outcomes(unknown, ChannelSpec(dressing))
        fixed.append(max(
            abs(1.0 - fidelity_pure(o.corrected_state, unknown.as_state())) for o in outs
        ))
    return [max_prob_dev, max_infidelity, max_sum_dev, max_nosignal_dev, *fixed]


def ref_section_invariance(cfg):
    """The report's invariance rows, one `invariance_transform`, sixteen
    `partial_inner_transfer` and one `run_protocol` call per trial."""
    basis = measurement_basis(ChannelSpec(bell_transform_matrix()))
    corrections = standard_corrections()
    _, base_channels = invariance_transform(basis, corrections, np.eye(4), np.eye(4))
    base_blocks = [
        partial_inner_transfer(ket, chan) for ket, chan in zip(basis.kets, base_channels)
    ]
    rng = np.random.default_rng([cfg.seed, 2])
    max_block_dev = max_infidelity = 0.0
    for _ in range(report.INVARIANCE_TRIALS):
        w_l = haar_random_unitary(2, rng)
        w_r = haar_random_unitary(2, rng)
        t_basis, t_channels = invariance_transform(basis, corrections, w_l, w_r)
        for ket, chan, ref in zip(t_basis.kets, t_channels, base_blocks):
            block = partial_inner_transfer(ket, chan)
            max_block_dev = max(max_block_dev, float(np.abs(block - ref).max()))
        unknown = UnknownState.random(rng)
        physical = t_channels[0]
        t_corrections = corrections_from(t_basis, physical)
        for out in run_protocol(unknown, t_basis, physical, t_corrections):
            max_infidelity = max(
                max_infidelity, abs(1.0 - fidelity_pure(out.corrected_state, unknown.as_state()))
            )
    return [max_block_dev, max_infidelity]


def ref_section_gradient(cfg):
    """The report's gradient section, one gradient and eighteen value calls
    per point."""
    state = builtin_channel("bell-transformed").state
    rho = reduced_density(state, ("A1", "A2", "B1"))
    rng = np.random.default_rng([cfg.seed, 3])
    step = 1e-5
    max_dev = 0.0
    for _ in range(report.GRADIENT_POINTS):
        params = rng.uniform(0.0, 2.0 * np.pi, 9)
        analytic = witness_gradient(rho, params)
        numeric = np.empty(9)
        for j in range(9):
            up = params.copy()
            down = params.copy()
            up[j] += step
            down[j] -= step
            numeric[j] = (witness_value(rho, up) - witness_value(rho, down)) / (2 * step)
        max_dev = max(max_dev, float(np.abs(analytic - numeric).max()))
    checks = [
        report.check(
            f"max |analytic - central-difference| over {report.GRADIENT_POINTS} points",
            max_dev, 0.0, 1e-6,
        )
    ]
    return report.section("gradient", checks)


def ref_split_schmidt(basis):
    """Per split, every ket's Schmidt coefficients from its own StateVector."""
    return {
        split: np.stack([schmidt_coefficients(ket, split[0]) for ket in basis.kets])
        for split in BASIS_SPLITS
    }


def ref_haar_random_unitary(n_qubits, rng):
    """One Ginibre QR with phase fix, drawn as two (dim, dim) normal blocks."""
    dim = 2**n_qubits
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    z /= np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def ref_haar_random_state(n_qubits, rng):
    dim = 2**n_qubits
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def ref_emit(value, out):
    """The renderer's value encoder as one `isinstance` chain."""
    if value is None:
        out.append("null")
    elif isinstance(value, (bool, np.bool_)):
        out.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        out.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        if not np.isfinite(value):
            raise ContractError(f"non-finite {value!r}")
        out.append(format(float(value), ".17g"))
    elif isinstance(value, (complex, np.complexfloating)):
        ref_emit([float(value.real), float(value.imag)], out)
    elif isinstance(value, str):
        out.append(json.dumps(value))
    elif isinstance(value, dict):
        out.append("{")
        for i, (key, item) in enumerate(value.items()):
            if i:
                out.append(", ")
            out.append(json.dumps(str(key)))
            out.append(": ")
            ref_emit(item, out)
        out.append("}")
    elif isinstance(value, (list, tuple)):
        out.append("[")
        for i, item in enumerate(value):
            if i:
                out.append(", ")
            ref_emit(item, out)
        out.append("]")
    elif isinstance(value, np.ndarray):
        ref_emit(value.tolist(), out)
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def ref_render_json(doc):
    out = []
    ref_emit(doc, out)
    return "".join(out) + "\n"


def ref_fmt_scalar(value):
    if isinstance(value, (float, np.floating)):
        if not np.isfinite(value):
            raise ContractError(f"non-finite {value!r}")
        return format(float(value), ".10g")
    if isinstance(value, (list, tuple, dict)):
        out = []
        ref_emit(value, out)
        return "".join(out)
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def ref_verdict(passed):
    if passed is None:
        return "info"
    return "PASS" if passed else "FAIL"


def ref_render_text(doc):
    kind = doc.get("report", "report")
    lines = [f"entqc {kind} report"]
    meta = [
        f"{key}={ref_fmt_scalar(value)}"
        for key, value in doc.items()
        if key not in ("report", "sections", "pass")
    ]
    if meta:
        lines.append("  ".join(meta))
    for sec in doc.get("sections", ()):
        lines.append("")
        lines.append(f"[{ref_verdict(sec['pass'])}] section {sec['name']}")
        for row in sec["checks"]:
            piece = f"  [{ref_verdict(row['pass'])}] {row['name']}: value={ref_fmt_scalar(row['value'])}"
            if row.get("target") is not None:
                piece += f" target={ref_fmt_scalar(row['target'])}"
            if row.get("tolerance") is not None:
                piece += f" tolerance={ref_fmt_scalar(row['tolerance'])}"
            lines.append(piece)
    if "pass" in doc:
        lines.append("")
        lines.append(f"overall: {ref_verdict(doc['pass'])}")
    return "\n".join(lines) + "\n"


def ref_teleport_document(channel, seed=None, state=None):
    """The document `entqc teleport --channel CHANNEL (--seed SEED | --state
    STATE)` wrote before its template: 48 `check` rows built one by one. The
    protocol is read from `cli`, so a test that patches it there patches both."""
    resolved = resolve_channel(channel)
    meta = {"channel": resolved.name}
    if state is not None:
        unknown = cli._parse_state_arg(state)
    else:
        meta["seed"] = seed
        unknown = UnknownState.random(seed)
    c = unknown.coefficients
    probs, bob, corrected = cli.standard_protocol_batch(c[None], resolved.spec.dressing[None])
    fids = (np.abs(corrected[0].conj() @ c) ** 2).tolist()

    def pairs(amplitudes):
        return np.stack([amplitudes.real, amplitudes.imag], -1).tolist()

    checks = []
    for (a, b), prob, fid, receiver in zip(OUTCOMES, probs[0].tolist(), fids, pairs(bob[0])):
        tag = f"outcome ({a},{b})"
        checks.append(report.check(f"{tag} probability", prob, 1.0 / 16.0, cli.FIDELITY_ATOL))
        checks.append(report.check(f"{tag} corrected fidelity", fid, 1.0, cli.FIDELITY_ATOL))
        checks.append(report.check(f"{tag} receiver state", receiver))
    return report.document("teleport", [report.section("outcomes", checks)], **meta, unknown_state=pairs(c))


def ref_reduced_density(state, keep):
    """The tensordot reduction: psi against psi* over the traced-out axes."""
    keep = tuple(keep)
    kaxes = state.register.axes(keep)
    taxes = [i for i in range(state.register.size) if i not in kaxes]
    psi = state.tensor_view()
    block = np.tensordot(psi, psi.conj(), axes=(taxes, taxes))
    # tensordot leaves kept axes in register order; restore the caller's order
    rank = {a: r for r, a in enumerate(sorted(kaxes))}
    perm = [rank[a] for a in kaxes]
    k = len(kaxes)
    block = np.transpose(block, perm + [k + p for p in perm])
    return DensityMatrix(QubitRegister(keep), block.reshape(2**k, 2**k))


def ref_pair_analysis(state, pair):
    """One pair: its marginal, the checked spectrum of its partial transpose
    on the second qubit, and the PT verdict."""
    reduced = ref_reduced_density(state, pair)
    spectrum = hermitian_eigenvalues(partial_transpose(reduced, (reduced.register.labels[1],)))
    return reduced.matrix, spectrum, bool(spectrum.min() < -EIG_ATOL)


def ref_three_tangle(amps):
    """4 |d1 - 2 d2 + 4 d3| of one state, the hyperdeterminant expanded."""
    a = np.asarray(amps).reshape(2, 2, 2)
    d1 = (
        a[0, 0, 0] ** 2 * a[1, 1, 1] ** 2
        + a[0, 0, 1] ** 2 * a[1, 1, 0] ** 2
        + a[0, 1, 0] ** 2 * a[1, 0, 1] ** 2
        + a[1, 0, 0] ** 2 * a[0, 1, 1] ** 2
    )
    d2 = (
        a[0, 0, 0] * a[1, 1, 1] * a[0, 1, 1] * a[1, 0, 0]
        + a[0, 0, 0] * a[1, 1, 1] * a[1, 0, 1] * a[0, 1, 0]
        + a[0, 0, 0] * a[1, 1, 1] * a[1, 1, 0] * a[0, 0, 1]
        + a[0, 1, 1] * a[1, 0, 0] * a[1, 0, 1] * a[0, 1, 0]
        + a[0, 1, 1] * a[1, 0, 0] * a[1, 1, 0] * a[0, 0, 1]
        + a[1, 0, 1] * a[0, 1, 0] * a[1, 1, 0] * a[0, 0, 1]
    )
    d3 = (
        a[0, 0, 0] * a[1, 1, 0] * a[1, 0, 1] * a[0, 1, 1]
        + a[1, 1, 1] * a[0, 0, 1] * a[0, 1, 0] * a[1, 0, 0]
    )
    return float(4.0 * abs(d1 - 2.0 * d2 + 4.0 * d3))


def ref_triad_analysis(state, triad):
    """One triad: its marginal, checked spectrum, and per reference component
    the weight in the leading eigenspace and the tangle of the projection."""
    reduced = ref_reduced_density(state, triad)
    _, vectors = np.linalg.eigh(reduced.matrix)
    top = vectors[:, -2:]
    fidelities, tangles = [], []
    for ref in triad_component_states(triad):
        weights = top.conj().T @ ref
        fid = float(np.real(np.vdot(weights, weights)))
        fidelities.append(fid)
        if fid < 1e-12:
            tangles.append(0.0)
            continue
        projection = top @ weights
        tangles.append(ref_three_tangle(projection / np.linalg.norm(projection)))
    return reduced.matrix, hermitian_eigenvalues(reduced.matrix), fidelities, tangles


def ref_operator_schmidt(ops):
    """Per operator, one reshuffle and one SVD: coefficients and rank."""
    coefficients = [
        np.linalg.svd(op.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4), compute_uv=False)
        for op in ops
    ]
    return np.array(coefficients), [int(np.count_nonzero(c > EIG_ATOL)) for c in coefficients]


def ref_section_pairs(cfg):
    """The report's pairs section, one reduction and one analysis per pair."""
    checks = []
    state = builtin_channel("bell-transformed").state
    for label in state.register.labels:
        dev = float(np.abs(ref_reduced_density(state, (label,)).matrix - np.eye(2) / 2.0).max())
        checks.append(report.check(f"single-qubit marginal {label} deviation from I/2", dev, 0.0, 1e-12))
    expected = {("A1", "B1"): report.PAIR_A1B1, ("A2", "B2"): report.PAIR_A2B2}
    for pair in CHANNEL_PAIRS:
        reduced, spectrum, entangled = ref_pair_analysis(state, pair)
        tag = f"({pair[0]},{pair[1]})"
        if pair in expected:
            dev = float(np.abs(reduced - expected[pair]).max())
            checks.append(report.check(f"pair {tag} matches its reference marginal", dev, 0.0, 1e-12))
            pt_dev = float(np.abs(np.sort(spectrum) - [0.0, 0.0, 0.5, 0.5]).max())
            checks.append(report.check(f"pair {tag} PT spectrum deviation from (0,0,1/2,1/2)",
                                       pt_dev, 0.0, 1e-10))
        else:
            dev = float(np.abs(reduced - np.eye(4) / 4.0).max())
            checks.append(report.check(f"pair {tag} deviation from I/4", dev, 0.0, 1e-12))
        checks.append(report.check(f"pair {tag} entangled", entangled, False))
    return report.section("pairs", checks)


def ref_section_wstate(cfg):
    checks = []
    target = (1.0 - np.sqrt(2.0)) / 4.0
    for pair in CHANNEL_PAIRS:
        _, spectrum, entangled = ref_pair_analysis(symmetric_w_state(), pair)
        tag = f"({pair[0]},{pair[1]})"
        checks.append(report.check(f"W-state pair {tag} min PT eigenvalue", spectrum.min(), target, 1e-10))
        checks.append(report.check(f"W-state pair {tag} entangled", entangled, True))
    return report.section("wstate", checks)


def ref_section_triads(cfg):
    """The report's triads section, one reduction and one analysis per triad."""
    checks = []
    state = builtin_channel("bell-transformed").state
    for triad in CHANNEL_TRIADS:
        reduced, eigs, fidelities, tangles = ref_triad_analysis(state, triad)
        tag = f"({triad[0]},{triad[1]},{triad[2]})"
        for i, fid in enumerate(fidelities):
            checks.append(report.check(f"triad {tag} component {i} fidelity", fid, 1.0, 1e-10))
        for i, tau in enumerate(tangles):
            checks.append(report.check(f"triad {tag} component {i} three-tangle", tau, 1.0, 1e-8))
        comp0, comp1 = triad_component_states(triad)
        recon = 0.5 * np.outer(comp0, comp0.conj()) + 0.5 * np.outer(comp1, comp1.conj())
        checks.append(report.check(f"triad {tag} reconstruction deviation",
                                   float(np.abs(reduced - recon).max()), 0.0, 1e-10))
        eig_dev = float(np.abs(np.sort(eigs) - np.array([0.0] * 6 + [0.5, 0.5])).max())
        checks.append(report.check(f"triad {tag} eigenvalue deviation from (1/2,1/2,0,...)",
                                   eig_dev, 0.0, 1e-10))
    return report.section("triads", checks)


def ref_section_series(cfg):
    """The report's series section, one channel at a time: per-ket split
    Schmidt coefficients, one SVD per correction, one protocol run each."""
    checks = []
    unknown = haar_random_state(2, np.random.default_rng([cfg.seed, 5]))[None]
    for name in ("bell-transformed", "epr"):
        spec = builtin_channel(name).spec
        basis, table = series_form(spec)
        excess = float(ref_split_schmidt(basis)[BASIS_SPLITS[0]][:, 1:].max())
        checks.append(report.check(f"{name} series basis max excess Schmidt coefficient", excess, 0.0, 1e-10))
        _, ranks = ref_operator_schmidt(table.ops)
        if name == "bell-transformed":
            checks.append(report.check("bell-transformed series has a nonlocal correction", max(ranks) > 1, True))
        else:
            checks.append(report.check("epr series corrections all local", max(ranks) == 1, True))
            pauli_dev = float(np.abs(table.ops - standard_corrections().ops).max())
            checks.append(report.check("epr series corrections equal sigma-pairs", pauli_dev, 0.0, 1e-12))
        _, _, corrected = run_protocol_batch(
            unknown, basis.amplitudes.reshape(1, 16, 4, 4), epr_amplitudes(spec.dressing)[None], table.ops,
        )
        infid = report._infidelities(corrected, unknown)[0]
        checks.append(report.check(f"{name} series protocol max infidelity", infid, 0.0, 1e-10))
    return report.section("series", checks)


def ref_rotation(a, b, c):
    cb, sb = np.cos(0.5 * b), np.sin(0.5 * b)
    ea, ec = np.exp(-0.5j * a), np.exp(-0.5j * c)
    return np.array(
        [
            [ea * ec * cb, -ea * np.conj(ec) * sb],
            [np.conj(ea) * ec * sb, np.conj(ea * ec) * cb],
        ]
    )


def ref_witness_state(params):
    rots = [ref_rotation(*params[3 * k : 3 * k + 3]) for k in range(3)]
    branch0 = np.kron(np.kron(rots[0][:, 0], rots[1][:, 0]), rots[2][:, 0])
    branch1 = np.kron(np.kron(rots[0][:, 1], rots[1][:, 1]), rots[2][:, 1])
    return (branch0 + branch1) / np.sqrt(2.0)


def ref_witness_value(m, params):
    phi = ref_witness_state(params)
    return float(0.75 - np.real(np.vdot(phi, m @ phi)))


def ref_stack_first_rotations(params2d):
    """Z-Y-Z Euler rotations with the stack first: (n, 9) -> (n, 3, 2, 2)."""
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


def ref_stack_first_states(rots):
    """Witness states (n, 8) from one three-way einsum over the rotation stack."""
    phi = np.einsum("nas,nbs,ncs->nabc", rots[:, 0], rots[:, 1], rots[:, 2])
    return phi.reshape(-1, 8) / np.sqrt(2.0)


def ref_stack_first_value_grad(m, params2d):
    """Witness values (n,) and gradients (n, 9) with the stack first, the
    overlaps and generators as per-row einsums."""
    rots = ref_stack_first_rotations(params2d)
    phi = ref_stack_first_states(rots)
    y = phi @ m.T
    value = 0.75 - np.real(np.einsum("ni,ni->n", phi.conj(), y))
    yc, pt = y.conj().reshape(-1, 2, 2, 2), phi.reshape(-1, 2, 2, 2)
    overlaps = (
        np.einsum("npbc,nqbc->npq", yc, pt),
        np.einsum("napc,naqc->npq", yc, pt),
        np.einsum("nabp,nabq->npq", yc, pt),
    )
    half_z, half_diag = -0.5j * PAULIS[3], np.array([-0.5j, 0.5j])
    grad = np.empty((params2d.shape[0], 9))
    for k, ov in enumerate(overlaps):
        grad[:, 3 * k] = -2.0 * np.real(np.einsum("npq,pq->n", ov, half_z))
        eia = np.exp(-1j * params2d[:, 3 * k])
        mid = ov[:, 0, 1] * (-0.5 * eia) + ov[:, 1, 0] * (0.5 * np.conj(eia))
        grad[:, 3 * k + 1] = -2.0 * np.real(mid)
        gen_c = np.einsum("nps,s,nqs->npq", rots[:, k], half_diag, rots[:, k].conj())
        grad[:, 3 * k + 2] = -2.0 * np.real(np.einsum("npq,npq->n", ov, gen_c))
    return value, grad


# the witness search's former descent, on the public stacked witness calls
REF_MAX_ITERATIONS = 10_000
REF_GRAD_NORM_TOL = 1e-8
REF_ARMIJO_C = 1e-4


def ref_descend_batch(rho, starts):
    """Steepest descent with backtracking (halving) line search.

    All rows advance in lock step; each row sees exactly the serial
    algorithm (Armijo acceptance, step doubling capped at 4, stop when its
    gradient norm drops below REF_GRAD_NORM_TOL or no representable descent
    direction remains), and frozen rows stop consuming work.
    """
    params = np.array(starts, dtype=float)
    value, grad = witness_value(rho, params), witness_gradient(rho, params)
    step = np.ones(params.shape[0])
    active = np.linalg.norm(grad, axis=1) >= REF_GRAD_NORM_TOL
    for _ in range(REF_MAX_ITERATIONS):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        g = grad[idx]
        gsq = np.einsum("nj,nj->n", g, g)
        t = step[idx].copy()
        cand = params[idx] - t[:, None] * g
        cval = witness_value(rho, cand)
        retry = (cval > value[idx] - REF_ARMIJO_C * t * gsq) & (t >= 1e-18)
        while np.any(retry):
            t[retry] *= 0.5
            cand[retry] = params[idx[retry]] - t[retry, None] * g[retry]
            cval[retry] = witness_value(rho, cand[retry])
            retry = (cval > value[idx] - REF_ARMIJO_C * t * gsq) & (t >= 1e-18)
        ok = t >= 1e-18
        active[idx[~ok]] = False  # no descent representable at double precision
        moved = idx[ok]
        if moved.size:
            params[moved] = cand[ok]
            mval, mgrad = witness_value(rho, params[moved]), witness_gradient(rho, params[moved])
            value[moved] = mval
            grad[moved] = mgrad
            step[moved] = np.minimum(2.0 * t[ok], 4.0)
            done = np.linalg.norm(mgrad, axis=1) < REF_GRAD_NORM_TOL
            active[moved[done]] = False
    return value, params


# --- helpers -----------------------------------------------------------------

def assert_states_close(state, ref):
    assert state.register.labels == ref.register.labels
    assert np.abs(state.amplitudes - ref.amplitudes).max() <= TOL


def assert_outcomes_match(outcomes, reference):
    assert len(outcomes) == len(reference) == 16
    for out, (outcome, probability, bob, corrected) in zip(outcomes, reference):
        assert out.outcome == outcome
        assert abs(out.probability - probability) <= TOL
        assert_states_close(out.bob_state, bob)
        assert_states_close(out.corrected_state, corrected)


def haar_mixed_density(rng):
    """A random 8x8 density matrix, G G† over its trace for Ginibre G."""
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    rho = g @ g.conj().T
    rho /= np.trace(rho).real
    return 0.5 * (rho + rho.conj().T)


def random_case(seed):
    rng = np.random.default_rng([seed, 77])
    spec = ChannelSpec(haar_random_unitary(2, rng))
    unknown = UnknownState(haar_random_state(2, rng))
    return rng, spec, unknown


# --- the protocol ---------------------------------------------------------------

@pytest.mark.parametrize("permute", [False, True])
def test_run_protocol_matches_per_outcome_loop(permute):
    for seed in SEEDS:
        _, spec, unknown = random_case(seed)
        channel = dressed_channel(spec)
        if permute:
            channel = channel.permuted(PERMUTED_ORDER)
        basis = measurement_basis(spec)
        ref_kets = ref_measurement_basis(spec.dressing)
        for ket, ref in zip(basis.kets, ref_kets):
            assert_states_close(ket, ref)
        table = standard_corrections()
        assert_outcomes_match(
            run_protocol(unknown, basis, channel, table),
            ref_run_protocol(unknown, ref_kets, channel, table.ops),
        )


@pytest.mark.parametrize("permute", [False, True])
def test_transfer_and_corrections_match_partial_inner(permute):
    for seed in SEEDS:
        _, spec, _ = random_case(seed)
        channel = dressed_channel(spec)
        if permute:
            channel = channel.permuted(PERMUTED_ORDER)
        basis = measurement_basis(spec)
        refs = [ref_transfer(ket, channel) for ket in basis.kets]
        for ket, ref in zip(basis.kets, refs):
            assert np.abs(partial_inner_transfer(ket, channel) - ref).max() <= TOL
        table = corrections_from(basis, channel)
        for op, ref in zip(table.ops, refs):
            assert np.abs(op - 4.0 * ref.conj().T).max() <= TOL


def test_invariance_transform_matches_loop():
    for seed in SEEDS:
        rng, spec, unknown = random_case(seed)
        basis = measurement_basis(spec)
        table = corrections_from(basis, dressed_channel(spec))
        wl = haar_random_unitary(2, rng)
        wr = haar_random_unitary(2, rng)
        t_basis, t_channels = invariance_transform(basis, table, wl, wr)
        ref_kets, ref_channels = ref_invariance_transform(basis.kets, table.ops, wl, wr)
        for ket, ref in zip(t_basis.kets, ref_kets):
            assert_states_close(ket, ref)
        assert len(t_channels) == 16
        for chan, ref in zip(t_channels, ref_channels):
            assert_states_close(chan, ref)
        # the transformed protocol, run on its physical channel
        physical = t_channels[0]
        t_table = corrections_from(t_basis, physical)
        assert_outcomes_match(
            run_protocol(unknown, t_basis, physical, t_table),
            ref_run_protocol(unknown, t_basis.kets, physical, t_table.ops),
        )


def test_batched_kernel_matches_serial_runs():
    cases = [random_case(seed)[1:] for seed in SEEDS]
    unknowns = np.stack([unknown.coefficients for _, unknown in cases])
    channels = np.stack([
        dressed_channel(spec).amplitudes.reshape(4, 4) for spec, _ in cases
    ])
    standard = [(measurement_basis(spec), standard_corrections()) for spec, _ in cases]
    for variant in (standard, [series_form(spec) for spec, _ in cases]):
        kets = np.stack([basis.amplitudes.reshape(16, 4, 4) for basis, _ in variant])
        ops = np.stack([table.ops for _, table in variant])
        probabilities, bob, corrected = run_protocol_batch(unknowns, kets, channels, ops)
        for t, ((spec, unknown), (basis, table)) in enumerate(zip(cases, variant)):
            ref = ref_run_protocol(unknown, basis.kets, dressed_channel(spec), table.ops)
            for g, (_, probability, ref_bob, ref_corrected) in enumerate(ref):
                assert abs(probabilities[t, g] - probability) <= TOL
                assert np.abs(bob[t, g] - ref_bob.amplitudes).max() <= TOL
                assert np.abs(corrected[t, g] - ref_corrected.amplitudes).max() <= TOL


def row_values(section):
    return [row["value"] for row in section["checks"]]


def test_report_sweeps_match_per_trial_loops(monkeypatch):
    sweeps = [
        (report.section_teleport, ref_section_teleport),
        (report.section_invariance, ref_section_invariance),
    ]
    for section, ref in sweeps:
        cfg = report.SuiteConfig()
        assert np.allclose(row_values(section(cfg)), ref(cfg), rtol=0.0, atol=TOL)
    monkeypatch.setattr(report, "TELEPORT_TRIALS", 20)
    monkeypatch.setattr(report, "INVARIANCE_TRIALS", 10)
    for seed in SEEDS:
        cfg = report.SuiteConfig(seed=seed)
        for section, ref in sweeps:
            assert np.allclose(row_values(section(cfg)), ref(cfg), rtol=0.0, atol=TOL)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_basis_array_with_a_non_finite_entry_is_rejected(bad):
    amps = measurement_basis(ChannelSpec(np.eye(4))).amplitudes.copy()
    amps[3, 5] = bad
    with pytest.raises(ContractError):
        MeasurementBasis(amps)


def test_zero_probability_outcome_raises():
    basis = measurement_basis(ChannelSpec(np.eye(4)))
    unknown = UnknownState([1.0, 0.0, 0.0, 0.0])
    ghz = generalized_ghz()
    with pytest.raises(ContractError):
        ref_run_protocol(unknown, basis.kets, ghz, standard_corrections().ops)
    with pytest.raises(ContractError):
        run_protocol(unknown, basis, ghz, standard_corrections())


def test_split_schmidt_coefficients_match_per_ket():
    bases = [measurement_basis(random_case(seed)[1]) for seed in SEEDS]
    bases += [measurement_basis(builtin_channel("epr").spec),
              series_form(builtin_channel("bell-transformed").spec)[0],
              series_form(random_case(0)[1])[0]]
    for basis in bases:
        coefficients = split_schmidt_coefficients(basis)
        verdicts = is_separable_basis(basis)
        assert tuple(coefficients) == tuple(verdicts) == BASIS_SPLITS
        for split, ref in ref_split_schmidt(basis).items():
            assert coefficients[split].shape == (16, 4)
            assert np.abs(coefficients[split] - ref).max() <= TOL
            ref_verdict = all(
                schmidt_rank(ket, split[0]) == 1 for ket in basis.kets
            )
            assert verdicts[split] is ref_verdict
    # both verdicts occur among the bases above
    assert {v for basis in bases for v in is_separable_basis(basis).values()} == {True, False}


# --- the EPR-pair identity ---------------------------------------------------

def test_channels_match_bit_loop_and_apply_unitary():
    assert_states_close(epr_pair_channel(), ref_epr_pair_channel())
    assert_states_close(dressed_channel(ChannelSpec(np.eye(4))), ref_epr_pair_channel())
    for seed in SEEDS:
        _, spec, _ = random_case(seed)
        assert_states_close(dressed_channel(spec), ref_dressed_channel(spec))


def test_generalized_ghz_matches_the_kron_chain_bit_for_bit():
    specs = [GhzSpec()]
    for seed in SEEDS:
        rng = np.random.default_rng([seed, 6])
        t = rng.uniform(0.0, np.pi / 2)
        specs.append(GhzSpec(amplitudes=(np.cos(t), np.sin(t)),
                             local_bases=tuple(haar_random_unitary(1, rng) for _ in range(4))))
    for spec in specs:
        state, ref = generalized_ghz(spec), ref_generalized_ghz(spec)
        assert state.register == ref.register
        assert np.array_equal(state.amplitudes, ref.amplitudes)


def test_series_form_matches_invariance_transform():
    for seed in SEEDS:
        _, spec, unknown = random_case(seed)
        basis, table = series_form(spec)
        ref_basis, ref_ops = ref_series_form(spec)
        for ket, ref in zip(basis.kets, ref_basis.kets):
            assert_states_close(ket, ref)
        for op, ref in zip(table.ops, ref_ops):
            assert np.abs(op - ref).max() <= TOL
        channel = dressed_channel(spec)
        assert_outcomes_match(
            run_protocol(unknown, basis, channel, table),
            ref_run_protocol(unknown, ref_basis.kets, channel, ref_ops),
        )


def test_povm_check_matches_per_member_twirl():
    epr = epr_pair_channel().relabeled({"B1": "U1", "B2": "U2"})
    for seed in SEEDS:
        rng, spec, _ = random_case(seed)
        channel = dressed_channel(spec)
        sigma_pairs = [pauli_pair(a, b) for a, b in OUTCOMES]
        haar = haar_random_unitary(2, rng)
        cases = [
            (sigma_pairs, True),
            ([p @ haar for p in sigma_pairs], True),
            ([haar_random_unitary(2, rng) for _ in range(1 + seed % 16)], False),
        ]
        for state in (epr, channel):
            for unitaries, complete in cases:
                ok, dev = povm_check(unitaries, state)
                ref_ok, ref_dev = ref_povm_check(unitaries, state)
                assert ok == ref_ok == complete
                assert abs(dev - ref_dev) <= TOL


# --- the witness -------------------------------------------------------------

def test_witness_matches_serial_euler_kron():
    for seed in SEEDS:
        rng = np.random.default_rng([seed, 78])
        params = rng.uniform(0.0, 2.0 * np.pi, 9)
        rho = haar_mixed_density(rng)
        phi = witness_state(params)
        assert np.abs(phi - ref_witness_state(params)).max() <= TOL
        assert abs(witness_value(rho, params) - ref_witness_value(rho, params)) <= TOL


def test_stacked_witness_matches_serial_calls():
    bell = builtin_channel("bell-transformed").state
    for seed in SEEDS:
        rng = np.random.default_rng([seed, 79])
        triad = CHANNEL_TRIADS[seed % len(CHANNEL_TRIADS)]
        for rho in (haar_mixed_density(rng), reduced_density(bell, triad)):
            params = rng.uniform(0.0, 2.0 * np.pi, ((1, 2, 9, 64, 300)[seed % 5], 9))
            values = witness_value(rho, params)
            grads = witness_gradient(rho, params)
            assert values.shape == (len(params),) and grads.shape == params.shape
            for p, value, grad in zip(params, values, grads):
                assert abs(value - witness_value(rho, p)) <= TOL
                assert np.abs(grad - witness_gradient(rho, p)).max() <= TOL


def descent_case(seed):
    """State `seed` of the descent comparison: a random rank-(1 + seed % 4) density
    and the four starts the witness search draws for `seed`."""
    rng = np.random.default_rng([seed, 80])
    rank = 1 + seed % 4
    g = rng.standard_normal((8, rank)) + 1j * rng.standard_normal((8, rank))
    # a DensityMatrix is checked once, not on each of the oracle's calls
    rho = DensityMatrix(QubitRegister(("a", "b", "c")), g @ g.conj().T / np.linalg.norm(g) ** 2)
    starts = np.stack([np.random.default_rng([seed, i]).uniform(0.0, 2.0 * np.pi, 9)
                       for i in range(4)])
    return rho, starts


def test_block_ascent_never_ends_above_the_steepest_descent(monkeypatch):
    # random rank-1 to rank-4 states; both searches start from the same angles.
    # The descent's minima at its full iteration cap are frozen in DESCENT_MINIMA
    # (tests/golden/make_descent_minima.py writes them). The eight states whose
    # result settles soonest are re-run live, at the cap by which it had settled,
    # so a drift of either the oracle or the file fails
    doc = json.loads(DESCENT_MINIMA.read_text(encoding="utf-8"))
    assert doc["max_iterations"] == REF_MAX_ITERATIONS
    frozen = doc["states"]
    assert [state["seed"] for state in frozen] == list(range(12))
    live = sorted(frozen, key=lambda state: (state["settled_by"], state["seed"]))[:8]
    assert all(state["settled_by"] < REF_MAX_ITERATIONS for state in live)
    for state in frozen:
        rho, starts = descent_case(state["seed"])
        if state in live:
            with monkeypatch.context() as patch:
                patch.setattr(sys.modules[__name__], "REF_MAX_ITERATIONS", state["settled_by"])
                old, _ = ref_descend_batch(rho, starts)
            assert abs(old.min() - state["minimum"]) <= 1e-12
        ascent = minimize_witness(rho, restarts=4, seed=state["seed"]).min_value
        assert ascent <= state["minimum"] + 1e-12


# --- the stack-last witness and transfer-block kernels against the stack-first formulas

def max_deviation(array, ref):
    assert array.shape == ref.shape
    return np.abs(array - ref).max(initial=0.0)


@pytest.mark.parametrize("n", [0, 1, 2, 9, 64, 1800])
def test_witness_kernels_match_the_stack_first_formulas(n):
    bell = builtin_channel("bell-transformed").state
    rng = np.random.default_rng([n, 81])
    params = rng.uniform(-4.0 * np.pi, 4.0 * np.pi, (n, 9))
    phi = ref_stack_first_states(ref_stack_first_rotations(params))
    assert max_deviation(witness_state(params), phi) <= 1e-14
    for rho in (haar_mixed_density(rng), reduced_density(bell, ("A1", "A2", "B1")).matrix):
        values, grads = ref_stack_first_value_grad(rho, params)
        assert max_deviation(witness_value(rho, params), values) <= 1e-14
        assert max_deviation(witness_gradient(rho, params), grads) <= 1e-14


def test_transfer_blocks_match_the_stack_first_product():
    # the shapes the callers pass: one ket and channel, a basis against one
    # channel, and per-trial blocks against (T, 1) and (T, 16) channel stacks
    for seed in range(5):
        unitaries, _ = haar_draws(2, [seed, 73], 100, 17)
        kets = measurement_kets(unitaries[:, 0])
        channels = epr_amplitudes(unitaries[:, 1:])
        for k, c in [(kets[0, 0], channels[0, 0]), (kets[0], channels[0, 0]),
                     (kets, channels[:, :1]), (kets, channels)]:
            assert max_deviation(transfer_blocks(k, c), ref_transfer_blocks(k, c)) <= 1e-14
            ref_recovery = np.swapaxes(4.0 * ref_transfer_blocks(k, c), -1, -2).conj()
            assert max_deviation(recovery_ops(k, c), ref_recovery) <= 1e-14


@pytest.mark.parametrize("trials", [None, 1, 100])
def test_invariance_pairs_match_the_per_transform_product(trials):
    for seed in range(5):
        unitaries, _ = haar_draws(2, [seed, 74], trials or 1, 3)
        kets = measurement_kets(unitaries[0, 0])
        corrections = recovery_ops(kets, epr_amplitudes(unitaries[0, 0]))
        w_l, w_r = unitaries[:, 1], unitaries[:, 2]
        if trials is None:
            w_l, w_r = w_l[0], w_r[0]
        for array, ref in zip(invariance_pairs(kets, corrections, w_l, w_r),
                              ref_kron_invariance_pairs(kets, corrections, w_l, w_r), strict=True):
            assert max_deviation(array, ref) <= 1e-14


def witness_search_inputs():
    """The `repro` witness section's six densities at seed 7 (four triads, the
    planted GHZ state, I/8) and the twelve rank-1 to rank-4 descent states."""
    bell = builtin_channel("bell-transformed").state
    phi = witness_state(np.random.default_rng([7, 4242]).uniform(0.0, 2.0 * np.pi, 9))
    repro = [reduced_density(bell, triad).matrix for triad in CHANNEL_TRIADS]
    repro += [np.outer(phi, phi.conj()), np.eye(8) / 8.0]
    return np.array(repro + [descent_case(seed)[0].matrix for seed in range(12)])


@pytest.mark.parametrize("restarts, seed", [(64, 7), (5, 3), (1, 0)])
def test_stacked_witness_search_equals_the_looped_search(restarts, seed):
    rhos = witness_search_inputs()
    minima, angles, converged, sweeps = stacked_minimize_witness(rhos, restarts, seed)
    assert minima.shape == converged.shape == sweeps.shape == (len(rhos),)
    for rho, minimum, row, fraction in zip(rhos, minima, angles, converged):
        result = minimize_witness(rho, restarts=restarts, seed=seed)
        assert result.min_value == minimum
        assert result.parameters == tuple(row.tolist())
        assert result.converged_fraction == fraction
        assert witness_value(rho, row) == minimum


def test_gradient_section_matches_per_point_loop():
    for cfg in [report.SuiteConfig()] + [report.SuiteConfig(seed=s) for s in range(20)]:
        (row,) = report.section_gradient(cfg)["checks"]
        (ref,) = ref_section_gradient(cfg)["checks"]
        assert row["name"] == ref["name"] and row["pass"] is ref["pass"] is True
        assert abs(row["value"] - ref["value"]) <= 1e-10


# --- Haar draws -----------------------------------------------------------------

def test_section_draws_match_per_trial_samplers():
    # (stream, trials, unitaries per trial) of section_teleport, section_invariance
    for stream, trials, n_unitaries in [(1, report.TELEPORT_TRIALS, 1),
                                        (2, report.INVARIANCE_TRIALS, 2)]:
        for seed in range(20):
            unitaries, states = haar_draws(2, [seed, stream], trials, n_unitaries)
            rng = np.random.default_rng([seed, stream])
            for t in range(trials):
                for k in range(n_unitaries):
                    assert np.array_equal(unitaries[t, k], ref_haar_random_unitary(2, rng))
                assert np.abs(states[t] - ref_haar_random_state(2, rng)).max() <= 1e-15


def test_public_haar_samplers_match_per_draw_code():
    for seed in range(1000):
        u = haar_random_unitary(2, seed)
        assert np.array_equal(u, ref_haar_random_unitary(2, np.random.default_rng(seed)))
        assert not u.flags.writeable
        assert np.array_equal(
            haar_random_state(2, seed), ref_haar_random_state(2, np.random.default_rng(seed))
        )


# --- rendering ------------------------------------------------------------------

class Label(str):
    pass


ODD_VALUES = {
    "np.float64": np.float64(0.1),
    "np.float32": np.float32(0.1),
    "np.int64": np.int64(-3),
    "np.bool_": [np.bool_(True), np.bool_(False)],
    "np.complex128": np.complex128(1.5 - 0.25j),
    "complex": complex(-0.0, 2.0),
    "tuple": (1.0, "a", None),
    "1-D ndarray": np.array([0.5, -1.0, 3.0]),
    "2-D ndarray": np.arange(6).reshape(2, 3),
    "complex ndarray": np.array([1 + 2j, -0.5j]),
    "none": None,
    "true against 1": [True, 1, False, 0],
    "empty": [[], {}, ()],
    7: "int key",
    "é": "é",
    "quote": '"',
    "backslash": "\\",
    "newline": "\n",
    "extremes": [-0.0, 5e-324, -1.7976931348623157e308, 1e-300],
    "str subclass": Label("label"),
    "np.str_": np.str_("numpy"),
    "ordered": collections.OrderedDict([(Label("k"), 1.0), (2.5, [1])]),
    "pair": collections.namedtuple("Pair", "re im")(1.0, -2.0),
}


def odd_document():
    rows = [
        {"name": str(key), "value": value, "target": value, "tolerance": value,
         "pass": (None, True, False)[i % 3]}
        for i, (key, value) in enumerate(ODD_VALUES.items())
    ]
    return {"report": "odd", **ODD_VALUES,
            "sections": [{"name": "odd", "checks": rows, "pass": False}], "pass": False}


def teleport_documents(tmp_path):
    path = tmp_path / "file-channel.json"
    dressing = haar_random_unitary(2, 3)
    path.write_text(json.dumps(
        {"dressing": [[z.real, z.imag] for z in dressing.reshape(-1)]}
    ))
    return [ref_teleport_document(channel, seed=7) for channel in ("epr", "bell-transformed", str(path))]


def rows_document(*values, **meta):
    """A report document with one check row per (value, target, tolerance)."""
    rows = [{"name": f"row {i}", "value": value, "target": target, "tolerance": tolerance,
             "pass": None} for i, (value, target, tolerance) in enumerate(values)]
    return {"report": "rows", **meta, "sections": [{"name": "s", "checks": rows, "pass": True}]}


# documents where a renderer that remembers its float texts could go wrong
MEMO_DOCUMENTS = {
    "one float across rows": rows_document(
        *[(0.1, 0.1, 0.1)] * 3, ([0.1, [0.1]], 0.1, None), x=0.1, y=[0.1, 0.1]),
    "signed zeros and the least subnormal": rows_document(
        (0.0, -0.0, 5e-324), (-0.0, 0.0, -5e-324), ([0.0, -0.0, 5e-324], [-0.0, 0.0], None),
        zeros=[0.0, -0.0, 5e-324, -0.0, 0.0], negated=[-0.0, 0.0, -5e-324, 0.0, -0.0]),
    "numpy scalars equal to floats": rows_document(
        (0.1, np.float64(0.1), np.float32(0.1)), (np.float64(-0.0), 0.0, np.float64(0.0)),
        x=[np.float64(1 / 3), 1 / 3, np.float32(1 / 3)], y={"a": np.float64(0.1), "b": 0.1}),
    # .10g for a text scalar, .17g inside a list: one value, two texts
    "scalar and list texts": rows_document(
        (1 / 3, [1 / 3], 1 / 3), ([1 / 3, 2 / 3], 2 / 3, [2 / 3]), x=1 / 3, y=[1 / 3]),
    # equal keys and values of other types, and ints beyond a float's digits
    "equal keys, big ints": rows_document(
        ({1: 1.0, "1": 1}, [1, 1.0, True], 2**64 + 1),
        x=[{1: 0}, {1.0: 0}, {True: 0}, {"1": 0}], y=[-(10**20), 10**20 + 1]),
}


def test_renderers_match_isinstance_chain(tmp_path):
    # the seed-7 repro document: live, and as the golden file holds it
    golden_text = GOLDEN_REPORT.read_text(encoding="utf-8")
    golden = json.loads(golden_text)
    docs = [
        report.build_report(report.SuiteConfig()),
        golden,
        *teleport_documents(tmp_path),
        odd_document(),
        *MEMO_DOCUMENTS.values(),
    ]
    for doc in docs:
        assert cli.render_json(doc) == ref_render_json(doc)
        assert cli.render_text(doc) == ref_render_text(doc)
    assert ref_render_json(golden) == golden_text


@pytest.mark.parametrize("bad", [object(), {1, 2}, [1.0, {"deep": b"bytes"}]])
def test_renderer_rejects_what_the_isinstance_chain_rejects(bad):
    with pytest.raises(TypeError) as ref:
        ref_render_json({"x": bad})
    with pytest.raises(TypeError) as err:
        cli.render_json({"x": bad})
    assert str(err.value) == str(ref.value)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf"),
                                 np.float64("nan"), np.float32("-inf")])
def test_renderers_reject_non_finite_floats_as_the_oracle_does(bad):
    row = {"name": "x", "value": bad, "target": None, "tolerance": None, "pass": None}
    docs = [{"x": bad}, {"x": [1.0, [2.0, bad]]},
            {"report": "r", "sections": [{"name": "s", "checks": [row], "pass": True}]},
            # after the same float has been written, and remembered, twice
            {"x": [0.5, 0.5, {"y": 0.5, "z": bad}]},
            rows_document((0.5, 0.5, 0.5), ([0.5, 0.5], 0.5, None), (bad, 0.5, 0.5), x=0.5)]
    for doc in docs:
        for render, ref in ((cli.render_json, ref_render_json), (cli.render_text, ref_render_text)):
            with pytest.raises(ContractError):
                ref(doc)
            with pytest.raises(ContractError, match="non-finite"):
                render(doc)


# a small pool, so that documents repeat their floats; signed zeros drawn most
FLOAT_POOL = [0.0, -0.0, 0.0, -0.0, 5e-324, -5e-324, 0.1, -0.1, 1 / 3, 0.0625, 1e-10, 1.0,
              2.5e300, np.float64(0.1), np.float64(-0.0), np.float32(0.1)]
LEAVES = (st.sampled_from(FLOAT_POOL) | st.none() | st.booleans() | st.integers(-3, 3)
          | st.sampled_from(["a", "é"]))
VALUES = st.recursive(LEAVES, lambda inner: st.lists(inner, max_size=4)
                      | st.dictionaries(st.sampled_from(["k", "v"]), inner, max_size=2),
                      max_leaves=12)
ROWS = st.fixed_dictionaries({"name": st.sampled_from(["r", "s"]), "value": VALUES,
                              "target": VALUES, "tolerance": VALUES,
                              "pass": st.sampled_from([None, True, False])})
DOCUMENTS = st.builds(
    lambda meta, rows, passed: {"report": "drawn", **meta,
                                "sections": [{"name": "s", "checks": rows, "pass": passed}],
                                "pass": passed},
    st.dictionaries(st.sampled_from(["x", "y", "z"]), VALUES, max_size=3),
    st.lists(ROWS, max_size=6), st.booleans())


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(doc=DOCUMENTS)
def test_renderers_match_isinstance_chain_on_drawn_documents(doc):
    assert cli.render_json(doc) == ref_render_json(doc)
    assert cli.render_text(doc) == ref_render_text(doc)


# --- the teleport template against the row-by-row document -------------------

# exact states, with signed zeros; the last is normalized, with a warning
EXACT_STATES = ["1,0,0,0,0,0,0,0", "0,-0.0,0,0,-0.0,1,0,0", "0.6,0,0,-0.8,-0,0,0,0",
                "0.5,-0.5,0.5,0.5,0,-0,0,-0", "1.0000001,0,0,0,0,0,0,0"]
# names that a template could mistake for its own text: conversion specs,
# quotes, escapes, non-ASCII characters and a slot marker
CHANNEL_NAMES = ["100%", "%s %d %%(x)s %.17g", 'say "hi"', "é ü ✓ 中", "back\\slash", "@0@ @203@", "tab\there"]
# added to a probability and scaling a corrected state: verdicts on and about
# the edge |value - target| = 1e-10
SHIFTS = [0.0, 0.0, 0.0, 5e-11, 1e-10, -1e-10, 2e-10, 1e-3]


def shifted(protocol, shifts):
    """`protocol` with `shifts` added to the probabilities and the corrected
    states scaled by 1 + shift, outcome by outcome."""
    def run(unknowns, dressings):
        probs, bob, corrected = protocol(unknowns, dressings)
        return probs + shifts, bob, corrected * (1.0 + shifts)[:, None]
    return run


@st.composite
def teleport_runs(draw):
    """(channel file's name or None for a built-in, argv after the channel, state or None)."""
    name = draw(st.none() | st.sampled_from(CHANNEL_NAMES) | st.text(max_size=6))
    channel = draw(st.sampled_from(["epr", "bell-transformed", "file"]))
    if draw(st.booleans()):
        state = draw(st.sampled_from(EXACT_STATES) | st.integers(0, 2**32).map(
            lambda s: ",".join(map(repr, haar_random_state(2, s).view(float).tolist()))))
        unknown = [f"--state={state}"]
    else:
        unknown = ["--seed", str(draw(st.integers(0, 2**63)))]
    fmt = ["--format", draw(st.sampled_from(["json", "text"]))]
    shifted_run = draw(st.integers(0, 2)) == 2
    shifts = draw(st.lists(st.sampled_from(SHIFTS), min_size=16, max_size=16)) if shifted_run else None
    return channel, draw(st.integers(0, 2**32)), name, unknown + fmt, shifts


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(run=teleport_runs(), to_file=st.booleans())
def test_teleport_template_matches_row_by_row_document(tmp_path_factory, run, to_file):
    channel, seed, name, argv, shifts = run
    directory = tmp_path_factory.mktemp("teleport")
    if channel == "file":
        dressing = haar_random_unitary(2, [seed, 19])
        doc = {"dressing": [[z.real, z.imag] for z in dressing.reshape(-1)]}
        channel = str(directory / "haar-%.json")
        Path(channel).write_text(json.dumps(doc if name is None else {**doc, "name": name}), encoding="utf-8")
    argv = ["teleport", "--channel", channel, *argv]
    target = directory / "report.out"
    if to_file:
        argv += ["--output", str(target)]
    protocol = cli.standard_protocol_batch
    if shifts is not None:
        protocol = shifted(protocol, np.array(shifts))
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(cli, "standard_protocol_batch", protocol), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
        state = next((a.split("=", 1)[1] for a in argv if a.startswith("--state=")), None)
        ref = ref_teleport_document(channel, seed=None if state else int(argv[argv.index("--seed") + 1]),
                                    state=state)
    render = cli.render_text if "text" in argv else cli.render_json
    assert code == (0 if ref["pass"] else 1)
    written = target.read_text(encoding="utf-8") if to_file else out.getvalue()
    assert written == render(ref)
    assert out.getvalue() == ("" if to_file else written)


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("faults", [
    {"bob": [(5, 2, np.nan)]},
    {"bob": [(0, 0, np.inf)], "probs": [(3, -np.inf)]},
    {"probs": [(15, np.nan)], "bob": [(2, 3, -np.inf)]},
], ids=["receiver nan", "receiver inf before probability -inf", "receiver -inf before probability nan"])
def test_teleport_template_rejects_non_finite_rows_as_the_renderer_does(fmt, faults):
    def faulty(unknowns, dressings):
        probs, bob, corrected = (a.copy() for a in report.standard_protocol_batch(unknowns, dressings))
        for outcome, value in faults.get("probs", ()):
            probs[0, outcome] = value
        for outcome, amplitude, value in faults.get("bob", ()):
            bob[0, outcome, amplitude] = value
        return probs, bob, corrected

    argv = ["teleport", "--channel", "bell-transformed", "--seed", "7", "--format", fmt]
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(cli, "standard_protocol_batch", faulty), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
        ref = ref_teleport_document("bell-transformed", seed=7)
    with pytest.raises(ContractError) as expected:
        (cli.render_text if fmt == "text" else cli.render_json)(ref)
    assert (code, out.getvalue(), err.getvalue()) == (2, "", f"error: {expected.value}\n")


# --- the protocol kernels against the per-(trial, outcome) products --------------

def assert_arrays_close(arrays, refs):
    for array, ref in zip(arrays, refs, strict=True):
        assert array.shape == ref.shape
        assert np.abs(array - ref).max() <= TOL


@pytest.mark.parametrize("trials", [1, 3, 100])
def test_protocol_kernels_match_transfer_block_oracle(trials):
    for seed in range(5):
        unitaries, unknowns = haar_draws(2, [seed, trials, 71], trials, 17)
        dressings, per_trial = unitaries[:, 0], unitaries[:, 1:]
        kets, channels = measurement_kets(dressings), epr_amplitudes(dressings)
        sigma = standard_corrections().ops
        for corrections in (sigma, per_trial, recovery_ops(kets, channels[:, None])):
            assert_arrays_close(
                run_protocol_batch(unknowns, kets, channels, corrections),
                ref_run_protocol_batch(unknowns, kets, channels, corrections),
            )
        assert_arrays_close(
            standard_protocol_batch(unknowns, dressings),
            ref_run_protocol_batch(unknowns, kets, channels, sigma),
        )


@pytest.mark.parametrize("stack", [None, 1, 7, 100])
def test_invariance_pairs_match_four_product_oracle(stack):
    for seed in range(5):
        unitaries, _ = haar_draws(2, [seed, 72], 1 if stack is None else stack, 3)
        kets = measurement_kets(unitaries[0, 0])
        corrections = recovery_ops(kets, epr_amplitudes(unitaries[0, 0]))
        w_l, w_r = unitaries[:, 1], unitaries[:, 2]
        if stack is None:
            w_l, w_r = w_l[0], w_r[0]
        assert_arrays_close(
            invariance_pairs(kets, corrections, w_l, w_r),
            ref_invariance_pairs(kets, corrections, w_l, w_r),
        )


def materialized_standard_protocol(unknowns, dressings):
    """The standard protocol as it ran before the factored kernel: per-trial
    dressed kets (T, 16, 4, 4), then complex einsums for the probabilities
    and the sigma-pair corrections."""
    kets, channels = measurement_kets(dressings), epr_amplitudes(dressings)
    sender = (kets.reshape(-1, 64, 4) @ unknowns.conj()[:, :, None]).conj()
    raw = sender.reshape(-1, 16, 4) @ channels
    probabilities = np.real(np.einsum("tgr,tgr->tg", raw.conj(), raw))
    bob = raw / np.sqrt(probabilities)[..., None]
    corrected = np.einsum("gij,tgj->tgi", standard_corrections().ops, bob)
    return probabilities, bob, corrected


def local_pairs(ones, twos):
    """u1 (x) u2 for stacks of one-qubit unitaries (T, 2, 2)."""
    return (ones[:, :, None, :, None] * twos[:, None, :, None, :]).reshape(-1, 4, 4)


def kak_dressings(coordinates, seed, trials):
    """D = (u1 (x) u2) exp(i (c1 XX + c2 YY + c3 ZZ)) (v1 (x) v2), Haar locals."""
    h = sum(c * np.kron(p, p) for c, p in zip(coordinates, PAULIS[1:]))
    w, v = np.linalg.eigh(h)
    core = (v * np.exp(1j * w)) @ v.conj().T
    u, _ = haar_draws(1, [seed, 73], trials, 4)
    return local_pairs(u[:, 0], u[:, 1]) @ core @ local_pairs(u[:, 2], u[:, 3])


#: per class, a stack builder (seed, trials) and the operator-Schmidt rank of its members
DRESSING_CLASSES = {
    "identity": (lambda seed, trials: np.broadcast_to(np.eye(4, dtype=complex), (trials, 4, 4)), 1),
    "bell-transformed": (lambda seed, trials: np.broadcast_to(bell_transform_matrix(), (trials, 4, 4)), 2),
    "cnot-class": (lambda seed, trials: kak_dressings((np.pi / 4, 0.0, 0.0), seed, trials), 2),
    # exp(i pi/4 (XX + YY + ZZ)) is SWAP up to a phase
    "swap-corner": (lambda seed, trials: kak_dressings((np.pi / 4,) * 3, seed, trials), 4),
    "haar": (lambda seed, trials: haar_draws(2, [seed, 74], trials, 1)[0][:, 0], 4),
}


@pytest.mark.parametrize("trials", [1, 2, 1002])
@pytest.mark.parametrize("dressing_class", DRESSING_CLASSES)
def test_factored_kernel_matches_materialized_kets(dressing_class, trials):
    """No per-trial ket array against the (T, 16, 4, 4) one, within 1e-15."""
    build, rank = DRESSING_CLASSES[dressing_class]
    for seed in range(3):
        dressings = build(seed, trials)
        assert (operator_schmidt_rank(dressings) == rank).all()
        _, unknowns = haar_draws(2, [seed, trials, 75], trials, 0)
        factored = standard_protocol_batch(unknowns, dressings)
        for array, ref in zip(factored, materialized_standard_protocol(unknowns, dressings), strict=True):
            assert array.shape == ref.shape == ((trials, 16) if ref.ndim == 2 else (trials, 16, 4))
            assert np.abs(array - ref).max() <= 1e-15


@pytest.mark.parametrize("shared", [True, False])
@pytest.mark.parametrize("dtype", [np.complex64, np.float32])
def test_protocol_kernel_keeps_single_precision_inputs_in_their_dtype(dtype, shared):
    """All-complex64 or all-float32 inputs: the probabilities are read in the
    inputs' own precision, within 1e-5 of the same inputs in double precision."""
    rng = np.random.default_rng(76)

    def draw(*shape):
        if dtype is np.float32:
            return rng.standard_normal(shape)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    trials = 5
    unknowns = draw(trials, 4)
    unknowns /= np.linalg.norm(unknowns, axis=1, keepdims=True)
    kets = draw(16, 4, 4) if shared else draw(trials, 16, 4, 4)
    inputs = (unknowns, kets, draw(trials, 4, 4), draw(16, 4, 4))
    single = run_protocol_batch(*(a.astype(dtype) for a in inputs))
    double = run_protocol_batch(*inputs)
    for array, ref in zip(single, double, strict=True):
        assert array.shape == ref.shape and array.dtype.itemsize * 2 == ref.dtype.itemsize
        assert np.abs(array - ref).max() <= 1e-5 * np.abs(ref).max()


def teleport_rows(doc):
    rows = doc["sections"][0]["checks"]
    return [(row["name"], row["value"]) for row in rows]


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_teleport_document_matches_object_api(capsys, tmp_path, fmt):
    path = tmp_path / "file-channel.json"
    path.write_text(json.dumps(
        {"dressing": [[z.real, z.imag] for z in haar_random_unitary(2, 5).reshape(-1)]}
    ))
    for channel in ("epr", "bell-transformed", str(path)):
        spec = resolve_channel(channel).spec
        for seed in range(10):
            argv = ["teleport", "--channel", channel, "--seed", str(seed)]
            assert cli.main(argv) == 0
            doc = json.loads(capsys.readouterr().out)
            if fmt == "text":
                # the text report renders the same document
                assert cli.main(argv + ["--format", "text"]) == 0
                assert capsys.readouterr().out == cli.render_text(doc)
            unknown = UnknownState.random(seed)
            expected = []
            for out in teleport_all_outcomes(unknown, spec):
                tag = f"outcome ({out.outcome[0]},{out.outcome[1]})"
                expected += [
                    (f"{tag} probability", out.probability),
                    (f"{tag} corrected fidelity",
                     fidelity_pure(out.corrected_state, unknown.as_state())),
                    (f"{tag} receiver state",
                     [[z.real, z.imag] for z in out.bob_state.amplitudes]),
                ]
            rows = teleport_rows(doc)
            assert [name for name, _ in rows] == [name for name, _ in expected]
            for (_, value), (_, ref) in zip(rows, expected):
                assert np.abs(np.subtract(value, ref)).max() <= 1e-15


# --- the stacked analysis layer -------------------------------------------------

def analysis_states():
    """(name, four-qubit state, triads whose leading eigenspace is two-dimensional)."""
    cases = [(f"haar-{seed}", dressed_channel(random_case(seed)[1]), CHANNEL_TRIADS) for seed in SEEDS]
    cases += [(name, builtin_channel(name).state, CHANNEL_TRIADS) for name in BUILTIN_CHANNELS]
    cases += [("w", symmetric_w_state(), CHANNEL_TRIADS),
              ("permuted", dressed_channel(random_case(0)[1]).permuted(PERMUTED_ORDER), CHANNEL_TRIADS)]
    # (|0000> + |0111>)/sqrt2: a reference component of weight 0 in three
    # triads (their tangle is 0 by rule); its (A2,B1,B2) marginal is pure
    amps = np.zeros(16)
    amps[[0b0000, 0b0111]] = 1.0 / np.sqrt(2.0)
    cases.append(("zero-weight", StateVector(QubitRegister(CHANNEL_LABELS), amps), CHANNEL_TRIADS[:3]))
    return cases


def test_reduced_densities_match_tensordot():
    for _, state, _ in analysis_states():
        labels = state.register.labels
        for k in range(1, 5):
            keeps = list(itertools.permutations(labels, k))
            stack = reduced_densities(state, keeps)
            assert stack.shape == (len(keeps), 2**k, 2**k) and not stack.flags.writeable
            for keep, rho in zip(keeps, stack):
                assert np.abs(rho - ref_reduced_density(state, keep).matrix).max() <= TOL
            single = reduced_density(state, keeps[-1])
            assert single.register.labels == keeps[-1]
            assert np.array_equal(single.matrix, stack[-1])


def test_stacked_pair_analysis_matches_per_pair():
    verdicts_seen = set()
    for _, state, _ in analysis_states():
        pairs = list(itertools.permutations(state.register.labels, 2))
        reduced, spectra, verdicts = stacked_pair_analysis(state, pairs)
        for pair, rho, spectrum, entangled in zip(pairs, reduced, spectra, verdicts):
            ref_rho, ref_spectrum, ref_entangled = ref_pair_analysis(state, pair)
            assert np.abs(rho - ref_rho).max() <= TOL
            assert np.abs(spectrum - ref_spectrum).max() <= TOL
            assert bool(entangled) is ref_entangled
            rep = pair_analysis(state, pair)
            assert rep.pair == pair and np.array_equal(rep.reduced.matrix, rho)
            assert rep.min_pt_eigenvalue == spectrum[0] and rep.entangled is ref_entangled
            verdicts_seen.add(ref_entangled)
    assert verdicts_seen == {True, False}


def test_stacked_triad_analysis_matches_per_triad():
    zero_tangles = 0
    for _, state, triads in analysis_states():
        for triad, rho, spectrum, fidelities, tangles in zip(triads, *stacked_triad_analysis(state, triads)):
            ref_rho, ref_spectrum, ref_fidelities, ref_tangles = ref_triad_analysis(state, triad)
            assert np.abs(rho - ref_rho).max() <= TOL
            assert np.abs(spectrum - ref_spectrum).max() <= TOL
            assert np.abs(fidelities - ref_fidelities).max() <= TOL
            assert np.abs(tangles - ref_tangles).max() <= TOL
            assert list(fidelities < 1e-12) == [f < 1e-12 for f in ref_fidelities]
            zero_tangles += sum(f < 1e-12 for f in ref_fidelities)
            rep = triad_analysis(state, triad)
            assert rep.triad == triad and np.array_equal(rep.reduced.matrix, rho)
            assert rep.ghz_component_fidelities == tuple(fidelities.tolist())
            assert rep.three_tangles == tuple(tangles.tolist())
    assert zero_tangles > 0


def test_stacked_three_tangle_matches_expanded_hyperdeterminant():
    states = [haar_random_state(3, np.random.default_rng([seed, 81])) for seed in SEEDS]
    ghz, w = np.zeros(8, dtype=complex), np.zeros(8, dtype=complex)
    ghz[[0, 7]] = 1.0 / np.sqrt(2.0)
    w[[1, 2, 4]] = 1.0 / np.sqrt(3.0)
    states += [ghz, w, np.eye(8)[5]]
    stack = three_tangle(np.array(states))
    assert stack.shape == (len(states),)
    for state, tau in zip(states, stack):
        assert abs(tau - ref_three_tangle(state)) <= TOL
        assert three_tangle(state) == tau


def test_stacked_operator_schmidt_matches_per_operator_svd():
    ops = [series_form(random_case(seed)[1])[1].ops for seed in SEEDS]
    ops += [series_form(builtin_channel(name).spec)[1].ops for name in ("epr", "bell-transformed")]
    ops.append(np.stack([np.eye(4), np.eye(4)[[0, 1, 3, 2]], np.eye(4)[[0, 2, 1, 3]],
                         bell_transform_matrix()]))
    ranks_seen = set()
    for table in ops:
        coefficients = operator_schmidt_coefficients(table)
        ranks = operator_schmidt_rank(table)
        ref_coefficients, ref_ranks = ref_operator_schmidt(table)
        assert np.abs(coefficients - ref_coefficients).max() <= TOL
        assert ranks.tolist() == ref_ranks
        assert [operator_schmidt_rank(op) for op in table] == ref_ranks
        ranks_seen.update(ref_ranks)
    assert ranks_seen == {1, 2, 4}


@pytest.mark.parametrize("name", ["pairs", "wstate", "triads", "series"])
def test_analysis_sections_match_serial_bodies(name):
    ref = {"pairs": ref_section_pairs, "wstate": ref_section_wstate,
           "triads": ref_section_triads, "series": ref_section_series}[name]
    for cfg in [report.SuiteConfig()] + [report.SuiteConfig(seed=s) for s in range(20)]:
        sec, ref_sec = report.SECTION_BUILDERS[name](cfg), ref(cfg)
        assert sec["name"] == ref_sec["name"] and sec["pass"] is ref_sec["pass"] is True
        assert len(sec["checks"]) == len(ref_sec["checks"])
        for row, ref_row in zip(sec["checks"], ref_sec["checks"]):
            for key in ("name", "target", "tolerance", "pass"):
                assert row[key] == ref_row[key]
            if isinstance(row["value"], bool):
                assert row["value"] is ref_row["value"]
            else:
                assert abs(row["value"] - ref_row["value"]) <= TOL
