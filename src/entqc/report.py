"""Built-in verification suite.

Every quantitative claim the package makes is re-checked here at its pinned
tolerance and collected into a plain-dict report that the CLI serializes.
Sections are deterministic functions of (seed, restarts, tol) only.
"""
from __future__ import annotations

import numpy as np

from .channel import (
    bell_transform_matrix,
    builtin_channel,
    epr_amplitudes,
    epr_pair_channel,
    is_valid_channel,
)
from .entanglement import (
    CHANNEL_PAIRS,
    CHANNEL_TRIADS,
    pair_analysis,  # noqa: F401  (perfbench's traced cli_mix rebinds it here)
    stacked_minimize_witness,
    stacked_pair_analysis,
    stacked_triad_analysis,
    symmetric_w_state,
    triad_analysis,  # noqa: F401  (perfbench's traced cli_mix rebinds it here)
    triad_component_states,
    witness_gradient,
    witness_state,
    witness_value,
)
from .primitives import haar_draws, operator_schmidt_rank, schmidt_rank
from .relations import (BASIS_SPLITS, invariance_pairs, is_separable_basis, measurement_basis, measurement_kets,
                        povm_check, recovery_ops, series_form, split_schmidt_coefficients, standard_corrections,
                        transfer_blocks)
from .rows import DEFAULT_RESTARTS, DEFAULT_SEED, DEFAULT_WITNESS_TOL, check, document, section, tag
from .teleport import run_protocol_batch, standard_protocol_batch
from .tensor import (
    ContractError,
    DensityMatrix,
    QubitRegister,
    _Value,
    haar_random_state,
    hermitian_eigenvalues,  # noqa: F401  (perfbench's traced cli_mix rebinds it here)
    reduced_densities,
    reduced_density,
)

TELEPORT_TRIALS = 1000
INVARIANCE_TRIALS = 100
GRADIENT_POINTS = 100

# Expected pair marginals of the Bell-transformed reference channel. The
# (A1,B1) block differs from the (A2,B2) one by the sign of its cross terms;
# both share the PT spectrum (0, 0, 1/2, 1/2).
PAIR_A1B1 = 0.25 * np.array(
    [[1, 0, 0, 1], [0, 1, -1, 0], [0, -1, 1, 0], [1, 0, 0, 1]], dtype=complex
)
PAIR_A2B2 = 0.25 * np.array(
    [[1, 0, 0, 1], [0, 1, 1, 0], [0, 1, 1, 0], [1, 0, 0, 1]], dtype=complex
)

# Nonzero amplitudes of the Bell-transformed channel on (A1,A2,B1,B2).
BELL_CHANNEL_SIGNS = {
    0b0000: 1, 0b0011: -1, 0b0101: 1, 0b0110: -1,
    0b1001: 1, 0b1010: 1, 0b1100: 1, 0b1111: 1,
}


class SuiteConfig(_Value):
    def __init__(self, seed: int = DEFAULT_SEED, restarts: int = DEFAULT_RESTARTS,
                 tol: float = DEFAULT_WITNESS_TOL):
        self.__dict__.update(seed=seed, restarts=restarts, tol=tol)


def section_channel(cfg: SuiteConfig):
    checks = []
    dressing = bell_transform_matrix()
    unit_dev = float(np.abs(dressing.conj().T @ dressing - np.eye(4)).max())
    checks.append(check("dressing unitarity deviation", unit_dev, 0.0, 1e-15))

    states = {name: builtin_channel(name).state for name in ("epr", "bell-transformed")}
    state = states["bell-transformed"]
    amp = 1.0 / (2.0 * np.sqrt(2.0))
    zero_dev = 0.0
    for idx in range(16):
        if idx in BELL_CHANNEL_SIGNS:
            target = BELL_CHANNEL_SIGNS[idx] * amp
            checks.append(
                check(
                    f"amplitude[{idx:04b}]",
                    float(np.real(state.amplitudes[idx])),
                    target,
                    1e-15,
                )
            )
        else:
            zero_dev = max(zero_dev, float(abs(state.amplitudes[idx])))
    checks.append(check("max amplitude off the eight-term support", zero_dev, 0.0, 1e-15))

    identity_dev = float(np.abs(states["epr"].amplitudes - epr_pair_channel().amplitudes).max())
    checks.append(check("identity dressing reproduces bare channel", identity_dev, 0.0, 1e-12))

    for name, channel_state in states.items():
        ok, dev = is_valid_channel(channel_state)
        checks.append(check(f"{name} marginal deviation from I/4", dev, 0.0, 1e-10))
        checks.append(check(f"{name} is a valid channel", ok, True))

    checks.append(
        check(
            "epr Schmidt rank across (A1,B1)|(A2,B2)",
            schmidt_rank(epr_pair_channel(), ("A1", "B1")),
            1,
        )
    )
    checks.append(
        check(
            "bell-transformed cross-pair Schmidt rank exceeds 1",
            schmidt_rank(state, ("A1", "B1")) > 1,
            True,
        )
    )
    return section("channel", checks)


def section_measurement(cfg: SuiteConfig):
    checks = []
    resolved = {name: builtin_channel(name) for name in ("epr", "bell-transformed")}
    bases = {name: measurement_basis(r.spec) for name, r in resolved.items()}
    for name, basis in bases.items():
        kets = basis.amplitudes
        gram_dev = float(np.abs(kets @ kets.conj().T - np.eye(16)).max())
        complete_dev = float(np.abs(kets.T @ kets.conj() - np.eye(16)).max())
        checks.append(check(f"{name} basis Gram deviation from identity", gram_dev, 0.0, 1e-12))
        checks.append(check(f"{name} projector-sum deviation from identity", complete_dev, 0.0, 1e-12))

    epr_splits = is_separable_basis(bases["epr"])
    bell_splits = is_separable_basis(bases["bell-transformed"])
    checks.append(
        check("epr basis factors across (A1,U1)(A2,U2)",
              epr_splits[(("A1", "U1"), ("A2", "U2"))], True)
    )
    for split, ok in bell_splits.items():
        label = "".join(str(s) for s in split)
        checks.append(check(f"bell-transformed basis factors across {label}", ok, False))

    sigma_pairs = standard_corrections().ops
    epr_au = resolved["epr"].state.relabeled({"B1": "U1", "B2": "U2"})
    ok, dev = povm_check(sigma_pairs, epr_au)
    checks.append(check("sigma-pair twirl deviation from I/16", dev, 0.0, 1e-10))
    checks.append(check("sigma-pair set is a complete POVM", ok, True))
    single_ok, _ = povm_check([np.eye(4)], epr_au)
    checks.append(check("a single projector is not a complete POVM", single_ok, False))
    return section("measurement", checks)


def _infidelities(corrected, unknowns) -> np.ndarray:
    """Per trial, the max |1 - |<corrected|input>|^2| over the outcomes, from
    <input|corrected> (the same modulus): one (16, 4) . (4, 1) product per trial."""
    overlaps = (corrected @ unknowns.conj()[:, :, None])[..., 0]
    return np.abs(1.0 - np.abs(overlaps) ** 2).max(axis=1)


def section_teleport(cfg: SuiteConfig):
    # TELEPORT_TRIALS seeded Haar dressings and inputs, then |00> through epr
    # and a maximally entangled input through bell-transformed, in one run
    dressings, unknowns = haar_draws(2, [cfg.seed, 1], TELEPORT_TRIALS, 1)
    dressings = np.concatenate([dressings[:, 0], [np.eye(4), bell_transform_matrix()]])
    unknowns = np.concatenate([unknowns, [[1, 0, 0, 0], np.array([1, 0, 0, 1]) / np.sqrt(2)]])
    probs, bob, corrected = standard_protocol_batch(unknowns, dressings)
    infid = _infidelities(corrected, unknowns)
    n = TELEPORT_TRIALS
    probs, bob = probs[:n], bob[:n]
    # sum over outcomes of p |bob><bob|: one (4, 16) . (16, 4) product per trial
    marginal = np.swapaxes(probs[..., None] * bob, 1, 2) @ bob.conj()
    checks = [
        check(f"max |probability - 1/16| over {n} random runs",
              np.abs(probs - 1.0 / 16.0).max(), 0.0, 1e-10),
        check(f"max corrected infidelity over {n} random runs", infid[:n].max(), 0.0, 1e-10),
        check("max |sum of probabilities - 1|", np.abs(probs.sum(axis=1) - 1.0).max(), 0.0, 1e-10),
        check("max no-signaling marginal deviation from I/4",
              np.abs(marginal - np.eye(4) / 4.0).max(), 0.0, 1e-10),
        check("teleporting |00> through epr: max infidelity", infid[n], 0.0, 1e-10),
        check("teleporting a maximally entangled input through bell-transformed: "
              "max infidelity", infid[n + 1], 0.0, 1e-10),
    ]
    return section("teleport", checks)


def section_ghz(cfg: SuiteConfig):
    checks = []
    state = builtin_channel("ghz").state
    ok, dev = is_valid_channel(state)
    checks.append(check("canonical GHZ accepted as channel", ok, False))
    checks.append(check("GHZ marginal deviation from I/4", dev, 0.25, 1e-12))
    eigs = np.linalg.eigvalsh(reduced_densities(state, [("A1", "A2")])[0])
    nonzero = eigs[np.abs(eigs) > 1e-10]
    checks.append(check("nonzero eigenvalues of the sender marginal", nonzero.size, 2))
    branch_dev = float(np.abs(np.sort(nonzero) - np.array([0.5, 0.5])).max())
    checks.append(check("nonzero eigenvalues match branch weights", branch_dev, 0.0, 1e-10))
    return section("ghz", checks)


def section_pairs(cfg: SuiteConfig):
    checks = []
    state = builtin_channel("bell-transformed").state
    labels = state.register.labels
    singles = reduced_densities(state, [(label,) for label in labels])
    for label, dev in zip(labels, np.abs(singles - np.eye(2) / 2.0).max(axis=(1, 2)).tolist()):
        checks.append(check(f"single-qubit marginal {label} deviation from I/2", dev, 0.0, 1e-12))

    quarter = np.eye(4) / 4.0
    expected = {("A1", "B1"): PAIR_A1B1, ("A2", "B2"): PAIR_A2B2}
    pt_target = np.array([0.0, 0.0, 0.5, 0.5])
    analysis = stacked_pair_analysis(state, CHANNEL_PAIRS)
    for pair, reduced, spectrum, entangled in zip(CHANNEL_PAIRS, *analysis):
        name = f"pair {tag(pair)}"
        if pair in expected:
            dev = float(np.abs(reduced - expected[pair]).max())
            checks.append(check(f"{name} matches its reference marginal", dev, 0.0, 1e-12))
            pt_dev = float(np.abs(spectrum - pt_target).max())
            checks.append(check(f"{name} PT spectrum deviation from (0,0,1/2,1/2)", pt_dev, 0.0, 1e-10))
        else:
            dev = float(np.abs(reduced - quarter).max())
            checks.append(check(f"{name} deviation from I/4", dev, 0.0, 1e-12))
        checks.append(check(f"{name} entangled", entangled, False))
    return section("pairs", checks)


def section_wstate(cfg: SuiteConfig):
    checks = []
    target = (1.0 - np.sqrt(2.0)) / 4.0
    _, spectra, verdicts = stacked_pair_analysis(symmetric_w_state(), CHANNEL_PAIRS)
    for pair, min_eig, entangled in zip(CHANNEL_PAIRS, spectra[:, 0].tolist(), verdicts):
        name = f"W-state pair {tag(pair)}"
        checks.append(check(f"{name} min PT eigenvalue", min_eig, target, 1e-10))
        checks.append(check(f"{name} entangled", entangled, True))
    return section("wstate", checks)


def section_triads(cfg: SuiteConfig):
    checks = []
    state = builtin_channel("bell-transformed").state
    eig_target = np.array([0.0] * 6 + [0.5, 0.5])
    analysis = stacked_triad_analysis(state, CHANNEL_TRIADS)
    for triad, reduced, spectrum, fidelities, tangles in zip(CHANNEL_TRIADS, *analysis):
        name = f"triad {tag(triad)}"
        for i, fid in enumerate(fidelities.tolist()):
            checks.append(check(f"{name} component {i} fidelity", fid, 1.0, 1e-10))
        for i, tau in enumerate(tangles.tolist()):
            checks.append(check(f"{name} component {i} three-tangle", tau, 1.0, 1e-8))
        comp0, comp1 = triad_component_states(triad)
        recon = 0.5 * np.outer(comp0, comp0.conj()) + 0.5 * np.outer(comp1, comp1.conj())
        recon_dev = float(np.abs(reduced - recon).max())
        checks.append(check(f"{name} reconstruction deviation", recon_dev, 0.0, 1e-10))
        eig_dev = float(np.abs(spectrum - eig_target).max())
        checks.append(check(f"{name} eigenvalue deviation from (1/2,1/2,0,...)", eig_dev, 0.0, 1e-10))
    return section("triads", checks)


def section_witness(cfg: SuiteConfig):
    # the four triad marginals, a planted rotated GHZ state and I/8 in one search
    state = builtin_channel("bell-transformed").state
    plant_rng = np.random.default_rng([cfg.seed, 4242])
    phi = witness_state(plant_rng.uniform(0.0, 2.0 * np.pi, 9))
    # the marginals of the checked state are used as they are, the two built matrices are checked
    register = QubitRegister(("q1", "q2", "q3"))
    rhos = [reduced_density(state, triad) for triad in CHANNEL_TRIADS] + [
        DensityMatrix(register, np.outer(phi, phi.conj())), DensityMatrix(register, np.eye(8) / 8.0)]
    minima, _, converged, _ = stacked_minimize_witness(rhos, restarts=cfg.restarts, seed=cfg.seed)
    checks = [check(f"triad {tag(triad)} witness minimum", value, 0.25, cfg.tol)
              for triad, value in zip(CHANNEL_TRIADS, minima[:4].tolist())]
    checks.append(check("planted rotated-GHZ witness minimum", minima[4], -0.25, 1e-4))
    checks.append(check("maximally mixed witness minimum", minima[5], 0.625, 1e-6))
    checks.append(check("maximally mixed landscape converged fraction", converged[5], 1.0, 1e-12))
    return section("witness", checks)


def section_invariance(cfg: SuiteConfig):
    # each transformed protocol runs on its physical channel, the (1,1) one,
    # with the corrections that channel implies
    kets = measurement_kets(bell_transform_matrix())
    sigma = standard_corrections().ops
    pairs, unknowns = haar_draws(2, [cfg.seed, 2], INVARIANCE_TRIALS, 2)
    base_blocks = transfer_blocks(*invariance_pairs(kets, sigma, np.eye(4), np.eye(4)))
    t_kets, t_channels = invariance_pairs(kets, sigma, pairs[:, 0], pairs[:, 1])
    physical = t_channels[:, 0]
    _, _, corrected = run_protocol_batch(
        unknowns, t_kets, physical, recovery_ops(t_kets, physical[:, None])
    )
    n = INVARIANCE_TRIALS
    checks = [
        check(f"max transfer-block change over {n} random transforms",
              np.abs(transfer_blocks(t_kets, t_channels) - base_blocks).max(), 0.0, 1e-12),
        check(f"max corrected infidelity over {n} transformed runs",
              _infidelities(corrected, unknowns).max(), 0.0, 1e-10),
    ]
    return section("invariance", checks)


def section_series(cfg: SuiteConfig):
    names = ("bell-transformed", "epr")
    specs = [builtin_channel(name).spec for name in names]
    forms = [series_form(spec) for spec in specs]
    tables = np.stack([table.ops for _, table in forms])
    # both series bases are the bare sigma-pair basis: one split SVD and one ket stack serve both
    excess = float(split_schmidt_coefficients(forms[0][0])[BASIS_SPLITS[0]][:, 1:].max())
    ranks = operator_schmidt_rank(tables.reshape(32, 4, 4)).reshape(2, 16)
    unknowns = haar_random_state(2, np.random.default_rng([cfg.seed, 5]))[None].repeat(2, axis=0)
    kets = forms[0][0].amplitudes.reshape(16, 4, 4)
    channels = epr_amplitudes(np.stack([spec.dressing for spec in specs]))
    _, _, corrected = run_protocol_batch(unknowns, kets, channels, tables)
    infid = _infidelities(corrected, unknowns)
    checks = []
    for name, table, rank, infidelity in zip(names, tables, ranks, infid):
        checks.append(check(f"{name} series basis max excess Schmidt coefficient", excess, 0.0, 1e-10))
        if name == "bell-transformed":
            checks.append(check("bell-transformed series has a nonlocal correction", rank.max() > 1, True))
        else:
            checks.append(check("epr series corrections all local", rank.max() == 1, True))
            pauli_dev = float(np.abs(table - standard_corrections().ops).max())
            checks.append(check("epr series corrections equal sigma-pairs", pauli_dev, 0.0, 1e-12))
        checks.append(check(f"{name} series protocol max infidelity", infidelity, 0.0, 1e-10))
    return section("series", checks)


def section_gradient(cfg: SuiteConfig):
    state = builtin_channel("bell-transformed").state
    rho = reduced_density(state, ("A1", "A2", "B1"))
    rng = np.random.default_rng([cfg.seed, 3])
    step = 1e-5
    params = rng.uniform(0.0, 2.0 * np.pi, (GRADIENT_POINTS, 9))
    analytic = witness_gradient(rho, params)
    # point p shifted by +-step along angle j, in one stacked value call
    shifts = step * np.eye(9)
    shifted = np.stack([params[:, None] + shifts, params[:, None] - shifts])
    up, down = witness_value(rho, shifted.reshape(-1, 9)).reshape(2, GRADIENT_POINTS, 9)
    numeric = (up - down) / (2 * step)
    checks = [
        check(
            f"max |analytic - central-difference| over {GRADIENT_POINTS} points",
            float(np.abs(analytic - numeric).max()), 0.0, 1e-6,
        )
    ]
    return section("gradient", checks)


SECTION_BUILDERS = {
    "channel": section_channel,
    "measurement": section_measurement,
    "teleport": section_teleport,
    "ghz": section_ghz,
    "pairs": section_pairs,
    "wstate": section_wstate,
    "triads": section_triads,
    "witness": section_witness,
    "invariance": section_invariance,
    "series": section_series,
    "gradient": section_gradient,
}


def build_report(cfg: SuiteConfig, only=None) -> dict:
    """Run the verification sections (all, or the `only` subset, in order)."""
    if only:
        unknown = [name for name in only if name not in SECTION_BUILDERS]
        if unknown:
            raise ContractError(
                f"unknown section(s) {unknown}; available: {list(SECTION_BUILDERS)}"
            )
        selected = [name for name in SECTION_BUILDERS if name in set(only)]
    else:
        selected = list(SECTION_BUILDERS)
    sections = [SECTION_BUILDERS[name](cfg) for name in selected]
    return document("verification", sections, seed=cfg.seed, restarts=cfg.restarts, tol=cfg.tol)
