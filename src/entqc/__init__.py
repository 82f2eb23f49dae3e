"""Teleportation of unknown two-qubit states through four-qubit entangled
channels: exact state-vector simulation, channel validation, entanglement
analysis (PPT pairs, GHZ-structured triads, witness minimization), and a
deterministic verification report.

The analysis stack (`entanglement`, `report`, the paper's `relations` and the
analysis-only `primitives`, and their public names here) is imported on first
read (PEP 562): `entqc teleport` compiles none of it.
"""
from importlib import import_module as _import_module

from .channel import (
    BUILTIN_CHANNELS,
    CHANNEL_LABELS,
    ChannelSpec,
    GhzSpec,
    ResolvedChannel,
    bell_transform_matrix,
    builtin_channel,
    dressed_channel,
    epr_pair_channel,
    generalized_ghz,
    is_valid_channel,
    load_channel_json,
    resolve_channel,
)
from .tensor import (ContractError, DensityMatrix, LabelError, QubitRegister, StateVector, haar_random_state,
                     hermitian_eigenvalues, kron, reduced_density, tensor)
from .teleport import (CorrectionTable, MeasurementBasis, TeleportOutcome, UnknownState, measurement_basis, pauli_pair,
                       run_protocol, standard_corrections, teleport_all_outcomes)

#: the public names imported on first read, by module; those of `__all__` not bound here and
#: not listed are `entanglement`'s. `tensor` and `teleport` read the names that left them from here.
_LAZY = {
    **dict.fromkeys(("apply_unitary", "fidelity_pure", "haar_random_unitary", "operator_schmidt_coefficients",
                     "operator_schmidt_rank", "partial_inner", "partial_trace", "partial_transpose",
                     "schmidt_coefficients", "schmidt_rank"), "primitives"),
    **dict.fromkeys(("corrections_from", "invariance_transform", "is_separable_basis", "partial_inner_transfer",
                     "povm_check", "series_form"), "relations"),
}
_MODULES = ("entanglement", "primitives", "relations", "report")

__version__ = "0.1.0"


def __getattr__(name):
    # called only for names not yet bound here: the lazy modules and public names
    if name in _MODULES:
        return _import_module(f"{__name__}.{name}")
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_LAZY.get(name, 'entanglement')}"), name)
    return value  # bound from now on: a later read costs a dict lookup, not an import


def __dir__():
    return sorted({*globals(), *__all__, *_MODULES})


__all__ = [
    "BUILTIN_CHANNELS",
    "CHANNEL_LABELS",
    "CHANNEL_PAIRS",
    "CHANNEL_TRIADS",
    "ChannelSpec",
    "ContractError",
    "CorrectionTable",
    "DensityMatrix",
    "GhzSpec",
    "LabelError",
    "MeasurementBasis",
    "PairReport",
    "QubitRegister",
    "ResolvedChannel",
    "StateVector",
    "TeleportOutcome",
    "TriadReport",
    "UnknownState",
    "WitnessSearchResult",
    "apply_unitary",
    "bell_transform_matrix",
    "builtin_channel",
    "corrections_from",
    "dressed_channel",
    "epr_pair_channel",
    "fidelity_pure",
    "generalized_ghz",
    "haar_random_state",
    "haar_random_unitary",
    "hermitian_eigenvalues",
    "invariance_transform",
    "is_separable_basis",
    "is_valid_channel",
    "kron",
    "load_channel_json",
    "measurement_basis",
    "minimize_witness",
    "operator_schmidt_coefficients",
    "operator_schmidt_rank",
    "pair_analysis",
    "partial_inner",
    "partial_inner_transfer",
    "partial_trace",
    "partial_transpose",
    "pauli_pair",
    "povm_check",
    "reduced_density",
    "resolve_channel",
    "run_protocol",
    "schmidt_coefficients",
    "schmidt_rank",
    "series_form",
    "stacked_minimize_witness",
    "standard_corrections",
    "symmetric_w_state",
    "teleport_all_outcomes",
    "tensor",
    "three_tangle",
    "triad_analysis",
    "triad_component_states",
    "witness_gradient",
    "witness_state",
    "witness_value",
]
