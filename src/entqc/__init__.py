"""Teleportation of unknown two-qubit states through four-qubit entangled
channels: exact state-vector simulation, channel validation, entanglement
analysis (PPT pairs, GHZ-structured triads, witness minimization), and a
deterministic verification report.

`import entqc` loads `entqc.tensor` alone. Every other public name, and every
submodule read as `entqc.<module>`, is imported on first read (PEP 562) from
the module that `_HOMES` names: `entqc teleport` compiles none of the analysis
stack (`entanglement`, `report`, `relations` with the general protocol objects
and the analysis-only `primitives`), and the renderers only to write its report.
"""
from importlib import import_module as _import_module

from .tensor import tensor  # the function, bound over the submodule of its name

#: each public name's module, the one place that says where a name lives; `tensor` and
#: `teleport` read from here the names that left them for `primitives` and `relations`
_HOMES = {
    **dict.fromkeys(("BUILTIN_CHANNELS", "CHANNEL_LABELS", "ChannelSpec", "GhzSpec", "ResolvedChannel",
                     "bell_transform_matrix", "builtin_channel", "dressed_channel", "epr_pair_channel",
                     "generalized_ghz", "is_valid_channel", "load_channel_json", "resolve_channel"), "channel"),
    **dict.fromkeys(("ContractError", "DensityMatrix", "LabelError", "QubitRegister", "StateVector",
                     "haar_random_state", "hermitian_eigenvalues", "kron", "reduced_density", "tensor"), "tensor"),
    **dict.fromkeys(("TeleportOutcome", "UnknownState", "teleport_all_outcomes"), "teleport"),
    **dict.fromkeys(("apply_unitary", "fidelity_pure", "haar_random_unitary", "operator_schmidt_coefficients",
                     "operator_schmidt_rank", "partial_inner", "partial_trace", "partial_transpose",
                     "schmidt_coefficients", "schmidt_rank"), "primitives"),
    **dict.fromkeys(("CorrectionTable", "MeasurementBasis", "corrections_from", "invariance_transform",
                     "is_separable_basis", "measurement_basis", "partial_inner_transfer", "pauli_pair", "povm_check",
                     "run_protocol", "series_form", "standard_corrections"), "relations"),
    **dict.fromkeys(("CHANNEL_PAIRS", "CHANNEL_TRIADS", "PairReport", "TriadReport", "WitnessSearchResult",
                     "minimize_witness", "pair_analysis", "stacked_minimize_witness", "symmetric_w_state",
                     "three_tangle", "triad_analysis", "triad_component_states", "witness_gradient",
                     "witness_state", "witness_value"), "entanglement"),
}
_MODULES = {*_HOMES.values(), "report"}  # the submodules read as `entqc.<module>`

__all__ = sorted(_HOMES)
__version__ = "0.1.0"


def __getattr__(name):
    # called only for names not yet bound here: the submodules and the public names
    if name in _MODULES:
        return _import_module(f"{__name__}.{name}")
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(_import_module(f"{__name__}.{_HOMES[name]}"), name)
    return value  # bound from now on: a later read costs a dict lookup, not an import


def __dir__():
    return sorted({*globals(), *_HOMES, *_MODULES})
