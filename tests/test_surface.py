"""The public surface read as `entqc.<name>`: what importing the package and
running each command loads (checked in fresh interpreters), and what the
public constructors, readers and functions that take library objects do on
junk input and on library objects of the wrong class.

Hypothesis settings are fixed and derandomized, with no example database.
"""
import importlib
import json
import os
import subprocess
import sys
import warnings

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import entqc


def _fresh(code: str) -> str:
    """stdout of `code` run in a fresh interpreter that imports entqc from this tree."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(entqc.__path__[0])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


LOADED = """
import contextlib, io, json, sys
import entqc, entqc.cli
def loaded():
    return sorted(name for name in sys.modules if name.startswith("entqc."))
steps = [loaded()]
with contextlib.redirect_stdout(io.StringIO()):
    for argv in {argvs!r}:
        entqc.cli.main(argv)
        steps.append(loaded())
print(json.dumps(steps))
"""


def test_teleport_loads_no_analysis_module_and_analyze_no_report():
    steps = json.loads(_fresh(LOADED.format(argvs=[["teleport", "--seed", "3"], ["analyze", "--restarts", "2"],
                                                   ["repro", "--section", "ghz"]])))
    protocol = ["entqc.channel", "entqc.cli", "entqc.rows", "entqc.teleport", "entqc.tensor"]
    assert steps[0] == protocol  # the import: the protocol modules, no renderer
    rendered = sorted(protocol + ["entqc.render"])
    assert steps[1] == rendered  # a teleport adds the renderers alone
    assert steps[2] == sorted(rendered + ["entqc.entanglement"])
    analysis = ["entqc.entanglement", "entqc.primitives", "entqc.relations", "entqc.report"]
    assert steps[3] == sorted(rendered + analysis)


#: the public names that left `tensor` and `teleport` for the modules loaded on first use
MOVED = {
    "primitives": ("apply_unitary", "fidelity_pure", "haar_random_unitary", "operator_schmidt_coefficients",
                   "operator_schmidt_rank", "partial_inner", "partial_trace", "partial_transpose",
                   "schmidt_coefficients", "schmidt_rank"),
    "relations": ("corrections_from", "invariance_transform", "is_separable_basis", "partial_inner_transfer",
                  "povm_check", "series_form", "CorrectionTable", "MeasurementBasis", "measurement_basis",
                  "pauli_pair", "run_protocol", "standard_corrections"),
}


def test_a_moved_name_is_one_object_through_the_package_its_module_and_its_old_module():
    code = """
import json, sys
import entqc
before = sorted(name for name in sys.modules if name.startswith("entqc."))
same = []
for home, old in (("primitives", "tensor"), ("relations", "teleport")):
    for name in {moved!r}[home]:
        value, imported = getattr(entqc, name), {{}}  # the first read imports `home`
        exec(f"from entqc.{{old}} import {{name}}", imported)
        same.append(value is getattr(sys.modules["entqc." + home], name) is imported[name])
print(json.dumps([before, all(same), entqc.tensor.__module__ + "." + entqc.tensor.__name__]))
"""
    before, same, tensor = json.loads(_fresh(code.format(moved=MOVED)))
    assert before == ["entqc.tensor"]  # a bare `import entqc` loads the module of `tensor`, bound eagerly
    assert same
    assert tensor == "entqc.tensor.tensor"  # `entqc.tensor` is still the function, not the submodule
    assert {*MOVED["primitives"], *MOVED["relations"]} <= set(entqc.__all__)
    # only the public names are read through the old modules; the helpers are at their new paths
    for old, helper in (("tensor", "haar_draws"), ("teleport", "_stack_last"), ("teleport", "measurement_kets")):
        assert not hasattr(importlib.import_module(f"entqc.{old}"), helper)


def test_every_public_name_resolves_to_its_defining_modules_object():
    code = """
import json
import entqc
modules = [entqc.entanglement.__name__, entqc.report.__name__]  # read without an explicit import
star = {}
exec("from entqc import *", star)
print(json.dumps([modules, sorted(set(entqc.__all__) - set(star)), sorted(set(entqc.__all__) - set(dir(entqc)))]))
"""
    assert json.loads(_fresh(code)) == [["entqc.entanglement", "entqc.report"], [], []]
    assert set(entqc.__all__) <= set(dir(entqc))  # in this process too, whatever it has loaded
    # `entqc.tensor` is the function of that name, so the modules are imported by name
    homes = [importlib.import_module(f"entqc.{name}")
             for name in ("channel", "entanglement", "primitives", "relations", "tensor", "teleport")]
    for name in entqc.__all__:
        held = [getattr(module, name) for module in homes if hasattr(module, name)]
        assert held and all(value is getattr(entqc, name) for value in held), name
    assert not hasattr(entqc, "no_such_name")


# --- the public constructors and readers on junk ---------------------------------
ATOMS = (st.integers(-3, 5) | st.sampled_from([10**400, -(10**400), 2**64, 10**39]) | st.floats()
         | st.text(max_size=3) | st.binary(max_size=3) | st.none() | st.booleans())
#: nestings of atoms, ragged or not, at most 10 leaves: no call here allocates much
VALUES = st.recursive(ATOMS, lambda inner: st.lists(inner, max_size=4), max_leaves=10)

STATE = entqc.builtin_channel("bell-transformed").state
RHO = entqc.DensityMatrix.from_state(STATE)
TRIAD_RHO = entqc.reduced_density(STATE, ("A1", "A2", "B1"))
REGISTER = entqc.QubitRegister(("a", "b"))
SPEC = entqc.builtin_channel("bell-transformed").spec
UNKNOWN = entqc.UnknownState.random(1)
BASIS = entqc.measurement_basis(SPEC)
SIGMA = entqc.standard_corrections()
#: library objects, each drawn where another class goes
OBJECTS = st.sampled_from([STATE, RHO, REGISTER, SPEC, entqc.GhzSpec(), UNKNOWN, BASIS, SIGMA])
ARGUMENTS = VALUES | OBJECTS

CALLS = {
    "QubitRegister": lambda x, y: entqc.QubitRegister(x),
    "StateVector": lambda x, y: entqc.StateVector(x, y),
    "StateVector amplitudes": lambda x, y: entqc.StateVector(REGISTER, x),
    "DensityMatrix": lambda x, y: entqc.DensityMatrix(x, y),
    "DensityMatrix matrix": lambda x, y: entqc.DensityMatrix(REGISTER, x),
    "ChannelSpec": lambda x, y: entqc.ChannelSpec(x),
    "GhzSpec": lambda x, y: entqc.GhzSpec(x),
    "GhzSpec local_bases": lambda x, y: entqc.GhzSpec(local_bases=x),
    "UnknownState": lambda x, y: entqc.UnknownState(x),
    "UnknownState.from_reals": lambda x, y: entqc.UnknownState.from_reals(x),
    "UnknownState.random": lambda x, y: entqc.UnknownState.random(x),
    "MeasurementBasis": lambda x, y: entqc.MeasurementBasis(x),
    "CorrectionTable": lambda x, y: entqc.CorrectionTable(x),
    "WitnessSearchResult": lambda x, y: entqc.WitnessSearchResult(x, y, 1, 1.0),
    "kron": lambda x, y: entqc.kron(x, y),
    "kron of no factor": lambda x, y: entqc.kron(),
    "DensityMatrix.from_state": lambda x, y: entqc.DensityMatrix.from_state(x),
    "builtin_channel": lambda x, y: entqc.builtin_channel(x),
    "resolve_channel": lambda x, y: entqc.resolve_channel(x),
    "load_channel_json": lambda x, y: entqc.load_channel_json(x),
    "hermitian_eigenvalues": lambda x, y: entqc.hermitian_eigenvalues(x),
    "operator_schmidt_coefficients": lambda x, y: entqc.operator_schmidt_coefficients(x),
    "operator_schmidt_rank": lambda x, y: entqc.operator_schmidt_rank(x),
    "pauli_pair": lambda x, y: entqc.pauli_pair(x, y),
    "witness_state": lambda x, y: entqc.witness_state(x),
    "witness_value": lambda x, y: entqc.witness_value(TRIAD_RHO, x),
    "witness_value rho": lambda x, y: entqc.witness_value(x, [0.0] * 9),
    "witness_gradient": lambda x, y: entqc.witness_gradient(TRIAD_RHO, x),
    "minimize_witness": lambda x, y: entqc.minimize_witness(x, restarts=1),
    "three_tangle": lambda x, y: entqc.three_tangle(x),
    "triad_component_states": lambda x, y: entqc.triad_component_states(x),
    "haar_random_unitary": lambda x, y: entqc.haar_random_unitary(x, y),
    "haar_random_state": lambda x, y: entqc.haar_random_state(x, y),
    "schmidt_rank": lambda x, y: entqc.schmidt_rank(STATE, x),
    "schmidt_coefficients": lambda x, y: entqc.schmidt_coefficients(STATE, x),
    "apply_unitary": lambda x, y: entqc.apply_unitary(STATE, np.eye(2), x),
    "apply_unitary matrix": lambda x, y: entqc.apply_unitary(STATE, x, ("A1",)),
    "partial_trace": lambda x, y: entqc.partial_trace(RHO, x),
    "partial_transpose": lambda x, y: entqc.partial_transpose(RHO, x),
    "reduced_density": lambda x, y: entqc.reduced_density(STATE, x),
    "pair_analysis": lambda x, y: entqc.pair_analysis(STATE, x),
    "triad_analysis": lambda x, y: entqc.triad_analysis(STATE, x),
    "fidelity_pure": lambda x, y: entqc.fidelity_pure(x, y),
    "apply_unitary state": lambda x, y: entqc.apply_unitary(x, np.eye(2), ("A1",)),
    "partial_inner": lambda x, y: entqc.partial_inner(x, y),
    "partial_trace rho": lambda x, y: entqc.partial_trace(x, ("A1",)),
    "partial_transpose rho": lambda x, y: entqc.partial_transpose(x, ("A1",)),
    "reduced_density state": lambda x, y: entqc.reduced_density(x, ("A1",)),
    "schmidt_coefficients state": lambda x, y: entqc.schmidt_coefficients(x, ("A1",)),
    "schmidt_rank state": lambda x, y: entqc.schmidt_rank(x, ("A1",)),
    "tensor": lambda x, y: entqc.tensor(x, y),
    "pair_analysis state": lambda x, y: entqc.pair_analysis(x, ("A1", "B1")),
    "triad_analysis state": lambda x, y: entqc.triad_analysis(x, ("A1", "A2", "B1")),
    "symmetric_w_state": lambda x, y: entqc.symmetric_w_state(x),
    "invariance_transform": lambda x, y: entqc.invariance_transform(x, y, np.eye(4), np.eye(4)),
    "dressed_channel": lambda x, y: entqc.dressed_channel(x),
    "measurement_basis": lambda x, y: entqc.measurement_basis(x),
    "generalized_ghz": lambda x, y: entqc.generalized_ghz(x),
    "is_valid_channel": lambda x, y: entqc.is_valid_channel(x),
    "run_protocol": lambda x, y: entqc.run_protocol(x, BASIS, y, SIGMA),
    "run_protocol basis": lambda x, y: entqc.run_protocol(UNKNOWN, x, STATE, y),
    "teleport_all_outcomes": lambda x, y: entqc.teleport_all_outcomes(x, y),
    "series_form": lambda x, y: entqc.series_form(x),
    "povm_check": lambda x, y: entqc.povm_check(x, y),
    "corrections_from": lambda x, y: entqc.corrections_from(x, y),
    "is_separable_basis": lambda x, y: entqc.is_separable_basis(x),
    "partial_inner_transfer": lambda x, y: entqc.partial_inner_transfer(x, y),
    "MeasurementBasis.ket": lambda x, y: BASIS.ket(x),
    "CorrectionTable.op": lambda x, y: SIGMA.op(x),
}


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(call=st.sampled_from(sorted(CALLS)) | st.just("channel file"), x=ARGUMENTS, y=ARGUMENTS)
@example(call="haar_random_state", x=-1, y=1)
@example(call="kron of no factor", x=None, y=None)
@example(call="DensityMatrix.from_state", x=RHO, y=None)
@example(call="haar_random_unitary", x=0.5, y=1)
@example(call="haar_random_state", x=2, y=0.5)
@example(call="haar_random_state", x=2, y=1j)
@example(call="haar_random_state", x=2, y=b"ab")
@example(call="haar_random_unitary", x=2, y=-1)
@example(call="schmidt_rank", x=0.5, y=None)
@example(call="apply_unitary", x=True, y=None)
@example(call="partial_trace", x=None, y=None)
@example(call="pair_analysis", x=None, y=None)
@example(call="fidelity_pure", x=None, y=None)
@example(call="haar_random_unitary", x=10**39, y=1)
@example(call="haar_random_state", x=10**39, y=1)
@example(call="dressed_channel", x=None, y=None)
@example(call="measurement_basis", x=5, y=None)
@example(call="generalized_ghz", x=STATE, y=None)
@example(call="is_valid_channel", x=SPEC, y=None)
@example(call="run_protocol", x=None, y=SPEC)
@example(call="teleport_all_outcomes", x=SPEC, y=UNKNOWN)
@example(call="series_form", x=STATE, y=None)
@example(call="povm_check", x=SIGMA, y=RHO)
@example(call="corrections_from", x=None, y=STATE)
@example(call="corrections_from", x=BASIS, y=None)
@example(call="is_separable_basis", x=None, y=None)
@example(call="partial_inner_transfer", x=None, y=STATE)
@example(call="partial_inner_transfer", x=BASIS.ket((1, 1)), y=None)
@example(call="MeasurementBasis.ket", x=5, y=None)
@example(call="MeasurementBasis.ket", x=[[1], 2], y=None)
@example(call="CorrectionTable.op", x=5, y=None)
@example(call="CorrectionTable.op", x=[[1], 2], y=None)
@example(call="apply_unitary state", x=None, y=None)
@example(call="partial_inner", x=None, y=STATE)
@example(call="partial_inner", x=STATE, y=5)
@example(call="partial_trace rho", x=STATE, y=None)
@example(call="partial_transpose rho", x=None, y=None)
@example(call="reduced_density state", x=RHO, y=None)
@example(call="schmidt_coefficients state", x=None, y=None)
@example(call="schmidt_rank state", x=5, y=None)
@example(call="tensor", x=STATE, y=None)
@example(call="tensor", x=None, y=STATE)
@example(call="pair_analysis state", x=RHO, y=None)
@example(call="triad_analysis state", x=None, y=None)
@example(call="symmetric_w_state", x=None, y=None)
@example(call="symmetric_w_state", x=5, y=None)
@example(call="invariance_transform", x=None, y=SIGMA)
@example(call="invariance_transform", x=BASIS, y=5)
def test_public_calls_return_or_raise_a_contract_or_label_error(tmp_path_factory, call, x, y):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        try:
            if call == "channel file":  # x as a channel document, y as its name
                path = tmp_path_factory.getbasetemp() / "fuzzed.json"
                path.write_text(json.dumps({"name": y, "dressing": x}, default=repr), encoding="utf-8")
                entqc.load_channel_json(path)
            else:
                CALLS[call](x, y)
        except (entqc.ContractError, entqc.LabelError) as exc:
            assert str(exc)
