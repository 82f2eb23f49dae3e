"""Output checks in plain numpy, independent of the library under test.

Each check returns True when an op's output is right. They read only the
public fields of the library's results (or the CLI's stdout/stderr/exit
code) and compare them with what the generated inputs imply.
"""
from __future__ import annotations

import json
import re

import numpy as np

TELEPORT_TOL = 1e-10
OUTCOMES = [(a, b) for a in range(1, 5) for b in range(1, 5)]
QUARTER = np.eye(4) / 4.0

_PAULI = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
#: the receiver's standard correction for outcome (a, b): sigma_a (x) sigma_b
CORRECTIONS = {(a, b): np.kron(_PAULI[a - 1], _PAULI[b - 1]) for a, b in OUTCOMES}


def teleport_stats_ok(coefficients, probs, receiver, corrected) -> bool:
    """The four protocol facts for one input: every probability is 1/16, every
    corrected state equals the input, the probabilities sum to 1 and the
    receiver's outcome-averaged state is I/4 (no signalling)."""
    c = np.asarray(coefficients, dtype=complex)
    probs = np.asarray(probs, dtype=float)
    receiver = np.asarray(receiver, dtype=complex)
    corrected = np.asarray(corrected, dtype=complex)
    if probs.shape != (16,) or receiver.shape != (16, 4) or corrected.shape != (16, 4):
        return False
    fidelity = np.abs(corrected @ c.conj()) ** 2
    marginal = np.einsum("g,gi,gj->ij", probs, receiver, receiver.conj())
    return bool(
        np.all(np.abs(probs - 1.0 / 16.0) <= TELEPORT_TOL)
        and np.all(np.abs(fidelity - 1.0) <= TELEPORT_TOL)
        and abs(probs.sum() - 1.0) <= TELEPORT_TOL
        and np.abs(marginal - QUARTER).max() <= TELEPORT_TOL
    )


def check_teleport_outcomes(coefficients, outcomes) -> bool:
    """`outcomes` is the list teleport_all_outcomes returned."""
    if sorted(tuple(o.outcome) for o in outcomes) != OUTCOMES:
        return False
    return teleport_stats_ok(
        coefficients,
        [o.probability for o in outcomes],
        [o.bob_state.amplitudes for o in outcomes],
        [o.corrected_state.amplitudes for o in outcomes],
    )


_OUTCOME_ROW = re.compile(r"outcome \((\d),(\d)\) (probability|corrected fidelity|receiver state)")


def _teleport_doc_ok(doc, coefficients) -> bool:
    """Re-derive the teleport verdict from the document's own numbers: the
    corrections are applied here, in numpy, to the reported receiver states."""
    rows = {}
    for row in doc["sections"][0]["checks"]:
        m = _OUTCOME_ROW.fullmatch(row["name"])
        if m is None:
            return False
        rows[(int(m[1]), int(m[2]), m[3])] = row["value"]
    if len(rows) != 48:
        return False
    unknown = np.array([complex(re_, im) for re_, im in doc["unknown_state"]])
    if coefficients is not None and np.abs(unknown - coefficients).max() > 1e-12:
        return False
    probs = [rows[(a, b, "probability")] for a, b in OUTCOMES]
    receiver = np.array(
        [[complex(re_, im) for re_, im in rows[(a, b, "receiver state")]]
         for a, b in OUTCOMES]
    )
    corrected = np.einsum("gij,gj->gi", np.stack([CORRECTIONS[g] for g in OUTCOMES]), receiver)
    reported = np.array([rows[(a, b, "corrected fidelity")] for a, b in OUTCOMES])
    return bool(
        teleport_stats_ok(unknown, probs, receiver, corrected)
        and np.all(np.abs(reported - 1.0) <= TELEPORT_TOL)
    )


def _rows_within_tolerance(doc) -> bool:
    """Every row with a numeric target and tolerance meets it, recomputed here."""
    for sec in doc["sections"]:
        for row in sec["checks"]:
            value, target, tol = row["value"], row["target"], row["tolerance"]
            if tol is None or target is None or isinstance(value, (bool, list)):
                continue
            if not abs(float(value) - float(target)) <= float(tol):
                return False
    return True


def check_cli(expect: int, fmt: str, coefficients, code, out: str, err: str) -> bool:
    """Exit code as expected; errors go to stderr only; a success document
    carries "pass": true and numbers that hold up when re-checked."""
    if code != expect:
        return False
    if code != 0:
        return out == "" and err.startswith("error:")
    if fmt == "text":
        return out.endswith("\noverall: PASS\n") and "[FAIL]" not in out
    doc = json.loads(out)
    if doc.get("pass") is not True or not _rows_within_tolerance(doc):
        return False
    if doc["report"] == "teleport":
        return _teleport_doc_ok(doc, coefficients)
    return doc["report"] == "verification"
