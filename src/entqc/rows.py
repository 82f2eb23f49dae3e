"""Report rows, sections and documents, and the command-line defaults: what `cli`
shares with `report` and `entanglement`, so that `entqc teleport` loads neither."""
from __future__ import annotations

import numpy as np

DEFAULT_SEED = 7
DEFAULT_RESTARTS = 64
DEFAULT_WITNESS_TOL = 1e-3
#: most witness-search restarts per call, and most rows (densities x restarts)
#: one ascent holds: the batch allocation grows with them, so a longer stack runs in chunks
MAX_RESTARTS = 4096


def tag(labels) -> str:
    """The tag that names a row's qubits or outcome: "(A1,B1)", "(1,2)"."""
    return f"({','.join(map(str, labels))})"


def check(name, value, target=None, tolerance=None):
    """One report row; numeric rows compare |value - target| to tolerance."""
    if type(value) is not float:
        if isinstance(value, (bool, np.bool_)):
            value = bool(value)
            passed = None if target is None else value == bool(target)
            return {"name": name, "value": value, "target": target,
                    "tolerance": None, "pass": passed}
        if isinstance(value, (int, np.integer)) and tolerance is None and target is not None:
            value = int(value)
            return {"name": name, "value": value, "target": int(target),
                    "tolerance": 0, "pass": value == int(target)}
        if isinstance(value, (list, tuple)):
            return {"name": name, "value": list(value), "target": target,
                    "tolerance": tolerance, "pass": None}
        value = float(value)
    passed = None
    if target is not None and tolerance is not None:
        passed = abs(value - float(target)) <= tolerance
    return {"name": name, "value": value, "target": target,
            "tolerance": tolerance, "pass": passed}


def section(name, checks):
    gates = [c["pass"] for c in checks if c["pass"] is not None]
    return {"name": name, "checks": checks, "pass": all(gates)}


def document(kind, sections, **meta):
    """A report document: its kind, `meta` in the order given, its sections and
    the overall verdict, which holds iff every section passes."""
    return {"report": kind, **meta, "sections": sections, "pass": all(s["pass"] for s in sections)}
