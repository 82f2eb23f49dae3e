"""The report renderers, a document as deterministic JSON or as text: `cli`
loads this module on its first render or teleport-template build."""
from __future__ import annotations

import json

import numpy as np

from .tensor import ContractError

_encode_str = json.encoder.encode_basestring_ascii  # json.dumps of a str
_FLOATS = (float, np.floating)  # built once, not per call


def _float_formatter(memo: dict, spec: str):
    """`fresh(x)`: format(x, spec) of a float x, which must be finite, kept in
    `memo` so that each distinct value is formatted once: callers read
    `memo.get(x) or fresh(x)`. Zeros are not kept (0.0 == -0.0 would share a
    key); nan and inf are rejected, so never kept."""
    def fresh(x: float) -> str:
        text = format(x, spec)
        if text[-1] > "9":  # nan, inf, -inf: the only formatted floats ending in a letter
            raise ContractError(f"cannot write the non-finite number {text}: report values must be finite")
        if x:
            memo[x] = text
        return text
    return fresh


def _encoder():
    """The JSON encoder of one rendering: `encode(value)` returns the text of
    a value, floats at %.17g, each distinct float formatted once per encoder.
    Exact floats, None, bools and ints dispatch on their type, strings on
    `isinstance`; anything else (numpy scalars, dict/tuple subclasses,
    complex numbers, ndarrays) goes through the `isinstance` chain."""
    memo: dict = {}
    known, fresh = memo.get, _float_formatter(memo, ".17g")
    out: list[str] = []
    append = out.append

    def emit(value):
        kind = type(value)
        if kind is float:
            append(known(value) or fresh(value))
        elif isinstance(value, str):
            append(_encode_str(value))
        elif value is None:
            append("null")
        elif kind is bool:
            append("true" if value else "false")
        elif kind is int:
            append(str(value))
        elif isinstance(value, dict):
            sep = "{"
            for key, item in value.items():
                append(sep)
                append(_encode_str(str(key)))
                append(": ")
                emit(item)
                sep = ", "
            append("}" if value else "{}")
        elif isinstance(value, (list, tuple)):
            sep = "["
            for item in value:
                append(sep)
                emit(item)
                sep = ", "
            append("]" if value else "[]")
        elif isinstance(value, _FLOATS):
            emit(float(value))
        elif isinstance(value, (bool, np.bool_)):
            append("true" if value else "false")
        elif isinstance(value, (int, np.integer)):
            append(str(int(value)))
        elif isinstance(value, (complex, np.complexfloating)):
            emit([float(value.real), float(value.imag)])
        elif isinstance(value, np.ndarray):
            emit(value.tolist())
        else:
            raise TypeError(f"cannot serialize {type(value).__name__}")

    def encode(value) -> str:
        emit(value)
        text = "".join(out)
        out.clear()
        return text

    return encode


def render_json(doc) -> str:
    """Deterministic JSON: insertion order, floats as %.17g (finite only).
    Each distinct float is formatted once per call; nothing outlives it."""
    return _encoder()(doc) + "\n"


def _verdict(passed) -> str:
    if passed is None:
        return "info"
    if isinstance(passed, str):  # a slot marker of the teleport template
        return passed
    return "PASS" if passed else "FAIL"


def render_text(doc) -> str:
    """The text report: a header, one `key=value` line of the document's
    other top-level entries, then one line per check row. Scalars are
    written at %.10g and lists, dicts and tuples as their JSON (%.17g), with
    each distinct float formatted once per format and call."""
    encode, memo = _encoder(), {}
    known, fresh = memo.get, _float_formatter(memo, ".10g")

    def scalar(value) -> str:
        if isinstance(value, _FLOATS):
            value = float(value)
            return known(value) or fresh(value)
        if isinstance(value, (list, tuple, dict)):
            return encode(value)
        if isinstance(value, bool):
            return "true" if value else "false"
        return str(value)

    kind = doc.get("report", "report")
    lines = [f"entqc {kind} report"]
    meta = [
        f"{key}={scalar(value)}"
        for key, value in doc.items()
        if key not in ("report", "sections", "pass")
    ]
    if meta:
        lines.append("  ".join(meta))
    for sec in doc.get("sections", ()):
        lines.append("")
        lines.append(f"[{_verdict(sec['pass'])}] section {sec['name']}")
        for row in sec["checks"]:
            piece = f"  [{_verdict(row['pass'])}] {row['name']}: value={scalar(row['value'])}"
            if row.get("target") is not None:
                piece += f" target={scalar(row['target'])}"
            if row.get("tolerance") is not None:
                piece += f" tolerance={scalar(row['tolerance'])}"
            lines.append(piece)
    if "pass" in doc:
        lines.append("")
        lines.append(f"overall: {_verdict(doc['pass'])}")
    return "\n".join(lines) + "\n"
