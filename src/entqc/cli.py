"""Command-line front end.

Subcommands:
  teleport  run the sixteen-outcome protocol on a channel and report fidelities
  analyze   entanglement analysis of a channel state (pairs, triads, witness)
  repro     run the built-in verification suite and report pass/fail

JSON is the canonical output format (floats at 17 significant digits, complex
numbers as [re, im] pairs); the text format is rendered from the same document.
Exit codes: 0 success, 1 a numeric check failed, 2 malformed input or usage.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .channel import is_valid_channel, resolve_channel
from .entanglement import (
    CHANNEL_PAIRS,
    CHANNEL_TRIADS,
    MAX_RESTARTS,
    stacked_minimize_witness,
    stacked_pair_analysis,
    stacked_triad_analysis,
)
from .report import (
    DEFAULT_RESTARTS,
    DEFAULT_SEED,
    DEFAULT_WITNESS_TOL,
    SuiteConfig,
    build_report,
    check,
    section,
)
from .tensor import ContractError, DensityMatrix, LabelError, QubitRegister, _trusted, reduced_densities
# teleport_all_outcomes (the object API) stays importable from here
from .teleport import OUTCOMES, UnknownState, standard_protocol_batch, teleport_all_outcomes  # noqa: F401

FIDELITY_ATOL = 1e-10
STATE_NORM_LIMIT = 1e-6


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

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
    a value, floats at %.17g. Each distinct float, and each str dict key, is
    formatted once per encoder; its memos go with it.

    Exact floats, strings, ints, dicts and lists dispatch on their type, and
    what a dict or list holds is written without a call through `emit` when
    it is a float, a list or a dict (a dict's None, bool and str values too).
    Anything else (numpy scalars, str/dict/tuple subclasses, complex
    numbers, ndarrays) goes through the `isinstance` chain.
    """
    memo: dict = {}
    known, fresh = memo.get, _float_formatter(memo, ".17g")
    keys: dict = {}
    out: list[str] = []
    append = out.append

    def key_text(key) -> str:
        text = _encode_str(str(key)) + ": "
        if type(key) is str:
            keys[key] = text
        return text

    def mapping(value):
        append("{")
        sep = ""
        for key, item in value.items():
            append(sep)
            append(keys.get(key) or key_text(key))
            kind = type(item)
            if kind is float:
                append(known(item) or fresh(item))
            elif kind is str:
                append(_encode_str(item))
            elif item is None:
                append("null")
            elif kind is bool:
                append("true" if item else "false")
            elif kind is list:
                sequence(item)
            elif kind is dict:
                mapping(item)
            else:
                emit(item)
            sep = ", "
        append("}")

    def sequence(value):
        append("[")
        sep = ""
        for item in value:
            append(sep)
            kind = type(item)
            if kind is float:
                append(known(item) or fresh(item))
            elif kind is list:
                sequence(item)
            elif kind is dict:
                mapping(item)
            else:
                emit(item)
            sep = ", "
        append("]")

    def emit(value):
        # no float is also a str, dict, list or tuple, and no None, bool, int
        # or complex is a container, so the order of the kinds is free
        kind = type(value)
        if kind is float:
            append(known(value) or fresh(value))
        elif kind is str:
            append(_encode_str(value))
        elif kind is int:
            append(str(value))
        elif isinstance(value, dict):
            mapping(value)
        elif isinstance(value, (list, tuple)):
            sequence(value)
        elif value is None:
            append("null")
        elif isinstance(value, _FLOATS):
            emit(float(value))
        elif isinstance(value, str):
            append(_encode_str(value))
        elif isinstance(value, (bool, np.bool_)):
            append("true" if value else "false")
        elif isinstance(value, (int, np.integer)):
            append(str(int(value)))
        elif isinstance(value, (complex, np.complexfloating)):
            sequence([float(value.real), float(value.imag)])
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


def _write_document(doc, args) -> None:
    text = render_text(doc) if args.format == "text" else render_json(doc)
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ContractError(
                f"cannot write report to {args.output!r}: {exc.strerror or exc}"
            ) from exc
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Shared argument handling
# ---------------------------------------------------------------------------

def _resolve_seed(args) -> int:
    seed = getattr(args, "seed", None)
    if seed is None:
        env = os.environ.get("ENTQC_SEED")
        if env is not None:
            try:
                seed = int(env)
            except ValueError:
                raise ContractError(f"ENTQC_SEED must be an integer, got {env!r}")
        else:
            seed = DEFAULT_SEED
    if seed < 0:
        raise ContractError(f"seed must be non-negative, got {seed}")
    return seed


def _parse_state_arg(text: str) -> UnknownState:
    parts = text.split(",")
    if len(parts) != 8:
        raise ContractError(
            "--state needs 8 comma-separated reals (4 [re, im] pairs), "
            f"got {len(parts)} fields"
        )
    try:
        reals = [float(p) for p in parts]
    except ValueError as exc:
        raise ContractError(f"--state entries must be numbers: {exc}") from exc
    with np.errstate(over="ignore"):  # an overflowing norm is inf, rejected below
        norm = float(np.linalg.norm(reals))
    dev = abs(norm - 1.0)
    if dev > STATE_NORM_LIMIT:
        raise ContractError(
            f"--state norm {norm:.9g} is off by {dev:.3g} (limit {STATE_NORM_LIMIT:g}); "
            "pass a normalized state"
        )
    if dev > 1e-12:
        sys.stderr.write(
            f"warning: normalizing --state (norm off by {dev:.3g})\n"
        )
        reals = np.asarray(reals) / norm
    return UnknownState.from_reals(reals)


def _argument(convert, accept, wanted: str):
    """An argparse type: `convert` the text, then require `accept` of it."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not accept(value):
            raise argparse.ArgumentTypeError(f"must be {wanted}, got {text!r}")
        return value
    return parse


_positive_tol = _argument(float, lambda x: np.isfinite(x) and x > 0.0, "a finite number > 0")
_restarts = _argument(int, lambda n: 1 <= n <= MAX_RESTARTS, f"an integer in 1..{MAX_RESTARTS}")


def _pairs(amplitudes) -> list:
    return np.stack([amplitudes.real, amplitudes.imag], -1).tolist()


def _tag(labels) -> str:
    return "(" + ",".join(labels) + ")"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_teleport(args) -> int:
    resolved = resolve_channel(args.channel)
    # ChannelSpec admits |D†D - I| <= 1e-12, which keeps a dressed channel's
    # marginals within 1e-12 of I/4: only an undressed one (ghz) is checked.
    if resolved.spec is None:
        _, dev = is_valid_channel(resolved.state)
        sys.stderr.write(
            f"error: channel {resolved.name!r} cannot carry the protocol: both "
            "two-qubit halves must be maximally entangled with the far side "
            f"(every pair marginal I/4); worst marginal deviation {dev:.6g}\n"
        )
        return 1

    doc = {"report": "teleport", "channel": resolved.name}
    if args.state is not None:
        unknown = _parse_state_arg(args.state)
    else:
        seed = _resolve_seed(args)
        doc["seed"] = seed
        unknown = UnknownState.random(seed)
    c = unknown.coefficients
    doc["unknown_state"] = _pairs(c)
    probs, bob, corrected = standard_protocol_batch(c[None], resolved.spec.dressing[None])
    fids = (np.abs(corrected[0].conj() @ c) ** 2).tolist()
    checks = []
    for (a, b), prob, fid, receiver in zip(OUTCOMES, probs[0].tolist(), fids, _pairs(bob[0])):
        tag = f"outcome ({a},{b})"
        checks.append(check(f"{tag} probability", prob, 1.0 / 16.0, FIDELITY_ATOL))
        checks.append(check(f"{tag} corrected fidelity", fid, 1.0, FIDELITY_ATOL))
        checks.append(check(f"{tag} receiver state", receiver))
    outcomes = section("outcomes", checks)
    doc["sections"] = [outcomes]
    doc["pass"] = outcomes["pass"]
    _write_document(doc, args)
    return 0 if doc["pass"] else 1


def cmd_analyze(args) -> int:
    resolved = resolve_channel(args.channel)
    seed = _resolve_seed(args)
    state = resolved.state

    ok, dev = is_valid_channel(state)
    channel_checks = [
        check("valid teleportation resource", bool(ok)),
        check("max two-qubit marginal deviation from I/4", dev),
    ]

    labels = state.register.labels
    singles = np.linalg.eigvalsh(reduced_densities(state, [(label,) for label in labels]))
    marginal_checks = [
        check(f"single-qubit marginal {label} eigenvalues", eigs)
        for label, eigs in zip(labels, singles.tolist())
    ]

    pair_checks = []
    _, spectra, verdicts = stacked_pair_analysis(state, CHANNEL_PAIRS)
    for pair, min_eig, entangled in zip(CHANNEL_PAIRS, spectra[:, 0].tolist(), verdicts.tolist()):
        tag = _tag(pair)
        pair_checks += [check(f"pair {tag} min PT eigenvalue", min_eig),
                        check(f"pair {tag} entangled", entangled)]

    triad_checks, witness_checks = [], []
    reduced, *rows = stacked_triad_analysis(state, CHANNEL_TRIADS)
    marginals = [_trusted(DensityMatrix, register=QubitRegister(triad), matrix=rho)  # of a checked state
                 for triad, rho in zip(CHANNEL_TRIADS, reduced)]
    minima, angles, converged, _ = stacked_minimize_witness(marginals, restarts=args.restarts, seed=seed)
    for triad, eigs, fids, tangles, minimum, best, fraction in zip(
            CHANNEL_TRIADS, *(r.tolist() for r in (*rows, minima, angles, converged))):
        tag = _tag(triad)
        triad_checks += [
            check(f"triad {tag} eigenvalues", eigs),
            check(f"triad {tag} component fidelities", fids),
            check(f"triad {tag} three-tangles", tangles),
        ]
        witness_checks += [
            check(f"triad {tag} witness minimum", minimum),
            check(f"triad {tag} witness parameters", best),
            check(f"triad {tag} witness converged fraction", fraction),
        ]

    doc = {
        "report": "analyze",
        "channel": resolved.name,
        "seed": seed,
        "restarts": args.restarts,
        "sections": [
            section("channel", channel_checks),
            section("marginals", marginal_checks),
            section("pairs", pair_checks),
            section("triads", triad_checks),
            section("witness", witness_checks),
        ],
    }
    doc["pass"] = all(s["pass"] for s in doc["sections"])
    _write_document(doc, args)
    return 0


def cmd_repro(args) -> int:
    cfg = SuiteConfig(seed=_resolve_seed(args), restarts=args.restarts, tol=args.tol)
    doc = build_report(cfg, only=args.section)
    _write_document(doc, args)
    return 0 if doc["pass"] else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(sub, with_channel=None, with_search=False):
    if with_channel is not None:
        sub.add_argument(
            "--channel",
            default=with_channel,
            help="built-in channel name or a .json dressing file "
            f"(default: {with_channel})",
        )
    sub.add_argument("--seed", type=int, default=None,
                     help="PRNG seed (fallback: ENTQC_SEED env var, then "
                     f"{DEFAULT_SEED})")
    if with_search:
        sub.add_argument("--restarts", type=_restarts, default=DEFAULT_RESTARTS,
                         help=f"witness-search restarts, 1..{MAX_RESTARTS}")
        sub.add_argument("--tol", type=_positive_tol, default=DEFAULT_WITNESS_TOL,
                         help="tolerance for witness-bound checks")
    sub.add_argument("--output", default=None, help="write the report to a file")
    sub.add_argument("--format", choices=("json", "text"), default="json",
                     help="output format (json is canonical)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `entqc` parser, built on the first call and shared afterwards
    (parsing does not change it)."""
    parser = argparse.ArgumentParser(
        prog="entqc",
        description="Two-qubit teleportation through four-qubit entangled "
        "channels: simulation, entanglement analysis, verification report.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    tele = commands.add_parser(
        "teleport", help="run the sixteen-outcome protocol and check fidelities"
    )
    _add_common(tele, with_channel="epr")
    tele.add_argument(
        "--state",
        default=None,
        help="unknown input state as 8 comma-separated reals (4 [re, im] pairs); "
        "omitted: a seeded random state",
    )
    tele.set_defaults(func=cmd_teleport)

    ana = commands.add_parser(
        "analyze", help="pairwise/triad entanglement analysis plus witness search"
    )
    _add_common(ana, with_channel="bell-transformed", with_search=True)
    ana.set_defaults(func=cmd_analyze)

    rep = commands.add_parser(
        "repro", help="run the built-in verification suite"
    )
    _add_common(rep, with_search=True)
    rep.add_argument(
        "--section",
        action="append",
        default=None,
        metavar="NAME",
        help="run only the named section (repeatable)",
    )
    rep.set_defaults(func=cmd_repro)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ContractError, LabelError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
