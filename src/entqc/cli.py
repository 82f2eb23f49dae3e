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
import operator
import os
import sys

import numpy as np

from .channel import is_valid_channel, resolve_channel
# `analyze` imports `entanglement` when run, `repro` the whole analysis stack (`report` and what it imports)
from .rows import DEFAULT_RESTARTS, DEFAULT_SEED, DEFAULT_WITNESS_TOL, MAX_RESTARTS, check, document, section, tag
from .tensor import ATOL, ContractError, LabelError
# teleport_all_outcomes (the object API) stays importable from here
from .teleport import OUTCOMES, UnknownState, standard_protocol_batch, teleport_all_outcomes  # noqa: F401

FIDELITY_ATOL = 1e-10
STATE_NORM_LIMIT = 1e-6


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def render_json(doc) -> str:
    """Deterministic JSON, floats as %.17g: `render.render_json`, its module loaded on first use."""
    from .render import render_json
    return render_json(doc)


def render_text(doc) -> str:
    """The text report of the same document: `render.render_text`, its module loaded on first use."""
    from .render import render_text
    return render_text(doc)


def _write_document(doc, args) -> None:
    _write(render_text(doc) if args.format == "text" else render_json(doc), args)


def _write(text: str, args) -> None:
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


@functools.cache
def _teleport_template(fmt: str, seeded: bool):
    """The teleport document in `fmt`, with a seed or without, as a %-template;
    the `itemgetter` that orders its fill values for it; the renderer's texts
    of a failed and a passed verdict; and its writer of a str, for the channel
    name. Fill value i is, in turn: the unknown state's [re, im] pairs, then per
    outcome the probability, corrected fidelity and receiver [re, im] pairs (the
    168 floats, in document order); the 32 row verdicts; the section and overall
    verdicts; the channel name and the seed.

    The template is `render_json` or `render_text` of the document with the
    marker "@i@" for value i, its other text escaped. A quoted marker was
    written as JSON, so a float there becomes %.17g, and a bare one as a text
    scalar, %.10g; the other slots are %s, filled with their text."""
    from .render import _encode_str, _encoder, _verdict
    mark = "@{}@".format
    v = 8 + 16 * 10  # the first verdict slot, after the floats
    rows = []
    for n, (a, b) in enumerate(OUTCOMES):
        name, f = f"outcome {tag((a, b))}", 8 + 10 * n
        rows += [
            {**check(f"{name} probability", 0.0, 1.0 / 16.0, FIDELITY_ATOL), "value": mark(f), "pass": mark(v + 2 * n)},
            {**check(f"{name} corrected fidelity", 0.0, 1.0, FIDELITY_ATOL),
             "value": mark(f + 1), "pass": mark(v + 2 * n + 1)},
            check(f"{name} receiver state", [[mark(f + k), mark(f + k + 1)] for k in range(2, 10, 2)]),
        ]
    meta = {"channel": mark(v + 34), **({"seed": mark(v + 35)} if seeded else {})}
    doc = document("teleport", [{**section("outcomes", rows), "pass": mark(v + 32)}], **meta,
                   unknown_state=[[mark(k), mark(k + 1)] for k in range(0, 8, 2)])
    render, verdict, name = (render_text, _verdict, str) if fmt == "text" else (render_json, _encoder(), _encode_str)
    text = render({**doc, "pass": mark(v + 33)}).replace("%", "%%")
    # the document's own text holds no "@": the markers are the odd parts, "J" marks a quoted one
    parts = text.replace('"@', "@J").replace('@"', "@").split("@")
    slots = parts[1::2]
    order = [int(m.lstrip("J")) for m in slots]
    parts[1::2] = ["%s" if i >= v else "%.17g" if m[0] == "J" else "%.10g" for m, i in zip(slots, order)]
    return "".join(parts), operator.itemgetter(*order), (verdict(False), verdict(True)), name


def _teleport_report(fmt: str, channel: str, seed, unknown, probs, fids, receivers) -> tuple[str, bool]:
    """The text of one run's teleport document in `fmt` (meta `seed` unless
    None), and its verdict. A probability or corrected fidelity passes iff
    |value - target| <= FIDELITY_ATOL, as its `check` row would; the channel
    name is written as the renderer writes a str."""
    pairs = np.ascontiguousarray  # a complex array viewed as float: [re, im] interleaved
    table = np.column_stack([probs, fids, pairs(receivers).view(float)])
    floats = np.concatenate([pairs(unknown).view(float), table.ravel()])
    finite = np.isfinite(floats)
    if not finite.all():  # raise on the first non-finite value, as the encoder meets it
        render_json(float(floats[finite.argmin()]))
    gates = (np.abs(table[:, :2] - (1.0 / 16.0, 1.0)) <= FIDELITY_ATOL).ravel().tolist()
    template, pick, words, name = _teleport_template(fmt, seed is not None)
    passed = all(gates)
    fill = [*floats.tolist(), *[words[g] for g in gates], words[passed], words[passed], name(channel), seed]
    return template % pick(fill), passed


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
    if dev > ATOL:
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

    seed = None if args.state is not None else _resolve_seed(args)
    unknown = _parse_state_arg(args.state) if seed is None else UnknownState.random(seed)
    c = unknown.coefficients
    probs, bob, corrected = standard_protocol_batch(c[None], resolved.spec.dressing[None])
    fids = np.abs(corrected[0].conj() @ c) ** 2
    text, passed = _teleport_report(args.format, resolved.name, seed, c, probs[0], fids, bob[0])
    _write(text, args)
    return 0 if passed else 1


def cmd_analyze(args) -> int:
    from .entanglement import analyze_document
    resolved = resolve_channel(args.channel)
    _write_document(analyze_document(resolved, _resolve_seed(args), args.restarts), args)
    return 0


def cmd_repro(args) -> int:
    from .report import SuiteConfig, build_report
    cfg = SuiteConfig(seed=_resolve_seed(args), restarts=args.restarts, tol=args.tol)
    doc = build_report(cfg, only=args.section)
    _write_document(doc, args)
    return 0 if doc["pass"] else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _add_common(sub, with_channel=None, with_search=False, with_tol=False):
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
    if with_tol:
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
    _add_common(rep, with_search=True, with_tol=True)
    rep.add_argument(
        "--section",
        action="append",
        default=None,
        metavar="NAME",
        help="run only the named section (repeatable)",
    )
    rep.set_defaults(func=cmd_repro)
    parser.commands = commands.choices  # each command's parser by name, for `main`
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    command = parser.commands.get(argv[0]) if argv else None
    if command is None:  # no command first: only the two-level parse prints the top-level usage
        args = parser.parse_args(argv)
    else:  # the command's arguments, parsed once, by its own parser
        args, extras = command.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        return args.func(args)
    except (ContractError, LabelError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
