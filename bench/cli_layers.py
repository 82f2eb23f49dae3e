"""Time the command line's layers in process: parser build and parse (the
parse `cli.main` makes, of a `teleport` and a `repro` argv, and the two-level
parse of `build_parser().parse_args`), the teleport report's
text in both formats (filled from its template, on a built-in channel's and a
channel file's run), a report row of exact floats, the checks at
its boundary (a 4x4 unitarity check, a channel dressing and an input state
through their checked constructors, a channel file read and checked, a seeded
input state, a checked four-amplitude state) and
channel resolution (built-in channel and channel file), `cli.main`
(`teleport`, `analyze` and each `repro` section), the batched protocol
kernels and the protocol's object API, the calls that return one derived
state or density, the checks of a channel and of its pairing, the stacked analysis calls and witness
kernels (with their n = 1 wrappers looped over the same items) and the
`repro` section builders; and, as one-shot use pays them, a first `cli.main`
call (parser built anew), a fresh `import entqc, entqc.cli` (compiled from
source, and from cached bytecode), the same import with `entqc.report` (what
`entqc repro` loads, from source) and a whole `python -m entqc.cli` process.

Run from anywhere; the library is imported from this checkout's `src/`:

    python3 bench/cli_layers.py --out BENCH.json [--blas-threads N] [--only NAME ...]

`--only` times just the named rows (end-to-end or layer); an unknown name
exits 2 and lists the known ones. One row in fresh processes, alternating
between two checkouts, is an A/B that one process's noise cannot fake:

    python3 bench/cli_layers.py --out a.json --only teleport.teleport_all_outcomes.us

stdlib and numpy only. BLAS is held to N threads (default 1), set before
numpy is imported. Each figure is wall time per call, the minimum over
REPEATS batches, each batch long enough (>= 0.2 s, as `timeit` picks it) to
swamp the clock; a process is run REPEATS times and its minimum kept. The
result is written as `{machine, numpy, end_to_end, layers}`; metric names end
in their unit (`.us` or `.ms`). Rows are timed in the order of this file,
the end-to-end rows first, so a result's key order is its timing order: a row
can read the state (the heap, the caches) that the rows before it left.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
import timeit
from functools import partial
from pathlib import Path


def _blas_threads(text: str) -> int:
    n = int(text)
    if not 1 <= n <= (os.cpu_count() or 1):
        raise argparse.ArgumentTypeError(f"must lie in 1..{os.cpu_count() or 1}, got {n}")
    return n


PARSER = argparse.ArgumentParser(description="Time the entqc command line's layers in process.")
PARSER.add_argument("--out", required=True, help="path of the JSON result")
PARSER.add_argument("--blas-threads", type=_blas_threads, default=1,
                    help="BLAS threads, 1..cpu count (default 1)")
PARSER.add_argument("--only", nargs="+", metavar="NAME", help="time only these rows (default: all)")

if __name__ == "__main__":
    # parsed before numpy is imported: BLAS reads its thread count at load time
    ARGS = PARSER.parse_args()
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = str(ARGS.blas_threads)

SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from entqc import cli, entanglement, relations, report, teleport  # noqa: E402
from entqc.channel import (  # noqa: E402
    ChannelSpec, GhzSpec, bell_transform_matrix, builtin_channel, dressed_channel, generalized_ghz, is_valid_channel,
    load_channel_json, resolve_channel)
from entqc.primitives import (  # noqa: E402
    apply_unitary, haar_draws, haar_random_unitary, operator_schmidt_rank, partial_trace)
from entqc.tensor import (  # noqa: E402
    DensityMatrix, QubitRegister, StateVector, reduced_densities, reduced_density, require_unitary, tensor)

REPEATS = 7
SEED = "7"
TELEPORT_ARGV = ["teleport", "--channel", "bell-transformed", "--seed", SEED]
ANALYZE_ARGV = ["analyze", "--channel", "bell-transformed", "--seed", SEED]


def _per_call(fn) -> float:
    """Seconds per call: minimum over REPEATS auto-sized batches."""
    timer = timeit.Timer(fn)
    number, _ = timer.autorange()
    return min(timer.repeat(REPEATS, number)) / number


def _quiet_main(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"entqc {' '.join(argv)} exited {code}")
    return out.getvalue()


def _report_inputs(argv) -> tuple:
    """What `cli.main(argv)` passes to `cli._teleport_report` after the format:
    the channel name, seed and protocol arrays that fill the teleport template."""
    seen, fill = [], cli._teleport_report
    cli._teleport_report = lambda *args: seen.append(args) or fill(*args)
    try:
        _quiet_main(argv)
    finally:
        cli._teleport_report = fill
    return seen[0][1:]


def _first_main(argv):
    """`cli.main` as the first call of a process makes it: the parser and the
    teleport report's template built anew."""
    cli.build_parser.cache_clear()
    cli._teleport_template.cache_clear()
    return _quiet_main(argv)


def _parse_only(build):
    """A parser from `build` whose commands return their Namespace: `cli.main`
    on it parses its argv and runs no command. The command functions are
    swapped only while `build` reads them, and nothing else of `cli` is
    assumed, so the rows time the `main` of any checkout."""
    names = ("cmd_teleport", "cmd_analyze", "cmd_repro")
    saved = {name: getattr(cli, name) for name in names}
    for name in names:
        setattr(cli, name, lambda args: args)
    try:
        return build()
    finally:
        for name, command in saved.items():
            setattr(cli, name, command)


def _main_parse(parser, argv):
    """`cli.main(argv)` on `parser` (see `_parse_only`): the parse `main` makes."""
    cached, cli.build_parser = cli.build_parser, lambda: parser
    try:
        return cli.main(argv)
    finally:
        cli.build_parser = cached


def _process(argv) -> float:
    """Seconds of one `python -m entqc.cli` process (interpreter start,
    imports, one `main` call): minimum over REPEATS runs."""
    cmd = [sys.executable, "-m", "entqc.cli", *argv]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, check=True, stdout=subprocess.DEVNULL)
        best = min(best, time.perf_counter() - start)
    return best


def _import_entqc(pycache_prefix: str, write_bytecode: bool, modules=("entqc", "entqc.cli")) -> None:
    """A fresh import of `modules` (by default `import entqc, entqc.cli`) in this
    process, bytecode read from and (if `write_bytecode`) written to
    `pycache_prefix` only, never the checkout; the modules imported before are
    restored after."""
    saved = {name: sys.modules.pop(name) for name in list(sys.modules) if name.partition(".")[0] == "entqc"}
    flags = sys.pycache_prefix, sys.dont_write_bytecode
    sys.pycache_prefix, sys.dont_write_bytecode = pycache_prefix, not write_bytecode
    try:
        for name in modules:
            importlib.import_module(name)
    finally:
        sys.pycache_prefix, sys.dont_write_bytecode = flags
        for name in [name for name in sys.modules if name.partition(".")[0] == "entqc"]:
            del sys.modules[name]
        sys.modules.update(saved)


def protocol_kernels() -> dict:
    """The batched protocol kernels on the `repro` sections' input sizes:
    the teleport sweep (T = 1 002), one `teleport` call (T = 1) and the
    invariance section (n = 100 transforms, per-trial corrections, and the
    transfer blocks of its 100 x 16 transformed pairs); the transfer blocks of
    one ket and of the 16 kets of a basis against one channel, as
    `partial_inner_transfer` and `corrections_from` take them; and the object API
    on the sweep's first draw: `teleport_all_outcomes` and `run_protocol` (sixteen
    TeleportOutcomes each), the checked basis `measurement_basis` builds, its
    sixteen kets as StateVectors, one of them alone, and `invariance_transform` of that basis."""
    dressings, unknowns = haar_draws(2, [int(SEED), 1], 1002, 1)
    dressings = dressings[:, 0]
    spec, unknown = ChannelSpec(dressings[0]), teleport.UnknownState(unknowns[0])
    basis, channel_state = teleport.measurement_basis(spec), dressed_channel(spec)
    pairs, inputs = haar_draws(2, [int(SEED), 2], 100, 2)
    kets = teleport.measurement_kets(bell_transform_matrix())
    sigma = teleport.standard_corrections()
    t_kets, t_channels = relations.invariance_pairs(kets, sigma.ops, pairs[:, 0], pairs[:, 1])
    physical = t_channels[:, 0]
    recovery = relations.recovery_ops(t_kets, physical[:, None])
    batch = teleport.standard_protocol_batch
    # the relations' rows keep their `teleport.` names, so that BENCH files of either layout compare
    return {
        "teleport.transfer_blocks.T100x16.us": lambda: relations.transfer_blocks(t_kets, t_channels),
        "teleport.transfer_blocks.one.us": lambda: relations.transfer_blocks(kets[0], physical[0]),
        "teleport.transfer_blocks.basis16.us": lambda: relations.transfer_blocks(kets, physical[0]),
        "teleport.standard_protocol_batch.T1.us": lambda: batch(unknowns[:1], dressings[:1]),
        "teleport.standard_protocol_batch.T1002.us": lambda: batch(unknowns, dressings),
        "teleport.invariance_pairs.n100.us":
            lambda: relations.invariance_pairs(kets, sigma.ops, pairs[:, 0], pairs[:, 1]),
        "teleport.run_protocol_batch.per_trial.T100.us":
            lambda: teleport.run_protocol_batch(inputs, t_kets, physical, recovery),
        "teleport.teleport_all_outcomes.us": lambda: teleport.teleport_all_outcomes(unknown, spec),
        "teleport.run_protocol.us": lambda: teleport.run_protocol(unknown, basis, channel_state, sigma),
        "teleport.measurement_basis.us": lambda: teleport.measurement_basis(spec),
        "teleport.MeasurementBasis.kets.us": lambda: basis.kets,
        "teleport.MeasurementBasis.ket.us": lambda: basis.ket((2, 3)),
        "teleport.invariance_transform.us":
            lambda: relations.invariance_transform(basis, sigma, pairs[0, 0], pairs[0, 1]),
    }


def derived_values() -> dict:
    """The calls that return one state or density derived from checked inputs,
    on the sweep's first dressing: a two-qubit unitary applied to its channel
    state, that state's density matrix and a two-qubit marginal of it, its
    product with a seeded input state, and a generalized GHZ state on four
    Haar local bases."""
    dressing = haar_draws(2, [int(SEED), 1], 1, 1)[0][0, 0]
    state = dressed_channel(ChannelSpec(dressing))
    rho = DensityMatrix.from_state(state)
    unitary = haar_random_unitary(2, [int(SEED), 3])
    unknown = teleport.UnknownState.random(int(SEED)).as_state(("X1", "X2"))
    ghz = GhzSpec((0.6, 0.8), [haar_random_unitary(1, [int(SEED), 5, q]) for q in range(4)])
    return {
        "primitives.apply_unitary.us": lambda: apply_unitary(state, unitary, ("B2", "A1")),
        "primitives.partial_trace.us": lambda: partial_trace(rho, ("B1", "A1")),
        "tensor.tensor.us": lambda: tensor(unknown, state),
        "tensor.DensityMatrix.from_state.us": lambda: DensityMatrix.from_state(state),
        "channel.generalized_ghz.us": lambda: generalized_ghz(ghz),
    }


def pairing_checks() -> dict:
    """The checks the `channel` and `measurement` sections make, on the sweep's
    first dressing: its channel state's maximal-entanglement check, the corrections
    its measurement basis implies against that state (judged within 1e-10) and the
    sigma-pair twirl of the state."""
    spec = ChannelSpec(haar_draws(2, [int(SEED), 1], 1, 1)[0][0, 0])
    basis, state, sigma = teleport.measurement_basis(spec), dressed_channel(spec), teleport.standard_corrections()
    return {
        "channel.is_valid_channel.us": lambda: is_valid_channel(state),
        "relations.corrections_from.us": lambda: relations.corrections_from(basis, state),
        "relations.povm_check.us": lambda: relations.povm_check(sigma.ops, state),
    }


def analysis_layers() -> dict:
    """The stacked analysis calls on the `repro` sections' inputs: the six
    pairs and four triads of the bell-transformed channel and the 32
    corrections of both series tables; beside each, its n = 1 wrapper called
    once per item."""
    state = builtin_channel("bell-transformed").state
    pairs, triads = entanglement.CHANNEL_PAIRS, entanglement.CHANNEL_TRIADS
    ops = np.concatenate([relations.series_form(builtin_channel(name).spec)[1].ops
                          for name in ("bell-transformed", "epr")])
    calls = {
        "tensor.reduced_densities.pairs6": lambda: reduced_densities(state, pairs),
        "tensor.reduced_density.pairs6_serial": lambda: [reduced_density(state, p) for p in pairs],
        "entanglement.stacked_pair_analysis.pairs6":
            lambda: entanglement.stacked_pair_analysis(state, pairs),
        "entanglement.pair_analysis.pairs6_serial":
            lambda: [entanglement.pair_analysis(state, p) for p in pairs],
        "entanglement.stacked_triad_analysis.triads4":
            lambda: entanglement.stacked_triad_analysis(state, triads),
        "entanglement.triad_analysis.triads4_serial":
            lambda: [entanglement.triad_analysis(state, t) for t in triads],
        "tensor.operator_schmidt_rank.series32": lambda: operator_schmidt_rank(ops),
        "tensor.operator_schmidt_rank.series32_serial": lambda: [operator_schmidt_rank(op) for op in ops],
    }
    return {f"{name}.us": fn for name, fn in calls.items()}


def witness_layers() -> dict:
    """The witness kernels on the `gradient` section's stack sizes (values at
    1 800 shifted points, gradients at 100 points, on a triad marginal), the
    value at one point on that marginal as a `DensityMatrix`, and
    the witness search on the `witness` section's six densities and
    `analyze`'s four triads (64 restarts, seed 7): one stacked call, and its
    n = 1 wrapper looped over the same densities."""
    state = builtin_channel("bell-transformed").state
    triads = reduced_densities(state, entanglement.CHANNEL_TRIADS)
    rho = triads[0]
    angles = np.random.default_rng([int(SEED), 3]).uniform(0.0, 2.0 * np.pi, (1800, 9))
    planted = np.random.default_rng([int(SEED), 4242]).uniform(0.0, 2.0 * np.pi, 9)
    phi = entanglement.witness_state(planted)
    section = np.concatenate([triads, [np.outer(phi, phi.conj()), np.eye(8) / 8.0]])
    marginal = reduced_density(state, entanglement.CHANNEL_TRIADS[0])
    search, serial = entanglement.stacked_minimize_witness, entanglement.minimize_witness
    calls = {
        "entanglement.witness_value.n1800": lambda: entanglement.witness_value(rho, angles),
        "entanglement.witness_value.one": lambda: entanglement.witness_value(marginal, angles[0]),
        "entanglement.witness_gradient.n100": lambda: entanglement.witness_gradient(rho, angles[:100]),
        "entanglement.stacked_minimize_witness.m6": lambda: search(section, 64, int(SEED)),
        "entanglement.minimize_witness.m6_serial": lambda: [serial(m, 64, int(SEED)) for m in section],
        "entanglement.stacked_minimize_witness.m4": lambda: search(triads, 64, int(SEED)),
        "entanglement.minimize_witness.m4_serial": lambda: [serial(m, 64, int(SEED)) for m in triads],
    }
    return {f"{name}.us": fn for name, fn in calls.items()}


def _channel_file(directory: str) -> str:
    """A channel file as users write them: a Haar dressing as 16 [re, im]
    pairs. Its teleport document holds about three times the distinct
    floats of a built-in channel's."""
    dressing = haar_random_unitary(2, [int(SEED), 3])
    path = os.path.join(directory, "haar.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"name": "haar", "dressing": [[z.real, z.imag] for z in dressing.reshape(-1)]}, fh)
    return path


def rows(directory: str) -> dict:
    """What each row times, by group: a callable, timed per call, or the argv
    of a whole `python -m entqc.cli` process."""
    build = cli.build_parser.__wrapped__  # the un-cached builder
    parser, parse_only = build(), _parse_only(build)
    channel_file = _channel_file(directory)
    file_argv = ["teleport", "--channel", channel_file, "--seed", SEED]
    inputs = _report_inputs(TELEPORT_ARGV)
    file_inputs = _report_inputs(file_argv)
    cfg = report.SuiteConfig()
    unitary = haar_random_unitary(2, [int(SEED), 3])  # the channel file's dressing
    register, amplitudes = QubitRegister(("a", "b")), teleport.UnknownState.random(int(SEED)).coefficients
    layers = {
        "cli.build_parser.us": build,
        # the parse `cli.main` makes, and the two-level parse of `build_parser().parse_args`
        "cli.parse_args.us": partial(_main_parse, parse_only, TELEPORT_ARGV),
        "cli.parse_args.full.us": lambda: parser.parse_args(TELEPORT_ARGV),
        "cli.parse_args.repro.us": partial(_main_parse, parse_only, ["repro", "--section", "ghz", "--seed", SEED]),
        "cli.teleport_report.json.us": lambda: cli._teleport_report("json", *inputs),
        "cli.teleport_report.text.us": lambda: cli._teleport_report("text", *inputs),
        "cli.teleport_report.file.json.us": lambda: cli._teleport_report("json", *file_inputs),
        "cli.teleport_report.file.text.us": lambda: cli._teleport_report("text", *file_inputs),
        "channel.resolve_channel.file.us": lambda: resolve_channel(channel_file),
        "channel.resolve_channel.builtin.us": lambda: resolve_channel("bell-transformed"),
        "channel.load_channel_json.us": lambda: load_channel_json(channel_file),
        "tensor.require_unitary.4x4.us": lambda: require_unitary(unitary),
        "channel.ChannelSpec.us": lambda: ChannelSpec(unitary),
        "teleport.UnknownState.us": lambda: teleport.UnknownState(amplitudes),
        "teleport.UnknownState.random.us": lambda: teleport.UnknownState.random(int(SEED)),
        "tensor.StateVector.us": lambda: StateVector(register, amplitudes),
        "report.check.float_row.us": lambda: report.check("outcome (1,1) probability", 0.0625, 0.0625, 1e-10),
    }
    layers.update(protocol_kernels())
    layers.update(derived_values())
    layers.update(pairing_checks())
    layers.update(analysis_layers())
    layers.update(witness_layers())
    for name, builder in report.SECTION_BUILDERS.items():
        layers[f"report.section.{name}.ms"] = partial(builder, cfg)

    end_to_end = {
        "cli.main.teleport.json.ms": partial(_quiet_main, TELEPORT_ARGV),
        "cli.main.teleport.text.ms": partial(_quiet_main, TELEPORT_ARGV + ["--format", "text"]),
        "cli.main.teleport.file.json.ms": partial(_quiet_main, file_argv),
        # one-shot use: what each `entqc` command pays
        "cli.main.teleport.json.first_call.ms": partial(_first_main, TELEPORT_ARGV),
        "entqc.process.teleport.json.ms": TELEPORT_ARGV,
        # the import alone: compiled from source each time (an empty bytecode cache that
        # is never written, as under PYTHONDONTWRITEBYTECODE), and from cached bytecode
        "entqc.import.source.ms": partial(_import_entqc, tempfile.mkdtemp(dir=directory), False),
        "entqc.import.bytecode.ms": partial(_import_entqc, tempfile.mkdtemp(dir=directory), True),
        # and with the analysis stack that `entqc teleport` no longer loads: what `entqc repro` imports
        "entqc.import.full.source.ms": partial(_import_entqc, tempfile.mkdtemp(dir=directory), False,
                                               ("entqc", "entqc.cli", "entqc.report")),
        "cli.main.analyze.ms": partial(_quiet_main, ANALYZE_ARGV),
    }
    for name in report.SECTION_BUILDERS:
        end_to_end[f"cli.main.repro.{name}.ms"] = partial(_quiet_main, ["repro", "--section", name, "--seed", SEED])
    return {"end_to_end": end_to_end, "layers": layers}


def timed(group: dict, only) -> dict:
    """The group's rows (those named in `only`, if given) timed, in their units."""
    out = {}
    for name, what in group.items():
        if only is None or name in only:
            seconds = _process(what) if isinstance(what, list) else _per_call(what)
            out[name] = seconds * (1e3 if name.endswith(".ms") else 1e6)
    return out


def main() -> int:
    result = {
        "machine": {
            "platform": platform.platform(),
            "processor": platform.processor() or platform.machine(),
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "blas_threads": ARGS.blas_threads,
        },
        "numpy": np.__version__,
    }
    with tempfile.TemporaryDirectory() as directory:
        groups = rows(directory)
        known = [name for group in groups.values() for name in group]
        unknown = [name for name in ARGS.only or () if name not in known]
        if unknown:
            PARSER.error(f"unknown row(s) {', '.join(unknown)}; known rows: {', '.join(known)}")
        result.update({key: timed(group, ARGS.only) for key, group in groups.items()})
    text = json.dumps(result, indent=2) + "\n"
    Path(ARGS.out).write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
