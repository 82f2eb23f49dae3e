"""Time the command line's layers in process: parser, renderers (on the
documents `entqc teleport` builds), the checks at its boundary (a 4x4
unitarity check, a channel file read and checked, a seeded input state) and
channel resolution (built-in channel and channel file), `cli.main`
(`teleport`, `analyze` and each `repro` section), the batched protocol
kernels and the protocol's object API, the stacked analysis calls and witness
kernels (with their n = 1 wrappers looped over the same items) and the
`repro` section builders; and, as one-shot use pays them, a first `cli.main`
call (parser built anew) and a whole `python -m entqc.cli` process.

Run from anywhere; the library is imported from this checkout's `src/`:

    python3 bench/cli_layers.py --out BENCH.json [--blas-threads N]

stdlib and numpy only. BLAS is held to N threads (default 1), set before
numpy is imported. Each figure is wall time per call, the minimum over
REPEATS batches, each batch long enough (>= 0.2 s, as `timeit` picks it) to
swamp the clock; a process is run REPEATS times and its minimum kept. The
result is written as `{machine, numpy, end_to_end, layers}`; metric names end
in their unit.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
import timeit
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

if __name__ == "__main__":
    # parsed before numpy is imported: BLAS reads its thread count at load time
    ARGS = PARSER.parse_args()
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = str(ARGS.blas_threads)

SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

from entqc import cli, entanglement, report, teleport  # noqa: E402
from entqc.channel import (  # noqa: E402
    ChannelSpec, bell_transform_matrix, builtin_channel, load_channel_json, resolve_channel)
from entqc.tensor import (  # noqa: E402
    haar_draws, haar_random_unitary, operator_schmidt_rank, reduced_densities, reduced_density, require_unitary)

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


def _live_document(argv) -> dict:
    """The document `cli.main(argv)` renders, as it was built: read back from
    the JSON instead, every float that prints as an integer (1.0) would come
    back as an int and take the renderer's int path."""
    built, write = [], cli._write_document
    cli._write_document = lambda doc, args: built.append(doc)
    try:
        code = cli.main(list(argv))
    finally:
        cli._write_document = write
    if code != 0:
        raise RuntimeError(f"entqc {' '.join(argv)} exited {code}")
    return built[0]


def _first_main(argv):
    """`cli.main` as the first call of a process makes it: parser built anew."""
    clear = getattr(cli.build_parser, "cache_clear", None)
    if clear is not None:
        clear()
    return _quiet_main(argv)


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


def protocol_kernels() -> dict:
    """The batched protocol kernels on the `repro` sections' input sizes:
    the teleport sweep (T = 1 002), one `teleport` call (T = 1) and the
    invariance section (n = 100 transforms, per-trial corrections, and the
    transfer blocks of its 100 x 16 transformed pairs); the transfer blocks of
    one ket and of the 16 kets of a basis against one channel, as
    `partial_inner_transfer` and `corrections_from` take them; and the object API
    on the sweep's first draw: `teleport_all_outcomes` (sixteen
    TeleportOutcomes) and the checked basis `measurement_basis` builds."""
    dressings, unknowns = haar_draws(2, [int(SEED), 1], 1002, 1)
    dressings = dressings[:, 0]
    spec, unknown = ChannelSpec(dressings[0]), teleport.UnknownState(unknowns[0])
    pairs, inputs = haar_draws(2, [int(SEED), 2], 100, 2)
    kets = teleport.measurement_kets(bell_transform_matrix())
    sigma = teleport.standard_corrections().ops
    t_kets, t_channels = teleport.invariance_pairs(kets, sigma, pairs[:, 0], pairs[:, 1])
    physical = t_channels[:, 0]
    recovery = teleport.recovery_ops(t_kets, physical[:, None])
    batch = teleport.standard_protocol_batch
    return {
        "teleport.transfer_blocks.T100x16.us":
            _per_call(lambda: teleport.transfer_blocks(t_kets, t_channels)) * 1e6,
        "teleport.transfer_blocks.one.us":
            _per_call(lambda: teleport.transfer_blocks(kets[0], physical[0])) * 1e6,
        "teleport.transfer_blocks.basis16.us":
            _per_call(lambda: teleport.transfer_blocks(kets, physical[0])) * 1e6,
        "teleport.standard_protocol_batch.T1.us":
            _per_call(lambda: batch(unknowns[:1], dressings[:1])) * 1e6,
        "teleport.standard_protocol_batch.T1002.us":
            _per_call(lambda: batch(unknowns, dressings)) * 1e6,
        "teleport.invariance_pairs.n100.us":
            _per_call(lambda: teleport.invariance_pairs(kets, sigma, pairs[:, 0], pairs[:, 1])) * 1e6,
        "teleport.run_protocol_batch.per_trial.T100.us":
            _per_call(lambda: teleport.run_protocol_batch(inputs, t_kets, physical, recovery)) * 1e6,
        "teleport.teleport_all_outcomes.us":
            _per_call(lambda: teleport.teleport_all_outcomes(unknown, spec)) * 1e6,
        "teleport.measurement_basis.us": _per_call(lambda: teleport.measurement_basis(spec)) * 1e6,
    }


def analysis_layers() -> dict:
    """The stacked analysis calls on the `repro` sections' inputs: the six
    pairs and four triads of the bell-transformed channel and the 32
    corrections of both series tables; beside each, its n = 1 wrapper called
    once per item."""
    state = builtin_channel("bell-transformed").state
    pairs, triads = entanglement.CHANNEL_PAIRS, entanglement.CHANNEL_TRIADS
    ops = np.concatenate([teleport.series_form(builtin_channel(name).spec)[1].ops
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
    return {f"{name}.us": _per_call(fn) * 1e6 for name, fn in calls.items()}


def witness_layers() -> dict:
    """The witness kernels on the `gradient` section's stack sizes (values at
    1 800 shifted points, gradients at 100 points, on a triad marginal), and
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
    search, serial = entanglement.stacked_minimize_witness, entanglement.minimize_witness
    calls = {
        "entanglement.witness_value.n1800": lambda: entanglement.witness_value(rho, angles),
        "entanglement.witness_gradient.n100": lambda: entanglement.witness_gradient(rho, angles[:100]),
        "entanglement.stacked_minimize_witness.m6": lambda: search(section, 64, int(SEED)),
        "entanglement.minimize_witness.m6_serial": lambda: [serial(m, 64, int(SEED)) for m in section],
        "entanglement.stacked_minimize_witness.m4": lambda: search(triads, 64, int(SEED)),
        "entanglement.minimize_witness.m4_serial": lambda: [serial(m, 64, int(SEED)) for m in triads],
    }
    return {f"{name}.us": _per_call(fn) * 1e6 for name, fn in calls.items()}


def _channel_file(directory: str) -> str:
    """A channel file as users write them: a Haar dressing as 16 [re, im]
    pairs. Its teleport document holds about three times the distinct
    floats of a built-in channel's."""
    dressing = haar_random_unitary(2, [int(SEED), 3])
    path = os.path.join(directory, "haar.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"name": "haar", "dressing": [[z.real, z.imag] for z in dressing.reshape(-1)]}, fh)
    return path


def measure(directory: str) -> dict:
    # on a parser that is built once per process, the un-cached builder
    build = getattr(cli.build_parser, "__wrapped__", cli.build_parser)
    parser = build()
    channel_file = _channel_file(directory)
    file_argv = ["teleport", "--channel", channel_file, "--seed", SEED]
    doc = _live_document(TELEPORT_ARGV)
    file_doc = _live_document(file_argv)
    cfg = report.SuiteConfig()
    unitary = haar_random_unitary(2, [int(SEED), 3])  # the channel file's dressing
    layers = {
        "cli.build_parser.us": _per_call(build) * 1e6,
        "cli.parse_args.us": _per_call(lambda: parser.parse_args(TELEPORT_ARGV)) * 1e6,
        "cli.render_json.teleport.us": _per_call(lambda: cli.render_json(doc)) * 1e6,
        "cli.render_text.teleport.us": _per_call(lambda: cli.render_text(doc)) * 1e6,
        "cli.render_json.teleport_file.us": _per_call(lambda: cli.render_json(file_doc)) * 1e6,
        "cli.render_text.teleport_file.us": _per_call(lambda: cli.render_text(file_doc)) * 1e6,
        "channel.resolve_channel.file.us": _per_call(lambda: resolve_channel(channel_file)) * 1e6,
        "channel.resolve_channel.builtin.us": _per_call(lambda: resolve_channel("bell-transformed")) * 1e6,
        "channel.load_channel_json.us": _per_call(lambda: load_channel_json(channel_file)) * 1e6,
        "tensor.require_unitary.4x4.us": _per_call(lambda: require_unitary(unitary)) * 1e6,
        "teleport.UnknownState.random.us": _per_call(lambda: teleport.UnknownState.random(int(SEED))) * 1e6,
    }
    layers.update(protocol_kernels())
    layers.update(analysis_layers())
    layers.update(witness_layers())
    for name, builder in report.SECTION_BUILDERS.items():
        layers[f"report.section.{name}.ms"] = _per_call(lambda: builder(cfg)) * 1e3

    end_to_end = {
        "cli.main.teleport.json.ms": _per_call(lambda: _quiet_main(TELEPORT_ARGV)) * 1e3,
        "cli.main.teleport.text.ms":
            _per_call(lambda: _quiet_main(TELEPORT_ARGV + ["--format", "text"])) * 1e3,
        "cli.main.teleport.file.json.ms": _per_call(lambda: _quiet_main(file_argv)) * 1e3,
        # one-shot use: what each `entqc` command pays
        "cli.main.teleport.json.first_call.ms": _per_call(lambda: _first_main(TELEPORT_ARGV)) * 1e3,
        "entqc.process.teleport.json.ms": _process(TELEPORT_ARGV) * 1e3,
        "cli.main.analyze.ms": _per_call(lambda: _quiet_main(ANALYZE_ARGV)) * 1e3,
    }
    for name in report.SECTION_BUILDERS:
        argv = ["repro", "--section", name, "--seed", SEED]
        end_to_end[f"cli.main.repro.{name}.ms"] = _per_call(lambda: _quiet_main(argv)) * 1e3
    return {"end_to_end": end_to_end, "layers": layers}


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
        result.update(measure(directory))
    text = json.dumps(result, indent=2) + "\n"
    Path(ARGS.out).write_text(text, encoding="utf-8")
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
