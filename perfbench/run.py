"""entqc benchmark: run one workload by name and seed, print every metric.

    python3 perfbench/run.py --workload teleport_sweep --seed 1 --seconds 55 --trace 0

Run from the repository root; the library is imported from ./src. One
process, one closed-loop client: each op starts when the previous one
returns. Ops run until --seconds have passed; the run then finishes the
workload's unit in flight (one op, or one cli_mix round of 29), so every run
measures whole shares of the mix.

--trace 0 reports the end-to-end metrics. --trace 1 is a separate run that
alternates untraced and traced ops, reports per-layer metrics from the spans
and the tracing overhead, and writes the spans to .perfbench_work/.
Every line before the last is human-readable; the last line is one JSON
object {"correct", "attempted", "failed", "metrics"}.

Op latencies and set-up times are process CPU time (user + system), not
wall time: the load is one process with one thread (OpenBLAS is held to one
thread below), so on an idle machine the two agree, but CPU time leaves out
the time the process waits for a CPU (other processes, hypervisor steal).
The op metrics are further given in "ref" units, op CPU time over the CPU
time of a fixed reference kernel timed beside it (reference.py), because the
host's CPU speed itself moves by more than any bound in BENCHMARK.json.
"""
from __future__ import annotations

import os

# One BLAS thread: set before numpy is first imported, which reads it once.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import importlib
import json
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

import reference
import selftest
from tracing import Tracer
from workloads import WORKLOADS, REPRO_SECTIONS

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench_work"
#: set-up repeats made before the timed ops, and again after them
SETUP_REPEATS = 12

#: (name, unit, better) of the end-to-end metrics, measured with tracing off
END_TO_END = [
    ("op_mean_ref", "ref", "lower"),
    ("op_p50_ref", "ref", "lower"),
    ("op_tail_ref", "ref", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

#: spans reported as median self time per call, in microseconds
SELF_US = [
    "tensor.StateVector", "tensor.apply_unitary", "tensor.partial_inner",
    "tensor.reduced_density", "tensor.hermitian_eigenvalues",
    "channel.dressed_channel", "channel.is_valid_channel", "channel.resolve_channel",
    "teleport.measurement_basis", "teleport.standard_corrections",
    "teleport.run_protocol", "teleport.teleport_all_outcomes",
    "entanglement.witness_value", "entanglement.witness_gradient",
    "entanglement.pair_analysis", "entanglement.triad_analysis",
    "cli.render_json", "cli.render_text",
]
#: spans reported as median wall time per call (children included), in ms
WALL_MS = (
    [f"report.section.{name}" for name in REPRO_SECTIONS]
    + ["cli.main.teleport", "cli.main.repro"]
)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    spec = []
    for name in SELF_US:
        spec += [(f"{name}.us", "us", "lower"), (f"{name}.calls", "count", "higher")]
    for name in WALL_MS:
        spec += [(f"{name}.ms", "ms", "lower"), (f"{name}.calls", "count", "higher")]
    spec += [
        ("cli.self.us", "us", "lower"),
        ("trace.ops_per_s", "1/s", "higher"),
        ("trace.untraced_ops_per_s", "1/s", "higher"),
        ("trace.overhead_pct", "%", "lower"),
        ("trace.spans", "count", "higher"),
    ]
    return spec


class Tally:
    """Latency, attempts and failures of a sequence of ops."""

    def __init__(self):
        self.latencies: list[float] = []
        self.probe_at: list[int] = []  # index of the last reference probe before each op
        self.attempted = 0
        self.failed = 0

    def attempt(self, call, check):
        """Time call(); count a failure if it raises or check(output) is False.
        Returns the output of an op that passed, else None."""
        self.attempted += 1
        t0 = process_time()
        try:
            out = call()
        except Exception:
            self.latencies.append(process_time() - t0)
            self.fail()
            return None
        self.latencies.append(process_time() - t0)
        try:
            ok = check(out)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        if not ok:
            self.failed += 1
            return None
        return out

    def fail(self):
        """Count an op that raised; its traceback goes to stderr."""
        traceback.print_exc(file=sys.stderr)
        self.failed += 1

    def ops_per_s(self) -> float:
        return len(self.latencies) / sum(self.latencies) if self.latencies else 0.0


def tail(latencies, unit: int):
    """(latency, percentile) of the op tail.

    The run is cut into windows of consecutive whole units of at least 100
    ops, the last window taking the rest; in each, take the latency at the
    highest percentile with at least ten samples beyond it (a quarter of the
    samples in runs under 40 ops), and report the median over windows, so
    that a burst in one window does not set the figure.
    """
    x = np.asarray(latencies)
    size = unit * -(-100 // unit)
    bounds = [i * size for i in range(max(1, len(x) // size))] + [len(x)]
    values, percentiles = [], []
    for a, b in zip(bounds, bounds[1:]):
        ordered = np.sort(x[a:b])
        n = len(ordered)
        beyond = min(10, n // 4)
        values.append(float(ordered[n - 1 - beyond]))
        percentiles.append(100.0 * (n - beyond) / n)
    return statistics.median(values), statistics.median(percentiles)


def time_setups(wl, repeats: int) -> list[tuple[float, float]]:
    """(CPU seconds, reference probe taken right after) of importing the
    library afresh plus the workload's one warm-up call, `repeats` times;
    leaves wl bound to the last import."""
    times = []
    for _ in range(repeats):
        t0 = process_time()
        wl.setup(load_library())
        times.append((process_time() - t0, reference.probe()))
    return times


def load_library():
    """Import entqc and entqc.cli afresh from ./src."""
    for name in [m for m in sys.modules if m == "entqc" or m.startswith("entqc.")]:
        del sys.modules[name]
    lib = importlib.import_module("entqc")
    importlib.import_module("entqc.cli")
    return lib


def blas_threads():
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    for path in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


def run_ops(wl, seconds: float, tracer):
    """Closed loop until `seconds` pass, then to the end of the unit in
    flight. With a tracer, the ops for which wl.traced(k) holds are traced
    and the others run untraced. Between ops, once reference.PROBE_EVERY
    seconds of op time have passed, the reference kernel is timed; the run
    starts and ends with a probe, so every op has one on either side."""
    plain, traced = Tally(), Tally()
    probes = [reference.probe()]
    spent = 0.0
    deadline = perf_counter() + seconds
    k = 0
    while k == 0 or k % wl.unit or perf_counter() < deadline:
        if spent >= reference.PROBE_EVERY:
            probes.append(reference.probe())
            spent = 0.0
        check = lambda out, k=k: wl.check(k, out)  # noqa: E731
        if tracer is not None and wl.traced(k):
            tracer.op = k
            with wl.tracing(tracer):
                out = traced.attempt(lambda: tracer.call("op", wl.traced_op, k, tracer), check)
            if out is not None:
                try:
                    wl.probe(k, out, tracer)
                except Exception:
                    traced.fail()
            spent += traced.latencies[-1]
        else:
            plain.probe_at.append(len(probes) - 1)
            plain.attempt(lambda: wl.op(k), check)
            spent += plain.latencies[-1]
        k += 1
    probes.append(reference.probe())
    return plain, traced, probes


def in_ref_units(tally: Tally, probes) -> np.ndarray:
    """Each op's latency over the mean of the reference probes around it."""
    p, at = np.asarray(probes), np.asarray(tally.probe_at)
    return np.asarray(tally.latencies) / ((p[at] + p[at + 1]) / 2.0)


def layer_metrics(tracer: Tracer, plain: Tally, traced: Tally) -> dict:
    selfs, walls = tracer.self_times(), tracer.durations()
    values = {}
    for name in SELF_US:
        times = selfs.get(name, [])
        values[f"{name}.us"] = statistics.median(times) * 1e6 if times else 0.0
        values[f"{name}.calls"] = len(times)
    for name in WALL_MS:
        times = walls.get(name, [])
        values[f"{name}.ms"] = statistics.median(times) * 1e3 if times else 0.0
        values[f"{name}.calls"] = len(times)
    main_self = [t for name, ts in selfs.items() if name.startswith("cli.main.") for t in ts]
    values["cli.self.us"] = statistics.median(main_self) * 1e6 if main_self else 0.0
    values["trace.ops_per_s"] = traced.ops_per_s()
    values["trace.untraced_ops_per_s"] = plain.ops_per_s()
    values["trace.overhead_pct"] = (
        100.0 * (plain.ops_per_s() / traced.ops_per_s() - 1.0)
        if traced.latencies and plain.latencies else 0.0
    )
    values["trace.spans"] = len(tracer.spans)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "entqc" / "__init__.py").is_file():
        sys.stderr.write(f"error: no entqc sources under {src}; run from a checkout\n")
        return 2
    sys.path.insert(0, str(src))

    WORKDIR.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=WORKDIR)
    try:
        wl = WORKLOADS[args.workload](args.seed, scratch)

        setup_times = time_setups(wl, SETUP_REPEATS)
        if Path(wl.lib.__file__).resolve().parent != src / "entqc":
            sys.stderr.write(f"error: imported entqc from {wl.lib.__file__}, not {src}\n")
            return 2

        missed = [case for case, detected in selftest.wrong_answers_detected(wl, Tally) if not detected]
        if missed:
            sys.stderr.write(f"error: the checks passed wrong answers: {missed}\n")
            return 1

        tracer = Tracer() if args.trace else None
        plain, traced, probes = run_ops(wl, args.seconds, tracer)
        # Outside load comes in episodes of seconds; set-up is timed on both
        # sides of the run so that its median does not rest on one episode.
        setup_times += time_setups(wl, SETUP_REPEATS)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = plain.attempted + traced.attempted
    failed = plain.failed + traced.failed
    env = environment()
    print("env " + " ".join(f"{key}={value}" for key, value in env.items()))
    print(f"run workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} attempted={attempted} failed={failed} "
          f"fail_frac={failed / attempted:.6g}")

    if args.trace:
        values = layer_metrics(tracer, plain, traced)
        units = {name: unit for name, unit, _ in per_layer_spec()}
        spans_path = WORKDIR / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans_path, {"workload": args.workload, "seed": args.seed, "env": env})
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        refs = in_ref_units(plain, probes)
        tail_ref, tail_pct = tail(refs, wl.unit)
        values = {
            "op_mean_ref": float(np.mean(refs)),
            "op_p50_ref": float(np.median(refs)),
            "op_tail_ref": tail_ref,
            "setup_s": statistics.median(t / probe for t, probe in setup_times)
            * reference.NOMINAL_PASS_S,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = {name: unit for name, unit, _ in END_TO_END}
        print(f"tail op_tail_ref is the median over windows of p{tail_pct:.4g}; "
              f"{len(plain.latencies)} ops")
        print(f"unnormalised ops_per_s={plain.ops_per_s():.6g} 1/s "
              f"op_p50={statistics.median(plain.latencies) * 1e3:.6g} ms "
              f"op_tail={tail(plain.latencies, wl.unit)[0] * 1e3:.6g} ms; reference pass: median "
              f"{statistics.median(probes) * 1e3:.4g} ms, {len(probes)} probes; "
              f"set-up {statistics.median(t for t, _ in setup_times):.6g} s")
    for name, value in values.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
