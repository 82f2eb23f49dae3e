"""Alternating A/B runs of the end-to-end benchmark, or of layer rows, between
two checkouts.

    python3 bench/ab.py PARENT CHANGE --workload cli_mix --pairs 5 --seconds 55 --seed-base 100
    python3 bench/ab.py PARENT CHANGE --layers report.section.teleport.ms --pairs 10

Pair i runs `perfbench/run.py --workload W --seed (seed base + i) --seconds S
--trace 0` once in each checkout, one after the other, with the same seed;
which side runs first alternates from pair to pair, so that a slow spell of
the host does not fall on one side only. Each run's last stdout line is its
JSON result. Every run is printed as it ends; then, per end-to-end metric, both
medians and interquartile ranges, the change in the median, how many pairs the
change won, and the median change against the metric's bound in CHANGE's
`BENCHMARK.json`. Failed ops are printed per run and summed. Last, the
least-squares slope of `peak_rss_mb` against the ops a run attempted, over the
runs of both sides, in MB per 10k ops, and the share of the median
`peak_rss_mb` change that this slope gives the change in median ops: the
harness keeps a record per op, so a faster library completes more ops and
reads as using more memory.

With `--layers NAME...`, pair i instead runs `bench/cli_layers.py --only
NAME...` once in each checkout, each in a fresh process, in the same
alternating order (`--seconds` and `--seed-base` do not apply). Every run's
rows are printed as they end; then, per row (all are times, lower is
better), the same medians, interquartile ranges, change in the median and
pairs won, and the ratio of the medians, parent over change.

Standard library only; nothing under either checkout is changed, apart from
what `perfbench/run.py` itself writes there.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One `perfbench/run.py --trace 0` process in `checkout`: its JSON result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def end_to_end(checkout: Path) -> list[dict]:
    """The end-to-end metrics {name, better, bound} that `BENCHMARK.json` declares."""
    return json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))["end_to_end"]


def run_layers(checkout: Path, names: list[str]) -> dict:
    """One `bench/cli_layers.py --only NAMES` process in `checkout`: its rows, both groups."""
    with tempfile.TemporaryDirectory() as directory:
        out = Path(directory) / "layers.json"
        cmd = [sys.executable, "bench/cli_layers.py", "--out", str(out), "--only", *names]
        proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
        if proc.returncode != 0:
            raise SystemExit(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n{proc.stderr}")
        result = json.loads(out.read_text(encoding="utf-8"))
    return {**result["end_to_end"], **result["layers"]}


def compare(name: str, parent: list[float], change: list[float], lower: bool = True, bound=None) -> str:
    """One metric's A/B line: medians with quartiles, the change in the median,
    the ratio of the medians (parent over change), the pairs the change won and,
    if given, the bound on the relative worsening of the median."""
    (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
    wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
    delta = (cm - pm) / pm if pm else float("nan")
    ratio = pm / cm if cm else float("nan")
    line = (f"  {name}: {pm:.6g} (IQR {p1:.6g}-{p3:.6g}, {p3 - p1:.3g}) -> {cm:.6g} "
            f"(IQR {c1:.6g}-{c3:.6g}, {c3 - c1:.3g}), {delta:+.1%}, gap {cm - pm:+.3g}, "
            f"parent/change {ratio:.3g}x; change better in {wins}/{len(parent)}")
    if bound is None:
        return line
    flag = "  WORSE THAN BOUND" if (delta if lower else -delta) > bound else ""
    return f"{line}; bound {bound:g}{flag}"


def layer_report(parent: list[dict], change: list[dict]) -> None:
    """Print `compare` for every row of the runs, in the order of the first run."""
    for name in parent[0]:
        print(compare(name, [run[name] for run in parent], [run[name] for run in change]))


def rss_per_op(parent: list[dict], change: list[dict]) -> None:
    """Print the least-squares slope of `peak_rss_mb` against `attempted` over all runs."""
    runs = parent + change
    ops = [r["attempted"] for r in runs]
    rss = [r["metrics"]["peak_rss_mb"]["value"] for r in runs]
    if len(set(ops)) < 2:
        print("  peak_rss_mb against ops: too few distinct op counts for a slope")
        return
    slope = statistics.linear_regression(ops, rss).slope
    d_ops = statistics.median(r["attempted"] for r in change) - statistics.median(r["attempted"] for r in parent)
    d_rss = (statistics.median(r["metrics"]["peak_rss_mb"]["value"] for r in change)
             - statistics.median(r["metrics"]["peak_rss_mb"]["value"] for r in parent))
    print(f"  peak_rss_mb against ops, all {len(runs)} runs: {slope * 1e4:+.3g} MB per 10k ops; "
          f"median ops {d_ops:+.0f} -> {slope * d_ops:+.3g} MB of the median peak_rss_mb change {d_rss:+.3g} MB")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Alternating A/B runs of perfbench/run.py "
                                                 "or of bench/cli_layers.py rows.")
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    what = parser.add_mutually_exclusive_group(required=True)
    what.add_argument("--workload", help="workload name, as perfbench/run.py takes it")
    what.add_argument("--layers", nargs="+", metavar="NAME", help="rows, as bench/cli_layers.py --only takes them")
    parser.add_argument("--pairs", type=int, default=5, help="pairs of runs (default 5)")
    parser.add_argument("--seconds", type=float, default=55.0, help="length of each run (default 55)")
    parser.add_argument("--seed-base", type=int, default=0, help="pair i runs seed base + i (default 0)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    script = Path("perfbench/run.py") if args.layers is None else Path("bench/cli_layers.py")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, checkout in sides.items():
        if not (checkout / script).is_file():
            parser.error(f"{side} {checkout} has no {script}")

    results: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed_base + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            if args.layers is None:
                result = run_once(sides[side], args.workload, seed, args.seconds)
                line = " ".join(f"{name}={m['value']:.6g}" for name, m in result["metrics"].items())
                line = f"seed {seed} {side}: {line} attempted={result['attempted']} failed={result['failed']}"
            else:
                result = run_layers(sides[side], args.layers)
                line = f"{side}: " + " ".join(f"{name}={value:.6g}" for name, value in result.items())
            results[side].append(result)
            print(f"pair {i + 1} {line}", flush=True)

    if args.layers is not None:
        print(f"\nlayers, {args.pairs} pairs of fresh processes: parent -> change")
        layer_report(results["parent"], results["change"])
        return 0
    print(f"\n{args.workload}, {args.pairs} pairs of {args.seconds:g} s, seeds "
          f"{args.seed_base}..{args.seed_base + args.pairs - 1}: parent -> change")
    for metric in end_to_end(sides["change"]):
        parent, change = ([r["metrics"][metric["name"]]["value"] for r in results[side]]
                          for side in ("parent", "change"))
        print(compare(metric["name"], parent, change, metric["better"] == "lower", metric["bound"]))
    rss_per_op(results["parent"], results["change"])
    for side in ("parent", "change"):
        failed = [r["failed"] for r in results[side]]
        print(f"  failed ops, {side}: {sum(failed)} of {sum(r['attempted'] for r in results[side])} "
              f"(per run {failed})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
