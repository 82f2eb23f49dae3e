"""Alternating A/B runs of the end-to-end benchmark between two checkouts.

    python3 bench/ab.py PARENT CHANGE --workload cli_mix --pairs 5 --seconds 55 --seed-base 100

Pair i runs `perfbench/run.py --workload W --seed (seed base + i) --seconds S
--trace 0` once in each checkout, one after the other, with the same seed;
which side runs first alternates from pair to pair, so that a slow spell of
the host does not fall on one side only. Each run's last stdout line is its
JSON result. Every run is printed as it ends; then, per end-to-end metric, both
medians and interquartile ranges, the change in the median, how many pairs the
change won, and the median change against the metric's bound in CHANGE's
`BENCHMARK.json`. Failed ops are printed per run and summed.

Standard library only; nothing under either checkout is changed, apart from
what `perfbench/run.py` itself writes there.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Alternating A/B runs of perfbench/run.py.")
    parser.add_argument("parent", type=Path, help="checkout of the parent commit")
    parser.add_argument("change", type=Path, help="checkout of the change")
    parser.add_argument("--workload", required=True, help="workload name, as perfbench/run.py takes it")
    parser.add_argument("--pairs", type=int, default=5, help="pairs of runs (default 5)")
    parser.add_argument("--seconds", type=float, default=55.0, help="length of each run (default 55)")
    parser.add_argument("--seed-base", type=int, default=0, help="pair i runs seed base + i (default 0)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for side, checkout in sides.items():
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"{side} {checkout} has no perfbench/run.py")

    results: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.seed_base + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], args.workload, seed, args.seconds)
            results[side].append(result)
            metrics = " ".join(f"{name}={m['value']:.6g}" for name, m in result["metrics"].items())
            print(f"pair {i + 1} seed {seed} {side}: {metrics} attempted={result['attempted']} "
                  f"failed={result['failed']}", flush=True)

    print(f"\n{args.workload}, {args.pairs} pairs of {args.seconds:g} s, seeds "
          f"{args.seed_base}..{args.seed_base + args.pairs - 1}: parent -> change")
    for metric in end_to_end(sides["change"]):
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [r["metrics"][name]["value"] for r in results["parent"]]
        change = [r["metrics"][name]["value"] for r in results["change"]]
        (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        delta = (cm - pm) / pm if pm else float("nan")
        worse = delta if lower else -delta
        flag = "  WORSE THAN BOUND" if worse > metric["bound"] else ""
        print(f"  {name}: {pm:.6g} (IQR {p1:.6g}-{p3:.6g}, {p3 - p1:.3g}) -> {cm:.6g} "
              f"(IQR {c1:.6g}-{c3:.6g}, {c3 - c1:.3g}), {delta:+.1%}, gap {cm - pm:+.3g}; "
              f"change better in {wins}/{args.pairs}; bound {metric['bound']:g}{flag}")
    for side in ("parent", "change"):
        failed = [r["failed"] for r in results[side]]
        print(f"  failed ops, {side}: {sum(failed)} of {sum(r['attempted'] for r in results[side])} "
              f"(per run {failed})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
