"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload teleport_sweep --seeds 1-10 --seconds 55
    python3 perfbench/spread.py --workload cli_mix --seeds 1-3 --trace 1 --out summary.json

--out records the summary in a JSON file, keyed by workload, keeping the
other workloads' entries; perfbench/baseline.json was written this way.

Runs are sequential, one process at a time, from the repository root. For
every metric it prints the median, the first and third quartiles
(statistics.quantiles, n=4) and the spread (q3 - q1) / median, which is the
figure each end-to-end metric's bound in BENCHMARK.json is compared with.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="'a-b' or 'a,b,c'")
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="JSON file to record the summary in, under the "
                        "workload's name (with '.trace' appended for --trace 1)")
    parser.add_argument("--label", default="", help="free text stored with the summary")
    args = parser.parse_args(argv)

    results, walls = [], []
    for seed in seed_list(args.seeds):
        cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        started = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        walls.append(time.perf_counter() - started)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        line = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                        if not k.endswith(".calls"))
        print(f"seed {seed}: wall={walls[-1]:.1f}s attempted={result['attempted']} "
              f"failed={result['failed']} {line}", flush=True)

    summary = {
        "label": args.label,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "seeds": seed_list(args.seeds),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "max_run_wall_s": max(walls),
        "metrics": {},
    }
    for name, first in results[0]["metrics"].items():
        stats = summarize([r["metrics"][name]["value"] for r in results])
        summary["metrics"][name] = {"unit": first["unit"], **stats}
        spread = "n/a" if stats["spread"] is None else f"{stats['spread']:.4f}"
        print(f"{name}: median {stats['median']:.6g} {first['unit']}  "
              f"q1 {stats['q1']:.6g}  q3 {stats['q3']:.6g}  spread {spread}")
    print(f"attempted {summary['attempted']} failed {summary['failed']} "
          f"longest run {max(walls):.1f} s")
    if args.out:
        out = Path(args.out)
        doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
        doc[args.workload + (".trace" if args.trace else "")] = summary
        out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
