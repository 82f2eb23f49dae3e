"""Self-test of the checks: a deliberately wrong answer is counted as a failure.

run.py runs the cases of its workload before every timed run and reports
nothing if a wrong answer slips through. To run every workload's cases:

    python3 perfbench/selftest.py
"""
from __future__ import annotations

import json
import shutil
import sys
import tempfile
from types import SimpleNamespace

import numpy as np

import checks


def _counted(tally_class, output, check) -> bool:
    """Is `output` counted as a failure by the run loop's accounting?"""
    tally = tally_class()
    tally.attempt(lambda: output, check)
    return tally.failed == 1


def _teleport_cases(wl, tally_class):
    out = wl.op(0)
    check = lambda o: wl.check(0, o)  # noqa: E731
    # a flipped correction: X (x) 1 applied once more to one corrected state
    flipped = [SimpleNamespace(outcome=o.outcome, probability=o.probability,
                               bob_state=o.bob_state, corrected_state=o.corrected_state)
               for o in out]
    flipped[5].corrected_state = SimpleNamespace(
        amplitudes=checks.CORRECTIONS[(2, 1)] @ out[5].corrected_state.amplitudes)
    yield "teleport: a flipped correction fails", _counted(tally_class, flipped, check)


def _cli_cases(wl, tally_class):
    k = next(i for i, (argv, expect, fmt, _) in enumerate(wl.invocations)
             if argv[0] == "teleport" and expect == 0 and fmt == "json")
    code, out, err = wl.op(k)
    _, expect, fmt, state = wl.invocations[k]
    direct = lambda o: checks.check_cli(expect, fmt, state, *o)  # noqa: E731
    wl.check(k, (code, out, err))  # the first output of this invocation, for the next case
    yield "cli: a repeat that is not byte-identical fails", _counted(
        tally_class, (code, out.replace(", ", ","), err), lambda o: wl.check(k, o))
    yield "cli: a wrong exit code fails", _counted(tally_class, (1, out, err), direct)

    doc = json.loads(out)
    for row in doc["sections"][0]["checks"]:
        if row["name"] == "outcome (2,1) receiver state":
            amps = np.array([complex(*pair) for pair in row["value"]])
            amps = checks.CORRECTIONS[(2, 1)] @ amps  # as if the correction were applied twice
            row["value"] = [[z.real, z.imag] for z in amps]
    yield "cli: a wrong receiver state under \"pass\": true fails", _counted(
        tally_class, (code, json.dumps(doc), err), direct)


CASES = {
    "teleport_sweep": _teleport_cases,
    "cli_mix": _cli_cases,
}


def wrong_answers_detected(wl, tally_class):
    """Yield (case, detected) for the workload's wrong answers. The program's
    own answers are not judged here: in a run, an op that fails is counted."""
    yield from CASES[wl.name](wl, tally_class)


def benchmark_json_matches(run) -> bool:
    """BENCHMARK.json names exactly the metrics run.py reports, with their units."""
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]]
    layers = [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]]
    return declared == run.END_TO_END and layers == run.per_layer_spec()


def main() -> int:
    import run
    from workloads import WORKLOADS

    matches = benchmark_json_matches(run)
    print(f"{'ok  ' if matches else 'MISS'} BENCHMARK.json lists the metrics run.py reports")
    missed = 0 if matches else 1
    sys.path.insert(0, str(run.ROOT / "src"))
    lib = run.load_library()
    run.WORKDIR.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="selftest-", dir=run.WORKDIR)
    try:
        for name, wl_class in WORKLOADS.items():
            wl = wl_class(0, scratch)
            wl.setup(lib)
            cases = [(f"{name}: op 0's true answer passes", wl.check(0, wl.op(0)))]
            cases += wrong_answers_detected(wl, run.Tally)
            for case, ok in cases:
                print(f"{'ok  ' if ok else 'MISS'} {case}")
                missed += not ok
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
