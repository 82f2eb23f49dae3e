"""Regenerate descent_minima.json: the minima that the retired Armijo steepest
descent, `ref_descend_batch` in tests/test_differential.py, reaches on the
twelve states of `test_block_ascent_never_ends_above_the_steepest_descent`
(four restarts each, from the witness search's own starts).

    PYTHONPATH=src python tests/golden/make_descent_minima.py

The descent runs on the public `witness_value` and `witness_gradient`, so
regenerate the file after a change to those kernels. Near its minimum the
descent accepts steps that leave the angles unchanged, so it can run to its
iteration cap while its result no longer moves. Each state therefore records
`settled_by`, the first cap on a doubling ladder at which the result (values
and angles, bit for bit) already equals the one at the full cap; the test
re-runs the cheapest states live at that cap. Takes about two minutes.
"""
import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import test_differential as oracle  # noqa: E402

LADDER = (25, 50, 100, 200, 400, 800, 1600, 3200, 6400)


def descend(seed, cap):
    rho, starts = oracle.descent_case(seed)
    limit, oracle.REF_MAX_ITERATIONS = oracle.REF_MAX_ITERATIONS, cap
    try:
        return oracle.ref_descend_batch(rho, starts)
    finally:
        oracle.REF_MAX_ITERATIONS = limit


def main() -> int:
    cap = oracle.REF_MAX_ITERATIONS
    states = []
    for seed in range(12):
        value, params = descend(seed, cap)
        settled_by = next((short for short in LADDER
                           if all(map(np.array_equal, descend(seed, short), (value, params)))), cap)
        states.append({"seed": seed, "rank": 1 + seed % 4,
                       "minimum": float(value.min()), "settled_by": settled_by})
        print(f"seed {seed}: minimum {value.min()!r}, settled by {settled_by}", file=sys.stderr)
    doc = {
        "oracle": "tests/test_differential.py::ref_descend_batch",
        "restarts": 4,
        "max_iterations": cap,
        "states": states,
    }
    (HERE / "descent_minima.json").write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
