import json
import time
from pathlib import Path

import pytest

from entqc.cli import render_json
from entqc.report import SECTION_BUILDERS, SuiteConfig, build_report, check
from entqc.tensor import ContractError

# render_json(build_report(SuiteConfig())) from a reference version of the
# code. Later versions keep its section and row names, targets, tolerances
# and verdicts, and each number within its row's tolerance.
GOLDEN_REPORT = Path(__file__).parent / "golden" / "repro_seed7.json"

CANONICAL_ORDER = [
    "channel", "measurement", "teleport", "ghz", "pairs", "wstate",
    "triads", "witness", "invariance", "series", "gradient",
]


def test_check_helper_semantics():
    row = check("x", 1.0005, 1.0, 1e-3)
    assert row["pass"] is True
    assert check("x", 1.002, 1.0, 1e-3)["pass"] is False
    assert check("flag", True, True)["pass"] is True
    assert check("flag", False, True)["pass"] is False
    assert check("count", 3, 3)["pass"] is True and check("count", 2, 3)["pass"] is False
    info = check("note", [1.0, 2.0])
    assert info["pass"] is None and info["tolerance"] is None


def test_section_names_are_canonical():
    assert list(SECTION_BUILDERS) == CANONICAL_ORDER


def test_subset_report_and_unknown_section():
    doc = build_report(SuiteConfig(), only=["ghz"])
    assert [s["name"] for s in doc["sections"]] == ["ghz"]
    with pytest.raises(ContractError):
        build_report(SuiteConfig(), only=["ghz", "bogus"])


def test_full_report_passes_within_time_budget():
    start = time.monotonic()
    doc = build_report(SuiteConfig())
    elapsed = time.monotonic() - start
    assert doc["pass"] is True
    assert [s["name"] for s in doc["sections"]] == CANONICAL_ORDER
    for sec in doc["sections"]:
        assert sec["pass"] is True, sec["name"]
        for row in sec["checks"]:
            assert set(row) == {"name", "value", "target", "tolerance", "pass"}
            if row["pass"] is not None and not isinstance(row["value"], (bool, int)):
                # every gated numeric entry carries its tolerance
                assert row["tolerance"] is not None
                assert row["target"] is not None
    failing = [
        (sec["name"], row["name"])
        for sec in doc["sections"]
        for row in sec["checks"]
        if row["pass"] is False
    ]
    assert failing == []
    assert elapsed < 5.0, f"verification suite took {elapsed:.1f}s"
    assert_matches_golden(json.loads(render_json(doc)))


def assert_matches_golden(doc):
    golden = json.loads(GOLDEN_REPORT.read_text())
    assert {k: v for k, v in doc.items() if k != "sections"} == {
        k: v for k, v in golden.items() if k != "sections"
    }
    assert [s["name"] for s in doc["sections"]] == [s["name"] for s in golden["sections"]]
    for sec, ref_sec in zip(doc["sections"], golden["sections"]):
        assert sec["pass"] == ref_sec["pass"], sec["name"]
        names = [row["name"] for row in sec["checks"]]
        assert names == [row["name"] for row in ref_sec["checks"]], sec["name"]
        for row, ref in zip(sec["checks"], ref_sec["checks"]):
            where = (sec["name"], row["name"])
            for key in ("target", "tolerance", "pass"):
                assert row[key] == ref[key], where
            value, expected = row["value"], ref["value"]
            numeric = isinstance(expected, (int, float)) and not isinstance(expected, bool)
            if numeric and ref["tolerance"] is not None:
                assert abs(value - expected) <= ref["tolerance"], where
            else:
                assert value == expected, where
