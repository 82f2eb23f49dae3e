import contextlib
import io
import json
import os
import subprocess
import sys
import unittest.mock
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import entqc
from entqc import report
from entqc.cli import build_parser, main, render_json, render_text
from entqc.tensor import ContractError

GOLDEN = Path(__file__).parent / "golden"
BELL_DRESSING_PAIRS = [
    [0.7071067811865476, 0.0], [0.0, 0.0], [0.0, 0.0], [0.7071067811865476, 0.0],
    [0.0, 0.0], [0.7071067811865476, 0.0], [0.7071067811865476, 0.0], [0.0, 0.0],
    [0.0, 0.0], [-0.7071067811865476, 0.0], [0.7071067811865476, 0.0], [0.0, 0.0],
    [-0.7071067811865476, 0.0], [0.0, 0.0], [0.0, 0.0], [0.7071067811865476, 0.0],
]


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_teleport_epr_seeded_run_passes(capsys):
    code, out, err = run(capsys, ["teleport", "--channel", "epr", "--seed", "7"])
    assert code == 0
    doc = json.loads(out)
    assert doc["report"] == "teleport"
    assert doc["pass"] is True
    checks = doc["sections"][0]["checks"]
    fidelities = [c for c in checks if c["name"].endswith("corrected fidelity")]
    assert len(fidelities) == 16
    assert all(abs(c["value"] - 1.0) <= 1e-10 for c in fidelities)
    probabilities = [c for c in checks if c["name"].endswith("probability")]
    assert all(abs(c["value"] - 1 / 16) <= 1e-10 for c in probabilities)


@pytest.mark.parametrize("argv, keys", [
    (["teleport", "--seed", "3"], ["report", "channel", "seed", "unknown_state", "sections", "pass"]),
    (["teleport", "--state", "1,0,0,0,0,0,0,0"], ["report", "channel", "unknown_state", "sections", "pass"]),
    (["analyze", "--seed", "3", "--restarts", "2"], ["report", "channel", "seed", "restarts", "sections", "pass"]),
    (["repro", "--section", "ghz"], ["report", "seed", "restarts", "tol", "sections", "pass"]),
])
def test_documents_keep_their_top_level_key_order(capsys, argv, keys):
    code, out, err = run(capsys, argv)
    assert code == 0
    assert list(json.loads(out)) == keys


def test_teleport_ghz_rejected_with_explanation(capsys):
    code, out, err = run(capsys, ["teleport", "--channel", "ghz"])
    assert code == 1
    assert out == ""
    assert "maximally entangled" in err
    assert "0.25" in err


def test_teleport_unknown_channel_lists_builtins(capsys):
    code, out, err = run(capsys, ["teleport", "--channel", "wat"])
    assert code == 2
    assert "epr" in err and "bell-transformed" in err and "ghz" in err


def test_teleport_explicit_basis_state(capsys):
    code, out, err = run(
        capsys, ["teleport", "--channel", "epr", "--state", "1,0,0,0,0,0,0,0"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["unknown_state"] == [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0]]
    receiver_rows = [
        c["value"] for c in doc["sections"][0]["checks"]
        if c["name"].endswith("receiver state")
    ]
    # corrected outputs are all |00> again; receivers differ only pre-correction
    assert len(receiver_rows) == 16


def test_teleport_state_near_normalized_warns(capsys):
    code, out, err = run(
        capsys,
        ["teleport", "--channel", "epr", "--state", "1.0000001,0,0,0,0,0,0,0"],
    )
    assert code == 0
    assert "normalizing" in err


def test_teleport_state_far_from_normalized_fails(capsys):
    # the second norm overflows to inf: rejected with a message and no numpy warning
    for state in ("2,0,0,0,0,0,0,0", "1e300,0,0,0,0,0,0,0"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, ["teleport", "--channel", "epr", "--state", state])
        assert code == 2
        assert "norm" in err


@pytest.mark.parametrize(
    "state",
    ["1,0,0,0", "a,0,0,0,0,0,0,0", "1,0,0,0,0,0,0,0,0"],
)
def test_teleport_state_malformed(capsys, state):
    code, out, err = run(capsys, ["teleport", "--channel", "epr", "--state", state])
    assert code == 2


def test_teleport_env_seed_fallback(capsys, monkeypatch):
    monkeypatch.setenv("ENTQC_SEED", "12")
    code, out_env, _ = run(capsys, ["teleport", "--channel", "epr"])
    assert code == 0
    monkeypatch.delenv("ENTQC_SEED")
    code, out_flag, _ = run(capsys, ["teleport", "--channel", "epr", "--seed", "12"])
    assert code == 0
    assert out_env == out_flag


def test_teleport_flag_overrides_env_seed(capsys, monkeypatch):
    monkeypatch.setenv("ENTQC_SEED", "12")
    code, out, _ = run(capsys, ["teleport", "--channel", "epr", "--seed", "3"])
    doc = json.loads(out)
    assert doc["seed"] == 3


def test_bad_env_seed_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("ENTQC_SEED", "pony")
    code, out, err = run(capsys, ["teleport", "--channel", "epr"])
    assert code == 2
    assert "ENTQC_SEED" in err


def test_negative_seed_rejected(capsys):
    code, out, err = run(capsys, ["teleport", "--channel", "epr", "--seed", "-4"])
    assert code == 2


def test_teleport_custom_channel_file(capsys, tmp_path):
    path = tmp_path / "custom.json"
    path.write_text(json.dumps({"dressing": BELL_DRESSING_PAIRS}))
    code, out, _ = run(capsys, ["teleport", "--channel", str(path), "--seed", "1"])
    assert code == 0
    assert json.loads(out)["channel"] == "custom"


def test_teleport_malformed_channel_file(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    code, out, err = run(capsys, ["teleport", "--channel", str(path)])
    assert code == 2
    assert "JSON" in err


def _huge_entry(digits: int) -> bytes:
    return b'{"dressing": [[1%s, 0]%s]}' % (b"0" * digits, b", [0, 0]" * 15)


@pytest.mark.parametrize("command", ["teleport", "analyze"])
@pytest.mark.parametrize(
    "content, messages",
    [
        (_huge_entry(400), ("out of float range",)),
        # past the int-string digit limit (4300 by default) json.load fails
        (_huge_entry(5000), ("cannot be parsed", "out of float range")),
        (b"\xff\xfe{}", ("cannot be parsed",)),
    ],
    ids=["beyond-float", "beyond-digit-limit", "not-utf8"],
)
def test_unreadable_channel_file_is_a_usage_error(capsys, tmp_path, command, content, messages):
    path = tmp_path / "bad.json"
    path.write_bytes(content)
    code, out, err = run(capsys, [command, "--channel", str(path)])
    assert code == 2 and out == ""
    assert err.startswith("error:") and any(m in err for m in messages)


def test_teleport_overflowing_channel_file_is_a_usage_error(tmp_path):
    # the unitarity deviation of this finite dressing overflows to NaN
    dressing = np.eye(4, dtype=complex)
    dressing[:2, :2] = [[1e200, 1e200], [1e200j, -1e200j]]
    path = tmp_path / "overflow.json"
    pairs = [[z.real, z.imag] for z in dressing.reshape(-1)]
    path.write_text(json.dumps({"dressing": pairs}))
    env = dict(
        os.environ,
        PYTHONPATH=os.path.dirname(os.path.dirname(entqc.__file__)),
        PYTHONWARNINGS="default",
    )
    proc = subprocess.run(
        [sys.executable, "-m", "entqc.cli", "teleport", "--channel", str(path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2
    assert "not unitary" in proc.stderr
    assert "RuntimeWarning" not in proc.stderr


def test_analyze_reference_channel(capsys):
    code, out, _ = run(
        capsys, ["analyze", "--restarts", "4", "--seed", "2"]
    )
    assert code == 0
    doc = json.loads(out)
    names = [s["name"] for s in doc["sections"]]
    assert names == ["channel", "marginals", "pairs", "triads", "witness"]
    pair_rows = doc["sections"][2]["checks"]
    verdicts = [c["value"] for c in pair_rows if c["name"].endswith("entangled")]
    assert verdicts == [False] * 6
    witness_rows = doc["sections"][4]["checks"]
    minima = [c["value"] for c in witness_rows if c["name"].endswith("witness minimum")]
    assert len(minima) == 4
    assert all(abs(v - 0.25) < 1e-2 for v in minima)


def test_analyze_epr_channel_pairs(capsys):
    code, out, _ = run(
        capsys, ["analyze", "--channel", "epr", "--restarts", "2", "--seed", "2"]
    )
    assert code == 0
    doc = json.loads(out)
    rows = {c["name"]: c["value"] for c in doc["sections"][2]["checks"]}
    assert abs(rows["pair (A1,B1) min PT eigenvalue"] + 0.5) < 1e-10
    assert abs(rows["pair (A2,B2) min PT eigenvalue"] + 0.5) < 1e-10
    assert rows["pair (A1,B1) entangled"] is True
    assert abs(rows["pair (A1,A2) min PT eigenvalue"] - 0.25) < 1e-10


def test_analyze_ghz_channel_is_informational(capsys):
    code, out, _ = run(
        capsys, ["analyze", "--channel", "ghz", "--restarts", "2", "--seed", "2"]
    )
    assert code == 0
    doc = json.loads(out)
    channel_rows = {c["name"]: c["value"] for c in doc["sections"][0]["checks"]}
    assert channel_rows["valid teleportation resource"] is False


def test_analyze_searches_the_marginals_of_an_edge_normalized_state(capsys, monkeypatch):
    # |psi| = 1 + 0.9e-12 passes the state's norm check; its triad marginals
    # (trace 1 + 1.8e-12) reach the witness search unchecked
    from types import SimpleNamespace

    from entqc import cli
    from entqc.channel import CHANNEL_LABELS
    from entqc.entanglement import CHANNEL_TRIADS, minimize_witness
    from entqc.tensor import QubitRegister, StateVector, haar_random_state, reduced_density

    amps = haar_random_state(4, np.random.default_rng(11)) * (1.0 + 0.9e-12)
    s = StateVector(QubitRegister(CHANNEL_LABELS), amps)
    monkeypatch.setattr(cli, "resolve_channel", lambda arg: SimpleNamespace(name=arg, state=s))
    code, out, err = run(capsys, ["analyze", "--channel", "edge", "--restarts", "3", "--seed", "5"])
    assert code in (0, 1) and not err
    rows = {c["name"]: c["value"] for c in json.loads(out)["sections"][4]["checks"]}
    for triad in CHANNEL_TRIADS:
        result = minimize_witness(reduced_density(s, triad), restarts=3, seed=5)
        assert rows[f"triad ({','.join(triad)}) witness minimum"] == result.min_value


#: golden file -> the flags after `entqc analyze --seed 7` that wrote it
ANALYZE_GOLDEN = {"analyze_seed7.json": [], "analyze_seed7.txt": ["--format", "text"]}


@pytest.mark.parametrize("name", sorted(ANALYZE_GOLDEN))
def test_analyze_seed7_writes_the_golden_bytes(capsys, name):
    # tests/golden/make_analyze_seed7.py wrote both files, running the library as it stood
    # before the row tags and the (part | rest) amplitude matrix each got one shared helper.
    # A change that moves a row regenerates them and lists every moved row in CHANGES.md.
    code, out, err = run(capsys, ["analyze", "--seed", "7", *ANALYZE_GOLDEN[name]])
    assert (code, err) == (0, "")
    assert out == (GOLDEN / name).read_text(encoding="utf-8")


def test_analyze_unknown_channel(capsys):
    code, out, err = run(capsys, ["analyze", "--channel", "zzz"])
    assert code == 2
    assert "built-ins" in err


def test_repro_single_section_passes(capsys):
    code, out, _ = run(capsys, ["repro", "--section", "channel"])
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert [s["name"] for s in doc["sections"]] == ["channel"]
    for sec in doc["sections"]:
        for check in sec["checks"]:
            if check["pass"] is not None and check["tolerance"] is not None:
                assert check["target"] is not None


def test_repro_unknown_section_lists_options(capsys):
    code, out, err = run(capsys, ["repro", "--section", "nope"])
    assert code == 2
    assert "witness" in err and "pairs" in err


def test_repro_section_filter_order_is_canonical(capsys):
    code, out, _ = run(
        capsys, ["repro", "--section", "ghz", "--section", "channel"]
    )
    assert code == 0
    doc = json.loads(out)
    assert [s["name"] for s in doc["sections"]] == ["channel", "ghz"]


def test_repro_byte_identical_reports(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["repro", "--section", "pairs", "--output", str(a)]) == 0
    assert main(["repro", "--section", "pairs", "--output", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_repro_seed_override_keeps_verdicts(capsys):
    code, out, _ = run(capsys, ["repro", "--section", "invariance", "--seed", "123"])
    assert code == 0
    assert json.loads(out)["seed"] == 123


def test_text_format_renders_sections(capsys):
    code, out, _ = run(
        capsys, ["repro", "--section", "channel", "--format", "text"]
    )
    assert code == 0
    assert "section channel" in out
    assert "[PASS]" in out
    assert "overall: PASS" in out


def test_output_flag_writes_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code = main(["repro", "--section", "ghz", "--output", str(path)])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == ""
    doc = json.loads(path.read_text())
    assert doc["sections"][0]["name"] == "ghz"


@pytest.mark.parametrize("command", [["teleport"], ["repro", "--section", "ghz"]])
@pytest.mark.parametrize("target", ["missing-dir", "directory"])
def test_unwritable_output_is_a_usage_error(capsys, tmp_path, command, target):
    path = str(tmp_path / "no" / "such" / "x.json") if target == "missing-dir" else str(tmp_path)
    code, out, err = run(capsys, [*command, "--output", path])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write report to {path!r}: ")
    assert err.count("\n") == 1 and "Traceback" not in err


def _sections(doc):
    return [sec["name"] for sec in doc["sections"]]


# Two calls made in one process, each (argv, environment); the first call's
# exit code; what the second call's document must show.
PARSER_REUSE_CASES = {
    "ghz-then-pairs": (
        [(["repro", "--section", "ghz"], {}), (["repro", "--section", "pairs"], {})],
        0, lambda doc: _sections(doc) == ["pairs"],
    ),
    "state-then-seed": (
        [(["teleport", "--state=0.6,0,0,0.8,0,0,0,0"], {}), (["teleport", "--seed", "3"], {})],
        0, lambda doc: doc["seed"] == 3,
    ),
    "usage-error-then-valid": (
        [(["teleport", "--seed", "three"], {}), (["teleport", "--seed", "3"], {})],
        2, lambda doc: doc["seed"] == 3,
    ),
    "env-seed-changes": (
        [(["teleport"], {"ENTQC_SEED": "3"}), (["teleport"], {"ENTQC_SEED": "4"})],
        0, lambda doc: doc["seed"] == 4,
    ),
}


@pytest.mark.parametrize(
    "calls, first_code, second_shows", PARSER_REUSE_CASES.values(), ids=PARSER_REUSE_CASES
)
def test_reused_parser_matches_a_fresh_one(capsys, monkeypatch, calls, first_code, second_shows):
    def call(argv, env, fresh):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        if fresh:
            build_parser.cache_clear()
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    build_parser.cache_clear()
    reused = [call(argv, env, fresh=False) for argv, env in calls]
    assert build_parser.cache_info().misses == 1
    assert reused == [call(argv, env, fresh=True) for argv, env in calls]
    assert [code for code, _, _ in reused] == [first_code, 0]
    assert second_shows(json.loads(reused[1][1]))


@pytest.mark.parametrize("tol", ["nan", "inf", "0", "-1"])
def test_repro_rejects_tol_not_finite_and_positive(capsys, tol):
    with pytest.raises(SystemExit) as err:
        main(["repro", "--section", "ghz", f"--tol={tol}"])
    assert err.value.code == 2
    assert "--tol" in capsys.readouterr().err


def test_analyze_takes_no_tol(capsys):
    with pytest.raises(SystemExit) as err:
        main(["analyze", "--channel", "ghz", "--restarts", "1", "--tol", "1e-3"])
    assert err.value.code == 2
    out, err_text = capsys.readouterr()
    assert out == "" and "error: unrecognized arguments: --tol 1e-3" in err_text


@pytest.mark.parametrize("restarts", ["0", "-1", "4097"])
def test_repro_rejects_restarts_out_of_range(capsys, restarts):
    with pytest.raises(SystemExit) as err:
        main(["repro", "--section", "ghz", f"--restarts={restarts}"])
    assert err.value.code == 2
    assert "--restarts" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2


# --- main's parse against the two-level parse, on the same argv ------------------
#: a parser built as `main` builds it, whose commands return their Namespace: `main`
#: then parses and returns the Namespace instead of running the command
PARSE_ONLY = build_parser.__wrapped__()
for _command in PARSE_ONLY.commands.values():
    _command.set_defaults(func=lambda args: args)

PARSE_ARGV = [
    [], ["-h"], ["--help"], ["--he"], ["--", "teleport"], ["--seed", "3", "teleport"], ["", "teleport"],
    ["teleprt"], ["tele"], ["bogus", "--seed", "3"], ["teleport"], ["teleport", "-h"], ["analyze", "--help"],
    ["repro", "--h"], ["teleport", "-h", "--bogus"], ["teleport", "--chan", "ghz"],
    ["teleport", "--channel=epr", "--seed=4"], ["teleport", "--seed", "4", "--seed", "5"],
    ["teleport", "--seed", "x"], ["teleport", "--seed"], ["teleport", "--seed 4"], ["teleport", "extra"],
    ["teleport", "--bogus", "1"], ["teleport", "--", "--seed", "4"], ["teleport", "--s", "4"],
    ["teleport", "--st", "1,0,0,0,0,0,0,0"], ["teleport", "--format", "xml"], ["teleport", "repro"],
    ["teleport", "--form", "text", "--output", "x.json"], ["analyze", "--restarts", "0"],
    ["analyze", "--restarts=8", "--tol", "1e-3"], ["analyze", "--state", "x"],
    ["repro", "--section", "ghz", "--section", "pairs", "--seed", "7"], ["repro", "--sec=ghz"],
    ["repro", "--tol", "nan"], ["repro", "--tol=-1"], ["repro", "--seed", "-5"], ["repro", "-x", "-"],
    ["repro", "ghz", "--", "x"], ["repro", "--section"],
]
FLAGS = ["--channel", "--seed", "--restarts", "--tol", "--output", "--format", "--state", "--section", "--help"]
VALUES = ["0", "4", "-1", "1e-3", "nan", "x", "ghz", "epr", "text", "1,0,0,0,0,0,0,0", "", " ", "@", "é"]
#: flags, their abbreviations, values and both joined by "=", commands, "--" and junk: one
#: draw each, which keeps Hypothesis's own cost per example low
ABBREVIATED = [flag[:n] for flag in FLAGS for n in range(3, len(flag) + 1)]
TOKENS = ABBREVIATED + VALUES + [f"{flag}={value}" for flag in ABBREVIATED[::3] for value in VALUES[::2]] + [
    "teleport", "analyze", "repro", "--", "-", "-h", "-x", "-5", "--=", "tele"]


def _parsed(parse, argv):
    """(Namespace items or SystemExit code, stdout, stderr) of `parse(argv)`."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = list(vars(parse(list(argv))).items())
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


def _assert_main_parses_as_the_two_level_parser(argv):
    with unittest.mock.patch("entqc.cli.build_parser", lambda: PARSE_ONLY):
        assert _parsed(main, argv) == _parsed(PARSE_ONLY.parse_args, argv), argv


@pytest.mark.parametrize("argv", PARSE_ARGV, ids=" ".join)
def test_main_parses_as_the_two_level_parser(argv):
    _assert_main_parses_as_the_two_level_parser(argv)


@settings(max_examples=125, deadline=None, derandomize=True, database=None)
@given(tokens=st.lists(st.sampled_from(TOKENS), max_size=6))
def test_fuzzed_argv_parse_as_the_two_level_parser(tokens):
    # 500 argv: each drawn list alone and after each command (a draw costs more than a parse)
    for argv in (tokens, *([command, *tokens] for command in PARSE_ONLY.commands)):
        _assert_main_parses_as_the_two_level_parser(argv)


def test_render_json_is_canonical():
    doc = {"x": 0.1, "flag": True, "none": None, "list": [1.0, 2], "s": "hi"}
    text = render_json(doc)
    assert text == '{"x": 0.10000000000000001, "flag": true, "none": null, "list": [1, 2], "s": "hi"}\n'
    assert json.loads(text) == {
        "x": 0.1, "flag": True, "none": None, "list": [1.0, 2], "s": "hi"
    }


def test_render_json_handles_numpy_scalars():
    text = render_json({"a": np.float64(0.5), "b": np.int64(3), "c": np.bool_(False)})
    assert json.loads(text) == {"a": 0.5, "b": 3, "c": False}


def test_render_text_marks_failures():
    doc = {
        "report": "demo",
        "sections": [
            {
                "name": "s",
                "checks": [
                    {"name": "bad", "value": 1.0, "target": 0.0,
                     "tolerance": 0.1, "pass": False},
                    {"name": "note", "value": [1.0], "target": None,
                     "tolerance": None, "pass": None},
                ],
                "pass": False,
            }
        ],
        "pass": False,
    }
    text = render_text(doc)
    assert "[FAIL] bad" in text
    assert "[info] note" in text
    assert "overall: FAIL" in text


def test_renderers_reject_a_nan_document():
    doc = {"report": "demo", "tol": float("nan"), "sections": [], "pass": True}
    for render in (render_json, render_text):
        with pytest.raises(ContractError, match="non-finite number nan"):
            render(doc)
    # the same value, finite, renders as JSON
    assert json.loads(render_json({**doc, "tol": 0.5}))["tol"] == 0.5


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
def test_repro_with_a_non_finite_row_is_a_usage_error(capsys, monkeypatch, tmp_path, fmt, bad):
    monkeypatch.setitem(
        report.SECTION_BUILDERS, "ghz",
        lambda cfg: report.section("ghz", [report.check("deviation", bad, 0.0, 1e-10)]),
    )
    code, out, err = run(capsys, ["repro", "--section", "ghz", "--format", fmt])
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot write the non-finite number")
    target = tmp_path / "report.out"
    code, out, err = run(capsys, ["repro", "--section", "ghz", "--format", fmt, "--output", str(target)])
    assert (code, out) == (2, "")
    assert not target.exists()


# --- fuzzed `entqc teleport` ---------------------------------------------------

JUNK = (st.sampled_from([0, -0.0, 1, 0.5, 1e-300, 1e308, 10**400, -(10**30), True, False, None, "1", "", []])
        | st.floats())
JUNK_PAIRS = st.lists(JUNK, min_size=2, max_size=2) | st.lists(JUNK, max_size=3) | JUNK
STATE_FIELDS = st.sampled_from(["0", "1", "-0", "0.5", "0.7071067811865476", "1.0000001", "nan", "-inf",
                                "1e400", "1e-400", "abc", "", " 1", "0x1", "1_0"])
STATES = (st.lists(STATE_FIELDS, min_size=7, max_size=9).map(",".join)
          | st.sampled_from(["1,0,0,0,0,0,0,0", "0,0,0.6,-0,0,0,0,0.8"]) | st.text(max_size=12))


IDENTITY_PAIRS = [[1.0, 0.0] if i % 5 == 0 else [0.0, 0.0] for i in range(16)]


@st.composite
def fuzzed_matrices(draw):
    """A unitary's 16 [re, im] pairs with a few swapped for junk, then flat
    (16, 15 or 17 of them), as four rows, or as rows of drawn lengths."""
    pairs = [list(pair) for pair in draw(st.sampled_from([IDENTITY_PAIRS, BELL_DRESSING_PAIRS]))]
    for _ in range(draw(st.integers(0, 2))):
        pairs[draw(st.integers(0, 15))] = draw(JUNK_PAIRS)
    form = draw(st.sampled_from(["flat", "short", "long", "nested", "ragged"]))
    if form in ("flat", "short", "long"):
        return {"flat": pairs, "short": pairs[:15], "long": pairs + [[0.0, 0.0]]}[form]
    if form == "nested":
        return [pairs[4 * i: 4 * i + 4] for i in range(4)]
    cuts = sorted(draw(st.lists(st.integers(0, 16), max_size=4)))
    return [pairs[a:b] for a, b in zip([0, *cuts], [*cuts, 16])]


@st.composite
def fuzzed_channel_documents(draw):
    form = draw(st.sampled_from(["dressing", "uv", "u only", "not an object"]))
    doc = {"dressing": draw(fuzzed_matrices())} if form == "dressing" else (
        {"u": draw(fuzzed_matrices()), "v": draw(fuzzed_matrices())} if form == "uv" else
        {"u": draw(fuzzed_matrices())} if form == "u only" else draw(JUNK_PAIRS))
    if isinstance(doc, dict) and draw(st.booleans()):
        doc["name"] = draw(st.text(max_size=4) | JUNK)
    return doc


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(doc=fuzzed_channel_documents(), channel=st.sampled_from(["file", "file", "file", "epr", "ghz"]),
       unknown=st.tuples(st.just("--state"), STATES) | st.tuples(st.just("--seed"), st.integers(-2, 2**64)),
       fmt=st.sampled_from(["json", "text"]))
def test_fuzzed_teleport_exits_0_1_or_2_with_a_message(tmp_path_factory, doc, channel, unknown, fmt):
    if channel == "file":
        channel = str(tmp_path_factory.getbasetemp() / "fuzzed.json")
        with open(channel, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    flag, value = unknown
    assert_exits_0_1_or_2_with_a_message(["teleport", "--channel", channel, f"{flag}={value}", "--format", fmt], fmt)


#: each command's report name, as the documents and the text headers write it
REPORTS = {"teleport": "teleport", "analyze": "analyze", "repro": "verification"}


def assert_exits_0_1_or_2_with_a_message(argv, fmt):
    """`main(argv)` exits 0 with a report, 1 with a FAIL or the channel's refusal, or
    2 with an error message, and raises no other exception and no RuntimeWarning."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    if code == 2:
        assert out == "" and "error:" in err
    elif code == 1:
        assert (out == "" and "cannot carry the protocol" in err) or "FAIL" in out or '"pass": false' in out
    else:
        report = REPORTS[argv[0]]
        assert out.startswith(f'{{"report": "{report}"' if fmt == "json" else f"entqc {report} report\n")
        assert err == "" or err.startswith("warning: normalizing --state")


# --- fuzzed command lines ------------------------------------------------------

#: the `repro` sections that take a few ms at most; `teleport` and `invariance` take longer
CHEAP_SECTIONS = ["channel", "measurement", "ghz", "pairs", "wstate", "triads", "witness", "series", "gradient"]
#: flag values, valid and not; a valid `--restarts` is at most 4, so that no search is long
FLAG_VALUES = {
    "--seed": st.integers(-2, 2**64).map(str) | st.sampled_from(["", "abc", "1.5", "0x10", " 3", "1e3"]),
    "--state": STATES,
    "--tol": st.sampled_from(["1e-3", "0.5", "1e-300", "0", "-1", "nan", "inf", "abc", ""]),
    "--restarts": st.integers(-1, 4).map(str) | st.sampled_from(["", "abc", "4097", "1e3", "2.0"]),
    "--format": st.sampled_from(["json", "text", "xml"]),
    "--channel": st.sampled_from(["epr", "bell-transformed", "ghz", "nope", "missing.json"]),
    "--section": st.sampled_from(CHEAP_SECTIONS + ["nope", ""]),
    "--bogus": st.just("1"),
}
#: the flags drawn after each command: its own, and one it does not take
COMMAND_FLAGS = {
    "teleport": ["--seed", "--state", "--format", "--channel", "--bogus"],
    "analyze": ["--seed", "--tol", "--restarts", "--format", "--channel", "--bogus"],
    "repro": ["--seed", "--tol", "--restarts", "--format", "--section", "--bogus"],
}


@st.composite
def fuzzed_argvs(draw):
    """A command (or junk in its place), a valid `--restarts` and, for `repro`, cheap
    sections, then up to four drawn flags, repeats allowed, as `--flag=value` or two words."""
    command = draw(st.sampled_from(["teleport", "analyze", "repro"] * 3 + ["nope", "--seed"]))
    argv = [command]
    if command in ("analyze", "repro"):
        argv += ["--restarts", str(draw(st.integers(1, 4)))]
    if command == "repro":
        for name in draw(st.lists(st.sampled_from(CHEAP_SECTIONS), min_size=1, max_size=2)):
            argv += ["--section", name]
    flags = draw(st.lists(st.sampled_from(COMMAND_FLAGS.get(command, sorted(FLAG_VALUES))), max_size=4))
    formats = ["json"]
    for flag in flags:
        value = draw(FLAG_VALUES[flag])
        argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
        formats += [value] if flag == "--format" else []
    return argv, formats[-1]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(drawn=fuzzed_argvs())
@example(drawn=(["repro", "--restarts", "1", "--section", "witness", "--tol", "1e-300", "--format", "text"], "text"))
@example(drawn=(["analyze", "--restarts", "4", "--channel", "ghz", "--tol=1e-300"], "json"))
def test_fuzzed_command_lines_exit_0_1_or_2_with_a_message(drawn):
    assert_exits_0_1_or_2_with_a_message(*drawn)
