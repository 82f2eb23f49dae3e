"""bench/cli_layers.py's row selection, `--only`, on an unknown name."""
import subprocess
import sys
from pathlib import Path

LAYERS = Path(__file__).resolve().parent.parent / "bench" / "cli_layers.py"


def test_an_unknown_row_exits_2_and_lists_the_known_rows(tmp_path):
    out = tmp_path / "layers.json"
    proc = subprocess.run(
        [sys.executable, str(LAYERS), "--out", str(out), "--only", "teleport.run_protocol.us", "no.such.row.us"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 2
    assert "unknown row(s) no.such.row.us;" in proc.stderr
    known = proc.stderr.split("known rows: ", 1)[1]
    for name in ("teleport.teleport_all_outcomes.us", "teleport.run_protocol.us", "cli.main.analyze.ms",
                 "report.section.invariance.ms", "entqc.process.teleport.json.ms",
                 "entqc.import.source.ms", "entqc.import.bytecode.ms"):
        assert name in known
    assert not out.exists()
