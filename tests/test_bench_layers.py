"""bench/cli_layers.py's row selection, `--only`, on an unknown name, and what
its first-call row rebuilds."""
import importlib.util
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
                 "entqc.import.source.ms", "entqc.import.bytecode.ms", "entqc.import.full.source.ms",
                 "entqc.import.protocol.ast_nodes", "cli.teleport_report.json.us",
                 "cli.teleport_report.file.text.us", "channel.ChannelSpec.us", "teleport.UnknownState.us",
                 "cli.parse_args.us", "cli.parse_args.full.us", "cli.parse_args.repro.us",
                 "channel.is_valid_channel.us", "relations.corrections_from.us", "relations.povm_check.us"):
        assert name in known
    assert not out.exists()


def test_the_first_call_row_builds_the_parser_and_the_teleport_template_anew():
    spec = importlib.util.spec_from_file_location("cli_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    cli = layers.cli
    for _ in range(2):
        layers._quiet_main(layers.TELEPORT_ARGV)
    assert cli.build_parser.cache_info().hits and cli._teleport_template.cache_info().hits
    layers._first_main(layers.TELEPORT_ARGV)
    for cached in (cli.build_parser, cli._teleport_template):  # cache_clear resets the counts
        assert cached.cache_info()[:2] == (0, 1)  # no hit, one miss: built anew
