"""bench/ab.py's summary of an A/B run, on made-up run results."""
import importlib.util
from pathlib import Path

AB = Path(__file__).resolve().parent.parent / "bench" / "ab.py"


def load_ab():
    spec = importlib.util.spec_from_file_location("bench_ab", AB)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def runs(*pairs):
    return [{"attempted": ops, "metrics": {"peak_rss_mb": {"value": rss}}} for ops, rss in pairs]


def test_rss_slope_is_fitted_over_both_sides_in_mb_per_10k_ops(capsys):
    ab = load_ab()
    # 1.2 MB per 10k ops on both sides: the change's +20k median ops give all of its +2.4 MB
    ab.rss_per_op(runs((10_000, 50.0), (20_000, 51.2)), runs((30_000, 52.4), (40_000, 53.6)))
    out = capsys.readouterr().out
    assert "all 4 runs: +1.2 MB per 10k ops" in out
    assert "median ops +20000 -> +2.4 MB of the median peak_rss_mb change +2.4 MB" in out


def test_rss_slope_needs_two_distinct_op_counts(capsys):
    load_ab().rss_per_op(runs((10_000, 50.0)), runs((10_000, 51.0)))
    assert "too few distinct op counts" in capsys.readouterr().out


def test_layer_report_gives_medians_quartiles_ratio_and_pairs_won(capsys):
    parent = [{"a.ms": 10.0, "b.us": 2.0}, {"a.ms": 12.0, "b.us": 2.0}, {"a.ms": 11.0, "b.us": 3.0}]
    change = [{"a.ms": 5.0, "b.us": 2.5}, {"a.ms": 6.0, "b.us": 1.0}, {"a.ms": 13.0, "b.us": 3.0}]
    load_ab().layer_report(parent, change)
    a, b = capsys.readouterr().out.splitlines()
    # a: parent 10, 11, 12 -> change 5, 6, 13; won pairs 1 and 2 of 3
    assert a == ("  a.ms: 11 (IQR 10.5-11.5, 1) -> 6 (IQR 5.5-9.5, 4), -45.5%, gap -5, "
                 "parent/change 1.83x; change better in 2/3")
    # b: a tie is not a win
    assert b.startswith("  b.us: 2 (IQR 2-2.5, 0.5) -> 2.5 (IQR 1.75-2.75, 1), +25.0%, gap +0.5, ")
    assert b.endswith("parent/change 0.8x; change better in 1/3")


def test_layer_runs_read_both_groups_of_a_cli_layers_result(tmp_path, monkeypatch):
    ab = load_ab()

    def fake_run(cmd, cwd, capture_output, text):
        assert cwd == tmp_path and cmd[1:3] == ["bench/cli_layers.py", "--out"]
        assert cmd[cmd.index("--only") + 1:] == ["cli.main.analyze.ms", "tensor.StateVector.us"]
        out = Path(cmd[cmd.index("--out") + 1])
        out.write_text('{"end_to_end": {"cli.main.analyze.ms": 7.0}, "layers": {"tensor.StateVector.us": 3.0}}')
        return ab.subprocess.CompletedProcess(cmd, 0, "", "")

    monkeypatch.setattr(ab.subprocess, "run", fake_run)
    rows = ab.run_layers(tmp_path, ["cli.main.analyze.ms", "tensor.StateVector.us"])
    assert rows == {"cli.main.analyze.ms": 7.0, "tensor.StateVector.us": 3.0}


def test_an_end_to_end_line_flags_a_median_worse_than_its_bound():
    compare = load_ab().compare
    # higher is better: the median falls 20 %, past a 10 % bound
    line = compare("ops_per_s", [100.0, 100.0], [80.0, 80.0], lower=False, bound=0.1)
    assert line.endswith("change better in 0/2; bound 0.1  WORSE THAN BOUND")
    assert compare("op_mean_ref", [1.0, 1.2], [1.1, 1.1], bound=0.25).endswith("; bound 0.25")
