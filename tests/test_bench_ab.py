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
