"""Regenerate analyze_seed7.json and analyze_seed7.txt: the bytes that
`entqc analyze --seed 7` writes, in JSON and with `--format text` (the cases of
`ANALYZE_GOLDEN` in tests/test_cli.py, which compares them byte for byte).

    PYTHONPATH=src python tests/golden/make_analyze_seed7.py

Regenerate them only for a change meant to move `analyze` rows, and list every
row that moved in CHANGES.md.
"""
import contextlib
import io
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from test_cli import ANALYZE_GOLDEN  # noqa: E402

from entqc.cli import main  # noqa: E402


def write() -> int:
    for name, flags in ANALYZE_GOLDEN.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["analyze", "--seed", "7", *flags])
        if code != 0:
            return code
        (HERE / name).write_text(out.getvalue(), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(write())
