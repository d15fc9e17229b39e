"""Necessity campaign CSV reproduced byte for byte against a frozen reference.

``tests/data/necessity_csv_reference.csv`` holds the ``--report`` CSV, with
its ``seconds`` column cut, of each command in ``RUNS``; a ``# check ...``
line starts each run's block.  The last run samples p = 1e300, whose weight
overflows to 0, so its block carries ERROR rows.  Regenerate the file (only
when a change to the report is intended) with

    PYTHONPATH=src python tests/test_necessity_csv_reference.py > tests/data/necessity_csv_reference.csv
"""
import contextlib
import io
import sys
import tempfile
from pathlib import Path

import pytest

from oporder.cli import main
from util import REPO_ROOT

REFERENCE = REPO_ROOT / "tests" / "data" / "necessity_csv_reference.csv"
_BASE = ("check", "--mode", "necessity", "--dim", "2", "--seed", "0", "--count", "2")
RUNS = (
    _BASE + ("--k", "3"),
    _BASE + ("--k", "5"),
    _BASE + ("--k", "3", "--p-grid", "1,1e300"),
)


def report_without_seconds(argv) -> str:
    """The CSV that ``oporder <argv> --report`` writes, minus its last
    column (``seconds``, the only one that varies between runs)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.csv"
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            main(list(argv) + ["--report", str(path)])
        text = path.read_text()
    return "".join(line.rsplit(",", 1)[0] + "\n" for line in text.splitlines())


def reference() -> dict[str, str]:
    blocks: dict[str, list[str]] = {}
    current = None
    for line in REFERENCE.read_text().splitlines(keepends=True):
        if line.startswith("# check "):
            current = blocks.setdefault(line[2:].strip(), [])
        elif current is not None:
            current.append(line)
    return {key: "".join(lines) for key, lines in blocks.items()}


@pytest.mark.parametrize("argv", RUNS, ids=lambda argv: " ".join(argv[9:]))
def test_necessity_csv_matches_reference(argv):
    assert report_without_seconds(argv) == reference()[" ".join(argv)]


def test_reference_has_error_rows():
    assert ",ERROR" in reference()[" ".join(RUNS[-1])]


def write_reference(out) -> None:
    out.write("# " + __doc__.strip().splitlines()[-1].strip() + "\n")
    for argv in RUNS:
        out.write("# " + " ".join(argv) + "\n")
        out.write(report_without_seconds(argv))


if __name__ == "__main__":
    write_reference(sys.stdout)
