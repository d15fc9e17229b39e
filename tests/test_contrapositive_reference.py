"""Contrapositive CLI output reproduced byte for byte against a frozen reference.

``tests/data/contrapositive_reference.json`` holds the exit code, stdout
and stderr of each command in ``RUNS``: generated unordered tuples whose
sampled hypotheses fail (exit 0), at k = 3 and 5 and dims 2 and 3; dim-1
tuples on a grid of huge exponents, whose failures are implied by their
cores or hidden in rows that were not evaluated (exit 3); an ordered scalar
fixture with no violation on or beyond the grid (exit 1); and a fixture
whose finite failure sits beside ERROR rows and prints in exponent form.
Regenerate the file (only when a change to the output is intended) with

    PYTHONPATH=src python tests/test_contrapositive_reference.py > tests/data/contrapositive_reference.json
"""
import contextlib
import io
import json
import sys
from functools import lru_cache

import pytest

from oporder.cli import main
from util import REPO_ROOT

REFERENCE = REPO_ROOT / "tests" / "data" / "contrapositive_reference.json"
_BASE = ("check", "--mode", "contrapositive")
RUNS = (
    _BASE + ("--k", "3", "--dim", "2", "--seed", "0", "--count", "5"),
    _BASE + ("--k", "3", "--dim", "3", "--seed", "1", "--count", "3", "--p-grid", "1,1.5,4"),
    _BASE + ("--k", "5", "--dim", "2", "--seed", "2", "--count", "3", "--p-grid", "1,2"),
    _BASE + ("--k", "3", "--dim", "1", "--count", "4", "--p-grid", "50,500"),
    _BASE + ("--k", "3", "--scalar-fixture", "1,2,3", "--t", "0.5", "--r", "1",
             "--p-grid", "1,2"),
    _BASE + ("--k", "3", "--scalar-fixture", "1e300,2,3", "--t", "0.5", "--r", "1.9",
             "--p-grid", "1,2"),
)


def run_output(argv) -> dict:
    """Exit code, stdout and stderr of ``oporder <argv>``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@lru_cache(maxsize=None)
def reference() -> dict[str, dict]:
    return {entry["argv"]: entry["output"] for entry in json.loads(REFERENCE.read_text())["runs"]}


@pytest.mark.parametrize("argv", RUNS, ids=lambda argv: " ".join(argv[3:]))
def test_contrapositive_output_matches_reference(argv):
    assert run_output(argv) == reference()[" ".join(argv)]


def test_reference_covers_every_outcome():
    outputs = reference().values()
    assert {entry["exit"] for entry in outputs} == {0, 1, 3}
    stdout = "".join(entry["stdout"] for entry in outputs)
    stderr = "".join(entry["stderr"] for entry in outputs)
    for line in ("hypothesis-failure found", "hypothesis-failure implied", "e+"):
        assert line in stdout
    for line in ("ERROR: ", "VIOLATION: "):
        assert line in stderr


def write_reference(out) -> None:
    runs = [{"argv": " ".join(argv), "output": run_output(argv)} for argv in RUNS]
    doc = {"regenerate": __doc__.strip().splitlines()[-1].strip(), "runs": runs}
    out.write(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    write_reference(sys.stdout)
