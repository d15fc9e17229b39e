"""Proof-steps CLI output reproduced byte for byte against a frozen reference.

``tests/data/proof_steps_reference.json`` holds the exit code, stdout and
stderr of each command in ``RUNS``: k in 3..6, dim in 2..3, seeds 0 and 1
(k = 6 at dim 2 carries ERROR rows), one fixed weight vector under which
the premise member fails, and a grid with p = 1e300, whose necessity
weights overflow to 0 and leave premise rows unevaluated.  Regenerate the
file (only when a change to the output is intended) with

    PYTHONPATH=src python tests/test_proof_steps_reference.py > tests/data/proof_steps_reference.json
"""
import contextlib
import io
import json
import sys
from functools import lru_cache

import pytest

from oporder.cli import main
from util import REPO_ROOT

REFERENCE = REPO_ROOT / "tests" / "data" / "proof_steps_reference.json"
_BASE = ("check", "--mode", "proof-steps", "--count", "2")
RUNS = tuple(
    _BASE + ("--k", str(k), "--dim", str(dim), "--seed", str(seed), "--p-grid", "1,1.5,4")
    for k in (3, 4, 5, 6) for dim in (2, 3) for seed in (0, 1)
) + (
    _BASE + ("--k", "3", "--dim", "2", "--seed", "0", "--p-grid", "1,1.5,4",
             "--weights", "fixed:0.01,0.01"),
    _BASE + ("--k", "4", "--dim", "2", "--seed", "0", "--p-grid", "1,1e300"),
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


@pytest.mark.parametrize("argv", RUNS, ids=lambda argv: " ".join(argv[5:]))
def test_proof_steps_output_matches_reference(argv):
    assert run_output(argv) == reference()[" ".join(argv)]


def test_reference_covers_every_outcome():
    codes = {entry["exit"] for entry in reference().values()}
    assert codes == {0, 1, 3}
    assert "premise member failed" in reference()[" ".join(RUNS[-2])]["stderr"]
    assert "ERROR: " in reference()[" ".join(RUNS[-1])]["stderr"]


def write_reference(out) -> None:
    runs = [{"argv": " ".join(argv), "output": run_output(argv)} for argv in RUNS]
    doc = {"regenerate": __doc__.strip().splitlines()[-1].strip(), "runs": runs}
    out.write(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    write_reference(sys.stdout)
