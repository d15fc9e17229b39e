"""Row printers reproduced byte for byte against a frozen reference.

``tests/data/row_printer_reference.json`` holds the exit code, stdout and
stderr of each command in ``RUNS``: a necessity run whose p = 1e300 rows
give one finite violation and ERROR rows, and the two ERROR-row runs of the
README examples (a k = 5 scalar fixture and k = 6 at dim 2).  It also holds
the exit code and stdout of ``scripts/walk_reduction_chain.py`` with
``WALK_ARGS``.  Regenerate the file (only when a change to the output is
intended) with

    PYTHONPATH=src python tests/test_row_printer_reference.py > tests/data/row_printer_reference.json
"""
import json
import os
import subprocess
import sys
from functools import lru_cache

import pytest

from test_proof_steps_reference import run_output
from util import REPO_ROOT

REFERENCE = REPO_ROOT / "tests" / "data" / "row_printer_reference.json"
RUNS = (
    ("check", "--mode", "necessity", "--k", "3", "--scalar-fixture", "4,1,2", "--t", "0.5",
     "--r", "1", "--p-grid", "1,1e300"),
    ("check", "--mode", "necessity", "--k", "5", "--scalar-fixture", "1,2,3,4,5",
     "--t", "0.5,0.5", "--r", "1", "--weights", "necessity", "--p-grid", "1,2,4,8"),
    ("check", "--mode", "necessity", "--weights", "necessity", "--k", "6", "--dim", "2",
     "--count", "3", "--seed", "0", "--p-grid", "1,1.5,2,4"),
)
WALK_ARGS = ("--k", "5", "--dim", "3", "--seed", "11")


def walk_output(args) -> dict:
    """Exit code and stdout of the walk script run with ``args``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO_ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "walk_reduction_chain.py"), *args],
        capture_output=True, text=True, env=env, timeout=120)
    return {"exit": proc.returncode, "stdout": proc.stdout}


@lru_cache(maxsize=None)
def reference() -> dict:
    return json.loads(REFERENCE.read_text())


@pytest.mark.parametrize("argv", RUNS, ids=lambda argv: " ".join(argv[2:]))
def test_check_output_matches_reference(argv):
    runs = {entry["argv"]: entry["output"] for entry in reference()["runs"]}
    assert run_output(argv) == runs[" ".join(argv)]


def test_walk_output_matches_reference():
    assert walk_output(WALK_ARGS) == reference()["walk"]["output"]


def test_reference_covers_violation_and_error_rows():
    outputs = [entry["output"] for entry in reference()["runs"]]
    assert [out["exit"] for out in outputs] == [1, 3, 3]
    assert outputs[0]["stderr"].count("VIOLATION: ") == 1
    assert [out["stderr"].count("ERROR: ") for out in outputs[1:]] == [87, 652]
    assert all("ERROR: " in out["stderr"] for out in outputs)


def write_reference(out) -> None:
    doc = {
        "regenerate": __doc__.strip().splitlines()[-1].strip(),
        "runs": [{"argv": " ".join(argv), "output": run_output(argv)} for argv in RUNS],
        "walk": {"args": " ".join(WALK_ARGS), "output": walk_output(WALK_ARGS)},
    }
    out.write(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    write_reference(sys.stdout)
