"""Necessity margins reproduced against the frozen benchmark reference.

``perfbench/reference_seed0.csv`` holds the margins of the benchmark's
necessity round at seed 0: the criterion-4 shapes (k in 3..5, dim in 2..4),
one instance each, grid {1, 1.5, 2, 4}.  The same command lines must print
every margin within 1e-12 * scale of it.  The file is only read here.
"""
import csv
from functools import lru_cache

import pytest

from oporder.cli import EXIT_OK, main
from util import REPO_ROOT

REFERENCE = REPO_ROOT / "perfbench" / "reference_seed0.csv"
GRID = (1.0, 1.5, 2.0, 4.0)
TOL_REL = 1e-12


@lru_cache(maxsize=None)
def reference() -> dict:
    table = {}
    with open(REFERENCE, newline="") as fh:
        for rec in csv.DictReader(line for line in fh if not line.startswith("#")):
            key = (int(rec["k"]), int(rec["dim"]), rec["instance_id"], rec["family"],
                   int(rec["member"]), int(rec["p_index"]))
            table[key] = (float(rec["margin"]), float(rec["scale"]))
    return table


def p_index(p_vector: str) -> int:
    """Position of a p-vector in the grid's Cartesian product order."""
    index = 0
    for value in p_vector.split(";"):
        index = index * len(GRID) + GRID.index(float(value))
    return index


@pytest.mark.parametrize("dim", (2, 3, 4))
@pytest.mark.parametrize("k", (3, 4, 5))
def test_necessity_margins_match_reference(k, dim, tmp_path, capsys):
    report = tmp_path / "rows.csv"
    code = main(["check", "--mode", "necessity", "--weights", "necessity",
                 "--p-grid", ",".join(f"{v:g}" for v in GRID), "--k", str(k),
                 "--dim", str(dim), "--seed", "0", "--count", "1",
                 "--report", str(report)])
    capsys.readouterr()
    assert code == EXIT_OK
    with open(report, newline="") as fh:
        rows = list(csv.DictReader(fh))
    wanted = {key: ref for key, ref in reference().items() if key[:2] == (k, dim)}
    seen = set()
    for row in rows:
        key = (k, dim, row["instance_id"], row["family"], int(row["member"]),
               p_index(row["p_vector"]))
        margin, scale = wanted[key]
        assert abs(float(row["margin"]) - margin) <= TOL_REL * scale, key
        seen.add(key)
    assert seen == set(wanted)
