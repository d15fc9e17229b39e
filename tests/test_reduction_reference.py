"""Reduction-chain margins reproduced against a frozen reference.

``tests/data/reduction_reference.csv`` holds every p-vector of the
``ReductionReport`` tables (``util.reduction_points``) of the proof-steps
instances k in 3..5, dim in 2..3, seeds 0 and 1 (instance 0 of
each), grid {1, 1.5, 4}.  Each margin, scale and c_total must come back
within 1e-12 * scale of it, and each error text unchanged.  Regenerate the
file (only when a change to the margins is intended) with

    PYTHONPATH=src python tests/test_reduction_reference.py > tests/data/reduction_reference.csv
"""
import csv
import sys
from functools import lru_cache

import pytest

from oporder.verify import (
    Instance,
    ParamTemplate,
    PGrid,
    WeightPolicy,
    _rng,
    check_reduction_chain,
    gen_suite_tuple,
)
from util import REPO_ROOT, reduction_points

REFERENCE = REPO_ROOT / "tests" / "data" / "reduction_reference.csv"
GRID = PGrid(values=(1.0, 1.5, 4.0))
SHAPES = [(k, dim, seed) for k in (3, 4, 5) for dim in (2, 3) for seed in (0, 1)]
PAIRS = (("margin_core", "scale_core"), ("margin_peel", "scale_peel"),
         ("margin_scalar", "scale_scalar"))
COLUMNS = ("k", "dim", "seed", "p_vector") + tuple(c for pair in PAIRS for c in pair) \
    + ("c_total", "error")
TOL_REL = 1e-12


def reduction_rows(k: int, dim: int, seed: int):
    """The rows of ``check --mode proof-steps --k K --dim D --seed S
    --count 1 --p-grid 1,1.5,4``: the same tuple, template and p-samples."""
    n = k // 2
    tup = gen_suite_tuple(k, dim, [seed, 0])
    rng = _rng(seed, 0, 99)
    t = (rng.uniform(0.75, 0.95),) + tuple(rng.uniform(0.05, 0.15) for _ in range(n - 1))
    template = ParamTemplate(t=t, r=t[-1] + rng.uniform(0.3, 1.2))
    instance = Instance(tup, template, WeightPolicy.necessity())
    return reduction_points(check_reduction_chain(instance, GRID, master_seed=seed))


@lru_cache(maxsize=None)
def reference() -> dict:
    table = {}
    with open(REFERENCE, newline="") as fh:
        for rec in csv.DictReader(line for line in fh if not line.startswith("#")):
            table.setdefault((int(rec["k"]), int(rec["dim"]), int(rec["seed"])), []).append(rec)
    return table


@pytest.mark.parametrize("k,dim,seed", SHAPES)
def test_reduction_margins_match_reference(k, dim, seed):
    wanted = reference()[(k, dim, seed)]
    rows = reduction_rows(k, dim, seed)
    assert [";".join(repr(v) for v in row["p_vector"]) for row in rows] == \
        [rec["p_vector"] for rec in wanted]
    for row, rec in zip(rows, wanted):
        assert (row["error"] or "") == rec["error"], rec["p_vector"]
        if row["error"]:
            continue
        for margin, scale in PAIRS:
            ref_scale = float(rec[scale])
            assert abs(row[margin] - float(rec[margin])) <= TOL_REL * ref_scale, \
                (margin, rec["p_vector"])
            assert abs(row[scale] - ref_scale) <= TOL_REL * ref_scale, \
                (scale, rec["p_vector"])
        ref_c = float(rec["c_total"])
        assert abs(row["c_total"] - ref_c) <= TOL_REL * max(1.0, abs(ref_c)), rec["p_vector"]


def write_reference(out) -> None:
    out.write("# " + __doc__.strip().splitlines()[-1].strip() + "\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(COLUMNS)
    for k, dim, seed in SHAPES:
        for row in reduction_rows(k, dim, seed):
            writer.writerow([k, dim, seed, ";".join(repr(v) for v in row["p_vector"])]
                            + [repr(row[c]) for c in COLUMNS[4:-1]]
                            + [row["error"] or ""])


if __name__ == "__main__":
    write_reference(sys.stdout)
