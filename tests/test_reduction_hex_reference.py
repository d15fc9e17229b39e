"""Reduction tables reproduced bit for bit against a frozen reference.

``tests/data/reduction_hex_reference.json`` holds, for the proof-steps
instances k in 3..6, dim in 2..3, seeds 0 and 1 (instance 0 of each) on
the grids {1, 1.5, 4} and {1, 2, 8}, the premise counts, the first error
text of each p-vector with an ERROR row and, per p-vector, the margins
and scales of its core, peel and scalar rows of the ``ReductionReport``
table and its c_total as ``float.hex``, one line of seven per p-vector.
Each row keeps its own margin, NaN only on an ERROR row: at p-index 727
of the k = 6 instances on {1, 1.5, 4} the core row is ERROR and the peel
and scalar rows are decided.  Everything is compared exactly;
``tests/test_reduction_reference.py`` checks the same margins to within
1e-12 * scale on a smaller set.  Regenerate the file (only when a change
to the margins is intended) with

    PYTHONPATH=src python tests/test_reduction_hex_reference.py > tests/data/reduction_hex_reference.json
"""
import json
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
from util import REDUCTION_FIELDS, REPO_ROOT, reduction_points

REFERENCE = REPO_ROOT / "tests" / "data" / "reduction_hex_reference.json"
GRIDS = ((1.0, 1.5, 4.0), (1.0, 2.0, 8.0))
SHAPES = [(k, dim, seed, grid) for k in (3, 4, 5, 6) for dim in (2, 3) for seed in (0, 1)
          for grid in GRIDS]


def reduction_instance(k: int, dim: int, seed: int, grid) -> tuple[Instance, PGrid]:
    """Instance 0 and the grid of ``check --mode proof-steps --k K --dim D
    --seed S --count 1 --p-grid G``: the same tuple and template."""
    n = k // 2
    tup = gen_suite_tuple(k, dim, [seed, 0])
    rng = _rng(seed, 0, 99)
    t = (rng.uniform(0.75, 0.95),) + tuple(rng.uniform(0.05, 0.15) for _ in range(n - 1))
    template = ParamTemplate(t=t, r=t[-1] + rng.uniform(0.3, 1.2))
    return Instance(tup, template, WeightPolicy.necessity()), PGrid(values=grid)


def reduction_entry(k: int, dim: int, seed: int, grid) -> dict:
    """What the reference keeps of that run's instance 0, on the same
    p-samples."""
    report = check_reduction_chain(*reduction_instance(k, dim, seed, grid), master_seed=seed)
    points = reduction_points(report)
    return {
        "k": k, "dim": dim, "seed": seed, "grid": list(grid),
        "premise_failures": report.premise_failures,
        "premise_errors": report.premise_errors,
        "errors": {str(i): point["error"] for i, point in enumerate(points) if point["error"]},
        "table": [" ".join(point[name].hex() for name in REDUCTION_FIELDS) for point in points],
    }


@lru_cache(maxsize=None)
def reference() -> dict:
    return {(e["k"], e["dim"], e["seed"], tuple(e["grid"])): e
            for e in json.loads(REFERENCE.read_text())["instances"]}


@pytest.mark.parametrize("k,dim,seed,grid", SHAPES)
def test_reduction_table_matches_reference_bit_for_bit(k, dim, seed, grid):
    got = reduction_entry(k, dim, seed, grid)
    want = reference()[(k, dim, seed, grid)]
    assert (got["premise_failures"], got["premise_errors"]) == \
        (want["premise_failures"], want["premise_errors"])
    assert got["errors"] == want["errors"]
    assert len(got["table"]) == len(want["table"])
    for i, (row, ref) in enumerate(zip(got["table"], want["table"])):
        assert row == ref, i


def test_reference_holds_error_rows():
    assert any(entry["errors"] for entry in reference().values())


def write_reference(out) -> None:
    doc = {"regenerate": __doc__.strip().splitlines()[-1].strip(),
           "instances": [reduction_entry(*shape) for shape in SHAPES]}
    out.write(json.dumps(doc, indent=0) + "\n")


if __name__ == "__main__":
    write_reference(sys.stdout)
