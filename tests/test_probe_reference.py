"""Probe reports and the limit and contrapositive CLI output, against a
frozen reference.

``tests/data/probe_reference.json`` holds, for each probe call in
``probe_calls()``, the report's flags and every row as one string:
exponent, verdict, margin and scale as ``float.hex`` (a contraction row
carries no scale), then the error text of an ERROR row.  The calls are the
criterion-1 pairs and witness of ``test_acceptance.py``, its criterion-6
limit probes and criterion-7 fixtures, and the inputs of
``test_verify.py``'s Loewner-Heinz, contraction and limit probe tests.  It
also holds the exit code, stdout and stderr of each command in ``RUNS``:
``check --mode limit`` for k in 3..5, dim in 2..3 and seeds 0 and 1;
``check --mode contrapositive`` for k in 3..5, dim in 1..3 and seeds 0 and
1, the README's scalar fixture, and a grid with p = 1e300, whose weights
overflow to 0 and leave every campaign row and some core rows unevaluated.
That last run was frozen with exit 1 and two ``no hypothesis violation
found`` lines; its entry was regenerated when such an instance became
indeterminate (exit 3).

Loewner-Heinz rows are compared bit for bit.  Contraction and limit
margins are compared within 1e-12 * scale, and everything else exactly.
Regenerate the file (only when a change to the output is intended) with

    PYTHONPATH=src python tests/test_probe_reference.py > tests/data/probe_reference.json
"""
import contextlib
import io
import json
import sys
from functools import lru_cache

import numpy as np
import pytest

from oporder.cli import main
from oporder.spectral import HermitianMatrix, diagonal, identity
from oporder.verify import (
    GridPlan,
    gen_ordered_tuple,
    gen_suite_tuple,
    limit_probe,
    probe_contraction_criterion,
    probe_loewner_heinz,
    scalar_bounds,
)
from util import REPO_ROOT, ordered_pair_arrays

REFERENCE = REPO_ROOT / "tests" / "data" / "probe_reference.json"

_LIMIT = ("check", "--mode", "limit", "--count", "2")
_CONTRA = ("check", "--mode", "contrapositive", "--count", "2")
RUNS = tuple(
    _LIMIT + ("--k", str(k), "--dim", str(dim), "--seed", str(seed))
    for k in (3, 4, 5) for dim in (2, 3) for seed in (0, 1)
) + tuple(
    _CONTRA + ("--k", str(k), "--dim", str(dim), "--seed", str(seed))
    for k in (3, 4, 5) for dim in (1, 2, 3) for seed in (0, 1)
) + (
    ("check", "--mode", "contrapositive", "--k", "3", "--scalar-fixture", "2,1,3",
     "--t", "0.5", "--r", "1", "--weights", "fixed:0.5,0.5", "--p-grid", "1"),
    _CONTRA + ("--k", "3", "--dim", "2", "--seed", "0", "--p-grid", "1e300"),
)

_WITNESS_P = HermitianMatrix(np.array([[2.0, 1.0], [1.0, 1.0]]))
_WITNESS_Q = HermitianMatrix(np.ones((2, 2)))
_S_GRID = (1.5, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


def probe_calls():
    """(name, kind, thunk) for every frozen probe call."""
    calls = []
    for i in range(500):
        p_arr, q_arr = ordered_pair_arrays(np.random.default_rng((1234, i)), 2 + i % 5)
        calls.append((f"criterion1 pair {i}", "loewner_heinz",
                      lambda p=p_arr, q=q_arr: probe_loewner_heinz(
                          HermitianMatrix(p), HermitianMatrix(q),
                          alphas=(0.0, 0.25, 0.5, 0.75, 1.0))))
    calls.append(("witness at 2", "loewner_heinz",
                  lambda: probe_loewner_heinz(_WITNESS_P, _WITNESS_Q, alphas=(2.0,))))
    calls.append(("witness at 0 and 1", "loewner_heinz",
                  lambda: probe_loewner_heinz(_WITNESS_P, _WITNESS_Q, alphas=(0.0, 1.0))))
    calls.append(("precondition fails", "loewner_heinz",
                  lambda: probe_loewner_heinz(identity(2), diagonal([2.0, 2.0]))))
    rng = np.random.default_rng(0)
    for j in range(10):
        pair = gen_ordered_tuple(2, 3, seed=int(rng.integers(1 << 30)))
        calls.append((f"generated pair {j}", "loewner_heinz",
                      lambda m=pair.matrices: probe_loewner_heinz(m[1], m[0])))

    ident = identity(2)
    contraction = {
        "doubling": (ident, diagonal([2.0, 2.0]), 1.0, 0.0, 0.5, _S_GRID),
        "halving": (ident, diagonal([0.5, 0.5]), 1.0, 0.0, 1.0, _S_GRID),
        "contraction confirmed": (ident, HermitianMatrix(0.5 * np.eye(2)), 1.0, 0.0, 1.0),
        "expansion fails fast": (ident, HermitianMatrix(2.0 * np.eye(2)), 1.0, 0.0, 0.5),
        "scaled p equality": (HermitianMatrix(2.0 * np.eye(2)), ident, 1.0, 0.0, 1.0),
        "cross check escalates": (HermitianMatrix(4.0 * np.eye(2)),
                                  HermitianMatrix(np.diag([1.001, 0.5])), 1.0, 0.5, 1.0,
                                  (1.5, 2.0)),
    }
    for name, args in contraction.items():
        calls.append((name, "contraction", lambda a=args: probe_contraction_criterion(*a)))

    for i in range(50):
        tup = gen_suite_tuple(5, (2, 3)[i % 2], seed=[5100, i])
        rng = np.random.default_rng([5100, i, 99])
        t = (rng.uniform(0.75, 0.95), rng.uniform(0.05, 0.15))
        interior, = scalar_bounds(tup, (1.0, t[1]), GridPlan(((1.0,) * 4,)))
        calls.append((f"criterion6 instance {i}", "limit",
                      lambda m=tup.matrices, c=max(1.0, interior): limit_probe(m[0], m[1], c=c)))
    calls.append(("fixed constant 4", "limit",
                  lambda: limit_probe(diagonal([1.0, 1.0]), diagonal([1.0, 1.0]), c=4.0)))
    calls.append(("identity pair", "limit", lambda: limit_probe(identity(2), identity(2))))
    calls.append(("identity pair c=4", "limit",
                  lambda: limit_probe(identity(2), identity(2), c=4.0)))
    ordered = gen_ordered_tuple(2, 3, seed=21)
    calls.append(("ordered pair", "limit",
                  lambda: limit_probe(ordered.matrices[0], ordered.matrices[1])))
    calls.append(("unordered pair", "limit",
                  lambda: limit_probe(diagonal([2.0, 2.0]), identity(2))))
    return calls


def _hex(value):
    return None if value is None else float(value).hex()


def _verdict(v) -> list:
    return [v.relation.value, _hex(v.margin), _hex(v.tol)]


def _row(*fields) -> str:
    """A row's fields as one string: floats as ``float.hex``, None left out."""
    return " ".join(_hex(f) if isinstance(f, float) else f for f in fields if f is not None)


def probe_record(kind: str, rep) -> dict:
    """A probe report as JSON-ready flags and row strings."""
    if kind == "loewner_heinz":
        rows = [] if rep.table is None else rep.table.rows
        return {"precondition_ok": rep.precondition_ok,
                "rows": [_row(r.point, r.verdict, r.margin, r.scale, r.error) for r in rows]}
    if kind == "contraction":
        return {"hypothesis_holds": rep.hypothesis_holds,
                "conclusion": _verdict(rep.conclusion),
                "implication_status": rep.implication_status,
                "cross_check_required": rep.cross_check_required,
                "cross_check_ok": rep.cross_check_ok,
                "failure_s": _hex(rep.failure_s),
                "rows": [_row(r.point, r.verdict, r.margin) for r in rep.table.rows]}
    return {"c": _hex(rep.c), "p2_values": [_hex(v) for v in rep.p2_values],
            "sequence": [_hex(v) for v in rep.sequence],
            "monotone_nonincreasing": rep.monotone_nonincreasing,
            "final_gap": _hex(rep.final_gap), "lambda_max_core": _hex(rep.lambda_max_core),
            "inferred_bound": _hex(rep.inferred_bound),
            "bound_consistent": rep.bound_consistent, "order_consistent": rep.order_consistent,
            "conclusion": _verdict(rep.conclusion)}


def run_output(argv) -> dict:
    """Exit code, stdout and stderr of ``oporder <argv>``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@lru_cache(maxsize=None)
def reference() -> dict:
    return json.loads(REFERENCE.read_text())


@lru_cache(maxsize=None)
def frozen_probes() -> dict[str, dict]:
    return {entry["name"]: entry["report"] for entry in reference()["probes"]}


def _close(got, want, scale) -> bool:
    """float.hex texts within 1e-12 * scale of each other (None and NaN
    only match themselves)."""
    if got is None or want is None:
        return got == want
    a, b = float.fromhex(got), float.fromhex(want)
    return a == b or (a == a and abs(a - b) <= 1e-12 * scale)


def _check_rows(got: list[str], want: list[str], scales) -> None:
    assert len(got) == len(want)
    for row, frozen, scale in zip(got, want, scales):
        (exp, verdict, margin, *rest), (f_exp, f_verdict, f_margin, *f_rest) = \
            row.split(" ", 3), frozen.split(" ", 3)
        assert (exp, verdict, rest) == (f_exp, f_verdict, f_rest)
        assert _close(margin, f_margin, scale), (row, frozen)


@pytest.mark.parametrize("kind", ["loewner_heinz", "contraction", "limit"])
def test_probe_reports_match_reference(kind):
    for name, call_kind, thunk in probe_calls():
        if call_kind != kind:
            continue
        rep = thunk()
        got, want = probe_record(kind, rep), frozen_probes()[name]
        if kind == "loewner_heinz":
            assert got == want, name  # bit for bit
        elif kind == "contraction":
            _check_rows(got.pop("rows"), want.pop("rows"), rep.table.columns["scale"].tolist())
            assert got == want, name
        else:
            scale = max(1.0, abs(rep.lambda_max_core), abs(rep.c))
            for key in ("c", "final_gap", "lambda_max_core", "inferred_bound"):
                assert _close(got.pop(key), want.pop(key), scale), (name, key)
            for a, b in zip(got.pop("sequence"), want.pop("sequence"), strict=True):
                assert _close(a, b, scale), name
            assert got == want, name


@pytest.mark.parametrize("argv", RUNS, ids=lambda argv: " ".join(argv[2:]))
def test_cli_output_matches_reference(argv):
    frozen = {entry["argv"]: entry["output"] for entry in reference()["runs"]}
    assert run_output(argv) == frozen[" ".join(argv)]


def test_reference_covers_every_outcome():
    frozen = {entry["argv"]: entry["output"] for entry in reference()["runs"]}
    assert {frozen[" ".join(argv)]["exit"] for argv in RUNS} == {0, 3}
    unevaluated = frozen[" ".join(RUNS[-1])]
    assert unevaluated["exit"] == 3 and "VIOLATION" not in unevaluated["stderr"]
    assert all(line.startswith("ERROR: ") for line in unevaluated["stderr"].splitlines())


def write_reference(out) -> None:
    probes = [{"name": name, "kind": kind, "report": probe_record(kind, thunk())}
              for name, kind, thunk in probe_calls()]
    runs = [{"argv": " ".join(argv), "output": run_output(argv)} for argv in RUNS]
    doc = {"regenerate": __doc__.strip().splitlines()[-1].strip(),
           "probes": probes, "runs": runs}
    out.write(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    write_reference(sys.stdout)
