"""search reproduced exactly against a frozen reference.

``tests/data/search_reference.json`` holds, for each command in ``RUNS``,
the exit code, the printed JSON, the findings JSON and, per instance, what
the reports returned by ``verify.check_hypotheses`` show of it: one entry
per report that holds the instance's rows (one per grid it was scanned on),
giving the rows evaluated and the deciding (last) row's member, point
(its p-vector's index), margin and scale as ``float.hex``, verdict and error text.  ``CONFIGS``
are searches run through ``search_counterexample`` with a grid capped at
its single point, which the command line cannot set; for them the file
holds the report's JSON in place of the printed output and the findings.
Everything is compared exactly.

Where each outcome is reached:
- hypothesis_failed: every run;
- evaluation_error: ``--k 3 --seed 1 --dim 1,2 --p-grid 1`` (4);
- hypothesis_failed_after_escalation: ``--k 3 --seed 1 --dim 1,2
  --p-grid 1`` (6), whose instances sit on two dims and escalate their
  grids one at a time;
- implied_hypothesis_failure and emitted: ``CONFIGS`` (k=4 seed 1: 3
  implied, 1 emitted; k=3 seed 1: 10 implied; the complex k=3 seed 2: 2
  implied).

Search keeps no conclusion_held counter: ``gen_unordered_tuple`` only
returns tuples whose adjacent conclusion fails at the tolerance
``check_conclusion`` uses, so no instance could reach it.  The file was
frozen with that counter at 0 in every run, and only those lines were
removed from it.

The k=7 run samples a subsampled grid product (5^6 > 10,000 points), so its
p rows differ per instance.  Regenerate the file (only when a change to the
search is intended) with

    PYTHONPATH=src python tests/test_search_reference.py > tests/data/search_reference.json
"""
import contextlib
import io
import json
import sys
import tempfile
from collections import defaultdict
from functools import lru_cache
from pathlib import Path

import pytest

from oporder import verify
from oporder.cli import main
from util import REPO_ROOT

REFERENCE = REPO_ROOT / "tests" / "data" / "search_reference.json"
RUNS = tuple(
    ("search", "--k", str(k), "--seed", str(seed), "--budget", "60", "--emit-stats")
    for k in (3, 4, 5) for seed in range(5)
) + (
    ("search", "--k", "3", "--seed", "1", "--budget", "60", "--emit-stats",
     "--dim", "1,2", "--p-grid", "1"),
    ("search", "--k", "3", "--seed", "0", "--budget", "60", "--emit-stats",
     "--field", "complex"),
    ("search", "--k", "7", "--seed", "0", "--budget", "12", "--emit-stats"),
)
CONFIGS = (
    {"k": 4, "master_seed": 1, "dims": (1, 2), "budget": 60},
    {"k": 3, "master_seed": 1, "dims": (1, 2), "budget": 60},
    {"k": 3, "master_seed": 2, "dims": (2, 3, 4), "budget": 60, "field_kind": "complex"},
)


def search_config(**fields) -> verify.SearchConfig:
    return verify.SearchConfig(grid=verify.PGrid(values=(1.0,), cap=1.0), **fields)


@contextlib.contextmanager
def deciding_rows():
    """Collect, per instance id, one entry per report of
    ``verify.check_hypotheses`` holding that instance's rows."""
    seen: dict[str, list] = defaultdict(list)
    original = verify.check_hypotheses

    def capture(*args, **kwargs):
        report = original(*args, **kwargs)
        table = report.table
        cols = table.columns
        last: dict[str, tuple[int, int]] = {}  # instance id -> (rows, last row)
        for i, check in enumerate(cols["check"].tolist()):
            instance = table.checks[check].instance_id
            count, _ = last.get(instance, (0, 0))
            last[instance] = (count + 1, i)
        for instance, (count, i) in last.items():
            seen[instance].append([
                count,
                table.checks[int(cols["check"][i])].member,
                int(cols["point"][i]),
                float(cols["margin"][i]).hex(),
                float(cols["scale"][i]).hex(),
                verify.VERDICTS[int(cols["verdict"][i])],
                table.error_text(i),
            ])
        return report

    verify.check_hypotheses = capture
    try:
        yield seen
    finally:
        verify.check_hypotheses = original


def run_search(argv) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "findings.json"
        out = io.StringIO()
        with deciding_rows() as seen, contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv) + ["--findings", str(path)])
        findings = json.loads(path.read_text())
    return {"argv": list(argv), "exit": code, "stdout": json.loads(out.getvalue()),
            "findings": findings, "instances": dict(seen)}


def run_config(fields: dict) -> dict:
    with deciding_rows() as seen:
        report = verify.search_counterexample(search_config(**fields))
    return {"config": fields, "report": json.loads(json.dumps(report.to_json())),
            "instances": dict(seen)}


@lru_cache(maxsize=None)
def reference() -> dict:
    return json.loads(REFERENCE.read_text())


def reference_run(argv) -> dict:
    return next(run for run in reference()["runs"] if run["argv"] == list(argv))


@pytest.mark.parametrize("argv", RUNS, ids=lambda argv: " ".join(argv[1:]))
def test_search_matches_reference(argv):
    got = run_search(argv)
    want = reference_run(argv)
    assert (got["exit"], got["stdout"]) == (want["exit"], want["stdout"])
    assert got["findings"] == want["findings"]
    assert got["instances"] == want["instances"]


@pytest.mark.parametrize("index", range(len(CONFIGS)))
def test_search_config_matches_reference(index):
    got = run_config(CONFIGS[index])
    want = reference()["configs"][index]
    assert got["report"] == want["report"]
    assert got["instances"] == want["instances"]


def test_reference_covers_every_reachable_outcome():
    counters = defaultdict(int)
    for run in reference()["runs"]:
        for key, value in run["stdout"]["counters"].items():
            counters[key] += value
    for run in reference()["configs"]:
        for key, value in run["report"]["stats"]["counters"].items():
            counters[key] += value
    for key in ("hypothesis_failed", "hypothesis_failed_after_escalation",
                "evaluation_error", "implied_hypothesis_failure", "emitted"):
        assert counters[key] > 0, key
    assert "conclusion_held" not in counters


def test_margin_histogram_counts_every_failed_instance():
    # the end bins are open-ended, so a margin below -3 is counted too
    stats = [run["findings"]["stats"] for run in reference()["runs"]]
    stats += [run["report"]["stats"] for run in reference()["configs"]]
    for stat in stats:
        counters = stat["counters"]
        assert sum(stat["margin_histogram"]["counts"]) == \
            counters["hypothesis_failed"] + counters["hypothesis_failed_after_escalation"]
    assert any(stat["worst_margin"] < -3 for stat in stats)


def write_reference(out) -> None:
    """The reference file, each run's instances in ascending order, so that
    regenerating an unchanged search rewrites it byte for byte."""
    entries = {"runs": [run_search(argv) for argv in RUNS],
               "configs": [run_config(fields) for fields in CONFIGS]}
    for entry in entries["runs"] + entries["configs"]:
        entry["instances"] = dict(sorted(entry["instances"].items(), key=lambda kv: int(kv[0])))
    json.dump({"regenerate": __doc__.strip().splitlines()[-1].strip(), **entries}, out, indent=1)
    out.write("\n")


if __name__ == "__main__":
    write_reference(sys.stdout)
