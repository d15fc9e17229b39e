"""The benchmark's workloads: the CLI invocations of one round and the checks
applied to their outputs.

A round is a fixed list of ``oporder`` command lines; round ``r`` of benchmark
seed ``s`` derives every ``--seed`` from ``s*100000 + r``, so a seed fixes
every input.  Each invocation's check turns its exit code, printed
output and report files into an ``Outcome``: operations attempted and failed
(rows for the two campaigns, instances for ``search``), the reasons for each
failure, and the failed checks ("problems") that make the run incorrect.
"""
from __future__ import annotations

import csv
import json
import math
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

SEED_STRIDE = 100_000

NECESSITY_GRID = (1.0, 1.5, 2.0, 4.0)
NECESSITY_SHAPES = tuple((k, dim) for k in (3, 4, 5) for dim in (2, 3, 4))
PROOF_GRID = (1.0, 1.5, 4.0)
PROOF_DIMS = (2, 3)
# instances per dim and round, one invocation each, so that the calibration
# kernel runs every ~0.15 s (see calibrate.py)
PROOF_INSTANCES = 5
# (k, budget); small rounds, because instance cost is heavy-tailed (about 1% of
# k=5 instances evaluate a whole member grid and take half the time), so the
# median round rate is only steady over many rounds
SEARCH_SHAPES = ((3, 10), (5, 10))

# ROADMAP rule for reproduced margins: |delta| <= 1e-12 * scale.
REFERENCE_TOL_REL = 1e-12
REFERENCE_SEED = 0


@dataclass
class Result:
    code: int
    stdout: str
    stderr: str
    seconds: float  # wall time of the call
    scaled: float  # the same, scaled to the reference machine (calibrate.py)


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    rows: int = 0
    instances: int = 0
    reasons: Counter = field(default_factory=Counter)
    problems: list[str] = field(default_factory=list)  # failed checks
    notes: list[str] = field(default_factory=list)  # failed operations explained

    def fail(self, count: int, reason: str) -> None:
        if count > 0:
            self.failed += count
            self.reasons[reason] += count

    def add(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.rows += other.rows
        self.instances += other.instances
        self.reasons.update(other.reasons)
        self.problems.extend(other.problems)
        self.notes.extend(other.notes)


@dataclass
class Invocation:
    argv: list[str]
    check: Callable[[Result], Outcome]
    outputs: tuple[Path, ...] = ()


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    make_round: Callable[[int, Path, dict | None], list[Invocation]]
    make_warmup: Callable[[int, Path], Invocation]
    unit: str  # the operation that attempted/failed count
    # search hides its deciding rows; they are seen by replaying the round
    # under the campaign hooks, outside the timed region
    replay_check: bool
    trace_rounds: int
    # rounds per second of ``--seconds``: a measured run makes a fixed number
    # of rounds, so a seed and ``--seconds`` fix every operation and its
    # outcome (a run cut by the clock would attempt more or fewer operations
    # on a faster or slower host, and its failure count would move with it);
    # the rate is that of the 2-vCPU machine of the recorded baseline
    rounds_per_s: float

    def rounds(self, seconds: float) -> int:
        return max(1, math.ceil(seconds * self.rounds_per_s))


def cli_seed(bench_seed: int, round_index: int) -> int:
    return bench_seed * SEED_STRIDE + round_index


def _grid_text(grid) -> str:
    return ",".join(f"{v:g}" for v in grid)


def _members(k: int) -> int:
    n = k // 2
    return n + (n if k % 2 else n - 1)


def _check_exit(res: Result, out: Outcome, expect_text: str | None) -> None:
    if res.code != 0:
        out.problems.append(f"exit code {res.code}: {res.stderr.strip()[:300]}")
    if expect_text is not None and expect_text not in res.stdout:
        out.problems.append(f"missing {expect_text!r} in output")


# -- necessity -----------------------------------------------------------------

def p_index(p_vector, grid=NECESSITY_GRID) -> int:
    """Position of a p-vector in the grid's Cartesian (itertools.product) order."""
    index = 0
    for value in p_vector:
        index = index * len(grid) + grid.index(float(value))
    return index


def row_key(k: int, dim: int, row: dict) -> tuple:
    return (k, dim, row["instance_id"], row["family"], int(row["member"]),
            p_index(row["p_vector"].split(";")))


def load_reference(path: Path) -> dict:
    """Reference margins keyed like ``row_key``, as (margin, scale)."""
    table = {}
    with open(path, newline="") as fh:
        for rec in csv.DictReader(line for line in fh if not line.startswith("#")):
            key = (int(rec["k"]), int(rec["dim"]), rec["instance_id"], rec["family"],
                   int(rec["member"]), int(rec["p_index"]))
            table[key] = (float(rec["margin"]), float(rec["scale"]))
    return table


def _check_necessity(k, dim, count, report: Path, reference, res: Result) -> Outcome:
    expected = _members(k) * len(NECESSITY_GRID) ** (2 * (k // 2)) * count
    out = Outcome(attempted=expected, rows=expected, instances=count)
    _check_exit(res, out, "all expectations met")
    try:
        with open(report, newline="") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        out.problems.append(f"no report: {exc}")
        rows = []
    if len(rows) != expected:
        out.problems.append(f"k={k} dim={dim}: {len(rows)} rows, expected {expected}")
    out.fail(expected - len(rows), "missing_row")
    errors = sum(1 for r in rows if r["verdict"] == "ERROR")
    nonfinite = sum(1 for r in rows
                    if r["verdict"] != "ERROR" and not math.isfinite(float(r["margin"])))
    out.fail(errors, "error_row")
    out.fail(nonfinite, "nonfinite_margin")
    if errors or nonfinite:
        out.problems.append(f"k={k} dim={dim}: {errors} ERROR rows, "
                            f"{nonfinite} non-finite margins")
    # every other VIOLATION line is a finite margin below the suite slack
    out.fail(res.stderr.count("VIOLATION:") - errors - nonfinite, "violation")
    if reference is not None:
        mismatched = 0
        seen = set()
        for r in rows:
            key = row_key(k, dim, r)
            seen.add(key)
            ref = reference.get(key)
            margin = float(r["margin"])
            if ref is None or not abs(margin - ref[0]) <= REFERENCE_TOL_REL * ref[1]:
                mismatched += 1
        wanted = {key for key in reference if key[:2] == (k, dim)}
        if mismatched or seen != wanted:
            out.problems.append(f"k={k} dim={dim}: {mismatched} margins differ from "
                                f"the reference, {len(wanted - seen)} reference rows missing")
            out.fail(mismatched, "reference_mismatch")
    if out.problems and not out.failed:
        out.fail(expected, "invocation_failed")
    out.failed = min(out.failed, expected)  # a row failing two checks fails once
    return out


def _necessity_invocation(k, dim, seed, work: Path, reference=None, count=1) -> Invocation:
    report = work / f"necessity_k{k}_d{dim}.csv"
    argv = ["check", "--mode", "necessity", "--weights", "necessity",
            "--p-grid", _grid_text(NECESSITY_GRID), "--k", str(k), "--dim", str(dim),
            "--seed", str(seed), "--count", str(count), "--report", str(report)]
    return Invocation(
        argv,
        lambda res: _check_necessity(k, dim, count, report, reference, res),
        (report, Path(f"{report}.json")),
    )


def necessity_round(seed: int, work: Path, reference: dict | None) -> list[Invocation]:
    if seed != cli_seed(REFERENCE_SEED, 0):
        reference = None
    return [_necessity_invocation(k, dim, seed, work, reference)
            for k, dim in NECESSITY_SHAPES]


# -- proof-steps ---------------------------------------------------------------

_PREMISE_RE = re.compile(r"^VIOLATION: instance (\d+): premise member failed")
_ROW_RE = re.compile(r"^VIOLATION: instance (\d+): reduction margins \(([^)]*)\) at p=(\([^)]*\))")
_FLAG_RE = re.compile(r"^VIOLATION: instance (\d+) p=(\([^)]*\)): core bound holds")


def _check_proof(dim, count, res: Result) -> Outcome:
    per_instance = len(PROOF_GRID) ** 4
    expected = per_instance * count
    out = Outcome(attempted=expected, rows=expected, instances=count)
    _check_exit(res, out, "all expectations met")
    premise: set[str] = set()
    rows: dict[tuple[str, str], str] = {}
    for line in res.stderr.splitlines():
        if not line.startswith("VIOLATION:"):
            continue
        if m := _PREMISE_RE.match(line):
            premise.add(m.group(1))
        elif m := _ROW_RE.match(line):
            margins, tail = m.group(2), line[m.end():]
            if "[" in tail:
                reason = "error_row"
            elif not all(math.isfinite(float(v)) for v in margins.split(",")):
                reason = "nonfinite_margin"
            else:
                reason = "violation"
            rows[(m.group(1), m.group(3))] = reason
        elif m := _FLAG_RE.match(line):
            rows.setdefault((m.group(1), m.group(2)), "red_flag")
        else:
            out.problems.append(f"unrecognised line {line[:200]!r}")
    out.fail(per_instance * len(premise), "premise_failed")
    for (instance, _), reason in rows.items():
        if instance not in premise:
            out.fail(1, reason)
    if out.problems and not out.failed:
        out.fail(expected, "invocation_failed")
    return out


def _proof_invocation(dim, seed, count=1) -> Invocation:
    argv = ["check", "--mode", "proof-steps", "--k", "5", "--dim", str(dim),
            "--p-grid", _grid_text(PROOF_GRID), "--seed", str(seed), "--count", str(count)]
    return Invocation(argv, lambda res: _check_proof(dim, count, res))


def proof_round(seed: int, work: Path, reference: dict | None) -> list[Invocation]:
    return [_proof_invocation(dim, seed * PROOF_INSTANCES + j)
            for dim in PROOF_DIMS for j in range(PROOF_INSTANCES)]


# -- search --------------------------------------------------------------------

def _check_search(budget, findings: Path, res: Result) -> Outcome:
    out = Outcome(attempted=budget, instances=budget)
    if res.code not in (0, 1):
        # an error escaped the campaign and ended the whole search: every
        # instance of the invocation failed, but no finding was emitted
        out.instances = 0
        out.fail(budget, "aborted")
        last_line = (res.stderr.strip().splitlines() or [""])[-1]
        out.notes.append(f"search aborted with exit code {res.code}: {last_line[:200]}")
        return out
    _check_exit(res, out, None)
    try:
        printed = json.loads(res.stdout)
        written = json.loads(findings.read_text())
        counters = printed["counters"]
    except (OSError, ValueError, KeyError) as exc:
        out.problems.append(f"unreadable search output: {exc}")
        out.fail(budget, "invocation_failed")
        return out
    if printed["findings"] or written["findings"] or counters["emitted"]:
        out.problems.append(f"{printed['findings']} findings emitted")
    if counters["instances"] != budget or written["stats"]["counters"] != counters:
        out.problems.append(f"inconsistent counters {counters}")
    out.fail(counters["evaluation_error"], "evaluation_error")
    return out


def _search_invocation(k, budget, seed, work: Path) -> Invocation:
    findings = work / f"search_k{k}.json"
    argv = ["search", "--k", str(k), "--dim", "2,3,4", "--seed", str(seed),
            "--budget", str(budget), "--findings", str(findings)]
    return Invocation(argv, lambda res: _check_search(budget, findings, res), (findings,))


def search_round(seed: int, work: Path, reference: dict | None) -> list[Invocation]:
    return [_search_invocation(k, budget, seed, work) for k, budget in SEARCH_SHAPES]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="necessity",
            why="criterion-4 shapes, every row evaluated with no early exit; evaluator and "
                "spectral work dominate, so an evaluator or spectral gain (ROADMAP item 2) shows here",
            make_round=necessity_round,
            make_warmup=lambda seed, work: _necessity_invocation(3, 2, seed, work),
            unit="rows",
            replay_check=False,
            trace_rounds=1,
            rounds_per_s=0.35,
        ),
        Workload(
            name="proof-steps",
            why="criterion-6 reduction: verify calls spectral directly and evaluates the same "
                "core word twice, so consolidating the duplicated evaluation loops shows here",
            make_round=proof_round,
            make_warmup=lambda seed, work: _proof_invocation(2, seed),
            unit="rows",
            replay_check=False,
            trace_rounds=3,
            rounds_per_s=0.9,
        ),
        Workload(
            name="search",
            why="unordered tuples stopping at the first violating row; generation and chain "
                "building weigh more, so it proves no change for evaluator work",
            make_round=search_round,
            make_warmup=lambda seed, work: _search_invocation(3, 10, seed, work),
            unit="instances",
            replay_check=True,
            trace_rounds=50,
            rounds_per_s=12.0,
        ),
    )
}
