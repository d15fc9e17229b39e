#!/usr/bin/env python3
"""Campaign benchmark for oporder.

    python3 perfbench/run.py --workload necessity --seed 0 --seconds 20 --trace 0

Runs one workload (necessity, proof-steps or search; see workloads.py) as
rounds of ``oporder.cli.main(argv)`` calls in this process, the same command
lines a user types.  The number of rounds is fixed by ``--seconds`` (about
that many seconds of invocations on the baseline machine), so the same seed
and ``--seconds`` attempt the same operations.  Every output is checked.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment, sample counts, medians as measured before the
corrections of calibrate.py, and failures by reason.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs a fixed
number of rounds twice, plain and then under the hooks of hooks.py, and
reports the per-layer metrics and the tracing overhead.  Timings are
corrected to a reference machine speed by calibrate.py.  Exit code 0 means every check
passed; 1 means a check failed; 2 means the source tree or the arguments are
unusable, in which case no result line is printed.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference_seed0.csv"
SETUP_SAMPLES = 9
SETUP_TIMEOUT_S = 60

import calibrate  # noqa: E402  (this directory is sys.path[0])
import hooks  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, Invocation, Outcome, Result, cli_seed, load_reference,
)


@dataclass
class Round:
    invocations: list[Invocation]
    results: list[Result] = field(default_factory=list)
    outcomes: list[Outcome] = field(default_factory=list)  # one per invocation

    @property
    def seconds(self) -> float:
        return sum(r.seconds for r in self.results)

    @property
    def scaled(self) -> float:
        return sum(r.scaled for r in self.results)


class Runner:
    """Makes ``cli.main`` calls with captured output; only the call is timed,
    and the calibration kernel runs between calls."""

    def __init__(self, cli):
        self.cli = cli
        self.clock = calibrate.ScaledClock()

    def __call__(self, inv: Invocation) -> Result:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(inv.argv)
            except Exception:  # an escaping error fails the invocation, not the run
                code = -1
                traceback.print_exc(file=err)
            seconds = time.perf_counter() - start
        return Result(code, out.getvalue(), err.getvalue(), seconds, self.clock.scale(seconds))

    def round(self, workload, seed: int, index: int, reference: dict | None) -> Round:
        rnd = Round(workload.make_round(cli_seed(seed, index), WORK, reference))
        for inv in rnd.invocations:
            res = self(inv)
            rnd.results.append(res)
            rnd.outcomes.append(inv.check(res))
        return rnd

    def replay(self, workload, rounds: list[Round], tracer: hooks.Tracer) -> tuple[float, int]:
        """Run the rounds again under ``tracer``; outputs must match the first run.

        For ``search`` the hooks supply what its output hides: rows evaluated,
        and instances decided by a row with a non-finite margin.  Returns the
        scaled time of the invocations and the bytes the CLI printed and wrote.
        """
        scaled = 0.0
        written = 0
        with tracer:
            for rnd in rounds:
                for inv, first, outcome in zip(rnd.invocations, rnd.results, rnd.outcomes):
                    tracer.invocation += 1
                    rows, bad = tracer.search_rows, tracer.nonfinite_deciding
                    times = tracer.snapshot()
                    res = self(inv)
                    tracer.rescale_since(times, res.scaled / res.seconds)
                    scaled += res.scaled
                    if (res.code, res.stdout) != (first.code, first.stdout):
                        outcome.problems.append(f"replay of {inv.argv} differs")
                    if workload.replay_check:
                        outcome.rows += tracer.search_rows - rows
                        outcome.fail(tracer.nonfinite_deciding - bad, "nonfinite_margin")
                    written += len(res.stdout.encode()) + len(res.stderr.encode())
                    written += sum(p.stat().st_size for p in inv.outputs if p.exists())
        return scaled, written


def _spawn_seconds(*args: str) -> float:
    """Seconds from spawning ``python args`` until the monotonic clock
    reading it prints last."""
    start = time.monotonic()
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up sample failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.split()[-1]) - start


def setup_sample(workload, seed: int) -> tuple[float, float]:
    """Seconds from starting a fresh interpreter through importing oporder
    and one warm-up invocation (probe.py); returned as measured and with the
    bare interpreter start measured just before replaced by its reference
    value (calibrate.py)."""
    inv = workload.make_warmup(cli_seed(seed, 0), WORK)
    bare = _spawn_seconds(*calibrate.BARE_START_ARGS)
    seconds = _spawn_seconds(str(HERE / "probe.py"), str(SRC), json.dumps(inv.argv))
    return seconds, seconds - bare + calibrate.BARE_START_REFERENCE_S


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def _typical_rate(rounds: list[Round], count, seconds) -> float:
    """Operations per second of a typical round: for each invocation slot of
    the round, the median over rounds of its operations and of its time,
    summed over the slots.  Per-slot medians drop a slow or miscalibrated
    invocation without dropping its whole round."""
    slots = range(len(rounds[0].invocations))
    work = sum(statistics.median(count(r.outcomes[s]) for r in rounds) for s in slots)
    time_ = sum(statistics.median(seconds(r.results[s]) for r in rounds) for s in slots)
    return work / time_


def measured_run(runner: Runner, workload, seed: int, seconds: float,
                 outcome: Outcome, info: dict) -> dict:
    setup = [setup_sample(workload, seed) for _ in range(SETUP_SAMPLES)]
    reference = load_reference(REFERENCE)
    rounds = [runner.round(workload, seed, i, reference)
              for i in range(workload.rounds(seconds))]
    if workload.replay_check:
        runner.replay(workload, rounds, hooks.Tracer(hooks.CAMPAIGN_ONLY))
    for rnd in rounds:
        for one in rnd.outcomes:
            outcome.add(one)

    rows, instances = (lambda o: o.rows), (lambda o: o.instances)
    scaled, measured = (lambda r: r.scaled), (lambda r: r.seconds)
    setup_corrected = [s for _, s in setup]
    info["samples"] = {"setup_s": len(setup), "rows_per_s": len(rounds),
                       "instances_per_s": len(rounds), "peak_rss_mb": 1}
    info["round_rate_quartiles"] = {
        "rows_per_s": _quartiles([sum(map(rows, r.outcomes)) / r.scaled for r in rounds]),
        "instances_per_s": _quartiles([sum(map(instances, r.outcomes)) / r.scaled
                                       for r in rounds]),
    }
    info["setup_quartiles"] = _quartiles(setup_corrected)
    info["raw_medians"] = {
        "setup_s": statistics.median(s for s, _ in setup),
        "rows_per_s": _typical_rate(rounds, rows, measured),
        "instances_per_s": _typical_rate(rounds, instances, measured),
    }
    info["measured_s"] = sum(r.seconds for r in rounds)
    ok = 1.0 - outcome.failed / outcome.attempted if outcome.attempted else 0.0
    return {
        "setup_s": (statistics.median(setup_corrected), "s"),
        "rows_per_s": (_typical_rate(rounds, rows, scaled), "1/s"),
        "instances_per_s": (_typical_rate(rounds, instances, scaled), "1/s"),
        "ok_share": (ok, "fraction"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def traced_run(runner: Runner, workload, seed: int, outcome: Outcome, info: dict) -> dict:
    rounds = [runner.round(workload, seed, i, None) for i in range(workload.trace_rounds)]
    plain = sum(r.scaled for r in rounds)
    tracer = hooks.Tracer()
    traced, written = runner.replay(workload, rounds, tracer)
    for rnd in rounds:
        for one in rnd.outcomes:
            outcome.add(one)
    metrics = tracer.layer_metrics()
    if "cli" in tracer.present:
        metrics["cli.report_bytes"] = (written, "bytes")
    metrics["trace.overhead_share"] = ((traced - plain) / plain, "ratio")
    info["trace"] = {**tracer.detail(), "rounds": len(rounds),
                     "plain_scaled_s": plain, "traced_scaled_s": traced}
    info["absent_metrics"] = [m["name"] for m in _declared("per_layer")
                              if m["name"] not in metrics]
    return metrics


def _declared(kind: str) -> list[dict]:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    except (OSError, ValueError, KeyError):
        return []


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None if unknown."""
    import ctypes

    import numpy as np
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "oporder" / "cli.py").is_file():
        print(f"error: no oporder sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from oporder import cli

    workload = WORKLOADS[args.workload]
    info = {"workload": workload.name, "why": workload.why, "trace": args.trace,
            "environment": environment(args.seed)}
    outcome = Outcome()
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        runner = Runner(cli)
        # nothing is timed before one warm-up invocation in this process
        warmup = workload.make_warmup(cli_seed(args.seed, 0), WORK)
        outcome.problems.extend(warmup.check(runner(warmup)).problems)
        if args.trace:
            metrics = traced_run(runner, workload, args.seed, outcome, info)
        else:
            metrics = measured_run(runner, workload, args.seed, args.seconds, outcome, info)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    info["operations"] = {
        "unit": workload.unit,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failed_share": outcome.failed / outcome.attempted if outcome.attempted else None,
        "failed_by_reason": dict(outcome.reasons),
    }
    info["problems"] = outcome.problems[:20]
    info["notes"] = sorted(set(outcome.notes))[:20]
    print(json.dumps(info, sort_keys=True))
    correct = not outcome.problems and outcome.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
