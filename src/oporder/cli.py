"""Command-line front end: campaign orchestration and report emission.

Exit codes: 0 when every expectation of the requested suite holds, 1 when a
mathematical expectation is violated by a computed, finite margin (a
potential finding; every such violation prints a ``VIOLATION:`` line), 2
for usage or configuration errors, and 3 when ``check`` finds no violation
but some rows could not be evaluated (numerical failures, each printed as
an ``ERROR:`` line), so the suite is indeterminate.  ``search`` exits 0 or
1 only: its instances with evaluation errors are counted, not judged.
Every command is deterministic given its full flag set including --seed;
--dump-config emits the effective configuration as JSON and --config reads
one back, with explicit flags taking precedence.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import chains, dsl, verify
from .chains import Family
from .spectral import TOL_REL, SpectralError
from .verify import (
    SUITE_TOL_REL,
    CampaignReport,
    ParamTemplate,
    PGrid,
    SearchConfig,
    WeightPolicy,
    check_hypotheses,
    check_reduction_chain,
    gen_suite_tuple,
    gen_unordered_tuples,
    limit_probe,
    merge_reports,
    reduction_scalar_interior,
    scalar_tuple,
    search_counterexample,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_INDETERMINATE = 3

_CHECK_DEFAULTS = {
    "k": 3,
    "dim": 3,
    "seed": 0,
    "count": 10,
    "p_grid": "1,1.5,2,4",
    "s_grid": "1,10,100,1000,10000",
    "tol_rel": TOL_REL,
    "suite_tol_rel": SUITE_TOL_REL,
    "weights": "necessity",
    "field": "real",
    "t": None,
    "r": None,
    "scalar_fixture": None,
    "report": None,
    "mode": None,
}

_SEARCH_DEFAULTS = {
    "budget": 200,
    "k": 3,
    "dim": "2,3,4",
    "seed": 0,
    "p_grid": "1,1.5,2,4,8",
    "weights": None,
    "findings": None,
    "emit_stats": False,
    "field": "real",
}


class UsageError(Exception):
    pass


def _margin_text(margin: float) -> str:
    """A margin in fixed point, or in exponent form from 1e6 on, where fixed
    point would print every digit of a huge value."""
    return f"{margin:.6f}" if abs(margin) < 1e6 else f"{margin:.6e}"


def _csv_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in str(text).split(","))
    except ValueError as exc:
        raise UsageError(f"malformed number list {text!r}") from exc


def _csv_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in str(text).split(","))
    except ValueError as exc:
        raise UsageError(f"malformed integer list {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oporder",
        description="Numerical laboratory for operator-order chain inequalities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser(
        "exponent",
        help="aggregate chain exponent and the necessity weight for given t, p, r",
    )
    p_exp.add_argument("--t", required=True, help="comma-separated t values")
    p_exp.add_argument("--p", required=True, help="comma-separated p values")
    p_exp.add_argument("--r", type=float, default=None,
                       help="also print the necessity weight for this r")

    p_pc = sub.add_parser("print-chain", help="emit chain inequalities in DSL syntax")
    p_pc.add_argument("--k", type=int, required=True)
    p_pc.add_argument("--family", choices=["asc", "desc"], default="asc")
    p_pc.add_argument("--member", type=int, default=1)
    p_pc.add_argument("--all", action="store_true",
                      help="print the whole hypothesis set, one per line")

    p_chk = sub.add_parser("check", help="run a verification campaign")
    p_chk.add_argument("--mode", choices=[
        "necessity", "contrapositive", "proof-steps", "limit",
    ])
    p_chk.add_argument("--k", type=int)
    p_chk.add_argument("--dim", type=int)
    p_chk.add_argument("--seed", type=int)
    p_chk.add_argument("--count", type=int, help="number of generated instances")
    p_chk.add_argument("--p-grid", dest="p_grid")
    p_chk.add_argument("--s-grid", dest="s_grid",
                       help="exponent samples for the limit mode")
    p_chk.add_argument("--tol-rel", dest="tol_rel", type=float)
    p_chk.add_argument("--suite-tol-rel", dest="suite_tol_rel", type=float)
    p_chk.add_argument("--weights", help="necessity | fixed:<csv>")
    p_chk.add_argument("--t", help="fixed t values (csv); sampled per instance if absent")
    p_chk.add_argument("--r", type=float)
    p_chk.add_argument("--scalar-fixture",
                       help="csv scalars for a 1x1 fixture tuple (contrapositive mode)")
    p_chk.add_argument("--report", help="write campaign rows to this CSV path")
    p_chk.add_argument("--field", choices=["real", "complex"])
    p_chk.add_argument("--config", help="JSON config file; flags override its entries")
    p_chk.add_argument("--dump-config", action="store_true",
                       help="print the effective config as JSON and exit")

    p_s = sub.add_parser("search", help="randomized counterexample hunt")
    p_s.add_argument("--budget", type=int)
    p_s.add_argument("--k", type=int)
    p_s.add_argument("--dim", help="comma-separated candidate dimensions")
    p_s.add_argument("--seed", type=int)
    p_s.add_argument("--p-grid", dest="p_grid")
    p_s.add_argument("--weights", help="necessity | fixed:<csv>; random fixed if absent")
    p_s.add_argument("--findings", help="write findings JSON to this path")
    p_s.add_argument("--emit-stats", dest="emit_stats", action="store_true",
                     default=None)
    p_s.add_argument("--field", choices=["real", "complex"])
    p_s.add_argument("--config", help="JSON config file; flags override its entries")
    p_s.add_argument("--dump-config", action="store_true")
    return parser


def _effective_config(args, defaults: dict) -> dict:
    """defaults < config file < explicit flags."""
    config = dict(defaults)
    path = getattr(args, "config", None)
    if path:
        try:
            loaded = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {path}: {exc}") from exc
        unknown = set(loaded) - set(defaults)
        if unknown:
            raise UsageError(f"unknown config keys: {sorted(unknown)}")
        config.update(loaded)
    for key in defaults:
        flag = getattr(args, key, None)
        if flag is not None:
            config[key] = flag
    return config


def _cmd_exponent(args) -> int:
    t = _csv_floats(args.t)
    p = _csv_floats(args.p)
    try:
        psi = chains.chain_exponent(t, p)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    print(f"chain_exponent = {psi:.12g}")
    if args.r is not None:
        try:
            w = chains.necessity_weight_from(t, p, args.r)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        print(f"necessity_weight = {w:.12g}")
    return EXIT_OK


def _cmd_print_chain(args) -> int:
    try:
        if args.all:
            for chain in chains.hypothesis_set(args.k):
                print(dsl.pretty_print(chain))
            return EXIT_OK
        family = Family.ASCENDING if args.family == "asc" else Family.DESCENDING
        chain = chains.build_chain(family, args.member, args.k)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    print(dsl.pretty_print(chain))
    return EXIT_OK


def _number(cfg: dict, key: str, kind):
    try:
        return kind(cfg[key])
    except (TypeError, ValueError) as exc:
        raise UsageError(f"--{key.replace('_', '-')} must be a number, got {cfg[key]!r}") from exc


def _tolerance(cfg: dict, key: str) -> float:
    """A relative tolerance: finite and positive."""
    value = _number(cfg, key, float)
    if not (math.isfinite(value) and value > 0):
        raise UsageError(f"--{key.replace('_', '-')} must be finite and positive, got {value}")
    return value


def _sample_template(cfg, rng, n: int) -> ParamTemplate:
    if cfg["t"] is not None:
        t = _csv_floats(cfg["t"])
        if len(t) != n:
            raise UsageError(f"--t needs {n} values for k={cfg['k']}, got {len(t)}")
    else:
        t = tuple(rng.uniform(0.05, 0.95) for _ in range(n))
    r = cfg["r"] if cfg["r"] is not None else t[-1] + rng.uniform(0.1, 2.0)
    if not r > t[-1]:
        raise UsageError(f"--r must exceed t_n = {t[-1]}, got {r}")
    return ParamTemplate(t=t, r=r)


def _cmd_check(args) -> int:
    cfg = _effective_config(args, _CHECK_DEFAULTS)
    if args.dump_config:
        print(json.dumps(cfg, indent=2, sort_keys=True))
        return EXIT_OK
    if not cfg["mode"]:
        raise UsageError("--mode is required (or supply it via --config)")
    if cfg["k"] < 2:
        raise UsageError(f"--k must be at least 2, got {cfg['k']}")
    if cfg["k"] == 2 and cfg["mode"] in ("necessity", "contrapositive", "proof-steps"):
        raise UsageError("chain campaigns need k >= 3")
    if cfg["dim"] < 1:
        raise UsageError(f"--dim must be at least 1, got {cfg['dim']}")
    mode = cfg["mode"]
    if mode in ("proof-steps", "limit"):
        for key in ("scalar_fixture", "report"):
            if cfg[key] is not None:
                raise UsageError(f"--{key.replace('_', '-')} applies to the necessity and "
                                 f"contrapositive modes only, not to --mode {mode}")
    grid = PGrid(values=_csv_floats(cfg["p_grid"]))
    policy = WeightPolicy.parse(cfg["weights"])
    seed = int(cfg["seed"])
    count = _number(cfg, "count", int)
    if count < 1:
        raise UsageError(f"--count must be at least 1, got {count}")
    n = int(cfg["k"]) // 2
    tol = _tolerance(cfg, "tol_rel")
    suite_tol = _tolerance(cfg, "suite_tol_rel")

    violations: list[str] = []
    # rows that were not evaluated: one line each, and how many rows in all
    unevaluated: list[str] = []
    unevaluated_rows = 0
    reports: list[CampaignReport] = []

    if mode in ("necessity", "contrapositive"):
        fixture = cfg["scalar_fixture"]

        def run_instance(idx: int):
            if fixture is not None:
                try:
                    tup = scalar_tuple(_csv_floats(fixture))
                except SpectralError as exc:
                    raise UsageError(
                        f"--scalar-fixture values must be finite and positive: {exc}"
                    ) from exc
                if tup.k != cfg["k"]:
                    raise UsageError(
                        f"fixture has {tup.k} scalars but --k is {cfg['k']}"
                    )
            elif mode == "necessity":
                tup = gen_suite_tuple(cfg["k"], cfg["dim"], [seed, idx],
                                      field_kind=cfg["field"])
            else:
                tup = unordered[idx]
            template = _sample_template(cfg, verify._rng(seed, idx, 99), n)
            report = check_hypotheses(
                tup, template, grid, policy,
                tol_rel=tol, instance_id=str(idx),
                master_seed=seed, instance_index=idx, suite_tol_rel=suite_tol,
            )
            return tup, template, report

        if fixture is not None:
            count = 1
        elif mode == "contrapositive":
            # entry idx is gen_unordered_tuple(k, dim, [seed, idx])
            unordered = gen_unordered_tuples(cfg["k"], [(cfg["dim"], [seed, idx])
                                                        for idx in range(count)],
                                             field_kind=cfg["field"])
        instances = [run_instance(idx) for idx in range(count)]
        reports = [rep for _, _, rep in instances]
        for idx, (tup, template, rep) in enumerate(instances):
            if mode == "necessity":
                for row in rep.violations():
                    (unevaluated if row.error else violations).append(
                        f"instance {idx}: {row.family} member {row.member} at "
                        f"p={row.p_vector} margin {row.margin:.6e} "
                        f"({row.error or row.verdict})"
                    )
                unevaluated_rows += len(rep.errors)
                continue
            # error rows are never hypothesis failures
            genuine = ~rep.holds() & (rep.columns["verdict"] != verify.ERROR_CODE)
            if genuine.any():
                print(f"instance {idx}: hypothesis-failure found "
                      f"(margin {_margin_text(rep.columns['margin'][genuine].min())})")
                continue
            # nothing failed on the sampled grid; the violation may hide
            # beyond it, so probe the member cores (including t = 1)
            implied, core_errors = verify.implied_core_violation(
                tup, template, grid,
                master_seed=seed, instance_index=idx, suite_tol_rel=suite_tol,
            )
            if implied is not None:
                print(f"instance {idx}: hypothesis-failure implied "
                      f"(core margin {_margin_text(implied['core_margin'])} at "
                      f"t={implied['t']})")
            elif rep.errors or core_errors:
                # the failure may hide in the rows that were not evaluated
                unevaluated.append(f"instance {idx}: no hypothesis violation found, but "
                                   f"{len(rep.errors)} campaign rows and {core_errors} "
                                   f"core rows were not evaluated")
                unevaluated_rows += len(rep.errors) + core_errors
            else:
                violations.append(f"instance {idx}: no hypothesis violation found on or "
                                  f"beyond the sampled grid")

    elif mode == "proof-steps":
        def run_instance(idx: int):
            rng = verify._rng(seed, idx, 99)
            tup = gen_suite_tuple(cfg["k"], cfg["dim"], [seed, idx],
                                  field_kind=cfg["field"])
            if cfg["t"] is not None:
                template = _sample_template(cfg, rng, n)
            else:
                t = (rng.uniform(0.75, 0.95),) + tuple(
                    rng.uniform(0.05, 0.15) for _ in range(n - 1)
                )
                template = ParamTemplate(t=t, r=t[-1] + rng.uniform(0.3, 1.2))
            return check_reduction_chain(
                tup, template, grid, policy=policy, suite_tol_rel=suite_tol,
                master_seed=seed, instance_index=idx, instance_id=str(idx),
            )

        results = [run_instance(idx) for idx in range(count)]
        for idx, rep in enumerate(results):
            if rep.premise_failures:
                violations.append(f"instance {idx}: premise member failed on the grid")
            elif rep.premise_errors:
                # a premise that fails only through error rows is indeterminate
                unevaluated.append(f"instance {idx}: premise member has "
                                   f"{rep.premise_errors} rows not evaluated")
                unevaluated_rows += rep.premise_errors
            violations.extend(rep.red_flags)
            for i in np.flatnonzero(~rep.holds().all(axis=1)).tolist():
                row = rep.rows[i]
                (unevaluated if row.error else violations).append(
                    f"instance {idx}: reduction margins "
                    f"({row.margin_core:.3e}, {row.margin_peel:.3e}, "
                    f"{row.margin_scalar:.3e}) at p={row.p_vector}"
                    + (f" [{row.error}]" if row.error else "")
                )
            unevaluated_rows += len(rep.errors)

    elif mode == "limit":
        p2_values = PGrid(values=_csv_floats(cfg["s_grid"])).values

        def run_instance(idx: int):
            rng = verify._rng(seed, idx, 99)
            tup = gen_suite_tuple(cfg["k"], cfg["dim"], [seed, idx],
                                  field_kind=cfg["field"])
            template = _sample_template(cfg, rng, n)
            limit_t = (1.0,) + template.t[1:]
            interior = reduction_scalar_interior(tup, limit_t, (1.0,) * (2 * n), n)
            return limit_probe(
                tup.matrices[0], tup.matrices[1], c=max(1.0, interior),
                p2_values=p2_values, tol_rel=tol,
            )

        results = [run_instance(idx) for idx in range(count)]
        for idx, rep in enumerate(results):
            if rep.error:
                unevaluated.append(f"instance {idx}: limit core not evaluated [{rep.error}]")
                unevaluated_rows += 1
                continue
            if not rep.monotone_nonincreasing:
                violations.append(f"instance {idx}: bound sequence is not monotone")
            if rep.order_consistent != rep.conclusion.ge:
                violations.append(
                    f"instance {idx}: limit declaration {rep.order_consistent} "
                    f"disagrees with direct comparison {rep.conclusion.relation.value}"
                )
            print(f"instance {idx}: c={rep.c:.6g} final={rep.sequence[-1]:.8g} "
                  f"consistent={rep.order_consistent}")

    if cfg["report"] and reports:
        merged = merge_reports(reports, dict(cfg), seed, suite_tol)
        merged.write_csv(cfg["report"])

    for line in violations:
        print(f"VIOLATION: {line}", file=sys.stderr)
    for line in unevaluated:
        print(f"ERROR: {line}", file=sys.stderr)
    if violations:
        return EXIT_VIOLATION
    if unevaluated_rows:
        print(f"indeterminate: no finite violation, but {unevaluated_rows} rows "
              f"were not evaluated")
        return EXIT_INDETERMINATE
    print("all expectations met")
    return EXIT_OK


def _cmd_search(args) -> int:
    cfg = _effective_config(args, _SEARCH_DEFAULTS)
    if args.dump_config:
        print(json.dumps(cfg, indent=2, sort_keys=True))
        return EXIT_OK
    if cfg["budget"] < 0:
        raise UsageError(f"--budget must be nonnegative, got {cfg['budget']}")
    if cfg["k"] < 3:
        raise UsageError(f"--k must be at least 3, got {cfg['k']}")
    dims = _csv_ints(cfg["dim"])
    if min(dims) < 1:
        raise UsageError(f"--dim values must be at least 1, got {cfg['dim']}")
    policy = WeightPolicy.parse(cfg["weights"]) if cfg["weights"] else None
    config = SearchConfig(
        budget=int(cfg["budget"]),
        k=int(cfg["k"]),
        dims=dims,
        master_seed=int(cfg["seed"]),
        grid=PGrid(values=_csv_floats(cfg["p_grid"])),
        policy=policy,
        field_kind=cfg["field"],
    )
    report = search_counterexample(config)
    if not cfg["emit_stats"]:
        report.stats.pop("margin_histogram", None)
    if cfg["findings"]:
        report.write_json(cfg["findings"])
    print(json.dumps({"findings": len(report.findings),
                      "counters": report.stats["counters"]}, indent=2))
    if report.findings:
        print("candidate counterexamples emitted; grid passing does not "
              "certify the universal hypothesis", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    # parse_args keeps no state in the parser, so one per process serves every call
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else EXIT_OK
    try:
        if args.command == "exponent":
            return _cmd_exponent(args)
        if args.command == "print-chain":
            return _cmd_print_chain(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "search":
            return _cmd_search(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    raise AssertionError(f"unhandled command {args.command}")


if __name__ == "__main__":
    sys.exit(main())
