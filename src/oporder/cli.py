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
one back, with explicit flags taking precedence.  Each config entry is
parsed as the flag of the same name, so defaults, types, ranges and
choices are declared once, in ``build_parser``.
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
    CONTRACTIVE_RANGES,
    SUITE_TOL_REL,
    TEMPLATE_RANGES,
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


class UsageError(Exception):
    """Out-of-domain input: ``main`` prints ``error: <message>``, then the
    usage line of the parser that rejected it, if one did, and exits 2."""

    def __init__(self, message: str, usage: str = ""):
        super().__init__(message)
        self.usage = usage


class _Parser(argparse.ArgumentParser):
    """Raises UsageError on bad input.  A command rejects the arguments it
    does not know itself, so its own usage line follows the message."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras

    def error(self, message):
        raise UsageError(message, self.format_usage())


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


def _int_at_least(low: int):
    """An int flag of at least ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type of a malformed value
    return parse


def _tolerance(text: str) -> float:
    """A relative tolerance: finite and positive."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be finite and positive, got {value}")
    return value


_tolerance.__name__ = "float"  # argparse names the type of a malformed value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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

    # a command's config entries keep the order of its arguments here, in
    # --dump-config and in the report sidecar
    p_chk = sub.add_parser("check", help="run a verification campaign")
    p_chk.add_argument("--k", type=_int_at_least(2), default=3)
    p_chk.add_argument("--dim", type=_int_at_least(1), default=3)
    p_chk.add_argument("--seed", type=_int_at_least(0), default=0)
    p_chk.add_argument("--count", type=_int_at_least(1), default=10,
                       help="number of generated instances")
    p_chk.add_argument("--p-grid", dest="p_grid", default="1,1.5,2,4")
    p_chk.add_argument("--s-grid", dest="s_grid", default="1,10,100,1000,10000",
                       help="exponent samples for the limit mode")
    p_chk.add_argument("--tol-rel", dest="tol_rel", type=_tolerance, default=TOL_REL)
    p_chk.add_argument("--suite-tol-rel", dest="suite_tol_rel", type=_tolerance,
                       default=SUITE_TOL_REL)
    p_chk.add_argument("--weights", default="necessity", help="necessity | fixed:<csv>")
    p_chk.add_argument("--field", choices=["real", "complex"], default="real")
    p_chk.add_argument("--t", help="fixed t values (csv); sampled per instance if absent")
    p_chk.add_argument("--r", type=float)
    p_chk.add_argument("--scalar-fixture",
                       help="csv scalars for a 1x1 fixture tuple (contrapositive mode)")
    p_chk.add_argument("--report", help="write campaign rows to this CSV path")
    p_chk.add_argument("--mode", choices=[
        "necessity", "contrapositive", "proof-steps", "limit",
    ])
    p_chk.add_argument("--config", help="JSON config file; flags override its entries")
    p_chk.add_argument("--dump-config", action="store_true",
                       help="print the effective config as JSON and exit")

    p_s = sub.add_parser("search", help="randomized counterexample hunt")
    p_s.add_argument("--budget", type=_int_at_least(0), default=200)
    p_s.add_argument("--k", type=_int_at_least(3), default=3)
    p_s.add_argument("--dim", default="2,3,4", help="comma-separated candidate dimensions")
    p_s.add_argument("--seed", type=_int_at_least(0), default=0)
    p_s.add_argument("--p-grid", dest="p_grid", default="1,1.5,2,4,8")
    p_s.add_argument("--weights", help="necessity | fixed:<csv>; random fixed if absent")
    p_s.add_argument("--findings", help="write findings JSON to this path")
    p_s.add_argument("--emit-stats", dest="emit_stats", action="store_true")
    p_s.add_argument("--field", choices=["real", "complex"], default="real")
    p_s.add_argument("--config", help="JSON config file; flags override its entries")
    p_s.add_argument("--dump-config", action="store_true")
    return parser


# what a parsed command holds beside its config entries
_NOT_CONFIG = ("command", "config", "dump_config")


def _config(args) -> dict:
    """The effective configuration: every config entry of the command."""
    return {key: value for key, value in vars(args).items() if key not in _NOT_CONFIG}


def _config_tokens(path: str, args) -> list[str]:
    """The entries of a JSON config file as ``--flag=value`` tokens, parsed
    like the flags themselves; a null entry leaves the default, and a
    switch takes true or false."""
    try:
        loaded = json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:  # the last: deep nesting
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(loaded, dict):
        raise UsageError(f"config {path} must hold a JSON object")
    known = _config(args)
    unknown = set(loaded) - set(known)
    if unknown:
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    tokens = []
    for key, value in loaded.items():
        switch = isinstance(known[key], bool)
        if value is None or (switch and value is False):
            continue  # the default applies
        flag = "--" + key.replace("_", "-")
        if switch and value is True:
            tokens.append(flag)
        else:
            # '=' keeps a value that starts with '-' a value; any other
            # value of a switch is rejected by the parser
            tokens.append(f"{flag}={value if isinstance(value, str) else json.dumps(value)}")
    return tokens


def _cmd_exponent(args) -> int:
    t = _csv_floats(args.t)
    p = _csv_floats(args.p)
    psi = chains.chain_exponent(t, p)
    w = None if args.r is None else chains.necessity_weight_from(t, p, args.r)
    print(f"chain_exponent = {psi:.12g}")
    if w is not None:
        print(f"necessity_weight = {w:.12g}")
    return EXIT_OK


def _cmd_print_chain(args) -> int:
    if args.all:
        for chain in chains.hypothesis_set(args.k):
            print(dsl.pretty_print(chain))
        return EXIT_OK
    family = Family.ASCENDING if args.family == "asc" else Family.DESCENDING
    print(dsl.pretty_print(chains.build_chain(family, args.member, args.k)))
    return EXIT_OK


def _policy(text: str) -> WeightPolicy:
    try:
        return WeightPolicy.parse(text)
    except ValueError as exc:
        raise UsageError(f"--weights: {exc}") from exc


def _cmd_check(cfg: dict) -> int:
    mode = cfg["mode"]
    if not mode:
        raise UsageError("--mode is required (or supply it via --config)")
    k, n, seed = cfg["k"], cfg["k"] // 2, cfg["seed"]
    if k == 2 and mode in ("necessity", "contrapositive", "proof-steps"):
        raise UsageError("chain campaigns need k >= 3")
    if mode in ("proof-steps", "limit"):
        for key in ("scalar_fixture", "report"):
            if cfg[key] is not None:
                raise UsageError(f"--{key.replace('_', '-')} applies to the necessity and "
                                 f"contrapositive modes only, not to --mode {mode}")
    grid = PGrid(values=_csv_floats(cfg["p_grid"]))
    policy = _policy(cfg["weights"])
    tol, suite_tol = cfg["tol_rel"], cfg["suite_tol_rel"]
    if mode == "limit":
        p2_values = PGrid(values=_csv_floats(cfg["s_grid"])).values

    # every instance's tuple and template, in instance order
    fixture = cfg["scalar_fixture"]
    if fixture is not None:
        try:
            tuples = [scalar_tuple(_csv_floats(fixture))]
        except SpectralError as exc:
            raise UsageError(
                f"--scalar-fixture values must be finite and positive: {exc}") from exc
        if tuples[0].k != k:
            raise UsageError(f"fixture has {tuples[0].k} scalars but --k is {k}")
    elif mode == "contrapositive":
        # entry idx is gen_unordered_tuple(k, dim, [seed, idx])
        tuples = gen_unordered_tuples(k, [(cfg["dim"], [seed, idx])
                                          for idx in range(cfg["count"])],
                                      field_kind=cfg["field"])
    else:
        tuples = (gen_suite_tuple(k, cfg["dim"], [seed, idx], field_kind=cfg["field"])
                  for idx in range(cfg["count"]))
    t = None if cfg["t"] is None else _csv_floats(cfg["t"])
    if t is not None and len(t) != n:
        raise UsageError(f"--t needs {n} values for k={k}, got {len(t)}")
    # proof-steps draws contracting t values unless they are given
    ranges = CONTRACTIVE_RANGES if mode == "proof-steps" and t is None else TEMPLATE_RANGES
    instances = [(tup, ParamTemplate.draw(verify._rng(seed, idx, 99), n, t, cfg["r"], ranges))
                 for idx, tup in enumerate(tuples)]

    violations: list[str] = []
    # rows that were not evaluated: one line each, and how many rows in all
    unevaluated: list[str] = []
    unevaluated_rows = 0
    reports: list[CampaignReport] = []

    if mode in ("necessity", "contrapositive"):
        reports = [check_hypotheses(tup, template, grid, policy,
                                    tol_rel=tol, instance_id=str(idx), master_seed=seed,
                                    instance_index=idx, suite_tol_rel=suite_tol)
                   for idx, (tup, template) in enumerate(instances)]
        for idx, ((tup, template), rep) in enumerate(zip(instances, reports)):
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
        results = [check_reduction_chain(tup, template, grid, policy=policy,
                                         suite_tol_rel=suite_tol, master_seed=seed,
                                         instance_index=idx, instance_id=str(idx))
                   for idx, (tup, template) in enumerate(instances)]
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
        results = []
        for tup, template in instances:
            interior = reduction_scalar_interior(tup, (1.0,) + template.t[1:],
                                                 (1.0,) * (2 * n), n)
            results.append(limit_probe(tup.matrices[0], tup.matrices[1], c=max(1.0, interior),
                                       p2_values=p2_values, tol_rel=tol))
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


def _cmd_search(cfg: dict) -> int:
    dims = _csv_ints(cfg["dim"])
    if min(dims) < 1:
        raise UsageError(f"--dim values must be at least 1, got {cfg['dim']}")
    policy = _policy(cfg["weights"]) if cfg["weights"] else None
    config = SearchConfig(
        budget=cfg["budget"],
        k=cfg["k"],
        dims=dims,
        master_seed=cfg["seed"],
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


def _parse(argv: list[str]) -> argparse.Namespace:
    """Flags, over the entries of a --config file, over the defaults."""
    args = _parser().parse_args(argv)
    if getattr(args, "config", None) is None:
        return args
    return _parser().parse_args([args.command] + _config_tokens(args.config, args)
                                + argv[1:])


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        if args.command == "exponent":
            return _cmd_exponent(args)
        if args.command == "print-chain":
            return _cmd_print_chain(args)
        cfg = _config(args)
        if args.dump_config:
            print(json.dumps(cfg, indent=2, sort_keys=True))
            return EXIT_OK
        return _cmd_check(cfg) if args.command == "check" else _cmd_search(cfg)
    except SystemExit as exc:  # --help
        return int(exc.code) if exc.code else EXIT_OK
    except (UsageError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.stderr.write(getattr(exc, "usage", ""))
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
