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
choices are declared once, in ``build_parser``.  ``check --mode M`` is
parsed by mode M's own parser, which declares only the flags M reads.
"""
from __future__ import annotations

import argparse
import dataclasses
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
    GridPlan,
    Instance,
    ParamTemplate,
    PGrid,
    SearchConfig,
    WeightPolicy,
    check_hypotheses,
    check_reduction_chain,
    gen_suite_tuple,
    gen_unordered_tuples,
    limit_probe,
    scalar_bounds,
    scalar_tuple,
    search_counterexample,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_INDETERMINATE = 3

CAMPAIGN_MODES = ("necessity", "contrapositive")
CHAIN_MODES = CAMPAIGN_MODES + ("proof-steps",)
MODES = CHAIN_MODES + ("limit",)


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


class _Given(str):
    """A list flag's text as given, which --dump-config and the report
    sidecar print; ``value`` holds what it parses to."""


def _parsed(parse):
    """An argparse type keeping the text; a ValueError or SpectralError of
    ``parse`` is the message after ``argument --flag:``."""
    def convert(text: str) -> _Given:
        given = _Given(text)
        try:
            given.value = parse(text)
        except (ValueError, SpectralError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
        return given
    return convert


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

_FLOATS = _parsed(lambda text: tuple(map(float, text.split(","))))
_GRID = _parsed(lambda text: PGrid(values=text.split(",")))
_WEIGHTS = _parsed(WeightPolicy.parse)
_DIMS = _parsed(lambda text: SearchConfig(dims=tuple(map(_int_at_least(1), text.split(",")))).dims)
_FIXTURE = _parsed(lambda text: scalar_tuple(text.split(",")))


def _limit_t(text: str) -> tuple[float, ...]:
    """Limit's t values: the limit argument pins t_1 = 1."""
    t = tuple(map(float, text.split(",")))
    if t[0] != 1:
        raise ValueError(f"limit pins t_1 = 1, got {t[0]!r}")
    return t


# every check flag, the modes that read it and its add_argument keywords; a
# mode's config entries keep this order, in --dump-config and the sidecar
_CHECK_FLAGS = (
    ("--k", CHAIN_MODES, dict(type=_int_at_least(3), default=3)),
    ("--k", ("limit",), dict(type=_int_at_least(2), default=3)),
    # a --scalar-fixture run takes its one instance as given
    ("--dim", CAMPAIGN_MODES, dict(type=_int_at_least(1), default=3,
                                   help="matrix dimension; not read with --scalar-fixture")),
    ("--dim", ("proof-steps", "limit"), dict(type=_int_at_least(1), default=3)),
    ("--seed", MODES, dict(type=_int_at_least(0), default=0)),
    ("--count", CAMPAIGN_MODES, dict(type=_int_at_least(1), default=10,
                                     help="generated instances; not read with --scalar-fixture")),
    ("--count", ("proof-steps", "limit"), dict(type=_int_at_least(1), default=10,
                                               help="number of generated instances")),
    ("--p-grid", CHAIN_MODES, dict(type=_GRID, default="1,1.5,2,4")),
    ("--s-grid", ("limit",), dict(type=_GRID, default="1,10,100,1000,10000",
                                  help="exponent samples of the limit sequence")),
    ("--tol-rel", CAMPAIGN_MODES + ("limit",), dict(type=_tolerance, default=TOL_REL)),
    ("--suite-tol-rel", CHAIN_MODES, dict(type=_tolerance, default=SUITE_TOL_REL)),
    ("--weights", CHAIN_MODES, dict(type=_WEIGHTS, default="necessity",
                                    help="necessity | fixed:<csv>")),
    ("--field", MODES, dict(choices=["real", "complex"], default="real")),
    ("--t", CHAIN_MODES, dict(type=_FLOATS,
                              help="fixed t values (csv); sampled per instance if absent")),
    ("--t", ("limit",), dict(type=_parsed(_limit_t),
                             help="fixed t values (csv) from t_1 = 1; sampled if absent")),
    ("--r", CHAIN_MODES, dict(type=float)),
    ("--scalar-fixture", CAMPAIGN_MODES, dict(type=_FIXTURE,
                                              help="csv scalars for a 1x1 fixture tuple")),
    ("--report", CAMPAIGN_MODES, dict(help="write campaign rows to this CSV path")),
    # no help line: the usage line's prog names the mode
    ("--mode", MODES, dict(choices=MODES, help=argparse.SUPPRESS)),
    ("--config", MODES, dict(help="JSON config file; flags override its entries")),
    ("--dump-config", MODES, dict(action="store_true",
                                  help="print the effective config as JSON and exit")),
)


def build_parser(mode: str | None = None) -> argparse.ArgumentParser:
    """The command-line parser; its ``check`` takes the flags of ``mode``,
    or only --mode when no mode is known, and then rejects every argv.
    ``commands`` maps each command to its own parser."""
    parser = _Parser(prog="oporder",
                     description="Numerical laboratory for operator-order chain inequalities.")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices

    p_exp = sub.add_parser(
        "exponent", help="aggregate chain exponent and the necessity weight for given t, p, r")
    p_exp.add_argument("--t", required=True, type=_FLOATS, help="comma-separated t values")
    p_exp.add_argument("--p", required=True, type=_FLOATS, help="comma-separated p values")
    p_exp.add_argument("--r", type=float, default=None,
                       help="also print the necessity weight for this r")

    p_pc = sub.add_parser("print-chain", help="emit chain inequalities in DSL syntax")
    p_pc.add_argument("--k", type=int, required=True)
    p_pc.add_argument("--family", choices=["asc", "desc"], default="asc")
    p_pc.add_argument("--member", type=int, default=1)
    p_pc.add_argument("--all", action="store_true",
                      help="print the whole hypothesis set, one per line")

    # the mode is read before the flags, so no check flag may be abbreviated
    check = dict(help="run a verification campaign", allow_abbrev=False)
    if mode is None:
        sub.add_parser("check", **check, description=(
            "Each mode reads its own flags: oporder check --mode M --help lists them."),
        ).add_argument("--mode", choices=MODES, required=True)
    else:
        p_chk = sub.add_parser("check", **check, prog=f"oporder check --mode {mode}")
        for flag, modes, kwargs in _CHECK_FLAGS:
            if mode in modes:
                p_chk.add_argument(flag, **kwargs)

    # --config is read before the flags, so no search flag may be abbreviated
    p_s = sub.add_parser("search", help="randomized counterexample hunt", allow_abbrev=False)
    p_s.add_argument("--budget", type=_int_at_least(0), default=200)
    p_s.add_argument("--k", type=_int_at_least(3), default=3)
    p_s.add_argument("--dim", type=_DIMS, default="2,3,4",
                     help="comma-separated candidate dimensions")
    p_s.add_argument("--seed", type=_int_at_least(0), default=0)
    p_s.add_argument("--p-grid", type=_GRID, default="1,1.5,2,4,8")
    p_s.add_argument("--weights", type=_WEIGHTS,
                     help="necessity | fixed:<csv>; random fixed if absent")
    p_s.add_argument("--findings", help="write findings JSON to this path")
    p_s.add_argument("--emit-stats", action="store_true")
    p_s.add_argument("--field", choices=["real", "complex"], default="real")
    p_s.add_argument("--config", help="JSON config file; flags override its entries")
    p_s.add_argument("--dump-config", action="store_true")
    return parser


# what a parsed command holds beside its config entries
_NOT_CONFIG = ("command", "config", "dump_config")


def _config(args) -> dict:
    """The effective configuration: every config entry of the command."""
    return {key: value for key, value in vars(args).items() if key not in _NOT_CONFIG}


def _config_tokens(entries: dict, args) -> list[str]:
    """Config entries as ``--flag=value`` tokens, parsed like the flags; a
    null entry leaves the default, and a switch takes true or false."""
    known = _config(args)
    if unknown := set(entries) - set(known):
        raise UsageError(f"unknown config keys: {sorted(unknown)}")
    tokens = []
    for key, value in entries.items():
        switch = isinstance(known[key], bool)
        if value is None or (switch and value is False):
            continue  # the default applies
        flag = "--" + key.replace("_", "-")
        # '=' keeps a value that starts with '-' a value; any other value of
        # a switch is rejected by the parser
        tokens.append(flag if switch and value is True else
                      f"{flag}={value if isinstance(value, str) else json.dumps(value)}")
    return tokens


def _cmd_exponent(args) -> int:
    t, p = args.t.value, args.p.value
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


def _instances(args, ranges=TEMPLATE_RANGES, unordered: bool = False) -> list[Instance]:
    """Each Instance: the --scalar-fixture tuple alone, or instance i's
    gen_unordered_tuple or gen_suite_tuple(k, dim, [seed, i]), a template
    drawn from default_rng([seed, i, 99]) and the --weights policy."""
    k, seed, n = args.k, args.seed, args.k // 2
    fixture = getattr(args, "scalar_fixture", None)
    if fixture is not None:
        tuples = [fixture.value]
        if tuples[0].k != k:
            raise UsageError(f"fixture has {tuples[0].k} scalars but --k is {k}")
    elif unordered:
        tuples = gen_unordered_tuples(k, [(args.dim, [seed, idx]) for idx in range(args.count)],
                                      field_kind=args.field)
    else:
        tuples = (gen_suite_tuple(k, args.dim, [seed, idx], field_kind=args.field)
                  for idx in range(args.count))
    t = args.t and args.t.value
    if t is not None and len(t) != n:
        raise UsageError(f"--t needs {n} values for k={k}, got {len(t)}")
    r = getattr(args, "r", None)  # limit reads no r, and draws one
    weights = getattr(args, "weights", None)  # nor any weights
    return [Instance(tup, ParamTemplate.draw(verify._rng(seed, idx, 99), n, t, r, ranges),
                     weights and weights.value, idx)
            for idx, tup in enumerate(tuples)]


def _campaigns(args, instances) -> verify.CampaignReport:
    """One check_hypotheses call on every instance; --report gets its rows."""
    report = check_hypotheses(
        instances, args.p_grid.value, tol_rel=args.tol_rel, master_seed=args.seed,
        suite_tol_rel=args.suite_tol_rel)
    if args.report:
        dataclasses.replace(report, config=_config(args)).write_csv(args.report)
    return report


# Each check mode yields (line, rows): a violation when rows is 0, else a
# line about that many rows that were not evaluated.

def _necessity(args):
    table = _campaigns(args, _instances(args)).table
    for i in np.flatnonzero(~table.holds()).tolist():
        row = table.rows[i]
        yield (f"instance {row.instance_id}: {row.family} member {row.member} at p={row.point} "
               f"margin {row.margin:.6e} ({row.error or row.verdict})"), int(bool(row.error))


def _contrapositive(args):
    instances = _instances(args, unordered=True)
    # error rows are never hypothesis failures
    for idx, (margin, campaign_errors) in _campaigns(args, instances).outcomes().items():
        if margin is not None:
            print(f"instance {idx}: hypothesis-failure found (margin {_margin_text(margin)})")
            continue
        # nothing failed on the sampled grid; the violation may hide
        # beyond it, so probe the member cores (including t = 1)
        implied, core_errors = verify.implied_core_violation(
            instances[idx], args.p_grid.value, master_seed=args.seed,
            suite_tol_rel=args.suite_tol_rel)
        if implied is not None:
            print(f"instance {idx}: hypothesis-failure implied (core margin "
                  f"{_margin_text(implied['core_margin'])} at t={implied['t']})")
        elif campaign_errors or core_errors:
            # the failure may hide in the rows that were not evaluated
            unevaluated = campaign_errors + core_errors
            yield (f"instance {idx}: no hypothesis violation found, but {campaign_errors} "
                   f"campaign rows and {core_errors} core rows were not evaluated"), unevaluated
        else:
            yield f"instance {idx}: no hypothesis violation found on or beyond the sampled grid", 0


def _proof_steps(args):
    # contracting t values are drawn unless they are given
    ranges = CONTRACTIVE_RANGES if args.t is None else TEMPLATE_RANGES
    for instance in _instances(args, ranges):
        idx = instance.index
        rep = check_reduction_chain(instance, args.p_grid.value,
                                    suite_tol_rel=args.suite_tol_rel, master_seed=args.seed)
        if rep.premise_failures:
            yield f"instance {idx}: premise member failed on the grid", 0
        elif rep.premise_errors:
            # a premise that fails only through error rows is indeterminate
            yield (f"instance {idx}: premise member has {rep.premise_errors} rows "
                   f"not evaluated"), rep.premise_errors
        yield from ((flag, 0) for flag in rep.red_flags)
        # each p-vector's core, peel and scalar rows, the checks after the premise
        table, size = rep.table, len(rep.c_total)
        margins, holds, failures, errors = (rep.by_check(col)[1:] for col in (
            table.columns["margin"], table.holds(), table.failures(), table.error_rows))
        for i in np.flatnonzero(~holds.all(axis=0)).tolist():
            core, peel, scalar = margins[:, i].tolist()
            error = next(filter(None, (table.error_text(b * size + i) for b in (1, 2, 3))), None)
            yield (f"instance {idx}: reduction margins ({core:.3e}, {peel:.3e}, {scalar:.3e}) "
                   f"at p={tuple(table.checks[0].points[i])}"
                   + (f" [{error}]" if error else "")), \
                0 if failures[:, i].any() else int(np.count_nonzero(errors[:, i]))


def _limit(args):
    n = args.k // 2
    for tup, template, _, idx in _instances(args):
        # t_1 is pinned to 1: a given --t starts with it, a drawn t_1 is replaced
        interior, = scalar_bounds(tup, (1.0,) + template.t[1:], GridPlan(((1.0,) * (2 * n),)))
        rep = limit_probe(tup.matrices[0], tup.matrices[1], c=max(1.0, interior),
                          p2_values=args.s_grid.value.values, tol_rel=args.tol_rel)
        if rep.error:
            yield f"instance {idx}: limit core not evaluated [{rep.error}]", 1
            continue
        if not rep.monotone_nonincreasing:
            yield f"instance {idx}: bound sequence is not monotone", 0
        if rep.order_consistent != rep.conclusion.ge:
            yield (f"instance {idx}: limit declaration {rep.order_consistent} "
                   f"disagrees with direct comparison {rep.conclusion.relation.value}"), 0
        print(f"instance {idx}: c={rep.c:.6g} final={rep.sequence[-1]:.8g} "
              f"consistent={rep.order_consistent}")


_MODE_RUNS = {"necessity": _necessity, "contrapositive": _contrapositive,
              "proof-steps": _proof_steps, "limit": _limit}


def _cmd_check(args) -> int:
    violations, unevaluated, unevaluated_rows = [], [], 0
    for line, rows in _MODE_RUNS[args.mode](args):
        (unevaluated if rows else violations).append(line)
        unevaluated_rows += rows
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
    report = search_counterexample(SearchConfig(
        budget=args.budget, k=args.k, dims=args.dim.value, master_seed=args.seed,
        grid=args.p_grid.value, policy=args.weights and args.weights.value,
        field_kind=args.field))
    if not args.emit_stats:
        report.stats.pop("margin_histogram", None)
    if args.findings:
        report.write_json(args.findings)
    print(json.dumps({"findings": len(report.findings),
                      "counters": report.stats["counters"]}, indent=2))
    if report.findings:
        print("candidate counterexamples emitted; grid passing does not "
              "certify the universal hypothesis", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


@lru_cache(maxsize=None)
def _parser(mode: str | None = None) -> argparse.ArgumentParser:
    # parse_args keeps no state in the parser, so one per mode serves every call
    return build_parser(mode)


# reads --mode and --config out of an argv and leaves the rest
_HEAD = argparse.ArgumentParser(add_help=False, allow_abbrev=False, exit_on_error=False)
_HEAD.add_argument("--mode")
_HEAD.add_argument("--config")


def _parse(argv: list[str]) -> argparse.Namespace:
    """Flags, over the entries of a --config file, over the defaults.  A
    command's argv goes straight to the command's own parser, which takes
    what the root parser would hand it over; a check argv to the check
    parser of its mode: --mode's, else the config's, or the mode-less one.
    Any other argv goes to the root parser, which rejects it or prints its
    help."""
    head, entries = _HEAD.parse_known_args(argv[1:])[0], None
    if head.config is not None:
        try:
            entries = json.loads(Path(head.config).read_text())
        except (OSError, ValueError, RecursionError) as exc:  # the last: deep nesting
            raise UsageError(f"cannot read config {head.config}: {exc}") from exc
        if not isinstance(entries, dict):
            raise UsageError(f"config {head.config} must hold a JSON object")
    commands = _parser().commands
    if argv[:1] == ["check"]:
        mode = head.mode if head.mode is not None or entries is None else entries.get("mode")
        if mode is not None and mode not in MODES:  # the mode-less parser rejects it
            argv = ["check", f"--mode={mode}"] + argv[1:]
        commands = _parser(mode if mode in MODES else None).commands
    if argv[:1] and argv[0] in commands:
        parser, lead = commands[argv[0]], []
    else:
        parser, lead = _parser(), argv[:1]
    args = parser.parse_args(lead + argv[1:])
    if entries is not None:
        args = parser.parse_args(lead + _config_tokens(entries, args) + argv[1:])
    if not lead:
        args.command = argv[0]
    return args


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
        if args.command == "exponent":
            return _cmd_exponent(args)
        if args.command == "print-chain":
            return _cmd_print_chain(args)
        if args.dump_config:
            print(json.dumps(_config(args), indent=2, sort_keys=True))
            return EXIT_OK
        return _cmd_check(args) if args.command == "check" else _cmd_search(args)
    except SystemExit as exc:  # --help
        return int(exc.code) if exc.code else EXIT_OK
    except (UsageError, OSError, ValueError, argparse.ArgumentError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.stderr.write(getattr(exc, "usage", ""))
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
