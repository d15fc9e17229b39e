"""All hypothesis members evaluated in one run reproduce per-member work.

``check_hypotheses`` evaluates every (instance, member) pair of an
exhaustive campaign as the slot words of ``chains.slot_words`` under one
environment per pair.  Here each member's own words from
``chains.hypothesis_set`` are evaluated alone, under the instance's
operators, and compared bit for bit with what the fused run compared: ge,
le, scale and w through ``float.hex``, error texts as strings.
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oporder import chains, cli, dsl, spectral, verify
from oporder.chains import Direction, Family
from oporder.spectral import HermitianMatrix, classify_stack, scaled_margins_stack
from oporder.verify import (
    ERROR_CODE,
    VERDICTS,
    Instance,
    ParamTemplate,
    PGrid,
    WeightPolicy,
    check_hypotheses,
    gen_suite_tuple,
    gen_unordered_tuple,
)

# grids whose product stays small at k = 7 (2n = 6 exponents); 1e300 makes
# the necessity weight overflow to 0 and the powers of A_i overflow
GRIDS = ((1.0,), (1.0, 2.0), (1.5, 4.0), (1.0, 1e300))


def _hex(value: float) -> str:
    return value.hex()


def _per_member(instances, grid, chain_list, tol_rel):
    """{(instance, member, p_index): (w, ge, le, scale, verdict, error)} from
    each member's own words, evaluated under the instance's operators."""
    out = {}
    for j, inst in enumerate(instances):
        k, n = inst.tup.k, inst.template.n
        plan = verify._p_samples(grid, n, 0, inst.index, 1)
        table = plan.table
        weights = inst.policy.weights(inst.template.t, plan, inst.template.r, count=k - 1)
        scalars = {"r": inst.template.r, **{f"t{i}": v for i, v in enumerate(inst.template.t, 1)}}
        env = dsl.Environment(scalars, {i: m for i, m in enumerate(inst.tup.matrices, 1)})
        for code, chain in enumerate(chain_list):
            w_index = chains.weight_index(chain.family, chain.member, n)
            w = weights[:, w_index - 1]
            columns = {f"p{i + 1}": table[:, i] for i in range(2 * n)}
            columns[f"w{w_index}"] = w
            rhs, lhs = dsl.evaluate_batch((chain.rhs, chain.lhs), env, columns)
            sides = [[None] * len(w) if side.row_errors is None else side.row_errors
                     for side in (lhs, rhs)]
            errors = np.array(
                [left if left is not None else right if right is not None
                 else dsl.EvaluationError(f"weight w{w_index} = {wv!r} is not positive")
                 if wv <= 0 else None
                 for left, right, wv in zip(*sides, w.tolist())],
                dtype=object)
            ge, le, scale, errors = scaled_margins_stack(lhs, rhs, errors)
            verdicts = classify_stack(ge, le, scale, tol_rel)
            for i in range(len(w)):
                error = None if errors[i] is None else str(errors[i])
                out[j, code, i] = (w[i], ge[i], le[i], scale[i],
                                   "ERROR" if error else VERDICTS[verdicts[i]], error)
    return out


def _fused(instances, grid, tol_rel, monkeypatch):
    """The report of one fused call and, keyed like ``_per_member``, the
    (w, ge, le, scale) of each row before ERROR rows are blanked: the
    runner's columns as it classified them, with the check, point and w
    columns its table was then judged with."""
    calls = {}
    judged, classify = verify.MarginTable.judged, verify.classify_stack

    def recording_classify(ge, le, scale, tol):
        calls.update(ge=ge, le=le, scale=scale)
        return classify(ge, le, scale, tol)

    def recording_judged(checks, check, point, *args, w, **extra):
        calls.update(check=check, point=point, w=w)
        return judged(checks, check, point, *args, w=w, **extra)

    monkeypatch.setattr(verify, "classify_stack", recording_classify)
    monkeypatch.setattr(verify.MarginTable, "judged", recording_judged)
    report = check_hypotheses(instances, grid, tol_rel=tol_rel)
    monkeypatch.undo()
    per_instance = len(report.table.checks) // len(instances)
    raw = {}
    for c, i, *row in zip(*(calls[name].tolist()
                            for name in ("check", "point", "w", "ge", "le", "scale"))):
        j, code = divmod(c, per_instance)
        raw[j, code, i] = tuple(row)
    return report, raw


def _instances(k, dim, field_kind, unordered, policies, seeds):
    n = k // 2
    out = []
    for idx, (policy, seed) in enumerate(zip(policies, seeds)):
        rng = np.random.default_rng([seed, idx])
        tup = (gen_unordered_tuple if unordered else gen_suite_tuple)(
            k, dim, [seed, idx], field_kind=field_kind)
        t = tuple(rng.uniform(0.05, 0.95, n).tolist())
        template = ParamTemplate(t=t, r=t[-1] + float(rng.uniform(0.1, 2.0)))
        out.append(Instance(tup, template, policy, idx))
    return out


@st.composite
def _campaigns(draw):
    k = draw(st.integers(3, 7))
    grid = draw(st.sampled_from(GRIDS))
    count = draw(st.integers(1, 3))
    weight = st.one_of(st.just(WeightPolicy.necessity()), st.lists(
        st.sampled_from((0.1, 0.3, 0.5, 0.9)), min_size=k - 1, max_size=k - 1
    ).map(WeightPolicy.fixed))
    return dict(k=k, dim=draw(st.integers(1, 3)),
                field_kind=draw(st.sampled_from(("real", "complex"))),
                unordered=draw(st.booleans()),
                policies=[draw(weight) for _ in range(count)],
                seeds=[draw(st.integers(0, 50)) for _ in range(count)],
                grid=PGrid(values=grid))


@settings(max_examples=40, deadline=None)
@given(case=_campaigns())
# p = 1e300 overflows the powers of A_i and, under the necessity policy, the
# chain exponent, whose weight 0 is an error row
@example(case=dict(k=5, dim=2, field_kind="real", unordered=False,
                   policies=[WeightPolicy.necessity(), WeightPolicy.fixed([0.1, 0.3, 0.5, 0.9])],
                   seeds=[0, 1], grid=PGrid(values=(1.0, 1e300))))
def test_fused_members_equal_per_member_evaluation(case):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _check_case(case, monkeypatch)


def _check_case(case, monkeypatch):
    grid, k = case["grid"], case["k"]
    instances = _instances(k, case["dim"], case["field_kind"], case["unordered"],
                           case["policies"], case["seeds"])
    chain_list = chains.hypothesis_set(k)
    tol_rel = verify.TOL_REL
    report, raw = _fused(instances, grid, tol_rel, monkeypatch)
    expected = _per_member(instances, grid, chain_list, tol_rel)
    assert sorted(raw) == sorted(expected)
    for key, (w, ge, le, scale, verdict, error) in expected.items():
        assert tuple(map(_hex, raw[key])) == (_hex(w), _hex(ge), _hex(le), _hex(scale))
    # the report's rows: instance by instance, member by member, p in order
    rows = len(grid.plan(k // 2).vectors)
    assert len(report.rows) == len(instances) * len(chain_list) * rows
    keys = [(j, code, i) for j in range(len(instances))
            for code in range(len(chain_list)) for i in range(rows)]
    cols = report.table.columns
    for row, key in enumerate(keys):
        w, ge, le, scale, verdict, error = expected[key]
        j, code, i = key
        member = report.table.checks[cols["check"][row]]
        assert (member.instance_id, member.family, member.member) == (
            str(j), chain_list[code].family.value, chain_list[code].member)
        assert cols["point"][row] == i
        assert report.table.error_text(row) == error
        assert VERDICTS[cols["verdict"][row]] == verdict
        if error is None:
            margin = ge if chain_list[code].direction is Direction.GE else le
            assert (_hex(float(cols["w"][row])), _hex(float(cols["margin"][row])),
                    _hex(float(cols["scale"][row]))) == (_hex(w), _hex(margin), _hex(scale))
        else:
            assert cols["verdict"][row] == ERROR_CODE and math.isnan(cols["margin"][row])


class TestEvaluationCalls:
    """How many ``dsl.evaluate_batch`` calls a campaign makes."""

    @staticmethod
    def _count(monkeypatch):
        calls = []
        evaluate_batch = dsl.evaluate_batch

        def counting(words, env, *args, **kwargs):
            calls.append(len(env) if isinstance(env, list) else 1)
            return evaluate_batch(words, env, *args, **kwargs)

        monkeypatch.setattr(dsl, "evaluate_batch", counting)
        return calls

    @pytest.mark.parametrize("dim,expected", [(2, [4]), (4, [4]), (5, [4, 4])])
    def test_one_run_for_all_members_under_the_byte_cap(self, monkeypatch, dim, expected):
        # k = 5 has 4 members of 4^4 = 256 rows: 1,024 rows fit one call at
        # dims 2 and 4 (caps 4,096 and 1,024 rows) and take two at dim 5
        # (cap 655 rows)
        calls = self._count(monkeypatch)
        tup = gen_suite_tuple(5, dim, [0, 0])
        report = check_hypotheses(
            [Instance(tup, ParamTemplate(t=(0.3, 0.6), r=1.2), WeightPolicy.necessity())],
            PGrid(values=(1.0, 1.5, 2.0, 4.0)))
        assert len(report.rows) == 1024
        assert calls == expected  # environments per call: one per member

    def test_a_scan_that_stops_in_member_1_builds_no_later_member(self, monkeypatch):
        # instance 6 of seed 7 at k = 3 stops inside ascending member 1 at
        # row 5 of 16: chunks of 1, 1, 2 and 4 rows
        rng = verify._rng(7, 6)
        tup = gen_unordered_tuple(3, 2, [7, 6, 10])
        t = (rng.uniform(0.05, 0.95),)
        template = ParamTemplate(t=t, r=t[-1] + rng.uniform(0.1, 2.0))
        policy = WeightPolicy.fixed(rng.uniform(0.2, 0.95) for _ in range(2))
        calls = self._count(monkeypatch)
        reached = []
        environment = verify._environment

        def recording(tup, template, slots=None):
            reached.append(slots)
            return environment(tup, template, slots)

        monkeypatch.setattr(verify, "_environment", recording)
        report = check_hypotheses([Instance(tup, template, policy)],
                                  PGrid(values=(1.0, 1.5, 2.0, 4.0)), stop_on_violation=True)
        # only member 1's environment is built
        assert reached == [chains.member_slots(Family.ASCENDING, 1, 3)]
        assert {row.family for row in report.rows} == {"ascending"}
        assert report.config == {"stopped_early": True}
        assert calls == [1] * 4 and len(report.rows) == 5

    def test_a_check_run_evaluates_its_instances_together(self, monkeypatch, capsys):
        # 10 instances of 2 members of 16 rows at dim 3: 320 rows fit one call
        calls = self._count(monkeypatch)
        code = cli.main(["check", "--mode", "necessity", "--k", "3", "--dim", "3",
                         "--seed", "42", "--count", "10"])
        assert (code, capsys.readouterr().out) == (cli.EXIT_OK, "all expectations met\n")
        assert calls == [20]  # environments per call: one per (instance, member)


class TestCleanRunCost:
    """What a clean run and the judging of its rows build: the first call
    of a search round with three environments of one row each (k = 3, seed
    1), replayed under counters.  A clean row carries no error array, so
    none is built (``no_errors``) or scanned (``healthy``), and numpy's
    floating-point state is set per run and per comparison, not per node."""

    @staticmethod
    def _search_call():
        """The evaluation run's words, environments, columns (its own and,
        a block per environment, its schedule's grid columns) and instance
        column, and the campaign call that made it: (instances, grid,
        keywords) of its ``check_hypotheses``."""
        found, campaigns = [], []
        evaluate_batch, check_hypotheses = dsl.evaluate_batch, verify.check_hypotheses

        def campaign(instances, grid, **kwargs):
            campaigns.append((instances, grid, kwargs))
            return check_hypotheses(instances, grid, **kwargs)

        def recording(words, env, rows=None, instance=None, schedule=None):
            if not found and len(env) == 3 and len(instance) == 3:
                grid = {name: np.tile(col, len(instance) // schedule.size)
                        for name, col in schedule.columns.items()}
                found.append((words, env, {**rows, **grid}, instance, campaigns[-1]))
            return evaluate_batch(words, env, rows, instance, schedule)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dsl, "evaluate_batch", recording)
            patch.setattr(verify, "check_hypotheses", campaign)
            verify.search_counterexample(
                verify.SearchConfig(budget=10, k=3, dims=(2, 3, 4), master_seed=1))
        return found[0]

    def test_a_clean_run_enters_errstate_once_and_builds_no_row_errors(self, monkeypatch):
        words, envs, columns, instance, _ = self._search_call()
        counts = {}

        def counted(module, name):
            real = getattr(module, name)

            def counting(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)

        for module in (dsl, spectral, verify):
            for name in ("no_errors", "healthy", "decompose_stack", "power_stack"):
                if hasattr(module, name):
                    counted(module, name)
        counted(dsl, "eigensystem_stack")  # a power node's decomposition
        counted(dsl, "evaluate_batch")

        class CountingErrstate(np.errstate):
            def __enter__(self):
                counts["errstate"] = counts.get("errstate", 0) + 1
                return super().__enter__()

        monkeypatch.setattr(np, "errstate", CountingErrstate)
        # the call replayed through the runner: one subject of one row per
        # environment, the member's slot words compared as a campaign does
        rhs_word, lhs_word = words
        member = verify.Comparison("member", (), lhs_word, rhs_word, weight=("w", "w1"))
        subjects = [verify.Subject((None,), lambda c, env=env: env,
                                   lambda c, lo, hi, i=i: {name: col[i:i + 1]
                                                           for name, col in columns.items()})
                    for i, env in enumerate(envs)]
        assert instance.tolist() == [0, 1, 2]
        table = verify.run([member], subjects, pass_tol_rel=verify.SUITE_TOL_REL)
        assert len(table) == 3 and table.errors is None
        # np.errstate once for the run, once for the comparison (its margins
        # and norms) and once for the margins_hold of the verdicts; two
        # power nodes and the two sides' spectra decompose, and the symbols
        # and two power nodes raise
        assert counts == {"evaluate_batch": 1, "errstate": 3, "eigensystem_stack": 2,
                          "decompose_stack": 2, "power_stack": 3}


class TestSearchCallCost:
    """What a search-shaped campaign call costs: the ``check_hypotheses``
    call behind ``TestCleanRunCost._search_call``, three k = 3 instances of
    one dim decided by their first row, replayed under counters.  It pays
    for one evaluation run, one comparison and one judged table, and its
    stacked primitives run once per node and per side."""

    def test_one_run_one_comparison_one_table(self, monkeypatch):
        *_, (instances, grid, kwargs) = TestCleanRunCost._search_call()
        counts, members = {}, []

        def counted(module, name):
            real = getattr(module, name)

            def counting(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)

        counted(dsl, "evaluate_batch")
        counted(verify, "scaled_margins_stack")
        # a power node decomposes through dsl's name, a side's spectrum
        # through decompose_stack's
        counted(dsl, "eigensystem_stack")
        counted(spectral, "eigensystem_stack")
        counted(dsl, "power_stack")
        counted(dsl, "hermitian_part")
        judged, run = verify.MarginTable.judged.__func__, verify.run

        def judging(cls, *args, **kwargs):
            counts["judged"] = counts.get("judged", 0) + 1
            return judged(cls, *args, **kwargs)

        def running(comparisons, subjects, **kwargs):
            members.append(comparisons)
            return run(comparisons, subjects, **kwargs)

        monkeypatch.setattr(verify.MarginTable, "judged", classmethod(judging))
        monkeypatch.setattr(verify, "run", running)
        report = verify.check_hypotheses(instances, grid, **kwargs)
        assert [idx for idx, (margin, errors) in report.outcomes().items()
                if margin is not None and not errors] == [5, 6, 7]
        assert len(report.table) == 3 and report.config == {"stopped_early": True}
        # the symbols in one stacked power and the two power nodes; two
        # power bases made hermitian and decomposed, and the two sides'
        # spectra decomposed for the comparison's scale
        assert counts == {"evaluate_batch": 1, "scaled_margins_stack": 1, "judged": 1,
                          "eigensystem_stack": 4, "power_stack": 3, "hermitian_part": 2}
        # the member comparisons are built once per k: a second call hands
        # the run the very same objects
        verify.check_hypotheses(instances, grid, **kwargs)
        assert len(members) == 2 and members[0] is members[1]
        assert all(a is b for a, b in zip(*members))


class TestReductionCalls:
    """What one reduction chunk costs in comparisons and LAPACK solves: a
    proof-steps instance of k = 5, dim 2 on the grid {1, 1.5, 4}, whose 81
    rows are one chunk, replayed under counters."""

    def test_one_comparison_and_one_margin_eigensolve_per_chunk(self, monkeypatch):
        tup = gen_suite_tuple(5, 2, seed=[0, 0])
        instance = Instance(tup, ParamTemplate(t=(0.85, 0.1), r=0.7), WeightPolicy.necessity())
        counts = {}
        solved = {"_eigh": [], "_eigvalsh": []}

        def counted(module, name, sizes=None):
            real = getattr(module, name)

            def counting(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                if sizes is not None:
                    sizes.append(len(args[0]))
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)

        for name, sizes in solved.items():
            counted(spectral, name, sizes)
        counted(verify, "scaled_margins_stack")
        counted(dsl, "evaluate_batch")
        for name in ("eigh", "eigvalsh"):
            counted(np.linalg, name)
        report = verify.check_reduction_chain(instance, PGrid(values=(1.0, 1.5, 4.0)))
        assert len(report.table) == 4 * 81
        # one run and one stacked comparison of the premise, core and peel
        # rows: one eigvalsh solve of their 243 differences.  The run's
        # powers decompose 3, 9, 27 and 81 distinct bases and the peeled
        # bound's 3; the comparison decomposes the left side, I and the 3
        # distinct sandwiches in one stack and the 9 peeled bounds in
        # another.  Every solve is a direct LAPACK call: np.linalg's
        # wrappers are not called
        assert counts == {"evaluate_batch": 1, "scaled_margins_stack": 1, "_eigvalsh": 1,
                          "_eigh": 7}
        assert solved["_eigvalsh"] == [243]
        assert sorted(solved["_eigh"]) == [3, 3, 5, 9, 9, 27, 81]


class TestCoreAndProbeCalls:
    """What the core certificate and the contraction probe cost in runs: per
    chunk of the comparison runner, one ``dsl.evaluate_batch`` run of the
    chunk's words and one ``scaled_margins_stack`` of its rows, recorded as
    (words evaluated, rows) and rows compared."""

    @staticmethod
    def _record(monkeypatch):
        calls = []
        evaluate_batch, compare = dsl.evaluate_batch, verify.scaled_margins_stack

        def evaluating(words, *args, **kwargs):
            got = evaluate_batch(words, *args, **kwargs)
            calls.append(("evaluate", len(words), len(got[0].values)))
            return got

        def comparing(p, q, *args):
            calls.append(("compare", max(len(p.values), len(q.values))))
            return compare(p, q, *args)

        monkeypatch.setattr(dsl, "evaluate_batch", evaluating)
        monkeypatch.setattr(verify, "scaled_margins_stack", comparing)
        return calls

    @staticmethod
    def _chunks(words, sizes) -> list:
        return [call for rows in sizes for call in (("evaluate", words, rows), ("compare", rows))]

    def test_the_core_certificate_runs_one_chunk_at_a_time(self, monkeypatch):
        # k = 3 has two members and t = 0.5 a second t-variant, t = 1; no
        # core of this ordered tuple fails, so each (variant, member) scans
        # its 16 points in early-exit chunks of 1, 1, 2, 4 and 8
        instance = Instance(gen_suite_tuple(3, 2, [0, 0]), ParamTemplate(t=(0.5,), r=1.0),
                            WeightPolicy.fixed([0.5, 0.5]))
        calls = self._record(monkeypatch)
        assert verify.implied_core_violation(instance, PGrid(values=(1.0, 1.5, 2.0, 4.0))) \
            == (None, 0)
        assert calls == self._chunks(1, [1, 1, 2, 4, 8] * 4)

    def test_the_contraction_probe_escalates_in_early_exit_chunks(self, monkeypatch):
        # the grid's two s in one chunk; Q's norm 1.001 needs the cross-check,
        # whose s = 4, 8, ... take chunks of 1, 1, 2, 4 and 8 up to the first
        # failing s, 1024, the 9th
        calls = self._record(monkeypatch)
        rep = verify.probe_contraction_criterion(
            HermitianMatrix(4.0 * np.eye(2)), HermitianMatrix(np.diag([1.001, 0.5])),
            r=1.0, delta=0.5, w=1.0, s_values=(1.5, 2.0))
        assert (rep.failure_s, rep.cross_check_ok, len(rep.table)) == (1024.0, True, 11)
        assert calls == self._chunks(2, [2, 1, 1, 2, 4, 8])


class TestTablesPerRun:
    """What a run builds in tables: one, judged once at its end, however
    many chunks it evaluates."""

    def test_a_run_builds_one_table_however_many_chunks(self, monkeypatch):
        # the core certificate's two runs, one per t-variant, each scan 2
        # members in early-exit chunks of 1, 1, 2, 4 and 8 points
        instance = Instance(gen_suite_tuple(3, 2, [0, 0]), ParamTemplate(t=(0.5,), r=1.0),
                            WeightPolicy.fixed([0.5, 0.5]))
        chunks, tables = [], []
        evaluate_batch, init = dsl.evaluate_batch, verify.MarginTable.__init__

        def evaluating(words, *args, **kwargs):
            got = evaluate_batch(words, *args, **kwargs)
            chunks.append(len(got[0].values))
            return got

        def building(table, *args, **kwargs):
            tables.append(table)
            init(table, *args, **kwargs)

        monkeypatch.setattr(dsl, "evaluate_batch", evaluating)
        monkeypatch.setattr(verify.MarginTable, "__init__", building)
        assert verify.implied_core_violation(instance, PGrid(values=(1.0, 1.5, 2.0, 4.0))) \
            == (None, 0)
        assert chunks == [1, 1, 2, 4, 8] * 4
        assert len(tables) == 2
