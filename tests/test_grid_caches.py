"""The grid plan: everything that depends on the sampled p-vectors alone,
found once per grid product and n (``PGrid.plan``) and shared by the
instances sampled on it.  It holds the exact terms of the chain exponent
and, per chunk of rows, the row schedule of the evaluation runs on them
(their row groupings and the indices that align them), the reduction's
stacked groupings and its bounds' distinct prefixes p_2 .. p_(2n-1).  The
reduction's scalar bound is computed once per distinct prefix.

Each cached form equals its uncached oracle bit for bit, on the plan of a
full grid product and on that of a subsample: the chain exponent equals
``util``'s level recurrence, the scalar bound ``util``'s word walk, and a
run on a schedule the same run without one.  Two grids of one shape never
share a plan, a subsample's plan is never cached, and every array a plan
shares is read-only.  The tests clear the plan cache where they count, so
they hold in a fresh process as well as after any other test.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oporder import chains, cli, dsl, verify
from oporder.chains import Power, ScalarExpr, Symbol, chain_exponents
from oporder.spectral import WordBatch
from oporder.verify import GridPlan, PGrid, gen_ordered_tuple
from util import level_chain_exponents, walk_c_totals, walk_scalar_interior


def _hexes(values) -> list[str]:
    return [float(v).hex() for v in values]


# t values with both ends of [0, 1]; p values: 1, short and long dyadics,
# and 1e300, whose products overflow the float range
_T = st.one_of(st.sampled_from([0.0, 1.0, 0.5]), st.floats(0.0, 1.0))
_P = st.one_of(st.sampled_from([1.0, 1.5, 4.0, 1.1, 1.0 + 2.0 ** -52, 1e300]),
               st.floats(1.0, 64.0))


@st.composite
def exponent_cases(draw):
    """(t, grid values, rows of a subsample of the grid product): n = 1..3,
    a grid of one to three points."""
    n = draw(st.integers(1, 3))
    t = tuple(draw(_T) for _ in range(n))
    values = tuple(sorted(draw(st.sets(_P, min_size=1, max_size=3))))
    size = len(values) ** (2 * n)
    rows = draw(st.lists(st.integers(0, size - 1), min_size=1, max_size=20))
    return t, values, rows


class TestChainExponentOracle:
    @settings(max_examples=120, deadline=None)
    @given(case=exponent_cases())
    @example(case=((0.0, 1.0), (1.0, 1e300), [0, 15, 3]))
    @example(case=((1.0, 1.0, 1.0), (1.0,), [0]))
    @example(case=((0.0,), (1.0, 1.0 + 2.0 ** -52, 1e300), [0, 4, 8]))
    def test_expanded_form_equals_the_level_recurrence_bit_for_bit(self, case):
        t, values, rows = case
        plan = PGrid(values=values).plan(len(t))
        expected = level_chain_exponents(t, plan.table)
        # the plan's terms, twice, and a table's own
        assert _hexes(plan.chain_terms.exponents(t)) == _hexes(expected)
        assert _hexes(plan.chain_terms.exponents(t)) == _hexes(expected)
        assert _hexes(chain_exponents(t, plan.table)) == _hexes(expected)
        # a subsample's plan
        subsample = GridPlan([plan.vectors[i] for i in rows])
        assert _hexes(subsample.chain_terms.exponents(t)) == _hexes(expected[rows])
        if values[-1] == 1e300 and len(t) == 1:
            assert math.inf in plan.chain_terms.exponents(t).tolist()

    def test_latin_hypercube_subsample_equals_the_level_recurrence(self, monkeypatch):
        monkeypatch.setattr(verify, "GRID_POINT_CAP", 300)
        t = (0.9, 0.0, 1.0)
        plan = verify._p_samples(PGrid(values=(1.0, 1.1, 2.0, 1e300)), 3, 0, 0, 1)
        assert len(plan.table) == 300
        assert _hexes(plan.chain_terms.exponents(t)) == \
            _hexes(level_chain_exponents(t, plan.table))


@st.composite
def interior_cases(draw):
    """(tuple, t, grid values): k = 3..7, dims 1..3, real or complex, t
    with both ends of [0, 1], a grid of one to three points."""
    k = draw(st.integers(3, 7))
    dim = draw(st.integers(1, 3))
    field = draw(st.sampled_from(["real", "complex"]))
    tup = gen_ordered_tuple(k, dim, draw(st.integers(0, 2 ** 16)), field_kind=field)
    t = tuple(draw(_T) for _ in range(k // 2))
    values = tuple(sorted(draw(st.sets(st.one_of(st.sampled_from([1.0, 1.5, 4.0]),
                                                 st.floats(1.0, 64.0)),
                                       min_size=1, max_size=3))))
    return tup, t, values


class TestCompiledScalarBound:
    @settings(max_examples=60, deadline=None)
    @given(case=interior_cases())
    def test_c_totals_equal_the_word_walk_bit_for_bit(self, case):
        tup, t, values = case
        plan = PGrid(values=values).plan(len(t))
        expected = _hexes(walk_c_totals(tup, t, plan.vectors))
        assert _hexes(verify.scalar_bounds(tup, t, plan)) == expected
        # at p_2 = 1, c is the interior itself, as the limit mode reads it
        p = plan.vectors[-1][:1] + (1.0,) + plan.vectors[-1][2:]
        interior, = verify.scalar_bounds(tup, t, GridPlan((p,)))
        assert interior.hex() == walk_scalar_interior(tup, t, p, len(t)).hex()

    def test_c_is_computed_once_per_distinct_prefix(self, monkeypatch):
        rows = []
        peeled_bindings = chains.peeled_bindings

        def counting(t, p):
            # one p-vector's interior, not the bound's columns of a chunk
            if not isinstance(p, np.ndarray):
                rows.append(p)
            return peeled_bindings(t, p)

        monkeypatch.setattr(chains, "peeled_bindings", counting)
        instance = verify.Instance(verify.gen_suite_tuple(5, 2, [0, 0]),
                                   verify.ParamTemplate(t=(0.85, 0.1), r=0.7),
                                   verify.WeightPolicy.necessity())
        report = verify.check_reduction_chain(instance, PGrid(values=(1.0, 1.5, 4.0)))
        # 81 p-vectors, 9 distinct (p2, p3)
        assert len(rows) == 9 and len(report.table) == 4 * 81
        first, inverse = PGrid(values=(1.0, 1.5, 4.0)).plan(2).bound_prefixes
        table = PGrid(values=(1.0, 1.5, 4.0)).plan(2).table
        assert table[first][inverse][:, 1:3].tobytes() == table[:, 1:3].tobytes()


def _reduction(seed: int, plan: GridPlan):
    """One k=5 reduction instance's words, environment and per-row columns
    (w1 and the q_j) for rows 0:9 of ``plan``."""
    tup = gen_ordered_tuple(5, 2, seed, field_kind="complex")
    template = verify.ParamTemplate(t=(0.5, 0.25), r=1.5)
    premise = chains.hypothesis_set(5)[0]
    words = (premise.rhs, premise.lhs, chains.hypothesis_core(premise)) \
        + chains.reduction_words(5)
    env = verify._environment(tup, template)
    rows = {"w1": np.full(9, 0.5),
            **chains.peeled_bindings(template.t, plan.table[:9].T)}
    return words, env, rows


class TestCacheEntries:
    GRIDS = ((1.0, 2.0, 4.0), (1.0, 2.0, 8.0))

    def _plans(self):
        plans = [PGrid(values=values).plan(2) for values in self.GRIDS]
        assert plans[0].table.shape == plans[1].table.shape
        return plans

    def test_two_grids_of_one_shape_never_share_an_entry(self):
        verify._grid_plan.cache_clear()
        plans = self._plans()
        assert verify._grid_plan.cache_info().currsize == 2
        assert plans[0] is not plans[1]
        assert plans[0].chain_terms.head.tolist() != plans[1].chain_terms.head.tolist()
        # one plan per (values, n), whichever grid object asks
        for values, plan in zip(self.GRIDS, plans):
            assert PGrid(values=values, cap=8.0).plan(2) is plan
            assert plan.chain_terms is plan.chain_terms
            assert plan.schedule(0, 9) is plan.schedule(0, 9)
        assert PGrid(values=self.GRIDS[0]).plan(1) is not plans[0]
        assert verify._grid_plan.cache_info().currsize == 3

    def test_each_grid_groups_its_rows_in_entries_of_its_own(self):
        verify._grid_plan.cache_clear()
        schedules = [plan.schedule(0, 81) for plan in self._plans()]
        word = Power(Symbol(1, ScalarExpr.variable("p1")), ScalarExpr.variable("p2"))
        env = dsl.Environment(scalars={}, matrices={1: gen_ordered_tuple(2, 2, 0).matrices[0]})
        for schedule in schedules:
            dsl.evaluate_batch(word, env, schedule=schedule)
        # {p1} and {p1, p2} per grid, though both grids group p1 alike
        p1 = frozenset({"p1"})
        assert [set(schedule.groups) for schedule in schedules] == \
            [{p1, frozenset({"p1", "p2"})}] * 2
        assert schedules[0].groups[p1] is not schedules[1].groups[p1]
        assert schedules[0].groups[p1].inverse.tolist() == \
            schedules[1].groups[p1].inverse.tolist()

    def test_a_subsamples_plan_is_never_cached(self, monkeypatch):
        verify._grid_plan.cache_clear()
        monkeypatch.setattr(verify, "GRID_POINT_CAP", 50)
        grid = PGrid(values=self.GRIDS[0])
        assert grid.plan(2) is None
        plans = [verify._p_samples(grid, 2, 0, 3, 1) for _ in range(2)]
        assert plans[0] is not plans[1]
        assert plans[0].table.tobytes() == plans[1].table.tobytes()
        assert verify._grid_plan.cache_info().currsize == 0

    def test_cached_arrays_are_read_only(self):
        plan = self._plans()[1]
        words, env, rows = _reduction(3, plan)
        schedule = plan.schedule(0, 9)
        rhs, lhs, core, base, bound = dsl.evaluate_batch(words, env, rows, schedule=schedule)
        ident = verify._identity_batch(2)
        stacks = [WordBatch.stack(batches, 9, plan.stacks)
                  for batches in ((lhs, ident, base), (rhs, core, bound))]
        terms = plan.chain_terms
        shared = [plan.table, terms.head, *terms.diffs,
                  *schedule.columns.values(), *schedule.alignments.values(),
                  *(arr for group in schedule.groups.values()
                    for arr in (group.first, group.inverse)),
                  *(arr for stack in stacks for arr in stack.distinct),
                  ident.values, ident.spectrum[0], *ident.distinct,
                  *plan.bound_prefixes, verify._centers(0.8, 0.97, 5)]
        assert schedule.groups and schedule.alignments
        for arr in shared:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = arr[0]

    def test_shared_groupings_give_the_bits_of_fresh_ones(self):
        for plan in (self._plans()[1], GridPlan(self._plans()[1].vectors[::7])):
            words, env, rows = _reduction(5, plan)
            schedule = plan.schedule(0, 9)
            runs = [dsl.evaluate_batch(words, env, rows, schedule=schedule) for _ in range(2)]
            fresh = dsl.evaluate_batch(words, env, {**rows, **verify._p_columns(plan.table[:9])})
            assert schedule.groups
            # each row's binding held first by the same row; a keyed q_j
            # binds in its key's order, not its own
            for run in runs:
                for a, b in zip(run, fresh):
                    assert a.values.tobytes() == b.values.tobytes()
                    (first, inverse), (fresh_first, fresh_inverse) = a.distinct, b.distinct
                    assert first[inverse].tolist() == fresh_first[fresh_inverse].tolist()

    def test_stacked_groupings_give_each_row_its_value(self):
        plan = self._plans()[0]
        words, env, rows = _reduction(7, plan)
        ident = verify._identity_batch(2)
        for _ in range(2):
            rhs, lhs, core, base, bound = dsl.evaluate_batch(
                words, env, rows, schedule=plan.schedule(0, 9))
            for batches in ((lhs, ident, base), (rhs, core, bound)):
                stack = WordBatch.stack(batches, 9, plan.stacks)
                first, inverse = stack.distinct
                assert stack.values[first][inverse].tobytes() == stack.values.tobytes()
                assert len(first) == sum(len(batch.distinct[0]) for batch in batches)
                assert stack.distinct is WordBatch.stack(batches, 9, plan.stacks).distinct


def _report_bits(report) -> tuple:
    """Everything a ReductionReport holds, with each column's bytes but
    those of seconds, which time the run."""
    table = report.table
    return (report.instance_id, report.c_total.tobytes(),
            [check.name for check in table.checks], table.tol_rel,
            {name: col.tobytes() for name, col in table.columns.items() if name != "seconds"},
            [table.error_text(i) for i in range(len(table))])


class TestProofStepsSchedule:
    """After one proof-steps instance on a grid, an instance on the same
    grid finds its plan cached: its run groups no rows and computes no
    alignment index, the peeled bound's q columns grouped through their
    keys' groupings; it builds no stacked grouping and repeats no identity
    matrix; and its report is that of a run with a cold plan, bit for
    bit."""

    @staticmethod
    def proof_steps(seed: int, dim: int, reductions: list) -> None:
        """Run ``check --mode proof-steps`` on one k=5 instance of the
        benchmark's grid, recording each (instance, grid, options, report)."""
        real = cli.check_reduction_chain

        def recording(instance, grid, **options):
            report = real(instance, grid, **options)
            reductions.append((instance, grid, options, report))
            return report

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(cli, "check_reduction_chain", recording)
            cli.main(["check", "--mode", "proof-steps", "--k", "5", "--dim", str(dim),
                      "--p-grid", "1,1.5,4", "--seed", str(seed), "--count", "1"])

    def test_a_second_instance_groups_nothing_afresh(self, capsys):
        verify._grid_plan.cache_clear()
        self.proof_steps(0, 2, [])
        plan = PGrid(values=(1.0, 1.5, 4.0)).plan(2)
        stacks = dict(plan.stacks)
        assert len(stacks) == 2
        calls = {"_distinct": 0, "_refine": 0, "_alignment": 0, "matrix repeats": 0}
        reductions = []
        real_repeat = np.repeat

        def repeat(a, *args, **kwargs):
            calls["matrix repeats"] += np.ndim(a) == 3
            return real_repeat(a, *args, **kwargs)

        with pytest.MonkeyPatch.context() as patch:
            for name in ("_distinct", "_refine", "_alignment"):
                def counting(*args, name=name, real=getattr(dsl, name)):
                    calls[name] += 1
                    return real(*args)
                patch.setattr(dsl, name, counting)
            patch.setattr(np, "repeat", repeat)
            self.proof_steps(1, 3, reductions)
        assert calls == dict.fromkeys(calls, 0)
        # no stacked grouping built: the plan holds the same two
        assert plan.stacks.keys() == stacks.keys()
        assert all(plan.stacks[key] is got for key, got in stacks.items())
        (instance, grid, options, warm), = reductions
        verify._grid_plan.cache_clear()
        cold = verify.check_reduction_chain(instance, grid, **options)
        assert _report_bits(warm) == _report_bits(cold)
        capsys.readouterr()
