"""The per-grid caches: the exact terms of the chain exponent, the scalar
bound's prefix codes and the row schedule of an evaluation run (its row
groupings and the indices that align them) are found once per grid
product and shared by the instances on it.

Each cached form equals its uncached oracle in ``util`` bit for bit, on the
shared (read-only) grid product and on a subsampled (writeable) table, two
grids of one shape never share a cache entry, and every shared array is
read-only.  The tests clear the caches they count, so they hold in a fresh
process as well as after any other test.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oporder import chains, cli, dsl, verify
from oporder.chains import Power, ScalarExpr, Symbol, chain_exponents
from oporder.verify import (
    PGrid,
    gen_ordered_tuple,
    reduction_scalar_interior,
)
from util import level_chain_exponents, walk_c_totals, walk_scalar_interior


def _hexes(values) -> list[str]:
    return [float(v).hex() for v in values]


def _scheduled_run(words: tuple, env, rows: dict):
    """The batches of one evaluation run and the row schedule it read."""
    run = dsl._BatchRun(env, rows)
    return run.batches(words), run.schedule


def _clear_caches() -> None:
    chains._chain_terms.cache_clear()
    verify._prefix_codes.cache_clear()
    dsl._schedule.cache_clear()
    dsl._shared_alignment.cache_clear()


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
        _, table = PGrid(values=values).product(2 * len(t))
        expected = level_chain_exponents(t, table)
        # the shared product, through the cache, twice
        assert _hexes(chain_exponents(t, table)) == _hexes(expected)
        assert _hexes(chain_exponents(t, table)) == _hexes(expected)
        # a subsampled table is writeable and computed afresh
        subsample = table[rows]
        assert subsample.flags.writeable
        assert _hexes(chain_exponents(t, subsample)) == _hexes(expected[rows])
        if values[-1] == 1e300 and len(t) == 1:
            assert math.inf in chain_exponents(t, table).tolist()

    def test_latin_hypercube_subsample_equals_the_level_recurrence(self, monkeypatch):
        monkeypatch.setattr(verify, "GRID_POINT_CAP", 300)
        t = (0.9, 0.0, 1.0)
        table = np.asarray(PGrid(values=(1.0, 1.1, 2.0, 1e300)).vectors(
            6, rng=np.random.default_rng(0)))
        assert len(table) == 300
        assert _hexes(chain_exponents(t, table)) == _hexes(level_chain_exponents(t, table))


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
        vectors, table = PGrid(values=values).product(2 * len(t))
        expected = _hexes(walk_c_totals(tup, t, vectors))
        # the shared product, through the prefix cache, then a fresh copy
        assert _hexes(verify._c_totals(tup, t, table)) == expected
        assert _hexes(verify._c_totals(tup, t, table.copy())) == expected
        p = vectors[-1]
        assert reduction_scalar_interior(tup, t, p, len(t)).hex() == \
            walk_scalar_interior(tup, t, p, len(t)).hex()


class TestCacheEntries:
    GRIDS = ((1.0, 2.0, 4.0), (1.0, 2.0, 8.0))

    def _tables(self):
        tables = [PGrid(values=values).product(4)[1] for values in self.GRIDS]
        assert tables[0].shape == tables[1].shape
        assert not any(table.flags.writeable for table in tables)
        return tables

    def test_two_grids_of_one_shape_never_share_an_entry(self):
        _clear_caches()
        tables = self._tables()
        terms = [chains._chain_terms(table) for table in tables]
        codes = [verify._prefix_codes(table[:, 1:3]) for table in tables]
        assert chains._chain_terms.cache_info().currsize == 2
        assert verify._prefix_codes.cache_info().currsize == 2
        assert terms[0][0].tolist() != terms[1][0].tolist()
        assert codes[0][0] != codes[1][0]
        # equal contents share the entry, whichever array holds them
        for table, got in zip(tables, terms):
            copy = table.copy()
            copy.setflags(write=False)
            assert chains._chain_terms(copy) is got
        assert chains._chain_terms.cache_info().currsize == 2

    def test_each_grid_groups_its_rows_in_entries_of_its_own(self):
        _clear_caches()
        word = Power(Symbol(1, ScalarExpr.variable("p1")), ScalarExpr.variable("p2"))
        env = dsl.Environment(scalars={}, matrices={1: gen_ordered_tuple(2, 2, 0).matrices[0]})
        schedules = [_scheduled_run((word,), env, {"p1": table[:, 0], "p2": table[:, 1]})[1]
                     for table in self._tables()]
        assert dsl._schedule.cache_info().currsize == 2
        # {p1} and {p1, p2} per grid, though both grids group p1 alike
        p1 = frozenset({"p1"})
        assert [set(schedule) for schedule in schedules] == [{p1, frozenset({"p1", "p2"})}] * 2
        assert schedules[0][p1] is not schedules[1][p1]
        assert schedules[0][p1].inverse.tolist() == schedules[1][p1].inverse.tolist()

    def test_writeable_tables_are_not_cached(self):
        _clear_caches()
        table = self._tables()[0].copy()
        chains.necessity_weights((0.5, 0.5), table, 1.0)
        verify._prefix_codes(table[:, 1:3])
        _, schedule = _scheduled_run((Symbol(1, ScalarExpr.variable("p1")),),
                                     dsl.Environment(scalars={}, matrices={
                                         1: gen_ordered_tuple(2, 2, 0).matrices[0]}),
                                     {"p1": table[:, 0]})
        assert chains._chain_terms.cache_info().currsize == 0
        assert verify._prefix_codes.cache_info().currsize == 0
        assert schedule == {}

    def test_cached_arrays_are_read_only(self):
        _clear_caches()
        table = self._tables()[0]
        head, diffs, _ = chains._chain_terms(table)
        _, inverse = verify._prefix_codes(table[:, 1:3])
        word = Power(Symbol(1, ScalarExpr.variable("p1")), ScalarExpr.variable("p2"))
        env = dsl.Environment(scalars={}, matrices={1: gen_ordered_tuple(2, 2, 0).matrices[0]})
        batch = dsl.evaluate_batch(word, env, {"p1": table[:, 0], "p2": table[:, 1]})
        shared = [head, *diffs, inverse, *batch.distinct, verify._centers(0.8, 0.97, 5)]
        for arr in shared:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = arr[0]

    def test_shared_groupings_give_the_bits_of_fresh_ones(self):
        _clear_caches()
        tup = gen_ordered_tuple(3, 2, 5, field_kind="complex")
        env = verify._environment(tup, verify.ParamTemplate(t=(0.5,), r=1.5))
        words = chains.reduction_words(5)[:1] + (chains.hypothesis_core(
            chains.hypothesis_set(3)[0]),)
        table = self._tables()[1]
        shared, schedule = _scheduled_run(words, env, verify._p_columns(table[:, :2]))
        fresh, unshared = _scheduled_run(words, env, verify._p_columns(table[:, :2].copy()))
        assert schedule and unshared == {}
        for a, b in zip(shared, fresh):
            assert a.values.tobytes() == b.values.tobytes()
            assert [x.tolist() for x in a.distinct] == [x.tolist() for x in b.distinct]


def _report_bits(report) -> tuple:
    """Everything a ReductionReport holds, with each column's bytes."""
    table = report.table
    return (report.instance_id, report.premise_failures, report.premise_errors,
            [check.name for check in table.checks], table.tol_rel,
            {name: col.tobytes() for name, col in table.columns.items()},
            [table.error_text(i) for i in range(len(table))])


class TestProofStepsSchedule:
    """After one proof-steps instance on a grid, an instance on the same
    grid finds its row schedule cached: its run groups no rows and
    computes no alignment index, the peeled bound's q columns grouped
    through their keys' groupings, and its report is that of a run with
    every cache cold, bit for bit."""

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
        _clear_caches()
        self.proof_steps(0, 2, [])
        calls = {"_distinct": 0, "_refine": 0, "_alignment": 0}
        reductions = []
        with pytest.MonkeyPatch.context() as patch:
            for name in calls:
                def counting(*args, name=name, real=getattr(dsl, name)):
                    calls[name] += 1
                    return real(*args)
                patch.setattr(dsl, name, counting)
            self.proof_steps(1, 3, reductions)
        assert calls == {"_distinct": 0, "_refine": 0, "_alignment": 0}
        (instance, grid, options, warm), = reductions
        _clear_caches()
        cold = verify.check_reduction_chain(instance, grid, **options)
        assert _report_bits(warm) == _report_bits(cold)
        capsys.readouterr()
