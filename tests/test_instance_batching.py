"""Batching across instances reproduces one-instance work bit for bit.

Multi-instance ``check_hypotheses`` against ``merge_reports`` of one call
per instance (the oracle below), the comparison runner against its runs of
one instance and one comparison joined in order, the many-instance
generator against ``gen_unordered_tuple`` per seed, the shared full grid
product against ``itertools.product``, and a report's per-instance
``outcomes()`` against a loop over its rows.  Floats are compared through
``float.hex`` or exactly, never within a tolerance.
"""
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oporder import chains, verify
from oporder.chains import Direction
from oporder.spectral import HermitianMatrix, margins_hold, spectral_decompose
from oporder.verify import (
    CampaignReport,
    Comparison,
    Instance,
    OperatorTuple,
    ParamTemplate,
    PGrid,
    Subject,
    WeightPolicy,
    check_hypotheses,
    gen_suite_tuple,
    gen_unordered_tuple,
    gen_unordered_tuples,
)

GRID = PGrid(values=(1.0, 1.5, 2.0, 4.0))
# 11^4 = 14,641 points exceed GRID_POINT_CAP: each instance draws its own
# 10,000-point subsample
WIDE_GRID = PGrid(values=tuple(1.0 + 0.25 * i for i in range(11)))


def _instance(generator, k: int, idx: int) -> Instance:
    """Instance idx of seed 7, drawn as the search draws its instances."""
    rng = verify._rng(7, idx)
    tup = generator(k, 2, [7, idx] if generator is gen_suite_tuple else [7, idx, 10])
    n = k // 2
    t = tuple(rng.uniform(0.05, 0.95) for _ in range(n))
    template = ParamTemplate(t=t, r=t[-1] + rng.uniform(0.1, 2.0))
    policy = WeightPolicy.fixed(rng.uniform(0.2, 0.95) for _ in range(k - 1))
    return Instance(tup, template, policy, idx)


def _hex(values) -> list:
    return [v.hex() if isinstance(v, float) else v for v in values.tolist()]


def _table(report) -> tuple:
    """Every column but the timing, the member table and the error texts."""
    table = report.table
    members = [(m.instance_id, m.k, m.dim, m.family, m.member, m.relation, tuple(m.points))
               for m in table.checks]
    columns = {name: _hex(col) for name, col in table.columns.items() if name != "seconds"}
    return members, columns, [table.error_text(i) for i in range(len(table))]


def merge_reports(reports) -> CampaignReport:
    """One report holding the rows of ``reports`` in order."""
    return CampaignReport(verify.MarginTable.concat([rep.table for rep in reports]), {}, 0)


def _batched_and_alone(instances, grid, **kwargs):
    batched = check_hypotheses(instances, grid, **kwargs)
    alone = [check_hypotheses([inst], grid, **kwargs) for inst in instances]
    return batched, alone


# (generator, k, idx) of seed 7; see test_verify's stop_on_violation cases
CASES = {
    "k3": [(gen_suite_tuple, 3, 0),        # no violation: every row returned
           (gen_suite_tuple, 3, 3),        # first violation in the second member
           (gen_unordered_tuple, 3, 58),   # an error row before the deciding row
           (gen_unordered_tuple, 3, 1)],
    "k5": [(gen_suite_tuple, 5, 2),        # deciding row inside a doubled chunk
           (gen_unordered_tuple, 5, 12),   # a member of error rows, then the cut
           (gen_unordered_tuple, 5, 4)],
}


@pytest.mark.parametrize("stop_on_violation", [False, True])
@pytest.mark.parametrize("case", sorted(CASES))
def test_batched_campaign_is_the_merge_of_single_calls(case, stop_on_violation):
    instances = [_instance(*spec) for spec in CASES[case]]
    batched, alone = _batched_and_alone(instances, GRID, stop_on_violation=stop_on_violation)
    assert _table(batched) == _table(merge_reports(alone))
    assert list(batched.outcomes().items()) == [
        item for rep in alone for item in rep.outcomes().items()]
    assert any(rep.table.errors is not None for rep in alone)
    stopped = [rep.config.get("stopped_early", False) for rep in alone]
    assert batched.config.get("stopped_early", False) is any(stopped)
    if stop_on_violation:
        # instances stop at different rows, some inside a doubled chunk
        assert len({len(rep.rows) for rep in alone}) == len(alone)
        assert any(len(rep.rows) > 2
                   and rep.table.columns["point"][-1] not in (0, 1, 3, 7, 15, 31)
                   for rep in alone)


@pytest.mark.parametrize("stop_on_violation", [False, True])
def test_batched_campaign_on_subsampled_grids(stop_on_violation):
    instances = [_instance(gen_unordered_tuple, 5, idx) for idx in (4, 5, 6)]
    batched, alone = _batched_and_alone(instances, WIDE_GRID, stop_on_violation=stop_on_violation)
    assert _table(batched) == _table(merge_reports(alone))
    # each instance scanned its own p rows
    first = [tuple(rep.table.checks[0].points[:20]) for rep in alone]
    assert len(set(first)) == len(first)


def test_batched_campaign_checks_shapes():
    three = _instance(gen_unordered_tuple, 3, 1)
    five = _instance(gen_unordered_tuple, 5, 4)
    with pytest.raises(ValueError, match="batched instances need k=3"):
        check_hypotheses([three, five], GRID)
    with pytest.raises(ValueError, match="at least one instance"):
        check_hypotheses([], GRID)


def _outcomes_row_by_row(report) -> list:
    """``report.outcomes()`` from a loop over its rows: per instance, in
    report order, the smallest margin of a computed row that fails at the
    table's slack and the number of ERROR rows."""
    outcomes, tol = {}, report.table.tol_rel
    for row in report.rows:
        margin, errors = outcomes.get(int(row.instance_id), (None, 0))
        if row.verdict == "ERROR":
            errors += 1
        elif not margins_hold(np.array(row.margin), np.array(row.scale), tol):
            margin = row.margin if margin is None else min(margin, row.margin)
        outcomes[int(row.instance_id)] = (margin, errors)
    return list(outcomes.items())


# k = 3 scalar instances of each kind: (values, t, r), with weights 1/2
_OUTCOME_KINDS = {
    "failing": ((2.0, 1.0, 3.0), 0.5, 1.0),          # the ascending member fails
    "error-only": ((1e300, 1e300, 1e300), 1.0, 2.5),  # A^(r - t1) overflows on every row
    "failing with errors": ((1e300, 2.0, 3.0), 0.5, 1.9),
    "passing": ((1.0, 2.0, 3.0), 0.5, 1.0),
}


def _kind_instance(kind: str, index: int) -> Instance:
    values, t, r = _OUTCOME_KINDS[kind]
    return Instance(verify.scalar_tuple(values), ParamTemplate(t=(t,), r=r),
                    WeightPolicy.fixed([0.5, 0.5]), index)


@st.composite
def _outcome_campaigns(draw):
    """1-5 instances of k = 3 and dim 1 or 2 on a small grid: ordered or
    unordered tuples, which mostly pass or fail, some scaled by 1e300 so
    that powers above 1 overflow into ERROR rows, or instances of the kinds
    above at dim 1."""
    dim = draw(st.integers(1, 2))
    grid = PGrid(values=tuple(sorted(draw(st.sets(st.sampled_from((1.0, 1.5, 2.0, 4.0)),
                                                  min_size=1)))))
    instances = []
    for index in range(draw(st.integers(1, 5))):
        if dim == 1 and draw(st.booleans()):
            instances.append(_kind_instance(draw(st.sampled_from(sorted(_OUTCOME_KINDS))), index))
            continue
        seed = [draw(st.integers(0, 10**6)), index]
        tup = draw(st.sampled_from((gen_suite_tuple, gen_unordered_tuple)))(3, dim, seed)
        if draw(st.booleans()):
            tup = OperatorTuple.trusted([HermitianMatrix(1e300 * m.entries) for m in tup.matrices])
        t = draw(st.floats(0.05, 0.95))
        instances.append(Instance(tup, ParamTemplate(t=(t,), r=t + draw(st.floats(0.1, 2.0))),
                                  WeightPolicy.fixed([draw(st.floats(0.2, 0.95))] * 2), index))
    return instances, grid


_MIXED = ([_kind_instance(kind, i) for i, kind in enumerate(
    ("failing", "error-only", "passing", "failing with errors"))], PGrid(values=(1.0, 2.0)))


@settings(max_examples=30, deadline=None)
@given(case=_outcome_campaigns())
@example(case=_MIXED)
@example(case=([_instance(gen_unordered_tuple, 3, 1), _instance(gen_suite_tuple, 3, 0)], GRID))
def test_outcomes_are_those_of_a_row_loop(case):
    instances, grid = case
    for stop_on_violation in (False, True):
        report = check_hypotheses(instances, grid, stop_on_violation=stop_on_violation)
        assert list(report.outcomes().items()) == _outcomes_row_by_row(report)


@pytest.mark.parametrize("stop_on_violation", [False, True])
def test_outcomes_tell_failing_error_only_and_passing_instances_apart(stop_on_violation):
    report = check_hypotheses(*_MIXED, stop_on_violation=stop_on_violation)
    outcomes = report.outcomes()
    assert list(outcomes) == [0, 1, 2, 3]
    (failing, _), error_only, passing, (mixed, mixed_errors) = outcomes.values()
    assert failing < 0 and mixed < 0
    # with early exit the mixed instance ends at its first row, which
    # fails, before any of its ERROR rows
    assert (mixed_errors == 0) is stop_on_violation
    assert error_only == (None, len(report.table.checks[2].points) * 2)
    assert passing == (None, 0)


def test_outcomes_take_the_smallest_failing_margin():
    # the unordered instance fails on many rows of the full campaign, its
    # first failing row not the smallest
    report = check_hypotheses([_instance(gen_unordered_tuple, 3, 1)], GRID)
    table = report.table
    failing = table.columns["margin"][table.failures()]
    assert len(failing) > 1 and failing[0] != failing.min()
    assert report.outcomes() == {1: (float(failing.min()),
                                     int(np.count_nonzero(table.error_rows)))}


def _subject(tup, template, policy, grid, index, c) -> Subject:
    """An instance as the runner samples it: its operators and template,
    and per row its p-vector (through its plan), weights w1 .. w(k-1) and
    the scalar c of a c*I side."""
    plan = verify._p_samples(grid, template.n, 0, index, 1)
    weights = policy.weights(template.t, plan, template.r, count=tup.k - 1)
    env = verify._environment(tup, template)
    return Subject(plan.vectors, lambda _: env, lambda _, lo, hi: {
        "c": c[lo:hi], **{f"w{i + 1}": weights[lo:hi, i] for i in range(tup.k - 1)}}, plan)


# the scalars of a c*I side: inf makes its margins non-finite, an error row
_C_VALUES = (0.1, 0.5, 1.0, 2.0, 10.0, math.inf)
_MIRROR = {Direction.GE: Direction.LE, Direction.LE: Direction.GE}


@st.composite
def _runner_cases(draw):
    """1-3 instances of one k (3-5) and dim (1-3), real or complex, whose
    matrices G*G + ridge I may be near-singular (ridge down to 1e-13, G of
    rank one), on a small grid; and in any order 1-3 comparisons of the
    family's words, members under their weights, as they read or mirrored,
    and cores against I or I against them (the left side is p), and up to
    2 of c*I against a member side or a core, half of them the q side of
    one of those comparisons, whose spectrum the run then shares."""
    k, dim, complex_field = draw(st.integers(3, 5)), draw(st.integers(1, 3)), draw(st.booleans())
    n = k // 2
    values = draw(st.sets(st.sampled_from((1.0, 1.5, 2.0, 4.0)), min_size=1,
                          max_size=4 if n == 1 else 2))
    grid = PGrid(values=tuple(sorted(values)))
    subjects = []
    for index in range(draw(st.integers(1, 3))):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        mats = []
        for _ in range(k):
            g = rng.standard_normal((dim, dim))
            if complex_field:
                g = g + 1j * rng.standard_normal((dim, dim))
            if draw(st.booleans()):
                g[1:] = 0.0  # rank one
            a = g.conj().T @ g + draw(st.sampled_from((1e-13, 1e-3, 0.1))) * np.eye(dim)
            mats.append(HermitianMatrix(0.5 * (a + a.conj().T)))
        t = tuple(draw(st.floats(0.05, 0.95)) for _ in range(n))
        template = ParamTemplate(t=t, r=t[-1] + draw(st.floats(0.1, 2.0)))
        policy = draw(st.sampled_from((WeightPolicy.necessity(),
                                       WeightPolicy.fixed([0.5] * (k - 1)))))
        c = rng.choice(_C_VALUES, size=len(grid.plan(n).vectors))
        subjects.append(_subject(OperatorTuple.trusted(mats), template, policy, grid, index, c))
    chain_list = chains.hypothesis_set(k)
    comparisons = []
    for code in draw(st.lists(st.integers(0, len(chain_list) - 1), min_size=1, max_size=3)):
        chain = chain_list[code]
        if draw(st.booleans()):
            w = f"w{chains.weight_index(chain.family, chain.member, n)}"
            # the member as it reads, or mirrored, its right side as p
            sides = (chain.lhs, chain.rhs, chain.direction) if draw(st.booleans()) \
                else (chain.rhs, chain.lhs, _MIRROR[chain.direction])
            comparisons.append(Comparison(w, (), *sides, (w, w)))
        else:
            core = chains.hypothesis_core(chain)
            sides = (None, core) if draw(st.booleans()) else (core, None)
            comparisons.append(Comparison("core", (), *sides, chain.direction))
    q_sides = [comp.right for comp in comparisons if comp.right is not None]
    for code in draw(st.lists(st.integers(0, len(chain_list) - 1), max_size=2)):
        chain = chain_list[code]
        side = draw(st.sampled_from(q_sides)) if q_sides and draw(st.booleans()) \
            else draw(st.sampled_from((chain.lhs, chain.rhs, chains.hypothesis_core(chain))))
        comparisons.append(Comparison("c", (), "c", side, draw(st.sampled_from(Direction))))
    return draw(st.permutations(comparisons)), subjects
    return comparisons, subjects


def _rows(table, check=None) -> list:
    """Each row's check, point, verdict, margin and scale (``float.hex``)
    and error text; ``check`` replaces the check of a one-pair run."""
    cols = table.columns
    return [(int(cols["check"][i]) if check is None else check, int(cols["point"][i]),
             int(cols["verdict"][i]), float(cols["margin"][i]).hex(),
             float(cols["scale"][i]).hex(), table.error_text(i)) for i in range(len(table))]


def _shared_side_case():
    """Both members of an ordered k = 3 instance, each under its weight,
    then c*I against the second member's right side: the q side of the
    chunk's second segment."""
    chain_list = chains.hypothesis_set(3)
    members = []
    for chain in chain_list:
        w = f"w{chains.weight_index(chain.family, chain.member, 1)}"
        members.append(Comparison(w, (), chain.lhs, chain.rhs, chain.direction, weight=(w, w)))
    subject = _subject(gen_suite_tuple(3, 2, [7, 0]), ParamTemplate(t=(0.5,), r=1.2),
                       WeightPolicy.fixed([0.5, 0.5]), GRID, 0, np.full(16, 1.5))
    return members + [Comparison("c", (), "c", chain_list[1].rhs)], [subject]


@settings(max_examples=40, deadline=None)
@given(case=_runner_cases())
@example(case=_shared_side_case())
def test_runner_is_the_join_of_one_pair_runs(case):
    comparisons, subjects = case
    # without early exit a chunk compares every comparison, so that c*I
    # reads a shared side's spectrum off the stacked q side
    for early_exit in (False, True):
        kwargs = dict(early_exit=early_exit, pass_tol_rel=verify.SUITE_TOL_REL)
        batched = verify.run(comparisons, subjects, **kwargs)
        want = []
        for j, subject in enumerate(subjects):
            for c, comparison in enumerate(comparisons):
                alone = verify.run([comparison], [subject], **kwargs)
                want += _rows(alone, j * len(comparisons) + c)
                # with early exit an instance ends at its first failing row
                if early_exit and alone.failures().any():
                    break
        assert _rows(batched) == want


def _tuple_bits(tup) -> list:
    return [(m.entries.tobytes(), m.decomposition().eigenvalues.tobytes(),
             m.decomposition().eigenvectors.tobytes()) for m in tup.matrices]


@settings(max_examples=25, deadline=None)
@given(k=st.integers(2, 5),
       specs=st.lists(st.tuples(st.integers(1, 3), st.integers(0, 10**6)),
                      min_size=1, max_size=6),
       field_kind=st.sampled_from(["real", "complex"]))
def test_batched_generator_matches_single_seeds(k, specs, field_kind):
    tuples = gen_unordered_tuples(k, specs, field_kind=field_kind)
    for (dim, seed), tup in zip(specs, tuples):
        alone = gen_unordered_tuple(k, dim, seed, field_kind=field_kind)
        assert _tuple_bits(tup) == _tuple_bits(alone)
        # the decomposition kept from the stacked screen is the one computed alone
        for m in tup.matrices:
            fresh = spectral_decompose(m)
            assert m.decomposition().eigenvalues.tobytes() == fresh.eigenvalues.tobytes()
            assert m.decomposition().eigenvectors.tobytes() == fresh.eigenvectors.tobytes()


def test_batched_generator_regenerates_rejected_candidates():
    # at k = 2, dim = 1 half the candidates are ordered and rejected
    specs = [(1, seed) for seed in range(8)] + [(2, seed) for seed in range(4)]
    tuples = gen_unordered_tuples(2, specs)
    regenerated = 0
    for (dim, seed), tup in zip(specs, tuples):
        first = verify._random_spds(verify._rng(seed), dim, 2)
        regenerated += not np.array_equal(first, np.stack([m.entries for m in tup.matrices]))
        assert _tuple_bits(tup) == _tuple_bits(gen_unordered_tuple(2, dim, seed))
        assert not all(v.ge for v in verify.check_conclusion(tup))
    assert regenerated > 0


def test_generator_gives_up_per_instance(monkeypatch):
    # seed 4's first candidate is accepted, seed 0's is rejected
    specs = [(1, 4), (1, 0)]
    assert len(gen_unordered_tuples(2, specs)) == 2
    monkeypatch.setattr(verify, "UNORDERED_ATTEMPTS", 1)
    with pytest.raises(RuntimeError, match=r"in 1 attempts \(k=2, dim=1\)"):
        gen_unordered_tuples(2, specs)


class TestGridProduct:
    def test_full_product_is_cached_and_read_only(self):
        grid = PGrid(values=(1.0, 1.5, 2.0))
        plan = grid.plan(2)
        vectors, table = plan.vectors, plan.table
        assert vectors == tuple(itertools.product(grid.values, repeat=4))
        assert table.tolist() == [list(v) for v in vectors]
        assert isinstance(vectors, tuple)
        assert PGrid(values=(1.0, 1.5, 2.0)).plan(2) is plan
        with pytest.raises(ValueError):
            table[0, 0] = 5.0
        with pytest.raises(TypeError):
            vectors[0] = (5.0,) * 4

    def test_subsampled_product_is_not_cached(self):
        assert WIDE_GRID.plan(2) is None
        plan = verify._p_samples(WIDE_GRID, 2, 0, 3, 1)
        assert len(plan.vectors) == verify.GRID_POINT_CAP == len(plan.table)
        again = verify._p_samples(WIDE_GRID, 2, 0, 3, 1)
        assert list(plan.vectors) == list(again.vectors) and plan is not again

    def test_full_product_draws_no_rng(self, monkeypatch):
        def refuse(*parts):
            raise AssertionError("a full grid product needs no rng")

        monkeypatch.setattr(verify, "_rng", refuse)
        plan = verify._p_samples(GRID, 1, 0, 0, 1)
        assert len(plan.vectors) == 16
