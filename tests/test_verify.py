import json
import math

import numpy as np
import pytest

from oporder import chains
from oporder.chains import Family
from oporder.spectral import (
    TOL_REL,
    HermitianMatrix,
    NearSingularError,
    Relation,
    diagonal,
    identity,
    margins_hold,
    operator_norm,
)
from oporder.verify import (
    CampaignReport,
    GridPlan,
    Instance,
    OperatorTuple,
    ParamTemplate,
    PGrid,
    SearchConfig,
    SearchReport,
    WeightPolicy,
    check_conclusion,
    check_hypotheses,
    check_reduction_chain,
    gen_contractive_tuple,
    gen_ordered_tuple,
    gen_suite_tuple,
    gen_unordered_tuple,
    implied_core_violation,
    limit_probe,
    probe_contraction_criterion,
    probe_loewner_heinz,
    scalar_bounds,
    scalar_tuple,
    search_counterexample,
)
from oporder import verify
from util import (
    count_decompositions,
    error_rows,
    full_spectrum_margins,
    reduction_points,
    scalar_word_value,
)


def _necessity(tup, template) -> Instance:
    return Instance(tup, template, WeightPolicy.necessity())


class TestOperatorTuple:
    def test_rejects_singletons(self):
        with pytest.raises(ValueError):
            OperatorTuple((identity(2),))

    def test_rejects_mixed_dims(self):
        with pytest.raises(ValueError):
            OperatorTuple((identity(2), identity(3)))

    def test_rejects_near_singular(self):
        with pytest.raises(NearSingularError):
            OperatorTuple((identity(2), diagonal([0.0, 1.0])))

    def test_margins_and_deltas(self):
        tup = scalar_tuple([0.5, 2.0])
        assert tup.margins == pytest.approx((0.5, 2.0))
        assert tup.deltas == pytest.approx((2.0, 0.5))

    def test_json_export(self):
        tup = scalar_tuple([1.0, 2.0])
        blobs = tup.to_json()
        assert [b["dim"] for b in blobs] == [1, 1]


class TestGenerators:
    def test_ordered_margins_respect_gap(self):
        tup = gen_ordered_tuple(4, 3, seed=5, gap=0.25)
        for v in check_conclusion(tup):
            assert v.ge
            assert v.margin >= 0.25 - 1e-10

    def test_ordered_deterministic_fixture(self):
        tup = gen_ordered_tuple(3, 2, seed=42)
        again = gen_ordered_tuple(3, 2, seed=42)
        for a, b in zip(tup.matrices, again.matrices):
            assert np.array_equal(a.entries, b.entries)
        # frozen regression values for the seed-42 instance
        first = tup.matrices[0].entries
        assert first[0, 0] == pytest.approx(0.7560294959814101, rel=1e-12)
        assert first[0, 1] == pytest.approx(0.3889469963045217, rel=1e-12)

    def test_degenerate_increments_stay_equal(self):
        tup = gen_ordered_tuple(3, 2, seed=1, increment_scale=0.0)
        for v in check_conclusion(tup):
            assert v.relation is Relation.EQ

    def test_max_norm_rescales_and_preserves_order(self):
        tup = gen_ordered_tuple(4, 3, seed=9, max_norm=0.9)
        assert operator_norm(tup.matrices[-1]) == pytest.approx(0.9)
        assert all(v.ge for v in check_conclusion(tup))

    def test_unordered_has_violation(self):
        tup = gen_unordered_tuple(3, 2, seed=7)
        assert any(not v.ge for v in check_conclusion(tup))

    def test_unordered_scalar_dim(self):
        tup = gen_unordered_tuple(3, 1, seed=0)
        assert tup.dim == 1

    def test_contractive_band(self):
        tup = gen_contractive_tuple(5, 3, seed=2)
        assert all(operator_norm(m) < 1.0 for m in tup.matrices)
        assert all(v.ge for v in check_conclusion(tup))

    def test_contractive_wobble_guard(self):
        with pytest.raises(ValueError):
            gen_contractive_tuple(5, 3, seed=2, band=(0.9, 0.95), wobble=0.05)

    def test_suite_tuple_ordered(self):
        for k in (3, 4, 5):
            tup = gen_suite_tuple(k, 3, seed=4)
            assert all(v.ge for v in check_conclusion(tup))

    def test_complex_field(self):
        tup = gen_ordered_tuple(3, 2, seed=3, field_kind="complex")
        assert tup.matrices[0].scalar_field == "complex"
        assert all(v.ge for v in check_conclusion(tup))


def _validated_suite_tuple(k, dim, seed, field_kind):
    """``gen_suite_tuple`` built by the validating constructors, each matrix
    decomposed on its own."""
    band, wobble = ((0.45, 0.97), 0.01) if k <= 3 else ((0.95, 0.992), 0.002)
    rng = np.random.default_rng(seed)
    s = verify._random_spds(rng, dim, k, field_kind, 0.0)
    s = s / np.maximum(np.linalg.eigvalsh(s)[:, -1], 1e-12)[:, None, None]
    m = np.linspace(*band, k)[:, None, None] * np.eye(dim) + wobble * s
    return OperatorTuple(tuple(HermitianMatrix(a) for a in 0.5 * (m + m.conj().swapaxes(-1, -2))))


class TestSuiteTupleConstruction:
    """gen_suite_tuple wraps one checked stacked decomposition; the tuple
    and the decompositions it keeps have the bits of the validating
    construction."""

    @pytest.mark.parametrize("field_kind", ["real", "complex"])
    @pytest.mark.parametrize("k", range(2, 8))
    def test_matches_the_validating_construction(self, k, field_kind):
        for dim in range(1, 5):
            for seed in range(3):
                got = gen_suite_tuple(k, dim, seed, field_kind)
                want = _validated_suite_tuple(k, dim, seed, field_kind)
                assert got.k == want.k == k
                for a, b in zip(got.matrices, want.matrices):
                    assert "_decomposition" in vars(a)
                    assert a.entries.dtype == b.entries.dtype
                    assert a.entries.tobytes() == b.entries.tobytes()
                    assert not a.entries.flags.writeable
                    da, db = a.decomposition(), b.decomposition()
                    assert da.eigenvalues.tobytes() == db.eigenvalues.tobytes()
                    assert da.eigenvectors.tobytes() == db.eigenvectors.tobytes()


class TestPGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            PGrid(values=(0.5, 1.0))
        with pytest.raises(ValueError):
            PGrid(values=(2.0, 1.0))

    @pytest.mark.parametrize("values", [(1.0, 1.5, 1.5), (1.0, 1.0), (2.0, 2.0, 4.0)])
    def test_repeated_values_are_rejected(self, values):
        # a repeated point would be sampled, evaluated and counted twice
        with pytest.raises(ValueError, match="must ascend strictly"):
            PGrid(values=values)

    def test_escalation_caps(self):
        grid = PGrid(values=(1.0, 2.0), cap=8.0)
        values = []
        while grid is not None:
            values.append(grid.values[-1])
            grid = grid.escalate()
        assert values == [2.0, 4.0, 8.0]

    def test_full_product(self):
        grid = PGrid(values=(1.0, 2.0))
        vectors = grid.plan(1).vectors
        assert len(vectors) == 4
        assert vectors[0] == (1.0, 1.0)

    def test_latin_hypercube_subsample(self, monkeypatch):
        monkeypatch.setattr(verify, "GRID_POINT_CAP", 500)
        grid = PGrid(values=(1.0, 1.5, 2.0, 4.0, 8.0))
        rng = np.random.default_rng(0)
        assert grid.plan(3) is None
        vectors = grid.subsample(6, rng)
        assert len(vectors) == 500
        assert all(len(v) == 6 for v in vectors)
        again = grid.subsample(6, np.random.default_rng(0))
        assert vectors == again


class TestParamTemplate:
    def test_valid(self):
        template = ParamTemplate(t=(0.5, 1), r=1.5)
        assert template.t == (0.5, 1.0) and template.n == 2

    @pytest.mark.parametrize("kwargs", [
        dict(t=(), r=1.0),
        dict(t=(-0.1,), r=1.0),
        dict(t=(1.5,), r=2.0),
        dict(t=(0.5, 1.5), r=2.0),
        dict(t=(0.5, 0.5), r=0.5),
        dict(t=(0.5, 0.8), r=0.6),
        dict(t=(0.5,), r=float("nan")),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ParamTemplate(**kwargs)

    def test_draw_takes_one_uniform_per_t_then_the_gap(self):
        ranges = ((0.7, 0.8), (0.1, 0.2), (0.3, 0.4))
        rng = np.random.default_rng(5)
        t = (rng.uniform(0.7, 0.8), rng.uniform(0.1, 0.2), rng.uniform(0.1, 0.2))
        expected = ParamTemplate(t=t, r=t[-1] + rng.uniform(0.3, 0.4))
        assert ParamTemplate.draw(np.random.default_rng(5), 3, ranges=ranges) == expected

    def test_draw_skips_the_draws_of_given_values(self):
        rng = np.random.default_rng(5)
        gap = rng.uniform(0.1, 2.0)
        assert ParamTemplate.draw(np.random.default_rng(5), 1, t=(0.5,)) == ParamTemplate(
            t=(0.5,), r=0.5 + gap)
        rng = np.random.default_rng(5)
        t = tuple(rng.uniform(0.05, 0.95) for _ in range(2))
        drawn = ParamTemplate.draw(np.random.default_rng(5), 2, r=1.7)
        assert drawn == ParamTemplate(t=t, r=1.7)
        rng = np.random.default_rng(5)
        assert ParamTemplate.draw(rng, 1, t=(0.5,), r=1.0) == ParamTemplate(t=(0.5,), r=1.0)
        assert rng.uniform() == np.random.default_rng(5).uniform()  # nothing drawn

    def test_draw_checks_a_given_r(self):
        with pytest.raises(ValueError, match="r must be finite"):
            ParamTemplate.draw(np.random.default_rng(0), 2, r=math.inf)


class TestWeightPolicy:
    def test_parse_round_trip(self):
        fixed = WeightPolicy.parse("fixed:0.5,0.25")
        assert fixed.values == (0.5, 0.25)
        assert WeightPolicy.parse(fixed.describe()).values == fixed.values
        assert WeightPolicy.parse("necessity").kind == "necessity"
        with pytest.raises(ValueError):
            WeightPolicy.parse("uniform")

    @pytest.mark.parametrize("values", [
        (math.inf, 0.5), (0.5, -math.inf), (math.nan, 0.5), (0.0, 0.5), (-1.0, 0.5),
    ])
    def test_fixed_weights_must_be_finite_and_positive(self, values):
        with pytest.raises(ValueError, match="finite and positive"):
            WeightPolicy.fixed(values)
        with pytest.raises(ValueError, match="finite and positive"):
            WeightPolicy.parse("fixed:" + ",".join(map(str, values)))

    def test_fixed_length_checked(self):
        with pytest.raises(ValueError):
            WeightPolicy.fixed([0.5]).weights((0.5,), GridPlan([(1.0, 1.0)]), 1.0, count=2)

    def test_necessity_weights_equal(self):
        w = WeightPolicy.necessity().weights((1.0,), GridPlan([(1.0, 1.0)]), 2.0, count=2)
        assert w.shape == (1, 2)
        assert tuple(w[0]) == pytest.approx((0.5, 0.5))


class TestCheckHypotheses:
    def test_identity_tuple_all_equal(self):
        tup = OperatorTuple(tuple(identity(3) for _ in range(3)))
        rep = check_hypotheses(
            [Instance(tup, ParamTemplate(t=(0.5,), r=1.2), WeightPolicy.fixed([0.5, 0.5]))],
            PGrid(values=(1.0, 2.0)),
        )
        assert len(rep.rows) == 8
        for row in rep.rows:
            assert row.verdict == "EQ"
            assert abs(row.margin) <= 1e-12

    def test_ordered_scalar_worked_example(self):
        rep = check_hypotheses(
            [Instance(scalar_tuple([1.0, 2.0, 3.0]), ParamTemplate(t=(1.0,), r=2.0),
                      WeightPolicy.necessity())],
            PGrid(values=(1.0,)),
        )
        asc = next(r for r in rep.rows if r.family == "ascending")
        assert asc.w == pytest.approx(0.5)
        assert asc.margin == pytest.approx(3.0 - 4.5 ** 0.5, rel=1e-12)
        assert asc.verdict == "GE"

    def test_contrapositive_scalar_fixture(self):
        rep = check_hypotheses(
            [Instance(scalar_tuple([2.0, 1.0, 3.0]), ParamTemplate(t=(0.5,), r=1.0),
                      WeightPolicy.fixed([0.5, 0.5]))],
            PGrid(values=(1.0,)),
        )
        i, asc = next((i, r) for i, r in enumerate(rep.rows) if r.family == "ascending")
        assert asc.margin == pytest.approx(3 ** 0.5 - 6 ** 0.5, abs=1e-12)
        assert not margins_hold(rep.table.columns["margin"], rep.table.columns["scale"],
                                TOL_REL)[i]
        assert rep.table.failures().tolist() == [True, False]
        assert rep.summary()["fail"] == 1

    def test_rows_cover_grid_product(self):
        tup = gen_suite_tuple(3, 2, seed=8)
        rep = check_hypotheses(
            [Instance(tup, ParamTemplate(t=(0.4,), r=1.0), WeightPolicy.necessity())],
            PGrid(values=(1.0, 1.5, 2.0)),
        )
        assert len(rep.rows) == 2 * 9
        assert rep.summary()["pass"] == len(rep.rows)

    def test_error_rows_recorded_not_fatal(self):
        # fractional grid exponent forces a power of a singular-ish core
        tup = scalar_tuple([1e-4, 1.0, 1.0])
        rep = check_hypotheses(
            [Instance(tup, ParamTemplate(t=(0.9,), r=1.5), WeightPolicy.fixed([0.5, 0.5]))],
            PGrid(values=(1.5, 64.0)),
        )
        errors = [r for r in rep.rows if r.error is not None]
        assert errors, "expected at least one gated row"
        assert all(r.verdict == "ERROR" and math.isnan(r.margin) for r in errors)
        assert len(rep.rows) == 8

    def test_scalar_consistency_on_diagonal_tuples(self):
        rng = np.random.default_rng(3)
        diags = {i: tuple(rng.uniform(0.4, 1.6, 3)) for i in (1, 2, 3)}
        tup = OperatorTuple(tuple(diagonal(diags[i]) for i in (1, 2, 3)))
        template = ParamTemplate(t=(0.6,), r=1.1)
        grid = PGrid(values=(1.0, 2.0))
        rep = check_hypotheses([Instance(tup, template, WeightPolicy.necessity())], grid)
        for row in rep.rows:
            family = Family(row.family)
            chain = chains.build_chain(family, row.member, 3)
            scalars = {
                "t1": 0.6, "r": 1.1,
                "p1": row.p_vector[0], "p2": row.p_vector[1],
                "w1": row.w, "w2": row.w,
            }
            lhs = scalar_word_value(chain.lhs, scalars, diags)
            rhs = scalar_word_value(chain.rhs, scalars, diags)
            diffs = [l - r for l, r in zip(lhs, rhs)]
            expected = min(diffs) if family is Family.ASCENDING else min(
                r - l for l, r in zip(lhs, rhs)
            )
            assert row.margin == pytest.approx(expected, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("batched", [False, True])
    def test_left_side_that_fails_to_evaluate_gives_error_rows(self, batched):
        # every row of instance 0 compares against A3^(r - t1) = 4^1999.5 or
        # A2^(r - t1) = 2^1999.5, which overflow; so do the right sides'
        # outer sandwiches, but the left side's error comes first
        healthy = Instance(scalar_tuple([2.0, 3.0, 4.0]), ParamTemplate(t=(0.5,), r=1.5),
                           WeightPolicy.fixed([0.5, 0.5]), 1)
        overflowing = Instance(scalar_tuple([2.0, 3.0, 4.0]), ParamTemplate(t=(0.5,), r=2000.0),
                               WeightPolicy.fixed([0.5, 0.5]))
        rep = check_hypotheses([overflowing, healthy] if batched else [overflowing],
                               PGrid(values=(1.0, 2.0)))
        rows = rep.rows
        assert len(rows) == (16 if batched else 8)
        for row in rows[:8]:
            assert row.instance_id == "0" and row.verdict == "ERROR"
            assert row.error == "matrix power is not finite" and math.isnan(row.margin)
        assert all(row.error is None and math.isfinite(row.margin) for row in rows[8:])

    def test_left_side_error_comes_before_the_right_side_error(self):
        # the descending left side A1^(r - t1) = (1e300)^1.4 overflows, and
        # its right side's outer product A1^(r/2) X A1^(r/2) does too
        rep = check_hypotheses([Instance(scalar_tuple([1e300, 2.0, 3.0]),
                                         ParamTemplate(t=(0.5,), r=1.9), WeightPolicy.necessity())],
                               PGrid(values=(1.0,)))
        asc, desc = rep.rows
        assert asc.error is None and asc.verdict == "LE" and not rep.table.holds()[0]
        assert desc.error == "matrix power is not finite" and desc.verdict == "ERROR"


def _row_fields(row) -> tuple:
    """Every column but the timing; floats by repr so NaN compares equal."""
    extra = {name: v for name, v in row.extra.items() if name != "seconds"}
    return tuple(repr(v) if isinstance(v, float) else v
                 for v in (*row[:-1], *extra.values())) + tuple(extra)


class TestBatchedCampaign:
    def test_overflow_is_an_error_row_for_its_p_vector_only(self):
        # A1^(p1 p2) overflows only at p = (2, 2): 1e100 ** 4
        diags = {1: (1e100, 2e100), 2: (1.0, 1.0), 3: (1.0, 1.0)}
        tup = OperatorTuple(tuple(diagonal(diags[i]) for i in (1, 2, 3)))
        template = ParamTemplate(t=(0.5,), r=1.0)
        rep = check_hypotheses([Instance(tup, template, WeightPolicy.fixed([0.5, 0.5]))],
                               PGrid(values=(1.0, 2.0)))
        assert len(rep.rows) == 8
        errors = [r for r in rep.rows if r.error is not None]
        assert [(r.family, r.p_vector) for r in errors] == [("ascending", (2.0, 2.0))]
        assert "not finite" in errors[0].error and errors[0].verdict == "ERROR"
        for row in rep.rows:
            if row.error is not None:
                continue
            assert math.isfinite(row.margin) and math.isfinite(row.scale)
            chain = chains.build_chain(Family(row.family), row.member, 3)
            scalars = {"t1": 0.5, "r": 1.0, "p1": row.p_vector[0],
                       "p2": row.p_vector[1], "w1": 0.5, "w2": 0.5}
            lhs = scalar_word_value(chain.lhs, scalars, diags)
            rhs = scalar_word_value(chain.rhs, scalars, diags)
            if chain.direction is chains.Direction.GE:
                expected = min(a - b for a, b in zip(lhs, rhs))
            else:
                expected = min(b - a for a, b in zip(lhs, rhs))
            assert abs(row.margin - expected) <= 1e-12 * row.scale

    @pytest.mark.parametrize("generator,k,idx", [
        (gen_suite_tuple, 3, 0),       # no violation: every row returned
        (gen_suite_tuple, 3, 3),       # first violation in the second member
        (gen_suite_tuple, 5, 2),       # deciding row inside a doubled chunk
        (gen_unordered_tuple, 3, 58),  # an error row before the deciding row
        (gen_unordered_tuple, 5, 12),  # a member of error rows, then the cut
    ])
    def test_stop_on_violation_is_the_full_run_cut(self, generator, k, idx):
        rng = verify._rng(7, idx)
        tup = generator(k, 2, [7, idx] if generator is gen_suite_tuple else [7, idx, 10])
        n = k // 2
        t = tuple(rng.uniform(0.05, 0.95) for _ in range(n))
        template = ParamTemplate(t=t, r=t[-1] + rng.uniform(0.1, 2.0))
        policy = WeightPolicy.fixed(rng.uniform(0.2, 0.95) for _ in range(k - 1))
        grid = PGrid(values=(1.0, 1.5, 2.0, 4.0))
        full = check_hypotheses([Instance(tup, template, policy)], grid)
        cut = check_hypotheses([Instance(tup, template, policy)], grid, stop_on_violation=True)
        deciding = next(iter(np.flatnonzero(full.table.failures()).tolist()), None)
        end = len(full.rows) if deciding is None else deciding + 1
        assert [_row_fields(r) for r in cut.rows] == [_row_fields(r) for r in full.rows[:end]]
        assert cut.config.get("stopped_early", False) is (deciding is not None)

    def test_right_sides_decomposed_only_where_their_bound_reaches_the_scale(self, monkeypatch):
        from oporder import spectral

        # an unordered tuple: some right sides outgrow their left side
        tup = gen_unordered_tuple(5, 3, [0, 1])
        template = ParamTemplate(t=(0.5, 0.3), r=1.2)
        compare = verify.scaled_margins_stack
        seen = []

        def recording(lhs, rhs, errors):
            sizes = []
            with pytest.MonkeyPatch.context() as patch:
                count_decompositions(patch, sizes)
                got = compare(lhs, rhs, errors)
            seen.append((lhs, rhs, errors, sizes, got))
            return got

        monkeypatch.setattr(verify, "scaled_margins_stack", recording)
        check_hypotheses([Instance(tup, template, WeightPolicy.necessity())],
                         PGrid(values=(1.0, 1.5, 2.0, 4.0)))
        assert seen
        skipped = reached = 0
        for lhs, rhs, errors, sizes, (ge, le, scale, got_errors) in seen:
            lhs_norms = spectral.spectral_norms(lhs.spectrum[0])
            slack = 1 + tup.dim * spectral.BOUND_SLACK_PER_DIM
            inverse = rhs.distinct[1]
            reach = (rhs.norm_bound[inverse] >= np.maximum(1.0, lhs_norms) / slack) \
                & np.equal(errors, None)
            # the left sides' distinct values, then the right sides' that reach
            assert sizes == [len(lhs.distinct[0])] + (
                [len(np.unique(inverse[reach]))] if reach.any() else [])
            skipped += int(np.count_nonzero(~reach))
            reached += int(np.count_nonzero(reach))
            want = full_spectrum_margins(lhs.values, rhs.values, errors)
            for a, b in zip((ge, le, scale), want[:3]):
                assert a.tobytes() == b.tobytes()
            assert [str(e) for e in got_errors] == [str(e) for e in want[3]]
        assert skipped > 0 and reached > 0


class TestPrintParseEvaluateRoundTrip:
    def test_campaign_margins_survive_text_round_trip(self):
        from oporder import dsl

        tup = gen_suite_tuple(3, 3, seed=31)
        matrices = {i + 1: m for i, m in enumerate(tup.matrices)}
        scalars = {"t1": 0.6, "r": 1.3, "p1": 2.0, "p2": 1.5, "w1": 0.4, "w2": 0.4}
        env = dsl.Environment(scalars=scalars, matrices=matrices)
        for chain in chains.hypothesis_set(3):
            reparsed = dsl.parse(dsl.pretty_print(chain))
            direct = dsl.evaluate(chain.rhs, env).entries
            via_text = dsl.evaluate(reparsed.rhs, env).entries
            assert np.array_equal(direct, via_text)

    def test_complex_field_campaign(self):
        tup = gen_suite_tuple(3, 2, seed=37, field_kind="complex")
        rep = check_hypotheses(
            [Instance(tup, ParamTemplate(t=(0.5,), r=1.0), WeightPolicy.necessity())],
            PGrid(values=(1.0, 2.0)),
        )
        assert all(r.error is None for r in rep.rows)
        assert rep.table.holds().all()


class TestCheckConclusion:
    def test_ordered_generator_all_ge(self):
        assert all(v.ge for v in check_conclusion(gen_ordered_tuple(4, 2, seed=6)))

    def test_scalar_counterexample(self):
        verdicts = check_conclusion(scalar_tuple([2.0, 1.0]))
        assert not verdicts[0].ge

    def test_equal_tuple(self):
        tup = OperatorTuple((identity(2), identity(2)))
        assert check_conclusion(tup)[0].relation is Relation.EQ


class TestLoewnerHeinzProbe:
    def test_generated_pairs_hold(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            q = gen_ordered_tuple(2, 3, seed=int(rng.integers(1 << 30)))
            rep = probe_loewner_heinz(q.matrices[1], q.matrices[0])
            assert rep.precondition_ok
            assert rep.table.holds().all()

    def test_witness_pair_fails_at_two(self):
        p = HermitianMatrix(np.array([[2.0, 1.0], [1.0, 1.0]]))
        q = HermitianMatrix(np.ones((2, 2)))
        rep = probe_loewner_heinz(p, q, alphas=(2.0,))
        assert rep.precondition_ok
        assert rep.table.rows[0].verdict == "INCOMPARABLE"
        assert rep.table.rows[0].margin == pytest.approx((3 - math.sqrt(13)) / 2, abs=1e-12)

    def test_alpha_zero_is_equality(self):
        p = HermitianMatrix(np.array([[2.0, 1.0], [1.0, 1.0]]))
        q = HermitianMatrix(np.ones((2, 2)))
        rep = probe_loewner_heinz(p, q, alphas=(0.0, 1.0))
        assert rep.table.rows[0].verdict == "EQ"
        assert rep.table.rows[1].verdict in ("GE", "EQ")

    def test_precondition_violation_skips(self):
        rep = probe_loewner_heinz(identity(2), diagonal([2.0, 2.0]))
        assert not rep.precondition_ok
        assert rep.table is None

    def test_empty_exponent_list_rejected(self):
        with pytest.raises(ValueError, match="alphas is empty"):
            probe_loewner_heinz(diagonal([2.0, 2.0]), identity(2), alphas=())


class TestContractionProbe:
    def test_contraction_confirmed(self):
        rep = probe_contraction_criterion(
            identity(2), HermitianMatrix(0.5 * np.eye(2)), r=1.0, delta=0.0, w=1.0
        )
        assert rep.hypothesis_holds
        assert rep.conclusion.le
        assert rep.implication_status == "confirmed"
        assert not rep.cross_check_required

    def test_expansion_fails_fast(self):
        rep = probe_contraction_criterion(
            identity(2), HermitianMatrix(2.0 * np.eye(2)), r=1.0, delta=0.0, w=0.5
        )
        assert not rep.hypothesis_holds
        assert rep.failure_s is not None and rep.failure_s <= 4.0
        assert rep.implication_status == "hypothesis_fails"

    def test_scaled_p_equality_case(self):
        rep = probe_contraction_criterion(
            HermitianMatrix(2.0 * np.eye(2)), identity(2), r=1.0, delta=0.0, w=1.0
        )
        assert rep.hypothesis_holds
        assert rep.conclusion.le
        assert rep.implication_status == "confirmed"

    def test_cross_check_escalates_past_grid(self):
        q = HermitianMatrix(np.diag([1.001, 0.5]))
        rep = probe_contraction_criterion(
            HermitianMatrix(4.0 * np.eye(2)), q, r=1.0, delta=0.5, w=1.0,
            s_values=(1.5, 2.0),
        )
        assert rep.cross_check_required
        assert rep.cross_check_ok
        assert rep.failure_s is not None

    def test_gate_rejected_s_is_an_error_row(self):
        # (Q^8)^(1/2) needs a root of 0.01^8, below the strict-positivity gate
        rep = probe_contraction_criterion(
            identity(2), diagonal([0.5, 0.01]), r=1.0, delta=0.0, w=0.5
        )
        assert [row.verdict for row in rep.table.rows] == ["GE"] * 3 + ["ERROR"] * 4
        assert all(math.isnan(row.margin) and row.error for row in rep.table.rows[3:])
        assert rep.failure_s is None
        assert not rep.hypothesis_holds
        assert rep.implication_status == "indeterminate"
        assert rep.conclusion.le

    def test_error_rows_after_a_finite_failure(self):
        rep = probe_contraction_criterion(
            identity(2), diagonal([2.0, 0.01]), r=1.0, delta=0.0, w=0.5
        )
        assert rep.table.rows[0].verdict == "INCOMPARABLE" and rep.table.rows[0].margin < 0
        assert "ERROR" in [row.verdict for row in rep.table.rows]
        assert rep.failure_s == 1.5
        assert rep.implication_status == "hypothesis_fails"
        assert rep.cross_check_required and rep.cross_check_ok

    def test_cross_check_meeting_error_rows_is_undecided(self):
        # from s = 64 on, the root of 4 * 0.5^s falls below the gate, long
        # before 1.001^s would break the hypothesis (s > 2772)
        rep = probe_contraction_criterion(
            HermitianMatrix(4.0 * np.eye(2)), diagonal([1.001, 0.5]), r=1.0, delta=0.5,
            w=0.5, s_values=(1.5, 2.0),
        )
        assert rep.hypothesis_holds and rep.cross_check_required
        assert [row.point for row in rep.table.rows][:6] == [1.5, 2.0, 4.0, 8.0, 16.0, 32.0]
        assert {row.verdict for row in rep.table.rows[6:]} == {"ERROR"}
        assert rep.failure_s is None
        assert rep.cross_check_ok is None
        assert rep.implication_status == "violation_witness"

    def test_cross_check_without_failure_or_error_fails(self):
        rep = probe_contraction_criterion(
            HermitianMatrix(4.0 * np.eye(2)), diagonal([1.0 + 2e-6, 0.5]), r=1.0, delta=2.0,
            w=1.0, s_values=(2.0,),
        )
        assert rep.cross_check_required
        assert rep.failure_s is None
        assert "ERROR" not in [row.verdict for row in rep.table.rows]
        assert rep.cross_check_ok is False

    def test_cross_check_with_no_s_left_to_escalate_to_fails(self):
        # 6e5 * S_GROWTH exceeds S_CAP, so no s is evaluated past the grid
        rep = probe_contraction_criterion(
            HermitianMatrix(4.0 * np.eye(2)), diagonal([1.0 + 2e-6, 0.9]), r=1.0, delta=2.0,
            w=1.0, s_values=(6e5,))
        assert rep.cross_check_required and rep.failure_s is None
        assert [row.point for row in rep.table.rows] == [6e5]
        assert rep.cross_check_ok is False

    def test_degenerate_weight_rejected(self):
        with pytest.raises(ValueError):
            probe_contraction_criterion(identity(2), identity(2), 1.0, 0.0, 0.0)

    def test_bad_s_grid_rejected(self):
        with pytest.raises(ValueError):
            probe_contraction_criterion(identity(2), identity(2), 1.0, 0.0, 0.5,
                                        s_values=(1.0, 2.0))

    def test_empty_s_grid_rejected(self):
        with pytest.raises(ValueError, match="s_values must hold at least one s"):
            probe_contraction_criterion(identity(2), identity(2), 1.0, 0.0, 0.5, s_values=())


class TestReductionChain:
    def test_identity_tuple_degenerates_to_equalities(self):
        tup = OperatorTuple(tuple(identity(2) for _ in range(5)))
        rep = check_reduction_chain(
            _necessity(tup, ParamTemplate(t=(0.5, 0.5), r=1.0)), PGrid(values=(1.0, 2.0)))
        assert rep.premise_pass
        assert not rep.red_flags
        for row in reduction_points(rep):
            assert abs(row["margin_core"]) <= 1e-10
            assert abs(row["margin_peel"]) <= 1e-10
            assert row["c_total"] == pytest.approx(1.0)

    def test_contractive_instance_holds(self):
        tup = gen_suite_tuple(5, 3, seed=14)
        rep = check_reduction_chain(
            _necessity(tup, ParamTemplate(t=(0.85, 0.1), r=0.7)), PGrid(values=(1.0, 2.0, 4.0)))
        assert rep.premise_pass
        assert not rep.red_flags
        assert rep.table.holds().all()
        # the scalar bound coarsens the peeled bound
        for row in reduction_points(rep):
            assert row["margin_scalar"] >= row["margin_peel"] - 1e-9

    def test_single_level_degenerate_bound(self):
        tup = gen_suite_tuple(3, 2, seed=15)
        rep = check_reduction_chain(
            _necessity(tup, ParamTemplate(t=(0.8,), r=1.2)), PGrid(values=(1.0, 2.0)))
        assert rep.premise_pass
        assert rep.c_total.tolist() == pytest.approx([1.0] * len(rep.c_total))
        assert rep.table.holds().all()

    def test_scalar_bound_hand_value(self):
        # two-level interior norm(A4)^(t2/p3) * (1/margin(A3))^t1, to 1/p2
        tup = scalar_tuple([0.5, 0.6, 0.7, 0.8, 0.9])
        got, = scalar_bounds(tup, (0.8, 0.3), GridPlan(((1.0, 2.0, 2.0, 4.0),)))
        expected = ((0.8 ** (0.3 / 2.0)) * ((1 / 0.7) ** 0.8)) ** (1 / 2.0)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_scalar_bound_three_level_hand_value(self):
        # diag(lo, hi): norm hi, margin lo; layer 3 flips positive (a norm
        # factor), layers 4 and 2 negative (reciprocal-margin factors)
        spectra = [(0.4, 0.5), (0.5, 0.6), (0.6, 0.7), (0.7, 0.8), (0.8, 0.9),
                   (0.9, 0.95), (0.95, 0.99)]
        tup = OperatorTuple(tuple(diagonal(s) for s in spectra))
        got, = scalar_bounds(tup, (0.8, 0.3, 0.6),
                             GridPlan(((1.0, 2.0, 3.0, 4.0, 5.0, 1.0),)))
        inner = (0.95 ** (0.6 / 5.0) * (1 / 0.8) ** 0.3) ** (1 / 4.0)
        expected = ((inner * 0.8 ** 0.3) ** (1 / 3.0) * (1 / 0.6) ** 0.8) ** (1 / 2.0)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_left_side_that_fails_to_evaluate_gives_premise_error_rows(self):
        # the premise's left side A3^(r - t1) = 4^1999.5 overflows on every
        # row; the reduction's own words do not contain it
        tup, template = scalar_tuple([2.0, 3.0, 4.0]), ParamTemplate(t=(0.5,), r=2000.0)
        rep = check_reduction_chain(Instance(tup, template, WeightPolicy.fixed([0.5, 0.5])),
                                    PGrid(values=(1.0, 2.0)))
        assert (rep.premise_failures, rep.premise_errors) == (0, 4)
        assert not rep.premise_pass
        assert rep.table.error_rows.tolist() == [True] * 4 + [False] * 12

    def test_one_run_per_chunk_and_the_base_decomposed_once_per_p1(self, monkeypatch):
        from oporder import dsl

        tup = gen_suite_tuple(5, 2, seed=[0, 0])
        template = ParamTemplate(t=(0.85, 0.1), r=0.7)
        calls = {"evaluate_batch": 0, "decompose_stack": []}
        evaluate_batch = dsl.evaluate_batch

        def counting_evaluate(*args, **kwargs):
            calls["evaluate_batch"] += 1
            return evaluate_batch(*args, **kwargs)

        monkeypatch.setattr(dsl, "evaluate_batch", counting_evaluate)
        count_decompositions(monkeypatch, calls["decompose_stack"])
        check_reduction_chain(_necessity(tup, template), PGrid(values=(1.0, 1.5, 4.0)))
        # 81 rows in one run: its five powers decompose 3, 9, 27 and 81
        # distinct bases and the peeled bound's 3.  The one comparison
        # decomposes the left side, I and the base sandwich's 3 distinct
        # values in one stack (once for both its norm and its lambda_max),
        # and the 9 distinct peeled bounds in another.  The 81 cores and
        # the 81 right sides are powers whose norm bounds stay below the
        # identity's and the left side's norms, so it decomposes none of them
        assert calls["evaluate_batch"] == 1
        assert sorted(calls["decompose_stack"]) == [3, 3, 5, 9, 9, 27, 81]

    def test_subsampled_premise_is_judged_on_the_reduction_rows(self):
        # 101 ** 2 grid points exceed GRID_POINT_CAP, so the rows are a
        # subsample; the premise member is judged on those very rows
        tup = scalar_tuple([0.9, 0.5, 0.95])
        t1, r, w = 0.8, 1.2, 0.5
        grid = PGrid(values=tuple(np.geomspace(1.0, 8.0, 101).tolist()))
        rep = check_reduction_chain(
            Instance(tup, ParamTemplate(t=(t1,), r=r), WeightPolicy.fixed((w, w)), 1), grid,
            master_seed=3)
        assert len(rep.table) == 4 * verify.GRID_POINT_CAP
        p_vectors = rep.table.checks[0].points
        assert p_vectors == verify._p_samples(grid, 1, 3, 1, 2).vectors

        def premise_margins(p_vectors):
            # A3^(r-t1) - (A3^(r/2) (A2^(-t1/2) A1^p1 A2^(-t1/2))^p2 A3^(r/2))^w
            p = np.asarray(p_vectors)
            return 0.95 ** (r - t1) - (0.95 ** r * (0.9 ** p[:, 0] * 0.5 ** -t1) ** p[:, 1]) ** w

        margins = premise_margins(p_vectors)
        assert not rep.premise_errors
        assert np.count_nonzero(margins < -1e-9) <= rep.premise_failures \
            <= np.count_nonzero(margins < 1e-9)
        # the premise's own stream of samples would count differently
        other = premise_margins(verify._p_samples(grid, 1, 3, 1, 1).vectors)
        assert np.count_nonzero(other < 0) != rep.premise_failures

    def test_red_flag_on_tampered_tolerance(self):
        # force an impossible scalar bound by shrinking the interior
        tup = gen_suite_tuple(5, 2, seed=16)
        rep = check_reduction_chain(
            _necessity(tup, ParamTemplate(t=(0.85, 0.1), r=0.7)), PGrid(values=(1.0,)),
            suite_tol_rel=1e-7,
        )
        assert not rep.red_flags  # sanity: healthy instance has none


class TestLimitProbe:
    def test_identity_pair(self):
        rep = limit_probe(identity(2), identity(2))
        assert rep.c == pytest.approx(1.0)
        assert all(v == pytest.approx(1.0) for v in rep.sequence)
        assert rep.order_consistent

    def test_fixed_constant_sequence(self):
        rep = limit_probe(identity(2), identity(2), c=4.0)
        assert rep.sequence == pytest.approx(
            (4.0, 1.148698354997035, 1.013959479790029,
             1.0013872557113346, 1.0001386390456164), rel=1e-12
        )
        assert rep.monotone_nonincreasing
        assert rep.final_gap == pytest.approx(0.0001386, abs=1e-6)

    def test_ordered_pair_declaration_matches_conclusion(self):
        tup = gen_ordered_tuple(2, 3, seed=21)
        rep = limit_probe(tup.matrices[0], tup.matrices[1])
        assert rep.conclusion.ge
        assert rep.order_consistent
        assert rep.bound_consistent

    def test_unordered_pair_declared_inconsistent(self):
        rep = limit_probe(diagonal([2.0, 2.0]), identity(2))
        assert rep.lambda_max_core == pytest.approx(2.0)
        assert not rep.order_consistent
        assert not rep.conclusion.ge

    @pytest.mark.parametrize("c", [None, 4.0])
    def test_core_that_fails_to_evaluate_is_an_error_outcome(self, c):
        # A2^(-1/2) trips the pd gate; the direct comparison still runs
        rep = limit_probe(identity(2), diagonal([1e-12, 1.0]), c=c)
        assert rep.error.startswith("matrix is numerically singular")
        assert math.isnan(rep.lambda_max_core)
        assert not rep.order_consistent and not rep.bound_consistent
        assert rep.conclusion.relation.value == "LE"
        if c is None:
            assert math.isnan(rep.c) and all(math.isnan(v) for v in rep.sequence)
        else:
            assert rep.c == 4.0 and rep.monotone_nonincreasing

    def test_healthy_core_has_no_error(self):
        assert limit_probe(identity(2), identity(2)).error is None

    @pytest.mark.parametrize("c", [-1.0, float("nan")])
    def test_bound_constant_must_be_a_nonnegative_number(self, c):
        with pytest.raises(ValueError, match="bound constant"):
            limit_probe(identity(2), identity(2), c=c)

    def test_empty_p2_list_rejected(self):
        with pytest.raises(ValueError, match="p2_values is empty"):
            limit_probe(identity(2), identity(2), p2_values=())

    @pytest.mark.parametrize("p2", [0.0, -1.0, 0.5, float("nan"), float("inf")])
    def test_p2_outside_the_grid_domain_rejected(self, p2):
        # the domain --s-grid enforces through PGrid: finite and >= 1
        with pytest.raises(ValueError, match="p2_values must be finite and >= 1"):
            limit_probe(identity(2), identity(2), p2_values=(1.0, p2))


class TestImpliedCoreViolation:
    def test_blind_instance_caught_at_unit_t(self):
        # passes its own-t cores but fails them at t = 1
        tup = scalar_tuple([0.7, 0.5, 2.0])
        template = ParamTemplate(t=(0.3,), r=1.0)
        grid = PGrid(values=(1.0, 2.0, 4.0))
        hit, unevaluated = implied_core_violation(_necessity(tup, template), grid)
        assert hit is not None and unevaluated == 0
        assert hit["t"] == [1.0]

    def test_ordered_tuple_clean(self):
        tup = gen_suite_tuple(3, 2, seed=19)
        template = ParamTemplate(t=(0.5,), r=1.0)
        assert implied_core_violation(_necessity(tup, template),
                                      PGrid(values=(1.0, 2.0))) == (None, 0)


class TestSearch:
    def test_zero_budget(self):
        report = search_counterexample(SearchConfig(budget=0))
        assert report.findings == []
        assert report.stats["counters"]["instances"] == 0

    def test_small_budget_statistics(self):
        config = SearchConfig(budget=12, master_seed=3)
        report = search_counterexample(config)
        counters = report.stats["counters"]
        assert counters["instances"] == 12
        assert counters["emitted"] == 0
        assert sum(v for k, v in counters.items() if k != "instances") == 12

    def test_reproducible_bit_for_bit(self):
        config = SearchConfig(budget=10, master_seed=5)
        a = search_counterexample(config).to_json()
        b = search_counterexample(config).to_json()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_write_json(self, tmp_path):
        path = tmp_path / "findings.json"
        search_counterexample(SearchConfig(budget=2, master_seed=1)).write_json(path)
        payload = json.loads(path.read_text())
        assert payload["findings"] == []
        assert "margin_histogram" in payload["stats"]


class TestMarginTable:
    @staticmethod
    def table():
        margin = np.array([0.5, -1.0, -2.0])
        scale = np.array([1.0, 2.0, 3.0])
        w = np.array([0.1, 0.2, 0.3])
        errors = np.array([None, ValueError("boom"), None], dtype=object)
        inputs = [margin, scale, w]
        table = verify.MarginTable.judged(
            (verify.Comparison("a", (1.0, 2.0, 4.0)),), np.zeros(3, np.intp), np.arange(3),
            margin, scale, np.array([2, 0, 0]), errors, 1e-7, w=w)
        return table, inputs

    def test_judged_blanks_error_rows_and_keeps_its_inputs(self):
        table, (margin, scale, w) = self.table()
        assert error_rows(table.errors, 3) == [None, (ValueError, "boom"), None]
        assert [table.error_text(i) for i in range(3)] == [None, "boom", None]
        assert [repr(v) for v in table.columns["margin"].tolist()] == ["0.5", "nan", "-2.0"]
        assert [repr(v) for v in table.columns["w"].tolist()] == ["0.1", "nan", "0.3"]
        assert table.columns["scale"].tolist() == [1.0, 1.0, 3.0]
        assert [row.verdict for row in table.rows] == ["GE", "ERROR", "INCOMPARABLE"]
        assert (margin.tolist(), scale.tolist(), w.tolist()) == \
            ([0.5, -1.0, -2.0], [1.0, 2.0, 3.0], [0.1, 0.2, 0.3])
        # an ERROR row fails but is never a failure
        assert table.holds().tolist() == [True, False, False]
        assert table.failures().tolist() == [False, False, True]
        assert (table.rows[2].point, table.rows[2].w, table.rows[-1].name) == (4.0, 0.3, "a")

    def test_concat_keeps_each_rows_check_and_error_text(self):
        table, _ = self.table()
        clean = verify.MarginTable.judged(
            (verify.Comparison("b", (8.0, 16.0)),), np.zeros(2, np.intp), np.array([1, 0]),
            np.array([0.5, 0.25]), np.ones(2), np.array([2, 2]), None, 1e-7,
            w=np.array([0.4, 0.5]))
        both = verify.MarginTable.concat([table, clean])
        assert [both.error_text(i) for i in range(5)] == [None, "boom", None, None, None]
        assert [row.error for row in both.rows] == [None, "boom", None, None, None]
        # each table's checks come after those of the tables before it
        assert [row.name for row in both.rows] == ["a"] * 3 + ["b"] * 2
        assert [row.point for row in both.rows] == [1.0, 2.0, 4.0, 16.0, 8.0]
        # a table keeps no row-error array while none of its rows failed
        assert clean.errors is None and verify.MarginTable.concat([clean, clean]).errors is None
        assert error_rows(verify.MarginTable.concat([clean, table]).errors, 5) == \
            [None, None, None, (ValueError, "boom"), None]


class TestCampaignReport:
    def make_report(self):
        tup = gen_suite_tuple(3, 2, seed=23)
        return check_hypotheses(
            [Instance(tup, ParamTemplate(t=(0.5,), r=1.0), WeightPolicy.necessity(), 7)],
            PGrid(values=(1.0, 2.0)),
        )

    def test_csv_columns_and_sidecar(self, tmp_path):
        rep = self.make_report()
        rep.config = {"purpose": "test"}
        path = tmp_path / "report.csv"
        rep.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == ("instance_id,k,dim,family,member,p_vector,w,"
                            "relation,margin,verdict,seconds")
        assert len(lines) == 1 + len(rep.rows)
        first = lines[1].split(",")
        assert first[0] == "7"
        assert ";" in first[5] or first[5]  # p_vector joined with semicolons
        sidecar = json.loads((tmp_path / "report.csv.json").read_text())
        assert sidecar["config"] == {"purpose": "test"}
        assert "summary" in sidecar

    def test_shorter_report_at_the_same_path_leaves_only_its_bytes(self, tmp_path):
        long_report = check_hypotheses(
            [Instance(gen_suite_tuple(3, 2, seed=23), ParamTemplate(t=(0.5,), r=1.0),
                      WeightPolicy.necessity(), 7)],
            PGrid(values=(1.0, 1.5, 2.0, 4.0)))
        long_report.config = {"purpose": "a longer config than the second one"}
        short_report = self.make_report()
        short_report.config = {}
        long_findings = SearchReport([{"instance_id": i} for i in range(50)], {}, {}, 0)
        short_findings = SearchReport([], {}, {}, 0)
        path, findings = tmp_path / "report.csv", tmp_path / "findings.json"
        long_report.write_csv(path)
        long_findings.write_json(findings)
        sidecar = tmp_path / "report.csv.json"
        sizes = [p.stat().st_size for p in (path, sidecar, findings)]
        short_report.write_csv(str(path))
        short_findings.write_json(str(findings))
        assert path.read_bytes() == short_report.csv_text().encode()
        assert sidecar.read_bytes() == (json.dumps(
            {"config": {}, "master_seed": 0, "summary": short_report.summary()},
            indent=2) + "\n").encode()
        assert findings.read_bytes() == (
            json.dumps(short_findings.to_json(), indent=2) + "\n").encode()
        assert all(p.stat().st_size < size
                   for p, size in zip((path, sidecar, findings), sizes))

    def test_write_through_a_symlink_keeps_the_link_and_the_mode(self, tmp_path):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_text("x" * 10_000)
        target.chmod(0o640)
        link.symlink_to(target)
        report = SearchReport([], {}, {}, 0)
        report.write_json(link)
        assert link.is_symlink()
        assert target.read_bytes() == (json.dumps(report.to_json(), indent=2) + "\n").encode()
        assert target.stat().st_mode & 0o777 == 0o640

    def test_write_creates_a_new_file(self, tmp_path):
        path = tmp_path / "new.json"
        report = SearchReport([], {"rows": 1}, {}, 3)
        report.write_json(path)
        assert json.loads(path.read_text()) == report.to_json()

    def test_mathematical_columns_deterministic(self):
        a, b = self.make_report(), self.make_report()
        strip = lambda text: [
            ",".join(line.split(",")[:-1]) for line in text.splitlines()
        ]
        assert strip(a.csv_text()) == strip(b.csv_text())

    def test_summary_uses_suite_slack(self):
        # -1e-8 * scale is INCOMPARABLE at the 1e-9 verdict tolerance but
        # within the 1e-7 suite slack that decides the CLI exit code
        member = verify.CampaignMember("0", 3, 2, "ascending", 1, ">=", [(1.0, 1.0)])

        def report(tol_rel):
            columns = {"check": [0], "point": [0], "margin": [-2e-8], "scale": [2.0],
                       "verdict": [verify.VERDICTS.index("INCOMPARABLE")], "w": [0.5],
                       "seconds": [0.0]}
            table = verify.MarginTable((member,), {name: np.asarray(col)
                                                   for name, col in columns.items()},
                                       None, tol_rel)
            return CampaignReport(table, {}, 0)

        rep = report(verify.SUITE_TOL_REL)
        assert not rep.table.failures().any()
        assert rep.summary()["pass"] == 1 and rep.summary()["fail"] == 0
        strict = report(1e-9)
        assert strict.table.failures().tolist() == [True]
        assert strict.rows[0] == verify.MarginRow(member, (1.0, 1.0), -2e-8, 2.0, "INCOMPARABLE",
                                                  None, {"w": 0.5, "seconds": 0.0})
        assert strict.summary()["fail"] == 1

    def test_summary_counts(self):
        rep = self.make_report()
        summary = rep.summary()
        assert summary["rows"] == len(rep.rows)
        assert summary["pass"] + summary["fail"] == summary["rows"]
        assert summary["error"] == sum(row.verdict == "ERROR" for row in rep.rows)
        assert summary["worst_margin"] <= max(r.margin for r in rep.rows)
