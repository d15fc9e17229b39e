import dataclasses
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
    operator_norm,
)
from oporder.verify import (
    CampaignReport,
    CampaignRow,
    OperatorTuple,
    ParamTemplate,
    PGrid,
    SearchConfig,
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
    reduction_scalar_interior,
    scalar_tuple,
    search_counterexample,
)
from oporder import verify
from util import scalar_word_value


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


class TestPGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            PGrid(values=(0.5, 1.0))
        with pytest.raises(ValueError):
            PGrid(values=(2.0, 1.0))

    def test_escalation_caps(self):
        grid = PGrid(values=(1.0, 2.0), growth=2.0, cap=8.0)
        values = []
        while grid is not None:
            values.append(grid.values[-1])
            grid = grid.escalate()
        assert values == [2.0, 4.0, 8.0]

    def test_full_product(self):
        grid = PGrid(values=(1.0, 2.0))
        vectors = grid.vectors(2)
        assert len(vectors) == 4
        assert vectors[0] == (1.0, 1.0)

    def test_latin_hypercube_subsample(self):
        grid = PGrid(values=(1.0, 1.5, 2.0, 4.0, 8.0))
        rng = np.random.default_rng(0)
        vectors = grid.vectors(6, rng=rng, point_cap=500)
        assert len(vectors) == 500
        assert all(len(v) == 6 for v in vectors)
        again = grid.vectors(6, rng=np.random.default_rng(0), point_cap=500)
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


class TestWeightPolicy:
    def test_parse_round_trip(self):
        fixed = WeightPolicy.parse("fixed:0.5,0.25")
        assert fixed.values == (0.5, 0.25)
        assert WeightPolicy.parse(fixed.describe()).values == fixed.values
        assert WeightPolicy.parse("necessity").kind == "necessity"
        with pytest.raises(ValueError):
            WeightPolicy.parse("uniform")

    def test_fixed_length_checked(self):
        with pytest.raises(ValueError):
            WeightPolicy.fixed([0.5]).weights((0.5,), [(1.0, 1.0)], 1.0, count=2)

    def test_necessity_weights_equal(self):
        w = WeightPolicy.necessity().weights((1.0,), [(1.0, 1.0)], 2.0, count=2)
        assert w.shape == (1, 2)
        assert tuple(w[0]) == pytest.approx((0.5, 0.5))


class TestCheckHypotheses:
    def test_identity_tuple_all_equal(self):
        tup = OperatorTuple(tuple(identity(3) for _ in range(3)))
        rep = check_hypotheses(
            tup, ParamTemplate(t=(0.5,), r=1.2), PGrid(values=(1.0, 2.0)),
            WeightPolicy.fixed([0.5, 0.5]),
        )
        assert len(rep.rows) == 8
        for row in rep.rows:
            assert row.verdict == "EQ"
            assert abs(row.margin) <= 1e-12

    def test_ordered_scalar_worked_example(self):
        rep = check_hypotheses(
            scalar_tuple([1.0, 2.0, 3.0]), ParamTemplate(t=(1.0,), r=2.0),
            PGrid(values=(1.0,)), WeightPolicy.necessity(),
        )
        asc = next(r for r in rep.rows if r.family == "ascending")
        assert asc.w == pytest.approx(0.5)
        assert asc.margin == pytest.approx(3.0 - 4.5 ** 0.5, rel=1e-12)
        assert asc.verdict == "GE"

    def test_contrapositive_scalar_fixture(self):
        rep = check_hypotheses(
            scalar_tuple([2.0, 1.0, 3.0]), ParamTemplate(t=(0.5,), r=1.0),
            PGrid(values=(1.0,)), WeightPolicy.fixed([0.5, 0.5]),
        )
        asc = next(r for r in rep.rows if r.family == "ascending")
        assert asc.margin == pytest.approx(3 ** 0.5 - 6 ** 0.5, abs=1e-12)
        assert not asc.holds(TOL_REL)
        report_viols = rep.violations()
        assert len(report_viols) == 1

    def test_rows_cover_grid_product(self):
        tup = gen_suite_tuple(3, 2, seed=8)
        rep = check_hypotheses(
            tup, ParamTemplate(t=(0.4,), r=1.0), PGrid(values=(1.0, 1.5, 2.0)),
            WeightPolicy.necessity(),
        )
        assert len(rep.rows) == 2 * 9
        assert rep.pass_count == len(rep.rows)

    def test_member_filter(self):
        tup = gen_suite_tuple(3, 2, seed=8)
        rep = check_hypotheses(
            tup, ParamTemplate(t=(0.4,), r=1.0), PGrid(values=(1.0,)),
            WeightPolicy.necessity(), members=((Family.ASCENDING, 1),),
        )
        assert len(rep.rows) == 1
        assert rep.rows[0].family == "ascending"

    def test_error_rows_recorded_not_fatal(self):
        # fractional grid exponent forces a power of a singular-ish core
        tup = scalar_tuple([1e-4, 1.0, 1.0])
        rep = check_hypotheses(
            tup, ParamTemplate(t=(0.9,), r=1.5), PGrid(values=(1.5, 64.0)),
            WeightPolicy.fixed([0.5, 0.5]),
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
        rep = check_hypotheses(tup, template, grid, WeightPolicy.necessity())
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
        healthy = verify.Instance(scalar_tuple([2.0, 3.0, 4.0]), ParamTemplate(t=(0.5,), r=1.5),
                                  WeightPolicy.fixed([0.5, 0.5]), 1, "1")
        tup, template = scalar_tuple([2.0, 3.0, 4.0]), ParamTemplate(t=(0.5,), r=2000.0)
        rep = check_hypotheses(tup, template, PGrid(values=(1.0, 2.0)),
                               WeightPolicy.fixed([0.5, 0.5]), batch=[healthy] if batched else ())
        rows = rep.rows
        assert len(rows) == (16 if batched else 8)
        for row in rows[:8]:
            assert row.instance_id == "0" and row.verdict == "ERROR"
            assert row.error == "matrix power is not finite" and math.isnan(row.margin)
        assert all(row.error is None and math.isfinite(row.margin) for row in rows[8:])

    def test_left_side_error_comes_before_the_right_side_error(self):
        # the descending left side A1^(r - t1) = (1e300)^1.4 overflows, and
        # its right side's outer product A1^(r/2) X A1^(r/2) does too
        rep = check_hypotheses(scalar_tuple([1e300, 2.0, 3.0]), ParamTemplate(t=(0.5,), r=1.9),
                               PGrid(values=(1.0,)), WeightPolicy.necessity())
        asc, desc = rep.rows
        assert asc.error is None and asc.verdict == "LE" and not asc.holds()
        assert desc.error == "matrix power is not finite" and desc.verdict == "ERROR"


def _row_fields(row: CampaignRow) -> tuple:
    """Every column but the timing; floats by repr so NaN compares equal."""
    return tuple(repr(v) if isinstance(v, float) else v
                 for f, v in dataclasses.asdict(row).items() if f != "seconds")


class TestBatchedCampaign:
    def test_overflow_is_an_error_row_for_its_p_vector_only(self):
        # A1^(p1 p2) overflows only at p = (2, 2): 1e100 ** 4
        diags = {1: (1e100, 2e100), 2: (1.0, 1.0), 3: (1.0, 1.0)}
        tup = OperatorTuple(tuple(diagonal(diags[i]) for i in (1, 2, 3)))
        template = ParamTemplate(t=(0.5,), r=1.0)
        rep = check_hypotheses(tup, template, PGrid(values=(1.0, 2.0)),
                               WeightPolicy.fixed([0.5, 0.5]))
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
        full = check_hypotheses(tup, template, grid, policy)
        cut = check_hypotheses(tup, template, grid, policy, stop_on_violation=True)
        deciding = next((i for i, r in enumerate(full.rows)
                         if r.error is None and not r.holds()), None)
        end = len(full.rows) if deciding is None else deciding + 1
        assert [_row_fields(r) for r in cut.rows] == [_row_fields(r) for r in full.rows[:end]]
        assert cut.config.get("stopped_early", False) is (deciding is not None)

    def test_right_sides_decomposed_only_where_their_bound_reaches_the_scale(self, monkeypatch):
        from oporder import dsl, spectral

        # an unordered tuple: some right sides outgrow their left side
        tup = gen_unordered_tuple(5, 3, [0, 1])
        template = ParamTemplate(t=(0.5, 0.3), r=1.2)
        decompose, compare = spectral.decompose_stack, verify.scaled_margins_stack
        seen = []

        def recording(lhs, rhs, errors):
            sizes = []
            for module in (dsl, spectral):
                monkeypatch.setattr(module, "decompose_stack", lambda arrs, errs=None:
                                    sizes.append(len(arrs)) or decompose(arrs, errs))
            got = compare(lhs, rhs, errors)
            for module in (dsl, spectral):
                monkeypatch.setattr(module, "decompose_stack", decompose)
            seen.append((lhs, rhs, errors, sizes, got))
            return got

        monkeypatch.setattr(verify, "scaled_margins_stack", recording)
        check_hypotheses(tup, template, PGrid(values=(1.0, 1.5, 2.0, 4.0)),
                         WeightPolicy.necessity())
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
            want = compare(lhs.values, rhs.values, errors)
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
            tup, ParamTemplate(t=(0.5,), r=1.0), PGrid(values=(1.0, 2.0)),
            WeightPolicy.necessity(),
        )
        assert all(r.error is None for r in rep.rows)
        assert all(r.holds() for r in rep.rows)


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
            assert rep.all_hold()

    def test_witness_pair_fails_at_two(self):
        p = HermitianMatrix(np.array([[2.0, 1.0], [1.0, 1.0]]))
        q = HermitianMatrix(np.ones((2, 2)))
        rep = probe_loewner_heinz(p, q, alphas=(2.0,))
        assert rep.precondition_ok
        assert rep.rows[0].verdict == "INCOMPARABLE"
        assert rep.rows[0].margin == pytest.approx((3 - math.sqrt(13)) / 2, abs=1e-12)

    def test_alpha_zero_is_equality(self):
        p = HermitianMatrix(np.array([[2.0, 1.0], [1.0, 1.0]]))
        q = HermitianMatrix(np.ones((2, 2)))
        rep = probe_loewner_heinz(p, q, alphas=(0.0, 1.0))
        assert rep.rows[0].verdict == "EQ"
        assert rep.rows[1].verdict in ("GE", "EQ")

    def test_precondition_violation_skips(self):
        rep = probe_loewner_heinz(identity(2), diagonal([2.0, 2.0]))
        assert not rep.precondition_ok
        assert rep.rows == []


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
        assert [row.verdict for row in rep.rows] == ["GE"] * 3 + ["ERROR"] * 4
        assert all(math.isnan(row.margin) and row.error for row in rep.rows[3:])
        assert rep.failure_s is None
        assert not rep.hypothesis_holds
        assert rep.implication_status == "indeterminate"
        assert rep.conclusion.le

    def test_error_rows_after_a_finite_failure(self):
        rep = probe_contraction_criterion(
            identity(2), diagonal([2.0, 0.01]), r=1.0, delta=0.0, w=0.5
        )
        assert rep.rows[0].verdict == "INCOMPARABLE" and rep.rows[0].margin < 0
        assert "ERROR" in [row.verdict for row in rep.rows]
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
        assert [row.exponent for row in rep.rows][:6] == [1.5, 2.0, 4.0, 8.0, 16.0, 32.0]
        assert {row.verdict for row in rep.rows[6:]} == {"ERROR"}
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
        assert "ERROR" not in [row.verdict for row in rep.rows]
        assert rep.cross_check_ok is False

    def test_degenerate_weight_rejected(self):
        with pytest.raises(ValueError):
            probe_contraction_criterion(identity(2), identity(2), 1.0, 0.0, 0.0)

    def test_bad_s_grid_rejected(self):
        with pytest.raises(ValueError):
            probe_contraction_criterion(identity(2), identity(2), 1.0, 0.0, 0.5,
                                        s_values=(1.0, 2.0))


class TestReductionChain:
    def test_identity_tuple_degenerates_to_equalities(self):
        tup = OperatorTuple(tuple(identity(2) for _ in range(5)))
        rep = check_reduction_chain(
            tup, ParamTemplate(t=(0.5, 0.5), r=1.0), PGrid(values=(1.0, 2.0))
        )
        assert rep.premise_pass
        assert not rep.red_flags
        for row in rep.rows:
            assert abs(row.margin_core) <= 1e-10
            assert abs(row.margin_peel) <= 1e-10
            assert row.c_total == pytest.approx(1.0)

    def test_contractive_instance_holds(self):
        tup = gen_suite_tuple(5, 3, seed=14)
        rep = check_reduction_chain(
            tup, ParamTemplate(t=(0.85, 0.1), r=0.7), PGrid(values=(1.0, 2.0, 4.0))
        )
        assert rep.premise_pass
        assert not rep.red_flags
        assert rep.all_hold()
        # the scalar bound coarsens the peeled bound
        for row in rep.rows:
            assert row.margin_scalar >= row.margin_peel - 1e-9

    def test_single_level_degenerate_bound(self):
        tup = gen_suite_tuple(3, 2, seed=15)
        rep = check_reduction_chain(
            tup, ParamTemplate(t=(0.8,), r=1.2), PGrid(values=(1.0, 2.0))
        )
        assert rep.premise_pass
        for row in rep.rows:
            assert row.c_total == pytest.approx(1.0)
        assert rep.all_hold()

    def test_scalar_interior_hand_value(self):
        # two-level interior: norm(A4)^(t2/p3) * (1/margin(A3))^t1
        tup = scalar_tuple([0.5, 0.6, 0.7, 0.8, 0.9])
        got = reduction_scalar_interior(tup, (0.8, 0.3), (1.0, 2.0, 2.0, 4.0), 2)
        expected = (0.8 ** (0.3 / 2.0)) * ((1 / 0.7) ** 0.8)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_scalar_interior_three_level_hand_value(self):
        # diag(lo, hi): norm hi, margin lo; layer 3 flips positive (a norm
        # factor), layers 4 and 2 negative (reciprocal-margin factors)
        spectra = [(0.4, 0.5), (0.5, 0.6), (0.6, 0.7), (0.7, 0.8), (0.8, 0.9),
                   (0.9, 0.95), (0.95, 0.99)]
        tup = OperatorTuple(tuple(diagonal(s) for s in spectra))
        got = reduction_scalar_interior(tup, (0.8, 0.3, 0.6), (1.0, 2.0, 3.0, 4.0, 5.0, 1.0), 3)
        inner = (0.95 ** (0.6 / 5.0) * (1 / 0.8) ** 0.3) ** (1 / 4.0)
        expected = (inner * 0.8 ** 0.3) ** (1 / 3.0) * (1 / 0.6) ** 0.8
        assert got == pytest.approx(expected, rel=1e-12)

    def test_left_side_that_fails_to_evaluate_gives_premise_error_rows(self):
        # the premise's left side A3^(r - t1) = 4^1999.5 overflows on every
        # row; the reduction's own words do not contain it
        tup, template = scalar_tuple([2.0, 3.0, 4.0]), ParamTemplate(t=(0.5,), r=2000.0)
        rep = check_reduction_chain(tup, template, PGrid(values=(1.0, 2.0)),
                                    policy=WeightPolicy.fixed([0.5, 0.5]))
        assert (rep.premise_failures, rep.premise_errors) == (0, 4)
        assert not rep.premise_pass and not rep.errors

    def test_one_run_per_chunk_and_the_base_decomposed_once_per_p1(self, monkeypatch):
        from oporder import dsl, spectral

        tup = gen_suite_tuple(5, 2, seed=[0, 0])
        template = ParamTemplate(t=(0.85, 0.1), r=0.7)
        calls = {"evaluate_batch": 0, "decompose_stack": []}
        evaluate_batch, decompose_stack = dsl.evaluate_batch, spectral.decompose_stack

        def counting_evaluate(*args, **kwargs):
            calls["evaluate_batch"] += 1
            return evaluate_batch(*args, **kwargs)

        def counting_decompose(arrs, errors=None):
            calls["decompose_stack"].append(len(arrs))
            return decompose_stack(arrs, errors)

        monkeypatch.setattr(dsl, "evaluate_batch", counting_evaluate)
        for module in (dsl, spectral):
            monkeypatch.setattr(module, "decompose_stack", counting_decompose)
        check_reduction_chain(tup, template, PGrid(values=(1.0, 1.5, 4.0)))
        # 81 rows in one run: its five powers decompose 3, 9, 27 and 81
        # distinct bases and the peeled bound's 3; the comparisons decompose
        # the identity, the left side, the 9 distinct peeled bounds and the
        # base sandwich's 3 distinct values, once for both its norm and its
        # lambda_max.  The 81 cores and the 81 right sides are powers whose
        # norm bounds stay below the identity's and the left side's norms,
        # so no comparison decomposes them
        assert calls["evaluate_batch"] == 1
        assert sorted(calls["decompose_stack"]) == [1, 1, 3, 3, 3, 9, 9, 27, 81]

    def test_subsampled_premise_is_judged_on_the_reduction_rows(self):
        # 101 ** 2 grid points exceed GRID_POINT_CAP, so the rows are a
        # subsample; the premise member is judged on those very rows
        tup = scalar_tuple([0.9, 0.5, 0.95])
        t1, r, w = 0.8, 1.2, 0.5
        grid = PGrid(values=tuple(np.geomspace(1.0, 8.0, 101).tolist()))
        rep = check_reduction_chain(tup, ParamTemplate(t=(t1,), r=r), grid,
                                    policy=WeightPolicy.fixed((w, w)), master_seed=3,
                                    instance_index=1)
        assert len(rep.rows) == verify.GRID_POINT_CAP
        assert rep.p_vectors == verify._p_samples(grid, 1, 3, 1, 2)[0]

        def premise_margins(p_vectors):
            # A3^(r-t1) - (A3^(r/2) (A2^(-t1/2) A1^p1 A2^(-t1/2))^p2 A3^(r/2))^w
            p = np.asarray(p_vectors)
            return 0.95 ** (r - t1) - (0.95 ** r * (0.9 ** p[:, 0] * 0.5 ** -t1) ** p[:, 1]) ** w

        margins = premise_margins(rep.p_vectors)
        assert not rep.premise_errors
        assert np.count_nonzero(margins < -1e-9) <= rep.premise_failures \
            <= np.count_nonzero(margins < 1e-9)
        # the premise's own stream of samples would count differently
        other = premise_margins(verify._p_samples(grid, 1, 3, 1, 1)[0])
        assert np.count_nonzero(other < 0) != rep.premise_failures

    def test_red_flag_on_tampered_tolerance(self):
        # force an impossible scalar bound by shrinking the interior
        tup = gen_suite_tuple(5, 2, seed=16)
        rep = check_reduction_chain(
            tup, ParamTemplate(t=(0.85, 0.1), r=0.7), PGrid(values=(1.0,)),
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


class TestImpliedCoreViolation:
    def test_blind_instance_caught_at_unit_t(self):
        # passes its own-t cores but fails them at t = 1
        tup = scalar_tuple([0.7, 0.5, 2.0])
        template = ParamTemplate(t=(0.3,), r=1.0)
        grid = PGrid(values=(1.0, 2.0, 4.0))
        hit, unevaluated = implied_core_violation(tup, template, grid)
        assert hit is not None and unevaluated == 0
        assert hit["t"] == [1.0]

    def test_ordered_tuple_clean(self):
        tup = gen_suite_tuple(3, 2, seed=19)
        template = ParamTemplate(t=(0.5,), r=1.0)
        assert implied_core_violation(tup, template, PGrid(values=(1.0, 2.0))) == (None, 0)


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


class TestCampaignReport:
    def make_report(self):
        tup = gen_suite_tuple(3, 2, seed=23)
        return check_hypotheses(
            tup, ParamTemplate(t=(0.5,), r=1.0), PGrid(values=(1.0, 2.0)),
            WeightPolicy.necessity(), instance_id="7",
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

    def test_mathematical_columns_deterministic(self):
        a, b = self.make_report(), self.make_report()
        strip = lambda text: [
            ",".join(line.split(",")[:-1]) for line in text.splitlines()
        ]
        assert strip(a.csv_text()) == strip(b.csv_text())

    def test_summary_uses_suite_slack(self):
        # -1e-8 * scale is INCOMPARABLE at the 1e-9 verdict tolerance but
        # within the 1e-7 suite slack that decides the CLI exit code
        row = CampaignRow(
            instance_id="0", k=3, dim=2, family="ascending", member=1,
            p_vector=(1.0, 1.0), w=0.5, relation=">=", margin=-2e-8,
            verdict="INCOMPARABLE", seconds=0.0, scale=2.0,
        )

        def report(**kwargs):
            columns = {"member": [0], "p_index": [0], "w": [0.5], "margin": [-2e-8],
                       "scale": [2.0], "verdict": [verify.VERDICTS.index("INCOMPARABLE")],
                       "seconds": [0.0]}
            return CampaignReport(
                (verify.CampaignMember("0", 3, 2, "ascending", 1, ">=", [(1.0, 1.0)]),),
                {name: np.asarray(col, dtype=verify.COLUMNS[name])
                 for name, col in columns.items()},
                {}, {}, 0, **kwargs)

        rep = report()
        assert rep.violations() == []
        assert rep.summary()["pass"] == 1 and rep.summary()["fail"] == 0
        strict = report(tol_rel=1e-9)
        assert strict.violations() == [row]
        assert strict.summary()["fail"] == 1

    def test_summary_counts(self):
        rep = self.make_report()
        summary = rep.summary()
        assert summary["rows"] == len(rep.rows)
        assert summary["pass"] + summary["fail"] == summary["rows"]
        assert summary["worst_margin"] <= max(r.margin for r in rep.rows)
