"""The reduction's stacked comparison against three separate ones.

``check_reduction_chain`` judges each chunk's premise, core and peel rows
in one ``scaled_margins_stack`` call, and its scalar bound as a c*I
comparison read off that call's stacked q side.  The oracle here makes the three
calls one after another, as the reduction first did: the premise member
judged as a campaign judges it (``judge_members``), the core against I,
then the peel as the peeled bound against the innermost
sandwich with the errors so far, and the scalar bound from the sandwich's own spectrum and
a walk of the peeled bound word per row.  The reduction's table (margins,
scales, verdicts, error texts and c_total) and its premise counts must
equal the oracle's bit for bit, on tuples with near-singular matrices so
that ERROR rows occur.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oporder import chains, dsl, verify
from oporder.chains import Direction
from oporder.spectral import (
    HermitianMatrix,
    NonFiniteError,
    classify_stack,
    first_errors,
    flag_errors,
    scaled_margins_stack,
    spectral_norms,
)
from oporder.verify import (
    ERROR_CODE,
    Instance,
    OperatorTuple,
    ParamTemplate,
    PGrid,
    WeightPolicy,
    check_reduction_chain,
)
from util import judge_members, walk_c_totals


def oracle(instance: Instance, grid: PGrid, suite_tol_rel: float):
    """(premise failures, premise errors, {column: (N, 3) array}, error
    texts per point) of the reduction, from three comparisons per chunk."""
    tup, template, policy, index = instance
    k, n = tup.k, tup.k // 2
    premise = chains.hypothesis_set(k)[0]
    base_word, bound_word = chains.reduction_words(k)
    words = (premise.rhs, premise.lhs, chains.hypothesis_core(premise), base_word) \
        + ((bound_word,) if bound_word is not None else ())
    env = verify._environment(tup, template)
    ident = verify._identity_batch(tup.dim)
    plan = verify._p_samples(grid, n, 0, index, 2)
    p_vectors, p_table = plan.vectors, plan.table
    w = policy.weights(template.t, plan, template.r, count=k - 1)[:, 0]
    c_total = walk_c_totals(tup, template.t, p_vectors)
    failures = errors_count = 0
    columns = {name: [] for name in ("margin", "scale", "verdict", "c_total")}
    texts = []
    for lo, hi in verify._batches(len(p_vectors), tup.dim, early_exit=False):
        size = hi - lo
        rows = {f"p{j + 1}": p_table[lo:hi, j] for j in range(2 * n)}
        rows["w1"] = w[lo:hi]
        if bound_word is not None:
            rows.update(chains.peeled_bindings(template.t, p_table[lo:hi].T))
        rhs, lhs, core, base, *peeled = dsl.evaluate_batch(words, env, rows)
        judged = judge_members(lhs, rhs, w[lo:hi], np.ones(size, np.intp),
                               premise.direction is Direction.GE, verify.TOL_REL, suite_tol_rel)
        errors_count += int(np.count_nonzero(judged.error_rows))
        failures += int(np.count_nonzero(judged.failures()))

        # the core W against I, whose margin is lambda_min(I - W)
        le_core, ge_core, scale_core, errors = scaled_margins_stack(ident, core, core.row_errors)
        errors = first_errors(errors, base.row_errors)
        bound = ident
        if peeled:
            bound, errors = peeled[0], first_errors(errors, peeled[0].row_errors)
        ge_peel, le_peel, scale_peel, errors = scaled_margins_stack(bound, base, errors)
        lam = base.spectrum[0]
        c = c_total[lo:hi]
        ge = np.array((ge_core, ge_peel, c - lam[:, -1])).T
        le = np.array((le_core, le_peel, lam[:, 0] - c)).T
        margin = np.array((le_core, ge_peel, c - lam[:, -1])).T
        scale = np.array((scale_core, scale_peel,
                          np.maximum(np.maximum(1.0, np.abs(c)), spectral_norms(lam)))).T
        finite = np.isfinite(ge[:, 1:]).all(axis=1) & np.isfinite(scale[:, 2])
        errors = flag_errors(errors, ~finite, lambda i: NonFiniteError("reduction margin"))
        verdict = classify_stack(ge, le, scale, suite_tol_rel)
        cs = np.repeat(c[:, None], 3, axis=1)
        for i in range(size):
            error = None if errors is None else errors[i]
            texts.append(None if error is None else str(error))
            if error is not None:
                margin[i], scale[i], verdict[i], cs[i] = np.nan, 1.0, ERROR_CODE, np.nan
        for name, col in zip(columns, (margin, scale, verdict, cs)):
            columns[name].append(col)
    columns = {name: np.concatenate(cols) for name, cols in columns.items()}
    return failures, errors_count, columns, texts


@st.composite
def instances(draw):
    """A k = 3, 5 or 7 tuple of dim 1-3 whose matrices G*G + ridge I may be
    near-singular (ridge down to 1e-13, G of rank one at dim 2 and 3),
    its t values and r, a weight policy and a small grid."""
    k = draw(st.sampled_from((3, 5, 7)))
    dim = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    complex_field = draw(st.booleans())
    mats = []
    for _ in range(k):
        g = rng.standard_normal((dim, dim))
        if complex_field:
            g = g + 1j * rng.standard_normal((dim, dim))
        if draw(st.booleans()):
            g[1:] = 0.0  # rank one
        ridge = draw(st.sampled_from((1e-13, 1e-9, 1e-3, 0.1, 1.0)))
        scale = draw(st.sampled_from((1e-2, 0.5, 1.0, 3.0)))
        a = scale * (g.conj().T @ g + ridge * np.eye(dim))
        mats.append(HermitianMatrix(0.5 * (a + a.conj().T)))
    n = k // 2
    t = tuple(draw(st.floats(0.05, 0.95)) for _ in range(n))
    r = t[-1] + draw(st.floats(0.1, 2.0))
    if draw(st.booleans()):
        policy = WeightPolicy.necessity()
    else:
        policy = WeightPolicy.fixed(draw(st.floats(0.2, 0.95)) for _ in range(k - 1))
    values = (1.0, 1.5, 2.0, 4.0, 8.0)
    width = {3: 4, 5: 3, 7: 2}[k]
    grid = PGrid(values=tuple(sorted(draw(st.sets(st.sampled_from(values), min_size=1,
                                                  max_size=width)))))
    return Instance(OperatorTuple.trusted(mats), ParamTemplate(t=t, r=r), policy), grid


class TestStackedReduction:
    @settings(max_examples=120, deadline=None)
    @given(case=instances(), small_chunks=st.booleans(),
           suite_tol_rel=st.sampled_from((verify.SUITE_TOL_REL, 1e-3)))
    def test_table_equals_three_separate_comparisons(self, case, small_chunks, suite_tol_rel):
        instance, grid = case
        with pytest.MonkeyPatch.context() as patch:
            if small_chunks:
                # 5 rows per chunk, so a run's chunks differ in their errors
                patch.setattr(verify, "BATCH_BYTES",
                              5 * verify._ROW_BYTES_PER_ENTRY * instance.tup.dim ** 2)
            report = check_reduction_chain(instance, grid, suite_tol_rel=suite_tol_rel)
            failures, errors, want, texts = oracle(instance, grid, suite_tol_rel)
        assert (report.premise_failures, report.premise_errors) == (failures, errors)
        table = report.table
        for name, col in want.items():
            assert table.columns[name].tobytes() == col.ravel().tobytes(), name
        assert [table.error_text(i) for i in range(len(table))] == \
            [text for text in texts for _ in range(3)]

    def test_draws_reach_error_rows(self):
        # a k = 5 tuple whose A2 sits at the pd gate: its power -t1/2 fails
        # on every row, so every point is an ERROR row, as in the oracle
        rng = np.random.default_rng(0)
        mats = [HermitianMatrix(np.diag(rng.uniform(0.5, 1.0, 2))) for _ in range(5)]
        mats[1] = HermitianMatrix(np.diag([1e-13, 1.0]))
        instance = Instance(OperatorTuple.trusted(mats), ParamTemplate(t=(0.5, 0.1), r=0.9),
                            WeightPolicy.necessity())
        grid = PGrid(values=(1.0, 2.0))
        report = check_reduction_chain(instance, grid)
        failures, errors, want, texts = oracle(instance, grid, verify.SUITE_TOL_REL)
        assert report.table.error_rows.all() and all(texts)
        assert (report.premise_failures, report.premise_errors) == (failures, errors)
        assert [report.table.error_text(i) for i in range(0, len(report.table), 3)] == texts
