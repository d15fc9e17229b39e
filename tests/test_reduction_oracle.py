"""The reduction's stacked comparison against separate ones.

``check_reduction_chain`` judges each chunk's premise, core and peel rows
in one ``scaled_margins_stack`` call, and its scalar bound as a c*I
comparison read off that call's stacked q side.  The oracle here makes the
calls one after another: the premise member judged as a campaign judges it
(``judge_members``, its right side against its left), the core against I,
the peel as the peeled bound against the innermost sandwich, and the
scalar bound from the sandwich's own spectrum and a walk of the peeled
bound word per point.  Each row keeps its own errors: the core row the
core word's, the peel row the bound's, then the sandwich's, then its
comparison's, and the scalar row the sandwich's, then its spectrum's, then
"reduction margin is not finite".  The reduction's table (every column but
seconds, and every error text), its premise counts and its c_total must
equal the oracle's bit for bit, on tuples with near-singular matrices so
that ERROR rows occur.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oporder import chains, dsl, verify
from oporder.spectral import (
    HermitianMatrix,
    NonFiniteError,
    classify_stack,
    first_errors,
    flag_errors,
    margins_hold,
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
from test_reduction_hex_reference import reduction_instance
from util import judge_members, walk_c_totals


def _judged(ge, le, margin, scale, errors, tol_rel):
    """(margin, scale, verdict, error texts) of rows under the ERROR
    convention: a row with an error has a NaN margin, scale 1 and verdict
    ERROR."""
    verdict = classify_stack(ge, le, scale, tol_rel)
    texts = [None] * len(ge) if errors is None else \
        [None if e is None else str(e) for e in errors]
    bad = [i for i, text in enumerate(texts) if text is not None]
    margin, scale = margin.copy(), scale.copy()
    margin[bad], scale[bad], verdict[bad] = np.nan, 1.0, ERROR_CODE
    return margin, scale, verdict, texts


def oracle(instance: Instance, grid: PGrid, suite_tol_rel: float):
    """({column: (4, N) array}, error texts per row, c_total) of the
    reduction's table, from separate comparisons per chunk: the premise,
    core, peel and scalar rows, each check's in point order."""
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
    columns = {name: [[] for _ in range(4)] for name in ("margin", "scale", "verdict", "w")}
    texts = [[] for _ in range(4)]
    for lo, hi in verify._batches(len(p_vectors), tup.dim, early_exit=False):
        size = hi - lo
        rows = {f"p{j + 1}": p_table[lo:hi, j] for j in range(2 * n)}
        rows["w1"] = w[lo:hi]
        if bound_word is not None:
            rows.update(chains.peeled_bindings(template.t, p_table[lo:hi].T))
        rhs, lhs, core, base, *peeled = dsl.evaluate_batch(words, env, rows)
        # the premise as the reduction compares it: its right side against
        # its left, LE
        judged = judge_members(rhs, lhs, w[lo:hi], np.ones(size, np.intp), False,
                               suite_tol_rel, suite_tol_rel)
        got = [(judged.columns["margin"], judged.columns["scale"], judged.columns["verdict"],
                [judged.error_text(i) for i in range(size)])]

        # the core W against I, whose margin is lambda_min(I - W)
        le_core, ge_core, scale_core, errors = scaled_margins_stack(ident, core, core.row_errors)
        got.append(_judged(ge_core, le_core, le_core, scale_core, errors, suite_tol_rel))
        # the peeled bound (I for n = 1) against the sandwich
        bound = peeled[0] if peeled else ident
        ge_peel, le_peel, scale_peel, errors = scaled_margins_stack(
            bound, base, first_errors(bound.row_errors, base.row_errors))
        got.append(_judged(ge_peel, le_peel, ge_peel, scale_peel, errors, suite_tol_rel))
        # c*I against the sandwich's spectrum
        lam, errors = base.spectrum
        c = c_total[lo:hi]
        ge, le = c - lam[:, -1], lam[:, 0] - c
        scale = np.maximum(np.maximum(1.0, np.abs(c)), spectral_norms(lam))
        errors = flag_errors(first_errors(base.row_errors, errors),
                             ~(np.isfinite(ge) & np.isfinite(le) & np.isfinite(scale)),
                             lambda i: NonFiniteError("reduction margin"))
        got.append(_judged(ge, le, ge, scale, errors, suite_tol_rel))

        for check, (margin, scale, verdict, text) in enumerate(got):
            for name, col in zip(("margin", "scale", "verdict"), (margin, scale, verdict)):
                columns[name][check].append(col)
            columns["w"][check].append(judged.columns["w"] if check == 0
                                       else np.full(size, np.nan))
            texts[check] += text
    columns = {name: np.array([np.concatenate(col) for col in cols])
               for name, cols in columns.items()}
    return columns, [text for check in texts for text in check], c_total


def assert_table_is_the_oracle(report, instance, grid, suite_tol_rel):
    want, texts, c_total = oracle(instance, grid, suite_tol_rel)
    table = report.table
    size = len(c_total)
    assert [check.name for check in table.checks] == ["premise", "core", "peel", "scalar"]
    assert table.columns["check"].tolist() == np.repeat(np.arange(4), size).tolist()
    assert table.columns["point"].tolist() == np.tile(np.arange(size), 4).tolist()
    for name, col in want.items():
        assert table.columns[name].tobytes() == col.ravel().tobytes(), name
    assert [table.error_text(i) for i in range(len(table))] == texts
    assert report.c_total.tobytes() == c_total.tobytes()
    errors = want["verdict"][0] == ERROR_CODE
    failures = ~margins_hold(want["margin"][0], want["scale"][0], suite_tol_rel) & ~errors
    assert (report.premise_failures, report.premise_errors) == \
        (int(np.count_nonzero(failures)), int(np.count_nonzero(errors)))
    return want, texts


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
    def test_table_equals_separate_comparisons(self, case, small_chunks, suite_tol_rel):
        instance, grid = case
        with pytest.MonkeyPatch.context() as patch:
            if small_chunks:
                # 5 rows per chunk, so a run's chunks differ in their errors
                patch.setattr(verify, "BATCH_BYTES",
                              5 * verify._ROW_BYTES_PER_ENTRY * instance.tup.dim ** 2)
            report = check_reduction_chain(instance, grid, suite_tol_rel=suite_tol_rel)
            assert_table_is_the_oracle(report, instance, grid, suite_tol_rel)

    def test_draws_reach_error_rows(self):
        # a k = 5 tuple whose A2 sits at the pd gate: its power -t1/2 fails
        # on every row, so every reduction row is an ERROR row, as in the oracle
        rng = np.random.default_rng(0)
        mats = [HermitianMatrix(np.diag(rng.uniform(0.5, 1.0, 2))) for _ in range(5)]
        mats[1] = HermitianMatrix(np.diag([1e-13, 1.0]))
        instance = Instance(OperatorTuple.trusted(mats), ParamTemplate(t=(0.5, 0.1), r=0.9),
                            WeightPolicy.necessity())
        grid = PGrid(values=(1.0, 2.0))
        report = check_reduction_chain(instance, grid)
        _, texts = assert_table_is_the_oracle(report, instance, grid, verify.SUITE_TOL_REL)
        assert report.table.error_rows[16:].all() and all(texts[16:])

    def test_an_error_core_row_leaves_the_peel_and_scalar_rows_decided(self):
        # the hex reference's k = 6 instance: at p-index 727 the core's
        # power fails the pd gate, while the peeled bound and the sandwich,
        # which do not contain it, evaluate
        instance, grid = reduction_instance(6, 2, 0, (1.0, 1.5, 4.0))
        report = check_reduction_chain(instance, grid, master_seed=0)
        want, texts = assert_table_is_the_oracle(report, instance, grid, verify.SUITE_TOL_REL)
        size = len(report.c_total)
        assert want["verdict"][1, 727] == ERROR_CODE
        assert texts[size + 727].startswith("matrix is numerically singular")
        assert (want["verdict"][2:, 727] != ERROR_CODE).all()
        assert report.table.holds()[[2 * size + 727, 3 * size + 727]].all()
        assert report.table.error_text(2 * size + 727) is None
