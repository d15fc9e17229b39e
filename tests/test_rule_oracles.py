"""Each numeric rule has one home: the pd gate in ``spectral._gate``, the
max(1, .) comparison floor behind it, ``scaled_margins_stack`` and
``spectral.scalar_margins``, and an exponent's float form in
``ScalarExpr.floats``.  Here each of them is checked bit for bit against
the forms they replaced (``util``), on eigenvalue rows with negative, zero,
tiny, huge, infinite and NaN entries and on rows already in error.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oporder import dsl
from oporder.spectral import NonFiniteError, _gate, margins_hold, power_stack, scalar_margins
from util import (
    error_rows,
    fraction_value,
    inline_gate,
    inline_gate_errors,
    limit_bound_holds,
    loewner_heinz_q_psd,
    random_scalar_expr,
    reduction_scalar_row,
)

_SPECIAL = (0.0, -0.0, 5e-324, 1e-300, 1e-12, 1e-10, 1.0, 2.0, 1e300, 1.7e308,
            np.inf, np.nan)
_VALUES = st.sampled_from(_SPECIAL + tuple(-v for v in _SPECIAL)) | st.floats(-1e6, 1e6)
_TOLS = st.sampled_from((1e-12, 1e-9, 1e-7, 1e-2))


@st.composite
def _eigenvalue_rows(draw, finite=False):
    """(N, d) rows in ascending order as eigh returns them: NaN entries sort
    last, and a row may be NaN throughout, as a failed solve leaves it."""
    rows, dim = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    values = st.floats(-1e6, 1e6) if finite else _VALUES
    lam = np.sort(np.array(draw(st.lists(values, min_size=rows * dim, max_size=rows * dim)),
                           dtype=np.float64).reshape(rows, dim), axis=1)
    if not finite:
        lam[draw(st.lists(st.booleans(), min_size=rows, max_size=rows))] = np.nan
    return lam


def _bits(*arrays):
    return [np.asarray(a, dtype=np.float64).tobytes() for a in arrays]


class TestGate:
    @settings(max_examples=150, deadline=None)
    @given(lam=_eigenvalue_rows())
    def test_gate_equals_the_inline_test(self, lam):
        # lambda_min > 0 makes |H| = lambda_max; lambda_min <= 0 fails both
        # forms; a NaN fails neither
        low, gate = _gate(lam)
        want_low, want_gate = inline_gate(lam)
        np.testing.assert_array_equal(low, want_low)
        assert _bits(gate) == _bits(want_gate)

    @settings(max_examples=100, deadline=None)
    @given(lam=_eigenvalue_rows(), data=st.data())
    def test_power_gate_errors_equal_the_inline_test(self, lam, data):
        rows, dim = lam.shape
        alpha = np.array(data.draw(st.lists(st.sampled_from((0.0, 1.0, 2.0, 3.0, 0.5, -1.0,
                                                             1.5, -0.5)),
                                            min_size=rows, max_size=rows)))
        earlier = data.draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
        errors = None
        if any(earlier):
            errors = np.array([dsl.EvaluationError(f"row {i}") if bad else None
                               for i, bad in enumerate(earlier)], dtype=object)
        u = np.broadcast_to(np.eye(dim), (rows, dim, dim))
        with np.errstate(all="ignore"):
            _, _, got = power_stack(lam, u, alpha, None if errors is None else errors.copy())
        want = error_rows(inline_gate_errors(lam, alpha, errors), rows)
        # a row the gate passes may still overflow to a NonFiniteError
        for got_row, want_row in zip(error_rows(got, rows), want):
            assert got_row == want_row or (want_row is None and got_row[0] is NonFiniteError)


class TestScalarMargins:
    @settings(max_examples=150, deadline=None)
    @given(lam=_eigenvalue_rows(), data=st.data())
    def test_the_reduction_scalar_row(self, lam, data):
        c = np.array(data.draw(st.lists(_VALUES, min_size=len(lam), max_size=len(lam))))
        with np.errstate(all="ignore"):
            assert _bits(*scalar_margins(c, lam)) == _bits(*reduction_scalar_row(c, lam))

    @settings(max_examples=150, deadline=None)
    @given(lam=_eigenvalue_rows(finite=True), tol=_TOLS)
    def test_the_loewner_heinz_precondition(self, lam, tol):
        # c = 0: the LE margin is lambda_min and the scale max(1, |Q|)
        for row in lam:
            _, margin, scale = scalar_margins(0.0, row)
            assert _bits(margin) == _bits(row[0])
            assert bool(margins_hold(margin, scale, tol)) == loewner_heinz_q_psd(row, tol)

    @settings(max_examples=150, deadline=None)
    @given(lam=_eigenvalue_rows(finite=True), inferred=st.floats(0.0, 1e6) | _VALUES,
           tol=_TOLS)
    def test_the_limit_bound(self, lam, inferred, tol):
        # the slack gains |inferred| (and |lambda_min|), which set the scale
        # only where the margin is positive on a positive core
        for row in np.sort(np.abs(lam), axis=1) + 1e-3:
            margin, _, scale = scalar_margins(inferred, row)
            with np.errstate(all="ignore"):
                assert _bits(margin) == _bits(inferred - row[-1])
                if not inferred < 0:
                    assert bool(margins_hold(margin, scale, tol)) == \
                        limit_bound_holds(inferred, float(row[-1]), tol)


class TestFloatForm:
    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), values=st.lists(_VALUES, min_size=10, max_size=10))
    def test_the_cached_form_is_the_fractions_as_floats(self, seed, values):
        expr = random_scalar_expr(np.random.default_rng(seed))
        assert expr.floats == (float(expr.const),
                               tuple((name, float(c)) for name, c in expr.terms))
        bindings = dict(zip(("r", "t1", "t2", "t3", "p1", "p2", "p3", "p4", "w1", "w2"),
                            values))
        with np.errstate(all="ignore"):
            assert _bits(expr.evaluate(bindings)) == _bits(fraction_value(expr, bindings))
