"""Each numeric rule has one home: the pd gate in ``spectral._gate``, the
max(1, .) comparison floor behind it, ``scaled_margins_stack`` and
``spectral.scalar_margins``, and an exponent's float form in
``ScalarExpr.floats``.  Here each of them is checked bit for bit against
the forms they replaced (``util``), on eigenvalue rows with negative, zero,
tiny, huge, infinite and NaN entries and on rows already in error.

The guards of an evaluation run and a decomposition compute only what
their thresholds need on a healthy stack: the Hermiticity scale, the
per-row orthogonality and reconstruction residuals and the reconstruction
scale only when some residual entry passes the tolerance itself.  On
stacks at each threshold and at its float neighbours they flag the rows,
with the texts, of the oracles that take every residual (``util``).
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oporder import dsl, spectral
from oporder.spectral import (
    EPS_PD_REL,
    NonFiniteError,
    _gate,
    decompose_stack,
    eigensystem_stack,
    margins_hold,
    power_stack,
    scalar_margins,
    spectral_norms,
)
from util import (
    eigensystem_errors,
    eigensystem_residuals,
    error_rows,
    fraction_value,
    hermiticity_errors,
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


def _around(value: float) -> list[float]:
    """A threshold and its two float neighbours."""
    return [float(np.nextafter(value, -np.inf)), float(value), float(np.nextafter(value, np.inf))]


def _stack(seed: int, dim: int, count: int, complex_field: bool, magnitude: float):
    """count random Hermitian (dim, dim) rows, row i scaled by magnitude**i,
    so that a stack holds rows of norm below and above 1."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((count, dim, dim))
    if complex_field:
        g = g + 1j * rng.standard_normal((count, dim, dim))
    arrs = g + g.conj().swapaxes(-1, -2)
    return arrs * magnitude ** np.arange(count)[:, None, None]


_STACKS = dict(seed=st.integers(0, 2 ** 32 - 1), dim=st.integers(1, 4), count=st.integers(1, 5),
               complex_field=st.booleans(), magnitude=st.sampled_from((1e-2, 1.0, 1e3)))


class TestGuardBoundaries:
    @settings(max_examples=60, deadline=None)
    @given(**_STACKS, skew=st.sampled_from((1e-12, 1e-9, 1e-6)), data=st.data())
    def test_hermiticity_residual(self, seed, dim, count, complex_field, magnitude, skew,
                                  data):
        # non-Hermitian rows: residuals around skew times their norm, at
        # scales below and above 1; the tolerance is put at one row's
        # residual over its scale and at its residual itself (where the
        # scale is not taken), and at their float neighbours
        arrs = _stack(seed, dim, count, complex_field, magnitude)
        arrs = arrs + skew * magnitude ** np.arange(count)[:, None, None] * np.triu(
            np.random.default_rng(seed + 1).standard_normal((count, dim, dim)), 1)
        resid = np.linalg.norm(arrs - arrs.conj().swapaxes(-1, -2), axis=(-2, -1))
        scale = np.maximum(1.0, np.linalg.norm(arrs, axis=(-2, -1)))
        row = data.draw(st.integers(0, count - 1))
        for rtol in _around(resid[row] / scale[row]) + _around(resid[row]):
            with pytest.MonkeyPatch.context() as patch, np.errstate(all="ignore"):
                patch.setattr(dsl, "HERMITIZE_RTOL", rtol)
                sym, got = dsl._hermitize(arrs, None, "power base")
            want = hermiticity_errors(arrs, rtol, "power base")
            assert error_rows(got, count) == error_rows(want, count)
            assert sym.tobytes() == (0.5 * (arrs + arrs.conj().swapaxes(-1, -2))).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(**_STACKS, data=st.data())
    def test_orthogonality_and_reconstruction_residuals(self, seed, dim, count, complex_field,
                                                        magnitude, data):
        # each tolerance at one row's residual (over its scale, and alone,
        # for the reconstruction) and at its float neighbours, the other at
        # its value or at that row's residual
        arrs = _stack(seed, dim, count, complex_field, magnitude)
        _, ortho, recon, scale = eigensystem_residuals(arrs)
        row = data.draw(st.integers(0, count - 1))
        ortho_tols = _around(ortho[row]) + [spectral.ORTHO_TOL]
        recon_tols = _around(recon[row] / scale[row]) + _around(recon[row]) + [spectral.RECON_RTOL]
        for ortho_tol, recon_tol in [(t, spectral.RECON_RTOL) for t in ortho_tols] + \
                [(spectral.ORTHO_TOL, t) for t in recon_tols] + [(ortho[row], recon[row])]:
            with pytest.MonkeyPatch.context() as patch, np.errstate(all="ignore"):
                patch.setattr(spectral, "ORTHO_TOL", ortho_tol)
                patch.setattr(spectral, "RECON_RTOL", recon_tol)
                got = eigensystem_stack(arrs)[2]
                want = eigensystem_errors(arrs)
            assert error_rows(got, count) == error_rows(want, count)

    def test_non_finite_eigenvalues_of_the_fallback(self):
        # [[a, a], [a, a]] has the eigenvalue 2a: finite up to a = max/2 and
        # inf beyond, where np.linalg's solve takes over from the direct one
        top = np.finfo(np.float64).max / 2
        arrs = np.array([[[a, a], [a, a]] for a in _around(top)] + [np.diag([1.0, 2.0])])
        with np.errstate(all="ignore"):
            lam, u, errors = decompose_stack(arrs)
            want = eigensystem_errors(arrs)
        assert error_rows(errors, 4) == error_rows(want, 4)
        assert error_rows(errors, 4)[1:] == [None, (NonFiniteError, "eigenvalue is not finite"),
                                             None]
        assert lam[2].tolist() == [1.0, 1.0] and np.array_equal(u[2], np.eye(2))

    @settings(max_examples=60, deadline=None)
    @given(top=st.sampled_from((0.5, 1.0, 2.0, 1e6)), dim=st.integers(1, 4),
           alpha=st.sampled_from((0.5, -1.0, 2.0, 1.5)), handed=st.booleans())
    def test_pd_gate(self, top, dim, alpha, handed):
        # lambda_min at the gate EPS_PD_REL * max(1, |H|) and its float
        # neighbours, under every exponent kind; the norms handed over as a
        # power node hands them, or taken by power_stack
        if dim == 1:  # |H| is lambda_min itself, far below 1
            lam = np.array([[v] for v in _around(EPS_PD_REL) + [0.0, -1e-3]])
        else:
            lam = np.array([[v] + [top] * (dim - 1)
                            for v in _around(EPS_PD_REL * max(1.0, top)) + [0.0, -1e-3]])
        u = np.broadcast_to(np.eye(dim), (len(lam), dim, dim))
        alphas = np.full(len(lam), alpha)
        norms = spectral_norms(lam) if handed else None
        with np.errstate(all="ignore"):
            _, _, got = power_stack(lam, u, alphas, None, None, norms)
        want = inline_gate_errors(lam, alphas, None)
        assert error_rows(got, len(lam)) == error_rows(want, len(lam))
