import math
import pickle
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.linalg import _umath_linalg

from oporder.spectral import (
    RECON_RTOL,
    DimensionMismatchError,
    EigenSolverError,
    HermitianMatrix,
    NearSingularError,
    NonFiniteError,
    NotHermitianError,
    Relation,
    WordBatch,
    congruence,
    decompose_stack,
    diagonal,
    directional_margins,
    eigensystem_stack,
    identity,
    loewner_compare,
    margins_hold,
    margins_stack,
    matrix_from_json,
    matrix_power,
    matrix_to_json,
    no_errors,
    operator_norm,
    positivity_margin,
    power_stack,
    scaled_margins_stack,
    spectral_decompose,
)
from oporder import spectral
from oporder.spectral import _frobenius
from oporder.verify import _identity_batch, _random_spds
from util import (
    error_rows,
    full_spectrum_margins,
    ordered_pair_arrays,
    power_iteration_norm,
    random_spd_array,
)


def spd(seed, dim, ridge=0.1):
    return HermitianMatrix(random_spd_array(np.random.default_rng(seed), dim, ridge))


class TestConstruction:
    def test_rejects_non_square(self):
        with pytest.raises(NotHermitianError):
            HermitianMatrix(np.ones((2, 3)))

    def test_rejects_non_symmetric(self):
        with pytest.raises(NotHermitianError):
            HermitianMatrix(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_hermitian_complex(self):
        with pytest.raises(NotHermitianError):
            HermitianMatrix(np.array([[1.0, 1j], [1j, 1.0]]))

    def test_rejects_non_hermitian_with_huge_entries_unwarned(self):
        # squares of such entries overflow; the norms are taken on the matrix
        # scaled by an exact power of two
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NotHermitianError, match=r"residual 1\.414e\+200 exceeds "
                                                        r"1e-12 \* 1\.732e\+200"):
                HermitianMatrix(np.array([[1e200, 1e200], [0.0, 1e200]]))
            with pytest.raises(NotHermitianError, match="residual inf"):
                HermitianMatrix(np.array([[1.0, 1.5e308 + 1.5e308j],
                                          [1.5e308 + 1.5e308j, 1.0]]))
            HermitianMatrix(np.array([[1e300, 2e300], [2e300, 1e300]]))
            HermitianMatrix(np.array([[1e300, 1.5e308 + 1.5e308j],
                                      [1.5e308 - 1.5e308j, 1e300]]))

    def test_accepts_complex_hermitian(self):
        h = HermitianMatrix(np.array([[2.0, 1j], [-1j, 3.0]]))
        assert h.scalar_field == "complex"
        assert h.dim == 2

    def test_entries_read_only(self):
        h = identity(2)
        with pytest.raises(ValueError):
            h.entries[0, 0] = 5.0

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(NonFiniteError):
            HermitianMatrix(np.array([[bad, 0.0], [0.0, 1.0]]))
        with pytest.raises(NonFiniteError):
            matrix_from_json({"dim": 2, "field": "complex",
                              "entries": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [bad, 0.0]]})


class TestDecomposition:
    def test_identity(self):
        dec = spectral_decompose(identity(3))
        assert np.allclose(dec.eigenvalues, [1.0, 1.0, 1.0])

    def test_diagonal(self):
        dec = spectral_decompose(diagonal([4.0, 9.0]))
        assert np.allclose(dec.eigenvalues, [4.0, 9.0])
        assert np.allclose(np.abs(dec.eigenvectors), np.eye(2))

    def test_reconstruction_residual(self):
        h = spd(7, 4)
        dec = spectral_decompose(h)
        scale = max(1.0, operator_norm(h))
        assert np.abs(dec.reconstruct() - h.entries).max() <= RECON_RTOL * scale

    def test_ascending_eigenvalues(self):
        lam = spectral_decompose(spd(3, 5)).eigenvalues
        assert list(lam) == sorted(lam)

    def test_complex_reconstruction(self):
        rng = np.random.default_rng(5)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h = HermitianMatrix(g.conj().T @ g + 0.1 * np.eye(3))
        dec = spectral_decompose(h)
        assert np.abs(dec.reconstruct() - h.entries).max() <= 1e-10 * operator_norm(h)


class TestMatrixPower:
    def test_identity_sqrt(self):
        assert np.allclose(matrix_power(identity(2), 0.5).entries, np.eye(2))

    def test_diagonal_sqrt(self):
        out = matrix_power(diagonal([4.0, 9.0]), 0.5)
        assert np.allclose(out.entries, np.diag([2.0, 3.0]))

    def test_cube_root_round_trip(self):
        h = spd(11, 5)
        back = matrix_power(matrix_power(h, 1.0 / 3.0), 3.0)
        assert np.abs(back.entries - h.entries).max() <= 1e-8 * operator_norm(h)

    def test_power_one_is_input(self):
        h = spd(2, 4)
        assert np.abs(matrix_power(h, 1.0).entries - h.entries).max() <= 1e-10 * operator_norm(h)

    def test_power_zero_is_identity(self):
        h = spd(2, 4)
        assert np.allclose(matrix_power(h, 0.0).entries, np.eye(4))

    def test_integer_power_of_indefinite_allowed(self):
        h = diagonal([-2.0, 1.0])
        assert np.allclose(matrix_power(h, 2).entries, np.diag([4.0, 1.0]))
        assert np.allclose(matrix_power(h, 0).entries, np.eye(2))

    def test_near_singular_fractional_rejected(self):
        h = diagonal([1e-15, 1.0])
        with pytest.raises(NearSingularError) as err:
            matrix_power(h, 0.5)
        assert err.value.lam_min <= err.value.gate

    def test_near_singular_negative_rejected(self):
        with pytest.raises(NearSingularError):
            matrix_power(diagonal([0.0, 1.0]), -1.0)
        with pytest.raises(NearSingularError):
            matrix_power(diagonal([-1.0, 1.0]), 0.5)

    def test_gate_scales_with_norm(self):
        # lambda_min must clear EPS_PD_REL * max(1, norm)
        h = diagonal([1e-8, 1e4])
        with pytest.raises(NearSingularError):
            matrix_power(h, 0.5)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), dim=st.integers(2, 6),
           a=st.floats(-1.0, 2.0), b=st.floats(-1.0, 2.0))
    def test_power_addition_law(self, seed, dim, a, b):
        h = spd(seed, dim)
        combined = matrix_power(h, a + b).entries
        split = matrix_power(h, a).entries @ matrix_power(h, b).entries
        scale = max(1.0, np.abs(combined).max())
        assert np.abs(combined - split).max() <= 1e-8 * scale

    def test_complex_power_round_trip(self):
        rng = np.random.default_rng(9)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h = HermitianMatrix(g.conj().T @ g + 0.2 * np.eye(3))
        back = matrix_power(matrix_power(h, 0.5), 2.0)
        assert np.abs(back.entries - h.entries).max() <= 1e-8 * operator_norm(h)


class TestLoewnerCompare:
    def test_equal(self):
        v = loewner_compare(identity(3), identity(3))
        assert v.relation is Relation.EQ
        assert v.margin == pytest.approx(0.0, abs=1e-15)

    def test_scaled_identity(self):
        v = loewner_compare(diagonal([2.0, 2.0]), identity(2))
        assert v.relation is Relation.GE
        assert v.margin == pytest.approx(1.0)

    def test_boundary_pair_and_squares(self):
        # P - Q has eigenvalues {0, 1}; squaring breaks the order, the
        # difference of squares having eigenvalues (3 +- sqrt(13)) / 2.
        p = HermitianMatrix(np.array([[2.0, 1.0], [1.0, 1.0]]))
        q = HermitianMatrix(np.ones((2, 2)))
        v = loewner_compare(p, q)
        assert v.relation is Relation.GE
        assert v.margin == pytest.approx(0.0, abs=1e-12)
        v2 = loewner_compare(matrix_power(p, 2), matrix_power(q, 2))
        assert v2.relation is Relation.INCOMPARABLE
        assert v2.margin == pytest.approx((3.0 - math.sqrt(13.0)) / 2.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            loewner_compare(identity(2), identity(3))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), dim=st.integers(2, 5))
    def test_swap_symmetry(self, seed, dim):
        rng = np.random.default_rng(seed)
        p = HermitianMatrix(random_spd_array(rng, dim))
        q = HermitianMatrix(random_spd_array(rng, dim))
        fwd = loewner_compare(p, q)
        rev = loewner_compare(q, p)
        assert (fwd.relation is Relation.GE) == (rev.relation is Relation.LE)
        assert (fwd.relation is Relation.EQ) == (rev.relation is Relation.EQ)
        if fwd.relation in (Relation.GE, Relation.LE):
            assert fwd.margin == pytest.approx(rev.margin, abs=1e-13)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), dim=st.integers(2, 5))
    def test_eq_forces_small_difference(self, seed, dim):
        rng = np.random.default_rng(seed)
        base = random_spd_array(rng, dim)
        p = HermitianMatrix(base)
        q = HermitianMatrix(base + 1e-13 * np.eye(dim))
        v = loewner_compare(p, q)
        if v.relation is Relation.EQ:
            norm = np.abs(np.linalg.eigvalsh(p.entries - q.entries)).max()
            assert norm <= 2 * v.tol * dim

    def test_directional_margins_match(self):
        p, q = spd(1, 3), spd(2, 3)
        ge_m, le_m = directional_margins(p, q)
        assert ge_m == pytest.approx(float(np.linalg.eigvalsh(p.entries - q.entries)[0]))
        assert le_m == pytest.approx(float(np.linalg.eigvalsh(q.entries - p.entries)[0]))

    def test_scaled_margins_scale_and_verdict(self):
        p, q = diagonal([3.0, 1.0]), diagonal([2.0, 0.5])
        ge, le, scale, errors = scaled_margins_stack(
            *(WordBatch.known(h.entries[None], h.decomposition().eigenvalues[None])
              for h in (p, q)))
        assert (ge.tolist(), le.tolist(), scale.tolist(), errors) == ([0.5], [-1.0], [3.0], None)
        v = loewner_compare(p, q)
        assert v.relation is Relation.GE and v.margin == 0.5 and v.tol == 1e-9 * 3.0

    def test_margins_hold_boundary_and_nan(self):
        margins = np.array([-2e-7, -2.1e-7, np.nan, -np.inf])
        held = margins_hold(margins, np.array([2.0, 2.0, 1.0, 1.0]), 1e-7)
        assert held.tolist() == [True, False, False, False]


class TestStackedGuards:
    def test_non_finite_input_is_an_error_not_a_margin(self):
        # LAPACK returns finite eigenvalues for some NaN input; the
        # constructor rejects such entries, so bypass it to reach the guards
        for bad in (math.inf, math.nan):
            p = HermitianMatrix.trusted(np.array([[bad, 0.0], [0.0, 1.0]]))
            with pytest.raises(NonFiniteError):
                directional_margins(p, identity(2))
            with pytest.raises(NonFiniteError):
                spectral_decompose(p)

    def test_infinite_eigenvalue_is_an_error_not_a_verdict(self):
        # P's eigenvalue 2a overflows: its reconstruction tolerance would be
        # inf and its residual NaN, so a violated order passed as EQ
        a = 1e308
        p = HermitianMatrix(np.array([[a, a], [a, a]]))
        q = HermitianMatrix(np.array([[a, a], [a, 0.9 * a]]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="^eigenvalue is not finite$"):
                loewner_compare(q, p)
            with pytest.raises(NonFiniteError, match="^eigenvalue is not finite$"):
                p.decomposition()
            lam, u, errors = decompose_stack(np.stack([p.entries, np.diag([1.0, 2.0])]))
        assert error_rows(errors, 2) == [(NonFiniteError, "eigenvalue is not finite"), None]
        assert lam[1].tolist() == [1.0, 2.0] and np.array_equal(u[1], np.eye(2))

    def test_overflowing_power_raises(self):
        with np.errstate(over="ignore"):
            big = diagonal([1e200, 1.0])
        with pytest.raises(NonFiniteError):
            matrix_power(big, 2.0)

    def test_lapack_failure_is_confined_to_its_row(self, monkeypatch):
        fail_lapack_on_sevens(monkeypatch, "eigvalsh_lo")
        p = np.stack([2.0 * np.eye(2), np.diag([7.0, 1.0]), 3.0 * np.eye(2)])
        with np.errstate(all="ignore"):
            ge, le, errors = margins_stack(p, np.zeros((1, 2, 2)), None)
        assert isinstance(errors[1], EigenSolverError)
        assert errors[0] is None and errors[2] is None
        assert (ge[0], le[0], ge[2], le[2]) == (2.0, -2.0, 3.0, -3.0)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**9), dim=st.integers(1, 4), count=st.integers(1, 5),
           complex_field=st.booleans(), magnitude=st.sampled_from([1.0, 1e-200, 1e150, 1e300]))
    def test_frobenius_has_the_bits_of_linalg_norm(self, seed, dim, count, complex_field,
                                                   magnitude):
        rng = np.random.default_rng(seed)
        arrs = rng.standard_normal((count, dim, dim)) * magnitude
        if complex_field:
            arrs = arrs + 1j * rng.standard_normal((count, dim, dim)) * magnitude
        for stack in (arrs, arrs.swapaxes(-1, -2)):
            with np.errstate(over="ignore", under="ignore"):
                want = np.linalg.norm(stack, axis=(-2, -1))
                got = _frobenius(stack)
            assert got.tobytes() == want.tobytes()

    def test_gate_is_per_row(self):
        dec = diagonal([1e-13, 1.0]).decomposition()
        out, mu, errors = power_stack(dec.eigenvalues[None], dec.eigenvectors[None],
                                      np.array([2.0, 0.5, 1.0]), None)
        assert errors[0] is None and errors[2] is None
        assert isinstance(errors[1], NearSingularError)
        assert np.allclose(out[0], np.diag([1e-26, 1.0]))
        assert mu[[0, 2]].tolist() == [[1e-13 * 1e-13, 1.0], [1e-13, 1.0]]


def fail_lapack_on_sevens(monkeypatch, gufunc: str) -> None:
    """Make LAPACK's gufunc ``gufunc`` fail on each matrix whose top-left
    entry is 7 as a solve that does not converge fails: NaN eigenvalues
    and numpy's invalid flag, which np.linalg turns into LinAlgError."""
    real = getattr(_umath_linalg, gufunc)

    def failing(arrs, **kwargs):
        out = real(arrs, **kwargs)
        bad = np.asarray(arrs)[..., 0, 0] == 7.0
        if np.any(bad):
            (out[0] if isinstance(out, tuple) else out)[bad] = np.nan
            np.sqrt(np.array(-1.0))  # raises the invalid flag
        return out

    monkeypatch.setattr(_umath_linalg, gufunc, failing)


def random_hermitian_stack(seed, dim, count, complex_field):
    rng = np.random.default_rng(seed)
    arrs = rng.standard_normal((count, dim, dim))
    if complex_field:
        arrs = arrs + 1j * rng.standard_normal((count, dim, dim))
    return arrs + _strided_adjoint(arrs)


class TestErrorTexts:
    """The row errors keep their fields as their arguments and format the
    same message when it is read."""

    @pytest.mark.parametrize("error, args, text", [
        (NearSingularError(3.271772e-20, 1e-10), (3.271772e-20, 1e-10),
         "matrix is numerically singular for the requested power: "
         "lambda_min=3.271772e-20 <= gate=1.000000e-10"),
        (EigenSolverError(3, 1.5e17), (3, 1.5e17),
         "eigensolver failed to converge (dim=3, cond~1.500e+17)"),
        (NonFiniteError("matrix power"), ("matrix power",), "matrix power is not finite"),
    ])
    def test_text_is_formatted_when_read(self, error, args, text):
        assert error.args == args
        assert str(error) == text
        again = pickle.loads(pickle.dumps(error))
        assert (type(again), str(again), vars(again)) == (type(error), text, vars(error))
        with pytest.raises(type(error), match=f"^{re.escape(text)}$"):
            raise error


class TestDirectEigensolvers:
    """The stacked primitives call LAPACK's gufuncs without np.linalg's
    wrapper, with its bits, and fall back to it where a solve fails."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10**9), dim=st.integers(1, 4), count=st.integers(1, 300),
           complex_field=st.booleans())
    def test_same_bits_as_linalg(self, seed, dim, count, complex_field):
        arrs = random_hermitian_stack(seed, dim, count, complex_field)
        (lam, u), finite = spectral._eigh(arrs)
        want_lam, want_u = np.linalg.eigh(arrs)
        assert (lam.dtype, u.dtype) == (want_lam.dtype, want_u.dtype)
        assert lam.tobytes() == want_lam.tobytes() and u.tobytes() == want_u.tobytes()
        evs, evs_finite = spectral._eigvalsh(arrs)
        # the direct solve served both, and tested their eigenvalues
        assert finite is evs_finite is True
        assert evs.dtype == want_lam.dtype
        assert evs.tobytes() == np.linalg.eigvalsh(arrs).tobytes()

    @pytest.mark.parametrize("warnings_as_errors", [False, True])
    def test_unsolvable_row_is_the_same_eigensolver_error(self, monkeypatch, warnings_as_errors):
        # a failed solve goes back through np.linalg, whose LinAlgError
        # makes the failing row an EigenSolverError row; outside an errstate
        # that ignores the invalid flag, a RuntimeWarning raised as an error
        # takes the same way, and no warning escapes
        arrs = random_hermitian_stack(5, 3, 6, False)
        arrs[2, 0, 0] = 7.0
        clean = decompose_stack(arrs)
        fail_lapack_on_sevens(monkeypatch, "eigh_lo")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if warnings_as_errors:
                lam, u, errors = decompose_stack(arrs)
            else:
                with np.errstate(all="ignore"):
                    lam, u, errors = decompose_stack(arrs)
        want = EigenSolverError(3, spectral._cond_estimate(arrs[2]))
        assert error_rows(errors, 6) == [None, None, (EigenSolverError, str(want)),
                                         None, None, None]
        healthy = np.arange(6) != 2
        assert lam[healthy].tobytes() == clean[0][healthy].tobytes()
        assert u[healthy].tobytes() == clean[1][healthy].tobytes()
        assert lam[2].tolist() == [1.0, 1.0, 1.0]


def _strided_adjoint(arrs):
    """The adjoint as numpy's strided view; the stacked primitives
    multiply by a contiguous copy of it."""
    return arrs.conj().swapaxes(-1, -2)


class TestContiguousAdjoint:
    """The checks of ``decompose_stack`` and the products of ``power_stack``
    multiply by a contiguous copy of the adjoint; a reference that
    multiplies by the strided view gives the same bits."""

    @staticmethod
    def stack(seed, dim, count, complex_field, magnitude):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((count, dim, dim))
        if complex_field:
            g = g + 1j * rng.standard_normal((count, dim, dim))
        a = _strided_adjoint(g) @ g + 0.1 * np.eye(dim)
        return 0.5 * (a + _strided_adjoint(a)) * magnitude

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10**9), dim=st.integers(1, 6), count=st.integers(1, 64),
           complex_field=st.booleans(), magnitude=st.sampled_from([1.0, 1e-3, 1e3, 1e-100]))
    def test_decompose_stack_checks(self, seed, dim, count, complex_field, magnitude):
        arrs = self.stack(seed, dim, count, complex_field, magnitude)
        lam, u = np.linalg.eigh(arrs)
        uh = _strided_adjoint(u)
        ortho = np.abs(uh @ u - np.eye(dim)).max(axis=(-2, -1))
        recon = np.abs((u * lam[:, None, :]) @ uh - arrs).max(axis=(-2, -1))
        recon_scale = np.maximum(1.0, np.abs(lam).max(axis=-1))
        # the check products show only in the rows they flag: with each
        # tolerance at the reference's median residual, a product one ulp
        # off would move a row across it
        ortho_tol = float(np.median(ortho))
        recon_rtol = float(np.median(recon / recon_scale))
        want = (ortho > ortho_tol) | (recon > recon_rtol * recon_scale)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spectral, "ORTHO_TOL", ortho_tol)
            patch.setattr(spectral, "RECON_RTOL", recon_rtol)
            got_lam, got_u, errors = decompose_stack(arrs)
        assert got_lam.tobytes() == lam.tobytes()
        assert got_u.tobytes() == u.tobytes()
        flagged = np.zeros(count, dtype=bool) if errors is None else ~spectral.healthy(errors)
        assert flagged.tolist() == want.tolist()

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10**9), dim=st.integers(1, 6), count=st.integers(1, 64),
           complex_field=st.booleans(), magnitude=st.sampled_from([1.0, 1e-3, 1e3, 1e-100]),
           alpha=st.one_of(st.sampled_from([2.0, 0.5, -1.0, 1.0, 3.0]),
                           st.floats(-2.0, 4.0), st.just("per-row")))
    # every row is a pd-gate rejection, and two entries of the last one
    # underflow to a zero whose sign the two products disagree on
    @example(seed=0, dim=3, count=11, complex_field=False, magnitude=1e-100, alpha=3.25)
    def test_power_stack_products(self, seed, dim, count, complex_field, magnitude, alpha):
        lam, u, _ = decompose_stack(self.stack(seed, dim, count, complex_field, magnitude))
        if alpha == "per-row":
            alpha = np.random.default_rng(seed).choice([2.0, 0.5, -1.0, 0.3, -0.7, 1.5], count)
        out, mu, _ = power_stack(lam, u, alpha, None)
        want = (u * mu[:, None, :]) @ _strided_adjoint(u)
        want = 0.5 * (want + _strided_adjoint(want))
        # adding 0.0 maps -0.0 to +0.0 and leaves every other bit alone
        assert (out + 0.0).tobytes() == (want + 0.0).tobytes()


class TestHandedAdjoint:
    """A power node hands ``power_stack`` the contiguous U* and the
    max|lambda| per row that its decomposition took
    (``eigensystem_stack``): the powers, their eigenvalues and their row
    errors are those of the plain call, bit for bit, on rows at the pd
    gate, overflowing or non-finite too, and for one row raised to N
    exponents."""

    @staticmethod
    def stack(seed, dim, count, complex_field, magnitude, low):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((count, dim, dim))
        if complex_field:
            g = g + 1j * rng.standard_normal((count, dim, dim))
        q, _ = np.linalg.qr(g)
        lam = rng.uniform(0.5, 4.0, (count, dim)) * magnitude
        # some rows' smallest eigenvalue at or below the gate, or the largest
        # in magnitude
        gated = rng.random(count) < 0.5
        lam[gated, 0] = low
        arrs = (q * lam[:, None, :]) @ _strided_adjoint(q)
        arrs = 0.5 * (arrs + _strided_adjoint(arrs))
        if count > 1 and rng.random() < 0.3:
            arrs[-1, 0, 0] = np.inf  # a row that fails its decomposition
        return arrs

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 10**9), dim=st.integers(1, 4), count=st.integers(1, 12),
           complex_field=st.booleans(), magnitude=st.sampled_from([1.0, 1e-3, 1e3, 1e200]),
           low=st.sampled_from([1e-13, 0.0, -0.0, -1e-3, -10.0, 1e-300, 1.0]),
           alpha=st.one_of(st.sampled_from([2.0, 0.5, -1.0, 1.0, 3.0, 0.0]),
                           st.floats(-2.0, 4.0), st.just("per-row")),
           one_row=st.booleans())
    # one row at the gate raised to three fractional exponents: its gate
    # is one number, read for each of the three rows' error texts
    @example(seed=0, dim=2, count=1, complex_field=False, magnitude=1.0, low=1e-13,
             alpha="per-row", one_row=True)
    # rows whose most negative eigenvalue is their largest in magnitude
    @example(seed=1, dim=3, count=6, complex_field=True, magnitude=1.0, low=-10.0,
             alpha=0.5, one_row=False)
    def test_power_stack_with_the_decompositions_adjoint_and_norms(
            self, seed, dim, count, complex_field, magnitude, low, alpha, one_row):
        arrs = self.stack(seed, dim, count, complex_field, magnitude, low)
        lam, u, errors, uh, norms = eigensystem_stack(arrs)
        plain_lam, plain_u, plain_errors = decompose_stack(arrs)
        assert (lam.tobytes(), u.tobytes()) == (plain_lam.tobytes(), plain_u.tobytes())
        assert error_rows(errors, count) == error_rows(plain_errors, count)
        assert uh.tobytes() == np.ascontiguousarray(_strided_adjoint(u)).tobytes()
        assert norms.tobytes() == spectral.spectral_norms(lam).tobytes()
        rows = count
        if one_row:
            lam, u, uh, norms = lam[:1], u[:1], uh[:1], norms[:1]
            errors = None if errors is None else errors[:1]
            rows = 3
        if alpha == "per-row":
            alpha = np.random.default_rng(seed).choice([2.0, 0.5, -1.0, 0.3, -0.7, 1.5], rows)
            if one_row:
                alpha[:] = (0.5, -0.7, 0.3)
        with np.errstate(all="ignore"):
            want = power_stack(lam, u, alpha, errors)
            got = power_stack(lam, u, alpha, errors, uh, norms)
        rows = len(want[0])
        assert got[0].tobytes() == want[0].tobytes()
        assert got[1].tobytes() == want[1].tobytes()
        assert error_rows(got[2], rows) == error_rows(want[2], rows)


class TestKnownSides:
    """Batches whose spectrum is known (the generator screen's sides and
    the cached identity) compare as decomposing every row of them does."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10**9), dim=st.integers(1, 4), k=st.integers(2, 5),
           count=st.integers(1, 3), complex_field=st.booleans(),
           magnitude=st.sampled_from([1e-3, 0.5, 1.0, 1e3]))
    def test_known_sides_equal_full_spectrum(self, seed, dim, k, count, complex_field,
                                             magnitude):
        rng = np.random.default_rng(seed)
        field_kind = "complex" if complex_field else "real"
        # count candidate tuples of k matrices, stacked as the screen draws them
        arrs = np.concatenate([_random_spds(rng, dim, k, field_kind)
                               for _ in range(count)]) * magnitude
        lam, _, errors = decompose_stack(arrs)
        assert errors is None
        upper = np.array([j * k + a for j in range(count) for a in range(1, k)])
        everything = WordBatch.known(arrs, lam)
        ident = _identity_batch(dim)
        pairs = ((WordBatch.known(arrs[upper], lam[upper]),
                  WordBatch.known(arrs[upper - 1], lam[upper - 1])),
                 (ident, everything), (everything, ident))
        for p, q in pairs:
            rows = max(len(p.values), len(q.values))
            incoming = no_errors(rows)
            for i in np.flatnonzero(rng.random(rows) < 0.3):
                incoming[i] = ValueError(f"row {i} failed earlier")
            for before in (None, incoming):
                got = scaled_margins_stack(p, q, before)
                want = full_spectrum_margins(p.values, q.values, before)
                for a, b in zip(got[:3], want[:3]):
                    assert [x.hex() for x in a.tolist()] == [x.hex() for x in b.tolist()]
                assert error_rows(got[3], rows) == error_rows(want[3], rows)

    def test_identity_batch_is_cached_and_exact(self):
        ident = _identity_batch(3)
        assert _identity_batch(3) is ident
        lam, errors = ident.spectrum
        assert lam.tolist() == [[1.0, 1.0, 1.0]] and errors is None
        assert lam.tobytes() == decompose_stack(ident.values)[0].tobytes()
        assert ident.row_errors is None
        assert not (ident.values.flags.writeable or lam.flags.writeable)


class TestLoewnerHeinzLaw:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), dim=st.integers(2, 6),
           alpha=st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0]))
    def test_unit_interval_powers_preserve_order(self, seed, dim, alpha):
        p_arr, q_arr = ordered_pair_arrays(np.random.default_rng(seed), dim)
        pa = matrix_power(HermitianMatrix(p_arr), alpha)
        qa = matrix_power(HermitianMatrix(q_arr), alpha)
        ge_m, _ = directional_margins(pa, qa)
        scale = max(1.0, operator_norm(pa), operator_norm(qa))
        assert ge_m >= -1e-8 * scale

    def test_failure_outside_unit_interval(self):
        p = HermitianMatrix(np.array([[2.0, 1.0], [1.0, 1.0]]))
        q = HermitianMatrix(np.ones((2, 2)))
        v = loewner_compare(matrix_power(p, 2), matrix_power(q, 2))
        assert v.relation is Relation.INCOMPARABLE


class TestCongruence:
    def test_identity_factor(self):
        h = spd(4, 3)
        assert np.allclose(congruence(identity(3), h).entries, h.entries)

    def test_scalar_case(self):
        out = congruence(diagonal([2.0]), diagonal([3.0]))
        assert out.entries[0, 0] == pytest.approx(12.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            congruence(np.eye(2), identity(3))

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), dim=st.integers(2, 5))
    def test_preserves_psd(self, seed, dim):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((dim, dim))
        h = HermitianMatrix(random_spd_array(rng, dim, ridge=0.0))
        out = congruence(x, h)
        scale = max(1.0, operator_norm(out))
        assert positivity_margin(out) >= -1e-10 * scale


class TestScalars:
    def test_positivity_margin_examples(self):
        assert positivity_margin(identity(3)) == pytest.approx(1.0)
        assert positivity_margin(diagonal([0.5, 3.0])) == pytest.approx(0.5)

    def test_margin_of_constructed_spd(self):
        h = spd(21, 4)
        assert positivity_margin(h) >= 0.1 - 1e-10

    def test_operator_norm_examples(self):
        assert operator_norm(identity(4)) == pytest.approx(1.0)
        assert operator_norm(diagonal([-2.0, 1.0])) == pytest.approx(2.0)

    def test_operator_norm_against_power_iteration(self):
        h = spd(33, 5)
        assert operator_norm(h) == pytest.approx(
            power_iteration_norm(h.entries), rel=1e-8
        )

    def test_overflowing_tolerance_passes_silently(self):
        # tol_rel * scale overflows to inf: every finite margin passes, and
        # no RuntimeWarning reaches the command line's stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            held = margins_hold(np.array([-1.0, np.nan]), np.array([1e10, 1e10]), 1e300)
        assert held.tolist() == [True, False]
        assert margins_hold(-1.0, 1e10, 1e300)


class TestJsonFormat:
    def test_real_round_trip(self):
        h = spd(12, 3)
        obj = matrix_to_json(h)
        assert obj["dim"] == 3 and obj["field"] == "real"
        assert len(obj["entries"]) == 9
        back = matrix_from_json(obj)
        assert np.allclose(back.entries, h.entries)

    def test_complex_round_trip(self):
        rng = np.random.default_rng(8)
        g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        h = HermitianMatrix(g.conj().T @ g + 0.1 * np.eye(2))
        back = matrix_from_json(matrix_to_json(h))
        assert np.allclose(back.entries, h.entries)

    def test_bad_entry_count(self):
        with pytest.raises(ValueError):
            matrix_from_json({"dim": 2, "field": "real", "entries": [1.0, 2.0]})

    def test_bad_field(self):
        with pytest.raises(ValueError):
            matrix_from_json({"dim": 1, "field": "quaternion", "entries": [1.0]})
