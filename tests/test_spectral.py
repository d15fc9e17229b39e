import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oporder.spectral import (
    EPS_PD_REL,
    RECON_RTOL,
    DimensionMismatchError,
    EigenSolverError,
    HermitianMatrix,
    NearSingularError,
    NonFiniteError,
    NotHermitianError,
    Relation,
    congruence,
    diagonal,
    directional_margins,
    identity,
    loewner_compare,
    margin_holds,
    margins_hold,
    margins_stack,
    matrix_from_json,
    matrix_power,
    matrix_to_json,
    operator_norm,
    positivity_margin,
    power_stack,
    read_matrix,
    scaled_margins,
    spectral_decompose,
    write_matrix,
)
from oporder.spectral import _frobenius
from util import ordered_pair_arrays, power_iteration_norm, random_spd_array


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
        ge_m, le_m, scale = scaled_margins(p, q)
        assert (ge_m, le_m, scale) == (0.5, -1.0, 3.0)
        v = loewner_compare(p, q)
        assert v.relation is Relation.GE and v.margin == ge_m and v.tol == 1e-9 * scale

    def test_margin_holds_boundary_and_nan(self):
        assert margin_holds(-2e-7, 2.0, 1e-7)
        assert not margin_holds(-2.1e-7, 2.0, 1e-7)
        assert not margin_holds(float("nan"), 1.0, 1e-7)
        assert not margin_holds(float("-inf"), 1.0, 1e-7)


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

    def test_overflowing_power_raises(self):
        with np.errstate(over="ignore"):
            big = diagonal([1e200, 1.0])
        with pytest.raises(NonFiniteError):
            matrix_power(big, 2.0)

    def test_lapack_failure_is_confined_to_its_row(self, monkeypatch):
        real = np.linalg.eigvalsh

        def failing(arr):
            if np.any(np.asarray(arr)[..., 0, 0] == 7.0):
                raise np.linalg.LinAlgError("Eigenvalues did not converge")
            return real(arr)

        monkeypatch.setattr(np.linalg, "eigvalsh", failing)
        p = np.stack([2.0 * np.eye(2), np.diag([7.0, 1.0]), 3.0 * np.eye(2)])
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

    def test_pd_gate_relative(self):
        h = diagonal([1.0, 1e6])
        from oporder.spectral import pd_gate
        assert pd_gate(h) == pytest.approx(EPS_PD_REL * 1e6)

    def test_overflowing_tolerance_passes_silently(self):
        # tol_rel * scale overflows to inf: every finite margin passes, and
        # no RuntimeWarning reaches the command line's stderr
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            held = margins_hold(np.array([-1.0, np.nan]), np.array([1e10, 1e10]), 1e300)
        assert held.tolist() == [True, False]
        assert margin_holds(-1.0, 1e10, 1e300)


class TestJsonFormat:
    def test_real_round_trip(self, tmp_path):
        h = spd(12, 3)
        obj = matrix_to_json(h)
        assert obj["dim"] == 3 and obj["field"] == "real"
        assert len(obj["entries"]) == 9
        back = matrix_from_json(obj)
        assert np.allclose(back.entries, h.entries)
        path = tmp_path / "m.json"
        write_matrix(path, h)
        assert np.allclose(read_matrix(path).entries, h.entries)

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
