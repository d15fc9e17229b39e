"""Shared test helpers: independent scalar oracles, seeded generators and
a full-spectrum reference for comparisons.

The scalar word evaluator here is deliberately a separate implementation
from the package's evaluator: on diagonal matrices every operation acts
entrywise, so it serves as the oracle for the matrix path.  The chain
exponent's level recurrence and the scalar bound's word walk are the
package's earlier forms of ``chain_exponents`` and ``scalar_bounds``, kept as
the oracles of their cached forms.  So are the forms the tolerance rules
had where they were written out by hand: power_stack's inline gate test,
the guards of an evaluation run and a decomposition with every residual
taken (Hermiticity, non-finite eigenvalues, orthogonality and
reconstruction), the three scalar comparisons that
``spectral.scalar_margins`` replaced (among them the reduction's scalar
row, now a c*I comparison of ``verify.run``) and an exponent's float value
taken from its Fractions.
``judge_members`` is the campaign's judging of member rows as it was
written before ``verify.run`` took it over.  ``reduction_points`` reads a
ReductionReport's table point by point, as the references keep it.
"""
from __future__ import annotations

import math
from fractions import Fraction
from pathlib import Path

import numpy as np

from oporder import chains, dsl, spectral
from oporder.chains import Power, Product, ScalarExpr, Symbol
from oporder.spectral import (
    EPS_PD_REL,
    TOL_REL,
    HermitianMatrix,
    NearSingularError,
    NonFiniteError,
    classify_stack,
    decompose_stack,
    first_errors,
    flag_errors,
    healthy,
    margins_hold,
    margins_stack,
    operator_norm,
    positivity_margin,
    scaled_margins_stack,
    spectral_norms,
)
from oporder.verify import SUITE_TOL_REL, MarginTable

REPO_ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = REPO_ROOT / "golden" / "v1"

_NAMES = ("r", "t1", "t2", "t3", "p1", "p2", "p3", "p4", "w1", "w2")
_COEFFS = (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3))
_NUMBERS = (Fraction(0), Fraction(1), Fraction(2), Fraction(1, 2), Fraction(3, 4))


def random_scalar_expr(rng: np.random.Generator) -> ScalarExpr:
    kind = int(rng.integers(0, 4))
    if kind == 0:
        return ScalarExpr.number(_NUMBERS[rng.integers(0, len(_NUMBERS))])
    name = _NAMES[rng.integers(0, len(_NAMES))]
    coeff = _COEFFS[rng.integers(0, len(_COEFFS))]
    expr = ScalarExpr.variable(name, coeff)
    if kind == 2:
        # distinct second name keeps every coefficient renderable
        other = _NAMES[rng.integers(0, len(_NAMES))]
        if other != name:
            expr = expr + ScalarExpr.variable(other, _COEFFS[rng.integers(0, len(_COEFFS))])
    elif kind == 3:
        expr = expr - ScalarExpr.number(_NUMBERS[rng.integers(0, len(_NUMBERS))])
    return expr


def random_word(rng: np.random.Generator, depth: int = 0):
    roll = int(rng.integers(0, 6))
    if depth >= 3 or roll <= 2:
        return Symbol(int(rng.integers(1, 6)), random_scalar_expr(rng))
    if roll <= 4:
        count = int(rng.integers(2, 4))
        return Product(tuple(random_word(rng, depth + 1) for _ in range(count)))
    return Power(random_word(rng, depth + 1), random_scalar_expr(rng))


def scalar_word_value(word, scalars: dict, diag: dict) -> tuple:
    """Entrywise evaluation on diagonal matrices, independent of the
    package evaluator; diag maps symbol index -> tuple of diagonal entries."""
    if isinstance(word, Symbol):
        e = word.exponent.evaluate(scalars)
        return tuple(v ** e for v in diag[word.index])
    if isinstance(word, Product):
        columns = zip(*(scalar_word_value(f, scalars, diag) for f in word.factors))
        return tuple(math.prod(col) for col in columns)
    if isinstance(word, Power):
        e = word.exponent.evaluate(scalars)
        return tuple(v ** e for v in scalar_word_value(word.base, scalars, diag))
    raise TypeError(f"unexpected node {word!r}")


def random_spd_array(rng: np.random.Generator, dim: int, ridge: float = 0.1) -> np.ndarray:
    g = rng.standard_normal((dim, dim))
    a = g.T @ g + ridge * np.eye(dim)
    return 0.5 * (a + a.T)


def random_hermitian(rng: np.random.Generator, dim: int, complex_field: bool,
                     eigenvalues=None):
    """A random Hermitian matrix with the given (or random positive)
    eigenvalues."""
    g = rng.standard_normal((dim, dim))
    if complex_field:
        g = g + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(g)
    lam = rng.uniform(0.2, 3.0, dim) if eigenvalues is None else np.asarray(eigenvalues[:dim])
    arr = (q * lam) @ q.conj().T
    return HermitianMatrix(0.5 * (arr + arr.conj().T))


def ordered_pair_arrays(rng: np.random.Generator, dim: int):
    """(P, Q) with P >= Q >= 0 by construction."""
    q = random_spd_array(rng, dim)
    h = rng.standard_normal((dim, dim))
    p = q + h.T @ h
    return 0.5 * (p + p.T), q


def power_iteration_norm(arr: np.ndarray, iterations: int = 2000) -> float:
    """Independent spectral-norm oracle for symmetric input."""
    rng = np.random.default_rng(0)
    v = rng.standard_normal(arr.shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iterations):
        w = arr @ v
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
        lam = norm
    return float(lam)


def count_decompositions(monkeypatch, sizes: list) -> None:
    """Append the stack size of every decomposition that evaluation runs and
    comparisons make to ``sizes``: a power node's, through
    ``dsl.eigensystem_stack``, and every other, through
    ``spectral.decompose_stack``."""
    eigensystem, decompose = spectral.eigensystem_stack, spectral.decompose_stack
    monkeypatch.setattr(dsl, "eigensystem_stack", lambda arrs, errors=None:
                        sizes.append(len(arrs)) or eigensystem(arrs, errors))
    monkeypatch.setattr(spectral, "decompose_stack", lambda arrs, errors=None:
                        sizes.append(len(arrs)) or decompose(arrs, errors))


def error_rows(errors, count: int) -> list:
    """Type and text of each row's error (errors None: no row failed)."""
    if errors is None:
        return [None] * count
    return [None if e is None else (type(e), str(e)) for e in errors]


def judge_members(lhs, rhs, w: np.ndarray, w_index, is_ge, tol_rel: float = TOL_REL,
                  suite_tol_rel: float = SUITE_TOL_REL):
    """Member rows judged from their two sides alone, as a campaign judges
    them: the left side's row error, then the right side's, then a weight
    w <= 0 (w<w_index>); the directional margin (GE where is_ge) of one
    ``scaled_margins_stack``, verdicts at tol_rel, and a table judged at
    suite_tol_rel with the column w."""
    errors = flag_errors(first_errors(lhs.row_errors, rhs.row_errors), w <= 0,
                         lambda i: dsl.EvaluationError(
                             f"weight w{int(w_index[i])} = {float(w[i])!r} is not positive"))
    ge, le, scale, errors = scaled_margins_stack(lhs, rhs, errors)
    rows = np.arange(len(ge))
    return MarginTable.judged((None,), np.zeros_like(rows), rows, np.where(is_ge, ge, le), scale,
                              classify_stack(ge, le, scale, tol_rel), errors, suite_tol_rel, w=w)


def full_spectrum_margins(p: np.ndarray, q: np.ndarray, errors=None):
    """Reference for ``scaled_margins_stack`` on the values of two sides
    ((M, d, d) stacks, or one row compared with every row): every row of
    each side is decomposed for its norm, with the row errors so far, and
    no bound spares any of them.  Errors merge p's before q's, and a row in
    error counts each norm as 1."""
    ge, le, errors = margins_stack(p, q, errors)
    rows, dim = len(ge), p.shape[-1]
    norms = []
    for side in (p, q):
        lam, _, side_errors = decompose_stack(np.broadcast_to(side, (rows, dim, dim)), errors)
        norms.append((spectral_norms(lam), side_errors))
    scale = np.ones(rows)
    for norm, side_errors in norms:
        if errors is not None:
            norm = np.where(healthy(errors), norm, 1.0)
        scale = np.maximum(scale, norm)
        errors = first_errors(errors, side_errors)
    finite = np.isfinite(ge) & np.isfinite(le)
    if not finite.all():
        errors = flag_errors(errors, ~finite, lambda i: NonFiniteError("comparison margin"))
    return ge, le, scale, errors


# each p-vector's entries of a reduction table, in the order of the frozen
# reduction references
REDUCTION_FIELDS = ("margin_core", "scale_core", "margin_peel", "scale_peel",
                    "margin_scalar", "scale_scalar", "c_total")


def reduction_points(report) -> list[dict]:
    """Each p-vector of a ReductionReport as the references keep it: the
    margins and scales of its core, peel and scalar rows and its c_total
    (REDUCTION_FIELDS), its p-vector and its first error, the error text
    of the first of those rows that is an ERROR row (None when none is).
    The table holds the premise, core, peel and scalar rows, each check's
    in point order; a row that is not an ERROR row keeps its margin."""
    table, size = report.table, len(report.c_total)
    cols = table.columns
    assert [check.name for check in table.checks] == ["premise", "core", "peel", "scalar"]
    assert cols["check"].tolist() == np.repeat(np.arange(4), size).tolist()
    assert cols["point"].tolist() == np.tile(np.arange(size), 4).tolist()
    pairs = np.stack([cols["margin"], cols["scale"]]).reshape(2, 4, size)[:, 1:]
    points = []
    for i, values in enumerate(pairs.transpose(2, 1, 0).reshape(size, 6).tolist()):
        errors = [table.error_text(b * size + i) for b in (1, 2, 3)]
        points.append(dict(zip(REDUCTION_FIELDS, values + [float(report.c_total[i])]),
                           p_vector=tuple(table.checks[0].points[i]),
                           error=next(filter(None, errors), None)))
    return points


def _dyadic(x: float) -> tuple[int, int]:
    """x as (m, s) with x = m / 2**s exactly."""
    m, d = float(x).as_integer_ratio()
    return m, d.bit_length() - 1


def level_chain_exponents(t, p_table) -> np.ndarray:
    """Oracle for ``chain_exponents``: the recurrence b_0 = 1, b_j =
    (b_(j-1) * p_(2j-1) - t_j) * p_(2j) + t_j level by level, for every row
    at once, in Python integers over one power of two per level; each b_n
    rounded once to the nearest float, inf beyond the float range."""
    table = np.asarray(p_table, dtype=np.float64)
    values, codes = np.unique(table, return_inverse=True)
    exact = [_dyadic(v) for v in values.tolist()]
    ps = max((s for _, s in exact), default=0)
    p_int = np.array([m << (ps - s) for m, s in exact], dtype=object)
    p_int = p_int[codes.reshape(table.shape)]
    # b over 2**bs; x = b * p_(2j-1) - t_j over 2**xs, then b' = x * p_(2j)
    # + t_j, each sum taken over the larger power of two
    b, bs = np.ones(len(table), dtype=object), 0
    for j, tj in enumerate(t):
        tm, ts = _dyadic(tj)
        xs = max(bs + ps, ts)
        x = ((b * p_int[:, 2 * j]) << (xs - bs - ps)) - (tm << (xs - ts))
        bs = max(xs + ps, ts)
        b = ((x * p_int[:, 2 * j + 1]) << (bs - xs - ps)) + (tm << (bs - ts))
    out = np.empty(len(table))
    for i, m in enumerate(b.tolist()):
        try:
            out[i] = m / (1 << bs)
        except OverflowError:
            out[i] = math.inf
    return out


def walk_scalar_interior(tup, t, p, n: int) -> float:
    """Oracle for the interior of ``scalar_bounds``: a walk of the peeled bound
    word, each exponent evaluated by ``ScalarExpr.evaluate`` under the t
    values and ``peeled_bindings(t, p)``, each factor's norm or lambda_min
    read where it is reached: |A|^(2e) for a wrap with e > 0,
    (1/lambda_min(A))^(-2e) otherwise."""
    _, bound = chains.reduction_words(2 * n)
    if bound is None:
        return 1.0
    scalars = {f"t{i}": tv for i, tv in enumerate(t, 1)}
    scalars.update(chains.peeled_bindings(t, tuple(float(v) for v in p)))

    def interior(sandwich: Power) -> float:
        wrap, inner, _ = sandwich.base.factors
        s = interior(inner) if isinstance(inner, Power) \
            else operator_norm(tup.matrices[inner.index - 1])
        s = s ** inner.exponent.evaluate(scalars)
        e = 2.0 * wrap.exponent.evaluate(scalars)
        m = tup.matrices[wrap.index - 1]
        return s * (operator_norm(m) ** e if e > 0 else (1.0 / positivity_margin(m)) ** -e)

    return interior(bound)


def walk_c_totals(tup, t, p_vectors) -> np.ndarray:
    """Oracle for ``verify.scalar_bounds``: walk_scalar_interior(p) ** (1/p_2)
    for every p-vector on its own (1 for n = 1, where the interior is 1)."""
    n = len(t)
    return np.array([walk_scalar_interior(tup, t, p, n) ** (1.0 / p[1]) for p in p_vectors],
                    dtype=np.float64)


def inline_gate(lam: np.ndarray):
    """Oracle for ``spectral._gate`` on (N, d) ascending eigenvalues: the
    test power_stack wrote inline, lambda_min <= EPS_PD_REL * max(1,
    lambda_max), and the gate value EPS_PD_REL * max(1, |H|)."""
    return (lam[:, 0] <= EPS_PD_REL * np.maximum(1.0, lam[:, -1]),
            EPS_PD_REL * np.maximum(1.0, spectral_norms(lam)))


def inline_gate_errors(lam: np.ndarray, alpha: np.ndarray, errors):
    """Oracle for the gate errors of ``power_stack``: ``errors`` with a
    NearSingularError on each row the inline test fails whose exponent is
    not a non-negative integer (an earlier error stays)."""
    low, gate = inline_gate(lam)
    return flag_errors(errors, low & ((alpha % 1.0 != 0.0) | (alpha < 0)),
                       lambda i: NearSingularError(float(lam[i, 0]), float(gate[i])))


def hermiticity_errors(values: np.ndarray, rtol: float, what: str):
    """Oracle for the Hermiticity guard of an evaluation run
    (``spectral.hermitian_part`` under ``dsl._hermitize``) as it was
    written, every residual and scale taken: a NonHermitianResultError on
    each row whose residual ||X - X*||_F exceeds rtol * max(1, ||X||_F)."""
    adjoint = values.conj().swapaxes(-1, -2)
    scale = np.maximum(1.0, np.linalg.norm(values, axis=(-2, -1)))
    resid = np.linalg.norm(values - adjoint, axis=(-2, -1))
    return flag_errors(None, resid > rtol * scale,
                       lambda i: dsl._not_hermitian(what, resid[i], scale[i]))


def eigensystem_residuals(arrs: np.ndarray):
    """What the guards of ``spectral.eigensystem_stack`` test, as they were
    written, every residual taken per row, from np.linalg.eigh's
    decomposition of a stack of finite rows (the bits of the direct solve):
    the mask of the rows with a non-finite eigenvalue, whose decomposition
    and input then become the identity's; the orthogonality residual
    max|U*U - I|, the reconstruction residual max|U diag(lambda) U* - A|
    and the reconstruction scale max(1, max|lambda|) of each row."""
    dim = arrs.shape[-1]
    lam, u = np.linalg.eigh(arrs)
    bad = ~np.isfinite(lam).all(axis=-1)
    keep = ~bad[:, None]
    lam, u = np.where(keep, lam, 1.0), np.where(keep[..., None], u, np.eye(dim))
    work = np.where(keep[..., None], arrs, np.eye(dim))
    uh = u.conj().swapaxes(-1, -2)
    return (bad, np.abs(uh @ u - np.eye(dim)).max(axis=(-2, -1)),
            np.abs((u * lam[:, None, :]) @ uh - work).max(axis=(-2, -1)),
            np.maximum(1.0, np.abs(lam).max(axis=-1)))


def eigensystem_errors(arrs: np.ndarray):
    """Oracle for the row errors of ``spectral.eigensystem_stack`` on a
    stack of finite rows (``eigensystem_residuals``): a NonFiniteError on
    each row with a non-finite eigenvalue, then an EigenSolverError on each
    other row whose orthogonality residual exceeds ORTHO_TOL, then on each
    whose reconstruction residual exceeds RECON_RTOL times its scale.  The
    tolerances are read when it is called."""
    dim = arrs.shape[-1]
    bad, ortho, recon, scale = eigensystem_residuals(arrs)
    errors = flag_errors(None, bad, lambda i: NonFiniteError("eigenvalue"))
    errors = flag_errors(errors, ortho > spectral.ORTHO_TOL, lambda i: spectral.EigenSolverError(
        dim, ortho[i] / max(spectral.ORTHO_TOL, 1e-300)))
    return flag_errors(errors, recon > spectral.RECON_RTOL * scale,
                       lambda i: spectral.EigenSolverError(dim, spectral._cond_estimate(arrs[i])))


def reduction_scalar_row(c: np.ndarray, lam: np.ndarray):
    """Oracle for ``scalar_margins`` as the reduction wrote its scalar row
    before it became the runner's c*I comparison: (c - lambda_max,
    lambda_min - c, max(max(1, |c|), |H|))."""
    return (c - lam[:, -1], lam[:, 0] - c,
            np.maximum(np.maximum(1.0, np.abs(c)), spectral_norms(lam)))


def limit_bound_holds(inferred: float, lam_max: float, tol_rel: float) -> bool:
    """Oracle for ``limit_probe``'s bound test as it was written: the
    inferred bound at or above lambda_max(core) within tol_rel * max(1,
    lambda_max)."""
    return bool(margins_hold(inferred - lam_max, max(1.0, lam_max), tol_rel))


def loewner_heinz_q_psd(lam: np.ndarray, tol_rel: float) -> bool:
    """Oracle for the Loewner-Heinz probe's precondition Q >= 0 as it was
    written, from Q's ascending eigenvalues: lambda_min within tol_rel *
    max(1, |Q|) of 0."""
    norm = max(abs(float(lam[0])), abs(float(lam[-1])))
    return bool(margins_hold(float(lam[0]), max(1.0, norm), tol_rel))


def fraction_value(expr: ScalarExpr, bindings) -> float:
    """Oracle for ``ScalarExpr.evaluate`` on float bindings: the constant
    and each coefficient converted from its Fraction where it is read."""
    total = float(expr.const)
    for name, coeff in expr.terms:
        total = total + float(coeff) * float(bindings[name])
    return total
