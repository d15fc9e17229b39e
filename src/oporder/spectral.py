"""Hermitian matrix arithmetic backed by spectral functional calculus.

Everything downstream reduces to three primitives implemented here: dense
self-adjoint matrices with validated construction, eigendecomposition with
cached reuse, and Loewner-order comparisons under a scale-aware tolerance
policy.  Real symmetric is the default scalar field; complex Hermitian
matrices travel through the same code paths.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
from pathlib import Path

import numpy as np

# Tolerance policy.  Comparisons use tol_rel * max(1, |P|, |Q|) with the
# spectral norm; fractional and negative powers are gated by eps_pd.
TOL_REL = 1e-9
EPS_PD_REL = 1e-10
HERMITICITY_RTOL = 1e-12
RECON_RTOL = 1e-10
ORTHO_TOL = 1e-10
# Relative slack, per dimension d, on the bound max|mu| of a power's norm.
# A power is rebuilt as U diag(mu) U* on eigenvectors that passed ORTHO_TOL,
# so |U*U - I| <= ORTHO_TOL entrywise, ||U||^2 = ||U*U|| <= 1 + d * ORTHO_TOL,
# and its exact norm is at most (1 + d * ORTHO_TOL) * max|mu|.  The second
# d * ORTHO_TOL covers the rounding of the product, its symmetrization and
# eigh's computed eigenvalues, each a small multiple of d * 2^-52.  So
# eigh's norm of the rebuilt value is at most max|mu| * (1 + 2 d ORTHO_TOL).
BOUND_SLACK_PER_DIM = 2 * ORTHO_TOL
# entries up to this size keep their Frobenius norms' sums of squares finite
_NORM_SAFE = 2.0 ** 500


class SpectralError(Exception):
    """Base class for failures raised by this module."""


class DimensionMismatchError(SpectralError):
    pass


class NotHermitianError(SpectralError):
    pass


class NearSingularError(SpectralError):
    """A fractional or negative power was requested of a matrix whose
    smallest eigenvalue sits at or below the strict-positivity gate.

    Deliberately not recoverable by clamping: silently flooring eigenvalues
    could fabricate order verdicts.  Regenerate or regularize the instance.
    """

    def __init__(self, lam_min: float, gate: float):
        super().__init__(
            f"matrix is numerically singular for the requested power: "
            f"lambda_min={lam_min:.6e} <= gate={gate:.6e}"
        )
        self.lam_min = lam_min
        self.gate = gate


class EigenSolverError(SpectralError):
    def __init__(self, dim: int, cond_estimate: float):
        super().__init__(
            f"eigensolver failed to converge (dim={dim}, cond~{cond_estimate:.3e})"
        )
        self.dim = dim
        self.cond_estimate = cond_estimate


class NonFiniteError(SpectralError):
    """A matrix or margin that must be finite is not (an overflowed power or
    product, say).  Raised instead of handing inf or NaN entries to LAPACK,
    whose eigensolvers can return finite garbage for them."""

    def __init__(self, what: str):
        super().__init__(f"{what} is not finite")
        self.what = what


class Relation(Enum):
    GE = "GE"
    LE = "LE"
    EQ = "EQ"
    INCOMPARABLE = "INCOMPARABLE"


@dataclass(frozen=True, eq=False)
class HermitianMatrix:
    """Dense self-adjoint matrix; immutable once constructed.

    Construction rejects inf or NaN entries and entries whose Hermiticity
    residual exceeds 1e-12 times the Frobenius norm, so every instance can
    be fed to the eigensolver without further checking.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise NotHermitianError(f"expected a square matrix, got shape {arr.shape}")
        dtype = np.complex128 if np.iscomplexobj(arr) else np.float64
        arr = arr.astype(dtype, copy=True)
        if not np.isfinite(arr).all():
            raise NonFiniteError("matrix")
        # the norms' sums of squares overflow for entries near 1e154: such a
        # matrix is scaled by an exact power of two, which scales both norms
        # exactly and leaves their comparison as it is
        big = float(np.abs(arr).max() if dtype is np.float64
                    else max(np.abs(arr.real).max(), np.abs(arr.imag).max()))
        exp = math.frexp(big)[1] if big > _NORM_SAFE else 0
        scaled = arr * 2.0 ** -exp if exp else arr
        fro = float(np.linalg.norm(scaled))
        resid = float(np.linalg.norm(scaled - scaled.conj().T))
        if resid > HERMITICITY_RTOL * fro:
            with np.errstate(over="ignore"):
                resid, fro = (float(np.ldexp(v, exp)) for v in (resid, fro))
            raise NotHermitianError(
                f"entries are not self-adjoint: residual {resid:.3e} "
                f"exceeds {HERMITICITY_RTOL:.0e} * {fro:.3e}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @classmethod
    def trusted(cls, arr: np.ndarray,
                decomposition: "SpectralDecomposition | None" = None) -> "HermitianMatrix":
        """Wrap an array that is Hermitian by construction (symmetrized by
        the caller) without recomputing its residual; a decomposition the
        caller checked with ``decompose_stack`` is kept as the one
        ``decomposition()`` returns."""
        obj = cls.__new__(cls)
        arr = np.array(arr, dtype=np.complex128 if np.iscomplexobj(arr) else np.float64)
        arr.setflags(write=False)
        object.__setattr__(obj, "entries", arr)
        if decomposition is not None:
            vars(obj)["_decomposition"] = decomposition
        return obj

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @property
    def scalar_field(self) -> str:
        return "complex" if np.iscomplexobj(self.entries) else "real"

    @cached_property
    def _decomposition(self) -> "SpectralDecomposition":
        return spectral_decompose(self)

    def decomposition(self) -> "SpectralDecomposition":
        """Eigendecomposition, computed once and cached (instances are
        immutable so sharing across threads is safe)."""
        return self._decomposition

    def __repr__(self):
        return f"HermitianMatrix(dim={self.dim}, field={self.scalar_field!r})"


@dataclass(frozen=True, eq=False)
class SpectralDecomposition:
    """Eigenvalues in ascending order plus orthonormal eigenvector columns,
    as checked by ``decompose_stack``."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        u = self.eigenvectors
        return (u * self.eigenvalues) @ u.conj().T


@dataclass(frozen=True)
class Verdict:
    """Outcome of a Loewner comparison.

    margin is the signed smallest eigenvalue of the difference relevant to
    the reported relation: lambda_min(P - Q) for GE, lambda_min(Q - P) for
    LE, the smaller of the two for EQ and the larger for INCOMPARABLE.
    """

    relation: Relation
    margin: float
    tol: float

    @property
    def ge(self) -> bool:
        return self.relation in (Relation.GE, Relation.EQ)

    @property
    def le(self) -> bool:
        return self.relation in (Relation.LE, Relation.EQ)


def identity(dim: int) -> HermitianMatrix:
    return HermitianMatrix(np.eye(dim))


def diagonal(values) -> HermitianMatrix:
    return HermitianMatrix(np.diag(np.asarray(values, dtype=np.float64)))


def _cond_estimate(arr: np.ndarray) -> float:
    try:
        return float(np.linalg.cond(arr))
    except np.linalg.LinAlgError:
        return float("inf")


# Stacked primitives.  Each takes (M, d, d) arrays plus the row errors so
# far: None when every row is healthy, else an (M,) object array holding
# None or the exception of each row.  It returns the errors with those of its
# own guards merged in: a row keeps the first error it met, and a row that
# entered in error is skipped (its entries are replaced by the identity
# before any solve).  The scalar functions below are their M = 1 case, so
# every guard is written once, here.

def no_errors(m: int) -> np.ndarray:
    return np.full(m, None, dtype=object)


def healthy(errors: np.ndarray) -> np.ndarray:
    """Mask of the rows without an error."""
    return np.equal(errors, None)


def first_errors(errors, later):
    """Row-wise first error of two row-error arrays (``errors`` wins);
    either may be None or a single row broadcast against the other."""
    if later is None:
        return errors
    if errors is None:
        return later
    return np.where(healthy(errors), later, errors)


def flag_errors(errors, fails: np.ndarray, make):
    """Give each healthy row where ``fails`` holds the error ``make(row)``;
    ``fails`` has one entry per row."""
    if not fails.any():
        return errors
    if errors is None:
        errors = no_errors(len(fails))
    else:
        rows = max(len(errors), len(fails))
        errors = np.broadcast_to(errors, (rows,)).copy()
        fails = np.broadcast_to(fails, (rows,))
    for i in np.flatnonzero(fails & healthy(errors)):
        errors[i] = make(int(i))
    return errors


def _raise_first(errors) -> None:
    if errors is not None and errors[0] is not None:
        raise errors[0]


def _adjoint(arrs: np.ndarray) -> np.ndarray:
    if np.iscomplexobj(arrs):
        return arrs.conj().swapaxes(-1, -2)
    return arrs.swapaxes(-1, -2)


@lru_cache(maxsize=None)
def _eye(dim: int) -> np.ndarray:
    eye = np.eye(dim)
    eye.setflags(write=False)
    return eye


def _solve_stack(solver, arrs: np.ndarray, errors):
    """Run a stacked LAPACK solver on the healthy rows; returns (result,
    errors, the stack that was solved).

    Rows with non-finite entries become NonFiniteError rows, and every
    unhealthy row is solved as the identity.  If LAPACK still fails on the
    stack, the rows are solved one by one and each failing one becomes an
    EigenSolverError row."""
    dim = arrs.shape[-1]
    if not np.isfinite(arrs).all():
        errors = flag_errors(errors, ~np.isfinite(arrs).all(axis=(-2, -1)),
                             lambda i: NonFiniteError("eigensolver input"))
    work = arrs
    if errors is not None:
        ok = healthy(errors)
        if not ok.all():
            work = np.where(ok[:, None, None], arrs, _eye(dim))
    try:
        return solver(work), errors, work
    except np.linalg.LinAlgError:
        pass
    ident = solver(_eye(dim))
    parts = []
    for i, arr in enumerate(work):
        try:
            parts.append(solver(arr))
        except np.linalg.LinAlgError:
            errors = flag_errors(errors, np.arange(len(work)) == i,
                                 lambda j: EigenSolverError(dim, _cond_estimate(arrs[j])))
            parts.append(ident)
    if isinstance(ident, np.ndarray):
        return np.stack(parts), errors, work
    return tuple(np.stack(p) for p in zip(*parts)), errors, work


def decompose_stack(arrs: np.ndarray, errors=None):
    """Guarded eigendecomposition of a stack of Hermitian matrices.

    Returns (eigenvalues (M, d) ascending, eigenvectors (M, d, d), errors).
    A row fails with NonFiniteError when an entry is inf or NaN, and with
    EigenSolverError when LAPACK does not converge, when its eigenvectors
    are not orthonormal within ORTHO_TOL, or when they do not reconstruct
    the input within RECON_RTOL * max(1, |lambda|max)."""
    dim = arrs.shape[-1]
    (lam, u), errors, work = _solve_stack(np.linalg.eigh, arrs, errors)
    uh = _adjoint(u)
    ortho = np.abs(uh @ u - _eye(dim)).max(axis=(-2, -1))
    recon = np.abs((u * lam[:, None, :]) @ uh - work).max(axis=(-2, -1))
    bad_ortho = ortho > ORTHO_TOL
    bad_recon = recon > RECON_RTOL * np.maximum(1.0, np.abs(lam).max(axis=-1))
    if bad_ortho.any() or bad_recon.any():
        errors = flag_errors(errors, bad_ortho, lambda i: EigenSolverError(
            dim, ortho[i] / max(ORTHO_TOL, 1e-300)))
        errors = flag_errors(errors, bad_recon, lambda i: EigenSolverError(
            dim, _cond_estimate(arrs[i])))
    return lam, u, errors


def spectral_norms(lam: np.ndarray):
    """Spectral norms from ascending eigenvalues (the last axis)."""
    return np.maximum(np.abs(lam[..., 0]), np.abs(lam[..., -1]))


def _gate(lam: np.ndarray):
    """(fails, gate) per row of ascending eigenvalues: the strict-positivity
    gate EPS_PD_REL * max(1, |H|) and whether lambda_min sits at or below it."""
    gate = EPS_PD_REL * np.maximum(1.0, spectral_norms(lam))
    return lam[..., 0] <= gate, gate


# numpy raises an array to a scalar 2, 0.5 or -1 through square, sqrt and
# reciprocal, which can differ from pow() in the last bit; per-row exponents
# take the same paths, so a stacked power equals the scalar one bit for bit
_SCALAR_POWER_PATHS = ((2.0, np.square), (0.5, np.sqrt), (-1.0, np.reciprocal))


def power_stack(lam: np.ndarray, u: np.ndarray, alpha, errors):
    """Real powers rebuilt on the eigenvectors: row m is U diag(lam^alpha)
    U*, symmetrized.  ``alpha`` is one exponent for every row or an (M,)
    array; lam, u and errors broadcast against it.  Returns (the powers,
    the eigenvalues lam^alpha they were rebuilt from, errors).

    A fractional or negative exponent fails with NearSingularError where
    lambda_min is at or below the pd gate; a power that overflows fails
    with NonFiniteError."""
    per_row = isinstance(alpha, np.ndarray) and alpha.ndim > 0
    if per_row:
        alpha = np.asarray(alpha, dtype=np.float64)
        fractional = (alpha < 0) | ~np.isfinite(alpha) | (alpha != np.floor(alpha))
        if len(lam) != len(alpha):
            lam = np.broadcast_to(lam, (len(alpha),) + lam.shape[1:])
        gated = fractional.any()
    else:
        alpha = float(alpha)
        gated = alpha < 0 or not alpha.is_integer()
    if gated:
        low, gate = _gate(lam)
        errors = flag_errors(errors, low & fractional if per_row else low,
                             lambda i: NearSingularError(float(lam[i, 0]), float(gate[i])))
    with np.errstate(all="ignore"):
        if per_row:
            powered = lam ** alpha[:, None]
            for value, fast_path in _SCALAR_POWER_PATHS:
                rows = alpha == value
                if rows.any():
                    powered[rows] = fast_path(lam[rows])
        else:
            powered = lam ** alpha
        out = (u * powered[:, None, :]) @ _adjoint(u)
        out = 0.5 * (out + _adjoint(out))
    if not np.isfinite(out).all():
        errors = flag_errors(errors, ~np.isfinite(out).all(axis=(-2, -1)),
                             lambda i: NonFiniteError("matrix power"))
    return out, powered, errors


def _frobenius(arrs: np.ndarray) -> np.ndarray:
    """||X||_F per matrix of a stack, by the ufuncs that
    ``np.linalg.norm(arrs, axis=(-2, -1))`` applies, so with its bits."""
    squares = (arrs.conj() * arrs).real if np.iscomplexobj(arrs) else arrs * arrs
    return np.sqrt(np.add.reduce(squares, axis=(-2, -1)))


def hermitian_part(arrs: np.ndarray, rtol: float):
    """(0.5 (X + X*), too_far, residual, scale) for a stack: the residual is
    ||X - X*||_F, the scale max(1, ||X||_F), and too_far marks the rows whose
    residual exceeds rtol * scale."""
    adj = _adjoint(arrs)
    with np.errstate(over="ignore", invalid="ignore"):
        scale = np.maximum(1.0, _frobenius(arrs))
        resid = _frobenius(arrs - adj)
        return 0.5 * (arrs + adj), resid > rtol * scale, resid, scale


def margins_stack(p: np.ndarray, q: np.ndarray, errors):
    """(lambda_min(P - Q), lambda_min(Q - P), errors) per row from one
    eigvalsh solve of the (broadcast) difference."""
    if p.shape[-1] != q.shape[-1]:
        raise DimensionMismatchError(f"cannot compare dims {p.shape[-1]} and {q.shape[-1]}")
    with np.errstate(over="ignore", invalid="ignore"):
        diff = p - q
    evs, errors, _ = _solve_stack(np.linalg.eigvalsh, diff, errors)
    return evs[:, 0], -evs[:, -1], errors


def _as_stack(side) -> np.ndarray:
    if isinstance(side, np.ndarray):
        return side
    if isinstance(side, HermitianMatrix):
        return side.entries[None]
    if isinstance(side, tuple):
        return side[0]
    return side.values


def _side_norms(side, errors, rows: int):
    """Spectral norms of one side of ``scaled_margins_stack`` per row, and
    the row errors of taking them; the norms of rows that ``errors`` marks
    are left to the caller, which counts them as 1."""
    if isinstance(side, np.ndarray):
        # the rows in error are decomposed as the identity; the errors
        # returned hold those of ``errors`` first
        lam, _, side_errors = decompose_stack(side, errors)
        return spectral_norms(lam), side_errors
    if isinstance(side, tuple):
        return side[1], None
    if isinstance(side, HermitianMatrix):
        try:
            return np.full(rows, operator_norm(side)), None
        except SpectralError as exc:
            return np.ones(rows), flag_errors(None, np.ones(rows, dtype=bool), lambda _: exc)
    # a batch: one decomposition per distinct value
    lam, side_errors = side.spectrum
    return spectral_norms(lam), side_errors


def _needed_norms(batch, need: np.ndarray):
    """A batch side's norms at the rows of ``need`` (0 elsewhere) and their
    errors: each distinct value that a needed row holds is decomposed once,
    all of them through ``batch.spectrum`` when it is known or needed."""
    if need.all() or "spectrum" in vars(batch):
        return _side_norms(batch, None, len(need))
    first, inverse = batch.distinct
    wanted = np.zeros(len(first), dtype=bool)
    wanted[inverse[need]] = True
    norms, errors = np.zeros(len(first)), None
    if wanted.any():
        lam, _, found = decompose_stack(batch.values[first[wanted]])
        norms[wanted] = spectral_norms(lam)
        if found is not None:
            errors = no_errors(len(first))
            errors[wanted] = found
    return norms[inverse], None if errors is None else errors[inverse]


def scaled_margins_stack(p, q, errors=None):
    """Stacked ``scaled_margins``: (ge, le, scale, errors) per row.  Each of
    p and q is an (M, d, d) stack, one HermitianMatrix compared with every
    row, a pair (stack, norms) of an (M, d, d) stack and its rows' spectral
    norms, or a batch of M rows with ``values``, ``distinct``, ``spectrum``
    and ``norm_bound`` (a ``dsl.WordBatch``).

    Each side's norm comes from its eigenvalues: a HermitianMatrix's
    cached decomposition, a batch's spectrum (one decomposition per
    distinct value), a stack's own decomposition, or the norms given.  A
    batch with a ``norm_bound`` (a power's) facing a side without one is
    decomposed only at the distinct values whose bound reaches max(1, the
    other side's norm) / (1 + d * BOUND_SLACK_PER_DIM), or where the other
    side failed: elsewhere its norm cannot raise the scale, which is bit
    for bit the same.  With a bound on both sides, p's norm is taken in
    full and q's is spared.  Errors merge in the same order whichever form the sides take,
    p's before q's, and a row in error counts each norm as 1.  A margin
    that comes out non-finite fails with NonFiniteError."""
    ge, le, errors = margins_stack(_as_stack(p), _as_stack(q), errors)
    rows = len(ge)
    sides = (p, q)
    # the side a bound may spare decompositions: q's when both have one
    gated = next((j for j in (1, 0) if getattr(sides[j], "norm_bound", None) is not None),
                 None)
    norms = [None if j == gated else _side_norms(side, errors, rows)
             for j, side in enumerate(sides)]
    if gated is not None:
        side = sides[gated]
        other, other_errors = norms[1 - gated]
        reach = np.maximum(1.0, other) / (1.0 + side.values.shape[-1] * BOUND_SLACK_PER_DIM)
        # a NaN bound or norm compares False, so its row is decomposed
        need = ~(side.norm_bound[side.distinct[1]] < reach)
        if other_errors is not None:
            need |= ~healthy(other_errors)
        if errors is not None:
            need &= healthy(errors)
        norms[gated] = _needed_norms(side, need)
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


def decompose_matrices(matrices) -> None:
    """Decompose HermitianMatrix objects of one dimension with one stacked
    ``decompose_stack`` and cache each result on its matrix, where
    ``decomposition()`` returns it; a matrix that fails keeps no cache and
    raises its own error when it is decomposed."""
    pending = [m for m in matrices if "_decomposition" not in vars(m)]
    if not pending:
        return
    lam, u, errors = decompose_stack(np.stack([m.entries for m in pending]))
    for i, m in enumerate(pending):
        if errors is None or errors[i] is None:
            vars(m)["_decomposition"] = SpectralDecomposition(lam[i], u[i])


def spectral_decompose(h: HermitianMatrix) -> SpectralDecomposition:
    """Full symmetric/Hermitian eigendecomposition of ``h``.

    Raises NonFiniteError for non-finite entries and EigenSolverError (with
    dimension and a condition estimate) if LAPACK fails to converge or the
    orthogonality or reconstruction residual is out of tolerance."""
    lam, u, errors = decompose_stack(h.entries[None])
    _raise_first(errors)
    return SpectralDecomposition(eigenvalues=lam[0], eigenvectors=u[0])


def operator_norm(h: HermitianMatrix) -> float:
    """Spectral norm: the largest absolute eigenvalue."""
    lam = h.decomposition().eigenvalues
    return float(max(abs(lam[0]), abs(lam[-1])))


def positivity_margin(h: HermitianMatrix) -> float:
    """Smallest eigenvalue; positive iff the matrix is strictly positive."""
    return float(h.decomposition().eigenvalues[0])


def pd_gate(h: HermitianMatrix) -> float:
    """Strict-positivity threshold below which fractional powers error out."""
    return float(_gate(h.decomposition().eigenvalues)[1])


def gate_stack(lam: np.ndarray, errors):
    """The pd gate on a stack of ascending eigenvalues: each healthy row
    whose lambda_min sits at or below it gets a NearSingularError."""
    low, gate = _gate(lam)
    return flag_errors(errors, low,
                       lambda i: NearSingularError(float(lam[i, 0]), float(gate[i])))


def require_strictly_positive(h: HermitianMatrix) -> None:
    """Raise NearSingularError unless lambda_min(h) clears the pd gate."""
    _raise_first(gate_stack(h.decomposition().eigenvalues[None], None))


def matrix_power(h: HermitianMatrix, alpha: float) -> HermitianMatrix:
    """Real matrix power through the spectral theorem.

    Non-negative integer powers are defined for any Hermitian input; every
    other exponent requires lambda_min above the pd gate and raises
    NearSingularError otherwise.  An overflowing power raises
    NonFiniteError.
    """
    dec = h.decomposition()
    out, _, errors = power_stack(dec.eigenvalues[None], dec.eigenvectors[None],
                                 float(alpha), None)
    _raise_first(errors)
    return HermitianMatrix.trusted(out[0])


def congruence(x, h: HermitianMatrix) -> HermitianMatrix:
    """Sandwich map H -> X* H X; preserves positive semidefiniteness."""
    xa = x.entries if isinstance(x, HermitianMatrix) else np.asarray(x)
    if xa.ndim != 2 or xa.shape[0] != xa.shape[1]:
        raise DimensionMismatchError(f"congruence factor must be square, got {xa.shape}")
    if xa.shape[0] != h.dim:
        raise DimensionMismatchError(
            f"congruence dims differ: {xa.shape[0]} vs {h.dim}"
        )
    out = xa.conj().T @ h.entries @ xa
    out = 0.5 * (out + out.conj().T)
    return HermitianMatrix(out)


def margin_holds(margin: float, scale: float, tol_rel: float) -> bool:
    """The pass criterion every check shares: a finite margin at or above
    -tol_rel * scale.  A NaN margin (an evaluation error) fails."""
    return math.isfinite(margin) and margin >= -tol_rel * scale


def margins_hold(margin: np.ndarray, scale: np.ndarray, tol_rel: float) -> np.ndarray:
    """``margin_holds`` elementwise over arrays of margins and scales; a
    slack that overflows to inf passes every finite margin, unwarned."""
    with np.errstate(over="ignore"):
        return np.isfinite(margin) & (margin >= -tol_rel * scale)


# codes of classify_stack: 2 * (the GE margin holds) + (the LE margin holds)
STACK_RELATIONS = (Relation.INCOMPARABLE, Relation.LE, Relation.GE, Relation.EQ)


def classify_stack(ge: np.ndarray, le: np.ndarray, scale: np.ndarray,
                   tol_rel: float) -> np.ndarray:
    """Each row's relation, as an index into STACK_RELATIONS: GE, LE, both
    (EQ) or neither (INCOMPARABLE) of its margins pass at tol_rel."""
    return 2 * margins_hold(ge, scale, tol_rel) + margins_hold(le, scale, tol_rel)


def directional_margins(p: HermitianMatrix, q: HermitianMatrix) -> tuple[float, float]:
    """(lambda_min(P - Q), lambda_min(Q - P)) from a single solve."""
    ge, le, errors = margins_stack(p.entries[None], q.entries[None], None)
    _raise_first(errors)
    return float(ge[0]), float(le[0])


def scaled_margins(p: HermitianMatrix, q: HermitianMatrix) -> tuple[float, float, float]:
    """Both directional margins plus the comparison scale max(1, |P|, |Q|)
    (spectral norms) that every tolerance is relative to."""
    ge, le, scale, errors = scaled_margins_stack(p, q)
    _raise_first(errors)
    return float(ge[0]), float(le[0]), float(scale[0])


def loewner_compare(
    p: HermitianMatrix,
    q: HermitianMatrix,
    tol_rel: float = TOL_REL,
) -> Verdict:
    """Compare P and Q in the Loewner order.

    GE is reported iff lambda_min(P - Q) >= -tol, LE iff the reversed
    difference passes, EQ iff both and INCOMPARABLE iff neither, with
    tol = tol_rel * max(1, |P|, |Q|).  The comparison is symmetric:
    swapping arguments swaps GE and LE while keeping margins identical.
    """
    ge_margin, le_margin, scale = scaled_margins(p, q)
    code = int(classify_stack(ge_margin, le_margin, scale, tol_rel))
    # the reported margin per code of STACK_RELATIONS
    margin = (max(ge_margin, le_margin), le_margin, ge_margin, min(ge_margin, le_margin))[code]
    return Verdict(relation=STACK_RELATIONS[code], margin=margin, tol=tol_rel * scale)


# JSON matrix format shared with every downstream module:
#   {"dim": d, "field": "real" | "complex", "entries": row-major flat array}
# Complex entries are encoded as [re, im] pairs.

def matrix_to_json(h: HermitianMatrix) -> dict:
    if h.scalar_field == "real":
        entries = [float(v) for v in h.entries.ravel()]
    else:
        entries = [[float(v.real), float(v.imag)] for v in h.entries.ravel()]
    return {"dim": h.dim, "field": h.scalar_field, "entries": entries}


def matrix_from_json(obj: dict) -> HermitianMatrix:
    dim = int(obj["dim"])
    field = obj.get("field", "real")
    flat = obj["entries"]
    if len(flat) != dim * dim:
        raise ValueError(f"expected {dim * dim} entries, got {len(flat)}")
    if field == "real":
        arr = np.asarray(flat, dtype=np.float64).reshape(dim, dim)
    elif field == "complex":
        arr = np.asarray(
            [complex(re, im) for re, im in flat], dtype=np.complex128
        ).reshape(dim, dim)
    else:
        raise ValueError(f"unknown field {field!r}")
    return HermitianMatrix(arr)


def write_matrix(path, h: HermitianMatrix) -> None:
    Path(path).write_text(json.dumps(matrix_to_json(h)) + "\n")


def read_matrix(path) -> HermitianMatrix:
    return matrix_from_json(json.loads(Path(path).read_text()))
