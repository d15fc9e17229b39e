"""Hermitian matrix arithmetic backed by spectral functional calculus.

Everything downstream reduces to three primitives implemented here: dense
self-adjoint matrices with validated construction, eigendecomposition with
cached reuse, and Loewner-order comparisons under a scale-aware tolerance
policy.  Real symmetric is the default scalar field; complex Hermitian
matrices travel through the same code paths.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache, reduce

import numpy as np
from numpy.linalg import _umath_linalg

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
    """Base class for failures raised by this module.  The row errors below
    keep their fields as arguments and format their message only when it
    is read: most of them are counted, never printed."""


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
        super().__init__(lam_min, gate)
        self.lam_min = lam_min
        self.gate = gate

    def __str__(self):
        return (f"matrix is numerically singular for the requested power: "
                f"lambda_min={self.lam_min:.6e} <= gate={self.gate:.6e}")


class EigenSolverError(SpectralError):
    def __init__(self, dim: int, cond_estimate: float):
        super().__init__(dim, cond_estimate)
        self.dim = dim
        self.cond_estimate = cond_estimate

    def __str__(self):
        return f"eigensolver failed to converge (dim={self.dim}, cond~{self.cond_estimate:.3e})"


class NonFiniteError(SpectralError):
    """A matrix or margin that must be finite is not (an overflowed power or
    product, say).  Raised instead of handing inf or NaN entries to LAPACK,
    whose eigensolvers can return finite garbage for them."""

    def __init__(self, what: str):
        super().__init__(what)
        self.what = what

    def __str__(self):
        return f"{self.what} is not finite"


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
# before any solve).  The errors stay None until a guard fails, so a clean
# stack builds and scans no object array.  The scalar functions below are
# their M = 1 case, so every guard is written once, here.
#
# The primitives leave numpy's floating-point warnings to their caller: an
# overflowed or NaN entry is a guarded row, never a warning, so a caller
# enters np.errstate(all="ignore") once around them (an evaluation run does,
# and so do a comparison, matrix_power and spectral_decompose).  The
# eigensolvers stay correct outside it (see _direct).

def no_errors(m: int) -> np.ndarray:
    return np.full(m, None, dtype=object)


def healthy(errors: np.ndarray) -> np.ndarray:
    """Mask of the rows without an error."""
    return np.equal(errors, None)


def failed_rows(errors, m: int) -> np.ndarray:
    """Mask of the m rows with an error (errors None: no row failed)."""
    return np.zeros(m, dtype=bool) if errors is None else ~healthy(errors)


def any_set(mask: np.ndarray) -> bool:
    """``mask.any()`` for a boolean mask, by the C-level count rather than
    the method's Python wrapper (a third of the cost on short masks)."""
    return np.count_nonzero(mask) > 0


def nonfinite_rows(arrs: np.ndarray) -> np.ndarray | None:
    """Mask of the matrices of a stack with an inf or NaN entry; None when
    every entry is finite."""
    finite = np.isfinite(arrs)
    if np.count_nonzero(finite) == finite.size:
        return None
    return ~finite.all(axis=(-2, -1))


def concat_errors(parts, sizes):
    """The row errors of consecutive stacks in turn, part i of sizes[i]
    rows; None when every part is None."""
    if all(part is None for part in parts):
        return None
    return np.concatenate([no_errors(size) if part is None else part
                           for part, size in zip(parts, sizes)])


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
    if not any_set(fails):
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


def raise_first(errors) -> None:
    """Raise the error of the first row that has one; nothing when no row
    has one (errors None or all healthy)."""
    if errors is not None:
        bad = np.flatnonzero(~healthy(errors))
        if len(bad):
            raise errors[bad[0]]


def _adjoint(arrs: np.ndarray) -> np.ndarray:
    if arrs.dtype.kind == "c":
        return arrs.conj().swapaxes(-1, -2)
    return arrs.swapaxes(-1, -2)


@lru_cache(maxsize=None)
def _eye(dim: int) -> np.ndarray:
    eye = np.eye(dim)
    eye.setflags(write=False)
    return eye


# LAPACK's stacked eigensolvers are numpy gufuncs; called directly they skip
# np.linalg's wrapper (its checks, casts and np.errstate cost more than the
# solve of a few small matrices) and give the same bits.  A solve that does
# not converge leaves NaN eigenvalues and sets numpy's invalid flag, where
# np.linalg raises LinAlgError; so a stack with a non-finite eigenvalue, or
# whose flags raise under the caller's np.errstate or warning filters, is
# solved again through np.linalg.  Evaluation runs and comparisons call
# them under np.errstate(all="ignore"), so a failed solve there warns
# nothing on its way back; elsewhere (the tuple generators' screens) it may
# warn, and its row is still an error row.
_EIGH_SIGNATURES = {"d": "d->dd", "D": "D->dD"}
_EIGVALSH_SIGNATURES = {"d": "d->d", "D": "D->d"}


def _direct(gufunc: str, signatures: dict, fallback: str, arrs: np.ndarray):
    """``np.linalg.<fallback>(arrs)``, by the gufunc ``gufunc`` of
    numpy.linalg._umath_linalg where its eigenvalues come out finite."""
    signature = signatures.get(arrs.dtype.char)
    # both are looked up when called, as np.linalg looks up its gufuncs
    if signature is not None:
        try:
            out = getattr(_umath_linalg, gufunc)(arrs, signature=signature)
        except (FloatingPointError, RuntimeWarning):
            pass
        else:
            finite = np.isfinite(out[0] if isinstance(out, tuple) else out)
            if np.count_nonzero(finite) == finite.size:
                return out
    return getattr(np.linalg, fallback)(arrs)


def _eigh(arrs: np.ndarray):
    return _direct("eigh_lo", _EIGH_SIGNATURES, "eigh", arrs)


def _eigvalsh(arrs: np.ndarray):
    return _direct("eigvalsh_lo", _EIGVALSH_SIGNATURES, "eigvalsh", arrs)


def _solve_stack(solver, arrs: np.ndarray, errors):
    """Run a stacked LAPACK solver on the healthy rows; returns (result,
    errors, the stack that was solved).

    Rows with non-finite entries become NonFiniteError rows, and every
    unhealthy row is solved as the identity.  If LAPACK still fails on the
    stack, the rows are solved one by one and each failing one becomes an
    EigenSolverError row."""
    dim = arrs.shape[-1]
    bad = nonfinite_rows(arrs)
    if bad is not None:
        errors = flag_errors(errors, bad, lambda i: NonFiniteError("eigensolver input"))
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
    A row fails with NonFiniteError when an entry or an eigenvalue is inf
    or NaN, and with EigenSolverError when LAPACK does not converge, when
    its eigenvectors are not orthonormal within ORTHO_TOL, or when they do
    not reconstruct the input within RECON_RTOL * max(1, |lambda|max).  A
    row with a non-finite eigenvalue takes the identity's decomposition
    before its residuals are taken, as an unhealthy row is solved as the
    identity: their products would meet inf * 0."""
    lam, u, errors, _, _ = eigensystem_stack(arrs, errors)
    return lam, u, errors


def eigensystem_stack(arrs: np.ndarray, errors=None):
    """``decompose_stack``'s (eigenvalues, eigenvectors, errors), with the
    contiguous adjoints U* (M, d, d) and the norms max|lambda| (M,) that its
    residuals are taken with, and that ``power_stack`` can rebuild and gate
    with."""
    dim = arrs.shape[-1]
    (lam, u), errors, work = _solve_stack(_eigh, arrs, errors)
    finite = np.isfinite(lam)
    if np.count_nonzero(finite) != finite.size:
        bad = ~finite.all(axis=-1)
        errors = flag_errors(errors, bad, lambda i: NonFiniteError("eigenvalue"))
        keep = ~bad[:, None]
        lam, u = np.where(keep, lam, 1.0), np.where(keep[..., None], u, _eye(dim))
        work = np.where(keep[..., None], work, _eye(dim))
    # a stacked matmul by a contiguous copy of the adjoint runs 3-4x faster
    # than one by the strided view for d = 2-4; so does the product in
    # power_stack.  The two gave identical bits for d <= 8 with OpenBLAS,
    # but for the sign of a zero that a product underflowed to (seen in a
    # power of a stack that the pd gate rejects) and of a NaN, which only a
    # row in error holds; a larger d or another BLAS may round differently
    uh = np.ascontiguousarray(_adjoint(u))
    ortho = np.maximum.reduce(np.abs(uh @ u - _eye(dim)), axis=(-2, -1))
    recon = np.maximum.reduce(np.abs((u * lam[:, None, :]) @ uh - work), axis=(-2, -1))
    # of an ascending spectrum, max|lambda| is spectral_norms' max(|lambda_0|,
    # |lambda_(d-1)|), bit for bit
    norms = np.maximum.reduce(np.abs(lam), axis=-1)
    bad_ortho = ortho > ORTHO_TOL
    bad_recon = recon > RECON_RTOL * np.maximum(1.0, norms)
    if any_set(bad_ortho | bad_recon):
        errors = flag_errors(errors, bad_ortho, lambda i: EigenSolverError(
            dim, ortho[i] / max(ORTHO_TOL, 1e-300)))
        errors = flag_errors(errors, bad_recon, lambda i: EigenSolverError(
            dim, _cond_estimate(arrs[i])))
    return lam, u, errors, uh, norms


def spectral_norms(lam: np.ndarray):
    """Spectral norms from ascending eigenvalues (the last axis)."""
    return np.maximum(np.abs(lam[..., 0]), np.abs(lam[..., -1]))


def _scale(*norms):
    """max(1, norms ...) elementwise: the floor under the norm of the pd gate,
    of a comparison's scale and its reach and of a scalar comparison."""
    return reduce(np.maximum, norms, 1.0)


def _gate(lam: np.ndarray, norms=None):
    """(fails, gate) per row of ascending eigenvalues: the strict-positivity
    gate EPS_PD_REL * max(1, |H|), the only form of it, and whether
    lambda_min sits at or below it.  ``norms``, when given, are the rows'
    |H| (``spectral_norms``)."""
    gate = EPS_PD_REL * _scale(spectral_norms(lam) if norms is None else norms)
    return lam[..., 0] <= gate, gate


# numpy raises an array to a scalar 2, 0.5 or -1 through square, sqrt and
# reciprocal, which can differ from pow() in the last bit; every power takes
# the same paths, so its bits match ``lam ** alpha`` for one exponent
_SCALAR_POWER_PATHS = ((2.0, np.square), (0.5, np.sqrt), (-1.0, np.reciprocal))
_SCALAR_POWERS = np.array([value for value, _ in _SCALAR_POWER_PATHS])


def power_stack(lam: np.ndarray, u: np.ndarray, alpha, errors, uh=None, norms=None):
    """Real powers rebuilt on the eigenvectors: row m is U diag(lam^alpha)
    U*, symmetrized.  ``alpha`` is one exponent for every row or an (M,)
    array; lam, u and errors broadcast against it, and so do ``uh``, the
    contiguous U*, and ``norms``, max|lam| per row, which
    ``eigensystem_stack`` hands over (both are computed when None).
    Returns (the powers, the eigenvalues lam^alpha they were rebuilt from,
    errors).

    A fractional or negative exponent fails with NearSingularError where
    lambda_min is at or below the pd gate; a power that overflows fails
    with NonFiniteError.  Call under np.errstate(all="ignore")."""
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.ndim == 0:
        alpha = np.full(len(lam), alpha)
    elif len(lam) != len(alpha):
        lam = np.broadcast_to(lam, (len(alpha),) + lam.shape[1:])
        if norms is not None:
            norms = np.broadcast_to(norms, (len(alpha),))
    low, gate = _gate(lam, norms)
    if any_set(low):
        # the gate binds exponents that are not non-negative integers; inf
        # and NaN leave a NaN remainder
        errors = flag_errors(errors, low & ((alpha % 1.0 != 0.0) | (alpha < 0)),
                             lambda i: NearSingularError(float(lam[i, 0]), float(gate[i])))
    powered = lam ** alpha[:, None]
    scalar = np.equal.outer(alpha, _SCALAR_POWERS)
    if any_set(scalar):
        for j, (_, fast_path) in enumerate(_SCALAR_POWER_PATHS):
            rows = scalar[:, j]
            if any_set(rows):
                powered[rows] = fast_path(lam[rows])
    out = (u * powered[:, None, :]) @ (np.ascontiguousarray(_adjoint(u)) if uh is None else uh)
    out = 0.5 * (out + _adjoint(out))
    bad = nonfinite_rows(out)
    if bad is not None:
        errors = flag_errors(errors, bad, lambda i: NonFiniteError("matrix power"))
    return out, powered, errors


def _frobenius(arrs: np.ndarray) -> np.ndarray:
    """||X||_F per matrix of a stack, by the ufuncs that
    ``np.linalg.norm(arrs, axis=(-2, -1))`` applies, so with its bits."""
    squares = (arrs.conj() * arrs).real if arrs.dtype.kind == "c" else arrs * arrs
    return np.sqrt(np.add.reduce(squares, axis=(-2, -1)))


def hermitian_part(arrs: np.ndarray, rtol: float):
    """(0.5 (X + X*), too_far, residual, scale) for a stack: the residual is
    ||X - X*||_F, the scale max(1, ||X||_F), and too_far marks the rows whose
    residual exceeds rtol * scale.  Call under np.errstate(all="ignore")."""
    adj = _adjoint(arrs)
    scale = np.maximum(1.0, _frobenius(arrs))
    resid = _frobenius(arrs - adj)
    return 0.5 * (arrs + adj), resid > rtol * scale, resid, scale


def margins_stack(p: np.ndarray, q: np.ndarray, errors):
    """(lambda_min(P - Q), lambda_min(Q - P), errors) per row from one
    eigvalsh solve of the (broadcast) difference.  Call under
    np.errstate(all="ignore")."""
    if p.shape[-1] != q.shape[-1]:
        raise DimensionMismatchError(f"cannot compare dims {p.shape[-1]} and {q.shape[-1]}")
    evs, errors, _ = _solve_stack(_eigvalsh, p - q, errors)
    return evs[:, 0], -evs[:, -1], errors


@dataclass(frozen=True, eq=False)
class WordBatch:
    """N Hermitian values, one per row: a word's value under N scalar
    bindings (``dsl.evaluate_batch``), or matrices whose spectra are known
    (``known``).  Every comparison side is one.

    ``values[i]`` is the Hermitian value of row i, or the identity where
    that row failed.  ``row_errors`` is None while no row failed, else the
    (N,) row-error array of the stacked primitives: entry i is None or the
    exception of the first node that failed for row i in depth-first,
    left-to-right order, the one ``dsl.evaluate`` raises for the same
    binding.

    ``distinct`` is (first, inverse): the rows ``first`` hold the
    distinct values, and row i holds that of ``values[first[inverse[i]]]``.
    ``spectrum`` decomposes each distinct value once, for comparisons.

    ``power_eigenvalues`` holds, when a power node made the values, the
    eigenvalues mu = lambda^alpha that each distinct value was rebuilt
    from as U diag(mu) U* (one row per distinct value); None for other
    words.  ``norm_bound`` reads a bound on each distinct value's norm
    from them.
    """

    values: np.ndarray
    row_errors: np.ndarray | None
    distinct: tuple[np.ndarray, np.ndarray] = field(repr=False)
    power_eigenvalues: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def known(cls, values: np.ndarray, eigenvalues: np.ndarray) -> "WordBatch":
        """Healthy rows ``values`` (M, d, d) whose ascending eigenvalues
        (M, d) the caller has checked; they are the batch's spectrum."""
        rows = np.arange(len(values))
        batch = cls(values, None, (rows, rows))
        vars(batch)["spectrum"] = (eigenvalues, None)
        return batch

    @classmethod
    def stack(cls, batches, rows: int, groupings: dict) -> "WordBatch":
        """The rows of ``batches`` in turn as one batch, each batch of
        ``rows`` rows or of one row that stands for ``rows`` equal ones; its
        distinct values are theirs.  Their stacked (first, inverse) is kept
        in ``groupings`` for batches of the same groupings: a batch of one
        distinct value has the one there is, any other is known by the
        arrays of its grouping, which a shared grouping keeps.  It has a
        norm bound when each batch has one or a known spectrum, whose exact
        norms bound its values."""
        key = (rows,) + tuple(None if len(batch.distinct[0]) == 1 else id(batch.distinct[0])
                              for batch in batches)
        got = groupings.get(key)
        if got is None:
            firsts, inverses, count = [], [], 0
            for j, batch in enumerate(batches):
                first, inverse = batch.distinct
                firsts.append(first + j * rows)
                inverses.append(np.broadcast_to(inverse, rows) + count)
                count += len(first)
            distinct = np.concatenate(firsts), np.concatenate(inverses)
            for arr in distinct:
                arr.setflags(write=False)
            # held with its groupings, so that no id in its key is reused
            got = groupings[key] = (tuple(batch.distinct for batch in batches), distinct)
        values = [np.broadcast_to(batch.values, (rows, *batch.values.shape[1:]))
                  for batch in batches]
        errors = [None if batch.row_errors is None else np.broadcast_to(batch.row_errors, rows)
                  for batch in batches]
        stacked = cls(np.concatenate(values), concat_errors(errors, [rows] * len(errors)),
                      got[1])
        if all(batch.norm_bound is not None or "spectrum" in vars(batch) for batch in batches):
            vars(stacked)["norm_bound"] = np.concatenate([
                spectral_norms(batch.spectrum[0][batch.distinct[0]])
                if batch.norm_bound is None else batch.norm_bound for batch in batches])
        return stacked

    @cached_property
    def spectrum(self) -> tuple[np.ndarray, np.ndarray | None]:
        """(eigenvalues (N, d) ascending, errors) of the rows' values: what
        ``decompose_stack(values)`` returns of them, errors None on the
        rows that decomposed cleanly (an error row's value is the identity).
        Computed once per distinct value."""
        first, inverse = self.distinct
        lam, _, errors = decompose_stack(self.values[first])
        return lam[inverse], None if errors is None else errors[inverse]

    @cached_property
    def norm_bound(self) -> np.ndarray | None:
        """A bound on each distinct value's spectral norm when a power node
        made the batch (None otherwise): max |mu| = max |lambda_end|^alpha
        of the value U diag(mu) U*, which bounds eigh's norm of it up to
        ``BOUND_SLACK_PER_DIM``.  An error row's value is the identity,
        whose norm 1 never raises a comparison's scale; an overflowed or
        NaN bound bounds nothing."""
        if self.power_eigenvalues is None:
            return None
        return np.maximum.reduce(np.abs(self.power_eigenvalues), axis=1)


def _norms(batch: WordBatch):
    """A batch's spectral norms per row and the row errors of taking them."""
    lam, errors = batch.spectrum
    return spectral_norms(lam), errors


def _needed_norms(batch: WordBatch, need: np.ndarray):
    """A batch's norms at the rows of ``need`` (0 elsewhere) and their
    errors: each distinct value that a needed row holds is decomposed once,
    all of them through ``batch.spectrum`` when it is known or needed."""
    if np.count_nonzero(need) == len(need) or "spectrum" in vars(batch):
        return _norms(batch)
    first, inverse = batch.distinct
    wanted = np.zeros(len(first), dtype=bool)
    wanted[inverse[need]] = True
    norms, errors = np.zeros(len(first)), None
    if any_set(wanted):
        lam, _, found = decompose_stack(batch.values[first[wanted]])
        norms[wanted] = spectral_norms(lam)
        if found is not None:
            errors = no_errors(len(first))
            errors[wanted] = found
    return norms[inverse], None if errors is None else errors[inverse]


def scaled_margins_stack(p: WordBatch, q: WordBatch, errors=None):
    """(lambda_min(P - Q), lambda_min(Q - P), max(1, |P|, |Q|), errors) per
    row of two batches; a batch of one row is compared with every row of
    the other.

    Each side's norm comes from its spectrum, one decomposition per
    distinct value.  A batch with a ``norm_bound`` (a power's) facing a
    side without one is decomposed only at the distinct values whose bound
    reaches max(1, the other side's norm) / (1 + d * BOUND_SLACK_PER_DIM),
    or where the other side failed: elsewhere its norm cannot raise the
    scale, which is bit for bit the same.  With a bound on both sides, p's
    norm is taken in full and q's is spared.  Errors merge p's before q's,
    and a row in error counts each norm as 1.  A margin that comes out
    non-finite fails with NonFiniteError."""
    sides = (p, q)
    # the side a bound may spare decompositions: q's when both have one
    gated = next((j for j in (1, 0) if sides[j].norm_bound is not None), None)
    with np.errstate(all="ignore"):
        ge, le, errors = margins_stack(p.values, q.values, errors)
        norms = [None if j == gated else _norms(side) for j, side in enumerate(sides)]
        if gated is not None:
            side = sides[gated]
            other, other_errors = norms[1 - gated]
            reach = _scale(other) / (1.0 + side.values.shape[-1] * BOUND_SLACK_PER_DIM)
            # a NaN bound or norm compares False, so its row is decomposed
            need = ~(side.norm_bound[side.distinct[1]] < reach)
            if other_errors is not None:
                need |= ~healthy(other_errors)
            if errors is not None:
                need &= healthy(errors)
            norms[gated] = _needed_norms(side, need)
    side_norms = []
    for norm, side_errors in norms:
        if errors is not None:
            norm = np.where(healthy(errors), norm, 1.0)
        side_norms.append(norm)
        errors = first_errors(errors, side_errors)
    return ge, le, _scale(*side_norms), flag_errors(errors, ~(np.isfinite(ge) & np.isfinite(le)),
                                                    lambda i: NonFiniteError("comparison margin"))


def scalar_margins(c, lam: np.ndarray):
    """(lambda_min(c*I - H), lambda_min(H - c*I), max(1, |c|, |H|)) of c*I
    against values H of ascending eigenvalues lam (last axis), elementwise."""
    return c - lam[..., -1], lam[..., 0] - c, _scale(np.abs(c), spectral_norms(lam))


def spectral_decompose(h: HermitianMatrix) -> SpectralDecomposition:
    """Full symmetric/Hermitian eigendecomposition of ``h``.

    Raises NonFiniteError for non-finite entries and EigenSolverError (with
    dimension and a condition estimate) if LAPACK fails to converge or the
    orthogonality or reconstruction residual is out of tolerance."""
    with np.errstate(all="ignore"):
        lam, u, errors = decompose_stack(h.entries[None])
    raise_first(errors)
    return SpectralDecomposition(eigenvalues=lam[0], eigenvectors=u[0])


def operator_norm(h: HermitianMatrix) -> float:
    """Spectral norm: the largest absolute eigenvalue."""
    lam = h.decomposition().eigenvalues
    return float(max(abs(lam[0]), abs(lam[-1])))


def positivity_margin(h: HermitianMatrix) -> float:
    """Smallest eigenvalue; positive iff the matrix is strictly positive."""
    return float(h.decomposition().eigenvalues[0])


def gate_stack(lam: np.ndarray, errors):
    """The pd gate on a stack of ascending eigenvalues: each healthy row
    whose lambda_min sits at or below it gets a NearSingularError."""
    low, gate = _gate(lam)
    return flag_errors(errors, low,
                       lambda i: NearSingularError(float(lam[i, 0]), float(gate[i])))


def require_strictly_positive(h: HermitianMatrix) -> None:
    """Raise NearSingularError unless lambda_min(h) clears the pd gate."""
    raise_first(gate_stack(h.decomposition().eigenvalues[None], None))


def matrix_power(h: HermitianMatrix, alpha: float) -> HermitianMatrix:
    """Real matrix power through the spectral theorem.

    Non-negative integer powers are defined for any Hermitian input; every
    other exponent requires lambda_min above the pd gate and raises
    NearSingularError otherwise.  An overflowing power raises
    NonFiniteError.
    """
    dec = h.decomposition()
    with np.errstate(all="ignore"):
        out, _, errors = power_stack(dec.eigenvalues[None], dec.eigenvectors[None],
                                     float(alpha), None)
    raise_first(errors)
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


def margins_hold(margin: np.ndarray, scale: np.ndarray, tol_rel: float) -> np.ndarray:
    """The pass criterion every check shares, elementwise over margins and
    scales (arrays or scalars): a finite margin at or above -tol_rel *
    scale.  A NaN margin (an evaluation error) fails; a slack that
    overflows to inf passes every finite margin, unwarned."""
    with np.errstate(over="ignore"):
        return np.isfinite(margin) & (margin >= -tol_rel * scale)


# codes of classify_stack: 2 * (the GE margin holds) + (the LE margin holds)
STACK_RELATIONS = (Relation.INCOMPARABLE, Relation.LE, Relation.GE, Relation.EQ)


def classify_stack(ge: np.ndarray, le: np.ndarray, scale: np.ndarray,
                   tol_rel: float) -> np.ndarray:
    """Each row's relation, as an index into STACK_RELATIONS: GE, LE, both
    (EQ) or neither (INCOMPARABLE) of its margins pass at tol_rel."""
    ge_holds, le_holds = margins_hold(np.array((ge, le)), scale, tol_rel)
    return 2 * ge_holds + le_holds


def directional_margins(p: HermitianMatrix, q: HermitianMatrix) -> tuple[float, float]:
    """(lambda_min(P - Q), lambda_min(Q - P)) from a single solve."""
    with np.errstate(all="ignore"):
        ge, le, errors = margins_stack(p.entries[None], q.entries[None], None)
    raise_first(errors)
    return float(ge[0]), float(le[0])


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
    sides = [WordBatch.known(h.entries[None], h.decomposition().eigenvalues[None])
             for h in (p, q)]
    ge, le, scale, errors = scaled_margins_stack(*sides)
    raise_first(errors)
    ge_margin, le_margin, scale = float(ge[0]), float(le[0]), float(scale[0])
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
