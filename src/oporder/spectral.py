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
from functools import cached_property
from pathlib import Path

import numpy as np

# Tolerance policy.  Comparisons use tol_rel * max(1, |P|, |Q|) with the
# spectral norm; fractional and negative powers are gated by eps_pd.
TOL_REL = 1e-9
EPS_PD_REL = 1e-10
HERMITICITY_RTOL = 1e-12
RECON_RTOL = 1e-10
ORTHO_TOL = 1e-10


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


class Relation(Enum):
    GE = "GE"
    LE = "LE"
    EQ = "EQ"
    INCOMPARABLE = "INCOMPARABLE"


@dataclass(frozen=True, eq=False)
class HermitianMatrix:
    """Dense self-adjoint matrix; immutable once constructed.

    Construction rejects entries whose Hermiticity residual exceeds
    1e-12 times the Frobenius norm, so every instance can be fed to the
    eigensolver without further checking.
    """

    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise NotHermitianError(f"expected a square matrix, got shape {arr.shape}")
        dtype = np.complex128 if np.iscomplexobj(arr) else np.float64
        arr = arr.astype(dtype, copy=True)
        fro = float(np.linalg.norm(arr))
        resid = float(np.linalg.norm(arr - arr.conj().T))
        if resid > HERMITICITY_RTOL * fro:
            raise NotHermitianError(
                f"entries are not self-adjoint: residual {resid:.3e} "
                f"exceeds {HERMITICITY_RTOL:.0e} * {fro:.3e}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

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
    """Eigenvalues in ascending order plus orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        u = self.eigenvectors
        gram = u.conj().T @ u
        ortho_resid = float(np.abs(gram - np.eye(u.shape[1])).max())
        if ortho_resid > ORTHO_TOL:
            raise EigenSolverError(u.shape[0], ortho_resid / max(ORTHO_TOL, 1e-300))

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


def spectral_decompose(h: HermitianMatrix) -> SpectralDecomposition:
    """Full symmetric/Hermitian eigendecomposition of ``h``.

    Raises EigenSolverError (with dimension and a condition estimate) if
    LAPACK fails to converge, and verifies the reconstruction residual
    against RECON_RTOL before returning.
    """
    try:
        lam, u = np.linalg.eigh(h.entries)
    except np.linalg.LinAlgError as exc:
        raise EigenSolverError(h.dim, _cond_estimate(h.entries)) from exc
    dec = SpectralDecomposition(eigenvalues=lam, eigenvectors=u)
    scale = max(1.0, float(np.abs(lam).max()))
    resid = float(np.abs(dec.reconstruct() - h.entries).max())
    if resid > RECON_RTOL * scale:
        raise EigenSolverError(h.dim, _cond_estimate(h.entries))
    return dec


def operator_norm(h: HermitianMatrix) -> float:
    """Spectral norm: the largest absolute eigenvalue."""
    lam = h.decomposition().eigenvalues
    return float(max(abs(lam[0]), abs(lam[-1])))


def positivity_margin(h: HermitianMatrix) -> float:
    """Smallest eigenvalue; positive iff the matrix is strictly positive."""
    return float(h.decomposition().eigenvalues[0])


def pd_gate(h: HermitianMatrix) -> float:
    """Strict-positivity threshold below which fractional powers error out."""
    return EPS_PD_REL * max(1.0, operator_norm(h))


def matrix_power(h: HermitianMatrix, alpha: float) -> HermitianMatrix:
    """Real matrix power through the spectral theorem.

    Non-negative integer powers are defined for any Hermitian input; every
    other exponent requires lambda_min above the pd gate and raises
    NearSingularError otherwise.
    """
    alpha = float(alpha)
    dec = h.decomposition()
    lam = dec.eigenvalues
    if alpha < 0 or not alpha.is_integer():
        gate = pd_gate(h)
        if lam[0] <= gate:
            raise NearSingularError(float(lam[0]), gate)
    powered = lam ** alpha
    u = dec.eigenvectors
    out = (u * powered) @ u.conj().T
    out = 0.5 * (out + out.conj().T)
    return HermitianMatrix(out)


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


def classify_margins(ge_margin: float, le_margin: float, scale: float,
                     tol_rel: float) -> Relation:
    ge = margin_holds(ge_margin, scale, tol_rel)
    le = margin_holds(le_margin, scale, tol_rel)
    if ge and le:
        return Relation.EQ
    if ge:
        return Relation.GE
    if le:
        return Relation.LE
    return Relation.INCOMPARABLE


def directional_margins(p: HermitianMatrix, q: HermitianMatrix) -> tuple[float, float]:
    """(lambda_min(P - Q), lambda_min(Q - P)) from a single solve."""
    if p.dim != q.dim:
        raise DimensionMismatchError(f"cannot compare dims {p.dim} and {q.dim}")
    evs = np.linalg.eigvalsh(p.entries - q.entries)
    return float(evs[0]), float(-evs[-1])


def scaled_margins(p: HermitianMatrix, q: HermitianMatrix) -> tuple[float, float, float]:
    """Both directional margins plus the comparison scale max(1, |P|, |Q|)
    (spectral norms) that every tolerance is relative to."""
    ge_margin, le_margin = directional_margins(p, q)
    return ge_margin, le_margin, max(1.0, operator_norm(p), operator_norm(q))


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
    relation = classify_margins(ge_margin, le_margin, scale, tol_rel)
    if relation is Relation.GE:
        margin = ge_margin
    elif relation is Relation.LE:
        margin = le_margin
    elif relation is Relation.EQ:
        margin = min(ge_margin, le_margin)
    else:
        margin = max(ge_margin, le_margin)
    return Verdict(relation=relation, margin=margin, tol=tol_rel * scale)


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
