"""Numerical verification campaigns over chain-hypothesis instances.

Universal quantifiers ("for every p >= 1", "for every s > 1") are tested on
finite grids with geometric escalation and are always labelled as samples,
never as proofs.  Each unit of work is a pure function of (instance,
parameter sample); per-instance randomness derives deterministically from
(master seed, instance index), so reports are reproducible bit for bit in
their mathematical columns.
"""
from __future__ import annotations

import itertools
import json
import math
import time
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property, lru_cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import chains, dsl
from .chains import Direction, ScalarExpr, Symbol
from .spectral import (
    STACK_RELATIONS,
    TOL_REL,
    HermitianMatrix,
    NonFiniteError,
    SpectralDecomposition,
    Verdict,
    WordBatch,
    _eigvalsh,
    _eye,
    any_set,
    classify_stack,
    concat_errors,
    decompose_stack,
    first_errors,
    flag_errors,
    gate_stack,
    healthy,
    identity,
    loewner_compare,
    margins_hold,
    matrix_to_json,
    operator_norm,
    positivity_margin,
    raise_first,
    require_strictly_positive,
    scalar_margins,
    scaled_margins_stack,
)

# Slack used by suite-level expectations (necessity, reduction chain);
# looser than the verdict tolerance so rounding never flips a true claim.
SUITE_TOL_REL = 1e-7

GRID_POINT_CAP = 10_000
# the factor by which PGrid.escalate extends a grid
GRID_GROWTH = 2.0

# Rows evaluated together are capped so that one batch holds at most about
# this many bytes of stacked (d, d) intermediates, whatever the grid size.
BATCH_BYTES = 4 << 20
# peak bytes per row and matrix entry while a campaign's largest chunk
# evaluates the slot words of all members, one environment per (instance,
# member) pair, and compares them (tracemalloc, grid schedule built or
# found): at k = 5 and 7, dims 2-4, 85-129 for real matrices and 162-207
# for complex ones, a peak of at most 3.4 MB.  A row also carries entries
# that do not grow with d^2 and grow with k, so the budget is exceeded at
# dim 1 (218-346 at k = 5 and 7, peaks up to 5.7 MB) and at k = 9 (233
# real and 356 complex at dim 2, up to 579 and 9.5 MB at dim 1)
_ROW_BYTES_PER_ENTRY = 256


def _rng(*seed_parts) -> np.random.Generator:
    return np.random.default_rng(list(int(s) for s in seed_parts))


@lru_cache(maxsize=None)
def _identity_batch(dim: int) -> WordBatch:
    """I as a comparison side of one row; its spectrum, all ones, is exact.
    Every caller shares it, so its arrays are read-only."""
    batch = WordBatch.known(np.eye(dim)[None], np.ones((1, dim)))
    for arr in (batch.values, batch.spectrum[0], *batch.distinct):
        arr.setflags(write=False)
    return batch


@dataclass(frozen=True, eq=False)
class OperatorTuple:
    """k strictly positive matrices of one dimension, with their
    positivity margins (smallest eigenvalues) exposed as delta data."""

    matrices: tuple[HermitianMatrix, ...]

    def __post_init__(self):
        mats = tuple(self.matrices)
        object.__setattr__(self, "matrices", mats)
        if len(mats) < 2:
            raise ValueError(f"need at least 2 matrices, got {len(mats)}")
        dims = {m.dim for m in mats}
        if len(dims) != 1:
            raise ValueError(f"matrices disagree on dimension: {sorted(dims)}")
        for m in mats:
            require_strictly_positive(m)

    @classmethod
    def trusted(cls, matrices) -> "OperatorTuple":
        """Wrap at least 2 matrices of one dimension that the caller has
        passed through the pd gate already, without checking them again."""
        obj = cls.__new__(cls)
        object.__setattr__(obj, "matrices", tuple(matrices))
        return obj

    @property
    def k(self) -> int:
        return len(self.matrices)

    @property
    def dim(self) -> int:
        return self.matrices[0].dim

    @property
    def margins(self) -> tuple[float, ...]:
        return tuple(positivity_margin(m) for m in self.matrices)

    @property
    def deltas(self) -> tuple[float, ...]:
        """Reciprocal positivity margins: A_i >= (1/delta_i) I."""
        return tuple(1.0 / m for m in self.margins)

    def to_json(self) -> list[dict]:
        return [matrix_to_json(m) for m in self.matrices]


def scalar_tuple(values) -> OperatorTuple:
    """1x1 tuple from plain scalars; handy for hand-checkable fixtures."""
    return OperatorTuple(tuple(HermitianMatrix(np.array([[float(v)]])) for v in values))


def _random_factor(rng: np.random.Generator, dim: int, field_kind: str,
                   count: int | None = None) -> np.ndarray:
    """A (dim, dim) Gaussian factor, or a (count, dim, dim) stack of them
    drawn in the order of count single draws."""
    lead = () if count is None else (count,)
    if field_kind == "complex":
        g = rng.standard_normal(lead + (2, dim, dim))
        return (g[..., 0, :, :] + 1j * g[..., 1, :, :]) / math.sqrt(2.0)
    return rng.standard_normal(lead + (dim, dim))


def _random_spds(rng, dim, count, field_kind="real", ridge=0.1) -> np.ndarray:
    """count strictly positive (dim, dim) arrays G*G + ridge I, symmetrized,
    drawn in the order of count single draws."""
    g = _random_factor(rng, dim, field_kind, count)
    a = g.conj().swapaxes(-1, -2) @ g + ridge * np.eye(dim)
    return 0.5 * (a + a.conj().swapaxes(-1, -2))


def gen_ordered_tuple(
    k: int,
    dim: int,
    seed,
    gap: float = 0.0,
    field_kind: str = "real",
    increment_scale: float = 1.0,
    max_norm: float | None = None,
) -> OperatorTuple:
    """Ordered witness tuple: A_1 = G'G + 0.1 I, then A_(i+1) = A_i +
    H_i'H_i + gap*I, so consecutive comparisons are GE by construction.

    increment_scale = 0 forces H_i = 0 (a degenerate, still ordered chain);
    max_norm rescales the whole tuple, which preserves the order.
    """
    if k < 2 or dim < 1:
        raise ValueError(f"need k >= 2 and dim >= 1, got k={k}, dim={dim}")
    rng = np.random.default_rng(seed)
    g = _random_factor(rng, dim, field_kind)
    current = g.conj().T @ g + 0.1 * np.eye(dim)
    mats = [current]
    for _ in range(k - 1):
        h = increment_scale * _random_factor(rng, dim, field_kind)
        current = current + h.conj().T @ h + gap * np.eye(dim)
        mats.append(current)
    if max_norm is not None:
        top = float(np.linalg.eigvalsh(mats[-1])[-1])
        scale = max_norm / top
        mats = [m * scale for m in mats]
    return OperatorTuple(tuple(HermitianMatrix(0.5 * (m + m.conj().T)) for m in mats))


# candidates an unordered tuple draws before its generator gives up
UNORDERED_ATTEMPTS = 200


def gen_unordered_tuple(k: int, dim: int, seed, field_kind: str = "real") -> OperatorTuple:
    """Strictly positive tuple with at least one adjacent pair that is not
    GE; regenerates, up to UNORDERED_ATTEMPTS times, until such a violation
    exists.  The one-instance case of ``gen_unordered_tuples``."""
    return gen_unordered_tuples(k, [(dim, seed)], field_kind)[0]


def gen_unordered_tuples(k: int, instances, field_kind: str = "real") -> list[OperatorTuple]:
    """``gen_unordered_tuple`` for a sequence of (dim, seed) instances: entry
    i is the tuple that ``gen_unordered_tuple(k, dim_i, seed_i)`` returns.

    Each instance draws its candidates from its own rng stream.  A round
    screens the current candidate of every undecided instance together, per
    dim: one stacked decomposition of all their matrices, which gives the pd
    gate, the norms of the comparison and the decomposition kept on each
    matrix for later powers, and one stacked comparison of all their
    adjacent pairs.  The first matrix, in draw order, that fails to
    decompose or the gate raises its error, and then the first pair whose
    comparison fails.
    """
    instances = [(int(dim), seed) for dim, seed in instances]
    if any(dim < 1 for dim, _ in instances):
        raise ValueError(f"need dim >= 1, got {sorted({d for d, _ in instances})}")
    rngs = [np.random.default_rng(seed) for _, seed in instances]
    found: list[OperatorTuple | None] = [None] * len(instances)
    todo = list(range(len(instances)))
    for _ in range(UNORDERED_ATTEMPTS):
        if not todo:
            break
        for dim in sorted({instances[i][0] for i in todo}):
            group = [i for i in todo if instances[i][0] == dim]
            arrs = np.concatenate([_random_spds(rngs[i], dim, k, field_kind) for i in group])
            lam, u, errors = decompose_stack(arrs)
            raise_first(gate_stack(lam, errors))
            upper = np.array([j * k + a for j in range(len(group)) for a in range(1, k)])
            ge, _, scale, errors = scaled_margins_stack(
                WordBatch.known(arrs[upper], lam[upper]),
                WordBatch.known(arrs[upper - 1], lam[upper - 1]))
            raise_first(errors)
            ordered = margins_hold(ge, scale, TOL_REL).reshape(len(group), k - 1).all(axis=1)
            for j, (i, done) in enumerate(zip(group, ordered.tolist())):
                if not done:
                    found[i] = OperatorTuple.trusted(
                        HermitianMatrix.trusted(arrs[m], SpectralDecomposition(lam[m], u[m]))
                        for m in range(j * k, (j + 1) * k))
        todo = [i for i in todo if found[i] is None]
    if todo:
        raise RuntimeError(
            f"no adjacent-order violation found in {UNORDERED_ATTEMPTS} attempts "
            f"(k={k}, dim={instances[todo[0]][0]})"
        )
    return found


@lru_cache(maxsize=None)
def _centers(lo: float, hi: float, k: int) -> np.ndarray:
    """k evenly spaced spectral centers from lo to hi, shared read-only."""
    centers = np.linspace(lo, hi, k)
    centers.setflags(write=False)
    return centers


def gen_contractive_tuple(
    k: int,
    dim: int,
    seed,
    band: tuple[float, float] = (0.80, 0.97),
    wobble: float = 0.01,
    field_kind: str = "real",
) -> OperatorTuple:
    """Ordered tuple with every spectrum inside (0, 1): A_i = c_i I +
    wobble * S_i with ascending c_i and unit-norm PSD perturbations.

    Requires wobble < gap/2 so the order survives the perturbation.  The
    reduction-chain checks are only pointwise valid in this contractive
    regime; generic ordered tuples break them at large p.
    """
    lo, hi = band
    if not 0.0 < lo < hi <= 1.0 - wobble:
        raise ValueError(f"band {band} with wobble {wobble} must sit inside (0, 1)")
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    centers = _centers(lo, hi, k)
    gap = centers[1] - centers[0]
    if not wobble < gap / 2:
        raise ValueError(f"wobble {wobble} must be below half the center gap {gap:.4f}")
    rng = np.random.default_rng(seed)
    # the k perturbations in the order of k single draws, normalized and
    # decomposed as stacks; each step equals its per-matrix form bit for bit
    s = _random_spds(rng, dim, k, field_kind, 0.0)
    evs, _ = _eigvalsh(s)
    s = s / np.maximum(evs[:, -1], 1e-12)[:, None, None]
    m = centers[:, None, None] * _eye(dim) + wobble * s
    # one checked decomposition of the symmetrized stack, kept on each
    # matrix for later powers; the first matrix that fails to decompose or
    # the pd gate raises its error
    arrs = 0.5 * (m + m.conj().swapaxes(-1, -2))
    lam, u, errors = decompose_stack(arrs)
    raise_first(gate_stack(lam, errors))
    return OperatorTuple.trusted(
        HermitianMatrix.trusted(arrs[i], SpectralDecomposition(lam[i], u[i])) for i in range(k))


def gen_suite_tuple(k: int, dim: int, seed, field_kind: str = "real") -> OperatorTuple:
    """Ordered tuple conditioned for campaigns over deep p-grids.

    Nested intermediates see their condition number raised to roughly the
    product of the sampled exponents, so the spectral band tightens with k
    to keep every intermediate above the strict-positivity gate (the gate
    errors instead of clamping, by design).
    """
    if k <= 3:
        return gen_contractive_tuple(k, dim, seed, band=(0.45, 0.97),
                                     wobble=0.01, field_kind=field_kind)
    return gen_contractive_tuple(k, dim, seed, band=(0.95, 0.992),
                                 wobble=0.002, field_kind=field_kind)


@dataclass(frozen=True)
class PGrid:
    """Finite, strictly ascending sample of the exponent range [1, inf), so
    that no point is sampled twice; escalate() appends the last point times
    GRID_GROWTH until the cap."""

    values: tuple[float, ...] = (1.0, 1.5, 2.0, 4.0, 8.0)
    cap: float = 64.0

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not vals or any(not (1.0 <= v < math.inf) for v in vals):
            raise ValueError(f"grid values must be finite and >= 1, got {vals}")
        if any(a >= b for a, b in zip(vals, vals[1:])):
            raise ValueError(f"grid values must ascend strictly, got {vals}")

    def escalate(self) -> "PGrid | None":
        nxt = self.values[-1] * GRID_GROWTH
        if nxt > self.cap:
            return None
        return PGrid(self.values + (nxt,), self.cap)

    def plan(self, n: int) -> "GridPlan | None":
        """The plan of the full Cartesian power of 2n grid values, built
        once per (values, n) and shared.  None when the product exceeds
        GRID_POINT_CAP."""
        if len(self.values) ** (2 * n) > GRID_POINT_CAP:
            return None
        return _grid_plan(self.values, n)

    def subsample(self, m: int, rng: np.random.Generator) -> list[tuple[float, ...]]:
        """GRID_POINT_CAP vectors of the grid's m-th Cartesian power, drawn
        by Latin-hypercube sampling, for a product too large to sample in
        full."""
        cap = GRID_POINT_CAP
        cols = []
        for _ in range(m):
            strata = (rng.permutation(cap) + rng.random(cap)) / cap
            idx = np.minimum((strata * len(self.values)).astype(int),
                             len(self.values) - 1)
            cols.append(np.asarray(self.values)[idx])
        return [tuple(float(c[i]) for c in cols) for i in range(cap)]


@dataclass(frozen=True, eq=False)
class GridPlan:
    """What depends on some sampled p-vectors alone, found once and shared
    read-only by the instances sampled on them: the vectors, their (N, 2n)
    table, its exact chain-exponent terms, the row schedule of the
    evaluation runs on each chunk of rows, the reduction's stacked
    groupings (``WordBatch.stack``) and its bounds' distinct prefixes.
    ``PGrid.plan`` caches a full product's plan; a subsample's serves one
    instance."""

    vectors: Sequence[tuple[float, ...]]
    stacks: dict = field(default_factory=dict, init=False, repr=False)
    _schedules: dict = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def table(self) -> np.ndarray:
        table = np.array(self.vectors, dtype=np.float64)
        table.setflags(write=False)
        return table

    @cached_property
    def chain_terms(self) -> chains.ChainTerms:
        return chains.chain_terms(self.table)

    @cached_property
    def bound_prefixes(self) -> tuple[np.ndarray, np.ndarray]:
        """(first, inverse) of the rows' p_2 .. p_(2n-1), which the
        reduction's bounds read: row i has the prefix of row first[inverse[i]]."""
        found = np.unique(self.table[:, 1:-1], axis=0, return_index=True, return_inverse=True)
        for arr in found[1:]:
            arr.setflags(write=False)
        return found[1], found[2].reshape(-1)

    def schedule(self, lo: int, hi: int) -> dsl.RowSchedule:
        """The row schedule of rows lo:hi (``_schedule``), which a run of
        several environments takes once per environment."""
        got = self._schedules.get((lo, hi))
        if got is None:
            got = self._schedules[lo, hi] = _schedule(self.table[lo:hi])
        return got


# a full product holds at most GRID_POINT_CAP vectors; keep the few grids a
# process escalates through, not every grid it ever sampled
@lru_cache(maxsize=32)
def _grid_plan(values: tuple[float, ...], n: int) -> GridPlan:
    return GridPlan(tuple(itertools.product(values, repeat=2 * n)))


@dataclass(frozen=True)
class WeightPolicy:
    """How hypothesis weights are chosen: a fixed vector, or the necessity
    formula recomputed from each sampled p-vector (all members equal)."""

    kind: str
    values: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind == "fixed" and not all(math.isfinite(v) and v > 0 for v in self.values):
            raise ValueError(f"fixed weights must be finite and positive, got {self.values}")

    @staticmethod
    def fixed(values) -> "WeightPolicy":
        return WeightPolicy("fixed", tuple(float(v) for v in values))

    @staticmethod
    def necessity() -> "WeightPolicy":
        return WeightPolicy("necessity")

    @staticmethod
    def parse(text: str) -> "WeightPolicy":
        if text == "necessity":
            return WeightPolicy.necessity()
        if text.startswith("fixed:"):
            return WeightPolicy.fixed(float(v) for v in text[6:].split(","))
        raise ValueError(f"unknown weight policy {text!r}")

    def describe(self) -> str:
        if self.kind == "fixed":
            return "fixed:" + ",".join(repr(v) for v in self.values)
        return self.kind

    def require(self, count: int) -> None:
        """Raise ValueError unless the policy gives ``count`` weights."""
        if self.kind == "fixed" and len(self.values) != count:
            raise ValueError(f"fixed policy carries {len(self.values)} weights, need {count}")

    def weights(self, t, plan: GridPlan, r: float, count: int) -> np.ndarray:
        """The (N, count) weights w1 .. w_count for each row of a plan's
        (N, 2n) p-table, read-only (a fixed policy's row is broadcast)."""
        self.require(count)
        if self.kind == "fixed":
            return np.broadcast_to(np.asarray(self.values, dtype=np.float64),
                                   (len(plan.table), len(self.values)))
        w = chains.necessity_weights(t, plan.chain_terms, r)
        return np.repeat(w[:, None], count, axis=1)


# the ranges a template is drawn from: t_1, each later t, and r - t_n
TEMPLATE_RANGES = ((0.05, 0.95), (0.05, 0.95), (0.1, 2.0))
# t_1 near 1 and the later t small, so the reduction's contraction holds
CONTRACTIVE_RANGES = ((0.75, 0.95), (0.05, 0.15), (0.3, 1.2))


@dataclass(frozen=True)
class ParamTemplate:
    """The per-instance scalars that stay fixed while p is sampled."""

    t: tuple[float, ...]
    r: float

    def __post_init__(self):
        object.__setattr__(self, "t", tuple(float(v) for v in self.t))
        object.__setattr__(self, "r", float(self.r))
        if not self.t:
            raise ValueError("need at least one t value")
        if any(not 0.0 <= v <= 1.0 for v in self.t):
            raise ValueError(f"every t must lie in [0, 1], got {self.t}")
        if not (math.isfinite(self.r) and self.r > self.t[-1]):
            raise ValueError(f"r must be finite and exceed t_n = {self.t[-1]}, got {self.r}")

    @property
    def n(self) -> int:
        return len(self.t)

    @classmethod
    def draw(cls, rng: np.random.Generator, n: int, t=None, r=None,
             ranges=TEMPLATE_RANGES) -> "ParamTemplate":
        """A template of n t values: one uniform draw per t position in
        order, then one for r's gap above t_n; a given t or r is taken as
        it is, and its draws are skipped."""
        first, rest, gap = ranges
        if t is None:
            t = tuple(rng.uniform(*(rest if i else first)) for i in range(n))
        if r is None:
            r = t[-1] + rng.uniform(*gap)
        return cls(t=t, r=r)


# verdict column codes: those of classify_stack, then ERROR
VERDICTS = tuple(rel.value for rel in STACK_RELATIONS) + ("ERROR",)
ERROR_CODE = len(VERDICTS) - 1


class CampaignMember(NamedTuple):
    """The check of one hypothesis member on one instance: the instance id,
    the tuple's k and dim, the member and its relation, and its points,
    the instance's sampled p-vectors."""

    instance_id: str
    k: int
    dim: int
    family: str
    member: int
    relation: str
    points: Sequence[tuple[float, ...]]


class Comparison(NamedTuple):
    """The check of one comparison at its points, as ``run`` makes it: left
    word against right (None is I), the margin of ``relation``
    (lambda_min(left - right) for GE, else lambda_min(right - left)) and the
    verdict of left against right, with the left side as p of
    ``scaled_margins_stack``.  A row takes the left side's error, then the
    right's, then, with ``weight`` (a per-row column and its name), one
    where the weight is not positive.  A left side that names a per-row
    column c is c*I (no weight), judged against the right word's spectrum
    by ``scalar_margins``: a row takes that word's error, then its
    spectrum's, then a non-finite "reduction margin" error."""

    name: str
    points: Sequence = ()
    left: object = None
    right: object = None
    relation: Direction = Direction.GE
    weight: tuple[str, str] | None = None


class MarginRow(NamedTuple):
    """One row of a MarginTable as a record: its check, the point it was
    sampled at (a p-vector or an exponent), its margin, scale and verdict,
    its error text (None unless the verdict is ERROR) and the mode's extra
    columns by name.  Any other attribute reads an extra column (w,
    seconds), else a field of the check (a campaign row's instance_id,
    family, member, ...)."""

    check: object
    point: object
    margin: float
    scale: float
    verdict: str
    error: str | None
    extra: dict

    def __getattr__(self, name):
        if name in self.extra:
            return self.extra[name]
        return getattr(self.check, name)

    @property
    def p_vector(self) -> tuple[float, ...]:
        """The point of a row sampled at a p-vector, by the name campaign
        rows had and the benchmark's reference script reads."""
        return self.point


@dataclass(eq=False)
class MarginTable:
    """Margins of checks at sampled points as one columnar table, judged by
    one rule at tol_rel: a row holds when its margin is finite and at or
    above -tol_rel * scale (``margins_hold``).

    ``checks`` are what the rows test (CampaignMembers or Comparisons),
    each with the ``points`` it is sampled at.  ``columns`` maps check,
    point, margin, scale and verdict, and the extra columns (a run's w and
    seconds), to an array with one entry per row: ``check`` indexes
    ``checks``, ``point`` that check's points and ``verdict`` VERDICTS.
    ``errors`` is the row-error array the table was judged with, None
    while no row failed: entry i is None or the exception of ERROR row i,
    which has a NaN margin, scale 1 and NaN extra columns but seconds
    (``judged``).  A row's error text is formatted only when it is read
    (``error_text``).
    """

    checks: tuple
    columns: dict[str, np.ndarray]
    errors: np.ndarray | None
    tol_rel: float

    @classmethod
    def judged(cls, checks, check, point, margin, scale, verdict, errors, tol_rel,
               **extra) -> "MarginTable":
        """A table of the given columns under the ERROR convention: each row
        with an error in ``errors`` (a row-error array, or None when no row
        failed) gets a NaN margin and NaN extra columns, scale 1 and verdict
        ERROR.  ``verdict`` holds classify_stack codes."""
        columns = {"check": check, "point": point, "margin": margin, "scale": scale,
                   "verdict": verdict, **extra}
        bad = () if errors is None else np.flatnonzero(~healthy(errors))
        if len(bad):
            fills = dict.fromkeys(("margin", *extra), math.nan)
            fills.update(scale=1.0, verdict=ERROR_CODE)
            for name, fill in fills.items():
                col = columns[name] = columns[name].copy()
                col[bad] = fill
        return cls(tuple(checks), columns, errors if len(bad) else None, tol_rel)

    @classmethod
    def concat(cls, tables: Sequence["MarginTable"]) -> "MarginTable":
        """The rows of ``tables`` in turn, each table's checks after those
        of the tables before it; they share their columns and tol_rel."""
        parts = [{**t.columns, "check": t.columns["check"] + offset} for t, offset
                 in zip(tables, itertools.accumulate([0] + [len(t.checks) for t in tables]))]
        return cls(tuple(itertools.chain.from_iterable(t.checks for t in tables)),
                   {name: np.concatenate([part[name] for part in parts]) for name in parts[0]},
                   concat_errors([t.errors for t in tables], [len(t) for t in tables]),
                   tables[0].tol_rel)

    def __len__(self) -> int:
        return len(self.columns["margin"])

    @property
    def error_rows(self) -> np.ndarray:
        """Mask of the ERROR rows."""
        return self.columns["verdict"] == ERROR_CODE

    def error_text(self, i: int) -> str | None:
        """The error text of row i; None unless it is an ERROR row."""
        error = None if self.errors is None else self.errors[i]
        return None if error is None else str(error)

    def holds(self) -> np.ndarray:
        """Per-row pass mask at the table's tol_rel; the NaN margin of an
        ERROR row fails."""
        return margins_hold(self.columns["margin"], self.columns["scale"], self.tol_rel)

    def failures(self) -> np.ndarray:
        """Mask of the rows whose computed, finite margin fails at the
        table's tol_rel; an ERROR row is never one."""
        return ~self.holds() & ~self.error_rows

    @property
    def rows(self) -> "RowView":
        return RowView(self)

    def _row(self, i: int) -> MarginRow:
        return self._record(i, [col[i].item() for col in self.columns.values()])

    def _iter_rows(self):
        for i, values in enumerate(zip(*(col.tolist() for col in self.columns.values()))):
            yield self._record(i, values)

    def _record(self, i: int, values) -> MarginRow:
        extra = dict(zip(self.columns, values))
        check = self.checks[extra.pop("check")]
        return MarginRow(check, check.points[extra.pop("point")], extra.pop("margin"),
                         extra.pop("scale"), VERDICTS[extra.pop("verdict")], self.error_text(i),
                         extra)


class RowView(Sequence):
    """A MarginTable's rows as records, built when read: row i with the
    table's ``_row(i)`` and every row in turn with its ``_iter_rows()``."""

    def __init__(self, table: MarginTable):
        self._table = table

    def __len__(self) -> int:
        return len(self._table)

    def __getitem__(self, index):
        rows = range(len(self))[index]  # a negative index counts from the end
        return [self._table._row(i) for i in rows] if isinstance(index, slice) \
            else self._table._row(rows)

    def __iter__(self):
        return self._table._iter_rows()


_CSV_COLUMNS = ("instance_id", "k", "dim", "family", "member", "p_vector",
                "w", "relation", "margin", "verdict", "seconds")


@dataclass(eq=False)
class CampaignReport:
    """A campaign's margin table, with the config and master seed that
    reproduce it.  The table's checks are CampaignMembers, its extra
    columns w and seconds; it is judged at the suite slack, and so are the
    summary and the CLI exit code.  ``rows`` are the table's rows."""

    table: MarginTable
    config: dict
    master_seed: int

    @property
    def rows(self) -> RowView:
        return self.table.rows

    def outcomes(self) -> dict[int, tuple[float | None, int]]:
        """What each instance's rows showed, keyed by its index (the
        instance id), in report order: the smallest margin among its rows
        that fail with a computed margin (None when none does) and its
        number of ERROR rows.  A report holds each instance's rows in turn."""
        table = self.table
        index = np.array([int(m.instance_id) for m in table.checks])[table.columns["check"]]
        new = np.empty(len(index), dtype=bool)
        new[:1] = True
        np.not_equal(index[1:], index[:-1], out=new[1:])
        starts = np.flatnonzero(new)
        # a row that holds counts inf, and an ERROR row's NaN margin is
        # passed over by fmin (every other margin is finite); an instance
        # without a failing row gets inf, or NaN when all its rows are ERROR
        worst = np.fmin.reduceat(np.where(table.holds(), np.inf, table.columns["margin"]),
                                 starts)
        errors = [0] * len(starts) if table.errors is None else \
            np.add.reduceat(table.error_rows, starts, dtype=np.intp).tolist()
        return {idx: (margin if margin < math.inf else None, count)
                for idx, margin, count in zip(index[starts].tolist(), worst.tolist(), errors)}

    def summary(self) -> dict:
        table = self.table
        passed = int(np.count_nonzero(table.holds()))
        errors = table.error_rows
        finite = table.columns["margin"][~errors]
        return {
            "rows": len(table),
            "pass": passed,
            "fail": len(table) - passed,
            "error": int(np.count_nonzero(errors)),
            "worst_margin": min(finite.tolist()) if len(finite) else float("nan"),
        }

    def csv_text(self) -> str:
        members = self.table.checks
        # p-vector texts per p-vector list, shared by the members of an
        # instance; each distinct p value (a float >= 1, see PGrid) is
        # formatted once, and a grid product holds few
        p_texts: dict[int, list[str]] = {}
        for m in members:
            if id(m.points) not in p_texts:
                value_texts = {v: repr(v) for v in set(itertools.chain.from_iterable(m.points))}
                p_texts[id(m.points)] = [";".join(map(value_texts.__getitem__, p_vec))
                                         for p_vec in m.points]
        heads = [f"{m.instance_id},{m.k},{m.dim},{m.family},{m.member}," for m in members]
        member_p_texts = [p_texts[id(m.points)] for m in members]
        relations = [m.relation for m in members]
        names = ("check", "point", "w", "margin", "verdict", "seconds")
        cols = [self.table.columns[name].tolist() for name in names]
        # w repeats across members and seconds across a batch: format each once
        w_texts = {w: repr(w) for w in set(cols[2])}
        s_texts = {s: f"{s:.6f}" for s in set(cols[5])}
        lines = [",".join(_CSV_COLUMNS)]
        lines += [f"{heads[member]}{member_p_texts[member][point]},{w_texts[w]},"
                  f"{relations[member]},{margin!r},{VERDICTS[verdict]},{s_texts[seconds]}"
                  for member, point, w, margin, verdict, seconds in zip(*cols)]
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        """CSV report plus a <path>.json sidecar carrying the full config
        and master seed needed to reproduce every row.  A path that is not
        a regular file (a pipe, /dev/stdout) gets no sidecar."""
        path = Path(path)
        path.write_text(self.csv_text())
        if not path.is_file():
            return
        sidecar = {
            "config": self.config,
            "master_seed": self.master_seed,
            "summary": self.summary(),
        }
        Path(str(path) + ".json").write_text(json.dumps(sidecar, indent=2) + "\n")


def _environment(tup: OperatorTuple, template: ParamTemplate, slots=None) -> dsl.Environment:
    """The bindings shared by every row: the tuple's matrices, r and the t
    values.  Symbol s binds A_s, or A_slots[s-1] when ``slots`` is given
    (``chains.member_slots``)."""
    scalars = {"r": template.r}
    scalars.update((f"t{i}", tv) for i, tv in enumerate(template.t, 1))
    indices = range(1, tup.k + 1) if slots is None else slots
    matrices = {s: tup.matrices[i - 1] for s, i in enumerate(indices, 1)}
    return dsl.Environment(scalars=scalars, matrices=matrices)


def _p_samples(grid: PGrid, n: int, master_seed: int, instance_index: int,
               stream: int) -> GridPlan:
    """The plan of the grid's 2n-vectors: the shared full product's, or
    that of a subsample drawn from the rng that ``stream`` picks."""
    plan = grid.plan(n)
    if plan is not None:
        return plan
    return GridPlan(grid.subsample(2 * n, _rng(master_seed, instance_index, stream)))


def _p_columns(p_table: np.ndarray) -> dict[str, np.ndarray]:
    return {f"p{j + 1}": p_table[:, j] for j in range(p_table.shape[1])}


def _schedule(p_table: np.ndarray) -> dsl.RowSchedule:
    """The row schedule of rows of p-vectors: their p-columns, with the
    peeled bound's q_j keyed to p_j (``chains.peeled_bindings``)."""
    return dsl.RowSchedule(_p_columns(p_table),
                           {f"q{j}": f"p{j}" for j in range(2, p_table.shape[1])})


def _batch_rows(dim: int) -> int:
    """Rows one evaluation holds under BATCH_BYTES."""
    return max(1, BATCH_BYTES // (_ROW_BYTES_PER_ENTRY * dim * dim))


def _batches(total: int, dim: int, early_exit: bool, width: int = 1):
    """(lo, hi) row ranges of rows 0 .. total - 1 to evaluate together: as
    many as BATCH_BYTES allows when each row stands for ``width`` evaluated
    rows, or, when the caller stops at its first failing row, doubling
    ranges of 1, 1, 2, 4, ... rows under the same cap."""
    cap = max(1, _batch_rows(dim) // width)
    lo = 0
    while lo < total:
        step = min(cap, max(1, lo)) if early_exit else cap
        yield lo, min(total, lo + step)
        lo += step


class Instance(NamedTuple):
    """One instance of a campaign: its tuple, parameter template and weight
    policy, and its index, which seeds its p-vector sampling and is its id
    in the report."""

    tup: OperatorTuple
    template: ParamTemplate
    policy: WeightPolicy
    index: int = 0


class Subject(NamedTuple):
    """An instance as ``run`` samples it: its points; ``env(c)``, taken when
    comparison c is reached (comparisons given one environment share its
    rows); ``rows(c, lo, hi)``, the per-row columns (weights, c) of points
    lo .. hi - 1; and the plan whose p-columns it binds too."""

    points: Sequence
    env: Callable
    rows: Callable
    plan: GridPlan | None = None


def run(comparisons: Sequence[Comparison], subjects: Sequence[Subject], *,
        early_exit: bool = False, tol_rel: float = TOL_REL,
        pass_tol_rel: float | None = None) -> MarginTable:
    """The margins of the comparisons on the subjects (as many points each)
    in one table, verdicts at tol_rel, judged at pass_tol_rel (default
    tol_rel): each subject's rows in turn, comparison by comparison, as
    check j * len(comparisons) + c at the subject's points.  Per chunk of
    points under BATCH_BYTES, the pairs' words are evaluated in one
    ``dsl.evaluate_batch`` run and their matrix sides compared in one
    ``scaled_margins_stack``, a segment (``WordBatch.stack``) per distinct
    sides; c*I reads its word's spectrum off that stacked q side when it
    can.  The raw columns are judged once, at the end, with w (NaN without
    a weight) in a weighted run and seconds (each row's share of its
    chunk's time).  With early_exit the comparisons go one at a time,
    chunks grow 1, 1, 2, 4, ... points and a subject ends at its first
    failing row."""
    count, weighted = len(comparisons), any(comp.weight is not None for comp in comparisons)
    pass_tol = tol_rel if pass_tol_rel is None else pass_tol_rel
    env = cache(lambda j, c: subjects[j].env(c))
    ge_checks = np.array([comp.relation is Direction.GE for comp in comparisons])

    def take(cols: list, index) -> list:  # the rows ``index`` of columns, None kept
        return [None if col is None else col[index] for col in cols]

    def chunk(pairs, lo: int, hi: int) -> list:
        """The pairs' ge and le (of left against right), scale, errors and w
        (None in a run without weights), pair by pair: pair i's at rows
        i * (hi - lo) .. (i + 1) * (hi - lo) - 1."""
        size = hi - lo
        # a block of rows per distinct environment, a segment per distinct
        # matrix sides; each pair's rows are a block of one segment's, or
        # (c*I) one after the segments
        blocks, segments, words = {}, {}, {}
        block_of = [blocks.setdefault(id(env(j, c)), (len(blocks), j, c))[0] for j, c in pairs]
        # each comparison's segment, None for c*I, and its words in order of first use
        seg_at = dict.fromkeys(c for _, c in pairs)
        for c in seg_at:
            comp = comparisons[c]
            if not isinstance(comp.left, str):
                seg_at[c] = segments.setdefault((id(comp.left), id(comp.right)),
                                                (len(segments), comp))[0]
            words.update((id(w), w) for w in (comp.right, comp.left)
                         if not isinstance(w, (str, type(None))))
        seg_of = [seg_at[c] for _, c in pairs]
        bound = [(env(j, c), subjects[j].plan, subjects[j].rows(c, lo, hi))
                 for _, j, c in blocks.values()]
        (first_env, plan, columns), width = bound[0], len(bound)
        rows, instance, stacks, schedule = width * size, None, {}, None
        if width > 1:
            columns = {name: np.concatenate([b[2][name] for b in bound]) for name in columns}
            instance = np.arange(width).repeat(size)
        if plan is not None and all(p is plan for _, p, _ in bound):
            # a block of the plan's rows per environment; the stacked
            # groupings, held by the ids of a run's own arrays, are kept
            # only for a lone environment's
            schedule = plan.schedule(lo, hi)
            if width == 1:
                stacks = plan.stacks
        elif plan is not None:  # the subjects of a run have plans or none
            # subjects on plans of their own: a schedule of this chunk alone
            schedule = _schedule(np.concatenate([p.table[lo:hi] for _, p, _ in bound]))
        values = dsl.evaluate_batch(tuple(words.values()), [e for e, _, _ in bound], columns,
                                    instance, schedule)
        # each side's batch by the id of its word, None's the identity
        values = {id(None): _identity_batch(first_env.dim), **dict(zip(words, values))}

        def block(b: int) -> slice:  # row block b of a side
            return slice(b * size, (b + 1) * size)

        # the row block of each pair among the comparison's and then the c*I rows
        matrix_blocks = len(segments) * width
        at, scalar_pairs = [], []
        for k, (b, s) in enumerate(zip(block_of, seg_of)):
            if s is None:
                scalar_pairs.append(k)
                at.append(matrix_blocks + len(scalar_pairs) - 1)
            else:
                at.append(s * width + b)
        w = None
        if weighted:
            w = np.concatenate([np.full(size, np.nan) if comparisons[c].weight is None
                                else columns[comparisons[c].weight[0]][block(b)]
                                for (_, c), b in zip(pairs, block_of)])
        pq = [(values[id(comp.left)], values[id(comp.right)]) for _, comp in segments.values()]
        errors = concat_errors([first_errors(left.row_errors, right.row_errors)
                                for left, right in pq], [rows] * len(pq))
        # a weight w <= 0 (from an overflowed chain exponent) would make its
        # side I; a pair without a weight (c*I among them) has a NaN w
        if weighted and any_set(w <= 0):
            for k, (_, c) in enumerate(pairs):
                pair_w = w[block(k)]
                if any_set(pair_w <= 0):
                    bad = np.zeros(len(pq) * rows, dtype=bool)
                    bad[block(at[k])] = pair_w <= 0
                    errors = flag_errors(errors, bad, lambda i, w=pair_w, c=c: dsl.EvaluationError(
                        f"weight {comparisons[c].weight[1]} = {float(w[i % size])!r} "
                        f"is not positive"))
        cols = []
        if pq:
            p, q = (pq[0][i] if len(pq) == 1 else WordBatch.stack(
                [side[i] for side in pq], rows, stacks)
                for i in (0, 1))
            cols.append(scaled_margins_stack(p, q, errors))
        for k in scalar_pairs:
            # c*I: its word's spectrum off the stacked q side when it is one
            # there, so that each value is decomposed once
            comp, b = comparisons[pairs[k][1]], block_of[k]
            right = values[id(comp.right)]
            t = next((t for t, (_, side) in enumerate(pq) if side is right), None)
            side, rows_at = (right, block(b)) if t is None else (q, block(t * width + b))
            lam, side_errors = side.spectrum
            got = scalar_margins(columns[comp.left][block(b)], lam[rows_at])
            side_errors = first_errors(side.row_errors, side_errors)
            cols.append(got + (flag_errors(None if side_errors is None else side_errors[rows_at],
                                           ~np.isfinite(got).all(axis=0),
                                           lambda i: NonFiniteError("reduction margin")),))
        cols = list(cols[0]) if len(cols) == 1 else (
            [np.concatenate(col) for col in list(zip(*cols))[:3]]
            + [concat_errors([col[3] for col in cols], [len(col[0]) for col in cols])])
        if at != list(range(matrix_blocks + len(scalar_pairs))):
            # some pair's rows are not where its place in the pairs puts them
            cols = take(cols, (np.array(at)[:, None] * size + np.arange(size)).reshape(-1))
        return cols + [w]

    # per chunk: the check, point, ge, le, scale, w and errors of its kept
    # rows, and its seconds per row
    parts, seconds, stopped = [], [], set()
    active = list(range(len(subjects)))
    groups = [[c] for c in range(count)] if early_exit else [range(count)]
    for group in itertools.takewhile(lambda _: active, groups):
        width = len({id(env(active[0], c)) for c in group})
        dim = env(active[0], group[0]).dim
        chunks = _batches(len(subjects[0].points), dim, early_exit, width)
        for lo, hi in itertools.takewhile(lambda _: active, chunks):
            size = hi - lo
            per_call = max(1, _batch_rows(dim) // (size * width))
            for first in range(0, len(active), per_call):
                pairs = [(j, c) for j in active[first:first + per_call] for c in group]
                started = time.perf_counter()
                ge, le, scale, errors, w = chunk(pairs, lo, hi)
                seconds.append((time.perf_counter() - started) / len(ge))
                rows = [np.array([j * count + c for j, c in pairs]).repeat(size),
                        np.arange(len(ge)) % size + lo, ge, le, scale, w, errors]
                if early_exit:
                    # the rows of each pair up to its first failing one (an
                    # early-exit group is one comparison); error rows are
                    # indeterminate, not violations
                    fails = ~margins_hold(ge if ge_checks[group[0]] else le, scale, pass_tol)
                    if errors is not None:
                        fails &= healthy(errors)
                    if any_set(fails):
                        fails = fails.reshape(len(pairs), size)
                        failed = np.logical_or.reduce(fails, axis=1)
                        stopped.update(j for (j, _), hit in zip(pairs, failed.tolist()) if hit)
                        if size > 1:  # a chunk of one row keeps it
                            rows = take(rows, ((np.arange(size) <= fails.argmax(axis=1)[:, None])
                                               | ~failed[:, None]).reshape(-1))
                parts.append(rows)
            active = [j for j in active if j not in stopped]
    # each check's rows in turn, in point order: a check's chunks come in
    # point order, so a stable sort by check keeps them so
    *cols, errors = zip(*parts)
    sizes = [len(col) for col in cols[0]]
    cols = [None if col[0] is None else np.concatenate(col) for col in cols]
    cols += [concat_errors(errors, sizes), np.repeat(seconds, sizes)]
    if len(parts) > 1:
        cols = take(cols, cols[0].argsort(kind="stable"))
    check, point, ge, le, scale, w, errors, seconds = cols
    table = MarginTable.judged(
        tuple(Comparison(c.name, s.points, c.left, c.right, c.relation, c.weight)
              for s in subjects for c in comparisons),
        check, point, np.where(ge_checks[check % count], ge, le), scale,
        classify_stack(ge, le, scale, tol_rel), errors, pass_tol,
        **({"w": w} if weighted else {}))
    table.columns["seconds"] = seconds
    return table


def check_hypotheses(
    instances: Sequence[Instance],
    grid: PGrid,
    *,
    tol_rel: float = TOL_REL,
    master_seed: int = 0,
    stop_on_violation: bool = False,
    suite_tol_rel: float = SUITE_TOL_REL,
) -> CampaignReport:
    """Evaluate every hypothesis member of every instance at every sampled
    p-vector.

    Rows record the verdict of the expected relation together with its
    directional margin; evaluation errors, of either side or of a
    non-positive weight, are recorded per row and never abort the campaign.

    The instances share one k and dim and are scanned in one ``run``, each
    on its own p-vectors.  Every member compares the slot words
    ``chains.slot_words(k)`` under its own environment, which binds each
    slot to the member's operator (``chains.member_slots``), with its
    weight as the per-row column w: members differ in their bindings only.
    With stop_on_violation (the run's early exit) each instance's rows end
    at its first violating one.  The report is the run's table, each
    instance's rows in turn, member by member, with CampaignMember checks.
    """
    if not instances:
        raise ValueError("a campaign needs at least one instance")
    k, dim = instances[0].tup.k, instances[0].tup.dim
    n = k // 2
    for inst in instances:
        if (inst.tup.k, inst.tup.dim) != (k, dim):
            raise ValueError(f"batched instances need k={k} and dim={dim}, "
                             f"got k={inst.tup.k} and dim={inst.tup.dim}")
        if inst.template.n != n:
            raise ValueError(f"template has {inst.template.n} t-values, tuple needs {n}")
    members, slots, w_columns, fields = _campaign_members(k)
    plans = [_p_samples(grid, n, master_seed, inst.index, 1) for inst in instances]

    def subject(inst: Instance, plan: GridPlan) -> Subject:
        weights = inst.policy.weights(inst.template.t, plan, inst.template.r, count=k - 1)
        return Subject(plan.vectors,
                       lambda c: _environment(inst.tup, inst.template, slots[c]),
                       lambda c, lo, hi: {"w": weights[lo:hi, w_columns[c]]}, plan)

    table = run(members, [subject(inst, plan) for inst, plan in zip(instances, plans)],
                early_exit=stop_on_violation, tol_rel=tol_rel, pass_tol_rel=suite_tol_rel)
    # the run's checks are the members at each instance's points, in this order
    checks = tuple(CampaignMember(str(inst.index), k, dim, *member, plan.vectors)
                   for inst, plan in zip(instances, plans) for member in fields)
    table = MarginTable(checks, table.columns, table.errors, table.tol_rel)
    stopped = stop_on_violation and any_set(table.failures())
    return CampaignReport(table, {"stopped_early": True} if stopped else {}, master_seed)


@lru_cache(maxsize=None)
def _campaign_members(k: int) -> tuple:
    """The hypothesis members of size k as a campaign checks them, built
    once: each member's comparison of the slot words (``chains.slot_words``)
    with its weight as the per-row column w, its operator at each slot
    (``chains.member_slots``), the column of its weight among a policy's
    weights, and its family, number and relation as its CampaignMember
    reads them."""
    chain_list, n = chains.hypothesis_set(k), k // 2
    lhs_word, rhs_word = chains.slot_words(k)
    w_index = [chains.weight_index(c.family, c.member, n) for c in chain_list]
    return (tuple(Comparison(c.family.value, (), lhs_word, rhs_word, c.direction,
                             weight=("w", f"w{i}")) for c, i in zip(chain_list, w_index)),
            tuple(chains.member_slots(c.family, c.member, k) for c in chain_list),
            tuple(i - 1 for i in w_index),
            tuple((c.family.value, c.member, c.direction.value) for c in chain_list))


def check_conclusion(tup: OperatorTuple, tol_rel: float = TOL_REL) -> list[Verdict]:
    """Adjacent comparisons A_(i+1) vs A_i for i = 1 .. k-1."""
    return [
        loewner_compare(tup.matrices[i + 1], tup.matrices[i], tol_rel=tol_rel)
        for i in range(tup.k - 1)
    ]


# The probes' words, with P bound as A1 and Q as A2 and exponent names of
# their own (a, s, d): the Loewner-Heinz pair P^a, Q^a, and the sides P^(r+d)
# and (P^(r/2) Q^s P^(r/2))^w1 of the contraction criterion.
_LOEWNER_HEINZ_WORDS = (Symbol(1, ScalarExpr.variable("a")), Symbol(2, ScalarExpr.variable("a")))
_CONTRACTION_WORDS = (Symbol(1, ScalarExpr.variable("r") + ScalarExpr.variable("d")),
                      chains.sandwich(1, ScalarExpr.variable("r", Fraction(1, 2)),
                                      Symbol(2, ScalarExpr.variable("s")), "w1"))


@dataclass
class MonotonePowerReport:
    """Per-exponent outcome of pushing an ordered pair through powers: one
    row per exponent a of the Comparison "a", P^a against Q^a.  No table
    when the precondition fails."""

    precondition_ok: bool
    table: MarginTable | None


def probe_loewner_heinz(
    p: HermitianMatrix,
    q: HermitianMatrix,
    alphas=(0.0, 0.25, 0.5, 0.75, 1.0),
    tol_rel: float = TOL_REL,
) -> MonotonePowerReport:
    """Check P^a vs Q^a over the exponents; pairs must satisfy P >= Q >= 0
    first, otherwise the probe is skipped with precondition_ok False.

    Exponents inside [0, 1] are expected to stay GE; exponents beyond 1 are
    allowed to break, which is what the fixed witness pair demonstrates.
    """
    alphas = tuple(float(a) for a in alphas)
    if not alphas:
        raise ValueError("alphas is empty: need at least one exponent")
    base = loewner_compare(p, q, tol_rel=tol_rel)
    q_psd = margins_hold(*scalar_margins(0.0, q.decomposition().eigenvalues)[1:], tol_rel)
    if not (base.ge and q_psd):
        return MonotonePowerReport(precondition_ok=False, table=None)
    env = dsl.Environment(scalars={}, matrices={1: p, 2: q})
    return MonotonePowerReport(precondition_ok=True, table=run(
        [Comparison("a", alphas, *_LOEWNER_HEINZ_WORDS)],
        [Subject(alphas, lambda c: env, lambda c, lo, hi: {"a": alphas[lo:hi]})], tol_rel=tol_rel))


@dataclass
class ContractionProbeReport:
    table: MarginTable  # one row per s sampled, of the Comparison "s"
    hypothesis_holds: bool
    conclusion: Verdict                 # Q vs I, expected LE
    implication_status: str  # confirmed|hypothesis_fails|violation_witness|indeterminate
    cross_check_required: bool
    cross_check_ok: bool | None
    failure_s: float | None


# the contraction probe's escalation past its s grid: factor and cap
S_GROWTH = 2.0
S_CAP = 1e6
# a norm or bound beyond this is declared above 1: the probes' resolution
DECLARED_ABOVE_ONE = 1.0 + 1e-6


def probe_contraction_criterion(
    p: HermitianMatrix,
    q: HermitianMatrix,
    r: float,
    delta: float,
    w: float,
    s_values=(1.5, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0),
    *,
    tol_rel: float = TOL_REL,
) -> ContractionProbeReport:
    """Probe the implication: P^(r+delta) >= (P^(r/2) Q^s P^(r/2))^w for
    every s > 1 forces Q <= I.

    The hypothesis is sampled on the s grid in one ``run``.  When Q has an
    eigenvalue above DECLARED_ABOVE_ONE the hypothesis must eventually fail
    because Q^s grows geometrically, so without a failing s on the grid,
    s_last * S_GROWTH^j up to S_CAP are evaluated up to the first failing s
    (none is a cross-check failure), in an early-exit run of their own;
    the table holds the grid's rows, then those of the escalation.  An
    ERROR row is never a failing s; with none, one on the grid makes the
    status "indeterminate" and one escalated leaves the cross-check
    undecided (None).  w = 0 makes the hypothesis vacuous and is rejected.
    """
    if not s_values or any(s <= 1.0 for s in s_values):
        raise ValueError(f"s_values must hold at least one s, each above 1, got {tuple(s_values)}")
    if not (r > 0 and r + delta > 0):
        raise ValueError(f"need r > 0 and r + delta > 0, got r={r}, delta={delta}")
    if not 0.0 < w <= 1.0:
        raise ValueError(f"w must lie in (0, 1], got {w}")
    for m in (p, q):
        require_strictly_positive(m)
    env = dsl.Environment(scalars={"r": r, "d": delta, "w1": w}, matrices={1: p, 2: q})

    def sample(points: tuple, early_exit: bool = False) -> MarginTable:
        return run([Comparison("s", (), *_CONTRACTION_WORDS)], [Subject(
            points, lambda c: env, lambda c, lo, hi: {"s": points[lo:hi]})],
            early_exit=early_exit, tol_rel=tol_rel)

    # the grid's points, then those of the escalation
    points = [float(s) for s in s_values]
    while points[-1] * S_GROWTH <= S_CAP:
        points.append(points[-1] * S_GROWTH)
    escalation = tuple(points[len(s_values):])
    table = sample(tuple(points[:len(s_values)]))
    grid_error = bool(table.error_rows.any())
    failure_s = first = next((row.point for row, bad in zip(table.rows, table.failures()) if bad),
                             None)
    conclusion = loewner_compare(q, identity(q.dim), tol_rel=tol_rel)

    needs_cross = operator_norm(q) > DECLARED_ABOVE_ONE
    cross_ok = (failure_s is not None) if needs_cross else None
    # with no s left below S_CAP, the escalation ends at once without a
    # failure; it stops at its first failing s
    if needs_cross and failure_s is None and escalation:
        more = sample(escalation, early_exit=True)
        failure_s = more.rows[-1].point if any_set(more.failures()) else None
        cross_ok = True if failure_s is not None else None if more.error_rows.any() else False
        table = MarginTable.concat([table, more])

    status = ("hypothesis_fails" if first is not None else "indeterminate" if grid_error
              else "confirmed" if conclusion.le else "violation_witness")
    return ContractionProbeReport(table, first is None and not grid_error, conclusion, status,
                                  needs_cross, cross_ok, failure_s)


@lru_cache(maxsize=None)
def _interior_layers(n: int) -> tuple:
    """The peeled bound's sandwiches for n levels, from the innermost out:
    (the index of the inner symbol, None around a sandwich; the inner
    word's exponent; the wrap's index; the wrap's exponent).  Empty for
    n = 1, whose bound is I."""
    layers = []
    _, sandwich = chains.reduction_words(2 * n)
    while sandwich is not None:
        wrap, inner, _ = sandwich.base.factors
        nested = isinstance(inner, chains.Power)
        layers.append((None if nested else inner.index, inner.exponent,
                       wrap.index, wrap.exponent))
        sandwich = inner if nested else None
    return tuple(reversed(layers))


def scalar_bounds(tup: OperatorTuple, t, plan: GridPlan) -> np.ndarray:
    """The reduction's scalar bound c = interior^(1/p_2) at each row of a
    plan.  The interior is the peeled bound word under its binding
    (``chains.peeled_bindings``) with every A^e replaced by its norm (a
    sandwich factor by |A|^(2e) for e > 0, (1/lambda_min(A))^(-2e) for
    e < 0) and the outermost power 1/p_2 left off; it equals 1 when n = 1,
    and c equals it at p_2 = 1.  The wraps' exponents read t alone, so
    each wrap's factor, a norm or 1/lambda_min to a power, is taken once;
    c is computed once per distinct p_2 .. p_(2n-1), all it reads
    (``bound_prefixes``), raising the inner norms to the binding's q values
    with float arithmetic."""
    layers = _interior_layers(len(t))
    t_names = {f"t{i}": float(tv) for i, tv in enumerate(t, 1)}
    norms, factors = {}, []
    for inner, _, wrap, wrap_exponent in layers:
        if inner is not None:
            norms[inner] = operator_norm(tup.matrices[inner - 1])
        e = 2.0 * wrap_exponent.evaluate(t_names)
        factors.append(operator_norm(tup.matrices[wrap - 1]) ** e if e > 0
                       else (1.0 / positivity_margin(tup.matrices[wrap - 1])) ** -e)
    first, inverse = plan.bound_prefixes
    c = []
    for p in plan.table[first].tolist():
        q, s = chains.peeled_bindings(t, p), 1.0
        for (inner, exponent, _, _), factor in zip(layers, factors):
            if inner is not None:
                s = norms[inner]
            s = s ** exponent.evaluate(q) * factor
        c.append(s ** (1.0 / p[1]))
    return np.array(c, dtype=np.float64)[inverse]


@dataclass(eq=False)
class ReductionReport:
    """The reduction of one instance: its run's margin table, judged at the
    suite slack, and c_total, the scalar bound c at each sampled p-vector.
    The table's checks are the Comparisons premise (the first ascending
    member), core (I - W for the core W), peel (the peeled bound minus the
    base sandwich) and scalar (c*I minus the base sandwich), each check's
    rows in point order.  Each row keeps its own verdict and error: a row
    that fails to evaluate is an ERROR row, and the other rows of its point
    are judged on their own.
    """

    instance_id: str
    table: MarginTable
    c_total: np.ndarray

    def by_check(self, column: np.ndarray) -> np.ndarray:
        """A per-row column of the table as (4, N): the rows of the premise,
        core, peel and scalar checks."""
        return column.reshape(4, -1)

    @property
    def premise_failures(self) -> int:
        """The premise rows whose computed margin fails."""
        return int(np.count_nonzero(self.by_check(self.table.failures())[0]))

    @property
    def premise_errors(self) -> int:
        """The premise rows that are ERROR rows."""
        return int(np.count_nonzero(self.by_check(self.table.error_rows)[0]))

    @property
    def premise_pass(self) -> bool:
        return not (self.premise_failures or self.premise_errors)

    @property
    def red_flags(self) -> list[str]:
        """Points, on a passing premise, where the core row holds but the
        peel or scalar row fails with a computed margin: (a) => (b) => (c)
        pointwise, so each is a tolerance or schedule bug.  An ERROR row is
        never one."""
        if not self.premise_pass:
            return []
        _, core, *_ = self.by_check(self.table.holds())
        _, _, peel, scalar = self.by_check(self.table.failures())
        margins = self.by_check(self.table.columns["margin"])
        points = self.table.checks[0].points
        return [f"instance {self.instance_id} p={tuple(points[i])}: core bound holds but "
                f"peel={margins[2, i]:.3e} scalar={margins[3, i]:.3e}"
                for i in np.flatnonzero(core & (peel | scalar)).tolist()]


def check_reduction_chain(
    instance: Instance,
    grid: PGrid,
    *,
    suite_tol_rel: float = SUITE_TOL_REL,
    master_seed: int = 0,
) -> ReductionReport:
    """Replicate the three-step reduction behind the order proof on one
    instance, per p-sample:

    (a) the bracketed core W of the first ascending member stays below I;
    (b) the innermost sandwich stays below its peeled matrix bound;
    (c) the same sandwich stays below the scalar bound c * I, where c is
        the interior raised to 1/p_2.

    Implications run (a) => (b) => (c) pointwise, so any sample where (a)
    holds but (b) or (c) fails is flagged as a tolerance or schedule bug.
    The premise is that the instance passes the first ascending member,
    under its weight policy, on the same sampled rows; it is only counted,
    and a row whose left side fails to evaluate is a premise error row, as
    in a campaign.  The report's id is the instance index.

    The premise, the core, the peel and the scalar bound c*I are the
    comparisons of one ``run``, each matrix side with its powers as p; the
    member contains the core and the sandwich, so their nodes are
    evaluated once, and c*I takes the sandwich's spectrum from the peel's
    comparison.  c is computed once per distinct p_2 .. p_(2n-1), all it
    reads (``scalar_bounds``).  The report is the run's table, each row
    with its own verdict and error: the core row takes the core word's
    errors, the peel row the bound's and then the sandwich's, each then its
    comparison's; the scalar row the sandwich's, then its spectrum's, then
    a non-finite margin's.  Everything is judged at suite_tol_rel,
    verdicts included.
    """
    tup, template, policy, index = instance
    k, n = tup.k, tup.k // 2
    if template.n != n:
        raise ValueError(f"template has {template.n} t-values, tuple needs {n}")
    premise = chains.hypothesis_set(k)[0]
    base_word, bound_word = chains.reduction_words(k)
    env = _environment(tup, template)
    plan = _p_samples(grid, n, master_seed, index, 2)
    w = policy.weights(template.t, plan, template.r, count=k - 1)[:, 0]
    c = scalar_bounds(tup, template.t, plan)

    # the premise (right side against left, so that the power-valued sides
    # are p), the core (it against I), the peel (the bound against the
    # sandwich) and the scalar bound (c*I against it)
    comparisons = (
        Comparison("premise", (), premise.rhs, premise.lhs, Direction.LE, weight=("w1", "w1")),
        Comparison("core", (), chains.hypothesis_core(premise), None, Direction.LE),
        Comparison("peel", (), bound_word, base_word),
        Comparison("scalar", (), "c", base_word),
    )
    table = run(comparisons, [Subject(plan.vectors, lambda _: env, lambda _, lo, hi: {
        "w1": w[lo:hi], "c": c[lo:hi],
        **({} if bound_word is None else chains.peeled_bindings(template.t, plan.table[lo:hi].T))},
        plan)], tol_rel=suite_tol_rel)
    return ReductionReport(str(index), table, c)


@dataclass
class LimitReport:
    c: float
    p2_values: tuple[float, ...]
    sequence: tuple[float, ...]
    monotone_nonincreasing: bool
    final_gap: float                    # sequence[-1] - 1
    lambda_max_core: float              # top eigenvalue of A2^(-1/2) A1 A2^(-1/2)
    inferred_bound: float               # min of the sequence
    bound_consistent: bool              # lambda_max <= inferred bound (+tol)
    order_consistent: bool              # declared: A2 >= A1 plausible
    conclusion: Verdict                 # direct A2 vs A1 comparison
    error: str | None = None            # why the core was not evaluated


def limit_probe(
    a1: HermitianMatrix,
    a2: HermitianMatrix,
    c: float | None = None,
    p2_values=(1.0, 10.0, 100.0, 1000.0, 10000.0),
    tol_rel: float = TOL_REL,
) -> LimitReport:
    """Demonstrate the closing limit argument on a pair: with the first
    exponents pinned to 1, a p2-independent interior c bounds the core
    A2^(-1/2) A1 A2^(-1/2) by c^(1/p2), and letting p2 grow drives the
    bound to 1, i.e. to A2 >= A1.

    The core is the reduction's base sandwich (``chains.reduction_words(3)``)
    at t1 = p1 = 1.  c defaults to max(1, lambda_max(core)), the sharpest
    constant for which the bound family is valid on the sampled points; a
    given c must be a nonnegative number, and each p2 finite and >= 1, as
    on a PGrid.  The bound b is compared with the core as b*I
    (``scalar_margins``), and the order declared by DECLARED_ABOVE_ONE.

    A core that fails to evaluate or to decompose gives an ERROR outcome:
    ``error`` holds its text, lambda_max_core is NaN (and so is c unless
    given), and neither consistency flag holds.
    """
    if c is not None and not float(c) >= 0:
        raise ValueError(f"bound constant must be nonnegative, got {c}")
    p2s = tuple(float(v) for v in p2_values)
    if not p2s:
        raise ValueError("p2_values is empty: need at least one p2")
    if any(not (1.0 <= v < math.inf) for v in p2s):
        raise ValueError(f"p2_values must be finite and >= 1, got {p2s}")
    env = dsl.Environment(scalars={"t1": 1.0, "p1": 1.0}, matrices={1: a1, 2: a2})
    core = dsl.evaluate_batch(chains.reduction_words(3)[0], env)
    lam_stack, errors = core.spectrum
    errors = first_errors(core.row_errors, errors)
    error = None if errors is None else str(errors[0])
    lam = math.nan if error else float(lam_stack[0, -1])
    if c is None:
        c = math.nan if error else max(1.0, lam)
    c = float(c)
    seq = tuple(c ** (1.0 / v) for v in p2s)
    monotone = all(seq[i + 1] <= seq[i] + 1e-12 * max(1.0, seq[i]) for i in range(len(seq) - 1))
    inferred = min(seq)
    margin, _, scale = scalar_margins(inferred, lam_stack[0])
    bound_ok = not error and bool(margins_hold(margin, scale, tol_rel))
    consistent = not error and (inferred <= DECLARED_ABOVE_ONE or lam <= DECLARED_ABOVE_ONE)
    return LimitReport(
        c=c, p2_values=p2s, sequence=seq, monotone_nonincreasing=monotone,
        final_gap=seq[-1] - 1.0, lambda_max_core=lam, inferred_bound=inferred,
        bound_consistent=bound_ok, order_consistent=consistent,
        conclusion=loewner_compare(a2, a1, tol_rel=tol_rel), error=error)


# the range of search's random fixed weights
SEARCH_W_RANGE = (0.2, 0.95)


@dataclass(frozen=True)
class SearchConfig:
    budget: int = 200
    k: int = 3
    dims: tuple[int, ...] = (2, 3, 4)
    master_seed: int = 0
    grid: PGrid = PGrid()
    policy: WeightPolicy | None = None   # None: fresh random fixed weights per instance
    field_kind: str = "real"

    def __post_init__(self):
        if len(set(self.dims)) < len(self.dims):  # a repeat would weight its draws
            raise ValueError(f"dims must not repeat, got {list(self.dims)}")
        if self.policy is not None:  # before any instance is drawn
            self.policy.require(self.k - 1)

    def to_json(self) -> dict:
        return {
            "budget": self.budget, "k": self.k, "dims": list(self.dims),
            "master_seed": self.master_seed,
            "grid": list(self.grid.values),
            "grid_growth": GRID_GROWTH, "grid_cap": self.grid.cap,
            "policy": self.policy.describe() if self.policy else "fixed-random",
            "t_range": list(TEMPLATE_RANGES[1]), "r_gap": list(TEMPLATE_RANGES[2]),
            "w_range": list(SEARCH_W_RANGE), "field": self.field_kind,
            "suite_tol_rel": SUITE_TOL_REL,
        }


@dataclass
class SearchReport:
    findings: list[dict]
    stats: dict
    config: dict
    master_seed: int

    def to_json(self) -> dict:
        return {
            "config": self.config,
            "master_seed": self.master_seed,
            "findings": self.findings,
            "stats": self.stats,
        }

    def write_json(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=2) + "\n")


def implied_core_violation(
    instance: Instance, grid: PGrid, *, master_seed: int = 0,
    suite_tol_rel: float = SUITE_TOL_REL,
) -> tuple[dict | None, int]:
    """Check the bracketed core of every member against the identity, at
    the instance's own t values and with every t pinned to 1.

    Under a fixed weight vector the hypothesis family can only hold for
    every exponent if ascending cores stay below I and descending cores
    above I; and the closing limit step of the order derivation evaluates
    the family at t = 1.  A violated core therefore certifies that an
    escalated or t-shifted sample would expose a hypothesis failure even
    when the capped grid did not.

    Returns the first violated core, or None, and the number of core rows
    up to it that could not be evaluated (never violations).  A core reads
    the t values and the p-vector only, so its environment binds the t
    values and the tuple's matrices.
    """
    tup, template = instance.tup, instance.template
    n = tup.k // 2
    plan = _p_samples(grid, n, master_seed, instance.index, 3)
    t_variants = [template.t] + ([(1.0,) * n] if template.t != (1.0,) * n else [])
    chain_set = chains.hypothesis_set(tup.k)
    # ascending cores must stay below I, descending ones above
    core = chains.hypothesis_core
    cores = tuple(Comparison("core", (), None, core(c)) if c.direction is Direction.GE
                  else Comparison("core", (), core(c)) for c in chain_set)
    unevaluated = 0
    for t_vec in t_variants:
        env = dsl.Environment(scalars={f"t{i}": tv for i, tv in enumerate(t_vec, 1)},
                              matrices=dict(enumerate(tup.matrices, 1)))
        # the rows up to the first failing one
        table = run(cores, [Subject(plan.vectors, lambda c: env, lambda c, lo, hi: {}, plan)],
                    early_exit=True, tol_rel=suite_tol_rel)
        unevaluated += int(np.count_nonzero(table.error_rows))
        if any_set(table.failures()):
            chain, row = chain_set[table.columns["check"][-1]], table.rows[-1]
            return {"family": chain.family.value, "member": chain.member, "t": list(t_vec),
                    "p_vector": list(row.point), "core_margin": row.margin}, unevaluated
    return None, unevaluated


# instances that one search campaign call evaluates together hold at most
# about this many sampled p-vectors between them
SEARCH_GROUP_POINTS = GRID_POINT_CAP


def search_counterexample(config: SearchConfig) -> SearchReport:
    """Randomized hunt for instances whose sampled hypotheses all pass yet
    whose conclusion fails.

    Passing every sampled grid point never certifies the universal
    hypothesis, so candidates are additionally screened through the core
    check above before being emitted; everything else lands in statistics.

    Each instance draws its dim, t, r and weights from its own rng, and its
    tuple from a stream of its own; the budget's tuples come from one
    ``gen_unordered_tuples`` screen.  Instances that share a dim and a grid
    are scanned together, in ``check_hypotheses`` calls of several
    instances; those that pass their whole grid are regrouped on their
    escalated grids.  Every counter and finding is that of scanning the
    instances one by one.
    """
    findings: list[dict] = []
    counters = dict.fromkeys(("instances", "hypothesis_failed",
                              "hypothesis_failed_after_escalation", "evaluation_error",
                              "implied_hypothesis_failure", "emitted"), 0)
    worst_margins: list[float] = []
    n = config.k // 2
    dims, drawn = [], []
    for idx in range(config.budget):
        rng = _rng(config.master_seed, idx)
        # the same draws as rng.choice(dims) and k - 1 scalar uniform calls
        dims.append(int(config.dims[int(rng.integers(len(config.dims)))]))
        template = ParamTemplate.draw(rng, n)
        policy = config.policy or WeightPolicy.fixed(
            rng.uniform(*SEARCH_W_RANGE, config.k - 1))
        drawn.append((template, policy))
    tuples = gen_unordered_tuples(
        config.k, [(dim, [config.master_seed, idx, 10]) for idx, dim in enumerate(dims)],
        field_kind=config.field_kind,
    )
    instances = [Instance(tup, template, policy, idx)
                 for idx, (tup, (template, policy)) in enumerate(zip(tuples, drawn))]
    grids = [config.grid] * config.budget
    escalations = [0] * config.budget
    # per instance: the margin of its violating row (None without one) and
    # its number of error rows, once it failed, had error rows or its grid
    # could not escalate further
    outcomes: list[tuple[float | None, int]] = [(None, 0)] * config.budget
    pending = list(range(config.budget))
    while pending:
        groups: dict[tuple[int, PGrid], list[int]] = {}
        for idx in pending:
            groups.setdefault((dims[idx], grids[idx]), []).append(idx)
        pending = []
        for (_, grid), members in groups.items():
            size = max(1, SEARCH_GROUP_POINTS // len(grid.values) ** (2 * n))
            for first in range(0, len(members), size):
                group = [instances[idx] for idx in members[first:first + size]]
                report = check_hypotheses(
                    group, grid, master_seed=config.master_seed, stop_on_violation=True)
                for idx, outcome in report.outcomes().items():
                    # an instance that neither failed nor had error rows escalates
                    nxt = grids[idx].escalate() if outcome == (None, 0) else None
                    if nxt is None:
                        outcomes[idx] = outcome
                    else:
                        grids[idx] = nxt
                        escalations[idx] += 1
                        pending.append(idx)
    for instance in instances:
        tup, template, policy, idx = instance
        counters["instances"] += 1
        margin, errors = outcomes[idx]
        if margin is not None:
            key = "hypothesis_failed_after_escalation" if escalations[idx] else "hypothesis_failed"
            counters[key] += 1
            worst_margins.append(margin)
            continue
        if errors:
            # ill-conditioned beyond the pd gate: indeterminate instance
            counters["evaluation_error"] += 1
            continue
        grid = grids[idx]
        # the generator only returns tuples whose adjacent conclusion fails
        conclusion = check_conclusion(tup)
        implied, _ = implied_core_violation(instance, grid, master_seed=config.master_seed)
        if implied is not None:
            counters["implied_hypothesis_failure"] += 1
            continue
        counters["emitted"] += 1
        findings.append({
            "instance_index": idx,
            "k": config.k,
            "dim": dims[idx],
            "t": list(template.t),
            "r": template.r,
            "weights": list(policy.values) if policy.values else policy.describe(),
            "grid": list(grid.values),
            "conclusion_margins": [v.margin for v in conclusion],
            "matrices": tup.to_json(),
        })
    # the end bins are open-ended: a margin beyond them counts in the nearer one
    edges = np.linspace(-3.0, 0.5, 36)
    counts, _ = np.histogram(np.clip(worst_margins, edges[0], edges[-1]), bins=edges)
    stats = {
        "counters": counters,
        "margin_histogram": {
            "edges": [float(e) for e in edges],
            "counts": [int(c) for c in counts],
        },
        "worst_margin": min(worst_margins) if worst_margins else None,
    }
    return SearchReport(
        findings=findings, stats=stats,
        config=config.to_json(), master_seed=config.master_seed,
    )
