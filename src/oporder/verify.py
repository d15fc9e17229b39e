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
import operator
import time
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import chains, dsl
from .chains import Direction, Family, ScalarExpr, Symbol
from .spectral import (
    STACK_RELATIONS,
    TOL_REL,
    HermitianMatrix,
    NonFiniteError,
    SpectralDecomposition,
    Verdict,
    classify_stack,
    decompose_matrices,
    decompose_stack,
    first_errors,
    flag_errors,
    gate_stack,
    healthy,
    identity,
    loewner_compare,
    margin_holds,
    margins_hold,
    matrix_to_json,
    operator_norm,
    positivity_margin,
    require_strictly_positive,
    scaled_margins_stack,
    spectral_norms,
)

# Slack used by suite-level expectations (necessity, reduction chain);
# looser than the verdict tolerance so rounding never flips a true claim.
SUITE_TOL_REL = 1e-7

GRID_POINT_CAP = 10_000

# Rows evaluated together are capped so that one batch holds at most about
# this many bytes of stacked (d, d) intermediates, whatever the grid size.
BATCH_BYTES = 2 << 20
# peak bytes per row and matrix entry while a campaign's largest call
# evaluates the slot words of all members, one environment per (instance,
# member) pair, and compares them (tracemalloc, k = 5 and 7, dims 2-4):
# 83-157 for real matrices and 161-237 for complex ones
_ROW_BYTES_PER_ENTRY = 256


def _rng(*seed_parts) -> np.random.Generator:
    return np.random.default_rng(list(int(s) for s in seed_parts))


def _raise_first_row(errors) -> None:
    """Raise the error of the first row that has one."""
    if errors is not None and not healthy(errors).all():
        raise errors[np.flatnonzero(~healthy(errors))[0]]


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
    rng = _rng(seed) if isinstance(seed, int) else np.random.default_rng(seed)
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


def gen_unordered_tuple(
    k: int,
    dim: int,
    seed,
    field_kind: str = "real",
    max_attempts: int = 200,
    tol_rel: float = TOL_REL,
) -> OperatorTuple:
    """Strictly positive tuple with at least one adjacent pair that is not
    GE; regenerates until such a violation exists.  The one-instance case
    of ``gen_unordered_tuples``."""
    return gen_unordered_tuples(k, [(dim, seed)], field_kind, max_attempts, tol_rel)[0]


def gen_unordered_tuples(
    k: int,
    instances,
    field_kind: str = "real",
    max_attempts: int = 200,
    tol_rel: float = TOL_REL,
) -> list[OperatorTuple]:
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
    rngs = [_rng(seed) if isinstance(seed, int) else np.random.default_rng(seed)
            for _, seed in instances]
    found: list[OperatorTuple | None] = [None] * len(instances)
    todo = list(range(len(instances)))
    for _ in range(max_attempts):
        if not todo:
            break
        for dim in sorted({instances[i][0] for i in todo}):
            group = [i for i in todo if instances[i][0] == dim]
            arrs = np.concatenate([_random_spds(rngs[i], dim, k, field_kind) for i in group])
            lam, u, errors = decompose_stack(arrs)
            _raise_first_row(gate_stack(lam, errors))
            upper = np.array([j * k + a for j in range(len(group)) for a in range(1, k)])
            norms = spectral_norms(lam)
            ge, _, scale, errors = scaled_margins_stack((arrs[upper], norms[upper]),
                                                        (arrs[upper - 1], norms[upper - 1]))
            _raise_first_row(errors)
            ordered = margins_hold(ge, scale, tol_rel).reshape(len(group), k - 1).all(axis=1)
            for j, (i, done) in enumerate(zip(group, ordered.tolist())):
                if not done:
                    found[i] = OperatorTuple.trusted(
                        HermitianMatrix.trusted(arrs[m], SpectralDecomposition(lam[m], u[m]))
                        for m in range(j * k, (j + 1) * k))
        todo = [i for i in todo if found[i] is None]
    if todo:
        raise RuntimeError(
            f"no adjacent-order violation found in {max_attempts} attempts "
            f"(k={k}, dim={instances[todo[0]][0]})"
        )
    return found


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
    centers = np.linspace(lo, hi, k)
    gap = centers[1] - centers[0]
    if not wobble < gap / 2:
        raise ValueError(f"wobble {wobble} must be below half the center gap {gap:.4f}")
    rng = _rng(seed) if isinstance(seed, int) else np.random.default_rng(seed)
    # the k perturbations in the order of k single draws, normalized and
    # decomposed as stacks; each step equals its per-matrix form bit for bit
    s = _random_spds(rng, dim, k, field_kind, 0.0)
    s = s / np.maximum(np.linalg.eigvalsh(s)[:, -1], 1e-12)[:, None, None]
    m = centers[:, None, None] * np.eye(dim) + wobble * s
    mats = [HermitianMatrix(a) for a in 0.5 * (m + m.conj().swapaxes(-1, -2))]
    decompose_matrices(mats)
    return OperatorTuple(tuple(mats))


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
    """Finite ascending sample of the exponent range [1, inf); escalate()
    appends the next geometric point until the cap."""

    values: tuple[float, ...] = (1.0, 1.5, 2.0, 4.0, 8.0)
    growth: float = 2.0
    cap: float = 64.0

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not vals or any(not (1.0 <= v < math.inf) for v in vals):
            raise ValueError(f"grid values must be finite and >= 1, got {vals}")
        if list(vals) != sorted(vals):
            raise ValueError(f"grid values must ascend, got {vals}")
        if self.growth <= 1.0:
            raise ValueError(f"growth must exceed 1, got {self.growth}")

    def escalate(self) -> "PGrid | None":
        nxt = self.values[-1] * self.growth
        if nxt > self.cap:
            return None
        return PGrid(self.values + (nxt,), self.growth, self.cap)

    def product(self, m: int, point_cap: int = GRID_POINT_CAP):
        """The full Cartesian power as (vectors, (N, m) table), built once per
        (values, m) and shared read-only: a tuple of tuples and a
        non-writeable array.  None when the product exceeds point_cap."""
        if len(self.values) ** m > point_cap:
            return None
        return _grid_product(self.values, m)

    def vectors(self, m: int, rng: np.random.Generator | None = None,
                point_cap: int = GRID_POINT_CAP) -> Sequence[tuple[float, ...]]:
        """Cartesian power of the grid, Latin-hypercube subsampled once the
        full product exceeds point_cap."""
        full = self.product(m, point_cap)
        if full is not None:
            return full[0]
        if rng is None:
            raise ValueError("subsampling a large grid product needs an rng")
        cols = []
        for _ in range(m):
            strata = (rng.permutation(point_cap) + rng.random(point_cap)) / point_cap
            idx = np.minimum((strata * len(self.values)).astype(int),
                             len(self.values) - 1)
            cols.append(np.asarray(self.values)[idx])
        return [tuple(float(c[i]) for c in cols) for i in range(point_cap)]


# a full product holds at most GRID_POINT_CAP vectors; keep the few grids a
# process escalates through, not every grid it ever sampled
@lru_cache(maxsize=32)
def _grid_product(values: tuple[float, ...], m: int):
    vectors = tuple(itertools.product(values, repeat=m))
    table = np.asarray(vectors, dtype=np.float64).reshape(len(vectors), m)
    table.setflags(write=False)
    return vectors, table


@dataclass(frozen=True)
class WeightPolicy:
    """How hypothesis weights are chosen: a fixed vector, or the necessity
    formula recomputed from each sampled p-vector (all members equal)."""

    kind: str
    values: tuple[float, ...] | None = None

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

    def weights(self, t, p_table, r: float, count: int) -> np.ndarray:
        """The (N, count) weights w1 .. w_count for each row of an (N, 2n)
        p-table."""
        if self.kind == "fixed":
            if len(self.values) != count:
                raise ValueError(
                    f"fixed policy carries {len(self.values)} weights, need {count}"
                )
            return np.tile(np.asarray(self.values, dtype=np.float64), (len(p_table), 1))
        w = chains.necessity_weights(t, p_table, r)
        return np.repeat(w[:, None], count, axis=1)


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
        if not self.r > self.t[-1]:
            raise ValueError(f"r must exceed t_n = {self.t[-1]}, got {self.r}")

    @property
    def n(self) -> int:
        return len(self.t)


@dataclass(frozen=True)
class CampaignRow:
    """One campaign row as a record; ``CampaignReport.rows`` builds them
    from the report's columns when they are read."""

    instance_id: str
    k: int
    dim: int
    family: str
    member: int
    p_vector: tuple[float, ...]
    w: float
    relation: str
    margin: float
    verdict: str
    seconds: float
    scale: float = 1.0
    error: str | None = None

    def holds(self, tol_rel: float = SUITE_TOL_REL) -> bool:
        """The margin passes at tol_rel; error rows carry a NaN margin and
        fail.  The verdict column is informational, at verdict tolerance."""
        return margin_holds(self.margin, self.scale, tol_rel)


@dataclass(frozen=True)
class CampaignMember:
    """What the rows of one hypothesis member on one instance share: the
    instance id, the tuple's k and dim, the member and its relation, and
    the sampled p-vectors that the rows' p_index column points into."""

    instance_id: str
    k: int
    dim: int
    family: str
    member: int
    relation: str
    p_vectors: Sequence[tuple[float, ...]]


# verdict column codes: those of classify_stack, then ERROR
VERDICTS = tuple(rel.value for rel in STACK_RELATIONS) + ("ERROR",)
ERROR_CODE = len(VERDICTS) - 1

# the per-row columns of a CampaignReport and their types, in the argument
# order of CampaignReport._record
COLUMNS = {"member": np.intp, "p_index": np.intp, "w": np.float64, "margin": np.float64,
           "scale": np.float64, "verdict": np.intp, "seconds": np.float64}

_CSV_COLUMNS = ("instance_id", "k", "dim", "family", "member", "p_vector",
                "w", "relation", "margin", "verdict", "seconds")


@dataclass(eq=False)
class CampaignReport:
    """Campaign rows as one columnar table, judged at the suite slack
    tol_rel: holds(), violations(), the pass/fail summary and the CLI exit
    code all use it.

    ``columns`` maps each name of COLUMNS to an array with one entry per
    row.  ``member`` indexes ``members``; ``p_index`` indexes that
    member's p-vectors; ``verdict`` indexes VERDICTS.  ``errors`` maps each
    ERROR row to its error text; such a row has NaN w and margin and
    scale 1.
    """

    members: tuple[CampaignMember, ...]
    columns: dict[str, np.ndarray]
    errors: dict[int, str]
    config: dict
    master_seed: int
    tol_rel: float = SUITE_TOL_REL

    @property
    def rows(self) -> "RowView":
        return RowView(self)

    def _row_count(self) -> int:
        return len(self.columns["margin"])

    def _row(self, i: int) -> CampaignRow:
        cols = self.columns
        return self._record(i, *(cols[name][i].item() for name in COLUMNS))

    def _iter_rows(self):
        cols = self.columns
        for i, fields in enumerate(zip(*(cols[name].tolist() for name in COLUMNS))):
            yield self._record(i, *fields)

    def _record(self, i, member, p_index, w, margin, scale, verdict, seconds) -> CampaignRow:
        m = self.members[member]
        return CampaignRow(
            instance_id=m.instance_id, k=m.k, dim=m.dim, family=m.family, member=m.member,
            p_vector=tuple(m.p_vectors[p_index]), w=w, relation=m.relation, margin=margin,
            verdict=VERDICTS[verdict], seconds=seconds, scale=scale, error=self.errors.get(i),
        )

    def holds(self, tol_rel: float | None = None) -> np.ndarray:
        """Per-row pass mask at tol_rel (default: the report's slack)."""
        tol = self.tol_rel if tol_rel is None else tol_rel
        return margins_hold(self.columns["margin"], self.columns["scale"], tol)

    def violations(self) -> list[CampaignRow]:
        rows = self.rows
        return [rows[i] for i in np.flatnonzero(~self.holds()).tolist()]

    @property
    def pass_count(self) -> int:
        return int(np.count_nonzero(self.holds()))

    @property
    def worst_margin(self) -> float:
        finite = self.columns["margin"][self.columns["verdict"] != ERROR_CODE]
        return min(finite.tolist()) if len(finite) else float("nan")

    def summary(self) -> dict:
        passed = self.pass_count
        return {
            "rows": len(self.rows),
            "pass": passed,
            "fail": len(self.rows) - passed,
            "worst_margin": self.worst_margin,
        }

    def csv_text(self) -> str:
        heads = [f"{m.instance_id},{m.k},{m.dim},{m.family},{m.member},"
                 for m in self.members]
        # p-vector texts per p-vector list, shared by the members of an instance
        p_texts: dict[int, list[str]] = {}
        names = ("member", "p_index", "w", "margin", "verdict", "seconds")
        cols = [self.columns[name].tolist() for name in names]
        # w repeats across members and seconds across a batch: format each once
        w_texts = {w: repr(w) for w in set(cols[2])}
        s_texts = {s: f"{s:.6f}" for s in set(cols[5])}
        lines = [",".join(_CSV_COLUMNS)]
        for member, p_index, w, margin, verdict, seconds in zip(*cols):
            m = self.members[member]
            texts = p_texts.get(id(m.p_vectors))
            if texts is None:
                texts = p_texts[id(m.p_vectors)] = [";".join(repr(v) for v in p_vec)
                                                    for p_vec in m.p_vectors]
            lines.append(f"{heads[member]}{texts[p_index]},{w_texts[w]},{m.relation},"
                         f"{margin!r},{VERDICTS[verdict]},{s_texts[seconds]}")
        return "\n".join(lines) + "\n"

    def write_csv(self, path) -> None:
        """CSV report plus a <path>.json sidecar carrying the full config
        and master seed needed to reproduce every row."""
        path = Path(path)
        path.write_text(self.csv_text())
        sidecar = {
            "config": self.config,
            "master_seed": self.master_seed,
            "summary": self.summary(),
        }
        Path(str(path) + ".json").write_text(json.dumps(sidecar, indent=2) + "\n")


class RowView(Sequence):
    """A columnar report's rows as records, built when read: the report
    counts them with ``_row_count()``, builds row i with ``_row(i)`` and
    every row in turn with ``_iter_rows()``."""

    def __init__(self, report):
        self._report = report

    def __len__(self) -> int:
        return self._report._row_count()

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        i = operator.index(index)
        if i < 0:
            i += len(self)
        if not 0 <= i < len(self):
            raise IndexError(f"row {index} out of range for {len(self)} rows")
        return self._report._row(i)

    def __iter__(self):
        return self._report._iter_rows()


def _concat_columns(parts: list[dict[str, np.ndarray]]) -> dict[str, np.ndarray]:
    return {name: np.concatenate([np.zeros(0, dtype)] + [p[name] for p in parts])
            for name, dtype in COLUMNS.items()}


def merge_reports(reports, config: dict, master_seed: int,
                  tol_rel: float = SUITE_TOL_REL) -> CampaignReport:
    """One report holding the rows of ``reports`` in order."""
    members: list[CampaignMember] = []
    parts: list[dict[str, np.ndarray]] = []
    errors: dict[int, str] = {}
    rows = 0
    for rep in reports:
        parts.append({**rep.columns, "member": rep.columns["member"] + len(members)})
        errors.update((rows + i, text) for i, text in rep.errors.items())
        rows += len(rep.rows)
        members.extend(rep.members)
    return CampaignReport(tuple(members), _concat_columns(parts), errors, config,
                          master_seed, tol_rel)


def _environment(tup: OperatorTuple, template: ParamTemplate,
                 weights=(), slots=None) -> dsl.Environment:
    """The bindings shared by every row: the tuple's matrices, r, the t
    values and any weights that do not vary with p.  Symbol s binds A_s, or
    A_slots[s-1] when ``slots`` is given (``chains.member_slots``)."""
    scalars = {"r": template.r}
    scalars.update((f"t{i}", tv) for i, tv in enumerate(template.t, 1))
    scalars.update((f"w{i}", float(wv)) for i, wv in enumerate(weights, 1))
    indices = range(1, tup.k + 1) if slots is None else slots
    matrices = {s: tup.matrices[i - 1] for s, i in enumerate(indices, 1)}
    return dsl.Environment(scalars=scalars, matrices=matrices)


def _p_samples(grid: PGrid, n: int, master_seed: int, instance_index: int,
               stream: int) -> tuple[Sequence[tuple[float, ...]], np.ndarray]:
    """The grid's 2n-vectors and their (N, 2n) table: the shared full
    product, or a subsample drawn from the rng that ``stream`` picks."""
    full = grid.product(2 * n)
    if full is not None:
        return full
    p_vectors = grid.vectors(2 * n, rng=_rng(master_seed, instance_index, stream))
    return p_vectors, np.asarray(p_vectors, dtype=np.float64).reshape(len(p_vectors), 2 * n)


def _p_columns(p_table: np.ndarray) -> dict[str, np.ndarray]:
    return {f"p{j + 1}": p_table[:, j] for j in range(p_table.shape[1])}


def _batch_rows(dim: int) -> int:
    """Rows one evaluation holds under BATCH_BYTES."""
    return max(1, BATCH_BYTES // (_ROW_BYTES_PER_ENTRY * dim * dim))


def _batches(total: int, dim: int, early_exit: bool, width: int = 1):
    """(lo, hi) row ranges to evaluate together: as many as BATCH_BYTES
    allows when each row stands for ``width`` evaluated rows, or, when the
    caller stops at its first failing row, doubling ranges of 1, 1, 2, 4,
    ... rows under the same cap."""
    cap = max(1, _batch_rows(dim) // width)
    lo = 0
    while lo < total:
        step = min(cap, max(1, lo)) if early_exit else cap
        yield lo, min(total, lo + step)
        lo += step


class Instance(NamedTuple):
    """One instance of a campaign: its tuple, parameter template and weight
    policy, the index that seeds its p-vector sampling, and its id."""

    tup: OperatorTuple
    template: ParamTemplate
    policy: WeightPolicy
    index: int = 0
    id: str = "0"


def check_hypotheses(
    tup: OperatorTuple,
    template: ParamTemplate,
    grid: PGrid,
    policy: WeightPolicy,
    *,
    tol_rel: float = TOL_REL,
    instance_id: str = "0",
    master_seed: int = 0,
    instance_index: int = 0,
    members: tuple[tuple[Family, int], ...] | None = None,
    stop_on_violation: bool = False,
    suite_tol_rel: float = SUITE_TOL_REL,
    batch: Sequence[Instance] = (),
) -> CampaignReport:
    """Evaluate every hypothesis member at every sampled p-vector.

    Rows record the verdict of the expected relation together with its
    directional margin; evaluation errors, of either side or of a
    non-positive weight, are recorded per row and never abort the campaign.

    Every member is the slot word pair ``chains.slot_words(k)`` under its
    own environment, which binds each slot to the member's operator
    (``chains.member_slots``), so members differ in their bindings only.
    Without stop_on_violation, every (instance, member) pair is evaluated
    over the p-vectors in one ``dsl.evaluate_batch`` run per chunk of rows
    under BATCH_BYTES, one environment per pair and the member's weight
    as the per-row column w, and judged in one stacked comparison.  With
    stop_on_violation the members are taken one at a time, each member's
    environment built when it is reached; the chunks grow from a single
    row, and the rows end at the first violating one, as in a row-by-row
    scan.

    ``batch`` adds further instances of the same k and dim, scanned in the
    same ``evaluate_batch`` calls as the first: each keeps its own p-vectors
    and its own doubling scan, and stops at its own violating row.  The
    report holds the instances' rows in turn, member by member, as
    ``merge_reports`` of one call per instance does.
    """
    instances = (Instance(tup, template, policy, instance_index, instance_id), *batch)
    k, dim = tup.k, tup.dim
    n = k // 2
    for inst in instances:
        if (inst.tup.k, inst.tup.dim) != (k, dim):
            raise ValueError(f"batched instances need k={k} and dim={dim}, "
                             f"got k={inst.tup.k} and dim={inst.tup.dim}")
        if inst.template.n != n:
            raise ValueError(f"template has {inst.template.n} t-values, tuple needs {n}")
    chain_list = chains.hypothesis_set(k)
    if members is not None:
        wanted = set(members)
        chain_list = [c for c in chain_list if (c.family, c.member) in wanted]
    lhs_word, rhs_word = chains.slot_words(k)
    w_index = np.array([chains.weight_index(c.family, c.member, n) for c in chain_list],
                       dtype=np.intp)
    is_ge = np.array([c.direction is Direction.GE for c in chain_list])
    envs: dict[tuple[int, int], dsl.Environment] = {}

    def environment(j: int, code: int) -> dsl.Environment:
        got = envs.get((j, code))
        if got is None:
            chain = chain_list[code]
            got = envs[j, code] = _environment(
                instances[j].tup, instances[j].template,
                slots=chains.member_slots(chain.family, chain.member, k))
        return got

    samples = [_p_samples(grid, n, master_seed, inst.index, 1) for inst in instances]
    weights = [inst.policy.weights(inst.template.t, table, inst.template.r, count=k - 1)
               for inst, (_, table) in zip(instances, samples)]
    batches: list[list[_Batch]] = [[] for _ in instances]
    stopped: set[int] = set()
    active = list(range(len(instances)))
    codes = range(len(chain_list))
    # a scan that stops at its first violating row takes one member at a time
    for group in ([[c] for c in codes] if stop_on_violation else [codes]):
        for lo, hi in _batches(len(samples[0][0]), dim, stop_on_violation, len(group)):
            size = hi - lo
            per_call = max(1, _batch_rows(dim) // (size * len(group)))
            for first in range(0, len(active), per_call):
                pairs = [(j, code) for j in active[first:first + per_call] for code in group]
                start = time.perf_counter()
                which = np.repeat(np.arange(len(pairs)), size)
                row_code = np.repeat([code for _, code in pairs], size)
                columns = _p_columns(np.concatenate([samples[j][1][lo:hi] for j, _ in pairs]))
                w = columns["w"] = np.concatenate(
                    [weights[j][lo:hi, w_index[code] - 1] for j, code in pairs])
                rhs, lhs = dsl.evaluate_batch((rhs_word, lhs_word),
                                              [environment(j, code) for j, code in pairs],
                                              columns, which)
                ge, le, scale, errors, holds = _judge_members(
                    lhs, rhs, w, w_index[row_code], is_ge[row_code], suite_tol_rel)
                seconds = (time.perf_counter() - start) / len(which)
                # error rows are indeterminate, not violations; keep scanning
                fails = (~holds & healthy(errors) if stop_on_violation
                         else np.zeros(len(which), dtype=bool))
                for slot, (j, code) in enumerate(pairs):
                    first_row, end = slot * size, size
                    if fails[first_row:first_row + size].any():
                        end = int(fails[first_row:first_row + size].argmax()) + 1
                        stopped.add(j)
                    kept = slice(first_row, first_row + end)
                    batches[j].append(_Batch(code, lo, w[kept], ge[kept], le[kept],
                                             scale[kept], errors[kept], seconds))
            active = [j for j in active if j not in stopped]
            if not active:
                break
        if not active:
            break
    # the instances' rows in turn, member by member; member codes index the
    # members of all
    members_table = tuple(CampaignMember(inst.id, k, dim, c.family.value, c.member,
                                         c.direction.value, p_vectors)
                          for inst, (p_vectors, _) in zip(instances, samples)
                          for c in chain_list)
    columns, errors = _campaign_columns(
        [b._replace(member=b.member + j * len(chain_list))
         for j, kept in enumerate(batches)
         for b in sorted(kept, key=operator.attrgetter("member", "lo"))],
        chain_list * len(instances), tol_rel)
    return CampaignReport(members_table, columns, errors,
                          {"stopped_early": True} if stopped else {}, master_seed,
                          suite_tol_rel)


def _judge_members(lhs: dsl.WordBatch, rhs: dsl.WordBatch, w: np.ndarray, w_index,
                   is_ge, suite_tol_rel: float):
    """(ge, le, scale, errors, holds) per row of hypothesis members: each
    row's left side A_outer^(r - t_n) against its right side under its
    weight w, both evaluated in one run, and whether its directional margin
    (GE where is_ge, else LE) passes at the suite slack.  ``w_index`` names
    each row's weight w<w_index>; is_ge holds one entry per row or one for
    all.

    A row whose left or right side fails to evaluate is an error row, with
    the left side's error first.  A weight w <= 0 (from an overflowed
    chain exponent) would make the rhs I, so its row is an error row too."""
    errors = flag_errors(first_errors(lhs.errors, rhs.errors), w <= 0,
                         lambda i: dsl.EvaluationError(
                             f"weight w{int(w_index[i])} = {float(w[i])!r} is not positive"))
    ge, le, scale, errors = scaled_margins_stack(lhs, rhs, errors)
    holds = margins_hold(np.where(is_ge, ge, le), scale, suite_tol_rel)
    return ge, le, scale, errors, holds


class _Batch(NamedTuple):
    """The rows lo, lo + 1, ... of one member that check_hypotheses kept
    from one evaluate_batch call."""

    member: int
    lo: int
    w: np.ndarray
    ge: np.ndarray
    le: np.ndarray
    scale: np.ndarray
    errors: np.ndarray
    seconds: float  # per row


def _campaign_columns(batches: list[_Batch], chain_list, tol_rel: float):
    """The report columns and error texts of check_hypotheses' batches;
    the margin is the member's directional one, the verdict is judged at
    the verdict tolerance tol_rel."""
    if not batches:
        return _concat_columns([]), {}
    counts = [len(b.w) for b in batches]
    member = np.repeat([b.member for b in batches], counts)
    w, ge, le, scale, errs = (np.concatenate(cols) for cols in
                              zip(*((b.w, b.ge, b.le, b.scale, b.errors) for b in batches)))
    is_ge = np.array([c.direction is Direction.GE for c in chain_list])
    margin = np.where(is_ge[member], ge, le)
    verdict = classify_stack(ge, le, scale, tol_rel)
    bad = np.flatnonzero(~healthy(errs))
    verdict[bad], w[bad], margin[bad], scale[bad] = ERROR_CODE, math.nan, math.nan, 1.0
    columns = {
        "member": member,
        "p_index": np.concatenate([np.arange(b.lo, b.lo + c) for b, c in zip(batches, counts)]),
        "w": w, "margin": margin, "scale": scale, "verdict": verdict,
        "seconds": np.repeat([b.seconds for b in batches], counts),
    }
    return columns, {i: str(errs[i]) for i in bad.tolist()}


def check_conclusion(tup: OperatorTuple, tol_rel: float = TOL_REL) -> list[Verdict]:
    """Adjacent comparisons A_(i+1) vs A_i for i = 1 .. k-1."""
    return [
        loewner_compare(tup.matrices[i + 1], tup.matrices[i], tol_rel=tol_rel)
        for i in range(tup.k - 1)
    ]


@dataclass(frozen=True)
class ProbeRow:
    """One exponent of a probe: its verdict, GE margin and scale.  An ERROR
    row, which failed to evaluate, has a NaN margin, scale 1 and its error."""

    exponent: float
    verdict: str
    margin: float
    scale: float
    error: str | None = None


def _probe_rows(words, env: dsl.Environment, name: str, exponents,
                tol_rel: float) -> list[ProbeRow]:
    """One ProbeRow per exponent: the two words evaluated in one run with
    the exponents bound to ``name``, the first against the second in one
    stacked comparison classified at tol_rel."""
    lhs, rhs = dsl.evaluate_batch(words, env, {name: exponents})
    ge, le, scale, errors = scaled_margins_stack(lhs, rhs, first_errors(lhs.errors, rhs.errors))
    codes = classify_stack(ge, le, scale, tol_rel)
    return [ProbeRow(x, STACK_RELATIONS[code].value, margin, s) if err is None
            else ProbeRow(x, "ERROR", math.nan, 1.0, str(err))
            for x, code, margin, s, err in zip(
                [float(x) for x in exponents], codes.tolist(), ge.tolist(), scale.tolist(),
                errors)]


# The probes' words, with P bound as A1 and Q as A2 and exponent names of
# their own (a, s, d): the Loewner-Heinz pair P^a, Q^a, and the sides P^(r+d)
# and (P^(r/2) Q^s P^(r/2))^w1 of the contraction criterion.
_LOEWNER_HEINZ_WORDS = (Symbol(1, ScalarExpr.variable("a")), Symbol(2, ScalarExpr.variable("a")))
_CONTRACTION_WORDS = (Symbol(1, ScalarExpr.variable("r") + ScalarExpr.variable("d")),
                      chains.sandwich(1, ScalarExpr.variable("r", Fraction(1, 2)),
                                      Symbol(2, ScalarExpr.variable("s")), "w1"))


@dataclass
class MonotonePowerReport:
    """Per-exponent outcome of pushing an ordered pair through powers."""

    precondition_ok: bool
    rows: list[ProbeRow]

    def all_hold(self, tol_rel: float = TOL_REL) -> bool:
        return self.precondition_ok and all(
            margin_holds(r.margin, r.scale, tol_rel) for r in self.rows
        )


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
    base = loewner_compare(p, q, tol_rel=tol_rel)
    q_psd = margin_holds(positivity_margin(q), max(1.0, operator_norm(q)), tol_rel)
    if not (base.ge and q_psd):
        return MonotonePowerReport(precondition_ok=False, rows=[])
    env = dsl.Environment(scalars={}, matrices={1: p, 2: q})
    return MonotonePowerReport(precondition_ok=True,
                               rows=_probe_rows(_LOEWNER_HEINZ_WORDS, env, "a", alphas, tol_rel))


@dataclass
class ContractionProbeReport:
    rows: list[ProbeRow]
    hypothesis_holds: bool
    conclusion: Verdict                 # Q vs I, expected LE
    implication_status: str  # confirmed|hypothesis_fails|violation_witness|indeterminate
    cross_check_required: bool
    cross_check_ok: bool | None
    failure_s: float | None


# the contraction probe's escalation past its s grid: factor and cap
S_GROWTH = 2.0
S_CAP = 1e6


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

    The hypothesis is sampled on the s grid in one evaluation run.  When Q
    has an eigenvalue above 1 + 1e-6 the hypothesis must eventually fail
    because Q^s grows geometrically, so without a failing s on the grid,
    s_last * S_GROWTH^j up to S_CAP are evaluated in one more run and kept
    up to the first failing s (none is a cross-check failure).  An ERROR
    row is never a failing s; with none, one on the grid makes the status
    "indeterminate" and one escalated leaves the cross-check undecided
    (None).  w = 0 makes the hypothesis vacuous and is rejected.
    """
    if not (r > 0 and r + delta > 0):
        raise ValueError(f"need r > 0 and r + delta > 0, got r={r}, delta={delta}")
    if not 0.0 < w <= 1.0:
        raise ValueError(f"w must lie in (0, 1], got {w}")
    if any(s <= 1.0 for s in s_values):
        raise ValueError(f"every s must exceed 1, got {tuple(s_values)}")
    for m in (p, q):
        require_strictly_positive(m)
    env = dsl.Environment(scalars={"r": r, "d": delta, "w1": w}, matrices={1: p, 2: q})

    def sample(s_column) -> tuple[list[ProbeRow], int | None]:
        """The rows of s_column and the index of the first failing s."""
        rows = _probe_rows(_CONTRACTION_WORDS, env, "s", s_column, tol_rel)
        return rows, next((i for i, row in enumerate(rows) if row.error is None
                           and not margin_holds(row.margin, row.scale, tol_rel)), None)

    rows, first = sample(s_values)
    grid_error = any(row.error for row in rows)
    failure_s = None if first is None else rows[first].exponent
    conclusion = loewner_compare(q, identity(q.dim), tol_rel=tol_rel)

    needs_cross = operator_norm(q) > 1.0 + 1e-6
    cross_ok = (failure_s is not None) if needs_cross else None
    if needs_cross and failure_s is None:
        escalated = []
        s = float(s_values[-1]) * S_GROWTH
        while s <= S_CAP:
            escalated.append(s)
            s *= S_GROWTH
        more, stop = sample(escalated)
        if stop is not None:
            more, failure_s, cross_ok = more[:stop + 1], more[stop].exponent, True
        elif any(row.error for row in more):
            cross_ok = None
        rows += more

    if first is not None:
        status = "hypothesis_fails"
    elif grid_error:
        status = "indeterminate"
    elif conclusion.le:
        status = "confirmed"
    else:
        status = "violation_witness"
    return ContractionProbeReport(
        rows=rows,
        hypothesis_holds=first is None and not grid_error,
        conclusion=conclusion,
        implication_status=status,
        cross_check_required=needs_cross,
        cross_check_ok=cross_ok,
        failure_s=failure_s,
    )


def reduction_scalar_interior(tup: OperatorTuple, t, p, n: int) -> float:
    """Scalar interior of the coarsest bound, independent of p_2: the peeled
    bound word under its binding with every A^e replaced by its norm (a
    sandwich factor by |A|^(2e) for e > 0, (1/lambda_min(A))^(-2e) for
    e < 0) and the outermost power 1/p_2 left off.  Equals 1 when n = 1."""
    _, bound = chains.reduction_words(2 * n)
    if bound is None:
        return 1.0
    scalars = {f"t{i}": tv for i, tv in enumerate(t, 1)}
    scalars.update(chains.peeled_bindings(t, tuple(float(v) for v in p)))

    def interior(sandwich: chains.Power) -> float:
        wrap, inner, _ = sandwich.base.factors
        s = interior(inner) if isinstance(inner, chains.Power) \
            else operator_norm(tup.matrices[inner.index - 1])
        s = s ** inner.exponent.evaluate(scalars)
        e = 2.0 * wrap.exponent.evaluate(scalars)
        m = tup.matrices[wrap.index - 1]
        return s * (operator_norm(m) ** e if e > 0 else (1.0 / positivity_margin(m)) ** -e)

    return interior(bound)


@dataclass(frozen=True)
class ReductionRow:
    """One reduction row as a record; ``ReductionReport.rows`` builds them
    from the report's table when they are read."""

    p_vector: tuple[float, ...]
    margin_core: float      # I - W
    scale_core: float
    margin_peel: float      # peeled bound - base sandwich
    scale_peel: float
    margin_scalar: float    # c*I - base sandwich
    scale_scalar: float
    c_total: float
    error: str | None = None

    def holds(self, tol_rel: float = SUITE_TOL_REL) -> tuple[bool, bool, bool]:
        """(core, peel, scalar) pass flags; error rows carry NaN margins."""
        return (
            margin_holds(self.margin_core, self.scale_core, tol_rel),
            margin_holds(self.margin_peel, self.scale_peel, tol_rel),
            margin_holds(self.margin_scalar, self.scale_scalar, tol_rel),
        )


@dataclass(eq=False)
class ReductionReport:
    """The reduction rows of one instance as one (N, 7) float table, judged
    at the suite slack tol_rel.  Its columns are the ReductionRow fields
    margin_core, scale_core, margin_peel, scale_peel, margin_scalar,
    scale_scalar and c_total.

    ``p_vectors[i]`` is row i's p-vector; ``errors`` maps each ERROR row to
    its error text, and such a row has NaN margins and c_total and unit
    scales.  The premise counts are the premise member's rows whose
    computed margin failed, and its ERROR rows.
    """

    instance_id: str
    premise_failures: int
    premise_errors: int
    p_vectors: Sequence[tuple[float, ...]]
    table: np.ndarray
    errors: dict[int, str]
    tol_rel: float = SUITE_TOL_REL

    @property
    def premise_pass(self) -> bool:
        return not (self.premise_failures or self.premise_errors)

    @property
    def rows(self) -> RowView:
        return RowView(self)

    def _row_count(self) -> int:
        return len(self.table)

    def _row(self, i: int) -> ReductionRow:
        return self._record(i, self.table[i].tolist())

    def _iter_rows(self):
        for i, values in enumerate(self.table.tolist()):
            yield self._record(i, values)

    def _record(self, i: int, values) -> ReductionRow:
        return ReductionRow(tuple(self.p_vectors[i]), *values, error=self.errors.get(i))

    def holds(self, tol_rel: float | None = None) -> np.ndarray:
        """(N, 3) pass mask of the core, peel and scalar margins at tol_rel
        (default: the report's slack)."""
        tol = self.tol_rel if tol_rel is None else tol_rel
        return margins_hold(self.table[:, 0:6:2], self.table[:, 1:6:2], tol)

    @property
    def red_flags(self) -> list[str]:
        """Rows, on a passing premise, where the core bound holds but the
        peeled or scalar bound does not: (a) => (b) => (c) pointwise, so
        each is a tolerance or schedule bug."""
        if not self.premise_pass:
            return []
        holds = self.holds()
        flagged = np.flatnonzero(holds[:, 0] & ~(holds[:, 1] & holds[:, 2])).tolist()
        rows = self.rows
        return [f"instance {self.instance_id} p={row.p_vector}: core bound holds but "
                f"peel={row.margin_peel:.3e} scalar={row.margin_scalar:.3e}"
                for row in (rows[i] for i in flagged)]

    def all_hold(self, tol_rel: float | None = None) -> bool:
        return self.premise_pass and not self.red_flags and bool(self.holds(tol_rel).all())


def _c_totals(tup: OperatorTuple, t, p_vectors) -> np.ndarray:
    """The scalar bound c = interior^(1/p_2) per row.  It depends on p_2 ..
    p_(2n-1) only, so it is computed once per distinct such prefix."""
    n = len(t)
    if n == 1:
        return np.ones(len(p_vectors))  # the interior is 1
    codes: dict[tuple, int] = {}
    firsts, inverse = [], []
    for p in p_vectors:
        code = codes.setdefault(tuple(p[1:2 * n - 1]), len(codes))
        if code == len(firsts):
            firsts.append(p)
        inverse.append(code)
    c = [reduction_scalar_interior(tup, t, p, n) ** (1.0 / p[1]) for p in firsts]
    return np.asarray(c, dtype=np.float64)[inverse]


def check_reduction_chain(
    tup: OperatorTuple,
    template: ParamTemplate,
    grid: PGrid,
    *,
    policy: WeightPolicy | None = None,
    suite_tol_rel: float = SUITE_TOL_REL,
    master_seed: int = 0,
    instance_index: int = 0,
    instance_id: str = "0",
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
    under the supplied weight policy, on the same sampled rows.

    Each chunk of rows is one ``dsl.evaluate_batch`` run of the member's
    right and left sides, its core, the innermost sandwich and the peeled
    bound: the member contains the core and the sandwich, so each of their
    nodes is evaluated once.  The sandwich depends on p1 alone, so its
    spectrum is one decomposition per distinct p1 (``WordBatch.spectrum``),
    which serves both its norm in the peel comparison and its lambda_max
    against the scalar bound.  A premise row whose left side fails to
    evaluate is a premise error row, as in a campaign.
    Everything is judged at suite_tol_rel.
    """
    if policy is None:
        policy = WeightPolicy.necessity()
    k = tup.k
    n = k // 2
    if template.n != n:
        raise ValueError(f"template has {template.n} t-values, tuple needs {n}")
    premise = chains.hypothesis_set(k)[0]
    base_word, bound_word = chains.reduction_words(k)
    words = (premise.rhs, premise.lhs, chains.hypothesis_core(premise), base_word) \
        + ((bound_word,) if bound_word is not None else ())
    env = _environment(tup, template)
    ident = identity(tup.dim)
    p_vectors, p_table = _p_samples(grid, n, master_seed, instance_index, 2)
    w = policy.weights(template.t, p_table, template.r, count=k - 1)[:, 0]
    c_total = _c_totals(tup, template.t, p_vectors)

    premise_failures = premise_errors = 0
    chunks: list[np.ndarray] = []
    errors_by_row: dict[int, str] = {}
    for lo, hi in _batches(len(p_vectors), tup.dim, early_exit=False):
        columns = _p_columns(p_table[lo:hi])
        columns["w1"] = w[lo:hi]
        if bound_word is not None:
            columns.update(chains.peeled_bindings(template.t, p_table[lo:hi].T))
        rhs, lhs, core, base, *peeled = dsl.evaluate_batch(words, env, columns)
        _, _, _, errors, holds = _judge_members(lhs, rhs, w[lo:hi], np.ones(hi - lo, np.intp),
                                                   premise.direction is Direction.GE,
                                                   suite_tol_rel)
        evaluated = healthy(errors)
        premise_errors += int(np.count_nonzero(~evaluated))
        premise_failures += int(np.count_nonzero(evaluated & ~holds))

        margin_core, _, scale_core, errors = scaled_margins_stack(ident, core, core.errors)
        errors = first_errors(errors, base.errors)
        bound = ident
        if peeled:
            bound, errors = peeled[0], first_errors(errors, peeled[0].errors)
        # the peel comparison decomposes the base's distinct values and
        # merges their errors; lambda_max below reuses that spectrum
        margin_peel, _, scale_peel, errors = scaled_margins_stack(bound, base, errors)
        # the scalar bound c * I compares against lambda_max(base) directly
        lam = base.spectrum[0]
        c = c_total[lo:hi]
        values = np.stack([margin_core, scale_core, margin_peel, scale_peel, c - lam[:, -1],
                           np.maximum(np.maximum(1.0, np.abs(c)), spectral_norms(lam)), c],
                          axis=1)
        errors = flag_errors(errors, ~np.isfinite(values[:, [2, 4, 5]]).all(axis=1),
                             lambda i: NonFiniteError("reduction margin"))
        bad = np.flatnonzero(~healthy(errors))
        values[bad] = (math.nan, 1.0) * 3 + (math.nan,)
        errors_by_row.update((lo + i, str(errors[i])) for i in bad.tolist())
        chunks.append(values)
    return ReductionReport(instance_id, premise_failures, premise_errors, p_vectors,
                           np.concatenate(chunks), errors_by_row, suite_tol_rel)


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
    given c must be a nonnegative number.  The declaration threshold
    1 + 1e-6 matches the probe's resolution, not a proof.

    A core that fails to evaluate or to decompose gives an ERROR outcome:
    ``error`` holds its text, lambda_max_core is NaN (and so is c unless
    given), and neither consistency flag holds.
    """
    if c is not None and not float(c) >= 0:
        raise ValueError(f"bound constant must be nonnegative, got {c}")
    env = dsl.Environment(scalars={"t1": 1.0, "p1": 1.0}, matrices={1: a1, 2: a2})
    core = dsl.evaluate_batch(chains.reduction_words(3)[0], env)
    lam_stack, errors = core.spectrum
    failure = first_errors(core.errors, errors)[0]
    error = None if failure is None else str(failure)
    lam = math.nan if error else float(lam_stack[0, -1])
    if c is None:
        c = math.nan if error else max(1.0, lam)
    c = float(c)
    p2s = tuple(float(v) for v in p2_values)
    seq = tuple(c ** (1.0 / v) for v in p2s)
    monotone = all(seq[i + 1] <= seq[i] + 1e-12 * max(1.0, seq[i]) for i in range(len(seq) - 1))
    inferred = min(seq)
    scale = max(1.0, lam)
    bound_ok = margin_holds(inferred - lam, scale, tol_rel)
    consistent = not error and (inferred <= 1.0 + 1e-6 or lam <= 1.0 + 1e-6)
    return LimitReport(
        c=c, p2_values=p2s, sequence=seq,
        monotone_nonincreasing=monotone,
        final_gap=seq[-1] - 1.0,
        lambda_max_core=lam,
        inferred_bound=inferred,
        bound_consistent=bound_ok,
        order_consistent=consistent,
        conclusion=loewner_compare(a2, a1, tol_rel=tol_rel),
        error=error,
    )


@dataclass(frozen=True)
class SearchConfig:
    budget: int = 200
    k: int = 3
    dims: tuple[int, ...] = (2, 3, 4)
    master_seed: int = 0
    grid: PGrid = PGrid()
    policy: WeightPolicy | None = None   # None: fresh random fixed weights per instance
    t_range: tuple[float, float] = (0.05, 0.95)
    r_gap: tuple[float, float] = (0.1, 2.0)
    w_range: tuple[float, float] = (0.2, 0.95)
    field_kind: str = "real"
    suite_tol_rel: float = SUITE_TOL_REL

    def to_json(self) -> dict:
        return {
            "budget": self.budget, "k": self.k, "dims": list(self.dims),
            "master_seed": self.master_seed,
            "grid": list(self.grid.values),
            "grid_growth": self.grid.growth, "grid_cap": self.grid.cap,
            "policy": self.policy.describe() if self.policy else "fixed-random",
            "t_range": list(self.t_range), "r_gap": list(self.r_gap),
            "w_range": list(self.w_range), "field": self.field_kind,
            "suite_tol_rel": self.suite_tol_rel,
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
    tup: OperatorTuple, template: ParamTemplate, grid: PGrid,
    master_seed: int = 0, instance_index: int = 0,
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
    up to it that could not be evaluated (never violations).
    """
    k = tup.k
    n = k // 2
    ident = identity(tup.dim)
    p_vectors, p_table = _p_samples(grid, n, master_seed, instance_index, 3)
    t_variants = [template.t]
    ones = (1.0,) * n
    if template.t != ones:
        t_variants.append(ones)
    unevaluated = 0
    for t_vec in t_variants:
        var_template = ParamTemplate(t=t_vec, r=float(t_vec[-1]) + 1.0)
        env = _environment(tup, var_template, (0.5,) * (k - 1))
        for chain in chains.hypothesis_set(k):
            word = chains.hypothesis_core(chain)
            for lo, hi in _batches(len(p_vectors), tup.dim, early_exit=True):
                batch = dsl.evaluate_batch(word, env, _p_columns(p_table[lo:hi]))
                # ascending cores must stay below I, descending ones above
                pair = (ident, batch) if chain.direction is Direction.GE else (batch, ident)
                margins, _, scales, errors = scaled_margins_stack(*pair, batch.errors)
                failed = ~healthy(errors)
                fails = np.flatnonzero(~failed & ~margins_hold(margins, scales, suite_tol_rel))
                end = int(fails[0]) + 1 if len(fails) else len(failed)
                unevaluated += int(np.count_nonzero(failed[:end]))
                if len(fails):
                    return {
                        "family": chain.family.value,
                        "member": chain.member,
                        "t": list(t_vec),
                        "p_vector": list(p_vectors[lo + end - 1]),
                        "core_margin": float(margins[end - 1]),
                    }, unevaluated
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
    counters = {
        "instances": 0,
        "hypothesis_failed": 0,
        "hypothesis_failed_after_escalation": 0,
        "evaluation_error": 0,
        "implied_hypothesis_failure": 0,
        "emitted": 0,
    }
    worst_margins: list[float] = []
    n = config.k // 2
    dims, drawn = [], []
    for idx in range(config.budget):
        rng = _rng(config.master_seed, idx)
        dims.append(int(rng.choice(np.asarray(config.dims))))
        t = tuple(rng.uniform(*config.t_range) for _ in range(n))
        r = t[-1] + rng.uniform(*config.r_gap)
        policy = config.policy or WeightPolicy.fixed(
            rng.uniform(*config.w_range) for _ in range(config.k - 1)
        )
        drawn.append((ParamTemplate(t=t, r=r), policy))
    tuples = gen_unordered_tuples(
        config.k, [(dim, [config.master_seed, idx, 10]) for idx, dim in enumerate(dims)],
        field_kind=config.field_kind,
    )
    instances = [Instance(tup, template, policy, idx, str(idx))
                 for idx, (tup, (template, policy)) in enumerate(zip(tuples, drawn))]
    grids = [config.grid] * config.budget
    escalations = [0] * config.budget
    # per instance: ("failed", margin of its violating row), ("error", None)
    # or ("passed", None) once its grid cannot escalate further
    outcomes: list[tuple[str, float | None]] = [("passed", None)] * config.budget
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
                    group[0].tup, group[0].template, grid, group[0].policy,
                    master_seed=config.master_seed, instance_index=group[0].index,
                    instance_id=group[0].id, stop_on_violation=True,
                    suite_tol_rel=config.suite_tol_rel, batch=group[1:],
                )
                for idx, outcome in _search_outcomes(report).items():
                    nxt = grids[idx].escalate() if outcome[0] == "passed" else None
                    if nxt is None:
                        outcomes[idx] = outcome
                    else:
                        grids[idx] = nxt
                        escalations[idx] += 1
                        pending.append(idx)
    for idx, (tup, template, policy, _, _) in enumerate(instances):
        counters["instances"] += 1
        outcome, margin = outcomes[idx]
        if outcome == "failed":
            key = "hypothesis_failed_after_escalation" if escalations[idx] else "hypothesis_failed"
            counters[key] += 1
            worst_margins.append(margin)
            continue
        if outcome == "error":
            counters["evaluation_error"] += 1
            continue
        grid = grids[idx]
        # the generator only returns tuples whose adjacent conclusion fails
        conclusion = check_conclusion(tup)
        implied, _ = implied_core_violation(
            tup, template, grid,
            master_seed=config.master_seed, instance_index=idx,
            suite_tol_rel=config.suite_tol_rel,
        )
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
    hist_counts, hist_edges = np.histogram(
        np.asarray(worst_margins) if worst_margins else np.zeros(0),
        bins=np.linspace(-3.0, 0.5, 36),
    )
    stats = {
        "counters": counters,
        "margin_histogram": {
            "edges": [float(e) for e in hist_edges],
            "counts": [int(c) for c in hist_counts],
        },
        "worst_margin": min(worst_margins) if worst_margins else None,
    }
    return SearchReport(
        findings=findings, stats=stats,
        config=config.to_json(), master_seed=config.master_seed,
    )


def _search_outcomes(report: CampaignReport) -> dict[int, tuple[str, float | None]]:
    """Per instance of a search campaign report, by index: ("failed", the
    margin of its first violating row with a computed margin), ("error",
    None) when it has error rows and no such violation, else ("passed",
    None)."""
    cols = report.columns
    index = np.array([int(m.instance_id) for m in report.members])[cols["member"]]
    genuine = ~report.holds() & (cols["verdict"] != ERROR_CODE)
    outcomes = {}
    for idx in dict.fromkeys(index.tolist()):
        rows = index == idx
        if genuine[rows].any():
            outcomes[idx] = ("failed", float(cols["margin"][rows][genuine[rows].argmax()]))
        elif (cols["verdict"][rows] == ERROR_CODE).any():
            # ill-conditioned beyond the pd gate: indeterminate instance
            outcomes[idx] = ("error", None)
        else:
            outcomes[idx] = ("passed", None)
    return outcomes
