"""Combinatorics of the nested power-sandwich inequality families.

For k strictly positive operators A_1 .. A_k (k = 2n or 2n+1) the
hypothesis set consists of k - 1 inequalities between a single power of an
outer operator and a nested sandwich word.  The ascending family saturates
layer indices upward at k; the descending family walks indices down and
floors them at 1.  This module builds those words symbolically; numeric
evaluation lives in the DSL and the verifier.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Union

import numpy as np


class Family(Enum):
    ASCENDING = "ascending"
    DESCENDING = "descending"


class Direction(Enum):
    GE = ">="
    LE = "<="


@dataclass(frozen=True)
class ScalarExpr:
    """Rational linear form over parameter names plus a constant.

    The closed vocabulary is {t1..tn, p1..p2n, r, w1..w(k-1)} with division
    by literals only, plus the weight w of the slot words (``slot_words``),
    q2..q(2n-1) in the reduction's peeled bound and a, s and d in the
    probes' words (``verify``); that is exactly the set of
    exponent shapes the words use, so no general symbolic algebra is needed.
    Every evaluation reads ``floats``, (const, terms) as floats.
    """

    terms: tuple[tuple[str, Fraction], ...] = ()
    const: Fraction = Fraction(0)
    floats: tuple = field(init=False, repr=False, compare=False)

    @staticmethod
    def variable(name: str, coeff=1) -> "ScalarExpr":
        c = Fraction(coeff)
        if c == 0:
            return ScalarExpr()
        return ScalarExpr(terms=((name, c),))

    @staticmethod
    def number(value) -> "ScalarExpr":
        return ScalarExpr(const=Fraction(value))

    def __post_init__(self):
        merged: dict[str, Fraction] = {}
        for name, coeff in self.terms:
            merged[name] = merged.get(name, Fraction(0)) + Fraction(coeff)
        normal = tuple(sorted((n, c) for n, c in merged.items() if c != 0))
        object.__setattr__(self, "terms", normal)
        object.__setattr__(self, "const", Fraction(self.const))
        floats = float(self.const), tuple((n, float(c)) for n, c in normal)
        object.__setattr__(self, "floats", floats)

    def __add__(self, other: "ScalarExpr") -> "ScalarExpr":
        return ScalarExpr(terms=self.terms + other.terms, const=self.const + other.const)

    def __sub__(self, other: "ScalarExpr") -> "ScalarExpr":
        return self + (-other)

    def __neg__(self) -> "ScalarExpr":
        return ScalarExpr(
            terms=tuple((n, -c) for n, c in self.terms), const=-self.const
        )

    def free_names(self) -> frozenset[str]:
        return frozenset(n for n, _ in self.terms)

    def evaluate(self, bindings):
        """Value under ``bindings``.  A bound value may also be a numpy
        array, which evaluates elementwise with the same arithmetic."""
        total, terms = self.floats
        for name, coeff in terms:
            value = bindings[name]
            if not hasattr(value, "shape"):
                value = float(value)
            total = total + coeff * value
        return total

    def render(self) -> str:
        """Canonical text form, e.g. ``-t1/2``, ``r-t2``, ``1/2``."""
        pieces: list[str] = []
        for name, coeff in self.terms:
            if abs(coeff.numerator) != 1:
                raise ValueError(f"coefficient {coeff} of {name} has no textual form")
            body = name if coeff.denominator == 1 else f"{name}/{coeff.denominator}"
            pieces.append(("-" if coeff < 0 else "+") + body)
        if self.const != 0 or not pieces:
            c = self.const
            body = str(abs(c.numerator)) if c.denominator == 1 else \
                f"{abs(c.numerator)}/{c.denominator}"
            pieces.append(("-" if c < 0 else "+") + body)
        text = pieces[0].lstrip("+") + "".join(pieces[1:])
        return text


ONE = ScalarExpr.number(1)


@dataclass(frozen=True)
class Symbol:
    """A_i raised to a scalar-expression exponent."""

    index: int
    exponent: ScalarExpr = ONE

    def __post_init__(self):
        if self.index < 1:
            raise ValueError(f"symbol index must be >= 1, got {self.index}")


@dataclass(frozen=True)
class Product:
    factors: tuple["OperatorWord", ...]

    def __post_init__(self):
        if len(self.factors) < 2:
            raise ValueError("a product needs at least two factors")


@dataclass(frozen=True)
class Power:
    base: "OperatorWord"
    exponent: ScalarExpr


OperatorWord = Union[Symbol, Product, Power]


@dataclass(frozen=True)
class ChainInequality:
    """One member of a hypothesis family: lhs <rel> rhs.

    family/member are None for inequalities recovered from parsed text,
    where the provenance is unknown.
    """

    family: Family | None
    member: int | None
    lhs: OperatorWord
    rhs: OperatorWord
    direction: Direction


def _dyadic(x: float) -> tuple[int, int]:
    """x as (m, s) with x = m / 2**s exactly; every float is dyadic."""
    m, d = float(x).as_integer_ratio()
    return m, d.bit_length() - 1


class ChainTerms(NamedTuple):
    """The p-dependent terms of the expanded chain exponent of each row of
    an (N, 2n) p-table (``chain_terms``): (S_1, (S_3 - S_2, .., S_(2n+1) -
    S_2n)), read-only object columns of Python integers over the one power
    of two 2**(2n * ps), where S_m = p_m * .. * p_2n and S_(2n+1) = 1."""

    head: np.ndarray
    diffs: tuple[np.ndarray, ...]
    ps: int

    def exponents(self, t) -> np.ndarray:
        """``chain_exponents`` at t of the rows these terms were taken of:
        the instances that share a p-table pay only their t_j multiples."""
        t = tuple(float(v) for v in t)
        if len(self.diffs) != len(t):
            raise ValueError(f"need twice as many p as t values, "
                             f"got {2 * len(self.diffs)} and {len(t)}")
        if any(not 0.0 <= v <= 1.0 for v in t):
            raise ValueError(f"every t must lie in [0, 1], got {t}")
        # every t_j as an integer over the one power of two 2**ts
        dyadic = [_dyadic(v) for v in t]
        ts = max(s for _, s in dyadic)
        b = self.head << ts
        for (tm, s), diff in zip(dyadic, self.diffs):
            if tm:
                b = b + diff * (tm << (ts - s))
        bs = 2 * len(self.diffs) * self.ps + ts
        try:
            return (b / (1 << bs)).astype(np.float64)
        except OverflowError:
            pass
        out = np.empty(len(b))
        for i, m in enumerate(b.tolist()):
            try:
                out[i] = m / (1 << bs)
            except OverflowError:
                out[i] = math.inf  # b_n >= 1 whenever p >= 1 and t lies in [0, 1]
        return out


def chain_terms(p_table: np.ndarray) -> ChainTerms:
    """The ``ChainTerms`` of an (N, 2n) p-table.  Raises ValueError unless
    every p is finite and >= 1."""
    table = np.asarray(p_table, dtype=np.float64)
    if table.ndim != 2 or table.shape[1] % 2:
        raise ValueError(f"a p-table has one row of 2n p per vector, got shape {table.shape}")
    bad = ~(np.isfinite(table) & (table >= 1.0))
    if bad.any():
        first = tuple(table[bad.any(axis=1)][0].tolist())
        raise ValueError(f"every p must be finite and >= 1, got {first}")
    # every p as an integer over the one power of two 2**ps
    values, codes = np.unique(table, return_inverse=True)
    exact = [_dyadic(v) for v in values.tolist()]
    ps = max((s for _, s in exact), default=0)
    p_int = np.array([m << (ps - s) for m, s in exact], dtype=object)
    p_int = p_int[codes.reshape(table.shape)]
    # suffix = p_(m+1) * .. * p_2n over 2**((2n - m) * ps), m = 2n .. 1; at
    # m = 2j, S_(2j+1) - S_2j = suffix * (1 - p_2j), taken over 2**(2n * ps)
    width = table.shape[1]
    suffix = np.ones(len(table), dtype=object)
    diffs = []
    for m in range(width, 0, -1):
        scaled = suffix * p_int[:, m - 1]
        if m % 2 == 0:
            diffs.append(((suffix << ps) - scaled) << ((m - 1) * ps))
        suffix = scaled
    diffs = tuple(reversed(diffs))
    for column in (suffix, *diffs):
        column.setflags(write=False)
    return ChainTerms(suffix, diffs, ps)


def chain_exponents(t, p_table) -> np.ndarray:
    """Aggregate exponent psi of the fully nested chain word, one per row of
    an (N, 2n) table of p-vectors.

    Defined by the recurrence b_0 = 1, b_j = (b_(j-1) * p_(2j-1) - t_j) *
    p_(2j) + t_j, returning b_n, and computed in its expanded form b_n =
    S_1 + sum_j t_j * (S_(2j+1) - S_2j), where S_m = p_m * .. * p_2n and
    S_(2n+1) = 1.  The sum is exact: object columns of Python integers over
    one power of two, so the all-ones telescoping case returns exactly 1.0.
    Each b_n is then rounded once to the nearest float (CPython's int / int
    division rounds correctly, as ``float(Fraction)`` does); beyond the
    float range it is inf.  The S terms depend on the table alone
    (``chain_terms``), so a grid's plan takes them once for every instance.
    """
    return chain_terms(p_table).exponents(t)


def necessity_weights(t, terms: ChainTerms, r: float) -> np.ndarray:
    """Weight (r - t_n) / (psi - t_n + r) per row of the p-table whose
    ``chain_terms`` are ``terms``, at which the hypothesis family is
    expected to be equivalent to the operator order; float64 arithmetic,
    the same IEEE operations as on one float."""
    t = tuple(t)
    psi = terms.exponents(t)
    t_n = float(t[-1])
    if not (math.isfinite(r) and r > t_n):
        raise ValueError(f"r must be finite and exceed t_n = {t_n}, got r = {r}")
    denom = psi - t_n + r
    if not (denom > 0.0).all():
        # unreachable when p >= 1 and t in [0, 1]; guarded anyway
        raise ValueError(f"degenerate weight denominator {float(denom.min())}")
    return (r - t_n) / denom


def chain_exponent(t, p) -> float:
    """``chain_exponents`` of one p-vector."""
    return float(chain_exponents(t, [tuple(p)])[0])


def necessity_weight_from(t, p, r: float) -> float:
    """``necessity_weights`` of one p-vector."""
    return float(necessity_weights(t, chain_terms([tuple(p)]), r)[0])


def _levels(k: int) -> int:
    """n for a chain of k operators (k = 2n or 2n + 1)."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    return k // 2


def ascending_index(member: int, layer: int, k: int) -> int:
    """Operator index at ``layer`` of ascending member ``member``; layer 0
    is the innermost base symbol.  Indices saturate at k."""
    n = _levels(k)
    if not 1 <= member <= n:
        raise ValueError(f"ascending member must be in 1..{n}, got {member}")
    if not 0 <= layer <= 2 * n - 1:
        raise ValueError(f"layer must be in 0..{2 * n - 1}, got {layer}")
    return min(member + layer, k)


def descending_index(member: int, layer: int, k: int) -> int:
    """Operator index at ``layer`` of descending member ``member``; the
    innermost base sits at n+1+member and indices floor at 1."""
    n = _levels(k)
    q_max = n if k == 2 * n + 1 else n - 1
    if not 1 <= member <= q_max:
        raise ValueError(f"descending member must be in 1..{q_max}, got {member}")
    if not 0 <= layer <= 2 * n - 1:
        raise ValueError(f"layer must be in 0..{2 * n - 1}, got {layer}")
    return max(n + 1 + member - layer, 1)


def layer_exponent(layer: int, n: int) -> ScalarExpr:
    """Alternating exponent schedule: odd layers carry -t_i/2, even layers
    +t_i/2, with i stepping up every other layer."""
    if not 1 <= layer <= 2 * n - 1:
        raise ValueError(f"layer must be in 1..{2 * n - 1}, got {layer}")
    if layer % 2:
        i = (layer + 1) // 2
        return ScalarExpr.variable(f"t{i}", Fraction(-1, 2))
    i = layer // 2
    return ScalarExpr.variable(f"t{i}", Fraction(1, 2))


def weight_index(family: Family, member: int, n: int) -> int:
    """Position of the member's weight: ascending members use w_member,
    descending members continue the numbering at w_(n+member)."""
    return member if family is Family.ASCENDING else n + member


def sandwich(index: int, exponent: ScalarExpr, inner: OperatorWord,
             power: str) -> Power:
    """(A_index^exponent inner A_index^exponent)^power."""
    wrap = Symbol(index, exponent)
    return Power(Product((wrap, inner, wrap)), ScalarExpr.variable(power))


@lru_cache(maxsize=None)
def slot_words(k: int) -> tuple[OperatorWord, OperatorWord]:
    """The member-independent (lhs, rhs) of the size-k hypothesis family over
    slot symbols: layer j of the core is slot j + 1 (the base A_1^{p1} is
    layer 0), the outer sandwich and the left side are slot 2n + 1, and the
    weight is named w.

    The core starts as the base symbol to the p1, then gains one sandwich
    layer per step, each raised to the next p; the outer sandwich uses r/2
    and is raised to the weight.  Every member is this pair with its
    operators at the slots (``member_slots``) and its own weight name.
    """
    n = _levels(k)
    core: OperatorWord = Symbol(1, ScalarExpr.variable("p1"))
    for j in range(1, 2 * n):
        core = sandwich(j + 1, layer_exponent(j, n), core, f"p{j + 1}")
    outer = 2 * n + 1
    rhs = sandwich(outer, ScalarExpr.variable("r", Fraction(1, 2)), core, "w")
    lhs = Symbol(outer, ScalarExpr.variable("r") - ScalarExpr.variable(f"t{n}"))
    return lhs, rhs


@lru_cache(maxsize=None)
def member_slots(family: Family, member: int, k: int) -> tuple[int, ...]:
    """The operator index at each slot 1 .. 2n+1 of ``slot_words(k)`` for one
    member: its layers 0 .. 2n-1, then its outer operator (A_k ascending,
    A_1 descending)."""
    n = _levels(k)
    if family is Family.ASCENDING:
        index_at, outer = (lambda j: ascending_index(member, j, k)), k
    else:
        index_at, outer = (lambda j: descending_index(member, j, k)), 1
    return tuple(index_at(j) for j in range(2 * n)) + (outer,)


def _relabel(word: OperatorWord, slots: tuple[int, ...], names: dict,
             done: dict) -> OperatorWord:
    """``word`` with symbol s replaced by A_slots[s-1] and the exponent names
    renamed by ``names``; a node shared inside ``word`` stays shared."""
    got = done.get(id(word))
    if got is None:
        if isinstance(word, Symbol):
            got = Symbol(slots[word.index - 1], word.exponent)
        elif isinstance(word, Product):
            got = Product(tuple(_relabel(f, slots, names, done) for f in word.factors))
        else:
            exponent = ScalarExpr(tuple((names.get(name, name), c)
                                        for name, c in word.exponent.terms),
                                  word.exponent.const)
            got = Power(_relabel(word.base, slots, names, done), exponent)
        done[id(word)] = got
    return got


def build_chain(family: Family, member: int, k: int) -> ChainInequality:
    """Construct one hypothesis inequality of the size-k chain as a
    symbolic word pair: ``slot_words(k)`` with the member's operators at
    its slots (``member_slots``) and its weight w<weight_index> for w.
    Ascending members are GE, descending members LE.
    """
    slots = member_slots(family, member, k)
    names = {"w": f"w{weight_index(family, member, _levels(k))}"}
    done: dict = {}
    lhs, rhs = (_relabel(word, slots, names, done) for word in slot_words(k))
    direction = Direction.GE if family is Family.ASCENDING else Direction.LE
    return ChainInequality(family, member, lhs, rhs, direction)


@lru_cache(maxsize=None)
def hypothesis_set(k: int) -> tuple[ChainInequality, ...]:
    """All hypothesis inequalities for the size-k chain: n ascending members
    plus n descending for odd k, n - 1 descending for even k.  The words are
    immutable, so each k is built once."""
    n = _levels(k)
    members = [build_chain(Family.ASCENDING, m, k) for m in range(1, n + 1)]
    q_max = n if k == 2 * n + 1 else n - 1
    members += [build_chain(Family.DESCENDING, q, k) for q in range(1, q_max + 1)]
    return tuple(members)


@lru_cache(maxsize=None)
def reduction_words(k: int) -> tuple[Product, Power | None]:
    """The innermost sandwich A2^{-t1/2} A1^{p1} A2^{-t1/2} of the first
    ascending member and its peeled bound.

    The sandwich is the very node inside ``hypothesis_set(k)[0]``, so one
    evaluation run shares it with the member.  The bound is the member's
    layers 2n-2 .. 2 around A_2n with flipped signs, raised to exponents
    q2 .. q(2n-1) of its own, which ``peeled_bindings`` binds; for k = 7
    (A3^{-t1/2} (A4^{t2/2} (A5^{-t2/2} A6^{q5} A5^{-t2/2})^{q4}
    A4^{t2/2})^{q3} A3^{-t1/2})^{q2}.  For n = 1 the bound is I (None)."""
    n = _levels(k)
    innermost = hypothesis_core(hypothesis_set(k)[0])
    while isinstance(innermost.base.factors[1], Power):
        innermost = innermost.base.factors[1]
    if n == 1:
        return innermost.base, None
    index_at = lambda j: ascending_index(1, j, k)
    bound: OperatorWord = Symbol(index_at(2 * n - 1), ScalarExpr.variable(f"q{2 * n - 1}"))
    for layer in range(2 * n - 2, 1, -1):
        bound = sandwich(index_at(layer), -layer_exponent(layer, n), bound, f"q{layer}")
    return innermost.base, bound


def peeled_bindings(t, p) -> dict:
    """The peeled bound's binding for sampled p_1 .. p_2n (numbers or batch
    columns): q_j = 1/p_j for j = 2 .. 2n-2, q_(2n-1) = t_n / p_(2n-1)."""
    n = len(t)
    names = {f"q{j}": 1.0 / p[j - 1] for j in range(2, 2 * n - 1)}
    names[f"q{2 * n - 1}"] = float(t[-1]) / p[2 * n - 2]
    return names


def hypothesis_core(chain: ChainInequality) -> OperatorWord:
    """The bracketed word between the outer r/2 sandwich factors of a
    built chain (outermost nested power included)."""
    rhs = chain.rhs
    if not isinstance(rhs, Power) or not isinstance(rhs.base, Product) \
            or len(rhs.base.factors) != 3:
        raise ValueError("not a sandwich-shaped chain right-hand side")
    return rhs.base.factors[1]
