"""Textual language for operator words and chain inequalities.

Grammar (whitespace separates tokens, ``#`` starts a line comment):

    chain  := word rel word          rel := '>=' | '<='
    word   := factor+                juxtaposition is product, left assoc
    factor := atom ['^' '{' sexpr '}']
    atom   := 'A' int | '(' word ')'
    sexpr  := ['-'] sterm (('+'|'-') sterm)*
    sterm  := name | number | name '/' number | number '/' number
    name   := 'r' | 't'<int> | 'p'<int> | 'w'<int>

Canonical output uses single spaces between product factors and braces
around every exponent, e.g. ``(A3^{r/2} (A2^{-t1/2} A1^{p1} A2^{-t1/2})^{p2}
A3^{r/2})^{w1}``.
"""
from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence, Union

import numpy as np

from .chains import (
    ONE,
    ChainInequality,
    Direction,
    OperatorWord,
    Power,
    Product,
    ScalarExpr,
    Symbol,
)
from .spectral import (
    HermitianMatrix,
    NonFiniteError,
    WordBatch,
    eigensystem_stack,
    first_errors,
    flag_errors,
    healthy,
    hermitian_part,
    nonfinite_rows,
    power_stack,
    raise_first,
)

# A product of symbol powers is generally not Hermitian; intermediate
# results are plain arrays and only coerced back at power nodes and at a
# top-level product, where palindromic words must land within this residual.
HERMITIZE_RTOL = 1e-8

_NAME_RE = re.compile(r"^(r|[tpw][0-9]+)$")


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class EvaluationError(Exception):
    pass


class UnboundNameError(EvaluationError):
    pass


class NonHermitianResultError(EvaluationError):
    pass


@dataclass(frozen=True)
class Token:
    kind: str
    value: object
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i = 0
    length = len(text)
    while i < length:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < length and text[i] != "\n":
                i += 1
            continue
        start_col = col
        if ch == "A":
            j = i + 1
            while j < length and text[j].isdigit():
                j += 1
            if j == i + 1:
                raise ParseError("operator symbol 'A' requires an index", line, col)
            tokens.append(Token("SYMBOL", int(text[i + 1:j]), line, start_col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < length and (text[j].isalnum()):
                j += 1
            tokens.append(Token("NAME", text[i:j], line, start_col))
            col += j - i
            i = j
            continue
        if ch.isdigit():
            j = i
            while j < length and text[j].isdigit():
                j += 1
            if j < length and text[j] == "." and j + 1 < length and text[j + 1].isdigit():
                j += 1
                while j < length and text[j].isdigit():
                    j += 1
            tokens.append(Token("NUMBER", Fraction(text[i:j]), line, start_col))
            col += j - i
            i = j
            continue
        if ch in "<>":
            if i + 1 < length and text[i + 1] == "=":
                tokens.append(Token("GE" if ch == ">" else "LE", ch + "=", line, start_col))
                i += 2
                col += 2
                continue
            raise ParseError(f"expected '{ch}='", line, col)
        simple = {"(": "LPAREN", ")": "RPAREN", "^": "CARET", "{": "LBRACE",
                  "}": "RBRACE", "+": "PLUS", "-": "MINUS", "/": "SLASH"}
        if ch in simple:
            tokens.append(Token(simple[ch], ch, line, start_col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(Token("EOF", None, line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"expected {kind}, found {tok.kind}", tok.line, tok.col)
        return self.advance()

    def parse_top(self) -> Union[OperatorWord, ChainInequality]:
        lhs = self.parse_word()
        tok = self.peek()
        if tok.kind in ("GE", "LE"):
            self.advance()
            rhs = self.parse_word()
            self.expect("EOF")
            direction = Direction.GE if tok.kind == "GE" else Direction.LE
            return ChainInequality(None, None, lhs, rhs, direction)
        self.expect("EOF")
        return lhs

    def parse_word(self) -> OperatorWord:
        factors = [self.parse_factor()]
        while self.peek().kind in ("SYMBOL", "LPAREN"):
            factors.append(self.parse_factor())
        if len(factors) == 1:
            return factors[0]
        return Product(tuple(factors))

    def parse_factor(self) -> OperatorWord:
        tok = self.peek()
        if tok.kind == "SYMBOL":
            self.advance()
            bare_symbol = True
            index = tok.value
            inner: OperatorWord | None = None
        elif tok.kind == "LPAREN":
            self.advance()
            inner = self.parse_word()
            self.expect("RPAREN")
            bare_symbol = False
            index = -1
        else:
            raise ParseError(
                f"expected 'A<i>' or '(', found {tok.kind}", tok.line, tok.col
            )
        if self.peek().kind == "CARET":
            self.advance()
            self.expect("LBRACE")
            expr = self.parse_sexpr()
            self.expect("RBRACE")
            if bare_symbol:
                return Symbol(index, expr)
            return Power(inner, expr)
        return Symbol(index, ONE) if bare_symbol else inner

    def parse_sexpr(self) -> ScalarExpr:
        negate = False
        if self.peek().kind == "MINUS":
            self.advance()
            negate = True
        expr = self.parse_sterm()
        if negate:
            expr = -expr
        while self.peek().kind in ("PLUS", "MINUS"):
            op = self.advance()
            term = self.parse_sterm()
            expr = expr + term if op.kind == "PLUS" else expr - term
        return expr

    def parse_sterm(self) -> ScalarExpr:
        tok = self.peek()
        if tok.kind == "NAME":
            self.advance()
            if not _NAME_RE.match(str(tok.value)):
                raise ParseError(
                    f"name {tok.value!r} is outside the exponent vocabulary "
                    f"(r, t<i>, p<i>, w<i>)",
                    tok.line, tok.col,
                )
            coeff = Fraction(1)
            if self.peek().kind == "SLASH":
                self.advance()
                denom = self.expect("NUMBER")
                if denom.value == 0:
                    raise ParseError("division by zero", denom.line, denom.col)
                coeff = Fraction(1) / denom.value
            return ScalarExpr.variable(str(tok.value), coeff)
        if tok.kind == "NUMBER":
            self.advance()
            value = tok.value
            if self.peek().kind == "SLASH":
                self.advance()
                denom = self.expect("NUMBER")
                if denom.value == 0:
                    raise ParseError("division by zero", denom.line, denom.col)
                value = value / denom.value
            return ScalarExpr.number(value)
        raise ParseError(
            f"expected a name or number in exponent, found {tok.kind}",
            tok.line, tok.col,
        )


def parse(src: str) -> Union[OperatorWord, ChainInequality]:
    """Parse a word or (with a relation token) a chain inequality."""
    return _Parser(tokenize(src)).parse_top()


def parse_word(src: str) -> OperatorWord:
    out = parse(src)
    if isinstance(out, ChainInequality):
        raise ParseError("expected a word, found a chain inequality", 1, 1)
    return out


def parse_lines(text: str) -> list[ChainInequality]:
    """One inequality per line; blank lines and '#' comments are skipped."""
    chains_out = []
    for ln, raw in enumerate(text.splitlines(), 1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        out = parse(stripped)
        if not isinstance(out, ChainInequality):
            raise ParseError("expected an inequality on this line", ln, 1)
        chains_out.append(out)
    return chains_out


def _factor_text(word: OperatorWord) -> str:
    text = pretty_print(word)
    if isinstance(word, Product):
        return f"({text})"
    return text


def pretty_print(obj) -> str:
    """Canonical text for a word or chain; parsing it back yields a
    structurally equal AST."""
    if isinstance(obj, ChainInequality):
        return f"{pretty_print(obj.lhs)} {obj.direction.value} {pretty_print(obj.rhs)}"
    if isinstance(obj, Symbol):
        if obj.exponent == ONE:
            return f"A{obj.index}"
        return f"A{obj.index}^{{{obj.exponent.render()}}}"
    if isinstance(obj, Product):
        return " ".join(_factor_text(f) for f in obj.factors)
    if isinstance(obj, Power):
        return f"({pretty_print(obj.base)})^{{{obj.exponent.render()}}}"
    raise TypeError(f"not a printable node: {obj!r}")


@dataclass(frozen=True)
class Environment:
    """Immutable binding of scalar names and matrix symbols.

    All bound matrices must share one dimension; any name or index a word
    mentions must be bound before evaluation.
    """

    scalars: Mapping[str, float]
    matrices: Mapping[int, HermitianMatrix]

    def __post_init__(self):
        object.__setattr__(self, "scalars", MappingProxyType(dict(self.scalars)))
        object.__setattr__(self, "matrices", MappingProxyType(dict(self.matrices)))
        dims = {m.dim for m in self.matrices.values()}
        if len(dims) > 1:
            raise ValueError(f"bound matrices disagree on dimension: {sorted(dims)}")

    @property
    def dim(self) -> int:
        if not self.matrices:
            raise ValueError("environment binds no matrices")
        return next(iter(self.matrices.values())).dim

    def matrix(self, index: int) -> HermitianMatrix:
        try:
            return self.matrices[index]
        except KeyError:
            raise UnboundNameError(f"matrix symbol A{index} is not bound") from None


def _not_hermitian(what: str, resid: float, scale: float) -> NonHermitianResultError:
    return NonHermitianResultError(
        f"{what} is not Hermitian (residual {resid:.3e} at scale {scale:.3e}); "
        f"only palindromic sandwich words evaluate to Hermitian matrices"
    )


def _hermitize(values, errors, what: str):
    """Symmetrize a stack, failing the rows whose Hermiticity residual
    exceeds HERMITIZE_RTOL * max(1, ||X||_F)."""
    sym, too_far, resid, scale = hermitian_part(values, HERMITIZE_RTOL)
    if too_far is None:
        return sym, errors
    return sym, flag_errors(errors, too_far,
                            lambda i: _not_hermitian(what, resid[i], scale[i]))


# The per-row name that picks each row's environment when a batch binds
# several.  It sorts before every scalar name, so every group refines the
# grouping by instance.
_INSTANCE = "#instance"


@dataclass(frozen=True, eq=False)
class _Node:
    """One node of a compiled plan.  ``args`` are the plan positions of a
    product's factors or of a power's base, ``names`` the per-row names its
    subtree depends on, and ``exponent`` a symbol's or a power's exponent
    (None for a product)."""

    word: OperatorWord
    args: tuple[int, ...]
    names: frozenset
    exponent: ScalarExpr | None = None


@dataclass(frozen=True, eq=False)
class _Plan:
    """A tuple of words compiled for one set of per-row names: their
    distinct nodes (by identity) with children before parents, the node of
    each word, the symbol nodes, the position of each matrix index the
    symbols raise (``slot``, in order of first use) and every name their
    exponents read.  The plan holds its words, so the node ids it is
    cached under stay theirs."""

    words: tuple
    nodes: tuple[_Node, ...]
    outputs: tuple[int, ...]
    symbols: tuple[int, ...]
    slot: dict
    names: frozenset


def _compile(words: tuple, row_names: frozenset) -> _Plan:
    """The plan of ``words`` when ``row_names`` are the per-row names."""
    instance_names = row_names & {_INSTANCE}
    position: dict[int, int] = {}
    nodes: list[_Node] = []

    def names_of(expr: ScalarExpr) -> frozenset:
        return frozenset(n for n in expr.free_names() if n in row_names)

    def visit(word) -> int:
        got = position.get(id(word))
        if got is not None:
            return got
        exponent = None
        if isinstance(word, Symbol):
            args, exponent = (), word.exponent
            names = names_of(exponent) | instance_names
        elif isinstance(word, Product):
            args = tuple(visit(f) for f in word.factors)
            names = frozenset().union(*(nodes[a].names for a in args))
        elif isinstance(word, Power):
            args, exponent = (visit(word.base),), word.exponent
            names = nodes[args[0]].names | names_of(exponent)
        else:
            raise TypeError(f"not an evaluable node: {word!r}")
        nodes.append(_Node(word, args, names, exponent))
        position[id(word)] = len(nodes) - 1
        return len(nodes) - 1

    outputs = tuple(visit(w) for w in words)
    symbols = tuple(i for i, node in enumerate(nodes) if isinstance(node.word, Symbol))
    indices = dict.fromkeys(nodes[i].word.index for i in symbols)
    return _Plan(words, tuple(nodes), outputs, symbols,
                 {index: j for j, index in enumerate(indices)},
                 frozenset().union(*(node.exponent.free_names() for node in nodes
                                     if node.exponent is not None)))


class _PlanCache:
    """Compiled plans by (node ids of the words, per-row names); at most
    ``size`` of them, the oldest dropped first."""

    def __init__(self, size: int):
        self.size = size
        self.plans: dict = {}

    def get(self, words: tuple, row_names: frozenset) -> _Plan:
        key = (tuple(map(id, words)), row_names)
        plan = self.plans.get(key)
        if plan is None:
            plan = _compile(words, row_names)
            if len(self.plans) >= self.size:
                self.plans.pop(next(iter(self.plans)))
            self.plans[key] = plan
        return plan


_PLANS = _PlanCache(64)


@dataclass(frozen=True, eq=False)
class _Group:
    """The distinct bindings of some per-row names: rows that agree on them
    share one evaluation.  ``first[m]`` is a row carrying binding m,
    ``inverse[i]`` the binding of row i.  A ``shared`` group, one of grid
    columns, is held in a row schedule with read-only arrays, and every run
    on the schedule reads it; the values its names take are kept by each
    run."""

    first: np.ndarray
    inverse: np.ndarray
    shared: bool = False


def _distinct(column: np.ndarray):
    """(first, inverse) of a column's distinct values, as
    ``np.unique(column, return_index=True, return_inverse=True)`` returns
    them: values in ascending order, ``first`` the first row holding each
    and every NaN one value."""
    order = column.argsort(kind="stable")
    ordered = column[order]
    new = np.empty(len(column), dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    if len(column) and ordered.dtype.kind == "f" and np.isnan(ordered[-1]):
        new[ordered.searchsorted(ordered[-1], side="left") + 1:] = False
    inverse = np.empty(len(column), dtype=np.intp)
    inverse[order] = np.add.accumulate(new, dtype=np.intp) - 1
    return order[new], inverse


def _refine(first: np.ndarray, inverse: np.ndarray, column: np.ndarray):
    """(first, inverse) of rows grouped as ``first`` and ``inverse`` give
    and then by ``column``."""
    values, codes = _distinct(column)
    return _distinct(inverse * len(values) + codes)


def _refined(rest: _Group | None, column: np.ndarray, shared: bool) -> _Group:
    """The group of rows grouped as ``rest`` (None: all rows as one) and
    then by ``column``, with read-only arrays when ``shared``; ``rest``
    itself when each of its rows is a binding of its own already."""
    if rest is not None and len(rest.first) == len(column):
        return rest
    group = _Group(*(_distinct(column) if rest is None
                     else _refine(rest.first, rest.inverse, column)), shared)
    if shared:
        group.first.setflags(write=False)
        group.inverse.setflags(write=False)
    return group


def _alignment(child: _Group, parent: _Group) -> np.ndarray:
    """The binding of ``child`` that each binding of ``parent``, a group of
    more names, carries."""
    return child.inverse[parent.first]


class RowSchedule:
    """The grid columns of some rows, and what the evaluation runs given
    them (``evaluate_batch(..., schedule=)``) find once for every later
    run, read-only: the groups of names whose columns are all grid columns
    and the indices that align two such groups.  ``keys`` declares the
    names a run may bind per row as functions of one grid column, its key,
    and so groups as it groups the key.  A run of several environments
    may take the rows once per environment, in blocks: its groups of the
    instance and grid columns are then tiled from the schedule's, which
    are of one block whatever the number of blocks."""

    def __init__(self, columns: Mapping[str, np.ndarray],
                 keys: Mapping[str, str] | None = None):
        self.columns = MappingProxyType({name: np.asarray(col, dtype=np.float64).reshape(-1)
                                         for name, col in columns.items()})
        self.keys = MappingProxyType(dict(keys or {}))
        for name, key in self.keys.items():
            if key not in self.columns or name in self.columns:
                raise ValueError(f"{name!r} is keyed to {key!r}: a key must be a grid "
                                 f"column, and a keyed name must not be one")
        self.size = len(next(iter(self.columns.values()), ()))
        self.groups: dict[frozenset, _Group] = {}
        self.alignments: dict[tuple[_Group, _Group], np.ndarray] = {}

    def group(self, names: frozenset) -> _Group | None:
        """The group of grid columns ``names`` on the schedule's rows,
        refined by the names in sorted order (None: no names)."""
        if not names:
            return None
        got = self.groups.get(names)
        if got is None:
            last = max(names)
            got = self.groups[names] = _refined(self.group(names - {last}),
                                                self.columns[last], True)
        return got


def _fit(errors, m: int):
    """Row errors stretched to m rows (a single row is shared by all)."""
    if errors is None or len(errors) == m:
        return errors
    return np.broadcast_to(errors, (m,)).copy()


def _some(errors):
    """None for row errors of which none is set."""
    return None if errors is None or healthy(errors).all() else errors


class _Part(NamedTuple):
    """A node's values and errors, one per binding of ``group`` (one shared
    by every row when ``group`` is None); errors is None while no binding
    has failed."""

    values: np.ndarray
    errors: np.ndarray | None
    group: _Group | None
    power_eigenvalues: np.ndarray | None = None  # mu of a power's U diag(mu) U*


class _BatchRun:
    """One evaluation of one or more words under a batch of bindings.

    The words run from a plan compiled once per word tuple and set of
    per-row names (``_PLANS``).  Each node is evaluated once per distinct
    binding of the per-row names its subtree mentions: a node without any
    is evaluated once, and a layer of a nested sandwich on the distinct
    prefixes of the exponents it depends on.  Under several environments
    every matrix symbol depends on the row's instance, so each node is
    evaluated once per (instance, prefix).  Every symbol node is raised in
    one stacked power, through the cached decompositions of the bound
    matrices; a power decomposes its base once per binding of the base and
    raises it to each of its own exponents.  The groups of grid columns,
    and of names keyed to them, come from the run's row schedule, which the
    runs on the same grid share, and so do the indices that align them; a
    run that takes the schedule's rows in a block per environment tiles
    its groups of the instance and grid columns from the schedule's.
    """

    def __init__(self, env, rows: Mapping[str, np.ndarray], instance=None,
                 schedule: RowSchedule | None = None):
        columns = {name: np.asarray(col, dtype=np.float64).reshape(-1)
                   for name, col in rows.items()}
        self.schedule = schedule = schedule or RowSchedule({})
        clash = columns.keys() & schedule.columns.keys()
        if clash:
            raise ValueError(f"columns {sorted(clash)} are grid columns of the schedule")
        self.keys = {name: key for name, key in schedule.keys.items() if name in columns}
        envs = (env,) if isinstance(env, Environment) else tuple(env)
        inst = None
        if instance is not None or len(envs) > 1:
            if instance is None:
                raise ValueError("several environments need an instance column")
            inst = np.asarray(instance, dtype=np.intp).reshape(-1)
            low, high = (np.minimum.reduce(inst), np.maximum.reduce(inst)) if len(inst) \
                else (-1, -1)
            if not 0 <= low <= high < len(envs):
                raise ValueError(f"instance column must index the {len(envs)} environments")
            # the run binds only the environments some row names, in order
            named = np.bincount(inst, minlength=len(envs)) > 0
            if np.count_nonzero(named) < len(named):
                envs = tuple(e for e, keep in zip(envs, named.tolist()) if keep)
                inst = (np.cumsum(named) - 1)[inst]
            # each environment's matrices share one dimension already
            if len({m.dim for e in envs for m in itertools.islice(e.matrices.values(), 1)}) > 1 \
                    or len({frozenset(e.scalars) for e in envs}) > 1:
                raise ValueError("environments must bind the same scalar names "
                                 "and one matrix dimension")
        # the schedule's rows, or a block of them per environment, block b
        # under environment b
        self.blocks = 1
        if len(envs) > 1 and schedule.columns and len(inst) != schedule.size:
            self.blocks = len(inst) // max(1, schedule.size)
            if not np.array_equal(inst, np.arange(self.blocks).repeat(schedule.size)):
                raise ValueError(f"an instance column longer than the schedule's "
                                 f"{schedule.size} rows must number blocks of them in turn")
        columns.update(schedule.columns if self.blocks == 1 else
                       {name: np.tile(col, self.blocks) for name, col in schedule.columns.items()})
        sizes = {len(col) for col in columns.values()}
        if inst is not None:
            sizes.add(len(inst))
            if len(envs) > 1:
                columns[_INSTANCE] = inst
        if len(sizes) > 1:
            raise ValueError(f"binding columns differ in length: {sorted(sizes)}")
        self.env = envs[0]
        self.envs = envs
        self.scalars = self.env.scalars
        self.size = sizes.pop() if sizes else 1
        # with several environments, their scalars become per-instance columns
        self.multi = _INSTANCE in columns
        self.env_columns = {}
        if self.multi:
            self.scalars = {}
            self.env_columns = {name: np.array([e.scalars[name] for e in envs], dtype=np.float64)
                                for name in self.env.scalars if name not in columns}
        self.columns = columns
        self._values: dict[tuple[_Group, str], np.ndarray] = {}
        # the names whose groups come from the schedule
        self.grid = frozenset(schedule.columns) | (
            {_INSTANCE} if self.blocks > 1 else frozenset())
        self._groups: dict[frozenset, _Group] = {}
        self._tiles: dict[tuple[_Group | None, bool], _Group] = {}
        for name, key in self.keys.items():
            # one gather and compare, bit for bit, on the key's grouping
            group = self.group(frozenset({key}))
            bits = columns[name].view(np.int64)
            if np.count_nonzero(bits[group.first][group.inverse] != bits):
                raise ValueError(f"column {name!r} is not constant on the grouping "
                                 f"of its key {key!r}")

    def group_of(self, node: _Node) -> _Group | None:
        """The group a node is evaluated on (None: once for every row)."""
        return self.group(node.names) if self.columns else None

    def group(self, names: frozenset) -> _Group | None:
        """The group of ``names``: its rows refined by the names in sorted
        order, a keyed name standing for its key.  The group of grid
        columns alone comes from the run's row schedule, so the runs on one
        grid group its rows once, and so, tiled, does that of the instance
        and grid columns of a run in blocks."""
        if not names:
            return None
        got = self._groups.get(names)
        if got is None:
            keyed = frozenset(self.keys.get(name, name) for name in names) \
                if self.keys else names
            if keyed != names:
                got = self.group(keyed)
            elif names <= self.grid:
                got = self.schedule.group(names - {_INSTANCE})
                if self.blocks > 1:
                    got = self._tiled(got, _INSTANCE in names)
            else:
                last = max(names)
                got = _refined(self.group(names - {last}), self.columns[last], False)
            self._groups[names] = got
        return got

    def _tiled(self, group: _Group | None, by_instance: bool) -> _Group:
        """The group of the run's blocks of rows by the names of ``group``,
        a schedule's group (None: of no names), and, ``by_instance``, by
        the instance before them: what refining the run's own columns
        gives, bit for bit, since every block holds the schedule's rows in
        their order."""
        got = self._tiles.get((group, by_instance))
        if got is None:
            n = self.schedule.size
            first, inverse = ((np.zeros(1, dtype=np.intp), np.zeros(n, dtype=np.intp))
                              if group is None else (group.first, group.inverse))
            if by_instance:
                block = np.arange(self.blocks)[:, None]
                first, inverse = ((block * n + first).reshape(-1),
                                  (block * len(first) + inverse).reshape(-1))
            else:
                inverse = np.tile(inverse, self.blocks)
            got = self._tiles[group, by_instance] = _Group(first, inverse)
        return got

    def column(self, group: _Group, name: str):
        """The values of a per-row or per-instance name, one per binding of
        ``group`` (a group of that name, or of the instance); None for a
        name the environment binds for every row."""
        got = self._values.get((group, name))
        if got is None:
            if name in self.columns:
                got = self.columns[name][group.first]
            elif name in self.env_columns:
                got = self.env_columns[name][self.column(group, _INSTANCE)]
            else:
                return None
            self._values[group, name] = got
        return got

    def alignment(self, child: _Group | None, parent: _Group | None):
        """The binding of ``child`` that each binding of ``parent``, a group
        of more names, carries; None when no gather is needed."""
        if child is None or child is parent:
            return None
        if not (child.shared and parent.shared):
            return _alignment(child, parent)
        got = self.schedule.alignments.get((child, parent))
        if got is None:
            got = self.schedule.alignments[child, parent] = _alignment(child, parent)
            got.setflags(write=False)
        return got

    def exponent(self, node: _Node, group: _Group | None):
        """A node's exponent per binding of ``group``, from its float form by
        the operations of ``ScalarExpr.evaluate``."""
        total, terms = node.exponent.floats
        for name, coeff in terms:
            value = None if group is None else self.column(group, name)
            if value is None:
                value = self.scalars[name]
                if not hasattr(value, "shape"):
                    value = float(value)
            total = total + coeff * value
        return total

    def check_bindings(self, plan: _Plan) -> None:
        """Raise the first UnboundNameError of the plan's nodes, in plan
        order: a symbol's matrix in every environment of the run, then its
        exponent's names; a power's exponent names."""
        bound = self.columns.keys() | self.env.scalars.keys()
        partial = [env for env in self.envs if not plan.slot.keys() <= env.matrices.keys()]
        if not partial and plan.names <= bound:
            return
        for node in plan.nodes:
            if partial and isinstance(node.word, Symbol):
                for env in partial:
                    env.matrix(node.word.index)
            for name, _ in () if node.exponent is None else node.exponent.terms:
                if name not in bound:
                    raise UnboundNameError(f"scalar name {name!r} is not bound")

    def batches(self, words: tuple) -> tuple[WordBatch, ...]:
        """One WordBatch per word, from the words' plan, once every name it
        needs is bound.  An overflowed or NaN value is a guarded error row,
        so numpy's floating-point warnings are silenced once for the whole
        run."""
        plan = _PLANS.get(words, frozenset(self.columns))
        self.check_bindings(plan)
        parts: list[_Part | None] = [None] * len(plan.nodes)
        with np.errstate(all="ignore"):
            self._symbols(plan, parts)
            for i, node in enumerate(plan.nodes):
                if parts[i] is None:
                    parts[i] = (self._product(node, parts) if isinstance(node.word, Product)
                                else self._power(node, parts))
            return tuple(self.batch(plan.nodes[i], parts[i]) for i in plan.outputs)

    def aligned(self, part: _Part, group: _Group | None):
        """A part's values and errors per binding of ``group`` (a superset
        of the part's names)."""
        idx = self.alignment(part.group, group)
        if idx is None:
            return part.values, part.errors
        return part.values[idx], None if part.errors is None else part.errors[idx]

    def _table(self, plan: _Plan):
        """The decompositions of every symbol index of the plan in every
        environment: eigenvalues and eigenvectors stacked with entry
        ``plan.slot[index] * E + e`` for environment e of E, and, when some
        eigenvectors are complex, the dtype each index's eigenvectors stack
        to across environments (None when all are real).  A matrix that
        fails to decompose raises its error."""
        decs = [env.matrix(index).decomposition() for index in plan.slot for env in self.envs]
        vectors = [d.eigenvectors for d in decs]
        u, dtypes, count = np.array(vectors), None, len(self.envs)
        if u.dtype.kind == "c":
            dtypes = [np.result_type(*vectors[j:j + count]) for j in range(0, len(decs), count)]
        return np.array([d.eigenvalues for d in decs]), u, dtypes

    def _symbols(self, plan: _Plan, parts: list) -> None:
        """Every symbol node of the plan, raised in one ``power_stack`` call
        (one per eigenvector dtype) and sliced back per node."""
        if not plan.symbols:
            return
        lam, u, dtypes = self._table(plan)
        count = len(self.envs)
        pending: dict = {}  # per dtype: (node position, group, table entries, alpha)
        for i in plan.symbols:
            node = plan.nodes[i]
            group = self.group_of(node)
            slot = plan.slot[node.word.index]
            entries = (slot * count + self.column(group, _INSTANCE) if self.multi
                       else np.full(1 if group is None else len(group.first), slot,
                                    dtype=np.intp))
            pending.setdefault(None if dtypes is None else dtypes[slot], []).append(
                (i, group, entries, self.exponent(node, group)))
        for dtype, stacked in pending.items():
            entries = np.concatenate([node_entries for _, _, node_entries, _ in stacked])
            vectors = u[entries]
            if dtype is not None and vectors.dtype != dtype:  # a real index among complex ones
                vectors = np.ascontiguousarray(vectors.real)
            alpha = np.empty(len(entries))
            start = 0
            for _, _, node_entries, node_alpha in stacked:
                alpha[start:start + len(node_entries)] = node_alpha
                start += len(node_entries)
            values, _, errors = power_stack(lam[entries], vectors, alpha, None)
            start = 0
            for i, group, node_entries, _ in stacked:
                end = start + len(node_entries)
                parts[i] = _Part(values[start:end],
                                 None if errors is None else _some(errors[start:end]), group)
                start = end

    def _product(self, node: _Node, parts: list) -> _Part:
        group = self.group_of(node)
        values, errors = self.aligned(parts[node.args[0]], group)
        for arg in node.args[1:]:
            factor_values, factor_errors = self.aligned(parts[arg], group)
            values = values @ factor_values
            errors = first_errors(errors, factor_errors)
        bad = nonfinite_rows(values)
        if bad is not None:
            errors = flag_errors(errors, bad, lambda i: NonFiniteError("product"))
        return _Part(values, _fit(errors, len(values)), group)

    def _power(self, node: _Node, parts: list) -> _Part:
        base = parts[node.args[0]]
        group = self.group_of(node)
        sym, errors = _hermitize(base.values, base.errors, "power base")
        alpha = self.exponent(node, group)
        lam, u, errors, uh, norms = eigensystem_stack(sym, errors)
        idx = self.alignment(base.group, group)
        if idx is not None:
            lam, u, uh, norms = lam[idx], u[idx], uh[idx], norms[idx]
            errors = None if errors is None else errors[idx]
        values, mu, errors = power_stack(lam, u, alpha, errors, uh, norms)
        return _Part(values, _fit(errors, len(values)), group, mu)

    def batch(self, node: _Node, part: _Part) -> WordBatch:
        """A word's value per row of the run, with its distinct values."""
        values, errors = part.values, part.errors
        if isinstance(node.word, Product):  # power values are symmetrized already
            values, errors = _hermitize(values, errors, "word value")
        n, dim = self.size, values.shape[-1]
        if part.group is None:
            first, inverse = np.zeros(1, dtype=np.intp), np.zeros(n, dtype=np.intp)
        else:
            first, inverse = part.group.first, part.group.inverse
        if errors is not None:
            errors = _fit(errors, len(values))
            values = np.where(healthy(errors)[:, None, None], values, np.eye(dim))
            errors = errors[inverse]
        return WordBatch(values[inverse], errors, (first, inverse), part.power_eigenvalues)


def evaluate_batch(word: OperatorWord | tuple[OperatorWord, ...],
                   env: Environment | Sequence[Environment],
                   rows: Mapping[str, np.ndarray] | None = None,
                   instance=None, schedule: RowSchedule | None = None
                   ) -> WordBatch | tuple[WordBatch, ...]:
    """Evaluate a word under N bindings at once.

    ``env`` binds the matrices and the scalars shared by every row;
    ``rows`` maps further scalar names to (N,) columns, one entry per
    binding (N = 1 without it).  A ``schedule`` binds its grid columns
    too, and the runs given the same schedule share the groupings of its
    rows (``RowSchedule``); a column that the schedule keys to a grid
    column is grouped as that column is, and one that is not constant on
    the key's grouping, bit for bit, raises ValueError before anything is
    evaluated.  ``env`` may also be a sequence of environments binding the
    same names at one dimension, with ``instance`` an (N,) column of
    indices into it: row i then takes its matrices and its other scalars
    from ``env[instance[i]]``, and an environment that no row names takes
    no part in the run.  A schedule of fewer than N rows then binds them
    in blocks, one per environment: ``instance`` must number the blocks of
    its rows in turn, 0 on the first block, 1 on the second and so on, and
    the run tiles the groupings the schedule holds of one block.  Products
    multiply left to right; powers go through the spectral calculus of the
    coerced Hermitian base, stacked over the distinct bindings of each
    node, and every symbol of the run is raised in one stacked power.  A
    binding that fails a guard (pd gate, eigensolver residuals,
    Hermiticity, a non-finite value) becomes an error row without affecting
    the others.  A matrix or scalar name that the words need and some
    named environment or column leaves unbound raises UnboundNameError before
    anything is evaluated, and a bound matrix that fails to decompose
    raises its SpectralError: neither is a row error.

    ``word`` may also be a tuple of words, evaluated in one run: a node
    object that several of them contain is evaluated (and a power base
    decomposed) once, and one WordBatch per word comes back, each equal to
    that of evaluating the word alone.  Nodes are shared by identity, not
    by structure.

    Every batch knows its distinct values, so a comparison against it
    decomposes each of them once (``WordBatch.spectrum``).
    """
    run = _BatchRun(env, rows or {}, instance, schedule)
    if isinstance(word, tuple):
        return run.batches(word)
    return run.batches((word,))[0]


def evaluate(word: OperatorWord, env: Environment) -> HermitianMatrix:
    """Evaluate a word against an environment: the single-binding case of
    ``evaluate_batch``, raising the error of the first failing node.

    Powers require strictly positive intermediates for fractional or
    negative exponents.
    """
    batch = evaluate_batch(word, env)
    raise_first(batch.row_errors)
    return HermitianMatrix.trusted(batch.values[0])
