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

import re
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from types import MappingProxyType
from typing import Mapping, Sequence, Union

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
    SpectralDecomposition,
    SpectralError,
    decompose_stack,
    first_errors,
    flag_errors,
    healthy,
    hermitian_part,
    no_errors,
    power_stack,
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
    mentions must be bound before evaluation.  Powers of bound matrices at
    constant exponents are cached here, so an environment built once per
    instance computes each of them once.
    """

    scalars: Mapping[str, float]
    matrices: Mapping[int, HermitianMatrix]
    _powers: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
    return sym, flag_errors(errors, too_far,
                            lambda i: _not_hermitian(what, resid[i], scale[i]))


@dataclass(frozen=True, eq=False)
class WordBatch:
    """A word's value under N scalar bindings.

    ``values[i]`` is the Hermitian value under binding i, or the identity
    where that binding failed; ``errors[i]`` is None or the exception of the
    first node that failed for it in depth-first, left-to-right order, the
    one ``evaluate`` raises for the same binding.

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
    errors: np.ndarray
    distinct: tuple[np.ndarray, np.ndarray] = field(repr=False)
    power_eigenvalues: np.ndarray | None = field(default=None, repr=False)

    @property
    def error_mask(self) -> np.ndarray:
        return ~healthy(self.errors)

    def error_text(self, i: int) -> str | None:
        err = self.errors[i]
        return None if err is None else str(err)

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
        ``spectral.BOUND_SLACK_PER_DIM``.  An error row's value is the
        identity, whose norm 1 never raises a comparison's scale; an
        overflowed or NaN bound bounds nothing."""
        if self.power_eigenvalues is None:
            return None
        return np.abs(self.power_eigenvalues).max(axis=1)


# The per-row name that picks each row's environment when a batch binds
# several.  It sorts before every scalar name, so every group refines the
# grouping by instance.
_INSTANCE = "#instance"


@dataclass(frozen=True, eq=False)
class _Node:
    """One node of a compiled plan.  ``args`` are the plan positions of a
    product's factors or of a power's base, ``names`` the per-row names its
    subtree depends on, and ``const`` and ``terms`` the float coefficients
    of a symbol's or a power's exponent."""

    word: OperatorWord
    args: tuple[int, ...]
    names: frozenset
    const: float = 0.0
    terms: tuple[tuple[str, float], ...] = ()


@dataclass(frozen=True, eq=False)
class _Plan:
    """A tuple of words compiled for one set of per-row names: their
    distinct nodes (by identity) with children before parents, the node of
    each word, the symbol nodes, and the position of each matrix index the
    symbols raise (``slot``, in order of first use).  The plan holds its
    words, so the node ids it is cached under stay theirs."""

    words: tuple
    nodes: tuple[_Node, ...]
    outputs: tuple[int, ...]
    symbols: tuple[int, ...]
    slot: dict


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
        if exponent is None:
            nodes.append(_Node(word, args, names))
        else:
            nodes.append(_Node(word, args, names, float(exponent.const),
                               tuple((n, float(c)) for n, c in exponent.terms)))
        position[id(word)] = len(nodes) - 1
        return len(nodes) - 1

    outputs = tuple(visit(w) for w in words)
    symbols = tuple(i for i, node in enumerate(nodes) if isinstance(node.word, Symbol))
    indices = dict.fromkeys(nodes[i].word.index for i in symbols)
    return _Plan(words, tuple(nodes), outputs, symbols,
                 {index: j for j, index in enumerate(indices)})


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
    ``inverse[i]`` the binding of row i; ``columns`` holds the names'
    values per binding as far as they have been read."""

    names: frozenset
    first: np.ndarray
    inverse: np.ndarray
    columns: dict = field(default_factory=dict)


def _fit(errors, m: int):
    """Row errors stretched to m rows (a single row is shared by all)."""
    if errors is None or len(errors) == m:
        return errors
    return np.broadcast_to(errors, (m,)).copy()


def _some(errors):
    """None for row errors of which none is set."""
    return None if errors is None or healthy(errors).all() else errors


@dataclass(frozen=True, eq=False)
class _Part:
    """A node's values and errors, one per binding of ``group`` (one shared
    by every row when ``group`` is None); errors is None while no binding
    has failed."""

    values: np.ndarray
    errors: np.ndarray
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
    raises it to each of its own exponents.
    """

    def __init__(self, env, rows: Mapping[str, np.ndarray], instance=None):
        columns = {name: np.asarray(col, dtype=np.float64).reshape(-1)
                   for name, col in rows.items()}
        sizes = {len(col) for col in columns.values()}
        envs = (env,) if isinstance(env, Environment) else tuple(env)
        if instance is not None or len(envs) > 1:
            if instance is None:
                raise ValueError("several environments need an instance column")
            inst = np.asarray(instance, dtype=np.intp).reshape(-1)
            if not (len(inst) and 0 <= inst.min() and inst.max() < len(envs)):
                raise ValueError(f"instance column must index the {len(envs)} environments")
            if len({m.dim for e in envs for m in e.matrices.values()}) > 1 \
                    or len({frozenset(e.scalars) for e in envs}) > 1:
                raise ValueError("environments must bind the same scalar names "
                                 "and one matrix dimension")
            sizes.add(len(inst))
            if inst.min() == inst.max():
                envs = (envs[int(inst[0])],)  # one instance: its environment alone
            else:
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
        elif self.size == 1:
            # a single binding: every node is evaluated once, no grouping
            self.scalars = {**self.env.scalars,
                            **{name: float(col[0]) for name, col in columns.items()}}
            columns = {}
        self.columns = columns
        self._groups: dict[frozenset, _Group] = {}

    @property
    def dim(self) -> int:
        return self.env.dim if self.env.matrices else 1

    def group_of(self, node: _Node) -> _Group | None:
        """The group a node is evaluated on (None: once for every row)."""
        return self.group(node.names) if self.columns else None

    def group(self, names: frozenset) -> _Group | None:
        if not names:
            return None
        got = self._groups.get(names)
        if got is None:
            last = max(names)
            rest = self.group(names - {last})
            if rest is not None and len(rest.first) == self.size:
                # every row is a binding of its own already
                first, inverse = rest.first, rest.inverse
            else:
                values, codes = np.unique(self.columns[last], return_inverse=True)
                key = codes if rest is None else rest.inverse * len(values) + codes
                _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
            got = self._groups[names] = _Group(names, first, inverse)
        return got

    def column(self, group: _Group, name: str):
        """The values of a per-row or per-instance name, one per binding of
        ``group``; None for a name the environment binds for every row."""
        got = group.columns.get(name)
        if got is None:
            if name in group.names:
                got = self.columns[name][group.first]
            elif name in self.env_columns and _INSTANCE in group.names:
                got = self.env_columns[name][self.column(group, _INSTANCE)]
            else:
                return None
            group.columns[name] = got
        return got

    def exponent(self, node: _Node, group: _Group | None):
        """A node's exponent per binding of ``group``, by the operations of
        ``ScalarExpr.evaluate``."""
        total = node.const
        for name, coeff in node.terms:
            value = None if group is None else self.column(group, name)
            if value is None:
                try:
                    value = self.scalars[name]
                except KeyError:
                    raise UnboundNameError(f"scalar name {name!r} is not bound") from None
                if not hasattr(value, "shape"):
                    value = float(value)
            total = total + coeff * value
        return total

    def batches(self, words: tuple) -> tuple[WordBatch, ...]:
        """One WordBatch per word, from the words' plan."""
        plan = _PLANS.get(words, frozenset(self.columns))
        parts: list[_Part | None] = [None] * len(plan.nodes)
        self._symbols(plan, parts)
        for i, node in enumerate(plan.nodes):
            if parts[i] is None:
                parts[i] = (self._product(node, parts) if isinstance(node.word, Product)
                            else self._power(node, parts))
        return tuple(self.batch(plan.nodes[i], parts[i]) for i in plan.outputs)

    def aligned(self, part: _Part, group: _Group | None):
        """A part's values and errors per binding of ``group`` (a superset
        of the part's names)."""
        if part.group is None or part.group is group:
            return part.values, part.errors
        idx = part.group.inverse[group.first]
        return part.values[idx], None if part.errors is None else part.errors[idx]

    def _table(self, plan: _Plan):
        """The decompositions of every symbol index of the plan in every
        environment: eigenvalues and eigenvectors stacked with entry
        ``plan.slot[index] * E + e`` for environment e of E, the dtype each
        index's eigenvectors stack to across environments, and two
        entry-error arrays (None: no entry failed).  An environment whose
        matrix is unbound gets the identity's decomposition and its error in
        ``missing``; one whose matrix fails to decompose, the identity's and
        its error in ``failed``."""
        decs, missing, failed = [], {}, {}
        for index in plan.slot:
            for env in self.envs:
                try:
                    decs.append(env.matrix(index).decomposition())
                    continue
                except UnboundNameError as exc:
                    missing[len(decs)] = exc
                except SpectralError as exc:
                    failed[len(decs)] = exc
                decs.append(SpectralDecomposition(np.ones(self.dim), np.eye(self.dim)))

        def errors(found: dict):
            if not found:
                return None
            out = no_errors(len(decs))
            for entry, exc in found.items():
                out[entry] = exc
            return out

        count = len(self.envs)
        vectors = [d.eigenvectors for d in decs]
        dtypes = [np.result_type(*vectors[j:j + count]) for j in range(0, len(decs), count)]
        return (np.stack([d.eigenvalues for d in decs]), np.stack(vectors), dtypes,
                errors(missing), errors(failed))

    def _symbols(self, plan: _Plan, parts: list) -> None:
        """Every symbol node of the plan, raised in one ``power_stack`` call
        (one per eigenvector dtype) and sliced back per node.

        A binding fails with its matrix's unbound error, else its
        exponent's, else its matrix's decomposition error: the order in
        which ``evaluate`` meets them.  A constant power of the single
        environment comes from, or goes to, its cache."""
        if not plan.symbols:
            return
        lam, u, dtypes, missing, failed = self._table(plan)
        count = len(self.envs)
        pending: dict = {}  # per dtype: (node position, group, table entries, alpha, errors)
        for i in plan.symbols:
            node = plan.nodes[i]
            group = self.group_of(node)
            m = 1 if group is None else len(group.first)
            slot = plan.slot[node.word.index]
            inst = self.column(group, _INSTANCE) if self.multi else np.zeros(m, dtype=np.intp)
            entries = slot * count + inst
            errors = None if missing is None else _some(missing[entries])
            try:
                alpha = self.exponent(node, group)
            except UnboundNameError as exc:
                alpha = 1.0
                errors = flag_errors(_fit(errors, m), np.ones(m, dtype=bool), lambda _: exc)
            errors = first_errors(errors, None if failed is None else _some(failed[entries]))
            if errors is not None and not healthy(errors).any():
                # no binding left to raise
                parts[i] = _Part(np.broadcast_to(np.eye(self.dim), (m, self.dim, self.dim)),
                                 errors, group)
                continue
            if group is None and errors is None:
                cached = self.env._powers.get((node.word.index, alpha))
                if cached is not None:
                    parts[i] = _Part(cached, None, None)
                    continue
            pending.setdefault(dtypes[slot], []).append((i, group, entries, alpha, errors))
        for dtype, stacked in pending.items():
            _, _, node_entries, alphas, node_errors = zip(*stacked)
            entries = np.concatenate(node_entries)
            vectors = u[entries]
            if vectors.dtype != dtype:  # a real index among complex ones
                vectors = np.ascontiguousarray(vectors.real)
            errors = None
            if any(e is not None for e in node_errors):
                errors = np.concatenate([no_errors(len(n)) if e is None else e
                                         for n, e in zip(node_entries, node_errors)])
            alpha = np.concatenate([np.broadcast_to(a, (len(n),))
                                    for a, n in zip(alphas, node_entries)])
            values, _, errors = power_stack(lam[entries], vectors, alpha, errors)
            start = 0
            for i, group, rows, node_alpha, _ in stacked:
                end = start + len(rows)
                part = _Part(values[start:end],
                             None if errors is None else _some(errors[start:end]), group)
                if group is None and part.errors is None:
                    part.values.setflags(write=False)
                    self.env._powers[(plan.nodes[i].word.index, node_alpha)] = part.values
                parts[i] = part
                start = end

    def _product(self, node: _Node, parts: list) -> _Part:
        group = self.group_of(node)
        values, errors = self.aligned(parts[node.args[0]], group)
        with np.errstate(over="ignore", invalid="ignore"):
            for arg in node.args[1:]:
                factor_values, factor_errors = self.aligned(parts[arg], group)
                values = values @ factor_values
                errors = first_errors(errors, factor_errors)
        if not np.isfinite(values).all():
            errors = flag_errors(errors, ~np.isfinite(values).all(axis=(-2, -1)),
                                 lambda i: NonFiniteError("product"))
        return _Part(values, _fit(errors, len(values)), group)

    def _power(self, node: _Node, parts: list) -> _Part:
        base = parts[node.args[0]]
        group = self.group_of(node)
        sym, errors = _hermitize(base.values, base.errors, "power base")
        try:
            alpha = self.exponent(node, group)
        except UnboundNameError as exc:
            # one row per binding of this node, whose names may be more than
            # its base's; the base's errors come first
            sym, errors = self.aligned(_Part(sym, errors, base.group), group)
            m = 1 if group is None else len(group.first)
            sym = np.broadcast_to(sym, (m,) + sym.shape[1:])
            return _Part(sym, flag_errors(_fit(errors, m), np.ones(m, dtype=bool),
                                          lambda i: exc), group)
        lam, u, errors = decompose_stack(sym, errors)
        if base.group is not None and base.group is not group:
            idx = base.group.inverse[group.first]
            lam, u = lam[idx], u[idx]
            errors = None if errors is None else errors[idx]
        values, mu, errors = power_stack(lam, u, alpha, errors)
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
        return WordBatch(values[inverse], no_errors(n) if errors is None else errors,
                         (first, inverse), part.power_eigenvalues)


def evaluate_batch(word: OperatorWord | tuple[OperatorWord, ...],
                   env: Environment | Sequence[Environment],
                   rows: Mapping[str, np.ndarray] | None = None,
                   instance=None) -> WordBatch | tuple[WordBatch, ...]:
    """Evaluate a word under N bindings at once.

    ``env`` binds the matrices and the scalars shared by every row;
    ``rows`` maps further scalar names to (N,) columns, one entry per
    binding (N = 1 without it).  ``env`` may also be a sequence of
    environments binding the same names at one dimension, with
    ``instance`` an (N,) column of indices into it: row i then takes its
    matrices and its other scalars from ``env[instance[i]]``.  Products
    multiply left to right; powers go through the spectral calculus of the
    coerced Hermitian base, stacked over the distinct bindings of each
    node, and every symbol of the run is raised in one stacked power.  A
    binding that fails a guard (pd gate, eigensolver residuals,
    Hermiticity, a non-finite value) becomes an error row without affecting
    the others.

    ``word`` may also be a tuple of words, evaluated in one run: a node
    object that several of them contain is evaluated (and a power base
    decomposed) once, and one WordBatch per word comes back, each equal to
    that of evaluating the word alone.  Nodes are shared by identity, not
    by structure.

    Every batch knows its distinct values, so a comparison against it
    decomposes each of them once (``WordBatch.spectrum``).
    """
    run = _BatchRun(env, rows or {}, instance)
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
    if batch.errors[0] is not None:
        raise batch.errors[0]
    return HermitianMatrix.trusted(batch.values[0])
