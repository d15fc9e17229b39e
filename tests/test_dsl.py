from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oporder import chains, dsl
from oporder.chains import (
    Direction,
    Family,
    Power,
    Product,
    ScalarExpr,
    Symbol,
    build_chain,
)
from oporder.dsl import (
    Environment,
    EvaluationError,
    NonHermitianResultError,
    ParseError,
    RowSchedule,
    UnboundNameError,
    WordBatch,
    evaluate,
    evaluate_batch,
    parse,
    parse_lines,
    parse_word,
    pretty_print,
)
from oporder.spectral import (
    HermitianMatrix,
    NearSingularError,
    NonFiniteError,
    SpectralError,
    decompose_stack,
    diagonal,
    identity,
    no_errors,
    scaled_margins_stack,
)
from oporder.verify import _identity_batch
from util import (
    GOLDEN_DIR,
    count_decompositions,
    error_rows,
    full_spectrum_margins,
    judge_members,
    random_hermitian,
    random_scalar_expr,
    random_spd_array,
    random_word,
    scalar_word_value,
)


class TestParse:
    def test_symbol_with_exponent(self):
        assert parse("A1^{p1}") == Symbol(1, ScalarExpr.variable("p1"))

    def test_bare_symbol(self):
        assert parse("A7") == Symbol(7)

    def test_sandwich_power(self):
        word = parse("(A2^{-t1/2} A1^{p1} A2^{-t1/2})^{p2}")
        wrap = Symbol(2, ScalarExpr.variable("t1", Fraction(-1, 2)))
        assert word == Power(
            Product((wrap, Symbol(1, ScalarExpr.variable("p1")), wrap)),
            ScalarExpr.variable("p2"),
        )

    def test_chain_with_relation(self):
        chain = parse("A3^{r-t1} >= A1")
        assert chain.direction is Direction.GE
        assert chain.family is None and chain.member is None
        chain = parse("A1 <= A2")
        assert chain.direction is Direction.LE

    def test_number_exponents(self):
        assert parse("A1^{1/2}") == Symbol(1, ScalarExpr.number(Fraction(1, 2)))
        assert parse("A1^{0.5}") == Symbol(1, ScalarExpr.number(Fraction(1, 2)))
        assert parse("A1^{-2}") == Symbol(1, ScalarExpr.number(-2))

    def test_compound_exponent(self):
        expr = parse("A1^{r-t1/2+1}").exponent
        assert expr == (ScalarExpr.variable("r")
                        - ScalarExpr.variable("t1", Fraction(1, 2))
                        + ScalarExpr.number(1))

    def test_golden_line_matches_builder(self):
        golden = (GOLDEN_DIR / "chains_k5.txt").read_text()
        first = next(
            line for line in golden.splitlines()
            if line.strip() and not line.startswith("#")
        )
        parsed = parse(first)
        built = build_chain(Family.ASCENDING, 1, 5)
        assert parsed.rhs == built.rhs
        assert parsed.lhs == built.lhs
        assert parsed.direction == built.direction

    def test_parse_lines_skips_comments(self):
        text = "# header\n\nA1 <= A2  # trailing\n"
        chains_found = parse_lines(text)
        assert len(chains_found) == 1
        assert chains_found[0].direction is Direction.LE


class TestParseErrors:
    def test_position_reported(self):
        with pytest.raises(ParseError) as err:
            parse("A1 ^ {p1")
        assert err.value.line == 1
        assert err.value.col >= 6

    def test_bare_a(self):
        with pytest.raises(ParseError):
            parse("A^{p1}")

    def test_vocabulary_enforced(self):
        with pytest.raises(ParseError) as err:
            parse("A1^{q1}")
        assert "vocabulary" in str(err.value)

    def test_unbalanced_paren(self):
        with pytest.raises(ParseError):
            parse("(A1 A2")

    def test_double_relation(self):
        with pytest.raises(ParseError):
            parse("A1 >= A2 >= A3")

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse("")

    def test_word_when_chain_given(self):
        with pytest.raises(ParseError):
            parse_word("A1 >= A2")

    def test_multiline_position(self):
        with pytest.raises(ParseError) as err:
            parse("A1\n  %")
        assert err.value.line == 2


class TestPrettyPrint:
    def test_symbol(self):
        sym = Symbol(3, ScalarExpr.variable("r", Fraction(1, 2)))
        assert pretty_print(sym) == "A3^{r/2}"

    def test_bare_symbol(self):
        assert pretty_print(Symbol(2)) == "A2"

    def test_nested_product_parenthesized(self):
        word = Product((Symbol(1), Product((Symbol(2), Symbol(3)))))
        assert pretty_print(word) == "A1 (A2 A3)"
        assert parse(pretty_print(word)) == word

    def test_power_of_symbol(self):
        word = Power(Symbol(1, ScalarExpr.variable("p1")), ScalarExpr.variable("p2"))
        assert pretty_print(word) == "(A1^{p1})^{p2}"
        assert parse(pretty_print(word)) == word

    def test_chain_text(self):
        chain = build_chain(Family.ASCENDING, 1, 3)
        assert pretty_print(chain) == (
            "A3^{r-t1} >= "
            "(A3^{r/2} (A2^{-t1/2} A1^{p1} A2^{-t1/2})^{p2} A3^{r/2})^{w1}"
        )

    def test_seeded_generator_round_trip(self):
        rng = np.random.default_rng(123)
        for _ in range(300):
            word = random_word(rng)
            assert parse(pretty_print(word)) == word

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_round_trip_property(self, seed):
        word = random_word(np.random.default_rng(seed))
        assert parse(pretty_print(word)) == word


def diag_env(scalars, diags):
    return Environment(
        scalars=scalars,
        matrices={i: diagonal(v) for i, v in diags.items()},
    )


class TestEnvironment:
    def test_dimension_agreement(self):
        with pytest.raises(ValueError):
            Environment(scalars={}, matrices={1: identity(2), 2: identity(3)})

    def test_immutability(self):
        env = Environment(scalars={"r": 1.0}, matrices={1: identity(2)})
        with pytest.raises(TypeError):
            env.scalars["r"] = 2.0

    def test_unbound_matrix(self):
        env = Environment(scalars={}, matrices={1: identity(2)})
        with pytest.raises(UnboundNameError):
            evaluate(Symbol(2), env)

    def test_unbound_scalar(self):
        env = Environment(scalars={}, matrices={1: identity(2)})
        with pytest.raises(UnboundNameError):
            evaluate(Symbol(1, ScalarExpr.variable("p1")), env)


class TestEvaluate:
    def test_scalar_power(self):
        env = diag_env({"p1": 3.0}, {1: [2.0]})
        out = evaluate(parse("A1^{p1}"), env)
        assert out.entries[0, 0] == pytest.approx(8.0)

    def test_identity_absorbs_everything(self):
        chain = build_chain(Family.ASCENDING, 1, 3)
        env = Environment(
            scalars={"t1": 0.73, "r": 1.9, "p1": 2.0, "p2": 3.5, "w1": 0.4, "w2": 0.4},
            matrices={i: identity(3) for i in (1, 2, 3)},
        )
        assert np.allclose(evaluate(chain.rhs, env).entries, np.eye(3))

    def test_scalar_chain_value(self):
        chain = build_chain(Family.ASCENDING, 1, 3)
        env = diag_env(
            {"t1": 0.5, "r": 1.0, "p1": 1.0, "p2": 1.0, "w1": 0.5, "w2": 0.5},
            {1: [2.0], 2: [1.0], 3: [3.0]},
        )
        out = evaluate(chain.rhs, env)
        assert out.entries[0, 0] == pytest.approx(6.0 ** 0.5, rel=1e-12)

    def test_non_hermitian_product_rejected(self):
        rng = np.random.default_rng(4)
        a = HermitianMatrix(random_spd_array(rng, 3))
        b = HermitianMatrix(random_spd_array(rng, 3))
        env = Environment(scalars={}, matrices={1: a, 2: b})
        with pytest.raises(NonHermitianResultError):
            evaluate(parse("A1 A2"), env)

    def test_near_singular_propagates(self):
        env = diag_env({"p1": 0.5}, {1: [0.0, 1.0]})
        with pytest.raises(NearSingularError):
            evaluate(parse("A1^{p1}"), env)

    def test_palindromic_word_is_hermitian(self):
        rng = np.random.default_rng(10)
        a = HermitianMatrix(random_spd_array(rng, 3))
        b = HermitianMatrix(random_spd_array(rng, 3))
        env = Environment(scalars={"t1": 0.6, "p1": 2.0}, matrices={1: a, 2: b})
        out = evaluate(parse("(A2^{-t1/2} A1^{p1} A2^{-t1/2})^{1/2}"), env)
        assert np.allclose(out.entries, out.entries.T)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6), dim=st.integers(2, 4),
           exponent=st.integers(1, 4))
    def test_integer_power_matches_repeated_multiplication(self, seed, dim, exponent):
        rng = np.random.default_rng(seed)
        a = HermitianMatrix(random_spd_array(rng, dim))
        env = Environment(scalars={}, matrices={1: a})
        word = Power(Symbol(1), ScalarExpr.number(exponent))
        out = evaluate(word, env).entries
        expected = np.linalg.matrix_power(a.entries, exponent)
        assert np.abs(out - expected).max() <= 1e-8 * max(1.0, np.abs(expected).max())

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_multiplicative_over_products_on_diagonals(self, seed):
        rng = np.random.default_rng(seed)
        d1 = tuple(rng.uniform(0.2, 3.0, 3))
        d2 = tuple(rng.uniform(0.2, 3.0, 3))
        env = diag_env({}, {1: d1, 2: d2})
        combined = evaluate(parse("A1 A2"), env).entries
        left = evaluate(parse("A1"), env).entries
        right = evaluate(parse("A2"), env).entries
        assert np.allclose(combined, left @ right)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_diagonal_matches_scalar_oracle(self, seed):
        rng = np.random.default_rng(seed)
        word = random_word(rng)
        indices = {s.index for s in _symbols(word)}
        scalars = {n: v for n, v in {
            "r": 1.7, "t1": 0.3, "t2": 0.8, "t3": 0.5,
            "p1": 2.0, "p2": 1.5, "p3": 3.0, "p4": 1.25,
            "w1": 0.4, "w2": 0.9,
        }.items()}
        diags = {i: tuple(rng.uniform(0.3, 2.0, 3)) for i in indices}
        env = Environment(scalars=scalars,
                          matrices={i: diagonal(v) for i, v in diags.items()})
        try:
            out = evaluate(word, env)
        except NearSingularError:
            return  # deep negative exponents can underflow the pd gate
        expected = scalar_word_value(word, scalars, diags)
        have = np.diag(out.entries)
        scale = max(1.0, max(abs(v) for v in expected))
        assert np.abs(have - np.asarray(expected)).max() <= 1e-10 * scale


def _symbols(word):
    if isinstance(word, Symbol):
        yield word
    elif isinstance(word, Product):
        for f in word.factors:
            yield from _symbols(f)
    elif isinstance(word, Power):
        yield from _symbols(word.base)


def random_palindrome(rng: np.random.Generator, depth: int = 0):
    """A word whose products read the same both ways, so every value is
    Hermitian: a symbol, or a palindromic product, often raised to a power."""
    if depth >= 2 or rng.random() < 0.35:
        return Symbol(int(rng.integers(1, 5)), random_scalar_expr(rng))
    half = [random_palindrome(rng, depth + 1) for _ in range(int(rng.integers(1, 3)))]
    middle = [random_palindrome(rng, depth + 1)] if rng.random() < 0.5 else []
    word = Product(tuple(half + middle + half[::-1]))
    return Power(word, random_scalar_expr(rng)) if rng.random() < 0.7 else word


def _rotated(rng: np.random.Generator, eigenvalues) -> HermitianMatrix:
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    arr = (q * np.asarray(eigenvalues)) @ q.T
    return HermitianMatrix(0.5 * (arr + arr.T))


class TestEvaluateBatch:
    _ROW_VALUES = (-0.5, 0.5, 1.0, 1.5, 2.0, 4.0, 8.0)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_rows_match_single_evaluation(self, seed):
        rng = np.random.default_rng(seed)
        word = random_palindrome(rng)
        matrices = {
            1: HermitianMatrix(random_spd_array(rng, 3)),
            2: HermitianMatrix(random_spd_array(rng, 3, ridge=0.5)),
            3: _rotated(rng, (1e-13, 0.5, 1.5)),   # trips the pd gate
            4: _rotated(rng, (1.0, 1e30, 1e60)),   # overflows at large powers
        }
        constants = {"r": 1.7, "t1": 0.3, "t2": 0.8, "t3": 0.5,
                     "p1": 2.0, "p2": 1.5, "p3": 3.0, "p4": 1.25, "w1": 0.4, "w2": 0.9}
        count = int(rng.integers(1, 9))
        per_row = [name for name in constants if rng.random() < 0.5] or ["p1"]
        rows = {name: rng.choice(self._ROW_VALUES, count) for name in per_row}
        batch = evaluate_batch(word, Environment(scalars=constants, matrices=matrices), rows)
        assert batch.values.shape == (count, 3, 3)
        first, inverse = _expected_distinct(word, rows, np.zeros(count, dtype=np.intp))
        assert (batch.distinct[0].tolist(), batch.distinct[1].tolist()) == \
            (first.tolist(), inverse.tolist())
        errors = error_rows(batch.row_errors, count)
        for i in range(count):
            scalars = dict(constants, **{name: float(col[i]) for name, col in rows.items()})
            try:
                want = evaluate(word, Environment(scalars=scalars, matrices=matrices)).entries
            except (SpectralError, EvaluationError) as exc:
                assert errors[i] == (type(exc), str(exc))
                continue
            assert errors[i] is None
            assert batch.values[i].tobytes() == want.tobytes()

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10**9))
    def test_per_row_environments_match_one_environment_each(self, seed):
        rng = np.random.default_rng(seed)
        word = random_palindrome(rng)
        envs = []
        for _ in range(int(rng.integers(2, 5))):
            matrices = {
                1: HermitianMatrix(random_spd_array(rng, 3)),
                2: HermitianMatrix(random_spd_array(rng, 3, ridge=0.5)),
                3: _rotated(rng, (1e-13, 0.5, 1.5)),   # trips the pd gate
                4: _rotated(rng, (1.0, 1e30, 1e60)),   # overflows at large powers
            }
            scalars = {name: float(rng.choice(self._ROW_VALUES))
                       for name in ("r", "t1", "t2", "t3", "p3", "p4", "w1", "w2")}
            envs.append(Environment(scalars=scalars, matrices=matrices))
        count = int(rng.integers(1, 12))
        instance = rng.integers(0, len(envs), count)
        per_row = [name for name in ("p1", "p2", "w1") if rng.random() < 0.6] or ["p1"]
        rows = {name: rng.choice(self._ROW_VALUES, count) for name in per_row}
        try:
            batch = evaluate_batch(word, envs, rows, instance)
        except UnboundNameError as exc:
            # p1 or p2 without a column: every environment binds the same
            # names, so each one's rows alone raise the same error
            for j, env in enumerate(envs):
                mine = np.flatnonzero(instance == j)
                if len(mine):
                    with pytest.raises(UnboundNameError) as alone:
                        evaluate_batch(word, env, {name: col[mine] for name, col in rows.items()})
                    assert str(alone.value) == str(exc)
            return
        assert batch.values.shape == (count, 3, 3)
        errors = error_rows(batch.row_errors, count)
        for j, env in enumerate(envs):
            mine = np.flatnonzero(instance == j)
            if not len(mine):
                continue
            alone = evaluate_batch(word, env, {name: col[mine] for name, col in rows.items()})
            assert batch.values[mine].tobytes() == alone.values.tobytes()
            assert [errors[i] for i in mine] == error_rows(alone.row_errors, len(mine))

    def test_per_row_environments_are_checked(self):
        one = diag_env({"r": 1.0}, {1: [1.0, 2.0]})
        with pytest.raises(ValueError, match="instance column"):
            evaluate_batch(parse("A1"), [one, one])
        with pytest.raises(ValueError, match="instance column"):
            evaluate_batch(parse("A1"), [one, one], instance=[0, 2])
        with pytest.raises(ValueError, match="same scalar names"):
            evaluate_batch(parse("A1"), [one, diag_env({}, {1: [1.0, 2.0]})], instance=[0, 1])
        with pytest.raises(ValueError, match="same scalar names"):
            evaluate_batch(parse("A1"), [one, diag_env({"r": 1.0}, {1: [1.0]})], instance=[0, 1])

    def test_unbound_exponent_name_raises(self):
        env = diag_env({}, {1: [1.0, 2.0], 2: [3.0, 1.0]})
        word = parse("A2 (A1 A1)^{p1+p2} A2")
        with pytest.raises(UnboundNameError, match="^scalar name 'p2' is not bound$"):
            evaluate_batch(word, env, {"p1": np.array([1.0, 4.0, 1.0])})

    def test_one_instance_takes_the_single_environment_path(self):
        env = diag_env({"r": 0.5}, {1: [4.0, 9.0]})
        other = diag_env({"r": 1.0}, {1: [1.0, 1.0]})
        batch = evaluate_batch(parse("A1^{r}"), [other, env], instance=[1])
        assert np.array_equal(batch.values[0], np.diag([2.0, 3.0]))

    @pytest.mark.parametrize("instance", [[0, 2], [2, 0], [2, 2, 0]])
    def test_environments_no_row_names_take_no_part(self, instance):
        word = parse("A1^{p1+r}")
        first = diag_env({"r": 0.5}, {1: [4.0, 9.0]})
        lacking = diag_env({"r": 1.0}, {2: [1.0, 2.0]})
        last = diag_env({"r": 0.25}, {1: [2.0, 3.0]})
        envs = [first, lacking, last]
        p1 = np.array([1.0, 2.0, 0.5][:len(instance)])
        batch = evaluate_batch(word, envs, {"p1": p1}, instance)
        for i, j in enumerate(instance):
            alone = evaluate_batch(word, envs[j], {"p1": p1[i:i + 1]})
            assert batch.values[i].tobytes() == alone.values[0].tobytes()
        assert batch.row_errors is None

    def test_a_named_environment_lacking_a_matrix_raises(self):
        word = parse("A1^{p1+r}")
        full = diag_env({"r": 0.5}, {1: [4.0, 9.0]})
        lacking = diag_env({"r": 1.0}, {2: [1.0, 2.0]})
        with pytest.raises(UnboundNameError) as want:
            evaluate(word, Environment({"r": 1.0, "p1": 2.0}, lacking.matrices))
        with pytest.raises(UnboundNameError) as got:
            evaluate_batch(word, [full, lacking, full], {"p1": np.array([1.0, 2.0])}, [0, 1])
        assert str(got.value) == str(want.value) == "matrix symbol A1 is not bound"

    def test_error_rows_are_identity_and_masked(self):
        env = diag_env({}, {1: [0.0, 1.0]})
        batch = evaluate_batch(parse("A1^{p1}"), env, {"p1": np.array([2.0, 0.5, 2.0])})
        assert [type(e) for e in batch.row_errors] == [type(None), NearSingularError, type(None)]
        assert np.array_equal(batch.values[1], np.eye(2))
        assert np.allclose(batch.values[0], np.diag([0.0, 1.0]))


def _free_names(word) -> set[str]:
    """The scalar names of every exponent of a word."""
    if isinstance(word, Symbol):
        return set(word.exponent.free_names())
    if isinstance(word, Power):
        return set(word.exponent.free_names()) | _free_names(word.base)
    return set().union(*(_free_names(f) for f in word.factors))


def _expected_distinct(word, rows: dict, instance: np.ndarray):
    """(first, inverse) of a run's distinct values of a word: its rows
    grouped by their binding, which is the row's environment when the run
    binds several and the values of the per-row names the word mentions,
    in ascending order of (environment, those values in name order)."""
    names = sorted(_free_names(word) & set(rows))
    several = len(set(instance.tolist())) > 1
    keys = [((int(instance[i]),) if several else ())
            + tuple(float(rows[name][i]) for name in names) for i in range(len(instance))]
    order = sorted(set(keys))
    return (np.array([keys.index(key) for key in order]),
            np.array([order.index(key) for key in keys]))


def _symbol_indices(word) -> set[int]:
    """The matrix indices of a word's symbols."""
    if isinstance(word, Symbol):
        return {word.index}
    if isinstance(word, Power):
        return _symbol_indices(word.base)
    return set().union(*(_symbol_indices(f) for f in word.factors))


class TestUnboundBindings:
    """A run that leaves a matrix or a name unbound raises, before it
    evaluates anything, the error that ``evaluate`` raises under the first
    environment that lacks the binding; the bindings are checked on every
    call, also when the plan comes from the cache."""

    _NAMES = ("r", "t1", "t2", "t3", "p1", "p2", "p3", "p4", "w1", "w2")

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10**9), envs=st.integers(1, 3), cached=st.booleans())
    def test_one_dropped_binding_raises_what_evaluate_raises(self, seed, envs, cached):
        rng = np.random.default_rng(seed)
        word = random_word(rng)
        per_row = [name for name in self._NAMES if rng.random() < 0.3]
        instance = None
        count = int(rng.integers(1, 4))
        if envs > 1:
            instance = rng.permutation(np.repeat(np.arange(envs), rng.integers(1, 3, envs)))
            count = len(instance)
        rows = {name: rng.choice([0.5, 1.0, 2.0], count) for name in per_row}
        scalars = {name: float(rng.uniform(0.1, 2.0)) for name in self._NAMES
                   if name not in per_row}
        full = [Environment(scalars, {i: HermitianMatrix(random_spd_array(rng, 2))
                                      for i in range(1, 6)}) for _ in range(envs)]
        drops = [(j, index) for j in range(envs) for index in sorted(_symbol_indices(word))]
        drops += [(None, name) for name in sorted(_free_names(word)) if name in scalars]
        j, dropped = drops[int(rng.integers(0, len(drops)))]
        if j is None:  # a name every environment binds
            less = [Environment({n: v for n, v in scalars.items() if n != dropped}, e.matrices)
                    for e in full]
            j = 0
        else:
            less = list(full)
            less[j] = Environment(scalars, {i: m for i, m in full[j].matrices.items()
                                            if i != dropped})
        row = 0 if instance is None else int(np.flatnonzero(instance == j)[0])
        lacking = Environment({**less[j].scalars,
                               **{name: float(col[row]) for name, col in rows.items()}},
                              less[j].matrices)
        with pytest.MonkeyPatch.context() as patch:
            # evaluate compiles the plan the run uses when no name is per
            # row; a throwaway cache keeps the run's cold
            patch.setattr(dsl, "_PLANS", dsl._PlanCache(1))
            with pytest.raises(UnboundNameError) as want:
                evaluate(word, lacking)

        def run(environments):
            return evaluate_batch(word, environments if envs > 1 else environments[0],
                                  rows, instance)

        if cached:
            run(full)  # compiles the plan and evaluates every row
        calls = {"compile": 0, "power": 0, "decompose": 0}

        def counting(name, real):
            def counted(*args):
                calls[name] += 1
                return real(*args)
            return counted

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dsl, "_compile", counting("compile", dsl._compile))
            patch.setattr(dsl, "power_stack", counting("power", dsl.power_stack))
            patch.setattr(dsl, "eigensystem_stack", counting("decompose", dsl.eigensystem_stack))
            with pytest.raises(UnboundNameError) as got:
                run(less)
        assert str(got.value) == str(want.value)
        assert calls == {"compile": 0 if cached else 1, "power": 0, "decompose": 0}


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.sampled_from([0.0, -0.0, 0.5, 1.5, 2.0, np.inf, -np.inf, np.nan]),
                       max_size=12),
       integers=st.booleans())
def test_groups_take_the_first_rows_and_codes_of_np_unique(values, integers):
    column = np.array(values, dtype=np.float64)
    if integers:
        column = np.nan_to_num(column, posinf=7, neginf=-7).astype(np.intp)
    _, want_first, want_inverse = np.unique(column, return_index=True, return_inverse=True)
    first, inverse = dsl._distinct(column)
    assert (first.tolist(), inverse.tolist()) == (want_first.tolist(),
                                                  want_inverse.reshape(-1).tolist())


# functions of a key column: one to one, or mapping two key values to one
_KEY_FUNCTIONS = (lambda x: 1.0 / x, lambda x: 0.7 / x, lambda x: x - 1.0,
                  lambda x: x * x, lambda x: 0.0 * x + 0.5)


class TestKeyedColumns:
    """A column that a row schedule keys to one of its grid columns
    (``dsl.RowSchedule``) is grouped as its key is.  A keyed run gives the
    values and row errors of the run without a schedule bit for bit, and
    its distinct values are theirs: the same rows share one, each held
    first by the same row.  The bindings come in the key's order, and a
    keyed column that maps two key values to one splits a binding, which
    then lies within one of the unkeyed run.  A keyed column that is not
    constant on its key's grouping, bit for bit, raises ValueError before
    anything is evaluated."""

    _KEY_VALUES = (-0.5, 0.5, 1.0, 1.5, 2.0, 4.0)
    # the names of random_scalar_expr
    _NAMES = ("r", "t1", "t2", "t3", "p1", "p2", "p3", "p4", "w1", "w2")

    def case(self, seed: int, envs: int):
        """(words, environment(s), grid columns p1 and p2, keyed columns as
        name -> (values, key), instance column): names keyed at random
        to p1 or p2, the other names bound by the environments, whose
        matrices trip the pd gate and overflow on some rows."""
        rng = np.random.default_rng(seed)
        count = int(rng.integers(1, 13))
        keys = {name: rng.choice(self._KEY_VALUES, count) for name in ("p1", "p2")}
        keyed = {}
        for name in ("r", "t1", "t2", "p3", "p4", "w1"):
            if rng.random() < 0.6:
                key = ("p1", "p2")[int(rng.integers(0, 2))]
                function = _KEY_FUNCTIONS[int(rng.integers(0, len(_KEY_FUNCTIONS)))]
                keyed[name] = (function(keys[key]), key)
        scalars = {name: float(rng.uniform(0.1, 2.0)) for name in self._NAMES
                   if name not in keys and name not in keyed}
        environments = [Environment(scalars, {
            1: HermitianMatrix(random_spd_array(rng, 3)),
            2: HermitianMatrix(random_spd_array(rng, 3, ridge=0.5)),
            3: _rotated(rng, (1e-13, 0.5, 1.5)),   # trips the pd gate
            4: _rotated(rng, (1.0, 1e30, 1e60)),   # overflows at large powers
        }) for _ in range(envs)]
        instance = rng.integers(0, envs, count) if envs > 1 else None
        words = tuple(random_palindrome(rng) for _ in range(int(rng.integers(1, 4))))
        return words, environments if envs > 1 else environments[0], keys, keyed, instance

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 10**9), envs=st.integers(1, 2))
    def test_a_keyed_run_equals_the_unkeyed_run(self, seed, envs):
        words, env, keys, keyed, instance = self.case(seed, envs)
        values = {name: column for name, (column, _) in keyed.items()}
        plain = evaluate_batch(words, env, {**keys, **values}, instance)
        schedule = RowSchedule(keys, {name: key for name, (_, key) in keyed.items()})
        got = evaluate_batch(words, env, values, instance, schedule)
        count = len(keys["p1"])
        one_to_one = all(len(np.unique(column)) == len(np.unique(keys[key]))
                         for column, key in keyed.values())
        for a, b in zip(got, plain):
            assert a.values.tobytes() == b.values.tobytes()
            assert error_rows(a.row_errors, count) == error_rows(b.row_errors, count)
            (first, inverse), (plain_first, plain_inverse) = a.distinct, b.distinct
            # each row's binding is held first by one row, within one
            # binding of the unkeyed run; by the same row when no keyed
            # column maps two key values to one
            assert plain_inverse[first[inverse]].tolist() == plain_inverse.tolist()
            if one_to_one:
                assert first[inverse].tolist() == plain_first[plain_inverse].tolist()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**9), envs=st.integers(1, 2), signed_zero=st.booleans())
    def test_a_column_not_constant_on_its_keys_grouping_raises_first(
            self, seed, envs, signed_zero):
        words, env, keys, keyed, instance = self.case(seed, envs)
        col = keys["p1"]
        shared = [i for i in range(len(col)) if np.count_nonzero(col == col[i]) > 1]
        assume(shared)
        # one row of a key value that another row holds too breaks its
        # binding: by one ulp, or by the sign of a zero, which compares equal
        values = np.zeros(len(col)) if signed_zero else 1.0 / col
        values[shared[-1]] = -0.0 if signed_zero else np.nextafter(values[shared[-1]], np.inf)
        rows = {**{name: column for name, (column, _) in keyed.items()}, "w2": values}
        schedule = RowSchedule(keys, {**{name: key for name, (_, key) in keyed.items()},
                                      "w2": "p1"})
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            for name in ("_compile", "eigensystem_stack", "power_stack"):
                patch.setattr(dsl, name, lambda *args, name=name: calls.append(name))
            with pytest.raises(ValueError, match="^column 'w2' is not constant on the "
                                                 "grouping of its key 'p1'$"):
                evaluate_batch(words, env, rows, instance, schedule)
        assert calls == []

    def test_a_key_must_be_an_unkeyed_column(self):
        p = np.array([1.0, 2.0])
        for columns, keys in (({}, {"q": "p1"}), ({"p1": p}, {"p1": "p1"}),
                              ({"p1": p}, {"p2": "p1", "q": "p2"})):
            with pytest.raises(ValueError, match="a key must be a grid column"):
                RowSchedule(columns, keys)
        # a run binds a grid column from its schedule alone
        env = diag_env({}, {1: [1.0, 2.0]})
        with pytest.raises(ValueError, match=r"columns \['p1'\] are grid columns"):
            evaluate_batch(Symbol(1, ScalarExpr.variable("p1")), env, {"p1": p},
                           schedule=RowSchedule({"p1": p}))


class TestSlotWordRuns:
    """Runs of the slot words that campaigns evaluate (``chains.slot_words``),
    over 1-4 environments of 1-4 rows each, against one evaluation per row.
    Chosen rows fail at each guard: the pd gate, an overflowed power or
    product, a non-Hermitian power base or word value (the parsed words
    below) and, when judged, a weight w <= 0.  Some runs leave one matrix of
    one environment, or the column w, unbound, and raise instead."""

    _P_VALUES = (1.0, 1.5, 2.0, 4.0, 64.0)
    _W_VALUES = (0.3, 0.5, 0.9, 0.0, -0.5)

    @staticmethod
    def _environment(rng, k: int, dim: int, complex_field: bool) -> Environment:
        n = k // 2
        matrices = {i: random_hermitian(rng, dim, complex_field) for i in range(1, 2 * n + 2)}
        kind = rng.choice(["plain", "plain", "singular", "huge", "commuting"])
        slot = int(rng.integers(1, 2 * n + 2))
        if kind == "singular":    # fails the pd gate at fractional exponents
            matrices[slot] = random_hermitian(rng, dim, complex_field, (1e-13, 0.5, 1.5, 2.5))
        elif kind == "huge":      # overflows in large powers and products
            matrices[slot] = random_hermitian(rng, dim, complex_field, (1.0, 1e60, 1e90, 1e30))
        elif kind == "commuting":  # makes A1 A2 Hermitian
            matrices[2] = HermitianMatrix(matrices[1].entries @ matrices[1].entries)
        t = tuple(float(v) for v in rng.uniform(0.05, 0.95, n))
        scalars = {"r": t[-1] + float(rng.uniform(0.1, 2.0)),
                   **{f"t{i}": v for i, v in enumerate(t, 1)}}
        return Environment(scalars, matrices)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 10**9), k=st.integers(3, 5), dim=st.integers(1, 4),
           envs=st.integers(1, 4), complex_field=st.booleans())
    def test_runs_match_one_evaluation_per_row(self, seed, k, dim, envs, complex_field):
        rng = np.random.default_rng(seed)
        n = k // 2
        environments = [self._environment(rng, k, dim, complex_field) for _ in range(envs)]
        instance = np.repeat(np.arange(envs), rng.integers(1, 5, envs))
        if rng.random() < 0.5:
            instance = rng.permutation(instance)
        count = len(instance)
        rows = {f"p{j}": rng.choice(self._P_VALUES, count, p=(0.3, 0.2, 0.2, 0.2, 0.1))
                for j in range(1, 2 * n + 1)}
        w = rng.choice(self._W_VALUES, count, p=(0.3, 0.3, 0.2, 0.1, 0.1))
        drop = rng.random()
        if drop >= 0.1:
            rows["w"] = w  # else every rhs row has the unbound name w
        if drop >= 0.9:  # one environment without one of its matrices
            j = int(rng.integers(0, envs))
            matrices = dict(environments[j].matrices)
            del matrices[int(rng.integers(1, 2 * n + 2))]
            environments[j] = Environment(environments[j].scalars, matrices)
        lhs_word, rhs_word = chains.slot_words(k)
        words = (rhs_word, lhs_word, parse("(A1 A2)^{p1}"), parse("A2 A1^{p1} A1^{p1}"))

        def row_env(i: int) -> Environment:
            env = environments[int(instance[i])]
            scalars = {**env.scalars, **{name: float(col[i]) for name, col in rows.items()}}
            return Environment(scalars, env.matrices)

        unbound = set()
        for i in range(count):
            for word in words:
                try:
                    evaluate_batch(word, row_env(i))
                except UnboundNameError as exc:
                    unbound.add(str(exc))
        if unbound:
            # one binding is missing, so every row that lacks it raises alike
            with pytest.raises(UnboundNameError) as raised:
                evaluate_batch(words, environments, rows, instance)
            assert {str(raised.value)} == unbound
            return
        batches = evaluate_batch(words, environments, rows, instance)

        for word, batch in zip(words, batches):
            first, inverse = _expected_distinct(word, rows, instance)
            assert batch.distinct[0].tolist() == first.tolist()
            assert batch.distinct[1].tolist() == inverse.tolist()
            errors = error_rows(batch.row_errors, count)
            # a run builds no row-error array until one of its rows fails
            assert (batch.row_errors is None) == (errors == [None] * count)
            for i in range(count):
                one = evaluate_batch(word, row_env(i))
                assert (one.power_eigenvalues is None) == (batch.power_eigenvalues is None)
                try:
                    want = evaluate(word, row_env(i)).entries
                except (SpectralError, EvaluationError) as exc:
                    assert errors[i] == (type(exc), str(exc))
                    identity = np.eye(dim, dtype=batch.values.dtype)
                    assert batch.values[i].tobytes() == identity.tobytes()
                    continue
                assert errors[i] is None
                assert batch.values[i].tobytes() == want.tobytes()
                if one.power_eigenvalues is not None:
                    assert batch.power_eigenvalues[inverse[i]].tobytes() == \
                        one.power_eigenvalues[0].tobytes()

        # the comparison of each row's sides, judged as a campaign does,
        # against judging each row alone
        rhs, lhs = batches[:2]
        w_index = rng.integers(1, k, count)
        is_ge = bool(rng.random() < 0.5)

        def judge(lhs, rhs, w, w_index):
            return judge_members(lhs, rhs, w, w_index, is_ge)

        got = judge(lhs, rhs, w, w_index)
        for i in range(count):
            one_rhs, one_lhs = evaluate_batch((rhs_word, lhs_word), row_env(i))
            want = judge(one_lhs, one_rhs, w[i:i + 1], w_index[i:i + 1])
            for column in ("margin", "scale", "verdict", "w"):
                assert got.columns[column][i].tobytes() == want.columns[column][0].tobytes()
            assert got.error_text(i) == want.error_text(0)
            assert got.failures()[i] == want.failures()[0]


def _power_nodes(word) -> set[int]:
    """The ids of the distinct Power nodes of a word."""
    if isinstance(word, Symbol):
        return set()
    if isinstance(word, Power):
        return {id(word)} | _power_nodes(word.base)
    return set().union(*(_power_nodes(f) for f in word.factors))


class TestSeveralWordsPerRun:
    _ROW_VALUES = TestEvaluateBatch._ROW_VALUES

    @staticmethod
    def _matrices(rng):
        return {
            1: HermitianMatrix(random_spd_array(rng, 3)),
            2: HermitianMatrix(random_spd_array(rng, 3, ridge=0.5)),
            3: _rotated(rng, (1e-13, 0.5, 1.5)),   # trips the pd gate
            4: _rotated(rng, (1.0, 1e30, 1e60)),   # overflows at large powers
        }

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10**9), several_envs=st.booleans())
    def test_tuple_of_words_matches_separate_calls(self, seed, several_envs):
        rng = np.random.default_rng(seed)
        a, b = random_palindrome(rng), random_palindrome(rng)
        # words sharing subtrees by identity, and a product of two different
        # palindromes, whose rows are mostly not Hermitian (error rows)
        words = (Product((b, a, b)), a, Power(a, random_scalar_expr(rng)), b, Product((a, b)))
        constants = {"r": 1.7, "t1": 0.3, "t2": 0.8, "t3": 0.5,
                     "p1": 2.0, "p2": 1.5, "p3": 3.0, "p4": 1.25, "w1": 0.4, "w2": 0.9}
        count = int(rng.integers(1, 9))
        per_row = [name for name in constants if rng.random() < 0.5] or ["p1"]
        rows = {name: rng.choice(self._ROW_VALUES, count) for name in per_row}
        if several_envs:
            matrices = [self._matrices(rng) for _ in range(3)]
            instance = rng.integers(0, 3, count)
            env = lambda: [Environment(scalars=constants, matrices=m) for m in matrices]
        else:
            matrices, instance = self._matrices(rng), None
            env = lambda: Environment(scalars=constants, matrices=matrices)
        together = evaluate_batch(words, env(), rows, instance)
        assert isinstance(together, tuple) and len(together) == len(words)
        for word, got in zip(words, together):
            alone = evaluate_batch(word, env(), rows, instance)
            assert got.values.tobytes() == alone.values.tobytes()
            assert error_rows(got.row_errors, count) == error_rows(alone.row_errors, count)

    def test_single_word_keeps_its_return_type(self):
        env = diag_env({}, {1: [1.0, 2.0]})
        assert isinstance(evaluate_batch(parse("A1"), env), WordBatch)
        (one,) = evaluate_batch((parse("A1"),), env)
        assert isinstance(one, WordBatch)

    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_shared_powers_are_decomposed_once(self, k, monkeypatch):
        from oporder import chains

        member = chains.hypothesis_set(k)[0]
        core = chains.hypothesis_core(member)
        base, _ = chains.reduction_words(k)
        rng = np.random.default_rng(k)
        matrices = {i: HermitianMatrix(random_spd_array(rng, 2)) for i in range(1, k + 1)}
        for m in matrices.values():
            m.decomposition()  # symbols raise their cached decomposition
        scalars = {"r": 1.5, "w1": 0.5, **{f"t{i}": 0.5 for i in range(1, k // 2 + 1)}}
        rows = {f"p{j}": np.array([1.0, 2.0, 4.0]) for j in range(1, 2 * (k // 2) + 1)}
        calls = []
        count_decompositions(monkeypatch, calls)
        evaluate_batch((member.rhs, core, base), Environment(scalars, matrices), rows)
        # one stacked eigh per power of the member; the core and the base,
        # nodes of the member, add none
        assert len(calls) == len(_power_nodes(member.rhs)) == 2 * (k // 2)
        calls.clear()
        evaluate_batch(core, Environment(scalars, matrices), rows)
        assert len(calls) == len(_power_nodes(core))


def _power_bases(word) -> list:
    """The base of each Power node of a word, each node object once."""
    if isinstance(word, Symbol):
        return []
    if isinstance(word, Power):
        return [word.base] + _power_bases(word.base)
    found = []
    for f in word.factors:
        found += [b for b in _power_bases(f) if all(b is not g for g in found)]
    return found


class TestBatchSpectrum:
    _ROW_VALUES = TestEvaluateBatch._ROW_VALUES
    _matrices = staticmethod(TestSeveralWordsPerRun._matrices)

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 10**9), several_envs=st.booleans())
    def test_comparison_from_batch_spectrum_equals_decomposing_values(self, seed, several_envs):
        rng = np.random.default_rng(seed)
        inner = random_palindrome(rng)
        word = Product((inner, Symbol(2, random_scalar_expr(rng)), inner))
        outer = Power(word, random_scalar_expr(rng))
        # power bases, an outer power and a product of two palindromes
        # (mostly ERROR rows)
        words = (outer, word, *_power_bases(inner), Product((inner, outer)))
        constants = {"r": 1.7, "t1": 0.3, "t2": 0.8, "t3": 0.5,
                     "p1": 2.0, "p2": 1.5, "p3": 3.0, "p4": 1.25, "w1": 0.4, "w2": 0.9}
        count = int(rng.integers(1, 9))
        per_row = [name for name in constants if rng.random() < 0.5] or ["p1"]
        rows = {name: rng.choice(self._ROW_VALUES, count) for name in per_row}
        if several_envs:
            env = [Environment(constants, self._matrices(rng)) for _ in range(3)]
            instance = rng.integers(0, 3, count)
        else:
            env, instance = Environment(constants, self._matrices(rng)), None
        batches = evaluate_batch(words, env, rows, instance)
        incoming = no_errors(count)
        for i in np.flatnonzero(rng.random(count) < 0.3):
            incoming[i] = EvaluationError(f"row {i} failed earlier")
        for batch in batches:
            lam, errors = batch.spectrum
            want_lam, _, want_errors = decompose_stack(batch.values)
            assert lam.tobytes() == want_lam.tobytes()
            assert error_rows(errors, count) == error_rows(want_errors, count)
            for other in (_identity_batch(3), batches[0]):
                for before in (None, batch.row_errors, incoming):
                    for got, want in (
                            (scaled_margins_stack(other, batch, before),
                             full_spectrum_margins(other.values, batch.values, before)),
                            (scaled_margins_stack(batch, other, before),
                             full_spectrum_margins(batch.values, other.values, before))):
                        for a, b in zip(got[:3], want[:3]):
                            assert a.tobytes() == b.tobytes()
                        assert error_rows(got[3], count) == error_rows(want[3], count)

    def test_power_base_spectrum_decomposes_each_p1_once_and_is_kept(self, monkeypatch):
        from oporder import spectral

        env = diag_env({"t1": 0.5}, {1: [1.0, 2.0], 2: [3.0, 1.0]})
        base = parse("A2^{-t1/2} A1^{p1} A2^{-t1/2}")
        outer = Power(base, ScalarExpr.variable("p2"))
        rows = {"p1": np.array([1.0, 2.0, 1.0, 2.0]), "p2": np.array([1.0, 1.0, 2.0, 4.0])}
        _, got = evaluate_batch((outer, base), env, rows)
        calls = []
        monkeypatch.setattr(spectral, "decompose_stack",
                            lambda arrs, errors=None: calls.append(len(arrs))
                            or decompose_stack(arrs, errors))
        lam, errors = got.spectrum
        assert got.spectrum[0] is lam
        assert calls == [2] and errors is None
        assert lam.tobytes() == decompose_stack(got.values)[0].tobytes()

    def test_other_words_decompose_each_distinct_value_once(self, monkeypatch):
        from oporder import spectral

        env = diag_env({}, {1: [1.0, 2.0]})
        batch = evaluate_batch(parse("A1^{p1}"), env, {"p1": np.array([2.0, 3.0, 2.0, 2.0])})
        calls = []
        monkeypatch.setattr(spectral, "decompose_stack",
                            lambda arrs, errors=None: calls.append(len(arrs))
                            or decompose_stack(arrs, errors))
        lam, _ = batch.spectrum
        assert calls == [2]
        assert lam.tolist() == [[1.0, 4.0], [1.0, 8.0], [1.0, 4.0], [1.0, 4.0]]

    def test_spectrum_carries_decomposition_errors(self):
        # A1 A1 is finite, but hermitizing it overflows: decomposing the
        # batch's distinct value fails, as decompose_stack of its rows does
        env = diag_env({}, {1: [1.2e154, 1.0]})
        base = parse("A1 A1")
        rows = {"p1": np.array([1.0, 2.0])}
        _, got = evaluate_batch((Power(base, ScalarExpr.variable("p1")), base), env, rows)
        assert got.row_errors is None
        lam, errors = got.spectrum
        want_lam, _, want_errors = decompose_stack(got.values)
        assert lam.tobytes() == want_lam.tobytes()
        assert error_rows(errors, 2) == error_rows(want_errors, 2) == \
            [(NonFiniteError, "eigensolver input is not finite")] * 2


def _unitary(rng: np.random.Generator, dim: int, complex_field: bool) -> np.ndarray:
    z = rng.standard_normal((dim, dim))
    if complex_field:
        z = z + 1j * rng.standard_normal((dim, dim))
    return np.linalg.qr(z)[0]


class TestNormBound:
    """A power's batch bounds its norms from its base's eigenvalues, and a
    comparison decomposes it only where the bound reaches the scale."""

    _EXPONENTS = tuple(Fraction(x) for x in ("-3/2", "-1", "-1/2", "0", "1/2", "1", "2", "3"))

    @staticmethod
    def _matrix(rng, dim, complex_field, kind) -> HermitianMatrix:
        if kind == "identity":
            return identity(dim)
        if kind == "scaled identity":
            return HermitianMatrix(float(rng.choice((0.5, 2.0))) * np.eye(dim))
        low = 0.2 if kind == "pd" else -3.0  # else indefinite: only integer powers
        u = _unitary(rng, dim, complex_field)
        arr = (u * rng.uniform(low, 3.0, dim)) @ u.conj().T
        return HermitianMatrix(0.5 * (arr + arr.conj().T))

    def _exponent(self, rng) -> ScalarExpr:
        if rng.random() < 0.4:
            return ScalarExpr.number(self._EXPONENTS[rng.integers(0, len(self._EXPONENTS))])
        expr = ScalarExpr.variable("x", Fraction(int(rng.choice((1, -1)))))
        if rng.random() < 0.3:
            expr = expr + ScalarExpr.number(Fraction(1, 2))
        return expr

    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 10**9), dim=st.integers(1, 4), complex_field=st.booleans())
    def test_bound_gated_margins_equal_full_spectrum(self, seed, dim, complex_field):
        import dataclasses

        from oporder.spectral import BOUND_SLACK_PER_DIM, spectral_norms

        rng = np.random.default_rng(seed)
        kinds = ("pd", "indefinite", "scaled identity", "identity")
        env = Environment({}, {i: self._matrix(rng, dim, complex_field,
                                                kinds[rng.integers(0, len(kinds))])
                               for i in (1, 2)})
        one = ScalarExpr.number(1)
        e1, e2 = self._exponent(rng), self._exponent(rng)
        # A1^e1 against the power (A1)^e1 of the same value, and A2^e2
        # against a sandwich power; fractional powers of indefinite bases
        # are error rows
        words = (Symbol(1, e1), Power(Symbol(1, one), e1), Symbol(2, e2),
                 Power(Product((Symbol(2, one), Symbol(1, one), Symbol(2, one))), e2))
        count = int(rng.integers(1, 9))
        rows = {"x": rng.choice([float(x) for x in self._EXPONENTS], count)}
        batches = evaluate_batch(words, env, rows)
        for batch in batches[1::2]:
            bound = batch.norm_bound
            first, _ = batch.distinct
            lam, _, errors = decompose_stack(batch.values[first])
            fine = np.equal(errors, None)
            if batch.row_errors is not None:
                fine &= np.equal(batch.row_errors[first], None)
            assert np.all(spectral_norms(lam)[fine]
                          <= bound[fine] * (1 + dim * BOUND_SLACK_PER_DIM))
        incoming = no_errors(count)
        for i in np.flatnonzero(rng.random(count) < 0.3):
            incoming[i] = EvaluationError(f"row {i} failed earlier")
        ident = _identity_batch(dim)
        sides = (*batches, ident)

        def fresh(side):
            # a new batch keeps no spectrum from an earlier comparison; the
            # identity's is known from the start
            return side if side is ident else dataclasses.replace(side)

        for p in sides:
            for q in sides:
                for before in (None, incoming):
                    got = scaled_margins_stack(fresh(p), fresh(q), before)
                    want = full_spectrum_margins(p.values, q.values, before)
                    for a, b in zip(got[:3], want[:3]):
                        assert [x.hex() for x in a.tolist()] == [x.hex() for x in b.tolist()]
                    assert error_rows(got[3], count) == error_rows(want[3], count)

    @pytest.mark.parametrize("c,decomposed", [(1.0, [2]), (0.5, []), (2.0, [2])])
    def test_decomposed_where_the_bound_reaches_the_scale(self, monkeypatch, c, decomposed):
        # c * I raised to 2 and 3: norms c^2 and c^3 against the identity's
        # 1; at c = 1 they equal the scale and are decomposed all the same
        env = diag_env({}, {1: [c, c]})
        batch = evaluate_batch(Power(Symbol(1, ScalarExpr.number(1)), ScalarExpr.variable("x")),
                               env, {"x": np.array([2.0, 3.0, 2.0])})
        assert batch.norm_bound.tolist() == [c ** 2, c ** 3]
        ident = _identity_batch(2)
        calls = []
        count_decompositions(monkeypatch, calls)
        _, _, scale, errors = scaled_margins_stack(ident, batch)
        assert calls == decomposed and errors is None
        assert scale.tolist() == [max(1.0, c ** 2), max(1.0, c ** 3), max(1.0, c ** 2)]

    def test_only_power_batches_carry_a_bound(self):
        env = diag_env({"t1": 0.5}, {1: [1.0, 2.0], 2: [3.0, 1.0]})
        base = parse("A2^{-t1/2} A1^{p1} A2^{-t1/2}")
        power, product, symbol = evaluate_batch(
            (Power(base, ScalarExpr.variable("p2")), base, parse("A1^{p1}")), env,
            {"p1": np.array([1.0, 2.0]), "p2": np.array([2.0, 2.0])})
        assert product.norm_bound is None and symbol.norm_bound is None
        assert power.norm_bound.shape == (2,)
