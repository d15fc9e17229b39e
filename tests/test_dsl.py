from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from util import (
    GOLDEN_DIR,
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
        for i in range(count):
            scalars = dict(constants, **{name: float(col[i]) for name, col in rows.items()})
            try:
                want = evaluate(word, Environment(scalars=scalars, matrices=matrices)).entries
            except (SpectralError, EvaluationError) as exc:
                assert type(batch.errors[i]) is type(exc)
                assert batch.error_text(i) == str(exc)
                continue
            assert batch.errors[i] is None
            scale = max(1.0, float(np.abs(want).max()))
            assert np.abs(batch.values[i] - want).max() <= 1e-12 * scale

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
        batch = evaluate_batch(word, envs, rows, instance)
        assert batch.values.shape == (count, 3, 3)
        for j, env in enumerate(envs):
            mine = np.flatnonzero(instance == j)
            if not len(mine):
                continue
            alone = evaluate_batch(word, env, {name: col[mine] for name, col in rows.items()})
            assert batch.values[mine].tobytes() == alone.values.tobytes()
            assert [batch.error_text(i) for i in mine] == \
                [alone.error_text(i) for i in range(len(mine))]
            assert [type(batch.errors[i]) for i in mine] == [type(e) for e in alone.errors]

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

    def test_unbound_exponent_name_fails_every_row(self):
        env = diag_env({}, {1: [1.0, 2.0], 2: [3.0, 1.0]})
        word = parse("A2 (A1 A1)^{p1+p2} A2")
        batch = evaluate_batch(word, env, {"p1": np.array([1.0, 4.0, 1.0])})
        assert batch.values.shape == (3, 2, 2)
        assert all(isinstance(e, UnboundNameError) for e in batch.errors)

    def test_one_instance_takes_the_single_environment_path(self):
        env = diag_env({"r": 0.5}, {1: [4.0, 9.0]})
        other = diag_env({"r": 1.0}, {1: [1.0, 1.0]})
        batch = evaluate_batch(parse("A1^{r}"), [other, env], instance=[1])
        assert np.array_equal(batch.values[0], np.diag([2.0, 3.0]))
        # the constant power landed in that environment's cache
        assert list(env._powers) == [(1, 0.5)] and not other._powers

    def test_error_rows_are_identity_and_masked(self):
        env = diag_env({}, {1: [0.0, 1.0]})
        batch = evaluate_batch(parse("A1^{p1}"), env, {"p1": np.array([2.0, 0.5, 2.0])})
        assert batch.error_mask.tolist() == [False, True, False]
        assert isinstance(batch.errors[1], NearSingularError)
        assert np.array_equal(batch.values[1], np.eye(2))
        assert np.allclose(batch.values[0], np.diag([0.0, 1.0]))


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
            assert [type(e) for e in got.errors] == [type(e) for e in alone.errors]
            assert [got.error_text(i) for i in range(count)] == \
                [alone.error_text(i) for i in range(count)]

    def test_single_word_keeps_its_return_type(self):
        env = diag_env({}, {1: [1.0, 2.0]})
        assert isinstance(evaluate_batch(parse("A1"), env), WordBatch)
        (one,) = evaluate_batch((parse("A1"),), env)
        assert isinstance(one, WordBatch)

    @pytest.mark.parametrize("k", [3, 5, 7])
    def test_shared_powers_are_decomposed_once(self, k, monkeypatch):
        from oporder import chains, dsl

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

        def counting(arrs, errors=None):
            calls.append(len(arrs))
            return decompose_stack(arrs, errors)

        monkeypatch.setattr(dsl, "decompose_stack", counting)
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


def _error_rows(errors, count: int) -> list:
    """Type and text of each row's error (errors None: no row failed)."""
    if errors is None:
        return [None] * count
    return [None if e is None else (type(e), str(e)) for e in errors]


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
            assert _error_rows(errors, count) == _error_rows(want_errors, count)
            for other in (identity(3), batches[0].values):
                for before in (None, batch.errors, incoming):
                    for got, want in (
                            (scaled_margins_stack(other, batch, before),
                             scaled_margins_stack(other, batch.values, before)),
                            (scaled_margins_stack(batch, other, before),
                             scaled_margins_stack(batch.values, other, before))):
                        for a, b in zip(got[:3], want[:3]):
                            assert a.tobytes() == b.tobytes()
                        assert _error_rows(got[3], count) == _error_rows(want[3], count)

    def test_power_base_spectrum_decomposes_each_p1_once_and_is_kept(self, monkeypatch):
        from oporder import dsl

        env = diag_env({"t1": 0.5}, {1: [1.0, 2.0], 2: [3.0, 1.0]})
        base = parse("A2^{-t1/2} A1^{p1} A2^{-t1/2}")
        outer = Power(base, ScalarExpr.variable("p2"))
        rows = {"p1": np.array([1.0, 2.0, 1.0, 2.0]), "p2": np.array([1.0, 1.0, 2.0, 4.0])}
        _, got = evaluate_batch((outer, base), env, rows)
        calls = []
        monkeypatch.setattr(dsl, "decompose_stack",
                            lambda arrs, errors=None: calls.append(len(arrs))
                            or decompose_stack(arrs, errors))
        lam, errors = got.spectrum
        assert got.spectrum[0] is lam
        assert calls == [2] and errors is None
        assert lam.tobytes() == decompose_stack(got.values)[0].tobytes()

    def test_other_words_decompose_each_distinct_value_once(self, monkeypatch):
        from oporder import dsl

        env = diag_env({}, {1: [1.0, 2.0]})
        batch = evaluate_batch(parse("A1^{p1}"), env, {"p1": np.array([2.0, 3.0, 2.0, 2.0])})
        calls = []
        monkeypatch.setattr(dsl, "decompose_stack",
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
        assert not got.error_mask.any()
        lam, errors = got.spectrum
        want_lam, _, want_errors = decompose_stack(got.values)
        assert lam.tobytes() == want_lam.tobytes()
        assert _error_rows(errors, 2) == _error_rows(want_errors, 2) == \
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
            fine = ~batch.error_mask[first] & np.equal(errors, None)
            assert np.all(spectral_norms(lam)[fine]
                          <= bound[fine] * (1 + dim * BOUND_SLACK_PER_DIM))
        incoming = no_errors(count)
        for i in np.flatnonzero(rng.random(count) < 0.3):
            incoming[i] = EvaluationError(f"row {i} failed earlier")
        sides = (*batches, identity(dim), batches[0].values)

        def fresh(side):
            # a new batch keeps no spectrum from an earlier comparison
            return dataclasses.replace(side) if isinstance(side, WordBatch) else side

        for p in sides:
            for q in sides:
                for before in (None, incoming):
                    got = scaled_margins_stack(fresh(p), fresh(q), before)
                    want = scaled_margins_stack(getattr(p, "values", p),
                                                getattr(q, "values", q), before)
                    for a, b in zip(got[:3], want[:3]):
                        assert [x.hex() for x in a.tolist()] == [x.hex() for x in b.tolist()]
                    assert _error_rows(got[3], count) == _error_rows(want[3], count)

    @pytest.mark.parametrize("c,decomposed", [(1.0, [2]), (0.5, []), (2.0, [2])])
    def test_decomposed_where_the_bound_reaches_the_scale(self, monkeypatch, c, decomposed):
        # c * I raised to 2 and 3: norms c^2 and c^3 against the identity's
        # 1; at c = 1 they equal the scale and are decomposed all the same
        from oporder import dsl, spectral

        env = diag_env({}, {1: [c, c]})
        batch = evaluate_batch(Power(Symbol(1, ScalarExpr.number(1)), ScalarExpr.variable("x")),
                               env, {"x": np.array([2.0, 3.0, 2.0])})
        assert batch.norm_bound.tolist() == [c ** 2, c ** 3]
        ident = identity(2)
        ident.decomposition()
        calls = []
        for module in (dsl, spectral):
            monkeypatch.setattr(module, "decompose_stack",
                                lambda arrs, errors=None: calls.append(len(arrs))
                                or decompose_stack(arrs, errors))
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
