import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oporder import dsl
from oporder.chains import (
    ChainInequality,
    Direction,
    Family,
    Power,
    Product,
    ScalarExpr,
    Symbol,
    ascending_index,
    build_chain,
    chain_exponent,
    chain_exponents,
    chain_terms,
    descending_index,
    hypothesis_core,
    hypothesis_set,
    layer_exponent,
    member_slots,
    necessity_weight_from,
    necessity_weights,
    peeled_bindings,
    reduction_words,
    slot_words,
    weight_index,
)
from util import GOLDEN_DIR

t_floats = st.floats(0.0, 1.0)
p_floats = st.floats(1.0, 8.0)


class TestScalarExpr:
    def test_render_forms(self):
        t1 = ScalarExpr.variable("t1", Fraction(-1, 2))
        assert t1.render() == "-t1/2"
        r_half = ScalarExpr.variable("r", Fraction(1, 2))
        assert r_half.render() == "r/2"
        diff = ScalarExpr.variable("r") - ScalarExpr.variable("t2")
        assert diff.render() == "r-t2"
        assert ScalarExpr.number(Fraction(1, 2)).render() == "1/2"
        assert ScalarExpr.number(0).render() == "0"

    def test_merging_and_equality(self):
        a = ScalarExpr.variable("t1", Fraction(1, 2)) + ScalarExpr.variable("t1", Fraction(1, 2))
        assert a == ScalarExpr.variable("t1")
        assert (a - a) == ScalarExpr.number(0)

    def test_unrenderable_coefficient(self):
        bad = ScalarExpr.variable("t1", Fraction(1, 2)) + ScalarExpr.variable("t1", Fraction(1, 3))
        with pytest.raises(ValueError):
            bad.render()

    def test_evaluate(self):
        e = ScalarExpr.variable("r") - ScalarExpr.variable("t1", Fraction(1, 2))
        assert e.evaluate({"r": 2.0, "t1": 1.0}) == pytest.approx(1.5)


class TestChainExponent:
    def test_single_level_formula(self):
        t1, p1, p2 = 0.37, 2.5, 1.75
        assert chain_exponent((t1,), (p1, p2)) == pytest.approx((p1 - t1) * p2 + t1, rel=1e-14)

    def test_all_ones_is_exactly_one(self):
        for t in [(0.1,), (0.3, 0.7), (1e-7, 0.5, 0.999)]:
            assert chain_exponent(t, (1.0,) * (2 * len(t))) == 1.0

    def test_two_level_worked_example(self):
        # inner bracket 5, outer bracket 29, by hand
        assert chain_exponent((0.5, 0.5), (2, 3, 2, 3)) == pytest.approx(29.0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            chain_exponent((0.5,), (1.0, 2.0, 3.0))

    def test_beyond_float_range_is_inf(self):
        assert chain_exponent((0.5,), (1e300, 1e300)) == math.inf
        assert necessity_weight_from((0.5,), (1e300, 1e300), 1.0) == 0.0
        # the largest exponent that still fits is unchanged
        assert chain_exponent((0.5,), (1e300, 1.0)) == 1e300

    def test_range_validation(self):
        with pytest.raises(ValueError):
            chain_exponent((1.5,), (1.0, 1.0))
        with pytest.raises(ValueError):
            chain_exponent((0.5,), (0.5, 1.0))

    @settings(max_examples=60, deadline=None)
    @given(t=st.lists(t_floats, min_size=1, max_size=3),
           p=st.lists(p_floats, min_size=1, max_size=6), idx=st.integers(0, 5))
    def test_monotone_in_each_p(self, t, p, idx):
        n = min(len(t), len(p) // 2)
        if n == 0:
            return
        t = tuple(t[:n])
        p = tuple(p[: 2 * n])
        idx = idx % (2 * n)
        base = chain_exponent(t, p)
        bumped = list(p)
        bumped[idx] += 0.25
        assert chain_exponent(t, tuple(bumped)) >= base - 1e-12

    @settings(max_examples=60, deadline=None)
    @given(t=st.lists(t_floats, min_size=1, max_size=3),
           p=st.lists(p_floats, min_size=2, max_size=6))
    def test_at_least_one(self, t, p):
        n = min(len(t), len(p) // 2)
        if n == 0:
            return
        assert chain_exponent(tuple(t[:n]), tuple(p[: 2 * n])) >= 1.0 - 1e-12


def fraction_chain_exponent(t, p) -> float:
    """Independent oracle: the recurrence in Fraction arithmetic, rounded once."""
    b = Fraction(1)
    for j, tj in enumerate(t):
        b = (b * Fraction(p[2 * j]) - Fraction(tj)) * Fraction(p[2 * j + 1]) + Fraction(tj)
    try:
        return float(b)
    except OverflowError:
        return math.inf


@st.composite
def weight_tables(draw):
    """(t, p-table, r): n = 1..3, t in [0, 1] with its ends, rows drawn from a
    small grid of floats >= 1 that may hold 1e300."""
    n = draw(st.integers(1, 3))
    t = tuple(draw(st.one_of(st.sampled_from([0.0, 1.0]), t_floats)) for _ in range(n))
    grid = draw(st.lists(st.one_of(st.sampled_from([1.0, 1e300]), st.floats(1.0, 64.0)),
                         min_size=1, max_size=3, unique=True))
    table = [tuple(draw(st.sampled_from(grid)) for _ in range(2 * n))
             for _ in range(draw(st.integers(1, 12)))]
    return t, table, t[-1] + draw(st.floats(1e-3, 3.0))


@st.composite
def prefix_tables(draw):
    """(t, p-table): n = 1..4, rows that share prefixes of every length and
    repeat, with entries from a small grid that may hold 1.0 and 1e300."""
    n = draw(st.integers(1, 4))
    t = tuple(draw(st.one_of(st.sampled_from([0.0, 1.0]), t_floats)) for _ in range(n))
    grid = draw(st.lists(st.one_of(st.sampled_from([1.0, 1e300]), st.floats(1.0, 64.0)),
                         min_size=1, max_size=3, unique=True))
    table = [tuple(draw(st.sampled_from(grid)) for _ in range(2 * n))]
    for _ in range(draw(st.integers(0, 15))):
        keep = 2 * draw(st.integers(0, n))  # a prefix of an earlier row, or all of it
        table.append(draw(st.sampled_from(table))[:keep]
                     + tuple(draw(st.sampled_from(grid)) for _ in range(2 * n - keep)))
    return t, table


class TestWeightColumns:
    @settings(max_examples=150, deadline=None)
    @given(case=weight_tables())
    @example(case=((0.3, 1.0), [(1.0,) * 4, (1e300, 1.0, 1.0, 1.0)], 1.5))
    @example(case=((0.0,), [(1e300, 1e300), (1.0, 1.0)], 0.5))
    def test_columns_match_one_row_case_and_exact_oracle_bit_for_bit(self, case):
        t, table, r = case
        psi = chain_exponents(t, table)
        w = necessity_weights(t, chain_terms(table), r)
        assert psi.shape == w.shape == (len(table),)
        for i, p in enumerate(table):
            exact = fraction_chain_exponent(t, p)
            weight = (r - t[-1]) / (exact - t[-1] + r)
            assert float(psi[i]).hex() == chain_exponent(t, p).hex() == exact.hex()
            assert float(w[i]).hex() == necessity_weight_from(t, p, r).hex() == weight.hex()

    @settings(max_examples=150, deadline=None)
    @given(case=prefix_tables())
    @example(case=((0.3, 0.7, 1.0), [(1.0,) * 6, (1.0,) * 6, (1e300,) * 6, (1.0,) * 4 + (1e300, 1.0)]))
    @example(case=((1.0, 0.0, 0.5, 0.25), [(1.0,) * 8, (1e300,) + (1.0,) * 7]))
    def test_shared_prefixes_match_exact_oracle_bit_for_bit(self, case):
        t, table = case
        psi = chain_exponents(t, table)
        assert [float(v).hex() for v in psi] == \
            [fraction_chain_exponent(t, p).hex() for p in table]
        for p, value in zip(table, psi.tolist()):
            if all(v == 1.0 for v in p):
                assert value == 1.0
            if p[0] == p[1] == 1e300:
                assert value == math.inf

    def test_all_ones_is_exactly_one_and_overflow_is_inf(self):
        t = (0.3, 0.7)
        psi = chain_exponents(t, [(1.0,) * 4, (1e300,) * 4])
        assert psi.tolist() == [1.0, math.inf]
        assert necessity_weights(t, chain_terms([(1e300,) * 4]), 1.5).tolist() == [0.0]

    @pytest.mark.parametrize("table", [[(1.0, 0.5)], [(1.0, math.inf)], [(1.0, math.nan)],
                                       [(1.0, 1.0, 1.0)]])
    def test_rejects_bad_tables(self, table):
        with pytest.raises(ValueError):
            chain_exponents((0.5,), table)


class TestNecessityWeight:
    def test_unit_example(self):
        assert necessity_weight_from((1.0,), (1.0, 1.0), 2.0) == pytest.approx(0.5)

    def test_two_level_example(self):
        w = necessity_weight_from((0.5, 0.5), (2, 3, 2, 3), 1.0)
        assert w == pytest.approx(0.5 / 29.5, rel=1e-12)
        assert w == pytest.approx(0.016949, abs=1e-6)

    def test_vanishes_as_r_approaches_t(self):
        w = necessity_weight_from((0.5,), (2.0, 2.0), 0.5 + 1e-12)
        assert 0.0 < w < 1e-9

    def test_requires_r_above_t(self):
        with pytest.raises(ValueError):
            necessity_weight_from((0.5,), (1.0, 1.0), 0.5)

    def test_in_unit_interval_on_samples(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n = int(rng.integers(1, 4))
            t = tuple(rng.uniform(0.05, 0.95, n))
            p = tuple(rng.uniform(1.0, 6.0, 2 * n))
            r = t[-1] + rng.uniform(0.05, 2.0)
            assert 0.0 < necessity_weight_from(t, p, r) < 1.0


class TestIndexSchedules:
    def test_ascending_examples(self):
        n = 4
        k = 2 * n + 1
        assert ascending_index(1, 0, k) == 1
        assert ascending_index(2, 2 * n - 1, k) == 2 * n + 1
        assert ascending_index(n, 1, k) == n + 1

    def test_descending_examples(self):
        n = 4
        k = 2 * n + 1
        assert descending_index(n, 0, k) == 2 * n + 1
        assert descending_index(n, 2 * n - 1, k) == 2
        assert descending_index(1, 2 * n - 1, k) == 1

    def test_range_violations(self):
        with pytest.raises(ValueError):
            ascending_index(0, 0, 5)
        with pytest.raises(ValueError):
            ascending_index(3, 0, 5)
        with pytest.raises(ValueError):
            ascending_index(1, 4, 5)
        with pytest.raises(ValueError):
            descending_index(2, 0, 4)
        with pytest.raises(ValueError):
            descending_index(1, -1, 5)

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 6), odd=st.booleans(), member=st.integers(1, 6))
    def test_monotone_until_saturation(self, n, odd, member):
        k = 2 * n + 1 if odd else 2 * n
        member = 1 + (member - 1) % n
        asc = [ascending_index(member, j, k) for j in range(2 * n)]
        assert all(b - a in (0, 1) for a, b in zip(asc, asc[1:]))
        assert max(asc) <= k
        if asc[-1] == k:
            tail = asc[asc.index(k):]
            assert all(v == k for v in tail)
        q_max = n if odd else n - 1
        if q_max >= 1:
            q = 1 + (member - 1) % q_max
            desc = [descending_index(q, j, k) for j in range(2 * n)]
            assert all(a - b in (0, 1) for a, b in zip(desc, desc[1:]))
            assert min(desc) >= 1
            if desc[-1] == 1:
                tail = desc[desc.index(1):]
                assert all(v == 1 for v in tail)

    def test_layer_exponents(self):
        n = 3
        assert layer_exponent(1, n).render() == "-t1/2"
        assert layer_exponent(2, n).render() == "t1/2"
        assert layer_exponent(3, n).render() == "-t2/2"
        assert layer_exponent(2 * n - 1, n).render() == "-t3/2"
        with pytest.raises(ValueError):
            layer_exponent(0, n)
        with pytest.raises(ValueError):
            layer_exponent(2 * n, n)


class TestBuildChain:
    def test_smallest_ascending_structure(self):
        chain = build_chain(Family.ASCENDING, 1, 3)
        t_half = ScalarExpr.variable("t1", Fraction(-1, 2))
        inner = Symbol(2, t_half)
        expected_rhs = Power(
            Product((
                Symbol(3, ScalarExpr.variable("r", Fraction(1, 2))),
                Power(Product((inner, Symbol(1, ScalarExpr.variable("p1")), inner)),
                      ScalarExpr.variable("p2")),
                Symbol(3, ScalarExpr.variable("r", Fraction(1, 2))),
            )),
            ScalarExpr.variable("w1"),
        )
        assert chain.rhs == expected_rhs
        assert chain.lhs == Symbol(3, ScalarExpr.variable("r") - ScalarExpr.variable("t1"))
        assert chain.direction is Direction.GE

    def test_descending_orientation(self):
        chain = build_chain(Family.DESCENDING, 1, 3)
        assert chain.direction is Direction.LE
        assert chain.lhs.index == 1
        assert chain.rhs.base.factors[0].index == 1

    def test_even_cap_saturates_at_k(self):
        chain = build_chain(Family.ASCENDING, 2, 4)
        text = dsl.pretty_print(chain)
        assert "A5" not in text
        assert "A4^{-t2/2}" in text

    def test_member_out_of_range(self):
        with pytest.raises(ValueError):
            build_chain(Family.DESCENDING, 2, 4)
        with pytest.raises(ValueError):
            build_chain(Family.ASCENDING, 3, 5)

    def test_weight_indices(self):
        asc = build_chain(Family.ASCENDING, 2, 5)
        desc = build_chain(Family.DESCENDING, 2, 5)
        assert asc.rhs.exponent == ScalarExpr.variable("w2")
        assert desc.rhs.exponent == ScalarExpr.variable("w4")
        assert weight_index(Family.DESCENDING, 1, 2) == 3

    def test_hypothesis_core_shape(self):
        chain = build_chain(Family.ASCENDING, 1, 5)
        core = hypothesis_core(chain)
        assert isinstance(core, Power)
        assert core.exponent == ScalarExpr.variable("p4")


def _layered_chain(family: Family, member: int, k: int) -> ChainInequality:
    """A member built layer by layer from its operator indices, with no
    slot word in between."""
    n = k // 2
    if family is Family.ASCENDING:
        index_at, outer, direction = (lambda j: ascending_index(member, j, k)), k, Direction.GE
    else:
        index_at, outer, direction = (lambda j: descending_index(member, j, k)), 1, Direction.LE
    core = Symbol(index_at(0), ScalarExpr.variable("p1"))
    for j in range(1, 2 * n):
        wrap = Symbol(index_at(j), layer_exponent(j, n))
        core = Power(Product((wrap, core, wrap)), ScalarExpr.variable(f"p{j + 1}"))
    wrap = Symbol(outer, ScalarExpr.variable("r", Fraction(1, 2)))
    rhs = Power(Product((wrap, core, wrap)),
                ScalarExpr.variable(f"w{weight_index(family, member, n)}"))
    lhs = Symbol(outer, ScalarExpr.variable("r") - ScalarExpr.variable(f"t{n}"))
    return ChainInequality(family, member, lhs, rhs, direction)


class TestSlotWords:
    def test_k5_slot_words(self):
        lhs, rhs = slot_words(5)
        assert dsl.pretty_print(lhs) == "A5^{r-t2}"
        assert dsl.pretty_print(rhs) == (
            "(A5^{r/2} (A4^{-t2/2} (A3^{t1/2} (A2^{-t1/2} A1^{p1} A2^{-t1/2})^{p2} "
            "A3^{t1/2})^{p3} A4^{-t2/2})^{p4} A5^{r/2})^{w}")

    def test_k5_member_slots(self):
        # slots 1 .. 4 are layers 0 .. 3, slot 5 the outer operator
        assert member_slots(Family.ASCENDING, 1, 5) == (1, 2, 3, 4, 5)
        assert member_slots(Family.ASCENDING, 2, 5) == (2, 3, 4, 5, 5)
        assert member_slots(Family.DESCENDING, 1, 5) == (4, 3, 2, 1, 1)
        assert member_slots(Family.DESCENDING, 2, 5) == (5, 4, 3, 2, 1)
        with pytest.raises(ValueError):
            member_slots(Family.DESCENDING, 2, 4)

    @pytest.mark.parametrize("k", range(2, 10))
    def test_build_chain_is_the_relabelled_slot_word(self, k):
        n = k // 2
        slot_lhs, slot_rhs = slot_words(k)
        for chain in hypothesis_set(k):
            assert chain == _layered_chain(chain.family, chain.member, k)
            # the slot words' text with A<s> read as A<slots[s-1]> and w as
            # the member's weight
            slots = member_slots(chain.family, chain.member, k)
            weight = f"w{weight_index(chain.family, chain.member, n)}"
            for slot_word, word in ((slot_lhs, chain.lhs), (slot_rhs, chain.rhs)):
                text = re.sub(r"A(\d+)", lambda m: f"A{slots[int(m.group(1)) - 1]}",
                              dsl.pretty_print(slot_word)).replace("^{w}", "^{%s}" % weight)
                assert text == dsl.pretty_print(word)

    @pytest.mark.parametrize("k", [3, 6])
    def test_relabelled_sandwich_factors_stay_one_node(self, k):
        for chain in hypothesis_set(k):
            word = chain.rhs
            while isinstance(word, Power):
                wrap, inner, other = word.base.factors
                assert wrap is other
                word = inner


class TestReductionWords:
    def test_k7_words(self):
        base, bound = reduction_words(7)
        assert dsl.pretty_print(base) == "A2^{-t1/2} A1^{p1} A2^{-t1/2}"
        assert dsl.pretty_print(bound) == (
            "(A3^{-t1/2} (A4^{t2/2} (A5^{-t2/2} A6^{q5} A5^{-t2/2})^{q4} "
            "A4^{t2/2})^{q3} A3^{-t1/2})^{q2}"
        )

    @pytest.mark.parametrize("k", [3, 4, 5, 6, 7])
    def test_base_is_the_innermost_sandwich_of_the_first_member(self, k):
        word = hypothesis_core(build_chain(Family.ASCENDING, 1, k))
        while isinstance(word.base.factors[1], Power):
            word = word.base.factors[1]
        assert reduction_words(k)[0] == word.base

    @pytest.mark.parametrize("k", [3, 4, 5, 6, 7])
    def test_base_is_the_very_node_inside_the_first_member(self, k):
        # identity, not equality: one evaluation run then shares the node
        word = hypothesis_core(hypothesis_set(k)[0])
        while isinstance(word.base.factors[1], Power):
            word = word.base.factors[1]
        assert reduction_words(k)[0] is word.base

    @pytest.mark.parametrize("k", [4, 5, 6, 7])
    def test_bound_names_are_its_own(self, k):
        # the q names let the bound share a run with the sampled p columns
        n = k // 2
        names = set()
        word = reduction_words(k)[1]
        while isinstance(word, Power):
            names |= word.exponent.free_names()
            word = word.base.factors[1]
        names |= word.exponent.free_names()
        assert names == {f"q{j}" for j in range(2, 2 * n)}

    def test_single_level_bound_is_the_identity(self):
        assert reduction_words(3)[1] is None
        assert dsl.pretty_print(reduction_words(5)[1]) == "(A3^{-t1/2} A4^{q3} A3^{-t1/2})^{q2}"

    def test_peeled_bindings(self):
        assert peeled_bindings((0.8, 0.3), (1.0, 2.0, 4.0, 8.0)) == {"q2": 0.5, "q3": 0.3 / 4.0}
        got = peeled_bindings((0.8, 0.3, 0.6), np.array([[1.0, 2.0, 4.0, 8.0, 5.0, 1.0]]).T)
        assert {name: float(col[0]) for name, col in got.items()} == \
            {"q2": 0.5, "q3": 0.25, "q4": 0.125, "q5": 0.6 / 5.0}


class TestHypothesisSet:
    @pytest.mark.parametrize("k,count", [(3, 2), (5, 4), (4, 3), (7, 6), (6, 5), (2, 1)])
    def test_member_counts(self, k, count):
        assert len(hypothesis_set(k)) == count

    def test_families_in_order(self):
        members = hypothesis_set(5)
        assert [(c.family, c.member) for c in members] == [
            (Family.ASCENDING, 1), (Family.ASCENDING, 2),
            (Family.DESCENDING, 1), (Family.DESCENDING, 2),
        ]


def normalized_lines(text: str) -> list[str]:
    lines = []
    for raw in text.splitlines():
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append(" ".join(stripped.split()))
    return lines


class TestGoldenChains:
    @pytest.mark.parametrize("k,name", [(5, "chains_k5.txt"), (4, "chains_k4.txt")])
    def test_hypothesis_set_matches_golden(self, k, name):
        golden = normalized_lines((GOLDEN_DIR / name).read_text())
        printed = [
            " ".join(dsl.pretty_print(c).split())
            for c in hypothesis_set(k)
        ]
        assert printed == golden

    def test_golden_reparses_to_same_ast(self):
        for name, k in [("chains_k5.txt", 5), ("chains_k4.txt", 4)]:
            built = hypothesis_set(k)
            parsed = dsl.parse_lines((GOLDEN_DIR / name).read_text())
            assert len(parsed) == len(built)
            for have, want in zip(parsed, built):
                assert have.lhs == want.lhs
                assert have.rhs == want.rhs
                assert have.direction == want.direction
