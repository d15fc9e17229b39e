"""Metamorphic relations of the hypothesis family: checks that need no
oracle, only a second campaign on a transformed instance.

- Unitary invariance.  A_i -> U A_i U* for one unitary U maps every word's
  value V to U V U*, so every margin and scale is unchanged: every row
  keeps its verdict, and its scaled margin (margin / scale) moves only by
  rounding.
- Inversion duality.  Inversion reverses the Loewner order, and
  (C X C)^-1 = C^-1 X^-1 C^-1.  So descending member q on (A_1 .. A_k) is
  ascending member m = k - n - q on (A_k^-1 .. A_1^-1): n + 1 - q for
  k = 2n + 1 and n - q for k = 2n, with the same t, r and p.  Under fixed
  weights the member's weight moves from w_(n+q) to w_m.

Each case draws k in 3..6, dim 1..3, the field, the tuple family (suite or
unordered) and the weights (necessity or fixed) from a seed.  Only rows
that both campaigns decide, with |margin| > CLEAR_REL * scale on both
sides, are compared, so a row at the tolerance cannot make a test flaky.
The seeds are drawn from range(SEEDS): UNITARY_BOUND was measured over
that whole case space (every k, dim, field, family, weights and seed:
3,072 cases, largest move 5.2e-7, at k=5 and dim 2 on unordered tuples,
and no verdict changed); the duality compared 844,562 clear rows there
without a disagreement.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oporder import chains, verify
from oporder.chains import Family
from oporder.spectral import HermitianMatrix
from oporder.verify import Instance, OperatorTuple, ParamTemplate, PGrid, WeightPolicy

SEEDS = 32
# a row is decided clearly when its margin is this far from 0, in scale units
CLEAR_REL = 1e-6
# the largest move of a scaled margin under a change of basis (see above)
UNITARY_BOUND = 1e-6
GRID = PGrid((1.0, 1.5, 4.0))


@st.composite
def _cases(draw):
    return (draw(st.integers(3, 6)), draw(st.integers(1, 3)),
            draw(st.sampled_from(("real", "complex"))),
            draw(st.sampled_from(("suite", "unordered"))),
            draw(st.booleans()), draw(st.integers(0, SEEDS - 1)))


def _case(k, dim, field, family, fixed, seed):
    """(tuple, template, fixed weights or None, rng) of one case; the rng
    goes on to draw the case's unitary."""
    rng = np.random.default_rng([k, dim, seed])
    if family == "suite":
        tup = verify.gen_suite_tuple(k, dim, seed, field)
    else:
        tup = verify.gen_unordered_tuples(k, [(dim, seed)], field)[0]
    template = ParamTemplate.draw(rng, k // 2)
    weights = tuple(rng.uniform(*verify.SEARCH_W_RANGE, k - 1)) if fixed else None
    return tup, template, weights, rng


def _table(matrices, template, weights):
    policy = WeightPolicy.necessity() if weights is None else WeightPolicy.fixed(weights)
    instance = Instance(OperatorTuple(tuple(matrices)), template, policy)
    return verify.check_hypotheses([instance], GRID).table


def _clear(margin, scale, verdict):
    """The rows decided clearly: no ERROR, |margin| > CLEAR_REL * scale."""
    return (verdict != verify.ERROR_CODE) & (np.abs(margin) > CLEAR_REL * scale)


def _hermitian(arr):
    return HermitianMatrix(0.5 * (arr + arr.conj().T))


def _unitary(rng, dim, field):
    g = rng.standard_normal((dim, dim))
    if field == "complex":
        g = g + 1j * rng.standard_normal((dim, dim))
    return np.linalg.qr(g)[0]


def dual_member(q: int, k: int) -> int:
    """The ascending member that descending member q is on the reversed
    inverses."""
    return k - k // 2 - q


def dual_weights(weights, k: int):
    """Fixed weights permuted as the members are: w_(n+q) <-> w_m.  For
    even k ascending member n has no dual, and keeps its weight."""
    n, dual = k // 2, list(weights)
    for q in range(1, (k - 1) // 2 + 1):
        m = dual_member(q, k)
        dual[m - 1], dual[n + q - 1] = weights[n + q - 1], weights[m - 1]
    return tuple(dual)


class TestUnitaryInvariance:
    @settings(max_examples=25, deadline=None)
    @given(case=_cases())
    def test_a_change_of_basis_keeps_verdicts_and_scaled_margins(self, case):
        k, dim, field, family, fixed, seed = case
        tup, template, weights, rng = _case(*case)
        u = _unitary(rng, dim, field)
        a = _table(tup.matrices, template, weights)
        b = _table([_hermitian(u @ m.entries @ u.conj().T) for m in tup.matrices],
                   template, weights)
        (ma, sa, va), (mb, sb, vb) = [[t.columns[c] for c in ("margin", "scale", "verdict")]
                                      for t in (a, b)]
        clear = _clear(ma, sa, va) & _clear(mb, sb, vb)
        np.testing.assert_array_equal(a.holds()[clear], b.holds()[clear])
        both = (va != verify.ERROR_CODE) & (vb != verify.ERROR_CODE)
        assert np.all(np.abs(ma / sa - mb / sb)[both] <= UNITARY_BOUND)


class TestInversionDuality:
    def test_the_dual_member_has_the_reversed_slots(self):
        # slot operator x of descending member q is slot operator k + 1 - x
        # of its dual, the outer A_1 included, and the directions swap
        for k in range(3, 9):
            n = k // 2
            for q in range(1, (k - 1) // 2 + 1):
                m = dual_member(q, k)
                assert 1 <= m <= n
                desc = chains.member_slots(Family.DESCENDING, q, k)
                assert tuple(k + 1 - x for x in desc) == \
                    chains.member_slots(Family.ASCENDING, m, k)
                assert chains.weight_index(Family.DESCENDING, q, n) == n + q
                assert chains.weight_index(Family.ASCENDING, m, n) == m

    def test_dual_weights_are_a_permutation_that_undoes_itself(self):
        for k in range(3, 9):
            weights = tuple(float(i) for i in range(1, k))
            assert sorted(dual_weights(weights, k)) == sorted(weights)
            assert dual_weights(dual_weights(weights, k), k) == weights

    @settings(max_examples=25, deadline=None)
    @given(case=_cases())
    def test_descending_members_agree_with_their_duals(self, case):
        k, dim, field, family, fixed, seed = case
        tup, template, weights, _ = _case(*case)
        a = _table(tup.matrices, template, weights)
        inverses = [_hermitian(np.linalg.inv(m.entries)) for m in reversed(tup.matrices)]
        b = _table(inverses, template, None if weights is None else dual_weights(weights, k))
        # a campaign's rows run member by member, ascending members first
        members = chains.hypothesis_set(k)
        rows = len(a) // len(members)
        for code, chain in enumerate(members):
            if chain.family is Family.DESCENDING:
                ours = slice(code * rows, (code + 1) * rows)
                m = dual_member(chain.member, k)
                theirs = slice((m - 1) * rows, m * rows)
                clear = _clear(*(a.columns[c][ours] for c in ("margin", "scale", "verdict"))) \
                    & _clear(*(b.columns[c][theirs] for c in ("margin", "scale", "verdict")))
                np.testing.assert_array_equal(a.holds()[ours][clear], b.holds()[theirs][clear])
