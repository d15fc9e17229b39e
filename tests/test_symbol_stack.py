"""Every symbol of a run raised in one stacked power, from a compiled plan.

``dsl.evaluate_batch`` compiles each word tuple once per set of per-row
names and raises all of the run's symbol nodes in one ``power_stack`` call.
Here each symbol's value per row is rebuilt with one ``power_stack`` call
per row, at the row's scalar exponent on its environment's decomposition,
and compared bit for bit, error texts included; a run that leaves a name
unbound raises the first one in plan order.  The structural guards count
the stacked calls of a search-shaped run and of the generator screen.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oporder import chains, dsl, spectral, verify
from oporder.chains import ScalarExpr, Symbol
from oporder.dsl import Environment, UnboundNameError, evaluate_batch
from oporder.spectral import HermitianMatrix, power_stack
from util import error_rows, random_hermitian, random_scalar_expr

ROW_VALUES = (-0.5, 0.5, 1.0, 1.5, 2.0, 4.0, 8.0)
SCALARS = ("r", "t1", "t2", "t3", "p1", "p2", "p3", "p4", "w1", "w2")


def _reference(symbol: Symbol, env: Environment, scalars: dict, dtype):
    """(value, error) of one symbol for one row: one power_stack call at the
    row's scalar exponent.  The eigenvectors take ``dtype``: complex when
    any environment binds the symbol to a complex matrix, as a stack over
    the environments has it."""
    dec = env.matrix(symbol.index).decomposition()
    # power_stack leaves floating-point warnings to its caller, as a run does
    with np.errstate(all="ignore"):
        values, _, errors = power_stack(dec.eigenvalues[None], dec.eigenvectors[None].astype(dtype),
                                        symbol.exponent.evaluate(scalars), None)
    return values[0], None if errors is None else errors[0]


def _first_unbound(symbols, envs, names) -> UnboundNameError | None:
    """The error a run of the symbols raises when some binding is missing:
    symbol by symbol, its matrix in each environment, then its exponent's
    names in the order ``ScalarExpr.evaluate`` reads them."""
    for symbol in symbols:
        for env in envs:
            if symbol.index not in env.matrices:
                return UnboundNameError(f"matrix symbol A{symbol.index} is not bound")
        try:
            symbol.exponent.evaluate(dict.fromkeys(names, 1.0))
        except KeyError as exc:
            return UnboundNameError(f"scalar name {exc.args[0]!r} is not bound")
    return None


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 10**9), dim=st.integers(1, 4), envs=st.integers(1, 3),
       field=st.sampled_from(["real", "complex", "mixed"]))
def test_stacked_symbol_power_equals_one_power_per_symbol(seed, dim, envs, field):
    rng = np.random.default_rng(seed)

    def complex_field() -> bool:
        return field == "complex" or (field == "mixed" and rng.random() < 0.5)

    count = int(rng.integers(1, 8))
    per_row = [name for name in SCALARS if rng.random() < 0.4]
    # a name that no environment binds, and a matrix that one leaves
    # unbound, make the run raise
    bound = [name for name in SCALARS if name not in per_row and rng.random() < 0.9]
    environments = []
    for _ in range(envs):
        matrices = {i: random_hermitian(rng, dim, complex_field()) for i in (1, 2)}
        # trips the pd gate at fractional exponents, overflows at large ones
        matrices[3] = random_hermitian(rng, dim, complex_field(), (1e-13, 0.5, 1.5, 2.5))
        matrices[4] = random_hermitian(rng, dim, complex_field(), (1.0, 1e60, 1e90, 1e30))
        if rng.random() < 0.3:
            del matrices[int(rng.integers(1, 5))]  # an unbound symbol
        scalars = {name: float(rng.choice(ROW_VALUES)) for name in bound}
        environments.append(Environment(scalars, matrices))
    symbols = tuple(Symbol(int(rng.integers(1, 5)), random_scalar_expr(rng))
                    for _ in range(int(rng.integers(1, 7))))
    if not per_row and envs == 1:
        count = 1  # a run without columns has one row
    rows = {name: rng.choice(ROW_VALUES, count) for name in per_row}
    instance = rng.integers(0, envs, count) if envs > 1 else None
    # a run binds only the environments some row names, in their order
    used = environments if instance is None else \
        [environments[j] for j in sorted(set(instance.tolist()))]
    calls = []

    def counting(*args):
        calls.append(len(args[0]))
        return power_stack(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dsl, "power_stack", counting)
        unbound = _first_unbound(symbols, used, [*per_row, *bound])
        if unbound is not None:
            with pytest.raises(UnboundNameError) as raised:
                evaluate_batch(symbols, environments if envs > 1 else environments[0],
                               rows, instance)
            assert str(raised.value) == str(unbound) and calls == []
            return
        batches = evaluate_batch(symbols, environments if envs > 1 else environments[0],
                                 rows, instance)
    # no symbol is cached on a fresh environment; one call per field, where
    # a real index takes the real path unless an environment binds it to a
    # complex matrix
    assert len(calls) == (1 if field != "mixed" else len({b.values.dtype for b in batches}))
    for symbol, batch in zip(symbols, batches):
        errors = error_rows(batch.row_errors, count)
        # a run builds no row-error array until one of its rows fails
        assert (batch.row_errors is None) == (errors == [None] * count)
        dtype = np.result_type(*(e.matrices[symbol.index].entries for e in used), np.float64)
        for i in range(count):
            env = environments[0 if instance is None else int(instance[i])]
            scalars = {**env.scalars, **{name: float(col[i]) for name, col in rows.items()}}
            want, error = _reference(symbol, env, scalars, dtype)
            if error is not None:
                assert errors[i] == (type(error), str(error))
                assert np.array_equal(batch.values[i], np.eye(dim))
            else:
                assert errors[i] is None
                assert batch.values[i].dtype == want.dtype
                assert batch.values[i].tobytes() == want.tobytes()


def test_near_singular_matrix_fails_only_its_environment():
    rng = np.random.default_rng(3)
    healthy = Environment({}, {1: random_hermitian(rng, 2, False)})
    singular = Environment({}, {1: random_hermitian(rng, 2, False, (1e-13, 1.0))})
    word = Symbol(1, ScalarExpr.variable("p1"))
    batch = evaluate_batch(word, [healthy, singular], {"p1": np.array([0.5, 0.5, 2.0])},
                           instance=[0, 1, 1])
    errors = error_rows(batch.row_errors, 3)
    assert errors[0] is None and errors[2] is None
    assert errors[1][0] is spectral.NearSingularError
    assert errors[1][1].startswith("matrix is numerically singular")


def test_unbound_matrix_comes_before_an_unbound_exponent():
    # the order evaluate meets them in, under one environment or several:
    # a symbol's matrix in every environment, then its exponent, node by
    # node with children before parents
    rng = np.random.default_rng(4)
    with_a1 = Environment({}, {1: random_hermitian(rng, 2, False),
                               2: random_hermitian(rng, 2, False)})
    without = Environment({}, {2: random_hermitian(rng, 2, False)})
    word = Symbol(1, ScalarExpr.variable("s"))
    with pytest.raises(UnboundNameError, match="^scalar name 's' is not bound$"):
        evaluate_batch(word, with_a1)
    for env, instance in (([with_a1, without], [0, 1]), ([without, with_a1], [1, 0]),
                          (without, None)):
        with pytest.raises(UnboundNameError, match="^matrix symbol A1 is not bound$"):
            evaluate_batch(word, env, instance=instance)
    with pytest.raises(UnboundNameError, match="^matrix symbol A1 is not bound$"):
        dsl.evaluate(word, without)
    for text, error in (("A1^{p1} A3", "scalar name 'p1'"), ("A3 A1^{p1}", "matrix symbol A3"),
                        ("(A2 A3)^{p1}", "matrix symbol A3"),
                        ("(A2 A2)^{p1} A3", "scalar name 'p1'")):
        with pytest.raises(UnboundNameError, match=f"^{error} is not bound$"):
            evaluate_batch(dsl.parse_word(text), with_a1)


def test_distinct_word_tuples_never_share_a_plan():
    names = frozenset({"p1"})
    one = (Symbol(1, ScalarExpr.variable("p1")),)
    twin = (Symbol(1, ScalarExpr.variable("p1")),)  # equal in structure, not identity
    cache = dsl._PlanCache(8)
    plan = cache.get(one, names)
    assert cache.get(one, names) is plan
    assert cache.get(twin, names) is not plan
    assert cache.get(one, frozenset()) is not plan
    assert cache.get(one + twin, names) is not plan
    assert plan.words == one and plan.words[0] is one[0]


def test_plan_cache_stays_bounded():
    cache = dsl._PlanCache(3)
    words = [(Symbol(1, ScalarExpr.variable("p1")),) for _ in range(10)]
    plans = [cache.get(w, frozenset()) for w in words]
    assert len(cache.plans) == 3
    # the newest plans are kept, each still holding its own words
    assert [p.words for p in cache.plans.values()] == words[-3:]
    assert len({id(p) for p in plans}) == 10
    env = Environment({"p1": 0.5}, {1: HermitianMatrix(np.eye(2))})
    for _ in range(2 * dsl._PLANS.size):
        evaluate_batch(Symbol(1, ScalarExpr.variable("p1")), env)
    assert len(dsl._PLANS.plans) <= dsl._PLANS.size


def _search_shaped_call(k: int, instances: int):
    """The first evaluate_batch call of a search campaign: the slot words of
    member 1, one environment per instance, one row each."""
    n = k // 2
    lhs, rhs = chains.slot_words(k)
    chain = chains.hypothesis_set(k)[0]
    slots = chains.member_slots(chain.family, chain.member, k)
    envs = []
    for idx in range(instances):
        tup = verify.gen_unordered_tuple(k, 2, [0, idx, 10])
        template = verify.ParamTemplate(t=(0.5,) * n, r=1.5)
        envs.append(verify._environment(tup, template, slots=slots))
    columns = {f"p{j}": np.full(instances, 2.0) for j in range(1, 2 * n + 1)}
    columns["w"] = np.full(instances, 0.5)
    return (rhs, lhs), envs, columns, np.arange(instances)


def test_search_shaped_run_makes_one_power_per_power_node_plus_one():
    words, envs, columns, instance = _search_shaped_call(5, 3)
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dsl, "power_stack",
                      lambda *args: calls.append(len(args[0])) or power_stack(*args))
        evaluate_batch(words, envs, columns, instance)
    # the six symbols in one call, then ^p2, ^p3, ^p4 and ^w (parent: 10)
    assert len(calls) == 5


def test_generator_screen_is_one_decomposition_and_one_comparison(monkeypatch):
    k = 4
    specs = [(2, [5, idx]) for idx in range(4)] + [(3, [6, idx]) for idx in range(3)]
    screens, compared, draws = [], [], []
    decompose_stack, margins_stack = verify.decompose_stack, spectral.margins_stack
    random_spds = verify._random_spds

    def refuse(*args):
        raise AssertionError("per-matrix call in the generator screen")

    monkeypatch.setattr(verify, "decompose_stack",
                        lambda arrs, *a: screens.append(arrs.shape) or decompose_stack(arrs, *a))
    monkeypatch.setattr(spectral, "margins_stack",
                        lambda p, q, e: compared.append(len(p)) or margins_stack(p, q, e))
    monkeypatch.setattr(verify, "_random_spds",
                        lambda rng, dim, *a: draws.append(dim) or random_spds(rng, dim, *a))
    for module in (verify, spectral):
        monkeypatch.setattr(module, "operator_norm", refuse)
        monkeypatch.setattr(module, "require_strictly_positive", refuse)
    tuples = verify.gen_unordered_tuples(k, specs)
    monkeypatch.undo()
    assert len(tuples) == len(specs)
    # one decomposition and one comparison per (attempt, dim), covering the
    # draws of that screen: k matrices and k - 1 adjacent pairs per instance
    assert len(screens) == len(compared) >= 2
    assert sum(shape[0] for shape in screens) == k * len(draws)
    assert [c for c in compared] == [shape[0] // k * (k - 1) for shape in screens]
    assert {shape[1] for shape in screens} == {2, 3}
    for tup, (dim, seed) in zip(tuples, specs):
        alone = verify.gen_unordered_tuple(k, dim, seed)
        assert [m.entries.tobytes() for m in tup.matrices] == \
            [m.entries.tobytes() for m in alone.matrices]
        for m in tup.matrices:
            assert "_decomposition" in vars(m)


def test_generator_raises_the_gate_error_of_the_first_failingrandom_hermitian(monkeypatch):
    singular = np.stack([np.eye(2), np.diag([1e-13, 1.0]), np.diag([0.0, 2.0])])
    monkeypatch.setattr(verify, "_random_spds", lambda *args, **kwargs: singular)
    with pytest.raises(spectral.NearSingularError) as raised:
        verify.gen_unordered_tuples(3, [(2, 0)])
    with pytest.raises(spectral.NearSingularError) as alone:
        spectral.require_strictly_positive(HermitianMatrix(singular[1]))
    assert str(raised.value) == str(alone.value)
