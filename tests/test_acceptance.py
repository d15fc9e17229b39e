"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated later.
"""
import json
import math
import time

import numpy as np
import pytest

from oporder import chains, dsl
from oporder.cli import EXIT_OK, main
from oporder.spectral import TOL_REL, HermitianMatrix, diagonal, margins_hold
from oporder.verify import (
    GridPlan,
    Instance,
    ParamTemplate,
    PGrid,
    SearchConfig,
    WeightPolicy,
    check_hypotheses,
    check_reduction_chain,
    gen_suite_tuple,
    limit_probe,
    probe_contraction_criterion,
    probe_loewner_heinz,
    scalar_bounds,
    scalar_tuple,
    search_counterexample,
)
from util import GOLDEN_DIR, ordered_pair_arrays, random_word, scalar_word_value


def _report(criterion: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"{status}: {criterion}{suffix}")
    assert ok, f"{criterion}{suffix}"


class TestCriterion1MonotonePowers:
    def test_loewner_heinz_suite(self):
        start = time.perf_counter()
        alphas = (0.0, 0.25, 0.5, 0.75, 1.0)
        worst = float("inf")
        for i in range(500):
            dim = 2 + i % 5
            p_arr, q_arr = ordered_pair_arrays(np.random.default_rng((1234, i)), dim)
            rep = probe_loewner_heinz(HermitianMatrix(p_arr), HermitianMatrix(q_arr),
                                      alphas=alphas)
            assert rep.precondition_ok
            for row in rep.table.rows:
                assert row.error is None
                assert row.margin >= -1e-8 * row.scale
                worst = min(worst, row.margin / row.scale)
        witness_p = HermitianMatrix(np.array([[2.0, 1.0], [1.0, 1.0]]))
        witness_q = HermitianMatrix(np.ones((2, 2)))
        witness = probe_loewner_heinz(witness_p, witness_q, alphas=(2.0,))
        elapsed = time.perf_counter() - start
        ok = (witness.table.rows[0].verdict == "INCOMPARABLE") and elapsed < 10.0
        _report(
            "criterion 1: unit-interval power monotonicity on 500 pairs",
            ok, f"worst scaled margin {worst:.2e}, witness fails at 2, {elapsed:.1f}s",
        )


class TestCriterion2ChainExponentOracle:
    def test_matches_hand_expansion(self):
        def oracle_n1(t, p):
            return (p[0] - t[0]) * p[1] + t[0]

        def oracle_n2(t, p):
            return (((p[0] - t[0]) * p[1] + t[0]) * p[2] - t[1]) * p[3] + t[1]

        def oracle_n3(t, p):
            inner = (((p[0] - t[0]) * p[1] + t[0]) * p[2] - t[1]) * p[3] + t[1]
            return (inner * p[4] - t[2]) * p[5] + t[2]

        oracles = {1: oracle_n1, 2: oracle_n2, 3: oracle_n3}
        rng = np.random.default_rng(777)
        checked = 0
        for _ in range(100):
            n = int(rng.integers(1, 4))
            t = tuple(rng.uniform(0.0, 1.0, n))
            p = tuple(rng.uniform(1.0, 8.0, 2 * n))
            got = chains.chain_exponent(t, p)
            want = oracles[n](t, p)
            assert got == pytest.approx(want, rel=1e-12)
            checked += 1
        exact_one = all(
            chains.chain_exponent(t, (1.0,) * (2 * len(t))) == 1.0
            for t in [(0.3,), (1e-9, 0.77), (0.1, 0.5, 0.999)]
        )
        _report(
            "criterion 2: chain exponent matches hand expansion",
            checked == 100 and exact_one,
            f"{checked} samples at 1e-12 relative, all-ones exactly 1",
        )


class TestCriterion3GoldenChains:
    @staticmethod
    def _normalized(text):
        return [
            " ".join(line.split())
            for line in text.splitlines()
            if line.split("#", 1)[0].strip()
        ]

    def test_printed_chains_match_golden(self, capsys):
        mismatches = []
        for k, name in ((5, "chains_k5.txt"), (4, "chains_k4.txt")):
            assert main(["print-chain", "--k", str(k), "--all"]) == EXIT_OK
            printed = self._normalized(capsys.readouterr().out)
            golden = self._normalized((GOLDEN_DIR / name).read_text())
            if printed != golden:
                mismatches.append(name)
        _report(
            "criterion 3: golden chain transcriptions reproduced",
            not mismatches, "k=5 members 1-4 and k=4 members 1-3 character-exact",
        )


class TestCriterion4NecessitySuite:
    def test_ordered_tuples_pass_all_hypotheses(self):
        start = time.perf_counter()
        grid = PGrid(values=(1.0, 1.5, 2.0, 4.0))
        policy = WeightPolicy.necessity()
        worst = float("inf")
        rows_total = 0
        for i in range(100):
            k = (3, 4, 5)[i % 3]
            dim = (2, 3, 4)[(i // 3) % 3]
            tup = gen_suite_tuple(k, dim, seed=[9000, i])
            rng = np.random.default_rng([9000, i, 99])
            t = tuple(rng.uniform(0.05, 0.95, k // 2))
            template = ParamTemplate(t=t, r=t[-1] + rng.uniform(0.1, 2.0))
            rep = check_hypotheses([Instance(tup, template, policy, i)], grid, master_seed=9000)
            rows_total += len(rep.rows)
            for row in rep.rows:
                assert row.error is None, f"instance {i}: {row.error}"
                assert row.margin >= -1e-7 * row.scale, (
                    f"instance {i} {row.family} member {row.member} "
                    f"p={row.p_vector}: margin {row.margin:.3e}"
                )
                worst = min(worst, row.margin / row.scale)
        elapsed = time.perf_counter() - start
        _report(
            "criterion 4: necessity-weight suite on 100 ordered tuples",
            elapsed < 60.0,
            f"{rows_total} rows, worst scaled margin {worst:.2e}, {elapsed:.1f}s",
        )


class TestCriterion5ContrapositiveFixture:
    def test_scalar_fixture_margin(self):
        rep = check_hypotheses(
            [Instance(scalar_tuple([2.0, 1.0, 3.0]), ParamTemplate(t=(0.5,), r=1.0),
                      WeightPolicy.fixed([0.5, 0.5]))],
            PGrid(values=(1.0,)),
        )
        i, asc = next((i, r) for i, r in enumerate(rep.rows) if r.family == "ascending")
        expected = math.sqrt(3.0) - math.sqrt(6.0)
        ok = (
            asc.point == (1.0, 1.0)
            and abs(asc.margin - expected) <= 1e-6
            and not margins_hold(rep.table.columns["margin"], rep.table.columns["scale"],
                                 TOL_REL)[i]
        )
        _report(
            "criterion 5: scalar contrapositive fixture violates as computed",
            ok, f"margin {asc.margin:.6f} vs {expected:.6f}",
        )


class TestCriterion6ReductionChain:
    def test_reduction_and_limit(self):
        start = time.perf_counter()
        grid = PGrid(values=(1.0, 1.5, 4.0))
        passing = 0
        worst = float("inf")
        limit_ok = True
        for i in range(50):
            dim = (2, 3)[i % 2]
            tup = gen_suite_tuple(5, dim, seed=[5100, i])
            rng = np.random.default_rng([5100, i, 99])
            t = (rng.uniform(0.75, 0.95), rng.uniform(0.05, 0.15))
            template = ParamTemplate(t=t, r=t[-1] + rng.uniform(0.3, 1.2))
            rep = check_reduction_chain(Instance(tup, template, WeightPolicy.necessity(), i),
                                        grid, master_seed=5100)
            assert rep.premise_pass, f"instance {i} premise failed"
            assert not rep.red_flags, rep.red_flags
            passing += 1
            assert rep.table.errors is None, \
                f"instance {i}: {[row.error for row in rep.table.rows if row.error]}"
            # the reduction's rows, after the premise's
            size = len(rep.c_total)
            passes = margins_hold(rep.table.columns["margin"], rep.table.columns["scale"], 1e-7)
            for row, holds in zip(rep.table.rows[size:], passes[size:].tolist()):
                assert holds, \
                    f"instance {i} p={row.point}: {row.check.name} margin {row.margin:.3e}"
                worst = min(worst, row.margin / row.scale)
            limit_t = (1.0, template.t[1])
            interior, = scalar_bounds(tup, limit_t, GridPlan(((1.0,) * 4,)))
            probe = limit_probe(tup.matrices[0], tup.matrices[1],
                                c=max(1.0, interior))
            limit_ok &= probe.monotone_nonincreasing
            limit_ok &= probe.final_gap <= 1e-3
            limit_ok &= probe.order_consistent and probe.bound_consistent
        fixed = limit_probe(diagonal([1.0, 1.0]), diagonal([1.0, 1.0]), c=4.0)
        strictly_decreasing = all(
            b < a for a, b in zip(fixed.sequence, fixed.sequence[1:])
        )
        limit_ok &= strictly_decreasing and fixed.final_gap <= 1e-3
        elapsed = time.perf_counter() - start
        _report(
            "criterion 6: reduction sub-checks and limit sequences on 50 instances",
            passing == 50 and limit_ok,
            f"worst scaled margin {worst:.2e}, limit gap <= 1e-3, {elapsed:.1f}s",
        )


class TestCriterion7ContractionProbe:
    def test_expander_and_contraction_fixtures(self):
        s_grid = (1.5, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
        ident = diagonal([1.0, 1.0])
        doubling = probe_contraction_criterion(
            ident, diagonal([2.0, 2.0]), r=1.0, delta=0.0, w=0.5, s_values=s_grid
        )
        halving = probe_contraction_criterion(
            ident, diagonal([0.5, 0.5]), r=1.0, delta=0.0, w=1.0, s_values=s_grid
        )
        ok = (
            doubling.failure_s is not None and doubling.failure_s <= 4.0
            and halving.hypothesis_holds
            and halving.conclusion.le
            and halving.implication_status == "confirmed"
        )
        _report(
            "criterion 7: contraction-criterion probe fixtures",
            ok,
            f"doubling fails at s={doubling.failure_s}, halving confirmed to s=64",
        )


class TestCriterion8Dsl:
    def test_round_trip_and_diagonal_agreement(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            word = random_word(rng)
            assert dsl.parse(dsl.pretty_print(word)) == word

        scalars = {
            "r": 1.7, "t1": 0.3, "t2": 0.8, "t3": 0.5,
            "p1": 2.0, "p2": 1.5, "p3": 3.0, "p4": 1.25,
            "w1": 0.4, "w2": 0.9,
        }
        agreements = 0
        rng = np.random.default_rng(4048)
        while agreements < 100:
            word = random_word(rng)
            indices = {s.index for s in _walk_symbols(word)}
            diags = {i: tuple(rng.uniform(0.3, 2.0, 3)) for i in indices}
            env = dsl.Environment(
                scalars=scalars,
                matrices={i: diagonal(v) for i, v in diags.items()},
            )
            try:
                got = np.diag(dsl.evaluate(word, env).entries)
            except Exception:
                continue  # pd-gated words do not count toward the sample
            want = np.asarray(scalar_word_value(word, scalars, diags))
            scale = max(1.0, np.abs(want).max())
            assert np.abs(got - want).max() <= 1e-10 * scale
            agreements += 1
        _report(
            "criterion 8: DSL round trip and diagonal-environment agreement",
            True, "1000 ASTs round-tripped, 100 diagonal evaluations at 1e-10",
        )


class TestCriterion9Search:
    def test_default_budget_emits_nothing_and_reproduces(self):
        start = time.perf_counter()
        config = SearchConfig(budget=200, k=3, dims=(2, 3, 4), master_seed=0)
        first = search_counterexample(config)
        second = search_counterexample(config)
        elapsed = time.perf_counter() - start
        identical = (
            json.dumps(first.to_json(), sort_keys=True)
            == json.dumps(second.to_json(), sort_keys=True)
        )
        counters = first.stats["counters"]
        ok = not first.findings and identical and counters["instances"] == 200
        _report(
            "criterion 9: counterexample search emits nothing and reproduces",
            ok, f"counters {counters}, {elapsed:.1f}s for two runs",
        )


def _walk_symbols(word):
    if isinstance(word, chains.Symbol):
        yield word
    elif isinstance(word, chains.Product):
        for f in word.factors:
            yield from _walk_symbols(f)
    elif isinstance(word, chains.Power):
        yield from _walk_symbols(word.base)
