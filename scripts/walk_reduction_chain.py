#!/usr/bin/env python3
"""Walk one instance through the order-derivation machinery and print every
intermediate quantity: the hypothesis member texts, the core-vs-identity
margins, the peeled and scalar bounds, and the closing limit sequence.

    python scripts/walk_reduction_chain.py --k 5 --dim 3 --seed 11
"""
import argparse
import sys

from oporder import chains, dsl
from oporder.verify import (
    CONTRACTIVE_RANGES,
    GridPlan,
    Instance,
    ParamTemplate,
    PGrid,
    WeightPolicy,
    _rng,
    check_conclusion,
    check_reduction_chain,
    gen_suite_tuple,
    limit_probe,
    scalar_bounds,
)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--k", type=int, default=5)
    ap.add_argument("--dim", type=int, default=3)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--p-grid", default="1,2,4")
    args = ap.parse_args()

    n = args.k // 2
    tup = gen_suite_tuple(args.k, args.dim, args.seed)
    template = ParamTemplate.draw(_rng(args.seed, 0, 99), n, ranges=CONTRACTIVE_RANGES)
    grid = PGrid(values=tuple(float(v) for v in args.p_grid.split(",")))

    print(f"tuple: k={args.k} dim={args.dim} margins={[f'{m:.3f}' for m in tup.margins]}")
    print(f"template: t={tuple(round(v, 3) for v in template.t)} r={template.r:.3f}")
    print("\nhypothesis members:")
    for chain in chains.hypothesis_set(args.k):
        print(f"  {dsl.pretty_print(chain)}")

    print("\nadjacent order:", [v.relation.value for v in check_conclusion(tup)])

    rep = check_reduction_chain(Instance(tup, template, WeightPolicy.necessity()), grid,
                                master_seed=args.seed)
    print(f"\npremise (first ascending member on the grid): "
          f"{'pass' if rep.premise_pass else 'FAIL'}")
    print("reduction margins per exponent sample (core, peeled, scalar):")
    # each exponent sample's core, peel and scalar rows, the checks after the premise
    table = rep.table
    margins = rep.by_check(table.columns["margin"])[1:].T.tolist()
    for p, (core, peel, scalar), c in zip(table.checks[0].points, margins, rep.c_total.tolist()):
        print(f"  p={tuple(p)}: {core:+.3e} {peel:+.3e} {scalar:+.3e} (c={c:.4f})")
    if rep.red_flags:
        print("RED FLAGS:")
        for flag in rep.red_flags:
            print(f"  {flag}")

    limit_t = (1.0,) + template.t[1:]
    interior, = scalar_bounds(tup, limit_t, GridPlan(((1.0,) * (2 * n),)))
    probe = limit_probe(tup.matrices[0], tup.matrices[1], c=max(1.0, interior))
    print(f"\nlimit sequence (c={probe.c:.6f}):")
    for p2, value in zip(probe.p2_values, probe.sequence):
        print(f"  p2={p2:>8g}: bound {value:.8f}")
    print(f"top core eigenvalue {probe.lambda_max_core:.8f}; "
          f"order consistent: {probe.order_consistent}")
    return 0 if rep.premise_pass and table.holds().all() and not rep.red_flags else 1


if __name__ == "__main__":
    sys.exit(main())
