"""Regenerate reference_seed0.csv, the frozen margins that the necessity
workload compares against at benchmark seed 0 (round 0), within
1e-12 * scale per row.

    python3 perfbench/make_reference.py

It runs round 0 of the necessity workload through ``oporder.cli.main`` and
records each row's margin together with its comparison scale, which the CSV
report does not carry.  Regenerate only when a change is meant to alter the
margins, and say so in CHANGES.md.
"""
from __future__ import annotations

import contextlib
import io
import shutil
import sys

from run import REFERENCE, SRC, WORK
from workloads import NECESSITY_GRID, REFERENCE_SEED, cli_seed, necessity_round, p_index

HEADER = (
    "# margins of the necessity workload, round 0 at benchmark seed 0; "
    "regenerate with python3 perfbench/make_reference.py\n"
    "k,dim,instance_id,family,member,p_index,margin,scale\n"
)


def main() -> int:
    sys.path.insert(0, str(SRC))
    from oporder import cli

    captured = []
    original = cli.check_hypotheses

    def capture(tup, *args, **kwargs):
        report = original(tup, *args, **kwargs)
        captured.extend((tup.k, tup.dim, row) for row in report.rows)
        return report

    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    cli.check_hypotheses = capture
    try:
        for inv in necessity_round(cli_seed(REFERENCE_SEED, 0), WORK, None):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(inv.argv)
            if code != 0:
                print(f"{inv.argv} exited {code}", file=sys.stderr)
                return 1
    finally:
        cli.check_hypotheses = original
        shutil.rmtree(WORK, ignore_errors=True)

    lines = [HEADER]
    for k, dim, row in captured:
        lines.append(f"{k},{dim},{row.instance_id},{row.family},{row.member},"
                     f"{p_index(row.p_vector, NECESSITY_GRID)},{row.margin!r},{row.scale!r}\n")
    REFERENCE.write_text("".join(lines))
    print(f"wrote {len(captured)} rows to {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
