"""Set-up probe, started by run.py in a fresh interpreter for each ``setup_s``
sample: imports oporder from the given source directory, makes one warm-up
CLI invocation with its output discarded, and prints the monotonic clock.

    python3 perfbench/probe.py <src-dir> '<argv as a JSON list>'
"""
import contextlib
import io
import json
import sys
import time


def main() -> int:
    src, argv = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, src)
    from oporder import cli

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        code = cli.main(argv)
    if code != 0:
        print(f"warm-up invocation exited {code}: {sink.getvalue()[-500:]}", file=sys.stderr)
        return 1
    print(repr(time.monotonic()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
