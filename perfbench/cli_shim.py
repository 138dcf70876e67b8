"""Run the bcft CLI for the benchmark's cli-cache workload.

Usage: python3 cli_shim.py OUT_FILE TRACE [bcft arguments...]

Calls bcft.cli.main with the arguments, as `python -m bcft.cli` would.
With TRACE = 1 it first installs the span wrappers of spans.py and runs
main under a "cli.main" span.  On exit it writes to OUT_FILE the wall
and CPU time of main and any spans.  The exit code is the CLI's.

The reference kernel is timed in the parent, before and after this
process, not here: a timer signal that interrupted the write of a large
document to stdout was seen to cut the document short.
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer  # noqa: E402


def main() -> int:
    out, trace, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    import bcft.cli

    tracer = Tracer()
    cli_main = bcft.cli.main
    if trace:
        tracer.install()
        cli_main = tracer.wrap("cli.main", cli_main)
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        return cli_main(argv)
    finally:
        tracer.dump(out, main_wall=time.perf_counter() - w0,
                    main_cpu=time.process_time() - c0)


if __name__ == "__main__":
    sys.exit(main())
