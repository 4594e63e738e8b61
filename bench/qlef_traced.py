"""
The `qlef` entry point with span tracing, for traced runs of cli-cold.

    python3 bench/qlef_traced.py <qlef arguments>

Behaves like `qlef` and, on exit, writes its spans to the file named by
the BENCH_TRACE_FILE environment variable.
"""

import os
import sys
from pathlib import Path

from tracer import Tracer

if __name__ == "__main__":
    import qlefschetz.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = qlefschetz.cli.main()
    finally:
        tracer.uninstall()
        tracer.dump(Path(os.environ["BENCH_TRACE_FILE"]))
    sys.exit(code)
