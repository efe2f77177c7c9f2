"""Traced one-shot CLI call: times the import and main() of srsqueeze.cli.

    python3 perfbench/cli_probe.py OUT.json ARGV...

Behaves like `python3 -m srsqueeze.cli ARGV...` (same output, same exit
code) and writes to OUT.json the import time, the time in main(), the
number of modules loaded and the layer spans of the call.
"""

import json
import sys
import time

t0 = time.perf_counter()
import srsqueeze.cli as cli  # noqa: E402

t1 = time.perf_counter()
loaded = len(sys.modules)

import tracing  # noqa: E402

tracer = tracing.Tracer()
tracer.install()
before_main = len(sys.modules)
tracer.begin_op(0)
t2 = time.perf_counter()
try:
    rc = cli.main(sys.argv[2:])
finally:
    t3 = time.perf_counter()
    tracer.end_op()
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump({"import_s": t1 - t0, "main_s": t3 - t2,
                   "modules_loaded": loaded + len(sys.modules) - before_main,
                   "trace": tracer.summary()}, fh)
sys.exit(rc)
