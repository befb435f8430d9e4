"""One traced CLI invocation in a fresh process.

Usage: python3 perfbench/shim.py <sphereopt arguments>

Times the import of ``sphereopt.cli``, installs the benchmark's span
wrappers, runs ``cli.main`` with the given arguments and, when the call
ends, writes one line ``perfbench-trace <json>`` to stderr holding the
import time, the spans, the absent wrap targets and the package's cache
counts.  Standard output is the CLI's own, byte for byte.
"""

import json
import sys
import time

import spans

t0 = time.perf_counter()
import sphereopt.cli as cli  # noqa: E402
import_s = time.perf_counter() - t0

tracer = spans.Tracer()
tracer.install()
tracer.instance = 0
try:
    code = tracer.call(spans.ROOT, cli.main, sys.argv[1:])
except SystemExit as exc:
    code = exc.code
sys.stdout.flush()
record = {"import_s": import_s, "spans": tracer.spans,
          "absent": tracer.absent,
          "caches": spans.cache_counts(spans.package_caches())}
sys.stderr.write("perfbench-trace " + json.dumps(record) + "\n")
sys.exit(code)
