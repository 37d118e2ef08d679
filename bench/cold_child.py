"""Cold-CLI probe: one affmon command in a fresh process, split into import
and run.  Behaves like ``python -m affmon ARGS`` (same stdout, stderr and exit
status) and appends one line "<import seconds> <main seconds>" to stderr.
"""

import sys
import time

t0 = time.perf_counter()
import affmon.cli  # noqa: E402

t1 = time.perf_counter()
rc = affmon.cli.main(sys.argv[1:])
t2 = time.perf_counter()
sys.stdout.flush()
print(f"{t1 - t0} {t2 - t1}", file=sys.stderr)
sys.exit(rc)
