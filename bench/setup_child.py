"""Set-up probe: import affmon and run the warm-up queries, in a fresh process.

Reads the warm-up queries (``workloads`` dicts) as JSON on stdin and prints
the seconds spent from just before ``import affmon`` to the end of the
warm-up.  Expected errors are part of the warm-up; other exceptions fail the
child.
"""

import json
import sys
import time


def main() -> int:
    queries = json.load(sys.stdin)
    t0 = time.perf_counter()
    import affmon.cli as cli
    from affmon.errors import AffmonError

    for q in queries:
        query = cli.Query(command=q["command"], monoid_text=q["monoid"], vector_text=q["vector"],
                          k_max=q["k_max"], mode=q["mode"], check_minimality=q["check_min"],
                          output=q["output"], approx=q["approx"])
        try:
            cli.render(cli.run(query), query.output)
        except AffmonError:
            pass
    print(time.perf_counter() - t0)
    return 0


if __name__ == "__main__":
    sys.exit(main())
