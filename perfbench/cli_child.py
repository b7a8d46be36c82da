"""Run the gfee CLI in this process and report on it.

Usage: python cli_child.py SPAWN_TIME REPORT_JSON TRACE gfee-arguments...

REPORT_JSON receives this process's peak RSS and, when TRACE is 1, the
spans recorded with the benchmark's wrappers installed. SPAWN_TIME is the
parent's ``time.perf_counter()`` just before it started this process; the
span from then until ``gfee.cli`` is imported is ``cli.startup``. The CLI's
exit code is passed on.
"""

import json
import sys
import time

from tracer import Tracer, install


def peak_rss_kb() -> int:
    """VmHWM of this process. getrusage() would also count the parent's
    peak, which the kernel carries into a child's counter at exec."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    spawned, out, traced, argv = float(sys.argv[1]), sys.argv[2], sys.argv[3] == "1", sys.argv[4:]
    import gfee.cli

    tracer = Tracer()
    uninstall = None
    if traced:
        tracer.record("cli.startup", spawned, time.perf_counter())
        uninstall = install(tracer)
    try:
        return gfee.cli.main(argv)
    finally:
        if uninstall:
            uninstall()
        with open(out, "w") as fh:
            json.dump({"peak_rss_kb": peak_rss_kb(), **tracer.to_dict()}, fh)


if __name__ == "__main__":
    sys.exit(main())
