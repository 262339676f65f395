"""Run one heckemod2 CLI command in this fresh interpreter and report when
its set-up ended and its work ended.

Usage: python3 perfbench/child.py MODE ARG...

MODE is ``run``, ``trace`` or ``setup``; ARG... are the CLI arguments.
The command's stdout, stdin and exit code are the CLI's own.  The last
stderr line is ``PERFBENCH {json}`` with CLOCK_MONOTONIC times (comparable
across processes on Linux) and this process's CPU seconds at two points:
``ready`` when the CLI's argument parser returned, so interpreter start,
``import heckemod2`` and the parser build lie before it, and ``end`` when
``main`` returned.  ``hwm_kb`` is the process's peak resident set
(``VmHWM``), which starts afresh at exec, unlike ``ru_maxrss``, which
carries the parent's peak into the child.  ``trace`` also reports the
tracer's per-layer summary; ``setup`` stops when the parser returns, so
it measures set-up alone.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

MARKER = "PERFBENCH "
MODES = ("run", "trace", "setup")


class SetupDone(Exception):
    """Raised by the parser in setup mode, once set-up has ended."""


def peak_rss_kb() -> int:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


def main() -> int:
    mode, argv = sys.argv[1], sys.argv[2:]
    if mode not in MODES:
        print(f"error: MODE must be one of {MODES}", file=sys.stderr)
        return 2
    ready: list[tuple[float, float]] = []
    parse_args = argparse.ArgumentParser.parse_args

    def timed_parse_args(self, *args, **kwargs):
        namespace = parse_args(self, *args, **kwargs)
        ready.append((time.monotonic(), time.process_time()))
        if mode == "setup":
            raise SetupDone
        return namespace

    argparse.ArgumentParser.parse_args = timed_parse_args
    from heckemod2 import cli

    tracer = None
    if mode == "trace":
        import tracing
        tracer = tracing.install()
    try:
        rc = cli.main(argv)
    except SetupDone:
        rc = 0
    end = (time.monotonic(), time.process_time())
    report = {"ready": ready[-1] if ready else None, "end": end, "rc": rc,
              "hwm_kb": peak_rss_kb()}
    if tracer is not None:
        report["trace"] = tracer.summary()
    sys.stdout.flush()
    print(MARKER + json.dumps(report), file=sys.stderr)
    return rc


if __name__ == "__main__":
    sys.exit(main())
