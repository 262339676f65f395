"""Reference loop that runs beside the timed commands on their CPU.

Usage: python3 perfbench/reference.py FD

The host's speed drifts: a vCPU alternates for seconds at a time between a
fast state and one up to twice as slow, as other tenants come and go.  This
loop runs at low priority on the same CPU as the command, so the scheduler
interleaves it with the command in slices of milliseconds and it sees the
same host speed.  After each chunk it writes (chunks done, its CPU seconds)
as two doubles at offset 0 of FD; the benchmark reads the pair before and
after a command and scales the command's CPU time by the chunk's CPU time.
"""

from __future__ import annotations

import os
import struct
import sys
import time

# chunk size: about 1 ms of big-int shift/XOR, the arithmetic heckemod2 does
CHUNK = 2000
OPERAND = (1 << 5000) // 7


def chunk() -> int:
    acc = 0
    for i in range(CHUNK):
        acc ^= OPERAND << (i & 63)
    return acc


def main() -> int:
    fd = int(sys.argv[1])
    os.nice(10)  # about a tenth of the CPU while a command runs
    done = 0
    while True:
        chunk()
        done += 1
        os.pwrite(fd, struct.pack("dd", done, time.process_time()), 0)


if __name__ == "__main__":
    sys.exit(main())
