"""heckemod2 benchmark: time to a certified table, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a closed loop with one client: the CLI commands of one
iteration run one after another, each in a fresh interpreter started with
``PYTHONPATH=src``, as a shell would run them; the next iteration starts
only when the previous one ended, and only if it is expected to end within
``--seconds``.  Before the loop, SETUP_SAMPLES interpreters run only up
to the CLI's parser, for a steady set-up time.  Every command's stdout is checked by ``oracles.py`` (and,
for the default seed, against ``digests.json``).  Reported times are the
commands' CPU seconds scaled by the speed of ``reference.py``, which
shares their CPU, so that the host's drifting speed cancels out.

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` each iteration runs once untraced and once traced, and the
last line reports the per-layer metrics of ``tracing.py``.  The line before
it holds details: the host, per-command medians and the failure fraction.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import signal
import statistics
import struct
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import oracles
import tracing
from child import MARKER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 0
# a run must exit within 180 s; commands still running at this point of
# the run are killed and counted as failed
DEADLINE_S = 170
# CPU seconds of one reference.py chunk that the reported times are scaled
# to: about its median on an Intel Xeon vCPU with Python 3.11
NOMINAL_CHUNK_S = 0.001
# set-up-only interpreters per run; setup_s is their median
SETUP_SAMPLES = 15

WORKLOADS = ("mbasis-deep", "tp-wide", "theta-deep", "verify-all")


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    stdin: str = ""

    @property
    def key(self) -> str:
        return " ".join(self.argv) + (f" < {self.stdin}" if self.stdin else "")


def commands(workload: str, seed: int) -> list[Command]:
    """The commands of one iteration; inputs depend only on the seed."""
    rng = random.Random(seed)
    if workload == "mbasis-deep":
        # odd exponents above 1024 take every command to level 1024
        odd = range(1025, 2048, 2)
        k = rng.choice(odd)
        exps = rng.sample(odd, 7)
        exps.append(rng.choice(exps))  # a repeated exponent cancels
        return [Command(("m-table", "--degree", "24", "--format", "csv")),
                Command(("code-of", str(k))),
                Command(("decompose", "-", "--format", "csv"),
                        ",".join(map(str, exps)))]
    if workload == "tp-wide":
        # a narrow range keeps the work per seed within about 2%
        p_max = rng.randrange(20000, 20200)
        return [Command(("tp-table", "--degree", "2", "--p-max", str(p_max),
                         "--format", "csv"))]
    if workload == "theta-deep":
        # 5461 = 1 + 4(4^6 - 1)/3 is the certified precision at n = 7
        return [Command(("theta-table", "--c", "4", "--n-max", "7",
                         "--precision", "5461", "--format", "csv"))]
    return [Command(("verify", "--suite", "all"))]


class Reference:
    """The reference.py loop, on the CPU the benchmark is pinned to."""

    def __init__(self):
        self._file = tempfile.TemporaryFile(dir=ROOT)
        fd = self._file.fileno()
        os.pwrite(fd, struct.pack("dd", 0, 0.0), 0)
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "reference.py"), str(fd)],
            pass_fds=(fd,), cwd=ROOT)
        # its interpreter start must not count as reference work
        while self.read()[0] == 0:
            if self._proc.poll() is not None:
                raise RuntimeError("reference.py exited")
            time.sleep(0.01)

    def read(self) -> tuple[float, float]:
        """(chunks done, CPU seconds) of the loop so far."""
        return struct.unpack("dd", os.pread(self._file.fileno(), 16, 0))

    def close(self):
        self._proc.kill()
        self._proc.wait()
        self._file.close()


@dataclass
class Outcome:
    """One command's result as seen from outside its process.

    setup_s, solve_s and cpu_s are the command's CPU seconds scaled to a
    host on which a reference chunk takes NOMINAL_CHUNK_S; wall_s is the
    unscaled wall time from the parser's return to the end of main;
    rss_mb is the command's own peak resident set.
    """

    command: Command
    rc: int | None = None
    stdout: str = ""
    timed_out: bool = False
    setup_s: float | None = None
    solve_s: float | None = None
    cpu_s: float = 0.0
    wall_s: float | None = None
    rss_mb: float = 0.0
    trace: dict | None = None
    problems: list[str] = field(default_factory=list)


def run_command(cmd: Command, mode: str, deadline: float,
                reference: Reference) -> Outcome:
    """Run one CLI command in a fresh interpreter in child.py's `mode`
    and reap it with wait4, killing it at `deadline` (a time.monotonic
    value)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    out = Outcome(cmd)
    with tempfile.TemporaryFile(dir=ROOT) as stdin, \
            tempfile.TemporaryFile(dir=ROOT) as stdout, \
            tempfile.TemporaryFile(dir=ROOT) as stderr:
        stdin.write(cmd.stdin.encode())
        stdin.seek(0)
        chunks0, ref_cpu0 = reference.read()
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), mode, *cmd.argv],
            stdin=stdin, stdout=stdout, stderr=stderr, cwd=ROOT, env=env)
        fired = threading.Event()

        def kill():
            fired.set()
            os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(max(deadline - spawned, 0.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        chunks1, ref_cpu1 = reference.read()
        proc.returncode = out.rc = os.waitstatus_to_exitcode(status)
        out.timed_out = fired.is_set()
        stdout.seek(0)
        out.stdout = stdout.read().decode(errors="replace")
        stderr.seek(0)
        lines = stderr.read().decode(errors="replace").splitlines()
    if chunks1 <= chunks0:
        out.problems.append("the reference loop made no progress")
        return out
    scale = NOMINAL_CHUNK_S * (chunks1 - chunks0) / (ref_cpu1 - ref_cpu0)
    out.cpu_s = (usage.ru_utime + usage.ru_stime) * scale
    reports = [line[len(MARKER):] for line in lines if line.startswith(MARKER)]
    if reports:
        report = json.loads(reports[-1])
        out.rss_mb = report["hwm_kb"] / 1024
        if report["ready"] is not None:
            (ready_wall, ready_cpu), (end_wall, end_cpu) = report["ready"], report["end"]
            out.setup_s = ready_cpu * scale
            out.solve_s = (end_cpu - ready_cpu) * scale
            out.wall_s = end_wall - ready_wall
        if "trace" in report:
            out.trace = tracing.scaled(report["trace"], scale)
    else:
        out.problems.append("no timing report; stderr tail: "
                            + " | ".join(lines[-3:]))
    return out


def digest(out: Outcome) -> str:
    text = oracles.normalize(list(out.command.argv), out.stdout)
    return hashlib.sha256(text.encode()).hexdigest()


def evaluate(out: Outcome, digests: dict | None) -> list[str]:
    """All problems with one outcome; `digests` maps command keys to the
    sha256 of their normalized stdout, or is None when not compared."""
    argv = list(out.command.argv)
    problems = list(out.problems)
    if out.timed_out:
        problems.append("timed out")
    if out.rc != 0:
        problems.append(f"exit code {out.rc}")
    if out.setup_s is None:
        problems.append("no set-up time")
    problems += oracles.check(argv, out.command.stdin, out.stdout)
    if digests is not None:
        got = digest(out)
        want = digests.get(out.command.key)
        if got != want:
            problems.append(f"stdout digest {got[:12]} differs from the "
                            f"recorded {str(want)[:12]}")
    return problems


def run_iteration(cmds, mode, deadline, digests, reference) -> list[Outcome]:
    outcomes = []
    for cmd in cmds:
        out = run_command(cmd, mode, deadline, reference)
        out.problems = evaluate(out, digests)
        outcomes.append(out)
    return outcomes


def measure_setup(cmds, deadline, reference) -> list[Outcome]:
    """SETUP_SAMPLES set-up-only runs, cycling through the commands."""
    outcomes = []
    for i in range(SETUP_SAMPLES):
        out = run_command(cmds[i % len(cmds)], "setup", deadline, reference)
        if out.timed_out or out.rc != 0 or out.setup_s is None:
            out.problems.append(f"set-up failed with exit code {out.rc}")
        outcomes.append(out)
    return outcomes


def closed_loop(cmds, started, seconds, traced, digests, reference):
    """Run iterations until the next one would end `seconds` after
    `started` (a time.monotonic value).

    Returns (untraced iterations, traced iterations); with `traced` each
    round is one untraced and one traced iteration.
    """
    deadline = started + DEADLINE_S
    plain, with_trace = [], []
    while True:
        round_start = time.monotonic()
        plain.append(run_iteration(cmds, "run", deadline, digests, reference))
        if traced:
            with_trace.append(run_iteration(cmds, "trace", deadline, digests,
                                            reference))
        now = time.monotonic()
        if now + (now - round_start) > started + seconds or now > deadline:
            return plain, with_trace


def per_command(iterations, attr):
    """Median of `attr` per command, over the iterations that measured it."""
    by_key: dict[str, list[float]] = {}
    for outcomes in iterations:
        for out in outcomes:
            value = getattr(out, attr)
            if value is not None:
                by_key.setdefault(out.command.key, []).append(value)
    return {key: statistics.median(values) for key, values in by_key.items()}


def end_to_end(iterations, setup_runs=()) -> dict[str, float]:
    """solve_s and cpu_s: the per-command medians summed over the commands
    of an iteration, i.e. the time to one certified table of each kind.
    setup_s: the median over the set-up-only runs and all commands.
    peak_rss_mb: the largest."""
    outcomes = [out for outcomes in iterations for out in outcomes]
    outcomes += setup_runs
    setups = [out.setup_s for out in outcomes if out.setup_s is not None]
    return {
        "solve_s": sum(per_command(iterations, "solve_s").values()),
        "setup_s": statistics.median(setups) if setups else 0.0,
        "cpu_s": sum(per_command(iterations, "cpu_s").values()),
        "peak_rss_mb": max(out.rss_mb for out in outcomes),
    }


UNITS = {"solve_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


def per_layer(plain, traced) -> tuple[dict[str, float], list[str]]:
    """Median per-layer values over the traced iterations, the traced
    solve_s, and the tracing overhead against the untraced iterations."""
    samples: dict[str, list[float]] = {}
    absent: set[str] = set()
    for outcomes in traced:
        summaries = [out.trace for out in outcomes if out.trace is not None]
        values, gone = tracing.layer_metrics(tracing.merge(summaries))
        absent |= gone
        for name, value in values.items():
            samples.setdefault(name, []).append(value)
    metrics = {name: statistics.median(v) for name, v in samples.items()}
    metrics["trace.solve_s"] = end_to_end(traced)["solve_s"]
    metrics["trace.overhead_s"] = metrics["trace.solve_s"] - end_to_end(plain)["solve_s"]
    return metrics, sorted(absent)


def result(outcomes, values, units, absent) -> dict:
    """The benchmark's last output line.  A command counts as failed when
    it exited nonzero, timed out or failed a correctness check."""
    failed = sum(1 for out in outcomes if out.problems)
    metrics = {}
    for name, unit in units.items():
        metrics[name] = {"value": values.get(name, 0.0), "unit": unit}
        if name in absent:
            metrics[name]["absent"] = True
    return {"correct": failed == 0, "attempted": len(outcomes),
            "failed": failed, "metrics": metrics}


def host() -> dict:
    """Python version, processor count, CPU model and load average."""
    cpuinfo = Path("/proc/cpuinfo").read_text().splitlines()
    models = [line.split(":", 1)[1].strip() for line in cpuinfo
              if line.startswith("model name")]
    return {
        "python": sys.version.split()[0],
        "nproc": sum(line.startswith("processor") for line in cpuinfo),
        "cpu_model": models[0] if models else "unknown",
        "loadavg": [float(x) for x in Path("/proc/loadavg").read_text().split()[:3]],
    }


def warm_up():
    """Import the package once so bytecode caches exist before timing;
    a user's installed copy has them too."""
    subprocess.run([sys.executable, "-c", "import heckemod2.cli"], cwd=ROOT,
                   env=dict(os.environ, PYTHONPATH=str(SRC)), check=True,
                   stdout=subprocess.DEVNULL)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "heckemod2" / "cli.py").is_file():
        print(f"error: no heckemod2 sources under {SRC}", file=sys.stderr)
        return 2

    env = host()
    warm_up()
    cmds = commands(args.workload, args.seed)
    digests = None
    if args.seed == DEFAULT_SEED:
        digests = json.loads(DIGESTS.read_text())
    # the commands and the reference loop share one CPU, see reference.py
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    reference = Reference()
    try:
        started = time.monotonic()
        setup_runs = measure_setup(cmds, started + DEADLINE_S, reference)
        plain, traced = closed_loop(cmds, started, args.seconds,
                                    args.trace == 1, digests, reference)
    finally:
        reference.close()

    outcomes = setup_runs + [out for its in plain + traced for out in its]
    failed = [out for out in outcomes if out.problems]
    for out in failed:
        print(f"FAILED {out.command.key[:80]}: {'; '.join(out.problems)}",
              file=sys.stderr)

    if args.trace:
        values, absent = per_layer(plain, traced)
        units = tracing.PER_LAYER
    else:
        values, absent = end_to_end(plain, setup_runs), []
        units = UNITS
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "host": env, "iterations": len(plain), "traced_iterations": len(traced),
        "failed_frac": len(failed) / len(outcomes),
        "solve_s_per_command": per_command(plain, "solve_s"),
        "wall_s_per_command": per_command(plain, "wall_s"),
    }))
    print(json.dumps(result(outcomes, values, units, absent)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
