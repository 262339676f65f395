"""Tests of the benchmark itself: tracer arithmetic, failure accounting,
the oracles against real CLI output, and BENCHMARK.json consistency.

Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
import unittest
from pathlib import Path

import oracles
import run
import tracing
from run import Command

FAR = 10 ** 9  # a deadline no test command reaches

# small instances of every command kind the workloads use
SAMPLES = [
    Command(("m-table", "--degree", "8", "--format", "csv")),
    Command(("code-of", "19")),
    Command(("code-of", "1813")),
    Command(("decompose", "-", "--format", "csv"), "11,19,19,33,7"),
    Command(("tp-table", "--degree", "2", "--p-max", "600", "--format", "csv")),
    Command(("theta-table", "--c", "4", "--n-max", "4", "--precision", "85",
             "--format", "csv")),
    Command(("theta-table", "--c", "2", "--n-max", "4", "--precision", "85",
             "--format", "csv")),
    Command(("verify", "--suite", "all")),
]


def tamper(cmd: Command, stdout: str) -> str:
    """The same output with one value changed."""
    lines = stdout.splitlines()
    kind = cmd.argv[0]
    if kind in ("m-table", "theta-table"):
        row = 3  # m(2,0) = delta^9 resp. theta(1,2)
        head, _, exps = lines[row].rpartition(",")
        lines[row] = f"{head},{int(exps.split()[0]) + 2}"
    elif kind == "decompose":
        exps = lines[0].split(",")[1].split()
        exps[0] = str(int(exps[0]) + 2)  # one exponent flipped
        lines[0] = "delta," + " ".join(exps)
    elif kind == "code-of":
        a, b = lines[0].split(",")
        lines[0] = f"{b},{a}" if a != b else f"{a},{int(b) + 1}"
    elif kind == "tp-table":
        lines[5] = lines[5].rsplit(",", 1)[0]  # T_17 loses its y^2 term
    else:
        lines[0] = lines[0].replace("PASS", "FAIL", 1)
    return "\n".join(lines) + "\n"


def setUpModule():
    global REFERENCE
    REFERENCE = run.Reference()


def tearDownModule():
    REFERENCE.close()


class SeedOutputs(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.outcomes = [run.run_command(cmd, "run", FAR, REFERENCE)
                        for cmd in SAMPLES]

    def test_oracles_accept_seed_outputs(self):
        for out in self.outcomes:
            with self.subTest(cmd=out.command.key):
                self.assertEqual(run.evaluate(out, None), [])
                self.assertGreater(out.setup_s, 0)
                self.assertGreater(out.solve_s, 0)

    def test_tampered_output_counts_as_failed(self):
        for good in self.outcomes:
            with self.subTest(cmd=good.command.key):
                bad = run.Outcome(good.command, rc=0, stdout=tamper(
                    good.command, good.stdout), setup_s=good.setup_s,
                    solve_s=good.solve_s)
                self.assertNotEqual(bad.stdout, good.stdout)
                good.problems = run.evaluate(good, None)
                bad.problems = run.evaluate(bad, None)
                line = run.result([good, bad], {}, run.UNITS, [])
                self.assertEqual((line["attempted"], line["failed"]), (2, 1))
                self.assertFalse(line["correct"])

    def test_verify_digest_ignores_timings(self):
        verify = next(o for o in self.outcomes if o.command.argv[0] == "verify")
        slower = run.Outcome(verify.command, stdout=re.sub(
            r"\(\d+\.\ds\)$", "(99.9s)", verify.stdout, flags=re.M))
        self.assertNotEqual(slower.stdout, verify.stdout)
        self.assertEqual(run.digest(slower), run.digest(verify))


class Oracles(unittest.TestCase):
    def test_nicolas_serre_code(self):
        self.assertEqual(oracles.code_of(19), (1, 2))
        self.assertEqual(oracles.code_of(1), (0, 0))
        for k in range(1, 4097, 2):
            self.assertEqual(oracles.exponent_of_code(*oracles.code_of(k)), k)

    def test_frobenian_prediction(self):
        self.assertEqual(oracles.tp_low_degree(7), {(1, 1)})
        self.assertEqual(oracles.tp_low_degree(11), {(1, 0)})
        self.assertEqual(oracles.tp_low_degree(17), {(2, 0), (0, 2)})


class SetupOnly(unittest.TestCase):
    def test_setup_only_run(self):
        out = run.run_command(Command(("code-of", "19")), "setup", FAR,
                              REFERENCE)
        self.assertEqual((out.rc, out.stdout, out.problems), (0, "", []))
        self.assertGreater(out.setup_s, 0)
        self.assertGreater(out.rss_mb, 0)


class Tracer(unittest.TestCase):
    def test_self_time_of_nested_calls(self):
        # outer runs 0..10 and calls inner over 1..3 and 4..7
        ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
        clock, time.process_time = time.process_time, lambda: next(ticks)
        try:  # wrap() binds the clock it finds
            tracer = tracing.Tracer()
            inner = tracer.wrap("inner", lambda: None)
            outer = tracer.wrap("outer", lambda: (inner(), inner()))
        finally:
            time.process_time = clock
        outer()
        spans = tracer.summary()["spans"]
        self.assertEqual(spans["outer"], [1, 5.0, 10.0])
        self.assertEqual(spans["inner"], [2, 5.0, 5.0])

    def test_traced_command_reaches_imported_bindings(self):
        out = run.run_command(Command(("code-of", "19")), "trace", FAR,
                              REFERENCE)
        self.assertEqual(run.evaluate(out, None), [])
        merged = tracing.merge([out.trace])
        values, absent = tracing.layer_metrics(merged)
        self.assertEqual(absent, set())
        # _hecke_bits is called through the name spaces imported
        self.assertGreater(values["series.hecke_bits.calls"], 0)
        self.assertGreater(values["spaces.hecke_matrix.misses"], 0)
        self.assertGreater(values["mbasis.code_of.self_s"], 0)
        self.assertGreater(values["cli.code-of.s"], 0)

    def test_missing_target_is_absent(self):
        code = ("import heckemod2.cli, heckemod2.series as s, tracing\n"
                "del s._hecke_bits\n"
                "print(sorted(tracing.install().absent))\n")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(run.SRC), str(run.HERE)]))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        self.assertEqual(proc.stdout.strip(), "['series.hecke_bits']")
        _, absent = tracing.layer_metrics(
            {"spans": {}, "counters": {}, "absent": ["series.hecke_bits"]})
        self.assertEqual(absent, {"series.hecke_bits.calls",
                                  "series.hecke_bits.self_s",
                                  "series.hecke_bits.coeffs"})
        # a check whose result has no .name keeps running, unnamed
        tracer = tracing.Tracer()
        check = tracer.wrap("checks.?", lambda: "no name",
                            rename=lambda r: f"checks.{r.name}")
        self.assertEqual(check(), "no name")
        summary = tracer.summary()
        self.assertEqual(summary["absent"], ["checks.?"])
        _, absent = tracing.layer_metrics(summary)
        self.assertIn("checks.commutant.s", absent)


class BenchmarkFile(unittest.TestCase):
    def test_declared_metrics_match_the_output(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.UNITS)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         tracing.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))

    def test_digests_cover_the_default_seed(self):
        digests = json.loads(run.DIGESTS.read_text())
        for workload in run.WORKLOADS:
            for cmd in run.commands(workload, run.DEFAULT_SEED):
                self.assertIn(cmd.key, digests)

    def test_refuses_a_tree_without_sources(self):
        with tempfile.TemporaryDirectory(dir=run.ROOT) as bare:
            shutil.copy(run.ROOT / "BENCHMARK.json", bare)
            shutil.copytree(run.HERE, Path(bare) / run.HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "tp-wide",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
