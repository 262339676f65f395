"""The benchmark's tracer still finds every name it wraps.

`perfbench/tracing.py` binds functions and methods of the package by name
(`MBasis.ensure_precision`, `MBasis._grow`, `theta.verify_hecke_on_theta`,
...) and reads attributes such as `MBasis.precision`, `MBasis.level` and
`hecke_matrix.cache_info`.  A name it cannot find is reported as absent,
and a traced benchmark run with an absent metric is not accepted.  These
tests run `perfbench/child.py trace` on commands that reach those names
and require a clean exit with nothing absent.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MARKER = "PERFBENCH "


@pytest.mark.parametrize("argv", [
    # the batched T_p table: ensure_precision once, for p_max, and the
    # delta powers at the working precision
    ["tp-table", "--p-max", "50", "--degree", "2", "--format", "csv"],
    # the tp checks: tp_expansion for single primes, the batch for the rest
    ["verify", "--suite", "tp"],
    # Hecke matrices for p >= 7 through _hecke_bits and the matrix cache
    ["verify", "--suite", "algebra"],
    # theta_series, verify_hecke_on_theta and verify_composition_group
    ["verify", "--suite", "theta"],
    # the last four checks, so that all 21 run traced through the harness
    ["verify", "--suite", "mbasis"],
    # the commands of the mbasis-deep workload, at level 1024; FILE is a
    # file of odd exponents
    ["m-table", "--degree", "24", "--format", "csv"],
    ["code-of", "1507"],
    ["decompose", "FILE", "--format", "csv"],
    # the command of the theta-deep workload
    ["theta-table", "--c", "4", "--n-max", "7", "--precision", "5461",
     "--format", "csv"],
])
def test_traced_command_has_no_absent_target(argv, tmp_path):
    exponents = tmp_path / "exponents.txt"
    exponents.write_text("1025,1331,2047,1507,1331")
    argv = [str(exponents) if arg == "FILE" else arg for arg in argv]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "trace", *argv],
        capture_output=True, text=True, timeout=300, env=env, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    report = next(line for line in reversed(proc.stderr.splitlines())
                  if line.startswith(MARKER))
    trace = json.loads(report[len(MARKER):])["trace"]
    assert trace["absent"] == []
