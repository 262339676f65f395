"""Command-line interface: schemas, round trips, determinism, exit codes."""

import io
import subprocess
import sys

import pytest

from heckemod2 import checks, cli, mbasis, spaces, theta
from heckemod2.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_m_table_text(capsys):
    code, out, _ = run_cli(capsys, "m-table", "--degree", "1")
    assert code == 0
    assert out.splitlines() == ["(0,0): 1", "(1,0): 3", "(0,1): 5"]


def test_m_table_degree_zero_csv(capsys):
    code, out, _ = run_cli(capsys, "m-table", "--degree", "0", "--format", "csv")
    assert code == 0
    assert out == "0,0,1\n"


def test_m_table_row_1_2(capsys):
    code, out, _ = run_cli(capsys, "m-table", "--degree", "3", "--format", "csv")
    assert code == 0
    assert "1,2,11 19" in out.splitlines()


def test_tp_table_csv_rows(capsys):
    code, out, _ = run_cli(capsys, "tp-table", "--p-max", "13", "--degree", "6",
                           "--format", "csv")
    assert code == 0
    rows = {line.split(",", 1)[0]: line for line in out.splitlines()}
    assert rows["3"] == "3,1 0"
    assert rows["7"].startswith("7,1 1")
    assert rows["13"].startswith("13,0 1,2 1,0 3")


def test_theta_table_row(capsys):
    code, out, _ = run_cli(capsys, "theta-table", "--n-max", "3",
                           "--format", "csv")
    assert code == 0
    assert "2,3,1,3 11" in out.splitlines()


def test_theta_table_c4(capsys):
    code, out, _ = run_cli(capsys, "theta-table", "--n-max", "3", "--c", "4",
                           "--format", "csv")
    assert code == 0
    assert "4,3,1,5 13 21" in out.splitlines()


def test_theta_table_rows_are_certified(capsys):
    """At the default precision every row is complete: the level is taken
    up front from the span equality, not grown on failure."""
    code, out, _ = run_cli(capsys, "theta-table", "--n-max", "4",
                           "--format", "csv")
    assert code == 0
    assert "2,4,6,17 25 41" in out.splitlines()
    assert "2,4,7,43" in out.splitlines()
    code, deep, _ = run_cli(capsys, "theta-table", "--n-max", "4",
                            "--format", "csv", "--precision", "400")
    assert code == 0 and out == deep


@pytest.fixture
def nothing_built(monkeypatch):
    """Make any Hecke matrix or theta series build fail the test."""
    def refuse(*args):
        raise AssertionError(f"built something for {args}")
    monkeypatch.setattr(spaces, "hecke_matrix", refuse)
    monkeypatch.setattr(mbasis, "hecke_matrix", refuse)
    monkeypatch.setattr(cli, "theta_coords", refuse)


def test_code_of_huge_exponent_is_direct(capsys, nothing_built):
    code, out, _ = run_cli(capsys, "code-of", "1000001")
    assert code == 0 and out == "784,452\n"


# 4000 digits: int() still parses it (its limit is 4300), but a level taken
# from it has thousands of digits, or more than str() will print
HUGE = "9" * 4000


@pytest.mark.parametrize("argv,stdin", [
    (("m-table", "--degree", "64"), None),
    (("tp-table", "--degree", "64"), None),
    (("decompose", "-"), "99999999999"),
    (("theta-table", "--c", "4", "--n-max", "8"), None),
    (("m-table", "--degree", HUGE), None),
    (("tp-table", "--degree", HUGE), None),
    (("decompose", "-"), HUGE),
    (("theta-table", "--n-max", "8000"), None),
    (("theta-table", "--n-max", "1000000"), None),
    (("theta-table", "--precision", HUGE), None),
    (("verify", "--suite", "theta", "--precision", "9" * 40), None),
    (("verify", "--precision", "100000000"), None),
    (("tp-table", "--p-max", "10000000000"), None),
    (("tp-table", "--p-max", HUGE), None),
], ids=lambda x: "huge" if x == HUGE else None)
def test_work_over_the_cap_fails_before_building(capsys, monkeypatch,
                                                 nothing_built, argv, stdin):
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "over the level cap" in err and len(err) < 200


def test_theta_table_stops_at_the_first_family_over_the_cap(
        capsys, monkeypatch, nothing_built):
    """The families' levels grow with n, so theta-table asks for them in
    turn and stops at the first over the cap (n = 9 for c = 2, level
    21846): the level of a large n_max is never formed."""
    seen, widths = [], []
    level_of, spread = theta.theta_level, mbasis.spread_bits
    monkeypatch.setattr(cli, "theta_level",
                        lambda n, c: seen.append(n) or level_of(n, c))
    monkeypatch.setattr(mbasis, "spread_bits",
                        lambda x: widths.append(x.bit_length()) or spread(x))
    for n_max in ("9", "8000", "1000000"):
        seen.clear()
        code, out, err = run_cli(capsys, "theta-table", "--n-max", n_max)
        assert code == 1 and out == ""
        assert err == "error: level 21846 needed, over the level cap 8192\n"
        assert seen == list(range(1, 10))
    assert max(widths) == 8


def test_code_of(capsys):
    code, out, _ = run_cli(capsys, "code-of", "11")
    assert code == 0 and out == "3,0\n"


def test_code_of_rejects_even(capsys):
    code, _, err = run_cli(capsys, "code-of", "4")
    assert code == 2 and "odd" in err


def test_decompose_roundtrip(tmp_path, capsys):
    # a row of the m-table comes back as the unit m-expansion
    src = tmp_path / "series.txt"
    src.write_text("11,19")
    code, out, _ = run_cli(capsys, "decompose", str(src), "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["delta,11 19", "m,1 2"]


def test_decompose_every_small_m_row(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "m-table", "--degree", "3", "--format", "csv")
    for line in out.splitlines():
        a, b, exps = line.split(",")
        src = tmp_path / "row.txt"
        src.write_text(exps.replace(" ", ","))
        code, out2, _ = run_cli(capsys, "decompose", str(src), "--format", "csv")
        assert code == 0
        assert out2.splitlines()[1] == f"m,{a} {b}"


def test_decompose_fails_when_the_round_trip_disagrees(capsys, monkeypatch):
    """A q-expansion round trip that comes back with other delta
    coordinates is one error line and exit 1, with nothing on stdout."""
    expand = cli.expand_in_delta_basis

    def flip_bit_0(f, n):
        got = expand(f, n)
        return spaces.DeltaCoords(got.coords ^ 1, got.level)
    monkeypatch.setattr(cli, "expand_in_delta_basis", flip_bit_0)
    monkeypatch.setattr(sys, "stdin", io.StringIO("11,19"))
    code, out, err = run_cli(capsys, "decompose", "-")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_decompose_rejects_even_exponent(capsys, tmp_path):
    src = tmp_path / "bad.txt"
    src.write_text("4,6")
    code, _, err = run_cli(capsys, "decompose", str(src))
    assert code == 2 and "odd" in err


def test_decompose_rejects_undecodable_file(capsys, tmp_path):
    src = tmp_path / "bad.bin"
    src.write_bytes(b"\xff\xfe3,5")
    code, out, err = run_cli(capsys, "decompose", str(src))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("verify", "--suite", "theta", "--precision", "-100"),
    ("m-table", "--degree", "-3"),
    ("tp-table", "--degree", "-1"),
    ("theta-table", "--n-max", "0"),
    ("theta-table", "--precision", "-1"),
])
def test_negative_arguments_are_usage_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_verify_timings_go_to_stderr(capsys):
    code, out, err = run_cli(capsys, "verify", "--suite", "mbasis")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "4/4 checks passed"
    assert all(line.startswith("PASS  ") and not line.endswith("s)")
               for line in lines[:-1])
    timings = err.splitlines()
    assert len(timings) == 4
    assert all(line.endswith("s)") for line in timings)
    assert run_cli(capsys, "verify", "--suite", "mbasis")[1] == out


def test_a_check_that_raises_is_one_fail_line(capsys, monkeypatch):
    """An exception inside a check becomes that check's FAIL line, named by
    its type and message; the rest of the suite still runs."""
    def boom(*args):
        raise RuntimeError("stacked kernel exploded\nsecond line")
    monkeypatch.setattr(checks, "stacked_kernel_is_trivial", boom)
    code, out, err = run_cli(capsys, "verify", "--suite", "mbasis")
    assert code == 1
    lines = out.splitlines()
    assert lines[1] == ("FAIL  m-basis-structure  "
                        "[RuntimeError: stacked kernel exploded]")
    assert [line.split()[:2] for line in lines[:4]] == [
        ["PASS", "m-table"], ["FAIL", "m-basis-structure"],
        ["PASS", "dominant-exponents"], ["PASS", "injectivity-witnesses"]]
    assert lines[4:] == ["3/4 checks passed"]
    assert "Traceback" not in err and len(err.splitlines()) == 4


@pytest.mark.parametrize("precision,shown", [("0", 1025), ("2000", 2000)])
def test_theta_identities_precision_floor(capsys, monkeypatch, precision, shown):
    """Below 1 + 2^10 the special-index identity at c = 4, n = 6 would be
    skipped (at 0 every identity compares q^0 only), so the override is
    floored there and the PASS line names the precision really used."""
    monkeypatch.setitem(checks.SUITES, "theta", [checks.check_theta_tables])
    code, out, _ = run_cli(capsys, "verify", "--suite", "theta",
                           "--precision", precision)
    assert code == 0
    assert out.splitlines()[0] == (
        "PASS  theta-tables-identities  [tables n<=3 both forms; "
        f"identities n<=6 at precision {shown}]")


def test_determinism(capsys):
    outputs = []
    for _ in range(2):
        code, out, _ = run_cli(capsys, "tp-table", "--p-max", "17",
                               "--degree", "10", "--format", "csv")
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "heckemod2.cli", "m-table", "--degree", "0"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0
    assert proc.stdout == "(0,0): 1\n"
