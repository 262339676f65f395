"""Golden output: the sha256 of stdout for every subcommand.

The digests were recorded from the tree before the linear-time Hecke
kernel and the shared delta-power table went in (the `m-table --degree 32`
one before the m-basis moved to its closed-form level, the `--degree 63`
one, the deepest table under the level cap, before its entries were
back-substituted instead of solved as a stacked system, the `verify --suite
theta --precision 2048` one before the theta families were built once per
index, and the two wide `tp-table` ones before every T_p was read off one
q-expansion of each m(i,j) instead of one probe per prime, and the
`code-of` and `decompose` ones of benchmark seeds 4 and 5 before `verify`
ran its checks through one harness), so any change to the bytes the CLI
prints shows up here.  In seed 5's `decompose` input the repeated exponent
1977, which cancels, is the largest, so the CLI sizes its level from an
exponent above the reduced top 1759.  `verify` used to print each
check's wall time on stdout; its digest was taken with those `  (N.Ns)`
suffixes removed, which is exactly what it prints now.
"""

import hashlib
import io
import sys

import pytest

from heckemod2.cli import main

GOLDEN = [
    (["m-table"], None,
     "c4b710da7078311f91b3bcec9f681f506ac7329af8eaf0aad2c4528d034fb701"),
    (["tp-table"], None,
     "ef53b4f07a9b0fe86b0992ecf9e11ec9f857a2a63eb4fe52cb0dbcbec7a21608"),
    (["theta-table"], None,
     "d7c80a6b6e78bc9bf79b0b23642af9cefb7cf8447bdb9e128dcd9837f2593a5c"),
    (["code-of", "19"], None,
     "52186c933993da4082b3cdc7c40bb4bf735b391ff54a2ef78c037dda6c38a680"),
    (["decompose", "-"], "11,19\n",
     "68eda2b4157af7dff8202ee587847fbcf1af34f9f723b4169495ab4581751674"),
    (["verify"], None,
     "57e8a6efee00cfb4cd4540a344a8ecbe23477fd833fa207550ba61fdb3cdbd3e"),
    (["m-table", "--degree", "24", "--format", "csv"], None,
     "e779976ed676f3e2db4e18a332afb7ba8b9e2f4034ec9f3d6318a23e879f14a1"),
    (["m-table", "--degree", "32", "--format", "csv"], None,
     "d3f8137f56fb3f8a4f6841b4a8338ecd731c604caa1216b3966eba6588924569"),
    (["m-table", "--degree", "63", "--format", "csv"], None,
     "c903eb19b8977efb7b74309851a6af79423a90fd206f8a24d8c1e63fe248f84b"),
    (["theta-table", "--c", "4", "--n-max", "5", "--precision", "341",
      "--format", "csv"], None,
     "a47adc5a7c706baaa721fafa4f26c7887b5a4e63f31d310ce513a36dca1f3fae"),
    # thousands of primes at degree 2, and the degree-8 table for p <= 2000
    (["tp-table", "--p-max", "20011", "--degree", "2", "--format", "csv"], None,
     "66407567c42f26dc5a5817109f84389c82c7a204451d6aabc621676e60b6ada4"),
    (["tp-table", "--p-max", "2000", "--degree", "8"], None,
     "0af77fb1af7246e58abe928c4bc14256b34a8789b24a19c0a893601a16010cc1"),
    # the precision override of run_suite: hecke-on-theta at 128,
    # compatibility at 64
    (["verify", "--suite", "theta", "--precision", "2048"], None,
     "0911fd1d9c08ed3007b209187f65379ddbc8fca2e17f5c0b81bd1fb7c60c1b16"),
    # the seed-dependent mbasis-deep commands of benchmark seeds 4 and 5
    (["code-of", "1507"], None,
     "42110996af7e372a4189a994de5d205b0330fd8d38c8a2152c9fa2c3fcd62194"),
    (["decompose", "-", "--format", "csv"],
     "1645,1235,1835,2005,1341,1209,1161,1645",
     "c4b9cecc8735bc7310e603a9fd122ccc93ccea3cbb7898d74d5f4510bdffddbc"),
    (["code-of", "1547"], None,
     "1f5415a1c413cbc5765689c6f6c268e9f023a8eb35ccd88df044bfc984dc70e7"),
    (["decompose", "-", "--format", "csv"],
     "1759,1083,1977,1535,1131,1345,1255,1977",
     "770ca23be3d472053223c58d551261e80bc9e569c7715cb178278a84de5ce225"),
]


@pytest.mark.parametrize("argv,stdin,digest", GOLDEN,
                         ids=[" ".join(g[0]) for g in GOLDEN])
def test_stdout_digest(argv, stdin, digest, capsys, monkeypatch):
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
