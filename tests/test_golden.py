"""Golden CLI outputs: stdout and exit status pinned byte for byte.

Each file under tests/golden/ holds the stdout of
`python3 -m kohtrees.cli <argv>` for the argv listed beside it below.
Each file under tests/golden/usage/ holds the exit status, stdout and
stderr of a help request or a usage error, at 80 columns, as the
sections of one file (see _usage_record).
"""

import os
import sys

import pytest

from kohtrees import cli

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

CASES = [
    ("kronecker_3_4_6.txt", "kronecker --n 3 --k 4 --r 6"),
    ("kronecker_4_4_5.json", "kronecker --n 4 --k 4 --r 5 --format json"),
    ("kronecker_5_4_7_marked.json",
     "kronecker --n 5 --k 4 --r 7 --method marked-trees --format json"),
    ("plethysm_31_3_4.json", "plethysm --mu 3,1 --k 3 --r 4 --format json"),
    ("plethysm_general_42_2_21.txt",
     "plethysm-general --lambda 4,2 --mu 2 --nu 2,1"),
    ("trees_koh_4_3.txt", "trees koh --n 4 --k 3"),
    ("trees_koh_4_3_r3.json", "trees koh --n 4 --k 3 --r 3 --format json"),
    ("trees_koh_4_3_r3.dot", "trees koh --n 4 --k 3 --r 3 --format dot"),
    ("trees_goh_21_2_r1.txt", "trees goh --mu 2,1 --k 2 --r 1"),
    ("trees_goh_21_2.json", "trees goh --mu 2,1 --k 2 --format json"),
    ("trees_goh_21_2_r1.dot", "trees goh --mu 2,1 --k 2 --r 1 --format dot"),
    ("verify_koh_4_4.txt", "verify koh --max-n 4 --max-k 4"),
    ("verify_goh_4_3.txt", "verify goh --max-size 4 --max-k 3"),
    # 174 cells, k below and past |mu| - mu_1
    ("verify_goh_6_6.txt", "verify goh --max-size 6 --max-k 6"),
]


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_cli_output_matches_golden(capsys, name, argv):
    code = cli.main(argv.split())
    out = capsys.readouterr().out
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as f:
        assert out == f.read()
    assert code == 0


USAGE = os.path.join(GOLDEN, "usage")

# every command's help, a missing and an unknown command or family, and
# one bad option of each command
USAGE_CASES = [
    ("help", "--help"),
    ("kronecker_help", "kronecker --help"),
    ("plethysm_help", "plethysm --help"),
    ("plethysm_general_help", "plethysm-general --help"),
    ("trees_help", "trees --help"),
    ("trees_koh_help", "trees koh --help"),
    ("trees_goh_help", "trees goh --help"),
    ("verify_help", "verify --help"),
    ("verify_koh_help", "verify koh --help"),
    ("verify_goh_help", "verify goh --help"),
    ("no_command", ""),
    ("unknown_command", "kron --n 3 --k 4 --r 6"),
    ("unknown_option", "--bogus kronecker"),
    ("kronecker_bad_method", "kronecker --n 3 --k 4 --r 6 --method guess"),
    ("plethysm_bad_partition", "plethysm --mu 1,2 --k 2 --r 1"),
    ("plethysm_general_bad_format",
     "plethysm-general --lambda 4,2 --mu 2 --nu 2,1 --format dot"),
    ("trees_no_family", "trees"),
    ("trees_koh_bad_format", "trees koh --n 4 --k 3 --format xml"),
    ("trees_goh_bad_k", "trees goh --mu 2,1 --k x"),
    ("verify_unknown_family", "verify kog --max-n 3 --max-k 3"),
    ("verify_koh_bad_workers", "verify koh --max-n 3 --max-k 3 --workers x"),
    ("verify_goh_unknown_option",
     "verify goh --max-size 3 --max-k 2 --max-fillings 5"),
]


def _usage_record(capsys, monkeypatch, argv: str) -> str:
    """The exit status, stdout and stderr of cli.main on argv at 80
    columns, each under a `==> name <==` line."""
    monkeypatch.setenv("COLUMNS", "80")
    code = cli.main(argv.split())
    out, err = capsys.readouterr()
    return f"==> status <==\n{code}\n==> stdout <==\n{out}==> stderr <==\n{err}"


# argparse words its help and errors differently from one Python version
# to the next (3.10 heads the options "optional arguments:"); these bytes
# are 3.11's, and the comparison with the full parser below runs on any
@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="the golden help and usage bytes are Python 3.11's")
@pytest.mark.parametrize("name,argv", USAGE_CASES, ids=[name for name, _ in USAGE_CASES])
def test_help_and_usage_errors_match_golden(capsys, monkeypatch, name, argv):
    with open(os.path.join(USAGE, name + ".txt"), encoding="utf-8") as f:
        assert _usage_record(capsys, monkeypatch, argv) == f.read()


@pytest.mark.parametrize("name,argv", USAGE_CASES, ids=[name for name, _ in USAGE_CASES])
def test_one_command_parser_prints_what_the_full_parser_prints(capsys, monkeypatch,
                                                               name, argv):
    one = _usage_record(capsys, monkeypatch, argv)
    full_parser = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda command=None: full_parser())
    assert _usage_record(capsys, monkeypatch, argv) == one
