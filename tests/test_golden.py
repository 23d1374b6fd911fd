"""Golden CLI outputs: stdout and exit status pinned byte for byte.

Each file under tests/golden/ holds the stdout of
`python3 -m kohtrees.cli <argv>` for the argv listed beside it below.
"""

import os

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
]


@pytest.mark.parametrize("name,argv", CASES, ids=[name for name, _ in CASES])
def test_cli_output_matches_golden(capsys, name, argv):
    code = cli.main(argv.split())
    out = capsys.readouterr().out
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as f:
        assert out == f.read()
    assert code == 0
