"""The README examples, run as written.

Every `$ kohtrees ...` line in a README code block runs through cli.main
and must print the lines shown under it; a `...` line stands for any
number of lines.  The Library snippet runs too, and each line ending in
`# value` must evaluate to that value.
"""

import contextlib
import io
import os
import re

import pytest

from kohtrees import cli

README = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")


def _blocks():
    """(info string, lines) of every fenced code block in the README."""
    with open(README, encoding="utf-8") as f:
        text = f.read()
    return [(info, body.splitlines())
            for info, body in re.findall(r"^```(\w*)\n(.*?)^```$", text,
                                         flags=re.M | re.S)]


def _cli_examples():
    """(argv, shown output lines) for each `$ kohtrees` line, in order."""
    examples = []
    for _, lines in _blocks():
        shown = None
        for line in lines:
            if line.startswith("$ kohtrees "):
                shown = []
                examples.append((line[len("$ kohtrees "):], shown))
            elif not line:
                # a blank line ends the example above it
                shown = None
            elif shown is not None:
                shown.append(line)
    return examples


EXAMPLES = _cli_examples()


def test_every_cli_example_is_found():
    assert len(EXAMPLES) == 7


@pytest.mark.parametrize("argv,shown", EXAMPLES, ids=[a for a, _ in EXAMPLES])
def test_cli_example_prints_what_the_readme_shows(capsys, argv, shown):
    assert shown
    code = cli.main(argv.split())
    out = capsys.readouterr().out
    assert code == 0
    pattern = "".join(r"(?:.*\n)*" if line == "..." else re.escape(line + "\n")
                      for line in shown)
    assert re.fullmatch(pattern, out), out


def test_library_snippet_runs_and_gives_the_values_shown():
    (snippet,) = [lines for info, lines in _blocks() if info == "python"]
    namespace = {}
    with contextlib.redirect_stdout(io.StringIO()) as printed:
        exec("\n".join(snippet), namespace)
    assert printed.getvalue()
    claims = [line.split("#", 1) for line in snippet if "  # " in line]
    assert len(claims) == 3
    for expr, value in claims:
        assert repr(eval(expr, namespace)) == value.strip()
