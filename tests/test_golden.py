"""CLI outputs that must stay byte-identical across refactors.

``golden_outputs.json`` maps each command line to its exact stdout: the
bundled corpus under ``corpus --oracle --json``, and ``homology --json``,
``jones --json`` and the ``trees --coloring both`` listing, as JSON and
as text, for every bundled front word.  A change that means
to alter one of these outputs regenerates the file and says why::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
from pathlib import Path

import pytest

from khfront import BUNDLED
from khfront.cli import EXIT_OK, main

GOLDEN = Path(__file__).resolve().with_name("golden_outputs.json")


def golden_commands() -> list[list[str]]:
    commands = [["corpus", "--oracle", "--json"]]
    for e in BUNDLED:
        commands.append(["homology", "--json", e.word])
        commands.append(["jones", "--json", e.word])
        commands.append(["trees", "--json", "--coloring", "both", e.word])
        commands.append(["trees", "--coloring", "both", e.word])
    return commands


def stdout_of(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    if code != EXIT_OK:
        raise RuntimeError(f"khfront {' '.join(argv)} exited {code}")
    return buf.getvalue()


@pytest.mark.parametrize("argv", golden_commands(), ids=" ".join)
def test_output_is_byte_identical(argv):
    expected = json.loads(GOLDEN.read_text())[" ".join(argv)]
    assert stdout_of(argv) == expected


if __name__ == "__main__":
    outputs = {" ".join(argv): stdout_of(argv) for argv in golden_commands()}
    GOLDEN.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n")
