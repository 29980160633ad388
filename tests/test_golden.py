"""CLI outputs that must stay byte-identical across refactors.

``golden_outputs.json`` maps each command line to its exact stdout: the
bundled corpus under ``corpus --oracle --json``, and ``homology --json``,
``jones --json`` and the ``trees --coloring both`` listing, as JSON and
as text, for every bundled front word; and ``homology --json`` on the
scan-hard fronts of ``SCAN_HARD``, the last of them also reoriented.  A
change that means to alter one of these outputs regenerates the file and
says why::

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


#: fronts the homology scan finds hard, beyond the bundled words: the sum
#: of five right trefoils (15 crossings, torsion-heavy), T(3, 7) (14
#: crossings), and a two-component sum of a trefoil, two Hopf clasps on
#: one shared ring, and a kink
SCAN_HARD = (
    "L1" + " L2 X1 X1 X1 R2" * 5 + " R1",
    "L1 L2 L3" + " X1 X2" * 7 + " R3 R2 R1",
    "L1 L2 X1 X1 X1 R2 L2 X1 X1 X3 X3 R2 L2 X1 R2 R1",
)


def golden_commands() -> list[list[str]]:
    commands = [["corpus", "--oracle", "--json"]]
    for e in BUNDLED:
        commands.append(["homology", "--json", e.word])
        commands.append(["jones", "--json", e.word])
        commands.append(["trees", "--json", "--coloring", "both", e.word])
        commands.append(["trees", "--coloring", "both", e.word])
    for word in SCAN_HARD:
        commands.append(["homology", "--json", "--max-crossings", "15", word])
    link = SCAN_HARD[-1]
    commands.append(
        ["homology", "--json", "--max-crossings", "15", "--orient", "-,+", link]
    )
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
