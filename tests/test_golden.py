"""CLI outputs that must stay byte-identical across refactors.

``golden_outputs.json`` maps each command line to its exact stdout: the
bundled corpus under ``corpus --oracle --json``, and ``homology --json``,
``jones --json`` and the ``trees --coloring both`` listing, as JSON and
as text, for every bundled front word; and ``homology --json`` on the
scan-hard fronts of ``SCAN_HARD``, the last of them also reoriented; and
``analyze --oracle --json``, ``jones --json`` and a reoriented
``homology --json`` on ``THREE_COMPONENTS``; and the demo scripts, whose
keys are ``python demos/<script>``; and the README's Library example,
under ``README.md Library``.  The package's public names are pinned
here too, in ``PUBLIC_NAMES``.  A change that means to alter one of these
outputs regenerates the file and says why::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import runpy
from pathlib import Path

import pytest

import khfront
from khfront import BUNDLED
from khfront.cli import EXIT_OK, main

GOLDEN = Path(__file__).resolve().with_name("golden_outputs.json")
DEMOS = Path(__file__).resolve().parents[1] / "demos"

#: the demo scripts, each with the number of trailing lines of its stdout
#: that report a run time and so are left out
DEMO_SCRIPTS = {
    "01_trefoil_walkthrough.py": 0,
    "02_duality.py": 0,
    "03_corpus_survey.py": 1,
}


#: fronts the homology scan finds hard, beyond the bundled words: the sum
#: of five right trefoils (15 crossings, torsion-heavy), T(3, 7) (14
#: crossings), and a two-component sum of a trefoil, two Hopf clasps on
#: one shared ring, and a kink
SCAN_HARD = (
    "L1" + " L2 X1 X1 X1 R2" * 5 + " R1",
    "L1 L2 L3" + " X1 X2" * 7 + " R3 R2 R1",
    "L1 L2 X1 X1 X1 R2 L2 X1 X1 X3 X3 R2 L2 X1 R2 R1",
)

#: a three-component link with writhe 0 as oriented, and -4 or +4 when its
#: first or last component is reversed: its outputs pin the direction in
#: which each component is walked
THREE_COMPONENTS = "L1 L1 L3 X2 X2 X4 X4 R3 R1 R1"


#: ``khfront.__all__``, sorted: adding, dropping or renaming a public name
#: is an edit of this list
PUBLIC_NAMES = [
    "BUNDLED", "BigradedTable", "BoundReport", "ConventionError",
    "CorpusEntry", "Disconnected", "EmptyTable", "FrontDiagram",
    "KhfrontError", "LaurentPoly", "MalformedToken",
    "NonzeroEndState", "NotASpanningTree", "ParityViolation",
    "SpanningTreeRecord", "StrandUnderflow", "TaitGraph", "TooLarge",
    "bigrading_counts", "generator_ij", "kauffman_jones", "khovanov_homology",
    "labelled_trees", "parse_front", "sharpness_report", "splice_front",
    "tait_graph", "tree_euler_characteristic",
]


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
    commands.append(["analyze", "--oracle", "--json", THREE_COMPONENTS])
    commands.append(["jones", "--json", THREE_COMPONENTS])
    commands.append(["homology", "--json", "--orient", "-,+,+", THREE_COMPONENTS])
    return commands


def stdout_of(argv: list[str]) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    if code != EXIT_OK:
        raise RuntimeError(f"khfront {' '.join(argv)} exited {code}")
    return buf.getvalue()


def demo_stdout(script: str) -> str:
    """The stdout of a demo run in this process, without its timing
    lines."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        runpy.run_path(str(DEMOS / script), run_name="__main__")
    lines = buf.getvalue().splitlines(keepends=True)
    return "".join(lines[: len(lines) - DEMO_SCRIPTS[script]])


def readme_stdout() -> str:
    """The stdout of the README's Library example, run in this process."""
    readme = DEMOS.with_name("README.md")
    section = readme.read_text().split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        exec(compile(code, str(readme), "exec"), {"__name__": "__main__"})
    return buf.getvalue()


@pytest.mark.parametrize("argv", golden_commands(), ids=" ".join)
def test_output_is_byte_identical(argv):
    expected = json.loads(GOLDEN.read_text())[" ".join(argv)]
    assert stdout_of(argv) == expected


@pytest.mark.parametrize("script", DEMO_SCRIPTS)
def test_demo_output_is_byte_identical(script):
    expected = json.loads(GOLDEN.read_text())[f"python demos/{script}"]
    assert demo_stdout(script) == expected


def test_readme_output_is_byte_identical():
    assert readme_stdout() == json.loads(GOLDEN.read_text())["README.md Library"]


def test_public_names_are_pinned():
    assert sorted(khfront.__all__) == PUBLIC_NAMES
    assert all(hasattr(khfront, name) for name in PUBLIC_NAMES)


if __name__ == "__main__":
    outputs = {" ".join(argv): stdout_of(argv) for argv in golden_commands()}
    outputs.update(
        {f"python demos/{script}": demo_stdout(script) for script in DEMO_SCRIPTS}
    )
    outputs["README.md Library"] = readme_stdout()
    GOLDEN.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n")
