"""Shared fixtures and hypothesis strategies.

Random fronts are generated by replaying a legal event word with random
choices and, unless split ones are asked for, filtering for plane
connectivity with ``tait_reference.plane_connected``, which shares no code
with the Tait sweep that decides it in the package.  Sizes are kept small
because every property test runs exact integer machinery downstream.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
import sympy
from hypothesis import assume
from hypothesis import strategies as st

import khfront
from khfront import BUNDLED, CorpusEntry, FrontDiagram

from link_diagram import desingularize
from tait_reference import plane_connected


def run_python(*args: str, timeout: float = 120) -> subprocess.CompletedProcess:
    """Run ``python *args`` with this khfront importable."""
    src = str(Path(khfront.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}
    return subprocess.run(
        [sys.executable, *args],
        env=env,
        timeout=timeout,
        capture_output=True,
        text=True,
    )


def run_optimized(*args: str, timeout: float = 120) -> subprocess.CompletedProcess:
    """Run ``python -O *args`` with this khfront importable.  ``-O`` strips
    asserts, so a check that must survive it has to raise explicitly."""
    return run_python("-O", *args, timeout=timeout)


def matrix_tree_count(g) -> int:
    """Kirchhoff determinant of the multigraph Laplacian."""
    if g.n_vertices == 1:
        return 1
    lap = sympy.zeros(g.n_vertices, g.n_vertices)
    for e in g.edges:
        if e.u == e.v:
            continue
        lap[e.u, e.u] += 1
        lap[e.v, e.v] += 1
        lap[e.u, e.v] -= 1
        lap[e.v, e.u] -= 1
    minor = lap[1:, 1:]
    return int(minor.det())


@st.composite
def front_words(
    draw, max_crossings: int = 4, max_cusp_pairs: int = 3, connected: bool = True
):
    """A random legal front word: a connected one, or with ``connected``
    False, any one, split ones included."""
    events = []
    k = 0  # current strand count
    l_left = draw(st.integers(min_value=1, max_value=max_cusp_pairs))
    r_left = l_left
    x_left = draw(st.integers(min_value=0, max_value=max_crossings))
    while l_left or r_left or x_left:
        choices = []
        if l_left:
            choices.append("L")
        if x_left and k >= 2:
            choices.append("X")
        # never close the last two strands while crossings remain: they
        # would be dropped
        if r_left and k >= 2 and (k > 2 or x_left == 0):
            choices.append("R")
        if not choices:
            # only crossings left but too few strands: drop them
            if x_left and k < 2:
                x_left = 0
                continue
            break
        kind = draw(st.sampled_from(choices))
        if kind == "L":
            pos = draw(st.integers(min_value=1, max_value=k + 1))
            k += 2
            l_left -= 1
        else:
            pos = draw(st.integers(min_value=1, max_value=k - 1))
            if kind == "R":
                k -= 2
                r_left -= 1
            else:
                x_left -= 1
        events.append((kind, pos))
    # close whatever is still open
    while k >= 2:
        pos = draw(st.integers(min_value=1, max_value=k - 1))
        events.append(("R", pos))
        k -= 2
    front = FrontDiagram(tuple(events))
    assume(not connected or plane_connected(desingularize(front)))
    return front


@pytest.fixture(scope="session")
def corpus_fronts():
    return [(e, e.front()) for e in BUNDLED]


def quick_entries() -> list[CorpusEntry]:
    """The bundled corpus without the scale-test entries (<= 10
    crossings)."""
    return [e for e in BUNDLED if "scale" not in e.tags]
