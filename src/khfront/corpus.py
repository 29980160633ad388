"""Bundled front-word corpus.

Every entry was cross-checked against the homology and Jones oracles
before being frozen here; expected values are recorded so batch runs can
detect regressions.  Entries tagged "scale" are excluded from the quick
suites.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .errors import KhfrontError, MalformedToken
from .front import FrontDiagram, parse_front

_TB_HEADER = "# tb="


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    word: str
    tb: int
    crossings: int
    components: int
    alternating: bool
    tags: tuple[str, ...] = ()

    def front(self) -> FrontDiagram:
        return parse_front(self.word)


BUNDLED: tuple[CorpusEntry, ...] = (
    CorpusEntry(
        name="unknot-max-tb",
        word="L1 R1",
        tb=-1,
        crossings=0,
        components=1,
        alternating=True,
        tags=("unknot", "max-tb"),
    ),
    CorpusEntry(
        name="unknot-stabilized",
        word="L1 L2 R1 R1",
        tb=-2,
        crossings=0,
        components=1,
        alternating=True,
        tags=("unknot", "stabilized"),
    ),
    CorpusEntry(
        name="unknot-kinked",
        word="L1 L2 X1 R2 R1",
        tb=-1,
        crossings=1,
        components=1,
        alternating=True,
        tags=("unknot", "max-tb"),
    ),
    CorpusEntry(
        name="trefoil-right-max-tb",
        word="L1 L2 X1 X1 X1 R2 R1",
        tb=1,
        crossings=3,
        components=1,
        alternating=True,
        tags=("knot", "max-tb"),
    ),
    CorpusEntry(
        name="trefoil-left-max-tb",
        word="L1 L1 L1 X2 X4 R3 X2 R1 R1",
        tb=-6,
        crossings=3,
        components=1,
        alternating=True,
        tags=("knot", "max-tb"),
    ),
    CorpusEntry(
        name="figure-eight-max-tb",
        word="L1 L1 L1 X2 X2 X4 R3 X2 R1 R1",
        tb=-3,
        crossings=4,
        components=1,
        alternating=True,
        tags=("knot", "max-tb"),
    ),
    CorpusEntry(
        name="hopf-link-positive",
        word="L1 L2 X1 X1 R2 R1",
        tb=0,
        crossings=2,
        components=2,
        alternating=True,
        tags=("link",),
    ),
    CorpusEntry(
        name="granny-knot-max-tb",
        word="L1 L2 X1 X1 X1 R2 L2 X1 X1 X1 R2 R1",
        tb=3,
        crossings=6,
        components=1,
        alternating=True,
        tags=("knot", "max-tb", "alternating-6"),
    ),
    CorpusEntry(
        name="torus-3-4-knot",
        word="L1 L2 L3 X1 X2 X1 X2 X1 X2 X1 X2 R3 R2 R1",
        tb=5,
        crossings=8,
        components=1,
        alternating=False,
        tags=("knot", "non-alternating-8"),
    ),
    CorpusEntry(
        name="four-trefoil-sum",
        word="L1 " + "L2 X1 X1 X1 R2 " * 4 + "R1",
        tb=7,
        crossings=12,
        components=1,
        alternating=True,
        tags=("knot", "scale"),
    ),
)


def write_corpus_dir(path: Path) -> list[Path]:
    """Materialize the bundled corpus as one .front file per entry."""
    path.mkdir(parents=True, exist_ok=True)
    out = []
    for e in BUNDLED:
        p = path / f"{e.name}.front"
        p.write_text(f"{_TB_HEADER}{e.tb}\n{e.word}\n")
        out.append(p)
    return out


def _read_front_file(path: Path) -> tuple[FrontDiagram, Optional[str]]:
    """Read a .front file once: its front, whose event word is the
    non-empty lines that are not comments (a comment starts with '#')
    joined, and its first ``# tb=N`` header line, stripped, or None."""
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        raise KhfrontError(f"{path}: {exc}") from None
    words = []
    header = None
    for line in text.splitlines():
        word = line.strip()
        if header is None and word.startswith(_TB_HEADER):
            header = word
        elif word and not word.startswith("#"):
            words.append(word)
    return parse_front(" ".join(words)), header


def read_corpus_file(path: Path) -> tuple[FrontDiagram, Optional[int]]:
    """The front of a .front file and the tb its ``# tb=N`` header
    records, or None without one; MalformedToken when N is no integer."""
    front, header = _read_front_file(path)
    if header is None:
        return front, None
    try:
        return front, int(header[len(_TB_HEADER):])
    except ValueError:
        raise MalformedToken(f"{path}: bad header {header!r}") from None
