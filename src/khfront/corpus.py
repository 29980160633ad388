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
from .front import EVENT_LIMIT, FrontDiagram, parse_front

_TB_HEADER = "# tb="
#: characters ``_read_front_file`` reads at a time
_CHUNK = 1 << 13
#: the characters at which ``str.splitlines`` ends a line; a file read in
#: text mode has turned each CR LF and each lone CR into LF
_LINE_ENDS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"


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
    joined, and its first ``# tb=N`` header line, stripped, or None.

    The file is read ``_CHUNK`` characters at a time, and reading stops
    once the word has more than ``EVENT_LIMIT`` events, so ``parse_front``
    refuses a file of any length, one long line too, with TooLarge after
    holding no more than that and a chunk.
    """
    tokens: list[str] = []
    header = None
    # the current line's kind once a non-blank character is read: "w" for
    # words, "h" for a comment that is or may yet be the header, "#" for
    # any other comment, which is never held
    kind = ""
    cut: list[str] = []  # the pieces of a cut token, or of the header line
    try:
        with path.open() as f:
            while len(tokens) <= EVENT_LIMIT:
                chunk = f.read(_CHUNK)
                # a line end after the last chunk closes its last line
                for piece in (chunk or "\n").splitlines(keepends=True):
                    if not kind:
                        piece = piece.lstrip()
                        if not piece:
                            continue
                        kind = "w" if piece[0] != "#" else "#" if header else "h"
                    if kind == "w":
                        words = piece.split()
                        if cut and not piece[0].isspace():
                            cut.append(words.pop(0))  # the cut token runs on
                        if cut and (words or piece[-1].isspace()):
                            tokens.append("".join(cut))  # and ends here
                            cut = []
                        if words and not piece[-1].isspace():
                            cut = [words.pop()]
                        tokens += words
                    elif kind == "h":
                        cut.append(piece)
                        # no piece is empty, so this starts the line
                        start = "".join(cut[: len(_TB_HEADER)])
                        if not start.startswith(_TB_HEADER[: len(start)]):
                            kind, cut = "#", []
                    if piece[-1] in _LINE_ENDS:
                        if kind == "h":
                            header, cut = "".join(cut).strip(), []
                        kind = ""
                if not chunk:
                    break
    except UnicodeDecodeError as exc:
        raise KhfrontError(f"{path}: {exc}") from None
    return parse_front(" ".join(tokens)), header


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
