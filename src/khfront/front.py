"""Legendrian front diagrams as event words.

A front is an ordered word of events, one per x-coordinate, read left to
right:

    L<p>  left cusp: inserts two new strands at positions p, p+1
    R<p>  right cusp: joins and removes the strands at positions p, p+1
    X<p>  crossing of the strands at positions p, p+1

Strand positions are 1-based from the top.  Crossings therefore have
strictly increasing x-order by construction, and the strand of smaller
slope is the over-strand at every crossing.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

from .diagram import NE, NW, SE, SW, LinkDiagram
from .errors import MalformedToken, NonzeroEndState, StrandUnderflow, TooLarge

Event = tuple[str, int]  # ("L" | "R" | "X", 1-based position)

#: most events a front word may have.  The sweep and the census are linear
#: in it, but a word ten times this long takes gigabytes; the largest
#: fronts in use (a 2001-crossing twist, a 1500-crossing kink chain of
#: about 4,500 events) stay far below it.
EVENT_LIMIT = 50_000

_TOKEN = re.compile(r"([LRX])([0-9]+)\Z")


@dataclass(frozen=True)
class FrontDiagram:
    """A validated front word, split or not.

    Construction refuses a word with no event (MalformedToken) or with
    more than ``EVENT_LIMIT`` events (TooLarge), then runs the sweep,
    which checks every event's strand-count legality as it applies it;
    use ``parse_front`` for text input.  A split front is legal: the
    oracle answers it, and ``tait.tait_graph`` refuses it.
    """

    events: tuple[Event, ...]

    def __post_init__(self):
        if not self.events:
            raise MalformedToken("empty front word")
        if len(self.events) > EVENT_LIMIT:
            raise TooLarge(
                f"{len(self.events)} events exceeds the front limit of "
                f"{EVENT_LIMIT}"
            )
        self.desingularize()  # the sweep checks the word

    @cached_property
    def _diagram(self) -> LinkDiagram:
        return desingularize(self)

    @property
    def cusp_count(self) -> int:
        """C(F): half the number of cusps.  The sweep has checked that
        every event is a cusp or one of the diagram's crossings."""
        return (len(self.events) - self._diagram.n) // 2

    @property
    def crossing_count(self) -> int:
        return self._diagram.n

    def word(self) -> str:
        return " ".join(f"{kind}{pos}" for kind, pos in self.events)

    def desingularize(self) -> LinkDiagram:
        """The desingularized link diagram.  It is computed once per front
        and shared by every caller, so it must not be mutated."""
        return self._diagram

    def tb(self, flips: Optional[Sequence[bool]] = None) -> int:
        """Thurston-Bennequin number: writhe of the desingularization
        minus half the number of cusps."""
        return self._diagram.writhe(flips) - self.cusp_count

    def __repr__(self) -> str:
        return f"FrontDiagram({self.word()!r})"


def parse_front(text: str) -> FrontDiagram:
    """Parse a whitespace-separated front word such as ``"L1 L3 X2 R2 R1"``.

    Raises TooLarge for more than ``EVENT_LIMIT`` events, before any token
    is matched, MalformedToken (for a bad token or a word with none),
    StrandUnderflow or NonzeroEndState.  A split front parses; whether it
    is connected is decided by ``tait.tait_graph``, which refuses it.
    """
    # split no further than one token past the limit: a word far over it
    # is refused before its tokens are held, let alone matched
    tokens = text.split(None, EVENT_LIMIT)
    if len(tokens) > EVENT_LIMIT:
        raise TooLarge(
            f"the word has more events than the front limit of {EVENT_LIMIT}"
        )
    # a word repeats few distinct tokens: match each one once
    event_of: dict[str, Event] = {}
    for token in tokens:
        if token not in event_of:
            m = _TOKEN.match(token)
            if not m:
                raise MalformedToken(f"bad token {token!r}")
            event_of[token] = (m.group(1), int(m.group(2)))
    return FrontDiagram(tuple(map(event_of.__getitem__, tokens)))


def desingularize(front: FrontDiagram) -> LinkDiagram:
    """Smooth all cusps of the front into a link diagram.

    Cusps become smooth turning arcs; every crossing keeps its x-order and
    has the smaller-slope (NW-SE) branch on top.

    The sweep validates the word as it applies it: each event is checked
    before it is applied (MalformedToken for an event that is no pair of
    a kind and an int position of at least 1, or for an unknown kind;
    StrandUnderflow for too few strands), and strands left open at the
    end raise NonzeroEndState.  The Tait graph's sweep (``tait``) relies
    on these checks.
    """
    # An open strand is an int: a port x >= 0 when its partial arc runs
    # back to port x, else ~t for the cusp-born strand t.  far[t] is what
    # sits at the other end of t's partial arc: a port, or ~u for the open
    # strand u when the arc is still open on both sides.
    strands: list[int] = []
    far: list[int] = []
    arcs: list[tuple[int, int]] = []
    free_loops = 0
    n = 0

    def attach(s: int, x: int) -> None:
        f = s if s >= 0 else far[~s]
        if f < 0:
            far[~f] = x
        else:
            arcs.append((f, x))

    for i, event in enumerate(front.events):
        try:
            kind, pos = event
        except (TypeError, ValueError):
            pos = None
        # ``type(pos) is int`` refuses True and False, which are ints too
        if type(pos) is not int or pos < 1:
            raise MalformedToken(
                f"event {i}: {event!r} is no pair of a kind and a position >= 1"
            )
        if kind == "L":
            if pos > len(strands) + 1:
                raise StrandUnderflow(
                    f"event {i}: left cusp at position {pos} "
                    f"with {len(strands)} strands"
                )
            t = len(far)
            far += (~(t + 1), ~t)
            strands[pos - 1 : pos - 1] = (~t, ~(t + 1))
            continue
        if kind not in ("R", "X"):
            raise MalformedToken(f"event {i}: unknown kind {kind!r}")
        if pos + 1 > len(strands):
            raise StrandUnderflow(
                f"event {i}: {kind}{pos} needs strands {pos},{pos + 1} "
                f"but only {len(strands)} exist"
            )
        if kind == "R":
            s, t = strands[pos - 1], strands[pos]
            fs = s if s >= 0 else far[~s]
            ft = t if t >= 0 else far[~t]
            if fs < 0 and ft < 0:
                if fs == t:
                    free_loops += 1
                else:
                    far[~fs], far[~ft] = ft, fs
            elif fs < 0:
                far[~fs] = ft
            elif ft < 0:
                far[~ft] = fs
            else:
                arcs.append((fs, ft))
            del strands[pos - 1 : pos + 1]
        else:  # crossing
            x = 4 * n
            n += 1
            attach(strands[pos - 1], x + NW)
            attach(strands[pos], x + SW)
            strands[pos - 1], strands[pos] = x + NE, x + SE

    if strands:
        raise NonzeroEndState(f"{len(strands)} strands remain after the last event")
    return LinkDiagram(n, arcs, free_loops=free_loops)
