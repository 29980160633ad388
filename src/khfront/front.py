"""Legendrian front diagrams as event words.

A front is an ordered word of events, one per x-coordinate, read left to
right:

    L<p>  left cusp: inserts two new strands at positions p, p+1
    R<p>  right cusp: joins and removes the strands at positions p, p+1
    X<p>  crossing of the strands at positions p, p+1

Strand positions are 1-based from the top.  Crossings therefore have
strictly increasing x-order by construction, and the strand of smaller
slope is the over-strand at every crossing.

The paper reads everything off the front: its Tait graph (see ``tait``),
its crossing count n, its cusp pairs C and its writhe w, so tb = w - C.
One sweep over the strands validates the word, orients its components
and reads n, w and every crossing's sign off them.  It is the package's
only orientation: the tree side and the oracles (see ``oracle``) read it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import chain
from operator import mul
from typing import Optional, Sequence

from .errors import MalformedToken, NonzeroEndState, StrandUnderflow, TooLarge

Event = tuple[str, int]  # ("L" | "R" | "X", 1-based position)

#: most events a front word may have.  The sweep and the census are linear
#: in it, but a word ten times this long takes gigabytes; the largest
#: fronts in use (a 2001-crossing twist, a 1500-crossing kink chain of
#: about 4,500 events) stay far below it.
EVENT_LIMIT = 50_000

_TOKEN = re.compile(r"([LRX])([0-9]+)\Z")


def _find(parent: list[int], x: int) -> int:
    """Root of x in a union-find forest, halving the path on the way."""
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


@dataclass(frozen=True)
class FrontDiagram:
    """A validated front word, split or not.

    Construction refuses a word with no event (MalformedToken) or with
    more than ``EVENT_LIMIT`` events (TooLarge), then runs the strand
    sweep, which checks every event's strand-count legality as it applies
    it and orients the components; use ``parse_front`` for text input.  A
    split front is legal: the oracle answers it, and ``tait.tait_graph``
    refuses it.
    """

    events: tuple[Event, ...]
    #: the crossing count, the number of components (crossing-free loops
    #: included) and the writhe of the canonical orientation
    n: int = field(init=False, compare=False)
    component_count: int = field(init=False, compare=False)
    writhe: int = field(init=False, compare=False)
    #: per crossing, its over- then its under-strand: the strand's
    #: direction (+1 rightward) and its component, in canonical order
    _ways: list[int] = field(init=False, compare=False)
    _components: list[int] = field(init=False, compare=False)

    def __post_init__(self):
        if not self.events:
            raise MalformedToken("empty front word")
        if len(self.events) > EVENT_LIMIT:
            raise TooLarge(
                f"{len(self.events)} events exceeds the front limit of "
                f"{EVENT_LIMIT}"
            )
        ways, components, count = _strand_sweep(self.events)
        object.__setattr__(self, "_ways", ways)
        object.__setattr__(self, "_components", components)
        object.__setattr__(self, "n", len(ways) // 2)
        object.__setattr__(self, "component_count", count)
        object.__setattr__(self, "writhe", sum(map(mul, ways[::2], ways[1::2])))

    @property
    def cusp_count(self) -> int:
        """C(F): half the number of cusps.  The strand sweep has checked
        that every event is a cusp or a crossing."""
        return (len(self.events) - self.n) // 2

    def word(self) -> str:
        return " ".join(f"{kind}{pos}" for kind, pos in self.events)

    def crossing_signs(self, flips: Optional[Sequence[bool]] = None) -> list[int]:
        """Orientation sign of each crossing, in x-order.

        ``flips[i]`` reverses component i of the canonical order: the
        components by their first crossing in x-order, the over-strand's
        before the under-strand's, then the crossing-free loops.  It holds
        one entry per component; any other length raises ValueError.
        """
        ways = self._ways
        if flips is not None:
            if len(flips) != self.component_count:
                raise ValueError(
                    f"flips has {len(flips)} entries for "
                    f"{self.component_count} components"
                )
            ways = [-w if flips[k] else w for w, k in zip(ways, self._components)]
        return list(map(mul, ways[::2], ways[1::2]))

    def tb(self, flips: Optional[Sequence[bool]] = None) -> int:
        """Thurston-Bennequin number: writhe minus half the number of
        cusps, the writhe under the orientation ``flips`` (see
        ``crossing_signs``)."""
        w = self.writhe if flips is None else sum(self.crossing_signs(flips))
        return w - self.cusp_count

    def __repr__(self) -> str:
        return f"FrontDiagram({self.word()!r})"


def _strand_sweep(events: Sequence[Event]) -> tuple[list[int], list[int], int]:
    """Validate the word and orient it: per crossing, the direction and
    the component of its over- and its under-strand, and the number of
    components.

    Each event is checked before it is applied: MalformedToken for an
    event that is no pair of a kind and an int position of at least 1,
    or for an unknown kind; StrandUnderflow for too few strands.  Strands
    left open at the end raise NonzeroEndState.  The Tait graph's sweep
    (``tait``) and the oracle's smoothing rely on these checks.

    A strand runs from the left cusp that makes it to the right cusp that
    ends it, through its crossings, and keeps one direction all the way.
    A cusp joins two strands that run in opposite directions, and every
    strand has two cusp ends, so a component is a cycle of strands that
    alternate in direction.  The canonical orientation numbers the
    components in the order in which the crossings, in x-order and each
    over-strand before its under-strand, first meet them, and the first
    strand met on each runs rightward; the crossing-free loops come last.
    A crossing's sign is the product of its two strands' directions, +1
    for rightward.
    """
    strands: list[int] = []  # the strand at each position, top first
    # the strand that each strand's right cusp joins; strands 2k and
    # 2k + 1 share a left cusp
    mate: list[int] = []
    crossed: list[int] = []  # over- and under-strand of each crossing

    for i, event in enumerate(events):
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
            t = len(mate)
            mate += (t, t)
            strands[pos - 1 : pos - 1] = (t, t + 1)
            continue
        if kind not in ("R", "X"):
            raise MalformedToken(f"event {i}: unknown kind {kind!r}")
        if pos + 1 > len(strands):
            raise StrandUnderflow(
                f"event {i}: {kind}{pos} needs strands {pos},{pos + 1} "
                f"but only {len(strands)} exist"
            )
        s, t = strands[pos - 1], strands[pos]
        if kind == "R":
            mate[s], mate[t] = t, s
            del strands[pos - 1 : pos + 1]
        else:  # crossing: the strand at p goes over, from NW to SE
            crossed += (s, t)
            strands[pos - 1], strands[pos] = t, s

    if strands:
        raise NonzeroEndState(f"{len(strands)} strands remain after the last event")
    # +1 for a rightward strand, -1 for a leftward one, 0 on a component
    # not met yet; the crossed strands first, then every strand's left
    # cusp, so the loops with no crossing come last
    way = [0] * len(mate)
    component = [0] * len(mate)
    count = 0
    for s in chain(crossed, range(0, len(mate), 2)):
        if not way[s]:
            x = s
            while True:
                way[x], way[x ^ 1] = 1, -1
                component[x] = component[x ^ 1] = count
                x = mate[x ^ 1]
                if x == s:
                    break
            count += 1
    ways = list(map(way.__getitem__, crossed))
    return ways, list(map(component.__getitem__, crossed)), count


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
