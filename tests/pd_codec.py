"""Planar-diagram (PD) codes for link diagrams, a test fixture.

A PD code lists each crossing as a 4-tuple of arc labels, counterclockwise
from the incoming under-strand.  The tests use it to renumber a front's
crossings (a shuffled code re-imports with its crossings in the shuffled
order) and to check a diagram against its re-import.
"""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Optional, Sequence

from link_diagram import NE, NW, SE, SW, LinkDiagram
from tait_reference import face_of_corner


def from_pd(code: Iterable[Sequence[int]]) -> tuple[LinkDiagram, list[bool]]:
    """The diagram of a PD code, and the flips that orient it as the code
    does.

    Tuple slots map to ports (SW, SE, NE, NW), so the under-strand runs
    SW-NE and the over-strand NW-SE at every crossing, and crossing c is
    the code's c-th tuple.  ``flips`` holds, for each component in
    canonical order, whether the code runs against the canonical walk:
    into NE ports, or, for a component that never passes under, along
    falling labels.  An over-only component with as many rising as
    falling labels (two arcs) leaves its first passage along the smaller
    label.  ``white_corner`` seeds the re-import's coloring.
    """
    code = [tuple(x) for x in code]
    ends_by_label: dict[int, list[int]] = {}
    label_at: dict[int, int] = {}
    for c, quad in enumerate(code):
        if len(quad) != 4:
            raise ValueError("PD crossing must have 4 arc labels")
        for p, label in zip((SW, SE, NE, NW), quad):
            ends_by_label.setdefault(label, []).append(4 * c + p)
            label_at[4 * c + p] = label
    arcs = []
    for label, ends in sorted(ends_by_label.items()):
        if len(ends) != 2:
            raise ValueError(f"arc label {label} appears {len(ends)} times")
        arcs.append((ends[0], ends[1]))
    d = LinkDiagram(len(code), arcs)
    flips = []
    for steps in d.components:
        # the under-strand's ports SW and NE are the odd ones
        under = [x for x in steps if x & 1]
        if under:
            flips.append(under[0] & 3 == NE)
            continue
        rises = sum(label_at[x ^ 2] > label_at[x] for x in steps)
        falls = sum(label_at[x ^ 2] < label_at[x] for x in steps)
        if rises == falls:
            flips.append(label_at[steps[0] ^ 2] > label_at[steps[0]])
        else:
            flips.append(falls > rises)
    return d, flips


def white_corner(d: LinkDiagram) -> Optional[int]:
    """A corner of a face with the most corners, at which to seed the
    coloring of a re-imported diagram (see
    ``tait_reference.face_walk_graphs``): on the sphere any face may play
    the unbounded one.  None without crossings."""
    if d.n == 0:
        return None
    face = face_of_corner(d)
    return face.index(Counter(face).most_common(1)[0][0])


def to_pd(
    d: LinkDiagram, flips: Optional[Sequence[bool]] = None
) -> list[tuple[int, int, int, int]]:
    """Export a PD code: labels count up along the canonical traversal,
    each component reversed where ``flips`` says so, and each crossing is
    listed counterclockwise from its incoming under-strand, which enters
    at SW or at NE."""
    mate = d.mate
    label = [0] * len(mate)
    under_from_ne = [False] * d.n
    count = 0
    for ci, steps in enumerate(d.components):
        if flips and flips[ci]:
            # the same first passage, entered from its other side
            steps = [x ^ 2 for x in steps[:1] + steps[:0:-1]]
        for x in steps:
            out = x ^ 2
            if not label[out]:
                count += 1
                label[out] = label[mate[out]] = count
            if x & 3 == NE:
                under_from_ne[x >> 2] = True
    return [
        (label[x + NE], label[x + NW], label[x + SW], label[x + SE])
        if under_from_ne[x >> 2]
        else (label[x + SW], label[x + SE], label[x + NE], label[x + NW])
        for x in range(0, len(mate), 4)
    ]
