"""Front parsing, validation, desingularization, and tb."""

import time
from collections import Counter

import pytest
from hypothesis import Phase, assume, example, given, settings

from khfront import (
    BUNDLED,
    Disconnected,
    FrontDiagram,
    LinkDiagram,
    MalformedToken,
    NonzeroEndState,
    StrandUnderflow,
    TooLarge,
    bigrading_counts,
    khovanov_homology,
    parse_front,
    sharpness_report,
    tait_graph,
)
from khfront.front import EVENT_LIMIT

from conftest import front_words
from pd_codec import from_pd, to_pd, white_corner
from tait_reference import face_of_corner, face_walk_graphs

TREFOIL = "L1 L2 X1 X1 X1 R2 R1"


def sphere_regions(d) -> int:
    """Regions of the sphere: the faces traced by the reference and one
    more per free loop; k disjoint circles alone make k + 1."""
    return len(set(face_of_corner(d))) + d.free_loops + (d.n == 0)


def face_sizes(d) -> list[int]:
    """The number of corners of each face, in ascending order."""
    return sorted(Counter(face_of_corner(d)).values())


def census_of_both_colorings(graphs) -> list:
    return sorted(sorted(bigrading_counts(g).items()) for g in graphs)


class TestParsing:
    def test_unknot_word(self):
        f = parse_front("L1 R1")
        assert f.cusp_count == 1
        assert f.crossing_count == 0
        assert f.word() == "L1 R1"

    def test_trefoil_word(self):
        f = parse_front(TREFOIL)
        assert f.cusp_count == 2
        assert f.crossing_count == 3

    def test_one_crossing_kink_parses(self):
        f = parse_front("L1 L2 X1 R2 R1")
        assert f.crossing_count == 1

    def test_malformed_token(self):
        with pytest.raises(MalformedToken):
            parse_front("L1 Q3 R1")
        with pytest.raises(MalformedToken):
            parse_front("L0 R1")

    @pytest.mark.parametrize(
        "events, index",
        [
            ((("L", True), ("R", True)), 0),
            ((("X", "1"),), 0),
            ((("L", 1, 2),), 0),
            ((("L", 1.5), ("R", 1)), 0),
            ((("L", 1), ("R", 1), "R1"), 2),
        ],
        ids=["bool", "str", "triple", "float", "token"],
    )
    def test_event_that_is_no_kind_and_int_pair(self, events, index):
        # each must name its event: a bool passes for an int, a float or
        # a str fails with a bare TypeError, a triple with a ValueError
        with pytest.raises(MalformedToken, match=f"event {index}: "):
            FrontDiagram(events)

    @pytest.mark.parametrize(
        "word, message",
        [
            ("L1 X2 R1", "X2 needs strands 2,3 but only 2 exist"),
            ("L2 R1", "left cusp at position 2 with 0 strands"),
            ("L1 R2", "R2 needs strands 2,3 but only 2 exist"),
        ],
    )
    def test_strand_underflow(self, word, message):
        with pytest.raises(StrandUnderflow, match=message):
            parse_front(word)

    def test_nonzero_end_state(self):
        with pytest.raises(NonzeroEndState):
            parse_front("L1 L2")

    def test_one_event_past_the_limit_is_refused(self):
        # four cusps and EVENT_LIMIT - 3 crossings
        events = (("L", 1), ("L", 2)) + (("X", 1),) * (EVENT_LIMIT - 3)
        events += (("R", 2), ("R", 1))
        with pytest.raises(TooLarge, match=str(EVENT_LIMIT)):
            parse_front(" ".join(f"{kind}{pos}" for kind, pos in events))
        with pytest.raises(TooLarge):
            FrontDiagram(events)

    def test_a_word_at_the_limit_parses(self):
        # EVENT_LIMIT events, with whitespace around them, split into
        # EVENT_LIMIT tokens
        word = " L1 L2 " + "X1 " * (EVENT_LIMIT - 4) + "R2 R1 \n"
        assert parse_front(word).crossing_count == EVENT_LIMIT - 4

    @pytest.mark.parametrize("token", ["X1", "Q1"])
    def test_ten_million_tokens_are_refused_before_matching(self, token):
        # the word is split one token past the limit and refused there,
        # so a malformed word that long is too large before it is malformed
        word = f"{token} " * 10**7
        start = time.perf_counter()
        with pytest.raises(TooLarge, match=str(EVENT_LIMIT)):
            parse_front(word)
        assert time.perf_counter() - start < 1

    def test_disconnected(self):
        # two circles side by side or nested that never interact: the word
        # parses, and the Tait sweep refuses it, for the census too
        for word in ("L1 R1 L1 R1", "L1 L1 R1 R1"):
            front = parse_front(word)
            assert front.desingularize().free_loops == 2
            with pytest.raises(Disconnected):
                tait_graph(front)
            with pytest.raises(Disconnected):
                sharpness_report(front)

    @pytest.mark.parametrize("make", [
        lambda: parse_front(""),
        lambda: parse_front(" \n "),
        lambda: FrontDiagram(()),
    ])
    def test_empty_word(self, make):
        with pytest.raises(MalformedToken, match="empty front word"):
            make()


class TestMeasures:
    def test_unknot_tb(self):
        assert parse_front("L1 R1").tb() == -1

    def test_stabilized_unknot_tb(self):
        assert parse_front("L1 L2 R1 R1").tb() == -2

    def test_trefoil_tb(self):
        f = parse_front(TREFOIL)
        assert f.desingularize().writhe() == 3
        assert f.tb() == 1

    def test_kink_tb(self):
        f = parse_front("L1 L2 X1 R2 R1")
        assert f.desingularize().writhe() == 1
        assert f.tb() == -1

    @pytest.mark.parametrize("entry", BUNDLED, ids=lambda e: e.name)
    def test_bundled_entry_records_its_front(self, entry):
        front = entry.front()
        assert entry.crossings == front.crossing_count
        assert entry.components == front.desingularize().component_count()
        assert entry.tb == front.tb()


class TestDesingularization:
    def test_unknot_diagram(self):
        d = parse_front("L1 R1").desingularize()
        assert d.n == 0
        assert d.component_count() == 1
        assert sphere_regions(d) == 2

    def test_trefoil_diagram(self):
        d = parse_front(TREFOIL).desingularize()
        assert d.n == 3
        assert d.component_count() == 1
        assert sphere_regions(d) == 5  # V - E + F = 3 - 6 + 5 = 2

    def test_hopf_front_components(self):
        d = parse_front("L1 L2 X1 X1 R2 R1").desingularize()
        assert d.n == 2
        assert d.component_count() == 2

    @settings(max_examples=60, deadline=None)
    @given(front_words(max_crossings=8))
    # a two-arc component that passes over only: as many rising labels as
    # falling, so the code alone does not say which way it runs
    @example(parse_front("L1 X1 L1 X2 X1 L1 R2 R2 R1"))
    def test_pd_round_trip(self, front):
        # the re-import orders its arcs by PD label and seeds its coloring
        # at the longest face, so its face walks start elsewhere.  A
        # crossing listed from NE is turned half way round, which keeps
        # every passage's left port, so the re-import walks its components
        # in the same order from the same passages; the flips orient them
        # as the code does, so the writhe and the exported code are the
        # same
        d = front.desingularize()
        assume(d.n > 0)  # a PD code holds no crossing-free loop
        d2, flips = from_pd(to_pd(d))
        assert d2.n == d.n
        assert d2.component_count() == d.component_count()
        assert face_sizes(d2) == face_sizes(d)
        assert d2.writhe(flips) == d.writhe()
        assert to_pd(d2, flips) == to_pd(d)
        assert census_of_both_colorings(
            face_walk_graphs(d2, white_corner(d2))
        ) == census_of_both_colorings((tait_graph(front), tait_graph(front, True)))

    def test_pd_round_trip_keeps_the_hopf_link_positive(self):
        # each component passes under once; one of them enters its under
        # passage from the right, so the code lists that crossing from NE
        d = parse_front("L1 L1 X2 X2 R1 R1").desingularize()
        d2, flips = from_pd(to_pd(d))
        assert d.writhe() == d2.writhe(flips) == 2
        assert (
            khovanov_homology(d2, flips=flips).groups
            == khovanov_homology(d).groups
        )
        # a code in the usual convention, read as it orients the link
        for code, writhe in (
            ([(1, 3, 2, 4), (3, 1, 4, 2)], 2),
            ([(1, 4, 2, 3), (3, 2, 4, 1)], -2),
        ):
            e, flips = from_pd(code)
            assert e.writhe(flips) == writhe


class TestDiagramChecks:
    """The constructor's checks on the arc list, each tripped by a crafted
    one-crossing diagram, whose ports are 0-3."""

    def test_port_used_twice(self):
        with pytest.raises(ValueError, match=r"port \(0, 0\) used twice"):
            LinkDiagram(1, [(0, 1), (0, 2)])

    @pytest.mark.parametrize("stray", [7, -1])
    def test_port_on_no_arc(self, stray):
        # an end on no crossing (a negative one must not index from the
        # back) leaves port 3 without an arc
        with pytest.raises(ValueError, match=r"port \(0, 3\) not attached"):
            LinkDiagram(1, [(0, 1), (2, stray)])

    def test_wrong_arc_count(self):
        with pytest.raises(ValueError, match="expected 2 arcs, got 3"):
            LinkDiagram(1, [(0, 1), (2, 3), (0, 2)])


class TestFrontProperties:
    @settings(max_examples=200, deadline=None)
    @given(front_words(max_crossings=12, max_cusp_pairs=5, connected=False))
    # the first component's kink comes before its two crossings with the
    # second, so orienting a new component by its under-strand first
    # would reverse it and flip the sign of both of those crossings
    @example(parse_front("L1 X1 L3 X2 X2 R1 R1"))
    def test_tb_is_writhe_minus_cusps(self, front):
        # the strands' crossing count and writhe are the diagram's
        d = front.desingularize()
        assert front.crossing_count == d.n
        assert front.tb() + front.cusp_count == d.writhe()

    @settings(max_examples=60, deadline=None)
    @given(front_words())
    def test_euler_formula(self, front):
        d = front.desingularize()
        assert d.n - 2 * d.n + sphere_regions(d) == 2

    @settings(max_examples=60, deadline=None)
    @given(front_words())
    def test_word_round_trip(self, front):
        assert parse_front(front.word()).events == front.events

    @settings(max_examples=60, deadline=None)
    @given(front_words())
    def test_crossing_signs_are_units(self, front):
        d = front.desingularize()
        assert all(s in (-1, 1) for s in d.crossing_signs())

    def test_random_fronts_reach_their_size(self):
        # crossings must not be dropped by closing the last right cusp
        # early, or the property tests only ever see small fronts
        sizes = []

        @settings(
            max_examples=100,
            deadline=None,
            derandomize=True,
            database=None,
            phases=[Phase.generate],
        )
        @given(front_words(max_crossings=8))
        def draw(front):
            sizes.append(front.crossing_count)

        draw()
        assert len(sizes) == 100
        assert sum(n >= 6 for n in sizes) >= 25, sorted(sizes)
