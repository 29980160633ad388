"""Independent verification back-ends: integer Khovanov homology by
Bar-Natan's scanning algorithm, and the Jones polynomial as a state sum
in q swept over matchings.

Both work directly on a LinkDiagram and share nothing with the spanning
tree model beyond the diagram itself, so agreement between the two sides
is meaningful evidence.

Khovanov homology is computed one crossing at a time (D. Bar-Natan, "Fast
Khovanov homology computations", JKTR 16 (2007), arXiv:math/0606318), so
the 2^n cube of resolutions is never built.  Crossings are added in index
order, which is x-order for a front, and the scan keeps a chain complex
for the tangle of the crossings added so far:

- an object is a matching of the tangle's boundary arcs, with a
  homological degree h and a quantum shift q; it never holds a closed
  loop;
- a morphism a -> b is an integer combination of dotted-disk cobordisms:
  one disk per circle of a and the mirror of b, each disk with or without
  a dot, which is the basis of Khovanov's arc algebra over A = Z[x]/x^2
  (Khovanov, "A functor-valued invariant of tangles", AGT 2 (2002)).  It
  is stored as {bitmask of dotted circles: coefficient}, the circles
  numbered by their least boundary arc;
- adding a crossing tensors the complex with [A-smoothing -> B-smoothing],
  the saddle carrying the Koszul sign (-1)^h, and delooping replaces every
  closed loop by two loopless summands with q shifted by +1 and -1;
- d∘d = 0 is checked on every such partial complex, and then every entry
  that is +-identity between equal objects is cancelled by Gaussian
  elimination, which leaves the complex homotopy equivalent.

Every object with the same matching meets the crossing the same way, so
the scan works per matching, not per object: each crossing glues each
matching to each smoothing once, by one splice of two strands per pair
of the smoothing, and builds the surface of each tensor entry a -> b
once per (a, b, smoothings), with its evaluation per dot mask already
split into summand offsets and terms; these live for one crossing.
Composites, which serve the d∘d check and the elimination, keep their
surface and their evaluation per dot mask per matching triple for the
whole scan, as arcs keep their ids from one crossing to the next.

After the last crossing the boundary is empty and every morphism is an
integer.  Each residual (i, j) block, large and sparse on torsion-heavy
links (hundreds of rows of +-2 entries), goes through the sparse Smith
reduction of ``snf``, which works on the block's own row and column
dicts.  Crossing-free loops never enter the scan: by the Künneth formula
each one tensors the table with the unknot's, a free group, in one step.

The Jones polynomial is the state sum in Khovanov's normalisation (D.
Bar-Natan, "On Khovanov's categorification of the Jones polynomial", AGT 2
(2002), arXiv:math/0201043): a state with r 1-smoothings and k loops
weighs (-q)^r (q + 1/q)^k, and the sum is multiplied by
(-1)^{n-} q^{n+ - 2 n-}, so the unknot maps to q + 1/q.  It is not summed
over the 2^n states but swept over the crossings in index order, keeping
one Laurent polynomial per matching of the open arc-ends (a Temperley-Lieb
state): each crossing joins every matching with its A-smoothing (weight 1)
and its B-smoothing (weight -q), and each loop that closes multiplies by
q + 1/q.  On a front the open arc-ends are the strands cut by the sweep
line, so a front whose line cuts at most w strands holds at most
Catalan(w/2) matchings; the sweep raises TooLarge past
``JONES_STATE_LIMIT`` = 2048 of them.  It shares no code with the scan,
so the homology's graded Euler characteristic against the Jones
polynomial stays an independent check.

Conventions: the unknot has homology Z at (0, -1) and (0, 1) (unreduced,
graded Euler characteristic (q + 1/q) times the Jones polynomial); the
0-smoothing of a crossing is the A-smoothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .diagram import A_PAIRS, B_PAIRS, LinkDiagram, _find
from .errors import ConventionError, EmptyTable, TooLarge
from .laurent import LaurentPoly
from .snf import invariant_factors

DEFAULT_MAX_CROSSINGS = 14
#: most matchings the Jones sweep holds after a crossing.  After k of n
#: crossings it holds at most 2^k matchings, and at most the number of
#: matchings of the <= 4(n - k) open arc-ends, so at most 2^11 for
#: n <= 14: the limit never trips under the default crossing limit
JONES_STATE_LIMIT = 2**11

Matching = tuple[tuple[int, int], ...]  # sorted pairs (u, v), u < v, of arc ids
Morphism = dict[int, int]  # dotted-circle bitmask -> coefficient

#: port -> disk of the identity cobordism on the A- or B-smoothing
_STRIP = tuple(
    tuple(k for p in range(4) for k, pair in enumerate(pairs) if p in pair)
    for pairs in (A_PAIRS, B_PAIRS)
)
#: port -> disk of the saddle A -> B, a single disk
_SADDLE = (0, 0, 0, 0)


@dataclass(frozen=True)
class BigradedTable:
    """Finitely supported table of abelian groups indexed by (i, j):
    a free rank and a tuple of torsion orders per bidegree."""

    groups: dict[tuple[int, int], tuple[int, tuple[int, ...]]]

    def __post_init__(self):
        # a filtered copy: the caller's dict is left as it was
        nonzero = {key: g for key, g in self.groups.items() if g[0] or g[1]}
        object.__setattr__(self, "groups", nonzero)

    def min_delta(self) -> int:
        """min of j - i over the support; the diagram-side bound datum."""
        if not self.groups:
            raise EmptyTable("homology table has empty support")
        return min(j - i for i, j in self.groups)

    def graded_euler(self) -> LaurentPoly:
        total = LaurentPoly.zero()
        for (i, j), (rank, _) in self.groups.items():
            total = total + LaurentPoly.monomial(j, ((-1) ** (i % 2)) * rank)
        return total

    def to_json_dict(self) -> dict:
        return {
            "groups": [
                {"i": i, "j": j, "rank": rank, "torsion": list(torsion)}
                for (i, j), (rank, torsion) in sorted(self.groups.items())
            ]
        }

    def pretty(self) -> str:
        lines = []
        for (i, j), (rank, torsion) in sorted(self.groups.items()):
            parts = ["Z"] * rank + [f"Z/{t}" for t in torsion]
            lines.append(f"  ({i:>3}, {j:>3})  " + " + ".join(parts))
        return "\n".join(lines) or "  (empty)"


def _circle() -> LaurentPoly:
    """q + 1/q, the unknot's value."""
    return LaurentPoly.monomial(1) + LaurentPoly.monomial(-1)


def _check_oracle_input(d: LinkDiagram, max_crossings: int) -> None:
    if max_crossings < 0:
        raise ValueError(f"max_crossings must be 0 or more, not {max_crossings}")
    if d.n > max_crossings:
        raise TooLarge(
            f"{d.n} crossings exceeds the oracle limit of {max_crossings}"
        )


def _partner(a) -> dict[int, int]:
    """Each end of the pairs ``a`` -> the other end of its pair."""
    got = {}
    for u, v in a:
        got[u] = v
        got[v] = u
    return got


def _surface(n_disks: int, seams, circle_disk) -> list[tuple[int, int, int]]:
    """Components of ``n_disks`` disks glued along the intervals ``seams``
    (pairs of disks), as (disk mask, genus, boundary-circle mask) triples;
    ``circle_disk[k]`` is a disk that boundary circle k runs along."""
    parent = list(range(n_disks))
    for a, b in seams:
        ra, rb = _find(parent, a), _find(parent, b)
        if ra != rb:
            parent[ra] = rb
    root = [_find(parent, x) for x in range(n_disks)]
    chi = [0] * n_disks
    disks = [0] * n_disks
    circles = [0] * n_disks
    for x, r in enumerate(root):
        chi[r] += 1
        disks[r] |= 1 << x
    for a, _ in seams:
        chi[root[a]] -= 1
    for k, x in enumerate(circle_disk):
        circles[root[x]] |= 1 << k
    comps = []
    for r in range(n_disks):
        if disks[r]:
            two_g = 2 - circles[r].bit_count() - chi[r]
            if two_g < 0 or two_g % 2:
                raise ConventionError(
                    f"surface with chi={chi[r]} and "
                    f"{circles[r].bit_count()} boundary circles"
                )
            comps.append((disks[r], two_g // 2, circles[r]))
    return comps


def _evaluate(comps, dots: int) -> Morphism:
    """The surface ``comps`` with a dot on each disk in the mask ``dots``,
    written in the dotted-disk basis of its boundary circles: a component
    whose dots and genus sum to 2 or more is 0, to 1 gives 2^genus times
    all its circles dotted, and to 0 (neck cutting) the sum over its
    circles of all circles but that one dotted."""
    terms = {0: 1}
    for disks, genus, circles in comps:
        e = genus + (dots & disks).bit_count()
        if e >= 2:
            return {}
        if e == 1:
            terms = {m | circles: v << genus for m, v in terms.items()}
        else:
            singles = []
            rest = circles
            while rest:
                bit = rest & -rest
                singles.append(circles ^ bit)
                rest ^= bit
            terms = {m | s: v for m, v in terms.items() for s in singles}
    return terms


def _add_into(row: dict, y: int, key: int, value: int) -> None:
    """Add ``value`` to term ``key`` of the morphism ``row[y]``, dropping
    terms and entries that cancel to zero."""
    entry = row.setdefault(y, {})
    total = entry.get(key, 0) + value
    if total:
        entry[key] = total
    else:
        del entry[key]
        if not entry:
            del row[y]


class _Complex:
    """A chain complex over the dotted cobordisms of one tangle.

    ``objs[x]`` is (matching, h, q) and ``out[x]`` maps each y to the
    morphism x -> y of the differential.  Circle numberings are cached
    per matching pair, and the surface of a composite a -> b -> c with its
    evaluation per dot mask per matching triple, for the life of the
    complex, which is the whole scan since arcs keep their ids from one
    crossing to the next; partner dicts are not cached, each numbering
    builds the two it needs.  ``add_crossing`` caches its gluings per
    (matching, smoothing) and its tensor surfaces and their split
    evaluations per (a, b, smoothings) for that crossing only.
    """

    def __init__(self, objs: list[tuple[Matching, int, int]], out: list[dict]):
        self.objs = objs
        self.out = out
        self._circles: dict[tuple[Matching, Matching], tuple[dict, int]] = {}
        #: (a, b, c) -> (circle count of a and b, surface of the composite,
        #: {dotted-disk mask: its evaluation})
        self._composites: dict[tuple[Matching, Matching, Matching], tuple] = {}

    def circles(self, a: Matching, b: Matching) -> tuple[dict[int, int], int]:
        """Circles of a and the mirror of b: arc -> circle number, with
        circles numbered in order of their least arc; and their count."""
        key = (a, b)
        got = self._circles.get(key)
        if got is None:
            pa, pb = _partner(a), _partner(b)
            num: dict[int, int] = {}
            k = 0
            for u in sorted(pa):
                if u in num:
                    continue
                while u not in num:
                    num[u] = k
                    v = pa[u]
                    num[v] = k
                    u = pb[v]
                k += 1
            got = self._circles[key] = (num, k)
        return got

    def compose(self, f: Morphism, g: Morphism, a, b, c) -> Morphism:
        """g∘f for f: a -> b and g: b -> c: the disks of both glued along
        the arcs of b."""
        got = self._composites.get((a, b, c))
        if got is None:
            num_ab, n_ab = self.circles(a, b)
            num_bc, n_bc = self.circles(b, c)
            num_ac, n_ac = self.circles(a, c)
            seams = [(num_ab[u], n_ab + num_bc[u]) for u, _ in b]
            owner = [0] * n_ac
            for u, k in num_ac.items():
                owner[k] = num_ab[u]
            comps = _surface(n_ab + n_bc, seams, owner)
            got = self._composites[(a, b, c)] = (n_ab, comps, {})
        n_ab, comps, evals = got
        total: Morphism = {}
        for s, u in f.items():
            for t, v in g.items():
                mask = s | t << n_ab
                terms = evals.get(mask)
                if terms is None:
                    terms = evals[mask] = _evaluate(comps, mask)
                for m, w in terms.items():
                    total[m] = total.get(m, 0) + u * v * w
        return {m: v for m, v in total.items() if v}

    # -- one crossing -------------------------------------------------------

    def add_crossing(self, d: LinkDiagram, c: int) -> None:
        """Replace the complex by that of this tangle with crossing c
        added, every closed loop delooped.  An arc is labelled by its
        lower port."""
        # each port's end at c: its arc if the arc comes from an earlier
        # crossing, else -1 - port, joined first to the arc's other end (a
        # later crossing's arc 4c + port, or the other end of a self-arc)
        x0 = 4 * c
        ends = list(enumerate(d.mate[x0 : x0 + 4]))
        label = [y if y < x0 else -1 - p for p, y in ends]
        fresh = [(x0 + p, -1 - p) for p, y in ends if y >= x0 + 4]
        fresh += [(-1 - p, -1 - (y & 3)) for p, y in ends if x0 + p < y < x0 + 4]

        def glue(a: Matching, s: int) -> tuple[Matching, list[int]]:
            """Matching a with smoothing s at c: the new matching, and one
            port on each closed loop."""
            mate = _partner((*a, *fresh))
            loops = []
            for p, q in (A_PAIRS, B_PAIRS)[s]:
                x, y = label[p], label[q]
                mx = mate.pop(x)
                if mx == y:
                    del mate[y]
                    loops.append(p)
                else:
                    my = mate.pop(y)
                    mate[mx] = my
                    mate[my] = mx
            return tuple(sorted((u, v) for u, v in mate.items() if u < v)), loops

        glued: dict[tuple[Matching, int], tuple[Matching, list[int]]] = {}
        objs: list[tuple[Matching, int, int]] = []
        first: list[int] = []  # 2x + s -> first summand of (x, s)
        for a, h, q in self.objs:
            for s in (0, 1):
                got = glued.get((a, s))
                if got is None:
                    got = glued[(a, s)] = glue(a, s)
                a2, loops = got
                first.append(len(objs))
                n_loops = len(loops)
                # summand m: loop k labelled v+ (q + 1) iff bit k of m is set
                objs += [
                    (a2, h + s, q + s + 2 * m.bit_count() - n_loops)
                    for m in range(1 << n_loops)
                ]
        out: list[dict] = [{} for _ in objs]

        def surface(a: Matching, b: Matching, s: int, t: int):
            """The surface of (the identity of s, or the saddle s -> t)
            glued to the disks of a -> b, and what splitting its terms
            needs: the circle count of the glued matchings, the source
            loop count and the mask that flips target loop labels."""
            a2, src_loops = glued[(a, s)]
            b2, tgt_loops = glued[(b, t)]
            num_ab, n_ab = self.circles(a, b)
            disk = [n_ab + k for k in (_STRIP[s] if s == t else _SADDLE)]
            seams = [(num_ab[y], disk[p]) for p, y in enumerate(label) if y >= 0]
            seams += [(disk[~u], disk[~v]) for u, v in fresh if u < 0]
            num2, n2 = self.circles(a2, b2)
            owner = [0] * n2
            for u, k in num2.items():
                owner[k] = disk[u & 3] if u >> 2 == c else num_ab[u]
            owner += [disk[p] for p in src_loops + tgt_loops]
            comps = _surface(n_ab + (2 if s == t else 1), seams, owner)
            return comps, n2, len(src_loops), (1 << len(tgt_loops)) - 1

        #: (a, b, s, t) -> (surface, {dot mask: [(source summand offset,
        #: target summand offset, key, coefficient)]})
        tables: dict[tuple[Matching, Matching, int, int], tuple] = {}

        def tensor(x, y, s, t, f: Morphism) -> None:
            """Add f ⊗ (the identity of s, or the saddle s -> t) from the
            summands of (x, s) to those of (y, t)."""
            key = (self.objs[x][0], self.objs[y][0], s, t)
            got = tables.get(key)
            if got is None:
                got = tables[key] = (surface(*key), {})
            (comps, n2, n_src, flip), split = got
            src, tgt = first[2 * x + s], first[2 * y + t]
            for dots, coef in f.items():
                terms = split.get(dots)
                if terms is None:
                    # a source loop survives delooping on its v+ summand
                    # with a dot and on its v- summand without; a target
                    # loop the other way
                    terms = split[dots] = [
                        (
                            (m >> n2) & ((1 << n_src) - 1),
                            flip ^ (m >> (n2 + n_src)),
                            m & ((1 << n2) - 1),
                            v,
                        )
                        for m, v in _evaluate(comps, dots).items()
                    ]
                for i, j, m, v in terms:
                    _add_into(out[src + i], tgt + j, m, coef * v)

        for x, (_, h, _) in enumerate(self.objs):
            for y, f in self.out[x].items():
                tensor(x, y, 0, 0, f)
                tensor(x, y, 1, 1, f)
            tensor(x, x, 0, 1, {0: -1 if h % 2 else 1})
        self.objs, self.out = objs, out

    # -- checks and elimination ---------------------------------------------

    def check_d_squared_zero(self) -> None:
        """Raise ConventionError unless every composite x -> y -> z of the
        differential sums to zero."""
        objs, out = self.objs, self.out
        for x, row in enumerate(out):
            total: dict[int, Morphism] = {}
            for y, f in row.items():
                for z, g in out[y].items():
                    fg = self.compose(f, g, objs[x][0], objs[y][0], objs[z][0])
                    for m, v in fg.items():
                        _add_into(total, z, m, v)
            if total:
                raise ConventionError(
                    f"differential does not square to zero on object {x}"
                )

    def eliminate(self) -> None:
        """Gaussian elimination: while some entry u = d(x, y) is +-identity
        between equal objects, replace d(x', y') by d(x', y') - d(x, y')
        u d(x', y) for every other x' into y and y' out of x, and delete x
        and y, which leaves the complex homotopy equivalent."""
        objs = self.objs
        out: list[Optional[dict]] = self.out
        inc: list[Optional[set[int]]] = [set() for _ in objs]
        for x, row in enumerate(out):
            for y in row:
                inc[y].add(x)
        work = list(range(len(objs)))
        while work:
            x = work.pop()
            row = out[x]
            if not row:
                continue
            a, _, q = objs[x]
            units = [
                (len(inc[y]), y)
                for y, f in row.items()
                if len(f) == 1 and f.get(0) in (1, -1) and objs[y][0] == a
                and objs[y][2] == q
            ]
            if not units:
                continue
            y = min(units)[1]
            u = row.pop(y)[0]
            inc[y].discard(x)
            for xp in inc[y]:
                rp = out[xp]
                delta = rp.pop(y)
                for yp, gamma in row.items():
                    prod = self.compose(delta, gamma, objs[xp][0], a, objs[yp][0])
                    for m, v in prod.items():
                        _add_into(rp, yp, m, -u * v)
                    if yp in rp:
                        inc[yp].add(xp)
                    else:
                        inc[yp].discard(xp)
                work.append(xp)
            for yp in row:
                inc[yp].discard(x)
            for xp in inc[x]:
                del out[xp][x]
            for z in out[y]:
                inc[z].discard(y)
            out[x] = out[y] = inc[x] = inc[y] = None
        keep = [x for x, row in enumerate(out) if row is not None]
        new_id = {x: k for k, x in enumerate(keep)}
        self.objs = [objs[x] for x in keep]
        self.out = [{new_id[y]: f for y, f in out[x].items()} for x in keep]


def khovanov_homology(
    d: LinkDiagram,
    flips: Optional[Sequence[bool]] = None,
    max_crossings: int = DEFAULT_MAX_CROSSINGS,
) -> BigradedTable:
    """Integer Khovanov homology of an oriented diagram, scanned one
    crossing at a time.

    The square of the differential is verified to vanish on every partial
    complex, before its +-identity entries are cancelled; each residual
    bidegree block goes through Smith normal form.  The k crossing-free
    loops then tensor the table with (Z(0, 1) + Z(0, -1))^k (Künneth), so
    a crossing-free diagram has (q + 1/q)^k at i = 0, the empty one Z at
    (0, 0).
    """
    _check_oracle_input(d, max_crossings)
    n_plus, n_minus = d.positive_negative(flips)
    cx = _Complex([((), 0, 0)], [{}])
    for c in range(d.n):
        cx.add_crossing(d, c)
        cx.check_d_squared_zero()
        cx.eliminate()

    # the boundary is empty, so every entry is an integer; reduce each
    # block d: (i, j) -> (i + 1, j), its entries keyed by object
    deg = [(h - n_minus, q + n_plus - 2 * n_minus) for _, h, q in cx.objs]
    dims: dict[tuple[int, int], int] = {}
    for ij in deg:
        dims[ij] = dims.get(ij, 0) + 1
    blocks: dict[tuple[int, int], dict[tuple[int, int], int]] = {}
    for x, row in enumerate(cx.out):
        for y, f in row.items():
            blocks.setdefault(deg[x], {})[(y, x)] = f[0]
    factors = {ij: invariant_factors(mat) for ij, mat in blocks.items()}
    # Z(0, 1) + Z(0, -1) is free, so there is no Tor term: the group at
    # (i, j) lands at (i, j + e) c times for each term c q^e of (q + 1/q)^k
    shifts = (_circle() ** d.free_loops).items()
    groups: dict[tuple[int, int], tuple[int, tuple[int, ...]]] = {}
    for (i, jq), dim in dims.items():
        f_in = factors.get((i - 1, jq), ())
        free = dim - len(factors.get((i, jq), ())) - len(f_in)
        if free < 0:
            raise ConventionError(f"negative free rank at (i, j) = ({i}, {jq})")
        torsion = tuple(t for t in f_in if t > 1)
        for e, c in shifts:
            rank, tors = groups.get((i, jq + e), (0, ()))
            groups[(i, jq + e)] = (rank + c * free, tuple(sorted(tors + torsion * c)))
    return BigradedTable(groups)


def kauffman_jones(
    d: LinkDiagram,
    flips: Optional[Sequence[bool]] = None,
    max_crossings: int = DEFAULT_MAX_CROSSINGS,
) -> LaurentPoly:
    """Unreduced Jones polynomial in q, in Khovanov's normalisation
    (Bar-Natan, AGT 2 (2002), arXiv:math/0201043):

        (-1)^{n-} q^{n+ - 2 n-} * sum over states of (-q)^b (q + 1/q)^k

    where a state has b B-smoothings (1-smoothings) and k loops; the
    unknot maps to q + 1/q.

    The sum is swept over the crossings in index order, keeping one
    polynomial per matching of the open arc-ends: each crossing joins
    every matching with the A-smoothing (weight 1) and the B-smoothing
    (weight -q), and each loop that closes multiplies by q + 1/q.  Raises
    TooLarge when more than ``JONES_STATE_LIMIT`` matchings are held after
    a crossing, and ConventionError unless the sweep ends on the empty
    matching."""
    _check_oracle_input(d, max_crossings)
    # q-exponent -> coefficient of (1 or -q) (q + 1/q)^k, by smoothing and k
    weight = [
        [
            (LaurentPoly.monomial(s, (-1) ** s) * _circle() ** k).coeffs
            for k in range(3)
        ]
        for s in (0, 1)
    ]
    # the open arc-ends are labelled by arc, an arc by its lower port; a
    # matching is a sorted tuple of pairs of labels, each pair joined by a
    # strand of the tangle swept
    states: dict[Matching, dict[int, int]] = {(): {0: 1}}
    for c in range(d.n):
        # each port's end at c: its arc if that arc is open, else -1 - port,
        # joined first to the arc's other end (an open label or a port)
        label = [0] * 4
        fresh = []
        for p in range(4):
            y = d.mate[4 * c + p]
            other_c, other_p = divmod(y, 4)
            if other_c < c:
                label[p] = y  # the lower port of an arc from an earlier c
                continue
            label[p] = -1 - p
            if other_c > c:
                fresh.append((4 * c + p, -1 - p))
            elif p < other_p:
                fresh.append((-1 - p, -1 - other_p))
        swept: dict[Matching, dict[int, int]] = {}
        for matching, poly in states.items():
            for s, pairs in enumerate((A_PAIRS, B_PAIRS)):
                mate = {}
                for u, v in (*matching, *fresh):
                    mate[u] = v
                    mate[v] = u
                loops = 0
                for p, q in pairs:
                    x, y = label[p], label[q]
                    mx = mate.pop(x)
                    if mx == y:
                        del mate[y]
                        loops += 1
                    else:
                        my = mate.pop(y)
                        mate[mx] = my
                        mate[my] = mx
                key = tuple(sorted((u, v) for u, v in mate.items() if u < v))
                into = swept.setdefault(key, {})
                for de, dv in weight[s][loops].items():
                    for e, v in poly.items():
                        into[e + de] = into.get(e + de, 0) + v * dv
        states = swept
        if len(states) > JONES_STATE_LIMIT:
            raise TooLarge(
                f"the Jones sweep holds {len(states)} matchings after "
                f"crossing {c}, over the limit of {JONES_STATE_LIMIT}"
            )
    if list(states) != [()]:
        raise ConventionError(
            f"the Jones sweep ended on {len(states)} matchings, not the empty one"
        )
    n_plus, n_minus = d.positive_negative(flips)
    total = LaurentPoly(states[()]) * _circle() ** d.free_loops
    return LaurentPoly.monomial(n_plus - 2 * n_minus, (-1) ** n_minus) * total
