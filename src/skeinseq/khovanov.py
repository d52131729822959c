"""Cube-of-resolutions chain complexes from planar diagrams.

PD crossings are 4-tuples of arc ids read cyclically; the 0-smoothing of
X(a,b,c,d) joins (a,d) and (b,c), the 1-smoothing joins (a,b) and (c,d).
The coefficient algebra assigns each resolved circle the rank-2 module
with labels 1, x and relation x^2 = U.  ckh builds one cube, the minus
complex C: a free module over F2[u] with u the label action of the marked
point, so U = u^2.  The other flavours are its quotients, hat C/U = C/u^2
and reduced C/u.

C is built in the basis y = x + u on every free circle, the trivial change
of Frobenius system of Khovanov's "Link homology and Frobenius extensions"
(Fund. Math. 2006): over F2, y^2 = x^2 + u^2 = 0, and y acts as 0 on the
marked circle.  In that basis the differential has no u at all, so C is
(C mod u) tensor F2[u], and ckh writes only the u^0 entries of the x-basis
cube, which are C mod u itself, as F2 bitsets over the blocks of one grade
(its ChainComplex is a view).  So Khr = H(C/u), read off them by khr, gives
every flavour, minus Khr tensor F2[u] and hat Khr tensor F2[u]/u^2
(cli.cmd_kh), and determinant, which shares no code with the cube, checks it
on planar diagrams.
"""

from __future__ import annotations

import re
from itertools import accumulate
from math import comb
from operator import add
from dataclasses import dataclass, field
from functools import cached_property

from .complexes import (CONV_KH, MAX_CUBE_GENERATORS, MAX_CUBE_VERTICES, ChainComplex, ChainMap,
                        Expansion, Generator)
from .poly import HALF, Poly, VarSet

Crossing = tuple[int, int, int, int]


def _classes(arcs, pairs) -> dict[int, int]:
    """Each arc's class root once the two arcs of every pair are joined."""
    parent = {a: a for a in arcs}

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in pairs:
        parent[find(a)] = find(b)
    return {a: find(a) for a in arcs}


@dataclass(frozen=True)
class LinkDiagram:
    crossings: tuple[Crossing, ...]
    free_loops: int = 0

    def __post_init__(self) -> None:
        counts: dict[int, int] = {}
        for cr in self.crossings:
            if len(cr) != 4:
                raise ValueError("crossing needs 4 arcs: %r" % (cr,))
            for a in cr:
                if a < 0:
                    raise ValueError(
                        "crossing arc %r is negative; negative ids name free loops" % a
                    )
                counts[a] = counts.get(a, 0) + 1
        bad = {a: c for a, c in counts.items() if c != 2}
        if bad:
            raise ValueError("arcs must appear exactly twice: %r" % (bad,))
        if self.free_loops < 0:
            raise ValueError("negative free loop count")
        if not self.crossings and not self.free_loops:
            raise ValueError("no crossings (use the unknot token 'U')")

    def _is_loop_arc(self, arc: int) -> bool:
        return -self.free_loops <= arc <= -1

    @property
    def arcs(self) -> tuple[int, ...]:
        out = {a for cr in self.crossings for a in cr}
        out.update(range(-self.free_loops, 0))
        return tuple(sorted(out))

    def component_arcs(self) -> list[int]:
        """Least arc id of every link component, by strand-following."""
        reps: dict[int, int] = {}
        for a, r in _classes(self.arcs, [p for (a, b, c, d) in self.crossings
                                         for p in ((a, c), (b, d))]).items():
            reps[r] = min(reps.get(r, a), a)
        return sorted(reps.values())

    def components(self) -> int:
        """Number of link components."""
        return len(self.component_arcs())

    def faces(self) -> int:
        """The faces of the PD rotation system: each crossing lists its four
        arc ends counterclockwise, and a face turns to the next end at each
        crossing it reaches along an arc.  A connected diagram on the sphere
        has n + 2 (Euler); free loops add none.
        """
        ends: dict[int, list[tuple[int, int]]] = {}
        for c, crossing in enumerate(self.crossings):
            for i, arc in enumerate(crossing):
                ends.setdefault(arc, []).append((c, i))
        other = {}
        for a, b in ends.values():
            other[a], other[b] = b, a
        seen: set[tuple[int, int]] = set()
        count = 0
        for start in other:
            count += start not in seen
            end = start
            while end not in seen:
                seen.add(end)
                c, i = other[end]
                end = (c, (i + 1) % 4)
        return count


_PD_TOKEN = re.compile(r"X\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)|U")


def parse_pd(text: str) -> LinkDiagram:
    """Parse PD notation like "PD[X(1,4,2,5),X(3,6,4,1),X(5,2,6,3)]".

    The token U stands for a crossingless unknot component.
    """
    text = text.strip()
    if text == "U":
        return LinkDiagram((), 1)
    m = re.fullmatch(r"PD\[(.*)\]", text, re.S)
    if not m:
        raise ValueError("expected PD[...] or the unknot token 'U'")
    body = m.group(1).strip()
    if not body:
        raise ValueError("no crossings")
    crossings: list[Crossing] = []
    loops = 0
    pos = 0
    for tok in _PD_TOKEN.finditer(body):
        gap = body[pos:tok.start()].strip()
        if gap not in ("", ","):
            raise ValueError("malformed token near %r" % gap)
        pos = tok.end()
        if tok.group(0) == "U":
            loops += 1
        else:
            crossings.append(tuple(int(g) for g in tok.groups()))  # type: ignore
    if body[pos:].strip() not in ("",):
        raise ValueError("malformed token near %r" % body[pos:])
    if not crossings and not loops:
        raise ValueError("no crossings")
    return LinkDiagram(tuple(crossings), loops)


def mirror(d: LinkDiagram) -> LinkDiagram:
    """Reverse the crossing convention by rotating each PD tuple one step."""
    return LinkDiagram(tuple((b, c, d, a) for (a, b, c, d) in d.crossings), d.free_loops)


def unlink(n: int) -> LinkDiagram:
    if n < 1:
        raise ValueError("unlink needs at least one component")
    return LinkDiagram((), n)


def cyclic_knot(n: int) -> LinkDiagram:
    """An n-crossing one-component PD code from a cyclic pattern (n odd).

    n = 3 is the standard trefoil code.  For n >= 5 the code is not a
    planar diagram: its rotation system has 3 faces (5 at n = 9) where a
    planar n-crossing diagram has n + 2.  Its cube is still a chain complex,
    so the family serves as a non-planar stress corpus, not as knots in S^3.
    """
    if n < 3 or n % 2 == 0:
        raise ValueError("cyclic_knot needs an odd n >= 3")

    def wrap(x: int) -> int:
        return (x - 1) % (2 * n) + 1

    crossings = tuple(
        (wrap(2 * k + 1), wrap(2 * k + 4), wrap(2 * k + 2), wrap(2 * k + 5))
        for k in range(n)
    )
    return LinkDiagram(crossings)


def add_kink(d: LinkDiagram, arc: int) -> LinkDiagram:
    """A first Reidemeister kink on the given arc (adds one crossing)."""
    if arc not in d.arcs or arc < 0:
        raise ValueError("no such crossing arc %r" % arc)
    loop = max(d.arcs) + 1
    cont = loop + 1
    crossings = []
    replaced = False
    for cr in d.crossings:
        row = []
        for a in cr:
            if a == arc and not replaced:
                row.append(cont)
                replaced = True
            else:
                row.append(a)
        crossings.append(tuple(row))
    crossings.append((arc, loop, loop, cont))
    return LinkDiagram(tuple(crossings), d.free_loops)


def undo_kinks(d: LinkDiagram, basepoint: int | None = None) -> tuple[LinkDiagram, int]:
    """d with its first Reidemeister kinks undone (the inverse of add_kink,
    repeated while one is left), and the basepoint moved with its arc.

    A kink is a crossing with one arc in two cyclically adjacent slots: it
    goes, and its other two arcs merge into the smaller id, or into a new
    free loop when they are one arc (a curl that is a whole component).  A
    kink shifts Khovanov homology only, the minus cube's too (Bar-Natan's
    local proof holds for any rank-2 Frobenius system), and the basepoint
    stays on its component; the default is ckh's on d.  Linear in the
    crossings: d.arcs, which spells every free loop, is not read.
    """
    crossings = [list(cr) for cr in d.crossings]
    ends: dict[int, list[tuple[int, int]]] = {}  # arc -> its (crossing, slot) pairs
    for i, cr in enumerate(crossings):
        for s, a in enumerate(cr):
            ends.setdefault(a, []).append((i, s))
    if basepoint is None:
        basepoint = -d.free_loops if d.free_loops else min(ends)
    elif basepoint not in ends and not d._is_loop_arc(basepoint):
        raise ValueError("basepoint on unknown arc %r" % (basepoint,))
    loops, gone, todo = d.free_loops, set(), list(range(len(crossings)))
    while todo:
        i = todo.pop()
        cr = crossings[i]
        # cr[s - 3] is slot s + 1 mod 4, and cr[s - 2], cr[s - 1] the other two
        s = next((s for s in range(4) if cr[s] == cr[s - 3]), None)
        if s is None or i in gone:
            continue
        gone.add(i)
        x, p, q = cr[s], cr[s - 2], cr[s - 1]
        if p == q:
            loops += 1
            if basepoint in (x, p):
                basepoint = -loops
            continue
        keep, drop = min(p, q), max(p, q)
        j, t = next(e for e in ends[drop] if e[0] != i)
        crossings[j][t] = keep
        ends[keep] = [e if e[0] != i else (j, t) for e in ends[keep]]
        if basepoint in (x, drop):
            basepoint = keep
        todo.append(j)
    kept = tuple(tuple(cr) for i, cr in enumerate(crossings) if i not in gone)
    return LinkDiagram(kept, loops), basepoint


def connect_sum(d1: LinkDiagram, d2: LinkDiagram, arc1: int | None = None,
                arc2: int | None = None) -> LinkDiagram:
    """Connected sum splicing one arc of each diagram."""
    if d1.free_loops or d2.free_loops:
        raise ValueError("connected sum needs crossing diagrams")
    arc1 = min(d1.arcs) if arc1 is None else arc1
    arc2 = min(d2.arcs) if arc2 is None else arc2
    shift = max(d1.arcs)
    second = [tuple(a + shift for a in cr) for cr in d2.crossings]
    a2 = arc2 + shift
    first = [list(cr) for cr in d1.crossings]
    done = False
    for cr in first:
        for i, a in enumerate(cr):
            if a == arc1 and not done:
                cr[i] = a2
                done = True
    second2 = [list(cr) for cr in second]
    done = False
    for cr in second2:
        for i, a in enumerate(cr):
            if a == a2 and not done:
                cr[i] = arc1
                done = True
    crossings = tuple(tuple(cr) for cr in first + second2)
    return LinkDiagram(crossings)


def smooth(d: LinkDiagram, crossing: int, choice: int) -> LinkDiagram:
    """Replace one crossing by its smoothing, producing a smaller diagram."""
    if not 0 <= crossing < len(d.crossings):
        raise ValueError("no such crossing")
    a, b, c, dd = d.crossings[crossing]
    joins = [(a, dd), (b, c)] if choice == 0 else [(a, b), (c, dd)]
    rest = [cr for i, cr in enumerate(d.crossings) if i != crossing]
    find = _classes(d.arcs, joins).__getitem__
    occur: dict[int, int] = {}
    for cr in rest:
        for x in cr:
            occur[find(x)] = occur.get(find(x), 0) + 1
    new_loops = d.free_loops
    relabel: dict[int, int] = {}
    for x in sorted({find(a2) for a2 in d.arcs if a2 >= 0}):
        cnt = occur.get(x, 0)
        if cnt == 0:
            new_loops += 1
        elif cnt == 2:
            relabel[x] = x
        else:
            raise ValueError("smoothing left arc with %d ends" % cnt)
    new_crossings = tuple(
        tuple(relabel[find(x)] for x in cr) for cr in rest  # type: ignore
    )
    return LinkDiagram(new_crossings, new_loops)


def determinant(d: LinkDiagram) -> int:
    """|det| of the link of d: of an (n-1)-minor of its Fox colouring
    matrix, by exact integer (Bareiss) elimination.  The row of X(a,b,c,d)
    says 2 [b] = [a] + [c], where [e] is the overpass that holds edge e (the
    edges joined at the crossings they pass over, b to d).  0 on a split
    diagram (free loops beside crossings, a component that never passes
    under, or two pieces), 1 on the unknot.  On a planar diagram dim Khr >=
    det, and det is |chi(Khr)| at q = i (Manolescu and Ozsvath, 2008)."""
    n = len(d.crossings)
    if d.free_loops:
        return int(not n and d.free_loops == 1)
    over = _classes(d.arcs, [(b, e) for (_, b, _, e) in d.crossings])
    col = {r: k for k, r in enumerate(sorted(set(over.values())))}
    if len(col) != n:  # an overpass with no end is a component on top
        return 0
    m = [[0] * n for _ in d.crossings]
    for row, (a, b, c, _) in zip(m, d.crossings):
        for e, x in ((b, 2), (a, -1), (c, -1)):
            row[col[over[e]]] += x
    m, prev = [row[1:] for row in m[1:]], 1
    for k in range(n - 1):  # each pivot divides the next step exactly
        p = next((i for i in range(k, n - 1) if m[i][k]), None)
        if p is None:
            return 0
        m[k], m[p] = m[p], m[k]
        for i in range(k + 1, n - 1):
            m[i][k + 1:] = [(x * m[k][k] - m[i][k] * y) // prev
                            for x, y in zip(m[i][k + 1:], m[k][k + 1:])]
        prev = m[k][k]
    return abs(prev)


# -- resolutions ----------------------------------------------------------------


def _resolver(d: LinkDiagram):
    """(lab, count) of the all-0 vertex of d's cube, and split(lab, count, j,
    v), that of vertex v from that of v with crossing j at 0 when that edge
    does not merge: lab[k] is the circle of the k-th arc of d.arcs, circles
    numbered by least arc.  A split walks the circle of a in v (off the plane
    it can meet c: no split); the rest of their circle at j = 0 is c's."""
    arcs = d.arcs
    index = {a: k for k, a in enumerate(arcs)}
    # an arc end is 4 * crossing + slot; far[e] is the other end of e's arc
    at = [index[a] for cr in d.crossings for a in cr]
    ends: dict[int, list[int]] = {}  # arc -> its two ends
    for e, k in enumerate(at):
        ends.setdefault(k, []).append(e)
    far = [ends[k][ends[k][0] == e] for e, k in enumerate(at)]

    def walk(e0: int, v: int) -> list[int]:  # smoothing 0 joins slots 0-3, 1-2; 1 joins 0-1, 2-3
        out, e = [], e0
        while True:
            out.append(at[e])
            e = far[e]
            e ^= 1 if v >> (e >> 2) & 1 else 3
            if e == e0:
                return out

    lab, count = [-1] * len(arcs), 0
    for k in range(len(arcs)):  # arcs ascend, so circles are numbered by least arc
        if lab[k] < 0:
            for x in walk(ends[k][0], 0) if k in ends else (k,):
                lab[x] = count
            count += 1

    def split(lab: list[int], count: int, j: int, v: int) -> tuple[list[int], int]:
        side = walk(4 * j, v)
        if at[4 * j + 2] in side:
            return lab, count
        x = lab[side[0]]  # splits into side and the rest: the half without x's least arc is new
        least = lab.index(x)
        if keep := least in side:  # the rest is new: its least arc is x's first off side
            while least in side:
                least = lab.index(x, least + 1)
        t = max(lab[:least if keep else min(side)]) + 1  # after circles with smaller least arcs
        to = [*range(t), *range(t + 1, count + 1)]  # circles from t on move up
        if keep:  # x's arcs go to t, side's stay on x
            to[x], t = t, x
        new = list(map(to.__getitem__, lab))
        for k in side:
            new[k] = t
        return new, count + 1

    return (lab, count), split


# -- the cube --------------------------------------------------------------------
#
# Inside ckh a state is its lab, and the y-labels of a generator are a bitmask
# over the free circles of its state: the circles other than the basepoint
# circle b, in order, so circle x has bit 1 << (x - (x > b)), in a bit row
# shared by the vertices with the same count and b.  Generator m of a vertex
# has mask m, so a vertex's generators are listed by ascending mask, and its
# h and q follow from the vertex and the mask; ids are spelled only when read
# (_cube_ids).  The edge that turns crossing (a, b, c, d) from its 0- to its
# 1-smoothing merges the circles of a and b when their bits differ (distinct
# circles have distinct bits), and otherwise splits theirs into the target
# circles of a and c.  An edge is a rule on masks (_edge_rule), built once per
# call and key: source count and bits, a merge's for either order of the two.
#
# ckh holds the cube as F2 bitsets over blocks of one grade: a vertex's masks
# of popcount p have q = count + h - 2p and fill a run of block (h, q), after
# the runs of the vertices before it.  A merge keeps a term's popcount and a
# split adds one, so the targets of a mask lie in one run of the target vertex.


def _vertex_ids(vertex: tuple[int, ...], free: list[int]) -> list[str]:
    """Generator ids of one vertex indexed by label mask over its free circles,
    given by their least arcs.

    An id is "v<vertex bits>|<least arc of each y-labelled circle, by bit>".
    """
    ids = ["v%s|" % "".join(map(str, vertex))]
    for a in free:
        least = str(a)
        ids += [ids[0] + least] + [t + "," + least for t in ids[1:]]
    return ids


def _edge_rule(
    split: bool, size: int, src_bits: tuple[int, ...], tgt_bits: tuple[int, ...],
) -> list[tuple[int, int]]:
    """A merge or split on label masks in the y-basis: its entries (source
    mask, target mask), each 1, by source mask.

    size is the number of free circles at the source; src_bits and tgt_bits
    hold the bit of each changed circle at the source and the target (the
    split's in order), 0 for the basepoint circle, on which y acts as 0.  A
    merge sends 1 1 to 1, y 1 and 1 y to y, y y to 0, whichever order its
    source bits come in; a split sends 1 to 1 y + y 1 and y to y y; a term
    with a y on the basepoint circle is 0.  These are the u^0 terms of the
    x-basis rule (x x = U, x on the basepoint circle u); the others cancel
    in the y-basis.  A carry table moves the circles the edge leaves alone,
    which keep their order, to their target bits.
    """
    sel, changed = sum(src_bits), sum(tgt_bits)
    kept = iter([1 << b for b in range(size + (1 if split else -1)) if not changed >> b & 1])
    carry = [0]
    for b in range(size):
        carry += list(map((0 if sel >> b & 1 else next(kept)).__or__, carry))
    # target bits of each term, by the y-labelled changed source circles
    if split:
        terms = [[t for t in tgt_bits if t], [changed] if all(tgt_bits) else []]
    else:
        terms = [[0], [changed] if changed else [], []]
    return [(m, c | t) for m, c in enumerate(carry) for t in terms[(m & sel).bit_count()]]


def _vertices(d: LinkDiagram, basepoint_arc: int, labs: list[tuple[list[int], int]]):
    """(index, vertex, lab, count, basepoint circle, position of the first
    generator) of every vertex of d's cube."""
    n = len(d.crossings)
    bp = d.arcs.index(basepoint_arc)
    pos = 0
    for i, (lab, count) in enumerate(labs):
        yield i, tuple((i >> j) & 1 for j in range(n)), lab, count, lab[bp], pos
        pos += 1 << (count - 1)


def _cube_ids(d: LinkDiagram, basepoint_arc: int, labs: list[tuple[list[int], int]]):
    """The generator ids of d's cube, vertex by vertex and by label mask."""
    arcs = d.arcs
    return [g for _, v, lab, count, base, _ in _vertices(d, basepoint_arc, labs)
            for g in _vertex_ids(v, [arcs[lab.index(x)] for x in range(count) if x != base])]


@dataclass
class CubeComplex:
    """The cube as F2 block bitsets, and the (lab, count) of each vertex by
    index (bit j is crossing j's smoothing): blocks[(h, q)] is the range of
    slots of a grade, ascending, slots[i][count - 1 - p] the first of vertex
    i's run of popcount p, and cols[s] the image of slot s over the block
    (h + 1, q).  complex and levels are views built on first read."""

    diagram: LinkDiagram
    basepoint_arc: int
    labs: list[tuple[list[int], int]] = field(repr=False)
    blocks: dict[tuple[int, int], range] = field(repr=False)
    slots: list[list[int]] = field(repr=False)
    cols: list[int] = field(repr=False)
    ustep = (0, 2 * HALF)  # the grade drop (h, q) of a power of u

    @cached_property
    def complex(self) -> ChainComplex:
        """The cube by position (a vertex's generators by mask), each column's
        targets in ascending position, every entry checked by from_columns."""
        labs, blocks, cols = self.labs, self.blocks, self.cols
        pos, hs, qs = [0] * len(cols), [], []  # the position of each slot; grades by position
        for i, ((_, count), base) in enumerate(zip(labs, self.slots)):
            nxt = list(base)  # the next slot of each run
            for m in range(1 << (count - 1)):
                pos[nxt[count - 1 - m.bit_count()]] = len(hs)
                nxt[count - 1 - m.bit_count()] += 1
                hs.append(i.bit_count())
                qs.append(count + i.bit_count() - 2 * m.bit_count())
        diff: list = [None] * len(cols)
        for (h, q), blk in blocks.items():
            at = blocks.get((h + 1, q), blk).start  # a block with no target has no entry
            for s in blk:
                c, t, out = cols[s], at - 1, []
                while c:  # shifted down past each target, so the int shrinks as it is read
                    low = (c & -c).bit_length()
                    t += low
                    out.append(pos[t])
                    c >>= low
                diff[pos[s]] = dict.fromkeys(out, 0)
        # a speller that refers to no cube, so no cube is freed only by the cyclic GC
        d, basepoint = self.diagram, self.basepoint_arc
        return ChainComplex.from_columns(VarSet(("u",), (HALF,)), lambda: _cube_ids(d, basepoint, labs),
                                         hs, qs, None, diff, CONV_KH)

    @cached_property
    def levels(self) -> dict[str, int]:
        """The filtration level of each generator, its h."""
        return dict(zip(self.complex.ids, self.complex.h))


def ckh(d: LinkDiagram, basepoint: int | None = None) -> CubeComplex:
    """The minus cube-of-resolutions complex, marked at the basepoint arc
    (the least arc by default), as F2 block bitsets.

    Generators are labelled in the y-basis (y = x + u on each free circle,
    of the degree of x), so every entry is 1.  h is the number of
    1-resolutions, q the label grading, and the filtration level equals h.
    Gradings are relative; reports normalize.  The cube is (C mod u) tensor
    F2[u], so khr of it, reduced Khr, gives every flavour: minus has a free
    tower at each of its grades, and hat is its quotient by u^2.  Every entry
    is checked on degree as it is built (bit_rule).
    """
    n = len(d.crossings)
    if 1 << n > MAX_CUBE_VERTICES:
        raise ValueError(
            "the cube of a %d-crossing diagram has 2^%d = %d vertices, above the"
            " limit of %d" % (n, n, 1 << n, MAX_CUBE_VERTICES)
        )
    # a free loop doubles the generators of every vertex, as a crossing
    # doubles the vertices; compare exponents, 2^free_loops may be huge
    if n + d.free_loops > MAX_CUBE_VERTICES.bit_length() - 1:
        raise ValueError(
            "the cube of a %d-crossing diagram with %d free loops counts as 2^%d"
            " vertices, above the limit of %d"
            % (n, d.free_loops, n + d.free_loops, MAX_CUBE_VERTICES)
        )
    arcs = d.arcs
    if basepoint is None:
        basepoint = min(arcs)
    elif basepoint not in arcs:
        raise ValueError("basepoint on unknown arc %r" % (basepoint,))

    index = {a: k for k, a in enumerate(arcs)}
    crossings = [(index[a], index[b], index[c]) for (a, b, c, _) in d.crossings]
    start, split = _resolver(d)
    # vertex i from a neighbour i ^ low (low a set bit of i) whose edge into i
    # merges, else by a split; one relabel list per pair of merged circles
    ends = {1 << k: (a, b) for k, (a, b, _) in enumerate(crossings)}
    relabel: dict[tuple[int, int], list[int]] = {}
    labs = [start]
    for i in range(1, 1 << n):
        m = i
        while m:
            low = m & -m
            lab, count = labs[i ^ low]
            a, b = ends[low]
            x, y = lab[a], lab[b]
            if x != y:  # the lower number names the merged circle, those above move down
                if (to := relabel.get((x, y))) is None:
                    to = relabel[x, y] = relabel[y, x] = list(range(len(arcs) - 1))
                    to.insert(max(x, y), min(x, y))
                labs.append((list(map(to.__getitem__, lab)), count - 1))
                break
            m ^= low
        else:
            j = i.bit_length() - 1
            labs.append(split(*labs[i ^ 1 << j], j, i))
    total = sum(1 << (count - 1) for _, count in labs)
    if total > MAX_CUBE_GENERATORS:
        raise ValueError(
            "the cube of this %d-crossing diagram has %d generators, above the"
            " limit of %d" % (n, total, MAX_CUBE_GENERATORS)
        )

    # a vertex is (lab, count, bits), bits[x] circle x's bit (0 on the basepoint
    # circle b) in a row shared by its count and b.  acc[h][q - h + top] counts
    # block (h, q) so far, so places[i], the offsets of vertex i's runs in their
    # blocks (p descending), are one extended slice of acc[h]
    bp, top = index[basepoint], max(count for _, count in labs)
    rank, seen = [], [0] * top  # a mask's place among the masks of its popcount
    for m in range(1 << (top - 1)):
        rank.append(seen[m.bit_count()])
        seen[m.bit_count()] += 1
    rows = [[[0 if x == b else 1 << (x - (x > b)) for x in range(count)] for b in range(count)]
            for count in range(top + 1)]
    verts = [(lab, count, rows[count][lab[bp]]) for lab, count in labs]
    # by count, the runs' slice of acc[h] and their sizes; comb(count - 1, p) is symmetric in p
    shapes = [(slice(top + 2 - count, top + count + 1, 2), [comb(count - 1, p) for p in range(count)])
              for count in range(top + 1)]
    acc = [[0] * (2 * top + 1) for _ in range(n + 1)]
    places = []
    for i, (_, count) in enumerate(labs):
        run, (runs, sizes) = acc[i.bit_count()], shapes[count]
        places.append(at := run[runs])
        run[runs] = map(add, at, sizes)
    blocks, starts, first = {}, [], 0  # blocks in ascending (h, q); starts[h][j] is a first slot
    for h, run in enumerate(acc):
        starts.append(list(accumulate(run, initial=first)))
        blocks.update(((h, h + j - top), range(s, s + k))
                      for j, (s, k) in enumerate(zip(starts[h], run)) if k)
        first = starts[h][-1]
    slots = [list(map(add, starts[i.bit_count()][shapes[count][0]], at))
             for i, ((_, count), at) in enumerate(zip(labs, places))]

    def bit_rule(i: int, i2: int, split: bool, key: tuple) -> list:
        """The rule of the edge from vertex i to i2 (key: both counts, source and
        target bits) as (run in slots, rank, run in places, target bits by rank)
        per source mask with a target, every entry checked on degree."""
        size = key[0] - 1
        entries, tbits = _edge_rule(split, size, key[2:3], key[3:]), [0] * (1 << size)
        for m, t in entries:
            if t.bit_count() != m.bit_count() + split or key[1] != size + 2 * split:
                raise ValueError("inhomogeneous differential entry v%s mask %d -> v%s mask %d: 1" % (
                    format(i, "0%db" % n)[::-1], m, format(i2, "0%db" % n)[::-1], t))
            tbits[m] |= 1 << rank[t]
        return [(size - m.bit_count(), rank[m], size - m.bit_count() - 1 + split, x)
                for m, x in enumerate(tbits) if x]

    cols = [0] * total
    rules: dict[tuple, list] = {}
    for j, (a, b, c) in enumerate(crossings):
        w = 1 << j
        for lo in range(0, len(verts), 2 * w):
            for i in range(lo, lo + w):
                lab, count, bits = verts[i]
                lab2, count2, bits2 = verts[i + w]
                sa, sb = bits[lab[a]], bits[lab[b]]
                if split := sa == sb:  # split the circle of a and b into those of a and c, in order
                    p, q = lab2[a], lab2[c]
                    if p == q:
                        raise ValueError("circle counts differ by 0, not 1")
                    key = ((count, count2, sa, bits2[p], bits2[q]) if p < q
                           else (count, count2, sa, bits2[q], bits2[p]))
                else:  # merge the circles of a and b, in either order
                    key = (count, count2, sa | sb, bits2[lab2[a]])
                if (terms := rules.get(key)) is None:
                    terms = rules[key] = bit_rule(i, i + w, split, key)
                src, dst = slots[i], places[i + w]
                for k, r, k2, tbits in terms:
                    cols[src[k] + r] |= tbits << dst[k2]
    return CubeComplex(d, basepoint, labs, blocks, slots, cols)


def khr(cc: CubeComplex) -> dict[tuple[int, int], int]:
    """Reduced Khovanov homology H(C/u) of the cube by grade, zeros included,
    read off its block bitsets by Expansion.dims: homology_f2(cc.complex)."""
    lands = {(h, q): (h + 1, q) for h, q in cc.blocks if (h + 1, q) in cc.blocks}
    return Expansion.of_blocks(cc.blocks, cc.cols, lands).dims()


def basepoint_action(cc: CubeComplex, arc: int) -> ChainMap:
    """Multiplication by the label x = y + u of the circle through a marked
    arc: u on every generator, plus 1 -> y on that circle when it is free
    (y y = 0, and y acts as 0 on the basepoint circle)."""
    if arc not in cc.diagram.arcs:
        raise ValueError("unknown point %r" % arc)
    vs = cc.complex.vars
    u, one = Poly.var(vs, "u", 1), Poly.one(vs)
    gids = cc.complex.ids
    k = cc.diagram.arcs.index(arc)
    entries = {(g, g): u for g in gids}
    for _, _, lab, count, base, pos in _vertices(cc.diagram, cc.basepoint_arc, cc.labs):
        x = lab[k]
        if x != base:
            vids = gids[pos:pos + (1 << (count - 1))]
            bit = 1 << (x - (x > base))
            entries.update(((g, vids[m | bit]), one) for m, g in enumerate(vids) if not m & bit)
    return ChainMap(cc.complex, cc.complex, entries, dh=0, dq=-2)
