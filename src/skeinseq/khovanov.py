"""Cube-of-resolutions chain complexes from planar diagrams.

PD crossings are 4-tuples of arc ids read cyclically; the 0-smoothing of
X(a,b,c,d) joins (a,d) and (b,c), the 1-smoothing joins (a,b) and (c,d).
The coefficient algebra assigns each resolved circle the rank-2 module
with labels 1, x and relation x^2 = U; the minus flavor is presented as a
free module over F2[u] with u the label action of the marked point (so
U = u^2), the hat flavor quotients by U, the reduced one by u.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .complexes import CONV_KH, MAX_CUBE_VERTICES, ChainComplex, ChainMap, Generator
from .poly import HALF, Poly, VarSet

Crossing = tuple[int, int, int, int]

FLAVORS = ("minus", "hat", "reduced")


@dataclass(frozen=True)
class LinkDiagram:
    crossings: tuple[Crossing, ...]
    free_loops: int = 0
    basepoints: tuple[tuple[str, int], ...] = ()

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
        for name, arc in self.basepoints:
            if arc not in counts and not self._is_loop_arc(arc):
                raise ValueError("basepoint %r on unknown arc %r" % (name, arc))

    def _is_loop_arc(self, arc: int) -> bool:
        return -self.free_loops <= arc <= -1

    @property
    def arcs(self) -> tuple[int, ...]:
        out = {a for cr in self.crossings for a in cr}
        out.update(range(-self.free_loops, 0))
        return tuple(sorted(out))

    def component_arcs(self) -> list[int]:
        """Least arc id of every link component, by strand-following."""
        parent = {a: a for a in self.arcs}

        def find(a: int) -> int:
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        def union(a: int, b: int) -> None:
            parent[find(a)] = find(b)

        for (a, b, c, d) in self.crossings:
            union(a, c)
            union(b, d)
        reps: dict[int, int] = {}
        for a in self.arcs:
            r = find(a)
            reps[r] = min(reps.get(r, a), a)
        return sorted(reps.values())

    def components(self) -> int:
        """Number of link components."""
        return len(self.component_arcs())


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
    return LinkDiagram(
        tuple((b, c, d, a) for (a, b, c, d) in d.crossings),
        d.free_loops,
        d.basepoints,
    )


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
    return LinkDiagram(tuple(crossings), d.free_loops, d.basepoints)


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
    parent = {x: x for x in d.arcs}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (x, y) in joins:
        parent[find(x)] = find(y)
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


# -- resolutions ----------------------------------------------------------------


@dataclass(frozen=True)
class ResolutionState:
    """One vertex of the cube; circles are ordered by their least arc."""

    vertex: tuple[int, ...]
    circles: tuple[frozenset[int], ...]

    @property
    def weight(self) -> int:
        return sum(self.vertex)

    def circle_of(self, arc: int) -> frozenset[int]:
        for c in self.circles:
            if arc in c:
                return c
        raise KeyError("arc %r not on any circle" % arc)


def _resolver(d: LinkDiagram):
    """The state of each vertex of d's cube, by union-find on arc indices.

    The joins of both smoothings of every crossing are turned into index
    pairs once; each call then resolves one vertex on a list.
    """
    arcs = d.arcs
    index = {a: k for k, a in enumerate(arcs)}
    joins = []
    for (a, b, c, dd) in d.crossings:
        a, b, c, dd = index[a], index[b], index[c], index[dd]
        joins.append((((a, dd), (b, c)), ((a, b), (c, dd))))

    def resolve_at(vertex: tuple[int, ...]) -> ResolutionState:
        if len(vertex) != len(joins):
            raise ValueError("vertex length mismatch")
        parent = list(range(len(arcs)))
        for pair, v in zip(joins, vertex):
            for (x, y) in pair[1 if v else 0]:
                while parent[x] != x:
                    parent[x] = x = parent[parent[x]]
                while parent[y] != y:
                    parent[y] = y = parent[parent[y]]
                parent[x] = y
        groups: dict[int, list[int]] = {}
        for k, a in enumerate(arcs):
            while parent[k] != k:
                k = parent[k]
            groups.setdefault(k, []).append(a)
        # arcs ascend, so the groups come out ordered by their least arc
        return ResolutionState(tuple(vertex), tuple(map(frozenset, groups.values())))

    return resolve_at


def resolve(d: LinkDiagram, vertex: tuple[int, ...]) -> ResolutionState:
    """Circles of the complete resolution given one 0/1 choice per crossing."""
    return _resolver(d)(vertex)


# -- edge maps -------------------------------------------------------------------


@dataclass(frozen=True)
class EdgeMap:
    """Band map between adjacent resolutions on x-label subsets.

    apply() sends a set of x-labelled circles to terms (U-power, new set).
    """

    kind: str
    sources: tuple[frozenset[int], ...]
    targets: tuple[frozenset[int], ...]

    def apply(
        self, labels: frozenset[frozenset[int]]
    ) -> list[tuple[int, frozenset[frozenset[int]]]]:
        if self.kind == "merge":
            c1, c2 = self.sources
            (dst,) = self.targets
            eps = (c1 in labels) + (c2 in labels)
            rest = labels - {c1, c2}
            if eps == 2:
                return [(1, rest)]
            if eps == 1:
                return [(0, rest | {dst})]
            return [(0, rest)]
        (src,) = self.sources
        d1, d2 = self.targets
        if src in labels:
            rest = labels - {src}
            return [(0, rest | {d1, d2}), (1, rest)]
        return [(0, labels | {d1}), (0, labels | {d2})]


def edge_map(st0: ResolutionState, st1: ResolutionState) -> EdgeMap:
    """Merge or split block between two resolutions differing at one crossing."""
    set0, set1 = set(st0.circles), set(st1.circles)
    changed0 = tuple([c for c in st0.circles if c not in set1])
    changed1 = tuple([c for c in st1.circles if c not in set0])
    if len(changed0) == 2 and len(changed1) == 1:
        return EdgeMap("merge", changed0, changed1)
    if len(changed0) == 1 and len(changed1) == 2:
        return EdgeMap("split", changed0, changed1)
    raise ValueError(
        "circle counts differ by %d, not 1"
        % abs(len(st1.circles) - len(st0.circles))
    )


# -- the cube --------------------------------------------------------------------
#
# Inside ckh the labels of a generator are a bitmask over the free circles of
# its state: the circles other than the basepoint circle, in the state's
# order (by least arc), bit b for the b-th.  Generator m of a vertex is the
# one with mask m, so a vertex's generators are listed by ascending mask and
# its ids are spelled once into a mask -> id table.  An edge is a rule on
# masks (_edge_rule): a carry table moves the circles it leaves alone to their
# target bits, and EdgeMap.apply, run on each labelling of the changed
# circles, gives the target bits and u-power of every term.  The rule depends
# only on the edge's kind, source size and bit positions, so ckh builds it
# once per distinct such key and every edge of that shape reuses it.


def _vertex_ids(vertex: tuple[int, ...], free: list[frozenset[int]]) -> list[str]:
    """Generator ids of one vertex indexed by label mask over its free circles.

    An id is "v<vertex bits>|<least arc of each x-labelled circle, by bit>".
    """
    ids = ["v%s|" % "".join(map(str, vertex))]
    for c in free:
        least = str(min(c))
        ids += [ids[0] + least] + [t + "," + least for t in ids[1:]]
    return ids


def _edge_rule(
    em: EdgeMap, size: int, src_bits: list[int], tgt_bits: list[int],
    flavor: str, upoly: list[Poly],
) -> tuple[int, dict[int, list[tuple[int, Poly]]], list[int]]:
    """The edge map em on label masks, as (sel, terms, carry).

    size is the number of free circles at the source; src_bits and tgt_bits
    hold the bit of each of em's sources and targets, 0 for the basepoint
    circle.  That circle carries no label, so an x on it in the image is one
    more power of u.  sel is the source bits of the changed circles; terms
    maps each value of mask & sel to the (target bits, entry) terms that the
    flavor keeps; carry maps each mask to the target bits of the circles the
    edge leaves alone.  Those keep their order by least arc, so the k-th of
    them at the source is the k-th at the target, and the rule depends on
    nothing but em's kind, size and the bits.
    """
    sel = sum(src_bits)
    changed = sum(tgt_bits)
    size2 = size - sum(map(bool, src_bits)) + sum(map(bool, tgt_bits))
    kept = iter([1 << b for b in range(size2) if not changed >> b & 1])
    carry = [0]
    for b in range(size):
        tb = 0 if sel >> b & 1 else next(kept)
        carry += [m | tb for m in carry]
    terms: dict[int, list[tuple[int, Poly]]] = {}
    free = [(c, b) for c, b in zip(em.sources, src_bits) if b]
    for sub in range(1 << len(free)):
        picked = [(c, b) for k, (c, b) in enumerate(free) if sub >> k & 1]
        out_terms = []
        for (ucount, out) in em.apply(frozenset(c for c, _ in picked)):
            t = 2 * ucount
            mask = 0
            for c, b in zip(em.targets, tgt_bits):
                if c in out:
                    if b:
                        mask |= b
                    else:
                        t += 1
            if (flavor == "hat" and ucount) or (flavor == "reduced" and t):
                continue
            out_terms.append((mask, upoly[t]))
        terms[sum(b for _, b in picked)] = out_terms
    return sel, terms, carry


@dataclass
class CubeComplex:
    """Assembled cube complex plus the data needed to interpret generators."""

    diagram: LinkDiagram
    flavor: str
    basepoint_arc: int | None
    complex: ChainComplex
    levels: dict[str, int]
    states: list[ResolutionState]
    info: dict[str, tuple[int, frozenset[frozenset[int]]]] = field(repr=False, default_factory=dict)

    def base_circle(self, vertex_index: int) -> frozenset[int]:
        assert self.basepoint_arc is not None
        return self.states[vertex_index].circle_of(self.basepoint_arc)


def ckh(d: LinkDiagram, flavor: str, basepoint: int | None = None) -> CubeComplex:
    """Cube-of-resolutions complex in the requested flavor.

    h is the number of 1-resolutions, q the label grading, and the
    filtration level equals h.  Gradings are relative; reports normalize.
    """
    if flavor not in FLAVORS:
        raise ValueError("flavor must be one of %r" % (FLAVORS,))
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
    if flavor == "reduced" and basepoint is None:
        raise ValueError("reduced flavor requires a basepoint")
    if basepoint is not None and basepoint not in arcs:
        raise ValueError("basepoint on unknown arc %r" % basepoint)
    if flavor == "minus" and basepoint is None:
        basepoint = min(arcs)
    elif flavor == "hat":
        basepoint = None

    resolve_at = _resolver(d)
    states = [
        resolve_at(tuple((i >> j) & 1 for j in range(n))) for i in range(1 << n)
    ]
    if flavor == "minus":
        vs = VarSet(("u",), (HALF,))
        # one shared entry per u exponent: 2 per U-power, 1 per basepoint label
        upoly = [Poly.var(vs, "u", t) for t in range(4)]
    else:  # hat and reduced keep only the terms without u
        vs = VarSet((), ())
        upoly = [Poly.one(vs)]

    gens: list[Generator] = []
    info: dict[str, tuple[int, frozenset[frozenset[int]]]] = {}
    levels: dict[str, int] = {}
    ids: list[list[str]] = []
    bits: list[dict[frozenset[int], int]] = []
    for i, st in enumerate(states):
        base = st.circle_of(basepoint) if basepoint is not None else None
        free = [c for c in st.circles if c != base]
        h = st.weight
        labels: list[frozenset[frozenset[int]]] = [frozenset()]
        qs = [len(st.circles) + h]
        for c in free:
            one = frozenset((c,))
            labels += [s | one for s in labels]
            qs += [q - 2 for q in qs]
        vids = _vertex_ids(st.vertex, free)
        for gid, lab, q in zip(vids, labels, qs):
            gens.append(Generator(gid, h, q))
            info[gid] = (i, lab)
            levels[gid] = h
        ids.append(vids)
        bits.append({c: 1 << b for b, c in enumerate(free)})

    diff: dict[tuple[str, str], Poly] = {}
    rules: dict[tuple, tuple[int, dict[int, list[tuple[int, Poly]]], list[int]]] = {}
    for i, st in enumerate(states):
        vids, bit = ids[i], bits[i]
        for j in range(n):
            if (i >> j) & 1:
                continue
            i2 = i | (1 << j)
            em = edge_map(st, states[i2])
            src_bits = [bit.get(c, 0) for c in em.sources]
            tgt_bits = [bits[i2].get(c, 0) for c in em.targets]
            key = (em.kind, len(bit), *src_bits, *tgt_bits)
            rule = rules.get(key)
            if rule is None:
                rule = rules[key] = _edge_rule(
                    em, len(bit), src_bits, tgt_bits, flavor, upoly
                )
            sel, terms, carry = rule
            vids2 = ids[i2]
            for m, src in enumerate(vids):
                for mask, p in terms[m & sel]:
                    diff[(src, vids2[carry[m] | mask])] = p

    cx = ChainComplex(vs, gens, diff, CONV_KH)
    return CubeComplex(d, flavor, basepoint, cx, levels, states, info)


def basepoint_action(cc: CubeComplex, arc: int) -> ChainMap:
    """Multiplication by the label of the circle through a marked arc."""
    if cc.flavor != "minus":
        raise ValueError("basepoint actions live on the minus flavor")
    if arc not in cc.diagram.arcs:
        raise ValueError("unknown point %r" % arc)
    vs = cc.complex.vars
    gid_of = {key: gid for gid, key in cc.info.items()}
    entries: dict[tuple[str, str], Poly] = {}
    for gid, (vi, labels) in cc.info.items():
        circle = cc.states[vi].circle_of(arc)
        if circle == cc.base_circle(vi):
            entries[(gid, gid)] = Poly.var(vs, "u", 1)
        elif circle in labels:
            entries[(gid, gid_of[(vi, labels - {circle})])] = Poly.var(vs, "u", 2)
        else:
            entries[(gid, gid_of[(vi, labels | {circle})])] = Poly.one(vs)
    return ChainMap(cc.complex, cc.complex, entries, dh=0, dq=-2)
