import itertools
import random
from dataclasses import dataclass

import pytest

from skeinseq import khovanov as kh
from skeinseq import serde
from skeinseq.cli import flavor_dims, main
from skeinseq.complexes import CONV_KH, ChainComplex, UHomology, homology_f2, mod_u_dims
from skeinseq.poly import HALF, Poly, VarSet

TREFOIL = "PD[X(1,4,2,5),X(3,6,4,1),X(5,2,6,3)]"
HOPF = "PD[X(1,3,2,4),X(3,1,4,2)]"
FIG8 = "PD[X(4,2,5,1),X(8,6,1,5),X(6,3,7,4),X(2,7,3,8)]"

KNOTS = {
    "trefoil": lambda: kh.parse_pd(TREFOIL),
    "fig8": lambda: kh.parse_pd(FIG8),
    "c5": lambda: kh.cyclic_knot(5),
    "c7": lambda: kh.cyclic_knot(7),
    "granny": lambda: kh.connect_sum(kh.parse_pd(TREFOIL), kh.parse_pd(TREFOIL)),
}


def hat_dim(d):
    return sum(flavor_dims(kh.ckh(d).complex, "hat").values())


def reduced_dim(d, arc=None):
    return sum(flavor_dims(kh.ckh(d, arc).complex, "reduced").values())


def test_parse_trefoil():
    d = kh.parse_pd(TREFOIL)
    assert len(d.crossings) == 3
    assert len(d.arcs) == 6
    assert d.components() == 1


def test_parse_hopf():
    d = kh.parse_pd(HOPF)
    assert len(d.crossings) == 2
    assert len(d.arcs) == 4
    assert d.components() == 2


def test_parse_errors():
    with pytest.raises(ValueError):
        kh.parse_pd("PD[]")
    with pytest.raises(ValueError):
        kh.parse_pd("PD[X(1,2,3)]")
    with pytest.raises(ValueError):
        kh.parse_pd("PD[X(1,1,2,2),Y(3)]")
    with pytest.raises(ValueError):
        kh.parse_pd("PD[X(1,4,2,3)]")  # arcs 1..4 appear once each


def test_negative_crossing_arc_rejected():
    # -1 is also the free loop's id, so the loop would silently vanish
    with pytest.raises(ValueError, match="crossing arc -1 is negative"):
        kh.LinkDiagram(((-1, 2, 2, -1),), 1)
    with pytest.raises(ValueError, match="crossing arc -3 is negative"):
        kh.LinkDiagram(((-3, 2, 2, -3),))
    assert len(kh.LinkDiagram(((1, 2, 2, 1),), 1).arcs) == 3


def test_resolve_circle_counts():
    d = kh.parse_pd(TREFOIL)
    assert len(resolve(d, (0, 0, 0)).circles) == 2
    assert len(resolve(d, (1, 1, 1)).circles) == 3
    kink = kh.parse_pd("PD[X(1,2,2,1)]")
    c0 = len(resolve(kink, (0,)).circles)
    c1 = len(resolve(kink, (1,)).circles)
    assert abs(c0 - c1) == 1


def test_resolve_swap():
    d = kh.parse_pd(TREFOIL)
    # the mirror's smoothings are d's smoothings exchanged
    assert len(resolve(kh.mirror(d), (0, 0, 0)).circles) == 3
    assert len(resolve(kh.mirror(d), (1, 1, 1)).circles) == 2


def test_edge_map_merge_split_rules():
    # entries of _edge_rule as (source mask, target mask), in the y-basis
    rule = kh._edge_rule

    # merge: 1 1 -> 1, y 1 and 1 y -> y, y y -> 0
    assert rule(False, 2, (1, 2), (1,)) == [(0, 0), (1, 1), (2, 1)]
    # split: 1 -> 1 y + y 1, y -> y y (the first target circle first)
    assert rule(True, 1, (1,), (1, 2)) == [(0, 1), (0, 2), (1, 3)]
    # a circle the edge leaves alone rides along: bit 1 at the source, bit 2 after a split
    assert rule(True, 2, (1,), (1, 4))[3:] == [(2, 3), (2, 6), (3, 7)]
    # a y on the basepoint circle (bit 0) is 0
    assert rule(False, 1, (0, 1), (0,)) == [(0, 0)]
    assert rule(True, 0, (0,), (0, 1)) == [(0, 1)]
    assert rule(True, 1, (1,), (0, 1)) == [(0, 1)]


def x_basis_edge_rule(split, size, src_bits, tgt_bits):
    """The rule in the x-basis, as ckh built it before the y-basis: entries
    (source mask, target mask, u exponent).  A merge sends x x to U, x 1 and
    1 x to x, 1 1 to 1; a split sends 1 to 1 x + x 1 and x to x x + U; an x
    on the basepoint circle (bit 0) is one more power of u."""
    sel, changed = sum(src_bits), sum(tgt_bits)
    kept = iter([1 << b for b in range(size + (1 if split else -1)) if not changed >> b & 1])
    carry = [0]
    for b in range(size):
        carry += list(map((0 if sel >> b & 1 else next(kept)).__or__, carry))
    # (target bits, u exponent) of each term, by the x-labelled changed source circles
    if split:
        p, q = tgt_bits
        terms = [[(p, int(not p)), (q, int(not q))], [(p | q, (not p) + (not q)), (0, 2)]]
    else:
        terms = [[(0, 0)], [(changed, int(not changed))], [(0, 2)]]
    return [(m, c | mask, t) for m, c in enumerate(carry)
            for mask, t in terms[(m & sel).bit_count()]]


def _submasks(m):
    """Every submask of m, m itself among them."""
    s = m
    while True:
        yield s
        if not s:
            return
        s = (s - 1) & m


def conjugated(x_rule, size):
    """An x-basis rule on size free source circles in the y-basis, y = x + u
    on every free circle, as {(source mask, target mask): the u exponents
    with coefficient 1 in that entry}.

    y^s is the sum of u^|s - r| x^r over the submasks r of s, and x^t the
    same sum of the y^w over the submasks w of t (over F2 the basis change
    is its own inverse); the basepoint circle has no label, so it does not
    change."""
    by_source = {}
    for m, t, e in x_rule:
        by_source.setdefault(m, []).append((t, e))
    out = {}
    for s in range(1 << size):
        for r in _submasks(s):
            for t, e in by_source.get(r, ()):
                for w in _submasks(t):
                    k = (s, w)
                    out[k] = out.get(k, set()) ^ {(s ^ r).bit_count() + e + (t ^ w).bit_count()}
    return {k: v for k, v in out.items() if v}


def rule_keys(most=4):
    """Every merge and split with at most most free source circles, over
    every placement of the changed circles' bits, the basepoint circle's
    (bit 0) among them: (split, size, source bits, target bits)."""
    for size in range(most + 1):
        src, tgt = [0, *(1 << b for b in range(size))], range(size + 1)
        for sa, sb in itertools.permutations(src, 2):
            free = [1 << b for b in range(size - 1)] if sa and sb else [0]
            yield from ((False, size, (sa, sb), (t,)) for t in free)
        for sa in src:
            for p, q in itertools.permutations([0, *(1 << b for b in tgt)], 2):
                if bool(p and q) == bool(sa):
                    yield True, size, (sa,), (p, q)


def test_y_basis_rules_are_the_x_basis_rules_conjugated():
    """Conjugating every x-basis rule by y = x + u gives _edge_rule: only u^0
    entries, and exactly its.  The cube's differential is rule tensor carry,
    edge by edge, and the change of basis a tensor product over circles, so
    this covers every cube.  Without its U terms, an x-basis rule that has
    them conjugates to something else, so the check is not vacuous."""
    keys = list(rule_keys())
    assert len(keys) == 230
    with_u2 = 0
    for key in keys:
        x_rule = x_basis_edge_rule(*key)
        size = key[1]
        assert conjugated(x_rule, size) == {(m, t): {0} for m, t in kh._edge_rule(*key)}, key
        dropped = [entry for entry in x_rule if entry[2] < 2]
        if dropped != x_rule:
            with_u2 += 1
            assert conjugated(dropped, size) != conjugated(x_rule, size), key
    assert with_u2 == 180


def test_edge_map_rejects_bad_pair():
    # X(1,2,1,2) resolves to one circle both ways: neither a merge nor a split
    for basepoint in (None, 2):
        with pytest.raises(ValueError, match="circle counts differ by 0, not 1"):
            kh.ckh(kh.parse_pd("PD[X(1,2,1,2)]"), basepoint)


def test_unknot_flavors():
    u = kh.parse_pd("U")
    assert hat_dim(u) == 2
    hom = UHomology(kh.ckh(u).complex)
    assert hom.free_rank == 1 and not hom.torsion


def test_trefoil_minus_and_hat():
    d = kh.mirror(kh.parse_pd(TREFOIL))
    hom = UHomology(kh.ckh(d).complex)
    assert hom.free_rank == 3
    assert hom.torsion == []
    assert hat_dim(d) == 6


def test_hopf_minus_and_component_actions():
    d = kh.mirror(kh.parse_pd(HOPF))
    cc = kh.ckh(d)
    hom = UHomology(cc.complex)
    assert hom.free_rank == 2 and not hom.torsion
    mats = [
        hom.induced_matrix(kh.basepoint_action(cc, arc))
        for arc in d.component_arcs()
    ]
    assert mats[0] == mats[1]
    # and the action is multiplication by u on both free towers
    assert mats[0] == {(i, i): 1 for i in range(2)}


def test_basepoint_action_squares_to_U():
    d = kh.parse_pd(TREFOIL)
    cc = kh.ckh(d)
    for arc in (1, 4):
        x = kh.basepoint_action(cc, arc)
        assert not x.anticommutator()
        from skeinseq.complexes import _compose, _rows

        cx = cc.complex
        sq = _rows(cx, cx, _compose(cx, [(x.cols, x.cols)]))
        assert sq == [(g, g, Poly.var(cx.vars, "u", 2)) for g in cx.ids]


def test_basepoint_action_unknown_point():
    cc = kh.ckh(kh.parse_pd(TREFOIL))
    with pytest.raises(ValueError):
        kh.basepoint_action(cc, 77)


def test_mirror_involution_circle_counts():
    d = kh.parse_pd(TREFOIL)
    dd = kh.mirror(kh.mirror(d))
    for bits in itertools.product((0, 1), repeat=3):
        assert len(resolve(d, bits).circles) == len(resolve(dd, bits).circles)


def test_mirror_preserves_hat_dims():
    for text in (TREFOIL, HOPF, FIG8):
        d = kh.parse_pd(text)
        assert hat_dim(d) == hat_dim(kh.mirror(d))


def test_unlink_structure():
    for n in range(1, 5):
        cc = kh.ckh(kh.unlink(n))
        hom = UHomology(cc.complex)
        assert hom.free_rank == 2 ** (n - 1)
        assert not hom.torsion
        assert hat_dim(kh.unlink(n)) == 2 ** n


def _merge_at(term, i, j):
    """m on tensor positions i, j of a (upow, labels) term; returns terms."""
    u, labels = term
    s = labels[i] + labels[j]
    rest = tuple(l for k, l in enumerate(labels) if k not in (i, j))
    if s == 2:
        return [(u + 1, rest + (0,))]
    return [(u, rest + (s,))]


def _split_at(term, i):
    u, labels = term
    rest = tuple(l for k, l in enumerate(labels) if k != i)
    if labels[i] == 0:
        return [(u, rest + (1, 0)), (u, rest + (0, 1))]
    return [(u, rest + (1, 1)), (u + 1, rest + (0, 0))]


def _f2(terms):
    out = set()
    for t in terms:
        out.symmetric_difference_update({t})
    return out


def _apply(op, terms):
    acc = []
    for t in terms:
        acc.extend(op(t))
    return _f2(acc)


def test_frobenius_axioms():
    """Associativity, coassociativity, and the Frobenius compatibility."""
    # associativity on A^{(x)3}: merge (0,1) then with last == merge (1,2) then first
    for labels in itertools.product((0, 1), repeat=3):
        start = [(0, labels)]
        left = _apply(lambda t: _merge_at(t, 0, 1), start)
        left = _apply(lambda t: _merge_at(t, 0, 1), left)
        right = _apply(lambda t: _merge_at(t, 1, 2), start)
        right = _apply(lambda t: _merge_at(t, 0, 1), right)
        assert left == right, labels
    # coassociativity on A
    for label in (0, 1):
        start = [(0, (label,))]
        once = _apply(lambda t: _split_at(t, 0), start)
        left = _apply(lambda t: _split_at(t, 0), once)   # split first factor
        right = _apply(lambda t: _split_at(t, 1), once)  # split second factor
        # (Delta x id) Delta = (id x Delta) Delta up to the middle ordering
        norm = lambda terms: {(u, tuple(sorted(l))) for (u, l) in terms}
        assert len(left) == len(right)
        assert norm(left) == norm(right)
    # Frobenius: Delta m = (m x id)(id x Delta) on A^{(x)2}
    for labels in itertools.product((0, 1), repeat=2):
        start = [(0, labels)]
        left = _apply(lambda t: _merge_at(t, 0, 1), start)
        left = _apply(lambda t: _split_at(t, 0), left)
        right = _apply(lambda t: _split_at(t, 1), start)  # (a, b1, b2)
        right = _apply(lambda t: _merge_at(t, 0, 1), right)  # merge a with b1
        assert left == right, labels


def test_d2_on_random_subdiagrams():
    rng = random.Random(20250203)
    base = [kh.parse_pd(TREFOIL), kh.parse_pd(FIG8), kh.cyclic_knot(5),
            kh.parse_pd(HOPF), kh.cyclic_knot(7)]
    count = 0
    while count < 200:
        d = base[rng.randrange(len(base))]
        while len(d.crossings) > 0 and rng.random() < 0.5:
            d = kh.smooth(d, rng.randrange(len(d.crossings)), rng.randrange(2))
        cc = kh.ckh(d)
        assert cc.complex.verify_d2() == []
        count += 1


def test_hat_versus_reduced_and_minus():
    for name, make in KNOTS.items():
        d = make()
        hat = hat_dim(d)
        red = reduced_dim(d)
        hom = UHomology(kh.ckh(d).complex)
        assert hat <= 2 * red, name
        assert hat == 2 * hom.free_rank, name


def test_reduced_dim_bound_on_links():
    for d in (kh.parse_pd(HOPF), kh.unlink(2), kh.unlink(3)):
        for arc in d.component_arcs():
            assert hat_dim(d) <= 2 * reduced_dim(d, arc)


def test_reidemeister_spot_checks():
    pairs = [
        (kh.parse_pd("U"), kh.parse_pd("PD[X(1,2,2,1)]")),
        (kh.parse_pd("U"), kh.parse_pd("PD[X(1,2,2,3),X(3,4,4,1)]")),
        (kh.parse_pd(HOPF), kh.add_kink(kh.parse_pd(HOPF), 1)),
        (kh.parse_pd(TREFOIL), kh.add_kink(kh.parse_pd(TREFOIL), 1)),
        (kh.parse_pd(TREFOIL), kh.cyclic_knot(5)),
    ]
    for d1, d2 in pairs:
        assert hat_dim(d1) == hat_dim(d2)
        h1 = UHomology(kh.ckh(d1).complex)
        h2 = UHomology(kh.ckh(d2).complex)
        assert h1.free_rank == h2.free_rank
        assert h1.torsion == h2.torsion


def test_undo_kinks_is_the_inverse_of_add_kink():
    # the loop arc and the arc that merges away carry the basepoint to the kept arc
    for d in (kh.parse_pd(HOPF), kh.parse_pd(TREFOIL), kh.cyclic_knot(5),
              kh.LinkDiagram(kh.parse_pd(HOPF).crossings, 2)):
        for arc in (a for a in d.arcs if a > 0):
            kinked = kh.add_kink(d, arc)
            loop, cont = max(kinked.arcs) - 1, max(kinked.arcs)
            assert kh.undo_kinks(kinked) == (d, min(d.arcs))
            for b in kinked.arcs:
                assert kh.undo_kinks(kinked, b) == (d, arc if b in (loop, cont) else b)


def test_undo_kinks_undoes_the_kinks_that_a_removal_makes():
    # a kink on a kink's loop arc: the outer one is a kink once the inner one is
    # gone, whichever of them comes first, and the unknot's curl becomes a loop
    trefoil = kh.parse_pd(TREFOIL)
    for d, want in ((trefoil, (sorted(trefoil.crossings), 0)),
                    (kh.parse_pd("PD[X(1,2,2,1)]"), ([], 1))):
        nested = kh.add_kink(d, 1)
        for _ in range(3):
            nested = kh.add_kink(nested, max(nested.arcs) - 1)
        for order in (nested.crossings, nested.crossings[::-1]):
            free = kh.undo_kinks(kh.LinkDiagram(order))[0]
            assert (sorted(free.crossings), free.free_loops) == want


def test_undo_kinks_turns_a_curl_component_into_a_free_loop():
    for pd in ("PD[X(1,2,2,1)]", "PD[X(1,1,2,2)]", "PD[X(1,2,2,3),X(3,4,4,1)]"):
        for b in (None,) + kh.parse_pd(pd).arcs:
            assert kh.undo_kinks(kh.parse_pd(pd), b) == (kh.unlink(1), -1)
    # the default is the input's least arc, an old loop; a curl becomes the next loop
    d = kh.LinkDiagram(kh.parse_pd(TREFOIL).crossings + ((7, 8, 8, 7),), 2)
    free = kh.LinkDiagram(kh.parse_pd(TREFOIL).crossings, 3)
    assert kh.undo_kinks(d) == (free, -2)
    assert kh.undo_kinks(d, 8) == kh.undo_kinks(d, 7) == (free, -3)
    assert kh.undo_kinks(d, 4) == (free, 4)


def test_undo_kinks_keeps_what_is_not_a_kink():
    d = kh.parse_pd("PD[X(1,2,1,2)]")  # one arc in opposite slots
    assert kh.undo_kinks(d) == (d, 1)
    assert kh.undo_kinks(kh.parse_pd("PD[X(1,2,1,3),X(3,4,4,2)]"), 4) == (d, 2)
    for b in (0, 3, -1):
        with pytest.raises(ValueError, match="basepoint on unknown arc %d$" % b):
            kh.undo_kinks(d, b)


def test_cube_homogeneous_and_deterministic():
    d = kh.parse_pd(TREFOIL)
    a = kh.ckh(d)
    b = kh.ckh(d)
    assert [g.gid for g in a.complex.gens] == [g.gid for g in b.complex.gens]
    assert a.complex.diff == b.complex.diff


def test_smooth_creates_free_loops():
    kink = kh.parse_pd("PD[X(1,2,2,1)]")
    d0 = kh.smooth(kink, 0, 0)
    d1 = kh.smooth(kink, 0, 1)
    assert {d0.free_loops, d1.free_loops} == {1, 2}


def test_smooth_with_arc_zero():
    """Arc ids may start at 0: the smoothings are those of the diagram with
    every arc id one higher, shifted back (arc 0 used to be left out of the
    relabelling, a KeyError)."""
    d1 = kh.parse_pd(TREFOIL)
    d0 = kh.LinkDiagram(tuple(tuple(a - 1 for a in cr) for cr in d1.crossings))
    for c in range(3):
        for choice in (0, 1):
            s1, s0 = kh.smooth(d1, c, choice), kh.smooth(d0, c, choice)
            assert s0.free_loops == s1.free_loops
            assert s0.crossings == tuple(tuple(a - 1 for a in cr) for cr in s1.crossings)


def test_smooth_rejects_an_arc_left_with_one_end():
    """An arc that a smoothing leaves with one end is bad input (ValueError),
    not an internal invariant failure.  LinkDiagram rejects such crossings,
    so they are set after its check."""
    d = kh.parse_pd("PD[X(1,2,2,1)]")
    object.__setattr__(d, "crossings", ((1, 2, 3, 4), (1, 2, 3, 5)))
    with pytest.raises(ValueError, match="arc with 1 ends"):
        kh.smooth(d, 0, 0)


def test_induced_action_basis_independent():
    import random as _random

    d = kh.mirror(kh.parse_pd(HOPF))
    cc = kh.ckh(d)
    base_mats = None
    order = [g.gid for g in cc.complex.gens]
    rng = _random.Random(31)
    for trial in range(3):
        cx = cc.complex if trial == 0 else reordered(cc.complex, order)
        hom = UHomology(cx)
        mats = []
        for arc in d.component_arcs():
            x = kh.basepoint_action(cc, arc)
            from skeinseq.complexes import ChainMap
            remapped = ChainMap(cx, cx, x.entries, dh=0, dq=-2, check=False)
            mats.append(hom.induced_matrix(remapped))
        if base_mats is None:
            base_mats = mats
        else:
            assert mats == base_mats
        rng.shuffle(order)


def test_minus_determines_hat_bigraded():
    """hat homology = the minus summands mod u^2, at the grades of the
    reference hat cube (u-torsion included: test_complexes builds some)."""
    for name, make in KNOTS.items():
        d = make()
        cx = kh.ckh(d).complex
        hom = UHomology(cx)
        want = mod_u_dims(hom.summands, cx.ustep(), (1, 0), 2)
        got = homology_f2(reference_cube(d, "hat").complex)
        assert {k: v for k, v in got.items() if v} == want, name
        assert flavor_dims(cx, "hat") == want, name


# -- reference cube ---------------------------------------------------------------
#
# reference_ckh is the string-based cube builder that ckh replaced: a dict
# union-find per state, an edge map found by comparing the circles of its two
# states and applied to the label set of each generator, and ids spelled from
# label sets.  ckh must reproduce every field, in order; the states and the
# labels of each generator are read off the cube's labs by the views below.


@dataclass(frozen=True)
class ResolutionState:
    """One vertex of the cube; circles are ordered by their least arc."""

    vertex: tuple[int, ...]
    circles: tuple[frozenset[int], ...]


def cube_states(cc):
    """The resolution of every vertex of a cube, by vertex index, read off
    its labs: lab[k] is the circle of the k-th arc."""
    n, states = len(cc.diagram.crossings), []
    for i, (lab, count) in enumerate(cc.labs):
        circles = [[] for _ in range(count)]
        for a, x in zip(cc.diagram.arcs, lab):
            circles[x].append(a)
        states.append(ResolutionState(tuple(i >> j & 1 for j in range(n)),
                                      tuple(map(frozenset, circles))))
    return states


def resolve(d, vertex):
    """d's resolution with one 0/1 smoothing per crossing, read off its cube."""
    return cube_states(kh.ckh(d))[sum(bit << j for j, bit in enumerate(vertex))]


def cube_info(cc):
    """(vertex index, y-labelled circles) of every generator of a cube, by
    id: a vertex's generators by label mask over its circles off the
    basepoint."""
    ids, info, pos = cc.complex.ids, {}, 0
    for i, st in enumerate(cube_states(cc)):
        labels = [frozenset()]
        for c in st.circles:
            if cc.basepoint_arc not in c:
                labels += [s | {c} for s in labels]
        for g, lab in zip(ids[pos:pos + len(labels)], labels):
            info[g] = (i, lab)
        pos += len(labels)
    return info


def _reference_resolve(d, vertex, swap=False):
    parent = {a: a for a in d.arcs}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (a, b, c, dd), v in zip(d.crossings, vertex):
        choice = v ^ (1 if swap else 0)
        joins = [(a, dd), (b, c)] if choice == 0 else [(a, b), (c, dd)]
        for (x, y) in joins:
            parent[find(x)] = find(y)
    groups = {}
    for a in d.arcs:
        groups.setdefault(find(a), set()).add(a)
    circles = tuple(sorted((frozenset(g) for g in groups.values()), key=min))
    return ResolutionState(tuple(vertex), circles)


@dataclass(frozen=True)
class _ReferenceEdgeMap:
    """Band map between adjacent resolutions on x-label subsets: apply()
    sends a set of x-labelled circles to terms (U-power, new set)."""

    kind: str
    sources: tuple
    targets: tuple

    def apply_y(self, labels):
        """The same map on y-label subsets, y = x + u: y y -> 0 in a merge,
        y -> y y in a split, and never a U."""
        if self.kind == "merge":
            c1, c2 = self.sources
            eps = (c1 in labels) + (c2 in labels)
            rest = labels - {c1, c2}
            return [] if eps == 2 else [(0, rest | set(self.targets) if eps else rest)]
        (src,) = self.sources
        d1, d2 = self.targets
        if src in labels:
            return [(0, labels - {src} | {d1, d2})]
        return [(0, labels | {d1}), (0, labels | {d2})]

    def apply(self, labels):
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


def _reference_edge_map(st0, st1):
    set0, set1 = set(st0.circles), set(st1.circles)
    changed0 = tuple(sorted(set0 - set1, key=min))
    changed1 = tuple(sorted(set1 - set0, key=min))
    if len(changed0) == 2 and len(changed1) == 1:
        return _ReferenceEdgeMap("merge", changed0, changed1)
    if len(changed0) == 1 and len(changed1) == 2:
        return _ReferenceEdgeMap("split", changed0, changed1)
    raise ValueError("circle counts differ by %d, not 1"
                     % abs(len(st1.circles) - len(st0.circles)))


def _circle_of(st, arc):
    return next(c for c in st.circles if arc in c)


def _reference_gid(vertex, labels):
    tag = ",".join(str(min(c)) for c in sorted(labels, key=min))
    return "v%s|%s" % ("".join(str(b) for b in vertex), tag)


def _reference_subsets(items):
    n = len(items)
    for mask in range(1 << n):
        yield frozenset(items[i] for i in range(n) if (mask >> i) & 1)


def reference_ckh(d, flavor, basepoint=None, swap=False):
    """(gens, diff items, levels, info, states, basepoint_arc) of the old ckh;
    minus in the y-basis (a y on the basepoint circle is 0), hat and reduced
    in the x-basis (an x on the basepoint circle is u, and reduced drops
    every term with a u)."""
    arcs = d.arcs
    if flavor in ("minus", "reduced"):
        basepoint = min(arcs) if basepoint is None else basepoint
    else:
        basepoint = None
    n = len(d.crossings)
    states = [
        _reference_resolve(d, tuple((i >> j) & 1 for j in range(n)), swap)
        for i in range(1 << n)
    ]
    if flavor == "minus":
        vs = kh.VarSet(("u",), (kh.HALF,))
    else:
        vs = kh.VarSet((), ())
    gens, info, levels = [], {}, {}
    by_vertex = [[] for _ in states]
    for i, st in enumerate(states):
        circles = list(st.circles)
        if basepoint is not None:
            base = _circle_of(st, basepoint)
            circles = [c for c in circles if c != base]
        for labels in _reference_subsets(circles):
            gid = _reference_gid(st.vertex, labels)
            h = sum(st.vertex)
            gens.append(kh.Generator(gid, h, len(st.circles) - 2 * len(labels) + h))
            info[gid] = (i, labels)
            levels[gid] = h
            by_vertex[i].append(gid)
    diff = {}
    for i, st in enumerate(states):
        for j in range(n):
            if (i >> j) & 1:
                continue
            i2 = i | (1 << j)
            em = _reference_edge_map(st, states[i2])
            base2 = _circle_of(states[i2], basepoint) if basepoint is not None else None
            apply = em.apply_y if flavor == "minus" else em.apply
            for gid in by_vertex[i]:
                for (ucount, out) in apply(info[gid][1]):
                    t = 2 * ucount
                    if base2 is not None and base2 in out:
                        if flavor == "minus":
                            continue
                        out = out - {base2}
                        t += 1
                    if flavor == "hat" and ucount:
                        continue
                    if flavor == "reduced" and t:
                        continue
                    if flavor != "minus":
                        t = 0
                    p = Poly.var(vs, "u", t) if t else Poly.one(vs)
                    key = (gid, _reference_gid(states[i2].vertex, out))
                    acc = p if key not in diff else diff[key] + p
                    if acc:
                        diff[key] = acc
                    else:
                        del diff[key]
    return gens, list(diff.items()), levels, info, states, basepoint


@dataclass(frozen=True)
class ReferenceCube:
    complex: ChainComplex
    levels: dict


def reference_cube(d, flavor, basepoint=None):
    """The reference cube of one flavour as a complex with its levels: the
    test-side hat and reduced cubes, which ckh no longer builds."""
    gens, items, levels, *_ = reference_ckh(d, flavor, basepoint)
    vs = VarSet(("u",), (HALF,)) if flavor == "minus" else VarSet((), ())
    return ReferenceCube(ChainComplex(vs, gens, dict(items), CONV_KH), levels)


def kill_vars(cx):
    """The quotient by every variable, H(C/u)'s complex: the constant terms
    of the entries, at the grades of the generators."""
    if cx.vars.n > 1:
        zero = (0,) * cx.vars.n
        cols = [{j: 0 for j, p in col.items() if zero in p.terms} for col in cx.cols]
    else:
        cols = [{j: 0 for j, e in col.items() if not e} for col in cx.cols]
    return ChainComplex.from_columns(VarSet((), ()), cx.ids, cx.h, cx.q, cx.alex2, cols,
                                     cx.convention, check=False, order=cx.order)


def reordered(cx, order):
    """cx with its generators listed in the given order of their ids."""
    return ChainComplex(cx.vars, [cx.gen(g) for g in order], cx.diff, cx.convention,
                        cx.pairs, check=False)


def _by_source(items):
    """Entries grouped by source, each source's in their order."""
    out = {}
    for (src, tgt), p in items:
        out.setdefault(src, []).append((tgt, p))
    return out


def _cube_fields(cc):
    """The fields of a cube: the differential as a dict and by source in
    order (its global order is source order, not the reference's edge order)."""
    diff = cc.complex.diff
    return (list(cc.complex.gens), (diff, _by_source(diff.items())), cc.levels,
            cube_info(cc), cube_states(cc), cc.basepoint_arc)


def _assert_same_cube(d, basepoint=None, swap=False):
    """The minus cube ckh builds of d, or of its mirror when swap is set,
    against the reference cube of d, resolved with its smoothings exchanged
    when swap is set.  Its quotient by u is the reference reduced cube."""
    cc = kh.ckh(kh.mirror(d) if swap else d, basepoint)
    got = _cube_fields(cc)
    want = list(reference_ckh(d, "minus", basepoint=basepoint, swap=swap))
    want[1] = (dict(want[1]), _by_source(want[1]))
    for name, g, w in zip(("gens", "diff", "levels", "info", "states", "basepoint"),
                          got, want):
        assert g == w, (basepoint, swap, name)
    assert list(got[2]) == list(want[2]) and list(got[3]) == list(want[3])
    reduced = kill_vars(cc.complex)
    gens, items = reference_ckh(d, "reduced", basepoint=basepoint, swap=swap)[:2]
    assert list(reduced.gens) == gens
    assert (reduced.diff, _by_source(reduced.diff.items())) == (dict(items), _by_source(items))


def assert_tables_match_the_reference(d, basepoint=None):
    """The kh hat and reduced tables of d, read off its minus cube, equal the
    F2 homology of the reference hat and reduced cubes, grade by grade."""
    cx = kh.ckh(d, basepoint).complex
    for flavor in ("hat", "reduced"):
        want = homology_f2(reference_cube(d, flavor, basepoint).complex)
        assert flavor_dims(cx, flavor) == {k: v for k, v in want.items() if v}, flavor


def _reference_family():
    tre = kh.parse_pd(TREFOIL)
    fig8 = kh.parse_pd(FIG8)
    family = {"c%d" % k: kh.cyclic_knot(k) for k in (3, 5, 7, 9)}
    family.update({
        "unknot": kh.parse_pd("U"),
        "kink": kh.parse_pd("PD[X(1,2,2,1)]"),
        "kink2": kh.parse_pd("PD[X(1,2,2,3),X(3,4,4,1)]"),
        "hopf": kh.parse_pd(HOPF),
        "hopf_kinked": kh.add_kink(kh.parse_pd(HOPF), 1),
        "trefoil": tre,
        "trefoil_kinked": kh.add_kink(tre, 1),
        "fig8": fig8,
        "granny": kh.connect_sum(tre, tre),
        "c7_kinked": kh.add_kink(kh.cyclic_knot(7), 1),
        "fig8_sum": kh.connect_sum(fig8, fig8),
        "mirror_c5": kh.mirror(kh.cyclic_knot(5)),
        "mirror_fig8": kh.mirror(fig8),
        "square": kh.connect_sum(tre, kh.mirror(tre)),
        "c5_loops": kh.LinkDiagram(kh.cyclic_knot(5).crossings, 2),
        "hopf_loop": kh.LinkDiagram(kh.parse_pd(HOPF).crossings, 1),
    })
    family.update({"unlink%d" % k: kh.unlink(k) for k in (1, 2, 3)})
    return family


@pytest.mark.parametrize("name", sorted(_reference_family()))
def test_ckh_matches_reference(name):
    d = _reference_family()[name]
    # every basepoint arc on small cubes, fewer on big ones (the reference is slow)
    n = len(d.crossings)
    arcs = d.arcs if n <= 4 else (min(d.arcs), max(d.arcs)) if n <= 7 else (max(d.arcs),)
    for swap in (False, True) if n <= 7 else (False,):
        _assert_same_cube(d, swap=swap)
        for arc in arcs:
            _assert_same_cube(d, basepoint=arc, swap=swap)
    for arc in arcs:
        assert_tables_match_the_reference(d, arc)


def torus_2(n):
    """T(2, n), the closure of the 2-braid sigma_1^n."""
    def w(x):
        return (x - 1) % (2 * n) + 1

    return kh.LinkDiagram(tuple((2 * k - 1, w(2 * k + n - 1), 2 * k, w(2 * k + n))
                                for k in range(1, n + 1)))


def test_torus_2_has_reduced_rank_n():
    for n in (3, 5, 7):
        assert reduced_dim(torus_2(n), 1) == n


def test_generator_budget_counts_the_cube(monkeypatch, capsys):
    # the count read off the resolved states is the size of the one cube: a
    # limit equal to it admits the cube, one less refuses it, and every
    # flavour's kh run with the limit one below its own cube, that of the
    # kink-free diagram (the whole cube when there is no kink)
    for d in _reference_family().values():
        count = kh.ckh(d, max(d.arcs)).complex.n
        assert count == len(kh.ckh(d).complex.gens)
        monkeypatch.setattr(kh, "MAX_CUBE_GENERATORS", count)
        assert kh.ckh(d, max(d.arcs)).complex.n == count
        monkeypatch.setattr(kh, "MAX_CUBE_GENERATORS", count - 1)
        message = " has %d generators, above the limit of %d" % (count, count - 1)
        with pytest.raises(ValueError, match=message + "$"):
            kh.ckh(d, max(d.arcs))
        pd = "PD[%s]" % ",".join(["X(%d,%d,%d,%d)" % c for c in d.crossings]
                                 + ["U"] * d.free_loops)
        free = kh.undo_kinks(d, max(d.arcs))
        if free[0] != d:
            for flavor in ("minus", "hat", "reduced"):  # a refused cube whose kink-free form fits
                assert main(["kh", "--pd", pd, "--flavor", flavor, "--basepoint",
                             str(max(d.arcs))]) == 0
            capsys.readouterr()
            count = kh.ckh(*free).complex.n
            monkeypatch.setattr(kh, "MAX_CUBE_GENERATORS", count - 1)
            message = " has %d generators, above the limit of %d" % (count, count - 1)
        for flavor in ("minus", "hat", "reduced"):
            assert main(["kh", "--pd", pd, "--flavor", flavor, "--basepoint",
                         str(max(d.arcs))]) == 2
            assert message in capsys.readouterr().err
        monkeypatch.undo()


def test_generator_budget_admits_t2_11(monkeypatch, capsys):
    # counted under a zero limit, so no cube is built: hat is admitted or
    # refused by the minus cube's count, half the hat cube's 177150
    with monkeypatch.context() as m:
        m.setattr(kh, "MAX_CUBE_GENERATORS", 0)
        with pytest.raises(ValueError) as err:
            kh.ckh(torus_2(11))
        pd = "PD[%s]" % ",".join("X(%d,%d,%d,%d)" % c for c in torus_2(11).crossings)
        assert main(["kh", "--pd", pd, "--flavor", "hat"]) == 2
    assert "has 88575 generators, above the limit of 0" in str(err.value)
    assert "has 88575 generators, above" in capsys.readouterr().err
    assert 88575 <= kh.MAX_CUBE_GENERATORS


def test_cube_entry_with_wrong_exponent_rejected():
    cc = kh.ckh(kh.parse_pd(TREFOIL))
    cx = cc.complex
    vs = cx.vars
    for key, p in cx.diff.items():
        diff = dict(cx.diff)
        diff[key] = Poly.var(vs, "u", next(iter(p.terms))[0] + 1)
        with pytest.raises(ValueError, match="inhomogeneous") as by_id:
            kh.ChainComplex(vs, cx.gens, diff, kh.CONV_KH)
        # the same exponent written by position gets the same message
        i, j = cx.order[key[0]], cx.order[key[1]]
        cols = [dict(c) for c in cx.cols]
        cols[i][j] += 1
        with pytest.raises(ValueError) as by_position:
            kh.ChainComplex.from_columns(vs, cx.ids, cx.h, cx.q, None, cols, kh.CONV_KH)
        assert str(by_position.value) == str(by_id.value)
        kh.ChainComplex.from_columns(vs, cx.ids, cx.h, cx.q, None, cols, kh.CONV_KH, check=False)


def test_face_count():
    # the standard trefoil: the inner triangle, the three lobes and the outside
    assert kh.parse_pd(TREFOIL).faces() == 5
    # the Hopf link: the lens between its circles, two crescents and the outside
    assert kh.parse_pd(HOPF).faces() == 4
    # a kink, a figure-eight curve: its two lobes and the outside
    assert kh.parse_pd("PD[X(1,2,2,1)]").faces() == 3
    # 3 faces where a planar 5-crossing diagram has 7
    assert kh.cyclic_knot(5).faces() == 3


def _assert_rebuilds(cx):
    """The id-keyed constructor, given the complex's own diff view, writes
    the same columns in the same order."""
    again = kh.ChainComplex(cx.vars, cx.gens, cx.diff, cx.convention, cx.pairs)
    assert [list(c.items()) for c in again.cols] == [list(c.items()) for c in cx.cols]


@pytest.mark.parametrize("name", sorted(_reference_family()))
def test_diff_view_rebuilds_the_columns(name):
    d = _reference_family()[name]
    for basepoint in (None, max(d.arcs)):
        cx = kh.ckh(d, basepoint).complex
        _assert_rebuilds(cx)
        _assert_rebuilds(kill_vars(cx))


def union_find_labs(d):
    """Every vertex's (lab, count) from a fresh union-find over the arcs, as
    _resolver found them before it derived each vertex from a neighbour."""
    index = {a: k for k, a in enumerate(d.arcs)}
    out = []
    for i in range(1 << len(d.crossings)):
        parent = list(range(len(index)))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for j, cr in enumerate(d.crossings):
            a, b, c, dd = (index[x] for x in cr)
            for x, y in ((a, b), (c, dd)) if i >> j & 1 else ((a, dd), (b, c)):
                parent[find(x)] = find(y)
        num = {}
        lab = [num.setdefault(find(k), len(num)) for k in range(len(index))]
        out.append((lab, len(num)))
    return out


@pytest.mark.parametrize("name", sorted(_reference_family()) + ["c11", "x1212"])
def test_resolver_matches_union_find(name):
    # c11 is non-planar, and X(1,2,1,2) has an edge that neither merges nor splits
    extra = {"c11": kh.cyclic_knot(11), "x1212": kh.parse_pd("PD[X(1,2,1,2)]")}
    d = extra.get(name) or _reference_family()[name]
    want = union_find_labs(d)
    if name == "x1212":  # ckh refuses the edge; the split walk meets c and splits nothing
        start, split = kh._resolver(d)
        assert [start, split(*start, 0, 1)] == want
        with pytest.raises(ValueError, match="circle counts differ by 0, not 1"):
            kh.ckh(d)
    else:
        assert kh.ckh(d).labs == want


def spelled_generators(cc):
    """The cube's generators spelled eagerly with _vertex_ids from the
    reference states: vertex by vertex and by label mask, h the vertex's
    1-smoothings and q its circles + h - 2 (x labels)."""
    d, arc = cc.diagram, cc.basepoint_arc
    n = len(d.crossings)
    gens = []
    for i in range(1 << n):
        vertex = tuple(i >> j & 1 for j in range(n))
        circles = _reference_resolve(d, vertex).circles
        free = [min(c) for c in circles if arc not in c]
        h = sum(vertex)
        for m, gid in enumerate(kh._vertex_ids(vertex, free)):
            gens.append(kh.Generator(gid, h, len(circles) + h - 2 * bin(m).count("1")))
    return gens


def assert_views_spell_the_reference(d, basepoint):
    cc = kh.ckh(d, basepoint)
    cx = cc.complex
    assert not {"ids", "gens", "order", "diff"} & set(vars(cx))  # nothing spelled yet
    gens = spelled_generators(cc)
    assert list(cx.gens) == gens
    assert list(cx.order.items()) == [(g.gid, i) for i, g in enumerate(gens)]
    eager = kh.ChainComplex(cx.vars, gens, cx.diff, kh.CONV_KH)
    assert (serde.dump_complex(cx, cc.levels)
            == serde.dump_complex(eager, {g.gid: g.h for g in gens}))


@pytest.mark.parametrize("name", sorted(_reference_family()))
def test_views_spell_the_reference_generators(name):
    d = _reference_family()[name]
    for basepoint in (None, max(d.arcs)):
        assert_views_spell_the_reference(d, basepoint)


# -- the previous builder -----------------------------------------------------------
#
# previous_ckh is the cube builder that ckh replaced: every vertex from the
# vertex without its top bit (a merge relabels, a split walks), and every edge
# keyed on the circle numbers of its two labs, source by source.  ckh must give
# the same labs, grades and columns, each column's entries in the same order:
# that order decides eliminate's ties and Summand.index.


def _previous_resolver(d):
    """(lab, count) of the all-0 vertex, and flip(lab, count, j, v), that of
    vertex v from that of v with crossing j at 0, by merge or split."""
    arcs = d.arcs
    index = {a: k for k, a in enumerate(arcs)}
    at = [index[a] for cr in d.crossings for a in cr]
    ends = {}
    for e, k in enumerate(at):
        ends.setdefault(k, []).append(e)
    far = [ends[k][ends[k][0] == e] for e, k in enumerate(at)]

    def walk(e0, v):
        out, e = [], e0
        while True:
            out.append(at[e])
            e = far[e]
            e ^= 1 if v >> (e >> 2) & 1 else 3
            if e == e0:
                return out

    lab, count = [-1] * len(arcs), 0
    for k in range(len(arcs)):
        if lab[k] < 0:
            for x in walk(ends[k][0], 0) if k in ends else (k,):
                lab[x] = count
            count += 1

    def flip(lab, count, j, v):
        x, y = lab[at[4 * j]], lab[at[4 * j + 1]]
        if x != y:
            lo, hi = min(x, y), max(x, y)
            return [lo if z == hi else z - (z > hi) for z in lab], count - 1
        side = walk(4 * j, v)
        if at[4 * j + 2] in side:
            return lab, count
        side = max(side, walk(4 * j + 2, v), key=min)
        t = max(lab[:min(side)]) + 1
        new = [z + (z >= t) for z in lab]
        for k in side:
            new[k] = t
        return new, count + 1

    return (lab, count), flip


def reference_edge_rule(split, size, src_bits, tgt_bits):
    """The rule _edge_rule built before merges shared one rule for both
    orders of their source bits, in the y-basis: every term spelled out per
    subset of the y-labelled changed circles, and dropped when it puts a y on
    the basepoint circle (bit 0)."""
    sel = sum(src_bits)
    changed = sum(tgt_bits)
    size2 = size - sum(map(bool, src_bits)) + sum(map(bool, tgt_bits))
    kept = iter([1 << b for b in range(size2) if not changed >> b & 1])
    carry = [0]
    for b in range(size):
        tb = 0 if sel >> b & 1 else next(kept)
        carry += [m | tb for m in carry]
    terms = {}
    free = [b for b in src_bits if b]
    for sub in range(1 << len(free)):
        picked = [b for k, b in enumerate(free) if sub >> k & 1]
        # bits of the y-labelled target circles of each term
        if not split:
            outs = [] if len(picked) == 2 else [tgt_bits if picked else ()]
        elif picked:
            outs = [tgt_bits]
        else:
            outs = [tgt_bits[:1], tgt_bits[1:]]
        terms[sum(picked)] = [sum(xs) for xs in outs if all(xs)]
    return [(m, carry[m] | mask) for m in range(1 << size) for mask in terms[m & sel]]


def previous_ckh(d, basepoint=None, rules=None):
    """(labs, h, q, exponent columns) of d's minus cube, as the previous
    builder made them but in the y-basis, with a fresh reference rule per
    edge key; rules, when given, collects them by key."""
    n, arcs = len(d.crossings), d.arcs
    basepoint = min(arcs) if basepoint is None else basepoint
    start, flip = _previous_resolver(d)
    labs = [start]
    for i in range(1, 1 << n):
        j = i.bit_length() - 1
        labs.append(flip(*labs[i ^ 1 << j], j, i))
    bp = arcs.index(basepoint)
    bits = [[0 if x == lab[bp] else 1 << (x - (x > lab[bp])) for x in range(count)]
            for lab, count in labs]
    hs, qs, starts = [], [], []
    drops = [-2 * bin(m).count("1") for m in range(1 << max(count for _, count in labs))]
    for i, (_, count) in enumerate(labs):
        h, size = bin(i).count("1"), count - 1
        starts.append(len(hs))
        hs += [h] * (1 << size)
        qs += map((count + h).__add__, drops[:1 << size])
    index = {a: k for k, a in enumerate(arcs)}
    crossings = [(index[a], index[b], index[c]) for (a, b, c, _) in d.crossings]
    cols = [{} for _ in hs]
    rules = {} if rules is None else rules
    for i, (lab, _) in enumerate(labs):
        bit, size = bits[i], len(bits[i]) - 1
        for j, (a, b, c) in enumerate(crossings):
            if i >> j & 1:
                continue
            i2 = i | 1 << j
            lab2, bit2 = labs[i2][0], bits[i2]
            x, y = lab[a], lab[b]
            if x != y:
                key = (False, size, (bit[x], bit[y]), (bit2[lab2[a]],))
            else:
                p, q = sorted((lab2[a], lab2[c]))
                if p == q:
                    raise ValueError("circle counts differ by 0, not 1")
                key = (True, size, (bit[x],), (bit2[p], bit2[q]))
            if key not in rules:
                rules[key] = reference_edge_rule(*key)
            for m, t in rules[key]:
                cols[starts[i] + m][starts[i2] + t] = 0
    return labs, hs, qs, cols


def _random_diagrams(count, seed=28):
    """Seeded diagrams of 3 to 7 crossings: connected sums, kinks and mirrors
    of small knots and links, each with up to two free loops."""
    rng = random.Random(seed)
    primes = [kh.parse_pd(TREFOIL), kh.parse_pd(FIG8), kh.parse_pd(HOPF), kh.cyclic_knot(5)]
    out = []
    while len(out) < count:
        d = rng.choice(primes)
        for _ in range(rng.randint(1, 3)):
            move = rng.choice(("sum", "kink", "mirror"))
            if move == "mirror":
                d = kh.mirror(d)
            elif move == "kink" and len(d.crossings) < 7:
                d = kh.add_kink(d, rng.choice(d.arcs))
            elif move == "sum":
                other = rng.choice(primes)
                if len(d.crossings) + len(other.crossings) <= 7:
                    d = kh.connect_sum(d, other, rng.choice(d.arcs), rng.choice(other.arcs))
        d = kh.LinkDiagram(d.crossings, rng.randint(0, 2))
        if len(d.crossings) >= 3 and d not in out:
            out.append(d)
    return out


def _previous_builder_cases():
    cases = dict(_reference_family(), c11=kh.cyclic_knot(11), t2_9=torus_2(9))
    # split-heavy and non-planar at the cube limit, at their least and greatest arcs
    cases.update(t2_11=torus_2(11), c13=kh.cyclic_knot(13))
    cases.update(("random%02d" % k, d) for k, d in enumerate(_random_diagrams(40)))
    return cases


@pytest.mark.parametrize("name", sorted(_previous_builder_cases()))
def test_ckh_matches_the_previous_builder(name):
    d = _previous_builder_cases()[name]
    # every basepoint arc on up to 5 crossings, the least and the greatest above
    for basepoint in d.arcs if len(d.crossings) <= 5 else (min(d.arcs), max(d.arcs)):
        cc = kh.ckh(d, basepoint)
        labs, hs, qs, cols = previous_ckh(d, basepoint)
        assert cc.labs == labs, basepoint
        assert (cc.complex.h, cc.complex.q) == (hs, qs), basepoint
        # the same entries, and each column's targets in the same order
        assert cc.complex.cols == cols, basepoint
        assert list(map(tuple, cc.complex.cols)) == list(map(tuple, cols)), basepoint


@pytest.mark.parametrize("name", sorted(_reference_family()))
def test_shared_rules_match_a_fresh_reference(name):
    """ckh builds one rule per merge for both orders of its source bits:
    every edge key the previous builder meets, in either order, gets the
    fresh reference rule of that key."""
    d = _reference_family()[name]
    rules = {}
    for basepoint in d.arcs:
        previous_ckh(d, basepoint, rules)
    for (split, size, src, tgt), want in rules.items():
        assert kh._edge_rule(split, size, src, tgt) == want
        assert kh._edge_rule(split, size, src[::-1], tgt) == want
    assert bool(rules) == bool(d.crossings)
