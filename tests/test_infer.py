import random

import pytest

from skeinseq import khovanov as kh
from skeinseq.complexes import UHomology
from skeinseq.infer import (
    PageSpec,
    Pattern,
    TargetSpec,
    Tower,
    enumerate_patterns,
    replay,
    resolve_filtration,
)
from skeinseq.spectral import SpectralPage, check_constraints

TREFOIL_PAGE = PageSpec(
    (Tower("z", 0, -1), Tower("y", 1, 1), Tower("x", 3, 5))
)
HOPF_PAGE = PageSpec((Tower("x", 0, 0), Tower("y", 2, 4)))


def test_trefoil_page_matches_computed_kh():
    """The frozen tower placements agree with a fresh cube computation."""
    d = kh.mirror(kh.parse_pd("PD[X(1,4,2,5),X(3,6,4,1),X(5,2,6,3)]"))
    hom = UHomology(kh.ckh(d, "minus").complex)
    got = sorted((h, q) for (h, q), (free, tors) in hom.by_grading() .items()
                 for _ in range(free))
    assert got == sorted((t.h, t.q) for t in TREFOIL_PAGE.towers)


def test_trefoil_unique_pattern():
    pats = enumerate_patterns(TREFOIL_PAGE, TargetSpec(free_rank=1, torsion=(1,)))
    assert len(pats) == 1
    assert pats[0].entries == ((3, "z", "x", 1),)


def test_hopf_collapses():
    pats = enumerate_patterns(HOPF_PAGE, TargetSpec(free_rank=2))
    assert pats == [Pattern(())]


def test_zero_pattern_when_target_equals_page():
    pats = enumerate_patterns(TREFOIL_PAGE, TargetSpec(free_rank=3))
    assert Pattern(()) in pats
    assert len(pats) == 1  # no admissible nonzero map reaches the same shape


def test_unreachable_target_is_empty():
    pats = enumerate_patterns(HOPF_PAGE, TargetSpec(free_rank=0, torsion=(2, 2)))
    assert pats == []


def test_patterns_pass_constraints():
    for page, target in (
        (TREFOIL_PAGE, TargetSpec(free_rank=1, torsion=(1,))),
        (HOPF_PAGE, TargetSpec(free_rank=2)),
    ):
        grade = {t.name: (t.h, t.q) for t in page.towers}
        for pat in enumerate_patterns(page, target):
            pages = {}
            for (k, src, tgt, a) in pat.entries:
                hs, qs = grade[src]
                ht, qt = grade[tgt]
                pages.setdefault(k, {})[((hs, qs), (ht, qt - 2 * a))] = 1
            page_objs = [SpectralPage(k, {}, d) for k, d in pages.items()]
            assert check_constraints(page_objs).ok


def test_permuted_pagespec_same_canonical_set():
    rng = random.Random(5)
    towers = list(TREFOIL_PAGE.towers)
    base = enumerate_patterns(TREFOIL_PAGE, TargetSpec(free_rank=1, torsion=(1,)))
    for _ in range(4):
        rng.shuffle(towers)
        pats = enumerate_patterns(PageSpec(tuple(towers)),
                                  TargetSpec(free_rank=1, torsion=(1,)))
        assert [sorted(p.entries) for p in pats] == [sorted(p.entries) for p in base]


def test_replay_survivors():
    pat = Pattern(((3, "z", "x", 1),))
    out = replay(TREFOIL_PAGE, pat)
    free = [t for t in out if t.free]
    tors = [t for t in out if not t.free]
    assert len(free) == 1 and free[0].name == "y"
    assert len(tors) == 1 and tors[0].order == 1 and (tors[0].h, tors[0].q) == (3, 5)


def test_replay_follows_later_page_names():
    """Entries past the first nonzero page use the page-homology names."""
    page = PageSpec((Tower("t0", 1, 4), Tower("t1", 1, 6), Tower("t2", 3, 2),
                     Tower("t3", 6, 14)))
    target = TargetSpec(free_rank=2)
    pats = enumerate_patterns(page, target)
    assert sorted({k for (k, _, _, _) in pats[0].entries}) == [3, 5]
    assert any(src.startswith("p") for (k, src, _, _) in pats[0].entries if k == 5)
    for pat in pats:
        out = replay(page, pat)
        assert sum(1 for t in out if t.free) == 2
    # d3 t2 = X^4 t3 leaves F[X]/X^4 at (6,14); d5 sends t0 -> X t3 and
    # t1 -> t3, whose kernel is spanned by t0 + X t1 at (1,4) and X^4 t1 at
    # (1,-2), both five steps below the top of the page
    rep = resolve_filtration(page, pats[0], target)
    assert rep.status == "underdetermined"
    assert rep.survivors == (("p0@1,-2", 1, -2, 5), ("t0", 1, 4, 5))


def test_trefoil_survivor_level():
    pat = Pattern(((3, "z", "x", 1),))
    rep = resolve_filtration(TREFOIL_PAGE, pat, TargetSpec(free_rank=1, torsion=(1,)))
    assert rep.status == "underdetermined"
    assert rep.survivors == (("y", 1, 1, 2),)  # two below the top of the page


def test_hopf_filtration_split():
    actions = {"U2": {("b", "b"): 1, ("bd", "b"): 1, ("bd", "bd"): 1}}
    target = TargetSpec(2, (), None, ("b", "bd"), actions)
    rep = resolve_filtration(HOPF_PAGE, Pattern(()), target)
    assert rep.status == "ok"
    assert rep.assignment == {"b": "x", "bd": "y"}
    assert rep.forced_below == (("bd", "b"),)


def test_identity_actions_underdetermined():
    actions = {"U2": {("b", "b"): 1, ("bd", "bd"): 1}}
    target = TargetSpec(2, (), None, ("b", "bd"), actions)
    rep = resolve_filtration(HOPF_PAGE, Pattern(()), target)
    assert rep.status == "underdetermined"


def test_inconsistent_actions_rejected():
    # an action needing both levels strictly deeper than each other
    actions = {"A": {("b", "bd"): 1, ("bd", "b"): 1}}
    target = TargetSpec(2, (), None, ("b", "bd"), actions)
    rep = resolve_filtration(HOPF_PAGE, Pattern(()), target)
    assert rep.status == "no assignment"


def test_wide_page_searches_only_pages_with_candidates():
    """A page 10**6 apart in h is not walked one page at a time."""
    page = PageSpec((Tower("x", 0, 0), Tower("y", 10**6, 4)))
    assert enumerate_patterns(page, TargetSpec(free_rank=2)) == [Pattern(())]


def test_resolve_survivor_budget():
    page = PageSpec(tuple(Tower("t%d" % i, i, 100 * i) for i in range(9)))
    names = tuple("b%d" % i for i in range(9))
    target = TargetSpec(9, (), None, names, {"U2": {("b1", "b0"): 1}})
    with pytest.raises(ValueError, match="9 free survivors"):
        resolve_filtration(page, Pattern(()), target)
    page = PageSpec(page.towers[:8])
    target = TargetSpec(8, (), None, names[:8], {"U2": {("b1", "b0"): 1}})
    assert resolve_filtration(page, Pattern(()), target).status == "underdetermined"


def test_anchor_matching():
    target = TargetSpec(free_rank=1, torsion=(1,),
                        anchors=((1, 1, None), (3, 5, 1)))
    pats = enumerate_patterns(TREFOIL_PAGE, target)
    assert len(pats) == 1
    bad = TargetSpec(free_rank=1, torsion=(1,), anchors=((0, 0, None), (5, 5, 1)))
    assert enumerate_patterns(TREFOIL_PAGE, bad) == []


def test_candidates_define_a_map():
    """On pages with torsion towers, _candidates gives each (src, tgt) pair
    at most once and only entries that kill the source's relation: an entry
    from a u^o-torsion tower lands on zero, u^(o + a) t = 0 in its target."""
    from skeinseq.infer import _candidates

    rng = random.Random(4242)
    seen_torsion_source = 0
    for _ in range(400):
        towers = [Tower("t%d" % i, rng.randrange(6), rng.randrange(-4, 12),
                        rng.choice((None, 1, 2, 3)))
                  for i in range(rng.randrange(2, 9))]
        for k in (1, 3, 5):
            cands = _candidates(towers, k)
            pairs = [(i, j) for (i, j, _) in cands]
            assert len(pairs) == len(set(pairs))
            for (i, j, a) in cands:
                s, t = towers[i], towers[j]
                if s.order is not None:
                    seen_torsion_source += 1
                    assert t.order is not None and s.order + a >= t.order
    assert seen_torsion_source > 50


def test_page_homology_with_torsion_cross_checked():
    """One differential into a torsion tower, checked against a hand value."""
    from skeinseq.infer import _page_homology

    summands = [Tower("z", 0, 0), Tower("x", 3, 7, 2)]
    # d3: z -> u x has bidegree (2k-2, k) = (4, 3): power (7 - 0 - 4)/2 > 0
    entries = [(0, 1, 1)]
    out = _page_homology(summands, entries)
    frees = [t for t in out if t.free]
    tors = [t for t in out if not t.free]
    # kernel of z -> u x modulo u^2 x is u*z; the x part becomes order one
    assert len(frees) == 1 and (frees[0].h, frees[0].q) == (0, -2)
    assert len(tors) == 1 and tors[0].order == 1 and (tors[0].h, tors[0].q) == (3, 7)


def test_page_homology_matches_complex_homology():
    """The infer page calculus agrees with the chain-level machinery."""
    import random as _random

    from skeinseq.complexes import CONV_KH, ChainComplex, Generator, UHomology
    from skeinseq.infer import _candidates, _page_homology, _square_zero
    from skeinseq.poly import HALF, Poly, VarSet

    rng = _random.Random(1729)
    vs = VarSet(("u",), (HALF,))
    for _ in range(40):
        towers = []
        for i in range(rng.randrange(2, 5)):
            towers.append(Tower("t%d" % i, rng.randrange(4), rng.randrange(-2, 8)))
        k = rng.choice((1, 3))
        cands = _candidates(towers, k)
        if not cands:
            continue
        picked = [c for c in cands if rng.random() < 0.5]
        if not _square_zero(towers, picked):
            continue
        out = _page_homology(towers, picked)
        # same data as a chain complex over u with the kh convention
        gens = [Generator(t.name, t.h, t.q) for t in towers]
        diff = {}
        for (i, j, a) in picked:
            diff[(towers[i].name, towers[j].name)] = Poly.var(vs, "u", a)
        # kh convention needs d to raise h by one; fake it with h = h/k scaling
        # only when k == 1; otherwise verify via the module route alone
        if k == 1 and all(
            towers[j].h - towers[i].h == 1 for (i, j, a) in picked
        ):
            cx = ChainComplex(vs, gens, diff, CONV_KH, check=True)
            hom = UHomology(cx)
            assert sorted((s.grades, s.order) for s in hom.decomposition.summands) == \
                sorted((( (t.h, t.q)), t.order) for t in out)


# -- piecewise page homology and the memoised search against plain references --


def _whole_page_homology(summands, entries):
    """The page homology as one module calculation over every tower."""
    from skeinseq.infer import _piece_homology

    grades = [(t.h, t.q, t.order) for t in summands]
    return [Tower("p%d@%d,%d" % (i, h, q), h, q, order)
            for i, (h, q, order) in enumerate(_piece_homology(grades, entries))]


def test_piecewise_page_homology_matches_whole_page():
    """Random pages of free and torsion towers, random admissible entries:
    the piecewise result equals the whole-page one, names included, also
    when a shared piece cache answers a grade-shifted copy of the page."""
    from skeinseq.infer import _candidates, _page_homology, _square_zero

    rng = random.Random(2718)
    pieces: dict = {}
    checked = passed_through = split = 0
    for _ in range(1500):
        towers = [Tower("t%d" % i, rng.randrange(6), 2 * rng.randrange(8) + 1,
                        rng.choice((None, None, 1, 2, 3)))
                  for i in range(rng.randrange(2, 11))]
        k = rng.choice((1, 3, 5))
        cands = _candidates(towers, k)
        picked = [c for c in cands if rng.random() < 0.5]
        if not picked or not _square_zero(towers, picked):
            continue
        want = _whole_page_homology(towers, picked)
        assert _page_homology(towers, picked) == want
        assert _page_homology(towers, picked, pieces) == want
        dh, dq = rng.randrange(-3, 4), 2 * rng.randrange(-3, 4)
        shifted = [Tower(t.name, t.h + dh, t.q + dq, t.order) for t in towers]
        assert _page_homology(shifted, picked, pieces) == [
            Tower("p%d@%d,%d" % (i, t.h + dh, t.q + dq), t.h + dh, t.q + dq, t.order)
            for i, t in enumerate(want)
        ]
        checked += 1
        piece = {i: {i} for i in range(len(towers))}
        for (i, j, _) in picked:
            joined = piece[i] | piece[j]
            for x in joined:
                piece[x] = joined
        touched = {frozenset(piece[i]) for (i, _, _) in picked}
        passed_through += len(touched) < len(set(map(frozenset, piece.values())))
        split += len(touched) > 1
    assert checked > 200 and passed_through > 100 and split > 50


def _reference_patterns(e2, target):
    """Plain search: every page at every k, whole-page homology, no caches."""
    from skeinseq.infer import (
        _candidates,
        _canonical_key,
        _matches_target,
        _square_zero,
        _window_free_rank,
    )

    start = list(e2.towers)
    span = max(t.h for t in start) - min(t.h for t in start)
    grade_of = {t.name: (t.h, t.q) for t in start}
    results = []

    def rec(summands, k, chosen):
        if _window_free_rank(summands) < target.free_rank:
            return
        if k > max(span, 1):
            if _matches_target(summands, target):
                pat = Pattern(tuple(chosen))
                results.append((_canonical_key(grade_of, pat), pat))
            return
        cands = _candidates(summands, k) if k % 2 else []
        for mask in range(1 << len(cands)):
            entries = [cands[i] for i in range(len(cands)) if (mask >> i) & 1]
            if not _square_zero(summands, entries):
                continue
            nxt = _whole_page_homology(summands, entries) if entries else summands
            rec(nxt, k + 1, chosen + [(k, summands[i].name, summands[j].name, a)
                                      for (i, j, a) in entries])

    rec(start, 2, [])
    seen = {}
    for key, pat in sorted(results, key=lambda kp: kp[0]):
        seen.setdefault(key, pat)
    return list(seen.values())


def _planted_page(rng, n):
    """n free towers with one to three planted d_3/d_5 pairs, and the limit
    the planted pairs alone would give."""
    grades, torsion = [], []
    pairs = rng.randrange(1, 4)
    for _ in range(pairs):
        k, a = rng.choice((3, 3, 5)), rng.choice((0, 1, 1, 2))
        h, q = rng.randrange(3), 2 * rng.randrange(4) + 1
        grades += [(h, q), (h + k, q + 2 * k - 2 + 2 * a)]
        if a:
            torsion.append(a)
    while len(grades) < n:
        grades.append((rng.randrange(6), 2 * rng.randrange(8) + 1))
    rng.shuffle(grades)
    page = PageSpec(tuple(Tower("t%d" % i, h, q) for i, (h, q) in enumerate(grades)))
    return page, TargetSpec(n - 2 * pairs, tuple(sorted(torsion)))


def test_memoised_search_matches_plain_reference():
    rng = random.Random(8)
    found = 0
    for n in (8, 9, 10, 11, 12) * 2:
        page, target = _planted_page(rng, n)
        want = _reference_patterns(page, target)
        assert enumerate_patterns(page, target) == want
        found += len(want)
    assert found > 20
