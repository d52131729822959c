import gc
import random

import pytest

from skeinseq import infer
from skeinseq import khovanov as kh
from skeinseq.complexes import UHomology
from skeinseq.infer import (
    FREE,
    PageSpec,
    Pattern,
    TargetSpec,
    Tower,
    _augment,
    _candidates,
    _canonical_key,
    _conflicts,
    _free_rank,
    _matches_target,
    _page_homology,
    _page_names,
    _piece_homology,
    _Search,
    _square_zero,
    enumerate_patterns,
    replay,
    resolve_filtration,
)
from skeinseq.spectral import SpectralPage, check_constraints
from skeinseq.umod import eliminate
from test_umod import dense_decompose, homology_presentation

TREFOIL_PAGE = PageSpec(
    (Tower("z", 0, -1), Tower("y", 1, 1), Tower("x", 3, 5))
)
HOPF_PAGE = PageSpec((Tower("x", 0, 0), Tower("y", 2, 4)))


def test_trefoil_page_matches_computed_kh():
    """The frozen tower placements agree with a fresh cube computation."""
    d = kh.mirror(kh.parse_pd("PD[X(1,4,2,5),X(3,6,4,1),X(5,2,6,3)]"))
    hom = UHomology(kh.ckh(d).complex)
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
    rng = random.Random(4242)
    seen_torsion_source = 0
    for _ in range(400):
        towers = [Tower("t%d" % i, rng.randrange(6), rng.randrange(-4, 12),
                        rng.choice((None, 1, 2, 3)))
                  for i in range(rng.randrange(2, 9))]
        for k in (1, 3, 5):
            cands = _candidates(_grades(towers), k)
            assert cands == _ref_candidates(towers, k)
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
    # d3: z -> u x has bidegree (2k-2, k) = (4, 3): power (7 - 0 - 4)/2 > 0
    out = _page_homology([(0, 0, FREE), (3, 7, 2)], [(0, 1, 1)], 1, {}, {})
    # kernel of z -> u x modulo u^2 x is u*z; the x part becomes order one
    assert out == ((0, -2, FREE), (3, 7, 1))


def test_page_homology_with_two_overflow_paths():
    """d x4 = x0 + u x3, d x3 = u x2 and d x0 = u^2 x2 = 0, beside a lone x1:
    both 2-paths out of x4 reach u^2 x2, which the torsion of x2 kills, so
    their corrections x4 -> y2 cancel mod 2.  Checked against the
    presentation reference."""
    page = [(1, 0, 2), (2, 3, 1), (2, 4, 2), (1, 2, FREE), (0, 0, FREE)]
    entries = [(4, 0, 0), (3, 2, 1), (4, 3, 1), (0, 2, 2)]
    want = [(1, 0, 2), (2, 3, 1), (2, 4, 1)]
    assert list(_page_homology(page, entries, 0b1111, {}, {})) == want
    assert _presented_homology(page, entries) == want


def test_page_homology_matches_complex_homology():
    """The infer page calculus agrees with the chain-level machinery."""
    from skeinseq.complexes import CONV_KH, ChainComplex, Generator, UHomology
    from skeinseq.poly import HALF, Poly, VarSet

    rng = random.Random(1729)
    vs = VarSet(("u",), (HALF,))
    for _ in range(40):
        towers = []
        for i in range(rng.randrange(2, 5)):
            towers.append(Tower("t%d" % i, rng.randrange(4), rng.randrange(-2, 8)))
        k = rng.choice((1, 3))
        cands = _ref_candidates(towers, k)
        if not cands:
            continue
        mask = rng.getrandbits(len(cands))
        picked = _picked(cands, mask)
        if not _ref_square_zero(towers, picked):
            continue
        out = _page_homology(_grades(towers), cands, mask, {}, {})
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
            assert sorted((s.grades, s.order) for s in hom.summands) == \
                sorted(((t.h, t.q), t.order) for t in _named(out))


# -- page homology and the memoised search against plain references ------------
#
# The references work on Tower lists and share nothing with the search but
# _piece_homology, the module calculation of one page.


def _grades(towers):
    return [(t.h, t.q, FREE if t.free else t.order) for t in towers]


def _named(grades):
    """Search grades as the towers of a later page, p<i>@h,q."""
    return [Tower("p%d@%d,%d" % (i, h, q), h, q, None if o == FREE else o)
            for i, (h, q, o) in enumerate(grades)]


def _picked(cands, mask):
    return [c for e, c in enumerate(cands) if mask >> e & 1]


def _whole_page_homology(summands, entries):
    """The page homology as one module calculation over every tower, sorted
    as _page_homology sorts it."""
    return _named(sorted(_piece_homology(_grades(summands), entries)))


def _presented_homology(grades, entries):
    """The sorted page homology by the presentation route of test_umod:
    cycles and boundaries by column reduction, then the dense Smith scan."""
    dcols = [{} for _ in grades]
    for (i, j, a) in entries:
        dcols[i][j] = a
    relations = [{j: o} for j, (_, _, o) in enumerate(grades) if o != FREE]
    basis, coords, vgrades = homology_presentation(
        dcols, relations, [g[:2] for g in grades], (0, 2))
    return sorted(s.grades + (FREE if s.free else s.order,)
                  for s in dense_decompose(len(basis), coords, vgrades, (0, 2)))


def _ref_candidates(summands, k, dq=None):
    """The admissible entries of d_k, of bidegree (k, dq) (default 2k - 2)."""
    out = []
    for i, s in enumerate(summands):
        for j, t in enumerate(summands):
            num = t.q - s.q - (2 * k - 2 if dq is None else dq)
            if t.h - s.h != k or num % 2 or num < 0:
                continue
            if s.order is not None and (t.order is None or s.order + num // 2 < t.order):
                continue
            out.append((i, j, num // 2))
    return sorted(out, key=lambda c: (c[2], c[0], c[1]))


def _ref_square_zero(summands, entries):
    """d^2 = 0: every power of every composite (i, l) entry sums to zero, or
    is killed by the torsion of l."""
    comp = {}
    for (i, j, a) in entries:
        for (j2, l, b) in entries:
            if j2 == j:
                comp.setdefault((i, l), set()).symmetric_difference_update({a + b})
    return all(summands[l].order is not None and p >= summands[l].order
               for (i, l), powers in comp.items() for p in powers)


def _ref_matches_target(summands, target):
    tors = sorted(t.order for t in summands if not t.free)
    if len(summands) - len(tors) != target.free_rank or tors != sorted(target.torsion):
        return False
    if target.anchors is None:
        return True

    def shape(grades):
        h0 = min((g[0] for g in grades), default=0)
        q0 = min((g[1] for g in grades), default=0)
        return sorted((h - h0, q - q0, -1 if o is None else o) for h, q, o in grades)

    return shape([(t.h, t.q, t.order) for t in summands]) == shape(target.anchors)


def _pieces(n, entries):
    """The tower sets of the connected pieces of the entries."""
    piece = {i: {i} for i in range(n)}
    for (i, j, _) in entries:
        joined = piece[i] | piece[j]
        for x in joined:
            piece[x] = joined
    return {frozenset(piece[i]) for (i, _, _) in entries}


def test_square_zero_matches_reference():
    """Every mask of random pages with torsion towers: the conflict pairs
    give the reference's square-zero test, also where a composite dies in
    the torsion of its target."""
    rng = random.Random(99)
    killed = 0
    for _ in range(300):
        towers = [Tower("t%d" % i, rng.randrange(4), 2 * rng.randrange(4),
                        rng.choice((None, 1, 2, 3)))
                  for i in range(rng.randrange(3, 8))]
        cands = _ref_candidates(towers, 1)[:10]
        conflicts = _conflicts(_grades(towers), cands)
        for mask in range(1 << len(cands)):
            picked = _picked(cands, mask)
            want = _ref_square_zero(towers, picked)
            assert _square_zero(mask, conflicts) == want
            killed += want and any(
                j == j2 and towers[l].order is not None and a + b >= towers[l].order
                for (_, j, a) in picked for (j2, l, b) in picked)
    assert killed > 100


def test_piecewise_page_homology_matches_whole_page():
    """Random pages of free and torsion towers, random admissible entries:
    the piecewise result equals the whole-page one, also when the piece
    cache of the page answers and when the shape cache answers a
    grade-shifted copy of the page."""
    rng = random.Random(2718)
    shapes: dict = {}
    checked = passed_through = split = 0
    for _ in range(1500):
        towers = [Tower("t%d" % i, rng.randrange(6), 2 * rng.randrange(8) + 1,
                        rng.choice((None, None, 1, 2, 3)))
                  for i in range(rng.randrange(2, 11))]
        k = rng.choice((1, 3, 5))
        cands = _ref_candidates(towers, k)
        mask = rng.getrandbits(len(cands))
        picked = _picked(cands, mask)
        if not picked or not _ref_square_zero(towers, picked):
            continue
        want = _whole_page_homology(towers, picked)
        page, pieces = _grades(towers), {}
        assert _named(_page_homology(page, cands, mask, {}, {})) == want
        assert _named(_page_homology(page, cands, mask, pieces, shapes)) == want
        assert _named(_page_homology(page, cands, mask, pieces, {})) == want
        dh, dq = rng.randrange(-3, 4), 2 * rng.randrange(-3, 4)
        shifted = [(h + dh, q + dq, o) for h, q, o in page]
        assert _named(_page_homology(shifted, cands, mask, {}, shapes)) == [
            Tower("p%d@%d,%d" % (i, t.h + dh, t.q + dq), t.h + dh, t.q + dq, t.order)
            for i, t in enumerate(want)
        ]
        checked += 1
        touched = _pieces(len(towers), picked)
        passed_through += sum(map(len, touched)) < len(towers)
        split += len(touched) > 1
    assert checked > 200 and passed_through > 100 and split > 50


def test_page_homology_on_pages_of_repeated_grades():
    """8-12 towers on a few repeated grades, many masks of one page sharing
    its piece cache: masks of three or more pieces equal the whole page."""
    rng = random.Random(31)
    checked = three_pieces = 0
    for _ in range(100):
        spots = [(rng.randrange(5), 2 * rng.randrange(5) + 1, rng.choice((None, None, 1, 2)))
                 for _ in range(rng.randrange(3, 6))]
        towers = [Tower("t%d" % i, *rng.choice(spots)) for i in range(rng.randrange(8, 13))]
        k = rng.choice((1, 3))
        cands = _ref_candidates(towers, k)
        if len(cands) < 3:
            continue
        page, pieces, shapes = _grades(towers), {}, {}
        for _ in range(40):
            # mostly entries on towers no earlier entry touched, so that the
            # mask splits into several pieces
            mask = touched = 0
            for e in rng.sample(range(len(cands)), len(cands)):
                bits = 1 << cands[e][0] | 1 << cands[e][1]
                if rng.random() < (0.8 if bits & touched == 0 else 0.1):
                    mask |= 1 << e
                    touched |= bits
            picked = _picked(cands, mask)
            if not _ref_square_zero(towers, picked):
                continue
            got = _page_homology(page, cands, mask, pieces, shapes)
            assert _named(got) == _whole_page_homology(towers, picked)
            checked += 1
            three_pieces += len(_pieces(len(towers), picked)) >= 3
    assert checked > 800 and three_pieces > 120


def test_free_model_matches_the_presentation_reference(monkeypatch):
    """Random square-zero pages of free and u, u^2, u^3 towers, with d of
    bidegree (k, 2k - 2) or off it: _piece_homology on the whole page, and
    _page_homology piece by piece, give the summands of the presentation
    route, cycles and boundaries by column reduction and then the dense
    Smith scan, which share no elimination with them.  The pages cover
    entries out of torsion towers, 2-paths whose composite only the torsion
    of its target kills (the d^2 correction), and pairs whose target is a
    resolving generator y."""
    targets = []

    def recording(cols, n, *args, cancelled, **kwargs):
        eliminate(cols, n, *args, cancelled=cancelled, **kwargs)
        targets.append([t for _, t, _ in cancelled])
    monkeypatch.setattr(infer, "eliminate", recording)
    rng = random.Random(1105)
    checked = torsion_source = overflow = y_target = 0
    for _ in range(8000):
        k = rng.choice((1, 3, 5))
        levels = [rng.randrange(3) for _ in range(rng.randrange(2, 8))]
        towers = [Tower("t%d" % i, k * v, (2 * k - 2) * v + rng.randrange(-2, 10),
                        rng.choice((None, None, 1, 2, 3)))
                  for i, v in enumerate(levels)]
        cands = _ref_candidates(towers, k, 2 * k - 2 + rng.choice((0, 0, 1, -1)))
        mask = rng.getrandbits(len(cands))
        picked = _picked(cands, mask)
        if not picked or not _ref_square_zero(towers, picked):
            continue
        grades = _grades(towers)
        want = _presented_homology(grades, picked)
        targets.clear()
        assert sorted(_piece_homology(grades, picked)) == want, (towers, picked)
        y_target += any(t >= len(towers) for t in targets[0])
        assert list(_page_homology(grades, cands, mask, {}, {})) == want, (towers, picked)
        checked += 1
        torsion_source += any(not towers[i].free for (i, _, _) in picked)
        overflow += any(j == j2 and not towers[l].free and a + b >= towers[l].order
                        for (_, j, a) in picked for (j2, l, b) in picked)
    assert checked > 2000 and torsion_source >= 100 and overflow >= 50 and y_target >= 100


def _reference_patterns(e2, target):
    """Plain search: every page at every k, whole-page homology, no caches."""
    start = list(e2.towers)
    span = max(t.h for t in start) - min(t.h for t in start)
    grade_of = {t.name: (t.h, t.q) for t in start}
    results = []

    def rec(summands, k, chosen):
        if sum(1 for t in summands if t.free) < target.free_rank:
            return
        if k > max(span, 1):
            if _ref_matches_target(summands, target):
                pat = Pattern(tuple(chosen))
                results.append((_canonical_key(grade_of, pat), pat))
            return
        cands = _ref_candidates(summands, k) if k % 2 else []
        for mask in range(1 << len(cands)):
            entries = _picked(cands, mask)
            if not _ref_square_zero(summands, entries):
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


def _anchored(page, target, pattern):
    """The target with the anchors of the limit the pattern reaches."""
    return TargetSpec(target.free_rank, target.torsion,
                      tuple((t.h, t.q, t.order) for t in replay(page, pattern)))


def test_memoised_search_matches_plain_reference():
    """The planted target, and targets two and four free towers below the
    start page, where the free-rank bound drops most masks, the latter also
    with the anchors of a limit they reach."""
    rng, pick = random.Random(8), random.Random(12)
    found = below = anchored = 0
    for n in (8, 9, 10, 11, 12) * 2:
        page, target = _planted_page(rng, n)
        want = _reference_patterns(page, target)
        assert enumerate_patterns(page, target) == want
        found += len(want)
        for drop in (2, 4):
            torsion = pick.sample(target.torsion, min(drop // 2, len(target.torsion)))
            lower = TargetSpec(n - drop, tuple(sorted(torsion)))
            want = _reference_patterns(page, lower)
            assert enumerate_patterns(page, lower) == want
            below += len(want)
            if want:
                lower = _anchored(page, lower, pick.choice(want))
                want = _reference_patterns(page, lower)
                assert want and enumerate_patterns(page, lower) == want
                anchored += len(want)
    assert found > 20 and below > 100 and anchored > 40


def _ref_rank(rows):
    """The F2 rank of int bit rows."""
    rank, rows = 0, list(rows)
    while rows:
        pivot = rows.pop()
        if pivot:
            rank += 1
            low = pivot & -pivot
            rows = [r ^ pivot if r & low else r for r in rows]
    return rank


def _ref_tables(towers, cands):
    """The tables of _free_rank: per free source, its free-to-free entry
    bits and the target bits of each subset of them."""
    tables = []
    for i in range(len(towers)):
        ents = [(e, j) for e, (s, j, _) in enumerate(cands)
                if s == i and towers[i].free and towers[j].free]
        if ents:
            table = {}
            for sub in range(1 << len(ents)):
                picked = [ents[x] for x in range(len(ents)) if sub >> x & 1]
                table[sum(1 << e for e, _ in picked)] = sum(1 << j for _, j in picked)
            tables.append((sum(1 << e for e, _ in ents), table))
    return tables


def test_free_towers_left_are_free_towers_less_twice_the_free_rank():
    """Localized at u the torsion towers die and each entry u^a is a unit, so
    the page homology of a square-zero mask has n_free - 2 rank_F2(B) free
    towers, B the 0/1 matrix of its free-to-free entries; _free_rank reads
    that rank, or limit + 1 once the rank passes limit, for every limit."""
    rng = random.Random(3301)
    checked = with_torsion = rank_two = two_path = 0
    for _ in range(1000):
        k = rng.choice((1, 3, 5))
        levels = [rng.choice((0, 1, 1, 2)) for _ in range(rng.randrange(4, 11))]
        towers = [Tower("t%d" % i, k * v, (2 * k - 2) * v + 2 * rng.randrange(3),
                        rng.choice((None, None, None, 1, 2, 3)))
                  for i, v in enumerate(levels)]
        cands = _ref_candidates(towers, k)[:12]
        tables = _ref_tables(towers, cands)
        n_free = sum(t.free for t in towers)
        for _ in range(8):
            mask = rng.getrandbits(len(cands))
            picked = _picked(cands, mask)
            if not picked or not _ref_square_zero(towers, picked):
                continue
            rows = {}
            for (i, j, _) in picked:
                if towers[i].free and towers[j].free:
                    rows[i] = rows.get(i, 0) | 1 << j
            rank = _ref_rank(rows.values())
            out = _page_homology(_grades(towers), cands, mask, {}, {})
            assert sum(o == FREE for _, _, o in out) == n_free - 2 * rank
            for limit in range(n_free + 1):
                assert _free_rank(mask, tables, limit) == min(rank, limit + 1)
            checked += 1
            with_torsion += n_free < len(towers)
            rank_two += rank >= 2
            two_path += any(j == j2 for (_, j, _) in picked for (j2, _, _) in picked)
    assert checked > 4000 and with_torsion > 4000 and rank_two > 400 and two_path > 250


def test_search_leaves_no_cycle():
    """The search's caches are freed when the call returns, without the
    cycle collector."""
    page, target = _planted_page(random.Random(8), 10)
    gc.collect()
    gc.disable()
    try:
        assert enumerate_patterns(page, target)
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- the search split over the components of the candidate graph ---------------


def _mask_free_rank(page, cands, mask):
    """The F2 rank of the 0/1 matrix of mask's free-to-free entries."""
    rows = {}
    for (i, j, _) in _picked(cands, mask):
        if page[i][2] == page[j][2] == FREE:
            rows[i] = rows.get(i, 0) | 1 << j
    return _ref_rank(rows.values())


def _one_loop_suffixes(self, page, k, names=None):
    """_Search.suffixes as one loop over every mask of the page, its free
    rank read off _mask_free_rank: the reference for the search split over
    the components of the candidate graph."""
    searched, key = self.searched, (page, k)
    found = searched.get(key)
    if found is not None:
        return found
    if (limit := (sum(o == FREE for _, _, o in page) - self.target.free_rank) // 2) < 0:
        found = searched[key] = []
        return found
    hs = {h for h, _, _ in page}
    k = min((g for g in (t - s for s in hs for t in hs) if g >= k and g % 2), default=None)
    found = searched.get((page, k))
    if found is not None:
        searched[key] = found
        return found
    found = searched[key] = searched[(page, k)] = []
    if k is None:
        if _matches_target(page, self.target):
            found.append(())
        return found
    cands = _candidates(page, k)
    if len(cands) > infer.MAX_CANDIDATES:
        raise ValueError("too many candidate entries on page %d" % k)
    conflicts, pieces = _conflicts(page, cands), {}
    found.extend(self.suffixes(page, k + 1, names))
    for mask in range(1, 1 << len(cands)):
        if not _square_zero(mask, conflicts) or _mask_free_rank(page, cands, mask) > limit:
            continue
        rests = self.suffixes(_page_homology(page, cands, mask, pieces, self.shapes), k + 1)
        if rests:
            if names is None:
                names = _page_names(page)
            entries = tuple((k, names[i], names[j], a) for (i, j, a) in _picked(cands, mask))
            found.extend(entries + rest for rest in rests)
    return found


class _OneLoopSearch(_Search):
    suffixes = _one_loop_suffixes


class _Counted:
    """Counts the (page, k) of every suffixes call, the recursive ones too: a
    search makes one for the zero mask and one for each mask that passes
    square-zero and the free-rank bound."""

    def __init__(self, target):
        super().__init__(target)
        self.calls = {}

    def suffixes(self, page, k, names=None):
        self.calls[page, k] = self.calls.get((page, k), 0) + 1
        return super().suffixes(page, k, names)


class _CountedSearch(_Counted, _Search):
    pass


class _CountedOneLoopSearch(_Counted, _OneLoopSearch):
    pass


def _grouped_page(rng, groups, orders=(FREE,), heights=(0, 1, 3, 4, 6)):
    """Grades of groups groups of towers, 20 apart in h.  A group has towers at
    h = 0 and 3 and up to two more at one of heights, by default so that d_3
    and d_5 have candidates, at q = 2h + 1, 3 or 5; q stays too close for
    d_15 or later to join two groups, so every component of a candidate graph
    lies in one."""
    out = []
    for g in range(groups):
        for h in (0, 3) + tuple(rng.choice(heights) for _ in range(rng.randrange(3))):
            out.append((20 * g + h, 2 * (h + rng.randrange(3)) + 1, rng.choice(orders)))
    return tuple(out)


def _first_components(page):
    """The number of components of the candidate graph of the first page the
    search takes candidates from (a search from k = 2)."""
    hs = {h for h, _, _ in page}
    k = min((g for g in (t - s for s in hs for t in hs) if g >= 2 and g % 2), default=None)
    cands = _candidates(page, k) if k else []
    return len(infer._pieces(cands, (1 << len(cands)) - 1))


def _same_suffixes(page, target, names=None):
    """The split search and the one-loop reference agree on the page, in the
    same order, also on a refusal, and search the same pages as often: the
    free-rank bound drops the same masks.  Returns the suffixes."""
    ref, split = _CountedOneLoopSearch(target), _CountedSearch(target)
    try:
        want = ref.suffixes(page, 2, names)
    except ValueError as exc:
        with pytest.raises(ValueError, match=str(exc)):
            split.suffixes(page, 2, names)
        return []
    assert split.suffixes(page, 2, names) == want
    assert split.calls == ref.calls
    return want


def test_component_search_matches_the_one_loop_reference():
    """Seeded pages of one to four groups of towers: free start pages with the
    targets two and four free towers below them, and with the limit, with
    and without its anchors, of a random square-zero d_3 and no later
    differential, often with torsion; and start pages with torsion towers.
    The split search gives the one-loop search's suffix lists, in the same
    order."""
    rng = random.Random(3535)
    comps = {}
    hits = anchored = torsion = 0
    for trial in range(240):
        groups = 1 + trial % 4
        page = _grouped_page(rng, groups)[:12]
        count = _first_components(page)
        comps[count] = comps.get(count, 0) + 1
        names = ["t%d" % i for i in range(len(page))]
        for drop in (2, 4):
            hits += len(_same_suffixes(page, TargetSpec(len(page) - drop), names))
        cands = _candidates(page, 3)
        mask = rng.getrandbits(len(cands))
        if _square_zero(mask, _conflicts(page, cands)):
            limit = _page_homology(page, cands, mask, {}, {})
            orders = tuple(sorted(o for _, _, o in limit if o != FREE))
            target = TargetSpec(len(limit) - len(orders), orders)
            assert _same_suffixes(page, target, names)
            anchors = tuple((h, q, None if o == FREE else o) for h, q, o in limit)
            found = _same_suffixes(page, TargetSpec(target.free_rank, orders, anchors), names)
            assert any(len(s) == mask.bit_count() for s in found)
            anchored += len(found)
            torsion += bool(orders)
        mixed = _grouped_page(rng, groups, (FREE, FREE, 1, 2, 3))[:12]
        n_free = sum(o == FREE for _, _, o in mixed)
        for drop in (0, 2):
            hits += len(_same_suffixes(mixed, TargetSpec(max(n_free - drop, 0))))
    assert all(comps.get(c, 0) >= 20 for c in (1, 2, 3, 4)), comps
    assert hits > 300 and anchored > 300 and torsion > 100


def test_each_conflict_group_lies_in_one_component():
    """Each pair of a conflict group is i -> j -> l, and the pairs of a group
    share i and l, so all of them lie in one component of the candidate
    graph; the split square-zero test equals the whole-page one."""
    rng = random.Random(71)
    groups_seen = split = 0
    for _ in range(800):
        page = _grouped_page(rng, rng.randrange(1, 4), (FREE, FREE, FREE, 1, 2), (6,))
        cands = _candidates(page, 3)[:12]
        comps = infer._pieces(cands, (1 << len(cands)) - 1)
        conflicts = _conflicts(page, cands)
        for group in conflicts:
            assert sum(any(pair & bits for pair in group) for _, bits in comps) == 1
            assert all(pair & bits in (0, pair) for _, bits in comps for pair in group)
            groups_seen += 1
        own = [[g for g in conflicts if g[0] & bits] for _, bits in comps]
        for _ in range(10):
            mask = rng.getrandbits(len(cands))
            assert _square_zero(mask, conflicts) == all(
                _square_zero(mask & bits, mine) for (_, bits), mine in zip(comps, own))
        split += len(comps) > 1 and any(own)
    assert groups_seen > 300 and split > 50


def test_free_rank_is_the_sum_over_components():
    """The free-to-free 0/1 matrix is block-diagonal over the components of
    the candidate graph, so its F2 rank is the sum of the blocks' ranks, and
    the rank tables of a component hold only its own sources."""
    rng = random.Random(72)
    checked = several = 0
    for _ in range(300):
        page = _grouped_page(rng, rng.randrange(1, 5), (FREE, FREE, FREE, 1, 2))
        cands = _candidates(page, 3)[:14]
        towers = _named(page)
        tables = _ref_tables(towers, cands)
        comps = infer._pieces(cands, (1 << len(cands)) - 1)
        for _ in range(20):
            mask = rng.getrandbits(len(cands))
            rank = _mask_free_rank(page, cands, mask)
            parts = [_free_rank(mask & bits, [t for t in tables if t[0] & bits], len(page))
                     for _, bits in comps]
            assert sum(parts) == rank == _free_rank(mask, tables, len(page))
            assert sum(len([t for t in tables if t[0] & bits]) for _, bits in comps) == len(tables)
            checked += 1
            several += sum(p > 0 for p in parts) > 1
    assert checked > 5000 and several > 400


def _ref_matching(edges, used=frozenset()):
    """The size of a largest matching of a {source: targets} graph, by trying
    every target, or none, for the first source."""
    if not edges:
        return 0
    (i, targets), rest = next(iter(edges.items())), dict(list(edges.items())[1:])
    return max([_ref_matching(rest, used)] + [1 + _ref_matching(rest, used | {j})
                                              for j in targets if j not in used])


def test_term_rank_is_the_largest_rank():
    """The largest F2 rank over the subsets of the free-to-free candidates is
    their term rank, the size of a largest matching of sources to targets
    that _augment grows: a matching's entries alone have it as their rank.
    On random graphs, where the first target a source tries is often the
    wrong one, _augment's matching is a largest one."""
    rng = random.Random(73)
    seen = set()
    for _ in range(400):
        page = _grouped_page(rng, rng.randrange(1, 3), (FREE, FREE, FREE, 1))
        cands = _candidates(page, 3)[:12]
        free = {}
        for e, (i, j, _) in enumerate(cands):
            if page[i][2] == page[j][2] == FREE:
                free.setdefault(i, {})[j] = e
        match = {}
        term = sum(_augment(i, free, match, set()) for i in free)
        assert len(match) == term and len(set(match.values())) == term
        assert all(j in free[i] for j, i in match.items())
        best = max(_mask_free_rank(page, cands, mask) for mask in range(1 << len(cands)))
        assert term == best == _ref_matching(free)
        seen.add(term)
    assert {0, 1, 2, 3, 4} <= seen
    rerouted = 0
    for _ in range(500):
        edges = {}
        for i in rng.sample(range(6), rng.randrange(1, 7)):
            edges[i] = rng.sample(range(6, 12), rng.randrange(1, 4))
        match, greedy = {}, set()  # greedy: each source takes its first free target
        for targets in edges.values():
            greedy.update([j for j in targets if j not in greedy][:1])
        term = sum(_augment(i, edges, match, set()) for i in edges)
        assert term == len(match) == _ref_matching(edges)
        assert all(j in edges[i] for j, i in match.items())
        rerouted += term > len(greedy)
    assert rerouted > 50


def test_tabulate_lists_the_masks_of_the_other_components():
    """_tabulate lists, by rank, every mask over the components' entries
    whose part in each component squares to zero and whose free-to-free
    ranks sum to at most limit, with that sum and its part per component,
    and no grades yet."""
    rng = random.Random(74)
    checked = 0
    for _ in range(200):
        page = _grouped_page(rng, rng.randrange(2, 5), (FREE, FREE, FREE, 1, 2), (0, 3, 6))
        cands = _candidates(page, 3)[:12]
        comps = infer._pieces(cands, (1 << len(cands)) - 1)
        if len(comps) < 2:
            continue
        conflicts, tables = _conflicts(page, cands), _ref_tables(_named(page), cands)
        others = comps[1:]
        bits = sum(b for _, b in others)
        for limit in range(4):
            got = infer._tabulate(others, conflicts, tables, limit)
            assert [rank for rank, *_ in got] == sorted(rank for rank, *_ in got)
            want = {}
            sub = 0
            while True:
                rank = _mask_free_rank(page, cands, sub)
                if rank <= limit and _ref_square_zero(_named(page), _picked(cands, sub)):
                    want[sub] = rank
                sub = (sub - bits) & bits
                if not sub:
                    break
            assert {mask: rank for rank, mask, _, _ in got} == want
            assert len(got) == len(want)
            for rank, mask, parts, grades in got:
                assert grades is None
                assert [(s, t) for s, t in parts] == [(mask & b, t) for t, b in others]
            checked += 1
    assert checked > 200


def test_a_one_component_page_tabulates_nothing(monkeypatch):
    """A page whose candidates form one component is walked mask by mask with
    no table; a page of two groups tabulates the smaller one."""
    tabulated = []

    def recording(comps, *args):
        tabulated.append(comps)
        return tabulate(comps, *args)
    tabulate = infer._tabulate
    monkeypatch.setattr(infer, "_tabulate", recording)
    # three towers at (0, 0) and three at (3, 4): nine d_3 units, one component,
    # and no page after it has a candidate
    one = PageSpec(tuple(Tower("a%d" % i, 0, 0) for i in range(3))
                   + tuple(Tower("b%d" % i, 3, 4) for i in range(3)))
    # patterns are told apart by their number of entries: the invertible 3 x 3
    # matrices over F2 have three to seven
    assert sorted(len(p.entries) for p in enumerate_patterns(one, TargetSpec(0))) == [3, 4, 5, 6, 7]
    assert tabulated == []
    two = PageSpec(one.towers + (Tower("c", 21, 1), Tower("d", 24, 5)))
    assert sorted(len(p.entries) for p in enumerate_patterns(two, TargetSpec(0))) == [4, 5, 6, 7, 8]
    assert [[bits.bit_count() for _, bits in comps] for comps in tabulated] == [[1]]
