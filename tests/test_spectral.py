import dataclasses
import json
import random
from bisect import bisect_left

import pytest

from skeinseq import cli, gf2, serde
from skeinseq import khovanov as kh
from skeinseq import spectral
from skeinseq.complexes import (
    CONV_FLOER,
    CONV_KH,
    ChainComplex,
    Generator,
    UHomology,
    homology_f2,
    tensor,
)
from skeinseq.poly import HALF, Poly, VarSet
from skeinseq.spectral import (
    FilteredComplex,
    SpectralPage,
    analyze,
    check_constraints,
    converge,
    pages,
)
from test_acceptance import corpus
from test_spectral_hard import one_map_complexes, planted_sums

U1 = VarSet(("u",), (HALF,))

TREFOIL = "PD[X(1,4,2,5),X(3,6,4,1),X(5,2,6,3)]"
FIG8 = "PD[X(4,2,5,1),X(8,6,1,5),X(6,3,7,4),X(2,7,3,8)]"


def planted(jump, power=1):
    """Two-generator filtered complex with one differential of given jump."""
    gens = [Generator("a", 0), Generator("b", power - 1)]
    diff = {("a", "b"): Poly.var(U1, "u", power)}
    cx = ChainComplex(U1, gens, diff, CONV_FLOER)
    return FilteredComplex(cx, {"a": 0, "b": jump})


def test_planted_jumps_recover_page_profile():
    for jump in (1, 2, 3, 4, 5):
        fc = planted(jump, power=jump)  # h-homogeneity ties power to h here
        data = analyze(fc)
        assert sorted({e.jump for e in data.events}) == [jump]
        page_list = pages(data, jump + 1)
        tot = [sum(p.dims.values()) for p in page_list]
        # constant through page `jump`, then it drops
        assert all(t == tot[0] for t in tot[:jump])
        assert tot[jump] < tot[jump - 1]
        for r in range(1, jump + 1):
            ranks = page_list[r - 1].d_ranks
            assert (sum(ranks.values()) > 0) == (r == jump)
        rep = converge(fc, data)
        assert rep.ok


def test_spec_example_jump_three():
    # levels 0 and 3 with a u entry: d1 = d2 = 0, d3 nonzero, E4 = Einf
    gens = [Generator("a", 0), Generator("b", 0)]
    diff = {("a", "b"): Poly.var(U1, "u")}
    cx = ChainComplex(U1, gens, diff, CONV_FLOER)
    fc = FilteredComplex(cx, {"a": 0, "b": 3})
    data = analyze(fc)
    assert [e.jump for e in data.events][:1] == [3]
    assert all(e.jump == 3 for e in data.events)
    rep = converge(fc, data)
    assert rep.ok
    # the total homology is one u-torsion class: cross-check independently
    hom = UHomology(cx)
    assert hom.free_rank == 0 and hom.torsion == [1]


def test_zero_differential():
    cx = ChainComplex(U1, [Generator("a", 0), Generator("b", 0)], {}, CONV_FLOER)
    fc = FilteredComplex(cx, {"a": 0, "b": 2})
    data = analyze(fc)
    assert data.events == []
    assert converge(fc, data).ok
    page_list = pages(data, 3)
    assert page_list[0].dims == page_list[2].dims


def test_filtration_violation():
    gens = [Generator("a", 0), Generator("b", 0)]
    diff = {("a", "b"): Poly.var(U1, "u")}
    cx = ChainComplex(U1, gens, diff, CONV_FLOER)
    with pytest.raises(ValueError):
        FilteredComplex(cx, {"a": 1, "b": 0})
    with pytest.raises(ValueError):
        FilteredComplex(cx, {"a": 0, "b": 0})


def test_cube_pages_collapse_at_e2():
    for text in (TREFOIL, "PD[X(1,3,2,4),X(3,1,4,2)]"):
        d = kh.parse_pd(text)
        for flavor in ("minus", "hat"):
            cc = kh.ckh(d, flavor)
            fc = FilteredComplex(cc.complex, cc.levels)
            data = analyze(fc)
            assert all(e.jump == 1 for e in data.events)
            # E2 = Einf: page dims stabilize from r = 2 on
            p = pages(data, 4)
            assert p[1].dims == p[2].dims == p[3].dims
            assert converge(fc, data).ok
            cons = check_constraints(pages(data, 3))
            assert cons.ok


def test_e2_equals_kh_minus():
    d = kh.mirror(kh.parse_pd(TREFOIL))
    cc = kh.ckh(d, "minus")
    fc = FilteredComplex(cc.complex, cc.levels)
    data = analyze(fc)
    hom = UHomology(cc.complex)
    # expand the decomposition into windowed slot dimensions per (h, q)
    floor = data.trusted_floor
    want = {}
    for s in hom.summands:
        h, q = s.grades
        j = 0
        while True:
            qq = q - 2 * j
            if qq < floor:
                break
            if s.order is not None and j >= s.order:
                break
            want[(h, qq)] = want.get((h, qq), 0) + 1
            j += 1
    assert data.page_dims(2) == dict(sorted(want.items()))


def test_e2_equals_kh_hat():
    d = kh.parse_pd(TREFOIL)
    cc = kh.ckh(d, "hat")
    fc = FilteredComplex(cc.complex, cc.levels)
    data = analyze(fc)
    want = {k: v for k, v in homology_f2(cc.complex).items() if v}
    assert data.page_dims(2) == want


def test_monotone_dims_and_equality_iff_zero_d():
    fc = planted(3, power=3)
    data = analyze(fc)
    prev = None
    for r in range(1, 6):
        tot = sum(data.page_dims(r).values())
        if prev is not None:
            assert tot <= prev
            if tot == prev:
                assert sum(data.d_ranks(r - 1).values()) == 0
        prev = tot


def test_page_output_invariant_under_permutation():
    d = kh.parse_pd(TREFOIL)
    cc = kh.ckh(d, "minus")
    order = [g.gid for g in cc.complex.gens]
    rng = random.Random(12)
    fc = FilteredComplex(cc.complex, cc.levels)
    base = analyze(fc)
    for _ in range(3):
        rng.shuffle(order)
        cx2 = cc.complex.with_generator_order(order)
        fc2 = FilteredComplex(cx2, cc.levels)
        data2 = analyze(fc2)
        for r in (1, 2, 3):
            assert data2.page_dims(r) == base.page_dims(r)
            assert data2.d_ranks(r) == base.d_ranks(r)


def test_constraints_flag_bad_pages():
    # slot bidegree of the forced third-page arrow: (q, h) = (4, 3)
    ok_page = SpectralPage(3, {}, {((0, -1), (3, 3)): 1})
    assert check_constraints([ok_page]).ok
    bad_bidegree = SpectralPage(3, {}, {((0, -1), (3, 4)): 1})
    assert not check_constraints([bad_bidegree]).ok
    nonzero_d2 = SpectralPage(2, {}, {((0, 0), (2, 2)): 1})
    assert not check_constraints([nonzero_d2]).ok
    all_zero = SpectralPage(2, {}, {})
    assert check_constraints([all_zero]).ok


def test_einf_free_rank_matches_module_decomposition():
    # a planted jump with torsion limit: the unpaired slot count in the
    # anchor slice equals the independent module decomposition
    fc = planted(3, power=1)
    data = analyze(fc)
    hom = UHomology(fc.base)
    assert hom.free_rank == 0 and hom.torsion == [1]
    einf_total_top = sum(
        dim for (grade, lvl), dim in data.einf_by_level().items()
        if grade[0] == max(g.h for g in fc.base.gens)
    )
    assert einf_total_top == 1
    assert converge(fc, data).ok


# -- reference versions of the slot expansion, the pairing and the graded homology


@dataclasses.dataclass(frozen=True)
class SlotRef:
    gid: str
    upow: int
    grade: tuple
    level: int


def ref_scalar(grade, convention):
    return grade[1] if convention == CONV_KH else grade[0]


def ref_slot_grade(cx, gid, j):
    g = cx.gen(gid)
    unit = cx.vars.units[0] if cx.vars.n else 0
    if cx.convention == CONV_KH:
        return (g.h, g.q - 2 * unit * j)
    grade = [g.h - unit * j]
    if g.alex2 is not None:
        grade.append((g.alex2 + (unit % 2) * j) % 2)
    return tuple(grade)


def ref_sort_key(s):
    return (-s.level, s.grade, s.gid, s.upow)


def ref_mono_cols(cx):
    out = {g.gid: [] for g in cx.gens}
    for (src, tgt), p in cx.diff.items():
        out[src] += [(tgt, sum(m)) for m in p.terms]
    return out


def ref_diff_grade(grade, convention):
    if convention == CONV_KH:
        return (grade[0] + 1, grade[1])
    return (grade[0] - 1,) + grade[1:]


def ref_source_grade(grade, convention):
    if convention == CONV_KH:
        return (grade[0] - 1, grade[1])
    return (grade[0] + 1,) + grade[1:]


def ref_enumerate_slices(fc):
    """Collect the slice values, then scan every generator for each value."""
    cx = fc.base
    if cx.vars.n == 0:
        slots = [
            SlotRef(g.gid, 0, ref_slot_grade(cx, g.gid, 0), fc.levels[g.gid])
            for g in cx.gens
        ]
        return [(0, slots)], None
    unit = cx.vars.units[0]
    step = unit if cx.convention != CONV_KH else 2 * unit
    scalars = {
        g.gid: ref_scalar(ref_slot_grade(cx, g.gid, 0), cx.convention)
        for g in cx.gens
    }
    top, bot = max(scalars.values()), min(scalars.values())
    floor = bot - (top - bot) - 4 * step - 2 - fc.extra_depth
    values = set()
    for s in scalars.values():
        v = s
        while v >= floor - 2 * step:
            values.add(v)
            v -= step
    slices = []
    for v in sorted(values, reverse=True):
        lst = []
        for g in cx.gens:
            s = scalars[g.gid]
            if (s - v) % step == 0 and s >= v:
                j = (s - v) // step
                lst.append(SlotRef(g.gid, j, ref_slot_grade(cx, g.gid, j),
                                   fc.levels[g.gid]))
        slices.append((v, lst))
    return slices, floor


def ref_analyze(fc):
    """Pair each slice against the slice its differential lands in.

    Returns the (source, target) slot pairs and the unpaired slots.
    """
    cx = fc.base
    slices, floor = ref_enumerate_slices(fc)
    by_value = dict(slices)
    mono_cols = ref_mono_cols(cx)
    if cx.vars.n == 0:
        blocks = [(slices[0][1], slices[0][1])]
    elif cx.convention == CONV_KH:
        blocks = [(sl, sl) for v, sl in slices if v >= floor]
    else:
        blocks = [(sl, by_value.get(v - 1, [])) for v, sl in slices if v >= floor]
    pairs, zero, targets = [], [], set()
    for col_slots, row_slots in blocks:
        rows = sorted(row_slots, key=ref_sort_key, reverse=True)
        row_index = {(s.gid, s.upow): i for i, s in enumerate(rows)}
        space = gf2.ColumnSpace()
        for slot in sorted(col_slots, key=ref_sort_key):
            vec = 0
            for (tgt, e) in mono_cols[slot.gid]:
                vec ^= 1 << row_index[(tgt, slot.upow + e)]
            lead = space.insert(vec)[0]
            if lead < 0:
                zero.append(slot)
            else:
                targets.add(rows[lead])
                pairs.append((slot, rows[lead]))
    return pairs, [s for s in zero if s not in targets], floor


def ref_graded_homology_dims(fc, floor):
    """Rebuild the boundary space and the cycles once per filtration level."""
    cx = fc.base
    slices, _ = ref_enumerate_slices(fc)
    by_grade = {}
    for _, sl in slices:
        for s in sl:
            by_grade.setdefault(s.grade, []).append(s)
    mono_cols = ref_mono_cols(cx)

    def local_boundary(s, index):
        vec = 0
        for (tgt, e) in mono_cols[s.gid]:
            idx = index.get((tgt, s.upow + e))
            if idx is None:
                return None
            vec ^= 1 << idx
        return vec

    out = {}
    for grade in sorted(by_grade):
        if floor is not None and ref_scalar(grade, cx.convention) < floor:
            continue
        block = sorted(by_grade[grade], key=ref_sort_key)
        index = {(s.gid, s.upow): i for i, s in enumerate(block)}
        tgt_block = sorted(by_grade.get(ref_diff_grade(grade, cx.convention), []),
                           key=ref_sort_key)
        tgt_index = {(s.gid, s.upow): i for i, s in enumerate(tgt_block)}
        block_cols = [local_boundary(s, tgt_index) for s in block]
        if any(c is None for c in block_cols):
            continue
        sources = by_grade.get(ref_source_grade(grade, cx.convention), [])
        boundaries = [local_boundary(s, index) for s in sources]
        if any(b is None for b in boundaries):
            continue
        levels = sorted({s.level for s in block}, reverse=True)
        dims_by_level = {}
        for lvl in levels:
            sub_idx = [i for i, s in enumerate(block) if s.level >= lvl]
            space = gf2.ColumnSpace()
            for b in boundaries:
                if b:
                    space.add(b)
            added = 0
            for combo in gf2.column_kernel([block_cols[i] for i in sub_idx]):
                vec = 0
                for k, i in enumerate(sub_idx):
                    if combo >> k & 1:
                        vec ^= 1 << i
                if space.add(vec) is None:
                    added += 1
            dims_by_level[lvl] = added
        for pos, lvl in enumerate(levels):
            above = dims_by_level[levels[pos - 1]] if pos else 0
            piece = dims_by_level[lvl] - above
            if piece:
                out[(grade, lvl)] = piece
    return dict(sorted(out.items()))


def alex2_planted_sums():
    """Floer planted pieces whose generators carry a mod-2 Alexander grading."""
    rng = random.Random(31)
    for _ in range(12):
        gens, diff, levels = [], {}, {}
        for k in range(rng.randrange(1, 5)):
            power, jump, bit = rng.randrange(1, 4), rng.randrange(1, 5), rng.randrange(2)
            a = Generator("p%d_a" % k, 0, None, bit)
            b = Generator("p%d_b" % k, power - 1, None, (bit + power) % 2)
            gens += [a, b]
            diff[(a.gid, b.gid)] = Poly.var(U1, "u", power)
            shift = rng.randrange(3)
            levels.update({a.gid: shift, b.gid: shift + jump})
        rng.shuffle(gens)
        yield FilteredComplex(ChainComplex(U1, gens, diff, CONV_FLOER), levels)


def reference_cases():
    for _, fc in one_map_complexes():
        yield fc
    for fc, _ in planted_sums():
        yield fc
    yield from alex2_planted_sums()
    for depth in (1, 3):
        yield FilteredComplex(planted(3, power=2).base, {"a": 0, "b": 3}, depth)
        cc = kh.ckh(kh.parse_pd(TREFOIL), "minus")
        yield FilteredComplex(cc.complex, cc.levels, depth)
    for d in (kh.cyclic_knot(3), kh.cyclic_knot(5), kh.parse_pd(FIG8)):
        cc = kh.ckh(d, "minus")
        yield FilteredComplex(cc.complex, cc.levels)
    cc = kh.ckh(kh.parse_pd(TREFOIL), "hat")
    yield FilteredComplex(cc.complex, cc.levels)


def test_slices_and_graded_homology_match_references():
    kinds = set()
    for fc in reference_cases():
        cx = fc.base
        exp = fc.expansion()
        slots = [cx.gens[i].gid for i in exp.gen]
        ref = lambda s: (s.gid, s.upow, s.grade, s.level)
        got = sorted((gid, j, grade, fc.levels[gid])
                     for gid, j, grade in zip(slots, exp.mono, exp.grade))
        slices, floor = ref_enumerate_slices(fc)
        assert got == sorted(ref(s) for _, sl in slices for s in sl)
        assert fc.trusted_floor == floor
        dims = spectral._graded_homology_dims(fc, floor)
        assert dims == ref_graded_homology_dims(fc, floor)
        # per-grade blocks give the per-slice pairing slot for slot
        data = analyze(fc)
        pairs, survivors, _ = ref_analyze(fc)
        name = lambda s: (slots[s], exp.mono[s])
        assert sorted((name(e.y), name(e.x), e.jump) for e in data.events) == sorted(
            ((y.gid, y.upow), (x.gid, x.upow), x.level - y.level) for y, x in pairs)
        assert sorted(map(name, data.survivors)) == sorted(
            (s.gid, s.upow) for s in survivors)
        kinds.add((cx.convention, cx.vars.n, fc.extra_depth > 0,
                   any(g.alex2 is not None for g in cx.gens)))
    assert kinds == {
        (CONV_FLOER, 1, False, False), (CONV_FLOER, 1, False, True),
        (CONV_FLOER, 1, True, False), (CONV_KH, 1, False, False),
        (CONV_KH, 1, True, False), (CONV_KH, 0, False, False),
    }


# -- the pairing and the graded homology without clearing ------------------------


def ref_pairing_without_clearing(fc):
    """analyze before clearing: ascending blocks, every column inserted."""
    exp = fc.expansion()
    floor, level = fc.trusted_floor, fc.level
    events, zero, targets = [], [], set()
    for grade, blk in exp.blocks.items():
        if floor is not None and grade[exp.axis] < floor:
            continue
        tgt = exp.lands.get(grade)
        start = exp.blocks[tgt].start if tgt is not None else 0
        space = gf2.ColumnSpace()
        for s in reversed(blk):
            lead = space.insert(exp.cols[s])[0]
            if lead < 0:
                zero.append(s)
            else:
                x = start + lead
                targets.add(x)
                events.append(spectral.PairEvent(s, x, level[exp.gen[x]] - level[exp.gen[s]]))
    return events, [s for s in zero if s not in targets]


def ref_graded_homology_rereduced(fc, floor):
    """_graded_homology_dims before clearing: each block's boundaries are
    re-reduced from its source block into a fresh space."""
    exp = fc.expansion()
    cols, gen, blocks, level = exp.cols, exp.gen, exp.blocks, fc.level
    source = {tgt: grade for grade, tgt in exp.lands.items()}
    out = {}
    for grade, blk in blocks.items():
        if floor is not None and grade[exp.axis] < floor:
            continue
        if None in cols[blk.start:blk.stop]:
            continue
        bounds = gf2.ColumnSpace()
        if grade in source:
            for s in blocks[source[grade]]:
                bounds.insert(cols[s])
        leads = sorted(bounds.pivots)
        image = gf2.ColumnSpace()
        dims_by_level = {}
        for k, s in enumerate(reversed(blk), 1):
            image.insert(cols[s])
            bound = len(leads) - bisect_left(leads, len(blk) - k)
            dims_by_level[level[gen[s]]] = k - image.rank - bound
        above = 0
        for lvl, dim in dims_by_level.items():
            if dim > above:
                out[(grade, lvl)] = dim - above
            above = dim
    return dict(sorted(out.items()))


def clearing_cases():
    for _, fc in one_map_complexes():
        yield fc
    for fc, _ in planted_sums():
        yield fc
    yield from alex2_planted_sums()
    for depth in (1, 3):
        yield FilteredComplex(planted(3, power=2).base, {"a": 0, "b": 3}, depth)
        cc = kh.ckh(kh.cyclic_knot(5), "minus")
        yield FilteredComplex(cc.complex, cc.levels, depth)
    for d in corpus().values():
        cc = kh.ckh(d, "minus")
        yield FilteredComplex(cc.complex, cc.levels)


def test_clearing_matches_references_without_clearing():
    kinds = set()
    for fc in clearing_cases():
        data = analyze(fc)
        events, survivors = ref_pairing_without_clearing(fc)
        assert sorted(data.events) == sorted(events)
        assert sorted(data.survivors) == sorted(survivors)
        ref = spectral.SpectralData(data.slots, data.level, events, survivors,
                                    data.trusted_floor)
        max_r = data.max_jump() + 1
        assert pages(data, max_r) == pages(ref, max_r)
        assert data.einf_by_level() == ref.einf_by_level()
        rep = converge(fc, data)
        assert rep.graded_homology == ref_graded_homology_rereduced(fc, data.trusted_floor)
        assert rep.ok
        kinds.add((fc.base.convention, fc.extra_depth > 0,
                   any(g.alex2 is not None for g in fc.base.gens)))
    assert kinds == {(CONV_FLOER, False, False), (CONV_FLOER, False, True),
                     (CONV_FLOER, True, False), (CONV_KH, False, False),
                     (CONV_KH, True, False)}


# -- cancelling the jump-1 unit pairs before the pairing -------------------------


def random_bit_levels(cx, rng):
    """Levels 2h + a random bit: cube entries jump by 1, 2 or 3, so only some
    of the units cancel and the pages run past E_2."""
    return {g.gid: 2 * g.h + rng.randrange(2) for g in cx.gens}


def alex2_unit_sums(rng):
    """Floer sums of u^0..u^2 pieces a -> b with a mod-2 Alexander grading
    and level jumps 1 or 2, and tensor products of two of them (levels
    add): jump-1 units whose u-translates flip alex2."""

    def pieces(tag):
        gens, diff, levels = [], {}, {}
        for k in range(rng.randrange(1, 4)):
            power, bit = rng.randrange(3), rng.randrange(2)
            a = Generator("%s%d_a" % (tag, k), power + rng.randrange(2), None, bit)
            b = Generator("%s%d_b" % (tag, k), a.h - 1 + power, None, (bit + power) % 2)
            gens += [a, b]
            diff[(a.gid, b.gid)] = Poly.var(U1, "u", power)
            levels[a.gid] = rng.randrange(3)
            levels[b.gid] = levels[a.gid] + rng.choice((1, 1, 2))
        return ChainComplex(U1, gens, diff, CONV_FLOER), levels

    for _ in range(10):
        yield FilteredComplex(*pieces("p"))
        (c1, l1), (c2, l2) = pieces("p"), pieces("q")
        cx = tensor(c1, c2)
        levels = {a + "*" + b: l1[a] + l2[b] for a in l1 for b in l2}
        yield FilteredComplex(cx, levels, rng.choice((0, 2)))


def cancel_cases():
    """Unreduced filtered complexes: the corpus minus cubes (cyclic 5 and 7
    among them) and cyclic_knot(3); the hard families and the planted sums,
    where nothing cancels; floer sums with units and an alex2 grading;
    corpus minus cubes with levels 2h + random bit at extra depth 0 and 2."""
    cubes = [kh.ckh(d, "minus").complex
             for d in list(corpus().values()) + [kh.cyclic_knot(3)]]
    for cx in cubes:
        yield FilteredComplex(cx, {g.gid: g.h for g in cx.gens})
    for _, fc in one_map_complexes():
        yield fc
    for fc, _ in planted_sums():
        yield fc
    yield from alex2_planted_sums()
    rng = random.Random(2024)
    yield from alex2_unit_sums(rng)
    for cx in cubes:
        levels = random_bit_levels(cx, rng)
        for depth in (0, 2):
            yield FilteredComplex(cx, levels, depth)


def test_cancelled_units_keep_pages_and_einf():
    """The reduced path gives the unreduced analyze's pages, E_inf and a
    passing converge, from the same window."""
    kinds = set()
    for fc in cancel_cases():
        red = fc.cancel_units()
        data, ref = analyze(red), analyze(fc)
        assert (red.trusted_floor, red._lo) == (fc.trusted_floor, fc._lo)
        assert data.max_jump() == ref.max_jump()
        max_r = max(ref.max_jump() + 1, 2)
        assert pages(data, max_r) == pages(ref, max_r)
        assert data.einf_by_level() == ref.einf_by_level()
        assert converge(red, data).ok
        left = any((0,) in p.terms for p in red.base.diff.values())
        alex2 = any(g.alex2 is not None for g in fc.base.gens)
        kinds.add((fc.base.convention, alex2, red is fc, left, ref.max_jump() > 1,
                   fc.extra_depth > 0))
    assert kinds >= {
        (CONV_FLOER, True, True, False, True, False),  # planted sums: no unit
        (CONV_FLOER, True, False, True, True, False),  # units flipping alex2
        (CONV_FLOER, True, False, False, False, True),
        (CONV_KH, False, False, False, False, False),  # levels h: every unit cancels
        (CONV_KH, False, False, True, True, False),  # levels 2h + bit: some cancel
        (CONV_KH, False, False, True, True, True),
    }


def test_cancelled_pairs_are_counted_per_translate():
    """A unit x -> y of jump 1 becomes one jump-1 pair per u-translate with a
    trusted source, in E_1 and d_1 only."""
    gens = [Generator("x", 1, 0), Generator("y", 2, 0)]
    cx = ChainComplex(U1, gens, {("x", "y"): Poly.one(U1)}, CONV_KH)
    fc = FilteredComplex(cx, {"x": 0, "y": 1})
    red = fc.cancel_units()
    assert red.base.n == 0 and red.trusted_floor == fc.trusted_floor
    translates = {((1, -2 * j), (2, -2 * j)): 1
                  for j in range((0 - fc.trusted_floor) // 2 + 1)}
    assert red.cancelled == translates
    data, ref = analyze(red), analyze(fc)
    assert data.events == [] and data.survivors == []
    assert data.d_ranks(1) == ref.d_ranks(1) == translates
    assert data.page_dims(1) == ref.page_dims(1)
    assert data.page_dims(2) == ref.page_dims(2) == {}
    assert data.max_jump() == 1


def test_ss_output_is_the_unreduced_one(capsys, monkeypatch, tmp_path):
    """cmd_ss prints the same bytes with and without the cancellation."""
    rng = random.Random(7)
    docs = []
    for i, fc in enumerate(cancel_cases()):
        if fc.base.n > 300 or fc.base.convention == CONV_FLOER and rng.random() < 0.8:
            continue  # the small cubes and a sample of the floer families
        path = tmp_path / ("doc%d.json" % i)
        path.write_text(json.dumps(serde.dump_complex(fc.base, fc.levels)))
        docs.append((str(path), ["--truncation", str(fc.extra_depth)]))
    modes = ([], ["--truncation", "2"], ["--max-r", "4"], ["--out", "json"])
    outs = {}
    for reduce in (True, False):
        if not reduce:
            monkeypatch.setattr(FilteredComplex, "cancel_units", lambda self: self)
        for path, depth in docs:
            for mode in modes:
                code = cli.main(["ss", "--in", path] + depth + mode)
                outs.setdefault((path, tuple(depth + mode)), []).append(
                    (code, capsys.readouterr()))
    assert len(outs) == 4 * len(docs) and len(docs) > 30
    for key, (a, b) in outs.items():
        assert a == b, key
        assert a[0] == 0, key
