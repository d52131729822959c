import collections
import dataclasses
import json
import math
import random
from bisect import bisect_left
from itertools import islice

import pytest

from skeinseq import cli, gf2, serde
from skeinseq import khovanov as kh
from skeinseq import spectral
from skeinseq.complexes import (
    CONV_FLOER,
    CONV_KH,
    ChainComplex,
    Expansion,
    Generator,
    UHomology,
    homology_f2,
    tensor,
)
from skeinseq.poly import FULL, HALF, Poly, VarSet
from skeinseq.spectral import (
    FilteredComplex,
    SpectralPage,
    analyze,
    check_constraints,
    converge,
    pages,
)
from test_acceptance import corpus
from test_khovanov import reference_cube, reordered
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


def test_negative_extra_depth_is_refused():
    """extra_depth below 0 raises instead of being read as 0."""
    cc = kh.ckh(kh.parse_pd(TREFOIL))
    with pytest.raises(ValueError, match="extra_depth must be at least 0, not -1"):
        FilteredComplex(cc.complex, cc.levels, -1)
    assert FilteredComplex(cc.complex, cc.levels, 0).extra_depth == 0


def test_cube_pages_collapse_at_e2():
    for text in (TREFOIL, "PD[X(1,3,2,4),X(3,1,4,2)]"):
        d = kh.parse_pd(text)
        for cc in (kh.ckh(d), reference_cube(d, "hat")):
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
    cc = kh.ckh(d)
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
    cc = reference_cube(d, "hat")
    fc = FilteredComplex(cc.complex, cc.levels)
    data = analyze(fc)
    want = {k: v for k, v in homology_f2(cc.complex).items() if v}
    assert data.page_dims(2) == want == cli.flavor_dims(kh.ckh(d), "hat")


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
    cc = kh.ckh(d)
    order = [g.gid for g in cc.complex.gens]
    rng = random.Random(12)
    fc = FilteredComplex(cc.complex, cc.levels)
    base = analyze(fc)
    for _ in range(3):
        rng.shuffle(order)
        cx2 = reordered(cc.complex, order)
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
        cc = kh.ckh(kh.parse_pd(TREFOIL))
        yield FilteredComplex(cc.complex, cc.levels, depth)
    for d in (kh.cyclic_knot(3), kh.cyclic_knot(5), kh.parse_pd(FIG8)):
        cc = kh.ckh(d)
        yield FilteredComplex(cc.complex, cc.levels)
    cc = reference_cube(kh.parse_pd(TREFOIL), "hat")
    yield FilteredComplex(cc.complex, cc.levels)


def full_expansion(fc):
    """The whole window of fc, down to fc._lo, in the slot order of
    fc.expansion(), which builds only its top."""
    ids, level = fc.base.ids, fc.level
    order = sorted(range(len(ids)), reverse=True, key=lambda i: (-level[i], ids[i]))
    return Expansion(fc.base, fc._lo, order)


def slot_names(fc, exp):
    """(gid, u power, grade) of every slot of an expansion of fc."""
    ids, n = fc.base.ids, fc.base.n
    return [(ids[i], k // n, grade) for i, k, grade in zip(exp.gen, exp._keys, exp.grade)]


def analysed(fc, grade):
    """Whether analyze reduces the block of this grade itself (the blocks
    below fc.period_floor are counted as u-translates)."""
    return fc.period_floor is None or ref_scalar(grade, fc.base.convention) >= fc.period_floor


def test_slices_and_graded_homology_match_references():
    kinds = set()
    for fc in reference_cases():
        cx = fc.base
        full = full_expansion(fc)
        got = sorted((gid, j, grade, fc.levels[gid]) for gid, j, grade in slot_names(fc, full))
        slices, floor = ref_enumerate_slices(fc)
        ref = lambda s: (s.gid, s.upow, s.grade, s.level)
        assert got == sorted(ref(s) for _, sl in slices for s in sl)
        assert fc.trusted_floor == floor
        # the built window is the top of the whole one
        exp = fc.expansion()
        cut = None if fc.period_floor is None else fc.period_floor - (cx.convention != CONV_KH)
        top = [s for s in slot_names(fc, full)
               if cut is None or ref_scalar(s[2], cx.convention) >= cut]
        assert sorted(slot_names(fc, exp)) == sorted(top)
        dims = spectral._graded_homology_dims(fc)
        assert dims == ref_graded_homology_dims(fc, floor)
        # per-grade blocks give the per-slice pairing slot for slot
        data = analyze(fc)
        pairs, survivors, _ = ref_analyze(fc)
        names = [(gid, j) for gid, j, _ in slot_names(fc, exp)]
        assert sorted((names[e.y], names[e.x], e.jump) for e in data.events) == sorted(
            ((y.gid, y.upow), (x.gid, x.upow), x.level - y.level)
            for y, x in pairs if analysed(fc, y.grade))
        assert sorted(names[s] for s in data.survivors) == sorted(
            (s.gid, s.upow) for s in survivors if analysed(fc, s.grade))
        assert data.einf_by_level() == ref_tables(fc, full).einf_by_level()
        kinds.add((cx.convention, cx.vars.n, fc.extra_depth > 0,
                   any(g.alex2 is not None for g in cx.gens)))
    assert kinds == {
        (CONV_FLOER, 1, False, False), (CONV_FLOER, 1, False, True),
        (CONV_FLOER, 1, True, False), (CONV_KH, 1, False, False),
        (CONV_KH, 1, True, False), (CONV_KH, 0, False, False),
    }


# -- the pairing and the graded homology without clearing ------------------------


def ref_pairing_without_clearing(fc, exp, low):
    """analyze before clearing: ascending blocks from slice value low up,
    every column inserted."""
    level = fc.level
    events, zero, targets = [], [], set()
    for grade, blk in exp.blocks.items():
        if low is not None and grade[exp.axis] < low:
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


@dataclasses.dataclass
class RefTables:
    """The page tables read slot by slot off a pairing of the whole window:
    the reference for SpectralData, which reads them off tallies that count
    the periodic blocks once per u-translate."""
    slots: Expansion
    level: list
    events: list
    survivors: list
    trusted_floor: object
    cancelled: dict

    def _trusted(self, grade):
        return self.trusted_floor is None or grade[self.slots.axis] >= self.trusted_floor

    def max_jump(self):
        return max((e.jump for e in self.events), default=int(bool(self.cancelled)))

    def page_dims(self, r):
        grade = self.slots.grade
        dims = {}

        def bump(g, count=1):
            if self._trusted(g):
                dims[g] = dims.get(g, 0) + count

        for s in self.survivors:
            bump(grade[s])
        for e in self.events:
            if e.jump >= r:
                bump(grade[e.x])
                bump(grade[e.y])
        if r == 1:
            for pair, count in self.cancelled.items():
                for g in pair:
                    bump(g, count)
        return dict(sorted(dims.items()))

    def d_ranks(self, r):
        grade = self.slots.grade
        out = {}
        for e in self.events:
            y, x = grade[e.y], grade[e.x]
            if e.jump == r and (self._trusted(y) or self._trusted(x)):
                out[(y, x)] = out.get((y, x), 0) + 1
        if r == 1:
            for pair, count in self.cancelled.items():
                out[pair] = out.get(pair, 0) + count
        return dict(sorted(out.items()))

    def einf_by_level(self):
        grade, gen = self.slots.grade, self.slots.gen
        out = {}
        for s in self.survivors:
            if self._trusted(grade[s]):
                key = (grade[s], self.level[gen[s]])
                out[key] = out.get(key, 0) + 1
        return dict(sorted(out.items()))


def ref_tables(fc, full=None):
    """RefTables of fc's whole window, paired without clearing and without
    translation (fc's own cancelled pairs included)."""
    if full is None:
        full = full_expansion(fc)
    events, survivors = ref_pairing_without_clearing(fc, full, fc.trusted_floor)
    return RefTables(full, fc.level, events, survivors, fc.trusted_floor, fc.cancelled)


def ref_graded_homology_rereduced(fc, exp, floor):
    """_graded_homology_dims before clearing, on a whole window: each
    block's boundaries are re-reduced from its source block into a fresh
    space."""
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
        cc = kh.ckh(kh.cyclic_knot(5))
        yield FilteredComplex(cc.complex, cc.levels, depth)
    for d in corpus().values():
        cc = kh.ckh(d)
        yield FilteredComplex(cc.complex, cc.levels)


def test_clearing_matches_references_without_clearing():
    kinds = set()
    for fc in clearing_cases():
        data = analyze(fc)
        events, survivors = ref_pairing_without_clearing(fc, fc.expansion(), fc.period_floor)
        assert sorted(data.events) == sorted(events)
        assert sorted(data.survivors) == sorted(survivors)
        full = full_expansion(fc)
        ref = ref_tables(fc, full)
        max_r = ref.max_jump() + 1
        assert data.max_jump() == ref.max_jump()
        assert pages(data, max_r) == [SpectralPage(r, ref.page_dims(r), ref.d_ranks(r))
                                      for r in range(1, max_r + 1)]
        assert data.einf_by_level() == ref.einf_by_level()
        rep = converge(fc, data)
        assert rep.graded_homology == ref_graded_homology_rereduced(fc, full, fc.trusted_floor)
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


def wide_alex2(fc, rng):
    """The same filtered complex with each alex2 moved by -2, 0 or 2: a
    document may give any integer, and only its class mod 2 grades."""
    cx = fc.base
    alex2 = [a + 2 * rng.randrange(-1, 2) for a in cx.alex2]
    wide = ChainComplex.from_columns(cx.vars, list(cx.ids), cx.h, None, alex2, cx.cols,
                                     CONV_FLOER)
    return FilteredComplex(wide, fc.levels, fc.extra_depth)


def is_wide(cx):
    return cx.alex2 is not None and any(a not in (0, 1) for a in cx.alex2)


def cancel_cases():
    """Unreduced filtered complexes: the corpus minus cubes (cyclic 5 and 7
    among them) and cyclic_knot(3); the hard families and the planted sums,
    where nothing cancels; floer sums with units and an alex2 grading;
    corpus minus cubes with levels 2h + random bit at extra depth 0 and 2;
    floer sums with units and alex2 values beyond 0 and 1."""
    cubes = [kh.ckh(d).complex
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
    rng = random.Random(4096)
    for fc in islice(alex2_unit_sums(rng), 8):
        yield wide_alex2(fc, rng)


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


def ref_unroll(fc, counts, top=None):
    """_unroll key by key and translate by translate, each grade shifted
    one tuple at a time."""
    cx, floor = fc.base, fc.trusted_floor
    if floor is None:
        return counts
    axis = int(cx.convention == CONV_KH)
    step = cx.ustep()
    if top is None:
        top = fc.period_floor + step[axis] - 1
    flip = cx.vars.units[0] % 2
    width = len(step)

    def shift(grade, j):
        head = tuple(g - j * s for g, s in zip(grade, step))
        return head + tuple((a + j * flip) % 2 for a in grade[width:])

    out = collections.Counter()
    for key, count in counts.items():
        v = key[0][axis]
        for j in range((v - floor) // step[axis] + 1 if v <= top else 1):
            out[tuple(shift(g, j) if type(g) is tuple else g for g in key)] += count
    return out


def test_unroll_matches_the_per_tuple_reference():
    """Random counters keyed by (grade, grade, jump) and by (grade, level),
    with slice values below the trusted floor, between it and top, and
    above top, give the per-tuple reference's counts: kh and floer, HALF
    and FULL units, floer with and without alex2 (flipped by a HALF unit,
    kept by a FULL one), the default top and top = inf.  Without a
    variable the counter comes back as it is."""
    rng = random.Random(2911)
    seen = collections.Counter()
    for trial in range(240):
        convention = (CONV_KH, CONV_FLOER)[trial % 2]
        unit = (HALF, FULL)[trial // 2 % 2]
        alex = convention == CONV_FLOER and trial // 4 % 2 == 1
        vs = VarSet(("u",), (unit,))
        gens = [Generator("g%d" % i, rng.randrange(-2, 3),
                          rng.randrange(-6, 7) if convention == CONV_KH else None,
                          rng.randrange(-3, 4) if alex else None)
                for i in range(rng.randrange(1, 6))]
        cx = ChainComplex(vs, gens, {}, convention)
        fc = FilteredComplex(cx, {g.gid: rng.randrange(4) for g in gens},
                             rng.choice((0, 0, 3, 10)))
        axis = int(convention == CONV_KH)
        lo, hi = fc.trusted_floor - 3 * unit, max(cx.q if axis else cx.h) + 3 * unit

        def grade():
            v = rng.randrange(lo, hi + 1)
            if axis:
                return (rng.randrange(-2, 3), v)
            return (v, rng.randrange(-3, 4)) if alex else (v,)
        counts = collections.Counter()
        for _ in range(rng.randrange(0, 12)):
            key = ((grade(), grade(), rng.randrange(1, 4)) if rng.random() < 0.5
                   else (grade(), rng.randrange(-1, 4)))
            counts[key] += rng.randrange(1, 4)
        counts[(cx.grade_at(0), cx.grade_at(0), 1)] += 1  # a repeated grade
        before = dict(counts)
        for top in (None, math.inf):
            got = spectral._unroll(fc, counts, top)
            assert got == ref_unroll(fc, counts, top)
            assert isinstance(got, collections.Counter) and dict(counts) == before
            edge = fc.period_floor + cx.ustep()[axis] - 1 if top is None else top
            for key in counts:
                v = key[0][axis]
                seen[convention, unit, alex, "below" if v < fc.trusted_floor
                     else "translated" if v <= edge else "once"] += 1
    for convention, unit, alex in ((CONV_KH, HALF, False), (CONV_KH, FULL, False),
                                   (CONV_FLOER, HALF, False), (CONV_FLOER, FULL, False),
                                   (CONV_FLOER, HALF, True), (CONV_FLOER, FULL, True)):
        for where in ("below", "translated", "once"):
            assert seen[convention, unit, alex, where], (convention, unit, alex, where)
    flat = FilteredComplex(ChainComplex(VarSet((), ()), [Generator("a", 0)], {}), {"a": 0})
    counts = collections.Counter({((0,), 0): 2})
    assert spectral._unroll(flat, counts) is counts
    assert spectral._unroll(flat, counts, math.inf) is counts


def test_no_jump_one_unit_is_not_copied(capsys, monkeypatch, tmp_path):
    """A complex with no unit entry of level jump 1 comes back as it is,
    before complexes.cancel_units copies a column: here a unit of jump 2 and
    a u entry of jump 1, and the planted floer sums, which have no unit."""
    def refuse(*args):
        raise AssertionError("cancel_units ran on a complex with no jump-1 unit")
    monkeypatch.setattr(spectral, "cancel_units", refuse)
    gens = [Generator("a", 0), Generator("b", -1), Generator("c", 0), Generator("d", 0)]
    diff = {("a", "b"): Poly.one(U1), ("c", "d"): Poly.var(U1, "u")}
    fc = FilteredComplex(ChainComplex(U1, gens, diff, CONV_FLOER),
                         {"a": 0, "b": 2, "c": 1, "d": 2})
    assert fc.cancel_units() is fc
    for planted_fc, _ in planted_sums():
        assert planted_fc.cancel_units() is planted_fc
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(serde.dump_complex(fc.base, fc.levels)))
    assert cli.main(["ss", "--in", str(path)]) == 0
    assert "# converge\tpass\n" in capsys.readouterr().out


def test_ss_output_is_the_unreduced_one(capsys, monkeypatch, tmp_path):
    """cmd_ss prints the same bytes with and without the cancellation."""
    rng = random.Random(7)
    docs, bases = [], []
    for i, fc in enumerate(cancel_cases()):
        if fc.base.n > 300 or (fc.base.convention == CONV_FLOER and not is_wide(fc.base)
                               and rng.random() < 0.8):
            continue  # the small cubes, a sample of the floer families and the wide alex2
        path = tmp_path / ("doc%d.json" % i)
        path.write_text(json.dumps(serde.dump_complex(fc.base, fc.levels)))
        bases.append(fc.base)
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
    assert sum(map(is_wide, bases)) == 8
    for key, (a, b) in outs.items():
        assert a == b, key
        assert a[0] == 0, key


# -- the periodic engine against the whole window ---------------------------------


def random_piece_sums(rng, convention, unit, alex2):
    """A tensor product of two direct sums of pieces a -> b (u^0..u^2, level
    jumps 1 to 3) and isolated generators over one variable of this unit,
    with levels that add, at extra depth 0 or 2.  In the floer convention
    the generators carry an alex2 grading when asked; u flips it when the
    unit is odd."""
    vs = VarSet(("u",), (unit,))

    def pieces(tag):
        gens, diff, levels = [], {}, {}
        for k in range(rng.randrange(1, 4)):
            power, h, bit = rng.randrange(3), rng.randrange(-1, 2), rng.randrange(2)
            if convention == CONV_KH:
                q = 2 * rng.randrange(-1, 2)
                a = Generator("%s%d_a" % (tag, k), h, q)
                b = Generator("%s%d_b" % (tag, k), h + 1, q + 2 * unit * power)
            else:
                a = Generator("%s%d_a" % (tag, k), h, None, bit if alex2 else None)
                b = Generator("%s%d_b" % (tag, k), h - 1 + unit * power, None,
                              (bit + unit * power) % 2 if alex2 else None)
            gens += [a, b]
            diff[(a.gid, b.gid)] = Poly.var(vs, "u", power)
            levels[a.gid] = rng.randrange(3)
            levels[b.gid] = levels[a.gid] + rng.choice((1, 1, 2, 3))
        if rng.random() < 0.5:
            g = Generator("%siso" % tag, rng.randrange(-2, 3),
                          2 * rng.randrange(-2, 3) if convention == CONV_KH else None,
                          rng.randrange(2) if alex2 else None)
            gens.append(g)
            levels[g.gid] = rng.randrange(4)
        return ChainComplex(vs, gens, diff, convention), levels

    (c1, l1), (c2, l2) = pieces("p"), pieces("q")
    levels = {a + "*" + b: l1[a] + l2[b] for a in l1 for b in l2}
    return FilteredComplex(tensor(c1, c2), levels, rng.choice((0, 0, 2)))


def periodic_cases():
    """Generated floer complexes with and without alex2, over odd and even
    units; generated kh complexes over both units; minus cubes with levels
    h (every unit cancels) and 2h + a random bit at depths 0 and 2; and two
    complexes with no periodic block: a hat cube and the empty complex.
    The floer complexes with alex2 come again with alex2 values beyond 0
    and 1, and so do floer sums with jump-1 units."""
    rng, wide = random.Random(5150), random.Random(6)
    for unit in (HALF, FULL):
        for alex2 in (True, False):
            for _ in range(8):
                fc = random_piece_sums(rng, CONV_FLOER, unit, alex2)
                yield fc
                if alex2:
                    yield wide_alex2(fc, wide)
        for _ in range(6):
            yield random_piece_sums(rng, CONV_KH, unit, False)
    for d in (kh.parse_pd(TREFOIL), kh.parse_pd(FIG8), kh.cyclic_knot(5)):
        cx = kh.ckh(d).complex
        yield FilteredComplex(cx, {g.gid: g.h for g in cx.gens})
        levels = random_bit_levels(cx, rng)
        for depth in (0, 2):
            yield FilteredComplex(cx, levels, depth)
    cc = reference_cube(kh.parse_pd(FIG8), "hat")
    yield FilteredComplex(cc.complex, cc.levels)
    yield FilteredComplex(ChainComplex(U1, [], {}, CONV_FLOER), {})
    for fc in islice(alex2_unit_sums(wide), 8):
        yield wide_alex2(fc, wide)


def test_periodic_tables_match_the_whole_window():
    """analyze and converge, which build the window only down to the first
    periodic block of each class and count the blocks below as its
    u-translates, give the tables of a slot-by-slot pairing of the whole
    window, with and without the jump-1 cancellation."""
    kinds = set()
    for fc in periodic_cases():
        full = full_expansion(fc)
        ref = ref_tables(fc, full)
        graded = ref_graded_homology_rereduced(fc, full, fc.trusted_floor)
        max_r = ref.max_jump() + 1
        for engine in (fc, fc.cancel_units()):
            data = analyze(engine)
            assert data.max_jump() == ref.max_jump()
            for r in range(1, max_r + 1):
                assert data.page_dims(r) == ref.page_dims(r), r
                assert data.d_ranks(r) == ref.d_ranks(r), r
            assert data.einf_by_level() == ref.einf_by_level()
            rep = converge(engine, data)
            assert rep.einf == ref.einf_by_level()
            assert rep.graded_homology == graded
            assert rep.ok
        cx = fc.base
        kinds.add((cx.convention, cx.vars.units, cx.alex2 is not None,
                   bool(fc.cancel_units().cancelled), fc.extra_depth > 0,
                   fc.period_floor is not None and len(full.gen) > len(fc.expansion().gen),
                   is_wide(cx)))
    odd, even = (HALF,), (FULL,)
    for unit in (odd, even):
        for alex2 in (True, False):
            assert any(k[:3] == (CONV_FLOER, unit, alex2) and k[5] for k in kinds)
        assert any(k[:3] == (CONV_FLOER, unit, True) and k[5] and k[6] for k in kinds)
        assert any(k[:2] == (CONV_KH, unit) and k[5] for k in kinds)
    assert any(k[3] for k in kinds if k[0] == CONV_FLOER)  # jump-1 units cancelled
    assert any(k[3] and k[6] for k in kinds)  # ... at alex2 values beyond 0 and 1
    assert any(k[3] for k in kinds if k[0] == CONV_KH)
    assert any(k[4] and k[5] for k in kinds)  # extra depth
    assert any(k[1] == () for k in kinds)  # no variable: no periodic block
    assert any(not k[5] and k[1] == odd for k in kinds)  # the empty complex


def test_truncation_builds_no_more_slots():
    """The extra depth of --truncation only deepens the translates: the
    built window is the same, while the whole window grows."""
    rng = random.Random(77)
    for unit in (HALF, FULL):
        fc = random_piece_sums(rng, CONV_FLOER, unit, True)
        deep = FilteredComplex(fc.base, fc.levels, fc.extra_depth + 400)
        assert len(deep.expansion().gen) == len(fc.expansion().gen)
        assert len(full_expansion(deep).gen) > len(full_expansion(fc).gen)
        assert analyze(deep).page_dims(1) != analyze(fc).page_dims(1)
