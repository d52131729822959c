import collections
import dataclasses
import gc
import itertools
import json
import os
import random
import weakref

import pytest
from hypothesis import given

from skeinseq import gf2, serde
from skeinseq import khovanov as kh
from skeinseq.cli import HOPF_PD
from skeinseq.complexes import (
    CONV_FLOER,
    CONV_KH,
    MAX_EXPANSION_SLOTS,
    ChainComplex,
    ChainMap,
    Expansion,
    Generator,
    UHomology,
    _compose,
    _lifter,
    _rows,
    _window_dims,
    cancel_units,
    check_mod_u,
    check_truncation_stability,
    collapse_all,
    collapse_pairs,
    expansion_size,
    homology,
    homology_f2,
    mod_u_dims,
    phi_action,
    substitute,
    tensor,
)
from skeinseq.models import MODEL_NAMES, ActionSpec, ModelComplex, build_model
from skeinseq.poly import FULL, HALF, Poly, VarSet
from skeinseq.spectral import FilteredComplex, analyze, pages
from skeinseq.umod import ModuleDecomposition, Summand, eliminate, vec_add_shifted
from test_khovanov import kill_vars, reference_cube, reordered, torus_2
from test_properties import SUITE, knots
from test_spectral_hard import one_map_complexes, planted_sums
from test_umod import cube_presentation, dense_decompose

U1 = VarSet(("u",), (HALF,))


def two_gen_loop():
    gens = [Generator("a", 0), Generator("b", 0)]
    vs = U1
    diff = {("a", "b"): Poly.var(vs, "u"), ("b", "a"): Poly.var(vs, "u")}
    return ChainComplex(vs, gens, diff, CONV_FLOER, check=True)


def test_verify_d2_violation():
    cx = two_gen_loop()
    bad = cx.verify_d2()
    assert bad and bad[0][0] == "a" and bad[0][1] == "a"


def test_verify_d2_zero_diff():
    cx = ChainComplex(U1, [Generator("a", 0)], {}, CONV_FLOER)
    assert cx.verify_d2() == []


def poly_product_compose(second, first):
    """The reference: (second after first) by Poly multiplication and addition."""
    by_src, by_mid = {}, {}
    for (src, mid), p in first.items():
        by_src.setdefault(src, {})[mid] = p
    for (mid, tgt), p in second.items():
        by_mid.setdefault(mid, {})[tgt] = p
    out = {}
    for src, mids in by_src.items():
        for mid, p1 in mids.items():
            for tgt, p2 in by_mid.get(mid, {}).items():
                acc = out.get((src, tgt), Poly.zero(p1.vars)) + p1 * p2
                if acc:
                    out[(src, tgt)] = acc
                else:
                    out.pop((src, tgt), None)
    return out


def poly_sum(*mats):
    """The reference sum of id-keyed matrices, zero entries dropped."""
    out = {}
    for mat in mats:
        for key, p in mat.items():
            out[key] = out[key] + p if key in out else p
    return {key: p for key, p in out.items() if p}


def reference_rows(cx, entries):
    """Id-keyed entries as verify_d2 spells them: by source position, then
    by target id."""
    order = cx.order
    return sorted(((s, t, p) for (s, t), p in entries.items()),
                  key=lambda row: (order[row[0]], row[1]))


def reference_d2(cx):
    return reference_rows(cx, poly_product_compose(cx.diff, cx.diff))


def assert_products_match(cx, *maps):
    """Every product (second after first) of d and the maps, by _compose on
    the columns, equals the Poly reference on the id-keyed entries."""
    mats = [(cx.cols, cx.diff)] + [(x.cols, x.entries) for x in maps]
    for (cols2, ids2), (cols1, ids1) in itertools.product(mats, repeat=2):
        got = _rows(cx, cx, _compose(cx, [(cols2, cols1)]))
        assert {(s, t): p for s, t, p in got} == poly_product_compose(ids2, ids1)


def random_entries(rng, vs, gids, density=0.35):
    """A random sparse matrix over gids with entries of one to three terms."""
    out = {}
    for s in gids:
        for t in gids:
            if rng.random() < density:
                terms = {tuple(rng.randrange(3) for _ in range(vs.n))
                         for _ in range(rng.randrange(1, 4))}
                out[(s, t)] = Poly(vs, frozenset(terms))
    return out


def homogeneous_slots(vs, gens, delta):
    """Every entry u^e from s to t of a map over F2[u] that moves h by delta:
    t.h = s.h + delta + unit * e (d itself moves it by -1)."""
    unit = vs.units[0]
    return [((s.gid, t.gid), Poly.var(vs, "u", (t.h - s.h - delta) // unit))
            for s in gens for t in gens
            if t.h - s.h - delta >= 0 and (t.h - s.h - delta) % unit == 0]


def test_compose_routes_match_poly_product_reference():
    """Every product that goes through _compose gives the Poly reference's
    answer: the anticommutator of random maps over 0-3 variables (HALF and
    FULL units) with a random differential, verify_d2 of that differential
    (off degree or over several variables, where it does not take the
    parity route), and the chain-map check of induced_matrix, which accepts
    d h + h d for a random h and refuses it with one entry toggled exactly
    when the reference anticommutator is nonzero."""
    rng = random.Random(41)
    seen = collections.Counter()
    for trial in range(300):
        nv = rng.randrange(4)
        vs = VarSet(tuple("xyz"[:nv]), tuple(rng.choice((HALF, FULL)) for _ in range(nv)))
        gids = ["g%d" % i for i in range(rng.randrange(1, 7))]
        d, m = random_entries(rng, vs, gids), random_entries(rng, vs, gids)
        gens = [Generator(g, 0) for g in rng.sample(gids, len(gids))]  # not sorted by id
        if nv <= 1:  # a one-variable entry is stored as one exponent: keep one term of each
            if any(len(p.terms) > 1 for p in m.values()):
                flat = ChainComplex(vs, gens, {})
                with pytest.raises(ValueError, match="inhomogeneous entry"):
                    ChainMap(flat, flat, m, check=False)
            d, m = ({key: Poly(vs, frozenset([min(p.terms)])) for key, p in x.items()}
                    for x in (d, m))
        cx = ChainComplex(vs, gens, d, CONV_FLOER, check=False)
        assert not cx.on_degree
        assert cx.verify_d2() == reference_d2(cx)
        seen["several variables" if nv > 1 else "off degree" if cx._off_degree() else
             "parity"] += 1
        want = poly_sum(poly_product_compose(m, d), poly_product_compose(d, m))
        assert ChainMap(cx, cx, m, check=False).anticommutator() == reference_rows(cx, want)
        reached = {(s, t) for (s, x) in m for (y, t) in d if x == y}
        reached |= {(s, t) for (s, x) in d for (y, t) in m if x == y}
        seen["cancelled"] += len(reached) - len(want)
    assert seen["cancelled"] > 100 and seen["several variables"] > 100, seen
    assert seen["off degree"] > 50, seen
    # two paths with equal products cancel exactly
    xy = VarSet(("x", "y"), (HALF, HALF))
    x, y = Poly.var(xy, "x"), Poly.var(xy, "y")
    gens = [Generator(g, 0) for g in ("s", "m1", "m2", "t")]
    first = {("s", "m1"): x, ("s", "m2"): y}
    assert ChainComplex(xy, gens, {**first, ("m1", "t"): y, ("m2", "t"): x},
                        check=False).verify_d2() == []
    assert ChainComplex(xy, gens, {**first, ("m1", "t"): y, ("m2", "t"): x + y},
                        check=False).verify_d2() == [("s", "t", y * y)]
    # induced_matrix over one variable: accepts a null-homotopic map and refuses a toggled one
    for trial in range(180):
        kind = SQUARE_ZERO_KINDS[trial % len(SQUARE_ZERO_KINDS)]
        if not kind[1] or kind[0] != CONV_FLOER:
            continue
        vs, gens, diff, _ = random_square_zero(rng, *kind)
        cx = ChainComplex(vs, gens, diff, CONV_FLOER)
        hom = UHomology(cx)
        delta = rng.randrange(-1, 2)
        h = dict(slot for slot in homogeneous_slots(vs, gens, delta) if rng.random() < 0.4)
        m = poly_sum(poly_product_compose(h, diff), poly_product_compose(diff, h))
        slots = homogeneous_slots(vs, gens, delta - 1)  # the entries m may have
        toggled = [poly_sum(m, dict([slot]))
                   for slot in rng.sample(slots, min(3, len(slots)))]
        for entries in [m] + toggled:
            want = poly_sum(poly_product_compose(entries, diff), poly_product_compose(diff, entries))
            cmap = ChainMap(cx, cx, entries, check=False)
            assert cmap.anticommutator() == reference_rows(cx, want)
            if want:
                with pytest.raises(ValueError, match="not a chain map"):
                    hom.induced_matrix(cmap)
            else:
                hom.induced_matrix(cmap)
            seen["refused" if want else "accepted", entries is m and bool(m)] += 1
    assert seen["accepted", True] > 30 and seen["accepted", False] > 10, seen
    assert seen["refused", False] > 50, seen


def test_compose_and_verify_d2_match_poly_product_reference_on_cubes():
    """On one-variable cubes, d squared, the basepoint actions and their
    squares by _compose, and the verify_d2 of a tampered cube, give the
    Poly reference's answer."""
    for d in (kh.parse_pd(TREFOIL_PD), kh.cyclic_knot(5)):
        cc = kh.ckh(d)
        cx = cc.complex
        assert_products_match(cx, kh.basepoint_action(cc, min(d.arcs)))
        bad = dict(cx.diff)
        key = next(iter(bad))
        bad[key] = bad[key] * Poly.var(cx.vars, "u")
        tampered = ChainComplex(cx.vars, cx.gens, bad, CONV_KH, check=False)
        assert not tampered.on_degree
        assert tampered.verify_d2() == reference_d2(tampered) != []


def test_compose_matches_reference_on_wide_multi_block_cubes():
    """Cubes with more than a machine word of generators and many grades:
    the products of _compose and the verify_d2 of a tampered cube give the
    Poly reference's answer."""
    d = kh.cyclic_knot(7)
    for cc in (kh.ckh(d), reference_cube(d, "hat")):
        cx = cc.complex
        widths = collections.Counter(cx.grade_at(cx.order[g.gid]) for g in cx.gens)
        assert cx.n > 64 and len(widths) > 10
        if not cx.vars.n:
            assert_products_match(cx)
            assert max(widths.values()) > 64
            continue
        assert_products_match(cx, *(kh.basepoint_action(cc, arc)
                                    for arc in sorted(cc.diagram.arcs)[:2]))
        diff = cx.diff
        # every entry out of one middle generator gains a u, so the paths
        # through it meet the others at one (s, t) with u^(e+1) against u^e
        u = Poly.var(cx.vars, "u")
        mid = next(t for (s, t) in diff if sum(1 for (a, _) in diff if a == t) > 2)
        bad = {(s, t): p * u if s == mid else p for (s, t), p in diff.items()}
        tampered = ChainComplex(cx.vars, cx.gens, bad, CONV_KH, check=False)
        got = tampered.verify_d2()
        assert not tampered.on_degree
        assert got == reference_d2(tampered)
        assert any(len(p.terms) == 2 for _, _, p in got)


def on_degree(convention, unit, src, tgt, e):
    """The reference degree rule for u^e from src to tgt, one grade at a time
    (unit 0: no variable, and e is 0)."""
    if convention == CONV_KH:
        return tgt.h == src.h + 1 and tgt.q == src.q + 2 * unit * e
    return tgt.h == src.h - 1 + unit * e and (
        src.alex2 is None or (tgt.alex2 - src.alex2 - unit * e) % 2 == 0)


def random_square_zero(rng, convention, unit, alex):
    """(vars, gens, diff, planted): a random complex over F2[u] of this unit
    (over F2 when unit is 0) with every entry on degree and d^2 = 0.  It is
    built greedily: each on-degree candidate entry, in random order, is kept
    if the Poly reference still squares to zero, and planted otherwise, so
    each planted entry alone makes d^2 nonzero."""
    vs = VarSet(("u",), (unit,)) if unit else VarSet((), ())
    kh_q = convention == CONV_KH
    gens = [Generator("g%d" % i, rng.randrange(-1, 2), 2 * rng.randrange(-1, 2) if kh_q else None,
                      rng.randrange(2) if alex else None) for i in range(rng.randrange(1, 14))]
    candidates = [(s.gid, t.gid, e) for s in gens for t in gens for e in range(4 if unit else 1)
                  if on_degree(convention, unit, s, t, e)]
    rng.shuffle(candidates)
    diff, planted = {}, {}
    for s, t, e in candidates:
        if (s, t) in diff or (s, t) in planted:
            continue
        p = Poly.var(vs, "u", e) if unit else Poly.one(vs)
        trial = {**diff, (s, t): p}
        if poly_product_compose(trial, trial):
            planted[s, t] = p
        else:
            diff = trial
    return vs, gens, diff, planted


SQUARE_ZERO_KINDS = [(CONV_KH, unit, False) for unit in (0, HALF, FULL)] + [
    (CONV_FLOER, unit, alex) for unit in (0, HALF, FULL) for alex in (False, True)]


def dense_d2(n, drop=None):
    """The expected verify_d2 of the all-ones complex g0_* -> g1_* -> g2_*
    with n generators per level, without the entry drop: d^2(s, t) is the
    parity of the middle generators joining them."""
    out = []
    for i in range(n):
        for t in sorted("g2_%d" % j for j in range(n)):
            paths = n - (drop is not None and drop[0] == "g0_%d" % i)
            if paths % 2:
                out.append(("g0_%d" % i, t))
    return out


def test_verify_d2_by_parity_matches_the_reference():
    """On-degree complexes, square-zero or with planted violations (entries
    the greedy build refused, or an entry dropped), give the Poly reference's
    d^2: kh and floer, HALF and FULL units, floer with and without alex2,
    and variable-free complexes; one dense complex has levels of many words.
    Both checked constructors record that every entry is on degree, and a
    column twin built unchecked with one entry a u-power deeper records
    nothing and gets the _compose answer."""
    rng, tamper = random.Random(2207), random.Random(2912)  # tamper leaves rng's draws as they were
    seen = collections.Counter()
    for trial in range(270):
        kind = SQUARE_ZERO_KINDS[trial % len(SQUARE_ZERO_KINDS)]
        vs, gens, diff, planted = random_square_zero(rng, *kind)
        cases = [diff]
        if planted:
            extra = rng.sample(sorted(planted), min(len(planted), rng.randrange(1, 4)))
            cases.append({**diff, **{key: planted[key] for key in extra}})
        if diff:
            cases.append({key: p for key, p in diff.items() if key != rng.choice(sorted(diff))})
        for entries in cases:
            cx = ChainComplex(vs, gens, entries, kind[0])  # checked: every entry on degree
            cols = [dict(col) for col in cx.cols]
            twin = ChainComplex.from_columns(vs, cx.ids, cx.h, cx.q, cx.alex2, cols, kind[0])
            for built in (cx, twin):  # the checked constructions record it
                assert built.on_degree and built._off_degree() is None
            got = cx.verify_d2()
            assert got == reference_d2(cx) == twin.verify_d2()
            off = [(i, j) for i, col in enumerate(cols) for j in col]
            if kind[1] and off:  # one entry a u-power deeper: off degree, unchecked
                i, j = tamper.choice(off)
                cols[i][j] += 1
                bad = ChainComplex.from_columns(vs, cx.ids, cx.h, cx.q, cx.alex2, cols, kind[0],
                                                check=False)
                assert not bad.on_degree and bad._off_degree() == (i, j)
                assert bad.verify_d2() == reference_d2(bad)
                seen["off degree"] += 1
            assert (entries is diff) <= (got == [])
            reached = {(s, t) for (s, m) in entries for (m2, t) in entries if m == m2}
            seen[kind, "zero" if not got else "nonzero"] += 1
            seen["cancelled"] += len(reached) - len(got)
            seen["u power"] += sum(1 for _, _, p in got if p != Poly.one(vs))
            seen["levels"] += kind[0] == CONV_FLOER and len(
                {(s, cx.gen(t).h) for s, t, _ in got}) > len({s for s, _, _ in got})
    for kind in SQUARE_ZERO_KINDS:
        assert seen[kind, "zero"] and seen[kind, "nonzero"], kind
    assert seen["cancelled"] > 100 and seen["u power"] > 20 and seen["levels"] > 5, seen
    assert seen["off degree"] > 100, seen
    # a dense all-ones complex, 70 or 71 generators per level: bitsets wider
    # than a machine word, and ids whose order is not the positions' order
    one = Poly.one(U1)
    for n, drop in ((70, None), (70, ("g0_3", "g1_5")), (71, None)):
        gens = [Generator("g%d_%d" % (lv, i), -lv, None, 1) for lv in range(3) for i in range(n)]
        diff = {("g%d_%d" % (lv, i), "g%d_%d" % (lv + 1, j)): one
                for lv in range(2) for i in range(n) for j in range(n)}
        diff.pop(drop, None)
        got = ChainComplex(U1, gens, diff, CONV_FLOER).verify_d2()
        assert [(s, t) for s, t, _ in got] == dense_d2(n, drop)
        assert all(p == one for _, _, p in got)


def test_homology_f2_reads_one_variable_complexes_mod_u():
    """homology_f2 of a one-variable complex is that of its quotient by u,
    and both equal the dense reference: generated kh and floer complexes,
    planted floer sums, minus cubes and a complex with u-torsion."""
    rng = random.Random(2208)
    cases = [torsion_towers()]
    for trial in range(60):
        kind = [k for k in SQUARE_ZERO_KINDS if k[1]][trial % 6]
        vs, gens, diff, _ = random_square_zero(rng, *kind)
        cases.append(ChainComplex(vs, gens, diff, kind[0]))
    cases += [fc.base for fc, _ in itertools.islice(planted_sums(), 10)]
    cases += [kh.ckh(d).complex for d in (kh.parse_pd(TREFOIL_PD), kh.cyclic_knot(5))]
    for cx in cases:
        assert cx.vars.n == 1
        quotient = kill_vars(cx)
        assert homology_f2(cx) == homology_f2(quotient) == ref_homology_f2(quotient)
    assert any(e for cx in cases for col in cx.cols for e in col.values())
    with pytest.raises(ValueError, match="at most one variable"):
        homology_f2(build_model(MODEL_NAMES[0]).complex)


def test_cancel_units_keeps_no_reference_to_its_source():
    """The survivors spell their ids from the source's id list, or from its
    speller while the source's ids are unspelled, never from the source, with
    levels (h: every entry jumps by one) and without; the ids are the source's
    unpaired ones, in order."""
    makes = (lambda: kh.ckh(kh.cyclic_knot(5)).complex, torsion_towers)
    for make, spelled, levels in itertools.product(makes, (False, True), (False, True)):
        source = make()
        if spelled:
            assert source.ids  # spelled: the list is in the instance dict
        speller = "ids" not in source.__dict__
        assert speller == (make is makes[0] and not spelled)
        pairs = []
        survivors = cancel_units(source, list(source.h) if levels else None, pairs)
        ref = weakref.ref(source)
        del source
        gc.collect()
        assert ref() is None, (make, spelled, levels)
        paired = {i for x, y, _ in pairs for i in (x, y)}
        assert paired
        assert survivors.ids == [g for i, g in enumerate(make().ids) if i not in paired]


def test_exponent_columns_reject_two_term_entries():
    # a one-variable entry is stored as its exponent, so the constructor
    # refuses one of two terms, with the degree check or without it
    one, u = Poly.one(U1), Poly.var(U1, "u")
    gens = [Generator("a", 0), Generator("b", -1)]
    with pytest.raises(ValueError, match="inhomogeneous entry a -> b: 1\\+u\\^2$"):
        ChainComplex(U1, gens, {("a", "b"): one + u * u}, CONV_FLOER, check=False)
    with pytest.raises(ValueError, match="inhomogeneous differential entry a -> b"):
        ChainComplex(U1, gens, {("a", "b"): one + u * u}, CONV_FLOER)
    # and so does a map's constructor, with the same message
    flat = ChainComplex(U1, [Generator("a", 0), Generator("b", 0)], {}, CONV_FLOER)
    with pytest.raises(ValueError, match="inhomogeneous entry a -> b: 1\\+u\\^2$"):
        ChainMap(flat, flat, {("a", "b"): one + u * u}, check=False)


def _reference_entry_ok(cx, src, tgt, p, dh, dq, dalex, drops):
    """The reference degree check: every monomial of p, weighed one by one,
    sends src's grading to tgt's."""
    floer = cx.convention == CONV_FLOER
    for m in p.terms:
        drop = drops.get(m)
        if drop is None:
            vs = cx.vars
            drop = drops[m] = (vs.h_drop(m), 2 * vs.h_drop(m), vs.alex2(m))
        if floer:
            if tgt.h - drop[0] != src.h + dh:
                return False
            if src.alex2 is not None and tgt.alex2 is not None:
                if (tgt.alex2 + drop[2]) % 2 != (src.alex2 + dalex) % 2:
                    return False
        else:
            if tgt.h != src.h + dh:
                return False
            if src.q is None or tgt.q is None:
                return False
            want = src.q if dq is None else src.q + dq
            if tgt.q - drop[1] != want:
                return False
    return True


def _reference_checked(source, target, entries, dh, dq, dalex, is_map):
    """What the per-monomial check accepts (the entries without zeros) or
    raises (exception type and message), checking entries in order."""
    entries = {k: p for k, p in entries.items() if p}
    drops = {}
    try:
        for (s, t), p in entries.items():
            if is_map:
                ok = _reference_entry_ok(source, source.gen(s), target.gen(t), p, dh,
                                         dq if source.convention == CONV_KH else 0, dalex,
                                         drops)
                if not ok:
                    raise ValueError("map entry %s -> %s off degree (%s)" % (s, t, p))
                continue
            i, j = source.order.get(s), source.order.get(t)
            if i is None or j is None:
                raise ValueError("entry on unknown generator (%s,%s)" % (s, t))
            if not _reference_entry_ok(source, source.gens[i], source.gens[j], p, dh, 0, 0, drops):
                raise ValueError("inhomogeneous differential entry %s -> %s: %s" % (s, t, p))
    except (KeyError, ValueError) as exc:
        return type(exc), str(exc)
    return entries


def map_entries(cmap):
    """A map's columns keyed by ids, each entry lifted to its Poly."""
    lift = _lifter(cmap.source.vars)
    return {(cmap.source.ids[i], cmap.target.ids[j]): lift(e)
            for i, col in enumerate(cmap.cols) for j, e in col.items()}


def _outcome(build):
    try:
        return build()
    except (KeyError, ValueError) as exc:
        return type(exc), str(exc)


def test_degree_check_matches_the_per_monomial_reference():
    """The one check per distinct entry accepts and rejects what the
    per-monomial check did, with the same error."""
    rng = random.Random(7)
    seen = collections.Counter()
    for trial in range(3000):
        nv = rng.choice((0, 1, 2, 2, 3, 3))
        vs = VarSet(tuple("xyz"[:nv]), tuple(rng.choice((HALF, FULL)) for _ in range(nv)))
        convention = rng.choice((CONV_FLOER, CONV_KH))
        alex = convention == CONV_FLOER and rng.random() < 0.5

        def gens(prefix):
            return [Generator(prefix + str(i), rng.randrange(2),
                              rng.randrange(-1, 2) * 2 if convention == CONV_KH else None,
                              rng.randrange(2) if alex else None)
                    for i in range(rng.randrange(1, 5))]

        def poly():
            monos = [tuple(rng.randrange(2) for _ in range(nv))
                     for _ in range(rng.choice((0, 1, 1, 2, 3)))]
            if monos and rng.random() < 0.5:  # terms of the first one's drop only
                drop = vs.h_drop(monos[0])
                alike = [m for m in itertools.product(range(3), repeat=nv)
                         if vs.h_drop(m) == drop]
                monos = rng.sample(alike, rng.randrange(1, len(alike) + 1))
            return Poly(vs, frozenset(monos))

        src_gens = gens("s")
        map_case = rng.random() < 0.5
        tgt_gens = gens("t") if map_case else src_gens
        ids = [g.gid for g in src_gens], [g.gid for g in tgt_gens]
        entries = {}
        for _ in range(rng.choice((1, 1, 2, 3))):
            key = (rng.choice(ids[0]), rng.choice(ids[1]))
            if rng.random() < 0.05:
                key = (key[0], "nowhere") if rng.random() < 0.5 else ("nowhere", key[1])
            entries[key] = poly()
        if not map_case:
            dh, dq, dalex = -1 if convention == CONV_FLOER else 1, 0, 0
            got = _outcome(lambda: ChainComplex(vs, src_gens, entries, convention).diff)
            ref = ChainComplex(vs, src_gens, {}, convention)
            want = _reference_checked(ref, ref, entries, dh, 0, 0, False)
        else:
            dh, dq, dalex = rng.randrange(-1, 2), rng.choice((None, -2, 0, 2)), rng.randrange(2)
            source = ChainComplex(vs, src_gens, {}, convention)
            target = ChainComplex(vs, tgt_gens, {}, convention)
            got = _outcome(lambda: map_entries(ChainMap(source, target, entries, dh, dq, dalex)))
            want = _reference_checked(source, target, entries, dh, dq, dalex, True)
        assert got == want, (entries, got, want)
        verdict = "rejected" if isinstance(want, tuple) else "accepted"
        kind = convention + (" alex2" if alex else "") + (" map" if map_case else "")
        seen[kind, verdict] += 1
        if len(set(vs.units)) > 1:
            seen["mixed units", verdict] += 1
        if map_case:
            seen["dq=%s dalex=%d" % (dq, dalex), verdict] += 1
        for (src, tgt), p in entries.items():
            if "nowhere" in (src, tgt):
                seen["unknown generator", verdict] += 1
            if not p:
                seen["zero entry", verdict] += 1
            elif len(p.terms) > 1:
                alike = len({vs.h_drop(m) for m in p.terms}) == 1
                seen["equal drops" if alike else "unequal drops", verdict] += 1
    assert seen["unequal drops", "accepted"] == 0
    for tag in ["floer", "floer alex2", "kh", "mixed units", "equal drops", "zero entry"] + [
            "%s map" % k for k in ("floer", "floer alex2", "kh")] + [
            "dq=%s dalex=%d" % (dq, dalex) for dq in (None, 0) for dalex in (0, 1)]:
        assert seen[tag, "accepted"] >= 10 and seen[tag, "rejected"] >= 10, (tag, seen)
    assert seen["unequal drops", "rejected"] >= 10 and seen["unknown generator", "rejected"]


def test_no_zero_entry_reaches_the_differential():
    xy = VarSet(("x", "y"), (HALF, HALF))
    x, y, zero = Poly.var(xy, "x"), Poly.var(xy, "y"), Poly.zero(xy)
    gens = [Generator("a", 0), Generator("b", 0)]
    # zero entries are dropped before any check, even off degree or on no generator
    diff = {("a", "b"): x + y, ("b", "a"): zero, ("a", "nowhere"): zero}
    cx = ChainComplex(xy, gens, diff, CONV_FLOER, {"1": ("x", "y")})
    assert cx.diff == {("a", "b"): x + y}
    clean = {("a", "b"): x + y}
    assert ChainComplex(xy, gens, clean, CONV_FLOER).diff == clean
    assert ChainComplex(xy, gens, clean, CONV_FLOER, check=False).diff == clean
    # without the check too
    assert ChainComplex(xy, gens, diff, CONV_FLOER, {"1": ("x", "y")}, check=False).diff == clean
    assert map_entries(ChainMap(cx, cx, {("a", "b"): zero, ("b", "b"): x}, dh=-1)) == {
        ("b", "b"): x}
    # x + y becomes u + u under the collapse
    assert collapse_pairs(cx).diff == {} and collapse_all(cx).diff == {}
    # the loop x on a meets itself twice on a*a in the tensor square
    loop = ChainComplex(xy, [Generator("a", 0)], {("a", "a"): x}, CONV_FLOER)
    assert tensor(loop, loop).diff == {}
    # a repeated entry that cancels in a document
    doc = {"variables": [{"name": "u"}], "generators": [{"id": "a", "h": 0}, {"id": "b", "h": -1}],
           "diff": [{"from": "a", "to": "b", "poly": "1"}, {"from": "a", "to": "b", "poly": "1"}]}
    assert serde.load_complex(doc)[0].diff == {}
    # an action whose repeated entries cancel
    spec = ActionSpec("twice", "loop", (("a", "b", "x"), ("a", "b", "x"), ("b", "b", "y")))
    model = ModelComplex("m", cx, {"twice": spec})
    assert map_entries(model.action_map("twice")) == {("b", "b"): y}
    minus = kh.ckh(kh.cyclic_knot(5)).complex
    for c in (minus, reference_cube(kh.cyclic_knot(5), "hat").complex, build_model("l_ori").complex,
              cancel_units(minus), kill_vars(minus)):
        assert all(c.diff.values())


def test_homogeneity_rejected():
    vs = U1
    gens = [Generator("a", 0), Generator("b", 5)]
    with pytest.raises(ValueError):
        ChainComplex(vs, gens, {("a", "b"): Poly.var(vs, "u")}, CONV_FLOER)


def test_tensor_counts():
    m = build_model("l_nonori")
    assert m.complex.n == 8
    m = build_model("l_ori")
    assert m.complex.n == 16
    unit = ChainComplex(m.complex.vars, [Generator("e", 0, None, 0)], {}, CONV_FLOER)
    both = tensor(m.complex, unit)
    assert both.n == 16
    assert {g.h for g in both.gens} == {g.h for g in m.complex.gens}


def test_substitute_identity_and_collapse():
    m = build_model("l_nonori")
    same = substitute(m.complex, {})
    assert same.diff == m.complex.diff
    one = collapse_all(m.complex)
    assert one.vars.n == 1
    assert one.verify_d2() == []


def test_homology_trefoil_model():
    m = build_model("trefoil_cfl")
    hom = homology(m.complex)
    assert hom.free_rank == 1
    assert hom.torsion == [1]


def test_homology_left_model_collapse():
    m = build_model("k_nonori")
    hom = homology(collapse_pairs(m.complex))
    assert hom.free_rank == 2 and hom.torsion == []


def test_homology_zero_diff():
    cx = ChainComplex(U1, [Generator(g, 0) for g in "abc"], {}, CONV_FLOER)
    hom = homology(cx)
    assert hom.free_rank == 3 and hom.torsion == []


def test_phi_examples():
    m = build_model("k_nonori")
    pm = phi_action(m.complex, "1", "z")
    assert pm.entries == {("f", "g"): Poly.one(m.complex.vars)}
    zero = ChainComplex(U1, [Generator("a", 0)], {}, CONV_FLOER, {"1": ("u",)})
    assert phi_action(zero, "1").entries == {}


def _top_phi(m, pid, side):
    """F2 matrix of the pair action on the top cycle basis (pair-collapsed)."""
    from skeinseq.models import _combine, _top_cycles, _top_map

    tops, cycles = _top_cycles(collapse_pairs(m.complex))
    pm = phi_action(m.complex, pid, side)
    cols = _top_map(pm, tops, lambda mm: not any(mm))
    return cycles, [_combine(cols, v) for v in cycles]


def test_phi_z_equals_phi_w_on_homology():
    # the equality lives over the ring where the pair variable exists:
    # collapse each pair to one variable, keep distinct pairs distinct
    for name in ("k_nonori", "k_ori", "l_nonori", "l_ori"):
        m = build_model(name)
        for pid in sorted(m.complex.pairs):
            _, mz = _top_phi(m, pid, "z")
            _, mw = _top_phi(m, pid, "w")
            assert mz == mw, (name, pid)
    # single-variable model: compare the full induced matrices
    m = build_model("k_nonori")
    cxc = collapse_pairs(m.complex)
    hom = UHomology(cxc)
    mats = []
    for side in ("z", "w"):
        pm = phi_action(m.complex, "1", side)
        entries = {
            k: p.map_vars(cxc.vars, {"z": "u1", "w": "u1"})
            for k, p in pm.entries.items()
        }
        cmap = ChainMap(cxc, cxc, entries, dh=0, dalex=1, check=False)
        mats.append(hom.induced_matrix(cmap))
    assert mats[0] == mats[1]


def test_phi_squares_and_commute_on_homology():
    from skeinseq.gf2 import ColumnSpace

    for name in ("k_nonori", "k_ori", "l_nonori", "l_ori"):
        m = build_model(name)
        pids = sorted(m.complex.pairs)
        cycles = None
        mats = {}
        for pid in pids:
            cycles, mats[pid] = _top_phi(m, pid, "z")
        space = ColumnSpace()
        for v in cycles:
            space.add(v)

        def compose(a_imgs, b_rows):
            out = []
            for img in a_imgs:
                combo = space.express(img)
                acc = 0
                i = 0
                c = combo
                while c:
                    if c & 1:
                        acc ^= b_rows[i]
                    c >>= 1
                    i += 1
                out.append(acc)
            return out

        for p in pids:
            sq = compose(mats[p], mats[p])
            assert all(v == 0 for v in sq), (name, p)
            for p2 in pids:
                assert compose(mats[p], mats[p2]) == compose(mats[p2], mats[p])


def test_induced_identity_and_u():
    m = build_model("trefoil_cfl")
    cx = m.complex
    hom = UHomology(cx)
    ident = ChainMap(cx, cx, {(g.gid, g.gid): Poly.one(cx.vars) for g in cx.gens},
                     dh=0, check=False)
    mat = hom.induced_matrix(ident)
    assert mat == {(i, i): 0 for i in range(len(hom.summands))}
    # multiplication by u: u on the free tower, zero into the torsion top
    umap = ChainMap(cx, cx, {(g.gid, g.gid): Poly.var(cx.vars, "u") for g in cx.gens},
                    dh=-1, dalex=1, check=False)
    mat = hom.induced_matrix(umap)
    for i, s in enumerate(hom.summands):
        if s.free:
            assert mat.get((i, i)) == 1
        else:
            assert (i, i) not in mat  # order-1 torsion dies under u


def test_induced_matrix_checks_the_chain_map_by_position():
    """induced_matrix checks d phi + phi d = 0 on the exponent columns: the
    basepoint actions of a cube pass, and a copy with an entry dropped,
    raised by u or added raises exactly when its anticommutator is nonzero."""
    rng = random.Random(2512)
    cc = kh.ckh(kh.cyclic_knot(5))
    cx = cc.complex
    hom = UHomology(cx)
    u = Poly.var(cx.vars, "u")
    raised = 0
    for arc in cc.diagram.arcs[:4]:
        act = kh.basepoint_action(cc, arc)
        assert not act.anticommutator()
        assert hom.induced_matrix(act) == {(i, i): 1 for i in range(hom.free_rank)}
        for key in rng.sample(sorted(act.entries), 6):
            new = (key[0], cx.ids[rng.randrange(cx.n)])
            for entries in ({k: p for k, p in act.entries.items() if k != key},
                            {**act.entries, key: act.entries[key] * u},
                            {new: u, **act.entries}):
                bad = ChainMap(cx, cx, entries, check=False)
                if not bad.anticommutator():
                    hom.induced_matrix(bad)
                    continue
                raised += 1
                with pytest.raises(ValueError, match="not a chain map"):
                    hom.induced_matrix(bad)
    assert raised > 40


def test_induced_rejects_non_chain_map():
    m = build_model("trefoil_cfl")
    cx = m.complex
    bad = ChainMap(cx, cx, {("a", "c"): Poly.one(cx.vars)}, dh=1, check=False)
    with pytest.raises(ValueError):
        UHomology(bad.source).induced_matrix(bad)
    # a generator with a boundary is no cycle, whatever its class would be
    hom = UHomology(cx)
    for src in {src for src, _ in cx.diff}:
        with pytest.raises(ArithmeticError, match="not a cycle"):
            hom.class_coords({cx.order[src]: 0})


def test_kunneth_over_f2():
    rng = random.Random(3)
    novars = VarSet((), ())

    def rand_f2_complex(tag, n):
        gens = [Generator("%s%d" % (tag, i), rng.randrange(3)) for i in range(n)]
        by_h = {}
        for g in gens:
            by_h.setdefault(g.h, []).append(g.gid)
        diff = {}
        for g in gens:
            for tgt in by_h.get(g.h - 1, []):
                if rng.random() < 0.4:
                    diff[(g.gid, tgt)] = Poly.one(novars)
        cx = ChainComplex(novars, gens, diff, CONV_FLOER, check=True)
        return cx if not cx.verify_d2() else None

    tried = 0
    done = 0
    while done < 12 and tried < 400:
        tried += 1
        c1 = rand_f2_complex("x", rng.randrange(1, 4))
        c2 = rand_f2_complex("y", rng.randrange(1, 4))
        if c1 is None or c2 is None:
            continue
        done += 1
        h1 = homology_f2(c1)
        h2 = homology_f2(c2)
        ht = homology_f2(tensor(c1, c2))
        for grade, dim in ht.items():
            want = sum(
                h1.get((a,), 0) * h2.get((grade[0] - a,), 0)
                for a in range(-5, 6)
            )
            assert dim == want
    assert done == 12


def test_kunneth_on_model_factors():
    # the model tensor factors reduced mod every variable are F2 complexes
    m = build_model("l_nonori")
    red = kill_vars(m.complex)
    assert red.verify_d2() == []
    total = homology_f2(red)
    assert sum(total.values()) == 8  # all differentials have positive u-weight
    # pairwise kunneth over the encoded factor pairs (killed variables)
    vs = m.complex.vars
    from skeinseq.models import _two_step

    fa = kill_vars(_two_step(vs, {}, "b", "a", "z1+z2", "w1+w2"))
    fc = kill_vars(_two_step(vs, {}, "z", "w", "z1+w2", None))
    for c1, c2 in ((fa, fc), (fa, fa), (fc, fc)):
        h1, h2 = homology_f2(c1), homology_f2(c2)
        ht = homology_f2(tensor(c1, c2))
        for grade, dim in ht.items():
            want = sum(
                d1 * h2.get((grade[0] - g1[0], (grade[1] - g1[1]) % 2), 0)
                for g1, d1 in h1.items()
            )
            assert dim == want


def test_homology_invariant_under_permutation():
    m = build_model("l_ori")
    cx = collapse_all(m.complex)
    hom = UHomology(cx)
    order = [g.gid for g in cx.gens]
    rng = random.Random(42)
    for _ in range(4):
        rng.shuffle(order)
        hom2 = UHomology(reordered(cx, order))
        assert hom2.by_grading() == hom.by_grading()


def test_slice_dims_k_ori():
    m = build_model("k_ori")
    cx = collapse_pairs(m.complex)
    assert _window_dims(cx, -4) == {(d,): 2 for d in range(-4, 1)}


def test_random_one_map_homology_stability():
    """homology(cx) self-checks against truncated slice dimensions."""
    rng = random.Random(60221023)
    for _ in range(80):
        n_src, n_tgt = rng.randrange(1, 4), rng.randrange(1, 4)
        gens = [Generator("s%d" % i, rng.randrange(2, 4)) for i in range(n_src)]
        gens += [Generator("t%d" % i, rng.randrange(0, 2)) for i in range(n_tgt)]
        diff = {}
        for i in range(n_src):
            for j in range(n_tgt):
                e = gens[n_src + j].h - (gens[i].h - 1)
                if e >= 0 and rng.random() < 0.6:
                    diff[(gens[i].gid, gens[n_src + j].gid)] = Poly.var(U1, "u", e)
        cx = ChainComplex(U1, gens, diff, CONV_FLOER)
        hom = homology(cx)  # raises if the windows disagree
        assert hom.free_rank + len(hom.torsion) <= cx.n


TREFOIL_PD = "PD[X(1,4,2,5),X(3,6,4,1),X(5,2,6,3)]"
FIG8_PD = "PD[X(4,2,5,1),X(8,6,1,5),X(6,3,7,4),X(2,7,3,8)]"


def test_kh_convention_slice_check():
    """homology(cx) on minus cubes checks the q-slices of the decomposition."""
    diagrams = [kh.parse_pd(TREFOIL_PD), kh.parse_pd(FIG8_PD), kh.cyclic_knot(5)]
    for d in diagrams:
        cx = kh.ckh(d).complex
        hom = homology(cx)  # raises if a slice disagrees
        qs = [g.q for g in cx.gens]
        lo = min(qs) - 4
        dims = Expansion(cx, lo).dims()
        # far enough down, a slice meets each free tower once and no torsion
        assert sum(v for (h, q), v in dims.items() if q == lo) == hom.free_rank
        assert sum(dims.values()) > hom.free_rank
    # minus cubes are free; one-map kh complexes carry torsion as well
    rng = random.Random(4411)
    torsion = 0
    for _ in range(60):
        gens = [Generator("s%d" % i, 0, 2 * rng.randrange(3)) for i in range(rng.randrange(1, 4))]
        tgts = [Generator("t%d" % i, 1, 2 * rng.randrange(3)) for i in range(rng.randrange(1, 4))]
        diff = {}
        for s in gens:
            for t in tgts:
                e = (t.q - s.q) // 2
                if e >= 0 and rng.random() < 0.6:
                    diff[(s.gid, t.gid)] = Poly.var(U1, "u", e)
        hom = homology(ChainComplex(U1, gens + tgts, diff, CONV_KH))
        torsion += len(hom.torsion)
    assert torsion > 10


def test_kh_slice_check_rejects_tampered_summands():
    cx = kh.ckh(kh.cyclic_knot(5)).complex
    hom = UHomology(cx)
    check_truncation_stability(hom)
    s = hom.summands[0]
    hom.summands[0] = dataclasses.replace(s, order=None if s.order else 1)
    with pytest.raises(ArithmeticError, match="slice dimension mismatch"):
        check_truncation_stability(hom)
    hom = UHomology(cx)
    del hom.summands[-1]
    with pytest.raises(ArithmeticError, match="slice dimension mismatch"):
        check_truncation_stability(hom)


# -- reference versions of the slice dimensions and the F2 homology ------------


def ref_monomials_of_drop(vs, drop):
    """All exponent vectors whose graded drop equals the given value."""
    out = []

    def rec(i, left, acc):
        if i == vs.n:
            if left == 0:
                out.append(tuple(acc))
            return
        unit = vs.units[i]
        e = 0
        while e * unit <= left:
            rec(i + 1, left - e * unit, acc + [e])
            e += 1

    if drop >= 0:
        rec(0, drop, [])
    return out


def ref_diff_by_source(cx):
    """The differential by source: gid -> {target gid: entry}, in the
    insertion order of cx.diff."""
    out = {g.gid: {} for g in cx.gens}
    for (src, tgt), p in cx.diff.items():
        out[src][tgt] = p
    return out


def ref_slice_dims(cx, h_from, h_to):
    """Per h-slice: every (gid, monomial) slot of the slice, sorted, one dense
    rank per pair of neighbouring slices."""
    lo, hi = min(h_from, h_to), max(h_from, h_to)
    slots = {}
    for d in range(lo - 1, hi + 2):
        lst = []
        for g in cx.gens:
            for m in ref_monomials_of_drop(cx.vars, g.h - d):
                lst.append((g.gid, m))
        slots[d] = sorted(lst)
    index = {d: {slot: i for i, slot in enumerate(lst)} for d, lst in slots.items()}
    by_src = ref_diff_by_source(cx)
    ranks = {}
    for d in range(lo, hi + 2):
        cols = []
        tgt_index = index[d - 1]
        for gid, m in slots[d]:
            vec = 0
            for t, p in by_src[gid].items():
                for mm in p.terms:
                    key = (t, tuple(a + b for a, b in zip(m, mm)))
                    if key in tgt_index:
                        vec ^= 1 << tgt_index[key]
            cols.append(vec)
        ranks[d] = gf2.matrix_rank(cols, len(slots[d - 1]))
    return {d: len(slots[d]) - ranks.get(d, 0) - ranks.get(d + 1, 0)
            for d in range(lo, hi + 1)}


def ref_q_slice_dims(cx, q_from, q_to):
    """Per (h, q) of a one-variable kh complex: the generators g with
    q(g) - k * step = q for some k >= 0, one rank per h."""
    step = cx.ustep()[1]
    by_src = ref_diff_by_source(cx)
    dims = {}
    for q in range(min(q_from, q_to), max(q_from, q_to) + 1):
        slots = {}
        for g in cx.gens:
            if g.q >= q and (g.q - q) % step == 0:
                index = slots.setdefault(g.h, {})
                index[g.gid] = len(index)
        rank_out = {}
        for h, index in slots.items():
            tgt_index = slots.get(h + 1, {})
            cols = [sum(1 << tgt_index[t] for t in by_src[gid]) for gid in index]
            rank_out[h] = gf2.matrix_rank(cols, len(tgt_index))
        for h, index in slots.items():
            dims[(h, q)] = len(index) - rank_out[h] - rank_out.get(h - 1, 0)
    return dims


def ref_homology_f2(cx):
    """One dense rank per grading of a variable-free complex."""
    groups = {}
    for g in cx.gens:
        groups.setdefault(cx.grade_at(cx.order[g.gid]), []).append(g.gid)
    cols = ref_diff_by_source(cx)
    rank_out, rank_into = {}, {}
    for grade, grp in groups.items():
        first = next((t for gid in grp for t in cols[gid]), None)
        if first is None:
            continue
        vecs = [sum(1 << cx.order[t] for t in cols[gid]) for gid in grp]
        rank = rank_out[grade] = gf2.matrix_rank(vecs, cx.n)
        tgt = cx.grade_at(cx.order[first])
        rank_into[tgt] = rank_into.get(tgt, 0) + rank
    return dict(sorted(
        (grade, len(grp) - rank_out.get(grade, 0) - rank_into.get(grade, 0))
        for grade, grp in groups.items()))


def q_dims(cx, lo, hi):
    """The q-slices lo..hi of a kh complex, read off its expansion."""
    return {g: d for g, d in Expansion(cx, lo).dims().items() if g[1] <= hi}


def h_dims(cx, lo, hi):
    """The h-slices lo..hi of a floer complex, read off _window_dims."""
    dims = _window_dims(cx, lo)
    return {h: dims.get((h,), 0) for h in range(lo, hi + 1)}


def one_map_floer(rng):
    n_src, n_tgt = rng.randrange(1, 4), rng.randrange(1, 4)
    gens = [Generator("s%d" % i, rng.randrange(2, 4)) for i in range(n_src)]
    gens += [Generator("t%d" % i, rng.randrange(0, 2)) for i in range(n_tgt)]
    diff = {}
    for s in gens[:n_src]:
        for t in gens[n_src:]:
            e = t.h - (s.h - 1)
            if e >= 0 and rng.random() < 0.6:
                diff[(s.gid, t.gid)] = Poly.var(U1, "u", e)
    return ChainComplex(U1, gens, diff, CONV_FLOER)


def one_map_kh(rng):
    srcs = [Generator("s%d" % i, 0, 2 * rng.randrange(3)) for i in range(rng.randrange(1, 4))]
    tgts = [Generator("t%d" % i, 1, 2 * rng.randrange(3)) for i in range(rng.randrange(1, 4))]
    diff = {}
    for s in srcs:
        for t in tgts:
            e = (t.q - s.q) // 2
            if e >= 0 and rng.random() < 0.6:
                diff[(s.gid, t.gid)] = Poly.var(U1, "u", e)
    return ChainComplex(U1, srcs + tgts, diff, CONV_KH)


def alex2_floer(rng):
    """A sum of u^power pieces whose generators carry a mod-2 Alexander grading."""
    gens, diff = [], {}
    for k in range(rng.randrange(1, 5)):
        power, bit = rng.randrange(0, 4), rng.randrange(2)
        a = Generator("p%d_a" % k, power + rng.randrange(2), None, bit)
        b = Generator("p%d_b" % k, a.h - 1 + power, None, (bit + power) % 2)
        gens += [a, b]
        if rng.random() < 0.8:
            diff[(a.gid, b.gid)] = Poly.var(U1, "u", power)
    rng.shuffle(gens)
    return ChainComplex(U1, gens, diff, CONV_FLOER)


def floer_reference_cases():
    rng = random.Random(5150)
    for _ in range(40):
        yield one_map_floer(rng)
    for _ in range(30):
        yield alex2_floer(rng)
    yield build_model("trefoil_cfl").complex
    for name in ("k_ori", "l_nonori", "l_ori"):
        yield collapse_pairs(build_model(name).complex)
        yield collapse_all(build_model(name).complex)


def kh_reference_cases():
    rng = random.Random(6160)
    for _ in range(40):
        yield one_map_kh(rng)
    for d in (kh.parse_pd(TREFOIL_PD), kh.parse_pd(FIG8_PD), kh.cyclic_knot(5),
              kh.unlink(2)):
        yield kh.ckh(d).complex


def test_slice_dims_match_dense_references():
    nvars = set()
    for cx in floer_reference_cases():
        hs = [g.h for g in cx.gens]
        for lo, hi in ((min(hs) - 3, max(hs)), (min(hs) - 1, max(hs) - 1), (max(hs), max(hs))):
            assert h_dims(cx, lo, hi) == ref_slice_dims(cx, lo, hi), (lo, hi)
        nvars.add(cx.vars.n)
    assert nvars == {1, 2, 3}
    for cx in kh_reference_cases():
        qs = [g.q for g in cx.gens]
        span = max(qs) - min(qs)
        for lo, hi in ((min(qs) - span - 8, max(qs)), (min(qs) - 2, max(qs) - 2)):
            assert q_dims(cx, lo, hi) == ref_q_slice_dims(cx, lo, hi), (lo, hi)


def square_zero_draws(draw, count):
    """count complexes from draw(), each drawn again until it squares to
    zero: homology_f2 reads only complexes, and on a random matrix with
    d^2 != 0 n - rank - rank is no homology dimension."""
    out = []
    while len(out) < count:
        cx = draw()
        if cx.verify_d2() == []:
            out.append(cx)
    return out


def test_homology_f2_matches_dense_reference():
    rng = random.Random(7)
    novars = VarSet((), ())

    def draw():
        gens = [Generator("g%d" % i, rng.randrange(3), rng.randrange(2))
                for i in range(rng.randrange(1, 7))]
        diff = {(s.gid, t.gid): Poly.one(novars) for s in gens for t in gens
                if t.h == s.h + 1 and t.q == s.q and rng.random() < 0.5}
        return ChainComplex(novars, gens, diff, CONV_KH)
    cases = square_zero_draws(draw, 60)
    assert len(cases) == 60
    for cx in cases:
        assert homology_f2(cx) == ref_homology_f2(cx)
    for d in (kh.parse_pd(TREFOIL_PD), kh.parse_pd(FIG8_PD), kh.cyclic_knot(5)):
        for cx in (reference_cube(d, "hat").complex, kill_vars(kh.ckh(d).complex)):
            assert homology_f2(cx) == ref_homology_f2(cx)


def test_homology_f2_matches_dense_reference_on_floer_complexes_and_models():
    # floer blocks are (h, alex2 mod 2): alex2 values beyond 0 and 1 share them
    rng = random.Random(11)
    novars = VarSet((), ())
    for alex in (False, True):
        def draw():
            gens = [Generator("g%d" % i, rng.randrange(3), None,
                              rng.randrange(-2, 3) if alex else None)
                    for i in range(rng.randrange(1, 7))]
            diff = {(s.gid, t.gid): Poly.one(novars) for s in gens for t in gens
                    if t.h == s.h - 1 and (not alex or (t.alex2 - s.alex2) % 2 == 0)
                    and rng.random() < 0.5}
            return ChainComplex(novars, gens, diff, CONV_FLOER)
        cases = square_zero_draws(draw, 60)
        assert len(cases) == 60
        for cx in cases:
            mod2 = [dataclasses.replace(g, alex2=g.alex2 % 2) if alex else g for g in cx.gens]
            assert homology_f2(cx) == ref_homology_f2(ChainComplex(novars, mod2, cx.diff, CONV_FLOER))
    for name in MODEL_NAMES:
        cx = kill_vars(build_model(name).complex)
        assert homology_f2(cx) == ref_homology_f2(cx), name


def ref_block_dims(exp):
    """Expansion.dims without clearing: every closed block ranked from
    scratch with gf2.matrix_rank, one rank per block."""
    cols, blocks = exp.cols, exp.blocks
    rank_out, rank_into, closed = {}, {}, []
    for grade, blk in blocks.items():
        block_cols = cols[blk.start:blk.stop]
        if None in block_cols:
            continue
        closed.append(grade)
        tgt = exp.lands.get(grade)
        if tgt is not None:
            rank = rank_out[grade] = gf2.matrix_rank(block_cols, len(blocks[tgt]))
            rank_into[tgt] = rank_into.get(tgt, 0) + rank
    return {grade: len(blocks[grade]) - rank_out.get(grade, 0) - rank_into.get(grade, 0)
            for grade in closed}


class CountingExpansion(Expansion):
    """An Expansion that counts the columns its dims() reads."""
    read = 0

    def _block_columns(self, slots, skip):
        vecs = super()._block_columns(slots, skip)
        self.read += len(vecs)
        return vecs


def kh_cube_diagrams():
    """The diagrams of the kh-cube benchmark: its fixed ones and its pool."""
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "data", "frozen.json")
    with open(path, encoding="utf-8") as fh:
        frozen = json.load(fh)
    return [kh.parse_pd(d["pd"]) for d in list(frozen["diagrams"].values()) + frozen["pools"]["kh"]]


def test_expansion_dims_by_clearing_match_the_rank_loop():
    """dims() skips the columns at the leads of the image of the block
    before; with and without a floor it gives the per-block rank loop's
    dimensions, and homology_f2 is the floorless one."""
    rng = random.Random(2311)
    cases = []
    for convention, unit, alex in SQUARE_ZERO_KINDS:
        for _ in range(40):
            vs, gens, diff, _ = random_square_zero(rng, convention, unit, alex)
            if alex:  # alex2 widened to -2..3; blocks read it mod 2
                gens = [dataclasses.replace(g, alex2=g.alex2 + 2 * rng.randrange(-1, 2))
                        for g in gens]
            cases.append(ChainComplex(vs, gens, diff, convention))
    assert {g.alex2 for cx in cases if cx.alex2 for g in cx.gens} == set(range(-2, 4))
    cases += list(floer_reference_cases())
    diagrams = kh_cube_diagrams()
    assert len(diagrams) == 39
    cubes = [kh.ckh(d).complex for d in diagrams + [torus_2(7), kh.cyclic_knot(7)]]
    cases += cubes + [torsion_towers()]
    skipped = collections.Counter()
    for cx in cases:
        floors = []
        if cx.vars.n:
            axis = int(cx.convention == CONV_KH)
            vals = [cx.grade_at(i, True)[axis] for i in range(cx.n)]
            step = cx.vars.units[0] * (2 if axis else 1)
            floors = [min(vals) - (max(vals) - min(vals)) - 4 * step, min(vals) - 1, max(vals)]
        if cx.vars.n <= 1:
            floors.append(None)
            want = ref_block_dims(Expansion(cx))
            assert homology_f2(cx) == want
        for floor in floors:
            exp = CountingExpansion(cx, floor)
            assert exp.dims() == ref_block_dims(Expansion(cx, floor)), floor
            skipped[cx in cubes, floor is None] += len(exp.gen) - exp.read
    # every kind of case really skips columns
    assert all(skipped[key] > 0 for key in itertools.product((False, True), repeat=2)), skipped


# -- the size of an expansion and the depth of the truncation window -----------


def test_expansion_size_counts_the_slots():
    rng = random.Random(9091)
    mixed = VarSet(("u", "v"), (HALF, FULL))
    cases = []
    for cx in list(floer_reference_cases()) + list(kh_reference_cases()):
        axis = int(cx.convention == CONV_KH)
        vals = [cx.grade_at(i, True)[axis] for i in range(cx.n)]
        for depth in (0, 3, 9):
            cases.append((cx, min(vals) - depth))
        cases.append((cx, max(vals) + 1))
    for d in (kh.parse_pd(TREFOIL_PD), kh.cyclic_knot(5)):
        for cc in (kh.ckh(d), reference_cube(d, "hat")):
            fc = FilteredComplex(cc.complex, cc.levels)
            cases.append((cc.complex, fc._lo))  # None for the hat cube
    for _ in range(20):
        gens = [Generator("g%d" % i, rng.randrange(-3, 4)) for i in range(rng.randrange(1, 4))]
        cases.append((ChainComplex(mixed, gens, {}, CONV_FLOER), rng.randrange(-9, 0)))
    for _, fc in one_map_complexes():
        cases.append((fc.base, fc._lo))
    for fc, _ in planted_sums():
        cases.append((fc.base, fc._lo))
    for cx, floor in cases:
        assert expansion_size(cx, floor) == len(Expansion(cx, floor).gen), floor
    assert {cx.vars.n for cx, _ in cases} == {0, 1, 2, 3}
    assert any(floor is None for _, floor in cases)


def test_oversized_expansion_is_rejected_before_enumerating():
    cx = ChainComplex(U1, [Generator("a", 0), Generator("b", 10 ** 7)], {}, CONV_FLOER)
    assert expansion_size(cx, -5) == 6 + (10 ** 7 + 6)
    with pytest.raises(ValueError, match="has 10000012 slots, above the limit of %d"
                       % MAX_EXPANSION_SLOTS):
        Expansion(cx, -5)
    lo = -(MAX_EXPANSION_SLOTS - 1)  # one generator, exactly at the limit
    assert expansion_size(ChainComplex(U1, [Generator("a", 0)], {}, CONV_FLOER),
                          lo) == MAX_EXPANSION_SLOTS


def test_truncation_window_depth_two_is_inside_depth_four():
    """The slice dims of the shallower window are the deeper window's dims
    restricted to it, so check_truncation_stability needs only one."""
    complexes = [kh.ckh(kh.cyclic_knot(n)).complex for n in (3, 5, 7)]
    complexes += [kh.ckh(kh.unlink(2)).complex,
                  build_model("trefoil_cfl").complex]
    for cx in complexes:
        axis = int(cx.convention == CONV_KH)
        step = cx.ustep()[axis]
        vals = [cx.grade_at(i, True)[axis] for i in range(cx.n)]
        lo2, lo4 = (min(vals) - (max(vals) - min(vals)) - extra * step
                    for extra in (2, 4))
        deep = _window_dims(cx, lo4)
        assert _window_dims(cx, lo2) == {k: v for k, v in deep.items() if k[axis] >= lo2}
        assert any(k[axis] < lo2 for k in deep)


# -- cancelling the unit entries, and the mod-u check --------------------------


def reference_decomposition(cx):
    """The homology of a one-variable complex by presentation: every cycle
    and boundary of the whole complex, then the dense Smith scan, which
    shares no elimination with UHomology (test_umod.decompose does)."""
    return ModuleDecomposition(dense_decompose(*cube_presentation(cx)))


def check_maps(hom):
    """Each summand's cycle_rep is a cycle of its grade that class_coords
    reads back as that summand, and every boundary d g reads 0."""
    cx = hom.cx
    cols, step = [dict(c) for c in cx.cols], cx.ustep()
    for i, s in enumerate(hom.summands):
        rep = hom.cycle_rep(i)
        boundary = {}
        for g, e in rep.items():
            assert tuple(x - e * u for x, u in zip(cx.grade_at(g, True), step)) == s.grades
            vec_add_shifted(boundary, cols[g], e)
        assert boundary == {}
        assert hom.class_coords(rep) == {i: 0}
    for col in cols:
        if col:
            assert hom.class_coords(col) == {}


def cancelled(cx):
    """UHomology(cx) checked against the presentation reference, its maps
    checked, and the mod-u check of cx passed; cancel_units without levels
    leaves the survivors in their original order, with no entry, and every
    other generator in exactly one pair."""
    pairs = []
    free = cancel_units(cx, cancelled=pairs)
    hom = UHomology(cx)
    assert [(s.grades, s.order) for s in hom.summands] == [
        (s.grades, s.order) for s in reference_decomposition(cx).summands]
    kept = {g.gid for g in free.gens}
    assert list(free.gens) == [g for g in cx.gens if g.gid in kept] and not free.diff
    paired = sorted(i for x, y, _ in pairs for i in (x, y))
    assert paired == sorted(i for i, g in enumerate(cx.gens) if g.gid not in kept)
    check_maps(hom)
    check_mod_u(cx, hom.summands)
    return pairs, hom


def test_cancel_units_keeps_the_homology_of_minus_cubes():
    for d in (kh.parse_pd("U"), kh.parse_pd(TREFOIL_PD), kh.parse_pd(FIG8_PD),
              kh.add_kink(kh.parse_pd(TREFOIL_PD), 1),
              kh.connect_sum(kh.parse_pd(FIG8_PD), kh.parse_pd(FIG8_PD)),
              kh.cyclic_knot(5), kh.cyclic_knot(7), kh.unlink(3)):
        cx = kh.ckh(d).complex
        pairs, hom = cancelled(cx)
        # a minus cube is free: every pair is a unit, and only free summands are left
        assert all(k == 0 for _, _, k in pairs)
        assert cx.n - 2 * len(pairs) == hom.free_rank and not hom.torsion


@SUITE
@given(knots())
def test_cancel_units_on_generated_knots(d):
    cancelled(kh.ckh(d).complex)


def test_cancel_units_keeps_torsion():
    """One-map kh complexes (the seed of test_kh_convention_slice_check),
    random floer complexes, tensor products of two or three of them, which
    have more layers, fill-in and torsion, and the one-variable models."""
    rng = random.Random(4411)
    cases = []
    for _ in range(60):
        cases.append(one_map_kh(rng))
    for _ in range(30):
        cases.append(one_map_floer(rng))
        cases.append(alex2_floer(rng))
    for _ in range(30):
        cases.append(tensor(one_map_kh(rng), one_map_kh(rng)))
        cases.append(tensor(one_map_floer(rng), one_map_floer(rng)))
        cases.append(tensor(alex2_floer(rng), alex2_floer(rng)))
    for _ in range(10):
        cases.append(tensor(tensor(one_map_kh(rng), one_map_kh(rng)), one_map_kh(rng)))
    for name in MODEL_NAMES:
        model = build_model(name).complex
        cases += [c for c in (model, collapse_pairs(model), collapse_all(model))
                  if c.vars.n == 1]
    torsion = fill_in = 0
    for cx in cases:
        pairs, hom = cancelled(cx)
        torsion += len(hom.torsion)
        gids = [g.gid for g in cx.gens]
        fill_in += any((gids[x], gids[y]) not in cx.diff for x, y, _ in pairs)
    assert {cx.convention for cx in cases} == {CONV_KH, CONV_FLOER}
    assert torsion > 300 and fill_in > 0


def test_cancel_units_picks_the_target_with_fewest_sources():
    # x -> y1 and x -> y2 are units; y1 has a second source, s (through u),
    # so cancelling x -> y2 adds no zig-zag and keeps s -> y1
    gens = [Generator("x", 0, 0), Generator("s", 0, -2),
            Generator("y1", 1, 0), Generator("y2", 1, 0)]
    one, u = Poly.one(U1), Poly.var(U1, "u")
    cx = ChainComplex(U1, gens, {("x", "y1"): one, ("x", "y2"): one, ("s", "y1"): u},
                      CONV_KH)
    pairs, hom = cancelled(cx)
    assert pairs == [(0, 3, 0), (1, 2, 1)]
    assert hom.torsion == [1]
    red = cancel_units(cx, [g.h for g in gens])
    assert [g.gid for g in red.gens] == ["s", "y1"]
    assert red.diff == {("s", "y1"): u}


def test_cancel_units_rejects_bad_input():
    with pytest.raises(ValueError, match="one-variable"):
        cancel_units(kill_vars(kh.ckh(kh.parse_pd(TREFOIL_PD)).complex))
    gens = [Generator("x", 0, 0), Generator("s", 0, 0),
            Generator("y", 1, 0), Generator("t", 1, 0)]
    one, u = Poly.one(U1), Poly.var(U1, "u")
    # a two-term entry never reaches cancel_units: the constructor refuses it
    with pytest.raises(ValueError, match="inhomogeneous entry x -> y"):
        ChainComplex(U1, gens, {("x", "y"): one + u}, CONV_KH, check=False)
    # the zig-zag s -> y -> x -> t is u, but s -> t is 1
    diff = {("x", "y"): one, ("s", "y"): one, ("x", "t"): u, ("s", "t"): one}
    with pytest.raises(ArithmeticError, match="inhomogeneous collision at s -> t"):
        cancel_units(ChainComplex(U1, gens, diff, CONV_KH, check=False))


def test_cancel_units_with_levels_keeps_jump_two_units():
    one, u = Poly.one(U1), Poly.var(U1, "u")
    gens = [Generator("x", 0, 0), Generator("y", 1, 0)]
    cx = ChainComplex(U1, gens, {("x", "y"): one}, CONV_KH)
    pairs = []
    assert cancel_units(cx, [0, 2], pairs).diff == cx.diff and pairs == []
    assert cancel_units(cx, [0, 1], pairs).n == 0 and pairs == [(0, 1, 0)]
    # x -> y jumps by 2 and has the fewest sources, so only the level test
    # makes x -> z (jump 1) the one cancelled; s -> y is the zig-zag s -> z -> x -> y
    gens = [Generator("x", 0, 0), Generator("s", 0, -2),
            Generator("y", 1, 0), Generator("z", 1, 0)]
    cx = ChainComplex(U1, gens, {("x", "y"): one, ("x", "z"): one, ("s", "z"): u},
                      CONV_KH)
    pairs = []
    red = cancel_units(cx, [0, 0, 2, 1], pairs)  # x, s, y, z
    assert pairs == [(0, 3, 0)]
    assert [g.gid for g in red.gens] == ["s", "y"] and red.diff == {("s", "y"): u}
    # without levels x -> y, with the fewest sources, goes first, then s -> z
    pairs = []
    assert cancel_units(cx, cancelled=pairs).n == 0 and pairs == [(0, 2, 0), (1, 3, 1)]


def test_cancel_units_with_levels_on_minus_cubes():
    """Levels 2h + a random bit: only the jump-1 units cancel, the reported
    pairs are the deleted generators, and the result is a filtered complex
    with the same homology, no jump-1 unit and d^2 = 0.  With levels h every
    unit has jump 1, and the result is the one without levels."""
    rng = random.Random(2024)
    left = 0
    for d in (kh.parse_pd(TREFOIL_PD), kh.parse_pd(FIG8_PD), kh.cyclic_knot(5),
              kh.add_kink(kh.parse_pd(TREFOIL_PD), 1), kh.unlink(2),
              kh.connect_sum(kh.parse_pd(TREFOIL_PD), kh.parse_pd(FIG8_PD))):
        cx = kh.ckh(d).complex
        plain = cancel_units(cx)
        pairs = []
        by_h = cancel_units(cx, cx.h, pairs)
        assert (by_h.gens, by_h.diff) == (plain.gens, plain.diff)
        assert len(pairs) == (cx.n - plain.n) // 2
        for _ in range(3):
            levels = {g.gid: 2 * g.h + rng.randrange(2) for g in cx.gens}
            pairs = []
            red = cancel_units(cx, [levels[g] for g in cx.ids], pairs)
            kept = {g.gid for g in red.gens}
            assert list(red.gens) == [g for g in cx.gens if g.gid in kept]
            deleted = sorted(i for i, g in enumerate(cx.gens) if g.gid not in kept)
            assert sorted(i for x, y, _ in pairs for i in (x, y)) == deleted
            for x, y, k in pairs:
                x, y = cx.gens[x], cx.gens[y]
                assert k == 0 and levels[y.gid] - levels[x.gid] == 1
                assert (y.h, y.q) == (x.h + 1, x.q)
            for (src, tgt), p in red.diff.items():
                assert levels[tgt] > levels[src]
                if (0,) in p.terms:
                    assert levels[tgt] - levels[src] > 1
                    left += 1
            assert red.verify_d2() == []
            FilteredComplex(red, levels)  # checks the filtration again
            ChainComplex(red.vars, red.gens, red.diff, red.convention)  # homogeneous
            assert UHomology(red).by_grading() == reference_decomposition(cx).by_grading()
    assert left > 0


def test_mod_u_check_rejects_tampered_summands():
    rng = random.Random(4411)
    torsion_cx = next(cx for cx in (one_map_kh(rng) for _ in range(60))
                      if UHomology(cx).torsion)
    for cx in (kh.ckh(kh.cyclic_knot(5)).complex, torsion_cx):
        summands = UHomology(cx).summands
        check_mod_u(cx, summands)
        for i, s in enumerate(summands):
            order = 1 if s.free else (None if i % 2 else s.order + 1)
            tampered = summands[:i] + [dataclasses.replace(s, order=order)] + summands[i + 1:]
            with pytest.raises(ArithmeticError, match="mod-u dimension mismatch"):
                check_mod_u(cx, tampered)
            with pytest.raises(ArithmeticError, match="mod-u dimension mismatch"):
                check_mod_u(cx, summands[:i] + summands[i + 1:])


def torsion_towers():
    """A kh complex with free towers at f and g, u^1, u^2 and u^3 torsion at
    y1, y2 and y3, and a unit pair a -> b whose cancellation moves b by u y2.
    Some torsion summands and partners share grades with the free ones."""
    grades = {"f": (0, 0), "g": (1, 2), "x1": (0, 0), "y1": (1, 2), "x2": (0, 2),
              "y2": (1, 6), "x3": (-1, 0), "y3": (0, 6), "a": (0, 4), "b": (1, 4)}
    gens = [Generator(gid, h, q) for gid, (h, q) in grades.items()]
    entries = {("x1", "y1"): 1, ("x2", "y2"): 2, ("x3", "y3"): 3, ("a", "b"): 0, ("a", "y2"): 1}
    return ChainComplex(U1, gens, {k: Poly.var(U1, "u", e) for k, e in entries.items()}, CONV_KH)


def quotient_mod_u_power(cx, m):
    """cx tensor F2[u]/u^m as a variable-free complex: a slot u^j g for each
    generator g and j < m, and u^j g -> u^(j+e) t for each entry g -u^e-> t
    with j + e < m."""
    gens = [Generator("%s^%d" % (g.gid, j), g.h, g.q - 2 * j) for g in cx.gens for j in range(m)]
    novars = VarSet((), ())
    diff = {("%s^%d" % (s, j), "%s^%d" % (t, j + e)): Poly.one(novars)
            for (s, t), p in cx.diff.items() for ((e,),) in [tuple(p.terms)]
            for j in range(m - e)}
    return ChainComplex(novars, gens, diff, CONV_KH)


def test_mod_u_dims_on_torsion_towers():
    """The universal coefficient prediction for every m, torsion included,
    equals the F2 homology of the explicit quotient by u^m."""
    cx = torsion_towers()
    summands = UHomology(cx).summands
    assert sorted((s.order or 0, s.grades) for s in summands) == [
        (0, (0, 0)), (0, (1, 2)), (1, (1, 2)), (2, (1, 6)), (3, (0, 6))]
    for m in (1, 2, 3, 4):
        want = {k: v for k, v in homology_f2(quotient_mod_u_power(cx, m)).items() if v}
        assert mod_u_dims(summands, cx.ustep(), (1, 0), m) == want, m
    assert mod_u_dims(summands, cx.ustep(), (1, 0), 1) == {
        k: v for k, v in homology_f2(kill_vars(cx)).items() if v}
    check_mod_u(cx, summands)
    for i, s in enumerate(summands):
        rest = summands[:i] + summands[i + 1:]
        changed = [dataclasses.replace(s, order=1 if s.free else None),
                   dataclasses.replace(s, grades=(s.grades[0], s.grades[1] + 2))]
        if not s.free:
            changed.append(dataclasses.replace(s, order=s.order + 1))
        for tampered in [rest] + [rest[:i] + [t] + rest[i:] for t in changed]:
            with pytest.raises(ArithmeticError, match="mod-u dimension mismatch"):
                check_mod_u(cx, tampered)


# -- the elimination order --------------------------------------------------------


def position_order_decomposition(cx):
    """(pairs, H(cx)) from umod.eliminate fed the sources in position order,
    not against the direction of d as cancel_units feeds them."""
    cols = dict(enumerate([dict(c) for c in cx.cols]))
    pairs = []
    eliminate(cols, cx.n, cancelled=pairs)
    paired = {i for x, y, _ in pairs for i in (x, y)}
    return pairs, ModuleDecomposition(
        [Summand(None, cx.grade_at(i, True), i) for i in range(cx.n) if i not in paired]
        + [Summand(k, cx.grade_at(y, True), y) for _, y, k in pairs if k])


def graded_orders(dec):
    return [(s.grades, s.order) for s in dec.summands]


def test_cancel_units_gives_the_position_order_homology():
    """UHomology, the position-order elimination and the dense reference give
    the same (grades, order) summands on random square-zero kh and floer
    complexes, torsion_towers, the minus cubes of the kh-cube diagrams and
    cyclic_knot(3..9), although the cancelled pairs differ."""
    rng = random.Random(2513)
    cases = [torsion_towers()]
    for convention, unit, alex in SQUARE_ZERO_KINDS:
        if unit:
            for _ in range(40):
                vs, gens, diff, _ = random_square_zero(rng, convention, unit, alex)
                cases.append(ChainComplex(vs, gens, diff, convention))
    diagrams = kh_cube_diagrams()
    cases += [kh.ckh(d).complex for d in diagrams + [kh.cyclic_knot(n) for n in range(3, 10, 2)]]
    torsion = moved = 0
    for cx in cases:
        ref_pairs, ref = position_order_decomposition(cx)
        hom = UHomology(cx)
        assert graded_orders(hom) == graded_orders(ref) == graded_orders(
            reference_decomposition(cx))
        pairs = []
        cancel_units(cx, cancelled=pairs)
        torsion += len(hom.torsion)
        moved += pairs != ref_pairs
    assert {cx.convention for cx in cases} == {CONV_KH, CONV_FLOER}
    assert torsion > 50 and moved > 40


def test_cancel_units_with_levels_keeps_position_order_and_pages():
    """With levels, the survivors keep their position order and grades, and
    the reduced filtered complex has the unreduced one's pages."""
    rng = random.Random(2514)
    for d in kh_cube_diagrams():
        cc = kh.ckh(d)
        cx = cc.complex
        for levels in (cc.levels, {g.gid: 2 * g.h + rng.randrange(2) for g in cx.gens}):
            fc = FilteredComplex(cx, levels)
            red = cancel_units(cx, fc.level)
            kept = set(red.ids)
            at = [cx.order[g] for g in cx.ids if g in kept]
            assert red.ids == [cx.ids[i] for i in at]
            assert (red.h, red.q) == ([cx.h[i] for i in at], [cx.q[i] for i in at])
            data, ref = analyze(fc.cancel_units()), analyze(fc)
            max_r = ref.max_jump() + 1
            assert pages(data, max_r) == pages(ref, max_r)
            assert data.einf_by_level() == ref.einf_by_level()


def test_summand_maps_do_not_depend_on_the_basis():
    """The elimination order picks the generators that anchor the summands,
    and the log replays against that basis.  Checked against fixed values,
    not against each other: every cycle_rep is a cycle that class_coords
    reads back as its unit vector, and each basepoint action of the mirror
    Hopf link, and of every arc of a knot, is u times the identity."""
    mh = kh.mirror(kh.parse_pd(HOPF_PD))
    trefoil = kh.mirror(kh.parse_pd(TREFOIL_PD))
    cases = [(mh, mh.component_arcs())]
    for d in (trefoil, kh.cyclic_knot(5), kh.add_kink(trefoil, 2),
              kh.connect_sum(kh.parse_pd(TREFOIL_PD), kh.parse_pd(FIG8_PD))):
        cases.append((d, d.arcs))
    for d, arcs in cases:
        cc = kh.ckh(d)
        hom = UHomology(cc.complex)
        check_maps(hom)
        assert not hom.torsion
        u_times_one = {(i, i): 1 for i in range(hom.free_rank)}
        for arc in arcs:
            assert hom.induced_matrix(kh.basepoint_action(cc, arc)) == u_times_one, arc
    assert len(cases[0][1]) == 2
