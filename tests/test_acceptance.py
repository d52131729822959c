"""Acceptance suite: one test per criterion, each printing its verdict."""

import random
import time

from skeinseq import khovanov as kh
from skeinseq.cli import flavor_dims
from skeinseq.complexes import UHomology, collapse_all, homology_f2
from skeinseq.infer import PageSpec, Pattern, TargetSpec, Tower, enumerate_patterns, resolve_filtration
from skeinseq.models import build_model, canonical_fg, run_model_suite, top_homology_table, verify_action
from skeinseq.spectral import FilteredComplex, SpectralPage, analyze, check_constraints, converge, pages
from test_khovanov import reference_cube, reordered

TREFOIL = "PD[X(1,4,2,5),X(3,6,4,1),X(5,2,6,3)]"
HOPF = "PD[X(1,3,2,4),X(3,1,4,2)]"
FIG8 = "PD[X(4,2,5,1),X(8,6,1,5),X(6,3,7,4),X(2,7,3,8)]"


def corpus():
    tre = kh.parse_pd(TREFOIL)
    fig8 = kh.parse_pd(FIG8)
    return {
        "unknot": kh.parse_pd("U"),
        "kink": kh.parse_pd("PD[X(1,2,2,1)]"),
        "kink2": kh.parse_pd("PD[X(1,2,2,3),X(3,4,4,1)]"),
        "hopf": kh.parse_pd(HOPF),
        "hopf_kinked": kh.add_kink(kh.parse_pd(HOPF), 1),
        "trefoil": tre,
        "trefoil_kinked": kh.add_kink(tre, 1),
        "fig8": fig8,
        "cyclic5": kh.cyclic_knot(5),
        "granny": kh.connect_sum(tre, tre),
        "cyclic7": kh.cyclic_knot(7),
        "cyclic7_kinked": kh.add_kink(kh.cyclic_knot(7), 1),
        "fig8_sum": kh.connect_sum(fig8, fig8),
    }


KNOT_NAMES = (
    "unknot", "kink", "kink2", "trefoil", "trefoil_kinked", "fig8",
    "cyclic5", "granny", "cyclic7", "cyclic7_kinked", "fig8_sum",
)


def report(criterion, ok):
    print("ACCEPTANCE %-60s %s" % (criterion, "PASS" if ok else "FAIL"))
    assert ok, criterion


def hat_dim(d):
    return sum(flavor_dims(kh.ckh(d), "hat").values())


def test_criterion_1_khovanov_flavors():
    t0 = time.time()
    ok = hat_dim(kh.parse_pd("U")) == 2
    mt = kh.mirror(kh.parse_pd(TREFOIL))
    hom = UHomology(kh.ckh(mt).complex)
    ok = ok and hom.free_rank == 3 and hom.torsion == []
    ok = ok and hat_dim(mt) == 6
    mh = kh.mirror(kh.parse_pd(HOPF))
    cc = kh.ckh(mh)
    hom2 = UHomology(cc.complex)
    ok = ok and hom2.free_rank == 2 and hom2.torsion == []
    acts = [
        hom2.induced_matrix(kh.basepoint_action(cc, arc))
        for arc in mh.component_arcs()
    ]
    ok = ok and acts[0] == acts[1]
    dims = flavor_dims(kh.ckh(mt), "reduced")
    ok = ok and sum(dims.values()) == 3
    ok = ok and len({q - 2 * h for (h, q) in dims}) == 1
    elapsed = time.time() - t0
    ok = ok and elapsed < 4 * 1.0  # four flavors, each well under a second
    report("1. khovanov flavors (unknot/trefoil/hopf, <1s each)", ok)


def test_criterion_2_unlinks():
    ok = True
    for n in range(1, 5):
        hom = UHomology(kh.ckh(kh.unlink(n)).complex)
        # free of rank 2^(n-1) over F2[X] = rank 2^n over F2[U], no torsion
        ok = ok and hom.free_rank == 2 ** (n - 1) and hom.torsion == []
        ok = ok and hat_dim(kh.unlink(n)) == 2 ** n
    report("2. planar unlinks n=1..4 rank 2^n over F[U]", ok)


def test_criterion_3_model_complexes():
    from skeinseq.complexes import _window_dims, collapse_pairs

    t0 = time.time()
    ok = True
    cp = canonical_fg(build_model("k_nonori"))
    ok = ok and cp.theta == "g" and cp.f == frozenset({"f"}) and cp.g == frozenset({"g"})
    tab = top_homology_table(build_model("k_nonori"))
    ok = ok and tab.canonical is not None and len(tab.vectors) == 2
    hom = UHomology(collapse_pairs(build_model("k_nonori").complex))
    ok = ok and hom.free_rank == 2 and hom.torsion == []
    dims = _window_dims(collapse_pairs(build_model("k_ori").complex), -3)
    ok = ok and dims == {(d,): 2 for d in range(-3, 1)}
    cp = canonical_fg(build_model("k_ori"))
    ok = ok and cp.theta == "f" and cp.f == frozenset({"ay", "bx"})
    ok = ok and cp.g == frozenset({"ax", "by"})
    tab = top_homology_table(build_model("k_ori"))
    ok = ok and tab.canonical is not None and len(tab.vectors) == 2
    for name in ("l_nonori", "l_ori"):
        tab = top_homology_table(build_model(name))
        ok = ok and len(tab.vectors) == 4 and tab.canonical is not None
    hom = UHomology(collapse_all(build_model("l_ori").complex))
    ok = ok and hom.torsion == [] and hom.free_rank == 16
    hom = UHomology(build_model("trefoil_cfl").complex)
    ok = ok and hom.free_rank == 1 and hom.torsion == [1]
    ok = ok and (time.time() - t0) < 1.0
    report("3. model complexes and action patterns (<1s)", ok)


def test_criterion_4_z11_2():
    m = build_model("z11_2")
    ok = True
    for action in ("A_kappa", "A_lambda"):
        rep = verify_action(m, action)
        labels = {label: passed for (label, passed, _) in rep.checks}
        ok = ok and labels.get("path anticommutator (collapsed) A_kappa", False)
        ok = ok and labels.get("path anticommutator (collapsed) A_lambda", False)
        ok = ok and labels.get("C0 rank 2", False)
        for g in ("A_kappa", "A_lambda", "A_kappa+A_lambda"):
            ok = ok and labels.get("ker %s on C0 rank 1" % g, False)
        ok = ok and labels.get("kernel independent of the loop", False)
        ok = ok and rep.ok
    report("4. z11_2 action identities and shared kernel", ok)


def test_criterion_5_spectral_engine():
    ok = True
    for name, d in corpus().items():
        t0 = time.time()
        minus = kh.ckh(d)
        for cc in (minus, reference_cube(d, "hat")):
            fc = FilteredComplex(cc.complex, cc.levels)
            data = analyze(fc)
            ok = ok and all(e.jump == 1 for e in data.events)
            p2 = data.page_dims(2)
            pinf = data.page_dims(10 ** 6)
            ok = ok and p2 == pinf  # E2 = Einf
            if cc is not minus:
                want = {k: v for k, v in homology_f2(cc.complex).items() if v}
                ok = ok and p2 == want == flavor_dims(minus, "hat")  # Einf = Kh
            else:
                hom = UHomology(cc.complex)
                ok = ok and _windowed(hom, data.trusted_floor) == p2
            ok = ok and converge(fc, data).ok
        elapsed = time.time() - t0
        ok = ok and elapsed < 30.0
        assert ok, (name, elapsed)
    # synthetic planted jumps
    from skeinseq.complexes import CONV_FLOER, ChainComplex, Generator
    from skeinseq.poly import HALF, Poly, VarSet

    vs = VarSet(("u",), (HALF,))
    for jump in (1, 2, 3, 4, 5):
        gens = [Generator("a", 0), Generator("b", jump - 1)]
        diff = {("a", "b"): Poly.var(vs, "u", jump)}
        fc = FilteredComplex(ChainComplex(vs, gens, diff, CONV_FLOER),
                             {"a": 0, "b": jump})
        data = analyze(fc)
        ok = ok and sorted({e.jump for e in data.events}) == [jump]
        for r in range(1, jump + 2):
            nonzero = sum(data.d_ranks(r).values()) > 0
            ok = ok and nonzero == (r == jump)
        ok = ok and converge(fc, data).ok
    report("5. spectral engine: corpus cubes and planted jumps", ok)


def _windowed(hom, floor):
    out = {}
    for s in hom.summands:
        h, q = s.grades
        j = 0
        while True:
            qq = q - 2 * j
            if floor is not None and qq < floor:
                break
            if s.order is not None and j >= s.order:
                break
            out[(h, qq)] = out.get((h, qq), 0) + 1
            j += 1
    return dict(sorted(out.items()))


def test_criterion_6_constraints():
    ok = True
    for name, d in corpus().items():
        cc = kh.ckh(d)
        fc = FilteredComplex(cc.complex, cc.levels)
        data = analyze(fc)
        page_list = pages(data, max(data.max_jump() + 1, 2))
        ok = ok and check_constraints(page_list).ok
    # inferred patterns as synthetic pages
    e2 = PageSpec((Tower("z", 0, -1), Tower("y", 1, 1), Tower("x", 3, 5)))
    for pat in enumerate_patterns(e2, TargetSpec(free_rank=1, torsion=(1,))):
        grade = {t.name: (t.h, t.q) for t in e2.towers}
        for (k, src, tgt, a) in pat.entries:
            hs, qs = grade[src]
            ht, qt = grade[tgt]
            page = SpectralPage(k, {}, {((hs, qs), (ht, qt - 2 * a)): 1})
            ok = ok and check_constraints([page]).ok
    report("6. grading constraints: zero violations", ok)


def test_criterion_7_inference():
    e2 = PageSpec((Tower("z", 0, -1), Tower("y", 1, 1), Tower("x", 3, 5)))
    pats = enumerate_patterns(e2, TargetSpec(free_rank=1, torsion=(1,)))
    ok = pats == [Pattern(((3, "z", "x", 1),))]
    hopf = PageSpec((Tower("x", 0, 0), Tower("y", 2, 4)))
    ok = ok and enumerate_patterns(hopf, TargetSpec(free_rank=2)) == [Pattern(())]
    actions = {"U2": {("b", "b"): 1, ("bd", "b"): 1, ("bd", "bd"): 1}}
    rep = resolve_filtration(
        hopf, Pattern(()), TargetSpec(2, (), None, ("b", "bd"), actions)
    )
    ok = ok and rep.status == "ok" and rep.assignment == {"b": "x", "bd": "y"}
    ok = ok and rep.forced_below == (("bd", "b"),)
    # the surviving trefoil tower sits two levels below the page top
    rep = resolve_filtration(e2, pats[0], TargetSpec(free_rank=1, torsion=(1,)))
    ok = ok and rep.survivors == (("y", 1, 1, 2),)
    report("7. forced differentials and filtration recovery", ok)


def test_criterion_8_property_suites():
    ok = True
    # golden model suite (phi squares, commutation, patterns) is all green
    rows = run_model_suite()
    ok = ok and all(passed for (_, passed, _) in rows)
    # d^2 = 0 on 200 random sub-diagrams, fixed seed
    rng = random.Random(20250203)
    base = [kh.parse_pd(TREFOIL), kh.parse_pd(FIG8), kh.cyclic_knot(5),
            kh.parse_pd(HOPF), kh.cyclic_knot(7)]
    for _ in range(200):
        d = base[rng.randrange(len(base))]
        while len(d.crossings) > 0 and rng.random() < 0.5:
            d = kh.smooth(d, rng.randrange(len(d.crossings)), rng.randrange(2))
        ok = ok and kh.ckh(d).complex.verify_d2() == []
    # hat/reduced/minus dimension relations on the knot corpus
    diagrams = corpus()
    for name in KNOT_NAMES:
        d = diagrams[name]
        hat = hat_dim(d)
        red = sum(flavor_dims(kh.ckh(d), "reduced").values())
        hom = UHomology(kh.ckh(d).complex)
        ok = ok and hat <= 2 * red
        ok = ok and hat == 2 * hom.free_rank
    # permutation invariance of homology and pages
    d = diagrams["trefoil"]
    cc = kh.ckh(d)
    fc = FilteredComplex(cc.complex, cc.levels)
    base_pages = analyze(fc)
    base_hom = UHomology(cc.complex).by_grading()
    order = [g.gid for g in cc.complex.gens]
    rng = random.Random(99)
    for _ in range(3):
        rng.shuffle(order)
        cx2 = reordered(cc.complex, order)
        ok = ok and UHomology(cx2).by_grading() == base_hom
        data2 = analyze(FilteredComplex(cx2, cc.levels))
        for r in (1, 2, 3):
            ok = ok and data2.page_dims(r) == base_pages.page_dims(r)
    report("8. seeded property suites: zero failures", ok)
