"""Invariant-based property suites over generated knot diagrams.

Diagrams are built from small knots by connected sums, first Reidemeister
kinks and mirrors, with at most MAX_CROSSINGS crossings so that every cube
stays small.  The runs are derandomized so the suite is repeatable.
"""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from mod_u import kh_output
from skeinseq import khovanov as kh
from skeinseq.cli import flavor_dims, main
from skeinseq.complexes import UHomology, homology_f2
from skeinseq.umod import ModuleDecomposition
from test_khovanov import (
    _assert_rebuilds,
    _assert_same_cube,
    assert_tables_match_the_reference,
    assert_views_spell_the_reference,
    kill_vars,
    union_find_labs,
)
from test_umod import cube_presentation, dense_decompose

TREFOIL = "PD[X(1,4,2,5),X(3,6,4,1),X(5,2,6,3)]"
FIG8 = "PD[X(4,2,5,1),X(8,6,1,5),X(6,3,7,4),X(2,7,3,8)]"
HOPF = "PD[X(1,3,2,4),X(3,1,4,2)]"

MAX_CROSSINGS = 7

PRIMES = (
    kh.parse_pd(TREFOIL),
    kh.parse_pd(FIG8),
    kh.cyclic_knot(5),
    kh.cyclic_knot(7),
)

SUITE = settings(max_examples=30, deadline=None, derandomize=True, database=None)


@st.composite
def knots(draw, max_crossings=MAX_CROSSINGS, primes=PRIMES):
    """A prime, then up to three moves: one component unless a prime has more."""
    d = draw(st.sampled_from([p for p in primes if len(p.crossings) <= max_crossings]))
    for _ in range(draw(st.integers(0, 3))):
        move = draw(st.sampled_from(("mirror", "kink", "sum")))
        if move == "mirror":
            d = kh.mirror(d)
        elif move == "kink" and len(d.crossings) < max_crossings:
            d = kh.add_kink(d, draw(st.sampled_from(d.arcs)))
        elif move == "sum":
            other = draw(st.sampled_from(primes))
            if len(d.crossings) + len(other.crossings) <= max_crossings:
                d = kh.connect_sum(d, other, draw(st.sampled_from(d.arcs)))
    return d


def hat_table(d):
    return flavor_dims(kh.ckh(d), "hat")


def reduced_table(d, arc=None):
    return flavor_dims(kh.ckh(d, arc), "reduced")


def reduced_dim(d, arc=None):
    return sum(reduced_table(d, arc).values())


def normalized(table):
    """A bigraded table moved so its least h and least q are 0."""
    h0 = min(h for h, _ in table)
    q0 = min(q for _, q in table)
    return {(h - h0, q - q0): v for (h, q), v in table.items()}


@SUITE
@given(knots(), st.booleans())
def test_d_squared_zero_in_every_flavor(d, mirror):
    if mirror:
        d = kh.mirror(d)
    assert kh.ckh(d).complex.verify_d2() == []
    cx = kh.ckh(d, max(d.arcs)).complex
    assert cx.verify_d2() == [] and kill_vars(cx).verify_d2() == []


@SUITE
@given(knots())
def test_mirror_negates_both_gradings(d):
    # over a field the mirror's homology is the dual complex's: (h, q) -> (-h, -q)
    def flipped(table):
        return {(-h, -q): v for (h, q), v in table.items()}

    m = kh.mirror(d)
    assert normalized(hat_table(m)) == normalized(flipped(hat_table(d)))
    assert normalized(reduced_table(m)) == normalized(flipped(reduced_table(d)))


@SUITE
@given(knots(), st.data())
def test_hat_is_twice_reduced_for_knots(d, data):
    # Shumakovitch: over F2, Kh(K) is Khr(K) tensor a rank-2 space for knots
    assert d.components() == 1
    arc = data.draw(st.sampled_from(d.arcs))
    assert sum(hat_table(d).values()) == 2 * reduced_dim(d, arc)


@SUITE
@given(knots(max_crossings=4), knots(max_crossings=3))
def test_reduced_multiplicative_under_connect_sum(d1, d2):
    assert reduced_dim(kh.connect_sum(d1, d2)) == reduced_dim(d1) * reduced_dim(d2)


@SUITE
@given(knots(max_crossings=MAX_CROSSINGS - 1), st.data())
def test_hat_invariant_under_kink_up_to_shift(d, data):
    # on the cubes of both diagrams: hat, minus (free rank and torsion by
    # grade) and reduced at an arc that both have, so kh may undo kinks
    kinked = kh.add_kink(d, data.draw(st.sampled_from(d.arcs)))
    arc = data.draw(st.sampled_from(d.arcs))
    assert normalized(hat_table(kinked)) == normalized(hat_table(d))
    assert normalized(reduced_table(kinked, arc)) == normalized(reduced_table(d, arc))
    minus = [UHomology(kh.ckh(x, arc).complex).by_grading() for x in (kinked, d)]
    assert normalized(minus[0]) == normalized(minus[1])


@SUITE
@given(knots(), st.data())
def test_basepoint_action_is_u_on_homology(d, data):
    # the label x of the marked circle acts as u on every free tower (so it
    # squares to U), whichever arc carries the basepoint
    cc = kh.ckh(d)
    hom = UHomology(cc.complex)
    act = hom.induced_matrix(kh.basepoint_action(cc, data.draw(st.sampled_from(d.arcs))))
    assert not hom.torsion and act == {(i, i): 1 for i in range(hom.free_rank)}


@SUITE
@given(knots(max_crossings=6, primes=PRIMES + (kh.parse_pd(HOPF),)), st.integers(0, 3),
       st.data())
def test_minus_homology_is_one_tower_per_reduced_generator(d, smoothings, data):
    # in the y-basis the cube C has no u in its differential, so C is
    # (C mod u) tensor F2[u]: H(C) has no torsion, and its towers sit at the
    # grades of H(C mod u), as many at each as its dimension there
    for _ in range(smoothings):
        if d.crossings:
            d = kh.smooth(d, data.draw(st.integers(0, len(d.crossings) - 1)),
                          data.draw(st.integers(0, 1)))
    cx = kh.ckh(d, data.draw(st.sampled_from(d.arcs))).complex
    hom = UHomology(cx)
    assert not hom.torsion
    towers = {grade: free for grade, (free, _) in hom.by_grading().items()}
    assert towers == {grade: dim for grade, dim in homology_f2(cx).items() if dim}


@SUITE
@given(knots(max_crossings=5, primes=PRIMES + (kh.parse_pd(HOPF),)), st.integers(0, 2),
       st.integers(0, 1), st.booleans(), st.data())
def test_kh_minus_and_hat_outputs_are_the_unreduced_ones(d, smoothings, loops, mirror, data):
    # kh reads minus and hat off homology_f2 of the kink-free cube; the same
    # bytes are spelled from the F2[u] homology of the whole cube as given,
    # by UHomology and by the dense presentation reference
    for _ in range(smoothings):
        if d.crossings:
            d = kh.smooth(d, data.draw(st.integers(0, len(d.crossings) - 1)),
                          data.draw(st.integers(0, 1)))
    d = kh.LinkDiagram(d.crossings, d.free_loops + loops)
    pd = "PD[%s]" % ",".join(["X(%d,%d,%d,%d)" % c for c in d.crossings] + ["U"] * d.free_loops)
    cx = kh.ckh(kh.mirror(d) if mirror else d).complex
    decs = [UHomology(cx), ModuleDecomposition(dense_decompose(*cube_presentation(cx)))]
    for flavor in ("minus", "hat"):
        for fmt in ("tsv", "json"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["kh", "--pd", pd, "--flavor", flavor, "--out", fmt]
                            + ["--mirror"] * mirror) == 0
            assert [out.getvalue()] * 2 == [kh_output(dec, cx, flavor, fmt) for dec in decs]


@SUITE
@given(knots(max_crossings=5, primes=PRIMES + (kh.parse_pd(HOPF),)),
       st.integers(0, 4), st.booleans(), st.data())
def test_ckh_matches_reference_on_generated_links(d, smoothings, swap, data):
    # smoothing crossings away leaves links with more components and free loops
    for _ in range(smoothings):
        if d.crossings:
            d = kh.smooth(d, data.draw(st.integers(0, len(d.crossings) - 1)),
                          data.draw(st.integers(0, 1)))
    _assert_same_cube(d, swap=swap)
    _assert_same_cube(d, data.draw(st.sampled_from(d.arcs)), swap)


@SUITE
@given(knots(max_crossings=5, primes=PRIMES + (kh.parse_pd(HOPF),)),
       st.integers(0, 4), st.integers(0, 2), st.data())
def test_hat_and_reduced_tables_match_the_reference_cubes(d, smoothings, loops, data):
    # knots, links left by smoothing and free loops; reduced at every arc
    for _ in range(smoothings):
        if d.crossings:
            d = kh.smooth(d, data.draw(st.integers(0, len(d.crossings) - 1)),
                          data.draw(st.integers(0, 1)))
    if len(d.crossings) + d.free_loops + loops <= MAX_CROSSINGS:
        d = kh.LinkDiagram(d.crossings, d.free_loops + loops)
    for arc in d.arcs:
        assert_tables_match_the_reference(d, arc)


@SUITE
@given(knots(), st.data())
def test_diff_view_rebuilds_the_columns_on_generated_knots(d, data):
    cx = kh.ckh(d, data.draw(st.sampled_from(d.arcs))).complex
    _assert_rebuilds(cx)
    _assert_rebuilds(kill_vars(cx))


@SUITE
@given(knots(max_crossings=6, primes=PRIMES + (kh.parse_pd(HOPF),)), st.integers(0, 3),
       st.data())
def test_resolver_matches_union_find_on_generated_links(d, smoothings, data):
    for _ in range(smoothings):
        if d.crossings:
            d = kh.smooth(d, data.draw(st.integers(0, len(d.crossings) - 1)),
                          data.draw(st.integers(0, 1)))
    assert kh.ckh(d).labs == union_find_labs(d)


@SUITE
@given(knots(), st.data())
def test_views_spell_the_reference_generators_on_generated_knots(d, data):
    assert_views_spell_the_reference(d, data.draw(st.sampled_from(d.arcs)))


PLANAR_PRIMES = (kh.parse_pd(TREFOIL), kh.parse_pd(FIG8), kh.parse_pd(HOPF))


@SUITE
@given(knots(primes=PLANAR_PRIMES))
def test_planar_diagrams_have_n_plus_2_faces(d):
    # Euler: n crossings and 2n arcs of a connected diagram on the sphere
    assert d.faces() == len(d.crossings) + 2


def test_cyclic_knots_past_the_trefoil_are_not_planar():
    assert kh.cyclic_knot(3).faces() == 5
    assert {n: kh.cyclic_knot(n).faces() for n in (5, 7, 9, 11, 13)} == {
        5: 3, 7: 3, 9: 5, 11: 3, 13: 3}


@SUITE
@given(knots(primes=PLANAR_PRIMES), st.integers(0, 3), st.integers(0, 1), st.data())
def test_reduced_euler_characteristic_at_i_is_the_determinant(d, smoothings, loops, data):
    # chi(Khr) is the Jones polynomial in q^2 = t, and |V(-1)| = det: so
    # |chi(i)| = det and dim Khr >= det on planar diagrams, links and split
    # ones included (a split link has det 0, and Khr of it chi(i) = 0)
    for _ in range(smoothings):
        if d.crossings:
            d = kh.smooth(d, data.draw(st.integers(0, len(d.crossings) - 1)),
                          data.draw(st.integers(0, 1)))
    d = kh.LinkDiagram(d.crossings, d.free_loops + loops)
    red = reduced_table(d, data.draw(st.sampled_from(d.arcs)))
    chi = sum((-1) ** h * (1, 1j, -1, -1j)[q % 4] * v for (h, q), v in red.items())
    det = kh.determinant(d)
    assert chi.real ** 2 + chi.imag ** 2 == det ** 2 and sum(red.values()) >= det
    assert det == 0 or not d.free_loops or not d.crossings
