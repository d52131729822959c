"""Adversarial spectral cases: interleaved jumps and random sums of pieces."""

import random

from skeinseq.complexes import CONV_FLOER, ChainComplex, Generator, UHomology
from skeinseq.poly import HALF, Poly, VarSet
from skeinseq.spectral import FilteredComplex, analyze, converge

U1 = VarSet(("u",), (HALF,))


def test_interleaved_jumps_hand_checked():
    """Two sources hitting one tower with different jumps and powers.

    d(y1) = u^2 x (level jump 3), d(y2) = u x (jump 4).  The true limit is
    one free tower represented by y1 + u y2 entering at level 0 plus
    order-one u-torsion on x at level 4; on page 4 the x part is still
    u^2-torsion.  These values come from a hand computation.
    """
    gens = [Generator("y1", 1), Generator("y2", 2), Generator("x", 2)]
    diff = {
        ("y1", "x"): Poly.var(U1, "u", 2),
        ("y2", "x"): Poly.var(U1, "u", 1),
    }
    cx = ChainComplex(U1, gens, diff, CONV_FLOER)
    fc = FilteredComplex(cx, {"y1": 1, "y2": 0, "x": 4})
    data = analyze(fc)
    assert sorted({e.jump for e in data.events}) == [3, 4]
    assert sum(1 for e in data.events if e.jump == 4) == 1

    d1, d3, d4, d5 = (data.page_dims(r) for r in (1, 3, 4, 9))
    assert d1 == d3
    assert (d1[(2,)], d1[(1,)], d1[(0,)]) == (2, 3, 3)
    assert (d4[(2,)], d4[(1,)], d4[(0,)]) == (2, 2, 1)
    assert (d5[(2,)], d5[(1,)], d5[(0,)]) == (1, 1, 1)
    einf = data.einf_by_level()
    assert einf[((2,), 4)] == 1  # the torsion class sits at level 4
    assert einf[((1,), 0)] == 1  # the free tower enters at level 0
    assert converge(fc, data).ok
    hom = UHomology(cx)
    assert hom.free_rank == 1 and hom.torsion == [1]


def one_map_complexes():
    """Random single-layer maps with random levels, from a fixed seed."""
    rng = random.Random(424242)
    for trial in range(60):
        n_src, n_tgt = rng.randrange(1, 4), rng.randrange(1, 4)
        gens = [Generator("s%d" % i, 1) for i in range(n_src)]
        gens += [Generator("t%d" % i, rng.choice((0, 0, -1))) for i in range(n_tgt)]
        diff = {}
        for i in range(n_src):
            for j in range(n_tgt):
                # h-homogeneity forces the exponent: h_tgt - e = h_src - 1
                e = gens[n_src + j].h - (gens[i].h - 1)
                if e < 0:
                    continue
                if rng.random() < 0.6:
                    diff[("s%d" % i, "t%d" % j)] = Poly.var(U1, "u", e)
        cx = ChainComplex(U1, gens, diff, CONV_FLOER)
        levels = {}
        for g in cx.gens:
            levels[g.gid] = (
                rng.randrange(3) if g.gid.startswith("s") else 3 + rng.randrange(3)
            )
        yield trial, FilteredComplex(cx, levels)


def test_random_one_map_complexes_converge():
    """Random single-layer maps: pairing limit matches the rank route."""
    for trial, fc in one_map_complexes():
        cx = fc.base
        rep = converge(fc, analyze(fc))
        assert rep.ok, (trial, rep.mismatches)
        hom = UHomology(cx)
        # limit class count at the anchor slices equals the summand count
        assert sum(data_dim for (_, _), data_dim in rep.einf.items()) >= len(
            hom.summands
        )


def _planted_piece(tag, jump, power, shift):
    gens = [Generator("%s_a" % tag, 0), Generator("%s_b" % tag, power - 1)]
    diff = {(gens[0].gid, gens[1].gid): Poly.var(U1, "u", power)}
    levels = {gens[0].gid: shift, gens[1].gid: shift + jump}
    return gens, diff, levels


def planted_sums():
    """Direct sums of planted pieces plus isolated towers, shuffled, from a
    fixed seed; each with the set of jumps it plants."""
    rng = random.Random(777)
    for _ in range(30):
        gens, diff, levels = [], {}, {}
        expected_jumps = set()
        for k in range(rng.randrange(1, 4)):
            jump = rng.randrange(1, 5)
            power = rng.randrange(1, min(jump + 1, 4))
            piece = _planted_piece("p%d" % k, jump, power, rng.randrange(3))
            gens += piece[0]
            diff.update(piece[1])
            levels.update(piece[2])
            expected_jumps.add(jump)
        for k in range(rng.randrange(3)):
            g = Generator("iso%d" % k, rng.randrange(-1, 2))
            gens.append(g)
            levels[g.gid] = rng.randrange(6)
        rng.shuffle(gens)
        cx = ChainComplex(U1, gens, diff, CONV_FLOER)
        yield FilteredComplex(cx, levels), expected_jumps


def test_random_sums_of_planted_pieces():
    """Direct sums of planted pieces plus isolated towers, shuffled."""
    for fc, expected_jumps in planted_sums():
        assert fc.base.verify_d2() == []
        data = analyze(fc)
        assert {e.jump for e in data.events} == expected_jumps
        assert converge(fc, data).ok
