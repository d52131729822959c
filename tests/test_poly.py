import random

import pytest

from skeinseq.poly import FULL, HALF, Poly, VarSet, parse_poly

VS = VarSet(("u1", "u2"), (HALF, HALF))


def rand_poly(rng, vs, max_terms=4, max_exp=3):
    acc = Poly.zero(vs)
    for _ in range(rng.randrange(max_terms + 1)):
        exps = {n: rng.randrange(max_exp) for n in vs.names}
        acc = acc + Poly.monomial(vs, exps)
    return acc


def test_frobenius_square():
    p = parse_poly(VS, "u1+u2")
    assert str(p * p) == "u2^2+u1^2"


def test_identity_and_distributivity():
    p = parse_poly(VS, "u1+u2")
    assert Poly.one(VS) * p == p
    assert p * Poly.var(VS, "u1") == parse_poly(VS, "u1^2+u1*u2")


def test_ring_axioms_randomized():
    rng = random.Random(20240817)
    for _ in range(200):
        a, b, c = (rand_poly(rng, VS) for _ in range(3))
        assert a + b == b + a
        assert a + a == Poly.zero(VS)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_parse_print_roundtrip():
    rng = random.Random(7)
    for _ in range(50):
        p = rand_poly(rng, VS)
        assert parse_poly(VS, str(p)) == p
    assert parse_poly(VS, "0") == Poly.zero(VS)
    assert parse_poly(VS, "1") == Poly.one(VS)


def test_derivative():
    p = parse_poly(VS, "u1^2+u1*u2+u2")
    assert p.derivative("u1") == parse_poly(VS, "u2")
    assert p.derivative("u2") == parse_poly(VS, "u1+1")
    assert Poly.zero(VS).derivative("u1") == Poly.zero(VS)


def test_substitution_units():
    target = VarSet(("u",), (HALF,))
    p = parse_poly(VS, "u1+u2")
    assert p.map_vars(target, {"u1": "u", "u2": "u"}) == Poly.zero(target)
    mixed = VarSet(("U",), (FULL,))
    with pytest.raises(ValueError):
        p.map_vars(mixed, {"u1": "U", "u2": "U"})


def test_grading_weights():
    m_half = (1, 0)
    assert VS.h_drop(m_half) == 1
    assert VS.alex2(m_half) == 1
    vs_full = VarSet(("U",), (FULL,))
    assert vs_full.h_drop((1,)) == 2
    assert vs_full.alex2((1,)) == 0
