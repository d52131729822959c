import copy
import gzip
import json
import os
import random
import re

import pytest

from skeinseq import khovanov as kh
from skeinseq import serde
from skeinseq.complexes import CONV_FLOER, CONV_KH, ChainComplex, Generator, UHomology
from skeinseq.models import MODEL_NAMES, build_model
from skeinseq.poly import Poly, VarSet, parse_poly
from skeinseq.serde import (
    UNIT_NAMES,
    dump_complex,
    load_complex,
    load_diagram,
    load_page_spec,
    load_target_spec,
)


def test_complex_roundtrip():
    m = build_model("l_nonori")
    doc = dump_complex(m.complex)
    cx, levels, actions = load_complex(doc)
    assert levels is None
    assert cx.diff == m.complex.diff
    assert [g.gid for g in cx.gens] == [g.gid for g in m.complex.gens]


def test_complex_roundtrip_with_levels():
    cc = kh.ckh(kh.parse_pd("PD[X(1,3,2,4),X(3,1,4,2)]"))
    doc = dump_complex(cc.complex, cc.levels)
    cx, levels, _ = load_complex(doc)
    assert levels == cc.levels
    assert UHomology(cx).by_grading() == UHomology(cc.complex).by_grading()


def test_json_serializable():
    m = build_model("z11_2")
    text = json.dumps(dump_complex(m.complex), sort_keys=True)
    cx, _, _ = load_complex(json.loads(text))
    assert cx.n == 4


def test_partial_filtration_rejected():
    doc = {
        "variables": [],
        "generators": [{"id": "a", "h": 0, "filtration": 0}, {"id": "b", "h": 0}],
        "diff": [],
    }
    with pytest.raises(ValueError):
        load_complex(doc)


def test_diagram_loader():
    d = load_diagram({"crossings": [[1, 4, 2, 5], [3, 6, 4, 1], [5, 2, 6, 3]]})
    assert d.components() == 1
    d = load_diagram({"free_loops": 2})
    assert d.components() == 0 or d.free_loops == 2


def test_spec_loaders():
    page = load_page_spec({"towers": [{"name": "x", "h": 0, "q": 0}]})
    assert page.towers[0].name == "x"
    target = load_target_spec(
        {"free_rank": 2, "torsion": [1], "basis": ["a"], "actions": {"A": [["a", "a"]]}}
    )
    assert target.free_rank == 2 and target.torsion == (1,)
    assert target.actions["A"] == {("a", "a"): 1}


@pytest.mark.parametrize("doc, message", [
    ({"free_rank": -1}, "'free_rank' must be at least 0, not -1"),
    ({"free_rank": "-3"}, "'free_rank' must be at least 0, not '-3'"),
    ({"torsion": [2, 0]}, "a torsion order must be at least 1, not 0"),
    ({"torsion": [-2]}, "a torsion order must be at least 1, not -2"),
    ({"anchors": [[0, 0, None], [0, 0, 0]]}, "an anchor order must be at least 1, not 0"),
    ({"anchors": [[0, 0, -1.0]]}, "an anchor order must be at least 1, not -1.0"),
])
def test_target_spec_refuses_an_impossible_limit(doc, message):
    """No limit has a negative free rank or a torsion tower of order below
    one; the field is named."""
    with pytest.raises(ValueError, match="^%s$" % re.escape(message)):
        load_target_spec(doc)


def test_target_spec_takes_the_least_possible_limit():
    target = load_target_spec({"free_rank": 0, "torsion": [1], "anchors": [[-1, -2, 1]]})
    assert (target.free_rank, target.torsion, target.anchors) == (0, (1,), ((-1, -2, 1),))
    assert load_target_spec({"anchors": [[3, 5, None]]}).anchors == ((3, 5, None),)


def test_load_complex_rejects_wrong_exponent():
    cc = kh.ckh(kh.parse_pd("PD[X(1,4,2,5),X(3,6,4,1),X(5,2,6,3)]"))
    doc = dump_complex(cc.complex, cc.levels)
    entry = next(e for e in doc["diff"] if e["poly"] == "1")
    entry["poly"] = "u"
    with pytest.raises(ValueError, match="inhomogeneous"):
        load_complex(doc)


def test_load_complex_parses_each_entry_text_once(monkeypatch):
    texts = []

    def counting_parse(vs, text):
        texts.append(text)
        return parse_poly(vs, text)

    monkeypatch.setattr(serde, "parse_poly", counting_parse)
    cc = kh.ckh(kh.cyclic_knot(5))
    doc = dump_complex(cc.complex, cc.levels)
    cx, levels, _ = load_complex(doc)
    assert cx.diff == cc.complex.diff and levels == cc.levels
    assert sorted(texts) == sorted({e["poly"] for e in doc["diff"]})
    assert len(texts) < len(doc["diff"])
    # an entry given twice still sums, from the one parse
    doc = {"variables": [{"name": "u", "unit": "1/2"}],
           "generators": [{"id": "a", "h": 1}, {"id": "b", "h": 0}],
           "diff": [{"from": "a", "to": "b", "poly": "u"}] * 2}
    texts.clear()
    cx, _, _ = load_complex(doc)
    assert cx.diff == {} and texts == ["u"]


def test_load_complex_refuses_repeated_ids_once(monkeypatch):
    """A repeated id is refused with one message whatever the diff holds: an
    entry on degree, off it, not one monomial or naming no generator, over
    one variable or several; a malformed entry, an unknown variable or an
    unknown convention is still named first.  The one id -> position dict is
    the one the loader builds for the columns."""
    u, uv = [{"name": "u", "unit": "1/2"}], [{"name": "u", "unit": "1/2"}, {"name": "v", "unit": "1"}]
    twice = [{"id": "a", "h": 1}, {"id": "b", "h": 0}, {"id": "a", "h": 1}]
    for variables, diff in (
        (u, [{"from": "a", "to": "b", "poly": "1"}]),
        (u, [{"from": "b", "to": "a", "poly": "u"}]),
        (u, [{"from": "a", "to": "b", "poly": "1+u"}]),
        (uv, []),
        (uv, [{"from": "a", "to": "b", "poly": "u+v"}]),
        (u, [{"from": "a", "to": "z", "poly": "1"}]),
        (u, [{"from": "b", "to": "a", "poly": "1"}]),
    ):
        doc = {"variables": variables, "generators": twice, "diff": diff}
        with pytest.raises(ValueError, match="^duplicate generator ids$"):
            load_complex(doc)
    doc = {"variables": u, "generators": twice, "diff": [{"from": "a", "to": "b", "poly": "w"}]}
    with pytest.raises(KeyError, match="unknown variable 'w'"):
        load_complex(doc)
    for variables in (u, uv):
        doc = {"variables": variables, "generators": twice, "convention": "x",
               "diff": [{"from": "a", "to": "b", "poly": "1"}]}
        with pytest.raises(ValueError, match="^unknown convention 'x'$"):
            load_complex(doc)
    built = []
    columns = serde._diff_columns
    monkeypatch.setattr(serde, "_diff_columns",
                        lambda entries, vs, order, n: built.append(order)
                        or columns(entries, vs, order, n))
    cx, _, _ = load_complex({"variables": u, "generators": twice[:2],
                             "diff": [{"from": "a", "to": "b", "poly": "1"}]})
    assert cx.ids == ["a", "b"] and cx.order == {"a": 0, "b": 1} and cx.order is built[0]


def id_keyed(doc):
    """The complex of doc from the id-keyed constructor: ids and texts read
    as their str, each pair's entries summed in document order."""
    names = tuple(v["name"] for v in doc.get("variables", []))
    vs = VarSet(names, tuple(UNIT_NAMES[v.get("unit", "1/2")] for v in doc.get("variables", [])))
    gens = [Generator(str(g["id"]), g["h"], g.get("q"), g.get("alex2")) for g in doc["generators"]]
    diff = {}
    for e in doc["diff"]:
        key, p = (str(e["from"]), str(e["to"])), parse_poly(vs, str(e["poly"]))
        diff[key] = diff[key] + p if key in diff else p
    convention = doc.get("convention") or (CONV_FLOER if all(g.q is None for g in gens) else CONV_KH)
    pairs = {k: tuple(v) for k, v in doc.get("pairs", {}).items()}
    return ChainComplex(vs, gens, diff, convention, pairs)


def same_complex(cx, ref):
    """The two complexes hold the same ids, grades and entries, each column's
    entries in the same order, and both were checked on degree."""
    assert cx.ids == ref.ids and cx.h == ref.h and cx.q == ref.q and cx.alex2 == ref.alex2
    assert [list(col.items()) for col in cx.cols] == [list(col.items()) for col in ref.cols]
    assert (cx.vars, cx.convention, cx.pairs) == (ref.vars, ref.convention, ref.pairs)
    assert cx.on_degree and ref.on_degree


def test_load_complex_reads_the_diff_as_the_id_keyed_route(monkeypatch):
    """The diff read once into columns gives the id-keyed constructor's
    complex, entry order included, on cube dumps, floer documents (with and
    without alex2) and every model (entries over several variables), their
    entries and generators shuffled, ids and texts given as numbers or not;
    no text is parsed twice."""
    from test_spectral import alex2_planted_sums
    from test_spectral_hard import planted_sums

    docs = [dump_complex(cc.complex, cc.levels) for cc in (
        kh.ckh(kh.parse_pd("PD[X(1,3,2,4),X(3,1,4,2)]")), kh.ckh(kh.cyclic_knot(5)))]
    docs += [dump_complex(fc.base, fc.levels) for fc, _ in list(planted_sums())[:6]]
    docs += [dump_complex(fc.base, fc.levels) for fc in list(alex2_planted_sums())[:6]]
    docs += [dump_complex(build_model(name).complex) for name in MODEL_NAMES]
    rng = random.Random(2913)
    for doc in list(docs):
        doc = copy.deepcopy(doc)
        rng.shuffle(doc["generators"])
        rng.shuffle(doc["diff"])
        docs.append(doc)
        numeric = copy.deepcopy(doc)  # ids 0, 1, ... and the text "1" as the number 1
        number = {g["id"]: k for k, g in enumerate(numeric["generators"])}
        for g in numeric["generators"]:
            g["id"] = number[g["id"]]
        for e in numeric["diff"]:
            e["from"], e["to"] = number[e["from"]], number[e["to"]]
            if e["poly"] == "1":
                e["poly"] = 1
        docs.append(numeric)
    parses, parse = [], serde.parse_poly
    monkeypatch.setattr(serde, "parse_poly", lambda vs, text: parses.append(text) or parse(vs, text))
    numbers = several = 0
    for doc in docs:
        del parses[:]
        cx = load_complex(doc)[0]
        assert sorted(parses) == sorted({str(e["poly"]) for e in doc["diff"]})
        same_complex(cx, id_keyed(doc))
        numbers += any(type(e["poly"]) is int for e in doc["diff"])
        several += cx.vars.n > 1
    assert numbers == 2  # the two cube dumps hold the text "1"
    assert several == 3 * 5  # every model but z11_2 has several variables


def test_load_complex_reads_irregular_entries_as_the_id_keyed_route():
    """Repeated entries (twice, three times, cancelling, summing to one
    monomial from texts that are not), "0" texts and ids or texts that are
    not strings, anywhere in the diff, give the id-keyed constructor's
    complex, over one variable and several."""
    u = [{"name": "u", "unit": "1/2"}]
    uv = u + [{"name": "v", "unit": "1/2"}]
    gens = [{"id": "a", "h": 1}, {"id": "b", "h": 1}, {"id": "c", "h": 1}, {"id": "['a']", "h": 1}]
    ab, ac = {"from": "a", "to": "b", "poly": "u"}, {"from": "a", "to": "c", "poly": "u"}
    ab0, ab1 = {"from": "a", "to": "b", "poly": "0"}, {"from": "a", "to": "b", "poly": "u+u^3"}
    ab3 = {"from": "a", "to": "b", "poly": "u^3"}
    listed = {"from": ["a"], "to": "b", "poly": "u"}  # names the generator "['a']"
    for variables in (u, uv):
        for diff in ([ab, ab], [ab, ac, ab], [ab, ab, ab], [ab, ac, ab, ab], [ac, ab0], [ab0],
                     [ab0, ac, ab], [ab1, ac, ab3], [ab1, ab1], [ab3, ac, ab1], [listed, ab],
                     [ac, {"from": "a", "to": "c", "poly": 0}, listed]):
            doc = {"variables": variables, "generators": gens, "diff": diff}
            cx = load_complex(doc)[0]
            same_complex(cx, id_keyed(doc))
            kind = int if variables is u else Poly  # an exponent over one variable
            assert all(type(e) is kind for col in cx.cols for e in col.values())
    doc = {"variables": uv, "generators": gens, "diff": [
        ab, {"from": "a", "to": "c", "poly": "u+v"}, {"from": "a", "to": "c", "poly": "v+u"}]}
    cx = load_complex(doc)[0]
    assert cx.diff == {("a", "b"): parse_poly(cx.vars, "u")}
    same_complex(cx, id_keyed(doc))


@pytest.mark.parametrize("variables", ["u", "uv"])
def test_load_complex_refuses_a_bad_entry(variables):
    """A malformed entry is named first, in document order; then an entry
    on an unknown generator, even where the entries on its pair sum to
    zero; then the first entry off degree by source position, a sum of
    powers of one variable included."""
    vs = [{"name": "u", "unit": "1/2"}] + [{"name": "v", "unit": "1"}] * (variables == "uv")
    gens = [{"id": "a", "h": 1}, {"id": "b", "h": 0}, {"id": "c", "h": 1}, {"id": "d", "h": 0}]
    ab, cd = {"from": "a", "to": "b", "poly": "1"}, {"from": "c", "to": "d", "poly": "1"}
    az = {"from": "a", "to": "z", "poly": "u"}
    for diff, message in (
        ([ab, az], r"^entry on unknown generator \(a,z\)$"),
        ([{"from": 5, "to": "b", "poly": "u"}, ab], r"^entry on unknown generator \(5,b\)$"),
        ([az, az], r"^entry on unknown generator \(a,z\)$"),
        ([{"from": "a", "to": "z", "poly": "0"}], r"^entry on unknown generator \(a,z\)$"),
        ([{"from": "a", "to": "b", "poly": "u"}, az], r"^entry on unknown generator \(a,z\)$"),
        ([ab, ["a", "c", "u"]], "^a diff entry must be a JSON object, not an array$"),
        ([ab, cd, None], "^a diff entry must be a JSON object, not null$"),
        ([az, "ab"], "^a diff entry must be a JSON object, not a string$"),
        ([ab, {"from": "a", "poly": "u"}], "^a diff entry has no 'to'$"),
        ([ab, ab, {"to": "b", "poly": "u"}], "^a diff entry has no 'from'$"),
        ([{"from": "a", "to": "b", "poly": "u"}], "^inhomogeneous differential entry a -> b: u$"),
        ([{"from": "c", "to": "d", "poly": "u"}, {"from": "a", "to": "b", "poly": "u^2"}],
         r"^inhomogeneous differential entry a -> b: u\^2$"),
        ([{"from": "c", "to": "d", "poly": "u"}, {"from": "a", "to": "b", "poly": "1+u"}],
         r"^inhomogeneous differential entry a -> b: 1\+u$"),
        ([{"from": "a", "to": "b", "poly": "1+u"}, {"from": "c", "to": "d", "poly": "u"}],
         r"^inhomogeneous differential entry a -> b: 1\+u$"),
        ([cd, {"from": "a", "to": "b", "poly": "u"}, {"from": "a", "to": "b", "poly": "1"}],
         r"^inhomogeneous differential entry a -> b: 1\+u$"),
    ):
        doc = {"variables": vs, "generators": gens, "diff": diff}
        with pytest.raises(ValueError, match=message):
            load_complex(doc)
    for poly in (["u"], True, None):  # a text that is not a string is parsed as its str
        doc = {"variables": vs, "generators": gens, "diff": [az, {"from": "a", "to": "c", "poly": poly}]}
        with pytest.raises(KeyError, match="unknown variable"):
            load_complex(doc)


def test_load_complex_reads_a_document_off_degree_once(monkeypatch):
    """A dense floer document with its last entry off degree is refused
    from one read of its diff: one reader call, one parse per distinct text."""
    n = 12
    gens = [{"id": "g%d_%d" % (lv, i), "h": -lv, "filtration": lv} for lv in range(3) for i in range(n)]
    diff = [{"from": "g%d_%d" % (lv, i), "to": "g%d_%d" % (lv + 1, j), "poly": "1"}
            for lv in range(2) for i in range(n) for j in range(n)]
    diff[-1]["poly"] = "u"
    reads, parses = [], []
    columns, parse = serde._diff_columns, serde.parse_poly
    monkeypatch.setattr(serde, "_diff_columns", lambda *args: reads.append(1) or columns(*args))
    monkeypatch.setattr(serde, "parse_poly", lambda vs, text: parses.append(text) or parse(vs, text))
    doc = {"variables": [{"name": "u", "unit": "1/2"}], "convention": "floer",
           "generators": gens, "diff": diff}
    with pytest.raises(ValueError, match=r"^inhomogeneous differential entry g1_11 -> g2_11: u$"):
        load_complex(doc)
    assert reads == [1] and sorted(parses) == ["1", "u"]


def test_every_model_and_frozen_cube_round_trips():
    """dump_complex, load_complex and dump_complex again give the same bytes
    for every model and every cube the spectral benchmark reads."""
    cubes = os.path.join(os.path.dirname(__file__), "..", "perfbench", "data", "cubes")
    docs = [dump_complex(build_model(name).complex) for name in MODEL_NAMES]
    for name in sorted(os.listdir(cubes)):
        with gzip.open(os.path.join(cubes, name), "rb") as fh:
            docs.append(json.load(fh))
    for doc in docs:
        cx, levels, _ = load_complex(doc)
        assert json.dumps(dump_complex(cx, levels), sort_keys=True) == json.dumps(doc, sort_keys=True)
    assert len(docs) == len(MODEL_NAMES) + 14
