import copy
import json
import random
import re

import pytest

from skeinseq import khovanov as kh
from skeinseq import serde
from skeinseq.complexes import UHomology
from skeinseq.models import build_model
from skeinseq.poly import parse_poly
from skeinseq.serde import (
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
    """A repeated id is refused with one message on every route: the column
    route (one variable), the id-keyed one (several variables, or an entry
    naming no generator) and an entry off degree; a malformed entry or an
    unknown convention is still named first.  On the column route the one
    id -> position dict is the one the loader builds for the columns."""
    u = [{"name": "u", "unit": "1/2"}]
    twice = [{"id": "a", "h": 1}, {"id": "b", "h": 0}, {"id": "a", "h": 1}]
    for variables, diff in (
        (u, [{"from": "a", "to": "b", "poly": "1"}]),
        (u, [{"from": "b", "to": "a", "poly": "u"}]),
        (u + [{"name": "v", "unit": "1"}], []),
        (u, [{"from": "a", "to": "z", "poly": "1"}]),
        (u, [{"from": "b", "to": "a", "poly": "1"}]),
    ):
        doc = {"variables": variables, "generators": twice, "diff": diff}
        with pytest.raises(ValueError, match="^duplicate generator ids$"):
            load_complex(doc)
    doc = {"variables": u, "generators": twice, "diff": [{"from": "a", "to": "b", "poly": "w"}]}
    with pytest.raises(KeyError, match="unknown variable 'w'"):
        load_complex(doc)
    for variables in (u, u + [{"name": "v", "unit": "1"}]):
        doc = {"variables": variables, "generators": twice, "convention": "x",
               "diff": [{"from": "a", "to": "b", "poly": "1"}]}
        with pytest.raises(ValueError, match="^unknown convention 'x'$"):
            load_complex(doc)
    built = []
    columns = serde._diff_columns
    monkeypatch.setattr(serde, "_diff_columns",
                        lambda entries, vs, order, *rest: built.append(order)
                        or columns(entries, vs, order, *rest))
    cx, _, _ = load_complex({"variables": u, "generators": twice[:2],
                             "diff": [{"from": "a", "to": "b", "poly": "1"}]})
    assert cx.ids == ["a", "b"] and cx.order == {"a": 0, "b": 1} and cx.order is built[0]


def id_keyed(doc, monkeypatch):
    """load_complex(doc) off the id-keyed route alone: the constructor that
    sums repeated entries and checks each one against its degree."""
    with monkeypatch.context() as m:
        m.setattr(serde, "_diff_columns", lambda *args: None)
        return load_complex(doc)


def same_complex(got, want):
    """The two load_complex results hold the same complex: ids, grades,
    levels, and each column's entries in the same order."""
    (cx, levels, actions), (ref, ref_levels, ref_actions) = got, want
    assert cx.ids == ref.ids and cx.h == ref.h and cx.q == ref.q and cx.alex2 == ref.alex2
    assert [list(col.items()) for col in cx.cols] == [list(col.items()) for col in ref.cols]
    assert (cx.convention, cx.pairs, levels, actions) == (
        ref.convention, ref.pairs, ref_levels, ref_actions)
    assert cx.on_degree and ref.on_degree


def test_load_complex_reads_the_diff_as_the_id_keyed_route(monkeypatch):
    """The diff read in one batch gives the id-keyed route's complex, entry
    order included, on cube dumps and floer documents (with and without
    alex2), their entries and generators shuffled, ids and texts given as
    numbers or not; no text is parsed twice, and the id-keyed route is not
    taken."""
    from test_spectral import alex2_planted_sums
    from test_spectral_hard import planted_sums

    docs = [dump_complex(cc.complex, cc.levels) for cc in (
        kh.ckh(kh.parse_pd("PD[X(1,3,2,4),X(3,1,4,2)]")), kh.ckh(kh.cyclic_knot(5)))]
    docs += [dump_complex(fc.base, fc.levels) for fc, _ in list(planted_sums())[:6]]
    docs += [dump_complex(fc.base, fc.levels) for fc in list(alex2_planted_sums())[:6]]
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
    by_ids, parses = [], []
    keyed, parse = serde._diff_by_ids, serde.parse_poly
    monkeypatch.setattr(serde, "_diff_by_ids", lambda *args: by_ids.append(1) or keyed(*args))
    monkeypatch.setattr(serde, "parse_poly", lambda vs, text: parses.append(text) or parse(vs, text))
    numbers = 0
    for doc in docs:
        del parses[:], by_ids[:]
        got = load_complex(doc)
        assert by_ids == []
        assert sorted(parses) == sorted({str(e["poly"]) for e in doc["diff"]})
        same_complex(got, id_keyed(doc, monkeypatch))
        numbers += any(type(e["poly"]) is int for e in doc["diff"])
    assert numbers == 2  # the two cube dumps hold the text "1"


def test_load_complex_takes_the_id_keyed_route_for_the_rest(monkeypatch):
    """A repeated entry, an unknown id, a non-object entry and an entry with
    a key missing, anywhere in the diff, give the id-keyed route's complex
    or its message."""
    u = [{"name": "u", "unit": "1/2"}]
    gens = [{"id": "a", "h": 1}, {"id": "b", "h": 1}, {"id": "c", "h": 1}]
    ab, ac = {"from": "a", "to": "b", "poly": "u"}, {"from": "a", "to": "c", "poly": "u"}
    for diff in ([ab, ab], [ab, ac, ab], [ab, ab, ab], [ac, {"from": "a", "to": "b", "poly": "0"}]):
        doc = {"variables": u, "generators": gens, "diff": diff}
        same_complex(load_complex(doc), id_keyed(doc, monkeypatch))
    for diff, message in (
        ([ab, {"from": "a", "to": "z", "poly": "u"}], r"^entry on unknown generator \(a,z\)$"),
        ([{"from": 5, "to": "b", "poly": "u"}, ab], r"^entry on unknown generator \(5,b\)$"),
        ([ab, ["a", "c", "u"]], "^a diff entry must be a JSON object, not an array$"),
        ([ab, ac, None], "^a diff entry must be a JSON object, not null$"),
        ([{"from": "a", "to": "z", "poly": "u"}, "ab"],
         "^a diff entry must be a JSON object, not a string$"),
        ([ab, {"from": "a", "poly": "u"}], "^a diff entry has no 'to'$"),
        ([ab, ab, {"to": "b", "poly": "u"}], "^a diff entry has no 'from'$"),
        ([{"from": "a", "to": "b", "poly": "1"}], "^inhomogeneous differential entry a -> b: 1$"),
    ):
        doc = {"variables": u, "generators": gens, "diff": diff}
        for load in (load_complex, lambda doc: id_keyed(doc, monkeypatch)):
            with pytest.raises(ValueError, match=message):
                load(doc)
    for poly in (["u"], True, None):  # a text that is not a string is parsed as its str
        doc = {"variables": u, "generators": gens, "diff": [ab, {"from": "a", "to": "c", "poly": poly}]}
        with pytest.raises(KeyError, match="unknown variable"):
            load_complex(doc)
