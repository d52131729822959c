"""JSON input formats for complexes, diagrams, and page/target specs."""

from __future__ import annotations

import json
import os
from operator import itemgetter, length_hint
from typing import Any

from .complexes import CONV_FLOER, CONV_KH, ChainComplex, _lifter
from .infer import PageSpec, TargetSpec, Tower
from .khovanov import LinkDiagram
from .poly import FULL, HALF, Poly, VarSet, parse_poly

UNIT_NAMES = {"1": FULL, "1/2": HALF, "0.5": HALF}
UNIT_TEXT = {FULL: "1", HALF: "1/2"}


_JSON_KINDS = {dict: "an object", list: "an array", str: "a string",
               bool: "a boolean", int: "a number", float: "a number",
               type(None): "null"}


def _kind(val: Any) -> str:
    return _JSON_KINDS.get(type(val), type(val).__name__)


def _object(val: Any, what: str) -> dict[str, Any]:
    if not isinstance(val, dict):
        raise ValueError("%s must be a JSON object, not %s" % (what, _kind(val)))
    return val


def _array(val: Any, what: str) -> list | tuple:
    if not isinstance(val, (list, tuple)):
        raise ValueError("%s must be a JSON array, not %s" % (what, _kind(val)))
    return val


def _field(obj: dict[str, Any], key: str, what: str) -> Any:
    if key not in obj:
        raise ValueError("%s has no %r" % (what, key))
    return obj[key]


def _int(val: Any, what: str, least: float = float("-inf")) -> int:
    """An int, an integral float or a string of digits as an int, refused
    below least; a bool or a fractional float is refused, not truncated."""
    if type(val) in (int, str) or type(val) is float and val.is_integer():
        try:
            num = int(val)
        except ValueError:
            pass
        else:
            if num >= least:
                return num
            raise ValueError("%s must be at least %d, not %r" % (what, least, val))
    raise ValueError("%s must be an integer, not %r" % (what, val))


def load_complex(doc: dict[str, Any]):
    """(complex, levels or None, raw action specs) from the JSON format."""
    doc = _object(doc, "a complex")
    names, units = [], []
    for v in _array(doc.get("variables", []), "'variables'"):
        v = _object(v, "a variable")
        name = str(_field(v, "name", "a variable"))
        unit = str(v.get("unit", "1/2"))
        if unit not in UNIT_NAMES:
            raise ValueError("unknown unit %r of variable %r (expected one of %s)"
                             % (unit, name, ", ".join(sorted(UNIT_NAMES))))
        names.append(name)
        units.append(UNIT_NAMES[unit])
    vs = VarSet(tuple(names), tuple(units))
    ids, hs, qs, alexes, levels = [], [], [], [], {}  # by position; levels by id
    for g in _array(doc.get("generators", []), "'generators'"):
        if type(g) is not dict:
            _object(g, "a generator")
        try:
            gid, h = g["id"], g["h"]
        except KeyError:
            _field(g, "h", "generator %r" % str(_field(g, "id", "a generator")))
        gid = gid if type(gid) is str else str(gid)
        q, alex2 = g.get("q"), g.get("alex2")
        # a message is spelled only when its check fails
        ids.append(gid)
        hs.append(h if type(h) is int else _int(h, "generator %r h" % gid))
        qs.append(q if q is None or type(q) is int else _int(q, "generator %r q" % gid))
        alexes.append(alex2 if alex2 is None or type(alex2) is int
                      else _int(alex2, "generator %r alex2" % gid))
        if "filtration" in g:
            level = g["filtration"]
            levels[gid] = level if type(level) is int else _int(level, "generator %r filtration" % gid)
    convention = doc.get("convention")
    if convention is None:
        convention = CONV_FLOER if qs.count(None) == len(qs) else CONV_KH
    entries = _array(doc.get("diff", []), "'diff'")
    order = {g: i for i, g in enumerate(ids)}  # the one id -> position dict
    cols, unknown = _diff_columns(entries, vs, order, len(ids))
    pairs = {str(k): tuple(_array(v, "pair %r" % k))
             for k, v in _object(doc.get("pairs", {}), "'pairs'").items()}
    # handed the id -> position dict, the complex does not index the ids again; its
    # own checks come before an unknown generator, and the degree check after it
    cx = ChainComplex.from_columns(vs, ids, hs, qs, alexes, cols, convention, pairs,
                                   check=unknown is None, order=order)
    if unknown is not None:
        raise ValueError("entry on unknown generator (%s,%s)" % unknown)
    lv = None
    if levels:
        if len(levels) != len(ids):
            raise ValueError("filtration present on only some generators")
        lv = levels
        level = [lv[g] for g in ids]
        if any(cx.cols) and all(level[j] < level[i] for i, col in enumerate(cx.cols)
                                for j in col):
            lv = {g: -x for g, x in lv.items()}  # re-index decreasing inputs
    return cx, lv, doc.get("actions", [])


def _diff_columns(entries: list | tuple, vs: VarSet, order: dict[str, int],
                  n: int) -> tuple[list[dict[int, Any]], tuple[str, str] | None]:
    """The 'diff' array read once, in order, into the columns that
    ``ChainComplex.from_columns`` takes (the u exponent over at most one
    variable, the Poly over several), and the (source id, target id) of the
    first entry that names no generator, or None.  Ids and texts that are
    not strings are read as their str, each distinct text is parsed once,
    and a malformed entry or text raises in order.  The inner loop takes an
    entry whose ids are known and whose text is a string seen before as
    one monomial (any nonzero one over several variables), and stops on any
    other, read below it.  A place given more than once or not as one
    monomial keeps a running sum, to which each of its entries is added as it
    is read, and the sum goes in the place of its first entry at the end: a
    zero sum is dropped, and a one-variable sum of several powers stays a
    Poly, which the degree check refuses."""
    cols: list[dict[int, Any]] = [{} for _ in range(n)]
    known: dict[str, Any] = {}  # a text that is one monomial -> its column entry
    parsed: dict[str, Poly] = {}  # a text -> its polynomial
    sums: dict[tuple[int, int], frozenset] = {}  # a place summed -> the terms of its sum so far
    unknown, zero, lift = None, Poly.zero(vs), _lifter(vs)

    def add(i: int, j: int, e: Any) -> None:
        """Add entry e to the running sum of place (i, j), begun at its first entry."""
        terms = sums.get((i, j))
        if terms is None:
            first = cols[i][j]
            terms = first.terms if type(first) is Poly else lift(first).terms
        sums[i, j] = terms ^ (e.terms if type(e) is Poly else lift(e).terms)
    get, it = itemgetter("from", "to", "poly"), iter(entries)
    while True:
        try:
            for src, tgt, text in map(get, it):
                i, j, e = order.get(src), order.get(tgt), known.get(text)
                if i is None or j is None or e is None:
                    break
                col = cols[i]
                if j in col:
                    add(i, j, e)
                else:
                    col[j] = e
            else:
                break
        except (TypeError, KeyError):  # not an object, a key missing, or a value unhashable
            pass
        e = entries[len(entries) - length_hint(it) - 1]  # the entry the loop stopped on
        if type(e) is not dict:
            _object(e, "a diff entry")
        try:
            src, tgt, text = e["from"], e["to"], e["poly"]
        except KeyError:
            for key in ("from", "to", "poly"):
                _field(e, key, "a diff entry")
        src, tgt, key = str(src), str(tgt), str(text)
        p = parsed.get(key)
        if p is None:
            p = parsed[key] = parse_poly(vs, key)
        i, j = order.get(src), order.get(tgt)
        if i is None or j is None:
            unknown = unknown or (src, tgt)
        elif j in cols[i] or len(p.terms) != 1 and (vs.n <= 1 or not p):
            cols[i].setdefault(j, zero)  # the place, kept for the sum
            add(i, j, p)
        else:
            cols[i][j] = known[key] = p if vs.n > 1 else sum(next(iter(p.terms)))
    for (i, j), terms in sums.items():
        if not terms:
            del cols[i][j]
        else:
            cols[i][j] = sum(next(iter(terms))) if vs.n <= 1 and len(terms) == 1 else Poly(vs, terms)
    return cols, unknown


def dump_complex(cx: ChainComplex, levels: dict[str, int] | None = None) -> dict:
    doc: dict[str, Any] = {
        "variables": [
            {"name": n, "unit": UNIT_TEXT[u]}
            for n, u in zip(cx.vars.names, cx.vars.units)
        ],
        "convention": cx.convention,
        "generators": [],
        "diff": [],
    }
    if cx.pairs:
        doc["pairs"] = {k: list(v) for k, v in sorted(cx.pairs.items())}
    for g in cx.gens:
        row: dict[str, Any] = {"id": g.gid, "h": g.h}
        if g.q is not None:
            row["q"] = g.q
        if g.alex2 is not None:
            row["alex2"] = g.alex2
        if levels is not None:
            row["filtration"] = levels[g.gid]
        doc["generators"].append(row)
    for (src, tgt), p in sorted(cx.diff.items()):
        doc["diff"].append({"from": src, "to": tgt, "poly": str(p)})
    return doc


def load_diagram(doc: dict[str, Any]) -> LinkDiagram:
    doc = _object(doc, "a diagram")
    if "basepoints" in doc:
        raise ValueError("'basepoints' is not read from a diagram: give the reduced"
                         " flavor's arc with --basepoint")
    crossings = tuple(
        tuple(_int(x, "an arc label") for x in _array(c, "a crossing"))
        for c in _array(doc.get("crossings", []), "'crossings'")
    )
    return LinkDiagram(crossings, _int(doc.get("free_loops", 0), "'free_loops'"))


def load_page_spec(doc: dict[str, Any]) -> PageSpec:
    doc = _object(doc, "a page spec")
    towers = []
    for t in _array(doc.get("towers", []), "'towers'"):
        t = _object(t, "a tower")
        name = str(_field(t, "name", "a tower"))
        what = "tower %r" % name
        order = t.get("order")
        towers.append(
            Tower(name, _int(_field(t, "h", what), what + " h"),
                  _int(_field(t, "q", what), what + " q"),
                  order if order is None else _int(order, what + " order"))
        )
    return PageSpec(tuple(towers))


def load_target_spec(doc: dict[str, Any]) -> TargetSpec:
    doc = _object(doc, "a target spec")
    anchors = None
    if doc.get("anchors") is not None:
        anchors = []
        for a in _array(doc["anchors"], "'anchors'"):
            if not isinstance(a, (list, tuple)) or len(a) < 3:
                raise ValueError("an anchor must be a JSON array [h, q, order]")
            anchors.append((_int(a[0], "an anchor h"), _int(a[1], "an anchor q"),
                            None if a[2] is None else _int(a[2], "an anchor order", 1)))
        anchors = tuple(anchors)
    basis = tuple(str(b) for b in _array(doc.get("basis", []), "'basis'"))
    for i, b in enumerate(basis):
        if b in basis[:i]:
            raise ValueError("basis name %r appears twice in 'basis'" % b)
    actions = {}
    for name, entries in _object(doc.get("actions", {}), "'actions'").items():
        mat = {}
        for e in _array(entries, "action %r" % name):
            if not isinstance(e, (list, tuple)) or len(e) < 2:
                raise ValueError("an entry of action %r must be a [row, column] pair" % name)
            row, col = str(e[0]), str(e[1])
            for b in (row, col):
                if b not in basis:
                    raise ValueError("entry [%r, %r] of action %r names %r, which is not "
                                     "in 'basis'" % (row, col, name, b))
            mat[(row, col)] = 1
        actions[str(name)] = mat
    return TargetSpec(
        _int(doc.get("free_rank", 0), "'free_rank'", 0),
        tuple(_int(k, "a torsion order", 1) for k in _array(doc.get("torsion", []), "'torsion'")),
        anchors,
        basis,
        actions,
    )


# The largest JSON file read, checked before parsing (json.load holds several
# times a document's size): a dump of the T(2,11) minus cube is 54 MB, of the
# cyclic_knot(13) cube 10.7 MB, and the dense 3 x 300 floer document 8.7 MB.
MAX_JSON_BYTES = 1 << 26


def read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size > MAX_JSON_BYTES:
            raise ValueError("%s has %d bytes, above the limit of %d" % (path, size, MAX_JSON_BYTES))
        return json.load(fh)
