"""Bigraded chain complexes over F2[u1..um] and chain maps between them.

Two grading conventions coexist:

* ``floer``: the differential drops h by 1 and each half-unit variable
  power also drops h by 1; generators may carry a mod-2 alexander grading
  that the differential preserves (variables flip it per half power).
* ``kh``: the differential raises h by 1 and preserves q; a half-unit
  variable power drops q by 2 (a full unit by 4) and leaves h alone.

Complexes are immutable after construction and all operations are pure.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain, repeat
from math import comb
from operator import xor
from typing import Any, Callable, Container, Iterator, Mapping, Sequence

from . import gf2
from .poly import Poly, VarSet
from .umod import MonoVec, ModuleDecomposition, Summand, _replay, eliminate, vec_add_shifted

CONV_FLOER = "floer"
CONV_KH = "kh"

# Input size limits; both are checked before any expensive work.  The largest
# cube khovanov.ckh builds: a 13-crossing cube (cyclic_knot(13), 16383 minus
# generators) takes about 0.1 s to build as bitsets and 0.01 s for khovanov.khr
# to read its 431 towers off them; `kh --flavor minus` runs in about 0.3-0.45 s
# end to end, in about 26 MB (2-vCPU VM, Python 3.11).  Each further crossing
# doubles the vertices, and a 30-crossing diagram would enumerate 2^30 states.
# A free loop doubles the generators of every vertex, so ckh counts crossings
# plus free loops against it.
MAX_CUBE_VERTICES = 1 << 13
# The most slots an Expansion holds.  The spectral window of the minus cube of
# cyclic_knot(9) has 17142 slots, of cyclic_knot(11) 70647 and of
# cyclic_knot(13) 307191; cyclic_knot(9) with four kinks, 1940922.  A floer
# document with generators at h = 0 and h = N has about 3N.  `ss` holds the
# unreduced window to it before cancelling the jump-1 units (which leaves
# 356 slots of the cyclic_knot(9) window), so the cancellation admits and
# refuses the same inputs, and the add-back of the cancelled pairs stays
# bounded by it too.  `ss` counts the whole window but builds only its top,
# down to the first u-periodic block of each grade class
# (spectral.FilteredComplex.expansion).
MAX_EXPANSION_SLOTS = 1 << 21
# The most generators a cube holds, counted from its resolved states first:
# T(2,11) has 88575 minus generators, T(2,13) 797163 (its reduced table took
# 66 s and 3.2 GB).
MAX_CUBE_GENERATORS = 1 << 18


@dataclass(frozen=True)
class Generator:
    gid: str
    h: int
    q: int | None = None
    alex2: int | None = None


MatrixEntries = Mapping[tuple[str, str], Poly]
# A differential by source position: cols[i] maps the position of each target
# of generator i to the entry, its u exponent over at most one variable (0
# over none) and its Poly over several.
Columns = list[dict[int, Any]]


class ChainComplex:
    """Finitely generated complex over F2[vars] held by position: grade arrays
    ``h`` and ``q`` (kh) or ``alex2`` (floer, or None), and the differential
    in ``cols``, each source's entries in the order first given.  ``ids``
    (a given list, or spelled by a given function), ``gens``, ``order`` and
    ``diff`` (keyed by ids) are views spelled on first use.

    The constructor takes the differential keyed by (source id, target id)
    and drops its zero entries.  check=True raises ValueError on the first
    entry, in order, that is off degree or on an unknown generator; without
    it an unknown generator or a one-variable entry that is not a single
    monomial still raises, and no entry off degree is looked for.
    ``on_degree`` records that a check found every entry on degree.
    """

    def __init__(self, vars: VarSet, gens: Sequence[Generator], diff: MatrixEntries,
                 convention: str = CONV_FLOER,
                 pairs: Mapping[str, tuple[str, ...]] | None = None,
                 check: bool = True) -> None:
        self.gens = gens = tuple(gens)
        self._set_gens(vars, [g.gid for g in gens], [g.h for g in gens], [g.q for g in gens],
                       [g.alex2 for g in gens], convention, pairs)
        self.cols = _columns(self, self, diff, self._degree_codes() if check else None)
        self.on_degree = check

    @classmethod
    def from_columns(cls, vars: VarSet, ids: list[str] | Callable[[], list[str]],
                     h: list[int], q: list | None, alex2: list | None, cols: Columns,
                     convention: str = CONV_FLOER,
                     pairs: Mapping[str, tuple[str, ...]] | None = None,
                     check: bool = True,
                     order: dict[str, int] | None = None) -> "ChainComplex":
        """The complex of its ids (a list, or a function that spells one),
        grade arrays and columns in the ``cols`` layout, kept; check=True
        raises the id-keyed constructor's ValueError on the first entry off
        degree, by source position.  order, when given, is the list's id ->
        position dict, already built by the caller."""
        cx = cls.__new__(cls)
        cx._set_gens(vars, ids, h, q, alex2, convention, pairs, order)
        cx.cols = cols
        if check and (bad := cx._off_degree()) is not None:
            i, j = bad
            e = cols[i][j]
            raise ValueError("inhomogeneous differential entry %s -> %s: %s"
                             % (cx.ids[i], cx.ids[j], e if type(e) is Poly else _lifter(vars)(e)))
        cx.on_degree = check
        return cx

    def _set_gens(self, vars: VarSet, ids, h: list[int], q: list | None, alex2: list | None,
                  convention: str, pairs: Mapping[str, tuple[str, ...]] | None,
                  order: dict[str, int] | None = None) -> None:
        # a grade no generator has is None; a speller's ids are unique by construction
        if convention not in (CONV_FLOER, CONV_KH):
            raise ValueError("unknown convention %r" % convention)
        self.vars, self.convention, self.h = vars, convention, h
        if callable(ids):
            self._spell = ids
        else:
            if order is None:
                order = {g: i for i, g in enumerate(ids)}
            self.ids, self.order = ids, order
            if len(self.order) != len(ids):
                raise ValueError("duplicate generator ids")
        q, alex2 = (None if x is None or x.count(None) == len(x) else x for x in (q, alex2))
        # one grade tuple shape per complex, so a grade names one block
        if convention == CONV_KH:
            if None in (q := q or [None] * len(h)):
                raise ValueError("kh-convention generator %r has no q" % self.ids[q.index(None)])
        elif alex2 is not None and None in alex2:
            raise ValueError("alex2 is given on some generators but not all")
        self.q, self.alex2 = q, alex2
        self.pairs = dict(pairs or {})
        for pid, names in self.pairs.items():
            for n in names:
                vars.index(n)

    def _degree_codes(self) -> tuple[list, list[int], int]:
        return _grade_codes(self, self, -1 if self.convention == CONV_FLOER else 1, 0, 0)

    def _off_degree(self) -> tuple[int, int] | None:
        """(source, target) position of the first column entry, by source
        position, that is off degree; None if every entry is on it.  An
        exponent drops h by the unit times itself, a Poly over several
        variables by the drop its terms share (found once per set of terms);
        one with none, or a one-variable Poly (a sum of powers), fails by a
        TypeError."""
        val, want, step = self._degree_codes()
        cols, vs = self.cols, self.vars
        if vs.n > 1:  # an entry's terms -> their common h drop
            drops = {t: ds.pop() if len(ds := {vs.h_drop(m) for m in t}) == 1 else None
                     for t in {p.terms for col in cols for p in col.values()}}
            cols = [{j: drops[p.terms] for j, p in col.items()} for col in cols]
        else:
            step *= vs.units[0] if vs.n else 0
        try:
            for i, col in enumerate(cols):
                w = want[i]
                for j, e in col.items():
                    if val[j] != w + step * e:
                        return i, j
        except TypeError:
            return i, j
        return None

    ids = cached_property(lambda self: self._spell())  # unless given as a list
    order = cached_property(lambda self: {g: i for i, g in enumerate(self.ids)})

    @cached_property
    def gens(self) -> tuple[Generator, ...]:
        none = repeat(None)
        return tuple(map(Generator, self.ids, self.h, self.q or none, self.alex2 or none))

    @cached_property
    def diff(self) -> dict[tuple[str, str], Poly]:
        """The differential keyed by (source id, target id), source by
        source, for output, ``tensor``, ``substitute`` and ``phi_action``."""
        gids, lift = self.ids, _lifter(self.vars)
        return {(src, gids[j]): lift(e) for src, col in zip(gids, self.cols)
                for j, e in col.items()}

    # -- basic access ---------------------------------------------------------

    def gen(self, gid: str) -> Generator:
        return self.gens[self.order[gid]]

    @property
    def n(self) -> int:
        return len(self.h)

    def grade_at(self, i: int, u: bool = False) -> tuple[int, ...]:
        """The grade of the generator at position i; with u, the integer
        grading tuple that u shifts linearly (no mod-2 part)."""
        if self.convention == CONV_KH:
            return (self.h[i], self.q[i])
        return (self.h[i],) if u or self.alex2 is None else (self.h[i], self.alex2[i])

    def ustep(self) -> tuple[int, ...]:
        """Per-power grade drop of the unique variable."""
        if self.vars.n != 1:
            raise ValueError("ustep needs a one-variable complex")
        unit = self.vars.units[0]
        if self.convention == CONV_KH:
            return (0, 2 * unit)
        return (unit,)

    def verify_d2(self) -> list[tuple[str, str, Poly]]:
        """Nonzero entries of the squared differential (empty means pass), by
        source in generator order, then by target id.

        Over at most one variable, when every entry is on degree, the power
        of u on a 2-path s -> m -> t is fixed by the grades of s and t: the
        slice value (q in kh, h in floer) moves by the unit times the
        exponent, and the unit is at least 1.  So d^2(s, t) is that power
        times the parity of the 2-paths from s to t.  Each column is a
        bitset over its targets' h-level (one level in kh, where every
        target sits at h + 1; one bitset per target level in floer), and a
        source XORs the columns of its middle generators: the cost is the
        entries times the machine words of a level, not the 2-paths.  Over
        several variables, or with an entry off degree (only check=False
        builds one, so only those complexes are scanned for it), it is
        ``_compose`` of the columns with themselves.
        """
        if self.vars.n <= 1 and (self.on_degree or self._off_degree() is None):
            return self._d2_by_parity()
        return _rows(self, self, _compose(self, [(self.cols, self.cols)]))

    def _d2_by_parity(self) -> list[tuple[str, str, Poly]]:
        """verify_d2 of a complex over at most one variable whose entries are
        all on degree."""
        hs, cols, kh = self.h, self.cols, self.convention == CONV_KH
        place, levels = [], {}  # a generator's bit number in its h-level; level -> its generators
        for i, h in enumerate(hs):
            lv = levels.setdefault(h, [])
            place.append(len(lv))
            lv.append(i)
        odd = []  # (source, level, bitset of its targets there with an odd count), by source
        if kh:  # every target sits at h + 1: a column is one int
            rows = [sum([1 << place[j] for j in col]) for col in cols]
            for i, col in enumerate(cols):
                if col and (bits := reduce(xor, map(rows.__getitem__, col))):
                    odd.append((i, hs[i] + 2, bits))
        else:  # one int per target level
            by_level: list[dict[int, int]] = []
            for col in cols:
                row: dict[int, int] = {}
                for j in col:
                    row[hs[j]] = row.get(hs[j], 0) | 1 << place[j]
                by_level.append(row)
            for i, col in enumerate(cols):
                acc: dict[int, int] = {}
                for m in col:
                    for h, bits in by_level[m].items():
                        acc[h] = acc.get(h, 0) ^ bits
                odd += [(i, h, bits) for h, bits in acc.items() if bits]
        # the exponent of u from s to t: in kh q rises by 2 unit per power and d
        # keeps it; in floer h rises by unit per power and each step of d drops it by 1
        unit = self.vars.units[0] if self.vars.n else 1
        vals, back, scale = (self.q, 0, 2 * unit) if kh else (hs, 2, unit)
        ids, by_src = self.ids, {}
        for i, h, bits in odd:
            lv, tgts = levels[h], by_src.setdefault(i, [])
            while bits:
                low = bits & -bits
                t = lv[low.bit_length() - 1]
                tgts.append((ids[t], (vals[t] - vals[i] + back) // scale))
                bits ^= low
        lift = _lifter(self.vars)
        return [(ids[i], tgt, lift(e)) for i, tgts in by_src.items() for tgt, e in sorted(tgts)]


# -- matrix helpers over Poly -------------------------------------------------


def _lifter(vs: VarSet) -> Callable[[Any], Poly]:
    """The Poly of a column entry: u^e over at most one variable (1 over
    none), one shared Poly per exponent; the entry itself over several."""
    if vs.n > 1:
        return lambda p: p
    polys: dict[int, Poly] = {}

    def lift(e: int) -> Poly:
        p = polys.get(e)
        if p is None:
            p = polys[e] = Poly.var(vs, vs.names[0], e) if vs.n else Poly.one(vs)
        return p
    return lift


def _compose(cx: ChainComplex,
             products: Sequence[tuple[Columns, Columns]]) -> list[dict[int, Poly]]:
    """The columns, by source position, of the sum of (second after first)
    over the pairs (second, first) of columns in the ``cols`` layout of cx's
    variables; zero entries are dropped.  Each entry is lifted to its Poly,
    and each distinct pair of entries is multiplied once.  Exact for any
    input, homogeneous or not."""
    lift, vs = _lifter(cx.vars), cx.vars
    prods: dict[tuple, frozenset] = {}  # (first entry, second entry) -> terms of the product
    out = []
    for i in range(len(products[0][1])):
        acc: dict[int, frozenset] = {}  # target -> terms so far
        for second, first in products:
            for m, e in first[i].items():
                for t, f in second[m].items():
                    p = prods.get((e, f))
                    if p is None:
                        p = prods[e, f] = (lift(e) * lift(f)).terms
                    acc[t] = acc[t] ^ p if t in acc else p
        out.append({t: Poly(vs, p) for t, p in acc.items() if p})
    return out


def _rows(source: ChainComplex, target: ChainComplex,
          cols: list[dict[int, Poly]]) -> list[tuple[str, str, Poly]]:
    """Columns as (source id, target id, Poly) rows, by source position,
    then by target id."""
    sids, tids = source.ids, target.ids
    return [(sids[i], tid, p) for i, col in enumerate(cols)
            for tid, p in sorted((tids[j], p) for j, p in col.items())]


def _grade_codes(source: ChainComplex, target: ChainComplex,
                 dh: int, dq: int, dalex: int) -> tuple[list, list[int], int]:
    """(val, want, step): an entry i -> j whose terms all drop h by d moves h
    by dh and q by dq (kh), or alex2 by dalex mod 2 (floer, where every
    generator of both has one), after the drop of its terms, iff val[j] ==
    want[i] + d * step.

    kh packs (q, h) as q * k + h, with k wider than any h gap the test can
    meet, so the sum matches only if both parts do.  floer packs (h, alex2 -
    h mod 2) as 2h + bit: h moves by dh + d and alex2 by dalex - d, so the
    bit flips by dalex - dh whatever d is.
    """
    if source.convention == CONV_KH:
        hs = source.h + target.h
        k = max(hs, default=0) - min(hs, default=0) + abs(dh) + 1
        return ([q * k + h for q, h in zip(target.q, target.h)],
                [(q + dq) * k + h + dh for q, h in zip(source.q, source.h)], 2 * k)
    if source.alex2 is None or target.alex2 is None:
        return [2 * h for h in target.h], [2 * (h + dh) for h in source.h], 2
    flip = (dalex - dh) % 2
    return ([2 * h + (a - h) % 2 for h, a in zip(target.h, target.alex2)],
            [2 * (h + dh) + (a - h + flip) % 2 for h, a in zip(source.h, source.alex2)], 2)


def _columns(source: ChainComplex, target: ChainComplex, entries: MatrixEntries,
             codes=None, is_map: bool = False) -> Columns:
    """Columns by source position of id-keyed entries, zero entries dropped:
    the u exponent over at most one variable, the Poly over several.

    Given ``_grade_codes``, each entry is checked in order to sit on degree:
    its terms must all drop h alike, so the drop is found once per distinct
    set of terms and an entry costs one integer comparison.  An entry off
    degree raises ValueError; one on an unknown generator, ValueError in a
    complex and KeyError in a map.  Without codes, a one-variable entry that
    is not a single monomial raises ValueError.
    """
    vs = source.vars
    cols: Columns = [{} for _ in source.h]
    known: dict[frozenset, tuple] = {}  # an entry's terms -> (column entry, h drop)
    val, want, step = codes or (None, None, 0)
    s_order, t_order = source.order, target.order
    for (src, tgt), p in entries.items():
        i, j = s_order.get(src, src), t_order.get(tgt, tgt)  # an unknown id stays as it is
        terms = p.terms
        if not terms:
            continue
        if type(i) is not int or type(j) is not int:
            if is_map:
                raise KeyError(i if type(i) is not int else j)
            raise ValueError("entry on unknown generator (%s,%s)" % (
                i if type(i) is not int else source.ids[i],
                j if type(j) is not int else target.ids[j]))
        k = known.get(terms)
        if k is None:
            ds = {vs.h_drop(m) for m in terms}
            d = ds.pop() if len(ds) == 1 else None
            if vs.n > 1:
                k = known[terms] = (p, d)
            else:  # () or (e,): the exponent of a single monomial
                k = known[terms] = (sum(next(iter(terms))) if d is not None else None, d)
        entry, d = k
        if codes is not None and (d is None or val[j] != want[i] + d * step):
            raise ValueError(("map entry %s -> %s off degree (%s)" if is_map else
                              "inhomogeneous differential entry %s -> %s: %s")
                             % (source.ids[i], target.ids[j], p))
        if entry is None:
            raise ValueError("inhomogeneous entry %s -> %s: %s"
                             % (source.ids[i], target.ids[j], p))
        cols[i][j] = entry
    return cols


class ChainMap:
    """A graded map between complexes over the same variable universe,
    held as columns by source position in the ``ChainComplex.cols`` layout;
    ``entries`` is the id-keyed input as given.  check=True raises
    ValueError on the first entry, in order, that is off degree; with it
    or without, an unknown generator raises KeyError and a one-variable
    entry that is not a single monomial ValueError."""

    def __init__(
        self,
        source: ChainComplex,
        target: ChainComplex,
        entries: MatrixEntries,
        dh: int = 0,
        dq: int | None = None,
        dalex: int = 0,
        check: bool = True,
    ) -> None:
        if source.vars != target.vars:
            raise ValueError("chain map across different variable universes")
        self.source = source
        self.target = target
        self.entries = entries
        self.cols = _columns(source, target, entries,
                             _grade_codes(source, target, dh, dq or 0, dalex) if check else None,
                             True)

    def anticommutator(self) -> list[tuple[str, str, Poly]]:
        """Nonzero entries of M d + d M, spelled as ``verify_d2`` spells d^2."""
        s, t = self.source, self.target
        return _rows(s, t, _compose(s, [(self.cols, s.cols), (t.cols, self.cols)]))


# -- constructions --------------------------------------------------------------


def tensor(c1: ChainComplex, c2: ChainComplex) -> ChainComplex:
    """Tensor product over the shared ground ring; gradings add.  The
    generator of g1 and g2 is named g1*g2."""
    if c1.vars != c2.vars:
        raise ValueError("tensor factors over different variable universes")
    if c1.convention != c2.convention:
        raise ValueError("tensor factors with different conventions")
    gens: list[Generator] = []
    for g1 in c1.gens:
        for g2 in c2.gens:
            q = None if g1.q is None or g2.q is None else g1.q + g2.q
            a = (
                None
                if g1.alex2 is None or g2.alex2 is None
                else (g1.alex2 + g2.alex2) % 2
            )
            gens.append(Generator(g1.gid + "*" + g2.gid, g1.h + g2.h, q, a))
    diff: dict[tuple[str, str], Poly] = {}
    for (src, tgt), p in c1.diff.items():
        for g2 in c2.gens:
            diff[(src + "*" + g2.gid, tgt + "*" + g2.gid)] = p
    for (src, tgt), p in c2.diff.items():
        for g1 in c1.gens:
            key = (g1.gid + "*" + src, g1.gid + "*" + tgt)
            cur = diff.get(key)
            acc = p if cur is None else cur + p
            if acc:
                diff[key] = acc
            else:  # two loops that cancel
                del diff[key]
    pairs = dict(c1.pairs)
    pairs.update(c2.pairs)
    return ChainComplex(c1.vars, gens, diff, c1.convention, pairs, check=False)


def substitute(
    cx: ChainComplex, assignment: Mapping[str, str]
) -> ChainComplex:
    """Entrywise variable-for-variable substitution."""
    units: dict[str, int] = {}  # the new variables in order of first image
    for name, unit in zip(cx.vars.names, cx.vars.units):
        new = assignment.get(name, name)
        if units.setdefault(new, unit) != unit:
            raise ValueError("unit mismatch for substitution target %r" % new)
    target = VarSet(tuple(units), tuple(units.values()))
    diff = {key: p.map_vars(target, assignment) for key, p in cx.diff.items()}
    pairs = {pid: tuple(dict.fromkeys(assignment.get(n, n) for n in names))
             for pid, names in cx.pairs.items()}
    return ChainComplex(target, cx.gens, diff, cx.convention, pairs)


def collapse_pairs(cx: ChainComplex) -> ChainComplex:
    """Identify the two variables of every declared basepoint pair p as u<p>."""
    assignment: dict[str, str] = {}
    for pid in sorted(cx.pairs):
        new = "u" + pid
        for n in cx.pairs[pid]:
            assignment[n] = new
    return substitute(cx, assignment)


def collapse_all(cx: ChainComplex) -> ChainComplex:
    """Send every variable to a single one, u (units must agree)."""
    units = set(cx.vars.units)
    if len(units) > 1:
        raise ValueError("cannot collapse mixed units to one variable")
    assignment = {n: "u" for n in cx.vars.names}
    return substitute(cx, assignment)


def phi_action(cx: ChainComplex, pair: str, side: str = "z") -> ChainMap:
    """Formal-derivative action of a basepoint pair on the complex."""
    if pair not in cx.pairs:
        raise KeyError("unknown basepoint pair %r" % pair)
    names = cx.pairs[pair]
    if side == "z":
        var = names[0]
    elif side == "w":
        var = names[-1]
    else:
        raise ValueError("side must be 'z' or 'w'")
    entries = {}
    for key, p in cx.diff.items():
        d = p.derivative(var)
        if d:
            entries[key] = d
    return ChainMap(cx, cx, entries, dh=0, dalex=1)


# -- homology -------------------------------------------------------------------


def homology_f2(cx: ChainComplex) -> dict[tuple[int, ...], int]:
    """Dimension of homology per grading of a variable-free complex.  A
    one-variable complex C is read mod u: the result is H(C/u), from its
    u^0 entries, without a copy.

    cx must square to zero (``Expansion.dims`` clears by it).  No shipped
    command calls it: ``kh`` reads the cube's own bitsets (khovanov.khr), and
    it is their reference in the tests, on cubes square-zero by construction."""
    if cx.vars.n > 1:
        raise ValueError("plain F2 homology needs at most one variable")
    return Expansion(cx).dims()


class UHomology(ModuleDecomposition):
    """Homology of a one-variable complex as a decomposed F2[u]-module.

    It is read off cancel_units run to the end: each survivor is a free
    summand at its grade, and each pair x --u^k--> y with k >= 1 a u^k
    torsion summand at y's grade; a summand's index is that generator's
    position.  The maps replay the elimination's basis changes, which a
    second run records on the first call that needs them.
    """

    def __init__(self, cx: ChainComplex) -> None:
        if cx.vars.n != 1:
            raise ValueError("u-homology needs a one-variable complex")
        self.cx = cx
        pairs: list[tuple[int, int, int]] = []
        cancel_units(cx, cancelled=pairs)
        paired = {i for x, y, _ in pairs for i in (x, y)}
        super().__init__(
            [Summand(None, cx.grade_at(i, True), i) for i in range(cx.n) if i not in paired]
            + [Summand(k, cx.grade_at(y, True), y) for _, y, k in pairs if k])
        self._positions = {s.index: i for i, s in enumerate(self.summands)}
        self._targets = {y for _, y, _ in pairs}
        self._log: list[tuple[int, int, int]] | None = None

    def _ops(self) -> list[tuple[int, int, int]]:
        if self._log is None:
            self._log = []
            cancel_units(self.cx, log=self._log)
        return self._log

    def cycle_rep(self, position: int) -> MonoVec:
        """Representative cycle (generator-space vector) of a summand: its
        generator in the final basis, taken back through the log."""
        return _replay(reversed(self._ops()), [{self.summands[position].index: 0}])[0]

    def class_coords(self, vec: MonoVec) -> dict[int, int]:
        """Coordinates of a cycle over the summand positions (ArithmeticError
        if vec is not a cycle)."""
        return next(self._classes([vec]))

    def _classes(self, vecs: list[MonoVec]) -> Iterator[dict[int, int]]:
        """Each of vecs in the final basis, over the summand positions, with
        u^k times a torsion generator and every boundary dropped."""
        for coords in _replay(self._ops(), vecs):
            row: dict[int, int] = {}
            for g, e in coords.items():
                i = self._positions.get(g)
                if i is not None:
                    if self.summands[i].free or e < self.summands[i].order:
                        row[i] = e
                elif g not in self._targets:
                    raise ArithmeticError("not a cycle: u^%d %s has a boundary"
                                          % (e, self.cx.ids[g]))
            yield row

    def induced_matrix(self, cmap: ChainMap) -> dict[tuple[int, int], int]:
        """Matrix u^e entries of an endomorphism on the summand basis.
        Raises ValueError unless d M + M d = 0, which ``_compose`` checks on
        the map's columns."""
        if cmap.source is not self.cx or cmap.target is not self.cx:
            raise ValueError("map is not an endomorphism of this complex")
        cols = cmap.cols
        if any(_compose(self.cx, [(cols, self.cx.cols), (self.cx.cols, cols)])):
            raise ValueError("not a chain map")
        reps = _replay(reversed(self._ops()), [{s.index: 0} for s in self.summands])
        images: list[MonoVec] = [{} for _ in reps]
        for img, rep in zip(images, reps):
            for slot, e in rep.items():
                vec_add_shifted(img, cols[slot], e)
        return {(pos, pos2): e for pos, row in enumerate(self._classes(images))
                for pos2, e in row.items()}


def cancel_units(cx: ChainComplex, level: Sequence[int] | None = None,
                 cancelled: list[tuple[int, int, int]] | None = None,
                 log: list[tuple[int, int, int]] | None = None) -> ChainComplex:
    """umod.eliminate on a copy of the columns of a one-variable complex: to
    the end without levels, one filtered pass with them.  The sources are
    walked against the direction of d (descending h in kh, ascending h in
    floer, in position order inside a level), so a pair cancelled at the
    top deletes its source from the columns one level down before they are
    walked, and they gain no fill-in through it.  Returns the survivors in
    their original order; no id is spelled unless it raises."""
    if cx.vars.n != 1:
        raise ValueError("cancelling units needs a one-variable complex")
    cols = {i: dict(cx.cols[i]) for i in sorted(range(cx.n), key=cx.h.__getitem__,
                                                 reverse=cx.convention == CONV_KH)}
    eliminate(cols, cx.n, level, cancelled, log, lambda i: cx.ids[i])  # on copies: it mutates them
    new = {i: k for k, i in enumerate(sorted(cols))}  # a survivor's position among them

    def pick(grades: list | None) -> list | None:  # a survivors' array
        return None if grades is None else [grades[i] for i in new]
    # the source's id list if it is spelled, else its speller: never the source itself
    ids = cx.__dict__.get("ids")
    spell = cx._spell if ids is None else lambda: ids
    return ChainComplex.from_columns(
        cx.vars, lambda: pick(spell()), pick(cx.h), pick(cx.q), pick(cx.alex2),
        [{new[t]: e for t, e in cols[i].items()} for i in new],
        cx.convention, cx.pairs, check=False)


def homology(cx: ChainComplex) -> UHomology:
    """The F2[u] decomposition of a one-variable complex, checked against
    brute-force slice dimensions (check_truncation_stability)."""
    hom = UHomology(cx)
    check_truncation_stability(hom)
    return hom


# -- the F2 expansion of a complex over F2[u1..um] ------------------------------

Grade = tuple[int, ...]


def _monomial_count(units: Sequence[int], depth: int) -> int:
    """The monomials in variables of these units whose h drop is <= depth."""
    if depth < 0:
        return 0
    if len(set(units)) <= 1:
        m = len(units)
        return comb(depth // units[0] + m, m) if m else 1
    head, rest = units[0], units[1:]
    return sum(_monomial_count(rest, depth - e * head)
               for e in range(depth // head + 1))


def expansion_size(cx: ChainComplex, floor: int | None = None) -> int:
    """The number of slots of ``Expansion(cx, floor)``, counted without them:
    per generator, the monomials whose slice drop keeps it >= floor, counted
    once per distinct slice value."""
    if floor is None:
        return cx.n
    kh = cx.convention == CONV_KH
    scale = 2 if kh else 1
    return sum(count * _monomial_count(cx.vars.units, (v - floor) // scale)
               for v, count in Counter(cx.q if kh else cx.h).items())


def check_expansion_size(cx: ChainComplex, floor: int | None) -> None:
    """Raise ValueError if ``Expansion(cx, floor)`` would hold more than
    ``MAX_EXPANSION_SLOTS`` slots; no slot is built."""
    size = expansion_size(cx, floor)
    if size > MAX_EXPANSION_SLOTS:
        raise ValueError(
            "the F2 expansion down to slice value %d has %d slots, above the"
            " limit of %d" % (floor, size, MAX_EXPANSION_SLOTS)
        )


class Expansion:
    """The F2 basis {u^m g : slice value >= floor} of a complex over F2[u1..um].

    A slot is one u^m g.  Its slice value is h in the floer convention and q
    in the kh one (``axis`` picks it out of a grade), and u^m lowers it by
    the monomial's drop.  Slots are numbered block by block, one block per
    grade in ascending order, so ``blocks[grade]`` is a range of slot
    numbers; inside a block they follow ``order`` (default: the generators'
    own order), then the monomial.  The differential maps a block into one
    block, ``lands[grade]`` (homogeneity makes it one; a block whose
    differential is zero lands nowhere).  ``cols[s]`` is the image of slot
    s as a bitset over that block, bit p for its p-th slot, or None where
    the image reaches below the floor.  Monomials are coded as integers in
    radix ``radix``, wide enough that adding an entry's monomial never
    carries.  floor may be None only over at most one variable: the slots
    are then the generators, and the differential is read mod u (a column
    holds its u^0 targets only), so the expansion is that of C/u;
    ``of_blocks`` takes one whose blocks and columns are already built.
    ``index`` (slot key -> slot) and ``grade`` (slot -> grade) are built when
    first read.  An expansion of more than ``MAX_EXPANSION_SLOTS`` slots
    raises ValueError before any is built.
    """

    def __init__(self, cx: ChainComplex, floor: int | None = None,
                 order: Sequence[int] | None = None) -> None:
        vs, n, hs, alex = cx.vars, cx.n, cx.h, cx.alex2
        if floor is None and vs.n > 1:
            raise ValueError("expanding a complex over several variables needs a floor")
        check_expansion_size(cx, floor)
        kh = cx.convention == CONV_KH
        self.cx, self.axis = cx, int(kh)
        buckets: dict[Grade, list[int]] = {}
        if floor is None:  # a slot per generator, keyed by its position
            self.radix = 2
            grades = list(zip(hs, cx.q) if kh else zip(hs, [a % 2 for a in alex]) if alex
                          else zip(hs))
            place = [0] * n  # a generator's place in its block
            for i in range(n) if order is None else order:
                blk = buckets.setdefault(grades[i], [])
                place[i] = len(blk)
                blk.append(i)
        else:
            scale = 2 if kh else 1  # slice drop per unit of a monomial's h drop
            vals = cx.q if kh else hs
            depth = max([(v - floor) // scale for v in vals], default=0)
            monos = [((), 0)]  # every monomial with h drop <= depth
            for unit in vs.units:
                monos = [(m + (e,), d + e * unit) for m, d in monos
                         for e in range((depth - d) // unit + 1)]
            monos.sort(key=lambda md: (md[1], md[0]))
            if vs.n > 1:
                entry_monos = set().union(*[p.terms for col in cx.cols for p in col.values()])
                top = max((e for m in entry_monos for e in m), default=0)
            else:
                top = max((max(col.values()) for col in cx.cols if col), default=0)
            self.radix = 2 + max((e for m, _ in monos for e in m), default=0) + top
            # a slot's key is code * n + generator, and so is a term's offset:
            # the image of the slot with key k under the term is key k - g + offset;
            # offs[g] lists them in the order of g's column (over at most one
            # variable an entry's code is its exponent)
            if vs.n > 1:
                code = {m: self.code(m) * n for m in entry_monos}
                offs = [[code[m] + j for j, p in col.items() for m in p.terms]
                        for col in cx.cols]
            else:
                offs = [[e * n + j for j, e in col.items()] for col in cx.cols]
            slots = [(self.code(m), d, vs.alex2(m)) for m, d in monos]
            for i in range(n) if order is None else order:
                h, v = hs[i], vals[i]
                for c, d, a in slots:
                    if scale * d > v - floor:
                        break
                    if kh:
                        grade: Grade = (h, v - 2 * d)
                    else:
                        grade = (h - d,) if alex is None else (h - d, (alex[i] + a) % 2)
                    blk = buckets.get(grade)
                    if blk is None:
                        blk = buckets[grade] = []
                    blk.append(c * n + i)
        keys: list[int] = []
        self.blocks: dict[Grade, range] = {}
        for grade in sorted(buckets):
            blk = buckets[grade]
            self.blocks[grade] = range(len(keys), len(keys) + len(blk))
            keys += blk
        self._keys = keys  # code * n + generator, per slot
        self.lands: dict[Grade, Grade] = {}
        if floor is None:  # a target's bit is its place in its block, u^0 targets only
            self.gen = keys
            for grade, blk in buckets.items():
                j = next((j for i in blk for j, e in cx.cols[i].items() if not e), None)
                if j is not None:
                    self.lands[grade] = grades[j]
            self.cols = [sum([1 << place[j] for j, e in cx.cols[i].items() if not e]) for i in keys]
            return
        index = dict(zip(keys, range(len(keys))))  # key -> slot, while the columns are built
        self.gen = [k % n for k in keys]
        self.cols = []
        append = self.cols.append
        for grade, blk in self.blocks.items():
            start = None
            for key, i in zip(keys[blk.start:blk.stop], self.gen[blk.start:blk.stop]):
                base, out = key - i, offs[i]
                try:
                    if start is None and out:
                        tgt = self.lands[grade] = self.grade[index[base + out[0]]]
                        start = self.blocks[tgt].start
                    append(sum(1 << (index[base + o] - start) for o in out))
                except KeyError:
                    append(None)

    @classmethod
    def of_blocks(cls, blocks: dict[Grade, range], cols: list[int],
                  lands: dict[Grade, Grade]) -> "Expansion":
        """A floorless expansion given as its blocks, columns and lands, with
        no complex behind it (khovanov.ckh builds a cube so)."""
        ex = cls.__new__(cls)
        ex.blocks, ex.cols, ex.lands = blocks, cols, lands
        return ex

    def _block_columns(self, slots: range, skip: Container[int]) -> list[int | None]:
        """cols[s] for each slot s of the range whose place in it is not in skip."""
        cols, start = self.cols, slots.start
        return [cols[s] for s in slots if s - start not in skip]

    @cached_property
    def grade(self) -> list[Grade]:
        """The grade of every slot, built on first read."""
        return list(chain.from_iterable(repeat(g, len(b)) for g, b in self.blocks.items()))

    @cached_property
    def index(self) -> dict[int, int]:
        """The slot of every slot key, code * n + generator."""
        return dict(zip(self._keys, range(len(self._keys))))

    def code(self, exps: Sequence[int]) -> int:
        """Integer code of the monomial with exponents exps."""
        out = 0
        for e in reversed(exps):
            out = out * self.radix + e
        return out

    def slot(self, gen: int, exps: Sequence[int]) -> int | None:
        """The slot of u^exps times generator number gen, if it is present."""
        if max(exps, default=0) >= self.radix:
            return None
        return self.index.get(self.code(exps) * self.cx.n + gen)

    def image(self, s: int) -> int:
        """The image of slot s as a bitset over all slots (bit t for slot t)."""
        grade = self.lands.get(self.grade[s])
        return 0 if grade is None else self.cols[s] << self.blocks[grade].start

    def source_first(self) -> list[Grade]:
        """The grades of the blocks, each before the block it lands in.

        Every block lands on the same side of itself in the grade order
        (above it in the kh convention, below it in the floer one), so one
        of the two sorted orders is source first.
        """
        grades = list(self.blocks)
        if any(tgt > grade for grade, tgt in self.lands.items()):
            return grades
        return grades[::-1]

    def dims(self) -> dict[Grade, int]:
        """F2 homology dimension of every block whose differential stays
        inside the expansion, with zeros, in ascending grade order.

        The complex must square to zero: its callers read khovanov cubes and
        the models, square-zero by construction and checked by the tests
        (``ss`` runs ``verify_d2`` before it clears in ``spectral.analyze``).
        Blocks are visited source first, and the columns at the leads of the
        reduced image of the block before are skipped (clearing): that image
        is a set of cycles in echelon form by lowest bit, so from the highest
        lead down each skipped column is a sum of kept ones, and reaches
        below the floor only if one of them does.
        """
        blocks = self.blocks
        rank_out: dict[Grade, int] = {}
        rank_into: dict[Grade, int] = {}
        cleared: dict[Grade, Container[int]] = {}  # a block -> the leads of its source's image
        for grade in self.source_first():
            vecs = self._block_columns(blocks[grade], cleared.pop(grade, ()))
            if None in vecs:
                continue  # the bottom edge of the window
            space = gf2.ColumnSpace()
            for vec in vecs:
                space.insert_lead(vec)
            rank_out[grade] = space.rank
            tgt = self.lands.get(grade)
            if tgt is not None:
                rank_into[tgt] = space.rank
                cleared[tgt] = space.pivots
        return {grade: len(blk) - rank_out[grade] - rank_into.get(grade, 0)
                for grade, blk in blocks.items() if grade in rank_out}


def _window_dims(cx: ChainComplex, lo: int) -> dict[Grade, int]:
    """Brute-force F2 dimensions per grade with slice value >= lo (h in the
    floer convention, (h, q) in the kh one), from the expansion down to lo - 1."""
    axis = int(cx.convention == CONV_KH)
    dims: dict[Grade, int] = {}
    for grade, dim in Expansion(cx, lo - 1).dims().items():
        key = grade[:axis + 1]  # floer: forget the mod-2 alexander grade
        if key[axis] >= lo:
            dims[key] = dims.get(key, 0) + dim
    return dims


def check_truncation_stability(hom: UHomology) -> None:
    """Compare the exact decomposition with brute-force slice dimensions.

    Dimensions per grade are recomputed over a window four u-steps below
    the span of the slice values and must match the prediction from the
    decomposition.  One window is enough: a closed grade's dimension and
    its predicted tower count do not depend on how deep the window runs.
    """
    cx = hom.cx
    if not cx.n:
        return
    axis = int(cx.convention == CONV_KH)
    step = cx.ustep()[axis]
    vals = cx.q if axis else cx.h
    lo = min(vals) - (max(vals) - min(vals)) - 4 * step
    dims = _window_dims(cx, lo)
    predicted: dict[Grade, int] = {}
    for s in hom.summands:
        for x in range(lo, max(vals) + 1):
            k, rem = divmod(s.grades[axis] - x, step)  # u^k of s sits at x
            if rem == 0 and k >= 0 and (s.free or k < s.order):
                key = s.grades[:axis] + (x,)
                predicted[key] = predicted.get(key, 0) + 1
    for key in sorted(set(dims) | set(predicted)):
        if dims.get(key, 0) != predicted.get(key, 0):
            raise ArithmeticError(
                "truncated slice dimension mismatch at %r: %d vs %d"
                % (key, dims.get(key, 0), predicted.get(key, 0))
            )
