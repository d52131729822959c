"""Exhaustive enumeration of differential patterns on a given start page.

A page is a finite list of summands of a graded F2[X]-module (X acts with
(h, q) bidegree (0, -2)).  Differentials d_k must be X-equivariant, carry
bidegree (2k-2, k), vanish for even k, and square to zero; candidate
patterns are pushed through page homology until no bidegree admits a
differential, then compared against the requested limit shape.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, field

from .umod import MonoVec, eliminate

# Budgets of the two exponential loops, each checked before its loop starts:
# enumerate_patterns tries every subset of the admissible entries of a page,
# 2^MAX_CANDIDATES at most, and resolve_filtration every assignment of the
# target basis to the free survivors, MAX_RESOLVE_SURVIVORS! at most.
MAX_CANDIDATES = 18
MAX_RESOLVE_SURVIVORS = 8

# Inside the search a tower is its (h, q, order) grade, and a free tower has
# infinite order: sorted grades put it after the torsion towers of its
# bidegree, and "order + a < target order" needs no case for it.
FREE = math.inf
Grade = tuple[int, int, float]


@dataclass(frozen=True)
class Tower:
    name: str
    h: int
    q: int
    order: int | None = None  # None = free tower, k = u-torsion of order k

    @property
    def free(self) -> bool:
        return self.order is None


@dataclass(frozen=True)
class PageSpec:
    towers: tuple[Tower, ...]

    def __post_init__(self) -> None:
        names = [t.name for t in self.towers]
        if len(names) != len(set(names)):
            raise ValueError("duplicate tower names")
        if any(not t.free for t in self.towers):
            raise ValueError("a start page consists of free towers")


@dataclass(frozen=True)
class TargetSpec:
    free_rank: int
    torsion: tuple[int, ...] = ()
    anchors: tuple[tuple[int, int, int | None], ...] | None = None  # (h, q, order)
    basis: tuple[str, ...] = ()
    actions: dict = field(default_factory=dict, hash=False, compare=False)


@dataclass(frozen=True)
class Pattern:
    entries: tuple[tuple[int, str, str, int], ...]  # (k, src, tgt, x power)


def _candidates(page: Sequence[Grade], k: int) -> list[tuple[int, int, int]]:
    """(src index, tgt index, x power) slots admissible for d_k."""
    out = []
    for i, (hs, qs, order_s) in enumerate(page):
        for j, (ht, qt, order_t) in enumerate(page):
            if ht - hs != k:
                continue
            num = qt - qs - (2 * k - 2)
            if num % 2 != 0 or num < 0:
                continue
            a = num // 2
            # u^{order_src} src = 0 must land on zero (always so from a free src)
            if order_s + a < order_t:
                continue
            out.append((i, j, a))
    out.sort(key=lambda c: (c[2], c[0], c[1]))
    return out


def _conflicts(page: Sequence[Grade], cands: list[tuple[int, int, int]]) -> list[list[int]]:
    """Bitmasks of the composable candidate pairs whose composite survives.

    A pair (i -> j at u^a, j -> l at u^b) adds u^(a+b) to the (i, l) entry of
    d^2, which is zero in the target unless l is free or a+b is below its
    order.  The entries of _candidates give each (src, tgt) pair one power
    and kill the relations, so d is already well defined, and a mask squares
    to zero iff each (i, l, a+b) group has an even number of pairs inside it.
    """
    groups: dict[tuple[int, int, int], list[int]] = {}
    for e, (i, j, a) in enumerate(cands):
        for f, (j2, l, b) in enumerate(cands):
            if j2 == j and a + b < page[l][2]:
                groups.setdefault((i, l, a + b), []).append(1 << e | 1 << f)
    return list(groups.values())


def _square_zero(mask: int, conflicts: list[list[int]]) -> bool:
    for group in conflicts:
        odd = False
        for pair in group:
            if mask & pair == pair:
                odd = not odd
        if odd:
            return False
    return True


def _free_rank(mask: int, tables: list[tuple[int, dict[int, int]]], limit: int) -> int:
    """The F2 rank of mask's free-to-free entries, or limit + 1 as soon as it is
    above limit; tables hold, per free source, its entry bits and the target
    bits of each subset of them."""
    leads: dict[int, int] = {}  # leading bit length -> reduced row
    for sb, table in tables:
        row = table[mask & sb]
        lead = row.bit_length()
        while lead in leads:
            row ^= leads[lead]
            lead = row.bit_length()
        if lead:
            leads[lead] = row
            if len(leads) > limit:
                break
    return len(leads)


def _augment(i: int, targets: dict[int, Iterable[int]], match: dict[int, int],
             seen: set[int]) -> bool:
    """Whether a path from source i that alternates between unmatched and matched
    edges ends at an unmatched target, which then grows the matching (Kuhn,
    "The Hungarian method", 1955); match maps each matched target to its source."""
    for j in targets[i]:
        if j not in seen:
            seen.add(j)
            if j not in match or _augment(match[j], targets, match, seen):
                match[j] = i
                return True
    return False


def _pieces(entries: list[tuple[int, int, int]], mask: int) -> list[tuple[int, int]]:
    """(tower bits, entry bits) of each connected piece of the entries picked by
    mask, found by OR-merging their tower bitmasks (1 << src | 1 << tgt)."""
    merged: list[tuple[int, int]] = []
    rest = mask
    while rest:
        low = rest & -rest
        rest ^= low
        i, j, _ = entries[low.bit_length() - 1]
        towers, bits = 1 << i | 1 << j, low
        apart = []
        for piece in merged:
            if piece[0] & towers:
                towers |= piece[0]
                bits |= piece[1]
            else:
                apart.append(piece)
        apart.append((towers, bits))
        merged = apart
    return merged


def _piece_homology(
    grades: list[Grade], entries: list[tuple[int, int, int]]
) -> list[Grade]:
    """(h, q, order) of each summand of the homology of one page piece.

    The piece runs through eliminate as a free complex with the same
    homology (Weibel, "An Introduction to Homological Algebra", 1994, ch. 5):
    each tower x of order o gets its two-term resolution, a y with y --u^o-->
    x, at the grade of u^o x less d's bidegree (read off an entry).  An entry
    x_i --u^a--> x_j lifts to y_i --u^(o_i + a - o_j)--> y_j, which
    _candidates keeps from a torsion source to a deep enough torsion target,
    and each 2-path i -> j -> l whose u^(a+b) x_l only the torsion of l kills
    adds x_i --u^(a+b-o_l)--> y_l, mod 2, so that the lift squares to zero.
    A pair --u^k--> y with k >= 1 is u^k torsion at y, and a survivor free.
    """
    i, j, a = entries[0] if entries else (0, 0, 0)  # no entry: no y is a target
    dh, dq = grades[j][0] - grades[i][0], grades[j][1] - 2 * a - grades[i][1]
    at = [(h, q) for h, q, _ in grades]  # (h, q) by position: the x's, then the y's
    y: dict[int, int] = {}  # a torsion tower -> the position of its y
    cols: dict[int, MonoVec] = {}
    for x, (h, q, o) in enumerate(grades):
        if o != FREE:
            y[x] = len(at)
            cols[len(at)] = {x: o}
            at.append((h - dh, q - 2 * o - dq))
    for i, j, a in entries:
        cols.setdefault(i, {})[j] = a
        if i in y:
            cols[y[i]][y[j]] = grades[i][2] + a - grades[j][2]
        for j2, l, b in entries:
            if j2 == j and l in y and a + b >= grades[l][2]:
                col = cols[i]
                if col.pop(y[l], None) is None:
                    col[y[l]] = a + b - grades[l][2]
    pairs: list[tuple[int, int, int]] = []
    eliminate(cols, len(at), cancelled=pairs)
    paired = {p for s, t, _ in pairs for p in (s, t)}
    return [at[t] + (k,) for _, t, k in pairs if k] + [
        g + (FREE,) for p, g in enumerate(at) if p not in paired]


def _admissible(bits: int, conflicts: list[list[int]], tables: list[tuple[int, dict[int, int]]],
                limit: int, sub: int = 0) -> Iterable[tuple[int, int]]:
    """(submask, rank) of each submask of a component's entry bits, from sub on
    in increasing order, that squares to zero and whose free-to-free rank is
    at most limit; only the component's conflict groups and rank tables are
    read."""
    conflicts = [group for group in conflicts if group[0] & bits]
    tables = [table for table in tables if table[0] & bits]
    while True:
        if _square_zero(sub, conflicts) and (
                r := _free_rank(sub, tables, limit) if tables else 0) <= limit:
            yield sub, r
        sub = (sub - bits) & bits
        if not sub:
            return


def _tabulate(comps: list[tuple[int, int]], conflicts: list[list[int]],
              tables: list[tuple[int, dict[int, int]]], limit: int) -> list[list]:
    """The masks over the entries of comps, connected components of the
    candidate graph, whose part in each component squares to zero and whose
    free-to-free ranks sum to at most limit, by rank: each as [rank, mask,
    (submask, tower bits) per component, None for the grades not built yet]."""
    out: list[list] = [[0, 0, (), None]]
    for towers, bits in comps:
        subs = list(_admissible(bits, conflicts, tables, limit))
        out = [[rank + r, mask | sub, parts + ((sub, towers),), None]
               for rank, mask, parts, _ in out for sub, r in subs if rank + r <= limit]
    out.sort(key=lambda entry: entry[0])
    return out


def _page_homology(
    page: Sequence[Grade],
    entries: list[tuple[int, int, int]],
    mask: int,
    pieces: dict[int, list[Grade]],
    shapes: dict[tuple, list[Grade]],
    report: int | None = None,
) -> tuple[Grade, ...]:
    """Homology of the page under the entries picked by mask, as grades.

    Homology of a direct sum is the sum of the homologies, so the towers are
    split into the connected pieces of the differential (_pieces); towers no
    entry touches pass through.  pieces caches a piece's grades by its entry
    bits, which fix its towers, for one page and entry list; shapes caches
    them per grade-shifted shape, which is all _piece_homology sees.  The
    grades are sorted (ties are identical towers).  report, if given, holds
    the bits of the towers whose grades are returned, a set that contains
    every piece of mask; by default all of them.
    """
    out: list[Grade] = []
    alone = (1 << len(page)) - 1 if report is None else report
    for towers, bits in _pieces(entries, mask):
        alone ^= towers
        hom = pieces.get(bits)
        if hom is None:
            idxs = [i for i in range(len(page)) if towers >> i & 1]
            # by grade: pieces alike but for the order of their towers share a shape
            idxs.sort(key=page.__getitem__)
            h0, q0, _ = page[idxs[0]]
            pos = {i: p for p, i in enumerate(idxs)}
            local, left = [], bits
            while left:
                low = left & -left
                left ^= low
                i, j, a = entries[low.bit_length() - 1]
                local.append((pos[i], pos[j], a))
            local.sort()
            grades = [(page[i][0] - h0, page[i][1] - q0, page[i][2]) for i in idxs]
            # flat, so that a cached shape holds no tuple per tower or entry
            shape = (len(grades), *itertools.chain(*grades, *local))
            rel = shapes.get(shape)
            if rel is None:
                rel = shapes[shape] = _piece_homology(grades, local)
            hom = pieces[bits] = [(h + h0, q + q0, order) for (h, q, order) in rel]
        out += hom
    while alone:
        low = alone & -alone
        alone ^= low
        out.append(page[low.bit_length() - 1])
    out.sort()
    return tuple(out)


def _page_names(page: Sequence[Grade]) -> list[str]:
    return ["p%d@%d,%d" % (idx, h, q) for idx, (h, q, _) in enumerate(page)]


def _normalized_shape(page: Sequence[Grade]) -> tuple:
    if not page:
        return ()
    h0 = min(h for h, _, _ in page)
    q0 = min(q for _, q, _ in page)
    return tuple(sorted((h - h0, q - q0, -1 if o == FREE else o) for h, q, o in page))


def _matches_target(page: Sequence[Grade], target: TargetSpec) -> bool:
    tors = sorted(o for _, _, o in page if o != FREE)
    if len(page) - len(tors) != target.free_rank or tors != sorted(target.torsion):
        return False
    return target.anchors is None or _normalized_shape(page) == _normalized_shape(
        [(h, q, FREE if o is None else o) for h, q, o in target.anchors])


class _Search:
    """The caches of one enumerate_patterns call.

    Nothing here refers back to the search, so the caches go with the last
    reference to it when the call returns, without the cycle collector.
    """

    def __init__(self, target: TargetSpec) -> None:
        self.target = target
        # (page, k) -> entry suffixes; an E2 page (all free, input order) is
        # never equal to a later page, which has fewer free towers
        self.searched: dict[tuple[tuple[Grade, ...], int | None], list[tuple]] = {}
        self.shapes: dict[tuple, list[Grade]] = {}

    def suffixes(self, page: tuple[Grade, ...], k: int,
                 names: list[str] | None = None) -> list[tuple]:
        """Entry suffixes from d_k on that reach the target, in mask order.

        names are the page's tower names, None for the p<i>@h,q names of a
        later page, built only once a suffix list is not empty.  A mask is
        skipped when it does not square to zero, or when its free-to-free
        entries have F2 rank above limit = (n_free - free_rank) // 2.

        The candidates fall into the connected components of the graph whose
        nodes are towers and whose edges are candidates, and each test of a
        mask splits over them: the pairs of a conflict group share towers, so
        the group lies in one component; the free-to-free matrix is
        block-diagonal, so its rank is the sum of its blocks' ranks; and the
        page homology is the sum over pieces, each inside one component.  So
        the components but the largest are tabulated once (_tabulate), and
        each submask of the largest that passes its own tests is combined
        with the tabulated masks whose ranks fit the rest of limit.  A page of
        one component tabulates nothing.  The masks that reach the target are
        emitted in increasing order, which gives the list of a walk over every
        mask; the order of the recursive calls does not matter, as the result
        for a (page, k) depends on nothing else.
        """
        searched, key = self.searched, (page, k)
        found = searched.get(key)
        if found is not None:
            return found
        if (limit := (sum(o == FREE for _, _, o in page) - self.target.free_rank) // 2) < 0:
            found = searched[key] = []
            return found
        hs = {h for h, _, _ in page}
        k = min((g for g in (t - s for s in hs for t in hs) if g >= k and g % 2), default=None)
        # the first k that carries a d_k: one search serves every k up to it
        found = searched.get((page, k))
        if found is not None:
            searched[key] = found
            return found
        found = searched[key] = searched[(page, k)] = []
        if k is None:
            if _matches_target(page, self.target):
                found.append(())
            return found
        cands = _candidates(page, k)
        if len(cands) > MAX_CANDIDATES:
            raise ValueError("too many candidate entries on page %d" % k)
        found.extend(self.suffixes(page, k + 1, names))
        if not cands:
            return found
        conflicts = _conflicts(page, cands)
        free: dict[int, dict[int, int]] = {}  # free source -> {free target: entry index}
        for e, (i, j, _) in enumerate(cands):
            if page[i][2] == page[j][2] == FREE:
                free.setdefault(i, {})[j] = e
        # no mask's rank passes the term rank of the free-to-free entries, the size of a
        # largest matching of free sources to free targets: rank tables only above limit
        tables: list[tuple[int, dict[int, int]]] = []  # (entry bits, {entry bits: target bits})
        match: dict[int, int] = {}  # free target -> its free source in the matching
        if len(free) > limit and sum(_augment(i, free, match, set()) for i in free) > limit:
            for ts in free.values():
                table = {0: 0}
                for j, e in ts.items():
                    table.update({s | 1 << e: t | 1 << j for s, t in table.items()})
                tables.append((max(table), table))
        pieces: dict[int, list[Grade]] = {}
        # the components of the graph of towers and candidates, (tower bits, entry bits) each;
        # the largest is walked below, against the table of the others' masks
        comps = _pieces(cands, (1 << len(cands)) - 1)
        others: list[list] = [[0, 0, (), ()]]  # no other component: one mask, zero
        report = (1 << len(page)) - 1  # the walked component's towers and the untouched ones
        if len(comps) > 1:
            comps.sort(key=lambda comp: comp[1].bit_count(), reverse=True)
            others = _tabulate(comps[1:], conflicts, tables, limit)
            for towers, _ in comps[1:]:
                report ^= towers
        bits = comps[0][1]
        hits: list[tuple[int, list[tuple]]] = []  # (mask, its suffixes) where there are any
        # the zero submask of bits only to pair with a nonzero mask of the others
        for sub, r in _admissible(bits, conflicts, tables, limit,
                                  0 if len(others) > 1 else bits & -bits):
            grades = _page_homology(page, cands, sub, pieces, self.shapes, report)
            for entry in others:
                rank, mask, parts, more = entry
                if r + rank > limit:
                    break
                if not (mask := mask | sub):
                    continue  # the zero mask, searched above on the page itself
                if more is None:
                    more = entry[3] = tuple(itertools.chain.from_iterable(
                        _page_homology(page, cands, s, pieces, self.shapes, towers)
                        for s, towers in parts))
                rests = self.suffixes(tuple(sorted(grades + more)) if more else grades, k + 1)
                if rests:
                    hits.append((mask, rests))
        if hits:
            if names is None:
                names = _page_names(page)
            here = [(k, names[i], names[j], a) for (i, j, a) in cands]
            for mask, rests in sorted(hits):
                entries = tuple(here[e] for e in range(len(cands)) if mask >> e & 1)
                found.extend(entries + rest for rest in rests)
        return found


def enumerate_patterns(e2: PageSpec, target: TargetSpec) -> list[Pattern]:
    """All admissible differential patterns reaching the target, canonicalized.

    Unreachable targets give an empty list.  Patterns are identified up to
    grading-preserving permutations of equal-bigrading towers; of each class
    the first pattern in search order is kept.

    The search is a depth-first walk over pages, one subset (mask) of the
    admissible d_k entries at a time, as integer bits.  Inside it a page is a
    tuple of (h, q, order) grades; names are built for the E2 page and for
    the entries of a suffix list that is not empty.  Each distinct (page, k)
    is searched once, and its list of entry suffixes reaching the target is
    kept for the call.  A mask squares to zero iff each group of composable
    candidate pairs with the same surviving composite has an even number of
    pairs inside it (_conflicts).  Its page homology is the sum over the
    connected pieces found by OR-merging the entries' tower bitmasks
    (_pieces), each run through umod.eliminate as a free complex
    (_piece_homology) and cached by entry bits for the page and by
    grade-shifted shape for the call (_page_homology).  A mask is skipped
    before it when its page has too few free towers: localized at u the
    torsion dies and each entry is a unit, so the page keeps n_free - 2r, r
    the F2 rank of the free-to-free entries (_candidates has none from
    torsion to free), and no later page adds any (_free_rank); no rank is
    computed on a page whose free-to-free term rank, a largest matching of
    sources to targets (_augment), is at most the bound.  All three tests
    split over the connected components of the page's candidate graph: the
    components but the largest are tabulated over their own masks, and the
    largest is walked one mask at a time against that table, with the hits
    put back in mask order (_Search.suffixes).  Pages with no two towers k
    apart in h carry no d_k.  No cache outlives the call.
    """
    if len(e2.towers) > 12:
        raise ValueError("start page too large for exhaustive search")
    grade_of = {t.name: (t.h, t.q) for t in e2.towers}
    start = tuple((t.h, t.q, FREE) for t in e2.towers)
    suffixes = _Search(target).suffixes(start, 2, [t.name for t in e2.towers])
    results = [(_canonical_key(grade_of, pat), pat) for pat in map(Pattern, suffixes)]
    seen: dict[tuple, Pattern] = {}
    for key, pat in sorted(results, key=lambda kp: kp[0]):
        if key not in seen:
            seen[key] = pat
    return list(seen.values())


def _canonical_key(grade_of: dict[str, tuple[int, int]], pat: Pattern) -> tuple:
    """Pattern fingerprint invariant under equal-grade tower permutations.

    grade_of maps start-page tower names to their (h, q); later-page names
    stand for themselves.
    """
    rows = []
    for (k, src, tgt, a) in pat.entries:
        gs = grade_of.get(src, src)
        gt = grade_of.get(tgt, tgt)
        rows.append((k, gs, gt, a))
    return tuple(sorted(map(repr, rows)))


# -- filtration resolution -------------------------------------------------------


@dataclass
class FiltrationReport:
    status: str  # "ok", "underdetermined", or "no assignment"
    survivors: tuple[tuple[str, int, int, int], ...]  # (name, h, q, level from top)
    assignment: dict[str, str] = field(default_factory=dict)
    forced_below: tuple[tuple[str, str], ...] = ()  # (deeper, shallower)


def replay(e2: PageSpec, pattern: Pattern) -> list[Tower]:
    """Survivor towers after running the pattern's differentials."""
    summands = list(e2.towers)
    # a pattern names towers as enumerate_patterns saw them: E2 names up to
    # the first nonzero page, then the p<i>@h,q names of _page_homology
    names = [t.name for t in summands]
    by_page: dict[int, list[tuple[str, str, int]]] = {}
    for (k, src, tgt, a) in pattern.entries:
        by_page.setdefault(k, []).append((src, tgt, a))
    for k in sorted(by_page):
        index = {nm: i for i, nm in enumerate(names)}
        entries = [(index[src], index[tgt], a) for (src, tgt, a) in by_page[k]]
        grades = [(t.h, t.q, FREE if t.free else t.order) for t in summands]
        page = _page_homology(grades, entries, (1 << len(entries)) - 1, {}, {})
        names = _page_names(page)
        # keep original names where a summand survives at the same grade
        used = set()
        renamed = []
        for name, (h, q, order) in zip(names, page):
            order = None if order == FREE else order
            for old in summands:
                if old.name not in used and (old.h, old.q, old.order) == (h, q, order):
                    name = old.name
                    used.add(name)
                    break
            renamed.append(Tower(name, h, q, order))
        summands = renamed
    return summands


def check_survivor_budget(target: TargetSpec, free: int) -> None:
    """Refuse to assign the target basis to over MAX_RESOLVE_SURVIVORS free survivors."""
    if target.actions and len(target.basis) == free > MAX_RESOLVE_SURVIVORS:
        raise ValueError("%d free survivors to assign: resolving takes at most %d"
                         % (free, MAX_RESOLVE_SURVIVORS))


def resolve_filtration(
    e2: PageSpec, pattern: Pattern, target: TargetSpec
) -> FiltrationReport:
    """Match limit-module action matrices against survivor levels.

    The cube filtration level of a tower is its h anchor.  An action entry
    into a survivor whose level is not strictly deeper than the source dies
    in the associated graded, so off-diagonal target entries force strict
    level inequalities; assignments violating them are discarded.
    """
    survivors = replay(e2, pattern)
    free = [t for t in survivors if t.free]
    top = max((t.h for t in e2.towers), default=0)
    rows = tuple(
        (t.name, t.h, t.q, top - t.h) for t in sorted(free, key=lambda t: (t.h, t.q))
    )
    if not target.actions or not target.basis:
        return FiltrationReport("underdetermined", rows)
    names = list(target.basis)
    if len(names) != len(free):
        return FiltrationReport("no assignment", rows)
    check_survivor_budget(target, len(free))
    valid: list[dict[str, str]] = []
    forced_sets = []
    for perm in itertools.permutations(free):
        assign = dict(zip(names, perm))
        ok = True
        forced = []
        for matrix in target.actions.values():
            for (row, col), coeff in matrix.items():
                if not coeff:
                    continue
                lr = assign[row].h
                lc = assign[col].h
                if row == col:
                    continue
                if lr <= lc:
                    ok = False
                    break
                forced.append((row, col))
            if not ok:
                break
        if ok:
            valid.append(assign)
            forced_sets.append(tuple(sorted(set(forced))))
    if not valid:
        return FiltrationReport("no assignment", rows)
    splits = {
        tuple(sorted((nm, assign[nm].h) for nm in names)) for assign in valid
    }
    if len(splits) > 1 or not forced_sets[0]:
        return FiltrationReport("underdetermined", rows)
    assign = valid[0]
    return FiltrationReport(
        "ok",
        rows,
        {nm: assign[nm].name for nm in names},
        forced_sets[0],
    )
