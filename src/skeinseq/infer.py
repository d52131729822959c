"""Exhaustive enumeration of differential patterns on a given start page.

A page is a finite list of summands of a graded F2[X]-module (X acts with
(h, q) bidegree (0, -2)).  Differentials d_k must be X-equivariant, carry
bidegree (2k-2, k), vanish for even k, and square to zero; candidate
patterns are pushed through page homology until no bidegree admits a
differential, then compared against the requested limit shape.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass, field

from .umod import MonoVec, homology_presentation, module_decompose

# Budgets of the two exponential loops, each checked before its loop starts:
# enumerate_patterns tries every subset of the admissible entries of a page,
# 2^MAX_CANDIDATES at most, and resolve_filtration every assignment of the
# target basis to the free survivors, MAX_RESOLVE_SURVIVORS! at most.
MAX_CANDIDATES = 18
MAX_RESOLVE_SURVIVORS = 8


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


def _candidates(summands: Sequence[Tower], k: int) -> list[tuple[int, int, int]]:
    """(src index, tgt index, x power) slots admissible for d_k."""
    out = []
    for i, s in enumerate(summands):
        for j, t in enumerate(summands):
            if t.h - s.h != k:
                continue
            num = t.q - s.q - (2 * k - 2)
            if num % 2 != 0:
                continue
            a = num // 2
            if a < 0:
                continue
            # u^{order_src} src = 0 must land on zero
            if s.order is not None and (t.order is None or s.order + a < t.order):
                continue
            out.append((i, j, a))
    out.sort(key=lambda c: (c[2], c[0], c[1]))
    return out


def _square_zero(
    summands: Sequence[Tower], entries: list[tuple[int, int, int]]
) -> bool:
    """d composes to zero modulo the relations.

    The entries are a subset of _candidates, which gives each (src, tgt)
    pair one power and keeps only entries that kill the relations, so d is
    already well defined.
    """
    comp: dict[tuple[int, int], set[int]] = {}
    for (i, j, a) in entries:
        for (j2, l, b) in entries:
            if j2 != j:
                continue
            key = (i, l)
            power = a + b
            acc = comp.setdefault(key, set())
            if power in acc:
                acc.discard(power)
            else:
                acc.add(power)
    for (i, l), powers in comp.items():
        ol = summands[l].order
        for p in powers:
            if ol is None or p < ol:
                return False
    return True


def _piece_homology(
    grades: list[tuple[int, int, int | None]], entries: list[tuple[int, int, int]]
) -> list[tuple[int, int, int | None]]:
    """(h, q, order) of each summand of the homology of one page piece."""
    dcols: list[MonoVec] = [dict() for _ in grades]
    for (i, j, a) in entries:
        dcols[i][j] = a
    rel_cols = [{j: order} for j, (_, _, order) in enumerate(grades) if order is not None]
    basis, coords, vgrades = homology_presentation(
        dcols, rel_cols, [(h, q) for h, q, _ in grades], (0, 2))
    dec = module_decompose(len(basis), coords, vgrades, (0, 2))
    return [s.grades + (s.order,) for s in dec.summands]


def _page_homology(
    summands: Sequence[Tower],
    entries: list[tuple[int, int, int]],
    pieces: dict | None = None,
) -> list[Tower]:
    """Homology of the page with the chosen differential, again as towers.

    Homology of a direct sum is the sum of the homologies, so the towers are
    split into the connected pieces of the differential and each piece is
    computed on its own, once per grade-shifted shape while the same pieces
    cache is passed; towers no entry touches pass through.  The summands
    are sorted as module_decompose sorts those of the whole page (ties are
    identical towers) and named p<index>@h,q.
    """
    if pieces is None:
        pieces = {}
    root = list(range(len(summands)))

    def find(i: int) -> int:
        while root[i] != i:
            root[i] = root[root[i]]
            i = root[i]
        return i

    for (i, j, _) in entries:
        root[find(i)] = find(j)
    members: dict[int, list[int]] = {}
    for i in range(len(summands)):
        members.setdefault(find(i), []).append(i)
    local: dict[int, list[tuple[int, int, int]]] = {}
    for (i, j, a) in entries:
        local.setdefault(find(i), []).append((i, j, a))
    out: list[tuple[int, int, int | None]] = []
    for r, idxs in members.items():
        if r not in local:
            out.extend((summands[i].h, summands[i].q, summands[i].order) for i in idxs)
            continue
        h0, q0 = summands[idxs[0]].h, summands[idxs[0]].q
        pos = {i: p for p, i in enumerate(idxs)}
        shape = (
            tuple((summands[i].h - h0, summands[i].q - q0, summands[i].order) for i in idxs),
            tuple(sorted((pos[i], pos[j], a) for (i, j, a) in local[r])),
        )
        hom = pieces.get(shape)
        if hom is None:
            hom = pieces[shape] = _piece_homology(list(shape[0]), list(shape[1]))
        out.extend((h + h0, q + q0, order) for (h, q, order) in hom)
    out.sort(key=lambda g: (g[0], g[1], g[2] is None, g[2] or 0))
    return [Tower("p%d@%d,%d" % (idx, h, q), h, q, order)
            for idx, (h, q, order) in enumerate(out)]


def _window_free_rank(summands: Sequence[Tower]) -> int:
    return sum(1 for t in summands if t.free)


def _normalized_shape(summands: Sequence[Tower]) -> tuple:
    if not summands:
        return ()
    h0 = min(t.h for t in summands)
    q0 = min(t.q for t in summands)
    return tuple(
        sorted((t.h - h0, t.q - q0, t.order if t.order is not None else -1)
               for t in summands)
    )


def _matches_target(summands: Sequence[Tower], target: TargetSpec) -> bool:
    free = [t for t in summands if t.free]
    tors = sorted(t.order for t in summands if not t.free)
    if len(free) != target.free_rank or tors != sorted(target.torsion):
        return False
    if target.anchors is not None:
        want = tuple(
            sorted(
                (h - min(a[0] for a in target.anchors),
                 q - min(a[1] for a in target.anchors),
                 o if o is not None else -1)
                for (h, q, o) in target.anchors
            )
        )
        if _normalized_shape(summands) != want:
            return False
    return True


def enumerate_patterns(e2: PageSpec, target: TargetSpec) -> list[Pattern]:
    """All admissible differential patterns reaching the target, canonicalized.

    Unreachable targets give an empty list.  Patterns are identified up to
    grading-preserving permutations of equal-bigrading towers; of each class
    the first pattern in search order is kept.

    The search is a depth-first walk over pages, one subset (mask) of the
    admissible d_k entries at a time.  Each distinct (page, k) is searched
    once: its list of entry suffixes reaching the target is kept for the
    call, so a page met again is not searched again.  Page homology is
    computed per connected piece of the differential and cached per piece
    shape for the call (see _page_homology).  Pages with no two towers k
    apart in h carry no d_k and are skipped.
    """
    if len(e2.towers) > 12:
        raise ValueError("start page too large for exhaustive search")
    grade_of = {t.name: (t.h, t.q) for t in e2.towers}
    searched: dict[tuple[tuple[Tower, ...], int | None], list[tuple]] = {}
    pieces: dict = {}

    def rec(summands: tuple[Tower, ...], k: int) -> list[tuple]:
        """Entry suffixes from d_k on that reach the target, in mask order."""
        if _window_free_rank(summands) < target.free_rank:
            return []
        gaps = {t.h - s.h for s in summands for t in summands}
        k = min((g for g in gaps if g >= k and g % 2), default=None)
        key = (summands, k)
        found = searched.get(key)
        if found is not None:
            return found
        found = searched[key] = []
        if k is None:
            if _matches_target(summands, target):
                found.append(())
            return found
        cands = _candidates(summands, k)
        if len(cands) > MAX_CANDIDATES:
            raise ValueError("too many candidate entries on page %d" % k)
        for mask in range(1 << len(cands)):
            entries = [cands[i] for i in range(len(cands)) if (mask >> i) & 1]
            if not _square_zero(summands, entries):
                continue
            if entries:
                nxt = tuple(_page_homology(summands, entries, pieces))
                here = tuple((k, summands[i].name, summands[j].name, a)
                             for (i, j, a) in entries)
                found.extend(here + rest for rest in rec(nxt, k + 1))
            else:
                found.extend(rec(summands, k + 1))
        return found

    results = [
        (_canonical_key(grade_of, pat), pat)
        for pat in map(Pattern, rec(tuple(e2.towers), 2))
    ]
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
        summands2 = _page_homology(summands, entries)
        names = [t.name for t in summands2]
        # keep original names where a summand survives at the same grade
        used = set()
        renamed = []
        for t in summands2:
            match = None
            for old in summands:
                if old.name in used:
                    continue
                if (old.h, old.q) == (t.h, t.q) and (old.order == t.order or old.free and t.free):
                    match = old.name
                    break
            if match is not None:
                used.add(match)
                renamed.append(Tower(match, t.h, t.q, t.order))
            else:
                renamed.append(t)
        summands = renamed
    return summands


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
    if len(free) > MAX_RESOLVE_SURVIVORS:
        raise ValueError(
            "%d free survivors to assign: resolving takes at most %d"
            % (len(free), MAX_RESOLVE_SURVIVORS)
        )
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
