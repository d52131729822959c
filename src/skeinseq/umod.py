"""Exact module arithmetic over the graded PID F2[u].

Everything here assumes homogeneous data: the grading gives u a nonzero
degree, so a homogeneous entry of a matrix over F2[u] is a single monomial
u^e.  A vector is stored as {slot: exponent}; adding u^s times another
vector either creates entries or cancels equal ones, and homogeneity
guarantees colliding exponents agree (asserted).  ``eliminate`` is the one
F2[u] elimination: of chain complexes, and of the page pieces of ``infer``,
whose torsion towers it sees through their two-term free resolutions.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

MonoVec = dict[int, int]


def vec_add_shifted(dst: MonoVec, src: MonoVec, shift: int) -> None:
    """dst += u^shift * src in place (F2 cancellation)."""
    for slot, e in src.items():
        ee = e + shift
        old = dst.pop(slot, None)
        if old is None:
            dst[slot] = ee
        elif old != ee:
            raise ArithmeticError(
                "inhomogeneous collision at slot %d: u^%d vs u^%d" % (slot, old, ee)
            )


@dataclass(frozen=True)
class Summand:
    """One direct summand of a decomposed module."""

    order: int | None  # None = free, k >= 1 = F2[u]/(u^k)
    grades: tuple[int, ...]
    index: int  # the generator that spans it

    @property
    def free(self) -> bool:
        return self.order is None


@dataclass
class ModuleDecomposition:
    """A graded F2[u]-module as a direct sum of free and u^k torsion summands,
    sorted by grade, torsion (by order) before free, then by generator."""

    summands: list[Summand]

    def __post_init__(self) -> None:
        self.summands.sort(key=lambda s: (s.grades, s.order is None, s.order or 0,
                                          s.index))

    @property
    def free_rank(self) -> int:
        return sum(1 for s in self.summands if s.free)

    @property
    def torsion(self) -> list[int]:
        return sorted(s.order for s in self.summands if not s.free)

    def by_grading(self) -> dict[tuple[int, ...], tuple[int, list[int]]]:
        """grade -> (free rank, sorted torsion orders) anchored there."""
        out: dict[tuple[int, ...], tuple[int, list[int]]] = {}
        for s in self.summands:
            free, tors = out.get(s.grades, (0, []))
            if s.free:
                free += 1
            else:
                tors = tors + [s.order]
            out[s.grades] = (free, sorted(tors))
        return dict(sorted(out.items()))


def _replay(ops: Iterable[tuple[int, int, int]], vecs: list[MonoVec]) -> list[MonoVec]:
    """The elementary operations ops, applied in turn to each of vecs: (dst,
    src, s) adds u^s times the src coordinate to the dst one.  The vectors
    are held by coordinate, so an operation costs one lookup plus the
    vectors it touches, however many vectors there are."""
    at: dict[int, MonoVec] = {}  # coordinate -> {vector: exponent}
    for j, vec in enumerate(vecs):
        for slot, e in vec.items():
            at.setdefault(slot, {})[j] = e
    for dst, src, shift in ops:
        col = at.get(src)
        if col:
            vec_add_shifted(at.setdefault(dst, {}), col, shift)
    out: list[MonoVec] = [{} for _ in vecs]
    for slot in sorted(at):
        for j, e in at[slot].items():
            out[j][slot] = e
    return out


def eliminate(cols: dict[int, MonoVec], n: int, level: Sequence[int] | None = None,
              cancelled: list[tuple[int, int, int]] | None = None,
              log: list[tuple[int, int, int]] | None = None,
              name: Callable[[int], object] = str) -> None:
    """Gaussian elimination of a free complex over F2[u] (Bar-Natan, "Fast
    Khovanov homology computations", JKTR 2007), in place.

    cols maps positions of 0..n-1, in the order they are walked, to their
    columns {target: u exponent}, leaving out any that is never a source;
    the sources of each target are indexed from them, in that order.  An
    entry x --u^k--> y, where every other entry into y and out of x is u^k
    or deeper, splits off as a summand: the basis changes s <- s + u^(e-k)
    x, for each other source s of y with d(s,y) = u^e, and y <- y +
    u^(e-k) t, for each other target t of x with d(x,t) = u^e, delete x
    and y and add the zig-zag u^(e_s + e_t - k) to d(s,t).
    Each pass walks the sources in cols' order, each cancelling its u^k
    target with the fewest incoming entries (the least fill-in).  cols is
    left with the survivors that have columns, in that order.  Both
    arguments below hold in any order; the order decides only which pairs
    cancel and how much fill-in the zig-zags make.

    Without levels the run goes on to the end, one pass per exponent k that
    is still the least one left: a zig-zag through a u^k pivot is u^k only
    if both legs are, so a source with no u^k entry at its turn never gains
    one, the pass clears that exponent, and no entry is left at the end
    (ArithmeticError if one is).  Each survivor is then a free summand, and
    each pair with k >= 1 is u^k torsion at y, which keeps its grade.

    Given filtration levels by position (every entry raises the level), one
    pass cancels only the units x -> y with level[y] - level[x] == 1, and the
    result is a filtered complex with the same spectral sequence from E_2 on:

    * Jump 1 makes the basis change filtered.  Every other source s of y has
      level <= level(x), and every other target t of x has level >=
      level(y), so C is isomorphic to C' + (x -> y) as a filtered
      F2[u]-complex, and a zig-zag s -> t still raises the level.
    * The isomorphism is graded, so it survives a window: the slots u^j g
      below a slice floor form a subcomplex, and the window is the quotient
      by it.  Pages E_r and differentials d_r for r >= 2 and E_inf by level
      are unchanged on every grade whose differentials stay in the window;
      the pair x -> y and its u-translates add only jump-1 pairs to E_1.
    * One pass suffices: the jump of s -> t is the jump of s -> y plus that
      of x -> t minus 1, and both are at least 1, so a zig-zag makes a
      jump-1 unit s -> t only if d(s,y) was already one.

    ``cancelled`` gets each pair as (x, y, k), and ``log`` the basis changes
    in order as _replay operations (b <- b + u^m c is (c, b, m)); name(i)
    spells position i in the message of a collision.
    """
    rows: list[set[int]] = [set() for _ in range(n)]  # target -> its sources
    for s, col in cols.items():
        for t in col:
            rows[t].add(s)
    k = 0
    while True:
        for x in list(cols):
            xcol = cols.get(x)
            if not xcol:
                continue
            y, fewest = -1, n
            if level is None:
                for t, e in xcol.items():
                    if e == k and len(rows[t]) < fewest:
                        y, fewest = t, len(rows[t])
            else:
                above = level[x] + 1
                for t, e in xcol.items():
                    if not e and level[t] == above and len(rows[t]) < fewest:
                        y, fewest = t, len(rows[t])
            if y < 0:
                continue
            if cancelled is not None:
                cancelled.append((x, y, k))
            del cols[x], xcol[y]
            for t in xcol:
                rows[t].discard(x)
            for s in rows[x]:
                del cols[s][x]
            for t in cols.pop(y, ()):
                rows[t].discard(y)
            srcs = rows[y]
            rows[x] = rows[y] = frozenset()  # no column holds x or y now: free their sets
            srcs.discard(x)
            if log is not None:
                log += [(t, y, e - k) for t, e in xcol.items()]
                log += [(x, s, cols[s][y] - k) for s in srcs]
            if not xcol:  # no zig-zag: y only leaves the other sources
                for s in srcs:
                    del cols[s][y]
                continue
            for s in srcs:
                scol = cols[s]
                base = scol.pop(y) - k
                for t, e in xcol.items():
                    ee = base + e
                    old = scol.pop(t, None)
                    if old is None:
                        scol[t] = ee
                        rows[t].add(s)
                    elif old != ee:
                        raise ArithmeticError("inhomogeneous collision at %s -> %s: u^%d vs u^%d"
                                              % (name(s), name(t), old, ee))
                    else:
                        rows[t].discard(s)
        if level is not None or not any(cols.values()):
            break
        left = min(e for col in cols.values() for e in col.values())
        if left <= k:
            raise ArithmeticError("a u^%d entry is left after its pass" % left)
        k = left
