"""Exact module arithmetic over the graded PID F2[u].

Everything here assumes homogeneous data: the grading gives u a nonzero
degree, so a homogeneous entry of a matrix over F2[u] is a single monomial
u^e.  A vector is stored as {slot: exponent}; adding u^s times another
vector either creates entries or cancels equal ones, and homogeneity
guarantees colliding exponents agree (asserted).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from heapq import heapify, heappop, heappush

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


def reduce_columns(
    cols: list[MonoVec],
) -> tuple[dict[int, tuple[MonoVec, MonoVec]], list[MonoVec]]:
    """Column reduction over F2[u] with valuation-aware pivoting.

    Returns (pivots, kernel_logs): pivots maps a leading slot to the
    reduced column owning it (minimal valuation there) plus its combination
    log over original column indices; kernel_logs are the logs of columns
    that reduced to zero.  All operations are unimodular, so for
    homogeneous input the logs form a free basis of the kernel.
    """
    pivots: dict[int, tuple[MonoVec, MonoVec]] = {}
    kernel_logs: list[MonoVec] = []
    for j, col in enumerate(cols):
        vec = dict(col)
        log: MonoVec = {j: 0}
        while True:
            if not vec:
                kernel_logs.append(log)
                break
            lead = min(vec)
            e = vec[lead]
            hit = pivots.get(lead)
            if hit is None:
                pivots[lead] = (vec, log)
                break
            pvec, plog = hit
            pe = pvec[lead]
            if e >= pe:
                vec_add_shifted(vec, pvec, e - pe)
                vec_add_shifted(log, plog, e - pe)
            else:
                # the newcomer has smaller valuation: it takes the pivot slot
                # and the displaced column keeps reducing
                pivots[lead] = (vec, log)
                nvec, nlog = dict(pvec), dict(plog)
                vec_add_shifted(nvec, vec, pe - e)
                vec_add_shifted(nlog, log, pe - e)
                vec, log = nvec, nlog
    return pivots, kernel_logs


class EchelonBasis:
    """Homogeneous vectors with distinct leads, sorted by lead.

    The lead index (lead slot -> position) is built once here, so every solve
    against the basis reads it instead of rebuilding it.
    """

    __slots__ = ("vecs", "lead")

    def __init__(self, vecs: list[MonoVec]) -> None:
        self.vecs = vecs
        self.lead = {min(b): i for i, b in enumerate(vecs)}

    def __len__(self) -> int:
        return len(self.vecs)

    def __getitem__(self, i: int) -> MonoVec:
        return self.vecs[i]


def echelonize(cols: list[MonoVec]) -> EchelonBasis:
    """Reduce a list of homogeneous vectors to echelon form (distinct leads)."""
    pivots, kernel = reduce_columns(cols)
    if kernel:
        raise ArithmeticError("echelonize expected independent columns")
    return EchelonBasis([vec for _, (vec, _) in sorted(pivots.items())])


def solve_in_echelon(basis: EchelonBasis, target: MonoVec) -> MonoVec:
    """Coordinates of target in an echelon basis (raises if unsolvable)."""
    coords: MonoVec = {}
    vec = dict(target)
    by_lead = basis.lead
    vecs = basis.vecs
    while vec:
        lead = min(vec)
        i = by_lead.get(lead)
        if i is None:
            raise ArithmeticError("vector outside the span (slot %d)" % lead)
        b = vecs[i]
        shift = vec[lead] - b[lead]
        if shift < 0:
            raise ArithmeticError("vector not in the F2[u]-span (needs u^%d)" % shift)
        vec_add_shifted(vec, b, shift)
        if i in coords:
            raise ArithmeticError("echelon solve revisited column %d" % i)
        coords[i] = shift
    return coords


def homology_presentation(
    cols: list[MonoVec],
    relations: list[MonoVec],
    grades: list[tuple[int, ...]],
    step: tuple[int, ...],
) -> tuple[EchelonBasis, list[MonoVec], list[tuple[int, ...]]]:
    """Homology of d on coker(relations), presented over its cycles.

    cols are the columns of d over generators of the given grades, and
    relations are columns over the same generators that d preserves.  The
    cycles, the v with d v in the span of the relations, are the
    projections onto the d-columns of ker[d | relations], put in echelon
    form.  The boundaries are the nonzero columns of d followed by the
    relations.  Returns the cycle basis, each boundary's coordinates in it,
    and each cycle's grade: that of its lead slot, lowered by u^e.  The
    homology is module_decompose(len(basis), coords, grades, step).
    """
    n = len(cols)
    _, logs = reduce_columns(cols + relations)
    projections = ({slot: e for slot, e in log.items() if slot < n} for log in logs)
    basis = echelonize([p for p in projections if p])
    coords = [solve_in_echelon(basis, v) for v in [c for c in cols if c] + relations]
    return basis, coords, [
        tuple(x - basis[i][slot] * s for x, s in zip(grades[slot], step))
        for slot, i in basis.lead.items()
    ]


@dataclass(frozen=True)
class Summand:
    """One direct summand of a decomposed module."""

    order: int | None  # None = free, k >= 1 = F2[u]/(u^k)
    grades: tuple[int, ...]
    index: int  # the generator (row of the presentation) that spans it

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


def _add_tracked(
    rows: list[MonoVec], cols: list[set[int]], dst: int, src: MonoVec, shift: int
) -> list[tuple[int, int]]:
    """rows[dst] += u^shift * src, keeping the column index cols in step.

    Returns the (column, exponent) entries the addition created.
    """
    row = rows[dst]
    created: list[tuple[int, int]] = []
    for c, e in src.items():
        ee = e + shift
        old = row.pop(c, None)
        if old is None:
            row[c] = ee
            cols[c].add(dst)
            created.append((c, ee))
        elif old != ee:
            raise ArithmeticError("inhomogeneous collision at column %d" % c)
        else:
            cols[c].discard(dst)
    return created


def module_decompose(
    n_gens: int,
    relations: list[MonoVec],
    grades: list[tuple[int, ...]],
    u_grade_step: tuple[int, ...],
) -> ModuleDecomposition:
    """Smith-style decomposition of coker(relations) over F2[u].

    relations are columns {generator: exponent}; grades are per-generator
    grading tuples, and u lowers a grade by u_grade_step.  Every relation
    column is checked to be homogeneous.

    The pivot is always the live entry u^e at (row r, column c) with the
    least (e, r, c).  Row operations clear the rest of its column; then row
    r is the only row left in column c, so clearing row r by column
    operations would touch nothing else, and row r and column c simply leave
    the matrix.  Pivots come from a lazy min-heap of entries, and each column
    keeps the set of its rows, so a pivot costs the rows it clears, not a
    scan of the matrix.  Each row operation adds u^s times row r to a row r2
    of the same homogeneous column, where grades[r2] lowered by s steps is
    grades[r], so generator r keeps its grade and the summand of pivot row r
    is anchored at grades[r].
    """
    for col in relations:
        seen = None
        for row, e in col.items():
            g = tuple(x - e * s for x, s in zip(grades[row], u_grade_step))
            if seen is None:
                seen = g
            elif seen != g:
                raise ValueError("non-homogeneous presentation column: %r" % (col,))

    # mat holds only live entries: a row and a column leave together
    mat: list[MonoVec] = [dict() for _ in range(n_gens)]
    mat_cols: list[set[int]] = [set() for _ in relations]
    heap: list[tuple[int, int, int]] = []
    for j, col in enumerate(relations):
        for row, e in col.items():
            mat[row][j] = e
            mat_cols[j].add(row)
            heap.append((e, row, j))
    heapify(heap)
    pivots: dict[int, int] = {}

    while heap:
        e, r, c = heappop(heap)
        prow = mat[r]
        if prow.get(c) != e:
            continue  # stale: the entry cancelled, or its row already died
        # clear the pivot column with row operations
        for r2 in sorted(mat_cols[c]):
            if r2 != r:
                for c2, ee in _add_tracked(mat, mat_cols, r2, prow, mat[r2][c] - e):
                    heappush(heap, (ee, r2, c2))
        pivots[r] = e
        for c2 in prow:
            mat_cols[c2].discard(r)
        mat[r] = {}

    return ModuleDecomposition([Summand(pivots.get(r), grades[r], r)
                                for r in range(n_gens) if pivots.get(r) != 0])
