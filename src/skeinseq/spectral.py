"""Spectral sequences of filtered complexes over F2 and F2[u].

The engine expands a one-variable complex into u-power slots.  Every
grading slice of the expansion is a finite F2 complex, so a deterministic
persistence-style column reduction per slice computes the page data
exactly: a pair (x, y) with level jump k means the class of y kills the
class of x on page k, and unpaired slots survive to the limit page.
Reported dimensions are windowed at a trusted floor below which the slice
pattern provably repeats.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import gf2
from .complexes import CONV_KH, ChainComplex

Grade = tuple[int, ...]


@dataclass(frozen=True)
class SlotRef:
    gid: str
    upow: int
    grade: Grade
    level: int


@dataclass(frozen=True)
class PairEvent:
    y: SlotRef  # source of the differential (lower filtration level)
    x: SlotRef  # target (higher level)

    @property
    def jump(self) -> int:
        return self.x.level - self.y.level


class FilteredComplex:
    """A chain complex with a level per generator; entries raise the level.

    extra_depth widens the reported grading window (the engine itself is
    exact; the override only deepens how far the tables run).
    """

    def __init__(self, base: ChainComplex, levels: dict[str, int],
                 extra_depth: int = 0) -> None:
        self.base = base
        self.extra_depth = max(0, extra_depth)
        self.levels = dict(levels)
        for g in base.gens:
            if g.gid not in self.levels:
                raise ValueError("missing filtration level for %r" % g.gid)
        for (src, tgt), p in base.diff.items():
            if p and self.levels[tgt] <= self.levels[src]:
                raise ValueError(
                    "filtration violation: %s (level %d) -> %s (level %d)"
                    % (src, self.levels[src], tgt, self.levels[tgt])
                )

    @property
    def span(self) -> int:
        if not self.base.gens:
            return 0
        vals = [self.levels[g.gid] for g in self.base.gens]
        return max(vals) - min(vals)


def _slot_grade(cx: ChainComplex, gid: str, j: int) -> Grade:
    g = cx.gen(gid)
    unit = cx.vars.units[0] if cx.vars.n else 0
    if cx.convention == CONV_KH:
        return (g.h, g.q - 2 * unit * j)
    grade = [g.h - unit * j]
    if g.alex2 is not None:
        grade.append((g.alex2 + (unit % 2) * j) % 2)
    return tuple(grade)


def grade_scalar(grade: Grade, convention: str) -> int:
    """The coordinate along which u-power slices run."""
    return grade[1] if convention == CONV_KH else grade[0]


@dataclass
class SpectralData:
    events: list[PairEvent]
    survivors: list[SlotRef]
    trusted_floor: int | None  # minimal trusted slice scalar (None = everything)
    convention: str

    def _trusted(self, grade: Grade) -> bool:
        if self.trusted_floor is None:
            return True
        return grade_scalar(grade, self.convention) >= self.trusted_floor

    def max_jump(self) -> int:
        return max((e.jump for e in self.events), default=0)

    def page_dims(self, r: int) -> dict[Grade, int]:
        dims: dict[Grade, int] = {}

        def bump(grade: Grade) -> None:
            if self._trusted(grade):
                dims[grade] = dims.get(grade, 0) + 1

        for s in self.survivors:
            bump(s.grade)
        for e in self.events:
            if e.jump >= r:
                bump(e.x.grade)
                bump(e.y.grade)
        return dict(sorted(dims.items()))

    def d_ranks(self, r: int) -> dict[tuple[Grade, Grade], int]:
        out: dict[tuple[Grade, Grade], int] = {}
        for e in self.events:
            if e.jump == r and (self._trusted(e.y.grade) or self._trusted(e.x.grade)):
                key = (e.y.grade, e.x.grade)
                out[key] = out.get(key, 0) + 1
        return dict(sorted(out.items()))

    def einf_by_level(self) -> dict[tuple[Grade, int], int]:
        out: dict[tuple[Grade, int], int] = {}
        for s in self.survivors:
            if self._trusted(s.grade):
                key = (s.grade, s.level)
                out[key] = out.get(key, 0) + 1
        return dict(sorted(out.items()))


@dataclass(frozen=True)
class SpectralPage:
    r: int
    dims: dict[Grade, int]
    d_ranks: dict[tuple[Grade, Grade], int]


def _enumerate_slices(
    fc: FilteredComplex,
) -> tuple[list[tuple[int, list[SlotRef]]], int | None]:
    """(slice value, slots) in descending value order, plus the trusted floor."""
    cx = fc.base
    if cx.vars.n == 0:
        slots = [
            SlotRef(g.gid, 0, _slot_grade(cx, g.gid, 0), fc.levels[g.gid])
            for g in cx.gens
        ]
        return [(0, slots)], None
    if cx.vars.n != 1:
        raise ValueError("the spectral engine works over F2 or a single F2[u]")
    unit = cx.vars.units[0]
    step = unit if cx.convention != CONV_KH else 2 * unit
    scalars = {g.gid: grade_scalar(_slot_grade(cx, g.gid, 0), cx.convention)
               for g in cx.gens}
    top, bot = max(scalars.values()), min(scalars.values())
    floor = bot - (top - bot) - 4 * step - 2 - fc.extra_depth
    buckets: dict[int, list[SlotRef]] = {}
    for g in cx.gens:
        v, j = scalars[g.gid], 0
        while v >= floor - 2 * step:
            buckets.setdefault(v, []).append(
                SlotRef(g.gid, j, _slot_grade(cx, g.gid, j), fc.levels[g.gid])
            )
            v -= step
            j += 1
    return sorted(buckets.items(), reverse=True), floor


def _sort_key(s: SlotRef) -> tuple:
    return (-s.level, s.grade, s.gid, s.upow)


def _mono_cols(cx: ChainComplex) -> dict[str, list[tuple[str, int]]]:
    """Per source gid, the (target gid, u power) of each differential term."""
    return {
        src: [(tgt, sum(m)) for tgt, p in col.items() for m in p.terms]
        for src, col in cx.columns().items()
    }


def analyze(fc: FilteredComplex) -> SpectralData:
    """Run the level-respecting reduction and collect the pairing data.

    Rows are numbered in reverse of their sort order, so the persistence
    "low" of a column (its last row) is the eliminator's lowest set bit.
    """
    cx = fc.base
    slices, floor = _enumerate_slices(fc)
    by_value = dict(slices)
    mono_cols = _mono_cols(cx)

    if cx.vars.n == 0:
        blocks = [(slices[0][1], slices[0][1])]
    elif cx.convention == CONV_KH:
        blocks = [(sl, sl) for v, sl in slices if floor is None or v >= floor]
    else:
        blocks = []
        for v, sl in slices:
            if floor is not None and v < floor:
                continue
            blocks.append((sl, by_value.get(v - 1, [])))

    events: list[PairEvent] = []
    col_zero: dict[SlotRef, bool] = {}
    targets: set[SlotRef] = set()

    for col_slots, row_slots in blocks:
        rows = sorted(row_slots, key=_sort_key, reverse=True)
        row_index = {(s.gid, s.upow): i for i, s in enumerate(rows)}
        space = gf2.ColumnSpace()
        for slot in sorted(col_slots, key=_sort_key):
            vec = 0
            for (tgt, e) in mono_cols[slot.gid]:
                idx = row_index.get((tgt, slot.upow + e))
                if idx is None:
                    raise AssertionError(
                        "differential slot (%s,%d) outside enumerated rows"
                        % (tgt, slot.upow + e)
                    )
                vec ^= 1 << idx
            lead = space.insert(vec)[0]
            col_zero[slot] = lead < 0
            if lead >= 0:
                if slot in targets:
                    raise AssertionError("paired target with nonzero column")
                x = rows[lead]
                targets.add(x)
                events.append(PairEvent(slot, x))

    survivors = [
        s
        for s, z in sorted(col_zero.items(), key=lambda kv: _sort_key(kv[0]))
        if z and s not in targets
    ]
    for e in events:
        if e.jump <= 0:
            raise AssertionError("nonpositive level jump in pairing")
    return SpectralData(events, survivors, floor, cx.convention)


def pages(data: SpectralData, max_r: int) -> list[SpectralPage]:
    """Pages E_1..E_max_r of a pairing, with dimension tables and d_r ranks."""
    if max_r < 1:
        raise ValueError("max_r must be at least 1")
    return [
        SpectralPage(r, data.page_dims(r), data.d_ranks(r))
        for r in range(1, max_r + 1)
    ]


@dataclass
class ConstraintViolation:
    r: int
    src: Grade
    tgt: Grade
    reason: str


@dataclass
class ConstraintReport:
    violations: list[ConstraintViolation]

    @property
    def ok(self) -> bool:
        return not self.violations


def check_constraints(
    pages_list: list[SpectralPage], grading_mode: str = "khovanov"
) -> ConstraintReport:
    """Check d_k bidegrees (2k-2, k), vanishing of even pages, q/2 parity."""
    if grading_mode != "khovanov":
        raise ValueError("only the khovanov grading mode is defined")
    violations: list[ConstraintViolation] = []
    for page in pages_list:
        k = page.r
        for (src, tgt), count in page.d_ranks.items():
            if not count:
                continue
            if len(src) < 2 or len(tgt) < 2:
                violations.append(
                    ConstraintViolation(k, src, tgt, "missing (q,h) bigrading")
                )
                continue
            h_s, q_s = src
            h_t, q_t = tgt
            if (q_t - q_s, h_t - h_s) != (2 * k - 2, k):
                violations.append(
                    ConstraintViolation(
                        k,
                        src,
                        tgt,
                        "bidegree (%d,%d) != (2k-2,k)" % (q_t - q_s, h_t - h_s),
                    )
                )
            if k % 2 == 0:
                violations.append(
                    ConstraintViolation(k, src, tgt, "nonzero even-page differential")
                )
            if ((q_t - q_s) // 2) % 2 != 0:
                violations.append(
                    ConstraintViolation(k, src, tgt, "q/2 parity not preserved")
                )
    return ConstraintReport(violations)


# -- convergence -------------------------------------------------------------------


@dataclass
class ConvergenceReport:
    einf: dict[tuple[Grade, int], int]
    graded_homology: dict[tuple[Grade, int], int]
    mismatches: list[tuple[tuple[Grade, int], int, int]]

    @property
    def ok(self) -> bool:
        return not self.mismatches


def converge(fc: FilteredComplex, data: SpectralData) -> ConvergenceReport:
    """Compare the limit page of `data`, the pairing of `fc`, with the
    filtered homology of the total complex.

    The homology side is an independent rank computation (cycles meeting
    each filtration step modulo all boundaries) that shares no elimination
    state with `analyze`, so agreement genuinely cross-checks the pairing.
    """
    einf = data.einf_by_level()
    gr = _graded_homology_dims(fc, data.trusted_floor)
    mismatches = []
    for key in sorted(set(einf) | set(gr)):
        a, b = einf.get(key, 0), gr.get(key, 0)
        if a != b:
            mismatches.append((key, a, b))
    return ConvergenceReport(einf, gr, mismatches)


def _diff_grade(grade: Grade, convention: str) -> Grade:
    """Grade of the differential's target block."""
    if convention == CONV_KH:
        return (grade[0] + 1, grade[1])
    if len(grade) > 1:
        return (grade[0] - 1, grade[1])
    return (grade[0] - 1,)


def _source_grade(grade: Grade, convention: str) -> Grade:
    if convention == CONV_KH:
        return (grade[0] - 1, grade[1])
    if len(grade) > 1:
        return (grade[0] + 1, grade[1])
    return (grade[0] + 1,)


def _graded_homology_dims(
    fc: FilteredComplex, floor: int | None
) -> dict[tuple[Grade, int], int]:
    cx = fc.base
    slices, _ = _enumerate_slices(fc)
    by_grade: dict[Grade, list[SlotRef]] = {}
    for _, sl in slices:
        for s in sl:
            by_grade.setdefault(s.grade, []).append(s)
    mono_cols = _mono_cols(cx)

    def local_boundary(s: SlotRef, index: dict[tuple[str, int], int]) -> int | None:
        vec = 0
        for (tgt, e) in mono_cols[s.gid]:
            idx = index.get((tgt, s.upow + e))
            if idx is None:
                return None
            vec ^= 1 << idx
        return vec

    out: dict[tuple[Grade, int], int] = {}
    for grade in sorted(by_grade):
        if floor is not None and grade_scalar(grade, cx.convention) < floor:
            continue
        block = sorted(by_grade[grade], key=_sort_key)
        index = {(s.gid, s.upow): i for i, s in enumerate(block)}
        tgt_block = sorted(by_grade.get(_diff_grade(grade, cx.convention), []),
                           key=_sort_key)
        tgt_index = {(s.gid, s.upow): i for i, s in enumerate(tgt_block)}
        block_cols = [local_boundary(s, tgt_index) for s in block]
        if any(c is None for c in block_cols):
            continue  # bottom window edge; not reported
        sources = by_grade.get(_source_grade(grade, cx.convention), [])
        boundaries = []
        incomplete = False
        for s in sources:
            vec = local_boundary(s, index)
            if vec is None:
                incomplete = True
                break
            if vec:
                boundaries.append(vec)
        if incomplete:
            continue
        # block is sorted by level, descending, so the columns of level
        # >= lvl are a prefix of it: one elimination over the block yields
        # the cycles of every prefix, in block coordinates, as it goes.
        space = gf2.ColumnSpace()
        for b in boundaries:
            space.add(b)
        cycles = gf2.ColumnSpace()
        added = 0
        dims_by_level: dict[int, int] = {}
        for s, col in zip(block, block_cols):
            combo = cycles.add(col)
            if combo is not None and space.add(combo) is None:
                added += 1
            dims_by_level[s.level] = added
        above = 0
        for lvl, dim in dims_by_level.items():  # levels descending
            if dim > above:
                out[(grade, lvl)] = dim - above
            above = dim
    return dict(sorted(out.items()))
