"""Spectral sequences of filtered complexes over F2 and F2[u].

The engine reads the complex through its F2 expansion
(``complexes.Expansion``): the slots u^j g down to a window floor, one
block per grading.  The differential maps each block into one other block,
so a deterministic persistence-style column reduction per block computes
the page data exactly: a pair (x, y) with level jump k means the class of y
kills the class of x on page k, and unpaired slots survive to the limit
page.  Reported dimensions are windowed at a trusted floor below which the
slice pattern provably repeats.

Both `analyze` and `converge` visit the blocks source first, each block
before the block it lands in, and use clearing (the "twist" of Chen and
Kerber): a slot that is the lowest bit of a boundary has a column that
reduces to zero, so it is never inserted.

`FilteredComplex.cancel_units` first cancels the unit entries that raise
the level by exactly one (Gaussian elimination, which keeps every page from
E_2 on); the cancelled pairs come back into E_1 and d_1 as counts per grade.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import NamedTuple

from . import gf2
from .complexes import (
    CONV_KH,
    ChainComplex,
    Expansion,
    Grade,
    cancel_units,
    check_expansion_size,
)


class PairEvent(NamedTuple):
    y: int  # slot of the source of the differential (lower filtration level)
    x: int  # slot of the target (higher level)
    jump: int  # level of x minus level of y


class FilteredComplex:
    """A chain complex with a level per generator (``levels`` by id, ``level``
    by position); entries raise the level.

    extra_depth widens the reported grading window (the engine itself is
    exact; the override only deepens how far the tables run).
    """

    def __init__(self, base: ChainComplex, levels: dict[str, int],
                 extra_depth: int = 0) -> None:
        self.base = base
        self.extra_depth = max(0, extra_depth)
        self.levels = dict(levels)
        try:
            self.level = level = [self.levels[g] for g in base.ids]  # by position
        except KeyError as missing:
            raise ValueError("missing filtration level for %r" % missing.args[0]) from None
        for i, col in enumerate(base.cols):
            for j in col:
                if level[j] <= level[i]:
                    raise ValueError("filtration violation: %s (level %d) -> %s (level %d)"
                                     % (base.ids[i], level[i], base.ids[j], level[j]))
        self.trusted_floor: int | None = None  # minimal trusted slice value
        self._lo: int | None = None  # floor of the expansion
        if base.vars.n > 1:
            raise ValueError("the spectral engine works over F2 or a single F2[u]")
        if base.vars.n:
            axis = int(base.convention == CONV_KH)
            step = base.ustep()[axis]
            vals = base.q if axis else base.h
            top, bot = max(vals, default=0), min(vals, default=0)
            self.trusted_floor = bot - (top - bot) - 4 * step - 2 - self.extra_depth
            self._lo = self.trusted_floor - 2 * step
        self._expansion: Expansion | None = None
        # jump-1 pairs of slots taken out by cancel_units(), per
        # (source grade, target grade), trusted sources only
        self.cancelled: dict[tuple[Grade, Grade], int] = {}

    def cancel_units(self) -> FilteredComplex:
        """The same filtered complex with its jump-1 unit pairs cancelled.

        ``complexes.cancel_units`` with the levels keeps E_r for r >= 2 and
        E_inf by level on the trusted grades (its docstring has the
        argument).  The result keeps this complex's trusted floor and
        window, which come from the span of the unreduced generators, and
        counts the cancelled pairs' u-translates with a trusted source in
        ``cancelled``, which `analyze` passes on to E_1 and d_1.  The
        unreduced window is held to ``MAX_EXPANSION_SLOTS`` first, so the
        reduction admits and refuses the same inputs as the expansion.  A
        complex without variables, or with no jump-1 unit, is returned as
        it is.
        """
        base = self.base
        if not base.vars.n:
            return self
        check_expansion_size(base, self._lo)
        pairs: list[tuple[int, int, int]] = []
        core = cancel_units(base, self.levels, pairs)
        if not pairs:
            return self
        out = FilteredComplex(core, self.levels, self.extra_depth)
        out.trusted_floor, out._lo = self.trusted_floor, self._lo
        out.cancelled = _translates(base, pairs, self.trusted_floor)
        return out

    def expansion(self) -> Expansion:
        """The slots `analyze` and `converge` read, built on first use and kept.

        They reach two u-steps below the trusted floor, so every trusted
        slot's differential stays inside.  Within a block, slots run in
        reverse of the reduction order (level descending, then gid), so a
        column's bit p stands for the row p-th from the end of that order.
        """
        if self._expansion is None:
            ids, level = self.base.ids, self.level
            order = sorted(range(len(ids)), reverse=True, key=lambda i: (-level[i], ids[i]))
            self._expansion = Expansion(self.base, self._lo, order)
        return self._expansion


def _translates(cx: ChainComplex, pairs: list[tuple[int, int, int]],
                floor: int) -> dict[tuple[Grade, Grade], int]:
    """The slot pairs u^j x -> u^j y of the generator pairs (x, y, 0), by
    position, whose source slice value is at least floor, counted per
    (source grade, target grade); one walk down the window per distinct pair
    of grades."""
    axis = int(cx.convention == CONV_KH)
    step = cx.ustep()
    flip = cx.vars.units[0] % 2  # alex2 weight of one power of u
    counts = Counter((cx.grade_at(x), cx.grade_at(y)) for x, y, _ in pairs)

    def shift(grade: Grade, j: int) -> Grade:
        head = tuple(g - j * s for g, s in zip(grade, step))
        return head + tuple((a + j * flip) % 2 for a in grade[len(step):])

    out: dict[tuple[Grade, Grade], int] = {}
    for (src, tgt), count in counts.items():
        for j in range((src[axis] - floor) // step[axis] + 1):
            key = (shift(src, j), shift(tgt, j))
            out[key] = out.get(key, 0) + count
    return out


@dataclass
class SpectralData:
    slots: Expansion
    level: list[int]  # filtration level per generator position
    events: list[PairEvent]
    survivors: list[int]  # unpaired slots
    trusted_floor: int | None  # minimal trusted slice value (None = everything)
    # jump-1 pairs cancelled before the expansion, per (source grade, target
    # grade) with a trusted source (FilteredComplex.cancel_units)
    cancelled: dict[tuple[Grade, Grade], int] = field(default_factory=dict)

    def _trusted(self, grade: Grade) -> bool:
        if self.trusted_floor is None:
            return True
        return grade[self.slots.axis] >= self.trusted_floor

    def max_jump(self) -> int:
        return max((e.jump for e in self.events), default=int(bool(self.cancelled)))

    def page_dims(self, r: int) -> dict[Grade, int]:
        grade = self.slots.grade
        dims: dict[Grade, int] = {}

        def bump(g: Grade) -> None:
            if self._trusted(g):
                dims[g] = dims.get(g, 0) + 1

        for s in self.survivors:
            bump(grade[s])
        for e in self.events:
            if e.jump >= r:
                bump(grade[e.x])
                bump(grade[e.y])
        if r == 1:
            for pair, count in self.cancelled.items():
                for g in pair:
                    if self._trusted(g):
                        dims[g] = dims.get(g, 0) + count
        return dict(sorted(dims.items()))

    def d_ranks(self, r: int) -> dict[tuple[Grade, Grade], int]:
        grade = self.slots.grade
        out: dict[tuple[Grade, Grade], int] = {}
        for e in self.events:
            y, x = grade[e.y], grade[e.x]
            if e.jump == r and (self._trusted(y) or self._trusted(x)):
                out[(y, x)] = out.get((y, x), 0) + 1
        if r == 1:
            for pair, count in self.cancelled.items():
                out[pair] = out.get(pair, 0) + count
        return dict(sorted(out.items()))

    def einf_by_level(self) -> dict[tuple[Grade, int], int]:
        grade, gen = self.slots.grade, self.slots.gen
        out: dict[tuple[Grade, int], int] = {}
        for s in self.survivors:
            if self._trusted(grade[s]):
                key = (grade[s], self.level[gen[s]])
                out[key] = out.get(key, 0) + 1
        return dict(sorted(out.items()))


@dataclass(frozen=True)
class SpectralPage:
    r: int
    dims: dict[Grade, int]
    d_ranks: dict[tuple[Grade, Grade], int]


def _source_first(exp: Expansion) -> list[Grade]:
    """The grades of the blocks, each before the block it lands in.

    Every block lands on the same side of itself in the grade order (above
    it in the kh convention, below it in the floer one), so one of the two
    sorted orders is source first.
    """
    grades = list(exp.blocks)
    if any(tgt > grade for grade, tgt in exp.lands.items()):
        return grades
    return grades[::-1]


def analyze(fc: FilteredComplex) -> SpectralData:
    """Run the level-respecting reduction and collect the pairing data.

    Each trusted block is paired against the block its differential lands
    in; the pairing of a block-diagonal matrix is the union of the block
    pairings.  Columns are reduced in order (level descending, then gid),
    the reverse of the slot order, so the persistence "low" of a column
    (its last row in that order) is the eliminator's lowest set bit.

    Blocks are visited source first, so a block's targets are known before
    it is reduced, and a target goes to the zero columns uninserted
    (clearing).  A target x is the lowest bit of a boundary whose other bits
    are higher slots of its block; those are reduced before x, and x's
    column is the sum of theirs, so the pairing is the one without clearing.
    The jump-1 pairs that ``fc.cancel_units()`` took out ride along in
    ``cancelled``.
    """
    exp = fc.expansion()
    floor, level = fc.trusted_floor, fc.level
    cols, gen, blocks = exp.cols, exp.gen, exp.blocks
    events: list[PairEvent] = []
    zero: list[int] = []
    targets: set[int] = set()
    for grade in _source_first(exp):
        if floor is not None and grade[exp.axis] < floor:
            continue
        tgt = exp.lands.get(grade)
        start = blocks[tgt].start if tgt is not None else 0
        space = gf2.ColumnSpace()
        for s in reversed(blocks[grade]):
            if s in targets:
                zero.append(s)
                continue
            vec = cols[s]
            if vec is None:
                raise AssertionError("differential of slot %d leaves the expansion" % s)
            lead = space.insert_lead(vec)
            if lead < 0:
                zero.append(s)
            else:
                x = start + lead
                targets.add(x)
                events.append(PairEvent(s, x, level[gen[x]] - level[gen[s]]))
    if not targets.isdisjoint(e.y for e in events):
        raise AssertionError("paired target with nonzero column")
    if any(e.jump <= 0 for e in events):
        raise AssertionError("nonpositive level jump in pairing")
    survivors = [s for s in zero if s not in targets]
    return SpectralData(exp, level, events, survivors, floor, fc.cancelled)


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


def check_constraints(pages_list: list[SpectralPage]) -> ConstraintReport:
    """Check d_k bidegrees (2k-2, k), vanishing of even pages, q/2 parity."""
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


def _graded_homology_dims(
    fc: FilteredComplex, floor: int | None
) -> dict[tuple[Grade, int], int]:
    """Dimension of the image in homology of the cycles of each level and
    above, per grade, as the increments from one level to the next.

    The slots of level >= lvl are the last k of their block, so their cycles
    number k minus the rank of their columns, and the boundaries among them
    number the boundary basis vectors whose lowest set bit is >= len - k.
    Blocks are visited source first, and each block's image leads are kept
    as the boundary leads of the block it lands in, so every column is
    reduced once.  A column at a boundary lead is in the span of the columns
    before it (the clearing argument of `analyze`), so it is not inserted.
    """
    exp = fc.expansion()
    cols, gen, blocks, level = exp.cols, exp.gen, exp.blocks, fc.level
    bound_leads: dict[Grade, set[int]] = {}  # block -> image leads of its source
    out: dict[tuple[Grade, int], int] = {}
    for grade in _source_first(exp):
        if floor is not None and grade[exp.axis] < floor:
            continue
        blk = blocks[grade]
        leads = bound_leads.pop(grade, set())
        if None in cols[blk.start:blk.stop]:
            continue  # bottom window edge; not reported
        image = gf2.ColumnSpace()
        bound = 0  # boundary leads among the last k slots
        dims_by_level: dict[int, int] = {}
        for k, s in enumerate(reversed(blk), 1):
            if len(blk) - k in leads:
                bound += 1
            else:
                image.insert_lead(cols[s])
            dims_by_level[level[gen[s]]] = k - image.rank - bound
        tgt = exp.lands.get(grade)
        if tgt is not None:
            bound_leads[tgt] = set(image.pivots)
        above = 0
        for lvl, dim in dims_by_level.items():  # levels descending
            if dim > above:
                out[(grade, lvl)] = dim - above
            above = dim
    return dict(sorted(out.items()))
