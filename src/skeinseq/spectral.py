"""Spectral sequences of filtered complexes over F2 and F2[u].

The engine reads the complex through its F2 expansion
(``complexes.Expansion``): the slots u^j g, one block per grading.  The
differential maps each block into one other block, so a deterministic
persistence-style column reduction per block computes the page data exactly:
a pair (x, y) with level jump k means the class of y kills the class of x on
page k, and unpaired slots survive to the limit page.  Reported dimensions are
windowed at a trusted floor.

Only the top of the window is built.  A block whose slice value lies below
every generator's holds every generator of its class (the grades one u-step
apart), in the same order as the block one u-step above it, with the same
levels.  Once a block, the block its differential leaves from and the block
it lands in all lie below every generator, the blocks of that class one, two,
... u-steps lower have the same columns and the same clearing, so the same
pairs, jumps, survivors and ranks, at grades shifted by u (h or q down one
step, alex2 flipped by the weight of u).  The expansion stops under the first
such block of each class (``FilteredComplex.period_floor``), and each result
of those blocks is counted again for every u-translate down to the trusted
floor (`_unroll`).  The tallies per grade are what the pages, d_r ranks and
E_inf read.

Both `analyze` and `converge` visit the blocks source first, each block
before the block it lands in, and use clearing (the "twist" of Chen and
Kerber): a slot that is the lowest bit of a boundary has a column that
reduces to zero, so it is never inserted.

`FilteredComplex.cancel_units` first cancels the unit entries that raise
the level by exactly one (Gaussian elimination, which keeps every page from
E_2 on); the cancelled pairs come back into E_1 and d_1 as counts per grade,
at the grades of the expansion's blocks (alex2 taken mod 2).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import cycle, islice, repeat
from math import inf
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


def check_ring(cx: ChainComplex) -> None:
    """Refuse a complex over more than one variable, which the spectral
    engine does not handle."""
    if cx.vars.n > 1:
        raise ValueError("the spectral engine works over F2 or a single F2[u]")


class PairEvent(NamedTuple):
    y: int  # slot of the source of the differential (lower filtration level)
    x: int  # slot of the target (higher level)
    jump: int  # level of x minus level of y


class FilteredComplex:
    """A chain complex with a level per generator (``levels`` by id, ``level``
    by position); entries raise the level.

    extra_depth widens the reported grading window (the engine itself is
    exact; the override only deepens how far the tables run); it is at least 0.
    """

    def __init__(self, base: ChainComplex, levels: dict[str, int],
                 extra_depth: int = 0) -> None:
        if extra_depth < 0:
            raise ValueError("extra_depth must be at least 0, not %d" % extra_depth)
        self.base, self.extra_depth = base, extra_depth
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
        self._lo: int | None = None  # floor of the whole window, counted but not built
        # the lowest slice value analysed: the blocks from it up one u-step
        # are the first periodic block of each class
        self.period_floor: int | None = None
        check_ring(base)
        if base.vars.n:
            axis = int(base.convention == CONV_KH)
            step = base.ustep()[axis]
            vals = base.q if axis else base.h
            top, bot = max(vals, default=0), min(vals, default=0)
            self.trusted_floor = bot - (top - bot) - 4 * step - 2 - self.extra_depth
            self._lo = self.trusted_floor - 2 * step
            # A block at slice value v leaves from and lands in the blocks at
            # v + 1 and v - 1 (floer) or at v itself (kh); all three lie below
            # every generator once v <= bot - 2 + axis: the one u-step of
            # slice values up to it holds the first periodic blocks.
            self.period_floor = bot - 1 + axis - step
        self._expansion: Expansion | None = None
        # jump-1 pairs of slots taken out by cancel_units(), per
        # (source grade, target grade), trusted sources only
        self.cancelled: dict[tuple[Grade, Grade], int] = {}

    def cancel_units(self) -> FilteredComplex:
        """The same filtered complex with its jump-1 unit pairs cancelled.

        ``complexes.cancel_units`` with the levels keeps E_r for r >= 2 and
        E_inf by level on the trusted grades (``umod.eliminate`` has the
        argument).  The result keeps this complex's trusted floor and
        window, which come from the span of the unreduced generators, and
        counts the cancelled pairs' u-translates with a trusted source in
        ``cancelled``, which `analyze` passes on to E_1 and d_1.  The
        unreduced window is held to ``MAX_EXPANSION_SLOTS`` first, so the
        reduction admits and refuses the same inputs as the expansion.  A
        complex without variables, or with no jump-1 unit (a scan of its
        columns, before any copy), is returned as it is.
        """
        base = self.base
        if not base.vars.n:
            return self
        check_expansion_size(base, self._lo)
        level = self.level
        if not any(not e and level[t] == level[s] + 1
                   for s, col in enumerate(base.cols) for t, e in col.items()):
            return self
        pairs: list[tuple[int, int, int]] = []
        core = cancel_units(base, level, pairs)  # cancels at least the first unit found
        out = FilteredComplex(core, self.levels, self.extra_depth)
        out.trusted_floor, out._lo = self.trusted_floor, self._lo
        # every generator pair repeats at each u-step below it
        grades = Counter((base.grade_at(x), base.grade_at(y)) for x, y, _ in pairs)
        out.cancelled = _unroll(self, grades, inf)
        return out

    def expansion(self) -> Expansion:
        """The top of the slot window that `analyze` and `converge` read,
        built on first use and kept.

        It runs down to the lowest analysed blocks, at ``period_floor``, and
        the blocks they land in (one slice value lower in floer).  The whole
        window, which reaches two u-steps below the trusted floor so that
        every trusted slot's differential stays inside, is held to
        ``MAX_EXPANSION_SLOTS`` but never built.
        The blocks from ``period_floor`` up one u-step, and their source and
        target blocks, lie strictly below every generator's slice value, so
        they hold every generator of their class, and so does every block of
        the class below them: those repeat their columns and levels exactly,
        one u-step down each, and `analyze` and `converge` count the results
        of the first periodic blocks again at each translate (`_unroll`)
        instead of building them.  Within a block, slots run in reverse of
        the reduction order (level descending, then gid), so a column's bit
        p stands for the row p-th from the end of that order.
        """
        if self._expansion is None:
            ids, level = self.base.ids, self.level
            order = sorted(range(len(ids)), reverse=True, key=lambda i: (-level[i], ids[i]))
            floor = self._lo
            if floor is not None:
                check_expansion_size(self.base, floor)
                floor = self.period_floor - 1 + int(self.base.convention == CONV_KH)
            self._expansion = Expansion(self.base, floor, order)
        return self._expansion


def _unroll(fc: FilteredComplex, counts: Counter, top: float | None = None) -> Counter:
    """counts keyed by tuples led by a grade of ``fc.base``, over the whole
    trusted window: each key whose grade has slice value at most top (by
    default the highest of a first periodic block, one u-step less one above
    ``fc.period_floor``) counted at its u-translates u^j, j >= 0, that keep
    the slice value at least the trusted floor, and every other key once.
    Every grade in a key shifts (h or q down j steps, alex2 flipped j times
    by the weight of u and taken mod 2, as the expansion's blocks hold it);
    its other entries, jumps and levels, stay.  Each grade's translates are
    spelled once per call and count.  Without a variable there is nothing to
    translate."""
    cx, floor = fc.base, fc.trusted_floor
    if floor is None:
        return counts
    axis = int(cx.convention == CONV_KH)
    step = cx.ustep()
    if top is None:
        top = fc.period_floor + step[axis] - 1
    flip = cx.vars.units[0] % 2
    width = len(step)
    spelled: dict[tuple[Grade, int], list[Grade]] = {}  # (grade, count) -> its translates

    def translates(grade: Grade, n: int) -> list[Grade]:
        got = spelled.get((grade, n))
        if got is None:
            parts = [range(g, g - n * s, -s) if s else repeat(g, n) for g, s in zip(grade, step)]
            parts += [islice(cycle((a % 2, (a + flip) % 2)), max(n, 0)) for a in grade[width:]]
            got = spelled[grade, n] = list(zip(*parts))
        return got

    out: Counter = Counter()
    get = out.get  # not out[k] += count: a missing key would call Counter.__missing__
    for key, count in counts.items():
        v = key[0][axis]
        n = (v - floor) // step[axis] + 1 if v <= top else 1
        for k in zip(*[translates(g, n) if type(g) is tuple else repeat(g, n) for g in key]):
            out[k] = get(k, 0) + count
    return out


@dataclass
class SpectralData:
    """The pairing of a filtered complex: ``events`` and ``survivors`` are
    the slots of the built window ``slots``; ``pairs`` counts the pairs of
    the whole trusted window per (source grade, target grade, jump), the
    jump-1 pairs that cancel_units took out among them, and ``einf`` its
    survivors per (grade, level).  Every source and survivor is trusted."""

    slots: Expansion
    level: list[int]  # filtration level per generator position
    events: list[PairEvent]
    survivors: list[int]  # unpaired slots
    trusted_floor: int | None  # minimal trusted slice value (None = everything)
    pairs: dict[tuple[Grade, Grade, int], int]
    einf: dict[tuple[Grade, int], int]

    def _trusted(self, grade: Grade) -> bool:
        if self.trusted_floor is None:
            return True
        return grade[self.slots.axis] >= self.trusted_floor

    def max_jump(self) -> int:
        return max((jump for _, _, jump in self.pairs), default=0)

    def page_dims(self, r: int) -> dict[Grade, int]:
        dims: Counter = Counter()
        for (grade, _), count in self.einf.items():
            dims[grade] += count
        for (y, x, jump), count in self.pairs.items():
            if jump >= r:
                dims[y] += count
                if self._trusted(x):
                    dims[x] += count
        return dict(sorted(dims.items()))

    def d_ranks(self, r: int) -> dict[tuple[Grade, Grade], int]:
        out: Counter = Counter()
        for (y, x, jump), count in self.pairs.items():
            if jump == r:
                out[(y, x)] += count
        return dict(sorted(out.items()))

    def einf_by_level(self) -> dict[tuple[Grade, int], int]:
        return dict(sorted(self.einf.items()))


@dataclass(frozen=True)
class SpectralPage:
    r: int
    dims: dict[Grade, int]
    d_ranks: dict[tuple[Grade, Grade], int]


def analyze(fc: FilteredComplex) -> SpectralData:
    """Run the level-respecting reduction and collect the pairing data.

    Each block from ``fc.period_floor`` up is paired against the block its
    differential lands in; the pairing of a block-diagonal matrix is the
    union of the block pairings, and the blocks below are u-translates of
    the lowest ones (`_unroll`).  Columns are reduced in order (level
    descending, then gid), the reverse of the slot order, so the persistence
    "low" of a column (its last row in that order) is the eliminator's
    lowest set bit.

    Blocks are visited source first, so a block's targets are known before
    it is reduced, and a target goes to the zero columns uninserted
    (clearing).  A target x is the lowest bit of a boundary whose other bits
    are higher slots of its block; those are reduced before x, and x's
    column is the sum of theirs, so the pairing is the one without clearing.
    The jump-1 pairs that ``fc.cancel_units()`` took out are counted with
    the other jump-1 pairs.
    """
    exp = fc.expansion()
    low, level = fc.period_floor, fc.level
    cols, gen, blocks = exp.cols, exp.gen, exp.blocks
    events: list[PairEvent] = []
    zero: list[int] = []
    targets: set[int] = set()
    for grade in exp.source_first():
        if low is not None and grade[exp.axis] < low:
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
    at = exp.grade
    pairs = _unroll(fc, Counter((at[e.y], at[e.x], e.jump) for e in events))
    for (y, x), count in fc.cancelled.items():
        pairs[(y, x, 1)] += count
    einf = _unroll(fc, Counter((at[s], level[gen[s]]) for s in survivors))
    return SpectralData(exp, level, events, survivors, fc.trusted_floor, pairs, einf)


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


def check_constraints(pages_list: list[SpectralPage],
                      floor: int | None = None) -> ConstraintReport:
    """Check d_k bidegrees (2k-2, k), vanishing of even pages, q/2 parity.

    Given floor, only the d_k whose source q is at least floor are read, so
    that a window widened by extra_depth, which adds the u-translates of the
    same differentials below it, reports the same violations.
    """
    violations: list[ConstraintViolation] = []
    for page in pages_list:
        k = page.r
        for (src, tgt), count in page.d_ranks.items():
            if not count or floor is not None and len(src) > 1 and src[1] < floor:
                continue
            if len(src) < 2 or len(tgt) < 2:
                violations.append(ConstraintViolation(k, src, tgt, "missing (q,h) bigrading"))
                continue
            (h_s, q_s), (h_t, q_t) = src, tgt
            dq, dh = q_t - q_s, h_t - h_s
            for bad, reason in (((dq, dh) != (2 * k - 2, k),
                                 "bidegree (%d,%d) != (2k-2,k)" % (dq, dh)),
                                (k % 2 == 0, "nonzero even-page differential"),
                                ((dq // 2) % 2 != 0, "q/2 parity not preserved")):
                if bad:
                    violations.append(ConstraintViolation(k, src, tgt, reason))
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
    gr = _graded_homology_dims(fc)
    mismatches = []
    for key in sorted(set(einf) | set(gr)):
        a, b = einf.get(key, 0), gr.get(key, 0)
        if a != b:
            mismatches.append((key, a, b))
    return ConvergenceReport(einf, gr, mismatches)


def _graded_homology_dims(fc: FilteredComplex) -> dict[tuple[Grade, int], int]:
    """Dimension of the image in homology of the cycles of each level and
    above, per trusted grade, as the increments from one level to the next.

    The slots of level >= lvl are the last k of their block, so their cycles
    number k minus the rank of their columns, and the boundaries among them
    number the boundary basis vectors whose lowest set bit is >= len - k.
    Blocks are visited source first, and each block's image leads are kept
    as the boundary leads of the block it lands in, so every column is
    reduced once.  A column at a boundary lead is in the span of the columns
    before it (the clearing argument of `analyze`), so it is not inserted.
    As in `analyze`, the blocks below ``fc.period_floor`` are u-translates
    of the lowest ones, and their increments are counted from those.
    """
    exp = fc.expansion()
    cols, gen, blocks, level = exp.cols, exp.gen, exp.blocks, fc.level
    low = fc.period_floor
    bound_leads: dict[Grade, set[int]] = {}  # block -> image leads of its source
    out: Counter = Counter()
    for grade in exp.source_first():
        if low is not None and grade[exp.axis] < low:
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
    return dict(sorted(_unroll(fc, out).items()))
