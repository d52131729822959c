"""The presentation route to F2[u] homology, kept in the tests as a
reference: the cycles and boundaries of d by column reduction, then the
cokernel decomposed.  The package computes homology with umod.eliminate
alone.  dense_decompose of a cube's presentation shares no elimination with
it (test_complexes.reference_decomposition), and decompose runs a
presentation through eliminate as a two-term complex, so the random
families check eliminate's torsion pairs against the same dense scan."""

import random

import pytest

from skeinseq import khovanov as kh
from skeinseq.gf2 import matrix_rank
from skeinseq.umod import (
    ModuleDecomposition,
    MonoVec,
    Summand,
    eliminate,
    vec_add_shifted,
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
    homology is decompose(len(basis), coords, grades, step).
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


def decompose(n_gens: int, relations: list[MonoVec], grades: list[tuple[int, ...]],
              u_grade_step: tuple[int, ...]) -> ModuleDecomposition:
    """Smith-style decomposition of coker(relations) over F2[u].

    relations are columns {generator: exponent}; grades are per-generator
    grading tuples, and u lowers a grade by u_grade_step.  Every relation
    column is checked to be homogeneous.  eliminate runs the two-term free
    complex relations -> generators to the end: a generator left spans a
    free summand, and a pair relation --u^k--> generator spans u^k torsion
    at that generator's grade, or kills the generator if k = 0.
    """
    cols: dict[int, MonoVec] = {}
    for j, col in enumerate(relations, n_gens):
        seen = None
        for row, e in col.items():
            if len(col) > 1:  # one entry is homogeneous on its own
                g = [x - e * s for x, s in zip(grades[row], u_grade_step)]
                if seen is None:
                    seen = g
                elif seen != g:
                    raise ValueError("non-homogeneous presentation column: %r" % (col,))
        cols[j] = dict(col)
    pairs: list[tuple[int, int, int]] = []
    eliminate(cols, n_gens + len(relations), cancelled=pairs)
    pivots: dict[int, int] = {}
    for _, y, k in pairs:
        pivots[y] = k
    return ModuleDecomposition([Summand(pivots.get(g), grades[g], g)
                                for g in range(n_gens) if pivots.get(g) != 0])


def dense_decompose(n_gens, relations, grades_list, u_grade_step):
    """Reference decompose: a full scan of every live row per pivot.

    The pivot is the least (e, r, c) over live entries; its column is cleared
    by row operations and its row by column operations over every live row.
    The inverse of the change of basis is kept as a dense matrix, and each
    summand's grade is read off its column of it.
    """
    mat = [dict() for _ in range(n_gens)]
    for j, col in enumerate(relations):
        for row, e in col.items():
            mat[row][j] = e
    inverse = [{i: 0} for i in range(n_gens)]
    live_rows = set(range(n_gens))
    live_cols = set(range(len(relations)))
    pivots = {}

    def col_op(m, dst, src, shift):
        for row in m:
            if src in row:
                vec_add_shifted(row, {dst: row[src] + shift}, 0)

    while True:
        best = None
        for r in sorted(live_rows):
            for c, e in mat[r].items():
                if c in live_cols and (best is None or (e, r, c) < best):
                    best = (e, r, c)
        if best is None:
            break
        e, r, c = best
        for r2 in sorted(live_rows):
            e2 = mat[r2].get(c)
            if r2 == r or e2 is None:
                continue
            vec_add_shifted(mat[r2], mat[r], e2 - e)
            col_op(inverse, r, r2, e2 - e)
        for c2 in sorted(live_cols):
            e2 = mat[r].get(c2)
            if c2 == c or e2 is None:
                continue
            col_op([mat[row] for row in sorted(live_rows)], c2, c, e2 - e)
        pivots[r] = e
        live_rows.discard(r)
        live_cols.discard(c)

    summands = []
    for r in range(n_gens):
        j = next(j for j in range(n_gens) if r in inverse[j])
        grade = tuple(x - inverse[j][r] * s for x, s in zip(grades_list[j], u_grade_step))
        if pivots.get(r) != 0:
            summands.append(Summand(pivots.get(r), grade, r))
    summands.sort(key=lambda s: (s.grades, s.order is None, s.order or 0, s.index))
    return summands


def cube_presentation(cx):
    """decompose's arguments for the homology of a whole one-variable
    complex: its cycles, and every boundary in them."""
    step = cx.ustep()
    basis, coords, grades = homology_presentation(
        [dict(c) for c in cx.cols], [], [cx.grade_at(i, True) for i in range(cx.n)], step)
    return len(basis), coords, grades, step


STEP = (1,)


def grades(n, start=0):
    return [(start,) for _ in range(n)]


def test_single_relation():
    # generators a, b with one relation u*a: free rank 1 plus one u-torsion
    dec = decompose(2, [{0: 1}], [(0,), (0,)], STEP)
    assert dec.free_rank == 1
    assert dec.torsion == [1]


def test_zero_and_identity_relations():
    dec = decompose(3, [], grades(3), STEP)
    assert dec.free_rank == 3 and dec.torsion == []
    dec = decompose(2, [{0: 0}, {1: 0}], grades(2), STEP)
    assert dec.free_rank == 0 and dec.torsion == []


def test_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        decompose(2, [{0: 1, 1: 2}], [(0,), (0,)], STEP)


def brute_window_dims(n_gens, relations, grades_list, window):
    """F2 dimension of the truncated cokernel, by dense elimination.

    Expand every generator into `window` u-power slots and every relation
    column into its u-multiples, then count rank over F2.
    """
    slots = {}
    for g in range(n_gens):
        for j in range(window):
            slots[(g, j)] = len(slots)
    cols = []
    for col in relations:
        for shift in range(window):
            vec = 0
            ok = True
            for row, e in col.items():
                j = e + shift
                if j < window:
                    vec ^= 1 << slots[(row, j)]
            cols.append(vec)
    rank = matrix_rank(cols, len(slots))
    return len(slots) - rank


def equal_grade_family():
    """Random presentations on generators of one grade."""
    rng = random.Random(20250101)
    for _ in range(120):
        n = rng.randrange(1, 5)
        rels = []
        for _ in range(rng.randrange(4)):
            col = {}
            deg = rng.randrange(4)
            for row in range(n):
                if rng.random() < 0.6:
                    col[row] = deg  # same grade rows: homogeneous with equal exps
            if col:
                rels.append(col)
        yield n, rels, grades(n), STEP


def test_window_dims_against_bruteforce():
    for n, rels, _, _ in equal_grade_family():
        dec = decompose(n, rels, grades(n), STEP)
        for window in (1, 2, 5, 8):
            window_dim = sum(window if s.free else min(s.order, window)
                             for s in dec.summands)
            assert window_dim == brute_window_dims(n, rels, grades(n), window)


def test_row_column_order_invariance():
    rng = random.Random(7)
    base_rels = [{0: 2}, {1: 1, 2: 1}, {0: 1, 1: 1}]
    base = decompose(3, base_rels, grades(3), STEP)
    for _ in range(10):
        perm = list(range(3))
        rng.shuffle(perm)
        rels = [{perm[r]: e for r, e in col.items()} for col in base_rels]
        rng.shuffle(rels)
        dec = decompose(3, rels, grades(3), STEP)
        assert dec.free_rank == base.free_rank
        assert dec.torsion == base.torsion


def test_grade_anchoring():
    # relation u * a with a in grade 5: torsion anchored at grade 5
    dec = decompose(2, [{0: 1}], [(5,), (3,)], STEP)
    table = dec.by_grading()
    assert table[(5,)] == (0, [1])
    assert table[(3,)] == (1, [])


def test_reduce_columns_kernel_is_exact():
    rng = random.Random(11)
    for _ in range(100):
        n = rng.randrange(1, 5)
        cols = []
        for _ in range(rng.randrange(1, 5)):
            deg = rng.randrange(3)
            col = {r: deg for r in range(n) if rng.random() < 0.5}
            cols.append(col)
        pivots, kernel = reduce_columns([dict(c) for c in cols])
        # every kernel log really combines to zero
        for log in kernel:
            acc = {}
            for j, e in log.items():
                for row, ee in cols[j].items():
                    key = row
                    val = ee + e
                    if acc.get(key) == val:
                        del acc[key]
                    else:
                        assert key not in acc
                        acc[key] = val
            assert acc == {}
        # rank-nullity over the fraction field
        assert len(pivots) + len(kernel) == len(cols)


def test_solve_in_echelon():
    basis = echelonize([{0: 0, 1: 1}, {1: 0}])
    coords = solve_in_echelon(basis, {0: 2, 1: 3})
    acc = {}
    for i, e in coords.items():
        for row, ee in basis[i].items():
            val = ee + e
            if acc.get(row) == val:
                del acc[row]
            else:
                acc[row] = val
    assert acc == {0: 2, 1: 3}
    with pytest.raises(ArithmeticError):
        solve_in_echelon(basis, {2: 0})


def mixed_grade_family(seed=314159, count=120, max_gens=4, max_rels=3):
    """Random homogeneous presentations with distinct row grades."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(1, max_gens + 1)
        row_grades = [(rng.randrange(4),) for _ in range(n)]
        rels = []
        for _ in range(rng.randrange(max_rels + 1)):
            tgrade = rng.randrange(-2, 3)
            col = {}
            for r in range(n):
                e = row_grades[r][0] - tgrade
                if e >= 0 and rng.random() < 0.6:
                    col[r] = e
            if col:
                rels.append(col)
        yield n, rels, row_grades, STEP


def test_mixed_grade_homogeneous_random():
    """Random homogeneous presentations with distinct row grades."""
    for n, rels, row_grades, _ in mixed_grade_family():
        dec = decompose(n, rels, row_grades, (1,))
        # brute-force slot expansion anchored per grade, window below all grades
        lo = min(g[0] for g in row_grades) - 6
        hi = max(g[0] for g in row_grades)
        slots = {}
        for r in range(n):
            for v in range(lo, row_grades[r][0] + 1):
                slots[(r, v)] = len(slots)
        cols = []
        for col in rels:
            for shift in range(0, hi - lo + 1):
                vec = 0
                usable = True
                for r, e in col.items():
                    v = row_grades[r][0] - e - shift
                    if v < lo:
                        usable = False
                        break
                    vec ^= 1 << slots[(r, v)]
                if usable and vec:
                    cols.append(vec)
        rank = matrix_rank(cols, len(slots))
        brute_total = len(slots) - rank
        want = 0
        for s in dec.summands:
            depth = s.grades[0] - lo + 1
            if s.free:
                want += max(0, depth)
            else:
                want += max(0, min(s.order, depth))
        assert brute_total == want, (rels, row_grades, dec.summands)


@pytest.fixture(scope="module")
def presentations():
    """The random families and the presentations of five minus cubes."""
    families = [equal_grade_family(), mixed_grade_family()]
    families += [mixed_grade_family(seed=2718, count=300, max_gens=7, max_rels=6)]
    diagrams = [kh.cyclic_knot(n) for n in (3, 5, 7)]
    diagrams += [kh.parse_pd("PD[X(4,2,5,1),X(8,6,1,5),X(6,3,7,4),X(2,7,3,8)]")]
    diagrams += [kh.unlink(3)]
    cube_calls = [cube_presentation(kh.ckh(d).complex) for d in diagrams]
    return [args for family in families for args in family] + cube_calls


def test_sparse_decompose_matches_dense_reference(presentations):
    """The (grades, order) of the summands equal the dense scan's, and each
    summand is anchored at its own generator row, of its grade.  The rows
    themselves may differ: the dense scan pivots on the least (e, r, c),
    the elimination on the target with the fewest incoming entries, and
    either row spans an isomorphic summand."""
    for args in presentations:
        n_gens, _, grades_list, _ = args
        got = decompose(*args).summands
        assert [(s.grades, s.order) for s in got] == [
            (s.grades, s.order) for s in dense_decompose(*args)], args
        anchors = [s.index for s in got]
        assert len(set(anchors)) == len(anchors) and set(anchors) <= set(range(n_gens))
        assert all(grades_list[s.index] == s.grades for s in got), args


def test_echelon_basis_lead_index():
    basis = echelonize([{2: 1, 3: 0}, {0: 0, 1: 1}, {1: 0}])
    assert [min(v) for v in basis.vecs] == [0, 1, 2]
    assert basis.lead == {0: 0, 1: 1, 2: 2}
    assert len(echelonize([])) == 0
