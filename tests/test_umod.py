import random

import pytest

from skeinseq import infer
from skeinseq import khovanov as kh
from skeinseq.gf2 import matrix_rank
from skeinseq.umod import (
    Summand,
    echelonize,
    homology_presentation,
    module_decompose,
    reduce_columns,
    solve_in_echelon,
    vec_add_shifted,
)

STEP = (1,)


def grades(n, start=0):
    return [(start,) for _ in range(n)]


def test_single_relation():
    # generators a, b with one relation u*a: free rank 1 plus one u-torsion
    dec = module_decompose(2, [{0: 1}], [(0,), (0,)], STEP)
    assert dec.free_rank == 1
    assert dec.torsion == [1]


def test_zero_and_identity_relations():
    dec = module_decompose(3, [], grades(3), STEP)
    assert dec.free_rank == 3 and dec.torsion == []
    dec = module_decompose(2, [{0: 0}, {1: 0}], grades(2), STEP)
    assert dec.free_rank == 0 and dec.torsion == []


def test_rejects_inhomogeneous():
    with pytest.raises(ValueError):
        module_decompose(2, [{0: 1, 1: 2}], [(0,), (0,)], STEP)


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
        dec = module_decompose(n, rels, grades(n), STEP)
        for window in (1, 2, 5, 8):
            window_dim = sum(window if s.free else min(s.order, window)
                             for s in dec.summands)
            assert window_dim == brute_window_dims(n, rels, grades(n), window)


def test_row_column_order_invariance():
    rng = random.Random(7)
    base_rels = [{0: 2}, {1: 1, 2: 1}, {0: 1, 1: 1}]
    base = module_decompose(3, base_rels, grades(3), STEP)
    for _ in range(10):
        perm = list(range(3))
        rng.shuffle(perm)
        rels = [{perm[r]: e for r, e in col.items()} for col in base_rels]
        rng.shuffle(rels)
        dec = module_decompose(3, rels, grades(3), STEP)
        assert dec.free_rank == base.free_rank
        assert dec.torsion == base.torsion


def test_grade_anchoring():
    # relation u * a with a in grade 5: torsion anchored at grade 5
    dec = module_decompose(2, [{0: 1}], [(5,), (3,)], STEP)
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
        dec = module_decompose(n, rels, row_grades, (1,))
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


def dense_decompose(n_gens, relations, grades_list, u_grade_step):
    """Reference module_decompose: a full scan of every live row per pivot.

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


def recorded_presentations(monkeypatch, module, run):
    """Arguments of every module_decompose call that module makes in run()."""
    calls = []

    def record(*args):
        calls.append(args)
        return module_decompose(*args)

    monkeypatch.setattr(module, "module_decompose", record)
    run()
    monkeypatch.undo()
    return calls


def cube_presentation(cx):
    """module_decompose's arguments for the homology of a whole one-variable
    complex: its cycles, and every boundary in them."""
    step = cx.ustep()
    basis, coords, grades = homology_presentation(
        cx.exponent_columns(), [], [cx.ugrade(g.gid) for g in cx.gens], step)
    return len(basis), coords, grades, step


@pytest.fixture(scope="module")
def presentations():
    """The random families, the presentations of five minus cubes, and every
    presentation that four infer searches hand to module_decompose."""
    families = [equal_grade_family(), mixed_grade_family()]
    families += [mixed_grade_family(seed=2718, count=300, max_gens=7, max_rels=6)]
    diagrams = [kh.cyclic_knot(n) for n in (3, 5, 7)]
    diagrams += [kh.parse_pd("PD[X(4,2,5,1),X(8,6,1,5),X(6,3,7,4),X(2,7,3,8)]")]
    diagrams += [kh.unlink(3)]
    towers = [infer.Tower(n, h, q) for n, h, q in (
        ("t0", 1, 4), ("t1", 1, 6), ("t2", 3, 2), ("t3", 6, 14),
        ("z", 0, -1), ("y", 1, 1), ("x", 3, 5))]
    searches = [
        (towers[:4], infer.TargetSpec(free_rank=2)),
        (towers[4:], infer.TargetSpec(free_rank=1, torsion=(1,))),
        (towers, infer.TargetSpec(free_rank=3)),
        (towers, infer.TargetSpec(free_rank=1, torsion=(1, 1, 1))),
    ]
    cube_calls = [cube_presentation(kh.ckh(d).complex) for d in diagrams]
    with pytest.MonkeyPatch.context() as monkeypatch:
        page_calls = recorded_presentations(
            monkeypatch, infer,
            lambda: [infer.enumerate_patterns(infer.PageSpec(tuple(page)), target)
                     for page, target in searches],
        )
    assert sum(len(args[1]) > 1 for args in page_calls) > 10
    return [args for family in families for args in family] + cube_calls + page_calls


def test_sparse_decompose_matches_dense_reference(presentations):
    """The (grades, order) of the summands equal the dense scan's, and each
    summand is anchored at its own generator row, of its grade.  The rows
    themselves may differ: the dense scan pivots on the least (e, r, c),
    the elimination on the target with the fewest incoming entries, and
    either row spans an isomorphic summand."""
    for args in presentations:
        n_gens, _, grades_list, _ = args
        got = module_decompose(*args).summands
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
