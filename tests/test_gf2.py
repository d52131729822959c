import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from skeinseq.gf2 import ColumnSpace, column_kernel, matrix_rank


def dense_rank(rows, ncols):
    """Textbook elimination on 0/1 lists, independent of the bitset code."""
    mat = [[(r >> c) & 1 for c in range(ncols)] for r in rows]
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(mat)):
            if mat[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                mat[r] = [(a + b) % 2 for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return rank


def dense_persistence_lows(cols, nbits):
    """Standard persistence reduction on 0/1 lists, rows read in reverse.

    Row i of the bitset is row nbits-1-i of the dense matrix, so the
    textbook low (last nonzero row) is the bitset's lowest set bit.  Each
    column is added to by earlier columns with the same low until its low
    is new or it vanishes; returns the low per column mapped back to a bit
    index, or -1 for a column reduced to zero.
    """
    mat = [[(c >> (nbits - 1 - r)) & 1 for r in range(nbits)] for c in cols]

    def low(col):
        return max((r for r in range(nbits) if col[r]), default=-1)

    owner = {}
    out = []
    for j, col in enumerate(mat):
        while low(col) >= 0 and low(col) in owner:
            col = [(a + b) % 2 for a, b in zip(col, mat[owner[low(col)]])]
        mat[j] = col
        r = low(col)
        if r >= 0:
            owner[r] = j
        out.append(nbits - 1 - r if r >= 0 else -1)
    return out


def xor_of(cols, combo):
    out = 0
    for i, v in enumerate(cols):
        if (combo >> i) & 1:
            out ^= v
    return out


def check_kernel(cols, nbits):
    kern = column_kernel(cols)
    assert len(kern) == len(cols) - matrix_rank(cols, nbits)
    for combo in kern:
        assert combo and xor_of(cols, combo) == 0
    # the combos are independent: the kernel they span has the full rank
    assert matrix_rank(kern, len(cols)) == len(kern)


def test_identity_and_zero():
    assert matrix_rank([0b01, 0b10], 2) == 2
    assert column_kernel([0b01, 0b10]) == []
    assert matrix_rank([0, 0, 0], 3) == 0
    assert column_kernel([0, 0, 0]) == [0b001, 0b010, 0b100]


def test_rank_one_square():
    assert matrix_rank([0b11, 0b11], 2) == 1
    assert column_kernel([0b11, 0b11]) == [0b11]


def test_exhaustive_small_vs_dense():
    for ncols in (1, 2, 3):
        for nrows in (1, 2, 3):
            for bits in itertools.product(range(1 << ncols), repeat=nrows):
                rows = list(bits)
                assert matrix_rank(rows, ncols) == dense_rank(rows, ncols)
                check_kernel(rows, ncols)


def test_random_vs_dense_up_to_8():
    rng = random.Random(99)
    for _ in range(300):
        n, m = rng.randrange(1, 9), rng.randrange(1, 9)
        rows = [rng.randrange(1 << m) for _ in range(n)]
        assert matrix_rank(rows, m) == dense_rank(rows, m)
        check_kernel(rows, m)


def test_column_space_and_kernel():
    cols = [0b011, 0b101, 0b110]
    kern = column_kernel(cols)
    assert kern == [0b111]
    space = ColumnSpace()
    assert space.add(0b011) is None
    assert space.add(0b101) is None
    # dependent: the kernel combo includes the inserted vector's own bit
    assert space.add(0b110) == 0b111
    assert space.express(0b110) == 0b011
    assert space.express(0b001) is None
    assert space.contains(0b110) and not space.contains(0b001)
    assert space.rank == 2


def test_express_round_trips():
    rng = random.Random(7)
    for _ in range(200):
        m = rng.randrange(1, 9)
        cols = [rng.randrange(1 << m) for _ in range(rng.randrange(1, 9))]
        space = ColumnSpace()
        for v in cols:
            space.add(v)
        for target in range(1 << m):
            combo = space.express(target)
            assert (combo is not None) == space.contains(target)
            if combo is not None:
                assert xor_of(cols, combo) == target
        assert space.rank == dense_rank(cols, m)
        assert len(space.vectors()) == space.rank


def test_determinism():
    rng = random.Random(5)
    cols = [rng.randrange(1 << 6) for _ in range(6)]
    assert column_kernel(cols) == column_kernel(list(cols))
    a, b = ColumnSpace(), ColumnSpace()
    assert [a.insert(v) for v in cols] == [b.insert(v) for v in cols]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10).flatmap(
    lambda m: st.tuples(st.just(m),
                        st.lists(st.integers(0, (1 << m) - 1), max_size=12))))
def test_lead_is_persistence_low(case):
    nbits, cols = case
    space = ColumnSpace()
    leads = [space.insert(v)[0] for v in cols]
    assert leads == dense_persistence_lows(cols, nbits)
