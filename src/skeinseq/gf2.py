"""GF(2) linear algebra on int bitsets.

A vector over n slots is an int whose bit i is coordinate i; a matrix is a
list of such column ints.  There is one eliminator, ``ColumnSpace``: it
keeps its reduced vectors in a dict keyed by pivot, the lowest set bit, and
reduces a vector by repeatedly looking up its lowest set bit.  Rank, kernel
combinations, membership and the persistence pairing all come from it.
"""

from __future__ import annotations


class ColumnSpace:
    """Incremental column echelon with combination tracking.

    Vectors are ints; each vector inserted by ``insert`` or ``add`` remembers
    which inserted columns it combines (bit i of a combo stands for the i-th
    insert), for ``column_kernel`` and ``express``.  Callers that read only
    leads and ranks (``matrix_rank``, ``complexes.Expansion.dims``,
    ``spectral.analyze`` and ``spectral._graded_homology_dims``) fill their
    spaces with ``insert_lead`` instead, which keeps no combos: a space
    filled that way answers ``contains``, ``rank`` and ``pivots`` but no
    combination.
    """

    def __init__(self) -> None:
        self.pivots: dict[int, tuple[int, int]] = {}  # lead -> (vec, combo)
        self.count = 0

    def _reduce(self, vec: int, combo: int) -> tuple[int, int]:
        pivots = self.pivots
        while vec:
            hit = pivots.get((vec & -vec).bit_length() - 1)
            if hit is None:
                break
            vec ^= hit[0]
            combo ^= hit[1]
        return vec, combo

    def insert(self, vec: int) -> tuple[int, int]:
        """Insert a vector; returns (lead, combo).

        lead is the lowest set bit of the reduced vector, which becomes a
        new pivot; it is -1 when the vector was dependent, and then combo is
        the kernel combination it closes.
        """
        combo = 1 << self.count
        self.count += 1
        vec, combo = self._reduce(vec, combo)
        if vec == 0:
            return -1, combo
        lead = (vec & -vec).bit_length() - 1
        self.pivots[lead] = (vec, combo)
        return lead, combo

    def insert_lead(self, vec: int) -> int:
        """Insert a vector without tracking combos; returns its lead or -1."""
        vec = self._reduce(vec, 0)[0]
        if vec == 0:
            return -1
        lead = (vec & -vec).bit_length() - 1
        self.pivots[lead] = (vec, 0)
        return lead

    def add(self, vec: int) -> int | None:
        """Insert a vector; returns a kernel combo if it was dependent."""
        lead, combo = self.insert(vec)
        return combo if lead < 0 else None

    def contains(self, vec: int) -> bool:
        return self._reduce(vec, 0)[0] == 0

    def express(self, vec: int) -> int | None:
        """Combo of inserted vectors equal to vec, or None."""
        v, combo = self._reduce(vec, 0)
        return combo if v == 0 else None

    def vectors(self) -> list[int]:
        """The reduced basis vectors, in order of their leads."""
        return [self.pivots[lead][0] for lead in sorted(self.pivots)]

    @property
    def rank(self) -> int:
        return len(self.pivots)


def matrix_rank(cols: list[int], nbits: int) -> int:
    """Rank of a list of vectors over nbits coordinates.

    nbits gives the matrix shape; the elimination itself does not need it.
    """
    space = ColumnSpace()
    for v in cols:
        space.insert_lead(v)
    return space.rank


def column_kernel(cols: list[int]) -> list[int]:
    """Kernel of the map (combo over cols) -> xor of columns."""
    space = ColumnSpace()
    out = []
    for v in cols:
        combo = space.add(v)
        if combo is not None:
            out.append(combo)
    return out
