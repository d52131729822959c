"""Universal-coefficient oracles of the F2[u] decompositions, for the tests.

mod_u_dims predicts H(C tensor F2[u]/u^m) from a decomposition of H(C), and
check_mod_u compares it at m = 1 with F2 ranks of C/u.  kh_output spells
the kh minus and hat tables of a cube from any decomposition of its F2[u]
homology, so the tables kh reads off homology_f2 can be compared with
UHomology and with the dense presentation reference.
"""

import json
from collections import Counter
from typing import Sequence

from skeinseq.complexes import CONV_KH, ChainComplex, Grade, homology_f2
from skeinseq.umod import Summand


def mod_u_dims(summands: Sequence[Summand], step: Grade, back: Grade, m: int) -> Counter:
    """The F2 dimensions of H(C tensor F2[u]/u^m) by grade, from a decomposition
    of H(C) over F2[u] (universal coefficients; step is the grade drop of u,
    back the grade change of d).  A free summand at g gives one at each
    g - j step, j < m.  A u^k summand at g, the class of y where x --u^k--> y,
    gives one at each g - j step for j < min(k, m) (the cokernel of u^k) and
    one at each g_x - j step for m - min(k, m) <= j < m (its kernel), where
    x sits at g_x = g - k step - back."""
    dims: Counter = Counter()

    def add(grades: Grade, js: range) -> None:
        dims.update(tuple(g - j * u for g, u in zip(grades, step)) for j in js)
    for s in summands:
        k = m if s.free else min(s.order, m)
        add(s.grades, range(k))
        if not s.free:
            x = tuple(g - s.order * u - b for g, u, b in zip(s.grades, step, back))
            add(x, range(m - k, m))
    return dims


def check_mod_u(cx: ChainComplex, summands: Sequence[Summand]) -> None:
    """Compare a decomposition of H(cx) with the F2 homology of cx/u, which
    mod_u_dims predicts at m = 1.  H(cx/u) comes from homology_f2 alone (F2
    ranks, not cancellation), so the check shares no work with the
    decomposition.  cx must square to zero (see homology_f2)."""
    step = cx.ustep()  # raises unless cx has one variable
    back = (1, 0) if cx.convention == CONV_KH else (-1,)  # a differential step
    dims: Counter = Counter()
    for grade, dim in homology_f2(cx).items():
        dims[grade[:len(step)]] += dim  # floer: forget the mod-2 alexander grade
    predicted = mod_u_dims(summands, step, back, 1)
    for key in sorted(set(dims) | set(predicted)):
        if dims[key] != predicted[key]:
            raise ArithmeticError(
                "mod-u dimension mismatch at %r: %d vs %d predicted"
                % (key, dims[key], predicted[key])
            )


def kh_output(dec, cx: ChainComplex, flavor: str, fmt: str) -> str:
    """What `kh --flavor minus|hat --out tsv|json` prints for the cube cx,
    spelled from a decomposition dec of H(cx) over F2[u]: minus lists its
    summands by grade, and hat is H(cx/u^2), predicted by mod_u_dims."""
    if flavor == "minus":
        table = dec.by_grading()
        h0, q0 = (min(k[i] for k in table) for i in (0, 1))
        lines, rows = ["h_rel\tq_rel\tfree\ttorsion"], []
        for (h, q), (free, tors) in sorted(table.items()):
            prof = ",".join("u^%d" % k for k in tors) or "-"
            lines.append("%d\t%d\t%d\t%s" % (h - h0, q - q0, free, prof))
            rows.append({"h_rel": h - h0, "q_rel": q - q0, "free": free, "torsion": tors})
        rank = dec.free_rank
        lines += ["# free_rank\t%d" % rank, "# torsion_count\t%d" % len(dec.torsion),
                  "# rank_over_U\t%d" % (2 * rank)]
        payload = {"anchors": rows, "free_rank": rank, "torsion": dec.torsion,
                   "rank_over_U": 2 * rank}
    else:
        dims = {k: v for k, v in mod_u_dims(dec.summands, cx.ustep(), (1, 0), 2).items() if v}
        h0, q0 = (min(k[i] for k in dims) for i in (0, 1))
        lines = ["h_rel\tq_rel\tdim"] + ["%d\t%d\t%d" % (h - h0, q - q0, v)
                                         for (h, q), v in sorted(dims.items())]
        rows = [{"h_rel": h - h0, "q_rel": q - q0, "dim": v} for (h, q), v in sorted(dims.items())]
        lines.append("# total\t%d" % sum(dims.values()))
        payload = {"dims": rows, "total": sum(dims.values())}
    if fmt == "json":
        return json.dumps({"flavor": flavor, **payload}, indent=2, sort_keys=True) + "\n"
    return "\n".join(lines) + "\n"
