"""Correctness checks on job outputs, independent of the timed code.

Each check returns a list of problems; an empty list means the job passed.
The Kauffman state sum is computed here from the PD text with the
benchmark's own parser, so it shares no code with ``skeinseq.khovanov``.
"""

from __future__ import annotations

import re
from math import comb

_X = re.compile(r"X\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)")


def parse_pd(text: str) -> tuple[list[tuple[int, int, int, int]], int]:
    """(crossings, free loops) of PD text such as ``PD[X(1,4,2,5),...,U]``."""
    text = text.strip()
    if text == "U":
        return [], 1
    crossings = [tuple(int(g) for g in m.groups()) for m in _X.finditer(text)]
    loops = len(re.findall(r"(?<![A-Za-z])U(?![A-Za-z])", text[3:-1]))
    return crossings, loops  # type: ignore[return-value]


def _circles(arcs: set[int], joins: list[tuple[int, int]]) -> int:
    parent = {a: a for a in arcs}

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in joins:
        parent[find(a)] = find(b)
    return len({find(a) for a in arcs})


def states(pd: str):
    """(number of 1-smoothings, number of circles) of every resolution.

    The 0-smoothing of X(a,b,c,d) joins (a,d) and (b,c); the 1-smoothing
    joins (a,b) and (c,d).
    """
    crossings, loops = parse_pd(pd)
    arcs = {a for cr in crossings for a in cr}
    for state in range(1 << len(crossings)):
        joins = []
        r = 0
        for j, (a, b, c, d) in enumerate(crossings):
            if (state >> j) & 1:
                r += 1
                joins += [(a, b), (c, d)]
            else:
                joins += [(a, d), (b, c)]
        yield r, (_circles(arcs, joins) if arcs else 0) + loops


def state_sum(pd: str) -> dict[int, int]:
    """Unnormalized Kauffman bracket  sum_s (-q)^r(s) (q + 1/q)^circles(s).

    Returned as {exponent of q: coefficient}.
    """
    poly: dict[int, int] = {}
    for r, m in states(pd):
        sign = -1 if r % 2 else 1
        for i in range(m + 1):  # (q + 1/q)^m
            e = r + m - 2 * i
            poly[e] = poly.get(e, 0) + sign * comb(m, i)
    return {e: c for e, c in poly.items() if c}


def times_q_plus_inverse(p: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for e, c in p.items():
        out[e + 1] = out.get(e + 1, 0) + c
        out[e - 1] = out.get(e - 1, 0) + c
    return {e: c for e, c in out.items() if c}


def same_up_to_shift_and_sign(p: dict[int, int], r: dict[int, int]) -> bool:
    if not p or not r:
        return p == r

    def norm(x):
        lo = min(x)
        s = 1 if x[lo] > 0 else -1
        return {e - lo: s * c for e, c in x.items()}
    return norm(p) == norm(r)


def parse_tsv(out: str) -> tuple[list[list[str]], dict[str, list[str]]]:
    """(table rows without the header, {comment tag: values})."""
    rows, notes = [], {}
    lines = out.splitlines()
    for line in lines[1:]:
        parts = line.split("\t")
        if line.startswith("# "):
            notes.setdefault(parts[0][2:], parts[1:])
        elif line:
            rows.append(parts)
    return rows, notes


def euler(rows: list[list[str]]) -> dict[int, int]:
    """Graded Euler characteristic of an (h_rel, q_rel, dim) table."""
    chi: dict[int, int] = {}
    for h, q, dim in ((int(r[0]), int(r[1]), int(r[2])) for r in rows):
        chi[q] = chi.get(q, 0) + (-1 if h % 2 else 1) * dim
    return {e: c for e, c in chi.items() if c}


def check_kh(flavor: str, out: str, bracket: dict[int, int]) -> list[str]:
    rows, notes = parse_tsv(out)
    if flavor == "minus":
        if "free_rank" not in notes or "rank_over_U" not in notes:
            return ["minus table lacks its summary lines"]
        return []
    if "total" not in notes:
        return ["%s table lacks its total" % flavor]
    if sum(int(r[2]) for r in rows) != int(notes["total"][0]):
        return ["%s total is not the sum of its rows" % flavor]
    chi = euler(rows)
    if flavor == "reduced":
        chi = times_q_plus_inverse(chi)
    if not same_up_to_shift_and_sign(chi, bracket):
        return ["%s Euler characteristic differs from the Kauffman state sum" % flavor]
    return []


def check_knot_totals(hat_out: str, reduced_out: str) -> list[str]:
    hat = int(parse_tsv(hat_out)[1]["total"][0])
    red = int(parse_tsv(reduced_out)[1]["total"][0])
    return [] if hat == 2 * red else ["hat total %d is not twice reduced %d" % (hat, red)]


def check_ss(convention: str, out: str) -> list[str]:
    _, notes = parse_tsv(out)
    problems = []
    if notes.get("converge") != ["pass"]:
        problems.append("ss lacks '# converge pass'")
    if convention == "kh" and notes.get("constraints") != ["pass"]:
        problems.append("ss lacks '# constraints pass'")
    return problems


def _tower_grade(name: str, towers: dict[str, tuple[int, int]]) -> tuple[int, int]:
    if name in towers:
        return towers[name]
    h, q = name.split("@", 1)[1].split(",")  # page-homology towers "p<i>@h,q"
    return int(h), int(q)


def check_infer(towers_doc: list[dict], out: str) -> list[str]:
    towers = {t["name"]: (t["h"], t["q"]) for t in towers_doc}
    rows, notes = parse_tsv(out)
    problems = []
    if int(notes.get("count", ["0"])[0]) < 1:
        problems.append("no pattern reaches the planted target")
    for r in rows:
        if r[1] == "-":
            continue
        k, src, tgt, a = int(r[1]), r[2], r[3], int(r[4])
        (hs, qs), (ht, qt) = _tower_grade(src, towers), _tower_grade(tgt, towers)
        if k % 2 == 0 or ht - hs != k or qt - qs != 2 * k - 2 + 2 * a:
            problems.append("entry %r breaks the (2k-2, k) bidegree rule" % (r,))
    return problems


def check_examples(out: str) -> list[str]:
    _, notes = parse_tsv(out)
    return [] if notes.get("failures") == ["0"] else ["examples report failures"]
