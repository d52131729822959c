"""Closed-form model complexes with their action data and verifiers.

The six models are small complexes whose differentials and action
matrices are fixed data; the verifiers re-derive everything checkable
(square-zero, anticommutator identities, action squares, kernel ranks,
top-grading action patterns) so a transcription error cannot pass.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

from . import gf2
from .complexes import (
    CONV_FLOER,
    ChainComplex,
    ChainMap,
    Expansion,
    Generator,
    _compose,
    _lifter,
    _rows,
    collapse_all,
    collapse_pairs,
    homology,
    phi_action,
    tensor,
)
from .poly import HALF, Poly, VarSet, parse_poly

MODEL_NAMES = ("k_nonori", "k_ori", "l_nonori", "l_ori", "trefoil_cfl", "z11_2")


@dataclass(frozen=True)
class ActionSpec:
    name: str
    kind: str  # "loop" or "path"
    entries: tuple[tuple[str, str, str], ...]  # (from, to, poly text)
    endpoints: tuple[str, str] | None = None
    dh: int = -1


@dataclass
class ModelComplex:
    name: str
    complex: ChainComplex
    actions: dict[str, ActionSpec] = field(default_factory=dict)
    kind: str | None = None  # "nonori" or "ori" for the two-generator tops

    def action_map(self, name: str, cx: ChainComplex | None = None) -> ChainMap:
        spec = self.actions[name]
        cx = cx or self.complex
        entries = {}
        for (src, tgt, text) in spec.entries:
            p = parse_poly(self.complex.vars, text)
            if cx is not self.complex:
                p = _transport(self.complex, cx, p)
            key = (src, tgt)
            entries[key] = entries.get(key, Poly.zero(cx.vars)) + p  # repeats may cancel
        return ChainMap(cx, cx, entries, dh=spec.dh, check=False)

    @cached_property
    def collapsed(self) -> ChainComplex:
        return collapse_pairs(self.complex)

    @cached_property
    def top_table(self) -> TopTable:
        return top_homology_table(self)

    def z11_checks(self) -> list[tuple[str, bool, str]]:
        """_z11_checks of the current A_kappa and A_lambda, built once for both."""
        key = (self.actions["A_kappa"], self.actions["A_lambda"])
        if self.__dict__.get("_z11", (None,))[0] != key:
            self._z11 = key, _z11_checks(self)
        return self._z11[1]

    @cached_property
    def top_frame(self) -> tuple[ChainComplex, list[str], list[int], dict[str, list[int]]]:
        """The pair-collapsed complex, its top generators and top cycle basis,
        and each pair's derivative action on the top slice."""
        cx = self.collapsed
        tops, cycles = _top_cycles(cx)
        phis = {pid: _top_map(phi_action(self.complex, pid), tops, lambda mono: not any(mono))
                for pid in sorted(self.complex.pairs)}
        return cx, tops, cycles, phis


def _transport(src_cx: ChainComplex, dst_cx: ChainComplex, p: Poly) -> Poly:
    assignment = {}
    for pid, names in src_cx.pairs.items():
        dst_names = dst_cx.pairs[pid]
        if len(dst_names) == 1:
            for n in names:
                assignment[n] = dst_names[0]
        else:
            for a, b in zip(names, dst_names):
                assignment[a] = b
    return p.map_vars(dst_cx.vars, assignment)


def _two_step(vs, pairs, top: str, bot: str, down: str, up: str | None,
              alex_top: int = 1) -> ChainComplex:
    gens = [Generator(top, 0, None, alex_top), Generator(bot, 0, None, (alex_top + 1) % 2)]
    diff = {(top, bot): parse_poly(vs, down)}
    if up:
        diff[(bot, top)] = parse_poly(vs, up)
    return ChainComplex(vs, gens, diff, CONV_FLOER, pairs, check=True)


def build_model(name: str) -> ModelComplex:
    """The named model complex; raises KeyError for unknown names."""
    if name == "k_nonori":
        vs = VarSet(("z", "w"), (HALF, HALF))
        pairs = {"1": ("z", "w")}
        gens = [Generator("f", 0, None, 1), Generator("g", 0, None, 0)]
        diff = {("f", "g"): parse_poly(vs, "z+w")}
        return ModelComplex(name, ChainComplex(vs, gens, diff, CONV_FLOER, pairs),
                            kind="nonori")
    if name == "k_ori":
        vs = VarSet(("z1", "w1", "z2", "w2"), (HALF,) * 4)
        pairs = {"1": ("z1", "w1"), "2": ("z2", "w2")}
        gens = [
            Generator("ax", 0, None, 0),
            Generator("ay", 0, None, 1),
            Generator("bx", 0, None, 1),
            Generator("by", 0, None, 0),
        ]
        diff = {
            ("ax", "ay"): parse_poly(vs, "w1+w2"),
            ("ax", "bx"): parse_poly(vs, "z1+z2"),
            ("ay", "ax"): parse_poly(vs, "z1+z2"),
            ("ay", "by"): parse_poly(vs, "z1+z2"),
            ("bx", "ax"): parse_poly(vs, "w1+w2"),
            ("bx", "by"): parse_poly(vs, "w1+w2"),
            ("by", "ay"): parse_poly(vs, "w1+w2"),
            ("by", "bx"): parse_poly(vs, "z1+z2"),
        }
        return ModelComplex(name, ChainComplex(vs, gens, diff, CONV_FLOER, pairs),
                            kind="ori")
    if name == "l_nonori":
        vs = VarSet(("z1", "w1", "z2", "w2"), (HALF,) * 4)
        pairs = {"1": ("z1", "w1"), "2": ("z2", "w2")}
        fa = _two_step(vs, pairs, "b", "a", "z1+z2", "w1+w2")
        fc = _two_step(vs, pairs, "z", "w", "z1+w2", None)
        fb = _two_step(vs, pairs, "x", "y", "z1+z2", "w1+w2")
        cx = tensor(tensor(fa, fc), fb)
        return ModelComplex(name, cx)
    if name == "l_ori":
        vs = VarSet(("z1", "w1", "z2", "w2", "z3", "w3"), (HALF,) * 6)
        pairs = {"1": ("z1", "w1"), "2": ("z2", "w2"), "3": ("z3", "w3")}
        f1 = _two_step(vs, pairs, "d", "c", "z1+z2", "w1+w3")
        f2 = _two_step(vs, pairs, "z", "w", "z1+z2", "w1+w3")
        f3 = _two_step(vs, pairs, "b", "a", "z2+z3", "w2+w3")
        f4 = _two_step(vs, pairs, "x", "y", "z2+z3", "w2+w3")
        cx = tensor(tensor(tensor(f1, f2), f3), f4)
        return ModelComplex(name, cx)
    if name == "trefoil_cfl":
        vs = VarSet(("u",), (HALF,))
        pairs = {"1": ("u",)}
        gens = [
            Generator("a", 0, None, 0),
            Generator("b", 0, None, 0),
            Generator("c", 0, None, 1),
        ]
        diff = {("c", "a"): parse_poly(vs, "u")}
        return ModelComplex(name, ChainComplex(vs, gens, diff, CONV_FLOER, pairs))
    if name == "z11_2":
        vs = VarSet(("Z", "W"), (HALF, HALF))
        pairs = {"1": ("Z", "W")}
        gens = [
            Generator("ax", 0, None, 0),
            Generator("ay", 0, None, 1),
            Generator("bx", 0, None, 1),
            Generator("by", 0, None, 0),
        ]
        kappa = ActionSpec(
            "A_kappa",
            "loop",
            (
                ("ax", "ay", "Z"),
                ("ax", "bx", "W"),
                ("ay", "ax", "W"),
                ("ay", "by", "W"),
                ("bx", "ax", "Z"),
                ("bx", "by", "Z"),
                ("by", "ay", "Z"),
                ("by", "bx", "W"),
            ),
        )
        lam = ActionSpec(
            "A_lambda",
            "loop",
            (
                ("ay", "ax", "W"),
                ("bx", "ax", "Z"),
                ("by", "ay", "Z"),
                ("by", "bx", "W"),
            ),
        )
        cx = ChainComplex(vs, gens, {}, CONV_FLOER, pairs)
        return ModelComplex(name, cx, {"A_kappa": kappa, "A_lambda": lam})
    raise KeyError("unknown model %r" % name)


# -- top-grading homology and action patterns ---------------------------------------


@dataclass
class TopTable:
    basis: list[frozenset[str]]  # cycle supports are multi-generator sums
    vectors: list[int]  # masks over the top generators
    top_gens: list[str]
    canonical: dict[str, int] | None  # pattern name -> basis position


def _top_cycles(cx: ChainComplex) -> tuple[list[str], list[int]]:
    top = max(g.h for g in cx.gens)
    exp = Expansion(cx, top - 1)
    tops = [i for i, g in enumerate(cx.gens) if g.h == top]
    cols = [exp.image(exp.slot(i, ())) for i in tops]
    return [cx.gens[i].gid for i in tops], sorted(gf2.column_kernel(cols))


def _top_map(cmap: ChainMap, tops: list[str], keep) -> list[int]:
    """F2 map on the top generators as bitset columns: column i is the image
    of top generator i, each entry counting the parity of its terms that
    keep accepts."""
    order, lift = cmap.source.order, _lifter(cmap.source.vars)
    pos = {order[g]: i for i, g in enumerate(tops)}
    cols = [0] * len(tops)
    for i, k in pos.items():
        for j, e in cmap.cols[i].items():
            if j in pos and sum(map(keep, lift(e).terms)) % 2:
                cols[k] ^= 1 << pos[j]
    return cols


def _combine(vecs: list[int], combo: int) -> int:
    """The sum of the vectors that combo selects: applied to a list of
    bitset columns, the image of the vector combo under that map."""
    out = 0
    for i, v in enumerate(vecs):
        if (combo >> i) & 1:
            out ^= v
    return out


def _support(tops: list[str], vec: int) -> frozenset[str]:
    return frozenset(g for i, g in enumerate(tops) if (vec >> i) & 1)


def _alex(cx: ChainComplex, tops: list[str], vec: int) -> int | None:
    """The alexander grading of a homogeneous top vector, else None."""
    vals = {cx.gen(g).alex2 for g in _support(tops, vec)}
    return vals.pop() if len(vals) == 1 else None


GOLDEN_PATTERNS = {
    "l_nonori": {
        "names": ("a", "b", "c", "d"),
        "groups": (("a", "d"), ("b", "c")),
        "phi": {
            "1": {"a": ("c",), "b": ("d",)},
            "2": {"a": ("b", "c"), "b": ("d",), "c": ("d",)},
        },
    },
    "l_ori": {
        "names": ("a", "b", "c", "d"),
        "groups": (("a", "d"), ("b", "c")),
        "phi": {
            "1": {"a": ("c",), "b": ("d",)},
            "2": {"a": ("b", "c"), "b": ("d",), "c": ("d",)},
            "3": {"a": ("b",), "c": ("d",)},
        },
    },
    "k_nonori": {
        "names": ("f", "g"),
        "groups": (("f",), ("g",)),
        "phi": {"1": {"f": ("g",)}},
    },
    "k_ori": {
        "names": ("f", "g"),
        "groups": (("f",), ("g",)),
        "phi": {"1": {"f": ("g",)}, "2": {"f": ("g",)}},
    },
}

# degree -1 homology actions on the canonical top basis of l_ori
L_ORI_TOP_ACTIONS = {
    "A12": {"a": ("c",), "c": ("a",), "b": ("d",), "d": ("b",)},
    "B23": {"a": ("b",), "b": ("a",), "c": ("d",), "d": ("c",)},
    "A23": {"a": ("b", "c"), "b": ("a", "d"), "c": ("d",), "d": ("c",)},
    "A13": {"a": ("b",), "b": ("a",), "c": ("a", "d"), "d": ("b", "c")},
}


def top_homology_table(m: ModelComplex) -> TopTable:
    """Top-grading homology basis, checked to be stable under the
    derivative actions.

    The canonical labelling is found by searching alexander-homogeneous
    bases realizing the golden arrow pattern exactly; a model whose
    actions cannot be put in that shape raises.
    """
    cx, tops, cycles, phis = m.top_frame
    space = gf2.ColumnSpace()
    for v in cycles:
        space.add(v)
    for cols in phis.values():
        for v in cycles:
            if not space.contains(_combine(cols, v)):
                raise AssertionError("action image left the cycle space")

    canonical = None
    pattern = GOLDEN_PATTERNS.get(m.name)
    if pattern is not None:
        canonical = _match_pattern(pattern, cycles, phis, lambda v: _alex(cx, tops, v))
        if canonical is None:
            raise AssertionError("no basis realizes the golden action pattern")
    return TopTable([_support(tops, v) for v in cycles], cycles, tops, canonical)


def _match_pattern(pattern, cycles, phis, alex):
    """Search for homogeneous vectors realizing the golden arrows exactly."""
    names = pattern["names"]
    groups = pattern["groups"]
    dim = len(cycles)
    if dim != len(names):
        return None
    by_alex: dict[int, list[int]] = {}
    for v in sorted({_combine(cycles, mask) for mask in range(1, 1 << dim)}):
        a = alex(v)
        if a is not None:
            by_alex.setdefault(a, []).append(v)
    alex_vals = sorted(by_alex)
    if len(alex_vals) != 2:
        return None

    def ok(assign: dict[str, int]) -> bool:
        for pid, cols in phis.items():
            targets_by_name = pattern["phi"].get(pid, {})
            for nm, vec in assign.items():
                img = _combine(cols, vec)
                want = 0
                for t in targets_by_name.get(nm, ()):
                    want ^= assign[t]
                if img != want:
                    return False
        return True

    for flip in (0, 1):
        class_of_group = {0: alex_vals[flip], 1: alex_vals[1 - flip]}
        pools = [by_alex[class_of_group[gi]] for gi in range(len(groups))]
        for choices in itertools.product(
            *[itertools.permutations(pool, len(grp)) for pool, grp in zip(pools, groups)]
        ):
            assign: dict[str, int] = {}
            for grp, chosen in zip(groups, choices):
                for nm, vec in zip(grp, chosen):
                    assign[nm] = vec
            base = gf2.ColumnSpace()
            if any(base.add(v) is not None for v in assign.values()):
                continue
            if len(assign) == dim and ok(assign):
                return dict(sorted(assign.items()))
    return None


# -- canonical pair -------------------------------------------------------------------


@dataclass(frozen=True)
class CanonicalPair:
    f: frozenset[str]
    g: frozenset[str]
    theta: str  # "f" or "g"


def canonical_fg(m: ModelComplex) -> CanonicalPair:
    """The unique homogeneous top classes with g killed by every action."""
    if m.kind not in ("nonori", "ori"):
        raise ValueError("canonical pair defined for the two-generator tops")
    cx, tops, cycles, phis = m.top_frame
    if len(cycles) != 2:
        raise ArithmeticError("characterization not satisfiable: top rank != 2")
    vecs = sorted({cycles[0], cycles[1], cycles[0] ^ cycles[1]})
    homog = [v for v in vecs if _alex(cx, tops, v) is not None]
    gs = [v for v in homog if not any(_combine(cols, v) for cols in phis.values())]
    fs = [v for v in homog if any(_combine(cols, v) for cols in phis.values())]
    if len(gs) != 1 or len(fs) != 1:
        raise ArithmeticError("characterization not satisfiable")
    theta = "g" if m.kind == "nonori" else "f"
    return CanonicalPair(_support(tops, fs[0]), _support(tops, gs[0]), theta)


# -- action verification -----------------------------------------------------------------


@dataclass
class ActionReport:
    name: str
    checks: list[tuple[str, bool, str]]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.checks)


def verify_action(m: ModelComplex, name: str) -> ActionReport:
    """Anticommutator identity, square, and model-specific kernel checks.

    For the l_ori top-grading tables (A12, B23, A23, A13) the check is the
    additivity identities tying them to the derivative actions; for declared
    chain-level actions it is the loop/path identity plus the square.
    """
    if m.name == "l_ori" and name in L_ORI_TOP_ACTIONS:
        return ActionReport(name, _l_ori_action_checks(m))
    spec = m.actions[name]
    checks: list[tuple[str, bool, str]] = []
    cx, amap = m.complex, m.action_map(name)
    anti = amap.anticommutator()
    if spec.kind == "loop":
        checks.append(("loop anticommutator", not anti, _describe(anti)))
    else:  # the rows that M d + d M and the right-hand side do not share
        diff = set(anti) ^ set(_path_rhs(cx, spec))
        checks.append(("path anticommutator", not diff, _describe(diff)))
    square = _rows(cx, cx, _compose(cx, [(amap.cols, amap.cols)]))
    checks.append(("square vanishes", not square, _describe(square)))

    if m.name == "z11_2":
        checks.extend(m.z11_checks())
    return ActionReport(name, checks)


def _describe(rows) -> str:
    """The first four of (source id, target id, Poly) rows, by ids."""
    parts = ["%s->%s:%s" % row for row in sorted(rows, key=lambda r: (r[0], r[1], str(r[2])))]
    return "; ".join(parts[:4])


def _path_rhs(cx: ChainComplex, spec: ActionSpec) -> list[tuple[str, str, Poly]]:
    """(u1^2 + u2^2) times the identity, as rows."""
    assert spec.endpoints is not None
    u1, u2 = spec.endpoints
    p = Poly.var(cx.vars, u1, 2) + Poly.var(cx.vars, u2, 2)
    return [(g.gid, g.gid, p) for g in cx.gens]


def _z11_checks(m: ModelComplex) -> list[tuple[str, bool, str]]:
    """Collapsed-ring identities: path form of the anticommutator and the
    kernel of each nontrivial loop action on the rank-2 alexander summand."""
    checks: list[tuple[str, bool, str]] = []
    cxc = collapse_all(m.complex)
    kappa = m.action_map("A_kappa", cxc)
    lam = m.action_map("A_lambda", cxc)
    # with one u the two path endpoints carry the same square, so the path
    # right-hand side vanishes; the anticommutator must vanish entrywise too
    for label, amap in (("A_kappa", kappa), ("A_lambda", lam)):
        anti = amap.anticommutator()
        checks.append(
            ("path anticommutator (collapsed) " + label, not anti, _describe(anti))
        )
    tops, cycles = _top_cycles(cxc)
    space0 = gf2.ColumnSpace()
    for v in cycles:
        if _alex(cxc, tops, v) == 1:
            space0.add(v)
    checks.append(("C0 rank 2", space0.rank == 2, "rank %d" % space0.rank))
    vecs = space0.vectors()
    kernels = []
    top_k, top_l = (_top_map(a, tops, lambda mono: sum(mono) == 1) for a in (kappa, lam))
    for label, cols in (("A_kappa", top_k), ("A_lambda", top_l),
                        ("A_kappa+A_lambda", [a ^ b for a, b in zip(top_k, top_l)])):
        kern = gf2.column_kernel([_combine(cols, v) for v in vecs])
        kvecs = sorted(_combine(vecs, combo) for combo in kern)
        kernels.append((label, kvecs))
        checks.append(
            ("ker %s on C0 rank 1" % label, len(kvecs) == 1, "rank %d" % len(kvecs))
        )
    same = kernels[0][1] == kernels[1][1] == kernels[2][1]
    checks.append(("kernel independent of the loop", same, repr(kernels)))
    return checks


def _l_ori_action_checks(m: ModelComplex) -> list[tuple[str, bool, str]]:
    """Additivity identities tying the golden degree -1 tables together."""
    vec_of = m.top_table.canonical
    assert vec_of is not None
    order = ("a", "b", "c", "d")
    phis = m.top_frame[3]  # each pair's derivative action on the top generators

    def as_matrix(golden: dict[str, tuple[str, ...]]) -> dict[str, int]:
        out = {}
        for nm in order:
            img = 0
            for t in golden.get(nm, ()):
                img ^= vec_of[t]
            out[nm] = img
        return out

    def phi_as_matrix(pid: str) -> dict[str, int]:
        return {nm: _combine(phis[pid], vec_of[nm]) for nm in order}

    a12 = as_matrix(L_ORI_TOP_ACTIONS["A12"])
    b23 = as_matrix(L_ORI_TOP_ACTIONS["B23"])
    a23 = as_matrix(L_ORI_TOP_ACTIONS["A23"])
    a13 = as_matrix(L_ORI_TOP_ACTIONS["A13"])
    phi2 = phi_as_matrix("2")
    phi3 = phi_as_matrix("3")
    ok1 = all(a23[nm] == b23[nm] ^ phi2[nm] ^ phi3[nm] for nm in order)
    ok2 = all(a13[nm] == a12[nm] ^ a23[nm] for nm in order)
    return [
        ("A23 = B23 + phi2 + phi3", ok1, ""),
        ("A13 = A12 + A23", ok2, ""),
    ]


# -- whole-suite runner ------------------------------------------------------------------


def run_model_suite() -> list[tuple[str, bool, str]]:
    """Every golden check over every model; (label, passed, detail) rows."""
    rows: list[tuple[str, bool, str]] = []

    def note(label: str, passed: bool, detail: str = "") -> None:
        rows.append((label, passed, detail))

    built = {name: build_model(name) for name in MODEL_NAMES}
    for name, m in built.items():
        bad = m.complex.verify_d2()
        note("%s d2=0" % name, not bad, _describe(bad))
        note("%s d2=0 collapsed" % name, not m.collapsed.verify_d2())

    m = built["k_nonori"]
    hom = homology(m.collapsed)
    note("k_nonori homology free rank 2", hom.free_rank == 2 and not hom.torsion)
    cp = canonical_fg(m)
    note("k_nonori theta=g", cp.theta == "g" and cp.g == frozenset({"g"})
         and cp.f == frozenset({"f"}))
    note("k_nonori top pattern", m.top_table.canonical is not None)

    m = built["k_ori"]
    note("k_ori top rank 2", len(m.top_table.vectors) == 2)
    cp = canonical_fg(m)
    note(
        "k_ori f=ay+bx g=ax+by theta=f",
        cp.theta == "f"
        and cp.f == frozenset({"ay", "bx"})
        and cp.g == frozenset({"ax", "by"}),
    )
    note("k_ori u injective on top", _u_injective_on_top(m))

    for name, rank in (("l_nonori", 4), ("l_ori", 4)):
        table = built[name].top_table
        note("%s top rank %d" % (name, rank), len(table.vectors) == rank)
        note("%s golden pattern" % name, table.canonical is not None)

    m = built["l_ori"]
    hom = homology(collapse_all(m.complex))
    note("l_ori collapsed torsion-free", not hom.torsion and hom.free_rank == 16)
    for label, passed, detail in verify_action(m, "A23").checks:
        note("l_ori " + label, passed, detail)

    hom = homology(built["trefoil_cfl"].complex)
    note(
        "trefoil_cfl homology F[u] + F[u]/u",
        hom.free_rank == 1 and hom.torsion == [1],
    )

    for action in ("A_kappa", "A_lambda"):
        rep = verify_action(built["z11_2"], action)
        for label, passed, detail in rep.checks:
            note("z11_2 %s %s" % (action, label), passed, detail)
    return rows


def _u_injective_on_top(m: ModelComplex) -> bool:
    """No top class dies under multiplication by one u variable."""
    cx, tops, cycles, _ = m.top_frame
    top = max(g.h for g in cx.gens)
    exp = Expansion(cx, top - 1)
    space = gf2.ColumnSpace()
    for grade, blk in exp.blocks.items():
        if grade[0] == top:
            for s in blk:
                space.add(exp.image(s))
    u = (1,) + (0,) * (cx.vars.n - 1)  # the first variable
    for mask in cycles:
        vec = 0
        for i, gid in enumerate(tops):
            if (mask >> i) & 1:
                vec ^= 1 << exp.slot(cx.order[gid], u)
        if space.contains(vec):
            return False
    return True
