"""Command line front end: kh, ss, infer, and examples subcommands."""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections import Counter

from . import khovanov as kh
from . import models, serde
from .complexes import homology
from .infer import check_survivor_budget, enumerate_patterns, resolve_filtration
from .spectral import FilteredComplex, analyze, check_constraints, check_ring, converge, pages


def _normalize(keys):
    hs = [k[0] for k in keys]
    qs = [k[1] for k in keys if len(k) > 1]
    h0 = min(hs) if hs else 0
    q0 = min(qs) if qs else 0
    return h0, q0


def _diagram_from_args(args) -> kh.LinkDiagram:
    if args.pd and args.infile:
        raise ValueError("give either --pd or --in, not both")
    if args.pd:
        d = kh.parse_pd(args.pd)
    elif args.infile:
        d = serde.load_diagram(serde.read_json(args.infile))
    else:
        raise ValueError("a diagram is required (--pd or --in)")
    return kh.mirror(d) if args.mirror else d


FLAVORS = ("minus", "hat", "reduced")


def _hat(red: dict[tuple[int, ...], int], step: tuple[int, ...]) -> dict[tuple[int, ...], int]:
    """H(C/u^2) of a cube C = (C mod u) tensor F2[u] from red = H(C/u): each
    dimension at its grade and one u-step below."""
    hat = Counter(red)
    hat.update({tuple(g - s for g, s in zip(k, step)): v for k, v in red.items()})
    return dict(hat)


def flavor_dims(cc: kh.CubeComplex, flavor: str) -> dict[tuple[int, ...], int]:
    """The nonzero hat or reduced dimensions of a minus cube by grade.  The
    cube is (C mod u) tensor F2[u] (khovanov), so reduced, H(C/u), is khr
    of it, and hat is read off that."""
    red = {k: v for k, v in kh.khr(cc).items() if v}
    return _hat(red, cc.ustep) if flavor == "hat" else red


def check_determinant(red: dict[tuple[int, ...], int], det: int) -> None:
    """Check a reduced Khovanov table of a planar diagram against the
    determinant of its link: chi, the sum of (-1)^h i^q dim, has modulus
    det, and the total is at least det (Manolescu and Ozsvath, 2008).  chi
    is summed as integer real and imaginary parts, so the test is exact."""
    parts = [0, 0]
    for (h, q), dim in red.items():
        parts[q % 2] += (-1) ** (h + q // 2) * dim  # i^q is (-1)^(q // 2), times i if q is odd
    norm, total = parts[0] ** 2 + parts[1] ** 2, sum(red.values())
    if norm != det * det or total < det:
        raise ArithmeticError(
            "determinant check failed: the reduced table has |chi(i)|^2 = %d and"
            " total %d, where the determinant is %d" % (norm, total, det))


def cmd_kh(args) -> int:
    d = _diagram_from_args(args)
    if args.flavor == "reduced" and args.basepoint is None:
        raise ValueError("reduced flavor requires --basepoint")
    # a kink only shifts the gradings, which the tables normalize away
    d, basepoint = kh.undo_kinks(d, args.basepoint)
    cc = kh.ckh(d, basepoint)
    red = flavor_dims(cc, "reduced")  # the one elimination of every flavour
    # |chi| = det on a connected diagram on the sphere, which has n + 2 faces.  The
    # count can also be n + 2 on several pieces, one off the sphere, but there
    # |chi| = 0 = det: each state of a piece without the basepoint gives a factor
    # q + 1/q.  Off the sphere the identity fails (cyclic_knot(n >= 5)).
    if not d.free_loops and d.faces() == len(d.crossings) + 2:
        check_determinant(red, kh.determinant(d))
    dims = _hat(red, cc.ustep) if args.flavor == "hat" else red
    h0, q0 = _normalize(list(dims))
    minus = args.flavor == "minus"  # one free tower per reduced dimension, no torsion
    lines = ["h_rel\tq_rel\tfree\ttorsion" if minus else "h_rel\tq_rel\tdim"]
    rows = []
    for (h, q), dim in sorted(dims.items()):
        lines.append("%d\t%d\t%d" % (h - h0, q - q0, dim) + "\t-" * minus)
        rows.append({"h_rel": h - h0, "q_rel": q - q0,
                     **({"free": dim, "torsion": []} if minus else {"dim": dim})})
    total = sum(dims.values())
    payload: dict = {"flavor": args.flavor}
    if minus:
        lines += ["# free_rank\t%d" % total, "# torsion_count\t0",
                  "# rank_over_U\t%d" % (2 * total)]
        payload.update(anchors=rows, free_rank=total, torsion=[], rank_over_U=2 * total)
    else:
        lines.append("# total\t%d" % total)
        payload.update(dims=rows, total=total)
    _emit(args, lines, payload)
    return 0


def cmd_ss(args) -> int:
    if min(args.max_r, args.truncation) < 0:  # refused before the input is read
        raise ValueError("--max-r and --truncation must be at least 0")
    cx, levels, _ = serde.load_complex(serde.read_json(args.infile))
    if levels is None:
        raise ValueError("the ss input needs filtration levels")
    check_ring(cx)  # before verify_d2, which multiplies several variables out
    bad = cx.verify_d2()
    if bad:
        src, tgt, p = bad[0]
        raise ValueError(
            "the differential does not square to zero: d^2 has %d nonzero"
            " entries, the first is %s from %s to %s" % (len(bad), p, src, tgt)
        )
    fc = FilteredComplex(cx, levels, extra_depth=args.truncation).cancel_units()
    data = analyze(fc)
    max_r = args.max_r if args.max_r else max(data.max_jump() + 1, 2)
    page_list = pages(data, max_r)
    rep = converge(fc, data)
    lines = ["r\tq_rel\th_rel\tdim\ttorsion-profile"]
    rows = []
    h0, q0 = _normalize(list(page_list[0].dims) or [(0, 0)])
    for page in page_list:
        for grade, dim in sorted(page.dims.items()):
            q_rel = (grade[1] - q0) if len(grade) > 1 else 0
            lines.append("%d\t%d\t%d\t%d\t-" % (page.r, q_rel, grade[0] - h0, dim))
            rows.append(
                {"r": page.r, "q_rel": q_rel, "h_rel": grade[0] - h0, "dim": dim}
            )
    einf = data.einf_by_level()
    for (grade, level), dim in sorted(einf.items()):
        q_rel = (grade[1] - q0) if len(grade) > 1 else 0
        lines.append(
            "inf\t%d\t%d\t%d\tlevel=%d" % (q_rel, grade[0] - h0, dim, level)
        )
    if cx.convention == "kh":
        # the grades of --truncation 0: a deeper window repeats their d_r below them
        floor = None if fc.trusted_floor is None else fc.trusted_floor + fc.extra_depth
        cons = check_constraints(page_list, floor)
        lines.append("# constraints\t%s" % ("pass" if cons.ok else "FAIL"))
        for v in cons.violations:
            lines.append("# violation\td%d\t%s" % (v.r, v.reason))
    else:
        cons = None
    lines.append("# converge\t%s" % ("pass" if rep.ok else "FAIL"))
    payload = {
        "pages": rows,
        "converge": rep.ok,
        "constraints": (cons.ok if cons else None),
    }
    _emit(args, lines, payload)
    if not rep.ok:
        return 3
    return 0


def cmd_infer(args) -> int:
    e2 = serde.load_page_spec(serde.read_json(args.e2))
    target = serde.load_target_spec(serde.read_json(args.target))
    if args.resolve:
        check_survivor_budget(target, target.free_rank)
    patterns = enumerate_patterns(e2, target)
    lines = ["pattern\tk\tsrc\ttgt\tx_power"]
    rows = []
    for i, pat in enumerate(patterns):
        if not pat.entries:
            lines.append("%d\t-\t-\t-\t-" % i)
            rows.append({"pattern": i, "entries": []})
            continue
        for (k, src, tgt, a) in pat.entries:
            lines.append("%d\t%d\t%s\t%s\t%d" % (i, k, src, tgt, a))
        rows.append({"pattern": i, "entries": [list(e) for e in pat.entries]})
    lines.append("# count\t%d" % len(patterns))
    payload: dict = {"patterns": rows, "count": len(patterns)}
    if args.resolve and patterns:
        rep = resolve_filtration(e2, patterns[0], target)
        lines.append("# filtration\t%s" % rep.status)
        for (name, h, q, from_top) in rep.survivors:
            lines.append("# survivor\t%s\th=%d\tq=%d\tfrom_top=%d" % (name, h, q, from_top))
        for name in sorted(rep.assignment):
            lines.append("# assign\t%s\t%s" % (name, rep.assignment[name]))
        for deep, shallow in rep.forced_below:
            lines.append("# deeper\t%s\tthan\t%s" % (deep, shallow))
        payload["filtration"] = {
            "status": rep.status,
            "survivors": [list(s) for s in rep.survivors],
            "assignment": rep.assignment,
        }
    _emit(args, lines, payload)
    return 0


def cmd_examples(args) -> int:
    rows = models.run_model_suite()
    rows.extend(_khovanov_golden_rows())
    lines = ["check\tresult\tdetail"]
    fails = 0
    for label, passed, detail in rows:
        lines.append("%s\t%s\t%s" % (label, "pass" if passed else "FAIL", detail))
        if not passed:
            fails += 1
    lines.append("# checks\t%d" % len(rows))
    lines.append("# failures\t%d" % fails)
    payload = {
        "checks": [
            {"label": l, "passed": p, "detail": d} for (l, p, d) in rows
        ],
        "failures": fails,
    }
    _emit(args, lines, payload)
    return 0 if fails == 0 else 3


TREFOIL_PD = "PD[X(1,4,2,5),X(3,6,4,1),X(5,2,6,3)]"
HOPF_PD = "PD[X(1,3,2,4),X(3,1,4,2)]"


def _khovanov_golden_rows():
    rows = []

    def note(label, passed, detail=""):
        rows.append((label, passed, detail))

    unknot = kh.ckh(kh.parse_pd("U"))
    note("unknot hat dim 2", sum(flavor_dims(unknot, "hat").values()) == 2)
    mt = kh.mirror(kh.parse_pd(TREFOIL_PD))
    cc = kh.ckh(mt)
    hom = homology(cc.complex)
    note("mirror trefoil minus free rank 3", hom.free_rank == 3 and not hom.torsion)
    note("mirror trefoil hat dim 6", sum(flavor_dims(cc, "hat").values()) == 6)
    dims = flavor_dims(cc, "reduced")
    note(
        "mirror trefoil reduced dim 3 in one delta class",
        sum(dims.values()) == 3 and len({q - 2 * h for (h, q) in dims}) == 1,
    )
    mh = kh.mirror(kh.parse_pd(HOPF_PD))
    cc = kh.ckh(mh)
    hom = homology(cc.complex)
    note("mirror hopf minus free rank 2", hom.free_rank == 2 and not hom.torsion)
    acts = [
        hom.induced_matrix(kh.basepoint_action(cc, arc))
        for arc in mh.component_arcs()
    ]
    # each basepoint acts as u on both free summands, whatever their basis
    u_on_both = {(0, 0): 1, (1, 1): 1}
    note("mirror hopf component actions equal", acts[0] == acts[1] == u_on_both,
         repr(acts[0]))
    fc = FilteredComplex(cc.complex, cc.levels).cancel_units()
    note("mirror hopf cube converges", converge(fc, analyze(fc)).ok)
    for n in (1, 2, 3, 4):
        hom = homology(kh.ckh(kh.unlink(n)).complex)
        note(
            "unlink %d minus rank 2^%d over F[U]" % (n, n),
            hom.free_rank == 2 ** (n - 1) and not hom.torsion,
        )
    return rows


def _emit(args, lines, payload) -> None:
    if getattr(args, "out", "tsv") == "json":
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write("\n".join(lines) + "\n")


@functools.cache  # built once per process: parse_args leaves it as it is
def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="skeinseq",
        description="Cube-of-resolutions homology, filtered-complex spectral "
        "sequences, and forced-differential inference over F2.",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("kh", help="homology of a planar diagram")
    p.add_argument("--pd", help="PD text, e.g. PD[X(1,4,2,5),X(3,6,4,1),X(5,2,6,3)]")
    p.add_argument("--in", dest="infile", help="diagram JSON file")
    p.add_argument("--flavor", choices=FLAVORS, default="minus")
    p.add_argument("--basepoint", type=int)
    p.add_argument("--mirror", action="store_true")
    p.add_argument("--out", choices=("tsv", "json"), default="tsv")
    p.set_defaults(func=cmd_kh)

    p = sub.add_parser("ss", help="spectral sequence of a filtered complex")
    p.add_argument("--in", dest="infile", required=True, help="complex JSON with filtration")
    p.add_argument("--max-r", type=int, default=0)
    p.add_argument("--truncation", type=int, default=0,
                   help="extra depth for the reported grading window")
    p.add_argument("--out", choices=("tsv", "json"), default="tsv")
    p.set_defaults(func=cmd_ss)

    p = sub.add_parser("infer", help="enumerate differential patterns")
    p.add_argument("--e2", required=True, help="page spec JSON")
    p.add_argument("--target", required=True, help="target spec JSON")
    p.add_argument("--resolve", action="store_true", help="also resolve filtration levels")
    p.add_argument("--out", choices=("tsv", "json"), default="tsv")
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("examples", help="run the golden example suite")
    p.add_argument("--out", choices=("tsv", "json"), default="tsv")
    p.set_defaults(func=cmd_examples)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        # str() of a KeyError is the repr of its key: print a message as it is
        if isinstance(exc, KeyError) and len(exc.args) == 1 and isinstance(exc.args[0], str):
            exc = exc.args[0]
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except (AssertionError, ArithmeticError) as exc:
        sys.stderr.write("internal invariant failure: %s\n" % exc)
        return 3


if __name__ == "__main__":
    sys.exit(main())
