"""Regenerate the frozen inputs in data/ and record every job's digests.

Run from the repository root as ``python3 perfbench/freeze.py``.  It builds
the PD codes, kh cubes and infer pages with the package at the current
commit, runs every job of every pool member once, checks it with the
oracles and records the sha256 of its input and its output.  Later commits
are measured against these digests, so run it only when the benchmark's
inputs change on purpose.
"""

from __future__ import annotations

import gzip
import json
import os
import random
import shutil
import sys

import workloads as wl

ROOT = os.path.dirname(wl.HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from skeinseq import cli  # noqa: E402
from skeinseq import infer as sk_infer  # noqa: E402
from skeinseq import khovanov as kh  # noqa: E402
from skeinseq import serde  # noqa: E402

import oracles  # noqa: E402

from worker import check_jobs, run_pass  # noqa: E402

TREFOIL = "PD[X(1,4,2,5),X(3,6,4,1),X(5,2,6,3)]"
HOPF = "PD[X(1,3,2,4),X(3,1,4,2)]"
FIG8 = "PD[X(4,2,5,1),X(8,6,1,5),X(6,3,7,4),X(2,7,3,8)]"
POOL_SIZE = 6


def corpus() -> dict:
    """The acceptance corpus of tests/test_acceptance.py."""
    tre, fig8 = kh.parse_pd(TREFOIL), kh.parse_pd(FIG8)
    return {
        "unknot": kh.parse_pd("U"),
        "kink": kh.parse_pd("PD[X(1,2,2,1)]"),
        "kink2": kh.parse_pd("PD[X(1,2,2,3),X(3,4,4,1)]"),
        "hopf": kh.parse_pd(HOPF),
        "hopf_kinked": kh.add_kink(kh.parse_pd(HOPF), 1),
        "trefoil": tre,
        "trefoil_kinked": kh.add_kink(tre, 1),
        "fig8": fig8,
        "cyclic5": kh.cyclic_knot(5),
        "granny": kh.connect_sum(tre, tre),
        "cyclic7": kh.cyclic_knot(7),
        "cyclic7_kinked": kh.add_kink(kh.cyclic_knot(7), 1),
        "fig8_sum": kh.connect_sum(fig8, fig8),
    }


def pd_text(d) -> str:
    tokens = ["X(%d,%d,%d,%d)" % cr for cr in d.crossings] + ["U"] * d.free_loops
    return "U" if tokens == ["U"] else "PD[%s]" % ",".join(tokens)


def diagram_entry(d) -> dict:
    return {"pd": pd_text(d), "basepoint": min(d.arcs), "components": d.components(),
            "crossings": len(d.crossings)}


# Hat cube size (generators, +-20%) the random diagrams of each stratum are
# held to, so that the members of a stratum cost about the same.  The
# 9-crossing cyclic knot has 2046; random sums and kinks past 8 crossings
# mostly exceed 10000, and 8 crossings (about 1.2 s a diagram for the three
# flavours) already costs more of a pass than the timing can afford.
KH_CUBE = {4: 90, 5: 165, 6: 400, 7: 1100}


def random_diagram(rng: random.Random, crossings: int):
    """Connected sums of small pieces, kinks, mirrors and unlinked loops."""
    lo, hi = 0.8 * KH_CUBE[crossings], 1.2 * KH_CUBE[crossings]
    while True:
        d = _random_diagram(rng, crossings)
        if lo <= sum(2 ** m for _, m in oracles.states(pd_text(d))) <= hi:
            return d


def _random_diagram(rng: random.Random, crossings: int):
    pieces = [kh.parse_pd(TREFOIL), kh.parse_pd(FIG8), kh.parse_pd(HOPF), kh.cyclic_knot(5)]
    fits = [p for p in pieces if len(p.crossings) <= crossings]
    d = rng.choice(fits)
    while len(d.crossings) < crossings:
        left = crossings - len(d.crossings)
        fits = [p for p in pieces if len(p.crossings) <= left]
        if fits and rng.random() < 0.6:
            p = rng.choice(fits)
            d = kh.connect_sum(d, kh.mirror(p) if rng.random() < 0.5 else p)
        else:
            d = kh.add_kink(d, rng.choice([a for a in d.arcs if a > 0]))
    if rng.random() < 0.5:
        d = kh.mirror(d)
    if rng.random() < 0.3:
        d = kh.LinkDiagram(d.crossings, kh.unlink(rng.randrange(1, 3)).free_loops)
    return d


def planted_page(rng: random.Random, n: int) -> tuple[dict, dict]:
    """A page of n free towers with 1-3 planted d_k pairs, and its target."""
    towers, tors, idx = [], [], 0
    pairs = rng.randrange(1, 4)
    for _ in range(pairs):
        k, a = rng.choice((3, 3, 5)), rng.choice((0, 1, 1, 2))
        h, q = rng.randrange(0, 3), 2 * rng.randrange(0, 4) + 1
        towers += [{"name": "t%d" % idx, "h": h, "q": q},
                   {"name": "t%d" % (idx + 1), "h": h + k, "q": q + 2 * k - 2 + 2 * a}]
        idx += 2
        if a:
            tors.append(a)
    while len(towers) < n:
        towers.append({"name": "t%d" % idx, "h": rng.randrange(0, 6),
                       "q": 2 * rng.randrange(0, 8) + 1})
        idx += 1
    rng.shuffle(towers)
    return {"towers": towers}, {"free_rank": n - 2 * pairs, "torsion": sorted(tors)}


def search_calls(e2: dict, target: dict) -> int:
    """Calls to module_decompose made by one search: its work, as a count."""
    calls = [0]
    orig = sk_infer.module_decompose

    def counting(*args, **kwargs):
        calls[0] += 1
        return orig(*args, **kwargs)

    sk_infer.module_decompose = counting
    try:
        sk_infer.enumerate_patterns(serde.load_page_spec(e2), serde.load_target_spec(target))
    except ValueError:
        return -1
    finally:
        sk_infer.module_decompose = orig
    return calls[0]


def resolves(e2: dict, target: dict) -> bool:
    """Whether resolve_filtration accepts the first pattern.

    At this commit it raises KeyError when that pattern has entries on two
    pages (replay renames the page-homology towers the later entries name);
    the resolve strata keep only pages it accepts, and the defect is recorded
    in perfbench/README.md.
    """
    page, tgt = serde.load_page_spec(e2), serde.load_target_spec(target)
    pats = sk_infer.enumerate_patterns(page, tgt)
    try:
        sk_infer.resolve_filtration(page, pats[0], tgt)
    except KeyError:
        return False
    return True


def with_actions(rng: random.Random, target: dict) -> dict:
    """Basis names and a U2 action matrix for --resolve (<= 7 survivors)."""
    names = ["b%d" % i for i in range(target["free_rank"])]
    entries = [[b, b] for b in names]
    for _ in range(rng.randrange(1, 4)):
        i, j = rng.sample(range(len(names)), 2)
        entries.append([names[max(i, j)], names[min(i, j)]])
    return dict(target, basis=names, actions={"U2": entries})


# Work per search (module_decompose calls), +-15%, so that the members of a
# stratum cost about the same.
INFER_CALLS = {8: 300, 9: 450, 10: 600, 11: 800, 12: 1000}


def infer_pool(rng: random.Random) -> tuple[list[dict], dict]:
    pool = []
    for stratum in wl.INFER_STRATA:
        n, resolve = int(stratum[1:].rstrip("r")), stratum.endswith("r")
        lo, hi = 0.85 * INFER_CALLS[n], 1.15 * INFER_CALLS[n]
        while sum(p["stratum"] == stratum for p in pool) < POOL_SIZE:
            e2, target = planted_page(rng, n)
            if resolve and not 2 <= target["free_rank"] <= 7:
                continue
            if not lo <= search_calls(e2, target) <= hi:
                continue
            if resolve:
                target = with_actions(rng, target)
                if not resolves(e2, target):
                    continue
            name = "%s_%d" % (stratum, sum(p["stratum"] == stratum for p in pool))
            pool.append({"name": name, "stratum": stratum, "e2": e2, "target": target,
                         "resolve": resolve})
    while True:  # one heavy 12-tower search as the fixed largest input
        e2, target = planted_page(rng, 12)
        if 5000 <= search_calls(e2, target) <= 9000:
            fixed = {"name": wl.INFER_LARGE, "e2": e2, "target": target, "resolve": False}
            return pool, fixed


def main() -> int:
    rng = random.Random(20250501)
    frozen: dict = {"diagrams": {}, "corpus": [], "pools": {}, "digests": {}}
    cyclic = {"cyclic%d" % n: kh.cyclic_knot(n) for n in wl.CYCLIC}
    for name, d in list(cyclic.items()) + list(corpus().items()):
        frozen["diagrams"][name] = diagram_entry(d)
    frozen["corpus"] = list(corpus())
    kpool = []
    for c in wl.KH_STRATA:
        for i in range(POOL_SIZE):
            entry = diagram_entry(random_diagram(rng, c))
            kpool.append(dict(entry, name="r%d_%d" % (c, i), stratum=c))
    frozen["pools"]["kh"] = kpool
    frozen["pools"]["floer"] = [
        {"name": "f%d_%d" % (p, i), "stratum": p, "pieces": p, "gen_seed": 1000 * p + i}
        for p in wl.FLOER_STRATA for i in range(POOL_SIZE)
    ]
    frozen["pools"]["infer"], frozen["infer_fixed"] = infer_pool(rng)

    os.makedirs(wl.CUBES, exist_ok=True)
    for name in dict.fromkeys(list(wl.SS_CUBES) + frozen["corpus"]):
        d = kh.parse_pd(frozen["diagrams"][name]["pd"])
        cc = kh.ckh(d, "minus")
        raw = wl.dumps(serde.dump_complex(cc.complex, cc.levels))
        with open(os.path.join(wl.CUBES, name + ".json.gz"), "wb") as fh:
            fh.write(gzip.compress(raw, mtime=0))
        frozen["digests"]["ss/cube/" + name] = {"in": wl.sha(raw)}

    workdir = os.path.join(wl.HERE, "_work", "freeze")
    os.makedirs(workdir, exist_ok=True)
    bad = 0
    for workload in wl.WORKLOADS:
        jobs = wl.build_jobs(workload, 0, frozen, workdir, whole_pools=True)
        outputs, _ = run_pass(jobs, cli.main)
        for job in jobs:
            rec = frozen["digests"].setdefault(job.key, {})
            rec["out"] = wl.sha(outputs[job.key][1].encode())
            if job.info["kind"] == "ss":
                with open(job.argv[2], "rb") as fh:
                    rec["in"] = wl.sha(fh.read())
        for key, problems in check_jobs(jobs, outputs, frozen["digests"]).items():
            bad += 1
            print("FAIL", key, problems, file=sys.stderr)
        print("%s: %d jobs recorded" % (workload, len(jobs)), file=sys.stderr)
    shutil.rmtree(workdir)
    with open(wl.FROZEN, "w", encoding="utf-8") as fh:
        json.dump(frozen, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
