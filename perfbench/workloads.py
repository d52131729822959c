"""Jobs of the three workloads, built from the frozen data and a seed.

Every job is one argument list for ``skeinseq.cli.main``.  Inputs that the
package itself would produce (PD codes, kh cubes, infer pages) are frozen in
``data/``; the floer-convention complexes are generated here, by code that
does not touch the package, and checked against recorded input digests.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import random
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
DATA = os.path.join(HERE, "data")
FROZEN = os.path.join(DATA, "frozen.json")
CUBES = os.path.join(DATA, "cubes")

WORKLOADS = ("kh-cube", "spectral-ss", "infer-search")
FLAVORS = ("minus", "hat", "reduced")

# Fixed parts of each workload.  The largest input of each workload is fixed,
# not seeded, so that large_input_s varies only with the code under test.
# No job may take much more than a second: every job is timed in each of
# several passes and scaled by probes timed either side of it (see
# worker.py), so 11 crossings (10-20 s a job) are left out.
CYCLIC = (3, 5, 7, 9)
KH_LARGE = "cyclic9"
SS_CUBES = ("cyclic7", "cyclic9")
SS_LARGE = "cyclic9"
INFER_LARGE = "fixed12"

# Seeded parts: one pool entry per stratum per run (two for infer), so every
# seed does about the same amount of work.
KH_STRATA = (4, 5, 6, 7)  # crossing counts of the random diagrams
FLOER_STRATA = (250, 350)  # planted pieces per floer complex
INFER_STRATA = ("t8", "t9", "t10", "t11", "t12", "t8r", "t10r", "t12r")
INFER_PER_STRATUM = 2


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def dumps(doc) -> bytes:
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()


@dataclass
class Job:
    key: str  # unique name; indexes the recorded digests
    argv: list[str]
    large: bool = False
    info: dict = field(default_factory=dict)  # what the oracles need


def floer_complex(gen_seed: int, pieces: int) -> dict:
    """Direct sum of planted u^power pieces plus isolated towers (floer).

    Each piece a -> b has one one-entry column and its own filtration jump,
    so the complex has many slices and an alex2 grading; its cost is in
    bookkeeping, not elimination.
    """
    rng = random.Random(gen_seed)
    gens, diff = [], []
    for k in range(pieces):
        jump = rng.randrange(1, 5)
        power = rng.randrange(1, min(jump + 1, 4))
        shift = rng.randrange(3)
        a2 = rng.randrange(2)
        gens.append({"id": "p%d_a" % k, "h": 0, "alex2": a2, "filtration": shift})
        gens.append({"id": "p%d_b" % k, "h": power - 1, "alex2": (a2 + power) % 2,
                     "filtration": shift + jump})
        diff.append({"from": "p%d_a" % k, "to": "p%d_b" % k, "poly": "u^%d" % power})
    for k in range(pieces // 5):
        gens.append({"id": "iso%d" % k, "h": rng.randrange(-1, 2),
                     "alex2": rng.randrange(2), "filtration": rng.randrange(6)})
    rng.shuffle(gens)
    return {"variables": [{"name": "u", "unit": "1/2"}], "convention": "floer",
            "generators": gens, "diff": diff}


def load_frozen() -> dict:
    with open(FROZEN, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _pick(pool: list[dict], strata, rng: random.Random, whole: bool, per: int = 1) -> list[dict]:
    if whole:
        return list(pool)
    out = []
    for s in strata:
        out += rng.sample([p for p in pool if p["stratum"] == s], per)
    return out


def kh_jobs(diagram: dict, name: str, flavors=FLAVORS, large=False) -> list[Job]:
    jobs = []
    for fl in flavors:
        argv = ["kh", "--pd", diagram["pd"], "--flavor", fl]
        if fl == "reduced":
            argv.append("--basepoint=%d" % diagram["basepoint"])
        jobs.append(Job("kh/%s/%s" % (fl, name), argv, large,
                        {"kind": "kh", "flavor": fl, "diagram": name, "pd": diagram["pd"],
                         "knot": diagram["components"] == 1}))
    return jobs


def build_jobs(workload: str, seed: int, frozen: dict, workdir: str,
               whole_pools: bool = False) -> list[Job]:
    """The job list of one pass.  Writes the job input files to workdir.

    whole_pools takes every pool member instead of one per stratum; the
    freeze script uses it to record the digests of all of them.
    """
    rng = random.Random("%s/%d" % (workload, seed))
    digests = frozen["digests"]
    jobs: list[Job] = []
    if workload == "kh-cube":
        fixed = frozen["diagrams"]
        for name in dict.fromkeys(["cyclic%d" % n for n in CYCLIC] + frozen["corpus"]):
            jobs += kh_jobs(fixed[name], name, large=name == KH_LARGE)
        for entry in _pick(frozen["pools"]["kh"], KH_STRATA, rng, whole_pools):
            jobs += kh_jobs(entry, entry["name"])
        jobs.append(Job("examples", ["examples"], info={"kind": "examples"}))
    elif workload == "spectral-ss":
        for name in dict.fromkeys(list(SS_CUBES) + frozen["corpus"]):
            with gzip.open(os.path.join(CUBES, name + ".json.gz"), "rb") as fh:
                raw = fh.read()
            jobs.append(_ss_job("ss/cube/" + name, raw, "kh", workdir, name == SS_LARGE, digests))
        for entry in _pick(frozen["pools"]["floer"], FLOER_STRATA, rng, whole_pools):
            raw = dumps(floer_complex(entry["gen_seed"], entry["pieces"]))
            jobs.append(_ss_job("ss/floer/" + entry["name"], raw, "floer", workdir, False, digests))
    elif workload == "infer-search":
        chosen = [frozen["infer_fixed"]] + _pick(frozen["pools"]["infer"], INFER_STRATA, rng,
                                                 whole_pools, INFER_PER_STRATUM)
        for entry in chosen:
            key = "infer/" + entry["name"]
            e2 = os.path.join(workdir, entry["name"] + ".e2.json")
            tg = os.path.join(workdir, entry["name"] + ".target.json")
            for path, doc in ((e2, entry["e2"]), (tg, entry["target"])):
                with open(path, "wb") as fh:
                    fh.write(dumps(doc))
            argv = ["infer", "--e2", e2, "--target", tg] + (["--resolve"] if entry["resolve"] else [])
            jobs.append(Job(key, argv, entry["name"] == INFER_LARGE,
                            {"kind": "infer", "towers": entry["e2"]["towers"]}))
    else:
        raise ValueError("unknown workload %r" % workload)
    rng.shuffle(jobs)  # seeded job order; the set of fixed jobs is the same
    return jobs


def _ss_job(key: str, raw: bytes, convention: str, workdir: str, large: bool,
            digests: dict) -> Job:
    want = digests.get(key, {}).get("in")
    if want is not None and sha(raw) != want:
        raise ValueError("input digest mismatch for %s" % key)
    path = os.path.join(workdir, key.replace("/", "_") + ".json")
    with open(path, "wb") as fh:
        fh.write(raw)
    return Job(key, ["ss", "--in", path], large, {"kind": "ss", "convention": convention})
