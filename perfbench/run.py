"""Benchmark entry point: one run of one workload, reported as JSON.

    python3 perfbench/run.py --workload kh-cube --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root.  Each run starts fresh worker processes, one
after another: one that sets up, runs the workload's jobs in a closed loop,
one at a time, until --seconds have passed (at least one pass), and checks
every output outside the timed region, and before and after it a few that
only set up (for the median set-up time).
With --trace 1 the worker adds one traced pass and the metrics are the
per-layer ones.  The last line of standard output is the result object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from statistics import median

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("kh-cube", "spectral-ss", "infer-search")
SETUP_ONLY_RUNS = 4  # set-up-only workers before, and again after, the measuring one
DEADLINE_S = 170.0  # a run must end within 180 s

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("large_input_s", "s"),
    ("small_inputs_s", "s"),
    ("peak_rss_mb", "MB"),
)

S, N = "s", "count"
PER_LAYER = (
    ("khovanov.ckh.total_s", S), ("khovanov.ckh.calls", N),
    ("khovanov.ckh.gens", N), ("khovanov.ckh.entries", N),
    ("khovanov.parse_pd.total_s", S),
    ("complexes.UHomology.self_s", S), ("complexes.UHomology.total_s", S),
    ("complexes.UHomology.calls", N),
    ("complexes.homology_f2.self_s", S), ("complexes.homology_f2.total_s", S),
    ("complexes.homology_f2.calls", N),
    ("gf2.matrix_rank.total_s", S), ("gf2.matrix_rank.calls", N), ("gf2.matrix_rank.bits", N),
    ("umod.reduce_columns.total_s", S), ("umod.reduce_columns.calls", N),
    ("umod.echelonize.total_s", S), ("umod.echelonize.calls", N),
    ("umod.solve_in_echelon.total_s", S), ("umod.solve_in_echelon.calls", N),
    ("umod.module_decompose.total_s", S), ("umod.module_decompose.calls", N),
    ("umod.module_decompose.relations", N), ("umod.module_decompose.summands", N),
    ("spectral.analyze.total_s", S), ("spectral.analyze.calls", N),
    ("spectral.analyze.calls_per_job", N), ("spectral.analyze.events", N),
    ("spectral.analyze.survivors", N),
    ("spectral.converge.self_s", S), ("spectral.converge.total_s", S),
    ("gf2.column_kernel.total_s", S), ("gf2.column_kernel.calls", N),
    ("gf2.ColumnSpace.add.total_s", S), ("gf2.ColumnSpace.add.calls", N),
    ("spectral.pages.self_s", S), ("spectral.check_constraints.total_s", S),
    ("serde.read_json.total_s", S), ("serde.load_complex.total_s", S),
    ("infer.enumerate_patterns.total_s", S), ("infer.enumerate_patterns.calls", N),
    ("infer.enumerate_patterns.patterns", N), ("infer.module_decompose.calls", N),
    ("infer.resolve_filtration.total_s", S),
    ("models.run_model_suite.total_s", S), ("cli.main.self_s", S),
    ("trace.wall_s", S), ("trace.overhead_s", S),
    ("trace.large_input_child_share", "ratio"), ("trace.absent", N),
)


class RunError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env.pop("SKEINSEQ_THREADS", None)  # nothing reads it in parallel
    env.pop("PYTHONPATH", None)
    # Set and dict orders, hence elimination orders and the work done, follow
    # the string hash seed; fix it so that every run does the same work.
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, extra: list[str], deadline: float) -> dict:
    """Start one worker, wait for it, and return its last output line."""
    t0 = time.time()
    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd + extra, capture_output=True, text=True, cwd=ROOT,
                              env=_env(), timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        raise RunError("worker did not finish before the deadline")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunError("worker exited with %d: %s" % (proc.returncode, proc.stderr.strip()[-2000:]))
    return json.loads(lines[-1])


def commit() -> str | None:
    """The checked-out commit, read from .git when there is one."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return None


def source_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "skeinseq")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def run_one(args) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    # Set-up samples are spread over the run, so a slow spell of the host
    # at its start does not set the median.
    setups = [spawn(args, ["--setup-only"], deadline) for _ in range(SETUP_ONLY_RUNS)]
    res = spawn(args, [], deadline)
    setups.append(res)
    setups += [spawn(args, ["--setup-only"], deadline) for _ in range(SETUP_ONLY_RUNS)]
    res["metrics"]["setup_s"] = median(s["setup_s"] for s in setups)
    res["unscaled"]["setup_s"] = median(s["setup_raw_s"] for s in setups)
    res["stamp"] = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)), "commit": commit(),
        "src_sha256": source_digest(),
    }
    return res


def report(res: dict, trace: int) -> dict:
    """Print the readable lines of one run; return its result object."""
    stamp = res["stamp"]
    print("# stamp " + json.dumps(stamp, sort_keys=True))
    print("# %s seed %d: %d jobs x %d passes (+%d traced), %d failed, fail_ratio %.4g"
          % (stamp["workload"], stamp["seed"], res["jobs"], res["passes"], trace,
             res["failed"], res["failed"] / res["attempted"]))
    for key, problems in sorted(res["failures"].items()):
        print("# FAIL %s: %s" % (key, "; ".join(problems)))
    print("# unscaled medians: %s; host slowdown (probe / reference) %.3f"
          % (", ".join("%s %.6f" % kv for kv in sorted(res["unscaled"].items())), res["slowdown"]))
    for name, unit in END_TO_END:
        print("%-32s %14.6f %s" % (name, res["metrics"][name], unit))
    metrics = {name: {"value": res["metrics"][name], "unit": unit} for name, unit in END_TO_END}
    if trace:
        for name in res["absent"]:
            print("# absent %s" % name)
        layers = res["per_layer"]
        for name, unit in PER_LAYER:
            print("%-40s %14.6f %s" % (name, layers.get(name, 0.0), unit))
        metrics = {name: {"value": layers.get(name, 0.0), "unit": unit} for name, unit in PER_LAYER}
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "skeinseq", "cli.py")):
        print("error: no skeinseq sources under %s" % os.path.join(ROOT, "src"), file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        args.workload = name
        try:
            res = run_one(args)
        except RunError as exc:
            print("error: %s: %s" % (name, exc), file=sys.stderr)
            return 1
        os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
        with open(os.path.join(HERE, "_work", "result-%s-trace%d.json" % (name, args.trace)),
                  "w", encoding="utf-8") as fh:
            json.dump(res, fh, indent=1, sort_keys=True)
        results.append(report(res, args.trace))
    if len(results) == 1:
        print(json.dumps(results[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
