"""One benchmark run in a fresh process: set up, time passes, check, trace.

Started by run.py; prints one JSON object as its last line.  With
--setup-only it stops after set-up and reports only setup_s.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import io
import json
import os
import resource
import shutil
import signal
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from statistics import median

import oracles
import workloads as wl

ROOT = os.path.dirname(wl.HERE)
WORK = os.path.join(wl.HERE, "_work")


def check_jobs(jobs, outputs, digests, brackets=None) -> dict[str, list[str]]:
    """Problems per failed job: exit code, output digest, then the oracles."""
    brackets = {} if brackets is None else brackets
    failed: dict[str, list[str]] = {}
    by_key = {job.key: job for job in jobs}
    for job in jobs:
        rc, out, err = outputs[job.key]
        problems = []
        if rc != 0:
            problems.append("exit code %r: %s" % (rc, err.strip()[-300:]))
        want = digests.get(job.key, {}).get("out")
        if want is None:
            problems.append("no recorded output digest")
        elif wl.sha(out.encode()) != want:
            problems.append("output differs from the recorded digest")
        info = job.info
        try:
            if info["kind"] == "kh":
                pd = info["pd"]
                if pd not in brackets:
                    brackets[pd] = oracles.state_sum(pd)
                problems += oracles.check_kh(info["flavor"], out, brackets[pd])
                if info["flavor"] == "hat" and info["knot"]:
                    red = by_key.get("kh/reduced/" + info["diagram"])
                    if red is not None:
                        problems += oracles.check_knot_totals(out, outputs[red.key][1])
            elif info["kind"] == "ss":
                problems += oracles.check_ss(info["convention"], out)
            elif info["kind"] == "infer":
                problems += oracles.check_infer(info["towers"], out)
            elif info["kind"] == "examples":
                problems += oracles.check_examples(out)
        except (IndexError, KeyError, ValueError) as exc:  # unparsable output
            problems.append("output could not be checked: %r" % exc)
        if problems:
            failed[job.key] = problems
    return failed


# Seconds the probe below takes on the reference host: a 2-vCPU x86-64 VM
# under Python 3.11, at its fastest.  The host's speed swings by up to 1.8x
# within seconds and drifts from run to run, as other tenants come and go,
# and the probe slows with it.  Every timing is scaled by PROBE_REF_S over
# the mean probe time around and during it: seconds at reference speed.
PROBE_REF_S = 0.0005
TICK_S = 0.05  # probe interval while a job runs
_PROBE_DICT = dict.fromkeys(range(256), 0)


def probe() -> float:
    """Seconds for a fixed half millisecond of interpreter work.

    It allocates no container, so running it from a signal handler inside
    a job does not move the job's garbage collections.
    """
    t = time.perf_counter()
    d = _PROBE_DICT
    for i in range(3000):
        d[i & 255] = (d[(i * 7) & 255] + i) & 0xFFFF
    return time.perf_counter() - t


class SpeedMeter:
    """Probes before, every TICK_S during, and after each job it times."""

    def __init__(self):
        self.slowdowns: list[float] = []  # mean probe / PROBE_REF_S, per job
        self._probes: list[float] = []

    def _tick(self, signum, frame):
        self._probes.append(probe())

    def start(self):
        self._probes = [probe()]
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> float:
        """Disarm; record the job's slowdown; return seconds spent in ticks.

        The handler stays installed: a tick already pending runs it
        harmlessly, where the default action would end the process.
        """
        signal.setitimer(signal.ITIMER_REAL, 0)
        ticks = sum(self._probes[1:])
        self._probes.append(probe())
        self.slowdowns.append(sum(self._probes) / len(self._probes) / PROBE_REF_S)
        return ticks


def run_pass(jobs, main, tracer=None, meter=None):
    """Run every job once, in order.  Returns (outputs, seconds per job).

    With a SpeedMeter, job times leave out the meter's probes, and the
    meter records the host's slowdown during each job.
    """
    outputs, times = {}, {}
    for i, job in enumerate(jobs):
        gc.collect()
        if tracer is not None:
            tracer.begin_job(i)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            if meter is not None:
                meter.start()
            t = time.perf_counter()
            try:
                rc = main(job.argv)
            except SystemExit as exc:  # argparse rejects the arguments
                rc = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a crash counts as a failed job, not a failed run
                rc = None
                err.write(traceback.format_exc())
            times[i] = time.perf_counter() - t
            if meter is not None:
                times[i] -= meter.stop()
        outputs[job.key] = (rc, out.getvalue(), err.getvalue())
    return outputs, times


def pass_metrics(jobs, times) -> dict[str, float]:
    """wall_s, large_input_s and small_inputs_s from seconds per job index."""
    large = sum(t for i, t in times.items() if jobs[i].large)
    small = sum(t for i, t in times.items() if not jobs[i].large)
    return {"wall_s": large + small, "large_input_s": large, "small_inputs_s": small}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True, help="wall clock at process spawn")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    os.environ.pop("SKEINSEQ_THREADS", None)  # nothing reads it in parallel

    sys.path.insert(0, os.path.join(ROOT, "src"))
    from skeinseq import cli

    workdir = os.path.join(WORK, "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    try:
        frozen = wl.load_frozen()
        jobs = wl.build_jobs(args.workload, args.seed, frozen, workdir)
        setup_raw_s = time.time() - args.t0
        setup_s = setup_raw_s * PROBE_REF_S / median(probe() for _ in range(9))
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
            return 0
        gc.freeze()  # keep set-up objects out of the collections between jobs
        result = measure(args, jobs, frozen["digests"], cli.main)
        result["setup_s"], result["setup_raw_s"] = setup_s, setup_raw_s
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def measure(args, jobs, digests, cli_main) -> dict:
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < args.seconds:
        meter = SpeedMeter()
        outputs, times = run_pass(jobs, cli_main, meter=meter)
        passes.append((outputs, times, meter.slowdowns))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    brackets: dict = {}
    failures: dict[str, list[str]] = {}
    failed = 0
    for outputs, _, _ in passes:
        bad = check_jobs(jobs, outputs, digests, brackets)
        failed += len(bad)
        failures.update(bad)
    # Each job's time is the median over passes of its scaled time.
    scaled = {i: median(times[i] / slow[i] for _, times, slow in passes)
              for i in range(len(jobs))}
    raw = {i: median(times[i] for _, times, _ in passes) for i in range(len(jobs))}
    metrics = pass_metrics(jobs, scaled)
    metrics["peak_rss_mb"] = peak_rss_mb
    slowdown = median(x for _, _, slow in passes for x in slow)
    result = {"attempted": len(jobs) * len(passes), "failed": failed, "passes": len(passes),
              "jobs": len(jobs), "failures": failures, "metrics": metrics,
              "unscaled": pass_metrics(jobs, raw), "slowdown": slowdown,
              "job_s": {job.key: scaled[i] for i, job in enumerate(jobs)}}
    if args.trace:
        result["per_layer"], result["absent"] = traced_pass(
            args.workload, jobs, digests, brackets, result["unscaled"]["wall_s"], result)
    return result


def traced_pass(workload, jobs, digests, brackets, untraced_wall, result):
    """One pass with spans; per-layer times are unscaled seconds."""
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        # cli.main may itself be wrapped now; look it up again.
        from skeinseq import cli
        outputs, times = run_pass(jobs, cli.main, tracer)
    finally:
        tracer.uninstall()
    bad = check_jobs(jobs, outputs, digests, brackets)
    result["attempted"] += len(jobs)
    result["failed"] += len(bad)
    result["failures"].update(bad)
    large = {i for i, job in enumerate(jobs) if job.large}
    layers = tracer.summary(times, large)
    wall = pass_metrics(jobs, times)["wall_s"]
    layers["trace.wall_s"] = wall
    layers["trace.overhead_s"] = wall - untraced_wall
    spans_path = os.path.join(WORK, "spans-%s.jsonl.gz" % workload)
    with gzip.open(spans_path, "wt", encoding="utf-8", compresslevel=1) as fh:
        for rec in tracer.spans:
            fh.write(json.dumps(rec) + "\n")
    return layers, tracer.absent_names()


if __name__ == "__main__":
    sys.exit(main())
