"""Benchmark for bicomm: one workload per invocation, from the repository root.

    python3 bench/run.py --workload words|chains|closure|cli --seed N \
        --seconds S --trace 0|1

Set-up (a fresh import of ``bicomm`` from ``src/``, seeded input generation
and input files) runs a few times, and then whole rounds of the workload's
fixed job list run until ``--seconds`` have passed.  Between untraced rounds
the set-up runs again every few seconds, and the rounds go on with its
workload, so that ``setup_s``, the median of all set-ups, is sampled over the
whole run like the rounds are.  Every round must give the same outputs, and
the first round's outputs are checked against reference values (see
``workloads.py``).

With ``--trace 0`` the last line reports the end-to-end metrics.  With
``--trace 1`` untraced rounds run first, then traced rounds (see
``tracing.py``); the last line reports the per-layer metrics, and the spans go
to ``bench/out/trace-<workload>.csv.gz``.  Everything runs in this process
on one thread.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import tracing as tr  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_REPEATS = 3      # set-ups before the first round
SETUP_EVERY = 3.0      # seconds between further set-ups, in untraced rounds
UNTRACED_SHARE = 0.4   # of --seconds, in a traced run

END_TO_END = {
    "wall_s": "s",
    "cpu_s": "s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def import_program():
    """Import bicomm from this checkout's src/, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "bicomm" or n.startswith("bicomm.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    bc = importlib.import_module("bicomm")
    cli = importlib.import_module("bicomm.cli")
    if not os.path.abspath(bc.__file__).startswith(SRC + os.sep):
        raise ImportError(f"bicomm was imported from {bc.__file__}, not from {SRC}")
    return bc, cli


def set_up(name, seed, workdir):
    if os.path.isdir(workdir):
        shutil.rmtree(workdir)
    t0 = time.perf_counter()
    os.makedirs(workdir)
    bc, cli = import_program()
    workload = wl.WORKLOADS[name](bc, cli, random.Random(f"bicomm-{name}-{seed}"), workdir)
    return time.perf_counter() - t0, workload


class Round:
    __slots__ = ("wall", "cpu", "times", "canon")


def run_round(workload, tracer=None):
    gc.collect()
    r = Round()
    r.times, outputs = [], []
    w0, c0 = time.perf_counter(), time.process_time()
    for k, job in enumerate(workload.jobs):
        if tracer is not None:
            tracer.job_id = len(tracer.rounds) * len(workload.jobs) + k
        s = time.perf_counter()
        try:
            out = job.fn()
        except Exception as exc:  # a failing operation is counted, not fatal
            out = wl.Failed(exc)
        r.times.append(time.perf_counter() - s)
        outputs.append(out)
    r.wall, r.cpu = time.perf_counter() - w0, time.process_time() - c0
    r.canon = [out if isinstance(out, wl.Failed) else job.canon(out)
               for job, out in zip(workload.jobs, outputs)]
    return r


def measure(workload, until, tracer=None, set_up_again=None):
    """Run whole rounds until the clock passes ``until``, at least one.

    With ``set_up_again``, call it between rounds once SETUP_EVERY seconds
    have passed since the last call, and go on with the workload it returns.
    Returns the rounds and the last workload."""
    rounds = []
    last = time.perf_counter()
    while not rounds or time.perf_counter() < until:
        if set_up_again is not None and time.perf_counter() - last >= SETUP_EVERY:
            workload = set_up_again()
            last = time.perf_counter()
        if tracer is not None:
            tracer.begin_round()
        rounds.append(run_round(workload, tracer))
        if tracer is not None:
            tracer.end_round()
    return rounds, workload


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be positive")

    workdir = os.path.join(OUT, f"run-{os.getpid()}")
    setups = []

    def set_up_again():
        seconds, workload = set_up(args.workload, args.seed, workdir)
        setups.append(seconds)
        return workload

    try:
        for _ in range(SETUP_REPEATS):
            workload = set_up_again()
        return measure_and_report(args, workload, setups, set_up_again)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def measure_and_report(args, workload, setups, set_up_again) -> int:
    njobs = len(workload.jobs)
    start = time.perf_counter()
    if args.trace:
        untraced, workload = measure(workload, start + UNTRACED_SHARE * args.seconds)
        tracer = tr.Tracer()
        tracer.install()
        try:
            traced, workload = measure(workload, start + args.seconds, tracer)
        finally:
            tracer.uninstall()
        rounds = untraced + traced
    else:
        rounds, workload = measure(workload, start + args.seconds, set_up_again=set_up_again)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    # checks run after the measurement and may import sympy
    outputs = rounds[0].canon
    differing = [k for r in rounds for k, out in enumerate(r.canon) if out != outputs[k]]
    failed_jobs = [(job, out) for job, out in zip(workload.jobs, outputs)
                   if isinstance(out, wl.Failed)]
    errors = wl.judge(workload, list(zip(workload.jobs, outputs)))
    if differing:
        job = workload.jobs[differing[0]]
        errors.insert(0, f"{len(differing)} outputs of later rounds differ from the first round, "
                         f"first at job {differing[0]} ({job.kind})")
    attempted = njobs * len(rounds)
    failed = sum(isinstance(out, wl.Failed) for r in rounds for out in r.canon)

    print(f"workload: {args.workload}")
    print(f"seed: {args.seed}")
    print(f"rounds: {len(rounds)} of {njobs} jobs, {args.seconds} s requested; round walls (s): "
          + " ".join(f"{r.wall:.3f}" for r in rounds))
    print(f"set-ups: {len(setups)}; times (s): " + " ".join(f"{t:.3f}" for t in setups))
    print(f"attempted: {attempted}  failed: {failed}")
    for job, out in failed_jobs:
        known = f" [known fault: {job.fault}]" if job.fault else ""
        print(f"  failing operation ({job.kind}): {out.text}{known}")
    for line in errors:
        print(f"  check failed: {line}")
    print(f"check: {'ok' if not errors else 'FAILED'}")

    if args.trace:
        untraced_wall = statistics.median(r.wall for r in untraced)
        traced_wall = statistics.median(r.wall for r in traced)
        overhead = traced_wall - untraced_wall
        values = tracer.layer_metrics(overhead)
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, f"trace-{args.workload}.csv.gz")
        spans = tracer.write(path)
        print(f"tracing: {len(untraced)} untraced rounds, median {untraced_wall:.4f} s; "
              f"{len(traced)} traced rounds, median {traced_wall:.4f} s; "
              f"overhead {overhead:.4f} s ({overhead / untraced_wall:.1%})")
        print(f"spans: {spans} written to {os.path.relpath(path, ROOT)}")
        metrics = {}
        for name, (unit, _) in tr.PER_LAYER.items():
            value = values[name]
            metrics[name] = {"value": value, "unit": unit}
            print(f"  {name} = {value:.6g} {unit}")
    else:
        samples = [t for r in rounds for t in r.times]
        values = {
            "wall_s": statistics.median(r.wall for r in rounds),
            "cpu_s": statistics.median(r.cpu for r in rounds),
            "job_p50_ms": statistics.median(samples) * 1e3,
            "job_p90_ms": statistics.quantiles(samples, n=10)[-1] * 1e3,
            "setup_s": statistics.median(setups),
            "peak_rss_mib": peak_rss_mib,
        }
        metrics = {}
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": values[name], "unit": unit}
            note = f" (n={len(samples)} job samples)" if name.startswith("job_") else ""
            print(f"  {name} = {values[name]:.6g} {unit}{note}")
    print(json.dumps({"correct": not errors, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ImportError as exc:
        sys.stderr.write(f"error: cannot import the program: {exc}\n")
        sys.exit(2)
