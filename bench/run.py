"""Time-to-verdict benchmark for the `lcsq` CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Drives `lcsq.cli.main` in-process from one thread in a closed loop: a
workload is a fixed list of CLI jobs (see workloads.py), run pass after
pass until S seconds have gone and at least two passes are done.  Every
job's exit code and outputs are checked against an oracle that does not
use `lcsq`, and every repeat of a job must reproduce the stdout and file
bytes of its first pass.

With --trace 0 the last stdout line reports the end-to-end metrics:
pass_s (median time of one pass), setup_s (import numpy once, then the
median of several fresh imports of lcsq plus input generation), both in
reference seconds (see SpeedProbe below), and peak_rss_mb.  With --trace 1
the first pass runs untraced, the later passes under the tracer
(tracer.py), and one last pass of the cert and build jobs under
tracemalloc for memory peaks.  The line then reports the per-layer
metrics, also in reference seconds, and the tracing overhead: traced pass
time minus that of the first (untraced, cold) pass.  Full results, with
per-command and per-job times, raw wall times, per-job output digests and
run metadata, go to bench/results/BENCH_<workload>_seed<seed>_trace<t>.json,
and the spans of a traced run to SPANS_<...>.json beside it.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import traceback
from bisect import bisect_left, bisect_right
from time import perf_counter

from oracle import Mismatch
from tracer import Tracer
from workloads import WORKLOADS, check_job, make_jobs

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

MIN_PASSES = 2
SETUP_REPEATS = 5
# the commands that reach the layers whose memory is reported (qcert, decolor)
MEMORY_COMMANDS = ("cert", "build")
COMMANDS = ("group", "cert", "iso", "aut", "build")

# Shared hosts change CPU speed by tens of percent within seconds: on a
# 2-vCPU x86-64 VM a fixed pure-Python loop swung between 0.24 and 0.36 s
# from one run to the next.  So every run samples a fixed probe every
# PROBE_INTERVAL_S from a timer signal, and each timed interval is scaled by
# PROBE_REF_S / (median probe duration inside it).  PROBE_REF_S is the
# probe's median on that VM under CPython 3.11, so reference seconds are
# close to its wall seconds.  Raw wall times stay in the results file.
PROBE_INTERVAL_S = 0.02
PROBE_REF_S = 3.0e-4
PROBE_LOOPS = 4000
MIN_PROBES = 3


def probe() -> float:
    """Duration of a fixed slice of interpreter work that allocates nothing
    the garbage collector tracks."""
    start = perf_counter()
    x = 0
    for i in range(PROBE_LOOPS):
        x = (x * 31 + i) & 0xFFFF
    return perf_counter() - start


class SpeedProbe:
    """Samples probe() from SIGALRM while active (main thread only).

    A sample that is still running when the next signal arrives makes that
    signal a no-op: under tracemalloc or on a loaded host the probe can
    outlast the interval, and nested samples would pile up until the stack
    overflows inside the code under test.  Stop it with stop() before any
    untimed work that slows the interpreter, such as a tracemalloc pass.
    """

    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []
        self._busy = False

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        self.stop()
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def _sample(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        try:
            self.times.append(perf_counter())
            self.durations.append(probe())
        finally:
            self._busy = False

    def scale(self, start: float, end: float) -> float | None:
        """Reference seconds per wall second over [start, end]."""
        lo, hi = bisect_left(self.times, start), bisect_right(self.times, end)
        if hi - lo < MIN_PROBES:
            return None
        return PROBE_REF_S / statistics.median(self.durations[lo:hi])


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def fresh_lcsq():
    """Import every lcsq module anew; numpy stays loaded."""
    for name in [m for m in sys.modules if m == "lcsq" or m.startswith("lcsq.")]:
        del sys.modules[name]
    cli = importlib.import_module("lcsq.cli")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise ImportError(f"lcsq imported from {cli.__file__}, not from {SRC}")
    return cli


def setup(workload: str, seed: int, workdir: str):
    """Import numpy once, then SETUP_REPEATS times: a fresh import of lcsq
    and the workload's inputs written into an emptied work directory."""
    start = perf_counter()
    import numpy  # noqa: F401
    numpy_s = perf_counter() - start
    repeats = []
    for _ in range(SETUP_REPEATS):
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        os.chdir(workdir)
        start = perf_counter()
        cli = fresh_lcsq()
        jobs = make_jobs(workload, cli.main, ".", seed)
        repeats.append(perf_counter() - start)
    return cli, jobs, numpy_s, repeats


def run_pass(jobs, main, tracer=None):
    """One timed pass; returns (pass start, pass end, per-job records)."""
    for job in jobs:
        for path in job.outputs:
            if os.path.exists(path):
                os.remove(path)
    records = []
    pass_start = perf_counter()
    for job in jobs:
        out, err = io.StringIO(), io.StringIO()
        span = tracer.job(job.name) if tracer else contextlib.nullcontext()
        start = perf_counter()
        try:
            with span, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc, exc = main(list(job.argv)), None
        except Exception:
            rc, exc = None, traceback.format_exc()
        records.append({"job": job, "rc": rc, "stdout": out.getvalue(),
                        "stderr": err.getvalue(), "exc": exc,
                        "start": start, "end": perf_counter()})
    return pass_start, perf_counter(), records


def _read(path: str) -> bytes | None:
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError:
        return None


def check_pass(records, first: dict, failures: list) -> int:
    """Check every job of a pass; returns the number of failed jobs."""
    failed = 0
    for rec in records:
        job = rec["job"]
        outputs = {path: _read(path) for path in job.outputs}
        digests = {"stdout": hashlib.sha256(rec["stdout"].encode()).hexdigest()}
        digests.update({os.path.basename(p): hashlib.sha256(b).hexdigest()
                        for p, b in outputs.items() if b is not None})
        try:
            if rec["exc"] is not None:
                raise Mismatch("raised " + rec["exc"].strip().splitlines()[-1])
            missing = [p for p, b in outputs.items() if b is None]
            if missing:
                raise Mismatch(f"did not write {missing}")
            check_job(job, rec["rc"], rec["stdout"], outputs)
            if job.name in first and first[job.name] != digests:
                raise Mismatch("stdout or written files differ from the first pass")
        except (Mismatch, KeyError, TypeError) as exc:
            failed += 1
            failures.append({"job": job.name, "error": f"{type(exc).__name__}: {exc}",
                             "stderr": rec["stderr"][-500:]})
        first.setdefault(job.name, digests)
    return failed


def summarize(values: list[float]) -> dict:
    """Median and sample count, plus the highest percentile with at least
    ten samples beyond it when there are that many."""
    out = {"median": statistics.median(values), "n": len(values)}
    ordered = sorted(values)
    for pct in (99.9, 99, 95, 90, 75):
        if len(values) * (100 - pct) / 100 >= 10:
            out[f"p{pct:g}"] = ordered[min(len(ordered) - 1,
                                           int(len(ordered) * pct / 100))]
            break
    return out


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref), encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "lcsq", "cli.py")):
        print(f"error: no lcsq sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = os.path.join(HERE, "work", f"{args.workload}-seed{args.seed}")
    resultdir = os.path.join(HERE, "results")
    os.makedirs(resultdir, exist_ok=True)
    try:
        with SpeedProbe() as speed:
            run = measure(args, workdir, speed)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
    report(args, run, resultdir)
    return 0


def measure(args, workdir: str, speed: SpeedProbe) -> dict:
    """Set up, then run passes; traced runs end with a memory pass."""
    run: dict = {"passes": [], "traced": [], "layers": [], "first": {},
                 "failures": [], "attempted": 0, "failed": 0}
    setup_start = perf_counter()
    cli, jobs, run["numpy_s"], run["setup_repeats"] = setup(args.workload, args.seed,
                                                             workdir)
    run["setup_window"] = (setup_start, perf_counter())
    run["jobs"] = jobs

    def one_pass(tracer, jobs=jobs):
        start, end, records = run_pass(jobs, cli.main, tracer)
        run["attempted"] += len(records)
        run["failed"] += check_pass(records, run["first"], run["failures"])
        return start, end, records

    tracer = None
    start = perf_counter()
    while True:
        if args.trace and run["passes"] and tracer is None:
            tracer = Tracer()
            tracer.install()
        timed = one_pass(tracer)
        if tracer is None:
            run["passes"].append(timed)
        else:
            run["traced"].append(timed[:2])
            run["layers"].append(tracer.take())
        done = len(run["passes"]) + len(run["traced"])
        if perf_counter() - start >= args.seconds and done >= MIN_PASSES:
            break
    run["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        # one more pass for memory peaks only; tracemalloc distorts its times
        speed.stop()
        tracer.memory = True
        one_pass(tracer, [j for j in jobs if j.command in MEMORY_COMMANDS])
        run["peaks"] = {k: v for k, v in tracer.take().items() if k.endswith("_mb")}
        tracer.uninstall()
        run["spans"] = tracer.spans
    run["speed"] = speed
    return run


def report(args, run: dict, resultdir: str) -> None:
    """Write the results file and print the summary and the result line."""
    speed = run["speed"]
    passes = run["passes"]
    run_scale = PROBE_REF_S / statistics.median(speed.durations)

    def scale(start: float, end: float) -> float:
        return speed.scale(start, end) or run_scale

    def ref(start: float, end: float) -> float:
        """Reference seconds for a wall interval."""
        return (end - start) * scale(start, end)

    wall = [end - start for start, end, _ in passes]
    ref_passes = [ref(start, end) for start, end, _ in passes]
    jobs = run["jobs"]
    job_ref = {j.name: [] for j in jobs}
    command_ref = {c: [] for c in COMMANDS if any(j.command == c for j in jobs)}
    for _, _, records in passes:
        for rec in records:
            job_ref[rec["job"].name].append(ref(rec["start"], rec["end"]))
        for c in command_ref:
            command_ref[c].append(sum(ref(r["start"], r["end"])
                                      for r in records if r["job"].command == c))
    setup_wall = run["numpy_s"] + statistics.median(run["setup_repeats"])

    if args.trace:
        layers = []
        for (start, end), numbers in zip(run["traced"], run["layers"]):
            f = scale(start, end)
            layers.append({k: v * f if k.endswith("_s") else v for k, v in numbers.items()})
        metrics = {n: statistics.median(p[n] for p in layers) for n in sorted(layers[0])}
        metrics.update(run["peaks"])
        traced = [ref(start, end) for start, end in run["traced"]]
        unaccounted = [t - sum(v for k, v in p.items() if k.endswith(".self_s"))
                       for t, p in zip(traced, layers)]
        metrics["trace.pass_s"] = statistics.median(traced)
        metrics["trace.overhead_s"] = metrics["trace.pass_s"] - ref_passes[0]
        metrics["trace.unaccounted_s"] = statistics.median(unaccounted)
    else:
        metrics = {"pass_s": statistics.median(ref_passes),
                   "setup_s": setup_wall * scale(*run["setup_window"]),
                   "peak_rss_mb": run["peak_rss_mb"]}

    import numpy
    attempted, failed = run["attempted"], run["failed"]
    results = {
        "meta": {"workload": args.workload, "seed": args.seed,
                 "seconds": args.seconds, "traced": bool(args.trace),
                 "git_commit": git_commit(), "python": platform.python_version(),
                 "numpy": numpy.__version__, "nproc": os.cpu_count(),
                 "loop": "closed, one client, one thread"},
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "failed_ratio": failed / attempted, "failures": run["failures"][:20],
        "metrics": metrics,
        "setup_wall": {"numpy_import_s": run["numpy_s"],
                       "lcsq_import_and_inputs_s": run["setup_repeats"]},
        "pass_wall_s": summarize(wall), "pass_walls": wall,
        "pass_ref_s": summarize(ref_passes), "pass_refs": ref_passes,
        "traced_pass_walls": [end - start for start, end in run["traced"]],
        "command_ref_s": {f"{c}_s": summarize(v) for c, v in command_ref.items()},
        "job_ref_s": {n: summarize(v) for n, v in job_ref.items()},
        "probe": {"ref_s": PROBE_REF_S, "samples": len(speed.durations),
                  "median_s": statistics.median(speed.durations)},
        "peak_rss_mb": run["peak_rss_mb"],
        "digests": run["first"],
    }
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    with open(os.path.join(resultdir, f"BENCH_{stem}.json"), "w") as fh:
        json.dump(results, fh, indent=1, sort_keys=True)
    if args.trace:
        with open(os.path.join(resultdir, f"SPANS_{stem}.json"), "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "job"],
                       "spans": run["spans"]}, fh)

    for f in run["failures"][:5]:
        print(f"FAILED {f['job']}: {f['error']}")
    for name, stats in results["command_ref_s"].items():
        print(f"{name}: median {stats['median']:.4f} reference s over {stats['n']} passes")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {n: {"value": v, "unit": unit(n)}
                                  for n, v in metrics.items()}}))


if __name__ == "__main__":
    sys.exit(main())
