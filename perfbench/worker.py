"""One pass of one workload, over both fields, in a fresh process.

Started by ``run.py``; not meant to be run by hand.  The worker imports
``lyub`` from the checkout's ``src/`` and writes the workload's ideal files;
the ``time.monotonic()`` reading at that point ends set-up.  It then runs
each job through ``lyub.cli.main([..., "--json"])`` in a closed loop and
prints one JSON line with that reading and the per-job records.  With ``--trace`` the same jobs run
under the tracer and the spans are written to the given file.  With
``--setup-only`` it stops once it is ready.

Untraced passes time every job at the machine's reference speed; see
``SpeedProbe``.
"""

import argparse
import gc
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import workloads
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent

# The probe's time at the reference speed: its median over many passes on
# the 2-core Xeon the benchmark was defined on.  Times are reported as
# measured time * PROBE_REF_S / probe time, i.e. in seconds at this speed.
PROBE_REF_S = 0.00095
PROBE_TICK_S = 0.05
PROBE_N = 8
PROBE_MATRIX = tuple(
    tuple(Fraction((i * 7 + j * 3) % 11 - 5, 1 + (i + j) % 4) for j in range(PROBE_N))
    for i in range(PROBE_N)
)


def probe() -> float:
    """Seconds a fixed Gaussian elimination over ``Fraction`` takes: the
    machine's speed right now for code like ``lyub``'s, which is made of
    small-object arithmetic and Python-level calls.  Of the probes tried
    (an integer loop, dict and set building, scattered list reads) this one
    tracked the speed of ``lyub``'s jobs most closely, over Q and F_2.

    It runs with the collector off, and every object it makes is freed when
    it returns, so the program's heap cannot change its time.
    """
    enabled = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    m = [list(row) for row in PROBE_MATRIX]
    rank = 0
    for c in range(PROBE_N):
        pivot = next((r for r in range(rank, PROBE_N) if m[r][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][c]
        for r in range(rank + 1, PROBE_N):
            f = m[r][c] * inv
            if f:
                row, top = m[r], m[rank]
                for k in range(c, PROBE_N):
                    row[k] -= f * top[k]
        rank += 1
    took = time.perf_counter() - start
    if enabled:
        gc.enable()
    return took


class SpeedProbe:
    """Samples the machine's speed before, during and after every job.

    On a shared host the speed of the same Python code drifts by tens of
    percent over seconds to minutes, much alike for the probe and for
    ``lyub``.  An interval timer runs ``probe()`` every ``PROBE_TICK_S``
    inside the jobs, and one more sample is taken between jobs.  A job's
    time excludes the samples taken during it and is scaled by
    ``PROBE_REF_S`` over the mean of its samples, the one before it, those
    during it and the one after it.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self._handler = None
        self._busy = False

    def _sample(self, *_):
        if self._busy:  # a tick inside a sample would double its time
            return
        self._busy = True
        start = time.perf_counter()
        self.samples.append((start, probe()))
        self._busy = False

    def __enter__(self):
        self._sample()
        self._handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_TICK_S, PROBE_TICK_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)

    def between_jobs(self):
        self._sample()

    def scale(self, start: float, end: float) -> tuple[float, float]:
        """(probe seconds inside [start, end], reference speed / speed there)."""
        inside = [s for s in self.samples if start <= s[0] <= end]
        near = [s[1] for s in self.samples if s[0] < start][-1:] + [s[1] for s in inside]
        near += [s[1] for s in self.samples if s[0] > end][:1]
        return sum(s[1] for s in inside), PROBE_REF_S / statistics.fmean(near)


def _run_job(cli, argv):
    """(start, end, exit code or error text, stdout, stderr) of one CLI call."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the arguments
        rc = f"SystemExit({exc.code})"
    except Exception as exc:  # a traceback is a failed job, not a failed run
        rc = f"{type(exc).__name__}: {exc}"
    return start, time.perf_counter(), rc, out.getvalue(), err.getvalue()


def _record(job, seconds, raw_seconds, rc, stdout, stderr) -> dict:
    rec = {"id": job.id, "s": seconds, "raw_s": raw_seconds, "rc": rc, "raw": workloads.digest(stdout)}
    try:
        rec["sha256"] = workloads.digest(workloads.canonical(json.loads(stdout)))
    except ValueError:
        rec["sha256"] = None
    if rc != 0:
        rec["stderr"] = stderr[-500:]
    return rec


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--trace", default=None, help="write spans to this file")
    ap.add_argument("--run-id", default="")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import lyub.cli

    if not Path(lyub.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"lyub imported from {lyub.cli.__file__}, not this checkout", file=sys.stderr)
        return 2

    texts, jobs = workloads.plan(args.workload, args.seed, args.small)
    work = ROOT / ".perfbench" / "work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    try:
        paths = {}
        for name, text in texts.items():
            paths[name] = work / f"{name}.ideal"
            paths[name].write_text(text, encoding="utf-8")
        ready = time.monotonic()
        setup_scale = PROBE_REF_S / statistics.median(probe() for _ in range(3))
        if args.setup_only:
            print(json.dumps({"ready": ready, "setup_scale": setup_scale}), flush=True)
            return 0

        tracer = speed = None
        if args.trace:
            tracer = Tracer(args.run_id)
            tracer.install()
        else:
            speed = SpeedProbe()
        results = []
        try:
            with speed or nullcontext():
                for i, job in enumerate(jobs):
                    argv = job.argv(str(paths[job.input]))
                    if tracer is None:
                        result = _run_job(lyub.cli, argv)
                        speed.between_jobs()
                    else:
                        with tracer.job(i):
                            result = _run_job(lyub.cli, argv)
                    results.append(result)
        finally:
            if tracer is not None:
                tracer.uninstall()
    finally:
        shutil.rmtree(work, ignore_errors=True)

    records = []
    for job, (start, end, rc, stdout, stderr) in zip(jobs, results):
        raw, factor = end - start, 1.0
        if speed is not None:
            inside, factor = speed.scale(start, end)
            raw -= inside
        records.append(_record(job, raw * factor, raw, rc, stdout, stderr))
    report = {
        "ready": ready,
        "setup_scale": setup_scale,
        "wall_s": {f: sum(r["s"] for j, r in zip(jobs, records) if j.field == f) for f in workloads.FIELDS},
        "raw_wall_s": {f: sum(r["raw_s"] for j, r in zip(jobs, records) if j.field == f) for f in workloads.FIELDS},
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "jobs": records,
    }
    if tracer is not None:
        header = {"workload": args.workload, "seed": args.seed, "jobs": [job.id for job in jobs]}
        tracer.write(args.trace, header)
        report["counts"] = tracer.counts()
        report["spans"] = len(tracer.spans)
        report["missing"] = tracer.missing
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
