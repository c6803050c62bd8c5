"""The lyub benchmark: one workload, one seed, end to end or traced.

    python3 perfbench/run.py --workload hypercube --seed 1 --seconds 60 --trace 0

Run from the root of a checkout.  Each pass runs every job of the workload,
over Q and over F_2, in a fresh worker process (``worker.py``) that imports
``lyub`` from ``src/`` and sends each job through
``lyub.cli.main([..., "--json"])``.  Passes follow each other while the
next is expected to end within ``--seconds``; there is always at least one.
Times are scaled to a reference speed of the machine (see ``worker.SpeedProbe``).
Every job's output is compared with its golden answer.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``; the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The exit code is 0 when every output was
correct, 1 when one was not, and 2 when the run could not start.  See
``README.md`` for the metrics and workloads.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN_DIR = HERE / "golden"
OUT_DIR = ROOT / ".perfbench" / "results"
WORKER_TIMEOUT_S = 100  # a pass takes 15-30 s; a run must end within 180 s
SETUP_SAMPLES = 5  # set-up-only workers started before the passes

END_TO_END = (
    ("wall_q_s", "s"),
    ("wall_f2_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
)


class SetupError(Exception):
    """The run cannot start; no result is printed."""


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def _git_commit() -> str:
    """The checkout's commit, read from ``.git`` without leaving the tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def provenance(workload: str, seed: int, texts: dict) -> dict:
    return {
        "commit": _git_commit(),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "workload": workload,
        "seed": seed,
        "inputs_sha256": {name: workloads.digest(text) for name, text in texts.items()},
        "cli_settings": "defaults: single thread, no --parallel",
    }


# ---------------------------------------------------------------------------
# golden answers
# ---------------------------------------------------------------------------


def expected_digests(workload: str, jobs, texts: dict, golden_dir: Path) -> dict:
    """Job id -> sha256 of its canonical JSON output.  A ``check`` job has
    one correct output, every check passing; the others are recorded in
    ``golden/<workload>.json``."""
    path = golden_dir / f"{workload}.json"
    try:
        golden = json.loads(path.read_text(encoding="utf-8"))["jobs"]
    except (OSError, ValueError, KeyError) as exc:
        raise SetupError(f"cannot read golden answers {path}: {exc}") from exc
    return {
        job.id: workloads.digest(workloads.expected_check(texts[job.input], job.field))
        if job.command == "check"
        else golden.get(job.id, {}).get("sha256")
        for job in jobs
    }


# ---------------------------------------------------------------------------
# worker passes
# ---------------------------------------------------------------------------


def run_pass(workload, seed, small=False, trace_path=None, run_id="", setup_only=False) -> dict:
    """One worker process: set-up time, wall time per field, peak RSS and
    per-job records; or an ``error``.  Set-up time is scaled to the
    reference speed like the job times (see ``worker.SpeedProbe``)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed)]
    if small:
        cmd.append("--small")
    if setup_only:
        cmd.append("--setup-only")
    if trace_path is not None:
        cmd += ["--trace", str(trace_path), "--run-id", run_id]
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": f"worker timed out after {WORKER_TIMEOUT_S} s"}
    try:
        report = json.loads(out.strip().splitlines()[-1])
    except (IndexError, ValueError):
        report = None
    if proc.returncode != 0 or report is None:
        return {"error": f"worker exited with {proc.returncode}"}
    report["raw_setup_s"] = report.pop("ready") - spawned
    report["setup_s"] = report["raw_setup_s"] * report["setup_scale"]
    return report


def _failures(passes, expected, jobs) -> list[dict]:
    """Every job that raised, exited non-zero or missed its golden answer.
    A pass that did not report counts all of its jobs as failed."""
    out = []
    for i, p in enumerate(passes):
        if "error" in p:
            for job in jobs:
                out.append({"pass": i, "id": job.id, "why": p["error"]})
            continue
        for rec in p["jobs"]:
            if rec["rc"] != 0:
                out.append({"pass": i, "id": rec["id"], "why": f"exit {rec['rc']}",
                            "stderr": rec.get("stderr", "")})
            elif rec["sha256"] != expected.get(rec["id"]):
                out.append({"pass": i, "id": rec["id"], "why": "output differs from the golden answer"})
    return out


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def _percentiles(passes) -> tuple[float, float]:
    """p50 and p90 in ms over the jobs of the workload, where a job's
    latency is its median over the run's passes.  On ``routes`` that is 132
    jobs, 13 of them beyond the p90."""
    by_job: dict[str, list] = {}
    for p in passes:
        for rec in p["jobs"]:
            by_job.setdefault(rec["id"], []).append(rec["s"] * 1000)
    cuts = statistics.quantiles(
        [statistics.median(v) for v in by_job.values()], n=10, method="inclusive"
    )
    return cuts[4], cuts[8]


def _schedule(workload, seed, seconds, small) -> list[dict]:
    """Passes until the next one is expected to end after ``seconds``."""
    passes: list[dict] = []
    deadline = time.monotonic() + seconds
    while True:
        began = time.monotonic()
        passes.append(run_pass(workload, seed, small))
        now = time.monotonic()
        if now + (now - began) > deadline:
            return passes


def measure(workload, seed, seconds, trace, small=False, golden_dir=GOLDEN_DIR) -> dict:
    """Run one benchmark run and return the full result record."""
    if not (ROOT / "src" / "lyub" / "cli.py").is_file():
        raise SetupError(f"no lyub sources under {ROOT / 'src'}")
    texts, jobs = workloads.plan(workload, seed, small)
    expected = expected_digests(workload, jobs, texts, golden_dir)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    record = {"provenance": provenance(workload, seed, texts), "trace": trace}

    if not trace:
        deadline = time.monotonic() + seconds
        setups = [run_pass(workload, seed, small, setup_only=True) for _ in range(SETUP_SAMPLES)]
        passes = _schedule(workload, seed, deadline - time.monotonic(), small)
        metrics = {}
        if not any("error" in p for p in passes + setups):
            p50, p90 = _percentiles(passes)
            values = {
                "wall_q_s": statistics.median(p["wall_s"]["q"] for p in passes),
                "wall_f2_s": statistics.median(p["wall_s"]["fp:2"] for p in passes),
                "setup_s": statistics.median(p["setup_s"] for p in setups + passes),
                "peak_rss_mb": max(p["rss_kb"] for p in passes) / 1024,
                "job_p50_ms": p50,
                "job_p90_ms": p90,
            }
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        record["samples"] = {
            "passes": len(passes),
            "setups": len(setups) + len(passes),
            "jobs_behind_percentiles": len(jobs),
        }
        record["passes"] = [
            {**{k: v for k, v in p.items() if k != "jobs"}, "job_s": {r["id"]: r["s"] for r in p.get("jobs", ())}}
            for p in passes
        ]
        record["setups"] = setups
        fails = _failures(passes, expected, jobs)
        fails += [{"pass": "setup", "id": "-", "why": s["error"]} for s in setups if "error" in s]
    else:
        run_id = uuid.uuid4().hex
        plain = run_pass(workload, seed, small)
        traced = run_pass(workload, seed, small, OUT_DIR / f"trace-{workload}-seed{seed}.jsonl.gz", run_id)
        passes = [plain, traced]
        fails = _failures(passes, expected, jobs)
        raw = {rec["id"]: rec["raw"] for rec in plain.get("jobs", ())}
        for rec in traced.get("jobs", ()):
            if rec["raw"] != raw.get(rec["id"]):
                fails.append({"pass": 1, "id": rec["id"], "why": "traced output differs from untraced output"})
        metrics = {}
        if "error" not in plain and "error" not in traced:
            layers = tracer.layer_metrics(traced["counts"])
            name, unit = tracer.OVERHEAD_METRIC
            layers[name] = (sum(traced["raw_wall_s"].values()) - sum(plain["raw_wall_s"].values()), unit)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in layers.items()}
        record["run_id"] = run_id
        record["spans"] = traced.get("spans", 0)
        record["untraced_functions"] = traced.get("missing", [])
        record["observer_errors"] = sum(s["observer_errors"] for s in traced.get("counts", {}).values())
        record["passes"] = [{k: v for k, v in p.items() if k not in ("jobs", "counts")} for p in passes]

    record["attempted"] = len(passes) * len(jobs)
    record["failed"] = len({(f["pass"], f["id"]) for f in fails})
    record["failures"] = fails
    record["error_rate"] = record["failed"] / record["attempted"]
    record["correct"] = not fails and bool(metrics)
    record["metrics"] = metrics
    return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        record = measure(args.workload, args.seed, args.seconds, args.trace)
    except SetupError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for key, value in record["provenance"].items():
        print(f"{key}: {value}")
    if "samples" in record:
        print(f"samples: {record['samples']}")
    print(f"error_rate: {record['error_rate']} ({record['failed']} of {record['attempted']} jobs)")
    for fail in record["failures"][:10]:
        print(f"FAILED {fail['id']}: {fail['why']}")
    for name, m in record["metrics"].items():
        print(f"{name}: {m['value']} {m['unit']}")
    print(f"record: {path.relative_to(ROOT)}")
    print(json.dumps({k: record[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
