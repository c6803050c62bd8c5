"""Record the golden answers of the fixed workloads.

    python3 perfbench/record_golden.py

Runs every job of every workload, except the ``check`` jobs, over both
fields through ``lyub.cli.main`` and writes ``golden/<workload>.json``: per
job the sha256 of its canonical JSON output, and the output itself when it
is small.  Before anything is written, the answers are confirmed by means
that do not trust them:

- each stored dual input is the Alexander dual of its ideal;
- ``lyub check`` passes on every ideal whose dual the Taylor-based strand
  route can resolve (a7, nine, rp2), and ``table --check`` gives the stored
  table wherever it can run;
- the nine-variable table is trivial and the cycle ideals' tables have the
  banded shape, as the paper states.

A ``check`` job needs no file: its one correct answer is "every
cross-route check passes".  Golden answers are recorded once, from the
commit that defines the benchmark; later commits are measured against them.
"""

import io
import json
import shutil
import sys
from contextlib import redirect_stdout
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
INLINE_BYTES = 2048  # outputs up to this size are stored in full
# ideals whose dual has few enough generators for the Taylor-based strand route
STRAND_ROUTE = {"a4", "a5", "a6", "a7", "rp2", "nine"}


def _cli(lyub_cli, argv) -> dict:
    out = io.StringIO()
    with redirect_stdout(out):
        rc = lyub_cli.main(argv)
    if rc != 0:
        raise SystemExit(f"lyub {' '.join(argv)} exited with {rc}")
    return json.loads(out.getvalue())


def table_shape_ok(name: str, report: dict) -> bool:
    """The paper's tables: trivial for the nine-variable ideal, and
    lambda_{0,d-1} = lambda_{2,d} = lambda_{d,d} = 1 for the cycle ideals
    a_n with n >= 6."""
    d, table = report["d"], report["lyubeznik"]
    if name == "nine":
        want = {(d, d)}
    elif name.startswith("a") and int(name[1:]) >= 6:
        want = {(0, d - 1), (2, d), (d, d)}
    else:
        return True
    return all(
        table[p][i] == (1 if (p, i) in want else 0)
        for p in range(d + 1)
        for i in range(d + 1)
    )


def record(lyub_cli, small: bool, out_dir: Path) -> None:
    work = out_dir / ".work"
    work.mkdir(exist_ok=True)
    try:
        _record(lyub_cli, small, out_dir, work)
    finally:
        shutil.rmtree(work)


def _record(lyub_cli, small, out_dir, work) -> None:
    from lyub import alexander_dual

    checked = set()
    for workload in workloads.WORKLOADS:
        texts, jobs = workloads.plan(workload, 0, small)
        jobs = [job for job in jobs if job.command != "check"]
        names = sorted({job.input for job in jobs})
        confirmed = {}
        paths = {}
        for name in names:
            paths[name] = work / f"{name}.ideal"
            paths[name].write_text(texts[name], encoding="utf-8")
            base = name.removesuffix("v")
            if name != base:
                primal = lyub_cli.parse_input(workloads.named_input(base)).ideal()
                if alexander_dual(primal) != lyub_cli.parse_input(texts[name]).ideal():
                    raise SystemExit(f"{name} is not the Alexander dual of {base}")
            if base not in STRAND_ROUTE:
                continue
            primal_path = work / f"primal-{base}.ideal"
            primal_path.write_text(workloads.named_input(base), encoding="utf-8")
            for field in workloads.FIELDS:
                if (base, field) not in checked:
                    rep = _cli(lyub_cli, ["check", str(primal_path), "--field", field, "--json"])
                    if not rep["check"]["ok"]:
                        raise SystemExit(f"check fails on {base} over {field}")
                    checked.add((base, field))
                if f"table:{name}:{field}" in {job.id for job in jobs}:
                    rep = _cli(lyub_cli, ["table", str(primal_path), "--field", field, "--check", "--json"])
                    del rep["routes_checked"]
                    confirmed[f"table:{name}:{field}"] = workloads.canonical(rep)
        golden = {}
        for job in jobs:
            report = _cli(lyub_cli, job.argv(str(paths[job.input])))
            text = workloads.canonical(report)
            if job.id in confirmed and confirmed[job.id] != text:
                raise SystemExit(f"{job.id}: the strand route disagrees")
            if job.command == "table" and not table_shape_ok(job.input, report):
                raise SystemExit(f"{job.id}: table does not have the paper's shape")
            golden[job.id] = {"sha256": workloads.digest(text), "bytes": len(text)}
            if len(text) <= INLINE_BYTES:
                golden[job.id]["output"] = text
        record = {
            "workload": workload,
            "check_passes_on": sorted({n.removesuffix("v") for n in names} & STRAND_ROUTE),
            "table_check_agrees": sorted(confirmed),
            "jobs": golden,
        }
        (out_dir / f"{workload}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    import lyub.cli

    record(lyub.cli, small=False, out_dir=HERE / "golden")
    return 0


if __name__ == "__main__":
    sys.exit(main())
