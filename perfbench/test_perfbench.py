"""Self-test of the benchmark on shrunken inputs.

    python3 -m pytest perfbench -q

The workloads run with ``small=True``: the same jobs on smaller ideals, so
the whole file takes well under a minute.
"""

import gzip
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import record_golden  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

WORK = ROOT / ".perfbench" / "selftest"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def small_golden():
    import lyub.cli

    out = WORK / "golden"
    out.mkdir(parents=True, exist_ok=True)
    record_golden.record(lyub.cli, small=True, out_dir=out)
    return out


@pytest.fixture(scope="module")
def traced(small_golden):
    return {w: run.measure(w, 3, 0, 1, small=True, golden_dir=small_golden) for w in workloads.WORKLOADS}


def _calls(record, prefix):
    return sum(m["value"] for k, m in record["metrics"].items() if k.startswith(prefix) and k.endswith(".calls"))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_metrics_named_with_units(small_golden, workload):
    record = run.measure(workload, 3, 0, 0, small=True, golden_dir=small_golden)
    assert record["correct"] and record["failed"] == 0
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: m["unit"] for k, m in record["metrics"].items()} == want
    assert all(m["value"] > 0 for m in record["metrics"].values())
    prov = record["provenance"]
    assert prov["seed"] == 3 and prov["inputs_sha256"] and prov["nproc"] >= 1
    assert record["samples"]["jobs_behind_percentiles"] >= 2


def test_per_layer_metrics_named_with_units(traced):
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for record in traced.values():
        assert record["correct"], record["failures"]
        assert {k: m["unit"] for k, m in record["metrics"].items()} == want


def test_traced_outputs_match_untraced(traced):
    # measure() flags any job whose traced stdout differs byte for byte
    for record in traced.values():
        assert not [f for f in record["failures"] if "traced" in f["why"]]
        assert record["spans"] > 0 and record["run_id"]


def _spans_by_command(workload):
    """Command -> names of the spans recorded under its jobs."""
    with gzip.open(run.OUT_DIR / f"trace-{workload}-seed3.jsonl.gz", "rt") as fh:
        head = json.loads(fh.readline())
        out: dict = {}
        for line in fh:
            _, _, name, _, _, job = json.loads(line)
            out.setdefault(head["jobs"][job].split(":")[0], set()).add(name)
    return out


def test_spans_fire_where_expected(traced):
    hyper, routes = traced["hypercube"], traced["routes"]
    for name in ("hypercube.build_hypercube", "hypercube.assemble", "linalg.rank", "linalg.rref",
                 "linalg.homology_space", "linalg.homology_dims", "cohomology.coboundary_matrix",
                 "cohomology.face_projection", "invariants.lyubeznik_table", "invariants.bass_table",
                 "invariants.dual_bass_table", "invariants.small_support",
                 "invariants.injective_dimensions", "invariants.nonzero_cohomology_degrees"):
        assert _calls(hyper, name) > 0, name
    assert _calls(hyper, "resolution.") == 0
    for name in ("resolution.taylor_complex", "resolution.minimize", "resolution.minimal_resolution",
                 "resolution.strand_frame", "invariants.routes_agree",
                 "invariants.terai_mustata_consistent", "invariants.betti_matches_hypercube",
                 "cohomology.reduced_cohomology_dims_all", "combinatorics"):
        assert _calls(routes, name) > 0, name
    for record in traced.values():
        assert all(record["metrics"][f"cli.{fn}.self_s"]["value"] > 0 for fn in ("main", "run", "parse_input"))
    spans = _spans_by_command("routes")
    assert "resolution.taylor_complex" in spans["strands"]
    assert not {s for c in ("strands", "betti") for s in spans[c] if s.startswith("hypercube.")}
    assert "hypercube.build_hypercube" in spans["check"]


def test_counts_repeat_exactly(small_golden, traced):
    for workload in workloads.WORKLOADS:
        again = run.measure(workload, 3, 0, 1, small=True, golden_dir=small_golden)
        for name, m in again["metrics"].items():
            if m["unit"] == "count":
                assert m["value"] == traced[workload]["metrics"][name]["value"], name


def test_corrupted_golden_fails(small_golden):
    bad = WORK / "bad-golden"
    shutil.rmtree(bad, ignore_errors=True)
    shutil.copytree(small_golden, bad)
    golden = json.loads((bad / "hypercube.json").read_text())
    job = next(iter(golden["jobs"].values()))
    job["sha256"] = "0" * 64
    (bad / "hypercube.json").write_text(json.dumps(golden))
    record = run.measure("hypercube", 3, 0, 0, small=True, golden_dir=bad)
    assert not record["correct"] and record["failed"] >= 1
    assert any("golden" in f["why"] for f in record["failures"])


def test_wrappers_cover_every_binding_and_are_removed():
    import lyub.cli
    import lyub.cohomology
    import lyub.hypercube
    import lyub.invariants
    import lyub.linalg

    rank, build = lyub.linalg.rank, lyub.hypercube.build_hypercube
    t = tracer.Tracer("selftest")
    t.install()
    try:
        assert lyub.linalg.rank is not rank and lyub.cohomology.rank is lyub.linalg.rank
        assert lyub.invariants.build_hypercube is lyub.hypercube.build_hypercube is lyub.cli.build_hypercube
        assert lyub.cli.build_hypercube is not build
    finally:
        t.uninstall()
    assert lyub.linalg.rank is rank and lyub.cohomology.rank is rank
    assert lyub.cli.build_hypercube is build and lyub.invariants.build_hypercube is build


def test_stored_golden_tables_have_the_papers_shape():
    for field in workloads.FIELDS:
        jobs = json.loads((run.GOLDEN_DIR / "hypercube.json").read_text())["jobs"]
        for name in ("nine", "a10"):
            report = json.loads(jobs[f"table:{name}:{field}"]["output"])
            assert record_golden.table_shape_ok(name, report)
        assert sum(map(sum, json.loads(jobs[f"table:nine:{field}"]["output"])["lyubeznik"])) == 1


def test_check_generator_is_seeded_and_every_slot_can_be_filled():
    assert workloads.check_inputs(5) == workloads.check_inputs(5)
    assert workloads.check_inputs(5) != workloads.check_inputs(6)
    assert len(workloads.check_inputs(5)) == 60
    for n, k, a, b in workloads.CHECK_SLOTS + workloads.SMALL_CHECK_SLOTS:
        # the b larger primes rule out at most b * (k + 1) size-k candidates
        assert 0 < a + b <= 12 and a <= math.comb(n, k) - b * (k + 1)


def test_refuses_to_run_without_the_program():
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run(
        SPEC["command"] + ["--workload", "hypercube", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0 and '"correct"' not in proc.stdout


def test_tracer_tolerates_a_changed_program(monkeypatch):
    import lyub.linalg

    monkeypatch.setitem(tracer.SPANS, "linalg", tracer.SPANS["linalg"] + ("no_such_function",))
    t = tracer.Tracer("selftest")
    t.install()
    try:
        # a keyword call hides the matrix from the entries observer
        assert lyub.linalg.rank(mat=lyub.linalg.ExactMatrix.identity(lyub.linalg.QQ, 2)) == 2
    finally:
        t.uninstall()
    assert t.missing == ["linalg.no_such_function"]
    assert t.stats["linalg.rank"]["calls"] == 1 and t.stats["linalg.rank"]["observer_errors"] == 1


def test_speed_probe_scales_a_job_by_the_samples_around_it():
    import worker

    speed = worker.SpeedProbe()
    ref = worker.PROBE_REF_S
    # (start, probe seconds): before the job, two inside it, after it, later
    speed.samples = [(0.0, ref), (1.0, 2 * ref), (2.0, 2 * ref), (3.5, ref), (9.0, 9 * ref)]
    inside, factor = speed.scale(0.5, 3.0)
    assert inside == pytest.approx(4 * ref)
    assert factor == pytest.approx(ref / (6 * ref / 4))  # half speed on half the samples
    assert worker.probe() > 0
