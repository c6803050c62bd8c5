import hashlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import lyub
from lyub import InputError, QQ, intersect_face_ideals, prime_field
from lyub.cli import (
    EXIT_BROKEN_PIPE,
    _json_text,
    main,
    parse_field,
    parse_input,
    run,
)
from .oracles import brute_hull, masks

A4_GENS = "n=4;\ngens: x1*x2, x1*x4, x2*x3, x3*x4;\n"
A5_PRIMES = "n=5;\nprimes: {1,3}, {1,4}, {2,4}, {2,5}, {3,5};\n"


def test_parse_gens_matches_intersection():
    spec = parse_input(A4_GENS)
    assert spec.n == 4 and spec.form == "gens"
    assert spec.ideal() == intersect_face_ideals(4, masks([1, 3], [2, 4]))


def test_parse_primes():
    spec = parse_input(A5_PRIMES)
    assert spec.form == "primes"
    assert spec.masks == tuple(
        sorted(masks([1, 3], [1, 4], [2, 4], [2, 5], [3, 5]))
    )
    assert len(spec.ideal().gens) == 5


def test_parse_comments_and_whitespace():
    text = "# a comment\nn=2;  # inline\n\ngens: x1 * x2;\n"
    spec = parse_input(text)
    assert spec.ideal().gens == (0b11,)


def test_parse_rejects_non_squarefree():
    with pytest.raises(InputError) as err:
        parse_input("n=4;\ngens: x1*x1*x2;")
    assert "repeated variable" in str(err.value)
    assert "line 2" in str(err.value)


def test_parse_rejects_inconsistent_n():
    with pytest.raises(InputError) as err:
        parse_input("n=3;\ngens: x4;")
    assert "x4" in str(err.value)
    with pytest.raises(InputError):
        parse_input("n=3;\nprimes: {1,5};")


def test_parse_rejects_both_or_missing_forms():
    with pytest.raises(InputError):
        parse_input("n=3;\ngens: x1;\nprimes: {2};")
    with pytest.raises(InputError):
        parse_input("n=3;")


def test_parse_syntax_error_position():
    with pytest.raises(InputError) as err:
        parse_input("n=3;\ngens x1;")
    msg = str(err.value)
    assert "line 2" in msg and "col" in msg


def test_parse_field():
    assert parse_field("q") is QQ
    assert parse_field("fp:7").p == 7
    with pytest.raises(InputError):
        parse_field("fp:6")
    with pytest.raises(InputError):
        parse_field("r")


def _spec(text, field=QQ):
    spec = parse_input(text)
    spec.field = field
    return spec


def test_run_table_report():
    report = run(_spec(A4_GENS), "table")
    assert report["lyubeznik"] == [[0, 1, 0], [0, 0, 0], [0, 0, 2]]
    assert report["d"] == 2
    assert report["n"] == 4 and report["field"] == "q"


def test_run_table_fp2():
    report = run(_spec(A5_PRIMES, field=prime_field(2)), "table")
    assert report["field"] == "fp:2"
    assert report["lyubeznik"][0] == [0, 0, 1, 0]


def test_run_bass_single_r():
    report = run(_spec(A5_PRIMES), "bass", r=3)
    assert report["bass"]["r"] == 3
    assert report["bass"]["rows"] == [
        {"alpha": [1, 1, 1, 1, 1], "mu": [1]}
    ]


def test_run_refuses_an_unknown_command():
    with pytest.raises(InputError, match="unknown command 'dual_bass'"):
        run(_spec(A5_PRIMES), "dual_bass")


def test_run_check_mode():
    report = run(_spec(A4_GENS), "check")
    assert report["check"]["ok"]
    assert report["check"]["routes_agree"]


def test_json_schema_stability(tmp_path):
    path = tmp_path / "a4.ideal"
    path.write_text(A4_GENS)
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(["table", str(path), "--json"])
    assert code == 0
    data = json.loads(buf.getvalue())
    assert list(data) == ["n", "field", "d", "lyubeznik"]
    assert data["lyubeznik"] == [[0, 1, 0], [0, 0, 0], [0, 0, 2]]


def test_main_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.ideal"
    bad.write_text("n=4;\ngens: x1*x1;\n")
    assert main(["table", str(bad)]) == 2
    assert "input error" in capsys.readouterr().err
    # a missing file and a directory: one input-error line, no errno text
    for unreadable in (tmp_path / "missing.ideal", tmp_path):
        assert main(["table", str(unreadable)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"input error: {unreadable}: ") and err.count("\n") == 1
        assert "Errno" not in err
    good = tmp_path / "a4.ideal"
    good.write_text(A4_GENS)
    assert main(["check", str(good)]) == 0
    out = capsys.readouterr().out
    assert "routes agree" in out


def test_main_resource_cap(tmp_path, capsys):
    # 21 incomparable generators exceed the Taylor cap on the dual side
    gens = ", ".join(f"x{i}*x{i+1}" for i in range(1, 22))
    path = tmp_path / "big.ideal"
    path.write_text(f"n=22;\ngens: {gens};\n")
    code = main(["betti", str(path)])
    assert code == 1
    assert "exceed" in capsys.readouterr().err


def test_main_hypercube_cap_refuses_before_any_restriction(tmp_path, capsys, monkeypatch):
    from lyub import hypercube

    def no_complex(*args):
        raise AssertionError("a cochain complex was formed")

    monkeypatch.setattr(hypercube, "cochain_complex", no_complex)
    monkeypatch.setattr(hypercube, "restrict_cochains", no_complex)
    path = tmp_path / "wide.ideal"
    path.write_text("n=17;\ngens: x1*x2, x16*x17;\n")
    assert main(["table", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "2^17" in err and "exceeds" in err


@pytest.mark.parametrize("command", ["bass", "dual-bass", "supp", "dims"])
def test_main_bass_cap_refuses_before_any_row(tmp_path, capsys, monkeypatch, command):
    from lyub import build_hypercube, invariants
    from lyub.hypercube import matlis_dual

    def no_rows(*args):
        raise AssertionError("a Bass row was computed")

    monkeypatch.setattr(invariants, "_hull_rows", no_rows)
    monkeypatch.setattr(invariants, "MAX_BASS_WORK", 10)
    path = tmp_path / "a5.ideal"
    path.write_text(A5_PRIMES)
    cube = build_hypercube(parse_input(A5_PRIMES).ideal(), 2, QQ)
    if command == "dual-bass":
        cube = matlis_dual(cube)
    # every support mask alpha walks the vertices below it
    work = sum(d for a in range(32) for v, d in cube.dims.items() if v & ~a == 0)
    assert main([command, str(path), "--r", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"assembles {work} vertex dimensions" in err
    assert "exceeds the cap of 10" in err


@pytest.mark.parametrize("command", ["bass", "dual-bass", "supp", "dims"])
def test_main_bass_cap_covers_every_degree(tmp_path, capsys, monkeypatch, command):
    # H^1 and H^2 are nonzero, and only the table of H^2 is over the cap:
    # without --r the whole command is refused before the H^1 rows are built
    from lyub import build_hypercube, invariants
    from lyub.hypercube import matlis_dual

    def no_rows(*args):
        raise AssertionError("a Bass row was computed")

    text = "n=4;\nprimes: {2}, {1,4}, {3,4};\n"
    ideal = parse_input(text).ideal()
    works = []
    for r in (1, 2):
        cube = build_hypercube(ideal, r, QQ)
        if command == "dual-bass":
            cube = matlis_dual(cube)
        works.append(sum(d for a in range(16) for v, d in cube.dims.items() if v & ~a == 0))
    assert lyub.nonzero_cohomology_degrees(ideal, QQ) == [1, 2]
    assert works[1] > works[0]
    monkeypatch.setattr(invariants, "_hull_rows", no_rows)
    monkeypatch.setattr(invariants, "MAX_BASS_WORK", works[0])
    path = tmp_path / "mixed.ideal"
    path.write_text(text)
    assert main([command, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert f"H^2 on n=4 variables assembles {works[1]} vertex dimensions" in err


def test_bass_supp_dims_build_each_bass_row_once(tmp_path, capsys, monkeypatch):
    # the tables bass builds are the ones supp and dims read, and each
    # computes one row per support hull (the union of the nonzero vertices
    # below a support mask), in one walk over its cube's main complex,
    # which the build wrote and checked once: one cube constructed per
    # degree, and no complex assembled through ``restricted_complex``
    from collections import Counter

    from lyub import build_hypercube, hypercube, invariants
    from lyub.invariants import support_masks

    hypercube._build_all_degrees.cache_clear()  # fresh cubes, no tables kept
    walks, calls, cubes = Counter(), Counter(), Counter()
    original, original_init = invariants._hull_rows, hypercube.Hypercube.__init__

    def counted(cube, dual, hulls, below):
        assert not dual
        walks[cube.r] += 1
        rows = original(cube, dual, hulls, below)
        calls.update((cube.r, h) for h in rows)
        return rows

    def counted_init(cube, n, r, field, dims, maps):
        cubes[n] += 1
        original_init(cube, n, r, field, dims, maps)

    def no_assembly(*args):
        raise AssertionError("a complex was assembled from a built cube")

    monkeypatch.setattr(invariants, "_hull_rows", counted)
    monkeypatch.setattr(hypercube.Hypercube, "__init__", counted_init)
    monkeypatch.setattr(hypercube, "restricted_complex", no_assembly)
    path = tmp_path / "a5.ideal"
    path.write_text(A5_PRIMES)
    for command in ("bass", "supp", "dims"):
        assert main([command, str(path), "--json"]) == 0
    capsys.readouterr()
    ideal = parse_input(A5_PRIMES).ideal()
    expected = set()
    for r in lyub.nonzero_cohomology_degrees(ideal, QQ):
        cube = build_hypercube(ideal, r, QQ)
        expected |= {(r, brute_hull(cube, alpha)) for alpha in support_masks(cube)}
    assert set(calls) == expected
    assert set(calls.values()) == {1}
    assert set(walks) == {r for r, _ in expected}
    assert set(walks.values()) == {1}
    assert cubes == Counter({ideal.n: ideal.n + 1})


# the Alexander duals of a5 and of the nine-variable ideal
A5_DUAL_GENS = "n=5;\ngens: x1*x3, x1*x4, x2*x4, x2*x5, x3*x5;\n"
NINE_DUAL_GENS = (
    "n=9;\ngens: x1*x2, x3*x4, x5*x6, x7*x8, "
    + ", ".join(f"x{j}*x9" for j in range(1, 9))
    + ";\n"
)


@pytest.mark.parametrize("text", [A5_DUAL_GENS, NINE_DUAL_GENS], ids=["a5v", "ninev"])
def test_run_strands_builds_each_frame_once(monkeypatch, text):
    from lyub import cli, resolution

    spec = _spec(text)
    ideal = spec.ideal()
    degrees = list(range(lyub.combinatorics.popcount(ideal.gens[0]), ideal.n + 1))
    frames = [(r, lyub.strand_frame(ideal, r, QQ)) for r in degrees]
    expected = {
        "n": ideal.n,
        "field": "q",
        "strands": [
            {"r": r, "dims": list(fr.dims), "homology": lyub.homology_dims(fr)}
            for r, fr in frames
            if fr.dims
        ],
        "linearity_defect": lyub.linearity_defect(ideal, QQ),
    }
    calls = []
    original = resolution.strand_frame

    def counted(ideal, r, field):
        calls.append(r)
        return original(ideal, r, field)

    monkeypatch.setattr(cli, "strand_frame", counted)
    monkeypatch.setattr(resolution, "strand_frame", counted)
    report = run(spec, "strands")
    assert calls == degrees
    assert json.dumps(report) == json.dumps(expected)


@pytest.mark.parametrize("field", [QQ, prime_field(2)], ids=["q", "f2"])
@pytest.mark.parametrize("text", [A5_DUAL_GENS, NINE_DUAL_GENS], ids=["a5v", "ninev"])
def test_run_strands_one_degree_is_its_item_of_all(text, field):
    spec = _spec(text, field)
    every = run(spec, "strands")
    for rr in range(spec.n + 1):
        single = run(spec, "strands", r=rr)
        items = [item for item in every["strands"] if item["r"] == rr]
        assert single["strands"] == (items[0] if items else [])
        assert single["linearity_defect"] == every["linearity_defect"]


def test_main_strands_rejects_out_of_range_degree(tmp_path, capsys):
    path = tmp_path / "a5.ideal"
    path.write_text(A5_PRIMES)
    assert main(["strands", str(path), "--r", "99", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: cohomological degree r=99 outside [0, 5]\n"


def test_main_refuses_flags_the_command_does_not_read(tmp_path, capsys):
    path = tmp_path / "a5.ideal"
    path.write_text(A5_PRIMES)
    for argv in (["betti", str(path), "--r", "2"], ["bass", str(path), "--check"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: ") and captured.err.count("\n") == 1


def test_main_text_output(tmp_path, capsys):
    path = tmp_path / "ex57.ideal"
    path.write_text("n=5;\nprimes: {1,4}, {2,5}, {1,2,3};\n")
    assert main(["dims", str(path), "--r", "3"]) == 0
    out = capsys.readouterr().out
    assert "*id = 1" in out and "dim = 2" in out
    assert main(["supp", str(path), "--r", "3"]) == 0
    out = capsys.readouterr().out
    assert "x1*x2*x3*x4 " in out and "not in supp" in out


RP2 = (
    "n=6;\n"
    "gens: x1*x2*x3, x1*x2*x4, x1*x3*x5, x2*x4*x5, x3*x4*x5,\n"
    "      x2*x3*x6, x1*x4*x6, x3*x4*x6, x1*x5*x6, x2*x5*x6;\n"
)


def test_cli_characteristic_dependence(tmp_path, capsys):
    path = tmp_path / "rp2.ideal"
    path.write_text(RP2)
    assert main(["table", str(path), "--field", "q", "--json"]) == 0
    over_q = json.loads(capsys.readouterr().out)
    assert main(["table", str(path), "--field", "fp:2", "--json"]) == 0
    over_f2 = json.loads(capsys.readouterr().out)
    assert over_q["lyubeznik"] == [
        [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1],
    ]
    assert over_f2["lyubeznik"] == [
        [0, 0, 1, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 1],
    ]


def test_run_bass_all_degrees_is_list():
    report = run(_spec(A5_PRIMES), "bass")
    assert isinstance(report["bass"], list)
    assert [item["r"] for item in report["bass"]] == [2, 3]


def test_cli_table_check_flag(tmp_path):
    path = tmp_path / "a5.ideal"
    path.write_text(A5_PRIMES)
    assert main(["table", str(path), "--check"]) == 0


def test_main_non_utf8_file(tmp_path, capsys):
    path = tmp_path / "latin1.ideal"
    path.write_bytes("n=4;\n# caf\xe9\ngens: x1*x2;\n".encode("latin-1"))
    assert main(["table", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and "UTF-8" in err
    assert len(err.strip().splitlines()) == 1


def test_main_non_utf8_stdin(monkeypatch, capsys):
    # stdin is decoded as UTF-8 whatever the locale's encoding
    data = "n=4;\n# caf\xe9\ngens: x1*x2;\n".encode("latin-1")
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), "latin-1"))
    assert main(["table", "-"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: -:") and "UTF-8" in err


def test_main_closed_stdin(monkeypatch, capsys):
    # a process started with file descriptor 0 closed has sys.stdin None
    monkeypatch.setattr(sys, "stdin", None)
    assert main(["table", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "input error: -: stdin is closed\n"


def test_main_closed_stdout(monkeypatch, tmp_path, capsys):
    # a process started with file descriptor 1 closed has sys.stdout None
    path = tmp_path / "a4.ideal"
    path.write_text(A4_GENS)
    monkeypatch.setattr(sys, "stdout", None)
    assert main(["table", str(path)]) == EXIT_BROKEN_PIPE
    assert capsys.readouterr().err == ""


def test_main_interrupted(monkeypatch, tmp_path, capsys):
    from lyub import cli

    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    path = tmp_path / "a5.ideal"
    path.write_text(A5_PRIMES)
    monkeypatch.setattr(cli, "run", interrupted)
    assert main(["table", str(path)]) == cli.EXIT_INTERRUPTED == 130
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "interrupted\n"


def test_main_closed_stdout_exits_quietly(tmp_path):
    path = tmp_path / "a5.ideal"
    path.write_text(A5_PRIMES)
    src = str(Path(lyub.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to the pipe now fails with EPIPE
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "lyub.cli", "table", str(path)],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == EXIT_BROKEN_PIPE
    assert proc.stderr == b""


BIG = "9" * 5000  # past int()'s default 4,300-digit conversion limit


@pytest.mark.parametrize("text, where", [
    (f"n={BIG};\ngens: x1;\n", "line 1, col 3"),
    (f"n=3;\nprimes: {{1,{BIG}}};\n", "line 2, col 12"),
    (f"n=3;\ngens: x1*x{BIG};\n", "line 2, col 10"),
], ids=["n", "prime-index", "variable"])
def test_main_refuses_an_oversized_literal(tmp_path, capsys, text, where):
    path = tmp_path / "big.ideal"
    path.write_text(text)
    assert main(["table", str(path)]) == 2
    err = capsys.readouterr().err
    assert err == f"input error: {where}: number of 5000 digits is too large\n"


def test_main_refuses_an_oversized_field_modulus(tmp_path, capsys):
    path = tmp_path / "a4.ideal"
    path.write_text(A4_GENS)
    assert main(["table", str(path), "--field", f"fp:{BIG}"]) == 2
    err = capsys.readouterr().err
    assert err == "input error: --field: number of 5000 digits is too large\n"


@pytest.mark.parametrize("text, message", [
    ("n=\uff13;\ngens: x1;\n", "line 1, col 3: unexpected character '\uff13'"),
    ("n=3;\ngens: x\u0661*x\u0662, x3;\n", "line 2, col 7: expected a variable x1..x3, found 'x\u0661'"),
    ("n=3;\nprimes: {\u0661};\n", "line 2, col 10: unexpected character '\u0661'"),
], ids=["n", "variable", "prime-index"])
def test_parse_reads_only_ascii_digits(text, message):
    # a fullwidth or Arabic-Indic digit is no number, though int() reads it
    with pytest.raises(InputError) as err:
        parse_input(text)
    assert str(err.value) == message


def test_parse_field_reads_only_ascii_digits():
    with pytest.raises(InputError, match="unknown field 'fp:\u0663'"):
        parse_field("fp:\u0663")


@pytest.mark.parametrize("value", ["\u0663", "1_0", "+1", " 1", "x"],
                         ids=["arabic-indic", "underscore", "plus", "space", "letter"])
def test_main_reads_r_as_ascii_digits(tmp_path, value):
    # int() reads the first four as 3, 10, 1 and 1
    path = tmp_path / "a4.ideal"
    path.write_text(A4_GENS)
    code, out, err = _invoke(["bass", str(path), "--r", value])
    assert (code, out) == (2, "")
    assert err.endswith(f"lyub: error: argument --r: invalid int value: {value!r}\n")


def test_main_refuses_a_negative_r_as_out_of_range(tmp_path, capsys):
    path = tmp_path / "a4.ideal"
    path.write_text(A4_GENS)
    assert main(["bass", str(path), "--r", "-1"]) == 2
    assert capsys.readouterr().err == "input error: cohomological degree r=-1 outside [0, 4]\n"


@pytest.mark.parametrize("text, n", [
    ("n=0;\ngens: x1;\n", 0),
    ("n=0;\nprimes: {1};\n", 0),
    ("n=25;\ngens: x1;\n", 25),
    # refused before the index, whose mask would be a 12.5 MB int
    ("n=999999999999;\ngens: x99999999;\n", 999999999999),
], ids=["zero-gens", "zero-primes", "25", "huge"])
def test_parse_refuses_a_variable_count_at_its_token(text, n):
    with pytest.raises(InputError) as err:
        parse_input(text)
    assert str(err.value) == f"line 1, col 3: variable count n={n} outside [1, 24]"


# ---------------------------------------------------------------------------
# the whole output of every command, pinned
# ---------------------------------------------------------------------------

IDEALS = Path(__file__).resolve().parents[1] / "demos" / "ideals"
COMMANDS = ("table", "bass", "dual-bass", "betti", "strands", "supp", "dims",
            "seqcm", "check", "info")
READS_R = ("bass", "dual-bass", "strands", "supp", "dims")


def _invoke(argv) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``lyub`` run in-process on argv."""
    from contextlib import redirect_stderr, redirect_stdout

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's --help and usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _transcript_sha256(invocations) -> str:
    """sha256 over each (label, argv) invocation's label, exit code,
    stdout and stderr; the label stands in for a machine-dependent path."""
    digest = hashlib.sha256()
    for label, argv in invocations:
        code, out, err = _invoke(argv)
        digest.update(f"{label}\0{code}\0{out}\0{err}\0".encode())
    return digest.hexdigest()


def _per_file_invocations(path: Path, field: str):
    for command in COMMANDS:
        for extra in ([], ["--json"]):
            yield [command, *extra], [command, str(path), "--field", field, *extra]
    for command in READS_R:
        for r in ("0", "2"):
            for extra in ([], ["--json"]):
                args = [command, "--r", r, *extra]
                yield args, [command, str(path), "--field", field, "--r", r, *extra]


OUTPUT_SHA256 = {
    ("a4", "q"): "d601a899cb9ec54c3d08936dda3d869618745abb42cd1ee1ff1297e22fb45a8b",
    ("a4", "fp:2"): "3ad888e458f01789c4bbc4401a96e94bc912e1a628816c3bb81f0e0ad7b9a076",
    ("a5", "q"): "25254c9d21ec5a8a1e8b2f56908481763b2b3249c6ffce3f1c1e6bd2ef10b6af",
    ("a5", "fp:2"): "2737285f26962e0bb55665a8ee124e27acee013b7d6153b0feea8d2856442426",
    ("ex53", "q"): "e4eece80452a23cd891584ee1b04a70f10dae6614460dc4efdc255608c3069ad",
    ("ex53", "fp:2"): "904b1b3252ce3728abefcc9fd8c137442620d1ff4dd34ea7b5399f7c95836c7e",
    ("ex57", "q"): "974759c2f234443181a138c1101b30e3ecbdad333308558acfeeb0ed3776d2c4",
    ("ex57", "fp:2"): "3b40773a179415ff44f5e0481fdb9bbc23fc6f34365ddcdee0c5d4e296344f22",
    ("nine", "q"): "223bbf2c63ce12e242d132ecc7aaf254cb66e45e84e526c2053d03c1a0cf79a8",
    ("nine", "fp:2"): "62628afbee97ba2d3064234640eb7cfa7c78fe6d364dffce3ece5bd2678eecfc",
    ("rp2", "q"): "98aac2a914510cc43c49050df11859bd2bab6f4bd0e9f81e7162615d5b99e9b1",
    ("rp2", "fp:2"): "94c101ef6e615c01b4892b0868423a16c1c72eb1335c9adf0dd0821b07b05a9b",
}
HELP_SHA256 = "cfcf8dc554c9ca6fc5a431d01f862a7f8d2db51ffb704c00f595c17cb6b09e65"


# bass and dual-bass --json on the nine-variable cycle non-edge ideal a9,
# taken when every row was reduced from its own interval complex
A9_BASS_SHA256 = {
    "q": "955a9c4d6e5688640a20bcfa14a41ce362e473693cf7d70cbb3b3215b9684e3d",
    "fp:2": "26cab37266459378bd3250a1edfbe39a185ce673793f9f1f642d63f75995f408",
}


@pytest.mark.parametrize("field", sorted(A9_BASS_SHA256))
def test_bass_tables_of_a9_print_the_recorded_output(tmp_path, field):
    comps = [(i, j) for i in range(1, 9) for j in range(i + 2, 10) if (i, j) != (1, 9)]
    path = tmp_path / "a9.ideal"
    path.write_text("n=9;\nprimes: " + ", ".join(f"{{{i},{j}}}" for i, j in comps) + ";\n")
    invocations = [
        ([command, "--json"], [command, str(path), "--field", field, "--json"])
        for command in ("bass", "dual-bass")
    ]
    assert _transcript_sha256(invocations) == A9_BASS_SHA256[field]


@pytest.mark.parametrize("name, field", sorted(OUTPUT_SHA256))
def test_every_command_prints_the_recorded_output(name, field):
    # every command plain and --json, and --r 0 / --r 2 where it applies;
    # the sha256 was taken over exit code, stdout and stderr of each run
    invocations = _per_file_invocations(IDEALS / f"{name}.ideal", field)
    assert _transcript_sha256(invocations) == OUTPUT_SHA256[name, field]


@pytest.mark.parametrize("name", sorted({name for name, _ in OUTPUT_SHA256}))
@pytest.mark.parametrize("field", ["q", "fp:2"])
def test_json_text_matches_json_dumps_on_every_report(name, field):
    spec = replace(parse_input((IDEALS / f"{name}.ideal").read_text()), field=parse_field(field))
    for command in COMMANDS:
        for r in (None, 0, 2) if command in READS_R else (None,):
            try:
                report = run(spec, command, r=r)
            except lyub.LyubError:  # e.g. dims on a degree where H^r vanishes
                continue
            assert _json_text(report) == json.dumps(report, indent=2), (command, r)


_KEYS = ("r", "alpha", "k\u00e9y", "\n\x01", "")
_LEAVES = (None, True, False, 0, 7, -3, 10**20, -987654321, "", "mu",
           "\u00e9\u4e2d\U0001f600", "\x00\t\n\x1f\"\\/\u2028", 0.1)


def _random_json(rng: random.Random, depth: int):
    """A random JSON-shaped value: dicts, lists and tuples (any of them
    possibly empty) down to ``depth``, lists of ints with a bool mixed in
    now and then, and leaves from ``_LEAVES``."""
    kind = rng.randrange(5) if depth else 4
    if kind == 0:
        return {rng.choice(_KEYS) + str(i): _random_json(rng, depth - 1)
                for i in range(rng.randrange(4))}
    if kind in (1, 2):
        items = [_random_json(rng, depth - 1) for _ in range(rng.randrange(4))]
        return items if kind == 1 else tuple(items)
    if kind == 3:
        ints = [rng.randrange(-10**6, 10**6) for _ in range(rng.randrange(1, 5))]
        if rng.randrange(2):
            ints.insert(rng.randrange(len(ints) + 1), rng.choice((True, False)))
        return ints
    return rng.choice(_LEAVES)


def test_json_text_matches_json_dumps_on_random_structures():
    rng = random.Random(27)
    texts = []
    for _ in range(400):
        value = _random_json(rng, 4)
        texts.append(json.dumps(value, indent=2))
        assert _json_text(value) == texts[-1]
    # the draws reach empty containers, bools, None, the float and escapes
    seen = "".join(texts)
    for piece in ("{}", "[]", "true", "null", "0.1", "-987654321", "\\u00e9", "\\u0000"):
        assert piece in seen


def test_help_and_usage_errors_print_the_recorded_text(monkeypatch):
    # argparse's help and usage text as Python 3.11 prints it; the unknown
    # command is worded by the CLI itself, so it reads the same on every Python
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
    invocations = [
        (["--help"], ["--help"]),
        (["nope", "FILE"], ["nope", "FILE"]),
    ]
    assert _transcript_sha256(invocations) == HELP_SHA256


def test_readme_command_table_matches_the_cli():
    from lyub import cli

    readme = (IDEALS.parents[1] / "README.md").read_text(encoding="utf-8")
    # the first table of the section: command, output, flags
    section = readme.split("\n## Command line\n", 1)[1]
    table = section[section.index("\n| command"):].split("\n\n", 1)[0]
    rows = [
        [cell.strip().strip("`") for cell in line.strip().strip("|").split("|")]
        for line in table.splitlines()
        if line.startswith("| `")
    ]
    assert tuple(row[0] for row in rows) == cli._COMMANDS
    assert {row[0] for row in rows if "--r" in row[2]} == cli._READS_R
    assert [row[0] for row in rows if "--check" in row[2]] == ["table"]
