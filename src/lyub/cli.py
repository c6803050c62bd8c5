"""Command-line interface: input grammar, table rendering, check mode.

Input files are line-oriented UTF-8 with ``#`` comments and two statements::

    n=5;
    primes: {1,3}, {1,4}, {2,4}, {2,5}, {3,5};

or, equivalently for an ideal given by generators::

    n=4;
    gens: x1*x2, x1*x4, x2*x3, x3*x4;

Variables are named x1..xn.  Masks are printed both as variable products and
as 0/1 vectors.  All reported numbers are exact integers.

Exit codes: 0 success; 1 a failed check or a refused computation
(``error:``); 2 unreadable or malformed input (``input error:``);
141 (128 + SIGPIPE) when stdout is closed before the report is written,
as in ``lyub table a9.ideal | head -1``, with nothing printed; 130
(128 + SIGINT) when interrupted with Ctrl-C, after one ``interrupted``
line on stderr.  A closed stdin read as ``-`` is unreadable input (2).
"""

import argparse
import json
import os
import re
import sys
from dataclasses import asdict, dataclass, replace

from .combinatorics import (
    MonomialIdeal,
    alexander_dual,
    intersect_face_ideals,
    mask_of,
    mask_str,
    mask_vector,
    minimal_primes,
    minimalize,
    popcount,
)
from .errors import InputError, LyubError
from .hypercube import build_hypercube  # noqa: F401  (perfbench traces this binding)
from .invariants import (
    bass_table,
    betti_matches_hypercube,
    check_bass_work,
    dual_bass_table,
    injective_dimensions,
    lyubeznik_table,
    nonzero_cohomology_degrees,
    routes_agree,
    sequentially_cm,
    small_support,
    terai_mustata_consistent,
)
from .linalg import QQ, Field, homology_dims, prime_field
from .resolution import betti_numbers, strand_defect, strand_frame

# ---------------------------------------------------------------------------
# problem specification and input grammar
# ---------------------------------------------------------------------------


@dataclass
class ProblemSpec:
    n: int
    form: str                      # "gens" | "primes"
    masks: tuple[int, ...]         # canonical input masks
    field: Field = QQ

    def ideal(self) -> MonomialIdeal:
        if self.form == "primes":
            return intersect_face_ideals(self.n, self.masks)
        return minimalize(self.n, self.masks)


_TOKEN = re.compile(r"(?P<num>\d+)|(?P<word>[A-Za-z]\w*)|(?P<punct>[={}:;,*])|(?P<space>\s+)|(?P<bad>.)")


def _tokenize(text: str):
    """Yield (kind, value, line, col) with 1-based positions."""
    line, col = 1, 1
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        value = m.group()
        if kind != "space":
            if kind == "bad":
                raise InputError(f"line {line}, col {col}: unexpected character {value!r}")
            yield (kind, value, line, col)
        for ch in value:
            if ch == "\n":
                line += 1
                col = 1
            else:
                col += 1
    yield ("end", "", line, col)


def _strip_comments(text: str) -> str:
    # keep newlines so line numbers stay correct
    return "\n".join(ln.split("#", 1)[0] for ln in text.split("\n"))


class _Parser:
    def __init__(self, text: str):
        self.tokens = list(_tokenize(_strip_comments(text)))
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def take(self, kind=None, value=None):
        tok = self.tokens[self.pos]
        if kind is not None and tok[0] != kind or value is not None and tok[1] != value:
            want = value if value is not None else kind
            self.error(f"expected {want!r}, found {tok[1]!r}", tok)
        self.pos += 1
        return tok

    def error(self, message, tok=None):
        """Refuse the input at ``tok``, or at the next token when None."""
        tok = tok or self.peek()
        raise InputError(f"line {tok[2]}, col {tok[3]}: {message}")


def _number(digits: str, tok=None) -> int:
    """The value of a digit string read from token ``tok`` (from ``--field``
    when None).  One longer than ``int`` converts (4,300 digits by default)
    is refused."""
    try:
        return int(digits)
    except ValueError:
        where = f"line {tok[2]}, col {tok[3]}" if tok else "--field"
        raise InputError(f"{where}: number of {len(digits)} digits is too large") from None


def _parse_monomial(p: _Parser, n: int) -> int:
    mask = 0
    while True:
        tok = p.take("word")
        m = re.fullmatch(r"x(\d+)", tok[1])
        if not m:
            p.error(f"expected a variable x1..x{n}, found {tok[1]!r}", tok)
        i = _number(m.group(1), tok)
        if not 1 <= i <= n:
            p.error(f"variable x{i} outside x1..x{n}", tok)
        bit = 1 << (i - 1)
        if mask & bit:
            p.error(f"repeated variable x{i} (monomials must be squarefree)", tok)
        mask |= bit
        if p.peek()[1] != "*":
            return mask
        p.take(value="*")


def _parse_prime(p: _Parser, n: int) -> int:
    p.take(value="{")
    mask = 0
    while True:
        tok = p.take("num")
        i = _number(tok[1], tok)
        if not 1 <= i <= n:
            p.error(f"index {i} outside 1..{n}", tok)
        mask |= 1 << (i - 1)
        if p.peek()[1] == ",":
            p.take(value=",")
            continue
        p.take(value="}")
        return mask


def parse_input(text: str) -> ProblemSpec:
    """Parse an ideal description; the ideal is canonicalized."""
    p = _Parser(text)
    p.take("word", "n")
    p.take(value="=")
    tok = p.take("num")
    n = _number(tok[1], tok)
    p.take(value=";")
    tok = p.take("word")
    form = tok[1]
    if form not in ("gens", "primes"):
        p.error(f"expected 'gens' or 'primes', found {form!r}", tok)
    p.take(value=":")
    masks = []
    while True:
        masks.append(_parse_monomial(p, n) if form == "gens" else _parse_prime(p, n))
        if p.peek()[1] == ",":
            p.take(value=",")
            continue
        p.take(value=";")
        break
    if p.peek()[0] != "end":
        p.error("trailing input after the ideal statement")
    if form == "gens":
        canon = minimalize(n, masks).gens
    else:
        canon = tuple(sorted(set(masks), key=lambda m: (popcount(m), m)))
        intersect_face_ideals(n, canon)  # validates
    return ProblemSpec(n=n, form=form, masks=canon)


def parse_field(text: str) -> Field:
    if text == "q":
        return QQ
    m = re.fullmatch(r"fp:(\d+)", text)
    if m:
        return prime_field(_number(m.group(1)))
    raise InputError(f"unknown field {text!r}; use 'q' or 'fp:<prime>'")


def field_name(f: Field) -> str:
    return f"fp:{f.p}" if f.p else "q"


# ---------------------------------------------------------------------------
# report building
# ---------------------------------------------------------------------------


def _alpha_json(mask: int, n: int) -> list[int]:
    return list(mask_vector(mask, n))


def _bass_item(ideal: MonomialIdeal, r: int, field: Field, dual: bool = False) -> dict:
    table, key = (dual_bass_table, "pi") if dual else (bass_table, "mu")
    rows = table(ideal, r, field).rows
    return {"rows": [{"alpha": _alpha_json(a, ideal.n), key: list(v)} for a, v in rows]}


def _supp_item(ideal: MonomialIdeal, r: int, field: Field) -> dict:
    small, big = small_support(ideal, r, field)
    return {
        "small": [_alpha_json(a, ideal.n) for a in small],
        "support": [_alpha_json(a, ideal.n) for a in big],
        "equal": small == big,
    }


_COMMANDS = ("table", "bass", "dual-bass", "betti", "strands", "supp", "dims",
             "seqcm", "check", "info")
# commands reporting one item per degree of a nonzero H^r (the one from
# ``--r`` if given): command -> (JSON key, the item of degree r).  The
# builders look the invariants up in this module when called, so a
# wrapper bound here later (as perfbench's tracer binds one) sees them.
_PER_DEGREE = {
    "bass": ("bass", _bass_item),
    "dual-bass": ("dual_bass", lambda ideal, r, field: _bass_item(ideal, r, field, dual=True)),
    "supp": ("supp", _supp_item),
    "dims": ("dims", lambda ideal, r, field: asdict(injective_dimensions(ideal, r, field))),
}
# commands that take a single degree from ``--r``
_READS_R = {*_PER_DEGREE, "strands"}


def run(spec: ProblemSpec, command: str, r: int | None = None, check: bool = False) -> dict:
    """Execute one command and return its JSON-shaped report.  ``check``
    cross-validates the two routes of ``table``."""
    if command not in _COMMANDS:
        raise InputError(f"unknown command {command!r}")
    ideal = spec.ideal()
    report: dict = {"n": spec.n, "field": field_name(spec.field)}
    if r is not None and not 0 <= r <= spec.n and command in _READS_R:
        raise InputError(f"cohomological degree r={r} outside [0, {spec.n}]")

    def maybe_single(items):
        return items[0] if r is not None and len(items) == 1 else items

    if command == "info":
        report["ideal"] = {
            "gens": [_alpha_json(g, spec.n) for g in ideal.gens],
            "minimal_primes": [_alpha_json(m, spec.n) for m in minimal_primes(ideal)],
            "dual_gens": [
                _alpha_json(g, spec.n) for g in alexander_dual(ideal).gens
            ],
            "height": ideal.height(),
            "dim": ideal.dim_quotient(),
            "nonzero_r": nonzero_cohomology_degrees(ideal, spec.field),
        }
    elif command == "table":
        table = lyubeznik_table(ideal, spec.field, check=check)
        report["d"] = table.d
        report["lyubeznik"] = [list(row) for row in table.entries]
        if check:
            report["routes_checked"] = True
    elif command in _PER_DEGREE:
        key, item = _PER_DEGREE[command]
        degrees = [r] if r is not None else nonzero_cohomology_degrees(ideal, spec.field)
        # every degree's table is checked against the cap before any row
        check_bass_work(ideal, degrees, spec.field, command == "dual-bass")
        report[key] = maybe_single([{"r": rr} | item(ideal, rr, spec.field) for rr in degrees])
    elif command == "betti":
        bt = betti_numbers(ideal, spec.field)
        report["betti"] = {
            "rows": [
                {"j": j, "alpha": _alpha_json(a, spec.n), "beta": c}
                for j, a, c in bt.entries
            ]
        }
    elif command == "strands":
        items = []
        for rr in range(popcount(ideal.gens[0]), spec.n + 1):
            frame = strand_frame(ideal, rr, spec.field)
            items.append({"r": rr, "dims": list(frame.dims), "homology": homology_dims(frame)})
        report["strands"] = maybe_single([item for item in items if r in (None, item["r"])])
        # the defect is taken over every strand, also when --r reports one
        report["linearity_defect"] = strand_defect(item["homology"] for item in items)
    elif command == "seqcm":
        report["seqcm"] = sequentially_cm(ideal, spec.field)
    elif command == "check":
        checks = {
            "routes_agree": routes_agree(ideal, spec.field),
            "terai_mustata": terai_mustata_consistent(ideal, spec.field),
            "betti_hypercube": betti_matches_hypercube(ideal, spec.field),
            "dual_involution": alexander_dual(alexander_dual(ideal)) == ideal,
        }
        checks["ok"] = all(checks.values())
        report["check"] = checks
    return report


# ---------------------------------------------------------------------------
# text rendering
# ---------------------------------------------------------------------------


def _render_lyubeznik(matrix) -> list[str]:
    d = len(matrix) - 1
    width = max(len(str(v)) for row in matrix for v in row)
    out = []
    for p in range(d + 1):
        cells = []
        for i in range(d + 1):
            cells.append(str(matrix[p][i]).rjust(width) if i >= p else "." * width)
        out.append("  [ " + " ".join(cells) + " ]")
    return out


def _mask_label(alpha: list[int]) -> str:
    prod = mask_str(mask_of(i for i, v in enumerate(alpha) if v), len(alpha))
    return f"{prod}  ({','.join(str(v) for v in alpha)})"


def _render_mu_rows(item, fname: str, what: str, key: str) -> list[str]:
    title = f"{what} numbers of H^{item['r']}, field {fname}:"
    rows = item["rows"]
    if not rows:
        return [title, "  (zero module)"]
    depth = max(len(row[key]) for row in rows)
    row_labels = [_mask_label(row["alpha"]) for row in rows]
    width = max(len(s) for s in row_labels)
    head = "  " + " " * width + "".join(f"  {key}_{p}" for p in range(depth))
    out = [title, head]
    for label, row in zip(row_labels, rows):
        vals = row[key]
        cells = []
        for p in range(depth):
            v = vals[p] if p < len(vals) else 0
            cells.append(str(v) if v else "-")
        out.append(
            "  " + label.ljust(width) + "".join(c.rjust(len(f"  {key}_{p}")) for p, c in enumerate(cells))
        )
    return out


def _render_supp(item, fname: str) -> list[str]:
    out = [f"small support of H^{item['r']}, field {fname}:"]
    out.extend(f"  {_mask_label(a)}" for a in item["small"])
    extra = [a for a in item["support"] if a not in item["small"]]
    if extra:
        out.append("in Supp but not in supp:")
        out.extend(f"  {_mask_label(a)}" for a in extra)
    out.append(f"  supp == Supp: {'yes' if item['equal'] else 'no'}")
    return out


# JSON key of a per-degree report -> the text lines of one of its items
_RENDER_ITEM = {
    "bass": lambda item, fname: _render_mu_rows(item, fname, "Bass", "mu"),
    "dual_bass": lambda item, fname: _render_mu_rows(item, fname, "dual Bass", "pi"),
    "strands": lambda item, fname: [
        f"strand r={item['r']}: dims {item['dims']}, frame homology {item['homology']}"],
    "supp": _render_supp,
    "dims": lambda item, fname: [
        f"H^{item['r']}: *id = {item['star_id']}, id = {item['id_ungraded']}, "
        f"dim = {item['dim_module']}, dim supp = {item['dim_small_supp']}"],
}


def render_report(report: dict) -> str:
    lines = []
    fname = report["field"]
    if "ideal" in report:
        info = report["ideal"]
        lines.append(f"n = {report['n']}, field {fname}")
        lines.append(
            "gens: " + ", ".join(_mask_label(a) for a in info["gens"])
        )
        lines.append(
            "minimal primes: " + ", ".join(_mask_label(a) for a in info["minimal_primes"])
        )
        lines.append(
            "dual gens: " + ", ".join(_mask_label(a) for a in info["dual_gens"])
        )
        lines.append(f"height {info['height']}, dim R/I = {info['dim']}")
        lines.append(f"nonzero H^r for r in {info['nonzero_r']}")
    if "lyubeznik" in report:
        lines.append(f"Lyubeznik table, d = {report['d']}, field {fname}:")
        lines.extend(_render_lyubeznik(report["lyubeznik"]))
        if report.get("routes_checked"):
            lines.append("  (hypercube and strand routes agree)")
    if "betti" in report:
        lines.append(f"Betti numbers, field {fname}:")
        for row in report["betti"]["rows"]:
            lines.append(f"  j={row['j']}  {_mask_label(row['alpha'])}  beta={row['beta']}")
    for key, render in _RENDER_ITEM.items():
        items = report.get(key, [])
        for item in items if isinstance(items, list) else [items]:
            lines.extend(render(item, fname))
    if "linearity_defect" in report:
        lines.append(f"linearity defect: {report['linearity_defect']}")
    if "seqcm" in report:
        verdict = "yes" if report["seqcm"] else "no"
        lines.append(f"sequentially Cohen-Macaulay over {fname}: {verdict}")
    if "check" in report:
        checks = report["check"]
        for name in ("routes_agree", "terai_mustata", "betti_hypercube", "dual_involution"):
            lines.append(f"  {name}: {'ok' if checks[name] else 'MISMATCH'}")
        lines.append("routes agree" if checks["ok"] else "CHECK FAILED")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_argparser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lyub",
        description="Exact invariants of local cohomology of squarefree monomial ideals.",
    )
    ap.add_argument("command", choices=_COMMANDS)
    ap.add_argument("file", help="ideal file, or - for stdin")
    ap.add_argument("--field", default="q", help="q (default) or fp:<prime>")
    reads_r = ", ".join(c for c in _COMMANDS if c in _READS_R)
    ap.add_argument("--r", type=int, default=None, help=f"cohomological degree ({reads_r})")
    ap.add_argument("--json", action="store_true", help="emit JSON")
    ap.add_argument("--check", action="store_true",
                    help="table only: cross-validate the two Lyubeznik routes")
    return ap


EXIT_BROKEN_PIPE = 141
EXIT_INTERRUPTED = 130


def _read_text(path: str) -> str:
    """The ideal file, or stdin for ``-``, as UTF-8 text."""
    try:
        if path == "-":
            if sys.stdin is None:  # started with file descriptor 0 closed
                raise InputError("-: stdin is closed")
            return sys.stdin.buffer.read().decode("utf-8")
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    except OSError as exc:  # missing, a directory, not readable
        raise InputError(f"{path}: {exc.strerror or exc}") from None


def main(argv=None) -> int:
    args = _build_argparser().parse_args(argv)
    try:
        if args.r is not None and args.command not in _READS_R:
            raise InputError(f"--r does not apply to {args.command}")
        if args.check and args.command != "table":
            raise InputError(f"--check applies to table only, not {args.command}")
        text = _read_text(args.file)
        spec = replace(parse_input(text), field=parse_field(args.field))
        report = run(spec, args.command, r=args.r, check=args.check)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except LyubError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    try:
        if args.json:
            print(json.dumps(report, indent=2))
        else:
            print(render_report(report))
        sys.stdout.flush()
    except BrokenPipeError:
        # The unwritten report is still buffered; send it to devnull so the
        # interpreter's final flush of stdout cannot fail a second time.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_BROKEN_PIPE
    if "check" in report and not report["check"]["ok"]:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
