"""Workload definitions: the jobs each workload runs and the ideal texts
they read.

Everything here is pure Python and imports nothing from ``lyub``: the
program under test only ever receives ideal text.  A job is one
``lyub <command> <file> --field <f> --json`` invocation.  A workload is a
list of job groups, each some commands run on some inputs.  The ``check``
group draws its ideals from a seeded generator; every other group reads
the same ideals for every seed.
"""

import hashlib
import json
import random
from dataclasses import dataclass
from itertools import combinations

FIELDS = ("q", "fp:2")
CHECK = "check"  # input names of the seeded ideals: c00, c01, ...

# ---------------------------------------------------------------------------
# ideal texts
# ---------------------------------------------------------------------------


def primes_text(n: int, primes) -> str:
    body = ", ".join("{" + ",".join(str(i) for i in sorted(p)) + "}" for p in primes)
    return f"n={n};\nprimes: {body};\n"


def gens_text(n: int, gens) -> str:
    body = ", ".join("*".join(f"x{i}" for i in sorted(g)) for g in gens)
    return f"n={n};\ngens: {body};\n"


def cycle_nonedges(n: int) -> list[tuple[int, int]]:
    """Non-edges of the n-cycle on vertices 1..n."""
    return [
        (i, j)
        for i in range(1, n)
        for j in range(i + 2, n + 1)
        if not (i == 1 and j == n)
    ]


# The nine-variable ideal of the paper: twelve height-two components.
NINE = [(1, 2), (3, 4), (5, 6), (7, 8)] + [(9, j) for j in range(1, 9)]

# Minimal non-faces of the 6-vertex real projective plane.  Its
# Stanley-Reisner ideal is its own Alexander dual, so rp2v has the same text.
RP2 = [
    (1, 2, 3), (1, 2, 4), (1, 3, 5), (2, 4, 5), (3, 4, 5),
    (2, 3, 6), (1, 4, 6), (3, 4, 6), (1, 5, 6), (2, 5, 6),
]


def named_input(name: str) -> str:
    """Text of a fixed input.  ``aN`` is the N-variable cycle non-edge
    ideal; a trailing ``v`` names the Alexander dual, whose generators are
    the minimal primes of the ideal given in ``primes:`` form."""
    dual = name.endswith("v")
    base = name[:-1] if dual else name
    if base == "rp2":
        return gens_text(6, RP2)
    if base == "nine":
        n, primes = 9, NINE
    elif base.startswith("a") and base[1:].isdigit():
        n = int(base[1:])
        primes = cycle_nonedges(n)
    else:
        raise KeyError(name)
    return gens_text(n, primes) if dual else primes_text(n, primes)


# ---------------------------------------------------------------------------
# the seeded generator of the check workload
# ---------------------------------------------------------------------------

# One slot per ideal: (n, k, a, b) asks for a minimal primes of size k and b of
# size k + 1.  The slots fix the shape of every ideal, so the seed changes which
# primes are drawn but not how much work a slot costs on average; that keeps
# the workload's totals steady across seeds.
_N5 = (
    [(5, 2, q, 0) for q in range(3, 9)]
    + [(5, 2, q, 1) for q in range(3, 7)]
    + [(5, 3, q, 0) for q in range(3, 7)]
)
_N6 = (
    [(6, 2, q, 0) for q in (4, 6, 8)]
    + [(6, 2, q, 1) for q in (3, 5, 7)]
    + [(6, 3, q, 0) for q in (4, 6, 8, 10)]
    + [(6, 3, q, 1) for q in (3, 5)]
    + [(6, 4, q, 0) for q in (4, 6)]
)
_N7 = [(7, 2, 5, 0), (7, 2, 4, 1), (7, 3, 5, 0), (7, 3, 8, 0)]
CHECK_SLOTS = tuple(_N5 * 2 + _N6 * 2 + _N7)
SMALL_CHECK_SLOTS = ((4, 2, 2, 0), (4, 2, 3, 0), (5, 2, 4, 0), (5, 2, 3, 1))


def draw_primes(rng: random.Random, n: int, k: int, a: int, b: int) -> list:
    """An antichain of a k-subsets and b (k+1)-subsets of 1..n."""
    big = rng.sample(list(combinations(range(1, n + 1), k + 1)), b)
    small = [
        s
        for s in combinations(range(1, n + 1), k)
        if not any(set(s) <= set(t) for t in big)
    ]
    return sorted(rng.sample(small, a) + big)


def check_inputs(seed: int, slots=CHECK_SLOTS) -> dict[str, str]:
    """The seeded ideals of the check group, named c00, c01, ..."""
    rng = random.Random(seed)
    return {
        f"c{i:02d}": primes_text(n, draw_primes(rng, n, k, a, b))
        for i, (n, k, a, b) in enumerate(slots)
    }


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------

# workload -> job groups (commands, inputs).  ``hypercube`` never calls the
# resolution route and ``routes`` starts with jobs that never build a
# hypercube; see README.md for why each group is there.
WORKLOADS = {
    "hypercube": (
        (("table",), ("a10", "nine")),
        (("bass", "dual-bass", "supp", "dims"), ("a8", "nine")),
    ),
    "routes": (
        (("strands", "betti"), ("a7v", "ninev", "rp2v")),
        (("check",), CHECK),
    ),
}
SMALL_WORKLOADS = {
    "hypercube": (
        (("table",), ("a5", "rp2")),
        (("bass", "dual-bass", "supp", "dims"), ("a5",)),
    ),
    "routes": (
        (("strands", "betti"), ("a5v", "rp2v")),
        (("check",), CHECK),
    ),
}


@dataclass(frozen=True)
class Job:
    id: str          # "<command>:<input>:<field>"
    command: str
    input: str
    field: str

    def argv(self, path: str) -> list[str]:
        return [self.command, path, "--field", self.field, "--json"]


def plan(workload: str, seed: int, small: bool = False) -> tuple[dict, list[Job]]:
    """The input texts (name -> ideal text) and the jobs of one pass.

    Jobs run group by group; per input, every command over Q and then over
    F_2, so later commands can reuse what earlier ones cached and both
    fields are measured across the same stretch of time.
    """
    texts, jobs = {}, []
    for commands, names in (SMALL_WORKLOADS if small else WORKLOADS)[workload]:
        if names == CHECK:
            drawn = check_inputs(seed, SMALL_CHECK_SLOTS if small else CHECK_SLOTS)
            texts.update(drawn)
            names = tuple(drawn)
        else:
            texts.update((name, named_input(name)) for name in names)
        jobs += [
            Job(f"{c}:{name}:{field}", c, name, field)
            for name in names
            for field in FIELDS
            for c in commands
        ]
    return texts, jobs


# ---------------------------------------------------------------------------
# canonical outputs and golden answers
# ---------------------------------------------------------------------------


def canonical(report) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":"))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def expected_check(text: str, field: str) -> str:
    """The one correct ``check`` report: both routes agree on every ideal."""
    n = int(text.split(";", 1)[0].split("=")[1])
    checks = dict.fromkeys(
        ("routes_agree", "terai_mustata", "betti_hypercube", "dual_involution", "ok"),
        True,
    )
    return canonical({"n": n, "field": field, "check": checks})
