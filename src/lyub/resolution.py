"""Minimal free resolutions of squarefree monomial ideals.

Route: build the Lyubeznik resolution on the minimal generators, then cancel
unit entries (nonzero scalars between equal degrees) until none remain, by
Gaussian elimination on the complex (Jöllenbeck-Welker, Mem. AMS 197, 2009)
run on ``linalg.cancel``, the engine behind ``rank``.  The
Lyubeznik resolution (Lyubeznik, J. Pure Appl. Algebra 51, 1988; Novik,
J. Algebraic Combin. 16, 2002) is the subcomplex of the Taylor complex on the
L-admissible generator subsets, with the Taylor signs; it is usually far
smaller (the 14 generators of the dual of a7: 367 cells against 16,383),
which lets ``--check`` finish on the cycle ideals up to n = 13.  The
surviving basis counts are the Betti numbers; the scalar entries between
degree-adjacent basis elements are the frames of the linear strands, and
``lyubeznik_via_strands`` reads lambda off their homology, reversed.
``taylor_complex`` is the reference the tests check the Lyubeznik cells
and ``minimize`` against; no command calls it, and it stays here while
the benchmark tracer (``perfbench/tracer.py``) names it.

Both constructions are refused with ``ResourceError`` above
``MAX_RESOLUTION_CELLS`` basis elements; the Lyubeznik enumeration is also
refused when its admissibility tests could pass ``MAX_RESOLUTION_TESTS``.

Each differential is an ``ExactMatrix`` of the scalar parts of its
entries; the monomial is determined by the two degree masks, and a scalar
may sit at (row, col) only when deg(row) divides deg(col).  Composition of
two such entries telescopes, so d∘d = 0 is a plain scalar-matrix statement,
verified by the same ``check_complex`` as every other complex.
"""

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from .combinatorics import MonomialIdeal, alexander_dual, contains, mask_key, popcount
from .errors import (
    MAX_RESOLUTION_CELLS,
    MAX_RESOLUTION_TESTS,
    ContractError,
    DomainError,
    InputError,
    ResourceError,
)
from .linalg import (
    ExactMatrix,
    Field,
    VectorSpaceComplex,
    _integral_rows,
    cancel,
    check_complex,
    homology_dims,
)
from .tables import BettiTable, LyubeznikTable

# ---------------------------------------------------------------------------
# graded free complexes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GradedFreeComplex:
    """Free complex with squarefree-degree-labeled basis.

    ``degrees[j]`` is the degree mask of each basis element of the j-th
    term.  ``diffs[j]`` is the scalar part of the map from term j+1 to term
    j: rows index term j, columns term j+1.
    """

    field: Field
    degrees: tuple[tuple[int, ...], ...]
    diffs: tuple[ExactMatrix, ...]

    def __post_init__(self):
        check_complex(tuple(map(len, self.degrees)), self.diffs)
        for j, d in enumerate(self.diffs):
            degs_col = self.degrees[j + 1]
            for deg_row, row in zip(self.degrees[j], d.data):
                for c, _ in row:
                    if not contains(degs_col[c], deg_row):
                        raise ContractError("entry violates degree divisibility")

    def is_minimal(self) -> bool:
        for j, d in enumerate(self.diffs):
            degs_col = self.degrees[j + 1]
            for deg_row, row in zip(self.degrees[j], d.data):
                if any(degs_col[c] == deg_row for c, _ in row):
                    return False
        return True


def _taylor_boundary(field: Field, faces, subs) -> ExactMatrix:
    """The map from the generator subsets ``subs`` to the one-smaller
    subsets ``faces``: dropping the t-th element carries the sign (-1)^t."""
    index = {s: i for i, s in enumerate(faces)}
    minus = field.neg(1)
    rows = [[] for _ in faces]
    for c, s in enumerate(subs):
        sign = 1
        for t in range(len(s)):
            face = index.get(s[:t] + s[t + 1 :])
            if face is None:
                raise ContractError("a face of a cell is not a cell")
            rows[face].append((c, sign))
            sign = minus if sign == 1 else 1
    return ExactMatrix._wrap(field, len(faces), len(subs), list(map(tuple, rows)))


def taylor_complex(ideal: MonomialIdeal, field: Field) -> GradedFreeComplex:
    """The Taylor complex on the minimal generators.

    Term j has one basis element per generator subset of size j+1, in the
    order of ``itertools.combinations``, with the lcm mask as degree;
    dropping the t-th element of a subset carries the sign (-1)^t.
    """
    if ideal.is_unit:
        raise DomainError("Taylor complex undefined for the unit ideal")
    gens = ideal.gens
    q = len(gens)
    if (1 << q) - 1 > MAX_RESOLUTION_CELLS:
        raise ResourceError(
            f"the Taylor complex on {q} generators has 2^{q} - 1 cells, "
            f"which exceeds the cap of {MAX_RESOLUTION_CELLS}"
        )
    levels = [tuple(combinations(range(q), j + 1)) for j in range(q)]
    degrees = []
    for subs in levels:
        degs = []
        for s in subs:
            m = 0
            for t in s:
                m |= gens[t]
            degs.append(m)
        degrees.append(tuple(degs))
    diffs = tuple(_taylor_boundary(field, levels[j - 1], levels[j]) for j in range(1, q))
    return GradedFreeComplex(field, tuple(degrees), diffs)


def lyubeznik_complex(ideal: MonomialIdeal, field: Field) -> GradedFreeComplex:
    """The Lyubeznik resolution: Taylor restricted to L-admissible subsets.

    With the generators in canonical order, a subset (i_1 < ... < i_s) is
    admissible when, for every t < s, no m_k with k < i_t divides
    lcm(m_{i_t}, ..., m_{i_s}).  Admissible subsets form a simplicial
    complex, so the Taylor signs restrict unchanged.  The family is closed
    under dropping the least element, so it is built level by level:
    prepend i < min(J) to an admissible J when no m_k with k < i divides
    m_i * lcm(J).  Each level comes out in lexicographic order, and the
    complex ends at the last nonempty level.
    """
    if ideal.is_unit:
        raise DomainError("Lyubeznik complex undefined for the unit ideal")
    gens = ideal.gens
    if not gens:
        return GradedFreeComplex(field, (), ())
    q = len(gens)
    # Level s holds each admissible s-subset as its least element, the index
    # of the rest in level s-1, and its lcm, in compact arrays: a problem
    # refused at the cap never holds a million label tuples.
    firsts = [array("q", range(q))]
    rests = []
    degrees = [array("q", gens)]
    # (0, j) is always admissible, so a first level over the cap is caught
    # on the second
    cells = q
    # Work is charged before each level: candidate i < min(J) is tested
    # against the i generators below it, so a level of many candidates and
    # few admissible sets is refused before it runs.
    tests = 0
    for _ in range(1, q):  # one term per subset size, up to the first empty one
        prev_firsts, prev_degs = firsts[-1], degrees[-1]
        tests += sum(f * (f - 1) // 2 for f in prev_firsts)
        if tests > MAX_RESOLUTION_TESTS:
            raise ResourceError(
                f"the Lyubeznik complex on {q} generators exceeds the cap "
                f"of {MAX_RESOLUTION_TESTS} divisibility tests"
            )
        new_firsts, new_rests, new_degs = array("q"), array("q"), array("q")
        for i, g in enumerate(gens):
            lower = gens[:i]
            for k in range(bisect_right(prev_firsts, i), len(prev_firsts)):
                m = g | prev_degs[k]
                if not any(contains(m, h) for h in lower):
                    new_firsts.append(i)
                    new_rests.append(k)
                    new_degs.append(m)
                    cells += 1
                    if cells > MAX_RESOLUTION_CELLS:
                        raise ResourceError(
                            f"the Lyubeznik complex on {q} generators "
                            f"exceeds the cap of {MAX_RESOLUTION_CELLS} cells"
                        )
        if not new_firsts:  # no larger subset is admissible either
            break
        firsts.append(new_firsts)
        rests.append(new_rests)
        degrees.append(new_degs)
    # the subsets of one level at a time, to look up the faces of the next
    subs = tuple((i,) for i in range(q))
    diffs = []
    for level_firsts, level_rests in zip(firsts[1:], rests):
        prev = subs
        subs = tuple((i,) + prev[k] for i, k in zip(level_firsts, level_rests))
        diffs.append(_taylor_boundary(field, prev, subs))
    return GradedFreeComplex(field, tuple(map(tuple, degrees)), tuple(diffs))


# ---------------------------------------------------------------------------
# minimization
# ---------------------------------------------------------------------------


def minimize(cx: GradedFreeComplex, order: str = "forward") -> GradedFreeComplex:
    """Cancel unit entries until none remain.

    Each cancellation removes one basis element from two consecutive terms
    and applies the corresponding change of basis to the differential
    between them; the resulting term ranks are the Betti numbers and do not
    depend on the cancellation order.  The differentials are swept in the
    requested order ("forward" or "reverse"), and ``linalg.cancel`` reduces
    each one, without the cells already cancelled, taking pivots only
    between equal degrees.  Its row operations are exactly those
    cancellations.  Over Q it may also multiply a row, which is a diagonal
    change of basis of that term: column c of d_j is divided by the factor
    of row c of d_{j+1}, which keeps d∘d = 0.  The survivors are rebuilt
    in the canonical basis order.
    """
    if order not in ("forward", "reverse"):
        raise InputError(f"unknown minimization order {order!r}; use 'forward' or 'reverse'")
    f = cx.field
    deg = cx.degrees
    nd = len(cx.diffs)
    dead = [set() for _ in deg]
    work = [None] * nd
    factors = [{} for _ in deg]  # term j: basis element -> factor of its row of d_j
    for j in range(nd) if order == "forward" else reversed(range(nd)):
        d = cx.diffs[j]
        dead_r, dead_c = dead[j], dead[j + 1]
        data = [
            () if r in dead_r else tuple(e for e in row if e[0] not in dead_c)
            for r, row in enumerate(d.data)
        ]
        rows, scale = _integral_rows(ExactMatrix._wrap(f, d.rows, d.cols, data))
        rows = list(map(dict, rows))
        deg_r, deg_c = deg[j], deg[j + 1]
        pivots, scaled = cancel(rows, f.p, lambda r, c: deg_r[r] == deg_c[c])
        for k, s in scaled.items():
            scale[k] = scale.get(k, 1) * s
        for r, c in pivots:
            dead_r.add(r)
            dead_c.add(c)
        work[j], factors[j] = rows, scale

    # rebuild with the canonical basis order: degree key, then original order
    new_ids = []
    new_degrees = []
    for j, degs in enumerate(deg):
        ids = sorted(
            (i for i in range(len(degs)) if i not in dead[j]),
            key=lambda i: (mask_key(degs[i]), i),
        )
        new_ids.append({i: k for k, i in enumerate(ids)})
        new_degrees.append(tuple(degs[i] for i in ids))
    new_diffs = []
    for j, rows in enumerate(work):
        rid, cid, fac = new_ids[j], new_ids[j + 1], factors[j + 1]
        new_diffs.append(ExactMatrix.from_entries(f, len(rid), len(cid), (
            ((rid[r], cid[c]), Fraction(v, fac[c]) if c in fac else v)
            for r, row in enumerate(rows) if r in rid
            for c, v in row.items() if c in cid
        )))
    out = GradedFreeComplex(f, tuple(new_degrees), tuple(new_diffs))
    if not out.is_minimal():
        raise ContractError("minimization left a unit entry")
    return out


# Entries kept by ``minimal_resolution``; the least recently used is
# evicted first.
MINIMIZED_CACHE_SIZE = 64


@lru_cache(maxsize=MINIMIZED_CACHE_SIZE)
def minimal_resolution(ideal: MonomialIdeal, field: Field) -> GradedFreeComplex:
    """Cached minimize(lyubeznik_complex(ideal))."""
    return minimize(lyubeznik_complex(ideal, field))


def betti_numbers(ideal: MonomialIdeal, field: Field) -> BettiTable:
    """beta_{j,alpha}: basis counts of the minimal resolution."""
    res = minimal_resolution(ideal, field)
    counts: dict[tuple[int, int], int] = {}
    for j, degs in enumerate(res.degrees):
        for m in degs:
            counts[(j, m)] = counts.get((j, m), 0) + 1
    return BettiTable.from_counts(counts)


# ---------------------------------------------------------------------------
# linear strands
# ---------------------------------------------------------------------------


def strand_frame(ideal: MonomialIdeal, r: int, field: Field) -> VectorSpaceComplex:
    """The scalar complex of the r-strand of the minimal resolution.

    Position j holds the basis elements of term j whose degree has size
    j + r; the maps select the matching rows and columns of the
    differentials.  An out-of-range r gives a complex with ``dims == ()``.
    """
    res = minimal_resolution(ideal, field)
    n = ideal.n
    if ideal.is_zero or r > n or (ideal.gens and r < popcount(ideal.gens[0])):
        return VectorSpaceComplex(field, (), ())
    picks = [
        [i for i, m in enumerate(degs) if popcount(m) == j + r]
        for j, degs in enumerate(res.degrees[: n - r + 1])
    ]
    picks += [[]] * (n - r + 1 - len(picks))
    maps = [
        res.diffs[j].select(picks[j], picks[j + 1]) if j < len(res.diffs)
        else ExactMatrix(field, len(picks[j]), 0)  # past the last term
        for j in range(n - r)
    ]
    return VectorSpaceComplex(field, map(len, picks), maps)


def strand_homology(ideal: MonomialIdeal, r: int, field: Field) -> list[int]:
    """Homology dimensions of the frame complex of the r-strand."""
    return homology_dims(strand_frame(ideal, r, field))


def lyubeznik_via_strands(ideal: MonomialIdeal, field: Field) -> LyubeznikTable:
    """lambda_{p,n-r}: homology of the transposed r-strand frame of the dual.

    Position p of the transposed complex is position (n-r) - p of the
    frame, and a map and its transpose have the same rank, so this is the
    frame's homology read backwards.
    """
    if not ideal.is_proper_nonzero:
        raise DomainError("Lyubeznik table needs a proper nonzero ideal")
    dual = alexander_dual(ideal)
    n = ideal.n
    height = min(popcount(g) for g in dual.gens)
    return LyubeznikTable.from_homology(n, n - height, {
        r: strand_homology(dual, r, field)[::-1] for r in range(height, n + 1)
    })


def strand_defect(homologies) -> int:
    """Largest positive position p with H_p != 0 among the strand frame
    homologies given (lists of dimensions by position), or 0."""
    return max((p for h in homologies for p in range(1, len(h)) if h[p]), default=0)


def linearity_defect(ideal: MonomialIdeal, field: Field) -> int:
    """Largest positive position where some strand frame fails exactness."""
    if ideal.is_zero or ideal.is_unit:
        raise DomainError("linearity defect needs a proper nonzero ideal")
    return strand_defect(
        strand_homology(ideal, r, field)
        for r in range(popcount(ideal.gens[0]), ideal.n + 1)
    )
