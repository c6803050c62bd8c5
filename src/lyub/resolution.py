"""Minimal free resolutions of squarefree monomial ideals.

Route: build the Lyubeznik resolution on the minimal generators, then cancel
unit entries (nonzero scalars between equal degrees) until none remain.  The
Lyubeznik resolution (Lyubeznik, J. Pure Appl. Algebra 51, 1988; Novik,
J. Algebraic Combin. 16, 2002) is the subcomplex of the Taylor complex on the
L-admissible generator subsets, with the Taylor signs; it is usually far
smaller (the 14 generators of the dual of a7: 367 cells against 16,383),
which lets ``--check`` reach n = 8-9.  The surviving basis counts are the
Betti numbers; the scalar entries between degree-adjacent basis elements are
the frames of the linear strands.  ``taylor_complex`` stays as the reference
construction.

Both constructions are refused with ``ResourceError`` above
``MAX_RESOLUTION_CELLS`` basis elements; the Lyubeznik enumeration is also
refused when its admissibility tests could pass ``MAX_RESOLUTION_TESTS``.

Differentials store only the scalar part of each entry; the monomial is
determined by the two degree masks, and a scalar may sit at (row, col) only
when deg(row) divides deg(col).  Composition of two such entries telescopes,
so d∘d = 0 is a plain scalar-matrix statement and is verified sparsely.
"""

import heapq
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from itertools import combinations

from .combinatorics import MonomialIdeal, alexander_dual, contains, mask_key, popcount
from .errors import (
    MAX_RESOLUTION_CELLS,
    MAX_RESOLUTION_TESTS,
    ContractError,
    DomainError,
    ResourceError,
)
from .linalg import (
    ExactMatrix,
    Field,
    VectorSpaceComplex,
    homology_dims,
    transpose_reverse,
)
from .tables import BettiTable, LyubeznikTable

# ---------------------------------------------------------------------------
# graded free complexes (sparse scalar storage)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GradedFreeComplex:
    """Free complex with squarefree-degree-labeled basis.

    ``degrees[j]`` is the degree mask of each basis element of the j-th
    term; ``labels[j]`` carries the originating generator subsets.
    ``diffs[j]`` maps term j+1 to term j as a sparse dict
    (row, col) -> scalar.
    """

    field: Field
    degrees: tuple[tuple[int, ...], ...]
    labels: tuple[tuple[tuple[int, ...], ...], ...]
    diffs: tuple[dict, ...]

    def __post_init__(self):
        if len(self.diffs) != max(len(self.degrees) - 1, 0):
            raise ContractError("one differential per consecutive pair of terms")
        for j, dd in enumerate(self.diffs):
            degs_row = self.degrees[j]
            degs_col = self.degrees[j + 1]
            for (r, c), v in dd.items():
                if self.field.is_zero(v):
                    raise ContractError("stored zero scalar")
                if not contains(degs_col[c], degs_row[r]):
                    raise ContractError("entry violates degree divisibility")
        self._verify_dd()

    def _verify_dd(self):
        # Scalars are ints (or Fractions over Q), so the products are summed
        # exactly with plain arithmetic and reduced once by ``is_zero``.
        f = self.field
        for j in range(len(self.diffs) - 1):
            lower = {}
            for (r, c), v in self.diffs[j].items():
                lower.setdefault(c, []).append((r, v))
            acc: dict[tuple[int, int], object] = {}
            for (mid, col), v in self.diffs[j + 1].items():
                for r, w in lower.get(mid, ()):
                    key = (r, col)
                    acc[key] = acc.get(key, 0) + v * w
            for val in acc.values():
                if not f.is_zero(val):
                    raise ContractError("d∘d != 0 in graded free complex")

    def num_terms(self) -> int:
        return len(self.degrees)

    def term_rank(self, j: int) -> int:
        return len(self.degrees[j]) if 0 <= j < len(self.degrees) else 0

    def differential_matrix(self, j: int) -> ExactMatrix:
        """Scalar part of the map from term j+1 to term j."""
        return ExactMatrix.from_entries(
            self.field, self.term_rank(j), self.term_rank(j + 1), self.diffs[j].items()
        )

    def is_minimal(self) -> bool:
        for j, dd in enumerate(self.diffs):
            degs_row = self.degrees[j]
            degs_col = self.degrees[j + 1]
            for (r, c) in dd:
                if degs_row[r] == degs_col[c]:
                    return False
        return True


def taylor_complex(ideal: MonomialIdeal, field: Field) -> GradedFreeComplex:
    """The Taylor complex on the minimal generators.

    Term j has one basis element per generator subset of size j+1 with the
    lcm mask as degree; dropping the t-th element of a subset carries the
    sign (-1)^t.
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
    degrees = []
    labels = []
    index: list[dict[tuple[int, ...], int]] = []
    for j in range(q):
        subs = list(combinations(range(q), j + 1))
        labels.append(tuple(subs))
        degs = []
        for s in subs:
            m = 0
            for t in s:
                m |= gens[t]
            degs.append(m)
        degrees.append(tuple(degs))
        index.append({s: i for i, s in enumerate(subs)})
    diffs = []
    one = field.one()
    neg = field.neg(one)
    for j in range(1, q):
        dd = {}
        for c, s in enumerate(labels[j]):
            sign = one
            for t in range(len(s)):
                face = s[:t] + s[t + 1 :]
                dd[(index[j - 1][face], c)] = sign
                sign = neg if sign == one else one
        diffs.append(dd)
    return GradedFreeComplex(field, tuple(degrees), tuple(labels), tuple(diffs))


def lyubeznik_complex(ideal: MonomialIdeal, field: Field) -> GradedFreeComplex:
    """The Lyubeznik resolution: Taylor restricted to L-admissible subsets.

    With the generators in canonical order, a subset (i_1 < ... < i_s) is
    admissible when, for every t < s, no m_k with k < i_t divides
    lcm(m_{i_t}, ..., m_{i_s}).  Admissible subsets form a simplicial
    complex, so the Taylor signs restrict unchanged.  The family is closed
    under dropping the least element, so it is built level by level:
    prepend i < min(J) to an admissible J when no m_k with k < i divides
    m_i * lcm(J).  Each level comes out in lexicographic order.
    """
    if ideal.is_unit:
        raise DomainError("Lyubeznik complex undefined for the unit ideal")
    gens = ideal.gens
    if not gens:
        return GradedFreeComplex(field, (), (), ())
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
    for _ in range(1, q):  # one term per subset size, as in Taylor
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
        firsts.append(new_firsts)
        rests.append(new_rests)
        degrees.append(new_degs)
    labels = [tuple((i,) for i in range(q))]
    diffs = []
    one = field.one()
    neg = field.neg(one)
    for level_firsts, level_rests in zip(firsts[1:], rests):
        prev = labels[-1]
        index = {s: i for i, s in enumerate(prev)}
        subs = tuple((i,) + prev[k] for i, k in zip(level_firsts, level_rests))
        dd = {}
        for c, s in enumerate(subs):
            sign = one
            for t in range(len(s)):
                face = index.get(s[:t] + s[t + 1 :])
                if face is None:
                    raise ContractError("a face of an admissible set is not admissible")
                dd[(face, c)] = sign
                sign = neg if sign == one else one
        labels.append(subs)
        diffs.append(dd)
    return GradedFreeComplex(
        field, tuple(map(tuple, degrees)), tuple(labels), tuple(diffs)
    )


# ---------------------------------------------------------------------------
# minimization
# ---------------------------------------------------------------------------


def minimize(cx: GradedFreeComplex, order: str = "forward") -> GradedFreeComplex:
    """Cancel unit entries until none remain.

    Each cancellation removes one basis element from two consecutive terms
    and applies the corresponding change of basis to the differential
    between them; the resulting term ranks are the Betti numbers and do not
    depend on the cancellation order.  Pivots are chosen deterministically:
    terms are swept in the requested order and within a differential the
    unit entry with the least (row, col) pair is cancelled first.
    """
    f = cx.field
    nterms = cx.num_terms()
    deg = [list(t) for t in cx.degrees]
    alive = [set(range(len(t))) for t in cx.degrees]
    bycol: list[dict] = []
    byrow: list[dict] = []
    units: list[set] = []
    heaps: list[list] = []  # lazy-deletion heaps over the unit sets
    for j, dd in enumerate(cx.diffs):
        bc: dict[int, dict[int, object]] = {}
        br: dict[int, dict[int, object]] = {}
        un = set()
        for (r, c), v in dd.items():
            bc.setdefault(c, {})[r] = v
            br.setdefault(r, {})[c] = v
            if deg[j][r] == deg[j + 1][c]:
                un.add((r, c))
        bycol.append(bc)
        byrow.append(br)
        units.append(un)
        heap = sorted(un)
        heaps.append(heap)

    def set_entry(j, r, c, v):
        if f.is_zero(v):
            col = bycol[j].get(c)
            if col and r in col:
                del col[r]
                row = byrow[j][r]
                del row[c]
                units[j].discard((r, c))
        else:
            bycol[j].setdefault(c, {})[r] = v
            byrow[j].setdefault(r, {})[c] = v
            if deg[j][r] == deg[j + 1][c] and (r, c) not in units[j]:
                units[j].add((r, c))
                heapq.heappush(heaps[j], (r, c))

    def cancel(j, r, c):
        colc = dict(bycol[j].get(c, ()))
        rowr = dict(byrow[j].get(r, ()))
        u = colc.pop(r)
        rowr.pop(c)
        # detach the pivot row and column from differential j
        for r2 in colc:
            del byrow[j][r2][c]
            units[j].discard((r2, c))
        for c2 in rowr:
            del bycol[j][c2][r]
            units[j].discard((r, c2))
        bycol[j].pop(c, None)
        byrow[j].pop(r, None)
        units[j].discard((r, c))
        # Schur update on the remaining entries
        uinv = f.inv(u)
        for r2, vr in colc.items():
            factor = vr * uinv
            for c2, vc in rowr.items():
                old = bycol[j].get(c2, {}).get(r2, 0)
                set_entry(j, r2, c2, f.coerce(old - factor * vc))
        # drop basis r from term j and c from term j+1
        alive[j].discard(r)
        alive[j + 1].discard(c)
        if j + 1 < len(bycol):
            row = byrow[j + 1].pop(c, None)
            if row:
                for c3 in row:
                    del bycol[j + 1][c3][c]
                    units[j + 1].discard((c, c3))
        if j - 1 >= 0:
            col = bycol[j - 1].pop(r, None)
            if col:
                for r3 in col:
                    del byrow[j - 1][r3][r]
                    units[j - 1].discard((r3, r))

    sweep = range(len(cx.diffs)) if order == "forward" else range(len(cx.diffs) - 1, -1, -1)
    for j in sweep:
        heap = heaps[j]
        live = units[j]
        while live:
            r, c = heapq.heappop(heap)
            if (r, c) in live:
                cancel(j, r, c)

    # rebuild with the canonical basis order: degree key, then original order
    new_ids = []
    new_degrees = []
    new_labels = []
    for j in range(nterms):
        ids = sorted(alive[j], key=lambda i: (mask_key(deg[j][i]), i))
        new_ids.append({i: k for k, i in enumerate(ids)})
        new_degrees.append(tuple(deg[j][i] for i in ids))
        new_labels.append(tuple(cx.labels[j][i] for i in ids))
    new_diffs = []
    for j in range(nterms - 1):
        dd = {}
        for c, col in bycol[j].items():
            for r, v in col.items():
                dd[(new_ids[j][r], new_ids[j + 1][c])] = v
        new_diffs.append(dd)
    out = GradedFreeComplex(
        cx.field, tuple(new_degrees), tuple(new_labels), tuple(new_diffs)
    )
    if not out.is_minimal():
        raise ContractError("minimization left a unit entry")
    return out


# Entries kept by ``minimal_resolution``; the oldest is evicted first.
MINIMIZED_CACHE_SIZE = 64
_minimized_cache: dict[tuple, GradedFreeComplex] = {}


def minimal_resolution(ideal: MonomialIdeal, field: Field) -> GradedFreeComplex:
    """Cached minimize(lyubeznik_complex(ideal))."""
    key = (ideal.n, ideal.gens, field)
    out = _minimized_cache.get(key)
    if out is None:
        out = minimize(lyubeznik_complex(ideal, field))
        while len(_minimized_cache) >= MINIMIZED_CACHE_SIZE:
            del _minimized_cache[next(iter(_minimized_cache))]
        _minimized_cache[key] = out
    return out


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


@dataclass(frozen=True)
class StrandFrame:
    """Scalar frame of one linear strand of a minimal resolution.

    ``dims[j]`` is the rank contributed by degrees of size j + r at
    homological position j; ``mats[j]`` maps K_{j+1} to K_j.  Frames of an
    out-of-range offset are empty.
    """

    r: int
    dims: tuple[int, ...]
    mats: tuple[ExactMatrix, ...]

    def complex(self, field: Field) -> VectorSpaceComplex:
        return VectorSpaceComplex(field, self.dims, self.mats)

    def is_empty(self) -> bool:
        return not self.dims


def strand_frame(ideal: MonomialIdeal, r: int, field: Field) -> StrandFrame:
    """The degree-size r + j part of the minimal resolution, scalars only."""
    res = minimal_resolution(ideal, field)
    n = ideal.n
    if ideal.is_zero or r > n or (ideal.gens and r < popcount(ideal.gens[0])):
        return StrandFrame(r, (), ())
    length = n - r
    picks = []
    for j in range(length + 1):
        degs = res.degrees[j] if j < res.num_terms() else ()
        picks.append([i for i, m in enumerate(degs) if popcount(m) == j + r])
    dims = tuple(len(p) for p in picks)
    mats = []
    for j in range(length):
        rows = {i: k for k, i in enumerate(picks[j])}
        cols = {i: k for k, i in enumerate(picks[j + 1])}
        entries = res.diffs[j].items() if j < len(res.diffs) else ()
        mats.append(ExactMatrix.from_entries(field, dims[j], dims[j + 1], (
            ((rows[r_], cols[c_]), v) for (r_, c_), v in entries
            if r_ in rows and c_ in cols
        )))
    frame = StrandFrame(r, dims, mats)
    frame.complex(field)  # frames must compose to zero
    return frame


def strand_homology(ideal: MonomialIdeal, r: int, field: Field) -> list[int]:
    """Homology dimensions of the frame complex of the r-strand."""
    frame = strand_frame(ideal, r, field)
    if frame.is_empty():
        return []
    return homology_dims(frame.complex(field))


def lyubeznik_via_strands(ideal: MonomialIdeal, field: Field) -> LyubeznikTable:
    """lambda_{p,n-r}: homology of the transposed r-strand frame of the dual.

    Transposing the strand matrices reverses the complex, so position p of
    the transposed complex is position (n-r) - p of the frame.
    """
    if not ideal.is_proper_nonzero:
        raise DomainError("Lyubeznik table needs a proper nonzero ideal")
    dual = alexander_dual(ideal)
    n = ideal.n
    height = min(popcount(g) for g in dual.gens)
    d = n - height
    values: dict[tuple[int, int], int] = {}
    for r in range(n + 1):
        frame = strand_frame(dual, r, field)
        if frame.is_empty():
            continue
        hdims = homology_dims(transpose_reverse(frame.complex(field)))
        for p, h in enumerate(hdims):
            if not h:
                continue
            i = n - r
            if not (0 <= p <= i <= d):
                raise ContractError(
                    f"strand homology outside the admissible triangle at r={r}, p={p}"
                )
            values[(p, i)] = h
    return LyubeznikTable.from_entries(d, values)


def linearity_defect(ideal: MonomialIdeal, field: Field) -> int:
    """Largest positive position where some strand frame fails exactness."""
    if ideal.is_zero or ideal.is_unit:
        raise DomainError("linearity defect needs a proper nonzero ideal")
    n = ideal.n
    worst = 0
    for r in range(popcount(ideal.gens[0]), n + 1):
        hdims = strand_homology(ideal, r, field)
        for p in range(1, len(hdims)):
            if hdims[p]:
                worst = max(worst, p)
    return worst
