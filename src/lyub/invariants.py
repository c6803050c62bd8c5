"""Top-level invariants of R/I: Lyubeznik, Bass and dual Bass tables,
small support, injective dimension bounds, and the structural checks that
tie the hypercube route to the resolution route.
"""

from dataclasses import dataclass
from math import lcm

from .combinatorics import (
    MonomialIdeal,
    alexander_dual,
    bits_of,
    full_mask,
    mask_key,
    popcount,
    stanley_reisner,
    submasks,
    unions_below,
)
from .cohomology import cochain_complex, faces_by_vertex, link_cochains
from .errors import MAX_BASS_WORK, ContractError, DomainError, ResourceError
from .hypercube import Hypercube, build_hypercube
from .linalg import ExactMatrix, Field, _eliminate, homology_dims, homology_from_ranks
from .resolution import betti_numbers, lyubeznik_via_strands
from .tables import BassTable, DualBassTable, LyubeznikTable

# ---------------------------------------------------------------------------
# support sets
# ---------------------------------------------------------------------------


def _main_homology(cube: Hypercube) -> tuple[int, ...]:
    """``homology_dims(cube.main)``, reduced on first read and kept on the
    cube: the Lyubeznik table reads it, and both Bass tables check their
    row at the whole cube against it."""
    if cube._homology is None:
        cube._homology = tuple(homology_dims(cube.main))
    return cube._homology


def _below(cube: Hypercube, dual: bool) -> list[int]:
    """Per mask alpha, the total dimension of the nonzero vertices below
    alpha (with ``dual``, of the flipped vertices, those of the Matlis
    dual): one subset-sum sweep per bit, O(n 2^n), kept on the cube."""
    below = cube._below.get(dual)
    if below is None:
        n, flip = cube.n, full_mask(cube.n) if dual else 0
        below = [0] * (1 << n)
        for v, d in cube.dims.items():
            below[flip ^ v] = d
        for i in range(n):
            bit = 1 << i
            for m in range(1 << n):
                if m & bit:
                    below[m] += below[m ^ bit]
        cube._below[dual] = below  # stored only once complete
    return below


def support_masks(cube: Hypercube) -> list[int]:
    """Face-ideal masks in the support: upward closure of nonzero vertices."""
    below = _below(cube, False)
    return sorted((a for a, t in enumerate(below) if t), key=mask_key)


def minimal_support_masks(cube: Hypercube) -> list[int]:
    """Masks of the minimal primes of the support: the nonzero vertices with
    no nonzero vertex strictly below them."""
    below = _below(cube, False)
    return sorted((v for v, d in cube.dims.items() if below[v] == d), key=mask_key)


def _bass_work(cube: Hypercube, dual: bool) -> list[int]:
    """Per mask alpha, the vertex dimensions row alpha of the Bass table
    assembles (those below alpha); with ``dual`` the same over the flipped
    vertex dimensions, those of the Matlis dual.  A table whose totals sum
    above ``MAX_BASS_WORK`` is refused."""
    below = _below(cube, dual)
    work = sum(below)
    if work > MAX_BASS_WORK:
        raise ResourceError(
            f"a Bass table of H^{cube.r} on n={cube.n} variables assembles "
            f"{work} vertex dimensions, which exceeds the cap of {MAX_BASS_WORK}"
        )
    return below


def _walk_rows(mat: ExactMatrix, by_cols: bool) -> tuple[list, list]:
    """The rows of ``mat`` (with ``by_cols``, its columns, the rows of its
    transpose, read without forming it) as (cols, vals): row i holds the
    entries zip(cols[i], vals[i]), columns increasing.  Over Q each row is
    multiplied by the lcm of its entries' denominators, as
    ``linalg._integral_rows`` scales it.  A tuple of columns and a tuple
    of values per row hold a map of main in half the memory of its rows
    as tuples of (col, value) pairs, and make a dict as fast."""
    if by_cols:
        cols: list = [[] for _ in range(mat.cols)]
        vals: list = [[] for _ in range(mat.cols)]
        for i, row in enumerate(mat.data):
            for j, v in row:
                cols[j].append(i)
                vals[j].append(v)
    else:
        cols = [[j for j, _ in row] for row in mat.data]
        vals = [[v for _, v in row] for row in mat.data]
    if not mat.field.p:
        for k, row in enumerate(vals):
            if any(type(v) is not int for v in row):
                scale = lcm(*(v.denominator for v in row))
                vals[k] = [int(v * scale) for v in row]
    return list(map(tuple, cols)), list(map(tuple, vals))


def _hull_rows(cube: Hypercube, dual: bool, hulls: list[int],
               below: list[int]) -> dict[int, list[int]]:
    """Row h of the Bass table (with ``dual``, of the dual Bass table) at
    every support hull h, from the walk that ``_table`` describes."""
    n, p, starts = cube.n, cube.field.p, cube.starts
    flip = full_mask(n) if dual else 0
    keys = {flip ^ v: d for v, d in cube.dims.items()}
    # main's maps by key size as integral rows: the dual walk reads
    # main's columns, the Bass walk its rows.  Each reduces in increasing
    # key order, for the fewest eliminations; main's Bass columns run by
    # full \\ v, so the Bass walk's leading column is its largest
    maps = cube.main.maps if dual else cube.main.maps[::-1]
    work = [None, *(_walk_rows(m, dual) for m in maps)]
    lead, end = (min, 0) if dual else (max, -1)
    basis: list[dict] = [{} for _ in range(n + 1)]  # pivot -> (row, inverse)
    totals = [keys.get(0, 0)] + [0] * n  # D_l of the keys added (0 is under every hull)
    children: dict[int, list[int]] = {}
    for h in sorted({h for h in hulls if below[h]} - {0}, key=popcount):
        up = max((h & ~(1 << i) for i in bits_of(h)), key=below.__getitem__)
        children.setdefault(hulls[up], []).append(h)
    out = {}

    def visit(h: int, parent: int) -> None:
        fresh = h & ~parent
        if 1 << popcount(h) < len(keys):
            new = [u for u in submasks(h) if u & fresh and u in keys]
        else:
            new = [u for u in keys if u & fresh and not u & ~h]
        added = []
        for u in new:
            size, d = popcount(u), keys[u]
            totals[size] += d
            (cols, vals), piv, s = work[size], basis[size], starts[flip ^ u]
            for i in range(s, s + d):
                if not cols[i]:
                    continue
                x, c = dict(zip(cols[i], vals[i])), cols[i][end]  # columns increase
                while True:
                    pr = piv.get(c)
                    if pr is None:
                        piv[c] = x, pow(x[c], -1, p) if p else 0
                        added.append((size, c))
                        break
                    _eliminate(x, 0, pr[0], c, pr[1], p, None)
                    if not x:
                        break
                    c = lead(x)
        if below[h]:  # sizes above |h| hold no key and no pivot
            out[h] = homology_from_ranks(totals, map(len, basis[1:]))[popcount(h)::-1]
        for c in children.get(h, ()):
            visit(c, h)
        for size, c in added:
            del basis[size][c]
        for u in new:
            totals[popcount(u)] -= keys[u]

    visit(0, 0)
    return out


def _table(cube: Hypercube, dual: bool) -> BassTable | DualBassTable:
    """The cube's Bass table, or with ``dual`` its dual Bass table.

    The cap is checked on every call, so a refusal never depends on what
    ran before; past it, each table's rows are computed once and kept on
    the cube.  Row alpha is the row of its support hull h = hull(alpha),
    the union of the nonzero vertices below alpha (``unions_below``),
    shifted: ``[0] * |alpha \\ h|`` followed by row h.  Proof: with c =
    alpha \\ h, every nonzero summand alpha \\ gamma of the alpha complex
    (``restricted_complex`` at amask = bmask = alpha) lies in h, so gamma =
    c + g with g <= h.  This matches its summands at position p, in order,
    with those of the h complex at p - |c|, and the signs of a direction-i
    map differ by s_i = (-1)^{|c & [0, i)|}, which scaling the summand g
    by the product of s_i over i in g removes.  With full \\ h in place of
    c, the h complex is the interval [0, h] of main in the same way.  The
    dual table is the Bass table of the Matlis dual D over the vertices
    full \\ v, and D's h complex is the cube's interval [full \\ h, full]
    with positions reversed, blocks transposed and the signs (-1)^{|h &
    [0, i)|} scaled away; a transpose keeps ranks, so D's row at h is that
    interval's homology read backwards.

    The hull rows come from one depth-first walk (``_hull_rows``) over the
    keys u of the vertices (for the dual table, their complements).  Main's
    map sends the summand at w to those at w + e_i, so the interval's map
    out of key size l is main's rows at the vertices v <= h (for the dual
    table, its columns at the w >= full \\ h), whose entries all lie in the
    interval: its rank R_l is that row set's, kept in one row echelon
    basis per map, and row h holds D_l - R_l - R_{l+1} at |h| - l, D_l the
    keys' total dimension: the interval's homology from those ranks
    (``linalg.homology_from_ranks``), read backwards.  A hull's parent is
    the hull of largest total among ``hulls[h ^ e_i]``, i in h (every hull
    strictly below h lies under one).  Entering h reduces the rows of the
    keys under h but not under its parent in increasing key order
    (``linalg._eliminate``), each row made a dict only then, from main's
    rows (dual: columns) scaled to integers over Q, each kept as a tuple of
    columns and a tuple of values (``_walk_rows``); it keeps
    each nonzero one with its leading column as pivot, and leaving h drops
    those pivots.  The row at alpha = full (dual: alpha = 0) is checked
    against main's homology (``_main_homology``, main reduced on its own,
    once per cube).
    """
    below = _bass_work(cube, dual)
    kind = DualBassTable if dual else BassTable
    rows = cube._bass.get(dual)
    if rows is None:
        full = full_mask(cube.n)
        flip = full if dual else 0
        hulls = unions_below(cube.n, [flip ^ v for v in cube.dims])
        by_hull = _hull_rows(cube, dual, hulls, below)
        rows = kind.from_rows(cube.r, {
            flip ^ a: [0] * popcount(a ^ hulls[a]) + by_hull[hulls[a]]
            for a, t in enumerate(below) if t
        }).rows
        top = _main_homology(cube)
        whole = kind.from_rows(cube.r, {flip ^ full: top[::-1] if dual else top}).rows
        if whole != tuple(row for row in rows if row[0] == flip ^ full):
            raise ContractError(f"{kind.__name__} of H^{cube.r}: whole-cube row is not main's homology")
        cube._bass[dual] = rows
    return kind(cube.r, rows)


def check_bass_work(ideal: MonomialIdeal, degrees, field: Field, dual: bool = False) -> None:
    """Refuse, before any row of any of them is built, the first of the
    Bass tables of these degrees (dual Bass tables with ``dual``) that is
    over the cap."""
    for r in degrees:
        _bass_work(build_hypercube(ideal, r, field), dual)


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def lyubeznik_table(
    ideal: MonomialIdeal, field: Field, check: bool = False
) -> LyubeznikTable:
    """lambda_{p,n-r} as homology of the hypercube complex, over all r.

    With ``check`` the table is recomputed through the linear strands of the
    Alexander dual and the two answers must agree entrywise.
    """
    if not ideal.is_proper_nonzero:
        raise DomainError("Lyubeznik table needs a proper nonzero ideal")
    cubes = (build_hypercube(ideal, r, field) for r in range(ideal.n + 1))
    table = LyubeznikTable.from_homology(ideal.n, ideal.dim_quotient(), {
        cube.r: _main_homology(cube) for cube in cubes if not cube.is_zero()
    })
    if check:
        other = lyubeznik_via_strands(ideal, field)
        if other != table:
            raise ContractError("hypercube and strand routes disagree")
    return table


def bass_table(ideal: MonomialIdeal, r: int, field: Field) -> BassTable:
    """mu_p(p_alpha, H_I^r(R)) for every face ideal in the support."""
    return _table(build_hypercube(ideal, r, field), dual=False)


def dual_bass_table(ideal: MonomialIdeal, r: int, field: Field) -> DualBassTable:
    """pi_p(p_alpha) = mu_p(p_{1-alpha}) of the Matlis-dual hypercube."""
    return _table(build_hypercube(ideal, r, field), dual=True)


def small_support(ideal: MonomialIdeal, r: int, field: Field):
    """(supp, Supp): masks with a nonzero Bass number, and all support masks."""
    cube = build_hypercube(ideal, r, field)
    return bass_table(ideal, r, field).masks(), support_masks(cube)


@dataclass(frozen=True)
class InjectiveDims:
    """Graded/ungraded injective dimension data of one H_I^r(R)."""

    star_id: int
    id_ungraded: int
    dim_module: int
    dim_small_supp: int


def injective_dimensions(ideal: MonomialIdeal, r: int, field: Field) -> InjectiveDims:
    """Injective dimension bounds from the Bass table.

    star_id is the top graded Bass index; the ungraded dimension adds the
    height jump n - |alpha| available above each face ideal in the
    polynomial ring.
    """
    cube = build_hypercube(ideal, r, field)
    if cube.is_zero():
        raise DomainError(f"H^{r} vanishes for this ideal")
    n = ideal.n
    star_id = -1
    id_ungraded = -1
    dim_small = -1
    for alpha, row in bass_table(ideal, r, field).rows:
        top = len(row) - 1  # rows are trimmed of trailing zeros
        height = n - popcount(alpha)
        star_id = max(star_id, top)
        id_ungraded = max(id_ungraded, top + height)
        dim_small = max(dim_small, height)
    dim_module = max(n - popcount(v) for v in cube.dims)
    rec = InjectiveDims(star_id, id_ungraded, dim_module, dim_small)
    if rec.star_id > rec.dim_small_supp:
        raise ContractError("graded injective dimension exceeds dim of small support")
    return rec


def sequentially_cm(ideal: MonomialIdeal, field: Field) -> bool:
    """True iff the Lyubeznik table is trivial (field-dependent)."""
    return lyubeznik_table(ideal, field).is_trivial


def growth_bound_check(ideal: MonomialIdeal, r: int, field: Field) -> bool:
    """mu_t(m) = 0 for all t > s+1, s the top Bass index at height n-1."""
    n = ideal.n
    rows = bass_table(ideal, r, field).as_dict()
    # rows are trimmed of trailing zeros, so a row's top index is len - 1
    s = max((len(mu) - 1 for a, mu in rows.items() if popcount(a) == n - 1), default=-1)
    return len(rows.get(full_mask(n), ())) <= s + 2


def mu0_summand_report(ideal: MonomialIdeal, r: int, field: Field):
    """Non-minimal support masks with mu_0 != 0 (each certifies an injective
    direct summand after localization)."""
    minimal = set(minimal_support_masks(build_hypercube(ideal, r, field)))
    return [
        (alpha, row[0])
        for alpha, row in bass_table(ideal, r, field).rows
        if alpha not in minimal and row[0]
    ]


def nonzero_cohomology_degrees(ideal: MonomialIdeal, field: Field) -> list[int]:
    """All r with H_I^r(R) != 0."""
    return [
        r
        for r in range(ideal.n + 1)
        if not build_hypercube(ideal, r, field).is_zero()
    ]


# ---------------------------------------------------------------------------
# cross-route consistency suites
# ---------------------------------------------------------------------------


def routes_agree(ideal: MonomialIdeal, field: Field) -> bool:
    """Hypercube-route and strand-route Lyubeznik tables match entrywise."""
    return lyubeznik_table(ideal, field) == lyubeznik_via_strands(ideal, field)


def terai_mustata_consistent(ideal: MonomialIdeal, field: Field) -> bool:
    """Link homology of the Stanley-Reisner complex matches the hypercube.

    dim H~_{n-r-|a|-1}(link(a)) must equal the degree-r hypercube vertex at
    the complementary mask 1-a, for every a and r.  The link of each face
    is selected from one cochain complex of the Stanley-Reisner complex
    (``link_cochains``), through one index of its faces by the vertices
    they contain (``faces_by_vertex``); a non-face has the void link, which has no
    homology.  The link side reads that complex alone, never the cube.
    """
    cc = cochain_complex(stanley_reisner(ideal), field)
    index = faces_by_vertex(cc)
    n = ideal.n
    full = full_mask(n)
    # homology and cohomology dimensions agree over a field
    link_side = {
        (full ^ alpha, n - popcount(alpha) - 1 - q): h
        for faces in cc.basis
        for alpha in faces
        for q, h in link_cochains(cc, alpha, index).cohomology_dims().items()
    }
    return link_side == {
        (v, r): dim
        for r in range(n + 1)
        for v, dim in build_hypercube(ideal, r, field).dims.items()
    }


def betti_matches_hypercube(ideal: MonomialIdeal, field: Field) -> bool:
    """beta_{j,alpha} of the dual equals the hypercube vertex dimension at
    alpha in degree r = |alpha| - j, per mask and in both directions."""
    betti = betti_numbers(alexander_dual(ideal), field)
    return {(j, alpha): c for j, alpha, c in betti.entries} == {
        (popcount(v) - r, v): dim
        for r in range(ideal.n + 1)
        for v, dim in build_hypercube(ideal, r, field).dims.items()
    }
