"""Top-level invariants of R/I: Lyubeznik, Bass and dual Bass tables,
small support, injective dimension bounds, and the structural checks that
tie the hypercube route to the resolution route.
"""

from dataclasses import dataclass

from .combinatorics import (
    MonomialIdeal,
    alexander_dual,
    full_mask,
    link,
    mask_key,
    popcount,
    stanley_reisner,
    unions_below,
)
from .cohomology import reduced_cohomology_dims_all
from .errors import MAX_BASS_WORK, ContractError, DomainError, ResourceError
from .hypercube import (
    Hypercube,
    build_hypercube,
    hull_complex,
    main_complex,
    matlis_dual,
    summand_starts,
)
from .linalg import Field, homology_dims
from .resolution import betti_numbers, lyubeznik_via_strands
from .tables import BassTable, DualBassTable, LyubeznikTable

# ---------------------------------------------------------------------------
# support sets
# ---------------------------------------------------------------------------


def _totals_below(n: int, dims: dict[int, int]) -> list[int]:
    """Per mask alpha, the total dimension of the nonzero vertices (``dims``)
    below alpha: one subset-sum sweep per bit, O(n 2^n) in all."""
    below = [0] * (1 << n)
    for v, d in dims.items():
        below[v] = d
    for i in range(n):
        bit = 1 << i
        for m in range(1 << n):
            if m & bit:
                below[m] += below[m ^ bit]
    return below


def support_masks(cube: Hypercube) -> list[int]:
    """Face-ideal masks in the support: upward closure of nonzero vertices."""
    below = _totals_below(cube.n, cube.dims)
    return sorted((a for a, t in enumerate(below) if t), key=mask_key)


def minimal_support_masks(cube: Hypercube) -> list[int]:
    """Masks of the minimal primes of the support: the nonzero vertices with
    no nonzero vertex strictly below them."""
    below = _totals_below(cube.n, cube.dims)
    return sorted((v for v, d in cube.dims.items() if below[v] == d), key=mask_key)


def _bass_work(cube: Hypercube, dual: bool) -> list[int]:
    """Per mask alpha, the vertex dimensions row alpha of the Bass table
    assembles (those below alpha); with ``dual`` the same for the Matlis
    dual, read off the flipped vertex dimensions alone.  A table whose
    totals sum above ``MAX_BASS_WORK`` is refused."""
    dims = cube.dims
    if dual:
        full = full_mask(cube.n)
        dims = {full ^ a: d for a, d in dims.items()}
    below = _totals_below(cube.n, dims)
    work = sum(below)
    if work > MAX_BASS_WORK:
        raise ResourceError(
            f"a Bass table of H^{cube.r} on n={cube.n} variables assembles "
            f"{work} vertex dimensions, which exceeds the cap of {MAX_BASS_WORK}"
        )
    return below


def _table(cube: Hypercube, dual: bool) -> BassTable | DualBassTable:
    """The cube's Bass table, or with ``dual`` its dual Bass table.

    The cap is checked on every call, so a refusal never depends on what
    ran before; past it, each table's rows are assembled once and kept on
    the cube.  The dual table reads pi_p(p_alpha) = mu_p(p_{1-alpha}) off
    the Matlis dual, which is built for the rows and then dropped.

    One complex is reduced per support hull h = hull(alpha), the union of
    the nonzero vertices below alpha (``unions_below``), because row alpha
    is row h shifted: ``[0] * |alpha \\ h|`` followed by row h.  The hull
    complexes are selected from one main complex per table
    (``hypercube.hull_complex``).  Proof of the shift: let
    c = alpha \\ h.  A summand alpha \\ gamma of the alpha complex is nonzero
    only if it is a nonzero vertex, so it lies in h and gamma contains c.
    Writing gamma = c + g with g <= h maps the nonzero summands at
    position p one to one, in the same order, onto those of the h complex
    at position p - |c|, with the same vertex h \\ g.  A direction-i map
    (i in h \\ g) carries the sign of the bits of gamma below i, which is
    the h complex's sign times s_i = (-1)^{|c & [0, i)|}.  Scaling the
    summand g by the product of s_i over i in g turns one complex into the
    other, so their homologies agree, shifted by |c| positions; the first
    |c| positions hold no summand.
    """
    below = _bass_work(cube, dual)
    kind = DualBassTable if dual else BassTable
    rows = cube._bass.get(dual)
    if rows is None:
        src, flip = (matlis_dual(cube), full_mask(cube.n)) if dual else (cube, 0)
        main, starts = main_complex(src), summand_starts(src)
        by_hull: dict[int, list[int]] = {}
        mus = {}
        hulls = unions_below(cube.n, src.dims)
        for a, t in enumerate(below):
            if t:
                h = hulls[a]
                if h not in by_hull:
                    by_hull[h] = homology_dims(hull_complex(src, main, starts, h))
                mus[flip ^ a] = [0] * popcount(a ^ h) + by_hull[h]
        rows = cube._bass[dual] = kind.from_rows(cube.r, mus).rows
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
        cube.r: homology_dims(main_complex(cube)) for cube in cubes if not cube.is_zero()
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
    the complementary mask 1-a, for every a and r.
    """
    delta = stanley_reisner(ideal)
    n = ideal.n
    full = full_mask(n)
    # homology and cohomology dimensions agree over a field, so the link
    # side may be read from the same one-pass rank table
    link_side = {
        (full ^ alpha, n - popcount(alpha) - 1 - q): h
        for alpha in range(full + 1)
        for q, h in reduced_cohomology_dims_all(link(delta, alpha), field).items()
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
