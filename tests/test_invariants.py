import random
from fractions import Fraction

import pytest

from lyub import (
    BassTable,
    ContractError,
    DualBassTable,
    ExactMatrix,
    InputError,
    QQ,
    ResourceError,
    alexander_dual,
    bass_table,
    betti_matches_hypercube,
    build_hypercube,
    dual_bass_table,
    dual_complex,
    growth_bound_check,
    homology_dims,
    injective_dimensions,
    lyubeznik_table,
    lyubeznik_via_strands,
    main_complex,
    mu0_summand_report,
    nonzero_cohomology_degrees,
    prime_field,
    restricted_complex,
    routes_agree,
    sequentially_cm,
    small_support,
    strand_homology,
    terai_mustata_consistent,
)
from lyub import hypercube, invariants
from lyub.cohomology import reduced_cohomology_dims_all
from lyub.combinatorics import (
    MonomialIdeal,
    full_mask,
    link,
    mask_key,
    mask_of,
    popcount,
    stanley_reisner,
    unions_below,
)
from lyub.hypercube import face_restricted_hypercube, matlis_dual
from lyub.invariants import minimal_support_masks, support_masks
from lyub.tables import BettiTable, LyubeznikTable

from .conftest import gens_ideal
from .oracles import (
    bass_row,
    brute_hull,
    cube_from_edges,
    interval_complex,
    masks,
    nonzero_edges,
    random_ideal,
)

F2 = prime_field(2)
F3 = prime_field(3)


def table_from(d, entries):
    return LyubeznikTable.from_entries(d, entries)


# ---------------------------------------------------------------------------
# Lyubeznik tables
# ---------------------------------------------------------------------------


def test_lyubeznik_a4_both_fields(a4):
    expected = table_from(2, {(0, 1): 1, (2, 2): 2})
    for field in (QQ, F2):
        assert lyubeznik_table(a4, field, check=True) == expected


def test_lyubeznik_a5(a5):
    expected = table_from(3, {(0, 2): 1, (2, 3): 1, (3, 3): 1})
    assert lyubeznik_table(a5, QQ, check=True) == expected


def test_lyubeznik_rp2_characteristic_dependence(ex46):
    assert lyubeznik_table(ex46, QQ) == table_from(3, {(3, 3): 1})
    assert lyubeznik_table(ex46, F2) == table_from(
        3, {(0, 2): 1, (2, 3): 1, (3, 3): 1}
    )


def test_lyubeznik_banded_pattern_a6_a7(a6, a7):
    for ideal in (a6, a7):
        d = ideal.dim_quotient()
        expected = table_from(d, {(0, d - 1): 1, (2, d): 1, (d, d): 1})
        table = lyubeznik_table(ideal, QQ)
        assert table == expected
        assert lyubeznik_via_strands(ideal, QQ) == expected


def test_lyubeznik_nine_variable_trivial(ex52):
    table = lyubeznik_table(ex52, QQ)
    assert table.d == 7 and table.is_trivial
    assert nonzero_cohomology_degrees(ex52, QQ) == [2, 3, 4, 5]


def test_lyubeznik_table_shape_validation():
    with pytest.raises(ContractError):
        table_from(2, {(2, 2): 0})  # lambda_{d,d} must be positive
    with pytest.raises(ContractError):
        LyubeznikTable(1, ((0, 0), (1, 1)))  # below-diagonal entry


@pytest.mark.parametrize("key", [(0, -1), (0, 3), (-1, 2), (3, 3)])
def test_lyubeznik_table_refuses_a_key_off_the_table(key):
    # (0, -1) would otherwise land at lambda_{0,2}, (0, 3) past the last column
    with pytest.raises(ContractError, match=r"outside a 3x3 table"):
        table_from(2, {key: 5, (2, 2): 1})


@pytest.mark.parametrize("kind", [BassTable, DualBassTable])
def test_bass_tables_refuse_a_negative_index(kind):
    # p = -1 would otherwise read the last entry of the row
    table = kind.from_rows(2, {3: [1, 2]})
    read = table.pi if kind is DualBassTable else table.mu
    assert [read(3, p) for p in range(3)] == [1, 2, 0]
    with pytest.raises(InputError, match="index p=-1 is negative"):
        read(3, -1)


def test_lyubeznik_table_from_homology_keeps_to_the_triangle():
    # n = 4, d = 2: position p of the degree-r homology is lambda_{p,4-r}
    table = LyubeznikTable.from_homology(4, 2, {2: [0, 1, 2], 1: [0]})
    assert table == table_from(2, {(1, 2): 1, (2, 2): 2})
    for homology in ({2: [0, 0, 0, 1]}, {1: [1]}):  # p > n-r, then n-r > d
        with pytest.raises(ContractError, match="outside the admissible triangle"):
            LyubeznikTable.from_homology(4, 2, homology)


# ---------------------------------------------------------------------------
# Bass tables
# ---------------------------------------------------------------------------


def test_bass_tables_three_component_ideal(ex53):
    bt3 = bass_table(ex53, 3, QQ)
    assert bt3.as_dict() == {
        mask_of([0, 1, 4]): (1,),
        mask_of([2, 3, 4]): (1,),
        mask_of([0, 1, 2, 4]): (0, 1),
        mask_of([0, 1, 3, 4]): (0, 1),
        mask_of([0, 2, 3, 4]): (0, 1),
        mask_of([1, 2, 3, 4]): (0, 1),
        full_mask(5): (0, 0, 2),
    }
    bt4 = bass_table(ex53, 4, QQ)
    assert bt4.as_dict() == {
        mask_of([0, 1, 2, 3]): (1,),
        full_mask(5): (1,),
    }
    assert lyubeznik_table(ex53, QQ) == table_from(2, {(0, 1): 1, (2, 2): 2})


def test_bass_tables_small_supp_ideal(ex57):
    bt2 = bass_table(ex57, 2, QQ)
    expected2 = {mask_of([0, 3]): (1,), mask_of([1, 4]): (1,)}
    for extra in (1, 2, 4):
        expected2[mask_of([0, 3]) | 1 << extra] = (0, 1)
    for extra in (0, 2, 3):
        expected2[mask_of([1, 4]) | 1 << extra] = (0, 1)
    for pair in ((1, 2), (1, 4), (2, 4)):
        expected2[mask_of([0, 3]) | mask_of(pair)] = (0, 0, 1)
    for pair in ((0, 2), (0, 3), (2, 3)):
        expected2[mask_of([1, 4]) | mask_of(pair)] = (0, 0, 1)
    # (x1,x2,x4,x5) contains both minimal primes, so the two summands each
    # contribute and mu_2 there is 2
    expected2[mask_of([0, 1, 3, 4])] = (0, 0, 2)
    expected2[full_mask(5)] = (0, 0, 0, 2)
    assert bt2.as_dict() == expected2

    bt3 = bass_table(ex57, 3, QQ)
    assert bt3.as_dict() == {
        mask_of([0, 1, 2]): (1,),
        mask_of([0, 1, 3, 4]): (1,),
        full_mask(5): (0, 1),
    }
    assert lyubeznik_table(ex57, QQ) == table_from(3, {(1, 2): 1, (3, 3): 2})


def test_bass_gorenstein_pattern_for_face_ideals():
    for n in range(1, 5):
        for alpha in range(1, 1 << n):
            ideal = MonomialIdeal(n, tuple(1 << b for b in range(n) if alpha >> b & 1))
            r = popcount(alpha)
            bt = bass_table(ideal, r, QQ)
            for beta in range(1 << n):
                expected = (
                    popcount(beta) - popcount(alpha)
                    if beta & alpha == alpha
                    else None
                )
                for p in range(n + 1):
                    want = 1 if expected is not None and p == expected else 0
                    assert bt.mu(beta, p) == want


# ---------------------------------------------------------------------------
# dual Bass tables
# ---------------------------------------------------------------------------


def test_dual_bass_small_supp_module(ex57):
    dt3 = dual_bass_table(ex57, 3, QQ)
    rows = dt3.as_dict()
    assert rows[full_mask(5)] == (1,)
    for alpha in masks([1, 2, 5], [1, 2, 4], [2, 3, 4, 5], [1, 3, 4, 5]):
        assert rows[alpha] == (0, 1)
    for alpha in masks([1, 2], [1, 4], [1, 5], [2, 4], [2, 5], [3, 4, 5]):
        assert rows[alpha] == (0, 0, 1)
    for alpha in masks([1], [2], [4], [5]):
        assert rows[alpha] == (0, 0, 0, 1)
    assert rows[0] == (0, 0, 0, 0, 1)
    assert len(rows) == 16

    dt2 = dual_bass_table(ex57, 2, QQ)
    rows2 = dt2.as_dict()
    assert rows2[mask_of([0, 3])] == (1,)
    assert rows2[mask_of([1, 4])] == (1,)
    for alpha in masks([1], [2], [4], [5]):
        assert rows2[alpha] == (0, 1)
    assert rows2[0] == (0, 0, 2)
    assert len(rows2) == 7


def test_dual_bass_consistency_with_dual_complex_and_strands(a4, a5, ex53, ex57, field):
    # pi_p(p_0) computed three ways: dual hypercube Bass numbers, homology of
    # the dual complex, and the frame of the r-strand of the dual ideal
    for ideal in (a4, a5, ex53, ex57):
        dual = alexander_dual(ideal)
        for r in nonzero_cohomology_degrees(ideal, field):
            cube = build_hypercube(ideal, r, field)
            table = dual_bass_table(ideal, r, field)
            via_complex = homology_dims(dual_complex(cube))
            frame_h = strand_homology(dual, r, field)
            for p in range(ideal.n + 1):
                expected = table.pi(0, p)
                assert via_complex[p] == expected
                from_strand = (
                    frame_h[p - r] if 0 <= p - r < len(frame_h) else 0
                )
                assert from_strand == expected


# ---------------------------------------------------------------------------
# Bass tables kept on their cube
# ---------------------------------------------------------------------------


def _both_tables(ideal, r, field, order):
    """{dual?: table} for the Bass and dual Bass tables of H^r, requested
    in ``order``, and the cube that holds them."""
    tables = {}
    for dual in order:
        get = dual_bass_table if dual else bass_table
        tables[dual] = get(ideal, r, field)
    return tables, build_hypercube(ideal, r, field)


def test_bass_and_dual_tables_are_kept_apart(ex53, ex57):
    for ideal in (ex53, ex57):
        for r in nonzero_cohomology_degrees(ideal, QQ):
            for order in ((False, True), (True, False)):
                hypercube._build_all_degrees.cache_clear()
                tables, cube = _both_tables(ideal, r, QQ, order)
                dual = matlis_dual(cube)
                full = full_mask(ideal.n)
                assert tables[False] == BassTable.from_rows(
                    r, {a: bass_row(cube, a) for a in support_masks(cube)}
                )
                assert tables[True] == DualBassTable.from_rows(
                    r, {full ^ a: bass_row(dual, a) for a in support_masks(dual)}
                )
                assert cube._bass == {False: tables[False].rows, True: tables[True].rows}
                assert all(type(rows) is tuple for rows in cube._bass.values())
                assert bass_table(ideal, r, QQ).rows is tables[False].rows
                assert dual_bass_table(ideal, r, QQ).rows is tables[True].rows


@pytest.mark.parametrize("f", [QQ, F2, F3], ids=["q", "f2", "f3"])
def test_tables_by_hull_equal_a_direct_row_at_every_mask(a5, a8, ex52, ex53, ex57, f):
    # the tables select one complex per hull from one main complex; every
    # mask of the support assembled on its own gives the same rows
    for ideal in (a5, a8, ex52, ex53, ex57):
        full = full_mask(ideal.n)
        for r in nonzero_cohomology_degrees(ideal, f):
            cube = build_hypercube(ideal, r, f)
            dual = matlis_dual(cube)
            assert bass_table(ideal, r, f) == BassTable.from_rows(
                r, {a: bass_row(cube, a) for a in support_masks(cube)}
            )
            assert dual_bass_table(ideal, r, f) == DualBassTable.from_rows(
                r, {full ^ a: bass_row(dual, a) for a in support_masks(dual)}
            )


def test_bass_row_is_its_hull_row_shifted(a5, ex53):
    shifted = 0
    for ideal in (a5, ex53):
        for r in nonzero_cohomology_degrees(ideal, QQ):
            cube = build_hypercube(ideal, r, QQ)
            for c in (cube, matlis_dual(cube)):
                hulls = unions_below(c.n, c.dims)
                for alpha in support_masks(c):
                    hull = brute_hull(c, alpha)
                    assert hulls[alpha] == hull
                    k = popcount(alpha ^ hull)
                    row = bass_row(c, hull)
                    assert bass_row(c, alpha) == [0] * k + row
                    shifted += k > 0 and any(row)
    assert shifted


def test_stored_tables_are_still_refused_over_the_cap(monkeypatch, ex57):
    _, cube = _both_tables(ex57, 2, QQ, (False, True))
    assert set(cube._bass) == {False, True}
    # the tables of H^2 assemble 16 and 8 vertex dimensions
    monkeypatch.setattr(invariants, "MAX_BASS_WORK", 5)
    for get in (bass_table, dual_bass_table, small_support, injective_dimensions):
        with pytest.raises(ResourceError, match="exceeds the cap of 5"):
            get(ex57, 2, QQ)


def test_derived_cubes_start_with_nothing_stored(ex57):
    _, cube = _both_tables(ex57, 3, QQ, (False, True))
    assert set(cube._bass) == {False, True}
    assert matlis_dual(cube)._bass == {}
    for amask in (full_mask(5), masks([1, 2, 3, 4])[0]):
        assert face_restricted_hypercube(cube, amask)._bass == {}


def test_check_bass_work_builds_no_matlis_dual(monkeypatch, a5, ex57):
    # no table path builds a Matlis dual, or any cube but the ones of the
    # build: the dual table reads an interval of the cube's main complex
    hypercube._build_all_degrees.cache_clear()  # fresh cubes, no tables kept
    for ideal in (a5, ex57):
        build_hypercube(ideal, 0, QQ)

    def no_cube(*args):
        raise AssertionError("a hypercube was built")

    assert not hasattr(invariants, "matlis_dual")
    monkeypatch.setattr(hypercube, "matlis_dual", no_cube)
    monkeypatch.setattr(hypercube.Hypercube, "__init__", no_cube)
    for ideal in (a5, ex57):
        invariants.check_bass_work(ideal, range(ideal.n + 1), QQ, dual=True)
        for r in nonzero_cohomology_degrees(ideal, QQ):
            assert bass_table(ideal, r, QQ).rows and dual_bass_table(ideal, r, QQ).rows


def test_tables_read_the_main_complex_of_their_cube(monkeypatch, a5, ex57):
    # once the cubes are built, no table assembles a complex: each reads
    # the main complex its cube assembled and checked when it was built
    hypercube._build_all_degrees.cache_clear()  # fresh cubes, no tables kept
    cubes = [build_hypercube(i, r, QQ) for i in (a5, ex57) for r in range(i.n + 1)]

    def no_assembly(*args):
        raise AssertionError("a complex was assembled")

    monkeypatch.setattr(hypercube, "restricted_complex", no_assembly)
    monkeypatch.setattr(hypercube, "_assemble", no_assembly)
    for ideal in (a5, ex57):
        lyubeznik_table(ideal, QQ)
        for r in nonzero_cohomology_degrees(ideal, QQ):
            bass_table(ideal, r, QQ)
            dual_bass_table(ideal, r, QQ)
    assert all(main_complex(cube) is cube.main for cube in cubes)


def test_tables_form_no_complex_of_their_own(monkeypatch, a8):
    # main's d∘d check runs once per cube, when the cube is built; the
    # tables then read ranks off main's maps and form no complex
    from lyub import linalg

    hypercube._build_all_degrees.cache_clear()  # fresh cubes, no tables kept
    calls = []
    real = linalg.check_complex

    def counted(dims, maps):
        calls.append(len(dims))
        return real(dims, maps)

    monkeypatch.setattr(linalg, "check_complex", counted)
    build_hypercube(a8, 2, QQ)
    assert calls == [a8.n + 1] * (a8.n + 1)  # one main complex per degree
    calls.clear()
    assert bass_table(a8, 2, QQ).rows and dual_bass_table(a8, 2, QQ).rows
    assert calls == []


def test_each_support_sweep_runs_once_per_cube_and_orientation(a5, ex57):
    # the cap, the support and its minimal primes read one sweep of the
    # totals below each mask per cube and orientation, kept on the cube
    sweeps = []

    class Counted(dict):
        def __setitem__(self, key, value):
            sweeps.append(key)
            super().__setitem__(key, value)

    hypercube._build_all_degrees.cache_clear()  # fresh cubes, nothing kept
    cubes = 0
    for ideal in (a5, ex57):
        degrees = nonzero_cohomology_degrees(ideal, QQ)
        for r in degrees:
            build_hypercube(ideal, r, QQ)._below = Counted()
        for _ in range(2):
            for dual in (False, True):
                invariants.check_bass_work(ideal, degrees, QQ, dual)
            for r in degrees:
                cube = build_hypercube(ideal, r, QQ)
                bass_table(ideal, r, QQ)
                dual_bass_table(ideal, r, QQ)
                small_support(ideal, r, QQ)
                injective_dimensions(ideal, r, QQ)
                mu0_summand_report(ideal, r, QQ)
                minimal_support_masks(cube)
                assert set(cube._below) == {False, True}
        cubes += len(degrees)
    assert len(sweeps) == 2 * cubes


# ---------------------------------------------------------------------------
# the walk over the support hulls
# ---------------------------------------------------------------------------


def _walk(cube, dual):
    """The walk's {hull: row}, and the support hulls it must cover."""
    flip = full_mask(cube.n) if dual else 0
    hulls = unions_below(cube.n, [flip ^ v for v in cube.dims])
    below = invariants._below(cube, dual)
    return invariants._hull_rows(cube, dual, hulls, below), {h for h in hulls if below[h]}


def _interval_row(cube, dual, h):
    """Row h reduced from its own interval of the main complex: [0, h], or
    [full \\ h, full] read backwards."""
    flip = full_mask(cube.n) if dual else 0
    mu = homology_dims(interval_complex(cube, flip & ~h, flip | h))
    return mu[::-1] if dual else mu


def _assert_walk_matches_intervals(cube):
    count = 0
    for dual in (False, True):
        rows, support = _walk(cube, dual)
        assert set(rows) == support
        for h, row in rows.items():
            assert row == _interval_row(cube, dual, h), (cube.r, dual, h)
        count += len(rows)
    return count


@pytest.mark.parametrize("f", [QQ, F2, F3], ids=["q", "f2", "f3"])
def test_walk_rows_equal_each_hulls_own_interval(a5, a8, ex46, ex52, ex53, ex57, f):
    rng = random.Random(2111)
    ideals = [a5, a8, ex46, ex52, ex53, ex57]
    ideals += [random_ideal(rng, rng.randint(4, 7)) for _ in range(10)]
    hulls = 0
    for ideal in ideals:
        for r in nonzero_cohomology_degrees(ideal, f):
            hulls += _assert_walk_matches_intervals(build_hypercube(ideal, r, f))
    assert hulls > 1000


def _fraction_cube():
    """A commuting 3-cube over Q, every vertex of dimension 3: the edge in
    direction i is A_i everywhere, each A_i a polynomial in one nilpotent
    M, so every square commutes.  The entries are Fractions and non-unit
    integers, which no cube built from an ideal in the corpus has."""
    h = Fraction
    edge = [
        [[0, 2, h(1, 3)], [0, 0, 2], [0, 0, 0]],  # 2M + M^2 / 3
        [[0, 0, h(5, 7)], [0, 0, 0], [0, 0, 0]],  # 5 M^2 / 7
        [[h(3, 2), 4, 0], [0, h(3, 2), 4], [0, 0, h(3, 2)]],  # 3/2 + 4M
    ]
    edges = {
        (a, i): ExactMatrix(QQ, 3, 3, edge[i])
        for a in range(8) for i in range(3) if not a >> i & 1
    }
    return cube_from_edges(3, 2, QQ, {a: 3 for a in range(8)}, edges)


def test_walk_over_a_cube_with_fraction_entries():
    cube = _fraction_cube()
    assert any(type(x) is Fraction for m in nonzero_edges(cube).values() for row in m.data for _, x in row)
    assert _assert_walk_matches_intervals(cube) == 16  # every mask is its own hull
    full = full_mask(3)
    dual = matlis_dual(cube)
    bass = invariants._table(cube, False)
    assert bass == BassTable.from_rows(2, {a: bass_row(cube, a) for a in range(8)})
    assert invariants._table(cube, True) == DualBassTable.from_rows(
        2, {full ^ a: bass_row(dual, a) for a in range(8)}
    )
    assert any(sum(map(bool, row)) > 1 for _, row in bass.rows)


def test_a_wrong_walk_rank_is_caught_by_the_main_complex(monkeypatch, a8):
    # a walk that loses every row meeting a pivot ranks too low; its row at
    # the whole cube then disagrees with main's own homology
    cube = build_hypercube(a8, 2, QQ)

    def dropping(row, *args):
        row.clear()
        return 1

    monkeypatch.setattr(invariants, "_eliminate", dropping)
    for dual in (False, True):
        stored = cube._bass.pop(dual, None)
        try:
            with pytest.raises(ContractError, match="whole-cube row is not main's homology"):
                invariants._table(cube, dual)
            assert dual not in cube._bass
        finally:
            if stored is not None:
                cube._bass[dual] = stored


def test_main_homology_is_reduced_once_per_cube(monkeypatch, ex52):
    # table, bass and dual-bass read main's homology off the cube: one pass
    # of the three reduces each of nine's four nonzero mains once
    hypercube._build_all_degrees.cache_clear()  # fresh cubes, nothing kept
    reduced = []
    real = invariants.homology_dims

    def counted(cx):
        reduced.append(cx)
        return real(cx)

    monkeypatch.setattr(invariants, "homology_dims", counted)
    lyubeznik_table(ex52, QQ)
    degrees = nonzero_cohomology_degrees(ex52, QQ)
    for r in degrees:
        assert bass_table(ex52, r, QQ).rows and dual_bass_table(ex52, r, QQ).rows
    assert degrees == [2, 3, 4, 5]
    assert len(reduced) == len(degrees)
    assert all(x is build_hypercube(ex52, r, QQ).main for x, r in zip(reduced, degrees))


def test_a_stored_main_homology_that_disagrees_is_caught(ex57):
    # the whole-cube row of each table is still compared with the homology
    # kept on the cube, so a kept value off by one is refused
    cube = build_hypercube(ex57, 3, QQ)
    kept, tables = invariants._main_homology(cube), cube._bass
    try:
        cube._homology, cube._bass = (*kept[:-1], kept[-1] + 1), {}
        for dual in (False, True):
            with pytest.raises(ContractError, match="whole-cube row is not main's homology"):
                invariants._table(cube, dual)
            assert dual not in cube._bass
    finally:
        cube._homology, cube._bass = kept, tables


@pytest.mark.parametrize("by_cols", [False, True], ids=["rows", "cols"])
def test_walk_rows_are_the_integral_rows_of_the_map_or_its_transpose(by_cols):
    # the walk reads each row as a tuple of columns and a tuple of values:
    # the integral rows of the map (of its transpose, formed here), types
    # and zero rows included
    from lyub.linalg import _integral_rows

    from .oracles import random_fraction_matrix, random_matrix

    rng = random.Random(53)
    mats = [random_fraction_matrix(rng, QQ, 5, 7), random_matrix(rng, QQ, 6, 4, span=2),
            random_matrix(rng, F3, 4, 6), ExactMatrix(QQ, 3, 2)]
    for mat in mats:
        cols, vals = invariants._walk_rows(mat, by_cols)
        want = _integral_rows(mat.transpose() if by_cols else mat)[0]
        assert [tuple(zip(c, v)) for c, v in zip(cols, vals)] == want
        assert [[type(x) for x in v] for v in vals] == [[type(x) for _, x in row] for row in want]
    assert any(type(x) is Fraction for row in mats[0].data for _, x in row)


def test_a_negative_walk_row_is_refused(monkeypatch, ex57):
    # rows made independent by an extra column of their own rank too high
    cube = build_hypercube(ex57, 3, QQ)
    real = invariants._walk_rows

    def independent(mat, by_cols):
        cols, vals = real(mat, by_cols)
        width = mat.rows if by_cols else mat.cols
        return [(*row, width + k) for k, row in enumerate(cols)], [(*row, 1) for row in vals]

    monkeypatch.setattr(invariants, "_walk_rows", independent)
    for dual in (False, True):
        with pytest.raises(ContractError, match="negative homology dimension"):
            _walk(cube, dual)


# ---------------------------------------------------------------------------
# support, injective dimensions, structural checks
# ---------------------------------------------------------------------------


def test_small_support_strictly_smaller(ex57):
    small, big = small_support(ex57, 3, QQ)
    excluded = set(masks([1, 2, 3, 4], [1, 2, 3, 5]))
    assert excluded <= set(big)
    assert not excluded & set(small)
    small2, big2 = small_support(ex57, 2, QQ)
    assert small2 == big2


def test_support_sweeps_match_brute_force(a4, a5, ex46, ex53, ex57, field):
    for ideal in (a4, a5, ex46, ex53, ex57):
        for r in range(ideal.n + 1):
            cube = build_hypercube(ideal, r, field)
            for c in (cube, matlis_dual(cube)):
                verts = list(c.dims)
                upward = [a for a in range(1 << c.n) if any(v & ~a == 0 for v in verts)]
                minimal = [v for v in verts if not any(w != v and w & ~v == 0 for w in verts)]
                assert support_masks(c) == sorted(upward, key=mask_key)
                assert minimal_support_masks(c) == sorted(minimal, key=mask_key)


def test_minimal_support_primes_have_mu0_one(a4, a5, ex46, ex53, ex57, field):
    for ideal in (a4, a5, ex46, ex53, ex57):
        for r in nonzero_cohomology_degrees(ideal, field):
            cube = build_hypercube(ideal, r, field)
            for alpha in minimal_support_masks(cube):
                row = bass_row(cube, alpha)
                assert row[0] == 1
                assert not any(row[1:])


def test_injective_dimensions_examples(ex57):
    rec3 = injective_dimensions(ex57, 3, QQ)
    assert (rec3.star_id, rec3.dim_module, rec3.id_ungraded, rec3.dim_small_supp) == (
        1, 2, 2, 2,
    )
    rec2 = injective_dimensions(ex57, 2, QQ)
    assert rec2.star_id == rec2.dim_module == 3


def test_injective_dimensions_face_ideal_pattern():
    for n in (2, 3, 4):
        for alpha in (1, (1 << n) - 1, 0b11 & ((1 << n) - 1)):
            ideal = MonomialIdeal(n, tuple(1 << b for b in range(n) if alpha >> b & 1))
            rec = injective_dimensions(ideal, popcount(alpha), QQ)
            assert rec.star_id == n - popcount(alpha) == rec.dim_module


def test_star_id_bounded_by_small_support_dim(a4, a5, ex53, ex57, field):
    for ideal in (a4, a5, ex53, ex57):
        for r in nonzero_cohomology_degrees(ideal, field):
            rec = injective_dimensions(ideal, r, field)
            assert rec.star_id <= rec.dim_small_supp <= rec.dim_module


def test_sequentially_cm(a4, a5, ex52):
    assert sequentially_cm(ex52, QQ)
    assert not sequentially_cm(a4, QQ)
    assert not sequentially_cm(a5, QQ)
    assert sequentially_cm(gens_ideal(3, [[1], [2]]), QQ)


def test_growth_bound_examples(a5, ex53):
    # H^3 of the three-component ideal: s = 1 at height four, mu_2(m) = 2
    cube = build_hypercube(ex53, 3, QQ)
    height4 = [a for a in support_masks(cube) if popcount(a) == 4]
    s = max(
        p for a in height4 for p, v in enumerate(bass_row(cube, a)) if v
    )
    assert s == 1
    row_m = bass_row(cube, full_mask(5))
    assert row_m[2] == 2 and not any(row_m[3:])
    assert growth_bound_check(ex53, 3, QQ)

    # H^2 of the five-cycle ideal: s = 2, mu_2(m) = mu_3(m) = 1
    cube5 = build_hypercube(a5, 2, QQ)
    assert bass_row(cube5, mask_of([0, 1, 2, 4]))[2] == 1
    row5 = bass_row(cube5, full_mask(5))
    assert row5[2] == 1 and row5[3] == 1 and not any(row5[4:])
    assert growth_bound_check(a5, 2, QQ)


def test_growth_bound_everywhere(a4, a5, ex53, ex57, field):
    for ideal in (a4, a5, ex53, ex57):
        for r in range(ideal.n + 1):
            assert growth_bound_check(ideal, r, field)


def test_mu0_summand_report(a5, ex53, ex57):
    assert mu0_summand_report(ex53, 4, QQ) == [(full_mask(5), 1)]
    assert mu0_summand_report(ex57, 3, QQ) == []
    assert mu0_summand_report(a5, 2, QQ) == []


def _euler_characteristic(cx):
    return sum((-1) ** p * d for p, d in enumerate(cx.dims))


def test_euler_characteristic_additivity(a5, ex53, ex57):
    # chi(main) = chi(below alpha) + chi(above 1-alpha) for |alpha| = n-1
    for ideal in (a5, ex53, ex57):
        n = ideal.n
        full = full_mask(n)
        for r in nonzero_cohomology_degrees(ideal, QQ):
            cube = build_hypercube(ideal, r, QQ)
            chi_main = _euler_characteristic(main_complex(cube))
            for j in range(n):
                alpha = full ^ (1 << j)
                # the restricted complex indexes M_b at position |alpha|-|b|;
                # inside the main complex the same vertex sits at n-|b|
                chi_below = (-1) ** (n - popcount(alpha)) * _euler_characteristic(
                    restricted_complex(cube, alpha, alpha)
                )
                chi_above = sum(
                    (-1) ** (n - popcount(b)) * d
                    for b, d in cube.dims.items()
                    if b >> j & 1
                )
                assert chi_main == chi_below + chi_above


# ---------------------------------------------------------------------------
# cross-route consistency on the corpus
# ---------------------------------------------------------------------------


def test_routes_agree_corpus(a4, a5, a6, ex46, ex53, ex57, field):
    for ideal in (a4, a5, a6, ex46, ex53, ex57):
        assert routes_agree(ideal, field)


def test_terai_mustata_corpus(a4, a5, ex46, ex53, ex57, field):
    for ideal in (a4, a5, ex46, ex53, ex57):
        assert terai_mustata_consistent(ideal, field)


def _terai_on_own_links(ideal, field):
    """The Terai-Mustata suite with the link of every one of the 2^n masks
    formed as a complex on its own."""
    delta = stanley_reisner(ideal)
    n, full = ideal.n, full_mask(ideal.n)
    return {
        (full ^ alpha, n - popcount(alpha) - 1 - q): h
        for alpha in range(full + 1)
        for q, h in reduced_cohomology_dims_all(link(delta, alpha), field).items()
    } == {
        (v, r): dim
        for r in range(n + 1)
        for v, dim in build_hypercube(ideal, r, field).dims.items()
    }


@pytest.mark.parametrize("field", [QQ, F2, F3], ids=["q", "f2", "f3"])
def test_terai_mustata_verdicts_match_links_formed_on_their_own(monkeypatch, field):
    rng = random.Random(13)
    ideals = [random_ideal(rng, rng.randint(2, 6)) for _ in range(12)]
    for ideal in ideals:
        assert terai_mustata_consistent(ideal, field)
        assert _terai_on_own_links(ideal, field)
    # a planted vertex dimension turns both verdicts
    for ideal in ideals:
        cube = next(c for r in range(ideal.n + 1)
                    if not (c := build_hypercube(ideal, r, field)).is_zero())
        alpha = cube.nonzero_vertices()[-1]
        monkeypatch.setitem(cube.dims, alpha, cube.dims[alpha] + 1)
        assert not terai_mustata_consistent(ideal, field)
        assert not _terai_on_own_links(ideal, field)


def test_terai_mustata_reads_the_hypercube(monkeypatch, a5):
    cube = build_hypercube(a5, 2, QQ)
    alpha = cube.nonzero_vertices()[0]
    monkeypatch.setitem(cube.dims, alpha, cube.dims[alpha] + 1)
    assert not terai_mustata_consistent(a5, QQ)


def test_terai_mustata_misses_a_removed_vertex(monkeypatch, a5):
    cube = build_hypercube(a5, 2, QQ)
    monkeypatch.delitem(cube.dims, cube.nonzero_vertices()[0])
    assert not terai_mustata_consistent(a5, QQ)


@pytest.mark.parametrize("edit", ["grow", "remove"])
def test_betti_matches_hypercube_reads_the_hypercube(monkeypatch, a5, edit):
    cube = build_hypercube(a5, 2, QQ)
    alpha = cube.nonzero_vertices()[0]
    if edit == "grow":
        monkeypatch.setitem(cube.dims, alpha, cube.dims[alpha] + 1)
    else:
        monkeypatch.delitem(cube.dims, alpha)
    assert not betti_matches_hypercube(a5, QQ)


@pytest.mark.parametrize("r", [-1, 6])
def test_betti_matches_hypercube_refuses_a_degree_off_the_cube(monkeypatch, a5, r):
    # a Betti entry beta_{j,alpha} with r = |alpha| - j outside [0, n]
    betti = invariants.betti_numbers(alexander_dual(a5), QQ)
    alpha = betti.entries[0][1]
    planted = BettiTable(betti.entries + ((popcount(alpha) - r, alpha, 1),))
    monkeypatch.setattr(invariants, "betti_numbers", lambda ideal, field: planted)
    assert not betti_matches_hypercube(a5, QQ)


def test_betti_matches_hypercube_corpus(a4, a5, ex46, ex53, ex57, field):
    for ideal in (a4, a5, ex46, ex53, ex57):
        assert betti_matches_hypercube(ideal, field)


def test_random_small_instances_all_checks(field):
    rng = random.Random(101)
    for _ in range(10):
        ideal = random_ideal(rng, rng.randint(2, 5))
        assert routes_agree(ideal, field)
        assert terai_mustata_consistent(ideal, field)
        assert betti_matches_hypercube(ideal, field)
