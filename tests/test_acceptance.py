"""Acceptance suite: one test per criterion, exact integer tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion with its runtime.
"""

import random
import time
from contextlib import contextmanager

from lyub import (
    QQ,
    alexander_dual,
    bass_table,
    betti_matches_hypercube,
    betti_numbers,
    build_hypercube,
    dual_bass_table,
    growth_bound_check,
    injective_dimensions,
    lyubeznik_table,
    lyubeznik_via_strands,
    main_complex,
    minimize,
    nonzero_cohomology_degrees,
    prime_field,
    rank,
    routes_agree,
    small_support,
    terai_mustata_consistent,
)
from lyub.combinatorics import full_mask, mask_of
from lyub.invariants import minimal_support_masks
from lyub.resolution import taylor_complex
from lyub.tables import BettiTable, LyubeznikTable

from .conftest import (
    cycle_nonedge_ideal,
    nine_vars_ideal,
    rp2_ideal,
    small_supp_ideal,
    three_component_ideal,
)
from .oracles import bass_row, hochster_betti_counts, masks, random_ideal

F2 = prime_field(2)
BOTH_FIELDS = (QQ, F2)


@contextmanager
def criterion(number, label):
    start = time.time()
    try:
        yield
    except Exception:
        print(f"criterion {number:2d} FAIL  {label}")
        raise
    print(f"criterion {number:2d} PASS  {label}  ({time.time() - start:.2f}s)")


def table(d, entries):
    return LyubeznikTable.from_entries(d, entries)


def test_criterion_1_a4_table():
    with criterion(1, "Lyubeznik table of the four-variable cycle ideal"):
        a4 = cycle_nonedge_ideal(4)
        expected = table(2, {(0, 1): 1, (2, 2): 2})
        for field in BOTH_FIELDS:
            assert lyubeznik_table(a4, field) == expected
            assert lyubeznik_via_strands(a4, field) == expected


def test_criterion_2_a5_table_and_rank():
    with criterion(2, "five-variable cycle ideal: table and the rank-4 map"):
        a5 = cycle_nonedge_ideal(5)
        expected = table(3, {(0, 2): 1, (2, 3): 1, (3, 3): 1})
        assert lyubeznik_table(a5, QQ) == expected
        assert lyubeznik_via_strands(a5, QQ) == expected
        cx = main_complex(build_hypercube(a5, 2, QQ))
        assert cx.dims == (0, 0, 5, 5, 0, 0)
        assert rank(cx.maps[2]) == 4


def test_criterion_3_banded_pattern():
    with criterion(3, "banded tables of the six- and seven-variable cycles"):
        for n in (6, 7):
            ideal = cycle_nonedge_ideal(n)
            d = n - 2
            expected = table(d, {(0, d - 1): 1, (2, d): 1, (d, d): 1})
            hyper = lyubeznik_table(ideal, QQ)
            strands = lyubeznik_via_strands(ideal, QQ)
            assert hyper == expected
            assert strands == expected


def test_criterion_4_characteristic_dependence():
    with criterion(4, "projective-plane ideal over Q and F_2"):
        ideal = rp2_ideal()
        assert lyubeznik_table(ideal, QQ) == table(3, {(3, 3): 1})
        assert lyubeznik_table(ideal, F2) == table(
            3, {(0, 2): 1, (2, 3): 1, (3, 3): 1}
        )


def test_criterion_5_nine_variables():
    with criterion(5, "nine-variable ideal: trivial table, H^r != 0 iff r in 2..5"):
        ideal = nine_vars_ideal()
        assert lyubeznik_table(ideal, QQ).is_trivial
        assert nonzero_cohomology_degrees(ideal, QQ) == [2, 3, 4, 5]


def test_criterion_6_bass_tables_three_components():
    with criterion(6, "three-component ideal: Bass tables and table"):
        ideal = three_component_ideal()
        assert bass_table(ideal, 3, QQ).as_dict() == {
            mask_of([0, 1, 4]): (1,),
            mask_of([2, 3, 4]): (1,),
            mask_of([0, 1, 2, 4]): (0, 1),
            mask_of([0, 1, 3, 4]): (0, 1),
            mask_of([0, 2, 3, 4]): (0, 1),
            mask_of([1, 2, 3, 4]): (0, 1),
            full_mask(5): (0, 0, 2),
        }
        assert bass_table(ideal, 4, QQ).as_dict() == {
            mask_of([0, 1, 2, 3]): (1,),
            full_mask(5): (1,),
        }
        assert lyubeznik_table(ideal, QQ) == table(2, {(0, 1): 1, (2, 2): 2})


def test_criterion_7_small_support_ideal():
    with criterion(7, "small-support ideal: Bass tables, dims, excluded primes"):
        ideal = small_supp_ideal()
        expected_h2 = {mask_of([0, 3]): (1,), mask_of([1, 4]): (1,)}
        for extra in (1, 2, 4):
            expected_h2[mask_of([0, 3]) | 1 << extra] = (0, 1)
        for extra in (0, 2, 3):
            expected_h2[mask_of([1, 4]) | 1 << extra] = (0, 1)
        for pair in ((1, 2), (1, 4), (2, 4)):
            expected_h2[mask_of([0, 3]) | mask_of(pair)] = (0, 0, 1)
        for pair in ((0, 2), (0, 3), (2, 3)):
            expected_h2[mask_of([1, 4]) | mask_of(pair)] = (0, 0, 1)
        expected_h2[mask_of([0, 1, 3, 4])] = (0, 0, 2)  # contains both primes
        expected_h2[full_mask(5)] = (0, 0, 0, 2)
        assert bass_table(ideal, 2, QQ).as_dict() == expected_h2
        assert bass_table(ideal, 3, QQ).as_dict() == {
            mask_of([0, 1, 2]): (1,),
            mask_of([0, 1, 3, 4]): (1,),
            full_mask(5): (0, 1),
        }
        assert lyubeznik_table(ideal, QQ) == table(3, {(1, 2): 1, (3, 3): 2})
        rec = injective_dimensions(ideal, 3, QQ)
        assert rec.star_id == 1
        assert rec.dim_module == 2
        assert rec.id_ungraded == 2 == rec.dim_small_supp
        small, big = small_support(ideal, 3, QQ)
        excluded = set(masks([1, 2, 3, 4], [1, 2, 3, 5]))
        assert excluded <= set(big) and not excluded & set(small)


def test_criterion_8_dual_bass_values():
    with criterion(8, "dual Bass numbers of the small-support ideal"):
        ideal = small_supp_ideal()
        rows3 = dual_bass_table(ideal, 3, QQ).as_dict()
        assert rows3[full_mask(5)] == (1,)
        for alpha in masks([1, 2, 5], [1, 2, 4], [2, 3, 4, 5], [1, 3, 4, 5]):
            assert rows3[alpha] == (0, 1)
        for alpha in masks([1, 2], [1, 4], [1, 5], [2, 4], [2, 5], [3, 4, 5]):
            assert rows3[alpha] == (0, 0, 1)
        for alpha in masks([1], [2], [4], [5]):
            assert rows3[alpha] == (0, 0, 0, 1)
        assert rows3[0] == (0, 0, 0, 0, 1)
        assert len(rows3) == 16
        rows2 = dual_bass_table(ideal, 2, QQ).as_dict()
        assert rows2[mask_of([0, 3])] == (1,)
        assert rows2[mask_of([1, 4])] == (1,)
        for alpha in masks([1], [2], [4], [5]):
            assert rows2[alpha] == (0, 1)
        assert rows2[0] == (0, 0, 2)
        assert len(rows2) == 7


def _corpus():
    return [
        cycle_nonedge_ideal(4),
        cycle_nonedge_ideal(5),
        cycle_nonedge_ideal(6),
        cycle_nonedge_ideal(7),
        rp2_ideal(),
        nine_vars_ideal(),
        three_component_ideal(),
        small_supp_ideal(),
    ]


def test_criterion_9_property_suite():
    with criterion(9, "property suite over the corpus, both fields"):
        for ideal in _corpus():
            n = ideal.n
            assert alexander_dual(alexander_dual(ideal)) == ideal
            for field in BOTH_FIELDS:
                # route equivalence; table shape is enforced by construction
                assert routes_agree(ideal, field)
                assert terai_mustata_consistent(ideal, field)
                assert betti_matches_hypercube(ideal, field)
                # square commutativity and d∘d are verified while building;
                # touch every nonzero degree to force the checks
                for r in nonzero_cohomology_degrees(ideal, field):
                    cube = build_hypercube(ideal, r, field)
                    assert cube.vertex_dim(0) == 0
                    for alpha in minimal_support_masks(cube):
                        row = bass_row(cube, alpha)
                        assert row[0] == 1 and not any(row[1:])
                    assert growth_bound_check(ideal, r, field)
                    rec = injective_dimensions(ideal, r, field)
                    assert rec.star_id <= rec.dim_small_supp <= rec.dim_module
                    # Matlis-duality consistency, entrywise
                    dual_rows = dual_bass_table(ideal, r, field).as_dict()
                    from lyub.hypercube import matlis_dual

                    dual_cube = matlis_dual(cube)
                    for alpha, vals in dual_rows.items():
                        row = bass_row(dual_cube, full_mask(n) ^ alpha)
                        assert tuple(row[: len(vals)]) == vals
                # minimize order-independence on the dual's Taylor complex
                dual = alexander_dual(ideal)
                cx = taylor_complex(dual, field)
                assert (
                    minimize(cx, "forward").degrees
                    == minimize(cx, "reverse").degrees
                )


def test_criterion_10_randomized_oracle():
    with criterion(10, "randomized small-instance oracle (100 ideals)"):
        rng = random.Random(2024)
        for _ in range(100):
            n = rng.randint(2, 6)
            ideal = random_ideal(rng, n)
            assert lyubeznik_table(ideal, QQ) == lyubeznik_via_strands(ideal, QQ)
            dual = alexander_dual(ideal)
            assert betti_numbers(dual, QQ) == BettiTable.from_counts(
                hochster_betti_counts(dual, QQ)
            )
