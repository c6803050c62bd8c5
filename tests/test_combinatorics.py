import random

import pytest

from lyub import (
    DomainError,
    InputError,
    alexander_dual,
    intersect_face_ideals,
    link,
    minimal_primes,
    minimalize,
    restriction,
    simplicial_complex,
    stanley_reisner,
)
from lyub.combinatorics import MonomialIdeal, full_mask, mask_of, popcount

from .conftest import cycle_nonedge_ideal, gens_ideal, primes_ideal, rp2_ideal
from .oracles import (
    brute_complex_dual_faces,
    brute_intersection_gens,
    brute_minimal_primes,
    brute_sr_faces,
    complex_alexander_dual,
    ideal_of,
    masks,
    random_ideal,
)


def test_minimalize_absorbs_divisible():
    ideal = gens_ideal(4, [[1, 2], [1, 2, 3], [3, 4]])
    assert ideal == gens_ideal(4, [[1, 2], [3, 4]])
    assert minimalize(2, masks([1], [1, 2])) == minimalize(2, masks([1]))


def test_minimalize_matches_brute_intersection():
    primes = masks([1, 3], [2, 4])
    members = brute_intersection_gens(4, primes)
    assert minimalize(4, members) == intersect_face_ideals(4, primes)


def test_minimalize_rejects_oversized_mask():
    with pytest.raises(InputError):
        minimalize(3, [0b1000])
    with pytest.raises(InputError):
        minimalize(30, [1])


def test_intersect_face_ideals_a4():
    a4 = primes_ideal(4, [[1, 3], [2, 4]])
    # canonical order: popcount, then numeric mask value
    assert a4.gens == tuple(masks([1, 2], [2, 3], [1, 4], [3, 4]))
    assert set(a4.gens) == set(masks([1, 2], [1, 4], [2, 3], [3, 4]))


def test_intersect_face_ideals_a5_brute():
    comp = masks([1, 3], [1, 4], [2, 4], [2, 5], [3, 5])
    a5 = intersect_face_ideals(5, comp)
    assert list(a5.gens) == brute_intersection_gens(5, comp)
    # five cubic generators: the complements of the edges of the 5-cycle
    assert [popcount(g) for g in a5.gens] == [3] * 5


def test_intersect_single_prime():
    assert intersect_face_ideals(2, masks([1, 2])).gens == tuple(masks([1], [2]))


def test_minimal_primes_examples(a4, ex46):
    assert minimal_primes(a4) == masks([1, 3], [2, 4])
    assert minimal_primes(gens_ideal(1, [[1]])) == masks([1])
    assert minimal_primes(ex46) == brute_minimal_primes(ex46)


def test_minimal_primes_rejects_degenerate():
    with pytest.raises(DomainError):
        minimal_primes(MonomialIdeal(3, ()))
    with pytest.raises(DomainError):
        minimal_primes(MonomialIdeal(3, (0,)))


def test_alexander_dual_examples(a4, a5):
    assert alexander_dual(a4).gens == tuple(masks([1, 3], [2, 4]))
    assert alexander_dual(gens_ideal(2, [[1], [2]])).gens == tuple(masks([1, 2]))
    assert alexander_dual(a5).gens == tuple(
        masks([1, 3], [1, 4], [2, 4], [2, 5], [3, 5])
    )


def test_alexander_dual_involution_corpus_and_random(a4, a5, ex46):
    for ideal in (a4, a5, ex46, rp2_ideal()):
        assert alexander_dual(alexander_dual(ideal)) == ideal
    rng = random.Random(7)
    for _ in range(60):
        ideal = random_ideal(rng, rng.randint(1, 8))
        assert alexander_dual(alexander_dual(ideal)) == ideal


def test_stanley_reisner_a4_is_two_disjoint_edges(a4):
    cx = stanley_reisner(a4)
    assert cx.facets == tuple(masks([1, 3], [2, 4]))
    assert cx.faces() == brute_sr_faces(a4)


def test_stanley_reisner_principal_and_maximal():
    two_points = stanley_reisner(gens_ideal(2, [[1, 2]]))
    assert two_points.facets == tuple(masks([1], [2]))
    irrelevant = stanley_reisner(gens_ideal(2, [[1], [2]]))
    assert irrelevant.facets == (0,)


def test_ideal_of_round_trip(a4, a5, ex46):
    rng = random.Random(21)
    ideals = [a4, a5, ex46] + [random_ideal(rng, rng.randint(1, 7)) for _ in range(40)]
    for ideal in ideals:
        assert ideal_of(stanley_reisner(ideal)) == ideal


def test_minimal_primes_equal_dual_generators(a5, ex53):
    for ideal in (a5, ex53):
        assert minimal_primes(ideal) == list(alexander_dual(ideal).gens)


FOUR_CYCLE = simplicial_complex(
    full_mask(4), masks([1, 2], [2, 3], [3, 4], [1, 4])
)


def test_restriction_of_four_cycle():
    edge = restriction(FOUR_CYCLE, mask_of([0, 1]))
    assert edge.facets == (mask_of([0, 1]),)
    two_points = restriction(FOUR_CYCLE, mask_of([0, 2]))
    assert two_points.facets == tuple(masks([1], [3]))
    empty = restriction(FOUR_CYCLE, 0)
    assert empty.facets == (0,)
    from lyub.combinatorics import void_complex

    assert restriction(void_complex(full_mask(4)), 0).is_void
    with pytest.raises(InputError):
        restriction(simplicial_complex(0b11, [0b11]), 0b100)


def test_link_of_four_cycle():
    lk = link(FOUR_CYCLE, mask_of([0]))
    assert lk.facets == tuple(masks([2], [4]))
    assert link(FOUR_CYCLE, 0) == FOUR_CYCLE
    assert link(FOUR_CYCLE, mask_of([0, 2])).is_void


def test_complex_alexander_dual_conventions():
    two_points = simplicial_complex(0b11, [0b01, 0b10])
    # fixed points of the dual on two vertices are impossible: {∅} and the
    # two points swap
    assert complex_alexander_dual(two_points).facets == (0,)
    irrelevant = simplicial_complex(0b111, [0])
    boundary = complex_alexander_dual(irrelevant)
    assert boundary.facets == tuple(masks([1, 2], [1, 3], [2, 3]))
    from lyub.combinatorics import full_simplex

    assert complex_alexander_dual(full_simplex(0b111)).is_void


def test_complex_alexander_dual_matches_brute_and_involutes():
    rng = random.Random(3)
    for _ in range(60):
        n = rng.randint(1, 6)
        v = full_mask(n)
        count = rng.randint(0, 5)
        cx = simplicial_complex(
            v, [rng.randint(0, v) for _ in range(count)]
        )
        dual = complex_alexander_dual(cx)
        assert dual.faces() == brute_complex_dual_faces(cx)
        assert complex_alexander_dual(dual) == cx


def test_link_dual_equals_restricted_dual(a4, a5, ex57):
    # (link_a D)^v = D^v restricted to the complementary vertices
    for ideal in (a4, a5, ex57):
        delta = stanley_reisner(ideal)
        dual = complex_alexander_dual(delta)
        full = full_mask(ideal.n)
        for alpha in range(full + 1):
            left = complex_alexander_dual(link(delta, alpha))
            right = restriction(dual, full ^ alpha)
            assert left == right


def test_height_and_dim(a4, a5, ex52):
    assert a4.height() == 2 and a4.dim_quotient() == 2
    assert a5.height() == 2 and a5.dim_quotient() == 3
    assert ex52.height() == 2 and ex52.dim_quotient() == 7


def test_a6_a7_generators_match_brute():
    for n in (6, 7):
        ideal = cycle_nonedge_ideal(n)
        comps = [
            mask_of([i - 1, j - 1])
            for i in range(1, n)
            for j in range(i + 2, n + 1)
            if not (i == 1 and j == n)
        ]
        assert list(ideal.gens) == brute_intersection_gens(n, comps)


def test_constructor_canonicalizes_generators():
    ideal = MonomialIdeal(3, (3, 1))
    assert ideal.gens == (1,)
    assert ideal == minimalize(3, [3, 1])
    assert alexander_dual(alexander_dual(ideal)) == ideal
    assert MonomialIdeal(3, (6, 1, 3)) == MonomialIdeal(3, (1, 6))
    with pytest.raises(InputError):
        MonomialIdeal(3, (8,))
