import pytest

from lyub import QQ, intersect_face_ideals, minimalize, prime_field
from lyub.combinatorics import mask_of

F2 = prime_field(2)


def primes_ideal(n, lists):
    return intersect_face_ideals(n, [mask_of(i - 1 for i in L) for L in lists])


def gens_ideal(n, lists):
    return minimalize(n, [mask_of(i - 1 for i in L) for L in lists])


def tiny_ideals(count):
    """``count`` distinct ideals (x_i, x_j x_k) in seven variables, for
    filling a cache (at most 105)."""
    return [
        gens_ideal(7, [[i], [j, k]])
        for i in range(1, 8) for j in range(1, 8) for k in range(j + 1, 8)
        if i not in (j, k)
    ][:count]


def cycle_nonedge_ideal(n):
    """Intersection of (x_i, x_j) over the non-edges of the n-cycle: the
    unique minimal non-CM squarefree ideal of pure height two."""
    comps = [
        [i, j]
        for i in range(1, n)
        for j in range(i + 2, n + 1)
        if not (i == 1 and j == n)
    ]
    return primes_ideal(n, comps)


def rp2_ideal():
    """Stanley-Reisner ideal of the 6-vertex triangulation of RP^2."""
    return gens_ideal(
        6,
        [
            [1, 2, 3], [1, 2, 4], [1, 3, 5], [2, 4, 5], [3, 4, 5],
            [2, 3, 6], [1, 4, 6], [3, 4, 6], [1, 5, 6], [2, 5, 6],
        ],
    )


def nine_vars_ideal():
    """Twelve height-two components in nine variables; H^r != 0 for
    r = 2..5 yet the Lyubeznik table is trivial."""
    comps = [[1, 2], [3, 4], [5, 6], [7, 8]] + [[9, j] for j in range(1, 9)]
    return primes_ideal(9, comps)


def ten_vars_ideal():
    """Fourteen height-three components in ten variables; the Alexander
    dual complex has dimension 6, so a restriction's cochain complex has
    up to seven coboundaries."""
    comps = [
        [1, 2, 4], [1, 3, 9], [1, 5, 8], [1, 6, 8], [1, 7, 9], [1, 9, 10], [2, 4, 10],
        [2, 5, 9], [3, 4, 10], [3, 5, 9], [4, 6, 10], [4, 8, 10], [6, 7, 9], [7, 8, 10],
    ]
    return primes_ideal(10, comps)


def three_component_ideal():
    """(x1,x2,x5) ∩ (x3,x4,x5) ∩ (x1,x2,x3,x4)."""
    return primes_ideal(5, [[1, 2, 5], [3, 4, 5], [1, 2, 3, 4]])


def small_supp_ideal():
    """(x1,x4) ∩ (x2,x5) ∩ (x1,x2,x3): small support strictly below Supp."""
    return primes_ideal(5, [[1, 4], [2, 5], [1, 2, 3]])


@pytest.fixture(scope="session")
def a4():
    return cycle_nonedge_ideal(4)


@pytest.fixture(scope="session")
def a5():
    return cycle_nonedge_ideal(5)


@pytest.fixture(scope="session")
def a6():
    return cycle_nonedge_ideal(6)


@pytest.fixture(scope="session")
def a7():
    return cycle_nonedge_ideal(7)


@pytest.fixture(scope="session")
def a8():
    return cycle_nonedge_ideal(8)


@pytest.fixture(scope="session")
def ex46():
    return rp2_ideal()


@pytest.fixture(scope="session")
def ex52():
    return nine_vars_ideal()


@pytest.fixture(scope="session")
def ex53():
    return three_component_ideal()


@pytest.fixture(scope="session")
def ex57():
    return small_supp_ideal()


@pytest.fixture(scope="session", params=["q", "f2"])
def field(request):
    return QQ if request.param == "q" else F2
