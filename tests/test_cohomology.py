import random

import pytest

from lyub import (
    InputError,
    QQ,
    induced_cohomology_map,
    prime_field,
    reduced_cohomology_dim,
    reduced_homology_dim,
    stanley_reisner,
)
from lyub.cohomology import cochain_complex, reduced_cohomology_dims_all
from lyub.combinatorics import (
    full_mask,
    full_simplex,
    restriction,
    simplicial_complex,
    void_complex,
)

from .conftest import rp2_ideal
from .oracles import masks, random_ideal

F2 = prime_field(2)


def _complex(n, *lists):
    return simplicial_complex(full_mask(n), masks(*lists))


TWO_POINTS = _complex(2, [1], [2])
HOLLOW_TRIANGLE = _complex(3, [1, 2], [1, 3], [2, 3])
FOUR_CYCLE = _complex(4, [1, 2], [2, 3], [3, 4], [1, 4])


def test_basic_conventions():
    assert reduced_cohomology_dim(TWO_POINTS, 0, QQ) == 1
    assert reduced_cohomology_dim(HOLLOW_TRIANGLE, 1, QQ) == 1
    assert reduced_cohomology_dim(HOLLOW_TRIANGLE, 0, QQ) == 0
    void = void_complex(0b111)
    for q in (-2, -1, 0, 1):
        assert reduced_cohomology_dim(void, q, QQ) == 0
    irrelevant = simplicial_complex(0b11, [0])
    assert reduced_cohomology_dim(irrelevant, -1, QQ) == 1
    assert reduced_cohomology_dim(irrelevant, 0, QQ) == 0
    assert reduced_cohomology_dim(FOUR_CYCLE, -2, QQ) == 0
    assert reduced_cohomology_dim(full_simplex(0b1111), 1, QQ) == 0
    with pytest.raises(InputError):
        reduced_cohomology_dim(FOUR_CYCLE, -3, QQ)


def test_projective_plane_depends_on_characteristic():
    cx = stanley_reisner(rp2_ideal())
    assert reduced_cohomology_dim(cx, 1, QQ) == 0
    assert reduced_cohomology_dim(cx, 1, F2) == 1
    assert reduced_cohomology_dim(cx, 2, QQ) == 0
    assert reduced_cohomology_dim(cx, 2, F2) == 1


def test_cochain_complex_squares_to_zero_and_dims():
    cc = cochain_complex(FOUR_CYCLE, QQ)
    assert [len(b) for b in cc.basis] == [1, 4, 4]
    dims = reduced_cohomology_dims_all(FOUR_CYCLE, QQ)
    assert dims == {1: 1}


def test_chain_and_cochain_dims_agree():
    rng = random.Random(31)
    complexes = [TWO_POINTS, HOLLOW_TRIANGLE, FOUR_CYCLE, stanley_reisner(rp2_ideal())]
    for _ in range(20):
        ideal = random_ideal(rng, rng.randint(1, 6))
        complexes.append(stanley_reisner(ideal))
    for cx in complexes:
        for field in (QQ, F2):
            for q in range(-1, 5):
                assert reduced_cohomology_dim(cx, q, field) == reduced_homology_dim(
                    cx, q, field
                )


def test_induced_map_identity_and_zero_cases():
    m = induced_cohomology_map(FOUR_CYCLE, FOUR_CYCLE, 1, QQ)
    assert m.rows == m.cols == 1 and m.dense()[0][0] == 1
    point = _complex(3, [1])
    cone = _complex(3, [1, 2], [1, 3])
    z = induced_cohomology_map(point, cone, 0, QQ)
    assert z.rows == 0 and z.cols == 0


def test_induced_map_functoriality():
    # point pair inside path inside cycle; composite equals product
    small = _complex(4, [1], [3])
    mid = _complex(4, [1, 2], [2, 3])
    big = FOUR_CYCLE
    f_ms = induced_cohomology_map(small, mid, 0, QQ)
    f_bm = induced_cohomology_map(mid, big, 0, QQ)
    f_bs = induced_cohomology_map(small, big, 0, QQ)
    assert f_ms.matmul(f_bm) == f_bs


def test_induced_map_random_functoriality():
    rng = random.Random(47)
    for _ in range(25):
        ideal = random_ideal(rng, 5)
        big = stanley_reisner(ideal)
        full = full_mask(5)
        a = rng.randint(0, full)
        b = a & rng.randint(0, full)
        mid = restriction(big, a)
        small = restriction(big, b)
        for field in (QQ, F2):
            for q in (-1, 0, 1):
                f_ms = induced_cohomology_map(small, mid, q, field)
                f_bm = induced_cohomology_map(mid, big, q, field)
                f_bs = induced_cohomology_map(small, big, q, field)
                assert f_ms.matmul(f_bm) == f_bs
