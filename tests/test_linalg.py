import random
from fractions import Fraction

import pytest

from lyub import (
    ContractError,
    ExactMatrix,
    InputError,
    QQ,
    VectorSpaceComplex,
    build_hypercube,
    homology_dims,
    kernel_basis,
    prime_field,
    rank,
)
from lyub import hypercube
from lyub.linalg import Field, cancel, homology_space, hstack, rref

from .oracles import (
    homology_space_full_rows,
    random_fraction_matrix,
    random_matrix,
    rank_naive,
    rref_naive,
    solve_matrix,
    transpose_reverse,
)

F2 = prime_field(2)
F5 = prime_field(5)

# the rank-4 level map of the height-two five-variable cycle ideal
CYCLE5_MATRIX = [
    [0, -1, -1, 0, 0],
    [1, -1, 0, 0, 0],
    [-1, 0, 0, 0, 1],
    [0, 0, 0, 1, 1],
    [0, 0, -1, 1, 0],
]


def test_prime_field_validation():
    with pytest.raises(InputError):
        prime_field(6)
    with pytest.raises(InputError):
        prime_field(1)
    assert prime_field(2).p == 2
    assert prime_field(2147483647).p == 2147483647


def test_field_is_its_characteristic():
    assert Field(3) == prime_field(3)
    assert hash(Field(3)) == hash(prime_field(3))
    assert QQ == Field(0)
    assert QQ != prime_field(2)


@pytest.mark.parametrize("make, p", [
    (Field, 1), (Field, 4), (Field, -3), (Field, 2**31), (prime_field, 0),
])
def test_field_refuses_what_is_not_a_characteristic(make, p):
    with pytest.raises(InputError):
        make(p)


def test_hypercube_cache_finds_an_equal_field(monkeypatch, a5):
    monkeypatch.setattr(hypercube, "_cache", {})
    cube = build_hypercube(a5, 2, Field(3))
    assert build_hypercube(a5, 2, prime_field(3)) is cube
    assert len(hypercube._cache) == 1


def test_entries_reduced_on_construction():
    m = ExactMatrix(QQ, 1, 2, [[Fraction(2, 4), 3]])
    assert m.dense()[0][0] == Fraction(1, 2)
    m2 = ExactMatrix(F5, 1, 2, [[7, -1]])
    assert m2.dense()[0] == [2, 4]


def test_from_entries_reduces_and_refuses_outside_entries():
    m = ExactMatrix.from_entries(F5, 2, 3, [((0, 2), 7), ((1, 0), 5), ((0, 1), -1)])
    assert m.dense() == [[0, 4, 2], [0, 0, 0]]
    assert m == ExactMatrix(F5, 2, 3, [[0, -1, 2], [0, 0, 0]])
    with pytest.raises(InputError):
        ExactMatrix.from_entries(QQ, 1, 1, [((0, 1), 1)])


def test_rank_cycle5_matrix():
    assert rank(ExactMatrix.from_rows(QQ, CYCLE5_MATRIX)) == 4


def test_rank_trivial_cases():
    assert rank(ExactMatrix.zeros(QQ, 4, 3)) == 0
    assert rank(ExactMatrix.identity(QQ, 7)) == 7
    assert rank(ExactMatrix.zeros(QQ, 0, 5)) == 0


def test_bareiss_agrees_with_naive_elimination():
    rng = random.Random(11)
    for _ in range(25):
        m = random_fraction_matrix(rng, QQ, 8, 8)
        assert rank(m) == rank_naive(m)


def test_rank_equals_rank_of_transpose():
    rng = random.Random(5)
    for field in (QQ, F2, F5):
        for _ in range(20):
            m = random_matrix(rng, field, rng.randint(0, 6), rng.randint(1, 6))
            assert rank(m) == rank(m.transpose())


def test_kernel_of_all_ones_row():
    k = kernel_basis(ExactMatrix.from_rows(QQ, [[1, 1, 1]]))
    assert k.cols == 2
    assert not any(ExactMatrix.from_rows(QQ, [[1, 1, 1]]).matmul(k).data)


def test_kernel_of_identity_is_empty():
    assert kernel_basis(ExactMatrix.identity(QQ, 4)).cols == 0


def test_kernel_random_f2():
    rng = random.Random(13)
    for _ in range(20):
        m = random_matrix(rng, F2, 6, 9, span=1)
        k = kernel_basis(m)
        assert k.cols == 9 - rank(m)
        assert not any(m.matmul(k).data)


def test_solve_matrix_inconsistent_raises():
    a = ExactMatrix.from_rows(QQ, [[1], [1]])
    b = ExactMatrix.from_rows(QQ, [[1], [2]])
    with pytest.raises(ContractError):
        solve_matrix(a, b)


def _space_with_cycles(rng, field):
    # d_out kills the columns of d_in: it factors through their left kernel
    dim = 8
    d_in = random_matrix(rng, field, dim, 3, span=3)
    left = kernel_basis(d_in.transpose()).transpose()
    d_out = random_matrix(rng, field, 2, left.rows, span=3).matmul(left)
    assert not any(d_out.matmul(d_in).data)
    if field.p:
        coeffs = random_matrix(rng, field, dim - rank(d_out), 4, span=3)
    else:
        coeffs = random_fraction_matrix(rng, field, dim - rank(d_out), 4)
    # cycles with a boundary part, so the image block is used
    cycles = kernel_basis(d_out).matmul(coeffs)
    return dim, d_out, d_in, cycles


@pytest.mark.parametrize("f", [QQ, Field(3)], ids=["q", "f3"])
def test_homology_space_classes_match_a_solve(f):
    rng = random.Random(29)
    for _ in range(12):
        dim, d_out, d_in, cycles = _space_with_cycles(rng, f)
        space, classes = homology_space(f, dim, d_out, d_in, cycles)
        assert space.dim == dim - rank(d_in) - rank(d_out)
        assert (classes.rows, classes.cols) == (space.dim, cycles.cols)
        # the reps part of the unique solution of [image | reps] x = v
        basis = hstack(f, [space.image, space.reps], dim)
        x = solve_matrix(basis, cycles).dense()[space.image.cols:]
        assert classes.dense() == x
        # the vectors change neither the image nor the representatives
        plain, none = homology_space(f, dim, d_out, d_in)
        assert (plain.image, plain.reps) == (space.image, space.reps)
        assert (none.rows, none.cols) == (space.dim, 0)


@pytest.mark.parametrize("f", [QQ, F2, Field(3)], ids=["q", "f2", "f3"])
def test_homology_space_refuses_a_vector_that_is_not_a_cycle(f):
    rng = random.Random(31)
    dim, d_out, d_in, cycles = _space_with_cycles(rng, f)
    j = next(c for c in range(dim) if any(c == k for row in d_out.data for k, _ in row))
    # the first column d_out touches is its first pivot, so the unit vector
    # there is zero at every free coordinate of d_out: only the explicit
    # d_out @ vectors test can see that it is not a cycle
    assert rref(d_out)[1][0] == j
    unit = ExactMatrix.from_entries(f, dim, 1, [((j, 0), 1)])
    for space in (homology_space, homology_space_full_rows):
        with pytest.raises(ContractError, match="inconsistent linear system"):
            space(f, dim, d_out, d_in, hstack(f, [cycles, unit], dim))


def _typed(mat):
    return mat.rows, mat.cols, [[(c, type(x), x) for c, x in row] for row in mat.data]


def _assert_same_space(got, want):
    (space, classes), (ref, ref_classes) = got, want
    assert space.dim == ref.dim
    for a, b in ((space.image, ref.image), (space.reps, ref.reps), (classes, ref_classes)):
        assert _typed(a) == _typed(b)


def _cochain_inputs(ideal, field):
    """(dim, d_out, d_in, vectors) for every degree of the cochain complex
    of every restriction of D^v: cocycle vectors, boundaries among them."""
    from lyub.cohomology import cochain_complex, restrict_cochains
    from lyub.combinatorics import full_mask, simplicial_complex

    full = full_mask(ideal.n)
    cochains = cochain_complex(simplicial_complex(full, [full ^ g for g in ideal.gens]), field)
    for alpha in range(1, full + 1):
        cc = restrict_cochains(cochains, alpha)
        for q in range(-1, len(cc.basis) - 1):
            dim, d_out, d_in = cc.space_dim(q), cc.coboundary(q), cc.coboundary(q - 1)
            ker = kernel_basis(d_out) if d_out is not None else ExactMatrix.identity(field, dim)
            sums = ExactMatrix(field, ker.cols, 2, [[1, k] for k in range(ker.cols)])
            blocks = [ker.matmul(sums)] + ([d_in] if d_in is not None else [])
            yield dim, d_out, d_in, hstack(field, blocks, dim)


@pytest.mark.parametrize("f", [QQ, F2, Field(3)], ids=["q", "f2", "f3"])
def test_homology_space_matches_the_full_row_reduction(a5, ex53, ex52, f):
    # reducing only the free coordinates of d_out gives the image, the
    # representatives and the classes of the reduction of every coordinate,
    # scalar types included
    rng = random.Random(43)
    inputs = [_space_with_cycles(rng, f) for _ in range(12)]
    for ideal in (a5, ex53, ex52):
        inputs += _cochain_inputs(ideal, f)
    fractions = 0
    for dim, d_out, d_in, vectors in inputs:
        for vecs in (vectors, None):
            got = homology_space(f, dim, d_out, d_in, vecs)
            _assert_same_space(got, homology_space_full_rows(f, dim, d_out, d_in, vecs))
        fractions += any(type(x) is Fraction for row in vectors.data for _, x in row)
    assert bool(fractions) == (f == QQ)


def test_homology_space_without_maps_keeps_every_vector():
    v = ExactMatrix.from_rows(QQ, [[1, Fraction(1, 2)], [0, 3]])
    space, classes = homology_space(QQ, 2, None, None, v)
    assert space.reps == ExactMatrix.identity(QQ, 2)
    assert space.image.cols == 0
    assert classes == v


def test_induced_cohomology_map_is_the_classes_of_one_homology_space(monkeypatch, a5):
    from lyub import cohomology, restriction, stanley_reisner

    from .oracles import complex_alexander_dual, induced_cohomology_map

    (alpha, i), edge = next(iter(build_hypercube(a5, 2, QQ).edge_mats.items()))
    calls = []
    original = cohomology.homology_space

    def spy(*args):
        out = original(*args)
        calls.append((args[4], out))
        return out

    monkeypatch.setattr(cohomology, "homology_space", spy)
    dual = complex_alexander_dual(stanley_reisner(a5))
    small, big = restriction(dual, alpha), restriction(dual, alpha | 1 << i)
    induced = induced_cohomology_map(small, big, 0, QQ)
    # the big space alone, then the small one with the restricted big reps
    assert [vectors is None for vectors, _ in calls] == [True, False]
    assert induced is calls[1][1][1]
    assert induced.transpose() == edge
    assert any(induced.data)


def _cycle_complex(field):
    # 0 <- k <- k^3 <- k <- 0 with maps (1 1 1) and (-1, 1, 0)^T
    m0 = ExactMatrix.from_rows(field, [[1, 1, 1]])
    m1 = ExactMatrix(field, 3, 1, [[-1], [1], [0]])
    return VectorSpaceComplex(field, (1, 3, 1), (m0, m1))


def test_homology_dims_paper_complex():
    assert homology_dims(_cycle_complex(QQ)) == [0, 1, 0]
    assert homology_dims(_cycle_complex(F2)) == [0, 1, 0]


def test_homology_dims_zero_maps_and_iso():
    cx = VectorSpaceComplex(QQ, (2, 3), (ExactMatrix.zeros(QQ, 2, 3),))
    assert homology_dims(cx) == [2, 3]
    iso = VectorSpaceComplex(QQ, (1, 1), (ExactMatrix.identity(QQ, 1),))
    assert homology_dims(iso) == [0, 0]


def test_composability_checked():
    good = ExactMatrix.identity(QQ, 2)
    with pytest.raises(ContractError):
        VectorSpaceComplex(QQ, (2, 2, 2), (good, good))


def test_euler_characteristic_matches_homology():
    rng = random.Random(19)
    for _ in range(15):
        cx = _random_complex(rng, QQ)
        h = homology_dims(cx)
        assert sum((-1) ** p * d for p, d in enumerate(cx.dims)) == sum(
            (-1) ** p * v for p, v in enumerate(h)
        )


def _random_complex(rng, field, maxdim=5, length=4):
    # build a valid complex as a composition of projections/inclusions:
    # d_p = B_p @ C_{p+1} with C_{p+1} @ B_{p+1} = 0 via kernel factor
    dims = [rng.randint(0, maxdim) for _ in range(length)]
    maps = []
    prev_kernel = None
    for p in range(length - 1):
        raw = random_matrix(rng, field, dims[p], dims[p + 1], span=2)
        if prev_kernel is not None:
            # force composability: post-compose with projection onto the
            # kernel of the previous map
            k = prev_kernel
            raw = k.matmul(random_matrix(rng, field, k.cols, dims[p + 1], span=2))
        maps.append(raw)
        prev_kernel = kernel_basis(raw)
    return VectorSpaceComplex(field, tuple(dims), tuple(maps))


def test_transpose_reverse_mirrors_homology():
    rng = random.Random(23)
    for field in (QQ, F2):
        for _ in range(12):
            cx = _random_complex(rng, field)
            h = homology_dims(cx)
            hr = homology_dims(transpose_reverse(cx))
            assert hr == list(reversed(h))


def _sparse_int_rows(rng, rows, cols):
    density = rng.choice((0.1, 0.25, 0.5))
    return [
        [rng.randint(-3, 3) if rng.random() < density else 0 for _ in range(cols)]
        for _ in range(rows)
    ]


def _assert_reduced_echelon(field, red, pivots):
    assert pivots == sorted(set(pivots))
    rows = red.dense()
    for t, row in enumerate(rows):
        if t >= len(pivots):
            assert all(field.is_zero(x) for x in row)
            continue
        pc = pivots[t]
        assert all(field.is_zero(x) for x in row[:pc])
        assert row[pc] == 1
        for u, other in enumerate(rows):
            if u != t:
                assert field.is_zero(other[pc])


def test_sparse_engine_cross_check():
    # seeded sparse integer matrices with entries in -3..3: non-unit pivots
    # and rank drops mod 2 both occur
    rng = random.Random(29)
    rank_drops = 0
    for _ in range(40):
        rows, cols = rng.randint(1, 30), rng.randint(1, 30)
        int_rows = _sparse_int_rows(rng, rows, cols)
        ranks = {}
        for field in (QQ, F2, F5):
            m = ExactMatrix(field, rows, cols, int_rows)
            r = rank(m)
            assert r == rank_naive(m)
            ranks[field.name()] = r

            red, pivots = rref(m)
            _assert_reduced_echelon(field, red, pivots)
            # exactly dense Gauss-Jordan's rows, ints and Fractions alike
            naive, naive_pivots = rref_naive(m)
            assert pivots == naive_pivots
            assert [[(type(x), x) for x in row] for row in red.dense()] == [
                [(type(x), x) for x in row] for row in naive
            ]
            assert len(pivots) == r
            # the reduced rows span the row space of m
            assert rank_naive(ExactMatrix.from_rows(field, m.dense() + red.dense())) == r
            prefix = [rank(ExactMatrix(field, rows, c, [row[:c] for row in m.dense()]))
                      for c in range(cols + 1)]
            assert pivots == [c for c in range(cols) if prefix[c + 1] > prefix[c]]

            k = kernel_basis(m)
            assert k.rows == cols and k.cols == cols - r
            assert not any(m.matmul(k).data)
            assert rank_naive(k) == k.cols
        rank_drops += ranks["F2"] < ranks["Q"]
    assert rank_drops


def test_cancel_pivots_only_where_eligible():
    # row 1 starts with no eligible entry; eliminating row 0 gives it one.
    # Row 2 never has one and stays as it is.
    rows = [{0: 1, 1: 1}, {0: 1}, {2: 5}]
    accepted = {(0, 0), (1, 1)}
    pivots, factors = cancel(rows, 0, lambda r, c: (r, c) in accepted)
    assert pivots == [(0, 0), (1, 1)]
    assert rows[1] == {1: -1} and rows[2] == {2: 5}
    assert factors == {}
    # without a rule every row pivots, as in rank
    pivots, _ = cancel([{0: 1, 1: 1}, {0: 1}, {2: 5}], 0)
    mat = ExactMatrix.from_rows(QQ, [[1, 1, 0], [1, 0, 0], [0, 0, 5]])
    assert len(pivots) == 3 == rank(mat=mat)


@pytest.mark.parametrize("p", [0, 2, 5])
def test_cancel_leaves_scaled_schur_rows(p):
    # Against plain field elimination in the same pivot order: every row
    # left is its factor times the reference row, and none has an eligible
    # entry.
    rng = random.Random(41 + p)
    scaled = 0
    for _ in range(30):
        nrows, ncols = rng.randint(1, 12), rng.randint(1, 12)
        dense = _sparse_int_rows(rng, nrows, ncols)
        if p:
            dense = [[v % p for v in row] for row in dense]
        rows = [{c: v for c, v in enumerate(row) if v} for row in dense]
        banned = {(r, c) for r in range(nrows) for c in range(ncols) if rng.random() < 0.4}

        def eligible(r, c):
            return (r, c) not in banned

        pivots, factors = cancel(rows, p, eligible)
        assert all(eligible(r, c) for r, c in pivots)
        ref = [[Fraction(v) for v in row] for row in dense]
        done = set()
        for r, c in pivots:
            done.add(r)
            for k in range(nrows):
                if k not in done and ref[k][c]:
                    t = ref[k][c] / ref[r][c]
                    ref[k] = [x - t * y for x, y in zip(ref[k], ref[r])]
        for k in range(nrows):
            if k in done:
                continue
            want = [x * factors.get(k, 1) for x in ref[k]]
            if p:
                want = [Field(p).coerce(x) for x in want]
            assert [rows[k].get(c, 0) for c in range(ncols)] == want
            assert not any(eligible(k, c) for c in rows[k])
        scaled += len(factors)
    assert bool(scaled) == (p == 0)
