import random
import re
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
    prime_field,
    rank,
)
from lyub import hypercube, linalg
from lyub.cohomology import cochain_complex
from lyub.combinatorics import alexander_dual, full_mask, link, stanley_reisner
from lyub.linalg import (
    Field,
    cancel,
    complex_ranks,
    homology_classes,
    homology_from_ranks,
    homology_space,
    product_is_zero,
    rref,
)
from lyub.resolution import strand_frame

from .oracles import (
    from_rows,
    homology_space_full_rows,
    hstack,
    kernel_basis,
    matmul,
    random_fraction_matrix,
    random_matrix,
    rank_naive,
    rref_naive,
    solve_homology,
    solve_matrix,
    transpose_reverse,
)

F2 = prime_field(2)
F3 = prime_field(3)
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


def test_hypercube_cache_finds_an_equal_field(a5):
    cached = hypercube._build_all_degrees
    cached.cache_clear()
    cube = build_hypercube(a5, 2, Field(3))
    assert build_hypercube(a5, 2, prime_field(3)) is cube
    info = cached.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 1)


def test_entries_reduced_on_construction():
    m = ExactMatrix(QQ, 1, 2, [[Fraction(2, 4), 3]])
    assert m.dense()[0][0] == Fraction(1, 2)
    m2 = ExactMatrix(F5, 1, 2, [[7, -1]])
    assert m2.dense()[0] == [2, 4]


def test_coerce_reads_every_other_scalar_as_a_fraction():
    f3 = prime_field(3)
    # 1/2 = 2 in F_3; a bool is the int it equals
    m = ExactMatrix(f3, 1, 5, [[0.5, 2, True, False, Fraction(5, 4)]])
    assert m.data[0] == ((0, 2), (1, 2), (2, 1), (4, 2))
    assert all(type(x) is int for _, x in m.data[0])
    assert rank(m) == 1
    assert ExactMatrix(QQ, 1, 2, [[0.5, True]]).data[0] == ((0, Fraction(1, 2)), (1, 1))
    assert f3.coerce(0.25) == 1  # 1/4 = 1 in F_3
    with pytest.raises(ZeroDivisionError):
        f3.coerce(Fraction(1, 3))


def _select_dense(mat, rows, cols, odd):
    """The dense oracle of ``mat.select``: the submatrix by indexing, then
    each entry negated where the parities of its row and column differ."""
    full = mat.dense()
    sub = [[full[i][j] for j in cols] for i in rows]
    if odd is not None:
        sub = [
            [-x if a != b else x for x, b in zip(row, odd[1])]
            for row, a in zip(sub, odd[0])
        ]
    return ExactMatrix(mat.field, len(rows), len(cols), sub)


def _increasing_subset(rng, n):
    return sorted(rng.sample(range(n), rng.randint(0, n)))


@pytest.mark.parametrize("f", [QQ, F2, prime_field(3)], ids=["q", "f2", "f3"])
def test_select_matches_a_dense_oracle(f):
    rng = random.Random(19)
    dropped = 0
    for _ in range(200):
        mat = random_matrix(rng, f, rng.randint(0, 6), rng.randint(0, 6), span=3)
        rows = _increasing_subset(rng, mat.rows)
        cols = _increasing_subset(rng, mat.cols)
        twists = [None, ([rng.randint(0, 1) for _ in rows], [rng.randint(0, 1) for _ in cols])]
        for odd in twists:
            got = mat.select(rows, cols, odd)
            assert got == _select_dense(mat, rows, cols, odd)
            assert (got.rows, got.cols) == (len(rows), len(cols))
        dropped += sum(1 for i in rows for j, _ in mat.data[i] if j not in cols)
    assert dropped  # entries outside cols were met, and left out
    mat = ExactMatrix(f, 2, 3, [[1, 0, 1], [0, 1, 1]])
    assert mat.select([], [0, 2]) == ExactMatrix(f, 0, 2)
    assert mat.select([0, 1], []) == ExactMatrix(f, 2, 0)
    assert mat.select(range(2), [1, 2], ([0, 1], [1, 1])).dense() == [
        [0, f.neg(1)], [1, 1]
    ]


def test_from_entries_reduces_and_refuses_outside_entries():
    m = ExactMatrix.from_entries(F5, 2, 3, [((0, 2), 7), ((1, 0), 5), ((0, 1), -1)])
    assert m.dense() == [[0, 4, 2], [0, 0, 0]]
    assert m == ExactMatrix(F5, 2, 3, [[0, -1, 2], [0, 0, 0]])
    with pytest.raises(InputError):
        ExactMatrix.from_entries(QQ, 1, 1, [((0, 1), 1)])


def test_rank_cycle5_matrix():
    assert rank(from_rows(QQ, CYCLE5_MATRIX)) == 4


def test_rank_trivial_cases():
    assert rank(ExactMatrix(QQ, 4, 3)) == 0
    assert rank(ExactMatrix.identity(QQ, 7)) == 7
    assert rank(ExactMatrix(QQ, 0, 5)) == 0


@pytest.mark.parametrize("field", [QQ, F2, prime_field(3)], ids=["q", "f2", "f3"])
def test_rank_of_rows_with_at_most_one_entry_needs_no_elimination(monkeypatch, field):
    # zero rows, repeated columns and (over Q) fractions; ``_eliminate`` is
    # gone, so every rank here is counted without elimination
    monkeypatch.setattr(linalg, "_eliminate", None)
    values = list(range(-4, 5))
    if not field.p:
        values += [Fraction(1, 3), Fraction(-5, 2)]
    rng = random.Random(23)
    for _ in range(300):
        rows, cols = rng.randint(0, 7), rng.randint(0, 5)
        entries = [
            ((r, rng.randrange(cols)), field.coerce(rng.choice(values)))
            for r in range(rows)
            if cols and rng.random() < 0.8
        ]
        m = ExactMatrix.from_entries(field, rows, cols, entries)
        assert rank(m) == rank_naive(m)


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
    k = kernel_basis(from_rows(QQ, [[1, 1, 1]]))
    assert k.cols == 2
    assert not any(matmul(from_rows(QQ, [[1, 1, 1]]), k).data)


def test_kernel_of_identity_is_empty():
    assert kernel_basis(ExactMatrix.identity(QQ, 4)).cols == 0


def test_kernel_random_f2():
    rng = random.Random(13)
    for _ in range(20):
        m = random_matrix(rng, F2, 6, 9, span=1)
        k = kernel_basis(m)
        assert k.cols == 9 - rank(m)
        assert not any(matmul(m, k).data)


def test_solve_matrix_inconsistent_raises():
    a = from_rows(QQ, [[1], [1]])
    b = from_rows(QQ, [[1], [2]])
    with pytest.raises(ContractError):
        solve_matrix(a, b)


def _space_with_cycles(rng, field):
    # d_out kills the columns of d_in: it factors through their left kernel
    dim = 8
    d_in = random_matrix(rng, field, dim, 3, span=3)
    left = kernel_basis(d_in.transpose()).transpose()
    d_out = matmul(random_matrix(rng, field, 2, left.rows, span=3), left)
    assert not any(matmul(d_out, d_in).data)
    if field.p:
        coeffs = random_matrix(rng, field, dim - rank(d_out), 4, span=3)
    else:
        coeffs = random_fraction_matrix(rng, field, dim - rank(d_out), 4)
    # cycles with a boundary part, so the image block is used
    cycles = matmul(kernel_basis(d_out), coeffs)
    return dim, d_out, d_in, cycles


def _space(vectors, d_in, reduced):
    """(reps, classes): the homology at the space of vectors' rows, and
    the classes of vectors' columns through its projection."""
    reps, proj = homology_space(vectors.field, vectors.rows, d_in, reduced)
    return reps, homology_classes(vectors, reduced, proj)


@pytest.mark.parametrize("f", [QQ, Field(3)], ids=["q", "f3"])
def test_homology_space_classes_match_a_solve(f):
    rng = random.Random(29)
    for _ in range(12):
        dim, d_out, d_in, cycles = _space_with_cycles(rng, f)
        reps, classes = _space(cycles, d_in, rref(d_out))
        assert reps.cols == dim - rank(d_in) - rank(d_out)
        assert (classes.rows, classes.cols) == (reps.cols, cycles.cols)
        # the reps part of the unique solution of [image | reps] x = v
        image = d_in.select(range(dim), rref(d_in)[1])
        basis = hstack(f, [image, reps], dim)
        x = solve_matrix(basis, cycles).dense()[image.cols:]
        assert classes.dense() == x
        # the vectors do not change the representatives
        plain, none = _space(ExactMatrix(f, dim, 0), d_in, rref(d_out))
        assert plain == reps
        assert (none.rows, none.cols) == (reps.cols, 0)


@pytest.mark.parametrize("f", [QQ, F2, Field(3)], ids=["q", "f2", "f3"])
def test_homology_space_refuses_a_vector_that_is_not_a_cycle(f):
    rng = random.Random(31)
    dim, d_out, d_in, cycles = _space_with_cycles(rng, f)
    j = next(c for c in range(dim) if any(c == k for row in d_out.data for k, _ in row))
    # the first column d_out touches is its first pivot, so the unit vector
    # there is zero at every free coordinate of d_out: only the explicit
    # test against d_out's reduced rows can see that it is not a cycle
    assert rref(d_out)[1][0] == j
    unit = ExactMatrix.from_entries(f, dim, 1, [((j, 0), 1)])
    vectors = hstack(f, [cycles, unit], dim)
    with pytest.raises(ContractError, match="inconsistent linear system"):
        homology_space_full_rows(f, dim, d_out, d_in, vectors)
    with pytest.raises(ContractError, match="inconsistent linear system"):
        _space(vectors, d_in, rref(d_out))


@pytest.mark.parametrize("wrong", ["vectors", "d_in", "reduced"])
def test_homology_space_refuses_a_shape_off_the_space(wrong):
    # d_in's rows, the reduced d_out's columns and, for the classes, the
    # vectors' rows must match the space
    rng = random.Random(37)
    dim, d_out, d_in, cycles = _space_with_cycles(rng, QQ)
    args = {"vectors": cycles, "d_in": d_in, "reduced": rref(d_out)}
    _space(**args)
    short = {
        "vectors": cycles.select(range(dim - 1), range(cycles.cols)),
        "d_in": d_in.select(range(dim - 1), range(d_in.cols)),
        "reduced": rref(d_out.select(range(d_out.rows), range(dim - 1))),
    }
    args[wrong] = short[wrong]
    with pytest.raises(InputError, match=f"{dim - 1} (rows|columns), the space {dim}$"):
        _, proj = homology_space(QQ, dim, args["d_in"], args["reduced"])
        homology_classes(args["vectors"], args["reduced"], proj)


def _typed(mat):
    return mat.rows, mat.cols, [[(c, type(x), x) for c, x in row] for row in mat.data]


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
            blocks = [matmul(ker, sums)] + ([d_in] if d_in is not None else [])
            yield dim, d_out, d_in, hstack(field, blocks, dim)


@pytest.mark.parametrize("f", [QQ, F2, Field(3)], ids=["q", "f2", "f3"])
def test_homology_space_matches_the_full_row_reduction(a5, ex53, ex52, f):
    # reducing only the free coordinates of d_out gives the representatives
    # and the classes of the reduction of every coordinate, scalar types
    # included
    rng = random.Random(43)
    inputs = [_space_with_cycles(rng, f) for _ in range(12)]
    for ideal in (a5, ex53, ex52):
        inputs += _cochain_inputs(ideal, f)
    fractions = 0
    for dim, d_out, d_in, vectors in inputs:
        reduced = None if d_out is None else rref(d_out)
        for vecs in (vectors, ExactMatrix(f, dim, 0)):
            got = _space(vecs, d_in, reduced)
            want = homology_space_full_rows(f, dim, d_out, d_in, vecs)
            assert list(map(_typed, got)) == list(map(_typed, want))
        fractions += any(type(x) is Fraction for row in vectors.data for _, x in row)
    assert bool(fractions) == (f == QQ)


@pytest.mark.parametrize("f", [QQ, F2, Field(3)], ids=["q", "f2", "f3"])
def test_classes_are_the_projection_of_the_cycles(a5, ex53, ex52, f):
    # proj lives on the free columns of d_out, depends on no vectors, and
    # proj v is the class that reducing v along with the space gives, as
    # the full-row reduction and the one solve per call give it, with types
    rng = random.Random(43)
    inputs = [_space_with_cycles(rng, f) for _ in range(12)]
    for ideal in (a5, ex53, ex52):
        inputs += _cochain_inputs(ideal, f)
    fractions = 0
    for dim, d_out, d_in, vectors in inputs:
        reduced = None if d_out is None else rref(d_out)
        reps, proj = homology_space(f, dim, d_in, reduced)
        assert (proj.rows, proj.cols) == (reps.cols, dim)
        pivots = set(() if reduced is None else reduced[1])
        assert not any(c in pivots for row in proj.data for c, _ in row)
        got = homology_classes(vectors, reduced, proj)
        assert _typed(got) == _typed(matmul(proj, vectors))
        assert _typed(got) == _typed(homology_space_full_rows(f, dim, d_out, d_in, vectors)[1])
        assert list(map(_typed, (reps, got))) == list(map(_typed, solve_homology(vectors, d_in, reduced)))
        fractions += any(type(x) is Fraction for row in got.data for _, x in row)
    assert bool(fractions) == (f == QQ)


def test_homology_space_without_maps_keeps_every_vector():
    v = from_rows(QQ, [[1, Fraction(1, 2)], [0, 3]])
    reps, classes = _space(v, None, None)
    assert reps == ExactMatrix.identity(QQ, 2)
    assert classes == v


def test_induced_cohomology_map_is_the_classes_of_one_homology_space(monkeypatch, a5):
    from lyub import restriction, stanley_reisner

    from . import oracles
    from .oracles import complex_alexander_dual, induced_cohomology_map, nonzero_edges

    (alpha, i), edge = next(iter(nonzero_edges(build_hypercube(a5, 2, QQ)).items()))
    calls = []
    original = oracles.solve_homology

    def spy(*args):
        out = original(*args)
        calls.append((args[0], out))
        return out

    monkeypatch.setattr(oracles, "solve_homology", spy)
    dual = complex_alexander_dual(stanley_reisner(a5))
    small, big = restriction(dual, alpha), restriction(dual, alpha | 1 << i)
    induced = induced_cohomology_map(small, big, 0, QQ)
    # the big space alone, then the small one with the restricted big reps
    assert [vectors.cols for vectors, _ in calls] == [0, calls[0][1][0].cols]
    assert induced is calls[1][1][1]
    assert induced.transpose() == edge
    assert any(induced.data)


def _cycle_complex(field):
    # 0 <- k <- k^3 <- k <- 0 with maps (1 1 1) and (-1, 1, 0)^T
    m0 = from_rows(field, [[1, 1, 1]])
    m1 = ExactMatrix(field, 3, 1, [[-1], [1], [0]])
    return VectorSpaceComplex(field, (1, 3, 1), (m0, m1))


def test_homology_dims_paper_complex():
    assert homology_dims(_cycle_complex(QQ)) == [0, 1, 0]
    assert homology_dims(_cycle_complex(F2)) == [0, 1, 0]


def test_homology_dims_zero_maps_and_iso():
    cx = VectorSpaceComplex(QQ, (2, 3), (ExactMatrix(QQ, 2, 3),))
    assert homology_dims(cx) == [2, 3]
    iso = VectorSpaceComplex(QQ, (1, 1), (ExactMatrix.identity(QQ, 1),))
    assert homology_dims(iso) == [0, 0]


def test_homology_from_ranks_is_the_per_position_formula():
    rng = random.Random(23)
    refused = kept = 0
    for _ in range(300):
        dims = [rng.randint(0, 8) for _ in range(rng.randint(0, 6))]
        ranks = [rng.randint(0, 4) for _ in dims[1:]]
        direct = [
            d - (ranks[p - 1] if p > 0 else 0) - (ranks[p] if p < len(ranks) else 0)
            for p, d in enumerate(dims)
        ]
        if any(h < 0 for h in direct):
            refused += 1
            with pytest.raises(ContractError, match="negative homology dimension"):
                homology_from_ranks(dims, ranks)
        else:
            kept += 1
            assert homology_from_ranks(dims, iter(ranks)) == direct
    assert refused and kept


def test_homology_dims_refuses_through_the_one_rule(monkeypatch):
    real = linalg.complex_ranks
    monkeypatch.setattr(linalg, "complex_ranks", lambda maps: [r + 1 for r in real(maps)])
    with pytest.raises(ContractError, match="negative homology dimension"):
        homology_dims(_cycle_complex(QQ))


@pytest.mark.parametrize("f", [QQ, F2, F3], ids=["Q", "F2", "F3"])
def test_complex_ranks_are_the_ranks_of_random_complexes(monkeypatch, f):
    # integer entries up to 2 in size, so pivots need not be units
    rng = random.Random(31)
    for _ in range(80):
        maps = _random_complex(rng, f, maxdim=7, length=rng.randint(1, 6)).maps
        assert complex_ranks(maps) == [rank_naive(m) for m in maps]
    # 0 <- k <- k^2 <- k with maps (3 -3) and (2 2)^T: over Q the column of
    # (3 -3) at the pivot row of (2 2)^T is dropped, the row keeps one
    # entry, and both ranks are counted without elimination
    cx = VectorSpaceComplex(f, (1, 2, 1), (from_rows(f, [[3, -3]]), from_rows(f, [[2], [2]])))
    monkeypatch.setattr(linalg, "_eliminate", None)
    assert complex_ranks(cx.maps) == [rank_naive(m) for m in cx.maps]


def test_complex_ranks_are_the_ranks_of_the_corpus_complexes(a5, a7, a8, ex46, ex52, ex53, ex57, field):
    # main of every cube, every strand frame of the Alexander dual and the
    # cochain complex of every link of the Stanley-Reisner complex, each
    # map also ranked on its own by dense elimination, once per distinct map
    naive = {}
    for ideal in (a5, a7, a8, ex46, ex52, ex53, ex57):
        dual, delta = alexander_dual(ideal), stanley_reisner(ideal)
        complexes = [build_hypercube(ideal, r, field).main.maps for r in range(ideal.n + 1)]
        complexes += [strand_frame(dual, r, field).maps for r in range(ideal.n + 1)]
        complexes += [
            cochain_complex(link(delta, alpha), field).coboundaries[::-1]
            for alpha in range(full_mask(ideal.n) + 1)
        ]
        for maps in complexes:
            for m in maps:
                key = m.rows, m.cols, tuple(m.data)
                if key not in naive:
                    naive[key] = rank_naive(m)
            assert complex_ranks(maps) == [naive[m.rows, m.cols, tuple(m.data)] for m in maps]


def _sparse_matrix(rng, field, rows, cols):
    """Rows of three kinds: zero, one entry, and a random sparse row."""
    data = []
    for _ in range(rows):
        row = [0] * cols
        kind = rng.randrange(3)
        if kind == 1 and cols:
            row[rng.randrange(cols)] = rng.choice([-2, -1, 1, 2, 3])
        elif kind == 2:
            row = [rng.choice([0, 0, 0, -1, 1, 2, 3]) for _ in range(cols)]
        data.append(row)
    return ExactMatrix(field, rows, cols, data)


@pytest.mark.parametrize("f", [QQ, F2, F3], ids=["Q", "F2", "F3"])
def test_product_is_zero_agrees_with_the_product(f):
    # half the right factors lie in the kernel of the left one, so both
    # answers occur, with one-entry and zero rows on both sides
    rng = random.Random(29)
    answers = []
    for _ in range(300):
        k, m = rng.randint(0, 5), rng.randint(0, 5)
        left = _sparse_matrix(rng, f, k, m)
        if rng.randrange(2):
            ker = kernel_basis(left)
            right = matmul(ker, _sparse_matrix(rng, f, ker.cols, rng.randint(0, 4)))
        else:
            right = _sparse_matrix(rng, f, m, rng.randint(0, 4))
        want = not any(matmul(left, right).data)
        assert product_is_zero(left.data, right.data, f.p) == want
        answers.append(want)
    assert set(answers) == {True, False}


def test_composability_checked():
    good = ExactMatrix.identity(QQ, 2)
    with pytest.raises(ContractError):
        VectorSpaceComplex(QQ, (2, 2, 2), (good, good))


def test_complex_refuses_a_map_over_another_field():
    # a half over Q has no meaning over F_3, nor does a map over F_2 over Q
    half = ExactMatrix(QQ, 1, 1, [[Fraction(1, 2)]])
    with pytest.raises(InputError, match=r"map 0 is over Q, not F3"):
        VectorSpaceComplex(F3, (1, 1), [half])
    one = ExactMatrix.identity(F2, 1)
    zero = ExactMatrix(QQ, 1, 1)
    with pytest.raises(InputError, match=r"map 1 is over F2, not Q"):
        VectorSpaceComplex(QQ, (1, 1, 1), [zero, one])
    assert VectorSpaceComplex(F3, (1, 1), [ExactMatrix(F3, 1, 1, [[Fraction(1, 2)]])]).maps[0].data == [((0, 2),)]


@pytest.mark.parametrize("size", [-1, -3, 2.0, True, "2", None])
def test_shapes_and_dimensions_are_ints_at_least_zero(size):
    # a negative or non-int side is refused where the matrix or complex is
    # made, before a transpose or homology_dims can read it
    with pytest.raises(InputError, match=re.escape(f"matrix shape {size!r}x2 is not two ints >= 0")):
        ExactMatrix(QQ, size, 2)
    with pytest.raises(InputError, match=re.escape(f"matrix shape 2x{size!r} is not two ints >= 0")):
        ExactMatrix(F3, 2, size, [[]] * 2)
    with pytest.raises(InputError, match=re.escape(f"position 0 has dimension {size!r}, not an int >= 0")):
        VectorSpaceComplex(QQ, [size], [])
    with pytest.raises(InputError, match=re.escape(f"position 1 has dimension {size!r}, not an int >= 0")):
        VectorSpaceComplex(QQ, [0, size], [ExactMatrix(QQ, 0, 0)])
    assert ExactMatrix(QQ, 0, 2).transpose() == ExactMatrix(QQ, 2, 0)
    assert homology_dims(VectorSpaceComplex(QQ, [0, 3], [ExactMatrix(QQ, 0, 3)])) == [0, 3]


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
            raw = matmul(k, random_matrix(rng, field, k.cols, dims[p + 1], span=2))
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
    rng, perm_rng = random.Random(29), random.Random(30)
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
            assert rank_naive(from_rows(field, m.dense() + red.dense())) == r
            prefix = [rank(ExactMatrix(field, rows, c, [row[:c] for row in m.dense()]))
                      for c in range(cols + 1)]
            assert pivots == [c for c in range(cols) if prefix[c + 1] > prefix[c]]
            # a permutation of the rows reduces to the same rows and pivots,
            # scalar types included: ties between pivot rows go by row id
            shuffled = list(range(rows))
            perm_rng.shuffle(shuffled)
            red_perm, pivots_perm = rref(ExactMatrix(field, rows, cols, [int_rows[i] for i in shuffled]))
            assert pivots_perm == pivots
            assert _typed(red_perm) == _typed(red)

            k = kernel_basis(m)
            assert k.rows == cols and k.cols == cols - r
            assert not any(matmul(m, k).data)
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
    # with every entry eligible every row pivots, as in rank
    pivots, _ = cancel([{0: 1, 1: 1}, {0: 1}, {2: 5}], 0, lambda r, c: True)
    mat = from_rows(QQ, [[1, 1, 0], [1, 0, 0], [0, 0, 5]])
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
