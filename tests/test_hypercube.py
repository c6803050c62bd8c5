import gc
import hashlib
import random
import re
import tracemalloc
from fractions import Fraction
from functools import reduce
from operator import and_

import pytest

from lyub import (
    ContractError,
    DomainError,
    ExactMatrix,
    InputError,
    QQ,
    build_hypercube,
    dual_complex,
    homology_dims,
    main_complex,
    matlis_dual,
    prime_field,
    rank,
    restricted_complex,
)
from lyub import cohomology, hypercube
from lyub.cohomology import reduced_cohomology_dims_all
from lyub.combinatorics import (
    MonomialIdeal,
    bits_of,
    full_mask,
    mask_of,
    popcount,
    restriction,
    simplicial_complex,
)
from lyub.hypercube import Hypercube, face_restricted_hypercube

from .conftest import (
    cycle_nonedge_ideal,
    gens_ideal,
    nine_vars_ideal,
    primes_ideal,
    rp2_ideal,
    ten_vars_ideal,
    tiny_ideals,
)
from .oracles import (
    cech_vertex_dim,
    complex_alexander_dual,
    cube_from_edges,
    dense_restricted_complex,
    induced_cohomology_map,
    interval_complex,
    masks,
    matmul,
    nonzero_edges,
    per_edge_maps,
    per_mask_hypercubes,
    random_ideal,
    squares_commute,
)

F2 = prime_field(2)
F3 = prime_field(3)


def test_face_ideal_single_vertex_all_small_cases():
    # H^{|a|}_{p_a}(R) is the simple object: one vertex at a, no edges
    for n in range(1, 5):
        for alpha in range(1, 1 << n):
            ideal = MonomialIdeal(n, tuple(1 << b for b in range(n) if alpha >> b & 1))
            cube = build_hypercube(ideal, popcount(alpha), QQ)
            assert cube.dims == {alpha: 1}
            assert nonzero_edges(cube) == {}


def test_a5_r2_vertices_and_rank(a5):
    cube = build_hypercube(a5, 2, QQ)
    expected = masks(
        [1, 3], [1, 4], [2, 4], [2, 5], [3, 5],
        [1, 2, 4], [1, 3, 4], [1, 3, 5], [2, 3, 5], [2, 4, 5],
    )
    assert cube.dims == {m: 1 for m in expected}
    cx = main_complex(cube)
    assert cx.dims == (0, 0, 5, 5, 0, 0)
    assert rank(cx.maps[2]) == 4
    assert homology_dims(cx) == [0, 0, 1, 1, 0, 0]


def test_a5_r3_single_top_vertex(a5):
    cube = build_hypercube(a5, 3, QQ)
    assert cube.dims == {full_mask(5): 1}


def test_small_supp_module_complex(ex57):
    # 0 <- k <- k^3 <- k <- 0 with maps of ranks 1 and 1
    cube = build_hypercube(ex57, 3, QQ)
    cx = main_complex(cube)
    assert cx.dims == (1, 3, 1, 0, 0, 0)
    assert rank(cx.maps[0]) == 1
    assert rank(cx.maps[1]) == 1
    assert homology_dims(cx) == [0, 1, 0, 0, 0, 0]


def test_degree_zero_vertex_always_zero(a4, a5, ex57):
    for ideal in (a4, a5, ex57):
        for r in range(ideal.n + 1):
            assert build_hypercube(ideal, r, QQ).vertex_dim(0) == 0
    # height-one ideal exercises the r = 1 corner
    principal = MonomialIdeal(2, (0b11,))
    cube = build_hypercube(principal, 1, QQ)
    assert cube.vertex_dim(0) == 0
    assert cube.dims == {0b01: 1, 0b10: 1, 0b11: 1}


def test_build_validation():
    a4 = primes_ideal(4, [[1, 3], [2, 4]])
    with pytest.raises(InputError):
        build_hypercube(a4, 5, QQ)
    with pytest.raises(InputError):
        build_hypercube(a4, -1, QQ)
    with pytest.raises(DomainError):
        build_hypercube(MonomialIdeal(3, ()), 1, QQ)
    with pytest.raises(DomainError):
        build_hypercube(MonomialIdeal(3, (0,)), 1, QQ)


def test_vertex_dims_match_cech_oracle_on_examples(a4, a5, ex53, ex57, field):
    for ideal in (a4, a5, ex53, ex57):
        n = ideal.n
        for r in range(n + 1):
            cube = build_hypercube(ideal, r, field)
            for alpha in range(1 << n):
                assert cube.vertex_dim(alpha) == cech_vertex_dim(
                    ideal, r, alpha, field
                ), (ideal, r, alpha)


def test_vertex_dims_match_cech_oracle_random(field):
    rng = random.Random(61)
    for _ in range(12):
        ideal = random_ideal(rng, rng.randint(2, 5))
        for r in range(ideal.n + 1):
            cube = build_hypercube(ideal, r, field)
            for alpha in range(1 << ideal.n):
                assert cube.vertex_dim(alpha) == cech_vertex_dim(
                    ideal, r, alpha, field
                )


def test_restricted_complex_full_equals_main(a5, ex57):
    for ideal in (a5, ex57):
        full = full_mask(ideal.n)
        for r in range(ideal.n + 1):
            cube = build_hypercube(ideal, r, QQ)
            main = main_complex(cube)
            rc = restricted_complex(cube, full, full)
            assert main.dims == rc.dims
            assert main.maps == rc.maps


def test_restricted_complex_matches_dense_assembly(a5, ex53, ex57):
    # every amask with bmask = amask, and every pair where one mask holds
    # the other; bits of amask outside bmask give identity blocks, which
    # make the complex a tensor product with an exact factor: no homology
    for ideal in (a5, ex53, ex57):
        n = ideal.n
        pairs = [
            (a, b) for a in range(1 << n) for b in range(1 << n)
            if a & ~b == 0 or b & ~a == 0
        ]
        for field in (QQ, F3):
            for r in range(n + 1):
                cube = build_hypercube(ideal, r, field)
                if cube.is_zero():
                    continue
                for amask, bmask in pairs:
                    dims, maps = dense_restricted_complex(cube.field, cube.dims, cube.edge, amask, bmask)
                    cx = restricted_complex(cube, amask, bmask)
                    assert list(cx.dims) == dims
                    assert [m.dense() for m in cx.maps] == maps, (r, amask, bmask)
                    if amask & ~bmask:
                        assert not any(homology_dims(cx)), (r, amask, bmask)


def _summand_signs(cube, hull):
    """Per position of ``restricted_complex(cube, hull, hull)``, the sign of
    each basis element: over the bits j of its gamma, the product of
    (-1)^(bits of full \\ hull below j)."""
    outside = full_mask(cube.n) & ~hull
    levels = [[] for _ in range(popcount(hull) + 1)]
    for v in cube.dims:
        if not v & ~hull:
            levels[popcount(hull & ~v)].append(hull & ~v)
    signs = []
    for lv in levels:
        row = []
        for g in sorted(lv):
            flips = sum(popcount(outside & ((1 << j) - 1)) for j in bits_of(g))
            row += [(-1) ** flips] * cube.dims[hull & ~g]
        signs.append(row)
    return signs


@pytest.mark.parametrize("f", [QQ, F3], ids=["q", "f3"])
def test_hull_complex_is_the_restricted_complex_up_to_summand_signs(a5, ex53, ex57, f):
    # at every mask h, of the cube and of its Matlis dual, the interval
    # [0, h] of the main complex is restricted_complex(h, h) with each basis
    # element scaled by its summand's sign
    for ideal in (a5, ex53, ex57):
        for r in range(ideal.n + 1):
            cube = build_hypercube(ideal, r, f)
            for c in (cube, matlis_dual(cube)):
                for h in range(1 << ideal.n):
                    got = interval_complex(c, 0, h)
                    want = restricted_complex(c, h, h)
                    assert got.dims == want.dims
                    signs = _summand_signs(c, h)
                    for p, (a, b) in enumerate(zip(got.maps, want.maps)):
                        scaled = [
                            [f.coerce(s * t * x) for t, x in zip(signs[p + 1], row)]
                            for s, row in zip(signs[p], b.dense())
                        ]
                        assert a.dense() == scaled, (r, h, p)


@pytest.mark.parametrize("f", [QQ, F3], ids=["q", "f3"])
def test_interval_above_the_complement_is_the_dual_hull_complex_reversed(a5, ex53, ex57, f):
    # the dual Bass row at h: the interval [full \ h, full] of the main
    # complex, read backwards, has the homology of the Matlis dual's h
    # complex
    for ideal in (a5, ex53, ex57):
        full = full_mask(ideal.n)
        for r in range(ideal.n + 1):
            cube = build_hypercube(ideal, r, f)
            dual = matlis_dual(cube)
            for h in range(1 << ideal.n):
                got = interval_complex(cube, full ^ h, full)
                want = restricted_complex(dual, h, h)
                assert got.dims[::-1] == want.dims, (r, h)
                assert homology_dims(got)[::-1] == homology_dims(want), (r, h)


def test_constructor_refuses_a_layout_main_cannot_hold():
    # n = 2, r = 1 over Q: each cube below breaks the summand layout that
    # main and starts describe, and is refused before its maps are read
    one = ExactMatrix(QQ, 1, 1, [[1]])
    cases = [
        ({1: 0}, "dimension 0"),
        ({1: -1}, "dimension -1"),
        ({4: 1}, "does not fit"),
    ]
    for dims, message in cases:
        with pytest.raises(InputError, match=re.escape(message)):
            Hypercube(2, 1, QQ, dims, [])
    # vertex 11 is main's position 0, vertex 01 its position 1 (gamma =
    # 10), and the edge between them carries no sign
    cube = Hypercube(2, 1, QQ, {1: 1, 3: 1}, [one, ExactMatrix(QQ, 1, 0)])
    assert cube.main.dims == (1, 1, 0) and cube.edge(1, 1) == one


@pytest.mark.parametrize("n", [-1, 25, 2.0, True, "2", None])
def test_constructor_refuses_an_n_that_is_not_a_variable_count(n):
    # n is an int in [0, MAX_VARIABLES]: no shift, float or bool gets in
    with pytest.raises(InputError, match="hypercube dimension .* is not an int in \\[0, 24\\]"):
        Hypercube(n, 1, QQ, {}, [])


@pytest.mark.parametrize("r", [-7, 25, "x", True, 1.0])
def test_constructor_refuses_an_r_that_is_not_a_degree(r):
    # r is an int in [0, MAX_VARIABLES], as n is, but not bounded by n:
    # the face-restricted cubes keep their parent's degree
    with pytest.raises(InputError, match="cohomological degree .* is not an int in \\[0, 24\\]"):
        Hypercube(2, r, QQ, {}, [ExactMatrix(QQ, 0, 0), ExactMatrix(QQ, 0, 0)])


def test_constructor_takes_the_cube_on_no_variables(a5):
    # face_restricted_hypercube at the empty mask makes it: one position,
    # and no vertex, as the vertex at 0 is pinned to zero
    cube = face_restricted_hypercube(build_hypercube(a5, 2, QQ), 0)
    assert (cube.n, cube.dims, cube.starts, cube.main.dims) == (0, {}, {}, (0,))


def test_constructor_copies_dims(a5):
    # the cube keeps its own dict: a caller's later change to the one it
    # passed moves neither its vertices nor main's layout
    built = build_hypercube(a5, 2, QQ)
    dims = dict(built.dims)
    cube = Hypercube(5, 2, QQ, dims, built.main.maps)
    before = (dict(cube.dims), dict(cube.starts), [cube.vertex_dim(a) for a in range(32)])
    for a in list(dims):
        dims[a] += 1
    dims[0] = 3
    del dims[max(dims)]
    assert (dict(cube.dims), dict(cube.starts), [cube.vertex_dim(a) for a in range(32)]) == before
    assert cube.dims == built.dims


def _square_maps(top, side):
    """Main's maps of a square with every vertex of dimension 1 (n = 2):
    map 0 (1x2) into vertex 11 from 10 and 01, map 1 (2x1) from 00."""
    return [ExactMatrix(QQ, 1, 2, [top]), ExactMatrix(QQ, 2, 1, [[x] for x in side])]


def test_the_maps_path_keeps_every_cube_check():
    # the constructor takes main's maps and checks them: d∘d of main is
    # the square check, and a map that does not fit the levels of the
    # vertices, or a vertex outside the cube or of dimension below 1, is
    # refused
    dims = dict.fromkeys(range(4), 1)
    cube = Hypercube(2, 1, QQ, dims, _square_maps([1, 1], [1, -1]))
    assert (cube.main.dims, cube.starts) == ((1, 2, 1), {3: 0, 2: 0, 1: 1, 0: 0})
    # the edge (0, 1) sits in map 1 at gamma = e_0, below bit 1: its sign
    # is undone, and its square commutes: (1)(-1) = (1)(-1)
    edges = {key: m.dense() for key, m in nonzero_edges(cube).items()}
    assert edges == {(0, 0): [[-1]], (0, 1): [[-1]], (1, 1): [[1]], (2, 0): [[1]]}
    with pytest.raises(ContractError, match=re.escape("hypercube of degree r=1: squares do not commute (")):
        Hypercube(2, 1, QQ, dims, _square_maps([1, 1], [1, 1]))
    bad = [
        ({**dims, 4: 1}, _square_maps([1, 1], [1, -1]), "does not fit"),
        ({**dims, 0: 0}, _square_maps([1, 1], [1, -1]), "dimension 0"),
        ({3: 1, 2: 1, 1: 1}, _square_maps([1, 1], [1, -1]), "map 1 has shape 2x1, expected 2x0"),
        (dims, _square_maps([1, 1], [1, -1])[::-1], "map 0 has shape 2x1, expected 1x2"),
        (dims, _square_maps([1, 1], [1, -1])[:1], "one map per consecutive pair"),
    ]
    for vertices, maps, message in bad:
        with pytest.raises(InputError, match=re.escape(message)):
            Hypercube(2, 1, QQ, vertices, maps)


def test_a_map_or_edge_over_another_field_is_refused():
    # a half over Q is not a scalar of F_3: it gets into no cube over F_3,
    # and the same half read over F_3 is the scalar 2
    half = ExactMatrix(QQ, 1, 1, [[Fraction(1, 2)]])
    with pytest.raises(InputError, match=re.escape("map 0 is over Q, not F3")):
        Hypercube(1, 1, F3, {0: 1, 1: 1}, [half])
    cube = Hypercube(1, 1, F3, {0: 1, 1: 1}, [ExactMatrix(F3, 1, 1, [[Fraction(1, 2)]])])
    assert cube.edge(0, 0).data == [((0, 2),)]


def test_masks_outside_the_cube_are_refused():
    # the cubes of (x1 x2) in three variables: H^1 is nonzero, H^2 is zero
    ideal = MonomialIdeal(3, (0b011,))
    fits = "mask does not fit the hypercube"
    for r in (1, 2):
        cube = build_hypercube(ideal, r, QQ)
        for bad in (1 << 3, 1 << 5, 1 << 9, -1):
            with pytest.raises(InputError, match=fits):
                cube.vertex_dim(bad)
            with pytest.raises(InputError, match=fits):
                cube.edge(bad, 0)
            for lo, hi in ((bad, 0b111), (0, bad), (bad, bad)):
                with pytest.raises(InputError, match=fits):
                    interval_complex(cube, lo, hi)
                with pytest.raises(InputError, match=fits):
                    restricted_complex(cube, lo, hi)
            with pytest.raises(InputError, match=fits):
                face_restricted_hypercube(cube, bad)
        with pytest.raises(InputError, match="not below its top"):
            interval_complex(cube, 0b001, 0b110)
        assert cube.vertex_dim(0b011) == (r == 1)
        assert interval_complex(cube, 0, 0b111).dims == cube.main.dims


def test_checks_catch_one_changed_edge_entry(ex57):
    # H^3 of ex57 has nonzero vertices on three consecutive levels.  Add one
    # to entry (a, 0) of an edge (alpha, i) whose next edge (alpha+e_i, j)
    # has a nonzero column a: that square stops commuting, and so d∘d of
    # the main complex is nonzero on it, and the cube is refused.
    cube = build_hypercube(ex57, 3, QQ)
    edges = nonzero_edges(cube)
    found = None
    for (alpha, i), mat in sorted(edges.items()):
        for j in range(ex57.n):
            nxt = edges.get((alpha | 1 << i, j))
            if nxt is not None and not alpha >> j & 1:
                cols = [c for row in nxt.dense() for c, x in enumerate(row) if x]
                if cols:
                    found = (alpha, i), mat, cols[0]
                    break
        if found:
            break
    assert found
    key, mat, a = found
    entries = mat.dense()
    entries[a][0] += 1
    edges[key] = ExactMatrix(QQ, mat.rows, mat.cols, entries)
    with pytest.raises(ContractError, match="r=3: squares do not commute"):
        cube_from_edges(cube.n, cube.r, cube.field, cube.dims, edges)


def _zero_middle_paths(cube):
    """{edge key: squares (alpha, i, j)} for the edges on the one path of a
    square whose ends are nonzero and one of whose middle vertices is zero."""
    out = {}
    for alpha in cube.dims:
        for i in range(cube.n):
            for j in range(i + 1, cube.n):
                end = alpha | 1 << i | 1 << j
                if alpha & (1 << i | 1 << j) or end not in cube.dims:
                    continue
                mids = [k for k in (i, j) if alpha | 1 << k in cube.dims]
                if len(mids) == 1:
                    k, = mids
                    for key in ((alpha, k), (alpha | 1 << k, i + j - k)):
                        out.setdefault(key, []).append((alpha, k, i + j - k))
    return out


@pytest.mark.parametrize("f", [QQ, F2, F3], ids=["q", "f2", "f3"])
def test_square_check_agrees_with_the_square_loop(ex57, a5, ex52, f):
    # Add 1 to one entry of one stored edge at a time: the constructor's
    # check, d∘d of the main complex, refuses the cube exactly when the loop
    # over every square finds one that does not commute.  nine's degree-2 cube
    # has squares with a zero middle vertex, where one path alone carries
    # a map; of its 1,020 edges every edge on such a path is changed, and
    # every 16th other one.
    cubes = [build_hypercube(ex57, 3, f), build_hypercube(a5, 2, f)]
    cubes += [build_hypercube(ex52, r, f) for r in range(2, 6)]
    outcomes, zero_middle_broken = set(), 0
    for cube in cubes:
        stored = nonzero_edges(cube)
        assert squares_commute(cube.n, cube.dims, stored)
        paths = _zero_middle_paths(cube)
        for t, key in enumerate(sorted(stored)):
            if key not in paths and t % 16:
                continue
            mat = stored[key]
            entries = mat.dense()
            entries[t % mat.rows][t % mat.cols] += 1
            edges = dict(stored)
            edges[key] = ExactMatrix(f, mat.rows, mat.cols, entries)
            commute = squares_commute(cube.n, cube.dims, edges)
            try:
                cube_from_edges(cube.n, cube.r, f, cube.dims, edges)
            except ContractError as exc:
                assert not commute, (cube.r, key)
                assert f"r={cube.r}" in str(exc) and "position" in str(exc)
            else:
                assert commute, (cube.r, key)
            outcomes.add(commute)
            for alpha, k, m in paths.get(key, ()):
                one_path = matmul(edges[(alpha | 1 << k, m)], edges[(alpha, k)])
                zero_middle_broken += any(one_path.data)
    assert outcomes == {True, False}
    assert zero_middle_broken


def test_restricted_complex_general_degrees_on_simple_modules():
    # For a face ideal the torsion functor on the simple module has a closed
    # form: homology concentrates at position |alpha \ delta| in degree
    # alpha ∪ delta.  This exercises the identity edges that appear whenever
    # a direction of alpha lies outside beta.
    for n in (2, 3, 4):
        for delta in range(1, 1 << n):
            ideal = MonomialIdeal(n, tuple(1 << b for b in range(n) if delta >> b & 1))
            cube = build_hypercube(ideal, popcount(delta), QQ)
            for alpha in range(1 << n):
                for beta in range(1 << n):
                    h = homology_dims(restricted_complex(cube, alpha, beta))
                    expect_p = popcount(alpha & ~delta)
                    for p, v in enumerate(h):
                        want = 1 if beta == (alpha | delta) and p == expect_p else 0
                        assert v == want


def test_restricted_complex_bass_examples(ex53):
    cube4 = build_hypercube(ex53, 4, QQ)
    alpha = mask_of([0, 1, 2, 3])
    h = homology_dims(restricted_complex(cube4, alpha, alpha))
    assert h[0] == 1 and not any(h[1:])
    cube3 = build_hypercube(ex53, 3, QQ)
    full = full_mask(5)
    assert homology_dims(restricted_complex(cube3, full, full)) == [0, 0, 2, 0, 0, 0]


def test_face_restriction_identity_and_zero(a5, ex53):
    full = full_mask(5)
    cube = build_hypercube(a5, 2, QQ)
    same = face_restricted_hypercube(cube, full)
    assert same.dims == cube.dims and nonzero_edges(same) == nonzero_edges(cube)
    # a face ideal hypercube restricted below its support is empty
    face = MonomialIdeal(5, tuple(masks([1], [2], [3])))
    fc = build_hypercube(face, 3, QQ)
    below = face_restricted_hypercube(fc, mask_of([0, 1]))
    assert below.is_zero()


def test_face_restriction_example_53(ex53):
    cube = build_hypercube(ex53, 3, QQ)
    alpha = mask_of([0, 1, 4])
    sub = face_restricted_hypercube(cube, alpha)
    assert homology_dims(main_complex(sub))[0] == 1


def test_face_restriction_matches_restricted_complex(a5, ex53, ex57):
    for ideal in (a5, ex53, ex57):
        for r in range(ideal.n + 1):
            cube = build_hypercube(ideal, r, QQ)
            for alpha in range(1 << ideal.n):
                sub = main_complex(face_restricted_hypercube(cube, alpha))
                direct = restricted_complex(cube, alpha, alpha)
                assert sub.dims == direct.dims
                assert sub.maps == direct.maps


@pytest.mark.parametrize("f", [QQ, F2, F3], ids=["q", "f2", "f3"])
def test_dual_and_face_restrictions_are_the_cubes_of_their_edges(a5, ex53, ex57, f):
    # matlis_dual transposes every edge onto the complementary vertices,
    # and face_restricted_hypercube keeps the edges below a mask, its bits
    # renumbered: each is the cube that cube_from_edges assembles densely
    # from those edges, read through cube.edge, byte for byte
    rng = random.Random(29)
    randoms = [random_ideal(rng, n) for n in (3, 4, 4, 5, 5, 6, 6, 7)]
    for ideal in (a5, ex53, ex57, nine_vars_ideal(), rp2_ideal(), *randoms):
        n, full = ideal.n, full_mask(ideal.n)
        for r in range(n + 1):
            cube = build_hypercube(ideal, r, f)
            edges = nonzero_edges(cube)
            dims = {full ^ a: d for a, d in cube.dims.items()}
            flipped = {(full ^ (a | 1 << i), i): m.transpose() for (a, i), m in edges.items()}
            want = cube_from_edges(n, r, f, dims, flipped)
            assert repr(_layout(matlis_dual(cube))) == repr(_layout(want)), (ideal.gens, r)
            for amask in range(1 << n):
                local = {b: t for t, b in enumerate(bits_of(amask))}

                def compress(mask):
                    return mask_of(local[b] for b in bits_of(mask))

                dims = {compress(a): d for a, d in cube.dims.items() if not a & ~amask}
                below = {
                    (compress(a), local[i]): m
                    for (a, i), m in edges.items() if not (a | 1 << i) & ~amask
                }
                want = cube_from_edges(len(local), r, f, dims, below)
                got = face_restricted_hypercube(cube, amask)
                assert repr(_layout(got)) == repr(_layout(want)), (ideal.gens, r, amask)


def test_dual_complex_mirrors_main(a4, a5, ex53, ex57, field):
    for ideal in (a4, a5, ex53, ex57):
        n = ideal.n
        for r in range(n + 1):
            cube = build_hypercube(ideal, r, field)
            h_main = homology_dims(main_complex(cube))
            h_dual = homology_dims(dual_complex(cube))
            assert h_dual == list(reversed(h_main))


def test_dual_complex_prints_of_small_supp_module(ex57):
    # positions 3,4,5 carry k, k^3, k with rank-1 maps
    cube = build_hypercube(ex57, 3, QQ)
    cx = dual_complex(cube)
    assert cx.dims == (0, 0, 0, 1, 3, 1)
    assert rank(cx.maps[3]) == 1
    assert rank(cx.maps[4]) == 1
    assert homology_dims(cx) == [0, 0, 0, 0, 1, 0]


def test_matlis_dual_involution(a5, ex57):
    for ideal in (a5, ex57):
        cube = build_hypercube(ideal, 2, QQ)
        dd = matlis_dual(matlis_dual(cube))
        assert dd.dims == cube.dims
        assert nonzero_edges(dd) == nonzero_edges(cube)


def test_hypercube_zero_only_outside_height_range(a4, a5, ex46, ex53, ex57):
    for ideal in (a4, a5, ex46, ex53, ex57):
        ht = ideal.height()
        assert not build_hypercube(ideal, ht, QQ).is_zero()
        for r in range(0, ht):
            assert build_hypercube(ideal, r, QQ).is_zero()


def test_edges_all_zero_when_stored_edges_empty(a5):
    cube = build_hypercube(a5, 3, QQ)
    e = cube.edge(mask_of([0, 1, 2, 3]), 4)
    assert e.rows == 1 and e.cols == 0
    with pytest.raises(InputError):
        cube.edge(full_mask(5), 0)


def test_edge_refuses_a_direction_outside_the_cube():
    cube = build_hypercube(gens_ideal(3, [[1], [2]]), 2, QQ)
    for i in (-1, 3, 5):
        with pytest.raises(InputError):
            cube.edge(0, i)
    e = cube.edge(0, 2)
    assert (e.rows, e.cols) == (cube.vertex_dim(4), cube.vertex_dim(0))


@pytest.mark.parametrize("f", [QQ, F2], ids=["q", "f2"])
def test_edges_read_off_main_are_the_edges_the_build_passed(a5, a6, a7, a8, ex53, ex57, f):
    # a cube keeps main, not its edges, and the build writes main with no
    # edge matrix in between: every edge read off main, its sign undone, is
    # the one solved on its own per edge, scalar types included
    for ideal in (a5, a6, a7, a8, nine_vars_ideal(), rp2_ideal(), ex53, ex57):
        cubes = hypercube._build_all_degrees.__wrapped__(ideal, f)  # never cached
        for cube in cubes:
            oracle = per_edge_maps(ideal, cube.r, f)
            edges = nonzero_edges(cube)
            assert edges.keys() == oracle.keys(), (ideal.gens, cube.r)
            for key, mat in edges.items():
                assert _typed(mat) == _typed(oracle[key]), (ideal.gens, cube.r, key)


def _signed_square():
    """A commuting square over Q, every vertex of dimension 2, with Fraction
    and negative entries: u_{e_0,1} u_{0,0} = 2A = u_{e_1,0} u_{0,1}."""
    a = ExactMatrix(QQ, 2, 2, [[Fraction(1, 2), 0], [-3, Fraction(-2, 7)]])
    two = ExactMatrix(QQ, 2, 2, [[2, 0], [0, 2]])
    edges = {(0, 0): a, (0b01, 1): two, (0, 1): a, (0b10, 0): two}
    return cube_from_edges(2, 1, QQ, dict.fromkeys(range(4), 2), edges), edges


def test_edge_undoes_the_sign_main_gives_it():
    # the edge (0, 1) sits in main's map 1 (gamma = e_0) with the sign
    # (-1)^(bits of gamma below 1) = -1; read back, it is the matrix passed,
    # Fractions as Fractions and integers as integers
    cube, edges = _signed_square()
    for key, mat in edges.items():
        assert _typed(cube.edge(*key)) == _typed(mat), key
    block = [row[:2] for row in cube.main.maps[1].dense()[cube.starts[0b10]:][:2]]
    assert block == [[-x for x in row] for row in edges[0, 1].dense()]
    assert any(type(x) is Fraction for row in cube.edge(0, 1).data for _, x in row)
    assert any(type(x) is int for row in cube.edge(0, 1).data for _, x in row)


def test_edge_at_a_zero_end_or_between_unjoined_vertices_is_zero():
    cube = cube_from_edges(2, 1, QQ, {0b01: 1, 0b11: 1}, {})
    assert cube.edge(0b01, 1) == ExactMatrix(QQ, 1, 1)  # both ends, no edge passed
    assert cube.edge(0, 0) == ExactMatrix(QQ, 1, 0)
    assert cube.edge(0b10, 0) == ExactMatrix(QQ, 1, 0)
    assert cube.edge(0, 1) == ExactMatrix(QQ, 0, 0)


def test_a_returned_edge_is_the_callers_own(a5):
    # mutating an edge changes neither a later edge of the cached cube, nor
    # main, nor what matlis_dual reads
    cube = build_hypercube(a5, 2, QQ)
    key, before = next((k, m) for k, m in nonzero_edges(cube).items() if m.data[0])
    maps = [list(m.data) for m in cube.main.maps]
    dual = nonzero_edges(matlis_dual(cube))
    got = cube.edge(*key)
    got.data[0] = ()
    assert got != before
    assert build_hypercube(a5, 2, QQ).edge(*key) == before
    assert [m.data for m in cube.main.maps] == maps
    assert nonzero_edges(matlis_dual(cube)) == dual


def test_restricted_complex_matches_dense_assembly_at_every_mask_pair(a5, ex57):
    # every (amask, bmask), neither holding the other included, on cubes
    # whose edges are read off main
    cubes = [_signed_square()[0], build_hypercube(a5, 2, QQ), build_hypercube(ex57, 3, F3)]
    for cube in cubes:
        for amask in range(1 << cube.n):
            for bmask in range(1 << cube.n):
                dims, maps = dense_restricted_complex(cube.field, cube.dims, cube.edge, amask, bmask)
                cx = restricted_complex(cube, amask, bmask)
                assert list(cx.dims) == dims
                assert [m.dense() for m in cx.maps] == maps, (cube.n, amask, bmask)
                if amask & ~bmask:
                    assert not any(homology_dims(cx)), (cube.n, amask, bmask)


def test_a_cached_build_keeps_its_main_complexes_and_not_its_edges():
    # one cached a10 build over Q keeps about 0.7 MB: its 11 cubes' vertex
    # dimensions, main complexes and starts.  With every edge stored beside
    # main it kept 2.3 MB
    ideal = cycle_nonedge_ideal(10)
    hypercube.minimal_primes(ideal)  # fill the transversal cache outside the measure
    hypercube._build_all_degrees.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        build_hypercube(ideal, 2, QQ)
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert kept < 1.2 * 2**20, kept


def test_the_build_peaks_near_what_it_keeps():
    # the build writes each cube's main as it solves, and drops a vertex's
    # representatives once its last lower neighbour is visited: over Q at
    # a10 it peaks at 2.4 times the 0.64 MiB it keeps.  With one edge
    # matrix per edge, and main assembled from them, it peaked at 4.2 times
    ideal = cycle_nonedge_ideal(10)
    hypercube.minimal_primes(ideal)  # fill the transversal cache outside the measure
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        cubes = hypercube._build_all_degrees.__wrapped__(ideal, QQ)  # never cached
        gc.collect()
        kept, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert len(cubes) == 11
    assert peak <= 2.5 * kept, (peak, kept)


def test_hypercube_caching(a5):
    assert build_hypercube(a5, 2, QQ) is build_hypercube(a5, 2, QQ)


def test_hypercube_cache_is_bounded():
    cached, size = hypercube._build_all_degrees, hypercube.HYPERCUBE_CACHE_SIZE
    assert cached.cache_info().maxsize == size
    cached.cache_clear()
    ideals = tiny_ideals(size + 1)
    for ideal in ideals[:size]:
        build_hypercube(ideal, 2, QQ)
    build_hypercube(ideals[0], 2, QQ)  # a hit: ideals[0] is now the most recent
    build_hypercube(ideals[-1], 2, QQ)
    info = cached.cache_info()
    assert (info.currsize, info.misses, info.hits) == (size, size + 1, 1)
    # the least recently used entry, that of ideals[1], was evicted
    build_hypercube(ideals[0], 2, QQ)
    assert cached.cache_info().misses == size + 1
    build_hypercube(ideals[1], 2, QQ)
    assert cached.cache_info().misses == size + 2


def test_hypercube_cache_holds_every_degree_in_one_entry(a5):
    cached = hypercube._build_all_degrees
    cached.cache_clear()
    cubes = [build_hypercube(a5, r, QQ) for r in range(a5.n + 1)]
    assert cached.cache_info().currsize == 1
    assert cached.cache_info().misses == 1
    assert [cube.r for cube in cubes] == list(range(a5.n + 1))
    again = [build_hypercube(a5, r, QQ) for r in range(a5.n + 1)]
    assert all(x is y for x, y in zip(again, cubes))


def _record_complexes(monkeypatch):
    """Make the build record the mask of every restriction whose cochain
    complex it selects, and the vertex set of every complex it forms."""
    formed, selected = [], []
    real_form, real_select = hypercube.cochain_complex, hypercube.restrict_cochains

    def forming(cx, field):
        formed.append(cx.vertices)
        return real_form(cx, field)

    def selecting(cc, alpha):
        selected.append(alpha)
        return real_select(cc, alpha)

    monkeypatch.setattr(hypercube, "cochain_complex", forming)
    monkeypatch.setattr(hypercube, "restrict_cochains", selecting)
    return formed, selected


def test_build_skips_only_cones(monkeypatch, a4, a5, ex53, ex57, field):
    # Brute force, without minimal primes: every mask the build skips is a
    # cone (its facets share a vertex) with zero reduced cohomology, and
    # every other nonzero mask gets exactly one complex.
    rng = random.Random(4)
    ideals = [a4, a5, ex53, ex57, nine_vars_ideal(), rp2_ideal()]
    ideals += [random_ideal(rng, rng.randint(2, 7)) for _ in range(20)]
    formed, selected = _record_complexes(monkeypatch)
    skipped_total = 0
    for ideal in ideals:
        formed.clear()
        selected.clear()
        hypercube._build_all_degrees.__wrapped__(ideal, field)  # never cached
        full = full_mask(ideal.n)
        dual = simplicial_complex(full, [full ^ g for g in ideal.gens])
        assert formed == [full]
        once = set(selected)
        assert len(once) == len(selected)
        for alpha in range(1, full + 1):
            rest = restriction(dual, alpha)
            apex = reduce(and_, rest.facets, alpha)
            if alpha in once:
                assert apex == 0
            else:
                assert apex != 0
                assert reduced_cohomology_dims_all(rest, field) == {}
                skipped_total += 1
    assert skipped_total


@pytest.mark.parametrize(
    "ideal, complexes",
    [(cycle_nonedge_ideal(8), 231), (cycle_nonedge_ideal(10), 993), (nine_vars_ideal(), 270)],
    ids=["a8", "a10", "nine"],
)
def test_build_forms_one_complex_per_lattice_mask(monkeypatch, ideal, complexes):
    # nine: 270 of its 511 nonzero masks are unions of minimal primes; each
    # selects its restriction's complex from the one complex of D^v
    formed, selected = _record_complexes(monkeypatch)
    hypercube._build_all_degrees.__wrapped__(ideal, QQ)  # never cached
    assert len(selected) == complexes
    assert formed == [full_mask(ideal.n)]


def test_edges_are_transposed_induced_cohomology_maps(ex53, a5):
    # every stored edge equals the transpose of the inclusion-induced map
    # between the restricted dual complexes, in the same deterministic bases,
    # each map solved on its own (``oracles.solve_homology``)
    from lyub import stanley_reisner

    for ideal, r in ((ex53, 4), (a5, 2)):
        cube = build_hypercube(ideal, r, QQ)
        dual = complex_alexander_dual(stanley_reisner(ideal))
        edges = nonzero_edges(cube)
        assert edges
        for (alpha, i), mat in edges.items():
            small = restriction(dual, alpha)
            big = restriction(dual, alpha | 1 << i)
            induced = induced_cohomology_map(small, big, r - 2, QQ)
            assert mat == induced.transpose()


@pytest.mark.parametrize("f", [QQ, F2, F3], ids=["q", "f2", "f3"])
def test_edges_match_per_edge_solve_oracle(a5, ex53, ex57, ex52, f):
    # one solve per vertex, on cochain complexes selected from the one
    # complex of D^v, gives exactly the matrices of one solve per edge on
    # complexes formed per restriction
    rng = random.Random(14)
    randoms = [random_ideal(rng, n) for n in (4, 4, 5, 5, 5, 6, 6, 6, 7, 7)]
    for ideal in (a5, ex53, ex57, ex52, *randoms):
        for r in range(ideal.n + 1):
            cube = build_hypercube(ideal, r, f)
            oracle = per_edge_maps(ideal, r, f)
            edges = nonzero_edges(cube)
            assert edges.keys() == oracle.keys()
            for key, mat in edges.items():
                assert mat == oracle[key], (ideal.gens, r, key)
                assert [[type(v) for _, v in row] for row in mat.data] == [
                    [type(v) for _, v in row] for row in oracle[key].data
                ]


# sha256 of every vertex dimension and edge matrix (rows, cols, data) of
# every degree: a8, nine and a10 recorded before the build reduced each
# coboundary once, ten and rp2 (duals of dimension 6 and 2, whose
# restrictions have coboundaries out of zero degrees) before it took its
# vertex dimensions from one cleared sweep and reduced only the
# coboundaries out of nonzero degrees
CUBE_SHA256 = {
    ("a8", "Q"): "f1c830d03e79217aafa733638e6ae63edcf8059dc4c22f73f8d3dcf57995f2a6",
    ("a8", "F2"): "12ab12aae1d0cf68d4f11d62d93e0e49e5ec15fac085291c4939b5b5872931c6",
    ("nine", "Q"): "ca2905807c73af982fe011184c5bb99101caae4242b0eee47d08e9e0ba93d913",
    ("nine", "F2"): "34a58ddac0921cb7aaae9d8a4a6ddc6709ffacfacb752967c57e48b5ecbce88d",
    ("a10", "Q"): "a0c9bf1be7186e93849649b4ea66706664a963712fc0becc44316692a6530490",
    ("a10", "F2"): "267c31f8ef76656c5930bfaf998f0d5822d882cac3b89c0dec68e3dfac5ac7c1",
    ("ten", "Q"): "b579798111fd95085a2287c3def3a6d8d533e161d42f4b48c458ea13c418f0a8",
    ("ten", "F2"): "710b73b83ee100ced6ac3e89ecc2faac52e1388151533c8a609f4fadaf300a50",
    ("ten", "F3"): "a8cd3debad5e746d4059bba7143fb32f021ca700cfbd395174a91f893cb7e71c",
    ("rp2", "Q"): "a5145a3a80d8a4d9cd20c7a282c63670148d8bdc14783b818f6e42ba8b30d30a",
    ("rp2", "F2"): "89f8117372be628bec6e4cddd5e96f4defe73c4d1874ae432b31916174b4b137",
}
PINNED_IDEALS = {
    "a8": lambda: cycle_nonedge_ideal(8),
    "nine": nine_vars_ideal,
    "a10": lambda: cycle_nonedge_ideal(10),
    "ten": ten_vars_ideal,
    "rp2": rp2_ideal,
}


@pytest.mark.parametrize(
    "name, fname", list(CUBE_SHA256), ids=[f"{fname.lower()}-{name}" for name, fname in CUBE_SHA256],
)
def test_cubes_are_pinned_byte_for_byte(name, fname):
    # repr tells an int from a Fraction, so scalar types are pinned too
    ideal, f = PINNED_IDEALS[name](), {"Q": QQ, "F2": F2, "F3": F3}[fname]
    digest = hashlib.sha256()
    for r in range(ideal.n + 1):
        cube = build_hypercube(ideal, r, f)
        digest.update(repr((r, sorted(cube.dims.items()), sorted(
            (key, m.rows, m.cols, m.data) for key, m in nonzero_edges(cube).items()
        ))).encode())
    assert digest.hexdigest() == CUBE_SHA256[(name, f.name())]


@pytest.mark.parametrize("f", [QQ, F2], ids=["q", "f2"])
def test_build_refuses_a_projected_representative_that_is_not_a_cocycle(monkeypatch, f):
    # change the first projected representative at the pivot of a reduced
    # row of d_out: that row then no longer kills it, so neither does d_out.
    # Once at a mask whose complex it solves (a miss) and once at a mask
    # whose complex an earlier mask solved (a hit): each mask tests its own
    # vectors
    real = hypercube.homology_classes
    for corrupt_hit in (False, True):
        used, changed = [], []

        def corrupting(vectors, reduced, proj):
            hit = any(p is proj for p in used)  # an earlier mask's solve
            used.append(proj)
            if vectors.cols and reduced and reduced[1] and hit == corrupt_hit and not changed:
                c = reduced[1][0]
                row = dict(vectors.data[c])
                row[0] = f.coerce(row.get(0, 0) + 1)
                data = list(vectors.data)
                data[c] = tuple(sorted((j, x) for j, x in row.items() if x))
                vectors = ExactMatrix._wrap(f, vectors.rows, vectors.cols, data)
                changed.append(c)
            return real(vectors, reduced, proj)

        monkeypatch.setattr(hypercube, "homology_classes", corrupting)
        with pytest.raises(ContractError, match="inconsistent linear system"):
            hypercube._build_all_degrees.__wrapped__(cycle_nonedge_ideal(8), f)  # never cached
        assert changed


@pytest.mark.parametrize("f", [QQ, F2, F3], ids=["q", "f2", "f3"])
def test_build_matches_the_per_mask_solve(a5, a6, a7, a8, ex53, ex57, f):
    # sharing one solve among the masks with the same restricted complex,
    # and writing main straight from the classes, gives the cubes of
    # solving every mask on its own and assembling main from the edges:
    # vertex dimensions, edge rows with their scalar types, starts and
    # main's maps, byte for byte
    rng = random.Random(25)
    randoms = [random_ideal(rng, n) for n in (4, 5, 5, 6, 6, 7, 7, 8)]
    ideals = (a5, a6, a7, a8, cycle_nonedge_ideal(9), nine_vars_ideal(), rp2_ideal(), ex53, ex57, *randoms)
    shared = 0
    for ideal in ideals:
        cubes = hypercube._build_all_degrees.__wrapped__(ideal, f)
        for cube, ref in zip(cubes, per_mask_hypercubes(ideal, f), strict=True):
            assert cube.dims == ref.dims, (ideal.gens, cube.r)
            edges, ref_edges = nonzero_edges(cube), nonzero_edges(ref)
            assert edges.keys() == ref_edges.keys()
            for key, mat in edges.items():
                assert _typed(mat) == _typed(ref_edges[key]), (ideal.gens, cube.r, key)
            # the build writes main itself; the reference assembles it from
            # its edges through the public constructor.  repr tells an int
            # from a Fraction and a tuple from a list
            assert repr(_layout(cube)) == repr(_layout(ref)), (ideal.gens, cube.r)
            shared += len(edges)
    assert shared


def _layout(cube):
    return (
        sorted(cube.dims.items()), sorted(cube.starts.items()), cube.main.field, cube.main.dims,
        [(m.field, m.rows, m.cols, m.data) for m in cube.main.maps],
    )


def _typed(mat):
    return mat.rows, mat.cols, [[(c, type(x), x) for c, x in row] for row in mat.data]


def test_build_solves_each_distinct_restricted_complex_once(monkeypatch):
    # a10 over Q: its 993 lattice masks select 216 distinct restricted
    # complexes, with 177 nonzero (complex, degree) pairs among them, and
    # the build runs homology_space once for each of those pairs, not once
    # for each of the 933 nonzero (mask, degree) pairs
    complexes, solves = [], []
    real_select, real_solve = hypercube.restrict_cochains, hypercube.homology_space

    def selecting(cc, alpha):
        complexes.append(real_select(cc, alpha))
        return complexes[-1]

    def solving(*args):
        solves.append(args)
        return real_solve(*args)

    monkeypatch.setattr(hypercube, "restrict_cochains", selecting)
    monkeypatch.setattr(hypercube, "homology_space", solving)
    cubes = hypercube._build_all_degrees.__wrapped__(cycle_nonedge_ideal(10), QQ)  # never cached
    distinct = {
        (tuple(map(len, cc.basis)), tuple(tuple(d.data) for d in cc.coboundaries)): cc
        for cc in complexes
    }
    pairs = sum(len(cc.cohomology_dims()) for cc in distinct.values())
    assert (len(complexes), len(distinct), pairs, len(solves)) == (993, 216, 177, 177)
    assert sum(len(cube.dims) for cube in cubes) == 933


def test_build_reduces_only_the_coboundaries_out_of_nonzero_degrees(monkeypatch):
    # ten over Q: its 256 lattice masks select 199 distinct restricted
    # complexes with 960 coboundaries among them.  The vertex dimensions
    # come from one cleared sweep per complex, and the build reduces a
    # coboundary only out of a nonzero degree: 124 of the 131 nonzero
    # (complex, degree) pairs have a coboundary out, and so 124 calls of
    # the build's own ``rref`` (``homology_space`` reduces through its own
    # binding, ``linalg.rref``)
    complexes, reduced = [], []
    real_select, real_rref = hypercube.restrict_cochains, hypercube.rref

    def selecting(cc, alpha):
        complexes.append(real_select(cc, alpha))
        return complexes[-1]

    def reducing(mat):
        reduced.append(mat)
        return real_rref(mat)

    monkeypatch.setattr(hypercube, "restrict_cochains", selecting)
    monkeypatch.setattr(hypercube, "rref", reducing)
    hypercube._build_all_degrees.__wrapped__(ten_vars_ideal(), QQ)  # never cached
    distinct = {
        (tuple(map(len, cc.basis)), tuple(tuple(d.data) for d in cc.coboundaries)): cc
        for cc in complexes
    }
    outs = [
        cc.coboundary(q) for cc in distinct.values() for q in cc.cohomology_dims()
        if cc.coboundary(q) is not None
    ]
    cobs = sum(len(cc.coboundaries) for cc in distinct.values())
    assert (len(complexes), len(distinct), cobs, len(outs), len(reduced)) == (256, 199, 960, 124, 124)
    assert sorted((m.rows, m.cols, m.data) for m in reduced) == sorted(
        (m.rows, m.cols, m.data) for m in outs
    )


@pytest.mark.parametrize(
    "shift, message",
    [(1, "negative homology dimension"), (-1, "cocycle space disagrees with coboundary ranks")],
    ids=["too-high", "too-low"],
)
def test_build_checks_vertex_dimensions_against_ranks_and_solves(monkeypatch, shift, message):
    # the sweep of every restriction ranks its coboundaries in reverse, so
    # the first coboundary's rank comes last.  Ranked one too high, degree
    # -1 gets a negative dimension; one too low, it gets a class that the
    # solve, reducing that map itself, does not find
    real = cohomology.complex_ranks

    def shifted(maps):
        ranks = real(maps)
        return [*ranks[:-1], ranks[-1] + shift] if ranks else ranks

    monkeypatch.setattr(cohomology, "complex_ranks", shifted)
    with pytest.raises(ContractError, match=message):
        hypercube._build_all_degrees.__wrapped__(cycle_nonedge_ideal(5), QQ)


def test_build_checks_d_d_of_every_restricted_complex(monkeypatch):
    # a cochain complex of D^v with one coboundary entry doubled, let in
    # without its check: the restriction to the full mask, selected from
    # it, refuses itself
    from lyub.cohomology import CochainComplex

    real = hypercube.cochain_complex

    def doubled(cx, field):
        cc = real(cx, field)
        first = cc.coboundaries[0]
        data = [((0, 2),), *first.data[1:]]
        bad = object.__new__(CochainComplex)
        for name, value in (("field", field), ("basis", cc.basis), ("coboundaries", (
            ExactMatrix._wrap(field, first.rows, first.cols, data), *cc.coboundaries[1:]
        ))):
            object.__setattr__(bad, name, value)
        return bad

    monkeypatch.setattr(hypercube, "cochain_complex", doubled)
    with pytest.raises(ContractError, match="d∘d != 0"):
        hypercube._build_all_degrees.__wrapped__(cycle_nonedge_ideal(5), QQ)
