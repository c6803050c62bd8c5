import random
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
from lyub import hypercube
from lyub.cohomology import reduced_cohomology_dims_all
from lyub.combinatorics import (
    MonomialIdeal,
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
)
from .oracles import (
    cech_vertex_dim,
    complex_alexander_dual,
    dense_restricted_complex,
    induced_cohomology_map,
    masks,
    per_edge_maps,
    random_ideal,
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
            assert cube.edge_mats == {}


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
    # the other; bits of amask outside bmask give identity blocks
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
                    dims, maps = dense_restricted_complex(cube, amask, bmask)
                    cx = restricted_complex(cube, amask, bmask)
                    assert list(cx.dims) == dims
                    assert [m.dense() for m in cx.maps] == maps, (r, amask, bmask)


def test_checks_catch_one_changed_edge_entry(ex57):
    # H^3 of ex57 has nonzero vertices on three consecutive levels.  Add one
    # to entry (a, 0) of an edge (alpha, i) whose next edge (alpha+e_i, j)
    # has a nonzero column a: that square stops commuting, and so d∘d of
    # the main complex is nonzero on it.
    cube = build_hypercube(ex57, 3, QQ)
    found = None
    for (alpha, i), mat in sorted(cube.edge_mats.items()):
        for j in range(ex57.n):
            nxt = cube.edge_mats.get((alpha | 1 << i, j))
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
    edges = dict(cube.edge_mats)
    edges[key] = ExactMatrix(QQ, mat.rows, mat.cols, entries)
    broken = Hypercube(cube.n, cube.r, cube.field, cube.dims, edges)
    full = full_mask(ex57.n)
    with pytest.raises(ContractError):
        restricted_complex(broken, full, full)
    with pytest.raises(ContractError):
        hypercube._verify_commutativity(broken)


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
    assert same.dims == cube.dims and same.edge_mats == cube.edge_mats
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
        assert dd.edge_mats == cube.edge_mats


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


def test_hypercube_caching(a5):
    assert build_hypercube(a5, 2, QQ) is build_hypercube(a5, 2, QQ)


def test_hypercube_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(hypercube, "HYPERCUBE_CACHE_SIZE", 3)
    monkeypatch.setattr(hypercube, "_cache", {})
    ideals = [gens_ideal(5, [[i], [j]]) for i in range(1, 6) for j in range(i + 1, 6)]
    for ideal in ideals:
        build_hypercube(ideal, 2, QQ)
        assert len(hypercube._cache) <= 3
    # oldest first: the last three requests are the ones kept
    kept = [key[1] for key in hypercube._cache]
    assert kept == [ideal.gens for ideal in ideals[-3:]]


def test_hypercube_cache_holds_every_degree_in_one_entry(monkeypatch, a5):
    monkeypatch.setattr(hypercube, "_cache", {})
    cubes = [build_hypercube(a5, r, QQ) for r in range(a5.n + 1)]
    assert len(hypercube._cache) == 1
    assert [cube.r for cube in cubes] == list(range(a5.n + 1))
    again = [build_hypercube(a5, r, QQ) for r in range(a5.n + 1)]
    assert all(x is y for x, y in zip(again, cubes))


def _record_complexes(monkeypatch):
    """Make the build record the vertex set of every cochain complex it forms."""
    formed = []
    real = hypercube.cochain_complex

    def recording(cx, field):
        formed.append(cx.vertices)
        return real(cx, field)

    monkeypatch.setattr(hypercube, "cochain_complex", recording)
    return formed


def test_build_skips_only_cones(monkeypatch, a4, a5, ex53, ex57, field):
    # Brute force, without minimal primes: every mask the build skips is a
    # cone (its facets share a vertex) with zero reduced cohomology, and
    # every other nonzero mask gets exactly one complex.
    rng = random.Random(4)
    ideals = [a4, a5, ex53, ex57, nine_vars_ideal(), rp2_ideal()]
    ideals += [random_ideal(rng, rng.randint(2, 7)) for _ in range(20)]
    formed = _record_complexes(monkeypatch)
    skipped_total = 0
    for ideal in ideals:
        formed.clear()
        hypercube._build_all_degrees(ideal, field)
        full = full_mask(ideal.n)
        dual = simplicial_complex(full, [full ^ g for g in ideal.gens])
        once = set(formed)
        assert len(once) == len(formed)
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
    # nine: 270 of its 511 nonzero masks are unions of minimal primes
    formed = _record_complexes(monkeypatch)
    hypercube._build_all_degrees(ideal, QQ)
    assert len(formed) == complexes


def test_edges_are_transposed_induced_cohomology_maps(ex53, a5):
    # every stored edge equals the transpose of the inclusion-induced map
    # between the restricted dual complexes, in the same deterministic bases;
    # both go through linalg.homology_space with the restricted representatives
    # as its vectors, so per_edge_maps is the independent check
    from lyub import stanley_reisner

    for ideal, r in ((ex53, 4), (a5, 2)):
        cube = build_hypercube(ideal, r, QQ)
        dual = complex_alexander_dual(stanley_reisner(ideal))
        assert cube.edge_mats
        for (alpha, i), mat in cube.edge_mats.items():
            small = restriction(dual, alpha)
            big = restriction(dual, alpha | 1 << i)
            induced = induced_cohomology_map(small, big, r - 2, QQ)
            assert mat == induced.transpose()


@pytest.mark.parametrize("f", [QQ, F3], ids=["q", "f3"])
def test_edges_match_per_edge_solve_oracle(a5, ex53, ex57, ex52, f):
    # one solve per vertex gives exactly the matrices of one solve per edge
    for ideal in (a5, ex53, ex57, ex52):
        for r in range(ideal.n + 1):
            cube = build_hypercube(ideal, r, f)
            oracle = per_edge_maps(ideal, r, f)
            assert cube.edge_mats.keys() == oracle.keys()
            for key, mat in cube.edge_mats.items():
                assert mat == oracle[key], (ideal.gens, r, key)
                assert [[type(v) for _, v in row] for row in mat.data] == [
                    [type(v) for _, v in row] for row in oracle[key].data
                ]
