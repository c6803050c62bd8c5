import random
from pathlib import Path

import pytest

from lyub import ContractError, QQ, cohomology, prime_field, stanley_reisner
from lyub.cli import parse_input
from lyub.cohomology import (
    cochain_complex,
    faces_by_vertex,
    link_cochains,
    reduced_cohomology_dims_all,
    restrict_cochains,
)
from lyub.combinatorics import (
    alexander_dual,
    bits_of,
    full_mask,
    full_simplex,
    link,
    popcount,
    restriction,
    simplicial_complex,
    submasks,
    void_complex,
)

from .conftest import (
    cycle_nonedge_ideal,
    nine_vars_ideal,
    rp2_ideal,
    small_supp_ideal,
    three_component_ideal,
)
from .oracles import induced_cohomology_map, masks, matmul, random_ideal, reduced_homology_dim

F2 = prime_field(2)
F3 = prime_field(3)
DEMO_IDEALS = Path(__file__).resolve().parents[1] / "demos" / "ideals"


def _complex(n, *lists):
    return simplicial_complex(full_mask(n), masks(*lists))


TWO_POINTS = _complex(2, [1], [2])
HOLLOW_TRIANGLE = _complex(3, [1, 2], [1, 3], [2, 3])
FOUR_CYCLE = _complex(4, [1, 2], [2, 3], [3, 4], [1, 4])


def test_basic_conventions():
    assert reduced_cohomology_dims_all(TWO_POINTS, QQ).get(0, 0) == 1
    assert reduced_cohomology_dims_all(HOLLOW_TRIANGLE, QQ).get(1, 0) == 1
    assert reduced_cohomology_dims_all(HOLLOW_TRIANGLE, QQ).get(0, 0) == 0
    void = void_complex(0b111)
    for q in (-2, -1, 0, 1):
        assert reduced_cohomology_dims_all(void, QQ).get(q, 0) == 0
    irrelevant = simplicial_complex(0b11, [0])
    assert reduced_cohomology_dims_all(irrelevant, QQ).get(-1, 0) == 1
    assert reduced_cohomology_dims_all(irrelevant, QQ).get(0, 0) == 0
    assert reduced_cohomology_dims_all(FOUR_CYCLE, QQ).get(-2, 0) == 0
    assert reduced_cohomology_dims_all(full_simplex(0b1111), QQ).get(1, 0) == 0


def test_projective_plane_depends_on_characteristic():
    cx = stanley_reisner(rp2_ideal())
    assert reduced_cohomology_dims_all(cx, QQ).get(1, 0) == 0
    assert reduced_cohomology_dims_all(cx, F2).get(1, 0) == 1
    assert reduced_cohomology_dims_all(cx, QQ).get(2, 0) == 0
    assert reduced_cohomology_dims_all(cx, F2).get(2, 0) == 1


def test_cohomology_dims_refuses_through_the_one_rule(monkeypatch):
    real = cohomology.complex_ranks
    monkeypatch.setattr(cohomology, "complex_ranks", lambda maps: [r + 1 for r in real(maps)])
    with pytest.raises(ContractError, match="negative homology dimension"):
        cochain_complex(HOLLOW_TRIANGLE, QQ).cohomology_dims()


def test_cochain_complex_squares_to_zero_and_dims():
    cc = cochain_complex(FOUR_CYCLE, QQ)
    assert [len(b) for b in cc.basis] == [1, 4, 4]
    dims = reduced_cohomology_dims_all(FOUR_CYCLE, QQ)
    assert dims == {1: 1}


def _brute_basis(cx):
    """Every submask of the vertex set that is a face, by size, each size
    sorted by vertex tuple; () for the void complex."""
    faces = [s for s in submasks(cx.vertices) if cx.has_face(s)]
    sizes = range(max(map(popcount, faces), default=-1) + 1)
    return tuple(
        tuple(sorted((f for f in faces if popcount(f) == s), key=lambda f: tuple(bits_of(f))))
        for s in sizes
    )


def test_cochain_basis_is_every_face_by_size_in_vertex_order():
    ideals = [cycle_nonedge_ideal(n) for n in range(4, 9)] + [
        rp2_ideal(), nine_vars_ideal(), three_component_ideal(), small_supp_ideal(),
    ]
    checked = 0
    for ideal in ideals:
        for cx in (stanley_reisner(ideal), stanley_reisner(alexander_dual(ideal))):
            for alpha in range(1 << ideal.n):
                for sub in (restriction(cx, alpha), link(cx, alpha)):
                    assert cochain_complex(sub, QQ).basis == _brute_basis(sub)
                    checked += not sub.is_void
    assert checked > 3000


def _entries(mat):
    return [[(c, x, type(x)) for c, x in row] for row in mat.data]


def _same_complex(got, want):
    """Same field, bases, shapes, entries and scalar types."""
    return (
        got.field == want.field
        and got.basis == want.basis
        and len(got.coboundaries) == len(want.coboundaries)
        and all(
            (a.rows, a.cols) == (b.rows, b.cols) and _entries(a) == _entries(b)
            for a, b in zip(got.coboundaries, want.coboundaries)
        )
    )


def test_selected_restriction_is_the_restrictions_own_complex():
    # selecting the faces inside alpha gives the bases, shapes, entries and
    # scalar types that forming the restriction's complex alone gives
    rng = random.Random(7)
    ideals = [cycle_nonedge_ideal(6), rp2_ideal(), three_component_ideal()]
    ideals += [random_ideal(rng, rng.randint(2, 7)) for _ in range(10)]
    checked = 0
    for ideal in ideals:
        for cx in (stanley_reisner(ideal), stanley_reisner(alexander_dual(ideal))):
            for field in (QQ, F2):
                whole = cochain_complex(cx, field)
                for alpha in range(1 << ideal.n):
                    got = restrict_cochains(whole, alpha)
                    want = cochain_complex(restriction(cx, alpha), field)
                    assert _same_complex(got, want)
                    checked += 1
    assert checked > 2000


def _link_corpus():
    rng = random.Random(11)
    ideals = [
        parse_input(path.read_text(encoding="utf-8")).ideal()
        for path in sorted(DEMO_IDEALS.glob("*.ideal"))
    ]
    ideals += [cycle_nonedge_ideal(n) for n in range(4, 8)]
    return ideals + [random_ideal(rng, rng.randint(2, 7)) for _ in range(20)]


def test_selected_link_is_the_links_own_complex():
    # the link of every face, selected from one complex, has the bases,
    # shapes, entries and scalar types that forming the link's complex
    # alone gives; a non-face selects the void link
    faces = 0
    for ideal in _link_corpus():
        delta = stanley_reisner(ideal)
        for field in (QQ, F2, F3):
            whole = cochain_complex(delta, field)
            index = faces_by_vertex(whole)
            for alpha in range(1 << ideal.n):
                want = cochain_complex(link(delta, alpha), field)
                assert _same_complex(link_cochains(whole, alpha, index), want)
                faces += delta.has_face(alpha)
    assert faces > 3000


def test_faces_by_vertex_lists_the_faces_containing_each_vertex():
    # every (size, vertex) list holds exactly the positions of the faces of
    # that size containing the vertex, increasing
    for ideal in _link_corpus():
        whole = cochain_complex(stanley_reisner(ideal), QQ)
        index = faces_by_vertex(whole)
        assert len(index) == len(whole.basis)
        for faces, by_vertex in zip(whole.basis, index):
            for v in range(ideal.n):
                want = [i for i, f in enumerate(faces) if f >> v & 1]
                assert by_vertex.get(v, []) == want


def test_the_link_of_a_facet_is_the_irrelevant_complex():
    delta = stanley_reisner(cycle_nonedge_ideal(6))
    whole = cochain_complex(delta, QQ)
    for facet in delta.facets:
        got = link_cochains(whole, facet, faces_by_vertex(whole))
        assert got.basis == ((0,),) and got.coboundaries == ()
        assert got.cohomology_dims() == {-1: 1}


_TWIST = cohomology._twist_mask
WRONG_TWISTS = {
    "untwisted": lambda alpha: 0,
    "every entry negated": lambda alpha: ~_TWIST(alpha),
}


@pytest.mark.parametrize("name", sorted(WRONG_TWISTS))
def test_a_wrong_sign_twist_is_caught(monkeypatch, name):
    # the comparison above rejects a link complex whose signs are twisted
    # the wrong way: its d∘d check refuses it, or its matrices differ
    monkeypatch.setattr(cohomology, "_twist_mask", WRONG_TWISTS[name])
    delta = stanley_reisner(cycle_nonedge_ideal(6))
    caught = 0
    for field in (QQ, F3):
        whole = cochain_complex(delta, field)
        for alpha in sorted(delta.faces()):
            try:
                got = link_cochains(whole, alpha, faces_by_vertex(whole))
            except ContractError:
                caught += 1
                continue
            caught += not _same_complex(got, cochain_complex(link(delta, alpha), field))
    assert caught


def test_chain_and_cochain_dims_agree():
    rng = random.Random(31)
    complexes = [TWO_POINTS, HOLLOW_TRIANGLE, FOUR_CYCLE, stanley_reisner(rp2_ideal())]
    for _ in range(20):
        ideal = random_ideal(rng, rng.randint(1, 6))
        complexes.append(stanley_reisner(ideal))
    for cx in complexes:
        for field in (QQ, F2):
            for q in range(-1, 5):
                h = reduced_cohomology_dims_all(cx, field).get(q, 0)
                assert h == reduced_homology_dim(cx, q, field)


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
    assert matmul(f_ms, f_bm) == f_bs


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
                assert matmul(f_ms, f_bm) == f_bs
