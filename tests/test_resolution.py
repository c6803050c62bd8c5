import random
from fractions import Fraction
from itertools import combinations

import pytest

from lyub import (
    ContractError,
    DomainError,
    ExactMatrix,
    GradedFreeComplex,
    InputError,
    QQ,
    ResourceError,
    alexander_dual,
    betti_numbers,
    build_hypercube,
    linearity_defect,
    lyubeznik_complex,
    lyubeznik_table,
    lyubeznik_via_strands,
    minimal_resolution,
    minimize,
    prime_field,
    rank,
    strand_frame,
    strand_homology,
)
from lyub import linalg, resolution
from lyub.combinatorics import MonomialIdeal, mask_of, popcount
from lyub.resolution import taylor_complex
from lyub.linalg import homology_dims
from lyub.tables import BettiTable, LyubeznikTable

from .conftest import cycle_nonedge_ideal, gens_ideal, tiny_ideals
from .oracles import (
    brute_lyubeznik_cells,
    from_rows,
    hochster_betti_counts,
    matmul,
    random_ideal,
    transpose_reverse,
)

F2 = prime_field(2)


def test_taylor_two_generator_complete_intersection():
    ideal = gens_ideal(4, [[1, 3], [2, 4]])
    cx = taylor_complex(ideal, QQ)
    assert [len(d) for d in cx.degrees] == [2, 1]
    assert cx.degrees[1] == (mask_of([0, 1, 2, 3]),)
    assert cx.is_minimal()
    assert minimize(cx).degrees == cx.degrees


def test_taylor_single_generator():
    cx = taylor_complex(gens_ideal(2, [[1]]), QQ)
    assert [len(d) for d in cx.degrees] == [1]
    assert cx.diffs == ()


def _free_complex(field, degrees, mats):
    """A hand-built free complex on the given degree masks, one dense
    scalar matrix per differential."""
    diffs = tuple(from_rows(field, m) for m in mats)
    return GradedFreeComplex(field, degrees, diffs)


def test_free_complex_refuses_nonzero_composite(field):
    with pytest.raises(ContractError, match="d∘d"):
        _free_complex(field, ((0b1,), (0b11,), (0b111,)), ([[1]], [[1]]))


def test_free_complex_composite_summing_to_two():
    # the one entry of d∘d is 1 + 1: zero over F_2 only
    degrees = ((0b1,), (0b11, 0b101), (0b111,))
    mats = ([[1, 1]], [[1], [1]])
    assert len(_free_complex(F2, degrees, mats).degrees) == 3
    with pytest.raises(ContractError, match="d∘d"):
        _free_complex(QQ, degrees, mats)


def test_free_complex_refuses_entry_violating_divisibility(field):
    with pytest.raises(ContractError, match="divisibility"):
        _free_complex(field, ((0b01,), (0b10,)), ([[1]],))


def test_taylor_dual_a5_has_31_subsets(a5):
    cx = taylor_complex(alexander_dual(a5), QQ)
    assert sum(len(d) for d in cx.degrees) == 31


def test_taylor_generator_cap():
    gens = tuple(1 << i for i in range(21))
    with pytest.raises(ResourceError):
        taylor_complex(MonomialIdeal(21, gens), QQ)


def test_taylor_unit_ideal_rejected():
    with pytest.raises(DomainError):
        taylor_complex(MonomialIdeal(2, (0,)), QQ)


def test_minimize_leaves_minimal_complex_alone(a4):
    cx = taylor_complex(alexander_dual(a4), QQ)
    out = minimize(cx)
    assert out.degrees == cx.degrees
    assert out.diffs == cx.diffs


def test_minimize_forward_reverse_confluence(a5, ex53, ex57, ex46):
    rng = random.Random(71)
    ideals = [alexander_dual(i) for i in (a5, ex53, ex57, ex46)]
    ideals += [random_ideal(rng, rng.randint(2, 6)) for _ in range(15)]
    for ideal in ideals:
        cx = taylor_complex(ideal, QQ)
        fwd = minimize(cx, order="forward")
        rev = minimize(cx, order="reverse")
        assert fwd.degrees == rev.degrees
        for f in (QQ, F2):
            # the same Betti numbers; Taylor's longer tail minimizes away
            lcx = minimize(lyubeznik_complex(ideal, f))
            taylor = minimize(taylor_complex(ideal, f)).degrees
            cut = len(lcx.degrees)
            assert lcx.degrees == taylor[:cut] and not any(taylor[cut:])


def test_minimize_refuses_an_unknown_order(a4):
    cx = lyubeznik_complex(alexander_dual(a4), QQ)
    for order in ("backward", "Forward", ""):
        with pytest.raises(InputError, match="order"):
            minimize(cx, order=order)


SCALES = (2, 3, Fraction(1, 2), Fraction(-2, 3))


def _rescaled(cx, rng):
    """cx under a diagonal change of basis with entries in SCALES."""
    s = [[rng.choice(SCALES) for _ in degs] for degs in cx.degrees]
    diffs = tuple(
        ExactMatrix.from_entries(cx.field, d.rows, d.cols, (
            ((r, c), Fraction(v) * s[j][r] / s[j + 1][c])
            for r, row in enumerate(d.data) for c, v in row
        ))
        for j, d in enumerate(cx.diffs)
    )
    return GradedFreeComplex(cx.field, cx.degrees, diffs)


def test_minimize_undoes_a_diagonal_change_of_basis(monkeypatch, a5, ex53):
    # Fraction-free elimination rescales rows of d_{j+1} here; minimization
    # must divide the matching columns of d_j, or its d∘d check refuses.
    scaled_rows = 0

    def counting_cancel(rows, p, eligible=None):
        nonlocal scaled_rows
        pivots, factors = linalg.cancel(rows, p, eligible)
        scaled_rows += len(factors)
        return pivots, factors

    monkeypatch.setattr(resolution, "cancel", counting_cancel)
    rng = random.Random(97)
    ideals = [alexander_dual(i) for i in (a5, ex53)]
    ideals += [alexander_dual(random_ideal(rng, rng.randint(3, 6))) for _ in range(10)]
    for ideal in ideals:
        if not ideal.is_proper_nonzero:
            continue
        cx = lyubeznik_complex(ideal, QQ)
        want = minimize(cx).degrees
        scaled = _rescaled(cx, rng)
        for order in ("forward", "reverse"):
            assert minimize(scaled, order).degrees == want
    assert scaled_rows


def test_betti_two_generator_example():
    ideal = gens_ideal(4, [[1, 3], [2, 4]])
    bt = betti_numbers(ideal, QQ)
    assert bt.entries == (
        (0, mask_of([0, 2]), 1),
        (0, mask_of([1, 3]), 1),
        (1, mask_of([0, 1, 2, 3]), 1),
    )


def test_betti_dual_a5_level_sums(a5):
    bt = betti_numbers(alexander_dual(a5), QQ)
    assert sum(c for j, a, c in bt.entries if (j, popcount(a)) == (0, 2)) == 5
    assert sum(c for j, a, c in bt.entries if (j, popcount(a)) == (1, 3)) == 5
    assert bt.total(0) == 5 and bt.total(1) == 5 and bt.total(2) == 1


def test_betti_strand_support_bound(a5, ex46):
    for ideal in (alexander_dual(a5), alexander_dual(ex46)):
        least = popcount(ideal.gens[0])
        for j, alpha, c in betti_numbers(ideal, QQ).entries:
            assert c > 0
            assert j <= popcount(alpha) - least


def test_betti_matches_hochster_oracle(field, a4, a5, ex53, ex57):
    rng = random.Random(17)
    ideals = [a4, alexander_dual(a5), ex53, alexander_dual(ex57)]
    ideals += [random_ideal(rng, rng.randint(2, 5)) for _ in range(10)]
    for ideal in ideals:
        bt = betti_numbers(ideal, field)
        assert bt == BettiTable.from_counts(hochster_betti_counts(ideal, field))


def test_rp2_betti_tables_differ_and_dominate(ex46):
    dual = alexander_dual(ex46)
    bq = betti_numbers(dual, QQ)
    b2 = betti_numbers(dual, F2)
    assert bq != b2
    assert b2.dominates(bq)
    assert not bq.dominates(b2)


def test_strand_frame_out_of_range(a5):
    dual = alexander_dual(a5)
    assert strand_frame(dual, 1, QQ).dims == ()
    assert strand_frame(dual, 6, QQ).dims == ()


def test_strand_frame_dual_a5(a5):
    frame = strand_frame(alexander_dual(a5), 2, QQ)
    assert frame.dims == (5, 5, 0, 0)
    assert rank(frame.maps[0]) == 4


def test_linear_resolution_frame_exact_off_zero():
    # (x1, x2) has the Koszul resolution, a single linear strand
    ideal = gens_ideal(2, [[1], [2]])
    h = strand_homology(ideal, 1, QQ)
    assert h[0] > 0 and not any(h[1:])
    defect = linearity_defect(ideal, QQ)
    assert defect == 0


def test_lyubeznik_via_strands_tables(a4, a5):
    t4 = lyubeznik_via_strands(a4, QQ)
    assert t4.entries == ((0, 1, 0), (0, 0, 0), (0, 0, 2))
    t5 = lyubeznik_via_strands(a5, QQ)
    assert t5.entries == (
        (0, 0, 1, 0),
        (0, 0, 0, 0),
        (0, 0, 0, 1),
        (0, 0, 0, 1),
    )


def test_lyubeznik_via_strands_reads_the_transposed_strands(a4, a5, a6, a7, ex46, ex52, ex53, ex57, field):
    # the table from the homology of each transposed strand frame, built out
    rng = random.Random(17)
    randoms = [random_ideal(rng, rng.randint(2, 6)) for _ in range(20)]
    for ideal in [a4, a5, a6, a7, ex46, ex52, ex53, ex57] + randoms:
        dual = alexander_dual(ideal)
        n = ideal.n
        values = {}
        for r in range(n + 1):
            frame = strand_frame(dual, r, field)
            if frame.dims:
                for p, h in enumerate(homology_dims(transpose_reverse(frame))):
                    values[(p, n - r)] = h
        d = n - min(popcount(g) for g in dual.gens)
        expected = LyubeznikTable.from_entries(d, values)
        assert lyubeznik_via_strands(ideal, field) == expected


def test_cohen_macaulay_ideals_trivial_table():
    # face ideals and their duals are Cohen-Macaulay
    for ideal in (
        gens_ideal(3, [[1], [2]]),
        gens_ideal(4, [[1, 2, 3, 4]]),
        gens_ideal(3, [[1, 2], [1, 3], [2, 3]]),
    ):
        assert lyubeznik_via_strands(ideal, QQ).is_trivial


def test_linearity_defect_values(a4, ex52):
    assert linearity_defect(alexander_dual(a4), QQ) > 0
    assert linearity_defect(alexander_dual(ex52), QQ) == 0


def test_linearity_defect_zero_iff_trivial_table(field):
    rng = random.Random(83)
    for _ in range(12):
        ideal = random_ideal(rng, rng.randint(2, 5))
        trivial = lyubeznik_table(ideal, field).is_trivial
        assert (linearity_defect(alexander_dual(ideal), field) == 0) == trivial


def test_frame_homology_matches_hypercube_levels(a5):
    # frame dims at level j equal total hypercube dimensions in level j + r
    dual = alexander_dual(a5)
    for r in range(2, 6):
        frame = strand_frame(dual, r, QQ)
        cube = build_hypercube(a5, r, QQ)
        for j, dim in enumerate(frame.dims):
            assert dim == sum(d for a, d in cube.dims.items() if popcount(a) == j + r)


def test_minimal_resolution_cached(a5):
    dual = alexander_dual(a5)
    assert minimal_resolution(dual, QQ) is minimal_resolution(dual, QQ)


def test_minimized_complex_invariants(ex53, ex57):
    for ideal in (alexander_dual(ex53), alexander_dual(ex57)):
        res = minimal_resolution(ideal, QQ)
        assert res.is_minimal()
        # d∘d = 0 and divisibility are checked at construction; spot-check
        # matrix composition as well
        for j in range(len(res.diffs) - 1):
            assert not any(matmul(res.diffs[j], res.diffs[j + 1]).data)


def test_lyubeznik_complex_cell_counts():
    duals = [alexander_dual(cycle_nonedge_ideal(n)) for n in (7, 8)]
    cells = [sum(len(t) for t in lyubeznik_complex(d, QQ).degrees) for d in duals]
    assert cells == [367, 1295]


def test_lyubeznik_complex_is_taylor_restricted(a4, a5, ex53, ex57, ex46):
    # the Lyubeznik complex is the Taylor complex restricted to the subsets
    # that pass the definition of L-admissibility, level for level and sign
    # for sign, and it ends at the last level with an admissible subset
    rng = random.Random(29)
    ideals = [alexander_dual(i) for i in (a4, a5, ex53, ex57, ex46)]
    ideals += [random_ideal(rng, rng.randint(2, 6)) for _ in range(15)]
    for ideal in ideals:
        cells = brute_lyubeznik_cells(ideal)
        q = len(ideal.gens)
        for f in (QQ, F2):
            lcx = lyubeznik_complex(ideal, f)
            tcx = taylor_complex(ideal, f)
            assert len(lcx.degrees) == len(cells)
            positions = []
            for j, level in enumerate(cells):
                where = {s: i for i, s in enumerate(combinations(range(q), j + 1))}
                pos = [where[s] for s in level]
                assert [tcx.degrees[j][i] for i in pos] == list(lcx.degrees[j])
                positions.append(pos)
            for j, d in enumerate(lcx.diffs):
                taylor = tcx.diffs[j].dense()
                restricted = [
                    [taylor[r][c] for c in positions[j + 1]] for r in positions[j]
                ]
                assert d.dense() == restricted


def test_lyubeznik_complex_zero_and_unit_ideals():
    assert lyubeznik_complex(MonomialIdeal(3, ()), QQ).degrees == ()
    with pytest.raises(DomainError):
        lyubeznik_complex(MonomialIdeal(2, (0,)), QQ)


def test_lyubeznik_complex_cell_cap():
    # every subset of the 21 edges of a path is admissible: 2^21 - 1 cells
    path = MonomialIdeal(22, tuple(0b11 << i for i in range(21)))
    with pytest.raises(ResourceError, match="exceed"):
        lyubeznik_complex(path, F2)


def test_lyubeznik_complex_many_generators_refused_before_testing(monkeypatch):
    # the 1001 4-subsets of 14 variables: few admissible pairs, but about
    # 1.7 * 10^8 divisibility tests in the worst case at the second level
    quads = MonomialIdeal(14, tuple(mask_of(c) for c in combinations(range(14), 4)))

    def no_test(*_):
        raise AssertionError("a divisibility test ran before the refusal")

    monkeypatch.setattr(resolution, "contains", no_test)
    with pytest.raises(ResourceError, match="divisibility tests"):
        betti_numbers(quads, F2)


def test_betti_matches_hochster_oracle_f2_duals(a4, a5, a6, ex46):
    rng = random.Random(37)
    ideals = [alexander_dual(i) for i in (a4, a5, a6, ex46)]
    ideals += [alexander_dual(random_ideal(rng, rng.randint(2, 5))) for _ in range(10)]
    for ideal in ideals:
        if not ideal.is_proper_nonzero:
            continue
        bt = betti_numbers(ideal, F2)
        assert bt == BettiTable.from_counts(hochster_betti_counts(ideal, F2))


def test_lyubeznik_table_check_a8(field):
    lyubeznik_table(cycle_nonedge_ideal(8), field, check=True)


def test_minimized_cache_is_bounded():
    size = resolution.MINIMIZED_CACHE_SIZE
    assert minimal_resolution.cache_info().maxsize == size
    minimal_resolution.cache_clear()
    ideals = tiny_ideals(size + 1)
    for ideal in ideals[:size]:
        minimal_resolution(ideal, QQ)
    minimal_resolution(ideals[0], QQ)  # a hit: ideals[0] is now the most recent
    minimal_resolution(ideals[-1], QQ)
    info = minimal_resolution.cache_info()
    assert (info.currsize, info.misses, info.hits) == (size, size + 1, 1)
    # the least recently used entry, that of ideals[1], was evicted
    minimal_resolution(ideals[0], QQ)
    assert minimal_resolution.cache_info().misses == size + 1
    minimal_resolution(ideals[1], QQ)
    assert minimal_resolution.cache_info().misses == size + 2
