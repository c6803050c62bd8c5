"""Brute-force oracles, independent of the production code paths they check.

The Cech oracle computes graded pieces of H_I^r(R) straight from the
generator-indexed Cech covering complex; the Hochster oracle computes Betti
numbers as reduced cohomology of restrictions of the ideal's own complex.
Neither touches the hypercube or the Taylor minimization.  ``rank_naive``
and ``rref_naive`` are dense elimination, and ``dense_restricted_complex``
assembles a restricted hypercube complex block by block over every subset;
they read matrices only through ``ExactMatrix.dense``.
``homology_space_full_rows`` reduces every coordinate of a space where
``homology_space`` reduces only the free coordinates of d_out, and
``squares_commute`` multiplies out every square of a hypercube where the
build checks them as d∘d of its main complex.  ``per_edge_maps`` computes
the hypercube's edge maps with one ``solve_matrix`` per edge instead of
the one reduction per vertex the build uses, on cochain complexes formed
per restriction instead of selected from one complex; ``bass_row``
assembles a Bass row's complex on its own instead of selecting a support
hull's from one main complex, and ``brute_hull`` finds a mask's support
hull by enumeration instead of the Bass tables' subset sweep.

Reference constructions that the package itself does not need:
``brute_lyubeznik_cells`` tests every generator subset against the
definition of L-admissibility, to check ``lyubeznik_complex`` against the
restricted ``resolution.taylor_complex``; ``induced_cohomology_map`` is the
map on cohomology induced by an inclusion of complexes, and
``reduced_homology_dim`` reads homology off the transposed coboundaries;
``transpose_reverse`` builds the transposed complex whose homology
``resolution.lyubeznik_via_strands`` reads off the frame in reverse order;
``complex_alexander_dual`` and ``ideal_of`` (the inverse of
``stanley_reisner``) state the duality identities that the tests check.
"""

import random
from fractions import Fraction
from itertools import combinations

from lyub import (
    ContractError,
    ExactMatrix,
    InputError,
    rank,
    restriction,
    stanley_reisner,
)
from lyub.cohomology import (
    cochain_complex,
    cohomology_space,
    face_projection,
    reduced_cohomology_dims_all,
)
from lyub.combinatorics import (
    MonomialIdeal,
    SimplicialComplex,
    bits_of,
    contains,
    full_mask,
    full_simplex,
    mask_key,
    mask_of,
    minimal_transversals,
    minimalize,
    popcount,
    submasks,
)
from lyub.hypercube import restricted_complex
from lyub.linalg import (
    HomologySpace,
    VectorSpaceComplex,
    homology_dims,
    hstack,
    kernel_basis,
    rref,
)


def brute_membership(ideal, mask):
    return any(contains(mask, g) for g in ideal.gens)


def brute_intersection_gens(n, primes):
    """Minimal squarefree monomials lying in every face ideal, by enumeration."""
    members = [
        m
        for m in range(1, 1 << n)
        if all(m & p for p in primes)
    ]
    keep = [m for m in members if not any(contains(m, o) and o != m for o in members)]
    return sorted(keep, key=lambda m: (popcount(m), m))


def brute_minimal_primes(ideal):
    """Vanishing-locus enumeration over {0,1} points."""
    hits = [
        a
        for a in range(1, 1 << ideal.n)
        if all(g & a for g in ideal.gens)
    ]
    return sorted(
        (a for a in hits if not any(contains(a, b) and b != a for b in hits)),
        key=lambda m: (popcount(m), m),
    )


def brute_sr_faces(ideal):
    return {s for s in range(1 << ideal.n) if not brute_membership(ideal, s)}


def brute_complex_dual_faces(cx):
    faces = cx.faces()
    v = cx.vertices
    return {s for s in submasks(v) if (v ^ s) not in faces}


def cech_vertex_dim(ideal, r, alpha, field):
    """dim [H_I^r(R)]_{-alpha} from the Cech complex on the generators."""
    gens = ideal.gens
    q = len(gens)
    if r > q:
        return 0

    def covered(T):
        u = 0
        for t in T:
            u |= gens[t]
        return contains(u, alpha)

    layers = [
        [T for T in combinations(range(q), p) if covered(T)] for p in range(q + 1)
    ]

    def dmat(p):
        idx = {T: i for i, T in enumerate(layers[p])}
        out = [[0] * len(layers[p]) for _ in layers[p + 1]]
        for row, T in enumerate(layers[p + 1]):
            sign = 1
            for k in range(len(T)):
                col = idx.get(T[:k] + T[k + 1 :])
                if col is not None:
                    out[row][col] = sign
                sign = -sign
        return ExactMatrix(field, len(layers[p + 1]), len(layers[p]), out)

    h = len(layers[r])
    if r < q:
        h -= rank(dmat(r))
    if r >= 1:
        h -= rank(dmat(r - 1))
    return h


def rank_naive(mat):
    """Rank by plain dense field-arithmetic elimination.

    Shares no code with ``rank``, so it can cross-check the sparse engine.
    """
    f = mat.field
    m = mat.dense()
    r = 0
    for c in range(mat.cols):
        piv = next((i for i in range(r, mat.rows) if not f.is_zero(m[i][c])), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], -1, f.p) if f.p else 1 / Fraction(m[r][c])
        for i in range(r + 1, mat.rows):
            if not f.is_zero(m[i][c]):
                factor = m[i][c] * inv
                m[i] = [f.coerce(x - factor * y) for x, y in zip(m[i], m[r])]
        r += 1
    return r


def rref_naive(mat):
    """(reduced rows as dense lists of canonical scalars, pivot columns) by
    plain dense Gauss-Jordan elimination: the first nonzero row in each
    column is the pivot.

    Shares no code with ``rref``, so it can cross-check the sparse engine.
    """
    f = mat.field
    m = mat.dense()
    pivots = []
    for c in range(mat.cols):
        r = len(pivots)
        piv = next((i for i in range(r, mat.rows) if not f.is_zero(m[i][c])), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], -1, f.p) if f.p else 1 / Fraction(m[r][c])
        m[r] = [f.coerce(x * inv) for x in m[r]]
        for i in range(mat.rows):
            if i != r and not f.is_zero(m[i][c]):
                factor = m[i][c]
                m[i] = [f.coerce(x - factor * y) for x, y in zip(m[i], m[r])]
        pivots.append(c)
    return m, pivots


def homology_space_full_rows(field, dim, d_out, d_in, vectors=None):
    """``homology_space`` by one rref of the full dim-row matrix [d_in |
    ker d_out | vectors], with ker d_out stacked as a matrix: a pivot in
    the vectors block is a column outside the cycles, which is refused.
    The reference for the production reduction on the free coordinates of
    d_out alone."""
    if d_in is None:
        d_in = ExactMatrix(field, dim, 0)
    if vectors is None:
        vectors = ExactMatrix(field, dim, 0)
    ker = kernel_basis(d_out) if d_out is not None else ExactMatrix.identity(field, dim)
    k0 = d_in.cols
    v0 = k0 + ker.cols
    red, pivots = rref(hstack(field, [d_in, ker, vectors], dim))
    if pivots and pivots[-1] >= v0:
        raise ContractError("inconsistent linear system")
    image = d_in.columns([c for c in pivots if c < k0])
    reps = ker.columns([c - k0 for c in pivots if c >= k0])
    classes = [
        tuple((c - v0, x) for c, x in row if c >= v0)
        for row, pc in zip(red.data, pivots)
        if pc >= k0
    ]
    space = HomologySpace(field, dim, reps.cols, reps, image)
    return space, ExactMatrix._wrap(field, reps.cols, vectors.cols, classes)


def squares_commute(cube):
    """u_{a+e_i,j} u_{a,i} == u_{a+e_j,i} u_{a,j} on every square from a
    nonzero vertex a to a nonzero vertex a+e_i+e_j, by two products per
    square."""
    for alpha in cube.dims:
        for i in range(cube.n):
            if alpha >> i & 1:
                continue
            for j in range(i + 1, cube.n):
                if alpha >> j & 1:
                    continue
                if not cube.vertex_dim(alpha | 1 << i | 1 << j):
                    continue
                via_i = cube.edge(alpha | 1 << i, j).matmul(cube.edge(alpha, i))
                via_j = cube.edge(alpha | 1 << j, i).matmul(cube.edge(alpha, j))
                if via_i != via_j:
                    return False
    return True


def dense_restricted_complex(cube, amask, bmask):
    """(dims, maps as dense row lists) of ``restricted_complex``, assembled
    block by block over all 2^|amask| subsets gamma of amask.

    The block from gamma to gamma - e_i is (-1)^(bits of gamma below i)
    times the edge at bmask - gamma in direction i, or the identity when i
    is outside bmask.
    """
    field = cube.field
    levels = [[] for _ in range(popcount(amask) + 1)]
    for g in submasks(amask):
        levels[popcount(g)].append(g)
    offset, dims = {}, []
    for lv in levels:
        lv.sort()
        total = 0
        for g in lv:
            offset[g] = total
            total += cube.vertex_dim(bmask & ~g)
        dims.append(total)
    maps = []
    for p in range(len(levels) - 1):
        out = [[0] * dims[p + 1] for _ in range(dims[p])]
        for g in levels[p + 1]:
            d = cube.vertex_dim(bmask & ~g)
            for i in bits_of(g):
                if bmask >> i & 1:
                    block = cube.edge(bmask & ~g, i).dense()
                else:
                    block = [[int(a == b) for b in range(d)] for a in range(d)]
                sign = -1 if popcount(g & ((1 << i) - 1)) % 2 else 1
                r0, c0 = offset[g ^ 1 << i], offset[g]
                for a, row in enumerate(block):
                    for b, x in enumerate(row):
                        out[r0 + a][c0 + b] = field.coerce(sign * x)
        maps.append(out)
    return dims, maps


def bass_row(cube, alpha):
    """mu_p(p_alpha) for p = 0..|alpha|, from the complex of alpha assembled
    on its own: the direct reference for the Bass tables' hull selections."""
    return homology_dims(restricted_complex(cube, alpha, alpha))


def brute_hull(cube, alpha):
    """The union of the cube's nonzero vertices below alpha, by enumeration."""
    hull = 0
    for v in cube.dims:
        if v & ~alpha == 0:
            hull |= v
    return hull


def solve_matrix(a, b):
    """Some X with a @ X = b, from the rref of [a | b]; raises ContractError
    if the system is inconsistent."""
    if a.rows != b.rows:
        raise InputError("solve shape mismatch")
    f = a.field
    n = a.cols
    red, pivots = rref(hstack(f, [a, b], a.rows))
    if pivots and pivots[-1] >= n:
        raise ContractError("inconsistent linear system")
    data = [()] * n
    for row, pc in zip(red.data, pivots):
        data[pc] = tuple((c - n, v) for c, v in row if c >= n)
    return ExactMatrix._wrap(f, n, b.cols, data)


def per_edge_maps(ideal, r, field):
    """{(alpha, i): edge matrix} of the degree-r hypercube between nonzero
    vertices, each edge solved on its own.

    The vertex at alpha is H^{r-2} of the alpha-restriction of the dual
    complex (alpha = 0 pinned to zero).  For an edge, the big vertex's
    representatives are restricted to the small faces, densely, and
    ``solve_matrix`` of [image | reps | v] gives their classes; the edge is
    the transpose of the reps part.
    """
    dual = complex_alexander_dual(stanley_reisner(ideal))
    q = r - 2
    spaces = {}
    for alpha in range(1, 1 << ideal.n):
        cc = cochain_complex(restriction(dual, alpha), field)
        hsp, _ = cohomology_space(cc, q)
        if hsp.dim:
            spaces[alpha] = (hsp, cc.faces(q))
    edges = {}
    for alpha, (small, faces_small) in spaces.items():
        basis = hstack(field, [small.image, small.reps], small.space_dim)
        for i in range(ideal.n):
            if alpha >> i & 1 or alpha | 1 << i not in spaces:
                continue
            big, faces_big = spaces[alpha | 1 << i]
            reps = big.reps.dense()
            at = {f: k for k, f in enumerate(faces_big)}
            v = ExactMatrix(field, len(faces_small), big.dim, [reps[at[f]] for f in faces_small])
            x = solve_matrix(basis, v).dense()[small.image.cols:]
            edges[(alpha, i)] = ExactMatrix(field, small.dim, big.dim, x).transpose()
    return edges


def hochster_betti_counts(ideal, field):
    """beta_{j,alpha} of the ideal as reduced cohomology of restrictions."""
    cx = stanley_reisner(ideal)
    counts = {}
    for a in range(1 << ideal.n):
        dims = reduced_cohomology_dims_all(restriction(cx, a), field)
        size = popcount(a)
        for j in range(size + 1):
            d = dims.get(size - j - 2, 0)
            if d:
                counts[(j, a)] = d
    return counts


def brute_lyubeznik_cells(ideal):
    """The L-admissible generator subsets by size (level s holds the
    admissible (s+1)-subsets, in lexicographic order), up to the last
    nonempty level.

    Every subset is tested against the definition: (i_1 < ... < i_s) is
    admissible when, for every t < s, no generator m_k with k < i_t divides
    lcm(m_{i_t}, ..., m_{i_s}).
    """
    gens = ideal.gens
    levels = [[] for _ in gens]
    for size in range(1, len(gens) + 1):
        for s in combinations(range(len(gens)), size):
            admissible = True
            for t in range(size - 1):
                lcm = 0
                for i in s[t:]:
                    lcm |= gens[i]
                if any(contains(lcm, gens[k]) for k in range(s[t])):
                    admissible = False
            if admissible:
                levels[size - 1].append(s)
    while levels and not levels[-1]:
        levels.pop()
    return levels


def transpose_reverse(cx):
    """Reverse positions and transpose maps (the dual complex), checked
    d∘d = 0 afresh: the strand route's transposed strand, built out."""
    dims = tuple(reversed(cx.dims))
    maps = tuple(m.transpose() for m in reversed(cx.maps))
    return VectorSpaceComplex(cx.field, dims, maps)


def reduced_homology_dim(cx, q, field):
    """Reduced simplicial homology in degree q, from the ranks of the
    transposed (chain) matrices of the cochain complex."""
    cc = cochain_complex(cx, field)
    h = cc.space_dim(q)
    for d in (cc.coboundary(q), cc.coboundary(q - 1)):
        if d is not None:
            h -= rank(d.transpose())
    if h < 0:
        raise ContractError("negative homology dimension")
    return h


def induced_cohomology_map(small, big, q, field):
    """Matrix of the restriction-induced map H^q(big) -> H^q(small).

    Rows are indexed by the deterministic cohomology basis of ``small``,
    columns by that of ``big``: the classes of the big representatives,
    restricted to the small faces, in the small space.
    """
    small_cc = cochain_complex(small, field)
    big_cc = cochain_complex(big, field)
    big_space, _ = cohomology_space(big_cc, q)
    restricted = face_projection(field, small_cc.faces(q), big_cc.faces(q))
    _, induced = cohomology_space(small_cc, q, restricted.matmul(big_space.reps))
    return induced


def complex_alexander_dual(cx):
    """{sigma <= V : V\\sigma not a face}, on the same vertex set; involution.

    Facets are complements of minimal non-faces, so the dual of the void
    complex is the full simplex and the dual of the full simplex is void.
    """
    v = cx.vertices
    if cx.is_void:
        return full_simplex(v)
    nonfaces = minimal_transversals([v & ~f for f in cx.facets])
    return SimplicialComplex(v, tuple(sorted((v ^ t for t in nonfaces), key=mask_key)))


def ideal_of(cx):
    """Inverse of stanley_reisner: the ideal of minimal non-faces, for a
    complex on the full vertex set of k[x1..xn]."""
    n = cx.vertices.bit_length()
    if cx.is_void:
        return MonomialIdeal(n, (0,))
    return MonomialIdeal(n, tuple(minimal_transversals([cx.vertices ^ f for f in cx.facets])))


def random_ideal(rng: random.Random, n: int) -> MonomialIdeal:
    """A random proper nonzero squarefree monomial ideal."""
    count = rng.randint(1, 2 * n)
    gens = [rng.randint(1, (1 << n) - 1) for _ in range(count)]
    return minimalize(n, gens)


def random_matrix(rng, field, rows, cols, span=9):
    data = [
        [field.coerce(rng.randint(-span, span)) for _ in range(cols)]
        for _ in range(rows)
    ]
    return ExactMatrix(field, rows, cols, data)


def random_fraction_matrix(rng, field, rows, cols):
    from fractions import Fraction

    data = [
        [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(cols)]
        for _ in range(rows)
    ]
    return ExactMatrix(field, rows, cols, data)


def full(n):
    return full_mask(n)


def masks(*lists):
    return [mask_of(i - 1 for i in L) for L in lists]
