"""Brute-force oracles, independent of the production code paths they check.

The Cech oracle computes graded pieces of H_I^r(R) straight from the
generator-indexed Cech covering complex; the Hochster oracle computes Betti
numbers as reduced cohomology of restrictions of the ideal's own complex.
Neither touches the hypercube or the Taylor minimization.  ``rank_naive``
and ``rref_naive`` are dense elimination, and ``dense_restricted_complex``
assembles a restricted hypercube complex block by block over every subset;
they read matrices only through ``ExactMatrix.dense``.
``homology_space_full_rows`` reduces every coordinate of a space where
``homology_space`` reduces only the free coordinates of d_out;
``solve_homology`` solves for the classes of given cycles with the
cycles in the reduction, where ``homology_space`` reduces without them
and ``homology_classes`` multiplies them by its projection; and
``squares_commute`` multiplies out every square of a hypercube where its
constructor checks them as d∘d of its main complex.  ``per_edge_maps`` computes
the hypercube's edge maps with one ``solve_matrix`` per edge instead of
the one reduction per vertex the build uses, on cochain complexes formed
per restriction instead of selected from one complex, and
``per_mask_hypercubes`` solves every mask on its own, where the build
solves each distinct restricted complex once; ``nonzero_edges`` lists a
cube's edges between nonzero vertices through ``Hypercube.edge``;
``bass_row``
assembles a Bass row's complex on its own instead of reading ranks of the
main complex, ``interval_complex`` selects one interval of the main
complex as its own checked complex (the per-hull reference for the Bass
tables' one walk over the hulls), and ``brute_hull`` finds a mask's
support hull by enumeration instead of the Bass tables' subset sweep.

Reference constructions that the package itself does not need:
``brute_lyubeznik_cells`` tests every generator subset against the
definition of L-admissibility, to check ``lyubeznik_complex`` against the
restricted ``resolution.taylor_complex``; ``induced_cohomology_map`` is the
map on cohomology induced by an inclusion of complexes, and
``reduced_homology_dim`` reads homology off the transposed coboundaries;
``transpose_reverse`` builds the transposed complex whose homology
``resolution.lyubeznik_via_strands`` reads off the frame in reverse order;
``complex_alexander_dual`` and ``ideal_of`` (the inverse of
``stanley_reisner``) state the duality identities that the tests check;
``from_rows`` makes a matrix from dense rows, ``hstack`` puts matrices
side by side, ``matmul`` multiplies two of them and ``kernel_basis``
gives a basis of a kernel, and ``cohomology_space`` runs
``solve_homology`` on one degree of a cochain complex, for the oracles
that solve per restriction or per edge.
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
    face_projection,
    reduced_cohomology_dims_all,
    restrict_cochains,
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
from lyub.hypercube import Hypercube, _check_masks, restricted_complex
from lyub.linalg import (
    VectorSpaceComplex,
    _pack,
    homology_dims,
    rref,
)


def hstack(field, blocks, rows):
    """Concatenate matrices (all with ``rows`` rows) side by side."""
    data = [[] for _ in range(rows)]
    off = 0
    for b in blocks:
        if b.rows != rows:
            raise InputError("hstack row mismatch")
        for out, row in zip(data, b.data):
            out.extend([(off + j, v) for j, v in row] if off else row)
        off += b.cols
    return ExactMatrix._wrap(field, rows, off, list(map(tuple, data)))


def from_rows(field, rows):
    """The matrix with the given dense row lists (no rows: 0 x 0)."""
    return ExactMatrix(field, len(rows), len(rows[0]) if rows else 0, rows)


def matmul(left, right):
    """The product left @ right, walking only the nonzero entries of both
    factors."""
    if left.cols != right.rows:
        raise InputError("matmul shape mismatch")
    p = left.field.p
    data = []
    for arow in left.data:
        if len(arow) == 1 and arow[0][1] == 1:
            data.append(right.data[arow[0][0]])  # a unit row picks a row of right
            continue
        acc = {}
        for k, a in arow:
            for j, b in right.data[k]:
                acc[j] = acc.get(j, 0) + a * b
        data.append(_pack(acc, p))
    return ExactMatrix._wrap(left.field, left.rows, right.cols, data)


def solve_homology(vectors, d_in, reduced):
    """(reps, classes) of the homology at the space of vectors' rows, with
    the classes of vectors' columns, by one rref of [d_in_F | I | V_F] on
    the free coordinates F of d_out, ``reduced`` being rref(d_out): the
    cycles reduced along with the space, one solve per call, the reference
    for ``homology_space`` and ``homology_classes``.  A column that the
    reduced rows of d_out do not kill is refused."""
    field, dim, vdata = vectors.field, vectors.rows, vectors.data
    if d_in is None:
        d_in = ExactMatrix(field, dim, 0)
    ech, pivots = ((), []) if reduced is None else (reduced[0].data[:len(reduced[1])], reduced[1])
    for row in ech:
        acc = {}
        for k, a in row:
            for j, x in vdata[k]:
                acc[j] = acc.get(j, 0) + a * x
        if _pack(acc, field.p):
            raise ContractError("inconsistent linear system")
    pivset = set(pivots)
    free = [c for c in range(dim) if c not in pivset]
    k0 = d_in.cols
    v0 = k0 + len(free)
    rows = [
        (*d_in.data[c], (k0 + k, 1), *[(v0 + j, x) for j, x in vdata[c]])
        for k, c in enumerate(free)
    ]
    sol, spivots = rref(ExactMatrix._wrap(field, len(free), v0 + vectors.cols, rows))
    rep_at = {free[c - k0]: j for j, c in enumerate(c for c in spivots if c >= k0)}
    data = [()] * dim
    for c, j in rep_at.items():
        data[c] = ((j, 1),)
    for row, pc in zip(ech, pivots):
        data[pc] = tuple([(rep_at[c], field.neg(x)) for c, x in row if c in rep_at])
    classes = [
        tuple((c - v0, x) for c, x in row if c >= v0)
        for row, pc in zip(sol.data, spivots)
        if pc >= k0
    ]
    h = len(rep_at)
    return ExactMatrix._wrap(field, dim, h, data), ExactMatrix._wrap(field, h, vectors.cols, classes)


def kernel_basis(mat):
    """Columns form a deterministic basis of ker(mat); mat @ K = 0: the
    representatives of the homology at the source of mat with nothing
    mapping in, which are all of K.  Row free[k] of the basis is the unit
    vector e_k, free being the non-pivot columns of mat's rref."""
    return solve_homology(ExactMatrix(mat.field, mat.cols, 0), None, rref(mat))[0]


def cohomology_space(cc, q, vectors=None):
    """Degree-q reduced cohomology of the cochain complex ``cc``: explicit
    cocycle representatives, and the classes of the cocycle columns of
    ``vectors`` (degree-q cochains, may be None), the pair (reps, classes)
    that ``solve_homology`` returns."""
    if vectors is None:
        vectors = ExactMatrix(cc.field, cc.space_dim(q), 0)
    d_out = cc.coboundary(q)
    return solve_homology(vectors, cc.coboundary(q - 1), None if d_out is None else rref(d_out))


def per_mask_hypercubes(ideal, field):
    """The cubes of every degree r = 0..n, every nonzero mask solved on its
    own: the restriction's complex selected from that of D^v
    (``restrict_cochains``), the representatives of each nonzero alpha +
    e_i restricted to alpha's faces by ``face_projection``, and one
    ``solve_homology`` per (mask, degree) giving alpha's representatives
    and the classes of those vectors, whose transposed blocks are the
    edges.  The reference for the build, which solves each distinct
    restricted complex once."""
    n = ideal.n
    full = full_mask(n)
    cochains = cochain_complex(complex_alexander_dual(stanley_reisner(ideal)), field)
    dims, spaces, edges = ([{} for _ in range(n + 2)] for _ in range(3))
    for alpha in range(full, 0, -1):
        cc = restrict_cochains(cochains, alpha)
        for q in range(-1, len(cc.basis) - 1):
            faces, above = cc.faces(q), spaces[q + 2]
            ups = [i for i in range(n) if not alpha >> i & 1 and alpha | 1 << i in above]
            blocks = [
                matmul(face_projection(field, faces, above[alpha | 1 << i][0]), above[alpha | 1 << i][1])
                for i in ups
            ]
            vectors = hstack(field, blocks, len(faces))
            d_out = cc.coboundary(q)
            reps, classes = solve_homology(vectors, cc.coboundary(q - 1), None if d_out is None else rref(d_out))
            if not reps.cols:
                continue
            dims[q + 2][alpha], above[alpha] = reps.cols, (faces, reps)
            cols, c0 = classes.transpose().data, 0
            for i, block in zip(ups, blocks):
                edges[q + 2][(alpha, i)] = ExactMatrix._wrap(field, block.cols, reps.cols, cols[c0:c0 + block.cols])
                c0 += block.cols
    return tuple(Hypercube(n, r, field, dims[r], edges[r]) for r in range(n + 1))


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
    reps = ker.select(range(dim), [c - k0 for c in pivots if c >= k0])
    classes = [
        tuple((c - v0, x) for c, x in row if c >= v0)
        for row, pc in zip(red.data, pivots)
        if pc >= k0
    ]
    return reps, ExactMatrix._wrap(field, reps.cols, vectors.cols, classes)


def nonzero_edges(cube):
    """{(alpha, i): cube.edge(alpha, i)} over every edge whose two ends are
    nonzero vertices, keys in increasing order: the edges a build passes to
    the ``Hypercube`` constructor."""
    dims = cube.dims
    return {
        (alpha, i): cube.edge(alpha, i)
        for alpha in sorted(dims) for i in range(cube.n)
        if not alpha >> i & 1 and alpha | 1 << i in dims
    }


def squares_commute(n, dims, edges):
    """u_{a+e_i,j} u_{a,i} == u_{a+e_j,i} u_{a,j} on every square from a
    nonzero vertex a to a nonzero vertex a+e_i+e_j, by two products per
    square, read off vertex dimensions and stored edges (absent ones are
    zero), so that a cube whose squares do not commute can be tested."""

    def path(alpha, i, j):  # the product along a -> a+e_i -> a+e_i+e_j, or None if zero
        first, second = edges.get((alpha, i)), edges.get((alpha | 1 << i, j))
        if first is None or second is None:
            return None
        prod = matmul(second, first)
        return prod if any(prod.data) else None

    for alpha in dims:
        for i in range(n):
            for j in range(i + 1, n):
                if alpha & (1 << i | 1 << j) or alpha | 1 << i | 1 << j not in dims:
                    continue
                if path(alpha, i, j) != path(alpha, j, i):
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


def interval_complex(cube, lo, hi):
    """The summands of ``cube.main`` whose vertex v has lo <= v <= hi, at
    positions |hi| - |v|, their maps selected from main's.

    Each map of main goes from a vertex minus one bit to the vertex, so a
    path of two maps between vertices of the interval stays in it, and
    d∘d of the selection is the selection of d∘d.  With lo = 0 this is
    ``restricted_complex`` at amask = bmask = hi up to summand signs: its
    gammas, joined with full \\ hi, are main's in the same order, and a
    direction-i map carries its sign times s_i = (-1)^(bits of full \\ hi
    below i), which scaling the summand gamma by the product of s_i over
    i in gamma removes.
    """
    _check_masks(cube, lo, hi)
    if lo & ~hi:
        raise InputError("interval bottom mask is not below its top mask")
    dims, starts, k = cube.dims, cube.starts, popcount(hi)
    levels = [[] for _ in range(popcount(hi & ~lo) + 1)]
    for v in dims:
        if not v & ~hi and not lo & ~v:
            levels[k - popcount(v)].append(v)
    picks = [
        [i for v in sorted(lv, key=starts.__getitem__)
         for i in range(starts[v], starts[v] + dims[v])]
        for lv in levels
    ]
    shift, maps = cube.n - k, cube.main.maps
    return VectorSpaceComplex(cube.field, map(len, picks), [
        maps[p + shift].select(picks[p], picks[p + 1]) for p in range(len(levels) - 1)
    ])


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
    ``solve_matrix`` of [image | reps | v] gives their classes, the image
    basis being the columns of d_in at the pivots of its rref; the edge is
    the transpose of the reps part.
    """
    dual = complex_alexander_dual(stanley_reisner(ideal))
    q = r - 2
    spaces = {}
    for alpha in range(1, 1 << ideal.n):
        cc = cochain_complex(restriction(dual, alpha), field)
        reps, _ = cohomology_space(cc, q)
        if reps.cols:
            d_in, dim = cc.coboundary(q - 1), reps.rows
            image = ExactMatrix(field, dim, 0) if d_in is None else d_in.select(range(dim), rref(d_in)[1])
            spaces[alpha] = (reps, image, cc.faces(q))
    edges = {}
    for alpha, (small, image, faces_small) in spaces.items():
        basis = hstack(field, [image, small], small.rows)
        for i in range(ideal.n):
            if alpha >> i & 1 or alpha | 1 << i not in spaces:
                continue
            big, _, faces_big = spaces[alpha | 1 << i]
            reps = big.dense()
            at = {f: k for k, f in enumerate(faces_big)}
            v = ExactMatrix(field, len(faces_small), big.cols, [reps[at[f]] for f in faces_small])
            x = solve_matrix(basis, v).dense()[image.cols:]
            edges[(alpha, i)] = ExactMatrix(field, small.cols, big.cols, x).transpose()
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
    big_reps, _ = cohomology_space(big_cc, q)
    restricted = face_projection(field, small_cc.faces(q), big_cc.faces(q))
    _, induced = cohomology_space(small_cc, q, matmul(restricted, big_reps))
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
