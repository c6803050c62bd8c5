"""The n-hypercube of a local cohomology module H_I^r(R) and its complexes.

For a squarefree monomial ideal I with Stanley-Reisner complex D, the vertex
of the hypercube at a mask a is the reduced cohomology H^{r-2} of the
restriction to a of the Alexander dual complex D^v (the complex of the dual
ideal).  Restrictions nest, so for each free bit i the inclusion of the
a-restriction into the (a+e_i)-restriction induces a map on cohomology by
cochain restriction; the canonical map u_{a,i} between vertices is its
transpose.

A cube is its vertex dimensions and its main complex, as a straight
module is its vertices and one complex (Yanagawa), and its one
constructor, ``Hypercube(n, r, field, dims, maps)``, takes main's maps;
main's d∘d check is the check that every square commutes.  The build
writes those maps from the classes it solves for, with no edge matrix in
between, and ``matlis_dual`` and ``face_restricted_hypercube`` assemble
them from the cube they start from.  The Lyubeznik numbers are main's
homology, and each Bass or dual Bass row is the homology of one interval
of it, whose ranks are row ranks of main's maps
(``invariants._hull_rows``).  Main holds every edge as one signed block,
and ``Hypercube.edge`` reads it back from there.

One build serves every degree r.  The cochain complex of D^v is formed
once, and each mask a selects the cochain complex of its restriction from
it (``cohomology.restrict_cochains``): the faces inside a in each size,
with the same bases and matrices as a complex formed for the restriction
alone, and its own d∘d check.  Only the masks a of the lcm lattice of the
Alexander dual ideal (the unions of its generators, the minimal primes of
I) get a complex: at any other a the restriction is a cone, and the vertex
is zero in every degree.

Each distinct restricted complex is solved once per build (``_solve``).
Its cohomology dimensions, the vertex in all n+1 degrees, come from one
cleared sweep over its coboundaries (``CochainComplex.cohomology_dims``,
the method the links of ``invariants.terai_mustata_consistent`` are read
through too).  Only the coboundary out of each nonzero degree is reduced,
by ``rref``: its reduced rows give the kernel there, and
``linalg.homology_space`` gives the representatives and the projection
taking a cocycle to its class, whose count is checked against the
sweep's dimension.  A degree that is zero reduces nothing.  A dict local
to the build (freed when it returns, at most one entry per lattice mask)
keeps the solve under the restriction's basis sizes and the rows of
every coboundary.  The key is sound because the solve reads nothing
else: the field is fixed per build, and the solve is a function of the
matrices, which the sizes and rows determine.  It is often shared
because a complex's bases are its faces in lexicographic order and each
coboundary sign depends only on positions inside a face, so two masks
whose restrictions match under an order-preserving relabelling of
vertices (paths of equal length in a cycle, small simplices) have the
same matrices.  A solve's refusals (``negative homology dimension``,
``cocycle space disagrees with coboundary ranks``) depend on the
matrices alone too, so they fire at the first mask that carries the
complex.

Representatives and edge maps are computed only where a vertex is
nonzero, visiting the masks top down, from the full mask to 1: when a is
reached, every nonzero a+e_i of the same degree has its representatives,
kept as {face: row}, and the rows at a's faces, side by side, are a's
vectors.  Per mask, ``linalg.homology_classes`` checks they are cocycles,
against the reduced coboundary out of a's cochains, and multiplies them by
the projection; the classes, transposed and signed, are every edge out of
a, and they go straight into main's rows.  Decreasing masks are main's
summand order (gamma = full \\ a increasing), so a's columns start at the
running size of its level, and every row of a+e_i receives its columns in
increasing order.  A vertex's representatives are dropped, and its rows
made final, once the last of its lower neighbours, the mask without its
highest bit, has been visited.  So every mask keeps its own d∘d check and
cocycle test, every cube its layout and square checks, and only the
reductions are shared.  The solves are dropped before the first cube is
constructed.

Degenerate degrees: vertices sit in cohomological degree q = r - 2, and the
q = -2 and q = -1 conventions of the cohomology module apply.  The vertex at
a = 0 is pinned to zero; for r >= 2 the formula already gives zero there,
and the pin is what makes degree r = 1 (height-one ideals) come out right.
"""

from bisect import bisect_left
from functools import lru_cache

from .combinatorics import (
    MonomialIdeal,
    bits_of,
    contains,
    full_mask,
    mask_of,
    minimal_primes,
    popcount,
    simplicial_complex,
    submasks,
    unions_below,
)
from .cohomology import cochain_complex, restrict_cochains
from .errors import (
    MAX_HYPERCUBE_MASKS,
    MAX_VARIABLES,
    ContractError,
    DomainError,
    InputError,
    ResourceError,
)
from .linalg import (
    ExactMatrix,
    Field,
    VectorSpaceComplex,
    homology_classes,
    homology_space,
    rref,
)

# ---------------------------------------------------------------------------
# the hypercube
# ---------------------------------------------------------------------------


class Hypercube:
    """Vertex dimensions and main complex of one H_I^r(R).

    Only nonzero vertices are stored, in ``dims``; ``vertex_dim``
    materializes the zero ones.  ``main`` is the main complex: position p
    holds the vertices full \\ gamma with |gamma| = p, in increasing order
    of gamma, and ``starts`` gives each nonzero vertex's first basis index
    in its position.  ``Hypercube(n, r, field, dims, maps)`` keeps a copy
    of ``dims`` and takes ``maps`` as main's.  It refuses an ``n`` or an
    ``r`` that is not an int in [0, MAX_VARIABLES] (``r`` is not bounded by
    ``n``: a face-restricted cube keeps its parent's degree on fewer
    variables), a mask outside the cube and a vertex of dimension below 1,
    checks main as a ``VectorSpaceComplex`` on the level sizes of ``dims``
    (so a map that does not fit the layout, or is over another field, is
    refused with ``InputError``) and computes ``starts``.

    Main's d∘d check is the check that every square commutes, so no other
    cube can be constructed.  For a = full \\ (gamma + e_i + e_j), i < j,
    and s_k = (-1)^(bits of gamma below k), the block of d∘d from summand
    gamma + e_i + e_j to summand gamma is s_i s_j (u_{a+e_i,j} u_{a,i} -
    u_{a+e_j,i} u_{a,j}), zero exactly when the square at (a, i, j)
    commutes.  Such a block exists exactly when a and a + e_i + e_j are
    nonzero vertices, the squares on which commutativity says anything; a
    zero middle vertex gives no term, as its zero edge would.

    The edge (alpha, i) is the block of main's map p = |full \\ (alpha +
    e_i)| on the rows of alpha + e_i and the columns of alpha, times
    (-1)^(bits of full \\ (alpha + e_i) below i).  ``edge`` reads it from
    there, undoes the sign and returns a new matrix each call, the zero
    matrix where an end is zero.

    Nothing changes after construction but ``_homology`` (main's homology,
    ``invariants._main_homology``), ``_bass`` (the rows of the Bass and
    dual Bass tables) and ``_below`` (the sweeps of ``invariants._below``),
    each filled on first request from the cube alone, so sharing the cube,
    as the cache of ``build_hypercube`` does, stays safe.
    """

    __slots__ = ("n", "r", "field", "dims", "main", "starts", "_homology", "_bass", "_below")

    def __init__(self, n: int, r: int, field: Field, dims, maps):
        if type(n) is not int or not 0 <= n <= MAX_VARIABLES:
            raise InputError(f"hypercube dimension {n!r} is not an int in [0, {MAX_VARIABLES}]")
        if type(r) is not int or not 0 <= r <= MAX_VARIABLES:
            raise InputError(f"cohomological degree {r!r} is not an int in [0, {MAX_VARIABLES}]")
        self.n = n
        self.r = r
        self.field = field
        self.dims = dims = dict(dims)
        _check_masks(n, *dims)
        for v, d in dims.items():
            if d < 1:
                raise InputError(f"stored vertex {v} has dimension {d}, not at least 1")
        full = full_mask(n)
        self.starts, sizes = {}, [0] * (n + 1)
        for v in sorted(dims, key=full.__xor__):  # main's summand order
            level = n - popcount(v)
            self.starts[v] = sizes[level]
            sizes[level] += dims[v]
        try:
            self.main = VectorSpaceComplex(field, sizes, maps)
        except ContractError as exc:
            raise ContractError(
                f"hypercube of degree r={r}: squares do not commute ({exc})"
            ) from None
        self._homology: tuple | None = None  # homology_dims(self.main)
        self._bass: dict = {}  # dual? -> rows of the Bass or dual Bass table
        self._below: dict = {}  # dual? -> the per-mask totals of ``_bass_work``

    def vertex_dim(self, alpha: int) -> int:
        _check_masks(self.n, alpha)
        return self.dims.get(alpha, 0)

    def edge(self, alpha: int, i: int) -> ExactMatrix:
        """The canonical map at (alpha, i): vertex alpha -> vertex alpha+e_i,
        read off its block of main with the sign undone, by the rule the
        assembly signs it with; a new matrix on each call."""
        _check_edge(self.n, alpha, i)
        top = alpha | 1 << i
        rows, cols = self.dims.get(top, 0), self.dims.get(alpha, 0)
        if not (rows and cols):
            return ExactMatrix(self.field, rows, cols)
        gamma = full_mask(self.n) ^ top
        r0, c0 = self.starts[top], self.starts[alpha]
        lo, hi, p = (c0,), (c0 + cols,), self.field.p
        flip = popcount(gamma & ((1 << i) - 1)) & 1
        data = []
        for row in self.main.maps[popcount(gamma)].data[r0:r0 + rows]:
            block = row[bisect_left(row, lo):bisect_left(row, hi)]
            if not flip:
                data.append(tuple([(c - c0, x) for c, x in block]))
            else:
                data.append(tuple([(c - c0, p - x if p else -x) for c, x in block]))
        return ExactMatrix._wrap(self.field, rows, cols, data)

    def is_zero(self) -> bool:
        return not self.dims

    def nonzero_vertices(self) -> list[int]:
        return sorted(self.dims, key=lambda m: (popcount(m), m))


# (ideal, field) entries kept by ``_build_all_degrees``, each holding the
# n+1 cubes of every degree; the least recently used is evicted first.
# This is above the 6 entries one pass of the ``hypercube`` benchmark holds
# (a10, nine and a8, over Q and F_2).  An entry keeps vertex dimensions and
# main complexes: over Q, 0.64 MiB at a10, 4.0 at a12, 9.6 at a13 and 22.5
# at a14 (``tracemalloc``, Python 3.11), so the count, not the bytes, is
# what is bounded.
HYPERCUBE_CACHE_SIZE = 16


def build_hypercube(ideal: MonomialIdeal, r: int, field: Field) -> Hypercube:
    """The hypercube of H_I^r(R), built (or fetched) with every other r."""
    if not ideal.is_proper_nonzero:
        raise DomainError("hypercube needs a proper nonzero ideal")
    n = ideal.n
    if not 0 <= r <= n:
        raise InputError(f"cohomological degree r={r} outside [0, {n}]")
    return _build_all_degrees(ideal, field)[r]


@lru_cache(maxsize=HYPERCUBE_CACHE_SIZE)
def _build_all_degrees(ideal: MonomialIdeal, field: Field) -> tuple[Hypercube, ...]:
    n = ideal.n
    if 1 << n > MAX_HYPERCUBE_MASKS:
        raise ResourceError(
            f"hypercube on n={n} variables has 2^{n} = {1 << n} vertices, "
            f"which exceeds the cap of {MAX_HYPERCUBE_MASKS}"
        )
    full = full_mask(n)
    dual = simplicial_complex(full, [full ^ g for g in ideal.gens])
    cochains = cochain_complex(dual, field)  # each mask selects from this
    # The minimal non-faces of the dual complex are the minimal primes of I.
    # A vertex of alpha in none of those inside alpha is a cone point of the
    # restriction to alpha, whose cohomology is then zero in every degree,
    # so only the masks that are unions of them can be nonzero vertices.
    lattice = unions_below(n, minimal_primes(ideal))
    # per degree r: the nonzero vertices' dimensions, their representatives
    # in cohomological degree r - 2 as {face: row} (nonzero rows only), and
    # main's rows and starts.  A complex on |alpha| <= n vertices has no
    # cohomology above degree n - 2.
    dims: list[dict] = [{} for _ in range(n + 1)]
    spaces: list[dict] = [{} for _ in range(n + 1)]
    # per degree, the rows of main's map p (the vertices v with |full \ v|
    # = p) and each vertex's first row there, as rows are added: the masks
    # are visited in decreasing order, which is main's summand order
    main_rows: list[list] = [[[] for _ in range(n + 1)] for _ in range(n + 1)]
    starts: list[dict] = [{} for _ in range(n + 1)]
    p = field.p
    # restricted complex (basis sizes, coboundary rows) -> its solve
    solved: dict[tuple, list] = {}
    # top down, so each alpha + e_i already has its representatives and rows
    for alpha in range(full, 0, -1):  # alpha = 0 is pinned to zero
        if lattice[alpha] != alpha:
            continue
        cc = restrict_cochains(cochains, alpha)
        key = (tuple(map(len, cc.basis)), tuple(tuple(d.data) for d in cc.coboundaries))
        degrees = solved.get(key)
        if degrees is None:
            degrees = solved[key] = _solve(cc)
        level = n - popcount(alpha)
        for q, h, red, reps, proj in degrees:
            faces, above, first = cc.faces(q), spaces[q + 2], starts[q + 2]
            below, here = main_rows[q + 2][level - 1], main_rows[q + 2][level]
            ups = [
                i for i in range(n)
                if not alpha >> i & 1 and alpha | 1 << i in above
            ]
            # the representatives of each alpha + e_i restricted to alpha's
            # faces, side by side: one row per face of alpha.  The edge
            # alpha -> alpha + e_i, the transposed induced map, is the block
            # of main's rows of alpha + e_i, times (-1)^(bits of full \
            # (alpha + e_i) below i): column j of the classes goes to row
            # targets[j], negated where flips[j]
            vecs = [[] for _ in faces]
            width, targets, flips = 0, [], []
            for i in ups:
                top = alpha | 1 << i
                big, w, r0 = above[top], dims[q + 2][top], first[top]
                for out, f in zip(vecs, faces):
                    row = big.get(f)
                    if row:
                        out.extend([(width + j, x) for j, x in row] if width else row)
                width += w
                targets += below[r0:r0 + w]
                flips += [popcount((full ^ top) & ((1 << i) - 1)) & 1] * w
            vectors = ExactMatrix._wrap(field, len(faces), width, list(map(tuple, vecs)))
            classes = homology_classes(vectors, red, proj)
            dims[q + 2][alpha] = h
            above[alpha] = {f: row for f, row in zip(faces, reps.data) if row}
            # alpha's columns come after those of every vertex of its level
            # visited before it, and each row receives them in order
            c0 = first[alpha] = len(here)
            here.extend([] for _ in range(h))
            for c, row in enumerate(classes.data, c0):
                for j, x in row:
                    targets[j].append((c, (p - x if p else -x) if flips[j] else x))
            # alpha + e_i with i above alpha's bits has no lower neighbour
            # left to visit: its representatives go, and its rows are complete
            for i in ups:
                if 1 << i > alpha:
                    top = alpha | 1 << i
                    del above[top]
                    r0 = first[top]
                    r1 = r0 + dims[q + 2][top]
                    below[r0:r1] = map(tuple, below[r0:r1])
    del spaces, solved
    cubes = []
    for r, by_level in enumerate(main_rows):
        sizes = list(map(len, by_level))
        maps = [
            ExactMatrix._wrap(field, size, src_size, list(map(tuple, lv)))
            for lv, size, src_size in zip(by_level, sizes, sizes[1:])
        ]
        cubes.append(Hypercube(n, r, field, dims[r], maps))
    return tuple(cubes)


def _solve(cc) -> list[tuple]:
    """(q, h, rref of d_out or None, reps, proj) at each degree q where the
    cochain complex cc has cohomology h > 0, reps and proj as
    ``homology_space`` returns them.

    The dimensions h come from one cleared sweep over the coboundaries
    (``CochainComplex.cohomology_dims``), as a link's do.  Only the
    coboundary out of a nonzero degree is reduced, by ``rref``: the kernel
    there and every mask's cocycle test read its reduced rows.  The
    number of representatives is checked against the sweep's h, so two
    different reductions must agree."""
    out = []
    for q, h in cc.cohomology_dims().items():
        d_out = cc.coboundary(q)
        red = None if d_out is None else rref(d_out)
        reps, proj = homology_space(cc.field, cc.space_dim(q), cc.coboundary(q - 1), red)
        if reps.cols != h:
            raise ContractError("cocycle space disagrees with coboundary ranks")
        out.append((q, h, red, reps, proj))
    return out


def _check_masks(n: int, *masks: int) -> None:
    if any(m >> n for m in masks):  # negative masks included
        raise InputError("mask does not fit the hypercube")


def _check_edge(n: int, alpha: int, i: int) -> None:
    _check_masks(n, alpha)
    if not 0 <= i < n:
        raise InputError(f"edge direction {i} outside [0, {n})")
    if alpha >> i & 1:
        raise InputError("edge direction bit already set")


# ---------------------------------------------------------------------------
# assembled complexes
# ---------------------------------------------------------------------------


def restricted_complex(cube: Hypercube, amask: int, bmask: int) -> VectorSpaceComplex:
    """The complex whose p-th homology is the degree-bmask piece of H^p_{p_a}.

    Position p collects the vertices bmask\\gamma over gamma <= amask with
    |gamma| = p, in increasing order of gamma.  Summand maps are the signed
    canonical maps, the sign being (-1)^(bits of gamma below i); when bit i
    is outside bmask the vertex mask does not move and the map is the
    identity.  Only the gammas at nonzero vertices are visited, and each
    row of a map is written straight from the edge rows it meets.  The
    edges are read through ``cube.edge``.
    """
    _check_masks(cube.n, amask, bmask)
    return VectorSpaceComplex(cube.field, *_assemble(cube.field, cube.dims, cube.edge, amask, bmask))


def _assemble(field: Field, dims: dict, edge, amask: int, bmask: int) -> tuple[list, list]:
    """The sizes and maps of ``restricted_complex`` of the vertices
    ``dims``, unchecked, with ``edge(alpha, i)`` the edge matrix between
    two nonzero vertices.  ``restricted_complex``, ``matlis_dual`` and
    ``face_restricted_hypercube`` assemble by it from a cube's own edges,
    and each checks the complex once."""
    p = field.p
    # the vertices bmask \ gamma over gamma <= amask are base | s, s <= span
    base, span = bmask & ~amask, bmask & amask
    verts = [v for v in dims if (v ^ base) & ~span == 0]
    # the gammas of a vertex v are (bmask \ v) | extra, extra any subset of
    # the bits of amask outside bmask, which leave the vertex fixed
    fixed = amask & ~bmask
    levels: list[list[int]] = [[] for _ in range(popcount(amask) + 1)]
    for v in verts:
        for extra in submasks(fixed):
            g = bmask & ~v | extra
            levels[popcount(g)].append(g)
    start = {}  # gamma -> first basis index of its summand within the level
    sizes = []
    for lv in levels:
        lv.sort()
        t = 0
        for g in lv:
            start[g] = t
            t += dims[bmask & ~g]
        sizes.append(t)
    maps = []
    for lv, size, src_size in zip(levels, sizes, sizes[1:]):
        data = []
        for g in lv:
            v = bmask & ~g
            rows = [[] for _ in range(dims[v])]
            rest = amask & ~g
            while rest:  # bit i of the source g + e_i, lowest first
                bit = rest & -rest
                rest ^= bit
                c0 = start.get(g | bit)
                if c0 is None:  # the source vertex is zero
                    continue
                flip = popcount(g & (bit - 1)) & 1
                if bmask & bit:
                    mat = edge(v ^ bit, bit.bit_length() - 1)
                    for out, row in zip(rows, mat.data):
                        if not flip:
                            out.extend([(c0 + c, x) for c, x in row])
                        else:
                            out.extend([(c0 + c, p - x if p else -x) for c, x in row])
                else:
                    one = (p - 1 if p else -1) if flip else 1
                    for a, out in enumerate(rows):
                        out.append((c0 + a, one))
            data.extend(map(tuple, rows))
        maps.append(ExactMatrix._wrap(field, size, src_size, data))
    return sizes, maps


def main_complex(cube: Hypercube) -> VectorSpaceComplex:
    """Positions p = 0..n with the level n-p vertices; H_p gives mu_p(m)."""
    return cube.main


def matlis_dual(cube: Hypercube) -> Hypercube:
    """Shifted Matlis dual: vertex a <-> vertex 1-a, edges transposed."""
    full = full_mask(cube.n)
    dims = {full ^ a: d for a, d in cube.dims.items()}

    def edge(alpha: int, i: int) -> ExactMatrix:
        return cube.edge(full ^ (alpha | 1 << i), i).transpose()

    return Hypercube(cube.n, cube.r, cube.field, dims, _assemble(cube.field, dims, edge, full, full)[1])


def dual_complex(cube: Hypercube) -> VectorSpaceComplex:
    """Positions p = 0..n with the level p vertices and transposed maps."""
    return main_complex(matlis_dual(cube))


def face_restricted_hypercube(cube: Hypercube, amask: int) -> Hypercube:
    """The |a|-hypercube of vertices below amask, bits renumbered.  Only the
    tests (restriction identities) and the benchmark tracer name it."""
    _check_masks(cube.n, amask)
    positions = bits_of(amask)
    local = {b: t for t, b in enumerate(positions)}

    def compress(mask: int) -> int:
        return mask_of(local[b] for b in bits_of(mask))

    dims = {compress(a): d for a, d in cube.dims.items() if contains(amask, a)}
    # main is restricted_complex(cube, amask, amask), checked once, here
    maps = _assemble(cube.field, cube.dims, cube.edge, amask, amask)[1]
    return Hypercube(len(positions), cube.r, cube.field, dims, maps)
