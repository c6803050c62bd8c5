"""The n-hypercube of a local cohomology module H_I^r(R) and its complexes.

For a squarefree monomial ideal I with Stanley-Reisner complex D, the vertex
of the hypercube at a mask a is the reduced cohomology H^{r-2} of the
restriction to a of the Alexander dual complex D^v (the complex of the dual
ideal).  Restrictions nest, so for each free bit i the inclusion of the
a-restriction into the (a+e_i)-restriction induces a map on cohomology by
cochain restriction; the canonical map u_{a,i} between vertices is its
transpose.  Square commutativity and d∘d = 0 of every assembled complex are
verified at build time.

One build serves every degree r: the cochain complex of each restriction is
formed once (with its d∘d check), and its coboundary ranks give the vertex
at a in all n+1 degrees.  Only the masks a of the lcm lattice of the
Alexander dual ideal (the unions of its generators, the minimal primes of
I) get a complex: at any other a the restriction is a cone, and the vertex
is zero in every degree.  Representatives and edge maps are computed only
where a vertex is nonzero, visiting the masks top down, from the full mask
to 1: when a is reached, every nonzero a+e_i of the same degree has its
representatives, and one reduction at a gives a's representatives and
every edge map out of a (``linalg.homology_space``).

Degenerate degrees: vertices sit in cohomological degree q = r - 2, and the
q = -2 and q = -1 conventions of the cohomology module apply.  The vertex at
a = 0 is pinned to zero; for r >= 2 the formula already gives zero there,
and the pin is what makes degree r = 1 (height-one ideals) come out right.
"""

from .combinatorics import (
    MonomialIdeal,
    bits_of,
    contains,
    full_mask,
    mask_of,
    minimal_primes,
    popcount,
    restriction,
    simplicial_complex,
    submasks,
    unions_below,
)
from .cohomology import cochain_complex, cohomology_space, face_projection
from .errors import (
    MAX_HYPERCUBE_MASKS,
    ContractError,
    DomainError,
    InputError,
    ResourceError,
)
from .linalg import ExactMatrix, Field, VectorSpaceComplex, hstack

# ---------------------------------------------------------------------------
# the hypercube
# ---------------------------------------------------------------------------


class Hypercube:
    """Vertex dimensions and canonical edge matrices of one H_I^r(R).

    Only nonzero vertices and edges between them are stored; ``vertex_dim``
    and ``edge`` materialize the zero cases.  ``build_hypercube`` fills
    them top down, so an edge alpha -> alpha+e_i is stored when alpha is
    reached, from the representatives alpha+e_i already has.  Vertices
    and edges never change after construction.  The one thing filled in
    later is ``_bass``, which starts empty: the first request for the
    cube's Bass table (or dual Bass table) stores that table's rows there,
    so each table is assembled once per cube however many commands read
    it, one complex per support hull.  The rows are tuples, which no
    caller can change, and they depend on nothing but the vertices and
    edges, so sharing the cube, as the cache of ``build_hypercube`` does,
    stays safe; they go when the cube goes.
    """

    __slots__ = ("n", "r", "field", "dims", "edge_mats", "_bass")

    def __init__(self, n: int, r: int, field: Field, dims, edge_mats):
        self.n = n
        self.r = r
        self.field = field
        self.dims = dict(dims)
        self.edge_mats = dict(edge_mats)
        self._bass: dict = {}  # dual? -> rows of the Bass or dual Bass table

    def vertex_dim(self, alpha: int) -> int:
        return self.dims.get(alpha, 0)

    def edge(self, alpha: int, i: int) -> ExactMatrix:
        """The canonical map at (alpha, i): vertex alpha -> vertex alpha+e_i."""
        if alpha >> i & 1:
            raise InputError("edge direction bit already set")
        mat = self.edge_mats.get((alpha, i))
        if mat is not None:
            return mat
        return ExactMatrix(
            self.field, self.vertex_dim(alpha | 1 << i), self.vertex_dim(alpha)
        )

    def is_zero(self) -> bool:
        return not self.dims

    def nonzero_vertices(self) -> list[int]:
        return sorted(self.dims, key=lambda m: (popcount(m), m))


# (ideal, field) entries kept by ``build_hypercube``, each holding the n+1
# cubes of every degree; the oldest is evicted first.  This is above the 6
# entries one pass of the ``hypercube`` benchmark holds (a10, nine and a8,
# over Q and F_2).
HYPERCUBE_CACHE_SIZE = 16
_cache: dict[tuple, tuple[Hypercube, ...]] = {}


def build_hypercube(ideal: MonomialIdeal, r: int, field: Field) -> Hypercube:
    """The hypercube of H_I^r(R), built (or fetched) with every other r."""
    if not ideal.is_proper_nonzero:
        raise DomainError("hypercube needs a proper nonzero ideal")
    n = ideal.n
    if not 0 <= r <= n:
        raise InputError(f"cohomological degree r={r} outside [0, {n}]")
    key = (n, ideal.gens, field)
    cubes = _cache.get(key)
    if cubes is None:
        cubes = _build_all_degrees(ideal, field)
        while len(_cache) >= HYPERCUBE_CACHE_SIZE:
            del _cache[next(iter(_cache))]
        _cache[key] = cubes
    return cubes[r]


def _build_all_degrees(ideal: MonomialIdeal, field: Field) -> tuple[Hypercube, ...]:
    n = ideal.n
    if 1 << n > MAX_HYPERCUBE_MASKS:
        raise ResourceError(
            f"hypercube on n={n} variables has 2^{n} = {1 << n} vertices, "
            f"which exceeds the cap of {MAX_HYPERCUBE_MASKS}"
        )
    full = full_mask(n)
    dual = simplicial_complex(full, [full ^ g for g in ideal.gens])
    # The minimal non-faces of the dual complex are the minimal primes of I.
    # A vertex of alpha in none of those inside alpha is a cone point of the
    # restriction to alpha, whose cohomology is then zero in every degree,
    # so only the masks that are unions of them can be nonzero vertices.
    lattice = unions_below(n, minimal_primes(ideal))
    # per degree r: the nonzero vertices' dimensions, their (representatives,
    # faces) in cohomological degree r - 2, and the edges between them.  A
    # complex on |alpha| <= n vertices has no cohomology above degree n - 2.
    dims: list[dict] = [{} for _ in range(n + 1)]
    spaces: list[dict] = [{} for _ in range(n + 1)]
    edges: list[dict] = [{} for _ in range(n + 1)]
    # top down, so each alpha + e_i already has its representatives
    for alpha in range(full, 0, -1):  # alpha = 0 is pinned to zero
        if lattice[alpha] != alpha:
            continue
        cc = cochain_complex(restriction(dual, alpha), field)
        for q, h in cc.cohomology_dims().items():
            faces, above = cc.faces(q), spaces[q + 2]
            ups = [
                i for i in range(n)
                if not alpha >> i & 1 and alpha | 1 << i in above
            ]
            # the big representatives restricted to alpha's faces
            blocks = []
            for i in ups:
                reps, faces_big = above[alpha | 1 << i]
                blocks.append(face_projection(field, faces, faces_big).matmul(reps))
            hsp, classes = cohomology_space(cc, q, hstack(field, blocks, len(faces)))
            if hsp.dim != h:
                raise ContractError("cocycle space disagrees with coboundary ranks")
            dims[q + 2][alpha] = h
            above[alpha] = (hsp.reps, faces)
            # the edge alpha -> alpha + e_i is the transposed induced map
            cols, c0 = classes.transpose().data, 0
            for i, b in zip(ups, blocks):
                edges[q + 2][(alpha, i)] = ExactMatrix._wrap(
                    field, b.cols, h, cols[c0:c0 + b.cols]
                )
                c0 += b.cols
    cubes = tuple(
        Hypercube(n, r, field, dims[r], edges[r]) for r in range(n + 1)
    )
    for cube in cubes:
        _verify_commutativity(cube)
    return cubes


def _verify_commutativity(cube: Hypercube) -> None:
    """u_{a+e_i,j} u_{a,i} = u_{a+e_j,i} u_{a,j} on every relevant 2-face."""
    for alpha in cube.dims:
        for i in range(cube.n):
            if alpha >> i & 1:
                continue
            for j in range(i + 1, cube.n):
                if alpha >> j & 1:
                    continue
                end = alpha | 1 << i | 1 << j
                if not cube.vertex_dim(end):
                    continue
                via_i = cube.edge(alpha | 1 << i, j).matmul(cube.edge(alpha, i))
                via_j = cube.edge(alpha | 1 << j, i).matmul(cube.edge(alpha, j))
                if via_i != via_j:
                    raise ContractError(
                        f"hypercube square at alpha={alpha:b}, i={i}, j={j} "
                        "does not commute"
                    )


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
    row of a map is written straight from the edge rows it meets.
    """
    if amask >> cube.n or bmask >> cube.n:
        raise InputError("mask does not fit the hypercube")
    field, p, dims = cube.field, cube.field.p, cube.dims
    # The vertices bmask \ gamma over gamma <= amask are base | s for
    # s <= span; walk whichever is fewer, those 2^|span| candidates or the
    # nonzero vertices.
    base, span = bmask & ~amask, bmask & amask
    if 1 << popcount(span) < len(dims):
        verts = [base | s for s in submasks(span) if base | s in dims]
    else:
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
    edges = cube.edge_mats
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
                    edge = edges.get((v ^ bit, bit.bit_length() - 1))
                    if edge is None:
                        continue
                    for out, row in zip(rows, edge.data):
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
    return VectorSpaceComplex(field, sizes, maps)


def main_complex(cube: Hypercube) -> VectorSpaceComplex:
    """Positions p = 0..n with the level n-p vertices; H_p gives mu_p(m)."""
    full = full_mask(cube.n)
    return restricted_complex(cube, full, full)


def matlis_dual(cube: Hypercube) -> Hypercube:
    """Shifted Matlis dual: vertex a <-> vertex 1-a, edges transposed."""
    full = full_mask(cube.n)
    dims = {full ^ a: d for a, d in cube.dims.items()}
    edges = {}
    for (alpha, i), mat in cube.edge_mats.items():
        gamma = full ^ (alpha | 1 << i)
        edges[(gamma, i)] = mat.transpose()
    return Hypercube(cube.n, cube.r, cube.field, dims, edges)


def dual_complex(cube: Hypercube) -> VectorSpaceComplex:
    """Positions p = 0..n with the level p vertices and transposed maps."""
    return main_complex(matlis_dual(cube))


def face_restricted_hypercube(cube: Hypercube, amask: int) -> Hypercube:
    """The |a|-hypercube of vertices below amask, bits renumbered.  Only the
    tests (restriction identities) and the benchmark tracer name it."""
    if amask >> cube.n:
        raise InputError("mask does not fit the hypercube")
    positions = bits_of(amask)
    local = {b: t for t, b in enumerate(positions)}

    def compress(mask: int) -> int:
        return mask_of(local[b] for b in bits_of(mask))

    dims = {compress(a): d for a, d in cube.dims.items() if contains(amask, a)}
    edges = {
        (compress(a), local[i]): m
        for (a, i), m in cube.edge_mats.items()
        if contains(amask, a) and amask >> i & 1
    }
    return Hypercube(len(positions), cube.r, cube.field, dims, edges)
