"""The n-hypercube of a local cohomology module H_I^r(R) and its complexes.

For a squarefree monomial ideal I with Stanley-Reisner complex D, the vertex
of the hypercube at a mask a is the reduced cohomology H^{r-2} of the
restriction to a of the Alexander dual complex D^v (the complex of the dual
ideal).  Restrictions nest, so for each free bit i the inclusion of the
a-restriction into the (a+e_i)-restriction induces a map on cohomology by
cochain restriction; the canonical map u_{a,i} between vertices is its
transpose.  Square commutativity and d∘d = 0 of every assembled complex are
verified at build time.

Degenerate degrees: vertices sit in cohomological degree q = r - 2, and the
q = -2 and q = -1 conventions of the cohomology module apply.  The vertex at
a = 0 is pinned to zero; for r >= 2 the formula already gives zero there,
and the pin is what makes degree r = 1 (height-one ideals) come out right.
"""

from itertools import combinations

from .combinatorics import (
    MonomialIdeal,
    bits_of,
    contains,
    full_mask,
    mask_of,
    popcount,
)
from .cohomology import coboundary_matrix, face_projection
from .errors import ContractError, DomainError, InputError
from .linalg import (
    ExactMatrix,
    Field,
    VectorSpaceComplex,
    block_matrix,
    homology_space,
)

# ---------------------------------------------------------------------------
# the hypercube
# ---------------------------------------------------------------------------


class Hypercube:
    """Vertex dimensions and canonical edge matrices of one H_I^r(R).

    Only nonzero vertices and edges between them are stored; ``vertex_dim``
    and ``edge`` materialize the zero cases.  Instances are immutable after
    construction and safe to share.
    """

    __slots__ = ("n", "r", "field", "dims", "edge_mats")

    def __init__(self, n: int, r: int, field: Field, dims, edge_mats):
        self.n = n
        self.r = r
        self.field = field
        self.dims = dict(dims)
        self.edge_mats = dict(edge_mats)

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

    def total_dim_at_level(self, level: int) -> int:
        return sum(d for a, d in self.dims.items() if popcount(a) == level)


# Cubes kept by ``build_hypercube``; the oldest is evicted first.  One pass
# over a few ideals, every r and two fields holds well under this many.
HYPERCUBE_CACHE_SIZE = 128
_cache: dict[tuple, Hypercube] = {}


def build_hypercube(ideal: MonomialIdeal, r: int, field: Field) -> Hypercube:
    """Build (or fetch from cache) the hypercube of H_I^r(R)."""
    if not ideal.is_proper_nonzero:
        raise DomainError("hypercube needs a proper nonzero ideal")
    n = ideal.n
    if not 0 <= r <= n:
        raise InputError(f"cohomological degree r={r} outside [0, {n}]")
    key = (n, ideal.gens, r, field.key())
    cached = _cache.get(key)
    if cached is not None:
        return cached

    full = full_mask(n)
    dual_facets = [full ^ g for g in ideal.gens]

    def dual_faces(alpha: int, size: int) -> list[int]:
        # faces of the dual complex restricted to alpha, sorted by vertex tuple
        if size < 0:
            return []
        if size == 0:
            return [0]
        out = []
        bits = bits_of(alpha)
        if len(bits) < size:
            return []
        for combo in combinations(bits, size):
            m = mask_of(combo)
            if any(contains(f, m) for f in dual_facets):
                out.append(m)
        return out

    q = r - 2
    dims: dict[int, int] = {}
    mid_faces: dict[int, list[int]] = {}
    spaces: dict[int, object] = {}
    if q >= -1:
        for alpha in range(1, full + 1):  # alpha = 0 is pinned to zero
            f_mid = dual_faces(alpha, q + 1)
            if not f_mid:
                continue
            d_out = coboundary_matrix(field, f_mid, dual_faces(alpha, q + 2))
            f_down = dual_faces(alpha, q)
            d_in = coboundary_matrix(field, f_down, f_mid) if f_down else None
            hsp = homology_space(field, len(f_mid), d_out, d_in)
            if hsp.dim:
                dims[alpha] = hsp.dim
                mid_faces[alpha] = f_mid
                spaces[alpha] = hsp

    edge_mats: dict[tuple[int, int], ExactMatrix] = {}
    for alpha, hsp in spaces.items():
        for i in range(n):
            if alpha >> i & 1:
                continue
            big = alpha | 1 << i
            hsp_big = spaces.get(big)
            if hsp_big is None:
                continue
            proj = face_projection(field, mid_faces[alpha], mid_faces[big])
            induced = hsp.express(proj.matmul(hsp_big.reps))
            edge_mats[(alpha, i)] = induced.transpose()

    cube = Hypercube(n, r, field, dims, edge_mats)
    _verify_commutativity(cube)
    while len(_cache) >= HYPERCUBE_CACHE_SIZE:
        del _cache[next(iter(_cache))]
    _cache[key] = cube
    return cube


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


def _face_sign(field, i: int, gamma: int):
    """(-1)^(number of set bits of gamma below i)."""
    if popcount(gamma & ((1 << i) - 1)) & 1:
        return field.neg(field.one())
    return field.one()


def restricted_complex(cube: Hypercube, amask: int, bmask: int) -> VectorSpaceComplex:
    """The complex whose p-th homology is the degree-bmask piece of H^p_{p_a}.

    Position p collects the vertices bmask\\gamma over gamma <= amask with
    |gamma| = p.  Summand maps are the signed canonical maps; when bit i is
    outside bmask the vertex mask does not move and the map is the identity.
    """
    if amask >> cube.n or bmask >> cube.n:
        raise InputError("mask does not fit the hypercube")
    field = cube.field
    k = popcount(amask)
    levels: list[list[int]] = [[] for _ in range(k + 1)]
    sub = amask
    while True:
        levels[popcount(sub)].append(sub)
        if sub == 0:
            break
        sub = (sub - 1) & amask
    for lv in levels:
        lv.sort()
    index = [{g: t for t, g in enumerate(lv)} for lv in levels]

    dims = tuple(
        sum(cube.vertex_dim(bmask & ~g) for g in lv) for lv in levels
    )
    maps = []
    for p in range(k):
        blocks = {}
        src_dims = [cube.vertex_dim(bmask & ~g) for g in levels[p + 1]]
        tgt_dims = [cube.vertex_dim(bmask & ~g) for g in levels[p]]
        for s, gamma in enumerate(levels[p + 1]):
            src_vertex = bmask & ~gamma
            d_src = cube.vertex_dim(src_vertex)
            if not d_src:
                continue
            for i in bits_of(gamma):
                tgt_gamma = gamma ^ 1 << i
                t = index[p][tgt_gamma]
                if bmask >> i & 1:
                    block = cube.edge(src_vertex, i)
                else:
                    block = ExactMatrix.identity(field, d_src)
                if not block.rows:
                    continue
                sign = _face_sign(field, i, gamma)
                if sign != field.one():
                    block = block.scaled(sign)
                blocks[(t, s)] = block
        maps.append(block_matrix(field, tgt_dims, src_dims, blocks))
    return VectorSpaceComplex(field, dims, maps)


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
    """The |a|-hypercube of vertices below amask, bits renumbered."""
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
