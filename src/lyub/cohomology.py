"""Reduced simplicial cochain complexes and their cohomology.

``cochain_complex`` is the one place where a simplicial complex becomes
linear algebra: every cohomology dimension and cocycle space in the
package, and so every hypercube edge map, is read off the complex it
returns, or off a restriction that ``restrict_cochains`` or a link that
``link_cochains`` selects from it (``ExactMatrix.select``).  A
``CochainComplex`` checks d∘d = 0 when it is made, so each of them comes
with its check.

The reduced complex always includes the empty face in degree -1; the void
complex has no cochains at all, so every one of its cohomology groups is
zero, while the irrelevant complex {∅} has a single class in degree -1.
Faces of a given size are ordered lexicographically by their sorted vertex
tuples and coboundary signs follow the position parity of the inserted
vertex, so every matrix here is deterministic.
"""

from dataclasses import dataclass

from .combinatorics import SimplicialComplex, bits_of, popcount
from .linalg import ExactMatrix, Field, check_complex, homology_from_ranks, rank

# ---------------------------------------------------------------------------
# cochain complexes
# ---------------------------------------------------------------------------


def coboundary_matrix(field: Field, faces_small, faces_big) -> ExactMatrix:
    """Coboundary from faces of size s to faces of size s+1.

    Entry (tau, sigma) is (-1)^j when sigma = tau minus its j-th vertex.
    """
    index = {f: i for i, f in enumerate(faces_small)}
    minus = field.neg(1)
    data = []
    for tau in faces_big:
        row = []
        sign = 1
        for v in bits_of(tau):
            c = index.get(tau ^ (1 << v))
            if c is not None:
                row.append((c, sign))
            sign = minus if sign == 1 else 1
        row.sort()
        data.append(tuple(row))
    return ExactMatrix._wrap(field, len(faces_big), len(faces_small), data)


@dataclass(frozen=True)
class CochainComplex:
    """Reduced cochain complex of a simplicial complex over a field.

    ``basis[s]`` lists faces with s vertices (cochain degree q = s - 1);
    ``coboundaries[s]`` maps degree s-1 cochains to degree s cochains.
    Construction verifies coboundary∘coboundary = 0.
    """

    field: Field
    basis: tuple[tuple[int, ...], ...]
    coboundaries: tuple[ExactMatrix, ...]

    def __post_init__(self):
        # in reverse order the coboundaries form a chain complex whose
        # position p holds the faces of the largest size minus p
        check_complex(tuple(map(len, reversed(self.basis))), self.coboundaries[::-1])

    def faces(self, q: int) -> tuple[int, ...]:
        """The faces indexing degree-q cochains (none outside the complex)."""
        s = q + 1
        if 0 <= s < len(self.basis):
            return self.basis[s]
        return ()

    def space_dim(self, q: int) -> int:
        return len(self.faces(q))

    def coboundary(self, q: int):
        """The map out of degree q, or None when the target is trivial."""
        s = q + 1
        if 0 <= s < len(self.coboundaries):
            return self.coboundaries[s]
        return None

    def cohomology_dims(self) -> dict[int, int]:
        """Nonzero reduced cohomology dimensions by degree, from the faces
        by size and the ``rank`` of each coboundary (``homology_from_ranks``)."""
        dims = homology_from_ranks(map(len, self.basis), map(rank, self.coboundaries))
        return {s - 1: h for s, h in enumerate(dims) if h}


def cochain_complex(cx: SimplicialComplex, field: Field) -> CochainComplex:
    """Full reduced cochain complex."""
    if cx.is_void:
        return CochainComplex(field, (), ())
    top = cx.dim() + 1
    by_size = [[] for _ in range(top + 1)]
    for f in cx.faces():
        by_size[popcount(f)].append(f)
    basis = tuple(tuple(sorted(faces, key=bits_of)) for faces in by_size)
    cobs = tuple(
        coboundary_matrix(field, basis[s], basis[s + 1]) for s in range(top)
    )
    return CochainComplex(field, basis, cobs)


def restrict_cochains(cc: CochainComplex, alpha: int) -> CochainComplex:
    """The reduced cochain complex of the restriction to ``alpha`` of the
    simplicial complex behind ``cc``, read off ``cc`` by keeping the faces
    inside alpha in each size.

    Kept faces stay in their order, and a coboundary sign depends only on
    the pair of faces, so the bases and matrices are exactly those that
    ``cochain_complex`` forms for the restriction.
    """
    outside = ~alpha
    picks = []
    for faces in cc.basis:
        kept = [i for i, f in enumerate(faces) if not f & outside]
        if not kept:  # the faces inside alpha form a simplicial complex
            break
        picks.append(kept)
    basis = [tuple([faces[i] for i in kept]) for faces, kept in zip(cc.basis, picks)]
    return CochainComplex(cc.field, tuple(basis), tuple(
        cc.coboundaries[s].select(picks[s + 1], picks[s])
        for s in range(len(picks) - 1)
    ))


def _twist_mask(alpha: int) -> int:
    """The vertices u with an odd number of vertices of alpha below u, as a
    mask: eps(sigma) is the parity of ``sigma & _twist_mask(alpha)``."""
    odd = 0
    for a in bits_of(alpha):
        odd ^= -2 << a  # every vertex above a
    return odd


def faces_by_vertex(cc: CochainComplex) -> list[dict[int, list[int]]]:
    """Per face size s, each vertex v -> the positions in ``cc.basis[s]``
    of the faces containing v, increasing: the index ``link_cochains``
    selects from."""
    out = []
    for faces in cc.basis:
        by_vertex: dict[int, list[int]] = {}
        for i, f in enumerate(faces):
            for v in bits_of(f):
                by_vertex.setdefault(v, []).append(i)
        out.append(by_vertex)
    return out


def link_cochains(cc: CochainComplex, alpha: int, index: list[dict]) -> CochainComplex:
    """The reduced cochain complex of the link of ``alpha`` in the
    simplicial complex behind ``cc``, read off ``cc`` by keeping the faces
    f ⊇ alpha in each size and relabelling each as f ^ alpha.  A non-face
    keeps nothing: the void link.

    The faces of a size that contain alpha are found among those that
    contain its rarest vertex, read off ``index``, ``faces_by_vertex(cc)``,
    which a caller taking many links forms once.

    Dropping a vertex that two faces share keeps their lexicographic order,
    so kept faces stay in order.  It also moves a vertex u of sigma down by
    #{a in alpha : a < u} positions, so the link's entry (tau, sigma) is
    the entry of ``cc`` times eps(tau) eps(sigma), with
    eps(sigma) = (-1)^(sum over u in sigma of #{a in alpha : a < u}).  The
    bases and matrices are then exactly those that ``cochain_complex``
    forms for the link.
    """
    twist = _twist_mask(alpha)
    s0 = popcount(alpha)
    verts = bits_of(alpha)
    picks, basis = [], []
    for faces, by_vertex in zip(cc.basis[s0:], index[s0:]):
        if verts:
            rarest = min((by_vertex.get(v, ()) for v in verts), key=len)
            kept = [i for i in rarest if faces[i] & alpha == alpha]
        else:
            kept = list(range(len(faces)))
        if not kept:  # then no larger face contains alpha either
            break
        picks.append(kept)
        basis.append(tuple([faces[i] ^ alpha for i in kept]))
    eps = [[popcount(f & twist) & 1 for f in faces] for faces in basis]
    return CochainComplex(cc.field, tuple(basis), tuple(
        cc.coboundaries[s0 + t].select(picks[t + 1], picks[t], (eps[t + 1], eps[t]))
        for t in range(len(picks) - 1)
    ))


def reduced_cohomology_dims_all(cx: SimplicialComplex, field: Field) -> dict[int, int]:
    """Nonzero reduced cohomology dimensions by degree, computed in one pass."""
    return cochain_complex(cx, field).cohomology_dims()


# ---------------------------------------------------------------------------
# restriction along an inclusion
# ---------------------------------------------------------------------------


def face_projection(field, faces_small, faces_big) -> ExactMatrix:
    """Cochain restriction along an inclusion: picks the common coordinates."""
    index = {f: i for i, f in enumerate(faces_big)}
    data = [((index[f], 1),) for f in faces_small]
    return ExactMatrix._wrap(field, len(faces_small), len(faces_big), data)

