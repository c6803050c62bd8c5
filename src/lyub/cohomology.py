"""Reduced simplicial cochain complexes and their cohomology.

``cochain_complex`` is the one place where a simplicial complex becomes
linear algebra: every cohomology dimension and cocycle space in the
package, and so every hypercube edge map, is read off the complex it
returns, so each of them comes with its d∘d check.

The reduced complex always includes the empty face in degree -1; the void
complex has no cochains at all, so every one of its cohomology groups is
zero, while the irrelevant complex {∅} has a single class in degree -1.
Faces of a given size are ordered lexicographically by their sorted vertex
tuples and coboundary signs follow the position parity of the inserted
vertex, so every matrix here is deterministic.
"""

from dataclasses import dataclass

from .combinatorics import SimplicialComplex, bits_of, popcount
from .errors import ContractError
from .linalg import ExactMatrix, Field, check_complex, homology_space, rank

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
    """

    field: Field
    basis: tuple[tuple[int, ...], ...]
    coboundaries: tuple[ExactMatrix, ...]

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
        """Nonzero reduced cohomology dimensions by degree, one rank per map."""
        # ranks[s] is the rank of the map into faces of size s
        ranks = [0, *(rank(d) for d in self.coboundaries), 0]
        dims = {}
        for s, faces in enumerate(self.basis):
            h = len(faces) - ranks[s] - ranks[s + 1]
            if h < 0:
                raise ContractError("negative cohomology dimension")
            if h:
                dims[s - 1] = h
        return dims


def cochain_complex(cx: SimplicialComplex, field: Field) -> CochainComplex:
    """Full reduced cochain complex; verifies coboundary∘coboundary = 0."""
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
    # in reverse order the coboundaries form a chain complex whose position
    # p holds the faces of size top - p
    check_complex(tuple(map(len, reversed(basis))), tuple(reversed(cobs)))
    return CochainComplex(field, basis, cobs)


def reduced_cohomology_dims_all(cx: SimplicialComplex, field: Field) -> dict[int, int]:
    """Nonzero reduced cohomology dimensions by degree, computed in one pass."""
    return cochain_complex(cx, field).cohomology_dims()


def cohomology_space(cc: CochainComplex, q: int, vectors=None):
    """Degree-q reduced cohomology with explicit cocycle representatives,
    and the classes of the cocycle columns of ``vectors`` (degree-q
    cochains, may be None): the pair ``homology_space`` returns."""
    return homology_space(
        cc.field, cc.space_dim(q), cc.coboundary(q), cc.coboundary(q - 1), vectors
    )


# ---------------------------------------------------------------------------
# restriction along an inclusion
# ---------------------------------------------------------------------------


def face_projection(field, faces_small, faces_big) -> ExactMatrix:
    """Cochain restriction along an inclusion: picks the common coordinates."""
    index = {f: i for i, f in enumerate(faces_big)}
    data = [((index[f], 1),) for f in faces_small]
    return ExactMatrix._wrap(field, len(faces_small), len(faces_big), data)

