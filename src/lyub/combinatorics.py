"""Squarefree monomial ideals and simplicial complexes on bitmask vertex sets.

Squarefree degrees alpha in {0,1}^n are stored as plain ints: bit i set means
alpha_i = 1, i.e. the variable x_{i+1} occurs.  The partial order alpha <= beta
is bitwise containment, meet/join are &/|, and beta\\alpha (zero out the
positions where alpha is 1) is ``beta & ~alpha``.
"""

from dataclasses import dataclass

from .errors import MAX_VARIABLES, DomainError, InputError

# ---------------------------------------------------------------------------
# degree masks
# ---------------------------------------------------------------------------


def popcount(mask: int) -> int:
    return mask.bit_count()


def contains(big: int, small: int) -> bool:
    """small <= big in the containment order."""
    return small & ~big == 0


def bits_of(mask: int) -> list[int]:
    """Set bit positions, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def mask_of(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def full_mask(n: int) -> int:
    return (1 << n) - 1


def mask_key(mask: int) -> tuple[int, int]:
    """Canonical sort key: popcount, then numeric value."""
    return (popcount(mask), mask)


def submasks(mask: int):
    """All subsets of ``mask``, including 0 and mask itself."""
    s = mask
    while True:
        yield s
        if s == 0:
            return
        s = (s - 1) & mask


def unions_below(n: int, masks) -> list[int]:
    """Per mask alpha on n bits, the union of the given masks below alpha
    (0 where there is none): one subset-OR sweep per bit, O(n 2^n) in all."""
    below = [0] * (1 << n)
    for m in masks:
        below[m] = m
    for i in range(n):
        bit = 1 << i
        for m in range(1 << n):
            if m & bit:
                below[m] |= below[m ^ bit]
    return below


def mask_vector(mask: int, n: int) -> tuple[int, ...]:
    """0/1 vector (alpha_1, ..., alpha_n)."""
    return tuple((mask >> i) & 1 for i in range(n))


def mask_str(mask: int, n: int) -> str:
    """Render as a product of variables, '1' for the empty mask."""
    if mask == 0:
        return "1"
    return "*".join(f"x{i + 1}" for i in bits_of(mask))


def _check_n(n: int) -> None:
    if not 1 <= n <= MAX_VARIABLES:
        raise InputError(f"variable count n={n} outside [1, {MAX_VARIABLES}]")


def _check_mask(mask: int, n: int) -> None:
    if mask < 0 or mask >> n:
        raise InputError(f"mask {mask:b} does not fit in n={n} bits")


def _minimal_masks(masks) -> list[int]:
    """Inclusion-minimal elements, canonically sorted."""
    uniq = sorted(set(masks), key=mask_key)
    out = []
    for m in uniq:
        if not any(contains(m, kept) for kept in out):
            out.append(m)
    return out


def _maximal_masks(masks) -> list[int]:
    """Inclusion-maximal elements, canonically sorted."""
    uniq = sorted(set(masks), key=mask_key, reverse=True)
    out = []
    for m in uniq:
        if not any(contains(kept, m) for kept in out):
            out.append(m)
    return sorted(out, key=mask_key)


# Answers kept by ``minimal_transversals``, keyed by the mask tuple; the
# oldest is evicted first.  One ideal asks for its minimal primes and those
# of its dual several times (height, Stanley-Reisner complex, Alexander
# dual, hypercube lattice).
TRANSVERSALS_CACHE_SIZE = 64
_transversals: dict[tuple[int, ...], tuple[int, ...]] = {}


def minimal_transversals(masks) -> list[int]:
    """Inclusion-minimal masks meeting every mask in ``masks``, as a fresh
    list on every call.

    For the empty family the empty mask is the unique minimal transversal.
    If some mask is 0 no transversal exists and the result is empty.
    """
    key = tuple(masks)
    out = _transversals.get(key)
    if out is None:
        out = tuple(_transversals_of(key))
        while len(_transversals) >= TRANSVERSALS_CACHE_SIZE:
            del _transversals[next(iter(_transversals))]
        _transversals[key] = out
    return list(out)


def _transversals_of(masks: tuple[int, ...]) -> list[int]:
    if 0 in masks:
        return []
    current = [0]
    for m in sorted(set(masks), key=mask_key):
        nxt = []
        for t in current:
            if t & m:
                nxt.append(t)
            else:
                nxt.extend(t | (1 << b) for b in bits_of(m))
        current = _minimal_masks(nxt)
    return current


# ---------------------------------------------------------------------------
# squarefree monomial ideals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonomialIdeal:
    """A squarefree monomial ideal given by its minimal generators.

    ``gens`` is the canonical form: divisibility-minimal masks sorted by
    (popcount, numeric value).  Any generating family is accepted and
    canonicalized, so two ideals are equal iff they are the same ideal.  The
    zero ideal has no generators; the unit ideal is generated by the empty
    mask.
    """

    n: int
    gens: tuple[int, ...]

    def __post_init__(self):
        _check_n(self.n)
        for g in self.gens:
            _check_mask(g, self.n)
        object.__setattr__(self, "gens", tuple(_minimal_masks(self.gens)))

    @property
    def is_zero(self) -> bool:
        return not self.gens

    @property
    def is_unit(self) -> bool:
        return self.gens == (0,)

    @property
    def is_proper_nonzero(self) -> bool:
        return bool(self.gens) and not self.is_unit

    def height(self) -> int:
        return min(popcount(p) for p in minimal_primes(self))

    def dim_quotient(self) -> int:
        """dim R/I = n - ht I."""
        return self.n - self.height()

    def __str__(self) -> str:
        if self.is_zero:
            return f"(0) in k[x1..x{self.n}]"
        body = ", ".join(mask_str(g, self.n) for g in self.gens)
        return f"({body}) in k[x1..x{self.n}]"


def minimalize(n: int, raw_gens) -> MonomialIdeal:
    """Canonical ideal from an arbitrary squarefree generator list."""
    return MonomialIdeal(n, tuple(raw_gens))


def _require_proper_nonzero(ideal: MonomialIdeal) -> None:
    if ideal.is_zero:
        raise DomainError("operation undefined for the zero ideal")
    if ideal.is_unit:
        raise DomainError("operation undefined for the unit ideal")


def intersect_face_ideals(n: int, primes) -> MonomialIdeal:
    """Generators of the intersection of the face ideals p_alpha.

    A squarefree monomial lies in every p_alpha iff its support meets every
    alpha, so the minimal generators are the minimal transversals.
    """
    _check_n(n)
    primes = list(primes)
    if not primes:
        raise InputError("need at least one face ideal")
    for p in primes:
        _check_mask(p, n)
        if p == 0:
            raise InputError("face ideal masks must be nonzero")
    return MonomialIdeal(n, tuple(minimal_transversals(primes)))


def minimal_primes(ideal: MonomialIdeal) -> list[int]:
    """Masks of the minimal primes: minimal transversals of the generators."""
    _require_proper_nonzero(ideal)
    return minimal_transversals(ideal.gens)


def alexander_dual(ideal: MonomialIdeal) -> MonomialIdeal:
    """One generator x^alpha per minimal prime p_alpha; an involution."""
    return MonomialIdeal(ideal.n, tuple(minimal_primes(ideal)))


# ---------------------------------------------------------------------------
# simplicial complexes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SimplicialComplex:
    """Faces on a vertex subset, stored by maximal faces.

    The void complex (no faces at all) and the irrelevant complex (only the
    empty face) are distinct states: facets == () versus facets == (0,).
    """

    vertices: int
    facets: tuple[int, ...]

    def __post_init__(self):
        for f in self.facets:
            if not contains(self.vertices, f):
                raise InputError("facet not contained in the vertex set")

    @property
    def is_void(self) -> bool:
        return not self.facets

    def has_face(self, mask: int) -> bool:
        return any(contains(f, mask) for f in self.facets)

    def faces(self) -> set[int]:
        """Every face, as a set of masks (empty set for the void complex)."""
        out: set[int] = set()
        for f in self.facets:
            if f in out:
                continue
            for s in submasks(f):
                out.add(s)
        return out

    def dim(self) -> int:
        """Dimension: -1 for the irrelevant complex; undefined (-2) if void."""
        if self.is_void:
            return -2
        return max(popcount(f) for f in self.facets) - 1


def simplicial_complex(vertices: int, facets) -> SimplicialComplex:
    """Build a complex from any generating family of faces."""
    return SimplicialComplex(vertices, tuple(_maximal_masks(facets)))


def void_complex(vertices: int) -> SimplicialComplex:
    return SimplicialComplex(vertices, ())


def full_simplex(vertices: int) -> SimplicialComplex:
    return SimplicialComplex(vertices, (vertices,))


def stanley_reisner(ideal: MonomialIdeal) -> SimplicialComplex:
    """The complex whose non-faces are the monomials of the ideal.

    Facets are the complements of the minimal primes.  The zero ideal gives
    the full simplex, the unit ideal the void complex.
    """
    if ideal.is_unit:
        return void_complex(full_mask(ideal.n))
    full = full_mask(ideal.n)
    if ideal.is_zero:
        return full_simplex(full)
    facets = [full ^ p for p in minimal_primes(ideal)]
    return SimplicialComplex(full, tuple(sorted(facets, key=mask_key)))


def restriction(cx: SimplicialComplex, alpha: int) -> SimplicialComplex:
    """Faces contained in alpha, on vertex set alpha."""
    if not contains(cx.vertices, alpha):
        raise InputError("restriction mask not contained in the vertex set")
    if cx.is_void:
        return void_complex(alpha)
    return simplicial_complex(alpha, [f & alpha for f in cx.facets])


def link(cx: SimplicialComplex, alpha: int) -> SimplicialComplex:
    """link_alpha: faces disjoint from alpha whose union with it is a face.

    Void when alpha is not a face.  Lives on vertices \\ alpha.
    """
    rest = cx.vertices & ~alpha
    if not cx.has_face(alpha):
        return void_complex(rest)
    return simplicial_complex(
        rest, [f & ~alpha for f in cx.facets if contains(f, alpha)]
    )

