"""Exception hierarchy and global resource caps.

The free resolutions behind the strand route are built as the Lyubeznik
resolution and capped by their cell count and by the divisibility tests
that find the cells, not by the generator count; the Lyubeznik resolution
stays far below the Taylor size, so ``--check`` finishes on the cycle
ideals up to n = 13.  The hypercube route is capped by its vertex count
2^n, and a Bass table by the vertex dimensions its rows assemble.
"""

# Everything that enumerates {0,1}^n is exponential in n; this cap keeps the
# worst case around 16M masks.
MAX_VARIABLES = 24

# Vertices of one hypercube: building it sweeps every vertex and selects the
# cochain complex of the restriction, from the one complex of the Alexander
# dual complex, at each mask of the lcm lattice of the Alexander dual ideal
# (nearly every vertex on the cycle ideals), about 2.2 times the work per
# added variable, so the 2^n count is refused up front above this (n = 16).
MAX_HYPERCUBE_MASKS = 2**16

# Vertex dimensions one Bass or dual Bass table may assemble: row alpha
# walks the nonzero vertices below alpha, so a table costs the sum of their
# total dimension over the support, found by an O(n 2^n) sweep before any
# row is built.  A table takes about 4 us per unit over Q on a 2-core Xeon
# (a12's degree-2 Bass and dual Bass tables: 889,832 units in 3.6 s each,
# single runs), so this cap (about 4 s) admits a12 and refuses a13
# (3,019,692 units).
MAX_BASS_WORK = 2**20

# Basis elements (cells) of one free complex before minimization: the Taylor
# complex on 20 generators.  The Taylor complex on q generators has 2^q - 1
# cells; the Lyubeznik resolution is a subcomplex, often a far smaller one.
MAX_RESOLUTION_CELLS = 2**20 - 1

# Divisibility tests the Lyubeznik enumeration may spend finding admissible
# sets, charged at their worst case before each level: 20 per cell of the
# cap, 20 being the generator count of the largest Taylor complex under it.
# Many generators with few admissible sets are refused by this cap rather
# than by the cell count.
MAX_RESOLUTION_TESTS = 20 * MAX_RESOLUTION_CELLS


class LyubError(Exception):
    """Base class for all errors raised by this package."""


class InputError(LyubError):
    """Malformed or out-of-range user input."""


class DomainError(LyubError):
    """Operation is mathematically undefined for this value."""


class ContractError(LyubError):
    """An internal invariant failed (d∘d != 0, non-commuting map, ...)."""


class ResourceError(LyubError):
    """A hard resource cap would be exceeded."""
