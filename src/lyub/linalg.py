"""Exact linear algebra over Q and prime fields F_p.

A ``Field`` is a value holding its characteristic: 0 for Q, p for F_p.
Scalars are plain Python objects.  Over Q they are ints wherever the value
is integral and ``fractions.Fraction`` only where a division by a non-unit
leaves a non-integer; ints and Fractions compare and hash equal, so the two
never need telling apart.  Over F_p they are ints in [0, p).

``ExactMatrix`` stores only its nonzero entries: one row per matrix row,
each a tuple of (col, value) pairs in increasing column order.
Selections, transposes, equality and the one zero-product test
(``product_is_zero``, the d∘d check and the cocycle test) walk those
entries alone.  Every elimination reads the rows scaled to integers
(``_integral_rows``) and runs one engine shared by both kinds of field:
over Q the rows stay integral (fraction-free updates, each rescaled row
divided by its gcd), over F_p they are reduced mod p.  ``complex_ranks``
ranks every map of a complex in one sweep from the top map down, each map
reduced without the columns the map above already accounts for, and
``rank`` is its one-map case; ``cancel`` is the pivot loop under the
minimization of free resolutions; ``rref`` scans columns in order on the
same row update, and ``homology_space`` reads a homology basis, and the
map taking a cycle to its class, off one ``rref``; ``homology_classes``
applies that map to the cycles of one caller.  Every homology dimension
is read off ranks by one rule, ``homology_from_ranks``.
"""

from dataclasses import dataclass
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

from .errors import ContractError, InputError

# ---------------------------------------------------------------------------
# fields
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Field:
    """A field of scalars, named by its characteristic: ``p == 0`` is Q and
    a prime ``p`` is F_p.  Equal fields compare and hash equal."""

    p: int

    def __post_init__(self):
        p = self.p
        if p == 0:
            return
        if not 2 <= p < 2**31:
            raise InputError(f"prime modulus {p} outside [2, 2^31)")
        for d in range(2, p):
            if d * d > p:
                break
            if p % d == 0:
                raise InputError(f"{p} is not prime")

    def coerce(self, x):
        """The canonical scalar for x: over Q an int where the value is
        integral and a Fraction otherwise, over F_p an int in [0, p).  Any
        other scalar (a float, a bool, a Fraction) is read as the Fraction
        it equals, over either kind of field."""
        p = self.p
        if type(x) is int:
            return x % p if p else x
        x = Fraction(x)
        if not p:
            return x.numerator if x.denominator == 1 else x
        if x.denominator % p == 0:
            raise ZeroDivisionError("denominator divisible by p")
        return x.numerator * pow(x.denominator, -1, p) % p

    def neg(self, a):
        return -a % self.p if self.p else -a

    def is_zero(self, a):
        return a % self.p == 0 if self.p else a == 0

    def name(self):
        return f"F{self.p}" if self.p else "Q"


QQ = Field(0)


def prime_field(p: int) -> Field:
    """F_p for a prime p < 2^31; Q is ``QQ``, so p = 0 is refused."""
    if p == 0:
        raise InputError("prime modulus 0 outside [2, 2^31)")
    return Field(p)


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------


def _pack(acc: dict, p: int) -> tuple:
    """The stored form of a {col: scalar} row: its nonzero entries, reduced
    to canonical scalars, in column order."""
    if p:
        return tuple(sorted((j, v % p) for j, v in acc.items() if v % p))
    return tuple(sorted(
        (j, v if type(v) is int else QQ.coerce(v)) for j, v in acc.items() if v
    ))


def _is_size(k) -> bool:
    """A matrix side or space dimension: an int >= 0, bools excluded."""
    return type(k) is int and k >= 0


class ExactMatrix:
    """Matrix with entries in a fixed field, reduced at construction.

    ``data`` holds one sparse row per matrix row: a tuple of (col, value)
    pairs, columns increasing, zeros left out.  ``dense`` reads it out as
    row lists.
    """

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, rows: int, cols: int, data=None):
        """``data``, if given, is ``rows`` dense row lists of ``cols`` scalars."""
        if not (_is_size(rows) and _is_size(cols)):
            raise InputError(f"matrix shape {rows!r}x{cols!r} is not two ints >= 0")
        self.field = field
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [()] * rows
        else:
            if len(data) != rows or any(len(r) != cols for r in data):
                raise InputError("matrix data shape mismatch")
            coerce = field.coerce
            self.data = [
                tuple((j, x) for j, x in enumerate(map(coerce, row)) if x)
                for row in data
            ]

    @classmethod
    def _wrap(cls, field, rows, cols, data):
        """Adopt rows already in the stored form without copying them."""
        out = cls.__new__(cls)
        out.field = field
        out.rows = rows
        out.cols = cols
        out.data = data
        return out

    @classmethod
    def identity(cls, field, n):
        return cls._wrap(field, n, n, [((i, 1),) for i in range(n)])

    @classmethod
    def from_entries(cls, field, rows, cols, entries):
        """The matrix with the given ((row, col), scalar) entries, reduced;
        every other entry is zero."""
        acc = [{} for _ in range(rows)]
        for (r, c), v in entries:
            if not (0 <= r < rows and 0 <= c < cols):
                raise InputError(f"entry ({r}, {c}) outside a {rows}x{cols} matrix")
            acc[r][c] = v
        return cls._wrap(field, rows, cols, [_pack(row, field.p) for row in acc])

    def dense(self) -> list[list]:
        """The entries as row lists, zeros included."""
        out = []
        for row in self.data:
            full = [0] * self.cols
            for j, v in row:
                full[j] = v
            out.append(full)
        return out

    def select(self, rows, cols, odd=None) -> "ExactMatrix":
        """The submatrix on ``rows`` and ``cols`` (each in increasing order),
        renumbered; an entry outside ``cols`` is left out.  With ``odd =
        (row_parities, col_parities)``, listed as ``rows`` and ``cols`` are,
        entry (i, j) is negated where the two parities differ: the change of
        basis by the signs (-1)^parity on both sides."""
        get = dict(zip(cols, range(len(cols)))).get
        src = self.data
        if odd is None:
            data = [
                tuple([(k, v) for j, v in src[i] if (k := get(j)) is not None])
                for i in rows
            ]
        else:
            neg, col_odd = self.field.neg, odd[1]
            data = [
                tuple([
                    (k, neg(v) if e != col_odd[k] else v)
                    for j, v in src[i] if (k := get(j)) is not None
                ])
                for i, e in zip(rows, odd[0])
            ]
        return ExactMatrix._wrap(self.field, len(rows), len(cols), data)

    def transpose(self):
        cols = [[] for _ in range(self.cols)]
        for i, row in enumerate(self.data):
            for j, v in row:
                cols[j].append((i, v))
        return ExactMatrix._wrap(self.field, self.cols, self.rows, list(map(tuple, cols)))

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (
            self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self):
        return f"ExactMatrix({self.field.name()}, {self.rows}x{self.cols})"


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------


def _integral_rows(mat: ExactMatrix) -> tuple[list[tuple], dict]:
    """The stored rows of mat, each over Q multiplied by the lcm of its
    entries' denominators (which leaves its span unchanged), and {row:
    factor} for the rows so scaled; the rows themselves, not a copy, where
    every entry is an int already (always over F_p)."""
    if mat.field.p or all(type(v) is int for row in mat.data for _, v in row):
        return mat.data, {}
    rows, factors = [], {}
    for k, row in enumerate(mat.data):
        scale = lcm(*(v.denominator for _, v in row))
        if scale != 1:
            factors[k] = scale
        rows.append(tuple((j, int(v * scale)) for j, v in row))
    return rows, factors


def _eliminate(row: dict, rid: int, prow: dict, pc: int, inv: int, p: int,
               index: dict):
    """Clear column ``pc`` of ``row`` (id ``rid``) against the pivot row;
    returns the factor the row was multiplied by.

    Over F_p ``inv`` is the inverse of ``prow[pc]`` and the factor is 1.
    Over Q the row stays integral: where the pivot does not divide
    ``row[pc]`` the row is first scaled, and a scaled row is then divided by
    the gcd of its entries.  ``index`` (col -> ids of the rows with an entry
    there), unless it is None, follows every entry that appears or cancels.
    """
    b = row[pc]
    scale = 1
    if p:
        t = b * inv % p
    else:
        a = prow[pc]
        if b % a:
            g = gcd(a, b)
            scale, t = a // g, b // g
            for c in row:
                row[c] *= scale
        else:
            t = b // a
    for c, v in prow.items():
        x = row.get(c, 0) - t * v
        if p:
            x %= p
        if x:
            if c not in row and index is not None:
                index[c].add(rid)
            row[c] = x
        else:
            del row[c]
            if index is not None:
                index[c].discard(rid)
    if scale == 1:
        return 1
    g = gcd(*row.values()) if row else 1
    if g > 1:
        for c in row:
            row[c] //= g
    return Fraction(scale, g)


def _column_index(rows: list[dict]) -> dict[int, set]:
    index: dict[int, set] = {}
    for i, row in enumerate(rows):
        for c in row:
            index.setdefault(c, set()).add(i)
    return index


def cancel(rows: list[dict], p: int, eligible) -> tuple[list, dict]:
    """Sparse elimination of ``rows`` ({col: int} dicts, changed in place)
    until no row has a pivot left; returns (pivots, factors).

    The shortest live row is the pivot row; its pivot is a unit entry (±1
    over Q, any nonzero over F_p) where it has one, else its smallest
    entry, with ties going to the column with the fewest entries.  Only an
    entry (row, col) that ``eligible`` accepts can be a pivot.  A row with
    none stays live, and it is queued again when a later elimination
    changes it.  Every other live row is cleared in the pivot column, so
    the live rows end as the Schur complement of the pivots, row k
    multiplied by ``factors.get(k, 1)``: over Q the product of the
    scalings that kept it integral, over F_p always 1.
    ``pivots`` lists the (row, col) pairs in the order taken.
    """
    index = _column_index(rows)
    live = {i: row for i, row in enumerate(rows) if row}
    heap = [(len(row), i) for i, row in live.items()]
    heapify(heap)
    pivots = []
    factors = {}
    while heap:
        n, i = heappop(heap)
        prow = live.get(i)
        if prow is None or len(prow) != n:
            continue  # eliminated, or queued again at its new length
        cols = [c for c in prow if eligible(i, c)]
        if not cols:
            continue
        del live[i]
        for c in prow:
            index[c].discard(i)
        if len(cols) == 1:  # the usual case on small matrices; skips min()
            pc, = cols
        elif p:
            pc = min(cols, key=lambda c: len(index[c]))
        else:
            pc = min(cols, key=lambda c: (abs(prow[c]), len(index[c])))
        inv = pow(prow[pc], -1, p) if p else 0
        for k in list(index[pc]):
            row = live[k]
            s = _eliminate(row, k, prow, pc, inv, p, index)
            if s != 1:
                factors[k] = factors.get(k, 1) * s
            if row:
                heappush(heap, (len(row), k))
            else:
                del live[k]
        pivots.append((i, pc))
    return pivots, factors


def complex_ranks(maps) -> list[int]:
    """The rank of each of ``maps``, maps[k] : position k+1 -> position k,
    in one sweep from the top map down.  The maps must compose to zero, as
    a checked complex's do: the ranks are wrong otherwise.

    Each map's rows, scaled to integers (``_integral_rows``), are reduced
    in order into a dict of pivot rows keyed by leading column
    (``_eliminate``), until no row is left or the pivots fill the columns.
    The rows kept as pivots, as many as the rank, are independent, so the
    image of the map projects isomorphically onto them.  The map below
    kills that image, so its columns at those rows are combinations of its
    other columns, and it is reduced without them (the "clearing" of Chen
    and Kerber, "Persistent homology computation with a twist", 2011).
    Where every row left holds at most one entry, the rank is the number of
    distinct columns among them and nothing is eliminated.
    """
    ranks = []
    cleared = ()
    for mat in reversed(maps):
        p = mat.field.p
        rows = _integral_rows(mat)[0]
        if cleared:
            rows = [tuple([e for e in row if e[0] not in cleared]) for row in rows]
        if all(len(row) <= 1 for row in rows):
            first = {}
            for i, row in enumerate(rows):
                if row:
                    first.setdefault(row[0][0], i)
            taken = set(first.values())
        else:
            width = mat.cols - len(cleared)
            piv: dict = {}  # leading column -> (row, inverse of its entry there)
            taken = set()
            for i, row in enumerate(rows):
                if not row:
                    continue
                x, c = dict(row), row[0][0]
                while True:
                    pr = piv.get(c)
                    if pr is None:
                        piv[c] = x, pow(x[c], -1, p) if p else 0
                        taken.add(i)
                        break
                    _eliminate(x, 0, pr[0], c, pr[1], p, None)
                    if not x:
                        break
                    c = min(x)
                if len(piv) == width:
                    break
        ranks.append(len(taken))
        cleared = taken
    return ranks[::-1]


def rank(mat: ExactMatrix) -> int:
    """Exact rank: ``complex_ranks`` of the one map, so no column is
    dropped; where every row holds at most one entry (every cochain
    complex's first coboundary does), nothing is eliminated."""
    return complex_ranks((mat,))[0]


def rref(mat: ExactMatrix):
    """Reduced row echelon form; returns (rref ExactMatrix, pivot columns).

    Columns are scanned left to right.  In each, the pivot row is the
    candidate with the fewest entries, ties going to the lowest row id,
    which keeps the fill-in of a wide sparse matrix low where dense
    elimination's first candidate would spread its entries.  Row t of the
    result is the row that took pivot t, divided by its pivot.  The reduced
    form of a matrix is unique, so the choice moves neither rows nor
    pivots: they come out exactly as a dense elimination over the field
    would give them.
    """
    p = mat.field.p
    rows = list(map(dict, _integral_rows(mat)[0]))
    index = _column_index(rows)
    taken = {}  # row id -> the pivot column it took, in pivot order
    for c in sorted(index):
        if len(taken) == mat.rows:
            break
        cand = [i for i in index[c] if i not in taken]
        if not cand:
            continue
        i = min(cand, key=lambda k: (len(rows[k]), k))
        prow = rows[i]
        if p:
            inv = pow(prow[c], -1, p)
            for k in prow:
                prow[k] = prow[k] * inv % p
        for k in list(index[c]):
            if k != i:
                _eliminate(rows[k], k, prow, c, 1, p, index)
        taken[i] = c
    data = [()] * mat.rows
    for t, (i, c) in enumerate(taken.items()):
        # over Q the pivot row is an integer multiple of its reduced form
        row = rows[i]
        a = row[c]
        if a == 1:
            data[t] = tuple(sorted(row.items()))
            continue
        out = []
        for k in sorted(row):
            q, rem = divmod(row[k], a)
            out.append((k, Fraction(row[k], a) if rem else q))
        data[t] = tuple(out)
    return ExactMatrix._wrap(mat.field, mat.rows, mat.cols, data), list(taken.values())


# ---------------------------------------------------------------------------
# complexes of based vector spaces
# ---------------------------------------------------------------------------


def product_is_zero(left, right, p: int) -> bool:
    """Whether the matrix of the sparse rows ``left`` times that of
    ``right`` (left's columns index right's rows) is zero in characteristic
    p.  Each row of the product is summed on its own, and the test returns
    at the first nonzero one without building the product."""
    for arow in left:
        if len(arow) == 1:
            # a nonzero scalar times a row is zero only for a zero row
            if right[arow[0][0]]:
                return False
            continue
        acc = {}
        for k, a in arow:
            for j, b in right[k]:
                acc[j] = acc.get(j, 0) + a * b
        if any(v % p for v in acc.values()) if p else any(acc.values()):
            return False
    return True


def check_complex(dims, maps) -> None:
    """Refuse maps[p] : position p+1 -> position p that do not fit ``dims``
    or do not compose to zero (``product_is_zero``)."""
    if len(maps) != max(len(dims) - 1, 0):
        raise InputError("need one map per consecutive pair of positions")
    for p, m in enumerate(maps):
        if m.rows != dims[p] or m.cols != dims[p + 1]:
            raise InputError(f"map {p} has shape {m.rows}x{m.cols}, "
                             f"expected {dims[p]}x{dims[p+1]}")
    for p in range(len(maps) - 1):
        if not product_is_zero(maps[p].data, maps[p + 1].data, maps[p].field.p):
            raise ContractError(f"d∘d != 0 at position {p}")


class VectorSpaceComplex:
    """dims d_0..d_m with maps[p] : position p+1 -> position p over
    ``field``, d∘d = 0."""

    __slots__ = ("field", "dims", "maps")

    def __init__(self, field, dims, maps):
        dims = tuple(dims)
        maps = tuple(maps)
        for p, d in enumerate(dims):
            if not _is_size(d):
                raise InputError(f"position {p} has dimension {d!r}, not an int >= 0")
        for p, m in enumerate(maps):
            if m.field != field:
                raise InputError(f"map {p} is over {m.field.name()}, not {field.name()}")
        check_complex(dims, maps)
        self.field = field
        self.dims = dims
        self.maps = maps


def homology_from_ranks(dims, ranks) -> list[int]:
    """The homology dimensions dims[p] - ranks[p-1] - ranks[p], ranks[p]
    being the rank of the map between positions p and p+1 (0 past either
    end), in either direction; a negative one is refused."""
    ranks = [0, *ranks, 0]
    out = [d - ranks[p] - ranks[p + 1] for p, d in enumerate(dims)]
    if min(out, default=0) < 0:
        raise ContractError("negative homology dimension")
    return out


def homology_dims(cx: VectorSpaceComplex) -> list[int]:
    """H_p = dim ker(maps[p-1]) - rank(maps[p]) with boundary conventions,
    the ranks from one ``complex_ranks`` sweep."""
    return homology_from_ranks(cx.dims, complex_ranks(cx.maps))


def homology_space(field, dim, d_in, reduced):
    """Homology of  <- d_out - [k^dim] <- d_in -  made explicit, as the
    part of a solve that does not depend on the vectors solved for.

    d_in maps into the space (None where nothing does), and ``reduced`` is
    ``rref(d_out)`` for the map d_out out of it (None where nothing maps
    out); d_out @ d_in must be zero, as it is in a checked complex.

    R, the nonzero reduced rows of d_out, gives K = ker d_out and its free
    (non-pivot) coordinates F: K's row at the k-th free column is e_k, and
    at the pivot of a row of R the negated entries of that row.  Every
    column of [d_in | K | V], V any cycles, lies in ker d_out, and keeping
    only the coordinates F is injective there, so the rows at F have the
    null space, and so the nonzero reduced rows and pivots, of the whole
    matrix; K's block in them is the identity.  That block has full row
    rank, so every pivot of rref([d_in_F | I | V_F]) lies in the first two
    blocks, the identity block of rref([d_in_F | I]) is the transform E
    that reduces it, and the vectors block is E V_F.  One rref of [d_in_F
    | I] gives everything.  Its pivots in the identity block pick the
    representatives: the kernel columns completing the image of d_in, in
    canonical column order, written straight from R without forming K.
    Every cycle v is the unique combination of the image and
    representative columns that E v_F gives, and its entries at the
    representative pivots are its class.  Returns (reps, proj): reps is
    (dim x h), its columns representatives whose classes form a basis of
    the homology, and proj is (h x dim), E's rows at the representative
    pivots placed on the free columns, so that the class of a cycle v is
    proj v (``homology_classes``).
    """
    if d_in is None:
        d_in = ExactMatrix(field, dim, 0)
    elif d_in.rows != dim:
        raise InputError(f"d_in has {d_in.rows} rows, the space {dim}")
    if reduced is None:
        ech, pivots = (), []
    else:
        red, pivots = reduced
        if red.cols != dim:
            raise InputError(f"reduced d_out has {red.cols} columns, the space {dim}")
        ech = red.data[:len(pivots)]
    pivset = set(pivots)
    free = [c for c in range(dim) if c not in pivset]
    k0 = d_in.cols
    rows = [(*d_in.data[c], (k0 + k, 1)) for k, c in enumerate(free)]
    sol, spivots = rref(ExactMatrix._wrap(field, len(free), k0 + len(free), rows))
    # the free coordinate of each representative, and its index
    rep_at = {free[c - k0]: j for j, c in enumerate(c for c in spivots if c >= k0)}
    data = [()] * dim
    for c, j in rep_at.items():
        data[c] = ((j, 1),)
    neg = field.neg
    for row, pc in zip(ech, pivots):
        data[pc] = tuple([(rep_at[c], neg(x)) for c, x in row if c in rep_at])
    h = len(rep_at)
    proj = [
        tuple((free[c - k0], x) for c, x in row if c >= k0)
        for row, pc in zip(sol.data, spivots)
        if pc >= k0
    ]
    return ExactMatrix._wrap(field, dim, h, data), ExactMatrix._wrap(field, h, dim, proj)


def homology_classes(vectors, reduced, proj):
    """The classes proj v of the columns v of ``vectors``, ``proj`` and
    ``reduced`` as ``homology_space`` takes and returns them; (h x
    vectors.cols), scalars canonical.

    A column that d_out does not kill is refused.  The test multiplies the
    vectors by the nonzero reduced rows R of d_out, not by d_out: they are
    a basis of d_out's row space, so R v = 0 exactly when d_out v = 0, and
    there are only rank(d_out) of them.
    """
    field, vdata = vectors.field, vectors.data
    p = field.p
    if vectors.rows != proj.cols:
        raise InputError(f"vectors have {vectors.rows} rows, the space {proj.cols}")
    if reduced is not None and vectors.cols:
        red, pivots = reduced
        if not product_is_zero(red.data[:len(pivots)], vdata, p):
            raise ContractError("inconsistent linear system")
    classes = []
    for prow in proj.data:
        acc = {}
        for k, a in prow:
            for j, x in vdata[k]:
                acc[j] = acc.get(j, 0) + a * x
        classes.append(_pack(acc, p))
    return ExactMatrix._wrap(field, proj.rows, vectors.cols, classes)
