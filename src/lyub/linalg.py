"""Exact linear algebra over Q and prime fields F_p.

A ``Field`` is a value holding its characteristic: 0 for Q, p for F_p.
Scalars are plain Python objects.  Over Q they are ints wherever the value
is integral and ``fractions.Fraction`` only where a division by a non-unit
leaves a non-integer; ints and Fractions compare and hash equal, so the two
never need telling apart.  Over F_p they are ints in [0, p).

``ExactMatrix`` stores only its nonzero entries: one row per matrix row,
each a tuple of (col, value) pairs in increasing column order.  Products,
transposes, equality and the one d∘d check (``check_complex``) walk those
entries alone.  Every elimination copies the rows into mutable {col: int}
dicts and runs one engine shared by both kinds of field: over Q the rows
stay integral (fraction-free updates, each rescaled row divided by its
gcd), over F_p they are reduced mod p.  ``cancel`` is its pivot loop, and
both ``rank`` and the minimization of free resolutions run on it;
``rref`` keeps a column-order loop on the same row update, since the
canonical bases of kernels and homology need it.
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
        integral and a Fraction otherwise, over F_p an int in [0, p)."""
        p = self.p
        if p:
            if isinstance(x, Fraction):
                if x.denominator % p == 0:
                    raise ZeroDivisionError("denominator divisible by p")
                return x.numerator * pow(x.denominator, -1, p) % p
            return x % p
        if type(x) is int:
            return x
        x = Fraction(x)
        return x.numerator if x.denominator == 1 else x

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


class ExactMatrix:
    """Matrix with entries in a fixed field, reduced at construction.

    ``data`` holds one sparse row per matrix row: a tuple of (col, value)
    pairs, columns increasing, zeros left out.  ``dense`` reads it out as
    row lists.
    """

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, rows: int, cols: int, data=None):
        """``data``, if given, is ``rows`` dense row lists of ``cols`` scalars."""
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
    def zeros(cls, field, rows, cols):
        return cls(field, rows, cols)

    @classmethod
    def identity(cls, field, n):
        return cls._wrap(field, n, n, [((i, 1),) for i in range(n)])

    @classmethod
    def from_rows(cls, field, rows):
        r = len(rows)
        c = len(rows[0]) if r else 0
        return cls(field, r, c, rows)

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

    def columns(self, picks: list[int]) -> "ExactMatrix":
        """The submatrix of the columns in ``picks``, given in increasing order."""
        pos = {c: k for k, c in enumerate(picks)}
        data = [tuple((pos[j], v) for j, v in row if j in pos) for row in self.data]
        return ExactMatrix._wrap(self.field, self.rows, len(picks), data)

    def transpose(self):
        cols = [[] for _ in range(self.cols)]
        for i, row in enumerate(self.data):
            for j, v in row:
                cols[j].append((i, v))
        return ExactMatrix._wrap(self.field, self.cols, self.rows, list(map(tuple, cols)))

    def matmul(self, other: "ExactMatrix") -> "ExactMatrix":
        """The product, walking only the nonzero entries of both factors."""
        if self.cols != other.rows:
            raise InputError("matmul shape mismatch")
        p = self.field.p
        right = other.data
        data = []
        for arow in self.data:
            if len(arow) == 1 and arow[0][1] == 1:
                data.append(right[arow[0][0]])  # a unit row picks a row of other
                continue
            acc = {}
            for k, a in arow:
                for j, b in right[k]:
                    acc[j] = acc.get(j, 0) + a * b
            data.append(_pack(acc, p))
        return ExactMatrix._wrap(self.field, self.rows, other.cols, data)

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


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------


def _working_rows(mat: ExactMatrix) -> tuple[list[dict], dict]:
    """One mutable {col: int} dict per row, and {row: factor} for the rows
    it scaled.

    Over Q a row with fractions is multiplied by the lcm of its
    denominators, which leaves its span unchanged.
    """
    rows = [dict(row) for row in mat.data]
    factors = {}
    if not mat.field.p and any(type(v) is not int for row in mat.data for _, v in row):
        for k, row in enumerate(rows):
            if any(type(v) is not int for v in row.values()):
                scale = factors[k] = lcm(*(v.denominator for v in row.values()))
                rows[k] = {j: int(v * scale) for j, v in row.items()}
    return rows, factors


def _eliminate(row: dict, rid: int, prow: dict, pc: int, inv: int, p: int,
               index: dict):
    """Clear column ``pc`` of ``row`` (id ``rid``) against the pivot row;
    returns the factor the row was multiplied by.

    Over F_p ``inv`` is the inverse of ``prow[pc]`` and the factor is 1.
    Over Q the row stays integral: where the pivot does not divide
    ``row[pc]`` the row is first scaled, and a scaled row is then divided by
    the gcd of its entries.  ``index`` (col -> ids of the rows with an entry
    there) follows every entry that appears or cancels.
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
            if c not in row:
                index[c].add(rid)
            row[c] = x
        else:
            del row[c]
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


def cancel(rows: list[dict], p: int, eligible=None) -> tuple[list, dict]:
    """Sparse elimination of ``rows`` ({col: int} dicts, changed in place)
    until no row has a pivot left; returns (pivots, factors).

    The shortest live row is the pivot row; its pivot is a unit entry (±1
    over Q, any nonzero over F_p) where it has one, else its smallest
    entry, with ties going to the column with the fewest entries.  Only an
    entry (row, col) that ``eligible`` accepts can be a pivot (any entry
    when it is None).  A row with none stays live, and it is queued again
    when a later elimination changes it.  Every other live row is cleared
    in the pivot column, so the live rows end as the Schur complement of
    the pivots, row k multiplied by ``factors.get(k, 1)``: over Q the
    product of the scalings that kept it integral, over F_p always 1.
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
        cols = prow if eligible is None else [c for c in prow if eligible(i, c)]
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


def rank(mat: ExactMatrix) -> int:
    """Exact rank: the number of pivots ``cancel`` takes."""
    if mat.rows == 0 or mat.cols == 0:
        return 0
    return len(cancel(_working_rows(mat)[0], mat.field.p)[0])


def rref(mat: ExactMatrix):
    """Reduced row echelon form; returns (rref ExactMatrix, pivot columns).

    Columns are scanned left to right.  In each, the pivot row is the
    candidate with the fewest entries, ties going to the earliest position
    (rows swap into place as in dense elimination), which keeps the fill-in
    of a wide sparse matrix low where dense elimination's first candidate
    would spread its entries.  The reduced form of a matrix is unique, so
    the choice moves neither rows nor pivots: they come out exactly as a
    dense elimination over the field would give them.
    """
    f = mat.field
    p = f.p
    nrows = mat.rows
    rows = _working_rows(mat)[0]
    index = _column_index(rows)
    order = list(range(nrows))  # order[position] = row id
    pos = list(range(nrows))  # pos[row id] = position
    pivots = []
    r = 0
    for c in sorted(index):
        if r == nrows:
            break
        cand = [i for i in index[c] if pos[i] >= r]
        if not cand:
            continue
        i = min(cand, key=lambda k: (len(rows[k]), pos[k]))
        j, at = order[r], pos[i]
        order[r], order[at] = i, j
        pos[i], pos[j] = r, at
        prow = rows[i]
        if p:
            inv = pow(prow[c], -1, p)
            for k in prow:
                prow[k] = prow[k] * inv % p
        for k in list(index[c]):
            if k != i:
                _eliminate(rows[k], k, prow, c, 1, p, index)
        pivots.append(c)
        r += 1
    data = [()] * nrows
    for t in range(r):
        # over Q the pivot row is an integer multiple of its reduced form
        row = rows[order[t]]
        a = row[pivots[t]]
        if a == 1:
            data[t] = tuple(sorted(row.items()))
            continue
        out = []
        for k in sorted(row):
            q, rem = divmod(row[k], a)
            out.append((k, Fraction(row[k], a) if rem else q))
        data[t] = tuple(out)
    return ExactMatrix._wrap(f, nrows, mat.cols, data), pivots


def _kernel(mat: ExactMatrix) -> tuple[ExactMatrix, list[int]]:
    """``kernel_basis(mat)`` and the free (non-pivot) columns of mat, in
    increasing order, from one rref.  Row free[k] of the basis is the unit
    vector e_k."""
    f = mat.field
    red, pivots = rref(mat)
    pivset = set(pivots)
    free = [c for c in range(mat.cols) if c not in pivset]
    at = {c: k for k, c in enumerate(free)}
    data = [()] * mat.cols
    for c, k in at.items():
        data[c] = ((k, 1),)
    # a reduced row has entries only at its pivot and at free columns
    for row, pc in zip(red.data, pivots):
        data[pc] = tuple((at[c], f.neg(v)) for c, v in row if c != pc)
    return ExactMatrix._wrap(f, mat.cols, len(free), data), free


def kernel_basis(mat: ExactMatrix) -> ExactMatrix:
    """Columns form a deterministic basis of ker(mat); A @ K = 0."""
    return _kernel(mat)[0]


# ---------------------------------------------------------------------------
# complexes of based vector spaces
# ---------------------------------------------------------------------------


def check_complex(dims, maps) -> None:
    """Refuse maps[p] : position p+1 -> position p that do not fit ``dims``
    or do not compose to zero.

    Each row of maps[p] @ maps[p+1] is summed on its own, and the check
    returns at the first nonzero row without building the product.
    """
    if len(maps) != max(len(dims) - 1, 0):
        raise InputError("need one map per consecutive pair of positions")
    for p, m in enumerate(maps):
        if m.rows != dims[p] or m.cols != dims[p + 1]:
            raise InputError(f"map {p} has shape {m.rows}x{m.cols}, "
                             f"expected {dims[p]}x{dims[p+1]}")
    for p in range(len(maps) - 1):
        q = maps[p].field.p
        right = maps[p + 1].data
        for arow in maps[p].data:
            if len(arow) == 1:
                # a nonzero scalar times a row is zero only for a zero row
                nonzero = bool(right[arow[0][0]])
            else:
                acc = {}
                for k, a in arow:
                    for j, b in right[k]:
                        acc[j] = acc.get(j, 0) + a * b
                nonzero = any(v % q for v in acc.values()) if q else any(acc.values())
            if nonzero:
                raise ContractError(f"d∘d != 0 at position {p}")


class VectorSpaceComplex:
    """dims d_0..d_m with maps[p] : position p+1 -> position p, d∘d = 0."""

    __slots__ = ("field", "dims", "maps")

    def __init__(self, field, dims, maps):
        dims = tuple(dims)
        maps = tuple(maps)
        check_complex(dims, maps)
        self.field = field
        self.dims = dims
        self.maps = maps


def homology_dims(cx: VectorSpaceComplex) -> list[int]:
    """H_p = dim ker(maps[p-1]) - rank(maps[p]) with boundary conventions."""
    ranks = [rank(m) for m in cx.maps]
    out = []
    for p, d in enumerate(cx.dims):
        h = d
        if p > 0:
            h -= ranks[p - 1]
        if p < len(cx.maps):
            h -= ranks[p]
        if h < 0:
            raise ContractError("negative homology dimension")
        out.append(h)
    return out


@dataclass(frozen=True)
class HomologySpace:
    """Homology at one position, with chosen cycle representatives.

    ``reps`` is (space_dim x dim): columns are cocycle/cycle representatives
    whose classes form a basis.  ``image`` is a basis of the boundary
    subspace.  Bases are deterministic given the ambient ordered basis.
    """

    field: Field
    space_dim: int
    dim: int
    reps: ExactMatrix
    image: ExactMatrix


def homology_space(field, dim, d_out, d_in, vectors=None):
    """Homology of  <- d_out - [this space] <- d_in -  made explicit, with
    the classes of the cycle columns of ``vectors`` (may be None) in it.

    d_out maps out of the space (may be None), d_in into it (may be None);
    d_out @ d_in must be zero, as it is in a checked complex.  A column of
    ``vectors`` that d_out does not kill is refused.

    One rref of d_out gives K = ker d_out and its free (non-pivot)
    coordinates.  Every column of [d_in | K | vectors] lies in ker d_out,
    and keeping only the free coordinates is injective there, so the rows
    at the free coordinates have the null space, and so the nonzero
    reduced rows and pivots, of the whole matrix; K's block in them is
    the identity.  One rref of those rows gives everything.  Its pivots in
    the d_in block pick the image basis, and those in the kernel block the
    representatives: the kernel columns completing the image, in canonical
    column order.  The identity block spans the free coordinates, so no
    pivot falls in the vectors block, and every vector column is the
    unique combination of the image and representative columns that its
    reduced entries give; those at the representative pivots are its
    class.  Returns (space, classes), classes being (dim x vectors.cols).
    """
    if d_out is not None and d_out.cols != dim:
        raise InputError("d_out shape mismatch")
    if d_in is None:
        d_in = ExactMatrix(field, dim, 0)
    elif d_in.rows != dim:
        raise InputError("d_in shape mismatch")
    if vectors is None:
        vectors = ExactMatrix(field, dim, 0)
    elif vectors.rows != dim:
        raise InputError("vectors shape mismatch")
    if d_out is None:
        ker, free = ExactMatrix.identity(field, dim), range(dim)
    elif vectors.cols and any(d_out.matmul(vectors).data):
        raise ContractError("inconsistent linear system")
    else:
        ker, free = _kernel(d_out)
    k0 = d_in.cols
    v0 = k0 + ker.cols
    rows = [
        (*d_in.data[c], (k0 + k, 1), *[(v0 + j, x) for j, x in vectors.data[c]])
        for k, c in enumerate(free)
    ]
    red, pivots = rref(ExactMatrix._wrap(field, ker.cols, v0 + vectors.cols, rows))
    image = d_in.columns([c for c in pivots if c < k0])
    reps = ker.columns([c - k0 for c in pivots if c >= k0])
    classes = [
        tuple((c - v0, x) for c, x in row if c >= v0)
        for row, pc in zip(red.data, pivots)
        if pc >= k0
    ]
    space = HomologySpace(field, dim, reps.cols, reps, image)
    return space, ExactMatrix._wrap(field, reps.cols, vectors.cols, classes)
