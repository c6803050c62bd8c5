"""Exact linear algebra over Q and prime fields F_p.

A ``Field`` is a value holding its characteristic: 0 for Q, p for F_p.
Scalars are plain Python objects.  Over Q they are ints wherever the value
is integral and ``fractions.Fraction`` only where a division by a non-unit
leaves a non-integer; ints and Fractions compare and hash equal, so the two
never need telling apart.  Over F_p they are ints in [0, p).

``ExactMatrix`` stores its entries as row lists, but every elimination runs
on sparse rows ({col: int}) in one engine shared by both kinds of field:
over Q the rows stay integral (fraction-free updates, each rescaled row
divided by its gcd), over F_p they are reduced mod p.  Products walk only
the nonzero entries of the right factor.
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

    def one(self):
        return 1

    def neg(self, a):
        return -a % self.p if self.p else -a

    def inv(self, a):
        if self.is_zero(a):
            raise ZeroDivisionError("inverse of zero")
        if self.p:
            return pow(a, -1, self.p)
        if a == 1 or a == -1:
            return int(a)
        return self.coerce(1 / Fraction(a))

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


class ExactMatrix:
    """Matrix with entries in a fixed field, reduced at construction.

    ``data`` holds the rows as lists; the elimination routines below read it
    into sparse rows.
    """

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: Field, rows: int, cols: int, data=None):
        self.field = field
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [[0] * cols for _ in range(rows)]
        else:
            if len(data) != rows or any(len(r) != cols for r in data):
                raise InputError("matrix data shape mismatch")
            self.data = [[field.coerce(x) for x in row] for row in data]

    @classmethod
    def _wrap(cls, field, rows, cols, data):
        """Adopt rows of already reduced entries without copying them."""
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
        m = cls(field, n, n)
        one = field.one()
        for i in range(n):
            m.data[i][i] = one
        return m

    @classmethod
    def from_rows(cls, field, rows):
        r = len(rows)
        c = len(rows[0]) if r else 0
        return cls(field, r, c, rows)

    def transpose(self):
        if self.rows:
            data = [list(col) for col in zip(*self.data)]
        else:
            data = [[] for _ in range(self.cols)]
        return ExactMatrix._wrap(self.field, self.cols, self.rows, data)

    def matmul(self, other: "ExactMatrix") -> "ExactMatrix":
        """The product, walking only the nonzero entries of ``other``."""
        if self.cols != other.rows:
            raise InputError("matmul shape mismatch")
        p = self.field.p
        coerce = self.field.coerce
        right = [[(j, b) for j, b in enumerate(row) if b] for row in other.data]
        data = []
        for arow in self.data:
            acc = {}
            for k, a in enumerate(arow):
                if a:
                    for j, b in right[k]:
                        acc[j] = acc.get(j, 0) + a * b
            row = [0] * other.cols
            for j, v in acc.items():
                row[j] = v % p if p else v if type(v) is int else coerce(v)
            data.append(row)
        return ExactMatrix._wrap(self.field, self.rows, other.cols, data)

    __matmul__ = matmul

    def scaled(self, c) -> "ExactMatrix":
        f = self.field
        c = f.coerce(c)
        return ExactMatrix._wrap(
            f, self.rows, self.cols, [[f.coerce(c * x) for x in row] for row in self.data]
        )

    def is_zero_matrix(self) -> bool:
        p = self.field.p
        if p:
            return all(x % p == 0 for row in self.data for x in row)
        return not any(map(any, self.data))

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
    for b in blocks:
        if b.rows != rows:
            raise InputError("hstack row mismatch")
        for i in range(rows):
            data[i].extend(b.data[i])
    cols = sum(b.cols for b in blocks)
    return ExactMatrix._wrap(field, rows, cols, data)


def block_matrix(field, row_dims, col_dims, blocks) -> ExactMatrix:
    """Assemble from a dict (block_row, block_col) -> ExactMatrix."""
    rows = sum(row_dims)
    cols = sum(col_dims)
    out = ExactMatrix(field, rows, cols)
    roff = [0]
    for d in row_dims:
        roff.append(roff[-1] + d)
    coff = [0]
    for d in col_dims:
        coff.append(coff[-1] + d)
    for (bi, bj), blk in blocks.items():
        if blk.rows != row_dims[bi] or blk.cols != col_dims[bj]:
            raise InputError("block shape mismatch")
        r0, c0 = roff[bi], coff[bj]
        for i in range(blk.rows):
            out.data[r0 + i][c0 : c0 + blk.cols] = blk.data[i]
    return out


# ---------------------------------------------------------------------------
# elimination
# ---------------------------------------------------------------------------


def _sparse_rows(mat: ExactMatrix) -> list[dict]:
    """One {col: int} dict per row, zeros left out.

    Over F_p the entries are reduced mod p; over Q a row with fractions is
    scaled by the lcm of its denominators, which leaves its span unchanged.
    """
    p = mat.field.p
    out = []
    for row in mat.data:
        if p:
            srow = {j: v % p for j, v in enumerate(row) if v % p}
        else:
            srow = {j: v for j, v in enumerate(row) if v}
            if any(type(v) is not int for v in srow.values()):
                scale = lcm(*(Fraction(v).denominator for v in srow.values()))
                srow = {j: int(v * scale) for j, v in srow.items()}
        out.append(srow)
    return out


def _eliminate(row: dict, rid: int, prow: dict, pc: int, inv: int, p: int,
               index: dict) -> None:
    """Clear column ``pc`` of ``row`` (id ``rid``) against the pivot row.

    Over F_p ``inv`` is the inverse of ``prow[pc]``.  Over Q the row stays
    integral: where the pivot does not divide ``row[pc]`` the row is first
    scaled, and a scaled row is then divided by the gcd of its entries.
    ``index`` (col -> ids of the rows with an entry there) follows every
    entry that appears or cancels.
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
    if scale != 1 and row:
        g = gcd(*row.values())
        if g > 1:
            for c in row:
                row[c] //= g


def _column_index(rows: list[dict]) -> dict[int, set]:
    index: dict[int, set] = {}
    for i, row in enumerate(rows):
        for c in row:
            index.setdefault(c, set()).add(i)
    return index


def rank(mat: ExactMatrix) -> int:
    """Exact rank by sparse elimination.

    The shortest remaining row is the pivot row; its pivot is a unit entry
    (±1 over Q, any nonzero over F_p) where it has one, else its smallest
    entry, with ties going to the column with the fewest entries.
    """
    if mat.rows == 0 or mat.cols == 0:
        return 0
    p = mat.field.p
    rows = _sparse_rows(mat)
    index = _column_index(rows)
    live = {i: row for i, row in enumerate(rows) if row}
    heap = [(len(row), i) for i, row in live.items()]
    heapify(heap)
    r = 0
    while heap:
        n, i = heappop(heap)
        prow = live.get(i)
        if prow is None or len(prow) != n:
            continue  # eliminated, or queued again at its new length
        del live[i]
        for c in prow:
            index[c].discard(i)
        if p:
            pc = min(prow, key=lambda c: len(index[c]))
            inv = pow(prow[pc], -1, p)
        else:
            pc = min(prow, key=lambda c: (abs(prow[c]), len(index[c])))
            inv = 0
        for k in list(index[pc]):
            row = live[k]
            _eliminate(row, k, prow, pc, inv, p, index)
            if row:
                heappush(heap, (len(row), k))
            else:
                del live[k]
        r += 1
    return r


def rank_naive(mat: ExactMatrix) -> int:
    """Rank by plain dense field-arithmetic elimination.

    Shares no code with ``rank``, so it can cross-check the sparse engine.
    """
    f = mat.field
    m = [row[:] for row in mat.data]
    r = 0
    for c in range(mat.cols):
        piv = next((i for i in range(r, mat.rows) if not f.is_zero(m[i][c])), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = f.inv(m[r][c])
        for i in range(r + 1, mat.rows):
            if not f.is_zero(m[i][c]):
                factor = m[i][c] * inv
                m[i] = [f.coerce(x - factor * y) for x, y in zip(m[i], m[r])]
        r += 1
    return r


def rref(mat: ExactMatrix):
    """Reduced row echelon form; returns (rref ExactMatrix, pivot columns).

    Deterministic: columns scanned left to right, first nonzero row used as
    pivot (rows swap into place as in dense elimination).  The reduced form
    of a matrix is unique, so the rows come out exactly as a dense
    elimination over the field would give them.
    """
    f = mat.field
    p = f.p
    nrows, ncols = mat.rows, mat.cols
    rows = _sparse_rows(mat)
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
        i = min(cand, key=pos.__getitem__)
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
    data = []
    for t in range(nrows):
        out = [0] * ncols
        if t < r:
            # over Q the pivot row is an integer multiple of its reduced form
            row = rows[order[t]]
            a = row[pivots[t]]
            for k, v in row.items():
                q, rem = divmod(v, a)
                out[k] = Fraction(v, a) if rem else q
        data.append(out)
    return ExactMatrix._wrap(f, nrows, ncols, data), pivots


def kernel_basis(mat: ExactMatrix) -> ExactMatrix:
    """Columns form a deterministic basis of ker(mat); A @ K = 0."""
    f = mat.field
    red, pivots = rref(mat)
    pivset = set(pivots)
    free = [c for c in range(mat.cols) if c not in pivset]
    out = ExactMatrix(f, mat.cols, len(free))
    one = f.one()
    for k, c in enumerate(free):
        out.data[c][k] = one
        for r, pc in enumerate(pivots):
            out.data[pc][k] = f.neg(red.data[r][c])
    return out


def solve_matrix(a: ExactMatrix, b: ExactMatrix) -> ExactMatrix:
    """Some X with a @ X = b; raises ContractError if inconsistent."""
    if a.rows != b.rows:
        raise InputError("solve shape mismatch")
    f = a.field
    aug = hstack(f, [a, b], a.rows)
    red, pivots = rref(aug)
    for pc in pivots:
        if pc >= a.cols:
            raise ContractError("inconsistent linear system")
    x = ExactMatrix(f, a.cols, b.cols)
    for r, pc in enumerate(pivots):
        x.data[pc] = red.data[r][a.cols :]
    return x


def independent_columns(mat: ExactMatrix) -> list[int]:
    """Indices of a deterministic maximal independent column subset."""
    _, pivots = rref(mat)
    return pivots


# ---------------------------------------------------------------------------
# complexes of based vector spaces
# ---------------------------------------------------------------------------


class VectorSpaceComplex:
    """dims d_0..d_m with maps[p] : position p+1 -> position p, d∘d = 0."""

    __slots__ = ("field", "dims", "maps")

    def __init__(self, field, dims, maps, check: bool = True):
        dims = tuple(dims)
        maps = tuple(maps)
        if len(maps) != max(len(dims) - 1, 0):
            raise InputError("need one map per consecutive pair of positions")
        for p, m in enumerate(maps):
            if m.rows != dims[p] or m.cols != dims[p + 1]:
                raise InputError(f"map {p} has shape {m.rows}x{m.cols}, "
                                 f"expected {dims[p]}x{dims[p+1]}")
        if check:
            for p in range(len(maps) - 1):
                if not maps[p].matmul(maps[p + 1]).is_zero_matrix():
                    raise ContractError(f"composability d∘d != 0 at position {p}")
        self.field = field
        self.dims = dims
        self.maps = maps

    def __len__(self):
        return len(self.dims)

    def euler_characteristic(self) -> int:
        return sum((-1) ** p * d for p, d in enumerate(self.dims))


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


def transpose_reverse(cx: VectorSpaceComplex) -> VectorSpaceComplex:
    """Reverse positions and transpose maps (the dual complex)."""
    dims = tuple(reversed(cx.dims))
    maps = tuple(m.transpose() for m in reversed(cx.maps))
    return VectorSpaceComplex(cx.field, dims, maps)


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

    def express(self, vectors: ExactMatrix) -> ExactMatrix:
        """Classes of cycle columns in the representative basis.

        Solves [image | reps] x = v and returns the reps part; raises
        ContractError when a column is not a cycle modulo boundaries.
        """
        if self.dim == 0:
            return ExactMatrix(self.field, 0, vectors.cols)
        basis = hstack(self.field, [self.image, self.reps], self.space_dim)
        x = solve_matrix(basis, vectors)
        return ExactMatrix(
            self.field,
            self.dim,
            vectors.cols,
            [x.data[self.image.cols + i] for i in range(self.dim)],
        )


def homology_space(field, dim, d_out, d_in) -> HomologySpace:
    """Homology of  <- d_out - [this space] <- d_in -  made explicit.

    d_out maps out of the space (may be None), d_in into it (may be None).
    Representatives are kernel basis columns completing the image pivots,
    chosen in canonical column order.
    """
    if d_out is not None and d_out.cols != dim:
        raise InputError("d_out shape mismatch")
    if d_in is not None and d_in.rows != dim:
        raise InputError("d_in shape mismatch")
    ker = kernel_basis(d_out) if d_out is not None else ExactMatrix.identity(field, dim)
    if d_in is not None:
        img_cols = independent_columns(d_in)
        image = ExactMatrix(
            field, dim, len(img_cols), [[d_in.data[i][j] for j in img_cols] for i in range(dim)]
        )
    else:
        image = ExactMatrix(field, dim, 0)
    stacked = hstack(field, [image, ker], dim)
    piv = independent_columns(stacked)
    rep_cols = [c - image.cols for c in piv if c >= image.cols]
    reps = ExactMatrix(
        field, dim, len(rep_cols), [[ker.data[i][j] for j in rep_cols] for i in range(dim)]
    )
    return HomologySpace(field, dim, len(rep_cols), reps, image)

