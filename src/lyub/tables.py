"""Invariant tables: Lyubeznik, Bass, dual Bass, Betti.

All tables hold exact nonnegative integers and are plain immutable values;
rendering lives in the CLI module.
"""

from dataclasses import dataclass

from .combinatorics import mask_key
from .errors import ContractError, InputError


@dataclass(frozen=True)
class LyubeznikTable:
    """Upper triangular (d+1) x (d+1) table of lambda_{p,i}.

    Entries with p > i are zero by definition; lambda_{d,d} >= 1 always.
    """

    d: int
    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        size = self.d + 1
        if len(self.entries) != size or any(len(row) != size for row in self.entries):
            raise ContractError("Lyubeznik table has wrong shape")
        for p in range(size):
            for i in range(size):
                if p > i and self.entries[p][i]:
                    raise ContractError(f"lambda_{{{p},{i}}} nonzero below the diagonal")
        if self.entries[self.d][self.d] < 1:
            raise ContractError("lambda_{d,d} must be at least 1")

    @property
    def is_trivial(self) -> bool:
        """A single 1 at (d, d)."""
        for p in range(self.d + 1):
            for i in range(self.d + 1):
                expected = 1 if p == i == self.d else 0
                if self.entries[p][i] != expected:
                    return False
        return True

    @classmethod
    def from_entries(cls, d: int, values) -> "LyubeznikTable":
        """Build from a mapping (p, i) -> value, refusing a key off the table."""
        grid = [[0] * (d + 1) for _ in range(d + 1)]
        for (p, i), v in values.items():
            if not (0 <= p <= d and 0 <= i <= d):
                raise ContractError(f"lambda_{{{p},{i}}} outside a {d + 1}x{d + 1} table")
            if v:
                grid[p][i] = v
        return cls(d, tuple(tuple(row) for row in grid))

    @classmethod
    def from_homology(cls, n: int, d: int, homology) -> "LyubeznikTable":
        """Build from a mapping r -> homology dimensions by position p, the
        value at p being lambda_{p,n-r}.  A nonzero value outside the
        admissible triangle 0 <= p <= n-r <= d is refused."""
        values = {(p, n - r): h for r, dims in homology.items() for p, h in enumerate(dims) if h}
        for p, i in values:
            if not p <= i <= d:
                raise ContractError(f"lambda_{{{p},{i}}} nonzero outside the admissible triangle")
        return cls.from_entries(d, values)


def _canonical_rows(rows: dict[int, list[int]]) -> tuple:
    """Trim trailing zeros, drop zero rows, sort masks canonically."""
    out = []
    for alpha in sorted(rows, key=mask_key):
        mu = list(rows[alpha])
        while mu and mu[-1] == 0:
            mu.pop()
        if mu:
            out.append((alpha, tuple(mu)))
    return tuple(out)


@dataclass(frozen=True)
class BassTable:
    """Bass numbers mu_p(p_alpha, H_I^r(R)); zero rows omitted."""

    r: int
    rows: tuple[tuple[int, tuple[int, ...]], ...]

    @classmethod
    def from_rows(cls, r: int, rows: dict[int, list[int]]) -> "BassTable":
        return cls(r, _canonical_rows(rows))

    def as_dict(self) -> dict[int, tuple[int, ...]]:
        return dict(self.rows)

    def mu(self, alpha: int, p: int) -> int:
        if p < 0:
            raise InputError(f"index p={p} is negative")
        for a, vals in self.rows:
            if a == alpha:
                return vals[p] if p < len(vals) else 0
        return 0

    def masks(self) -> list[int]:
        return [a for a, _ in self.rows]


class DualBassTable(BassTable):
    """Dual Bass numbers pi_p(p_alpha, H_I^r(R)); zero rows omitted.  Never
    equal to a ``BassTable`` with the same rows."""

    pi = BassTable.mu


@dataclass(frozen=True)
class BettiTable:
    """Z^n-graded Betti numbers beta_{j,alpha} of a monomial ideal."""

    entries: tuple[tuple[int, int, int], ...]  # (j, alpha, count), sorted

    @classmethod
    def from_counts(cls, counts: dict[tuple[int, int], int]) -> "BettiTable":
        items = [
            (j, alpha, c) for (j, alpha), c in counts.items() if c
        ]
        items.sort(key=lambda t: (t[0], mask_key(t[1])))
        return cls(tuple(items))

    def count(self, j: int, alpha: int) -> int:
        for jj, aa, c in self.entries:
            if jj == j and aa == alpha:
                return c
        return 0

    def total(self, j: int) -> int:
        return sum(c for jj, _, c in self.entries if jj == j)

    def dominates(self, other: "BettiTable") -> bool:
        """Entrywise >= comparison."""
        mine = {(j, a): c for j, a, c in self.entries}
        return all(mine.get((j, a), 0) >= c for j, a, c in other.entries)
