"""Exact rational linear algebra on dictionary-backed sparse data.

Everything in the algebra layer runs over the rationals: scalars are plain
ints where the arithmetic allows and `Fraction` otherwise, and the two mix
freely; there is no floating point anywhere.  Matrices are
immutable-by-convention dicts keyed by ``(row, col)``; vectors are dicts
keyed by coordinate index.

`EchelonSpace` is the one elimination kernel.  Rows are kept in echelon form
while vectors are added, and fully reduced by one back-substitution when the
basis is first read after an add.  The package eliminates only where a
module algorithm needs it: hom spaces, the radical and top layer of a
module (`modules.top_factors`) and the two rank certificates
(`modules.is_indecomposable` and cor-5.6's counterexample).  Pivots are
normalised to 1 by negating a row whose pivot entry is -1, so the 0/±1
matrices of this package eliminate in `int` arithmetic; `Fraction` appears
only at a pivot entry other than ±1.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from typing import Iterable, Mapping, Sequence

Scalar = int | Fraction
Vec = dict[int, Scalar]


def vec_axpy(out: Vec, c: Scalar, v: Mapping[int, Scalar]) -> None:
    """In-place ``out += c * v`` (the one sanctioned mutation helper)."""
    if not c:
        return
    for k, x in v.items():
        s = out.get(k, 0) + c * x
        if s:
            out[k] = s
        else:
            out.pop(k, None)


class RatMat:
    """A sparse matrix over the rationals.  Do not mutate after creation."""

    __slots__ = ("nrows", "ncols", "data")

    def __init__(self, nrows: int, ncols: int, data: Mapping[tuple[int, int], Scalar] | None = None):
        self.nrows = nrows
        self.ncols = ncols
        self.data: dict[tuple[int, int], Scalar] = {}
        if data:
            for (r, c), x in data.items():
                if not (0 <= r < nrows and 0 <= c < ncols):
                    raise ValueError(f"entry {(r, c)} outside {nrows}x{ncols}")
                if x:
                    self.data[r, c] = x

    @classmethod
    def identity(cls, n: int) -> "RatMat":
        return cls(n, n, {(i, i): 1 for i in range(n)})

    @classmethod
    def from_dense(cls, rows: Sequence[Sequence[Scalar]]) -> "RatMat":
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        data = {
            (r, c): x for r, row in enumerate(rows) for c, x in enumerate(row) if x
        }
        return cls(nrows, ncols, data)

    def to_dense(self) -> list[list[Fraction]]:
        out = [[Fraction(0)] * self.ncols for _ in range(self.nrows)]
        for (r, c), x in self.data.items():
            out[r][c] = Fraction(x)
        return out

    def col(self, j: int) -> Vec:
        return {r: x for (r, c), x in self.data.items() if c == j}

    def cols(self) -> list[Vec]:
        out: list[Vec] = [{} for _ in range(self.ncols)]
        for (r, c), x in self.data.items():
            out[c][r] = x
        return out

    def rows(self) -> list[Vec]:
        out: list[Vec] = [{} for _ in range(self.nrows)]
        for (r, c), x in self.data.items():
            out[r][c] = x
        return out

    def __mul__(self, other):
        if isinstance(other, RatMat):
            if self.ncols != other.nrows:
                raise ValueError("shape mismatch in matrix product")
            by_row: dict[int, Vec] = {}
            for (r, c), x in self.data.items():
                by_row.setdefault(r, {})[c] = x
            other_rows = other.rows()
            data: dict[tuple[int, int], Scalar] = {}
            for r, row in by_row.items():
                acc: Vec = {}
                for c, x in row.items():
                    vec_axpy(acc, x, other_rows[c])
                for c, x in acc.items():
                    data[r, c] = x
            return RatMat(self.nrows, other.ncols, data)
        return RatMat(self.nrows, self.ncols, {k: other * x for k, x in self.data.items()})

    __rmul__ = __mul__

    def __add__(self, other: "RatMat") -> "RatMat":
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ValueError("shape mismatch in matrix sum")
        data = dict(self.data)
        for k, x in other.data.items():
            s = data.get(k, 0) + x
            if s:
                data[k] = s
            else:
                data.pop(k, None)
        return RatMat(self.nrows, self.ncols, data)

    def __sub__(self, other: "RatMat") -> "RatMat":
        return self + (-1) * other

    def __neg__(self) -> "RatMat":
        return (-1) * self

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatMat)
            and (self.nrows, self.ncols) == (other.nrows, other.ncols)
            and self.data == other.data
        )

    def __hash__(self):
        # exact: zeros are never stored, int == Fraction and hash(Fraction(k)) == hash(k)
        return hash((self.nrows, self.ncols, frozenset(self.data.items())))

    def is_zero(self) -> bool:
        return not self.data

    def trace(self) -> Fraction:
        return Fraction(sum(x for (r, c), x in self.data.items() if r == c))

    def to_quadruples(self) -> list[list[int]]:
        """Serialize as (row, col, numerator, denominator) quadruples."""
        quads = []
        for (r, c), x in sorted(self.data.items()):
            f = Fraction(x)
            quads.append([r, c, f.numerator, f.denominator])
        return quads

    @classmethod
    def from_quadruples(cls, nrows: int, ncols: int, quads: Iterable[Sequence[int]]) -> "RatMat":
        return cls(nrows, ncols, {(r, c): Fraction(num, den) for r, c, num, den in quads})

    def __repr__(self):
        return f"RatMat({self.nrows}x{self.ncols}, nnz={len(self.data)})"


class EchelonSpace:
    """An incrementally built subspace of Q^dim with a canonical basis.

    `add` keeps the stored rows in echelon form: each row's pivot is its
    smallest coordinate, holds the entry 1, and belongs to no other row.
    The first read of `basis` after an `add`
    runs one back-substitution that clears every pivot from the other rows,
    so reads see the fully reduced echelon basis.  That basis is canonical
    for the subspace: two spans are equal iff their bases are equal.
    `residue`, `contains` and `input_coords` need no full reduction.  A row is
    normalised by negating it when its pivot entry is -1, so integer input
    with unit pivots stays `int`; `Fraction` appears only when a pivot entry
    is neither 1 nor -1.  With ``track=True`` every stored row also carries
    its expression in terms of the raw vectors fed to `add`, which is what
    submodule generators / coordinates need.
    """

    def __init__(self, dim: int, track: bool = False):
        self.dim = dim
        self.track = track
        self.pivots: dict[int, int] = {}  # pivot coordinate -> row index
        self.rows: list[Vec] = []
        self.combos: list[Vec] = []  # row index -> combination of inputs
        self.n_added = 0
        self._reduced = True  # no row holds the pivot of another row

    def __len__(self) -> int:
        return len(self.rows)

    def _reduce(self, v: Mapping[int, Scalar]) -> tuple[Vec, Vec]:
        """Clear every pivot from v in increasing order, with the combination used.

        A row's other coordinates lie beyond its pivot, so clearing pivot p
        only puts entries on larger pivots; a heap of the pivots met hands
        them out in increasing order, after every pivot that can touch them.
        """
        pivots, rows = self.pivots, self.rows
        w = dict(v)
        combo: Vec = {self.n_added: 1} if self.track else {}
        heap = [p for p in w if p in pivots]
        heapify(heap)
        while heap:
            p = heappop(heap)
            c = w.get(p)
            if c is None:  # a coordinate pushed twice, already cleared
                continue
            idx = pivots[p]
            for k, x in rows[idx].items():
                if k in w:
                    s = w[k] - c * x
                    if s:
                        w[k] = s
                    else:
                        del w[k]
                else:
                    w[k] = -c * x
                    if k in pivots:
                        heappush(heap, k)
            if self.track:
                vec_axpy(combo, -c, self.combos[idx])
        return w, combo

    def _full_reduce(self) -> None:
        """Back-substitution: clear each pivot from the rows with smaller pivots."""
        if self._reduced:
            return
        pivots, rows, combos = self.pivots, self.rows, self.combos
        # rows with larger pivots are reduced first, so every row subtracted
        # below is zero on every pivot but its own
        for p in sorted(pivots, reverse=True):
            idx = pivots[p]
            row = rows[idx]
            for q in [k for k in row if k != p and k in pivots]:
                c = row[q]
                vec_axpy(row, -c, rows[pivots[q]])
                if self.track:
                    vec_axpy(combos[idx], -c, combos[pivots[q]])
        self._reduced = True

    def residue(self, v: Mapping[int, Scalar]) -> Vec:
        """The reduction of v modulo the current span (zero on every pivot)."""
        w, _ = self._reduce(v)
        return w

    def contains(self, v: Mapping[int, Scalar]) -> bool:
        return not self.residue(v)

    def input_coords(self, v: Mapping[int, Scalar]) -> Vec | None:
        """Express v as a combination of the raw added vectors (track=True).

        Reduction tracks the rows' combinations, so a v that reduces to zero
        equals minus the combination built for it; no full reduction runs,
        which keeps reads cheap between adds.
        """
        if not self.track:
            raise ValueError("EchelonSpace built without tracking")
        w, combo = self._reduce(v)
        if w:
            return None
        del combo[self.n_added]
        return {k: -x for k, x in combo.items()}

    def add(self, v: Mapping[int, Scalar]) -> bool:
        """Add a vector to the span; True iff it enlarged the space."""
        w, combo = self._reduce(v)
        self.n_added += 1
        if not w:
            return False
        p = min(w)
        a = w[p]
        if a == -1:
            w = {k: -x for k, x in w.items()}
            combo = {k: -x for k, x in combo.items()}
        elif a != 1:
            inv = 1 / Fraction(a)
            w = {k: inv * x for k, x in w.items()}
            combo = {k: inv * x for k, x in combo.items()}
        self.pivots[p] = len(self.rows)
        self.rows.append(w)
        if self.track:
            self.combos.append(combo)
        self._reduced = False
        return True

    def basis(self) -> list[Vec]:
        """Reduced echelon basis rows sorted by pivot (canonical for the span)."""
        self._full_reduce()
        return [self.rows[self.pivots[p]] for p in sorted(self.pivots)]


def rank_of(vectors: Iterable[Mapping[int, Scalar]], dim: int) -> int:
    e = EchelonSpace(dim)
    for v in vectors:
        e.add(v)
    return len(e)


def nullspace(equations: Sequence[Mapping[int, Scalar]], nunknowns: int) -> list[Vec]:
    """Basis of the solution space of homogeneous equations over Q.

    Each equation is a sparse functional on Q^nunknowns.  Returns one basis
    vector per free unknown, each normalised with a 1 in its free slot, in
    increasing order of the free coordinate (deterministic).
    """
    e = EchelonSpace(nunknowns)
    for eq in equations:
        e.add(eq)
    free_vecs: dict[int, Vec] = {
        free: {free: 1} for free in range(nunknowns) if free not in e.pivots
    }
    # a reduced row is zero on the other pivots, so its other entries are free
    for p, row in zip(sorted(e.pivots), e.basis()):
        for k, x in row.items():
            if k != p:
                free_vecs[k][p] = -x
    return list(free_vecs.values())

