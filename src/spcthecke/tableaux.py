"""Standard permuted composition tableaux and standard ribbon tableaux.

An `Spct` is a bijective filling of a composition diagram by 1..n whose
rows strictly decrease left to right, whose first column standardizes to a
prescribed permutation (the *type*), and which satisfies the triple
condition: whenever i < j and the entry at (i, k) exceeds the entry at
(j, k+1), the box (i, k+1) exists and its entry also exceeds the one at
(j, k+1).  Rows of an `Spct` are stored top to bottom.

An `Srt` is a filling of a ribbon diagram by 1..n with rows increasing left
to right and columns increasing top to bottom.  Ribbon rows are stored
bottom to top, matching the row indexing of ribbon diagrams.

Tableaux of one size are built from the tableaux one size down, by where
the entry 1 sits.  Two facts make this exact:

- removing the entry 1 from an `Spct` leaves an `Spct`: 1 is the smallest
  entry, so it is never the right-hand box the triple condition demands;
- appending 1 to row m breaks the triple condition exactly when some row
  above m has alpha_m - 1 boxes.

So row m can hold 1 when alpha_m >= 2 and no row above it has alpha_m - 1
boxes (the smaller pair shrinks part m, same type), or when alpha_m = 1
and sigma_m = 1 (the smaller pair drops row m, and the type loses the
value 1).  The same move rule decides existence without listing
(`spct_exists`).  The recursion walks each pair's moves once and keeps
the pairs it reads in a memo for the life of the process (`_SMALLER`),
each pair's tableaux together with their rows raised by one, computed
once per smaller tableau; a smaller pair with no tableau is kept empty.  A new
tableau is those raised rows with 1 appended to row m or (1,) inserted as
row m, and its positions are the smaller tableau's, each cell moved down
a row below an inserted row, with the cell of 1 in front: no position is
read off the rows again.  A pair the memo lacks is built from it and
not kept.  So the largest degree a caller walks, which holds most of the tableaux and which no construction reads
again, is never held in full; a caller that walks the larger degrees
first finds each smaller pair in the memo, built once.  Existence is
memoised the same way: `_has_spct` stores only the answers of the
smaller pairs its moves reach.
An `Srt` is enumerated by column-major backtracking.  The two
enumerators are the only size-guarded entry points here: each refuses an
n above `DEFAULT_TABLEAU_BOUND` unless given a larger `bound`.

Both kinds share one filling core: rows, shape, n, each value's
(row, column), `swap_values`, equality, hashing and JSON.  Its public
constructor checks only that the rows are nonempty and hold exactly
1..n; its trusted constructor checks nothing, and every tableau built
inside the package (the enumerators, the canonical and ribbon sources,
`swap_values`) goes through it.  Each kind adds its geometry: the cells
of a composition shape, and a ribbon shape's row spans and the cells of
each column, top down, are computed once per shape and shared as tuples
by all its tableaux, positions included.  Composition cells come from one
table shared by all shapes (`_cell`), so a cell the enumerator carries
from a smaller shape is the tuple the public constructor uses.

This module also hosts the structural predicates on shape/type pairs:
compatibility, obstruction pairs with their witness conditions,
sigma-simplicity, removable nodes, and the explicit canonical source
tableau and its hatted variant.  Each public function on a pair validates
it once (`_check_pair`) and hands it to a core that trusts it:
`_enumerate_spct`, `_spct_exists`, `_compatible`, `_sigma_simple` and
`_canonical_rows`.  Callers in the package whose pairs are already
normalised, such as the claim cases, call the cores; the enumeration core
still refuses an n above its bound.  Equivalence classes are formed from
tableaux already listed, such as a module's basis, so a pair is listed
once.  A pair with one tableau is one class; otherwise each tableau is
read once for its class key, the rows of 1..n taken column by column,
which within one shape is one-to-one on class labels (`_class_key`).
The label itself (the standardized columns) is built from a class's
first member only when read.  Each tableau is also read once for how
every generator meets it (`_steps`): one
comparison of the cells of i and i+1 per i gives the image of pi_i,
whether i is a descent, and whether the tableau is a source or a sink,
so descent sets, classification, the module columns and the action graph
share one rule with `pi_action`.

The enumerator carries the steps instead of reading them.  In a tableau
T built from the smaller T', the value v + 1 sits in the cell of v in
T', moved down one row when a row was inserted at or above it.  The step
rule reads only whether two cells share a row, which of two rows is
lower, and the columns, and moving every row from the inserted one down
by one keeps all three.  So the steps of pi_2, ..., pi_{n-1} on T are
those of pi_1, ..., pi_{n-2} on T', ``_steps(T)[1:] == _steps(T')``, and
only the step of pi_1, the cell of 1 against the cell of 2, is new.
Each step sequence is stored once, as a tuple with its source and sink
flags (`_STEPS`, `_SOURCE`, `_SINK`), and an enumerated tableau holds its
id, found from the smaller tableau's id and that one step.  A tableau
built any other way walks its cells; swaps are found among a class's
members by their swapped positions (`_swap_targets`), with no tableau
built or hashed.  They form the one swap graph (`_swap_graph`, walked by
`_reach`) that every reader of the action graph uses.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from operator import itemgetter
from typing import Iterable, NamedTuple, Sequence

from .compositions import (
    BoundExceeded,
    Cell,
    Composition,
    check_composition,
    comp_of,
    rd_row_spans,
)
from . import permutations
from .permutations import Permutation, _standardize, standardize

#: largest n accepted by the tableau enumerators
DEFAULT_TABLEAU_BOUND = 9


class _Filling:
    """Rows filled bijectively by 1..n; 1-based (row, column) cells.

    The two tableau kinds share this core and add only their geometry:
    `_cells`, the shape's cells in the order the rows list them, `column`
    and `num_columns`.  Positions are a tuple indexed by value (index 0
    unused) whose cells are the shape's own tuples, built once per shape
    and shared by all its tableaux.  `_sid` is the id of the tableau's
    generator steps when the enumerator carried them (`_steps`), and None
    otherwise.  The public constructor checks only that the rows are
    nonempty and hold exactly 1..n; `_trusted` checks nothing.
    """

    __slots__ = ("rows", "shape", "n", "_pos", "_sid")

    def __init__(self, rows: Iterable[Iterable[int]]):
        self.rows: tuple[tuple[int, ...], ...] = tuple(tuple(r) for r in rows)
        self.shape: Composition = check_composition(tuple(len(r) for r in self.rows))
        self.n = sum(self.shape)
        values = list(itertools.chain.from_iterable(self.rows))
        if sorted(values) != list(range(1, self.n + 1)):
            raise ValueError(f"entries must be exactly 1..{self.n}: {self.rows}")
        self._pos: tuple[tuple[int, int] | None, ...] = _positions(values, self._cells(self.shape), self.n)
        self._sid: int | None = None

    @classmethod
    def _trusted(
        cls,
        rows: tuple[tuple[int, ...], ...],
        shape: Composition,
        n: int,
        pos: tuple[tuple[int, int] | None, ...] | None = None,
        sid: int | None = None,
    ):
        """A tableau from rows known to fill `shape` with 1..n; nothing is checked."""
        t = object.__new__(cls)
        t.rows, t.shape, t.n, t._sid = rows, shape, n, sid
        t._pos = _positions(itertools.chain.from_iterable(rows), cls._cells(shape), n) if pos is None else pos
        return t

    def __reduce__(self):
        # a step id means something only in the process that interned it
        return type(self), (self.rows,)

    @staticmethod
    def _cells(shape: Composition) -> tuple[tuple[int, int], ...]:
        """The cells of `shape`, row by row in stored order, each row left to right."""
        raise NotImplementedError

    def pos(self, value: int) -> tuple[int, int]:
        """(row, column) of a value in 1..n."""
        if not 0 < value <= self.n:
            raise KeyError(value)
        return self._pos[value]

    def swap_values(self, i: int):
        """The filling with values i and i+1 exchanged; every box stays put."""
        if not 1 <= i < self.n:
            raise ValueError(f"cannot swap {i} and {i + 1} in a filling of 1..{self.n}")
        pos = self._pos
        a, b = pos[i], pos[i + 1]
        ra, rb = a[0] - 1, b[0] - 1
        rows = list(self.rows)
        ka, kb = rows[ra].index(i), rows[rb].index(i + 1)
        row = rows[ra]
        rows[ra] = row[:ka] + (i + 1,) + row[ka + 1 :]
        row = rows[rb]
        rows[rb] = row[:kb] + (i,) + row[kb + 1 :]
        return self._trusted(tuple(rows), self.shape, self.n, pos[:i] + (b, a) + pos[i + 2 :])

    def to_json(self) -> list[list[int]]:
        """The rows, in the order the shape lists them."""
        return [list(r) for r in self.rows]

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"{type(self).__name__}({[list(r) for r in self.rows]})"


def _positions(
    values: Iterable[int], cells: tuple[tuple[int, int], ...], n: int
) -> tuple[tuple[int, int] | None, ...]:
    """The cell of each value, indexed by value: `values` fill `cells` in order."""
    pos: list[tuple[int, int] | None] = [None] * (n + 1)
    for v, cell in zip(values, cells):
        pos[v] = cell
    return tuple(pos)


#: Every (row, column) cell any composition shape has used, each its own
#: key: all shapes, and the enumerator's carried positions, share these tuples.
_CELLS: dict[tuple[int, int], tuple[int, int]] = {}


def _cell(row: int, col: int) -> tuple[int, int]:
    """The shared tuple (row, col)."""
    cell = (row, col)
    return _CELLS.setdefault(cell, cell)


@lru_cache(maxsize=50_000)
def _composition_cells(alpha: Composition) -> tuple[tuple[int, int], ...]:
    return tuple(_cell(i, j) for i, part in enumerate(alpha, 1) for j in range(1, part + 1))


class Spct(_Filling):
    """A filling of a composition diagram; rows top to bottom, left-justified.

    Use `is_valid_spct_rows` for the full defining conditions (constructions
    such as the hatted source filling are allowed to produce invalid
    fillings, which are kept as raw rows).
    """

    __slots__ = ()

    @staticmethod
    def _cells(shape: Composition) -> tuple[tuple[int, int], ...]:
        return _composition_cells(shape)

    @property
    def sigma(self) -> Permutation:
        """The type: standardization of the first column read top to bottom."""
        return _standardize(tuple(row[0] for row in self.rows))

    def column(self, c: int) -> list[int]:
        """Entries of column c, top to bottom."""
        return [row[c - 1] for row in self.rows if len(row) >= c]

    def num_columns(self) -> int:
        return max(self.shape, default=0)


class _Ribbon(NamedTuple):
    """The geometry of one ribbon shape, shared by all its tableaux."""

    spans: tuple[tuple[int, int], ...]  # first and last column of each row, bottom-up
    columns: tuple[tuple[tuple[int, int], ...], ...]  # the (row, column) cells of each column, top down
    cells: tuple[tuple[int, int], ...]  # column-major: columns left to right, each top down
    by_row: tuple[tuple[int, int], ...]  # the same cells row-major: rows bottom-up, each left to right


@lru_cache(maxsize=50_000)
def _ribbon(alpha: Composition) -> _Ribbon:
    spans = tuple(rd_row_spans(alpha))
    width = spans[-1][1] if spans else 0
    columns = tuple(
        tuple((r, c) for r in range(len(spans), 0, -1) if spans[r - 1][0] <= c <= spans[r - 1][1])
        for c in range(1, width + 1)
    )
    cells = tuple(itertools.chain.from_iterable(columns))
    return _Ribbon(spans, columns, cells, tuple(sorted(cells)))


class Srt(_Filling):
    """A standard ribbon tableau; rows stored bottom to top."""

    __slots__ = ()

    @staticmethod
    def _cells(shape: Composition) -> tuple[tuple[int, int], ...]:
        return _ribbon(shape).by_row

    @classmethod
    def _from_reading(cls, alpha: Composition, word: Sequence[int]) -> "Srt":
        """The filling of `alpha` whose column-major reading is `word`; nothing is checked."""
        geo = _ribbon(alpha)
        grid = dict(zip(geo.cells, word))
        rows = tuple(
            tuple(grid[r, c] for c in range(lo, hi + 1)) for r, (lo, hi) in enumerate(geo.spans, 1)
        )
        return cls._trusted(rows, alpha, len(word), _positions(word, geo.cells, len(word)))

    def row_of(self, value: int) -> int:
        """The row, counted from the bottom, holding a value."""
        return self.pos(value)[0]

    def num_columns(self) -> int:
        return len(_ribbon(self.shape).columns)

    def column(self, c: int) -> list[int]:
        """Entries of column c from the visual top down (increasing)."""
        geo = _ribbon(self.shape)
        if not 1 <= c <= len(geo.columns):
            return []
        return [self.rows[r - 1][c - geo.spans[r - 1][0]] for r, _ in geo.columns[c - 1]]


# ---------------------------------------------------------------------------
# validity and enumeration


def is_valid_spct_rows(rows: Sequence[Sequence[int]], sigma: Sequence[int] | None = None) -> bool:
    """Full defining check on a raw filling (rows top to bottom).

    Checks bijectivity onto 1..n, strict row decrease, the triple
    condition, and (when `sigma` is given) the first-column type.
    """
    rows = tuple(tuple(r) for r in rows)
    entries = [v for row in rows for v in row]
    n = len(entries)
    if sorted(entries) != list(range(1, n + 1)):
        return False
    if any(len(row) == 0 for row in rows):
        return False
    for row in rows:
        if any(a <= b for a, b in zip(row, row[1:])):
            return False
    if sigma is not None:
        if standardize(tuple(row[0] for row in rows)) != tuple(sigma):
            return False
    width = max((len(r) for r in rows), default=0)
    for k in range(1, width):
        for i, j in itertools.combinations(range(len(rows)), 2):
            if len(rows[j]) < k + 1 or len(rows[i]) < k:
                continue
            if rows[i][k - 1] > rows[j][k]:
                if len(rows[i]) < k + 1 or rows[i][k] <= rows[j][k]:
                    return False
    return True


def _check_pair(alpha: Sequence[int], sigma: Sequence[int]) -> tuple[Composition, Permutation]:
    """Validate and normalise a shape/type pair of matching length."""
    alpha = check_composition(alpha)
    sigma = permutations.check_perm(sigma)
    if len(sigma) != len(alpha):
        raise ValueError(f"type degree {len(sigma)} != shape length {len(alpha)}")
    return alpha, sigma


def _entry_one_moves(alpha: Composition, sigma: Permutation):
    """(row m, smaller shape, smaller type) for each row m that can hold 1.

    Row m (0-based) can hold the entry 1 when alpha_m >= 2 and no row above
    it has alpha_m - 1 boxes, or when alpha_m = 1 and sigma_m = 1.  The
    smaller pair is what is left once that box is removed.
    """
    for m, part in enumerate(alpha):
        if part >= 2:
            if part - 1 not in alpha[:m]:
                yield m, alpha[:m] + (part - 1,) + alpha[m + 1 :], sigma
        elif sigma[m] == 1:
            yield m, alpha[:m] + alpha[m + 1 :], tuple([v - 1 for v in sigma if v != 1])


def spct_exists(alpha: Sequence[int], sigma: Sequence[int]) -> bool:
    """Whether some tableau has shape `alpha` and type `sigma`, listing none.

    A tableau exists exactly when some row can hold the entry 1 and the
    smaller pair left by removing it has a tableau.  Memoised on the
    normalised (alpha, sigma).

    >>> spct_exists((2, 1), (2, 1)), spct_exists([1, 2], [2, 1])
    (True, False)
    """
    return _spct_exists(*_check_pair(alpha, sigma))


def _has_spct(alpha: Composition, sigma: Permutation) -> bool:
    """`spct_exists` for a pair already validated, storing the answers of
    the smaller pairs its moves reach (`_spct_exists`) and not its own, so
    a walk over every pair of a degree keeps none of them."""
    return not alpha or any(_spct_exists(b, s) for _, b, s in _entry_one_moves(alpha, sigma))


_spct_exists = lru_cache(maxsize=200_000)(_has_spct)


def enumerate_spct(
    alpha: Sequence[int], sigma: Sequence[int], bound: int = DEFAULT_TABLEAU_BOUND
) -> tuple[Spct, ...]:
    """All fillings of shape `alpha` and type `sigma`, deterministically.

    Built one size down: for each row m that can hold the entry 1 (see the
    module docstring), every tableau of the smaller pair has 1 added to
    each entry and then 1 appended to row m, or a new row (1,) inserted at
    m when part m has one box.  Every tableau arises once, from the row
    holding its 1, and no built tableau is re-checked.  The tableaux come
    out sorted by column reading word.  Returns () exactly when the pair
    is incompatible, which is verified against `is_compatible` rather than
    assumed.  A pair the recursion has read comes from its memo; any other
    is built from the memo and not kept, so a caller that asks for a pair
    again keeps it itself.  `bound` only guards the size.

    >>> [t.rows for t in enumerate_spct((2, 1), (2, 1))]
    [((3, 2), (1,)), ((3, 1), (2,))]
    >>> enumerate_spct([1, 2], [2, 1])
    ()
    """
    return _enumerate_spct(*_check_pair(alpha, sigma), bound)


def _enumerate_spct(alpha: Composition, sigma: Permutation, bound: int = DEFAULT_TABLEAU_BOUND) -> tuple[Spct, ...]:
    """`enumerate_spct` for a pair already validated; the bound still guards."""
    if sum(alpha) > bound:
        raise BoundExceeded(f"n = {sum(alpha)} exceeds tableau enumeration bound {bound}")
    listed = _SMALLER.get((alpha, sigma))
    return _build_spct(alpha, sigma) if listed is None else listed[0]


_Rows = tuple[tuple[int, ...], ...]

#: The tableaux of every pair the one-size-down recursion has read, with
#: each tableau's rows raised by one (every entry v as v + 1), which is
#: what the next size up extends.  Only the recursion fills it, so it
#: holds pairs below the largest degree requested, never the top-degree
#: pairs no later construction reads; a caller reading a smaller pair
#: after a larger one reads it from here.  A smaller pair a move reaches that
#: has no tableau is kept too, empty, so no move is walked twice to test
#: existence first: listing every pair with n <= 8 keeps 1,348 empty pairs
#: beside the 9,115 with tableaux.
_SMALLER: dict[tuple[Composition, Permutation], tuple[tuple[Spct, ...], tuple[_Rows, ...]]] = {}


def _smaller_spct(alpha: Composition, sigma: Permutation) -> tuple[tuple[Spct, ...], tuple[_Rows, ...]]:
    """A smaller pair's tableaux and their raised rows, through the recursion's memo."""
    listed = _SMALLER.get((alpha, sigma))
    if listed is None:
        ts = _build_spct(alpha, sigma)
        raised = tuple([tuple([tuple([v + 1 for v in row]) for row in t.rows]) for t in ts])
        listed = _SMALLER[alpha, sigma] = (ts, raised)
    return listed


class _RowInserted(dict):
    """A filling's cells once a row is inserted at 0-based index m: the
    cells in rows m + 1 and below (1-based) move down one row, the rest
    stay.  Filled on demand with the shared cells (`_cell`)."""

    __slots__ = ("m",)

    def __init__(self, m: int):
        self.m = m

    def __missing__(self, cell: tuple[int, int]) -> tuple[int, int]:
        row, col = cell
        moved = self[cell] = _cell(row + 1, col) if row > self.m else cell
        return moved


_ROW_INSERTED: dict[int, _RowInserted] = {}


def _build_spct(alpha: Composition, sigma: Permutation) -> tuple[Spct, ...]:
    """The tableaux of a pair, from the raised rows and the positions of
    the smaller pairs' tableaux: the entry 1 is appended to row m, or
    inserted as the row (1,) at m; every other value keeps its smaller
    value's cell, moved down a row below an inserted row.  Each tableau's
    step id is the smaller tableau's with the step of pi_1 in front
    (`_steps`).

    The moves are walked once: a smaller pair with no tableau is built
    too, as empty, and skipped.  For one row m, 1 enters every tableau's
    column reading word at the same place and the other entries only rise
    by one, so each row's run keeps the smaller pair's order; only when
    several rows can hold 1 are the runs sorted together."""
    if not alpha:
        return (Spct._trusted((), (), 0, (None,), 0),)
    if alpha == (1,):  # one box: no generator, so no step of pi_1 to put in front
        return (Spct._trusted(((1,),), alpha, 1, (None, _cell(1, 1)), 0),)
    n = sum(alpha)
    new = object.__new__
    runs: list[list[Spct]] = []
    for m, beta, tau in _entry_one_moves(alpha, sigma):
        ts, raised = _smaller_spct(beta, tau)
        if not ts:
            continue
        run = []
        if len(beta) < len(alpha):
            one = (None, _cell(m + 1, 1))
            moved = _ROW_INSERTED.get(m)
            if moved is None:
                moved = _ROW_INSERTED[m] = _RowInserted(m)
            extend = _first_steps(one[1])
            for t, rows in zip(ts, raised):
                u = new(Spct)
                u.rows, u.shape, u.n = rows[:m] + ((1,),) + rows[m:], alpha, n
                u._pos = pos = one + tuple(map(moved.__getitem__, t._pos[1:]))
                u._sid = extend[pos[2]][t._sid]
                run.append(u)
        else:
            one = (None, _cell(m + 1, alpha[m]))
            extend = _first_steps(one[1])
            for t, rows in zip(ts, raised):
                u = new(Spct)
                u.rows, u.shape, u.n = rows[:m] + (rows[m] + (1,),) + rows[m + 1 :], alpha, n
                pos = t._pos
                u._pos = one + pos[1:]
                u._sid = extend[pos[1]][t._sid]
                run.append(u)
        runs.append(run)
    if len(runs) == 1:
        return tuple(runs[0])
    # the None pads of a shape's short columns fall alike in every tableau,
    # so this orders by column reading word
    chain, zip_longest = itertools.chain.from_iterable, itertools.zip_longest
    keyed = sorted((tuple(chain(zip_longest(*t.rows))), t) for run in runs for t in run)
    return tuple([t for _, t in keyed])


def enumerate_srt(alpha: Sequence[int], bound: int = DEFAULT_TABLEAU_BOUND) -> tuple[Srt, ...]:
    """All standard ribbon tableaux of shape `alpha`, deterministically.

    Results are cached on the normalised `alpha`; `bound` only guards the
    size.

    >>> len(enumerate_srt((2, 2)))
    5
    >>> len(enumerate_srt([3]))
    1
    >>> len(enumerate_srt((1, 1, 1)))
    1
    """
    alpha = check_composition(alpha)
    if sum(alpha) > bound:
        raise BoundExceeded(f"n = {sum(alpha)} exceeds tableau enumeration bound {bound}")
    return _enumerate_srt(alpha)


@lru_cache(maxsize=50_000)
def _enumerate_srt(alpha: Composition) -> tuple[Srt, ...]:
    n = sum(alpha)
    cells = _ribbon(alpha).cells
    grid = dict.fromkeys(cells, 0)
    used = [False] * (n + 1)
    out: list[Srt] = []

    def place_ok(r: int, c: int, v: int) -> bool:
        left = grid.get((r, c - 1))
        if left is not None and left >= v:
            return False
        above = grid.get((r + 1, c))
        if above is not None and above >= v:
            return False
        return True

    def fill(k: int):
        if k == len(cells):
            out.append(Srt._from_reading(alpha, [grid[cell] for cell in cells]))
            return
        r, c = cells[k]
        for v in range(1, n + 1):
            if used[v] or not place_ok(r, c, v):
                continue
            used[v] = True
            grid[r, c] = v
            fill(k + 1)
            used[v] = False
        grid[r, c] = 0

    fill(0)
    return tuple(out)


enumerate_srt.cache_info = _enumerate_srt.cache_info


def source_ribbon_tableau(alpha: Sequence[int]) -> Srt:
    """The ribbon filled 1..n column by column, top to bottom in a column.

    This is the cyclic generator of the ribbon modules.
    """
    alpha = check_composition(alpha)
    return Srt._from_reading(alpha, range(1, sum(alpha) + 1))


# ---------------------------------------------------------------------------
# descents, attacking pairs, class labels


def descent_set(t: Spct) -> frozenset[int]:
    """Values i such that i+1 sits weakly right of i (column comparison):
    the i whose `_steps` step is _KILL or _SWAP."""
    return frozenset([i for i, step in enumerate(_steps(t), 1) if step == _KILL or step == _SWAP])


def pi_action(t: Spct, i: int) -> Spct | None:
    """The tableau-module generator pi_i on one tableau.

    pi_i fixes t when i is not a descent, kills t (None) when i attacks
    i+1, and otherwise swaps the values i and i+1.  `_steps` reads the
    same rule for every i at once.

    >>> t = Spct([[3, 2], [1]])
    >>> pi_action(t, 2) is t, pi_action(t, 1)
    (True, Spct([[3, 1], [2]]))
    >>> pi_action(Spct([[3, 1], [2]]), 2) is None
    True
    """
    if t.pos(i + 1)[1] < t.pos(i)[1]:
        return t
    if is_attacking(t, i, i + 1):
        return None
    return t.swap_values(i)


#: How pi_i meets a tableau (`_steps`).  i is no descent: _STAY when i+1
#: sits immediately left of i in its row, _FIX otherwise; pi_i fixes the
#: tableau either way.  i is a descent: _KILL when i attacks i+1, and
#: pi_i kills the tableau; _SWAP otherwise, and pi_i swaps i and i+1.
_STAY, _FIX, _KILL, _SWAP = range(4)


def _walk(cells: Sequence[tuple[int, int]]) -> tuple[int, ...]:
    """How each pi_i meets a filling whose values 1, 2, ... sit in `cells`,
    in value order: one comparison of the cells of i and i+1 per i."""
    return tuple(
        [
            (_STAY if rj == ri and cj == ci - 1 else _FIX)
            if cj < ci
            else _KILL if cj == ci or (cj == ci + 1 and rj > ri) else _SWAP
            for (ri, ci), (rj, cj) in zip(cells, cells[1:])
        ]
    )


#: Every step sequence read so far, each under one id: `_STEPS[id]` is the
#: sequence, `_SOURCE[id]` whether it has no _FIX step and `_SINK[id]`
#: whether it has no _SWAP step.  Id 0 is the empty sequence.  The tables
#: are shared, so they hold tuples.
_STEP_IDS: dict[tuple[int, ...], int] = {}
_STEPS: list[tuple[int, ...]] = []
_SOURCE: list[bool] = []
_SINK: list[bool] = []


def _intern_steps(steps: tuple[int, ...]) -> int:
    """The id of a step sequence, given one when first seen."""
    sid = _STEP_IDS.get(steps)
    if sid is None:
        sid = _STEP_IDS[steps] = len(_STEPS)
        _STEPS.append(steps)
        _SOURCE.append(_FIX not in steps)
        _SINK.append(_SWAP not in steps)
    return sid


_intern_steps(())


class _Extended(dict):
    """The id of the steps (step,) + _STEPS[sid], keyed by sid; filled on demand."""

    __slots__ = ("step",)

    def __init__(self, step: int):
        self.step = step

    def __missing__(self, sid: int) -> int:
        out = self[sid] = _intern_steps((self.step,) + _STEPS[sid])
        return out


_EXTENDED = tuple(_Extended(step) for step in range(4))  # indexed by step


class _FirstSteps(dict):
    """For the entry 1 in cell `one`: by the cell of 2, the `_Extended`
    table of the step of pi_1 there (`_walk` on the two cells)."""

    __slots__ = ("one",)

    def __init__(self, one: tuple[int, int]):
        self.one = one

    def __missing__(self, two: tuple[int, int]) -> _Extended:
        out = self[two] = _EXTENDED[_walk((self.one, two))[0]]
        return out


_FIRST_STEPS: dict[tuple[int, int], _FirstSteps] = {}


def _first_steps(one: tuple[int, int]) -> _FirstSteps:
    steps = _FIRST_STEPS.get(one)
    if steps is None:
        steps = _FIRST_STEPS[one] = _FirstSteps(one)
    return steps


def _step_id(t: Spct) -> int:
    """The id of `_steps(t)`: carried by a tableau the enumerator built,
    otherwise read off its cells."""
    sid = t._sid
    return _intern_steps(_walk(t._pos[1:])) if sid is None else sid


def _steps(t: Spct) -> tuple[int, ...]:
    """How each pi_i, i = 1..n-1, meets t: one comparison of the cells of
    i and i+1 per i (`_walk`).

    A source has no _FIX step and a sink no _SWAP step; pi_i sends t to
    itself (_STAY, _FIX), to zero (_KILL) or to ``t.swap_values(i)``
    (_SWAP).  The enumerator carries each tableau's steps from the smaller
    tableau, as an id (see the module docstring); any other tableau, such
    as one from the public constructor, `swap_values` or the maps, walks
    its cells.
    """
    return _STEPS[_step_id(t)]


def _swap_targets(members: Sequence[Spct], sids: Sequence[int]) -> tuple[int | None, ...]:
    """For each member in turn and each i where pi_i swaps it, in order of
    i, the index of the member whose positions are its own with i and i+1
    exchanged, or None when no member is.

    `sids` are the members' step ids.  No tableau is built or hashed: a
    lone member's swaps all leave it, and otherwise the members are
    indexed by their positions.
    """
    if len(members) == 1:
        return (None,) * _STEPS[sids[0]].count(_SWAP)
    index = {t._pos: j for j, t in enumerate(members)}
    out = []
    for t, sid in zip(members, sids):
        if not _SINK[sid]:
            pos = t._pos
            for i, step in enumerate(_STEPS[sid], 1):
                if step == _SWAP:
                    out.append(index.get(pos[:i] + (pos[i + 1], pos[i]) + pos[i + 2 :]))
    return tuple(out)


def _swap_graph(members: Sequence[Spct], sids: Sequence[int]) -> list[list[tuple[int, int | None]]]:
    """For each member, (i, k) for each i where pi_i swaps it, in order of
    i: k indexes the member it swaps to, None when none is (`_swap_targets`)."""
    targets = iter(_swap_targets(members, sids))
    return [[(i, next(targets)) for i, step in enumerate(_STEPS[sid], 1) if step == _SWAP] for sid in sids]


def _reach(graph: Sequence[Sequence[tuple[int, int | None]]], root: int, seen: list[bool]) -> bool:
    """Mark in `seen` each member `root` reaches in a `_swap_graph`; False,
    stopping there, at a swap that leaves the members."""
    seen[root] = True
    stack = [root]
    while stack:
        for _, k in graph[stack.pop()]:
            if k is None:
                return False
            if not seen[k]:
                seen[k] = True
                stack.append(k)
    return True


def is_attacking(t: Spct, i: int, j: int) -> bool:
    """Whether values i < j attack: same column, or j lower-right of i."""
    if not i < j:
        raise ValueError("attacking is defined for i < j")
    ri, ci = t.pos(i)
    rj, cj = t.pos(j)
    return ci == cj or (cj == ci + 1 and rj > ri)


def comp_of_tableau(t: Spct) -> Composition:
    return comp_of(descent_set(t), t.n)


def col_word(t: Spct) -> Permutation:
    """Column reading word (columns left to right, top to bottom) in S_n."""
    word = []
    for c in range(1, t.num_columns() + 1):
        word.extend(t.column(c))
    return permutations.check_perm(tuple(word))


class ClassLabel(NamedTuple):
    """Shape plus the per-column standardized words; equal iff equivalent."""

    shape: Composition
    words: tuple[Permutation, ...]

    def __str__(self):
        return " ".join("".join(str(v) for v in w) for w in self.words)


def class_label(t: Spct) -> ClassLabel:
    """The standardized column word of a tableau.

    >>> str(class_label(Spct([[4, 1], [6, 5, 3], [2]])))
    '231 12 1'
    """
    return ClassLabel(t.shape, _column_words(t.rows))


def _column_words(rows: Sequence[Sequence[int]]) -> tuple[Permutation, ...]:
    """Each column of a filling's rows, top down, standardized."""
    words = []
    for col in itertools.zip_longest(*rows):  # shorter rows pad with None
        if None in col:
            col = [v for v in col if v is not None]
        ordered = sorted(col)
        words.append(tuple([ordered.index(v) + 1 for v in col]))
    return tuple(words)


def classify(t: Spct) -> str:
    """One of 'source', 'sink', 'both', 'interior'.

    A source requires every non-descent i < n to have i+1 immediately to
    its left; a sink requires every descent to attack.  Both are read in
    one walk over i (`_steps`).
    """
    sid = _step_id(t)
    src, snk = _SOURCE[sid], _SINK[sid]
    if src and snk:
        return "both"
    if src:
        return "source"
    if snk:
        return "sink"
    return "interior"


class SpctClass(NamedTuple):
    members: tuple[Spct, ...]
    source: Spct
    sink: Spct

    @property
    def label(self) -> ClassLabel:
        """The class label, built from the first member on each read."""
        return class_label(self.members[0])


def equivalence_classes(ts: Sequence[Spct]) -> list[SpctClass]:
    """Partition of the tableaux of one pair by standardized column word.

    `ts` is the pair's listed tableaux, such as `enumerate_spct(alpha,
    sigma)` or a tableau module's basis.  Each class records its unique
    source and sink (their existence and uniqueness is itself exercised by
    the verification suite).  Classes come ordered by their first
    member's rows.
    """
    return [cls for cls, _ in _read_classes(_grouped(ts))]


_COLUMN = itemgetter(1)


def _class_key(t: Spct) -> tuple[int, ...]:
    """The rows of 1..n taken column by column, smaller values first.

    Within one shape the rows a column holds are fixed, so the rows of its
    values in increasing order are its standardized word, inverted: the
    key is one-to-one on class labels among the tableaux of one pair.
    """
    return tuple([r for r, _ in sorted(t._pos[1:], key=_COLUMN)])


def _grouped(ts: Sequence[Spct]) -> list[list[Spct]]:
    """One pair's tableaux by class (`_class_key`), each group in the
    order of ts; a lone tableau is its own group, with no key read."""
    if len(ts) == 1:
        return [list(ts)]
    groups: dict[tuple[int, ...], list[Spct]] = {}
    for t in ts:
        groups.setdefault(_class_key(t), []).append(t)
    return list(groups.values())


def _read_classes(groups: Iterable[Sequence[Spct]]) -> list[tuple[SpctClass, tuple[int, ...]]]:
    """Each group as a class, with its members' step ids (`_step_id`) in
    member order.

    Every member is read once.  Raises `RuntimeError` when a group has
    other than one source and one sink.  The classes come ordered by
    their first member's rows.
    """
    out = []
    for members in groups:
        sids = tuple(map(_step_id, members))
        sources = [t for t, s in zip(members, sids) if _SOURCE[s]]
        sinks = [t for t, s in zip(members, sids) if _SINK[s]]
        if len(sources) != 1 or len(sinks) != 1:
            label = class_label(members[0])
            raise RuntimeError(
                f"class {label} of ({label.shape}, {members[0].sigma}) has {len(sources)} sources "
                f"and {len(sinks)} sinks"
            )
        out.append((SpctClass(tuple(members), sources[0], sinks[0]), sids))
    out.sort(key=lambda read: read[0].members[0].rows)
    return out


# ---------------------------------------------------------------------------
# shape/type predicates


def is_compatible(alpha: Sequence[int], sigma: Sequence[int]) -> bool:
    """Whether parts never increase across a type inversion.

    >>> is_compatible((1, 2, 1, 3), (2, 1, 3, 4))
    False
    >>> is_compatible((1, 1, 2, 3), (2, 1, 3, 4))
    True
    """
    return _compatible(*_check_pair(alpha, sigma))


def _compatible(alpha: Composition, sigma: Permutation) -> bool:
    """`is_compatible` for a pair already validated, read the other way
    round: the type ascends wherever the parts ascend."""
    for i, j in _part_ascents(alpha):
        if sigma[i] > sigma[j]:
            return False
    return True


@lru_cache(maxsize=50_000)
def _part_ascents(alpha: Composition) -> tuple[tuple[int, int], ...]:
    """The 0-based index pairs i < j with alpha_i < alpha_j."""
    return tuple((i, j) for i, j in itertools.combinations(range(len(alpha)), 2) if alpha[i] < alpha[j])


def _check_compatible_pair(alpha: Sequence[int], sigma: Sequence[int]) -> tuple[Composition, Permutation]:
    """`_check_pair`, raising `ValueError` also when the pair is incompatible."""
    alpha, sigma = _check_pair(alpha, sigma)
    if not _compatible(alpha, sigma):
        raise ValueError(f"{alpha} is not compatible with {sigma}")
    return alpha, sigma


class PacdPair(NamedTuple):
    """An ascending-type, descending-shape pair with its witness lists.

    `c1` holds intermediate indices k (i < k < j) whose type value lies
    between the pair's and whose part is one less than part j; `c2` holds
    later indices k (k > j) with type value in between and part equal to
    part j.  1-based throughout.
    """

    i: int
    j: int
    c1: tuple[int, ...]
    c2: tuple[int, ...]

    @property
    def witnessed(self) -> bool:
        return bool(self.c1 or self.c2)


def pacd_pairs(alpha: Sequence[int], sigma: Sequence[int]) -> list[PacdPair]:
    """All obstruction pairs attached to a compatible shape/type pair."""
    alpha, sigma = _check_compatible_pair(alpha, sigma)
    ell = len(alpha)
    pairs = []
    for i, j in itertools.combinations(range(1, ell + 1), 2):
        if sigma[i - 1] < sigma[j - 1] and alpha[i - 1] >= alpha[j - 1] >= 2:
            lo, hi = sigma[i - 1], sigma[j - 1]
            c1 = tuple(
                k
                for k in range(i + 1, j)
                if lo < sigma[k - 1] < hi and alpha[k - 1] == alpha[j - 1] - 1
            )
            c2 = tuple(
                k
                for k in range(j + 1, ell + 1)
                if lo < sigma[k - 1] < hi and alpha[k - 1] == alpha[j - 1]
            )
            pairs.append(PacdPair(i, j, c1, c2))
    return pairs


def is_sigma_simple(alpha: Sequence[int], sigma: Sequence[int]) -> bool:
    """Whether every obstruction pair carries a witness.

    >>> is_sigma_simple((3, 3, 1, 2), (2, 1, 3, 4))
    True
    >>> is_sigma_simple((3, 1, 2, 2), (2, 1, 3, 4))
    False
    """
    return _sigma_simple(*_check_compatible_pair(alpha, sigma))


def _sigma_simple(alpha: Composition, sigma: Permutation) -> bool:
    """`is_sigma_simple` for a compatible pair already validated: the
    witness conditions of `pacd_pairs`, 0-based, listing no pair."""
    ell = len(alpha)
    return all(
        any(sigma[i] < sigma[k] < sigma[j] and alpha[k] == alpha[j] - 1 for k in range(i + 1, j))
        or any(sigma[i] < sigma[k] < sigma[j] and alpha[k] == alpha[j] for k in range(j + 1, ell))
        for i, j in itertools.combinations(range(ell), 2)
        if sigma[i] < sigma[j] and alpha[i] >= alpha[j] >= 2
    )


def removable_nodes(alpha: Sequence[int], sigma: Sequence[int]) -> list[Cell]:
    """Terminal boxes (j, part j) that can carry the entry 1.

    A part has a removable node when its type value is 1, or when it has
    at least two boxes, no earlier smaller-type part is exactly one
    shorter, and no later smaller-type part is equally long.

    >>> [(c.row, c.col) for c in removable_nodes((4, 1, 2, 2), (2, 1, 3, 4))]
    [(1, 4), (2, 1)]
    """
    alpha, sigma = _check_compatible_pair(alpha, sigma)
    out = []
    for j in range(1, len(alpha) + 1):
        if sigma[j - 1] == 1:
            out.append(Cell(j, alpha[j - 1], "cd"))
            continue
        if alpha[j - 1] < 2:
            continue
        r2 = any(
            sigma[k - 1] < sigma[j - 1] and alpha[k - 1] == alpha[j - 1] - 1
            for k in range(1, j)
        )
        r3 = any(
            sigma[k - 1] < sigma[j - 1] and alpha[k - 1] == alpha[j - 1]
            for k in range(j + 1, len(alpha) + 1)
        )
        if not r2 and not r3:
            out.append(Cell(j, alpha[j - 1], "cd"))
    return out


def _canonical_rows(alpha: Composition, sigma: Permutation) -> tuple[tuple[int, ...], ...]:
    """The rows of `canonical_source_tableau` for a pair already validated:
    the rows filled in increasing order of their type values."""
    rows: list[tuple[int, ...]] = [()] * len(alpha)
    start = 0
    for r in sorted(range(len(alpha)), key=sigma.__getitem__):
        rows[r] = tuple(range(start + alpha[r], start, -1))
        start += alpha[r]
    return tuple(rows)


def canonical_source_tableau(alpha: Sequence[int], sigma: Sequence[int]) -> Spct:
    """The explicit source tableau: consecutive blocks placed row by row.

    The row holding the i-th block of entries is the row whose type value
    is i; each block is written decreasing left to right.

    >>> canonical_source_tableau((1, 3, 2, 4), (1, 3, 2, 4)).rows
    ((1,), (6, 5, 4), (3, 2), (10, 9, 8, 7))
    >>> canonical_source_tableau((2, 1), (2, 1)).rows
    ((3, 2), (1,))
    """
    alpha, sigma = _check_compatible_pair(alpha, sigma)
    return Spct._trusted(_canonical_rows(alpha, sigma), alpha, sum(alpha))


class HattedSource(NamedTuple):
    """Result of the hatted source construction; not always a valid SPCT."""

    rows: tuple[tuple[int, ...], ...]
    valid: bool

    @property
    def spct(self) -> Spct | None:
        return Spct(self.rows) if self.valid else None


def hatted_source_tableau(alpha: Sequence[int], sigma: Sequence[int]) -> HattedSource:
    """Shift the canonical filling of the shrunk shape and re-add entry 1.

    The last block's row loses a box, everything is shifted up by one, and
    a box holding 1 is appended to that row.  The result satisfies the
    defining conditions only under extra hypotheses, so it is returned as
    a raw filling with a validity flag.

    >>> h = hatted_source_tableau((1, 3, 2, 4), (1, 3, 2, 4))
    >>> h.rows, h.valid
    (((2,), (7, 6, 5), (4, 3), (10, 9, 8, 1)), False)
    >>> hatted_source_tableau((2, 2), (1, 2)).rows
    ((3, 2), (4, 1))
    """
    alpha, sigma = _check_pair(alpha, sigma)
    ell = len(alpha)
    r_last = permutations.inverse(sigma)[ell - 1]
    if alpha[r_last - 1] < 2:
        raise ValueError(
            f"row {r_last} of {alpha} has fewer than two boxes; construction undefined"
        )
    beta = list(alpha)
    beta[r_last - 1] -= 1
    base = _canonical_rows(tuple(beta), sigma)
    shifted = [tuple(v + 1 for v in row) for row in base]
    shifted[r_last - 1] = shifted[r_last - 1] + (1,)
    rows = tuple(shifted)
    return HattedSource(rows, is_valid_spct_rows(rows, sigma))
