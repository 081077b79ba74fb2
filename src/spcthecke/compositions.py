"""Compositions, partitions, diagram geometry, and the bubble-sorting action.

A composition is a tuple of positive integers; the empty composition ``()``
has size and length 0.  Compositions of n are in bijection with subsets of
{1, ..., n-1} via partial sums (`set_of` / `comp_of`).

Two diagram conventions are used throughout the package and are kept apart
by tagging cells with a diagram kind:

* composition diagrams (``"cd"``): left-justified rows, row 1 at the TOP;
* ribbon diagrams (``"rd"``): rows indexed from the BOTTOM, the leftmost box
  of row i+1 sits directly above the rightmost box of row i.

Cells are 1-based ``(row, col)`` pairs in both conventions.  A `Cell` is a
named tuple ``(row, col, kind)`` that checks its kind and indices when built.
"""

from __future__ import annotations

import itertools
from typing import Iterable, NamedTuple, Sequence

from . import permutations

Composition = tuple[int, ...]

class BoundExceeded(ValueError):
    """Raised when a size bound guarding an exhaustive computation is hit."""


class _CellFields(NamedTuple):
    row: int
    col: int
    kind: str = "cd"


class Cell(_CellFields):
    """A box of a diagram; `kind` is ``"cd"`` or ``"rd"`` (see module doc)."""

    __slots__ = ()

    def __new__(cls, row: int, col: int, kind: str = "cd"):
        if kind not in ("cd", "rd"):
            raise ValueError(f"unknown diagram kind {kind!r}")
        if row < 1 or col < 1:
            raise ValueError(f"cell indices are 1-based, got {(row, col)}")
        return super().__new__(cls, row, col, kind)

def check_composition(alpha: Sequence[int]) -> Composition:
    """Validate and normalise a composition to a tuple.

    >>> check_composition([1, 3, 2])
    (1, 3, 2)
    """
    alpha = tuple(alpha)
    if any(not isinstance(a, int) or a < 1 for a in alpha):
        raise ValueError(f"composition parts must be positive integers: {alpha}")
    return alpha


def set_of(alpha: Sequence[int]) -> frozenset[int]:
    """The partial-sum subset of {1, ..., n-1} encoding a composition of n.

    >>> sorted(set_of((1, 3, 2)))
    [1, 4]
    >>> set_of((6,)) == frozenset()
    True
    >>> sorted(set_of((1, 1, 1)))
    [1, 2]
    """
    alpha = check_composition(alpha)
    partial = list(itertools.accumulate(alpha))
    return frozenset(partial[:-1])


def comp_of(subset: Iterable[int], n: int) -> Composition:
    """Inverse of `set_of` for compositions of n.

    >>> comp_of({1, 4}, 6)
    (1, 3, 2)
    >>> comp_of(set(), 5)
    (5,)
    >>> comp_of({1, 2, 3}, 4)
    (1, 1, 1, 1)
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    points = sorted(subset)
    if any(i < 1 or i > n - 1 for i in points):
        raise ValueError(f"subset {points} not contained in [1, {n - 1}]")
    if n == 0:
        return ()
    cuts = [0] + points + [n]
    return tuple(b - a for a, b in zip(cuts, cuts[1:]))


def reverse_of(alpha: Sequence[int]) -> Composition:
    return tuple(reversed(check_composition(alpha)))


def complement_of(alpha: Sequence[int]) -> Composition:
    """The composition whose subset is the complement of `set_of(alpha)`.

    >>> complement_of((2, 2, 1, 1, 1, 2, 1))
    (1, 2, 5, 2)
    """
    n = sum(alpha)
    return comp_of(frozenset(range(1, n)) - set_of(alpha), n)


def sorted_parts(alpha: Sequence[int]) -> Composition:
    """The partition obtained by sorting parts weakly decreasing."""
    return tuple(sorted(check_composition(alpha), reverse=True))


def is_partition(alpha: Sequence[int]) -> bool:
    alpha = check_composition(alpha)
    return all(a >= b for a, b in zip(alpha, alpha[1:]))


# ---------------------------------------------------------------------------
# diagram geometry


def rd_row_spans(alpha: Sequence[int]) -> list[tuple[int, int]]:
    """Column span (start, end) of each ribbon row, rows listed bottom-up.

    >>> rd_row_spans((1, 3, 2))
    [(1, 1), (1, 3), (3, 4)]
    """
    alpha = check_composition(alpha)
    spans = []
    start = 1
    for part in alpha:
        spans.append((start, start + part - 1))
        start += part - 1
    return spans


# ---------------------------------------------------------------------------
# the bubble-sorting right action on compositions


def bubble_act(alpha: Sequence[int], i: int) -> Composition:
    """Apply the i-th bubble operator: swap parts i, i+1 iff part i is smaller.

    >>> bubble_act((1, 3, 2), 1)
    (3, 1, 2)
    >>> bubble_act((3, 1, 2), 2)
    (3, 2, 1)
    >>> bubble_act((2, 1), 1)
    (2, 1)
    """
    alpha = check_composition(alpha)
    if not 1 <= i <= len(alpha) - 1:
        raise ValueError(f"generator index {i} out of range for length {len(alpha)}")
    if alpha[i - 1] < alpha[i]:
        parts = list(alpha)
        parts[i - 1], parts[i] = parts[i], parts[i - 1]
        return tuple(parts)
    return alpha


def bubble_act_word(alpha: Sequence[int], word: Sequence[int]) -> Composition:
    """Apply a word of bubble operators left to right (a right action)."""
    beta = check_composition(alpha)
    for i in word:
        beta = bubble_act(beta, i)
    return beta


def bubble_fiber_word(alpha: Sequence[int], word: Sequence[int]) -> set[Composition]:
    """All beta with ``bubble_act_word(beta, word) == alpha``.

    Computed by pulling back one letter at a time from the end of the word;
    the single-letter preimages of gamma under operator i are gamma itself
    (when part i >= part i+1) and gamma with parts i, i+1 swapped (when
    part i > part i+1).
    """
    return _bubble_fiber_word(check_composition(alpha), word)


def _bubble_fiber_word(alpha: Composition, word: Sequence[int]) -> set[Composition]:
    """`bubble_fiber_word` for a composition already validated."""
    fiber = {alpha}
    for i in reversed(list(word)):
        prev: set[Composition] = set()
        for gamma in fiber:
            if gamma[i - 1] >= gamma[i]:
                prev.add(gamma)
            if gamma[i - 1] > gamma[i]:
                parts = list(gamma)
                parts[i - 1], parts[i] = parts[i], parts[i - 1]
                prev.add(tuple(parts))
        fiber = prev
    return fiber


def bubble_fiber(alpha: Sequence[int], sigma: Sequence[int]) -> set[Composition]:
    """All beta sent to alpha by the bubble word of a reduced word of sigma.

    The result does not depend on the chosen reduced word (the operators
    satisfy the defining relations of the generators; this is also covered
    by tests).

    >>> sorted(bubble_fiber((2, 1), (2, 1)))
    [(1, 2), (2, 1)]
    >>> bubble_fiber((1, 2), (2, 1))
    set()
    >>> bubble_fiber((2, 2), (2, 1))
    {(2, 2)}
    """
    sigma = permutations.check_perm(sigma)
    if len(sigma) != len(alpha):
        raise ValueError(
            f"permutation degree {len(sigma)} != composition length {len(alpha)}"
        )
    return bubble_fiber_word(alpha, permutations.reduced_word(sigma))


# ---------------------------------------------------------------------------
# enumeration


def compositions(n: int) -> list[Composition]:
    """All compositions of n, lexicographic on parts.

    This order coincides with the binary order on characteristic vectors of
    `set_of`, which keeps golden files stable.

    >>> compositions(3)
    [(1, 1, 1), (1, 2), (2, 1), (3,)]
    >>> compositions(0)
    [()]
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return [()]
    out: list[Composition] = []

    def rec(remaining: int, prefix: tuple[int, ...]):
        if remaining == 0:
            out.append(prefix)
            return
        for first in range(1, remaining + 1):
            rec(remaining - first, prefix + (first,))

    rec(n, ())
    return out


def partitions(n: int) -> list[Composition]:
    """All partitions of n, lexicographic on part tuples.

    >>> partitions(4)
    [(1, 1, 1, 1), (2, 1, 1), (2, 2), (3, 1), (4,)]
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return [()]
    out: list[Composition] = []

    def rec(remaining: int, cap: int, prefix: tuple[int, ...]):
        if remaining == 0:
            out.append(prefix)
            return
        for first in range(1, min(cap, remaining) + 1):
            rec(remaining - first, first, prefix + (first,))

    rec(n, n, ())
    return sorted(out)

