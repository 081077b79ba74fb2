"""Permutations in one-line notation, reduced words, and weak order.

A permutation of degree m is a tuple rearranging ``1..m``.  Composition is
function composition, ``compose(p, q)(i) == p[q[i]]``; multiplying by a
simple transposition on the right swaps the entries at positions i, i+1,
and on the left swaps the values i, i+1.  Reduced words are produced
deterministically by rightmost-descent bubble sort so that derived data
(golden files, module bases) stay stable.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator, Sequence

Permutation = tuple[int, ...]


def check_perm(word: Sequence[int]) -> Permutation:
    """Validate a one-line word as a permutation of 1..m.

    >>> check_perm([2, 3, 1])
    (2, 3, 1)
    """
    word = tuple(word)
    if sorted(word) != list(range(1, len(word) + 1)):
        raise ValueError(f"{word} is not a permutation of 1..{len(word)}")
    return word


def identity(m: int) -> Permutation:
    return tuple(range(1, m + 1))


def inverse(p: Sequence[int]) -> Permutation:
    p = check_perm(p)
    inv = [0] * len(p)
    for pos, val in enumerate(p, start=1):
        inv[val - 1] = pos
    return tuple(inv)


def compose(p: Sequence[int], q: Sequence[int]) -> Permutation:
    """Function composition: ``compose(p, q)(i) = p(q(i))``.

    >>> compose((2, 1, 3), (1, 3, 2))
    (2, 3, 1)
    """
    p, q = check_perm(p), check_perm(q)
    if len(p) != len(q):
        raise ValueError("degree mismatch")
    return tuple(p[q[i] - 1] for i in range(len(p)))


def times_s(p: Sequence[int], i: int) -> Permutation:
    """Right multiplication by s_i: swap the entries at positions i, i+1."""
    p = check_perm(p)
    if not 1 <= i <= len(p) - 1:
        raise ValueError(f"generator index {i} out of range for degree {len(p)}")
    return _times_s(p, i)


def _times_s(p: Permutation, i: int) -> Permutation:
    """`times_s` for a permutation already validated and 1 <= i < len(p)."""
    return p[: i - 1] + (p[i], p[i - 1]) + p[i + 1 :]


def s_times(i: int, p: Sequence[int]) -> Permutation:
    """Left multiplication by s_i: swap the values i, i+1 in the word."""
    p = check_perm(p)
    if not 1 <= i <= len(p) - 1:
        raise ValueError(f"generator index {i} out of range for degree {len(p)}")
    return tuple(i + 1 if v == i else i if v == i + 1 else v for v in p)


def length(p: Sequence[int]) -> int:
    """The inversion count.

    >>> length((3, 2, 1))
    3
    """
    p = check_perm(p)
    return sum(1 for a, b in itertools.combinations(p, 2) if a > b)


def descent_set(p: Sequence[int]) -> frozenset[int]:
    """Positions i with p(i) > p(i+1)."""
    p = check_perm(p)
    return frozenset(i for i in range(1, len(p)) if p[i - 1] > p[i])


def reduced_word(p: Sequence[int]) -> tuple[int, ...]:
    """A reduced word (i_1, ..., i_p) with s_{i_1} ... s_{i_p} == p.

    Deterministic: peel off the rightmost descent, which amounts to a
    bubble sort.  The word length equals the inversion count.

    >>> reduced_word((3, 2, 1))
    (2, 1, 2)
    >>> reduced_word((1, 2, 3))
    ()
    >>> reduced_word((2, 1, 3, 4))
    (1,)
    """
    w = check_perm(p)
    suffix: list[int] = []
    while True:
        descents = [i for i in range(1, len(w)) if w[i - 1] > w[i]]
        if not descents:
            break
        i = descents[-1]
        suffix.append(i)
        w = _times_s(w, i)
    return tuple(reversed(suffix))


def all_reduced_words(p: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Every reduced word of p, by recursion over rightmost letters."""
    p = check_perm(p)
    if length(p) == 0:
        yield ()
        return
    for i in sorted(descent_set(p)):
        for word in all_reduced_words(times_s(p, i)):
            yield word + (i,)


def standardize(word: Sequence[int]) -> Permutation:
    """Replace each entry of a repetition-free word by its rank.

    >>> standardize((4, 6, 2))
    (2, 3, 1)
    >>> standardize((10, 9, 8))
    (3, 2, 1)
    """
    word = tuple(word)
    if len(set(word)) != len(word):
        raise ValueError(f"word {word} has repeated entries")
    return _standardize(word)


def _standardize(word: tuple[int, ...]) -> Permutation:
    """`standardize` for a word already known to be repetition-free."""
    ranks = {v: r for r, v in enumerate(sorted(word), start=1)}
    return tuple(ranks[v] for v in word)


def longest_element(m: int, subset: Sequence[int] | None = None) -> Permutation:
    """Longest element of the parabolic subgroup generated by the subset.

    ``subset=None`` (or the full set) gives the order-reversing word; each
    maximal run of consecutive generator indices reverses one block.

    >>> longest_element(3, {1, 2})
    (3, 2, 1)
    >>> longest_element(4, set())
    (1, 2, 3, 4)
    >>> longest_element(4, {2})
    (1, 3, 2, 4)
    """
    gens = set(range(1, m)) if subset is None else set(subset)
    if any(i < 1 or i > m - 1 for i in gens):
        raise ValueError(f"generator subset {sorted(gens)} out of range for S_{m}")
    w = list(range(1, m + 1))
    for _, run in itertools.groupby(
        sorted(gens), key=lambda i, c=itertools.count(): i - next(c)
    ):
        block = list(run)
        a, b = block[0], block[-1] + 1
        w[a - 1 : b] = reversed(w[a - 1 : b])
    return tuple(w)


def compose_right_action(alpha: Sequence[int], p: Sequence[int]) -> tuple[int, ...]:
    """Right action on tuples by position: result_i = alpha_{p(i)}.

    >>> compose_right_action((1, 2, 5, 2), (2, 3, 1, 4))
    (2, 5, 1, 2)
    """
    p = check_perm(p)
    alpha = tuple(alpha)
    if len(alpha) != len(p):
        raise ValueError("length mismatch")
    return tuple(alpha[p[i] - 1] for i in range(len(p)))


def min_coset_reps(lambda_: Sequence[int]) -> list[Permutation]:
    """Minimal-length representatives of the left cosets of the stabilizer.

    The input must be a partition (weakly decreasing); the count is
    m! / (product of multiplicities!).  The orbit key ``lambda . p^-1`` is
    constant on the left coset ``p Stab(lambda)`` and tells cosets apart,
    so walking S_m in (length, lex) order and keeping the first p for each
    key picks each coset's first element in that order.

    >>> min_coset_reps((2, 1))
    [(1, 2), (2, 1)]
    >>> min_coset_reps((1, 1))
    [(1, 2)]
    >>> len(min_coset_reps((2, 2, 1)))
    3
    """
    lam = tuple(lambda_)
    if any(a < b for a, b in zip(lam, lam[1:])):
        raise ValueError(f"{lam} is not a partition")
    seen: set[tuple[int, ...]] = set()
    reps = []
    for p in perms_by_length_lex(len(lam)):
        key = compose_right_action(lam, inverse(p))
        if key not in seen:
            seen.add(key)
            reps.append(p)
    return reps


def weak_leq(p: Sequence[int], q: Sequence[int]) -> bool:
    """Weak (Bruhat) order: q has a reduced word starting with one for p.

    Equivalently the lengths are additive, ``len(q) == len(p) + len(p^-1 q)``.

    >>> weak_leq((1, 2, 3), (3, 2, 1))
    True
    >>> weak_leq((3, 2, 1), (1, 2, 3))
    False
    >>> weak_leq((2, 1, 3), (2, 3, 1))
    True
    """
    p, q = check_perm(p), check_perm(q)
    if len(p) != len(q):
        raise ValueError("degree mismatch")
    return length(q) == length(p) + length(compose(inverse(p), q))


def all_perms(m: int) -> list[Permutation]:
    """All of S_m in lexicographic order."""
    return [tuple(p) for p in itertools.permutations(range(1, m + 1))]


@lru_cache(maxsize=None)
def perms_by_length_lex(m: int) -> tuple[Permutation, ...]:
    """All of S_m sorted by (length, one-line word); a stable basis order."""
    return tuple(sorted(all_perms(m), key=lambda p: (length(p), p)))

