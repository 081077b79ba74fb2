"""Slow oracle: the 0-Hecke algebra as elements in the permutation basis.

The package builds the regular representation and its projective
indecomposables on coordinate vectors, left-applying generators through
an index map.  This oracle multiplies algebra elements instead, along
reduced words by the right multiplication rule

    (basis sigma) * gen_i  =  basis(sigma s_i)   if that is longer,
                              basis(sigma)       otherwise,

so an ideal's generator is a product of elements (`pim_generator`) and
its dimension is a count of permutations by descent set
(`descent_class_size`).  The barred elements (gen_i - 1) and the
sign-flip automorphism (gen_i -> 1 - gen_i) are expanded the same way.

`pim_ideal` is the reference for the ideals themselves: it left-applies
each generator through an index map read off the lengths
(`left_mult_images`) and closes the generator's vector under them with
its own frontier, eliminating as it goes; it shares only the
`EchelonSpace` kernel with the package, whose ideals are a walk with no
elimination.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from spcthecke import permutations as P
from spcthecke.linalg import EchelonSpace, Scalar, Vec
from spcthecke.permutations import Permutation


class HeckeElement:
    """A finitely supported coefficient map on the permutation basis."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[Permutation, Scalar] | None = None):
        self.n = n
        self.terms: dict[Permutation, Scalar] = {}
        if terms:
            for p, c in terms.items():
                if len(p) != n:
                    raise ValueError(f"basis index {p} not in degree {n}")
                if c:
                    self.terms[P.check_perm(p)] = c

    @classmethod
    def unit(cls, n: int) -> "HeckeElement":
        return cls(n, {P.identity(n): 1})

    @classmethod
    def pi(cls, sigma: Sequence[int]) -> "HeckeElement":
        sigma = P.check_perm(sigma)
        return cls(len(sigma), {sigma: 1})

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        if self.n != other.n:
            raise ValueError("degree mismatch")
        terms = dict(self.terms)
        for p, c in other.terms.items():
            s = terms.get(p, 0) + c
            if s:
                terms[p] = s
            else:
                terms.pop(p, None)
        return HeckeElement(self.n, terms)

    def __sub__(self, other: "HeckeElement") -> "HeckeElement":
        return self + (-1) * other

    def __rmul__(self, scalar) -> "HeckeElement":
        return HeckeElement(self.n, {p: scalar * c for p, c in self.terms.items()})

    def __neg__(self) -> "HeckeElement":
        return (-1) * self

    def times_gen(self, i: int) -> "HeckeElement":
        """Right multiplication by the i-th generator."""
        if not 1 <= i <= self.n - 1:
            raise ValueError(f"generator index {i} out of range")
        terms: dict[Permutation, Scalar] = {}
        for p, c in self.terms.items():
            q = P.times_s(p, i)
            tgt = q if P.length(q) > P.length(p) else p
            s = terms.get(tgt, 0) + c
            if s:
                terms[tgt] = s
            else:
                terms.pop(tgt, None)
        return HeckeElement(self.n, terms)

    def __mul__(self, other):
        if not isinstance(other, HeckeElement):
            return other * self
        if self.n != other.n:
            raise ValueError("degree mismatch")
        out = HeckeElement(self.n)
        for p, c in other.terms.items():
            cur = self
            for i in P.reduced_word(p):
                cur = cur.times_gen(i)
            out = out + c * cur
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HeckeElement)
            and self.n == other.n
            and {p: Fraction(c) for p, c in self.terms.items()}
            == {p: Fraction(c) for p, c in other.terms.items()}
        )

    def __hash__(self):
        return hash((self.n, frozenset((p, Fraction(c)) for p, c in self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return f"HeckeElement({self.n}, 0)"
        bits = [f"{c}*pi{p}" for p, c in sorted(self.terms.items())]
        return f"HeckeElement({self.n}, {' + '.join(bits)})"


def opi_element(sigma: Sequence[int]) -> HeckeElement:
    """Expansion of the barred basis element in the plain basis.

    Multiplies out (gen - 1) factors along a reduced word; the result does
    not depend on the word.
    """
    sigma = P.check_perm(sigma)
    out = HeckeElement.unit(len(sigma))
    for i in P.reduced_word(sigma):
        out = out.times_gen(i) - out
    return out


def theta(h: HeckeElement) -> HeckeElement:
    """The involutive algebra automorphism sending gen_i to 1 - gen_i."""
    out = HeckeElement(h.n)
    for p, c in h.terms.items():
        cur = HeckeElement.unit(h.n)
        for i in P.reduced_word(p):
            cur = cur - cur.times_gen(i)
        out = out + c * cur
    return out


def pim_generator(n: int, subset: Iterable[int]) -> HeckeElement:
    """(longest of the complement) * (barred longest of the parabolic)."""
    subset = frozenset(subset)
    e = HeckeElement.pi(P.longest_element(n, frozenset(range(1, n)) - subset))
    for i in P.reduced_word(P.longest_element(n, subset)):
        e = e.times_gen(i) - e
    return e


def element_vector(h: HeckeElement) -> Vec:
    """Coordinates of an element in the fixed regular-module basis order."""
    order = P.perms_by_length_lex(h.n)
    index = {p: k for k, p in enumerate(order)}
    return {index[p]: c for p, c in h.terms.items()}


def descent_class_size(n: int, subset: Iterable[int]) -> int:
    """#{p in S_n : descent set of p == subset}; the expected ideal dimension."""
    subset = frozenset(subset)
    return sum(1 for p in P.all_perms(n) if P.descent_set(p) == subset)


@functools.lru_cache(maxsize=None)
def left_mult_images(n: int, i: int) -> tuple[int, ...]:
    """index -> index map of left multiplication by gen_i, from lengths."""
    order = P.perms_by_length_lex(n)
    index = {p: k for k, p in enumerate(order)}
    out = []
    for p in order:
        q = P.s_times(i, p)
        out.append(index[q] if P.length(q) > P.length(p) else index[p])
    return tuple(out)


def apply_left_gen(images: Sequence[int], v: Vec) -> Vec:
    out: Vec = {}
    for j, c in v.items():
        k = images[j]
        s = out.get(k, 0) + c
        if s:
            out[k] = s
        else:
            del out[k]
    return out


def pim_ideal(n: int, subset: Iterable[int]) -> EchelonSpace:
    """The span of the left ideal of `pim_generator`.

    The generator's vector is closed under left multiplication by a
    frontier of the vectors that enlarged the span.
    """
    images = [left_mult_images(n, i) for i in range(1, n)]
    seed = element_vector(pim_generator(n, subset))
    space = EchelonSpace(math.factorial(n))
    space.add(seed)
    frontier = [seed]
    while frontier:
        v = frontier.pop()
        for im in images:
            w = apply_left_gen(im, v)
            if w and space.add(w):
                frontier.append(w)
    return space
