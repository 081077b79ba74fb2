"""The degree-n 0-Hecke algebra in its generator basis.

Elements are finitely supported rational combinations of basis elements
indexed by permutations.  The basis multiplication rule on the right is

    (basis sigma) * gen_i  =  basis(sigma s_i)   if that is longer,
                              basis(sigma)       otherwise,

and symmetrically on the left with s_i sigma.  Products of arbitrary
elements reduce to iterated generator multiplications along reduced words,
which is also how the barred generators (gen_i - 1) and the sign-flip
automorphism (gen_i -> 1 - gen_i) are expanded.

The regular representation and its cyclic left ideals generated by
(barred longest element of a parabolic) * (plain longest element of the
complementary parabolic) -- the projective indecomposables -- are built
here as `HModule` values, written straight into their generator columns.
Left multiplication by gen_i sends the basis element p to s_i p when the
value i stands left of i+1 in p, and fixes it otherwise.  An ideal is
built on vectors: its generator's coordinates come from left-applying the
barred factors to a basis vector, with no product of algebra elements.
A module is projective exactly when it has the dimension of the
projective cover of its top (`is_projective`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

from .compositions import BoundExceeded, set_of
from .linalg import EchelonSpace, Scalar, Vec, vec_axpy
from .modules import DEFAULT_ALGEBRA_BOUND, HModule, top_factors
from . import permutations
from .permutations import Permutation


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
                    self.terms[permutations.check_perm(p)] = c

    @classmethod
    def unit(cls, n: int) -> "HeckeElement":
        return cls(n, {permutations.identity(n): 1})

    @classmethod
    def pi(cls, sigma: Sequence[int]) -> "HeckeElement":
        sigma = permutations.check_perm(sigma)
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
            q = permutations.times_s(p, i)
            tgt = q if permutations.length(q) > permutations.length(p) else p
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
            for i in permutations.reduced_word(p):
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

    >>> opi_element((2, 1)) == HeckeElement(2, {(2, 1): 1, (1, 2): -1})
    True
    >>> opi_element((1, 2)) == HeckeElement.unit(2)
    True
    """
    sigma = permutations.check_perm(sigma)
    out = HeckeElement.unit(len(sigma))
    for i in permutations.reduced_word(sigma):
        out = out.times_gen(i) - out
    return out


def theta(h: HeckeElement) -> HeckeElement:
    """The involutive algebra automorphism sending gen_i to 1 - gen_i."""
    out = HeckeElement(h.n)
    for p, c in h.terms.items():
        cur = HeckeElement.unit(h.n)
        for i in permutations.reduced_word(p):
            cur = cur - cur.times_gen(i)
        out = out + c * cur
    return out


# ---------------------------------------------------------------------------
# regular representation and projective indecomposables


def _check_algebra_bound(n: int, bound: int) -> None:
    if n > bound:
        raise BoundExceeded(f"n = {n} exceeds algebra bound {bound}")


@lru_cache(maxsize=None)
def _basis_order(n: int) -> tuple[Permutation, ...]:
    """The regular module's basis order: by length, then one-line word."""
    return permutations.perms_by_length_lex(n)


@lru_cache(maxsize=None)
def _left_mult_images(n: int, i: int) -> tuple[int, ...]:
    """index -> index map of left multiplication by gen_i on the basis.

    s_i p is longer than p exactly when the value i stands left of i+1 in p.
    """
    order = _basis_order(n)
    index = {p: k for k, p in enumerate(order)}
    images = []
    for p in order:
        longer = p.index(i) < p.index(i + 1)
        images.append(index[permutations.s_times(i, p)] if longer else index[p])
    return tuple(images)


def regular_module(n: int, bound: int = DEFAULT_ALGEBRA_BOUND) -> HModule:
    """Left multiplication on the permutation basis; dimension n factorial.

    Basis order is (length, one-line word), fixed for reproducibility.
    """
    _check_algebra_bound(n, bound)
    cols = [[{k: 1} for k in _left_mult_images(n, i)] for i in range(1, n)]
    return HModule(n, _basis_order(n), cols, name=f"H_{n}(0)")


def element_vector(h: HeckeElement) -> Vec:
    """Coordinates of an element in the fixed regular-module basis order."""
    order = _basis_order(h.n)
    index = {p: k for k, p in enumerate(order)}
    return {index[p]: c for p, c in h.terms.items()}


def _apply_left_gen(n: int, i: int, v: Vec) -> Vec:
    images = _left_mult_images(n, i)
    out: Vec = {}
    for j, c in v.items():
        k = images[j]
        s = out.get(k, 0) + c
        if s:
            out[k] = s
        else:
            del out[k]
    return out


def _check_subset(n: int, subset: frozenset[int]) -> None:
    if any(i < 1 or i > n - 1 for i in subset):
        raise ValueError(f"{sorted(subset)} is not a subset of [1, {n - 1}]")


def pim_generator(n: int, subset: Iterable[int]) -> HeckeElement:
    """(barred longest of the parabolic) * (longest of the complement)."""
    subset = frozenset(subset)
    _check_subset(n, subset)
    comp = frozenset(range(1, n)) - subset
    e = opi_element(permutations.longest_element(n, subset))
    for i in permutations.reduced_word(permutations.longest_element(n, comp)):
        e = e.times_gen(i)
    return e


def pim_module(n: int, subset: Iterable[int], bound: int = DEFAULT_ALGEBRA_BOUND) -> HModule:
    """The cyclic left ideal generated by `pim_generator`, as a module.

    The basis is the canonical echelon basis of the generator-closure of
    the cyclic vector inside the regular representation; labels are the
    pivot permutations (echelon pivots over the fixed basis order).
    Results are cached on (n, frozenset(subset)); `bound` only guards the
    size.
    """
    _check_algebra_bound(n, bound)
    return _pim_module(n, frozenset(subset))


def _pim_seed(n: int, subset: frozenset[int]) -> Vec:
    """The coordinates of `pim_generator`, built on vectors.

    The generator is (pi_{i_1} - 1) ... (pi_{i_k} - 1) pi_w, for a reduced
    word i_1 ... i_k of the parabolic's longest element and w the
    complement's longest element, so the barred factors are left-applied
    to the unit vector of w, the last factor first.
    """
    _check_subset(n, subset)
    w = permutations.longest_element(n, frozenset(range(1, n)) - subset)
    v: Vec = {_basis_order(n).index(w): 1}
    for i in reversed(permutations.reduced_word(permutations.longest_element(n, subset))):
        u = _apply_left_gen(n, i, v)
        vec_axpy(u, -1, v)
        v = u
    return v


@lru_cache(maxsize=None)
def _pim_module(n: int, subset: frozenset[int]) -> HModule:
    order = _basis_order(n)
    seed = _pim_seed(n, subset)
    space = EchelonSpace(len(order))
    space.add(seed)
    frontier = [seed]
    while frontier:
        v = frontier.pop()
        for i in range(1, n):
            w = _apply_left_gen(n, i, v)
            if w and space.add(w):
                frontier.append(w)
    basis_rows = [dict(r) for r in space.basis()]
    labels = [order[p] for p in sorted(space.pivots)]
    remap = _pivot_positions(space)
    cols = []
    for i in range(1, n):
        g = []
        for b in basis_rows:
            coords = space.coords(_apply_left_gen(n, i, b))
            if coords is None:
                raise RuntimeError("cyclic ideal not closed under the action")
            g.append({remap[row_idx]: x for row_idx, x in coords.items()})
        cols.append(g)
    return HModule(n, labels, cols, name=f"P_{sorted(subset)}")


pim_module.cache_info = _pim_module.cache_info


def _pivot_positions(space: EchelonSpace) -> dict[int, int]:
    """Map internal row index -> position in the pivot-sorted basis."""
    return {space.pivots[p]: k for k, p in enumerate(sorted(space.pivots))}


@dataclass
class ProjectivityCertificate:
    top: dict
    cover_dim: int  # dim P(top M)
    dim: int

    @property
    def projective(self) -> bool:
        return self.cover_dim == self.dim


def is_projective(
    m: HModule, bound: int = DEFAULT_ALGEBRA_BOUND
) -> tuple[bool, ProjectivityCertificate]:
    """Compare dim M with the dimension of the projective cover of its top.

    The cover P(top M) always maps onto M, so M is projective exactly when
    the two dimensions agree; the verdict is exact both ways.  The cover
    dimension is the sum of the ideal dimensions over the top's simple
    multiplicities.
    """
    _check_algebra_bound(m.n, bound)
    top = top_factors(m)
    cover_dim = sum(mult * pim_module(m.n, set_of(beta), bound).dim for beta, mult in top.items())
    cert = ProjectivityCertificate(dict(top), cover_dim, m.dim)
    return cert.projective, cert


def descent_class_size(n: int, subset: Iterable[int]) -> int:
    """#{p in S_n : descent set of p == subset}; the expected ideal dimension."""
    subset = frozenset(subset)
    return sum(1 for p in permutations.all_perms(n) if permutations.descent_set(p) == subset)
