"""The regular representation of the degree-n 0-Hecke algebra and its
projective indecomposables.

The algebra has one basis element per permutation.  Left multiplication by
the generator gen_i sends the basis element p to s_i p when that is
longer, which is when the value i stands left of i+1 in p, and fixes p
otherwise.

The regular representation and its cyclic left ideals generated by
(barred longest element of a parabolic) * (plain longest element of the
complementary parabolic) -- the projective indecomposables -- are built
here as `HModule` values, written straight into their generator columns.
An ideal is built on vectors: its generator's coordinates come from
left-applying the barred factors (gen_i - 1) to a basis vector, with no
product of algebra elements.  A module is projective exactly when it has
the dimension of the projective cover of its top (`is_projective`).
Every entry point refuses an n above `modules.DEFAULT_ALGEBRA_BOUND`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, NamedTuple

from .compositions import BoundExceeded, set_of
from .linalg import EchelonSpace, Vec, vec_axpy
from .modules import DEFAULT_ALGEBRA_BOUND, HModule, top_factors
from . import permutations
from .permutations import Permutation


def _check_algebra_bound(n: int) -> None:
    if n > DEFAULT_ALGEBRA_BOUND:
        raise BoundExceeded(f"n = {n} exceeds algebra bound {DEFAULT_ALGEBRA_BOUND}")


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


def regular_module(n: int) -> HModule:
    """Left multiplication on the permutation basis; dimension n factorial.

    Basis order is (length, one-line word), fixed for reproducibility.
    """
    _check_algebra_bound(n)
    cols = [[{k: 1} for k in _left_mult_images(n, i)] for i in range(1, n)]
    return HModule._trusted(n, _basis_order(n), cols, f"H_{n}(0)")


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


def pim_module(n: int, subset: Iterable[int]) -> HModule:
    """The cyclic left ideal of the subset's generator (`_pim_seed`), as a module.

    The basis is the canonical echelon basis of the generator-closure of
    the cyclic vector inside the regular representation; labels are the
    pivot permutations (echelon pivots over the fixed basis order).
    Results are cached on (n, frozenset(subset)); each call gets its own
    copy of the columns, so a caller cannot change what the cache holds.
    """
    _check_algebra_bound(n)
    m = _pim_module(n, frozenset(subset))
    return HModule._trusted(n, m.basis, [[dict(col) for col in g] for g in m.cols], m.name, m._index)


def _pim_seed(n: int, subset: frozenset[int]) -> Vec:
    """The coordinates of the ideal's generator, built on vectors.

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
    labels = tuple(order[p] for p in sorted(space.pivots))
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
    return HModule._trusted(n, labels, cols, f"P_{sorted(subset)}")


pim_module.cache_info = _pim_module.cache_info


def _pivot_positions(space: EchelonSpace) -> dict[int, int]:
    """Map internal row index -> position in the pivot-sorted basis."""
    return {space.pivots[p]: k for k, p in enumerate(sorted(space.pivots))}


class ProjectivityCertificate(NamedTuple):
    top: dict
    cover_dim: int  # dim P(top M)
    dim: int

    @property
    def projective(self) -> bool:
        return self.cover_dim == self.dim


def is_projective(m: HModule) -> tuple[bool, ProjectivityCertificate]:
    """Compare dim M with the dimension of the projective cover of its top.

    The cover P(top M) always maps onto M, so M is projective exactly when
    the two dimensions agree; the verdict is exact both ways.  The cover
    dimension is the sum of the ideal dimensions over the top's simple
    multiplicities.
    """
    _check_algebra_bound(m.n)
    top = top_factors(m)
    cover_dim = sum(mult * _pim_module(m.n, set_of(beta)).dim for beta, mult in top.items())
    cert = ProjectivityCertificate(dict(top), cover_dim, m.dim)
    return cert.projective, cert

