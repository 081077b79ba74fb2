"""The regular representation of the degree-n 0-Hecke algebra and its
projective indecomposables.

The algebra has one basis element per permutation.  Left multiplication by
the generator gen_i sends the basis element p to s_i p when that is
longer, which is when the value i stands left of i+1 in p, and fixes p
otherwise.

The regular representation is an `HModule` written straight into its
generator columns, kept once per degree, beside each generator's index
map.  Its cyclic left ideals generated by (plain longest element of the
complementary parabolic) * (barred longest element of a parabolic) are
the projective indecomposables (Norton 1979).  An ideal is built by one
walk, with no elimination: its generator's vector is left-applied factor
by factor, the barred ones first, to the identity's unit vector, and every
generator is then applied to every vector found (`_walk`).  An image is
0, a vector already found or a new one, so each generator column is 0 or
one unit entry.  The vectors span the ideal, since they hold the
generator and their span is closed by construction; they are a basis,
since each has its own smallest coordinate, and each is labeled by the
permutation there.  A module is projective exactly when it has the
dimension of the projective cover of its top (`is_projective`); the top
is computed on every call, and the ideals once per degree and subset.
Every entry point takes a non-negative `int` degree and refuses one
above `modules.DEFAULT_ALGEBRA_BOUND`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

from .compositions import BoundExceeded, set_of
from .linalg import Vec, vec_axpy
from .modules import DEFAULT_ALGEBRA_BOUND, HModule, top_factors
from . import permutations


def _check_algebra_bound(n: int) -> None:
    if n > DEFAULT_ALGEBRA_BOUND:
        raise BoundExceeded(f"n = {n} exceeds algebra bound {DEFAULT_ALGEBRA_BOUND}")


def _check_degree(n) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"degree must be a non-negative integer, got {n!r}")
    _check_algebra_bound(n)


@lru_cache(maxsize=None)
def _left_mult_images(n: int) -> tuple[tuple[int, ...], ...]:
    """For gen_1, ..., gen_{n-1}, the index -> index map of left
    multiplication on the basis, kept once per degree.

    s_i p is longer than p exactly when the value i stands left of i+1 in p.
    """
    order = permutations.perms_by_length_lex(n)
    index = {p: k for k, p in enumerate(order)}
    maps = []
    for i in range(1, n):
        images = []
        for p in order:
            longer = p.index(i) < p.index(i + 1)
            images.append(index[permutations.s_times(i, p)] if longer else index[p])
        maps.append(tuple(images))
    return tuple(maps)


@lru_cache(maxsize=None)
def _regular_module(n: int) -> HModule:
    order = permutations.perms_by_length_lex(n)
    units = [{k: 1} for k in range(len(order))]  # shared by the generators: one dict per unit column
    cols = [[units[k] for k in images] for images in _left_mult_images(n)]
    return HModule._trusted(n, order, cols, f"H_{n}(0)")


def _copy_out(m: HModule) -> HModule:
    """m with columns of its own, so a caller cannot change the cached m."""
    return HModule._trusted(m.n, m.basis, [[dict(col) for col in g] for g in m.cols], m.name, m._index)


def regular_module(n: int) -> HModule:
    """Left multiplication on the permutation basis; dimension n factorial.

    Basis order is (length, one-line word), fixed for reproducibility.
    Each call gets its own copy of the columns.
    """
    _check_degree(n)
    return _copy_out(_regular_module(n))


def _check_subset(n: int, subset: frozenset) -> None:
    for i in subset:
        if not isinstance(i, int) or isinstance(i, bool) or not 1 <= i <= n - 1:
            raise ValueError(f"subset entry {i!r} is not an integer in [1, {n - 1}]")


def pim_module(n: int, subset: Iterable[int]) -> HModule:
    """The cyclic left ideal of the subset's generator, as a module.

    The basis is the generator's walk (`_walk`): the distinct nonzero
    vectors pi_w g of the generator g, in the order the walk finds them,
    so the first basis vector is g.  Each is labeled by the permutation at
    its smallest coordinate, and every generator column is 0 or one unit
    entry.  Results are cached on (n, frozenset(subset)); each call gets
    its own copy of the columns, so a caller cannot change what the cache
    holds.
    """
    _check_degree(n)
    subset = frozenset(subset)
    _check_subset(n, subset)
    return _copy_out(_pim_module(n, subset))


def _left_apply(images: Sequence[int], v: Vec) -> Vec:
    """A generator given by its index map (`_left_mult_images`) applied to v."""
    out: Vec = {}
    for c, x in v.items():
        k = images[c]
        s = out.get(k, 0) + x
        if s:
            out[k] = s
        else:
            del out[k]
    return out


def _generator(n: int, subset: frozenset[int]) -> Vec:
    """The coordinates of the ideal's generator pi_{w0(S^c)} opi_{w0(S)}.

    The barred factor (pi_{i_1} - 1) ... (pi_{i_k} - 1), for a reduced
    word i_1 ... i_k of the subset's longest element, is left-applied to
    the identity's unit vector in the regular module, the last factor
    first; then the plain factors of the complement's longest element are,
    the same way.  The plain factor must stand on the left: with the
    barred one there, the walk finds dependent vectors (`_walk`).
    """
    reg = _regular_module(n)
    v: Vec = {reg.index(permutations.identity(n)): 1}
    for i in reversed(permutations.reduced_word(permutations.longest_element(n, subset))):
        u = reg.act(i, v)
        vec_axpy(u, -1, v)
        v = u
    for i in reversed(permutations.reduced_word(permutations.longest_element(n, frozenset(range(1, n)) - subset))):
        v = reg.act(i, v)
    return v


def _walk(images: Sequence[Sequence[int]], seed: Vec) -> tuple[list[Vec], list[list[Vec]]]:
    """The distinct nonzero vectors that the generators, given by their
    index maps (`_left_mult_images`), reach from seed, in the order found,
    with the generators' columns on them.

    Distinct smallest coordinates are what make the vectors a basis, so an
    image that shares its smallest coordinate with a different vector
    raises `RuntimeError`.
    """
    vecs = [seed]
    lead = {min(seed): 0}
    cols: list[list[Vec]] = [[] for _ in images]
    for v in vecs:  # grows as the walk finds vectors
        for im, out in zip(images, cols):
            w = _left_apply(im, v)
            if not w:
                out.append({})
                continue
            k = lead.setdefault(min(w), len(vecs))
            if k == len(vecs):
                vecs.append(w)
            elif w != vecs[k]:
                raise RuntimeError(f"two walk vectors share the smallest coordinate {min(w)}")
            out.append({k: 1})
    return vecs, cols


@lru_cache(maxsize=None)
def _pim_module(n: int, subset: frozenset[int]) -> HModule:
    vecs, cols = _walk(_left_mult_images(n), _generator(n, subset))
    basis = _regular_module(n).basis
    return HModule._trusted(n, tuple(basis[min(v)] for v in vecs), cols, f"P_{sorted(subset)}")


pim_module.cache_info = _pim_module.cache_info


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
