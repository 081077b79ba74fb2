"""The regular representation of the degree-n 0-Hecke algebra and its
projective indecomposables.

The algebra has one basis element per permutation.  Left multiplication by
the generator gen_i sends the basis element p to s_i p when that is
longer, which is when the value i stands left of i+1 in p, and fixes p
otherwise.

The regular representation is an `HModule` written straight into its
generator columns, kept once per degree.  Its cyclic left ideals generated
by (barred longest element of a parabolic) * (plain longest element of the
complementary parabolic) are the projective indecomposables.  An ideal is
the closure of its generator vector, built by `modules`; the vector comes
from left-applying the barred factors (gen_i - 1) to a basis vector in the
regular module, with no product of algebra elements.  A module is
projective exactly when it has the dimension of the projective cover of
its top (`is_projective`); the top is computed on every call, and the
ideals once per degree and subset.  Every entry point takes a
non-negative `int` degree and refuses one above
`modules.DEFAULT_ALGEBRA_BOUND`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, NamedTuple

from .compositions import BoundExceeded, set_of
from .linalg import Vec, vec_axpy
from .modules import DEFAULT_ALGEBRA_BOUND, HModule, _generated_submodule, top_factors
from . import permutations


def _check_algebra_bound(n: int) -> None:
    if n > DEFAULT_ALGEBRA_BOUND:
        raise BoundExceeded(f"n = {n} exceeds algebra bound {DEFAULT_ALGEBRA_BOUND}")


def _check_degree(n) -> None:
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise ValueError(f"degree must be a non-negative integer, got {n!r}")
    _check_algebra_bound(n)


def _left_mult_images(n: int, i: int) -> tuple[int, ...]:
    """index -> index map of left multiplication by gen_i on the basis.

    s_i p is longer than p exactly when the value i stands left of i+1 in p.
    """
    order = permutations.perms_by_length_lex(n)
    index = {p: k for k, p in enumerate(order)}
    images = []
    for p in order:
        longer = p.index(i) < p.index(i + 1)
        images.append(index[permutations.s_times(i, p)] if longer else index[p])
    return tuple(images)


@lru_cache(maxsize=None)
def _regular_module(n: int) -> HModule:
    order = permutations.perms_by_length_lex(n)
    units = [{k: 1} for k in range(len(order))]  # shared by the generators: one dict per unit column
    cols = [[units[k] for k in _left_mult_images(n, i)] for i in range(1, n)]
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
    """The cyclic left ideal of the subset's generator (`_pim_seed`), as a module.

    The basis is the canonical echelon basis of the generator-closure of
    the cyclic vector inside the regular representation; labels are the
    pivot permutations (echelon pivots over the fixed basis order).
    Results are cached on (n, frozenset(subset)); each call gets its own
    copy of the columns, so a caller cannot change what the cache holds.
    """
    _check_degree(n)
    subset = frozenset(subset)
    _check_subset(n, subset)
    return _copy_out(_pim_module(n, subset))


def _pim_seed(n: int, subset: frozenset[int]) -> Vec:
    """The coordinates of the ideal's generator, built on vectors.

    The generator is (pi_{i_1} - 1) ... (pi_{i_k} - 1) pi_w, for a reduced
    word i_1 ... i_k of the parabolic's longest element and w the
    complement's longest element, so the barred factors are left-applied
    to the unit vector of w, the last factor first.
    """
    reg = _regular_module(n)
    v: Vec = {reg.index(permutations.longest_element(n, frozenset(range(1, n)) - subset)): 1}
    for i in reversed(permutations.reduced_word(permutations.longest_element(n, subset))):
        u = reg.act(i, v)
        vec_axpy(u, -1, v)
        v = u
    return v


@lru_cache(maxsize=None)
def _pim_module(n: int, subset: frozenset[int]) -> HModule:
    return _generated_submodule(_regular_module(n), [_pim_seed(n, subset)], f"P_{sorted(subset)}")


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
