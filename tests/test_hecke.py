import itertools
import math

import pytest

from hecke_oracle import (
    HeckeElement,
    apply_left_gen,
    descent_class_size,
    element_vector,
    left_mult_images,
    opi_element,
    pim_generator,
    pim_ideal,
    theta,
)
from spcthecke import hecke
from spcthecke import permutations as P
from spcthecke.compositions import BoundExceeded, comp_of
from spcthecke.hecke import pim_module, regular_module
from spcthecke.linalg import EchelonSpace, vec_axpy
from spcthecke.modules import check_relations, is_indecomposable, top_factors


def test_basis_multiplication_examples():
    e = HeckeElement.unit(3)
    s1 = (2, 1, 3)
    assert e.times_gen(1) == HeckeElement.pi(s1)
    assert HeckeElement.pi(s1).times_gen(1) == HeckeElement.pi(s1)  # idempotent rule
    # braid: multiplying the unit along both reduced words of the longest
    # element lands on the same basis element
    left = e.times_gen(1).times_gen(2).times_gen(1)
    right = e.times_gen(2).times_gen(1).times_gen(2)
    assert left == right == HeckeElement.pi((3, 2, 1))


def test_opi_element_examples():
    assert opi_element((2, 1)) == HeckeElement(2, {(2, 1): 1, (1, 2): -1})
    assert opi_element((1, 2)) == HeckeElement.unit(2)
    # longest element of degree three: multiply the factors out directly
    x = HeckeElement.unit(3)
    for i in (2, 1, 2):  # the deterministic reduced word
        x = x.times_gen(i) - x
    w0 = opi_element((3, 2, 1))
    assert w0 == x
    assert len(w0.terms) == 6
    assert all(c in (1, -1) for c in w0.terms.values())
    # sign alternates with length
    for p, c in w0.terms.items():
        assert c == (-1) ** (3 - P.length(p))


def test_opi_reduced_word_independent():
    for p in P.all_perms(4):
        results = set()
        for word in itertools.islice(P.all_reduced_words(p), 6):
            x = HeckeElement.unit(4)
            for i in word:
                x = x.times_gen(i) - x
            results.add(x)
        assert len(results) == 1


def test_theta_examples():
    s1 = HeckeElement.pi((2, 1))
    assert theta(s1) == HeckeElement.unit(2) - s1
    assert theta(HeckeElement.unit(2)) == HeckeElement.unit(2)
    h = HeckeElement.pi((3, 1, 2))
    assert theta(theta(h)) == h


def test_theta_is_an_algebra_map():
    elts = [
        HeckeElement.pi((2, 1, 3)) + 2 * HeckeElement.pi((1, 3, 2)),
        opi_element((3, 2, 1)),
        HeckeElement.pi((3, 1, 2)) - HeckeElement.pi((1, 2, 3)),
    ]
    for a in elts:
        for b in elts:
            assert theta(a * b) == theta(a) * theta(b)


def test_left_mult_images_against_lengths():
    # the position rule against the definition: s_i p replaces p when longer
    from spcthecke.hecke import _left_mult_images

    for n in range(1, 7):
        order = P.perms_by_length_lex(n)
        index = {p: k for k, p in enumerate(order)}
        for i in range(1, n):
            expected = []
            for p in order:
                q = P.s_times(i, p)
                expected.append(index[q] if P.length(q) > P.length(p) else index[p])
            assert _left_mult_images(n)[i - 1] == tuple(expected), (n, i)


def test_regular_module_dims_and_relations():
    assert regular_module(2).dim == 2
    m3 = regular_module(3)
    assert m3.dim == 6 and check_relations(m3).ok
    with pytest.raises(BoundExceeded):
        regular_module(9)


def test_pim_examples_degree_three():
    trivial = pim_module(3, frozenset())
    assert trivial.dim == 1
    assert all(trivial.gen(i).to_dense() == [[1]] for i in range(1, 3))
    sign = pim_module(3, frozenset({1, 2}))
    assert sign.dim == 1
    assert all(sign.gen(i).to_dense() == [[0]] for i in range(1, 3))


def test_pim_dimension_matches_ribbon_count():
    from spcthecke.tableaux import enumerate_srt

    m = pim_module(4, frozenset({2}))
    assert m.dim == len(enumerate_srt((2, 2))) == descent_class_size(4, {2}) == 5


def test_pim_generator_lives_in_its_ideal():
    e = pim_generator(4, {1, 3})
    assert element_vector(e)  # nonzero
    m = pim_module(4, frozenset({1, 3}))
    assert m.dim == descent_class_size(4, {1, 3})


def _subsets(max_n):
    return [
        (n, frozenset(s)) for n in range(1, max_n + 1) for r in range(n) for s in itertools.combinations(range(1, n), r)
    ]


def _walk(n, seed):
    return hecke._walk(hecke._left_mult_images(n), seed)


def test_pim_seed_is_the_generator_element():
    # the ideal is seeded on vectors; the algebra-element product is the oracle
    subsets = _subsets(7)
    assert len(subsets) == 127
    for n, subset in subsets:
        assert hecke._generator(n, subset) == element_vector(pim_generator(n, subset)), (n, subset)
    with pytest.raises(ValueError):
        pim_module(3, {3})


def test_pim_module_caches_on_normalised_arguments():
    m = pim_module(4, frozenset({1, 3}))
    misses = pim_module.cache_info().misses
    again = pim_module(4, [3, 1])
    assert (again.basis, again.cols, again.name) == (m.basis, m.cols, m.name)
    assert pim_module.cache_info().misses == misses


def test_pim_module_hands_out_its_own_columns():
    m = pim_module(3, {1})
    assert check_relations(m).ok
    m.cols[0][0][0] = 7
    m.cols[1].clear()
    again = pim_module(3, {1})
    assert again.cols is not m.cols and check_relations(again).ok
    assert all(g is not h and a is not b for g, h in zip(again.cols, m.cols) for a, b in zip(g, h))
    with pytest.raises(BoundExceeded):
        pim_module(9, {1, 3})


def _assert_walk_is_the_oracle_ideal(n, subset):
    """The ideal's module is its generator's walk, and the walk is a basis
    of the oracle's ideal on which each column is the oracle's image."""
    vecs, cols = _walk(n, hecke._generator(n, subset))
    order = P.perms_by_length_lex(n)
    m = pim_module(n, subset)
    assert (m.basis, list(m.cols), m.name) == (tuple(order[min(v)] for v in vecs), cols, f"P_{sorted(subset)}")
    assert vecs[0] == element_vector(pim_generator(n, subset))
    # independent, inside the ideal, and as many as its dimension
    ideal = pim_ideal(n, subset)
    independent = EchelonSpace(len(order))
    assert all(independent.add(v) for v in vecs)
    assert len(vecs) == len(ideal) and all(ideal.contains(v) for v in vecs)
    for i, g in enumerate(cols, start=1):
        im = left_mult_images(n, i)
        for v, col in zip(vecs, g):
            got = {}
            for k, c in col.items():
                vec_axpy(got, c, vecs[k])
            assert got == apply_left_gen(im, v), (n, subset, i)


def test_ideals_equal_the_frontier_oracle():
    for n, subset in _subsets(7):
        _assert_walk_is_the_oracle_ideal(n, subset)


def test_the_walk_refuses_vectors_that_share_a_smallest_coordinate():
    # with the barred factor on the left, the generator's left multiples
    # are dependent for 52 of the 63 subsets with n <= 6
    refused = 0
    for n, subset in _subsets(6):
        seed = opi_element(P.longest_element(n, subset)) * HeckeElement.pi(
            P.longest_element(n, frozenset(range(1, n)) - subset)
        )
        try:
            _walk(n, element_vector(seed))
        except RuntimeError as exc:
            assert "share the smallest coordinate" in str(exc)
            refused += 1
    assert refused == 52


def test_regular_module_hands_out_its_own_columns():
    n = 4
    want = regular_module(n).cols
    # the cache keeps one unit column per basis vector, shared by the generators
    cached = [col for g in hecke._regular_module(n).cols for col in g]
    assert len({id(col) for col in cached}) == len({tuple(col.items()) for col in cached})
    m = regular_module(n)
    assert all(a is not b for a, b in zip(m.cols[0], m.cols[1]))
    for g in m.cols:
        for col in g:
            col.clear()
            col[0] = 7
        g.pop()
    hecke._pim_module.cache_clear()  # the next ideal is built from the cached regular module
    _assert_walk_is_the_oracle_ideal(n, frozenset({1, 3}))
    assert regular_module(n).cols == want and check_relations(regular_module(n)).ok


@pytest.mark.parametrize(
    "build",
    [
        pytest.param(lambda: regular_module(-1), id="negative-degree"),
        pytest.param(lambda: regular_module(3.0), id="float-degree"),
        pytest.param(lambda: pim_module(True, []), id="bool-degree"),
        pytest.param(lambda: pim_module(3, [1.5]), id="float-entry"),
    ],
)
def test_malformed_input_is_a_value_error(build):
    with pytest.raises(ValueError):
        build()


def test_bool_entry_is_refused_and_names_stay_put():
    hecke._pim_module.cache_clear()
    with pytest.raises(ValueError):
        pim_module(3, [True])
    assert pim_module(3, [1]).name == "P_[1]"


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_ideal_decomposition(n):
    mods = {frozenset(s): pim_module(n, s) for r in range(n) for s in itertools.combinations(range(1, n), r)}
    assert sum(m.dim for m in mods.values()) == math.factorial(n)
    for subset, m in mods.items():
        assert check_relations(m).ok
        # unit columns throughout, so the action stays integer
        assert all(type(x) is int for i in range(1, n) for x in m.gen(i).data.values())
        assert m.dim == descent_class_size(n, subset)
        assert dict(top_factors(m)) == {comp_of(subset, n): 1}
        ok, cert = is_indecomposable(m)
        assert ok, (n, subset, cert)


def test_hmodule_json_round_trip():
    from spcthecke.linalg import RatMat

    m = pim_module(3, frozenset({1}))
    payload = m.to_json()
    assert payload["n"] == 3 and payload["dim"] == m.dim
    assert len(payload["generators"]) == 2
    for g, quads in zip([m.gen(i) for i in range(1, m.n)], payload["generators"]):
        assert RatMat.from_quadruples(m.dim, m.dim, quads) == g
