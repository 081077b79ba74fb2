import itertools

import pytest
from hypothesis import given, strategies as st

from spcthecke import permutations as P
from spcthecke.compositions import (
    Cell,
    bubble_act,
    bubble_act_word,
    bubble_fiber,
    bubble_fiber_word,
    comp_of,
    compositions,
    complement_of,
    partitions,
    rd_row_spans,
    reverse_of,
    set_of,
    sorted_parts,
)
from spcthecke.tableaux import _ribbon

comps = st.lists(st.integers(min_value=1, max_value=6), min_size=0, max_size=6).map(tuple)


def test_set_of_examples():
    assert set_of((1, 3, 2)) == {1, 4}
    assert set_of((6,)) == frozenset()
    assert set_of((1, 1, 1)) == {1, 2}


def test_comp_of_examples():
    assert comp_of({1, 4}, 6) == (1, 3, 2)
    assert comp_of(set(), 5) == (5,)
    assert comp_of({1, 2, 3}, 4) == (1, 1, 1, 1)
    with pytest.raises(ValueError):
        comp_of({5}, 5)


@given(comps)
def test_set_comp_round_trip(alpha):
    assert comp_of(set_of(alpha), sum(alpha)) == alpha


@given(st.integers(min_value=0, max_value=8), st.data())
def test_comp_set_round_trip(n, data):
    points = data.draw(st.sets(st.integers(min_value=1, max_value=max(n - 1, 1))))
    points = {p for p in points if p <= n - 1}
    assert set_of(comp_of(points, n)) == points


def test_transform_examples():
    assert complement_of((2, 2, 1, 1, 1, 2, 1)) == (1, 2, 5, 2)
    assert reverse_of((1, 3, 2)) == (2, 3, 1)
    assert sorted_parts((1, 3, 2)) == (3, 2, 1)
    with pytest.raises(ValueError):
        reverse_of((1, 0))


@given(comps)
def test_transform_involutions(alpha):
    assert reverse_of(reverse_of(alpha)) == alpha
    assert complement_of(complement_of(alpha)) == alpha
    transpose = reverse_of(complement_of(alpha))
    assert reverse_of(complement_of(transpose)) == alpha


@given(comps)
def test_transpose_both_orders(alpha):
    assert reverse_of(complement_of(alpha)) == complement_of(reverse_of(alpha))


def test_empty_composition_fixed_by_transforms():
    for transform in (reverse_of, complement_of, sorted_parts):
        assert transform(()) == ()


def test_bubble_act_examples():
    assert bubble_act((1, 3, 2), 1) == (3, 1, 2)
    assert bubble_act((3, 1, 2), 2) == (3, 2, 1)
    assert bubble_act((2, 1), 1) == (2, 1)
    with pytest.raises(ValueError):
        bubble_act((2, 1), 2)


def test_bubble_fiber_examples():
    assert bubble_fiber((2, 1), (2, 1)) == {(2, 1), (1, 2)}
    assert bubble_fiber((1, 2), (2, 1)) == set()
    assert bubble_fiber((2, 2), (2, 1)) == {(2, 2)}


def test_bubble_fiber_membership():
    for n in range(1, 6):
        for alpha in compositions(n):
            for sigma in P.all_perms(len(alpha)):
                word = P.reduced_word(sigma)
                for beta in bubble_fiber(alpha, sigma):
                    assert bubble_act_word(beta, word) == alpha


def test_bubble_fiber_reduced_word_independent():
    for n in range(1, 7):
        for alpha in compositions(n):
            for sigma in P.all_perms(len(alpha)):
                if P.length(sigma) < 2:
                    continue
                words = itertools.islice(P.all_reduced_words(sigma), 8)
                fibers = {frozenset(bubble_fiber_word(alpha, w)) for w in words}
                assert len(fibers) == 1


def test_partition_word_action_round_trip():
    for n in range(1, 7):
        for lam in partitions(n):
            for sigma in P.all_perms(len(lam)):
                beta = P.compose_right_action(lam, P.inverse(sigma))
                assert bubble_act_word(beta, P.reduced_word(sigma)) == lam


def test_enumeration_orders():
    assert compositions(3) == [(1, 1, 1), (1, 2), (2, 1), (3,)]
    assert compositions(0) == [()]
    assert len(partitions(4)) == 5
    assert len(compositions(6)) == 2 ** 5


def test_ribbon_geometry():
    assert rd_row_spans((1, 3, 2)) == [(1, 1), (1, 3), (3, 4)]
    assert [len(c) for c in _ribbon((2, 2, 1, 1, 1, 2, 1)).columns] == [1, 2, 5, 2]
    # column heights always spell the complement
    for n in range(1, 8):
        for alpha in compositions(n):
            assert tuple(len(c) for c in _ribbon(alpha).columns) == complement_of(alpha)


def test_cell_kind_guard():
    for row, col, kind in ((1, 1, "weird"), (0, 1, "cd"), (1, 0, "rd"), (-1, 2, "cd")):
        with pytest.raises(ValueError):
            Cell(row, col, kind)
    assert Cell(2, 3) == (2, 3, "cd") and Cell(1, 1, "rd").kind == "rd"
