import itertools

import pytest
from hypothesis import given, strategies as st

from spcthecke.compositions import partitions
from spcthecke.permutations import (
    all_perms,
    all_reduced_words,
    compose,
    compose_right_action,
    descent_set,
    identity,
    inverse,
    length,
    longest_element,
    min_coset_reps,
    perms_by_length_lex,
    reduced_word,
    s_times,
    standardize,
    times_s,
    weak_leq,
)

perms = st.integers(min_value=1, max_value=6).flatmap(
    lambda m: st.permutations(list(range(1, m + 1))).map(tuple)
)


def perm_from_word(word, m):
    """The product s_{i_1} ... s_{i_p} in S_m; the oracle for `reduced_word`."""
    p = identity(m)
    for i in reversed(list(word)):
        p = s_times(i, p)
    return p


def test_standardize_examples():
    assert standardize((4, 6, 2)) == (2, 3, 1)
    assert standardize(tuple(range(1, 8))) == identity(7)
    assert standardize((10, 9, 8)) == (3, 2, 1)
    with pytest.raises(ValueError):
        standardize((1, 1))


@given(perms)
def test_standardize_idempotent(p):
    assert standardize(p) == p


def test_reduced_word_examples():
    word = reduced_word((3, 2, 1))
    assert len(word) == 3 and perm_from_word(word, 3) == (3, 2, 1)
    assert reduced_word(identity(4)) == ()
    assert reduced_word((2, 1, 3, 4)) == (1,)


@given(perms)
def test_reduced_word_multiplies_back(p):
    word = reduced_word(p)
    assert len(word) == length(p)
    assert perm_from_word(word, len(p)) == p


@given(perms)
def test_sign_and_length_step(p):
    # the sign (-1)^length agrees with the cycle-type sign (-1)^(m - #cycles)
    seen, cycles = set(), 0
    for v in p:
        if v not in seen:
            cycles += 1
            while v not in seen:
                seen.add(v)
                v = p[v - 1]
    assert length(p) % 2 == (len(p) - cycles) % 2
    for i in range(1, len(p)):
        assert abs(length(times_s(p, i)) - length(p)) == 1


def test_all_reduced_words_small():
    words = set(all_reduced_words((3, 2, 1)))
    assert words == {(1, 2, 1), (2, 1, 2)}
    for w in words:
        assert perm_from_word(w, 3) == (3, 2, 1)


def test_longest_element_examples():
    assert longest_element(3, {1, 2}) == (3, 2, 1)
    assert longest_element(4, set()) == identity(4)
    assert longest_element(4, {2}) == (1, 3, 2, 4)
    # parabolic longest elements maximise length within the subgroup
    assert length(longest_element(5, {1, 2, 4})) == 3 + 1


def test_min_coset_reps_examples():
    assert min_coset_reps((2, 1)) == [(1, 2), (2, 1)]
    assert min_coset_reps((1, 1)) == [(1, 2)]
    assert len(min_coset_reps((2, 2, 1))) == 3
    with pytest.raises(ValueError):
        min_coset_reps((1, 2))


def _stabilizer(alpha):
    return [p for p in all_perms(len(alpha)) if compose_right_action(alpha, p) == alpha]


def _min_coset_reps_by_cosets(lam):
    """Slow oracle: compare whole left cosets p Stab(lam) over S_m in (length, lex) order."""
    stab = _stabilizer(lam)
    seen = set()
    reps = []
    for p in sorted(itertools.permutations(range(1, len(lam) + 1)), key=lambda q: (length(q), q)):
        coset = frozenset(tuple(p[i - 1] for i in h) for h in stab)  # p h, unvalidated
        if coset not in seen:
            seen.add(coset)
            reps.append(p)
    return reps


def test_min_coset_reps_against_whole_cosets():
    # n = 7 is where lex order and (length, lex) order first list the reps
    # differently, e.g. (3, 2, 1, 1).  (1,)*7 is stated directly: its one
    # coset is all of S_7, too large to compare element by element here
    for n in range(1, 8):
        for lam in partitions(n):
            if lam == (1,) * 7:
                assert min_coset_reps(lam) == [identity(7)]
            else:
                assert min_coset_reps(lam) == _min_coset_reps_by_cosets(lam), lam


@pytest.mark.parametrize("lam", [(2, 1), (2, 2, 1), (3, 1, 1), (2, 2, 1, 1), (2, 2, 1, 1, 1)])
def test_min_coset_reps_brute_force(lam):
    m = len(lam)
    stab = _stabilizer(lam)
    reps = min_coset_reps(lam)
    import math

    mult = 1
    for part in set(lam):
        mult *= math.factorial(lam.count(part))
    assert len(reps) == math.factorial(m) // mult
    cosets = {frozenset(compose(r, h) for h in stab) for r in reps}
    assert len(cosets) == len(reps)
    assert sum(len(c) for c in cosets) == math.factorial(m)
    for r in reps:
        assert all(length(r) <= length(q) for q in [compose(r, h) for h in stab])


def test_weak_leq_examples():
    w0 = longest_element(4)
    assert weak_leq(identity(4), w0)
    assert not weak_leq(w0, identity(4))
    s1 = (2, 1, 3)
    s1s2 = compose(s1, (1, 3, 2))
    assert weak_leq(s1, s1s2)


def test_weak_leq_against_cover_closure():
    # oracle: reflexive-transitive closure of the length-increasing
    # right-multiplication covers, over all of S_4
    m = 4
    ps = all_perms(m)
    below = {p: {p} for p in ps}
    changed = True
    order = sorted(ps, key=length)
    while changed:
        changed = False
        for p in order:
            for i in range(1, m):
                q = times_s(p, i)
                if length(q) == length(p) + 1 and not below[q] >= below[p] | {p}:
                    below[q] |= below[p] | {p}
                    changed = True
    for p in ps:
        for q in ps:
            assert weak_leq(p, q) == (p in below[q]), (p, q)


@given(perms)
def test_compose_inverse(p):
    assert compose(p, inverse(p)) == identity(len(p))
    assert compose(inverse(p), p) == identity(len(p))


def test_left_right_multiplication():
    p = (2, 3, 1, 4)
    assert times_s(p, 1) == (3, 2, 1, 4)
    assert s_times(1, p) == (1, 3, 2, 4)
    assert compose(p, (2, 1, 3, 4)) == times_s(p, 1)
    assert compose((2, 1, 3, 4), p) == s_times(1, p)


def test_perms_by_length_lex_is_stable_order():
    order = perms_by_length_lex(4)
    assert order[0] == identity(4)
    assert order[-1] == longest_element(4)
    lengths = [length(p) for p in order]
    assert lengths == sorted(lengths)


def test_descent_set():
    assert descent_set((2, 1, 3)) == {1}
    assert descent_set(identity(5)) == frozenset()
    assert descent_set(longest_element(4)) == {1, 2, 3}
