import functools
import itertools
import random

import pytest

import class_oracle
from spcthecke import maps, modules, qsym
from spcthecke import permutations as P
from spcthecke import tableaux
from spcthecke.compositions import BoundExceeded, Cell, compositions
from spcthecke.tableaux import (
    Spct,
    Srt,
    canonical_source_tableau,
    class_label,
    classify,
    col_word,
    comp_of_tableau,
    descent_set,
    enumerate_spct,
    enumerate_srt,
    equivalence_classes,
    hatted_source_tableau,
    is_attacking,
    is_compatible,
    is_sigma_simple,
    is_valid_spct_rows,
    pacd_pairs,
    pi_action,
    removable_nodes,
    source_ribbon_tableau,
    spct_exists,
)


def all_pairs(n):
    for alpha in compositions(n):
        for sigma in P.all_perms(len(alpha)):
            yield alpha, sigma


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_spct_single_column_forced():
    for sigma in P.all_perms(4):
        ts = enumerate_spct((1, 1, 1, 1), sigma)
        assert len(ts) == 1
        assert tuple(row[0] for row in ts[0].rows) == sigma


def test_enumerate_spct_examples():
    ts = enumerate_spct((2, 1), (2, 1))
    assert {t.rows for t in ts} == {((3, 2), (1,)), ((3, 1), (2,))}
    assert enumerate_spct((1, 2), (2, 1)) == ()


def _row_fillings(alpha, values):
    """Every split of `values` into ordered rows of sizes alpha, rows decreasing."""
    if not alpha:
        yield ()
        return
    for first in itertools.combinations(values, alpha[0]):
        rest = [v for v in values if v not in first]
        for tail in _row_fillings(alpha[1:], rest):
            yield (tuple(sorted(first, reverse=True)),) + tail


@functools.lru_cache(maxsize=None)
def _brute_force(alpha):
    """Independent oracle: every row-decreasing filling of `alpha` that passes
    the full defining check, bucketed by type, each bucket in column reading
    word order."""
    n = sum(alpha)
    buckets = {}
    for rows in _row_fillings(alpha, list(range(1, n + 1))):
        if is_valid_spct_rows(rows):
            sigma = P.standardize(tuple(row[0] for row in rows))
            buckets.setdefault(sigma, []).append(rows)
    return {sigma: sorted(found, key=lambda rows: col_word(Spct(rows))) for sigma, found in buckets.items()}


def test_enumerate_spct_brute_force_oracle():
    # compare contents and order exactly for every pair with n <= 7
    for n in range(1, 8):
        for alpha in compositions(n):
            for sigma in P.all_perms(len(alpha)):
                expected = _brute_force(alpha).get(sigma, [])
                assert [t.rows for t in enumerate_spct(alpha, sigma)] == expected, (alpha, sigma)


def _clear_spct_caches():
    tableaux._SMALLER.clear()


def test_requested_pairs_stay_out_of_the_recursion_memo():
    _clear_spct_caches()
    pairs = [(alpha, sigma) for alpha, sigma in all_pairs(6) if is_compatible(alpha, sigma)]
    for alpha, sigma in pairs:
        assert [t.rows for t in enumerate_spct(alpha, sigma)] == _brute_force(alpha)[sigma], (alpha, sigma)
    assert tableaux._SMALLER
    assert all(sum(alpha) < 6 for alpha, _ in tableaux._SMALLER)


def test_walk_order_does_not_change_the_tableaux():
    pairs = [pair for n in range(1, 7) for pair in all_pairs(n)]
    shuffled = list(pairs)
    random.Random(14).shuffle(shuffled)
    walks = []
    for order in (pairs, pairs[::-1], shuffled):
        _clear_spct_caches()
        walks.append({pair: [(t.rows, t._pos) for t in enumerate_spct(*pair)] for pair in order})
    assert walks[0] == walks[1] == walks[2]


def test_existence_matches_enumeration():
    for n in range(1, 9):
        for alpha, sigma in all_pairs(n):
            assert spct_exists(alpha, sigma) == (len(enumerate_spct(alpha, sigma)) > 0), (alpha, sigma)
    assert spct_exists((), ())


def _assert_same_as_public(t):
    public = type(t)(t.rows)
    assert (t.rows, t.shape, t.n) == (public.rows, public.shape, public.n)
    # every built tableau carries the very cells its shape's geometry holds
    assert all(t.pos(v) is public.pos(v) for v in range(1, t.n + 1))
    # column oracle from the public positions: the values in column c, from
    # the top row down (composition rows count down, ribbon rows count up)
    down = 1 if isinstance(t, Spct) else -1
    assert t.num_columns() == max((public.pos(v)[1] for v in range(1, t.n + 1)), default=0)
    for c in range(1, t.num_columns() + 1):
        here = [v for v in range(1, t.n + 1) if public.pos(v)[1] == c]
        assert t.column(c) == sorted(here, key=lambda v: down * public.pos(v)[0])


def test_trusted_tableaux_match_the_public_constructor():
    for n in range(1, 8):
        for alpha, sigma in all_pairs(n):
            for t in enumerate_spct(alpha, sigma):
                _assert_same_as_public(t)
                assert is_valid_spct_rows(t.rows, sigma)
    for n in range(1, 7):
        for alpha, sigma in all_pairs(n):
            for t in enumerate_spct(alpha, sigma):
                for i, step in enumerate(tableaux._steps(t), 1):
                    if step == tableaux._SWAP:
                        u = t.swap_values(i)
                        _assert_same_as_public(u)
                        assert is_valid_spct_rows(u.rows, sigma)
    for n in range(1, 8):
        for alpha in compositions(n):
            _assert_same_as_public(source_ribbon_tableau(alpha))
            for t in enumerate_srt(alpha):
                _assert_same_as_public(t)
                for i in range(1, n):
                    _assert_same_as_public(t.swap_values(i))


def _cells_from_rows(t):
    """(row, column) of each value, read off the rows: composition rows start
    in column 1, ribbon rows at their span's first column."""
    if isinstance(t, Spct):
        starts = [1] * len(t.rows)
    else:
        starts = [lo for lo, _ in tableaux._ribbon(t.shape).spans]
    return {v: (r, c) for r, (row, lo) in enumerate(zip(t.rows, starts), 1) for c, v in enumerate(row, lo)}


def test_positions_are_the_shapes_shared_cells():
    for n in range(1, 7):
        for alpha in compositions(n):
            spcts = [t for sigma in P.all_perms(len(alpha)) for t in enumerate_spct(alpha, sigma)]
            srts = list(enumerate_srt(alpha)) + [source_ribbon_tableau(alpha)]
            for kind in (spcts, srts):
                kind += [type(t)(t.rows) for t in kind]
                for t in kind:
                    expected = _cells_from_rows(t)
                    assert {v: t.pos(v) for v in range(1, n + 1)} == expected, t
                    for v in (0, -1, n + 1):
                        with pytest.raises(KeyError):
                            t.pos(v)
                    for i in range(1, n):
                        u = t.swap_values(i)
                        assert _cells_from_rows(u) == {**expected, i: expected[i + 1], i + 1: expected[i]}
                        assert {v: u.pos(v) for v in range(1, n + 1)} == _cells_from_rows(u)
                    # the cached tableau is shared, so swapping must leave it as it was
                    assert {v: t.pos(v) for v in range(1, n + 1)} == expected
                # one tuple per cell, whichever tableau, type or constructor
                assert len({id(t.pos(v)) for t in kind for v in range(1, n + 1)}) == n, alpha


def test_swap_values_range():
    t = Spct([[3, 1], [2]])
    assert t.swap_values(2).rows == ((2, 1), (3,))
    T = Srt([[1, 3], [2]])
    assert T.swap_values(1).rows == ((2, 3), (1,))
    assert T.swap_values(2).rows == ((1, 2), (3,))
    for u in (t, T):
        for i in (0, 3):
            with pytest.raises(ValueError):
                u.swap_values(i)


# every public entry point whose internals trust their arguments still
# rejects a non-permutation type, a zero or negative part, and a length
# mismatch
MALFORMED_PAIRS = [
    ((2, 1), (1, 1)),
    ((2, 1), (2, 3)),
    ((2, 0), (1, 2)),
    ((2, -1), (1, 2)),
    ((2, 1), (1,)),
    ((2,), (1, 2)),
]


def _filling(alpha):
    """Rows filling `alpha` with consecutive decreasing blocks; an empty or
    negative part gives an empty row, which `Spct` rejects."""
    ends = itertools.accumulate(alpha, initial=0)
    return Spct([range(end + part, end, -1) for end, part in zip(ends, alpha)])


def phi_of_pair(alpha, sigma):
    return maps.phi(_filling(alpha), sigma)


def psi_of_pair(alpha, sigma):
    return maps.psi(_filling(alpha), sigma)


def recursion_check_at_1(alpha, sigma):
    return qsym.recursion_check(alpha, sigma, 1)


@pytest.mark.parametrize(
    "fn",
    [
        enumerate_spct,
        spct_exists,
        is_compatible,
        pacd_pairs,
        canonical_source_tableau,
        removable_nodes,
        hatted_source_tableau,
        is_sigma_simple,
        phi_of_pair,
        psi_of_pair,
        qsym.ch_spct,
        recursion_check_at_1,
        modules.class_submodules,
        modules.canonical_submodule,
    ],
)
@pytest.mark.parametrize("alpha, sigma", MALFORMED_PAIRS)
def test_malformed_pairs_are_rejected(fn, alpha, sigma):
    with pytest.raises(ValueError):
        fn(alpha, sigma)


def test_malformed_fillings_and_words_are_rejected():
    for kind in (Spct, Srt):
        for rows in ([[2, 2]], [[3, 1]], [[2, 1], []], [[1, 0]]):
            with pytest.raises(ValueError):
                kind(rows)
    with pytest.raises(ValueError):
        P.standardize((4, 2, 4))


def test_enumerators_cache_on_normalised_arguments():
    assert enumerate_spct([2, 1], [2, 1]) == enumerate_spct((2, 1), (2, 1))
    assert enumerate_srt([2, 1]) == enumerate_srt((2, 1))
    result = enumerate_srt((3, 1, 2))
    misses = enumerate_srt.cache_info().misses
    assert enumerate_srt((3, 1, 2), 9) is result
    assert enumerate_srt([3, 1, 2], bound=8) is result
    assert enumerate_srt.cache_info().misses == misses
    # enumerate_spct keeps only the pairs its recursion read, here by
    # building (3, 1), and returns the memo's tuple however it is asked
    _clear_spct_caches()
    alpha, sigma = (2, 1), (2, 1)
    result = enumerate_spct(alpha, sigma)
    assert result and enumerate_spct(alpha, sigma) is not result
    assert enumerate_spct((3, 1), sigma)
    result = enumerate_spct(alpha, sigma)
    assert result is tableaux._SMALLER[alpha, sigma][0]
    assert enumerate_spct(alpha, sigma, 9) is result
    assert enumerate_spct(list(alpha), list(sigma), bound=8) is result


def test_enumerate_spct_type_is_enforced():
    for alpha, sigma in all_pairs(5):
        for t in enumerate_spct(alpha, sigma):
            assert t.sigma == sigma
            assert is_valid_spct_rows(t.rows, sigma)


def test_enumerate_srt_counts():
    assert len(enumerate_srt((4,))) == 1
    assert len(enumerate_srt((1, 1, 1))) == 1
    # oracle: ribbon tableaux are counted by descent classes
    for n in range(1, 7):
        for alpha in compositions(n):
            expected = sum(
                1 for p in P.all_perms(n) if P.descent_set(p) == frozenset(set_of_alpha(alpha))
            )
            assert len(enumerate_srt(alpha)) == expected, alpha


def set_of_alpha(alpha):
    from spcthecke.compositions import set_of

    return set_of(alpha)


def test_enumerate_bound():
    with pytest.raises(BoundExceeded):
        enumerate_spct((5, 5), (1, 2))
    with pytest.raises(BoundExceeded):  # the core the claims call keeps the guard
        tableaux._enumerate_spct((5, 5), (1, 2))
    with pytest.raises(BoundExceeded):
        enumerate_srt((5, 5))
    assert len(enumerate_srt((5, 5), bound=10)) > 0


def test_srt_validity():
    t = Srt([[1, 3], [2, 8], [7], [6], [5], [4, 10], [9]])
    assert t.shape == (2, 2, 1, 1, 1, 2, 1)
    assert t.column(3) == [4, 5, 6, 7, 8]
    assert t.column(0) == t.column(5) == []
    assert t.pos(9) == (7, 4)


def test_ribbon_geometry_is_shared_tuples():
    ts = enumerate_srt((2, 2, 1))
    geo = tableaux._ribbon(ts[0].shape)
    assert all(tableaux._ribbon(t.shape) is geo for t in ts)

    def frozen(x):
        return isinstance(x, int) or isinstance(x, tuple) and all(frozen(y) for y in x)

    assert frozen(geo)
    before = ts[0].column(2)
    ts[0].column(2).append(99)
    assert ts[0].column(2) == before


# ---------------------------------------------------------------------------
# descents, attacking, classes


def test_descents_examples():
    t = Spct([[3, 2], [1]])
    assert descent_set(t) == {1} and comp_of_tableau(t) == (1, 2) and not is_attacking(t, 1, 2)
    t = Spct([[3, 1], [2]])
    assert descent_set(t) == {2} and comp_of_tableau(t) == (2, 1) and is_attacking(t, 2, 3)
    single = Spct([list(range(5, 0, -1))])
    assert descent_set(single) == frozenset()
    assert comp_of_tableau(single) == (5,)


def test_descent_set_is_the_position_walk():
    # `descent_set` reads the steps of `_steps`; the oracle walks the
    # range-checked positions and compares columns
    for n in range(1, 7):
        for alpha, sigma in all_pairs(n):
            for t in enumerate_spct(alpha, sigma):
                walked = frozenset(i for i in range(1, n) if t.pos(i + 1)[1] >= t.pos(i)[1])
                assert descent_set(t) == walked, t


def test_pi_action_against_descents_and_attacks():
    for n in range(1, 7):
        for alpha, sigma in all_pairs(n):
            for t in enumerate_spct(alpha, sigma):
                des = descent_set(t)
                for i in range(1, n):
                    u = pi_action(t, i)
                    if i not in des:
                        assert u is t
                    elif is_attacking(t, i, i + 1):
                        assert u is None
                    else:
                        assert u == t.swap_values(i) and is_valid_spct_rows(u.rows, sigma)


def test_steps_read_pi_action_and_the_source_sink_rule():
    # one walk over i gives every pi_i image and both flags; the oracle
    # is the one-step rule and the definitions from descents and attacks
    for n in range(1, 7):
        for alpha, sigma in all_pairs(n):
            for t in enumerate_spct(alpha, sigma):
                steps = tableaux._steps(t)
                assert len(steps) == max(n - 1, 0)
                for i, step in enumerate(steps, 1):
                    u = pi_action(t, i)
                    if step in (tableaux._STAY, tableaux._FIX):
                        assert u is t
                    elif step == tableaux._KILL:
                        assert u is None
                    else:
                        assert step == tableaux._SWAP and u == t.swap_values(i)
                des = descent_set(t)
                source = all(
                    t.pos(i + 1) == (t.pos(i)[0], t.pos(i)[1] - 1) for i in range(1, n) if i not in des
                )
                sink = all(is_attacking(t, i, i + 1) for i in des)
                kind = {(True, True): "both", (True, False): "source", (False, True): "sink"}
                assert classify(t) == kind.get((source, sink), "interior"), t


def _steps_from_pi_action(t):
    """The oracle for `_steps`: one `pi_action` per i, a fixed tableau told
    apart by whether i+1 sits immediately left of i."""
    out = []
    for i in range(1, t.n):
        u = pi_action(t, i)
        if u is t:
            (r, c), left = t.pos(i), t.pos(i + 1)
            out.append(tableaux._STAY if left == (r, c - 1) else tableaux._FIX)
        else:
            out.append(tableaux._KILL if u is None else tableaux._SWAP)
    return tuple(out)


def test_carried_steps_are_the_walk():
    # the enumerator carries each tableau's steps from the smaller tableau;
    # the walk over its cells stays the reference
    for n in range(1, 8):
        for alpha, sigma in all_pairs(n):
            for t in enumerate_spct(alpha, sigma):
                walked = tableaux._walk(t._pos[1:])
                assert t._sid is not None and tableaux._STEPS[t._sid] == walked, t
                assert tableaux._SOURCE[t._sid] is (tableaux._FIX not in walked)
                assert tableaux._SINK[t._sid] is (tableaux._SWAP not in walked)
    assert all(type(steps) is tuple for steps in tableaux._STEPS)


def test_tableaux_built_elsewhere_walk_their_cells():
    for n in range(1, 7):
        for alpha, sigma in all_pairs(n):
            ts = enumerate_spct(alpha, sigma)
            built = [Spct(t.rows) for t in ts]
            built += [t.swap_values(i) for t in ts[:3] for i in range(1, n)]
            built += [maps.rho(t) for t in ts[:3]]
            built += [maps.phi(maps.rho(t), sigma) for t in ts[:3]]
            if ts:
                built.append(canonical_source_tableau(alpha, sigma))  # from `_canonical_rows`
            for u in built:
                assert u._sid is None
                assert tableaux._steps(u) == _steps_from_pi_action(u), u
    assert tableaux._steps(Spct([[1]])) == () and classify(Spct([[1]])) == "both"


def test_class_label_examples():
    t = Spct([[4, 1], [6, 5, 3], [2]])
    assert str(class_label(t)) == "231 12 1"
    single = Spct([[4, 3, 2, 1]])
    assert str(class_label(single)) == "1 1 1 1"
    for alpha, sigma in all_pairs(5):
        for t in enumerate_spct(alpha, sigma):
            assert class_label(t).words[0] == sigma
            columns = [t.column(c) for c in range(1, t.num_columns() + 1)]
            assert class_label(t).words == tuple(P.standardize(col) for col in columns)


def test_equivalence_classes_examples():
    cls = equivalence_classes(enumerate_spct((2, 1), (2, 1)))
    assert len(cls) == 1 and len(cls[0].members) == 2
    cls = equivalence_classes(enumerate_spct((1, 1, 1), (2, 3, 1)))
    assert len(cls) == 1 and len(cls[0].members) == 1
    # class count equals component count for ((2,2), id)
    ts = enumerate_spct((2, 2), (1, 2))
    assert len(equivalence_classes(ts)) == len(class_oracle.action_components(ts))


def test_class_keys_group_as_the_labels_do():
    # `_class_key` against the standardized column words: the same groups,
    # in the same order, for every compatible pair with n <= 7
    lone = 0
    for n in range(1, 8):
        for alpha, sigma in all_pairs(n):
            ts = tableaux._enumerate_spct(alpha, sigma)
            by_label = {}
            for t in ts:
                by_label.setdefault(tableaux._column_words(t.rows), []).append(t)
            assert tableaux._grouped(ts) == list(by_label.values()), (alpha, sigma)
            lone += len(ts) == 1
    assert lone
    # a lone tableau is still read as a class: one source and one sink
    (t,) = enumerate_spct((1, 1, 1), (2, 3, 1))
    assert tableaux._read_classes(tableaux._grouped([t]))[0][0] == (((t,), t, t))
    with pytest.raises(RuntimeError, match="1 sources and 0 sinks"):
        tableaux._read_classes(tableaux._grouped([Spct([[3, 2], [1]])]))


def test_classify_examples():
    assert classify(Spct([[3, 2], [1]])) == "source"
    assert classify(Spct([[3, 1], [2]])) == "sink"
    assert classify(Spct([[4, 3, 2, 1]])) == "both"


def test_col_word():
    t = Spct([[4, 1], [6, 5, 3], [2]])
    assert col_word(t) == (4, 6, 2, 1, 5, 3)


def test_unique_source_and_sink_per_class():
    for n in range(1, 7):
        for alpha, sigma in all_pairs(n):
            if not is_compatible(alpha, sigma):
                continue
            for cl in equivalence_classes(enumerate_spct(alpha, sigma)):
                kinds = [classify(t) for t in cl.members]
                assert sum(k in ("source", "both") for k in kinds) == 1
                assert sum(k in ("sink", "both") for k in kinds) == 1


# ---------------------------------------------------------------------------
# shape/type predicates


def test_is_compatible_examples():
    assert not is_compatible((1, 2, 1, 3), (2, 1, 3, 4))
    assert is_compatible((1, 1, 2, 3), (2, 1, 3, 4))
    for n in range(1, 7):
        for lam in compositions(n):
            if all(a >= b for a, b in zip(lam, lam[1:])):
                assert is_compatible(lam, P.longest_element(len(lam)))


def test_compatibility_matches_the_inversion_form():
    # the definition: parts never increase across an inversion of the type
    for n in range(1, 8):
        for alpha in compositions(n):
            for sigma in P.all_perms(len(alpha)):
                want = all(
                    alpha[i] >= alpha[j]
                    for i, j in itertools.combinations(range(len(alpha)), 2)
                    if sigma[i] > sigma[j]
                )
                assert is_compatible(alpha, sigma) is want, (alpha, sigma)


def test_pacd_pairs_examples():
    pairs = pacd_pairs((3, 3, 1, 2), (2, 1, 3, 4))
    by_idx = {(p.i, p.j): p for p in pairs}
    assert (1, 4) in by_idx and by_idx[1, 4].c1 == (3,)
    assert all(p.witnessed for p in pairs)

    pairs = pacd_pairs((3, 1, 2, 2), (2, 1, 3, 4))
    by_idx = {(p.i, p.j): p for p in pairs}
    assert (1, 4) in by_idx and not by_idx[1, 4].witnessed

    assert pacd_pairs((1, 1, 2, 3), (2, 1, 3, 4)) == []


def test_sigma_simple_core_reads_the_witness_lists():
    for n in range(1, 8):
        for alpha, sigma in all_pairs(n):
            if is_compatible(alpha, sigma):
                want = all(p.witnessed for p in pacd_pairs(alpha, sigma))
                assert tableaux._sigma_simple(alpha, sigma) == want, (alpha, sigma)


def test_is_sigma_simple_examples():
    assert is_sigma_simple((3, 3, 1, 2), (2, 1, 3, 4))
    assert not is_sigma_simple((3, 1, 2, 2), (2, 1, 3, 4))
    # partitions are simple for the reversing type: no obstruction pairs
    for n in range(1, 7):
        for lam in compositions(n):
            if all(a >= b for a, b in zip(lam, lam[1:])):
                w0 = P.longest_element(len(lam))
                assert pacd_pairs(lam, w0) == []
                assert is_sigma_simple(lam, w0)


def test_removable_nodes_examples():
    cells = removable_nodes((4, 1, 2, 2), (2, 1, 3, 4))
    assert [(c.row, c.col) for c in cells] == [(1, 4), (2, 1)]
    assert removable_nodes((5,), (1,)) == [Cell(1, 5, "cd")]
    # a type value of one always marks its part removable
    cells = removable_nodes((2, 2), (1, 2))
    assert [(c.row, c.col) for c in cells] == [(1, 2), (2, 2)]


def _entry_one_cells(alpha, sigma):
    """Listing oracle: the cells holding the entry 1 across all tableaux of the pair."""
    return {Cell(*t.pos(1), "cd") for t in enumerate_spct(alpha, sigma)}


def test_removable_nodes_are_entry_one_cells():
    for n in range(1, 7):
        for alpha, sigma in all_pairs(n):
            if not is_compatible(alpha, sigma):
                continue
            assert set(removable_nodes(alpha, sigma)) == _entry_one_cells(alpha, sigma)


def test_decrement_keeps_simplicity():
    for n in range(2, 8):
        for alpha, sigma in all_pairs(n):
            if not is_compatible(alpha, sigma) or not is_sigma_simple(alpha, sigma):
                continue
            smaller = {m + 1: (beta, tau) for m, beta, tau in tableaux._entry_one_moves(alpha, sigma)}
            for cell in removable_nodes(alpha, sigma):
                ahat, bsig = smaller[cell.row]
                if ahat:
                    assert is_compatible(ahat, bsig)
                    assert is_sigma_simple(ahat, bsig), (alpha, sigma, cell)


def test_removable_iff_gap_conditions_when_simple():
    # restatement of the two-sided characterisation for simple pairs
    for n in range(1, 8):
        for alpha, sigma in all_pairs(n):
            if not is_compatible(alpha, sigma) or not is_sigma_simple(alpha, sigma):
                continue
            removable_rows = {c.row for c in removable_nodes(alpha, sigma)}
            for j in range(1, len(alpha) + 1):
                if sigma[j - 1] == 1:
                    assert j in removable_rows
                    continue
                cond_i = all(
                    alpha[i - 1] <= alpha[j - 1] - 2
                    for i in range(1, j)
                    if sigma[i - 1] < sigma[j - 1]
                )
                cond_ii = all(
                    alpha[i - 1] != alpha[j - 1]
                    for i in range(j + 1, len(alpha) + 1)
                    if sigma[i - 1] < sigma[j - 1]
                )
                assert (j in removable_rows) == (cond_i and cond_ii), (alpha, sigma, j)


def test_source_has_entry_one_in_first_type_row_when_simple():
    for n in range(1, 7):
        for alpha, sigma in all_pairs(n):
            if not is_compatible(alpha, sigma) or not is_sigma_simple(alpha, sigma):
                continue
            r = P.inverse(sigma)[0]
            for t in enumerate_spct(alpha, sigma):
                if classify(t) in ("source", "both"):
                    assert t.pos(1) == (r, alpha[r - 1])


# ---------------------------------------------------------------------------
# canonical and hatted sources


def test_canonical_source_examples():
    assert canonical_source_tableau((1, 3, 2, 4), (1, 3, 2, 4)).rows == (
        (1,),
        (6, 5, 4),
        (3, 2),
        (10, 9, 8, 7),
    )
    assert canonical_source_tableau((2, 4, 4, 2, 3), (2, 4, 3, 1, 5)).rows == (
        (4, 3),
        (12, 11, 10, 9),
        (8, 7, 6, 5),
        (2, 1),
        (15, 14, 13),
    )
    assert canonical_source_tableau((2, 1), (2, 1)).rows == ((3, 2), (1,))


def test_canonical_source_is_a_source_in_its_class():
    for n in range(1, 7):
        for alpha, sigma in all_pairs(n):
            if not is_compatible(alpha, sigma):
                continue
            tc = canonical_source_tableau(alpha, sigma)
            assert classify(tc) in ("source", "both")
            assert modules.canonical_submodule(alpha, sigma)[0].source == tc


def test_hatted_source_examples():
    h = hatted_source_tableau((1, 3, 2, 4), (1, 3, 2, 4))
    assert h.rows == ((2,), (7, 6, 5), (4, 3), (10, 9, 8, 1))
    assert not h.valid  # row-decrease fails at the appended box

    h = hatted_source_tableau((2, 2), (1, 2))
    assert h.rows == ((3, 2), (4, 1)) and h.valid
    assert classify(h.spct) in ("source", "both")

    with pytest.raises(ValueError):
        hatted_source_tableau((2, 1), (1, 2))  # last-type row has one box


def test_hatted_restricted_assembly_matches_worked_example():
    # restrict to the rows whose type values sit between the obstruction
    # pair's, run the hatted construction there, shift, and re-embed
    h = hatted_source_tableau((4, 4, 3), (2, 1, 3))
    assert h.valid
    shifted = [tuple(v + 4 for v in row) for row in h.rows]
    rows = ((4, 3), shifted[0], shifted[1], (2, 1), shifted[2])
    assert rows == ((4, 3), (13, 12, 11, 10), (9, 8, 7, 6), (2, 1), (15, 14, 5))
    assert is_valid_spct_rows(rows, (2, 4, 3, 1, 5))
    assert classify(Spct(rows)) == "source"


def test_source_ribbon_tableau():
    t = source_ribbon_tableau((2, 1))
    assert t.rows == ((1, 3), (2,))
    t = source_ribbon_tableau((1, 3, 2))
    # columns, left to right, are consecutive blocks increasing downward
    for c in range(1, t.num_columns() + 1):
        col = t.column(c)
        assert col == sorted(col)
    flat = [v for c in range(1, t.num_columns() + 1) for v in t.column(c)]
    assert flat == list(range(1, t.n + 1))
