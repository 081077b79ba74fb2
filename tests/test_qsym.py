import itertools

import pytest

from case_oracle import descent_triples
from dense_oracle import det, inverse
from spcthecke import permutations as P
from spcthecke import qsym, verify
from spcthecke.compositions import BoundExceeded, bubble_fiber_word, compositions, partitions
from spcthecke.qsym import (
    QSymElt,
    bn_basis,
    ch_spct,
    composition_order,
    f_matrix_unimodular,
    f_to_qs,
    min_rearrangement_length,
    qs_to_f,
    qschur,
    qschur_expansion,
    recursion_check,
    schur_oracle,
    z_basis_certificate,
)


def test_qschur_examples():
    assert qschur((1, 2)).terms == {(1, 2): 1}
    assert qschur((2, 1)).terms == {(2, 1): 1}
    assert qschur((5,)).terms == {(5,): 1}


def test_schur_oracle_examples():
    assert schur_oracle((4,)).terms == {(4,): 1}
    assert schur_oracle((1, 1, 1)).terms == {(1, 1, 1): 1}
    assert schur_oracle((2, 1)).terms == {(1, 2): 1, (2, 1): 1}
    with pytest.raises(ValueError):
        schur_oracle((1, 2))


def test_ch_spct_examples():
    assert ch_spct((2, 1), (2, 1)).terms == {(1, 2): 1, (2, 1): 1}
    assert ch_spct((1, 2), (2, 1)).is_zero()
    assert ch_spct((4,), (1,)).terms == {(4,): 1}


def test_qschur_expansion_examples():
    e = qschur_expansion((2, 1), (2, 1))
    assert e.terms == {(2, 1): 1, (1, 2): 1}
    assert qs_to_f(e) == schur_oracle((2, 1))
    assert qschur_expansion((2, 2), (1, 2)).terms == {(2, 2): 1}
    assert qschur_expansion((1, 1, 1, 1), (4, 2, 3, 1)).terms == {(1, 1, 1, 1): 1}


def test_expansion_is_multiplicity_free_and_matches_ch():
    for n in range(1, 7):
        for alpha in compositions(n):
            for sigma in P.all_perms(len(alpha)):
                e = qschur_expansion(alpha, sigma)
                assert all(c == 1 for c in e.terms.values())
                assert qs_to_f(e) == ch_spct(alpha, sigma)


def test_recursion_examples():
    assert recursion_check((2, 1), (2, 1), 1)
    assert recursion_check((1, 1), (2, 1), 1)
    assert recursion_check((3, 2, 2), (3, 2, 1), 1)
    with pytest.raises(ValueError):
        recursion_check((2, 1), (1, 2), 1)  # type does not descend


def test_recursion_sums_the_fiber_at_the_shortened_type(monkeypatch):
    # with the unshortened type the two sides agree trivially, so the
    # verdicts alone cannot show which type the right side reads
    read = []
    descent_counts = qsym._descent_counts
    monkeypatch.setattr(qsym, "_descent_counts", lambda a, s: read.append((a, s)) or descent_counts(a, s))
    for n in range(2, 6):
        for alpha, sigma, i in descent_triples(n):
            read.clear()
            assert recursion_check(alpha, sigma, i)
            fiber = bubble_fiber_word(alpha, (i,))
            assert sorted(read) == sorted([(alpha, sigma)] + [(b, P.times_s(sigma, i)) for b in fiber])


def test_descent_counts_are_read_once_per_pair_and_copied_out():
    qsym._descent_counts.cache_clear()
    pairs = set()
    for alpha, sigma, i in descent_triples(5):
        assert qsym._recursion_holds(alpha, sigma, i)
        pairs |= {(alpha, sigma)} | {(b, P.times_s(sigma, i)) for b in bubble_fiber_word(alpha, (i,))}
    assert qsym._descent_counts.cache_info().misses == len(pairs)
    with pytest.raises(TypeError):
        qsym._descent_counts((2, 1), (2, 1))[(3,)] = 1
    terms = ch_spct((2, 1), (2, 1)).terms
    terms[(3,)] = 7
    terms.pop((1, 2), None)
    assert ch_spct((2, 1), (2, 1)).terms == {(1, 2): 1, (2, 1): 1}
    qschur((2, 1)).terms.clear()
    assert qschur((2, 1)).terms == {(2, 1): 1}


def test_schur_specialisation():
    for n in range(1, 8):
        for lam in partitions(n):
            w0 = P.longest_element(len(lam))
            assert ch_spct(lam, w0) == schur_oracle(lam)
            assert len(qschur_expansion(lam, w0).terms) >= 1


def test_conversions_round_trip():
    for n in range(1, 7):
        assert f_matrix_unimodular(n)
        for alpha in compositions(n):
            single = QSymElt(n, "QS", {alpha: 1})
            assert f_to_qs(qs_to_f(single)) == single


def test_qs_family_unimodular_degree_seven():
    # prerequisite for degree-7 conversions, one past the acceptance bound
    assert f_matrix_unimodular(7)


def test_transition_inverse_against_dense_oracle():
    for n in range(1, 8):
        mat, inv = qsym._transitions(n)
        assert [list(row) for row in inv] == inverse(mat), n


def test_non_triangular_transition_is_a_witness(monkeypatch):
    # an F term above the diagonal: S[1,1,1] picks up F[3], which sorts first
    real = qsym.qschur

    def skewed(beta):
        elt = real(beta)
        return elt + QSymElt(3, "F", {(3,): 1}) if beta == (1, 1, 1) else elt

    monkeypatch.setattr(qsym, "qschur", skewed)
    qsym._qs_to_f_matrix.cache_clear()
    qsym._transitions.cache_clear()
    try:
        assert not f_matrix_unimodular(3)
        with pytest.raises(RuntimeError):
            f_to_qs(QSymElt(3, "F", {(3,): 1}))
        assert verify._case_basis(3) == [{"n": 3, "error": "QS -> F matrix not lower unitriangular"}]
    finally:
        qsym._qs_to_f_matrix.cache_clear()
        qsym._transitions.cache_clear()


def _min_rearrangement_length_scan(lam, beta):
    """Slow oracle: the shortest g in S_l with lam . g == beta, by scanning S_l."""
    return min(P.length(g) for g in P.all_perms(len(lam)) if P.compose_right_action(lam, g) == beta)


def test_min_rearrangement_length_against_scan():
    for n in range(1, 8):
        for lam in partitions(n):
            for beta in set(itertools.permutations(lam)):
                assert min_rearrangement_length(lam, beta) == _min_rearrangement_length_scan(lam, beta)
    with pytest.raises(ValueError):
        min_rearrangement_length((2, 1), (1, 1, 1))


def test_basis_examples():
    b1 = bn_basis(1)
    assert len(b1) == 1 and b1[0].expansion.terms == {(1,): 1}
    assert len(bn_basis(2)) == 2
    assert len(bn_basis(4)) == 8


def test_certificates():
    for n in range(1, 7):
        rep = z_basis_certificate(n)
        assert rep["ok"], rep
        assert rep["det"] in (1, -1)
        assert rep["size"] == 2 ** (n - 1)


def test_certificate_det_against_dense_oracle():
    for n in range(1, 7):
        order = composition_order(n)
        pos = {a: k for k, a in enumerate(order)}
        rows = []
        for el in sorted(bn_basis(n), key=lambda e: pos[e.leading]):  # as the certificate orders them
            row = [0] * len(order)
            for beta, c in el.expansion.terms.items():
                row[pos[beta]] = c
            rows.append(row)
        assert z_basis_certificate(n)["det"] == det(rows), n


@pytest.mark.parametrize(
    "extra, det_",
    [
        ({(1, 1): 1}, 2),  # diagonal entry 2: the product of the diagonal
        ({(2,): 1}, None),  # below the diagonal: (1,1) sorts after (2,)
    ],
)
def test_certificate_with_a_skewed_row(monkeypatch, extra, det_):
    real = qsym.qschur_expansion

    def skewed(alpha, sigma):
        elt = real(alpha, sigma)
        return elt + QSymElt(2, "QS", extra) if tuple(alpha) == (1, 1) else elt

    monkeypatch.setattr(qsym, "qschur_expansion", skewed)
    rep = z_basis_certificate(2)
    assert rep["det"] == det_ and not rep["unimodular"] and not rep["ok"]


def test_composition_order_deterministic():
    assert composition_order(3) == ((3,), (1, 2), (2, 1), (1, 1, 1))


def test_elt_arithmetic_and_json():
    a = QSymElt(3, "F", {(1, 2): 1})
    b = QSymElt(3, "F", {(1, 2): 1, (3,): 2})
    assert (a + b).terms == {(1, 2): 2, (3,): 2}
    assert (b - a).terms == {(3,): 2}
    assert b.to_json() == {
        "degree": 3,
        "basis": "F",
        "terms": [
            {"composition": [1, 2], "coeff": 1},
            {"composition": [3], "coeff": 2},
        ],
    }
    with pytest.raises(ValueError):
        QSymElt(3, "F", {(1, 1): 1})
    with pytest.raises(ValueError):
        a + QSymElt(3, "QS", {(1, 2): 1})


def test_bound_guard():
    with pytest.raises(BoundExceeded):
        schur_oracle((6, 5))
