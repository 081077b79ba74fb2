from collections import deque

import pytest

from dense_oracle import rref
from spcthecke import permutations as P
from spcthecke.compositions import compositions, complement_of, partitions, sorted_parts
from spcthecke import maps
from spcthecke.modules import canonical_submodule
from spcthecke.maps import (
    iota_map,
    omega_set,
    phi,
    prc_phi_for_target,
    prc_phi_map,
    psi,
    rho,
    ribbon_to_spct,
    spct_to_ribbon,
    star_distances,
    tau_of_ribbon,
)
from spcthecke.tableaux import (
    Spct,
    Srt,
    canonical_source_tableau,
    descent_set,
    enumerate_spct,
    enumerate_srt,
    is_compatible,
    is_valid_spct_rows,
    source_ribbon_tableau,
)


# ---------------------------------------------------------------------------
# the column sort and its inverse


def _as_constructed(u):
    """The filling's fields against the validating constructor's on its rows."""
    v = Spct(u.rows)
    return (u.rows, u.shape, u.n, u._pos) == (v.rows, v.shape, v.n, v._pos)


def test_trusted_psi_matches_the_public_one():
    # each tableau toward its own type and every type one swap away
    for n in range(1, 7):
        for alpha in compositions(n):
            for sigma in P.all_perms(len(alpha)):
                types = [sigma] + [P.times_s(sigma, i) for i in range(1, len(alpha))]
                for t in enumerate_spct(alpha, sigma):
                    for s2 in types:
                        u, v = maps._psi(t, s2), psi(t, s2)
                        assert (u.rows, u.shape, u._pos) == (v.rows, v.shape, v._pos), (t, s2)


def test_trusted_map_output_is_what_the_constructor_builds():
    # rho and phi skip the constructor.  rho is checked on every tableau
    # with n <= 6, psi on each sent to the identity type, and phi on every
    # partition-shape tableau of reversing type sent to every type of its
    # length, which lists every tableau once
    for n in range(1, 7):
        for alpha in compositions(n):
            identity = P.identity(len(alpha))
            w0 = P.longest_element(len(alpha))
            for sigma in P.all_perms(len(alpha)):
                for t in enumerate_spct(alpha, sigma):
                    r = rho(t)
                    assert _as_constructed(r) and is_valid_spct_rows(r.rows, w0), t
                    u = psi(t, identity)
                    assert _as_constructed(u) and is_valid_spct_rows(u.rows, identity), t
        for lam in partitions(n):
            w0 = P.longest_element(len(lam))
            for r in enumerate_spct(lam, w0):
                for sigma in P.all_perms(len(lam)):
                    u = phi(r, sigma)
                    assert _as_constructed(u) and is_valid_spct_rows(u.rows, sigma), (r, sigma)
                    assert rho(u) == r


def test_worked_triple():
    t = Spct([[5, 2], [7, 6, 4], [3, 1]])
    assert t.sigma == (2, 3, 1)
    r = rho(t)
    assert r.rows == ((7, 6, 4), (5, 2), (3, 1))
    assert r.shape == (3, 2, 2) and r.sigma == (3, 2, 1)
    out = psi(t, (1, 2, 3))
    assert out.rows == ((3, 2), (5, 1), (7, 6, 4))
    assert out.shape == (2, 2, 3) and out.sigma == (1, 2, 3)
    # round trips
    assert phi(r, (2, 3, 1)) == t
    assert psi(t, (2, 3, 1)) == t
    assert psi(out, (2, 3, 1)) == t


def test_rho_fixes_sorted_inputs():
    t = canonical_source_tableau((3, 2), (2, 1))
    assert rho(t) == t
    single = Spct([[4, 3, 2, 1]])
    assert rho(single) == single
    assert phi(single, (1,)) == single


def test_phi_rejects_partition_shape_violation():
    with pytest.raises(ValueError):
        phi(Spct([[2], [3, 1]]), (1, 2))  # shape (1, 2) is not a partition


def test_psi_image_identity_small():
    # one-step image: both shapes in the operator fiber appear, nothing else
    shorter = (1, 2)
    image = {psi(t, shorter) for t in enumerate_spct((2, 1), (2, 1))}
    expected = set(enumerate_spct((2, 1), shorter)) | set(enumerate_spct((1, 2), shorter))
    assert image == expected
    assert len(image) == 2 == 1 + 1


def test_psi_preserves_descents_exhaustive():
    for n in range(1, 6):
        for lam in partitions(n):
            for s1 in P.all_perms(len(lam)):
                for s2 in P.all_perms(len(lam)):
                    for alpha in compositions(n):
                        if sorted_parts(alpha) != lam:
                            continue
                        for t in enumerate_spct(alpha, s1):
                            assert descent_set(psi(t, s2)) == descent_set(t)


# ---------------------------------------------------------------------------
# ribbon transpose


def test_ribbon_transpose_worked_examples():
    sigma = (2, 3, 1, 4)
    T1 = Srt([[1, 3], [2, 8], [7], [6], [5], [4, 10], [9]])
    T2 = Srt([[1, 3], [2, 9], [8], [7], [6], [5, 10], [4]])
    T3 = Srt([[2, 6], [1, 10], [8], [7], [5], [4, 9], [3]])
    assert tau_of_ribbon(T1, sigma) == ((3, 2), (8, 7, 6, 5, 4), (1,), (10, 9))
    assert ribbon_to_spct(T1, sigma) is not None
    assert tau_of_ribbon(T2, sigma) == ((3, 2), (9, 8, 7, 6, 5), (1,), (10, 4))
    assert ribbon_to_spct(T2, sigma) is not None
    assert ribbon_to_spct(T3, sigma) is None  # triple condition fails
    assert maps._omega_member(T3, sigma)


def test_source_ribbon_maps_to_canonical_source():
    for n in range(1, 7):
        for alpha in compositions(n):
            for sigma in P.all_perms(len(complement_of(alpha))):
                beta = P.compose_right_action(complement_of(alpha), sigma)
                t = ribbon_to_spct(source_ribbon_tableau(alpha), sigma)
                if is_compatible(beta, sigma):
                    assert t == canonical_source_tableau(beta, sigma)
                else:
                    assert t is None


def test_spct_to_ribbon_inverts_transpose():
    for n in range(1, 7):
        for alpha in compositions(n):
            for sigma in P.all_perms(len(complement_of(alpha))):
                for T in enumerate_srt(alpha):
                    t = ribbon_to_spct(T, sigma)
                    if t is not None:
                        u = spct_to_ribbon(t, sigma)
                        assert u == T and all(u.pos(v) == T.pos(v) for v in range(1, n + 1))


def test_omega_examples():
    sigma = (2, 3, 1, 4)
    T0 = source_ribbon_tableau((2, 2, 1, 1, 1, 2, 1))
    assert not maps._omega_member(T0, sigma)
    assert omega_set((4,), (1, 2, 3, 4)) == []


def test_omega_set_checks_the_type_degree():
    # the type must have one entry per ribbon column, as for the transpose
    for alpha, sigma in [((2, 1), (1, 2, 3)), ((1, 1), (1, 2)), ((2, 1), (1,))]:
        m = len(complement_of(alpha))
        with pytest.raises(ValueError, match=f"type degree {len(sigma)} != number of ribbon columns {m}"):
            omega_set(alpha, sigma)


def _compatible_pairs(max_n):
    """Every (alpha, sigma) whose transposed target pair is compatible."""
    for n in range(1, max_n + 1):
        for alpha in compositions(n):
            for sigma in P.all_perms(len(complement_of(alpha))):
                if is_compatible(P.compose_right_action(complement_of(alpha), sigma), sigma):
                    yield alpha, sigma


def _oracle_matrix(alpha, sigma):
    """The projected transpose through the validating transpose, densely."""
    ts = enumerate_srt(alpha)
    _, tgt = canonical_submodule(P.compose_right_action(complement_of(alpha), sigma), sigma)
    rows = [[0] * len(ts) for _ in range(tgt.dim)]
    for j, T in enumerate(ts):
        t = ribbon_to_spct(T, sigma)
        if t is not None and t in tgt:
            rows[tgt.index(t)][j] = 1
    return rows


def _oracle_report(res, alpha, sigma):
    """The certificate by dense Gauss-Jordan (shares no code with `linalg`):
    the rank against the target's dimension, and the kernel's span
    against that of the tableaux `_omega_member` accepts."""
    src, tgt, mat = res.linmap.source, res.linmap.target, res.linmap.matrix
    dense = mat.to_dense()
    red = rref(dense, src.dim)
    pivots = [next(k for k, x in enumerate(row) if x) for row in red]
    kernel = []
    for free in range(src.dim):
        if free not in pivots:
            v = [0] * src.dim
            v[free] = 1
            for p, row in zip(pivots, red):
                v[p] = -row[free]
            kernel.append(v)
    omega = [j for j, T in enumerate(src.basis) if maps._omega_member(T, sigma)]
    units = [[int(k == j) for k in range(src.dim)] for j in omega]
    return {
        "intertwines": all(mat * src.gen(i) == tgt.gen(i) * mat for i in range(1, src.n)),
        "surjective": len(red) == tgt.dim,
        "kernel_matches_omega": rref(kernel, src.dim) == rref(units, src.dim),
        "omega_size": len(omega),
        "target_dim": tgt.dim,
    }


def test_prc_phi_map_against_elimination_oracle():
    # every compatible pair with n <= 6: the matrix, and the certificate by elimination
    count = 0
    for alpha, sigma in _compatible_pairs(6):
        res = prc_phi_map(alpha, sigma)
        assert res.linmap.matrix.to_dense() == _oracle_matrix(alpha, sigma), (alpha, sigma)
        assert res.to_json() == _oracle_report(res, alpha, sigma), (alpha, sigma)
        assert res.ok, (alpha, sigma)
        count += 1
    assert count == 1402


def test_prc_phi_kernel_needs_an_injective_map(monkeypatch):
    # a transpose sending two tableaux to one member puts their difference
    # in the kernel, outside span Omega, though no killed position moves
    alpha, sigma = (1, 2, 1), (2, 1)
    honest = maps._tau
    res = prc_phi_map(alpha, sigma)
    mapped = sorted({j for (_, j) in res.linmap.matrix.data})
    assert len(mapped) >= 2
    first, second = (res.linmap.source.basis[j] for j in mapped[:2])
    monkeypatch.setattr(maps, "_tau", lambda T, s: honest(first if T == second else T, s))
    res = prc_phi_map(alpha, sigma)
    oracle = _oracle_report(res, alpha, sigma)
    assert res.to_json() == oracle
    assert not oracle["kernel_matches_omega"] and not oracle["surjective"]


def test_prc_phi_examples():
    res = prc_phi_map((1, 1), (1,))
    assert res.ok and res.target_dim == 1 and not res.linmap.matrix.is_zero()
    for sigma in P.all_perms(2):
        if is_compatible((2, 2), sigma):
            res = prc_phi_for_target((2, 2), sigma)
            assert res.ok
    with pytest.raises(ValueError):
        prc_phi_map((1, 2), (2, 1))  # incompatible target


def test_transpose_is_zero_for_incompatible_targets():
    for n in range(1, 6):
        for alpha in compositions(n):
            for sigma in P.all_perms(len(complement_of(alpha))):
                beta = P.compose_right_action(complement_of(alpha), sigma)
                if is_compatible(beta, sigma):
                    continue
                assert all(ribbon_to_spct(T, sigma) is None for T in enumerate_srt(alpha))


# ---------------------------------------------------------------------------
# the sign isomorphism


def test_iota_signs():
    t0 = source_ribbon_tableau((2, 1))
    dist = star_distances((2, 1))
    assert dist[t0] % 2 == 0
    assert dist[t0.swap_values(1)] % 2 == 1


def test_iota_conjugates_variants():
    lm = iota_map((2, 1))
    assert lm.intertwines
    theta_mod = lm.source
    star_mod = lm.target
    inv = lm.matrix  # diagonal signs are their own inverse
    for i in range(1, 3):
        assert lm.matrix * theta_mod.gen(i) == star_mod.gen(i) * lm.matrix
        assert inv * star_mod.gen(i) * inv == theta_mod.gen(i)


def _star_distances_by_swaps(alpha):
    """BFS over the tableaux themselves: swap i and i + 1 when i + 1 lies higher."""
    t0 = source_ribbon_tableau(alpha)
    dist = {t0: 0}
    queue = deque([t0])
    while queue:
        t = queue.popleft()
        for i in range(1, t.n):
            if t.row_of(i) < t.row_of(i + 1):
                u = t.swap_values(i)
                if u not in dist:
                    dist[u] = dist[t] + 1
                    queue.append(u)
    return dist


def test_star_distances_match_the_swap_walk():
    for n in range(1, 8):
        for alpha in compositions(n):
            assert star_distances(alpha) == _star_distances_by_swaps(alpha), alpha


def test_star_distances_cover_all():
    for alpha in [(3,), (2, 2), (1, 2, 1), (2, 1, 1)]:
        dist = star_distances(alpha)
        assert set(dist) == set(enumerate_srt(alpha))
        assert dist[source_ribbon_tableau(alpha)] == 0


# ---------------------------------------------------------------------------
# column propagation of the one-step type change


def test_one_step_column_propagation():
    """Per column, the one-step type change acts row-locally.

    For a type descending at i, each column of the image either equals the
    input column or differs by swapping the entries in rows i and i+1; and
    once some column is left unchanged, all later columns are too.
    """
    for n in range(1, 7):
        for alpha in compositions(n):
            for sigma in P.all_perms(len(alpha)):
                for i in range(1, len(alpha)):
                    if sigma[i - 1] < sigma[i]:
                        continue
                    shorter = P.times_s(sigma, i)
                    p = min(alpha[i - 1], alpha[i])
                    for t in enumerate_spct(alpha, sigma):
                        u = psi(t, shorter)
                        stabilised = False
                        for c in range(1, max(t.num_columns(), u.num_columns()) + 1):
                            tc, uc = t.column(c), u.column(c)
                            assert sorted(tc) == sorted(uc), "column contents moved"
                            if tc == uc:
                                stabilised = True
                                continue
                            # a change must swap the two acted-on rows, which
                            # both own this column, at their list positions
                            assert c <= p and not stabilised, (alpha, sigma, i, t.rows, c)
                            pos = sum(1 for r in range(i - 1) if alpha[r] >= c)
                            swapped = list(tc)
                            swapped[pos], swapped[pos + 1] = swapped[pos + 1], swapped[pos]
                            assert swapped == uc, (alpha, sigma, i, t.rows, c)


def test_column_sort_bijection_counts_n7():
    # both-sides exhaustion one size past the acceptance bound
    n = 7
    for lam in partitions(n):
        w0 = P.longest_element(len(lam))
        target = set(enumerate_spct(lam, w0))
        for sigma in P.all_perms(len(lam)):
            images = set()
            total = 0
            for alpha in compositions(n):
                if sorted_parts(alpha) != lam:
                    continue
                ts = enumerate_spct(alpha, sigma)
                total += len(ts)
                images.update(rho(t) for t in ts)
            assert total == len(target)
            assert images == target
