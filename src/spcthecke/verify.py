"""The claim table: one exhaustive property suite per claim id.

Every acceptance-level statement the package asserts about itself is a row
of `CLAIMS`, keyed by a stable claim id::

    claim id -> (description, default max_n, cases(max_n), check(case))

`cases` lists every case up to the size cap and `check` returns the
failures of one case.  Checks that run once per degree or once per claim
are tagged cases like the rest.  `run_claim` maps the checker over the
cases, in a process pool when asked, and returns a JSON-friendly report::

    {"claim": ..., "parameters": {...}, "status": "pass"|"fail",
     "cases": <int>, "witness": <first failures, if any>}

Checkers are module-level and take picklable arguments, and failures are
sorted by case key, so the report is identical for any worker count.
Cases hold normalised shapes and types, so checkers call the cores behind
the validating public functions (`tableaux._enumerate_spct`, `maps._psi`
and others).

lem-2.7 reads each tableau once (`tableaux._read_classes`): each class
has one source and one sink, every swap from a member lands on a member,
looked up by its swapped positions, and the swaps join the class.  So no
component leaves a class and no class holds two components: the classes
are the components of the action graph.

Three claims read one invariant of a module on tableaux: thm-3.1
`modules.is_indecomposable` of each class submodule, factors-vs-descents
`modules.composition_factors` of each whole tableau module, and cor-5.6
`hecke.is_projective` of each canonical class submodule.  Each keys its
tableaux on n, their step ids and their swap targets (`_tableau_key`),
read before any module is built.  The key fixes the module's columns
exactly, so equal keys have one value, and a module is built and the
invariant computed only for an (invariant, key) the process has not seen
(`_invariant`); most pairs share the key of one seen before.  No module
leaves the claim.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from typing import Callable, Sequence

from .compositions import (
    BoundExceeded,
    Composition,
    _bubble_fiber_word,
    comp_of,
    compositions,
    is_partition,
    partitions,
    reverse_of,
    sorted_parts,
)
from .linalg import rank_of
from . import hecke
from . import maps
from . import modules
from . import permutations as perms
from . import qsym
from . import tableaux

#: largest n for the module-level checks of thm-3.15 and cor-3.18
_MODULE_MAX_N = 6


def _upto(max_n: int, per_degree: Callable[[int], Sequence]) -> list:
    """The cases of every degree from 1 through max_n, smaller first."""
    return [case for n in range(1, max_n + 1) for case in per_degree(n)]


def _upto_algebra(max_n: int, per_degree: Callable[[int], Sequence]) -> list:
    """`_upto` for claims that build algebra modules, refusing a max_n
    above the algebra bound before any case is listed or run."""
    hecke._check_algebra_bound(max_n)
    return _upto(max_n, per_degree)


def _all_pairs(n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Every (shape, type) pair in one degree."""
    out = []
    for alpha in compositions(n):
        for sigma in perms.all_perms(len(alpha)):
            out.append((alpha, sigma))
    return out


def _compatible_pairs(n: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    return [(a, s) for a, s in _all_pairs(n) if tableaux._compatible(a, s)]


def _subsets(n: int) -> list[tuple[int, tuple[int, ...]]]:
    """(n, subset) for every subset of [1, n-1], smaller subsets first."""
    return [(n, sub) for r in range(n) for sub in itertools.combinations(range(1, n), r)]


def _descent_triples(n: int) -> list[tuple[tuple[int, ...], tuple[int, ...], int]]:
    """(shape, type, i) for every descent i of the type, over all pairs."""
    return [
        (alpha, sigma, i)
        for alpha, sigma in _all_pairs(n)
        for i in range(1, len(alpha))
        if sigma[i - 1] > sigma[i]
    ]


def _run_cases(cases: Sequence, fn: Callable, jobs: int) -> list:
    """Map fn over cases, in a pool of `jobs` processes when jobs > 1.

    Case lists come smaller degree first, and a case costs more the larger
    its degree, so the pool walks them backwards: a free worker takes the
    next chunk of about len(cases) / (16 * jobs) cases, largest degree
    first, and the small chunks at the end even out the finish.  Results
    come back in case order.
    """
    if jobs > 1 and len(cases) > 1:
        import multiprocessing

        with multiprocessing.Pool(jobs) as pool:
            out = pool.map(fn, cases[::-1], chunksize=max(1, len(cases) // (16 * jobs)))
        return out[::-1]
    return [fn(c) for c in cases]


def _report(claim: str, params: dict, failures: list, cases: int) -> dict:
    failures = sorted(failures, key=repr)
    return {
        "claim": claim,
        "parameters": params,
        "status": "pass" if not failures else "fail",
        "cases": cases,
        "witness": failures[:10],
    }


# ---------------------------------------------------------------------------
# invariants of tableau modules, once per key


#: each invariant a claim has computed, by the invariant and `_tableau_key`
_INVARIANTS: dict[tuple, object] = {}


def _tableau_key(n: int, members: Sequence[tableaux.Spct], sids: tuple[int, ...]) -> tuple:
    """n, some tableaux's step ids and their swap targets (`tableaux._swap_targets`).

    They fix the columns of the module on those tableaux exactly: member
    j's column under pi_i is itself, zero or its next swap target, as its
    i-th step says.
    """
    return n, sids, tableaux._swap_targets(members, sids)


def _invariant(fn: Callable, n: int, members: Sequence[tableaux.Spct], sids: tuple[int, ...]):
    """fn of the module on some tableaux of degree n (a class or a pair's
    whole set), with their step ids, built only for an fn and a key
    (`_tableau_key`) not seen before.

    fn must read only the module's degree and columns, and the caller
    passes it as it is found at call time, so a replaced function gets its
    own entries.  The stored value is handed out as it is, and callers
    only read it.  A swap that leaves the tableaux raises `ValueError`,
    and nothing is stored.
    """
    key = (fn, *_tableau_key(n, members, sids))
    out = _INVARIANTS.get(key)
    if out is None:
        cols = modules._tableau_columns(n, sids, key[-1])
        out = _INVARIANTS[key] = fn(modules.HModule._trusted(n, members, cols, ""))
    return out


# ---------------------------------------------------------------------------
# criterion 1: generator relations on every module


def _relation_modules(n: int) -> list:
    cases = [("spct", p) for p in _compatible_pairs(n)]
    cases += [("ribbon", (a, v)) for a in compositions(n) for v in modules.RIBBON_VARIANTS]
    cases.append(("regular", n))
    return cases + [("pim", p) for p in _subsets(n)]


def _case_relations(case) -> list:
    kind, payload = case
    if kind == "spct":
        mod = modules.spct_module(*payload)
    elif kind == "ribbon":
        mod = modules.ribbon_module(*payload)
    elif kind == "regular":
        mod = hecke.regular_module(payload)
    else:
        n, subset = payload
        mod = hecke.pim_module(n, frozenset(subset))
    return [] if modules.check_relations(mod).ok else [{"module": mod.name}]


# ---------------------------------------------------------------------------
# criterion 2: nonemptiness == compatibility


def _case_compat(case) -> list:
    # the pair comes from `_all_pairs`, so neither side re-validates it
    alpha, sigma = case
    nonempty = tableaux._spct_exists(alpha, sigma)
    if nonempty != tableaux._compatible(alpha, sigma):
        return [{"alpha": alpha, "sigma": sigma, "nonempty": nonempty}]
    return []


# ---------------------------------------------------------------------------
# criterion 3: classes have one source and one sink and are the components


def _case_classes(case) -> list:
    alpha, sigma = case
    try:
        read = tableaux._read_classes(tableaux._grouped(tableaux._enumerate_spct(alpha, sigma)))
    except RuntimeError as exc:  # source/sink uniqueness violated
        return [{"alpha": alpha, "sigma": sigma, "error": str(exc)}]
    if not all(_is_component(cls.members, sids) for cls, sids in read):
        return [{"alpha": alpha, "sigma": sigma, "error": "classes != components"}]
    return []


def _is_component(members: Sequence[tableaux.Spct], sids: Sequence[int]) -> bool:
    """Whether a class of a pair's tableaux is a component of its action
    graph, from its members' step ids (`tableaux._step_id`).

    Every swap must land in the class, so no component leaves it, and the
    swaps must join its members, so no class holds two components.  Each
    swap's target is found by its swapped positions
    (`tableaux._swap_targets`), so no tableau is built or hashed per edge.
    A lone member is a component exactly when it is a sink: it has no swap.
    """
    if len(members) == 1:
        return tableaux._SINK[sids[0]]
    targets = iter(tableaux._swap_targets(members, sids))
    adj: list[list[int]] = [[] for _ in members]
    for j, sid in enumerate(sids):
        for _ in range(tableaux._STEPS[sid].count(tableaux._SWAP)):
            k = next(targets)
            if k is None:
                return False
            adj[j].append(k)
            adj[k].append(j)
    seen, stack = {0}, [0]
    while stack:
        for k in adj[stack.pop()]:
            if k not in seen:
                seen.add(k)
                stack.append(k)
    return len(seen) == len(members)


# ---------------------------------------------------------------------------
# criterion 4: unique source / cyclicity / longest-element special case


def _simplicity_cases(max_n: int) -> list:
    pairs = [
        ("pair", (a, s, n <= _MODULE_MAX_N)) for n in range(1, max_n + 1) for a, s in _compatible_pairs(n)
    ]
    return pairs + [("w0", alpha) for alpha in _upto(max_n, compositions)]


def _case_simplicity(case) -> list:
    kind, payload = case
    bad = []
    if kind == "w0":
        alpha = payload
        w0 = perms.longest_element(len(alpha))
        if tableaux._spct_exists(alpha, w0) != is_partition(alpha):
            bad.append({"alpha": alpha, "error": "w0 nonempty != partition"})
        if is_partition(alpha) and not tableaux._sigma_simple(alpha, w0):
            bad.append({"alpha": alpha, "error": "partition not w0-simple"})
        return bad
    alpha, sigma, module_level = payload
    ts = tableaux._enumerate_spct(alpha, sigma)
    sources = [t for t in ts if tableaux.classify(t) in ("source", "both")]
    simple = tableaux._sigma_simple(alpha, sigma)
    if (len(sources) == 1) != simple:
        bad.append({"alpha": alpha, "sigma": sigma, "sources": len(sources), "simple": simple})
    if simple and sources:
        if sources[0].rows != tableaux._canonical_rows(alpha, sigma):
            bad.append({"alpha": alpha, "sigma": sigma, "error": "unique source is not canonical"})
    if module_level:
        cyclic = modules.is_spct_cyclic(alpha, sigma)
        if cyclic != simple:
            bad.append({"alpha": alpha, "sigma": sigma, "cyclic": cyclic, "simple": simple})
    return bad


def _case_w0_classification(alpha) -> list:
    bad = []
    w0 = perms.longest_element(len(alpha))
    nonempty = tableaux._spct_exists(alpha, w0)
    if nonempty != is_partition(alpha):
        bad.append({"alpha": alpha, "nonempty": nonempty})
    if sum(alpha) <= _MODULE_MAX_N:
        cyclic = modules.is_spct_cyclic(alpha, w0)
        if cyclic != is_partition(alpha):
            bad.append({"alpha": alpha, "cyclic": cyclic})
    return bad


# ---------------------------------------------------------------------------
# criterion 5: local endomorphism rings of class submodules


def _case_indecomposable(case) -> list:
    alpha, sigma = case
    n = sum(alpha)
    bad = []
    for cls, sids in tableaux._read_classes(tableaux._grouped(tableaux._enumerate_spct(alpha, sigma))):
        cert = _invariant(modules.is_indecomposable, n, cls.members, sids)[1]
        if not cert.indecomposable:
            bad.append(
                {
                    "alpha": alpha,
                    "sigma": sigma,
                    "class": str(cls.label),
                    "end_dim": cert.end_dim,
                    "semisimple_rank": cert.semisimple_rank,
                }
            )
    return bad


# ---------------------------------------------------------------------------
# criterion 6: the column-sort bijection and the type-change image law


def _column_sort_pairs(n: int) -> list:
    return [(lam, sigma) for lam in partitions(n) for sigma in perms.all_perms(len(lam))]


@functools.lru_cache(maxsize=None)
def _compositions_by_sorted_parts(n: int) -> dict[Composition, tuple[Composition, ...]]:
    """The compositions of n grouped by their sorted parts, each group in
    `compositions` order."""
    groups: dict[Composition, list[Composition]] = {}
    for alpha in compositions(n):
        groups.setdefault(sorted_parts(alpha), []).append(alpha)
    return {lam: tuple(group) for lam, group in groups.items()}


def _case_column_sort(case) -> list:
    lam, sigma = case
    bad = []
    w0 = perms.longest_element(len(lam))
    union = []
    for alpha in _compositions_by_sorted_parts(sum(lam))[lam]:
        union.extend(tableaux._enumerate_spct(alpha, sigma))
    target = set(tableaux._enumerate_spct(lam, w0))
    images = set()
    for t in union:
        rt = maps.rho(t)
        if rt.shape != lam or rt.sigma != w0:
            bad.append({"lambda": lam, "sigma": sigma, "error": "image off target"})
            continue
        if tableaux.descent_set(rt) != tableaux.descent_set(t):
            bad.append({"lambda": lam, "sigma": sigma, "error": "descents moved"})
        if maps._phi(rt, sigma) != t:
            bad.append({"lambda": lam, "sigma": sigma, "error": "round trip failed"})
        images.add(rt)
    if len(images) != len(union) or images != target:
        bad.append({"lambda": lam, "sigma": sigma, "error": "not a bijection"})
    return bad


def _case_image_law(case) -> list:
    alpha, sigma, i = case
    bad = []
    shorter = perms._times_s(sigma, i)
    image = set()
    for t in tableaux._enumerate_spct(alpha, sigma):
        u = maps._psi(t, shorter)
        image.add(u)
        if tableaux.descent_set(u) != tableaux.descent_set(t):
            bad.append({"alpha": alpha, "sigma": sigma, "i": i, "error": "descents moved"})
    expected = set()
    for beta in _bubble_fiber_word(alpha, (i,)):
        expected.update(tableaux._enumerate_spct(beta, shorter))
    if image != expected:
        bad.append(
            {
                "alpha": alpha,
                "sigma": sigma,
                "i": i,
                "image": len(image),
                "expected": len(expected),
            }
        )
    return bad


# ---------------------------------------------------------------------------
# criterion 7: characteristic recursion and the Schur specialisation


def _case_recursion(case) -> list:
    # the case comes from `_descent_triples`, so the type descends at i
    alpha, sigma, i = case
    if not qsym._recursion_holds(alpha, sigma, i):
        return [{"alpha": alpha, "sigma": sigma, "i": i}]
    return []


def _case_schur(lam) -> list:
    bad = []
    w0 = perms.longest_element(len(lam))
    rhs = qsym.schur_oracle(lam)
    if qsym.ch_spct(lam, w0) != rhs:
        bad.append({"lambda": lam, "error": "characteristic != Schur"})
    count = len(tableaux._enumerate_spct(lam, w0))
    syt = sum(rhs.terms.values())
    if count != syt:
        bad.append({"lambda": lam, "count": count, "syt": syt})
    return bad


# ---------------------------------------------------------------------------
# criterion 8: the lattice-basis certificate


def _case_basis(n: int) -> list:
    bad = []
    if not qsym.f_matrix_unimodular(n):
        bad.append({"n": n, "error": "QS -> F matrix not lower unitriangular"})
    rep = qsym.z_basis_certificate(n)
    if not rep["ok"]:
        bad.append(rep)
    return bad


# ---------------------------------------------------------------------------
# criterion 9: sign conjugation, the projected transpose, and its kernel


def _section5_cases(n: int) -> list:
    return [("iota", a) for a in compositions(n)] + [("prc", p) for p in _compatible_pairs(n)]


def _case_section5(case) -> list:
    kind, payload = case
    bad = []
    if kind == "iota":
        alpha = payload
        lm = maps.iota_map(alpha)
        if not lm.intertwines:
            bad.append({"alpha": alpha, "error": "sign map fails to intertwine"})
    else:
        beta, sigma = payload
        res = maps.prc_phi_for_target(beta, sigma)
        if not res.ok:
            bad.append({"beta": beta, "sigma": sigma, "report": res.to_json()})
    return bad


# ---------------------------------------------------------------------------
# criterion 10: projectivity classification of canonical submodules


def _canonical_projectivity_expected(alpha, sigma) -> bool:
    if all(p == 1 for p in alpha):
        return True
    return (
        len(alpha) >= 1
        and alpha[0] >= 2
        and all(p == 1 for p in alpha[1:])
        and sigma[0] == len(alpha)
    )


def _case_projectivity(case) -> list:
    kind, payload = case
    if kind == "counterexample":
        counter = _noncanonical_counterexample()
        return [counter] if counter else []
    alpha, sigma = payload
    bad = []
    [(cls, sids)] = tableaux._read_classes(modules._canonical_group(alpha, sigma))
    got, cert = _invariant(hecke.is_projective, sum(alpha), cls.members, sids)
    want = _canonical_projectivity_expected(alpha, sigma)
    if got != want:
        bad.append(
            {
                "alpha": alpha,
                "sigma": sigma,
                "projective": got,
                "expected": want,
                "cover_dim": cert.cover_dim,
                "dim": cert.dim,
            }
        )
    # positive cases: a projective module with this simple top is the ideal
    # indexed by the reversed shape
    if want and cert.top != {reverse_of(alpha): 1}:
        bad.append({"alpha": alpha, "sigma": sigma, "error": "no certified isomorphism to the ideal"})
    return bad


def _noncanonical_counterexample() -> dict | None:
    """No surjection reaches the class of the displayed non-canonical source.

    The class submodule has a two-dimensional top, so its projective cover
    is not indecomposable, and every map from the twisted (3,2)-ribbon
    ideal (equivalently its plain-ideal twin) has rank strictly below the
    class dimension.  Pinned exact values: class dimension 3, hom space
    dimension 1, maximal rank 2.
    """
    tau0 = tableaux.Spct([[4, 3], [5, 2], [1]])
    cls, sub = next(
        (cl, sub) for cl, sub in modules.class_submodules((2, 2, 1), (2, 3, 1)) if tau0 in cl.members
    )
    if cls.source != tau0:
        return {"error": "displayed tableau is not the source of its class"}
    if sub.dim != 3:
        return {"error": f"class dimension {sub.dim} != 3"}
    top = modules.top_factors(sub)
    if sum(top.values()) < 2:
        return {"error": "top is simple; the cover would be indecomposable"}
    twisted = modules.ribbon_module((3, 2), "theta")
    pim = hecke.pim_module(5, frozenset({1, 2, 4}))
    for src, name in ((twisted, "twisted-ribbon"), (pim, "ideal")):
        homs = modules.hom_space(src, sub)
        if len(homs) != 1:
            return {"error": f"{name}: hom dimension {len(homs)} != 1"}
        # rank is constant on the punctured line spanned by the generator,
        # so one rank computation certifies the absence of surjections
        rank = rank_of(homs[0].rows(), homs[0].ncols)
        if rank >= sub.dim:
            return {"error": f"{name}: found a surjective homomorphism"}
        if rank != 2:
            return {"error": f"{name}: rank {rank} != pinned 2"}
    return None


# ---------------------------------------------------------------------------
# criterion 11: factors agree with descent compositions


def _case_factors(case) -> list:
    alpha, sigma = case
    taus = tableaux._enumerate_spct(alpha, sigma)
    got = _invariant(modules.composition_factors, sum(alpha), taus, tuple(map(tableaux._step_id, taus)))
    want = Counter(map(tableaux.comp_of_tableau, taus))
    if got != want:
        # composition keys as strings, so the report is JSON
        got, want = ({str(beta): k for beta, k in c.items()} for c in (got, want))
        return [{"alpha": alpha, "sigma": sigma, "got": got, "want": want}]
    return []


# ---------------------------------------------------------------------------
# criterion 12: filtration-side letter bound and nonattacking window


def _case_appendix(case) -> list:
    alpha, sigma = case
    bad = []
    for cls in tableaux.equivalence_classes(tableaux._enumerate_spct(alpha, sigma)):
        t0 = cls.source
        for t in cls.members:
            if t == t0:
                continue
            inv = modules.appendix_invariants(cls, t)
            # letter bound: the quotient fixes everything past d, and its
            # reduced words (all of them, for short elements) stay below d
            if any(inv.rho[k - 1] != k for k in range(inv.d + 1, t.n + 1)):
                bad.append({"alpha": alpha, "sigma": sigma, "rows": t.rows, "error": "letter bound"})
                continue
            if perms.length(inv.rho) <= 8:
                for word in perms.all_reduced_words(inv.rho):
                    if any(letter >= inv.d for letter in word):
                        bad.append(
                            {"alpha": alpha, "sigma": sigma, "rows": t.rows, "error": "letter bound (word)"}
                        )
                        break
            if tableaux.descent_set(t) <= tableaux.descent_set(t0):
                d = inv.d
                a = inv.attack_min.get(d)
                if a is None:
                    bad.append({"alpha": alpha, "sigma": sigma, "rows": t.rows, "error": "no attacking partner"})
                    continue
                for k in range(d + 1, a + 1):
                    rd, cd = t.pos(d)
                    rk, ck = t.pos(k)
                    if tableaux.is_attacking(t, d, k) or not cd < ck:
                        bad.append(
                            {"alpha": alpha, "sigma": sigma, "rows": t.rows, "k": k, "error": "window"}
                        )
    return bad


# ---------------------------------------------------------------------------
# criterion 13: ideal dimension bookkeeping


def _case_pim(case) -> list:
    n, sub = case
    bad = []
    subset = frozenset(sub)
    pim = hecke.pim_module(n, subset)
    alpha = comp_of(subset, n)
    srt = len(tableaux.enumerate_srt(alpha))
    if pim.dim != srt:
        bad.append({"n": n, "subset": sorted(subset), "dim": pim.dim, "srt": srt})
    top = modules.top_factors(pim)
    if dict(top) != {alpha: 1}:
        bad.append({"n": n, "subset": sorted(subset), "top": {str(k): v for k, v in top.items()}})
    if not sub:  # the degree's total, checked once
        total = sum(hecke._pim_module(n, frozenset(s)).dim for _, s in _subsets(n))
        if total != math.factorial(n):
            bad.append({"n": n, "total": total})
    return bad


# ---------------------------------------------------------------------------
# the claim table


CLAIMS: dict[str, tuple[str, int, Callable[[int], list], Callable[..., list]]] = {
    "rel-2.1": (
        "generator relations hold on every constructed module",
        7, lambda m: _upto_algebra(m, _relation_modules), _case_relations,
    ),
    "prop-3.4": (
        "tableau set nonempty exactly for compatible shape/type",
        8, lambda m: _upto(m, _all_pairs), _case_compat,
    ),
    "lem-2.7": (
        "each class has one source, one sink, and is a component",
        8, lambda m: _upto(m, _compatible_pairs), _case_classes,
    ),
    "thm-3.15": (
        "unique source and cyclicity both characterised by simplicity",
        8, _simplicity_cases, _case_simplicity,
    ),
    "cor-3.18": (
        "longest-element modules detect partitions",
        8, lambda m: _upto(m, compositions), _case_w0_classification,
    ),
    "thm-3.1": (
        "every class submodule has a local endomorphism ring",
        8, lambda m: _upto(m, _compatible_pairs), _case_indecomposable,
    ),
    "thm-4.2": (
        "column sort is a descent-preserving bijection with greedy inverse",
        6, lambda m: _upto(m, _column_sort_pairs), _case_column_sort,
    ),
    "prop-4.6": (
        "type-change image is the bubble-fiber disjoint union",
        6, lambda m: _upto(m, _descent_triples), _case_image_law,
    ),
    "thm-4.8": (
        "characteristic satisfies the one-step type recursion",
        6, lambda m: _upto(m, _descent_triples), _case_recursion,
    ),
    "cor-4.9": (
        "partition shapes with reversing type give Schur functions",
        8, lambda m: _upto(m, partitions), _case_schur,
    ),
    "cor-4.11": (
        "partition-shape characteristics form a lattice basis",
        8, lambda m: list(range(1, m + 1)), _case_basis,
    ),
    "thm-5.5": (
        "sign conjugation and the projected transpose with its kernel",
        6, lambda m: _upto(m, _section5_cases), _case_section5,
    ),
    "cor-5.6": (
        "projectivity of canonical submodules classified exactly",
        7,
        lambda m: [("pair", p) for p in _upto_algebra(m, _compatible_pairs)] + [("counterexample", None)],
        _case_projectivity,
    ),
    "factors-vs-descents": (
        "radical-filtration factors equal descent compositions",
        7, lambda m: _upto(m, _compatible_pairs), _case_factors,
    ),
    "app-A": (
        "letter bound and nonattacking window on class quotients",
        6, lambda m: _upto(m, _compatible_pairs), _case_appendix,
    ),
    "pim-dims": (
        "ideal dimensions, tops, and the factorial total",
        7, lambda m: _upto_algebra(m, _subsets), _case_pim,
    ),
}


def run_claim(claim: str, max_n: int | None = None, jobs: int = 1) -> dict:
    """Check one claim on every case up to max_n (the claim's default if None).

    Bad arguments raise `KeyError` or `ValueError`, as does a max_n at
    which the claim has no case, and a max_n over a size bound raises
    `BoundExceeded`, also from inside a case.  Any other
    exception a case raises is an internal error and is raised again as
    `RuntimeError`, so that a case's own `ValueError` is not taken for bad
    arguments.
    """
    if claim not in CLAIMS:
        raise KeyError(f"unknown claim id {claim!r}")
    _, default_max_n, cases_of, check = CLAIMS[claim]
    if max_n is None:
        max_n = default_max_n
    if max_n < 1:
        raise ValueError(f"max_n must be at least 1, got {max_n}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    cases = cases_of(max_n)
    if not cases:
        raise ValueError(f"{claim} has no case at max_n = {max_n}")
    try:
        results = _run_cases(cases, check, jobs)
    except (BoundExceeded, RuntimeError):
        raise
    except Exception as exc:
        raise RuntimeError(f"{type(exc).__name__}: {exc}") from exc
    failures = [f for fs in results for f in fs]
    params = {"max_n": max_n}
    if claim == "thm-3.15":
        params["module_max_n"] = _MODULE_MAX_N
    return _report(claim, params, failures, len(cases))
