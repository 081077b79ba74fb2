"""Every claim's cases as one list, smaller degrees first: the listing the
claims ran before their cases came as a stream of chunks.

`CASES[claim](max_n)` lists the cases of a claim up to max_n, to compare
with what `verify.CLAIMS[claim][2](max_n)` streams.
"""

from __future__ import annotations

import itertools

from spcthecke import modules, tableaux, verify
from spcthecke import permutations as perms
from spcthecke.compositions import compositions, partitions


def upto(max_n, per_degree):
    """The cases of every degree from 1 through max_n, smaller first."""
    return [case for n in range(1, max_n + 1) for case in per_degree(n)]


def all_pairs(n):
    """Every (shape, type) pair in one degree."""
    return [(alpha, sigma) for alpha in compositions(n) for sigma in perms.all_perms(len(alpha))]


def compatible_pairs(n):
    return [(a, s) for a, s in all_pairs(n) if tableaux.is_compatible(a, s)]


def subsets(n):
    """(n, subset) for every subset of [1, n-1], smaller subsets first."""
    return [(n, sub) for r in range(n) for sub in itertools.combinations(range(1, n), r)]


def descent_triples(n):
    """(shape, type, i) for every descent i of the type, over all pairs."""
    return [
        (alpha, sigma, i)
        for alpha, sigma in all_pairs(n)
        for i in range(1, len(alpha))
        if sigma[i - 1] > sigma[i]
    ]


def relation_modules(n):
    cases = [("spct", p) for p in compatible_pairs(n)]
    cases += [("ribbon", (a, v)) for a in compositions(n) for v in modules.RIBBON_VARIANTS]
    cases.append(("regular", n))
    return cases + [("pim", p) for p in subsets(n)]


def simplicity_cases(max_n):
    pairs = [
        ("pair", (a, s, n <= verify._MODULE_MAX_N)) for n in range(1, max_n + 1) for a, s in compatible_pairs(n)
    ]
    return pairs + [("w0", alpha) for alpha in upto(max_n, compositions)]


def column_sort_pairs(n):
    return [(lam, sigma) for lam in partitions(n) for sigma in perms.all_perms(len(lam))]


def section5_cases(n):
    return [("iota", a) for a in compositions(n)] + [("prc", p) for p in compatible_pairs(n)]


CASES = {
    "rel-2.1": lambda m: upto(m, relation_modules),
    "prop-3.4": lambda m: upto(m, all_pairs),
    "lem-2.7": lambda m: upto(m, compatible_pairs),
    "thm-3.15": simplicity_cases,
    "cor-3.18": lambda m: upto(m, compositions),
    "thm-3.1": lambda m: upto(m, compatible_pairs),
    "thm-4.2": lambda m: upto(m, column_sort_pairs),
    "prop-4.6": lambda m: upto(m, descent_triples),
    "thm-4.8": lambda m: upto(m, descent_triples),
    "cor-4.9": lambda m: upto(m, partitions),
    "cor-4.11": lambda m: list(range(1, m + 1)),
    "thm-5.5": lambda m: upto(m, section5_cases),
    "cor-5.6": lambda m: [("pair", p) for p in upto(m, compatible_pairs)] + [("counterexample", None)],
    "factors-vs-descents": lambda m: upto(m, compatible_pairs),
    "app-A": lambda m: upto(m, compatible_pairs),
    "pim-dims": lambda m: upto(m, subsets),
}
