"""Degree-graded quasisymmetric function arithmetic on two bases.

Elements live in one homogeneous degree and are integer coefficient maps
on compositions of that degree, tagged with a basis: "F" (fundamental) or
"QS" (quasisymmetric Schur).  Only the additive structure is needed here,
so an element is a slotted wrapper over a dict of nonzero coefficients.

The QS basis is defined through tableau enumeration (each quasisymmetric
Schur function is the descent-composition generating sum over identity
type), and basis changes go through an exact integer transition matrix.
With compositions sorted reverse lexicographically by their partial-sum
sets that matrix is checked to be lower unitriangular, which makes it
unimodular, and its inverse is computed by integer forward substitution.
The lattice-basis certificate likewise checks that its matrix is
unitriangular and reads the determinant off the diagonal.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from math import prod
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from .compositions import (
    BoundExceeded,
    Composition,
    _bubble_fiber_word,
    bubble_fiber,
    check_composition,
    comp_of,
    compositions,
    is_partition,
    set_of,
    sorted_parts,
)
from . import permutations
from .permutations import Permutation
from . import tableaux

DEFAULT_QSYM_BOUND = tableaux.DEFAULT_TABLEAU_BOUND


class QSymElt:
    """A homogeneous quasisymmetric function in a declared basis, "F" or "QS"."""

    __slots__ = ("degree", "basis", "terms")

    def __init__(self, degree: int, basis: str, terms: Mapping[Composition, int]):
        if basis not in ("F", "QS"):
            raise ValueError(f"unknown basis {basis!r}")
        clean = {}
        for alpha, c in terms.items():
            alpha = check_composition(alpha)
            if sum(alpha) != degree:
                raise ValueError(f"index {alpha} is not a composition of {degree}")
            if c:
                clean[alpha] = c
        self.degree, self.basis, self.terms = degree, basis, clean

    def __add__(self, other: "QSymElt") -> "QSymElt":
        self._match(other)
        out = Counter(self.terms)
        out.update(other.terms)
        return QSymElt(self.degree, self.basis, dict(out))

    def __sub__(self, other: "QSymElt") -> "QSymElt":
        self._match(other)
        out = Counter(self.terms)
        out.subtract(other.terms)
        return QSymElt(self.degree, self.basis, dict(out))

    def _match(self, other: "QSymElt"):
        if (self.degree, self.basis) != (other.degree, other.basis):
            raise ValueError("degree or basis mismatch")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QSymElt)
            and (self.degree, self.basis) == (other.degree, other.basis)
            and self.terms == other.terms
        )

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, alpha: Sequence[int]) -> int:
        return self.terms.get(check_composition(alpha), 0)

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "basis": self.basis,
            "terms": [
                {"composition": list(alpha), "coeff": c}
                for alpha, c in sorted(self.terms.items())
            ],
        }

    def __repr__(self):
        if not self.terms:
            return f"QSymElt({self.degree}, {self.basis}, 0)"
        sym = "F" if self.basis == "F" else "S"
        bits = [f"{'' if c == 1 else c}{sym}{list(a)}" for a, c in sorted(self.terms.items())]
        return " + ".join(bits)


# ---------------------------------------------------------------------------
# generating sums


def ch_spct(alpha: Sequence[int], sigma: Sequence[int], bound: int = DEFAULT_QSYM_BOUND) -> QSymElt:
    """Descent-composition generating sum of the tableau module, F basis."""
    alpha, sigma = tableaux._check_pair(alpha, sigma)
    return QSymElt(sum(alpha), "F", _descent_counts(alpha, sigma, bound))


@lru_cache(maxsize=8192)
def _descent_counts(
    alpha: Composition, sigma: Permutation, bound: int = DEFAULT_QSYM_BOUND
) -> Mapping[Composition, int]:
    """The terms of `ch_spct` for a pair already validated, counted once per
    pair and handed out read-only; a `QSymElt` copies its terms."""
    return MappingProxyType(
        Counter(tableaux.comp_of_tableau(t) for t in tableaux._enumerate_spct(alpha, sigma, bound))
    )


def qschur(alpha: Sequence[int]) -> QSymElt:
    """The quasisymmetric Schur function of a composition, in the F basis.

    >>> qschur((1, 2)).terms
    {(1, 2): 1}
    >>> qschur((2, 1)).terms
    {(2, 1): 1}
    """
    alpha = check_composition(alpha)
    return QSymElt(sum(alpha), "F", _descent_counts(alpha, permutations.identity(len(alpha))))


def _enumerate_syt(lam: Composition) -> list[tuple[tuple[int, ...], ...]]:
    """Standard Young tableaux of partition shape, rows and columns increasing.

    Independent oracle machinery: a plain cell-by-cell backtracker over the
    left-justified diagram, unrelated to the ribbon/composition enumerators.
    """
    cells = [(r, c) for r, part in enumerate(lam) for c in range(part)]
    n = len(cells)
    grid = [[0] * part for part in lam]
    out = []

    def fill(v: int):
        if v > n:
            out.append(tuple(tuple(row) for row in grid))
            return
        for r, c in cells:
            if grid[r][c]:
                continue
            if c > 0 and not grid[r][c - 1]:
                continue
            if r > 0 and (len(grid[r - 1]) <= c or not grid[r - 1][c]):
                continue
            grid[r][c] = v
            fill(v + 1)
            grid[r][c] = 0

    fill(1)
    return out


def schur_oracle(lam: Sequence[int]) -> QSymElt:
    """Schur function via the classical standard-tableau descent expansion.

    >>> schur_oracle((2, 1)).terms == {(1, 2): 1, (2, 1): 1}
    True
    >>> schur_oracle((3,)).terms
    {(3,): 1}
    """
    lam = check_composition(lam)
    if not is_partition(lam):
        raise ValueError(f"{lam} is not a partition")
    n = sum(lam)
    if n > DEFAULT_QSYM_BOUND:
        raise BoundExceeded(f"n = {n} exceeds bound {DEFAULT_QSYM_BOUND}")
    out: Counter[Composition] = Counter()
    for t in _enumerate_syt(lam):
        row = {}
        for r, vals in enumerate(t):
            for v in vals:
                row[v] = r
        des = {i for i in range(1, n) if row[i + 1] > row[i]}
        out[comp_of(des, n)] += 1
    return QSymElt(n, "F", dict(out))


def qschur_expansion(alpha: Sequence[int], sigma: Sequence[int]) -> QSymElt:
    """Multiplicity-free QS expansion over the bubble fiber of the type."""
    alpha = check_composition(alpha)
    sigma = permutations.check_perm(sigma)
    return QSymElt(sum(alpha), "QS", {beta: 1 for beta in bubble_fiber(alpha, sigma)})


def recursion_check(alpha: Sequence[int], sigma: Sequence[int], i: int) -> bool:
    """One-step characteristic recursion: strip the generator i off the type.

    Requires the type to descend at i (its length must drop); the left side
    is the generating sum at (alpha, sigma) and the right side sums over
    the single-operator bubble fiber with the shortened type.
    """
    alpha, sigma = tableaux._check_pair(alpha, sigma)
    if not 1 <= i < len(sigma) or sigma[i - 1] < sigma[i]:
        raise ValueError(f"type does not descend at {i}")
    return _recursion_holds(alpha, sigma, i)


def _recursion_holds(alpha: Composition, sigma: Permutation, i: int) -> bool:
    """`recursion_check` for a pair already validated whose type descends
    at i, so the shorter type is sigma with entries i and i+1 swapped."""
    shorter = permutations._times_s(sigma, i)
    rhs: Counter[Composition] = Counter()
    for beta in _bubble_fiber_word(alpha, (i,)):
        rhs.update(_descent_counts(beta, shorter))
    return _descent_counts(alpha, sigma) == rhs


# ---------------------------------------------------------------------------
# basis conversion


def _revlex_set_key(alpha: Composition) -> tuple[int, ...]:
    return tuple(sorted(set_of(alpha), reverse=True))


@lru_cache(maxsize=None)
def composition_order(n: int) -> tuple[Composition, ...]:
    """Compositions of n sorted reverse-lex by partial-sum set.

    Under this order the QS -> F transition matrix is unitriangular, which
    the cached transition data below asserts outright.
    """
    return tuple(sorted(compositions(n), key=_revlex_set_key))


@lru_cache(maxsize=None)
def _qs_to_f_matrix(n: int) -> tuple[tuple[int, ...], ...]:
    """The QS -> F matrix over `composition_order(n)`.

    Column beta holds the F coefficients of the quasisymmetric Schur
    function indexed by beta.
    """
    order = composition_order(n)
    pos = {a: k for k, a in enumerate(order)}
    m = len(order)
    mat = [[0] * m for _ in range(m)]
    for col, beta in enumerate(order):
        for gamma, c in qschur(beta).terms.items():
            mat[pos[gamma]][col] = c
    return tuple(map(tuple, mat))


def f_matrix_unimodular(n: int) -> bool:
    """Whether the QS family is a lattice basis in degree n.

    Checked as: the QS -> F matrix is lower unitriangular over
    `composition_order(n)`, so its determinant is 1.
    """
    mat = _qs_to_f_matrix(n)
    return all(
        row[k] == (1 if k == r else 0) for r, row in enumerate(mat) for k in range(r, len(row))
    )


@lru_cache(maxsize=None)
def _transitions(n: int) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """(QS -> F matrix, its integer inverse) over `composition_order(n)`.

    A lower unitriangular integer matrix has a lower unitriangular integer
    inverse, whose column j solves ``mat x = e_j`` by forward substitution.
    """
    if not f_matrix_unimodular(n):
        raise RuntimeError(f"degree-{n} transition matrix is not lower unitriangular")
    mat = _qs_to_f_matrix(n)
    m = len(mat)
    inv = [[0] * m for _ in range(m)]
    for j in range(m):
        inv[j][j] = 1
        for i in range(j + 1, m):
            inv[i][j] = -sum(mat[i][k] * inv[k][j] for k in range(j, i) if mat[i][k])
    return mat, tuple(map(tuple, inv))


def qs_to_f(elt: QSymElt) -> QSymElt:
    """Rewrite a QS-basis element in the F basis (exact integers)."""
    if elt.basis != "QS":
        raise ValueError("expected a QS-basis element")
    mat, _ = _transitions(elt.degree)
    order = composition_order(elt.degree)
    pos = {a: k for k, a in enumerate(order)}
    m = len(order)
    out = [0] * m
    for beta, c in elt.terms.items():
        col = pos[beta]
        for r in range(m):
            if mat[r][col]:
                out[r] += c * mat[r][col]
    return QSymElt(elt.degree, "F", {order[r]: v for r, v in enumerate(out) if v})


def f_to_qs(elt: QSymElt) -> QSymElt:
    """Rewrite an F-basis element in the QS basis (exact integers)."""
    if elt.basis != "F":
        raise ValueError("expected an F-basis element")
    _, inv = _transitions(elt.degree)
    order = composition_order(elt.degree)
    pos = {a: k for k, a in enumerate(order)}
    m = len(order)
    out = [0] * m
    for gamma, c in elt.terms.items():
        row = pos[gamma]
        for r in range(m):
            if inv[r][row]:
                out[r] += c * inv[r][row]
    return QSymElt(elt.degree, "QS", {order[r]: v for r, v in enumerate(out) if v})


# ---------------------------------------------------------------------------
# the degree-n basis built from partition shapes with coset-representative types


class BnElement(NamedTuple):
    shape: Composition  # a partition
    type_: Permutation  # minimal coset representative
    expansion: QSymElt  # QS basis

    @property
    def leading(self) -> Composition:
        return permutations.compose_right_action(self.shape, permutations.inverse(self.type_))


def bn_basis(n: int) -> list[BnElement]:
    """Characteristics of partition-shape modules over minimal coset types."""
    if n > DEFAULT_QSYM_BOUND:
        raise BoundExceeded(f"n = {n} exceeds bound {DEFAULT_QSYM_BOUND}")
    out = []
    for lam in sorted(compositions(n)):
        if not is_partition(lam) or not lam:
            continue
        for sigma in permutations.min_coset_reps(lam):
            out.append(BnElement(lam, sigma, qschur_expansion(lam, sigma)))
    if n == 0:
        out.append(BnElement((), (), QSymElt(0, "QS", {(): 1})))
    return out


def min_rearrangement_length(lam: Composition, beta: Composition) -> int:
    """Length of the shortest permutation carrying the partition onto beta.

    The shortest one keeps equal parts in order, so its inversions are the
    pairs i < j with beta_i < beta_j.

    >>> min_rearrangement_length((2, 1, 1), (1, 2, 1))
    1
    """
    if sorted_parts(beta) != tuple(lam):
        raise ValueError(f"{beta} is not a rearrangement of the partition {lam}")
    return sum(1 for i, b in enumerate(beta) for c in beta[i + 1 :] if b < c)


def z_basis_certificate(n: int) -> dict:
    """Certify that the degree-n basis is a lattice basis of the component.

    Checks, exactly: the count is 2^(n-1); leading terms (shape acted on by
    the inverse type) biject onto compositions of n with coefficient one;
    every other supported index is a rearrangement of the shape reachable
    by a strictly shorter permutation (the unitriangular structure); and
    the full integer matrix over the QS basis, rows sorted by leading term,
    is square and upper triangular in `composition_order(n)`, so its
    determinant is the product of the diagonal and must be +-1.  A matrix
    with an entry below the diagonal reports ``det`` None and fails.
    """
    elements = bn_basis(n)
    order = composition_order(n)
    pos = {a: k for k, a in enumerate(order)}
    report: dict = {"n": n, "size": len(elements), "expected_size": 2 ** max(n - 1, 0)}
    ok = report["size"] == report["expected_size"]
    leadings = {}
    triangular = True
    for el in elements:
        lead = el.leading
        if el.expansion.coeff(lead) != 1:
            ok = False
        if lead in leadings:
            ok = False
        leadings[lead] = el
        l_sigma = permutations.length(el.type_)
        for beta in el.expansion.terms:
            if beta == lead:
                continue
            if sorted_parts(beta) != el.shape or min_rearrangement_length(el.shape, beta) >= l_sigma:
                triangular = False
    report["leading_bijection"] = len(leadings) == len(order) and all(a in pos for a in leadings)
    report["unitriangular"] = triangular
    ok = ok and report["leading_bijection"] and triangular
    m = len(order)
    rows = []
    for el in sorted(elements, key=lambda e: pos[e.leading]):
        row = [0] * m
        for beta, c in el.expansion.terms.items():
            row[pos[beta]] = c
        rows.append(row)
    upper = len(rows) == m and all(not any(row[:k]) for k, row in enumerate(rows))
    det = prod(row[k] for k, row in enumerate(rows)) if upper else None
    report["det"] = det
    report["unimodular"] = det in (1, -1)
    report["ok"] = ok and report["unimodular"]
    return report

