"""Concrete modules over the degree-n 0-Hecke algebra and verification tools.

An `HModule` packages a labeled basis with one exact rational matrix per
generator.  Everything downstream is linear algebra over Q: the relation
checker, intertwiner (hom) spaces, endomorphism rings with the trace-form
radical, and radical filtrations with their semisimple-layer eigensplit.
The projectivity test lives in `hecke`, beside the projective
indecomposables it compares against.

Matrix convention: generator matrices act on column coordinate vectors, so
column j of ``gens[i-1]`` is the image of the j-th basis element under the
i-th generator, and a map f with matrix F intertwines when
``F @ gens_src == gens_tgt @ F``.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .compositions import Composition, check_composition, comp_of, set_of
from .linalg import EchelonSpace, RatMat, Vec, nullspace, rank_of, vec_axpy
from . import permutations
from .permutations import Permutation
from . import tableaux
from .tableaux import SpctClass, Spct, Srt

#: largest n for regular-representation-derived objects (dense exact ceiling)
DEFAULT_ALGEBRA_BOUND = 6


class HModule:
    """A module given by a labeled basis and exact generator matrices."""

    __slots__ = ("n", "basis", "gens", "name", "_index")

    def __init__(self, n: int, basis: Sequence, gens: Sequence[RatMat], name: str = ""):
        if len(gens) != max(n - 1, 0):
            raise ValueError(f"expected {n - 1} generator matrices, got {len(gens)}")
        d = len(basis)
        for g in gens:
            if (g.nrows, g.ncols) != (d, d):
                raise ValueError("generator matrix shape does not match basis size")
        self.n = n
        self.basis = tuple(basis)
        self.gens = tuple(gens)
        self.name = name
        self._index = {b: i for i, b in enumerate(self.basis)}

    @property
    def dim(self) -> int:
        return len(self.basis)

    def index(self, label) -> int:
        return self._index[label]

    def __contains__(self, label) -> bool:
        return label in self._index

    def gen(self, i: int) -> RatMat:
        """Matrix of the i-th generator (1-based)."""
        if not 1 <= i <= self.n - 1:
            raise ValueError(f"generator index {i} out of range")
        return self.gens[i - 1]

    def act(self, i: int, v: Vec) -> Vec:
        return self.gen(i).apply(v)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "dim": self.dim,
            "basis_labels": [_label_json(b) for b in self.basis],
            "generators": [g.to_quadruples() for g in self.gens],
        }

    def __repr__(self):
        tag = f" {self.name}" if self.name else ""
        return f"HModule(n={self.n}, dim={self.dim}{tag})"


def _label_json(label):
    if isinstance(label, (Spct, Srt)):
        return label.to_json()
    if isinstance(label, tuple):
        return list(label)
    return str(label)


@dataclass
class LinearMap:
    """A linear map between modules of the same degree, with its matrix."""

    source: HModule
    target: HModule
    matrix: RatMat
    name: str = ""
    intertwines: bool | None = None

    def check_intertwiner(self) -> bool:
        ok = all(
            self.matrix * self.source.gen(i) == self.target.gen(i) * self.matrix
            for i in range(1, self.source.n)
        )
        self.intertwines = ok
        return ok


# ---------------------------------------------------------------------------
# module constructors


def simple_module(alpha: Sequence[int]) -> HModule:
    """The one-dimensional module indexed by a composition of n."""
    alpha = check_composition(alpha)
    n = sum(alpha)
    s = set_of(alpha)
    gens = [
        RatMat(1, 1, {} if i in s else {(0, 0): 1}) for i in range(1, n)
    ]
    return HModule(n, (alpha,), gens, name=f"F{alpha}")


def spct_module(
    alpha: Sequence[int], sigma: Sequence[int], bound: int = tableaux.DEFAULT_TABLEAU_BOUND
) -> HModule:
    """The tableau module: fix off-descents, kill attacking descents, swap else.

    An incompatible pair yields the zero module.
    """
    alpha = check_composition(alpha)
    sigma = permutations.check_perm(sigma)
    taus = tableaux.enumerate_spct(alpha, sigma, bound)
    n = sum(alpha)
    index = {t: j for j, t in enumerate(taus)}
    descents = [tableaux.descent_set(t) for t in taus]
    gens = []
    for i in range(1, n):
        data = {}
        for j, (t, des) in enumerate(zip(taus, descents)):
            if i not in des:
                data[j, j] = 1
            elif tableaux.is_attacking(t, i, i + 1):
                pass
            else:
                data[index[t.swap_values(i)], j] = 1
        gens.append(RatMat(len(taus), len(taus), data))
    return HModule(n, taus, gens, name=f"S^{sigma}_{alpha}")


RIBBON_VARIANTS = ("opi", "theta", "star")


def ribbon_module(
    alpha: Sequence[int], variant: str = "opi", bound: int = tableaux.DEFAULT_TABLEAU_BOUND
) -> HModule:
    """A module on ribbon tableaux; `variant` picks the generator action.

    With values i, i+1 in rows (from the bottom) r and r' of T:

    ========   =============   ===========   ===========
    case       opi             theta         star
    ========   =============   ===========   ===========
    r > r'     0               T             T
    r == r'    T               0             0
    r < r'     T + swapped     -swapped      swapped
    ========   =============   ===========   ===========

    The opi variant is the projective indecomposable in its combinatorial
    incarnation; theta is its twist by the sign-flipping automorphism, and
    star the sign-free version of theta.
    """
    if variant not in RIBBON_VARIANTS:
        raise ValueError(f"unknown ribbon variant {variant!r}")
    alpha = check_composition(alpha)
    ts = tableaux.enumerate_srt(alpha, bound)
    n = sum(alpha)
    index = {t: j for j, t in enumerate(ts)}
    gens = []
    for i in range(1, n):
        data = {}
        for j, t in enumerate(ts):
            r, r1 = t.row_of(i), t.row_of(i + 1)
            if r > r1:
                if variant == "opi":
                    pass
                else:
                    data[j, j] = 1
            elif r == r1:
                if variant == "opi":
                    data[j, j] = 1
            else:
                k = index[t.swap_values(i)]
                if variant == "opi":
                    data[j, j] = 1
                    data[k, j] = 1
                elif variant == "theta":
                    data[k, j] = -1
                else:
                    data[k, j] = 1
        gens.append(RatMat(len(ts), len(ts), data))
    return HModule(n, ts, gens, name=f"P_{alpha}[{variant}]")


def submodule_on_labels(m: HModule, labels: Sequence, name: str = "") -> HModule:
    """Restrict to the span of a subset of basis labels.

    Raises if the subset is not stable under every generator, so callers
    cannot silently build a non-module.
    """
    idx = [m.index(b) for b in labels]
    keep = set(idx)
    pos = {j: p for p, j in enumerate(idx)}
    gens = []
    for g in m.gens:
        data = {}
        for (r, c), x in g.data.items():
            if c in keep:
                if r not in keep:
                    raise ValueError("label subset is not generator-stable")
                data[pos[r], pos[c]] = x
        gens.append(RatMat(len(idx), len(idx), data))
    return HModule(m.n, [m.basis[j] for j in idx], gens, name=name or f"{m.name}|sub")


def class_submodule_of(m: HModule, cls: SpctClass) -> HModule:
    return submodule_on_labels(m, cls.members, name=f"{m.name}|{cls.label}")


def direct_sum(mods: Sequence[HModule], name: str = "") -> HModule:
    if not mods:
        raise ValueError("direct sum of nothing")
    n = mods[0].n
    if any(m.n != n for m in mods):
        raise ValueError("degree mismatch in direct sum")
    basis = []
    for k, m in enumerate(mods):
        basis.extend((k, b) for b in m.basis)
    offsets = list(itertools.accumulate([0] + [m.dim for m in mods]))
    gens = []
    for i in range(1, n):
        data = {}
        for k, m in enumerate(mods):
            off = offsets[k]
            for (r, c), x in m.gen(i).data.items():
                data[off + r, off + c] = x
        gens.append(RatMat(offsets[-1], offsets[-1], data))
    return HModule(n, basis, gens, name=name or "(+)".join(m.name for m in mods))


# ---------------------------------------------------------------------------
# relation checking


@dataclass
class RelationReport:
    ok: bool
    violations: list[dict] = field(default_factory=list)

    def to_json(self):
        return {"ok": self.ok, "violations": self.violations}


def check_relations(m: HModule) -> RelationReport:
    """Exact idempotency, braid, and far-commutation checks on the matrices."""
    violations = []
    g = m.gens
    for i in range(1, m.n):
        if g[i - 1] * g[i - 1] != g[i - 1]:
            violations.append({"relation": "idempotent", "i": i})
    for i in range(1, m.n - 1):
        if g[i - 1] * g[i] * g[i - 1] != g[i] * g[i - 1] * g[i]:
            violations.append({"relation": "braid", "i": i})
    for i, j in itertools.combinations(range(1, m.n), 2):
        if j - i >= 2 and g[i - 1] * g[j - 1] != g[j - 1] * g[i - 1]:
            violations.append({"relation": "commute", "i": i, "j": j})
    return RelationReport(not violations, violations)


# ---------------------------------------------------------------------------
# hom spaces, endomorphism rings, indecomposability


def hom_space(m: HModule, n_: HModule) -> list[RatMat]:
    """Basis of the space of intertwiners m -> n_, solved exactly.

    Unknowns are the entries of the map's matrix F; the equations are
    ``F @ A_i - B_i @ F = 0`` entry by entry, assembled sparsely.
    """
    if m.n != n_.n:
        raise ValueError("degree mismatch")
    dm, dn = m.dim, n_.dim
    if dm == 0 or dn == 0:
        return []
    # unknown F[a, b] lives at index a*dm + b (a in target, b in source)
    equations: list[Vec] = []
    for i in range(1, m.n):
        acols = m.gen(i).cols()
        brows = n_.gen(i).rows()
        for a in range(dn):
            brow = brows[a]
            for b in range(dm):
                eq: Vec = {}
                for c, x in acols[b].items():
                    k = a * dm + c
                    s = eq.get(k, 0) + x
                    if s:
                        eq[k] = s
                    else:
                        del eq[k]
                for c, x in brow.items():
                    k = c * dm + b
                    s = eq.get(k, 0) - x
                    if s:
                        eq[k] = s
                    else:
                        eq.pop(k, None)
                if eq:
                    equations.append(eq)
    basis = nullspace(equations, dn * dm)
    mats = []
    for v in basis:
        mats.append(RatMat(dn, dm, {(k // dm, k % dm): x for k, x in v.items()}))
    return mats


def end_ring(m: HModule) -> list[RatMat]:
    return hom_space(m, m)


@dataclass
class IndecomposabilityCertificate:
    end_dim: int
    semisimple_rank: int  # rank of the trace form == dim End/rad

    @property
    def indecomposable(self) -> bool:
        return self.semisimple_rank == 1

    def to_json(self):
        return {"end_dim": self.end_dim, "semisimple_rank": self.semisimple_rank}


def is_indecomposable(m: HModule) -> tuple[bool, IndecomposabilityCertificate]:
    """Locality of the endomorphism ring via the trace form.

    In characteristic zero the radical of End(M) is the radical of the
    bilinear form (x, y) -> trace(xy on M), so M is indecomposable exactly
    when that form has rank one.
    """
    if m.dim == 0:
        raise ValueError("the zero module has no endomorphism ring")
    ends = end_ring(m)
    k = len(ends)
    gram = [
        {b: (ends[a] * ends[b]).trace() for b in range(k)} for a in range(k)
    ]
    rows: list[Vec] = [{b: x for b, x in row.items() if x} for row in gram]
    rank = rank_of(rows, k)
    cert = IndecomposabilityCertificate(k, rank)
    return cert.indecomposable, cert


# ---------------------------------------------------------------------------
# radical filtration and composition factors


def _commutator_images(m: HModule, space_vectors: Sequence[Vec]) -> list[Vec]:
    out = []
    for i, j in itertools.combinations(range(1, m.n), 2):
        comm = m.gen(i) * m.gen(j) - m.gen(j) * m.gen(i)
        if comm.is_zero():
            continue
        for v in space_vectors:
            w = comm.apply(v)
            if w:
                out.append(w)
    return out


def _generator_closure(m: HModule, seeds: Iterable[Vec]) -> EchelonSpace:
    space = EchelonSpace(m.dim)
    frontier = []
    for v in seeds:
        if space.add(v):
            frontier.append(dict(v))
    while frontier:
        v = frontier.pop()
        for i in range(1, m.n):
            w = m.gen(i).apply(v)
            if w and space.add(w):
                frontier.append(w)
    return space


def radical_vectors(m: HModule, space_vectors: Sequence[Vec] | None = None) -> EchelonSpace:
    """Echelon basis of rad . W for a generator-stable subspace W.

    The radical of the algebra is its commutator ideal (the quotient is
    commutative and generated by idempotents, hence semisimple, and the
    ground field has characteristic zero), so rad . W is the generator
    closure of the commutator images of W.
    """
    if space_vectors is None:
        space_vectors = [{j: 1} for j in range(m.dim)]
    return _generator_closure(m, _commutator_images(m, space_vectors))


@dataclass
class Layer:
    """One semisimple layer of the radical filtration."""

    dim: int
    gens: list[RatMat]  # induced generator action on layer coordinates


def radical_filtration(m: HModule) -> Iterator[Layer]:
    """Layers of M > rad M > rad^2 M > ..., top first, with their induced actions.

    Layers are yielded lazily, so taking only the top computes one radical.
    Each layer's generator matrices are expressed on residues of spanning
    vectors modulo the next filtration step; the generators preserve each
    step, so reducing an image modulo the step and solving against the
    residue basis is exact.
    """
    current: list[Vec] = [{j: 1} for j in range(m.dim)]
    current_dim = m.dim
    while current_dim > 0:
        nxt = [dict(r) for r in radical_vectors(m, current).basis()]
        if len(nxt) >= current_dim:
            raise RuntimeError("radical filtration did not shrink")
        e1 = EchelonSpace(m.dim)
        for v in nxt:
            e1.add(v)
        e2 = EchelonSpace(m.dim, track=True)
        reps: list[Vec] = []
        for v in current:
            res = e1.residue(v)
            if res and not e2.contains(res):
                e2.add(res)  # accepted adds only, so input index == rep index
                reps.append(res)
        d = len(reps)
        gens = []
        for i in range(1, m.n):
            data = {}
            for col, rep in enumerate(reps):
                img = e1.residue(m.gen(i).apply(rep))
                coords = e2.input_coords(img)
                if coords is None:
                    raise RuntimeError("layer action escaped the layer")
                for row, x in coords.items():
                    data[row, col] = x
            gens.append(RatMat(d, d, data))
        yield Layer(d, gens)
        current = nxt
        current_dim = len(nxt)


def _eigensplit(layer: Layer, n: int) -> Counter[tuple[int, ...]]:
    """Joint {0,1}-eigenpattern multiplicities of commuting idempotents."""
    blocks: list[tuple[tuple[int, ...], list[Vec]]] = [
        ((), [{j: 1} for j in range(layer.dim)])
    ]
    for i in range(1, n):
        a = layer.gens[i - 1]
        new_blocks = []
        for pattern, vecs in blocks:
            for eig in (0, 1):
                shifted = a if eig == 0 else a - RatMat.identity(layer.dim)
                # solve for combinations c with shifted . (V c) = 0
                cols = [shifted.apply(v) for v in vecs]
                rows: dict[int, Vec] = {}
                for cidx, col in enumerate(cols):
                    for r, x in col.items():
                        rows.setdefault(r, {})[cidx] = x
                for c in nullspace(list(rows.values()), len(vecs)):
                    w: Vec = {}
                    for cidx, x in c.items():
                        vec_axpy(w, x, vecs[cidx])
                    new_blocks.append((pattern + (eig,), [w]))
        # regroup: combine vectors with identical pattern
        grouped: dict[tuple[int, ...], list[Vec]] = {}
        for pattern, vecs in new_blocks:
            grouped.setdefault(pattern, []).extend(vecs)
        blocks = [(pat, vecs) for pat, vecs in sorted(grouped.items())]
        if sum(len(v) for _, v in blocks) != layer.dim:
            raise RuntimeError("layer is not semisimple: eigensplit lost dimensions")
    return Counter({pat: len(vecs) for pat, vecs in blocks})


def _layer_factors(layer: Layer, n: int) -> Counter[Composition]:
    """Simple multiplicities of one semisimple layer.

    A joint eigenpattern with zeros exactly on a subset I contributes the
    simple indexed by the composition with partial sums I.
    """
    out: Counter[Composition] = Counter()
    for pattern, mult in _eigensplit(layer, n).items():
        subset = {i + 1 for i, e in enumerate(pattern) if e == 0}
        out[comp_of(subset, n)] += mult
    return out


def composition_factors(m: HModule) -> Counter[Composition]:
    """Multiset of simple factors via the radical filtration."""
    out: Counter[Composition] = Counter()
    for layer in radical_filtration(m):
        out += _layer_factors(layer, m.n)
    return out


def top_factors(m: HModule) -> Counter[Composition]:
    """Simple multiplicities of M / rad M; only the top layer is computed."""
    top = next(radical_filtration(m), None)
    return Counter() if top is None else _layer_factors(top, m.n)


# ---------------------------------------------------------------------------
# cyclicity and the action graph


def cyclic_span(m: HModule, seed: Vec) -> int:
    """Dimension of the submodule generated by one vector."""
    return len(_generator_closure(m, [seed]))


def generates(m: HModule, label) -> bool:
    return cyclic_span(m, {m.index(label): 1}) == m.dim


def is_spct_cyclic(alpha: Sequence[int], sigma: Sequence[int], bound: int = tableaux.DEFAULT_TABLEAU_BOUND) -> bool:
    """Whether one tableau generates the whole tableau module."""
    m = spct_module(alpha, sigma, bound)
    if m.dim == 0:
        return False
    return any(generates(m, t) for t in m.basis)


def action_edges(alpha, sigma, bound: int = tableaux.DEFAULT_TABLEAU_BOUND):
    """Directed moving edges (t, i, t') with generator i sending t to t' != t."""
    edges = []
    for t in tableaux.enumerate_spct(alpha, sigma, bound):
        for i in sorted(tableaux.descent_set(t)):
            if not tableaux.is_attacking(t, i, i + 1):
                edges.append((t, i, t.swap_values(i)))
    return edges


def action_components(alpha, sigma, bound: int = tableaux.DEFAULT_TABLEAU_BOUND) -> list[frozenset[Spct]]:
    """Connected components of the (undirected) action graph."""
    ts = tableaux.enumerate_spct(alpha, sigma, bound)
    adj: dict[Spct, set[Spct]] = {t: set() for t in ts}
    for t, _, u in action_edges(alpha, sigma, bound):
        adj[t].add(u)
        adj[u].add(t)
    seen: set[Spct] = set()
    comps = []
    for t in ts:
        if t in seen:
            continue
        stack, comp = [t], set()
        while stack:
            u = stack.pop()
            if u in comp:
                continue
            comp.add(u)
            stack.extend(adj[u] - comp)
        seen |= comp
        comps.append(frozenset(comp))
    return comps


def graph_dot(alpha, sigma, bound: int = tableaux.DEFAULT_TABLEAU_BOUND) -> str:
    """DOT rendering of the action graph, edges labeled by the generator."""
    ts = tableaux.enumerate_spct(alpha, sigma, bound)
    names = {t: f"t{k}" for k, t in enumerate(ts)}
    lines = ["digraph spct {"]
    for t in ts:
        lines.append(f'  {names[t]} [label="{t.to_json()}"];')
    for t, i, u in action_edges(alpha, sigma, bound):
        lines.append(f'  {names[t]} -> {names[u]} [label="{i}"];')
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# column-word transport and the filtration-side statistics


@dataclass(frozen=True)
class AppendixData:
    d: int
    rho: Permutation
    attack_min: dict  # descent i of the source -> min attacking partner > i


def appendix_invariants(cls: SpctClass, t: Spct) -> AppendixData:
    """Last disagreeing value, column-word quotient, and attack minima.

    `d` is the largest value below n placed differently in t and in the
    class source; `rho` is col(t) composed with the inverse source column
    word.  The attack minima are computed on the source, one per descent.
    """
    t0 = cls.source
    if t == t0:
        raise ValueError("invariants are defined for non-source members only")
    if t not in cls.members:
        raise ValueError("tableau does not belong to the class")
    n = t.n
    diff = [k for k in range(1, n) if t0.pos(k) != t.pos(k)]
    if not diff:
        raise RuntimeError("distinct tableaux with identical placements below n")
    d = max(diff)
    rho = permutations.compose(
        tableaux.col_word(t), permutations.inverse(tableaux.col_word(t0))
    )
    attack_min = {}
    for i in sorted(tableaux.descent_set(t0)):
        ks = [k for k in range(i + 1, n + 1) if tableaux.is_attacking(t0, i, k)]
        attack_min[i] = min(ks) if ks else None
    return AppendixData(d, rho, attack_min)


def word_transport_holds(cls: SpctClass, t: Spct, u: Spct, max_words: int = 24) -> bool:
    """Reduced words of the column-word quotient all carry t to u.

    Checks up to `max_words` reduced words of col(u) col(t)^{-1}; applying
    the word letters right to left through the module action must land on
    u with no step dying.
    """
    rho = permutations.compose(
        tableaux.col_word(u), permutations.inverse(tableaux.col_word(t))
    )
    for word in itertools.islice(permutations.all_reduced_words(rho), max_words):
        cur = t
        for i in reversed(word):
            if i not in tableaux.descent_set(cur) or tableaux.is_attacking(cur, i, i + 1):
                return False
            cur = cur.swap_values(i)
        if cur != u:
            return False
    return True


def reachable_pairs(cls: SpctClass) -> list[tuple[Spct, Spct]]:
    """Ordered pairs (t, u), t != u, with u reachable from t by moving steps."""
    succ: dict[Spct, set[Spct]] = {t: set() for t in cls.members}
    for t in cls.members:
        for i in sorted(tableaux.descent_set(t)):
            if not tableaux.is_attacking(t, i, i + 1):
                succ[t].add(t.swap_values(i))
    out = []
    for t in cls.members:
        seen: set[Spct] = set()
        stack = list(succ[t])
        while stack:
            u = stack.pop()
            if u in seen:
                continue
            seen.add(u)
            stack.extend(succ[u] - seen)
        out.extend((t, u) for u in seen)
    return out
