"""Concrete modules over the degree-n 0-Hecke algebra and verification tools.

An `HModule` packages a labeled basis with its generators' columns: column
j of generator i is the image of the j-th basis vector, an exact sparse
vector.  The public constructor validates every column entry; the
package's own constructors write valid columns by construction and skip
that check (`HModule._trusted`).  The tableau module and its class
submodules read each tableau's steps once (`tableaux._steps`, the rule
`tableaux.pi_action` applies one generator at a time, carried by the
enumerator), and find each swap's image by its swapped positions
(`tableaux._swap_targets`).  A class submodule is built from its class
alone, never restricted from the whole module: the same reading finds
the class's source and sink and writes its columns, and a swap that
leaves the class raises.  Tableau-cyclicity, the DOT graph and a class's
reachable pairs walk the same swaps (`tableaux._swap_graph`), building no module.
Everything downstream is linear algebra over Q: the relation checker,
intertwiner (hom) spaces, endomorphism rings with the trace-form radical,
and the top layer M / rad M.  Every simple module is one dimensional, so
composition factors, of M or of its top, are read off the traces of the
products of generators by inversion over subsets; of the two, only the
top layer eliminates.
Hom spaces are solved from a presentation of the source module by
generators and relations, so a map is fixed by its values on the
generators; a class submodule is cyclic, generated by its source, so its
endomorphisms cost dim M unknowns, not (dim M)^2.  The projectivity test
lives in `hecke`, beside the projective indecomposables it compares
against.

The ribbon modules read a shape's tableaux once for their three
variants (`_ribbon_reading`, which keeps the last shape read), and each
call writes its own columns from that reading.

Column action: `HModule.act` applies a generator's columns to a
coordinate vector; every algorithm here works on vectors that way and
forms no matrix product.  `HModule.gen` builds a fresh matrix from the
columns, for serialisation and for tests.  A relation between two words
in the generators holds when both words send every basis vector to the
same image, and a map f with matrix F intertwines when
``F (pi_i e_b) == pi_i (F e_b)`` for every generator i and basis vector b.
Most columns here are 0 or one entry, so the relation checker reads the
image of a one-entry vector straight off its column.

The projective indecomposables of `hecke` need no closure here: each is
the walk of one generator's vector through the regular module, whose
vectors are a basis on which every column is 0 or one unit entry
(`hecke._walk`).

`composition_factors` and `top_factors` (and so `hecke.is_projective`)
read only the degree, the dimension and the generator columns, never the
basis labels or the name, and compute afresh on every call.  The claims
that meet one tableau module many times, rel-2.1's relation check
among them, keep their own memo, keyed on the tableaux before any module
is built (`verify._invariant`).
"""

from __future__ import annotations

import itertools
from collections import Counter
from functools import lru_cache
from typing import Iterable, NamedTuple, Sequence

from .compositions import Composition, check_composition, comp_of
from .linalg import EchelonSpace, RatMat, Vec, nullspace, rank_of, vec_axpy
from . import permutations
from .permutations import Permutation
from . import tableaux
from .tableaux import SpctClass, Spct, Srt

#: largest n for the regular module and its ideals (`hecke`), which have n! basis vectors in all
DEFAULT_ALGEBRA_BOUND = 8


class HModule:
    """A module given by a labeled basis and its generators' columns.

    ``cols[i - 1][j]`` is the image of the j-th basis vector under the
    i-th generator, a sparse vector with nonzero entries.  The columns are
    the only stored form of the action; `gen` builds a matrix from them.
    """

    __slots__ = ("n", "basis", "cols", "name", "_index")

    def __init__(self, n: int, basis: Sequence, cols: Sequence[Sequence[Vec]], name: str = ""):
        if len(cols) != max(n - 1, 0):
            raise ValueError(f"expected {n - 1} generators, got {len(cols)}")
        d = len(basis)
        for g in cols:
            if len(g) != d:
                raise ValueError(f"generator has {len(g)} columns, basis size is {d}")
            for col in g:
                for r, x in col.items():
                    if not 0 <= r < d or not x:
                        raise ValueError(f"column entry {r}: {x} is zero or has no row in 0..{d - 1}")
        self.n = n
        self.basis = tuple(basis)
        self.cols = tuple(list(g) for g in cols)
        self.name = name
        self._index = {b: i for i, b in enumerate(self.basis)}

    @classmethod
    def _trusted(
        cls, n: int, basis: tuple, cols: list[list[Vec]], name: str, index: dict | None = None
    ) -> "HModule":
        """A module whose columns the package wrote itself, valid by
        construction; nothing is checked and nothing is copied.  `index`
        maps each label to its basis position, and is built when None.
        """
        m = object.__new__(cls)
        m.n, m.basis, m.cols, m.name = n, basis, tuple(cols), name
        m._index = {b: i for i, b in enumerate(basis)} if index is None else index
        return m

    @property
    def dim(self) -> int:
        return len(self.basis)

    def index(self, label) -> int:
        return self._index[label]

    def __contains__(self, label) -> bool:
        return label in self._index

    def gen(self, i: int) -> RatMat:
        """A new matrix of the i-th generator (1-based)."""
        if not 1 <= i <= self.n - 1:
            raise ValueError(f"generator index {i} out of range")
        data = {(r, c): x for c, col in enumerate(self.cols[i - 1]) for r, x in col.items()}
        return RatMat(self.dim, self.dim, data)

    def act(self, i: int, v: Vec) -> Vec:
        """The i-th generator (1-based) applied to v, as a new vector."""
        if not 1 <= i <= self.n - 1:
            raise ValueError(f"generator index {i} out of range")
        return _apply_cols(self.cols[i - 1], v)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "dim": self.dim,
            "basis_labels": [_label_json(b) for b in self.basis],
            "generators": [self.gen(i).to_quadruples() for i in range(1, self.n)],
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


class LinearMap:
    """A linear map between modules of the same degree, with its matrix."""

    __slots__ = ("source", "target", "matrix", "name", "intertwines")

    def __init__(self, source: HModule, target: HModule, matrix: RatMat, name: str = ""):
        self.source, self.target, self.matrix, self.name = source, target, matrix, name
        self.intertwines: bool | None = None  # set by `check_intertwiner`

    def check_intertwiner(self) -> bool:
        """Whether ``F (pi_i e_b) == pi_i (F e_b)`` for every i and b."""
        f = self.matrix.cols()
        ok = all(
            _apply_cols(f, src[b]) == _apply_cols(tgt, f[b])
            for src, tgt in zip(self.source.cols, self.target.cols)
            for b in range(self.source.dim)
        )
        self.intertwines = ok
        return ok


# ---------------------------------------------------------------------------
# module constructors


def spct_module(alpha: Sequence[int], sigma: Sequence[int]) -> HModule:
    """The tableau module: each generator acts as `tableaux.pi_action`,
    read once per tableau (`tableaux._steps`, `tableaux._swap_targets`).

    An incompatible pair yields the zero module.
    """
    alpha, sigma = tableaux._check_pair(alpha, sigma)
    taus = tableaux._enumerate_spct(alpha, sigma)
    n = sum(alpha)
    sids = [tableaux._step_id(t) for t in taus]
    cols = _tableau_columns(n, sids, tableaux._swap_targets(taus, sids))
    return HModule._trusted(n, taus, cols, f"S^{sigma}_{alpha}")


def class_submodules(alpha: Sequence[int], sigma: Sequence[int]) -> list[tuple[SpctClass, HModule]]:
    """Every class of the pair with its submodule of the tableau module.

    The classes are `tableaux.equivalence_classes` of the pair's tableaux,
    in that order, and each submodule is built straight from its class,
    with no whole module: each member is read once (`tableaux._steps`) for
    both its source/sink role and its generator columns.  The submodules
    are named ``S^sigma_alpha|label``.
    """
    alpha, sigma = tableaux._check_pair(alpha, sigma)
    groups = tableaux._grouped(tableaux._enumerate_spct(alpha, sigma))
    return _class_submodules(alpha, sigma, groups)


def canonical_submodule(alpha: Sequence[int], sigma: Sequence[int]) -> tuple[SpctClass, HModule]:
    """The class of the canonical source tableau, with its submodule.

    Only the canonical source's group is read and built
    (`_canonical_group`), as in `class_submodules`.
    """
    alpha, sigma = tableaux._check_compatible_pair(alpha, sigma)
    return _class_submodules(alpha, sigma, _canonical_group(alpha, sigma))[0]


def _canonical_group(alpha: Composition, sigma: Permutation) -> list[list[Spct]]:
    """The canonical source's group of a compatible pair's tableaux, as
    the one group of a `tableaux._grouped` list: the tableaux with the
    canonical source's class key (`tableaux._class_key`)."""
    key = tableaux._class_key(tableaux.Spct._trusted(tableaux._canonical_rows(alpha, sigma), alpha, sum(alpha)))
    members = [t for t in tableaux._enumerate_spct(alpha, sigma) if tableaux._class_key(t) == key]
    if not members:
        raise RuntimeError(f"canonical class not found for ({alpha}, {sigma})")
    return [members]


def _class_submodules(
    alpha: Composition, sigma: Permutation, groups: list[list[Spct]]
) -> list[tuple[SpctClass, HModule]]:
    """Each group of tableaux (`tableaux._grouped`) as a class with its submodule."""
    n = sum(alpha)
    out = []
    for cls, sids in tableaux._read_classes(groups):
        cols = _tableau_columns(n, sids, tableaux._swap_targets(cls.members, sids))
        out.append((cls, HModule._trusted(n, cls.members, cols, f"S^{sigma}_{alpha}|{cls.label}")))
    return out


def _tableau_columns(n: int, sids: Sequence[int], targets: Sequence[int | None]) -> list[list[Vec]]:
    """The generator columns on some tableaux of degree n, from their step
    ids and their swap targets (`tableaux._swap_targets`).

    A swap with no target leaves the tableaux and raises `ValueError`, so
    a set of tableaux that is not a submodule is never built as one.
    """
    cols: list[list[Vec]] = [[] for _ in range(n - 1)]
    swap, kill, steps = tableaux._SWAP, tableaux._KILL, tableaux._STEPS
    targets = iter(targets)
    for j, sid in enumerate(sids):
        for g, step in zip(cols, steps[sid]):
            if step == swap:
                k = next(targets)
                if k is None:
                    raise ValueError("label subset is not generator-stable")
                g.append({k: 1})
            else:
                g.append({} if step == kill else {j: 1})
    return cols


RIBBON_VARIANTS = ("opi", "theta", "star")


def ribbon_module(alpha: Sequence[int], variant: str = "opi") -> HModule:
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

    The shape's tableaux are read once for all three variants
    (`_ribbon_reading`), and each call writes its own columns and index
    from that reading.
    """
    if variant not in RIBBON_VARIANTS:
        raise ValueError(f"unknown ribbon variant {variant!r}")
    alpha = check_composition(alpha)
    ts, reading = _ribbon_reading(alpha)
    cols = []
    for targets in reading:
        g = []
        for j, k in enumerate(targets):
            if k is None:  # r > r'
                col = {} if variant == "opi" else {j: 1}
            elif k == j:  # r == r'
                col = {j: 1} if variant == "opi" else {}
            elif variant == "opi":
                col = {j: 1, k: 1}
            else:
                col = {k: -1} if variant == "theta" else {k: 1}
            g.append(col)
        cols.append(g)
    return HModule._trusted(sum(alpha), ts, cols, f"P_{alpha}[{variant}]")


@lru_cache(maxsize=1)
def _ribbon_reading(alpha: Composition) -> tuple[tuple[Srt, ...], tuple[tuple[int | None, ...], ...]]:
    """A shape's ribbon tableaux, and per generator i the case each is in:
    None when i + 1 lies in a lower row than i, the tableau's own position
    when they share a row, and the position of the tableau with i and
    i + 1 swapped when i + 1 lies higher.

    One entry is kept, so the variants of one shape, built one after
    another, read its tableaux once; it holds only tuples, which no
    caller can change.
    """
    ts = tableaux.enumerate_srt(alpha)
    index = {t: j for j, t in enumerate(ts)}
    reading = []
    for i in range(1, sum(alpha)):
        targets = []
        for j, t in enumerate(ts):
            r, r1 = t.row_of(i), t.row_of(i + 1)
            targets.append(None if r > r1 else j if r == r1 else index[t.swap_values(i)])
        reading.append(tuple(targets))
    return ts, tuple(reading)


# ---------------------------------------------------------------------------
# relation checking


class RelationReport(NamedTuple):
    ok: bool
    violations: list[dict]

    def to_json(self):
        return {"ok": self.ok, "violations": self.violations}


def check_relations(m: HModule) -> RelationReport:
    """Exact idempotency, braid, and far-commutation checks, column by column.

    A word's images are built one letter at a time, right to left.  The
    image of a one-entry vector ``{c: x}`` is read straight off column c:
    the column itself when x is 1, scaled by x otherwise; every other
    vector goes through `_apply_cols`.  Columns handed on this way are
    only compared, never changed.
    """
    violations = []
    cols = m.cols

    def word(*letters: int) -> list[Vec]:
        # images of the basis vectors under pi_{letters[0]} ... pi_{letters[-1]}
        *rest, last = letters
        out = cols[last - 1]
        for i in reversed(rest):
            g = cols[i - 1]
            images = []
            for v in out:
                if len(v) == 1:
                    [(c, x)] = v.items()
                    images.append(g[c] if x == 1 else {k: x * y for k, y in g[c].items()})
                else:
                    images.append(_apply_cols(g, v))
            out = images
        return out

    for i in range(1, m.n):
        if word(i, i) != cols[i - 1]:
            violations.append({"relation": "idempotent", "i": i})
    for i in range(1, m.n - 1):
        if word(i, i + 1, i) != word(i + 1, i, i + 1):
            violations.append({"relation": "braid", "i": i})
    for i, j in itertools.combinations(range(1, m.n), 2):
        if j - i >= 2 and word(i, j) != word(j, i):
            violations.append({"relation": "commute", "i": i, "j": j})
    return RelationReport(not violations, violations)


# ---------------------------------------------------------------------------
# hom spaces, endomorphism rings, indecomposability


def hom_space(m: HModule, n_: HModule) -> list[RatMat]:
    """Basis of the space of intertwiners m -> n_, solved from a presentation of m.

    Generators are the unit vectors of m in basis order, skipping each one
    that already lies in the submodule generated so far.  A breadth-first
    search applies every generator matrix to every vector it has accepted;
    a tracked `EchelonSpace` accepts the images that enlarge the span, so
    the accepted vectors form a basis of m.  Every other image is a
    relation ``pi_i v = sum_l c_l v_l`` among accepted vectors, with an
    empty sum when ``pi_i v = 0``.

    The presentation is exact.  In the free module on the generators
    modulo these relations, the accepted words span a subspace that holds
    the generators and, by the relations, is closed under every pi_i, so
    it is the whole quotient.  The quotient maps onto m, whose dimension
    is the number of accepted words, so it is m.  A map m -> n_ is thus a
    choice of one image in n_ per generator that satisfies every relation.

    The candidate maps start as the k * dim n_ unit choices of generator
    images, k being the number of generators, and each relation shrinks
    them by one nullspace over the current candidates.  A candidate keeps
    its images of the accepted vectors, from which its matrix is read off
    at the end.  The basis comes out in a deterministic order.
    """
    if m.n != n_.n:
        raise ValueError("degree mismatch")
    dm, dn = m.dim, n_.dim
    if dm == 0 or dn == 0:
        return []
    src_cols, tgt_cols = m.cols, n_.cols
    span = EchelonSpace(dm, track=True)
    accepted: list[Vec] = []  # raw input k of `span` is accepted[k]
    position: dict[frozenset, int] = {}  # accepted vector -> k

    def express(w: Vec) -> Vec | None:
        # an image equal to an accepted vector needs no elimination
        k = position.get(frozenset(w.items()))
        return {k: 1} if k is not None else span.input_coords(w)

    def accept(w: Vec) -> None:
        span.add(w)
        position[frozenset(w.items())] = len(accepted)
        accepted.append(w)

    cands: list[list[Vec]] = []  # per candidate map, its image of each accepted vector
    for b in range(dm):
        seed = {b: 1}
        if express(seed) is not None:
            continue
        # earlier candidates send the new generator to 0
        for images in cands:
            images.append({})
        cands += [[{} for _ in accepted] + [{a: 1}] for a in range(dn)]
        accept(seed)
        queue = [len(accepted) - 1]
        for j in queue:  # grows while it is walked: breadth first
            for i in range(1, m.n):
                w = _apply_cols(src_cols[i - 1], accepted[j])
                rel = express(w) if w else {}
                if rel is None:
                    accept(w)
                    queue.append(len(accepted) - 1)
                    for images in cands:
                        images.append(_apply_cols(tgt_cols[i - 1], images[j]))
                    continue
                cands = _impose_relation(cands, tgt_cols[i - 1], j, rel)
    unit_coords = [express({b: 1}) for b in range(dm)]
    mats = []
    for images in cands:
        data = {}
        for b, coords in enumerate(unit_coords):
            col: Vec = {}
            for k, x in coords.items():
                vec_axpy(col, x, images[k])
            for a, x in col.items():
                data[a, b] = x
        mats.append(RatMat(dn, dm, data))
    return mats


def _apply_cols(cols: Sequence[Vec], v: Vec) -> Vec:
    """Matrix times v, for a matrix given by its columns; entries that cancel are dropped."""
    out: Vec = {}
    for c, x in v.items():
        for k, y in cols[c].items():
            s = out.get(k, 0) + x * y
            if s:
                out[k] = s
            else:
                out.pop(k, None)
    return out


def _impose_relation(
    cands: list[list[Vec]], tgt_cols: Sequence[Vec], j: int, rel: Vec
) -> list[list[Vec]]:
    """The combinations of candidates that respect ``pi_i v_j = sum_l rel[l] v_l``.

    Each candidate f leaves a defect ``B_i f(v_j) - sum_l rel[l] f(v_l)`` in
    the target; the combinations whose defects cancel span the new
    candidates.
    """
    rows: dict[int, Vec] = {}  # target coordinate -> defect entries by candidate
    for r, images in enumerate(cands):
        defect = _apply_cols(tgt_cols, images[j])
        for k, x in rel.items():
            vec_axpy(defect, -x, images[k])
        for a, x in defect.items():
            rows.setdefault(a, {})[r] = x
    if not rows:
        return cands
    out = []
    for y in nullspace(list(rows.values()), len(cands)):
        combined = []
        for k in range(len(cands[0])):
            img: Vec = {}
            for r, x in y.items():
                vec_axpy(img, x, cands[r][k])
            combined.append(img)
        out.append(combined)
    return out


class IndecomposabilityCertificate(NamedTuple):
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
    when that form has rank one.  The endomorphisms come from `hom_space`,
    so a cyclic M costs dim M unknowns.  Each Gram entry
    tr(f_a f_b) = sum over (r, c) of f_a[r, c] * f_b[c, r] is read off the
    two matrices without forming their product, and the form is symmetric,
    so only the entries with a <= b are computed.
    """
    if m.dim == 0:
        raise ValueError("the zero module has no endomorphism ring")
    ends = hom_space(m, m)
    k = len(ends)
    rows: list[Vec] = [{} for _ in range(k)]
    for a in range(k):
        fa = ends[a].data
        for b in range(a, k):
            fb = ends[b].data
            x = sum(y * fb.get((c, r), 0) for (r, c), y in fa.items())
            if x:
                rows[a][b] = rows[b][a] = x
    rank = rank_of(rows, k)
    cert = IndecomposabilityCertificate(k, rank)
    return cert.indecomposable, cert


# ---------------------------------------------------------------------------
# the top layer and composition factors


def _commutator_columns(m: HModule) -> list[list[Vec]]:
    """Columns of every nonzero commutator pi_i pi_j - pi_j pi_i."""
    cols = m.cols
    out = []
    for a, b in itertools.combinations(cols, 2):
        comm = []
        for c in range(m.dim):
            w = _apply_cols(a, b[c])
            vec_axpy(w, -1, _apply_cols(b, a[c]))
            comm.append(w)
        if any(comm):
            out.append(comm)
    return out


def _generator_closure(m: HModule, seeds: Iterable[Vec]) -> EchelonSpace:
    cols = m.cols
    space = EchelonSpace(m.dim)
    frontier = []
    for v in seeds:
        if space.add(v):
            frontier.append(dict(v))
    while frontier:
        v = frontier.pop()
        for g in cols:
            w = _apply_cols(g, v)
            if w and space.add(w):
                frontier.append(w)
    return space


def _top_layer(m: HModule) -> tuple[int, list[list[Vec]]]:
    """M / rad M: its dimension, and per generator its action on layer
    coordinates by columns.

    The radical of the algebra is its commutator ideal (the quotient is
    commutative and generated by idempotents, hence semisimple, and the
    ground field has characteristic zero), so rad M is the generator
    closure of the commutators' columns.  The layer's action is expressed
    on residues of basis vectors modulo rad M; the generators preserve
    rad M, so reducing an image modulo it and solving against the residue
    basis is exact.
    """
    rad = _generator_closure(m, (w for comm in _commutator_columns(m) for w in comm if w))
    if m.dim and len(rad) >= m.dim:
        raise RuntimeError("the radical of a nonzero module is the whole module")
    span = EchelonSpace(m.dim, track=True)
    reps: list[Vec] = []
    for j in range(m.dim):
        res = rad.residue({j: 1})
        if res and not span.contains(res):
            span.add(res)  # accepted adds only, so input index == rep index
            reps.append(res)
    layer_cols = []
    for g in m.cols:
        gcols = []
        for rep in reps:
            coords = span.input_coords(rad.residue(_apply_cols(g, rep)))
            if coords is None:
                raise RuntimeError("layer action escaped the layer")
            gcols.append(coords)
        layer_cols.append(gcols)
    return len(reps), layer_cols


def _trace_factors(n: int, dim: int, cols: Sequence[Sequence[Vec]]) -> Counter[Composition]:
    """Simple multiplicities of the degree-n module on Q^dim whose
    generators have these columns, read off traces.

    Every simple module is one dimensional: F_E, on which pi_i acts as 1
    for i in E and 0 otherwise (Norton 1979).  A trace is additive along a
    composition series, and x_J, the product of the pi_j with j in J, acts
    on F_E as 1 when J lies in E and as 0 otherwise.  So tr(x_J) is the
    sum of the m_E over the E that contain J, and inversion
    over supersets gives m_E = sum over J containing E of
    (-1)^{|J - E|} tr(x_J).  F_E is indexed by the composition with
    partial sums [1, n - 1] - E, and the factors come out in the order
    of E's indicator word (pi_1 first), kills before fixes.

    The traces take one depth-first walk over the subsets J per basis
    vector b.  Generators are added in increasing order, so each node
    applies one generator to its parent's vector; a zero vector ends its
    branch, and each node adds its vector's b-th entry to tr(x_J).

    A generator that is not idempotent, or an m_E that is not a natural
    number, raises `RuntimeError`.  On the top layer (`_top_layer`) the
    generators always commute, because rad M holds every commutator image
    by construction, so idempotency is the one property left to check
    there: commuting idempotents split the layer into its simple summands.
    """
    for i, g in enumerate(cols, 1):
        if any(_apply_cols(g, col) != col for col in g):
            raise RuntimeError(f"generator {i} is not idempotent")
    k = max(n - 1, 0)  # pi_i is bit k - i of a subset's mask
    traces = [0] * (1 << k)
    for b in range(dim):
        stack = [(0, 0, {b: 1})]  # mask of J, first generator left to add, x_J e_b
        while stack:
            mask, first, v = stack.pop()
            traces[mask] += v.get(b, 0)
            for i in range(first, k):
                w = _apply_cols(cols[i], v)
                if w:
                    stack.append((mask | 1 << (k - 1 - i), i + 1, w))
    for bit in range(k):
        step = 1 << bit
        for mask in range(1 << k):
            if not mask & step:
                traces[mask] -= traces[mask | step]
    out: Counter[Composition] = Counter()
    for mask, mult in enumerate(traces):
        if not mult:
            continue
        beta = comp_of([i for i in range(1, n) if not mask >> (k - i) & 1], n)
        if mult < 0 or mult.denominator != 1:
            raise RuntimeError(f"factor {beta} has multiplicity {mult}, not a natural number")
        out[beta] = int(mult)
    return out


def composition_factors(m: HModule) -> Counter[Composition]:
    """Multiset of simple factors, read off traces (`_trace_factors`)."""
    return _trace_factors(m.n, m.dim, m.cols)


def top_factors(m: HModule) -> Counter[Composition]:
    """Simple multiplicities of M / rad M (`_top_layer`), read off traces."""
    return _trace_factors(m.n, *_top_layer(m))


# ---------------------------------------------------------------------------
# tableau generators and the action graph


def is_spct_cyclic(alpha: Sequence[int], sigma: Sequence[int]) -> bool:
    """Whether one tableau generates the whole tableau module, which is
    narrower than the module being cyclic.  pi_i sends a tableau to zero,
    to itself or to one other tableau, so a tableau generates the span of
    the tableaux it reaches in the swap graph (`tableaux._swap_graph`)."""
    return _spct_cyclic(tableaux._enumerate_spct(*tableaux._check_pair(alpha, sigma)))


def _spct_cyclic(ts: Sequence[tableaux.Spct]) -> bool:
    """`is_spct_cyclic` of the pair whose listed tableaux are ts."""
    return bool(ts) and _one_reaches_all(tableaux._swap_graph(ts, [tableaux._step_id(t) for t in ts]))


def _one_reaches_all(graph: Sequence[Sequence[tuple[int, int | None]]]) -> bool:
    """Whether some vertex of a nonempty directed graph reaches all of it.

    Walks from each vertex not yet seen share one seen-list.  A vertex that
    reaches all is first seen in a walk whose root then reaches all, so no
    walk follows: the last root decides, by one more walk."""
    seen = [False] * len(graph)
    for j in range(len(graph)):
        if not seen[j]:
            root = j
            tableaux._reach(graph, j, seen)
    seen = [False] * len(graph)
    return tableaux._reach(graph, root, seen) and all(seen)


def graph_dot(alpha, sigma, bound: int = tableaux.DEFAULT_TABLEAU_BOUND) -> str:
    """DOT rendering of the action graph, edges labeled by the generator."""
    ts = tableaux.enumerate_spct(alpha, sigma, bound)
    lines = ["digraph spct {"]
    lines += [f'  t{j} [label="{t.to_json()}"];' for j, t in enumerate(ts)]
    graph = tableaux._swap_graph(ts, [tableaux._step_id(t) for t in ts])
    lines += [f'  t{j} -> t{k} [label="{i}"];' for j, edges in enumerate(graph) for i, k in edges]
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# column-word transport and the filtration-side statistics


class AppendixData(NamedTuple):
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
            nxt = tableaux.pi_action(cur, i)
            if nxt is None or nxt is cur:
                return False
            cur = nxt
        if cur != u:
            return False
    return True


def reachable_pairs(cls: SpctClass) -> list[tuple[Spct, Spct]]:
    """Ordered pairs (t, u), t != u, with u reachable from t by moving steps."""
    members = cls.members
    graph = tableaux._swap_graph(members, [tableaux._step_id(t) for t in members])
    out = []
    for j, t in enumerate(members):
        seen = [False] * len(members)
        tableaux._reach(graph, j, seen)
        out.extend((t, u) for k, u in enumerate(members) if seen[k] and k != j)
    return out
