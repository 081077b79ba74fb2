"""Slow oracle: the module algorithms on generator matrices and their products.

The package acts on vectors through each module's generator columns and
forms no matrix product.  This oracle works on the `RatMat` generator
matrices instead: relations are compared as triple and double matrix
products, each radical step forms every commutator matrix again, and the
eigensplit subtracts the identity matrix.  It shares none of the package's
column bookkeeping, only the `EchelonSpace` kernel and `nullspace`, which
have an oracle of their own.
"""

import itertools
from collections import Counter

from spcthecke.compositions import comp_of
from spcthecke.linalg import EchelonSpace, RatMat, nullspace, vec_axpy


def apply(mat, v):
    """Matrix times column vector, the columns rebuilt on every call."""
    cols = mat.cols()
    out = {}
    for c, x in v.items():
        vec_axpy(out, x, cols[c])
    return out


def check_relations(m):
    """The violation list, from matrix products."""
    violations = []
    g = [m.gen(i) for i in range(1, m.n)]
    for i in range(1, m.n):
        if g[i - 1] * g[i - 1] != g[i - 1]:
            violations.append({"relation": "idempotent", "i": i})
    for i in range(1, m.n - 1):
        if g[i - 1] * g[i] * g[i - 1] != g[i] * g[i - 1] * g[i]:
            violations.append({"relation": "braid", "i": i})
    for i, j in itertools.combinations(range(1, m.n), 2):
        if j - i >= 2 and g[i - 1] * g[j - 1] != g[j - 1] * g[i - 1]:
            violations.append({"relation": "commute", "i": i, "j": j})
    return violations


def intertwines(m, n_, f):
    """Whether ``F @ A_i == B_i @ F`` for every generator."""
    return all(f * m.gen(i) == n_.gen(i) * f for i in range(1, m.n))


def radical_vectors(m, space_vectors):
    """rad . W as the generator closure of the commutator-matrix images of W."""
    seeds = []
    for i, j in itertools.combinations(range(1, m.n), 2):
        comm = m.gen(i) * m.gen(j) - m.gen(j) * m.gen(i)
        if comm.is_zero():
            continue
        seeds += [w for v in space_vectors if (w := apply(comm, v))]
    space = EchelonSpace(m.dim)
    frontier = [v for v in seeds if space.add(v)]
    while frontier:
        v = frontier.pop()
        for i in range(1, m.n):
            w = apply(m.gen(i), v)
            if w and space.add(w):
                frontier.append(w)
    return space


def radical_layers(m):
    """Per layer, top first, its dimension and induced generator matrices."""
    layers = []
    current = [{j: 1} for j in range(m.dim)]
    while current:
        nxt = [dict(r) for r in radical_vectors(m, current).basis()]
        assert len(nxt) < len(current), "radical filtration did not shrink"
        e1 = EchelonSpace(m.dim)
        for v in nxt:
            e1.add(v)
        e2 = EchelonSpace(m.dim, track=True)
        reps = []
        for v in current:
            res = e1.residue(v)
            if res and not e2.contains(res):
                e2.add(res)
                reps.append(res)
        gens = []
        for i in range(1, m.n):
            data = {}
            for col, rep in enumerate(reps):
                coords = e2.input_coords(e1.residue(apply(m.gen(i), rep)))
                assert coords is not None, "layer action escaped the layer"
                for row, x in coords.items():
                    data[row, col] = x
            gens.append(RatMat(len(reps), len(reps), data))
        layers.append((len(reps), gens))
        current = nxt
    return layers


def layer_factors(dim, gens, n):
    """Simple multiplicities of one layer, splitting by ``a`` and ``a - 1``."""
    blocks = [((), [{j: 1} for j in range(dim)])]
    for a in gens:
        grouped = {}
        for pattern, vecs in blocks:
            for eig in (0, 1):
                shifted = a if eig == 0 else a - RatMat.identity(dim)
                rows = {}
                for cidx, v in enumerate(vecs):
                    for r, x in apply(shifted, v).items():
                        rows.setdefault(r, {})[cidx] = x
                for c in nullspace(list(rows.values()), len(vecs)):
                    w = {}
                    for cidx, x in c.items():
                        vec_axpy(w, x, vecs[cidx])
                    grouped.setdefault(pattern + (eig,), []).append(w)
        blocks = sorted(grouped.items())
        assert sum(len(v) for _, v in blocks) == dim, "eigensplit lost dimensions"
    out = Counter()
    for pattern, vecs in blocks:
        out[comp_of({i + 1 for i, e in enumerate(pattern) if e == 0}, n)] += len(vecs)
    return out


def composition_factors(m):
    out = Counter()
    for dim, gens in radical_layers(m):
        out += layer_factors(dim, gens, m.n)
    return out


def top_factors(m):
    layers = radical_layers(m)
    return layer_factors(*layers[0], m.n) if layers else Counter()
