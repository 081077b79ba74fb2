import random
from fractions import Fraction

import pytest

from dense_oracle import det, inverse, rref
from spcthecke.linalg import (
    EchelonSpace,
    RatMat,
    nullspace,
    rank_of,
)


def test_matmul_and_identity():
    a = RatMat.from_dense([[1, 2], [0, 1]])
    b = RatMat.from_dense([[1, 0], [3, 1]])
    assert (a * b).to_dense() == [[7, 2], [3, 1]]
    assert a * RatMat.identity(2) == a
    assert (a - a).is_zero()
    assert (2 * a).to_dense()[0][0] == 2


def test_apply_and_transpose():
    a = RatMat.from_dense([[0, 1], [1, 1]])
    assert a.cols() == [{1: 1}, {0: 1, 1: 1}] and a.col(0) == {1: 1}
    b = RatMat.from_dense([[1, 2], [0, 3]])
    assert b.rows() == [{0: 1, 1: 2}, {1: 3}] and b.cols() == [{0: 1}, {0: 2, 1: 3}]


def test_quadruple_round_trip():
    a = RatMat(2, 2, {(0, 1): Fraction(3, 4), (1, 0): -2})
    q = a.to_quadruples()
    assert q == [[0, 1, 3, 4], [1, 0, -2, 1]]
    assert RatMat.from_quadruples(2, 2, q) == a


def test_echelon_canonical():
    e = EchelonSpace(3)
    assert e.add({0: 2, 1: 2})
    assert e.add({1: 1, 2: 1})
    assert not e.add({0: 1, 2: -1})  # dependent on the first two
    assert e.contains({0: 5, 1: 5})
    assert not e.contains({2: 1})
    # canonical form is order-independent
    f = EchelonSpace(3)
    f.add({1: 3, 2: 3})
    f.add({0: -1, 2: 1})
    assert e.basis() == f.basis()


def test_echelon_tracking():
    e = EchelonSpace(4, track=True)
    e.add({0: 1, 1: 1})
    e.add({1: 1, 2: 1})
    coords = e.input_coords({0: 1, 2: -1})
    assert coords == {0: 1, 1: -1}
    assert e.input_coords({3: 1}) is None


def test_nullspace_small():
    # x0 + x1 = 0, x1 + x2 = 0
    basis = nullspace([{0: 1, 1: 1}, {1: 1, 2: 1}], 3)
    assert len(basis) == 1
    (v,) = basis
    assert v[0] == v[2] and v[1] == -v[0]


def test_nullspace_trivial_cases():
    assert nullspace([], 2) == [{0: 1}, {1: 1}]
    assert nullspace([{0: 1}, {1: 1}], 2) == []


def _span(vectors, dim):
    e = EchelonSpace(dim)
    for v in vectors:
        e.add(v)
    return e


def test_rank_and_span_equal():
    assert rank_of([{0: 1, 1: 2}, {0: 2, 1: 4}], 2) == 1
    # equal spans have equal reduced bases, and different spans different ones
    assert _span([{0: 1}, {1: 1}], 2).basis() == _span([{0: 1, 1: 1}, {0: 1, 1: -1}], 2).basis()
    assert _span([{0: 1}], 2).basis() != _span([{1: 1}], 2).basis()


def test_det_and_inverse():
    # the dense oracle the lattice layer in tests/test_qsym.py is checked against
    assert det([[1, 2], [3, 4]]) == -2
    assert det([[1, 1], [1, 1]]) == 0
    assert det([[0, 1], [1, 0]]) == -1
    inv = inverse([[2, 1], [1, 1]])
    assert inv == [[1, -1], [-1, 2]]
    with pytest.raises(ValueError):
        inverse([[1, 1], [1, 1]])


def test_fraction_entries_survive():
    a = RatMat.from_dense([[Fraction(1, 2), 0], [0, 1]])
    b = a * a
    assert b.to_dense()[0][0] == Fraction(1, 4)


def test_ratmat_equality_mixes_int_and_fraction():
    a = RatMat(2, 2, {(0, 0): 1, (1, 0): Fraction(-2)})
    b = RatMat(2, 2, {(0, 0): Fraction(1), (1, 0): -2})
    assert a == b and hash(a) == hash(b)
    assert a != RatMat(2, 2, {(0, 0): 1, (1, 0): Fraction(-3, 2)})
    assert a != RatMat(2, 3, {(0, 0): 1, (1, 0): -2})


# ---------------------------------------------------------------------------
# slow oracle: dense Fraction Gauss-Jordan (tests/dense_oracle.py), independent
# of EchelonSpace


def _lead(row):
    return next(k for k, x in enumerate(row) if x)


def _sparse(row):
    return {k: x for k, x in enumerate(row) if x}


def _dense(v, ncols):
    return [v.get(k, 0) for k in range(ncols)]


class _Oracle:
    """What a canonical echelon space over the added rows must report."""

    def __init__(self, ncols):
        self.ncols = ncols
        self.added = []
        self.rref = []
        self.pivots = []
        self.accepted = []  # add position of each enlarging add
        self.row_of = {}  # pivot -> index of the row it was stored in

    def add(self, row):
        """Enlarges iff the RREF gains a pivot; the stored row has that pivot."""
        self.added.append(row)
        self.rref = rref(self.added, self.ncols)
        new = {_lead(r) for r in self.rref} - set(self.pivots)
        self.pivots = [_lead(r) for r in self.rref]
        if not new:
            return False
        (p,) = new
        self.row_of[p] = len(self.accepted)
        self.accepted.append(len(self.added) - 1)
        return True

    def basis(self):
        return [_sparse(row) for row in self.rref]

    def residue(self, v):
        w = [Fraction(x) for x in _dense(v, self.ncols)]
        for p, row in zip(self.pivots, self.rref):
            c = w[p]
            w = [x - c * y for x, y in zip(w, row)]
        return _sparse(w)

    def input_coords(self, v):
        # solve sum_j x_j * accepted_j = v through the RREF of [A | v]
        cols = [self.added[i] for i in self.accepted]
        aug = [[col[k] for col in cols] + [v.get(k, 0)] for k in range(self.ncols)]
        red = rref(aug, len(cols) + 1)
        if any(_lead(row) == len(cols) for row in red):
            return None
        return {self.accepted[_lead(row)]: row[-1] for row in red if row[-1]}

    def nullspace(self):
        out = []
        for free in range(self.ncols):
            if free in self.pivots:
                continue
            v = {free: 1}
            for p, row in zip(self.pivots, self.rref):
                if row[free]:
                    v[p] = -row[free]
            out.append(v)
        return out


def _random_rows(rng, nrows, ncols):
    """Entries in -3..3 with zero rows, repeated rows and dependent rows mixed in."""
    rows = []
    for _ in range(nrows):
        pick = rng.random()
        if rows and pick < 0.15:
            rows.append(list(rng.choice(rows)))
        elif len(rows) >= 2 and pick < 0.3:
            a, b = rng.sample(rows, 2)
            s, t = rng.randint(-2, 2), rng.randint(-2, 2)
            rows.append([s * x + t * y for x, y in zip(a, b)])
        elif pick < 0.38:
            rows.append([0] * ncols)
        else:
            density = rng.choice((0.3, 0.6, 0.9))
            rows.append([rng.randint(-3, 3) if rng.random() < density else 0 for _ in range(ncols)])
    return rows


def _probes(rng, oracle, ncols):
    """Vectors to read back: some inside the span, some (likely) outside."""
    out = [{}]
    for _ in range(3):
        inside = {}
        for row in oracle.rref:
            c = rng.randint(-3, 3)
            for k, x in enumerate(row):
                inside[k] = inside.get(k, 0) + c * x
        out.append({k: x for k, x in inside.items() if x})
        out.append(_sparse([rng.randint(-3, 3) for _ in range(ncols)]))
    return out


def _check_reads(e, oracle, rng, ncols):
    assert e.basis() == oracle.basis()
    assert e.pivots == oracle.row_of
    for v in _probes(rng, oracle, ncols):
        assert e.residue(v) == oracle.residue(v), v
        assert e.contains(v) == (not oracle.residue(v))
        assert e.input_coords(v) == oracle.input_coords(v), v


@pytest.mark.parametrize("seed", range(8))
def test_echelon_space_against_dense_oracle(seed):
    rng = random.Random(seed)
    for _ in range(20):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 8)
        rows = _random_rows(rng, nrows, ncols)
        e = EchelonSpace(ncols, track=True)
        oracle = _Oracle(ncols)
        for i, row in enumerate(rows):
            assert e.add(_sparse(row)) == oracle.add(row)
            assert len(e) == len(oracle.rref)
            # reads interleaved with adds exercise the lazily reduced state
            if rng.random() < 0.4 or i == nrows - 1:
                _check_reads(e, oracle, rng, ncols)
        equations = [_sparse(row) for row in rows]
        got = nullspace(equations, ncols)
        assert [list(v.items()) for v in got] == [list(v.items()) for v in oracle.nullspace()]
        assert rank_of(equations, ncols) == len(oracle.rref)
        shuffled = rng.sample(equations, len(equations))
        assert _span(shuffled, ncols).basis() == _span(equations, ncols).basis()


def test_unit_pivots_stay_int():
    rng = random.Random(2024)
    checked = 0
    for _ in range(300):
        ncols = rng.randint(2, 8)
        e = EchelonSpace(ncols, track=True)
        unit = True
        for _ in range(rng.randint(1, 8)):
            v = _sparse([rng.choice((-1, 0, 0, 1)) for _ in range(ncols)])
            r = e.residue(v)
            if r and r[min(r)] not in (1, -1):
                unit = False
                break
            e.add(v)
        if not unit or not len(e):
            continue
        checked += 1
        assert all(type(x) is int for row in e.basis() for x in row.values())
        probe = e.basis()[-1]
        assert all(type(x) is int for x in e.input_coords(probe).values())
    assert checked > 100
