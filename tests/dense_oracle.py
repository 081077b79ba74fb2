"""Slow oracle: dense `Fraction` Gauss-Jordan, independent of the package.

The package eliminates with `EchelonSpace` and reads the lattice-layer
determinants and inverses off triangular integer matrices; these plain
dense routines check both without sharing any of that code.
"""

from fractions import Fraction


def rref(rows, ncols):
    """Nonzero rows of the reduced row echelon form, dense, over Fraction."""
    a = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(a)) if a[i][col]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        a[r] = [x / a[r][col] for x in a[r]]
        for i in range(len(a)):
            if i != r and a[i][col]:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return a[:r]


def det(rows):
    """Determinant by Gaussian elimination with row swaps."""
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant needs a square matrix")
    a = [[Fraction(x) for x in row] for row in rows]
    out = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            out = -out
        out *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return out


def inverse(rows):
    """The inverse, as the right half of the RREF of [A | I]."""
    n = len(rows)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(rows)]
    red = rref(aug, 2 * n)
    if len(red) < n or any(red[i][i] != 1 for i in range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red]
