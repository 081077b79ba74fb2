"""Structural bijections and homomorphisms between the tableau families.

* `rho` sorts each column downward, landing on the partition rearrangement
  of the shape with longest-element type; `phi` is its greedy inverse
  (place each column entry, largest first, in the topmost row whose left
  neighbour is filled and larger); `psi` composes the two to change type.
* `tau_of_ribbon` transposes a ribbon tableau column-by-column into a
  candidate composition tableau; `ribbon_to_spct` keeps it only when it
  satisfies all defining conditions for the requested type.
  `spct_to_ribbon` inverts it: the rows, sorted, are written as the
  ribbon's column-major reading.  Both sides read the ribbon's columns
  from the geometry `tableaux` computes once per shape.
* `omega_set` is the combinatorial kernel of the projected transpose map,
  and `prc_phi_map` builds that map as an exact matrix and verifies it,
  onto the canonical class submodule built from that class alone
  (`modules.canonical_submodule`).  Each transpose is looked up among
  the class's members, which are valid, so it is not checked itself.
  Its matrix is a partial injection, so its image and kernel are sets.
* `iota_map` is the diagonal sign isomorphism from the sign-twisted ribbon
  module onto its sign-free version; a tableau's sign is the parity of its
  `star_distances` distance from the source.

Every map lists its tableaux at the enumerators' default size bound.

Every public map validates its shape and type arguments; a tableau
argument's rows already hold 1..n.  `rho` and `phi` only move those
entries, so they build with `Spct._trusted`, reading the shape off the
rows built: a caller checking the shape sees what was built.  The claim
cases, whose types are already normalised, call the cores `_phi` and
`_psi`, which check nothing.
"""

from __future__ import annotations

from collections import deque
from typing import NamedTuple, Sequence

from .compositions import check_composition, complement_of, is_partition
from .linalg import RatMat
from .modules import LinearMap, _ribbon_reading, canonical_submodule, ribbon_module
from . import permutations
from .permutations import Permutation
from . import tableaux
from .tableaux import Spct, Srt


def rho(t: Spct) -> Spct:
    """Sort each column decreasingly downward onto the partition shape.

    >>> rho(Spct([[5, 2], [7, 6, 4], [3, 1]])).rows
    ((7, 6, 4), (5, 2), (3, 1))
    """
    lam = sorted(t.shape, reverse=True)
    cols = [sorted(t.column(c), reverse=True) for c in range(1, t.num_columns() + 1)]
    rows = tuple(tuple([cols[c][r] for c in range(part)]) for r, part in enumerate(lam))
    return Spct._trusted(rows, tuple(map(len, rows)), t.n)


def phi(tbar: Spct, sigma: Sequence[int]) -> Spct:
    """Greedy inverse of `rho` toward the requested first-column type.

    The first column is rearranged so its standardization is `sigma`;
    every later column is distributed largest entry first, each landing in
    the smallest-index row whose previous box is filled and strictly
    larger.

    >>> phi(Spct([[7, 6, 4], [5, 2], [3, 1]]), (1, 2, 3)).rows
    ((3, 2), (5, 1), (7, 6, 4))
    """
    sigma = permutations.check_perm(sigma)
    if not is_partition(tbar.shape):
        raise ValueError(f"shape {tbar.shape} is not a partition")
    if len(sigma) != len(tbar.shape):
        raise ValueError("type degree does not match shape length")
    return _phi(tbar, sigma)


def _phi(tbar: Spct, sigma: Permutation) -> Spct:
    """`phi` for a partition-shaped tableau and a type of its length, both
    already checked; an entry with no admissible row still raises."""
    ell = len(tbar.shape)
    first = sorted(tbar.column(1))
    rows: list[list[int]] = [[first[sigma[r] - 1]] for r in range(ell)]
    for c in range(2, tbar.num_columns() + 1):
        for v in sorted(tbar.column(c), reverse=True):
            for r in range(ell):
                if len(rows[r]) == c - 1 and rows[r][-1] > v:
                    rows[r].append(v)
                    break
            else:
                raise ValueError(
                    f"no admissible row for entry {v} in column {c}; "
                    "input is not in the image of the column sort"
                )
    out = tuple(map(tuple, rows))
    return Spct._trusted(out, tuple(map(len, out)), tbar.n)


def psi(t: Spct, sigma2: Sequence[int]) -> Spct:
    """Change the type through the partition-shape pivot.

    >>> psi(Spct([[5, 2], [7, 6, 4], [3, 1]]), (1, 2, 3)).shape
    (2, 2, 3)
    """
    return phi(rho(t), sigma2)


def _psi(t: Spct, sigma2: Permutation) -> Spct:
    """`psi` for a type already validated, of the length of t's shape."""
    return _phi(rho(t), sigma2)


# ---------------------------------------------------------------------------
# the ribbon -> composition tableau transpose


def tau_of_ribbon(T: Srt, sigma: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """Row i of the result is column sigma(i) of the ribbon, decreasing.

    Always returns the raw filling; it need not satisfy the tableau
    conditions.
    """
    return _tau(T, _check_type(sigma, T.num_columns()))


def _check_type(sigma: Sequence[int], ncols: int) -> Permutation:
    """sigma as a permutation of the ribbon's column count."""
    sigma = permutations.check_perm(sigma)
    if len(sigma) != ncols:
        raise ValueError(
            f"type degree {len(sigma)} != number of ribbon columns {ncols}"
        )
    return sigma


def _tau(T: Srt, sigma: Permutation) -> tuple[tuple[int, ...], ...]:
    """`tau_of_ribbon` for a type already checked against T's columns."""
    return tuple(tuple(sorted(T.column(c), reverse=True)) for c in sigma)


def ribbon_to_spct(T: Srt, sigma: Sequence[int]) -> Spct | None:
    """The transpose when it is a valid tableau of type sigma, else None."""
    rows = tau_of_ribbon(T, sigma)
    if tableaux.is_valid_spct_rows(rows, tuple(sigma)):
        return Spct(rows)
    return None


def spct_to_ribbon(t: Spct, sigma: Sequence[int]) -> Srt:
    """Inverse transpose: column i of the ribbon is row sigma^{-1}(i), increasing."""
    sigma = permutations.check_perm(sigma)
    inv = permutations.inverse(sigma)
    alpha = complement_of(
        permutations.compose_right_action(t.shape, inv)
    )
    return Srt._from_reading(alpha, [v for r in inv for v in sorted(t.rows[r - 1])])


def omega_set(alpha: Sequence[int], sigma: Sequence[int]) -> list[Srt]:
    """Ribbon tableaux killed by the projected transpose map.

    Local column indexing: entry k of column j counts from the bottom box
    of that column.  A tableau is in the set when some pair of columns
    i < j is out of order at a common local height, or when the type pulls
    i before j and some entry of column i beats the one just above it in
    column j.
    """
    alpha = check_composition(alpha)
    sigma = _check_type(sigma, len(complement_of(alpha)))
    return [T for T in tableaux.enumerate_srt(alpha) if _omega_member(T, sigma)]


def _omega_member(T: Srt, sigma: Permutation) -> bool:
    ncols = T.num_columns()
    cols = [T.column(c)[::-1] for c in range(1, ncols + 1)]
    inv = permutations.inverse(sigma)
    for i in range(1, ncols + 1):
        for j in range(i + 1, ncols + 1):
            ci, cj = cols[i - 1], cols[j - 1]
            for k in range(1, min(len(ci), len(cj)) + 1):
                if ci[k - 1] > cj[k - 1]:
                    return True
            if inv[i - 1] < inv[j - 1]:
                for k in range(1, len(ci) + 1):
                    if k + 1 <= len(cj) and ci[k - 1] > cj[k]:
                        return True
    return False


# ---------------------------------------------------------------------------
# the projected transpose as an exact module map


class PrcPhiResult(NamedTuple):
    linmap: LinearMap
    surjective: bool
    kernel_matches_omega: bool
    omega_size: int
    target_dim: int

    @property
    def ok(self) -> bool:
        return bool(self.linmap.intertwines) and self.surjective and self.kernel_matches_omega

    def to_json(self):
        return {
            "intertwines": self.linmap.intertwines,
            "surjective": self.surjective,
            "kernel_matches_omega": self.kernel_matches_omega,
            "omega_size": self.omega_size,
            "target_dim": self.target_dim,
        }


def prc_phi_map(alpha: Sequence[int], sigma: Sequence[int]) -> PrcPhiResult:
    """Build and verify the map from the sign-free ribbon module onto the
    canonical-class submodule of the transposed tableau module.

    The matrix sends a ribbon tableau to its transpose when that lands in
    the canonical class and to zero otherwise: a partial injection
    `image`, read as sets.  It is surjective when every target position
    is an image.  Its kernel is span `omega_set` when the killed
    positions are Omega's and no two tableaux share an image: two with
    one image would put e_T - e_T' in the kernel, outside span Omega.
    The intertwiner property is checked on the matrix.
    """
    alpha = check_composition(alpha)
    sigma = permutations.check_perm(sigma)
    beta = permutations.compose_right_action(complement_of(alpha), sigma)
    if not tableaux.is_compatible(beta, sigma):
        raise ValueError(
            f"target shape {beta} is incompatible with {sigma}; "
            "the projected transpose map is identically zero there"
        )
    src = ribbon_module(alpha, "star")
    _, tgt = canonical_submodule(beta, sigma)
    image = {}
    for j, T in enumerate(src.basis):
        # only a member counts, and members are valid: no check of its own
        rows = _tau(T, sigma)
        t = Spct._trusted(rows, tuple(map(len, rows)), T.n)
        if t in tgt:
            image[j] = tgt.index(t)
    mat = RatMat(tgt.dim, src.dim, {(i, j): 1 for j, i in image.items()})
    linmap = LinearMap(src, tgt, mat, name=f"prc_phi[{alpha},{sigma}]")
    linmap.check_intertwiner()
    images = set(image.values())
    omega = omega_set(alpha, sigma)
    killed = {j for j in range(src.dim) if j not in image}
    matches = len(images) == len(image) and killed == {src.index(T) for T in omega}
    return PrcPhiResult(linmap, len(images) == tgt.dim, matches, len(omega), tgt.dim)


def prc_phi_for_target(beta: Sequence[int], sigma: Sequence[int]) -> PrcPhiResult:
    """Same map, parametrized by the tableau-module side.

    The ribbon shape is the complement of the type-unsorted target shape,
    so the source corresponds to the projective cover of the canonical
    submodule of the (beta, sigma) tableau module.
    """
    beta = check_composition(beta)
    sigma = permutations.check_perm(sigma)
    alpha = complement_of(permutations.compose_right_action(beta, permutations.inverse(sigma)))
    return prc_phi_map(alpha, sigma)


# ---------------------------------------------------------------------------
# the diagonal sign isomorphism


def star_distances(alpha: Sequence[int]) -> dict[Srt, int]:
    """BFS distance from the column-major source in the sign-free action
    graph, whose edges are the swap targets of `modules._ribbon_reading`."""
    alpha = check_composition(alpha)
    ts, reading = _ribbon_reading(alpha)
    j0 = ts.index(tableaux.source_ribbon_tableau(alpha))
    dist = {j0: 0}
    queue = deque([j0])
    while queue:
        j = queue.popleft()
        for targets in reading:
            k = targets[j]
            if k is not None and k not in dist:
                dist[k] = dist[j] + 1
                queue.append(k)
    if len(dist) < len(ts):
        raise RuntimeError(
            f"{len(ts) - len(dist)} ribbon tableaux unreachable from the source of {alpha}"
        )
    return {ts[j]: d for j, d in dist.items()}


def iota_map(alpha: Sequence[int]) -> LinearMap:
    """Diagonal signs conjugating the sign-twisted module to the sign-free one."""
    alpha = check_composition(alpha)
    theta_mod = ribbon_module(alpha, "theta")
    star_mod = ribbon_module(alpha, "star")
    dist = star_distances(alpha)
    mat = RatMat(
        star_mod.dim,
        theta_mod.dim,
        {(j, j): (-1) ** dist[T] for j, T in enumerate(theta_mod.basis)},
    )
    lm = LinearMap(theta_mod, star_mod, mat, name=f"iota[{alpha}]")
    lm.check_intertwiner()
    return lm
