"""Slow oracle: intertwiner spaces solved entry by entry.

The package solves hom spaces from a presentation of the source module,
with one unknown per target coordinate per generator.  This oracle makes
every entry of the map's matrix an unknown and imposes
``F @ A_i - B_i @ F = 0`` entry by entry, so it shares no presentation,
breadth-first search or candidate bookkeeping with the package.
"""

from spcthecke.linalg import RatMat, nullspace, rank_of


def hom_space(m, n_):
    """Basis of the intertwiners m -> n_, one unknown per matrix entry."""
    if m.n != n_.n:
        raise ValueError("degree mismatch")
    dm, dn = m.dim, n_.dim
    if dm == 0 or dn == 0:
        return []
    # unknown F[a, b] lives at index a*dm + b (a in target, b in source)
    equations = []
    for i in range(1, m.n):
        acols = m.gen(i).cols()
        brows = n_.gen(i).rows()
        for a in range(dn):
            brow = brows[a]
            for b in range(dm):
                eq = {}
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
    return [
        RatMat(dn, dm, {(k // dm, k % dm): x for k, x in v.items()})
        for v in nullspace(equations, dn * dm)
    ]


def end_invariants(m):
    """(dim End(m), rank of the trace form), with each product formed."""
    ends = hom_space(m, m)
    gram = [{b: (fa * fb).trace() for b, fb in enumerate(ends)} for fa in ends]
    rows = [{b: x for b, x in row.items() if x} for row in gram]
    return len(ends), rank_of(rows, len(ends))
