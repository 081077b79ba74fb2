"""Slow oracle: tableau modules and their class submodules, built the long way.

The package reads each tableau once (`tableaux._steps`) and builds each
class submodule straight from its class.  This oracle builds the whole
tableau module through the public constructor with one `pi_action` call
per tableau and generator, groups the basis by `class_label`, finds each
class's source and sink from `descent_set`, positions and `is_attacking`,
and restricts the whole module to each class, checking that no generator
leaves it.  Action components are found by a search over sets of
tableaux, each edge a new tableau from `pi_action`.  It shares none of the
one-pass reading.  `indexed_action_components`, a search over indices
into the listing with swapped positions as edges, is checked against it.

Whether one tableau generates the whole tableau module is decided here by
linear algebra: the closure of each basis vector in turn under the
generators, by elimination (`cyclic_span`, `is_tableau_cyclic`).  The
package decides it by reachability in its swap graph, with no module.
"""

from spcthecke import permutations as P
from spcthecke.compositions import check_composition
from spcthecke.linalg import EchelonSpace
from spcthecke.modules import HModule
from spcthecke.tableaux import _SWAP, _steps, class_label, descent_set, enumerate_spct, is_attacking, pi_action


def tableau_module(alpha, sigma):
    """The whole tableau module, validated by the public constructor."""
    alpha, sigma = check_composition(alpha), P.check_perm(sigma)
    ts = enumerate_spct(alpha, sigma)
    index = {t: j for j, t in enumerate(ts)}
    cols = []
    for i in range(1, sum(alpha)):
        images = (pi_action(t, i) for t in ts)
        cols.append([{} if u is None else {index[u]: 1} for u in images])
    return HModule(sum(alpha), ts, cols, name=f"S^{sigma}_{alpha}")


def is_source(t):
    """Every non-descent i < n has i+1 immediately to its left."""
    des = descent_set(t)
    for i in range(1, t.n):
        if i not in des:
            (ri, ci), (rj, cj) = t.pos(i), t.pos(i + 1)
            if not (ri == rj and cj == ci - 1):
                return False
    return True


def is_sink(t):
    """Every descent attacks."""
    return all(is_attacking(t, i, i + 1) for i in descent_set(t))


def classes(ts):
    """(label, members, source, sink) of each class, ordered by first member's rows."""
    groups = {}
    for t in ts:
        groups.setdefault(class_label(t), []).append(t)
    out = []
    for label, members in groups.items():
        (source,) = [t for t in members if is_source(t)]
        (sink,) = [t for t in members if is_sink(t)]
        out.append((label, tuple(members), source, sink))
    out.sort(key=lambda cl: cl[1][0].rows)
    return out


def submodule_on_labels(m, labels, name):
    """Restrict to the span of some basis labels; raise unless generator-stable."""
    idx = [m.index(b) for b in labels]
    pos = {j: p for p, j in enumerate(idx)}
    cols = []
    for g in m.cols:
        sub = []
        for j in idx:
            if not pos.keys() >= g[j].keys():
                raise ValueError("label subset is not generator-stable")
            sub.append({pos[r]: x for r, x in g[j].items()})
        cols.append(sub)
    return HModule(m.n, [m.basis[j] for j in idx], cols, name=name)


def class_submodules(alpha, sigma):
    """Each class with its submodule, restricted from the whole module."""
    m = tableau_module(alpha, sigma)
    return [(cl, submodule_on_labels(m, cl[1], f"{m.name}|{cl[0]}")) for cl in classes(m.basis)]


def action_components(ts):
    """Components of the undirected action graph, ordered by first member in ts."""
    adj = {t: set() for t in ts}
    for t in ts:
        for i in range(1, t.n):
            u = pi_action(t, i)
            if u is not None and u is not t:
                adj[t].add(u)
                adj[u].add(t)
    seen = set()
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


def indexed_action_components(ts):
    """`action_components` on indices into ts: a swap's target is the
    tableau whose positions are the source's with i and i+1 exchanged.
    Components come ordered by their first member in ts."""
    index = {t._pos: j for j, t in enumerate(ts)}
    adj = [[] for _ in ts]
    for j, t in enumerate(ts):
        pos = t._pos
        for i, step in enumerate(_steps(t), 1):
            if step == _SWAP:
                k = index[pos[:i] + (pos[i + 1], pos[i]) + pos[i + 2 :]]
                adj[j].append(k)
                adj[k].append(j)
    seen = set()
    comps = []
    for j in range(len(ts)):
        if j not in seen:
            comp, stack = {j}, [j]
            while stack:
                for k in adj[stack.pop()]:
                    if k not in comp:
                        comp.add(k)
                        stack.append(k)
            seen |= comp
            comps.append(frozenset(ts[k] for k in comp))
    return comps


def cyclic_span(m, seed):
    """Dimension of the submodule one vector generates: its closure under
    the generators, by elimination."""
    space = EchelonSpace(m.dim)
    frontier = [dict(seed)] if space.add(seed) else []
    while frontier:
        v = frontier.pop()
        for i in range(1, m.n):
            w = m.act(i, v)
            if w and space.add(w):
                frontier.append(w)
    return len(space)


def is_tableau_cyclic(alpha, sigma):
    """Whether some basis tableau generates the whole tableau module: the
    closure of every basis vector in turn."""
    m = tableau_module(alpha, sigma)
    return m.dim > 0 and any(cyclic_span(m, {j: 1}) == m.dim for j in range(m.dim))


def action_edges(ts):
    """(j, i, k) for each tableau ts[j] and each i in order where
    `pi_action` sends it to another tableau, ts[k]."""
    index = {t: j for j, t in enumerate(ts)}
    out = []
    for j, t in enumerate(ts):
        for i in range(1, t.n):
            u = pi_action(t, i)
            if u is not None and u != t:
                out.append((j, i, index[u]))
    return out


def reachable_pairs(ts):
    """The set of (t, u), t != u, with u reached from t by one or more
    `pi_action` moves within ts, searched over sets of tableaux."""
    succ = {t: set() for t in ts}
    for j, _, k in action_edges(ts):
        succ[ts[j]].add(ts[k])
    out = set()
    for t in ts:
        seen, stack = set(), list(succ[t])
        while stack:
            u = stack.pop()
            if u not in seen:
                seen.add(u)
                stack.extend(succ[u])
        out |= {(t, u) for u in seen if u != t}
    return out
